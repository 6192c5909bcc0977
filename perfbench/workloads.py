"""The benchmark's workloads: inputs drawn from the seed, one timed pass, checks.

Each workload builds its inputs once per process (:meth:`setup`), then
runs identical *passes* over them (:meth:`run_pass`), each timed as a
whole.  A pass is a list of *ops* — grid points, jobs or admissions —
and returns every op's output, so :meth:`check` can compare the pass
against the references it must equal.  Checks run outside the timed
region.

Sizes that set the cost of a pass are stratified (every size octave
gets the same number of jobs), so a pass costs about the same on every
seed and the seed only changes which inputs are drawn inside each
stratum.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import time
import typing

import numpy

from repro import (
    PAPER_DAXPY_MODEL,
    ManticoreSystem,
    OffloadModel,
    ReproError,
    SoCConfig,
    SweepCache,
    SweepExecutor,
    TileGroup,
    mape,
    min_clusters_for_deadline,
    offload,
    run_on_host,
)
from repro.errors import DecisionError
from repro.soc.tiles import SNITCH, VECWIDE
from repro.traffic import (
    BurstyArrivals,
    PoissonArrivals,
    TrafficAlwaysHost,
    TrafficAlwaysOffload,
    TrafficDeadlineAware,
    TrafficEngine,
    TrafficModelDriven,
    compute_metrics,
    generate_traffic,
)
from repro.workload import characterize_platform, generate_workload

from common import DEFAULT_SEED, RECORDED_PATH, ROOT

GOLDEN_PATH = os.path.join(ROOT, "tests", "data", "golden_cycles.json")

#: Kernels whose working set fits TCDM at every swept (N, M).
SWEEP_KERNELS = ("daxpy", "memcpy", "scale", "axpby", "relu", "vecsum",
                 "saxpy", "stencil3")
VARIANTS = ("baseline", "multicast_only", "hw_sync_only", "extended")
#: The N values of the golden DAXPY grid; every sweep includes them.
GOLDEN_N = (1024, 2048, 4096, 8192)

JOB_KERNELS = ("daxpy", "memcpy", "scale", "dot")
TRAFFIC_KERNELS = ("daxpy", "memcpy")
#: One size octave per stratum over the generators' range [16, 4096].
OCTAVES = tuple((16 << k, (16 << (k + 1)) - (0 if k == 7 else 1))
                for k in range(8))

#: Sizes per scale.  ``tiny`` is for the self-test only.
SCALES = {
    "full": {
        "sweep_kernels": SWEEP_KERNELS, "variants": VARIANTS,
        "sweep_n": 6, "sweep_m": tuple(range(1, 33)),
        "mixed_kernels": ("daxpy", "memcpy"),
        "little_m": tuple(range(1, 25)), "big_m": tuple(range(1, 9)),
        "jobs_per_cell": 16,
        "light_jobs": 12000, "backlog_jobs": (256, 512),
        "idle_checks": 64, "direct_checks": 2,
    },
    "tiny": {
        "sweep_kernels": ("daxpy", "scale"), "variants": ("baseline",
                                                          "extended"),
        "sweep_n": 5, "sweep_m": (1, 2, 4, 8, 16, 32),
        "mixed_kernels": ("daxpy",),
        "little_m": (1, 2), "big_m": (1, 2),
        "jobs_per_cell": 1,
        "light_jobs": 400, "backlog_jobs": (24, 48),
        "idle_checks": 8, "direct_checks": 1,
    },
}

#: Deadline slack and tenants of the traffic scenarios (E13's values).
SLACK = 3.0
TENANTS = 3
LIGHT_GAP = 300.0
#: A tenth of E13's interarrival gap: offload-heavy policies build a
#: backlog of hundreds of live reservations within a few hundred jobs.
BACKLOG_GAP = 30.0


def subseed(seed: int, *keys: int) -> int:
    """A 63-bit seed derived from ``seed`` and ``keys`` (no collisions
    between neighbouring seeds)."""
    state = numpy.random.SeedSequence([seed, *keys]).generate_state(
        1, dtype=numpy.uint64)
    return int(state[0] >> numpy.uint64(1))


def digest(values: typing.Any) -> str:
    """SHA-256 of a JSON-serializable value."""
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class PassResult:
    """One timed pass: op count, host seconds, outputs, layer counters."""

    ops: int
    seconds: float
    #: Simulated (or, for traffic, virtual) cycles the pass delivered.
    cycles: int
    #: Op key -> output; compared across passes and against references.
    outputs: typing.Dict[str, typing.Any]
    #: Keys of ops that raised.
    raised: typing.Set[str]
    counters: typing.Dict[str, float]


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = "workload"

    def __init__(self, seed: int, scale: str, tmp_dir: str,
                 recorded: bool = True) -> None:
        self.seed = seed
        self.scale = SCALES[scale]
        self.tmp_dir = tmp_dir
        self.first: typing.Optional[PassResult] = None
        #: Called with each op's key before the op runs (the traced run
        #: tags its spans with it).
        self.on_op: typing.Callable[[str], None] = lambda key: None
        #: Outputs recorded for the default seed at full scale, if these
        #: are the inputs they were recorded from.
        self.recorded: typing.Optional[typing.Dict[str, typing.Any]] = None
        if recorded and seed == DEFAULT_SEED and scale == "full":
            with open(RECORDED_PATH) as handle:
                self.recorded = json.load(handle).get(self.name)

    def prepare(self) -> None:
        """Once per benchmark run, before any measuring process."""

    def setup(self) -> None:
        """Build the inputs (timed as part of ``setup_s``)."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def references(self) -> typing.Dict[str, typing.Any]:
        """Expected outputs by op key, beyond pass-to-pass equality."""
        return self.recorded if self.recorded is not None else {}

    def failed_keys(self, result: PassResult) -> typing.Set[str]:
        """Ops of ``result`` that raised, differ from the first pass, or
        differ from a reference."""
        if self.first is None:
            self.first = result
        expected = self.references()
        failed = set(result.raised)
        for key, value in result.outputs.items():
            if (value != self.first.outputs.get(key)
                    or (key in expected and value != expected[key])):
                failed.add(key)
        return failed

    def op_count(self, key: str) -> int:
        """Ops behind one output key."""
        return 1

    def check(self, result: PassResult) -> int:
        """Failed ops in ``result``."""
        return sum(self.op_count(key) for key in self.failed_keys(result))

    def record(self, result: PassResult) -> typing.Dict[str, typing.Any]:
        """What ``recorded.json`` keeps of a default-seed pass."""
        return result.outputs

    def extra_checks(self) -> typing.Tuple[int, int]:
        """Ops run only to check others, once per process: (ops, failed)."""
        return 0, 0

    def accuracy(self) -> float:
        """MAPE (%) of this workload's fitted DAXPY model against the
        paper's Eq. 1 model."""
        return 0.0


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Grid:
    label: str
    config: SoCConfig
    kernel: str
    n_values: typing.Tuple[int, ...]
    m_values: typing.Tuple[int, ...]
    variant: str = "auto"
    tile_group: typing.Optional[str] = None


def mixed_fabric() -> SoCConfig:
    return SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=24),
         TileGroup(name="big", tile=VECWIDE, count=8)],
        multicast=True, hw_sync=True)


def sweep_n_values(seed: int, count: int) -> typing.Tuple[int, ...]:
    """The golden N values plus ``count - 4`` drawn log-uniformly, one
    per octave from [256, 512) upward, as multiples of 64."""
    rng = numpy.random.default_rng(subseed(seed, 1))
    chosen = set(GOLDEN_N)
    low = 256
    while len(chosen) < count:
        n = numpy.exp(rng.uniform(math.log(low), math.log(2 * low)))
        n = int(64 * math.floor(n / 64))
        if n not in chosen:
            chosen.add(n)
            low *= 2
    return tuple(sorted(chosen))


def design_space(seed: int, scale: dict) -> typing.List[Grid]:
    """Every kernel × variant on the 32-cluster fabric, plus the mixed
    snitch-24 + vecwide-8 fabric per tile group and ungrouped."""
    n_values = sweep_n_values(seed, scale["sweep_n"])
    base = SoCConfig(num_clusters=32)
    grids = [Grid(f"{kernel}/{variant}", base.for_variant(variant), kernel,
                  n_values, scale["sweep_m"], variant)
             for kernel in scale["sweep_kernels"]
             for variant in scale["variants"]]
    mixed = mixed_fabric()
    for kernel in scale["mixed_kernels"]:
        grids.append(Grid(f"{kernel}/mixed:little", mixed, kernel, n_values,
                          scale["little_m"], tile_group="little"))
        grids.append(Grid(f"{kernel}/mixed:big", mixed, kernel, n_values,
                          scale["big_m"], tile_group="big"))
        grids.append(Grid(f"{kernel}/mixed", mixed, kernel, n_values,
                          scale["sweep_m"]))
    return grids


_EXECUTOR_COUNTERS = (
    "cache_hits", "cache_misses", "simulated_points", "planned_points",
    "batch_fallback_points", "prefixes_calibrated", "prefixes_predicted",
    "holdout_fallbacks", "calibration_store_hits",
    "calibration_store_misses", "pool_hits",
    "pool_builds", "pool_restores", "sim_resumes")


def run_grids(grids: typing.Sequence[Grid],
              cache: typing.Optional[SweepCache],
              on_op: typing.Callable[[str], None] = lambda key: None
              ) -> PassResult:
    """Sweep every grid (serially, in-process) and key the points."""
    outputs: typing.Dict[str, typing.Any] = {}
    raised: typing.Set[str] = set()
    counters = dict.fromkeys(_EXECUTOR_COUNTERS, 0)
    ops = cycles = 0
    started = time.perf_counter()
    for grid in grids:
        keys = [f"{grid.label}/{n}x{m}"
                for n in grid.n_values for m in grid.m_values]
        ops += len(keys)
        on_op(grid.label)
        executor = SweepExecutor(jobs=1, cache=cache)
        try:
            result = executor.run(grid.config, grid.kernel, grid.n_values,
                                  grid.m_values, variant=grid.variant,
                                  tile_group=grid.tile_group)
        except ReproError:
            raised.update(keys)
            continue
        for key, point in zip(keys, result.points):
            outputs[key] = point.runtime_cycles
            cycles += point.runtime_cycles
        for name in _EXECUTOR_COUNTERS:
            counters[name] += executor.last_run_stats[name]
    seconds = time.perf_counter() - started
    return PassResult(ops, seconds, cycles, outputs, raised, counters)


def cache_footprint(directory: str) -> typing.Tuple[int, int]:
    """(record files, bytes) in a cache directory."""
    entries = size = 0
    for entry in os.scandir(directory):
        if entry.name.endswith(".json"):
            entries += 1
            size += entry.stat().st_size
    return entries, size


def golden_points() -> typing.Dict[str, int]:
    """The golden DAXPY cycles, keyed like sweep outputs."""
    with open(GOLDEN_PATH) as handle:
        grid = json.load(handle)["grid"]
    return {f"daxpy/{variant}/{key}": cycles
            for variant, table in grid.items()
            for key, cycles in table.items()}


class SweepWorkload(Workload):
    """Design-space sweeps through the executor, planner and cache.

    Points must equal the golden DAXPY cycles where they overlap, the
    reference points :meth:`prepare` wrote (if the workload has any),
    and, at the default seed, the per-grid digests in ``recorded.json``.
    """

    #: File in the scratch directory holding the reference points.
    reference_name: typing.Optional[str] = None

    def build_grids(self) -> typing.List[Grid]:
        return design_space(self.seed, self.scale)

    def reference_pass(self) -> PassResult:
        """The pass whose points the measured passes must equal."""
        return run_grids(self.grids, None)

    def prepare(self) -> None:
        if self.reference_name is None:
            return
        self.grids = self.build_grids()
        outputs = self.reference_pass().outputs
        with open(os.path.join(self.tmp_dir, self.reference_name),
                  "w") as handle:
            json.dump(outputs, handle)

    def setup(self) -> None:
        self.grids = self.build_grids()
        self.golden = golden_points()
        self.reference: typing.Dict[str, int] = {}
        if self.reference_name is not None:
            with open(os.path.join(self.tmp_dir, self.reference_name)) as handle:
                self.reference = json.load(handle)

    def references(self) -> typing.Dict[str, typing.Any]:
        return {**self.reference, **self.golden}

    def record(self, result: PassResult) -> typing.Dict[str, typing.Any]:
        return {grid.label: digest(grid_outputs(grid, result.outputs))
                for grid in self.grids}

    def failed_keys(self, result: PassResult) -> typing.Set[str]:
        failed = super().failed_keys(result)
        if self.recorded is not None:
            for grid in self.grids:
                points = grid_outputs(grid, result.outputs)
                if digest(points) != self.recorded.get(grid.label):
                    failed.update(points)
        return failed

    def cached_pass(self, directory: str, cache: SweepCache) -> PassResult:
        result = run_grids(self.grids, cache, self.on_op)
        entries, size = cache_footprint(directory)
        result.counters.update(entries=entries, disk_bytes=size)
        return result

    def extra_checks(self) -> typing.Tuple[int, int]:
        """A few points per kernel/variant equal a direct ``offload()``
        on a freshly built system."""
        rng = numpy.random.default_rng(subseed(self.seed, 4))
        ops = failed = 0
        for grid in self.grids:
            if grid.config.fabric:
                continue
            for _ in range(self.scale["direct_checks"]):
                n = int(rng.choice(grid.n_values))
                m = int(rng.choice(grid.m_values))
                ops += 1
                try:
                    cycles = offload(ManticoreSystem(grid.config),
                                     grid.kernel, n, m,
                                     variant=grid.variant).runtime_cycles
                except ReproError:
                    failed += 1
                    continue
                if self.first.outputs.get(f"{grid.label}/{n}x{m}") != cycles:
                    failed += 1
        return ops, failed

    def accuracy(self) -> float:
        triples = [(m, n, float(self.first.outputs[f"{grid.label}/{n}x{m}"]))
                   for grid in self.grids if grid.label == "daxpy/extended"
                   for n in grid.n_values for m in grid.m_values]
        return fitted_vs_paper(OffloadModel.fit(triples), triples)


def grid_outputs(grid: Grid, outputs: typing.Mapping[str, typing.Any]
                 ) -> typing.Dict[str, typing.Any]:
    prefix = f"{grid.label}/"
    return {key: value for key, value in outputs.items()
            if key.startswith(prefix)}


def fitted_vs_paper(model: OffloadModel,
                    triples: typing.Sequence[typing.Tuple[int, int, float]]
                    ) -> float:
    paper = [PAPER_DAXPY_MODEL.predict(m, n) for m, n, _ in triples]
    fitted = [model.predict(m, n) for m, n, _ in triples]
    return mape(paper, fitted)


class SweepCold(SweepWorkload):
    """Every pass sweeps into an empty in-memory cache.

    In memory, not on disk: on a 2-vCPU Xeon virtual machine, writing
    one record file cost 60-400 us from one minute to the next, enough
    to swamp the planner's share of a pass.  Disk reads are measured by
    ``sweep_warm``.
    """

    name = "sweep_cold"

    def run_pass(self) -> PassResult:
        cache = SweepCache()
        result = run_grids(self.grids, cache, self.on_op)
        result.counters.update(entries=len(cache), disk_bytes=0)
        return result


class SweepWarm(SweepWorkload):
    """Every pass re-reads the same grids from a cache directory filled
    once per run, through a new :class:`SweepCache` (so every hit reads
    a file).  The points must equal those of the filling sweep."""

    name = "sweep_warm"
    reference_name = "warm-reference.json"

    @property
    def warm_dir(self) -> str:
        return os.path.join(self.tmp_dir, "warm-cache")

    def reference_pass(self) -> PassResult:
        shutil.rmtree(self.warm_dir, ignore_errors=True)
        return run_grids(self.grids, SweepCache(self.warm_dir))

    def run_pass(self) -> PassResult:
        return self.cached_pass(self.warm_dir, SweepCache(self.warm_dir))


# ----------------------------------------------------------------------
# Job stream (E9 at scale)
# ----------------------------------------------------------------------
class JobStream(Workload):
    """A closed loop: one caller runs jobs back to back on one system,
    each placed by a characterized model-driven policy and verified."""

    name = "job_stream"

    def setup(self) -> None:
        self.config = SoCConfig.extended(num_clusters=32)
        self.platform = characterize_platform(self.config, JOB_KERNELS)
        jobs = []
        cell = 0
        for kernel in JOB_KERNELS:
            for low, high in OCTAVES:
                jobs += generate_workload(
                    self.scale["jobs_per_cell"], kernels=(kernel,),
                    min_n=low, max_n=high, seed=subseed(self.seed, 2, cell))
                cell += 1
        order = numpy.random.default_rng(
            subseed(self.seed, 3)).permutation(len(jobs))
        self.jobs = [jobs[index] for index in order]

    def run_pass(self) -> PassResult:
        outputs: typing.Dict[str, typing.Any] = {}
        raised: typing.Set[str] = set()
        fabric = self.config.num_clusters
        offloads = cycles = 0
        started = time.perf_counter()
        # Each pass is one stream on a newly built system: per-job cost
        # grows with the jobs a system has already run (its trace log
        # grows), so reusing one system across passes would make every
        # pass slower than the last.
        system = ManticoreSystem(self.config)
        for index, job in enumerate(self.jobs):
            key = f"{index}:{job.kernel_name}:{job.n}"
            self.on_op(key)
            placement = self.platform.place(job, fabric)
            try:
                if placement.offload:
                    offloads += 1
                    result = offload(system, job.kernel_name, job.n,
                                     placement.num_clusters,
                                     scalars=job.scalars, seed=job.seed,
                                     verify=True)
                else:
                    result = run_on_host(system, job.kernel_name, job.n,
                                         scalars=job.scalars, seed=job.seed,
                                         verify=True)
            except ReproError:
                raised.add(key)
                continue
            if result.verified is not True:
                raised.add(key)
            outputs[key] = [placement.num_clusters, result.runtime_cycles]
            cycles += result.runtime_cycles
        seconds = time.perf_counter() - started
        counters = {"sim_resumes": system.sim.resumes,
                    "offloads": offloads,
                    "host_jobs": len(self.jobs) - offloads}
        return PassResult(len(self.jobs), seconds, cycles, outputs, raised,
                          counters)

    def accuracy(self) -> float:
        return platform_accuracy(self.platform)


def platform_accuracy(platform) -> float:
    """The characterized DAXPY model against the paper's, over the
    characterization grid."""
    triples = [(m, n, 0.0) for n in (128, 256, 512, 1024)
               for m in (1, 2, 4, 8, 16, 32)]
    return fitted_vs_paper(platform.offload_models["daxpy"], triples)


# ----------------------------------------------------------------------
# Traffic (E13 at scale)
# ----------------------------------------------------------------------
def poisson(gap: float, substreams: int) -> PoissonArrivals:
    return PoissonArrivals(gap * substreams)


def bursty(gap: float, substreams: int) -> BurstyArrivals:
    # E13's bursty shape: bursts at a fifth of the gap, eight jobs long,
    # separated by idle periods of eight gaps.
    return BurstyArrivals(burst_interarrival_cycles=gap * substreams / 5,
                          mean_burst_jobs=8.0,
                          mean_idle_cycles=gap * substreams * 8)


def traffic_stream(process: typing.Callable[[float, int], typing.Any],
                   gap: float, num_jobs: int, seed: int
                   ) -> typing.List[typing.Any]:
    """One multi-tenant stream with the same number of jobs per size
    octave: one ``generate_traffic`` sub-stream per octave at 1/8 of the
    rate, merged by arrival time (merged Poisson streams are Poisson at
    the summed rate)."""
    per_octave = max(1, num_jobs // len(OCTAVES))
    jobs = []
    for index, (low, high) in enumerate(OCTAVES):
        jobs += generate_traffic(
            process(gap, len(OCTAVES)), per_octave, tenants=TENANTS,
            kernels=TRAFFIC_KERNELS, min_n=low, max_n=high,
            seed=subseed(seed, index))
    jobs.sort(key=lambda job: job.arrival_cycle)
    return jobs


def outcome_digest(result) -> str:
    return digest([[o.placement, o.num_clusters, o.start_cycle, o.end_cycle,
                    o.deadline_cycle] for o in result.outcomes])


class TrafficWorkload(Workload):
    """Streams replayed by the admission engine under two policies."""

    def scenarios(self) -> typing.List[typing.Tuple[str, typing.Any, list]]:
        """``(stream label, policy, jobs)`` replayed in every pass."""
        raise NotImplementedError

    def setup(self) -> None:
        config = SoCConfig.extended(num_clusters=32)
        self.platform = characterize_platform(config, TRAFFIC_KERNELS)
        self.engine = TrafficEngine.from_platform(
            self.platform, capacity=config.num_clusters, slack=SLACK)
        self.runs = self.scenarios()
        self.sizes = {f"{label}/{policy.name}": len(jobs)
                      for label, policy, jobs in self.runs}

    def run_pass(self) -> PassResult:
        outputs: typing.Dict[str, typing.Any] = {}
        raised: typing.Set[str] = set()
        counters: typing.Dict[str, float] = {}
        ops = cycles = 0
        started = time.perf_counter()
        for label, policy, jobs in self.runs:
            key = f"{label}/{policy.name}"
            ops += len(jobs)
            self.on_op(key)
            try:
                begun = time.perf_counter()
                result = self.engine.run(jobs, policy, arrival_name=label)
                engine_seconds = time.perf_counter() - begun
                report = compute_metrics(result)
            except ReproError:
                raised.add(key)
                continue
            policy_key = f"engine_seconds.{policy.name}"
            counters[policy_key] = counters.get(policy_key, 0.0) + engine_seconds
            outputs[key] = [outcome_digest(result), report.shed,
                            report.deadline_misses]
            cycles += result.horizon_cycle
        seconds = time.perf_counter() - started
        return PassResult(ops, seconds, cycles, outputs, raised, counters)

    def op_count(self, key: str) -> int:
        # One output per replay: a wrong outcome fails all its admissions.
        return self.sizes[key]

    def accuracy(self) -> float:
        return platform_accuracy(self.platform)


class TrafficLight(TrafficWorkload):
    """E13's load: few live reservations at any time."""

    name = "traffic_light"

    def scenarios(self):
        jobs = self.scale["light_jobs"]
        streams = [("poisson", traffic_stream(poisson, LIGHT_GAP, jobs,
                                              subseed(self.seed, 5))),
                   ("bursty", traffic_stream(bursty, LIGHT_GAP, jobs,
                                             subseed(self.seed, 6)))]
        return [(label, policy, stream) for label, stream in streams
                for policy in (TrafficDeadlineAware(), TrafficAlwaysHost())]

    def extra_checks(self) -> typing.Tuple[int, int]:
        """On an idle fabric, deadline-aware admission offloads at the
        width ``min_clusters_for_deadline`` returns (or not at all when
        it has none)."""
        stream = self.runs[0][2]
        step = max(1, len(stream) // self.scale["idle_checks"])
        failed = 0
        sample = stream[::step][:self.scale["idle_checks"]]
        for job in sample:
            outcome = self.engine.run([job], TrafficDeadlineAware()).outcomes[0]
            model = self.engine.offload_model(job)
            try:
                width = min_clusters_for_deadline(
                    model, job.n, outcome.deadline_cycle - job.arrival_cycle,
                    self.engine.capacity)
            except DecisionError:
                width = 0
            if outcome.num_clusters != width:
                failed += 1
        return len(sample), failed


class TrafficBacklog(TrafficWorkload):
    """Offload-heavy policies under overload: hundreds of live
    reservations."""

    name = "traffic_backlog"

    def scenarios(self):
        short, long = self.scale["backlog_jobs"]
        runs = []
        for index, (label, process) in enumerate((("poisson", poisson),
                                                  ("bursty", bursty))):
            runs.append((label, TrafficAlwaysOffload(32),
                         traffic_stream(process, BACKLOG_GAP, short,
                                        subseed(self.seed, 7, index))))
            runs.append((label, TrafficModelDriven(),
                         traffic_stream(process, BACKLOG_GAP, long,
                                        subseed(self.seed, 8, index))))
        return runs


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    SweepCold, SweepWarm, JobStream, TrafficLight, TrafficBacklog)}
