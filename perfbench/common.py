"""Names shared by the benchmark harness, its worker processes and its self-test.

Everything here is plain data: the workload names, the metric tables
(name, unit, which direction is better) and the seeds.  ``BENCHMARK.json``
at the repository root lists the same metrics; the self-test checks that
the two agree.
"""

from __future__ import annotations

import os

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")

#: Scratch space (cache directories, results, Chrome traces); ignored by git.
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Outputs of the default seed that runs at that seed must reproduce.
RECORDED_PATH = os.path.join(BENCH_DIR, "recorded.json")

#: The seed whose outputs ``recorded.json`` holds.
DEFAULT_SEED = 0

#: A seed kept out of every tuning run, for confirming a claimed gain on
#: inputs the change was not tuned against.
HELD_OUT_SEED = 7919

WORKLOADS = (
    "sweep_cold",
    "sweep_warm",
    "job_stream",
    "traffic_light",
    "traffic_backlog",
)

#: Host seconds the reference loop (``reference.py``) takes on the
#: reference host.  The rates are scaled to that host's speed: about the
#: speed of a 2-vCPU Intel Xeon virtual machine in its quiet moments.
REFERENCE_SECONDS = 0.0015

#: End-to-end metrics: printed on every workload by untraced runs.
END_TO_END = (
    ("ops_per_ref_s", "1/s", "higher"),
    ("sim_cycles_per_ref_s", "cycles/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers that wall time is attributed to, in report order.  Each traced
#: entry point belongs to exactly one (see ``tracer.TARGETS``).
LAYERS = (
    "import",
    "sim",
    "soc",
    "core.offload",
    "core.executor",
    "core.batch",
    "core.cache",
    "core.model",
    "core.decision",
    "workload",
    "traffic.arrivals",
    "traffic.engine",
    "traffic.occupancy",
    "traffic.metrics",
)

#: Per-layer metrics: printed on every workload by traced runs (zero where
#: a workload does not use the layer).
PER_LAYER = (
    ("import.seconds", "s", "lower"),
    ("soc.build_seconds", "s", "lower"),
    ("soc.pool_builds", "count", "lower"),
    ("soc.pool_hits", "count", "higher"),
    ("soc.pool_restores", "count", "higher"),
    ("sim.resumes", "count", "lower"),
    ("sim.run_seconds", "s", "lower"),
    ("sim.us_per_resume", "us", "lower"),
    ("sim.simulated_cycles", "cycles", "lower"),
    ("offload.calls", "count", "lower"),
    ("offload.self_seconds", "s", "lower"),
    ("offload.p50_ms", "ms", "lower"),
    ("offload.p99_ms", "ms", "lower"),
    ("host_exec.calls", "count", "lower"),
    ("host_exec.seconds", "s", "lower"),
    ("batch.planned_points", "count", "higher"),
    ("batch.calibration_sims", "count", "lower"),
    ("batch.fallback_points", "count", "lower"),
    ("batch.plan_ratio", "ratio", "higher"),
    ("batch.plan_base", "count", "higher"),
    ("batch.prefixes_calibrated", "count", "lower"),
    ("batch.prefixes_predicted", "count", "higher"),
    ("batch.holdout_fallbacks", "count", "lower"),
    ("batch.self_seconds", "s", "lower"),
    ("executor.self_seconds", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.calib_store_hits", "count", "higher"),
    ("cache.calib_store_misses", "count", "lower"),
    ("cache.get_seconds", "s", "lower"),
    ("cache.put_seconds", "s", "lower"),
    ("cache.entries", "count", "lower"),
    ("cache.disk_bytes", "bytes", "lower"),
    ("model.fit_seconds", "s", "lower"),
    ("workload.characterize_seconds", "s", "lower"),
    ("model.mape_vs_paper_pct", "%", "lower"),
    ("decision.calls", "count", "lower"),
    ("decision.seconds", "s", "lower"),
    ("arrivals.generate_seconds", "s", "lower"),
    ("engine.run_seconds.always_host", "s", "lower"),
    ("engine.run_seconds.always_offload_32", "s", "lower"),
    ("engine.run_seconds.model_driven", "s", "lower"),
    ("engine.run_seconds.deadline_aware", "s", "lower"),
    ("occupancy.earliest_start_calls", "count", "lower"),
    ("occupancy.earliest_start_seconds", "s", "lower"),
    ("occupancy.reserve_seconds", "s", "lower"),
    ("occupancy.prune_seconds", "s", "lower"),
    ("occupancy.live_max", "count", "lower"),
    ("metrics.compute_seconds", "s", "lower"),
    ("ops.failed_ratio", "ratio", "lower"),
    ("host.ops_per_s", "1/s", "higher"),
    ("host.speed", "ratio", "higher"),
    ("trace.wall_seconds", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
) + tuple((f"share.{layer}", "ratio", "lower") for layer in LAYERS)

#: Traffic policies, by the name ``engine.run_seconds.<policy>`` uses.
POLICIES = ("always_host", "always_offload_32", "model_driven",
            "deadline_aware")


def child_env() -> dict:
    """Environment for worker processes: the package on the path, no
    ``REPRO_*`` gates from the caller's shell, and a fixed hash seed."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONHASHSEED"] = "0"
    return env
