"""One benchmark process: import the package, set up a workload, time passes.

Started by ``run.py`` with one JSON argument::

    {"mode": "prepare" | "measure" | "record", "workload": ..., "seed": ...,
     "scale": "full" | "tiny", "tmp_dir": ..., "budget": seconds,
     "traced": bool, "trace_path": ..., "extra_checks": bool}

and prints one JSON object as its last line of standard output.
``measure`` runs passes until their summed time reaches ``budget`` (at
least one), checking each pass outside the timed region; with
``extra_checks`` it also runs the workload's once-per-run checks after
the first pass.  Each pass carries the mean time of the host-speed
reference (``reference.py``) sampled during it; the sampling is not
part of the pass's time.  With ``traced`` the package's entry points
are wrapped in spans (see ``tracer.py``) and the object carries the
per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

STARTED = time.perf_counter()

import numpy  # noqa: E402  (the package imports it anyway; timed as import)

import workloads  # noqa: E402
from common import LAYERS, POLICIES  # noqa: E402
from reference import HostProbe, unit_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - STARTED


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine() -> dict:
    """The fingerprint stamped on every result record."""
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def percentile_ms(durations_ns, q: float) -> float:
    if not durations_ns:
        return 0.0
    return float(numpy.percentile(durations_ns, q)) / 1e6


def layer_metrics(tracer: Tracer, passes: list, first: dict,
                  engine_seconds: dict, accuracy: float, failed: int,
                  attempted: int, setup_seconds: float) -> dict:
    """Per-layer metrics of one traced process (see README.md)."""
    count = len(passes)

    def self_s(layer: str) -> float:
        return tracer.self_seconds("pass", layer) / count

    def span_s(name: str) -> float:
        return tracer.seconds("pass", name) / count

    def calls(name: str) -> float:
        return tracer.calls["pass"][name] / count

    planned = first.get("planned_points", 0)
    fallbacks = first.get("batch_fallback_points", 0)
    hits = first.get("cache_hits", 0)
    misses = first.get("cache_misses", 0)
    resumes = first.get("sim_resumes", 0)
    sim_seconds = self_s("sim")
    metrics = {
        "import.seconds": IMPORT_SECONDS,
        "soc.build_seconds": (tracer.seconds("setup", "soc.build")
                              + tracer.seconds("pass", "soc.build")),
        "soc.pool_builds": first.get("pool_builds", 0),
        "soc.pool_hits": first.get("pool_hits", 0),
        "soc.pool_restores": first.get("pool_restores", 0),
        "sim.resumes": resumes,
        "sim.run_seconds": sim_seconds,
        "sim.us_per_resume": sim_seconds / resumes * 1e6 if resumes else 0.0,
        "sim.simulated_cycles": tracer.sim_cycles["pass"] / count,
        "offload.calls": calls("offload"),
        "offload.self_seconds": self_s("core.offload"),
        "offload.p50_ms": percentile_ms(
            tracer.durations["pass"]["offload"], 50),
        "offload.p99_ms": percentile_ms(
            tracer.durations["pass"]["offload"], 99),
        "host_exec.calls": calls("host_exec"),
        "host_exec.seconds": span_s("host_exec"),
        "batch.planned_points": planned,
        "batch.calibration_sims": (first.get("simulated_points", 0)
                                   - fallbacks),
        "batch.fallback_points": fallbacks,
        "batch.plan_ratio": (planned / (planned + fallbacks)
                             if planned + fallbacks else 0.0),
        "batch.plan_base": planned + fallbacks,
        "batch.prefixes_calibrated": first.get("prefixes_calibrated", 0),
        "batch.prefixes_predicted": first.get("prefixes_predicted", 0),
        "batch.holdout_fallbacks": first.get("holdout_fallbacks", 0),
        "batch.self_seconds": self_s("core.batch"),
        "executor.self_seconds": self_s("core.executor"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.calib_store_hits": first.get("calibration_store_hits", 0),
        "cache.calib_store_misses": first.get("calibration_store_misses", 0),
        "cache.get_seconds": span_s("cache.get"),
        "cache.put_seconds": span_s("cache.put"),
        "cache.entries": first.get("entries", 0),
        "cache.disk_bytes": first.get("disk_bytes", 0),
        "model.fit_seconds": tracer.seconds("setup", "model.fit"),
        "workload.characterize_seconds": tracer.seconds(
            "setup", "workload.characterize"),
        "model.mape_vs_paper_pct": accuracy,
        "decision.calls": calls("decision"),
        "decision.seconds": span_s("decision"),
        "arrivals.generate_seconds": tracer.seconds(
            "setup", "arrivals.generate"),
        "occupancy.earliest_start_calls": calls("occupancy.earliest_start"),
        "occupancy.earliest_start_seconds": span_s(
            "occupancy.earliest_start"),
        "occupancy.reserve_seconds": span_s("occupancy.reserve"),
        "occupancy.prune_seconds": span_s("occupancy.prune"),
        "occupancy.live_max": tracer.live_max,
        "metrics.compute_seconds": span_s("metrics.compute"),
        "ops.failed_ratio": failed / attempted,
    }
    for policy in POLICIES:
        metrics[f"engine.run_seconds.{policy}"] = (
            engine_seconds.get(policy, 0.0) / count)
    # Wall time of this process's timed phases: import, setup and the
    # passes.  Every second of it is either some layer's self time or
    # the unattributed remainder (the benchmark's own loop, tracing).
    wall = IMPORT_SECONDS + setup_seconds + sum(p["seconds"] for p in passes)
    shares = {"import": IMPORT_SECONDS / wall}
    for layer in LAYERS[1:]:
        shares[layer] = (tracer.self_seconds("setup", layer)
                         + tracer.self_seconds("pass", layer)) / wall
    metrics["trace.wall_seconds"] = wall
    metrics["trace.unattributed_share"] = 1.0 - sum(shares.values())
    for layer, share in shares.items():
        metrics[f"share.{layer}"] = share
    return metrics


def measure(workload: workloads.Workload, config: dict) -> dict:
    tracer = Tracer() if config["traced"] else None
    if tracer is not None:
        tracer.install()
        tracer.phase = "setup"
        workload.on_op = tracer.set_op
    started = time.perf_counter()
    workload.setup()
    setup_seconds = time.perf_counter() - started
    passes = []
    attempted = failed = 0
    accuracy = 0.0
    first_counters: dict = {}
    engine_seconds: dict = {}
    measured = 0.0
    unit_seconds()  # warm-up
    probe = HostProbe(workload.on_op)
    workload.on_op = probe
    while not passes or measured < config["budget"]:
        gc.collect()
        probe.start()
        if tracer is not None:
            tracer.phase = "pass"
        result = workload.run_pass()
        if tracer is not None:
            tracer.phase = None
        result.seconds -= probe.spent
        reference_s = probe.finish()
        pass_failed = workload.check(result)
        if not passes:
            first_counters = dict(result.counters)
            if config["extra_checks"]:
                check_ops, check_failed = workload.extra_checks()
                attempted += check_ops
                failed += check_failed
            accuracy = workload.accuracy()
        for key, value in result.counters.items():
            if key.startswith("engine_seconds."):
                policy = key.split(".", 1)[1]
                engine_seconds[policy] = engine_seconds.get(policy, 0.0) + value
        attempted += result.ops
        failed += pass_failed
        measured += result.seconds
        passes.append({"ops": result.ops, "seconds": result.seconds,
                       "cycles": result.cycles, "failed": pass_failed,
                       "reference_s": reference_s})
    output = {
        "import_s": IMPORT_SECONDS, "setup_s": setup_seconds,
        "passes": passes, "attempted": attempted, "failed": failed,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "median_pass_seconds": statistics.median(
            p["seconds"] for p in passes),
    }
    if tracer is not None:
        tracer.uninstall()
        output["layers"] = layer_metrics(
            tracer, passes, first_counters, engine_seconds, accuracy,
            failed, attempted, setup_seconds)
        tracer.write_chrome_trace(config["trace_path"], IMPORT_SECONDS)
    return output


def main() -> int:
    config = json.loads(sys.argv[1])
    mode = config["mode"]
    workload = workloads.WORKLOAD_CLASSES[config["workload"]](
        config["seed"], config["scale"], config["tmp_dir"],
        recorded=mode == "measure")
    if mode == "prepare":
        workload.prepare()
        output: dict = {"prepared": config["workload"]}
    elif mode == "record":
        workload.setup()
        output = {"record": workload.record(workload.run_pass())}
    else:
        output = measure(workload, config)
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
