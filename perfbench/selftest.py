"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that:

- ``BENCHMARK.json`` lists exactly the workloads and metrics the
  harness prints;
- every workload runs untraced and traced, reports no failed op, and
  prints every metric by name with its unit;
- the traced run's per-layer shares plus the unattributed remainder sum
  to its wall time;
- the output checker counts a perturbed cycle count (a sweep point, a
  job) or traffic outcome as a failed op;
- the host-speed reference weights its samples by pass time, its
  sampling time is not counted as pass time, and on a host at half the
  reference speed the scaled rates double and the scaled set-up halves;
- without the package source next to it the command fails without
  printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

from common import (
    BENCH_DIR,
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    REFERENCE_SECONDS,
    ROOT,
    SRC_DIR,
    WORKLOADS,
    child_env,
)

from reference import INTERVAL

RUN = os.path.join(BENCH_DIR, "run.py")


def run_benchmark(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300, check=False)


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        assert listed == list(table), f"BENCHMARK.json {key} differs"


def check_run(workload: str, trace: int) -> None:
    done = run_benchmark("--workload", workload, "--seed", "1",
                         "--seconds", "0.2", "--trace", str(trace),
                         "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    table = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == {name for name, _u, _b in table}
    text = "\n".join(lines[:-1])
    for name, unit, _better in table:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in text.splitlines()), f"{name} not printed"
    metrics = {name: entry["value"] for name, entry in
               result["metrics"].items()}
    if trace:
        shares = [value for name, value in metrics.items()
                  if name.startswith("share.")]
        assert abs(sum(shares) + metrics["trace.unattributed_share"]
                   - 1.0) < 1e-9
        assert metrics["trace.unattributed_share"] > -1e-3
        assert "sum" in text and "wall" in text
    else:
        assert all(value > 0 for value in metrics.values()), metrics


def check_checker() -> None:
    """A perturbed output is a failed op."""
    sys.path.insert(0, SRC_DIR)
    import workloads

    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        for name, perturb in (
                ("sweep_cold", lambda value: value + 1),
                ("job_stream", lambda value: [value[0], value[1] + 1]),
                ("traffic_light", lambda value: ["0" * 64, *value[1:]])):
            workload = workloads.WORKLOAD_CLASSES[name](1, "tiny", tmp)
            workload.setup()
            result = workload.run_pass()
            assert workload.check(result) == 0, name
            bad = copy.deepcopy(result)
            key = sorted(bad.outputs)[0]
            bad.outputs[key] = perturb(bad.outputs[key])
            assert workload.check(bad) == workload.op_count(key) >= 1, name
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_reference() -> None:
    from reference import HostProbe, time_weighted_mean

    assert time_weighted_mean([(0.0, 1.0), (1.0, 3.0), (3.0, 1.0)]) == 2.0
    assert time_weighted_mean([(0.0, 1.5)]) == 1.5
    probe = HostProbe(lambda key: None)
    probe.start()
    for key in range(3):
        time.sleep(INTERVAL)
        probe(str(key))
    assert len(probe.samples) == 4 and probe.spent > 0
    assert all(later[0] > earlier[0] for earlier, later
               in zip(probe.samples, probe.samples[1:]))
    assert probe.finish() > 0

    import run

    slow = {"import_s": 0.25, "setup_s": 0.25,
            "passes": [{"ops": 100, "cycles": 1000, "seconds": 1.0,
                        "reference_s": 2 * REFERENCE_SECONDS}]}
    assert run.host_speed([slow]) == 0.5
    assert run.reference_rates([slow], "ops") == [200.0]
    assert run.setup_seconds(slow) == 0.25


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: no result."""
    bare = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180, check=False,
            env={**child_env(), "PYTHONPATH": ""})
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    check_manifest()
    check_checker()
    check_reference()
    check_bare_directory()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} --trace {trace}")
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
