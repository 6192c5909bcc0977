"""Benchmark command: one workload, timed in fresh interpreters, outputs checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 10 --trace 0

Every measurement runs in a fresh single-process interpreter started
from here (``worker.py``), so import and set-up are paid the way a user
pays them.  A run first starts one *prepare* process (compiles the
package's bytecode; fills the cache ``sweep_warm`` re-reads and records
the reference points it is checked against), then:

- ``--trace 0``: measuring processes one after another, at least three,
  until their timed passes add up to ``--seconds``.  It prints the
  end-to-end metrics: medians over every pass (rates) or over every
  process (set-up time, peak memory).  Rates and set-up time are scaled
  to the reference host's speed by the reference loop of
  ``reference.py``.
- ``--trace 1``: one untraced and one traced process, each timing
  passes for half of ``--seconds``.  It prints the per-layer metrics of
  the traced process, the per-layer shares of its wall time with their
  sum, and writes its spans as Chrome trace-event JSON under
  ``.perfbench/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Each run also
appends a record stamped with the seed and a machine fingerprint to
``.perfbench/results.jsonl``.

``--record`` re-records ``recorded.json`` (outputs of the default seed
that later runs must reproduce); only do that for a change that is
meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    END_TO_END,
    HELD_OUT_SEED,
    LAYERS,
    OUT_DIR,
    PER_LAYER,
    RECORDED_PATH,
    REFERENCE_SECONDS,
    SRC_DIR,
    WORKLOADS,
    child_env,
)

WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Measuring processes per untraced run: at least this many (set-up time
#: is their median), at most the second figure.
MIN_PROCESSES, MAX_PROCESSES = 3, 8

#: Every run finishes within this many seconds or fails.
DEADLINE_SECONDS = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.deadline = time.monotonic() + DEADLINE_SECONDS
        self.tmp_dir = os.path.join(
            OUT_DIR, "tmp", f"{workload}-{seed}-{os.getpid()}")

    def child(self, mode: str, budget: float = 0.0, traced: bool = False,
              trace_path: str = "", extra_checks: bool = False) -> dict:
        config = {"mode": mode, "workload": self.workload, "seed": self.seed,
                  "scale": self.scale, "tmp_dir": self.tmp_dir,
                  "budget": budget, "traced": traced,
                  "trace_path": trace_path, "extra_checks": extra_checks}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError("out of time before a worker could start")
        try:
            done = subprocess.run(
                [sys.executable, WORKER, json.dumps(config)],
                stdout=subprocess.PIPE, env=child_env(), cwd=BENCH_DIR,
                timeout=remaining, check=False, text=True)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(
                f"{mode} worker for {self.workload} ran out of time") from None
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(
                f"{mode} worker for {self.workload} (seed {self.seed}) "
                f"exited with code {done.returncode}")
        return json.loads(lines[-1])

    def __enter__(self) -> "Runner":
        os.makedirs(self.tmp_dir, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


def rates(children: list, field: str) -> list:
    """``field`` per host second of each pass."""
    return [p[field] / p["seconds"] for child in children
            for p in child["passes"]]


def reference_rates(children: list, field: str) -> list:
    """``field`` per second of each pass, scaled to the reference host's
    speed by the reference loop timed around the pass."""
    return [p[field] / p["seconds"] * p["reference_s"] / REFERENCE_SECONDS
            for child in children for p in child["passes"]]


def setup_seconds(child: dict) -> float:
    """Import plus set-up of one process, scaled to the reference host's
    speed by the median reference of that process's passes (import and
    set-up are too short to sample on their own)."""
    reference = statistics.median(p["reference_s"] for p in child["passes"])
    return ((child["import_s"] + child["setup_s"]) * REFERENCE_SECONDS
            / reference)


def host_speed(children: list) -> float:
    """The host's speed over the run, relative to the reference host."""
    return statistics.median(REFERENCE_SECONDS / p["reference_s"]
                             for child in children for p in child["passes"])


def untraced_run(runner: Runner, seconds: float) -> list:
    children: list = []
    measured = 0.0
    while len(children) < MIN_PROCESSES or (
            measured < seconds and len(children) < MAX_PROCESSES):
        # The time still to measure, shared among the processes still to
        # start (each runs at least one pass, however long).
        budget = max(0.0, seconds - measured) / max(
            1, MIN_PROCESSES - len(children))
        child = runner.child("measure", budget=budget,
                             extra_checks=not children)
        children.append(child)
        measured += sum(p["seconds"] for p in child["passes"])
    return children


def end_to_end(children: list) -> dict:
    return {
        "ops_per_ref_s": statistics.median(reference_rates(children, "ops")),
        "sim_cycles_per_ref_s": statistics.median(
            reference_rates(children, "cycles")),
        "setup_s": statistics.median(setup_seconds(c) for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def print_table(metrics: dict, table: tuple) -> None:
    for name, unit, _better in table:
        print(f"  {name:38s} {metrics[name]:>16.6g} {unit}")


def print_shares(layers: dict) -> None:
    wall = layers["trace.wall_seconds"]
    print(f"self time by layer, traced process (wall {wall:.3f} s):")
    total = 0.0
    for layer in LAYERS:
        share = layers[f"share.{layer}"]
        total += share
        print(f"  {layer:20s} {share * wall:9.4f} s  {share:7.2%}")
    rest = layers["trace.unattributed_share"]
    total += rest
    print(f"  {'unattributed':20s} {rest * wall:9.4f} s  {rest:7.2%}")
    print(f"  {'sum':20s} {total * wall:9.4f} s  {total:7.2%}  "
          f"(wall {wall:.4f} s)")


def run(args: argparse.Namespace) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    with Runner(args.workload, args.seed, args.scale) as runner:
        runner.child("prepare")
        if args.trace:
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            plain = runner.child("measure", budget=args.seconds / 2,
                                 extra_checks=True)
            traced = runner.child("measure", budget=args.seconds / 2,
                                  traced=True, trace_path=trace_path)
            children = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = (
                traced["median_pass_seconds"] / plain["median_pass_seconds"])
            metrics["host.ops_per_s"] = statistics.median(
                rates([plain], "ops"))
            metrics["host.speed"] = host_speed([plain])
            table = PER_LAYER
        else:
            children = untraced_run(runner, args.seconds)
            metrics = end_to_end(children)
            table = END_TO_END
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    passes = [p for c in children for p in c["passes"]]
    fingerprint = children[0]["machine"]
    speed = host_speed(children)
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{len(children)} processes, {len(passes)} passes of "
          f"{passes[0]['ops']} ops, {attempted} ops attempted, "
          f"{failed} failed")
    print(f"host speed {speed:.3f} of the reference host; unscaled "
          f"{statistics.median(rates(children, 'ops')):.6g} ops/s")
    print(f"machine: {json.dumps(fingerprint, sort_keys=True)}")
    print_table(metrics, table)
    if args.trace:
        print_shares(metrics)
        print(f"chrome trace: {os.path.relpath(trace_path)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _better in table}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "machine": fingerprint,
              "host_speed": speed,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), **result,
              "passes": [[p["ops"], p["seconds"], p["reference_s"]]
                         for p in passes]}
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return result


def record_outputs() -> None:
    """Re-record the default seed's outputs into ``recorded.json``."""
    recorded = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        with Runner(workload, DEFAULT_SEED, "full") as runner:
            runner.child("prepare")
            recorded[workload] = runner.child("record")["record"]
    with open(RECORDED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}, whose outputs are "
             f"recorded; {HELD_OUT_SEED} is held out from tuning)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--record", action="store_true",
                        help="re-record the default seed's outputs")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"perfbench: no package source under {SRC_DIR}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.record:
            record_outputs()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
