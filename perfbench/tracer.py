"""Wall-clock spans around the package's public entry points.

The traced run wraps each entry point listed in :data:`TARGETS` (a
function or a method, named by import path) in a span recorder.  A span
holds its name, start, end, parent span and the id of the benchmark op
it served.  Self time (a span's duration minus its children's) is
summed per layer while the run goes, so the per-layer shares of wall
time are exact however many spans are kept; the first
:data:`SPAN_CAP` spans are also kept in memory and written out at the
end as Chrome trace-event JSON (open it in Perfetto or
``chrome://tracing``).

The wrappers live only in the benchmark: :meth:`Tracer.install` swaps
them in, :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import time
import typing

#: ``(target, span name, layer)``.  A target is ``module:function`` or
#: ``module:Class.method``.
TARGETS = (
    ("repro.sim.kernel:Simulator.run", "sim.run", "sim"),
    ("repro.soc.manticore:ManticoreSystem.__init__", "soc.build", "soc"),
    ("repro.soc.pool:SystemPool.acquire", "soc.pool_acquire", "soc"),
    ("repro.soc.pool:SystemPool.release", "soc.pool_release", "soc"),
    ("repro.core.offload:offload", "offload", "core.offload"),
    ("repro.core.offload:run_on_host", "host_exec", "core.offload"),
    ("repro.core.executor:SweepExecutor.run", "executor.run",
     "core.executor"),
    ("repro.core.batch:BatchPlanner.consume", "batch.consume",
     "core.batch"),
    ("repro.core.cache:SweepCache.get", "cache.get", "core.cache"),
    ("repro.core.cache:SweepCache.put", "cache.put", "core.cache"),
    ("repro.core.cache:SweepCache.get_record", "cache.get", "core.cache"),
    ("repro.core.cache:SweepCache.put_record", "cache.put", "core.cache"),
    ("repro.core.model:OffloadModel.fit", "model.fit", "core.model"),
    ("repro.core.decision:HostExecutionModel.fit", "model.fit",
     "core.model"),
    ("repro.core.decision:min_clusters_for_deadline", "decision",
     "core.decision"),
    ("repro.workload:characterize_platform", "workload.characterize",
     "workload"),
    ("repro.workload:generate_workload", "workload.generate", "workload"),
    ("repro.workload:ModelDriven.place", "workload.place", "workload"),
    ("repro.traffic.arrivals:generate_traffic", "arrivals.generate",
     "traffic.arrivals"),
    ("repro.traffic.engine:TrafficEngine.run", "engine.run",
     "traffic.engine"),
    ("repro.traffic.occupancy:FabricOccupancy.earliest_start",
     "occupancy.earliest_start", "traffic.occupancy"),
    ("repro.traffic.occupancy:FabricOccupancy.reserve",
     "occupancy.reserve", "traffic.occupancy"),
    ("repro.traffic.occupancy:FabricOccupancy.prune", "occupancy.prune",
     "traffic.occupancy"),
    ("repro.traffic.metrics:compute_metrics", "metrics.compute",
     "traffic.metrics"),
)

#: Spans kept for the Chrome trace; later ones still count toward the
#: per-layer sums.
SPAN_CAP = 100_000

#: Span names whose results carry simulated ``runtime_cycles``.
_SIMULATING = ("offload", "host_exec")


class Tracer:
    """Records spans while :attr:`phase` is set (``None`` pauses it).

    Sums are kept per phase (``"setup"`` or ``"pass"``):

    - ``self_ns[phase][layer]`` — self time;
    - ``calls[phase][name]`` / ``total_ns[phase][name]`` — call count and
      inclusive time per span name;
    - ``durations[phase][name]`` — inclusive durations of offload and
      host-execution calls, for percentiles;
    - ``sim_cycles[phase]`` — simulated cycles of every event-simulated
      job;
    - ``live_max`` — most live fabric reservations seen after a reserve.
    """

    def __init__(self) -> None:
        self.phase: typing.Optional[str] = None
        self.op = "setup"
        self.spans: typing.List[tuple] = []
        self.dropped_spans = 0
        self._stack: typing.List[list] = []
        self._next_id = 0
        self._originals: typing.List[tuple] = []
        self.self_ns: typing.Dict[str, typing.Counter] = \
            collections.defaultdict(collections.Counter)
        self.calls: typing.Dict[str, typing.Counter] = \
            collections.defaultdict(collections.Counter)
        self.total_ns: typing.Dict[str, typing.Counter] = \
            collections.defaultdict(collections.Counter)
        self.durations: typing.Dict[str, typing.Dict[str, list]] = \
            collections.defaultdict(lambda: collections.defaultdict(list))
        self.sim_cycles: typing.Counter = collections.Counter()
        self.live_max = 0

    def set_op(self, op: str) -> None:
        """Tag the spans that follow with the benchmark op they serve."""
        self.op = op

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: typing.Callable, name: str,
              layer: str) -> typing.Callable:
        tracer = self
        clock = time.perf_counter_ns
        simulating = name in _SIMULATING
        reserving = name == "occupancy.reserve"

        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.self_ns[phase][layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.calls[phase][name] += 1
                tracer.total_ns[phase][name] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, parent, name, start, end, tracer.op))
                else:
                    tracer.dropped_spans += 1
            if simulating:
                tracer.durations[phase][name].append(duration)
                tracer.sim_cycles[phase] += result.runtime_cycles
            elif reserving:
                tracer.live_max = max(tracer.live_max, len(args[0]))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every target for its traced wrapper."""
        for target, name, layer in TARGETS:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name,
                                                     layer))
                else:
                    wrapped = self._wrap(raw, name, layer)
                self._originals.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            # A function is also bound by name in every module that
            # imported it (the benchmark's own included); rebind them all.
            fn = getattr(module, attr)
            wrapped = self._wrap(fn, name, layer)
            for other in list(sys.modules.values()):
                if getattr(other, "__dict__", {}).get(attr) is fn:
                    self._originals.append((other, attr, fn))
                    setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        """Restore the original functions and methods."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def seconds(self, phase: str, name: str) -> float:
        """Inclusive seconds spent in span ``name`` during ``phase``."""
        return self.total_ns[phase][name] / 1e9

    def self_seconds(self, phase: str, layer: str) -> float:
        return self.self_ns[phase][layer] / 1e9

    def write_chrome_trace(self, path: str, import_seconds: float) -> None:
        """Write the kept spans as Chrome trace-event JSON.

        Timestamps are microseconds.  A synthetic ``import`` span at 0
        covers the package import before tracing began; the first
        traced span starts where it ends.
        """
        origin = min((span[3] for span in self.spans), default=0)
        offset = import_seconds * 1e6
        events = [{
            "name": "import", "cat": "import", "ph": "X", "pid": 1,
            "tid": 1, "ts": 0, "dur": offset, "args": {}}]
        layer_of = {name: layer for _target, name, layer in TARGETS}
        for span_id, parent, name, start, end, op in self.spans:
            events.append({
                "name": name, "cat": layer_of[name], "ph": "X", "pid": 1,
                "tid": 1, "ts": offset + (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent, "op": op}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped_spans}},
                      handle)
