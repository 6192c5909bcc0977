"""The host-speed reference: a fixed pure-Python loop timed between ops.

On a shared host the same pass on the same inputs runs up to twice as
fast in some seconds as in others, because other tenants contend for
the cores and caches.  A measuring process times this loop between the
ops of a pass, every ``INTERVAL`` seconds or so, and right before and
after the pass; the time-weighted mean of those times is the host's
speed during the pass.  ``run.py`` scales each pass by it, to the time
the pass would take on a host that runs one unit in
``common.REFERENCE_SECONDS``, and each process's set-up time by the
median over its passes.  The time spent in the loop is taken out of the
pass's time.

The loop never calls into the package, so a change to the package moves
the scaled rates exactly as much as it moves the measured ones.  It is
shaped like the package's hot paths: a heap of timed events resuming
generator processes that read and write dicts.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
import typing

#: Processes and steps per process of one unit of reference work.
PROCESSES, STEPS = 64, 32
#: Least host seconds between two samples inside a pass.
INTERVAL = 0.05
#: Units per sample inside a pass (per ``INTERVAL`` since the last
#: sample, up to ``OUTER_UNITS``), and at its start and end; a sample is
#: their median.
INNER_UNITS, OUTER_UNITS = 3, 9


def _unit() -> int:
    def process(ident: int, state: dict):
        for step in range(STEPS):
            state[ident] = state.get(ident, 0) + step
            yield (ident * 7 + step) % 13 + 1

    state: dict = {}
    queue = [(0, ident, process(ident, state)) for ident in range(PROCESSES)]
    heapq.heapify(queue)
    events = 0
    while queue:
        now, ident, proc = heapq.heappop(queue)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        heapq.heappush(queue, (now + delay, ident, proc))
        events += 1
    return events


def unit_seconds(units: int = 1) -> float:
    """Host seconds of one unit of reference work, the median of
    ``units`` units.  The garbage collector is paused meanwhile, so a
    collection of the workload's heap is not timed as host speed."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(units):
            started = time.perf_counter()
            _unit()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def time_weighted_mean(samples: typing.Sequence[typing.Tuple[float, float]]
                       ) -> float:
    """Mean of ``(time, value)`` samples, each interval between two
    samples weighted by its length and valued at the mean of its ends."""
    weighted = total = 0.0
    for (start, before), (end, after) in zip(samples, samples[1:]):
        weighted += (end - start) * (before + after) / 2
        total += end - start
    return weighted / total if total > 0 else samples[0][1]


class HostProbe:
    """Samples the reference between the ops of a pass.

    Install an instance as the workload's ``on_op`` hook; it forwards
    each op key to ``on_op`` and samples when ``INTERVAL`` has passed
    since the last sample.
    """

    def __init__(self, on_op: typing.Callable[[str], None]) -> None:
        self.on_op = on_op
        #: (pass seconds so far, sample) pairs of the current pass.
        self.samples: typing.List[typing.Tuple[float, float]] = []
        #: Host seconds spent sampling since :meth:`start`.
        self.spent = 0.0
        self.started = self.last = 0.0

    def _sample(self, units: int) -> None:
        now = time.perf_counter()
        value = unit_seconds(units)
        self.samples.append((now - self.started - self.spent, value))
        self.last = time.perf_counter()
        self.spent += self.last - now

    def start(self) -> None:
        """Begin a pass: forget earlier samples, take a first one."""
        self.samples = [(0.0, unit_seconds(OUTER_UNITS))]
        self.spent = 0.0
        self.started = self.last = time.perf_counter()

    def __call__(self, key: str) -> None:
        self.on_op(key)
        elapsed = time.perf_counter() - self.last
        if elapsed >= INTERVAL:
            # A sample stands for the time since the last one: the
            # longer that is, the more units it is worth spending.
            units = INNER_UNITS * int(elapsed / INTERVAL)
            self._sample(min(OUTER_UNITS, units))

    def finish(self) -> float:
        """End a pass: take a last sample; return the samples' mean
        over the pass's time."""
        self._sample(OUTER_UNITS)
        return time_weighted_mean(self.samples)
