"""Virtual-time occupancy of the cluster fabric.

The traffic engine treats the M clusters as a resource reserved over
*virtual time* (the arrival clock, in cycles), kept as a step-function
*skyline*: sorted breakpoints and per-segment usage, equal neighbours
merged, so back-to-back full-width reservations become one segment.  A
query sweeps the segments after ``not_before`` once.  Under overload the
skyline grows with the backlog; pruning only drops the past.
"""

from __future__ import annotations

import bisect
import heapq
import typing

from repro.errors import TrafficError


class FabricOccupancy:
    """Clusters as a reservable resource over virtual time."""

    def __init__(self, num_clusters: int) -> None:
        if num_clusters <= 0:
            raise TrafficError(
                f"fabric capacity must be positive, got {num_clusters}")
        self.capacity = int(num_clusters)
        #: Breakpoints (sorted); ``_usage[i]`` busy from ``_times[i]`` on.
        self._times: typing.List[int] = []
        self._usage: typing.List[int] = []
        self._ends: typing.List[int] = []   # live reservations' ends, a heap
        self.busy_cluster_cycles = 0   # ever reserved, for utilization

    def __len__(self) -> int:
        return len(self._ends)

    def _segment(self, t: int) -> int:
        """Index of the segment holding ``t`` (0 before the first)."""
        return max(bisect.bisect_right(self._times, t) - 1, 0)

    def prune(self, now: int) -> None:
        """Drop reservations that ended by ``now``; safe once no later
        query's ``not_before`` precedes ``now`` (arrival-order admission)."""
        while self._ends and self._ends[0] <= now:
            heapq.heappop(self._ends)
        first = self._segment(now)
        del self._times[:first]
        del self._usage[:first]

    def peak_usage(self, start: int, end: int) -> int:
        """Maximum concurrent cluster usage over ``[start, end)``."""
        if end <= start:
            return 0
        first = self._segment(start)
        last = bisect.bisect_left(self._times, end)
        return max(self._usage[first:last], default=0)

    def earliest_start(self, not_before: int, duration: int, m: int) -> int:
        """Earliest ``t >= not_before`` fitting m clusters for ``duration``."""
        if m <= 0:
            raise TrafficError(f"reservation width must be positive, got {m}")
        if m > self.capacity:
            raise TrafficError(
                f"cannot reserve {m} clusters on a {self.capacity}-cluster "
                "fabric")
        start = int(not_before)
        if duration <= 0:
            return start
        limit = self.capacity - m
        times = self._times
        for i in range(self._segment(start), len(times)):
            if times[i] >= start + duration:
                break
            if self._usage[i] > limit:
                start = times[i + 1]   # the last segment's usage is 0
        return start

    def reserve(self, start: int, duration: int, m: int) -> None:
        """Commit ``m`` clusters for ``[start, start + duration)``."""
        if duration <= 0:
            raise TrafficError(
                f"reservation duration must be positive, got {duration}")
        if m <= 0:
            raise TrafficError(f"reservation width must be positive, got {m}")
        start, end, m = int(start), int(start + duration), int(m)
        if self.peak_usage(start, end) + m > self.capacity:
            raise TrafficError(
                f"reserving {m} clusters at cycle {start} would exceed the "
                f"{self.capacity}-cluster fabric")
        times, usage = self._times, self._usage
        for t in (end, start):   # make both ends breakpoints
            i = bisect.bisect_left(times, t)
            if i == len(times) or times[i] != t:
                times.insert(i, t)
                usage.insert(i, usage[i - 1] if i else 0)
        first = bisect.bisect_left(times, start)
        last = bisect.bisect_left(times, end, first)
        usage[first:last] = [u + m for u in usage[first:last]]
        for i in (last, first):   # merge equal neighbours, right one first
            if usage[i] == (usage[i - 1] if i else 0):
                del times[i]
                del usage[i]
        heapq.heappush(self._ends, end)
        self.busy_cluster_cycles += m * int(duration)

    def utilization(self, horizon_cycles: int) -> float:
        """Fraction of cluster-cycles busy over ``[0, horizon)``."""
        if horizon_cycles <= 0:
            return 0.0
        return self.busy_cluster_cycles / (self.capacity * horizon_cycles)
