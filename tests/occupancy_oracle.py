"""Brute-force oracle for :class:`repro.traffic.FabricOccupancy`.

:class:`BruteForceOccupancy` is the reservation-list implementation the
skyline calendar replaced, kept verbatim apart from its name.  It keeps
every live reservation in an unordered list; ``earliest_start`` tries
``not_before`` and every reservation end as candidate starts, and
``peak_usage`` sums the overlapping reservations at each instant where
one begins.  Nothing about it is clever, which is what makes it an
oracle: the property suite checks the skyline against it.
"""

from __future__ import annotations

import typing

from repro.errors import TrafficError


class BruteForceOccupancy:
    """The original reservation-list :class:`FabricOccupancy`: every
    query rescans every live reservation (O(R) candidates, O(R²) per
    peak)."""

    def __init__(self, num_clusters: int) -> None:
        if num_clusters <= 0:
            raise TrafficError(
                f"fabric capacity must be positive, got {num_clusters}")
        self.capacity = int(num_clusters)
        #: Active reservations as ``(start, end, clusters)``; ``end``
        #: exclusive.  Kept unordered — queries scan it.
        self._reservations: typing.List[typing.Tuple[int, int, int]] = []
        #: Total cluster-cycles ever reserved (for utilization metrics).
        self.busy_cluster_cycles = 0

    def __len__(self) -> int:
        return len(self._reservations)

    def prune(self, now: int) -> None:
        """Drop reservations that ended at or before ``now``.

        Safe once no future query's ``not_before`` can precede ``now``
        — i.e. when admission runs in arrival order.
        """
        self._reservations = [
            entry for entry in self._reservations if entry[1] > now]

    def peak_usage(self, start: int, end: int) -> int:
        """Maximum concurrent cluster usage over ``[start, end)``."""
        if end <= start:
            return 0
        points = {start}
        for s, e, _m in self._reservations:
            if s < end and e > start:
                points.add(max(s, start))
        peak = 0
        for t in points:
            usage = sum(m for s, e, m in self._reservations if s <= t < e)
            peak = max(peak, usage)
        return peak

    def earliest_start(self, not_before: int, duration: int, m: int) -> int:
        """Earliest ``t >= not_before`` fitting ``m`` clusters for
        ``duration`` cycles."""
        if m <= 0:
            raise TrafficError(f"reservation width must be positive, got {m}")
        if m > self.capacity:
            raise TrafficError(
                f"cannot reserve {m} clusters on a {self.capacity}-cluster "
                "fabric")
        if duration <= 0:
            return int(not_before)
        candidates = sorted(
            {int(not_before)}
            | {e for _s, e, _m in self._reservations if e > not_before})
        for t in candidates:
            if self.peak_usage(t, t + duration) + m <= self.capacity:
                return t
        raise TrafficError(   # pragma: no cover - the last candidate
            "no feasible start found")  # (all reservations ended) fits

    def reserve(self, start: int, duration: int, m: int) -> None:
        """Commit ``m`` clusters for ``[start, start + duration)``."""
        if duration <= 0:
            raise TrafficError(
                f"reservation duration must be positive, got {duration}")
        if self.peak_usage(start, start + duration) + m > self.capacity:
            raise TrafficError(
                f"reserving {m} clusters at cycle {start} would exceed the "
                f"{self.capacity}-cluster fabric")
        self._reservations.append((int(start), int(start + duration), int(m)))
        self.busy_cluster_cycles += int(m) * int(duration)

    def utilization(self, horizon_cycles: int) -> float:
        """Fraction of cluster-cycles busy over ``[0, horizon)``."""
        if horizon_cycles <= 0:
            return 0.0
        return self.busy_cluster_cycles / (self.capacity * horizon_cycles)
