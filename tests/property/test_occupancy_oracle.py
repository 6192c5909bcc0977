"""Property tests: the skyline occupancy calendar equals brute force.

:class:`~repro.traffic.FabricOccupancy` keeps a merged step-function
skyline; :class:`tests.occupancy_oracle.BruteForceOccupancy` rescans
every live reservation on every call.  Random operation sequences must get the
same start times, peaks, live counts, busy cluster-cycles and
``TrafficError`` messages from both.

Times stay small so reservations share boundaries often: back-to-back
admissions, queries and reservations starting exactly where another
reservation starts or ends, zero-cycle prune steps, zero-length peak
windows.  Every time an operation names is at or after the latest
prune, the contract both implementations document; within that, query
times go backwards as well as forwards.
"""

import hypothesis
import hypothesis.strategies as st
import pytest

import repro.traffic.engine as engine_module
from repro.core.decision import HostExecutionModel
from repro.core.model import OffloadModel
from repro.errors import TrafficError
from repro.traffic import (
    FabricOccupancy,
    PoissonArrivals,
    TrafficAlwaysHost,
    TrafficAlwaysOffload,
    TrafficDeadlineAware,
    TrafficEngine,
    TrafficModelDriven,
    generate_traffic,
)
from tests.occupancy_oracle import BruteForceOccupancy

OFFSET = st.integers(0, 24)
DURATION = st.integers(1, 16)

OPERATIONS = st.one_of(
    # Advance the arrival clock (0: prune twice at one instant).
    st.tuples(st.just("prune"), st.integers(0, 12)),
    # Any query, including invalid widths and non-positive durations.
    st.tuples(st.just("query"), OFFSET, st.integers(-1, 16),
              st.integers(0, 13)),
    # Any peak window, including empty and reversed ones.
    st.tuples(st.just("peak"), OFFSET, st.integers(-2, 16)),
    # A reservation at an arbitrary start: it may exceed capacity.
    st.tuples(st.just("reserve"), OFFSET, st.integers(-1, 16),
              st.integers(1, 13)),
    # Admission: reserve at the earliest start (back-to-back packing).
    st.tuples(st.just("admit"), OFFSET, DURATION, st.integers(1, 12)),
    # Query and reserve exactly at an existing reservation boundary.
    st.tuples(st.just("boundary"), st.integers(0, 10_000), DURATION,
              st.integers(1, 12)),
)


def outcome(call, *args):
    """``("ok", value)`` or ``("error", message)`` — compared whole."""
    try:
        return ("ok", call(*args))
    except TrafficError as error:
        return ("error", str(error))


def both(skyline, oracle, name, *args):
    """Call ``name`` on both implementations; they must agree."""
    got = outcome(getattr(skyline, name), *args)
    want = outcome(getattr(oracle, name), *args)
    assert got == want, (name, args)
    return got


def apply(skyline, oracle, operation, now):
    """Run one operation on both; returns the new prune time."""
    kind = operation[0]
    if kind == "prune":
        now += operation[1]
        skyline.prune(now)
        oracle.prune(now)
    elif kind == "query":
        _kind, offset, duration, m = operation
        both(skyline, oracle, "earliest_start", now + offset, duration, m)
    elif kind == "peak":
        _kind, offset, length = operation
        both(skyline, oracle, "peak_usage", now + offset,
             now + offset + length)
    elif kind == "reserve":
        _kind, offset, duration, m = operation
        both(skyline, oracle, "reserve", now + offset, duration, m)
    else:
        _kind, pick, duration, m = operation
        m = min(m, oracle.capacity)
        if kind == "admit":
            not_before = now + pick % 25
        else:
            boundaries = sorted(
                {t for s, e, _m in oracle._reservations for t in (s, e)
                 if t >= now}) or [now]
            not_before = boundaries[pick % len(boundaries)]
            both(skyline, oracle, "peak_usage", not_before,
                 not_before + duration)
        state, start = both(skyline, oracle, "earliest_start", not_before,
                            duration, m)
        assert state == "ok" and start >= not_before
        both(skyline, oracle, "reserve", start, duration, m)
        if kind == "boundary":
            # Also try the boundary itself, which may be too full.
            both(skyline, oracle, "reserve", not_before, duration, m)
    assert len(skyline) == len(oracle)
    assert skyline.busy_cluster_cycles == oracle.busy_cluster_cycles
    return now


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(capacity=st.integers(1, 12),
                  operations=st.lists(OPERATIONS, max_size=80))
def test_skyline_matches_brute_force(capacity, operations):
    skyline, oracle = FabricOccupancy(capacity), BruteForceOccupancy(capacity)
    now = 0
    for operation in operations:
        now = apply(skyline, oracle, operation, now)
    assert skyline.utilization(now + 100) == oracle.utilization(now + 100)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(capacity=st.integers(1, 12),
                  jobs=st.lists(st.tuples(st.integers(0, 6), DURATION,
                                          st.integers(1, 12)),
                                min_size=1, max_size=120))
def test_overloaded_admission_matches_brute_force(capacity, jobs):
    """The engine's pattern: arrivals in order, each pruned to, then
    admitted at its earliest start.  Gaps shorter than the durations
    build a backlog far past the arrival clock."""
    skyline, oracle = FabricOccupancy(capacity), BruteForceOccupancy(capacity)
    now = 0
    for gap, duration, m in jobs:
        now = apply(skyline, oracle, ("prune", gap), now)
        apply(skyline, oracle, ("admit", 0, duration, m), now)


def test_merged_skyline_still_reports_each_reservation():
    """Back-to-back full-width reservations merge into one segment but
    stay separately counted and separately pruned."""
    skyline, oracle = FabricOccupancy(4), BruteForceOccupancy(4)
    now = 0
    for _ in range(50):
        now = apply(skyline, oracle, ("admit", 0, 7, 4), now)
    assert len(skyline) == 50
    assert len(skyline._times) == 2   # one busy segment, then idle
    now = apply(skyline, oracle, ("prune", 7 * 20), now)
    assert len(skyline) == 30
    both(skyline, oracle, "earliest_start", now, 1, 1)


def test_reserve_rejects_non_positive_widths():
    occupancy = FabricOccupancy(4)
    for m in (0, -1):
        with pytest.raises(TrafficError, match="width must be positive"):
            occupancy.reserve(0, 10, m)
    assert len(occupancy) == 0


# ----------------------------------------------------------------------
# Whole replays: the engine on either implementation
# ----------------------------------------------------------------------
#: A constant-dispatch kernel (always full width when offloaded) and a
#: sequential-dispatch one whose best width grows with N, so replays
#: mix widths.
MODELS = {"daxpy": OffloadModel(t0=367.0, mem_coeff=0.25,
                                compute_coeff=0.325),
          "memcpy": OffloadModel(t0=300.0, mem_coeff=0.125,
                                 compute_coeff=0.25, dispatch_coeff=2.0)}
HOSTS = {"daxpy": HostExecutionModel(3.0, 10.0),
         "memcpy": HostExecutionModel(2.0, 10.0)}


@pytest.mark.parametrize("policy", [
    TrafficAlwaysHost(), TrafficAlwaysOffload(32), TrafficAlwaysOffload(5),
    TrafficModelDriven(), TrafficDeadlineAware()],
    ids=lambda policy: policy.name)
def test_overloaded_replay_matches_brute_force(policy, monkeypatch):
    jobs = generate_traffic(PoissonArrivals(30.0), 60, tenants=3, seed=3)
    engine = TrafficEngine(MODELS, HOSTS, capacity=32, slack=3.0)
    skyline = engine.run(jobs, policy)
    monkeypatch.setattr(engine_module, "FabricOccupancy",
                        BruteForceOccupancy)
    assert engine.run(jobs, policy) == skyline
