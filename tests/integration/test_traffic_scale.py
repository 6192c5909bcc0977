"""Scale test: traffic replay stays linear at 10⁵ jobs under overload.

One Poisson stream arrives at a tenth of E13's mean gap (30 cycles
instead of 300), so every offload-heavy policy builds a backlog that
grows with the stream: at 10⁵ jobs, tens of thousands of reservations
are live.  The Eq. 1 and host models are written down here, so no
characterization runs.  Each policy replays the first 10⁴ jobs ten
times and then all 10⁵ once; linear admission costs the same for
both, and the test allows 2× (20× one short replay).  A per-call
reservation scan (the brute-force calendar) costs about 1000× and is
stopped at a cap, so a cliff fails within half a minute instead of
hanging the suite.  The most skyline segments a replay builds, a count rather
than a time, must not grow with the stream at all.
"""

import math
import time

import pytest

import repro.traffic.engine as engine_module
from repro.core.decision import HostExecutionModel
from repro.core.model import OffloadModel
from repro.traffic import (
    FabricOccupancy,
    PoissonArrivals,
    TrafficAlwaysHost,
    TrafficAlwaysOffload,
    TrafficDeadlineAware,
    TrafficEngine,
    TrafficModelDriven,
    TrafficPolicy,
    generate_traffic,
)

JOBS = 100_000
SHORT = JOBS // 10
GAP = 30.0
#: Allowed cost of the 10⁵-job replay over the 10⁴-job one (linear: 10).
MAX_RATIO = 20.0
#: The long replay's budget never exceeds this, on any host, so the ten
#: short replays it is compared with must finish within half of it.
CAP_SECONDS = 60.0

#: Constant-dispatch models, as ``characterize_platform`` fits them:
#: every offloading policy but ``deadline_aware`` runs at full width.
MODELS = {"daxpy": OffloadModel(t0=367.0, mem_coeff=0.25,
                                compute_coeff=0.325),
          "memcpy": OffloadModel(t0=300.0, mem_coeff=0.125,
                                 compute_coeff=0.25)}
HOSTS = {"daxpy": HostExecutionModel(3.0, 10.0),
         "memcpy": HostExecutionModel(2.0, 10.0)}


class Overrun(Exception):
    """A replay ran past its time budget."""


class Budgeted(TrafficPolicy):
    """Delegates to ``inner`` but stops the replay at ``stop_at``."""

    def __init__(self, inner: TrafficPolicy, stop_at: float) -> None:
        self.inner = inner
        self.name = inner.name
        self.stop_at = stop_at

    def resolved_name(self, capacity):
        return self.inner.resolved_name(capacity)

    def place(self, job, deadline, engine):
        if time.perf_counter() > self.stop_at:
            raise Overrun(self.name)
        return self.inner.place(job, deadline, engine)


class CountingOccupancy(FabricOccupancy):
    """Records the most skyline segments any reservation left behind."""

    most_segments = 0

    def reserve(self, start, duration, m):
        super().reserve(start, duration, m)
        CountingOccupancy.most_segments = max(
            CountingOccupancy.most_segments, len(self._times))


def replay(engine, jobs, policy, repeats, budget):
    """Wall time of ``repeats`` replays (infinity past ``budget``
    seconds) and the most skyline segments they built."""
    CountingOccupancy.most_segments = 0
    started = time.perf_counter()
    try:
        for _ in range(repeats):
            result = engine.run(jobs, Budgeted(policy, started + budget))
            assert len(result.outcomes) == len(jobs)
    except Overrun:
        return math.inf, CountingOccupancy.most_segments
    return time.perf_counter() - started, CountingOccupancy.most_segments


@pytest.fixture(scope="module")
def stream():
    return generate_traffic(PoissonArrivals(GAP), JOBS, tenants=3, seed=5)


@pytest.mark.parametrize("policy", [
    TrafficAlwaysHost(), TrafficAlwaysOffload(32), TrafficModelDriven(),
    TrafficDeadlineAware()], ids=lambda policy: policy.name)
def test_replay_cost_is_linear_in_stream_length(stream, policy, monkeypatch):
    monkeypatch.setattr(engine_module, "FabricOccupancy", CountingOccupancy)
    engine = TrafficEngine(MODELS, HOSTS, capacity=32, slack=3.0)
    # Ten short replays take as long as one long one if cost is linear,
    # so both measurements span the same stretch of a shared host's
    # speed swings.  Noise only slows a run down: a second round is
    # allowed.
    for _round in range(2):
        short, short_segments = replay(
            engine, stream[:SHORT], policy, 10, CAP_SECONDS / 2)
        assert short < math.inf, (
            f"{policy.name}: replaying {SHORT} jobs ten times took over "
            f"{CAP_SECONDS / 2:g} s")
        budget = min(MAX_RATIO * short / 10, CAP_SECONDS)
        full, full_segments = replay(engine, stream, policy, 1, budget)
        if full < math.inf:
            break
    assert full < math.inf, (
        f"{policy.name}: replaying {JOBS} jobs took over {budget:.2f} s, "
        f"more than {MAX_RATIO:g}x the {short / 10:.3f} s of {SHORT} jobs")
    # The timing-free half of the claim: under overload the live
    # reservations grow with the stream, but merged skyline segments do
    # not, so each admission's sweep stays short.
    assert full_segments == short_segments
    assert (short_segments > 0) == (policy.name != "always_host")
