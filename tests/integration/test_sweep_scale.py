"""Scale test: a planned sweep stays linear at 5·10⁴ problem sizes.

One sweep of N = 1..50 000 at a single offload width is one M group of
the batch planner: one calibration simulation, then every other point
in closed form.  The same sizes swept as ten back-to-back sweeps of
5 000 cost the same if the planner is linear, and the test allows 2×.
A planner that partitions a group by list membership (quadratic in
the group size) costs about 50× at this size and is stopped at a cap,
so a cliff fails within a minute instead of hanging the suite.  The
planner's counts, which do not depend on timing, must show every
point but the calibration planned.
"""

import contextlib
import math
import signal
import time

import pytest

from repro.core.executor import SweepExecutor
from repro.flags import NAIVE_BATCH_ENV, NAIVE_MPREDICT_ENV
from repro.soc.config import SoCConfig

SIZES = 50_000
SHORT = SIZES // 10
M = 4
#: relu stages 8 bytes per element in place, so 50 000 / 4 fits TCDM.
KERNEL = "relu"
CFG = SoCConfig.extended(num_clusters=M)
#: Allowed cost of the long sweep over the ten short ones (linear: 1).
MAX_RATIO = 2.0
#: The long sweep's budget never exceeds this, on any host, so the ten
#: short sweeps it is compared with must finish within half of it.
CAP_SECONDS = 60.0

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="needs an interval timer")


class Overrun(Exception):
    """A sweep ran past its time budget."""


@contextlib.contextmanager
def budget(seconds):
    def stop(_signum, _frame):
        raise Overrun
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sweep_all(grids, seconds):
    """Wall time of sweeping each N list in turn (infinity past
    ``seconds``)."""
    started = time.perf_counter()
    try:
        with budget(seconds):
            for n_values in grids:
                executor = SweepExecutor()
                result = executor.run(CFG, KERNEL, n_values, [M],
                                      verify=False)
                assert len(result) == len(n_values)
                assert executor.simulated_points == 1
                assert executor.planned_points == len(n_values) - 1
                assert executor.batch_fallback_points == 0
    except Overrun:
        return math.inf
    return time.perf_counter() - started


def test_planned_sweep_cost_is_linear_in_grid_size(monkeypatch):
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    monkeypatch.delenv(NAIVE_MPREDICT_ENV, raising=False)
    sizes = list(range(1, SIZES + 1))
    shorts = [sizes[start:start + SHORT] for start in range(0, SIZES, SHORT)]
    # Noise only slows a run down: a second round is allowed.
    for _round in range(2):
        short = sweep_all(shorts, CAP_SECONDS / 2)
        assert short < math.inf, (
            f"ten sweeps of {SHORT} sizes took over {CAP_SECONDS / 2:g} s")
        allowed = min(MAX_RATIO * short, CAP_SECONDS)
        full = sweep_all([sizes], allowed)
        if full < math.inf:
            break
    assert full < math.inf, (
        f"one sweep of {SIZES} sizes took over {allowed:.2f} s, more than "
        f"{MAX_RATIO:g}x the {short:.3f} s of ten sweeps of {SHORT}")
