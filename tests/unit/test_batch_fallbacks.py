"""Planner fallbacks, counted by reason.

Every point the :class:`~repro.core.batch.BatchPlanner` hands back to
the event engine is counted under one of
:data:`~repro.core.batch.FALLBACK_REASONS`, and each count reaches
``SweepExecutor.last_run_stats`` as ``batch_fallback_<reason>``.  One
test per reason drives a sweep that takes exactly that path and checks
the sweep still equals the event engine (``REPRO_NAIVE_BATCH=1``).

The two ambiguity refusals get more: a real platform whose host loads
are slow enough that small problems finish before the first poll read
refuses some rows of a group while their neighbours predict, and
``consume`` must hand back exactly the rows the per-point oracle
refuses.  A sync-unit IRQ cannot land on the dispatch-done cycle in a
real calibration (clusters are released only after the last doorbell),
so that refusal is driven through a hand-built prefix in the
calibration store.
"""

import dataclasses

import pytest

from repro.core import batch
from repro.core.cache import SweepCache, calibration_key
from repro.core.executor import _SYSTEM_POOL, SweepExecutor
from repro.core.offload import offload
from repro.core.staging import resolve_scalars
from repro.flags import NAIVE_BATCH_ENV, NAIVE_MPREDICT_ENV
from repro.kernels.base import Kernel
from repro.kernels.registry import _REGISTRY as _KERNEL_REGISTRY
from repro.kernels.registry import get_kernel, register_kernel
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.tiles import SNITCH, VECWIDE, TileGroup
from tests import batch_oracle

CFG = SoCConfig.extended(num_clusters=4)
#: Host loads that hold the port for 200 cycles: the first completion
#: poll reads late, so small problems cross the AMO threshold first.
SLOW_POLL = dataclasses.replace(CFG, noc_load_occupancy=200)
#: Largest N first, so each M group calibrates on a row the algebra
#: can time and the small rows are the ones refused.
DESCENDING = [4096, 1024, 256, 64, 8, 1]


@pytest.fixture(autouse=True)
def _planner_on(monkeypatch):
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    monkeypatch.delenv(NAIVE_MPREDICT_ENV, raising=False)


def sweep(monkeypatch, config, kernel, n_values, m_values, **kwargs):
    """``(planned points, naive points, last_run_stats)``."""
    executor = SweepExecutor()
    planned = executor.run(config, kernel, n_values, m_values, **kwargs)
    with monkeypatch.context() as patch:
        patch.setenv(NAIVE_BATCH_ENV, "1")
        naive = SweepExecutor().run(config, kernel, n_values, m_values,
                                    **kwargs)
    return planned.points, naive.points, executor.last_run_stats


def reasons(stats):
    """The nonzero ``batch_fallback_<reason>`` counts."""
    counts = {reason: stats[f"batch_fallback_{reason}"]
              for reason in batch.FALLBACK_REASONS}
    assert sum(counts.values()) == stats["batch_fallback_points"]
    return {reason: count for reason, count in counts.items() if count}


def test_structural_refusal(monkeypatch):
    class ComputeOnlyKernel(Kernel):
        name = "fallbacktest_computeonly"
        input_names = ("x",)
        output_names = ()
        timing = get_kernel("daxpy").timing

        def slice_bytes_in(self, lo, hi, n):
            return 8 * (hi - lo)

        def slice_bytes_out(self, lo, hi, n):
            return 0

        def compute_slice(self, n, scalars, inputs, work):
            return {}

    register_kernel(ComputeOnlyKernel())
    try:
        planned, naive, stats = sweep(monkeypatch, CFG,
                                      ComputeOnlyKernel.name, [64, 128],
                                      [1, 2], variant="baseline")
    finally:
        _KERNEL_REGISTRY.pop(ComputeOnlyKernel.name, None)
    assert planned == naive
    assert reasons(stats) == {"structural": 4}


def test_mixed_tile_span(monkeypatch):
    config = SoCConfig.with_fabric(
        [TileGroup(name="little", tile=SNITCH, count=2),
         TileGroup(name="big", tile=VECWIDE, count=2)],
        multicast=True, hw_sync=True)
    planned, naive, stats = sweep(monkeypatch, config, "daxpy", [64, 128],
                                  [2, 3, 4])
    assert planned == naive
    assert reasons(stats) == {"mixed_tile": 4}
    assert stats["planned_points"] == 1


def test_lone_point(monkeypatch):
    monkeypatch.setenv(NAIVE_MPREDICT_ENV, "1")
    planned, naive, stats = sweep(monkeypatch, CFG, "daxpy", [96],
                                  [1, 2, 3, 4], variant="baseline")
    assert planned == naive
    assert reasons(stats) == {"lone_point": 4}


def test_residual_mismatch(monkeypatch):
    # N = 1 calibrates each group, and its own completion crosses
    # before the first poll read, so the residual check cannot pass.
    planned, naive, stats = sweep(monkeypatch, SLOW_POLL, "daxpy",
                                  DESCENDING[::-1], [1, 2, 4],
                                  variant="multicast_only")
    assert planned == naive
    assert reasons(stats) == {"residual": 15}


def test_amo_before_first_poll(monkeypatch):
    planned, naive, stats = sweep(monkeypatch, SLOW_POLL, "daxpy",
                                  DESCENDING, [1, 2, 4],
                                  variant="multicast_only")
    assert planned == naive
    assert reasons(stats) == {"amo_first_poll": 8}
    assert stats["planned_points"] == 7


def test_consume_hands_back_exactly_the_amo_refusals():
    """Per M group, the rows ``consume`` returns are the rows the
    oracle refuses under the group's calibrated prefix."""
    variant = "multicast_only"
    spec = batch.resolve_spec(SLOW_POLL, variant)
    kernel = get_kernel("daxpy")
    pending = [(slot, n, m) for slot, (n, m) in enumerate(
        (n, m) for n in DESCENDING for m in (1, 2, 4))]
    slots = [None] * len(pending)
    planner = batch.BatchPlanner(_SYSTEM_POOL)
    remaining = planner.consume(SLOW_POLL, "daxpy", variant, None, 0, True,
                                pending, slots)
    expected = []
    for m in (1, 2, 4):
        result = offload(ManticoreSystem(SLOW_POLL), "daxpy", DESCENDING[0],
                         m, variant=variant)
        prefix = batch.extract_prefix(SLOW_POLL, result.trace, m)
        expected += [entry for entry in pending if entry[2] == m
                     and batch_oracle.predict_point(
                         SLOW_POLL, kernel, spec, prefix, entry[1], m) is None]
    assert sorted(remaining) == sorted(expected)
    assert planner.fallbacks["amo_first_poll"] == len(expected) > 0
    # The refusals split every group: each M also has predicted rows.
    for m in (1, 2, 4):
        group = [entry for entry in pending if entry[2] == m]
        assert 0 < sum(entry in remaining for entry in group) < len(group)
    assert all((slots[slot] is None) == ((slot, n, m) in remaining)
               for slot, n, m in pending)


def test_irq_on_dispatch_done_from_a_stored_prefix():
    """A stored prefix whose dispatch-done equals one row's IRQ raise:
    ``consume`` hands back that row alone and times its neighbours
    exactly as the oracle does, with no simulation."""
    spec = batch.resolve_spec(CFG, "extended")
    kernel = get_kernel("daxpy")
    resolved = resolve_scalars(kernel, None)
    ns = [64, 256, 1024]
    rows = batch.predict_rows(CFG, kernel, spec, ns, [4] * 3, resolved)
    release = 400
    prefix = batch._Prefix(start_cycle=0, dispatch_start=60,
                           dispatch_done=release + int(rows.threshold[1]),
                           release_cycle=release)
    cache = SweepCache()
    for m in (2, 4):
        cache.put_record(
            calibration_key("prefix", CFG, "daxpy", spec.name, resolved, 0,
                            m=m), "prefix", batch.encode_prefix(prefix))
    pending = [(slot, n, m) for slot, (n, m) in enumerate(
        (n, m) for n in ns for m in (2, 4))]
    slots = [None] * len(pending)
    planner = batch.BatchPlanner(_SYSTEM_POOL, cache=cache)
    remaining = planner.consume(CFG, "daxpy", "extended", None, 0, True,
                                pending, slots)
    expected = [entry for entry in pending
                if batch_oracle.predict_point(CFG, kernel, spec, prefix,
                                              entry[1], entry[2]) is None]
    assert remaining == expected == [(3, 256, 4)]
    assert planner.fallbacks["irq_dispatch_done"] == 1
    assert planner.fallback_points == 1
    assert planner.calibration_points == 0
    for slot, n, m in pending:
        if (slot, n, m) not in remaining:
            assert slots[slot] == batch_oracle.predict_point(
                CFG, kernel, spec, prefix, n, m).point
