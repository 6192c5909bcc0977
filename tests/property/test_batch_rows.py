"""Property tests: the row-wise tail algebra equals the per-point oracle.

:func:`repro.core.batch.predict_rows` proves and times a whole batch of
grid points at once, one (N, M) row of rows × clusters arrays each,
with max-plus scans for the DMA-out and AMO service chains.
``tests/batch_oracle.py`` keeps the original per-point proof and
algebra, whose Python loops walk those chains one commit at a time.
These tests check that the two agree on every row: provability, each
ambiguity refusal, every phase and every per-cluster marker.  Draws
cover gemv (N-dependent compute), stencil3 (position-dependent halo
bytes), dot and vecsum (one-word outputs), all four variants, a
vecwide tile, N < M rows, same-cycle ``compute_done`` ties, and
hand-placed dispatch-done cycles on both sides of each refusal.
"""

import hypothesis
import hypothesis.strategies as st
import numpy
import pytest

from repro.core import batch
from repro.core.staging import resolve_scalars
from repro.core.sweep import SweepPoint
from repro.kernels.registry import get_kernel
from repro.runtime.strategies import AmoPollCompletion
from repro.soc.config import SoCConfig
from repro.soc.tiles import SNITCH, VECWIDE, TileGroup
from tests import batch_oracle

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])

CFG = SoCConfig.extended(num_clusters=8)
FABRIC = SoCConfig.with_fabric(
    [TileGroup(name="little", tile=SNITCH, count=4),
     TileGroup(name="big", tile=VECWIDE, count=4)],
    multicast=True, hw_sync=True)
KERNELS = ["daxpy", "gemv", "stencil3", "dot", "vecsum", "memcpy"]
VARIANTS = ["baseline", "multicast_only", "hw_sync_only", "extended"]
#: (N, M) rows where two working clusters of memcpy, stencil3 and
#: vecsum finish compute on the same cycle with different write-back
#: sizes, so the DMA-out chain's cluster-id tie order shows in the cycles.
TIES = [(17, 2), (25, 3), (26, 3), (33, 4), (41, 5)]


def platform(name):
    """``(config, tile)`` for one of the three knob sources."""
    if name == "vecwide":
        return FABRIC, FABRIC.tile_group("big").tile
    if name == "snitch":
        return CFG, CFG.span_tile(0, 1)
    return CFG, None


def as_prediction(rows, row, prefix):
    """Row ``row`` of ``rows`` in the oracle's record, or ``None``."""
    fields = numpy.array(prefix.fields())[:, None]
    refused, _reason, phases = rows.finish(numpy.array([row]), fields)
    if refused[0]:
        return None
    summary = {name: int(values[0]) for name, values in phases.items()}
    m = int(rows.m[row])
    marks = [tuple(None if cycle < 0 else cycle + prefix.release_cycle
                   for cycle in rows.markers[slot, row, :m].tolist())
             for slot in range(4)]
    return batch_oracle.Prediction(
        point=SweepPoint(kernel_name=rows.kernel_name, n=int(rows.n[row]),
                         num_clusters=m, variant=rows.spec.name,
                         runtime_cycles=summary["total"], phases=summary),
        end_cycle=summary["total"] + prefix.start_cycle,
        dma_in_done=marks[0], compute_done=marks[1], dma_out_done=marks[2],
        completion_signalled=marks[3])


def boundary_prefix(rows, row, delta, spec, config):
    """A prefix whose dispatch-done sits ``delta`` cycles past the
    refusal boundary of row ``row`` (``delta >= 0`` refuses an AMO
    row, ``delta == 0`` a sync-unit row)."""
    release = 400
    threshold = int(rows.threshold[row])
    if isinstance(spec.completion, AmoPollCompletion):
        done = (release + threshold - config.noc_load_occupancy
                - config.noc_request_latency + delta)
    else:
        done = release + threshold + delta
    return batch._Prefix(start_cycle=0, dispatch_start=60,
                         dispatch_done=done, release_cycle=release)


shapes = st.lists(
    st.one_of(st.tuples(st.integers(1, 64), st.integers(1, 8)),
              st.tuples(st.integers(65, 3000), st.integers(1, 8)),
              st.sampled_from(TIES)),
    min_size=1, max_size=12)


@SETTINGS
@hypothesis.given(kernel=st.sampled_from(KERNELS),
                  variant=st.sampled_from(VARIANTS),
                  source=st.sampled_from(["config", "snitch", "vecwide"]),
                  grid=shapes, pick=st.integers(0, 11),
                  delta=st.integers(-3, 3))
def test_rows_match_the_per_point_oracle(kernel, variant, source, grid,
                                         pick, delta):
    config, tile = platform(source)
    spec = batch.resolve_spec(config, variant)
    kern = get_kernel(kernel)
    scalars = resolve_scalars(kern, None)
    ns, ms = [n for n, _m in grid], [m for _n, m in grid]
    rows = batch.predict_rows(config, kern, spec, ns, ms, scalars, tile,
                              markers=True)
    prefix = boundary_prefix(rows, pick % len(grid), delta, spec, config)
    provable = []
    for row, (n, m) in enumerate(grid):
        assert rows.provable[row] == batch_oracle.point_provable(
            config, kern, n, m, scalars, tile), (n, m)
        if rows.provable[row]:
            provable.append(row)
            assert as_prediction(rows, row, prefix) == \
                batch_oracle.predict_point(config, kern, spec, prefix, n, m,
                                           tile), (n, m)
    # The planner's path: every provable row finished in one pass.
    if provable:
        index = numpy.array(provable)
        refused, _reason, phases = rows.finish(
            index, numpy.repeat(numpy.array(prefix.fields())[:, None],
                                len(provable), axis=1))
        for k, row in enumerate(provable):
            expected = as_prediction(rows, row, prefix)
            assert bool(refused[k]) == (expected is None)
            if expected is not None:
                assert {name: int(values[k]) for name, values
                        in phases.items()} == expected.point.phases


@pytest.mark.parametrize("kernel", ["memcpy", "stencil3", "vecsum"])
def test_compute_done_ties_are_served_in_cluster_order(kernel):
    """The tie rows really tie, and the scan still matches the oracle's
    ``lexsort((ids, compute_done))`` loop on them."""
    kern = get_kernel(kernel)
    spec = batch.resolve_spec(CFG, "extended")
    scalars = resolve_scalars(kern, None)
    rows = batch.predict_rows(CFG, kern, spec, [n for n, _ in TIES],
                              [m for _, m in TIES], scalars, markers=True)
    prefix = batch._Prefix(0, 60, 120, 400)
    for row, (n, m) in enumerate(TIES):
        done = rows.markers[1, row, :m]
        done = done[done >= 0].tolist()
        assert len(set(done)) < len(done), (n, m)
        assert as_prediction(rows, row, prefix) == batch_oracle.predict_point(
            CFG, kern, spec, prefix, n, m)


@pytest.mark.parametrize("variant,reason", [
    ("multicast_only", "amo_first_poll"), ("extended", "irq_dispatch_done")])
def test_one_row_of_a_group_refuses_while_its_neighbours_predict(variant,
                                                                 reason):
    """A dispatch-done placed on one row's refusal boundary refuses that
    row alone; the oracle refuses the same row and times the others."""
    kern = get_kernel("daxpy")
    spec = batch.resolve_spec(CFG, variant)
    scalars = resolve_scalars(kern, None)
    ns = [64, 256, 1024]
    rows = batch.predict_rows(CFG, kern, spec, ns, [4] * 3, scalars,
                              markers=True)
    # AMO: on the boundary the smallest row's crossing meets the first
    # poll read; sync unit: the middle row's IRQ lands on dispatch-done.
    target = 0 if reason == "amo_first_poll" else 1
    prefix = boundary_prefix(rows, target, 0, spec, CFG)
    refused, got, _phases = rows.finish(
        numpy.arange(3), numpy.repeat(numpy.array(prefix.fields())[:, None],
                                      3, axis=1))
    assert got == reason
    assert refused.tolist() == [row == target for row in range(3)]
    for row, n in enumerate(ns):
        oracle = batch_oracle.predict_point(CFG, kern, spec, prefix, n, 4)
        assert (oracle is None) == (row == target)
        assert as_prediction(rows, row, prefix) == oracle
