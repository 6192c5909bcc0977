"""Per-point oracle for :func:`repro.core.batch.predict_rows`.

:func:`predict_point` and :func:`point_provable` are the planner's
original one-point-at-a-time proof and tail algebra, kept verbatim: a
Python loop serializes the DMA-out chain and the AMO service chain in
commit order, and the structural checks walk the slices one by one.
Nothing about them is clever, which is what makes them an oracle: the
property suite (``tests/property/test_batch_rows.py``) checks the
row-wise predictor against them, point by point and marker by marker.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro.core.batch import _MEMORY_SLACK_BYTES, _Prefix
from repro.core.sweep import SweepPoint
from repro.errors import ConfigError, KernelError
from repro.kernels.base import Kernel, split_range
from repro.runtime.strategies import AmoPollCompletion, VariantSpec
from repro.soc.config import SoCConfig

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.soc.tiles import ResolvedTile


@dataclasses.dataclass(frozen=True)
class Prediction:
    """One predicted grid point plus the markers the residual check needs.

    Per-cluster entries are ``None`` for clusters whose slice is empty,
    mirroring :class:`~repro.runtime.trace.ClusterPhases`.
    """

    point: SweepPoint
    end_cycle: int
    dma_in_done: typing.Tuple[typing.Optional[int], ...]
    compute_done: typing.Tuple[typing.Optional[int], ...]
    dma_out_done: typing.Tuple[typing.Optional[int], ...]
    completion_signalled: typing.Tuple[int, ...]


def point_provable(config: SoCConfig, kernel: Kernel, n: int, m: int,
                   scalars: typing.Mapping[str, float],
                   tile: typing.Optional["ResolvedTile"] = None) -> bool:
    """Whether one (N, M) point's tail is safely predictable.

    Refuses anything whose event-engine run would raise (invalid shape,
    TCDM or main-memory overflow, a tile class without a rate for this
    kernel — the event path must own the error) and any slice shape the
    DMA-chain algebra cannot order (zero-byte transfers skip the
    channel reservation entirely, changing the arbitration order the
    closed form assumes).  ``tile`` is the resolved tile the point runs
    on; ``None`` reads the homogeneous config knobs directly.
    """
    try:
        kernel.validate(n, scalars)
        slices = split_range(n, m)
    except KernelError:
        return False
    tcdm_bytes = config.tcdm_bytes
    if tile is not None:
        tcdm_bytes = tile.tcdm_bytes
        try:
            tile.timing_for(kernel.name)
        except ConfigError:
            return False
    largest = slices[0]
    if kernel.slice_tcdm_bytes(largest.lo, largest.hi, n) > tcdm_bytes:
        return False
    staged = sum(8 * kernel.input_length(name, n)
                 for name in kernel.input_names)
    staged += sum(8 * kernel.output_length(name, n, m)
                  for name in kernel.output_names
                  if kernel.output_alias(name) is None)
    if staged + _MEMORY_SLACK_BYTES > config.main_memory_bytes:
        return False
    for work in slices:
        if work.empty:
            continue
        if kernel.slice_bytes_in(work.lo, work.hi, n) <= 0:
            return False
        if kernel.slice_bytes_out(work.lo, work.hi, n) <= 0:
            return False
    return True



def predict_point(config: SoCConfig, kernel: Kernel, spec: VariantSpec,
                  prefix: _Prefix, n: int, m: int,
                  tile: typing.Optional["ResolvedTile"] = None,
                  ) -> typing.Optional[Prediction]:
    """Time one grid point with the closed-form tail algebra.

    Returns ``None`` when the completion schedule is ambiguous against
    the host's observation (same-cycle races the event engine resolves
    through queue internals the algebra does not model); callers fall
    such points back to the event engine.

    ``tile`` supplies the per-tile-class knobs (core count, DMA setup,
    wake/barrier latencies, kernel compute rates); ``None`` reads the
    homogeneous config knobs, the pre-fabric behaviour.  Either way the
    residual check (:func:`matches_trace`) guards the algebra against
    the event engine, so a knob this form mis-models falls the group
    back instead of diverging.
    """
    if tile is None:
        cores = config.cores_per_cluster
        dma_setup = config.dma_setup_cycles
        worker_wake = config.worker_wake_latency
        barrier = config.barrier_latency
        timing = None
    else:
        cores = tile.cores_per_tile
        dma_setup = tile.dma_setup_cycles
        worker_wake = tile.worker_wake_latency
        barrier = tile.barrier_latency
        timing = tile.timing_for(kernel.name)
    slices = split_range(n, m)
    elems = numpy.fromiter((s.hi - s.lo for s in slices),
                           dtype=numpy.int64, count=m)
    nonempty = elems > 0
    ids = numpy.flatnonzero(nonempty)
    if ids.size == 0:
        return None
    release = prefix.release_cycle

    # Input DMA: every working cluster issues its read reservation at
    # release + dma_setup; the shared channel serves them in cluster-id
    # order, so finishes are one cumulative sum.
    b_in = numpy.fromiter(
        (kernel.slice_bytes_in(slices[i].lo, slices[i].hi, n) for i in ids),
        dtype=numpy.int64, count=ids.size)
    read_cycles = -(-b_in // config.mem_read_width_bytes)
    din = (release + dma_setup + numpy.cumsum(read_cycles))

    # Compute: the barrier's closed-form crossing.  Per-core counts are
    # q+1 (the first e mod cores workers) and q, so the phase maximum
    # needs at most two vectorized timing evaluations per cluster.
    q, r = numpy.divmod(elems[ids], cores)
    if timing is None:
        cyc_lo = kernel.compute_cycles_array(q, n)
        cyc_hi = kernel.compute_cycles_array(q + 1, n)
    else:
        cyc_lo = timing.cycles_array(q)
        cyc_hi = timing.cycles_array(q + 1)
    phase_max = numpy.where(r > 0, numpy.maximum(cyc_hi, cyc_lo), cyc_lo)
    compute_done = din + worker_wake + phase_max + barrier

    # Output DMA: reservations commit in (compute_done, cluster_id)
    # order and chain on the otherwise-idle write channel.
    b_out = numpy.fromiter(
        (kernel.slice_bytes_out(slices[i].lo, slices[i].hi, n) for i in ids),
        dtype=numpy.int64, count=ids.size)
    write_cycles = -(-b_out // config.mem_write_width_bytes)
    dout = numpy.empty_like(compute_done)
    next_free = 0
    for k in numpy.lexsort((ids, compute_done)):
        issue = int(compute_done[k]) + dma_setup
        start = issue if issue > next_free else next_free
        next_free = start + int(write_cycles[k])
        dout[k] = next_free

    # Completion-store commit cycle per cluster: empty slices signal
    # straight from the start-barrier release, working ones after their
    # write-back lands.
    signal = numpy.full(m, release, dtype=numpy.int64)
    signal[ids] = dout
    port_occ = config.noc_cluster_port_occupancy
    req = config.noc_request_latency
    resp = config.noc_response_latency
    dispatch_done = prefix.dispatch_done

    if isinstance(spec.completion, AmoPollCompletion):
        # The memory's AMO unit services increments in commit order;
        # the host's poll schedule is the analytic fast-forward form.
        arrival = signal + port_occ + req
        completion = numpy.empty(m, dtype=numpy.int64)
        finish = 0
        for cid in sorted(range(m), key=lambda c: (int(signal[c]), c)):
            at = int(arrival[cid])
            finish = (at if at > finish else finish) \
                + config.noc_amo_service_cycles
            completion[cid] = finish + resp
        crossing_write = finish
        read0 = dispatch_done + config.noc_load_occupancy + req
        period = (config.noc_load_occupancy + req + resp
                  + config.host_poll_gap_cycles)
        if crossing_write <= read0:
            # The threshold may cross before (or on the very cycle) the
            # first poll read observes the flag — the first-iteration
            # path, which the algebra does not model.
            return None
        success = (crossing_write - read0) // period + 1
        end = read0 + success * period + resp
    else:
        # Sync unit: posted increments issue one port-occupancy after
        # commit; the threshold matches on the last delivery and the
        # IRQ raises after the raise latency.  WFI always pays the wake
        # latency from whichever of (raise, entry) comes last.
        issued = signal + port_occ
        completion = issued.copy()
        raise_cycle = (int(issued.max()) + req
                       + config.syncunit_irq_latency)
        if raise_cycle == dispatch_done:
            # Same-cycle IRQ-vs-WFI entry: ordering depends on queue
            # internals, not on the algebra's inputs.
            return None
        latest = raise_cycle if raise_cycle > dispatch_done else dispatch_done
        end = latest + config.host_wfi_wake_latency

    last_signal = int(completion.max())
    phases = {
        "setup": int(prefix.dispatch_start - prefix.start_cycle),
        "dispatch": int(dispatch_done - prefix.dispatch_start),
        "completion_wait": int(end - dispatch_done),
        "sync_overhead": int(end - last_signal),
        "total": int(end - prefix.start_cycle),
    }
    point = SweepPoint(
        kernel_name=kernel.name, n=n, num_clusters=m, variant=spec.name,
        runtime_cycles=phases["total"], phases=phases)

    def full(values: numpy.ndarray) -> typing.Tuple[
            typing.Optional[int], ...]:
        out: typing.List[typing.Optional[int]] = [None] * m
        for slot, cid in enumerate(ids):
            out[int(cid)] = int(values[slot])
        return tuple(out)

    return Prediction(
        point=point, end_cycle=int(end),
        dma_in_done=full(din), compute_done=full(compute_done),
        dma_out_done=full(dout),
        completion_signalled=tuple(int(c) for c in completion))

