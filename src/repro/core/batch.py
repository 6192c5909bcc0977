"""Batched sweep timing: predict whole N-columns from one calibration.

A sweep grid re-runs the same offload protocol over and over with only
the problem size N changing: the host setup, descriptor store,
completion arming, doorbell distribution and cluster wake/decode
sequence are all independent of N, and once the start barrier releases,
every downstream cycle (DMA chains on the shared channels, the
closed-form compute phase, the completion stores and the host's
poll/WFI observation) is a deterministic integer function of the slice
shapes.  :class:`BatchPlanner` exploits that: for every group of grid
points sharing an offload width M it simulates **one** calibration
point through the event engine, extracts the N-independent prefix from
its :class:`~repro.runtime.trace.OffloadTrace`, and times every other N
of the group as NumPy array arithmetic — bit-identical to the event
engine, a property the planner *proves* per group before using it:

- **structural preconditions** — only the four paper protocol variants
  (exact strategy types), a full ``0..M-1`` cluster range, non-empty
  DMA transfers for every working slice, and shapes that fit TCDM and
  main memory are predictable; anything else stays on the event engine;
- **residual check** — the closed form is evaluated at the calibration
  N and compared against the *measured* trace, marker for marker
  (per-cluster DMA/compute/completion cycles, end cycle, every phase);
  any mismatch falls the whole group back;
- **ambiguity fallbacks** — completion schedules the algebra cannot
  order against the host's first poll read or WFI entry (same-cycle
  races) are refused point by point.

``REPRO_NAIVE_BATCH`` disables the planner entirely; the A/B property
suite (``tests/property/test_batch_identity.py``) asserts both paths
return equal :class:`~repro.core.sweep.SweepPoint` streams.

The M axis: affine prefix prediction
------------------------------------
One calibration per (variant, M) group still leaves the M axis paying
one full event simulation per offload width — on a Fig.-1 shaped grid
(one N, M = 1..32) that is *every* point.  But the prefix itself is
structured: the paper's runtime model (Eq. 1) treats dispatch cost as
affine in the cluster count, and the two shipped dispatch strategies
declare exactly where that holds
(:attr:`~repro.runtime.strategies.DispatchStrategy
.affine_dispatch_min_m`: sequential stores from M = 1, multicast from
M = 2 — its single-cluster case is a plain store off the line).  So
instead of calibrating every M group, the planner event-simulates
**two anchor** M values, fits each prefix field as an integer-affine
function of M (non-integer slope → refuse), verifies the fitted line
*residual-exactly* against a third held-out M — a full
marker-for-marker :func:`matches_trace` check, not just the prefix —
and synthesizes the prefix for every other M in the anchor span
closed-form.  Any failure (anchor residual, non-affine fit, holdout
mismatch) falls that sweep back to per-group calibration; M values
outside the fitted span or below the declared domain are calibrated
per group as before.  ``REPRO_NAIVE_MPREDICT`` restores the
one-calibration-per-group path bit-for-bit.

The calibration store
---------------------
Prefixes and fitted M-models are pure functions of
(config digest, kernel, resolved variant, scalars, seed) — N never
enters — so :class:`~repro.core.cache.SweepCache` content-addresses
them persistently (:func:`~repro.core.cache.calibration_key`, schema
versioned).  A warm store lets a sweep over *new* problem sizes skip
calibration entirely and go straight to array algebra: the planner
stores every residual-validated per-M prefix and every
holdout-validated M-model, and consults the store before simulating.

Why the tail is a closed form
-----------------------------
All M clusters resume from the start fabric barrier on the same cycle
``T_rel`` in cluster-id order, so the shared read channel serves their
input DMAs back to back: ``din_i = T_rel + dma_setup + Σ ceil(bytes_in_j
/ read_width)`` over working clusters ``j ≤ i``.  The compute phase is
the barrier's closed-form crossing (wake + max per-core cycles +
latency).  Output DMAs commit in ``(compute_done, cluster_id)`` order
and serialize on the write channel: issued at ``a_k`` with ``w_k``
cycles of work, transfer ``k`` finishes at ``d_k = max(a_k, d_{k-1}) +
w_k``.  That max-plus recurrence unrolls to a scan: with ``S_k = Σ_{j≤k}
w_j``, ``d_k = S_k + max_{j≤k} (a_j − (S_j − w_j))`` — one ``cumsum``
and one ``maximum.accumulate``.  Completion is either the serial AMO
unit (the same scan over increments in commit order, then the host's
analytic poll schedule) or the sync unit's credit counter (threshold
match on the last delivery, IRQ after the wire + raise latency, WFI
wake).  Every term is an integer from :class:`~repro.soc.config.SoCConfig`
and every cycle after ``T_rel`` shifts with it, so :func:`predict_rows`
times every grid point of a sweep relative to release, one row of a
rows × clusters array each, before any prefix is known.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro import flags
from repro.core.cache import calibration_key
from repro.core.sweep import SweepPoint
from repro.errors import ConfigError, KernelError, OffloadError
from repro.kernels.base import Kernel
from repro.kernels.registry import get_kernel
from repro.runtime.strategies import (
    AmoPollCompletion,
    MulticastDispatch,
    SequentialStoreDispatch,
    SyncUnitCompletion,
    VariantSpec,
    get_variant,
    variant_for_features,
)
from repro.soc.config import SoCConfig

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.cache import SweepCache
    from repro.runtime.trace import OffloadTrace
    from repro.soc.pool import SystemPool
    from repro.soc.tiles import ResolvedTile

#: Main-memory slack the conservative fit check keeps free: descriptor
#: slot (8 words minimum, 64-byte aligned), completion flag, and
#: allocation padding, rounded up generously.
_MEMORY_SLACK_BYTES = 4096

#: Dispatch strategies whose doorbell schedule the planner can prove
#: N-independent (exact types — subclasses may override timing).
_PROVABLE_DISPATCH = (SequentialStoreDispatch, MulticastDispatch)

#: Completion strategies the tail algebra models (exact types).
_PROVABLE_COMPLETION = (AmoPollCompletion, SyncUnitCompletion)


@dataclasses.dataclass(frozen=True)
class _Prefix:
    """The N-independent head of one (config, variant, M) group.

    Extracted from a calibration offload's trace: absolute cycles of
    the host-side markers plus ``release_cycle``, the cycle every
    participating cluster resumes from the start fabric barrier
    (``max(decoded) + arrival latency + release latency``).
    """

    start_cycle: int
    dispatch_start: int
    dispatch_done: int
    release_cycle: int

    def fields(self) -> typing.Tuple[int, int, int, int]:
        """The prefix as an ordered tuple (the M-model's field order)."""
        return (self.start_cycle, self.dispatch_start,
                self.dispatch_done, self.release_cycle)


@dataclasses.dataclass(frozen=True)
class MPrefixModel:
    """Affine-in-M model of one (config, kernel, variant)'s prefix.

    Each :class:`_Prefix` field is ``base[i] + slope[i] * (m - m_lo)``
    with integer slopes — the fit refuses anything else, because
    event-engine cycles are integers and a fractional slope means the
    claimed affinity is simply false.  The model only speaks for
    ``max(min_m, m_lo) <= m <= m_hi``: ``min_m`` is the strategy's
    declared affine domain and ``[m_lo, m_hi]`` the anchor span, so
    every synthesized prefix is an *interpolation* between
    residual-checked calibrations, never an extrapolation past them.
    """

    min_m: int
    m_lo: int
    m_hi: int
    base: typing.Tuple[int, int, int, int]
    slope: typing.Tuple[int, int, int, int]

    def predict(self, m: int) -> typing.Optional[_Prefix]:
        """The synthesized prefix at ``m``, or ``None`` outside range."""
        if m < self.min_m or m < self.m_lo or m > self.m_hi:
            return None
        delta = m - self.m_lo
        start, dispatch_start, dispatch_done, release = (
            b + s * delta for b, s in zip(self.base, self.slope))
        return _Prefix(start_cycle=start, dispatch_start=dispatch_start,
                       dispatch_done=dispatch_done, release_cycle=release)


def fit_prefix_model(min_m: int, m_lo: int, prefix_lo: _Prefix,
                     m_hi: int,
                     prefix_hi: _Prefix) -> typing.Optional[MPrefixModel]:
    """Fit the affine M-model through two anchor prefixes.

    ``None`` when the anchors coincide or any field's slope is not an
    exact integer — a fractional slope cannot reproduce integer cycle
    counts, so the affinity claim is already refuted by the anchors
    themselves.  A successful fit is *necessary, not sufficient*:
    callers must still verify the model residual-exactly against a
    held-out third M before trusting it.
    """
    if m_lo >= m_hi:
        return None
    span = m_hi - m_lo
    lo = prefix_lo.fields()
    hi = prefix_hi.fields()
    slopes = []
    for value_lo, value_hi in zip(lo, hi):
        diff = value_hi - value_lo
        if diff % span:
            return None
        slopes.append(diff // span)
    return MPrefixModel(min_m=min_m, m_lo=m_lo, m_hi=m_hi,
                        base=lo, slope=tuple(slopes))


def affine_domain(spec: VariantSpec) -> typing.Optional[int]:
    """The M floor from which ``spec``'s prefix is declared affine.

    ``None`` unless *both* sides declare: the dispatch strategy an
    affine doorbell schedule (with its domain floor) and the completion
    strategy an M-independent arming fragment.  The declarations ride
    on the exact strategy types :func:`resolve_spec` already enforces,
    so a subclass overriding timing never reaches this layer.
    """
    floor = type(spec.dispatch).affine_dispatch_min_m
    if floor is None or not type(spec.completion).prefix_affine_in_m:
        return None
    return floor


# ----------------------------------------------------------------------
# Calibration-store payloads
# ----------------------------------------------------------------------
_PREFIX_KEYS = ("start_cycle", "dispatch_start", "dispatch_done",
                "release_cycle")


def encode_prefix(prefix: _Prefix) -> typing.Dict[str, int]:
    """JSON payload of one validated per-M dispatch prefix."""
    return dict(zip(_PREFIX_KEYS, prefix.fields()))


def decode_prefix(payload: typing.Optional[typing.Mapping[str, typing.Any]]
                  ) -> typing.Optional[_Prefix]:
    """Rebuild a stored prefix; ``None`` on any shape/type mismatch."""
    if payload is None:
        return None
    values = [payload.get(key) for key in _PREFIX_KEYS]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        return None
    return _Prefix(*values)


def encode_mmodel(model: MPrefixModel) -> typing.Dict[str, typing.Any]:
    """JSON payload of one holdout-validated affine M-model."""
    return {"min_m": model.min_m, "m_lo": model.m_lo, "m_hi": model.m_hi,
            "base": list(model.base), "slope": list(model.slope)}


def decode_mmodel(payload: typing.Optional[
        typing.Mapping[str, typing.Any]]) -> typing.Optional[MPrefixModel]:
    """Rebuild a stored M-model; ``None`` on any shape/type mismatch."""
    if payload is None:
        return None

    def ints(value: typing.Any, count: int) -> typing.Optional[
            typing.Tuple[int, ...]]:
        if (not isinstance(value, (list, tuple)) or len(value) != count
                or any(not isinstance(v, int) or isinstance(v, bool)
                       for v in value)):
            return None
        return tuple(value)

    scalars = ints([payload.get("min_m"), payload.get("m_lo"),
                    payload.get("m_hi")], 3)
    base = ints(payload.get("base"), 4)
    slope = ints(payload.get("slope"), 4)
    if scalars is None or base is None or slope is None:
        return None
    if scalars[1] >= scalars[2]:
        return None
    return MPrefixModel(min_m=scalars[0], m_lo=scalars[1],
                        m_hi=scalars[2], base=base, slope=slope)


def resolve_spec(config: SoCConfig,
                 variant: str) -> typing.Optional[VariantSpec]:
    """The variant spec the planner can prove, or ``None``.

    ``None`` means the whole sweep stays on the event engine: unknown
    variant names and software/hardware mismatches must surface the
    event path's own :class:`~repro.errors.OffloadError`, and strategy
    types outside the four paper protocols have timing the closed form
    has not modelled.
    """
    try:
        if variant == "auto":
            spec = variant_for_features(config.multicast, config.hw_sync)
        else:
            spec = get_variant(variant)
    except OffloadError:
        return None
    if spec.use_multicast and not config.multicast:
        return None
    if spec.use_hw_sync and not config.hw_sync:
        return None
    if type(spec.dispatch) not in _PROVABLE_DISPATCH:
        return None
    if type(spec.completion) not in _PROVABLE_COMPLETION:
        return None
    return spec


def extract_prefix(config: SoCConfig, trace: "OffloadTrace", m: int,
                   first: int = 0) -> typing.Optional[_Prefix]:
    """Pull the N-independent prefix out of a calibration trace.

    ``None`` if the trace does not show the contiguous
    ``first..first+M-1`` cluster range the algebra assumes (partial
    doorbell delivery, a launch outside the expected tile group).
    """
    if [c.cluster_id for c in trace.clusters] != list(range(first,
                                                           first + m)):
        return None
    release = (max(c.decoded for c in trace.clusters)
               + config.fabric_barrier_arrival_latency
               + config.fabric_barrier_release_latency)
    return _Prefix(start_cycle=trace.start_cycle,
                   dispatch_start=trace.dispatch_start,
                   dispatch_done=trace.dispatch_done,
                   release_cycle=release)


#: Rows per array pass: bounds the rows × clusters temporaries (about
#: 1 MB each at 32 clusters) on grids of any size.
_CHUNK_ROWS = 4096

#: Issue cycle of the clusters a chain skips: sorts after every real one.
_NEVER = 1 << 62


@dataclasses.dataclass(frozen=True)
class _Rows:
    """Closed-form tails of a batch of grid points, one (N, M) per row.

    Every cycle counts from the row's start-barrier release, so one
    evaluation serves any prefix (:meth:`finish` adds it).
    ``threshold`` is the cycle the completion threshold is crossed: the
    AMO unit's last increment, or the sync unit's IRQ raise.
    ``last_signal`` is the last completion store.  ``markers``, when
    asked for, holds the per-cluster DMA-in, compute, DMA-out and
    completion cycles as ``(4, rows, clusters)``, ``-1`` where a cluster
    has no such marker (empty slice, or past the row's M).
    """

    config: SoCConfig
    spec: VariantSpec
    kernel_name: str
    n: numpy.ndarray
    m: numpy.ndarray
    provable: numpy.ndarray
    threshold: numpy.ndarray
    last_signal: numpy.ndarray
    markers: typing.Optional[numpy.ndarray] = None

    def finish(self, rows: numpy.ndarray, prefix: numpy.ndarray
               ) -> typing.Tuple[numpy.ndarray, str,
                                 typing.Dict[str, numpy.ndarray]]:
        """``(refused, reason, phases)`` of ``rows`` under ``prefix``.

        ``prefix`` holds one :meth:`_Prefix.fields` column per row.
        ``refused`` marks rows whose completion schedule is ambiguous
        against the host's observation (same-cycle races the event
        engine orders through queue internals); ``reason`` names the race.
        """
        config = self.config
        start, dispatch_start, dispatch_done, release = prefix
        crossing = release + self.threshold[rows]
        if isinstance(self.spec.completion, AmoPollCompletion):
            # The host's poll schedule is the analytic fast-forward
            # form.  A threshold crossed before (or on the very cycle)
            # the first poll read observes the flag takes the
            # first-iteration path, which the algebra does not model.
            occ, req = config.noc_load_occupancy, config.noc_request_latency
            resp = config.noc_response_latency
            read0 = dispatch_done + occ + req
            period = occ + req + resp + config.host_poll_gap_cycles
            refused = crossing <= read0
            end = read0 + ((crossing - read0) // period + 1) * period + resp
            reason = "amo_first_poll"
        else:
            # WFI pays the wake latency from whichever of (raise, entry)
            # comes last; a same-cycle IRQ-vs-WFI entry is ordered by
            # queue internals, not by the algebra's inputs.
            refused = crossing == dispatch_done
            end = (numpy.maximum(crossing, dispatch_done)
                   + config.host_wfi_wake_latency)
            reason = "irq_dispatch_done"
        phases = {
            "setup": dispatch_start - start,
            "dispatch": dispatch_done - dispatch_start,
            "completion_wait": end - dispatch_done,
            "sync_overhead": end - release - self.last_signal[rows],
            "total": end - start,
        }
        return refused, reason, phases


def _serialize(issue: numpy.ndarray, work: numpy.ndarray) -> numpy.ndarray:
    """Finish cycles of one server per row, in ``(issue, column)`` order.

    A job starts at ``max(issue, previous finish)`` and holds the server
    ``work`` cycles.  In service order that recurrence is a max-plus
    scan: with ``S`` the running sum of ``work``, ``finish = S +
    maximum.accumulate(issue - (S - work))``.
    """
    order = numpy.argsort(issue, axis=1, kind="stable")
    issue = numpy.take_along_axis(issue, order, axis=1)
    work = numpy.take_along_axis(work, order, axis=1)
    total = numpy.cumsum(work, axis=1)
    done = total + numpy.maximum.accumulate(issue - (total - work), axis=1)
    finish = numpy.empty_like(done)
    numpy.put_along_axis(finish, order, done, axis=1)
    return finish


def predict_rows(config: SoCConfig, kernel: Kernel, spec: VariantSpec,
                 n: typing.Sequence[int], m: typing.Sequence[int],
                 scalars: typing.Mapping[str, float],
                 tile: typing.Optional["ResolvedTile"] = None,
                 markers: bool = False) -> _Rows:
    """Prove and time a batch of grid points as rows × clusters arrays.

    Row ``r`` splits ``n[r]`` into ``m[r]`` slices with ``divmod`` and
    lays its clusters out along the columns; slice bytes are computed
    once and serve both the proof and the DMA algebra.  A row is
    unprovable when its event-engine run would raise (invalid shape,
    TCDM or main-memory overflow, a tile class without a rate for this
    kernel — the event path must own the error) or when a working
    slice moves zero bytes either way (zero-byte transfers skip the
    channel reservation entirely, changing the arbitration order the
    closed form assumes).

    ``tile`` supplies the per-tile-class knobs (core count, TCDM, DMA
    setup, wake/barrier latencies, kernel compute rates); ``None``
    reads the homogeneous config knobs, the pre-fabric behaviour.
    Either way the residual check (:func:`matches_trace`) guards the
    algebra against the event engine, so a knob this form mis-models
    falls the group back instead of diverging.
    """
    knobs: typing.Any = config if tile is None else tile
    cores = config.cores_per_cluster if tile is None else tile.cores_per_tile
    tcdm_bytes, dma_setup = knobs.tcdm_bytes, knobs.dma_setup_cycles
    wake, barrier = knobs.worker_wake_latency, knobs.barrier_latency
    timing = None
    n, m = (numpy.asarray(v, dtype=numpy.int64) for v in (n, m))
    valid: typing.List[int] = []
    for value in set(n.tolist()):
        try:
            kernel.validate(value, scalars)
            # A tile class without a rate for this kernel refuses all.
            timing = tile.timing_for(kernel.name) if tile is not None else None
        except (KernelError, ConfigError):
            continue
        valid.append(value)
    todo = numpy.flatnonzero(numpy.isin(n, valid) & (n > 0))
    provable = numpy.zeros(n.size, dtype=bool)
    threshold, last_signal = numpy.zeros((2, n.size), dtype=numpy.int64)
    found = (numpy.full((4, n.size, int(m.max(initial=1))), -1,
                        dtype=numpy.int64) if markers else None)
    amo = isinstance(spec.completion, AmoPollCompletion)
    port_occ = config.noc_cluster_port_occupancy
    staged_outputs = [name for name in kernel.output_names
                      if kernel.output_alias(name) is None]
    for first_row in range(0, todo.size, _CHUNK_ROWS):
        rows = todo[first_row:first_row + _CHUNK_ROWS]
        size, width = n[rows, None], m[rows, None]
        col = numpy.arange(int(width.max()))
        base, extra = numpy.divmod(size, width)
        active = col < width
        elems = numpy.where(active, base + (col < extra), 0)
        lo = numpy.where(active, col * base + numpy.minimum(col, extra),
                         size)
        hi = lo + elems
        work = elems > 0
        # Shape methods are array-safe by the Kernel contract.
        b_in = numpy.where(work, kernel.slice_bytes_in(lo, hi, size), 0)
        b_out = numpy.where(work, kernel.slice_bytes_out(lo, hi, size), 0)
        staged = sum(8 * kernel.input_length(name, size)
                     for name in kernel.input_names)
        staged = staged + sum(8 * kernel.output_length(name, size, width)
                              for name in staged_outputs)
        largest = kernel.slice_tcdm_bytes(lo[:, :1], hi[:, :1], size)
        provable[rows] = (
            (largest <= tcdm_bytes)
            & (staged + _MEMORY_SLACK_BYTES <= config.main_memory_bytes)
            & work.any(axis=1, keepdims=True)
            & ~(work & ((b_in <= 0) | (b_out <= 0))).any(
                axis=1, keepdims=True)).ravel()

        # Input DMA: every working cluster issues at release + setup and
        # the shared read channel serves them in cluster-id order.
        din = dma_setup + numpy.cumsum(
            -(-b_in // config.mem_read_width_bytes), axis=1)
        # Compute: the barrier's closed-form crossing.  Per-core counts
        # are q+1 (the first e mod cores workers) and q.
        q, rem = numpy.divmod(elems, cores)
        if timing is None:
            cyc_lo = kernel.compute_cycles_array(q, size)
            cyc_hi = kernel.compute_cycles_array(q + 1, size)
        else:
            cyc_lo, cyc_hi = timing.cycles_array(q), timing.cycles_array(q + 1)
        done = din + wake + barrier + numpy.where(
            rem > 0, numpy.maximum(cyc_hi, cyc_lo), cyc_lo)
        # Output DMA: reservations commit in (compute_done, cluster_id)
        # order and chain on the otherwise-idle write channel.
        dout = _serialize(numpy.where(work, done + dma_setup, _NEVER),
                          -(-b_out // config.mem_write_width_bytes))
        # Completion stores commit at release for empty slices, after
        # the write-back for working ones.
        signal = numpy.where(work, dout, 0) + port_occ
        if amo:
            # The memory's AMO unit services increments in commit order.
            arrival = numpy.where(active, signal + config.noc_request_latency,
                                  _NEVER)
            finish = _serialize(arrival, numpy.full_like(
                arrival, config.noc_amo_service_cycles))
            completion = finish + config.noc_response_latency
            threshold[rows] = numpy.where(active, finish, -1).max(axis=1)
            last_signal[rows] = (threshold[rows]
                                 + config.noc_response_latency)
        else:
            # Sync unit: posted increments; the threshold matches on the
            # last delivery and the IRQ raises after the wire latency.
            completion = signal
            last_signal[rows] = numpy.where(active, signal, -1).max(axis=1)
            threshold[rows] = (last_signal[rows] + config.noc_request_latency
                               + config.syncunit_irq_latency)
        if found is not None:
            found[:, rows, :col.size] = numpy.where(
                numpy.stack([work, work, work, active]),
                numpy.stack([din, done, dout, completion]), -1)
    return _Rows(config=config, spec=spec, kernel_name=kernel.name, n=n,
                 m=m, provable=provable, threshold=threshold,
                 last_signal=last_signal, markers=found)


def matches_trace(rows: _Rows, row: int, prefix: _Prefix,
                  trace: "OffloadTrace", measured: SweepPoint,
                  first: int = 0) -> bool:
    """Whether ``rows[row]`` under ``prefix`` reproduces a measured point.

    This is the per-group residual check: evaluated at the calibration
    N, marker for marker (the point with every phase, the end cycle and
    each cluster's DMA-in, compute, DMA-out and completion cycles).
    Any drift between the algebra and the event engine — a protocol
    change, a timing constant moved, an arbitration order the proof
    missed — fails here and falls the group back, so batched numbers
    can never silently diverge.  ``rows`` needs ``markers``; they are
    group-local (column 0 = cluster ``first``).
    """
    refused, _reason, phases = rows.finish(
        numpy.array([row]), numpy.array(prefix.fields())[:, None])
    summary = {name: int(values[0]) for name, values in phases.items()}
    point = SweepPoint(kernel_name=rows.kernel_name, n=int(rows.n[row]),
                       num_clusters=int(rows.m[row]),
                       variant=rows.spec.name,
                       runtime_cycles=summary["total"], phases=summary)
    if (not rows.provable[row] or refused[0] or point != measured
            or summary["total"] + prefix.start_cycle != trace.end_cycle):
        return False
    predicted = typing.cast(numpy.ndarray, rows.markers)[:, row, :]
    observed = numpy.full_like(predicted, -1)
    for cluster in trace.clusters:
        cid = cluster.cluster_id - first
        if not 0 <= cid < point.num_clusters:
            return False
        observed[:, cid] = [
            -1 if cycle is None else cycle - prefix.release_cycle
            for cycle in (cluster.dma_in_done, cluster.compute_done,
                          cluster.dma_out_done,
                          cluster.completion_signalled)]
    return bool(numpy.array_equal(predicted, observed))


#: Why the planner handed points back to the event engine (run stats
#: ``batch_fallback_<reason>``): unprovable strategy types or shape, a
#: mixed-tile span, a lone point with no trusted prefix, a residual
#: mismatch, an AMO threshold crossed at or before the first poll read,
#: an IRQ raised on the dispatch-done cycle.
FALLBACK_REASONS = ("structural", "mixed_tile", "lone_point", "residual",
                    "amo_first_poll", "irq_dispatch_done")


@dataclasses.dataclass
class _Job:
    """One :meth:`BatchPlanner.consume` call; ``queue`` holds the
    ``(rows, prefix)`` groups awaiting the array pass that times them."""

    config: SoCConfig
    kernel: Kernel
    spec: VariantSpec
    variant: str
    scalars: typing.Optional[typing.Mapping[str, float]]
    resolved: typing.Mapping[str, float]
    seed: int
    verify: bool
    tile_group: typing.Optional[str]
    first: int
    tile: typing.Optional["ResolvedTile"]
    coords: typing.Tuple
    slots: typing.List[typing.Optional[SweepPoint]]
    entries: typing.List[typing.Tuple[int, int, int]]
    rows: _Rows
    remaining: typing.List[typing.Tuple[int, int, int]]
    queue: typing.List[typing.Tuple[typing.List[int], _Prefix]] = \
        dataclasses.field(default_factory=list)


class BatchPlanner:
    """Times groups of sweep points from single calibration simulations.

    Built per :meth:`~repro.core.executor.SweepExecutor.run` call;
    :meth:`consume` takes the executor's pending list and fills every
    slot it can prove, returning what must still go through the event
    engine.  Counters:

    - ``planned_points`` — slots filled by closed-form prediction;
    - ``calibration_points`` — event-engine simulations the planner ran
      itself (their slots are filled with the *measured* result);
    - ``fallbacks`` — pending points handed back to the event engine,
      by :data:`FALLBACK_REASONS`; ``fallback_points`` is their sum;
    - ``prefixes_calibrated`` / ``prefixes_predicted`` — M groups whose
      prefix came from a calibration simulation vs. from the affine
      M-model or the calibration store (no simulation at all);
    - ``mmodels_fitted`` — affine M-models fitted *and* holdout-
      validated this run;
    - ``holdout_fallbacks`` — M-model fit attempts abandoned (anchor
      residual failure, non-integer slope, or holdout mismatch), each
      falling the affected groups back to per-group calibration;
    - ``store_hits`` / ``store_misses`` — calibration-store lookups
      (per-M prefixes and M-models) against the executor's
      :class:`~repro.core.cache.SweepCache`.
    """

    def __init__(self, pool: "SystemPool", reuse: bool = True,
                 cache: typing.Optional["SweepCache"] = None) -> None:
        self.pool = pool
        self.reuse = reuse
        self.cache = cache
        self.planned_points = 0
        self.calibration_points = 0
        self.fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)
        self.prefixes_calibrated = 0
        self.prefixes_predicted = 0
        self.mmodels_fitted = 0
        self.holdout_fallbacks = 0
        self.store_hits = 0
        self.store_misses = 0

    @property
    def fallback_points(self) -> int:
        """Points handed back to the event engine, for any reason."""
        return sum(self.fallbacks.values())

    def consume(self, config: SoCConfig, kernel_name: str, variant: str,
                scalars: typing.Optional[typing.Mapping[str, float]],
                seed: int, verify: bool,
                pending: typing.Sequence[typing.Tuple[int, int, int]],
                slots: typing.List[typing.Optional[SweepPoint]],
                tile_group: typing.Optional[str] = None,
                ) -> typing.List[typing.Tuple[int, int, int]]:
        """Fill predictable ``slots`` entries; return the leftovers.

        ``pending`` holds ``(slot_index, n, m)`` triples exactly as the
        executor builds them; the returned list preserves their relative
        order so the event engine visits leftovers in grid order.

        One :func:`predict_rows` pass proves every point and evaluates
        its tail.  Per M group the prefix comes from the cheapest
        trustworthy source: a stored per-M prefix, a stored or freshly
        fitted-and-holdout-checked affine M-model (neither simulates),
        or a calibration simulation (which also residual-checks the
        algebra and feeds the store; ``REPRO_NAIVE_MPREDICT`` pins every
        group to it).  One last array pass times every group at once.

        ``tile_group`` names the fabric group the sweep targets; the
        planner then proves and predicts with that group's tile class
        (its TCDM, core count and kernel rates) and calibrates through
        ``offload(tile_group=...)``.  Without a group, each offload
        width M spans clusters ``0..M-1``: a span of one uniform tile
        class is proved against that class, a mixed span falls back to
        the event engine point by point.
        """
        from repro.core.staging import resolve_scalars

        spec = resolve_spec(config, variant)
        if spec is None:
            self.fallbacks["structural"] += len(pending)
            return list(pending)
        kernel = get_kernel(kernel_name)
        resolved = resolve_scalars(kernel, scalars)
        mpredict = not flags.naive_mpredict()
        group = (config.tile_group(tile_group)
                 if tile_group is not None else None)

        # Every uniform span starts at the same cluster, so all of them
        # share one tile class.  Mixed classes across clusters 0..M-1
        # differ mid-span, which the uniform tail algebra does not model.
        span_tiles: typing.Dict[int, typing.Optional["ResolvedTile"]] = {}
        entries: typing.List[typing.Tuple[int, int, int]] = []
        remaining: typing.List[typing.Tuple[int, int, int]] = []
        for entry in pending:
            m = entry[2]
            if m not in span_tiles:
                span_tiles[m] = (group.tile if group is not None
                                 else config.span_tile(0, m))
            if span_tiles[m] is None:
                self.fallbacks["mixed_tile"] += 1
                remaining.append(entry)
            else:
                entries.append(entry)
        tile = next((t for t in span_tiles.values() if t is not None), None)
        rows = predict_rows(config, kernel, spec,
                            [entry[1] for entry in entries],
                            [entry[2] for entry in entries], resolved, tile)
        provable_by_m: typing.Dict[int, typing.List[int]] = {}
        for row, ok in enumerate(rows.provable.tolist()):
            if ok:
                provable_by_m.setdefault(entries[row][2], []).append(row)
            else:
                self.fallbacks["structural"] += 1
                remaining.append(entries[row])

        # The store speaks the *resolved* variant and scalars, so
        # "auto" and the explicit name (or default and explicit
        # scalars) share calibration entries.  The group name joins the
        # coordinates because one config digest covers every group of a
        # heterogeneous fabric.
        job = _Job(config=config, kernel=kernel, spec=spec, variant=variant,
                   scalars=scalars, resolved=resolved, seed=seed,
                   verify=verify, tile_group=tile_group,
                   first=group.start if group is not None else 0,
                   tile=tile,
                   coords=(config, kernel.name, spec.name, resolved, seed,
                           tile_group or ""),
                   slots=slots, entries=entries, rows=rows,
                   remaining=remaining)
        prefixes: typing.Dict[int, _Prefix] = {}
        model: typing.Optional[MPrefixModel] = None
        handled: typing.Set[int] = set()
        if mpredict:
            for m in provable_by_m:
                stored = self._load(job.coords, "prefix", decode_prefix, m)
                if stored is not None:
                    prefixes[m] = stored
            model = self._load(job.coords, "mmodel", decode_mmodel)
            if model is None:
                model = self._fit_model(job, provable_by_m, prefixes,
                                        handled)

        for m, members in provable_by_m.items():
            if m in handled:
                continue
            prefix = prefixes.get(m)
            if prefix is None and model is not None:
                prefix = model.predict(m)
            if mpredict and prefix is not None:
                self.prefixes_predicted += 1
                job.queue.append((members, prefix))
                continue
            if len(members) < 2:
                # A lone provable point gains nothing from calibrating
                # itself (and no trusted prefix reached us).
                self.fallbacks["lone_point"] += len(members)
                remaining.extend(entries[row] for row in members)
                continue
            validated = self._plan_group(job, m, members)
            self.prefixes_calibrated += 1
            if mpredict and validated is not None:
                self._store(job.coords, "prefix", encode_prefix(validated), m)

        self._predict(job)
        order = {id(entry): rank for rank, entry in enumerate(pending)}
        remaining.sort(key=lambda entry: order[id(entry)])
        return remaining

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _calibrate(self, job: _Job, n: int, m: int):
        """One event-engine simulation, keeping the full trace."""
        from repro.core.offload import offload
        from repro.soc.manticore import ManticoreSystem

        if self.reuse:
            with self.pool.lease(job.config) as system:
                result = offload(system, job.kernel.name, n, m,
                                 scalars=job.scalars, variant=job.variant,
                                 seed=job.seed, verify=job.verify,
                                 tile_group=job.tile_group)
        else:
            system = ManticoreSystem(job.config)
            result = offload(system, job.kernel.name, n, m,
                             scalars=job.scalars, variant=job.variant,
                             seed=job.seed, verify=job.verify,
                             tile_group=job.tile_group)
        self.calibration_points += 1
        return result

    def _plan_group(self, job: _Job, m: int,
                    members: typing.List[int]) -> typing.Optional[_Prefix]:
        """Calibrate one member, queue the rest for prediction.

        Returns the calibration's extracted prefix *only* when the
        residual check passed — i.e. exactly when it is safe to reuse
        as an M-model anchor or a calibration-store entry; otherwise
        the rest of the group falls back.
        """
        calibration = min(members, key=lambda row: job.entries[row][0])
        cal_index, cal_n, _m = job.entries[calibration]
        result = self._calibrate(job, cal_n, m)
        measured = SweepPoint(
            kernel_name=job.kernel.name, n=cal_n, num_clusters=m,
            variant=result.variant, runtime_cycles=result.runtime_cycles,
            phases=result.trace.phase_summary())
        job.slots[cal_index] = measured
        rest = [row for row in members if row != calibration]

        prefix = (extract_prefix(job.config, result.trace, m, job.first)
                  if result.variant == job.spec.name else None)
        # The residual check: the same algebra at the calibration N,
        # with per-cluster markers.
        if prefix is None or not matches_trace(
                predict_rows(job.config, job.kernel, job.spec, [cal_n], [m],
                             job.resolved, job.tile, markers=True),
                0, prefix, result.trace, measured, job.first):
            self.fallbacks["residual"] += len(rest)
            job.remaining.extend(job.entries[row] for row in rest)
            return None
        job.queue.append((rest, prefix))
        return prefix

    def _predict(self, job: _Job) -> None:
        """Time every queued group in one array pass.

        Prefixes arrived from the calibration store, the affine M-model
        or a residual-checked calibration; rows whose completion
        schedule is ambiguous still fall back one by one.
        """
        if not job.queue:
            return
        rows = numpy.concatenate([numpy.asarray(members, dtype=numpy.int64)
                                  for members, _prefix in job.queue])
        prefix = numpy.repeat(
            numpy.array([p.fields() for _members, p in job.queue],
                        dtype=numpy.int64).T,
            [len(members) for members, _prefix in job.queue], axis=1)
        refused, reason, phases = job.rows.finish(rows, prefix)
        names = tuple(phases)
        columns = zip(*(values.tolist() for values in phases.values()))
        for row, skip, values in zip(rows.tolist(), refused.tolist(),
                                     columns):
            entry = job.entries[row]
            if skip:
                self.fallbacks[reason] += 1
                job.remaining.append(entry)
                continue
            summary = dict(zip(names, values))
            job.slots[entry[0]] = SweepPoint(
                kernel_name=job.kernel.name, n=entry[1],
                num_clusters=entry[2], variant=job.spec.name,
                runtime_cycles=summary["total"], phases=summary)
            self.planned_points += 1

    def _fit_model(self, job: _Job,
                   provable_by_m: typing.Dict[int, typing.List[int]],
                   prefixes: typing.Dict[int, _Prefix],
                   handled: typing.Set[int]
                   ) -> typing.Optional[MPrefixModel]:
        """Fit and holdout-validate the affine M-model for this sweep.

        Anchors are the smallest and largest in-domain M values of the
        sweep (so every other M interpolates), the holdout the median in
        between; each takes a residual-checked calibration unless the
        store holds its prefix.  Any failure — out-of-domain strategies,
        fewer than four in-domain M groups (three calibrations would not
        beat calibrating each), anchor residual failure, non-integer
        slope, holdout mismatch — returns ``None`` and the sweep stays
        on per-group calibration.
        """
        floor = affine_domain(job.spec)
        if floor is None:
            return None
        eligible = sorted(m for m in provable_by_m if m >= floor)
        if len(eligible) < 4:
            return None
        m_lo, m_hi = eligible[0], eligible[-1]
        m_mid = eligible[len(eligible) // 2]
        anchors: typing.Dict[int, _Prefix] = {}
        for m in (m_lo, m_mid, m_hi):
            known = prefixes.get(m)
            if known is not None:
                # A stored prefix is residual-checked evidence already;
                # anchoring on it keeps the fit simulation-free.
                anchors[m] = known
                continue
            validated = self._plan_group(job, m, provable_by_m[m])
            handled.add(m)
            self.prefixes_calibrated += 1
            if validated is None:
                self.holdout_fallbacks += 1
                return None
            anchors[m] = validated
            prefixes[m] = validated
            self._store(job.coords, "prefix", encode_prefix(validated), m)
        model = fit_prefix_model(floor, m_lo, anchors[m_lo], m_hi,
                                 anchors[m_hi])
        if model is None or model.predict(m_mid) != anchors[m_mid]:
            self.holdout_fallbacks += 1
            return None
        self.mmodels_fitted += 1
        self._store(job.coords, "mmodel", encode_mmodel(model))
        return model

    # ------------------------------------------------------------------
    # Calibration store plumbing
    # ------------------------------------------------------------------
    def _load(self, coords: typing.Tuple, kind: str,
              decode: typing.Callable[[typing.Any], typing.Any],
              m: typing.Optional[int] = None) -> typing.Any:
        """A ``kind`` record ("prefix" or "mmodel") from the store."""
        if self.cache is None:
            return None
        record = decode(self.cache.get_record(self._key(coords, kind, m),
                                              kind))
        if record is None:
            self.store_misses += 1
        else:
            self.store_hits += 1
        return record

    def _store(self, coords: typing.Tuple, kind: str,
               payload: typing.Dict[str, typing.Any],
               m: typing.Optional[int] = None) -> None:
        if self.cache is not None:
            self.cache.put_record(self._key(coords, kind, m), kind, payload)

    @staticmethod
    def _key(coords: typing.Tuple, kind: str,
             m: typing.Optional[int]) -> str:
        config, kernel_name, variant_name, resolved, seed, group = coords
        return calibration_key(kind, config, kernel_name, variant_name,
                               resolved, seed, m=m, tile_group=group)
