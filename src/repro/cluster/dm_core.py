"""The DM-core device runtime: serving offloaded jobs.

This is the device-side half of the offload protocol.  Each cluster's
data-mover core runs :func:`serve_jobs` forever:

1. sleep clock-gated until the host rings the mailbox with a job
   pointer;
2. fetch the job descriptor from shared memory (one or two burst
   reads), decode it, and compute this cluster's work slice;
3. stage the slice's working set into the TCDM via the DMA engine
   (contending with every other cluster on the shared read channel);
4. release the worker cores; every core processes its sub-slice and
   meets the DM core at the hardware barrier;
5. write results back via the shared write channel;
6. signal completion — an atomic fetch-and-add on the descriptor's flag
   (baseline) or a posted write to the credit-counter sync unit
   (extended), per the descriptor's ``sync_mode``.

Functional state changes (reading operands, writing results) happen at
the simulated instants the corresponding transfers complete, so memory
always holds an architecturally-consistent snapshot.
"""

from __future__ import annotations

import typing

from repro import abi, flags
from repro.errors import OffloadError, ProtocolError
from repro.kernels.base import WorkSlice, split_range

if typing.TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.sim import Event

#: Words fetched by the first descriptor burst (one 64-byte line).
FIRST_BURST_WORDS = 8


def serve_jobs(cluster: "Cluster") -> typing.Generator:
    """The DM core's main loop (a simulation process body).

    The loop body below *inlines* the default fast path of every phase
    — doorbell, descriptor fetch, fabric barrier, DMA staging, compute
    phase, completion — into this single generator frame, parking on
    the same events the reference helpers park on.  A generator resume
    re-activates every frame in its ``yield from`` chain, so with ~4-8
    parks per job the two-to-four-deep helper chain is the dominant
    per-job interpreter cost; the flat frame pays for one activation
    per park.  Cycle- and order-identity with the reference is by
    construction: both paths issue the identical primitive calls (the
    non-generator forms ``job_event`` / ``book_arrival`` /
    ``reserve_in`` / ``compute_phase_fast``) in the identical order.

    The DM core's own control traffic is the exception: it is
    committed in closed form rather than replayed call for call.  The
    two descriptor bursts (``cluster_fetch_block``) and the decode are
    one park, and the sync-unit completion store
    (``cluster_write_posted``) is one delivery entry instead of an
    event chain; ``docs/architecture.md`` §11 argues why nothing can
    observe the skipped cycles.

    The ``REPRO_NAIVE_CHANNEL`` / ``REPRO_NAIVE_BARRIER`` gates and the
    double-buffered exec mode delegate to the reference helpers
    (:func:`_run_job` and friends), which remain the readable
    specification of the protocol.
    """
    mailbox = cluster.mailbox
    noc = cluster.noc
    dma = cluster.dma
    memory = cluster.memory
    record = cluster.trace.record
    cluster_id = cluster.cluster_id
    label = f"cluster{cluster_id}"
    wake_latency = cluster.wake_latency
    decode_cycles = cluster.dm_decode_cycles
    fabric = cluster.fabric_barrier
    sim = cluster.sim
    decoded_name = f"{label}.decoded"
    while True:
        pointer = yield mailbox.job_event()
        if flags.naive_channel() or flags.naive_barrier():
            # Reference path: simulate every phase's event loop.
            yield from _run_job(cluster, pointer)
            cluster.jobs_completed += 1
            continue

        record(label, "doorbell", pointer)
        if wake_latency:
            yield wake_latency
        record(label, "awake")

        # Fetch and decode the descriptor (see _fetch_descriptor) in
        # one park: both bursts are committed in closed form, and the
        # words are safe to read now because the host stores every
        # descriptor before ringing any doorbell.
        fetched = noc.cluster_fetch_block(
            cluster_id, pointer, FIRST_BURST_WORDS, _descriptor_total)
        if fetched is None:
            desc = yield from _fetch_descriptor(cluster, pointer)
            if decode_cycles:
                yield decode_cycles
        else:
            words, delay = fetched
            desc = abi.decode_descriptor(words)
            decoded = sim.event(name=decoded_name)
            sim.schedule(delay, _start_decode, (decoded, decode_cycles))
            yield decoded
            if flags.strict():
                _check_descriptor_unchanged(cluster, pointer, words, delay
                                            + decode_cycles)
        record(label, "decoded", desc.kernel_name)

        kernel = desc.kernel
        work = _work_slice(cluster, desc, label)

        if fabric is not None:
            yield fabric.book_arrival(desc.num_clusters,
                                      group=desc.first_cluster)
            record(label, "start_barrier_crossed")

        if not work.empty:
            if desc.exec_mode == abi.EXEC_MODE_DOUBLE_BUFFERED:
                yield from _execute_double_buffered(
                    cluster, desc, kernel, work)
            else:
                # The phased protocol (see _execute_phased).
                _check_footprint(cluster, kernel, work, desc.n, label)
                bytes_in = kernel.slice_bytes_in(work.lo, work.hi, desc.n)
                done = dma.reserve_in(bytes_in)
                if done is not None:
                    yield done
                else:
                    yield from dma.transfer_in(bytes_in)
                inputs = {
                    name: memory.read_f64(
                        desc.input_addrs[name],
                        kernel.input_length(name, desc.n))
                    for name in kernel.input_names
                }
                record(label, "dma_in_done", bytes_in)

                yield cluster.compute_phase_fast(kernel, work, desc.n)
                fragments = kernel.compute_slice(
                    desc.n, desc.scalars, inputs, work)
                record(label, "compute_done")

                bytes_out = kernel.slice_bytes_out(work.lo, work.hi, desc.n)
                done = dma.reserve_out(bytes_out)
                if done is not None:
                    yield done
                else:
                    yield from dma.transfer_out(bytes_out)
                for name, (start, values) in fragments.items():
                    memory.write_f64(
                        desc.output_addrs[name] + 8 * start, values)
                record(label, "dma_out_done", bytes_out)

        # Signal completion (see _signal_completion); the posted store
        # is committed in closed form, its delivery one scheduler entry.
        if desc.sync_mode == abi.SYNC_MODE_AMO:
            yield noc.cluster_amo_add(cluster_id, desc.completion_addr, 1)
        else:
            yield noc.cluster_write_posted(
                cluster_id, desc.completion_addr, 1)
        record(label, "completion_signalled")
        cluster.jobs_completed += 1


def _descriptor_total(first: typing.List[int]) -> typing.Optional[int]:
    """A descriptor's length in words from its first burst.

    ``None`` for an unknown kernel id: the closed-form fetch then
    declines, and the burst events raise at the cycle they always did.
    """
    try:
        return abi.descriptor_words(abi.kernel_from_id(first[0]))
    except OffloadError:
        return None


def _start_decode(payload: typing.Tuple["Event", int]) -> None:
    """Scheduler hop at a closed-form fetch's last response cycle.

    The reference DM core starts its decode timer on that cycle, so the
    timer entry is created here rather than when the fetch committed:
    a decode finishing on the same cycle as another cluster's then
    keeps its reference order even when the two descriptors (and so
    the two fetch delays) differ in length.
    """
    decoded, cycles = payload
    decoded.sim.schedule(cycles, _fire_decoded, decoded)


def _fire_decoded(decoded: "Event") -> None:
    """Scheduler callback: the decode is done; resume the DM core."""
    decoded.trigger(decoded.sim.now)


def _check_descriptor_unchanged(cluster: "Cluster", pointer: int,
                                words: typing.List[int],
                                parked: int) -> None:
    """Strict-mode audit of a closed-form descriptor fetch.

    The fetch read the words when it was committed, ``parked`` cycles
    ago; the bursts it replaced read them later.  Both agree only if
    nothing rewrote the descriptor in between, which the offload
    protocol guarantees and this check enforces.
    """
    now = cluster.sim.now
    # The fetch committed, so the words lie in one plain-memory region.
    region = cluster.noc.address_map.region_at(pointer)
    if region.target.read_words(pointer, len(words)) != words:
        raise ProtocolError(
            f"cluster{cluster.cluster_id}: the job descriptor at "
            f"{pointer:#x} changed between its fetch at cycle "
            f"{now - parked} and its decode at cycle {now}; descriptors "
            "must not be rewritten while a job is in flight")


def _work_slice(cluster: "Cluster", desc: abi.JobDescriptor,
                label: str) -> WorkSlice:
    """This cluster's slice of the job, validating the dispatch range."""
    slices = split_range(desc.n, desc.num_clusters)
    rank = cluster.cluster_id - desc.first_cluster
    if not 0 <= rank < desc.num_clusters:
        raise OffloadError(
            f"{label} received a job for clusters "
            f"[{desc.first_cluster}, "
            f"{desc.first_cluster + desc.num_clusters}); the host "
            "dispatched outside the job's range"
        )
    return slices[rank]


def _check_footprint(cluster: "Cluster", kernel, work, n: int,
                     label: str) -> None:
    """Reject slices whose working set cannot fit the TCDM."""
    footprint = kernel.slice_tcdm_bytes(work.lo, work.hi, n)
    if footprint > cluster.tcdm.size_bytes:
        raise OffloadError(
            f"{label}: slice working set of {footprint} bytes exceeds "
            f"the {cluster.tcdm.size_bytes}-byte TCDM; offload to more "
            "clusters or tile the job"
        )


def _run_job(cluster: "Cluster", pointer: int) -> typing.Generator:
    label = f"cluster{cluster.cluster_id}"
    cluster.trace.record(label, "doorbell", pointer)

    # Clock-ungate latency before the DM core executes its first
    # instruction after the doorbell.
    if cluster.wake_latency:
        yield cluster.wake_latency
    cluster.trace.record(label, "awake")

    desc = yield from _fetch_descriptor(cluster, pointer)
    if cluster.dm_decode_cycles:
        yield cluster.dm_decode_cycles
    cluster.trace.record(label, "decoded", desc.kernel_name)

    kernel = desc.kernel
    work = _work_slice(cluster, desc, label)

    # Synchronize the job start across all participating clusters: the
    # collective DMA/compute phases must not begin before every member
    # holds its arguments (see repro.soc.fabricbarrier).  This is why
    # the baseline's sequential dispatch cost adds to the runtime
    # instead of hiding behind the first clusters' DMA.  The group ID
    # (the job's first cluster) keeps concurrent space-shared jobs on
    # independent barrier counters.
    if cluster.fabric_barrier is not None:
        yield from cluster.fabric_barrier.arrive(
            desc.num_clusters, group=desc.first_cluster)
        cluster.trace.record(label, "start_barrier_crossed")

    if not work.empty:
        if desc.exec_mode == abi.EXEC_MODE_DOUBLE_BUFFERED:
            yield from _execute_double_buffered(cluster, desc, kernel, work)
        else:
            yield from _execute_phased(cluster, desc, kernel, work)

    # --- Signal completion --------------------------------------------------
    yield from _signal_completion(cluster, desc)
    cluster.trace.record(label, "completion_signalled")


def _execute_phased(cluster: "Cluster", desc: abi.JobDescriptor, kernel,
                    work) -> typing.Generator:
    """The paper's protocol: stage the whole slice, compute, write back.

    The three phases are strictly sequential on the cluster, which is
    what makes the measured runtime obey Eq. 1's additive structure.
    """
    label = f"cluster{cluster.cluster_id}"
    _check_footprint(cluster, kernel, work, desc.n, label)

    # --- Stage operands in ------------------------------------------
    bytes_in = kernel.slice_bytes_in(work.lo, work.hi, desc.n)
    yield from cluster.dma.transfer_in(bytes_in)
    inputs = {
        name: cluster.memory.read_f64(
            desc.input_addrs[name], kernel.input_length(name, desc.n))
        for name in kernel.input_names
    }
    cluster.trace.record(label, "dma_in_done", bytes_in)

    # --- Compute ------------------------------------------------------
    yield from cluster.compute_phase(kernel, work, desc.n)
    fragments = kernel.compute_slice(desc.n, desc.scalars, inputs, work)
    cluster.trace.record(label, "compute_done")

    # --- Write results back --------------------------------------------
    bytes_out = kernel.slice_bytes_out(work.lo, work.hi, desc.n)
    yield from cluster.dma.transfer_out(bytes_out)
    for name, (start, values) in fragments.items():
        cluster.memory.write_f64(
            desc.output_addrs[name] + 8 * start, values)
    cluster.trace.record(label, "dma_out_done", bytes_out)


#: Double buffering targets this many chunks per slice (more when the
#: TCDM cannot hold two of them, fewer when the slice is tiny).
DBUF_TARGET_CHUNKS = 4
#: Slices below this many elements are not worth pipelining.
DBUF_MIN_ELEMENTS = 32


def _execute_double_buffered(cluster: "Cluster", desc: abi.JobDescriptor,
                             kernel, work) -> typing.Generator:
    """Chunked load/compute/write-back pipeline (the classic Snitch
    double-buffering idiom, an extension over the paper's protocol).

    The slice is split into chunks; while chunk *k* computes, chunk
    *k+1* streams in and chunk *k-1* streams out, so the memory time
    hides behind compute (or vice versa) instead of adding to it.  The
    cost is one loop setup per chunk and two staging buffers in the
    TCDM.  Only element-wise kernels qualify (reductions emit one
    output per *slice*, which chunking would corrupt); tiny slices fall
    back to the phased protocol.
    """
    sim = cluster.sim
    label = f"cluster{cluster.cluster_id}"
    for name in kernel.output_names:
        if kernel.output_length(name, desc.n, desc.num_clusters) != desc.n:
            raise OffloadError(
                f"{label}: double buffering requires an element-wise "
                f"kernel; {kernel.name!r} output {name!r} depends on the "
                "offload shape"
            )

    if work.elements < DBUF_MIN_ELEMENTS:
        yield from _execute_phased(cluster, desc, kernel, work)
        return

    footprint = kernel.slice_tcdm_bytes(work.lo, work.hi, desc.n)
    min_chunks = -(-2 * footprint // cluster.tcdm.size_bytes)
    num_chunks = min(work.elements, max(DBUF_TARGET_CHUNKS, min_chunks))
    chunks = [
        WorkSlice(index=chunk.index, lo=work.lo + chunk.lo,
                  hi=work.lo + chunk.hi)
        for chunk in split_range(work.elements, num_chunks)
    ]
    worst = max(kernel.slice_tcdm_bytes(c.lo, c.hi, desc.n) for c in chunks)
    if 2 * worst > cluster.tcdm.size_bytes:
        raise OffloadError(
            f"{label}: two {worst}-byte double-buffer chunks exceed the "
            f"{cluster.tcdm.size_bytes}-byte TCDM; offload to more clusters"
        )

    loaded = [sim.event(name=f"{label}.dbuf.loaded{k}")
              for k in range(num_chunks)]
    computed = [sim.event(name=f"{label}.dbuf.computed{k}")
                for k in range(num_chunks)]
    written = [sim.event(name=f"{label}.dbuf.written{k}")
               for k in range(num_chunks)]
    inputs_box: typing.Dict[str, typing.Any] = {}
    fragments_box: typing.List = [None] * num_chunks

    def loader() -> typing.Generator:
        for k, chunk in enumerate(chunks):
            if k >= 2:
                # Two staging buffers: reuse chunk k-2's once written out.
                yield written[k - 2]
            nbytes = kernel.slice_bytes_in(chunk.lo, chunk.hi, desc.n)
            yield from cluster.dma.transfer_in(nbytes)
            if not inputs_box:
                inputs_box.update({
                    name: cluster.memory.read_f64(
                        desc.input_addrs[name],
                        kernel.input_length(name, desc.n))
                    for name in kernel.input_names
                })
            loaded[k].trigger()
        cluster.trace.record(label, "dma_in_done",
                             kernel.slice_bytes_in(work.lo, work.hi, desc.n))

    def computer() -> typing.Generator:
        for k, chunk in enumerate(chunks):
            yield loaded[k]
            yield from cluster.compute_phase(kernel, chunk, desc.n,
                                             name_suffix=f".chunk{k}")
            fragments_box[k] = kernel.compute_slice(
                desc.n, desc.scalars, inputs_box, chunk)
            computed[k].trigger()
        cluster.trace.record(label, "compute_done")

    def writer() -> typing.Generator:
        for k, chunk in enumerate(chunks):
            yield computed[k]
            nbytes = kernel.slice_bytes_out(chunk.lo, chunk.hi, desc.n)
            yield from cluster.dma.transfer_out(nbytes)
            for name, (start, values) in fragments_box[k].items():
                cluster.memory.write_f64(
                    desc.output_addrs[name] + 8 * start, values)
            written[k].trigger()
        cluster.trace.record(label, "dma_out_done",
                             kernel.slice_bytes_out(work.lo, work.hi, desc.n))

    sim.spawn(loader(), name=f"{label}.dbuf.loader")
    sim.spawn(computer(), name=f"{label}.dbuf.computer")
    sim.spawn(writer(), name=f"{label}.dbuf.writer")
    yield written[-1]


def _fetch_descriptor(cluster: "Cluster", pointer: int) -> typing.Generator:
    """Fetch and decode the descriptor: one line burst, then the tail."""
    noc = cluster.noc
    first = yield noc.cluster_read_burst(
        cluster.cluster_id, pointer, FIRST_BURST_WORDS)
    kernel = abi.kernel_from_id(first[0])
    total = abi.descriptor_words(kernel)
    words = list(first)
    if total > FIRST_BURST_WORDS:
        rest = yield noc.cluster_read_burst(
            cluster.cluster_id, pointer + 8 * FIRST_BURST_WORDS,
            total - FIRST_BURST_WORDS)
        words.extend(rest)
    return abi.decode_descriptor(words[:total])


def _signal_completion(cluster: "Cluster",
                       desc: abi.JobDescriptor) -> typing.Generator:
    if desc.sync_mode == abi.SYNC_MODE_AMO:
        # Atomic fetch-and-add on the shared flag; AMOs are non-posted,
        # and all clusters serialize at the shared atomics port.
        yield cluster.noc.cluster_amo_add(
            cluster.cluster_id, desc.completion_addr, 1)
        return
    # Credit-counter unit: fire-and-forget posted write; the unit
    # interrupts the host once the threshold is met.
    handle = cluster.noc.cluster_write(
        cluster.cluster_id, desc.completion_addr, 1)
    yield handle.issued
