"""Property tests: phase fast-forwarding is bit-identical, A/B'd.

Three timing invariants back the fast-forward layer:

1. Bulk channel timing (DMA reservations + closed-form serialization)
   measures exactly what the naive setup-then-transfer event chain
   measures (``REPRO_NAIVE_CHANNEL`` selects the reference).
2. Closed-form barrier/compute-phase crossings measure exactly what
   spawning one process per worker core and simulating every arrival
   measures (``REPRO_NAIVE_BARRIER`` selects the reference).
3. Restoring a copy-on-write boot snapshot yields a system
   indistinguishable from a field-by-field ``reset()`` and from fresh
   construction (``REPRO_NAIVE_SNAPSHOT`` selects the reset path).

Each invariant is sampled over grid points and program shapes (plain,
overlapped, concurrent) with the full observable fingerprint compared:
cycles, retired ops, per-cluster DMA/worker statistics, shared-channel
occupancy, and the NoC transaction log.
"""

import contextlib
import os

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core.concurrent import ConcurrentJob, offload_concurrent
from repro.core.offload import offload
from repro.core.overlap import offload_overlapped
from repro.runtime.trace import build_offload_trace
from repro.flags import (
    FRESH_SYSTEMS_ENV,
    NAIVE_BARRIER_ENV,
    NAIVE_CHANNEL_ENV,
    NAIVE_SNAPSHOT_ENV,
)
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.pool import SystemPool
from repro.soc.tiles import SNITCH, TileClass, TileGroup

SETTINGS = hypothesis.settings(
    max_examples=5, deadline=None,
    suppress_health_check=[
        hypothesis.HealthCheck.too_slow,
        # The autouse gate-clearing fixture is env-only and idempotent
        # across examples, so function scope is safe.
        hypothesis.HealthCheck.function_scoped_fixture,
    ])

N_VALUES = [24, 32, 48, 64, 96]
M_VALUES = [1, 2, 4]
VARIANTS = ["baseline", "extended"]


@pytest.fixture(autouse=True)
def _fast_paths_on(monkeypatch):
    """Pin the fast paths on regardless of ambient gates.

    The CI ``ab-gates`` matrix runs the whole suite with each
    ``REPRO_*`` gate set; these tests enable the reference paths
    *explicitly* per invariant, so the ambient environment must not
    pre-disable the fast side they compare against."""
    for name in (NAIVE_CHANNEL_ENV, NAIVE_BARRIER_ENV,
                 NAIVE_SNAPSHOT_ENV, FRESH_SYSTEMS_ENV):
        monkeypatch.delenv(name, raising=False)


@contextlib.contextmanager
def _env(name, value):
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


def _fingerprint(system, runtime_cycles):
    """Everything an observer could measure about one program run."""
    noc = system.noc
    return {
        "runtime": runtime_cycles,
        "retired": system.host.retired_operations,
        "loads": system.host.lsu.loads_issued,
        "stores": system.host.lsu.stores_issued,
        "host_requests": noc.host_port.requests,
        "host_busy": noc.host_port.busy_cycles,
        "amo_requests": noc.amo_port.requests,
        "cluster_ports": tuple((port.requests, port.busy_cycles)
                               for port in noc.cluster_ports),
        "syncunit": (system.syncunit.count,
                     system.syncunit.interrupts_fired,
                     system.syncunit.stale_credits),
        "jobs": tuple(c.jobs_completed for c in system.clusters),
        "dma": tuple((c.dma.transfers_in, c.dma.bytes_in,
                      c.dma.transfers_out, c.dma.bytes_out)
                     for c in system.clusters),
        "workers": tuple(w.busy_cycles for c in system.clusters
                         for w in c.workers),
        "read_channel": (system.read_channel.requests,
                         system.read_channel.busy_cycles,
                         system.read_channel.bytes_moved),
        "write_channel": (system.write_channel.requests,
                          system.write_channel.busy_cycles,
                          system.write_channel.bytes_moved),
        "transactions": sorted(
            (txn.kind.name, txn.issued_at, txn.source, txn.addresses)
            for txn in noc.transactions),
        "end": system.sim.now,
    }


def _naive_and_fast(gate, run):
    """Run ``run(system) -> runtime`` twice: ``gate`` enabled, then the
    fast-forward path; returns both fingerprints."""
    config = SoCConfig.extended(num_clusters=4)
    with _env(gate, "1"):
        system = ManticoreSystem(config)
        naive = _fingerprint(system, run(system))
    system = ManticoreSystem(config)
    fast = _fingerprint(system, run(system))
    return naive, fast


# ----------------------------------------------------------------------
# Invariant 1: bulk channel timing == naive setup-then-transfer chain
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_channel_ff_matches_naive_offload(n, m, variant):
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload(system, "daxpy", n, m,
                               variant=variant).runtime_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(n_a=st.sampled_from(N_VALUES), n_b=st.sampled_from(N_VALUES))
def test_channel_ff_matches_naive_concurrent(n_a, n_b):
    """Concurrent jobs contend on the shared channels with staggered,
    size-dependent arrivals — the worst case for reservation windows."""
    jobs = (ConcurrentJob(kernel_name="daxpy", n=n_a, num_clusters=2),
            ConcurrentJob(kernel_name="daxpy", n=n_b, num_clusters=2))
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_concurrent(system, jobs).makespan_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(accel_n=st.sampled_from(N_VALUES),
                  host_n=st.sampled_from([16, 32, 256]))
def test_channel_ff_matches_naive_overlapped(accel_n, host_n):
    naive, fast = _naive_and_fast(
        NAIVE_CHANNEL_ENV,
        lambda system: offload_overlapped(
            system, "daxpy", accel_n, 2, "daxpy", host_n).total_cycles)
    assert fast == naive


# ----------------------------------------------------------------------
# Invariant 2: closed-form crossings == spawned per-core arrivals
# ----------------------------------------------------------------------
@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_barrier_ff_matches_naive_offload(n, m, variant):
    naive, fast = _naive_and_fast(
        NAIVE_BARRIER_ENV,
        lambda system: offload(system, "daxpy", n, m,
                               variant=variant).runtime_cycles)
    assert fast == naive


@SETTINGS
@hypothesis.given(n_a=st.sampled_from(N_VALUES), n_b=st.sampled_from(N_VALUES))
def test_barrier_ff_matches_naive_concurrent(n_a, n_b):
    """Two independent jobs keep separate fabric-barrier groups open at
    once; crossings interleave with foreign channel traffic."""
    jobs = (ConcurrentJob(kernel_name="daxpy", n=n_a, num_clusters=2),
            ConcurrentJob(kernel_name="daxpy", n=n_b, num_clusters=2))
    naive, fast = _naive_and_fast(
        NAIVE_BARRIER_ENV,
        lambda system: offload_concurrent(system, jobs).makespan_cycles)
    assert fast == naive


def test_fastforward_skips_simulated_events():
    """The fast paths must actually fast-forward, not just agree.

    With both reference paths forced, every DMA hop and barrier arrival
    is a separate scheduled event; the closed forms collapse them.
    Compare simulator sequence numbers as a proxy, and check the
    engagement counters on the fast side.
    """
    config = SoCConfig.baseline(num_clusters=4)
    with _env(NAIVE_CHANNEL_ENV, "1"), _env(NAIVE_BARRIER_ENV, "1"):
        system = ManticoreSystem(config)
        naive = offload(system, "daxpy", 4096, 4)
        naive_events = system.sim._sequence
        naive_stats = system.fastforward_stats()
    system = ManticoreSystem(config)
    fast = offload(system, "daxpy", 4096, 4)
    fast_events = system.sim._sequence
    fast_stats = system.fastforward_stats()

    assert fast.runtime_cycles == naive.runtime_cycles
    assert fast_events < naive_events
    assert naive_stats["dma_transfers"] == 0
    assert naive_stats["compute_phases"] == 0
    assert fast_stats["dma_transfers"] > 0
    assert fast_stats["dma_fallbacks"] == 0
    assert fast_stats["compute_phases"] > 0
    assert fast_stats["barrier_crossings"] == fast_stats["compute_phases"]
    assert fast_stats["fabric_arrivals"] == 4


# ----------------------------------------------------------------------
# Invariant 1 at scale: full-width fabrics, uneven sizes, and the
# closed-form DM-core control traffic (descriptor fetch, posted store)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m", [1, 7, 32])
@pytest.mark.parametrize("n", [1000, 4095])
def test_wide_offload_matches_naive_channel(variant, m, n):
    """32-cluster offloads: the fast side must reproduce every cycle,
    port charge and per-cluster phase of the reference event chains,
    and its DM-core closed forms must engage exactly when the gate is
    clear (the sync-unit store is posted only in the extended design)."""
    config = getattr(SoCConfig, variant)(num_clusters=32)
    runs = {}
    for naive in (True, False):
        with (_env(NAIVE_CHANNEL_ENV, "1") if naive
              else contextlib.nullcontext()):
            system = ManticoreSystem(config)
            result = offload(system, "daxpy", n, m)
            trace = build_offload_trace(system.trace, result.start_cycle,
                                        result.end_cycle)
            runs[naive] = (_fingerprint(system, result.runtime_cycles),
                           trace.clusters, trace.phase_summary(),
                           system.fastforward_stats())
    (naive_print, naive_phases, naive_summary, naive_stats) = runs[True]
    (fast_print, fast_phases, fast_summary, fast_stats) = runs[False]
    assert fast_print == naive_print
    assert fast_phases == naive_phases
    assert len(fast_phases) == m
    assert fast_summary == naive_summary
    assert naive_stats["descriptor_fetches"] == 0
    assert naive_stats["posted_stores"] == 0
    assert fast_stats["descriptor_fetches"] == m
    assert fast_stats["posted_stores"] == (m if variant == "extended" else 0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_decode_ties_across_descriptor_lengths_match_naive(variant):
    """Two concurrent jobs whose decodes finish on the same cycle.

    In the extended design the second job's doorbell rings 8 cycles
    after the first's, its tiles wake 6 cycles sooner, its ``memcpy``
    descriptor is 3 words shorter than the first job's ``axpby`` one
    (3 fewer fetch beats), and its decode takes 1 cycle more: both
    decodes end on one cycle, although the second job's fetch was
    issued later and answered sooner.  Their order there decides which
    start barrier releases first, and so which job wins the shared
    read channel.  The reference chain orders them by when the last
    burst responded, not by when the fetch was issued."""
    slow_decode = TileClass(name="slow_decode", wake_latency=4,
                            dm_decode_cycles=21)
    base = getattr(SoCConfig, variant)(num_clusters=4)
    config = SoCConfig.with_fabric(
        [TileGroup(name="a", tile=SNITCH, count=2),
         TileGroup(name="b", tile=slow_decode, count=2)],
        multicast=base.multicast, hw_sync=base.hw_sync)
    jobs = (ConcurrentJob(kernel_name="axpby", n=64, num_clusters=2),
            ConcurrentJob(kernel_name="memcpy", n=64, num_clusters=2))

    def run(system):
        result = offload_concurrent(system, jobs)
        return (result.makespan_cycles,
                tuple(job.completed_cycle for job in result.jobs),
                tuple((record.cycle, record.source, record.label)
                      for record in system.trace.records))

    runs = {}
    for naive in (True, False):
        with (_env(NAIVE_CHANNEL_ENV, "1") if naive
              else contextlib.nullcontext()):
            system = ManticoreSystem(config)
            runs[naive] = _fingerprint(system, run(system))
    assert runs[False] == runs[True]


# ----------------------------------------------------------------------
# Invariant 3: snapshot restore == reset() == fresh construction
# ----------------------------------------------------------------------
def _pooled_fingerprint(config, n, m, variant):
    """Dirty a pooled system on two points, then measure a third on the
    re-leased instance.  The first reuse resets field by field (and, on
    the fast path, captures the digest's boot snapshot); the second
    reuse is the one the snapshot-restore path can serve."""
    pool = SystemPool()
    with pool.lease(config) as system:
        offload(system, "daxpy", 2 * n, 1, variant=variant)
    with pool.lease(config) as system:
        offload(system, "daxpy", 4 * n, 2, variant=variant)
    with pool.lease(config) as system:
        result = offload(system, "daxpy", n, m, variant=variant)
        fingerprint = _fingerprint(system, result.runtime_cycles)
    return pool, fingerprint


@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES),
                  variant=st.sampled_from(VARIANTS))
def test_snapshot_restore_matches_reset_and_fresh(n, m, variant):
    config = SoCConfig.extended(num_clusters=4)

    fresh = ManticoreSystem(config)
    result = offload(fresh, "daxpy", n, m, variant=variant)
    print_fresh = _fingerprint(fresh, result.runtime_cycles)

    with _env(NAIVE_SNAPSHOT_ENV, "1"):
        naive_pool, print_reset = _pooled_fingerprint(config, n, m, variant)
    fast_pool, print_restored = _pooled_fingerprint(config, n, m, variant)

    # The reference path resets field by field; the fast path restores
    # the boot snapshot.  Both must engage their own mechanism...
    assert naive_pool.restores == 0
    assert fast_pool.restores == 1
    # ...and neither may be distinguishable from a fresh system.
    assert print_restored == print_reset == print_fresh


@SETTINGS
@hypothesis.given(n=st.sampled_from(N_VALUES), m=st.sampled_from(M_VALUES))
def test_warm_state_fork_replays_identically(n, m):
    """Snapshots taken on a *warm* quiescent system fork its timeline:
    restore must make diverged futures replay bit-identically."""
    config = SoCConfig.baseline(num_clusters=4)
    system = ManticoreSystem(config)
    offload(system, "daxpy", 2 * n, 1)  # warm the system up
    warm = system.snapshot()

    first = offload(system, "daxpy", n, m)
    print_first = _fingerprint(system, first.runtime_cycles)

    system.restore(warm)
    other = offload(system, "daxpy", 3 * n, 2)  # diverge: different future
    print_other = _fingerprint(system, other.runtime_cycles)

    system.restore(warm)
    replay = offload(system, "daxpy", n, m)
    print_replay = _fingerprint(system, replay.runtime_cycles)

    assert print_replay == print_first
    assert print_other != print_first
    assert first.trace.phase_summary() == replay.trace.phase_summary()
