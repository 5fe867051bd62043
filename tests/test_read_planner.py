"""Property suite for the batched read planner (``repro.storage.reader``).

The planner's contract is *bit-identity* with the per-chunk reader: same
completion timestamps, same bytes served, same tier hits, same device and
fabric traffic counters -- only the event schedule (one leg per contiguous
tier instead of one timeout per chunk) may differ.  Floats make "same"
a sharp claim: chunk boundaries are accumulated sums, service times are
latency + bytes/bandwidth chains, and the differ compares them exactly.
So these properties drive two *identical worlds*, one through the planner
and one through the per-chunk reference lane (``repro.testing.lanes``),
and assert ``==`` on every surface, never ``approx``.

Also pinned here: the degrade path.  A read issued while any storage
server is marked down must take the per-chunk lane (the planner resolves
replica order at plan time and would race the down-set), and a read
*already in flight* when a server fails keeps its plan -- the modeled
stream was committed when it started -- while every later read degrades.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.network import (
    NetworkFabric,
    NetworkPartitioned,
    Topology,
    TopologySelector,
)
from repro.cluster.node import WorkContext
from repro.profiling.dapper import SpanKind, Trace
from repro.sim import Environment
from repro.storage import (
    DeviceKind,
    DistributedFileSystem,
    StorageServer,
    TieredStore,
)
from repro.storage.reader import plan_read
from repro.storage.tier import TierStats
from repro.testing.lanes import chunked_reader

KB = 1024.0
MB = 1024.0 * KB

#: Small tiers so fuzzed reads cross RAM/SSD/HDD boundaries (leg breaks).
RAM_KB = 768
SSD_MB = 6


def _world(chunk_kb: float, file_kb: float, servers: int = 4):
    env = Environment()
    fabric = NetworkFabric()
    nodes = [
        StorageServer(
            index=i,
            topology=Topology("us", "us-c0", f"r{i % 2}"),
            store=TieredStore(
                ram_bytes=RAM_KB * KB, ssd_bytes=SSD_MB * MB, hdd_bytes=360 * MB
            ),
        )
        for i in range(servers)
    ]
    dfs = DistributedFileSystem(
        env, fabric, nodes, replication=3, chunk_bytes=chunk_kb * KB
    )
    dfs.create("/f", file_kb * KB)
    return env, dfs


def _read(env, dfs, offset: float, size: float, chunked: bool):
    if chunked:
        chunked_reader(dfs)
    trace = Trace(0, "q", env.now)
    ctx = WorkContext(platform="x", trace=trace)
    reader = Topology("us", "us-c0", "r0")
    served = env.run(
        until=env.process(dfs.read(ctx, reader, "/f", offset=offset, size=size))
    )
    return served, trace


def _store_state(store: TieredStore):
    return (
        store.stats.accesses,
        dict(store.stats.hits),
        (store.ram.bytes_read, store.ram.reads),
        (store.ssd.bytes_read, store.ssd.reads),
        (store.hdd.bytes_read, store.hdd.reads),
    )


def _assert_worlds_identical(env_a, dfs_a, env_b, dfs_b):
    assert env_a.now == env_b.now
    assert dfs_a.fabric.bytes_transferred == dfs_b.fabric.bytes_transferred
    assert dfs_a.fabric.messages_sent == dfs_b.fabric.messages_sent
    assert dfs_a.fabric.partition_drops == dfs_b.fabric.partition_drops
    for server_a, server_b in zip(dfs_a.servers, dfs_b.servers):
        assert _store_state(server_a.store) == _store_state(server_b.store)


def _io_spans(trace: Trace):
    return [
        (span.name, span.start, span.end, dict(span.annotations))
        for span in trace.spans
        if span.kind is SpanKind.IO
    ]


# Byte ranges as ten-thousandths of the file, so offsets land on awkward
# non-integer floats (the boundary arithmetic must still agree bitwise).
RANGES = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)


class TestBatchedChunkedParity:
    @settings(max_examples=30, deadline=None)
    @given(
        chunk_kb=st.sampled_from([64.0, 256.0, 1000.0]),
        file_kb=st.integers(min_value=1, max_value=4096),
        byte_range=RANGES,
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_every_surface_bit_identical(
        self, chunk_kb, file_kb, byte_range, repeats
    ):
        file_size = file_kb * KB
        lo, hi = sorted(byte_range)
        offset = file_size * (lo / 10_000.0)
        size = file_size * (hi / 10_000.0) - offset
        env_a, dfs_a = _world(chunk_kb, file_kb)
        env_b, dfs_b = _world(chunk_kb, file_kb)
        for _ in range(repeats):  # repeats exercise warm-cache plans too
            served_a, trace_a = _read(env_a, dfs_a, offset, size, chunked=False)
            served_b, trace_b = _read(env_b, dfs_b, offset, size, chunked=True)
            assert served_a == served_b
            assert _io_spans(trace_a) == _io_spans(trace_b)
        _assert_worlds_identical(env_a, dfs_a, env_b, dfs_b)

    @settings(max_examples=15, deadline=None)
    @given(
        chunk_kb=st.sampled_from([64.0, 256.0]),
        file_kb=st.integers(min_value=1, max_value=2048),
        byte_range=RANGES,
    )
    def test_rack_partition_failover_parity(self, chunk_kb, file_kb, byte_range):
        # Rack r1 unreachable from the r0 reader: every chunk with an r1
        # closest replica fails over, in both modes, with identical
        # failover counts, drop counters, and timing.
        file_size = file_kb * KB
        lo, hi = sorted(byte_range)
        offset = file_size * (lo / 10_000.0)
        size = file_size * (hi / 10_000.0) - offset
        worlds = []
        for chunked in (False, True):
            env, dfs = _world(chunk_kb, file_kb)
            dfs.fabric.partition(
                TopologySelector(rack="r0"), TopologySelector(rack="r1")
            )
            served, trace = _read(env, dfs, offset, size, chunked)
            worlds.append((env, dfs, served, trace))
        (env_a, dfs_a, served_a, trace_a), (env_b, dfs_b, served_b, trace_b) = worlds
        assert served_a == served_b
        assert _io_spans(trace_a) == _io_spans(trace_b)
        _assert_worlds_identical(env_a, dfs_a, env_b, dfs_b)

    def test_total_partition_raises_identically(self):
        # Every route cut: both modes must raise, leave time at the same
        # instant, and record the same error span.
        results = []
        for chunked in (False, True):
            env, dfs = _world(256.0, 1024.0)
            if chunked:
                chunked_reader(dfs)
            dfs.fabric.partition(TopologySelector(), TopologySelector())
            trace = Trace(0, "q", env.now)
            ctx = WorkContext(platform="x", trace=trace)
            reader = Topology("us", "us-c0", "r0")
            with pytest.raises(NetworkPartitioned):
                env.run(until=env.process(dfs.read(ctx, reader, "/f")))
            results.append((env.now, _io_spans(trace), dfs.fabric.partition_drops))
        assert results[0] == results[1]
        (_, spans, _) = results[0]
        assert spans and spans[0][3]["error"] == "partition"


class TestPlanStructure:
    @settings(max_examples=30, deadline=None)
    @given(
        chunk_kb=st.sampled_from([64.0, 256.0, 1000.0]),
        file_kb=st.integers(min_value=1, max_value=4096),
        byte_range=RANGES,
    )
    def test_legs_cover_exactly_the_chunk_range(self, chunk_kb, file_kb, byte_range):
        file_size = file_kb * KB
        lo, hi = sorted(byte_range)
        offset = file_size * (lo / 10_000.0)
        size = file_size * (hi / 10_000.0) - offset
        env, dfs = _world(chunk_kb, file_kb)
        meta = dfs.meta("/f")
        reader = Topology("us", "us-c0", "r0")

        # The reference walk on an identical world: same overlaps, same
        # accumulated chunk boundaries.
        env_ref, dfs_ref = _world(chunk_kb, file_kb)
        reference = list(
            dfs_ref._chunks_for_range(dfs_ref.meta("/f"), offset, size)
        )

        plan = plan_read(dfs, reader, meta, offset, size, start=env.now)
        assert plan.partitioned is None
        # Lazily-built bounds must be the same floats the per-chunk walk
        # accumulates (bit-identical boundary arithmetic).
        assert meta._bounds == dfs_ref.meta("/f")._bounds
        assert sum(leg.chunks for leg in plan.legs) == len(reference)
        assert sum(plan.hits_by_tier.values()) == len(reference)
        served = 0.0
        for _, overlap in reference:
            served += overlap
        assert plan.served == served
        # Legs are maximal: adjacent legs always break on a tier change,
        # and completion times strictly increase chunk by chunk.
        for left, right in zip(plan.legs, plan.legs[1:]):
            assert left.tier is not right.tier
            assert left.end < right.end
        if plan.legs:
            assert plan.end == plan.legs[-1].end
            assert plan.end > 0.0
            for leg in plan.legs:
                assert isinstance(leg.tier, DeviceKind)
        else:
            assert plan.end == 0.0 and size == 0.0

    def test_leg_apply_defers_tier_tallies(self):
        env, dfs = _world(256.0, 1024.0)
        meta = dfs.meta("/f")
        reader = Topology("us", "us-c0", "r0")
        plan = plan_read(dfs, reader, meta, 0.0, meta.size, start=0.0)
        # Plan-time: device counters moved, tally stats did not.
        assert all(server.store.stats.accesses == 0 for server in dfs.servers)
        for leg in plan.legs:
            leg.apply()
        total = sum(server.store.stats.accesses for server in dfs.servers)
        assert total == sum(leg.chunks for leg in plan.legs)
        hits: dict = {}
        for server in dfs.servers:
            for tier, count in server.store.stats.hits.items():
                if count:  # TierStats pre-seeds zero rows for every tier
                    hits[tier] = hits.get(tier, 0) + count
        assert hits == plan.hits_by_tier


class TestTierReadPlanned:
    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.integers(min_value=0, max_value=9),
                      st.integers(min_value=1, max_value=512)),
            min_size=1,
            max_size=40,
        )
    )
    def test_read_planned_matches_read(self, keys):
        # Two identical stores driven through the same key/size sequence:
        # read() vs read_planned() + the caller-side tally read() wraps.
        a = TieredStore(ram_bytes=256 * KB, ssd_bytes=MB, hdd_bytes=64 * MB)
        b = TieredStore(ram_bytes=256 * KB, ssd_bytes=MB, hdd_bytes=64 * MB)
        for key_index, size_kb in keys:
            key, nbytes = f"k{key_index}", size_kb * KB
            latency_a, tier_a = a.read(key, nbytes)
            b.stats.accesses += 1
            latency_b, tier_b = b.read_planned(key, nbytes)
            b.stats.hits[tier_b] += 1
            assert (latency_a, tier_a) == (latency_b, tier_b)
        assert _store_state(a) == _store_state(b)


class TestDownSetDegrade:
    def test_down_set_routes_around_planner(self, monkeypatch):
        env, dfs = _world(256.0, 2048.0)
        dfs.fail_server(0)

        def refuse(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("planner must not run while a server is down")

        monkeypatch.setattr("repro.storage.dfs.plan_read", refuse)
        ctx = WorkContext(platform="x")
        reader = Topology("us", "us-c0", "r0")
        served = env.run(until=env.process(dfs.read(ctx, reader, "/f")))
        assert served == pytest.approx(2048.0 * KB)

    def test_restore_reenables_planner(self, monkeypatch):
        env, dfs = _world(256.0, 1024.0)
        dfs.fail_server(0)
        dfs.restore_server(0)
        calls = []
        real = plan_read
        monkeypatch.setattr(
            "repro.storage.dfs.plan_read",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        ctx = WorkContext(platform="x")
        reader = Topology("us", "us-c0", "r0")
        env.run(until=env.process(dfs.read(ctx, reader, "/f")))
        assert calls

    def test_mid_read_failure_degrades_later_reads_only(self, monkeypatch):
        # A server fails while a batched read is in flight: the in-flight
        # read keeps its committed plan (the modeled stream already
        # started); the *next* read sees the down-set and goes per-chunk.
        env, dfs = _world(256.0, 4096.0)
        calls = []
        real = plan_read
        monkeypatch.setattr(
            "repro.storage.dfs.plan_read",
            lambda *a, **k: calls.append(env.now) or real(*a, **k),
        )
        ctx = WorkContext(platform="x")
        reader = Topology("us", "us-c0", "r0")
        outcomes = []

        def first_reader():
            served = yield from dfs.read(ctx, reader, "/f")
            outcomes.append(("first", env.now, served))

        def saboteur():
            yield env.timeout(1e-6)  # mid-read: after plan, before the leg
            dfs.fail_server(1)

        def second_reader():
            yield env.timeout(2e-6)
            served = yield from dfs.read(ctx, reader, "/f")
            outcomes.append(("second", env.now, served))

        env.process(first_reader())
        env.process(saboteur())
        env.process(second_reader())
        env.run()
        # Exactly one planned read: the first (issued on an empty
        # down-set).  The second read, issued after the failure, went
        # per-chunk -- note it may *finish* first, because the first
        # read's plan promoted its chunks into RAM at plan time while its
        # own completion event still waits on cold-tier timestamps.
        assert {name for name, _, _ in outcomes} == {"first", "second"}
        assert len(calls) == 1 and calls[0] == 0.0
        assert all(served == pytest.approx(4096.0 * KB) for _, _, served in outcomes)
