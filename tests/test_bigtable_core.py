"""Tests for BigTable's LSM machinery and the platform simulator."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.manager import Cluster
from repro.cluster.network import NetworkFabric, Topology
from repro.cluster.node import WorkContext
from repro.platforms.bigtable import BigTableStore, CompactionManager, Memtable, Tablet
from repro.platforms.bigtable.compaction import merge_sstables
from repro.platforms.bigtable.sstable import BloomFilter, SSTable
from repro.profiling.dapper import SpanKind, Trace
from repro.sim import Environment
from repro.storage.dfs import DistributedFileSystem, StorageServer
from repro.storage.tier import TieredStore
from repro.workloads import BIGTABLE, build_profile

MB = 1024.0 * 1024.0


class TestMemtable:
    def test_put_get(self):
        table = Memtable()
        table.put("b", 2)
        table.put("a", 1)
        assert table.get("a") == 1
        assert len(table) == 2

    def test_scan_is_sorted_range(self):
        table = Memtable()
        for key in ("d", "a", "c", "b", "e"):
            table.put(key, key.upper())
        assert list(table.scan("b", "e")) == [("b", "B"), ("c", "C"), ("d", "D")]

    def test_overwrite_does_not_grow(self):
        table = Memtable()
        table.put("a", 1)
        size = table.approximate_bytes
        table.put("a", 2)
        assert table.approximate_bytes == size
        assert table.get("a") == 2

    def test_tombstone(self):
        table = Memtable()
        table.put("a", 1)
        table.delete("a")
        assert table.get("a") is None
        assert "a" in table  # the tombstone is a real entry

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.integers(), min_size=1))
    @settings(max_examples=25)
    def test_items_sorted(self, entries):
        table = Memtable()
        for key, value in entries.items():
            table.put(key, value)
        items = table.items()
        assert [k for k, _ in items] == sorted(entries)
        assert dict(items) == entries


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=100)
        keys = [f"key{i}" for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(expected_items=500, false_positive_rate=0.01)
        for i in range(500):
            bloom.add(f"present{i}")
        false_positives = sum(
            bloom.might_contain(f"absent{i}") for i in range(2000)
        )
        assert false_positives / 2000 < 0.05

    # Bit positions of a few keys as the filter has always placed them: hash
    # i is the little-endian uint32 at digest bytes (4*i) % 28, mod m.
    PINNED = {
        (100, 0.1): (3, {"row0-000001": (391, 440, 369), "": (69, 467, 372)}),
        (100, 0.01): (7, {"key42": (438, 355, 753, 682, 556, 813, 224)}),
        (1000, 0.001): (
            10,
            {"row0-000001": (1669, 6571, 1484, 10060, 5729, 3704, 13271, 1669, 6571, 1484)},
        ),
        (8, 1e-6): (
            20,
            {"key42": (10, 85, 109, 194, 20, 95, 68) * 2 + (10, 85, 109, 194, 20, 95)},
        ),
    }

    @pytest.mark.parametrize("sizing", sorted(PINNED))
    def test_positions_are_pinned(self, sizing):
        bloom = BloomFilter(*sizing)
        num_hashes, pinned = self.PINNED[sizing]
        assert bloom.num_hashes == num_hashes
        for key, positions in pinned.items():
            assert bloom._positions(key) == positions
        for key in ("row0-000001", "key42", "", "row3-004095", "\u00e9t\u00e9"):
            digest = hashlib.sha256(key.encode()).digest()
            formula = tuple(
                int.from_bytes(digest[(4 * i) % 28 : (4 * i) % 28 + 4], "little")
                % bloom.num_bits
                for i in range(bloom.num_hashes)
            )
            assert bloom._positions(key) == formula

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(10, false_positive_rate=1.5)


class TestSSTable:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            SSTable([("b", 1), ("a", 2)], path="/t")

    def test_unique_keys_required(self):
        with pytest.raises(ValueError):
            SSTable([("a", 1), ("a", 2)], path="/t")

    def test_get(self):
        run = SSTable([("a", 1), ("c", 3)], path="/t")
        assert run.get("a") == (True, 1)
        assert run.get("b") == (False, None)

    def test_scan(self):
        run = SSTable([(f"k{i}", i) for i in range(10)], path="/t")
        assert list(run.scan("k2", "k5")) == [("k2", 2), ("k3", 3), ("k4", 4)]

    def test_key_range(self):
        run = SSTable([("a", 1), ("z", 26)], path="/t")
        assert run.key_range == ("a", "z")


class TestMergeSSTables:
    def test_newest_wins(self):
        newer = SSTable([("a", "new"), ("b", "B")], path="/n")
        older = SSTable([("a", "old"), ("c", "C")], path="/o")
        merged = merge_sstables(
            [newer, older], path="/m", level=1, drop_tombstones=False
        )
        assert merged.get("a") == (True, "new")
        assert merged.get("b") == (True, "B")
        assert merged.get("c") == (True, "C")

    def test_tombstones_dropped_at_major(self):
        newer = SSTable([("a", None)], path="/n")  # tombstone
        older = SSTable([("a", "old"), ("b", "B")], path="/o")
        merged = merge_sstables([newer, older], path="/m", level=2, drop_tombstones=True)
        assert merged.get("a") == (False, None)
        assert merged.get("b") == (True, "B")

    def test_tombstones_kept_at_minor(self):
        newer = SSTable([("a", None)], path="/n")
        older = SSTable([("a", "old")], path="/o")
        merged = merge_sstables([newer, older], path="/m", level=1, drop_tombstones=False)
        assert merged.get("a") == (True, None)

    def test_all_tombstones_yields_none(self):
        only = SSTable([("a", None)], path="/n")
        assert merge_sstables([only], path="/m", level=2, drop_tombstones=True) is None


def _make_tablet(env, flush_threshold=2 * 1024.0):
    cluster = Cluster(env, racks_per_cluster=3, nodes_per_rack=2)
    servers = [
        StorageServer(
            index=i,
            topology=node.topology,
            store=TieredStore(8 * MB, 64 * MB, 512 * MB),
        )
        for i, node in enumerate(cluster.nodes[:3])
    ]
    dfs = DistributedFileSystem(env, cluster.fabric, servers, chunk_bytes=1 * MB)
    tablet = Tablet(
        "t0", cluster.nodes[0], dfs, flush_threshold_bytes=flush_threshold
    )
    compactor = CompactionManager(
        env, cluster.fabric, dfs, workers=cluster.nodes[3:5]
    )
    return tablet, compactor, dfs


class TestTablet:
    def test_write_then_read_from_memtable(self):
        env = Environment()
        tablet, _, _ = _make_tablet(env)
        ctx = WorkContext(platform="BigTable")

        def run():
            yield from tablet.put(ctx, "k", "v")
            value = yield from tablet.get(ctx, "k")
            return value

        assert env.run(until=env.process(run())) == "v"

    def test_flush_moves_data_to_sstable(self):
        env = Environment()
        tablet, _, dfs = _make_tablet(env, flush_threshold=300.0)
        ctx = WorkContext(platform="BigTable")

        def run():
            for i in range(6):
                yield from tablet.put(ctx, f"k{i}", i)

        env.run(until=env.process(run()))
        assert tablet.flushes >= 1
        assert tablet.sstable_count >= 1
        assert any(dfs.exists(s.path) for s in tablet.sstables)

    def test_read_falls_through_to_sstable(self):
        env = Environment()
        tablet, _, _ = _make_tablet(env)
        ctx = WorkContext(platform="BigTable")

        def run():
            yield from tablet.put(ctx, "old", "value")
            yield from tablet.flush(ctx)
            assert len(tablet.memtable) == 0
            found = yield from tablet.get(ctx, "old")
            return found

        assert env.run(until=env.process(run())) == "value"

    def test_missing_key_returns_none(self):
        env = Environment()
        tablet, _, _ = _make_tablet(env)
        ctx = WorkContext(platform="BigTable")

        def run():
            return (yield from tablet.get(ctx, "ghost"))

        assert env.run(until=env.process(run())) is None

    def test_scan_merges_memtable_and_sstables(self):
        env = Environment()
        tablet, _, _ = _make_tablet(env)
        ctx = WorkContext(platform="BigTable")

        def run():
            yield from tablet.put(ctx, "a", 1)
            yield from tablet.flush(ctx)
            yield from tablet.put(ctx, "b", 2)
            yield from tablet.put(ctx, "a", 10)  # overrides flushed value
            result = yield from tablet.scan(ctx, "a", "z")
            return result

        assert env.run(until=env.process(run())) == [("a", 10), ("b", 2)]


class TestCompaction:
    def test_compaction_reduces_sstable_count(self):
        env = Environment()
        tablet, compactor, _ = _make_tablet(env, flush_threshold=220.0)
        ctx = WorkContext(platform="BigTable")

        def run():
            for i in range(12):
                yield from tablet.put(ctx, f"k{i:03d}", i)
            before = tablet.sstable_count
            yield from compactor.compact(ctx, tablet)
            return before

        before = env.run(until=env.process(run()))
        assert before >= 2
        assert tablet.sstable_count < before
        assert compactor.compactions_run == 1

    def test_data_survives_compaction(self):
        env = Environment()
        tablet, compactor, _ = _make_tablet(env, flush_threshold=220.0)
        ctx = WorkContext(platform="BigTable")

        def run():
            for i in range(12):
                yield from tablet.put(ctx, f"k{i:03d}", i)
            yield from compactor.compact(ctx, tablet)
            values = []
            for i in range(12):
                values.append((yield from tablet.get(ctx, f"k{i:03d}")))
            return values

        assert env.run(until=env.process(run())) == list(range(12))

    def test_remote_span_recorded(self):
        env = Environment()
        tablet, compactor, _ = _make_tablet(env, flush_threshold=220.0)
        trace = Trace(0, "q", 0.0)
        ctx = WorkContext(platform="BigTable", trace=trace)

        def run():
            for i in range(12):
                yield from tablet.put(ctx, f"k{i:03d}", i)
            yield from compactor.compact(ctx, tablet)

        env.run(until=env.process(run()))
        remote = [s for s in trace.spans if s.kind is SpanKind.REMOTE]
        assert any(s.name.startswith("compaction:") for s in remote)

    def test_merged_level_deepens(self):
        env = Environment()
        tablet, compactor, _ = _make_tablet(env, flush_threshold=220.0)
        ctx = WorkContext(platform="BigTable")

        def run():
            for i in range(12):
                yield from tablet.put(ctx, f"k{i:03d}", i)
            merged = yield from compactor.compact(ctx, tablet)
            return merged

        merged = env.run(until=env.process(run()))
        assert merged.level >= 1


class TestBigTablePlatform:
    def test_serves_and_calibrates(self):
        from repro.profiling.breakdown import E2EBreakdown, trace_breakdown
        from repro.profiling.gwp import FleetProfiler

        env = Environment()
        profiler = FleetProfiler(sample_period=5e-5)
        store = BigTableStore(env, build_profile(BIGTABLE), profiler=profiler, seed=11)
        env.run(until=env.process(store.serve(150)))
        assert store.queries_served == 150

        e2e = E2EBreakdown("BigTable")
        for trace in store.tracer.finished_traces():
            e2e.add(trace_breakdown(trace))
        groups = e2e.group_query_fractions()
        assert groups["CPU Heavy"] > 0.60  # Section 4.2

        from repro import taxonomy

        broad = profiler.cycle_breakdown("BigTable").broad_fractions()
        # Figure 3: BigTable's datacenter-tax share is the largest.
        assert broad[taxonomy.BroadCategory.DATACENTER_TAX] == max(broad.values())

    def test_compactions_happen_during_service(self):
        env = Environment()
        store = BigTableStore(env, build_profile(BIGTABLE), seed=4)
        env.run(until=env.process(store.serve(80)))
        assert store.compactor.compactions_run > 0

    def test_rpc_tax_dominates_bigtable_dctax(self):
        """Figure 5 shape: RPC is BigTable's top datacenter tax (37%)."""
        from repro.profiling.gwp import FleetProfiler
        from repro import taxonomy

        env = Environment()
        profiler = FleetProfiler(sample_period=5e-5)
        store = BigTableStore(env, build_profile(BIGTABLE), profiler=profiler, seed=5)
        env.run(until=env.process(store.serve(120)))
        fine = profiler.cycle_breakdown("BigTable").fine_fractions(
            taxonomy.BroadCategory.DATACENTER_TAX
        )
        assert max(fine, key=fine.get) == taxonomy.RPC.key
