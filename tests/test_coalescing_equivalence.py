"""Golden equivalence: CPU-chunk coalescing must not change any measurement.

The coalesced fast path (`ServerNode.compute_batch` + `_BatchRecorder`)
exists purely for speed; every observable -- span tuples, profiler samples,
end-to-end breakdowns, cycle breakdowns -- must be byte-identical to the
chunk-by-chunk path.  The fleet-level tests run the production fleet
against the per-chunk CPU reference lane (:mod:`repro.testing.lanes`,
which also runs the RPC client chunks one by one) and compare exact floats
(no tolerances: the invariant is identity, not closeness), using the shared
snapshot differ from :mod:`repro.testing.diff`.
"""

import pytest
from hypothesis import given, settings

from repro.cluster import ServerNode, Topology, WorkContext
from repro.profiling.dapper import Trace
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment
from repro.testing import (
    assert_equivalent,
    diff_snapshots,
    sample_rows,
    snapshot,
    span_rows,
)
from repro.testing.lanes import PER_CHUNK_CPU, ReferenceFleetSimulation
from repro.workloads.calibration import PLATFORMS
from repro.workloads.fleet import FleetSimulation
from tests.strategies import sample_periods, work_chunks

QUERIES = {"Spanner": 6, "BigTable": 6, "BigQuery": 3}


@pytest.fixture(scope="module", params=[0, 1, 2])
def fleet_pair(request):
    seed = request.param
    coalesced = FleetSimulation(queries=QUERIES, seed=seed).run()
    chunked = ReferenceFleetSimulation(
        queries=QUERIES, seed=seed, lanes=(PER_CHUNK_CPU,)
    ).run()
    return coalesced, chunked


class TestFleetEquivalence:
    def test_every_surface_identical(self, fleet_pair):
        """Samples, breakdowns, cycle tables, records, clocks, capacity."""
        coalesced, chunked = fleet_pair
        assert_equivalent(coalesced, chunked)

    def test_traces_identical(self, fleet_pair):
        coalesced, chunked = fleet_pair
        mismatches = diff_snapshots(
            snapshot(coalesced, traces=True), snapshot(chunked, traces=True)
        )
        assert mismatches == []

    def test_cpu_seconds_identical(self, fleet_pair):
        # Redundant with the snapshot diff, but pins the one number the
        # fast path most directly manipulates.
        coalesced, chunked = fleet_pair
        for platform in PLATFORMS:
            assert coalesced.profiler.cpu_seconds(
                platform
            ) == chunked.profiler.cpu_seconds(platform)


class TestBareNodeEquivalence:
    """compute_batch vs per-chunk compute on a single node, exact floats."""

    CHUNKS = [
        ("proto2::ParseFromString", 1.1e-4),
        ("snappy::RawCompress", 0.9e-4),
        ("tcmalloc::allocate", 0.0),
        ("misc_core::stage", 2.3e-4),
    ]

    def _run(self, batched: bool):
        env = Environment()
        node = ServerNode(
            env=env, name="n0", topology=Topology("us", "us-c0", "r0"), cores=2
        )
        profiler = FleetProfiler(sample_period=1e-4)
        trace = Trace(trace_id=1, name="q", start=0.0)
        ctx = WorkContext(platform="Spanner", trace=trace, profiler=profiler)

        def work():
            if batched:
                yield from node.compute_batch(ctx, self.CHUNKS)
            else:
                for function, duration in self.CHUNKS:
                    yield from node.compute(ctx, function, duration)

        env.run(until=env.process(work()))
        trace.finish(env.now)
        return env.now, span_rows(trace), sample_rows(profiler)

    def test_identical_observables(self):
        assert self._run(batched=True) == self._run(batched=False)

    def test_zero_duration_batch(self):
        env = Environment()
        node = ServerNode(
            env=env, name="n0", topology=Topology("us", "us-c0", "r0"), cores=2
        )
        profiler = FleetProfiler(sample_period=1e-4)
        trace = Trace(trace_id=1, name="q", start=0.0)
        ctx = WorkContext(platform="Spanner", trace=trace, profiler=profiler)
        chunks = [("a::Zero", 0.0), ("b::Zero", 0.0)]
        env.run(until=env.process(node.compute_batch(ctx, chunks)))
        trace.finish(env.now)
        assert env.now == 0.0
        assert [row[2] for row in span_rows(trace)] == ["a::Zero", "b::Zero"]

    def test_crash_mid_batch_drops_tail_chunks(self):
        """A node crash cancels recorders past env.now, like the slow path."""

        def run(batched: bool):
            env = Environment()
            node = ServerNode(
                env=env, name="n0", topology=Topology("us", "us-c0", "r0"), cores=2
            )
            profiler = FleetProfiler(sample_period=1e-4)
            trace = Trace(trace_id=1, name="q", start=0.0)
            ctx = WorkContext(platform="Spanner", trace=trace, profiler=profiler)
            chunks = [("x::One", 1e-3), ("x::Two", 1e-3), ("x::Three", 1e-3)]

            def work():
                try:
                    if batched:
                        yield from node.compute_batch(ctx, chunks)
                    else:
                        for function, duration in chunks:
                            yield from node.compute(ctx, function, duration)
                except Exception:
                    pass

            proc = env.process(work())
            env.schedule_call(1.5e-3, node.crash)
            env.run(until=proc)
            env.run()
            trace.finish(env.now)
            return span_rows(trace), sample_rows(profiler)

        assert run(batched=True) == run(batched=False)

    def test_contended_cores_preserve_fifo(self):
        """Concurrent tenants: batching only engages while a core stays spare,
        so queueing and grant order match the chunk-by-chunk run exactly."""

        def run(batched: bool):
            env = Environment()
            node = ServerNode(
                env=env, name="n0", topology=Topology("us", "us-c0", "r0"), cores=2
            )
            profiler = FleetProfiler(sample_period=1e-4)
            trace = Trace(trace_id=1, name="q", start=0.0)
            ctx = WorkContext(platform="Spanner", trace=trace, profiler=profiler)
            chunks = [("y::A", 2e-4), ("y::B", 2e-4)]

            def work(tag):
                if batched:
                    yield from node.compute_batch(
                        ctx, [(f"{tag}{name}", d) for name, d in chunks]
                    )
                else:
                    for name, duration in chunks:
                        yield from node.compute(ctx, f"{tag}{name}", duration)

            procs = [env.process(work(f"t{i}.")) for i in range(3)]
            for proc in procs:
                env.run(until=proc)
            trace.finish(env.now)
            return env.now, span_rows(trace), sample_rows(profiler)

        assert run(batched=True) == run(batched=False)


class TestRecordWorkBatchProperty:
    @given(chunks=work_chunks, period=sample_periods)
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_chunk_by_chunk(self, chunks, period):
        batch = FleetProfiler(sample_period=period)
        single = FleetProfiler(sample_period=period)
        taken_batch = batch.record_work_batch("Spanner", chunks)
        taken_single = sum(
            single.record_work("Spanner", fn, d, when) for fn, d, when in chunks
        )
        assert taken_batch == taken_single
        assert sample_rows(batch) == sample_rows(single)
        assert batch.cpu_seconds("Spanner") == pytest.approx(
            single.cpu_seconds("Spanner"), abs=0, rel=0
        )
