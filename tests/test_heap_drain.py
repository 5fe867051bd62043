"""Heap block drain: one recorder call fires a whole run of CPU boundaries.

Popped inside ``Environment.run``, a coalesced batch's recorder fires every
chunk boundary whose ``(time, counter)`` key sorts before the heap head,
capped at the run's deadline.  That must be invisible: the ``per-boundary``
reference lane (:mod:`repro.testing.lanes`) pops each boundary as its own
event, and every surface -- the events-processed gauge included, unmasked
-- must match it byte for byte.  The unit cases pin the drain's edges: ties
with the heap head, the deadline cap, ``step()``, zero-duration chunks, and
a waiter that arrives mid-batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import FleetConfig, ServeConfig, run_fleet, run_service
from repro.cluster import ServerNode, Topology, WorkContext
from repro.faults import platform_chaos_plan
from repro.observability.exporters import window_jsonl
from repro.platforms.common import ChunkBlock
from repro.profiling.dapper import BLOCK_MIN, ChunkSpanBlock, Span, SpanKind, Trace
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment
from repro.testing import diff_snapshots, sample_rows, snapshot, span_rows
from repro.testing.lanes import (
    PER_BOUNDARY,
    ReferenceFleetSimulation,
    on_lanes,
    per_boundary,
)
from repro.workloads.fleet import FleetSimulation

QUERIES = {"Spanner": 3, "BigTable": 3, "BigQuery": 1}


def _events(result) -> dict[str, int]:
    return {name: p.env.events_processed for name, p in result.platforms.items()}


def _assert_lanes_agree(**kwargs):
    production = FleetSimulation(**kwargs).run()
    reference = ReferenceFleetSimulation(lanes=(PER_BOUNDARY,), **kwargs).run()
    assert diff_snapshots(
        snapshot(production, traces=True), snapshot(reference, traces=True)
    ) == []
    assert _events(production) == _events(reference)
    assert production.platforms["BigQuery"].env.inline_fires > 0
    assert all(p.env.inline_fires == 0 for p in reference.platforms.values())
    return production


class TestFleetParity:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_small_fleet(self, seed):
        production = _assert_lanes_agree(
            queries=QUERIES, seed=seed, bigquery_dataset_rows=1500, observability=True
        )
        assert "repro_sim_events_processed" in snapshot(production)["prometheus"]

    def test_node_crash(self):
        kwargs = dict(queries={"BigQuery": 1}, seed=3, bigquery_dataset_rows=1500)
        makespan = FleetSimulation(**kwargs).run().platforms["BigQuery"].env.now
        plan = platform_chaos_plan("BigQuery", makespan)
        production = _assert_lanes_agree(
            fault_plans={"BigQuery": plan}, observability=True, **kwargs
        )
        assert production.chaos["BigQuery"].injected


class TestServiceParity:
    def test_windowed_day(self):
        # Each window is one run(until=t) per platform: drains stop at the
        # window edge and resume in the next window's run.
        config = ServeConfig(
            duration=30.0,
            window=5.0,
            rolling_windows=2,
            arrival="flash",
            rate=0.5,
            flash_start=10.0,
            flash_duration=5.0,
            flash_magnitude=3.0,
            agents=2,
            seed=4,
        )
        production = [window_jsonl(w) for w in run_service(config)]
        with on_lanes((PER_BOUNDARY,)):
            assert [window_jsonl(w) for w in run_service(config)] == production


class TestFastPathStaysOn:
    def test_olap_fires_inline(self):
        platform = run_fleet(FleetConfig(queries={"BigQuery": 1}, seed=1)).platforms[
            "BigQuery"
        ]
        env = platform.env
        assert env.inline_fires >= 0.95 * env.events_processed
        assert "inline_fires" not in env.stats()
        # ... and the chunks those fires report ride in span blocks.
        (trace,) = platform.tracer.finished_traces()
        rows = trace._spans
        in_blocks = sum(row.hi - row.lo for row in rows if type(row) is ChunkSpanBlock)
        one_by_one = sum(
            1
            for row in rows
            if type(row) is tuple or (type(row) is Span and row.kind is SpanKind.CPU)
        )
        assert in_blocks >= 0.95 * (in_blocks + one_by_one)


CHUNKS = [("a::One", 1.0), ("b::Two", 1.0), ("c::Three", 1.0), ("d::Four", 1.0)]


def _node(drain: bool):
    env = Environment()
    if not drain:
        per_boundary(env)
    node = ServerNode(env=env, name="n0", topology=Topology("us", "us-c0", "r0"), cores=2)
    profiler = FleetProfiler(sample_period=0.3)
    trace = Trace(trace_id=1, name="q", start=0.0)
    ctx = WorkContext(platform="Spanner", trace=trace, profiler=profiler)
    return env, node, profiler, trace, ctx


def _observables(env, profiler, trace):
    trace.finish(env.now)
    return env.now, env.events_processed, span_rows(trace), sample_rows(profiler)


class TestDrainEdges:
    def test_tie_with_heap_head_decided_by_counter(self):
        def run(drain: bool):
            env, node, profiler, trace, ctx = _node(drain)
            seen = {}

            def probe(tag):
                seen[tag] = profiler.cpu_seconds("Spanner")

            # Scheduled before the batch reserves its counters, so it sorts
            # before the boundary at 2.0; the 3.0 probe is scheduled after,
            # so the boundary at 3.0 sorts before it.
            env.schedule_call(2.0, lambda: probe("early"))
            env.schedule_call(0.5, lambda: env.schedule_call(3.0, lambda: probe("late")))
            env.run(until=env.process(node.compute_batch(ctx, CHUNKS)))
            return seen, env.inline_fires, _observables(env, profiler, trace)

        seen, fired, observed = run(drain=True)
        assert seen == {"early": 1.0, "late": 3.0}
        assert fired == 1  # the 3.0 boundary rode along with the 2.0 one
        assert run(drain=False) == (seen, 0, observed)

    def test_boundary_at_deadline_fires_and_next_waits(self):
        def run(drain: bool):
            env, node, profiler, trace, ctx = _node(drain)
            proc = env.process(node.compute_batch(ctx, CHUNKS))
            env.run(until=2.0)
            cut = (profiler.cpu_seconds("Spanner"), env.now, env.peek(), env.events_processed)
            env.run(until=proc)
            return cut, env.inline_fires, _observables(env, profiler, trace)

        cut, fired, observed = run(drain=True)
        assert cut[:3] == (2.0, 2.0, 3.0)
        assert fired == 2  # 2.0 inside the first run, 4.0 inside the second
        assert run(drain=False) == (cut, 0, observed)

    def test_step_fires_one_boundary(self):
        env, node, profiler, trace, ctx = _node(drain=True)
        env.process(node.compute_batch(ctx, CHUNKS))
        env.run(until=0.5)  # the bound must fall back to -inf after a run
        while profiler.cpu_seconds("Spanner") == 0.0:
            env.step()
        assert profiler.cpu_seconds("Spanner") == 1.0
        assert env.now == 1.0 and env.peek() == 2.0
        assert env.inline_fires == 0

    @pytest.mark.parametrize(
        "chunks",
        [
            [("a::Zero", 0.0), ("b::Zero", 0.0)],
            [("a::One", 1.0), ("b::Zero", 0.0), ("c::Zero", 0.0), ("d::One", 1.0)],
        ],
    )
    def test_zero_duration_chunks_record_in_order(self, chunks):
        def run(batched: bool):
            env, node, profiler, trace, ctx = _node(drain=True)

            def work():
                if batched:
                    yield from node.compute_batch(ctx, chunks)
                else:
                    for function, duration in chunks:
                        yield from node.compute(ctx, function, duration)

            env.run(until=env.process(work()))
            now, _, spans, samples = _observables(env, profiler, trace)
            return now, spans, samples

        observed = run(batched=True)
        assert [row[2] for row in observed[1]] == [name for name, _ in chunks]
        assert run(batched=False) == observed

    def test_trace_finished_mid_block_drops_late_spans(self):
        n = 2 * BLOCK_MIN + 8
        block = ChunkBlock(
            np.ones(n), np.arange(n), ((0, ("a::One", "b::Two", "c::Three"), 1),), n
        )
        finish_at = BLOCK_MIN + 20.5

        def run(drain: bool):
            env, node, profiler, trace, ctx = _node(drain)
            env.schedule_call(finish_at, lambda: trace.finish(env.now))
            env.run(until=env.process(node.compute_block(ctx, block)))
            kinds = [type(row) for row in trace._spans]
            observed = (
                env.now,
                env.events_processed,
                profiler.cpu_seconds("Spanner"),
                span_rows(trace),
                sample_rows(profiler),
                next(trace._span_ids),
            )
            return kinds, env.inline_fires, observed

        kinds, fired, observed = run(drain=True)
        # One drain up to the finish records a block; the drain after it
        # credits the profiler but records no spans and takes no span ids.
        assert kinds == [ChunkSpanBlock]
        assert fired == n - 2
        now, _, cpu_seconds, spans, _, next_id = observed
        assert now == cpu_seconds == n
        assert len(spans) == next_id == BLOCK_MIN + 20
        assert max(row[5] for row in spans) < finish_at
        assert run(drain=False) == ([tuple] * (BLOCK_MIN + 20), 0, observed)

    def test_mid_batch_waiter_preempts_at_same_boundary(self):
        def run(drain: bool):
            env, node, profiler, trace, ctx = _node(drain)

            def late(delay, function, duration):
                yield env.timeout(delay)
                yield from node.compute(ctx, function, duration)

            env.process(node.compute_batch(ctx, CHUNKS))
            env.process(late(0.5, "x::Hog", 10.0))  # takes the spare core
            env.process(late(1.5, "y::Waiter", 0.25))  # queues mid-batch
            env.run()
            return _observables(env, profiler, trace)

        observed = run(drain=True)
        ends = {row[2]: row[5] for row in observed[2]}
        # The waiter gets the core at the batch's 2.0 boundary; the batch
        # then finishes its tail uncoalesced behind it.
        assert ends["y::Waiter"] == 2.25
        assert ends["c::Three"] == 3.25
        assert run(drain=False) == observed
