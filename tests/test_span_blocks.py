"""Chunk runs carried as columns: the chunker's cutoff, span-block rows and
their Section 4.1 breakdown, each against its per-chunk counterpart.

Budgets of at least ``BLOCK_MIN`` full chunks become a ``ChunkBlock`` and
long drains record a ``ChunkSpanBlock``; shorter ones stay lists and
tuples.  Whichever representation a run takes, the chunks, the span rows
and the breakdown must be the ones the per-chunk form gives, bit for bit.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import taxonomy
from repro.platforms.common import ChunkBlock, ColumnarCpuChunker, CpuChunker
from repro.profiling.breakdown import trace_breakdown
from repro.profiling.dapper import BLOCK_MIN, ChunkSpanBlock, SpanKind, Trace
from repro.testing import span_rows
from repro.workloads.fleet import FleetSimulation

FRACTIONS = {
    taxonomy.COMPRESSION.key: 0.25,
    taxonomy.RPC.key: 0.25,
    taxonomy.STL.key: 0.5,
}
CHUNK = 1e-4


def _source(block, service_start, start):
    """What a block recorder exposes to its span blocks."""
    ends_arr = np.cumsum(np.concatenate(((service_start,), block.durations)))[1:]
    return SimpleNamespace(
        ends=ends_arr.tolist(), ends_arr=ends_arr, start=start, chunks=block
    )


class TestChunkerCutoff:
    def test_list_below_cutoff_block_above_same_chunks(self):
        budgets = [
            3e-4, 0.05, 0.0, (BLOCK_MIN - 1) * CHUNK, BLOCK_MIN * CHUNK,
            2e-3, 0.2, 0.0063, 1.7e-3,
        ]
        plain = CpuChunker(FRACTIONS, rng=np.random.default_rng(5))
        chunker = ColumnarCpuChunker(FRACTIONS, rng=np.random.default_rng(5))
        for budget in budgets:
            want = plain.chunks(budget)
            got = chunker.chunks(budget)
            assert type(got) is (ChunkBlock if budget >= BLOCK_MIN * CHUNK else list)
            # Same names (one rotation state across both paths), same floats,
            # same shuffle draws.
            assert list(got) == want
            head, tail = chunker.split(got, budget / 3)
            assert (list(head), list(tail)) == plain.split(want, budget / 3)


class TestChunkSpanBlockRows:
    def test_rows_match_function_at_oracle(self):
        chunker = ColumnarCpuChunker(FRACTIONS, rng=np.random.default_rng(3))
        chunker.chunks(0.0137)  # start the pools' rotation mid-way
        block = chunker.chunks(0.9)
        n = len(block)
        assert len(block.segments) == 3 and n > 2 * 4096
        source = _source(block, 2.0, 1.5)
        for lo, hi in [(0, n), (0, 1), (1, 2), (37, 5000), (4095, 8193), (n - 1, n)]:
            rows = list(ChunkSpanBlock(100, 7, "n1", source, lo, hi).rows())
            prev = source.start if lo == 0 else source.ends[lo - 1]
            want = []
            for k in range(lo, hi):
                end = source.ends[k]
                want.append(
                    (100 + k - lo, 7, block.function_at(k), SpanKind.CPU, prev, end, "n1")
                )
                prev = end
            assert rows == want


_duration = st.one_of(
    st.sampled_from([0.0, CHUNK, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def _chunk_runs(draw):
    # Draw the length first, so both short and long runs are common.
    n = draw(st.integers(min_value=1, max_value=3 * BLOCK_MIN))
    durations = draw(st.lists(_duration, min_size=n, max_size=n))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n), max_size=4))
    bounds = sorted(cuts | {0, n})
    service_start = draw(st.floats(min_value=0.0, max_value=10.0))
    wait = draw(st.sampled_from([0.0, 0.0, 0.25]))
    others = draw(
        st.lists(
            st.tuples(
                st.sampled_from([SpanKind.IO, SpanKind.REMOTE, SpanKind.CPU]),
                st.floats(min_value=0.0, max_value=12.0),
                st.floats(min_value=0.0, max_value=3.0),
            ),
            max_size=4,
        )
    )
    return durations, list(zip(bounds, bounds[1:])), service_start, wait, others


@settings(max_examples=150, deadline=None)
@given(_chunk_runs())
def test_block_breakdown_equals_tuple_breakdown(run):
    durations, ranges, service_start, wait, others = run
    n = len(durations)
    block = ChunkBlock(
        np.array(durations), np.arange(n), ((0, ("f::A", "f::B", "f::C"), 1),), n
    )
    # The first chunk's span starts at batch start, covering queue wait.
    source = _source(block, service_start, service_start - wait)
    ends = source.ends

    def trace_with(chunk_rows):
        trace = Trace(1, "q", source.start)
        for kind, start, length in others:
            trace.record("other", kind, start, start + length)
        for row in chunk_rows:
            trace._spans.append(row)
        trace.finish(max([ends[-1], source.start] + [s + l for _, s, l in others]))
        return trace

    blocks = trace_with(
        ChunkSpanBlock(len(others) + lo, None, "n0", source, lo, hi) for lo, hi in ranges
    )
    tuples = trace_with(
        (
            len(others) + k,
            None,
            block.function_at(k),
            SpanKind.CPU,
            source.start if k == 0 else ends[k - 1],
            ends[k],
            "n0",
        )
        for k in range(n)
    )
    assert repr(trace_breakdown(blocks)) == repr(trace_breakdown(tuples))
    assert blocks.spans == tuples.spans


def test_spans_read_mid_run_keep_later_rows():
    # Reading an in-flight trace's spans expands its blocks; batches still
    # recording must keep appending to the same trace.
    class Peeking(FleetSimulation):
        def build_platform(self, *args, **kwargs):
            platform = super().build_platform(*args, **kwargs)
            platform.env.schedule_call(
                0.05, lambda: [trace.spans for trace in platform.tracer.traces]
            )
            return platform

    kwargs = dict(queries={"BigQuery": 1}, seed=1)
    (plain,) = FleetSimulation(**kwargs).run().platforms["BigQuery"].tracer.traces
    (peeked,) = Peeking(**kwargs).run().platforms["BigQuery"].tracer.traces
    assert any(type(row) is ChunkSpanBlock for row in plain._spans)
    assert span_rows(peeked) == span_rows(plain)
