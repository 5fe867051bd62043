"""The stored ``traces`` and ``spans`` rows, checked row by row.

``DataProvider.dump`` leaves spans out, so the store's round-trip tests
never see them.  The oracle here is the straightforward encoder: rows
built from the public ``trace.spans`` with ``json.dumps(dict(
span.annotations), sort_keys=True, default=str)``.  The writer reads the
tracers' compact rows instead (tuples, ``ChunkSpanBlock`` runs and
recorded spans) and must store the same bytes for every one of them.
"""

import json

import pytest

from repro import api
from repro.faults import canned_mixed_scenario
from repro.profiling.dapper import ChunkSpanBlock, SpanKind, Trace
from repro.store import ProfileStore, StoreWriter
from repro.testing.lanes import PER_BOUNDARY, run_reference

SPAN_COLUMNS = (
    "run_id, platform, trace_ord, ord, span_id, parent_id, name, kind,"
    " start, end, annotations"
)
TRACE_COLUMNS = "run_id, platform, ord, trace_id, name, start, end"

#: A run of this config records BigQuery's chunks as span blocks.
MIXED = api.FleetConfig(
    queries={"Spanner": 4, "BigTable": 4, "BigQuery": 1},
    seed=3,
    bigquery_dataset_rows=1500,
)
FAULT_QUERIES = {"Spanner": 12, "BigTable": 12, "BigQuery": 1}


def stored_rows(result):
    """Ingest ``result`` into a fresh store; its (traces, spans) rows."""
    with ProfileStore(":memory:") as store:
        run_id = StoreWriter(store).ingest_fleet(result)
        traces = store.execute(
            f"SELECT {TRACE_COLUMNS} FROM traces ORDER BY platform, ord"
        ).fetchall()
        spans = store.execute(
            f"SELECT {SPAN_COLUMNS} FROM spans"
            " ORDER BY platform, trace_ord, ord"
        ).fetchall()
    return run_id, traces, spans


def oracle_rows(run_id, result):
    """The rows the span-object encoder writes for ``result``."""
    traces = []
    spans = []
    for name, platform in result.platforms.items():
        tracer = getattr(platform, "tracer", None)
        if tracer is None:
            continue
        for ordinal, trace in enumerate(tracer.finished_traces()):
            traces.append(
                (run_id, name, ordinal, trace.trace_id, trace.name,
                 trace.start, trace.end)
            )
            for span_ord, span in enumerate(trace.spans):
                spans.append(
                    (
                        run_id,
                        name,
                        ordinal,
                        span_ord,
                        span.span_id,
                        span.parent_id,
                        span.name,
                        span.kind.value,
                        span.start,
                        span.end,
                        json.dumps(dict(span.annotations), sort_keys=True,
                                   default=str),
                    )
                )
    traces.sort(key=lambda row: (row[1], row[2]))
    spans.sort(key=lambda row: (row[1], row[2], row[3]))
    return traces, spans


def assert_rows_match(result):
    """Ingest first (the writer must not need materialized spans), then
    compare against the oracle, which materializes them."""
    run_id, traces, spans = stored_rows(result)
    want_traces, want_spans = oracle_rows(run_id, result)
    assert len(spans) == len(want_spans)
    assert traces == want_traces
    assert spans == want_spans
    return spans


def raw_rows(result):
    return [
        row
        for platform in result.platforms.values()
        for trace in platform.tracer.finished_traces()
        for row in trace._spans
    ]


# Function-scoped: the oracle materializes every span it reads, and each
# test needs the tracers' rows as the run left them.
@pytest.fixture
def heap_fleet():
    return api.run_fleet(
        api.FleetConfig(queries={"Spanner": 30, "BigTable": 30}, seed=1)
    )


@pytest.fixture
def block_fleet():
    return api.run_fleet(MIXED)


def test_heap_fleet_rows_match_and_stay_compact(heap_fleet):
    rows = raw_rows(heap_fleet)
    compact = [row for row in rows if type(row) is tuple]
    assert compact, "the heap fleet should record compact chunk rows"
    run_id, traces, spans = stored_rows(heap_fleet)
    # The ingest read the compact rows in place: nothing was materialized.
    after = raw_rows(heap_fleet)
    assert len(after) == len(rows)
    assert all(new is old for new, old in zip(after, rows))
    want_traces, want_spans = oracle_rows(run_id, heap_fleet)
    assert traces == want_traces
    assert spans == want_spans
    assert any(row[-1].startswith('{"node": ') for row in spans)


def test_block_fleet_rows_match(block_fleet):
    blocks = [row for row in raw_rows(block_fleet)
              if type(row) is ChunkSpanBlock]
    assert blocks, "the BigQuery run should record span blocks"
    assert_rows_match(block_fleet)


def test_block_rows_store_what_the_heap_engine_stores(block_fleet):
    # An oracle independent of ChunkSpanBlock: the heap engine popping each
    # chunk boundary on its own (the per-boundary lane) records the same
    # chunks as compact tuples, and the draining heap engine's block rows
    # must store the same rows.
    per_chunk = run_reference(MIXED, lanes=(PER_BOUNDARY,))
    assert not any(type(row) is ChunkSpanBlock for row in raw_rows(per_chunk))
    assert any(type(row) is ChunkSpanBlock for row in raw_rows(block_fleet))
    assert stored_rows(block_fleet) == stored_rows(per_chunk)


def test_fault_fleet_error_annotations_match():
    clean = api.run_fleet(
        api.FleetConfig(queries=FAULT_QUERIES, seed=7,
                        bigquery_dataset_rows=1500)
    )
    makespans = {name: clean.platforms[name].env.now for name in FAULT_QUERIES}
    chaos = api.run_fleet(
        api.FleetConfig(
            queries=FAULT_QUERIES,
            seed=7,
            bigquery_dataset_rows=1500,
            fault_plans=canned_mixed_scenario(makespans),
        )
    )
    spans = assert_rows_match(chaos)
    assert any('"error": ' in row[-1] for row in spans)


def test_partly_materialized_trace_matches(block_fleet):
    # A trace read through .spans mid-run holds Span objects for its
    # prefix and compact rows after it; rebuild that state from a real
    # trace with block rows and check the mixed list stores the same rows.
    trace = next(
        trace
        for platform in block_fleet.platforms.values()
        for trace in platform.tracer.finished_traces()
        if any(type(row) is ChunkSpanBlock for row in trace._spans)
    )
    rows = list(trace._spans)
    cut = next(i for i, row in enumerate(rows) if type(row) is ChunkSpanBlock)
    trace._spans = rows[: cut + 1]
    trace.spans  # materialize the prefix, its first block included
    trace._spans.extend(rows[cut + 1:])
    kinds = {type(row).__name__ for row in trace._spans}
    assert "Span" in kinds and len(kinds) > 1, kinds
    assert_rows_match(block_fleet)


def test_node_none_is_not_no_annotations(heap_fleet):
    trace = Trace(10_000, "hand-built", 0.0)
    trace.record("explicit-none", SpanKind.CPU, 0.0, 1.0, node=None)
    trace.record("bare", SpanKind.IO, 1.0, 2.0)
    trace.record_chunk("chunk-without-node", 2.0, 3.0, None, None)
    trace.record_chunk("chunk-on-node", 3.0, 4.0, None, "node-7")
    trace.record("span-on-node", SpanKind.REMOTE, 4.0, 5.0, node="node-7")
    trace.record("both", SpanKind.CPU, 5.0, 6.0, node="node-7", tail=True)
    trace.record("empty", SpanKind.CPU, 6.0, 7.0).annotations  # {} created
    trace.finish(7.0)
    tracer = heap_fleet.platforms["Spanner"].tracer
    trace_ord = len(tracer.finished_traces())
    tracer.extend([trace])
    spans = assert_rows_match(heap_fleet)
    texts = {
        row[6]: row[-1]
        for row in spans
        if row[1] == "Spanner" and row[2] == trace_ord
    }
    assert texts == {
        "explicit-none": '{"node": null}',
        "bare": "{}",
        "chunk-without-node": "{}",
        "chunk-on-node": '{"node": "node-7"}',
        "span-on-node": '{"node": "node-7"}',
        "both": '{"node": "node-7", "tail": true}',
        "empty": "{}",
    }
