"""Dapper-style RPC trace logging (Section 4.1 methodology).

Every query executed by a platform simulator opens a :class:`Trace`; the
simulator (and the RPC / storage layers underneath it) records :class:`Span`
intervals tagged with what the server was doing: local CPU work, distributed
storage IO, or waiting on remote workers.  Spans may overlap freely -- the
attribution policy that resolves overlaps lives in
:mod:`repro.profiling.breakdown`, matching the paper's "remote first, then
IO, then CPU" rule.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator

__all__ = ["SpanKind", "Span", "ChunkSpanBlock", "Trace", "Tracer", "BLOCK_MIN"]

#: The chunk-run size from which CPU work is carried as columns: the chunker
#: emits a ``ChunkBlock`` for budgets of at least this many full chunks, a
#: heap drain of at least this many boundaries appends one
#: :class:`ChunkSpanBlock`.  Shorter runs stay per-chunk lists and tuples,
#: which are cheaper than numpy's call cost at that size.
BLOCK_MIN = 64


class SpanKind(enum.Enum):
    """What a span's wall-clock interval was spent on."""

    CPU = "cpu"
    IO = "io"
    REMOTE = "remote"


class Span:
    """One timed interval within a trace.

    A plain slotted class (not a dataclass): fleet runs record one span per
    CPU micro-chunk, so construction cost and per-instance footprint matter.
    The annotations dict is allocated lazily on first access.
    """

    __slots__ = ("span_id", "parent_id", "name", "kind", "start", "end", "_annotations")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        kind: SpanKind,
        start: float,
        end: float | None = None,
        annotations: dict | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end = end
        self._annotations = annotations

    @property
    def annotations(self) -> dict:
        if self._annotations is None:
            self._annotations = {}
        return self._annotations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(span_id={self.span_id}, parent_id={self.parent_id}, "
            f"name={self.name!r}, kind={self.kind}, start={self.start}, "
            f"end={self.end}, annotations={self._annotations or {}})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return (
            self.span_id == other.span_id
            and self.parent_id == other.parent_id
            and self.name == other.name
            and self.kind == other.kind
            and self.start == other.start
            and self.end == other.end
            and (self._annotations or {}) == (other._annotations or {})
        )

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end - self.start

    def finish(self, when: float) -> "Span":
        if self.end is not None:
            raise ValueError(f"span {self.name!r} already finished")
        if when < self.start:
            raise ValueError(
                f"span {self.name!r} cannot end at {when} before start {self.start}"
            )
        self.end = when
        return self


class ChunkSpanBlock:
    """Compact span storage for one drained run of coalesced CPU chunks.

    Appended by a block batch recorder: one row stands in for the ``hi -
    lo`` chunk spans of one drain.  ``source`` is the recorder itself
    (duck-typed: ``.ends`` -- Python-float chunk end times, ``.ends_arr``
    -- the same as a numpy column, ``.start``, and ``.chunks`` -- the
    ``ChunkBlock`` whose name table and ``perm`` give each chunk's
    function).  Span ids are the consecutive range ``first_id ..
    first_id + (hi - lo) - 1`` consumed from the trace's counter at drain
    time, so materialized spans are byte-identical (ids, names, bounds,
    annotations) to per-chunk tuple rows.
    """

    __slots__ = ("first_id", "parent_id", "node", "source", "lo", "hi")

    def __init__(self, first_id, parent_id, node, source, lo, hi):
        self.first_id = first_id
        self.parent_id = parent_id
        self.node = node
        self.source = source
        self.lo = lo
        self.hi = hi

    def rows(self) -> Iterator[tuple]:
        """The block's chunk spans as compact rows (see :meth:`Trace.rows`)."""
        source = self.source
        ends = source.ends
        block = source.chunks
        node = self.node
        parent_id = self.parent_id
        lo = self.lo
        hi = self.hi
        # Chunk 0's span starts at batch start (covering queue wait), chunk
        # k's at chunk k-1's end -- the same bounds the per-entry path emits.
        prev = source.start if lo == 0 else ends[lo - 1]
        names = block._name_table().__getitem__
        perm = block.perm
        span_id = self.first_id
        for function, end in zip(map(names, perm[lo:hi].tolist()), ends[lo:hi]):
            yield (span_id, parent_id, function, SpanKind.CPU, prev, end, node)
            span_id += 1
            prev = end


def _span_from_row(row: tuple) -> Span:
    """The :class:`Span` a compact chunk row stands for."""
    span_id, parent_id, name, kind, start, end, node = row
    return Span(
        span_id, parent_id, name, kind, start, end,
        {"node": node} if node is not None else None,
    )


class Trace:
    """The spans of one query, forming a tree via parent ids.

    Internally ``_spans`` may hold three representations: full :class:`Span`
    objects, compact tuples ``(span_id, parent_id, name, kind, start,
    end, node)`` appended by :meth:`record_chunk` and short batch drains on
    the CPU hot path, and :class:`ChunkSpanBlock` rows appended by long
    block drains (each standing in for a whole run of chunk spans).
    Compact rows are materialized into (cached) ``Span`` objects the first
    time :attr:`spans` is read, so every public API still deals in spans.
    """

    def __init__(self, trace_id: int, name: str, start: float):
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self._spans: list = []
        self._span_ids = itertools.count()
        self.annotations: dict = {}

    def start_span(
        self,
        name: str,
        kind: SpanKind,
        when: float,
        parent: Span | None = None,
    ) -> Span:
        span = Span(
            span_id=next(self._span_ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            kind=kind,
            start=when,
        )
        self._spans.append(span)
        return span

    def record(
        self,
        name: str,
        kind: SpanKind,
        start: float,
        end: float,
        parent: Span | None = None,
        **annotations,
    ) -> Span:
        """Record an already-finished interval in one call."""
        if end < start:
            raise ValueError(
                f"span {name!r} cannot end at {end} before start {start}"
            )
        span = Span(
            span_id=next(self._span_ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            kind=kind,
            start=start,
            end=end,
            annotations=annotations or None,
        )
        self._spans.append(span)
        return span

    def record_chunk(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: int | None,
        node: str | None,
    ) -> None:
        """Append a finished CPU chunk as a compact row (hot path).

        Skips the :class:`Span` allocation and validation of :meth:`record`;
        the caller (the coalesced-batch recorder) guarantees ``end >= start``.
        """
        self._spans.append(
            (next(self._span_ids), parent_id, name, SpanKind.CPU, start, end, node)
        )

    def finish(self, when: float) -> "Trace":
        if self.end is not None:
            raise ValueError(f"trace {self.trace_id} already finished")
        self.end = when
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError("trace not finished")
        return self.end - self.start

    @property
    def spans(self) -> tuple[Span, ...]:
        spans = self._spans
        expanded = None
        for index, span in enumerate(spans):
            row_type = type(span)
            if row_type is tuple:
                span = _span_from_row(span)
                if expanded is None:
                    spans[index] = span
                else:
                    expanded.append(span)
            elif row_type is ChunkSpanBlock:
                if expanded is None:
                    # Block rows expand to multiple spans: rebuild the list
                    # (keeping the already-materialized prefix) and cache it.
                    expanded = spans[:index]
                expanded.extend(map(_span_from_row, span.rows()))
                # Let go of the block now, as the tuple path lets go of each
                # tuple, so a run's columns are freed once all its blocks are
                # expanded rather than after the whole trace.
                spans[index] = None
            elif expanded is not None:
                expanded.append(span)
        if expanded is not None:
            # In place: a batch still recording appends to this very list.
            spans[:] = expanded
        return tuple(spans)

    def rows(self) -> Iterator[tuple]:
        """Every span as a row ``(span_id, parent_id, name, kind, start,
        end, annotations)``, in :attr:`spans` order, without creating or
        caching :class:`Span` objects.

        For a compact chunk row the last field is its node (a string, or
        ``None``), standing for ``{"node": node}`` (or no annotations); for
        a recorded :class:`Span` it is the annotations dict, or ``None``
        when the span has none.
        """
        for span in self._spans:
            row_type = type(span)
            if row_type is tuple:
                yield span
            elif row_type is ChunkSpanBlock:
                yield from span.rows()
            else:
                yield (
                    span.span_id,
                    span.parent_id,
                    span.name,
                    span.kind,
                    span.start,
                    span.end,
                    span._annotations,
                )

    def spans_of_kind(self, kind: SpanKind) -> Iterator[Span]:
        return (span for span in self.spans if span.kind is kind)

    def error_spans(self) -> list[Span]:
        """Spans tagged with an ``error`` annotation (fault visibility)."""
        return [span for span in self.spans if "error" in span.annotations]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


class Tracer:
    """Collects traces across the fleet, with optional 1-in-N sampling.

    The paper samples one-thousandth of all queries for Spanner and BigTable
    (Section 4.1); ``sample_rate=1000`` reproduces that: only every 1000th
    query gets a trace, the rest return ``None`` and run untraced.
    """

    def __init__(self, sample_rate: int = 1):
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        self.sample_rate = sample_rate
        self._trace_ids = itertools.count()
        self._seen = 0
        self._traces: list[Trace] = []

    def start_trace(self, name: str, when: float) -> Trace | None:
        """Begin a trace for a new query, or ``None`` if sampled out."""
        self._seen += 1
        if (self._seen - 1) % self.sample_rate != 0:
            return None
        trace = Trace(next(self._trace_ids), name, when)
        self._traces.append(trace)
        return trace

    @property
    def queries_seen(self) -> int:
        return self._seen

    @property
    def traces(self) -> tuple[Trace, ...]:
        return tuple(self._traces)

    def finished_traces(self) -> list[Trace]:
        return [trace for trace in self._traces if trace.finished]

    def drain_finished(self) -> list[Trace]:
        """Remove and return finished traces, keeping in-flight ones.

        Trace and span id counters keep running, so draining between
        rolling windows never changes the ids later traces would have
        received -- a drained stream concatenates to the undrained one.
        """
        finished: list[Trace] = []
        in_flight: list[Trace] = []
        for trace in self._traces:
            (finished if trace.finished else in_flight).append(trace)
        self._traces = in_flight
        return finished

    def extend(self, traces: Iterable[Trace]) -> None:
        """Merge traces collected by another tracer shard."""
        self._traces.extend(traces)
