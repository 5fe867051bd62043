"""End-to-end and CPU-cycle breakdown aggregation (Sections 4.2 and 5.2).

Two aggregations live here:

* :func:`trace_breakdown` + :class:`E2EBreakdown` -- Figure 2.  A query's
  trace is reduced to (cpu, remote, io) seconds with overlapped wall-clock
  attributed in the paper's priority order (remote work, then IO, then CPU);
  queries are then classified into the four groups of Section 4.2.
* :class:`CpuCycleBreakdown` -- Figures 3-6.  GWP samples are aggregated
  into cycle fractions per broad and fine category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import taxonomy
from repro.profiling.dapper import ChunkSpanBlock, SpanKind, Trace

__all__ = [
    "QueryBreakdown",
    "trace_breakdown",
    "classify_query",
    "E2EBreakdown",
    "CpuCycleBreakdown",
]

CPU_HEAVY = "CPU Heavy"
IO_HEAVY = "IO Heavy"
REMOTE_HEAVY = "Remote Work Heavy"
OTHERS = "Others"


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    total += current_end - current_start
    return total


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start > last_end:
            merged.append((start, end))
        else:
            merged[-1] = (last_start, max(last_end, end))
    return merged


def _subtract(
    intervals: list[tuple[float, float]], holes: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Set difference of interval unions (both inputs already merged)."""
    result: list[tuple[float, float]] = []
    hole_index = 0
    for start, end in intervals:
        cursor = start
        while hole_index < len(holes) and holes[hole_index][1] <= cursor:
            hole_index += 1
        i = hole_index
        while i < len(holes) and holes[i][0] < end:
            hole_start, hole_end = holes[i]
            if hole_start > cursor:
                result.append((cursor, min(hole_start, end)))
            cursor = max(cursor, hole_end)
            if cursor >= end:
                break
            i += 1
        if cursor < end:
            result.append((cursor, end))
    return [iv for iv in result if iv[1] > iv[0]]


@dataclass(frozen=True, slots=True)
class QueryBreakdown:
    """One query's attributed end-to-end decomposition."""

    name: str
    t_e2e: float
    t_cpu: float
    t_remote: float
    t_io: float
    t_unattributed: float = 0.0
    overlap_hidden: float = 0.0

    @property
    def cpu_fraction(self) -> float:
        return self.t_cpu / self.t_e2e if self.t_e2e else 0.0

    @property
    def remote_fraction(self) -> float:
        return self.t_remote / self.t_e2e if self.t_e2e else 0.0

    @property
    def io_fraction(self) -> float:
        return self.t_io / self.t_e2e if self.t_e2e else 0.0

    @property
    def group(self) -> str:
        return classify_query(self)


DEFAULT_ATTRIBUTION_ORDER: tuple[SpanKind, ...] = (
    SpanKind.REMOTE,
    SpanKind.IO,
    SpanKind.CPU,
)


def trace_breakdown(
    trace: Trace,
    *,
    attribution_order: tuple[SpanKind, ...] = DEFAULT_ATTRIBUTION_ORDER,
) -> QueryBreakdown:
    """Attribute a trace's wall-clock per the Section 4.1 policy.

    Overlapped time is categorized "first into remote work, then IO, then
    CPU time, assuming that CPU time was blocked on remote work and IO".
    ``overlap_hidden`` reports how much raw span time the policy discarded
    (total span seconds minus attributed seconds) -- this is the measured
    CPU/non-CPU overlap that feeds Equation 1's sync factor ``f``.

    ``attribution_order`` exists for the ablation study: permuting it
    changes which class absorbs overlapped intervals.
    """
    if sorted(k.value for k in attribution_order) != sorted(k.value for k in SpanKind):
        raise ValueError("attribution_order must be a permutation of SpanKind")
    if not trace.finished:
        raise ValueError(f"trace {trace.trace_id} not finished")
    cpu_intervals: list[tuple[float, float]] = []
    io_intervals: list[tuple[float, float]] = []
    remote_intervals: list[tuple[float, float]] = []
    raw_total = 0.0
    # Iterate the trace's internal storage: compact chunk rows (tuples, see
    # Trace.record_chunk) are read positionally without materializing Spans.
    # Consecutive chunk rows of one coalesced batch abut exactly (each starts
    # where the previous ended), so adjacent runs are collapsed into one
    # interval here -- the later union/subtract passes then sort hundreds of
    # intervals instead of hundreds of thousands.
    run_start = run_end = None
    for span in trace._spans:
        row_type = type(span)
        if row_type is tuple:
            start = span[4]
            end = span[5]
            if end > start:
                raw_total += end - start
                if start == run_end:
                    run_end = end
                else:
                    if run_start is not None:
                        cpu_intervals.append((run_start, run_end))
                    run_start, run_end = start, end
            continue
        if row_type is ChunkSpanBlock:
            # A drained chunk run, read without materializing spans.  The
            # chunks abut exactly, so their positive spans collapse into
            # one interval, and raw_total folds the same positive durations
            # the per-tuple path would add, via cumsum partials (bitwise
            # equal).
            src = span.source
            lo = span.lo
            hi = span.hi
            ends_arr = src.ends_arr
            prev0 = src.start if lo == 0 else ends_arr[lo - 1]
            d = np.diff(np.concatenate(((prev0,), ends_arr[lo:hi])))
            mask = d > 0.0
            if mask.any():
                raw_total = float(
                    np.cumsum(np.concatenate(((raw_total,), d[mask])))[-1]
                )
                idx = np.nonzero(mask)[0]
                k0 = lo + int(idx[0])
                k1 = lo + int(idx[-1])
                ends_list = src.ends
                start = src.start if k0 == 0 else ends_list[k0 - 1]
                end = ends_list[k1]
                if start == run_end:
                    run_end = end
                else:
                    if run_start is not None:
                        cpu_intervals.append((run_start, run_end))
                    run_start, run_end = start, end
            continue
        end = span.end
        if end is None:
            raise ValueError(f"span {span.name!r} in trace {trace.trace_id} unfinished")
        start = span.start
        if end > start:
            raw_total += end - start
            kind = span.kind
            if kind is SpanKind.CPU:
                cpu_intervals.append((start, end))
            elif kind is SpanKind.IO:
                io_intervals.append((start, end))
            else:
                remote_intervals.append((start, end))
    if run_start is not None:
        cpu_intervals.append((run_start, run_end))
    by_kind: dict[SpanKind, list[tuple[float, float]]] = {
        SpanKind.CPU: cpu_intervals,
        SpanKind.IO: io_intervals,
        SpanKind.REMOTE: remote_intervals,
    }

    attributed: dict[SpanKind, list[tuple[float, float]]] = {}
    claimed: list[tuple[float, float]] = []
    for kind in attribution_order:
        intervals = _subtract(_union(by_kind[kind]), claimed)
        attributed[kind] = intervals
        claimed = _union(claimed + intervals)

    t_remote = _union_length(list(attributed[SpanKind.REMOTE]))
    t_io = _union_length(list(attributed[SpanKind.IO]))
    t_cpu = _union_length(list(attributed[SpanKind.CPU]))
    t_e2e = trace.duration
    t_unattributed = max(0.0, t_e2e - (t_remote + t_io + t_cpu))
    return QueryBreakdown(
        name=trace.name,
        t_e2e=t_e2e,
        t_cpu=t_cpu,
        t_remote=t_remote,
        t_io=t_io,
        t_unattributed=t_unattributed,
        overlap_hidden=max(0.0, raw_total - (t_remote + t_io + t_cpu)),
    )


def classify_query(breakdown: QueryBreakdown) -> str:
    """Section 4.2 query grouping.

    CPU heavy: > 60% of time on CPU computation.  IO / remote heavy: > 30%
    of time on distributed storage / remote work (ties broken toward the
    larger of the two).  Everything else is "Others".
    """
    if breakdown.cpu_fraction > 0.60:
        return CPU_HEAVY
    io_hit = breakdown.io_fraction > 0.30
    remote_hit = breakdown.remote_fraction > 0.30
    if io_hit and remote_hit:
        return IO_HEAVY if breakdown.io_fraction >= breakdown.remote_fraction else REMOTE_HEAVY
    if io_hit:
        return IO_HEAVY
    if remote_hit:
        return REMOTE_HEAVY
    return OTHERS


@dataclass
class E2EBreakdown:
    """Figure 2 aggregation over many queries of one platform."""

    platform: str
    queries: list[QueryBreakdown] = field(default_factory=list)

    def add(self, breakdown: QueryBreakdown) -> None:
        self.queries.append(breakdown)

    def extend(self, breakdowns: Iterable[QueryBreakdown]) -> None:
        self.queries.extend(breakdowns)

    def __len__(self) -> int:
        return len(self.queries)

    def group_query_fractions(self) -> dict[str, float]:
        """Fraction of queries per group (Figure 2's line plot)."""
        if not self.queries:
            return {}
        counts: dict[str, int] = {}
        for query in self.queries:
            counts[query.group] = counts.get(query.group, 0) + 1
        return {group: count / len(self.queries) for group, count in counts.items()}

    def group_time_breakdown(self, group: str | None = None) -> dict[str, float]:
        """Time-weighted (cpu, remote, io) fractions for one group (or all).

        This is one stacked bar of Figure 2: total attributed seconds in each
        class divided by total end-to-end seconds of the group's queries.
        """
        selected = [
            q for q in self.queries if group is None or q.group == group
        ]
        total = sum(q.t_e2e for q in selected)
        if total == 0:
            return {"cpu": 0.0, "remote": 0.0, "io": 0.0}
        return {
            "cpu": sum(q.t_cpu for q in selected) / total,
            "remote": sum(q.t_remote for q in selected) / total,
            "io": sum(q.t_io for q in selected) / total,
        }

    def overall_breakdown(self) -> dict[str, float]:
        return self.group_time_breakdown(None)


@dataclass
class CpuCycleBreakdown:
    """Figures 3-6 aggregation over GWP samples of one platform."""

    platform: str
    cycles_by_category: dict[str, float] = field(default_factory=dict)

    def add_sample(self, category_key: str, cycles: float) -> None:
        self.cycles_by_category[category_key] = (
            self.cycles_by_category.get(category_key, 0.0) + cycles
        )

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles_by_category.values())

    def broad_fractions(self) -> dict[taxonomy.BroadCategory, float]:
        """Figure 3: fraction of cycles per broad category."""
        total = self.total_cycles
        result = {broad: 0.0 for broad in taxonomy.BroadCategory}
        if total == 0:
            return result
        for key, cycles in self.cycles_by_category.items():
            result[taxonomy.broad_of(key)] += cycles / total
        return result

    def fine_fractions(self, broad: taxonomy.BroadCategory) -> dict[str, float]:
        """Figures 4-6: within-broad-category fraction per fine category."""
        in_broad = {
            key: cycles
            for key, cycles in self.cycles_by_category.items()
            if taxonomy.broad_of(key) is broad
        }
        total = sum(in_broad.values())
        if total == 0:
            return {}
        return {key: cycles / total for key, cycles in in_broad.items()}

    def cpu_fractions(self) -> dict[str, float]:
        """Fraction of all CPU cycles per fine category (model input)."""
        total = self.total_cycles
        if total == 0:
            return {}
        return {
            key: cycles / total for key, cycles in self.cycles_by_category.items()
        }
