"""Shared platform machinery: query plans, CPU chunking, and the base class.

How calibration meets mechanics
-------------------------------

Each platform's workload generator draws a per-query *budget* -- CPU,
remote-work and IO seconds plus an overlap factor, sampled around the
calibrated query-group aggregates (:mod:`repro.workloads.calibration`).
The platform simulator then *realizes* the budget through its own real
distributed machinery:

* CPU seconds are burned on server cores, split across the fine-grained
  taxonomy categories in the calibrated proportions and charged under
  representative leaf-function names (so GWP sampling + categorization
  recovers Figures 3-6);
* remote-work seconds are realized by repeating the platform's actual
  remote operations (Paxos rounds, compaction hand-offs, shuffles) until
  the budget is consumed;
* IO seconds are realized by DFS reads against the tiered stores.

Overlap between CPU and non-CPU time (Equation 1's ``f``) is realized by
running a slice of the CPU work concurrently with the dependency phase.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Generator, Iterable, Mapping, Sequence

import numpy as np

from repro.cluster.node import NodeDown, ServerNode, WorkContext
from repro.cluster.rpc import RpcError
from repro.core.profile import PlatformProfile, QueryGroupProfile
from repro.platforms.functions import functions_for
from repro.profiling.dapper import BLOCK_MIN, SpanKind, Tracer
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment, Interrupt, all_of

__all__ = [
    "QueryPlan",
    "CpuChunker",
    "ChunkBlock",
    "ColumnarCpuChunker",
    "PlatformBase",
    "QueryRecord",
]

#: Valid values for ``FleetConfig.engine`` / ``ServeConfig.engine``.
ENGINES = ("heap",)


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """One query's sampled budget."""

    kind: str
    group: str
    t_cpu: float
    t_remote: float
    t_io: float
    f: float

    @property
    def t_dep(self) -> float:
        return self.t_remote + self.t_io

    @property
    def overlap_budget(self) -> float:
        """CPU seconds to run concurrently with the dependency phase."""
        return (1.0 - self.f) * min(self.t_cpu, self.t_dep)


class CpuChunker:
    """Splits a CPU budget into categorized (function, duration) chunks."""

    def __init__(
        self,
        component_fractions: Mapping[str, float],
        *,
        chunk_seconds: float = 100e-6,
        rng: np.random.Generator | None = None,
    ):
        if not component_fractions:
            raise ValueError("component_fractions must not be empty")
        total = sum(component_fractions.values())
        if total <= 0:
            raise ValueError("component fractions must sum to a positive value")
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        self._fractions = {
            key: value / total for key, value in component_fractions.items()
        }
        self._chunk_seconds = chunk_seconds
        self._rng = rng or np.random.default_rng(0)
        self._pools = {key: tuple(functions_for(key)) for key in self._fractions}
        #: Rotation position per category: each category's chunks take the
        #: next names of its function pool, wrapping around.
        self._offsets = {key: 0 for key in self._fractions}

    def chunks(self, t_cpu: float) -> list[tuple[str, float]]:
        """Interleaved chunks covering ``t_cpu`` seconds in calibrated shares.

        Category budgets are exact (each category gets precisely its share);
        chunks are emitted in a deterministic round-robin interleave so a
        sampling profiler sees categories mixed, not batched.
        """
        if t_cpu < 0:
            raise ValueError("t_cpu must be non-negative")
        if t_cpu == 0:
            return []
        pieces: list[tuple[str, float]] = []
        chunk_seconds = self._chunk_seconds
        append = pieces.append
        offsets = self._offsets
        for key, fraction in self._fractions.items():
            budget = fraction * t_cpu
            pool = self._pools[key]
            size = len(pool)
            offset = offsets[key]
            # Same floats as the naive min()-loop: full chunks subtract
            # iteratively and the remainder is whatever is left.
            while budget > chunk_seconds:
                append((pool[offset], chunk_seconds))
                offset = offset + 1 if offset + 1 < size else 0
                budget -= chunk_seconds
            if budget > 0:
                append((pool[offset], budget))
                offset = offset + 1 if offset + 1 < size else 0
            offsets[key] = offset
        self._rng.shuffle(pieces)
        return pieces

    def split(
        self, chunks: Sequence[tuple[str, float]], first_budget: float
    ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
        """Split a chunk list so the first part totals ~``first_budget``."""
        # Once the accumulated duration reaches the budget every remaining
        # chunk goes to ``rest``, so the split point is a single index and
        # the two halves are plain slices.
        acc = 0.0
        cut = 0
        for _, duration in chunks:
            if acc >= first_budget:
                break
            acc += duration
            cut += 1
        return list(chunks[:cut]), list(chunks[cut:])


#: Memoized sub-trace expansion: a category segment's function names are
#: fully determined by (pool, starting offset, chunk count), and the ~60-query
#: fleet repeats those shapes constantly -- pool offsets cycle modulo small
#: pools and repeated query budgets repeat chunk counts.  Expand each shape
#: once and replay the cached tuple.
_EXPANSION_CACHE: dict[tuple, tuple[str, ...]] = {}


def _expand_pool_segment(pool: tuple[str, ...], offset: int, count: int) -> tuple[str, ...]:
    key = (pool, offset, count)
    names = _EXPANSION_CACHE.get(key)
    if names is None:
        if len(_EXPANSION_CACHE) > 4096:  # pragma: no cover - bounded cache
            _EXPANSION_CACHE.clear()
        size = len(pool)
        names = tuple(pool[(offset + i) % size] for i in range(count))
        _EXPANSION_CACHE[key] = names
    return names


class ChunkBlock:
    """Struct-of-arrays chunk run: the columnar chunker's output.

    Duck-types the ``list[(function, duration)]`` the list chunker emits --
    ``len``, truthiness, indexing, slicing and iteration all yield identical
    values -- while storing durations in one shuffled float64 column.
    Function names are not materialized: ``perm`` maps shuffled positions
    back to the unshuffled category layout described by ``segments`` (tuples
    of ``(segment start, function pool, pool offset)`` over the source
    range), and names resolve lazily through the memoized expansion cache.
    """

    __slots__ = ("durations", "perm", "segments", "source_len", "_starts", "_names")

    def __init__(self, durations, perm, segments, source_len, names=None):
        self.durations = durations
        self.perm = perm
        self.segments = segments
        self.source_len = source_len
        self._starts = [seg[0] for seg in segments]
        #: Cached unshuffled name table covering the source range.
        self._names = names

    def __len__(self) -> int:
        return len(self.durations)

    def __bool__(self) -> bool:
        return len(self.durations) > 0

    def function_at(self, k: int) -> str:
        j = int(self.perm[k])
        seg_start, pool, offset = self.segments[bisect_right(self._starts, j) - 1]
        return pool[(offset + (j - seg_start)) % len(pool)]

    def _name_table(self) -> list[str]:
        names = self._names
        if names is None:
            names = []
            segments = self.segments
            for index, (seg_start, pool, offset) in enumerate(segments):
                stop = (
                    segments[index + 1][0]
                    if index + 1 < len(segments)
                    else self.source_len
                )
                names.extend(_expand_pool_segment(pool, offset, stop - seg_start))
            self._names = names
        return names

    def pairs(self, lo: int = 0) -> list[tuple[str, float]]:
        """Materialize (function, duration) tuples -- the list representation."""
        names = self._name_table()
        return [
            (names[j], duration)
            for j, duration in zip(
                self.perm[lo:].tolist(), self.durations[lo:].tolist()
            )
        ]

    def __iter__(self):
        return iter(self.pairs())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return ChunkBlock(
                self.durations[key],
                self.perm[key],
                self.segments,
                self.source_len,
                self._names,
            )
        return self.function_at(key), float(self.durations[key])


class ColumnarCpuChunker(CpuChunker):
    """A :class:`CpuChunker` emitting :class:`ChunkBlock` columns for large
    budgets.

    Budgets under :data:`~repro.profiling.dapper.BLOCK_MIN` full chunks
    (OLTP queries are) take the list chunker, whose plain Python is an
    order of magnitude cheaper than numpy's per-call cost at that size.
    Larger ones get byte-identical output (same RNG draws, same float
    chains, same function rotation) with vectorized construction: full-chunk
    runs are views into cached fill templates, the per-category chunk count
    comes from one cumulative sum reproducing the iterative
    ``budget -= chunk_seconds`` loop bitwise, and the shuffle permutes an
    index column (numpy's Fisher-Yates draws are identical for an array and
    a list of the same length).  Both paths advance one rotation state, so
    the cutoff depends on the budget alone.
    """

    #: chunk_seconds -> readonly constant columns, grown geometrically; every
    #: full-chunk run in every query is a view into these.
    _fill_cache: dict[float, np.ndarray] = {}
    _neg_cache: dict[float, np.ndarray] = {}

    @staticmethod
    def _column(cache: dict, value: float, count: int) -> np.ndarray:
        arr = cache.get(value)
        if arr is None or len(arr) < count:
            size = max(count, 1024 if arr is None else 2 * len(arr))
            arr = np.full(size, value)
            arr.setflags(write=False)
            cache[value] = arr
        return arr[:count]

    def chunks(self, t_cpu: float) -> list[tuple[str, float]] | ChunkBlock:
        chunk_seconds = self._chunk_seconds
        if t_cpu < BLOCK_MIN * chunk_seconds:
            # Fewer than BLOCK_MIN full chunks fit.  No chunk is longer than
            # chunk_seconds, so every run of fewer than BLOCK_MIN chunks
            # lands here.
            return super().chunks(t_cpu)
        segments: list[tuple[int, tuple[str, ...], int]] = []
        columns: list[np.ndarray] = []
        total = 0
        for key, fraction in self._fractions.items():
            budget = fraction * t_cpu
            if budget > chunk_seconds:
                guess = int(budget / chunk_seconds) + 2
                while True:
                    neg = self._column(self._neg_cache, -chunk_seconds, guess)
                    # partials[k] is the budget after k full chunks -- the
                    # same float chain as the iterative `budget -= c` loop,
                    # which stops at the first k with partials[k] <= c.
                    partials = np.cumsum(np.concatenate(((budget,), neg)))
                    n_full = int(np.argmax(partials <= chunk_seconds))
                    if n_full:  # partials[0] = budget > c, so 0 means "not found"
                        break
                    guess *= 2  # pragma: no cover - margin covers rounding
                remainder = float(partials[n_full])
            else:
                n_full = 0
                remainder = budget
            count = n_full + (1 if remainder > 0 else 0)
            if not count:
                continue
            pool = self._pools[key]
            offset = self._offsets[key]
            self._offsets[key] = (offset + count) % len(pool)
            segments.append((total, pool, offset))
            if n_full:
                columns.append(self._column(self._fill_cache, chunk_seconds, n_full))
            if remainder > 0:
                columns.append(np.array((remainder,)))
            total += count
        perm = np.arange(total)
        self._rng.shuffle(perm)
        durations = (
            np.concatenate(columns) if columns else np.empty(0)
        )[perm]
        return ChunkBlock(durations, perm, tuple(segments), total)

    def split(self, chunks, first_budget: float):
        if not isinstance(chunks, ChunkBlock):
            return super().split(chunks, first_budget)
        n = len(chunks)
        cut = 0
        if n and first_budget > 0:
            # acc[k] is the running total after k+1 chunks (same float adds
            # as the iterative loop); the list path cuts at the first prefix
            # whose total reaches the budget.
            acc = np.cumsum(chunks.durations)
            i = int(np.searchsorted(acc, first_budget, side="left"))
            cut = i + 1 if i < n else n
        return chunks[:cut], chunks[cut:]


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """The platform's own log line for one served query."""

    kind: str
    group: str
    started: float
    finished: float
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.finished - self.started

    @property
    def failed(self) -> bool:
        return self.error is not None


class PlatformBase:
    """Common wiring for the three platform simulators.

    Subclasses implement :meth:`_execute` -- a simulation process realizing
    one :class:`QueryPlan` with the platform's machinery -- and
    :meth:`plan_query` if they need custom query-kind selection.
    """

    #: Subclasses set the platform name used in profiles and telemetry.
    platform_name: str = "AbstractPlatform"

    def __init__(
        self,
        env: Environment,
        profile: PlatformProfile,
        *,
        tracer: Tracer | None = None,
        profiler: FleetProfiler | None = None,
        seed: int = 0,
        jitter: float = 0.08,
        offload=None,
        offload_model=None,
        metrics=None,
    ):
        self.env = env
        self.profile = profile
        self.tracer = tracer or Tracer()
        self.profiler = profiler
        #: Optional :class:`repro.observability.MetricsRegistry`.  Observers
        #: only ever *read* simulation state and *write* the registry, so
        #: measurements are identical whether or not this is set.
        self.metrics = metrics
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.jitter = jitter
        #: Optional accelerator offload: an
        #: :class:`repro.accel.offload.OffloadRuntime` plus an
        #: :class:`repro.accel.complex.InvocationModel`.  When set, CPU
        #: chunks whose category the complex covers execute on accelerators
        #: instead of cores -- the simulated counterpart of the Section 6
        #: acceleration studies.
        self.offload = offload
        self.offload_model = offload_model
        self.chunker = ColumnarCpuChunker(
            profile.cpu_component_fractions, rng=np.random.default_rng(seed + 1)
        )
        self.records: list[QueryRecord] = []
        self._group_choices = [group.name for group in profile.groups]
        self._group_weights = np.array(
            [group.query_fraction for group in profile.groups]
        )
        self._group_weights = self._group_weights / self._group_weights.sum()

    # -- budget sampling -----------------------------------------------------

    def _jittered(self, value: float) -> float:
        if value <= 0 or self.jitter <= 0:
            return max(0.0, value)
        return float(value * self.rng.lognormal(mean=0.0, sigma=self.jitter))

    def _pick_group(self) -> QueryGroupProfile:
        name = self.rng.choice(self._group_choices, p=self._group_weights)
        return self.profile.group(str(name))

    def plan_query(self) -> QueryPlan:
        """Sample a query budget around the calibrated group aggregates."""
        group = self._pick_group()
        return QueryPlan(
            kind=self.default_kind_for(group),
            group=group.name,
            t_cpu=self._jittered(group.t_cpu),
            t_remote=self._jittered(group.t_remote),
            t_io=self._jittered(group.t_io),
            f=group.f,
        )

    def default_kind_for(self, group: QueryGroupProfile) -> str:
        return "query"

    def seed_query_streams(self, index: int) -> None:
        """Rebase the plan and chunker RNGs onto per-query streams.

        The sharded fleet runner serves contiguous query-index ranges on
        fresh platform instances, so budget draws must depend on the
        *query index*, not on how many queries this instance served
        before.  Deriving both streams from ``(platform seed, index)``
        (the same prefix-stable construction as the profiler's counter
        jitter) makes a query's plan identical no matter which sub-shard
        -- and therefore which worker -- executes it.
        """
        root = self.seed & 0xFFFFFFFF
        self.rng = np.random.default_rng([root, 0x5EED, index])
        self.chunker = ColumnarCpuChunker(
            self.profile.cpu_component_fractions,
            rng=np.random.default_rng([root, 0xC41C, index]),
        )

    # -- execution -----------------------------------------------------------

    def _execute(self, ctx: WorkContext, plan: QueryPlan) -> Generator:
        raise NotImplementedError

    def run_query(self, plan: QueryPlan | None = None) -> Generator:
        """Simulation process: serve one query end to end.

        A query that hits an injected fault (node crash, partition, failed
        RPC, dead storage) fails *individually*: the failure is recorded as
        an error-tagged span and an annotated trace, and the serving loop
        carries on with the next query -- the fleet survives chaos.
        """
        plan = plan or self.plan_query()
        started = self.env.now
        trace = self.tracer.start_trace(f"{self.platform_name}:{plan.kind}", started)
        ctx = WorkContext(
            platform=self.platform_name,
            trace=trace,
            profiler=self.profiler,
            metrics=self.metrics,
        )
        result = None
        error: str | None = None
        try:
            result = yield from self._execute(ctx, plan)
        except (Interrupt, NodeDown, RpcError, IOError) as exc:
            error = type(exc).__name__
            span_kind = SpanKind.IO if isinstance(exc, IOError) else SpanKind.REMOTE
            ctx.record_span(
                f"{self.platform_name.lower()}:query-failed",
                span_kind,
                started,
                self.env.now,
                error=error,
                detail=str(exc),
            )
        finished = self.env.now
        if trace is not None:
            trace.finish(finished)
            trace.annotations["group"] = plan.group
            trace.annotations["kind"] = plan.kind
            if error is not None:
                trace.annotations["error"] = error
        self.records.append(
            QueryRecord(
                kind=plan.kind,
                group=plan.group,
                started=started,
                finished=finished,
                error=error,
            )
        )
        if self.metrics is not None:
            self.metrics.inc(
                "repro_queries_total",
                "Queries served, by query group and kind",
                platform=self.platform_name,
                group=plan.group,
                kind=plan.kind,
            )
            if error is not None:
                self.metrics.inc(
                    "repro_query_failures_total",
                    "Queries that failed under injected faults",
                    platform=self.platform_name,
                    error=error,
                )
            self.metrics.observe(
                "repro_query_latency_seconds",
                finished - started,
                "End-to-end query latency",
                platform=self.platform_name,
            )
        return result

    def serve(
        self,
        query_count: int,
        *,
        interarrival: float = 0.0,
        start_index: int = 0,
        per_query_streams: bool = False,
    ) -> Generator:
        """Simulation process: serve a stream of queries.

        ``interarrival`` of 0 runs queries back to back (closed loop); a
        positive value opens the loop with exponential arrivals.

        ``per_query_streams`` reseeds the plan/chunker RNGs per query
        from ``(platform seed, start_index + offset)`` (see
        :meth:`seed_query_streams`) -- the sharded runner's mode, where
        this instance serves the index range ``[start_index,
        start_index + query_count)`` of a larger stream.  Only supported
        closed-loop: open-loop arrival draws would interleave with the
        per-query streams nondeterministically.
        """
        if query_count < 0:
            raise ValueError("query_count must be non-negative")
        if interarrival < 0:
            raise ValueError("interarrival must be non-negative")
        if per_query_streams and interarrival != 0:
            raise ValueError("per_query_streams requires a closed loop")
        if interarrival == 0:
            for offset in range(query_count):
                if per_query_streams:
                    self.seed_query_streams(start_index + offset)
                yield from self.run_query()
            return
        in_flight = []
        for _ in range(query_count):
            in_flight.append(self.env.process(self.run_query()))
            gap = float(self.rng.exponential(interarrival))
            yield self.env.timeout(gap)
        if in_flight:
            yield all_of(self.env, in_flight)

    # -- budget realization helpers -------------------------------------------

    def burn_cpu(
        self,
        ctx: WorkContext,
        node: ServerNode,
        chunks: Iterable[tuple[str, float]],
    ) -> Generator:
        """Execute categorized CPU chunks on a node.

        Uncontended chunk runs execute as one scheduled event per run
        (:meth:`ServerNode.compute_batch` / :meth:`ServerNode.compute_block`)
        with byte-identical measurements -- see docs/performance.md for the
        invariants.  With accelerator offload configured, chunks whose
        category the complex covers run on accelerator units under the
        configured invocation model; the rest stay on the node's cores.
        """
        if isinstance(chunks, ChunkBlock):
            if self.offload is None:
                yield from node.compute_block(ctx, chunks)
                return
            # Offloaded runs use the list representation -- they are
            # re-categorized anyway, and the materialized pairs are
            # byte-identical to the list chunker's.
            chunks = chunks.pairs()
        else:
            chunks = list(chunks)
        if self.offload is None:
            yield from node.compute_batch(ctx, chunks)
            return
        from repro.profiling.categories import default_categorizer

        categorizer = default_categorizer()
        offloadable: list[tuple[str, float]] = []
        residual: list[tuple[str, float]] = []
        for function, duration in chunks:
            key = categorizer.categorize(function)
            if self.offload.complex.can_accelerate(key):
                offloadable.append((key, duration))
            else:
                residual.append((function, duration))
        if offloadable:
            start = self.env.now
            yield from self.offload.complex.run(
                offloadable, self.offload_model, elements=16
            )
            ctx.record_span(
                "accel:offload",
                SpanKind.CPU,
                start,
                self.env.now,
                accelerated=True,
                items=len(offloadable),
            )
        yield from node.compute_batch(ctx, residual)

    def overlap_phase(
        self,
        ctx: WorkContext,
        node: ServerNode,
        dep_process: Generator,
        overlap_chunks: list[tuple[str, float]],
        name: str,
    ) -> Generator:
        """Run the dependency phase with a CPU slice overlapped onto it."""
        dep = self.env.process(dep_process, name=f"{name}:dep")
        siblings = [dep]
        if overlap_chunks:
            cpu = self.env.process(
                self.burn_cpu(ctx, node, overlap_chunks), name=f"{name}:overlap-cpu"
            )
            siblings.append(cpu)
        try:
            if len(siblings) > 1:
                yield all_of(self.env, siblings)
            else:
                yield dep
        except BaseException:
            # One side failed (or we were interrupted by a fault): reap the
            # survivors so orphaned subprocesses don't keep running.
            for sibling in siblings:
                if sibling.is_alive:
                    sibling.interrupt("query failed")
            raise

    def realize_budget(
        self,
        ctx: WorkContext,
        budget: float,
        op_factory,
        *,
        tail_name: str,
        tail_kind,
    ) -> Generator:
        """Spend a wall-clock budget on real operations plus a tail wait.

        ``op_factory(remaining)`` returns a simulation generator for the next
        real operation, or ``None`` when no operation fits the remaining
        budget.  Whatever budget real operations cannot granularly cover is
        realized as one final wait span (the long tail of smaller events a
        coarse-grained simulator cannot individually represent), annotated
        ``tail=True`` so analyses can quantify it.
        """
        if budget < 0:
            raise ValueError("budget must be non-negative")
        start = self.env.now
        while True:
            remaining = budget - (self.env.now - start)
            if remaining <= 0:
                return
            op = op_factory(remaining)
            if op is None:
                tail_start = self.env.now
                yield self.env.timeout(remaining)
                ctx.record_span(tail_name, tail_kind, tail_start, self.env.now, tail=True)
                return
            before = self.env.now
            yield from op
            if self.env.now <= before:
                # The operation made no simulated progress (e.g. a no-op
                # compaction); fall back to the tail wait to avoid spinning.
                tail_start = self.env.now
                remaining = budget - (self.env.now - start)
                if remaining > 0:
                    yield self.env.timeout(remaining)
                    ctx.record_span(
                        tail_name, tail_kind, tail_start, self.env.now, tail=True
                    )
                return

    # -- reporting -------------------------------------------------------------

    @property
    def queries_served(self) -> int:
        return len(self.records)

    def mean_latency(self) -> float:
        if not self.records:
            raise ValueError("no queries served")
        return sum(record.latency for record in self.records) / len(self.records)
