"""Server nodes: cores, instrumented CPU execution, and work contexts."""

from __future__ import annotations

from bisect import bisect_left as _bisect_left, bisect_right as _bisect_right
from dataclasses import dataclass, field
from heapq import heappush as _heappush
from itertools import islice
from operator import itemgetter
from typing import Generator, Iterable, Optional

import numpy as np

from repro.cluster.network import Topology
from repro.profiling.dapper import BLOCK_MIN, ChunkSpanBlock, Span, SpanKind, Trace
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment, Event, Interrupt, Resource

__all__ = ["NodeDown", "WorkContext", "ServerNode"]

_CPU = SpanKind.CPU
_first = itemgetter(0)


class NodeDown(RuntimeError):
    """Raised when work is dispatched to (or interrupted by) a crashed node."""

    def __init__(self, node_name: str, message: str = ""):
        super().__init__(message or f"node {node_name!r} is down")
        self.node_name = node_name


@dataclass
class WorkContext:
    """Per-query instrumentation context threaded through platform code.

    Carries the query's Dapper trace (``None`` when the query was sampled
    out) and the fleet profiler.  Platform code never records measurements
    directly -- it executes work through :meth:`ServerNode.compute` and the
    IO/RPC layers, which report here.
    """

    platform: str
    trace: Optional[Trace] = None
    profiler: Optional[FleetProfiler] = None
    parent_span: Optional[Span] = None
    #: Optional observability sink (a
    #: :class:`repro.observability.MetricsRegistry`).  Carried alongside the
    #: trace/profiler so the RPC and storage layers can publish counters
    #: without new plumbing; ``None`` means observability is off.
    metrics: Optional[object] = None

    def child(self, parent_span: Optional[Span]) -> "WorkContext":
        return WorkContext(
            platform=self.platform,
            trace=self.trace,
            profiler=self.profiler,
            parent_span=parent_span,
            metrics=self.metrics,
        )

    def record_span(
        self, name: str, kind: SpanKind, start: float, end: float, **annotations
    ) -> Optional[Span]:
        if self.trace is None or self.trace.finished:
            # A finished trace means the query already completed (or was
            # abandoned after a fault); late spans from orphaned subprocesses
            # must not extend past the trace interval.
            return None
        return self.trace.record(
            name, kind, start, end, parent=self.parent_span, **annotations
        )

    def record_cpu(self, function: str, duration: float, when: float) -> None:
        if self.profiler is not None:
            self.profiler.record_work(self.platform, function, duration, when)


@dataclass
class ServerNode:
    """One homogeneous server: named cores behind a counted resource.

    All CPU execution flows through :meth:`compute`, which contends for a
    core, burns virtual time, reports the work to the fleet profiler under
    its leaf-function name, and records a CPU span on the query's trace.
    """

    env: Environment
    name: str
    topology: Topology
    cores: int = 8
    _core_pool: Resource = field(init=False, repr=False)
    up: bool = field(default=True, init=False)
    crashes: int = field(default=0, init=False)
    _tenants: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("a node needs at least one core")
        self._core_pool = Resource(self.env, capacity=self.cores)

    @property
    def runnable_backlog(self) -> int:
        return self._core_pool.queue_length

    # -- lifecycle (fault injection) ----------------------------------------

    def crash(self) -> None:
        """Take the node down, interrupting every process computing on it.

        Interrupted processes see :class:`~repro.sim.Interrupt` with a
        :class:`NodeDown` cause at their current yield point; core grants are
        released (or cancelled) by :meth:`compute`'s cleanup, so busy-time
        conservation holds across crashes.
        """
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        for proc in list(self._tenants):
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt(NodeDown(self.name, f"node {self.name!r} crashed"))
        self._tenants.clear()

    def restart(self) -> None:
        """Bring a crashed node back into service (empty-handed)."""
        self.up = True

    def compute(
        self, ctx: WorkContext, function: str, duration: float
    ) -> Generator:
        """Execute ``duration`` seconds of CPU work for leaf ``function``.

        A simulation process: acquires a core (queueing behind other work on
        this node), burns the time, then releases.  The *service* time is
        reported to the profiler; the span covers queueing plus service so
        end-to-end attribution sees contention.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if not self.up:
            raise NodeDown(self.name)
        start = self.env.now
        tenant = self.env.active_process
        registered = tenant is not None and tenant not in self._tenants
        if registered:
            self._tenants.add(tenant)
        try:
            grant = self._core_pool.request()
            try:
                yield grant
            except Interrupt:
                # Crashed (or otherwise interrupted) while queued for a core.
                self._core_pool.cancel(grant)
                raise
            service_start = self.env.now
            try:
                if duration > 0:
                    yield self.env.timeout(duration)
            finally:
                self._core_pool.release(grant)
        finally:
            if registered:
                self._tenants.discard(tenant)
        end = self.env.now
        ctx.record_cpu(function, end - service_start, service_start)
        ctx.record_span(function, SpanKind.CPU, start, end, node=self.name)

    def compute_batch(
        self, ctx: WorkContext, chunks: list[tuple[str, float]]
    ) -> Generator:
        """Execute consecutive CPU chunks under one core grant and one event.

        The fast path for an uncontended core: instead of one scheduled
        timeout per micro-chunk, the whole run is one timeout to the batch's
        end, with one deferred recorder per chunk firing at that chunk's
        exact end time -- so the profiler and tracer observe byte-identical
        per-chunk reports (same durations, same timestamps, same order).

        Coalescing invariants (see docs/performance.md):

        * only taken when no work is queued for a core *and* a spare core
          remains (otherwise falls back to :meth:`compute` per chunk,
          preserving FIFO interleaving);
        * if a competitor queues up for a core *during* the batch, the
          recorder ends the batch at the next chunk boundary: the process
          resumes there, releases its core (handing it to the waiter exactly
          when a chunk-by-chunk run would have), and finishes the remaining
          chunks uncoalesced;
        * chunk end times are accumulated iteratively (``t = t + d_k``),
          reproducing the floats of chained per-chunk timeouts;
        * on interrupt (node crash, reaped sibling), recorders for chunks
          past ``env.now`` are cancelled and the grant released -- exactly
          the chunks an uncoalesced run would never have reported.
        """
        chunks = list(chunks)
        if not chunks:
            return
        if not self.up:
            raise NodeDown(self.name)
        pool = self._core_pool
        if pool.queue_length > 0 or pool.in_use + 1 >= pool.capacity:
            for function, duration in chunks:
                yield from self.compute(ctx, function, duration)
            return
        for _, duration in chunks:
            if duration < 0:
                raise ValueError("duration must be non-negative")
        yield from self._coalesced(ctx, chunks, _BatchRecorder)

    def compute_block(self, ctx: WorkContext, block) -> Generator:
        """:meth:`compute_batch` for a chunk run held as a ChunkBlock.

        Same contract and same coalescing invariants, but the run arrives
        as a struct-of-arrays block (see
        :class:`repro.platforms.common.ChunkBlock`) and its end times come
        from one vectorized cumulative sum (bitwise equal to the iterative
        ``t = t + d_k`` chain).  The boundaries fire through a
        :class:`_BlockRecorder` in the event heap, whose drains of at least
        ``BLOCK_MIN`` boundaries fold the profiler credit vectorized and
        record one span block.
        """
        n = len(block)
        if not n:
            return
        if not self.up:
            raise NodeDown(self.name)
        pool = self._core_pool
        if pool.queue_length > 0 or pool.in_use + 1 >= pool.capacity:
            yield from self.compute_batch(ctx, block.pairs())
            return
        if float(block.durations.min()) < 0:
            raise ValueError("duration must be non-negative")
        yield from self._coalesced(ctx, block, _BlockRecorder)

    def _coalesced(self, ctx: WorkContext, chunks, recorder_cls) -> Generator:
        """Run validated chunks under one core grant and one timeout."""
        env = self.env
        pool = self._core_pool
        start = env.now
        tenant = env.active_process
        registered = tenant is not None and tenant not in self._tenants
        if registered:
            self._tenants.add(tenant)
        try:
            grant = pool.request()
            try:
                yield grant
            except Interrupt:
                pool.cancel(grant)
                raise
            service_start = env.now
            # The recorder keeps exactly ONE entry in the event heap: each
            # fire records its chunk and pushes the next boundary, using a
            # counter block reserved here so the (time, counter) order is
            # identical to pushing every boundary up front -- but the heap
            # stays small (one entry per active batch, not per pending chunk).
            recorder = recorder_cls(
                ctx, self.name, chunks, start, service_start, env, pool._waiters
            )
            t = recorder.ends[-1]
            resume_from = None
            try:
                if t > service_start:
                    recorder.schedule(env)
                    timeout = env.timeout_at(t)
                    recorder.process = tenant
                    recorder.timeout = timeout
                    signal = yield timeout
                    if type(signal) is _BatchPreempted:
                        resume_from = signal.next_index
                else:
                    # Zero-duration batch: record synchronously, in order,
                    # exactly like back-to-back zero-duration computes.
                    for _ in recorder.ends:
                        recorder()
                    recorder.cancelled = True
            except BaseException:
                # Chunks ending at or before now have already fired (their
                # heap entries sort before this interrupt); the rest would
                # never have been reported by an uncoalesced run.
                recorder.cancelled = True
                raise
            finally:
                pool.release(grant)
            if resume_from is not None:
                # A competitor queued up mid-batch; the recorder cut the
                # batch at this chunk boundary (the grant just released goes
                # to the waiter, exactly as chunk-by-chunk execution would
                # hand it over).  Finish the remaining chunks uncoalesced,
                # queueing FIFO behind the waiter.
                for function, duration in chunks[resume_from:]:
                    yield from self.compute(ctx, function, duration)
        finally:
            if registered:
                self._tenants.discard(tenant)


class _BatchPreempted:
    """Sent into a batched process when its batch is cut short mid-run."""

    __slots__ = ("next_index",)

    def __init__(self, next_index: int):
        self.next_index = next_index


class _BatchRecorder:
    """Reports a coalesced batch's chunks at their exact end times.

    One instance serves a whole batch: it keeps exactly one entry in the
    event heap (each fire pushes the next chunk boundary, using the counter
    block reserved at batch start) and replays the per-chunk reports in
    order through a cursor, so coalesced execution emits byte-identical
    profiler/tracer records to chunk-by-chunk execution.

    Popped by :meth:`Environment.run`, one call drains the whole run of
    boundaries whose ``(end, counter)`` key sorts before the heap head,
    capped at the run's deadline: those pops would have run back to back
    with no other event between them.  Only the heap traffic goes; each
    chunk is credited and spanned exactly as before, the clock ends on the
    last boundary fired, and the extra fires are tallied in
    ``env.inline_fires`` so ``events_processed`` is unchanged.

    If a competitor is queued for a core when a boundary fires, the batch
    ends here: the recorder detaches the process from its batch-end timeout
    and resumes it *synchronously* -- i.e. at this boundary's reserved heap
    position, exactly where the uncoalesced chunk timeout would have resumed
    it -- with a :class:`_BatchPreempted` signal, so the core is handed over
    with chunk-by-chunk FIFO timing.

    The trace/profiler/parent are resolved once at batch construction instead
    of going through :class:`WorkContext` per chunk; the only per-chunk check
    kept is ``trace.end is None``, because a trace can finish mid-batch (a
    query abandoning orphaned subprocesses) and late spans must stay dropped
    exactly as :meth:`WorkContext.record_span` would drop them.
    """

    __slots__ = (
        "profiler",
        "platform",
        "trace",
        "parent_id",
        "node_name",
        "chunks",
        "ends",
        "start",
        "service_start",
        "queue",
        "base",
        "waiters",
        "env",
        "process",
        "timeout",
        "cursor",
        "cancelled",
        "pid",
        "period",
        "credits",
        "cpu_secs",
        "append_span",
        "next_span_id",
    )

    def __init__(
        self,
        ctx: WorkContext,
        node_name: str,
        chunks,
        start: float,
        service_start: float,
        env: Environment,
        waiters,
    ):
        self.profiler = profiler = ctx.profiler
        self.platform = platform = ctx.platform
        self.trace = trace = ctx.trace
        parent = ctx.parent_span
        self.parent_id = parent.span_id if parent is not None else None
        self.node_name = node_name
        #: The batch's chunks and their end times; the k-th chunk runs
        #: [ends[k-1], ends[k]) (the first from ``service_start``, its span
        #: from ``start`` to cover queue wait).
        self.chunks = chunks
        self.start = start
        self.service_start = service_start
        self.ends = self._end_times()
        #: The event heap plus this batch's reserved counter block; entry k
        #: is (ends[k], base + k) and is pushed by the (k-1)-th fire.
        self.queue = env._queue
        self.base = env.reserve_counters(len(self.ends))
        #: The core pool's wait deque; non-empty at a boundary => preempt.
        self.waiters = waiters
        #: The environment whose run loop may drain this batch; attached
        #: only once the first boundary sits in the heap, so synchronous
        #: calls (zero-duration batches) fire one chunk.
        self.env = None
        self.process = None
        self.timeout = None
        self.cursor = 0
        self.cancelled = False
        # Pre-resolved profiler internals: __call__ bumps the platform's
        # sampling credit inline and only enters the profiler when a chunk
        # crosses the period (a few thousand crossings per million chunks).
        if profiler is not None:
            self.pid = profiler._intern_platform(platform)
            self.period = profiler.sample_period
            self.credits = profiler._credit_by_pid
            self.cpu_secs = profiler._cpu_seconds_by_pid
        if trace is not None:
            self.append_span = trace._spans.append
            self.next_span_id = trace._span_ids.__next__

    def _end_times(self) -> list[float]:
        # Accumulated iteratively, reproducing the floats of chained
        # per-chunk timeouts.
        t = self.service_start
        ends: list[float] = []
        append_end = ends.append
        for _, duration in self.chunks:
            t = t + duration
            append_end(t)
        return ends

    def schedule(self, env: Environment) -> None:
        """Put the first boundary in the event heap."""
        _heappush(self.queue, (self.ends[0], self.base, self))
        self.env = env

    def __call__(self) -> None:
        if self.cancelled:
            return
        i = self.cursor
        ends = self.ends
        n = len(ends)
        j = i + 1
        preempt = False
        if j < n:
            if self.waiters and self.process is not None:
                preempt = True
            else:
                env = self.env
                if env is not None and env._drain_bound >= ends[j]:
                    # Block drain: fire every boundary whose key sorts before
                    # the heap head (and lies within the active run's
                    # deadline) in this call.  Nothing runs between those
                    # pops, so the waiter deque and ``trace.end`` are the
                    # same at each of them as at this one.
                    bound = env._drain_bound
                    when, count, _ = self.queue[0]
                    if when <= bound:
                        j = _bisect_left(ends, when, j, n)
                        if j < n and ends[j] == when:
                            # Equal times sort by counter.
                            j = min(
                                _bisect_right(ends, when, j, n),
                                max(j, count - self.base),
                            )
                    else:
                        j = _bisect_right(ends, bound, j, n)
                    if j > i + 1:
                        env._now = ends[j - 1]
                        env.inline_fires += j - i - 1
                if j < n:
                    _heappush(self.queue, (ends[j], self.base + j, self))
        self.cursor = j
        self._fire(i, j)
        if preempt:
            self._preempt(i + 1)

    def _functions(self, i: int, j: int) -> Iterable[str]:
        """The leaf-function names of chunks ``[i, j)``."""
        return map(_first, self.chunks[i:j])

    def _fire(self, i: int, j: int) -> None:
        """Credit and span chunks ``[i, j)`` one by one, in order."""
        ends = self.ends
        if i:
            span_start = prev = ends[i - 1]
        else:
            prev = self.service_start
            span_start = self.start
        profiler = self.profiler
        if profiler is not None:
            pid = self.pid
            period = self.period
            credits = self.credits
            cpu_secs = self.cpu_secs
        trace = self.trace
        if trace is not None and trace.end is None:
            # Trace.record_chunk inlined (the call overhead is measurable at
            # one invocation per CPU micro-chunk).
            append_span = self.append_span
            next_span_id = self.next_span_id
            parent_id = self.parent_id
            node_name = self.node_name
        else:
            trace = None
        for function, end in zip(self._functions(i, j), ends[i:j]):
            if profiler is not None:
                duration = end - prev
                cpu_secs[pid] += duration
                credit = credits[pid] + duration
                if credit < period:
                    credits[pid] = credit
                else:
                    profiler._record_crossing(pid, self.platform, function, credit, prev)
            if trace is not None:
                append_span(
                    (next_span_id(), parent_id, function, _CPU, span_start, end, node_name)
                )
            span_start = prev = end

    def _preempt(self, next_index: int) -> None:
        """End the batch at this boundary: resume the process *now*.

        The process sleeps on the batch-end timeout; detach it and resume it
        synchronously (we are executing at this boundary's reserved heap
        slot, which is exactly where the uncoalesced chunk timeout would
        have resumed it), delivering :class:`_BatchPreempted` so
        ``compute_batch`` releases the core and finishes uncoalesced.
        """
        process = self.process
        timeout = self.timeout
        if timeout is None or process._waiting_on is not timeout:
            # Not parked on our timeout (already interrupted/crashed);
            # leave normal interrupt handling to it.
            _heappush(self.queue, (self.ends[next_index], self.base + next_index, self))
            return
        self.cancelled = True
        callbacks = timeout.callbacks
        if callbacks is not None:
            try:
                callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        process._waiting_on = None
        wakeup = Event(timeout.env)
        wakeup._triggered = True
        wakeup._value = _BatchPreempted(next_index)
        process._resume(wakeup)


class _BlockRecorder(_BatchRecorder):
    """A :class:`_BatchRecorder` over a :class:`ChunkBlock` run.

    Fires exactly like its parent -- same heap entry, same drain bounds,
    same preemption -- but the chunks stay columns: names resolve through
    the block's name table, and a drain of at least ``BLOCK_MIN``
    boundaries neither touches the chunks one by one nor records them one
    by one.  It folds the profiler credit vectorized (:meth:`_fold`) and
    appends one :class:`ChunkSpanBlock` that consumes the same span-id
    range the per-chunk rows would have.  Shorter drains and single fires
    record per-chunk tuples as the parent does.
    """

    __slots__ = ("ends_arr", "prof_durs")

    def __init__(self, *args):
        super().__init__(*args)
        #: Per-chunk durations as the folds see them, built on first use.
        self.prof_durs = None

    def _end_times(self) -> list[float]:
        # Bitwise equal to the iterative `t = t + d_k` chain: cumsum performs
        # the identical left-to-right float64 adds.  The numpy column serves
        # the vectorized folds; ``ends`` stays a list of Python floats so
        # per-chunk fires and span rows emit the values a list batch would.
        self.ends_arr = np.cumsum(
            np.concatenate(((self.service_start,), self.chunks.durations))
        )[1:]
        return self.ends_arr.tolist()

    def _functions(self, i: int, j: int) -> Iterable[str]:
        block = self.chunks
        return map(block._name_table().__getitem__, block.perm[i:j].tolist())

    def _fire(self, i: int, j: int) -> None:
        if j - i < BLOCK_MIN:
            super()._fire(i, j)
            return
        if self.profiler is not None:
            self._fold(i, j)
        self._append_block(i, j)

    def _fold(self, i: int, j: int) -> None:
        """Credit chunks ``[i, j)`` to the profiler in bulk.

        Bitwise equal to the per-chunk fold of :meth:`_BatchRecorder._fire`:
        durations are the same ``end - prev`` differences, CPU seconds and
        credit are the same left-to-right float64 adds (cumsum partials),
        and each period crossing enters the profiler with the same chunk,
        credit and time.
        """
        profiler = self.profiler
        ends = self.ends
        durs = self.prof_durs
        if durs is None:
            durs = self.prof_durs = np.diff(
                np.concatenate(((self.service_start,), self.ends_arr))
            )
        pid = self.pid
        cpu = self.cpu_secs
        credits = self.credits
        period = self.period
        platform = self.platform
        block = self.chunks
        cpu[pid] = float(np.cumsum(np.concatenate(((cpu[pid],), durs[i:j])))[-1])
        credit = credits[pid]
        pos = i
        while pos < j:
            remaining = j - pos
            d_typ = durs[pos]
            if d_typ > 0.0:
                window = int((period - credit) / d_typ) + 2
                if window > remaining:
                    window = remaining
                elif window < 1:
                    window = 1
            else:
                window = remaining if remaining < 64 else 64
            cs = np.cumsum(np.concatenate(((credit,), durs[pos : pos + window])))
            m = int(np.searchsorted(cs, period, side="left"))
            if m >= len(cs):
                # No crossing in this window; cs[-1] equals the per-chunk
                # running credit after these chunks.
                credit = float(cs[-1])
                pos += window
                continue
            q = pos + m - 1
            prev = ends[q - 1] if q else self.service_start
            profiler._record_crossing(
                pid, platform, block.function_at(q), float(cs[m]), prev
            )
            credit = credits[pid]
            pos = q + 1
        credits[pid] = credit

    def _append_block(self, i: int, j: int) -> None:
        """Span chunks ``[i, j)`` as one compact row, unless the trace ended."""
        trace = self.trace
        if trace is not None and trace.end is None:
            # Consume the span-id range the per-chunk rows would have, so ids
            # stay aligned with spans recorded before and after this run.
            ids = trace._span_ids
            first = next(ids)
            count = j - i
            if count > 1:
                next(islice(ids, count - 2, count - 1))
            self.append_span(
                ChunkSpanBlock(first, self.parent_id, self.node_name, self, i, j)
            )

