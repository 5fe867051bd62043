"""The discrete-event engine: clock, events, and generator processes."""

from __future__ import annotations

import gc
import heapq
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Generator, Iterable

_INF = float("inf")
_NEG_INF = float("-inf")

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "Environment",
    "all_of",
    "any_of",
    "quorum_of",
]


class SimulationError(Exception):
    """Raised for structural simulation mistakes (double triggers, etc.)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence a process can wait on.

    An event starts *pending*; it is *triggered* exactly once with either a
    value (:meth:`succeed`) or an exception (:meth:`fail`), after which the
    environment invokes its callbacks at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after its creation.

    With ``at`` set, the event fires at that *absolute* simulation time
    instead (``delay`` is ignored).  Absolute scheduling exists so batched
    work can land wake-ups on exactly the same float timestamps that
    chunk-by-chunk accumulation (``now + delay`` per chunk) would produce.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        env: "Environment",
        delay: float,
        value: Any = None,
        *,
        at: float | None = None,
    ):
        # Flattened Event.__init__ + Environment._schedule: timeouts are the
        # single most-constructed object in the simulation, and the two extra
        # call frames are measurable on the DFS chunk path.
        if at is None:
            if delay < 0:
                raise ValueError(f"negative delay: {delay!r}")
            when = env._now + delay
        else:
            if at < env._now:
                raise ValueError(f"at={at} is in the past (now={env.now})")
            when = at
        self.env = env
        self.callbacks = []
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        count = env._counter
        env._counter = count + 1
        _heappush(env._queue, (when, count, self))


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception that
    escaped it.  Waiting on another process therefore composes naturally.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the process at the current time.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        wakeup = Event(self.env)
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause))

    def _resume(self, trigger: Event) -> None:
        if self._triggered:
            # The process already finished (e.g. it was interrupted twice in
            # the same instant and the first wakeup ended it); a stale wakeup
            # must not be thrown into the exhausted generator.
            return
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            # _ok/_value directly: the trigger is by construction triggered
            # (its callbacks are running), and the ok/value property frames
            # are measurable at ~100k resumes per run.
            if trigger._ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
            )
            return
        if target.env is not env:
            self.fail(SimulationError("yielded event belongs to another environment"))
            return
        self._waiting_on = target
        if target.callbacks is None:
            # Already processed: resume immediately at the current time.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            if target._ok:
                immediate.succeed(target._value)
            else:
                immediate.fail(target._value)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        # Next event sequence number (the heap tie-breaker).  A plain int
        # rather than itertools.count so whole blocks can be reserved at
        # once (see reserve_counters).
        self._counter = 0
        self._active_process: Process | None = None
        #: Number of events processed so far (perf-harness telemetry).
        self.events_processed = 0
        #: Latest key time a CPU batch recorder may fire inline (see
        #: ``repro.cluster.node._BatchRecorder``): the active run's deadline
        #: while :meth:`run` pops, ``-inf`` otherwise, so :meth:`step` and
        #: synchronous recorder calls fire one boundary each.
        self._drain_bound = _NEG_INF
        #: Boundaries fired inline by recorder drains (cumulative).  Each is
        #: one event a per-boundary run would have popped; :meth:`run`
        #: folds them into ``events_processed`` when it returns.
        self.inline_fires = 0

    #: Whether :meth:`run` lets CPU batch recorders drain in blocks; the
    #: ``per-boundary`` reference lane clears it per environment.
    drain_batches = True

    @property
    def now(self) -> float:
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self, event: Event, delay: float = 0.0, at: float | None = None
    ) -> None:
        when = self._now + delay if at is None else at
        count = self._counter
        self._counter = count + 1
        _heappush(self._queue, (when, count, event))

    def schedule_call(self, when: float, fn: Callable[[], None]) -> None:
        """Schedule a bare callable at an absolute time.

        The cheap half of CPU-chunk coalescing: the callable goes straight
        onto the event heap (no :class:`Event` object, no callbacks list)
        and is invoked with no arguments when its time is popped.  It cannot
        be waited on; use :meth:`timeout_at` for that.
        """
        if when < self._now:
            raise ValueError(f"when={when} is in the past (now={self._now})")
        count = self._counter
        self._counter = count + 1
        _heappush(self._queue, (when, count, fn))

    def reserve_counters(self, n: int) -> int:
        """Reserve ``n`` consecutive event sequence numbers; returns the first.

        The coalesced CPU-batch path assigns its chunk-boundary entries a
        contiguous counter block at batch start but keeps only one entry in
        the heap at a time (each fire pushes the next).  Ordering is exactly
        as if all entries had been pushed up front -- the heap is a total
        order on ``(time, counter)`` -- while the heap stays small.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        base = self._counter
        self._counter = base + n
        return base

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _, event = _heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if not isinstance(event, Event):
            event()  # a schedule_call() callable
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not isinstance(event, Process):
            # A failed event nobody waited on: surface the error.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        Args:
            until: ``None`` runs to exhaustion; a number runs until the clock
                reaches it; an :class:`Event` runs until it triggers and
                returns its value (re-raising its exception on failure).
        """
        # The loops below inline step()'s body with local bindings: the run
        # loop is the hottest code in the simulator (millions of events per
        # fleet run), and the dominant case is one callback per event.
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        inline_before = self.inline_fires
        # The loop allocates heavily but creates almost no garbage cycles;
        # generational GC passes would cost a large share of wall time for
        # no reclaimed memory.  Park the collector for the run and restore
        # it afterwards -- simulation order is untouched.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if isinstance(until, Event):
                if self.drain_batches:
                    self._drain_bound = _INF
                sentinel = until
                while sentinel.callbacks is not None:
                    if not queue:
                        raise SimulationError(
                            "event queue drained before the awaited event fired"
                        )
                    when, _, event = pop(queue)
                    self._now = when
                    processed += 1
                    # Drain consecutive schedule_call() callables without
                    # re-checking the sentinel: only an Event dispatch (the
                    # callbacks swap below) can ever fire it.
                    while not isinstance(event, Event):
                        event()
                        if not queue:
                            raise SimulationError(
                                "event queue drained before the awaited event fired"
                            )
                        when, _, event = pop(queue)
                        self._now = when
                        processed += 1
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not callbacks and not isinstance(event, Process):
                        raise event._value
                if sentinel.ok:
                    return sentinel.value
                raise sentinel.value
            deadline = _INF if until is None else float(until)
            if deadline != _INF and deadline < self._now:
                raise ValueError(f"until={deadline} is in the past (now={self._now})")
            if self.drain_batches:
                # Boundaries at exactly the deadline still fire, as they
                # would pop here; later ones wait for the next run.
                self._drain_bound = deadline
            while queue and queue[0][0] <= deadline:
                when, _, event = pop(queue)
                self._now = when
                processed += 1
                if not isinstance(event, Event):
                    event()  # a schedule_call() callable
                    continue
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not callbacks and not isinstance(event, Process):
                    raise event._value
            if deadline != _INF:
                self._now = deadline
            return None
        finally:
            self._drain_bound = _NEG_INF
            self.events_processed += processed + self.inline_fires - inline_before
            if gc_was_enabled:
                gc.enable()

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        return self._queue[0][0] if self._queue else float("inf")

    def stats(self) -> dict[str, float]:
        """Engine telemetry snapshot (read-only; the observability scrape).

        Returns the current clock, the number of events processed so far,
        and the pending event-heap depth.
        """
        return {
            "now": self._now,
            "events_processed": float(self.events_processed),
            "queue_depth": float(len(self._queue)),
        }

    # -- event constructors -------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timeout firing at an exact absolute simulation time."""
        return Timeout(self, 0.0, value, at=when)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name=name)


# ---------------------------------------------------------------------------
# Composite conditions.
# ---------------------------------------------------------------------------


def quorum_of(env: Environment, events: Iterable[Event], count: int) -> Event:
    """An event that succeeds when ``count`` of ``events`` have succeeded.

    The composite's value is a list of the values of the first ``count``
    events to fire, in firing order.  If so many constituents fail that the
    quorum becomes unreachable, the composite fails with the first failure.
    This is the primitive behind consensus waits (e.g. a Paxos leader
    waiting for a majority of acceptor acks).
    """
    events = list(events)
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if count > len(events):
        raise ValueError(f"quorum of {count} impossible with {len(events)} events")
    composite = Event(env)
    values: list[Any] = []
    state = {"failures": 0, "first_error": None, "done": False}

    def on_trigger(event: Event) -> None:
        if state["done"]:
            return
        if event._ok:
            values.append(event._value)
            if len(values) >= count:
                state["done"] = True
                composite.succeed(list(values))
        else:
            state["failures"] += 1
            if state["first_error"] is None:
                state["first_error"] = event._value
            if len(events) - state["failures"] < count:
                state["done"] = True
                composite.fail(state["first_error"])

    for event in events:
        if event.callbacks is None:
            # Already processed: replay its outcome through a fresh event so
            # the composite still sees it.
            replay = Event(env)
            replay.callbacks.append(on_trigger)
            if event._ok:
                replay.succeed(event._value)
            else:
                replay.fail(event._value)
        else:
            event.callbacks.append(on_trigger)
    return composite


def all_of(env: Environment, events: Iterable[Event]) -> Event:
    """An event that succeeds when every constituent has succeeded."""
    events = list(events)
    if not events:
        immediate = Event(env)
        immediate.succeed([])
        return immediate
    return quorum_of(env, events, len(events))


def any_of(env: Environment, events: Iterable[Event]) -> Event:
    """An event that succeeds when the first constituent succeeds.

    Value is the winning constituent's value (not wrapped in a list).
    """
    events = list(events)
    if not events:
        raise ValueError("any_of needs at least one event")
    composite = quorum_of(env, events, 1)
    unwrapped = Event(env)

    def forward(event: Event) -> None:
        if event._ok:
            unwrapped.succeed(event._value[0])
        else:
            unwrapped.fail(event._value)

    composite.callbacks.append(forward)
    return unwrapped
