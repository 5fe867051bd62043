"""RPC layer with Dapper span recording.

Services register generator handlers; clients invoke them through
:func:`rpc_call`, which models the full round trip: client-side CPU
(serialization, dispatch -- supplied by the caller's cost model as
``(function, duration)`` chunks so the platform's calibrated tax budgets
flow through real execution), request transfer over the fabric, server-side
handler execution on the remote node's cores, response transfer, and
client-side deserialization.

The client's send-to-receive interval is recorded as a single span whose
kind the caller chooses: ``SpanKind.IO`` for distributed-storage calls,
``SpanKind.REMOTE`` for waiting on remote workers (consensus, compaction,
shuffle) -- the distinction Section 4.1's breakdown depends on.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from repro.cluster.network import NetworkFabric, NetworkPartitioned
from repro.cluster.node import ServerNode, WorkContext
from repro.profiling.dapper import SpanKind
from repro.sim import Environment

__all__ = [
    "RpcError",
    "RpcService",
    "RpcServer",
    "rpc_call",
    "rpc_call_with_retries",
]

CpuChunks = Iterable[tuple[str, float]]
Handler = Callable[[WorkContext, Any], Generator]


def _publish_call(
    ctx: WorkContext, service: "RpcService", outcome: str, seconds: float
) -> None:
    """Publish one call's outcome to the observability registry (if any).

    Pure registry writes -- never touches simulation state, so RPC timing
    and spans are identical with observability on or off.
    """
    metrics = ctx.metrics
    if metrics is None:
        return
    metrics.inc(
        "repro_rpc_calls_total",
        "RPC calls by service and outcome",
        platform=ctx.platform,
        service=service.name,
        outcome=outcome,
    )
    if outcome == "ok":
        metrics.observe(
            "repro_rpc_latency_seconds",
            seconds,
            "Client send-to-receive RPC interval",
            platform=ctx.platform,
            service=service.name,
        )


class RpcError(RuntimeError):
    """Raised when a call fails (service down) or exceeds its deadline."""


class RpcService:
    """A named service running on one node, with registered methods."""

    def __init__(self, node: ServerNode, name: str):
        self.node = node
        self.name = name
        self._handlers: dict[str, Handler] = {}
        self.calls_served = 0
        self._available = True

    @property
    def available(self) -> bool:
        """Up iff not explicitly failed and the hosting node is alive."""
        return self._available and self.node.up

    def fail(self) -> None:
        """Take the service down (failure injection)."""
        self._available = False

    def restore(self) -> None:
        self._available = True

    def register(self, method: str, handler: Handler) -> None:
        if method in self._handlers:
            raise ValueError(f"{self.name}: method {method!r} already registered")
        self._handlers[method] = handler

    def method(self, name: str) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`register`."""

        def decorate(handler: Handler) -> Handler:
            self.register(name, handler)
            return handler

        return decorate

    def handler(self, method: str) -> Handler:
        try:
            return self._handlers[method]
        except KeyError:
            raise KeyError(f"{self.name} has no method {method!r}") from None


class RpcServer:
    """A registry of services, addressable by name (one per cluster)."""

    def __init__(self) -> None:
        self._services: dict[str, RpcService] = {}

    def add(self, service: RpcService) -> RpcService:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already registered")
        self._services[service.name] = service
        return service

    def lookup(self, name: str) -> RpcService:
        try:
            return self._services[name]
        except KeyError:
            raise KeyError(f"no service named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._services


def rpc_call(
    env: Environment,
    fabric: NetworkFabric,
    ctx: WorkContext,
    client: ServerNode,
    service: RpcService,
    method: str,
    request: Any = None,
    *,
    request_bytes: float = 256.0,
    response_bytes: float = 256.0,
    wait_kind: SpanKind = SpanKind.REMOTE,
    client_send_chunks: CpuChunks = (),
    client_recv_chunks: CpuChunks = (),
    deadline: float | None = None,
) -> Generator:
    """Invoke ``service.method`` from ``client``; returns the response.

    A simulation process.  ``client_send_chunks`` / ``client_recv_chunks``
    are (leaf function, seconds) CPU chunks the caller's cost model charges
    for marshalling on each side of the wait; the server-side handler does
    its own :meth:`ServerNode.compute` calls.

    ``deadline`` (seconds from call start) bounds the wait; exceeding it
    raises :class:`RpcError`, as does calling an unavailable service.
    """
    handler = service.handler(method)
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive")
    call_start = env.now

    # Client-side marshalling before the wire.
    yield from client.compute_batch(ctx, list(client_send_chunks))

    wait_start = env.now

    def partition_failure() -> RpcError:
        ctx.record_span(
            f"rpc:{service.name}.{method}:unreachable",
            wait_kind,
            wait_start,
            env.now,
            service=service.name,
            error="partition",
        )
        _publish_call(ctx, service, "partition", env.now - wait_start)
        return RpcError(f"service {service.name!r} unreachable (network partition)")

    if not service.available:
        # Fast failure: connection refused after one network round trip.
        try:
            refusal = fabric.round_trip_time(
                client.topology, service.node.topology, 64.0, 64.0
            )
        except NetworkPartitioned:
            raise partition_failure() from None
        if refusal > 0:
            yield env.timeout(refusal)
        ctx.record_span(
            f"rpc:{service.name}.{method}:refused",
            wait_kind,
            wait_start,
            env.now,
            service=service.name,
            error="unavailable",
        )
        _publish_call(ctx, service, "unavailable", env.now - wait_start)
        raise RpcError(f"service {service.name!r} unavailable")

    # Request flight time.
    try:
        request_flight = fabric.transfer_time(
            client.topology, service.node.topology, request_bytes
        )
    except NetworkPartitioned:
        raise partition_failure() from None
    if request_flight > 0:
        yield env.timeout(request_flight)

    # Server-side execution; spans nest under the wait span's parent.
    server_ctx = ctx.child(ctx.parent_span)
    server_proc = env.process(
        handler(server_ctx, request), name=f"{service.name}.{method}"
    )
    if deadline is None:
        response = yield server_proc
    else:
        from repro.sim.engine import any_of

        remaining = deadline - (env.now - call_start)
        if remaining <= 0:
            raise RpcError(f"{service.name}.{method}: deadline exceeded")
        timer = env.timeout(remaining, value=_DEADLINE)
        winner = yield any_of(env, [server_proc, timer])
        if winner is _DEADLINE:
            # The abandoned handler must not keep consuming server cores.
            if server_proc.is_alive:
                server_proc.interrupt("deadline expired")
            ctx.record_span(
                f"rpc:{service.name}.{method}:timeout",
                wait_kind,
                wait_start,
                env.now,
                service=service.name,
                error="deadline",
            )
            _publish_call(ctx, service, "deadline", env.now - wait_start)
            raise RpcError(
                f"{service.name}.{method}: deadline of {deadline}s exceeded"
            )
        response = winner
    service.calls_served += 1

    # Response flight time.
    try:
        response_flight = fabric.transfer_time(
            service.node.topology, client.topology, response_bytes
        )
    except NetworkPartitioned:
        raise partition_failure() from None
    if response_flight > 0:
        yield env.timeout(response_flight)
    ctx.record_span(
        f"rpc:{service.name}.{method}",
        wait_kind,
        wait_start,
        env.now,
        service=service.name,
        method=method,
        request_bytes=request_bytes,
        response_bytes=response_bytes,
    )
    _publish_call(ctx, service, "ok", env.now - wait_start)

    # Client-side unmarshalling.
    yield from client.compute_batch(ctx, list(client_recv_chunks))
    return response


_DEADLINE = object()


def rpc_call_with_retries(
    env: Environment,
    fabric: NetworkFabric,
    ctx: WorkContext,
    client: ServerNode,
    service: RpcService,
    method: str,
    request: Any = None,
    *,
    attempts: int = 3,
    backoff: float = 1e-3,
    backoff_multiplier: float = 2.0,
    **call_kwargs,
) -> Generator:
    """Retry :func:`rpc_call` with exponential backoff.

    Raises the final :class:`RpcError` after exhausting ``attempts``.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = backoff
    last_error: RpcError | None = None
    for attempt in range(attempts):
        try:
            response = yield from rpc_call(
                env, fabric, ctx, client, service, method, request, **call_kwargs
            )
            return response
        except RpcError as error:
            last_error = error
            if attempt + 1 < attempts:
                yield env.timeout(delay)
                delay *= backoff_multiplier
    raise last_error
