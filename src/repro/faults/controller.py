"""The chaos controller: replays a fault plan into a running simulation.

The controller is itself a simulation process.  It sleeps until each
event's injection time, applies the fault to the attached resources (nodes,
RPC services, the network fabric, tiered stores), records the injection as
a zero-length ``error=``-tagged span on its own Dapper trace, and -- for
events with a ``duration`` -- spawns a healer subprocess that undoes the
fault later.  Because it runs inside the same :class:`~repro.sim.Environment`
as the platform it torments, injections land at exact, reproducible virtual
times.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.network import NetworkFabric
from repro.cluster.node import ServerNode
from repro.cluster.rpc import RpcService
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.profiling.dapper import SpanKind, Trace
from repro.sim import Environment, Process
from repro.storage.tier import TieredStore

__all__ = ["ChaosController"]


class ChaosController:
    """Injects one :class:`FaultPlan` into one environment's resources."""

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        *,
        name: str = "chaos",
        metrics: Any = None,
    ):
        self.env = env
        self.plan = plan
        self.name = name
        self.metrics = metrics
        self.trace = Trace(trace_id=-1, name=f"chaos:{name}", start=env.now)
        self.injected: list[tuple[FaultEvent, float]] = []
        self.healed: list[tuple[FaultEvent, float]] = []
        self._nodes: dict[str, ServerNode] = {}
        self._services: dict[str, RpcService] = {}
        self._stores: dict[str, TieredStore] = {}
        self._fabric: NetworkFabric | None = None
        self._proc: Process | None = None

    # -- wiring -------------------------------------------------------------

    def attach_node(self, node: ServerNode) -> "ChaosController":
        self._nodes[node.name] = node
        return self

    def attach_service(self, name: str, service: RpcService) -> "ChaosController":
        self._services[name] = service
        return self

    def attach_store(self, name: str, store: TieredStore) -> "ChaosController":
        self._stores[name] = store
        return self

    def attach_fabric(self, fabric: NetworkFabric) -> "ChaosController":
        self._fabric = fabric
        return self

    @classmethod
    def for_platform(
        cls, platform: Any, plan: FaultPlan, *, name: str | None = None
    ) -> "ChaosController":
        """Wire a controller to a platform simulator's whole substrate.

        Attaches every cluster node (by node name), the cluster's network
        fabric, and each DFS storage server's tiered store as
        ``storage-<index>``.
        """
        controller = cls(
            platform.env,
            plan,
            name=name or platform.platform_name.lower(),
            metrics=getattr(platform, "metrics", None),
        )
        for node in platform.cluster.nodes:
            controller.attach_node(node)
        controller.attach_fabric(platform.cluster.fabric)
        dfs = getattr(platform, "dfs", None)
        if dfs is not None:
            for server in dfs.servers:
                controller.attach_store(f"storage-{server.index}", server.store)
            # Pin the per-chunk read path (the fleet's only pin): batched
            # read plans resolve replica, tier, and fabric state at plan time
            # and would skip over faults this controller injects mid-read.
            dfs.io_mode = "chunked"
        return controller

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Process:
        """Spawn the injection process (call before ``env.run``).

        Every plan target is resolved eagerly: a typo'd node/store name
        fails loudly here instead of silently killing the injection
        process mid-run (a failed process nobody waits on is absorbed by
        the engine).
        """
        if self._proc is not None:
            raise RuntimeError("chaos controller already started")
        self._validate()
        self._proc = self.env.process(self._run(), name=f"chaos:{self.name}")
        return self._proc

    def _validate(self) -> None:
        for event in self.plan.events:
            kind = event.kind
            if kind is FaultKind.NODE_CRASH:
                self._node(event)
            elif kind is FaultKind.SERVICE_OUTAGE:
                self._service(event)
            elif kind is FaultKind.DISK_SLOWDOWN:
                self._store(event)
            else:
                self._require_fabric(event)

    def finish(self) -> Trace:
        """Close the chaos trace (after the simulation has run)."""
        if not self.trace.finished:
            self.trace.finish(max(self.env.now, self.trace.start))
        return self.trace

    @property
    def fault_ids(self) -> tuple[str, ...]:
        return tuple(event.fault_id for event in self.plan)

    # -- injection ----------------------------------------------------------

    def _run(self):
        for event in self.plan.events:
            if event.at > self.env.now:
                yield self.env.timeout(event.at - self.env.now)
            handle = self._apply(event)
            now = self.env.now
            self.injected.append((event, now))
            self._count("repro_faults_injected_total", event)
            self.trace.record(
                f"chaos:{event.kind.value}:{event.target}",
                SpanKind.REMOTE,
                now,
                now,
                error=event.kind.value,
                fault_id=event.fault_id,
                target=event.target,
            )
            if event.duration is not None:
                self.env.process(
                    self._heal_later(event, handle),
                    name=f"chaos:heal:{event.fault_id}",
                )

    def _heal_later(self, event: FaultEvent, handle: Any):
        yield self.env.timeout(event.duration)
        self._heal(event, handle)
        now = self.env.now
        self.healed.append((event, now))
        self._count("repro_faults_healed_total", event)
        if not self.trace.finished:
            self.trace.record(
                f"chaos:heal:{event.target}",
                SpanKind.REMOTE,
                now,
                now,
                fault_id=event.fault_id,
                healed=True,
            )

    def _count(self, metric: str, event: FaultEvent) -> None:
        """Registry-only bookkeeping; the injected/healed ledgers stay the
        measurement of record."""
        if self.metrics is not None:
            self.metrics.inc(
                metric,
                "Chaos controller fault events",
                name=self.name,
                kind=event.kind.value,
            )

    def _apply(self, event: FaultEvent) -> Any:
        kind = event.kind
        if kind is FaultKind.NODE_CRASH:
            self._node(event).crash()
            return None
        if kind is FaultKind.SERVICE_OUTAGE:
            self._service(event).fail()
            return None
        if kind is FaultKind.PARTITION:
            return self._require_fabric(event).partition(
                event.params["a"], event.params["b"]
            )
        if kind is FaultKind.LINK_DEGRADE:
            return self._require_fabric(event).degrade_link(
                event.params["a"],
                event.params["b"],
                latency_factor=event.params.get("latency_factor", 1.0),
                bandwidth_factor=event.params.get("bandwidth_factor", 1.0),
            )
        if kind is FaultKind.DISK_SLOWDOWN:
            self._store(event).degrade(event.params.get("factor", 8.0))
            return None
        raise ValueError(f"unknown fault kind {kind!r}")

    def _heal(self, event: FaultEvent, handle: Any) -> None:
        kind = event.kind
        if kind is FaultKind.NODE_CRASH:
            self._node(event).restart()
        elif kind is FaultKind.SERVICE_OUTAGE:
            self._service(event).restore()
        elif kind is FaultKind.PARTITION:
            self._require_fabric(event).heal(handle)
        elif kind is FaultKind.LINK_DEGRADE:
            self._require_fabric(event).restore_link(handle)
        elif kind is FaultKind.DISK_SLOWDOWN:
            self._store(event).restore()

    # -- target resolution --------------------------------------------------

    def _node(self, event: FaultEvent) -> ServerNode:
        try:
            return self._nodes[event.target]
        except KeyError:
            raise KeyError(
                f"fault {event.fault_id!r} targets unattached node {event.target!r}"
            ) from None

    def _service(self, event: FaultEvent) -> RpcService:
        try:
            return self._services[event.target]
        except KeyError:
            raise KeyError(
                f"fault {event.fault_id!r} targets unattached service {event.target!r}"
            ) from None

    def _store(self, event: FaultEvent) -> TieredStore:
        try:
            return self._stores[event.target]
        except KeyError:
            raise KeyError(
                f"fault {event.fault_id!r} targets unattached store {event.target!r}"
            ) from None

    def _require_fabric(self, event: FaultEvent) -> NetworkFabric:
        if self._fabric is None:
            raise RuntimeError(
                f"fault {event.fault_id!r} needs a fabric; none attached"
            )
        return self._fabric
