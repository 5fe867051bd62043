"""Accelerator units: single-occupancy engines with coverage and speedup."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.sim import Environment, Resource

__all__ = ["UnitStats", "AcceleratorUnit"]


@dataclass
class UnitStats:
    """Occupancy statistics for one unit."""

    invocations: int = 0
    busy_seconds: float = 0.0
    queued_seconds: float = 0.0

    def utilization(self, elapsed: float) -> float:
        return self.busy_seconds / elapsed if elapsed > 0 else 0.0


@dataclass
class AcceleratorUnit:
    """One accelerator engine in the complex.

    Attributes:
        env: simulation environment.
        name: unit label, e.g. ``"compression#0"``.
        covers: taxonomy category keys this unit can execute.
        speedup: acceleration over software execution (``s_sub``).
        t_setup: per-invocation configuration time (``t_setup``); chained
            pipelines pay it once per chain instead (handled by the caller
            passing ``include_setup=False``).
    """

    env: Environment
    name: str
    covers: frozenset[str]
    speedup: float
    t_setup: float = 0.0
    stats: UnitStats = field(default_factory=UnitStats)
    _engine: Resource = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.speedup <= 0:
            raise ValueError(f"{self.name}: speedup must be positive")
        if self.t_setup < 0:
            raise ValueError(f"{self.name}: t_setup must be non-negative")
        if not self.covers:
            raise ValueError(f"{self.name}: must cover at least one category")
        self._engine = Resource(self.env, capacity=1)
        self._pending = 0

    def covers_category(self, category_key: str) -> bool:
        return category_key in self.covers

    @property
    def backlog(self) -> int:
        """Work assigned to this unit: queued + in service + reserved.

        ``reserved`` counts dispatch decisions whose invocation process has
        not started yet, so concurrent dispatchers in the same tick spread
        across instances instead of all picking the same empty engine.
        """
        return self._engine.queue_length + self._engine.in_use + self._pending

    def reserve(self) -> "AcceleratorUnit":
        """Claim a future invocation slot (undone when invoke() starts)."""
        self._pending += 1
        return self

    def service_time(self, t_software: float, *, include_setup: bool = True) -> float:
        base = t_software / self.speedup
        return base + (self.t_setup if include_setup else 0.0)

    def invoke(
        self, t_software: float, *, include_setup: bool = True, reserved: bool = False
    ) -> Generator:
        """Simulation process: execute ``t_software`` seconds of offloaded
        work (measured in software-time units), queueing behind other users
        of this unit.  Returns the service time spent.  Pass
        ``reserved=True`` when the slot was claimed via :meth:`reserve`."""
        if t_software < 0:
            raise ValueError("t_software must be non-negative")
        if reserved and self._pending > 0:
            self._pending -= 1
        arrival = self.env.now
        grant = self._engine.request()
        yield grant
        self.stats.queued_seconds += self.env.now - arrival
        service = self.service_time(t_software, include_setup=include_setup)
        try:
            if service > 0:
                yield self.env.timeout(service)
        finally:
            self._engine.release(grant)
        self.stats.invocations += 1
        self.stats.busy_seconds += service
        return service
