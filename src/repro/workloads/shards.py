"""Query-granular sharding: deterministic sub-shards + canonical merge.

The platform-level parallel runner was bounded by its slowest shard --
BigQuery's query stream costs ~1000x the OLTP ones, so the BigQuery worker
straggled while the others idled.  This module is the decomposition that
fixes it: each platform's query stream is partitioned into contiguous
query-index ranges (:class:`ShardSpec`), every range is a *pure job* (a
fresh platform instance on a fresh environment, with per-query RNG streams
derived from ``(platform seed, query index)`` -- the same prefix-stable
construction as the profiler's counter jitter), and
:func:`merge_shard_results` reassembles the per-range results in canonical
query-index order.

Because a job's result depends only on its spec -- never on which worker
executed it, when, or in what order -- the merged measurements are
byte-identical between the sequential sharded driver
(``FleetSimulation(shards=...)``) and the work-stealing pool
(:mod:`repro.workloads.parallel`) for *any* worker count and *any* steal
order.  That is the invariant the ``sharding`` differential pair, the
``steal_order`` oracle, and ``tests/test_sharded_fleet.py`` enforce.

``shards=None`` (the default) keeps the legacy decomposition -- one
whole-platform shard per platform with the platform-lifetime RNG streams --
which stays byte-identical to the classic sequential driver.  Explicit
sharding (any ``shards >= 1``) switches to per-query streams, which changes
individual draws relative to the legacy path (cross-query platform state
like BigQuery's learned IO rates also resets at sub-shard boundaries), so
sharded runs form their own determinism class: identical across executors
and worker counts at fixed shard geometry, plan-identical across shard
geometries.

Host-side execution telemetry (worker busy time, steal counts, per-shard
wall-clock) rides on :class:`SchedulerStats` -- deliberately *outside* the
measurement snapshot so wall-clock facts can never break parity.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConfigError
from repro.faults import ChaosController
from repro.observability import MetricsRegistry, ObservabilityResult, TimeSeries
from repro.platforms.common import PlatformBase, QueryRecord
from repro.profiling.breakdown import E2EBreakdown
from repro.profiling.gwp import FleetProfiler
from repro.storage.telemetry import CapacityTelemetry, TelemetrySummary
from repro.workloads.calibration import BIGQUERY, BIGTABLE, PLATFORMS, SPANNER

# NOTE: repro.workloads.fleet imports this module at the top level (the
# sharded driver lives behind FleetSimulation.run), so fleet itself is
# imported lazily inside run_shard/merge_shard_results.

__all__ = [
    "QUERY_COST",
    "ShardSpec",
    "ShardResult",
    "SimClock",
    "PlatformSummary",
    "ChaosSummary",
    "WorkerStats",
    "ShardWall",
    "SchedulerStats",
    "validate_shards",
    "resolve_shards",
    "plan_shards",
    "run_shard",
    "merge_shard_results",
]

#: Rough simulated seconds per query -- the scheduler's cost model for
#: auto-sharding, home assignment, and steal-victim selection.  BigQuery
#: queries run ~1000x longer than the OLTP ones, which is exactly the
#: imbalance that made platform-granularity shards straggle.  Precision is
#: irrelevant for correctness: the merge is canonical-order no matter
#: where (or how well) a shard was scheduled.
QUERY_COST: Mapping[str, float] = {SPANNER: 4.0e-3, BIGTABLE: 2.5e-3, BIGQUERY: 8.5}

#: ``shards="auto"`` targets this many sub-shards per worker on the
#: costliest platform: enough slack for idle workers to steal, not so many
#: that per-shard setup dominates.
AUTO_JOBS_PER_WORKER = 3


# -- specs --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """One schedulable job: a contiguous query-index range of one platform.

    ``reseed`` selects per-query RNG streams (explicit sharding) vs the
    legacy platform-lifetime streams (``shards=None`` whole-platform
    shards).
    """

    platform: str
    ordinal: int
    start: int
    count: int
    reseed: bool

    @property
    def label(self) -> str:
        return f"{self.platform}[{self.start}:{self.start + self.count}]"


def validate_shards(shards):
    """Normalize/validate a concrete ``shards`` knob (``"auto"`` excluded)."""
    if shards is None:
        return None
    if isinstance(shards, bool):
        raise ConfigError(f"shards must be a positive int, got {shards!r}")
    if isinstance(shards, int):
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        return shards
    if isinstance(shards, Mapping):
        unknown = sorted(set(shards) - set(PLATFORMS))
        if unknown:
            raise ConfigError(
                f"unknown platform(s) in shards {unknown}; "
                f"choose from {list(PLATFORMS)}"
            )
        for name, count in shards.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ConfigError(
                    f"{name}: shard count must be a positive int, got {count!r}"
                )
        return dict(shards)
    raise ConfigError(
        "shards must be None, 'auto', a positive int, or a "
        f"{{platform: count}} mapping, got {shards!r}"
    )


def resolve_shards(shards, queries: Mapping[str, int], *, workers: int | None = None):
    """Resolve the config-level knob (including ``"auto"``) for a workload.

    ``"auto"`` splits each platform proportionally to its estimated cost
    share (:data:`QUERY_COST`) so that the costliest platform yields about
    :data:`AUTO_JOBS_PER_WORKER` jobs per worker -- deterministic given the
    workload and worker count.
    """
    if shards != "auto":
        return validate_shards(shards)
    queries = dict(queries)
    workers = workers or os.cpu_count() or 1
    total_cost = sum(QUERY_COST[name] * count for name, count in queries.items())
    if total_cost <= 0:
        return {name: 1 for name in queries}
    budget = total_cost / max(1, workers * AUTO_JOBS_PER_WORKER)
    resolved = {}
    for name, count in queries.items():
        want = math.ceil(QUERY_COST[name] * count / budget) if count > 0 else 1
        resolved[name] = max(1, min(max(count, 1), want))
    return resolved


def plan_shards(queries: Mapping[str, int], shards) -> list[ShardSpec]:
    """The canonical job list: platform-major, query-index-minor.

    ``shards=None`` plans the legacy decomposition (one whole-platform
    shard, legacy RNG streams).  Otherwise each platform gets
    ``min(shards, count)`` contiguous ranges of near-equal size (earlier
    ranges take the remainder), always at least one spec per platform so
    zero-query platforms still register their telemetry.
    """
    queries = dict(queries)
    if shards is None:
        return [
            ShardSpec(name, 0, 0, queries.get(name, 0), False)
            for name in PLATFORMS
        ]
    shards = validate_shards(shards)
    specs: list[ShardSpec] = []
    for name in PLATFORMS:
        count = queries.get(name, 0)
        want = shards if isinstance(shards, int) else shards.get(name, 1)
        parts = max(1, min(want, count))
        base, extra = divmod(count, parts)
        start = 0
        for ordinal in range(parts):
            size = base + (1 if ordinal < extra else 0)
            specs.append(ShardSpec(name, ordinal, start, size, True))
            start += size
    return specs


def estimated_cost(spec: ShardSpec) -> float:
    """Scheduler cost estimate for one job (simulated seconds)."""
    return QUERY_COST.get(spec.platform, 1.0) * spec.count


# -- per-shard results --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimClock:
    """Stand-in for a worker's :class:`~repro.sim.Environment` clock."""

    now: float
    events_processed: int


@dataclass(frozen=True, slots=True)
class PlatformSummary:
    """Picklable snapshot of one platform simulator after its run.

    Mirrors the reporting surface of
    :class:`~repro.platforms.common.PlatformBase` that fleet-level consumers
    (degraded-mode comparisons, tests) read: the query log, served counts,
    mean latency, and the simulation clock.  When a platform ran as several
    sub-shards the merged summary concatenates the query logs in canonical
    query-index order and sums the (shard-local) clocks and event counts.
    """

    platform_name: str
    records: tuple[QueryRecord, ...]
    env: SimClock
    node_crashes: int = 0

    @classmethod
    def from_platform(cls, platform: PlatformBase) -> "PlatformSummary":
        return cls(
            platform_name=platform.platform_name,
            records=tuple(platform.records),
            env=SimClock(
                now=platform.env.now,
                events_processed=platform.env.events_processed,
            ),
            node_crashes=sum(node.crashes for node in platform.cluster.nodes),
        )

    def merged_with(self, other: "PlatformSummary") -> "PlatformSummary":
        return PlatformSummary(
            platform_name=self.platform_name,
            records=self.records + other.records,
            env=SimClock(
                now=self.env.now + other.env.now,
                events_processed=self.env.events_processed
                + other.env.events_processed,
            ),
            node_crashes=self.node_crashes + other.node_crashes,
        )

    @property
    def queries_served(self) -> int:
        return len(self.records)

    def mean_latency(self) -> float:
        if not self.records:
            raise ValueError("no queries served")
        return sum(record.latency for record in self.records) / len(self.records)


@dataclass(frozen=True, slots=True)
class ChaosSummary:
    """Picklable snapshot of a worker's :class:`ChaosController` ledger."""

    name: str
    fault_ids: tuple[str, ...]
    injected: tuple = ()
    healed: tuple = ()

    @classmethod
    def from_controller(cls, controller: ChaosController) -> "ChaosSummary":
        return cls(
            name=controller.name,
            fault_ids=controller.fault_ids,
            injected=tuple(controller.injected),
            healed=tuple(controller.healed),
        )

    def merged_with(self, other: "ChaosSummary") -> "ChaosSummary":
        return ChaosSummary(
            name=self.name,
            fault_ids=self.fault_ids,
            injected=self.injected + other.injected,
            healed=self.healed + other.healed,
        )


@dataclass
class ShardResult:
    """Everything one job measured, ready to merge."""

    spec: ShardSpec
    summary: PlatformSummary
    profiler: FleetProfiler
    telemetry: TelemetrySummary
    e2e: E2EBreakdown
    chaos: ChaosSummary | None = None
    obs: ObservabilityResult | None = None

    @property
    def name(self) -> str:
        return self.spec.platform


def run_shard(
    config: Mapping, spec: ShardSpec, progress=None, simulation=None
) -> "ShardResult":
    """Job entry point: simulate one query range against private sinks.

    Module-level (not a closure) so worker processes can unpickle it;
    ``config`` is :meth:`FleetSimulation.config` of ``simulation`` (the
    class; :class:`FleetSimulation` by default).  ``progress`` is an
    optional queue proxy the shard's observer pushes live scrape rows into.
    Pure in the scheduling sense: the result depends only on
    ``(config, spec)``.
    """
    if simulation is None:
        from repro.workloads.fleet import FleetSimulation as simulation

    sim = simulation(**config)
    sim.progress_sink = progress
    name = spec.platform
    profiler = sim.profiler_for(name)
    telemetry = CapacityTelemetry()
    registry = MetricsRegistry() if sim.observability is not None else None
    platform = sim.build_platform(name, profiler, telemetry, registry)
    observer = (
        sim.start_observer(name, platform, registry)
        if registry is not None
        else None
    )
    e2e, controller = sim.serve_platform(
        name,
        platform,
        start=spec.start,
        count=spec.count,
        per_query_streams=spec.reseed,
    )
    obs = None
    if observer is not None:
        series = observer.finish()
        if not spec.reseed:
            # Legacy whole-platform shards publish their telemetry gauges
            # in-worker (platform labels are disjoint, so last-write-wins
            # merging is exact).  Sub-shards of one platform would clobber
            # each other; merge_shard_results publishes the true totals
            # once instead.
            telemetry.publish(registry)
        obs = ObservabilityResult(registry=registry, series={name: series})
    return ShardResult(
        spec=spec,
        summary=PlatformSummary.from_platform(platform),
        profiler=profiler,
        telemetry=telemetry.summary(),
        e2e=e2e,
        chaos=ChaosSummary.from_controller(controller) if controller else None,
        obs=obs,
    )


# -- merge --------------------------------------------------------------------


def _extend_series(
    series: dict[str, TimeSeries], name: str, part: TimeSeries
) -> None:
    current = series.get(name)
    if current is None:
        series[name] = TimeSeries(columns=part.columns, rows=list(part.rows))
        return
    if part.columns == current.columns or not part.columns:
        current.rows.extend(part.rows)
        return
    if not current.columns:
        current.columns = part.columns
        current.rows.extend(part.rows)
        return
    # Column sets can differ when an early sub-shard never scraped a
    # metric a later one did; re-map through the named columns.
    for row in part.rows:
        current.append(row[0], dict(zip(part.columns, row[1:])))


def merge_shard_results(
    sim: "FleetSimulation", results: Sequence[ShardResult]
) -> "FleetResult":
    """Merge job results into one :class:`FleetResult`, canonically ordered.

    Results are sorted platform-major / ordinal-minor regardless of
    completion order, then merged exactly the way the sequential drivers
    do: OLTP shards are absorbed whole (samples plus CPU-second/credit
    accounting), BigQuery shards are sample-extended, telemetry/e2e/chaos
    concatenate per platform.  Because this function is shared by the
    sequential sharded driver and the work-stealing pool, parity between
    them reduces to the jobs themselves being pure.
    """
    from repro.workloads.fleet import FleetResult

    order = {name: index for index, name in enumerate(PLATFORMS)}
    results = sorted(results, key=lambda r: (order[r.spec.platform], r.spec.ordinal))
    sharded = any(r.spec.reseed for r in results)

    profiler = sim.fleet_profiler()
    for shard in results:
        if shard.spec.platform == BIGQUERY:
            profiler.extend(shard.profiler.samples)
        else:
            profiler.merge(shard.profiler)

    platforms: dict[str, PlatformSummary] = {}
    e2e: dict[str, E2EBreakdown] = {}
    chaos: dict[str, ChaosSummary] = {}
    for shard in results:
        name = shard.spec.platform
        if name in platforms:
            platforms[name] = platforms[name].merged_with(shard.summary)
            e2e[name].extend(shard.e2e.queries)
        else:
            platforms[name] = shard.summary
            e2e[name] = shard.e2e
        if shard.chaos is not None:
            previous = chaos.get(name)
            chaos[name] = (
                shard.chaos if previous is None
                else previous.merged_with(shard.chaos)
            )

    telemetry = TelemetrySummary.merged(shard.telemetry for shard in results)
    metrics = None
    obs_parts = [shard.obs for shard in results if shard.obs is not None]
    if obs_parts:
        metrics = ObservabilityResult()
        for part in obs_parts:
            metrics.registry.merge(part.registry)
            for name, part_series in part.series.items():
                _extend_series(metrics.series, name, part_series)
        if sharded:
            telemetry.publish(metrics.registry)
    return FleetResult(
        platforms=platforms,
        profiler=profiler,
        telemetry=telemetry,
        e2e=e2e,
        chaos=chaos,
        metrics=metrics,
    )


# -- host-side scheduler telemetry --------------------------------------------


@dataclass
class WorkerStats:
    """One worker's host-side execution totals."""

    worker: int
    jobs: int = 0
    steals: int = 0
    busy_seconds: float = 0.0


@dataclass(frozen=True, slots=True)
class ShardWall:
    """Host wall-clock for one completed job."""

    platform: str
    ordinal: int
    queries: int
    worker: int
    wall_seconds: float


@dataclass
class SchedulerStats:
    """How a fleet run was executed, in host time.

    Deliberately *not* part of the measurement snapshot
    (:func:`repro.testing.diff.snapshot`): worker placement, steal counts,
    and wall-clock are facts about the host, not the simulated fleet, and
    must never be able to break byte-parity between execution modes.
    Callers that want them in an export call :meth:`publish` explicitly.
    """

    mode: str
    shard_count: int = 0
    worker_count: int = 0
    reason: str | None = None
    workers: list[WorkerStats] = field(default_factory=list)
    shards: list[ShardWall] = field(default_factory=list)

    def steal_count(self) -> int:
        return sum(worker.steals for worker in self.workers)

    def utilization(self) -> dict[int, float]:
        """Per-worker busy time as a fraction of the busiest worker's."""
        span = max((w.busy_seconds for w in self.workers), default=0.0)
        if span <= 0:
            return {w.worker: 0.0 for w in self.workers}
        return {w.worker: w.busy_seconds / span for w in self.workers}

    def max_over_mean_shard_wall(self) -> float:
        """Straggler factor: slowest shard over the mean shard wall."""
        walls = [shard.wall_seconds for shard in self.shards]
        if not walls:
            return 0.0
        mean = sum(walls) / len(walls)
        return max(walls) / mean if mean > 0 else 0.0

    def _worker(self, worker: int) -> WorkerStats:
        stats = next((w for w in self.workers if w.worker == worker), None)
        if stats is None:
            stats = WorkerStats(worker=worker)
            self.workers.append(stats)
        return stats

    def record_steal(self, worker: int) -> None:
        self._worker(worker).steals += 1

    def record(self, worker: int, spec: ShardSpec, wall_seconds: float) -> None:
        stats = self._worker(worker)
        stats.jobs += 1
        stats.busy_seconds += wall_seconds
        self.shards.append(
            ShardWall(
                platform=spec.platform,
                ordinal=spec.ordinal,
                queries=spec.count,
                worker=worker,
                wall_seconds=wall_seconds,
            )
        )

    def publish(self, registry) -> None:
        """Expose scheduler telemetry as ``repro_scheduler_*`` metrics.

        Opt-in (never called on the measurement path): gauges carry host
        wall-clock, which differs run to run by construction.
        """
        registry.set_gauge(
            "repro_scheduler_shards", float(self.shard_count),
            "Sub-shard jobs executed", mode=self.mode,
        )
        for stats in self.workers:
            labels = {"worker": str(stats.worker)}
            registry.set_gauge(
                "repro_scheduler_worker_busy_seconds", stats.busy_seconds,
                "Host seconds each worker spent running jobs", **labels,
            )
            registry.set_gauge(
                "repro_scheduler_worker_jobs", float(stats.jobs),
                "Jobs each worker completed", **labels,
            )
            registry.set_gauge(
                "repro_scheduler_steals_total", float(stats.steals),
                "Jobs a worker took from a non-home platform queue", **labels,
            )

    def to_jsonable(self) -> dict:
        return {
            "mode": self.mode,
            "reason": self.reason,
            "shard_count": self.shard_count,
            "worker_count": self.worker_count,
            "steals": self.steal_count(),
            "max_over_mean_shard_wall": round(self.max_over_mean_shard_wall(), 3),
            "workers": [
                {
                    "worker": w.worker,
                    "jobs": w.jobs,
                    "steals": w.steals,
                    "busy_seconds": round(w.busy_seconds, 3),
                    "utilization": round(self.utilization()[w.worker], 3),
                }
                for w in self.workers
            ],
            "per_shard": [
                {
                    "platform": s.platform,
                    "ordinal": s.ordinal,
                    "queries": s.queries,
                    "worker": s.worker,
                    "wall_seconds": round(s.wall_seconds, 3),
                }
                for s in self.shards
            ],
        }
