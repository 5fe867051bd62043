"""The fleet driver: one simulated "day" of traffic on all three platforms.

Builds the three platform simulators, serves a calibrated query mix on each,
runs the whole measurement pipeline (Dapper traces -> Figure 2 breakdowns,
GWP samples -> Figures 3-6 + Tables 6-7, storage telemetry -> Table 1), and
exposes *measured* :class:`~repro.core.profile.PlatformProfile` objects that
feed the Section 6 model studies -- the measurement-to-model hand-off the
paper performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro import taxonomy
from repro.core.profile import PlatformProfile, QueryGroupProfile, QUERY_GROUPS
from repro.errors import ConfigError, EmptyFleetError
from repro.faults import ChaosController, FaultPlan
from repro.observability import (
    MetricsRegistry,
    ObservabilityConfig,
    ObservabilityResult,
    PlatformObserver,
)
from repro.platforms.bigquery import BigQueryEngine
from repro.platforms.bigtable import BigTableStore
from repro.platforms.common import PlatformBase
from repro.platforms.spanner import SpannerDatabase
from repro.profiling.breakdown import CpuCycleBreakdown, E2EBreakdown, trace_breakdown
from repro.profiling.counters import CounterRates, PerfCounterModel
from repro.profiling.dapper import Tracer
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment
from repro.storage.telemetry import CapacityTelemetry
from repro.workloads import calibration
from repro.workloads.calibration import BIGQUERY, BIGTABLE, PLATFORMS, SPANNER

__all__ = [
    "FleetResult",
    "FleetSimulation",
    "counter_model_for",
    "normalize_queries",
    "FLEET_SAMPLE_PERIOD",
    "BIGQUERY_SAMPLE_PERIOD",
]

#: GWP sampling period shared by the OLTP platforms (Spanner, BigTable).
FLEET_SAMPLE_PERIOD = 5e-5
#: BigQuery's queries run for seconds; sample it more coarsely so one fleet
#: run stays tractable while still yielding ~1e5 samples.
BIGQUERY_SAMPLE_PERIOD = 20e-3

_PLATFORM_SEED_OFFSET = {SPANNER: 10, BIGTABLE: 20, BIGQUERY: 30}


def normalize_queries(queries: Mapping[str, int] | int) -> dict[str, int]:
    """Resolve the ``queries`` knob into a full per-platform mapping.

    An int fans out to every platform.  A mapping may name a *subset* of
    platforms -- the rest serve zero queries -- so single-platform fleets
    are expressed naturally as ``{"Spanner": 1}``.  An empty mapping, an
    unknown platform name, or a negative count raises a typed error
    instead of surfacing later as a bare ``KeyError`` mid-run.
    """
    if isinstance(queries, int):
        if queries < 0:
            raise ConfigError(f"queries must be non-negative, got {queries}")
        return {name: queries for name in PLATFORMS}
    queries = dict(queries)
    if not queries:
        raise EmptyFleetError(
            "fleet config names no platforms (empty queries mapping)"
        )
    unknown = sorted(set(queries) - set(PLATFORMS))
    if unknown:
        raise ConfigError(
            f"unknown platform(s) {unknown}; choose from {list(PLATFORMS)}"
        )
    for name, count in queries.items():
        if count < 0:
            raise ConfigError(f"{name}: queries must be non-negative, got {count}")
    return {name: int(queries.get(name, 0)) for name in PLATFORMS}


def counter_model_for(platform: str, jitter: float = 0.02) -> PerfCounterModel:
    """Per-platform counter model with the Table 7 per-category rates."""
    rates = {}
    for broad, stats in calibration.CATEGORY_UARCH[platform].items():
        rates[broad.value] = CounterRates(
            ipc=stats.ipc,
            br=stats.br_mpki,
            l1i=stats.l1i_mpki,
            l2i=stats.l2i_mpki,
            llc=stats.llc_mpki,
            itlb=stats.itlb_mpki,
            dtlb_ld=stats.dtlb_ld_mpki,
        )
    return PerfCounterModel(rates, jitter=jitter)


@dataclass
class FleetResult:
    """Everything measured during one fleet run."""

    platforms: dict[str, PlatformBase]
    profiler: FleetProfiler
    telemetry: CapacityTelemetry
    e2e: dict[str, E2EBreakdown]
    chaos: dict[str, "ChaosController"] = field(default_factory=dict)
    #: Observability output (None when the run was unobserved).  Strictly
    #: additive: every other field is byte-identical with or without it.
    metrics: ObservabilityResult | None = None
    #: Host-side execution telemetry (scheduler mode, per-shard wall-clock,
    #: worker utilization, steal counts).  Never part of the measurement
    #: snapshot: how a run was executed must not affect what it measured.
    scheduler: "SchedulerStats | None" = None
    cycles: dict[str, CpuCycleBreakdown] = field(init=False)

    def __post_init__(self) -> None:
        self.cycles = {
            name: self.profiler.cycle_breakdown(name) for name in self.platforms
        }

    def measured_profile(self, platform: str) -> PlatformProfile:
        """A model-ready profile built purely from measurements."""
        breakdown = self.e2e[platform]
        groups = []
        total_queries = len(breakdown.queries)
        if total_queries == 0:
            raise ValueError(f"no traced queries for {platform}")
        for group_name in QUERY_GROUPS:
            members = [q for q in breakdown.queries if q.group == group_name]
            if not members:
                continue
            t_cpu_true = sum(q.t_cpu + q.overlap_hidden for q in members) / len(members)
            t_remote = sum(q.t_remote for q in members) / len(members)
            t_io = sum(q.t_io for q in members) / len(members)
            t_serial = t_cpu_true + t_remote + t_io
            f_values = []
            for q in members:
                floor = min(q.t_cpu + q.overlap_hidden, q.t_remote + q.t_io)
                f_values.append(
                    1.0 if floor <= 0 else max(0.0, 1.0 - q.overlap_hidden / floor)
                )
            groups.append(
                QueryGroupProfile(
                    name=group_name,
                    query_fraction=len(members) / total_queries,
                    t_serial=t_serial,
                    cpu_fraction=t_cpu_true / t_serial,
                    remote_fraction=t_remote / t_serial,
                    io_fraction=t_io / t_serial,
                    f=min(1.0, sum(f_values) / len(f_values)),
                )
            )
        # Normalize query fractions (some groups may be missing).
        scale = sum(g.query_fraction for g in groups)
        groups = [
            QueryGroupProfile(
                name=g.name,
                query_fraction=g.query_fraction / scale,
                t_serial=g.t_serial,
                cpu_fraction=g.cpu_fraction,
                remote_fraction=g.remote_fraction,
                io_fraction=g.io_fraction,
                f=g.f,
            )
            for g in groups
        ]
        return PlatformProfile(
            platform=platform,
            groups=tuple(groups),
            cpu_component_fractions=self.cycles[platform].cpu_fractions(),
            bytes_per_query=calibration.BYTES_PER_QUERY[platform],
        )

    def table1_rows(self) -> dict[str, tuple[float, float, float]]:
        return self.telemetry.table1_rows()

    def snapshot(self, *, traces: bool = False):
        """This run's full measurement surface as comparable plain rows.

        The differential-verification hook: two runs that must agree
        (sequential vs parallel, metrics on vs off, coalesced vs chunked,
        replay vs original) are compared snapshot-to-snapshot with
        :func:`repro.testing.diff.diff_snapshots`.  Lazy import keeps the
        driver free of a dependency on the test harness.
        """
        from repro.testing.diff import snapshot

        return snapshot(self, traces=traces)

    def uarch_table(self, platform: str) -> Mapping[str, float]:
        """Table 6 row measured from sampled counters."""
        aggregate = self.profiler.counter_aggregate(platform)
        row = {"ipc": aggregate.ipc}
        for event in ("br", "l1i", "l2i", "llc", "itlb", "dtlb_ld"):
            row[event] = aggregate.mpki(event)
        return row

    def uarch_category_table(
        self, platform: str
    ) -> dict[taxonomy.BroadCategory, Mapping[str, float]]:
        """Table 7 rows measured from sampled counters."""
        result = {}
        for broad in taxonomy.BroadCategory:
            aggregate = self.profiler.counter_aggregate(platform, broad)
            row = {"ipc": aggregate.ipc}
            for event in ("br", "l1i", "l2i", "llc", "itlb", "dtlb_ld"):
                row[event] = aggregate.mpki(event)
            result[broad] = row
        return result


class FleetSimulation:
    """Runs the three platforms and collects the full measurement set.

    Each platform gets its own :class:`Environment` (their time scales differ
    by three orders of magnitude) but they share one fleet profiler and one
    capacity-telemetry sink, like the production fleet shares GWP.
    """

    def __init__(
        self,
        *,
        queries: Mapping[str, int] | int = 200,
        seed: int = 0,
        trace_sample_rate: int = 1,
        counter_jitter: float = 0.02,
        bigquery_dataset_rows: int = 4000,
        fault_plans: Mapping[str, FaultPlan] | None = None,
        observability: ObservabilityConfig | Mapping[str, float] | bool | None = None,
        shards: int | Mapping[str, int] | None = None,
        engine: str = "heap",
    ):
        from repro.platforms.common import ENGINES
        from repro.workloads.shards import validate_shards

        if engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.queries = normalize_queries(queries)
        #: Query-granular sharding: ``None`` (default) keeps the legacy
        #: whole-platform decomposition with platform-lifetime RNG streams;
        #: an int or ``{platform: count}`` mapping splits each platform's
        #: query stream into that many contiguous sub-shards with per-query
        #: RNG streams.  ``"auto"`` is resolved to a concrete mapping at the
        #: config layer (repro.api) so a run's shard geometry is pinned
        #: before it can reach a worker pool.
        self.shards = validate_shards(shards)
        self.seed = seed
        self.trace_sample_rate = trace_sample_rate
        self.counter_jitter = counter_jitter
        self.bigquery_dataset_rows = bigquery_dataset_rows
        #: Event engine: ``"heap"``, the only one (see docs/performance.md).
        self.engine = engine
        #: Optional chaos: platform name -> FaultPlan replayed into that
        #: platform's environment while it serves its query stream.
        self.fault_plans = dict(fault_plans or {})
        #: Observability: ``True`` / a ``{platform: scrape_period}`` mapping /
        #: an :class:`ObservabilityConfig` turns on metrics publication and
        #: periodic scraping; ``None`` (default) runs unobserved.
        self.observability = ObservabilityConfig.coerce(observability)
        #: Live-progress channel for ``repro top`` (a queue-like object with
        #: ``put``); deliberately not part of :meth:`config` -- parallel
        #: workers receive theirs separately because queue proxies must be
        #: passed as process arguments, not pickled inside the config.
        self.progress_sink = None

    # -- per-platform building blocks (shared with the parallel runner) ------

    def config(self) -> dict:
        """Constructor kwargs reproducing this simulation (picklable)."""
        return {
            "queries": dict(self.queries),
            "seed": self.seed,
            "trace_sample_rate": self.trace_sample_rate,
            "counter_jitter": self.counter_jitter,
            "bigquery_dataset_rows": self.bigquery_dataset_rows,
            "fault_plans": dict(self.fault_plans),
            "observability": self.observability,
            "shards": self.shards if not isinstance(self.shards, dict)
            else dict(self.shards),
            "engine": self.engine,
        }

    def fleet_profiler(self) -> FleetProfiler:
        """The shared GWP instance (Spanner + BigTable + merge target)."""
        return FleetProfiler(
            sample_period=FLEET_SAMPLE_PERIOD,
            counter_models={
                name: counter_model_for(name, self.counter_jitter)
                for name in PLATFORMS
            },
            seed=self.seed,
        )

    def bigquery_profiler(self) -> FleetProfiler:
        """BigQuery's coarser-period profiler shard."""
        return FleetProfiler(
            sample_period=BIGQUERY_SAMPLE_PERIOD,
            counter_models={BIGQUERY: counter_model_for(BIGQUERY, self.counter_jitter)},
            seed=self.seed + 1,
        )

    def profiler_for(self, name: str) -> FleetProfiler:
        """The profiler a platform reports into when run as its own shard."""
        return self.bigquery_profiler() if name == BIGQUERY else self.fleet_profiler()

    def build_platform(
        self,
        name: str,
        profiler: FleetProfiler,
        telemetry: CapacityTelemetry,
        metrics: MetricsRegistry | None = None,
    ) -> PlatformBase:
        """Construct one platform simulator on a fresh environment."""
        env = Environment()
        tracer = Tracer(self.trace_sample_rate)
        seed = self.seed + _PLATFORM_SEED_OFFSET[name]
        profile = calibration.build_profile(name)
        if name == SPANNER:
            platform: PlatformBase = SpannerDatabase(
                env, profile, profiler=profiler, telemetry=telemetry,
                tracer=tracer, seed=seed, metrics=metrics,
            )
        elif name == BIGTABLE:
            platform = BigTableStore(
                env, profile, profiler=profiler, telemetry=telemetry,
                tracer=tracer, seed=seed, metrics=metrics,
            )
        elif name == BIGQUERY:
            platform = BigQueryEngine(
                env, profile, profiler=profiler, telemetry=telemetry,
                tracer=tracer, seed=seed, dataset_rows=self.bigquery_dataset_rows,
                metrics=metrics,
            )
        else:
            raise ValueError(f"unknown platform {name!r}")
        return platform

    def start_observer(
        self, name: str, platform: PlatformBase, registry: MetricsRegistry
    ) -> PlatformObserver | None:
        """Attach + start the periodic scraper for one platform (if enabled)."""
        if self.observability is None:
            return None
        observer = PlatformObserver(
            platform,
            registry,
            period=self.observability.period_for(name),
            progress=self.progress_sink,
        )
        return observer.start()

    def serve_platform(
        self,
        name: str,
        platform: PlatformBase,
        *,
        start: int = 0,
        count: int | None = None,
        per_query_streams: bool = False,
    ) -> tuple[E2EBreakdown, ChaosController | None]:
        """Serve one platform's query stream (with chaos, if planned).

        ``start``/``count`` select a contiguous query-index range (defaults:
        the platform's whole stream); ``per_query_streams`` switches the
        platform onto per-query RNG streams so the range's measurements are
        independent of which process serves it (the sub-shard contract).
        """
        env = platform.env
        controller = None
        plan = self.fault_plans.get(name)
        if plan is not None:
            controller = ChaosController.for_platform(platform, plan)
            controller.start()
        if count is None:
            count = self.queries[name]
        env.run(
            until=env.process(
                platform.serve(
                    count,
                    start_index=start,
                    per_query_streams=per_query_streams,
                )
            )
        )
        if controller is not None:
            controller.finish()
        breakdown = E2EBreakdown(name)
        for trace in platform.tracer.finished_traces():
            breakdown.add(trace_breakdown(trace))
        return breakdown, controller

    def run(self) -> FleetResult:
        if self.shards is not None:
            return self._run_sharded()
        telemetry = CapacityTelemetry()
        profiler = self.fleet_profiler()
        bigquery_profiler = self.bigquery_profiler()
        registry = MetricsRegistry() if self.observability is not None else None

        platforms: dict[str, PlatformBase] = {}
        e2e: dict[str, E2EBreakdown] = {}
        chaos: dict[str, ChaosController] = {}
        series = {}
        for name in PLATFORMS:
            shard = bigquery_profiler if name == BIGQUERY else profiler
            platform = self.build_platform(name, shard, telemetry, registry)
            platforms[name] = platform
            observer = (
                self.start_observer(name, platform, registry)
                if registry is not None
                else None
            )
            e2e[name], controller = self.serve_platform(name, platform)
            if observer is not None:
                series[name] = observer.finish()
            if controller is not None:
                chaos[name] = controller

        # Merge the BigQuery profiler shard into the fleet profiler.
        profiler.extend(bigquery_profiler.samples)
        metrics = None
        if registry is not None:
            telemetry.publish(registry)
            metrics = ObservabilityResult(registry=registry, series=series)
        return FleetResult(
            platforms=platforms,
            profiler=profiler,
            telemetry=telemetry,
            e2e=e2e,
            chaos=chaos,
            metrics=metrics,
        )

    def _run_sharded(self) -> FleetResult:
        """Sequential reference executor for query-granular shards.

        Runs the canonical job list in canonical order, one job at a time,
        through the exact same :func:`~repro.workloads.shards.run_shard` /
        :func:`~repro.workloads.shards.merge_shard_results` pair as the
        work-stealing pool -- the parity baseline every parallel schedule
        is compared against.
        """
        import time

        from repro.workloads.shards import (
            SchedulerStats,
            merge_shard_results,
            plan_shards,
            run_shard,
        )

        specs = plan_shards(self.queries, self.shards)
        stats = SchedulerStats(
            mode="sequential-sharded", shard_count=len(specs), worker_count=1
        )
        config = self.config()
        results = []
        for spec in specs:
            began = time.perf_counter()
            results.append(run_shard(config, spec, self.progress_sink, type(self)))
            stats.record(0, spec, time.perf_counter() - began)
        result = merge_shard_results(self, results)
        result.scheduler = stats
        return result
