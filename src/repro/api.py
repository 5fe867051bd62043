"""The stable facade: one place to run, sweep, report, and read a fleet.

Everything the CLI (and downstream scripts) need lives here:

* :class:`FleetConfig` -- one frozen dataclass describing a fleet run,
  including execution mode (``parallel=True`` fans each platform out to a
  worker process) so callers never branch on runner classes.
* :func:`run_fleet` -- the single entry point: config in,
  :class:`~repro.workloads.fleet.FleetResult` out, sequential or parallel
  selected by the config.
* :func:`sweep` -- the Section 6 design-point sweep for one platform.
* :func:`profile_report` -- the full markdown reproduction report.
* :class:`Profile` / :class:`Telemetry` -- the read API over a finished
  run: breakdowns, measured profiles, and folded stacks on one side;
  Prometheus text, scraped time series, and counter/quantile lookups on
  the other.
* :class:`ServeConfig` / :func:`run_service` -- the streaming half of the
  facade: an open-loop service run described by one frozen dataclass, and
  an iterator of rolling :class:`WindowSnapshot` rows instead of one
  terminal result (the API behind ``repro serve`` / ``repro top
  --follow``).
* :func:`export_text` / :data:`EXPORT_FORMATS` /
  :func:`validate_export_format` -- finished run to exporter text in one
  call, with a typed error for unknown formats raised *before* any fleet
  runs.
* :func:`selftest` -- the differential verification harness behind
  ``repro selftest``.
* The typed config errors (:class:`ConfigError`,
  :class:`EmptyFleetError`, :class:`UnknownFormatError`) re-exported so
  callers can catch them without importing submodules.

This module is the enforced import surface: the direct constructors
(``FleetSimulation``, ``ParallelFleetSimulation``, ...) are no longer
importable from :mod:`repro.workloads`.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, fields, replace
from typing import Any, ClassVar, Iterator, Mapping, Sequence

from repro.errors import (
    ConfigError,
    EmptyFleetError,
    StoreError,
    UnknownFormatError,
)
from repro.observability import (
    ObservabilityConfig,
    ObservabilityResult,
    TimeSeries,
    fleet_traces,
    folded_stacks,
    prometheus_text,
    traces_jsonl,
)
from repro.platforms.common import ENGINES
from repro.workloads.fleet import FleetResult, FleetSimulation, normalize_queries
from repro.workloads.service import (
    ARRIVAL_CURVES,
    DEFAULT_TENANTS,
    AgentFleet,
    ArrivalSchedule,
    TenantProfile,
    WindowSnapshot,
    serve_windows,
    validate_tenants,
)
from repro.workloads.shards import QUERY_COST, SchedulerStats, resolve_shards
from repro.store import ProfileStore, open_store

logger = logging.getLogger("repro.api")


def _resolve_store(store) -> tuple[ProfileStore, bool]:
    """A live handle from a handle-or-path; True when this call owns it."""
    if isinstance(store, ProfileStore):
        return store, False
    return open_store(store), True

__all__ = [
    "FleetConfig",
    "build_simulation",
    "run_fleet",
    "ServeConfig",
    "run_service",
    "WindowSnapshot",
    "TenantProfile",
    "DEFAULT_TENANTS",
    "ARRIVAL_CURVES",
    "ParallelPlan",
    "parallel_plan",
    "MIN_PARALLEL_COST",
    "SchedulerStats",
    "sweep",
    "sweep_seeds",
    "SweepResult",
    "profile_report",
    "ReportResult",
    "Profile",
    "Telemetry",
    "ConfigError",
    "EmptyFleetError",
    "UnknownFormatError",
    "StoreError",
    "open_store",
    "EXPORT_FORMATS",
    "export_text",
    "validate_export_format",
    "selftest",
]


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run, fully described (execution mode included).

    ``queries`` is either a per-platform mapping or a single int applied to
    every platform; ``observability=True`` (or a ``{platform: scrape
    period}`` mapping) turns on the metrics registry and periodic scraper;
    ``parallel=True`` runs one worker process per platform with a
    deterministic merge -- same measurements either way.
    """

    queries: Mapping[str, int] | int = 200
    seed: int = 0
    parallel: bool = False
    max_workers: int | None = None
    #: Query-granular sharding: ``None`` keeps the legacy whole-platform
    #: decomposition; an int or ``{platform: count}`` splits each platform's
    #: query stream into contiguous sub-shards (per-query RNG streams, same
    #: result for any worker count or steal order); ``"auto"`` sizes shards
    #: from the per-platform cost model and the host's CPU count.
    shards: int | str | Mapping[str, int] | None = None
    trace_sample_rate: int = 1
    counter_jitter: float = 0.02
    bigquery_dataset_rows: int = 4000
    fault_plans: Mapping[str, Any] | None = None
    observability: ObservabilityConfig | Mapping[str, float] | bool | None = None
    #: Event engine: ``"heap"`` is the only valid value.  Its block drain
    #: is checked against the per-boundary lane by the ``engine``
    #: differential pair in ``repro selftest``.
    engine: str = "heap"
    #: The storage read path every run ships with -- provenance, not a
    #: setting (only chaos wiring and :mod:`repro.testing.lanes` switch a
    #: DFS to its per-chunk reader).
    io_mode: ClassVar[str] = "batched"

    def with_overrides(self, **overrides) -> "FleetConfig":
        """A copy with the given fields replaced (validates field names)."""
        return replace(self, **overrides)


def _coerce_config(
    config: FleetConfig | Mapping[str, Any] | None, overrides: Mapping[str, Any]
) -> FleetConfig:
    if config is None:
        config = FleetConfig()
    elif isinstance(config, Mapping):
        config = FleetConfig(**config)
    elif not isinstance(config, FleetConfig):
        raise TypeError(f"expected FleetConfig, mapping, or None, got {config!r}")
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def build_simulation(
    config: FleetConfig | Mapping[str, Any] | None = None, **overrides
) -> FleetSimulation:
    """The simulation object a config describes (parallel-aware).

    ``shards="auto"`` is resolved here -- before the simulation exists --
    so a run's shard geometry is pinned by the config layer and identical
    for the sequential and parallel executors of the same config.
    """
    config = _coerce_config(config, overrides)
    kwargs = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in ("parallel", "max_workers", "shards")
    }
    kwargs["shards"] = resolve_shards(
        config.shards,
        normalize_queries(config.queries),
        workers=config.max_workers or os.cpu_count(),
    )
    if config.parallel:
        from repro.workloads.parallel import ParallelFleetSimulation

        return ParallelFleetSimulation(max_workers=config.max_workers, **kwargs)
    return FleetSimulation(**kwargs)


#: Estimated simulated-seconds of work below which ``parallel=True`` falls
#: back to the sequential driver: worker spawn + pickling costs more than
#: the fan-out saves (the BENCH regression shape this heuristic fixes).
MIN_PARALLEL_COST = 30.0


@dataclass(frozen=True)
class ParallelPlan:
    """Whether a config should actually fan out, and why not if not."""

    parallel: bool
    reason: str | None = None


def parallel_plan(
    config: FleetConfig | Mapping[str, Any] | None = None, **overrides
) -> ParallelPlan:
    """Decide whether ``parallel=True`` is worth honoring on this host.

    ``--parallel`` must never be silently *slower* than sequential, so a
    parallel request auto-falls back (with a reason) when the host has too
    few CPUs (``os.cpu_count() <= 2``) or the workload is too small to
    amortize worker spawn (estimated cost below :data:`MIN_PARALLEL_COST`).
    An explicit ``max_workers`` is an instruction, not a hint -- the
    heuristic steps aside and the pool is built as asked.
    """
    config = _coerce_config(config, overrides)
    if not config.parallel:
        return ParallelPlan(False)
    if config.max_workers is not None:
        return ParallelPlan(True)
    cpus = os.cpu_count() or 1
    if cpus <= 2:
        return ParallelPlan(
            False, f"host has {cpus} CPU(s); parallel fan-out needs > 2"
        )
    queries = normalize_queries(config.queries)
    cost = sum(QUERY_COST[name] * count for name, count in queries.items())
    if cost < MIN_PARALLEL_COST:
        return ParallelPlan(
            False,
            f"workload too small (~{cost:.1f} simulated s "
            f"< {MIN_PARALLEL_COST:.0f} s threshold)",
        )
    return ParallelPlan(True)


def run_fleet(
    config: FleetConfig | Mapping[str, Any] | None = None,
    *,
    progress=None,
    store=None,
    store_label: str | None = None,
    **overrides,
) -> FleetResult:
    """Run one fleet simulation and return its full measurement set.

    The one entry point: sequential vs parallel comes from
    ``config.parallel``, filtered through :func:`parallel_plan` so a
    parallel request on an unsuitable host/workload runs sequentially
    instead (``result.scheduler`` records the mode and the fallback
    reason).  ``progress`` (optional, requires observability) is a
    queue-like object that receives live
    ``(platform, sim_time, queries_served, gwp_samples)`` rows during the
    run -- the channel behind ``repro top``.

    ``store`` (a path or an open :class:`~repro.store.ProfileStore`)
    ingests the finished run into the persistent profile store; the new
    run id lands on ``result.store_run_id``.  A path handle is opened
    and closed by this call; an open handle is left open for the caller.
    """
    config = _coerce_config(config, overrides)
    store_handle = owned = None
    if store is not None:
        # Open eagerly so a bad store path fails before the fleet runs.
        store_handle, owned = _resolve_store(store)
    plan = parallel_plan(config)
    fell_back = config.parallel and not plan.parallel
    if fell_back:
        logger.info("parallel run falling back to sequential: %s", plan.reason)
        config = config.with_overrides(parallel=False)
    sim = build_simulation(config)
    if progress is not None:
        sim.progress_sink = progress
    try:
        result = sim.run()
    except BaseException:
        if owned:
            store_handle.close()
        raise
    if fell_back:
        if result.scheduler is None:
            result.scheduler = SchedulerStats(mode="sequential-fallback", worker_count=1)
        else:
            result.scheduler.mode = "sequential-fallback"
        result.scheduler.reason = plan.reason
    if store_handle is not None:
        from repro.store import StoreWriter

        try:
            StoreWriter(store_handle).ingest_fleet(
                result, config=config, label=store_label
            )
        finally:
            if owned:
                store_handle.close()
    return result


# -- service mode -------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """One open-loop service run, fully described.

    The streaming counterpart of :class:`FleetConfig`: instead of a query
    count, traffic is an arrival *rate* shaped by one of the
    :data:`ARRIVAL_CURVES` and split across :class:`TenantProfile` mixes,
    and the run is read out as rolling :class:`WindowSnapshot` rows (see
    :func:`run_service`) rather than one terminal result.  All times are
    simulated seconds.
    """

    #: Simulated seconds of traffic generation (drain windows may follow).
    duration: float = 14400.0
    #: Snapshot cadence; also the GWP/Dapper drain granularity.
    window: float = 60.0
    #: Trailing windows the latency quantile sketches roll over.
    rolling_windows: int = 5
    #: Arrival curve: ``poisson`` (constant), ``diurnal``, or ``flash``.
    arrival: str = "diurnal"
    #: Mean fleet-wide arrivals per simulated second at curve multiplier 1.
    rate: float = 0.05
    diurnal_period: float = 86400.0
    diurnal_amplitude: float = 0.6
    #: Flash-crowd segment (``arrival="flash"``); ``None`` defaults the
    #: start to half the duration and the surge length to a tenth of it.
    flash_start: float | None = None
    flash_duration: float | None = None
    flash_magnitude: float = 4.0
    #: Traffic mix; ``None`` uses :data:`DEFAULT_TENANTS`.
    tenants: Sequence[TenantProfile] | None = None
    #: Simulated profiling-agent hosts and their heartbeat cadence.
    agents: int = 16
    heartbeat_period: float = 0.25
    seed: int = 0
    trace_sample_rate: int = 1
    counter_jitter: float = 0.02
    bigquery_dataset_rows: int = 4000
    #: Extra windows allowed after ``duration`` for in-flight queries to
    #: finish before the stream ends regardless.
    drain_windows: int = 50
    #: Event engine, as on :class:`FleetConfig`: only ``"heap"``.
    engine: str = "heap"

    def with_overrides(self, **overrides) -> "ServeConfig":
        """A copy with the given fields replaced (validates field names)."""
        return replace(self, **overrides)

    def resolved(self) -> "ServeConfig":
        """A validated copy with every defaulted field made concrete.

        Raises :class:`ConfigError` for out-of-range values -- the
        fail-fast gate :func:`run_service` applies before any simulation
        state exists.
        """
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.window <= 0:
            raise ConfigError(f"window must be positive, got {self.window}")
        if self.rolling_windows < 1:
            raise ConfigError(
                f"rolling_windows must be >= 1, got {self.rolling_windows}"
            )
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.trace_sample_rate < 1:
            raise ConfigError(
                f"trace_sample_rate must be >= 1, got {self.trace_sample_rate}"
            )
        if self.drain_windows < 0:
            raise ConfigError(
                f"drain_windows must be non-negative, got {self.drain_windows}"
            )
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        flash_start = (
            self.duration * 0.5 if self.flash_start is None else self.flash_start
        )
        flash_duration = (
            self.duration * 0.1
            if self.flash_duration is None
            else self.flash_duration
        )
        if flash_start < 0:
            raise ConfigError(
                f"flash_start must be non-negative, got {flash_start}"
            )
        if flash_duration < 0:
            raise ConfigError(
                f"flash_duration must be non-negative, got {flash_duration}"
            )
        tenants = validate_tenants(
            DEFAULT_TENANTS if self.tenants is None else self.tenants
        )
        # Curve and agent parameters validate in their constructors.
        ArrivalSchedule(
            self.arrival,
            diurnal_period=self.diurnal_period,
            diurnal_amplitude=self.diurnal_amplitude,
            flash_start=flash_start,
            flash_duration=flash_duration,
            flash_magnitude=self.flash_magnitude,
        )
        AgentFleet(self.agents, self.heartbeat_period)
        return replace(
            self,
            flash_start=flash_start,
            flash_duration=flash_duration,
            tenants=tenants,
        )


def _coerce_serve_config(
    config: "ServeConfig | Mapping[str, Any] | None", overrides: Mapping[str, Any]
) -> ServeConfig:
    if config is None:
        config = ServeConfig()
    elif isinstance(config, Mapping):
        config = ServeConfig(**config)
    elif not isinstance(config, ServeConfig):
        raise TypeError(f"expected ServeConfig, mapping, or None, got {config!r}")
    if overrides:
        config = config.with_overrides(**overrides)
    return config


def run_service(
    config: "ServeConfig | Mapping[str, Any] | None" = None,
    *,
    store=None,
    store_label: str | None = None,
    **overrides,
) -> Iterator[WindowSnapshot]:
    """Run an open-loop service and stream rolling window snapshots.

    The streaming entry point: config in, an iterator of
    :class:`WindowSnapshot` out -- one per simulated window, produced as
    the simulation advances, with GWP/Dapper state drained between
    windows so memory stays bounded over arbitrarily long runs.  The
    config is validated (typed :class:`ConfigError`) before any
    simulation state is built; for a fixed seed the snapshot stream is
    byte-identical to the per-boundary reference lane's.

    ``store`` mirrors :func:`run_fleet`: each window is persisted (as
    its canonical JSONL body) into one ``serve`` run as it streams past,
    without disturbing the yielded snapshots.
    """
    config = _coerce_serve_config(config, overrides).resolved()
    stream = serve_windows(config)
    if store is None:
        return stream
    # Open eagerly so a bad store path fails before any window is served.
    store_handle, owned = _resolve_store(store)
    return _serve_into_store(stream, store_handle, owned, config, store_label)


def _serve_into_store(
    stream, store_handle, owned, config, label
) -> Iterator[WindowSnapshot]:
    from repro.store import StoreWriter

    writer = StoreWriter(store_handle)
    try:
        yield from writer.stream_service(stream, config=config, label=label)
    finally:
        if owned:
            store_handle.close()


# -- design-point sweep -------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """One platform's Section 6 acceleration design points."""

    platform: str
    speedup: float
    targets: tuple[str, ...]
    #: ``(accelerator-system label, modeled fleet speedup)`` per design point.
    points: tuple[tuple[str, float], ...]

    def __bool__(self) -> bool:
        return bool(self.targets)


def sweep(platform: str, *, speedup: float = 8.0) -> SweepResult:
    """Model the accelerator design points for one platform.

    Evaluates every :data:`~repro.core.scenario.FEATURE_CONFIGS` system at
    the given per-component speedup against the platform's calibrated
    profile.  An empty ``targets`` tuple means the platform has no
    accelerated components -- callers should treat that as an empty result
    set, not a zero-speedup one.
    """
    from repro.core.scenario import FEATURE_CONFIGS, platform_speedup
    from repro.workloads.calibration import accelerated_targets, build_profile

    profile = build_profile(platform)
    targets = accelerated_targets(platform)
    points = tuple(
        (
            config.label,
            platform_speedup(profile, targets, config.with_speedup(speedup)),
        )
        for config in FEATURE_CONFIGS
    )
    return SweepResult(
        platform=platform, speedup=speedup, targets=tuple(targets), points=points
    )


def sweep_seeds(seeds, *, max_workers: int | None = None, **kwargs):
    """Run one fleet per seed over a shared process pool.

    Returns ``{seed: FleetResult}`` in input order.  Raises
    :class:`ConfigError` for an empty or duplicated seed list -- a silent
    empty sweep looks exactly like a finished one.
    """
    from repro.workloads.parallel import sweep_seeds as _sweep_seeds

    return _sweep_seeds(seeds, max_workers=max_workers, **kwargs)


# -- full report --------------------------------------------------------------


@dataclass
class ReportResult:
    """A rendered reproduction report plus the runs behind it."""

    markdown: str
    fleet: FleetResult
    validation: Any

    @property
    def queries_served(self) -> int:
        return sum(p.queries_served for p in self.fleet.platforms.values())


def profile_report(
    config: FleetConfig | Mapping[str, Any] | None = None,
    *,
    validation_seed: int = 0,
    title: str | None = None,
    **overrides,
) -> ReportResult:
    """Run the fleet + the Table 8 experiment and render the full report.

    Raises :class:`ValueError` when the fleet served no queries -- an empty
    result set renders nothing meaningful, and callers (the CLI) surface
    that as a non-zero exit instead of writing a hollow report.
    """
    from repro.analysis.markdown import render_report
    from repro.soc import ValidationExperiment

    fleet = run_fleet(config, **overrides)
    if sum(p.queries_served for p in fleet.platforms.values()) == 0:
        raise ValueError("fleet served no queries; nothing to report")
    validation = ValidationExperiment(seed=validation_seed).run()
    kwargs = {} if title is None else {"title": title}
    markdown = render_report(fleet, validation, **kwargs)
    return ReportResult(markdown=markdown, fleet=fleet, validation=validation)


# -- read API -----------------------------------------------------------------


class Profile:
    """Read API over a fleet run's profiling measurements.

    Wraps a :class:`~repro.workloads.fleet.FleetResult` and exposes the
    GWP/Dapper side: cycle and end-to-end breakdowns, measured platform
    profiles, folded flamegraph stacks, and JSONL trace search.
    """

    def __init__(self, result: FleetResult):
        self.result = result

    def platforms(self) -> tuple[str, ...]:
        return tuple(self.result.platforms)

    def sample_count(self, platform: str | None = None) -> int:
        profiler = self.result.profiler
        if platform is not None:
            return profiler.sample_count(platform)
        return sum(profiler.sample_count(name) for name in self.platforms())

    def cycle_breakdown(self, platform: str):
        return self.result.cycles[platform]

    def e2e_breakdown(self, platform: str):
        return self.result.e2e[platform]

    def measured_profile(self, platform: str):
        return self.result.measured_profile(platform)

    def folded(self, *, platform: str | None = None, weight: str = "cycles") -> str:
        """GWP samples as folded flamegraph stacks (see exporters)."""
        return folded_stacks(self.result.profiler, platform=platform, weight=weight)

    def traces(self, **filters):
        """Finished Dapper traces matching the given search predicates."""
        from repro.observability.exporters import search_traces

        return list(search_traces(fleet_traces(self.result), **filters))

    def traces_jsonl(self, **filters) -> str:
        return traces_jsonl(fleet_traces(self.result), **filters)


class Telemetry:
    """Read API over a fleet run's metrics and capacity telemetry.

    The observability half of the read surface: Prometheus text, scraped
    time series, counter/quantile lookups, and the Table 1 capacity rows.
    Metric lookups require the run to have been observed
    (``observability=True``); capacity rows work either way.
    """

    def __init__(self, result: FleetResult):
        self.result = result

    @property
    def observed(self) -> bool:
        return self.result.metrics is not None

    def _require(self) -> ObservabilityResult:
        if self.result.metrics is None:
            raise ValueError(
                "run was not observed; pass observability=True to run_fleet"
            )
        return self.result.metrics

    def prometheus(self) -> str:
        # Store-rehydrated runs carry the export verbatim (no registry).
        metrics = self._require()
        text = getattr(metrics, "prometheus", None)
        if isinstance(text, str):
            return text
        return prometheus_text(metrics.registry)

    def series(self, platform: str) -> TimeSeries:
        return self._require().series[platform]

    def counter(self, name: str, /, **labels) -> float:
        # Positional-only so label keys like ``name`` never collide.
        return self._require().registry.counter_value(name, **labels)

    def quantile(self, name: str, q: float, /, **labels) -> float:
        family = self._require().registry.find(name)
        if family is None:
            raise KeyError(f"no metric family named {name!r}")
        child = family.get(**labels)
        if child is None:
            raise KeyError(f"{name}: no child with labels {labels!r}")
        return child.quantile(q)

    def table1_rows(self) -> dict[str, tuple[float, float, float]]:
        return self.result.table1_rows()


# -- exports ------------------------------------------------------------------

#: The formats :func:`export_text` (and ``repro export``) understand.
EXPORT_FORMATS = ("prom", "folded", "jsonl")


def validate_export_format(format: str) -> str:
    """Check an export format up front; returns it for chaining.

    Raises :class:`UnknownFormatError` naming the valid formats.  Callers
    with a fleet run ahead of them (the CLI, scripts) call this on the
    config path so a typo'd format fails before any simulation work.
    """
    if format not in EXPORT_FORMATS:
        raise UnknownFormatError(
            f"unknown export format {format!r}; choose from {list(EXPORT_FORMATS)}"
        )
    return format


def export_text(
    result: FleetResult,
    format: str,
    *,
    platform: str | None = None,
    weight: str = "cycles",
    name_contains: str | None = None,
    min_duration: float | None = None,
    errors_only: bool = False,
) -> str:
    """Render one export format from a finished run.

    ``prom`` is the Prometheus text exposition (requires an observed run),
    ``folded`` the flamegraph stacks, ``jsonl`` the Dapper trace search.
    Raises :class:`UnknownFormatError` for anything else; use
    :func:`validate_export_format` to reject a bad format *before* paying
    for a fleet run.
    """
    validate_export_format(format)
    if format == "prom":
        return Telemetry(result).prometheus()
    if format == "folded":
        return Profile(result).folded(platform=platform, weight=weight)
    return Profile(result).traces_jsonl(
        name_contains=name_contains,
        min_duration=min_duration,
        errors_only=errors_only,
    )


# -- selftest -----------------------------------------------------------------


def selftest(budget: int = 25, seed: int = 0, **kwargs):
    """Run the differential verification harness (``repro selftest``).

    Fuzzes ``budget`` fleet configs and pushes each through every
    execution-mode pair that must agree plus the metamorphic oracles.
    Returns a :class:`repro.testing.SelftestReport`; ``report.exit_code``
    is 0 only when every config verified clean.  See
    :func:`repro.testing.run_selftest` for the full knob set.
    """
    from repro.testing import run_selftest

    return run_selftest(budget, seed, **kwargs)
