"""The read side: typed queries over stored runs.

:class:`DataProvider` answers three families of questions:

* **Per-run slices** -- sample rows, per-category cycles, top functions,
  window streams, series, artifacts.
* **Full rehydration** -- :meth:`fleet_result` rebuilds a live
  :class:`~repro.workloads.fleet.FleetResult` whose every comparable
  measurement surface is byte-identical to the run that was ingested
  (enforced by ``tests/test_store_roundtrip.py`` via
  ``assert_equivalent``): the profiler is reconstructed with the stored
  seed/period/jitter and replayed sample-by-sample in global order, so
  derived surfaces (cycle breakdowns, uarch tables, counter noise) fall
  out of the same code paths as a live run.
* **Cross-run analytics** -- :meth:`delta` diffs two stored runs
  row-for-row, :meth:`regression_check` compares a run against its
  predecessor under a tolerance band (the CI gate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import StoreError
from repro.storage.device import DeviceKind
from repro.storage.telemetry import TelemetrySummary
from repro.store.core import ProfileStore

__all__ = [
    "DataProvider",
    "RunRow",
    "RegressionReport",
    "StoredFault",
    "StoredMetrics",
    "REGRESSION_METRICS",
]


@dataclass(frozen=True, slots=True)
class RunRow:
    """One row of the ``runs`` table (typed)."""

    run_id: int
    kind: str
    engine: str | None
    seed: int | None
    jitter: float | None
    sample_period: float | None
    created: float
    label: str | None

    def describe(self) -> str:
        parts = [f"run {self.run_id}", self.kind]
        if self.engine:
            parts.append(f"engine={self.engine}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.label:
            parts.append(f"label={self.label}")
        return "  ".join(parts)


@dataclass(frozen=True, slots=True)
class StoredFault:
    """Stand-in for a chaos event in a rehydrated ledger (id only)."""

    fault_id: str


@dataclass
class StoredMetrics:
    """Stand-in for :class:`ObservabilityResult` on a rehydrated run.

    Carries the Prometheus export *verbatim as stored* (``prometheus``)
    plus the scraped per-platform series; consumers that re-render from
    a live registry (``registry`` is ``None`` here) must prefer the
    text -- :func:`repro.testing.diff.snapshot` and
    ``api.Telemetry.prometheus()`` both do.
    """

    prometheus: str
    series: dict[str, Any] = field(default_factory=dict)
    registry: Any = None


@dataclass(frozen=True, slots=True)
class RegressionReport:
    """Verdict of one tolerance-band comparison between two runs."""

    metric: str
    run_id: int
    baseline_id: int
    value: float
    baseline: float
    tolerance: float
    #: Signed relative change vs the baseline (0.0 when baseline == 0).
    ratio: float
    ok: bool

    def render(self) -> str:
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"{self.metric}: run {self.run_id} = {self.value:g} vs "
            f"run {self.baseline_id} = {self.baseline:g} "
            f"({self.ratio:+.2%}, tolerance {self.tolerance:.2%}) {verdict}"
        )


#: Metric name -> SQL aggregate over one fleet run.
REGRESSION_METRICS = {
    "samples": "SELECT COUNT(*) FROM samples WHERE run_id = ?",
    "cycles": "SELECT COALESCE(SUM(cycles), 0) FROM samples WHERE run_id = ?",
    "cpu_seconds": (
        "SELECT COALESCE(SUM(cpu_seconds), 0) FROM platform_stats"
        " WHERE run_id = ?"
    ),
    "queries": (
        "SELECT COALESCE(SUM(queries_served), 0) FROM platform_stats"
        " WHERE run_id = ?"
    ),
}


class DataProvider:
    """Typed read API over one :class:`ProfileStore`."""

    def __init__(self, store: ProfileStore):
        self.store = store

    # -- run history ---------------------------------------------------------

    def runs(self, kind: str | None = None) -> list[RunRow]:
        sql = (
            "SELECT run_id, kind, engine, seed, jitter, sample_period,"
            " created, label FROM runs"
        )
        params: tuple = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        sql += " ORDER BY run_id"
        return [RunRow(*row) for row in self.store.execute(sql, params)]

    def run(self, run_id: int) -> RunRow:
        rows = self.store.execute(
            "SELECT run_id, kind, engine, seed, jitter, sample_period,"
            " created, label FROM runs WHERE run_id = ?",
            (run_id,),
        ).fetchall()
        if not rows:
            raise StoreError(f"no run {run_id} in store {self.store.path!r}")
        return RunRow(*rows[0])

    def latest_run(self, kind: str | None = None) -> RunRow | None:
        all_runs = self.runs(kind)
        return all_runs[-1] if all_runs else None

    def _require_run(self, run_id: int | None, kind: str) -> RunRow:
        if run_id is not None:
            return self.run(run_id)
        latest = self.latest_run(kind)
        if latest is None:
            raise StoreError(
                f"store {self.store.path!r} holds no {kind!r} runs"
            )
        return latest

    # -- per-run slices ------------------------------------------------------

    def sample_rows(self, run_id: int, platform: str | None = None) -> list[tuple]:
        """Stored samples as the differ's comparable 5-tuples, in order."""
        sql = (
            "SELECT p.value, f.value, c.value, s.cycles, s.ts FROM samples s"
            " JOIN strings p ON p.string_id = s.platform"
            " JOIN strings f ON f.string_id = s.function"
            " JOIN strings c ON c.string_id = s.category"
            " WHERE s.run_id = ?"
        )
        params: list = [run_id]
        if platform is not None:
            sql += " AND p.value = ?"
            params.append(platform)
        sql += " ORDER BY s.row"
        return [tuple(row) for row in self.store.execute(sql, params)]

    def cycles_by_category(self, run_id: int, platform: str) -> dict[str, float]:
        rows = self.store.execute(
            "SELECT c.value, SUM(s.cycles) FROM samples s"
            " JOIN strings p ON p.string_id = s.platform"
            " JOIN strings c ON c.string_id = s.category"
            " WHERE s.run_id = ? AND p.value = ?"
            " GROUP BY c.value ORDER BY SUM(s.cycles) DESC",
            (run_id, platform),
        )
        return {key: float(total) for key, total in rows}

    def top_functions(
        self, run_id: int, platform: str, count: int = 10
    ) -> list[tuple[str, float]]:
        rows = self.store.execute(
            "SELECT f.value, SUM(s.cycles) FROM samples s"
            " JOIN strings p ON p.string_id = s.platform"
            " JOIN strings f ON f.string_id = s.function"
            " WHERE s.run_id = ? AND p.value = ?"
            " GROUP BY f.value ORDER BY SUM(s.cycles) DESC, f.value"
            " LIMIT ?",
            (run_id, platform, count),
        )
        return [(name, float(total) if total is not None else 0.0) for name, total in rows]

    def window_lines(self, run_id: int) -> list[str]:
        """Stored window bodies, byte-identical to the live JSONL stream."""
        return [
            body
            for (body,) in self.store.execute(
                "SELECT body FROM windows WHERE run_id = ? ORDER BY idx",
                (run_id,),
            )
        ]

    def windows(self, run_id: int) -> list[dict[str, Any]]:
        return [json.loads(line) for line in self.window_lines(run_id)]

    def artifact(self, run_id: int, name: str) -> str | None:
        row = self.store.execute(
            "SELECT content FROM artifacts WHERE run_id = ? AND name = ?",
            (run_id, name),
        ).fetchone()
        return None if row is None else row[0]

    def prometheus(self, run_id: int) -> str | None:
        return self.artifact(run_id, "prometheus")

    def series(self, run_id: int) -> dict[str, Any]:
        from repro.observability import TimeSeries

        out = {}
        for platform, columns, rows in self.store.execute(
            "SELECT platform, columns, rows FROM telemetry_series"
            " WHERE run_id = ?",
            (run_id,),
        ):
            out[platform] = TimeSeries(
                columns=tuple(json.loads(columns)),
                rows=[tuple(row) for row in json.loads(rows)],
            )
        return out

    def table8_result(self, run_id: int | None = None):
        """Rehydrate the §6 validation result of a ``validate`` run."""
        from repro.soc.benchmarks import Table8Result

        run = self._require_run(run_id, "validate")
        content = self.artifact(run.run_id, "table8")
        if content is None:
            raise StoreError(f"run {run.run_id} holds no table8 artifact")
        return Table8Result(**json.loads(content))

    def selftest_verdicts(self, run_id: int) -> list[dict[str, Any]]:
        return [
            json.loads(record)
            for (record,) in self.store.execute(
                "SELECT record FROM selftest_verdicts WHERE run_id = ?"
                " ORDER BY idx",
                (run_id,),
            )
        ]

    # -- full rehydration ----------------------------------------------------

    def fleet_result(self, run_id: int | None = None):
        """Rebuild a live ``FleetResult`` from stored rows.

        Every derived surface (cycle tables, uarch counters, Table 1
        ratios) is recomputed by the same code a live run uses, seeded
        with the stored sample stream and accumulator state -- which is
        what makes the store-vs-memory byte-identity provable rather
        than a matter of serializing every derived number.
        """
        from repro.profiling.breakdown import E2EBreakdown, QueryBreakdown
        from repro.profiling.gwp import CpuSample, FleetProfiler
        from repro.platforms.common import QueryRecord
        from repro.workloads.calibration import PLATFORMS
        from repro.workloads.fleet import FleetResult, counter_model_for
        from repro.workloads.shards import ChaosSummary, PlatformSummary, SimClock

        run = self._require_run(run_id, "fleet")
        if run.kind not in ("fleet", "replay"):
            raise StoreError(
                f"run {run.run_id} is kind {run.kind!r}, not a fleet run"
            )
        jitter = 0.02 if run.jitter is None else run.jitter
        profiler = FleetProfiler(
            sample_period=run.sample_period or 1e-3,
            counter_models={
                name: counter_model_for(name, jitter) for name in PLATFORMS
            },
            seed=run.seed or 0,
        )
        profiler.extend(
            CpuSample(platform, function, category, cycles, ts)
            for platform, function, category, cycles, ts in self.sample_rows(
                run.run_id
            )
        )

        records: dict[str, list[QueryRecord]] = {}
        for platform, kind, grp, started, finished, error in self.store.execute(
            "SELECT platform, kind, grp, started, finished, error FROM records"
            " WHERE run_id = ? ORDER BY platform, ord",
            (run.run_id,),
        ):
            records.setdefault(platform, []).append(
                QueryRecord(kind, grp, started, finished, error)
            )

        platforms: dict[str, Any] = {}
        for name, cpu_seconds, credit, clock, events, served, crashes in (
            self.store.execute(
                "SELECT platform, cpu_seconds, credit, clock,"
                " events_processed, queries_served, node_crashes"
                " FROM platform_stats WHERE run_id = ? ORDER BY ord",
                (run.run_id,),
            )
        ):
            profiler.restore_accounting(name, cpu_seconds=cpu_seconds, credit=credit)
            platforms[name] = PlatformSummary(
                platform_name=name,
                records=tuple(records.get(name, ())),
                env=SimClock(now=clock, events_processed=events),
                node_crashes=crashes,
            )
        if not platforms:
            raise StoreError(f"run {run.run_id} holds no platform rows")

        e2e: dict[str, E2EBreakdown] = {}
        for name in platforms:
            e2e[name] = E2EBreakdown(name)
        for row in self.store.execute(
            "SELECT platform, name, t_e2e, t_cpu, t_remote, t_io,"
            " t_unattributed, overlap_hidden FROM breakdowns"
            " WHERE run_id = ? ORDER BY platform, ord",
            (run.run_id,),
        ):
            platform = row[0]
            e2e.setdefault(platform, E2EBreakdown(platform)).add(
                QueryBreakdown(*row[1:])
            )

        capacities: dict[str, dict[DeviceKind, float]] = {}
        reads: dict[str, dict[DeviceKind, int]] = {}
        for platform, tier, capacity, read_count in self.store.execute(
            "SELECT platform, tier, capacity, reads FROM telemetry"
            " WHERE run_id = ? ORDER BY ord",
            (run.run_id,),
        ):
            kind = DeviceKind(tier)
            capacities.setdefault(platform, {})[kind] = capacity
            reads.setdefault(platform, {})[kind] = int(read_count)
        telemetry = TelemetrySummary(capacities=capacities, reads=reads)

        chaos: dict[str, ChaosSummary] = {}
        for platform, fault_ids, injected, healed in self.store.execute(
            "SELECT platform, fault_ids, injected, healed FROM chaos"
            " WHERE run_id = ?",
            (run.run_id,),
        ):
            chaos[platform] = ChaosSummary(
                name=platform,
                fault_ids=tuple(json.loads(fault_ids)),
                injected=tuple(
                    (StoredFault(fid), when) for fid, when in json.loads(injected)
                ),
                healed=tuple(
                    (StoredFault(fid), when) for fid, when in json.loads(healed)
                ),
            )

        metrics = None
        prometheus = self.prometheus(run.run_id)
        if prometheus is not None:
            metrics = StoredMetrics(
                prometheus=prometheus, series=self.series(run.run_id)
            )

        result = FleetResult(
            platforms=platforms,
            profiler=profiler,
            telemetry=telemetry,
            e2e=e2e,
            chaos=chaos,
            metrics=metrics,
        )
        result.store_run_id = run.run_id
        return result

    # -- cross-run analytics -------------------------------------------------

    def dump(self, run_id: int) -> dict[str, Any]:
        """One run's stored measurement rows as a canonical comparable dict.

        Excludes provenance (engine, config, created, label, run ids)
        and span trees, so two ingests of byte-identical measurements --
        the same run twice, or engine=heap vs engine=columnar legs of
        the parity invariant -- dump equal, diffable with
        :func:`repro.testing.diff.diff_snapshots`.
        """
        run = self.run(run_id)
        out: dict[str, Any] = {
            "run/kind": run.kind,
            "run/seed": run.seed,
            "samples": self.sample_rows(run_id),
        }
        for row in self.store.execute(
            "SELECT platform, cpu_seconds, credit, clock, events_processed,"
            " queries_served, node_crashes FROM platform_stats"
            " WHERE run_id = ? ORDER BY ord",
            (run_id,),
        ):
            out[f"stats/{row[0]}"] = tuple(row[1:])
        for platform in {row[0] for row in self.store.execute(
            "SELECT DISTINCT platform FROM records WHERE run_id = ?", (run_id,)
        )}:
            out[f"records/{platform}"] = [
                tuple(row)
                for row in self.store.execute(
                    "SELECT kind, grp, started, finished, error FROM records"
                    " WHERE run_id = ? AND platform = ? ORDER BY ord",
                    (run_id, platform),
                )
            ]
        for platform in {row[0] for row in self.store.execute(
            "SELECT DISTINCT platform FROM breakdowns WHERE run_id = ?",
            (run_id,),
        )}:
            out[f"e2e/{platform}"] = [
                tuple(row)
                for row in self.store.execute(
                    "SELECT name, t_e2e, t_cpu, t_remote, t_io,"
                    " t_unattributed, overlap_hidden FROM breakdowns"
                    " WHERE run_id = ? AND platform = ? ORDER BY ord",
                    (run_id, platform),
                )
            ]
        telemetry_rows = [
            tuple(row)
            for row in self.store.execute(
                "SELECT platform, tier, capacity, reads FROM telemetry"
                " WHERE run_id = ? ORDER BY ord",
                (run_id,),
            )
        ]
        if telemetry_rows:
            out["telemetry"] = telemetry_rows
        for platform, fault_ids, injected, healed in self.store.execute(
            "SELECT platform, fault_ids, injected, healed FROM chaos"
            " WHERE run_id = ?",
            (run_id,),
        ):
            out[f"chaos/{platform}"] = (fault_ids, injected, healed)
        windows = self.window_lines(run_id)
        if windows:
            out["windows"] = windows
        prometheus = self.prometheus(run_id)
        if prometheus is not None:
            out["prometheus"] = prometheus
        for platform, series in sorted(self.series(run_id).items()):
            out[f"series/{platform}"] = (series.columns, series.rows)
        return out

    def delta(self, run_a: int, run_b: int, *, ignore: Iterable[str] = ()):
        """Row-for-row diff of two stored runs (empty list = identical)."""
        from repro.testing.diff import diff_snapshots

        return diff_snapshots(self.dump(run_a), self.dump(run_b), ignore=ignore)

    def metric_value(self, metric: str, run_id: int) -> float:
        sql = REGRESSION_METRICS.get(metric)
        if sql is None:
            raise StoreError(
                f"unknown regression metric {metric!r}; choose from "
                f"{sorted(REGRESSION_METRICS)}"
            )
        (value,) = self.store.execute(sql, (run_id,)).fetchone()
        return float(value or 0.0)

    def regression_check(
        self,
        metric: str,
        *,
        tolerance: float = 0.0,
        run: int | None = None,
        baseline: int | None = None,
        kind: str = "fleet",
    ) -> RegressionReport:
        """Two-sided tolerance-band comparison of a run vs its baseline.

        Defaults compare the newest ``kind`` run against the one before
        it -- the CI gate shape.  ``tolerance`` is a relative band:
        0.0 demands exact equality (right for seeded deterministic
        metrics), 0.05 allows ±5%.
        """
        if tolerance < 0:
            raise StoreError(f"tolerance must be >= 0, got {tolerance}")
        target = self._require_run(run, kind)
        if baseline is None:
            earlier = [r for r in self.runs(kind) if r.run_id < target.run_id]
            if not earlier:
                raise StoreError(
                    f"run {target.run_id} has no earlier {kind!r} baseline"
                )
            base = earlier[-1]
        else:
            base = self.run(baseline)
        value = self.metric_value(metric, target.run_id)
        base_value = self.metric_value(metric, base.run_id)
        ratio = 0.0 if base_value == 0 else (value - base_value) / base_value
        ok = abs(value - base_value) <= tolerance * abs(base_value) or (
            value == base_value
        )
        return RegressionReport(
            metric=metric,
            run_id=target.run_id,
            baseline_id=base.run_id,
            value=value,
            baseline=base_value,
            tolerance=tolerance,
            ratio=ratio,
            ok=ok,
        )
