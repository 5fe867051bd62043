"""Ingestion: fleet results, window streams, and verdicts.

:class:`StoreWriter` turns live result objects into store rows.  Design
rules:

* **Batch inserts.**  Sample columns are walked directly off the
  profiler's internal parallel lists (the same access the folded-stacks
  exporter uses) and land via one ``executemany`` per surface.
* **Interned dictionaries.**  Platform / function / category strings go
  through the store's shared string dictionary, mirroring the
  profiler's own intern tables -- a run's sample rows are five numeric
  columns, like the in-memory layout.
* **Measurements only.**  Host-side execution telemetry
  (``SchedulerStats``) is deliberately not ingested: how a run was
  executed must not affect what it measured, and the store only holds
  the measurement surface.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Iterable, Iterator, Mapping

from repro.profiling.dapper import SpanKind
from repro.storage.device import DeviceKind
from repro.store.core import ProfileStore

__all__ = ["StoreWriter"]


def _jsonable_config(config: Any) -> str | None:
    """Best-effort JSON of a run's config (provenance only, never read back)."""
    if config is None:
        return None
    if is_dataclass(config) and not isinstance(config, type):
        config = asdict(config)
    try:
        return json.dumps(config, sort_keys=True, default=str)
    except (TypeError, ValueError):
        return json.dumps(repr(config))


_KIND_TEXT = {kind: kind.value for kind in SpanKind}


def _span_rows(run_id: int, traced) -> Iterator[tuple]:
    """``spans`` rows for ``(platform, finished traces)`` pairs.

    Reads the tracers' compact rows (:meth:`Trace.rows`), so no span is
    materialized.  The annotations text is exactly ``json.dumps(
    dict(annotations), sort_keys=True, default=str)``; a node-only
    annotation -- the one every CPU chunk carries -- is encoded once per
    node.  A row without annotations stores ``"{}"``, while an explicit
    ``{"node": None}`` stores ``'{"node": null}'``.
    """
    encode = json.JSONEncoder(sort_keys=True, default=str).encode
    node_text: dict[str | None, str] = {}
    kind_text = _KIND_TEXT
    for name, traces in traced:
        for trace_ord, trace in enumerate(traces):
            for span_ord, (span_id, parent_id, span_name, kind, start, end,
                           annotations) in enumerate(trace.rows()):
                if annotations is None:
                    text = "{}"
                elif type(annotations) is dict and (
                    len(annotations) != 1 or "node" not in annotations
                ):
                    text = encode(annotations)
                else:
                    node = (
                        annotations["node"]
                        if type(annotations) is dict
                        else annotations
                    )
                    # Only str and None nodes are memoized: other values
                    # may be unhashable, or hash equal yet encode apart.
                    if node is None or type(node) is str:
                        text = node_text.get(node)
                        if text is None:
                            text = node_text[node] = encode({"node": node})
                    else:
                        text = encode({"node": node})
                yield (run_id, name, trace_ord, span_ord, span_id, parent_id,
                       span_name, kind_text[kind], start, end, text)


class StoreWriter:
    """Writes runs into a :class:`ProfileStore` (one writer per store)."""

    def __init__(self, store: ProfileStore):
        self.store = store

    # -- run bookkeeping -----------------------------------------------------

    def begin_run(
        self,
        kind: str,
        *,
        engine: str | None = None,
        seed: int | None = None,
        jitter: float | None = None,
        sample_period: float | None = None,
        config: Any = None,
        label: str | None = None,
    ) -> int:
        """Register a run row and return its ``run_id``."""
        cursor = self.store.execute(
            "INSERT INTO runs (kind, engine, seed, jitter, sample_period,"
            " config, created, label) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                kind,
                engine,
                seed,
                jitter,
                sample_period,
                _jsonable_config(config),
                time.time(),
                label,
            ),
        )
        return int(cursor.lastrowid)

    # -- fleet results -------------------------------------------------------

    def ingest_fleet(
        self,
        result,
        *,
        config: Any = None,
        label: str | None = None,
        kind: str = "fleet",
    ) -> int:
        """Ingest one :class:`~repro.workloads.fleet.FleetResult`.

        Returns the new ``run_id`` (also stamped onto the result as
        ``result.store_run_id``).  The stored surfaces are exactly the
        comparable measurement surfaces of
        :func:`repro.testing.diff.snapshot`, plus span trees when the
        run's platforms still hold live tracers.
        """
        profiler = result.profiler
        jitter = None
        for model in profiler.counter_models.values():
            jitter = model.jitter
            break
        run_id = self.begin_run(
            kind,
            engine=getattr(config, "engine", None),
            seed=profiler.seed,
            jitter=jitter,
            sample_period=profiler.sample_period,
            config=config,
            label=label,
        )
        self._insert_samples(run_id, profiler)
        self._insert_platform_stats(run_id, result)
        self._insert_records(run_id, result)
        self._insert_breakdowns(run_id, result)
        self._insert_telemetry(run_id, result.telemetry)
        self._insert_chaos(run_id, result.chaos)
        if result.metrics is not None:
            self._insert_metrics(run_id, result.metrics)
        self._insert_traces(run_id, result)
        self.store.commit()
        result.store_run_id = run_id
        return run_id

    def _insert_samples(self, run_id: int, profiler) -> None:
        # Walk the profiler's parallel columns directly (the exporters'
        # idiom) and translate its intern ids to store dictionary ids.
        pid_map = [self.store.intern(name) for name in profiler._platform_names]
        fid_map = [self.store.intern(name) for name in profiler._function_names]
        cid_map = [self.store.intern(key) for key in profiler._category_keys]
        rows = (
            (
                run_id,
                row,
                pid_map[pid],
                fid_map[fid],
                cid_map[cid],
                cycles,
                when,
            )
            for row, (pid, fid, cid, cycles, when) in enumerate(
                zip(
                    profiler._pid_col,
                    profiler._fid_col,
                    profiler._cid_col,
                    profiler._cycles_col,
                    profiler._when_col,
                )
            )
        )
        self.store.executemany(
            "INSERT INTO samples (run_id, row, platform, function, category,"
            " cycles, ts) VALUES (?, ?, ?, ?, ?, ?, ?)",
            rows,
        )

    def _insert_platform_stats(self, run_id: int, result) -> None:
        profiler = result.profiler
        rows = []
        for ordinal, (name, platform) in enumerate(result.platforms.items()):
            crashes = getattr(platform, "node_crashes", None)
            if crashes is None:
                cluster = getattr(platform, "cluster", None)
                crashes = (
                    sum(node.crashes for node in cluster.nodes)
                    if cluster is not None
                    else 0
                )
            rows.append(
                (
                    run_id,
                    ordinal,
                    name,
                    profiler.cpu_seconds(name),
                    profiler.sampling_credit(name),
                    platform.env.now,
                    getattr(platform.env, "events_processed", 0),
                    platform.queries_served,
                    crashes,
                )
            )
        self.store.executemany(
            "INSERT INTO platform_stats (run_id, ord, platform, cpu_seconds,"
            " credit, clock, events_processed, queries_served, node_crashes)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )

    def _insert_records(self, run_id: int, result) -> None:
        rows = (
            (run_id, name, ordinal, r.kind, r.group, r.started, r.finished, r.error)
            for name, platform in result.platforms.items()
            for ordinal, r in enumerate(platform.records)
        )
        self.store.executemany(
            "INSERT INTO records (run_id, platform, ord, kind, grp, started,"
            " finished, error) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )

    def _insert_breakdowns(self, run_id: int, result) -> None:
        rows = (
            (
                run_id,
                name,
                ordinal,
                q.name,
                q.t_e2e,
                q.t_cpu,
                q.t_remote,
                q.t_io,
                q.t_unattributed,
                q.overlap_hidden,
            )
            for name in result.platforms
            for ordinal, q in enumerate(result.e2e[name].queries)
        )
        self.store.executemany(
            "INSERT INTO breakdowns (run_id, platform, ord, name, t_e2e,"
            " t_cpu, t_remote, t_io, t_unattributed, overlap_hidden)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )

    def _insert_telemetry(self, run_id: int, telemetry) -> None:
        rows = []
        ordinal = 0
        for platform in telemetry.platforms():
            reads = telemetry.reads_by_tier(platform)
            for kind in DeviceKind:
                rows.append(
                    (
                        run_id,
                        ordinal,
                        platform,
                        kind.value,
                        telemetry.capacity_bytes(platform, kind),
                        int(reads[kind]),
                    )
                )
                ordinal += 1
        self.store.executemany(
            "INSERT INTO telemetry (run_id, ord, platform, tier, capacity,"
            " reads) VALUES (?, ?, ?, ?, ?, ?)",
            rows,
        )

    def _insert_chaos(self, run_id: int, chaos: Mapping[str, Any]) -> None:
        rows = [
            (
                run_id,
                name,
                json.dumps(list(controller.fault_ids)),
                json.dumps([[e.fault_id, when] for e, when in controller.injected]),
                json.dumps([[e.fault_id, when] for e, when in controller.healed]),
            )
            for name, controller in chaos.items()
        ]
        self.store.executemany(
            "INSERT INTO chaos (run_id, platform, fault_ids, injected, healed)"
            " VALUES (?, ?, ?, ?, ?)",
            rows,
        )

    def _insert_metrics(self, run_id: int, metrics) -> None:
        # Store the Prometheus export verbatim: the stored text IS the
        # comparable surface (snapshot() prefers it over re-rendering).
        text = getattr(metrics, "prometheus", None)
        if not isinstance(text, str):
            from repro.observability import prometheus_text

            text = prometheus_text(metrics.registry)
        self.add_artifact(run_id, "prometheus", text)
        series_rows = [
            (
                run_id,
                platform,
                json.dumps(list(series.columns)),
                json.dumps([list(row) for row in series.rows]),
            )
            for platform, series in getattr(metrics, "series", {}).items()
        ]
        self.store.executemany(
            "INSERT INTO telemetry_series (run_id, platform, columns, rows)"
            " VALUES (?, ?, ?, ?)",
            series_rows,
        )

    def _insert_traces(self, run_id: int, result) -> None:
        traced = []
        for name, platform in result.platforms.items():
            tracer = getattr(platform, "tracer", None)
            if tracer is not None:
                traced.append((name, tracer.finished_traces()))
        self.store.executemany(
            "INSERT INTO traces (run_id, platform, ord, trace_id, name,"
            " start, end) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                (run_id, name, ordinal, trace.trace_id, trace.name,
                 trace.start, trace.end)
                for name, traces in traced
                for ordinal, trace in enumerate(traces)
            ),
        )
        self.store.executemany(
            "INSERT INTO spans (run_id, platform, trace_ord, ord, span_id,"
            " parent_id, name, kind, start, end, annotations)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            _span_rows(run_id, traced),
        )

    # -- artifacts -----------------------------------------------------------

    def add_artifact(self, run_id: int, name: str, content: str) -> None:
        self.store.execute(
            "INSERT OR REPLACE INTO artifacts (run_id, name, content)"
            " VALUES (?, ?, ?)",
            (run_id, name, content),
        )

    # -- service windows -----------------------------------------------------

    def add_window(self, run_id: int, snapshot) -> None:
        """Store one :class:`WindowSnapshot` as its canonical JSONL body."""
        from repro.observability import window_jsonl

        self.store.execute(
            "INSERT INTO windows (run_id, idx, start, end, body)"
            " VALUES (?, ?, ?, ?, ?)",
            (run_id, snapshot.index, snapshot.start, snapshot.end,
             window_jsonl(snapshot)),
        )

    def ingest_service(
        self,
        snapshots: Iterable,
        *,
        config: Any = None,
        label: str | None = None,
    ) -> int:
        """Drain a window stream into one ``serve`` run; returns run_id."""
        run_id = self.begin_run(
            "serve",
            engine=getattr(config, "engine", None),
            seed=getattr(config, "seed", None),
            config=config,
            label=label,
        )
        for snapshot in snapshots:
            self.add_window(run_id, snapshot)
        self.store.commit()
        return run_id

    def stream_service(
        self,
        snapshots: Iterable,
        *,
        config: Any = None,
        label: str | None = None,
    ) -> Iterator:
        """Like :meth:`ingest_service` but re-yields each snapshot --
        the pass-through generator ``run_service(..., store=...)`` wraps
        around a live stream."""
        run_id = self.begin_run(
            "serve",
            engine=getattr(config, "engine", None),
            seed=getattr(config, "seed", None),
            config=config,
            label=label,
        )
        try:
            for snapshot in snapshots:
                self.add_window(run_id, snapshot)
                yield snapshot
        finally:
            self.store.commit()

    # -- validation / selftest -----------------------------------------------

    def ingest_validation(
        self, table8, *, seed: int | None = None, label: str | None = None
    ) -> int:
        """Store a §6 :class:`Table8Result` (drives stored Table 8 rows)."""
        run_id = self.begin_run("validate", seed=seed, label=label)
        self.add_artifact(
            run_id,
            "table8",
            json.dumps(asdict(table8), sort_keys=True),
        )
        self.store.commit()
        return run_id

    def ingest_selftest(self, report, *, label: str | None = None) -> int:
        """Store a :class:`SelftestReport`'s per-config verdicts."""
        run_id = self.begin_run(
            "selftest", seed=report.seed, config={"budget": report.budget},
            label=label,
        )
        rows = [
            (run_id, verdict.index, int(verdict.ok),
             json.dumps(verdict.to_jsonable(), sort_keys=True))
            for verdict in report.verdicts
        ]
        self.store.executemany(
            "INSERT INTO selftest_verdicts (run_id, idx, ok, record)"
            " VALUES (?, ?, ?, ?)",
            rows,
        )
        self.store.commit()
        return run_id
