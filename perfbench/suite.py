"""The four benchmark workloads, driven only through repro's public API.

Each workload owns a fixed pool of simulation seeds.  The benchmark's
``--seed`` picks the order in which one *pass* walks that pool; a run is a
whole number of passes, so every run times the same multiset of ops and
only host noise differs between runs.  The pool is fixed so that
``expected.json`` can pin a digest of every op's simulated measurements.

An op is a pair of callables: ``run()`` is timed and returns the op's
result; ``check(result)`` runs outside the timer and returns an
:class:`Outcome` (pass/fail, work done, per-layer counts).  A failed check
or an exception is counted as a failed op, never raised.

No lane field (``engine``, ``io_mode``, ``coalesce``, ``shards``,
``parallel``, ``max_workers``) is ever passed: the benchmark measures
whatever the program's defaults are.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.analysis import render_tables
from repro.api import FleetConfig, ServeConfig, run_fleet, run_service
from repro.store import DataProvider, StoreWriter, open_store
from repro.testing.diff import snapshot

#: Per-op counts every workload reports (zero where a layer is idle).
COUNT_NAMES = (
    "sim.events",
    "platforms.queries",
    "cluster.messages",
    "cluster.partition_drops",
    "storage.device_reads",
    "storage.device_writes",
    "storage.ram_hits",
    "storage.accesses",
    "profiling.gwp.samples",
    "profiling.dapper.spans",
    "profiling.dapper.traces",
    "workloads.windows",
)


@dataclass
class Outcome:
    """What one op did, as checked after the timer stopped."""

    ok: bool
    #: Queries served (or round-tripped) by the op.
    queries: int = 0
    #: Simulated seconds the op covered.
    sim_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    #: Untimed-by-phase wall seconds inside the op (store_roundtrip only).
    phases: dict[str, float] = field(default_factory=dict)
    detail: str = ""


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def digest(value: Any) -> str:
    """A stable digest of plain data (``repr`` of floats round-trips)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


def fleet_digest(result) -> str:
    """Digest of a fleet run's measurement snapshot.

    The Prometheus surface (which carries the engine's events gauge) is
    masked; it only exists for observed runs, which the benchmark never
    asks for.
    """
    snap = snapshot(result)
    snap.pop("prometheus", None)
    return digest(snap)


def window_digest(window) -> str:
    """Digest of one service window, without the engine's event counter."""
    row = window.to_jsonable()
    row.pop("events_processed")
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()


def fleet_counts(result) -> dict[str, float]:
    """Per-layer work counts read from a finished fleet run."""
    counts = dict.fromkeys(COUNT_NAMES, 0)
    fabrics = {}
    for name, platform in result.platforms.items():
        counts["sim.events"] += platform.env.events_processed
        counts["platforms.queries"] += platform.queries_served
        cluster = getattr(platform, "cluster", None)
        if cluster is not None:
            fabrics[id(cluster.fabric)] = cluster.fabric
        dfs = getattr(platform, "dfs", None)
        if dfs is not None:
            fabrics[id(dfs.fabric)] = dfs.fabric
            for server in dfs.servers:
                tiers = server.store
                for device in (tiers.ram, tiers.ssd, tiers.hdd):
                    counts["storage.device_reads"] += device.reads
                    counts["storage.device_writes"] += device.writes
        for kind, hits in result.telemetry.reads_by_tier(name).items():
            counts["storage.accesses"] += hits
            if kind.name == "RAM":
                counts["storage.ram_hits"] += hits
        traces = platform.tracer.finished_traces()
        counts["profiling.dapper.traces"] += len(traces)
        counts["profiling.dapper.spans"] += sum(len(t.spans) for t in traces)
        counts["profiling.gwp.samples"] += result.profiler.sample_count(name)
    for fabric in fabrics.values():
        counts["cluster.messages"] += fabric.messages_sent
        counts["cluster.partition_drops"] += fabric.partition_drops
    return counts


def sim_seconds(result) -> float:
    return sum(platform.env.now for platform in result.platforms.values())


class Workload:
    """A pool of seeds, a warm-up, and one pass of ops per seed order."""

    name = ""
    pool: tuple[int, ...] = ()

    def __init__(self, expected: dict[str, Any], tiny: bool = False):
        self.expected = expected
        self.tiny = tiny

    def order(self, seed: int) -> list[int]:
        return random.Random(seed).sample(self.pool, len(self.pool))

    def setup(self, order: list[int]) -> None:
        """Build inputs and run one untimed warm-up op."""

    def passes(self, order: list[int]) -> Iterator[Op]:
        raise NotImplementedError

    def reference(self) -> dict[str, Any]:
        """Expected digests for every pool seed, computed from this tree."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class FleetWorkload(Workload):
    """Each op is one ``run_fleet`` over a fixed query mix."""

    queries: dict[str, int] = {}
    tiny_queries: dict[str, int] = {}

    def config(self, seed: int) -> FleetConfig:
        return FleetConfig(
            queries=self.tiny_queries if self.tiny else self.queries, seed=seed
        )

    def setup(self, order):
        run_fleet(self.config(order[0]))

    def _check(self, seed: int, result) -> Outcome:
        requested = self.config(seed).queries
        served = {
            name: result.platforms[name].queries_served for name in requested
        }
        if served != requested:
            return Outcome(ok=False, detail=f"seed {seed}: served {served}")
        counts = fleet_counts(result)
        ok = fleet_digest(result) == self.expected.get(str(seed))
        return Outcome(
            ok=ok,
            queries=int(counts["platforms.queries"]),
            sim_s=sim_seconds(result),
            counts=counts,
            detail="" if ok else f"seed {seed}: digest mismatch",
        )

    def passes(self, order):
        for seed in order:
            config = self.config(seed)
            yield Op(
                run=lambda config=config: run_fleet(config),
                check=lambda result, seed=seed: self._check(seed, result),
            )

    def reference(self):
        return {
            str(seed): fleet_digest(run_fleet(self.config(seed)))
            for seed in self.pool
        }


class FleetOltp(FleetWorkload):
    name = "fleet_oltp"
    pool = (1, 2, 3, 4, 5, 6, 7, 8)
    queries = {"Spanner": 30, "BigTable": 30}
    tiny_queries = {"Spanner": 3, "BigTable": 3}


class FleetOlap(FleetWorkload):
    name = "fleet_olap"
    pool = (1, 2, 3, 4, 5, 6, 7, 8)
    queries = {"BigQuery": 1}
    tiny_queries = {"BigQuery": 1}


class ServeFlash(Workload):
    """Each op is one 300 s window of a flash-crowd ``run_service`` day."""

    name = "serve_flash"
    pool = (1, 2)

    def config(self, seed: int) -> ServeConfig:
        return ServeConfig(
            arrival="flash",
            duration=900.0 if self.tiny else 7200.0,
            window=300.0,
            seed=seed,
        )

    def setup(self, order):
        next(iter(run_service(self.config(order[0]))))

    def passes(self, order):
        for seed in order:
            yield from self._day(seed)

    def _day(self, seed: int) -> Iterator[Op]:
        stream = run_service(self.config(seed))
        expected = self.expected.get(str(seed), [])
        totals = {"arrived": 0, "completed": 0, "events": {}}

        def check(window, index):
            if window is None:
                return Outcome(ok=False, detail=f"day {seed}: ended early")
            arrived = sum(window.arrivals.values())
            completed = sum(window.completed.values())
            totals["arrived"] += arrived
            totals["completed"] += completed
            events = sum(
                count - totals["events"].get(name, 0)
                for name, count in window.events_processed.items()
            )
            totals["events"] = dict(window.events_processed)
            traces = sum(int(row["traces"]) for row in window.breakdown.values())
            ok = index < len(expected) and window_digest(window) == expected[index]
            detail = "" if ok else f"day {seed} window {index}: digest mismatch"
            if ok and index == len(expected) - 1:
                # Last window: the stream must end with every query served.
                drained = next(stream, None) is None
                served = totals["completed"] == totals["arrived"]
                idle = not any(window.in_flight.values())
                ok = drained and served and idle
                if not ok:
                    detail = (
                        f"day {seed}: drained={drained} "
                        f"served {totals['completed']}/{totals['arrived']}"
                    )
            counts = dict.fromkeys(COUNT_NAMES, 0)
            counts["sim.events"] = events
            counts["platforms.queries"] = completed
            counts["profiling.dapper.traces"] = traces
            counts["workloads.windows"] = 1
            return Outcome(
                ok=ok,
                queries=completed,
                sim_s=window.end - window.start,
                counts=counts,
                detail=detail,
            )

        for index in range(max(len(expected), 1)):
            yield Op(
                run=lambda: next(stream, None),
                check=lambda window, index=index: check(window, index),
            )

    def reference(self):
        return {
            str(seed): [window_digest(w) for w in run_service(self.config(seed))]
            for seed in self.pool
        }


class StoreRoundtrip(Workload):
    """Each op ingests a pre-run fleet into a fresh sqlite file and renders
    Tables 1/6/7 back out of it."""

    name = "store_roundtrip"
    pool = (1, 2)

    def __init__(self, expected, tiny=False, workdir: Path | None = None):
        super().__init__(expected, tiny)
        self.workdir = workdir or Path.cwd() / ".perfbench_tmp"
        self.sources: dict[int, Any] = {}
        self.tables: dict[int, str] = {}
        self.source_ok: dict[int, bool] = {}

    def config(self, seed: int) -> FleetConfig:
        per = 3 if self.tiny else 30
        return FleetConfig(queries={"Spanner": per, "BigTable": per}, seed=seed)

    @property
    def path(self) -> Path:
        return self.workdir / "roundtrip.sqlite"

    def setup(self, order):
        self.workdir.mkdir(exist_ok=True)
        for seed in self.pool:
            source = run_fleet(self.config(seed))
            self.sources[seed] = source
            self.tables[seed] = render_tables(source)
            self.source_ok[seed] = (
                fleet_digest(source) == self.expected.get(str(seed))
            )
        op = next(iter(self.passes(order)))
        op.check(op.run())

    def _roundtrip(self, seed: int):
        began = time.perf_counter()
        with open_store(self.path) as store:
            run_id = StoreWriter(store).ingest_fleet(
                self.sources[seed], config=self.config(seed)
            )
        ingested = time.perf_counter()
        with open_store(self.path, create=False) as store:
            rehydrated = DataProvider(store).fleet_result(run_id)
        read = time.perf_counter()
        text = render_tables(rehydrated)
        rendered = time.perf_counter()
        phases = {
            "write": ingested - began,
            "read": read - ingested,
            "render": rendered - read,
        }
        return rehydrated, text, phases

    def _check(self, seed, outcome) -> Outcome:
        rehydrated, text, phases = outcome
        source = self.sources[seed]
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts["platforms.queries"] = sum(
            p.queries_served for p in rehydrated.platforms.values()
        )
        counts["profiling.gwp.samples"] = rehydrated.profiler.sample_count()
        traces = [
            trace
            for platform in source.platforms.values()
            for trace in platform.tracer.finished_traces()
        ]
        counts["profiling.dapper.traces"] = len(traces)
        counts["profiling.dapper.spans"] = sum(len(t.spans) for t in traces)
        expected_queries = sum(p.queries_served for p in source.platforms.values())
        ok = (
            self.source_ok[seed]
            and text == self.tables[seed]
            and counts["platforms.queries"] == expected_queries
        )
        return Outcome(
            ok=ok,
            queries=int(counts["platforms.queries"]),
            sim_s=sim_seconds(source),
            counts=counts,
            phases=phases,
            detail="" if ok else f"source {seed}: round trip differs",
        )

    def passes(self, order):
        for seed in order:
            # Runs between ops, outside the timer: every op gets a fresh file.
            self.path.unlink(missing_ok=True)
            yield Op(
                run=lambda seed=seed: self._roundtrip(seed),
                check=lambda outcome, seed=seed: self._check(seed, outcome),
            )

    def reference(self):
        return {
            str(seed): fleet_digest(run_fleet(self.config(seed)))
            for seed in self.pool
        }

    def close(self) -> None:
        self.path.unlink(missing_ok=True)
        if self.workdir.exists() and not any(self.workdir.iterdir()):
            self.workdir.rmdir()


WORKLOADS = {
    cls.name: cls for cls in (FleetOltp, FleetOlap, ServeFlash, StoreRoundtrip)
}
