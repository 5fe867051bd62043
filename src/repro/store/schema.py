"""Versioned sqlite schema for the persistent profile store.

One store file holds many runs.  Every measurement surface a
:class:`~repro.workloads.fleet.FleetResult` exposes maps onto a table
here -- interned sample columns mirroring the profiler's own layout,
per-platform accumulator rows, query logs, Section-4.1 breakdowns,
capacity telemetry, chaos ledgers, span rows, window snapshots -- plus
run-history tables (selftest verdicts).  The ``bench_legs`` table of a
retired perf harness is no longer written; it stays in the DDL so v2/v3
stores open unchanged and a fresh store has the same tables as a
migrated one.

Versioning policy (see ``docs/store.md``):

* ``PRAGMA user_version`` stamps every store with its schema version.
* New versions only *add* tables or columns; :data:`MIGRATIONS` holds
  the forward DDL from each older version, applied in sequence when an
  old store is opened.  A store newer than the reader refuses to open
  (downgrades are not supported).
* :data:`V1_DDL` is exported so the migration test can fabricate a
  genuine v1 store without keeping a binary fixture in the tree.
"""

from __future__ import annotations

import sqlite3

from repro.errors import StoreError

__all__ = ["SCHEMA_VERSION", "V1_DDL", "MIGRATIONS", "ensure_schema", "schema_ddl"]

#: Current schema version (stamped into ``PRAGMA user_version``).
#: v3 adds ``bench_legs.events_per_second`` (per-leg event throughput of
#: the retired perf harness; the table is no longer written).
SCHEMA_VERSION = 3

# -- table DDL ----------------------------------------------------------------
#
# Built programmatically per version so V1_DDL and the current DDL share
# one source of truth: v1 is v2 minus the run-history tables
# (bench_legs, selftest_verdicts) and the runs.label column.

_RUNS_COLUMNS_V1 = """
    run_id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    engine TEXT,
    seed INTEGER,
    jitter REAL,
    sample_period REAL,
    config TEXT,
    created REAL
"""

_CORE_TABLES = {
    # Free-form store metadata (schema bookkeeping, provenance notes).
    "meta": """
        CREATE TABLE IF NOT EXISTS meta (
            key TEXT PRIMARY KEY,
            value TEXT NOT NULL
        )
    """,
    # Interned string dictionary shared by all runs' sample columns --
    # the on-disk mirror of FleetProfiler's platform/function/category
    # intern tables.
    "strings": """
        CREATE TABLE IF NOT EXISTS strings (
            string_id INTEGER PRIMARY KEY,
            value TEXT NOT NULL UNIQUE
        )
    """,
    # GWP sample columns; ``row`` preserves global ingestion order, which
    # is the profiler's own sample order (order is part of the
    # measurement surface the differ compares).
    "samples": """
        CREATE TABLE IF NOT EXISTS samples (
            run_id INTEGER NOT NULL,
            row INTEGER NOT NULL,
            platform INTEGER NOT NULL REFERENCES strings(string_id),
            function INTEGER NOT NULL REFERENCES strings(string_id),
            category INTEGER NOT NULL REFERENCES strings(string_id),
            cycles REAL NOT NULL,
            ts REAL NOT NULL,
            PRIMARY KEY (run_id, row)
        )
    """,
    # Per-platform accumulators + clocks (ord = fleet iteration order).
    "platform_stats": """
        CREATE TABLE IF NOT EXISTS platform_stats (
            run_id INTEGER NOT NULL,
            ord INTEGER NOT NULL,
            platform TEXT NOT NULL,
            cpu_seconds REAL NOT NULL,
            credit REAL NOT NULL,
            clock REAL NOT NULL,
            events_processed INTEGER NOT NULL,
            queries_served INTEGER NOT NULL,
            node_crashes INTEGER NOT NULL,
            PRIMARY KEY (run_id, ord)
        )
    """,
    # The platforms' own query logs (QueryRecord rows, in log order).
    "records": """
        CREATE TABLE IF NOT EXISTS records (
            run_id INTEGER NOT NULL,
            platform TEXT NOT NULL,
            ord INTEGER NOT NULL,
            kind TEXT NOT NULL,
            grp TEXT NOT NULL,
            started REAL NOT NULL,
            finished REAL NOT NULL,
            error TEXT,
            PRIMARY KEY (run_id, platform, ord)
        )
    """,
    # Section 4.1 per-query attribution rows (E2EBreakdown.queries).
    "breakdowns": """
        CREATE TABLE IF NOT EXISTS breakdowns (
            run_id INTEGER NOT NULL,
            platform TEXT NOT NULL,
            ord INTEGER NOT NULL,
            name TEXT NOT NULL,
            t_e2e REAL NOT NULL,
            t_cpu REAL NOT NULL,
            t_remote REAL NOT NULL,
            t_io REAL NOT NULL,
            t_unattributed REAL NOT NULL,
            overlap_hidden REAL NOT NULL,
            PRIMARY KEY (run_id, platform, ord)
        )
    """,
    # Table 1 capacity telemetry: one row per (platform, device tier),
    # ord preserving the telemetry's platform registration order.
    "telemetry": """
        CREATE TABLE IF NOT EXISTS telemetry (
            run_id INTEGER NOT NULL,
            ord INTEGER NOT NULL,
            platform TEXT NOT NULL,
            tier TEXT NOT NULL,
            capacity REAL NOT NULL,
            reads INTEGER NOT NULL,
            PRIMARY KEY (run_id, ord)
        )
    """,
    # Scraped observability series (one TimeSeries per platform), stored
    # as JSON columns/rows -- read back verbatim into TimeSeries.
    "telemetry_series": """
        CREATE TABLE IF NOT EXISTS telemetry_series (
            run_id INTEGER NOT NULL,
            platform TEXT NOT NULL,
            columns TEXT NOT NULL,
            rows TEXT NOT NULL,
            PRIMARY KEY (run_id, platform)
        )
    """,
    # Chaos ledgers: fault ids + (fault_id, when) injection/heal events.
    "chaos": """
        CREATE TABLE IF NOT EXISTS chaos (
            run_id INTEGER NOT NULL,
            platform TEXT NOT NULL,
            fault_ids TEXT NOT NULL,
            injected TEXT NOT NULL,
            healed TEXT NOT NULL,
            PRIMARY KEY (run_id, platform)
        )
    """,
    # Dapper traces + flattened span rows (sequential runs only; summary
    # platforms do not carry span trees across process boundaries).
    "traces": """
        CREATE TABLE IF NOT EXISTS traces (
            run_id INTEGER NOT NULL,
            platform TEXT NOT NULL,
            ord INTEGER NOT NULL,
            trace_id INTEGER NOT NULL,
            name TEXT NOT NULL,
            start REAL NOT NULL,
            end REAL,
            PRIMARY KEY (run_id, platform, ord)
        )
    """,
    "spans": """
        CREATE TABLE IF NOT EXISTS spans (
            run_id INTEGER NOT NULL,
            platform TEXT NOT NULL,
            trace_ord INTEGER NOT NULL,
            ord INTEGER NOT NULL,
            span_id INTEGER NOT NULL,
            parent_id INTEGER,
            name TEXT NOT NULL,
            kind TEXT NOT NULL,
            start REAL NOT NULL,
            end REAL,
            annotations TEXT NOT NULL,
            PRIMARY KEY (run_id, platform, trace_ord, ord)
        )
    """,
    # Service-mode window snapshots; ``body`` is the canonical
    # window_jsonl line so stored streams re-emit byte-identically.
    "windows": """
        CREATE TABLE IF NOT EXISTS windows (
            run_id INTEGER NOT NULL,
            idx INTEGER NOT NULL,
            start REAL NOT NULL,
            end REAL NOT NULL,
            body TEXT NOT NULL,
            PRIMARY KEY (run_id, idx)
        )
    """,
    # Opaque text artifacts tied to a run (prometheus export, Table 8
    # validation results) stored verbatim.
    "artifacts": """
        CREATE TABLE IF NOT EXISTS artifacts (
            run_id INTEGER NOT NULL,
            name TEXT NOT NULL,
            content TEXT NOT NULL,
            PRIMARY KEY (run_id, name)
        )
    """,
}

_V2_TABLES = {
    # One row per selftest config verdict (full JSONL record retained).
    "selftest_verdicts": """
        CREATE TABLE IF NOT EXISTS selftest_verdicts (
            run_id INTEGER NOT NULL,
            idx INTEGER NOT NULL,
            ok INTEGER NOT NULL,
            record TEXT NOT NULL,
            PRIMARY KEY (run_id, idx)
        )
    """,
    # Legs of the retired perf harness: no longer written, kept so older
    # stores and fresh ones share one table set.
    "bench_legs": """
        CREATE TABLE IF NOT EXISTS bench_legs (
            leg_id INTEGER PRIMARY KEY,
            run_id INTEGER NOT NULL,
            mode TEXT NOT NULL,
            engine TEXT,
            wall_seconds REAL NOT NULL,
            samples INTEGER,
            samples_per_second REAL,
            events_processed INTEGER,
            detail TEXT NOT NULL
        )
    """,
}

#: v3: event throughput per bench leg, queryable without JSON-parsing
#: the detail blob (additive column, NULL on legs ingested before v3).
_V3_STATEMENTS = (
    "ALTER TABLE bench_legs ADD COLUMN events_per_second REAL",
)

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_samples_run_platform"
    " ON samples (run_id, platform)",
    "CREATE INDEX IF NOT EXISTS idx_records_run ON records (run_id, platform)",
    "CREATE INDEX IF NOT EXISTS idx_bench_mode ON bench_legs (mode, leg_id)",
)


def schema_ddl(version: int = SCHEMA_VERSION) -> list[str]:
    """The CREATE statements for one schema version, in creation order."""
    if version == 1:
        runs = f"CREATE TABLE IF NOT EXISTS runs ({_RUNS_COLUMNS_V1})"
        return [runs, *_CORE_TABLES.values()]
    if version == SCHEMA_VERSION:
        runs = (
            f"CREATE TABLE IF NOT EXISTS runs ({_RUNS_COLUMNS_V1}, label TEXT)"
        )
        return [
            runs,
            *_CORE_TABLES.values(),
            *_V2_TABLES.values(),
            *_V3_STATEMENTS,
            *_INDEXES,
        ]
    raise StoreError(f"unknown store schema version {version}")


#: Exact DDL of a v1 store -- the migration test fabricates v1 fixtures
#: from this instead of committing a binary .sqlite to the tree.
V1_DDL: tuple[str, ...] = tuple(schema_ddl(1))

#: Forward migrations: version -> DDL bringing a store to version + 1.
#: Additive only; applied in sequence inside one transaction.
MIGRATIONS: dict[int, tuple[str, ...]] = {
    1: (
        "ALTER TABLE runs ADD COLUMN label TEXT",
        *(_V2_TABLES.values()),
        *_INDEXES,
    ),
    2: _V3_STATEMENTS,
}


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create or migrate the schema; raise :class:`StoreError` on mismatch.

    * version 0 (fresh database): create the current schema.
    * older version with a registered migration chain: migrate forward.
    * current version: no-op.
    * newer version: refuse -- this reader would misinterpret the file.
    """
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    if version == SCHEMA_VERSION:
        return
    if version > SCHEMA_VERSION:
        raise StoreError(
            f"store schema version {version} is newer than this reader "
            f"(supports <= {SCHEMA_VERSION}); upgrade repro to open it"
        )
    with conn:
        if version == 0:
            for statement in schema_ddl(SCHEMA_VERSION):
                conn.execute(statement)
        else:
            while version < SCHEMA_VERSION:
                steps = MIGRATIONS.get(version)
                if steps is None:
                    raise StoreError(
                        f"no migration path from store schema version {version}"
                    )
                for statement in steps:
                    conn.execute(statement)
                version += 1
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
