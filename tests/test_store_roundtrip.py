"""Round-trip properties of the persistent profile store.

The store's contract is *byte-identity*: ingesting a ``FleetResult`` and
reading it back must rehydrate a result whose every comparable
measurement surface equals the live one (``assert_equivalent``), and the
paper tables regenerated from the store must render the same bytes as
the in-memory path.  Fuzzed configs come from :mod:`tests.strategies`;
the schema-migration test fabricates a genuine v1 store from
:data:`repro.store.V1_DDL` instead of committing a binary fixture.
"""

import json
import sqlite3

import pytest
from hypothesis import given, settings

from repro import api
from repro.errors import StoreError
from repro.store import (
    MIGRATIONS,
    SCHEMA_VERSION,
    V1_DDL,
    DataProvider,
    ProfileStore,
    StoreWriter,
    open_store,
)
from repro.testing import assert_equivalent
from repro.testing.diff import diff_snapshots, snapshot
from repro.testing.lanes import PER_BOUNDARY, run_reference
from tests.strategies import fleet_configs

SMALL = api.FleetConfig(
    queries={"Spanner": 4, "BigTable": 3, "BigQuery": 1}, seed=11
)


def ingest(result, config=None, store=None):
    store = store or ProfileStore(":memory:")
    run_id = StoreWriter(store).ingest_fleet(result, config=config)
    return store, DataProvider(store), run_id


class TestFuzzedRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(config=fleet_configs())
    def test_rehydrated_result_is_equivalent(self, config):
        live = api.run_fleet(config)
        store, provider, run_id = ingest(live, config)
        with store:
            back = provider.fleet_result(run_id)
            assert_equivalent(live, back)

    @settings(max_examples=6, deadline=None)
    @given(config=fleet_configs())
    def test_double_ingest_dumps_identically(self, config):
        live = api.run_fleet(config)
        store, provider, first = ingest(live, config)
        with store:
            second = StoreWriter(store).ingest_fleet(live, config=config)
            assert provider.delta(first, second) == []


class TestStoredSurfaces:
    """Deterministic spot checks on one small observed run."""

    @pytest.fixture(scope="class")
    def stored(self):
        config = SMALL.with_overrides(observability=True)
        live = api.run_fleet(config)
        store, provider, run_id = ingest(live, config)
        yield live, provider, run_id
        store.close()

    def test_engine_legs_store_identical_rows(self):
        # The engine-parity invariant survives the trip through sqlite: the
        # heap engine's block drain and the per-boundary lane dump
        # row-for-row equal for the same config.
        store = ProfileStore(":memory:")
        with store:
            writer = StoreWriter(store)
            heap = writer.ingest_fleet(api.run_fleet(SMALL), config=SMALL)
            reference = writer.ingest_fleet(
                run_reference(SMALL, (PER_BOUNDARY,)), config=SMALL
            )
            assert DataProvider(store).delta(heap, reference) == []

    def test_prometheus_artifact_is_verbatim(self, stored):
        from repro.observability import prometheus_text

        live, provider, run_id = stored
        assert provider.prometheus(run_id) == prometheus_text(
            live.metrics.registry
        )

    def test_rehydrated_snapshot_matches_base(self, stored):
        live, provider, run_id = stored
        assert diff_snapshots(
            snapshot(live), snapshot(provider.fleet_result(run_id))
        ) == []

    def test_run_row_provenance(self, stored):
        _, provider, run_id = stored
        run = provider.run(run_id)
        assert run.kind == "fleet"
        assert run.seed == SMALL.seed
        assert run.engine == "heap"

    def test_sample_rows_preserve_profiler_order(self, stored):
        live, provider, run_id = stored
        assert provider.sample_rows(run_id) == [
            (s.platform, s.function, s.category_key, s.cycles, s.timestamp)
            for s in live.profiler.samples
        ]

    def test_tables_regenerate_byte_identically(self, stored):
        from repro.analysis import render_tables, tables_from_store

        live, provider, _ = stored
        assert tables_from_store(provider) == render_tables(live)

    def test_figures_regenerate_byte_identically(self, stored):
        from repro.analysis import figures_from_store, render_figures

        live, provider, _ = stored
        assert figures_from_store(provider) == render_figures(live)


class TestApiWiring:
    def test_run_fleet_into_path_and_back(self, tmp_path):
        path = tmp_path / "profiles.sqlite"
        result = api.run_fleet(SMALL, store=path)
        assert result.store_run_id == 1
        with open_store(path, create=False) as store:
            assert_equivalent(
                result, DataProvider(store).fleet_result(result.store_run_id)
            )

    def test_run_fleet_leaves_caller_handle_open(self):
        store = ProfileStore(":memory:")
        result = api.run_fleet(SMALL, store=store, store_label="mine")
        # The handle is the caller's: still usable after the run.
        run = DataProvider(store).run(result.store_run_id)
        assert run.label == "mine"
        store.close()

    def test_run_fleet_bad_store_path_fails_before_running(self, tmp_path):
        calls = []
        with pytest.raises(StoreError):
            api.run_fleet(
                SMALL,
                progress=lambda *a: calls.append(a),
                store=tmp_path / "missing_dir" / "p.sqlite",
            )
        assert calls == []  # the fleet never started

    def test_run_service_stores_windows_verbatim(self, tmp_path):
        from repro.observability.exporters import window_jsonl

        path = tmp_path / "serve.sqlite"
        config = api.ServeConfig(
            duration=40.0, window=10.0, rate=0.4, arrival="poisson", seed=3
        )
        live = [window_jsonl(s) for s in api.run_service(config, store=path)]
        assert live  # the run produced windows
        with open_store(path, create=False) as store:
            provider = DataProvider(store)
            run = provider.latest_run("serve")
            assert provider.window_lines(run.run_id) == live

    def test_validation_round_trip(self):
        from repro.soc import ValidationExperiment

        table8 = ValidationExperiment(batch_messages=20, seed=0).run()
        with ProfileStore(":memory:") as store:
            run_id = StoreWriter(store).ingest_validation(table8, seed=0)
            back = DataProvider(store).table8_result(run_id)
        assert back == table8


class TestSchemaLifecycle:
    def fabricate_v1(self, path):
        conn = sqlite3.connect(path)
        with conn:
            for statement in V1_DDL:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO runs (kind, engine, seed, jitter, sample_period,"
                " config, created) VALUES ('fleet', 'heap', 9, 0.02, 0.001,"
                " '{}', 0.0)"
            )
            conn.execute("PRAGMA user_version = 1")
        conn.close()

    def test_v1_store_migrates_forward_on_open(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        self.fabricate_v1(path)
        with ProfileStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            # v1 rows survive; the added label column reads as NULL.
            run = DataProvider(store).run(1)
            assert run.seed == 9 and run.label is None
            # v2 tables exist after migration.
            store.execute("SELECT COUNT(*) FROM bench_legs")
            store.execute("SELECT COUNT(*) FROM selftest_verdicts")

    def test_failed_migration_leaves_the_store_untouched(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "v1.sqlite"
        self.fabricate_v1(path)
        first, *_ = MIGRATIONS[1]
        monkeypatch.setitem(
            MIGRATIONS, 1, (first, "CREATE TABLE broken_migration (")
        )
        with pytest.raises(StoreError):
            ProfileStore(path)
        conn = sqlite3.connect(path)
        try:
            (version,) = conn.execute("PRAGMA user_version").fetchone()
            columns = {row[1] for row in conn.execute("PRAGMA table_info(runs)")}
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        finally:
            conn.close()
        assert version == 1
        assert "label" not in columns
        assert not {"bench_legs", "selftest_verdicts"} & tables
        monkeypatch.undo()
        with ProfileStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            assert DataProvider(store).run(1).label is None

    def test_migrations_cover_every_old_version(self):
        assert set(MIGRATIONS) == set(range(1, SCHEMA_VERSION))

    def test_newer_store_refuses_to_open(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer than this reader"):
            ProfileStore(path)

    def test_open_store_missing_file_is_typed(self, tmp_path):
        with pytest.raises(StoreError, match="no store at"):
            open_store(tmp_path / "absent.sqlite", create=False)

    def test_non_sqlite_file_is_typed(self, tmp_path):
        path = tmp_path / "not_a_store.sqlite"
        path.write_text("definitely not a database\n" * 40)
        with pytest.raises(StoreError):
            ProfileStore(path)

    def test_selftest_report_round_trip(self):
        from repro.testing.selftest import run_selftest

        report = run_selftest(budget=1, seed=7, pairs=("replay",))
        with ProfileStore(":memory:") as store:
            run_id = StoreWriter(store).ingest_selftest(report)
            provider = DataProvider(store)
            verdicts = provider.selftest_verdicts(run_id)
        assert len(verdicts) == len(report.verdicts)
        assert verdicts[0] == json.loads(
            json.dumps(report.verdicts[0].to_jsonable())
        )
