"""Golden-table regression tests for the store-backed rendering path.

``tests/golden/store_tables.txt`` is the committed rendering of Tables
1/6/7/8 for one fixture config.  Every engine must regenerate it
byte-identically from a store -- and the store-backed bytes must equal
the in-memory rendering of the same run, which is the acceptance
criterion of the store PR.  Regenerate the golden (only after an
intentional measurement change) with::

    PYTHONPATH=src python -c "
    from pathlib import Path
    from repro import api
    from repro.analysis import render_tables
    from repro.soc import ValidationExperiment
    result = api.run_fleet(api.FleetConfig(
        queries={'Spanner': 8, 'BigTable': 8, 'BigQuery': 4}, seed=5))
    table8 = ValidationExperiment(batch_messages=20, seed=0).run()
    Path('tests/golden/store_tables.txt').write_text(
        render_tables(result, table8))"
"""

from pathlib import Path

import pytest

from repro import api
from repro.analysis import render_tables, tables_from_store
from repro.platforms.common import ENGINES
from repro.soc import ValidationExperiment
from repro.store import DataProvider, ProfileStore, StoreWriter

GOLDEN = Path(__file__).parent / "golden" / "store_tables.txt"

FIXTURE = api.FleetConfig(
    queries={"Spanner": 8, "BigTable": 8, "BigQuery": 4}, seed=5
)


@pytest.mark.parametrize("engine", ENGINES)
def test_store_tables_match_golden_and_memory(engine):
    config = FIXTURE.with_overrides(engine=engine)
    result = api.run_fleet(config)
    table8 = ValidationExperiment(batch_messages=20, seed=0).run()
    live = render_tables(result, table8)
    with ProfileStore(":memory:") as store:
        writer = StoreWriter(store)
        writer.ingest_fleet(result, config=config)
        writer.ingest_validation(table8, seed=0)
        stored = tables_from_store(DataProvider(store))
    assert stored == live  # store-vs-memory byte identity
    assert stored == GOLDEN.read_text()  # cross-engine golden regression


def test_tables_without_validation_run_omit_table8():
    result = api.run_fleet(FIXTURE)
    with ProfileStore(":memory:") as store:
        StoreWriter(store).ingest_fleet(result, config=FIXTURE)
        stored = tables_from_store(DataProvider(store))
    assert stored == render_tables(result)
    assert "Table 8" not in stored
    assert "Table 7" in stored
