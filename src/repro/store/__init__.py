"""Persistent profile store: sqlite-backed, versioned, cross-run.

The write side (:class:`StoreWriter`) ingests live results -- fleet
runs, window streams, selftest verdicts -- into the
versioned schema (:mod:`repro.store.schema`); the read side
(:class:`DataProvider`) answers typed queries and rehydrates stored
runs byte-identically.  ``open_store`` is the one entry point user code
needs; it is re-exported from :mod:`repro.api`.

See ``docs/store.md`` for the schema, the query cookbook, and the
migration policy.
"""

from repro.store.core import ProfileStore, open_store
from repro.store.provider import (
    REGRESSION_METRICS,
    DataProvider,
    RegressionReport,
    RunRow,
    StoredFault,
    StoredMetrics,
)
from repro.store.schema import MIGRATIONS, SCHEMA_VERSION, V1_DDL, ensure_schema
from repro.store.writer import StoreWriter

__all__ = [
    "ProfileStore",
    "open_store",
    "StoreWriter",
    "DataProvider",
    "RunRow",
    "RegressionReport",
    "StoredFault",
    "StoredMetrics",
    "REGRESSION_METRICS",
    "SCHEMA_VERSION",
    "V1_DDL",
    "MIGRATIONS",
    "ensure_schema",
]
