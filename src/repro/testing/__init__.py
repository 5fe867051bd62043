"""Differential verification harness (the ``repro selftest`` machinery).

The repo's validity claim is that the profiling pipeline recovers the
paper's aggregates through *real simulated execution* -- and that every
execution mode (sequential/parallel, metrics on/off, coalesced/chunked,
replayed chaos) measures the same fleet.  This package makes that claim
executable against *generated* configurations, not just the handful of
canned ones the golden suites pin:

* :mod:`~repro.testing.fuzzer` -- :class:`FleetConfigFuzzer`, a
  deterministic seeded generator of :class:`~repro.api.FleetConfig`
  instances (platform mixes, fault plans, observability knobs, worker
  counts).
* :mod:`~repro.testing.diff` -- measurement snapshots and the structured
  field-by-field differ the parity test suites are built on.
* :mod:`~repro.testing.differential` -- runs one config through every
  mode pair that must agree and diffs the snapshots.
* :mod:`~repro.testing.lanes` -- the per-chunk reference lanes (CPU and
  storage reads) the production fast paths are checked against.
* :mod:`~repro.testing.oracles` -- metamorphic oracles: properties that
  must hold for *any* config (sample conservation, span-tree
  well-formedness, storage-ratio recovery, query-count monotonicity).
* :mod:`~repro.testing.shrink` -- bisects a failing config down to a
  minimal reproducer.
* :mod:`~repro.testing.selftest` -- the orchestrator behind
  ``repro selftest``: fuzz, verify, shrink, and emit a JSONL verdict
  stream for CI.
"""

from repro.testing.diff import (
    Mismatch,
    assert_equivalent,
    breakdown_rows,
    diff_snapshots,
    ledger_rows,
    render_mismatches,
    sample_rows,
    snapshot,
    span_rows,
    trace_rows,
)
from repro.testing.differential import DifferentialRunner, PairResult
from repro.testing.fuzzer import FleetConfigFuzzer, FuzzSpace
from repro.testing.oracles import OracleVerdict, run_oracles
from repro.testing.selftest import SelftestReport, run_selftest
from repro.testing.shrink import shrink_config

__all__ = [
    "Mismatch",
    "assert_equivalent",
    "breakdown_rows",
    "diff_snapshots",
    "ledger_rows",
    "render_mismatches",
    "sample_rows",
    "snapshot",
    "span_rows",
    "trace_rows",
    "DifferentialRunner",
    "PairResult",
    "FleetConfigFuzzer",
    "FuzzSpace",
    "OracleVerdict",
    "run_oracles",
    "SelftestReport",
    "run_selftest",
    "shrink_config",
]
