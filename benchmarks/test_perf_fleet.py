"""Perf harness for the simulation -> profiling hot path.

Times the reference fleet run (60 queries per platform, seed 0) end to end
and writes ``BENCH_fleet.json`` at the repo root so perf changes leave an
auditable artifact.  The committed baseline (pre-coalescing, one heap event
per CPU micro-chunk) is kept in the report for comparison; the measured
wall-clock is machine-dependent, so the hard assertions here are only on
the *measured numbers* (sample count, query count) and on the scheduler's
shape (straggler bound, schema) -- never on absolute time.

Six execution modes are timed:

* ``sequential`` -- the legacy single-process driver on the reference
  binary-heap event engine (batched IO legs, the shipping default);
* ``sequential_columnar`` -- the same driver on the batched columnar
  calendar-queue engine (``engine="columnar"``): the measurement surface
  is asserted byte-identical to the heap run, only wall-clock may differ;
* ``sequential_columnar_chunked`` -- the columnar engine on the
  per-chunk storage reader reference lane (``repro.testing.lanes``):
  the pre-batching reference leg.  Its events-processed count is deterministically
  *higher* than the batched legs' (one event per chunk instead of one
  per tier-contiguous leg), which the report records as an explicit
  per-leg delta; every measurement is asserted identical with only the
  events gauge masked;
* ``parallel_platform`` -- the old platform-granularity fan-out (one
  worker per platform), kept as the straggler-problem reference: its
  wall-clock is bounded by the BigQuery shard;
* ``work_stealing`` -- ``--parallel --shards auto``: query-granular
  sub-shards over the work-stealing pool.  On hosts too small for a
  real pool the leg is labeled ``skipped (sequential-fallback)`` and
  its speedup fields are ``null`` -- a 1-worker "speedup" of ~1.0x is
  noise, not a scheduler measurement;
* ``observed`` -- the sequential run with the metrics registry on.

The report schema is guarded: every field written here must already exist
in the committed ``BENCH_fleet.json``, so schema drift (new fields,
renames) fails loudly until the committed artifact is regenerated.

Run directly::

    PYTHONPATH=src python -m pytest -q benchmarks/test_perf_fleet.py
"""

import json
import os
import time
from pathlib import Path

from repro.api import FleetConfig, Profile, Telemetry, run_fleet
from repro.testing.diff import diff_snapshots, snapshot
from repro.testing.differential import _mask_engine_events
from repro.testing.lanes import CHUNKED_IO, ReferenceFleetSimulation
from repro.workloads.calibration import PLATFORMS
from repro.workloads.fleet import FleetSimulation
from repro.workloads.parallel import run_parallel

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_fleet.json"
PROM_PATH = REPO_ROOT / "BENCH_fleet.prom"
FOLDED_PATH = REPO_ROOT / "BENCH_fleet.folded"
#: Rolling bench-leg time series (one profile-store run per harness run);
#: not committed -- CI uploads it as an artifact instead.
STORE_PATH = REPO_ROOT / "BENCH_fleet.sqlite"

QUERIES = 60
SEED = 0

#: The reference workload measured on the pre-coalescing hot path
#: (commit d9d58a6: per-chunk timeout events, per-chunk profiler calls).
BASELINE = {
    "wall_seconds": 33.50,
    "events_processed": 4_213_276,
    "samples": 15_777,
}
#: Expected sample count for queries=60, seed=0 -- a determinism guard:
#: the optimized hot path must reproduce the baseline's measurements.
EXPECTED_SAMPLES = 15_777

#: Acceptance bound for the work-stealing scheduler: with a real pool, no
#: worker may stay busy longer than this multiple of the mean busy time
#: (the straggler factor the query-granular sharding exists to kill).
MAX_BUSY_OVER_MEAN = 1.5


def _timed_run(sim):
    start = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - start
    return result, wall


def _key_paths(data: dict, prefix: str = "") -> set:
    """Dotted key paths of a nested dict (lists are leaves)."""
    paths = set()
    for key, value in data.items():
        path = f"{prefix}{key}"
        paths.add(path)
        if isinstance(value, dict):
            paths |= _key_paths(value, path + ".")
    return paths


def _assert_schema_committed(report: dict) -> None:
    """Every field written must already exist in the committed report.

    Intentional schema changes regenerate the artifact with
    ``BENCH_REGEN=1`` (which skips this guard for one run) and commit
    the result in the same change -- see docs/performance.md,
    "Regenerating committed artifacts".
    """
    if os.environ.get("BENCH_REGEN") == "1":
        return
    assert REPORT_PATH.exists(), (
        f"{REPORT_PATH} is not committed; run this harness and commit the "
        "artifacts it writes"
    )
    committed = json.loads(REPORT_PATH.read_text())
    missing = sorted(_key_paths(report) - _key_paths(committed))
    assert not missing, (
        "BENCH_fleet.json schema drift -- fields written by the harness "
        f"are missing from the committed report: {missing}; regenerate "
        "the artifact and commit it"
    )


def test_fleet_hot_path_perf_report():
    # The previously committed report, read *before* this run overwrites
    # it: per-leg deltas below are measured against it.
    committed = (
        json.loads(REPORT_PATH.read_text()) if REPORT_PATH.exists() else {}
    )

    sequential, seq_wall = _timed_run(FleetSimulation(queries=QUERIES, seed=SEED))
    columnar, col_wall = _timed_run(
        FleetSimulation(queries=QUERIES, seed=SEED, engine="columnar")
    )
    chunked, chunked_wall = _timed_run(
        ReferenceFleetSimulation(
            queries=QUERIES, seed=SEED, engine="columnar", lanes=(CHUNKED_IO,)
        )
    )
    platform_sharded, pp_wall = _timed_run_parallel_platform()

    ws_start = time.perf_counter()
    work_stealing = run_fleet(
        FleetConfig(queries=QUERIES, seed=SEED, parallel=True, shards="auto")
    )
    ws_wall = time.perf_counter() - ws_start
    stats = work_stealing.scheduler

    observed_start = time.perf_counter()
    observed = run_fleet(FleetConfig(queries=QUERIES, seed=SEED, observability=True))
    obs_wall = time.perf_counter() - observed_start

    samples = sequential.profiler.sample_count()
    events = sum(
        sequential.platforms[name].env.events_processed for name in PLATFORMS
    )
    queries_served = sum(
        sequential.platforms[name].queries_served for name in PLATFORMS
    )

    # Determinism guards: optimization must not change measured numbers,
    # and neither must the observability layer or the fan-out.
    assert samples == EXPECTED_SAMPLES
    assert platform_sharded.profiler.sample_count() == samples
    assert observed.profiler.sample_count() == samples
    # Engine parity: the columnar calendar queue must reproduce the heap
    # run on every measurement surface, events processed included.
    assert not diff_snapshots(snapshot(sequential), snapshot(columnar))
    col_events = sum(
        columnar.platforms[name].env.events_processed for name in PLATFORMS
    )
    assert col_events == events
    # IO-batching parity: the per-chunk reader leg must agree on every
    # measurement, with only the events-processed gauge masked -- and the
    # batched legs must deterministically process *fewer* events (one per
    # tier-contiguous leg instead of one per chunk).
    assert not diff_snapshots(
        _mask_engine_events(snapshot(columnar)),
        _mask_engine_events(snapshot(chunked)),
    )
    chunked_events = sum(
        chunked.platforms[name].env.events_processed for name in PLATFORMS
    )
    assert col_events < chunked_events, (
        "batched IO must coalesce per-chunk events into per-leg events"
    )
    events_delta = col_events - chunked_events
    assert queries_served == QUERIES * len(PLATFORMS)
    assert (
        sum(p.queries_served for p in work_stealing.platforms.values())
        == QUERIES * len(PLATFORMS)
    )

    # Scheduler acceptance: with a real pool, the straggler is dead --
    # no worker above MAX_BUSY_OVER_MEAN x the mean busy time, and the
    # query-granular schedule beats the platform-granularity fan-out.
    utilization = stats.utilization()
    if stats.mode == "parallel" and stats.worker_count > 1:
        busy = [w.busy_seconds for w in stats.workers]
        mean_busy = sum(busy) / len(busy)
        assert max(busy) <= MAX_BUSY_OVER_MEAN * mean_busy, (
            f"straggler worker: busy times {busy}"
        )
        assert ws_wall < pp_wall, (
            f"work stealing ({ws_wall:.2f}s) must beat the platform-"
            f"sharded runner ({pp_wall:.2f}s) on a multi-core host"
        )
    else:
        # Small host: the auto-fallback must have engaged rather than
        # letting --parallel run slower than sequential.
        assert stats.mode == "sequential-fallback"
        assert stats.reason

    # Export artifacts ride along with the JSON report in CI.
    PROM_PATH.write_text(Telemetry(observed).prometheus())
    FOLDED_PATH.write_text(Profile(observed).folded())

    fallback = stats.mode == "sequential-fallback"
    report = {
        "workload": {"queries_per_platform": QUERIES, "seed": SEED},
        "host": {"cpus": os.cpu_count()},
        "sequential": {
            "engine": "heap",
            "io_mode": "batched",
            "wall_seconds": round(seq_wall, 3),
            "events_processed": events,
            "events_per_second": round(events / seq_wall, 1),
            "events_delta_vs_chunked": events_delta,
            "samples": samples,
            "samples_per_second": round(samples / seq_wall, 1),
            "speedup_vs_baseline": round(BASELINE["wall_seconds"] / seq_wall, 2),
        },
        "sequential_columnar": {
            "engine": "columnar",
            "io_mode": "batched",
            "wall_seconds": round(col_wall, 3),
            "events_processed": col_events,
            "events_per_second": round(col_events / col_wall, 1),
            "events_delta_vs_chunked": events_delta,
            "samples": columnar.profiler.sample_count(),
            "samples_per_second": round(samples / col_wall, 1),
            "speedup_vs_heap": round(seq_wall / col_wall, 2),
            "speedup_vs_chunked_io": round(chunked_wall / col_wall, 2),
            "speedup_vs_baseline": round(BASELINE["wall_seconds"] / col_wall, 2),
            "note": "batched IO legs on the columnar calendar-queue engine; "
            "snapshot asserted byte-identical to the heap run above, and to "
            "the per-chunk reader leg below with only the events gauge "
            "masked -- events_delta_vs_chunked is the per-chunk timeouts "
            "the read planner coalesced away",
        },
        "sequential_columnar_chunked": {
            "engine": "columnar",
            "io_mode": "chunked",
            "wall_seconds": round(chunked_wall, 3),
            "events_processed": chunked_events,
            "events_per_second": round(chunked_events / chunked_wall, 1),
            "samples": chunked.profiler.sample_count(),
            "samples_per_second": round(samples / chunked_wall, 1),
            "note": "pre-batching reference: the per-chunk storage reader "
            "(one Timeout event and one generator resume per chunk)",
        },
        "parallel_platform": {
            "wall_seconds": round(pp_wall, 3),
            "speedup_vs_sequential": round(seq_wall / pp_wall, 2),
            "note": "legacy platform-granularity fan-out, bounded by the "
            "BigQuery straggler shard; kept as the reference the "
            "work-stealing scheduler is measured against",
        },
        "work_stealing": {
            "engine": "heap",
            "status": "skipped (sequential-fallback)" if fallback else "ok",
            "wall_seconds": round(ws_wall, 3),
            # A 1-worker pool's "speedup" is sequential noise (the old
            # report showed a misleading 0.98x here on 1-CPU hosts);
            # fallback legs carry null so summaries skip them.
            "speedup_vs_sequential": (
                None if fallback else round(seq_wall / ws_wall, 2)
            ),
            "speedup_vs_parallel_platform": (
                None if fallback else round(pp_wall / ws_wall, 2)
            ),
            "samples": work_stealing.profiler.sample_count(),
            "scheduler": {
                "mode": stats.mode,
                "reason": stats.reason,
                "shard_count": stats.shard_count,
                "worker_count": stats.worker_count,
                "steals": stats.steal_count(),
                "max_over_mean_shard_wall": round(
                    stats.max_over_mean_shard_wall(), 3
                ),
                "per_worker": [
                    {
                        "worker": w.worker,
                        "jobs": w.jobs,
                        "steals": w.steals,
                        "busy_seconds": round(w.busy_seconds, 3),
                        "utilization": round(utilization[w.worker], 3),
                    }
                    for w in stats.workers
                ],
                "per_shard": [
                    {
                        "platform": s.platform,
                        "ordinal": s.ordinal,
                        "queries": s.queries,
                        "worker": s.worker,
                        "wall_seconds": round(s.wall_seconds, 3),
                    }
                    for s in stats.shards
                ],
            },
            "note": "--parallel --shards auto: query-granular sub-shards "
            "over the work-stealing pool; auto-falls back to the "
            "sequential sharded driver on small hosts",
        },
        "observed": {
            "wall_seconds": round(obs_wall, 3),
            "overhead_vs_sequential": round(obs_wall / seq_wall, 2),
            "samples": observed.profiler.sample_count(),
            "note": "sequential run with the metrics registry + periodic "
            "scraper enabled; measurements are asserted byte-identical",
        },
        "baseline_pre_coalescing": BASELINE,
    }
    # Per-leg trajectory deltas against the previously committed report
    # (null on first generation or where the committed leg lacks a field).
    for mode, leg in report.items():
        if (
            mode == "baseline_pre_coalescing"
            or not isinstance(leg, dict)
            or "wall_seconds" not in leg
        ):
            continue
        prev = committed.get(mode)
        for key, delta_key in (
            ("events_processed", "events_delta_vs_committed"),
            ("samples_per_second", "samples_per_second_delta_vs_committed"),
        ):
            value = leg.get(key)
            prior = prev.get(key) if isinstance(prev, dict) else None
            leg[delta_key] = (
                round(value - prior, 1)
                if isinstance(value, (int, float)) and isinstance(prior, (int, float))
                else None
            )

    _assert_schema_committed(report)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # Append this harness run's legs to the profile store so wall-clock
    # becomes a queryable time series rather than a single overwritten
    # JSON file: ``repro store regress BENCH_fleet.sqlite --bench
    # sequential`` gates the two newest legs.  The JSON report above stays
    # the committed single-run artifact (its schema guard is unchanged).
    from repro.store import StoreWriter, open_store

    with open_store(STORE_PATH) as store:
        StoreWriter(store).ingest_bench(report, label="perf-harness")

    print(f"\nwrote {REPORT_PATH}")
    print(f"wrote {PROM_PATH}")
    print(f"wrote {FOLDED_PATH}")
    print(f"appended bench legs to {STORE_PATH}")
    print(json.dumps(report, indent=2))


def _timed_run_parallel_platform():
    sim = FleetSimulation(queries=QUERIES, seed=SEED)
    start = time.perf_counter()
    result = run_parallel(sim, max_workers=len(PLATFORMS))
    return result, time.perf_counter() - start
