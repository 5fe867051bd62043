"""Query-granular sharding: merge determinism under adversarial stealing.

The sub-shard contract (``repro.workloads.shards``): at fixed shard
geometry, a fleet's measurements are byte-identical no matter how many
workers execute the shards, which worker runs which shard, or in what
order shards complete.  These tests force the pathological schedules --
one worker serializing everything, one worker per sub-shard, seeded-random
completion orders through the inline pool -- and diff the full snapshot
against the sequential sharded driver.  Plus the config surface: shard
validation/resolution, the ``auto`` parallelism fallback, and the
scheduler's host-side stats staying out of the measurement snapshot.
"""

import pytest

from repro.api import (
    FleetConfig,
    MIN_PARALLEL_COST,
    build_simulation,
    parallel_plan,
    run_fleet,
)
from repro.errors import ConfigError
from repro.faults import canned_mixed_scenario
from repro.testing import assert_equivalent
from repro.testing.diff import diff_snapshots, snapshot
from repro.testing.differential import DifferentialRunner
from repro.testing.oracles import run_oracles
from repro.workloads.calibration import BIGQUERY, PLATFORMS
from repro.workloads.fleet import FleetSimulation, normalize_queries
from repro.workloads.parallel import (
    InlineWorkerPool,
    ParallelFleetSimulation,
    StealScheduler,
    run_parallel,
    sweep_seeds,
)
from repro.workloads.shards import (
    ShardSpec,
    estimated_cost,
    plan_shards,
    resolve_shards,
    validate_shards,
)

QUERIES = {"Spanner": 6, "BigTable": 6, "BigQuery": 3}
SEED = 3


@pytest.fixture(scope="module")
def sequential_sharded():
    return FleetSimulation(queries=QUERIES, seed=SEED, shards=3).run()


class TestShardPlanning:
    def test_legacy_plan_is_whole_platforms(self):
        specs = plan_shards(QUERIES, None)
        assert [s.platform for s in specs] == list(PLATFORMS)
        assert all(not s.reseed and s.start == 0 for s in specs)
        assert [s.count for s in specs] == [QUERIES[p] for p in PLATFORMS]

    def test_sharded_plan_is_contiguous_and_exhaustive(self):
        specs = plan_shards(QUERIES, 4)
        for platform in PLATFORMS:
            mine = [s for s in specs if s.platform == platform]
            assert [s.ordinal for s in mine] == list(range(len(mine)))
            next_start = 0
            for spec in mine:
                assert spec.reseed
                assert spec.start == next_start
                next_start += spec.count
            assert next_start == QUERIES[platform]

    def test_shard_count_clamped_to_query_count(self):
        specs = plan_shards({"Spanner": 2, "BigTable": 0, "BigQuery": 0}, 8)
        spanner = [s for s in specs if s.platform == "Spanner"]
        assert len(spanner) == 2
        # Zero-query platforms still get one (empty) spec so their
        # telemetry registers.
        assert sum(1 for s in specs if s.count == 0) == 2

    def test_validation_rejects_bad_knobs(self):
        for bad in (0, -2, True, 1.5, {"Oracle": 2}, {"Spanner": 0}, "many"):
            with pytest.raises(ConfigError):
                validate_shards(bad)
        assert validate_shards({"Spanner": 2}) == {"Spanner": 2}

    def test_auto_resolution_is_cost_proportional(self):
        resolved = resolve_shards("auto", {p: 20 for p in PLATFORMS}, workers=4)
        # BigQuery dominates the cost model, so it gets the sub-shards.
        assert resolved[BIGQUERY] > resolved["Spanner"]
        assert resolved[BIGQUERY] > 1
        # Deterministic for a fixed (workload, workers) input.
        assert resolved == resolve_shards(
            "auto", {p: 20 for p in PLATFORMS}, workers=4
        )


class TestMergeDeterminismUnderStealing:
    """ISSUE satellite: pathological steal orders, byte-identical profiles."""

    def _inline(self, workers, order, seed=42, shards=3):
        sim = FleetSimulation(queries=QUERIES, seed=SEED, shards=shards)
        pool = InlineWorkerPool(workers, order=order, seed=seed)
        return run_parallel(sim, pool=pool)

    def test_single_worker(self, sequential_sharded):
        assert_equivalent(sequential_sharded, self._inline(1, "fifo"))

    def test_one_worker_per_subshard(self, sequential_sharded):
        specs = plan_shards(QUERIES, 3)
        assert_equivalent(
            sequential_sharded, self._inline(len(specs), "lifo")
        )

    def test_randomized_completion_orders(self, sequential_sharded):
        for completion_seed in (7, 19, 1234):
            result = self._inline(4, "random", seed=completion_seed)
            assert_equivalent(sequential_sharded, result)

    def test_oversharded_geometry(self):
        # More shards than queries: clamped per platform, still identical.
        sequential = FleetSimulation(queries=QUERIES, seed=SEED, shards=64).run()
        sim = FleetSimulation(queries=QUERIES, seed=SEED, shards=64)
        result = run_parallel(sim, pool=InlineWorkerPool(5, order="random", seed=1))
        assert_equivalent(sequential, result)

    def test_real_process_pool_with_stealing(self, sequential_sharded):
        parallel = ParallelFleetSimulation(
            queries=QUERIES, seed=SEED, shards=3, max_workers=2
        ).run()
        assert_equivalent(sequential_sharded, parallel)
        assert parallel.scheduler.mode == "parallel"
        assert parallel.scheduler.steal_count() > 0

    def test_observed_run_identical_under_stealing(self):
        kwargs = dict(queries=QUERIES, seed=SEED, shards=3, observability=True)
        sequential = FleetSimulation(**kwargs).run()
        result = run_parallel(
            FleetSimulation(**kwargs), pool=InlineWorkerPool(4, order="lifo")
        )
        assert_equivalent(sequential, result)
        # Sub-shard series concatenate per platform (repro top's channel).
        for name in PLATFORMS:
            assert result.metrics.series[name].rows == (
                sequential.metrics.series[name].rows
            )

    def test_chaos_ledger_identical_under_stealing(self):
        clean = FleetSimulation(queries=QUERIES, seed=SEED, shards=2).run()
        makespans = {p: clean.platforms[p].env.now for p in PLATFORMS}
        kwargs = dict(
            queries=QUERIES,
            seed=SEED,
            shards=2,
            fault_plans=canned_mixed_scenario(makespans),
        )
        sequential = FleetSimulation(**kwargs).run()
        result = run_parallel(
            FleetSimulation(**kwargs), pool=InlineWorkerPool(3, order="random", seed=9)
        )
        assert_equivalent(sequential, result)
        assert {k: v.injected for k, v in result.chaos.items()} == {
            k: v.injected for k, v in sequential.chaos.items()
        }

    def test_plan_invariant_under_shard_geometry(self, sequential_sharded):
        other = FleetSimulation(queries=QUERIES, seed=SEED, shards=2).run()
        for name in PLATFORMS:
            assert [
                (r.kind, r.group) for r in sequential_sharded.platforms[name].records
            ] == [(r.kind, r.group) for r in other.platforms[name].records]

    def test_scheduler_stats_not_in_snapshot(self, sequential_sharded):
        # Host wall-clock must never be able to break parity.
        assert "scheduler" not in snapshot(sequential_sharded)
        assert not any(
            "scheduler" in key for key in snapshot(sequential_sharded)
        )


class TestStealScheduler:
    def test_home_assignment_prefers_costly_queues(self):
        specs = plan_shards(QUERIES, 2)
        scheduler = StealScheduler(
            [((s.platform, s.ordinal), s.platform, s) for s in specs], workers=2
        )
        key, spec, stolen = scheduler.next_job(0)
        assert spec.platform == BIGQUERY and not stolen
        # Worker 1's home is the next-costliest platform.
        key, spec, stolen = scheduler.next_job(1)
        assert spec.platform == "Spanner" and not stolen

    def test_idle_worker_steals_from_richest_queue(self):
        specs = plan_shards(QUERIES, 2)
        scheduler = StealScheduler(
            [((s.platform, s.ordinal), s.platform, s) for s in specs], workers=1
        )
        taken = []
        while True:
            job = scheduler.next_job(0)
            if job is None:
                break
            taken.append(job)
        assert len(taken) == len(specs)
        # Everything after the home queue drained was a steal.
        assert any(stolen for _k, _s, stolen in taken)
        assert scheduler.pending() == 0

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_no_straggler_on_the_reference_workload(self, workers):
        # Virtual-clock replay of the pool: each job takes its estimated
        # cost, and the worker that frees up first asks for the next job.
        queries = normalize_queries(60)
        specs = plan_shards(queries, resolve_shards("auto", queries, workers=workers))
        scheduler = StealScheduler(
            [((s.platform, s.ordinal), s.platform, s) for s in specs], workers
        )
        busy = [0.0] * workers
        free_at = [(0.0, worker) for worker in range(workers)]
        while free_at:
            now, worker = min(free_at)
            free_at.remove((now, worker))
            job = scheduler.next_job(worker)
            if job is not None:
                cost = estimated_cost(job[1])
                busy[worker] += cost
                free_at.append((now + cost, worker))
        assert scheduler.pending() == 0
        mean = sum(busy) / workers
        assert max(busy) <= 1.5 * mean, busy


class TestAutoFallback:
    """ISSUE satellite: --parallel can never silently be slower."""

    def test_small_host_falls_back(self, monkeypatch, caplog):
        monkeypatch.setattr("repro.api.os.cpu_count", lambda: 1)
        config = FleetConfig(queries=QUERIES, seed=SEED, parallel=True, shards=2)
        plan = parallel_plan(config)
        assert not plan.parallel and "CPU" in plan.reason
        with caplog.at_level("INFO", logger="repro.api"):
            result = run_fleet(config)
        assert result.scheduler.mode == "sequential-fallback"
        assert result.scheduler.reason == plan.reason
        assert any("falling back" in message for message in caplog.messages)

    def test_small_workload_falls_back(self, monkeypatch):
        monkeypatch.setattr("repro.api.os.cpu_count", lambda: 8)
        config = FleetConfig(queries={"Spanner": 2}, parallel=True)
        plan = parallel_plan(config)
        assert not plan.parallel and "too small" in plan.reason

    def test_large_workload_on_big_host_stays_parallel(self, monkeypatch):
        monkeypatch.setattr("repro.api.os.cpu_count", lambda: 8)
        config = FleetConfig(queries=60, parallel=True)
        assert parallel_plan(config).parallel

    def test_explicit_workers_bypass_heuristic(self, monkeypatch):
        monkeypatch.setattr("repro.api.os.cpu_count", lambda: 1)
        config = FleetConfig(queries=QUERIES, parallel=True, max_workers=2)
        assert parallel_plan(config).parallel

    def test_fallback_result_matches_forced_parallel(self, monkeypatch):
        monkeypatch.setattr("repro.api.os.cpu_count", lambda: 1)
        config = FleetConfig(queries=QUERIES, seed=SEED, parallel=True, shards=2)
        fallback = run_fleet(config)
        forced = run_fleet(config.with_overrides(max_workers=2))
        assert forced.scheduler.mode == "parallel"
        assert_equivalent(fallback, forced)

    def test_threshold_is_in_simulated_seconds(self):
        assert MIN_PARALLEL_COST > 0


class TestConfigSurface:
    def test_config_round_trips_with_shards(self):
        sim = FleetSimulation(queries=QUERIES, seed=5, shards={"BigQuery": 3})
        clone = FleetSimulation(**sim.config())
        assert clone.config() == sim.config()

    def test_build_simulation_resolves_auto(self):
        sim = build_simulation(
            FleetConfig(queries=60, shards="auto", max_workers=4)
        )
        assert isinstance(sim.shards, dict)
        assert sim.shards[BIGQUERY] > 1

    def test_legacy_default_unchanged(self):
        # shards=None must remain the byte-exact legacy path.
        legacy = FleetSimulation(queries=QUERIES, seed=SEED).run()
        again = FleetSimulation(queries=QUERIES, seed=SEED, shards=None).run()
        assert not diff_snapshots(snapshot(legacy), snapshot(again))

    def test_sharded_sweep_matches_single_runs(self):
        swept = sweep_seeds([3, 5], queries=QUERIES, shards=2, max_workers=2)
        assert list(swept) == [3, 5]
        for seed, result in swept.items():
            single = FleetSimulation(queries=QUERIES, seed=seed, shards=2).run()
            assert_equivalent(single, result)
            assert result.scheduler.mode == "parallel-sweep"


class TestHarnessIntegration:
    def test_sharding_differential_pair_clean(self):
        report = DifferentialRunner(pairs=("sharding",)).run_config(
            FleetConfig(queries=QUERIES, seed=SEED)
        )
        assert report.ok, [p.to_jsonable() for p in report.failing_pairs()]

    def test_steal_order_oracle_clean(self):
        config = FleetConfig(queries=QUERIES, seed=SEED)
        base = run_fleet(config)
        verdicts = run_oracles(config, base, oracles=("steal_order",))
        assert verdicts[0].ok, verdicts[0].problems or verdicts[0].error

    def test_steal_order_oracle_catches_merge_corruption(self, monkeypatch):
        # Acceptance-style: break canonical reassembly on the parallel
        # path only (the sequential reference binds the real merge at call
        # time) and the oracle must reject the run.
        import repro.workloads.shards as shards_mod

        original = shards_mod.merge_shard_results

        def scrambled(sim, results):
            merged = original(sim, results)
            for breakdown in merged.e2e.values():
                breakdown.queries.reverse()
            return merged

        monkeypatch.setattr(
            "repro.workloads.parallel.merge_shard_results", scrambled
        )
        config = FleetConfig(queries=QUERIES, seed=SEED)
        base = run_fleet(config)
        verdicts = run_oracles(config, base, oracles=("steal_order",))
        assert not verdicts[0].ok


class TestBenchSampleDrift:
    """The sequential-vs-stealing sample drift is shard geometry, not loss.

    The 60-query, seed-0 reference run yields 15,777 samples unsharded
    and 15,649 under the ``shards="auto"`` geometry below.  The runs sit
    in different determinism classes: unsharded runs use one legacy RNG
    stream per platform, sharded ones one stream per query with sampling
    clocks re-phased at each shard boundary, so the jittered sampling
    clocks land differently.  At *fixed* geometry the executor never moves a
    sample: the stealing pool reproduces the sequential sharded run byte
    for byte.
    """

    def test_drift_is_determinism_class_and_stealing_loses_nothing(self):
        # Columnar engine for wall-clock; engine parity is pinned elsewhere.
        unsharded = run_fleet(FleetConfig(queries=60, seed=0, engine="columnar"))
        assert unsharded.profiler.sample_count() == 15_777

        # Pin the geometry instead of passing ``"auto"`` through: auto
        # resolves against the host's worker count, and sample counts move
        # by +-1 per shard boundary -- the geometry below is the
        # one-worker ``"auto"`` plan, pinned at 15,649.
        geometry = resolve_shards("auto", normalize_queries(60), workers=1)
        sharded = run_fleet(
            FleetConfig(queries=60, seed=0, engine="columnar", shards=geometry)
        )
        assert sharded.profiler.sample_count() == 15_649

        stolen = run_fleet(
            FleetConfig(
                queries=60,
                seed=0,
                engine="columnar",
                shards=geometry,
                parallel=True,
                max_workers=2,
            )
        )
        assert not diff_snapshots(snapshot(sharded), snapshot(stolen))
