"""Work-stealing parallel fleet runner over a persistent worker pool.

The first parallel runner sharded at *platform* granularity -- one
subprocess per platform -- and was bounded by its slowest shard: BigQuery's
three-orders-of-magnitude-longer queries made its worker the straggler
while the OLTP workers sat idle (BENCH_fleet.json recorded the resulting
0.57x "speedup" on a busy host).  This runner kills the straggler by
scheduling the query-granular sub-shards of :mod:`repro.workloads.shards`:

* :class:`StealScheduler` holds one deque of jobs per platform (canonical
  query-index order), assigns each worker a *home* platform round-robin by
  descending estimated cost, and lets a worker whose home queue drains
  steal from the costliest remaining queue.
* :class:`WorkerPool` keeps worker *processes* alive across sub-shards --
  and, via :func:`sweep_seeds`, across seeds -- so process spawn and module
  import are paid once, not per shard.
* Results are merged by
  :func:`~repro.workloads.shards.merge_shard_results` in canonical order
  regardless of completion order, so the measurements are byte-identical
  to the sequential sharded driver for any worker count and any steal
  order.  :class:`InlineWorkerPool` exists so tests can force pathological
  completion orders (LIFO, seeded-random) and assert exactly that.

With ``shards=None`` the scheduler degrades to the legacy decomposition --
one whole-platform job per platform, platform-lifetime RNG streams -- and
stays byte-identical to the classic sequential driver, preserving the
original parity contract.

Host-side facts (who ran what, wall-clock, steals, utilization) ride on
:class:`~repro.workloads.shards.SchedulerStats` at ``result.scheduler`` --
outside the measurement snapshot by design.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ConfigError
from repro.workloads.calibration import PLATFORMS
from repro.workloads.fleet import FleetResult, FleetSimulation
from repro.workloads.shards import (
    ChaosSummary,
    PlatformSummary,
    SchedulerStats,
    ShardSpec,
    SimClock,
    estimated_cost,
    merge_shard_results,
    plan_shards,
    run_shard,
)

__all__ = [
    "SimClock",
    "PlatformSummary",
    "ChaosSummary",
    "StealScheduler",
    "WorkerPool",
    "InlineWorkerPool",
    "ParallelFleetSimulation",
    "run_parallel",
    "sweep_seeds",
]

# -- scheduling ---------------------------------------------------------------


class StealScheduler:
    """Cost-aware home assignment + idle-worker stealing over job queues.

    ``jobs`` is the canonical job list as ``(key, group, spec)`` triples;
    ``group`` is the queue a job belongs to (the platform name for a fleet
    run, ``(seed, platform)`` for a sweep).  Scheduling decisions affect
    only *when and where* a job runs -- never its result -- so this class
    needs no determinism guarantees of its own; it just has them anyway
    (dict order is insertion order, ties break canonically).
    """

    def __init__(self, jobs, workers: int):
        self._queues: dict = {}
        self._cost: dict = {}
        for key, group, spec in jobs:
            self._queues.setdefault(group, deque()).append((key, spec))
            self._cost[group] = self._cost.get(group, 0.0) + estimated_cost(spec)
        by_cost = sorted(
            self._queues, key=lambda g: -self._cost[g]
        )  # stable: canonical order breaks ties
        self._home = {
            worker: by_cost[worker % len(by_cost)] if by_cost else None
            for worker in range(workers)
        }

    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _pop(self, group):
        key, spec = self._queues[group].popleft()
        self._cost[group] -= estimated_cost(spec)
        if not self._queues[group]:
            del self._queues[group]
            del self._cost[group]
        return key, spec

    def next_job(self, worker: int):
        """The next ``(key, spec, stolen)`` for ``worker``, or ``None``.

        Home queue first; otherwise steal from the queue with the most
        estimated work remaining (canonical order breaks ties).
        """
        home = self._home.get(worker)
        if home in self._queues:
            key, spec = self._pop(home)
            return key, spec, False
        if not self._queues:
            return None
        victim = max(self._queues, key=lambda g: self._cost[g])
        key, spec = self._pop(victim)
        return key, spec, True


# -- worker pools -------------------------------------------------------------


def _worker_main(worker_id: int, tasks, results, progress) -> None:
    """Worker process loop: run jobs until the ``None`` sentinel arrives."""
    while True:
        item = tasks.get()
        if item is None:
            return
        key, config, spec = item
        began = time.perf_counter()
        try:
            shard = run_shard(config, spec, progress)
            results.put((worker_id, key, shard, None, time.perf_counter() - began))
        except BaseException as exc:  # ship the failure home, keep serving
            failure = f"{type(exc).__name__}: {exc}"
            results.put((worker_id, key, None, failure, time.perf_counter() - began))


class WorkerPool:
    """Persistent worker processes with per-worker task queues.

    Workers start once and stay alive until :meth:`close`, serving any
    number of jobs -- across sub-shards, and across seeds when a sweep
    shares one pool.  Each worker has a private task queue (the scheduler
    decides placement; there is no racy shared queue to make completion
    order matter) and all workers share one result queue.
    """

    def __init__(self, max_workers: int, progress=None):
        self.max_workers = max(1, int(max_workers))
        ctx = multiprocessing.get_context()
        self._results = ctx.SimpleQueue()
        self._tasks = [ctx.SimpleQueue() for _ in range(self.max_workers)]
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(worker, self._tasks[worker], self._results, progress),
                daemon=True,
            )
            for worker in range(self.max_workers)
        ]
        for proc in self._procs:
            proc.start()

    def submit(self, worker: int, key, config: Mapping, spec: ShardSpec) -> None:
        self._tasks[worker].put((key, config, spec))

    def next_result(self):
        """Block for the next ``(worker, key, shard, failure, wall)``."""
        return self._results.get()

    def close(self) -> None:
        for queue in self._tasks:
            queue.put(None)
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InlineWorkerPool:
    """In-process :class:`WorkerPool` stand-in with forced completion order.

    Runs every job synchronously at :meth:`submit` time (jobs are pure, so
    *when* one runs cannot matter) but releases results in a chosen order
    -- ``"fifo"``, ``"lifo"``, or seeded ``"random"`` -- so tests can drive
    the coordinator through pathological steal/completion schedules and
    assert the merge is invariant.  Also handy on hosts where process
    spawn costs more than the workload.
    """

    def __init__(self, max_workers: int, *, order: str = "fifo", seed: int = 0,
                 progress=None):
        if order not in ("fifo", "lifo", "random"):
            raise ConfigError(f"unknown completion order {order!r}")
        self.max_workers = max(1, int(max_workers))
        self.order = order
        self._rng = np.random.default_rng(seed)
        self._progress = progress
        self._pending: list = []

    def submit(self, worker: int, key, config: Mapping, spec: ShardSpec) -> None:
        began = time.perf_counter()
        try:
            shard = run_shard(config, spec, self._progress)
            failure = None
        except BaseException as exc:
            shard, failure = None, f"{type(exc).__name__}: {exc}"
        self._pending.append(
            (worker, key, shard, failure, time.perf_counter() - began)
        )

    def next_result(self):
        if not self._pending:
            raise RuntimeError("no pending results")
        if self.order == "fifo":
            index = 0
        elif self.order == "lifo":
            index = len(self._pending) - 1
        else:
            index = int(self._rng.integers(len(self._pending)))
        return self._pending.pop(index)

    def close(self) -> None:
        self._pending.clear()

    def __enter__(self) -> "InlineWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- coordinator --------------------------------------------------------------


def _run_jobs(pool, scheduler: StealScheduler, jobs, stats: SchedulerStats):
    """Drive jobs through the pool until done; return ``{key: ShardResult}``.

    Event loop shape: prime every worker with one job, then hand each
    worker its next job (home first, steal otherwise) the moment it
    reports a result.  Completion order is whatever the pool delivers --
    correctness never depends on it.
    """
    configs = {key: config for key, config, _spec in jobs}
    specs = {key: spec for key, _config, spec in jobs}

    def dispatch(worker: int) -> bool:
        job = scheduler.next_job(worker)
        if job is None:
            return False
        key, spec, stolen = job
        pool.submit(worker, key, configs[key], spec)
        if stolen:
            stats.record_steal(worker)
        return True

    inflight = 0
    for worker in range(pool.max_workers):
        if dispatch(worker):
            inflight += 1
    results = {}
    while inflight:
        worker, key, shard, failure, wall = pool.next_result()
        inflight -= 1
        stats.record(worker, specs[key], wall)
        if failure is not None:
            raise RuntimeError(
                f"shard {specs[key].label} failed in worker {worker}: {failure}"
            )
        results[key] = shard
        if dispatch(worker):
            inflight += 1
    return results


def run_parallel(
    sim: FleetSimulation,
    *,
    max_workers: int | None = None,
    progress=None,
    pool=None,
) -> FleetResult:
    """Run a fleet simulation across a work-stealing worker pool.

    ``progress`` (optional) is a picklable queue proxy -- e.g. a
    ``multiprocessing.Manager().Queue()`` -- that each shard's observer
    pushes ``(platform, sim_time, queries_served, gwp_samples)`` rows into,
    the live channel behind ``repro top --parallel``.  ``pool`` (optional)
    substitutes a ready pool -- e.g. :class:`InlineWorkerPool` with a
    forced completion order -- in which case ``max_workers`` is ignored.
    """
    config = sim.config()
    progress = progress if progress is not None else sim.progress_sink
    specs = plan_shards(sim.queries, sim.shards)
    jobs = [((spec.platform, spec.ordinal), config, spec) for spec in specs]
    if pool is None:
        if max_workers is None:
            workers = (
                len(PLATFORMS)
                if sim.shards is None
                else min(multiprocessing.cpu_count(), len(specs))
            )
        else:
            workers = max_workers
        pool = WorkerPool(max(1, workers), progress=progress)
        owns_pool = True
    else:
        owns_pool = False
    stats = SchedulerStats(
        mode="parallel" if sim.shards is not None else "parallel-platform",
        shard_count=len(specs),
        worker_count=pool.max_workers,
    )
    scheduler = StealScheduler(
        [(key, spec.platform, spec) for key, _config, spec in jobs],
        pool.max_workers,
    )
    try:
        by_key = _run_jobs(pool, scheduler, jobs, stats)
    finally:
        if owns_pool:
            pool.close()
    result = merge_shard_results(sim, [by_key[key] for key, _c, _s in jobs])
    result.scheduler = stats
    return result


class ParallelFleetSimulation(FleetSimulation):
    """Drop-in :class:`FleetSimulation` whose :meth:`run` fans out.

    Accepts the same configuration (including ``shards``); ``max_workers``
    bounds the worker pool (default: one per platform for the legacy
    decomposition, one per CPU capped at the job count when sharded).
    """

    def __init__(self, *, max_workers: int | None = None, **kwargs):
        super().__init__(**kwargs)
        self.max_workers = max_workers

    def run(self) -> FleetResult:
        return run_parallel(self, max_workers=self.max_workers)


def sweep_seeds(
    seeds: Iterable[int],
    *,
    max_workers: int | None = None,
    **kwargs,
) -> dict[int, FleetResult]:
    """Run one fleet simulation per seed, sharing a single worker pool.

    All seeds' shard jobs are scheduled together over one persistent pool
    -- per-``(seed, platform)`` queues, same home/steal policy -- so a
    multi-seed study saturates the workers instead of running seeds back
    to back, and pays process spawn once for the whole sweep.  ``kwargs``
    are forwarded to :class:`FleetSimulation` (minus ``seed``), so
    ``shards=...`` selects query-granular sweeps.  Returns
    ``{seed: FleetResult}`` in input order.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("no seeds to sweep (empty seed list)")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds in sweep")
    sims = {seed: FleetSimulation(seed=seed, **kwargs) for seed in seeds}
    jobs = []
    for seed, sim in sims.items():
        config = sim.config()
        for spec in plan_shards(sim.queries, sim.shards):
            jobs.append(((seed, spec.platform, spec.ordinal), config, spec))
    workers = max_workers or min(8, max(1, len(jobs)))
    stats = SchedulerStats(
        mode="parallel-sweep", shard_count=len(jobs), worker_count=workers
    )
    scheduler = StealScheduler(
        [(key, key[:2], spec) for key, _config, spec in jobs], workers
    )
    with WorkerPool(workers) as pool:
        by_key = _run_jobs(pool, scheduler, jobs, stats)
    results = {}
    for seed, sim in sims.items():
        shards = [
            by_key[key] for key, _config, _spec in jobs if key[0] == seed
        ]
        results[seed] = merge_shard_results(sim, shards)
        results[seed].scheduler = stats
    return results
