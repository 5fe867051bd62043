"""Greedy config shrinking: from a failing fuzz config to a minimal repro.

Fuzzed configs carry a lot of incidental structure (fault plans on three
platforms, per-platform scrape periods, jittered counters) that usually
has nothing to do with the failure.  :func:`shrink_config` bisects that
away: it tries an ordered list of simplifications -- drop the fault
plans, turn observability off, zero out platforms, halve query counts,
reset tuning knobs to defaults -- keeping each one only if the config
*still fails*, until a fixpoint or the evaluation budget is reached.

The ``fails`` predicate is typically "any differential pair or oracle
rejects this config", so each evaluation costs several fleet runs --
hence the explicit budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.workloads.fleet import normalize_queries

__all__ = ["ShrinkResult", "shrink_config"]


@dataclass(frozen=True)
class ShrinkResult:
    """The minimal failing config found, plus what it cost to find."""

    config: Any
    evals: int
    #: True when shrinking stopped on the eval budget rather than a fixpoint.
    exhausted: bool


def _candidates(config) -> Iterator[tuple[str, Any]]:
    """Simplified variants of ``config``, biggest reductions first."""
    queries = normalize_queries(config.queries)

    if config.fault_plans:
        yield "drop all fault plans", config.with_overrides(fault_plans=None)
        if len(config.fault_plans) > 1:
            for name in config.fault_plans:
                kept = {
                    k: v for k, v in config.fault_plans.items() if k != name
                }
                yield f"drop {name} fault plan", config.with_overrides(
                    fault_plans=kept
                )
    if config.observability is not None:
        yield "observability off", config.with_overrides(observability=None)
    active = [name for name, count in queries.items() if count > 0]
    if len(active) > 1:
        for name in active:
            yield f"zero {name} queries", config.with_overrides(
                queries={**queries, name: 0}
            )
    for name, count in queries.items():
        if count > 1:
            yield f"halve {name} queries", config.with_overrides(
                queries={**queries, name: count // 2}
            )
    if config.max_workers is not None:
        yield "default max_workers", config.with_overrides(max_workers=None)
    if config.shards is not None:
        yield "unsharded", config.with_overrides(shards=None)
        if config.shards == "auto" or (
            isinstance(config.shards, int) and config.shards > 1
        ):
            yield "shards=1", config.with_overrides(shards=1)
    if config.trace_sample_rate != 1:
        yield "trace_sample_rate=1", config.with_overrides(trace_sample_rate=1)
    if config.counter_jitter != 0.0:
        yield "counter_jitter=0", config.with_overrides(counter_jitter=0.0)
    if config.bigquery_dataset_rows > 2000:
        yield "smaller BigQuery dataset", config.with_overrides(
            bigquery_dataset_rows=2000
        )


def shrink_config(
    config,
    fails: Callable[[Any], bool],
    *,
    max_evals: int = 32,
) -> ShrinkResult:
    """Greedily minimize a failing config.

    ``fails(candidate)`` must return True when the candidate still
    exhibits the failure; a predicate that *crashes* counts as failing
    (a config whose base run won't even complete is a reproducer too).
    Greedy descent restarts from the head of the candidate list after
    every accepted reduction, so the result is a local fixpoint: no
    single listed simplification preserves the failure.
    """
    evals = 0

    def still_fails(candidate) -> bool:
        nonlocal evals
        evals += 1
        try:
            return bool(fails(candidate))
        except Exception:
            return True

    exhausted = False
    shrinking = True
    while shrinking:
        shrinking = False
        for _, candidate in _candidates(config):
            if evals >= max_evals:
                exhausted = True
                break
            if still_fails(candidate):
                config = candidate
                shrinking = True
                break
        if exhausted:
            break
    return ShrinkResult(config=config, evals=evals, exhausted=exhausted)
