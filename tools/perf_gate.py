"""Perf gate: perfbench on the parent tree against the change, in pairs.

For every workload in ``BENCHMARK.json``, runs each tree's own
``perfbench/run.py --trace 0`` in :data:`PAIRS` parent/change pairs.  Both
sides of a pair get the same seed, and the side that runs first alternates
from pair to pair.  The gate fails when, on any workload:

* an end-to-end metric's change median is worse than the parent's by more
  than that metric's ``bound``, and the parent's own spread
  (``perfbench/steadiness.spread``) is within the bound.  A wider spread
  prints ``unresolved`` and does not fail;
* ``queries_per_s`` drops by more than :data:`COLLAPSE`, whatever the
  spread;
* the change fails a larger share of ops than the parent.

Standard library only.  Run from the change's checkout, with the parent
checked out beside it::

    git worktree add --detach ../parent HEAD^
    python3 tools/perf_gate.py --base ../parent --head .

Every run's result line is printed as one JSON object when it lands, then
the verdict table.  Exits 1 when a check fails or a run breaks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from steadiness import spread  # noqa: E402

#: Parent/change pairs per workload; pair ``i`` runs perfbench seed ``i + 1``.
PAIRS = 3
#: Timed seconds per perfbench run.
RUN_SECONDS = 6
#: A ``queries_per_s`` drop past this share fails whatever the spread: the
#: tolerance of the single-run gate this one replaced.
COLLAPSE = 0.5


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    parent: float
    change: float
    #: How much worse the change is, as a share of the parent (negative:
    #: better); for the failed-op share, the difference of the two shares.
    worse: float
    #: The parent's own run-to-run spread (None for the failed-op share).
    spread: float | None
    bound: float | None
    verdict: str  # "ok", "unresolved" or "FAIL"


def verdict(metrics: list[dict], parent: dict, change: dict) -> list[Row]:
    """Judge the change's runs against the parent's, workload by workload.

    ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list; ``parent`` and
    ``change`` map each workload to its runs' result lines, the last line
    ``perfbench/run.py`` prints.
    """
    rows = []
    for workload, base_runs in parent.items():
        head_runs = change[workload]
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            base = [run["metrics"][name]["value"] for run in base_runs]
            head = [run["metrics"][name]["value"] for run in head_runs]
            base_median, head_median = statistics.median(base), statistics.median(head)
            loss = head_median - base_median
            worse = (loss if metric["better"] == "lower" else -loss) / base_median
            noise = spread(base)
            if name == "queries_per_s" and worse > COLLAPSE:
                status = "FAIL"
            elif noise > bound:
                status = "unresolved"
            else:
                status = "FAIL" if worse > bound else "ok"
            rows.append(Row(workload, name, base_median, head_median, worse, noise, bound, status))
        base_share, head_share = (
            sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
            for runs in (base_runs, head_runs)
        )
        rows.append(
            Row(
                workload, "failed_share", base_share, head_share,
                head_share - base_share, None, None,
                "FAIL" if head_share > base_share else "ok",
            )
        )
    return rows


def render(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12}"
        f" {'worse':>8} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        spread_text = "" if row.spread is None else f"{row.spread:.1%}"
        bound_text = "" if row.bound is None else f"{row.bound:.0%}"
        lines.append(
            f"{row.workload:<16} {row.metric:<14} {row.parent:>12.5g} {row.change:>12.5g}"
            f" {row.worse:>+8.1%} {spread_text:>7} {bound_text:>6}  {row.verdict}"
        )
    return "\n".join(lines)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run of ``tree``'s own benchmark; its result line."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"perf gate: {workload} seed {seed} broke in {tree}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--head", type=Path, required=True, help="change checkout")
    args = parser.parse_args(argv)
    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    began = time.perf_counter()
    results: dict[str, dict[str, list[dict]]] = {"base": {}, "head": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for pair in range(PAIRS):
            sides = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in sides:
                result = run_once(getattr(args, side), workload, pair + 1)
                results[side].setdefault(workload, []).append(result)
                line = {"tree": side, "workload": workload, "seed": pair + 1, "result": result}
                print(json.dumps(line), flush=True)
    rows = verdict(spec["end_to_end"], results["base"], results["head"])
    print(render(rows))
    failed = [row for row in rows if row.verdict == "FAIL"]
    for row in failed:
        print(f"perf gate: FAIL {row.workload} {row.metric} ({row.worse:+.1%} worse)")
    print(f"perf gate: {len(failed)} failed, wall {time.perf_counter() - began:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
