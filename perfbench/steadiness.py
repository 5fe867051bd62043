"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and reports, per
metric, the median of the runs and the distance between their first and
third quartiles as a share of that median -- the figure each metric's
``bound`` in BENCHMARK.json is set against.  Run from the checkout root::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            began = time.perf_counter()
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ],
                capture_output=True, text=True, timeout=180, check=True,
            )
            walls.append(time.perf_counter() - began)
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {
            name: {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds[name],
                "values": series,
            }
            for name, series in values.items()
        }
        report["workloads"][workload] = {
            "max_wall_s": max(walls), "metrics": rows,
        }
        for name, row in rows.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- above bound/3"
            print(
                f"{workload:<16} {name:<14} median {row['median']:>12.5g}"
                f"  spread {row['spread']:.4f}  bound {row['bound']}{flag}"
            )
        print(f"{workload:<16} slowest run {max(walls):.1f} s", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
