"""Self-test of the benchmark at tiny sizes.

For every workload it checks that an untraced and a traced run print every
metric BENCHMARK.json names, with its unit, and no failed op; that a
deliberately wrong expected digest surfaces as failed ops and a non-zero
``error_rate``; and that the benchmark refuses to run, printing no result,
in a directory holding only BENCHMARK.json and the benchmark's files.
Run from the checkout root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = Path.cwd() / ".perfbench_tmp" / "selftest"


def run(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1
    return result


def error_rate(done: subprocess.CompletedProcess) -> float:
    line = next(l for l in done.stdout.splitlines() if l.startswith("error_rate"))
    return float(line.split()[1])


def check_metrics(result: dict, declared: list[dict], positive: bool) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"metrics/units differ: {got} != {units}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if positive:
            assert metric["value"] > 0, f"{name} is {metric['value']}"


def corrupted(expected: dict, workload: str) -> dict:
    broken = json.loads(json.dumps(expected))
    pinned = broken[workload]
    seed = sorted(pinned)[0]
    if isinstance(pinned[seed], list):
        pinned[seed][0] = "0" * 64
    else:
        pinned[seed] = "0" * 64
    return broken


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        pinned = SCRATCH / "expected.json"
        broken_path = SCRATCH / "broken.json"
        done = run("--tiny", "--write-expected", "--expected", str(pinned))
        assert done.returncode == 0, done.stderr
        expected = json.loads(pinned.read_text())
        tiny = ["--tiny", "--seconds", "0.3", "--seed", "7", "--setup-probes", "1"]
        for workload in (w["name"] for w in spec["workloads"]):
            base = [*tiny, "--workload", workload]
            plain = run(*base, "--expected", str(pinned), "--trace", "0")
            result = result_of(plain)
            assert result["correct"] and result["failed"] == 0, plain.stderr
            assert error_rate(plain) == 0.0
            check_metrics(result, spec["end_to_end"], positive=True)

            traced = result_of(run(*base, "--expected", str(pinned), "--trace", "1"))
            assert traced["correct"], traced
            check_metrics(traced, spec["per_layer"], positive=False)
            coverage = traced["metrics"]["trace.coverage"]["value"]
            assert 0.9 < coverage < 1.05, f"self time covers {coverage:.3f} of traced wall"

            broken_path.write_text(json.dumps(corrupted(expected, workload)))
            wrong = run(*base, "--expected", str(broken_path), "--trace", "0")
            result = result_of(wrong)
            assert not result["correct"] and result["failed"] > 0, result
            assert error_rate(wrong) > 0
            print(f"ok  {workload}: metrics, units, trace coverage {coverage:.3f}, "
                  f"wrong digest -> {result['failed']}/{result['attempted']} failed")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        command = spec["command"][1:]
        done = subprocess.run(
            [sys.executable, *command, "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
        assert done.returncode != 0 and '"metrics"' not in done.stdout, done
        print("ok  bare directory: exit", done.returncode, "and no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
