"""The CI perf gate's verdict rule, on synthetic perfbench result lines.

``tools/perf_gate.py`` compares the parent tree's perfbench runs with the
change's.  These tests feed its verdict function hand-made result lines --
no subprocess, no benchmark run -- with the bounds from BENCHMARK.json.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_gate", ROOT / "tools" / "perf_gate.py")
perf_gate = sys.modules["perf_gate"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BASE = {
    "setup_s": 1.0,
    "op_ms.p50": 100.0,
    "op_ms.p90": 120.0,
    "queries_per_s": 100.0,
    "sim_s_per_s": 10.0,
    "peak_rss_mib": 200.0,
}
#: Per-run factors of a steady parent: a 2 % spread, well inside every bound.
TIGHT = (0.99, 1.0, 1.01)


def result_line(scale=1.0, *, failed=0, **overrides):
    values = {name: value * scale for name, value in BASE.items()}
    values.update(overrides)
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": ""} for name, value in values.items()},
    }


def verdicts(parent, change):
    rows = perf_gate.verdict(METRICS, {"fleet_olap": parent}, {"fleet_olap": change})
    assert all(row.workload == "fleet_olap" for row in rows)
    return {row.metric: row.verdict for row in rows}


def steady_parent(**per_run):
    """Three tight parent runs; ``per_run`` gives a metric's three values."""
    runs = [result_line(f) for f in TIGHT]
    for name, values in per_run.items():
        for run, value in zip(runs, values):
            run["metrics"][name]["value"] = value
    return runs


def test_every_metric_and_the_failed_share_get_a_row():
    got = verdicts(steady_parent(), [result_line(f) for f in TIGHT])
    assert set(got) == {m["name"] for m in METRICS} | {"failed_share"}
    assert set(got.values()) == {"ok"}


def test_thirty_percent_throughput_drop_fails():
    got = verdicts(steady_parent(), [result_line(f, queries_per_s=70.0 * f) for f in TIGHT])
    assert got["queries_per_s"] == "FAIL"
    assert [name for name, v in got.items() if v == "FAIL"] == ["queries_per_s"]


def test_ten_percent_throughput_drop_passes():
    got = verdicts(steady_parent(), [result_line(f, queries_per_s=90.0 * f) for f in TIGHT])
    assert set(got.values()) == {"ok"}


def test_latency_rise_past_its_bound_fails():
    # op_ms.p50 is lower-is-better: a rise is the regression.
    got = verdicts(steady_parent(), [result_line(f, **{"op_ms.p50": 125.0 * f}) for f in TIGHT])
    assert got["op_ms.p50"] == "FAIL"
    # The same move downwards is a gain.
    got = verdicts(steady_parent(), [result_line(f, **{"op_ms.p50": 75.0 * f}) for f in TIGHT])
    assert got["op_ms.p50"] == "ok"


@pytest.mark.parametrize("drop, expected", [(0.3, "unresolved"), (0.6, "FAIL")])
def test_noisy_parent(drop, expected):
    # Parent spread (140 - 60) / 100 = 80 %, far past the 20 % bound: a 30 %
    # drop cannot be told from noise, but a collapse past 50 % still fails.
    parent = steady_parent(queries_per_s=(60.0, 100.0, 140.0))
    change = [result_line(f, queries_per_s=100.0 * (1 - drop) * f) for f in TIGHT]
    assert verdicts(parent, change)["queries_per_s"] == expected


def test_higher_failed_share_fails():
    got = verdicts(steady_parent(), [result_line(f, failed=1) for f in TIGHT])
    assert got["failed_share"] == "FAIL"
    assert [name for name, v in got.items() if v == "FAIL"] == ["failed_share"]


def test_render_names_workload_metric_and_verdict():
    rows = perf_gate.verdict(
        METRICS,
        {"serve_flash": steady_parent()},
        {"serve_flash": [result_line(f, queries_per_s=70.0) for f in TIGHT]},
    )
    failing = [line for line in perf_gate.render(rows).splitlines() if line.endswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].split()[:2] == ["serve_flash", "queries_per_s"]
