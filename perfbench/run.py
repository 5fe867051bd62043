"""Layer-split benchmark of the repro simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_oltp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with profiling off.
``--trace 1`` alternates plain and cProfile-traced passes and reports
per-layer self time, per-layer counts and the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``python3 perfbench/run.py --write-expected``
re-pins ``expected.json`` from the current tree; ``perfbench/selftest.py``
checks the benchmark itself at tiny sizes.

Every reported time is in reference-host time: see ``hostspeed.py``.
"""

import time

#: setup_s counts from here: before repro (or anything else) is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
#: Extra set-up measurements, each in a fresh process, per untraced run.
SETUP_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "queries_per_s": "1/s",
    "sim_s_per_s": "1",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    from layers import LAYERS

    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update(
        {
            "sim.events": "count",
            "platforms.queries": "count",
            "cluster.messages": "count",
            "cluster.partition_drops": "count",
            "storage.device_reads": "count",
            "storage.device_writes": "count",
            "storage.ram_hit_rate": "1",
            "profiling.gwp.samples": "count",
            "profiling.dapper.spans": "count",
            "profiling.dapper.traces": "count",
            "workloads.windows": "count",
            "store.write_s": "s",
            "store.read_s": "s",
            "analysis.render_s": "s",
            "trace.overhead": "x",
            "trace.coverage": "1",
        }
    )
    return units


def import_repro(root: Path) -> Path:
    """Import repro from ``<root>/src``; exit 2 when the tree is not there."""
    package = root / "src" / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro source tree at {package}; run from a checkout root")
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")
    return package.resolve()


@dataclass
class Record:
    """One op: raw wall seconds, the calibration loop before it, its check."""

    seconds: float
    calibration: float
    outcome: object
    traced: bool
    #: Raw-to-reference factor, set once the loop time after the op is known.
    scale: float = 1.0

    @property
    def reference_s(self) -> float:
        return self.seconds * self.scale


def one_pass(workload, order, records, speed, profile=None) -> None:
    """Time every op of one pass; checks, collection and calibration stay untimed."""
    from suite import Outcome

    for op in workload.passes(order):
        gc.collect()
        calibration = speed.sample()
        if profile is not None:
            profile.enable()
        began = time.perf_counter()
        try:
            result = op.run()
        except Exception as error:  # a failing op is counted, not raised
            result = error
        elapsed = time.perf_counter() - began
        if profile is not None:
            profile.disable()
        if isinstance(result, Exception):
            outcome = Outcome(ok=False, detail=f"op raised {result!r}")
        else:
            try:
                outcome = op.check(result)
            except Exception as error:
                outcome = Outcome(ok=False, detail=f"check raised {error!r}")
        del result
        records.append(Record(elapsed, calibration, outcome, profile is not None))


def measure(workload, order, seconds, speed, profile=None):
    """Whole passes until ``seconds`` of (traced, if tracing) op time.

    Tracing alternates a plain and a traced pass over the same seeds.
    Returns the records in execution order and the number of passes.
    """
    records: list[Record] = []
    passes = 0
    while sum(r.seconds for r in records if r.traced == bool(profile)) < seconds:
        one_pass(workload, order, records, speed)
        if profile is not None:
            one_pass(workload, order, records, speed, profile)
        passes += 1
    after = [r.calibration for r in records[1:]] + [speed.sample()]
    for record, following in zip(records, after):
        record.scale = REFERENCE_S / ((record.calibration + following) / 2)
    return records, passes


def end_to_end(records, setup_samples) -> dict[str, float]:
    ms = sorted(record.reference_s * 1000.0 for record in records)
    total = sum(record.reference_s for record in records)
    beyond = len(ms) - math.ceil(0.9 * len(ms))
    if beyond < 10:
        print(f"warning: only {beyond} ops beyond op_ms.p90", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "queries_per_s": sum(r.outcome.queries for r in records) / total,
        "sim_s_per_s": sum(r.outcome.sim_s for r in records) / total,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records, profile, package, days) -> dict[str, float]:
    from layers import fold

    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    ops = len(traced)
    raw_traced_s = sum(r.seconds for r in traced)
    # Self times are raw cProfile seconds; scale them as the ops were.
    scale = sum(r.scale for r in traced) / ops
    seconds = fold(profile, package)
    metrics = {f"{layer}.self_s": value * scale / ops for layer, value in seconds.items()}
    counts: dict[str, float] = {}
    for record in traced:
        for name, value in record.outcome.counts.items():
            counts[name] = counts.get(name, 0) + value
    for name in (
        "sim.events",
        "platforms.queries",
        "cluster.messages",
        "cluster.partition_drops",
        "storage.device_reads",
        "storage.device_writes",
        "profiling.gwp.samples",
        "profiling.dapper.spans",
        "profiling.dapper.traces",
    ):
        metrics[name] = counts.get(name, 0) / ops
    accesses = counts.get("storage.accesses", 0)
    metrics["storage.ram_hit_rate"] = (
        counts.get("storage.ram_hits", 0) / accesses if accesses else 0.0
    )
    metrics["workloads.windows"] = counts.get("workloads.windows", 0) / days
    for name, phase in (
        ("store.write_s", "write"),
        ("store.read_s", "read"),
        ("analysis.render_s", "render"),
    ):
        values = [r.outcome.phases[phase] * r.scale for r in plain if r.outcome.phases]
        metrics[name] = statistics.median(values) if values else 0.0
    metrics["trace.overhead"] = (
        sum(r.reference_s for r in traced) / ops
    ) / (sum(r.reference_s for r in plain) / len(plain))
    metrics["trace.coverage"] = sum(seconds.values()) / raw_traced_s
    return metrics


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes doing this run's set-up only."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--expected", str(args.expected),
        "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(args.setup_probes):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=150, check=True
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def provenance(workload, order, passes, records) -> dict:
    import numpy
    from repro.api import FleetConfig, ServeConfig

    return {
        "workload": workload.name,
        "pool_order": order,
        "passes": passes,
        # Reference seconds per raw second (1.0: the reference host's speed).
        "host_speed": statistics.median(r.scale for r in records),
        "raw_op_ms.p50": statistics.median(r.seconds * 1000.0 for r in records),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fleet_defaults": {
            "engine": FleetConfig().engine,
            "io_mode": FleetConfig().io_mode,
        },
        "serve_defaults": {"engine": ServeConfig().engine},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fleet_oltp")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--setup-probes", type=int, default=SETUP_PROBES)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="pin every workload's digests from the current tree, then exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = import_repro(Path.cwd())
    from suite import WORKLOADS

    if args.write_expected:
        pinned = {name: cls({}, tiny=args.tiny).reference() for name, cls in WORKLOADS.items()}
        args.expected.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    expected = json.loads(args.expected.read_text()).get(args.workload, {})
    workload = WORKLOADS[args.workload](expected, tiny=args.tiny)
    order = workload.order(args.seed)
    try:
        workload.setup(order)
        setup_raw = time.perf_counter() - STARTED
        speed = HostSpeed()
        setup_s = setup_raw * speed.scale()
        if args.setup_probe:
            print(setup_s)
            return 0
        profile = cProfile.Profile() if args.trace else None
        records, passes = measure(workload, order, args.seconds, speed, profile)
        if args.trace:
            metrics = per_layer(records, profile, package, passes * len(order))
            units = per_layer_units()
        else:
            metrics = end_to_end(records, [setup_s] + probe_setup(args))
            units = END_TO_END
    finally:
        workload.close()

    failures = [r.outcome.detail for r in records if not r.outcome.ok]
    for detail in failures[:5]:
        print(f"failed op: {detail}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(workload, order, passes, records)}))
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':<28} {len(failures) / len(records):>14.6g} 1"
          f"  ({len(failures)} of {len(records)} ops failed)")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
