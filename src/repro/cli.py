"""Command-line interface: regenerate any paper table or figure.

Usage::

    repro fleet [--queries N] [--seed S] [--parallel] [--shards N|auto]
                                                # Tables 1, 6, 7 + Figures 2-6
    repro top [--queries N] [--parallel]        # live-ish summary of an observed run
    repro top --follow [--duration S]           # stream service-mode windows
    repro serve [--arrival diurnal] [--rate R]  # open-loop service, rolling windows
    repro export --format prom|folded|jsonl     # exporters over an observed run
    repro validate [--batch N]                  # Table 8 on the simulated SoC
    repro model [--figure 9|10|13|14|15]        # the Section 6 model figures
    repro sweep --platform Spanner [--speedup 8]  # one platform's design points
    repro report [--out report.md]              # the full markdown report
    repro selftest [--budget N] [--seed S]      # differential verification harness
    repro store ingest|runs|query|tables|regress PATH ...
                                                # persistent profile store

Every fleet run goes through :func:`repro.api.run_fleet` (service runs
through :func:`repro.api.run_service`); this module is argument parsing
and presentation only.  The config axes ``--engine``, ``--shards``,
``--workers`` and ``--seed`` are accepted uniformly across the run verbs
and validated through the typed :mod:`repro.errors` taxonomy -- a bad
value prints one ``ConfigError`` line and exits 2, never an argparse
traceback.  Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import (
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
    figure9_data,
    figure10_data,
    figure13_data,
    figure14_data,
    figure15_data,
    render_comparisons,
    table1_data,
    table6_data,
    table7_data,
    table8_data,
)
from repro.errors import ConfigError
from repro.platforms.common import ENGINES

__all__ = ["main", "build_parser"]

_MODEL_FIGURES = {
    "9": figure9_data,
    "10": figure10_data,
    "13": figure13_data,
    "14": figure14_data,
    "15": figure15_data,
}


# -- config-axis parsing ------------------------------------------------------
#
# The shared axes are declared as plain strings and validated here instead
# of through argparse ``type=`` callables: argparse converts any ValueError
# (including the typed ConfigError taxonomy) into its own usage error, and
# the contract is that a bad axis value surfaces as a ConfigError uniformly
# whether it came from the CLI, a mapping, or a config object.


def _axis_int(name: str, value, *, minimum: int | None = None):
    """Validate an integer axis value (``None`` passes through)."""
    if value is None:
        return None
    if not isinstance(value, int):
        try:
            value = int(value)
        except ValueError:
            raise ConfigError(
                f"--{name} expects an integer, got {value!r}"
            ) from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"--{name} must be >= {minimum}, got {value}")
    return value


def _axis_shards(value):
    """Validate ``--shards``: a positive int or the literal ``auto``."""
    if value is None or value == "auto":
        return value
    return _axis_int("shards", value, minimum=1)


def _axis_engine(value):
    if value is None:
        return None
    if value not in ENGINES:
        raise ConfigError(
            f"--engine must be one of {list(ENGINES)}, got {value!r}"
        )
    return value


def _resolve_axes(args: argparse.Namespace) -> dict:
    """The shared config axes, validated, as config-field kwargs.

    Maps 1:1 onto :class:`repro.api.FleetConfig` /
    :class:`repro.api.ServeConfig` fields: ``--seed`` -> ``seed``,
    ``--engine`` -> ``engine``, ``--shards`` -> ``shards``, ``--workers``
    -> ``max_workers``.  Only axes the verb declared appear in the result.
    """
    axes: dict = {}
    if hasattr(args, "seed"):
        axes["seed"] = _axis_int("seed", args.seed)
    if hasattr(args, "engine"):
        axes["engine"] = _axis_engine(args.engine)
    if hasattr(args, "shards"):
        axes["shards"] = _axis_shards(args.shards)
    if hasattr(args, "workers"):
        axes["max_workers"] = _axis_int("workers", args.workers, minimum=1)
    return axes


def _add_axis_flags(
    command: argparse.ArgumentParser,
    *,
    scheduler: bool = True,
    engine_default: str | None = "heap",
) -> None:
    """Declare the shared config axes (validated by :func:`_resolve_axes`)."""
    if scheduler:
        command.add_argument(
            "--shards",
            default=None,
            metavar="N|auto",
            help="split each platform's query stream into N deterministic "
            "sub-shards (same measurements for any worker count); 'auto' "
            "sizes shards from the per-platform cost model and the CPU count",
        )
        command.add_argument(
            "--workers",
            default=None,
            metavar="N",
            help="worker process count for --parallel (also disables the "
            "small-host auto-fallback)",
        )
    command.add_argument(
        "--engine",
        default=engine_default,
        metavar="|".join(ENGINES),
        help="discrete-event engine for the simulation inner loop: the "
        "reference binary heap, or the batched columnar calendar queue "
        "(byte-identical measurements, lower wall-clock)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Profiling Hyperscale Big Data Processing' (ISCA'23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fleet = sub.add_parser(
        "fleet", help="run the fleet simulation and print the measurement tables"
    )
    fleet.add_argument("--queries", type=int, default=150, help="queries per database")
    fleet.add_argument("--seed", default=42)
    fleet.add_argument(
        "--compare", action="store_true", help="also print paper-vs-measured rows"
    )
    fleet.add_argument(
        "--parallel",
        action="store_true",
        help="run the fleet across work-stealing worker processes "
        "(identical results, lower wall-clock; auto-falls back to "
        "sequential on small hosts/workloads)",
    )
    _add_axis_flags(fleet)

    top = sub.add_parser(
        "top",
        help="run an observed fleet, streaming scrape rows and printing a "
        "top-style summary at the end",
    )
    top.add_argument("--queries", type=int, default=150, help="queries per database")
    top.add_argument("--seed", default=42)
    top.add_argument(
        "--parallel",
        action="store_true",
        help="fan platforms out to worker processes; live rows arrive over "
        "the worker merge channel",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="minimum wall-clock seconds between printed rows per platform",
    )
    top.add_argument(
        "--follow",
        action="store_true",
        help="stream service-mode rolling windows instead of a batch run "
        "(open-loop traffic on the sim clock; one row per window)",
    )
    top.add_argument(
        "--duration",
        type=float,
        default=600.0,
        help="--follow: simulated seconds of traffic",
    )
    top.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="--follow: window width in simulated seconds",
    )
    top.add_argument(
        "--arrival",
        default="diurnal",
        metavar="poisson|diurnal|flash",
        help="--follow: arrival-rate curve",
    )
    top.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="--follow: mean arrivals per simulated second, fleet-wide",
    )
    _add_axis_flags(top)

    export = sub.add_parser(
        "export",
        help="run an observed fleet and export metrics, stacks, or traces",
    )
    export.add_argument(
        "--format",
        required=True,
        help="prom: Prometheus text; folded: flamegraph stacks; "
        "jsonl: Dapper trace search",
    )
    export.add_argument(
        "--queries", type=int, default=6, help="queries per OLTP platform"
    )
    export.add_argument(
        "--bigquery-queries",
        type=int,
        default=3,
        help="queries for BigQuery (its queries run ~1000x longer)",
    )
    export.add_argument("--seed", default=0)
    export.add_argument(
        "--parallel",
        action="store_true",
        help="parallel workers (ignored for jsonl: span trees do not cross "
        "the process boundary)",
    )
    _add_axis_flags(export)
    export.add_argument(
        "--out", default="-", help="output path, or '-' for stdout (default)"
    )
    export.add_argument(
        "--platform", default=None, help="folded: only this platform's stacks"
    )
    export.add_argument(
        "--weight",
        choices=("cycles", "samples"),
        default="cycles",
        help="folded: stack weights",
    )
    export.add_argument(
        "--name-contains", default=None, help="jsonl: trace name substring filter"
    )
    export.add_argument(
        "--min-duration", type=float, default=None, help="jsonl: duration floor"
    )
    export.add_argument(
        "--errors-only", action="store_true", help="jsonl: failed traces only"
    )

    serve = sub.add_parser(
        "serve",
        help="run the fleet open-loop under an arrival curve, emitting one "
        "rolling-window snapshot per window (bounded memory, any duration)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=14400.0,
        help="simulated seconds of traffic (drain windows run after)",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="window width in simulated seconds",
    )
    serve.add_argument(
        "--rolling-windows",
        type=int,
        default=5,
        help="trailing windows merged into the rolling latency quantiles",
    )
    serve.add_argument(
        "--arrival",
        default="diurnal",
        metavar="poisson|diurnal|flash",
        help="arrival-rate curve",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="mean arrivals per simulated second, fleet-wide",
    )
    serve.add_argument("--seed", default=0)
    serve.add_argument(
        "--agents",
        type=int,
        default=16,
        help="simulated profiling-agent hosts reporting heartbeats",
    )
    serve.add_argument(
        "--heartbeat-period",
        type=float,
        default=0.25,
        help="seconds between one agent's heartbeats (sub-second default)",
    )
    serve.add_argument(
        "--diurnal-period",
        type=float,
        default=86400.0,
        help="diurnal/flash: sinusoid period in simulated seconds",
    )
    serve.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.6,
        help="diurnal/flash: sinusoid amplitude in [0, 1)",
    )
    serve.add_argument(
        "--flash-start",
        type=float,
        default=None,
        help="flash: surge start (default: half the duration)",
    )
    serve.add_argument(
        "--flash-duration",
        type=float,
        default=None,
        help="flash: surge length (default: a tenth of the duration)",
    )
    serve.add_argument(
        "--flash-magnitude",
        type=float,
        default=4.0,
        help="flash: rate multiplier during the surge",
    )
    serve.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also stream window snapshots as JSON lines ('-' for stdout)",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the human-readable window rows",
    )
    _add_axis_flags(serve)

    validate = sub.add_parser("validate", help="reproduce Table 8 on the SoC model")
    validate.add_argument("--batch", type=int, default=100, help="messages per batch")
    validate.add_argument("--seed", default=0)

    model = sub.add_parser("model", help="print a Section 6 model figure")
    model.add_argument(
        "--figure", choices=sorted(_MODEL_FIGURES), default="9", help="figure number"
    )
    model.add_argument(
        "--compare", action="store_true", help="also print paper-vs-measured rows"
    )

    sweep = sub.add_parser("sweep", help="design points for one platform")
    sweep.add_argument(
        "--platform", choices=("Spanner", "BigTable", "BigQuery"), default="Spanner"
    )
    sweep.add_argument("--speedup", type=float, default=8.0)
    sweep.add_argument(
        "--out", default="-", help="output path, or '-' for stdout (default)"
    )

    report = sub.add_parser(
        "report", help="run everything and write a markdown reproduction report"
    )
    report.add_argument(
        "--out",
        default="reproduction_report.md",
        help="output path, or '-' for stdout",
    )
    report.add_argument("--queries", type=int, default=150)
    report.add_argument("--seed", default=42)

    selftest = sub.add_parser(
        "selftest",
        help="fuzz fleet configs and differentially verify every execution "
        "mode pair plus the metamorphic oracles",
    )
    selftest.add_argument(
        "--budget", type=int, default=25, help="number of fuzzed configs to run"
    )
    selftest.add_argument("--seed", default=0, help="fuzzer seed")
    # Axis pins: fix one config axis across every fuzzed config (the fuzzer
    # still draws the rest).  No default pin for --engine here -- the engine
    # differential pair needs both engines free to flip.
    _add_axis_flags(selftest, engine_default=None)
    selftest.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also stream verdict records to this JSONL file ('-' for stdout)",
    )
    selftest.add_argument(
        "--no-shrink",
        action="store_true",
        help="on failure, skip shrinking the config to a minimal reproducer",
    )
    selftest.add_argument(
        "--start", type=int, default=0, help="first fuzz index (resume a range)"
    )

    store = sub.add_parser(
        "store",
        help="persistent profile store: ingest runs, list history, slice "
        "stored measurements, regenerate tables, gate regressions",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    ingest = store_sub.add_parser(
        "ingest", help="run a workload and persist it into a store"
    )
    ingest.add_argument("path", help="sqlite store path (created if missing)")
    ingest.add_argument(
        "--queries", type=int, default=40, help="queries per database"
    )
    ingest.add_argument("--seed", default=42)
    ingest.add_argument(
        "--observe",
        action="store_true",
        help="run observed so the Prometheus export and scrape series are "
        "stored alongside the measurements",
    )
    _add_axis_flags(ingest)
    ingest.add_argument(
        "--serve",
        default=None,
        metavar="SECONDS",
        help="ingest an open-loop service run of this sim duration instead "
        "of a batch fleet (window snapshots stored verbatim)",
    )
    ingest.add_argument(
        "--window", default=None, metavar="SECONDS", help="serve window size"
    )
    ingest.add_argument(
        "--rate", default=None, metavar="QPS", help="serve arrival rate"
    )
    ingest.add_argument(
        "--arrival", default=None, help="serve arrival process (e.g. poisson)"
    )
    ingest.add_argument(
        "--label", default=None, help="free-form label stored with the run"
    )

    runs = store_sub.add_parser("runs", help="list stored runs, oldest first")
    runs.add_argument("path", help="existing sqlite store path")
    runs.add_argument("--kind", default=None, help="filter by run kind")

    query = store_sub.add_parser(
        "query", help="typed slices of one stored run"
    )
    query.add_argument("path", help="existing sqlite store path")
    query.add_argument(
        "what",
        help="one of: samples, cycles, top, windows, prom "
        "(validated, not argparse choices -- bad values exit 2 with one line)",
    )
    query.add_argument(
        "--run", default=None, metavar="ID", help="run id (default: newest)"
    )
    query.add_argument("--platform", default=None, help="platform filter")
    query.add_argument(
        "--limit", default=10, metavar="N", help="row limit for samples/top"
    )
    query.add_argument(
        "--out", default="-", help="output path, or '-' for stdout (default)"
    )

    tables = store_sub.add_parser(
        "tables",
        help="regenerate the paper tables from a stored run "
        "(byte-identical to the in-memory rendering)",
    )
    tables.add_argument("path", help="existing sqlite store path")
    tables.add_argument(
        "--run", default=None, metavar="ID", help="fleet run id (default: newest)"
    )
    tables.add_argument(
        "--validation-run",
        default=None,
        metavar="ID",
        help="validate-run id for Table 8 (default: newest, when stored)",
    )
    tables.add_argument(
        "--figures",
        action="store_true",
        help="also append the Figure 2-6 data series",
    )
    tables.add_argument(
        "--out", default="-", help="output path, or '-' for stdout (default)"
    )

    regress = store_sub.add_parser(
        "regress",
        help="tolerance-band regression check of the newest run against "
        "its predecessor (exit 1 on regression)",
    )
    regress.add_argument("path", help="existing sqlite store path")
    regress.add_argument(
        "--metric",
        default="samples",
        help="fleet metric: samples, cycles, cpu_seconds, queries",
    )
    regress.add_argument(
        "--tolerance",
        default=None,
        metavar="FRAC",
        help="relative band (default 0)",
    )
    regress.add_argument(
        "--run", default=None, metavar="ID", help="target run (default: newest)"
    )
    regress.add_argument(
        "--baseline",
        default=None,
        metavar="ID",
        help="baseline run (default: the run before the target)",
    )
    return parser


def _print(table, comparisons, compare: bool) -> None:
    print(table.render())
    if compare:
        print()
        print(render_comparisons(comparisons, title="paper vs measured"))
    print()


def _fleet_queries(args: argparse.Namespace) -> dict[str, int]:
    bigquery = getattr(args, "bigquery_queries", None)
    if bigquery is None:
        # An explicitly empty fleet stays empty (``--queries 0``).
        bigquery = max(10, args.queries // 6) if args.queries else 0
    return {
        "Spanner": args.queries,
        "BigTable": args.queries,
        "BigQuery": bigquery,
    }


def _write_out(text: str, out: str) -> None:
    """Write to a path, or to stdout when ``out`` is ``-``."""
    if out == "-":
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)
        print(f"wrote {out}")


def _print_scheduler(result) -> None:
    stats = getattr(result, "scheduler", None)
    if stats is None:
        return
    line = (
        f"scheduler: {stats.mode} ({stats.shard_count} shards, "
        f"{stats.worker_count} workers, {stats.steal_count()} steals)"
    )
    if stats.reason:
        line += f" -- {stats.reason}"
    print(line)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro import api

    axes = _resolve_axes(args)
    queries = _fleet_queries(args)
    print(f"simulating fleet: {queries} queries, seed {axes['seed']} ...\n")
    result = api.run_fleet(
        api.FleetConfig(queries=queries, parallel=args.parallel, **axes)
    )
    _print_scheduler(result)
    for regenerate in (
        table1_data,
        figure2_data,
        figure3_data,
        figure4_data,
        figure5_data,
        figure6_data,
        table6_data,
        table7_data,
    ):
        table, comparisons = regenerate(result)
        _print(table, comparisons, args.compare)
    return 0


class _ThrottledPrinter:
    """Prints per-platform scrape rows at most once per interval."""

    def __init__(self, interval: float):
        self._interval = interval
        self._last: dict[str, float] = {}

    def put(self, row) -> None:
        import time

        name, sim_now, served, samples = row
        now = time.monotonic()
        if now - self._last.get(name, float("-inf")) < self._interval:
            return
        self._last[name] = now
        print(
            f"  {name:<10} t={sim_now:>10.4f}s  served={served:<6d} "
            f"gwp_samples={samples}",
            flush=True,
        )


def _cmd_top(args: argparse.Namespace) -> int:
    from repro import api

    axes = _resolve_axes(args)
    if args.follow:
        return _follow_service(args, axes)
    queries = _fleet_queries(args)
    config = api.FleetConfig(
        queries=queries,
        parallel=args.parallel,
        observability=True,
        **axes,
    )
    print(f"observing fleet: {queries} queries, seed {axes['seed']} ...")
    printer = _ThrottledPrinter(args.interval)
    if args.parallel:
        import multiprocessing
        import queue as queue_mod
        import threading

        manager = multiprocessing.Manager()
        channel = manager.Queue()
        stop = threading.Event()

        def drain() -> None:
            while not stop.is_set():
                try:
                    printer.put(channel.get(timeout=0.2))
                except (queue_mod.Empty, EOFError, OSError):
                    continue

        drainer = threading.Thread(target=drain, daemon=True)
        drainer.start()
        try:
            result = api.run_fleet(config, progress=channel)
        finally:
            stop.set()
            drainer.join(timeout=2.0)
            manager.shutdown()
    else:
        result = api.run_fleet(config, progress=printer)

    telemetry = api.Telemetry(result)
    print()
    header = (
        f"{'platform':<10} {'queries':>8} {'sim_s':>10} {'qps':>10} "
        f"{'p50_ms':>9} {'p90_ms':>9} {'p99_ms':>9} {'samples':>9}"
    )
    print(header)
    for name, platform in result.platforms.items():
        served = platform.queries_served
        horizon = platform.env.now
        qps = served / horizon if horizon > 0 else 0.0
        quantiles = [
            telemetry.quantile("repro_query_latency_seconds", q, platform=name) * 1e3
            for q in (0.5, 0.9, 0.99)
        ]
        print(
            f"{name:<10} {served:>8d} {horizon:>10.4f} {qps:>10.1f} "
            f"{quantiles[0]:>9.3f} {quantiles[1]:>9.3f} {quantiles[2]:>9.3f} "
            f"{result.profiler.sample_count(name):>9d}"
        )
    hottest: dict[str, float] = {}
    for line in api.Profile(result).folded().splitlines():
        stack, _, weight = line.rpartition(" ")
        function = stack.rsplit(";", 1)[-1]
        hottest[function] = hottest.get(function, 0.0) + float(weight)
    print("\nhottest functions (sampled cycles):")
    for function, cycles in sorted(hottest.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {function:<28} {cycles:>14.0f}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro import api

    # Validate the format before paying for a fleet run (UnknownFormatError
    # propagates to main(), which prints it and exits 2).
    api.validate_export_format(args.format)
    axes = _resolve_axes(args)
    # Traces live on in-process platform objects only; a parallel run has
    # none to export, so jsonl always runs sequentially.
    parallel = args.parallel and args.format != "jsonl"
    result = api.run_fleet(
        api.FleetConfig(
            queries=_fleet_queries(args),
            parallel=parallel,
            observability=True,
            **axes,
        )
    )
    text = api.export_text(
        result,
        args.format,
        platform=args.platform,
        weight=args.weight,
        name_contains=args.name_contains,
        min_duration=args.min_duration,
        errors_only=args.errors_only,
    )
    if not text:
        print(f"export produced no {args.format} output", file=sys.stderr)
        return 1
    _write_out(text, args.out)
    return 0


def _window_row(snapshot) -> str:
    """One human-readable line per rolling window."""
    arrivals = sum(snapshot.arrivals.values())
    completed = sum(snapshot.completed.values())
    failed = sum(snapshot.failed.values())
    in_flight = sum(snapshot.in_flight.values())
    p99 = " ".join(
        # Abbreviate by capitals: Spanner -> S, BigTable -> BT, BigQuery -> BQ.
        f"{''.join(c for c in name if c.isupper())}="
        f"{quantiles.get(0.99, 0.0) * 1e3:.2f}"
        for name, quantiles in snapshot.latency.items()
    )
    return (
        f"w{snapshot.index:<5d} [{snapshot.start:>9.1f},{snapshot.end:>9.1f})"
        f" arr={arrivals:<5d} done={completed:<5d} fail={failed:<3d}"
        f" inflight={in_flight:<4d} p99ms {p99}"
        f" hb={snapshot.heartbeats}"
    )


def _serve_stream(config, *, jsonl: str | None, quiet: bool) -> int:
    """Run a service config, streaming rows and/or JSONL snapshots.

    Shared by ``repro serve`` and ``repro top --follow``.  ``--jsonl -``
    implies quiet human output so stdout stays machine-readable.
    """
    import contextlib

    from repro import api
    from repro.observability.exporters import window_jsonl

    quiet = quiet or jsonl == "-"
    windows = 0
    last = None
    with contextlib.ExitStack() as stack:
        emit = None
        if jsonl == "-":
            emit = print
        elif jsonl is not None:
            stream = stack.enter_context(open(jsonl, "w"))

            def emit(line, stream=stream):
                stream.write(line + "\n")

        if not quiet:
            print(
                f"serving: arrival={config.arrival} rate={config.rate}/s "
                f"duration={config.duration:g}s window={config.window:g}s "
                f"seed={config.seed} engine={config.engine}"
            )
        for snapshot in api.run_service(config):
            windows += 1
            last = snapshot
            if emit is not None:
                emit(window_jsonl(snapshot))
            if not quiet:
                print(_window_row(snapshot), flush=True)

    if not quiet and last is not None:
        served = sum(last.completed.values())  # final window only
        print(
            f"\nserved {windows} windows to t={last.end:g}s "
            f"({served} completions in the last window, "
            f"agent rate {last.heartbeat_qpm:,.0f} beats/min)"
        )
    if jsonl not in (None, "-"):
        print(f"wrote {windows} snapshots to {jsonl}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import api

    axes = _resolve_axes(args)
    # ServeConfig has no sharding axes: service mode is single-process by
    # construction (the window loop IS the scheduler).  Reject explicitly
    # rather than silently ignoring.
    for flag in ("shards", "max_workers"):
        if axes.pop(flag, None) is not None:
            option = "--workers" if flag == "max_workers" else "--shards"
            raise ConfigError(
                f"{option} does not apply to serve: service mode drives "
                "all platforms in one process on the shared sim clock"
            )
    config = api.ServeConfig(
        duration=args.duration,
        window=args.window,
        rolling_windows=args.rolling_windows,
        arrival=args.arrival,
        rate=args.rate,
        diurnal_period=args.diurnal_period,
        diurnal_amplitude=args.diurnal_amplitude,
        flash_start=args.flash_start,
        flash_duration=args.flash_duration,
        flash_magnitude=args.flash_magnitude,
        agents=args.agents,
        heartbeat_period=args.heartbeat_period,
        **axes,
    ).resolved()
    return _serve_stream(config, jsonl=args.jsonl, quiet=args.quiet)


def _follow_service(args: argparse.Namespace, axes: dict) -> int:
    """``repro top --follow``: a service run with top's flag surface."""
    from repro import api

    axes = dict(axes)
    for flag in ("shards", "max_workers"):
        if axes.pop(flag, None) is not None:
            option = "--workers" if flag == "max_workers" else "--shards"
            raise ConfigError(f"{option} does not apply to top --follow")
    if args.parallel:
        raise ConfigError("--parallel does not apply to top --follow")
    config = api.ServeConfig(
        duration=args.duration,
        window=args.window,
        arrival=args.arrival,
        rate=args.rate,
        **axes,
    ).resolved()
    return _serve_stream(config, jsonl=None, quiet=False)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.soc import ValidationExperiment

    seed = _axis_int("seed", args.seed)
    result = ValidationExperiment(batch_messages=args.batch, seed=seed).run()
    table, comparisons = table8_data(result)
    _print(table, comparisons, args.batch == 100)
    print(f"digests match: {result.digests_match}")
    print(f"model difference: {result.percent_difference:.2f}% (paper: 6.1%)")
    return 0 if result.digests_match else 1


def _cmd_model(args: argparse.Namespace) -> int:
    table, comparisons = _MODEL_FIGURES[args.figure]()
    _print(table, comparisons, args.compare)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import api

    result = api.sweep(args.platform, speedup=args.speedup)
    if not result.targets:
        print(
            f"{args.platform}: no accelerated components; empty sweep",
            file=sys.stderr,
        )
        return 2
    lines = [
        f"{args.platform}: accelerating {len(result.targets)} components "
        f"at {args.speedup:g}x"
    ]
    lines.extend(
        f"  {label:<18} {value:6.3f}x" for label, value in result.points
    )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro import api

    queries = _fleet_queries(args)
    seed = _axis_int("seed", args.seed)
    print(f"simulating fleet ({queries}) and the Table 8 experiment ...")
    try:
        report = api.profile_report(
            api.FleetConfig(queries=queries, seed=seed)
        )
    except ValueError as error:
        print(f"report failed: {error}", file=sys.stderr)
        return 1
    if report.queries_served == 0:
        print("report failed: fleet served no queries", file=sys.stderr)
        return 1
    _write_out(report.markdown, args.out)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    import contextlib
    import json

    from repro import api
    from repro.testing.diff import render_mismatches
    from repro.testing.fuzzer import config_to_jsonable

    if args.budget < 1:
        print("selftest budget must be >= 1", file=sys.stderr)
        return 2
    axes = _resolve_axes(args)
    seed = axes.pop("seed")
    overrides = {name: value for name, value in axes.items() if value is not None}

    with contextlib.ExitStack() as stack:
        emit = None
        if args.jsonl == "-":
            emit = lambda record: print(json.dumps(record))  # noqa: E731
        elif args.jsonl is not None:
            stream = stack.enter_context(open(args.jsonl, "w"))

            def emit(record, stream=stream):
                stream.write(json.dumps(record) + "\n")
                stream.flush()

        quiet = args.jsonl == "-"  # keep pure-JSONL stdout machine-readable
        progress = (lambda line: None) if quiet else print
        pins = (
            " pinned " + " ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
            if overrides
            else ""
        )
        progress(
            f"selftest: {args.budget} fuzzed configs, fuzzer seed {seed}{pins}"
        )
        report = api.selftest(
            budget=args.budget,
            seed=seed,
            start=args.start,
            shrink=not args.no_shrink,
            emit=emit,
            progress=progress,
            overrides=overrides or None,
        )

    if report.ok:
        progress(f"selftest passed: {len(report.verdicts)} configs verified")
        return 0

    failing = report.failures()[0]
    out = sys.stderr
    print(f"\nselftest FAILED at config {failing.index}:", file=out)
    for pair in failing.pairs:
        if pair.ok:
            continue
        detail = pair.error or render_mismatches(pair.mismatches, limit=5)
        print(f"  pair {pair.pair}: {detail}", file=out)
    for oracle in failing.oracles:
        if oracle.ok:
            continue
        detail = oracle.error or "; ".join(oracle.problems[:5])
        print(f"  oracle {oracle.oracle}: {detail}", file=out)
    if report.reproducer is not None:
        print(
            f"minimal reproducer (shrunk in {report.shrink.evals} evals):",
            file=out,
        )
        print(
            "  " + json.dumps(config_to_jsonable(report.reproducer)), file=out
        )
    print(
        f"regenerate with: FleetConfigFuzzer({seed}).config({failing.index})",
        file=out,
    )
    return report.exit_code


def _axis_float(name: str, value, *, minimum: float | None = None):
    """Validate a float flag value through the typed taxonomy."""
    if value is None:
        return None
    try:
        value = float(value)
    except ValueError:
        raise ConfigError(f"--{name} expects a number, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"--{name} must be >= {minimum:g}, got {value:g}")
    return value


def _store_ingest(args: argparse.Namespace) -> int:
    from repro import api
    from repro.store import open_store

    axes = _resolve_axes(args)
    if args.serve is not None:
        for flag in ("shards", "max_workers"):
            if axes.pop(flag, None) is not None:
                option = "--workers" if flag == "max_workers" else "--shards"
                raise ConfigError(f"{option} does not apply to --serve ingest")
        config = api.ServeConfig(
            duration=_axis_float("serve", args.serve, minimum=0.0),
            window=_axis_float("window", args.window, minimum=0.0) or 10.0,
            rate=_axis_float("rate", args.rate, minimum=0.0) or 0.5,
            arrival=args.arrival or "poisson",
            **axes,
        ).resolved()
        windows = 0
        with open_store(args.path) as store:
            for _ in api.run_service(config, store=store, store_label=args.label):
                windows += 1
            run = store.execute("SELECT MAX(run_id) FROM runs").fetchone()[0]
        print(f"ingested serve run {run} ({windows} windows) into {args.path}")
        return 0

    queries = _fleet_queries(args)
    config = api.FleetConfig(
        queries=queries, observability=args.observe or None, **axes
    )
    with open_store(args.path) as store:
        result = api.run_fleet(config, store=store, store_label=args.label)
    print(
        f"ingested fleet run {result.store_run_id} "
        f"({sum(queries.values())} queries, seed {axes['seed']}) "
        f"into {args.path}"
    )
    return 0


def _store_runs(args: argparse.Namespace) -> int:
    from repro.store import DataProvider, open_store

    with open_store(args.path, create=False) as store:
        rows = DataProvider(store).runs(args.kind)
    if not rows:
        qualifier = f" of kind {args.kind!r}" if args.kind else ""
        print(f"store {args.path} holds no runs{qualifier}", file=sys.stderr)
        return 1
    for row in rows:
        print(row.describe())
    return 0


def _store_query(args: argparse.Namespace) -> int:
    from repro.store import DataProvider, open_store

    what = args.what
    known = ("samples", "cycles", "top", "windows", "prom")
    if what not in known:
        raise ConfigError(
            f"unknown query {what!r}; choose from {list(known)}"
        )
    if what in ("cycles", "top") and args.platform is None:
        raise ConfigError(f"query {what!r} requires --platform")
    limit = _axis_int("limit", args.limit, minimum=1)
    with open_store(args.path, create=False) as store:
        provider = DataProvider(store)
        run = _axis_int("run", args.run)
        if run is None:
            latest = provider.latest_run()
            if latest is None:
                raise ConfigError(f"store {args.path} holds no runs")
            run = latest.run_id
        else:
            provider.run(run)  # surface "no run N" as one ConfigError line
        if what == "samples":
            rows = provider.sample_rows(run, platform=args.platform)[:limit]
            lines = [
                f"{p}\t{fn}\t{cat}\t{cycles:g}\t{ts:g}"
                for p, fn, cat, cycles, ts in rows
            ]
        elif what == "cycles":
            lines = [
                f"{category}\t{total:g}"
                for category, total in provider.cycles_by_category(
                    run, args.platform
                ).items()
            ]
        elif what == "top":
            lines = [
                f"{name}\t{total:g}"
                for name, total in provider.top_functions(
                    run, args.platform, count=limit
                )
            ]
        elif what == "windows":
            lines = provider.window_lines(run)
        else:  # prom
            text = provider.prometheus(run)
            if text is None:
                print(
                    f"run {run} has no prometheus artifact "
                    "(ingest with --observe)",
                    file=sys.stderr,
                )
                return 1
            lines = [text.rstrip("\n")]
    if not lines:
        print(f"run {run} holds no {what} rows", file=sys.stderr)
        return 1
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _store_tables(args: argparse.Namespace) -> int:
    from repro.analysis import figures_from_store, tables_from_store
    from repro.store import DataProvider, open_store

    with open_store(args.path, create=False) as store:
        provider = DataProvider(store)
        text = tables_from_store(
            provider,
            _axis_int("run", args.run),
            validation_run=_axis_int("validation-run", args.validation_run),
        )
        if args.figures:
            text += "\n" + figures_from_store(
                provider, _axis_int("run", args.run)
            )
    _write_out(text, args.out)
    return 0


def _store_regress(args: argparse.Namespace) -> int:
    from repro.store import DataProvider, open_store

    tolerance = _axis_float("tolerance", args.tolerance, minimum=0.0)
    with open_store(args.path, create=False) as store:
        provider = DataProvider(store)
        report = provider.regression_check(
            args.metric,
            tolerance=0.0 if tolerance is None else tolerance,
            run=_axis_int("run", args.run),
            baseline=_axis_int("baseline", args.baseline),
        )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    handlers = {
        "ingest": _store_ingest,
        "runs": _store_runs,
        "query": _store_query,
        "tables": _store_tables,
        "regress": _store_regress,
    }
    return handlers[args.store_command](args)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "fleet": _cmd_fleet,
        "top": _cmd_top,
        "serve": _cmd_serve,
        "export": _cmd_export,
        "validate": _cmd_validate,
        "model": _cmd_model,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "selftest": _cmd_selftest,
        "store": _cmd_store,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as error:
        # The typed taxonomy (ConfigError, EmptyFleetError,
        # UnknownFormatError, ...) renders as one line, never a traceback.
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
