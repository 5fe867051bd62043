"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.queries == 150
        assert not args.compare

    def test_model_figure_choices(self):
        args = build_parser().parse_args(["model", "--figure", "13"])
        assert args.figure == "13"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "--figure", "7"])

    def test_sweep_platform_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--platform", "Oracle"])

    def test_axis_flags_uniform_across_run_verbs(self, capsys):
        # --engine and --seed parse on every run verb; --shards/--workers
        # on everything with a scheduler surface (serve declares them too,
        # but rejects them at resolve time with a typed error).
        for verb in ("fleet", "top", "export", "serve", "selftest"):
            argv = [verb, "--engine", "columnar", "--seed", "7"]
            if verb == "export":
                argv += ["--format", "prom"]
            args = build_parser().parse_args(argv)
            assert args.engine == "columnar"
            assert args.seed == "7"  # validated later, not by argparse
            assert hasattr(args, "shards") and hasattr(args, "workers")
        # The calendar-queue engine was removed: its name is now a typed
        # error that lists the engines left.
        assert main(["fleet", "--engine", "columnar"]) == 2
        err = capsys.readouterr().err
        assert "--engine must be one of ['heap'], got 'columnar'" in err
        assert "Traceback" not in err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.duration == 14400.0
        assert args.window == 60.0
        assert args.arrival == "diurnal"
        assert args.engine == "heap"
        assert args.jsonl is None

    def test_selftest_engine_unpinned_by_default(self):
        assert build_parser().parse_args(["selftest"]).engine is None


class TestTypedAxisErrors:
    """Bad axis values exit 2 with one ConfigError line, no usage dump."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["fleet", "--seed", "abc"], "--seed expects an integer"),
            (["fleet", "--engine", "quantum"], "--engine must be one of"),
            (["fleet", "--shards", "zero"], "--shards"),
            (["fleet", "--workers", "0"], "--workers must be >= 1"),
            (["serve", "--shards", "2"], "--shards does not apply"),
            (["serve", "--workers", "2"], "--workers does not apply"),
            (["serve", "--arrival", "bursty"], "arrival"),
            (["top", "--follow", "--parallel"], "--parallel does not apply"),
            (["export", "--format", "parquet"], "parquet"),
        ],
    )
    def test_bad_value_is_one_line_exit_2(self, argv, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert "usage:" not in captured.err


class TestCommands:
    def test_model_command(self, capsys):
        assert main(["model", "--figure", "9", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "paper vs measured" in out

    def test_model_figure_15(self, capsys):
        assert main(["model", "--figure", "15"]) == 0
        assert "Prior Accelerator" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--platform", "BigTable", "--speedup", "4"]) == 0
        out = capsys.readouterr().out
        assert "Chained + On-Chip" in out

    def test_validate_command(self, capsys):
        assert main(["validate", "--batch", "20"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out
        assert "digests match: True" in out

    def test_fleet_command_small(self, capsys):
        assert main(["fleet", "--queries", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 2" in out
        assert "Table 7" in out

    def test_top_command_sequential(self, capsys):
        assert main(["top", "--queries", "4", "--seed", "0", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "platform" in out and "p99_ms" in out
        assert "hottest functions" in out
        for name in ("Spanner", "BigTable", "BigQuery"):
            assert name in out

    def test_sweep_writes_to_stdout_by_default(self, capsys):
        assert main(["sweep", "--platform", "Spanner", "--speedup", "2"]) == 0
        out = capsys.readouterr().out
        assert "accelerating" in out
        assert "2x" in out

    def test_sweep_out_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        assert main(["sweep", "--platform", "BigQuery", "--out", str(out)]) == 0
        assert "accelerating" in out.read_text()
        assert f"wrote {out}" in capsys.readouterr().out

    def test_report_to_stdout(self, capsys):
        assert main(
            ["report", "--queries", "4", "--seed", "0", "--out", "-"]
        ) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "Table 8" in out

    def test_report_empty_fleet_is_an_error(self, capsys):
        code = main(["report", "--queries", "0", "--out", "-"])
        captured = capsys.readouterr()
        assert code == 1
        assert "report failed" in captured.err
        assert "# Reproduction report" not in captured.out


SERVE_SMALL = [
    "serve",
    "--duration", "60",
    "--window", "30",
    "--rate", "0.3",
    "--arrival", "flash",
    "--flash-start", "15",
    "--flash-duration", "15",
    "--seed", "11",
]


class TestServeCommand:
    def test_serve_prints_window_rows(self, capsys):
        assert main(SERVE_SMALL) == 0
        out = capsys.readouterr().out
        assert "serving: arrival=flash" in out
        assert "w0" in out and "w1" in out
        assert "p99ms" in out and "hb=" in out
        assert "served" in out

    def test_serve_jsonl_stdout_is_pure_and_engine_invariant(self, capsys):
        import json

        from repro.testing.lanes import PER_BOUNDARY, on_lanes

        def serve_jsonl():
            assert main(SERVE_SMALL + ["--jsonl", "-", "--engine", "heap"]) == 0
            out = capsys.readouterr().out
            rows = [json.loads(line) for line in out.splitlines()]
            assert [row["index"] for row in rows] == list(range(len(rows)))
            return out

        heap = serve_jsonl()
        with on_lanes((PER_BOUNDARY,)):
            assert serve_jsonl() == heap

    def test_serve_jsonl_file(self, tmp_path, capsys):
        target = tmp_path / "windows.jsonl"
        assert main(SERVE_SMALL + ["--jsonl", str(target), "--quiet"]) == 0
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert f"wrote 2 snapshots to {target}" in capsys.readouterr().out

    def test_top_follow_streams_windows(self, capsys):
        assert main(
            ["top", "--follow", "--duration", "60", "--window", "30",
             "--rate", "0.3", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving: arrival=diurnal" in out
        assert "w0" in out and "w1" in out
