"""CLI tests for the five ``repro store`` verbs.

Follows the typed-axis conventions of ``tests/test_cli.py``: a bad
path, query name, or flag value prints one ``ConfigError`` line to
stderr and exits 2 (never a traceback or argparse usage dump); an empty
store or missing artifact exits non-zero with a one-line explanation;
``--out -`` keeps stdout machine-readable.
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """One populated store shared by the read-side tests."""
    path = tmp_path_factory.mktemp("store") / "profiles.sqlite"
    assert main(
        ["store", "ingest", str(path), "--queries", "8", "--seed", "3",
         "--observe", "--label", "first"]
    ) == 0
    assert main(
        ["store", "ingest", str(path), "--queries", "8", "--seed", "3",
         "--engine", "heap"]
    ) == 0
    return path


class TestIngest:
    def test_ingest_announces_run(self, tmp_path, capsys):
        path = tmp_path / "p.sqlite"
        assert main(["store", "ingest", str(path), "--queries", "4"]) == 0
        assert "ingested fleet run 1" in capsys.readouterr().out
        assert path.exists()

    def test_ingest_serve_stores_windows(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        assert main(
            ["store", "ingest", str(path), "--serve", "40", "--window", "10",
             "--rate", "0.4", "--arrival", "poisson", "--seed", "2"]
        ) == 0
        assert "ingested serve run 1 (4 windows)" in capsys.readouterr().out


class TestTypedErrors:
    """Bad paths/queries are one ConfigError line, exit 2."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["runs", "{tmp}/absent.sqlite"], "no store at"),
            (["query", "{tmp}/absent.sqlite", "samples"], "no store at"),
            (["tables", "{tmp}/absent.sqlite"], "no store at"),
            (["regress", "{tmp}/absent.sqlite"], "no store at"),
            (["ingest", "{tmp}/no_dir/p.sqlite"], "does not exist"),
            (["ingest", "{tmp}/no_dir/p.sqlite", "--serve", "10"],
             "does not exist"),
            (["ingest", "{tmp}/p.sqlite", "--serve", "10", "--shards", "2"],
             "--shards does not apply"),
            (["ingest", "{tmp}/p.sqlite", "--seed", "abc"],
             "--seed expects an integer"),
        ],
    )
    def test_bad_path_or_flag_exits_2(self, argv, needle, tmp_path, capsys):
        argv = ["store"] + [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert "usage:" not in captured.err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["query", "{store}", "bogus"], "unknown query 'bogus'"),
            (["query", "{store}", "cycles"], "requires --platform"),
            (["query", "{store}", "samples", "--run", "99"], "no run 99"),
            (["query", "{store}", "samples", "--limit", "x"],
             "--limit expects an integer"),
            (["regress", "{store}", "--metric", "nope"],
             "unknown regression metric"),
            (["regress", "{store}", "--tolerance", "-1"],
             "--tolerance must be >= 0"),
        ],
    )
    def test_bad_query_exits_2(self, argv, needle, store_path, capsys):
        argv = ["store"] + [a.format(store=store_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert "Traceback" not in captured.err


class TestReadVerbs:
    def test_runs_lists_history(self, store_path, capsys):
        assert main(["store", "runs", str(store_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert "run 1  fleet" in out[0] and "label=first" in out[0]
        assert "engine=heap" in out[1]

    def test_runs_empty_store_exits_1(self, tmp_path, capsys):
        from repro.store import ProfileStore

        path = tmp_path / "empty.sqlite"
        ProfileStore(path).close()
        assert main(["store", "runs", str(path)]) == 1
        assert "holds no runs" in capsys.readouterr().err

    def test_query_samples_stdout(self, store_path, capsys):
        assert main(
            ["store", "query", str(store_path), "samples", "--limit", "5"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_query_top_respects_platform_and_limit(self, store_path, capsys):
        assert main(
            ["store", "query", str(store_path), "top",
             "--platform", "Spanner", "--limit", "3", "--run", "1"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_query_prom_verbatim(self, store_path, capsys):
        assert main(["store", "query", str(store_path), "prom", "--run", "1"]) == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_query_prom_unobserved_run_exits_1(self, store_path, capsys):
        assert main(["store", "query", str(store_path), "prom", "--run", "2"]) == 1
        assert "no prometheus artifact" in capsys.readouterr().err

    def test_query_out_file(self, store_path, tmp_path, capsys):
        out = tmp_path / "top.tsv"
        assert main(
            ["store", "query", str(store_path), "top",
             "--platform", "BigTable", "--out", str(out)]
        ) == 0
        assert out.read_text().count("\n") >= 1
        assert f"wrote {out}" in capsys.readouterr().out


class TestTablesVerb:
    def test_tables_byte_identical_to_memory(self, store_path, capsys):
        from repro import api
        from repro.analysis import render_tables

        assert main(["store", "tables", str(store_path), "--run", "1"]) == 0
        stored = capsys.readouterr().out
        live = api.run_fleet(
            api.FleetConfig(
                queries={"Spanner": 8, "BigTable": 8, "BigQuery": 10},
                seed=3,
                observability=True,
            )
        )
        assert stored == render_tables(live)

    def test_tables_with_figures(self, store_path, capsys):
        assert main(
            ["store", "tables", str(store_path), "--figures"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out and "Figure 2" in out


class TestRegressVerb:
    def test_identical_runs_pass_exact_gate(self, store_path, capsys):
        assert main(["store", "regress", str(store_path)]) == 0
        assert " ok" in capsys.readouterr().out

    def test_changed_workload_regresses_exit_1(self, store_path, capsys):
        assert main(
            ["store", "ingest", str(store_path), "--queries", "4", "--seed", "3"]
        ) == 0
        capsys.readouterr()
        assert main(["store", "regress", str(store_path), "--metric", "samples"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_tolerance_band_absorbs_change(self, store_path, capsys):
        assert main(
            ["store", "regress", str(store_path), "--tolerance", "0.9"]
        ) == 0
        assert " ok" in capsys.readouterr().out


class TestParser:
    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            from repro.cli import build_parser

            build_parser().parse_args(["store"])

    def test_ingest_declares_axis_flags(self, tmp_path, capsys):
        from repro.cli import build_parser

        argv = ["store", "ingest", str(tmp_path / "p.sqlite"),
                "--engine", "columnar", "--seed", "7"]
        args = build_parser().parse_args(argv)
        assert args.engine == "columnar"
        assert args.seed == "7"  # validated later, not by argparse
        # ... where the removed calendar-queue engine is a typed error.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--engine must be one of ['heap'], got 'columnar'" in err
        assert not (tmp_path / "p.sqlite").exists()
