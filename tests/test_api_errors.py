"""Typed error paths of the :mod:`repro.api` facade.

A facade caller who misconfigures a run must get a typed, catchable
error -- :class:`EmptyFleetError`, :class:`ConfigError`,
:class:`UnknownFormatError` -- never a ``KeyError`` traceback from deep
inside the simulation.  Every class subclasses :class:`ValueError`, so
pre-existing ``except ValueError`` callers keep working.
"""

import pytest

from repro import api
from repro.cli import main


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(api.ConfigError, ValueError)
        assert issubclass(api.EmptyFleetError, api.ConfigError)
        assert issubclass(api.UnknownFormatError, api.ConfigError)


class TestRunFleetConfigErrors:
    def test_empty_platform_mix(self):
        with pytest.raises(api.EmptyFleetError):
            api.run_fleet(api.FleetConfig(queries={}))

    def test_unknown_platform_name(self):
        with pytest.raises(api.ConfigError, match="Oracle"):
            api.run_fleet(api.FleetConfig(queries={"Oracle": 3}))

    def test_negative_query_count(self):
        with pytest.raises(api.ConfigError):
            api.run_fleet(api.FleetConfig(queries={"Spanner": -1}))

    def test_negative_scalar_query_count(self):
        with pytest.raises(api.ConfigError):
            api.run_fleet(api.FleetConfig(queries=-5))

    def test_removed_engine(self):
        # The calendar-queue engine is gone; "heap" is the one left.
        with pytest.raises(api.ConfigError, match=r"one of \('heap',\)"):
            api.run_fleet(api.FleetConfig(queries=1, engine="columnar"))

    def test_partial_mapping_fills_missing_platforms(self):
        """A single-platform mix runs; missing platforms idle at zero.

        This used to ``KeyError: 'BigTable'`` inside the driver -- the
        fuzzer-exposed latent bug class the selftest exists to catch.
        """
        result = api.run_fleet(api.FleetConfig(queries={"Spanner": 1}))
        assert result.platforms["Spanner"].queries_served == 1
        assert result.platforms["BigTable"].queries_served == 0
        assert result.platforms["BigQuery"].queries_served == 0


class TestSweepSeedsErrors:
    def test_zero_seeds(self):
        with pytest.raises(api.ConfigError, match="no seeds"):
            api.sweep_seeds([])

    def test_duplicate_seeds(self):
        with pytest.raises(api.ConfigError, match="duplicate"):
            api.sweep_seeds([1, 1])


class TestExportFormatErrors:
    def test_unknown_format_raises_typed_error(self):
        result = api.run_fleet(
            api.FleetConfig(queries={"Spanner": 1, "BigTable": 0, "BigQuery": 0})
        )
        with pytest.raises(api.UnknownFormatError, match="protobuf"):
            api.export_text(result, "protobuf")

    def test_known_formats_are_exact(self):
        assert api.EXPORT_FORMATS == ("prom", "folded", "jsonl")

    def test_cli_export_unknown_format_exits_nonzero(self, capsys):
        code = main(["export", "--format", "parquet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "parquet" in err
        assert "Traceback" not in err
