"""Service mode: open-loop arrivals, rolling windows, drains, and parity.

Covers the ``repro serve`` stack bottom-up: the drain APIs that keep
long-lived runs bounded (GWP column drain, Dapper finished-trace drain),
the arrival machinery (thinning, curves, tenant attribution), the
arithmetic agent fleet, ``ServeConfig`` validation on the facade, the
end-to-end window stream (engine parity, replay determinism, flash
crowds), and the ``service`` differential pair wired into selftest.
"""

import json

import pytest

from repro import api
from repro.errors import ConfigError, UnknownFormatError
from repro.observability.exporters import window_jsonl
from repro.profiling.dapper import SpanKind, Tracer
from repro.profiling.gwp import FleetProfiler
from repro.testing.differential import MODE_PAIRS, DifferentialRunner
from repro.testing.lanes import PER_BOUNDARY, on_lanes
from repro.workloads.calibration import BIGQUERY, BIGTABLE, PLATFORMS, SPANNER
from repro.workloads.service import (
    AgentFleet,
    ArrivalSchedule,
    TenantProfile,
    platform_arrivals,
    platform_weights,
)

#: A serve config small enough to run in well under a second.
TINY_SERVE = dict(
    duration=30.0,
    window=10.0,
    rolling_windows=2,
    arrival="flash",
    rate=0.3,
    diurnal_period=60.0,
    diurnal_amplitude=0.5,
    flash_start=10.0,
    flash_duration=10.0,
    flash_magnitude=4.0,
    agents=3,
    heartbeat_period=0.5,
    seed=11,
)


def serve_lines(**overrides) -> list[str]:
    config = dict(TINY_SERVE)
    config.update(overrides)
    return [window_jsonl(snap) for snap in api.run_service(config)]


# -- drain APIs ---------------------------------------------------------------


class TestProfilerDrain:
    def test_drain_returns_rows_and_clears_columns(self):
        profiler = FleetProfiler(sample_period=1e-3)
        profiler.record_work("Spanner", "proto2::Parse", 5e-3, when=1.0)
        profiler.record_work("BigTable", "snappy::RawCompress", 3e-3, when=2.0)
        assert profiler.sample_count() == 8
        drained = profiler.drain_samples()
        assert len(drained) == 8
        platforms = {row[0] for row in drained}
        assert platforms == {"Spanner", "BigTable"}
        # Rows carry (platform, function, broad category, cycles, when).
        assert all(len(row) == 5 for row in drained)
        assert profiler.sample_count() == 0
        assert profiler.drain_samples() == []

    def test_drain_preserves_cpu_seconds_and_sampling_credit(self):
        # The drain must not disturb sampling continuity: a chunk recorded
        # across a drain boundary samples exactly as it would have without
        # the drain (the fractional credit carries over).
        period = 1e-3
        undrained = FleetProfiler(sample_period=period)
        drained = FleetProfiler(sample_period=period)
        for profiler in (undrained, drained):
            profiler.record_work("Spanner", "f", 0.4 * period, when=0.0)
        drained.drain_samples()
        total = {"undrained": 0, "drained": 0}
        total["undrained"] += undrained.record_work("Spanner", "f", 0.8 * period, 1.0)
        total["drained"] += drained.record_work("Spanner", "f", 0.8 * period, 1.0)
        assert total["undrained"] == total["drained"] == 1
        assert drained.cpu_seconds("Spanner") == pytest.approx(
            undrained.cpu_seconds("Spanner")
        )


class TestTracerDrain:
    def test_drain_partitions_finished_from_in_flight(self):
        tracer = Tracer(sample_rate=1)
        done = tracer.start_trace("q0", 0.0)
        done.record("work", SpanKind.CPU, 0.0, 1.0)
        done.finish(1.0)
        pending = tracer.start_trace("q1", 0.5)
        first = tracer.drain_finished()
        assert [t.name for t in first] == ["q0"]
        assert tracer.finished_traces() == []
        # The in-flight trace survives the drain and lands in the next one.
        pending.finish(2.0)
        second = tracer.drain_finished()
        assert [t.name for t in second] == ["q1"]

    def test_trace_ids_keep_running_across_drains(self):
        tracer = Tracer(sample_rate=1)
        tracer.start_trace("a", 0.0).finish(1.0)
        tracer.drain_finished()
        later = tracer.start_trace("b", 2.0)
        assert later.trace_id == 1  # drained stream concatenates cleanly


# -- arrivals, curves, tenants ------------------------------------------------


class TestArrivalSchedule:
    def test_curve_validation(self):
        with pytest.raises(ConfigError, match="arrival"):
            ArrivalSchedule("bursty")
        with pytest.raises(ConfigError, match="amplitude"):
            ArrivalSchedule("diurnal", diurnal_amplitude=1.0)
        with pytest.raises(ConfigError, match="magnitude"):
            ArrivalSchedule("flash", flash_magnitude=0.5)
        with pytest.raises(ConfigError, match="period"):
            ArrivalSchedule("diurnal", diurnal_period=0.0)

    def test_flash_multiplies_the_diurnal_curve(self):
        diurnal = ArrivalSchedule("diurnal", diurnal_period=100.0)
        flash = ArrivalSchedule(
            "flash",
            diurnal_period=100.0,
            flash_start=10.0,
            flash_duration=5.0,
            flash_magnitude=3.0,
        )
        inside, outside = 12.0, 20.0
        assert flash.multiplier(inside) == pytest.approx(
            3.0 * diurnal.multiplier(inside)
        )
        assert flash.multiplier(outside) == pytest.approx(
            diurnal.multiplier(outside)
        )
        assert flash.peak == pytest.approx(3.0 * diurnal.peak)
        assert ArrivalSchedule("poisson").multiplier(123.0) == 1.0

    def test_multiplier_never_exceeds_peak(self):
        schedule = ArrivalSchedule(
            "flash",
            diurnal_period=40.0,
            diurnal_amplitude=0.9,
            flash_start=3.0,
            flash_duration=11.0,
            flash_magnitude=5.0,
        )
        for i in range(400):
            assert schedule.multiplier(i * 0.1) <= schedule.peak + 1e-12


class TestPlatformArrivals:
    def _arrivals(self, seed=3, duration=400.0, arrival="diurnal"):
        tenants = api.DEFAULT_TENANTS
        return list(
            platform_arrivals(
                SPANNER,
                schedule=ArrivalSchedule(arrival, diurnal_period=200.0),
                rate=0.5,
                weight=platform_weights(tenants)[SPANNER],
                tenants=tenants,
                seed=seed,
                duration=duration,
            )
        )

    def test_deterministic_and_strictly_inside_horizon(self):
        a, b = self._arrivals(), self._arrivals()
        assert a == b
        whens = [when for when, _ in a]
        assert whens == sorted(whens)
        assert all(0.0 <= when < 400.0 for when in whens)

    def test_rate_is_approximately_respected(self):
        # Poisson at rate * weight ~= 0.22/s over 400s: expect ~89 with
        # Poisson noise; a +-40% band is ~4 sigma, safe for a fixed seed.
        arrivals = self._arrivals(arrival="poisson")
        expected = 0.5 * platform_weights(api.DEFAULT_TENANTS)[SPANNER] * 400.0
        assert 0.6 * expected <= len(arrivals) <= 1.4 * expected

    def test_tenant_attribution_draws_known_tenants(self):
        names = {tenant for _, tenant in self._arrivals()}
        assert names <= {t.name for t in api.DEFAULT_TENANTS}
        assert len(names) > 1  # the mix actually mixes

    def test_zero_weight_platform_yields_nothing(self):
        tenants = (TenantProfile("solo", 1.0, {SPANNER: 1.0}),)
        arrivals = platform_arrivals(
            BIGQUERY,
            schedule=ArrivalSchedule("poisson"),
            rate=1.0,
            weight=platform_weights(tenants)[BIGQUERY],
            tenants=tenants,
            seed=0,
            duration=100.0,
        )
        assert list(arrivals) == []


class TestAgentFleet:
    def test_matches_brute_force_enumeration(self):
        # Dyadic period and phases (exact in binary) so the closed-form
        # rank difference and the brute force agree bit-for-bit.
        fleet = AgentFleet(agents=4, heartbeat_period=0.5)
        beats = []
        for i in range(4):
            phase = 0.5 * i / 4
            k = 0
            while phase + k * 0.5 <= 10.0:
                beats.append(phase + k * 0.5)
                k += 1
        for start, end in [(0.0, 10.0), (1.0, 2.5), (3.3, 3.3), (9.0, 10.0)]:
            expected = sum(1 for b in beats if start < b <= end)
            assert fleet.heartbeats_between(start, end) == expected

    def test_165k_qpm_class_fleet_is_closed_form(self):
        # The paper's observability service ingests ~165k queries/minute;
        # 690 agents at a 250 ms heartbeat hit that rate exactly, and the
        # count is pure arithmetic -- no simulator events.
        fleet = AgentFleet(agents=690, heartbeat_period=0.25)
        assert fleet.qpm == pytest.approx(165_600.0)
        assert fleet.heartbeats_between(0.0, 60.0) == 165_600

    def test_empty_fleet_and_validation(self):
        assert AgentFleet(0, 1.0).heartbeats_between(0.0, 100.0) == 0
        with pytest.raises(ConfigError, match="agents"):
            AgentFleet(-1, 1.0)
        with pytest.raises(ConfigError, match="heartbeat_period"):
            AgentFleet(1, 0.0)


# -- ServeConfig on the facade ------------------------------------------------


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"duration": 0.0}, "duration"),
            ({"window": -1.0}, "window"),
            ({"rolling_windows": 0}, "rolling_windows"),
            ({"rate": 0.0}, "rate"),
            ({"arrival": "bursty"}, "arrival"),
            ({"drain_windows": -1}, "drain_windows"),
            ({"engine": "quantum"}, "engine"),
            ({"engine": "columnar"}, r"engine must be one of \('heap',\)"),
            ({"trace_sample_rate": 0}, "trace_sample_rate"),
        ],
    )
    def test_run_service_rejects_bad_configs_eagerly(self, overrides, match):
        # run_service validates before returning the generator: the error
        # surfaces at call time, not at first iteration.
        with pytest.raises(ConfigError, match=match):
            api.run_service(api.ServeConfig(**{**TINY_SERVE, **overrides}))

    def test_mapping_coercion_and_type_errors(self):
        stream = api.run_service(dict(TINY_SERVE))
        assert next(stream).index == 0
        with pytest.raises(TypeError, match="ServeConfig"):
            api.run_service(42)

    def test_flash_defaults_derive_from_duration(self):
        resolved = api.ServeConfig(duration=1000.0, arrival="flash").resolved()
        assert resolved.flash_start == pytest.approx(500.0)
        assert resolved.flash_duration == pytest.approx(100.0)
        assert resolved.tenants == api.DEFAULT_TENANTS

    def test_bad_tenants_rejected(self):
        bad = (TenantProfile("t", 1.0, {"Redshift": 1.0}),)
        with pytest.raises(ConfigError, match="Redshift"):
            api.run_service(api.ServeConfig(**{**TINY_SERVE, "tenants": bad}))
        with pytest.raises(ConfigError, match="tenant"):
            api.run_service(api.ServeConfig(**{**TINY_SERVE, "tenants": ()}))

    def test_unknown_export_format_is_typed(self):
        with pytest.raises(UnknownFormatError, match="folded"):
            api.validate_export_format("parquet")
        assert api.validate_export_format("prom") == "prom"
        assert issubclass(UnknownFormatError, ConfigError)


# -- the window stream end to end ---------------------------------------------


class TestServiceRun:
    def test_engine_parity_byte_identical(self):
        # The heap engine's block drain vs one pop per chunk boundary.
        heap = serve_lines(engine="heap")
        with on_lanes((PER_BOUNDARY,)):
            assert serve_lines() == heap

    def test_replay_determinism_and_seed_sensitivity(self):
        assert serve_lines() == serve_lines()
        assert serve_lines() != serve_lines(seed=12)

    def test_window_stream_shape(self):
        snapshots = list(api.run_service(dict(TINY_SERVE)))
        assert [s.index for s in snapshots] == list(range(len(snapshots)))
        assert len(snapshots) >= 3  # ceil(duration / window)
        for snap in snapshots:
            assert snap.start == pytest.approx(snap.index * 10.0)
            assert snap.end == pytest.approx((snap.index + 1) * 10.0)
            assert set(snap.arrivals) == set(PLATFORMS)
            assert all(count >= 0 for count in snap.in_flight.values())
            for quantiles in snap.latency.values():
                assert set(quantiles) == {0.5, 0.9, 0.99}
            # 3 agents at 500 ms over a 10 s window.
            assert snap.heartbeats == 60
            assert snap.heartbeat_qpm == pytest.approx(360.0)
        # Open loop conserves queries: everything that arrived completed
        # (the run only ends once in-flight drains to zero).
        arrived = sum(sum(s.arrivals.values()) for s in snapshots)
        completed = sum(sum(s.completed.values()) for s in snapshots)
        assert arrived == completed
        assert all(v == 0 for v in snapshots[-1].in_flight.values())

    def test_flash_crowd_visible_in_arrivals(self):
        snapshots = list(
            api.run_service(
                dict(
                    TINY_SERVE,
                    duration=120.0,
                    window=30.0,
                    rate=0.2,
                    flash_start=30.0,
                    flash_duration=30.0,
                )
            )
        )
        by_window = [sum(s.arrivals.values()) for s in snapshots[:4]]
        surge = by_window[1]
        assert surge > max(by_window[0], by_window[2], by_window[3])

    def test_tenant_arrivals_partition_platform_arrivals(self):
        for snap in api.run_service(dict(TINY_SERVE)):
            assert sum(snap.tenant_arrivals.values()) == sum(
                snap.arrivals.values()
            )

    def test_jsonable_round_trips(self):
        line = serve_lines()[0]
        row = json.loads(line)
        assert row["index"] == 0
        assert set(row["latency"][SPANNER]) == {"p50", "p90", "p99"}
        assert json.dumps(row, sort_keys=True) == line


# -- the service differential pair --------------------------------------------


class TestServicePair:
    def test_mode_pairs_include_service(self):
        assert "service" in MODE_PAIRS

    def test_service_pair_verifies_clean(self):
        runner = DifferentialRunner(pairs=("service",))
        config = api.FleetConfig(
            queries={SPANNER: 1, BIGTABLE: 1, BIGQUERY: 0}, seed=5
        )
        report = runner.run_config(config)
        (pair,) = report.pairs
        assert pair.pair == "service"
        assert pair.ok, pair.error or pair.mismatches

    def test_selftest_overrides_pin_axes(self):
        from repro.testing import run_selftest

        report = run_selftest(
            budget=1,
            seed=0,
            pairs=("replay",),
            oracles=(),
            shrink=False,
            overrides={"engine": "heap", "shards": None},
        )
        assert report.ok
        # Config 0 of fuzzer seed 0 draws shards=2; the pin overrides it.
        assert report.verdicts[0].config["shards"] is None
        assert report.verdicts[0].config["engine"] == "heap"
