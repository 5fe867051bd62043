"""One production lane per layer, with the slow twins behind repro.testing.

The fleet config exposes no CPU-coalescing or storage-reader switch: every
run takes the coalesced CPU path and batched reads.  The per-chunk twins
survive only as reference lanes in :mod:`repro.testing.lanes`, and in a
production run only two places pick the per-chunk reader -- an attached
chaos controller and the DFS down-set check.  These tests pin that
surface, the reference lanes themselves, the fuzzer's prefix stability
after its storage-reader draw went away, and the documented defaults.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import FleetConfig, ServeConfig, run_fleet
from repro.cli import build_parser
from repro.cluster import (
    NetworkFabric,
    RpcService,
    ServerNode,
    Topology,
    WorkContext,
    rpc_call,
)
from repro.faults import FaultPlan
from repro.platforms.common import PlatformBase
from repro.profiling.dapper import Trace
from repro.profiling.gwp import FleetProfiler
from repro.sim import Environment
from repro.storage import DistributedFileSystem
from repro.testing import diff_snapshots, sample_rows, snapshot, span_rows
from repro.testing.differential import MODE_PAIRS, _mask_engine_events
from repro.testing.fuzzer import FleetConfigFuzzer, config_to_jsonable
from repro.testing.lanes import (
    CHUNKED_IO,
    PER_CHUNK_CPU,
    ReferenceFleetSimulation,
    per_chunk_cpu,
    run_reference,
)
from repro.workloads.fleet import FleetSimulation

DOCS = Path(__file__).resolve().parent.parent / "docs"


class TestConfigSurface:
    def test_fleet_config_fields(self):
        assert [f.name for f in fields(FleetConfig)] == [
            "queries",
            "seed",
            "parallel",
            "max_workers",
            "shards",
            "trace_sample_rate",
            "counter_jitter",
            "bigquery_dataset_rows",
            "fault_plans",
            "observability",
            "engine",
        ]

    def test_fleet_simulation_kwargs(self):
        params = inspect.signature(FleetSimulation).parameters
        assert list(params) == [
            "queries",
            "seed",
            "trace_sample_rate",
            "counter_jitter",
            "bigquery_dataset_rows",
            "fault_plans",
            "observability",
            "shards",
            "engine",
        ]

    def test_io_mode_is_provenance_only(self):
        # The benchmark records FleetConfig().io_mode on every run.
        assert FleetConfig().io_mode == "batched"
        assert FleetConfig(engine="columnar").io_mode == "batched"

    @pytest.mark.parametrize(
        "field, value", [("coalesce", False), ("io_mode", "chunked")]
    )
    def test_lane_fields_rejected(self, field, value):
        with pytest.raises(TypeError):
            FleetConfig(**{field: value})
        with pytest.raises(TypeError):
            FleetConfig().with_overrides(**{field: value})
        with pytest.raises(TypeError):
            FleetSimulation(**{field: value})
        with pytest.raises(TypeError):
            run_fleet({"queries": 1, field: value})

    def test_platform_has_no_lane_switches(self):
        assert "coalesce" not in inspect.signature(PlatformBase).parameters
        assert not hasattr(PlatformBase, "set_io_mode")

    def test_engine_default_matches_docs(self):
        text = (DOCS / "performance.md").read_text()
        match = re.search(r'\*\*Shipping default:\*\* `engine="(\w+)"`', text)
        assert match, "docs/performance.md must name the shipping default"
        documented = match.group(1)
        assert FleetConfig().engine == documented
        assert ServeConfig().engine == documented
        assert FleetSimulation().engine == documented
        parser = build_parser()
        for verb in ("fleet", "top", "serve"):
            assert parser.parse_args([verb]).engine == documented, verb


def _spy_readers(monkeypatch):
    """Count per-chunk and planned reads, keyed by DFS identity."""
    import repro.storage.dfs as dfs_module

    chunked: Counter = Counter()
    planned: Counter = Counter()
    read_chunked = DistributedFileSystem._read_chunked
    plan_read = dfs_module.plan_read

    def spy_chunked(self, *args, **kwargs):
        chunked[id(self)] += 1
        return read_chunked(self, *args, **kwargs)

    def spy_plan(dfs, *args, **kwargs):
        planned[id(dfs)] += 1
        return plan_read(dfs, *args, **kwargs)

    monkeypatch.setattr(DistributedFileSystem, "_read_chunked", spy_chunked)
    monkeypatch.setattr(dfs_module, "plan_read", spy_plan)
    return chunked, planned


class _RecordingFleet(FleetSimulation):
    """Keeps every platform it builds (sharded runs rebuild this class)."""

    built: list = []

    def build_platform(self, *args, **kwargs):
        platform = super().build_platform(*args, **kwargs)
        self.built.append(platform)
        return platform


class TestChaosPin:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_only_the_faulted_platform_reads_per_chunk(self, monkeypatch, shards):
        chunked, planned = _spy_readers(monkeypatch)
        monkeypatch.setattr(_RecordingFleet, "built", [])
        # A disk slowdown marks no server down, so the controller's pin is
        # the only thing that can route BigTable's reads per-chunk.
        plan = FaultPlan().slow_disk("storage-1", at=0.0, duration=1.0, factor=4.0)
        result = _RecordingFleet(
            queries={"Spanner": 4, "BigTable": 4, "BigQuery": 1},
            seed=3,
            bigquery_dataset_rows=1500,
            fault_plans={"BigTable": plan},
            shards=shards,
        ).run()
        assert set(result.chaos) == {"BigTable"}
        built = _RecordingFleet.built
        assert {platform.platform_name for platform in built} == {
            "Spanner", "BigTable", "BigQuery"
        }
        for platform in built:
            dfs = platform.dfs
            if platform.platform_name == "BigTable":
                assert dfs.io_mode == "chunked"
                assert chunked[id(dfs)] > 0 and planned[id(dfs)] == 0
            else:
                assert dfs.io_mode == "batched"
                assert planned[id(dfs)] > 0 and chunked[id(dfs)] == 0


def _spy_coalesced_cpu(monkeypatch):
    calls: Counter = Counter()
    for name in ("compute_batch", "compute_block"):
        original = getattr(ServerNode, name)

        def spy(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ServerNode, name, spy)
    return calls


QUERIES = {"Spanner": 3, "BigTable": 3, "BigQuery": 1}


class TestReferenceLanes:
    @pytest.mark.parametrize("engine", ["heap", "columnar"])
    def test_per_chunk_cpu_bypasses_every_coalesced_entry(self, monkeypatch, engine):
        # The lane must leave no coalesced CPU call anywhere in the run.
        calls = _spy_coalesced_cpu(monkeypatch)
        kwargs = dict(
            queries=QUERIES, seed=1, bigquery_dataset_rows=1500, engine=engine
        )
        FleetSimulation(**kwargs).run()
        assert sum(calls.values()) > 0
        calls.clear()
        ReferenceFleetSimulation(lanes=(PER_CHUNK_CPU,), **kwargs).run()
        assert sum(calls.values()) == 0

    def test_per_chunk_cpu_covers_rpc_client_chunks(self, monkeypatch):
        calls = _spy_coalesced_cpu(monkeypatch)

        def run(per_chunk: bool):
            env = Environment()
            client = ServerNode(env, "client", Topology("us", "us-c0", "r0"), 2)
            server = ServerNode(env, "server", Topology("us", "us-c0", "r1"), 2)
            if per_chunk:
                per_chunk_cpu(client)
            service = RpcService(server, "kv")

            @service.method("get")
            def get(ctx, request):
                yield from server.compute(ctx, "Tablet::TabletRead", 1e-3)
                return request

            profiler = FleetProfiler(sample_period=1e-4)
            trace = Trace(0, "q", 0.0)
            ctx = WorkContext(platform="BigTable", trace=trace, profiler=profiler)
            env.run(until=env.process(rpc_call(
                env, NetworkFabric(), ctx, client, service, "get", 1,
                client_send_chunks=[("proto2::Serialize", 2e-4), ("snappy::Raw", 1e-4)],
                client_recv_chunks=[("proto2::Parse", 1.5e-4), ("misc::Copy", 5e-5)],
            )))
            trace.finish(env.now)
            return env.now, span_rows(trace), sample_rows(profiler)

        coalesced = run(per_chunk=False)
        assert calls["compute_batch"] == 2
        calls.clear()
        assert run(per_chunk=True) == coalesced
        assert calls["compute_batch"] == 0

    def test_chunked_io_lane_never_plans(self, monkeypatch):
        chunked, planned = _spy_readers(monkeypatch)
        ReferenceFleetSimulation(
            queries=QUERIES, seed=1, bigquery_dataset_rows=1500, lanes=(CHUNKED_IO,)
        ).run()
        assert sum(chunked.values()) > 0
        assert sum(planned.values()) == 0

    @pytest.mark.parametrize("lane", [PER_CHUNK_CPU, CHUNKED_IO])
    def test_sharded_reference_run_matches_production(self, lane):
        config = FleetConfig(
            queries=QUERIES, seed=2, bigquery_dataset_rows=1500, shards=2
        )
        production = run_fleet(config)
        reference = run_reference(config, (lane,))
        assert diff_snapshots(
            _mask_engine_events(snapshot(production, traces=True)),
            _mask_engine_events(snapshot(reference, traces=True)),
        ) == []
        if lane == CHUNKED_IO:
            # The masked gauge is the one thing batching may move: one
            # event per tier-contiguous leg instead of one per chunk.
            assert _events(production) < _events(reference)

    def test_config_round_trips_lanes(self):
        sim = ReferenceFleetSimulation(queries=1, lanes=(CHUNKED_IO,))
        again = ReferenceFleetSimulation(**sim.config())
        assert again.lanes == (CHUNKED_IO,)
        assert again.config() == sim.config()

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError, match="unknown reference lanes"):
            ReferenceFleetSimulation(lanes=("per-chunk-gpu",))

    def test_pairs_still_registered(self):
        assert "coalescing" in MODE_PAIRS
        assert "batched-io" in MODE_PAIRS


def _events(result) -> int:
    return sum(p.env.events_processed for p in result.platforms.values())


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class TestFuzzerPrefixStability:
    """The storage-reader draw was the fuzzer's last; removing it left every
    earlier field of existing ``(seed, index)`` configs unchanged."""

    def test_config_that_drew_the_chunked_reader(self):
        # Index 6 of seed 7 used to draw the per-chunk reader.
        assert config_to_jsonable(FleetConfigFuzzer(7).config(6)) == {
            "queries": {"Spanner": 6, "BigTable": 3, "BigQuery": 2},
            "seed": 38936,
            "parallel": False,
            "max_workers": None,
            "shards": 1,
            "trace_sample_rate": 1,
            "counter_jitter": 0.02,
            "bigquery_dataset_rows": 4000,
            "observability": True,
            "fault_plans": None,
            "engine": "heap",
        }

    def test_config_with_fault_plans(self):
        row = config_to_jsonable(FleetConfigFuzzer(7).config(8))
        plans = row.pop("fault_plans")
        assert row == {
            "queries": {"Spanner": 6, "BigTable": 5, "BigQuery": 2},
            "seed": 58582,
            "parallel": False,
            "max_workers": 3,
            "shards": None,
            "trace_sample_rate": 1,
            "counter_jitter": 0.05,
            "bigquery_dataset_rows": 2000,
            "observability": None,
            "engine": "heap",
        }
        assert sorted(plans) == ["BigQuery", "BigTable"]
        assert _digest(plans) == (
            "f28cf950e8bbdb4fba8feae9b3a929ccb9119722e32a52544a4b3d5059f29517"
        )
