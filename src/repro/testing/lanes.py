"""Reference lanes: the per-chunk twins of the production fast paths.

The fleet runs one production path per layer: coalesced CPU runs
(``ServerNode.compute_batch`` / ``compute_block``) drained in blocks by
the heap engine, and batched storage reads.  Their slow twins are kept
only as oracles for the ``coalescing``, ``batched-io``, ``engine``,
``service`` and ``store`` differential pairs and the heap-drain tests,
and are switched on here:

* ``"per-chunk-cpu"`` -- every cluster node's coalesced CPU entry points
  run chunk by chunk through ``ServerNode.compute`` (RPC client chunks
  included);
* ``"chunked-io"`` -- every DFS reads through its per-chunk reader, the
  lane an attached chaos controller pins;
* ``"per-boundary"`` -- every platform environment pops each coalesced
  CPU chunk boundary as its own heap event (no recorder block drain).

:func:`run_reference` runs a fleet config on chosen lanes, and
:func:`on_lanes` switches them on for code that builds its own fleet,
such as a service run.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import MethodType
from typing import Iterable, Iterator

from repro.workloads.fleet import FleetSimulation

PER_CHUNK_CPU = "per-chunk-cpu"
CHUNKED_IO = "chunked-io"
PER_BOUNDARY = "per-boundary"
REFERENCE_LANES = (PER_CHUNK_CPU, CHUNKED_IO, PER_BOUNDARY)


def _compute_per_chunk(node, ctx, chunks):
    for function, duration in chunks:
        yield from node.compute(ctx, function, duration)


def per_chunk_cpu(node) -> None:
    """Send one node's coalesced CPU entry points through per-chunk compute."""
    node.compute_batch = MethodType(_compute_per_chunk, node)
    node.compute_block = lambda ctx, block: _compute_per_chunk(
        node, ctx, block.pairs()
    )


def chunked_reader(dfs) -> None:
    """Pin a DFS to its per-chunk reader (one Timeout per chunk)."""
    dfs.io_mode = "chunked"


def per_boundary(env) -> None:
    """Keep one environment's drain bound at ``-inf``: one pop per boundary."""
    env.drain_batches = False


def _checked(lanes: Iterable[str]) -> tuple[str, ...]:
    lanes = tuple(lanes)
    unknown = set(lanes) - set(REFERENCE_LANES)
    if unknown:
        raise ValueError(f"unknown reference lanes {sorted(unknown)}")
    return lanes


def _switch_lanes(platform, lanes: tuple[str, ...]):
    """Put one freshly built platform on the given reference lanes."""
    if PER_CHUNK_CPU in lanes:
        for node in platform.cluster.nodes:
            per_chunk_cpu(node)
    if CHUNKED_IO in lanes:
        chunked_reader(platform.dfs)
    if PER_BOUNDARY in lanes:
        per_boundary(platform.env)
    return platform


class ReferenceFleetSimulation(FleetSimulation):
    """A :class:`FleetSimulation` whose platforms run on reference lanes."""

    def __init__(self, *, lanes: Iterable[str] = REFERENCE_LANES, **kwargs):
        self.lanes = _checked(lanes)
        super().__init__(**kwargs)

    def config(self) -> dict:
        return {**super().config(), "lanes": self.lanes}

    def build_platform(self, *args, **kwargs):
        return _switch_lanes(super().build_platform(*args, **kwargs), self.lanes)


def run_reference(config, lanes: Iterable[str] = REFERENCE_LANES):
    """Run a ``FleetConfig`` sequentially on the given reference lanes,
    resolved (shard geometry included) exactly as ``run_fleet`` would."""
    from repro.api import build_simulation

    sim = build_simulation(config, parallel=False)
    return ReferenceFleetSimulation(lanes=lanes, **sim.config()).run()


@contextmanager
def on_lanes(lanes: Iterable[str]) -> Iterator[None]:
    """Within the block, every platform a :class:`FleetSimulation` builds
    runs on the given reference lanes.

    For drivers that build their own simulation, such as the service
    window loop behind ``run_service`` and ``repro serve``: it is patched
    into ``FleetSimulation.build_platform`` and undone on exit.
    """
    lanes = _checked(lanes)
    build_platform = FleetSimulation.build_platform

    def build_on_lanes(self, *args, **kwargs):
        return _switch_lanes(build_platform(self, *args, **kwargs), lanes)

    FleetSimulation.build_platform = build_on_lanes
    try:
        yield
    finally:
        FleetSimulation.build_platform = build_platform
