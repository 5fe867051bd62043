"""Batched IO legs: the stackless multi-chunk read planner.

The per-chunk DFS reader costs one ``Timeout`` event *and* one generator
resume per chunk -- and every resume re-traverses the whole ``yield from``
delegation stack (serve -> query -> dependency phase -> budget realization
-> DFS read), which profiling shows is the dominant residual cost of the
sequential fleet run.  :func:`plan_read` computes the entire read at plan
time instead: replica order, tier hits, and per-chunk service times from
the same chunk-range walk, accumulated on the identical float chain the
chunk-by-chunk reader would have produced.  The read then executes as a
small number of coalesced events -- one *leg* per contiguous run of chunks
served by the same device tier -- and exactly one generator resume, on the
final leg's timestamp.

Parity contract (guarded by the ``batched-io`` differential pair):

* **Timing** -- the plan accumulates ``t = t + (device_time +
  network_time)`` per chunk, the same operand order as the per-chunk
  reader's ``Timeout`` arithmetic, so the completion timestamp is
  bit-identical.
* **State** -- cache promotions, admission-policy callbacks, and device
  counters advance eagerly at plan time (later chunks of the same plan
  must see them; no other reader can interleave, because the planner is
  only used when no mid-read mutation source is live -- see
  ``DistributedFileSystem.read``).  The :class:`~repro.storage.tier.TierStats`
  tallies are deferred to each leg's completion time via the returned
  legs, so an observability scrape between legs reads the same
  hit-counter progression the per-chunk reader exposes at leg
  granularity.
* **Faults** -- a chunk whose every replica is unreachable ends the plan
  early (``partitioned`` carries the chunk id); the caller reproduces the
  per-chunk reader's error span and exception.  Reads overlapping a
  *changing* down-set or an attached chaos controller never reach the
  planner at all: the DFS degrades those to the per-chunk path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.cluster.network import NetworkPartitioned
from repro.storage.device import DeviceKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.network import Topology
    from repro.storage.dfs import DistributedFileSystem, FileMeta

__all__ = ["ReadLeg", "ReadPlan", "plan_read"]


class ReadLeg:
    """One contiguous same-tier segment of a planned read.

    ``end`` is the absolute simulation time the segment completes;
    ``apply`` lands the segment's deferred per-store hit tallies and is
    scheduled (or called) at exactly that time.
    """

    __slots__ = ("tier", "end", "stats")

    def __init__(self, tier: DeviceKind, end: float, stats: list):
        self.tier = tier
        self.end = end
        #: One TierStats entry per chunk in the leg (duplicates allowed --
        #: the per-chunk reader increments per access, not per store).
        self.stats = stats

    @property
    def chunks(self) -> int:
        return len(self.stats)

    def apply(self) -> None:
        tier = self.tier
        for stats in self.stats:
            stats.accesses += 1
            stats.hits[tier] += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReadLeg {self.tier.value} x{len(self.stats)} end={self.end}>"


class ReadPlan:
    """A fully-resolved multi-chunk read: legs, totals, and the end time."""

    __slots__ = ("legs", "served", "failovers", "hits_by_tier", "end", "partitioned")

    def __init__(self, start: float):
        self.legs: list[ReadLeg] = []
        self.served = 0.0
        self.failovers = 0
        self.hits_by_tier: dict[DeviceKind, int] = {}
        #: Completion time of the last *planned* chunk (== ``start`` for an
        #: empty range or a partition on the very first chunk).
        self.end = start
        #: Chunk id whose replicas were all unreachable, or None on success.
        self.partitioned: str | None = None


def plan_read(
    dfs: "DistributedFileSystem",
    reader: "Topology",
    meta: "FileMeta",
    offset: float,
    size: float,
    start: float,
) -> ReadPlan:
    """Resolve a byte-range read into tier-contiguous legs at one instant.

    Walks the same chunk range, replica order, failover loop, and tiered
    store as the per-chunk reader, mutating cache/admission/device/fabric
    state in the identical order -- only the event schedule and the
    :class:`~repro.storage.tier.TierStats` tally points differ.
    """
    plan = ReadPlan(start)
    fabric = dfs.fabric
    round_trip_time = fabric.round_trip_time
    # Per-plan RTT memo: fabric routes cannot change mid-plan (the planner
    # runs atomically, and mutation sources degrade the DFS to the
    # per-chunk path), so identical (server, nbytes) requests inside one
    # plan reuse the time and replay only the two-message traffic
    # accounting.  Failures are never cached: a partitioned route must
    # re-raise (and re-count the drop) on every attempt.
    rtt_times: dict = {}
    per_reader = dfs._replica_order.get(id(reader))
    if per_reader is None or per_reader[0] is not reader:
        per_reader = dfs._replica_order[id(reader)] = (reader, {})
    reader_orders = per_reader[1]
    end = offset + size
    bounds = meta._bounds
    if bounds is None:
        # Same accumulation as the per-chunk walk so chunk boundaries land
        # on bit-identical floats (see _chunks_for_range).
        starts: list[float] = []
        chunk_ends: list[float] = []
        position = 0.0
        for chunk in meta.chunks:
            starts.append(position)
            position += chunk.size
            chunk_ends.append(position)
        bounds = meta._bounds = (starts, chunk_ends)
    starts, chunk_ends = bounds
    chunks = meta.chunks
    nchunks = len(chunks)
    index = bisect_right(chunk_ends, offset)
    t = start
    hits_by_tier = plan.hits_by_tier
    legs = plan.legs
    leg_tier: DeviceKind | None = None
    leg_stats: list = []
    last_leg: ReadLeg | None = None
    while index < nchunks and starts[index] < end:
        chunk = chunks[index]
        # Conditional expressions instead of min()/max(): same operands,
        # same result bits, no builtin call frames on the hot loop.
        chunk_end = chunk_ends[index]
        chunk_start = starts[index]
        nbytes = (chunk_end if chunk_end <= end else end) - (
            chunk_start if chunk_start >= offset else offset
        )
        index += 1
        order = reader_orders.get(chunk.replicas)
        if order is None:
            order = dfs._replicas_by_locality(chunk, reader)
        # Closest replica first; fail over across a partition to the next
        # reachable one (same loop as the per-chunk reader).
        for server in order:
            key = (id(server), nbytes)
            network_time = rtt_times.get(key)
            if network_time is None:
                try:
                    network_time = round_trip_time(
                        reader, server.topology, 256.0, nbytes
                    )
                except NetworkPartitioned:
                    plan.failovers += 1
                    continue
                rtt_times[key] = network_time
            else:
                # Two separate adds, mirroring round_trip_time's request
                # then response legs, so the float accumulation of the
                # traffic counter stays bit-identical.
                fabric.bytes_transferred += 256.0
                fabric.bytes_transferred += nbytes
                fabric.messages_sent += 2
            device_time, tier = server.store.read_planned(chunk.chunk_id, nbytes)
            t = t + (device_time + network_time)
            plan.served += nbytes
            hits_by_tier[tier] = hits_by_tier.get(tier, 0) + 1
            if tier is not leg_tier:
                leg_stats = [server.store.stats]
                last_leg = ReadLeg(tier, t, leg_stats)
                legs.append(last_leg)
                leg_tier = tier
            else:
                leg_stats.append(server.store.stats)
                last_leg.end = t
            break
        else:
            plan.end = t
            plan.partitioned = chunk.chunk_id
            return plan
    plan.end = t
    return plan
