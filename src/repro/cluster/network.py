"""Network fabric model: locality-dependent latency plus bandwidth.

Google's datacenter network is a Clos topology with centralized control
(Jupiter, Section 2.1's "proprietary high-speed custom network").  For the
purposes of this reproduction, what matters is the latency/bandwidth *shape*
between endpoints at different localities: same rack, same cluster, same
region, or cross-region (Spanner replicates across regions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "Locality",
    "Topology",
    "TopologySelector",
    "LinkDegradation",
    "NetworkPartitioned",
    "NetworkFabric",
]


class NetworkPartitioned(IOError):
    """Raised when a transfer crosses an active network partition."""


_INF = float("inf")


class Locality(enum.Enum):
    """How far apart two endpoints are."""

    SAME_NODE = 0
    SAME_RACK = 1
    SAME_CLUSTER = 2
    SAME_REGION = 3
    CROSS_REGION = 4


@dataclass(frozen=True, slots=True)
class Topology:
    """Coordinates of a node in the fleet."""

    region: str
    cluster: str
    rack: str

    def locality_to(self, other: "Topology") -> Locality:
        if self.region != other.region:
            return Locality.CROSS_REGION
        if self.cluster != other.cluster:
            return Locality.SAME_REGION
        if self.rack != other.rack:
            return Locality.SAME_CLUSTER
        return Locality.SAME_RACK


@dataclass(frozen=True, slots=True)
class TopologySelector:
    """Matches a topology domain: any unset coordinate is a wildcard.

    ``TopologySelector(rack="r0")`` matches every node in any rack named
    ``r0``; ``TopologySelector(cluster="us-c0", rack="r0")`` pins the rack to
    one cluster.  Fault plans use selector pairs to express partitions and
    link degradations "between topology domains".
    """

    region: str | None = None
    cluster: str | None = None
    rack: str | None = None

    def matches(self, topology: Topology) -> bool:
        return (
            (self.region is None or topology.region == self.region)
            and (self.cluster is None or topology.cluster == self.cluster)
            and (self.rack is None or topology.rack == self.rack)
        )


@dataclass(frozen=True, slots=True)
class LinkDegradation:
    """A multiplicative penalty on traffic between two domains."""

    a: TopologySelector
    b: TopologySelector
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")

    def covers(self, src: Topology, dst: Topology) -> bool:
        return (self.a.matches(src) and self.b.matches(dst)) or (
            self.a.matches(dst) and self.b.matches(src)
        )


#: One-way latency (seconds) per locality, loosely modeled on production
#: numbers: ~5us in-rack, ~50us in-cluster, ~500us in-region metro links,
#: ~30ms cross-region WAN.
DEFAULT_LATENCY: dict[Locality, float] = {
    Locality.SAME_NODE: 0.0,
    Locality.SAME_RACK: 5e-6,
    Locality.SAME_CLUSTER: 50e-6,
    Locality.SAME_REGION: 500e-6,
    Locality.CROSS_REGION: 30e-3,
}

#: Effective per-flow bandwidth (bytes/s) per locality.
DEFAULT_BANDWIDTH: dict[Locality, float] = {
    Locality.SAME_NODE: float("inf"),
    Locality.SAME_RACK: 12.5e9,  # 100 Gb/s
    Locality.SAME_CLUSTER: 5.0e9,  # 40 Gb/s
    Locality.SAME_REGION: 1.25e9,  # 10 Gb/s
    Locality.CROSS_REGION: 0.125e9,  # 1 Gb/s WAN share
}


class NetworkFabric:
    """Latency + bandwidth cost model between topological coordinates."""

    def __init__(
        self,
        latency: dict[Locality, float] | None = None,
        bandwidth: dict[Locality, float] | None = None,
    ):
        self.latency = dict(DEFAULT_LATENCY)
        if latency:
            self.latency.update(latency)
        self.bandwidth = dict(DEFAULT_BANDWIDTH)
        if bandwidth:
            self.bandwidth.update(bandwidth)
        for locality in Locality:
            if self.latency[locality] < 0:
                raise ValueError(f"negative latency for {locality}")
            if self.bandwidth[locality] <= 0:
                raise ValueError(f"non-positive bandwidth for {locality}")
        self.bytes_transferred = 0.0
        self.messages_sent = 0
        self._partitions: list[tuple[TopologySelector, TopologySelector]] = []
        self._degradations: list[LinkDegradation] = []
        self.partition_drops = 0
        #: (id(src), id(dst)) -> (src, dst, latency, bandwidth, partitioned)
        #: with partitions and degradations folded in; dropped whenever fault
        #: state changes.  Keyed by object identity because endpoint Topology
        #: instances are long-lived node attributes and hashing two ints is
        #: much cheaper than hashing six strings on the per-message path; the
        #: entry pins both endpoints so their ids stay valid, and an identity
        #: check guards against a stale id hitting a recycled object.
        self._routes: dict[tuple[int, int], tuple] = {}
        #: Directed round-trip entries: both legs of :meth:`round_trip_time`
        #: folded into one lookup.  Same lifecycle as ``_routes``.
        self._rtt_routes: dict[tuple[int, int], tuple] = {}

    # -- fault injection -----------------------------------------------------

    def partition(
        self, a: TopologySelector, b: TopologySelector
    ) -> tuple[TopologySelector, TopologySelector]:
        """Cut all traffic between two domains; returns a handle for :meth:`heal`."""
        handle = (a, b)
        self._partitions.append(handle)
        self._routes.clear()
        self._rtt_routes.clear()
        return handle

    def heal(self, handle: tuple[TopologySelector, TopologySelector]) -> None:
        self._partitions.remove(handle)
        self._routes.clear()
        self._rtt_routes.clear()

    def degrade_link(
        self,
        a: TopologySelector,
        b: TopologySelector,
        *,
        latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
    ) -> LinkDegradation:
        """Slow traffic between two domains; returns a handle for :meth:`restore_link`."""
        degradation = LinkDegradation(a, b, latency_factor, bandwidth_factor)
        self._degradations.append(degradation)
        self._routes.clear()
        self._rtt_routes.clear()
        return degradation

    def restore_link(self, handle: LinkDegradation) -> None:
        self._degradations.remove(handle)
        self._routes.clear()
        self._rtt_routes.clear()

    def is_partitioned(self, src: Topology, dst: Topology) -> bool:
        return any(
            (a.matches(src) and b.matches(dst)) or (a.matches(dst) and b.matches(src))
            for a, b in self._partitions
        )

    # -- cost model ----------------------------------------------------------

    def _route(self, src: Topology, dst: Topology) -> tuple:
        """Resolve and cache the effective (latency, bandwidth, partitioned)."""
        partitioned = bool(self._partitions) and self.is_partitioned(src, dst)
        locality = src.locality_to(dst)
        bandwidth = self.bandwidth[locality]
        latency = self.latency[locality]
        if self._degradations:
            for degradation in self._degradations:
                if degradation.covers(src, dst):
                    latency *= degradation.latency_factor
                    bandwidth *= degradation.bandwidth_factor
        route = (src, dst, latency, bandwidth, partitioned)
        self._routes[(id(src), id(dst))] = route
        return route

    def transfer_time(self, src: Topology, dst: Topology, nbytes: float) -> float:
        """One-way message time: propagation plus serialization delay."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        route = self._routes.get((id(src), id(dst)))
        if route is None or route[0] is not src or route[1] is not dst:
            route = self._route(src, dst)
        _, _, latency, bandwidth, partitioned = route
        if partitioned:
            self.partition_drops += 1
            raise NetworkPartitioned(f"no route from {src} to {dst} (partitioned)")
        self.bytes_transferred += nbytes
        self.messages_sent += 1
        transmission = 0.0 if bandwidth == _INF else nbytes / bandwidth
        return latency + transmission

    def round_trip_time(
        self, src: Topology, dst: Topology, request_bytes: float, response_bytes: float
    ) -> float:
        """Request leg plus response leg.

        Inlined two-leg :meth:`transfer_time` (this sits on the per-chunk
        DFS read path): same checks, counter updates, and float evaluation
        order, one call frame.
        """
        rtt = self._rtt_routes.get((id(src), id(dst)))
        if rtt is None or rtt[0] is not src or rtt[1] is not dst:
            routes = self._routes
            fwd = routes.get((id(src), id(dst)))
            if fwd is None or fwd[0] is not src or fwd[1] is not dst:
                fwd = self._route(src, dst)
            rev = routes.get((id(dst), id(src)))
            if rev is None or rev[0] is not dst or rev[1] is not src:
                rev = self._route(dst, src)
            rtt = (src, dst, fwd[2], fwd[3], fwd[4], rev[2], rev[3], rev[4])
            self._rtt_routes[(id(src), id(dst))] = rtt
        if request_bytes < 0:
            raise ValueError("nbytes must be non-negative")
        if rtt[4]:
            self.partition_drops += 1
            raise NetworkPartitioned(f"no route from {src} to {dst} (partitioned)")
        self.bytes_transferred += request_bytes
        self.messages_sent += 1
        bandwidth = rtt[3]
        forward = rtt[2] + (0.0 if bandwidth == _INF else request_bytes / bandwidth)
        if response_bytes < 0:
            raise ValueError("nbytes must be non-negative")
        if rtt[7]:
            self.partition_drops += 1
            raise NetworkPartitioned(f"no route from {dst} to {src} (partitioned)")
        self.bytes_transferred += response_bytes
        self.messages_sent += 1
        bandwidth = rtt[6]
        reverse = rtt[5] + (0.0 if bandwidth == _INF else response_bytes / bandwidth)
        return forward + reverse
