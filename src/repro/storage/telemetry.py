"""Capacity telemetry: the internal-logging view behind Table 1.

The paper's Table 1 reports petabytes of RAM : SSD : HDD *owned per
platform* "given by internal logging resources over a full week".  Here,
platforms register the tiered stores they provision; the telemetry
aggregates capacities (and access traffic) per platform and emits the same
normalized ratio rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.storage.device import DeviceKind
from repro.storage.tier import TieredStore

__all__ = ["CapacityTelemetry", "TelemetrySummary"]

PIB = float(2**50)


@dataclass
class CapacityTelemetry:
    """Aggregates provisioned capacity and traffic per platform."""

    _stores: dict[str, list[TieredStore]] = field(default_factory=dict)

    def register(self, platform: str, store: TieredStore) -> TieredStore:
        self._stores.setdefault(platform, []).append(store)
        return store

    def platforms(self) -> tuple[str, ...]:
        return tuple(self._stores)

    def capacity_bytes(self, platform: str, kind: DeviceKind) -> float:
        stores = self._stores.get(platform, [])
        return sum(store.capacity(kind) for store in stores)

    def storage_ratios(self, platform: str) -> tuple[float, float, float]:
        """RAM : SSD : HDD capacity normalized to RAM = 1 (a Table 1 row)."""
        ram = self.capacity_bytes(platform, DeviceKind.RAM)
        if ram <= 0:
            raise ValueError(f"{platform}: no RAM capacity registered")
        ssd = self.capacity_bytes(platform, DeviceKind.SSD)
        hdd = self.capacity_bytes(platform, DeviceKind.HDD)
        return (1.0, ssd / ram, hdd / ram)

    def reads_by_tier(self, platform: str) -> Mapping[DeviceKind, int]:
        """Read operations served per tier (Section 3: SSD reads should
        dominate HDD reads when caching works)."""
        totals = {kind: 0 for kind in DeviceKind}
        for store in self._stores.get(platform, []):
            for kind in DeviceKind:
                totals[kind] += store.stats.hits[kind]
        return totals

    def table1_rows(self) -> dict[str, tuple[float, float, float]]:
        """All platforms' ratio rows, ready for printing."""
        return {platform: self.storage_ratios(platform) for platform in self._stores}

    def publish(self, registry) -> None:
        """Publish capacity and read-traffic gauges into a metrics registry.

        ``repro_storage_capacity_bytes{platform,tier}`` and
        ``repro_storage_reads_total{platform,tier}``; read-only with respect
        to the stores themselves.
        """
        for platform in self._stores:
            for kind in DeviceKind:
                registry.set_gauge(
                    "repro_storage_capacity_bytes",
                    self.capacity_bytes(platform, kind),
                    "Provisioned storage capacity per tier",
                    platform=platform,
                    tier=kind.value,
                )
            for kind, reads in self.reads_by_tier(platform).items():
                registry.set_gauge(
                    "repro_storage_reads_total",
                    float(reads),
                    "Read operations served per tier",
                    platform=platform,
                    tier=kind.value,
                )

    def summary(self) -> "TelemetrySummary":
        """A picklable snapshot with the same read API.

        The live telemetry holds the platforms' :class:`TieredStore` objects
        (which hold simulation state and cannot cross a process boundary);
        the summary captures the per-platform capacity and read totals so a
        sharded run can ship its telemetry home and merge it.
        """
        return TelemetrySummary(
            capacities={
                platform: {
                    kind: self.capacity_bytes(platform, kind) for kind in DeviceKind
                }
                for platform in self._stores
            },
            reads={
                platform: dict(self.reads_by_tier(platform))
                for platform in self._stores
            },
        )


@dataclass
class TelemetrySummary:
    """Frozen per-platform capacity/read totals (picklable, mergeable).

    Exposes the same read API as :class:`CapacityTelemetry` --
    :meth:`platforms`, :meth:`capacity_bytes`, :meth:`storage_ratios`,
    :meth:`reads_by_tier`, :meth:`table1_rows` -- so downstream consumers
    (Table 1 rendering, tests) accept either interchangeably.
    """

    capacities: dict[str, dict[DeviceKind, float]] = field(default_factory=dict)
    reads: dict[str, dict[DeviceKind, int]] = field(default_factory=dict)

    @classmethod
    def merged(cls, summaries: Iterable["TelemetrySummary"]) -> "TelemetrySummary":
        """Combine shard summaries; platform order follows shard order."""
        result = cls()
        for summary in summaries:
            result.merge(summary)
        return result

    def merge(self, other: "TelemetrySummary") -> None:
        for platform, by_kind in other.capacities.items():
            mine = self.capacities.setdefault(platform, {kind: 0.0 for kind in DeviceKind})
            for kind, value in by_kind.items():
                mine[kind] = mine.get(kind, 0.0) + value
        for platform, by_kind in other.reads.items():
            mine = self.reads.setdefault(platform, {kind: 0 for kind in DeviceKind})
            for kind, value in by_kind.items():
                mine[kind] = mine.get(kind, 0) + value

    def platforms(self) -> tuple[str, ...]:
        return tuple(self.capacities)

    def capacity_bytes(self, platform: str, kind: DeviceKind) -> float:
        return self.capacities.get(platform, {}).get(kind, 0.0)

    def storage_ratios(self, platform: str) -> tuple[float, float, float]:
        ram = self.capacity_bytes(platform, DeviceKind.RAM)
        if ram <= 0:
            raise ValueError(f"{platform}: no RAM capacity registered")
        ssd = self.capacity_bytes(platform, DeviceKind.SSD)
        hdd = self.capacity_bytes(platform, DeviceKind.HDD)
        return (1.0, ssd / ram, hdd / ram)

    def reads_by_tier(self, platform: str) -> Mapping[DeviceKind, int]:
        totals = {kind: 0 for kind in DeviceKind}
        totals.update(self.reads.get(platform, {}))
        return totals

    def table1_rows(self) -> dict[str, tuple[float, float, float]]:
        return {
            platform: self.storage_ratios(platform) for platform in self.capacities
        }

    def publish(self, registry) -> None:
        """Same gauges as :meth:`CapacityTelemetry.publish`, from the frozen
        totals."""
        for platform in self.capacities:
            for kind in DeviceKind:
                registry.set_gauge(
                    "repro_storage_capacity_bytes",
                    self.capacity_bytes(platform, kind),
                    "Provisioned storage capacity per tier",
                    platform=platform,
                    tier=kind.value,
                )
            for kind, reads in self.reads_by_tier(platform).items():
                registry.set_gauge(
                    "repro_storage_reads_total",
                    float(reads),
                    "Read operations served per tier",
                    platform=platform,
                    tier=kind.value,
                )
