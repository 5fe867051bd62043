"""Workload profiles consumed by the analytical model.

A :class:`PlatformProfile` is the bridge between the measurement half of the
paper (Sections 3-5) and the modeling half (Section 6).  It captures, for one
platform:

* the *query groups* of Figure 2 ("CPU Heavy", "IO Heavy", "Remote Work
  Heavy", "Others") with their end-to-end time breakdowns,
* the fine-grained CPU cycle decomposition of Figures 3-6 (fraction of CPU
  cycles per taxonomy category),
* the average number of bytes touched per query (used as ``B_i`` in the
  off-chip studies of Section 6.3.2).

Profiles can be built two ways: from the calibrated paper aggregates
(:mod:`repro.workloads.calibration`) or measured by running the platform
simulators under the profiling pipeline (:mod:`repro.profiling`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.parameters import WorkloadTimes

__all__ = [
    "QueryGroupProfile",
    "PlatformProfile",
    "CPU_HEAVY",
    "IO_HEAVY",
    "REMOTE_HEAVY",
    "OTHERS",
    "QUERY_GROUPS",
]

# Canonical query-group names (Section 4.2).
CPU_HEAVY = "CPU Heavy"
IO_HEAVY = "IO Heavy"
REMOTE_HEAVY = "Remote Work Heavy"
OTHERS = "Others"
QUERY_GROUPS: tuple[str, ...] = (CPU_HEAVY, IO_HEAVY, REMOTE_HEAVY, OTHERS)


@dataclass(frozen=True, slots=True)
class QueryGroupProfile:
    """Aggregate execution profile of one query group on one platform.

    ``cpu_fraction``, ``remote_fraction`` and ``io_fraction`` partition the
    total *serialized* work of an average query in the group (they must sum
    to 1).  ``t_e2e`` is derived from the serialized work and the sync
    factor ``f`` via Equation 1, so with ``f = 1`` (no overlap) the
    fractions are exactly the stacked bars of Figure 2.

    Attributes:
        name: one of :data:`QUERY_GROUPS`.
        query_fraction: fraction of the platform's queries in this group.
        t_serial: total serialized work of an average query (s).
        cpu_fraction: share of serialized work spent on CPU.
        remote_fraction: share spent waiting on remote workers.
        io_fraction: share spent on distributed storage IO.
        f: sync factor between CPU and non-CPU time (Equation 1).
    """

    name: str
    query_fraction: float
    t_serial: float
    cpu_fraction: float
    remote_fraction: float
    io_fraction: float
    f: float = 1.0

    def __post_init__(self) -> None:
        total = self.cpu_fraction + self.remote_fraction + self.io_fraction
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(
                f"group {self.name!r}: cpu+remote+io fractions must sum to 1, got {total!r}"
            )
        if not 0.0 <= self.query_fraction <= 1.0:
            raise ValueError(f"query_fraction must be in [0, 1], got {self.query_fraction!r}")
        if self.t_serial <= 0.0:
            raise ValueError(f"t_serial must be positive, got {self.t_serial!r}")

    @property
    def t_cpu(self) -> float:
        return self.cpu_fraction * self.t_serial

    @property
    def t_remote(self) -> float:
        return self.remote_fraction * self.t_serial

    @property
    def t_io(self) -> float:
        return self.io_fraction * self.t_serial

    @property
    def t_dep(self) -> float:
        """Non-CPU dependency time: remote work plus IO."""
        return self.t_remote + self.t_io

    @property
    def dep_fraction(self) -> float:
        return self.remote_fraction + self.io_fraction

    def workload_times(self) -> WorkloadTimes:
        """The Equation 1 inputs for this group."""
        return WorkloadTimes(t_cpu=self.t_cpu, t_dep=self.t_dep, f=self.f)

    @property
    def t_e2e(self) -> float:
        return self.workload_times().t_e2e


@dataclass(frozen=True, slots=True)
class PlatformProfile:
    """Everything the Section 6 studies need to know about one platform."""

    platform: str
    groups: tuple[QueryGroupProfile, ...]
    cpu_component_fractions: Mapping[str, float]
    bytes_per_query: float

    def __post_init__(self) -> None:
        total_queries = sum(group.query_fraction for group in self.groups)
        if not math.isclose(total_queries, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(
                f"{self.platform}: group query fractions must sum to 1, got {total_queries!r}"
            )
        total_components = sum(self.cpu_component_fractions.values())
        if total_components > 1.0 + 1e-9:
            raise ValueError(
                f"{self.platform}: CPU component fractions exceed 1: {total_components!r}"
            )
        if self.bytes_per_query < 0:
            raise ValueError("bytes_per_query must be non-negative")

    def group(self, name: str) -> QueryGroupProfile:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(f"{self.platform} has no query group named {name!r}")

    def component_times(self, group: QueryGroupProfile) -> dict[str, float]:
        """Per-category CPU seconds for an average query in ``group``.

        The fine-grained cycle decomposition (Figures 3-6) is a platform-wide
        aggregate, so the same relative split is applied to each group's CPU
        time -- the simplification the paper's limit studies also make.
        """
        return {
            name: fraction * group.t_cpu
            for name, fraction in self.cpu_component_fractions.items()
        }

    # -- platform-wide aggregates ------------------------------------------

    @property
    def overall_breakdown(self) -> dict[str, float]:
        """Time-weighted overall (cpu, remote, io) fractions -- Figure 2's
        "Overall Average" bar."""
        weights = [group.query_fraction * group.t_serial for group in self.groups]
        total = sum(weights)
        cpu = sum(w * g.cpu_fraction for w, g in zip(weights, self.groups)) / total
        remote = sum(w * g.remote_fraction for w, g in zip(weights, self.groups)) / total
        io = sum(w * g.io_fraction for w, g in zip(weights, self.groups)) / total
        return {"cpu": cpu, "remote": remote, "io": io}

    @property
    def mean_t_e2e(self) -> float:
        """Query-weighted mean end-to-end time."""
        return sum(group.query_fraction * group.t_e2e for group in self.groups)

    def overall_group(self) -> QueryGroupProfile:
        """A synthetic group equal to the platform-wide average query."""
        t_serial = sum(g.query_fraction * g.t_serial for g in self.groups)
        breakdown = self.overall_breakdown
        f = sum(
            g.query_fraction * g.t_serial * g.f for g in self.groups
        ) / t_serial
        return QueryGroupProfile(
            name="Overall Average",
            query_fraction=1.0,
            t_serial=t_serial,
            cpu_fraction=breakdown["cpu"],
            remote_fraction=breakdown["remote"],
            io_fraction=breakdown["io"],
            f=f,
        )
