"""Microarchitectural counter model (Section 5.6, Tables 6-7).

The fleet profiler attaches performance-counter readings to CPU samples.
We model a sample's counters from per-(platform, broad-category) *event
rates*: an IPC plus misses-per-kilo-instruction for branches, L1I, L2I, LLC,
ITLB and DTLB loads.  Aggregating samples cycle-weighted across categories
reproduces the platform-level Table 6 from the per-category Table 7 -- the
same mixture relation that holds in the paper's published numbers.

A simple :class:`StallModel` relates miss rates to IPC (CPI = base CPI +
sum of per-event penalties), supporting the paper's Section 5.6 reading
that the databases' low IPC follows from their frontend miss rates.  Its
penalty weights can be fit to Table 7 with non-negative least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "EVENT_NAMES",
    "CounterRates",
    "CounterSample",
    "PerfCounterModel",
    "CounterAggregate",
    "StallModel",
]

#: Counter event names, in Table 6/7 presentation order.
EVENT_NAMES: tuple[str, ...] = ("br", "l1i", "l2i", "llc", "itlb", "dtlb_ld")


@dataclass(frozen=True, slots=True)
class CounterRates:
    """IPC plus MPKI event rates for one (platform, category) pair."""

    ipc: float
    br: float
    l1i: float
    l2i: float
    llc: float
    itlb: float
    dtlb_ld: float

    def mpki(self, event: str) -> float:
        if event not in EVENT_NAMES:
            raise KeyError(f"unknown counter event {event!r}")
        return getattr(self, event)

    def as_vector(self) -> np.ndarray:
        return np.array([self.mpki(event) for event in EVENT_NAMES])


@dataclass(frozen=True, slots=True)
class CounterSample:
    """Counters attached to one CPU sample."""

    cycles: float
    instructions: float
    misses: Mapping[str, float]

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class PerfCounterModel:
    """Draws counter readings for CPU work in a given broad category.

    Args:
        rates_by_category: broad-category key (``"core"``, ``"dctax"``,
            ``"systax"``) -> :class:`CounterRates`.
        jitter: relative gaussian noise applied to instruction counts and
            miss counts per sample (0 disables noise).
    """

    def __init__(
        self,
        rates_by_category: Mapping[str, CounterRates],
        *,
        jitter: float = 0.0,
    ):
        if not rates_by_category:
            raise ValueError("rates_by_category must not be empty")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._rates = dict(rates_by_category)
        self._jitter = jitter
        # Vectorized lookup tables for sample_many (the rate table is
        # immutable after construction).
        self._row_of = {key: i for i, key in enumerate(self._rates)}
        self._ipc_vec = np.array([rates.ipc for rates in self._rates.values()])
        self._mpki_mat = np.array(
            [rates.as_vector() for rates in self._rates.values()]
        )

    @property
    def jitter(self) -> float:
        return self._jitter

    def rates_for(self, broad_key: str) -> CounterRates:
        try:
            return self._rates[broad_key]
        except KeyError:
            raise KeyError(f"no counter rates for category {broad_key!r}") from None

    def sample(
        self, broad_key: str, cycles: float, rng: np.random.Generator | None = None
    ) -> CounterSample:
        """Counters for ``cycles`` of work in ``broad_key``."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        rates = self.rates_for(broad_key)

        def noisy(value: float) -> float:
            if self._jitter == 0.0 or rng is None or value == 0.0:
                return value
            return max(0.0, value * (1.0 + rng.normal(0.0, self._jitter)))

        instructions = noisy(cycles * rates.ipc)
        misses = {
            event: noisy(instructions * rates.mpki(event) / 1000.0)
            for event in EVENT_NAMES
        }
        return CounterSample(cycles=cycles, instructions=instructions, misses=misses)

    def sample_many(
        self,
        broad_keys: Sequence[str],
        cycles: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`sample` for a whole batch of CPU samples.

        Returns ``(instructions, misses)`` where ``instructions`` has shape
        ``(n,)`` and ``misses`` has shape ``(n, len(EVENT_NAMES))`` in
        :data:`EVENT_NAMES` column order.  With jitter enabled and an ``rng``
        supplied, noise for the batch is one ``(n, 7)`` gaussian block --
        instructions first, then the six miss events, mirroring the scalar
        path's miss-from-noisy-instructions chaining.
        """
        cycles = np.asarray(cycles, dtype=float)
        if cycles.ndim != 1:
            raise ValueError("cycles must be a 1-d array")
        if cycles.size and cycles.min() < 0:
            raise ValueError("cycles must be non-negative")
        row_of = self._row_of
        try:
            rows = np.fromiter(
                (row_of[key] for key in broad_keys),
                dtype=np.intp,
                count=cycles.size,
            )
        except KeyError as exc:
            raise KeyError(
                f"no counter rates for category {exc.args[0]!r}"
            ) from None
        instructions = cycles * self._ipc_vec[rows]
        if self._jitter and rng is not None:
            noise = 1.0 + rng.normal(
                0.0, self._jitter, size=(cycles.size, 1 + len(EVENT_NAMES))
            )
            instructions = np.maximum(0.0, instructions * noise[:, 0])
            misses = instructions[:, None] * self._mpki_mat[rows] / 1000.0
            misses = np.maximum(0.0, misses * noise[:, 1:])
        else:
            misses = instructions[:, None] * self._mpki_mat[rows] / 1000.0
        return instructions, misses


@dataclass
class CounterAggregate:
    """Accumulates samples into Table 6/7-style IPC and MPKI statistics."""

    cycles: float = 0.0
    instructions: float = 0.0
    misses: dict[str, float] = field(
        default_factory=lambda: {event: 0.0 for event in EVENT_NAMES}
    )

    def add(self, sample: CounterSample) -> None:
        self.cycles += sample.cycles
        self.instructions += sample.instructions
        for event, count in sample.misses.items():
            self.misses[event] = self.misses.get(event, 0.0) + count

    def merge(self, other: "CounterAggregate") -> None:
        self.cycles += other.cycles
        self.instructions += other.instructions
        for event, count in other.misses.items():
            self.misses[event] = self.misses.get(event, 0.0) + count

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def mpki(self, event: str) -> float:
        if not self.instructions:
            return 0.0
        return self.misses.get(event, 0.0) / self.instructions * 1000.0


class StallModel:
    """IPC from miss rates: ``CPI = base + sum_e penalty_e * MPKI_e / 1000``.

    The per-event penalties are effective stall cycles per miss.  They can
    be fit from observed (rates, IPC) pairs -- e.g. the nine Table 7 rows --
    with non-negative least squares.
    """

    def __init__(self, base_cpi: float, penalties: Mapping[str, float]):
        if base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        unknown = set(penalties) - set(EVENT_NAMES)
        if unknown:
            raise KeyError(f"unknown counter events: {sorted(unknown)}")
        negative = {k for k, v in penalties.items() if v < 0}
        if negative:
            raise ValueError(f"negative penalties: {sorted(negative)}")
        self.base_cpi = base_cpi
        self.penalties = {event: penalties.get(event, 0.0) for event in EVENT_NAMES}

    def predict_cpi(self, rates: CounterRates) -> float:
        stall = sum(
            self.penalties[event] * rates.mpki(event) / 1000.0
            for event in EVENT_NAMES
        )
        return self.base_cpi + stall

    def predict_ipc(self, rates: CounterRates) -> float:
        return 1.0 / self.predict_cpi(rates)

    @classmethod
    def fit(
        cls, observations: Sequence[CounterRates], *, base_cpi: float = 0.3
    ) -> "StallModel":
        """Fit penalties to observed rates via projected least squares.

        Solves ``CPI_obs - base = A @ p`` for non-negative ``p`` by iterating
        ordinary least squares with negative coefficients clamped and refit
        (a small active-set scheme adequate for six regressors).
        """
        if not observations:
            raise ValueError("need at least one observation")
        targets = np.array([1.0 / obs.ipc - base_cpi for obs in observations])
        matrix = np.array([obs.as_vector() / 1000.0 for obs in observations])
        active = list(range(len(EVENT_NAMES)))
        coefficients = np.zeros(len(EVENT_NAMES))
        for _ in range(len(EVENT_NAMES)):
            if not active:
                break
            solution, *_ = np.linalg.lstsq(matrix[:, active], targets, rcond=None)
            negative = [i for i, value in zip(active, solution) if value < 0]
            if not negative:
                for i, value in zip(active, solution):
                    coefficients[i] = value
                break
            active = [i for i in active if i not in negative]
        penalties = {
            event: float(coefficients[i]) for i, event in enumerate(EVENT_NAMES)
        }
        return cls(base_cpi=base_cpi, penalties=penalties)

    def mean_relative_error(self, observations: Iterable[CounterRates]) -> float:
        errors = [
            abs(self.predict_ipc(obs) - obs.ipc) / obs.ipc for obs in observations
        ]
        if not errors:
            raise ValueError("no observations")
        return float(math.fsum(errors) / len(errors))
