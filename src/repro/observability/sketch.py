"""Streaming quantile sketches for observability histograms.

Latency distributions are summarized online with the P² algorithm (Jain &
Chlamtac, 1985): each tracked quantile keeps five markers whose heights are
adjusted with a piecewise-parabolic update as observations stream in, giving
O(1) memory per quantile and no buffering of raw values.  The estimator is
fully deterministic -- same observation stream, same estimate -- which the
observability layer relies on for golden-file exports and for sequential /
parallel run parity.

Service mode (``repro serve``) adds the *windowed* variants: a
:class:`WindowedQuantileSketch` holds a ring of per-bucket estimators over
the trailing window and answers quantile queries from the live buckets
only, so a long-lived stream decays old observations at bucket granularity
under strictly bounded memory (``buckets x quantiles x 5`` markers, no raw
buffering beyond the five-observation exact phase of each bucket).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

__all__ = [
    "P2Quantile",
    "QuantileSketch",
    "WindowedQuantileSketch",
    "DEFAULT_QUANTILES",
]

#: Quantiles tracked by default (the usual latency SLO trio).
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)


class P2Quantile:
    """One streaming quantile estimate via the P² algorithm.

    Exact while fewer than five observations have arrived (it interpolates
    the sorted buffer); afterwards the five markers track the quantile with
    bounded error and constant memory.
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            bisect.insort(heights, value)
            return
        # Locate the marker cell containing the observation.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while cell < 3 and heights[cell + 1] <= value:
                cell += 1
        positions = self._positions
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        rates = self._rates
        for i in range(5):
            desired[i] += rates[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        heights = self._heights
        if not heights:
            return 0.0
        if self.count <= 5:
            return _interpolated(heights, self.q)
        return heights[2]


def _interpolated(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a small sorted buffer."""
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return _lerp(ordered[low], ordered[high], frac)


def _lerp(low: float, high: float, frac: float) -> float:
    """``low*(1-frac) + high*frac`` clamped to ``[low, high]``: the blend can
    land one ulp outside its endpoints, even when they are equal."""
    return min(max(low * (1.0 - frac) + high * frac, low), high)


class QuantileSketch:
    """A bundle of :class:`P2Quantile` estimators sharing one stream."""

    __slots__ = ("_estimators",)

    def __init__(self, quantiles: Iterable[float] = DEFAULT_QUANTILES):
        quantiles = tuple(quantiles)
        if not quantiles:
            raise ValueError("need at least one quantile")
        self._estimators = {q: P2Quantile(q) for q in quantiles}

    @property
    def quantiles(self) -> tuple[float, ...]:
        return tuple(self._estimators)

    def observe(self, value: float) -> None:
        for estimator in self._estimators.values():
            estimator.observe(value)

    def quantile(self, q: float) -> float:
        try:
            return self._estimators[q].value()
        except KeyError:
            raise KeyError(f"quantile {q} not tracked (have {self.quantiles})") from None

    def values(self) -> dict[float, float]:
        return {q: est.value() for q, est in self._estimators.items()}


def _weighted_interpolated(points: Sequence[tuple[float, float]], q: float) -> float:
    """Quantile of weighted points ``(value, weight)`` sorted by value.

    Each point sits at rank-center ``c + (w - 1) / 2`` where ``c`` is the
    cumulative weight before it; the query rank is ``q * (W - 1)`` for total
    weight ``W``.  With unit weights this reduces exactly to
    :func:`_interpolated`, which is what makes the windowed sketch exact
    while every live bucket is still in its raw-buffer phase.
    """
    total = 0.0
    for _, weight in points:
        total += weight
    if total <= 0.0:
        return 0.0
    rank = q * (total - 1.0)
    centers: list[tuple[float, float]] = []
    cumulative = 0.0
    for value, weight in points:
        centers.append((cumulative + (weight - 1.0) / 2.0, value))
        cumulative += weight
    if rank <= centers[0][0]:
        return centers[0][1]
    if rank >= centers[-1][0]:
        return centers[-1][1]
    for i in range(1, len(centers)):
        high_pos, high_val = centers[i]
        if high_pos >= rank:
            low_pos, low_val = centers[i - 1]
            if high_pos <= low_pos:
                return high_val
            frac = (rank - low_pos) / (high_pos - low_pos)
            return _lerp(low_val, high_val, frac)
    return centers[-1][1]


class _WindowBucket:
    """Per-bucket estimator state inside a :class:`WindowedQuantileSketch`."""

    __slots__ = ("count", "estimators")

    def __init__(self, quantiles: tuple[float, ...]):
        self.count = 0
        self.estimators = {q: P2Quantile(q) for q in quantiles}

    def observe(self, value: float) -> None:
        self.count += 1
        for estimator in self.estimators.values():
            estimator.observe(value)

    def points(self, q: float) -> list[tuple[float, float]]:
        """Weighted value points this bucket contributes for quantile ``q``.

        In the exact phase (five or fewer observations) every raw value
        carries unit weight.  Afterwards the five P² markers stand in,
        weighted by the observation mass between neighbouring marker
        positions so the weights still sum to the bucket count.
        """
        estimator = self.estimators[q]
        heights = estimator._heights
        if estimator.count <= 5:
            return [(value, 1.0) for value in heights]
        positions = estimator._positions
        weights = [
            (positions[1] - positions[0]) / 2.0 + 0.5,
            (positions[2] - positions[0]) / 2.0,
            (positions[3] - positions[1]) / 2.0,
            (positions[4] - positions[2]) / 2.0,
            (positions[4] - positions[3]) / 2.0 + 0.5,
        ]
        return list(zip(heights, weights))

    def state_size(self) -> int:
        """Stored floats (raw buffer or marker heights + positions)."""
        total = 0
        for estimator in self.estimators.values():
            total += len(estimator._heights)
            if estimator.count > 5:
                total += len(estimator._positions)
        return total


class WindowedQuantileSketch:
    """Trailing-window quantile estimates with bucket-granular decay.

    Observations land in time buckets of ``window / buckets`` width keyed
    by absolute bucket index, so the sketch never rebuilds state when the
    clock advances -- expired buckets are simply dropped.  A quantile query
    merges the live buckets' estimators by weighted interpolation: buckets
    still in the exact phase contribute raw values, saturated buckets
    contribute their five P² markers weighted by observation mass.  State
    is bounded by ``(buckets + 1) x quantiles x 10`` floats regardless of
    stream length, and the whole structure is deterministic for a given
    observation sequence.

    Time must be fed monotonically in spirit but not strictly: a late
    observation older than the trailing window is silently dropped (it
    would be evicted immediately anyway), and queries never move the clock
    backwards.
    """

    __slots__ = ("window", "width", "_quantiles", "_buckets", "_now")

    def __init__(
        self,
        window: float,
        *,
        buckets: int = 8,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
    ):
        window = float(window)
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window}")
        if buckets < 1:
            raise ValueError(f"need at least one bucket, got {buckets}")
        quantiles = tuple(quantiles)
        if not quantiles:
            raise ValueError("need at least one quantile")
        self.window = window
        self.width = window / buckets
        self._quantiles = quantiles
        self._buckets: dict[int, _WindowBucket] = {}
        self._now = 0.0

    @property
    def quantiles(self) -> tuple[float, ...]:
        return self._quantiles

    def _alive(self, index: int) -> bool:
        return (index + 1) * self.width > self._now - self.window

    def _evict(self) -> None:
        dead = [index for index in self._buckets if not self._alive(index)]
        for index in dead:
            del self._buckets[index]

    def advance(self, now: float) -> None:
        """Move the clock forward (never backwards) and drop dead buckets."""
        if now > self._now:
            self._now = now
            self._evict()

    def observe(self, value: float, when: float) -> None:
        self.advance(when)
        index = int(when // self.width)
        if not self._alive(index):
            return
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _WindowBucket(self._quantiles)
        bucket.observe(float(value))

    def count(self, now: float | None = None) -> int:
        """Live (unexpired) observation count."""
        if now is not None:
            self.advance(now)
        return sum(bucket.count for bucket in self._buckets.values())

    def quantile(self, q: float, now: float | None = None) -> float:
        if q not in self._quantiles:
            raise KeyError(f"quantile {q} not tracked (have {self._quantiles})")
        if now is not None:
            self.advance(now)
        points: list[tuple[float, float]] = []
        for bucket in self._buckets.values():
            points.extend(bucket.points(q))
        if not points:
            return 0.0
        points.sort(key=lambda point: point[0])
        return _weighted_interpolated(points, q)

    def values(self, now: float | None = None) -> dict[float, float]:
        if now is not None:
            self.advance(now)
        return {q: self.quantile(q) for q in self._quantiles}

    def state_size(self) -> int:
        """Total stored floats across live buckets (for bound assertions)."""
        return sum(bucket.state_size() for bucket in self._buckets.values())

    def state_bound(self) -> int:
        """The hard ceiling :meth:`state_size` can never exceed."""
        live_buckets = int(self.window / self.width) + 1
        return live_buckets * len(self._quantiles) * 10
