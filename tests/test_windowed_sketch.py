"""Properties of the windowed-decay quantile sketch (service mode's core).

The contract under test:

* expiry is bucket-granular and *monotone*: advancing the clock only ever
  drops observations, and past one full window plus one bucket width the
  sketch is empty;
* while every live bucket is still in its exact phase (five or fewer
  observations), the merged quantile equals the exact interpolated
  quantile of the live raw values;
* past the exact phase the estimate stays inside the live value range and
  within a statistical tolerance of the true quantile on large samples;
* state is bounded by ``state_bound()`` floats no matter how long the
  stream runs.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from repro.observability.sketch import (
    DEFAULT_QUANTILES,
    WindowedQuantileSketch,
    _interpolated,
)
from tests.strategies import (
    timed_streams,
    window_bucket_counts,
    window_widths,
    window_values,
)


def _live_values(stream, *, width: float, window: float, now: float):
    """The exact reference: values whose bucket is still alive at ``now``."""
    return sorted(
        value
        for value, when in stream
        if (int(when // width) + 1) * width > now - window
    )


class TestWindowBoundaries:
    @given(stream=timed_streams(), width=window_widths, buckets=window_bucket_counts)
    @settings(max_examples=60, deadline=None)
    def test_count_matches_live_buckets_and_expiry_is_monotone(
        self, stream, width, buckets
    ):
        window = width * buckets
        sketch = WindowedQuantileSketch(window, buckets=buckets)
        for value, when in stream:
            sketch.observe(value, when)
        last = stream[-1][1]
        expected = len(
            _live_values(stream, width=sketch.width, window=window, now=last)
        )
        assert sketch.count() == expected

        # Advancing the clock without new observations only sheds state.
        previous = sketch.count()
        for step in (0.25, 0.5, 1.0, 2.0, 4.0):
            current = sketch.count(last + step * window)
            assert current <= previous
            previous = current
        # One window plus one bucket width past the last observation,
        # everything has expired.
        assert sketch.count(last + window + sketch.width) == 0
        assert sketch.state_size() == 0
        assert sketch.quantile(0.5) == 0.0

    @given(stream=timed_streams(), width=window_widths, buckets=window_bucket_counts)
    @settings(max_examples=60, deadline=None)
    def test_stale_observations_are_dropped_silently(self, stream, width, buckets):
        window = width * buckets
        sketch = WindowedQuantileSketch(window, buckets=buckets)
        last = stream[-1][1]
        for value, when in stream:
            sketch.observe(value, when)
        before = sketch.count()
        # An observation older than the trailing window would be evicted
        # immediately; the sketch must ignore it without moving the clock.
        sketch.observe(123.0, last - window - 2 * sketch.width)
        assert sketch.count() == before


class TestExactPhase:
    @given(
        values=st.lists(window_values, min_size=1, max_size=5),
        q=st.sampled_from(DEFAULT_QUANTILES),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_exact_bucket_matches_interpolated(self, values, q):
        # All observations land in one bucket and stay in the raw-buffer
        # phase, so the merge must reduce to the exact small-sample quantile.
        sketch = WindowedQuantileSketch(8.0, buckets=4)
        for value in values:
            sketch.observe(value, 0.5)
        assert sketch.quantile(q) == pytest.approx(
            _interpolated(sorted(values), q), rel=1e-12, abs=1e-12
        )

    @given(stream=timed_streams(max_size=20), q=st.sampled_from(DEFAULT_QUANTILES))
    @settings(max_examples=60, deadline=None)
    def test_exact_while_all_buckets_small(self, stream, q):
        width, buckets = 2.5, 16
        window = width * buckets
        sketch = WindowedQuantileSketch(window, buckets=buckets)
        per_bucket: dict[int, int] = {}
        for value, when in stream:
            per_bucket[int(when // width)] = per_bucket.get(int(when // width), 0) + 1
            sketch.observe(value, when)
        if any(count > 5 for count in per_bucket.values()):
            return  # saturated bucket: covered by the tolerance test instead
        last = stream[-1][1]
        live = _live_values(stream, width=width, window=window, now=last)
        if not live:
            return
        assert sketch.quantile(q) == pytest.approx(
            _interpolated(live, q), rel=1e-9, abs=1e-12
        )


class TestToleranceAndBounds:
    @given(stream=timed_streams(), width=window_widths, buckets=window_bucket_counts)
    @settings(max_examples=60, deadline=None)
    # Equal interpolation endpoints once blended one ulp above themselves.
    @example(
        stream=[(1.0, 0.0), (800.2719999451289, 0.0), (800.2719999451289, 0.0)],
        width=1.0,
        buckets=1,
    )
    def test_estimate_stays_in_live_range(self, stream, width, buckets):
        window = width * buckets
        sketch = WindowedQuantileSketch(window, buckets=buckets)
        for value, when in stream:
            sketch.observe(value, when)
        live = _live_values(
            stream, width=sketch.width, window=window, now=stream[-1][1]
        )
        if not live:
            return
        for q in DEFAULT_QUANTILES:
            assert live[0] <= sketch.quantile(q) <= live[-1]

    def test_statistical_tolerance_on_large_sample(self):
        # 4000 gaussian observations across a long stream: the rolling
        # estimate over the trailing window must land near the true
        # quantile of exactly the window's observations.
        rng = random.Random(7)
        sketch = WindowedQuantileSketch(40.0, buckets=8)
        kept: list[tuple[float, float]] = []
        for i in range(4000):
            when = i * 0.02  # 80 simulated seconds; only the last 40 live
            value = rng.gauss(50.0, 10.0)
            kept.append((value, when))
            sketch.observe(value, when)
        now = kept[-1][1]
        live = _live_values(kept, width=sketch.width, window=40.0, now=now)
        for q in (0.5, 0.9, 0.99):
            exact = _interpolated(live, q)
            assert sketch.quantile(q) == pytest.approx(exact, rel=0.06)

    @given(stream=timed_streams(), width=window_widths, buckets=window_bucket_counts)
    @settings(max_examples=60, deadline=None)
    def test_state_never_exceeds_bound(self, stream, width, buckets):
        window = width * buckets
        sketch = WindowedQuantileSketch(window, buckets=buckets)
        bound = sketch.state_bound()
        for value, when in stream:
            sketch.observe(value, when)
            assert sketch.state_size() <= bound

    def test_bound_is_tight_under_saturation(self):
        # Saturate every live bucket far past the exact phase: the bound
        # must hold as an equality-capable ceiling, not a loose estimate.
        sketch = WindowedQuantileSketch(8.0, buckets=8)
        rng = random.Random(3)
        for i in range(9000):
            sketch.observe(rng.random(), i * 0.001)
        assert sketch.state_size() <= sketch.state_bound()
        # 9 live buckets x 3 quantiles x (5 heights + 5 positions).
        assert sketch.state_bound() == 9 * len(DEFAULT_QUANTILES) * 10


class TestApiContract:
    def test_untracked_quantile_raises(self):
        sketch = WindowedQuantileSketch(10.0)
        sketch.observe(1.0, 0.0)
        with pytest.raises(KeyError, match="not tracked"):
            sketch.quantile(0.25)

    def test_values_keyed_by_tracked_quantiles(self):
        sketch = WindowedQuantileSketch(10.0, quantiles=(0.5, 0.95))
        for i in range(10):
            sketch.observe(float(i), float(i) * 0.1)
        values = sketch.values()
        assert set(values) == {0.5, 0.95}
        assert values[0.5] <= values[0.95]

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="window"):
            WindowedQuantileSketch(0.0)
        with pytest.raises(ValueError, match="bucket"):
            WindowedQuantileSketch(10.0, buckets=0)
        with pytest.raises(ValueError, match="quantile"):
            WindowedQuantileSketch(10.0, quantiles=())

    def test_deterministic_replay(self):
        rng = random.Random(11)
        stream = [(rng.expovariate(2.0), i * 0.05) for i in range(500)]
        legs = []
        for _ in range(2):
            sketch = WindowedQuantileSketch(5.0, buckets=5)
            for value, when in stream:
                sketch.observe(value, when)
            legs.append(sketch.values())
        assert legs[0] == legs[1]
