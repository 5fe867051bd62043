"""Shared Hypothesis strategies for the whole suite.

One home for the generators that several property suites previously each
defined inline: simulation delays, span specs, GWP work chunks, LSM run
contents, and -- for the differential-harness tests -- whole fleet
configs and fault plans.  Import from here instead of redeclaring::

    from tests.strategies import run_contents, span_specs
"""

from hypothesis import strategies as st

from repro.api import FleetConfig
from repro.faults.plan import FaultPlan
from repro.profiling.dapper import SpanKind
from repro.workloads.calibration import BIGQUERY, BIGTABLE, PLATFORMS, SPANNER

# -- simulation engine --------------------------------------------------------

#: Timeout delays for event-ordering properties.
delays = st.lists(
    st.floats(min_value=0, max_value=100), min_size=1, max_size=20
)


def delay_lists(
    size: int,
    *,
    min_value: float = 0.1,
    max_value: float = 100,
    unique: bool = False,
):
    """Exactly ``size`` positive delays (quorum/fan-out properties)."""
    return st.lists(
        st.floats(min_value=min_value, max_value=max_value),
        min_size=size,
        max_size=size,
        unique=unique,
    )


# -- span trees ---------------------------------------------------------------

#: ``(kind, a, b)`` span specs; callers sort the bounds before recording.
span_specs = st.lists(
    st.tuples(
        st.sampled_from(list(SpanKind)),
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=12,
)

# -- GWP work chunks ----------------------------------------------------------

work_functions = st.sampled_from(
    ["proto2::Parse", "snappy::RawCompress", "misc_core::x"]
)

#: ``(function, duration, when)`` chunks for record_work_batch properties.
work_chunks = st.lists(
    st.tuples(
        work_functions,
        st.floats(min_value=0.0, max_value=5e-4, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    max_size=40,
)

sample_periods = st.sampled_from([5e-5, 1e-4, 2e-3])

# -- LSM storage --------------------------------------------------------------

lsm_keys = st.text(alphabet="abcdef", min_size=1, max_size=4)
lsm_values = st.one_of(st.none(), st.integers(min_value=0, max_value=999))
#: One sorted run's contents; ``None`` values are tombstones.
run_contents = st.dictionaries(lsm_keys, lsm_values, min_size=1, max_size=12)

# -- windowed quantile streams ------------------------------------------------

#: Observation values spanning several orders of magnitude (latencies).
window_values = st.floats(
    min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def timed_streams(draw, *, max_size: int = 60, horizon: float = 40.0):
    """``(value, when)`` observations with nondecreasing timestamps.

    The raw material for :class:`WindowedQuantileSketch` properties: times
    are sorted (the sketch requires a forward-only clock) and cluster
    naturally into bucket-sized bursts.
    """
    whens = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=horizon, allow_nan=False),
                min_size=1,
                max_size=max_size,
            )
        )
    )
    return [(draw(window_values), when) for when in whens]


#: Window geometries kept small so properties cross bucket boundaries.
window_widths = st.sampled_from([1.0, 2.5, 8.0])
window_bucket_counts = st.integers(min_value=1, max_value=6)


# -- fleet configs and fault plans --------------------------------------------


@st.composite
def fault_plans(draw, *, horizon: float = 0.02):
    """A seeded random fault plan over a three-node, one-store cluster."""
    return FaultPlan.random(
        draw(st.integers(min_value=0, max_value=2**16)),
        nodes=[f"spanner-{i}" for i in (1, 2, 3)],
        stores=["storage-0"],
        horizon=horizon,
        events=draw(st.integers(min_value=1, max_value=3)),
    )


@st.composite
def fleet_configs(draw):
    """Small (cheap-to-run) fleet configs covering the fuzzer's axes."""
    queries = {
        SPANNER: draw(st.integers(min_value=0, max_value=4)),
        BIGTABLE: draw(st.integers(min_value=0, max_value=4)),
        BIGQUERY: draw(st.integers(min_value=0, max_value=1)),
    }
    if sum(queries.values()) == 0:
        queries[draw(st.sampled_from(PLATFORMS))] = 1
    return FleetConfig(
        queries=queries,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        trace_sample_rate=draw(st.sampled_from([1, 2, 3])),
        counter_jitter=draw(st.sampled_from([0.0, 0.02])),
        observability=draw(st.sampled_from([None, True])),
    )
