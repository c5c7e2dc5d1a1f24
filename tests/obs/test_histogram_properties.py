"""``Histogram.observe_many(v, n)`` is ``n`` calls of ``observe(v)``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram

value = st.one_of(
    st.sampled_from([0.0, 0.1, 0.3, 1e-3, 2.5, 7.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
buckets = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=6,
    unique=True,
)


def fields(histogram):
    """Every slot, floats by their bits."""
    return (
        histogram.name,
        histogram.buckets,
        histogram.counts,
        histogram.total.hex(),
        histogram.count,
        float(histogram.min).hex(),
        float(histogram.max).hex(),
    )


@given(buckets, st.lists(value, max_size=20), value, st.integers(0, 60))
@settings(max_examples=300)
def test_observe_many_equals_repeated_observe(bounds, prior, v, n):
    one = Histogram("h", bounds)
    many = Histogram("h", bounds)
    for earlier in prior:
        one.observe(earlier)
        many.observe(earlier)
    for _ in range(n):
        one.observe(v)
    many.observe_many(v, n)
    assert fields(many) == fields(one)
