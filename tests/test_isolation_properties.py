"""Property version of the isolation oracle test (needs Hypothesis).

Any nonzero integer polynomial, square-free or not, and any positive
precision: isolate_roots returns exactly the Fraction oracle's intervals.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lapspec.polys import isolate_roots, poly_mul  # noqa: E402

from oracle_helpers import fraction_isolate_roots  # noqa: E402

coefficients = st.lists(
    st.one_of(st.integers(-20, 20), st.integers(-10**12, 10**12)), min_size=2, max_size=10
).filter(lambda c: c[-1] != 0)

precisions = st.one_of(
    st.sampled_from([Fraction(1, 10**6), Fraction(1, 3), Fraction(5, 7), Fraction(2)]),
    st.fractions(min_value=Fraction(1, 10**9), max_value=4).filter(lambda q: q > 0),
)


@settings(max_examples=40, deadline=None, database=None)
@given(coefficients, precisions)
def test_isolate_roots_equals_the_fraction_oracle(c, precision):
    assert isolate_roots(c, precision) == fraction_isolate_roots(c, precision)


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 8)), min_size=1, max_size=5),
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=5).filter(lambda c: c[-1] != 0),
    precisions,
)
def test_planted_rational_roots_equal_the_fraction_oracle(roots, cofactor, precision):
    # products of (q x - p) factors, repeated ones included, times a cofactor
    c = cofactor
    for p, q in roots:
        c = poly_mul(c, [-p, q])
    assert isolate_roots(c, precision) == fraction_isolate_roots(c, precision)
