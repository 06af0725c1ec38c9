"""Property version of the isolation oracle test (needs Hypothesis).

Any nonzero integer polynomial, square-free or not, and any positive
precision: isolate_roots returns exactly the Fraction oracle's intervals.
So does integer_roots for the residual it leaves once the integer roots
are split off, on products of integer and non-monic linear factors and
irreducible quadratics, repeated ones included: its non-integer rational
roots come back as point intervals, found by the search a residual with
leading coefficient ±1 skips.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lapspec.polys import integer_roots, isolate_roots  # noqa: E402

from oracle_helpers import fraction_isolate_roots, poly_mul  # noqa: E402

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


def _irreducible(quadratic) -> bool:
    c, b, a = quadratic
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


linear_factor = st.one_of(
    st.integers(-12, 12).map(lambda r: [-r, 1]),
    # q λ - p with q >= 2 and p / q in lowest terms: a non-integer rational root
    st.tuples(st.integers(-12, 12), st.integers(2, 6))
    .filter(lambda pq: gcd(*pq) == 1)
    .map(lambda pq: [-pq[0], pq[1]]),
)
quadratic_factor = st.lists(st.integers(-9, 9), min_size=3, max_size=3).filter(
    lambda c: c[2] > 0 and _irreducible(c)
)
factors = st.lists(
    st.tuples(st.one_of(linear_factor, quadratic_factor), st.integers(1, 3)), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None, database=None)
@given(factors, st.sampled_from([1, -1, 2]), precisions)
def test_integer_roots_isolates_the_residual_as_the_oracle_does(factors, unit, precision):
    c = [unit]
    for f, m in factors:
        for _ in range(m):
            c = poly_mul(c, f)
    report = integer_roots(c, precision)
    assert report.isolating_intervals == tuple(fraction_isolate_roots(list(report.residual), precision))
    rational = {Fraction(-f[0], f[1]) for f, _ in factors if len(f) == 2 and f[1] > 1}
    assert {lo for lo, hi in report.isolating_intervals if lo == hi} == rational
