"""Property version of the isolation oracle test (needs Hypothesis).

Any monic integer polynomial, square-free or not, and any positive
precision: isolate_roots returns exactly the Fraction oracle's intervals
(isolation takes only polynomials whose primitive part is monic). So
does integer_roots for the residual it leaves once the integer roots are
split off, on a unit times products of monic linear factors and
irreducible monic quadratics, repeated ones included: the residual has
no rational root, so no interval is a point.

Characteristic polynomials of random symmetric integer matrices, whose
roots are all real, and their products with planted integer roots of
both signs: isolate_roots equals the oracle, and integer_roots finds
every integer root the oracle finds, the negative ones included (the
integer-root search leaves out negative candidates only when Descartes'
rule rules them out), and isolates the residual as the oracle does. On
those reports SpectrumReport.display, which merges the integer roots
with the interval midpoints by exact integer comparisons, prints what
the Fraction sort it replaced prints, also where a midpoint lies within
the precision of an integer root or equals it.

The cell search's shortcuts: the real-root range is strict on products
of distinct rational linear factors, degree 2 included, where
Samuelson's inequality is tight; a monic polynomial with a non-real pair
of roots does not use it and still isolates as the oracle does; and every
end value the search hands to the refinement is the polynomial's scaled
value at that end at the target level, and none is handed for a cell
already at least as narrow as the precision. The examples are derandomized, so every run draws
the same ones.
"""

from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lapspec import polys  # noqa: E402
from lapspec.matrices import IntMatrix, char_poly  # noqa: E402
from lapspec.polys import (  # noqa: E402
    _real_root_range,
    _root_bound,
    _root_cells,
    _scaled_value,
    _square_free_chain,
    integer_roots,
    isolate_roots,
    sturm_count,
)
from lapspec.spectra import SpectrumReport  # noqa: E402

from oracle_helpers import (  # noqa: E402
    fraction_isolate_roots,
    fraction_sorted_display,
    poly_mul,
    reconstructs,
)

# monic: the leading coefficient 1 follows one to nine drawn ones
coefficients = st.lists(
    st.one_of(st.integers(-20, 20), st.integers(-10**12, 10**12)), min_size=1, max_size=9
).map(lambda c: c + [1])

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
    st.lists(st.integers(-30, 30), min_size=1, max_size=5),
    st.lists(st.integers(-1000, 1000), max_size=4).map(lambda c: c + [1]),
    precisions,
)
def test_planted_rational_roots_equal_the_fraction_oracle(roots, cofactor, precision):
    # products of (x - p) factors, repeated ones included, times a monic
    # cofactor: a monic polynomial's rational roots are integers
    c = cofactor
    for p in roots:
        c = poly_mul(c, [-p, 1])
    assert isolate_roots(c, precision) == fraction_isolate_roots(c, precision)


def _irreducible(quadratic) -> bool:
    c, b, a = quadratic
    disc = b * b - 4 * a * c
    return disc < 0 or isqrt(disc) ** 2 != disc


linear_factor = st.integers(-12, 12).map(lambda r: [-r, 1])
quadratic_factor = st.lists(st.integers(-9, 9), min_size=2, max_size=2).map(lambda c: c + [1]).filter(_irreducible)
factors = st.lists(
    st.tuples(st.one_of(linear_factor, quadratic_factor), st.integers(1, 3)), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None, database=None)
@given(factors, st.sampled_from([1, -1, 2]), precisions)
def test_integer_roots_isolates_the_residual_as_the_oracle_does(factors, unit, precision):
    # a unit times a monic product: the leading coefficient divides the content
    c = [unit]
    for f, m in factors:
        for _ in range(m):
            c = poly_mul(c, f)
    report = integer_roots(c, precision)
    assert report.isolating_intervals == tuple(fraction_isolate_roots(list(report.residual), precision))
    assert all(lo < hi for lo, hi in report.isolating_intervals)
    planted = Counter()
    for f, m in factors:
        if len(f) == 2:
            planted[-f[0]] += m
    assert dict(report.integer_roots) == planted


@st.composite
def symmetric_char_polys(draw):
    """det(λI - M) for a random symmetric integer matrix M: monic, and every
    root real."""
    n = draw(st.integers(1, 6))
    upper = iter(draw(st.lists(st.integers(-6, 6), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    return char_poly(IntMatrix(rows))


planted_integer_roots = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(1, 2)), min_size=1, max_size=3
).filter(lambda roots: any(r < 0 for r, _ in roots))


def _with_roots(c, roots):
    for r, m in roots:
        for _ in range(m):
            c = poly_mul(c, [-r, 1])
    return c


def _check_against_the_oracle(c, precision):
    oracle = fraction_isolate_roots(c, precision)
    assert isolate_roots(c, precision) == oracle
    report = integer_roots(c, precision)
    assert reconstructs(report, c)
    # c is monic, so the oracle's rational roots are its integer roots
    assert [r for r, _ in report.integer_roots] == sorted((lo for lo, hi in oracle if lo == hi), reverse=True)
    assert report.isolating_intervals == tuple(fraction_isolate_roots(list(report.residual), precision))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(symmetric_char_polys(), precisions)
def test_symmetric_matrix_polynomials_isolate_as_the_oracle_does(c, precision):
    _check_against_the_oracle(c, precision)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(symmetric_char_polys(), planted_integer_roots, precisions)
@example([0, 1], [(-3, 2), (5, 1)], Fraction(1, 10**6))
def test_planted_negative_and_positive_integer_roots_are_all_found(c, roots, precision):
    c = _with_roots(c, roots)
    _check_against_the_oracle(c, precision)
    found = dict(integer_roots(c, precision).integer_roots)
    assert all(found.get(r, 0) >= m for r, m in roots)


display_precisions = st.one_of(precisions, st.integers(1, 8).map(Fraction))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(symmetric_char_polys(), st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 2)), max_size=3), display_precisions)
# λ² - 1000001 has the root 1000.0005 (to 4 places): its midpoint lies within
# the precision 1/1000 of the integer root 1000
@example([-1000001, 0, 1], [(1000, 1)], Fraction(1, 1000))
# at precision 4 the cells of λ² - 3 are (-4, 0] and (0, 4]: the midpoint 2
# equals the integer root 2, which is printed first
@example([-3, 0, 1], [(2, 1)], Fraction(4))
def test_display_equals_the_fraction_sorted_display(c, roots, precision):
    c = _with_roots(c, roots)
    spectrum = SpectrumReport("", "L", len(c) - 1, integer_roots(c, precision), precision)
    assert spectrum.display() == fraction_sorted_display(spectrum)


# q λ - p for distinct roots p / q, q >= 1: a positive leading coefficient
distinct_rational_roots = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(1, 5)), min_size=1, max_size=8
).map(lambda pqs: sorted({Fraction(p, q) for p, q in pqs}))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(distinct_rational_roots, st.integers(1, 3))
# degree 2 with integer roots: the roots are exactly the mean ± σ
@example([Fraction(1), Fraction(3)], 1)
@example([Fraction(-2)], 1)
def test_real_root_range_is_strict(roots, unit):
    c = [unit]
    for r in roots:
        c = poly_mul(c, [-r.numerator, r.denominator])
    lo, hi = _real_root_range(c)
    assert all(lo < r < hi for r in roots), (lo, hi, roots)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    st.one_of(
        st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True).map(lambda roots: [[-r, 1] for r in roots]),
        st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(lambda f: f + [1]), max_size=3),
    ),
    precisions,
)
def test_a_non_real_pair_does_not_use_the_range(factors, precision):
    g = [1]
    for f in factors:
        g = poly_mul(g, f)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "_real_root_range", lambda c: calls.append(c) or _real_root_range(c))
        c = poly_mul([1, 0, 1], g)  # (λ² + 1)·g
        assert isolate_roots(c, precision) == fraction_isolate_roots(c, precision)
        assert calls == []
        # (λ² - 2)·g has only real roots when g is a product of linear factors
        if all(len(f) == 2 for f in factors):
            isolate_roots(poly_mul([-2, 0, 1], g), precision)
            assert calls


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.one_of(symmetric_char_polys(), coefficients), precisions)
def test_end_values_handed_to_the_refinement_are_the_values_at_the_ends(c, precision):
    rest, chain = _square_free_chain(c)
    if len(rest) < 2:
        return
    bound = Fraction(_root_bound(rest))
    for _, lo, hi, k, target, f_lo, f_hi in _root_cells(rest, chain, precision):
        if k >= target:  # nothing to refine, nothing handed over
            assert f_lo is None and f_hi is None
            continue
        for end, value in ((lo, f_lo), (hi, f_hi)):
            if value is not None:
                assert value == _scaled_value(rest, end << (target - k), 1 << target)
        # an end never evaluated lies beyond every root on its side
        if f_lo is None and Fraction(lo, 1 << k) > -bound:
            assert sturm_count(rest, -bound, Fraction(lo, 1 << k)) == 0
        if f_hi is None and Fraction(hi, 1 << k) < bound:
            assert sturm_count(rest, Fraction(hi, 1 << k), bound) == 0
