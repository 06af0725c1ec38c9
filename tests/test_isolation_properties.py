"""Property version of the isolation oracle test (needs Hypothesis).

Any monic real-rooted integer polynomial, square-free or not, and any
positive precision: integer_roots returns exactly the Fraction oracle's
intervals, its point intervals as the integer roots (isolation takes
only real-rooted polynomials whose primitive part is monic). The inputs are characteristic polynomials of symmetric
integer matrices with small or large entries, times monic quadratics
with two real roots and large coefficients. So does integer_roots for
the residual it leaves once the integer roots are split off, on a unit
times products of monic linear factors and monic quadratics with two
irrational real roots, repeated ones included: the residual has no
rational root, so no interval is a point. count_roots, by Budan–Fourier,
equals the Sturm oracle's count on real-rooted polynomials with repeated
roots, at rational ends and at roots. A monic quadratic with a non-real
pair of roots times a real-rooted polynomial is a ValueError for
integer_roots, in bounded time.

Characteristic polynomials of random symmetric integer matrices, whose
roots are all real, and their products with planted integer roots of
both signs: integer_roots equals the oracle: it finds every integer root
the oracle finds, the negative ones included (the integer-root search
leaves out negative candidates only when Descartes'
rule rules them out), and isolates the residual as the oracle does. On
those reports SpectrumReport.display, which merges the integer roots
with the interval midpoints by exact integer comparisons, prints what
the Fraction sort it replaced prints, also where a midpoint lies within
the precision of an integer root or equals it.

The cell search's shortcuts: the real-root range is strict on products
of distinct rational linear factors, degree 2 included, where
Samuelson's inequality is tight; and every cell the search yields holds
one root, by the Sturm oracle, and is at most precision wide; only a
cell wider than the precision is handed to the refinement, with
rest(2B·y) pre-scaled at the target level and that list's values at the
cell's ends. The examples are derandomized, so every run draws the same
ones.
"""

import time
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lapspec.matrices import IntMatrix, char_poly  # noqa: E402
from lapspec import polys  # noqa: E402
from lapspec.polys import (  # noqa: E402
    _prescaled,
    _real_root_range,
    _root_bound,
    _root_cells,
    _square_free,
    integer_roots,
)
from lapspec.spectra import SpectrumReport  # noqa: E402

from oracle_helpers import (  # noqa: E402
    count_roots,
    fraction_isolate_roots,
    fraction_root_parts,
    fraction_sorted_display,
    poly_mul,
    reconstructs,
    report_parts,
    sturm_count_oracle,
)

precisions = st.one_of(
    st.sampled_from([Fraction(1, 10**6), Fraction(1, 3), Fraction(5, 7), Fraction(2)]),
    st.fractions(min_value=Fraction(1, 10**9), max_value=4).filter(lambda q: q > 0),
)


@st.composite
def symmetric_char_polys(draw, entries=st.integers(-6, 6)):
    """det(λI - M) for a random symmetric integer matrix M: monic, and every
    root real."""
    n = draw(st.integers(1, 6))
    upper = iter(draw(st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = next(upper)
    return char_poly(IntMatrix(rows))


def _product(factors):
    c = [1]
    for f in factors:
        c = poly_mul(c, f)
    return c


# λ² + bλ + e with b² > 4e: two real roots
real_quadratic = (
    st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**12), 10**12))
    .filter(lambda be: be[0] ** 2 > 4 * be[1])
    .map(lambda be: [be[1], be[0], 1])
)
# monic and real-rooted, coefficients up to about 10^12 and beyond
real_rooted = st.tuples(
    symmetric_char_polys(st.one_of(st.integers(-20, 20), st.integers(-(10**6), 10**6))),
    st.lists(real_quadratic, max_size=2),
).map(lambda cf: _product([cf[0], *cf[1]]))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(real_rooted, precisions)
def test_isolate_roots_equals_the_fraction_oracle(c, precision):
    assert report_parts(integer_roots(c, precision)) == fraction_root_parts(c, precision)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=5),
    symmetric_char_polys(),
    precisions,
)
def test_planted_rational_roots_equal_the_fraction_oracle(roots, cofactor, precision):
    # products of (x - p) factors, repeated ones included, times a monic
    # real-rooted cofactor: a monic polynomial's rational roots are integers
    c = cofactor
    for p in roots:
        c = poly_mul(c, [-p, 1])
    assert report_parts(integer_roots(c, precision)) == fraction_root_parts(c, precision)


def _irrational_real(quadratic) -> bool:
    c, b, a = quadratic
    disc = b * b - 4 * a * c
    return disc > 0 and isqrt(disc) ** 2 != disc


linear_factor = st.integers(-12, 12).map(lambda r: [-r, 1])
quadratic_factor = st.lists(st.integers(-9, 9), min_size=2, max_size=2).map(lambda c: c + [1]).filter(_irrational_real)
factors = st.lists(
    st.tuples(st.one_of(linear_factor, quadratic_factor), st.integers(1, 3)), min_size=1, max_size=5
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
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


planted_integer_roots = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(1, 2)), min_size=1, max_size=3
).filter(lambda roots: any(r < 0 for r, _ in roots))


def _with_roots(c, roots):
    for r, m in roots:
        for _ in range(m):
            c = poly_mul(c, [-r, 1])
    return c


def _check_against_the_oracle(c, precision):
    report = integer_roots(c, precision)
    # c is monic, so the oracle's rational roots are its integer roots
    assert report_parts(report) == fraction_root_parts(c, precision)
    assert reconstructs(report, c)
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
    spectrum = SpectrumReport("", "L", len(c) - 1, integer_roots(c, precision))
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


# λ² + bλ + e with b² < 4e: a non-real pair of roots
complex_quadratic = (
    st.tuples(st.integers(-9, 9), st.integers(1, 100)).filter(lambda be: be[0] ** 2 < 4 * be[1]).map(lambda be: [be[1], be[0], 1])
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    complex_quadratic,
    st.one_of(
        st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True).map(lambda roots: [[-r, 1] for r in roots]),
        symmetric_char_polys().map(lambda c: [c]),
        st.lists(real_quadratic, min_size=1, max_size=2),
    ),
    precisions,
)
@example([1, 0, 1], [[1]], Fraction(1, 10**6))
@example([1, 0, 1], [[-3, 1]], Fraction(1, 10**6))
@example([3, 0, 1], [[-50, 0, 1]], Fraction(1, 3))
def test_a_non_real_pair_is_a_value_error(pair, factors, precision):
    # a real-rooted polynomial times a quadratic with a non-real pair of
    # roots: isolation of the whole polynomial, or of the residual its
    # integer roots leave, ends in a ValueError, in bounded time
    c = _product([pair, *factors])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not real-rooted"):
        integer_roots(c, precision)
    assert time.perf_counter() - start < 2


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.one_of(symmetric_char_polys(), real_rooted),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)), max_size=3),
    st.lists(st.one_of(st.integers(-12, 12).map(Fraction), st.fractions(-40, 40, max_denominator=64)), min_size=2, max_size=2, unique=True),
)
def test_count_roots_equals_the_sturm_oracle(c, roots, ends):
    # real-rooted, with planted roots repeated up to three times; ends at
    # integers, where the planted roots lie, and at other rationals
    c = _with_roots(c, roots)
    a, b = sorted(ends)
    assert count_roots(c, a, b) == sturm_count_oracle(c, a, b)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.one_of(symmetric_char_polys(), real_rooted), precisions)
def test_end_values_handed_to_the_refinement_are_the_values_at_the_ends(c, precision):
    rest = _square_free(c)
    if len(rest) < 2:
        return
    d = len(rest) - 1
    width = 2 * _root_bound(rest)
    unit = [a * width**i for i, a in enumerate(rest)]  # rest(2B·y)
    handed, _refine = [], polys._refine

    def refine(scaled, j, k, target, w_lo, w_hi):
        handed.append((scaled, j, k, target, w_lo, w_hi))
        return _refine(scaled, j, k, target, w_lo, w_hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "_refine", refine)
        cells = list(_root_cells(rest, precision))
    assert len(cells) == d and len(handed) <= d
    for lo, hi in cells:
        assert hi - lo <= precision and sturm_count_oracle(rest, lo, hi) == 1
    for scaled, j, k, target, w_lo, w_hi in handed:
        # only a cell wider than the precision is refined, on rest(2B·y)
        # pre-scaled at the target level
        assert k < target and scaled == _prescaled(unit, target)
        assert sturm_count_oracle(rest, Fraction(j * width, 1 << k), Fraction((j + 1) * width, 1 << k)) == 1
        for end, value in ((j, w_lo), (j + 1, w_hi)):
            x = end << (target - k)
            assert value == sum(a * x**i << target * (d - i) for i, a in enumerate(unit))
