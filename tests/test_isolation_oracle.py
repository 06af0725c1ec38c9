"""Root isolation on integer dyadic endpoints against the Fraction oracle.

integer_roots splits off the integer roots and isolates the other roots:
it counts roots by Budan–Fourier, starts its search at a level
fixed by Samuelson's interval, skips the midpoints outside that real-root
range, splits two-root cells by the sign at their midpoint, and refines
by Illinois regula-falsi steps on integer grid indices at the target
level. The oracle in oracle_helpers runs plain bisection from the Cauchy
bound on Fractions, with its own gcd, Sturm chain, rational roots and
plain Horner signs (fraction_sign), so every interval must come back
exactly equal, in the same order, and the oracle's point intervals must
be the integer roots. Every input is monic and real-rooted,
as isolation requires: seeded characteristic polynomials of symmetric
integer matrices, some times planted integer roots, products of real
quadratics, and graph polynomials; so the oracle's rational roots are
integers. On a polynomial with no integer root isolate_lowest_root must
return the first interval; an integer lowest root must lie in the cell
it returns. algebraic_connectivity_from_poly must give the same value
with the oracle patched in for the isolation it calls.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from lapspec import complete, polys, spectra
from lapspec.matrices import char_poly
from lapspec.polys import integer_roots, isolate_lowest_root, split_integer_roots
from lapspec.spectra import algebraic_connectivity_from_poly, laplacian, signless_laplacian

from oracle_helpers import (
    count_roots,
    fraction_isolate_roots,
    fraction_root_parts,
    fraction_square_free_part,
    poly_mul,
    random_connected_graph,
    random_symmetric_char_poly,
    report_parts,
)

PRECISIONS = [
    Fraction(1, 10**30),
    Fraction(1, 10**6),
    Fraction(1, 3),
    Fraction(5, 7),
    Fraction(2),
    Fraction(5),
]


def _seeded_square_free(seed=20261018):
    """Square-free monic real-rooted integer polynomials of degree 3..14:
    characteristic polynomials of seeded symmetric integer matrices with
    entries up to 10, 10^2, 10^3 or 10^4 in size, the i-th of order
    3 + i - i % 3 times i % 3 planted integer roots."""
    rng = random.Random(seed)
    out = []
    for i in range(12):
        planted = i % 3
        while True:
            c = random_symmetric_char_poly(rng, 3 + i - planted, 10 ** (1 + i % 4))
            for _ in range(planted):
                c = poly_mul(c, [-rng.randint(-12, 12), 1])
            if len(fraction_square_free_part(c)) == len(c):
                out.append(c)
                break
    return out


def _graphs():
    rng = random.Random(13)
    dense = [random_connected_graph(rng, n_max=13, density=0.85) for _ in range(6)]
    return [complete(n) for n in range(5, 14)] + dense


def _close_pairs():
    """(x^2 - p)(x^2 - p - 1) for p near 10^6: two pairs of irrational
    roots 5·10^-4 apart, where a chord through a cell holding one root
    often points into the wrong sub-cell."""
    return [poly_mul([-p, 0, 1], [-p - 1, 0, 1]) for p in (999_983, 10**6, 10**6 + 7)]


GRAPHS = _graphs()
SQUARE_FREE = _seeded_square_free()
# x^2 - x - 1 has Cauchy bound 2: at precision 5 the search starts from
# the whole (-2, 2], coarser than the cells next to 0
EXTRA = _close_pairs() + [[-1, -1, 1]]


def test_seeded_polynomials_reach_the_stated_sizes():
    assert max(len(c) for c in SQUARE_FREE) - 1 == 14
    assert max(abs(a) for c in SQUARE_FREE for a in c) > 10**11
    # some have integer roots, which the oracle gives as point intervals
    assert any(fraction_root_parts(c, Fraction(2))[0] for c in SQUARE_FREE)


@pytest.mark.parametrize("precision", PRECISIONS, ids=str)
def test_isolate_roots_equals_the_oracle_on_seeded_polynomials(precision):
    for c in SQUARE_FREE + EXTRA:
        assert report_parts(integer_roots(c, precision)) == fraction_root_parts(c, precision), c


@pytest.mark.parametrize("precision", PRECISIONS, ids=str)
def test_isolate_lowest_root_is_the_first_interval(precision):
    graph_polys = [char_poly(m(g)) for g in GRAPHS for m in (laplacian, signless_laplacian)]
    integer_free = 0
    for c in SQUARE_FREE + EXTRA + graph_polys:
        roots, rest = split_integer_roots(c)
        lo, hi = isolate_lowest_root(c, precision)
        if not roots:
            assert (lo, hi) == integer_roots(c, precision).isolating_intervals[0], c
            integer_free += 1
        else:
            # the cell of c's own grid holds the lowest root, an integer
            # one included, which no point interval replaces
            assert count_roots(c, lo, hi) == 1 and count_roots(c, lo - 2**64, lo) == 0, c
            lowest = min(roots)
            assert count_roots(c, lo - 2**64, lowest) != 1 or lo < lowest <= hi, c
        if len(rest) > 1:
            assert isolate_lowest_root(rest, precision) == integer_roots(rest, precision).isolating_intervals[0], c
    assert integer_free == 7
    assert isolate_lowest_root([5], precision) is None
    with pytest.raises(ValueError, match="not real-rooted"):
        isolate_lowest_root([1, 0, 1], precision)


@pytest.mark.parametrize("kind", ["L", "Q"])
def test_isolate_roots_equals_the_oracle_on_graph_polynomials(kind):
    matrix = laplacian if kind == "L" else signless_laplacian
    for g in GRAPHS:
        c = char_poly(matrix(g))
        for precision in PRECISIONS:
            assert report_parts(integer_roots(c, precision)) == fraction_root_parts(c, precision), (g.n, precision)


def test_isolation_and_algebraic_connectivity_equal_the_oracle(monkeypatch):
    def results():
        out = []
        for g in GRAPHS:
            lc, qc = char_poly(laplacian(g)), char_poly(signless_laplacian(g))
            intervals = integer_roots(qc).isolating_intervals
            out.append((integer_roots(lc), algebraic_connectivity_from_poly(split_integer_roots(lc)), intervals))
        return out

    expected = results()
    # the cells that integer_roots and isolate_lowest_root (which
    # algebraic_connectivity_from_poly calls) draw,
    # replaced by the oracle's; the counts, by caller, show that both were
    # reached
    calls = Counter()

    def cells(c, precision):
        calls[sys._getframe(1).f_code.co_name] += 1
        return iter(fraction_isolate_roots(c, precision))

    monkeypatch.setattr(polys, "_cells", cells)
    assert results() == expected
    assert set(calls) == {"integer_roots", "isolate_lowest_root"}, calls
