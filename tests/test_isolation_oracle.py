"""Root isolation on integer dyadic endpoints against the Fraction oracle.

isolate_roots starts its search at a level fixed by the Fujiwara bound and
refines by sign-checked secant jumps on integer numerators over powers of
two. The oracle in oracle_helpers runs plain bisection from the Cauchy
bound on Fractions, with its own gcd, Sturm chain, rational roots and
plain Horner signs (fraction_sign), so every interval must come back
exactly equal, in the same order; isolate_lowest_root must return the
first. algebraic_connectivity must give the same value with the oracle
patched in for the isolation it calls.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from lapspec import complete, polys, spectra
from lapspec.matrices import char_poly
from lapspec.polys import integer_roots, isolate_lowest_root, isolate_roots
from lapspec.spectra import algebraic_connectivity, laplacian, signless_laplacian

from oracle_helpers import (
    fraction_isolate_roots,
    fraction_square_free_part,
    poly_mul,
    random_connected_graph,
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
    """Square-free integer polynomials of degree 3..14 with coefficients up
    to 10^3, 10^6, 10^9 or 10^12 in size, the i-th with i % 3 planted
    rational roots p/q."""
    rng = random.Random(seed)
    out = []
    for i in range(12):
        planted = i % 3
        # a factor (q x - p) with |p| <= 12, q <= 6 grows coefficients by <= 18
        mag = 10 ** (3 * (1 + i % 4)) // 18**planted
        while True:
            c = [rng.randint(-mag, mag) for _ in range(3 + i - planted + 1)]
            c[-1] = c[-1] or 1
            for _ in range(planted):
                c = poly_mul(c, [-rng.randint(-12, 12), rng.randint(1, 6)])
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
# x^3 - x - 1 has one real root and Cauchy bound 2: at precision 5 the
# root's cell is the whole (-2, 2], coarser than the cells next to 0
EXTRA = _close_pairs() + [[-1, -1, 0, 1]]


def test_seeded_polynomials_reach_the_stated_sizes():
    assert max(len(c) for c in SQUARE_FREE) - 1 == 14
    assert max(abs(a) for c in SQUARE_FREE for a in c) > 10**11
    # some rational roots come back as point intervals
    assert any(lo == hi for c in SQUARE_FREE for lo, hi in isolate_roots(c, Fraction(2)))


@pytest.mark.parametrize("precision", PRECISIONS, ids=str)
def test_isolate_roots_equals_the_oracle_on_seeded_polynomials(precision):
    for c in SQUARE_FREE + EXTRA:
        assert isolate_roots(c, precision) == fraction_isolate_roots(c, precision), c


@pytest.mark.parametrize("precision", PRECISIONS, ids=str)
def test_isolate_lowest_root_is_the_first_interval(precision):
    graph_polys = [char_poly(m(g)) for g in GRAPHS for m in (laplacian, signless_laplacian)]
    for c in SQUARE_FREE + EXTRA + graph_polys:
        assert isolate_lowest_root(c, precision) == isolate_roots(c, precision)[0], c
    assert isolate_lowest_root([1, 0, 1], precision) is None


@pytest.mark.parametrize("kind", ["L", "Q"])
def test_isolate_roots_equals_the_oracle_on_graph_polynomials(kind):
    matrix = laplacian if kind == "L" else signless_laplacian
    for g in GRAPHS:
        c = char_poly(matrix(g))
        for precision in PRECISIONS:
            assert isolate_roots(c, precision) == fraction_isolate_roots(c, precision), (g.n, precision)


def test_isolation_and_algebraic_connectivity_equal_the_oracle(monkeypatch):
    def results():
        out = []
        for g in GRAPHS:
            lc, qc = char_poly(laplacian(g)), char_poly(signless_laplacian(g))
            intervals = integer_roots(qc).isolating_intervals
            out.append((isolate_roots(lc), algebraic_connectivity(g), intervals))
        return out

    expected = results()
    # the helpers isolate_roots, integer_roots and algebraic_connectivity call,
    # replaced by the oracle; the counts show that every patch was reached
    calls = Counter()

    def isolate(c, precision, integer_free=False):
        calls["isolate", integer_free] += 1
        return fraction_isolate_roots(c, precision)

    def isolate_lowest(c, precision):
        calls["lowest"] += 1
        return fraction_isolate_roots(c, precision)[0]

    monkeypatch.setattr(polys, "_isolate", isolate)
    monkeypatch.setattr(spectra, "isolate_lowest_root", isolate_lowest)
    assert results() == expected
    assert set(calls) == {("isolate", False), ("isolate", True), "lowest"}, calls
