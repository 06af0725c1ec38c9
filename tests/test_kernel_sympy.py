"""The integer polynomial kernel against sympy, an independent oracle.

Seeded random integer polynomials are built as products of small factors,
some raised to powers, so that square-free parts, Sturm chains and root
counts all see repeated roots. sympy is only a test-time oracle; the
library does not depend on it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from lapspec import (  # noqa: E402
    Graph,
    char_poly,
    complete,
    laplacian,
    signless_laplacian,
    split_integer_roots,
    sturm_count,
)
from lapspec.polys import _fujiwara_bound, _root_bound, _square_free_chain  # noqa: E402
from oracle_helpers import _q_primitive, random_connected_graph  # noqa: E402

X = sympy.Symbol("x")


def _random_poly(rng, factors=(1, 4)):
    """sympy Poly over ZZ: a unit times products of powers of small factors."""
    p = sympy.Integer(rng.choice([1, -1, 2, -6]))
    for _ in range(rng.randint(*factors)):
        deg = rng.randint(1, 3)
        f = sum(rng.randint(-5, 5) * X**i for i in range(deg)) + rng.randint(1, 3) * X**deg
        p *= f ** rng.choice([1, 1, 2, 3])
    return sympy.Poly(p, X)


def _coeffs(poly):
    return [int(c) for c in reversed(poly.all_coeffs())]


def _normalized(poly):
    """Primitive part with positive leading coefficient, as ascending ints."""
    prim = poly.primitive()[1]
    return _coeffs(-prim if prim.LC() < 0 else prim)


def test_gcd_matches_sympy():
    # the square-free part is p over sympy's gcd of p and p'
    rng = random.Random(1967)
    for _ in range(40):
        common = _random_poly(rng, (0, 2))
        p = _random_poly(rng) * common**2
        part, _ = _square_free_chain(_coeffs(p))
        assert part == _normalized(p.quo(p.gcd(p.diff(X))))


def test_squarefree_decomposition_matches_sqf_list():
    # the square-free part is the product of sympy's square-free factors,
    # and its chain is sympy's Sturm sequence, term by term up to a
    # positive factor
    rng = random.Random(1971)
    for _ in range(40):
        p = _random_poly(rng)
        _, factors = p.sqf_list()
        part, chain = _square_free_chain(_coeffs(p))
        product = sympy.Poly(1, X)
        for f, _ in factors:
            product *= f
        assert part == _normalized(product)
        sturm = sympy.Poly(list(reversed(part)), X).sturm()
        assert chain == [_q_primitive([Fraction(str(a)) for a in reversed(q.all_coeffs())]) for q in sturm]


def test_real_root_counts_match_count_roots():
    rng = random.Random(2009)
    for _ in range(40):
        p = _random_poly(rng)
        sqf = p.sqf_part()
        c = _coeffs(p)
        # every real root lies strictly inside the Cauchy bound
        bound = _root_bound(c)
        assert sturm_count(c, -bound, bound) == sqf.count_roots()
        a = Fraction(rng.randint(-12, 8), rng.randint(1, 3))
        b = a + Fraction(rng.randint(1, 12), rng.randint(1, 3))
        # sympy counts on [a, b]; sturm_count on (a, b]
        expected = sqf.count_roots(a, b) - (1 if sqf.eval(a) == 0 else 0)
        assert sturm_count(c, a, b) == expected


def _dense_char_polys(rng, orders):
    """sympy Polys of L and Q of K_n and of a random graph with edge density 0.85."""
    for n in orders:
        dense = Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.85]
        )
        for g in (complete(n), dense):
            for matrix in (laplacian(g), signless_laplacian(g)):
                yield sympy.Poly(list(reversed(char_poly(matrix))), X)


def test_integer_roots_match_sympy_roots():
    rng = random.Random(11985)
    polys = [_random_poly(rng) for _ in range(40)]
    # Characteristic polynomials with constant terms up to 20^19, out of
    # reach of a search over all divisors of the constant term.
    polys += list(_dense_char_polys(rng, range(13, 21)))
    for p in polys:
        roots, residual = split_integer_roots(_coeffs(p))
        assert roots == {int(r): m for r, m in sympy.roots(p, filter="Z").items()}
        assert len(residual) - 1 == p.degree() - sum(roots.values())


def test_fujiwara_bound_exceeds_every_real_root():
    rng = random.Random(1916)
    polys = [_random_poly(rng) for _ in range(40)]
    polys += list(_dense_char_polys(rng, (6, 9, 12)))
    for p in polys:
        bound = _fujiwara_bound(_coeffs(p))
        assert all(-bound < r < bound for r in sympy.real_roots(p)), p


def test_char_poly_matches_sympy_charpoly():
    rng = random.Random(20)
    graphs = [random_connected_graph(rng, 8) for _ in range(20)]
    for g in graphs:
        for matrix in (laplacian(g), signless_laplacian(g)):
            expected = sympy.Matrix(matrix.entries).charpoly(X)
            assert char_poly(matrix) == _coeffs(expected)
