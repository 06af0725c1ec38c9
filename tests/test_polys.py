import random
import time
from fractions import Fraction
from math import isqrt
from operator import add, mul, sub

import pytest

from lapspec import (
    LAMBDA,
    MPoly,
    divides,
    integer_roots,
    isolate_roots,
    parse_poly,
    path,
    poly_text,
    poly_value,
    spectrum,
    split_integer_roots,
    sturm_count,
)
from lapspec import polys
from lapspec.polys import (
    _count_halfopen,
    _exact_quotient,
    _rational_roots,
    _root_bound,
    _scaled_value,
    _sign_at,
    _square_free_chain,
    _sturm_chain,
    _synthetic_div,
)
from oracle_helpers import divisor_search_rational_roots, fraction_divides, lift, poly_mul, reconstructs


def lam():
    return MPoly.var(LAMBDA)


def coeffs(text):
    """Ascending integer coefficients of a polynomial in λ written as text."""
    return parse_poly(text).univariate_coeffs()


def test_ring_arithmetic_basics():
    x = lam()
    assert (x - 1) * (x - 1) == parse_poly("λ^2 - 2*λ + 1")
    assert (x + 2) ** 3 == parse_poly("λ^3 + 6*λ^2 + 12*λ + 8")
    assert x and x - 0 and not x - x and not MPoly.zero(("s",)) and MPoly((), {(): -1})
    p = parse_poly("λ^2 - 6*λ + 6")
    assert p.eval_at({LAMBDA: 1}) == 1
    assert p.eval_at({LAMBDA: Fraction(1, 2)}) == Fraction(13, 4)


def test_parser_round_trip_and_literal_powers():
    p = parse_poly("λ^6 - 16*λ^5 + 3*λ - 7")
    assert parse_poly(p.to_text()) == p
    # an integer raised to a power is just an integer
    assert parse_poly("15^2").constant_value() == 225
    # a single term to a power, 0^0 = 1 included, and a sum to a power
    variables = (LAMBDA, "s")
    assert parse_poly("(-2*s*λ^2)^3", variables=variables) == parse_poly("-8*s^3*λ^6", variables=variables)
    assert parse_poly("(3*s)^0", variables=variables) == 1 and parse_poly("0^0") == 1
    assert parse_poly("(0*s)^0 + 0^2", variables=variables) == 1
    assert parse_poly("-(s - s)^2 - 0^1", variables=variables) == 0
    with pytest.raises(ValueError):
        parse_poly("λ +* 2")
    # poly_text prints a coefficient list as MPoly.to_text prints its lift
    rng = random.Random(3)
    for _ in range(40):
        c = [rng.choice([0, 0, 1, -1, 2, -7, 12]) for _ in range(rng.randint(0, 6))]
        assert poly_text(c) == lift(c).to_text(), c
        assert parse_poly(poly_text(c), variables=(LAMBDA,)) == lift(c)


def test_symbolic_substitution_matches_printed_evaluations():
    p = parse_poly(
        "λ^6+(-2*s-12)*λ^5+(s^2+18*s+55)*λ^4+(-6*s^2-56*s-120)*λ^3"
        "+(10*s^2+70*s+125)*λ^2+(-4*s^2-30*s-50)*λ",
        variables=(LAMBDA, "s"),
    )
    assert p.substitute({LAMBDA: 1}) == parse_poly("s^2 - 1")
    assert p.substitute({LAMBDA: 2}) == parse_poly("-4*s")
    # int values keep int coefficients; rational values agree with them
    inst = p.substitute({"s": 3})
    assert all(type(c) is int for c in inst.terms.values())
    assert inst == p.substitute({"s": Fraction(3)})
    half = p.substitute({LAMBDA: Fraction(1, 2)})
    assert half.eval_at({"s": 3}) == inst.eval_at({LAMBDA: Fraction(1, 2)})
    with pytest.raises(TypeError):
        p.substitute({"s": 0.5})


def test_scaled_value_is_the_value_times_the_denominator_power():
    c = [6, -6, 1, 0]  # λ^2 - 6λ + 6 with a zero top coefficient: d = 3
    for q in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5, 2), Fraction(1, 10**6)):
        value = Fraction(q.denominator**3) * (q * q - 6 * q + 6)
        assert _scaled_value(c, q.numerator, q.denominator) == value
        assert _sign_at(c, q) == (value > 0) - (value < 0)
    assert _scaled_value([], 1, 3) == 0


def test_integer_roots_examples():
    rep = integer_roots(coeffs("λ^3 - 4*λ^2 + 3*λ"))
    assert rep.integer_roots == ((3, 1), (1, 1), (0, 1))
    assert rep.residual == (1,)
    rep = integer_roots(coeffs("λ^4 - 12*λ^3 + 50*λ^2 - 84*λ + 48"))
    assert dict(rep.integer_roots) == {2: 1, 4: 1}
    assert rep.residual == (6, -6, 1)
    rep = integer_roots(coeffs("λ^2 + 1"))
    assert rep.integer_roots == () and rep.residual == (1, 0, 1)
    assert rep.isolating_intervals == ()
    with pytest.raises(ValueError):
        integer_roots([])
    with pytest.raises(ValueError):
        integer_roots([0, 0])


def test_integer_roots_recovers_random_linear_factorizations():
    rng = random.Random(42)
    for _ in range(60):
        roots = {}
        c = [rng.choice([1, 1, 2, -3])]
        for _ in range(rng.randint(1, 5)):
            r = rng.randint(-6, 6)
            roots[r] = roots.get(r, 0) + 1
            c = poly_mul(c, [-r, 1])
        rep = integer_roots(c)
        assert dict(rep.integer_roots) == roots
        assert len(rep.residual) == 1  # a non-monic input keeps its unit
        assert reconstructs(rep, c)


def test_root_report_reconstruction_invariant():
    rng = random.Random(7)
    for _ in range(40):
        c = [1]
        for _ in range(rng.randint(1, 3)):
            c = poly_mul(c, [-rng.randint(-4, 4), 1])
        if rng.random() < 0.6:
            c = poly_mul(c, [1, 1, 1])
        rep = integer_roots(c)
        assert reconstructs(rep, c)


# -- reference implementations ------------------------------------------------
#
# The full root searches try every divisor of the trailing coefficient found
# by trial division up to isqrt(|c0|), kept when below the Cauchy bound. Their
# cost grows with sqrt(|c0|), so they serve only as oracles for the kernel's
# search, whose candidates stop at the Fujiwara bound.


def _all_divisors(n):
    n = abs(n)
    return sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})


def _strip_zero_roots(c):
    k = 0
    while not c[k]:
        k += 1
    return k, c[k:]


def _full_search_integer_roots(c):
    k, c = _strip_zero_roots(c)
    roots = {0: k} if k else {}
    bound = _root_bound(c)
    for d in [d for d in _all_divisors(c[0]) if d <= bound]:
        for r in (d, -d):
            while len(c) > 1 and poly_value(c, r) == 0:
                c = _synthetic_div(c, r)
                roots[r] = roots.get(r, 0) + 1
    return roots, c


def _full_search_rational_roots(c):
    k, c = _strip_zero_roots(c)
    roots = {Fraction(0): k} if k else {}
    nums, dens, bound = _all_divisors(c[0]), _all_divisors(c[-1]), _root_bound(c)
    for cand in sorted({Fraction(p, q) for p in nums for q in dens if Fraction(p, q) <= bound}):
        for r in (cand, -cand):
            while len(c) > 1 and _sign_at(c, r) == 0:
                c = _exact_quotient(c, [-r.numerator, r.denominator])
                roots[r] = roots.get(r, 0) + 1
    return roots, c


def _sturm_bisection(c, precision):
    """Isolating intervals by Sturm counts alone: every interval is split until
    it holds one root and is at most precision wide."""
    rational, rest = _rational_roots(c)
    intervals = [(r, r) for r in rational]
    if len(rest) > 1:
        chain = _sturm_chain(rest)
        bound = Fraction(_root_bound(rest))
        work = [(-bound, bound)]
        while work:
            lo, hi = work.pop()
            count = _count_halfopen(chain, lo, hi)
            if count == 1 and hi - lo <= precision:
                intervals.append((lo, hi))
            elif count:
                mid = (lo + hi) / 2
                work += [(lo, mid), (mid, hi)]
    return sorted(intervals, key=lambda iv: (iv[0] + iv[1]) / 2)


def _random_factored_poly(rng):
    """Ascending integer coefficients: a unit times repeated integer roots,
    non-monic rational factors (q·x - p), a random quadratic, and often one
    factor with a huge constant term (a huge integer root, or x^2 + K).
    The huge constant is drawn only up to |c0| <= 10^11, so the full search
    above stays affordable."""
    c = [rng.choice([1, -1, 2, -3, 6])]
    for _ in range(rng.randint(0, 3)):
        r = rng.randint(-12, 12)
        for _ in range(rng.choice([1, 1, 2, 3])):
            c = poly_mul(c, [-r, 1])
    for _ in range(rng.randint(0, 2)):
        q = rng.randint(2, 5)
        c = poly_mul(c, [-rng.choice([p for p in range(-7, 8) if p % q]), q])
    if rng.random() < 0.5:
        c = poly_mul(c, [rng.randint(-9, 9), rng.randint(-4, 4), rng.randint(1, 3)])
    c0 = abs(_strip_zero_roots(c)[1][0])
    if rng.random() < 0.7 and c0 * 10**6 <= 10**11:
        big = rng.randint(10**6, 10**11 // c0)
        c = poly_mul(c, rng.choice([[-big, 1], [big, 1], [big, 0, 1]]))
    return c


def test_bounded_root_search_equals_full_search():
    rng = random.Random(1916)
    for _ in range(60):
        c = _random_factored_poly(rng)
        assert split_integer_roots(c) == _full_search_integer_roots(c), c
        assert _rational_roots(c) == _full_search_rational_roots(c), c


def _random_non_monic_poly(rng):
    """A non-monic integer polynomial: linear factors q·x - p, some
    repeated, with q up to 25 and often a power of two, so that some roots
    are dyadic and can lie on the ends of the dyadic cells, times a random
    factor with a leading coefficient up to 1000. The sizes keep the
    divisor search affordable."""
    c = [rng.choice([2, -3, 5])]
    for _ in range(rng.randint(0, 3)):
        linear = [-rng.randint(-40, 40), rng.choice([1, 2, 4, 8, 9, 16, 25])]
        for _ in range(rng.choice([1, 1, 2])):
            c = poly_mul(c, linear)
    if rng.random() < 0.8:
        rest = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 4))]
        c = poly_mul(c, rest + [rng.randint(1, 1000)])
    return c


def test_rational_roots_equal_the_divisor_search():
    rng = random.Random(1768)
    found = 0
    for _ in range(80):
        c = _random_non_monic_poly(rng)
        rational = _rational_roots(c)
        assert rational == divisor_search_rational_roots(c), c
        found += sum(r.denominator > 1 for r in rational[0])
    assert found > 40  # the search meets many roots that are not integers


def test_rational_root_time_does_not_follow_the_leading_coefficient():
    # degree 11, coefficients near 10^12 and a leading coefficient near
    # 7·10^12: the divisor search trial-divided it up to its square root,
    # 0.25 s on a 2-core host. The lead of 10^30 puts that search out of
    # reach; its rational roots are the dyadic 1/8 and -3/4.
    rng = random.Random(11)
    c = [rng.randint(-(10**12), 10**12) for _ in range(11)] + [7 * 10**12 + 3]
    with_root = poly_mul([-5, 42], c)
    tail = [rng.randint(-(10**30), 10**30) for _ in range(8)] + [10**30 + 7]
    dyadic = poly_mul([-1, 8], poly_mul([3, 4], tail))
    start = time.perf_counter()
    got = [_rational_roots(p) for p in (c, with_root, dyadic)]
    elapsed = time.perf_counter() - start
    assert got[0] == divisor_search_rational_roots(c) == ({}, c)
    assert got[1] == divisor_search_rational_roots(with_root)
    assert got[1][0] == {Fraction(5, 42): 1}
    assert got[2][0] == {Fraction(1, 8): 1, Fraction(-3, 4): 1}
    assert elapsed < 0.2, elapsed


def test_non_monic_isolation_builds_one_remainder_sequence(monkeypatch):
    # 3λ³ - 4λ - 2 is square-free, has no rational root and a nonzero
    # constant term: the chain _isolation builds for its square-free part
    # is the one the rational-root search halves cells with, so one
    # remainder sequence serves both.
    c = [-2, -4, 0, 3]
    assert _rational_roots(c) == ({}, c)
    calls = []
    chain = polys._remainder_chain

    def counting(p):
        calls.append(list(p))
        return chain(p)

    monkeypatch.setattr(polys, "_remainder_chain", counting)
    intervals = isolate_roots(c)
    assert calls == [c]
    assert len(intervals) == sturm_count(c, -2, 2) == 1


def test_isolation_equals_sturm_bisection():
    rng = random.Random(1829)
    for _ in range(40):
        c = [1]
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 4)
            c = poly_mul(c, [rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 3)])
        c = _square_free_chain(c)[0]
        precision = rng.choice([Fraction(1, 10), Fraction(1, 1000), Fraction(1, 2**20)])
        assert isolate_roots(c, precision) == _sturm_bisection(c, precision), c


def test_sturm_counts():
    p = coeffs("λ^2 - 6*λ + 6")
    assert sturm_count(p, 1, 2) == 1
    assert sturm_count(p, 4, 5) == 1
    assert sturm_count(p, 2, 4) == 0
    assert sturm_count(coeffs("λ^2 + 1"), -10, 10) == 0
    with pytest.raises(ValueError):
        sturm_count(p, 2, 2)
    # repeated roots count once; the half-open end includes its root
    q = coeffs("(λ-2)^2*(λ-1)")
    assert sturm_count(q, 0, 2) == 2
    assert sturm_count(q, 1, 2) == 1
    assert sturm_count(q, 2, 3) == 0


def test_sturm_against_known_root_multisets():
    # polynomials with fully known roots: counts are literal comparisons
    rng = random.Random(61)
    for _ in range(50):
        roots = sorted(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
        poly = [1]
        for r in roots:
            poly = poly_mul(poly, [-r, 1])
        a = Fraction(rng.randint(-16, 12), 2)
        b = a + Fraction(rng.randint(1, 16), 2)
        expected = len({r for r in roots if a < r <= b})
        assert sturm_count(poly, a, b) == expected, (roots, a, b)


def test_sturm_partition_additivity():
    rng = random.Random(13)
    for _ in range(30):
        poly = [1]
        for _ in range(rng.randint(2, 6)):
            poly = poly_mul(poly, [-rng.randint(-5, 5), 1])
        pts = sorted(rng.sample(range(-8, 9), 4))
        a, m1, m2, b = (Fraction(p, 2) for p in pts)
        total = sturm_count(poly, a, b)
        parts = sturm_count(poly, a, m1) + sturm_count(poly, m1, m2) + sturm_count(poly, m2, b)
        assert total == parts


def test_eval_mul_homomorphism():
    rng = random.Random(99)
    for _ in range(40):
        a = MPoly.zero((LAMBDA, "s"))
        b = MPoly.zero((LAMBDA, "s"))
        for _ in range(4):
            a = a + MPoly((LAMBDA, "s"), {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-5, 5)})
            b = b + MPoly((LAMBDA, "s"), {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-5, 5)})
        at = {LAMBDA: Fraction(rng.randint(-6, 6), rng.randint(1, 4)), "s": rng.randint(-3, 3)}
        assert (a * b).eval_at(at) == a.eval_at(at) * b.eval_at(at)


def test_isolate_roots():
    ivs = isolate_roots(coeffs("λ^2 - 6*λ + 6"), Fraction(1, 100))
    assert len(ivs) == 2
    for (lo, hi), target in zip(ivs, (Fraction(1268, 1000), Fraction(4732, 1000))):
        assert hi - lo <= Fraction(1, 100)
        assert lo < target < hi or abs((lo + hi) / 2 - target) < Fraction(1, 100)
    ivs = isolate_roots(coeffs("λ^2 - 7*λ + 8"), Fraction(1, 100))
    mids = [float((lo + hi) / 2) for lo, hi in ivs]
    assert round(mids[0], 2) == 1.44 and round(mids[1], 2) == 5.56
    assert isolate_roots(coeffs("λ - 5")) == [(5, 5)]


def test_isolation_handles_repeated_and_rational_roots():
    p = coeffs("(2*λ-1)^2*(λ-3)*(λ^2-2)")
    ivs = isolate_roots(p, Fraction(1, 1000))
    assert len(ivs) == len(set(ivs)) == 4
    assert (Fraction(1, 2), Fraction(1, 2)) in ivs
    assert (3, 3) in ivs
    assert sturm_count(p, -4, 4) == 4


def test_precision_must_be_positive_everywhere():
    # integer_roots and spectrum check precision as isolate_roots does: a
    # zero width would divide by zero, a negative one still give intervals
    c = coeffs("λ^2 - 2")
    for bad in (0, Fraction(-1, 10)):
        for call in (
            lambda: integer_roots(c, bad),
            lambda: isolate_roots(c, bad),
            lambda: spectrum(path(4), "L", precision=bad),
        ):
            with pytest.raises(ValueError, match="precision must be positive"):
                call()
    assert len(integer_roots(c, Fraction(1, 10)).isolating_intervals) == 2


def test_divides():
    ok, quo = divides(coeffs("λ - 1"), coeffs("λ^2 - 1"))
    assert ok and quo == coeffs("λ + 1")
    ok, quo = divides(coeffs("λ^2 - 6*λ"), coeffs("λ^2 - 6*λ"))
    assert ok and quo == [1]
    ok, quo = divides(coeffs("λ^2 + 1"), coeffs("λ^3 - 4*λ^2 + 3*λ"))
    assert not ok and quo is None
    # in Z[λ]: 2λ divides 4λ^2, but not 3λ, whose quotient over Q is 3/2
    assert divides([0, 2], [0, 0, 4]) == (True, [0, 2])
    assert divides([0, 2], [0, 3]) == (False, None)
    assert divides([1, 1], []) == (True, [])
    with pytest.raises(ValueError):
        divides([0], coeffs("λ"))


def _random_monic(rng, max_degree):
    return [rng.randint(-9, 9) for _ in range(rng.randint(0, max_degree))] + [1]


def test_divides_equals_the_fraction_oracle_on_seeded_monic_pairs():
    rng = random.Random(1837)
    flags = set()
    for _ in range(300):
        p = [1]
        for _ in range(rng.randint(1, 3)):
            p = poly_mul(p, _random_monic(rng, 3))
        cofactor = [1]
        for _ in range(rng.randint(0, 3)):
            cofactor = poly_mul(cofactor, _random_monic(rng, 3))
        q = poly_mul(p, cofactor)
        if len(p) > 1 and rng.random() < 0.5:
            # a nonzero integer added to q is not a multiple of p (deg p >= 1)
            q[0] += rng.choice([-3, -1, 1, 2])
        elif rng.random() < 0.3:
            q = _random_monic(rng, 8)
        ok, quo = divides(p, q)
        assert (ok, quo) == fraction_divides(p, q), (p, q)
        assert not ok or poly_mul(p, quo) == q
        flags.add(ok)
    assert flags == {True, False}


def test_sign_at():
    p = coeffs("λ^2 - 2")
    assert _sign_at(p, Fraction(1)) == -1
    assert _sign_at(p, Fraction(3, 2)) == 1
    assert _sign_at(coeffs("λ - 5"), Fraction(5)) == 0


def test_close_roots_are_separated():
    # 1 and 1 + 2^-20: both rational, both recovered exactly
    p = coeffs("(λ - 1)*(1048576*λ - 1048577)")
    ivs = isolate_roots(p, Fraction(1, 2**30))
    assert ivs == [(1, 1), (Fraction(1048577, 1048576), Fraction(1048577, 1048576))]
    assert sturm_count(p, Fraction(1, 2), 1) == 1
    assert sturm_count(p, 1, 2) == 1


def test_negative_leading_coefficient():
    c = coeffs("-1*λ^3 + λ")
    rep = integer_roots(c)
    assert dict(rep.integer_roots) == {0: 1, 1: 1, -1: 1}
    assert rep.residual == (-1,)
    assert reconstructs(rep, c)


def test_big_coefficient_isolation_is_fast_and_bounded():
    rng = random.Random(1)
    for _ in range(10):
        c = [rng.randint(-(10**9), 10**9) for _ in range(13)]
        c[-1] = abs(c[-1]) or 1
        bound = _root_bound(c)
        assert 0 <= sturm_count(c, -bound, bound) <= 12


def test_one_variable_tuple_per_ring():
    a = parse_poly("s^2 - 1", variables=("s",))
    b = parse_poly("s^2 - 1", variables=("λ", "s", "t"))
    # arithmetic across variable tuples is an error, in either order
    for op in (add, sub, mul):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)
    # equality across tuples is False, even for the same constant
    assert a != b and b != a
    assert MPoly((), {(): 3}) != MPoly(("s",), {(0,): 3})
    # over one tuple, hash agrees with equality, and a number is a constant
    c = parse_poly("(s + 1)*(s - 1)", variables=("s",))
    assert c == a and hash(c) == hash(a)
    s2 = parse_poly("s^2", variables=("s",))
    assert (a + 1) ** 2 == s2 * s2 and hash((a + 1) ** 2) == hash(a * a + 2 * a + 1)
    assert MPoly((), {(): 3}) == 3 and 1 - a == 2 - s2 and a != 0
    assert len({a, b, c, MPoly(("s",), {(0,): -1}), a - s2}) == 3


def test_a_constant_hashes_as_the_number_it_equals():
    # a == b must give hash(a) == hash(b), or set and dict lookups miss
    for value in (3, 0, -1, Fraction(1, 2)):
        for variables in ((), ("s",), (LAMBDA, "s", "t")):
            const = MPoly(variables, {(0,) * len(variables): value})
            assert const == value and hash(const) == hash(value)
            assert value in {const} and const in {value}
            assert {const: "p"}[value] == "p" and {value: "n"}[const] == "n"
    zero = MPoly.zero(("s",))
    assert 0 in {zero} and zero in {0} and {0: 1}[zero] == 1 and {zero: 1}[0] == 1
