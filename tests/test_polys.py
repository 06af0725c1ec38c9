import random
import time
from fractions import Fraction
from math import comb
from operator import add, mul, sub

import pytest

from lapspec import (
    LAMBDA,
    MPoly,
    complete,
    complete_bipartite,
    divides,
    integer_roots,
    isolate_lowest_root,
    only_integer_roots,
    parse_poly,
    path,
    poly_text,
    poly_value,
    spectrum,
    split_integer_roots,
)
from lapspec import polys
from lapspec.matrices import char_poly
from lapspec.polys import _cells, _root_bound, divide_root
from lapspec.spectra import laplacian, signless_laplacian
from oracle_helpers import (
    _q_count_halfopen,
    _q_sturm_chain,
    count_roots,
    fraction_divides,
    fraction_square_free_part,
    lift,
    poly_mul,
    queries_pool_graphs,
    random_symmetric_char_poly,
    reconstructs,
    sturm_count_oracle,
)


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
    assert p.eval_at({LAMBDA: 3}) == -3 and type(p.eval_at({LAMBDA: 3})) is int
    # MPoly is over Z: a coefficient or an operand that is no int is a
    # TypeError, a whole Fraction included
    for value in (Fraction(1, 2), Fraction(3), 0.5):
        with pytest.raises(TypeError):
            MPoly((LAMBDA,), {(0,): value})
        for op in (add, sub, mul):
            with pytest.raises(TypeError):
                op(x, value)
            with pytest.raises(TypeError):
                op(value, x)


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
    # int values keep int coefficients, in either order of substitution;
    # any other value, a whole Fraction included, is a TypeError
    inst = p.substitute({"s": 3})
    assert all(type(c) is int for c in inst.terms.values())
    assert p.substitute({LAMBDA: 2}).eval_at({"s": 3}) == inst.eval_at({LAMBDA: 2}) == -12
    for value in (Fraction(3), Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            p.substitute({"s": value})


def test_integer_roots_examples():
    rep = integer_roots(coeffs("λ^3 - 4*λ^2 + 3*λ"))
    assert rep.integer_roots == ((3, 1), (1, 1), (0, 1))
    assert rep.residual == (1,)
    rep = integer_roots(coeffs("λ^4 - 12*λ^3 + 50*λ^2 - 84*λ + 48"))
    assert dict(rep.integer_roots) == {2: 1, 4: 1}
    assert rep.residual == (6, -6, 1)
    rep = integer_roots(coeffs("λ^2 - 2"))
    assert rep.integer_roots == () and rep.residual == (-2, 0, 1)
    assert len(rep.isolating_intervals) == 2
    # a residual that is not real-rooted has no isolating intervals to give
    with pytest.raises(ValueError, match="not real-rooted"):
        integer_roots(coeffs("λ^2 + 1"))
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
            c = poly_mul(c, [-1, -1, 1])  # λ² - λ - 1: two irrational real roots
        rep = integer_roots(c)
        assert reconstructs(rep, c)


# -- reference implementations ------------------------------------------------
#
# The full integer-root search tries every divisor of the trailing
# coefficient, kept when below the Cauchy bound. The divisors come from the
# coefficient's factorization by trial division, whose cost grows with the
# square root of its second-largest prime factor, so it serves only as an
# oracle for the kernel's search, whose candidates stop at Samuelson's
# interval. Bisection by Sturm counts on Fractions (oracle_helpers' Sturm
# chain over Q) is the oracle for isolation.


def _all_divisors(n):
    """Every positive divisor of n != 0, ascending, from its prime
    factorization by trial division."""
    n, divisors, p = abs(n), [1], 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            divisors = [d * p**k for d in divisors for k in range(e + 1)]
        p += 1
    return sorted(divisors)


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
                c = divide_root(c, r)
                roots[r] = roots.get(r, 0) + 1
    return roots, c


def _bisection_cells(c, precision):
    """The half-open cells (lo, hi] that plain bisection of (-B, B], B the
    Cauchy bound of c's square-free part, reaches by Sturm counts on
    Fractions: each cell is split until it holds one root and is at most
    precision wide. Ascending; a root on a grid point x gets the cell
    below x, integer roots included."""
    sf = fraction_square_free_part(c)
    chain = _q_sturm_chain(sf)
    bound = Fraction(_root_bound(sf))
    cells, work = [], [(-bound, bound)]
    while work:
        lo, hi = work.pop()
        count = _q_count_halfopen(chain, lo, hi)
        if count == 1 and hi - lo <= precision:
            cells.append((lo, hi))
        elif count:
            mid = (lo + hi) / 2
            work += [(mid, hi), (lo, mid)]
    return cells


def _sturm_bisection(c, precision):
    """The bisection cells, by Sturm counts alone, of the integer-root-free
    rest of c: the isolating intervals integer_roots gives."""
    rest = split_integer_roots(c)[1]
    return _bisection_cells(rest, precision) if len(rest) > 1 else []


def _random_factored_poly(rng):
    """Ascending integer coefficients of a real-rooted polynomial: a unit
    times repeated integer roots, non-monic rational factors (q·x - p),
    often the characteristic polynomial of a seeded symmetric integer
    matrix, and often one factor with a huge constant term (a huge integer
    root, or x^2 - K). The huge constant is drawn only up to |c0| <= 10^11,
    so the full search above stays affordable."""
    c = [rng.choice([1, -1, 2, -3, 6])]
    for _ in range(rng.randint(0, 3)):
        r = rng.randint(-12, 12)
        for _ in range(rng.choice([1, 1, 2, 3])):
            c = poly_mul(c, [-r, 1])
    for _ in range(rng.randint(0, 2)):
        q = rng.randint(2, 5)
        c = poly_mul(c, [-rng.choice([p for p in range(-7, 8) if p % q]), q])
    if rng.random() < 0.5:
        c = poly_mul(c, random_symmetric_char_poly(rng, rng.randint(1, 3), 5))
    c0 = abs(_strip_zero_roots(c)[1][0])
    if rng.random() < 0.7 and c0 * 10**6 <= 10**11:
        big = rng.randint(10**6, 10**11 // c0)
        c = poly_mul(c, rng.choice([[-big, 1], [big, 1], [-big, 0, 1]]))
    return c


def test_bounded_root_search_equals_full_search():
    # seeded real-rooted products, and the L and Q polynomials of K2..K30
    # and of K_{a,b} with a + b <= 30: integer spectra of high multiplicity,
    # with constant terms up to 30^29
    rng = random.Random(1916)
    cases = [_random_factored_poly(rng) for _ in range(60)]
    graphs = [complete(n) for n in range(2, 31)]
    graphs += [complete_bipartite(a, b) for a in range(1, 16) for b in range(a, 31 - a)]
    cases += [char_poly(m(g)) for g in graphs for m in (laplacian, signless_laplacian)]
    for c in cases:
        assert split_integer_roots(c) == _full_search_integer_roots(c), c


def test_the_integer_root_search_takes_only_real_rooted_input():
    # λ² + 1 has a negative Samuelson variance
    for call in (split_integer_roots, only_integer_roots):
        with pytest.raises(ValueError, match="not real-rooted"):
            call([1, 0, 1])
    # (λ - 5)(λ² + 1) passes that test, N = 88 >= 0: its integer root is
    # split off, and the cell search finds the rest out
    c = poly_mul([-5, 1], [1, 0, 1])
    assert split_integer_roots(c) == ({5: 1}, [1, 0, 1])
    assert not only_integer_roots(c)
    with pytest.raises(ValueError, match="not real-rooted"):
        integer_roots(c)


def test_the_split_is_cached_per_polynomial_and_handed_out_fresh():
    split_integer_roots.cache_clear()
    c = poly_mul(poly_mul([-5, 1], [-5, 1]), [-2, 0, 1])  # (λ - 5)²(λ² - 2)
    first = split_integer_roots(c)
    assert first == ({5: 2}, [-2, 0, 1])
    # changing what a call returned leaves the cached split intact
    first[0][5] = 9
    first[0][7] = 1
    first[1][0] = 0
    first[1].append(3)
    # the key is the trimmed coefficient tuple: trailing zeros and a tuple
    # find the same entry
    assert split_integer_roots(tuple(c) + (0, 0)) == ({5: 2}, [-2, 0, 1])
    assert split_integer_roots.cache_info()[:2] == (1, 1)  # hits, misses
    # an error is not cached: each call raises it again and adds no entry
    for _ in range(3):
        for bad, match in (([0, 0], "zero polynomial"), ([1, 0, 1], "not real-rooted")):
            with pytest.raises(ValueError, match=match):
                split_integer_roots(bad)
            with pytest.raises(ValueError, match=match):
                only_integer_roots(bad)
    assert split_integer_roots.cache_info().currsize == 1


def test_isolation_builds_no_remainder_sequence(monkeypatch):
    # (λ - 1)²(λ + 2)(λ² - 2)²(λ² - 3): the integer roots are split off
    # before the square-free part is taken, and the rest, (λ² - 2)²(λ² - 3),
    # is not square-free. Its gcd with its derivative, λ² - 2, is read off
    # one evaluation point (_gcd), so no pseudo-remainder is taken, as on
    # none of the L and Q polynomials of the benchmark's query pool
    rest = poly_mul(poly_mul([-2, 0, 1], [-2, 0, 1]), [-3, 0, 1])
    c = poly_mul(poly_mul([-1, 1], [-1, 1]), poly_mul([2, 1], rest))
    calls = []
    prem = polys._prem

    def counting(f, g):
        calls.append((list(f), list(g)))
        return prem(f, g)

    monkeypatch.setattr(polys, "_prem", counting)
    report = integer_roots(c)
    assert report.residual == tuple(rest)
    assert len(report.integer_roots) + len(report.isolating_intervals) == 2 + count_roots(rest, -3, 3) == 6
    assert isolate_lowest_root(rest) == integer_roots(rest).isolating_intervals[0]
    for g in queries_pool_graphs():
        for matrix in (laplacian(g), signless_laplacian(g)):
            integer_roots(char_poly(matrix))
    assert not calls


def test_the_gcd_falls_back_to_the_remainder_sequence_when_its_one_point_fails(monkeypatch):
    # (λ - 1)³(λ - 3)(λ + 2) and its derivative, and (λ + 4)(7 - λ) and
    # (λ + 4)(λ + 1), have gcds that the evaluation point does not give:
    # the remainder sequence gives them, once per gcd, so the square-free
    # part and the root count (one gcd each) stay exact
    c = [6, -17, 14, 0, -4, 1]
    pairs = [([28, 3, -1], [4, 5, 1]), (c, polys._primitive(polys._derivative(c)))]
    calls = []
    fallback = polys._remainder_gcd

    def recording(a, b):
        calls.append((a, b))
        return fallback(a, b)

    monkeypatch.setattr(polys, "_remainder_gcd", recording)
    assert [polys._gcd(a, b) for a, b in pairs] == [[4, 1], [1, -2, 1]]
    assert calls == pairs
    assert polys._square_free(c) == [6, -5, -2, 1]
    assert count_roots(c, -3, 3) == 3
    assert len(calls) == 4


def test_the_cell_search_scales_the_residual_once_at_the_target_level_and_once_per_level_past_it(monkeypatch):
    # the close pair of λ⁴ − 2(2^20·λ − 1)², about 2^-59 apart, is split
    # 18 levels past the target level 44 of precision 1/2: rest(2B·y) is
    # pre-scaled once at the target level, for the cell search and the
    # refinement, and once at each of the levels 45..62 past it, and at no
    # level below the target
    a = 1 << 20
    c = [-2, 4 * a, -2 * a * a, 0, 1]
    calls = []
    prescaled = polys._prescaled

    def counting(p, level):
        calls.append((tuple(p), level))
        return prescaled(p, level)

    monkeypatch.setattr(polys, "_prescaled", counting)
    assert len(integer_roots(c, Fraction(1, 2)).isolating_intervals) == 4
    assert sorted(level for _, level in calls) == list(range(44, 63))
    assert len({p for p, _ in calls}) == 1


def test_isolation_equals_sturm_bisection():
    # square-free parts of characteristic polynomials of seeded symmetric
    # integer matrices, some times planted integer roots
    rng = random.Random(1829)
    for _ in range(40):
        c = random_symmetric_char_poly(rng, rng.randint(1, 6), rng.choice([3, 20, 1000]))
        for _ in range(rng.randint(0, 2)):
            c = poly_mul(c, [-rng.randint(-20, 20), 1])
        c = fraction_square_free_part(c)
        precision = rng.choice([Fraction(1, 10), Fraction(1, 1000), Fraction(1, 2**20)])
        assert list(integer_roots(c, precision).isolating_intervals) == _sturm_bisection(c, precision), c


def _refinement_evaluations(monkeypatch, c, precision):
    """integer_roots(c, precision)'s cells, and (evaluations, 4·(target - k)) for
    each root _refine refines meanwhile; asserts that every grid index a
    refinement evaluates is new and strictly inside its cell (the cell
    search hands over both end values), and stops a refinement that
    exceeds the bound."""
    horner, refine = polys._horner, polys._refine
    per_root = []
    current = None  # (cell ends as target-level indices, points so far, bound)

    def counting_value(scaled, point):
        if current is not None:
            ends, seen, bound = current
            assert point not in seen, "a point evaluated twice"
            assert ends[0] < point < ends[1], "a point outside the cell"
            seen.append(point)
            assert len(seen) <= bound, "the refinement exceeds its bound"
        return horner(scaled, point)

    def counting_refine(scaled, j, k, target, w_lo, w_hi):
        nonlocal current
        shift = target - k
        current = ((j << shift, j + 1 << shift), [], 4 * shift)
        out = refine(scaled, j, k, target, w_lo, w_hi)
        per_root.append((len(current[1]), current[2]))
        current = None
        return out

    monkeypatch.setattr(polys, "_horner", counting_value)
    monkeypatch.setattr(polys, "_refine", counting_refine)
    intervals = list(integer_roots(c, precision).isolating_intervals)
    monkeypatch.undo()
    return intervals, per_root


def test_refinement_takes_at_most_four_evaluations_per_level(monkeypatch):
    # Illinois steps bisect whenever three steps have not halved the
    # bracket, so a root costs at most 4 evaluations per level below the
    # cell's; the cell search hands over both end values. The Mignotte
    # polynomial λ⁴ - 2(2^20·λ - 1)² has two roots near 2^-20, about 2^-59
    # apart: the chords through their cells land near the cells' ends, and
    # each of the two costs about 167 evaluations (of at most 320), against
    # 16-22 for the other roots.
    mignotte = [-2, 4 * 2**20, -2 * 2**40, 0, 1]
    wilkinson = [1]
    for i in range(1, 13):
        wilkinson = poly_mul(wilkinson, [-i, 1])
    wilkinson[0] += 1
    fine = Fraction(1, 10**30)
    for c, precision in (
        (mignotte, fine),
        (wilkinson, polys.DEFAULT_PRECISION),
        ([-2, 0, 1], fine),
    ):
        intervals, per_root = _refinement_evaluations(monkeypatch, c, precision)
        assert intervals == _sturm_bisection(c, precision)
        assert per_root and all(n <= bound for n, bound in per_root), per_root


def _queries_pool_residuals():
    residuals = []
    for g in queries_pool_graphs():
        for m in (laplacian(g), signless_laplacian(g)):
            rest = split_integer_roots(char_poly(m))[1]
            if len(rest) > 1:
                residuals.append(rest)
    return residuals


def test_pool_residual_roots_take_at_most_ten_evaluations_on_average(monkeypatch):
    # the L and Q residuals of the benchmark's 72 query graphs (n = 6..13)
    # at the default precision: about 9.5 evaluations per refined root,
    # most end values handed over by the cell search
    residuals = _queries_pool_residuals()
    assert len(residuals) == 117
    counts = [
        n for c in residuals for n, _ in _refinement_evaluations(monkeypatch, c, polys.DEFAULT_PRECISION)[1]
    ]
    assert sum(counts) <= 10 * len(counts), sum(counts) / len(counts)


def test_sturm_counts():
    # count_roots on literal examples, beside the Sturm oracle: repeated
    # roots count once, and the half-open end includes its root
    p = coeffs("λ^2 - 6*λ + 6")
    q = coeffs("(λ-2)^2*(λ-1)")
    for c, a, b, expected in ((p, 1, 2, 1), (p, 4, 5, 1), (p, 2, 4, 0), (q, 0, 2, 2), (q, 1, 2, 1), (q, 2, 3, 0)):
        assert count_roots(c, a, b) == sturm_count_oracle(c, a, b) == expected
    assert count_roots(p, Fraction(-7, 3), Fraction(9, 7)) == 1
    with pytest.raises(ValueError):
        count_roots(p, 2, 2)
    with pytest.raises(ValueError):
        count_roots([0], 0, 1)


def test_sturm_against_known_root_multisets():
    # polynomials with fully known roots: counts are literal comparisons,
    # for count_roots and the Sturm oracle alike
    rng = random.Random(61)
    for _ in range(50):
        roots = sorted(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
        poly = [1]
        for r in roots:
            poly = poly_mul(poly, [-r, 1])
        a = Fraction(rng.randint(-16, 12), 2)
        b = a + Fraction(rng.randint(1, 16), 2)
        expected = len({r for r in roots if a < r <= b})
        assert count_roots(poly, a, b) == sturm_count_oracle(poly, a, b) == expected, (roots, a, b)


def test_sturm_partition_additivity():
    rng = random.Random(13)
    for _ in range(30):
        poly = [1]
        for _ in range(rng.randint(2, 6)):
            poly = poly_mul(poly, [-rng.randint(-5, 5), 1])
        pts = sorted(rng.sample(range(-8, 9), 4))
        a, m1, m2, b = (Fraction(p, 2) for p in pts)
        total = count_roots(poly, a, b)
        parts = count_roots(poly, a, m1) + count_roots(poly, m1, m2) + count_roots(poly, m2, b)
        assert total == parts == sturm_count_oracle(poly, a, b)


def test_eval_mul_homomorphism():
    rng = random.Random(99)
    for _ in range(40):
        a = MPoly.zero((LAMBDA, "s"))
        b = MPoly.zero((LAMBDA, "s"))
        for _ in range(4):
            a = a + MPoly((LAMBDA, "s"), {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-5, 5)})
            b = b + MPoly((LAMBDA, "s"), {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-5, 5)})
        at = {LAMBDA: rng.randint(-6, 6), "s": rng.randint(-3, 3)}
        assert (a * b).eval_at(at) == a.eval_at(at) * b.eval_at(at)


def test_isolate_roots():
    ivs = integer_roots(coeffs("λ^2 - 6*λ + 6"), Fraction(1, 100)).isolating_intervals
    assert len(ivs) == 2
    for (lo, hi), target in zip(ivs, (Fraction(1268, 1000), Fraction(4732, 1000))):
        assert hi - lo <= Fraction(1, 100)
        assert lo < target < hi or abs((lo + hi) / 2 - target) < Fraction(1, 100)
    ivs = integer_roots(coeffs("λ^2 - 7*λ + 8"), Fraction(1, 100)).isolating_intervals
    mids = [float((lo + hi) / 2) for lo, hi in ivs]
    assert round(mids[0], 2) == 1.44 and round(mids[1], 2) == 5.56
    report = integer_roots(coeffs("λ - 5"))
    assert (report.integer_roots, report.isolating_intervals) == (((5, 1),), ())


def test_isolation_handles_repeated_and_rational_roots():
    # a monic polynomial's rational roots are its integer roots
    p = coeffs("(λ+1)^2*(λ-3)*(λ^2-2)")
    report = integer_roots(p, Fraction(1, 1000))
    assert report.integer_roots == ((3, 1), (-1, 2))
    ivs = report.isolating_intervals
    assert len(ivs) == len(set(ivs)) == 2
    assert ivs[0][1] < -1 < ivs[1][0] and ivs[1][1] < 3
    assert all(type(end) is Fraction for iv in ivs for end in iv)
    assert count_roots(p, -4, 4) == 4


def test_isolation_takes_only_a_monic_primitive_part():
    # the leading coefficient must divide the content: 2λ² - 4 = 2(λ² - 2)
    # and -λ³ + λ are taken; 2λ - 1, (2λ - 1)(λ² - 2) and (λ - 3)(3λ² + 1)
    # are not, the last one also once its integer root is split off
    assert len(integer_roots([-4, 0, 2]).isolating_intervals) == 2
    assert len(integer_roots([0, 1, 0, -1]).integer_roots) == 3
    non_monic = [[-1, 2], poly_mul([-1, 2], [-2, 0, 1]), poly_mul([-3, 1], [1, 0, 3])]
    for c in non_monic:
        for call in (isolate_lowest_root, integer_roots):
            with pytest.raises(ValueError, match="leading coefficient does not divide its content"):
                call(c)
        # the integer-root search takes a primitive part that is not monic;
        # the last c is not real-rooted, and has a non-constant cofactor
        assert len(split_integer_roots(c)[1]) > 1 and not only_integer_roots(c)
    # and count_roots any real-rooted one, monic or not
    assert [count_roots(c, -4, 4) for c in non_monic[:2]] == [1, 3]


def test_a_root_on_a_grid_point_gets_the_bisection_cell():
    # λ³ - 3λ² - 3λ + 1 = (λ + 1)(λ² - 4λ + 1) has Cauchy bound 4, so its
    # root -1 is a grid point. isolate_lowest_root splits no integer root
    # off, and refining the cell (-4, 0] hits -1 itself: the cell is the
    # one below it, as bisection reaches
    c = [1, -3, -3, 1]
    assert isolate_lowest_root(c) == (Fraction(-1048577, 1048576), -1)
    for precision in (polys.DEFAULT_PRECISION, Fraction(1, 3), Fraction(1), Fraction(5)):
        assert isolate_lowest_root(c, precision) == _bisection_cells(c, precision)[0]
    assert integer_roots(c).integer_roots == ((-1, 1),)
    # every cell of polynomials with integer roots at grid points: the
    # root 0 lies on the upper end of the cell (-w, 0] next to it, and is
    # the lower end of the cell above it, which holds another root; and
    # planted integer roots times characteristic polynomials of seeded
    # symmetric integer matrices
    rng = random.Random(1829)
    cases = [c, poly_mul([0, 1], [2, -4, 1]), poly_mul([0, 1], [-1, 0, 1]), poly_mul([0, 1, -1], [-17, 0, 1])]
    for _ in range(30):
        g = [1]
        for _ in range(rng.randint(1, 3)):
            g = poly_mul(g, [-rng.randint(-4, 4), 1])
        cases.append(poly_mul(g, random_symmetric_char_poly(rng, rng.randint(1, 3), 9)))
    for c in cases:
        for precision in (polys.DEFAULT_PRECISION, Fraction(1, 3), Fraction(1), Fraction(5)):
            assert list(_cells(c, precision)) == _bisection_cells(c, precision), (c, precision)


def test_a_cell_as_wide_as_the_start_interval_is_kept_at_level_zero():
    # at a precision of at least 2B the target level is 0: a degree-1
    # residual keeps the whole start interval (-B, B], and a quadratic's
    # roots get the level-1 cells bisection reaches, on both sides of 0 or
    # on one
    assert isolate_lowest_root([-3, 1], 8) == (-4, 4)
    assert list(_cells([-3, 1], 8)) == _bisection_cells([-3, 1], 8) == [(-4, 4)]
    for c, precision, cells in (
        ([-2, 0, 1], 6, [(-3, 0), (0, 3)]),
        ([-2, 0, 1], 1000, [(-3, 0), (0, 3)]),
        ([5, -5, 1], 12, [(0, 3), (3, 6)]),
    ):
        assert list(integer_roots(c, precision).isolating_intervals) == _bisection_cells(c, precision) == cells
        assert isolate_lowest_root(c, precision) == cells[0]


def test_precision_must_be_positive_everywhere():
    # integer_roots and spectrum check precision as isolate_lowest_root
    # does: a zero width would divide by zero, a negative one still give
    # intervals
    c = coeffs("λ^2 - 2")
    for bad in (0, Fraction(-1, 10)):
        for call in (
            lambda: integer_roots(c, bad),
            lambda: isolate_lowest_root(c, bad),
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


def test_close_roots_are_separated():
    # λ⁴ - 2(2^20·λ - 1)², whose four roots are real, has two near 2^-20
    # about 2^-59 apart, and (λ - 1) adds an integer root, recovered exactly
    a = 1 << 20
    quartic = [-2, 4 * a, -2 * a * a, 0, 1]
    report = integer_roots(poly_mul([-1, 1], quartic), Fraction(1, 2**30))
    ivs = report.isolating_intervals
    assert report.integer_roots == ((1, 1),) and len(ivs) == 4
    close = [iv for iv in ivs if Fraction(1, 2**21) < iv[0] < Fraction(1, 2**19)]
    assert len(close) == 2 and close[0][1] <= close[1][0]
    assert all(count_roots(quartic, lo, hi) == 1 for lo, hi in close)


@pytest.mark.parametrize("text", ["λ^2 + 1", "λ^5 - 2*(16*λ - 1)^2", "(λ^2 + 1)*(λ - 3)", "(λ^2 - 401)*(λ^2 + 200)"])
def test_isolation_of_a_polynomial_with_complex_roots_is_a_value_error(text):
    # λ² + 1 and the residual λ² + 1 of (λ² + 1)(λ - 3) fail Samuelson's
    # range; λ⁵ - 2(16λ - 1)² has three real roots, two of them close, and
    # a complex pair, which leaves a cell counted 2 narrower than Mahler's
    # root separation. The range (-18, 18) of (λ² - 401)(λ² + 200) misses
    # its real roots ±√401, and the lowest cell counted 1, (-19.6, -9.8],
    # holds no root: only its sign check finds that out before
    # isolate_lowest_root refines it. Each ends in well under a second
    c = coeffs(text)
    for call in (integer_roots, isolate_lowest_root):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not real-rooted"):
            call(c)
        assert time.perf_counter() - start < 1


def test_negative_leading_coefficient():
    c = coeffs("-1*λ^3 + λ")
    rep = integer_roots(c)
    assert dict(rep.integer_roots) == {0: 1, 1: 1, -1: 1}
    assert rep.residual == (-1,)
    assert reconstructs(rep, c)


def test_big_coefficient_isolation_is_fast_and_bounded():
    # monic polynomials of degree 12 with random coefficients up to 10^9
    # have complex roots, as the Sturm oracle counts; isolation finds that
    # out, a ValueError, in well under two seconds each
    rng = random.Random(1)
    for _ in range(10):
        c = [rng.randint(-(10**9), 10**9) for _ in range(12)] + [1]
        bound = _root_bound(c)
        assert sturm_count_oracle(c, -bound, bound) < 12
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not real-rooted"):
            integer_roots(c)
        assert time.perf_counter() - start < 2


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
    # over one tuple, equality is on the terms, and an int is a constant
    c = parse_poly("(s + 1)*(s - 1)", variables=("s",))
    assert c == a
    s2 = parse_poly("s^2", variables=("s",))
    assert (a + 1) ** 2 == s2 * s2 == a * a + 2 * a + 1
    assert MPoly((), {(): 3}) == 3 and 1 - a == 2 - s2 and a != 0
    assert a - s2 == MPoly(("s",), {(0,): -1}) == -1 and a != a - s2 and b != c
    # an MPoly has no hash, so no hash can disagree with equality
    with pytest.raises(TypeError):
        hash(a)


def test_last_interpolation_weights_row_is_the_signed_binomial_row():
    # the last row of _interpolation_weights(n) is (-1)^n (-1)^k C(n, k):
    # the n-th forward difference's weights, up to one sign for the whole
    # row, which deflate_values builds in closed form as (-1)^k C(n, k)
    for n in range(31):
        row = polys._interpolation_weights(n)[n]
        assert row == tuple((-1) ** n * (-1) ** k * comb(n, k) for k in range(n + 1))
