"""Properties of the integer univariate kernel (needs Hypothesis).

The square-free part of a polynomial with a planted repeated factor leaves
a gcd with the derivative that divides both and keeps the factor, the
square-free parts along the chain of repeated gcds multiply back to the
input up to the content, split_integer_roots finds exactly the integer
roots planted in front of a cofactor with none, deflate by the zeros in
0..N of planted (λ - k)^m, times 1 or a monic factor with no integer
root, finds the planted roots and leaves split_integer_roots' cofactor
(and every other candidate leaves the polynomial as it is),
deflate_values on the values at 0..n of a·∏(λ - r)^m·g, with planted
roots in 0..n, finds deflate's roots on the interpolated coefficients and
gives its cofactor's values, the shift-based value at a dyadic point equals the general scaled value, and
interpolate gives back an integer polynomial from its values at 0, 1, ...
and rejects the values of a polynomial whose coefficients are not all
integers; grid_interpolate on {0, 1, 2}^p, p = 1 or 2, gives back the
polynomial a table was made from, as interpolate does line by line, and
rejects a table changed by an odd amount at a point with a coordinate 0 or
2. The compiled tokenizer gives the tokens, or the ValueError, of the
character-at-a-time scanner of oracle_helpers on short mixed texts.
parse_poly reads
MPoly's canonical text back to the same polynomial over the given
variables. char_poly, on symmetric and on other matrices, takes the values
det(kI - M) of the Gaussian determinant at k = 0..n, and over Z[s,t] it
gives at integer (s, t) what it gives for the matrix with the values put
in. The catalog's polynomial interpolated from the integer fold on the
{0, 1, 2} grid equals the polynomial fold with symbolic counts, on random
path-count lists. taylor_shift of a polynomial in one or two parameters
equals its terms multiplied out at the shifted variables, and a sign that
sign_above certifies holds at every point of a box above the floors; a
polynomial shifted back from one whose coefficients and nonzero constant
term share a sign always certifies. shift_certificate settles a sign on a
small catalog grid (floors 0..2, tops up to 6, a random least parameter sum
and random exclusions) exactly when every grid point has that sign, checked
point by point; and _box_size counts the points grid_points yields.
Divisibility, content and rational roots come from the
Fraction helpers of oracle_helpers, not from lapspec.
"""

from itertools import product
from math import comb, factorial, gcd, prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from lapspec.families import _box_size, _grid_quotient, _grid_ranges, get_case, grid_points  # noqa: E402
from lapspec.matrices import IntMatrix, char_poly, det_gauss  # noqa: E402
from lapspec.polys import (  # noqa: E402
    LAMBDA,
    MPoly,
    _dyadic_value,
    _scaled_value,
    _square_free_chain,
    _tokenize,
    deflate,
    deflate_values,
    grid_interpolate,
    interpolate,
    parse_poly,
    poly_value,
    shift_certificate,
    sign_above,
    split_integer_roots,
    taylor_shift,
)

from oracle_helpers import (  # noqa: E402
    _q_derivative,
    _q_divmod,
    _q_primitive,
    _q_rational_roots,
    fold_path_quotient,
    poly_mul,
    scan_tokens,
    taylor_shift_oracle,
)

polys = st.lists(st.integers(-30, 30), min_size=1, max_size=7).filter(lambda c: c[-1] != 0)
nonconstant = polys.filter(lambda c: len(c) > 1)


def divides(d, c) -> bool:
    return not _q_divmod(c, d)[1]


def content(c) -> int:
    g = 0
    for x in c:
        g = gcd(g, x)
    return g


def square_free(c):
    """The square-free part _square_free_chain gives, checked to be
    primitive with a positive leading coefficient, and its chain to end in
    a constant, as a Sturm chain does."""
    part, chain = _square_free_chain(c)
    assert part[-1] > 0 and content(part) == 1
    assert chain[0] == part and len(chain[-1]) == 1
    return part


@settings(max_examples=60, deadline=None, database=None)
@given(polys, polys)
def test_gcd_divides_both_inputs_and_keeps_a_common_factor(common, a):
    # c over its square-free part is gcd(c, c'), which keeps the planted
    # square's factor
    c = poly_mul(poly_mul(common, common), a)
    g = _q_divmod(c, square_free(c))[0]
    assert divides(g, c) and divides(g, _q_derivative(c))
    assert divides(common, g)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(nonconstant, st.integers(1, 3)), max_size=3), polys)
def test_squarefree_decomposition_multiplies_back_up_to_content(factors, cofactor):
    # c = ∏ square-free parts of c, gcd(c, c'), ..., up to the content
    c = cofactor
    for f, m in factors:
        for _ in range(m):
            c = poly_mul(c, f)
    product, rest = [1], c
    while len(rest) > 1:
        part = square_free(rest)
        product = poly_mul(product, part)
        rest = _q_primitive(_q_divmod(rest, part)[0])
    sign = 1 if c[-1] > 0 else -1
    assert [sign * content(c) * x for x in product] == c


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.dictionaries(st.integers(-12, 12), st.integers(1, 3), max_size=4),
    polys,
)
def test_split_integer_roots_returns_exactly_the_planted_roots(planted, cofactor):
    assume(all(r.denominator != 1 for r in _q_rational_roots(cofactor)[0]))
    c = cofactor
    for r, m in planted.items():
        for _ in range(m):
            c = poly_mul(c, [-r, 1])
    roots, rest = split_integer_roots(c)
    assert roots == planted
    assert rest == cofactor


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.dictionaries(st.integers(0, 16), st.integers(1, 4), max_size=5),
    st.one_of(st.just([1]), st.lists(st.integers(-9, 9), min_size=2, max_size=4).map(lambda c: c + [1])),
)
@example({3: 3}, [1])
@example({0: 1, 2: 2}, [-2, 0, 1])
def test_deflating_by_the_zeros_in_range_leaves_the_split_cofactor(planted, factor):
    # the sweep's root test: every integer root lies in 0..16 and is
    # found as a zero there; factor is 1 or monic with no integer root
    assume(not split_integer_roots(factor)[0])
    c = factor
    for r, m in planted.items():
        for _ in range(m):
            c = poly_mul(c, [-r, 1])
    zeros = [k for k in range(17) if poly_value(c, k) == 0]
    roots, rest = deflate(c, zeros)
    assert roots == planted
    assert rest == split_integer_roots(c)[1] == factor
    others = [k for k in range(-3, 20) if k not in planted]
    assert deflate(c, others) == ({}, c)


@st.composite
def planted_values(draw):
    """(values, order): a·∏(λ - r)^m·g at 0..n, n at least its degree, with
    planted roots r in 0..n (at times 0 and n among them) of multiplicity
    up to 3, a not ±1 and g with or without integer roots of its own; and
    0..n shuffled."""
    a = draw(st.integers(-6, 6).filter(lambda a: a not in (-1, 0, 1)))
    g = draw(polys)
    for r in draw(st.lists(st.integers(-3, 14), max_size=2)):
        g = poly_mul(g, [-r, 1])
    planted = draw(st.dictionaries(st.integers(0, 14), st.integers(1, 3), max_size=4))
    c = [a * x for x in g]
    for r, m in planted.items():
        for _ in range(m):
            c = poly_mul(c, [-r, 1])
    n = max(len(c) - 1, *planted, 0) + draw(st.integers(0, 2))
    if draw(st.booleans()):
        # a root at each end of 0..n
        n = max(len(c) + 1, *planted, 1)
        c = poly_mul(poly_mul(c, [0, 1]), [-n, 1])
    return [poly_value(c, k) for k in range(n + 1)], draw(st.permutations(range(n + 1)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(planted_values())
@example(([poly_value([0, 0, 12, 0, -9, 3], k) for k in range(6)], [5, 4, 3, 2, 1, 0]))
def test_deflating_on_values_equals_deflating_the_interpolated_coefficients(case):
    # deflate_values against deflate(interpolate(values), candidates): the
    # same roots and multiplicities, and the cofactor's values at 0..n, for
    # the sweep's candidates (the zeros) and for every k in 0..n in a
    # shuffled order, non-roots included; the example is 3λ²(λ - 2)²(λ + 1)
    # at 0..5: double roots at 0 and 2, and a root outside 0..n
    values, order = case
    zeros = [k for k, q in enumerate(values) if not q]
    for candidates in (zeros, order):
        roots, rest = deflate_values(values, candidates)
        want_roots, want_rest = deflate(interpolate(values), candidates)
        assert roots == want_roots
        assert rest == [poly_value(want_rest, k) for k in range(len(values))]


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.integers(-(10**15), 10**15), max_size=13),
    st.integers(-(1 << 80), 1 << 80),
    st.integers(0, 80),
)
def test_dyadic_value_is_the_scaled_value_at_a_power_of_two(c, p, k):
    # isolation's values at p / 2^k, trailing zeros and the empty list included
    assert _dyadic_value(c, p, k) == _scaled_value(c, p, 1 << k)


def values_at(c, size):
    """c(0), ..., c(size - 1), each as sum(c_i k^i)."""
    return [sum(a * k**i for i, a in enumerate(c)) for k in range(size)]


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(-(10**12), 10**12), max_size=13), st.integers(0, 4))
def test_interpolate_round_trips_integer_polynomials(c, extra):
    # more values than the degree needs, trailing zeros and the empty list included
    trimmed = list(c)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert interpolate(values_at(c, len(c) + extra)) == trimmed


@settings(max_examples=200, deadline=None, database=None)
@given(polys, st.integers(2, 6), st.integers(1, 10**4), st.integers(0, 3))
@example([0], 2, 1, 0)  # k(k - 1)/2 at k = 0, 1, 2
def test_interpolate_rejects_values_of_no_integer_polynomial(c, j, r, extra):
    # c + r C(x, j) takes integer values at the integers, but its x^j
    # coefficient is not an integer unless j! divides r
    assume(r % factorial(j))
    size = max(len(c), j + 1) + extra
    values = [v + r * comb(k, j) for k, v in enumerate(values_at(c, size))]
    with pytest.raises(ValueError):
        interpolate(values)


CATALOG_VARS = (LAMBDA, "s", "t")
catalog_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.integers(-(10**6), 10**6).filter(bool),
    max_size=8,
).map(lambda terms: MPoly(CATALOG_VARS, terms))


@settings(max_examples=200, deadline=None, database=None)
@given(catalog_polys, st.sampled_from(["u", "S", "x1", "λλ"]))
def test_parse_poly_reads_the_canonical_text_back(p, stray):
    # the zero polynomial ("0") and negative leading terms included
    back = parse_poly(p.to_text(), variables=CATALOG_VARS)
    assert back == p
    assert back.vars == CATALOG_VARS and back.terms == p.terms
    with pytest.raises(ValueError):
        parse_poly(f"{p.to_text()} + {stray}", variables=CATALOG_VARS)


# non-ASCII name characters, a digit that is no decimal one (²), a decimal
# digit that is not ASCII (٣), white space and the bad characters . / =
TOKEN_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_λé²·٣+-*^() \t\n./="
TOKEN_TEXT = st.text(alphabet=st.sampled_from(TOKEN_CHARS), max_size=16)


def _tokens_or_error(scan, text):
    try:
        return scan(text)
    except ValueError:
        return ValueError


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(TOKEN_TEXT)
@example("3²")
@example("s²+٣٣")
@example("λ_1é·2 ^ (t)\n")
def test_the_compiled_tokenizer_equals_the_character_scanner(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(scan_tokens, text)


def interpolate_line_by_line(table):
    """grid_interpolate's table interpolated one line of one value at a time
    along one axis after another, with polys.interpolate: a map from
    (list index, exponents) to the nonzero coefficients."""
    flat = {(k,) + point: a for point, values in table.items() for k, a in enumerate(values)}
    for axis in range(1, len(next(iter(table))) + 1):
        out = {}
        for rest in {key[:axis] + key[axis + 1 :] for key in flat}:
            line = [flat.get(rest[:axis] + (x,) + rest[axis:], 0) for x in range(3)]
            for e, a in enumerate(interpolate(line)):
                out[rest[:axis] + (e,) + rest[axis:]] = a
        flat = out
    return {key: a for key, a in flat.items() if a}


@st.composite
def grid_tables(draw):
    """A table of grid_interpolate over {0, 1, 2}^p, p = 1 or 2: the values
    there of lists of integer polynomials of degree at most 2 in each
    variable, and those polynomials as a map from (list index, exponents)
    to their nonzero coefficients."""
    p, size = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    grid = list(product(range(3), repeat=p))
    coeffs = {exps: draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)) for exps in grid}
    table = {
        point: [sum(coeffs[exps][k] * prod(map(pow, point, exps)) for exps in grid) for k in range(size)]
        for point in grid
    }
    return table, {(k,) + exps: c[k] for exps, c in coeffs.items() for k in range(size) if c[k]}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(grid_tables(), st.data())
def test_grid_interpolation_equals_interpolate_one_line_at_a_time(case, data):
    table, planted = case
    got = {(k,) + exps: a for exps, c in grid_interpolate(table).items() for k, a in enumerate(c) if a}
    assert got == interpolate_line_by_line(table) == planted
    # an odd change at a point with a coordinate 0 or 2 adds an odd multiple
    # of a product of Lagrange basis polynomials with the factor x(x - 1)/2
    # or (x - 1)(x - 2)/2 on that axis: no integer polynomial takes the values
    point = data.draw(st.sampled_from([x for x in table if set(x) & {0, 2}]))
    k = data.draw(st.integers(0, len(table[point]) - 1))
    table[point][k] += data.draw(st.sampled_from([-3, -1, 1, 5]))
    with pytest.raises(ValueError):
        grid_interpolate(table)
    with pytest.raises(ValueError):
        interpolate_line_by_line(table)


@st.composite
def square_matrices(draw):
    """An n x n matrix, n <= 9, entries -3..3, made symmetric in about
    half the draws."""
    n = draw(st.integers(0, 9))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return rows


@settings(max_examples=150, deadline=None, database=None)
@given(square_matrices())
def test_char_poly_takes_the_gaussian_determinant_values(rows):
    # the symmetric branch (half the Krylov products) and the general loop
    n = len(rows)
    c = char_poly(IntMatrix(rows))
    assert len(c) == n + 1 and c[-1] == 1
    for k in range(n + 1):
        shifted = [[k * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        assert poly_value(c, k) == det_gauss(IntMatrix(shifted))


S, T = MPoly.var("s", ("s", "t")), MPoly.var("t", ("s", "t"))
# a symmetric matrix over Z[s,t] with integer, linear and quadratic entries
SYMBOLIC = [
    [S + T, -S, 1, 0, T],
    [-S, 2 * S, S * T - 1, 0, 0],
    [1, S * T - 1, 3, -T, 2],
    [0, 0, -T, S * S, S - T],
    [T, 0, 2, S - T, 0],
]


def _at(x, s, t):
    return x.substitute({"s": s, "t": t}).constant_value() if isinstance(x, MPoly) else x


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(-4, 4), st.integers(-4, 4))
def test_symbolic_char_poly_agrees_with_the_integer_path(s, t):
    symbolic = char_poly(IntMatrix(SYMBOLIC))
    at_point = char_poly(IntMatrix([[_at(x, s, t) for x in row] for row in SYMBOLIC]))
    assert [_at(x, s, t) for x in symbolic] == at_point


path_counts = st.lists(
    st.tuples(st.integers(3, 8), st.sampled_from(["0", "1", "2", "3", "s", "t"])),
    max_size=4,
    unique_by=lambda kind: kind[0],
).map(sorted)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(path_counts, st.booleans())
def test_grid_interpolation_equals_the_symbolic_fold(counts, hub_edge):
    # the same parameter on several orders and zero counts included
    params = tuple(sorted({c for _, c in counts if not c.isdigit()}))
    symbolic = [(order, int(c) if c.isdigit() else MPoly.var(c, params)) for order, c in counts]
    assert _grid_quotient(counts, hub_edge) == fold_path_quotient(symbolic, hub_edge)


PARAMS = st.sampled_from([("s",), ("s", "t")])


@st.composite
def param_polys(draw, coefficients=st.integers(-20, 20)):
    """An integer polynomial in one or two parameters, of degree at most 4 in
    each, with up to six terms."""
    params = draw(PARAMS)
    exps = st.tuples(*[st.integers(0, 4)] * len(params))
    return MPoly(params, draw(st.dictionaries(exps, coefficients, max_size=6)))


@st.composite
def floors_of(draw, poly):
    return {v: draw(st.integers(0, 3)) for v in poly.vars}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(param_polys().flatmap(lambda p: st.tuples(st.just(p), floors_of(p))))
def test_taylor_shift_equals_the_multiplied_out_terms(case):
    poly, floors = case
    assert taylor_shift(poly, floors) == taylor_shift_oracle(poly, floors)


@st.composite
def shifted_back(draw):
    """(poly, floors, sign): poly is g(v - floors[v]) for a g whose
    coefficients all have the sign ±1 and whose constant term is that sign
    times 0..5, so sign_above must certify it exactly when that constant is
    nonzero; or (poly, floors, None) for any poly."""
    if draw(st.booleans()):
        poly = draw(param_polys())
        return poly, draw(floors_of(poly)), None
    sign = draw(st.sampled_from([1, -1]))
    g = draw(param_polys(st.integers(1, 20)))
    zero = (0,) * len(g.vars)
    g = MPoly(g.vars, {**g.terms, zero: draw(st.integers(0, 5))}) * sign
    floors = draw(floors_of(g))
    return taylor_shift_oracle(g, {v: -f for v, f in floors.items()}), floors, sign


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(shifted_back(), st.lists(st.integers(0, 3), min_size=2, max_size=2))
def test_a_certified_sign_holds_on_a_box_above_the_floors(case, widths):
    poly, floors, sign = case
    got = sign_above(poly, floors)
    if sign is not None:
        constant = taylor_shift_oracle(poly, floors).terms.get((0,) * len(poly.vars), 0)
        assert got == (sign if constant else 0)
    box = [range(floors[v], floors[v] + w + 1) for v, w in zip(poly.vars, widths)]
    for point in product(*box):
        value = sum(c * prod(map(pow, point, exps)) for exps, c in poly.terms.items())
        assert got == 0 or (value > 0) - (value < 0) == got, point


@st.composite
def grid_rows(draw):
    """(poly, grid, min_param_total, exclusions) over one or two parameters:
    poly is one of shifted_back's, a square of a linear form plus a constant
    (one sign on most points, with no certificate at most floors), or a
    product of two linear forms plus a constant, as 4.7-c2.2's row at
    λ = 1, t(2s + t - 2), is; negated or not. The grid maps each parameter
    to [floor, top], floor in 0..2 and top in floor - 1..6, so a range may
    be empty; the exclusions are points of {0..6}^params."""
    kind = draw(st.sampled_from(["shifted", "square", "product"]))
    if kind == "shifted":
        poly = draw(shifted_back())[0]
    else:
        params = draw(PARAMS)

        def linear():
            total = MPoly.zero(params) + draw(st.integers(-3, 3))
            for v in params:
                total = total + draw(st.integers(-2, 2)) * MPoly.var(v, params)
            return total

        first = linear()
        poly = first * (first if kind == "square" else linear()) + draw(st.integers(-2, 2))
    poly = poly * draw(st.sampled_from([1, -1]))
    grid = {}
    for v in poly.vars:
        floor = draw(st.integers(0, 2))
        grid[v] = [floor, draw(st.integers(floor - 1, 6))]
    total = draw(st.none() | st.integers(0, 8))
    point = st.tuples(*[st.integers(0, 6)] * len(poly.vars))
    return poly, grid, total, draw(st.lists(point, max_size=4))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(grid_rows())
def test_the_split_certificate_settles_a_sign_exactly_when_every_grid_point_has_it(row):
    poly, grid, total, excluded = row
    case = get_case("4.7-c2.2")._replace(
        params=poly.vars,
        grid=grid,
        min_param_total=total,
        grid_exclude=tuple(tuple(zip(poly.vars, p)) for p in excluded),
    )
    ranges = _grid_ranges(case, 6, None)
    points = [tuple(p[v] for v in poly.vars) for p in grid_points(case, 6)]
    assert _box_size(case, ranges) == len(points)
    values = [sum(c * prod(map(pow, p, exps)) for exps, c in poly.terms.items()) for p in points]
    signs = {(value > 0) - (value < 0) for value in values}

    def holds(box):
        return _box_size(case, box) > 0

    for sign in (1, -1):
        assert shift_certificate(poly, ranges, sign, holds) == (signs <= {sign}), sign
