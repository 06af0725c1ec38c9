"""Exact polynomial arithmetic over the integers.

Two representations, one per job. MPoly is a sparse multivariate
polynomial over Z (int coefficients only, as IntMatrix is a matrix over
Z) over one fixed variable tuple, and serves only the symbolic
Z[s,t][λ] catalog. Its ring and parse_poly compute on the same term-dict
sum, negation, product and power. sign_above shifts a polynomial's term
dict to a corner (the binomial expansion, _terms_shift) and certifies
one sign at every point above it; sign_exceptions finds, by splitting
where that fails, the points of a grid at which a verdict (such as
root_inside) on signs fails.
Every single-graph decision works on ascending integer coefficient lists
in one univariate kernel: the gcd of two primitive lists by evaluation at
one integer (the heuristic gcd, with a primitive remainder sequence as its
fallback), exact division in Z[λ], square-free parts,
integer-root extraction with multiplicities (the candidates are the
divisors of the constant term and their negatives that lie inside
Samuelson's interval, so they are bounded by the size of the roots, not
of the constant term), isolating intervals, and poly_text, which prints
a list in MPoly's canonical text. The tests' per-interval root count,
count_roots in tests/oracle_helpers.py, is Budan–Fourier on the same
helpers.

The integer-root search, root_inside and isolation take only
real-rooted polynomials, as the characteristic polynomial of a symmetric
matrix is. Samuelson's interval (_real_root_range) is the one range both
root searches take: it bounds the integer-root candidates and fixes the
level where the cell search starts. The roots above a point are counted
by the sign variations of the Taylor shift to it (Budan–Fourier).
Isolation (integer_roots, isolate_lowest_root) also takes only a
polynomial whose primitive part is monic; integer_roots finds out any
other input, a ValueError, in bounded time. Its rational roots are then
the integer roots split_integer_roots finds. The square-free part is c
over its gcd with c', read off the integer gcd of their values at one
point and checked by exact division (_gcd); a remainder sequence takes
over only when that point fails. The cells are the ones plain
bisection from the Cauchy bound B reaches, found with fewer evaluations
(see _root_cells and _refine), ascending. The search and the refinement
run on integer grid indices of r(2B·y), r the square-free part, and
evaluate on one list, r(2B·y) pre-scaled once at the target level
(_prescaled); only a cell past that level, which holds roots closer
together than the precision, gets a list pre-scaled at its own level.
isolate_lowest_root refines the lowest root only and splits no integer
root off, so a classify request searches each characteristic polynomial
it builds for integer roots once. No floating point is used anywhere in
a decision path; decimal output elsewhere in the library is display-only
rounding of the rational intervals produced here.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, isqrt
from operator import add, mul

LAMBDA = "λ"

#: Default width for isolating intervals attached to reports.
DEFAULT_PRECISION = Fraction(1, 10**6)

# The integer-root split of the L and Q polynomial of each graph a client
# keeps asking about, as matrices.char_poly caches the polynomials: one pass
# of the benchmark's query pool splits the L and Q polynomials of 72 graphs,
# 137 distinct ones (a bipartite graph's two are equal), so 256 evict none.
# Bounded, because a --file of large graphs would keep every key alive.
_SPLIT_CACHE_SIZE = 256


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _power_text(name, e):
    return name if e == 1 else f"{name}^{e}"


def _terms_text(terms):
    """Join (coefficient, factor texts) pairs, leading term first, into the
    canonical text that parse_poly reads; '0' when there are none."""
    pieces = []
    for c, factors in terms:
        mag = abs(c)
        body = "*".join(factors if factors and mag == 1 else (str(mag), *factors))
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


class MPoly:
    """Sparse polynomial over Z: map from exponent vectors to ints; any
    other coefficient is a TypeError.

    Variables are an ordered tuple of names; term keys are exponent tuples
    of the same length. Zero coefficients are never stored. Every MPoly in
    the catalog is built over one fixed tuple, so the ring works over one
    tuple only: a binary operation on two MPolys over different tuples is a
    ValueError, and they are never equal. An int acts as a constant term.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        if not {int}.issuperset(map(type, terms.values())):
            raise TypeError("MPoly coefficients must be ints")
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent vector length does not match variables")
            if c:
                clean[exps] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables=()):
        return cls(variables, {})

    @classmethod
    def var(cls, name, variables=None):
        variables = (name,) if variables is None else tuple(variables)
        exps = tuple(1 if v == name else 0 for v in variables)
        if sum(exps) != 1:
            raise ValueError(f"unknown variable {name!r}")
        return cls(variables, {exps: 1})

    # -- inspection ---------------------------------------------------

    def __bool__(self):
        # nonzero test, so coefficient-list helpers trim MPoly zeros like 0
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree(self, name) -> int:
        """Degree in one variable; zero polynomial -> -1."""
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def univariate_coeffs(self, name=LAMBDA):
        """Ascending coefficient list; requires all other variables absent."""
        if name in self.vars:
            coeffs = self.coefficients_in(name)
        else:
            coeffs = [self] if self.terms else []
        if not all(c.is_constant() for c in coeffs):
            raise ValueError(f"polynomial is not univariate in {name!r}")
        return [c.constant_value() for c in coeffs]

    def coefficients_in(self, name) -> list:
        """Ascending coefficients of the powers of name, as polynomials in
        the other variables, from one pass over the terms."""
        i = self.vars.index(name)
        out = [{} for _ in range(self.degree(name) + 1)]
        for exps, c in self.terms.items():
            out[exps[i]][exps[:i] + exps[i + 1 :]] = c
        rest = self.vars[:i] + self.vars[i + 1 :]
        return [MPoly(rest, terms) for terms in out]

    # -- ring operations ----------------------------------------------

    def _terms_of(self, other):
        """other's term dict over self's variables: an int as a constant
        term, an MPoly's own terms when its variables are self's; None for
        any other type."""
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError(f"MPoly over {other.vars} meets MPoly over {self.vars}")
            return other.terms
        if isinstance(other, int):
            return {(0,) * len(self.vars): other} if other else {}
        return None

    def __add__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        return MPoly(self.vars, _terms_sum(self.terms, terms))

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, _terms_neg(self.terms))

    def __sub__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        return MPoly(self.vars, _terms_sum(self.terms, _terms_neg(terms)))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = self._terms_of(other)
        if terms is None:
            return NotImplemented
        return MPoly(self.vars, _terms_product(self.terms, terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return MPoly(self.vars, _terms_power(self.terms, k, len(self.vars)))

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.vars == other.vars and self.terms == other.terms
        terms = self._terms_of(other)
        return NotImplemented if terms is None else self.terms == terms

    # -- evaluation ---------------------------------------------------

    def substitute(self, assignment) -> "MPoly":
        """Substitute int values for a subset of the variables."""
        keep = tuple(v for v in self.vars if v not in assignment)
        values = [assignment.get(v) for v in self.vars]
        out = {}
        for exps, c in self.terms.items():
            val = c
            key = []
            for x, e in zip(values, exps):
                if x is None:
                    key.append(e)
                elif e:
                    val = val * x**e
            key = tuple(key)
            out[key] = out.get(key, 0) + val
        return MPoly(keep, out)

    def eval_at(self, assignment):
        """Evaluate fully at int values; returns an int."""
        missing = [v for v in self.vars if self.degree(v) > 0 and v not in assignment]
        if missing:
            raise ValueError(f"missing values for {missing}")
        return self.substitute(assignment).constant_value()

    # -- canonical text form --------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def to_text(self) -> str:
        return _terms_text(
            (c, [_power_text(v, e) for v, e in zip(self.vars, exps) if e])
            for exps, c in self._sorted_terms()
        )

    def __repr__(self):
        return f"MPoly({self.to_text()!r})"


# -- polynomial text parser ---------------------------------------------


def parse_poly(text: str, variables=None) -> MPoly:
    """Parse '+ - * ^ ( )' expressions with integer literals and names.

    Multiplication must be explicit ('40*s*t'); exponentiation binds the
    factor to its left, so '15^2' is the integer 225. With variables given,
    the polynomial is over them, and a name outside them is a ValueError;
    without, its variables are the names in order of first appearance.
    The parser computes on term dicts (exponent tuple -> int) over those
    variables and builds one MPoly, at the end. Every term dict a rule
    returns is its own, so a sum adds each operand into the left one.
    """
    tokens = _tokenize(text)
    if variables is None:
        variables = dict.fromkeys(tok for tok in tokens if isinstance(tok, str) and tok.isidentifier())
    variables = tuple(variables)
    zero = (0,) * len(variables)
    units = {v: zero[:i] + (1,) + zero[i + 1 :] for i, v in enumerate(variables) if variables.count(v) == 1}
    rest = tokens[::-1]  # the tokens still to read, the next one last

    def take():
        return rest.pop() if rest else None

    def parse_expr():
        node = parse_term()
        while rest and rest[-1] in ("+", "-"):
            sign = 1 if rest.pop() == "+" else -1
            for exps, c in parse_term().items():
                node[exps] = node.get(exps, 0) + sign * c
        return node

    def parse_term():
        node = parse_factor()
        while rest and rest[-1] == "*":
            rest.pop()
            node = _terms_product(node, parse_factor())
        return node

    def parse_factor():
        negate = False
        while rest and rest[-1] in ("+", "-"):
            if rest.pop() == "-":
                negate = not negate
        node = parse_primary()
        if rest and rest[-1] == "^":
            rest.pop()
            exp = take()
            if not isinstance(exp, int):
                raise ValueError("exponent must be an integer literal")
            if len(node) == 1:  # c·x^e to the power k is c^k·x^(k·e); 0^0 = 1
                ((exps, c),) = node.items()
                node = {tuple(e * exp for e in exps): c**exp}
            else:
                node = _terms_power(node, exp, len(variables))
        return _terms_neg(node) if negate else node

    def parse_primary():
        tok = take()
        if tok == "(":
            node = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if isinstance(tok, int):
            return {zero: tok}
        if isinstance(tok, str) and tok.isidentifier():
            if tok not in units:
                raise ValueError(f"unknown variable {tok!r}")
            return {units[tok]: 1}
        raise ValueError(f"unexpected token {tok!r}")

    node = parse_expr()
    if rest:
        raise ValueError(f"trailing input at token {rest[-1]!r}")
    return MPoly(variables, node)


def _terms_sum(a, b):
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return out


def _terms_neg(a):
    return {exps: -c for exps, c in a.items()}


def _terms_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(map(add, e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return out


def _terms_power(a, k, nvars):
    """a to the power k >= 0 by squaring; nvars is the length of a key."""
    out, power = {(0,) * nvars: 1}, a
    while k:
        if k & 1:
            out = _terms_product(out, power)
        k >>= 1
        if k:
            power = _terms_product(power, power)
    return out


def _terms_shift(a, offsets):
    """a with each variable x_i replaced by x_i + offsets[i]: the binomial
    expansion c·x^e = Σ_j C(e, j)·o^(e-j)·c·x^j, one variable at a time."""
    for i, o in enumerate(offsets):
        if not o:
            continue
        out = {}
        for exps, c in a.items():
            e = exps[i]
            for j in range(e + 1):
                key = exps[:i] + (j,) + exps[i + 1 :]
                out[key] = out.get(key, 0) + comb(e, j) * o ** (e - j) * c
        a = out
    return a


def sign_above(poly: MPoly, floors) -> int:
    """1 or -1 when poly has that sign at every real point whose variables
    v are each at least floors[v]; 0 when the certificate fails.

    The certificate (Collins & Akritas, 1976): shift poly's terms to the
    corner (_terms_shift, each v replaced by v + floors[v], 0 when v is not
    in floors), so that the point v = floors[v] + x_v has every x_v >= 0.
    If the shift has a nonzero constant term and every nonzero coefficient
    has its sign, each other term is such a coefficient times powers of the
    x_v, which are >= 0, so it has that sign or is 0; the constant term is
    not 0, so the sum has that sign. A shift with mixed signs, or with no constant
    term, certifies nothing, though poly may still keep one sign there.
    """
    terms = _terms_shift(poly.terms, [floors.get(v, 0) for v in poly.vars])
    const = terms.get((0,) * len(poly.vars), 0)
    if const and all((c > 0) == (const > 0) for c in terms.values() if c):
        return 1 if const > 0 else -1
    return 0


def sign_exceptions(polys, ranges, verdict, holds):
    """The points of a grid at which verdict fails on the signs of polys,
    MPolys over one variable tuple, each point a tuple of ints in that
    order, in lexicographic order. The grid is the integer points of the
    box `ranges` (one range per variable) that it keeps: holds(box) tells
    whether a sub-box, given the same way, keeps a grid point.

    The search starts with the whole orthant above the box's floor, the
    least value of each variable. On each part, each polynomial's sign is
    certified with sign_above at the part's floor (Collins & Akritas, 1976):
    1 or -1, 0 for the zero polynomial, None when uncertified. verdict on
    that list settles the part (True), fails its every grid point (False),
    or asks for a split (None, never when no sign is None) along the first
    free variable v, if the part holds a grid point, into v = floor,
    substituted, and v >= floor + 1; a part whose floor is above the box's
    top holds no grid point and is dropped. A part with every variable
    substituted is constants, so the split decides every grid point
    exactly. It ends because each split fixes a variable or raises a floor
    towards the box's top: the box bounds the number of parts. The v = floor
    part is searched first, so the points come in lexicographic order.
    """
    # (the part's polynomials in their free variables, all but the first k,
    # which are fixed at their floors, and the floor of each variable)
    work = [(list(polys), [r.start for r in ranges])]
    while work:
        part, floors = work.pop()
        free = part[0].vars
        k = len(ranges) - len(free)
        settled = verdict([sign_above(p, dict(zip(free, floors[k:]))) or (None if p else 0) for p in part])
        if settled:
            continue
        box = [range(f, f + 1) for f in floors[:k]] + [
            range(f, r.stop) for f, r in zip(floors[k:], ranges[k:])
        ]
        if not holds(box):
            continue
        if settled is False:
            yield from (point for point in product(*box) if holds([range(x, x + 1) for x in point]))
            continue
        if floors[k] + 1 < ranges[k].stop:
            work.append((part, floors[:k] + [floors[k] + 1] + floors[k + 1 :]))
        work.append(([p.substitute({free[0]: floors[k]}) for p in part], floors))


def root_inside(lo_signs, hi_signs):
    """Whether a real-rooted f has a root strictly between lo < hi, from the
    signs (1, -1 or 0) of the ascending y-coefficients of f(lo + y) and of
    f(hi + y), or of positive multiples of them; None when a sign is None,
    uncertified. The sign variations at each end count the roots above it
    with multiplicity (Budan–Fourier, exact as every root is real), and the
    zeros before hi's first nonzero sign count hi's multiplicity."""
    if None in lo_signs or None in hi_signs:
        return None
    multiplicity = next(m for m, sign in enumerate(hi_signs) if sign)
    return _variations(lo_signs) - _variations(hi_signs) - multiplicity >= 1


#: One token after any white space: an integer literal; a name, which starts
#: with any character but white space and the ASCII ones that are no letter
#: or '_', then any but the ASCII ones that are no letter, digit or '_'; an
#: operator; or a bad character. (A class over the non-ASCII range takes
#: milliseconds to compile, so the classes are negated.)
_TOKEN = re.compile(
    r"\s*(?:(\d+)|([^\x00-\x40\x5b-\x5e\x60\x7b-\x7f\s][^\x00-\x2f\x3a-\x40\x5b-\x5e\x60\x7b-\x7f]*)|([-+*^()])|(\S))"
)


def _tokenize(text):
    """The tokens of polynomial text: ints, names and operators. A digit
    that is no decimal digit, such as '²', starts no literal and no name."""
    tokens = []
    for number, name, op, bad in _TOKEN.findall(text):
        if bad or name[:1].isdigit():
            raise ValueError(f"bad character {(bad or name[0])!r} in polynomial text")
        tokens.append(int(number) if number else name or op)
    return tokens


# -- univariate kernels (ascending integer coefficient lists) ------------


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _derivative(c):
    return [i * a for i, a in enumerate(c)][1:]


def _content(c) -> int:
    return gcd(*c) or 1


def _primitive(c):
    g = _content(c)
    out = [a // g for a in c]
    return out


def _prescaled(c, level: int) -> list:
    """c_i·2^(level·(d - i)), d = len(c) - 1, highest power first: _horner
    on it at x gives 2^(level·d)·c(x / 2^level) with no shift."""
    return [a << level * j for j, a in enumerate(reversed(c))]


def _horner(scaled, x: int) -> int:
    """The value at x of a polynomial given highest power first."""
    acc = 0
    for a in scaled:
        acc = acc * x + a
    return acc


def _taylor_shift(scaled, x: int) -> list:
    """The coefficients of P(x + y) in y, highest power first, for P given
    highest power first: d Horner passes, each dividing by y - x and leaving
    one coefficient; the last entry is P(x), the one before it P'(x)."""
    a = list(scaled)
    for m in range(len(a) - 1, 0, -1):
        acc = a[0]
        for j in range(1, m + 1):
            acc = a[j] = acc * x + a[j]
    return a


def _variations(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _prem(f, g):
    """A nonzero multiple of the remainder of f by g that lies in Z[λ]."""
    r = list(f)
    while len(r) >= len(g):
        top = r[-1]
        r = [g[-1] * a for a in r]
        for i, b in enumerate(g, len(r) - len(g)):
            r[i] -= top * b
        _trim(r)
    return r


def _gcd(a, b):
    """The gcd of primitive trimmed nonconstant integer lists a and b,
    primitive with a positive leading coefficient, by the heuristic gcd
    (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989) at one
    point, with the remainder sequence (_remainder_gcd) when it fails.

    Both lists are evaluated at the integer ξ = 2·min(‖a‖∞, ‖b‖∞) + 29, and
    the integer gcd γ of the two values is read back as the polynomial h
    whose coefficients are γ's symmetric ξ-adic digits, so h(ξ) = γ. When
    h's primitive part divides both lists exactly, it is their gcd. The gcd
    is then h's primitive part times a common factor k of a and b, and k(ξ)
    divides h's content, which is at most ξ/2. A nonconstant k would have
    |k(ξ)| > ξ/2, its roots lying below min‖·‖∞ + 1 in absolute value
    (Cauchy), so k is ±1.
    """
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    gamma = gcd(_horner(reversed(a), xi), _horner(reversed(b), xi))
    h = []
    while gamma:
        digit = gamma % xi
        if digit > xi // 2:
            digit -= xi
        h.append(digit)
        gamma = (gamma - digit) // xi
    h = _primitive(h)
    if h[-1] < 0:
        h = [-x for x in h]
    if len(h) == 1 or _quotient(a, h) is not None and _quotient(b, h) is not None:
        return h
    return _remainder_gcd(a, b)


def _remainder_gcd(a, b):
    """_gcd's fallback: the same gcd, as the last nonzero element of a
    primitive remainder sequence (Collins 1967; Brown and Traub 1971), of
    which only the last two elements are kept.

    It takes at most min(deg a, deg b) pseudo-remainders, O(d²) big-integer
    operations in all for d = max(deg a, deg b). Each primitive remainder
    is the primitive part of a subresultant, so its coefficients have
    O(d·(log ‖·‖∞ + log d)) bits by Hadamard's bound, and so does every
    operand: the fallback ends in bounded time on any input.
    """
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _trim(_prem(a, b))
        if not r:
            return b if b[-1] > 0 else [-x for x in b]
        a, b = b, _primitive(r)
    return [1]


def _square_free(c):
    """The primitive square-free part of a trimmed nonzero c, leading
    coefficient positive: c over its gcd with c' (_gcd), both primitive
    with positive leading coefficients, so the quotient is too (Gauss)."""
    c = _primitive(c)
    if c[-1] < 0:
        c = [-a for a in c]
    if len(c) < 3:
        return c
    g = _gcd(c, _primitive(_derivative(c)))
    return c if len(g) == 1 else _quotient(c, g)


def _root_bound(c) -> int:
    """Cauchy bound: every real root has absolute value below the result."""
    lead = abs(c[-1])
    m = max(abs(a) for a in c[:-1]) if len(c) > 1 else 0
    return 1 + (m + lead - 1) // lead if m else 1


def _quotient(a, b):
    """a / b for trimmed integer lists, or None when it is not in Z[λ].

    Long division with floor quotients of the leading coefficients: a step
    leaves a nonzero remainder coefficient that no later step touches
    unless b's leading coefficient divides, so the remainder vanishes
    exactly when the quotient has integer coefficients.
    """
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(b) - 1] // b[-1]
        for i, x in enumerate(b):
            r[k + i] -= q[k] * x
    return None if any(r) else q


def _divisors(n: int, limit: int):
    """Positive divisors of n that are at most limit, ascending.

    Trial division runs to min(limit, isqrt(|n|)), so a small limit keeps
    the search short however large n is.
    """
    n = abs(n)
    root = isqrt(n)
    small = [d for d in range(1, min(limit, root) + 1) if n % d == 0]
    if limit <= root:
        return small
    return small + [n // d for d in reversed(small) if d < n // d <= limit]


def poly_value(c, x: int) -> int:
    """c(x) for ascending integer coefficients c and an integer x (Horner)."""
    return _horner(reversed(c), x)


@lru_cache(maxsize=None)
def _interpolation_weights(n: int) -> tuple:
    """n! times the inverse Vandermonde matrix of the points 0..n, as rows
    of ints: row i holds the weights w_ik with n!·c_i = Σ_k w_ik c(k) for
    every c of degree at most n.

    c = Σ_k c(k) L_k with the Lagrange basis L_k = Π_{j≠k} (x - j) / (k -
    j), whose denominator is (-1)^(n-k) k! (n - k)!; so n!·L_k is the
    integer polynomial (-1)^(n-k) C(n, k) Π_{j≠k} (x - j), and w_ik is its
    coefficient of x^i.
    """
    columns = []
    for k in range(n + 1):
        basis = [(-1) ** (n - k) * comb(n, k)]
        for j in range(n + 1):
            if j != k:
                basis = [x - j * y for x, y in zip([0] + basis, basis + [0])]  # basis · (x - j)
        columns.append(basis)
    return tuple(zip(*columns))


def interpolate(values) -> list:
    """Ascending integer coefficients, trailing zeros trimmed, of the
    polynomial of degree below len(values) that takes values[k] at k = 0,
    1, ...; ValueError when no integer polynomial does.

    That polynomial is the one interpolating the values, so it has integer
    coefficients exactly when each n!·c_i = Σ_k w_ik values[k] (see
    _interpolation_weights, n = len(values) - 1) divides by n! exactly:
    one inner product and one division per coefficient, on weights cached
    per length.
    """
    values = tuple(values)
    if not values:
        return []
    scale = factorial(len(values) - 1)
    out = []
    for row in _interpolation_weights(len(values) - 1):
        c, r = divmod(sum(map(mul, row, values)), scale)
        if r:
            raise ValueError("the values are not those of an integer polynomial")
        out.append(c)
    return _trim(out)


def grid_interpolate(table) -> dict:
    """The integer polynomial of degree at most 2 in each of p variables
    that takes table[x] at each point x of {1, 2, 3}^p, as a map from
    exponent tuples to coefficients; ValueError when there is none. The
    table's values are lists of one length, interpolated entrywise, one
    variable after another: a line v1, v2, v3 is c0 + c1·x + c2·x² with
    c2 = (v3 - 2·v2 + v1) / 2, an integer exactly when that second
    difference is even (interpolate's Newton form), c1 = v2 - v1 - 3·c2
    and c0 = 2·v1 - v2 + 2·c2.
    """
    for axis in range(len(next(iter(table)))):
        out = {}
        for point, v1 in table.items():
            if point[axis] != 1:
                continue
            v2, v3 = (table[point[:axis] + (x,) + point[axis + 1 :]] for x in (2, 3))
            second = [a - 2 * b + c for a, b, c in zip(v1, v2, v3)]
            if any(x & 1 for x in second):
                raise ValueError("the values are not those of an integer polynomial")
            c2 = [x >> 1 for x in second]
            out[point[:axis] + (0,) + point[axis + 1 :]] = [2 * a - b + 2 * c for a, b, c in zip(v1, v2, c2)]
            out[point] = [b - a - 3 * c for a, b, c in zip(v1, v2, c2)]
            out[point[:axis] + (2,) + point[axis + 1 :]] = c2
        table = out
    return table


def _real_root_range(c) -> tuple:
    """Integers lo, hi with lo < every root < hi, for c of degree d >= 1
    with a positive leading coefficient and only real roots; ValueError
    when N below is negative, which no real-rooted c gives.

    Samuelson's inequality (1968): the d real numbers r_i with mean m and
    variance σ² = Σ (r_i - m)² / d each satisfy |r_i - m| <= σ·√(d - 1).
    With c = a λ^d + b λ^(d-1) + e λ^(d-2) + ..., Vieta's formulas give
    Σ r_i = -b/a and Σ r_i² = (b² - 2ae)/a², so d·a·m = -b and
    (d·a·σ)²·(d - 1) = N with N = (d - 1)·((d - 1)·b² - 2·d·a·e): every
    root lies in [(-b - √N) / (d·a), (-b + √N) / (d·a)]. With R the ceiling
    of √N, lo is the ceiling of the lower end minus 1 and hi the floor of
    the upper end plus 1, so both are strict; at d = 2 the inequality is
    tight (the two roots are m ± σ), and without the margin an integer
    root could equal lo or hi.
    """
    d = len(c) - 1
    a, b = c[-1], c[-2]
    e = c[-3] if d > 1 else 0
    n = (d - 1) * ((d - 1) * b * b - 2 * d * a * e)
    if n < 0:
        raise ValueError("the polynomial is not real-rooted")
    root = isqrt(n)
    root += root * root < n
    return -((b + root) // (d * a)) - 1, (root - b) // (d * a) + 1


def _separation_bits(c) -> int:
    """b with any two roots of a square-free integer c of degree d more than
    2^-b apart: by Mahler (1964) more than √3·d^(-(d + 2)/2)·‖c‖^(1 - d),
    the discriminant being a nonzero integer and the Mahler measure at most
    ‖c‖, the Euclidean norm (Landau), whose log2 is at most half the bit
    length of Σ c_i²."""
    d = len(c) - 1
    norm_bits = sum(a * a for a in c).bit_length()
    return ((d + 2) * d.bit_length() + (d - 1) * norm_bits + 1) // 2


def _root_cells(rest, precision: Fraction):
    """Isolating cells of the dyadic grid for rest, lowest root first, as
    pairs of Fractions (lo, hi], each at most precision wide.

    rest is square-free with a positive leading coefficient and, as a
    precondition, only real roots. The grid is the one that bisecting
    (-B, B], B the Cauchy bound, builds, kept on unit = rest(2B·y), whose
    roots lie in (-1/2, 1/2]: a cell of level k >= 1 is one integer j,
    standing for (j / 2^k, (j + 1) / 2^k], which is (j·2B / 2^k, (j + 1)·2B
    / 2^k] for rest. The search starts at level s, the deeper of 1 and the
    deepest level whose two cells next to 0 still cover (lo, hi), the range
    _real_root_range gives, which holds every root, and no deeper than the
    target level, the first whose cells are at most precision wide, unless
    that is level 0; so every root's cell is the one plain bisection from
    (-B, B] reaches. Only a degree-1 rest at target level 0 yields (-B, B]
    itself. Cells holding several roots are halved, the lower half first;
    each cell holding one root is refined to the target level by _refine,
    when it is drawn.

    Every evaluation at a level k up to the target runs on one list, unit
    pre-scaled at the target level (_prescaled), at the point j·2^(target -
    k): its value there, one Horner pass, is 2^(target·d)·rest at the cell
    end, d the degree, and the variations of its integer Taylor shift to
    that point are var(j / 2^k), the sign variations of the coefficients of
    unit(j / 2^k + y) in y, which count the roots above the point
    (Budan–Fourier; exact, every root being real). Cell j holds var(j /
    2^k) - var((j + 1) / 2^k) roots. A cell past the target level holds two
    or more roots
    closer together than the precision; only there is unit pre-scaled at
    the cell's own level, once per level. The outer start ends lie beyond
    every root of rest and, by Gauss–Lucas, of its derivatives, so var is d
    at the lower one and 0 at the upper one; at 0 it is the variations of
    rest's coefficients. A midpoint at or below _real_root_range's lo has
    var d, and one at or above its hi var 0, with no evaluation. In a cell
    holding two roots unit's value alone is taken at the midpoint first:
    when its sign differs from unit's at the lower end (neither being 0),
    each half holds one root, and no Taylor shift is made. A cell holding
    one root hands _refine the values at both its ends.

    Any other rest ends in a ValueError or in cells that each show a root.
    A cell not counted 0 or 1 that is narrower than 2^-b, b from
    _separation_bits, cannot hold two real roots, and is a ValueError; so
    is a cell counted 1 whose upper end is no root and where rest has the
    sign it has just above the lower end (the sign of its value there, or
    of its derivative's where the value is 0). So d cells come out only
    when d sign changes prove rest real-rooted.
    """
    d = len(rest) - 1
    low, high = _real_root_range(rest)
    bound = _root_bound(rest)
    width = 2 * bound
    q = -(-width * precision.denominator // precision.numerator)
    target = (q - 1).bit_length()  # least level with width / 2^level <= precision
    if d == 1 and not target:
        yield Fraction(-bound), Fraction(bound)
        return
    s = max(1, min((width // max(-low, high)).bit_length() - 1, target))
    deepest = width.bit_length() + _separation_bits(rest)  # cells narrower than any two roots are apart
    neg_positive = d % 2 == 0  # the sign of rest below every root
    unit = [a * width**i for i, a in enumerate(rest)]
    top = _prescaled(unit, target)
    beyond = {}  # k -> unit pre-scaled at level k, past the target level

    def at(j, k):  # the list and the point that evaluate unit at j / 2^k
        if k <= target:
            return top, j << target - k
        if k not in beyond:
            beyond[k] = _prescaled(unit, k)
        return beyond[k], j

    # (j, k, roots in cell j of level k, var at its lower end, the values at
    # its ends or None)
    v_zero = _variations(rest)
    f_zero = rest[0] << target * d
    work = [(0, s, v_zero, v_zero, f_zero, None), (-1, s, d - v_zero, d, None, f_zero)]
    while work:
        j, k, count, v_lo, f_lo, f_hi = work.pop()
        if count == 1:
            f_lo = _horner(*at(j, k)) if f_lo is None else f_lo
            f_hi = _horner(*at(j + 1, k)) if f_hi is None else f_hi
            above = f_lo or _taylor_shift(*at(j, k))[-2]  # rest's sign just above the lower end
            if f_hi and (f_hi > 0) == (above > 0):
                raise ValueError("the polynomial is not real-rooted")
            lo, hi = _refine(top, j, k, target, f_lo, f_hi) if k < target else (j, j + 1)
            level = max(k, target)
            yield Fraction(lo * width, 1 << level), Fraction(hi * width, 1 << level)
            continue
        if not count:
            continue
        if k >= deepest:
            raise ValueError("the polynomial is not real-rooted")
        j, k = j << 1, k + 1
        mid = j + 1
        if mid * width <= low << k:
            v_mid, f_mid = d, None
        elif mid * width >= high << k:
            v_mid, f_mid = 0, None
        else:
            scaled, point = at(mid, k)
            if count == 2:
                f_mid = _horner(scaled, point)
                lo_positive = neg_positive if f_lo is None else f_lo > 0
                if f_mid and f_lo != 0 and (f_mid > 0) != lo_positive:
                    work.append((mid, k, 1, None, f_mid, f_hi))
                    work.append((j, k, 1, v_lo, f_lo, f_mid))
                    continue
            shifted = _taylor_shift(scaled, point)
            f_mid, v_mid = shifted[-1], _variations(shifted)
        work.append((mid, k, count - (v_lo - v_mid), v_mid, f_mid, f_hi))
        work.append((j, k, v_lo - v_mid, v_lo, f_lo, f_mid))


def _refine(scaled, j, k, target, w_lo, w_hi):
    """The grid indices L, H = L + 1 of the cell at level target inside
    cell j of level k < target that holds the one root there of c, given as
    scaled, c pre-scaled at level target; w_lo and w_hi are the values of
    scaled at the ends, 2^(target·d)·c there, d the degree.

    The bracket (L, H] starts as the cell's 2^(target - k) target cells,
    j·2^(target - k) to (j + 1)·2^(target - k), and each step evaluates
    scaled at one index x strictly inside it, one Horner pass, and keeps
    the half-open part that holds the root. The root may lie on a grid
    point: a value 0 at H or at x makes that point the root, and the cell
    just below it is returned. L may be a root as well, one outside the
    bracket, so the sign c has between L and the root is read from H's
    value, whose opposite it is. The step is an Illinois regula-falsi step
    (Dowell & Jarratt, 1971): x is the chord's zero through the ends'
    weights, rounded down and clamped to L + 1..H - 1, a weight being the
    end's value, halved each time the other end is replaced twice in a
    row. A bisection step replaces it whenever the bracket is not at most
    half as wide as it was three steps before. So every four steps at least
    halve the bracket, and a root costs at most 4·(target - k) evaluations.
    The weights only choose x; the bracket is kept by exact signs, so the
    cell returned is the grid cell that holds the root, the one bisection
    reaches.
    """
    shift = target - k
    L, H = j << shift, j + 1 << shift
    if not w_hi:  # the root is H
        L = H - 1
    positive = w_hi < 0  # the sign between L and the root
    # the bracket's width before the last three steps, the oldest first;
    # twice the start width before the first ones, which never bisect
    w3 = w2 = w1 = 2 << shift
    last = 0  # the end the last step replaced: -1 for L, 1 for H
    while H - L > 1:
        if 2 * (H - L) > w3:
            x = (L + H) >> 1
        else:
            x = L + w_lo * (H - L) // (w_lo - w_hi)
            if x <= L:
                x = L + 1
            elif x >= H:
                x = H - 1
        w3, w2, w1 = w2, w1, H - L
        f_x = _horner(scaled, x)
        if not f_x:  # the root is x
            L, H = x - 1, x
        elif (f_x > 0) == positive:
            L, w_lo = x, f_x
            if last < 0:
                w_hi >>= 1
            last = -1
        else:
            H, w_hi = x, f_x
            if last > 0:
                w_lo >>= 1
            last = 1
    return L, H


def _cells(c, precision: Fraction):
    """An iterator of isolating cells of the distinct roots of a trimmed
    nonzero real-rooted c, ascending, each refined only when it is drawn;
    ValueError unless c's primitive part is monic, and on a c that is not
    real-rooted once the cell search finds it out. The cells are those
    _root_cells yields for c's square-free part (_square_free). A root that
    lies on a grid point, such as an integer root, gets the cell (x - w, x]
    below it that bisection reaches, not a point interval.
    """
    sf = _square_free(c)
    if sf[-1] != 1:
        raise ValueError("the polynomial's leading coefficient does not divide its content")
    return _root_cells(sf, precision) if len(sf) > 1 else iter(())


# -- public operations ----------------------------------------------------
#
# The root functions and divides take ascending integer coefficient lists
# (index = exponent of λ); a catalog polynomial in Z[s,t][λ] reaches them
# through MPoly.univariate_coeffs once its parameters are substituted.


class RootReport(namedtuple("RootReport", "integer_roots residual isolating_intervals")):
    """Exact factorization data for a univariate integer polynomial.

    integer_roots lists (root, multiplicity) in descending root order;
    residual is the integer-root-free cofactor, as a tuple of ascending
    integer coefficients; isolating_intervals hold exactly one real
    residual root each (residual taken square-free), disjoint and in
    ascending order. SpectrumReport.display merges the two lists by these
    orders.
    """

    __slots__ = ()


def split_integer_roots(c):
    """Integer roots of c, and the integer-root-free rest as coefficients.

    c must be a nonzero integer polynomial with only real roots, as in
    integer_roots; a c that _real_root_range finds not real-rooted is a
    ValueError. Returns ({root: multiplicity}, cofactor) by trial division
    with the ±divisors of the trailing coefficient (after the power of the
    variable is factored out) that lie strictly inside _real_root_range,
    Samuelson's interval, so the search is bounded by the size of the
    roots, not of the trailing coefficient. Those candidates hold every
    integer root r: with c(0) != 0, r divides c(0) (c = (λ - r) g over Z
    gives c(0) = -r g(0)), and every root lies inside the interval; so
    deflate by them leaves a constant cofactor exactly when c has only
    integer roots. A c with a non-real root that the range does not reject
    may keep an integer root outside it in the cofactor, which is not a
    constant all the same.

    The split is cached per process for the last _SPLIT_CACHE_SIZE
    polynomials, keyed on the trimmed coefficient tuple, so the spectrum
    and classify requests on one graph split its L and Q polynomials once;
    each call returns a fresh dict and list, and an error is not cached.
    """
    roots, rest = _split(tuple(_trim(list(c))))
    return dict(roots), list(rest)


@lru_cache(maxsize=_SPLIT_CACHE_SIZE)
def _split(c: tuple):
    if not c:
        raise ValueError("zero polynomial")
    roots = {}
    k = 0
    while not c[k]:
        k += 1
    if k:
        roots[0] = k
    c = list(c[k:])
    candidates = []
    if len(c) > 1:
        lo, hi = _real_root_range(c if c[-1] > 0 else [-a for a in c])
        candidates = [r for d in _divisors(c[0], max(-lo, hi)) for r in (d, -d) if lo < r < hi]
    found, c = deflate(c, candidates)
    roots.update(found)
    return roots, tuple(c)


split_integer_roots.cache_info = _split.cache_info
split_integer_roots.cache_clear = _split.cache_clear


def divide_root(c, r):
    """The ascending λ-coefficients of c / (λ - r), by synthetic division,
    for deflate on integer lists (it takes only the ring operations of the
    coefficients); c has degree at least 1, and r must be a root of
    c = Σ c[k]·λ^k, or the result is a ValueError."""
    out = [c[-1]]
    for a in reversed(c[1:-1]):
        out.append(a + r * out[-1])
    if c[0] + r * out[-1]:
        raise ValueError(f"{r} is not a root")
    return out[::-1]


def deflate(c, candidates):
    """({root: multiplicity}, cofactor) of the integer polynomial c (a
    trimmed ascending list, not zero) divided by (λ - r) for each integer
    r of candidates in turn, as often as r is a root of what is left.

    Each division is exact (r is a root), so the cofactor keeps integer
    coefficients, and r's multiplicity in c is the number of divisions: a
    root of multiplicity m leaves a cofactor with r as a root m - 1 times.
    A candidate that is not a root leaves c unchanged. So when the
    candidates hold every integer root of c, c has only integer roots
    exactly when the cofactor is a constant.
    """
    roots = {}
    for r in candidates:
        while len(c) > 1 and poly_value(c, r) == 0:
            c = divide_root(c, r)
            roots[r] = roots.get(r, 0) + 1
    return roots, c


def deflate_values(values, candidates):
    """deflate in value space: ({root: multiplicity}, the cofactor's values
    at 0..n) for g given as its values g(0), ..., g(n), g an integer
    polynomial, not zero, and candidates integers in 0..n.

    Any n + 1 values are those of one polynomial g of degree at most n. A
    candidate r is a root of what is left exactly when its value at r is
    0; then the cofactor h = g / (λ - r) has integer coefficients (division
    by a monic factor), so h(k) = g(k) / (k - r) is an exact integer
    division at each k != r. For w_k = (-1)^k C(n, k), Σ w_k h(k) is the
    n-th forward difference of h at 0 up to sign, n! times h's x^n
    coefficient, which is 0, h having degree below n. h(r) is the one
    unknown of the sum: h(r) = -Σ_{k≠r} w_k h(k) / w_r, one more exact
    division; w is built at the first root found. As in deflate,
    r's multiplicity is the number of divisions, each cofactor keeps the
    n + 1 values, and with every integer root among the candidates g has
    only integer roots exactly when the cofactor's values are all equal.
    A remainder in any division means g has a non-integer coefficient, a
    ValueError, as in interpolate.
    """
    values = list(values)
    if not any(values):
        raise ValueError("zero polynomial")
    n = len(values) - 1
    weights = None
    roots = {}
    for r in candidates:
        if not 0 <= r <= n:
            raise ValueError(f"candidate {r} outside 0..{n}")
        while not values[r]:
            if weights is None:
                weights = [(-1) ** k * comb(n, k) for k in range(n + 1)]
            for k in range(n + 1):
                if k != r:
                    values[k], rest = divmod(values[k], k - r)
                    if rest:
                        raise ValueError("the values are not those of an integer polynomial")
            values[r], rest = divmod(-sum(map(mul, weights, values)), weights[r])
            if rest:
                raise ValueError("the values are not those of an integer polynomial")
            roots[r] = roots.get(r, 0) + 1
    return roots, values


def only_integer_roots(c) -> bool:
    """Whether every root of c is an integer: split_integer_roots leaves a
    constant cofactor. A c with a non-real root gives False, or the
    ValueError of split_integer_roots."""
    return len(split_integer_roots(c)[1]) <= 1


def integer_roots(c, precision: Fraction = DEFAULT_PRECISION) -> RootReport:
    """Every integer root with multiplicity (see split_integer_roots), and
    isolating intervals for the real roots of the integer-root-free rest.

    c must be a nonzero integer polynomial with only real roots, as the
    characteristic polynomial of a symmetric matrix has, whose leading
    coefficient divides its content, that is, whose primitive part is
    monic, as every characteristic polynomial's is. Any other c is a
    ValueError: a primitive part that is not monic at once, and a rest that
    is not real-rooted once the cell search finds it out, which it does
    before it returns (see _root_cells). The rest then has no rational
    root, so each interval is a half-open cell (lo, hi] of the dyadic grid:
    the cell plain bisection from the Cauchy bound reaches, refined until
    its width is at most the precision (see _root_cells and _refine).
    """
    c, precision = _checked(c, precision)
    roots, residual = split_integer_roots(c)
    return RootReport(
        integer_roots=tuple(sorted(roots.items(), key=lambda kv: -kv[0])),
        residual=tuple(residual),
        isolating_intervals=tuple(_cells(residual, precision)),
    )


def _checked(c, precision):
    c = _trim(list(c))
    if not c:
        raise ValueError("zero polynomial")
    precision = _as_fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    return c, precision


def isolate_lowest_root(c, precision: Fraction = DEFAULT_PRECISION):
    """The isolating cell of the lowest root of c, or None when c is a
    constant; c real-rooted as in integer_roots (its one caller,
    algebraic_connectivity_from_poly, passes a Laplacian residual), a
    primitive part that is not monic a ValueError. Only the cells up to the
    lowest one are searched, so a c that is not real-rooted is a ValueError
    only when that search finds it out.

    The search visits the lower half of every cell first and refines only
    the first cell holding a single root, so the other roots cost no
    refinement. No integer root is split off: an integer lowest root gets
    the grid cell (r - w, r] that holds it, not [r, r]. So on c with no
    integer root, such as split_integer_roots' residual, the result is
    integer_roots(c, precision).isolating_intervals[0].
    """
    return next(_cells(*_checked(c, precision)), None)


def divides(p, q):
    """Exact divisibility in Z[λ]; returns (flag, quotient).

    The quotient is the integer coefficient list of q / p, or None when p
    does not divide q with an integer quotient.
    """
    p = _trim(list(p))
    if not p:
        raise ValueError("division by the zero polynomial")
    quo = _quotient(_trim(list(q)), p)
    return quo is not None, quo


def poly_text(c) -> str:
    """Canonical text of ascending integer coefficients in λ, the form
    MPoly.to_text prints and parse_poly reads: '0' for the zero list."""
    return _terms_text(
        (a, () if e == 0 else (_power_text(LAMBDA, e),))
        for e, a in reversed(list(enumerate(c)))
        if a
    )
