"""Exact polynomial arithmetic over the integers.

Two representations, one per job. MPoly is a sparse multivariate
polynomial (integer or exact-rational coefficients) over one fixed
variable tuple, and serves only the symbolic Z[s,t][λ] catalog; its ring
and parse_poly compute on the same term-dict sum, negation, product and
power, and taylor_shift on the term-dict binomial expansion, from which
sign_above certifies one sign of a polynomial at every point above a
corner. Every single-graph decision works on ascending
integer coefficient lists in one univariate kernel: the gcd with the
derivative by a primitive remainder sequence, exact division in Z[λ],
square-free parts, integer-root extraction
with multiplicities (candidates bounded by a root bound, not by the size
of the constant term), Sturm-sequence root counting over half-open
rational intervals, isolating intervals, and poly_text, which prints a
list in MPoly's canonical text. Isolation keeps the dyadic grid that
bisection from the Cauchy bound builds, but starts at the deepest level
whose two cells next to 0 cover the Fujiwara bound, and refines each
single-root cell by secant jumps that are kept only when exact signs at
both ends of the new cell differ; isolate_lowest_root refines the lowest
root only. A polynomial isolated costs one remainder sequence when it is
square-free: the sequence of it and its derivative is its Sturm chain when
it ends in a constant, and otherwise ends in their gcd, which is divided
out before the chain is built again. Rational roots are searched as
fractions only when the leading coefficient is not 1, and not at all for
integer_roots' residual when it is ±1: a monic polynomial's rational roots
are integers. No floating point is used anywhere in a decision path; decimal
output elsewhere in the library is display-only rounding of the rational
intervals produced here.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from operator import add, mul, sub

LAMBDA = "λ"

#: Default width for isolating intervals attached to reports.
DEFAULT_PRECISION = Fraction(1, 10**6)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _normalize_coeff(c):
    # int first: an isinstance test against Fraction goes through ABCMeta
    if isinstance(c, int):
        return c
    c = _as_fraction(c)
    return c.numerator if c.denominator == 1 else c


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
    """Sparse polynomial: map from exponent vectors to exact coefficients.

    Variables are an ordered tuple of names; term keys are exponent tuples
    of the same length. Zero coefficients are never stored. Every MPoly in
    the catalog is built over one fixed tuple, so the ring works over one
    tuple only: a binary operation on two MPolys over different tuples is a
    ValueError, and they are never equal. A number acts as a constant term.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent vector length does not match variables")
            c = _normalize_coeff(c)
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

    def degree(self, name=None) -> int:
        """Total degree, or degree in one variable; zero polynomial -> -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
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
        """other's term dict over self's variables: a number as a constant
        term, an MPoly's own terms when its variables are self's; None for
        any other type."""
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError(f"MPoly over {other.vars} meets MPoly over {self.vars}")
            return other.terms
        if isinstance(other, (int, Fraction)):
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

    def __hash__(self):
        if self.is_constant():  # equal to its value, so hashed as it
            return hash(self.constant_value())
        return hash((self.vars, frozenset(self.terms.items())))

    # -- evaluation ---------------------------------------------------

    def substitute(self, assignment) -> "MPoly":
        """Substitute exact values for a subset of the variables."""
        keep = tuple(v for v in self.vars if v not in assignment)
        # int values stay int, so integer polynomials never touch Fraction.
        values = [
            None if v not in assignment
            else assignment[v] if isinstance(assignment[v], int)
            else _as_fraction(assignment[v])
            for v in self.vars
        ]
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
        """Evaluate fully at exact rational values; returns int or Fraction."""
        missing = [v for v in self.vars if self.degree(v) > 0 and v not in assignment]
        if missing:
            raise ValueError(f"missing values for {missing}")
        return _normalize_coeff(self.substitute(assignment).constant_value())

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


def taylor_shift(poly: MPoly, floors) -> MPoly:
    """poly with each variable v replaced by v + floors[v] (0 when v is not
    in floors), expanded: the Taylor shift to the corner floors."""
    return MPoly(poly.vars, _terms_shift(poly.terms, [floors.get(v, 0) for v in poly.vars]))


def sign_above(poly: MPoly, floors) -> int:
    """1 or -1 when poly has that sign at every real point whose variables
    v are each at least floors[v]; 0 when the certificate fails.

    The certificate (Collins & Akritas, 1976): shift poly to the corner
    (taylor_shift), so that the point v = floors[v] + x_v has every x_v >= 0.
    If the shift has a nonzero constant term and every coefficient has its
    sign, each other term is such a coefficient times powers of the x_v,
    which are >= 0, so it has that sign or is 0; the constant term is not 0,
    so the sum has that sign. A shift with mixed signs, or with no constant
    term, certifies nothing, though poly may still keep one sign there.
    """
    terms = taylor_shift(poly, floors).terms
    const = terms.get((0,) * len(poly.vars), 0)
    if const and all((c > 0) == (const > 0) for c in terms.values()):
        return 1 if const > 0 else -1
    return 0


def shift_certificate(poly: MPoly, ranges, sign: int, holds) -> bool:
    """Whether poly has the sign `sign` (1 or -1) at every point of a grid:
    the integer points of the box `ranges` (one range per variable, in
    poly.vars order) that the grid keeps. holds(box) tells whether a
    sub-box, given the same way, keeps a grid point; a grid that keeps none
    is settled for either sign.

    The search starts with the whole orthant above the box's floor, the
    least value of each variable, and certifies each part with sign_above
    at the part's floor (Collins & Akritas, 1976). A part that certifies
    `sign` is settled. A part whose polynomial is zero, or that certifies
    the other sign, ends the search with False when it holds a grid point:
    that point does not have `sign`. A part that certifies nothing and
    holds a grid point is split along its first free variable v into
    v = floor, substituted, and v >= floor + 1; a part whose floor is above
    the box's top holds no grid point and is dropped. The parts cover the
    orthant, and every one that holds a grid point has been settled with
    `sign`, so every grid point has it. Conversely the search ends False
    only at a grid point without `sign`, so the answer is exact. It ends
    because each split fixes a variable or raises a floor towards the box's
    top: the box bounds the number of parts.
    """
    n = len(poly.vars)
    # (the part's polynomial in its free variables, which are poly.vars[k:]
    # with the first k fixed at their floors, and the floor of each variable)
    work = [(poly, [r.start for r in ranges])]
    while work:
        part, floors = work.pop()
        k = n - len(part.vars)
        part_sign = sign_above(part, dict(zip(part.vars, floors[k:])))
        if part_sign == sign:
            continue
        box = [range(f, f + 1) for f in floors[:k]] + [
            range(f, r.stop) for f, r in zip(floors[k:], ranges[k:])
        ]
        if not holds(box):
            continue
        if part_sign or not part:
            return False
        if floors[k] + 1 < ranges[k].stop:
            work.append((part, floors[:k] + [floors[k] + 1] + floors[k + 1 :]))
        work.append((part.substitute({part.vars[0]: floors[k]}), floors))
    return True


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
    g = 0
    for a in c:
        g = gcd(g, abs(int(a)))
    return g or 1


def _primitive(c):
    g = _content(c)
    out = [a // g for a in c]
    return out


def _scaled_value(c, p: int, r: int) -> int:
    """r^d * c(p/r) for integers p and r > 0, with d = len(c) - 1.

    Evaluates the homogenized form sum(c_i * p^i * r^(d-i)) in integers;
    the factor r^d is positive, so the result has the sign of c(p/r).
    """
    if not c:
        return 0
    acc = c[-1]
    rp = 1
    for i in range(len(c) - 2, -1, -1):
        rp *= r
        acc = acc * p + c[i] * rp
    return acc


def _dyadic_value(c, p: int, k: int) -> int:
    """_scaled_value(c, p, 1 << k): 2^(kd) * c(p / 2^k), the powers of
    r = 2^k applied as shifts of the coefficients."""
    if not c:
        return 0
    acc = c[-1]
    shift = 0
    for i in range(len(c) - 2, -1, -1):
        shift += k
        acc = acc * p + (c[i] << shift)
    return acc


def _sign_at(c, q: Fraction) -> int:
    """Exact sign of the polynomial at a rational point."""
    acc = _scaled_value(c, q.numerator, q.denominator)
    return (acc > 0) - (acc < 0)


def _prem_pos(f, g):
    """Pseudo-remainder of f by g scaled by a positive constant."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    df = len(r) - 1
    if df < dg:
        return r
    steps = df - dg + 1
    done = 0
    while len(r) - 1 >= dg and any(r):
        d = len(r) - 1
        c = r[-1]
        r = [lg * a for a in r]
        for i, b in enumerate(g):
            r[i + d - dg] -= c * b
        _trim(r)
        done += 1
    rem_mult = steps - done
    if rem_mult > 0:
        m = lg**rem_mult
        r = [m * a for a in r]
    if lg < 0 and steps % 2 == 1:
        r = [-a for a in r]
    return r


def _remainder_chain(c):
    """Primitive parts of c, c' and the negated pseudo-remainders after
    them, up to the last nonzero one, which is ± the primitive gcd of c and
    c'. When it is a constant, c is square-free and the chain is c's Sturm
    chain. Cutting each pseudo-remainder to its primitive part (Collins
    1967; Brown and Traub 1971) keeps the coefficients small and in Z."""
    chain = [_primitive(list(c))]
    d = _trim(_derivative(c))
    if d:
        chain.append(_primitive(d))
    while len(chain[-1]) > 1:
        nxt = _trim([-a for a in _prem_pos(chain[-2], chain[-1])])
        if not nxt:
            break
        chain.append(_primitive(nxt))
    return chain


def _sturm_chain(c):
    """Sturm chain of a square-free integer polynomial (primitive parts)."""
    chain = _remainder_chain(c)
    if len(chain[-1]) > 1:
        raise ValueError("polynomial is not square-free")
    return chain


def _square_free_chain(c):
    """(the primitive square-free part of c, leading coefficient positive,
    its Sturm chain) for a trimmed nonzero c.

    One remainder sequence serves when c is square-free: it is the Sturm
    chain. Otherwise its last element is the gcd of c and c', and the chain
    of c over the gcd is built once more.
    """
    c = _primitive(c)
    if c[-1] < 0:
        c = [-a for a in c]
    chain = _remainder_chain(c)
    if len(chain[-1]) > 1:
        c = _exact_quotient(c, chain[-1])
        chain = _sturm_chain(c)
    return c, chain


def _variations(values) -> int:
    """Sign changes along a Sturm chain's values at one point, zeros
    skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_halfopen(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in (a, b] of the chain's square-free polynomial."""
    v_a = _variations(_scaled_value(c, a.numerator, a.denominator) for c in chain)
    v_b = _variations(_scaled_value(c, b.numerator, b.denominator) for c in chain)
    return v_a - v_b


def _root_bound(c) -> int:
    """Cauchy bound: every real root has absolute value below the result."""
    lead = abs(c[-1])
    m = max(abs(a) for a in c[:-1]) if len(c) > 1 else 0
    return 1 + (m + lead - 1) // lead if m else 1


def _fujiwara_bound(c) -> int:
    """Fujiwara's bound (1916), rounded up to a power of two.

    Every complex root has absolute value below the result. Fujiwara bounds
    the roots by 2·max_k |a_{d-k} / a_d|^(1/k); with q_k the ceiling of the
    ratio, q_k^(1/k) < 2^ceil(bitlength(q_k) / k), so only integer bit
    lengths and shifts are needed. By Vieta's formulas
    |a_{d-k} / a_d| <= C(d, k)·R^k for the largest root modulus R, so the
    result stays within a factor O(d) of R, whereas the Cauchy bound grows
    with the largest coefficient (binomially, for a characteristic
    polynomial); it keeps the candidate search short.
    """
    lead = abs(c[-1])
    d = len(c) - 1
    e = 0
    for k in range(1, d + 1):
        q = -(-abs(c[d - k]) // lead)
        e = max(e, -(-q.bit_length() // k))
    return 2 << e


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


def _exact_quotient(a, b):
    """Primitive part, leading coefficient positive, of a / b.

    b must divide a over Q. By Gauss's lemma the quotient of a by the
    primitive part of b has integer coefficients, so the long division
    never leaves Z.
    """
    q = _quotient(a, _primitive(b))
    assert q is not None, "divisor does not divide"
    q = _primitive(q)
    return [-x for x in q] if q[-1] < 0 else q


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
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def interpolate(values) -> list:
    """Ascending integer coefficients, trailing zeros trimmed, of the
    polynomial of degree below len(values) that takes values[k] at k = 0,
    1, ...; ValueError when no integer polynomial does.

    Newton's forward differences give c = Σ_j b_j x(x - 1)···(x - j + 1)
    with b_j = Δ^j c(0) / j!, all integers exactly when c has integer
    coefficients; Horner over the falling factorials multiplies them out.
    """
    diffs, newton, factorial = list(values), [], 1
    while any(diffs):  # the differences beyond the degree are 0
        factorial *= len(newton) or 1
        b, r = divmod(diffs[0], factorial)
        if r:
            raise ValueError("the values are not those of an integer polynomial")
        newton.append(b)
        diffs = list(map(sub, diffs[1:], diffs))
    out = []
    for j in reversed(range(len(newton))):
        out = [x - j * y for x, y in zip([0] + out, out + [0])]  # out · (x - j)
        out[0] += newton[j]
    return out


def grid_interpolate(table) -> dict:
    """The integer polynomial of degree at most 2 in each of p variables
    that takes table[x] at each point x of {0, 1, 2}^p, as a map from
    exponent tuples to coefficients; ValueError when there is none. The
    table's values are lists of one length, interpolated entrywise, one
    variable after another: a line v0, v1, v2 is c0 + c1·x + c2·x² with
    c0 = v0, c2 = (v2 - 2·v1 + v0) / 2, an integer exactly when that second
    difference is even (interpolate's Newton form), and c1 = v1 - v0 - c2.
    """
    for axis in range(len(next(iter(table)))):
        out = {}
        for point, v0 in table.items():
            if point[axis]:
                continue
            v1, v2 = (table[point[:axis] + (x,) + point[axis + 1 :]] for x in (1, 2))
            second = [a - 2 * b + c for a, b, c in zip(v0, v1, v2)]
            if any(x & 1 for x in second):
                raise ValueError("the values are not those of an integer polynomial")
            c2 = [x >> 1 for x in second]
            out[point] = v0
            out[point[:axis] + (1,) + point[axis + 1 :]] = [b - a - c for a, b, c in zip(v0, v1, c2)]
            out[point[:axis] + (2,) + point[axis + 1 :]] = c2
        table = out
    return table


def _synthetic_div(c, r: int):
    """Divide by (x - r) assuming r is a root; integer coefficients preserved."""
    d = len(c) - 1
    out = [0] * d
    carry = c[d]
    for i in range(d - 1, 0, -1):
        out[i] = carry
        carry = c[i] + r * carry
    out[0] = carry
    assert c[0] + r * carry == 0, "not a root"
    return out


def _rational_roots(c, chain=None):
    """Rational roots (as Fractions) with multiplicity, plus the rest over Z.

    The roots p/q in lowest terms have p dividing the constant and q the
    leading coefficient, so a monic c has integer ones only and is searched
    on ints as split_integer_roots searches. Otherwise each rational root is
    one of the roots of c's square-free part found by _rational_points, and
    c is divided by it as often as it is a root. A caller that holds c's
    Sturm chain passes it as chain, c then being square-free and primitive
    with a positive leading coefficient, and the chain is not built again
    unless c has the root 0.
    """
    c = _trim(list(c))
    if c and c[-1] == 1:
        roots, rest = split_integer_roots(c)
        return {Fraction(r): m for r, m in roots.items()}, rest
    roots = {}
    k = 0
    while c and not c[0]:
        c = c[1:]
        k += 1
    if k:
        roots[Fraction(0)] = k
    if len(c) <= 1:
        return roots, c
    for r in _rational_points(*((c, chain) if chain and not k else _square_free_chain(c))):
        while len(c) > 1 and _sign_at(c, r) == 0:
            c = _exact_quotient(c, [-r.numerator, r.denominator])
            roots[r] = roots.get(r, 0) + 1
    return roots, c


def _rational_points(sf, chain):
    """The rational roots of sf, ascending; sf is square-free and primitive
    with leading coefficient a > 0, and chain is its Sturm chain.

    A root p/q in lowest terms has q dividing a, so it is a multiple of 1/a.
    Each cell of _root_cells, which holds one root, is halved by Sturm
    counts until it is at most 1/a wide; the half-open cell then holds one
    multiple of 1/a at most, its highest, m/a with m = floor(a·hi), and the
    root is rational exactly when it is m/a. The halving counts roots, not
    sign changes, so a root on a cell end (a dyadic root) is found as well.
    No divisor of a or of the constant term is searched for.
    """
    a = sf[-1]
    points = []
    for lo, hi, k, level in _root_cells(sf, chain, Fraction(1, a)):
        v_lo = _variations(_dyadic_value(p, lo, k) for p in chain)
        while k < level:
            lo, hi, k = lo << 1, hi << 1, k + 1
            mid = (lo + hi) >> 1
            v_mid = _variations(_dyadic_value(p, mid, k) for p in chain)
            if v_lo - v_mid:
                hi = mid
            else:
                lo, v_lo = mid, v_mid
        m = (a * hi) >> k
        if m << k > a * lo and _scaled_value(sf, m, a) == 0:
            points.append(Fraction(m, a))
    return points


def _root_cells(rest, chain, precision: Fraction):
    """Isolating cells of the dyadic grid for rest, lowest root first.

    rest is square-free, and chain is its Sturm chain; the cells are
    counted by Sturm counts, so a root may lie on a cell end. The grid is
    the one that bisecting (-B, B], B the Cauchy bound, builds: level k has
    cells of width 2B/2^k, kept as integer numerators lo, hi = lo + 2B over
    2^k, and 0 is a grid point from level 1 on. The search starts at level
    s, the deeper of 1 and the deepest level whose two cells next to 0
    still cover (-F, F), F the Fujiwara bound; it starts no deeper than
    the level at which bisection would stop refining, so every root's cell
    is the one plain bisection from (-B, B] reaches. Cells holding several
    roots are halved by Sturm counts, the lower half first. Yields (lo, hi,
    k, level) for each cell holding exactly one root, where level is how
    deep its refinement must go: the first level whose cells are at most
    precision wide, or k when the cell is that narrow already.
    """
    bound = _root_bound(rest)
    width = 2 * bound
    q = -(-width * precision.denominator // precision.numerator)
    target = (q - 1).bit_length()  # least level with width / 2^level <= precision
    f = _fujiwara_bound(rest).bit_length() - 1  # F = 2^f
    s = min(max(1, width.bit_length() - 1 - f), target)
    ends = (-bound, bound) if s == 0 else (-width, 0, width)
    v = [_variations(_dyadic_value(c, e, s) for c in chain) for e in ends]
    # (lo, hi, k, roots in (lo/2^k, hi/2^k], variations at lo/2^k)
    work = [(lo, hi, s, v_lo - v_hi, v_lo) for lo, hi, v_lo, v_hi in zip(ends, ends[1:], v, v[1:])]
    work.reverse()
    while work:
        lo, hi, k, count, v_lo = work.pop()
        if count == 1:
            yield lo, hi, k, max(k, target)
        elif count > 1:
            lo, hi, k = lo << 1, hi << 1, k + 1
            mid = (lo + hi) >> 1
            v_mid = _variations(_dyadic_value(c, mid, k) for c in chain)
            work.append((mid, hi, k, count - (v_lo - v_mid), v_mid))
            work.append((lo, mid, k, v_lo - v_mid, v_lo))


def _refine(c, lo, hi, k, target):
    """The cell at level target of the dyadic grid inside (lo, hi] over 2^k
    that holds the one root of c there, as a pair of Fractions.

    c has no rational root, so the root shows as a change of sign between
    cell ends. A secant step jumps 2^m levels at once: it takes the
    sub-cell holding the zero of the chord through the cell's ends, and
    keeps it only when the exact signs at its two ends differ. A hit
    doubles the jump; a miss halves it and takes one bisection step. The
    values are r^d·c(p/r) at the ends p/r of the current level, computed
    in integers (an end shared with the cell is rescaled, not evaluated
    again), so every cell kept is a grid cell that holds the root: the one
    bisection reaches.
    """
    d = len(c) - 1
    f_lo = _dyadic_value(c, lo, k)
    f_hi = _dyadic_value(c, hi, k)
    m = 0
    while k < target:
        j = min(1 << m, target - k)
        # the chord's zero is lo + t (hi - lo), t = f_lo / (f_lo - f_hi) in (0, 1)
        i = (f_lo << j) // (f_lo - f_hi)
        a = (lo << j) + i * (hi - lo)
        b = a + hi - lo
        f_a = f_lo << d * j if i == 0 else _dyadic_value(c, a, k + j)
        if (f_a > 0) == (f_lo > 0):
            f_b = f_hi << d * j if i == (1 << j) - 1 else _dyadic_value(c, b, k + j)
            if (f_b > 0) != (f_lo > 0):
                lo, hi, k, f_lo, f_hi = a, b, k + j, f_a, f_b
                m += 1
                continue
        m = max(0, m - 1)
        lo, hi, k = lo << 1, hi << 1, k + 1
        mid = (lo + hi) >> 1
        f_mid = _dyadic_value(c, mid, k)
        if (f_mid > 0) != (f_lo > 0):
            hi, f_lo, f_hi = mid, f_lo << d, f_mid
        else:
            lo, f_lo, f_hi = mid, f_mid, f_hi << d
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


def _isolation(c, precision: Fraction, integer_free: bool = False):
    """The distinct rational roots of a trimmed nonzero c, ascending,
    and an iterator of isolating intervals of its other real roots,
    ascending, each refined only when it is drawn.

    The square-free part's remainder sequence is its Sturm chain (see
    _square_free_chain), kept unless rational roots are divided out. When
    c has no integer root (integer_free) and its leading coefficient is
    ±1, no rational-root search runs: it would find integers only (see
    _rational_roots).
    """
    sf, chain = _square_free_chain(c)
    if integer_free and sf[-1] == 1:
        rational, rest = {}, sf
    else:
        rational, rest = _rational_roots(sf, chain)
        if rest != sf and len(rest) > 1:
            chain = _sturm_chain(rest)
    cells = _root_cells(rest, chain, precision) if len(rest) > 1 else ()
    return sorted(rational), (_refine(rest, *cell) for cell in cells)


def _midpoint(iv):
    return (iv[0] + iv[1]) / 2


def _isolate(c, precision: Fraction, integer_free: bool = False):
    """Disjoint rational intervals, one per distinct real root of a
    trimmed nonzero c (integer_free as in _isolation).

    Rational roots come back as degenerate point intervals; the remaining
    roots get half-open (lo, hi] intervals of the dyadic grid of _root_cells
    refined down to the requested width, all sorted by midpoint.
    """
    points, cells = _isolation(c, precision, integer_free)
    intervals = [(r, r) for r in points]
    intervals.extend(cells)
    intervals.sort(key=_midpoint)
    return intervals


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
    residual root each (residual taken square-free).
    """

    __slots__ = ()


def split_integer_roots(c):
    """Integer roots of c, and the integer-root-free rest as coefficients.

    Returns ({root: multiplicity}, cofactor) by trial division with the
    divisors of the trailing coefficient (after the power of the variable
    is factored out) up to the smaller of the Cauchy and Fujiwara root
    bounds, so the search is bounded by the size of the roots, not of the
    trailing coefficient. Those candidates, ±d, hold every integer root r:
    with c(0) != 0, r divides c(0) (c = (λ - r) g over Z gives c(0) =
    -r g(0)), and |r| is at most either bound; so deflate by them leaves
    a constant cofactor exactly when the polynomial has only integer roots.
    """
    c = _trim(list(c))
    if not c:
        raise ValueError("zero polynomial")
    roots = {}
    k = 0
    while not c[0]:
        c = c[1:]
        k += 1
    if k:
        roots[0] = k
    divisors = _divisors(c[0], min(_root_bound(c), _fujiwara_bound(c))) if len(c) > 1 else []
    found, c = deflate(c, [r for d in divisors for r in (d, -d)])
    roots.update(found)
    return roots, c


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
            c = _synthetic_div(c, r)
            roots[r] = roots.get(r, 0) + 1
    return roots, c


@lru_cache(maxsize=None)
def _difference_weights(n: int) -> tuple:
    """(-1)^k C(n, k) for k = 0..n: Σ w_k h(k) is (-1)^n times the n-th
    forward difference of h at 0, which is 0 for every h of degree below n."""
    return tuple((-1) ** k * comb(n, k) for k in range(n + 1))


def deflate_values(values, candidates):
    """deflate in value space: ({root: multiplicity}, the cofactor's values
    at 0..n) for g given as its values g(0), ..., g(n), g an integer
    polynomial, not zero, and candidates integers in 0..n.

    Any n + 1 values are those of one polynomial g of degree at most n. A
    candidate r is a root of what is left exactly when its value at r is
    0; then the cofactor h = g / (λ - r) has integer coefficients (division
    by a monic factor), so h(k) = g(k) / (k - r) is an exact integer
    division at each k != r. h has degree below n, so its n-th forward
    difference vanishes, and with it Σ (-1)^k C(n, k) h(k), which is that
    difference up to sign; h(r) is the one unknown of the sum: one more
    exact division, by (-1)^r C(n, r). As in deflate,
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
    weights = _difference_weights(n)
    roots = {}
    for r in candidates:
        if not 0 <= r <= n:
            raise ValueError(f"candidate {r} outside 0..{n}")
        while not values[r]:
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
    constant cofactor."""
    return len(split_integer_roots(c)[1]) <= 1


def integer_roots(c, precision: Fraction = DEFAULT_PRECISION) -> RootReport:
    """Every integer root with multiplicity (see split_integer_roots), and
    isolating intervals for the real roots of the integer-root-free rest."""
    c, precision = _checked(c, precision)
    roots, residual = split_integer_roots(c)
    return RootReport(
        integer_roots=tuple(sorted(roots.items(), key=lambda kv: -kv[0])),
        residual=tuple(residual),
        isolating_intervals=tuple(_isolate(residual, precision, integer_free=True)),
    )


def sturm_count(c, a, b) -> int:
    """Exact number of distinct real roots in the half-open interval (a, b].

    The square-free part is taken internally, so repeated roots count once.
    """
    a, b = _as_fraction(a), _as_fraction(b)
    if a >= b:
        raise ValueError("empty interval: require a < b")
    c = _trim(list(c))
    if not c:
        raise ValueError("zero polynomial")
    return _count_halfopen(_square_free_chain(c)[1], a, b)


def _checked(c, precision):
    c = _trim(list(c))
    if not c:
        raise ValueError("zero polynomial")
    precision = _as_fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    return c, precision


def isolate_roots(c, precision: Fraction = DEFAULT_PRECISION):
    """Isolating rational intervals for all distinct real roots of c.

    Rational roots are returned as exact point intervals [r, r]; all other
    intervals are cells of a dyadic grid, found from a start level fixed by
    the Fujiwara bound and refined by sign-checked secant jumps until their
    width is at most the requested precision: the cells plain bisection
    reaches (see _root_cells and _refine). Sorted by midpoint.
    """
    return _isolate(*_checked(c, precision))


def isolate_lowest_root(c, precision: Fraction = DEFAULT_PRECISION):
    """isolate_roots(c, precision)[0], or None when c has no real root.

    The search visits the lower half of every cell first and refines only
    the first cell holding a single root, so the other roots cost no
    refinement.
    """
    points, cells = _isolation(*_checked(c, precision))
    first = next(cells, None)
    candidates = [(r, r) for r in points[:1]] + ([first] if first else [])
    return min(candidates, key=_midpoint, default=None)


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
