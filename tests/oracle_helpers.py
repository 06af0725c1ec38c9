"""Independent oracles and random generators shared by the test modules.

Everything here is deliberately naive: spanning trees are enumerated one
by one, random graphs are built from explicit edge lists, cographs come
from literal union/join trees, real roots are isolated by bisection on
Fractions and counted with multiplicity over the chain of repeated gcds,
signs at rational points come from Horner's rule, polynomials are divided
over Q and multiplied back one linear factor at a time, and matrices are
read off adjacency tests one entry at a time; a polynomial is shifted to
a corner by multiplying out each of its terms in MPoly's ring. The chain
continuants are built here as polynomials (_continuants), and _side and
_fold_links fold a hub side and the internal paths over them, as
polynomials where the library folds values. divisor_search_rational_roots
is the rational-root search the library ran before it bisected root
cells, over Q, scan_tokens is the one-character-at-a-time scanner
that polys._tokenize replaced with one compiled pattern, and
recursive_partitions is the generator that enumeration._partitions
replaced with cached tuples. None of it shares code with the library paths it
checks, with three exceptions. family_factors and family_char_poly
assemble a member's quotient from the library's value tables, through
quotient_values and interpolate, and multiply in the repeated chain
factors θ^(c-1); the tests check both against Berkowitz on the realized
Laplacian. reference_sweep checks how verify_theorem walks, hoists and
tallies: it decides one member at a time, a repeated θ by its integer
roots, the sign scan from the quotient's values one by one, and the rest
by split_integer_roots of family_factors' quotient. And the join criterion for a(G) = k(G) and
the graph Γ_101 at the end decide with the library's exact kernels and
have only tests as callers.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, gcd, isqrt, lcm

from lapspec import (
    LAMBDA,
    Graph,
    IntMatrix,
    MPoly,
    SpectralValue,
    algebraic_connectivity_from_poly,
    char_poly,
    complete,
    config_tag,
    connected_components,
    disjoint_union,
    enumerate_family,
    interpolate,
    is_connected,
    join,
    laplacian,
    split_integer_roots,
    sturm_count,
    vertex_connectivity,
)
from lapspec.enumeration import TAG_NONE
from lapspec.matrices import (
    links_table,
    one_hub_coupling,
    quotient_values,
    side_table,
    two_hub_coupling,
)


def lift(coeffs) -> MPoly:
    """Σ c_i λ^i as an MPoly over (λ, *params), for an ascending coefficient
    list whose entries are numbers or MPoly values over one tuple params
    (empty when every entry is a number), read off the entries' terms."""
    (params,) = {c.vars for c in coeffs if isinstance(c, MPoly)} or {()}
    terms = {}
    for i, c in enumerate(coeffs):
        c_terms = c.terms if isinstance(c, MPoly) else {(0,) * len(params): c}
        for exps, a in c_terms.items():
            terms[(i,) + exps] = a
    return MPoly((LAMBDA,) + params, terms)


def taylor_shift_oracle(poly: MPoly, floors) -> MPoly:
    """Σ c · ∏ (v + floors[v])^e over the terms c · ∏ v^e of poly, built by
    MPoly ring arithmetic one factor at a time; a variable missing from
    floors is not moved."""
    total = MPoly.zero(poly.vars)
    for exps, c in poly.terms.items():
        term = MPoly.zero(poly.vars) + c
        for v, e in zip(poly.vars, exps):
            term = term * (MPoly.var(v, poly.vars) + floors.get(v, 0)) ** e
        total = total + term
    return total


def principal_submatrix(m: IntMatrix, removed) -> IntMatrix:
    """m with the rows and columns listed in removed deleted."""
    removed = list(removed)
    if len(set(removed)) != len(removed):
        raise ValueError("indices must be distinct")
    if any(i < 0 or i >= m.rows for i in removed):
        raise ValueError("index out of range")
    keep = [i for i in range(m.rows) if i not in set(removed)]
    return IntMatrix([[m.entries[i][j] for j in keep] for i in keep])


def spanning_tree_count(g: Graph) -> int:
    """Count spanning trees by enumerating them (deletion/contraction).

    Each recursion leaf with n-1 chosen edges that form a connected graph
    is exactly one spanning tree, so the count is a literal enumeration.
    """
    n = g.n
    if n == 0:
        return 0
    if n == 1:
        return 1
    edges = g.edges()

    def connects(chosen):
        seen = {0}
        stack = [0]
        adj = {}
        for u, v in chosen:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    count = 0

    def rec(idx, chosen):
        nonlocal count
        if len(chosen) == n - 1:
            if connects(chosen):
                count += 1
            return
        remaining = len(edges) - idx
        if remaining < (n - 1) - len(chosen):
            return
        rec(idx + 1, chosen + [edges[idx]])
        rec(idx + 1, chosen)

    rec(0, [])
    return count


def scrambled_fields(cfg, rng: random.Random, swap: bool = False) -> tuple:
    """tuple(cfg) with every multiset shuffled and, when swap is set, the
    two hub sides exchanged: the fields of the same member, unnormalized."""
    family, hub_edge, *multisets = cfg
    paths, pu, cu, pv, cv = (tuple(rng.sample(m, len(m))) for m in multisets)
    if swap:
        pu, cu, pv, cv = pv, cv, pu, cu
    return family, hub_edge, paths, pu, cu, pv, cv


def random_connected_graph(rng: random.Random, n_max: int = 8, density: float = 0.45) -> Graph:
    while True:
        n = rng.randint(3, n_max)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        g = Graph.from_edges(n, edges)
        if g.edge_count and is_connected(g):
            return g


def random_cograph(rng: random.Random, leaves: int) -> Graph:
    """Random union/join tree over single-vertex leaves."""
    if leaves == 1:
        return complete(1)
    left = rng.randint(1, leaves - 1)
    a = random_cograph(rng, left)
    b = random_cograph(rng, leaves - left)
    if rng.random() < 0.5:
        return disjoint_union(a, b)
    return join(a, b)


# -- real-root isolation on Fractions -----------------------------------------
#
# fraction_isolate_squarefree is the bisection loop lapspec ran before its
# isolation moved to integer dyadic endpoints, copied as it was, with every
# sign, Sturm chain, gcd and rational root computed here over Q. Its
# intervals are the ones lapspec must keep returning.


def fraction_value(c, x: Fraction) -> Fraction:
    return sum(a * x**i for i, a in enumerate(c))


def fraction_sign(c, x) -> int:
    """Exact sign of c at the rational x = p / q, q > 0, which is the sign
    of q^d c(x), d = len(c) - 1: Horner's rule on p with the coefficient
    of x^i scaled by q^(d-i)."""
    x = Fraction(x)
    acc, scale = 0, 1
    for a in reversed(c):
        acc = acc * x.numerator + a * scale
        scale *= x.denominator
    return (acc > 0) - (acc < 0)


def _q_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _q_divmod(a, b):
    """Quotient and remainder of a by b over Q (ascending coefficients)."""
    r = _q_trim([Fraction(x) for x in a])
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        f = r[-1] / b[-1]
        q[shift] = f
        for i, y in enumerate(b):
            r[i + shift] -= f * y
        r.pop()
        _q_trim(r)
    return q, r


def _q_primitive(c):
    """The positive multiple of c with coprime integer coefficients."""
    c = [Fraction(x) for x in c]
    den = lcm(*(x.denominator for x in c))
    ints = [int(x * den) for x in c]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints]


def _q_derivative(c):
    return [i * a for i, a in enumerate(c)][1:]


def _q_gcd(a, b):
    """A gcd of a and b over Q, by Euclid's algorithm."""
    while b:
        a, b = b, _q_divmod(a, b)[1]
    return a


def fraction_square_free_part(c):
    """c / gcd(c, c') by Euclid's algorithm over Q, as primitive integers."""
    c = _q_trim(list(c))
    if len(c) <= 1:
        return c
    return _q_primitive(_q_divmod(c, _q_gcd(c, _q_derivative(c)))[0])


def _q_root_bound(c) -> int:
    m = max(abs(a) for a in c[:-1]) if len(c) > 1 else 0
    return 1 + ceil(Fraction(m) / abs(c[-1])) if m else 1


def _q_fujiwara_bound(c) -> int:
    """2b for the least power of two b with b^k >= |c[d-k] / c[d]| for every
    k: every root has modulus at most 2b (Fujiwara 1916)."""
    d = len(c) - 1
    b = 1
    while any(b**k * abs(c[-1]) < abs(c[d - k]) for k in range(1, d + 1)):
        b *= 2
    return 2 * b


def _q_divisors(n: int, limit: int):
    n = abs(n)
    small = [d for d in range(1, min(limit, isqrt(n)) + 1) if n % d == 0]
    return small + [n // d for d in small if d < n // d <= limit]


def _q_rational_roots(c):
    """Rational roots of an integer polynomial (rational root theorem), and
    c divided by their linear factors."""
    c = _q_primitive(c)
    roots = set()
    while not c[0]:
        roots.add(Fraction(0))
        c = c[1:]
    bound = _q_fujiwara_bound(c)
    nums = _q_divisors(c[0], bound * abs(c[-1]))
    candidates = {
        Fraction(sign * p, q)
        for q in _q_divisors(c[-1], abs(c[-1]))
        for p in nums
        if p <= bound * q
        for sign in (1, -1)
    }
    rest = c
    for r in sorted(candidates):
        if fraction_value(c, r) == 0:
            roots.add(r)
            rest = _q_divmod(rest, [-r, 1])[0]
    return roots, rest


def divisor_search_rational_roots(c):
    """The rational roots of c with their multiplicities, and the rest, as
    lapspec's _rational_roots returns them, by the search it ran before it
    bisected root cells: every p/q up to the Cauchy bound, p a divisor of
    the constant term and q one of the leading coefficient, each of ±p/q
    divided out over Q as often as it is a root. The rest is c with its
    zero roots stripped; once a root is divided out, the quotient as
    primitive integers with a positive leading coefficient. Trial division
    runs to the square root of each coefficient, so its time grows with
    the leading coefficient."""
    c = _q_trim(list(c))
    roots = {}
    while c and not c[0]:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        c = c[1:]
    if len(c) <= 1:
        return roots, c
    bound, lead = _q_root_bound(c), abs(c[-1])
    nums, dens = _q_divisors(c[0], bound * lead), _q_divisors(lead, lead)
    rest = c
    for cand in sorted({Fraction(p, q) for p in nums for q in dens if p <= bound * q}):
        for r in (cand, -cand):
            while len(rest) > 1 and fraction_sign(rest, r) == 0:
                rest = _q_primitive(_q_divmod(rest, [-r, 1])[0])
                rest = [-a for a in rest] if rest[-1] < 0 else rest
                roots[r] = roots.get(r, 0) + 1
    return roots, rest


def _q_sturm_chain(c):
    chain = [c, _q_derivative(c)]
    while len(chain[-1]) > 1:
        rem = _q_divmod(chain[-2], chain[-1])[1]
        if not rem:
            raise ValueError("polynomial is not square-free")
        chain.append(_q_primitive([-a for a in rem]))
    return chain


def _q_count_halfopen(chain, a: Fraction, b: Fraction) -> int:
    def variations(x):
        signs = [s for s in (fraction_sign(c, x) for c in chain) if s]
        return sum(1 for u, v in zip(signs, signs[1:]) if u * v < 0)

    return variations(a) - variations(b)


def fraction_isolate_squarefree(c, precision: Fraction):
    """Isolating intervals of a square-free polynomial, by the bisection
    loop on Fraction endpoints: rational roots as point intervals, every
    other root in a half-open (lo, hi] of width at most precision."""
    c = _q_trim(list(c))
    if len(c) <= 1:
        return []
    rational, rest = _q_rational_roots(c)
    points = sorted(rational)
    intervals = [(r, r) for r in points]
    if len(rest) > 1:
        chain = _q_sturm_chain(rest)
        bound = Fraction(_q_root_bound(rest))
        work = [(-bound, bound, _q_count_halfopen(chain, -bound, bound))]
        found = []
        while work:
            lo, hi, count = work.pop()
            if count == 0:
                continue
            if count == 1:
                # rest has no rational root, so no dyadic point is a root and
                # the one simple root in (lo, hi] shows as a change of sign.
                sign_lo = fraction_sign(rest, lo)
                while hi - lo > precision:
                    mid = (lo + hi) / 2
                    if fraction_sign(rest, mid) != sign_lo:
                        hi = mid
                    else:
                        lo = mid
                found.append((lo, hi))
            else:
                mid = (lo + hi) / 2
                left = _q_count_halfopen(chain, lo, mid)
                work.append((lo, mid, left))
                work.append((mid, hi, count - left))
        intervals.extend(found)
    intervals.sort(key=lambda iv: (iv[0] + iv[1]) / 2)
    return intervals


def fraction_isolate_roots(c, precision: Fraction):
    """The oracle for isolate_roots: isolation of the square-free part."""
    return fraction_isolate_squarefree(fraction_square_free_part(c), precision)


def fraction_counts_above(c, thetas):
    """For each θ in thetas, the real roots of c above θ counted with
    multiplicity. A root of multiplicity m is a distinct root of each of the
    first m polynomials of the chain c, gcd(c, c'), the gcd of that and its
    derivative, ...; each one's distinct roots in (θ, B], B a root bound,
    are counted by a Sturm chain of its square-free part."""
    counts = [0] * len(thetas)
    c = _q_trim([Fraction(x) for x in c])
    while len(c) > 1:
        g = _q_gcd(c, _q_derivative(c))
        square_free = _q_primitive(_q_divmod(c, g)[0])
        chain = _q_sturm_chain(square_free)
        bound = Fraction(_q_root_bound(square_free))
        for i, theta in enumerate(thetas):
            counts[i] += _q_count_halfopen(chain, theta, max(bound, theta + 1))
        c = g
    return counts


def fraction_gap_points(*polys):
    """Rational points separating the distinct real roots of all polys: one
    strictly inside each gap between consecutive roots of their product,
    plus one below and one above every root.

    Bisection by Sturm counts splits (-B, B], B past the Fujiwara bound,
    until each cell holds at most one root. The lower end of each occupied
    cell but the lowest lies in the gap below its root, once halving the
    cell has moved it off the root of the cell before.
    """
    product = [Fraction(1)]
    for c in polys:
        out = [Fraction(0)] * (len(product) + len(c) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(c):
                out[i + j] += a * b
        product = out
    square_free = fraction_square_free_part(product)
    if len(square_free) <= 1:
        return [Fraction(0)]
    chain = _q_sturm_chain(square_free)
    bound = Fraction(_q_fujiwara_bound(square_free) + 1)
    work, cells = [(-bound, bound)], []
    while work:
        lo, hi = work.pop()
        count = _q_count_halfopen(chain, lo, hi)
        if count == 1:
            cells.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            work += [(lo, mid), (mid, hi)]
    points = [-bound]
    for lo, hi in sorted(cells)[1:]:
        while fraction_sign(square_free, lo) == 0:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _q_count_halfopen(chain, mid, hi) else (lo, mid)
        points.append(lo)
    return points + [bound]


def fraction_divides(p, q):
    """The oracle for divides: long division of q by p over Q.

    Returns (True, quotient as Fractions) when the remainder vanishes, else
    (False, None); for a monic p this is divisibility in Z[λ].
    """
    quo, rem = _q_divmod(q, _q_trim(list(p)))
    return (False, None) if rem else (True, quo)


def reconstructs(report, c) -> bool:
    """A RootReport's residual times (λ - r)^m over its integer roots is c."""
    prod = list(report.residual)
    for root, mult in report.integer_roots:
        for _ in range(mult):
            prod = [a - root * b for a, b in zip([0] + prod, prod + [0])]
    return prod == _q_trim(list(c))


def adjacency_matrix(g: Graph) -> IntMatrix:
    return IntMatrix([[1 if g.has_edge(i, j) else 0 for j in range(g.n)] for i in range(g.n)])


# -- the characteristic polynomial of a family member, assembled --------------


def _add(a, b, scale=1):
    """a + scale * b, trailing zeros trimmed."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] += scale * x
    while out and not out[-1]:
        out.pop()
    return out


def poly_mul(a, b):
    """Product of two ascending coefficient lists, by the schoolbook sum."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _continuants(k, last):
    """(t_k, t_{k-1}, t_{k-2}) as polynomials for the k x k tridiagonal T
    with -1 off the diagonal and diagonal 2, ..., 2, last.

    t_j = det(λI - T_j) with T_j the trailing j x j block of T, so t_k = θ,
    t_{k-1} leaves out the first vertex and, when last = 2, t_{k-2} leaves
    out both end vertices; t_{-1} = 0. The corner entry of (λI - T)^-1 is
    (-1)^(k+1) / θ.
    """
    older, old, cur = (), (1,), (-last, 1)
    for _ in range(k - 1):
        # (λ - 2) t_{j-1} - t_{j-2}, the product by λ - 2 as a shift
        older, old, cur = old, cur, tuple(_add(_add((0,) + cur, cur, -2), old, -1))
    return cur, old, older


def _kinds(lengths):
    """(length, count) for each distinct length, ascending."""
    return sorted(Counter(lengths).items())


def continuant_theta(kind, length):
    """θ of a chain: the continuant t_L (last = 1) of a pendant path on L
    vertices, t_{L-1} (last = 2) of a cycle of length L and t_{i-2}
    (last = 2) of an internal path of order i."""
    if kind == "pendant":
        return _continuants(length, 1)[0]
    return _continuants(length - (1 if kind == "cycle" else 2), 2)[0]


def vertex_count(cfg) -> int:
    """The order of cfg's member from its fields: the hubs, every vertex
    of a pendant path, a cycle's vertices but its hub and an internal
    path's but its two hubs."""
    hubs = 1 if cfg.family == "G1" else 2
    pendants = sum(cfg.pendants_u) + sum(cfg.pendants_v)
    cycles = sum(length - 1 for length in cfg.cycles_u + cfg.cycles_v)
    return hubs + pendants + cycles + sum(order - 2 for order in cfg.paths)


def repeated_factors(cfg) -> tuple:
    """(θ, c - 1) for each chain kind that occurs c >= 2 times on one hub
    side or among the internal paths: the factors of det(λI - L) beyond
    its equitable quotient, θ the chain's continuant as an ascending
    coefficient tuple, u's pendants and cycles first, then v's, then the
    internal paths."""
    chains = [("pendant", cfg.pendants_u), ("cycle", cfg.cycles_u)]
    chains += [("pendant", cfg.pendants_v), ("cycle", cfg.cycles_v), ("path", cfg.paths)]
    return tuple(
        (continuant_theta(kind, length), c - 1)
        for kind, lengths in chains
        for length, c in _kinds(lengths)
        if c > 1
    )


def member_tables(cfg) -> tuple:
    """(coupling, side table, degree) of cfg's quotient at k = 0..n, the
    arguments of quotient_values and side_sign_change: the u side of a G1
    member, the v side of a G2 member."""
    size = vertex_count(cfg) + 1
    side_u = side_table(cfg.pendants_u, cfg.cycles_u, size)
    if cfg.family == "G1":
        return one_hub_coupling(size), side_u, cfg.hub_degree_u()
    links = links_table(cfg.paths, cfg.hub_edge, size)
    coupling = two_hub_coupling(links, side_u, cfg.hub_degree_u())
    return coupling, side_table(cfg.pendants_v, cfg.cycles_v, size), cfg.hub_degree_v()


def family_factors(cfg) -> tuple:
    """(repeated_factors(cfg), quotient), with det(λI - L) = quotient ·
    ∏ θ^exponent over the repeated factors: the quotient, of degree at
    most n, interpolated from its values at 0..n (quotient_values)."""
    values = quotient_values(*member_tables(cfg), vertex_count(cfg))
    return repeated_factors(cfg), interpolate(values)


def family_char_poly(cfg) -> list:
    """det(λI - L) of a G1/G2 member as the product of family_factors(cfg),
    no matrix built."""
    repeated, out = family_factors(cfg)
    for theta, exponent in repeated:
        for _ in range(exponent):
            out = poly_mul(out, theta)
    return out


# -- the classification sweep one member at a time ------------------------------


def has_quotient_sign_change(cfg) -> bool:
    """Whether family_factors' quotient takes nonzero values of opposite sign
    at some k and k + 1 in 1..n, its signs read one by one."""
    quotient, n = family_factors(cfg)[1], vertex_count(cfg)
    signs = [fraction_sign(quotient, k) for k in range(1, n + 1)]
    return any(a * b < 0 for a, b in zip(signs, signs[1:]))


def reference_sweep(n_min: int, n_max: int):
    """The sweep as a loop over enumerate_family, one FamilyConfig per
    member, the reference for verify_theorem's shard walk: a repeated chain
    factor θ with a non-integer root, else a sign change of the quotient
    (has_quotient_sign_change), else the quotient's integer-root test
    decides, and config_tag tags. Returns the TSV rows, one (family, n, key,
    integral, tag) per member in order, and the repeated and sign exits."""
    verdicts, tally = [], {}
    repeated = signs = 0
    for n in range(n_min, n_max + 1):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                if any(len(split_integer_roots(t)[1]) > 1 for t, _ in repeated_factors(cfg)):
                    repeated += 1
                    integral = False
                elif has_quotient_sign_change(cfg):
                    signs += 1
                    integral = False
                else:
                    integral = len(split_integer_roots(family_factors(cfg)[1])[1]) <= 1
                tag = config_tag(cfg)
                verdicts.append((family, n, tuple(cfg), integral, tag))
                row = tally.setdefault((n, family), [0, 0, 0])
                row[0] += 1
                row[1] += integral
                row[2] += integral != (tag != TAG_NONE)
    rows = tuple((n, family, *tally[n, family]) for n, family in sorted(tally))
    return rows, verdicts, repeated, signs


# -- the polynomial fold of a hub side -------------------------------------------


def _side(pendants, cycles):
    """(P, N, repeated) of the chains hanging from one hub: P = ∏ θ_i and
    N / P = Σ c_i M_i / θ_i over the distinct chain kinds i, c_i copies
    each, the hub's share of the quotient's Schur complement; repeated
    holds (θ_i, c_i - 1) for each kind with c_i >= 2.

    A pendant path on k vertices has M = t_{k-1}. A cycle through the hub
    has k = length - 1 further vertices with both ends on the hub, so M is
    the sum of both end entries and twice the corner: 2 t_{k-1} + 2 (-1)^(k+1).
    """
    kinds = [(_continuants(length, 1)[:2], c) for length, c in _kinds(pendants)]
    for length, c in _kinds(cycles):
        theta, minor, _ = _continuants(length - 1, 2)
        kinds.append(((theta, [2 * x for x in _add(minor, (1,), (-1) ** length)]), c))
    p, n = (1,), ()
    for (theta, m), c in kinds:
        p, n = poly_mul(p, theta), _add(poly_mul(n, theta), poly_mul(p, m), c)
    repeated = tuple((theta, c - 1) for (theta, _), c in kinds if c > 1)
    return tuple(p), tuple(n), repeated


# -- the polynomial fold of the internal paths ------------------------------------


def _fold_links(kinds, hub_edge):
    """(P, N, T) of the internal paths joining the two hubs as polynomials,
    folding each (order, count) pair of kinds once; a count is an int or an
    MPoly. The update is _fold_path_kind's (see its Cassini argument), run on
    the continuants' coefficient lists instead of their values."""
    p, n, u, d = (1,), (), (), ()
    for order, c in kinds:
        theta, m, e = _continuants(order - 2, 2)
        s = (-((-1) ** order),)
        p, n, u, d = (
            poly_mul(p, theta),
            _add(poly_mul(n, theta), poly_mul(p, m), c),
            _add(poly_mul(u, theta), poly_mul(p, s), c),
            _add(
                _add(poly_mul(d, theta), poly_mul(p, e), c * c),
                _add(poly_mul(n, m), poly_mul(u, s), -1),
                2 * c,
            ),
        )
    if hub_edge:
        d = _add(_add(d, u, 2), p, -1)
    return p, n, d


def fold_path_quotient(counts, hub_edge) -> MPoly:
    """path_quotient's P X² - 2 N X + T multiplied out from _fold_links,
    with counts that may be MPoly values, lifted to an MPoly in λ."""
    counts = tuple(counts)
    p, n, t = _fold_links(counts, hub_edge)
    x = (-(int(hub_edge) + sum(c for _, c in counts)), 1)
    return lift(_add(poly_mul(x, _add(poly_mul(p, x), n, -2)), t))


# -- the polynomial text scanner ----------------------------------------------


def scan_tokens(text):
    """The tokens of polynomial text, one character at a time: white space
    (str.isspace) is skipped, a run of str.isdigit characters is an int
    literal (int() raises ValueError on a digit that is no decimal digit,
    such as '²'), a name starts with a letter, '_' or a non-ASCII character
    and goes on over letters, digits, '_' and non-ASCII characters, and
    '+-*^()' are operators; any other character is a ValueError."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_" or ord(ch) > 127:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_" or ord(text[j]) > 127):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in polynomial text")
    return tokens


# -- integer partitions, by recursion -------------------------------------------


def recursive_partitions(total: int, min_part: int):
    """Nondecreasing tuples with the given sum, parts at least min_part, as
    the generator enumeration._partitions memoized: each call regenerates
    every sub-partition."""
    if total == 0:
        yield ()
        return

    def rec(rem, lo):
        if rem == 0:
            yield ()
            return
        for part in range(lo, rem + 1):
            for rest in rec(rem - part, part):
                yield (part,) + rest

    yield from rec(total, min_part)


# -- spectral checks ------------------------------------------------------------


# join-decomposition criterion for a(G) = k(G)


@dataclass(frozen=True)
class JoinDecompositionReport:
    """Outcome of the a(G) = k(G) test with its certificate.

    When equality holds the report exhibits a join split: a cut set S of
    size k whose vertices are adjacent to everything else, with G - S
    disconnected. Otherwise the Sturm certificate counts an eigenvalue
    strictly inside (0, k).
    """

    k: int
    a_equals_k: bool
    cut_vertices: tuple | None
    components: tuple | None
    a_value: SpectralValue
    roots_below_k: int


def kirkland_decomposition_check(g: Graph) -> JoinDecompositionReport:
    n = g.n
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if g.edge_count == n * (n - 1) // 2:
        raise ValueError("complete graphs are excluded")
    k = vertex_connectivity(g)
    p = char_poly(laplacian(g))
    in_0k = sturm_count(p, 0, k)
    at_k = fraction_sign(p, k) == 0
    a_equals_k = at_k and in_0k == 1
    strictly_inside = in_0k - (1 if at_k else 0)
    a_val = algebraic_connectivity_from_poly(split_integer_roots(p))
    if not a_equals_k:
        return JoinDecompositionReport(k, False, None, None, a_val, strictly_inside)
    for cut in combinations(range(n), k):
        cut_set = set(cut)
        if any(len(g.adj[v]) < n - k for v in cut):
            continue
        if not all(g.adj[v] >= (set(range(n)) - cut_set - {v}) for v in cut):
            continue
        comps = connected_components(g, cut_set)
        if len(comps) < 2:
            continue
        if 2 * k > n and not _small_side_bound_ok(g, cut, 2 * k - n):
            continue
        return JoinDecompositionReport(
            k, True, tuple(sorted(cut)), tuple(tuple(c) for c in comps), a_val, 0
        )
    # a(G)=k(G) certified spectrally but no join split found: the join
    # criterion promises one, so surface the contradiction loudly.
    raise AssertionError("a(G)=k(G) but no join decomposition exists")


def _small_side_bound_ok(g: Graph, cut, threshold: int) -> bool:
    """Check a(G[cut]) >= threshold for the k-vertex side, exactly."""
    sub = _induced(g, cut)
    if sub.n < 2:
        return threshold <= 0
    if not is_connected(sub):
        return threshold <= 0
    p = char_poly(laplacian(sub))
    inside = sturm_count(p, 0, threshold) - (1 if fraction_sign(p, threshold) == 0 else 0)
    return inside == 0


def _induced(g: Graph, vertices):
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph.from_edges(len(vs), edges)


# edge-removal interlacing


def remove_edges(g: Graph, edges) -> Graph:
    keep = {tuple(sorted(e)) for e in g.edges()}
    for e in edges:
        e = tuple(sorted(e))
        if e not in keep:
            raise ValueError(f"edge {e} not present")
        keep.discard(e)
    return Graph.from_edges(g.n, keep)


def edge_interlacing_check(g: Graph, edges_to_remove) -> bool:
    """Exact check that removing r edges interlaces the Laplacian spectra.

    Both statements (old above new, new above shifted old) are equivalent
    to threshold inequalities between multiplicity-weighted root counts,
    checked at one rational point per gap of the combined root set.
    """
    edges_to_remove = list(edges_to_remove)
    h = remove_edges(g, edges_to_remove)
    r = g.edge_count - h.edge_count
    if r == 0:
        return True
    return _interlaces(char_poly(laplacian(g)), char_poly(laplacian(h)), r)


def _interlaces(pg, ph, r: int) -> bool:
    thetas = fraction_gap_points(pg, ph)
    above = zip(fraction_counts_above(pg, thetas), fraction_counts_above(ph, thetas))
    return all(above_h <= above_g <= above_h + r for above_g, above_h in above)


# fixed six-vertex Q-integral reference graph


def gamma_101() -> Graph:
    """Two adjacent degree-3 hubs, each carrying a triangle through a K2."""
    return Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5)]
    )
