"""Dense int matrices and the value tables of the two families' quotients.

The characteristic polynomial of a dense int matrix is computed by the
Berkowitz scheme, which is division-free; its cross-oracle, a Gaussian
determinant on Fractions, is det_gauss in tests/oracle_helpers.py. A
one- or two-hub family member needs no matrix: det(λI - L) is an
equitable quotient polynomial times a factor θ^(c-1) for each chain kind
repeated c >= 2 times, and the sweep decides from both without
multiplying either out. side_table and
links_table hold each hub side's and link set's fold at k = 0, 1, ...,
in ints from the continuants' values, each folded once from the cached
table of its prefix, and whether every repeated θ of their chains has
only integer roots, which a closed-form rule on the chain kinds answers
(_repeats_integral); one cached links_table per link set holds P, N, U, T
and that flag, its hub edge applied to the no-edge entry of the cache. The sweep scans the quotient at consecutive
integers off the tables (side_sign_change), where a sign change
certifies a non-integer eigenvalue with no polynomial built and a member
costs a few products per k; quotient_values gives Q(0..n), on which the
root test deflates (polys.deflate_values) and which fix the quotient's
coefficients (polys.interpolate). The catalog reads its polynomials off
the same tables (families._grid_quotient), their test oracle being
Berkowitz over Z[s,t] in tests/oracle_helpers.py; matrices imports
nothing from the rest of the package.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import mul

# The polynomial of L and Q for each graph a client keeps asking about, and
# the quotients refine and quotient build: one pass of the benchmark's query
# pool builds 144 distinct L and Q matrices and 51 quotients of a
# non-discrete `refine --partition "0 | *"`, 195 in all, so 256 evict none.
# Bounded, because a --file of large graphs would keep every n x n key alive.
_POLY_CACHE_SIZE = 256


class IntMatrix:
    """Immutable dense matrix of ints; any other entry is a TypeError."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if entries and any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("ragged rows")
        if not {int}.issuperset(map(type, chain.from_iterable(entries))):
            raise TypeError("IntMatrix entries must be ints")
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.entries = entries

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def char_poly(m: IntMatrix) -> list:
    """Ascending integer coefficients of det(λI - M), division-free, as a
    fresh list, cached per process for the last _POLY_CACHE_SIZE matrices:
    an IntMatrix holds ints only, so equal keys have equal polynomials.

    Berkowitz iteration over leading principal submatrices: each step
    multiplies the coefficient vector by a Toeplitz matrix built from the
    new row/column, using only ring operations. The list has n + 1 entries
    and ends in the leading 1.

    Step r needs row · A^j · v for j = 0..r-2, A the leading block, row
    and v the new row and column. When M equals its transpose (checked on
    the entries; every Laplacian does), row = v and A is symmetric, so
    v · A^(2i) v = |A^i v|² and v · A^(2i+1) v = (A^i v) · (A^(i+1) v):
    half the matrix-vector products give them all.
    """
    return list(_berkowitz(m))


@lru_cache(maxsize=_POLY_CACHE_SIZE)
def _berkowitz(m: IntMatrix) -> tuple:
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    if n == 0:
        return (1,)
    a = m.entries
    symmetric = a == tuple(zip(*a))
    coeffs = [1, -a[0][0]]  # descending powers
    for r in range(2, n + 1):
        # full rows: each sum(map(mul, x, v)) stops at len(v) = r - 1, so
        # it reads only the leading block's part of a row
        block = a[: r - 1]
        q = [1, -a[r - 1][r - 1]]
        if symmetric:
            v = a[r - 1][: r - 1]  # the column, read as the row
            # v is A^(j // 2) times the column: even j take v · v, odd j v · Av
            for j in range(r - 1):
                if j % 2:
                    w = [sum(map(mul, x, v)) for x in block]
                    q.append(-sum(map(mul, v, w)))
                    v = w
                else:
                    q.append(-sum(map(mul, v, v)))
        else:
            v = [a[i][r - 1] for i in range(r - 1)]
            row = a[r - 1]
            for k in range(2, r + 1):
                q.append(-sum(map(mul, row, v)))
                if k < r:
                    v = [sum(map(mul, x, v)) for x in block]
        q.reverse()  # term i of q · coeffs pairs q[i], ..., q[0] with coeffs
        coeffs = [sum(map(mul, q[r - i :], coeffs)) for i in range(r + 1)]
    return tuple(reversed(coeffs))


char_poly.cache_info = _berkowitz.cache_info
char_poly.cache_clear = _berkowitz.cache_clear


# -- the quotient of a one- or two-hub member, as values ----------------------
#
# λI - L of a G1/G2 member is a 1x1 or 2x2 hub block bordered by one
# tridiagonal block per chain, and chains meet only at hubs. Eliminating the
# chains (the Laplacian analogue of Schwenk's cut-vertex formulas) gives
# det(λI - L) = ∏ θ_chain · det(S), S the Schur complement on the hubs. The
# entries of S need only the end entries of each (λI - T_chain)^-1, which are
# continuants over θ_chain, so everything below is integer arithmetic on the
# continuants' values at the integers.
#
# c equal chains on one hub (or c equal internal paths) enter S as c times
# one chain's share, so each distinct chain kind is folded once, weighted by
# its count. What comes out is the characteristic polynomial of the quotient
# by the equitable partition that merges the c copies position by position
# (Haemers, Linear Algebra Appl. 226-228, 1995); the full polynomial is that
# quotient times θ^(c-1) for every kind with c >= 2.
#
# A table holds a side's P, N or a link set's P, N, U, T at k = 0..size-1,
# folded in plain ints at each k from the continuants' values t_j(k). One
# hub side or one set of internal paths recurs in many members, so the
# tables are cached. A and B below depend only on the internal paths and the
# u side, so a walk that fixes both computes them once and pays
# Q(k) = Y(k) A(k) - P_v(k) B(k) per v side: the sign scan reads Q(1..n),
# and the root test deflates Q on Q(0..n). A table also records whether every
# repeated θ of its chains has only integer roots, the other early decision.


def _repeats_integral(pendant_kinds=(), cycle_kinds=(), path_kinds=()) -> bool:
    """Whether θ has only integer roots for every kind (length, c) with
    c >= 2 among these (length, count) pairs: true exactly when each
    repeated kind is a pendant edge, a triangle or an internal path of
    order 3 or 4.

    θ = det(λI - T) for the chain's tridiagonal block T, the Laplacian rows
    of its non-hub vertices: 2 on the diagonal and -1 beside it, except a
    1 at a pendant path's leaf. For j vertices between hubs (a cycle of
    length j + 1, an internal path of order j + 2) θ's roots are
    2 - 2cos(mπ/(j + 1)), m = 1..j; for a pendant path on L vertices they
    are 2 - 2cos((2m - 1)π/(2L + 1)), m = 1..L. The least root,
    2 - 2cos(π/(j + 1)) or 2 - 2cos(π/(2L + 1)), lies in (0, 1) once its
    angle is below π/3, that is unless j <= 2 or L = 1; there every root is
    an integer: {2} for j = 1, {1, 3} for j = 2 and {1} for L = 1.
    """
    return (
        all(length == 1 for length, c in pendant_kinds if c > 1)
        and all(length == 3 for length, c in cycle_kinds if c > 1)
        and all(order <= 4 for order, c in path_kinds if c > 1)
    )


@lru_cache(maxsize=None)
def _continuant_values(last, size):
    """The values of the continuants t_j at λ = k for j = -1..max(1, size -
    1), as rows over k in range(size): row j + 1 holds t_j(0), ...,
    t_j(size - 1), for every chain of a member on fewer than size vertices.

    t_j = det(λI - T_j) for T_j the trailing j x j block of the tridiagonal
    T with -1 off the diagonal and diagonal 2, ..., 2, last, so t_{-1} = 0,
    t_0 = 1, t_1 = k - last and t_j = (k - 2) t_{j-1} - t_{j-2}. The corner
    entry of (λI - T_j)^-1 is (-1)^(j+1) / t_j.
    """
    ks = range(size)
    rows = [(0,) * size, (1,) * size, tuple(k - last for k in ks)]
    while len(rows) <= size:
        rows.append(tuple((k - 2) * a - b for k, a, b in zip(ks, rows[-1], rows[-2])))
    return tuple(rows)


@lru_cache(maxsize=None)
def side_table(pendants, cycles, size):
    """(P(k), N(k)) for k in range(size) of the chains hanging from one hub,
    and whether every repeated θ of the side has only integer roots
    (_repeats_integral).

    P = ∏ θ_i and N / P = Σ c_i M_i / θ_i over the distinct chain kinds i,
    c_i copies each, is the hub's share of the quotient's Schur complement,
    folded in ints at each k: a pendant path on L vertices has θ = t_L and
    M = t_{L-1} (last = 1); a cycle of length L has L - 1 further vertices
    with both ends on the hub, so θ = t_{L-1} and M, both end entries plus
    twice the corner, is 2 t_{L-2} + 2 (-1)^L (last = 2); each kind of
    count c maps (P, N) to (P θ, N θ + c P M).

    The table is the cached table of its prefix, the side without its last
    kind (the longest cycles, or with no cycle the longest pendant paths),
    folded once with that kind: a side costs one fold, not one per kind,
    since its prefix is a side of a smaller budget the walk meets too. The
    flag is the prefix's and _repeats_integral of the last kind."""
    if not (pendants or cycles):
        return (1,) * size, (0,) * size, True
    lengths = cycles or pendants
    length = lengths[-1]
    start = lengths.index(length)
    c = len(lengths) - start
    if cycles:
        p, n, ok = side_table(pendants, cycles[:start], size)
        t = _continuant_values(2, size)
        sign = (-1) ** length
        theta, m = t[length], [2 * (x + sign) for x in t[length - 1]]
        ok = ok and _repeats_integral(cycle_kinds=[(length, c)])
    else:
        p, n, ok = side_table(pendants[:start], (), size)
        t = _continuant_values(1, size)
        theta, m = t[length + 1], t[length]
        ok = ok and _repeats_integral(pendant_kinds=[(length, c)])
    return (
        tuple([p_k * th for p_k, th in zip(p, theta)]),
        tuple([n_k * th + c * p_k * m_k for n_k, th, p_k, m_k in zip(n, theta, p, m)]),
        ok,
    )


def _fold_path_kind(fold, t, order, c):
    """(P, N, U, D) of internal paths folded with c further paths of order
    i, in ints at each k, t the _continuant_values rows (last = 2), which
    reach t_{i-2}.

    P = ∏ θ_i; N / P = Σ c_i t_{i-3} / θ_i is each hub's share of the
    Schur complement (the same at u and at v, a path being symmetric), and
    U / P = Σ c_i (-1)^(i+1) / θ_i is the paths' part of the off-diagonal
    entry. D = (N² - U²) / P is a polynomial: folding in one kind keeps it
    exact as θ D + 2c (N m - U s) + c² P e, because m² - s² = θ e
    (Cassini's identity for continuants), with a path of order i having
    θ = t_{i-2}, m = t_{i-3}, e = t_{i-4} and s = (-1)^(i+1). The table's
    T = D + hub_edge · (2U - P) follows with the hub edge (links_table).
    """
    p, n, u, d = fold
    theta, m, e = t[order - 1], t[order - 2], t[order - 3]
    s = -((-1) ** order)
    return (
        [p_k * th for p_k, th in zip(p, theta)],
        [n_k * th + c * p_k * m_k for n_k, th, p_k, m_k in zip(n, theta, p, m)],
        [u_k * th + c * s * p_k for u_k, th, p_k in zip(u, theta, p)],
        [
            d_k * th + c * c * p_k * e_k + 2 * c * (n_k * m_k - u_k * s)
            for d_k, th, p_k, e_k, n_k, m_k, u_k in zip(d, theta, p, e, n, m, u)
        ],
    )


@lru_cache(maxsize=None)
def links_table(paths, hub_edge, size):
    """(P(k), N(k), U(k), T(k)) for k in range(size) of the internal paths
    (an ascending tuple of orders) and the hub edge (see _fold_path_kind),
    and whether every repeated θ of the paths has only integer roots
    (_repeats_integral). With no hub edge T = D, and as side_table does, it
    folds the cached table of its prefix, the paths without their longest
    kind, once with that kind; the prefix is a link set of a smaller budget
    the walk meets too. The hub edge gives T = D + 2U - P on the cached
    no-edge table of the same paths."""
    if hub_edge:
        p, n, u, d, ok = links_table(paths, False, size)
        return p, n, u, tuple([d_k + 2 * u_k - p_k for d_k, u_k, p_k in zip(d, u, p)]), ok
    if not paths:
        zero = (0,) * size
        return (1,) * size, zero, zero, zero, True
    order = paths[-1]
    start = paths.index(order)
    c = len(paths) - start
    *fold, ok = links_table(paths[:start], False, size)
    fold = _fold_path_kind(fold, _continuant_values(2, size), order, c)
    return (*map(tuple, fold), ok and _repeats_integral(path_kinds=[(order, c)]))


def two_hub_coupling(links, side_u, degree_u) -> tuple:
    """(A(k), B(k)) for k in the range of the tables, A = P X_u - N P_u and
    B = N X_u - P_u T, from a links_table and the side_table of the u hub
    of degree degree_u, X_u(k) = (k - degree_u) P_u(k) - N_u(k): the part
    of a G2 member's quotient Y A - P_v B its v side does not change."""
    p, n, _, t, _ = links
    pu, nu, _ = side_u
    a, b = [], []
    for k, p_k, n_k, t_k, pu_k, nu_k in zip(range(len(p)), p, n, t, pu, nu):
        x = (k - degree_u) * pu_k - nu_k
        a.append(p_k * x - n_k * pu_k)
        b.append(n_k * x - pu_k * t_k)
    return a, b


def quotient_values(coupling, side, degree, n) -> list:
    """[Q(0), ..., Q(n)], Q(k) = Y(k) A(k) - P(k) B(k) with (A, B) a
    coupling, (P, N) the side's table and Y(k) = (k - degree) P(k) - N(k).

    Q, of degree at most n, is the monic characteristic polynomial of the
    quotient of L by the equitable partition with the hubs as singletons
    and one cell per chain kind and position along the chain. A G1
    member's is X = (λ - d_u) P_u - N_u, its coupling (A, B) = (1, 0) at
    every k. A G2 member's is P X Y - N (X P_v + Y P_u) + P_u P_v T =
    Y A - P_v B, with its coupling from two_hub_coupling, which is
    (A'B' - P_u P_v C'^2) / P with A' = X P - P_u N, B' = Y P - P_v N and
    C' = hub_edge · P - U multiplied out (see _fold_path_kind for U)."""
    a, b = coupling
    p, nn, _ = side
    return [((k - degree) * p[k] - nn[k]) * a[k] - p[k] * b[k] for k in range(n + 1)]


def side_sign_change(coupling, side, degree, n):
    """The first k in 1..n-1 at which Q(k) and Q(k + 1) of quotient_values
    are nonzero of opposite sign, or None; stops at the first such k. The
    arguments are quotient_values', so a G1 member's coupling is (1, 0).

    Q's roots are Laplacian eigenvalues (Q is the characteristic polynomial
    of an equitable quotient), so such a k certifies one in the open
    interval (k, k + 1), a non-integer one. A zero Q(k) is an integer root,
    and no comparison spans it.
    """
    a, b = coupling
    p, nn, _ = side
    last = 0
    for k in range(1, n + 1):
        p_k = p[k]
        q = ((k - degree) * p_k - nn[k]) * a[k] - p_k * b[k]
        if q and last and (q < 0) != (last < 0):
            return k - 1
        last = q
    return None
