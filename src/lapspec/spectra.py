"""Laplacian spectra, exact integrality decisions, and spectral checks.

Every decision here is exact: integrality is decided by trial division of
the characteristic polynomial, order comparisons against rational
thresholds go through Sturm counts, and interlacing statements are checked
as root-counting inequalities. The algebraic connectivity is read off a
Laplacian polynomial (algebraic_connectivity_from_poly, so a caller that
has the polynomial builds it once) by isolating only its lowest
non-integer root. Floating point appears only in display strings derived
from isolating intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graphs import Graph, connected_components, is_connected, remove_edges, to_graph6, vertex_connectivity
from .matrices import IntMatrix, char_poly
from .polys import (
    DEFAULT_PRECISION,
    RootCounter,
    RootReport,
    gap_points,
    integer_roots,
    isolate_lowest_root,
    only_integer_roots,
    poly_text,
    sign_at,
    split_integer_roots,
    sturm_count,
)


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix."""
    return IntMatrix(
        [
            [
                g.degree(i) if i == j else (-1 if g.has_edge(i, j) else 0)
                for j in range(g.n)
            ]
            for i in range(g.n)
        ]
    )


def signless_laplacian(g: Graph) -> IntMatrix:
    """Degree matrix plus adjacency matrix."""
    return IntMatrix(
        [
            [
                g.degree(i) if i == j else (1 if g.has_edge(i, j) else 0)
                for j in range(g.n)
            ]
            for i in range(g.n)
        ]
    )


_KIND_MATRIX = {"L": laplacian, "Q": signless_laplacian}


@dataclass(frozen=True)
class SpectrumReport:
    """Exact spectrum of L(G) or Q(G): integer part plus isolated residue."""

    graph6: str
    kind: str
    n: int
    root_report: RootReport
    precision: Fraction

    @property
    def integer_spectrum(self):
        return self.root_report.integer_roots

    @property
    def intervals(self):
        return self.root_report.isolating_intervals

    @property
    def is_integral(self) -> bool:
        return len(self.root_report.residual) <= 1

    def display(self) -> str:
        """Human-readable multiset, largest eigenvalue first."""
        items = [(Fraction(r), f"{r}", m) for r, m in self.integer_spectrum]
        for lo, hi in self.intervals:
            mid = (lo + hi) / 2
            items.append((mid, f"{float(mid):.2f}", 1))
        items.sort(key=lambda t: -t[0])
        return "{" + ", ".join(f"{text}^[{m}]" for _, text, m in items) + "}"

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "kind": self.kind,
            "n": self.n,
            "integer_roots": [[r, m] for r, m in self.integer_spectrum],
            "residual": poly_text(self.root_report.residual),
            "intervals": [[str(lo), str(hi)] for lo, hi in self.intervals],
            "integral": self.is_integral,
            "display": self.display(),
        }


def spectrum(g: Graph, kind: str = "L", precision: Fraction = DEFAULT_PRECISION) -> SpectrumReport:
    if kind not in _KIND_MATRIX:
        raise ValueError("kind must be 'L' or 'Q'")
    p = char_poly(_KIND_MATRIX[kind](g))
    report = integer_roots(p, precision)
    return SpectrumReport(
        graph6=to_graph6(g), kind=kind, n=g.n, root_report=report, precision=precision
    )


def is_L_integral(g: Graph) -> bool:
    return only_integer_roots(char_poly(laplacian(g)))


def is_Q_integral(g: Graph) -> bool:
    return only_integer_roots(char_poly(signless_laplacian(g)))


# -- algebraic connectivity ---------------------------------------------------


@dataclass(frozen=True)
class SpectralValue:
    """Exact eigenvalue descriptor: an integer, or an isolating interval."""

    is_integer: bool
    value: int | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None

    def to_json(self):
        if self.is_integer:
            return {"integer": self.value}
        return {"interval": [str(self.lo), str(self.hi)]}

    def __repr__(self):
        if self.is_integer:
            return f"SpectralValue({self.value})"
        return f"SpectralValue(({float(self.lo):.6f}, {float(self.hi):.6f}))"


def algebraic_connectivity(g: Graph, precision: Fraction = DEFAULT_PRECISION) -> SpectralValue:
    """Second-smallest Laplacian eigenvalue, exact when integer."""
    if g.n < 2:
        raise ValueError("need at least two vertices")
    return algebraic_connectivity_from_poly(char_poly(laplacian(g)), precision)


def algebraic_connectivity_from_poly(coeffs, precision: Fraction = DEFAULT_PRECISION) -> SpectralValue:
    """The second-smallest root of a graph's Laplacian polynomial coeffs
    (ascending, as char_poly gives it, n >= 2), exact when integer.

    Only the lowest residual root is isolated (isolate_lowest_root), and
    each halving of the precision isolates that one root again.
    """
    # The constant term is always zero (L is singular); a zero linear term
    # makes 0 a double root, so the graph is disconnected.
    if not coeffs[1]:
        return SpectralValue(is_integer=True, value=0)
    roots, residual = split_integer_roots(coeffs[1:])
    int_min = min(roots) if roots else None
    if len(residual) <= 1:
        return SpectralValue(is_integer=True, value=int_min)
    prec = precision
    lo, hi = isolate_lowest_root(residual, prec)
    if int_min is not None:
        # The residual has no integer roots, so a finer precision separates them.
        while lo < int_min < hi:
            prec = prec / 2
            lo, hi = isolate_lowest_root(residual, prec)
        if int_min <= lo:
            return SpectralValue(is_integer=True, value=int_min)
    while lo < 0:
        # Connected graph: the root is strictly positive, so tighten.
        prec = prec / 2
        lo, hi = isolate_lowest_root(residual, prec)
    return SpectralValue(is_integer=False, lo=lo, hi=hi)


# -- join-decomposition criterion for a(G) = k(G) ----------------------------


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
    at_k = sign_at(p, k) == 0
    a_equals_k = at_k and in_0k == 1
    strictly_inside = in_0k - (1 if at_k else 0)
    a_val = algebraic_connectivity_from_poly(p)
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
    inside = sturm_count(p, 0, threshold) - (1 if sign_at(p, threshold) == 0 else 0)
    return inside == 0


def _induced(g: Graph, vertices):
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph.from_edges(len(vs), edges)


# -- edge-removal interlacing -------------------------------------------------


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
    cg = RootCounter(pg)
    ch = RootCounter(ph)
    for theta in gap_points(pg, ph):
        above_g = cg.count_above(theta)
        above_h = ch.count_above(theta)
        if not (above_h <= above_g <= above_h + r):
            return False
    return True


# -- fixed six-vertex Q-integral reference graph ------------------------------


def gamma_101() -> Graph:
    """Two adjacent degree-3 hubs, each carrying a triangle through a K2."""
    return Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (1, 5), (4, 5)]
    )
