"""Laplacian spectra and exact integrality decisions.

Every decision here is exact: integrality is decided by trial division of
the characteristic polynomial. The algebraic connectivity is read off the
integer-root split of a Laplacian polynomial
(algebraic_connectivity_from_poly, so a caller that has the split, as
classify has it for L_integral, searches for integer roots once) by
isolating only its lowest non-integer root. Floating point appears only in
display strings derived from isolating intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, to_graph6
from .matrices import IntMatrix, char_poly
from .polys import (
    DEFAULT_PRECISION,
    RootReport,
    integer_roots,
    isolate_lowest_root,
    only_integer_roots,
    poly_text,
    split_integer_roots,
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
    return algebraic_connectivity_from_poly(split_integer_roots(char_poly(laplacian(g))), precision)


def algebraic_connectivity_from_poly(split, precision: Fraction = DEFAULT_PRECISION) -> SpectralValue:
    """The second-smallest root of a graph's Laplacian polynomial (n >= 2),
    exact when integer, from the polynomial's split_integer_roots: split is
    its integer roots with multiplicities and its integer-root-free rest.

    Only the lowest residual root is isolated (isolate_lowest_root), and
    each halving of the precision isolates that one root again.
    """
    roots, residual = split
    # 0 is always a root (L is singular); a double 0 means a disconnected graph.
    if roots.get(0, 0) >= 2:
        return SpectralValue(is_integer=True, value=0)
    int_min = min((r for r in roots if r), default=None)
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
