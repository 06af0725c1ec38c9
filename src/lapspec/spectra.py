"""Laplacian spectra and exact integrality decisions.

Every decision here is exact: integrality is decided by dividing the
characteristic polynomial by λ - r for each divisor r of its constant
term, or its negative, inside Samuelson's interval, which holds every
root of a real-rooted polynomial (polys.split_integer_roots). The
algebraic connectivity is read off the integer-root split of a Laplacian
polynomial (algebraic_connectivity_from_poly, so a caller that has the
split, as classify has it for L_integral, searches for integer roots
once) by isolating only its lowest non-integer root, on a residual known
to have no integer root. Floating point appears only in display strings
derived from isolating intervals.

Every single-graph request takes the matrix L(G) or Q(G) from
kind_matrix, and its polynomial from kind_poly, which hands that matrix
to matrices.char_poly and its per-process cache: IntMatrix hashes and
compares on its entries, so two Graph objects with one edge set share an
entry, and a repeated request on one graph reuses its L and Q
polynomials. The integer-root split of a polynomial is cached beside it,
keyed on the coefficients
(polys.split_integer_roots), so spectrum, is_L_integral, is_Q_integral
and classify on one graph search each of its polynomials for integer
roots once per process.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graphs import Graph, to_graph6
from .matrices import IntMatrix, char_poly
from .polys import (
    DEFAULT_PRECISION,
    integer_roots,
    isolate_lowest_root,
    only_integer_roots,
    poly_text,
)


def _degree_rows(g: Graph, off: int):
    """Rows of the degree matrix plus off times the adjacency matrix,
    filled from the adjacency sets."""
    rows = []
    for i, nbrs in enumerate(g.adj):
        row = [0] * g.n
        for j in nbrs:
            row[j] = off
        row[i] = len(nbrs)
        rows.append(row)
    return rows


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix."""
    return IntMatrix(_degree_rows(g, -1))


def signless_laplacian(g: Graph) -> IntMatrix:
    """Degree matrix plus adjacency matrix."""
    return IntMatrix(_degree_rows(g, 1))


def kind_matrix(g: Graph, kind: str) -> IntMatrix:
    """L(G) for kind "L", Q(G) for kind "Q"."""
    if kind == "L":
        return laplacian(g)
    if kind == "Q":
        return signless_laplacian(g)
    raise ValueError("kind must be 'L' or 'Q'")


def kind_poly(g: Graph, kind: str = "L") -> list:
    """Ascending coefficients of det(λI - L(G)) (kind "L") or of
    det(λI - Q(G)) (kind "Q"), from char_poly's cache."""
    return char_poly(kind_matrix(g, kind))


class SpectrumReport(namedtuple("SpectrumReport", "graph6 kind n root_report")):
    """Exact spectrum of L(G) or Q(G): integer part plus isolated residue,
    root_report a RootReport."""

    __slots__ = ()

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
        """Human-readable multiset, largest eigenvalue first: the integer
        roots merged with the intervals' midpoints in the orders RootReport
        gives them; an integer root goes first when a midpoint equals it.
        A midpoint is kept as the integer fraction num / den and compared
        with integers exactly."""
        ints = self.integer_spectrum
        pieces = []
        i = 0
        for lo, hi in reversed(self.intervals):
            num = lo.numerator * hi.denominator + hi.numerator * lo.denominator
            den = 2 * lo.denominator * hi.denominator
            while i < len(ints) and ints[i][0] * den >= num:
                pieces.append(f"{ints[i][0]}^[{ints[i][1]}]")
                i += 1
            pieces.append(f"{num / den:.2f}^[1]")
        pieces.extend(f"{r}^[{m}]" for r, m in ints[i:])
        return "{" + ", ".join(pieces) + "}"

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
    report = integer_roots(kind_poly(g, kind), precision)
    return SpectrumReport(graph6=to_graph6(g), kind=kind, n=g.n, root_report=report)


def is_L_integral(g: Graph) -> bool:
    return only_integer_roots(kind_poly(g, "L"))


def is_Q_integral(g: Graph) -> bool:
    return only_integer_roots(kind_poly(g, "Q"))


# -- algebraic connectivity ---------------------------------------------------


class SpectralValue(namedtuple("SpectralValue", "is_integer value lo hi", defaults=(None, None, None))):
    """Exact eigenvalue descriptor: an integer value, or an isolating
    interval (lo, hi] of Fractions."""

    __slots__ = ()

    def to_json(self):
        if self.is_integer:
            return {"integer": self.value}
        return {"interval": [str(self.lo), str(self.hi)]}

    def __repr__(self):
        if self.is_integer:
            return f"SpectralValue({self.value})"
        return f"SpectralValue(({float(self.lo):.6f}, {float(self.hi):.6f}))"


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
    # Halve the precision until a finer cell separates the root from int_min.
    # The root is positive and 0 a grid point at every level >= 1, so no cell
    # reaches below 0; only a degree-1 residual (an integer root) gets (-B, B].
    while int_min is not None and lo < int_min < hi:
        prec = prec / 2
        lo, hi = isolate_lowest_root(residual, prec)
    if int_min is not None and int_min <= lo:
        return SpectralValue(is_integer=True, value=int_min)
    return SpectralValue(is_integer=False, lo=lo, hi=hi)
