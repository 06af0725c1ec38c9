"""Equitable partitions, quotient matrices, and coarsest refinement.

A partition of the index set is equitable for a matrix M when the row sum
from any vertex of cell i into cell j depends only on (i, j); the quotient
matrix collects those constants, and quotient_matrix raises ValueError,
naming an offending cell pair, on a partition that is not equitable. Every
quotient eigenvalue is then an eigenvalue of M; the CLI and the catalog
certify it by exact divisibility of the characteristic polynomials
(polys.divides), which handles irrational eigenvalues uniformly.
"""

from __future__ import annotations

from .matrices import IntMatrix


def validate_partition(cells, n: int):
    cells = tuple(tuple(sorted(c)) for c in cells)
    seen = set()
    for cell in cells:
        if not cell:
            raise ValueError("empty cell")
        for v in cell:
            if not (0 <= v < n):
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears twice")
            seen.add(v)
    if len(seen) != n:
        raise ValueError("cells do not cover every vertex")
    return cells


def format_partition(cells) -> str:
    return " | ".join(" ".join(str(v) for v in cell) for cell in cells)


def parse_partition(text: str, n: int):
    """Parse 'a b | c | *' where '*' stands for all unmentioned vertices."""
    raw = [part.strip() for part in text.split("|")]
    cells = []
    star = None
    used = set()
    for part in raw:
        if part == "*":
            if star is not None:
                raise ValueError("only one '*' cell is allowed")
            star = len(cells)
            cells.append(None)
            continue
        cell = tuple(sorted(int(tok) for tok in part.split()))
        used.update(cell)
        cells.append(cell)
    if star is not None:
        rest = tuple(v for v in range(n) if v not in used)
        cells[star] = rest
        if not rest:
            raise ValueError("the '*' cell is empty")
    return validate_partition(cells, n)


def _cell_sums(m: IntMatrix, cells):
    """Row sums into each cell, per vertex."""
    sums = {}
    for v in range(m.rows):
        row = m.entries[v]
        sums[v] = tuple(sum(row[t] for t in cell) for cell in cells)
    return sums


def _witness(cells, sums):
    """None for an equitable partition, else the offending cell pair."""
    for i, cell in enumerate(cells):
        first = sums[cell[0]]
        for v in cell[1:]:
            if sums[v] != first:
                j = next(k for k in range(len(cells)) if sums[v][k] != first[k])
                return {
                    "cell_pair": (i, j),
                    "vertices": (cell[0], v),
                    "sums": (first[j], sums[v][j]),
                }
    return None


def quotient_matrix(m: IntMatrix, cells) -> IntMatrix:
    cells = validate_partition(cells, m.rows)
    sums = _cell_sums(m, cells)
    witness = _witness(cells, sums)
    if witness is not None:
        raise ValueError(f"partition is not equitable: {witness}")
    return IntMatrix([list(sums[cell[0]]) for cell in cells])


def coarsest_equitable_refinement(m: IntMatrix, cells):
    """Iteratively split cells by row-sum signatures until stable.

    Deterministic: subcells replace their parent ordered by signature, and
    the stable partition is finally ordered by smallest member.
    """
    cells = list(validate_partition(cells, m.rows))
    while True:
        sums = _cell_sums(m, cells)
        new_cells = []
        changed = False
        for cell in cells:
            groups = {}
            for v in cell:
                groups.setdefault(sums[v], []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(sorted(groups[sig])))
        cells = new_cells
        if not changed:
            break
    cells.sort(key=lambda c: c[0])
    return tuple(cells)
