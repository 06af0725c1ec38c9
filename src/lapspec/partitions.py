"""Equitable partitions, quotient matrices, and coarsest refinement.

A partition of the index set is equitable for a matrix M when the row sum
from any vertex of cell i into cell j depends only on (i, j); the quotient
matrix collects those constants, and quotient_matrix raises ValueError,
naming an offending cell pair, on a partition that is not equitable. It
and coarsest_equitable_refinement take a square matrix only (any other is
a ValueError) and sum over each row's nonzero entries alone. Every
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


def _nonzero_rows(m: IntMatrix):
    """Each row's nonzero (column, entry) pairs, the only entries a cell sum
    reads; ValueError unless m is square."""
    if not m.is_square():
        raise ValueError("equitable partitions need a square matrix")
    return [[(t, x) for t, x in enumerate(row) if x] for row in m.entries]


def _cell_sums(rows, cells, vertices):
    """Row sums into each cell for each of the given vertices, rows as
    _nonzero_rows gives them."""
    cell_of = [0] * len(rows)
    for i, cell in enumerate(cells):
        for t in cell:
            cell_of[t] = i
    sums = {}
    for v in vertices:
        row_sums = [0] * len(cells)
        for t, x in rows[v]:
            row_sums[cell_of[t]] += x
        sums[v] = tuple(row_sums)
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
    rows = _nonzero_rows(m)
    cells = validate_partition(cells, m.rows)
    sums = _cell_sums(rows, cells, range(m.rows))
    witness = _witness(cells, sums)
    if witness is not None:
        raise ValueError(f"partition is not equitable: {witness}")
    return IntMatrix([list(sums[cell[0]]) for cell in cells])


def coarsest_equitable_refinement(m: IntMatrix, cells):
    """The coarsest equitable refinement of the partition cells of a square
    m, its cells ordered by smallest member.

    Each round splits every cell of two or more vertices by its members'
    row sums into the round's cells, read off each row's nonzero entries;
    a singleton cannot split, so its row is not summed. Every equitable
    refinement of the seed refines each round's partition, so the rounds
    stop, when one splits nothing, at the coarsest one, which is unique as
    a set partition: the order the subcells are split in cannot change the
    result, which is sorted by smallest member.
    """
    rows = _nonzero_rows(m)
    cells = list(validate_partition(cells, m.rows))
    while True:
        sums = _cell_sums(rows, cells, [v for cell in cells if len(cell) > 1 for v in cell])
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault(sums[v], []).append(v)
            new_cells.extend(map(tuple, groups.values()))
        if len(new_cells) == len(cells):
            break
        cells = new_cells
    cells.sort(key=lambda c: c[0])
    return tuple(cells)
