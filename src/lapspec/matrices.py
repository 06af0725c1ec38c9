"""Dense matrices over a commutative ring (integers or polynomials).

The characteristic polynomial is computed by the Berkowitz scheme, which
is division-free and therefore valid verbatim over polynomial rings such
as Z[s,t]; an independent exact-fraction Gaussian determinant is provided
as a cross-oracle. Block assembly mirrors the two-hub family layout: a
2x2 hub block followed by one tridiagonal block per attached chain.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import FamilyConfig


class IntMatrix:
    """Immutable dense matrix; entries are ints or MPoly values."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if entries and any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("ragged rows")
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.entries = entries

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def trace(self):
        return sum(self.entries[i][i] for i in range(self.rows))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.entries))
            return IntMatrix(
                [[_dot(row, col) for col in cols] for row in self.entries]
            )
        return IntMatrix([[a * other for a in row] for row in self.entries])

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def _dot(xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def principal_submatrix(m: IntMatrix, removed) -> IntMatrix:
    removed = list(removed)
    if len(set(removed)) != len(removed):
        raise ValueError("indices must be distinct")
    if any(i < 0 or i >= m.rows for i in removed):
        raise ValueError("index out of range")
    keep = [i for i in range(m.rows) if i not in set(removed)]
    return IntMatrix([[m.entries[i][j] for j in keep] for i in keep])


def block_diag(blocks) -> IntMatrix:
    blocks = list(blocks)
    n = sum(b.rows for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        if not b.is_square():
            raise ValueError("blocks must be square")
        for i in range(b.rows):
            for j in range(b.cols):
                out[offset + i][offset + j] = b.entries[i][j]
        offset += b.rows
    return IntMatrix(out)


def path_interior_block(k: int) -> IntMatrix:
    """Tridiagonal block of a path's interior: 2 on, -1 off the diagonal."""
    if k < 1:
        raise ValueError("block size must be positive")
    return IntMatrix(
        [
            [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(k)]
            for i in range(k)
        ]
    )


def char_poly(m: IntMatrix) -> list:
    """Ascending coefficients of det(λI - M), division-free.

    Berkowitz iteration over leading principal submatrices: each step
    multiplies the coefficient vector by a Toeplitz matrix built from the
    new row/column, using only ring operations, so the coefficients lie in
    the ring of the entries (ints, or MPoly values over Z[s,t]). The list
    has n + 1 entries and ends in the leading 1.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    if n == 0:
        return [1]
    a = m.entries
    coeffs = [1, -a[0][0]]  # descending powers
    for r in range(2, n + 1):
        row = a[r - 1][: r - 1]
        col = [a[i][r - 1] for i in range(r - 1)]
        q = [1, -a[r - 1][r - 1]]
        v = col
        for k in range(2, r + 1):
            q.append(-_dot(row, v))
            if k < r:
                v = [_dot(a[i][: r - 1], v) for i in range(r - 1)]
        new = []
        for i in range(r + 1):
            acc = 0
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                acc = acc + q[i - j] * coeffs[j]
            new.append(acc)
        coeffs = new
    return coeffs[::-1]


def det_gauss(m: IntMatrix) -> Fraction:
    """Exact determinant by fraction-based Gaussian elimination (oracle)."""
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    work = [[Fraction(x) for x in row] for row in m.entries]
    sign = 1
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] * inv
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return sign * det


def assemble_G2_laplacian(cfg: FamilyConfig) -> IntMatrix:
    """Laplacian of a two-hub config built directly from its block layout.

    Row/column order matches the canonical labeling of realize(): the 2x2
    hub block, then one interior block per internal path, then the pendant
    and cycle chains of each hub.
    """
    cfg = cfg.normalized()
    cfg.validate()
    if cfg.family != "G2":
        raise ValueError("expected a two-hub config")
    n = cfg.vertex_count()
    out = [[0] * n for _ in range(n)]
    out[0][0] = cfg.hub_degree_u()
    out[1][1] = cfg.hub_degree_v()
    if cfg.hub_edge:
        out[0][1] = out[1][0] = -1
    offset = 2

    def chain(span, hub_first=None, hub_last=None, last_degree=2):
        nonlocal offset
        for i in range(span):
            out[offset + i][offset + i] = 2
        out[offset + span - 1][offset + span - 1] = last_degree
        for i in range(span - 1):
            out[offset + i][offset + i + 1] = -1
            out[offset + i + 1][offset + i] = -1
        if hub_first is not None:
            out[hub_first][offset] = out[offset][hub_first] = -1
        if hub_last is not None:
            out[hub_last][offset + span - 1] = out[offset + span - 1][hub_last] = -1
        offset += span

    for order in cfg.paths:
        chain(order - 2, hub_first=0, hub_last=1)
    for hub in (0, 1):
        pendants = cfg.pendants_u if hub == 0 else cfg.pendants_v
        cycles = cfg.cycles_u if hub == 0 else cfg.cycles_v
        for length in pendants:
            chain(length, hub_first=hub, last_degree=1)
        for length in cycles:
            chain(length - 1, hub_first=hub, hub_last=hub)
    return IntMatrix(out)
