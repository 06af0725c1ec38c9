import random

import pytest

from lapspec import (
    FamilyConfig,
    IntMatrix,
    LAMBDA,
    MPoly,
    assemble_G2_laplacian,
    block_diag,
    char_poly,
    det_gauss,
    laplacian,
    parse_poly,
    path_interior_block,
    principal_submatrix,
    realize,
)


def test_char_poly_small():
    assert char_poly(IntMatrix([])) == [1]
    assert char_poly(IntMatrix([[2]])) == [-2, 1]
    assert char_poly(path_interior_block(3)) == [-4, 10, -6, 1]
    assert char_poly(IntMatrix([[5, -5], [-1, 1]])) == [0, -6, 1]
    assert MPoly.from_univariate(char_poly(path_interior_block(3))) == parse_poly(
        "λ^3 - 6*λ^2 + 10*λ - 4"
    )
    with pytest.raises(ValueError):
        char_poly(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_char_poly_structure():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 8)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = IntMatrix(m)
        coeffs = char_poly(M)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1  # monic degree n
        assert -coeffs[-2] == M.trace()


def test_char_poly_cross_oracle_gaussian():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        M = IntMatrix(m)
        p = MPoly.from_univariate(char_poly(M))
        for _ in range(5):
            x = rng.randint(-6, 6)
            shifted = IntMatrix(
                [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            )
            assert p.eval_at({LAMBDA: x}) == det_gauss(shifted)


def test_symbolic_char_poly_printed_six_by_six():
    s = MPoly.var("s")
    m = IntMatrix(
        [
            [s + 2, -1, -1 * s, -1, 0, 0],
            [-1, s + 2, -1 * s, 0, 0, -1],
            [-1, -1, 2, 0, 0, 0],
            [-1, 0, 0, 2, -1, 0],
            [0, 0, 0, -1, 2, -1],
            [0, -1, 0, 0, -1, 2],
        ]
    )
    expected = parse_poly(
        "λ^6+(-2*s-12)*λ^5+(s^2+18*s+55)*λ^4+(-6*s^2-56*s-120)*λ^3"
        "+(10*s^2+70*s+125)*λ^2+(-4*s^2-30*s-50)*λ",
        variables=(LAMBDA, "s"),
    )
    coeffs = char_poly(m)
    assert len(coeffs) == 7 and coeffs[-1] == 1
    assert MPoly.from_univariate(coeffs) == expected


def test_principal_submatrix():
    m = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert principal_submatrix(m, []) == m
    assert principal_submatrix(m, [0, 2]) == IntMatrix([[5]])
    with pytest.raises(ValueError):
        principal_submatrix(m, [3])
    with pytest.raises(ValueError):
        principal_submatrix(m, [1, 1])


def test_block_diag_and_interior_blocks():
    assert path_interior_block(1) == IntMatrix([[2]])
    b = block_diag([path_interior_block(2), path_interior_block(2)])
    assert det_gauss(b) == 9
    assert det_gauss(path_interior_block(2)) == 3
    # removing both hub rows of a two-hub Laplacian leaves the link blocks
    cfg = FamilyConfig("G2", hub_edge=True, paths=(3, 5, 7)).normalized()
    L = assemble_G2_laplacian(cfg)
    inner = principal_submatrix(L, [0, 1])
    expect = block_diag([path_interior_block(1), path_interior_block(3), path_interior_block(5)])
    assert inner == expect


def test_assemble_matches_realized_laplacian():
    configs = [
        FamilyConfig("G2", hub_edge=True, paths=(3, 3, 3)),
        FamilyConfig("G2", hub_edge=True, paths=(3, 3, 5), pendants_u=(1, 2), cycles_v=(3,)),
        FamilyConfig("G2", hub_edge=False, paths=(3, 3, 4, 6), pendants_u=(1,), pendants_v=(2,)),
        FamilyConfig("G2", hub_edge=True, paths=(), cycles_u=(3, 4), cycles_v=(3,)),
        FamilyConfig("G2", hub_edge=False, paths=(4, 4, 4)),
    ]
    for cfg in configs:
        cfg = cfg.normalized()
        assert assemble_G2_laplacian(cfg) == laplacian(realize(cfg))


def test_assemble_hub_block():
    # hub block: diagonal carries the max degree, off-diagonal -1 when adjacent
    L = assemble_G2_laplacian(FamilyConfig("G2", hub_edge=True, paths=(3, 3)))
    assert L[0, 0] == 3 and L[1, 1] == 3 and L[0, 1] == -1
    L = assemble_G2_laplacian(FamilyConfig("G2", hub_edge=False, paths=(3, 3, 3)))
    assert L[0, 0] == 3 and L[0, 1] == 0


def test_interlacing_as_root_counts_random_principal_submatrices():
    from fractions import Fraction

    from lapspec import RootCounter

    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-3, 3)
        M = IntMatrix(m)
        drop = rng.sample(range(n), rng.randint(1, n - 2))
        sub = principal_submatrix(M, drop)
        r = len(drop)
        cm, cs = RootCounter(char_poly(M)), RootCounter(char_poly(sub))
        bound = 1 + max(abs(x) for row in m for x in row) * n
        for step in range(-2 * bound, 2 * bound + 1):
            theta = Fraction(step, 2)
            above_m = cm.count_above(theta)
            above_s = cs.count_above(theta)
            assert above_s <= above_m <= above_s + r
