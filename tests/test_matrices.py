import random
from collections import Counter

import pytest

from lapspec import (
    FamilyConfig,
    IntMatrix,
    LAMBDA,
    MPoly,
    char_poly,
    det_gauss,
    enumerate_family,
    laplacian,
    parse_poly,
    path_quotient,
    quotient_cells,
    quotient_matrix,
    realize,
    split_integer_roots,
    sturm_count,
)
from lapspec.matrices import _repeats_integral, side_sign_change

from oracle_helpers import (
    continuant_theta,
    family_char_poly,
    family_factors,
    fraction_counts_above,
    fraction_sign,
    lift,
    member_tables,
    poly_mul,
    principal_submatrix,
    repeated_factors,
    vertex_count,
)


def sign_change(cfg):
    """The sweep's sign scan (side_sign_change) of cfg's quotient."""
    return side_sign_change(*member_tables(cfg), vertex_count(cfg))


def interior_blocks(*sizes):
    """Block-diagonal matrix of path-interior blocks: 2 on the diagonal,
    -1 next to it inside each block."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    block = {v: b for b, (s, k) in enumerate(zip(starts, sizes)) for v in range(s, s + k)}
    n = sum(sizes)
    return IntMatrix(
        [
            [2 if i == j else (-1 if abs(i - j) == 1 and block[i] == block[j] else 0) for j in range(n)]
            for i in range(n)
        ]
    )


def test_char_poly_small():
    assert char_poly(IntMatrix([])) == [1]
    assert char_poly(IntMatrix([[2]])) == [-2, 1]
    assert char_poly(interior_blocks(3)) == [-4, 10, -6, 1]
    assert char_poly(IntMatrix([[5, -5], [-1, 1]])) == [0, -6, 1]
    assert lift(char_poly(interior_blocks(3))) == parse_poly(
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
        assert -coeffs[-2] == sum(m[i][i] for i in range(n))  # the trace


def test_char_poly_cross_oracle_gaussian():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 7)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        M = IntMatrix(m)
        p = lift(char_poly(M))
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
    assert lift(coeffs) == expected


def test_principal_submatrix():
    m = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert principal_submatrix(m, []) == m
    assert principal_submatrix(m, [0, 2]) == IntMatrix([[5]])
    with pytest.raises(ValueError):
        principal_submatrix(m, [3])
    with pytest.raises(ValueError):
        principal_submatrix(m, [1, 1])


def test_block_diag_and_interior_blocks():
    # removing both hub rows of a two-hub Laplacian leaves one
    # path-interior block per internal path, in declaration order
    cfg = FamilyConfig("G2", hub_edge=True, paths=(3, 5, 7))
    inner = principal_submatrix(laplacian(realize(cfg)), [0, 1])
    assert inner == interior_blocks(1, 3, 5)
    assert principal_submatrix(inner, [1, 2, 3, 4, 5, 6, 7, 8]) == IntMatrix([[2]])
    inner = principal_submatrix(laplacian(realize(FamilyConfig("G2", paths=(4, 4, 4)))), [0, 1])
    assert inner == interior_blocks(2, 2, 2)
    assert det_gauss(principal_submatrix(inner, [4, 5])) == 9
    assert det_gauss(principal_submatrix(inner, [2, 3, 4, 5])) == 3


def test_assemble_matches_realized_laplacian():
    # the block-layout polynomial equals Berkowitz on the realized graph
    configs = [
        FamilyConfig("G2", hub_edge=True, paths=(3, 3, 3)),
        FamilyConfig("G2", hub_edge=True, paths=(3, 3, 5), pendants_u=(1, 2), cycles_v=(3,)),
        FamilyConfig("G2", hub_edge=False, paths=(3, 3, 4, 6), pendants_u=(1,), pendants_v=(2,)),
        FamilyConfig("G2", hub_edge=True, paths=(), cycles_u=(3, 4), cycles_v=(3,)),
        FamilyConfig("G2", hub_edge=False, paths=(4, 4, 4)),
        FamilyConfig("G1", pendants_u=(1, 2, 5), cycles_u=(3, 6)),
    ]
    for cfg in configs:
        assert family_char_poly(cfg) == char_poly(laplacian(realize(cfg))), cfg
    # K_2 ∨ 3K_1 has Laplacian spectrum {0, 2, 2, 5, 5}: λ (λ - 2)^2 (λ - 5)^2
    assert family_char_poly(FamilyConfig("G2", hub_edge=True, paths=(3, 3, 3))) == [
        0, 100, -140, 69, -14, 1
    ]


def test_assemble_hub_block():
    # hub block: diagonal carries the max degree, off-diagonal -1 when adjacent
    L = laplacian(realize(FamilyConfig("G2", hub_edge=True, paths=(3, 3))))
    assert principal_submatrix(L, [2, 3]) == IntMatrix([[3, -1], [-1, 3]])
    L = laplacian(realize(FamilyConfig("G2", hub_edge=False, paths=(3, 3, 3))))
    assert principal_submatrix(L, [2, 3, 4]) == IntMatrix([[3, 0], [0, 3]])


def test_family_char_poly_equals_berkowitz_up_to_ten():
    # Berkowitz on the realized Laplacian is the oracle for every member
    checked = 0
    for n in range(4, 11):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                assert family_char_poly(cfg) == char_poly(laplacian(realize(cfg))), cfg
                checked += 1
    assert checked == 2191


def test_family_factors_quotient_is_the_equitable_quotient_up_to_ten():
    # independent oracle: Berkowitz on the quotient matrix of the realized
    # Laplacian by the (chain kind, position) partition of quotient_cells
    checked = repeated = 0
    for n in range(4, 11):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                factors, quotient = family_factors(cfg)
                cells = quotient_cells(cfg)
                assert quotient == char_poly(quotient_matrix(laplacian(realize(cfg)), cells)), cfg
                assert len(quotient) == len(cells) + 1 and quotient[-1] == 1
                assert factors == repeated_factors(cfg)
                assert sum(e * (len(t) - 1) for t, e in factors) == n - len(cells)
                checked += 1
                repeated += bool(factors)
    assert checked == 2191 and 0 < repeated < checked


def test_pointwise_quotient_equals_the_multiplied_out_quotient_up_to_ten():
    # the sign scan's Q(k) = Y(k) A(k) - P_v(k) B(k) from the value tables,
    # against Berkowitz on the quotient matrix of the realized Laplacian by
    # quotient_cells, evaluated at every k in 0..n
    from lapspec.matrices import (
        links_table,
        one_hub_coupling,
        quotient_values,
        side_table,
        two_hub_coupling,
    )

    checked = 0
    for n in range(4, 11):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                side_u = side_table(cfg.pendants_u, cfg.cycles_u, n + 1)
                if family == "G1":
                    coupling, side, d = one_hub_coupling(n + 1), side_u, cfg.hub_degree_u()
                else:
                    links = links_table(cfg.paths, cfg.hub_edge, n + 1)
                    coupling = two_hub_coupling(links, side_u, cfg.hub_degree_u())
                    side = side_table(cfg.pendants_v, cfg.cycles_v, n + 1)
                    d = cfg.hub_degree_v()
                quotient = char_poly(quotient_matrix(laplacian(realize(cfg)), quotient_cells(cfg)))
                want = [sum(c * k**i for i, c in enumerate(quotient)) for k in range(n + 1)]
                assert quotient_values(coupling, side, d, n) == want, cfg
                checked += 1
    assert checked == 2191


def assert_tables_equal_the_folds(sides, links, size):
    """Each table entry of every side and link set is its polynomial fold
    (the oracles _side and _fold_links) evaluated as sum(c_i k^i) at k in
    range(size), and the flag says whether every repeated θ has only
    integer roots."""
    from lapspec.matrices import links_table, side_table

    from oracle_helpers import _fold_links, _side

    def values(poly):
        return tuple(sum(c * k**i for i, c in enumerate(poly)) for k in range(size))

    def integer_roots_only(thetas):
        return all(len(split_integer_roots(theta)[1]) <= 1 for theta in thetas)

    flags = Counter()
    for side in sides:
        p, n, repeated = _side(*side)
        ok = integer_roots_only(theta for theta, _ in repeated)
        want = (values(p), values(n), ok)
        assert side_table(*side, size) == want, side
        flags[ok] += 1
    for paths, hub_edge in links:
        kinds = sorted(Counter(paths).items())
        p, n, t = _fold_links(kinds, hub_edge)
        ok = integer_roots_only(continuant_theta("path", order) for order, c in kinds if c > 1)
        want = (values(p), values(n), values(t), ok)
        assert links_table(paths, hub_edge, size) == want, (paths, hub_edge)
        flags[ok] += 1
    assert flags[True] > 0 and flags[False] > 0


def test_value_tables_equal_the_folds_nine_to_twelve():
    # every side and link set the sweep meets at 9..12
    sides, links = set(), set()
    for n in range(9, 13):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                sides.add((cfg.pendants_u, cfg.cycles_u))
                if family == "G2":
                    sides.add((cfg.pendants_v, cfg.cycles_v))
                    links.add((cfg.paths, cfg.hub_edge))
    assert (len(sides), len(links)) == (732, 262)
    assert_tables_equal_the_folds(sides, links, 13)


def test_value_tables_equal_the_folds_of_the_sixteen_fill():
    # every side and link set _fill_tables(16) builds, at its size 17
    from lapspec.enumeration import _g2_links, _sides

    sides = [side for budget in range(16) for side in _sides(budget)]
    links = [(paths, hub_edge) for hub_edge, paths in _g2_links(16)]
    assert (len(sides), len(links)) == (3956, 1015)
    assert_tables_equal_the_folds(sides, links, 17)


def test_side_tables_fold_from_their_prefix_in_any_order():
    # side_table folds each side's last kind onto its prefix's cached
    # table; from cleared caches, in shuffled order, every side of the
    # _fill_tables(14) fill still equals its polynomial fold, and the
    # cache holds as many tables as a fill leaves
    from lapspec import matrices
    from lapspec.enumeration import _fill_tables, _sides

    for cached in (matrices.side_table, matrices._continuant_values):
        cached.cache_clear()
    _fill_tables(14)
    filled = matrices.side_table.cache_info().currsize
    sides = [side for budget in range(14) for side in _sides(budget)]
    assert filled == len(sides) == 1770
    random.Random(14).shuffle(sides)
    for cached in (matrices.side_table, matrices._continuant_values):
        cached.cache_clear()
    assert_tables_equal_the_folds(sides, [], 15)
    assert matrices.side_table.cache_info().currsize == filled


def test_link_tables_fold_from_their_prefix_in_any_order():
    # links_table applies the hub edge to _paths_table, which folds the
    # longest kind onto its prefix's cached fold; from cleared caches, in
    # shuffled order, every link set of the _fill_tables(14) fill still
    # equals its polynomial fold, with one fold per multiset of paths
    from lapspec import matrices
    from lapspec.enumeration import _g2_links

    links = [(paths, hub_edge) for hub_edge, paths in _g2_links(14)]
    random.Random(14).shuffle(links)
    for cached in (matrices.links_table, matrices._paths_table, matrices._continuant_values):
        cached.cache_clear()
    assert_tables_equal_the_folds([], links, 15)
    assert matrices._paths_table.cache_info().currsize == len({paths for paths, _ in links}) == 272


def test_table_fill_builds_no_polynomial(monkeypatch):
    # the fill folds values only: with every cache of the table layer
    # cleared first, it never interpolates, the one polys function
    # matrices imports (see test_layering)
    from lapspec import matrices
    from lapspec.enumeration import _fill_tables

    for cached in (
        matrices.side_table,
        matrices.links_table,
        matrices._paths_table,
        matrices._continuant_values,
    ):
        cached.cache_clear()
    calls, inner = [], matrices.interpolate
    monkeypatch.setattr(matrices, "interpolate", lambda values: calls.append(values) or inner(values))
    _fill_tables(12)
    assert matrices.side_table.cache_info().currsize == 752
    assert matrices.links_table.cache_info().currsize == 277
    assert calls == []


def test_sign_change_is_the_first_and_brackets_a_root_nine_to_eleven():
    # oracle: signs of the multiplied-out quotient and its Sturm count
    members = decided = 0
    for n in range(9, 12):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                quotient = family_factors(cfg)[1]
                signs = [fraction_sign(quotient, k) for k in range(1, n + 1)]
                changes = [k for k in range(1, n) if signs[k - 1] * signs[k] < 0]
                k = sign_change(cfg)
                assert k == (changes[0] if changes else None), cfg
                if k is not None:
                    assert sturm_count(quotient, k, k + 1) >= 1, cfg
                    decided += 1
                members += 1
    assert members == 553 + 1270 + 2768 and 0 < decided < members


def test_sign_scan_restarts_after_an_integer_root():
    # K_{2,n-2}: the quotient is λ (λ - n + 2) (λ - n), so it takes opposite
    # signs at n - 3 and n - 1, around a root of odd multiplicity
    for n in range(6, 13):
        cfg = FamilyConfig("G2", False, (3,) * (n - 2))
        quotient = family_factors(cfg)[1]
        assert split_integer_roots(quotient) == ({0: 1, n - 2: 1, n: 1}, [1])
        assert fraction_sign(quotient, n - 3) * fraction_sign(quotient, n - 1) < 0
        assert sign_change(cfg) is None
    # no member with an integral quotient is rejected, 62 of the 68 at 9..11
    # with an odd-multiplicity integer root strictly between 1 and n
    integral = odd_inside = 0
    for n in range(9, 12):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                roots, rest = split_integer_roots(family_factors(cfg)[1])
                if len(rest) > 1:
                    continue
                assert sign_change(cfg) is None, cfg
                integral += 1
                odd_inside += any(m % 2 and 1 < r < n for r, m in roots.items())
    assert (integral, odd_inside) == (68, 62)


def test_path_quotient_over_symbolic_and_absent_counts():
    from lapspec.families import _grid_quotient

    # K_2 joined with s isolated vertices: Laplacian quotient λ (λ - s - 2)^2
    assert _grid_quotient([(3, "s")], True) == parse_poly(
        "λ*(λ - s - 2)^2", variables=(LAMBDA, "s")
    )
    # an order with count 0 still contributes its θ, here λ - 2 for order 3
    for paths, hub_edge in (((4, 4, 4), False), ((4, 5, 5), True)):
        _, quotient = family_factors(FamilyConfig("G2", hub_edge, paths))
        counts = [(3, 0)] + sorted(Counter(paths).items())
        assert path_quotient(counts, hub_edge) == poly_mul((-2, 1), quotient)


def chain_theta(kind, length):
    """θ of one chain: Berkowitz on its block of a realized Laplacian, with
    its copy's vertices located by realize's labelling: hubs first, then each
    chain's vertices consecutive."""
    if kind == "pendant":
        cfg, start, size = FamilyConfig("G1", pendants_u=(length, length, length)), 1, length
    elif kind == "cycle":
        cfg, start, size = FamilyConfig("G1", cycles_u=(length, length)), 1, length - 1
    else:
        cfg, start, size = FamilyConfig("G2", True, (length, length)), 2, length - 2
    L = laplacian(realize(cfg))
    block = principal_submatrix(L, [v for v in range(L.rows) if not start <= v < start + size])
    theta = tuple(char_poly(block))
    assert (theta, 2 if kind == "pendant" else 1) in repeated_factors(cfg)
    return theta


def repeats_integral(kind, length):
    """The tables' rule (_repeats_integral) on two chains of one kind."""
    field = {"pendant": "pendant_kinds", "cycle": "cycle_kinds", "path": "path_kinds"}[kind]
    return _repeats_integral(**{field: [(length, 2)]})


def chain_kinds(longest):
    """(kind, length) of every chain with length at most longest."""
    kinds = [("pendant", k) for k in range(1, longest + 1)]
    return kinds + [(kind, k) for kind in ("cycle", "path") for k in range(3, longest + 1)]


def test_integral_chain_kinds_up_to_sixteen():
    # Berkowitz on each chain's block of a realized Laplacian is the oracle
    # of the rule the tables apply to repeated chain kinds
    integral = {
        kind for kind in chain_kinds(16) if len(split_integer_roots(chain_theta(*kind))[1]) <= 1
    }
    assert integral == {("pendant", 1), ("cycle", 3), ("path", 3), ("path", 4)}
    assert integral == {kind for kind in chain_kinds(16) if repeats_integral(*kind)}
    # and up to 64, the polynomial continuants are
    for kind in chain_kinds(64):
        theta = continuant_theta(*kind)
        assert repeats_integral(*kind) == (len(split_integer_roots(theta)[1]) <= 1), kind
    # a kind that occurs once puts no θ beyond the quotient
    assert _repeats_integral([(2, 1)], [(4, 1)], [(5, 1)])
    assert not _repeats_integral([(1, 3)], [(3, 2)], [(4, 2), (5, 2)])


def test_family_char_poly_rejects_invalid_configs():
    # an invalid config cannot be built, so none reaches the folds
    for family, fields in (
        ("G1", {"pendants_u": (1, 1)}),
        ("G1", {"pendants_u": (1, 1, 1), "paths": (3,)}),
        ("G2", {"paths": (3, 3), "cycles_u": (2,)}),
        ("G2", {"pendants_u": (1, 1), "pendants_v": (1, 1)}),
    ):
        with pytest.raises(ValueError):
            FamilyConfig(family, **fields)


def test_interlacing_as_root_counts_random_principal_submatrices():
    from fractions import Fraction

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
        bound = 1 + max(abs(x) for row in m for x in row) * n
        thetas = [Fraction(step, 2) for step in range(-2 * bound, 2 * bound + 1)]
        counts_m = fraction_counts_above(char_poly(M), thetas)
        counts_s = fraction_counts_above(char_poly(sub), thetas)
        for above_m, above_s in zip(counts_m, counts_s):
            assert above_s <= above_m <= above_s + r
