import pytest

from lapspec import (
    FamilyConfig,
    char_poly,
    coarsest_equitable_refinement,
    complete_bipartite,
    cycle,
    divides,
    format_partition,
    laplacian,
    parse_partition,
    path,
    quotient_matrix,
    realize,
    star,
)
from oracle_helpers import adjacency_matrix, poly_mul


def test_star_center_leaves_partition():
    L = laplacian(star(6))
    cells = ((0,), (1, 2, 3, 4, 5))
    q = quotient_matrix(L, cells)
    assert q.entries == ((5, -5), (-1, 1))
    ok, cofactor = divides(char_poly(q), char_poly(L))
    assert ok
    assert poly_mul(char_poly(q), cofactor) == char_poly(L)


def test_path_partitions():
    L = laplacian(path(4))
    assert quotient_matrix(L, ((0, 3), (1, 2))).entries == ((1, -1), (-1, 1))
    # the error names the offending cell pair: into cell 0, vertex 0's row
    # sums to 0 and vertex 1's to 1
    with pytest.raises(ValueError) as exc:
        quotient_matrix(L, ((0, 1), (2, 3)))
    assert str(exc.value) == (
        "partition is not equitable: {'cell_pair': (0, 0), 'vertices': (0, 1), 'sums': (0, 1)}"
    )


def test_partition_validation():
    L = laplacian(path(3))
    with pytest.raises(ValueError):
        quotient_matrix(L, ((0, 1),))  # does not cover
    with pytest.raises(ValueError):
        quotient_matrix(L, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        parse_partition("0 | 9", 3)


def test_singleton_partition_is_identity():
    L = laplacian(cycle(5))
    cells = tuple((i,) for i in range(5))
    assert quotient_matrix(L, cells).entries == L.entries
    ok, cofactor = divides(char_poly(quotient_matrix(L, cells)), char_poly(L))
    assert ok and cofactor == [1]


def test_refinement():
    A = adjacency_matrix(star(6))
    assert coarsest_equitable_refinement(A, ((0, 1, 2, 3, 4, 5),)) == ((0,), (1, 2, 3, 4, 5))
    A6 = adjacency_matrix(cycle(6))
    assert coarsest_equitable_refinement(A6, ((0, 1, 2, 3, 4, 5),)) == ((0, 1, 2, 3, 4, 5),)
    # the single-cell partition is already equitable for a Laplacian
    L = laplacian(star(6))
    assert coarsest_equitable_refinement(L, ((0, 1, 2, 3, 4, 5),)) == ((0, 1, 2, 3, 4, 5),)


def test_refinement_idempotent_and_equitable():
    for g in (star(7), cycle(6), complete_bipartite(2, 5), realize(FamilyConfig("G2", hub_edge=True, paths=(3, 3, 5)))):
        L = laplacian(g)
        seed = parse_partition("0 | 1 | *", g.n) if g.n > 2 else ((0,), (1,))
        ref = coarsest_equitable_refinement(L, seed)
        quotient_matrix(L, ref)  # raises unless equitable
        assert coarsest_equitable_refinement(L, ref) == ref
        # refinement refines the seed
        for cell in ref:
            assert any(set(cell) <= set(s) for s in seed)


def test_hub_seed_recovers_position_pools():
    g = realize(FamilyConfig("G2", hub_edge=True, paths=(3, 3, 5)))
    L = laplacian(g)
    ref = coarsest_equitable_refinement(L, parse_partition("0 | 1 | *", g.n))
    assert ref == ((0,), (1,), (2, 3), (4,), (5,), (6,))
    assert divides(char_poly(quotient_matrix(L, ref)), char_poly(L))[0]


def test_partition_text_round_trip():
    cells = ((0,), (1,), (2, 3, 4), (5, 6))
    text = format_partition(cells)
    assert text == "0 | 1 | 2 3 4 | 5 6"
    assert parse_partition(text, 7) == cells
