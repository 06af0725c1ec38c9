import random

import pytest

from lapspec import (
    FamilyConfig,
    Graph,
    IntMatrix,
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
    signless_laplacian,
    star,
)
from lapspec.partitions import _witness
from oracle_helpers import (
    adjacency_matrix,
    coarsest_refinement_oracle,
    dense_cell_sums,
    poly_mul,
)


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


def random_seed_partition(rng, n):
    """A random partition of range(n) into at most k cells, k drawn from
    1..n, in the order of the cells' labels."""
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    return tuple(tuple(v for v in range(n) if labels[v] == c) for c in sorted(set(labels)))


def test_refinement_and_quotient_match_the_dense_oracle():
    rng = random.Random(47)
    matrices = []
    for n in range(2, 17):
        for p in (0.15, 0.5, 0.85):
            g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            matrices += [laplacian(g), signless_laplacian(g), adjacency_matrix(g)]
        # non-symmetric, entries of either sign, about half of them zero
        matrices.append(IntMatrix([[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]))
    matrices += [laplacian(g) for g in (star(9), cycle(12), complete_bipartite(3, 7))]
    for m in matrices:
        for _ in range(4):
            seed = random_seed_partition(rng, m.rows)
            refined = coarsest_equitable_refinement(m, seed)
            assert refined == coarsest_refinement_oracle(m, seed)
            sums = dense_cell_sums(m, refined)
            assert quotient_matrix(m, refined).entries == tuple(sums[cell[0]] for cell in refined)
            witness = _witness(seed, dense_cell_sums(m, seed))
            if witness is None:
                assert refined == tuple(sorted(seed))
            else:
                with pytest.raises(ValueError) as info:
                    quotient_matrix(m, seed)
                assert str(info.value) == f"partition is not equitable: {witness}"


def test_non_square_matrices_are_rejected():
    wide = IntMatrix([[1, 2, 3], [4, 5, 6]])
    tall = IntMatrix([[1], [2]])
    for m, cells in ((wide, ((0,), (1,))), (tall, ((0, 1),))):
        for f in (quotient_matrix, coarsest_equitable_refinement):
            with pytest.raises(ValueError, match="square"):
                f(m, cells)


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
