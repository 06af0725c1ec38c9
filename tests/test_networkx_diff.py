"""Differential tests against networkx, an independent implementation.

networkx is a test-only dependency: the module skips itself without it,
and the spanning-tree comparison also needs numpy, which networkx uses for
its determinant. The pool is seeded random graphs on up to 13 vertices
(some disconnected) plus every G1/G2 family member on 9 vertices.
"""

import random
from itertools import combinations

import pytest

from lapspec import (
    Graph,
    canonical_form,
    char_poly,
    enumerate_family,
    from_graph6,
    laplacian,
    realize,
    to_graph6,
    vertex_connectivity,
)

nx = pytest.importorskip("networkx")


def _random_pool():
    rng = random.Random(2024)
    pool = []
    for _ in range(48):
        n = rng.randint(2, 13)
        density = rng.choice((0.2, 0.4, 0.6, 0.85))
        pool.append(
            Graph.from_edges(n, [(i, j) for i, j in combinations(range(n), 2) if rng.random() < density])
        )
    return pool


RANDOM = _random_pool()
MEMBERS = [realize(cfg) for family in ("G1", "G2") for cfg in enumerate_family(family, 9)]
POOL = RANDOM + MEMBERS


def _to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_pool_covers_both_families_and_disconnected_graphs():
    assert len(MEMBERS) > 50
    assert max(g.n for g in RANDOM) == 13
    assert any(not nx.is_connected(_to_nx(g)) for g in RANDOM)


def test_vertex_connectivity_matches_node_connectivity():
    for g in POOL:
        assert vertex_connectivity(g) == nx.node_connectivity(_to_nx(g)), to_graph6(g)


def test_graph6_round_trips_through_networkx():
    for g in POOL:
        text = to_graph6(g)
        h = nx.from_graph6_bytes(text.encode("ascii"))
        assert sorted(h.nodes) == list(range(g.n))
        assert sorted(tuple(sorted(e)) for e in h.edges) == sorted(g.edges())
        theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode("ascii").strip()
        assert theirs == text
        assert from_graph6(theirs) == g


def test_canonical_form_equality_is_isomorphism():
    rng = random.Random(5)
    forms = [canonical_form(g) for g in POOL]
    for g, form in zip(POOL, forms):
        h = _relabel(g, rng)
        assert canonical_form(h) == form
        assert nx.is_isomorphic(_to_nx(g), _to_nx(h))
    pairs = 0
    for (g, fg), (h, fh) in combinations(zip(POOL, forms), 2):
        if g.n == h.n and sorted(g.degrees()) == sorted(h.degrees()):
            pairs += 1
            assert (fg == fh) == nx.is_isomorphic(_to_nx(g), _to_nx(h)), (to_graph6(g), to_graph6(h))
    assert pairs > 0


def test_spanning_trees_match_kirchhoff_from_char_poly():
    pytest.importorskip("numpy")
    for g in POOL:
        # det(λI - L) = λ·∏(λ - μ) over the nonzero eigenvalues μ when g is
        # connected, so |c_1| = ∏μ = n·τ(g); c_1 = 0 when it is not.
        c = char_poly(laplacian(g))
        exact, rem = divmod(abs(c[1]), g.n)
        assert rem == 0
        theirs = nx.number_of_spanning_trees(_to_nx(g))
        assert theirs == pytest.approx(exact, rel=1e-9, abs=1e-6), to_graph6(g)
