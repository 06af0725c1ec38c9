"""Independent oracles and random generators shared by the test modules.

Everything here is deliberately naive: spanning trees are enumerated one
by one, random graphs are built from explicit edge lists, and cographs
come from literal union/join trees. None of it shares code with the
library paths it checks.
"""

from __future__ import annotations

import random

from lapspec import Graph, complete, disjoint_union, is_connected, join


def spanning_tree_count(g: Graph) -> int:
    """Count spanning trees by enumerating them (deletion/contraction).

    Each recursion leaf with n-1 chosen edges that form a connected graph
    is exactly one spanning tree, so the count is a literal enumeration.
    """
    n = g.n
    if n == 0:
        return 0
    if n == 1:
        return 1
    edges = g.edges()

    def connects(chosen):
        seen = {0}
        stack = [0]
        adj = {}
        for u, v in chosen:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        while stack:
            x = stack.pop()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == n

    count = 0

    def rec(idx, chosen):
        nonlocal count
        if len(chosen) == n - 1:
            if connects(chosen):
                count += 1
            return
        remaining = len(edges) - idx
        if remaining < (n - 1) - len(chosen):
            return
        rec(idx + 1, chosen + [edges[idx]])
        rec(idx + 1, chosen)

    rec(0, [])
    return count


def scrambled_fields(cfg, rng: random.Random, swap: bool = False) -> tuple:
    """cfg.key() with every multiset shuffled and, when swap is set, the
    two hub sides exchanged: the fields of the same member, unnormalized."""
    family, hub_edge, *multisets = cfg.key()
    paths, pu, cu, pv, cv = (tuple(rng.sample(m, len(m))) for m in multisets)
    if swap:
        pu, cu, pv, cv = pv, cv, pu, cu
    return family, hub_edge, paths, pu, cu, pv, cv


def random_connected_graph(rng: random.Random, n_max: int = 8, density: float = 0.45) -> Graph:
    while True:
        n = rng.randint(3, n_max)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        g = Graph.from_edges(n, edges)
        if g.edge_count and is_connected(g):
            return g


def random_cograph(rng: random.Random, leaves: int) -> Graph:
    """Random union/join tree over single-vertex leaves."""
    if leaves == 1:
        return complete(1)
    left = rng.randint(1, leaves - 1)
    a = random_cograph(rng, left)
    b = random_cograph(rng, leaves - left)
    if rng.random() < 0.5:
        return disjoint_union(a, b)
    return join(a, b)
