"""Seeded single-graph request stream for the `queries` workload.

The graphs come from a fixed pool so that every response can be checked
against a golden digest recorded once (see make_golden.py). The pool is
organised in strata -- random connected graphs by order and edge density,
complete graphs, and relabeled G1/G2 family members -- generated from
POOL_SEED. Every run sends the whole pool, so runs with different seeds do
the same work and stay comparable; the run seed orders the stream and draws
the relabeling each canonical_form request checks against. The program under
test receives only graph6 strings.
"""

from __future__ import annotations

import random

POOL_SEED = 20201124
VARIANTS = 2
ORDERS = range(6, 14)
# Edge probabilities added on top of a random spanning tree.
DENSITIES = {"sparse": 0.15, "medium": 0.45, "dense": 0.85}
COMPLETE_ORDERS = range(5, 13)
FAMILY_ORDERS = range(9, 13)
PRECISION = "1/1000000"
# One entry per request kind sent for every graph of the stream.
KINDS = ("spectrum-L", "spectrum-Q", "classify", "refine", "canonical_form")


def graph6(n, edges):
    """graph6 encoding (no header) of a simple graph with n <= 62.

    Encoded here rather than by lapspec, so that the inputs do not depend on
    the code under test.
    """
    adj = set()
    for u, v in edges:
        adj.add((min(u, v), max(u, v)))
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def random_connected(n, p, rng):
    """A random spanning tree plus every other pair with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def _attach(edges, hub, n_next, rng, budget):
    """Hang one pendant path or cycle of at most `budget` new vertices."""
    if budget >= 2 and rng.random() < 0.4:
        k = rng.randint(2, budget)  # a cycle through the hub with k new vertices
        chain = [hub] + list(range(n_next, n_next + k)) + [hub]
        edges.extend(zip(chain, chain[1:]))
        return n_next + k, 2
    k = rng.randint(1, budget)
    chain = [hub] + list(range(n_next, n_next + k))
    edges.extend(zip(chain, chain[1:]))
    return n_next + k, 1


def family_member(family, n, rng):
    """A G1 (one hub) or G2 (two hubs) member on exactly n vertices.

    Every vertex other than the hubs has degree 1 or 2 and each hub has
    degree at least 3, by rejection.
    """
    while True:
        edges = []
        degree = {0: 0, 1: 0}
        hubs = (0,) if family == "G1" else (0, 1)
        nxt = len(hubs)
        if family == "G2":
            if rng.random() < 0.5:
                edges.append((0, 1))
                degree[0] += 1
                degree[1] += 1
            for _ in range(rng.randint(0 if edges else 1, 2)):
                k = rng.randint(1, 3)
                if nxt + k > n:
                    break
                chain = [0] + list(range(nxt, nxt + k)) + [1]
                edges.extend(zip(chain, chain[1:]))
                degree[0] += 1
                degree[1] += 1
                nxt += k
            if not edges:
                continue
        while nxt < n:
            hub = rng.choice(hubs)
            nxt, d = _attach(edges, hub, nxt, rng, min(4, n - nxt))
            degree[hub] += d
        if all(degree[h] >= 3 for h in hubs):
            return edges


def pool():
    """{stratum: [graph6, ...]} for every stratum of the request pool."""
    rng = random.Random(POOL_SEED)
    strata = {}
    for n in ORDERS:
        for label, p in DENSITIES.items():
            strata[f"random-n{n}-{label}"] = [
                graph6(n, random_connected(n, p, rng)) for _ in range(VARIANTS)
            ]
    for n in COMPLETE_ORDERS:
        edges = [(u, v) for v in range(n) for u in range(v)]
        strata[f"complete-n{n}"] = [graph6(n, edges)]
    for family in ("G1", "G2"):
        for n in FAMILY_ORDERS:
            strata[f"{family}-n{n}"] = [
                graph6(n, relabel(n, family_member(family, n, rng), rng))
                for _ in range(VARIANTS)
            ]
    return strata


def is_dense(stratum):
    return stratum.endswith("-dense") or stratum.startswith("complete-")


def request(kind, g6, rng):
    """One request of the stream; `canonical_form` also carries a relabeling."""
    if kind == "spectrum-L" or kind == "spectrum-Q":
        argv = ["spectrum", "--kind", kind[-1], "--precision", PRECISION]
    elif kind == "classify":
        argv = ["classify"]
    elif kind == "refine":
        argv = ["refine", "--partition", "0 | *"]
    else:
        n = ord(g6[0]) - 63
        edges = edges_of(g6)
        return {"key": f"{kind} {g6}", "g6": g6, "relabeled": graph6(n, relabel(n, edges, rng))}
    return {"key": f"{kind} {g6}", "argv": argv + ["--g6", g6]}


def edges_of(g6):
    n = ord(g6[0]) - 63
    bits = [(ord(ch) - 63) >> s & 1 for ch in g6[1:] for s in (5, 4, 3, 2, 1, 0)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return [pair for pair, bit in zip(pairs, bits) if bit]


def stream(seed):
    """The seeded request list: every pool graph with every kind, shuffled."""
    rng = random.Random(seed)
    reqs = [request(kind, g6, rng) for variants in pool().values() for g6 in variants for kind in KINDS]
    rng.shuffle(reqs)
    return reqs


def dense_share():
    """Share of the stream's graphs (and so of its requests) that are dense."""
    strata = pool()
    dense = sum(len(v) for name, v in strata.items() if is_dense(name))
    return dense / sum(len(v) for v in strata.values())
