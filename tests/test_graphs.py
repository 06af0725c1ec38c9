import random
from itertools import combinations

import pytest

from lapspec import (
    FamilyConfig,
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    degree_sequence,
    disjoint_union,
    empty_graph,
    enumerate_family,
    firefly,
    from_graph6,
    graph_to_config,
    is_bipartite,
    is_connected,
    join,
    laplacian,
    path,
    quotient_cells,
    quotient_matrix,
    realize,
    star,
    to_graph6,
    vertex_connectivity,
)
from lapspec.graphs import from_adjacency_text
from oracle_helpers import family_membership, profile_states, scrambled_fields, vertex_count


def test_basic_constructors():
    assert path(1).n == 1 and path(1).edge_count == 0
    assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert degree_sequence(path(7)).count(1) == 2
    assert degree_sequence(star(6)) == (5, 1, 1, 1, 1, 1)
    assert complete_bipartite(2, 4).edge_count == 8
    assert cycle(3) == complete(3)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_graph_invariants():
    g = firefly(2, 1, 1)
    # symmetric, irreflexive adjacency; edge count = half degree sum
    for u in range(g.n):
        assert u not in g.adj[u]
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert g.edge_count * 2 == sum(g.degrees())


def test_join_union_product():
    s = join(complete(1), disjoint_union(*[complete(1)] * 5))
    assert degree_sequence(s) == degree_sequence(star(6))
    pr = cartesian_product(complete(2), star(4))
    assert pr.n == 8 and pr.edge_count == 10
    # join degree formula: every vertex gains the other side's order
    j = join(complete(2), empty_graph(3))
    assert degree_sequence(j) == (4, 4, 2, 2, 2)


def test_join_edge_count_property():
    rng = random.Random(3)
    for _ in range(30):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        g = Graph.from_edges(n1, [(i, j) for i in range(n1) for j in range(i + 1, n1) if rng.random() < 0.5])
        h = Graph.from_edges(n2, [(i, j) for i in range(n2) for j in range(i + 1, n2) if rng.random() < 0.5])
        assert join(g, h).edge_count == g.edge_count + h.edge_count + n1 * n2


def test_product_degree_property():
    rng = random.Random(4)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g = Graph.from_edges(n1, [(i, j) for i in range(n1) for j in range(i + 1, n1) if rng.random() < 0.5])
        h = Graph.from_edges(n2, [(i, j) for i in range(n2) for j in range(i + 1, n2) if rng.random() < 0.5])
        p = cartesian_product(g, h)
        for a in range(n1):
            for b in range(n2):
                assert p.degree(a * n2 + b) == g.degree(a) + h.degree(b)


def test_firefly():
    from lapspec import canonical_form

    assert canonical_form(firefly(0, 5, 0)) == canonical_form(star(6))
    assert canonical_form(firefly(0, 0, 1)) == canonical_form(path(3))
    g = firefly(1, 1, 0)
    assert g.n == 4 and g.degree(0) == 3
    assert degree_sequence(firefly(2, 1, 1)) == (6, 2, 2, 2, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        firefly(0, 0, 0)


def test_realize_triangles_and_pendants_is_a_firefly():
    from lapspec import canonical_form

    for r, s in [(1, 1), (2, 3), (3, 0)]:
        cfg = FamilyConfig("G1", pendants_u=(1,) * s, cycles_u=(3,) * r)
        assert canonical_form(realize(cfg)) == canonical_form(firefly(r, s, 0))


def test_realize_and_vertex_count():
    cfg = FamilyConfig("G2", hub_edge=True, paths=(3, 3))
    g = realize(cfg)
    assert g.n == 4 and degree_sequence(g) == (3, 3, 2, 2)
    for cfg in [
        FamilyConfig("G1", pendants_u=(1, 2), cycles_u=(3, 4)),
        FamilyConfig("G2", hub_edge=False, paths=(3, 3, 4), pendants_u=(2,)),
        FamilyConfig("G2", hub_edge=True, paths=(), cycles_u=(3,), cycles_v=(4,)),
    ]:
        assert realize(cfg).n == vertex_count(cfg)


def test_realize_rejects_degree_violations():
    # two links without the hub edge leave both hubs at degree 2
    with pytest.raises(ValueError):
        realize(FamilyConfig("G2", hub_edge=False, paths=(3, 4)))
    with pytest.raises(ValueError):
        realize(FamilyConfig("G1", pendants_u=(1, 1)))


def test_construction_normalizes_every_member_up_to_nine():
    # shuffled multisets and swapped hub sides build the enumerated config
    rng = random.Random(9)
    checked = 0
    for n in range(1, 10):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                g6 = to_graph6(realize(cfg))
                for swap in (False, True) if family == "G2" else (False,):
                    fields = scrambled_fields(cfg, rng, swap)
                    other = FamilyConfig(*fields)
                    assert other == cfg and hash(other) == hash(cfg), other
                    assert to_graph6(realize(other)) == g6, other
                    # _make and _replace normalize as construction does
                    assert FamilyConfig._make(fields) == cfg, fields
                    assert cfg._replace(**dict(zip(cfg._fields, fields))) == cfg, fields
                checked += 1
    assert checked == 921


@pytest.mark.parametrize(
    "family,fields,message",
    [
        ("G3", {"pendants_u": (1, 1, 1)}, "unknown family 'G3'"),
        ("G1", {"pendants_u": (0, 1, 1)}, "pendant path lengths must be >= 1"),
        ("G2", {"paths": (3,), "pendants_u": (1, 1), "pendants_v": (0, 1)}, "pendant path lengths must be >= 1"),
        ("G1", {"cycles_u": (2, 3)}, "cycle lengths must be >= 3"),
        ("G2", {"paths": (3,), "cycles_u": (3,), "cycles_v": (2,)}, "cycle lengths must be >= 3"),
        ("G1", {"pendants_u": (1, 1, 1), "hub_edge": True}, "G1 configs use only the hub-side fields"),
        ("G1", {"pendants_u": (1, 1, 1), "paths": (3,)}, "G1 configs use only the hub-side fields"),
        ("G1", {"pendants_u": (1, 1, 1), "pendants_v": (1,)}, "G1 configs use only the hub-side fields"),
        ("G1", {"pendants_u": (1, 1, 1), "cycles_v": (3,)}, "G1 configs use only the hub-side fields"),
        ("G1", {"pendants_u": (1, 1)}, "hub degree must be >= 3"),
        ("G2", {"paths": (2, 3, 3)}, "internal path orders must be >= 3"),
        ("G2", {"pendants_u": (1, 1, 1), "pendants_v": (1, 1, 1)}, "disconnected: need the hub edge or an internal path"),
        ("G2", {"hub_edge": True, "paths": (3,), "pendants_u": (1,)}, "both hub degrees must be >= 3"),
        ("G2", {"hub_edge": True, "paths": (3,), "pendants_v": (1,)}, "both hub degrees must be >= 3"),
    ],
)
def test_construction_rejects_each_membership_rule(family, fields, message):
    # each config breaks one rule only, so a dropped rule lets it build;
    # _replace on a valid config validates as construction does
    valid = FamilyConfig("G1", pendants_u=(1, 1, 1))
    unset = dict(hub_edge=False, paths=(), pendants_u=(), cycles_u=(), pendants_v=(), cycles_v=())
    for build in (
        lambda: FamilyConfig(family, **fields),
        lambda: valid._replace(family=family, **{**unset, **fields}),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_config_round_trip():
    configs = [
        FamilyConfig("G1", pendants_u=(1, 1, 2), cycles_u=(3,)),
        FamilyConfig("G1", pendants_u=(), cycles_u=(3, 3)),
        FamilyConfig("G2", hub_edge=True, paths=(3, 3, 4), pendants_u=(2,), cycles_v=(4,)),
        FamilyConfig("G2", hub_edge=False, paths=(3, 4, 6), pendants_u=(1,), pendants_v=(1,)),
        FamilyConfig("G2", hub_edge=True, paths=(), cycles_u=(3,), cycles_v=(3,)),
        FamilyConfig("G2", hub_edge=False, paths=(5,), cycles_u=(3,), cycles_v=(4,)),
    ]
    for cfg in configs:
        assert graph_to_config(realize(cfg)) == cfg
    # every member up to ten vertices, realized under a random relabelling
    rng = random.Random(10)
    checked = 0
    for n in range(1, 11):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                g = realize(cfg)
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
                assert graph_to_config(h) == cfg, (cfg, perm)
                checked += 1
    assert checked == 2191


def test_graph_to_config_on_every_profile_graph_up_to_eight():
    # every graph with at most two vertices of degree >= 3, up to iso, from
    # the augmentation oracle: None exactly off the degree profile, else a
    # config whose realization is the graph
    from lapspec.enumeration import canonical_form

    for n in range(1, 9):
        members = 0
        for code in profile_states(n):
            g = from_graph6(code)
            degrees = g.degrees()
            hubs = sum(d >= 3 for d in degrees)
            in_profile = 1 <= hubs <= 2 and all(d >= 3 or d in (1, 2) for d in degrees)
            cfg = graph_to_config(g)
            if g.n < 2 or not is_connected(g) or not in_profile:
                assert cfg is None, code
                continue
            assert canonical_form(realize(cfg)) == code, (code, cfg)
            members += 1
        enumerated = sum(1 for family in ("G1", "G2") for _ in enumerate_family(family, n))
        assert members == enumerated, n


def test_realize_labelling_and_quotient_cells():
    # hubs 0 and 1; then the internal paths (3, 3, 5) from u to v; u's
    # pendants (1, 1) and its triangle; v's pendant of length 2 and its two
    # 4-cycles, each chain's vertices consecutive from its (first) hub
    cfg = FamilyConfig(
        "G2", True, (3, 3, 5), pendants_u=(1, 1), cycles_u=(3,), pendants_v=(2,), cycles_v=(4, 4)
    )
    edges = [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)]
    edges += [(0, 7), (0, 8), (0, 9), (9, 10), (10, 0)]
    edges += [(1, 11), (11, 12), (1, 13), (13, 14), (14, 15), (15, 1)]
    edges += [(1, 16), (16, 17), (17, 18), (18, 1)]
    assert realize(cfg) == Graph.from_edges(19, edges) and vertex_count(cfg) == 19
    cells = ((0,), (1,), (2, 3), (4,), (5,), (6,), (7, 8), (9,), (10,), (11,), (12,))
    cells += ((13, 16), (14, 17), (15, 18))
    assert quotient_cells(cfg) == cells
    assert quotient_matrix(laplacian(realize(cfg)), cells).rows == len(cells)
    # G1: one hub, its pendants then its cycles
    cfg = FamilyConfig("G1", pendants_u=(2, 2), cycles_u=(3,))
    assert realize(cfg) == Graph.from_edges(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 0)])
    assert quotient_cells(cfg) == ((0,), (1, 3), (2, 4), (5,), (6,))


def test_family_membership():
    assert family_membership(firefly(1, 2, 0)) == "G1"
    assert family_membership(cycle(8)) == "neither"
    assert family_membership(path(6)) == "neither"
    assert family_membership(complete(4)) == "neither"
    g = realize(FamilyConfig("G2", hub_edge=True, paths=(3, 5)))
    assert family_membership(g) == "G2_nonbipartite"
    assert family_membership(complete_bipartite(2, 5)) == "G2"
    # two hubs with all odd-order links need the hub edge for an odd cycle
    g = realize(FamilyConfig("G2", hub_edge=False, paths=(3, 3, 5)))
    assert is_bipartite(g)
    g = realize(FamilyConfig("G2", hub_edge=True, paths=(3, 3, 5)))
    assert not is_bipartite(g)


def test_bipartite_and_connected():
    assert not is_bipartite(cycle(5))
    assert is_bipartite(cycle(6))
    assert not is_connected(disjoint_union(complete(1), complete(1)))
    assert is_connected(complete(1))


def test_vertex_connectivity():
    assert vertex_connectivity(cycle(5)) == 2
    assert vertex_connectivity(star(6)) == 1
    assert vertex_connectivity(complete_bipartite(2, 6)) == 2
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(disjoint_union(complete(1), complete(1))) == 0
    # Every 3-vertex cut of this graph contains vertex 0, its first vertex of
    # least degree, so only the pairs of 0's neighbours show κ = 3.
    g = Graph.from_edges(
        7,
        [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
         (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (5, 6)],
    )
    assert vertex_connectivity(g) == _exhaustive_connectivity(g) == 3
    # The flow of one of this graph's pairs reaches κ = 2 only by sending a
    # unit back along an arc it used before.
    g = Graph.from_edges(
        9,
        [(0, 2), (0, 3), (0, 4), (0, 5), (0, 8), (1, 8), (1, 2), (3, 4), (3, 7),
         (4, 6), (4, 7), (5, 8), (5, 6), (7, 8)],
    )
    assert vertex_connectivity(g) == _exhaustive_connectivity(g) == 2


def _exhaustive_connectivity(g):
    """Oracle: the size of the smallest vertex subset whose removal leaves
    at least two components, by trying every subset in order of size."""
    for k in range(1, g.n - 1):
        for cut in combinations(range(g.n), k):
            if len(connected_components(g, cut)) > 1:
                return k
    return g.n - 1


def test_connectivity_flow_agrees_with_exhaustive():
    # the dense draws have many common neighbours per pair, so most of
    # their flow is seeded before any augmenting path is searched
    rng = random.Random(7)
    for n_max, p in ((9, 0.45), (12, 0.85)):
        checked = 0
        while checked < 60:
            n = rng.randint(4, n_max)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            if not is_connected(g) or g.edge_count == n * (n - 1) // 2:
                continue
            checked += 1
            assert vertex_connectivity(g) == _exhaustive_connectivity(g)


def test_graph6_codec():
    g = from_graph6("D?{")
    assert g.n == 5 and degree_sequence(g) == (4, 1, 1, 1, 1)
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(1, 12)
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4])
        assert from_graph6(to_graph6(g)) == g
    big = star(70)
    assert from_graph6(to_graph6(big)) == big
    assert from_graph6(">>graph6<<D?{").n == 5
    with pytest.raises(ValueError):
        from_graph6("D?")  # truncated body
    # the last character's two padding bits must be 0: D?| and D?~ would
    # decode to the star D?{ stands for
    for text in ("D?|", "D?~", "D?}", ">>graph6<<D?|"):
        with pytest.raises(ValueError, match="padding"):
            from_graph6(text)


def test_graph6_takes_the_4_byte_size_form_only_for_63_and_up():
    # ~??D is the 4-byte form of n = 5, which the 1-byte D stands for: so
    # ~??Ds_ would decode to the K1,4 that Ds_ stands for
    assert degree_sequence(from_graph6("Ds_")) == (4, 1, 1, 1, 1)
    for text in ("~??Ds_", "~???", "~??}" + "?" * 316):
        with pytest.raises(ValueError, match="outside 63..258047"):
            from_graph6(text)
    # ~~ opens the 8-byte size form, n >= 258048, which is refused as such
    # and never read as a 4-byte size
    for text in ("~~??????", "~~", "~~?~~~~~" + "?" * 12):
        with pytest.raises(ValueError, match="8-byte size form"):
            from_graph6(text)
    # the least size of the form decodes, and the largest gets as far as
    # the body's length
    assert from_graph6("~??~" + "?" * 326) == Graph.from_edges(63, [])
    assert from_graph6(to_graph6(star(63))) == star(63)
    with pytest.raises(ValueError, match="body length"):
        from_graph6("~}~~")


def _graph6_text(n, mask, head=None):
    """graph6 of the graph on n vertices whose upper triangle, column by
    column, is the n(n-1)/2 bits of mask, pair (0, 1) the highest; written
    here, apart from the library's encoder. head replaces the size head."""
    pairs = n * (n - 1) // 2
    pad = -pairs % 6
    if head is None:
        head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = mask << pad
    return head + "".join(chr(63 + (bits >> s & 63)) for s in range(pairs + pad - 6, -1, -6))


def _graph6_variants(n, mask):
    """(text, accepted) for the graph6 text of (n, mask) as it is, with a
    header and with whitespace, which from_graph6 must accept, and with
    padding bits set or a 4-byte size head below n = 63, which it must not."""
    text = _graph6_text(n, mask)
    yield from ((v, True) for v in (text, ">>graph6<<" + text, f" \t{text}\n", f"  >>graph6<<{text} "))
    pad = -(n * (n - 1) // 2) % 6
    for extra in range(1, 1 << pad):
        yield text[:-1] + chr(63 + (ord(text[-1]) - 63 | extra)), False
    if n <= 62:
        yield _graph6_text(n, mask, "~??" + chr(63 + n)), False


def test_a_decoded_graph_keeps_the_text_to_graph6_writes():
    rng = random.Random(48)
    cases = [(n, mask) for n in range(6) for mask in range(1 << n * (n - 1) // 2)]
    cases += [(n, rng.getrandbits(n * (n - 1) // 2)) for n in range(6, 71)]
    assert len({n for n, _ in cases if n >= 63}) == 8
    for n, mask in cases:
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        edges = [pair for k, pair in enumerate(reversed(pairs)) if mask >> k & 1]
        rebuilt = Graph.from_edges(n, edges)
        for text, accepted in _graph6_variants(n, mask):
            try:
                g = from_graph6(text)
            except ValueError:
                assert not accepted, text
                continue
            # any text the decoder takes is kept as the one encoding
            assert to_graph6(g) == to_graph6(rebuilt) == _graph6_text(n, mask), text
            assert g == rebuilt and hash(g) == hash(rebuilt)


def test_adjacency_text():
    g = realize(FamilyConfig("G2", hub_edge=True, paths=(3, 4)))
    text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert from_adjacency_text(text) == g
