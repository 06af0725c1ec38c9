"""Labeled undirected simple graphs and structured family configurations.

Graphs are immutable once built: vertex indices 0..n-1 with a symmetric,
irreflexive adjacency relation. The two structured families handled by
the rest of the library are described by FamilyConfig records: sparse
connected graphs having exactly one (G1) or exactly two (G2) vertices of
degree at least three, every other vertex of degree one or two.

A member is its hubs plus a list of chains (internal paths, pendant paths
and cycles), each a bare path of non-hub vertices with one or two hub
edges at its ends. That one chain layout (_chains) gives realize its
labelling and quotient_cells its equitable partition, and
graph_to_config reads it back off a graph, connectivity included, from
the hub edges of each component left when the hubs are removed.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import combinations, groupby, islice


class Graph:
    """Immutable simple graph on vertices 0..n-1.

    A graph that from_graph6 decoded keeps the text it read, which is the
    one graph6 string of its edges, and to_graph6 returns it; equality and
    hashing see only n and adj.
    """

    __slots__ = ("n", "adj", "_graph6")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self._graph6 = None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, adj)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self):
        return [len(s) for s in self.adj]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- constructors ---------------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    return Graph(n, [set() for _ in range(n)])


def path(k: int) -> Graph:
    if k < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def star(k: int) -> Graph:
    """Star on k vertices: one center adjacent to k-1 leaves."""
    if k < 1:
        raise ValueError("a star needs at least one vertex")
    return Graph.from_edges(k, [(0, i) for i in range(1, k)])


def complete(k: int) -> Graph:
    if k < 1:
        raise ValueError("a complete graph needs at least one vertex")
    return Graph.from_edges(k, combinations(range(k), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges())
        n += g.n
    return Graph.from_edges(n, edges)


def join(g: Graph, h: Graph) -> Graph:
    base = disjoint_union(g, h)
    extra = [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return Graph.from_edges(base.n, base.edges() + extra)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (u1,u2) ~ (v1,v2) iff equal in one slot, adjacent in the other."""
    n = g.n * h.n

    def idx(i, j):
        return i * h.n + j

    edges = []
    for i in range(g.n):
        for ja, jb in h.edges():
            edges.append((idx(i, ja), idx(i, jb)))
    for j in range(h.n):
        for ia, ib in g.edges():
            edges.append((idx(ia, j), idx(ib, j)))
    return Graph.from_edges(n, edges)


def firefly(r: int, s: int, t: int) -> Graph:
    """Hub with r triangles, s pendant edges, t pendant 2-paths attached.

    2r + s + 2t + 1 vertices, hub degree 2r + s + t.
    """
    if r < 0 or s < 0 or t < 0:
        raise ValueError("parameters must be nonnegative")
    if r + s + t == 0:
        raise ValueError("at least one attachment is required")
    edges = []
    nxt = 1
    for _ in range(r):
        a, b = nxt, nxt + 1
        edges += [(0, a), (0, b), (a, b)]
        nxt += 2
    for _ in range(s):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(t):
        a, b = nxt, nxt + 1
        edges += [(0, a), (a, b)]
        nxt += 2
    return Graph.from_edges(nxt, edges)


# -- basic predicates and invariants ---------------------------------------


def degree_sequence(g: Graph):
    return tuple(sorted(g.degrees(), reverse=True))


def connected_components(g: Graph, removed=frozenset()):
    """Sorted vertex lists of the components of g without the removed vertices."""
    seen = set(removed)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def is_bipartite(g: Graph) -> bool:
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def vertex_connectivity(g: Graph) -> int:
    """Minimum number of vertices whose removal disconnects the graph.

    Disconnected input returns 0; complete graphs n-1. Otherwise the
    minimum, over the vertex pairs of Esfahanian and Hakimi (Networks 14,
    1984), of the number of internally vertex-disjoint paths (Menger), each
    found by unit-capacity max flow on the node-split digraph (Even and
    Tarjan, SIAM J. Comput. 4, 1975), whose state for a pair is one
    residual list of sets. Take a vertex v and a minimum cut S.
    If v is not in S, S separates v from some vertex not adjacent to it. If
    v is in S, v has a neighbour in every component of G - S, or S - {v}
    would be a smaller cut, so S separates two non-adjacent neighbours of
    v. The pairs (v, w), w not adjacent to v, and (x, y), x and y
    non-adjacent neighbours of v, therefore include one that S separates;
    v of least degree keeps the second kind few, and its degree, which
    bounds the minimum (κ ≤ δ), caps every flow.
    """
    n = g.n
    if n <= 1 or not is_connected(g):
        return 0
    if g.edge_count == n * (n - 1) // 2:
        return n - 1
    anchor = min(range(n), key=g.degree)
    best = g.degree(anchor)
    pairs = [(anchor, t) for t in range(n) if t != anchor and t not in g.adj[anchor]]
    nbrs = sorted(g.adj[anchor])
    pairs += [(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in g.adj[a]]
    # the node-split digraph: v splits into v_in = 2v and v_out = 2v+1
    # joined by a capacity-1 arc, and an edge vw gives v_out -> w_in
    out = [[] for _ in range(2 * n)]
    for v in range(n):
        out[2 * v].append(2 * v + 1)
        for w in g.adj[v]:
            out[2 * v + 1].append(2 * w)
    for s, t in pairs:
        if best == 1:  # the floor of a connected graph
            break
        best = _max_vertex_disjoint_paths(out, s, t, best, g.adj[s] & g.adj[t])
    return best


def _max_vertex_disjoint_paths(out, s: int, t: int, cap: int, common) -> int:
    """Count internally vertex-disjoint s-t paths, stopping early at cap,
    by unit-capacity max flow on the node-split digraph with adjacency
    lists out (see vertex_connectivity). The flow's whole state is one
    residual list of sets, res[x] holding each y that x can still send a
    unit to: the digraph has no antiparallel arcs, so sending along x -> y
    moves y out of res[x] and x into res[y], whether x -> y is an arc or
    cancels a unit sent along y -> x. The flow starts from the paths
    s -> c -> t through the common neighbours c of s and t, which are
    disjoint; augmenting from a feasible flow still reaches the maximum."""
    src, snk = 2 * s + 1, 2 * t
    res = [set(ys) for ys in out]
    total = 0
    for c in islice(common, cap):
        for x, y in ((src, 2 * c), (2 * c, 2 * c + 1), (2 * c + 1, snk)):
            res[x].remove(y)
            res[y].add(x)
        total += 1
    while total < cap:
        prev = {src: None}
        queue = deque([src])
        while queue and snk not in prev:
            x = queue.popleft()
            for y in res[x]:
                if y not in prev:
                    prev[y] = x
                    if y == snk:
                        break
                    queue.append(y)
        if snk not in prev:
            break
        y = snk
        while y != src:
            x = prev[y]
            res[x].remove(y)
            res[y].add(x)
            y = x
        total += 1
    return total


# -- family configurations --------------------------------------------------


def _ordered(value) -> tuple:
    """value as a sorted tuple: value itself when it is one already."""
    ordered = tuple(sorted(value))
    return value if ordered == value else ordered


class FamilyConfig(
    namedtuple(
        "FamilyConfig",
        "family hub_edge paths pendants_u cycles_u pendants_v cycles_v",
    )
):
    """Structural description of a G1 or G2 family member.

    G1: a single hub carrying pendant paths (lengths >= 1) and cycles
    (lengths >= 3); only the u-side fields are used. G2: two hubs u, v,
    optionally adjacent, joined by internal paths (orders >= 3, counting
    both hubs), each hub carrying its own pendant paths and cycles.

    Construction normalizes and validates: the multisets are sorted and a
    G2 member's lighter hub side comes first, so equal configs are
    isomorphic members, and a config that is no family member raises
    ValueError. A field given sorted keeps its tuple, so configs can share
    them. An immutable named tuple: tuple(cfg) is its key, and _make and
    _replace normalize and validate as construction does.
    """

    __slots__ = ()

    def __new__(
        cls, family, hub_edge=False, paths=(), pendants_u=(), cycles_u=(), pendants_v=(), cycles_v=()
    ):
        paths, pu, cu, pv, cv = map(_ordered, (paths, pendants_u, cycles_u, pendants_v, cycles_v))
        if family == "G2" and (pv, cv) < (pu, cu):
            pu, cu, pv, cv = pv, cv, pu, cu
        self = super().__new__(cls, family, hub_edge, paths, pu, cu, pv, cv)
        if family not in ("G1", "G2"):
            raise ValueError(f"unknown family {family!r}")
        if any(p < 1 for p in pu + pv):
            raise ValueError("pendant path lengths must be >= 1")
        if any(c < 3 for c in cu + cv):
            raise ValueError("cycle lengths must be >= 3")
        if family == "G1":
            if hub_edge or paths or pv or cv:
                raise ValueError("G1 configs use only the hub-side fields")
            if self.hub_degree_u() < 3:
                raise ValueError("hub degree must be >= 3")
        else:
            if any(p < 3 for p in paths):
                raise ValueError("internal path orders must be >= 3")
            if not hub_edge and not paths:
                raise ValueError("disconnected: need the hub edge or an internal path")
            if self.hub_degree_u() < 3 or self.hub_degree_v() < 3:
                raise ValueError("both hub degrees must be >= 3")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @staticmethod
    def side_degree(pendants, cycles) -> int:
        """The degree a hub gets from its pendant paths and cycles."""
        return len(pendants) + 2 * len(cycles)

    def hub_degree_u(self) -> int:
        return self.side_degree(self.pendants_u, self.cycles_u) + self._link_degree()

    def hub_degree_v(self) -> int:
        return self.side_degree(self.pendants_v, self.cycles_v) + self._link_degree()

    def _link_degree(self) -> int:
        """The degree each hub gets from the internal paths and hub edge."""
        return len(self.paths) + bool(self.hub_edge)


def _chains(cfg: FamilyConfig) -> list:
    """(k, first hub, last hub or None) for each chain of a member, k its
    vertices other than hubs, in realize's order: the internal paths
    (order - 2 vertices from u to v), then u's pendants (length, u, None)
    and cycles (length - 1, u, u), then v's. u is vertex 0 and v vertex 1;
    a G1 member has no internal paths and no v side. Equal chains are
    adjacent, the multisets being sorted."""
    chains = [(order - 2, 0, 1) for order in cfg.paths]
    sides = ((0, cfg.pendants_u, cfg.cycles_u), (1, cfg.pendants_v, cfg.cycles_v))
    for hub, pendants, cycles in sides:
        chains += [(length, hub, None) for length in pendants]
        chains += [(length - 1, hub, hub) for length in cycles]
    return chains


def _hub_count(cfg: FamilyConfig) -> int:
    return 1 if cfg.family == "G1" else 2


def realize(cfg: FamilyConfig) -> Graph:
    """Build the labeled graph of a config under the canonical labeling.

    The hubs come first (u = 0, and v = 1 for G2). Each chain of _chains
    then takes the next k labels in order, from the end joined to its
    first hub onwards, and a chain with a last hub (an internal path or a
    cycle) joins its final vertex to it.
    """
    edges = [(0, 1)] if cfg.hub_edge else []
    nxt = _hub_count(cfg)
    for k, first, last in _chains(cfg):
        edges.append((first, nxt))
        edges.extend((w, w + 1) for w in range(nxt, nxt + k - 1))
        nxt += k
        if last is not None:
            edges.append((nxt - 1, last))
    return Graph.from_edges(nxt, edges)


def quotient_cells(cfg: FamilyConfig) -> tuple:
    """The equitable partition of realize(cfg) whose quotient's
    characteristic polynomial the value tables give (see
    matrices.quotient_values): each hub alone, then one cell per run of
    equal chains and position along the chain, ordered by smallest vertex."""
    cells = [(hub,) for hub in range(_hub_count(cfg))]
    nxt = len(cells)
    for (k, _, _), run in groupby(_chains(cfg)):
        end = nxt + k * len(list(run))
        cells.extend(tuple(range(nxt + j, end, k)) for j in range(k))
        nxt = end
    return tuple(cells)


def graph_to_config(g: Graph):
    """Recover the FamilyConfig of a family member, or None.

    A member is connected with one or two hubs (vertices of degree at
    least three) and every other vertex of degree one or two, so each
    component of G minus the hubs is a bare path whose ends carry its hub
    edges: one edge makes it a pendant path, two to the same hub a cycle
    through that hub, and one to each hub an internal path. G is connected
    exactly when each component has a hub edge and two hubs are adjacent
    or joined by an internal path, so no whole-graph search is made.
    """
    hubs = [v for v in range(g.n) if g.degree(v) >= 3]
    if not 1 <= len(hubs) <= 2:
        return None
    u, v = hubs[0], hubs[-1]
    sides = {u: ([], []), v: ([], [])}
    paths = []
    for comp in connected_components(g, hubs):
        ends = sorted(h for w in comp for h in g.adj[w] if h in sides)
        if not ends:
            return None
        if len(ends) == 1:
            sides[ends[0]][0].append(len(comp))
        elif ends[0] == ends[1]:
            sides[ends[0]][1].append(len(comp) + 1)
        else:
            paths.append(len(comp) + 2)
    (pu, cu), (pv, cv) = sides[u], sides[v]
    if u == v:
        return FamilyConfig("G1", pendants_u=tuple(pu), cycles_u=tuple(cu))
    hub_edge = g.has_edge(u, v)
    if not (hub_edge or paths):
        return None
    return FamilyConfig("G2", hub_edge, tuple(paths), tuple(pu), tuple(cu), tuple(pv), tuple(cv))


def config_membership(cfg, bipartite: bool) -> str:
    """The family of a graph, one of 'G1', 'G2', 'G2_nonbipartite' and
    'neither', from its graph_to_config (None for a non-member) and
    whether it is bipartite."""
    if cfg is None:
        return "neither"
    if cfg.family == "G1":
        return "G1"
    return "G2" if bipartite else "G2_nonbipartite"


# -- graph6 codec -----------------------------------------------------------


def to_graph6(g: Graph) -> str:
    """Encode in the standard printable-ASCII graph6 format (no header):
    the text from_graph6 read, for a graph it decoded."""
    if g._graph6 is not None:
        return g._graph6
    # pair (i, j) of the upper triangle, column by column, is bit
    # j(j-1)/2 + i from the top
    top = g.n * (g.n - 1) // 2 - 1
    key = 0
    for i, j in g.edges():
        key |= 1 << (top - j * (j - 1) // 2 - i)
    return triangle_graph6(g.n, key)


def triangle_graph6(n: int, key: int) -> str:
    """graph6 (no header) of the graph on n vertices whose upper triangle,
    read column by column with pair (0, 1) the most significant bit, is the
    n(n-1)/2 bits of key."""
    if n > 258047:
        raise ValueError("graph too large for the supported graph6 sizes")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = chr(126) + "".join(
            chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0)
        )
    # padded to whole 6-bit characters
    width = (n * (n - 1) // 2 + 5) // 6 * 6
    key <<= width - n * (n - 1) // 2
    return head + "".join(chr(63 + (key >> shift & 63)) for shift in range(width - 6, -1, -6))


#: The six bits, highest first, that a graph6 character stands for.
_GRAPH6_BITS = {63 + d: format(d, "06b") for d in range(64)}


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<") :]
    if not text:
        raise ValueError("empty graph6 string")
    if min(text) < "?" or max(text) > "~":
        raise ValueError("invalid graph6 character")
    if text[0] == "~":
        if text[1:2] == "~":
            raise ValueError("the graph6 8-byte size form (n >= 258048) is not supported")
        if len(text) < 4:
            raise ValueError("truncated graph6 size")
        n = int(text[1:4].translate(_GRAPH6_BITS), 2)
        if not 63 <= n <= 258047:  # the one size range of the 4-byte form
            raise ValueError(f"graph6 size {n} outside 63..258047, the range of its 4-byte form")
        body = text[4:]
    else:
        n = ord(text[0]) - 63
        body = text[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError("graph6 body length does not match the vertex count")
    # column j of the upper triangle is the j bits of the pairs (0, j), ...,
    # (j - 1, j), read as one int whose bit j - 1 - i is the pair (i, j)
    bits = body.translate(_GRAPH6_BITS)
    if "1" in bits[n * (n - 1) // 2 :]:
        raise ValueError("nonzero graph6 padding bits")
    adj = [set() for _ in range(n)]
    start = 0
    for j in range(1, n):
        column = int(bits[start : start + j], 2)
        start += j
        while column:
            k = column.bit_length() - 1
            adj[j - 1 - k].add(j)
            adj[j].add(j - 1 - k)
            column ^= 1 << k
    g = Graph(n, adj)
    # the decoder takes one text per graph: no padding bit set, and the
    # 4-byte size form only for n >= 63, so text is what to_graph6 writes
    g._graph6 = text
    return g


# -- adjacency-list text format ----------------------------------------------


def from_adjacency_text(text: str) -> Graph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty adjacency text")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)
