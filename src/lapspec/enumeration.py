"""Exhaustive enumeration of the two sparse families and the final check.

Family members are enumerated structurally, by an integer-composition walk
over attachment multisets with one member per isomorphism class: the G1
members by hub side, and the G2 members in shards of one link set (hub
edge and internal paths), then by u side, then by v side.
enumerate_family turns the walk into FamilyConfig records. An independent
vertex-augmentation generator with canonical-form deduplication guards
completeness at small orders. The verification sweep walks the same
members in one process, shard by shard (the G1 members, then each G2 link
set and u side), with no FamilyConfig per member: it reads each member's
hub side, value table and degree off cached per-budget side records,
decides exact integrality from the value tables of the hub-side and link
folds (see matrices.side_table), compares against structural recognition
of the six closed families and tallies, member by member in place,
keeping nothing per member; given a text stream, it writes each member's
record to it.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from functools import lru_cache

from .graphs import (
    FamilyConfig,
    Graph,
    family_membership,
    from_graph6,
    graph_to_config,
    is_bipartite,
    realize,
    to_graph6,
)
from .matrices import (
    links_table,
    one_hub_coupling,
    quotient_values,
    side_sign_change,
    side_table,
    two_hub_coupling,
)
from .polys import deflate_values

DEFAULT_BUDGET = 12
BUDGET_ENV = "LAPSPEC_BUDGET"


class BudgetExceededError(ValueError):
    pass


def configured_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


def check_budget(n_max: int) -> None:
    """Raise BudgetExceededError when n_max exceeds the configured budget."""
    budget = configured_budget()
    if n_max > budget:
        raise BudgetExceededError(
            f"n_max={n_max} exceeds the budget {budget} (set {BUDGET_ENV} to raise it)"
        )


# -- structural enumeration ---------------------------------------------------


@lru_cache(maxsize=None)
def _partitions(total: int, min_part: int) -> tuple:
    """Nondecreasing tuples with the given sum, parts at least min_part, by
    first part, then the rest in this order: each first part joins the
    cached partitions of what it leaves, so a sub-partition is built once
    for every budget split that meets it."""
    if total == 0:
        return ((),)
    return tuple(
        (part,) + rest
        for part in range(min_part, total + 1)
        for rest in _partitions(total - part, part)
    )


def _cycle_multisets(budget: int):
    """Cycle-length multisets consuming exactly budget non-hub vertices."""
    for parts in _partitions(budget, 2):
        yield tuple(p + 1 for p in parts)


@lru_cache(maxsize=None)
def _sides(budget: int) -> tuple:
    """(pendant lengths, cycle lengths) pairs for one hub, exact budget."""
    return tuple(
        (pendants, cycles)
        for pend_used in range(budget + 1)
        for pendants in _partitions(pend_used, 1)
        for cycles in _cycle_multisets(budget - pend_used)
    )


@lru_cache(maxsize=None)
def _side_records(budget: int, size: int, min_degree: int) -> tuple:
    """(side, table, degree) for each hub side of _sides(budget), in that
    order, whose degree (FamilyConfig.side_degree) is at least min_degree:
    table is the side's side_table of size entries, or None for size 0, a
    walk that decides nothing. The records of one budget and size are
    built once and shared by every min_degree, and they reference the
    cached tables, so the walk reads a member's table and degree with no
    lookup."""
    if min_degree:
        return tuple(r for r in _side_records(budget, size, 0) if r[2] >= min_degree)
    return tuple(
        (side, side_table(*side, size) if size else None, FamilyConfig.side_degree(*side))
        for side in _sides(budget)
    )


@lru_cache(maxsize=None)
def _g1_records(n: int, size: int) -> tuple:
    """The side records (see _side_records) of the G1 members on n
    vertices, each hub side of degree at least 3 one member, cycles before
    pendants: by cycle budget, then cycles, then pendants."""
    by_side = {record[0]: record for record in _side_records(n - 1, size, 3)}
    return tuple(
        by_side[pendants, cycles]
        for cyc_used in range(n)
        for cycles in _cycle_multisets(cyc_used)
        for pendants in _partitions(n - 1 - cyc_used, 1)
        if (pendants, cycles) in by_side
    )


@lru_cache(maxsize=None)
def _g2_links(n: int) -> tuple:
    """The (hub edge, internal paths) pairs of the G2 members on n vertices."""
    budget = n - 2
    links = []
    for hub_edge in (False, True):
        for path_used in range(budget + 1):
            for parts in _partitions(path_used, 1):
                paths = tuple(p + 2 for p in parts)
                if hub_edge or paths:
                    links.append((hub_edge, paths))
    return tuple(links)


def _g2_sides(n: int, hub_edge: bool, paths: tuple, size: int):
    """(u record, [v records]) for the G2 members on n vertices with these
    links, records as _side_records gives them, each pair of sides one
    member: every hub has degree at least 3 and the u side is the lighter
    (see FamilyConfig). The one u/v-side loop of the walk."""
    rem = n - 2 - sum(p - 2 for p in paths)
    min_degree = max(0, 3 - hub_edge - len(paths))
    for bu in range(rem + 1):
        v_all = _side_records(rem - bu, size, min_degree)
        for record_u in _side_records(bu, size, min_degree) if v_all else ():
            side_u = record_u[0]
            v_records = [record for record in v_all if side_u <= record[0]]
            if v_records:
                yield record_u, v_records


def enumerate_family(family: str, n: int):
    """Every family member on n vertices, one config per iso class.

    The walk is the sweep's (see verify_theorem), with no value tables:
    G1 members by hub side, G2 members by links, then u side, then v side.
    It builds each config already normalized (multisets ascending, the
    lighter hub side first), so FamilyConfig keeps the walk's shared
    tuples rather than sorting copies.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if family == "G1":
        for (pendants, cycles), _, _ in _g1_records(n, 0):
            yield FamilyConfig("G1", pendants_u=pendants, cycles_u=cycles)
    elif family == "G2":
        for hub_edge, paths in _g2_links(n):
            for ((pu, cu), _, _), v_records in _g2_sides(n, hub_edge, paths, 0):
                for (pv, cv), _, _ in v_records:
                    yield FamilyConfig("G2", hub_edge, paths, pu, cu, pv, cv)
    else:
        raise ValueError(f"unknown family {family!r}")


# -- canonical forms (refinement + individualization) -------------------------


def canonical_form(g: Graph) -> str:
    """graph6 of the canonically relabeled graph; equal iff isomorphic."""
    n = g.n
    if n <= 1 or g.edge_count == 0:
        return to_graph6(Graph.from_edges(n, []) if g.edge_count == 0 else g)
    best = [None, None]  # (key, permutation)

    def refine(colors):
        # A round that splits no class leaves the partition equitable; its
        # colouring is the one the next round would return unchanged.
        classes = len(set(colors))
        while True:
            sig = [
                (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
                for v in range(n)
            ]
            order = {s: i for i, s in enumerate(sorted(set(sig)))}
            colors = tuple(order[sig[v]] for v in range(n))
            if len(order) == classes:
                return colors
            classes = len(order)

    def branch_reps(cell):
        # Vertices joined by a twin transposition give automorphic
        # branches; keep one representative per twin class.
        reps = []
        classes = []
        for v in cell:
            placed = False
            for cls in classes:
                u = cls[0]
                if g.adj[u] == g.adj[v] or g.adj[u] - {v} == g.adj[v] - {u}:
                    cls.append(v)
                    placed = True
                    break
            if not placed:
                classes.append([v])
        for cls in classes:
            reps.append(min(cls))
        return reps

    def search(colors):
        colors = refine(colors)
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            key = tuple(
                1 if g.has_edge(perm[i], perm[j]) else 0
                for j in range(1, n)
                for i in range(j)
            )
            if best[0] is None or key < best[0]:
                best[0], best[1] = key, perm
            return
        for v in branch_reps(target):
            new = list(colors)
            new[v] = -1
            search(tuple(new))

    search((0,) * n)
    perm = best[1]
    pos = {v: i for i, v in enumerate(perm)}
    relabeled = Graph.from_edges(n, [(pos[u], pos[v]) for u, v in g.edges()])
    return to_graph6(relabeled)


# -- independent small-order oracle -------------------------------------------


@lru_cache(maxsize=None)
def _profile_states(n: int):
    """All graphs (up to iso) on n vertices with at most two degree-3+
    vertices, built by vertex augmentation; includes disconnected ones."""
    if n == 1:
        return (canonical_form(Graph.from_edges(1, [])),)
    out = set()
    for code in _profile_states(n - 1):
        h = from_graph6(code)
        for mask in range(1 << h.n):
            edges = h.edges() + [
                (v, h.n) for v in range(h.n) if mask >> v & 1
            ]
            g = Graph.from_edges(h.n + 1, edges)
            if sum(1 for v in range(g.n) if g.degree(v) >= 3) > 2:
                continue
            out.add(canonical_form(g))
    return tuple(sorted(out))


def brute_force_oracle(n: int) -> dict:
    """Canonical forms of all family members on n vertices, by family.

    Generic augmentation plus isomorphism dedup; completely independent of
    the structural config enumeration it validates.
    """
    if n > 8:
        raise ValueError("the oracle is limited to at most 8 vertices")
    out = {"G1": set(), "G2": set()}
    for code in _profile_states(n):
        g = from_graph6(code)
        member = family_membership(g)
        if member == "G1":
            out["G1"].add(code)
        elif member.startswith("G2"):
            out["G2"].add(code)
    return out


# -- structural recognition of the six listed families ------------------------

TAG_STAR = "K_{1,n-1}"
TAG_PRODUCT = "K_2+K_{1,n-3}"
TAG_BICLIQUE = "K_{2,n-2}"
TAG_FIREFLY = "F_{r,s,0}"
TAG_JOIN_ONE = "K_1∨(rK_1∪sK_2∪K_{1,t})"
TAG_JOIN_TWO = "K_2∨(n-2)K_1"
TAG_NONE = "none"

ALL_TAGS = (
    TAG_STAR,
    TAG_PRODUCT,
    TAG_BICLIQUE,
    TAG_FIREFLY,
    TAG_JOIN_ONE,
    TAG_JOIN_TWO,
)


def config_tag(cfg: FamilyConfig) -> str:
    """Which of the six closed families the config realizes, if any.

    Recognition is structural; parameter floors (two leaves on the star
    side, and so on) are enforced by family membership itself. Two of the
    source text's parameter bounds are provably too strict and are relaxed
    here: triangles-only hubs (no pendant edge) and joins with a single
    extra component are integral members; see the erratum report.
    """
    return _key_tag(*cfg)


def _key_tag(family, hub_edge, paths, pendants_u, cycles_u, pendants_v, cycles_v) -> str:
    """config_tag of the config with these fields, so that the sweep tags a
    member with no FamilyConfig built."""
    if family == "G1":
        if not cycles_u and all(p == 1 for p in pendants_u):
            return TAG_STAR
        if cycles_u and all(c == 3 for c in cycles_u) and all(p == 1 for p in pendants_u):
            return TAG_FIREFLY
        return TAG_NONE
    side_u = pendants_u or cycles_u
    side_v = pendants_v or cycles_v
    if not side_u and not side_v and paths:
        if hub_edge and all(o == 4 for o in paths):
            return TAG_PRODUCT
        if hub_edge and all(o == 3 for o in paths):
            return TAG_JOIN_TWO
        if not hub_edge and all(o == 3 for o in paths):
            return TAG_BICLIQUE
        return TAG_NONE
    if (
        hub_edge
        and not side_u
        and side_v
        and paths
        and all(o == 3 for o in paths)
        and all(p == 1 for p in pendants_v)
        and all(c == 3 for c in cycles_v)
    ):
        return TAG_JOIN_ONE
    return TAG_NONE


def theorem_tag(g: Graph) -> str:
    cfg = graph_to_config(g)
    if cfg is None:
        return TAG_NONE
    return config_tag(cfg)


# -- the classification sweep --------------------------------------------------


def member_record(n: int, key: tuple, integral: bool, tag: str) -> dict:
    """The --out record of the member whose FamilyConfig has the fields key,
    its integrality and its tag; the only place the sweep realizes a graph."""
    g = realize(FamilyConfig._make(key))
    return {
        "graph6": to_graph6(g),
        "family": key[0],
        "n": n,
        "config": list(key),
        "bipartite": is_bipartite(g),
        "integral": integral,
        "tag": tag,
        "agreement": integral == (tag != TAG_NONE),
    }


class TheoremSummary(namedtuple("TheoremSummary", "n_min n_max rows disagreements stats")):
    """The tally of a classification sweep over the orders n_min..n_max.

    rows holds (n, family, graphs, integral, disagreements) per order and
    family; disagreements, the member_record of each member, of any order,
    whose integrality and tag disagree; stats, the counts and stage seconds
    of the run (see verify_theorem). Equality and hashing leave stats out,
    so two runs of one range are equal whatever their timings.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:-1])

    def to_tsv(self) -> str:
        lines = ["n\tfamily\tgraphs\tintegral\tdisagreements"]
        for n, family, graphs, integral, dis in self.rows:
            lines.append(f"{n}\t{family}\t{graphs}\t{integral}\t{dis}")
        return "\n".join(lines)


def _shard_groups(n, size):
    """The sweep's shards at order n in walk order: the G1 members as one
    shard, then one per G2 link set and u side. Each is (key prefix,
    coupling, ok, base, u record, v records), with the side records of
    _side_records (u record None for G1), one member per v record (side,
    table, degree): its fields are prefix + side + suffix (suffix () for G2,
    the empty v side for G1), and the hub carrying the side has degree
    base + degree. ok is false when the chains the shard fixes (the links
    and the u side) repeat a kind whose θ has a non-integer root, any kind
    but the pendant edge, the triangle and the internal paths of order 3
    and 4 (see matrices.side_table). A shard with no member is skipped."""
    g1_records = _g1_records(n, size)
    if g1_records:
        yield ("G1", False, ()), one_hub_coupling(size), True, 0, None, g1_records
    for hub_edge, paths in _g2_links(n):
        links = links_table(paths, hub_edge, size)
        base = hub_edge + len(paths)
        for record_u, v_records in _g2_sides(n, hub_edge, paths, size):
            side_u, table_u, degree_u = record_u
            ok = links[3] and table_u[2]
            coupling = two_hub_coupling(links, table_u, base + degree_u) if ok else None
            yield ("G2", hub_edge, paths) + side_u, coupling, ok, base, record_u, v_records


def _integral_from_values(values) -> bool:
    """Whether the quotient Q of an n-vertex member, given as its values
    [Q(0), ..., Q(n)], has only integer roots.

    Q's roots are eigenvalues of the member's Laplacian L(G) (Q is the
    characteristic polynomial of an equitable quotient of L(G)), and they
    lie in [0, n]: L(G) + L(Ḡ) = nI - J for the complement Ḡ, and L(Ḡ)
    and J are positive semidefinite, so 0 ≼ L(G) ≼ nI - J ≼ nI. Q's
    integer roots are therefore exactly the k in 0..n with Q(k) = 0, and
    deflating Q by each of them, as often as it is a root, leaves a
    constant exactly when Q has no other root. polys.deflate_values
    deflates on the values, with no coefficient built and no divisor
    search: the cofactor is a constant exactly when its values at 0..n
    are all equal (to 1, Q being monic)."""
    zeros = [k for k, q in enumerate(values) if not q]
    rest = deflate_values(values, zeros)[1]
    return rest.count(rest[0]) == len(rest)


def _decide_shard(n, shard, size, row, counts, mismatches, out):
    """Decide, tag and tally every member of one shard of order n from the
    value tables of size entries (see matrices.side_sign_change), reading
    each member's table and degree off its v record.

    A member is not integral when it repeats a chain kind whose θ has a
    non-integer root, which the tables' flags read off the chain kinds by
    rule (a repeated exit), or when its equitable quotient changes sign
    between consecutive integers (a sign exit), both decided with no
    polynomial built. For the members left, the integer-root test
    decides on the quotient's values at 0..n (see _integral_from_values).
    Each member is tagged by _key_tag, except in a G2 shard with a
    non-empty u side, whose members all tag none. The members are tallied
    into row (graphs, integral, disagreements) and the exits and
    root-test seconds into counts; a member gets a FamilyConfig only in
    its member_record, which is kept, in mismatches, only when the member
    disagrees. Given a text stream out, each member's record is written to
    it as one JSON line as soon as the member is decided."""
    prefix, coupling, ok, base, _, v_records = shard
    suffix = ((), ()) if prefix[0] == "G1" else ()
    # a G2 member with a non-empty u side can only tag none (see _key_tag)
    tag_none = prefix[0] == "G2" and bool(prefix[3] or prefix[4])
    clock = time.perf_counter
    integrals = disagreements = repeated = signs = 0
    root_s = 0.0
    for side, table, degree in v_records:
        degree += base
        if not (ok and table[2]):
            repeated += 1
            integral = False
        elif side_sign_change(coupling, table, degree, n) is not None:
            signs += 1
            integral = False
        else:
            t0 = clock()
            integral = _integral_from_values(quotient_values(coupling, table, degree, n))
            root_s += clock() - t0
        tag = TAG_NONE if tag_none else _key_tag(*prefix, *side, *suffix)
        integrals += integral
        if integral == (tag == TAG_NONE) or out is not None:
            record = member_record(n, prefix + side + suffix, integral, tag)
            if not record["agreement"]:
                disagreements += 1
                mismatches.append(record)
            if out is not None:
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
    row[0] += len(v_records)
    row[1] += integrals
    row[2] += disagreements
    counts["repeated_exits"] += repeated
    counts["sign_exits"] += signs
    counts["root_test_s"] += root_s


def _fill_tables(n_max: int) -> None:
    """Fill the value tables of every hub side and link set of the members
    on at most n_max vertices."""
    for budget in range(n_max):
        for pendants, cycles in _sides(budget):
            side_table(pendants, cycles, n_max + 1)
    for hub_edge, paths in _g2_links(n_max):
        links_table(paths, hub_edge, n_max + 1)


def check_sweep_range(n_min: int, n_max: int) -> None:
    """The checks verify_theorem makes before it walks: BudgetExceededError
    when n_max exceeds the budget, else ValueError for an empty range or
    n_min below 1."""
    check_budget(n_max)
    if n_min < 1 or n_min > n_max:
        raise ValueError("need 1 <= n_min <= n_max")


def verify_theorem(n_min: int, n_max: int, out=None) -> TheoremSummary:
    """Classify every family member in the range and tally agreement.

    Disagreement means exact integrality and membership in the six listed
    families differ; at nine or more vertices the classification promises
    there are none.

    The sweep fills the value tables of every hub side and link set up to
    n_max once, then walks the shards of _shard_groups order by order in
    one process and decides, tags and tallies each member in place with
    no graph built (see _decide_shard), keeping only the member_record of
    each disagreeing member. Given a text stream out, the walk realizes
    each member and writes its record to out as one JSON line, in walk
    order. The summary's stats hold the number of configs, the distinct
    chains, hub sides and internal-path sets met, the repeated_exits and
    sign_exits, and the seconds of filling the tables (tables_s), of the
    integer-root tests of the members left (root_test_s) and of the whole
    walk, writing to out included (walk_s).
    """
    check_sweep_range(n_min, n_max)
    clock = time.perf_counter
    t0 = clock()
    _fill_tables(n_max)
    t1 = clock()
    size = n_max + 1
    mismatches, tally, met, links = [], {}, set(), set()
    counts = {"repeated_exits": 0, "sign_exits": 0, "root_test_s": 0.0}
    for n in range(n_min, n_max + 1):
        for shard in _shard_groups(n, size):
            prefix, record_u, v_records = shard[0], shard[4], shard[5]
            if record_u is not None:
                links.add(prefix[1:3])
                met.add(id(record_u))
            met.update(map(id, v_records))
            row = tally.setdefault((n, prefix[0]), [0, 0, 0])
            _decide_shard(n, shard, size, row, counts, mismatches, out)
    t2 = clock()
    rows = tuple((n, family, *tally[(n, family)]) for n, family in sorted(tally))
    # every record is one of _side_records(budget, size, 0)'s, so the sides
    # met are those whose record's identity the walk noted
    sides = [
        record[0]
        for budget in range(n_max)
        for record in _side_records(budget, size, 0)
        if id(record) in met
    ]
    chains = {("path", order) for _, paths in links for order in paths}
    for pendants, cycles in sides:
        chains.update(("pendant", length) for length in pendants)
        chains.update(("cycle", length) for length in cycles)
    stats = {
        "configs": sum(row[2] for row in rows),
        "chains": len(chains),
        "sides": len(sides),
        "links": len(links),
        "repeated_exits": counts["repeated_exits"],
        "sign_exits": counts["sign_exits"],
        "tables_s": round(t1 - t0, 6),
        "root_test_s": round(counts["root_test_s"], 6),
        "walk_s": round(t2 - t1, 6),
    }
    return TheoremSummary(
        n_min=n_min, n_max=n_max, rows=rows, disagreements=tuple(mismatches), stats=stats
    )
