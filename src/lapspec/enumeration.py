"""Exhaustive enumeration of the two sparse families and the final check.

Family members are enumerated structurally as FamilyConfig records (an
integer-composition walk over attachment multisets, one config per
isomorphism class). An independent vertex-augmentation generator with
canonical-form deduplication guards completeness at small orders. The
verification sweep decides exact integrality for every member and compares
against structural recognition of the six closed families.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from enum import Enum
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
from .matrices import family_factors, quotient_sign_change, repeated_factors
from .polys import split_integer_roots

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


def check_budget(n_max: int, budget: int | None = None) -> None:
    """Raise BudgetExceededError when n_max exceeds the budget, by default
    the configured one."""
    budget = configured_budget() if budget is None else budget
    if n_max > budget:
        raise BudgetExceededError(
            f"n_max={n_max} exceeds the budget {budget} (set {BUDGET_ENV} to raise it)"
        )


# -- structural enumeration ---------------------------------------------------


def _partitions(total: int, min_part: int):
    """Nondecreasing tuples with the given sum; parts at least min_part."""
    if total == 0:
        yield ()
        return

    def rec(rem, lo):
        if rem == 0:
            yield ()
            return
        for part in range(lo, rem + 1):
            for rest in rec(rem - part, part):
                yield (part,) + rest

    yield from rec(total, min_part)


def _cycle_multisets(budget: int):
    """Cycle-length multisets consuming exactly budget non-hub vertices."""
    for parts in _partitions(budget, 2):
        yield tuple(p + 1 for p in parts)


def _side_options(budget: int):
    """(pendant lengths, cycle lengths) pairs for one hub, exact budget."""
    for pend_used in range(budget + 1):
        for pendants in _partitions(pend_used, 1):
            for cycles in _cycle_multisets(budget - pend_used):
                yield pendants, cycles


def enumerate_family(family: str, n: int):
    """Every family member on exactly n vertices, one config per iso class.

    The walk builds each config already normalized (multisets ascending,
    the lighter hub side first), so FamilyConfig keeps the walk's shared
    tuples rather than sorting copies.
    """
    if n < 1:
        raise ValueError("vertex count must be positive")
    if family == "G1":
        yield from _g1_configs(n)
    elif family == "G2":
        yield from _g2_configs(n)
    else:
        raise ValueError(f"unknown family {family!r}")


def _g1_configs(n: int):
    budget = n - 1
    for cyc_used in range(budget + 1):
        for cycles in _cycle_multisets(cyc_used):
            for pendants in _partitions(budget - cyc_used, 1):
                if 2 * len(cycles) + len(pendants) >= 3:
                    yield FamilyConfig("G1", pendants_u=pendants, cycles_u=cycles)


def _g2_configs(n: int):
    budget = n - 2
    options = [list(_side_options(b)) for b in range(budget + 1)]
    for hub_edge in (False, True):
        for path_used in range(budget + 1):
            for parts in _partitions(path_used, 1):
                paths = tuple(p + 2 for p in parts)
                if not hub_edge and not paths:
                    continue
                rem = budget - path_used
                base = (1 if hub_edge else 0) + len(paths)
                for bu in range(rem + 1):
                    for side_u in options[bu]:
                        pu, cu = side_u
                        if base + len(pu) + 2 * len(cu) < 3:
                            continue
                        for side_v in options[rem - bu]:
                            if side_u > side_v:
                                continue
                            pv, cv = side_v
                            if base + len(pv) + 2 * len(cv) < 3:
                                continue
                            yield FamilyConfig(
                                "G2", hub_edge, paths, pu, cu, pv, cv
                            )


# -- canonical forms (refinement + individualization) -------------------------


def canonical_form(g: Graph) -> str:
    """graph6 of the canonically relabeled graph; equal iff isomorphic."""
    n = g.n
    if n <= 1 or g.edge_count == 0:
        return to_graph6(Graph.from_edges(n, []) if g.edge_count == 0 else g)
    best = [None, None]  # (key, permutation)

    def refine(colors):
        while True:
            sig = [
                (colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
                for v in range(n)
            ]
            order = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = tuple(order[sig[v]] for v in range(n))
            if new == colors:
                return colors
            colors = new

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
    if cfg.family == "G1":
        if not cfg.cycles_u and all(p == 1 for p in cfg.pendants_u):
            return TAG_STAR
        if (
            cfg.cycles_u
            and all(c == 3 for c in cfg.cycles_u)
            and all(p == 1 for p in cfg.pendants_u)
        ):
            return TAG_FIREFLY
        return TAG_NONE
    side_u = cfg.pendants_u or cfg.cycles_u
    side_v = cfg.pendants_v or cfg.cycles_v
    paths = cfg.paths
    if not side_u and not side_v and paths:
        if cfg.hub_edge and all(o == 4 for o in paths):
            return TAG_PRODUCT
        if cfg.hub_edge and all(o == 3 for o in paths):
            return TAG_JOIN_TWO
        if not cfg.hub_edge and all(o == 3 for o in paths):
            return TAG_BICLIQUE
        return TAG_NONE
    if (
        cfg.hub_edge
        and not side_u
        and side_v
        and paths
        and all(o == 3 for o in paths)
        and all(p == 1 for p in cfg.pendants_v)
        and all(c == 3 for c in cfg.cycles_v)
    ):
        return TAG_JOIN_ONE
    return TAG_NONE


def theorem_tag(g: Graph) -> str:
    cfg = graph_to_config(g)
    if cfg is None:
        return TAG_NONE
    return config_tag(cfg)


# -- the classification sweep --------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """One member's verdict; graph6 and bipartite are derived from the
    config only when read, so the sweep itself builds no graph."""

    family: str
    n: int
    config: tuple  # FamilyConfig.key()
    integral: bool
    tag: str

    def _graph(self) -> Graph:
        return realize(FamilyConfig(*self.config))

    @property
    def graph6(self) -> str:
        return to_graph6(self._graph())

    @property
    def bipartite(self) -> bool:
        return is_bipartite(self._graph())

    @property
    def in_list(self) -> bool:
        return self.tag != TAG_NONE

    @property
    def agreement(self) -> bool:
        return self.integral == self.in_list

    def to_json_dict(self) -> dict:
        g = self._graph()
        return {
            "graph6": to_graph6(g),
            "family": self.family,
            "n": self.n,
            "config": list(self.config),
            "bipartite": is_bipartite(g),
            "integral": self.integral,
            "tag": self.tag,
            "agreement": self.agreement,
        }


def _only_integer_roots(coeffs) -> bool:
    return len(split_integer_roots(coeffs)[1]) <= 1


# one entry per distinct repeated θ: a few dozen at the orders swept
_integral_theta = lru_cache(maxsize=None)(_only_integer_roots)


class SignExit(Enum):
    """_is_integral's verdict on a member whose quotient changes sign
    between two consecutive integers: falsy like False, counted apart."""

    SIGN_CHANGE = "sign change"

    def __bool__(self):
        return False


def _is_integral(cfg: FamilyConfig):
    """True when the member's Laplacian spectrum is integral, else falsy:
    None when a repeated chain factor θ has a non-integer root,
    SignExit.SIGN_CHANGE when the equitable quotient of family_factors has
    one between two consecutive integers (quotient_sign_change), both with
    no polynomial built, and False when the quotient's integer-root test
    decides. The polynomial is the quotient times the repeated factors."""
    if not all(_integral_theta(theta) for theta, _ in repeated_factors(cfg)):
        return None
    if quotient_sign_change(cfg) is not None:
        return SignExit.SIGN_CHANGE
    return _only_integer_roots(family_factors(cfg)[1])


@dataclass(frozen=True)
class TheoremSummary:
    n_min: int
    n_max: int
    verdicts: tuple
    rows: tuple  # (n, family, graphs, integral, disagreements)
    # counts and stage seconds of the run, see verify_theorem
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def disagreements(self):
        return tuple(v for v in self.verdicts if v.n >= 9 and not v.agreement)

    @property
    def small_n_exceptions(self):
        return tuple(v for v in self.verdicts if v.n < 9 and not v.agreement)

    def to_tsv(self) -> str:
        lines = ["n\tfamily\tgraphs\tintegral\tdisagreements"]
        for n, family, graphs, integral, dis in self.rows:
            lines.append(f"{n}\t{family}\t{graphs}\t{integral}\t{dis}")
        return "\n".join(lines)


def _structure_counts(configs) -> dict:
    """Distinct chains (kind, length), hub sides (pendants, cycles) and
    internal-path sets (paths, hub edge) among the configs. family_factors
    folds each distinct chain kind of a side or path set once, weighted by
    its count, and caches one fold per side and per path set;
    quotient_sign_change evaluates those cached folds at integers."""
    chains, sides, links = set(), set(), set()
    for cfg in configs:
        hub_sides = [(cfg.pendants_u, cfg.cycles_u)]
        if cfg.family == "G2":
            hub_sides.append((cfg.pendants_v, cfg.cycles_v))
            links.add((cfg.paths, cfg.hub_edge))
            chains.update(("path", order) for order in cfg.paths)
        for pendants, cycles in hub_sides:
            sides.add((pendants, cycles))
            chains.update(("pendant", length) for length in pendants)
            chains.update(("cycle", length) for length in cycles)
    return {"chains": len(chains), "sides": len(sides), "links": len(links)}


def verify_theorem(
    n_min: int, n_max: int, jobs: int = 1, budget: int | None = None
) -> TheoremSummary:
    """Classify every family member in the range and tally agreement.

    Disagreement means exact integrality and membership in the six listed
    families differ; at nine or more vertices the classification promises
    there are none, below that the exceptions are reported as data.
    Integrality comes from the cached side and link folds of
    family_factors, no graph is built. The summary's stats hold the number
    of configs, the distinct chains, hub sides and internal-path sets
    behind those folds, the members decided with no polynomial built by a
    repeated chain factor (repeated_exits) or by a sign change of the
    quotient between consecutive integers (sign_exits), and the seconds of
    the enumerate, decide and tag stages (the tag stage also assembles the
    verdicts and the tally).
    """
    check_budget(n_max, budget)
    if n_min < 1 or n_min > n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    clock = time.perf_counter
    t0 = clock()
    configs = [
        cfg
        for n in range(n_min, n_max + 1)
        for family in ("G1", "G2")
        for cfg in enumerate_family(family, n)
    ]
    t1 = clock()
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            decisions = pool.map(_is_integral, configs, chunksize=256)
    else:
        decisions = [_is_integral(cfg) for cfg in configs]
    integral = [flag is True for flag in decisions]
    t2 = clock()
    verdicts = tuple(
        ClassificationVerdict(
            family=cfg.family,
            n=cfg.vertex_count(),
            config=cfg.key(),
            integral=flag,
            tag=config_tag(cfg),
        )
        for cfg, flag in zip(configs, integral)
    )
    tally = {}
    for v in verdicts:
        key = (v.n, v.family)
        row = tally.setdefault(key, [0, 0, 0])
        row[0] += 1
        row[1] += v.integral
        row[2] += not v.agreement
    rows = tuple(
        (n, family, *tally[(n, family)])
        for n, family in sorted(tally)
    )
    t3 = clock()
    stats = {
        "configs": len(configs),
        **_structure_counts(configs),
        "repeated_exits": decisions.count(None),
        "sign_exits": decisions.count(SignExit.SIGN_CHANGE),
        "enumerate_s": round(t1 - t0, 6),
        "decide_s": round(t2 - t1, 6),
        "tag_s": round(t3 - t2, 6),
    }
    return TheoremSummary(
        n_min=n_min, n_max=n_max, verdicts=verdicts, rows=rows, stats=stats
    )
