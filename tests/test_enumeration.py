import gc
import io
import json
import random
import tracemalloc

import pytest

from lapspec import (
    FamilyConfig,
    Graph,
    brute_force_oracle,
    canonical_form,
    cartesian_product,
    complete,
    complete_bipartite,
    config_tag,
    cycle,
    disjoint_union,
    empty_graph,
    enumerate_family,
    enumeration,
    family_membership,
    firefly,
    join,
    realize,
    split_integer_roots,
    star,
    theorem_tag,
    verify_theorem,
)
from lapspec.enumeration import (
    TAG_BICLIQUE,
    TAG_FIREFLY,
    TAG_JOIN_ONE,
    TAG_JOIN_TWO,
    TAG_NONE,
    TAG_PRODUCT,
    TAG_STAR,
    BudgetExceededError,
    _partitions,
)
from lapspec.polys import deflate, interpolate
from oracle_helpers import (
    family_char_poly,
    has_quotient_sign_change,
    kirkland_decomposition_check,
    recursive_partitions,
    reference_sweep,
    repeated_factors,
    scrambled_fields,
)


def test_memoized_partitions_equal_the_recursive_generator():
    # the cached tuples, built from cached sub-results, hold the same
    # partitions in the same order, which fixes the walk's order
    for total in range(25):
        for min_part in (1, 2, 3):
            assert _partitions(total, min_part) == tuple(recursive_partitions(total, min_part))
    assert len(_partitions(24, 1)) == 1575


def test_enumerate_family_small_cases():
    assert list(enumerate_family("G1", 1)) == []
    assert list(enumerate_family("G1", 2)) == []
    four = list(enumerate_family("G1", 4))
    assert len(four) == 4 - 2  # the claw and the triangle-with-pendant
    five = list(enumerate_family("G2", 5))
    assert FamilyConfig("G2", hub_edge=True, paths=(3, 3, 3)) in five
    with pytest.raises(ValueError):
        list(enumerate_family("G3", 5))


def test_enumerated_configs_are_normalized_members():
    for n in range(4, 9):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                assert all(list(m) == sorted(m) for m in cfg[2:])
                assert family == "G1" or cfg[3:5] <= cfg[5:]
                g = realize(cfg)
                assert g.n == n
                member = family_membership(g)
                assert member == family or member.startswith(family)


def test_enumeration_has_no_duplicates():
    for n in range(4, 10):
        configs = list(enumerate_family("G2", n))
        assert len(configs) == len(set(configs))


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(g) == canonical_form(h)
    # and distinguishes non-isomorphic graphs of equal degree sequence
    assert canonical_form(disjoint_union(cycle(3), cycle(3))) != canonical_form(cycle(6))


def test_oracle_tiny_cases():
    oracle = brute_force_oracle(3)
    assert oracle["G1"] == set() and oracle["G2"] == set()
    oracle = brute_force_oracle(4)
    assert len(oracle["G1"]) == 2 and len(oracle["G2"]) == 1
    with pytest.raises(ValueError):
        brute_force_oracle(9)


def test_enumeration_agrees_with_oracle_up_to_six():
    for n in range(3, 7):
        oracle = brute_force_oracle(n)
        for family in ("G1", "G2"):
            enumerated = {canonical_form(realize(c)) for c in enumerate_family(family, n)}
            assert enumerated == oracle[family], (n, family)


def test_config_recovery_inverts_realize_on_oracle_members():
    from lapspec import from_graph6, graph_to_config

    for n in range(4, 8):
        oracle = brute_force_oracle(n)
        for family in ("G1", "G2"):
            for code in oracle[family]:
                g = from_graph6(code)
                cfg = graph_to_config(g)
                assert cfg is not None
                assert canonical_form(realize(cfg)) == code


def test_theorem_tags():
    assert theorem_tag(star(9)) == TAG_STAR
    assert theorem_tag(cartesian_product(complete(2), star(5))) == TAG_PRODUCT
    assert theorem_tag(complete_bipartite(2, 7)) == TAG_BICLIQUE
    assert theorem_tag(firefly(2, 2, 0)) == TAG_FIREFLY
    assert theorem_tag(firefly(4, 0, 0)) == TAG_FIREFLY  # triangles only
    assert theorem_tag(join(complete(1), disjoint_union(empty_graph(2), complete(2), star(3)))) == TAG_JOIN_ONE
    assert theorem_tag(join(complete(1), disjoint_union(empty_graph(1), star(7)))) == TAG_JOIN_ONE
    assert theorem_tag(join(complete(2), empty_graph(7))) == TAG_JOIN_TWO
    assert theorem_tag(cycle(8)) == TAG_NONE
    assert theorem_tag(firefly(1, 1, 1)) == TAG_NONE
    assert theorem_tag(realize(FamilyConfig("G2", hub_edge=True, paths=(3, 4, 4)))) == TAG_NONE


def test_tag_is_unique_per_graph():
    # each member matches at most one family pattern by construction:
    # scan a slice of the enumeration and count matching tag predicates
    rng = random.Random(8)
    for n in (8, 9):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                tag = config_tag(cfg)
                other = FamilyConfig(*scrambled_fields(cfg, rng, swap=family == "G2"))
                assert tag == config_tag(other)


def sweep_records(n_min, n_max):
    """verify_theorem's summary and its out stream, one parsed record per
    member in walk order."""
    buf = io.StringIO()
    summary = verify_theorem(n_min, n_max, buf)
    return summary, [json.loads(line) for line in buf.getvalue().splitlines()]


def as_json(records):
    """The records as their out lines read back (config tuples as lists)."""
    return tuple(json.loads(json.dumps(r)) for r in records)


def record_config(record):
    """The FamilyConfig of a record, whose config is the key() as lists."""
    family, hub_edge, *chains = record["config"]
    return FamilyConfig(family, hub_edge, *map(tuple, chains))


def test_verify_theorem_nine():
    summary, records = sweep_records(9, 9)
    assert len(summary.disagreements) == 0
    counts = {(n, fam): (g, i, d) for n, fam, g, i, d in summary.rows}
    assert counts[(9, "G1")][0] == 69
    assert counts[(9, "G2")][0] == 484
    assert counts[(9, "G1")][1] == 5  # star plus four firefly shapes
    integral_tags = {r["tag"] for r in records if r["integral"]}
    assert TAG_NONE not in integral_tags


def test_verdicts_match_dense_path_at_eleven():
    # every record field against realize -> Berkowitz -> split_integer_roots
    from lapspec import char_poly, is_bipartite, laplacian, to_graph6

    summary, records = sweep_records(11, 11)
    assert len(records) == 2768
    for r in records:
        cfg = record_config(r)
        g = realize(cfg)
        assert list(r) == [
            "graph6", "family", "n", "config", "bipartite", "integral", "tag", "agreement",
        ]
        assert r["config"] == json.loads(json.dumps(cfg))
        assert r["family"] == cfg.family and r["n"] == g.n == 11
        assert r["graph6"] == to_graph6(g)
        assert r["bipartite"] == is_bipartite(g)
        assert r["integral"] == (len(split_integer_roots(char_poly(laplacian(g)))[1]) <= 1), r
        assert r["tag"] == config_tag(cfg)
        assert r["agreement"] == (r["integral"] == (r["tag"] != TAG_NONE))


def has_non_integral_repeated_factor(cfg):
    return any(len(split_integer_roots(t)[1]) > 1 for t, _ in repeated_factors(cfg))


def test_verify_theorem_stats():
    summary, records = sweep_records(9, 9)
    stats = summary.stats
    assert set(stats) == {
        "configs", "chains", "sides", "links", "repeated_exits", "sign_exits",
        "tables_s", "root_test_s", "walk_s",
    }
    assert stats["configs"] == 69 + 484
    # pendant lengths 1..6, cycle lengths 3..8, internal path orders 3..8
    assert stats["chains"] == 6 + 6 + 6
    configs = [record_config(r) for r in records]
    assert stats["configs"] == len(configs)
    sides = {(c.pendants_u, c.cycles_u) for c in configs}
    sides |= {(c.pendants_v, c.cycles_v) for c in configs if c.family == "G2"}
    links = {(c.paths, c.hub_edge) for c in configs if c.family == "G2"}
    assert (stats["sides"], stats["links"]) == (len(sides), len(links))
    exits = sum(has_non_integral_repeated_factor(cfg) for cfg in configs)
    assert 0 < exits == stats["repeated_exits"]
    signs = sum(
        has_quotient_sign_change(cfg) for cfg in configs if not has_non_integral_repeated_factor(cfg)
    )
    assert 0 < signs == stats["sign_exits"] < stats["configs"] - exits
    assert all(stats[k] >= 0 for k in ("tables_s", "root_test_s", "walk_s"))
    assert stats["root_test_s"] < stats["walk_s"]


@pytest.fixture(scope="module")
def sweep_nine_to_thirteen():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LAPSPEC_BUDGET", "13")
        return sweep_records(9, 13)


def test_shard_walk_matches_the_reference_sweep_nine_to_thirteen(sweep_nine_to_thirteen):
    summary, records = sweep_nine_to_thirteen
    rows, verdicts, repeated, signs = reference_sweep(9, 13)
    assert summary.rows == rows
    assert len(records) == len(verdicts) == 10422 + 11837
    for r, want in zip(records, verdicts):
        got = (r["family"], r["n"], tuple(record_config(r)), r["integral"], r["tag"])
        assert got == want
    assert (summary.stats["repeated_exits"], summary.stats["sign_exits"]) == (repeated, signs)
    assert summary.stats["configs"] == len(records)
    assert as_json(summary.disagreements) == tuple(r for r in records if not r["agreement"]) == ()


def test_quotient_decision_equals_full_polynomial_decision_nine_to_thirteen(sweep_nine_to_thirteen):
    # oracle: integer roots of the whole det(λI - L), with no early exit
    summary, records = sweep_nine_to_thirteen
    counts = [0, 0, 0]  # members, integral, decided by a repeated factor
    for r in records:
        cfg = record_config(r)
        full = len(split_integer_roots(family_char_poly(cfg))[1]) <= 1
        assert r["integral"] == full, cfg
        counts[0] += 1
        counts[1] += full
        counts[2] += has_non_integral_repeated_factor(cfg)
    assert counts[0] == 10422 + 11837 and 0 < counts[1] and 1294 < counts[2] < counts[0]
    assert counts[2] == summary.stats["repeated_exits"]


def test_root_test_on_values_takes_the_coefficient_decision_nine_to_fourteen(monkeypatch):
    # every member that reaches the root test at 9..14: deflating on the
    # values decides as deflating the interpolated coefficients by the
    # same zeros does
    monkeypatch.setenv("LAPSPEC_BUDGET", "14")
    decide = enumeration._integral_from_values
    seen = []
    monkeypatch.setattr(enumeration, "_integral_from_values", lambda values: seen.append(values) or decide(values))
    summary = verify_theorem(9, 14)
    stats = summary.stats
    assert len(seen) == stats["configs"] - stats["repeated_exits"] - stats["sign_exits"] == 959
    integral = 0
    for values in seen:
        zeros = [k for k, q in enumerate(values) if not q]
        want = len(deflate(interpolate(values), zeros)[1]) <= 1
        assert decide(values) == want, values
        integral += want
    assert integral == sum(row[3] for row in summary.rows) == 184


class _Discard:
    """A text stream that throws every line away."""

    def write(self, text):
        return len(text)


def test_sweep_summary_retains_no_memory_per_member(sweep_nine_to_thirteen, monkeypatch):
    # the fixture's sweep has filled every cache the 9..13 walk reads; a
    # second sweep, with or without an out stream, may keep only its rows,
    # stats and disagreeing records (a per-member verdict tuple kept 4.7 MB)
    monkeypatch.setenv("LAPSPEC_BUDGET", "13")
    for out in (None, _Discard()):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            summary = verify_theorem(9, 13, out)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert summary == sweep_nine_to_thirteen[0]
        assert retained < 512 * 1024, (out, retained)


def test_sweep_without_out_builds_no_family_config(monkeypatch):
    # every member is decided from the value tables and its fields, the
    # integer-root test included: with no out stream and no disagreeing
    # member, the sweep never builds a FamilyConfig
    built = []
    new = FamilyConfig.__new__

    def counted(cls, *fields, **named):
        built.append((fields, named))
        return new(cls, *fields, **named)

    monkeypatch.setattr(FamilyConfig, "__new__", counted)
    summary = verify_theorem(9, 12)
    assert summary.stats["configs"] == 10422 and summary.disagreements == ()
    assert built == []


def test_verify_theorem_budget():
    with pytest.raises(BudgetExceededError):
        verify_theorem(9, 13)
    with pytest.raises(ValueError):
        verify_theorem(0, 5)


def test_small_n_exceptions_are_reported_not_asserted():
    summary, records = sweep_records(4, 6)
    # whatever the small-order outcome, the API reports it as data: every
    # order counts, and no member disagrees in fact
    assert isinstance(summary.disagreements, tuple)
    assert as_json(summary.disagreements) == tuple(r for r in records if not r["agreement"]) == ()


def test_disagreeing_members_are_kept_as_records(monkeypatch):
    # no member disagrees in fact, so tag every member "none": each
    # integral member then disagrees, and the summary keeps its record
    from lapspec import enumeration

    monkeypatch.setattr(enumeration, "_key_tag", lambda *key: TAG_NONE)
    summary, records = sweep_records(8, 9)
    integral = tuple(r for r in records if r["integral"])
    assert not any(r["agreement"] for r in integral)
    assert as_json(summary.disagreements) == integral
    assert {r["n"] for r in integral} == {8, 9}
    assert [row[4] for row in summary.rows] == [row[3] for row in summary.rows]
    assert verify_theorem(8, 9) == summary


def test_integral_nonbipartite_two_hub_members_have_a_equal_k():
    from lapspec import from_graph6

    _, records = sweep_records(9, 10)
    checked = 0
    for r in records:
        if r["family"] == "G2" and r["integral"] and not r["bipartite"]:
            g = from_graph6(r["graph6"])
            report = kirkland_decomposition_check(g)
            assert report.a_equals_k, r
            checked += 1
    assert checked >= 10


def test_long_internal_link_forces_non_integral():
    from lapspec import is_L_integral

    cases = [
        FamilyConfig("G2", hub_edge=True, paths=(3, 9)),
        FamilyConfig("G2", hub_edge=True, paths=(3, 10)),
        FamilyConfig("G2", hub_edge=False, paths=(3, 4, 9)),
        FamilyConfig("G2", hub_edge=True, paths=(4, 9), pendants_u=(1,)),
    ]
    for cfg in cases:
        g = realize(cfg)
        assert max(cfg.paths) >= 9
        assert not is_L_integral(g), cfg


def test_odd_order_links_need_hub_edge_for_odd_cycles():
    from lapspec import is_bipartite

    rng = random.Random(99)
    for _ in range(20):
        paths = tuple(sorted(rng.choice([3, 5, 7]) for _ in range(rng.randint(2, 4))))
        for hub_edge in (False, True):
            try:
                g = realize(FamilyConfig("G2", hub_edge=hub_edge, paths=paths))
            except ValueError:
                continue
            assert is_bipartite(g) == (not hub_edge)
