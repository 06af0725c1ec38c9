"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic, so the tolerances are zero except
where an isolating-interval width is explicitly part of the criterion.
Run with -s to see the per-criterion lines and timings.
"""

import random
import time
from fractions import Fraction

from lapspec import (
    FamilyConfig,
    LAMBDA,
    canonical_form,
    case_config,
    case_ids,
    char_poly,
    coarsest_equitable_refinement,
    enumerate_family,
    is_L_integral,
    laplacian,
    parse_poly,
    quotient_matrix,
    realize,
    signless_laplacian,
    spectrum,
    star,
    vertex_connectivity,
    verify_theorem,
)
from lapspec.families import (
    POLY_TYPO_LEDGER,
    verify_printed_polynomial,
    verify_sign_claims,
)
from lapspec.graphs import complete_bipartite, cycle, is_bipartite, is_connected, path
from lapspec.polys import divides
from oracle_helpers import (
    brute_force_oracle,
    count_roots,
    det_gauss,
    edge_interlacing_check,
    fraction_sign,
    principal_submatrix,
    random_cograph,
    random_connected_graph,
    spanning_tree_count,
)


def _report(num, label, elapsed, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS in {elapsed:.1f}s {detail}".rstrip())


def test_acceptance_1_classification_sweep():
    t0 = time.time()
    summary = verify_theorem(9, 12)
    elapsed = time.time() - t0
    total = sum(row[2] for row in summary.rows)
    assert len(summary.disagreements) == 0, summary.disagreements[:5]
    assert elapsed < 60
    _report(1, "classification sweep 9..12", elapsed, f"— 0 disagreements over {total} graphs")


def test_acceptance_2_printed_polynomials():
    t0 = time.time()
    for cid in case_ids():
        report = verify_printed_polynomial(cid)
        allowed = POLY_TYPO_LEDGER.get(cid, set())
        for diff in report["diffs"]:
            assert diff["degree"] in allowed, (cid, diff)
        if cid not in POLY_TYPO_LEDGER:
            assert report["matches"], report
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(2, "printed polynomials, 12 cases", elapsed, "— diffs confined to the 15^2 ledger entry")


def test_acceptance_3_spectra_reproduced():
    t0 = time.time()
    width = Fraction(1, 10**6)
    targets = {
        (2, 1): ([[Fraction("4.725"), Fraction("4.735")], [Fraction("1.265"), Fraction("1.275")]],
                 ((4, 1), (2, 2), (0, 1)), "λ^2 - 6*λ + 6"),
        (2, 2): ([[Fraction("5.555"), Fraction("5.565")], [Fraction("1.435"), Fraction("1.445")]],
                 ((5, 1), (3, 1), (2, 2), (1, 1), (0, 1)), "λ^2 - 7*λ + 8"),
    }
    for (s, t), (windows, ints, residual) in targets.items():
        g = realize(case_config("4.7-c1.2", s=s, t=t))
        rep = spectrum(g, "L", precision=width)
        assert rep.integer_spectrum == ints
        assert rep.root_report.residual == tuple(parse_poly(residual).univariate_coeffs())
        got = sorted(rep.intervals, key=lambda iv: -iv[0])
        assert len(got) == len(windows)
        for (lo, hi), (wlo, whi) in zip(got, windows):
            assert hi - lo <= width
            assert wlo <= lo and hi <= whi, (float(lo), float(hi))
    elapsed = time.time() - t0
    _report(3, "catalog spectra to 2 decimals at 1e-6 width", elapsed)


def test_acceptance_4_sign_claim_grid():
    t0 = time.time()
    for cid in case_ids():
        report = verify_sign_claims(cid, cap=20)
        assert report["signs_ok"], (cid, report["sign_failures"])
        assert report["value_identities_ok"], (cid, report["identity_failures"])
        assert report["root_in_interval_ok"], (cid, report["root_failures"])
    elapsed = time.time() - t0
    _report(4, "sign claims on the full grid (cap 20)", elapsed)


def test_acceptance_5_property_suites():
    t0 = time.time()

    # (a) long paths have at least two small Laplacian eigenvalues
    for n in range(7, 13):
        p = char_poly(laplacian(path(n)))
        inside = count_roots(p, 0, 1) - (1 if fraction_sign(p, 1) == 0 else 0)
        assert inside >= 2, n

    # (b) edge-removal interlacing on 200 random instances
    rng = random.Random(2024)
    for _ in range(200):
        g = random_connected_graph(rng, 10)
        r = rng.randint(1, min(3, g.edge_count))
        removed = rng.sample(g.edges(), r)
        assert edge_interlacing_check(g, removed)

    # (c) + (d): the full enumerated corpus
    for n in range(4, 13):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                g = realize(cfg)
                L = laplacian(g)
                seed = ((0,), tuple(range(1, g.n))) if family == "G1" else (
                    (0,), (1,), tuple(range(2, g.n)))
                cells = coarsest_equitable_refinement(L, seed)
                p = char_poly(L)
                ok, _ = divides(char_poly(quotient_matrix(L, cells)), p)
                assert ok
                k = vertex_connectivity(g)
                assert k <= min(g.degrees())
                assert count_roots(p, 0, k) >= 1  # a(G) <= k(G), exactly

    # (e) 200 random union/join trees are integral
    rng = random.Random(77)
    for _ in range(200):
        assert is_L_integral(random_cograph(rng, rng.randint(2, 12)))

    # (f) bipartite members up to 9 vertices: both spectra coincide
    bipartite_corpus = [
        path(n) for n in range(2, 10)
    ] + [cycle(n) for n in range(4, 10, 2)] + [
        star(n) for n in range(3, 10)
    ] + [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 6) if a + b <= 9]
    for n in range(4, 10):
        for family in ("G1", "G2"):
            for cfg in enumerate_family(family, n):
                g = realize(cfg)
                if is_bipartite(g):
                    bipartite_corpus.append(g)
    for g in bipartite_corpus:
        assert is_bipartite(g)
        assert char_poly(laplacian(g)) == char_poly(signless_laplacian(g))

    elapsed = time.time() - t0
    assert elapsed < 120
    _report(5, "structural property suites a-f", elapsed,
            f"— corpus divisibility+bounds, {len(bipartite_corpus)} bipartite members")


def test_acceptance_6_oracle_completeness():
    t0 = time.time()
    # the sweep's graphs column, order by order, read off its TSV rows
    swept = {(n, family): graphs for n, family, graphs, _, _ in verify_theorem(3, 9).rows}
    for n in range(3, 10):
        oracle = brute_force_oracle(n)
        for family in ("G1", "G2"):
            enumerated = {canonical_form(realize(c)) for c in enumerate_family(family, n)}
            assert enumerated == oracle[family], (n, family, len(enumerated), len(oracle[family]))
            assert swept.get((n, family), 0) == len(oracle[family]), (n, family)
    elapsed = time.time() - t0
    _report(6, "enumeration and sweep vs augmentation oracle, n <= 9", elapsed)


def test_acceptance_7_matrix_tree():
    t0 = time.time()
    rng = random.Random(555)
    for _ in range(100):
        g = random_connected_graph(rng, 8)
        reduced = principal_submatrix(laplacian(g), [rng.randrange(g.n)])
        assert det_gauss(reduced) == spanning_tree_count(g)
    elapsed = time.time() - t0
    _report(7, "matrix-tree vs spanning-tree enumeration, 100 graphs", elapsed)
