import json
import random
import time
from fractions import Fraction

import pytest

from lapspec import (
    FamilyConfig,
    Graph,
    algebraic_connectivity,
    char_poly,
    complete,
    complete_bipartite,
    cycle,
    det_gauss,
    disjoint_union,
    empty_graph,
    firefly,
    is_L_integral,
    is_Q_integral,
    is_connected,
    join,
    laplacian,
    parse_poly,
    path,
    realize,
    signless_laplacian,
    spectrum,
    star,
    sturm_count,
    to_graph6,
    vertex_connectivity,
)
from oracle_helpers import (
    _interlaces,
    edge_interlacing_check,
    fraction_sign,
    gamma_101,
    kirkland_decomposition_check,
    principal_submatrix,
    random_cograph,
    random_connected_graph,
    reconstructs,
    spanning_tree_count,
)


def test_laplacian_basics():
    assert laplacian(complete(2)).entries == ((1, -1), (-1, 1))
    assert signless_laplacian(complete(2)).entries == ((1, 1), (1, 1))
    assert char_poly(laplacian(path(3))) == [0, 3, -4, 1]
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected_graph(rng, 8)
        L = laplacian(g)
        assert all(sum(row) == 0 for row in L.entries)
        assert L.entries == tuple(zip(*L.entries))  # symmetric
        coeffs = char_poly(L)
        assert coeffs[0] == 0  # constant term vanishes
        assert -coeffs[-2] == 2 * g.edge_count  # eigenvalue sum


def test_spectrum_reports():
    rep = spectrum(star(6), "L")
    assert rep.integer_spectrum == ((6, 1), (1, 4), (0, 1))
    assert rep.is_integral
    assert rep.display() == "{6^[1], 1^[4], 0^[1]}"
    rep = spectrum(cycle(4), "L")
    assert rep.integer_spectrum == ((4, 1), (2, 2), (0, 1))
    rep = spectrum(complete(2), "Q")
    assert rep.integer_spectrum == ((2, 1), (0, 1))
    doc = spectrum(star(6), "L").to_json_dict()
    assert json.dumps(doc)  # serializable
    assert doc["integral"] and doc["residual"] == "1"


def test_zero_multiplicity_counts_components():
    for g in (path(5), disjoint_union(path(2), cycle(3)), disjoint_union(path(2), path(2), path(3))):
        rep = spectrum(g, "L")
        zero_mult = dict(rep.integer_spectrum).get(0, 0)
        comps = 1 if is_connected(g) else len([c for c in _components_of(g)])
        assert zero_mult == comps
        assert sum(m for _, m in rep.integer_spectrum) + len(rep.root_report.residual) - 1 == g.n


def _components_of(g):
    from lapspec.graphs import connected_components

    return connected_components(g)


def test_spectrum_reports_reconstruct_their_polynomial():
    rng = random.Random(77)
    for _ in range(15):
        g = random_connected_graph(rng, 9)
        for kind, matrix in (("L", laplacian(g)), ("Q", signless_laplacian(g))):
            rep = spectrum(g, kind)
            assert reconstructs(rep.root_report, char_poly(matrix))
            total = sum(m for _, m in rep.integer_spectrum)
            assert total + len(rep.root_report.residual) - 1 == g.n


def test_integrality_decisions():
    assert is_L_integral(firefly(2, 3, 0))
    assert not is_L_integral(cycle(5))
    assert is_L_integral(cycle(6))
    assert is_Q_integral(gamma_101())
    assert not is_L_integral(gamma_101())
    # triangles-only hub graph is integral (bound relaxed vs the source)
    assert is_L_integral(firefly(4, 0, 0))
    # one lone vertex plus a star under a join: integral two-hub member
    assert is_L_integral(join(complete(1), disjoint_union(empty_graph(1), star(7))))


def _integer_spectrum_by_scan(coeffs, top):
    """Integer roots in [0, top] with multiplicity, by evaluating at each integer
    and deflating; the slow reference for the root search of the kernel."""
    roots = {}
    for k in range(top + 1):
        while len(coeffs) > 1 and sum(a * k**i for i, a in enumerate(coeffs)) == 0:
            quotient = [0] * (len(coeffs) - 1)
            carry = 0
            for i in range(len(coeffs) - 1, 0, -1):
                carry = coeffs[i] + k * carry
                quotient[i - 1] = carry
            coeffs = quotient
            roots[k] = roots.get(k, 0) + 1
    return roots


def test_dense_graph_decisions_finish_in_bounded_time():
    # Dense graphs have characteristic polynomials with huge constant terms
    # (K_20: 20^19 after the factor λ); the root search must not depend on
    # their size. Every L and Q eigenvalue lies in [0, 2(n - 1)] (Gershgorin),
    # so scanning those integers gives the reference verdicts.
    start = time.perf_counter()
    rng = random.Random(85)
    graphs = [complete(n) for n in (14, 20, 30, 40)]
    for n in (14, 18, 22, 26, 30):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.85]
        graphs.append(Graph.from_edges(n, edges))
        graphs.append(join(random_cograph(rng, n // 2), random_cograph(rng, n - n // 2)))
    for g in graphs:
        for kind, decide, matrix in (
            ("L", is_L_integral, laplacian(g)),
            ("Q", is_Q_integral, signless_laplacian(g)),
        ):
            expected = _integer_spectrum_by_scan(char_poly(matrix), 2 * (g.n - 1))
            integral = sum(expected.values()) == g.n
            assert decide(g) == integral, (to_graph6(g), kind)
            if kind == "Q":
                rep = spectrum(g, "Q")
                assert dict(rep.integer_spectrum) == expected
                assert rep.is_integral == integral
    assert time.perf_counter() - start < 20


def test_gamma_fixture_shape():
    g = gamma_101()
    assert g.n == 6
    assert sorted(g.degrees(), reverse=True) == [3, 3, 2, 2, 2, 2]
    assert not_is_bipartite(g)


def not_is_bipartite(g):
    from lapspec import is_bipartite

    return not is_bipartite(g)


def test_prop_instance_spectrum_with_residual():
    g = realize(FamilyConfig("G2", hub_edge=False, paths=(3, 3, 4)))
    rep = spectrum(g, "L")
    assert rep.integer_spectrum == ((4, 1), (2, 2), (0, 1))
    assert rep.root_report.residual == tuple(parse_poly("λ^2 - 6*λ + 6").univariate_coeffs())
    mids = sorted(float((a + b) / 2) for a, b in rep.intervals)
    assert round(mids[0], 2) == 1.27 and round(mids[1], 2) == 4.73


def test_algebraic_connectivity():
    a = algebraic_connectivity(star(6))
    assert a.is_integer and a.value == 1
    a = algebraic_connectivity(path(4))
    assert not a.is_integer and 0 < a.lo and a.hi < 1
    a = algebraic_connectivity(complete(5))
    assert a.is_integer and a.value == 5
    a = algebraic_connectivity(disjoint_union(path(2), path(3)))
    assert a.is_integer and a.value == 0
    with pytest.raises(ValueError):
        algebraic_connectivity(complete(1))


def test_kirkland_examples():
    g = join(complete(1), disjoint_union(empty_graph(2), complete(2), star(3)))
    r = kirkland_decomposition_check(g)
    assert r.a_equals_k and r.k == 1 and len(r.cut_vertices) == 1
    assert len(r.components) >= 2
    r = kirkland_decomposition_check(join(complete(2), empty_graph(7)))
    assert r.a_equals_k and r.k == 2 and len(r.cut_vertices) == 2
    r = kirkland_decomposition_check(cycle(6))
    assert not r.a_equals_k and r.k == 2 and r.roots_below_k >= 1
    assert not r.a_value.is_integer or r.a_value.value < 2
    with pytest.raises(ValueError):
        kirkland_decomposition_check(complete(4))


def test_kirkland_matches_connectivity_on_random_graphs():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, 7)
        if g.edge_count == g.n * (g.n - 1) // 2:
            continue
        r = kirkland_decomposition_check(g)
        a = algebraic_connectivity(g)
        if r.a_equals_k:
            assert a.is_integer and a.value == r.k
            cut = set(r.cut_vertices)
            rest = [v for v in range(g.n) if v not in cut]
            for v in cut:
                assert all(g.has_edge(v, w) for w in rest)
        else:
            if a.is_integer:
                assert a.value != r.k
            else:
                assert a.lo < r.k


def test_edge_interlacing():
    assert edge_interlacing_check(cycle(4), [(0, 1)])
    assert edge_interlacing_check(cycle(4), [])
    assert edge_interlacing_check(firefly(1, 1, 0), [(1, 2)])
    with pytest.raises(ValueError):
        edge_interlacing_check(path(4), [(0, 3)])
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng, 9)
        k = rng.randint(1, min(3, g.edge_count))
        removed = rng.sample(g.edges(), k)
        assert edge_interlacing_check(g, removed)


def test_path_interior_root_counts():
    # at least two small Laplacian eigenvalues once the path is long enough
    for n in range(7, 13):
        p = char_poly(laplacian(path(n)))
        inside = sturm_count(p, 0, 1) - (1 if fraction_sign(p, 1) == 0 else 0)
        assert inside >= 2
    # the seven-vertex path has exactly two in the half-open unit interval
    assert sturm_count(char_poly(laplacian(path(7))), 0, 1) == 2


def test_cycle_six_connectivity_gap():
    a = algebraic_connectivity(cycle(6))
    assert a.is_integer and a.value == 1
    assert vertex_connectivity(cycle(6)) == 2


def test_connected_graphs_have_positive_connectivity_value():
    rng = random.Random(404)
    for _ in range(25):
        g = random_connected_graph(rng, 8)
        a = algebraic_connectivity(g)
        if a.is_integer:
            assert a.value > 0
        else:
            assert a.lo >= 0 and a.hi > 0


def test_interlacing_rejects_unrelated_spectra():
    # the private threshold machinery must say no when the inequalities fail
    pg = char_poly(laplacian(complete(4)))
    ph = char_poly(laplacian(cycle(4)))
    # spectra {4,4,4,0} vs {4,2,2,0}: fails mu_2(H) >= mu_3(G) at r=1
    assert not _interlaces(pg, ph, 1)
    assert _interlaces(pg, ph, 2)


def test_matrix_tree_small():
    for g, trees in [(path(4), 1), (cycle(5), 5), (complete(4), 16), (star(7), 1)]:
        red = principal_submatrix(laplacian(g), [0])
        assert det_gauss(red) == trees
        assert spanning_tree_count(g) == trees


def test_bipartite_L_equals_Q():
    rng = random.Random(31)
    fixtures = [path(6), cycle(8), star(9), complete_bipartite(3, 5), complete_bipartite(4, 4)]
    for g in fixtures:
        assert char_poly(laplacian(g)) == char_poly(signless_laplacian(g))
    # and a non-bipartite witness where they differ
    assert char_poly(laplacian(cycle(5))) != char_poly(signless_laplacian(cycle(5)))


def test_cographs_are_integral():
    rng = random.Random(8)
    for _ in range(40):
        g = random_cograph(rng, rng.randint(2, 10))
        assert is_L_integral(g)


def test_join_preserves_integrality():
    rng = random.Random(123)
    for _ in range(20):
        g = random_cograph(rng, rng.randint(1, 5))
        h = random_cograph(rng, rng.randint(1, 5))
        assert is_L_integral(g) and is_L_integral(h)
        assert is_L_integral(join(g, h))


def _integer_eigenvalues(g):
    rep = spectrum(g, "L")
    assert rep.is_integral
    out = []
    for value, mult in rep.integer_spectrum:
        out.extend([value] * mult)
    return sorted(out)


def test_join_spectrum_composition_identity():
    # eigenvalues of a join: 0, n, and each side's nonzero-slot spectrum
    # shifted by the other side's order
    rng = random.Random(17)
    for _ in range(25):
        g = random_cograph(rng, rng.randint(1, 5))
        h = random_cograph(rng, rng.randint(1, 5))
        sg, sh = _integer_eigenvalues(g), _integer_eigenvalues(h)
        sg.remove(0)
        sh.remove(0)
        expected = sorted([0, g.n + h.n] + [x + h.n for x in sg] + [x + g.n for x in sh])
        assert _integer_eigenvalues(join(g, h)) == expected


def test_box_product_spectrum_is_pairwise_sums():
    from lapspec import cartesian_product

    pairs = [(complete(2), star(4)), (complete(2), complete(3)), (star(3), star(3))]
    for g, h in pairs:
        sg, sh = _integer_eigenvalues(g), _integer_eigenvalues(h)
        expected = sorted(a + b for a in sg for b in sh)
        assert _integer_eigenvalues(cartesian_product(g, h)) == expected


def test_connectivity_bounds_chain():
    # second-smallest eigenvalue <= vertex connectivity <= min degree
    rng = random.Random(19)
    for _ in range(25):
        g = random_connected_graph(rng, 8)
        if g.edge_count == g.n * (g.n - 1) // 2:
            continue
        k = vertex_connectivity(g)
        delta = min(g.degrees())
        assert k <= delta
        p = char_poly(laplacian(g))
        assert sturm_count(p, 0, k) >= 1  # an eigenvalue in (0, k]
