from fractions import Fraction

import pytest

from lapspec import (
    FamilyConfig,
    LAMBDA,
    MPoly,
    build_quotient,
    case_config,
    case_ids,
    char_poly,
    closed_form_root_check,
    cross_check_with_realization,
    erratum_entries,
    is_L_integral,
    parse_poly,
    quotient_cells,
    realize,
    sturm_count,
    verify_printed_matrix,
    verify_printed_polynomial,
    verify_sign_claims,
)
from lapspec import families
from lapspec.polys import shift_certificate, sign_above, taylor_shift
from lapspec.families import (
    MATRIX_TYPO_LEDGER,
    POLY_TYPO_LEDGER,
    SIGN_VALUE_TYPO_LEDGER,
    computed_symbolic_poly,
    excluded_instance_report,
    get_case,
    grid_points,
    load_cases,
)

from oracle_helpers import family_factors, fraction_sign, lift

ALL_CASES = (
    "4.4",
    "4.5",
    "4.6-c1.1",
    "4.6-c1.2",
    "4.6-c2.1",
    "4.6-c2.2",
    "4.7-c1.1",
    "4.7-c1.2",
    "4.7-c2.1",
    "4.7-c2.2",
    "4.7-c3.1",
    "4.7-c3.2",
)


def test_registry_shape():
    assert tuple(case_ids()) == ALL_CASES
    for cid in ALL_CASES:
        case = get_case(cid)
        dimension = 2 + sum(order - 2 for order, _ in case.path_counts)
        assert len(case.printed_matrix) == dimension
        poly = parse_poly(case.printed_poly, variables=(LAMBDA,) + case.params)
        assert poly.degree(LAMBDA) == dimension
    with pytest.raises(KeyError):
        get_case("9.9")


def test_build_quotient_golden_rows():
    q = build_quotient("4.4", symbolic=True)
    s = MPoly.var("s", ("s",))
    assert q.entries[0] == (s + 2, -1, -1 * s, -1, 0, 0)
    q = build_quotient("4.7-c1.2", s=2, t=1)
    assert q.entries[0] == (3, 0, -2, -1, 0)
    q = build_quotient("4.5", s=1)
    assert q.rows == q.cols == 8
    assert all(isinstance(e, int) for row in q.entries for e in row)
    with pytest.raises(KeyError):
        build_quotient("nope", s=1)
    with pytest.raises(ValueError):
        build_quotient("4.4", s=-1)


def test_symbolic_matches_concrete_instantiation():
    for cid, values in [("4.4", {"s": 3}), ("4.6-c1.1", {"s": 2, "t": 2}), ("4.7-c3.2", {"s": 1, "t": 2})]:
        sym = build_quotient(cid, symbolic=True)
        conc = build_quotient(cid, **values)
        for i in range(sym.rows):
            for j in range(sym.cols):
                e = sym.entries[i][j]
                e = e.eval_at(values) if isinstance(e, MPoly) else e
                assert e == conc.entries[i][j]


def test_symbolic_poly_equals_berkowitz_oracle_and_the_sweep_fold():
    # Oracle: Berkowitz over Z[s,t] on the symbolic quotient matrix. And at
    # concrete counts the catalog polynomial is the sweep's quotient of the
    # same member, every path order present.
    points = 0
    for cid in ALL_CASES:
        poly = computed_symbolic_poly(cid)
        assert poly == lift(char_poly(build_quotient(cid, symbolic=True))), cid
        for point in grid_points(get_case(cid), cap=6):
            if min(point.values()) < 1:
                continue
            _, quotient = family_factors(case_config(cid, **point))
            assert poly.substitute(point).univariate_coeffs() == quotient, (cid, point)
            points += 1
    assert points == 296  # 5 + 5 + 6 + 4 + 24 + 7 * 36


def test_printed_polynomials_verify_except_ledgered_typo():
    for cid in ALL_CASES:
        report = verify_printed_polynomial(cid)
        if cid in POLY_TYPO_LEDGER:
            assert not report["matches"]
            assert report["within_typo_ledger"]
            degrees = {d["degree"] for d in report["diffs"]}
            assert degrees == POLY_TYPO_LEDGER[cid]
        else:
            assert report["matches"], report


def test_printed_matrices_verify_except_ledgered_typo():
    for cid in ALL_CASES:
        report = verify_printed_matrix(cid)
        if cid in MATRIX_TYPO_LEDGER:
            assert not report["matches"] and report["within_typo_ledger"]
        else:
            assert report["matches"], report


def test_sign_claims_small_grid():
    for cid in ALL_CASES:
        report = verify_sign_claims(cid, cap=6)
        assert report["signs_ok"], report
        assert report["value_identities_ok"], report
        assert report["root_in_interval_ok"], report
        assert report["points_checked"] > 0


def _oracle_sign_claims(case_id, cap, overrides=None):
    """Oracle: the sign-claim check on MPoly values, substituting each grid
    point into Z[s,t][λ], evaluating every claim as an exact rational and
    certifying the root by a Sturm count at every point."""
    case = get_case(case_id)
    poly = computed_symbolic_poly(case_id)
    lo, hi = case.root_interval
    claim_exprs = {}
    for claim in case.sign_claims:
        if claim.printed_value is not None:
            claim_exprs[claim.point] = parse_poly(claim.printed_value, variables=case.params)
    points_checked = 0
    sign_failures = []
    identity_failures = []
    root_failures = []
    for point in grid_points(case, cap, overrides):
        points_checked += 1
        inst = poly.substitute(point)
        for claim in case.sign_claims:
            value = inst.eval_at({LAMBDA: claim.point})
            if (value > 0) - (value < 0) != claim.sign:
                sign_failures.append({"point": point, "at": str(claim.point), "value": str(value)})
            expr = claim_exprs.get(claim.point)
            if (
                expr is not None
                and (case_id, claim.point) not in SIGN_VALUE_TYPO_LEDGER
                and expr.eval_at(point) != value
            ):
                identity_failures.append({"point": point, "at": str(claim.point)})
        coeffs = inst.univariate_coeffs()
        inside = sturm_count(coeffs, lo, hi)
        if fraction_sign(coeffs, hi) == 0:
            inside -= 1
        if inside < 1:
            root_failures.append({"point": point})
    return {
        "case": case_id,
        "grid_cap": cap,
        "points_checked": points_checked,
        "signs_ok": not sign_failures,
        "value_identities_ok": not identity_failures,
        "root_in_interval_ok": not root_failures,
        "sign_failures": sign_failures[:5],
        "identity_failures": identity_failures[:5],
        "root_failures": root_failures[:5],
    }


@pytest.fixture
def sturm_calls(monkeypatch):
    """Count the Sturm fallbacks of verify_sign_claims."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sturm_count(*args, **kwargs)

    monkeypatch.setattr(families, "sturm_count", counting)
    return calls


def test_sign_claims_equal_the_oracle_on_every_case(sturm_calls):
    narrowed = {"s": (0, 3), "t": (2, 9)}
    one_point = {"s": (3, 3), "t": (3, 3)}
    for cid in ALL_CASES:
        assert verify_sign_claims(cid) == _oracle_sign_claims(cid, 20), cid
        report = verify_sign_claims(cid, overrides=narrowed)
        assert report == _oracle_sign_claims(cid, 20, narrowed), cid
        report = verify_sign_claims(cid, overrides=one_point)
        assert report == _oracle_sign_claims(cid, 20, one_point), cid
        assert report["points_checked"] == 1, cid
    report = verify_sign_claims("4.7-c3.1", cap=30)
    assert report == _oracle_sign_claims("4.7-c3.1", 30)
    assert report["points_checked"] == 900
    # Every point of today's catalog is settled by the sign change at the
    # ends of the claimed interval.
    assert sturm_calls == []


def _mutate(monkeypatch, case_id, **changes):
    case = get_case(case_id)._replace(**changes)
    monkeypatch.setitem(load_cases(), case_id, case)
    return case


def _claims(case_id, **printed):
    """The case's claims, with the printed values given here (keyed by the
    text of the claim point) in place of the transcribed ones."""
    return tuple(
        cl._replace(printed_value=printed.get(str(cl.point), cl.printed_value))
        for cl in get_case(case_id).sign_claims
    )


SIGN, IDENTITY, ROOT = "sign_failures", "identity_failures", "root_failures"

# (case, what is mutated, the change, the failure lists it must fill)
MUTATIONS = [
    ("4.4", "signs", None, {SIGN}),
    ("4.7-c3.1", "signs", None, {SIGN}),
    # λ = 0 is a root of every quotient: its sign 0 matches no claim
    ("4.4", "zero", None, {SIGN, IDENTITY}),
    ("4.6-c1.1", "values", {"3": "-6*s*t-3*t^2+1", "4": "4*(s+2*t)*(15*s+10*t-18)"}, {IDENTITY}),
    ("4.7-c2.2", "values", {"1/2": "0", "1": "s"}, {IDENTITY}),
    # the printed value at 1 is ledgered, so only the one at 1/2 can fail
    ("4.7-c2.1", "values", {"1/2": "-s*t", "1": "t^2"}, {IDENTITY}),
    ("4.4", "interval", (Fraction(11), Fraction(12)), {ROOT}),
    ("4.7-c1.2", "interval", (Fraction(7, 3), Fraction(10, 3)), {ROOT}),
    # a root at the upper end does not count as inside
    ("4.5", "interval", (Fraction(-1), Fraction(0)), {ROOT}),
    # a root at the lower end leaves the signs inconclusive; Sturm decides
    ("4.6-c2.1", "interval", (Fraction(0), Fraction(1)), set()),
]


@pytest.mark.parametrize("case_id, kind, change, failures", MUTATIONS)
def test_mutated_sign_claims_fail_like_the_oracle(monkeypatch, case_id, kind, change, failures):
    claims = get_case(case_id).sign_claims
    if kind == "signs":
        _mutate(monkeypatch, case_id, sign_claims=tuple(cl._replace(sign=-cl.sign) for cl in claims))
    elif kind == "zero":
        moved = claims[0]._replace(point=Fraction(0))
        _mutate(monkeypatch, case_id, sign_claims=(moved,) + claims[1:])
    elif kind == "values":
        _mutate(monkeypatch, case_id, sign_claims=_claims(case_id, **change))
    else:
        _mutate(monkeypatch, case_id, root_interval=change)
    for cap in (6, 20):
        assert verify_sign_claims(case_id, cap) == _oracle_sign_claims(case_id, cap)
    report = verify_sign_claims(case_id, 20)
    assert {name for name in (SIGN, IDENTITY, ROOT) if report[name]} == failures
    if case_id == "4.7-c2.1":
        assert {f["at"] for f in report["identity_failures"]} == {"1/2"}


def test_two_roots_between_equal_signs_take_the_sturm_fallback(monkeypatch, sturm_calls):
    # (1/2, 2) holds two roots of every 4.4 quotient, and the quotient has
    # the same sign at both ends, so only the Sturm count certifies a root.
    _mutate(monkeypatch, "4.4", root_interval=(Fraction(1, 2), Fraction(2)))
    report = verify_sign_claims("4.4")
    assert report == _oracle_sign_claims("4.4", 20)
    assert report["root_in_interval_ok"]
    assert len(sturm_calls) == report["points_checked"] == 19
    for point in grid_points(get_case("4.4"), 20):
        inst = computed_symbolic_poly("4.4").substitute(point).univariate_coeffs()
        assert fraction_sign(inst, Fraction(1, 2)) == fraction_sign(inst, 2) != 0
        assert sturm_count(inst, Fraction(1, 2), 2) == 2


def test_every_claim_row_but_one_certifies_above_the_grid_floor(monkeypatch):
    # Each claim's sign holds on the whole orthant above the declared lower
    # ends, by the signs of its Taylor shift, except 4.7-c2.2 at λ = 1,
    # whose shift to (s, t) = (0, 1) has mixed signs.
    open_rows = []
    for cid in ALL_CASES:
        case = get_case(cid)
        floors = {name: case.grid[name][0] for name in case.params}
        for claim in case.sign_claims:
            row = computed_symbolic_poly(cid).substitute({LAMBDA: claim.point})
            if sign_above(row, floors) != claim.sign:
                open_rows.append((cid, claim.point))
                residual = taylor_shift(row, floors)
    assert open_rows == [("4.7-c2.2", Fraction(1))]
    assert residual == parse_poly("2*s*t + t^2 + 2*s - 1", variables=("s", "t"))
    # The split certificate settles that row on the grid at every cap: s >= 1
    # and s = 0, t >= 3 certify +, (0, 1) is below min_param_total and
    # (0, 2) is excluded. So the grid loop evaluates no row of any case.
    case = get_case("4.7-c2.2")
    row = computed_symbolic_poly("4.7-c2.2").substitute({LAMBDA: 1})
    for cap in (3, 20, 500):
        ranges = families._grid_ranges(case, cap, None)
        holds = lambda box: families._box_size(case, box) > 0  # noqa: E731
        assert shift_certificate(row, ranges, 1, holds)
        assert not shift_certificate(row, ranges, -1, holds)
    calls = []
    evaluator = families._evaluator

    def recording(polys, params):
        calls.append(list(polys))
        return evaluator(polys, params)

    monkeypatch.setattr(families, "_evaluator", recording)
    for cid in ALL_CASES:
        verify_sign_claims(cid)
    assert calls == []


def test_grid_respects_constraints():
    case = get_case("4.7-c2.2")
    pts = list(grid_points(case, cap=4))
    assert {"s": 0, "t": 2} not in pts  # excluded instance
    assert all(p["s"] + p["t"] >= 2 for p in pts)
    case = get_case("4.4")
    assert [p["s"] for p in grid_points(case, cap=5)] == [2, 3, 4, 5]


def test_points_checked_is_counted_without_walking_the_grid(monkeypatch):
    # points_checked is the number of points grid_points yields. A case
    # with no open row counts them from the ranges, min_param_total and
    # grid_exclude, and never walks the grid; no case has an open row.
    overrides = [None, {"s": (0, 3)}, {"t": (2, 9)}, {"s": (5, 9), "t": (0, 1)}, {"s": (0, 0)}, {"t": (3, 2)}]
    # an exclusion takes a point off only when it is on the grid: s=t=1
    # is; s=0, t=1 is below 4.6-c1.1's floor and 4.7-c2.2's
    # min_param_total, and s=2 alone names too few parameters
    extra = {"4.6-c1.1": [{"s": 1, "t": 1}, {"s": 0, "t": 1}, {"s": 2}], "4.7-c2.2": [{"s": 0, "t": 1}]}
    for cid, points in extra.items():
        more = tuple(tuple(sorted(p.items())) for p in points)
        _mutate(monkeypatch, cid, grid_exclude=get_case(cid).grid_exclude + more)
    runs = [(cid, cap, o) for cid in ALL_CASES for cap in (3, 20) for o in overrides]
    expected = [sum(1 for _ in grid_points(get_case(cid), cap, o)) for cid, cap, o in runs]
    assert 0 in expected and len(set(expected)) > 20
    walked = []
    walk = families.grid_points

    def recording(case, *args):
        walked.append(case.id)
        return walk(case, *args)

    monkeypatch.setattr(families, "grid_points", recording)
    got = [verify_sign_claims(cid, cap, o)["points_checked"] for cid, cap, o in runs]
    assert got == expected
    assert walked == []


def test_a_zero_row_and_an_emptied_range_settle_without_walking(monkeypatch):
    walked = []
    walk = families.grid_points

    def recording(case, *args):
        walked.append(case.id)
        return walk(case, *args)

    monkeypatch.setattr(families, "grid_points", recording)
    case = get_case("4.4")
    holds_calls = []

    def holds(box):
        holds_calls.append(box)
        return families._box_size(case, box) > 0

    # λ = 0 is a root of every quotient, so its row is the zero polynomial:
    # the whole orthant is a zero part, settled for neither sign with no split
    zero = computed_symbolic_poly("4.4").substitute({LAMBDA: 0})
    assert not zero
    ranges = families._grid_ranges(case, 20, None)
    assert not shift_certificate(zero, ranges, 1, holds)
    assert not shift_certificate(zero, ranges, -1, holds)
    assert holds_calls == [ranges, ranges]
    # an override that empties a range leaves a grid with no point, which
    # settles every row, the zero row too
    emptied = families._grid_ranges(case, 20, {"s": (5, 4)})
    assert shift_certificate(zero, emptied, 1, holds) and shift_certificate(zero, emptied, -1, holds)
    claims = case.sign_claims
    _mutate(monkeypatch, "4.4", sign_claims=(claims[0]._replace(point=Fraction(0)),) + claims[1:])
    for cid in ALL_CASES:
        for overrides in ({"s": (5, 4)}, {"t": (3, 2)}):
            if set(overrides) <= set(get_case(cid).params):
                report = verify_sign_claims(cid, overrides=overrides)
                assert report == _oracle_sign_claims(cid, 20, overrides), cid
                assert report["points_checked"] == 0
    assert walked == []


def test_closed_forms():
    r = closed_form_root_check("i", cap=8)
    assert r["identity_ok"] and r["bracket_ok"] and r["no_integer_roots"]
    r = closed_form_root_check("ii")
    assert r["integer_spectrum_ok"] and r["residual_ok"]
    assert r["decimal_digits"] == ("4.73", "1.27")
    r = closed_form_root_check("iii")
    assert r["integer_spectrum_ok"] and r["residual_ok"]
    assert r["decimal_digits"] == ("5.56", "1.44")
    r = closed_form_root_check("iv", cap=8)
    assert r["printed_instance_ok"] and r["identity_ok"] and r["bracket_ok"] and r["no_integer_roots"]
    with pytest.raises(ValueError):
        closed_form_root_check("v")


def test_cross_checks():
    for cid, values in [
        ("4.4", {"s": 3}),
        ("4.5", {"s": 2}),
        ("4.6-c1.2", {"s": 1, "t": 1}),
        ("4.6-c2.1", {"s": 2}),
        ("4.7-c1.1", {"s": 2, "t": 1}),
        ("4.7-c2.2", {"s": 0, "t": 2}),
        ("4.7-c3.1", {"s": 1, "t": 1}),
    ]:
        report = cross_check_with_realization(cid, **values)
        assert report["all_ok"], report


def test_transcribed_matrix_at_concrete_parameters_matches_graph_quotient():
    # instantiate the verbatim transcription and compare to the quotient
    # computed from the realized graph itself
    from lapspec import laplacian, quotient_matrix

    for cid, values in [("4.4", {"s": 3}), ("4.7-c1.2", {"s": 2, "t": 1})]:
        case = get_case(cid)
        cfg = case_config(cid, **values)
        cells = quotient_cells(cfg)
        got = quotient_matrix(laplacian(realize(cfg)), cells)
        for i, row in enumerate(case.printed_matrix):
            for j, text in enumerate(row):
                want = parse_poly(text, variables=case.params).eval_at(values)
                assert got.entries[i][j] == want, (cid, i, j)


def test_quotient_cells_of_a_case_order_cells_by_minimum():
    cfg = case_config("4.6-c1.1", s=2, t=2)
    cells = quotient_cells(cfg)
    assert cells[0] == (0,) and cells[1] == (1,)
    mins = [c[0] for c in cells]
    assert mins == sorted(mins)
    g = realize(cfg)
    assert sum(len(c) for c in cells) == g.n


def test_excluded_instances_are_not_integral():
    for cid in ("4.4", "4.5", "4.6-c2.2", "4.7-c2.2"):
        for entry in excluded_instance_report(cid):
            if entry["realizable"]:
                assert entry["L_integral"] is False
            else:
                # the branch value drops the instance out of the family
                assert entry == {"case": "4.6-c2.2", "params": {"s": 1}, "realizable": False}


def test_quotient_root_implies_instance_not_integral():
    # concrete instances of every case are non-integral, matching the
    # quotient's certified root strictly inside the claimed interval
    for cid in ALL_CASES:
        case = get_case(cid)
        point = next(grid_points(case, cap=6))
        g = realize(case_config(cid, **point))
        assert not is_L_integral(g), (cid, point)


def test_erratum_entries_exist():
    entries = erratum_entries()
    ids = {e["id"] for e in entries}
    assert "quotient-poly-15^2" in ids
    assert "quotient-matrix-hub-diagonal" in ids
    assert "one-hub-classification-pendant-bound" in ids
    assert len(entries) >= 9
