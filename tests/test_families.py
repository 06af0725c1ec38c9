import hashlib
import json
from fractions import Fraction
from itertools import islice

import pytest

from lapspec import (
    FamilyConfig,
    LAMBDA,
    MPoly,
    build_quotient,
    case_config,
    case_ids,
    closed_form_root_check,
    cross_check_with_realization,
    erratum_entries,
    is_L_integral,
    parse_poly,
    quotient_cells,
    realize,
    verify_printed_matrix,
    verify_printed_polynomial,
    verify_sign_claims,
)
from lapspec import families, polys
from lapspec.polys import _terms_shift, divide_root, sign_above, sign_exceptions
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

from oracle_helpers import (
    berkowitz_char_poly,
    count_roots,
    family_factors,
    fraction_sign,
    fraction_value,
    lift,
    sturm_count_oracle,
)

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


def test_a_fixed_path_count_of_0_is_rejected(monkeypatch, tmp_path):
    # the catalog's quotients are read off link tables at counts >= 1, and a
    # fixed 0 would drop its kind's θ, which the symbolic matrix keeps
    with open(families._CASES_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["4.4"]["paths"]["5"] = "0"
    data = tmp_path / "cases.json"
    data.write_text(json.dumps(raw), encoding="utf-8")
    monkeypatch.setattr(families, "_CASES_PATH", str(data))
    load_cases.cache_clear()
    with pytest.raises(ValueError, match="case 4.4"):
        load_cases()


def test_build_quotient_golden_rows():
    q = build_quotient("4.4", symbolic=True)
    s = MPoly.var("s", ("s",))
    assert q[0] == (s + 2, -1, -1 * s, -1, 0, 0)
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
        for i, row in enumerate(sym):
            for j, e in enumerate(row):
                e = e.eval_at(values) if isinstance(e, MPoly) else e
                assert e == conc.entries[i][j]


def test_symbolic_poly_equals_berkowitz_oracle_and_the_sweep_fold():
    # Oracle: Berkowitz over Z[s,t] on the symbolic quotient rows. And at
    # concrete counts the catalog polynomial is the sweep's quotient of the
    # same member, every path order present.
    points = 0
    for cid in ALL_CASES:
        poly = computed_symbolic_poly(cid)
        assert poly == lift(berkowitz_char_poly(build_quotient(cid, symbolic=True))), cid
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
    """Oracle: the sign-claim check point by point, substituting each grid
    point into Z[s,t][λ], evaluating every claim on the instance's
    coefficient list as an exact rational (fraction_value, not MPoly's
    evaluation) and certifying the root by a root count at every point."""
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
        coeffs = poly.substitute(point).univariate_coeffs()
        for claim in case.sign_claims:
            value = fraction_value(coeffs, claim.point)
            if (value > 0) - (value < 0) != claim.sign:
                sign_failures.append({"point": point, "at": str(claim.point), "value": str(value)})
            expr = claim_exprs.get(claim.point)
            if (
                expr is not None
                and (case_id, claim.point) not in SIGN_VALUE_TYPO_LEDGER
                and expr.eval_at(point) != value
            ):
                identity_failures.append({"point": point, "at": str(claim.point)})
        inside = count_roots(coeffs, lo, hi)
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
def no_root_count():
    """Check that the catalog can count no root at a point: the per-point
    count, count_roots, is the tests' oracle (oracle_helpers), and neither
    polys nor families defines or imports one."""
    assert not hasattr(families, "count_roots")
    assert not hasattr(polys, "count_roots")


def _one_sign(sign):
    """The sign_exceptions verdict that its one polynomial has that sign."""
    return lambda signs: None if signs[0] is None else signs[0] == sign


def test_sign_claims_equal_the_oracle_on_every_case(no_root_count):
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
    # the lower end is a root at every point: its zero row is skipped by
    # the Budan–Fourier count, which settles every point
    ("4.6-c2.1", "interval", (Fraction(0), Fraction(1)), set()),
    ("4.7-c2.2", "interval", (Fraction(0), Fraction(1)), set()),
    # the ends have the same sign, with two roots between them at every
    # point: the Budan–Fourier rows at the ends settle the grid
    ("4.4", "two_roots", (Fraction(1, 2), Fraction(2)), set()),
    ("4.7-c3.1", "two_roots", (Fraction(1, 2), Fraction(2)), set()),
    ("4.7-c1.2", "two_roots", (Fraction(1), Fraction(3)), set()),
]


def _mutate_claims(monkeypatch, case_id, kind, change):
    """Apply one MUTATIONS entry to the catalog."""
    claims = get_case(case_id).sign_claims
    if kind == "signs":
        _mutate(monkeypatch, case_id, sign_claims=tuple(cl._replace(sign=-cl.sign) for cl in claims))
    elif kind == "zero":
        moved = claims[0]._replace(point=Fraction(0))
        _mutate(monkeypatch, case_id, sign_claims=(moved,) + claims[1:])
    elif kind == "values":
        _mutate(monkeypatch, case_id, sign_claims=_claims(case_id, **change))
    else:  # "interval" or "two_roots"
        _mutate(monkeypatch, case_id, root_interval=change)


@pytest.mark.parametrize("case_id, kind, change, failures", MUTATIONS)
def test_mutated_sign_claims_fail_like_the_oracle(monkeypatch, no_root_count, case_id, kind, change, failures):
    _mutate_claims(monkeypatch, case_id, kind, change)
    for cap in (6, 20):
        assert verify_sign_claims(case_id, cap) == _oracle_sign_claims(case_id, cap)
    report = verify_sign_claims(case_id, 20)
    assert {name for name in (SIGN, IDENTITY, ROOT) if report[name]} == failures
    if case_id == "4.7-c2.1":
        assert {f["at"] for f in report["identity_failures"]} == {"1/2"}


# the sha256 of each mutated case's report at cap 500, as JSON in the CLI's
# form, read from the grid walk that checked every point before the split
# search decided them (the last three from the root count at each point
# that decided such a bracket before the Budan–Fourier rows did); keyed by
# MUTATIONS' case and kind
MUTATED_DIGESTS_500 = {
    ("4.4", "signs"): "2266ff7a874bcd72e3e377ab0c93fb1abd6123504419517492b7352fe2d9aa72",
    ("4.7-c3.1", "signs"): "3132388ab3cdf00aaef26702c048c5f7b12eb2b0a3365acc0c663a1a372366af",
    ("4.4", "zero"): "7bed6306598d0245318c8fde44aecbf098585d6245040c53c3fd40f730cc4916",
    ("4.6-c1.1", "values"): "3f76f9d19de0c8485e5d0464112fde87feb3285144337bc1e5d6273ff9cb0f11",
    ("4.7-c2.2", "values"): "32efe9d42599bc2d183efc951d33374a3c51fff9973d1481d5b428fde2d9476e",
    ("4.7-c2.1", "values"): "a676608b364e57062edfa54d95f13f0e708df626f6411f91e63733a9fe8f5408",
    ("4.4", "interval"): "7f70a644eb5b4c37b0a83c3a1eaf61a85e7fa12114952e6bec44b60c359e2b80",
    ("4.7-c1.2", "interval"): "e4d64613befaacaf686c633822bab635e6c4fb2425e10658b21a075782756fd0",
    ("4.5", "interval"): "af60743c66234efd09436aa018d1797e2c884c95d262345c30c6125db2286aab",
    ("4.6-c2.1", "interval"): "3d4922daea738bae177d7b404f24801bbe7cc1bacd5707801aab7e807555c151",
    # read from the Sturm count at each of the 250,498 points, which took 56 s
    ("4.7-c2.2", "interval"): "394c7b45a5b1e398cf3615f68a76589113916ee628ecc97566807c474b4e16ef",
    ("4.4", "two_roots"): "110a8a8af84c82c04890b0af94ce2411b71a6c7c70894984e4c9d3046836f585",
    ("4.7-c3.1", "two_roots"): "cba49cd3161d14f4e6a1ccf3732ac21b0eb53c9ccc80d2321240ce6a5faab025",
    ("4.7-c1.2", "two_roots"): "542eb78be21c351e75fe5a59f66adf0e171e357c2c7288834da463880fd38f34",
}


@pytest.mark.parametrize("case_id, kind, change, failures", MUTATIONS)
def test_mutated_sign_claims_at_the_largest_cap_walk_no_grid(
    monkeypatch, no_root_count, case_id, kind, change, failures
):
    # A misprinted claim's failures come from the split search, which
    # decides single points as constants: the grid is never walked, no root
    # is counted at a point, and the report is byte for byte the grid walk's.
    _mutate_claims(monkeypatch, case_id, kind, change)
    walked = []
    walk = families.grid_points

    def recording(case, *args):
        walked.append(case.id)
        return walk(case, *args)

    monkeypatch.setattr(families, "grid_points", recording)
    report = verify_sign_claims(case_id, families.GRID_CAP_MAX)
    assert walked == []
    text = json.dumps(report, ensure_ascii=False).encode()
    assert hashlib.sha256(text).hexdigest() == MUTATED_DIGESTS_500[case_id, kind]
    assert {name for name in (SIGN, IDENTITY, ROOT) if report[name]} == failures


@pytest.mark.parametrize("case_id", ["4.6-c2.1", "4.7-c2.2"])
def test_a_bracket_end_that_is_a_root_everywhere_takes_no_sturm_count(monkeypatch, no_root_count, case_id):
    # 0 is a root of every quotient, so the row at the end 0 is the zero
    # polynomial, and the end signs settle nothing; the Budan–Fourier count
    # skips the zero row, and the rows at 0 and 1 settle every point, up to
    # the largest cap
    _mutate(monkeypatch, case_id, root_interval=(Fraction(0), Fraction(1)))
    for cap in (20, families.GRID_CAP_MAX):
        assert verify_sign_claims(case_id, cap)["root_in_interval_ok"]


def test_divide_root_is_exact_synthetic_division():
    # over Z, as deflate divides, and over Z[s,t]: the division takes only
    # the ring operations of its coefficients
    cofactor = [parse_poly(text, variables=("s", "t")) for text in ("s^2 + 3", "-2*s", "1")]
    # (λ - 4)·(c0 + c1·λ + c2·λ²), ascending in λ
    f = [-4 * cofactor[0], cofactor[0] - 4 * cofactor[1], cofactor[1] - 4 * cofactor[2], cofactor[2]]
    assert divide_root(f, 4) == cofactor
    assert divide_root([12, -7, 1], 4) == [-3, 1] and divide_root([-4, 1], 4) == [1]
    for c in (f, [12, -7, 1]):
        with pytest.raises(ValueError, match="5 is not a root"):
            divide_root(c, 5)


def test_two_roots_between_equal_signs_settle_by_budan_fourier_rows(monkeypatch, no_root_count):
    # (1/2, 2) holds two roots of every 4.4 quotient, and the quotient has
    # the same sign at both ends, so the end signs settle nothing; the
    # Budan–Fourier rows at the ends certify a root inside on the whole
    # orthant, with no root counted at a point and no grid walked, up to the
    # largest cap. The quotient is real-rooted, so count_roots' Budan–Fourier
    # count, the oracle's, is the Sturm oracle's
    _mutate(monkeypatch, "4.4", root_interval=(Fraction(1, 2), Fraction(2)))
    walked = []
    walk = families.grid_points

    def recording(case, *args):
        walked.append(case.id)
        return walk(case, *args)

    monkeypatch.setattr(families, "grid_points", recording)
    report = verify_sign_claims("4.4")
    assert report == _oracle_sign_claims("4.4", 20)
    assert report["root_in_interval_ok"] and report["points_checked"] == 19
    assert verify_sign_claims("4.4", families.GRID_CAP_MAX)["root_in_interval_ok"]
    assert walked == []
    for point in grid_points(get_case("4.4"), 20):
        inst = computed_symbolic_poly("4.4").substitute(point).univariate_coeffs()
        assert fraction_sign(inst, Fraction(1, 2)) == fraction_sign(inst, 2) != 0
        assert count_roots(inst, Fraction(1, 2), 2) == sturm_count_oracle(inst, Fraction(1, 2), 2) == 2


def test_every_claim_row_but_one_certifies_above_the_grid_floor(monkeypatch):
    # Each claim's sign holds on the whole orthant above the declared lower
    # ends, by the signs of its Taylor shift, except 4.7-c2.2 at λ = 1,
    # whose shift to (s, t) = (0, 1) has mixed signs. A claim at p/r is read
    # off its row r^d·f(p/r), which has f's sign there.
    open_rows = []
    for cid in ALL_CASES:
        case = get_case(cid)
        floors = {name: case.grid[name][0] for name in case.params}
        coeffs = computed_symbolic_poly(cid).coefficients_in(LAMBDA)
        for claim in case.sign_claims:
            row = families._row(coeffs, claim.point, case.params)
            if sign_above(row, floors) != claim.sign:
                open_rows.append((cid, claim.point))
                residual = MPoly(row.vars, _terms_shift(row.terms, [floors[v] for v in row.vars]))
    assert open_rows == [("4.7-c2.2", Fraction(1))]
    assert residual == parse_poly("2*s*t + t^2 + 2*s - 1", variables=("s", "t"))
    # The split search settles that row on the grid at every cap: s >= 1
    # and s = 0, t >= 3 certify +, (0, 1) is below min_param_total and
    # (0, 2) is excluded. So it yields no exception for +, and for - the
    # grid's points in grid order, the first five read here.
    case = get_case("4.7-c2.2")
    row = computed_symbolic_poly("4.7-c2.2").substitute({LAMBDA: 1})
    for cap in (3, 20, 500):
        ranges = families._grid_ranges(case, cap, None)
        holds = lambda box: families._box_size(case, box) > 0  # noqa: E731
        assert next(sign_exceptions([row], ranges, _one_sign(1), holds), None) is None
        grid = [tuple(p.values()) for p in islice(grid_points(case, cap), 5)]
        assert list(islice(sign_exceptions([row], ranges, _one_sign(-1), holds), 5)) == grid
    # so no case's report evaluates a claim row at a grid point
    calls = []
    eval_at = MPoly.eval_at

    def recording(self, assignment):
        calls.append(assignment)
        return eval_at(self, assignment)

    monkeypatch.setattr(MPoly, "eval_at", recording)
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
    # the whole orthant is a zero part, of sign 0, settled for sign 0 with
    # no box asked about, and for either other sign it yields every grid
    # point, each asked about once, with no split
    zero = computed_symbolic_poly("4.4").substitute({LAMBDA: 0})
    assert not zero
    ranges = families._grid_ranges(case, 20, None)
    assert next(sign_exceptions([zero], ranges, _one_sign(0), holds), None) is None
    assert holds_calls == []
    grid = [(p["s"],) for p in grid_points(case, 20)]
    for sign in (1, -1):
        holds_calls.clear()
        assert list(sign_exceptions([zero], ranges, _one_sign(sign), holds)) == grid
        assert holds_calls == [ranges] + [[range(s, s + 1)] for s, in grid]
    # an override that empties a range leaves a grid with no point, which
    # settles every row, the zero row too
    emptied = families._grid_ranges(case, 20, {"s": (5, 4)})
    for sign in (1, -1):
        assert next(sign_exceptions([zero], emptied, _one_sign(sign), holds), None) is None
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
    r = closed_form_root_check("i")
    assert r["identity_ok"] and r["bracket_ok"] and r["no_integer_roots"]
    r = closed_form_root_check("ii")
    assert r["integer_spectrum_ok"] and r["residual_ok"]
    assert r["decimal_digits"] == ("4.73", "1.27")
    r = closed_form_root_check("iii")
    assert r["integer_spectrum_ok"] and r["residual_ok"]
    assert r["decimal_digits"] == ("5.56", "1.44")
    r = closed_form_root_check("iv")
    assert r["printed_instance_ok"] and r["identity_ok"] and r["bracket_ok"] and r["no_integer_roots"]
    with pytest.raises(ValueError):
        closed_form_root_check("v")


def test_closed_form_quadratics_have_no_integer_root_at_each_t():
    # oracle, the point-by-point check the certificate replaces: for t from
    # the bracket's floor to 500, the quadratic factor at t has no integer
    # root and its discriminant lies strictly between the bracket's squares
    for subcase in ("i", "iv"):
        _, _, _, quad_text, root_text, floor = families._QUADRATIC_SUBCASES[subcase]
        quad = parse_poly(quad_text, variables=(LAMBDA, "t"))
        c, b, a = quad.coefficients_in(LAMBDA)
        root = parse_poly(root_text, variables=("t",))
        for t in range(floor, 501):
            at = {"t": t}
            assert not polys.split_integer_roots(quad.substitute(at).univariate_coeffs())[0], (subcase, t)
            disc = b.eval_at(at) ** 2 - 4 * a.eval_at(at) * c.eval_at(at)
            r = root.eval_at(at)
            assert r * r < disc < (r + 1) * (r + 1), (subcase, t)


def test_closed_form_certificate_fails_where_a_bracket_does_not_hold():
    quad = parse_poly(families._QUADRATIC_SUBCASES["i"][3], variables=(LAMBDA, "t"))
    t = parse_poly("t", variables=("t",))
    assert families._no_integer_root(quad, t, 2)
    # (λ - 1)(λ - t - 1): its discriminant t^2 is a square, with root 1
    square = parse_poly("λ^2 - (t+2)*λ + t + 1", variables=(LAMBDA, "t"))
    assert not families._no_integer_root(square, t, 2)
    # subcase i with the bracket root t - 1: its discriminant t^2 + 4 is not below t^2
    assert not families._no_integer_root(quad, t - 1, 2)
    for not_monic in ("2*λ^2 - λ + t", "λ^3 - t", "λ - t"):
        with pytest.raises(ValueError):
            families._no_integer_root(parse_poly(not_monic, variables=(LAMBDA, "t")), t, 2)


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
