"""Fixture harness, conjecture machinery, b-file parsing."""

import copy
import dataclasses
import pathlib
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from riordan import amatrix as amatrix_mod, hankel as hankel_mod, series as series_mod, verify as verify_mod
from riordan.series import InsufficientTerms, Sequence, SeriesError, _over_common_denominator
from riordan.amatrix import AMatrixSpec, closed_form_f_general, solve_f
from riordan.hankel import _minors, _somos_windows, hankel_transform
from riordan.verify import (
    COUNTEREXAMPLE,
    CONFIRMED,
    DEGENERATE,
    FixtureNotFound,
    MalformedLine,
    NonConsecutiveIndices,
    check_conjecture_point,
    conjectured_somos_rho0,
    conjectured_somos_rho_delta,
    load_bfile,
    load_corpus,
    run_fixtures,
    sweep_conjecture_rho0,
    sweep_conjecture_rho_delta,
)

from conftest import record_reversions_and_substitutions

DATA = pathlib.Path(__file__).parent / "data"


# -- the bundled corpus ------------------------------------------------------


def test_corpus_loads_and_covers_the_key_ids():
    ids = {fx.id for fx in load_corpus()}
    for needle in (
        "pascal.triangle",
        "motzkin.production",
        "A171416.hankel",
        "A104545.column",
        "A162547.somos",
        "quasi-involution.check",
        "A006318.aseq",
        "A097609.triangle",
        "A007863.production",
        "A151374.production",
        "A215661.production",
        "narayana-coeffs.triangle",
        "A200074.diagonal-sums",
        "perturbed-moments.triangle",
        "binomial-moments.triangle",
        "subst-bell.production",
    ):
        assert needle in ids


def test_run_all_fixtures_passes():
    report = run_fixtures()
    assert report.ok, [o for o in report.failed]


def test_spec_pairs_revert_and_compose_nothing_to_check_a_and_z(monkeypatch):
    fixtures = [
        fx
        for fx in load_corpus()
        if fx.check_kind in ("aseq", "zseq", "production") and fx.spec["kind"] == "amatrix"
    ]
    monkeypatch.setattr(verify_mod, "load_corpus", lambda: fixtures)
    reverts, substitutions = record_reversions_and_substitutions(monkeypatch)
    report = run_fixtures()
    assert report.ok and report.total == len(fixtures) == 15
    # each pair checks A, and Z when a fixture reads it, on A's own equation
    assert reverts == []
    assert substitutions == []


def test_filtered_runs():
    report = run_fixtures("pascal")
    assert report.ok and report.total >= 2
    report = run_fixtures("A104545")
    assert report.ok and report.total == 2


def test_unknown_filter_raises():
    with pytest.raises(FixtureNotFound):
        run_fixtures("nonexistent-fixture-name")


def test_order_below_a_fixture_depth_raises_with_its_id():
    with pytest.raises(InsufficientTerms, match="A104545"):
        run_fixtures("A104545", order=2)


def _bump(value):
    return str(Fraction(value) + 1) if isinstance(value, str) else value + 1


def _perturbed(kind, expected):
    """A copy of a fixture's expected value with one literal changed."""
    exp = copy.deepcopy(expected)
    if kind == "quasi_involution":
        return not exp
    if kind == "somos":
        exp["alpha"] = _bump(exp["alpha"])
    elif kind == "jfraction":
        exp["lambda"][-1] = _bump(exp["lambda"][-1])
    elif kind in ("triangle", "production"):
        exp[-1][-1] = _bump(exp[-1][-1])
    else:
        exp[-1] = _bump(exp[-1])
    return exp


def test_every_check_kind_reports_a_wrong_literal(monkeypatch):
    first = {}
    for fx in load_corpus():
        first.setdefault(fx.check_kind, fx)
    assert len(first) == 10
    for kind, fx in first.items():
        bad = dataclasses.replace(fx, expected=_perturbed(kind, fx.expected))
        monkeypatch.setattr(verify_mod, "load_corpus", lambda: [fx, bad])
        report = run_fixtures()
        assert [o.ok for o in report.outcomes] == [True, False], kind
        assert "Error" not in report.outcomes[1].detail, kind


# -- conjectured parameter formulas -------------------------------------------


@pytest.mark.parametrize(
    "params,want",
    [
        ((0, 1, 1, 0), (1, 1)),
        ((-2, -1, 1, 0), (1, 1)),
        ((1, 0, 1, 1), (1, 1)),
        ((0, 1, 0, 1), (4, -4)),
        ((0, 1, 4, 1), (4, 12)),
    ],
)
def test_rho0_formula_values(params, want):
    assert conjectured_somos_rho0(*params) == want


def test_rho0_formula_r_family():
    for r in range(0, 5):
        assert conjectured_somos_rho0(0, 1, r, 1) == (4, r * r - 4)


@pytest.mark.parametrize(
    "params,want",
    [
        ((0, -1, 0, -2), (1, 1)),
        ((0, -1, -2, 2), (1, 3)),
    ],
)
def test_rho_delta_formula_values(params, want):
    assert conjectured_somos_rho_delta(*params) == want


# -- point checks and sweeps -----------------------------------------------------


def test_point_check_confirms_known_examples():
    assert check_conjecture_point(0, 1, 1, 0, 0, 14) == (CONFIRMED, None)
    assert check_conjecture_point(-2, -1, 1, 0, 0, 14) == (CONFIRMED, None)
    assert check_conjecture_point(0, -1, 0, -2, 1, 14) == (CONFIRMED, None)
    assert check_conjecture_point(0, -1, -2, 2, 1, 14) == (CONFIRMED, None)


def test_point_check_flags_degenerate_tuples():
    # b = d = 0 makes the conjectured alpha vanish
    status, _ = check_conjecture_point(1, 0, 1, 0, 0, 14)
    assert status == DEGENERATE


@pytest.mark.parametrize(
    "args,error,message",
    [
        ((Fraction(1, 2), 1, 1.5, 0, 0, 32), TypeError, "not an exact rational: float 1.5"),
        ((0, 1, 1, 0, True, 32), TypeError, "not an exact rational: bool True"),
        ((0, 1, 1, 0, 1.0, 32), TypeError, "not an exact rational: float 1.0"),
        ((0, 1, 1, 0, True, 0), TypeError, "not an exact rational: bool True"),
        ((0, 1, 1, 0, 0, 32.0), TypeError, ""),
        ((0, 1, 1, 0, 0, "32"), TypeError, ""),
        ((0, 1, 1, 0, 2, 32), ValueError, "rho0 must be 0 or 1"),
        ((0, 1, 1, 0, "1", 32), ValueError, "rho0 must be 0 or 1"),
        ((0, 1, 1, 0, 0, 0), SeriesError, "order must be positive"),
        ((0, 1, 1, 0, 0, -3), SeriesError, "order must be positive"),
        ((0, 1, 1, 0, 1, 0), SeriesError, "order must be positive"),
        # conjectured alpha = 0 at both points: every parameter is read before that exit
        ((0, 0, 0, -4, True, 32), TypeError, "not an exact rational: bool True"),
        ((0, 0, 0, -4, 1.0, 32), TypeError, "not an exact rational: float 1.0"),
    ],
)
def test_point_check_errors(args, error, message):
    with pytest.raises(error) as info:
        check_conjecture_point(*args)
    assert message in str(info.value)


def test_point_check_orders_that_raise_nothing():
    # alpha = 0 is degenerate before the order is read; orders 1 and 2 give one minor, no window
    assert check_conjecture_point(1, 0, 1, 0, 0, 0) == (DEGENERATE, None)
    assert check_conjecture_point(1, 0, 1, 0, 0, -3) == (DEGENERATE, None)
    for order in (1, 2, True):
        assert check_conjecture_point(0, 1, 1, 0, 0, order) == (DEGENERATE, None)
    assert check_conjecture_point(0, "1/2", 1, 0, Fraction(1), 32) == check_conjecture_point(0, "1/2", 1, 0, 1, 32)


@pytest.mark.parametrize("point", [(0, 1, 1, 0, 0), (0, -1, 0, -2, 1)])
def test_point_check_reports_the_first_failing_window(point, monkeypatch):
    assert check_conjecture_point(*point, 32) == (CONFIRMED, None)
    minors = hankel_mod._quartic_minors

    def bumped(*args):
        h = minors(*args)
        h[8] += 1
        return h

    monkeypatch.setattr(verify_mod, "_quartic_minors", bumped)
    assert check_conjecture_point(*point, 32) == (COUNTEREXAMPLE, 8)


def test_point_check_needs_two_usable_windows(monkeypatch):
    assert conjectured_somos_rho0(0, 1, 1, 0) == (1, 1)
    assert check_conjecture_point(0, 1, 1, 0, 0, 32) == (CONFIRMED, None)
    # H = 1, 1, 1, 0, ...: only window 4 (0 = alpha * 0 + beta * 1) is usable
    monkeypatch.setattr(verify_mod, "_quartic_minors", lambda *args: [1, 1, 1] + [0] * 13)
    assert check_conjecture_point(0, 1, 1, 0, 0, 32) == (DEGENERATE, None)
    monkeypatch.undo()
    # 1 + x has Hankel transform 1, -1, 0, 0, ...: every window reads 0 = 0
    ones = [1, -1] + [0] * 14
    assert list(hankel_transform(Sequence.of([1, 1] + [0] * 30), 15).terms) == ones
    monkeypatch.setattr(verify_mod, "_quartic_minors", lambda *args: list(ones))
    assert check_conjecture_point(0, 1, 1, 0, 0, 32) == (DEGENERATE, None)


def plant(mp, alpha_bump=0, beta_bump=0):
    """Make the point check read (alpha + alpha_bump, beta + beta_bump) for its invariants
    (alpha, beta), through _genus1_quartic, which scales them by g^6 and g^8 over a common
    denominator g = e20; the minors still read the point's own quartic."""
    genus1_quartic = hankel_mod._genus1_quartic

    def planted(e):
        quartic, (alpha, beta) = genus1_quartic(e)
        g = e[3]
        return quartic, (alpha + alpha_bump * g**6, beta + beta_bump * g**8)

    mp.setattr(verify_mod, "_genus1_quartic", planted)


def conjectured(a, b, c, d, rho0):
    """Oracle: the paper's closed-form (alpha, beta) of the point."""
    return (conjectured_somos_rho0 if rho0 == 0 else conjectured_somos_rho_delta)(a, b, c, d)


def fraction_point_check(a, b, c, d, rho0, order, bump=0):
    """Oracle: the point check on the closed form's Fraction Sequence, through
    hankel_transform and Fraction windows (the route before int minors), with the
    closed-form alpha bumped by bump."""
    fx = closed_form_f_general(a, b, c, d, rho0, order)
    h = hankel_transform(Sequence(fx.coeffs), (order - 1) // 2).terms
    alpha, beta = conjectured(a, b, c, d, rho0)
    alpha += bump
    windows = list(_somos_windows(h))
    if alpha == 0 or sum(1 for _, p, q, r in windows if p or q or r) < 2:
        return DEGENERATE, None
    failing = next((n for n, p, q, r in windows if alpha * p + beta * q != r), None)
    return (CONFIRMED, None) if failing is None else (COUNTEREXAMPLE, failing)


@pytest.mark.parametrize("bump", [0, Fraction(1, 3)])
def test_int_point_check_matches_the_fraction_route(rng, bump, monkeypatch):
    """Seeded int and p/q points (closed-form denominators other than 1), with
    the conjectured alpha as is or bumped so that windows fail."""
    plant(monkeypatch, bump)
    statuses, dens = set(), set()
    for i in range(60):
        if i % 2:
            params = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        else:
            params = [rng.randint(-4, 4) for _ in range(4)]
        rho0, order = i % 4 // 2, rng.randint(10, 24)
        got = check_conjecture_point(*params, rho0, order)
        assert got == fraction_point_check(*params, rho0, order, bump)
        statuses.add(got[0])
        dens.add(closed_form_f_general(*params, rho0, order)._den > 1)
    assert dens == {False, True}
    assert statuses == ({CONFIRMED, DEGENERATE} if bump == 0 else {COUNTEREXAMPLE, DEGENERATE})


def closed_form_minors(a, b, c, d, rho0, order):
    """Oracle: the int minors of the closed form's numerators (closed_form_f_general, then
    hankel._minors), the point check's route before the P-fraction, and that denominator."""
    fx = closed_form_f_general(a, b, c, d, rho0, order)
    return _minors(fx._nums, (order - 1) // 2), fx._den


def minors_point_check(a, b, c, d, rho0, minors, bump=0):
    """Oracle: the point check's windows on the oracle's minors, with the closed-form alpha
    bumped by bump."""
    alpha, beta = conjectured(a, b, c, d, rho0)
    alpha += bump
    usable = [(n, alpha * p + beta * q != r) for n, p, q, r in _somos_windows(minors) if p or q or r]
    if alpha == 0 or len(usable) < 2:
        return DEGENERATE, None
    failing = next((n for n, fails in usable if fails), None)
    return (CONFIRMED, None) if failing is None else (COUNTEREXAMPLE, failing)


def family_grid(a, b, c, d, rho0):
    """The grid ints e = (g rho0, ga, g^2 b, g, g^2 c, g^3 d) of the point over its common
    denominator g: [[1, ga, g^2 b], [g, g^2 c, g^3 d]] with rho (g rho0)."""
    (a, b, c, d, r), g = _over_common_denominator([Fraction(v) for v in (a, b, c, d, rho0)])
    return r, a, b * g, g, c * g, d * g * g


def quartic_minors(a, b, c, d, rho0, depth):
    """(_quartic_minors of the point over its common denominator g, g)."""
    e = family_grid(a, b, c, d, rho0)
    quartic, _ = hankel_mod._genus1_quartic(e)
    return hankel_mod._quartic_minors(e, quartic, depth), e[3]


def assert_matches_the_closed_form(params, rho0, order):
    """The P-fraction's minors against the oracle's (equal for integer parameters: the
    oracle's are den^(n+1) h_n, these g^(n(n+1)) h_n), and the point check's status and
    failing window against the oracle's, with the conjectured alpha as is and bumped."""
    want, den = closed_form_minors(*params, rho0, order)
    got, g = quartic_minors(*params, rho0, (order - 1) // 2)
    if g == 1:
        assert got == want and den == 1
    assert [h * den ** (n + 1) for n, h in enumerate(got)] == [h * g ** (n * (n + 1)) for n, h in enumerate(want)]
    statuses = []
    for bump in (0, Fraction(1, 3)):
        with pytest.MonkeyPatch.context() as mp:
            plant(mp, bump)
            status = check_conjecture_point(*params, rho0, order)
            assert status == minors_point_check(*params, rho0, want, bump)
            statuses.append(status)
    return got, statuses


small_ints = st.integers(-6, 6)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(2, 4))


@settings(max_examples=80)
@given(
    st.one_of(  # integer points apart, so that half the examples compare the minors themselves
        st.lists(small_ints, min_size=4, max_size=4),
        st.lists(st.one_of(small_ints, small_fractions), min_size=4, max_size=4),
    ),
    st.sampled_from([0, 1]),
    st.integers(10, 128),
)
def test_point_check_matches_the_closed_form_minors(params, rho0, order):
    assert_matches_the_closed_form(params, rho0, order)


def test_a_degree_two_quotient_gives_one_zero_minor():
    got, statuses = assert_matches_the_closed_form((-4, -4, 1, -4), 0, 32)
    assert [n for n, h in enumerate(got) if h == 0] == [1, 5, 9, 13]
    # window 4 reads p = H_3 H_1 = 0, so a bumped alpha first fails at window 5
    assert statuses == [(CONFIRMED, None), (COUNTEREXAMPLE, 5)]
    # the first level's quotient has degree 2: H_1 = 0 and H_2 = -E1^2, E1 = -(b + d) - ab = -8
    assert got[:3] == [1, 0, -64]


def test_a_fraction_that_ends_gives_zero_minors_to_its_end():
    """A = 0 (rho0 = b = d = 0): G = (z + 1)/(z^2 - az - c) is rational, so its fraction ends.
    alpha is 0 there, so the point check never reaches the recurrence; call it directly."""
    ends = set()
    for a in range(-3, 4):
        for c in range(-3, 4):
            want, _ = closed_form_minors(a, 0, c, 0, 0, 40)
            got, g = quartic_minors(a, 0, c, 0, 0, 19)
            assert got == want and g == 1
            assert conjectured_somos_rho0(a, 0, c, 0)[0] == 0
            ends.add(sum(1 for h in got if h != 0))
    # the fraction ends at level 0 (1 + a = c) or 1, or has one quotient of degree 2
    assert ends == {1, 2}


def test_p_over_q_points_match_the_closed_form():
    for params, rho0 in [
        ((Fraction(1, 2), Fraction(-1, 3), 2, Fraction(1, 4)), 1),
        ((Fraction(-4, 3), Fraction(5, 2), Fraction(1, 6), -1), 0),
        ((0, "1/2", 1, 0), 0),
    ]:
        got, statuses = assert_matches_the_closed_form(params, rho0, 40)
        assert statuses[0] == (CONFIRMED, None)


@pytest.mark.parametrize("rho0", [0, 1])
def test_the_closed_forms_are_the_quartic_invariants(rho0):
    """The paper's closed forms equal the invariants (E1^2, E0^2 + s0 E1^2 - s1 E1 E0) of the
    point's quartic (_genus1_quartic at g = 1) at every point of [-3..3]^4, which proves them
    equal as polynomials in a, b, c and d.  In each variable both sides have degree <= 5: s1
    and s0 have degree <= 1 and E1 and E0 degree <= 2, so beta has degree <= 5, and the closed
    forms' highest power is a^5.  Two polynomials of degree <= 5 in each of four variables
    that agree at 7 values of each agree everywhere, by induction on the variables: a
    polynomial of degree <= 5 in one variable with more than 5 roots is 0."""
    for a, b, c, d in product(range(-3, 4), repeat=4):
        _, invariants = hankel_mod._genus1_quartic((rho0, a, b, 1, c, d))
        assert invariants == conjectured(a, b, c, d, rho0)


@settings(max_examples=60)
@given(st.lists(st.one_of(small_ints, small_fractions), min_size=4, max_size=4), st.sampled_from([0, 1]))
def test_the_quartic_invariants_of_a_scaled_point_carry_g6_and_g8(params, rho0):
    grid = family_grid(*params, rho0)
    alpha, beta = conjectured(*params, rho0)
    assert hankel_mod._genus1_quartic(grid)[1] == (grid[3] ** 6 * alpha, grid[3] ** 8 * beta)


def test_a_planted_beta_fails_at_the_first_usable_window_with_q_nonzero(rng):
    """beta + 1 moves window n by q = H_(n-2)^2 alone, so a point that holds fails first where
    q != 0, past any usable window with H_(n-2) = 0, and a degenerate point stays degenerate."""
    points = [((0, 1, 1, 0), 0), ((-4, -4, 1, -4), 0), ((-4, -1, -4, -1), 0), ((0, -1, -2, 2), 1)]
    points += [([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)], i % 2) for i in range(30)]
    past_q_zero, statuses = set(), set()
    for params, rho0 in points:
        status = check_conjecture_point(*params, rho0, 32)
        with pytest.MonkeyPatch.context() as mp:
            plant(mp, beta_bump=1)
            planted = check_conjecture_point(*params, rho0, 32)
        statuses.add(status[0])
        if status == (DEGENERATE, None):
            assert planted == status
            continue
        want, _ = closed_form_minors(*params, rho0, 32)
        usable = [(n, q) for n, p, q, r in _somos_windows(want) if p or q or r]
        n = next(n for n, q in usable if q)
        assert status == (CONFIRMED, None) and planted == (COUNTEREXAMPLE, n)
        past_q_zero.add(n > usable[0][0])
    assert past_q_zero == {False, True} and statuses == {CONFIRMED, DEGENERATE}


def test_point_check_forms_no_series_and_no_chebyshev_row(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the point check formed a series or a Chebyshev row")

    for module, name in ((amatrix_mod, "closed_form_f_general"), (series_mod, "_polynomial_root"), (hankel_mod, "_monic_rows")):
        monkeypatch.setattr(module, name, refuse)
    assert check_conjecture_point(0, 1, 1, 0, 0, 32) == (CONFIRMED, None)
    assert check_conjecture_point(-4, -4, 1, -4, 0, 32) == (CONFIRMED, None)
    assert check_conjecture_point(Fraction(1, 2), Fraction(-1, 3), 2, Fraction(1, 4), 1, 40) == (CONFIRMED, None)


def test_small_sweeps_are_well_formed():
    for sweep in (sweep_conjecture_rho0, sweep_conjecture_rho_delta):
        report = sweep(-1, 0, 12)
        assert report.total == 16
        assert report.total == report.confirmed + report.degenerate + len(
            report.counterexamples
        )
        d = report.as_dict()
        assert d["total"] == 16 and d["range"] == [-1, 0]


def test_sweep_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sweep_conjecture_rho0(2, -2)
    with pytest.raises(ValueError):
        sweep_conjecture_rho0(0, 0, order=6)


# -- b-files ------------------------------------------------------------------


def test_load_bundled_somos_bfile():
    seq = load_bfile(DATA / "b006720.txt")
    assert seq.offset == 0
    assert seq.integers()[:9] == [1, 1, 1, 1, 2, 3, 7, 23, 59]
    # the defining recurrence as an independent check of the bundled data
    t = seq.terms
    for n in range(4, len(t)):
        assert t[n] * t[n - 4] == t[n - 1] * t[n - 3] + t[n - 2] ** 2


def test_hankel_matches_somos_bfile_with_shift():
    # Hankel transform of the A171416 column equals the b-file from index 2 on
    col = solve_f(AMatrixSpec.of([[1, 0, 1], [1, 1, 0]]), 24).f.div_x()
    h = hankel_transform(Sequence(col.coeffs), 11)
    ref = load_bfile(DATA / "b006720.txt")
    assert list(h.terms) == list(ref.terms[2 : 2 + 12])


def test_load_bfile_parses_simple_file(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("# comment line\n0 1\n1 1\n2 2\n3 3\n4 7\n")
    seq = load_bfile(p)
    assert seq.offset == 0
    assert seq.integers() == [1, 1, 2, 3, 7]


def test_load_bfile_nonzero_offset(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("3 10\n4 20\n")
    seq = load_bfile(p)
    assert seq.offset == 3 and seq.integers() == [10, 20]


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_load_bfile_has_no_digit_cap(tmp_path, digits, sign):
    # CPython 3.11+ caps int(str) at 4300 digits; b-file values have no cap
    n = sign * (10**digits - 7)
    p = tmp_path / "b.txt"
    p.write_text(f"0 1\n1 {Decimal(n)}\n2 {Decimal(n)}/3\n")
    assert load_bfile(p).terms == (1, n, Fraction(n, 3))


def test_load_bfile_rejects_gaps(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("0 1\n2 5\n")
    with pytest.raises(NonConsecutiveIndices):
        load_bfile(p)


def test_load_bfile_rejects_malformed_lines(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("0 1 extra\n")
    with pytest.raises(MalformedLine):
        load_bfile(p)
    p.write_text("zero 1\n")
    with pytest.raises(MalformedLine):
        load_bfile(p)
    p.write_text("# only a comment\n")
    with pytest.raises(MalformedLine):
        load_bfile(p)


def test_load_bfile_rejects_non_ascii_bytes(tmp_path):
    p = tmp_path / "b.txt"
    p.write_bytes(b"0 1\n1 \xff\n")
    with pytest.raises(MalformedLine, match="line 2"):
        load_bfile(p)
