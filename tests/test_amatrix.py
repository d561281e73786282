"""Coefficient-array solving, direct triangles, closed forms, substitution."""

import json
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import riordan.amatrix as amatrix_mod
from riordan.series import InsufficientTerms, PowerSeries, SeriesError, catalan, rational_series, _over_common_denominator
from riordan.core import (
    NotRiordanBand,
    a_sequence,
    bell_from_f,
    riordan_inverse,
    riordan_triangle,
)
from riordan.amatrix import (
    AMatrixSpec,
    InvalidSpec,
    NonConvergence,
    bell_pair,
    binomial_transform_equation_check,
    closed_form_f_general,
    direct_triangle,
    functional_equation_residual,
    narayana_poly_coeffs,
    orthogonal_poly_coeffs,
    perturbed_f,
    solve_f,
)

from conftest import (
    amatrix_specs,
    bump_term,
    catalan_recurrence,
    composition_checks,
    fraction_grid,
    int_products,
    random_fraction,
    random_nonzero_fraction,
    record_reversions_and_substitutions,
    series_products,
    series_residual,
    small_fraction,
)


def catalan_form(lead, den, inner, order):
    """Oracle: the Catalan composition the closed forms ran before the quadratic solver.

    (lead/den) * C(inner/den^2) for polynomials lead, den, inner.

    One Newton reciprocal of den serves both quotients; C(u) comes from the
    coefficient recurrence of catalan_of, not from composing series.
    """
    inv = 1 / PowerSeries.of(den, order)
    return PowerSeries.of(lead, order) * inv * catalan_recurrence(PowerSeries.of(inner, order) * inv * inv)


def random_specs(rng, count):
    """Random small specs: rows of width <= 3, depth <= 2, rho length <= 2,
    entries in -2..2, top-left entry 1."""
    out = []
    while len(out) < count:
        depth = rng.randint(1, 2)
        width = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(depth)]
        rows[0][0] = 1
        rho = [rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
        out.append(AMatrixSpec(rows, rho))
    return out


def fixed_point_f(spec, order):
    """Oracle: the fixed-point loop f <- Phi(f) from a[0][0]*x, which pins at
    least one coefficient per pass.  Phi is summed row by row, a repeated
    last row written out to the working order, so neither
    AMatrixSpec.row_sum nor solve_f's root takes part."""
    rows = [list(r) for r in spec.rows]
    if spec.repeat_last_row:
        rows += [rows[-1]] * (order - len(rows))
    f = PowerSeries.of([0, spec.rows[0][0]], order)
    for _ in range(order + 1):
        powers = [PowerSeries.one(order)]
        while len(powers) < max(len(r) for r in rows) + len(spec.rho) + 2:
            powers.append(powers[-1] * f)
        rhs = PowerSeries.zero(order)
        for i, row in enumerate(rows[: order - 1]):
            term = PowerSeries.zero(order)
            for j, c in enumerate(row):
                term = term + powers[j] * c
            rhs = rhs + PowerSeries.of([0] * (i + 1) + list(term.coeffs), order)
        for j, c in enumerate(spec.rho):
            rhs = rhs + powers[j + 2] * c
        if rhs.coeffs == f.coeffs:
            return f
        f = rhs
    raise AssertionError("the fixed-point oracle did not settle")


# -- spec parsing and validation -------------------------------------------


def test_spec_requires_nonzero_corner():
    with pytest.raises(InvalidSpec):
        AMatrixSpec([[0, 1]], [])
    with pytest.raises(InvalidSpec):
        AMatrixSpec([], [])


def test_spec_json_roundtrip():
    spec = AMatrixSpec.from_dict(
        {"rows": [[1, "1/2"], [0, -2]], "rho": ["3/4"], "repeat_last_row": True}
    )
    assert spec.rows == ((1, Fraction(1, 2)), (0, -2))
    assert spec.rho == (Fraction(3, 4),)
    assert spec.repeat_last_row
    again = AMatrixSpec.from_dict(spec.to_dict())
    assert again == spec


@pytest.mark.parametrize("flag", ["false", "no", 1, 0, None])
@pytest.mark.parametrize("build", [AMatrixSpec])
def test_spec_refuses_a_repeat_flag_that_is_not_a_bool(build, flag):
    # coercing would read "false" as True, and a spec storing 1 or None has a dict from_dict refuses
    with pytest.raises(TypeError, match="repeat_last_row must be a bool"):
        build([[1, 1]], [], flag)


@pytest.mark.parametrize("flag", [False, True])
def test_spec_with_a_bool_flag_round_trips(flag):
    spec = AMatrixSpec([[1, 1]], [], flag)
    assert spec.repeat_last_row is flag
    assert spec.to_dict()["repeat_last_row"] is flag
    assert AMatrixSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_spec_dict_and_repr_have_no_digit_cap(digits, sign):
    # CPython 3.11+ caps str(int) and int(str) at 4300 digits; a spec has no cap
    n = sign * (10**digits + 1)
    spec = AMatrixSpec([[1, Fraction(1, n)]], [Fraction(n, 2)])
    again = AMatrixSpec.from_dict(spec.to_dict())
    assert again == spec
    assert spec.to_dict()["rho"] == [f"{Decimal(n)}/2"]
    assert repr(spec) == (
        f"AMatrixSpec(rows=((Fraction(1, 1), Fraction({sign}, {Decimal(abs(n))})),), "
        f"rho=(Fraction({Decimal(n)}, 2),), repeat_last_row=False)"
    )


@pytest.mark.parametrize("digits", [4299, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_spec_json_text_has_no_digit_cap(digits, sign):
    # json writes an int with int.__repr__, which CPython caps at 4300 digits, so an
    # integral entry past the cap is written as its decimal string
    n = sign * (10 ** (digits - 1) + 7)
    spec = AMatrixSpec([[1, n], [n]], [n], repeat_last_row=True)
    data = spec.to_dict()
    assert data["rho"] == [n if digits < 4300 else str(Decimal(n))]
    assert AMatrixSpec.from_dict(json.loads(json.dumps(data))) == spec


def test_spec_json_rejects_garbage():
    with pytest.raises(InvalidSpec):
        AMatrixSpec.from_dict({"rho": []})
    with pytest.raises(InvalidSpec):
        AMatrixSpec.from_dict({"rows": "nope"})
    with pytest.raises(InvalidSpec):
        AMatrixSpec.from_dict({"rows": [[1]], "rho": [0.5]})
    with pytest.raises(InvalidSpec):
        AMatrixSpec.from_dict({"rows": [[True, 1]]})
    with pytest.raises(InvalidSpec):
        AMatrixSpec.from_dict({"rows": [[1]], "rho": [False]})
    for zero_denominator in ({"rows": [[1, "1/0"]]}, {"rows": [[1]], "rho": ["1/0"]}):
        with pytest.raises(InvalidSpec):
            AMatrixSpec.from_dict(zero_denominator)
    for key in ("repeat_last_rows", "Rho", "rows ", "kind"):
        with pytest.raises(InvalidSpec, match=f"unknown spec key '{key}'"):
            AMatrixSpec.from_dict({"rows": [[1, 1]], "rho": [1], key: True})


def test_spec_entry_reads_rows_from_minus_one():
    spec = AMatrixSpec([[1, 2], [3, 4]], [5], repeat_last_row=True)
    assert [spec.entry(-1, j) for j in range(4)] == [0, 0, 5, 0]
    assert [spec.entry(i, 1) for i in range(4)] == [2, 4, 4, 4]
    assert AMatrixSpec([[1, 2]]).entry(3, 0) == 0
    for i, j in ((-2, 0), (-3, 0), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="no array entry"):
            spec.entry(i, j)


# -- the equation solver -------------------------------------------------------


def test_solve_geometric_row():
    spec = AMatrixSpec([[1, 0, 0], [0, -1, -1]], [1])
    rep = solve_f(spec, 10)
    assert functional_equation_residual(spec, rep.f).is_zero()
    assert rep.f.coeffs == rational_series([0, 1], [1, -1], 10).coeffs


def test_solve_two_row_no_rho():
    rep = solve_f(AMatrixSpec([[1, 0, 1], [1, 1, 0]]), 12)
    assert rep.f.integers() == [0, 1, 1, 2, 3, 7, 13, 31, 65, 156, 351, 849]


def test_solve_single_row_with_quadratic_rho():
    rep = solve_f(AMatrixSpec([[1, 1]], [1, 2]), 8)
    assert rep.f.div_x().integers() == [1, 2, 8, 40, 224, 1344, 8448]
    # matches the radical closed form (1 - sqrt(1-8x)) / 4
    closed = (1 - PowerSeries.of([1, -8], 8).sqrt()) / 4
    assert rep.f.coeffs == closed.coeffs


def test_identity_array_has_three_characterizations():
    specs = [
        AMatrixSpec([[1, 0, 1], [-1, -1, 0]], [1]),
        AMatrixSpec([[1, -1, 1], [0, -1, 0]], [1]),
        AMatrixSpec([[1]], []),
    ]
    for spec in specs:
        f = solve_f(spec, 10).f
        assert f.coeffs == PowerSeries.x(10).coeffs


def test_solve_rejects_low_order():
    with pytest.raises(ValueError):
        solve_f(AMatrixSpec([[1]], []), 1)
    for order in (0, -1):
        with pytest.raises(SeriesError):
            closed_form_f_general(1, -2, 3, 1, 1, order)
        with pytest.raises(SeriesError):
            perturbed_f(2, 3, 5, order)


def test_residual_vanishes_on_random_specs(rng):
    for spec in random_specs(rng, 10):
        rep = solve_f(spec, 12)
        assert functional_equation_residual(spec, rep.f).is_zero()
        assert rep.iterations <= 13


def test_iterations_count_newton_steps_plus_the_check():
    # the root pass plus the residual check, at every order
    spec = AMatrixSpec([[1, 0, 1], [1, 1, 0]])
    orders = (2, 3, 4, 48, 64, 128, 256)
    assert [solve_f(spec, n).iterations for n in orders] == [2] * len(orders)


@settings(max_examples=60)
@given(amatrix_specs(), st.integers(2, 40))
def test_newton_solve_matches_fixed_point_oracle(spec, order):
    assert solve_f(spec, order).f.coeffs == fixed_point_f(spec, order).coeffs


def newton_slope(spec, f):
    """Phi'(f) = sum_(i >= -1) x^(i+1) P_i'(f) at f's order, for the Newton oracles."""
    n = f.order
    rho_row = (0, 0, *spec.rho)
    powers = [PowerSeries.one(n), f]
    while len(powers) < max(map(len, (rho_row, *spec.rows))):
        powers.append(powers[-1] * f)

    def value(row):
        return sum((powers[j - 1] * (j * c) for j, c in enumerate(row) if j), PowerSeries.zero(n))

    return spec.row_sum(value).mul_x().truncate(n) + value(rho_row)


def newton_f(spec, order):
    """Oracle: Newton iteration on f = Phi(f) (Brent and Kung 1978), the route
    solve_f took before the polynomial root.  Phi'(f) has no constant term, so
    1 - Phi'(f) is a unit and f <- f - (f - Phi(f)) / (1 - Phi'(f)) doubles the
    exact coefficients, from a[0][0]*x, exact to order 2.  With f exact to k
    terms and n = min(2k, order), the correction needs w = 1/(1 - Phi'(f)) only
    to its n - k new terms, and the w of the step before is an exact prefix of
    it, so w is carried from step to step and extended by Newton steps of the
    inverse."""
    f = PowerSeries.of([0, spec.rows[0][0]])
    w = PowerSeries.one(1)
    while (k := f.order) < order:
        n = min(2 * k, order)
        f = f._padded(n)
        d = 1 - newton_slope(spec, f).truncate(n - k)
        while (m := w.order) < n - k:
            w = w._padded(min(2 * m, n - k))
            e = d * w
            w = w - (w * PowerSeries._ints(e._nums[m:], e._den))._shift(m)
        r = functional_equation_residual(spec, f)
        f = f - (PowerSeries._ints(r._nums[k:], r._den) * w)._shift(k)
    return f


def full_division_newton(spec, order):
    """Oracle: the Newton solve that carried nothing from step to step, dividing
    f - Phi(f) by 1 - Phi'(f) with a full Newton inverse at every step."""
    f = PowerSeries.of([0, spec.rows[0][0]])
    while f.order < order:
        f = f._padded(min(2 * f.order, order))
        f = f - functional_equation_residual(spec, f) / (1 - newton_slope(spec, f))
    return f


@settings(max_examples=60)
@given(amatrix_specs(), st.integers(2, 70))
def test_newton_solve_matches_full_division_oracle(spec, order):
    assert solve_f(spec, order).f == full_division_newton(spec, order)


@settings(max_examples=60)
@given(amatrix_specs(), st.integers(2, 70))
def test_root_solve_matches_newton_and_fixed_point_oracles(spec, order):
    f = solve_f(spec, order).f
    assert f == newton_f(spec, order)
    assert f.coeffs == fixed_point_f(spec, order).coeffs


def test_solve_f_series_products_at_order_256():
    # the root takes no series product; the residual check forms f**2 once, one int
    # squaring at full order, and takes no other int product (both specs have rows of
    # width 3): row_sum at s = x shifts and, for a repeated last row, divides by 1 - x
    # as a running sum
    a171416 = AMatrixSpec([[1, 0, 1], [1, 1, 0]])
    repeated = AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], repeat_last_row=True)
    for spec in (a171416, repeated):
        assert series_products(lambda: solve_f(spec, 256)) == 1
        assert int_products(lambda: solve_f(spec, 256)) == [(256, True)]


# -- direct triangle ------------------------------------------------------------


def test_direct_triangle_two_row_display():
    tri = direct_triangle(AMatrixSpec([[1, 1, 0], [1, 1, 1]]), 5)
    assert tri.integers() == [
        [1],
        [2, 1],
        [3, 4, 1],
        [6, 10, 6, 1],
        [13, 24, 21, 8, 1],
    ]


def test_direct_triangle_with_rho_pair():
    tri = direct_triangle(AMatrixSpec([[1, 1]], [1, 1]), 5)
    assert tri.integers() == [
        [1],
        [2, 1],
        [7, 4, 1],
        [31, 18, 6, 1],
        [154, 90, 33, 8, 1],
    ]


@given(amatrix_specs(), st.integers(1, 20))
def test_direct_triangle_matches_series_triangle_for_any_corner(spec, nrows):
    # a Bell pair needs order >= 2, so one row takes a solve to order 3
    series_tri = riordan_triangle(bell_from_f(solve_f(spec, nrows + 2).f), nrows)
    assert direct_triangle(spec, nrows).rows == series_tri.rows


@pytest.mark.parametrize("a00", [1, 2, -3, Fraction(2, 3)])
def test_direct_triangle_first_row_is_the_corner(a00):
    spec = AMatrixSpec([[a00, 1, 1], [1, -1, 2]], [1, 2])
    assert direct_triangle(spec, 1).rows == ((a00,),)


def test_seed_formula_matches_solved_coefficient(rng):
    # t[1][0] = a[0][1] + a[1][0] + rho[0] must equal the x^2 coefficient of f
    for spec in random_specs(rng, 12):
        f = solve_f(spec, 6).f
        seed = spec.entry(0, 1) + spec.entry(1, 0) + (spec.rho[0] if spec.rho else 0)
        assert f.coeffs[2] == seed


@pytest.mark.parametrize(
    "rows,rho,seed",
    [
        ([[1, -2, -1], [1, 1, 0]], [], -1),          # two-row: a + 1
        ([[1, 3, 1], [1, 0, -1]], [1], 5),           # delta rho: a + rho0 + 1
        ([[1, 2]], [1, 2], 3),                        # single row: r + 1
    ],
)
def test_seed_formula_reproduces_stated_cases(rows, rho, seed):
    tri = direct_triangle(AMatrixSpec(rows, rho), 3)
    assert tri.entry(1, 0) == seed


def test_dual_construction_on_random_specs(rng):
    for spec in random_specs(rng, 20):
        nrows = 8
        f = solve_f(spec, nrows + 1).f
        series_tri = riordan_triangle(bell_from_f(f), nrows)
        direct_tri = direct_triangle(spec, nrows)
        assert series_tri.rows == direct_tri.rows


def test_dual_construction_with_repeated_rows(rng):
    for _ in range(6):
        rows = [[1, rng.randint(-2, 2), rng.randint(-2, 2)]]
        rho = [rng.randint(-2, 2)]
        spec = AMatrixSpec(rows, rho, repeat_last_row=True)
        f = solve_f(spec, 9).f
        assert riordan_triangle(bell_from_f(f), 8).rows == direct_triangle(spec, 8).rows


def test_unshifted_recurrence_holds_on_series_triangles(rng):
    # t[n+1][k+1] = sum a[i][j] t[n-i][k+j] + sum rho[j] t[n+1][k+j+2]
    for spec in random_specs(rng, 8):
        nrows = 8
        tri = riordan_triangle(bell_from_f(solve_f(spec, nrows + 1).f), nrows)
        depth = len(spec.rows)
        width = max(len(r) for r in spec.rows)
        for n in range(depth - 1, nrows - 1):
            for k in range(n + 1):
                want = sum(
                    spec.entry(i, j) * tri.get(n - i, k + j)
                    for i in range(depth)
                    for j in range(width)
                )
                want += sum(
                    r * tri.get(n + 1, k + j + 2) for j, r in enumerate(spec.rho)
                )
                assert tri.get(n + 1, k + 1) == want


def test_six_term_recurrence_for_two_row_arrays(rng):
    # every entry with n >= 2 of a [[1,a,b],[1,c,d]] triangle satisfies
    # t[n][k] = t[n-1][k-1] + a t[n-1][k] + b t[n-1][k+1]
    #         + t[n-2][k-1] + c t[n-2][k] + d t[n-2][k+1]
    for _ in range(6):
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        spec = AMatrixSpec([[1, a, b], [1, c, d]])
        tri = riordan_triangle(bell_from_f(solve_f(spec, 10).f), 9)
        for n in range(2, 9):
            for k in range(n + 1):
                want = (
                    tri.get(n - 1, k - 1)
                    + a * tri.get(n - 1, k)
                    + b * tri.get(n - 1, k + 1)
                    + tri.get(n - 2, k - 1)
                    + c * tri.get(n - 2, k)
                    + d * tri.get(n - 2, k + 1)
                )
                assert tri.entry(n, k) == want


# -- closed forms ----------------------------------------------------------------


def test_closed_form_examples():
    assert closed_form_f_general(0, 1, 1, 0, 0, 11).integers() == [
        1, 1, 2, 3, 7, 13, 31, 65, 156, 351, 849,
    ]
    assert closed_form_f_general(-2, -1, 1, 0, 0, 11).integers() == [
        1, -1, 2, -3, 3, 1, -15, 47, -98, 133, -17,
    ]
    assert closed_form_f_general(0, 1, 1, 0, 1, 7).integers() == [
        1, 2, 6, 22, 90, 394, 1806,
    ]


def test_closed_form_agrees_with_solver_on_full_grid():
    order = 8
    for a, b, c, d in product(range(-2, 3), repeat=4):
        for rho0 in (0, 1):
            spec = AMatrixSpec([[1, a, b], [1, c, d]], [rho0] if rho0 else [])
            f = solve_f(spec, order + 1).f
            closed = closed_form_f_general(a, b, c, d, rho0, order)
            assert closed.coeffs == f.div_x().coeffs, (a, b, c, d, rho0)
            inner = [0, rho0, rho0 + b, b + d, d]
            oracle = catalan_form([1, 1], [1, -a, -c], inner, order)
            assert closed.coeffs == oracle.coeffs, (a, b, c, d, rho0)


def test_closed_form_agrees_with_solver_at_higher_order(rng):
    for _ in range(10):
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        rho0 = rng.randint(0, 1)
        spec = AMatrixSpec([[1, a, b], [1, c, d]], [rho0] if rho0 else [])
        closed = closed_form_f_general(a, b, c, d, rho0, 16)
        assert closed.coeffs == solve_f(spec, 17).f.div_x().coeffs


@pytest.mark.parametrize(
    "closed_form",
    [lambda: closed_form_f_general(1, -2, 3, 1, 1, 24), lambda: perturbed_f(2, 3, 5, 24)],
)
def test_closed_forms_take_no_series_product_or_division(closed_form, monkeypatch):
    # the quadratic's int recurrence replaces every Newton inverse and series product
    calls = []
    inverse, mul = PowerSeries._inverse, PowerSeries.__mul__

    def counted_inverse(self):
        calls.append("inverse")
        return inverse(self)

    def counted_mul(self, other):
        if isinstance(other, PowerSeries):
            calls.append("mul")
        return mul(self, other)

    monkeypatch.setattr(PowerSeries, "_inverse", counted_inverse)
    monkeypatch.setattr(PowerSeries, "__mul__", counted_mul)
    closed_form()
    assert calls == []


rationals = st.one_of(small_fraction, st.fractions(min_value=-100, max_value=100, max_denominator=10**6))


@settings(max_examples=60)
@given(rationals, rationals, rationals, rationals, rationals, st.integers(1, 48))
def test_closed_form_matches_catalan_form_oracle(a, b, c, d, rho0, order):
    got = closed_form_f_general(a, b, c, d, rho0, order)
    want = catalan_form([1, 1], [1, -a, -c], [0, rho0, rho0 + b, b + d, d], order)
    assert got.coeffs == want.coeffs
    assert all(type(v) is Fraction for v in got.coeffs)


@settings(max_examples=60)
@given(rationals, rationals, rationals, st.integers(1, 48))
def test_perturbed_matches_catalan_form_oracle(a, b, c, order):
    got = perturbed_f(a, b, c, order)
    assert got.coeffs == catalan_form([0, 1], [1, -a], [0, c, b], order).coeffs
    assert all(type(v) is Fraction for v in got.coeffs)


def test_general_rho0_symbolic_entries(rng):
    # the displayed general entries of the delta-rho family, at numeric tuples
    for _ in range(8):
        a, b, c, d = (Fraction(rng.randint(-2, 2)) for _ in range(4))
        rho0 = Fraction(rng.randint(0, 2))
        spec = AMatrixSpec([[1, a, b], [1, c, d]], [rho0])
        tri = direct_triangle(spec, 3)
        assert tri.entry(1, 0) == a + rho0 + 1
        assert tri.entry(2, 0) == a * a + a * (3 * rho0 + 1) + b + c + 2 * rho0 * (rho0 + 1)
        assert tri.entry(2, 1) == 2 * a + 2 * rho0 + 2


def test_convolution_recurrence_reproduces_signed_expansion():
    v = closed_form_f_general(-2, -1, 1, 0, 0, 11).coeffs
    assert v[0] == 1 and v[1] == -1 and v[2] == 2
    for n in range(3, 11):
        want = -2 * v[n - 1] - v[n - 2] - sum(
            v[i + 1] * v[n - i - 3] for i in range(n - 3)
        )
        assert v[n] == want


# -- the single-row (perturbed moment) family --------------------------------------


def test_perturbed_moment_column():
    u = perturbed_f(2, 3, 5, 7)
    assert u.div_x().integers() == [1, 7, 87, 1331, 22731, 415427]


def test_perturbed_aerated_catalan():
    u = perturbed_f(0, 1, 0, 9)
    aerated = [0] * 9
    for i, cval in enumerate(catalan(4).integers()):
        aerated[2 * i] = cval
    assert u.div_x().integers() == aerated[:8]


def test_perturbed_equals_reversion_form():
    for a, b, c in product(range(-2, 3), repeat=3):
        u = perturbed_f(a, b, c, 10)
        rev_input = rational_series([0, 1, -c], [1, a, b], 10)
        assert u.coeffs == rev_input.revert().coeffs, (a, b, c)


def test_perturbed_matches_general_solver(rng):
    for _ in range(6):
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        spec = AMatrixSpec([[1, a, b]], [c])
        assert perturbed_f(a, b, c, 10).coeffs == solve_f(spec, 10).f.coeffs


def test_binomial_transform_equation_single_points():
    assert binomial_transform_equation_check(2, 3, 5, 12)
    assert binomial_transform_equation_check(0, 0, 0, 12)


def test_binomial_transform_equation_full_grid():
    assert all(
        binomial_transform_equation_check(a, b, c, 10)
        for a, b, c in product(range(-2, 3), repeat=3)
    )


@pytest.mark.parametrize("a, b, c", [(2, 3, 5), (0, 0, 0), (-1, 2, -2), ("1/2", -1, "3/4"), (Fraction(-2, 3), "5/7", 3)])
def test_binomial_transform_check_refuses_a_bumped_u(a, b, c, rng, monkeypatch):
    # a wrong u term k >= 1 moves v's term k by the same amount and no lower term, so the
    # repeated-row residual is nonzero at x^k: the check must fail for every k, the top one too
    order, solve = 10, amatrix_mod.perturbed_f
    assert binomial_transform_equation_check(a, b, c, order)
    for k in (1, rng.randrange(2, order - 1), order - 1):
        monkeypatch.setattr(amatrix_mod, "perturbed_f", lambda *args, k=k: bump_term(solve(*args), k))
        assert not binomial_transform_equation_check(a, b, c, order), (a, b, c, k)


def test_binomial_transform_equation_check_refuses_an_order_below_4():
    with pytest.raises(ValueError, match="order must be at least 4"):
        binomial_transform_equation_check(1, 1, 1, 3)


def test_binomial_transform_is_repeated_row_solution(rng):
    # v = u(x/(1-x)) also solves the repeated-row variant of the equation, at int and p/q points
    points = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(5)]
    points += [tuple(random_fraction(rng) for _ in range(3)) for _ in range(5)]
    for a, b, c in points:
        u = perturbed_f(a, b, c, 10)
        v = u.compose(rational_series([0, 1], [1, -1], 10))
        spec = AMatrixSpec([[1, a, b]], [c], repeat_last_row=True)
        assert v.coeffs == solve_f(spec, 10).f.coeffs


# -- A-sequences by substitution ------------------------------------------------


@st.composite
def deep_amatrix_specs(draw):
    """1-5 rows of width <= 4 with p/q entries, a corner other than 1 about half the
    time, rho of length <= 3, either repeat flag."""
    rows = draw(st.lists(st.lists(small_fraction, min_size=1, max_size=4), min_size=1, max_size=5))
    corners = st.sampled_from([Fraction(1), Fraction(2), Fraction(-3), Fraction(2, 3)])
    rows[0][0] = draw(st.one_of(corners, small_fraction.filter(bool)))
    return AMatrixSpec(rows, draw(st.lists(small_fraction, max_size=3)), draw(st.booleans()))


@settings(max_examples=60)
@given(deep_amatrix_specs(), st.lists(small_fraction, min_size=1, max_size=19))
@example(AMatrixSpec([[1, 2, -1]], [1, "1/2"], True), [1, -1])
def test_equation_grid_is_the_negated_residual_at_every_w(spec, tail):
    # sum_(p, q) e[p][q] x^p w^q = -(1 - x)^r * (w - Phi(w)) for every w with w(0) = 0,
    # r = 1 if the last row repeats, against the residual's own evaluation (row_sum and
    # the powers of w), which reads no grid: so the grid is pinned off the root too
    w = PowerSeries.of([0, *tail])
    n = w.order
    total = PowerSeries.zero(n)
    grid, d = spec._grid
    for p, row in enumerate(grid):
        power, value = PowerSeries.one(n), PowerSeries.zero(n)
        for e in row:
            value, power = value + power * Fraction(e, d), power * w
        total = total + PowerSeries.of([0] * p + list(value.coeffs), n)
    expected = -functional_equation_residual(spec, w)
    if spec.repeat_last_row:
        expected = expected * PowerSeries.of([1, -1], n)
    assert total == expected


@settings(max_examples=60)
@given(deep_amatrix_specs(), st.integers(3, 30))
@example(AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"], True), 24)
@example(AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], True), 30)
def test_spec_route_reverse_matches_the_revert_route(spec, order):
    f = solve_f(spec, order).f
    pair, oracle = bell_pair(spec, order), bell_from_f(f)  # the oracle reverts f and inverts
    assert {"a", "z"} <= pair.__dict__.keys()  # stored by bell_pair, checked on the spec
    assert (pair.a, pair.z, pair.fbar) == (oracle.a, oracle.z, oracle.fbar)
    assert a_sequence(bell_pair(spec, order + 1)).terms == (1 / f.revert().div_x()).coeffs


@pytest.mark.parametrize("term, identity", [(2, "A-series"), (-1, "Z-series")])
def test_spec_pair_checks_reject_a_corrupt_seeded_a(term, identity, monkeypatch):
    # A is read one term longer than the pair's A: a low term moves A itself, the top
    # term only the one term past A's order that Z = (A - g0)/x reads, which the top
    # term of A's equation checks; bell_pair refuses the pair either way
    spec = AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], repeat_last_row=True)
    route = amatrix_mod._a_series

    def corrupt(spec, order):
        coeffs = list(route(spec, order).coeffs)
        coeffs[term] += 1
        return PowerSeries(tuple(coeffs))

    monkeypatch.setattr(amatrix_mod, "_a_series", corrupt)
    with pytest.raises(NotRiordanBand, match=identity):
        bell_pair(spec, 16)


def _bumped_root(term):
    """A stand-in for amatrix._f_over_x that adds 1 to term ``term`` of the root F = f/x."""
    route = amatrix_mod._f_over_x
    return lambda spec, order: bump_term(route(spec, order), term % order)


@settings(max_examples=100)
@given(amatrix_specs(), st.integers(3, 40), st.sampled_from(["none", "a", "f"]), st.integers(0, 40))
@example(AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"], True), 40, "none", 0)
@example(AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"]), 40, "a", 37)  # A's top term
@example(AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], True), 24, "a", 22)  # the long A's top term
@example(AMatrixSpec([[-1, 1], [1, 2]], [1]), 12, "a", 0)  # A(0) bumped to 0
@example(AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], True), 24, "f", 22)
def test_spec_checks_match_the_composition_route(spec, order, corrupt, term):
    # a spec pair's A and Z checks on A's own equation agree with one composition of its
    # A, read one term longer than the pair's, into f, on the spec's own A and with one
    # term of it bumped: a term below the top moves A, the top term only Z.  A bumped
    # term of the root f can no longer reach a pair: solve_f's residual refuses it first.
    if corrupt == "f":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(amatrix_mod, "_f_over_x", _bumped_root(term))
            with pytest.raises(NonConvergence):
                bell_pair(spec, order)
        return
    pair = bell_pair(spec, order)
    n = pair.order
    a = amatrix_mod._a_series(spec, n)
    assert pair.a == a.truncate(n - 1)
    if corrupt == "a":
        a = bump_term(a, term % n)
    expected = {"none": (True, True), "a": (term % n == n - 1, False)}[corrupt]
    assert amatrix_mod._spec_checks(spec, a) == composition_checks(pair, a) == expected


@pytest.mark.parametrize("repeat", [False, True])
def test_spec_checks_reject_the_other_root_of_the_a_equation(repeat):
    # for L = 2, S = c_0 A^2 + c_1 A + c_2 has a second root A' = -c_1/c_0 - A with
    # A'(0) = 0, which passes [y^k] S = 0 at every k; the A(0) check refuses it, as the
    # composition oracle does
    spec = AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1]], [1, "-1/2"], repeat)
    pair = bell_pair(spec, 20)
    n = pair.order
    (c0, c1, _), d = amatrix_mod._equation_rows(spec)
    c0, c1 = (PowerSeries._ints(c, d)._padded(n) for c in (c0, c1))
    other = -(c1 / c0) - amatrix_mod._a_series(spec, n)
    assert other[0] == 0
    assert amatrix_mod._spec_checks(spec, other) == composition_checks(pair, other) == (False, False)


@settings(max_examples=100)
@given(amatrix_specs(), st.integers(3, 40), st.integers(0, 10**6))
@example(AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"], True), 40, 17)
@example(AMatrixSpec([["-3/2", "1/3"], [1, "2/3", 2]], ["1/2", -1], True), 24, 23)
@example(AMatrixSpec([["2/3", 1, 1]], [1, 2]), 3, 1)
def test_int_residual_and_checks_match_the_series_routes(spec, order, draw):
    # the residual, one int combination of f's powers, equals the series route exactly at
    # the solution and with f bumped at a drawn term past the constant one, where the bump
    # shows first, as it is; the spec checks on a bumped A equal one composition of it into f
    f = solve_f(spec, order).f
    assert functional_equation_residual(spec, f) == series_residual(spec, f) == PowerSeries.zero(order)
    term = 1 + draw % (order - 1)
    bumped = bump_term(f, term)
    got = functional_equation_residual(spec, bumped)
    assert got == series_residual(spec, bumped)
    assert got[: term + 1] == (0,) * term + (1,)
    pair = bell_pair(spec, order)
    n = pair.order
    a = bump_term(amatrix_mod._a_series(spec, n), draw % n)
    assert amatrix_mod._spec_checks(spec, a) == composition_checks(pair, a) == (draw % n == n - 1, False)


@given(amatrix_specs())
@example(AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"], True))
def test_cached_grid_is_the_cleared_fraction_grid_and_leaves_the_spec_value_alone(spec):
    twin = AMatrixSpec(spec.rows, spec.rho, spec.repeat_last_row)
    before = (hash(spec), repr(spec), pickle.dumps(spec))
    grid, d = spec._grid
    fractions = fraction_grid(spec)
    assert ([v for row in grid for v in row], d) == _over_common_denominator([v for row in fractions for v in row])
    assert list(map(len, grid)) == list(map(len, fractions))
    assert spec._grid is spec._grid and "_grid" in vars(spec) and "_grid" not in vars(twin)
    assert spec == twin and (hash(spec), repr(spec), pickle.dumps(spec)) == before
    copy = pickle.loads(before[2])
    assert copy == spec and "_grid" not in vars(copy) and copy._grid == spec._grid


@pytest.mark.parametrize("order", [1, 2])
def test_bell_pair_refuses_an_order_below_three_naming_it(order):
    # f to order 2 leaves g = f/x one term, too few for a pair
    spec = AMatrixSpec([[1, 0, 1], [1, 1, 0]])
    with pytest.raises(InsufficientTerms, match=rf"a spec's Bell pair needs order >= 3, got {order}$"):
        bell_pair(spec, order)
    assert bell_pair(spec, 3).order == 2


@pytest.mark.parametrize("term, identity", [(5, "A-series"), (-1, "Z-series")])
def test_spec_pair_checks_reject_a_corrupt_f(term, identity, monkeypatch):
    # a spec pair takes no f, so a wrong f can only come from the root, and solve_f's
    # residual refuses it before any pair is built.  The composition oracle shows what
    # that f would have failed: a term below the top A's identity, the top term (held
    # only by g = f/x) only Z's.
    spec = AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"], True)
    f = bump_term(amatrix_mod._f_over_x(spec, 15), term % 15).mul_x()
    oracle = bell_from_f(f)
    assert composition_checks(oracle, amatrix_mod._a_series(spec, oracle.order)) == (identity == "Z-series", False)
    monkeypatch.setattr(amatrix_mod, "_f_over_x", _bumped_root(term))
    with pytest.raises(NonConvergence, match="residual"):
        bell_pair(spec, 16)


def test_spec_pair_pickles_with_its_stored_a_and_z():
    spec = AMatrixSpec([[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], [1, "-1/2"], True)
    pair = bell_pair(spec, 20)
    copy = pickle.loads(pickle.dumps(pair))
    assert (copy.__dict__["a"], copy.__dict__["z"]) == (pair.a, pair.z)
    assert copy == pair


def test_spec_pair_a_and_z_take_no_composition_and_no_inverse(monkeypatch):
    # A off the A-matrix equation takes L - 1 = 1 Horner product, a series product, and
    # no Newton inverse; both checks run Horner in A over the grid's L + 1 rows, L = 2 int
    # products of A's n = 255 terms and no series product, as the pair is built, with no
    # composition, reversion or entry recurrence, and reading A and Z then takes nothing.
    # A pair with no spec reverts f and composes into f.
    spec = AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], repeat_last_row=True)
    assert series_products(lambda: bell_pair(spec, 256)) == series_products(lambda: solve_f(spec, 256)) + 1
    assert int_products(lambda: bell_pair(spec, 256)) == int_products(lambda: solve_f(spec, 256)) + [(255, False)] * 3
    reverts, substitutions = record_reversions_and_substitutions(monkeypatch)
    recurrences = []
    monkeypatch.setattr(amatrix_mod, "_entry_rows", lambda *args: recurrences.append(args))
    pair = bell_pair(spec, 256)
    assert series_products(lambda: (pair.a, pair.z)) == 0
    assert (reverts, substitutions, recurrences) == ([], [], [])
    plain = bell_from_f(solve_f(spec, 256).f)
    assert (plain.a, plain.z) == (pair.a, pair.z)
    n = plain.order  # A's check, then g(fbar) and Z's check
    assert (len(reverts), substitutions) == (1, [n - 1, n, n - 1])
    single = AMatrixSpec([[1, 3]], [1])  # L = 1: A reads no u, and the check takes one product
    assert series_products(lambda: bell_pair(single, 256)) == series_products(lambda: solve_f(single, 256))
    assert int_products(lambda: bell_pair(single, 256)) == int_products(lambda: solve_f(single, 256)) + [(255, False)]
    pair = bell_pair(single, 256)
    assert series_products(lambda: (pair.a, pair.z)) == 0


def test_substitution_asequence_three_term_spec():
    got = a_sequence(bell_pair(AMatrixSpec([[1, 1, 1], [0, 1, 0]], [1]), 14))
    assert got.integers() == [1, 2, 4, 2, 2, 8, -2, -10, 52, -26, -202, 576]


def test_substitution_asequence_schroeder():
    got = a_sequence(bell_pair(AMatrixSpec([[1, 0, 1], [1, 1, 0]], [1]), 11))
    assert got.integers() == [1, 2, 2, 2, 2, 2, 2, 2, 2]


def test_substitution_asequence_motzkin_sums():
    got = a_sequence(bell_pair(AMatrixSpec([[1, -2, 2], [1, -1, 1]], [1]), 11))
    assert got.integers() == [1, 0, 1, 1, 1, 1, 1, 1, 1]


def test_repeated_row_matches_rows_written_out(rng):
    # the reference spells the last row out to the working depth and sets no
    # repeat flag, so it takes no repeated-row path; rows at depth order or
    # more do not reach any result truncated at order
    order = 12
    for _ in range(12):
        depth, width = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[random_fraction(rng) for _ in range(width)] for _ in range(depth)]
        rows[0][0] = random_nonzero_fraction(rng)
        rho = [random_fraction(rng) for _ in range(rng.randint(0, 2))]
        repeated = AMatrixSpec(rows, rho, repeat_last_row=True)
        written = AMatrixSpec(rows + [rows[-1]] * (order - depth), rho)
        got, want = solve_f(repeated, order), solve_f(written, order)
        assert (got.f, got.iterations) == (want.f, want.iterations)
        assert direct_triangle(repeated, order).rows == direct_triangle(written, order).rows
        assert a_sequence(bell_pair(repeated, order + 1)) == a_sequence(bell_pair(written, order + 1))


def test_substitution_rejects_a_solution_for_another_rho(monkeypatch):
    # the root of the spec with rho = (2) fails the residual of the spec with rho = (1)
    route = amatrix_mod._f_over_x

    def wrong_rho(spec, order):
        return route(AMatrixSpec(spec.rows, [2], spec.repeat_last_row), order)

    spec = AMatrixSpec([[1, 0, 1], [1, 1, 0]], [1])
    assert a_sequence(bell_pair(spec, 11)).integers() == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    monkeypatch.setattr(amatrix_mod, "_f_over_x", wrong_rho)
    with pytest.raises(NonConvergence, match="residual"):
        bell_pair(spec, 11)


def test_substitution_agrees_with_group_route(rng):
    for spec in random_specs(rng, 8):
        via_subst = a_sequence(bell_pair(spec, 11))
        via_group = a_sequence(bell_from_f(solve_f(spec, 10).f))
        assert via_subst.terms[:8] == via_group.terms[:8]


def test_substitution_handles_repeated_rows():
    spec = AMatrixSpec([[1, 2, 3]], [5], repeat_last_row=True)
    via_subst = a_sequence(bell_pair(spec, 11))
    via_group = a_sequence(bell_from_f(solve_f(spec, 10).f))
    assert via_subst.terms[:8] == via_group.terms[:8]


def test_single_row_delta_rho_asequence(rng):
    # substituting fbar into u/x = 1 + r*u + u^2/x gives v = (1 + rx)/(1 - x),
    # so the A-sequence of [[1, r]] with delta rho is 1, r+1, r+1, ...
    # (consistent with the Schroeder case r = 1 -> 1, 2, 2, 2, ...)
    for r in (1, 2, 3):
        got = a_sequence(bell_pair(AMatrixSpec([[1, r]], [1]), 10))
        assert got.integers() == [1] + [r + 1] * 7


# -- the polynomial coefficient triangles -----------------------------------------


def test_narayana_coefficient_rows():
    tri = narayana_poly_coeffs(5)
    assert tri.integers() == [
        [1],
        [1, 1],
        [2, 4, 1],
        [5, 15, 10, 1],
        [14, 56, 63, 20, 1],
    ]


def test_narayana_polynomials_match_bell_columns():
    # P_n(r) evaluated from the coefficient rows equals column 0 of the
    # Bell array for rows [[1, r]], rho = (1, r)
    tri = narayana_poly_coeffs(7)
    for r in (1, 2, 3):
        col = solve_f(AMatrixSpec([[1, r]], [1, r]), 8).f.div_x()
        for n in range(7):
            value = sum(tri.entry(n, k) * Fraction(r) ** k for k in range(n + 1))
            assert value == col.coeffs[n]


def test_orthogonal_poly_first_rows():
    tri = orthogonal_poly_coeffs(3, 2, 2)
    assert tri.integers() == [[1], [-3, 1]]


def test_orthogonal_poly_hand_recurrence():
    tri = orthogonal_poly_coeffs(0, 1, 5)
    assert tri.integers()[4] == [1, 0, -3, 0, 1]


def test_orthogonal_coeffs_invert_moment_matrix():
    # the coefficient triangle is the matrix inverse of the moment triangle
    order = 8
    moment = riordan_inverse(
        bell_from_f(rational_series([0, 1], [1, 2, 3], order + 1))
    )
    tri = riordan_triangle(moment, 6)
    size = 6
    inv = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        for i in range(size):
            s = Fraction(1) if i == j else Fraction(0)
            for k in range(i):
                s -= tri.get(i, k) * inv[k][j]
            inv[i][j] = s / tri.entry(i, i)
    want = orthogonal_poly_coeffs(2, 3, 6)
    got = [[inv[n][k] for k in range(n + 1)] for n in range(size)]
    assert got == [list(row) for row in want.rows]
