"""Riordan pairs, triangles, production matrices, A/Z-sequences."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from riordan.series import InsufficientTerms, PowerSeries, Sequence, rational_series, _Substitution
from riordan import core as core_mod, hankel
from riordan.amatrix import AMatrixSpec, bell_pair, binomial_transform_equation_check
from riordan.core import (
    InsufficientOrder,
    LowerTriangle,
    NotRiordanBand,
    RiordanPair,
    a_sequence,
    bell_from_f,
    diagonal_sums,
    production_matrix,
    quasi_involution_check,
    reconstruct_from_AZ,
    riordan_inverse,
    riordan_mul,
    riordan_triangle,
    z_sequence,
)

from conftest import bump_term, random_fraction, random_nonzero_fraction, series_products, small_fraction

ORDER = 16


def pascal_pair(order=ORDER):
    return RiordanPair(
        rational_series([1], [1, -1], order), rational_series([0, 1], [1, -1], order)
    )


def motzkin_pair(order=ORDER):
    # (1-x-sqrt(1-2x-3x^2))/(2x^2) and its x-multiple
    root = PowerSeries.of([1, -2, -3], order + 2).sqrt()
    f = (1 - PowerSeries.x(order + 2) - root).div_x() / 2
    return bell_from_f(f.truncate(order + 1))


def sqrt_pair_from_poly(poly, order):
    # Bell pair for f = (1 - x^2 - sqrt(poly)) / (2x)
    root = PowerSeries.of(poly, order + 2).sqrt()
    f = (1 - PowerSeries.of([0, 0, 1], order + 2) - root).div_x() / 2
    return bell_from_f(f.truncate(order + 1))


# -- pair invariants -----------------------------------------------------


def test_pair_normalizes_to_common_order():
    p = RiordanPair(PowerSeries.one(9), PowerSeries.x(13))
    assert p.g.order == p.f.order == 9


def test_pair_rejects_bad_series():
    with pytest.raises(ValueError):
        RiordanPair(PowerSeries.x(6), PowerSeries.x(6))  # g(0) = 0
    with pytest.raises(ValueError):
        RiordanPair(PowerSeries.one(6), PowerSeries.one(6))  # f(0) != 0
    with pytest.raises(ValueError):
        RiordanPair(PowerSeries.one(6), PowerSeries.of([0, 0, 1], 6))  # f'(0) = 0


# -- triangles -------------------------------------------------------------


def test_pascal_triangle_rows():
    tri = riordan_triangle(pascal_pair(), 7)
    assert tri.integers() == [[comb(n, k) for k in range(n + 1)] for n in range(7)]


def test_motzkin_triangle_rows():
    tri = riordan_triangle(motzkin_pair(), 7)
    assert tri.integers() == [
        [1],
        [1, 1],
        [2, 2, 1],
        [4, 5, 3, 1],
        [9, 12, 9, 4, 1],
        [21, 30, 25, 14, 5, 1],
        [51, 76, 69, 44, 20, 6, 1],
    ]


def test_identity_triangle():
    tri = riordan_triangle(RiordanPair.identity(6), 6)
    assert tri.integers() == [[1 if k == n else 0 for k in range(n + 1)] for n in range(6)]


def test_triangle_demands_enough_order():
    with pytest.raises(InsufficientOrder):
        riordan_triangle(pascal_pair(4), 5)


def test_core_guards_refuse_degenerate_sizes():
    with pytest.raises(ValueError, match="nrows must be positive"):
        riordan_triangle(pascal_pair(4), 0)
    with pytest.raises(ValueError, match="size must be at least 2"):
        production_matrix(pascal_pair(4), 1)
    with pytest.raises(ValueError, match=r"A\(0\) must be nonzero"):
        reconstruct_from_AZ(PowerSeries.x(6), PowerSeries.one(6))


def test_too_short_pair_names_the_orders_of_g_and_f():
    # bell_from_f on an f of order 2 has a g = f/x of one term
    with pytest.raises(InsufficientTerms, match=r"needs g and f of order >= 2, not 1 and 2$"):
        bell_from_f(PowerSeries.of([0, 1]))
    with pytest.raises(InsufficientTerms, match=r"not 3 and 1$"):
        RiordanPair(PowerSeries.of([1, 1, 1]), PowerSeries.of([0]))


def test_too_few_terms_is_one_exception_type():
    assert InsufficientOrder is InsufficientTerms is hankel.InsufficientTerms
    with pytest.raises(InsufficientTerms):
        RiordanPair(PowerSeries.of([1]), PowerSeries.of([0]))
    with pytest.raises(InsufficientTerms):
        z_sequence(pascal_pair(2))
    with pytest.raises(InsufficientTerms):
        production_matrix(pascal_pair(5), 5)
    with pytest.raises(InsufficientTerms):
        PowerSeries.of([1, 2]).prefix(3)
    with pytest.raises(InsufficientTerms):
        Sequence.of([1]).prefix(2)


def test_triangle_validates_row_lengths():
    with pytest.raises(ValueError):
        LowerTriangle([[1], [2, 3, 4]])


def test_triangle_coerces_its_entries():
    tri = LowerTriangle([[1], ["1/2", Fraction(2, 3)]])
    assert tri.rows == ((Fraction(1),), (Fraction(1, 2), Fraction(2, 3)))
    assert LowerTriangle([[1], [2, "3"]]).integers() == [[1], [2, 3]]
    for bad in ([[0.5], [1, 2]], [[1], [True, 2]]):
        with pytest.raises(TypeError, match="not an exact rational"):
            LowerTriangle(bad)


@pytest.mark.parametrize("n, k", [(-1, 0), (1, -1), (1, 2), (3, 0)])
def test_entry_refuses_positions_outside_the_triangle(n, k):
    # negative positions once read as Python indices: entry(-1, 0) read the last row
    # and entry(1, -1) read 3, where get gives 0
    tri = LowerTriangle([[1], [2, 3], [4, 5, 6]])
    with pytest.raises(IndexError):
        tri.entry(n, k)
    assert tri.get(n, k) == 0


# -- group structure ---------------------------------------------------------


def test_mul_identity_is_neutral():
    p = pascal_pair()
    q = riordan_mul(p, RiordanPair.identity(ORDER))
    assert q.g.coeffs == p.g.coeffs and q.f.coeffs == p.f.coeffs


def test_pascal_squared():
    sq = riordan_mul(pascal_pair(), pascal_pair())
    assert sq.g.coeffs == rational_series([1], [1, -2], ORDER).coeffs
    assert sq.f.coeffs == rational_series([0, 1], [1, -2], ORDER).coeffs


def test_pascal_inverse_alternates():
    inv = riordan_inverse(pascal_pair())
    assert inv.g.coeffs == rational_series([1], [1, 1], ORDER).coeffs
    assert inv.f.coeffs == rational_series([0, 1], [1, 1], ORDER).coeffs
    back = riordan_mul(pascal_pair(), inv)
    assert back.g.coeffs == PowerSeries.one(ORDER).coeffs
    assert back.f.coeffs == PowerSeries.x(ORDER).coeffs


def test_group_roundtrip_on_random_pairs(rng):
    for _ in range(20):
        g = PowerSeries(
            tuple([random_nonzero_fraction(rng)] + [random_fraction(rng) for _ in range(11)])
        )
        f = PowerSeries(
            tuple([Fraction(0), random_nonzero_fraction(rng)] + [random_fraction(rng) for _ in range(10)])
        )
        pair = RiordanPair(g, f)
        prod = riordan_mul(pair, riordan_inverse(pair))
        assert prod.g.coeffs == PowerSeries.one(12).coeffs
        assert prod.f.coeffs == PowerSeries.x(12).coeffs


def test_bell_from_f():
    assert riordan_triangle(bell_from_f(PowerSeries.x(8)), 7).integers() == [
        [1 if k == n else 0 for k in range(n + 1)] for n in range(7)
    ]
    pas = bell_from_f(rational_series([0, 1], [1, -1], 8))
    assert riordan_triangle(pas, 7).integers() == [
        [comb(n, k) for k in range(n + 1)] for n in range(7)
    ]


# -- production matrices -------------------------------------------------------


def test_motzkin_production_is_tridiagonal_of_ones():
    prod = production_matrix(motzkin_pair(), 7)
    want = [
        [1 if j in (i - 1, i, i + 1) and not (j == i - 1 and i - 1 < 0) else 0 for j in range(7)]
        for i in range(7)
    ]
    # column 0 carries z = 1,1,0,...: only rows 0 and 1
    for i in range(7):
        want[i][0] = 1 if i <= 1 else 0
    assert prod.integer_rows() == want
    assert prod.z.integers()[:4] == [1, 1, 0, 0]
    assert prod.a.integers()[:4] == [1, 1, 1, 0]


def _production_oracle(pair, size):
    """Independent route: numerically invert the triangle (unit-free Gaussian
    elimination on Fractions) and multiply by the shifted triangle."""
    tri = riordan_triangle(pair, size + 1)
    m = [[tri.get(n, k) for k in range(size)] for n in range(size)]
    mbar = [[tri.get(n + 1, k) for k in range(size)] for n in range(size)]
    # invert the lower-triangular m by forward substitution on columns of I
    inv = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        for i in range(size):
            s = Fraction(1) if i == j else Fraction(0)
            for k in range(i):
                s -= m[i][k] * inv[k][j]
            inv[i][j] = s / m[i][i]
    return [
        [sum(inv[i][k] * mbar[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


@st.composite
def unit_pairs(draw):
    """(g, f) with p/q coefficients, g(0) != 0, f(0) = 0 and f'(0) != 0."""
    order = draw(st.integers(3, 14))
    tail = st.lists(small_fraction, min_size=order - 2, max_size=order - 2)
    g = [draw(small_fraction.filter(bool)), draw(small_fraction)] + draw(tail)
    f = [Fraction(0), draw(small_fraction.filter(bool))] + draw(tail)
    return RiordanPair(PowerSeries(tuple(g)), PowerSeries(tuple(f)))


@given(unit_pairs())
@example(pascal_pair())
@example(motzkin_pair())
def test_production_matches_inverse_multiply_oracle(pair):
    for size in range(2, pair.order):
        prod = production_matrix(pair, size)
        assert [list(r) for r in prod.matrix] == _production_oracle(pair, size)


def test_pascal_z_sequence_is_delta():
    assert z_sequence(pascal_pair()).integers()[:6] == [1, 0, 0, 0, 0, 0]


@given(unit_pairs())
def test_z_sequence_is_production_column_zero(pair):
    column = [row[0] for row in _production_oracle(pair, pair.order - 1)]
    assert list(z_sequence(pair).terms) == column


@given(st.tuples(unit_pairs(), unit_pairs()).filter(lambda pairs: pairs[0].order != pairs[1].order))
def test_mul_matches_the_two_composition_oracle(pairs):
    # one substitution into left.f serves right.g and right.f, to the smaller order
    left, right = pairs
    want = RiordanPair(left.g * right.g.compose(left.f), right.f.compose(left.f))
    assert riordan_mul(left, right) == want


@pytest.mark.parametrize("order", [2, 3, 4])
def test_a_and_z_at_the_lowest_orders_match_production_oracle(rng, order):
    for _ in range(20):
        g = [random_nonzero_fraction(rng)] + [random_fraction(rng) for _ in range(order - 1)]
        f = [Fraction(0), random_nonzero_fraction(rng)] + [random_fraction(rng) for _ in range(order - 2)]
        pair = RiordanPair(PowerSeries(tuple(g)), PowerSeries(tuple(f)))
        prod = _production_oracle(pair, order - 1)
        # column 1 is A; at size 1 there is none, and a_0 = t[1][1] / t[0][0] = f_1
        want_a = [row[1] for row in prod] if order > 2 else [f[1]]
        assert list(pair.z.coeffs) == [row[0] for row in prod]
        assert list(pair.a.coeffs) == want_a


def general_route(pair):
    """Oracle: fbar, A and Z by their formulas, with no check: fbar = f.revert(),
    A = x/fbar and Z = (1 - g0/g(fbar))/x * A."""
    fbar = pair.f.revert()
    a = 1 / fbar.div_x()
    return fbar, a, (1 - pair.g[0] / pair.g.compose(fbar)).div_x() * a


@st.composite
def bell_and_near_bell_pairs(draw):
    """bell_from_f(f) for f with int or p/q terms, the same with g's top term
    changed (still g = f/x to every term f gives), or with a lower term of g
    changed (not a Bell pair)."""
    order = draw(st.integers(3, 40))
    term = draw(st.sampled_from([st.integers(-4, 4).map(Fraction), small_fraction]))
    f = [Fraction(0), draw(term.filter(bool))] + draw(st.lists(term, min_size=order - 1, max_size=order - 1))
    g = f[1:]
    kind = draw(st.sampled_from(["bell", "top", "lower"]))
    if kind != "bell":
        g[order - 1 if kind == "top" else draw(st.integers(1, order - 2))] += draw(small_fraction.filter(bool))
    pair = RiordanPair(PowerSeries(tuple(g)), PowerSeries(tuple(f)))
    assert pair.order == order
    return pair


@given(bell_and_near_bell_pairs())
@example(motzkin_pair())
@example(pascal_pair())
def test_bell_route_matches_general_route(pair):
    # a Bell pair takes the one route every pair takes
    assert (pair.fbar, pair.a, pair.z) == general_route(pair)


def test_reading_a_then_z_forms_f_powers_once_and_short_products():
    # f's powers serve both checks (m - 1 = 15 products at n = 255); the
    # full-length products and per-check powers took 169, of length 33941
    n = 256
    pair = RiordanPair(rational_series([1], [1, -1, -1], n), rational_series([0, 1, -1, -1], [1, 1], n))
    products = series_products(lambda: (pair.a, pair.z))
    assert (products, products.length) == (154, 23321)


def _wrong_reverse(pair, monkeypatch):
    pair.__dict__["fbar"] = bump_term(pair.fbar, 3)  # A and Z read fbar


def _wrong_g_of_fbar(pair, monkeypatch):
    compose = PowerSeries.compose

    def bumped(outer, inner):
        out = compose(outer, inner)
        if outer is pair.g and inner is pair.fbar:
            out = out + PowerSeries.of([0, 0, 1], out.order)
        return out

    monkeypatch.setattr(PowerSeries, "compose", bumped)


def non_bell_pair(order=ORDER):
    # g = 1/(1 - 2x) is not f/x = 1/(1 - x)
    return RiordanPair(rational_series([1], [1, -2], order), rational_series([0, 1], [1, -1], order))


@pytest.mark.parametrize(
    "corrupt, identity, make_pair",
    [
        (_wrong_reverse, "A-series", pascal_pair),
        (_wrong_g_of_fbar, "Z-series", non_bell_pair),
        (_wrong_g_of_fbar, "Z-series", pascal_pair),
    ],
    ids=["_wrong_reverse-A-series", "_wrong_g_of_fbar-Z-series", "_wrong_g_of_fbar-Z-series-bell-pair"],
)
def test_identity_checks_reject_corrupt_production_data(corrupt, identity, make_pair, monkeypatch):
    pair = make_pair()
    clean_a = a_sequence(make_pair())
    corrupt(pair, monkeypatch)
    raising = [lambda p: production_matrix(p, 6), z_sequence]
    if identity == "A-series":
        raising.append(a_sequence)
    else:  # A does not read g(fbar), so only Z sees it
        assert a_sequence(pair) == clean_a
    for compute in raising:
        with pytest.raises(NotRiordanBand, match=identity):
            compute(pair)


def test_a_sequence_does_not_compute_z(monkeypatch):
    calls = []
    compose = _Substitution.__call__  # every composition, PowerSeries.compose too

    def counted(substitution, outer):
        calls.append(substitution.n)
        return compose(substitution, outer)

    monkeypatch.setattr(_Substitution, "__call__", counted)
    # every pair, a Bell pair or not, checks A and Z by a composition each, at order - 1
    for pair in (motzkin_pair(), non_bell_pair()):
        calls.clear()
        a_sequence(pair)
        assert calls == [pair.order - 1]
        assert "z" not in pair.__dict__
        calls.clear()
        z_sequence(pair)
        assert calls == [pair.order, pair.order - 1]  # g(fbar), then Z's check


def test_production_band_matches_a_sequence():
    for pair in (pascal_pair(), motzkin_pair()):
        prod = production_matrix(pair, 8)
        aseq = a_sequence(pair)
        assert prod.a.terms == aseq.prefix(8)


def test_a_and_z_sequences_motzkin():
    pair = motzkin_pair()
    assert a_sequence(pair).integers()[:6] == [1, 1, 1, 0, 0, 0]
    assert z_sequence(pair).integers()[:6] == [1, 1, 0, 0, 0, 0]


def test_sequence_characterization_identity():
    # t[n][k] = sum_i a_i t[n-1][k-1+i] for k >= 1, and
    # t[n+1][0] = sum_j z_j t[n][j]
    for pair in (pascal_pair(), motzkin_pair()):
        nrows = 9
        tri = riordan_triangle(pair, nrows)
        avals = a_sequence(pair).terms
        zvals = z_sequence(pair).terms
        for n in range(1, nrows):
            for k in range(1, n + 1):
                want = sum(
                    avals[i] * tri.get(n - 1, k - 1 + i) for i in range(n - k + 1)
                )
                assert tri.entry(n, k) == want
            assert tri.entry(n, 0) == sum(
                zvals[j] * tri.get(n - 1, j) for j in range(n)
            )


# -- reconstruction ---------------------------------------------------------


def test_reconstruct_identity():
    pair = reconstruct_from_AZ(PowerSeries.one(10), PowerSeries.zero(10))
    assert pair.g.coeffs == PowerSeries.one(pair.order).coeffs
    assert pair.f.coeffs == PowerSeries.x(pair.order).coeffs


def test_reconstruct_pascal_from_its_data():
    pair = reconstruct_from_AZ(PowerSeries.of([1, 1], 10), PowerSeries.one(10))
    want = pascal_pair(pair.order)
    assert pair.g.coeffs == want.g.coeffs
    assert pair.f.coeffs == want.f.coeffs


def test_reconstruct_motzkin_roundtrip():
    pair = motzkin_pair()
    azpair = reconstruct_from_AZ(
        PowerSeries(a_sequence(pair).terms), PowerSeries(z_sequence(pair).terms)
    )
    n = min(azpair.order, pair.order)
    assert azpair.g.coeffs[:n] == pair.g.coeffs[:n]
    assert azpair.f.coeffs[:n] == pair.f.coeffs[:n]


def test_reconstruct_roundtrip_on_random_unit_pairs(rng):
    for _ in range(8):
        g = PowerSeries(
            tuple([Fraction(1)] + [random_fraction(rng) for _ in range(9)])
        )
        f = PowerSeries(
            tuple([Fraction(0), Fraction(1)] + [random_fraction(rng) for _ in range(8)])
        )
        pair = RiordanPair(g, f)
        azpair = reconstruct_from_AZ(
            PowerSeries(a_sequence(pair).terms), PowerSeries(z_sequence(pair).terms)
        )
        n = min(azpair.order, pair.order)
        assert azpair.g.coeffs[:n] == pair.g.coeffs[:n]
        assert azpair.f.coeffs[:n] == pair.f.coeffs[:n]


# -- quasi-involutions --------------------------------------------------------


def test_identity_is_quasi_involution():
    assert quasi_involution_check(PowerSeries.one(10))


def test_geometric_series_is_not():
    assert not quasi_involution_check(rational_series([1], [1, -1], 10))


def test_schroeder_gf_is_quasi_involution():
    root = PowerSeries.of([1, -6, 1], 14).sqrt()
    g = (1 - PowerSeries.x(14) - root).div_x() / 2
    assert g.integers()[:5] == [1, 2, 6, 22, 90]
    assert quasi_involution_check(g)


def aerated_column(a00, s, r, order):
    """The even terms of the column of [[a00, 0, r], [0, s*r, 0]], a quasi-involution whose
    odd terms are zero, to the given order."""
    col = bell_pair(AMatrixSpec([[a00, 0, r], [0, s * r, 0]]), 2 * order).g.coeffs
    assert not any(col[1::2])
    return list(col[0::2])


@st.composite
def quasi_involution_candidates(draw):
    """(g, known): g with p/q terms of order 1-16 and g(0) != 0 (known None), or an aerated
    column of [[+-1, 0, r], [0, +-r, 0]], r in {+-1, +-2}, with one term k >= 1 bumped or
    none (known True)."""
    order = draw(st.integers(1, 16))
    if draw(st.booleans()):
        g = [draw(small_fraction.filter(bool))] + draw(st.lists(small_fraction, min_size=order - 1, max_size=order - 1))
        return PowerSeries(g), None
    signs = st.sampled_from((1, -1))
    g = aerated_column(draw(signs), draw(signs), draw(st.sampled_from((1, -1, 2, -2))), max(order, 2))
    if not draw(st.booleans()):
        return PowerSeries(g), True
    g[draw(st.integers(1, len(g) - 1))] += draw(small_fraction.filter(bool))
    return PowerSeries(g), None


def aerated_pairs(g):
    """P = (g(x^2), x*g(x^2)) and Q = (g(-x^2), x*g(-x^2)) at twice g's order."""
    plus, minus = (PowerSeries([t for i, c in enumerate(g.coeffs) for t in (c * sign**i, 0)]) for sign in (1, -1))
    return RiordanPair(plus, plus.mul_x()), RiordanPair(minus, minus.mul_x())


def inverse_route(g):
    """Oracle: the check by the group inverse, riordan_inverse(P) == Q."""
    p, q = aerated_pairs(g)
    return riordan_inverse(p) == q


def product_route(g):
    """Oracle: the check by the group product, P * Q == I."""
    p, q = aerated_pairs(g)
    return riordan_mul(p, q) == RiordanPair.identity(p.order)


@given(quasi_involution_candidates())
def test_quasi_involution_check_matches_the_inverse_route(candidate):
    g, known = candidate
    assert quasi_involution_check(g) == inverse_route(g)
    if known is not None:
        assert quasi_involution_check(g) is known


@given(quasi_involution_candidates())
def test_quasi_involution_check_matches_the_product_route(candidate):
    g, _ = candidate
    assert quasi_involution_check(g) == product_route(g)


def test_quasi_involution_check_reads_an_odd_last_term_only_past_g_order():
    # term k of g enters h(y) = g(y) g(-y g(y)^2) at y^k with weight 2 g(0) for even k and 0
    # for odd k, so the last term of an even-order g is never read
    assert quasi_involution_check(PowerSeries([1, 2, 6, 99]))
    assert not quasi_involution_check(PowerSeries([1, 2, 6, 22, 91]))
    assert quasi_involution_check(PowerSeries([1, 5]))
    assert not quasi_involution_check(PowerSeries([1, 5, 0]))


@pytest.mark.parametrize("n", [6, 9, 12])
def test_a_single_odd_term_is_first_read_at_twice_its_index(n):
    # g = 1 + c y^k with k odd: c is first read at y^(2k), so g passes exactly when 2k >= n
    def g(k):
        return PowerSeries([1] + [0] * (k - 1) + [Fraction(3, 2)] + [0] * (n - k - 1))

    assert [k for k in range(1, n) if quasi_involution_check(g(k))] == [k for k in range(1, n) if k % 2 and 2 * k >= n]


@pytest.mark.parametrize("a00, s, r", [(1, 1, 1), (-1, 1, 2), (1, -1, -2)])
def test_an_aerated_column_bumped_at_an_even_term_is_not_a_quasi_involution(a00, s, r):
    # 1 added to term k moves P*Q's x^(2k) term by g0 (1 + (-1)^k g0^(2k)), with g0 = +-1: by 2 g0
    # for even k, and by 0 for odd k, where a bumped column can stay a quasi-involution
    g = PowerSeries(aerated_column(a00, s, r, 9))
    assert quasi_involution_check(g)
    for k in (2, 4, 8):
        assert not quasi_involution_check(bump_term(g, k))


def test_quasi_involution_check_refuses_g_vanishing_at_zero():
    with pytest.raises(ValueError, match="nonzero constant term"):
        quasi_involution_check(PowerSeries([0, 1, 1]))


def test_quasi_involution_and_binomial_checks_invert_and_compose_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check reverted, inverted, composed or multiplied pairs")

    patched = (
        (PowerSeries, "revert"), (PowerSeries, "_inverse"), (PowerSeries, "compose"),
        (core_mod, "riordan_inverse"), (core_mod, "riordan_mul"),
    )
    for owner, name in patched:
        monkeypatch.setattr(owner, name, refuse)
    assert quasi_involution_check(PowerSeries(aerated_column(1, 1, 1, 12)))
    assert quasi_involution_check(PowerSeries(aerated_column(-1, 1, 2, 12)))
    assert not quasi_involution_check(PowerSeries([1] * 10))
    for a, b, c in ((2, 3, 5), ("1/2", -1, "3/4"), (Fraction(-2, 3), "5/7", 3)):
        assert binomial_transform_equation_check(a, b, c, 16)


def test_aerated_triangle_and_inverse_rows():
    pair = sqrt_pair_from_poly([1, 0, -6, 0, 1], 12)
    assert riordan_triangle(pair, 8).integers() == [
        [1],
        [0, 1],
        [2, 0, 1],
        [0, 4, 0, 1],
        [6, 0, 6, 0, 1],
        [0, 16, 0, 8, 0, 1],
        [22, 0, 30, 0, 10, 0, 1],
        [0, 68, 0, 48, 0, 12, 0, 1],
    ]
    assert riordan_triangle(riordan_inverse(pair), 8).integers() == [
        [1],
        [0, 1],
        [-2, 0, 1],
        [0, -4, 0, 1],
        [6, 0, -6, 0, 1],
        [0, 16, 0, -8, 0, 1],
        [-22, 0, 30, 0, -10, 0, 1],
        [0, -68, 0, 48, 0, -12, 0, 1],
    ]


# -- diagonal sums -------------------------------------------------------------


def test_diagonal_sums_identity_triangle():
    tri = riordan_triangle(RiordanPair.identity(8), 8)
    assert diagonal_sums(tri).integers() == [1, 0, 1, 0, 1, 0, 1, 0]


def test_diagonal_sums_pascal_gives_fibonacci():
    tri = riordan_triangle(pascal_pair(), 12)
    got = diagonal_sums(tri).integers()
    want = [sum(comb(n - k, k) for k in range(n // 2 + 1)) for n in range(12)]
    assert got == want
    assert got[:8] == [1, 1, 2, 3, 5, 8, 13, 21]
