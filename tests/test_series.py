"""Series arithmetic against independent oracles and frozen expansions."""

import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

import riordan.amatrix
import riordan.series
from riordan.amatrix import closed_form_f_general, perturbed_f
from riordan.core import LowerTriangle, ProductionData, RiordanPair
from riordan.hankel import JFraction, SomosFitResult
from riordan.series import (
    CompositionRequiresZeroConstantTerm,
    DivisionByNonUnit,
    InsufficientTerms,
    NonSquareConstantTerm,
    NotRevertible,
    PowerSeries,
    Sequence,
    SeriesError,
    binomial_transform,
    catalan,
    catalan_of,
    format_rational,
    rational,
    rational_series,
    _Substitution,
    _ratio_text,
    _texts,
)

from conftest import (
    catalan_recurrence,
    polynomial_root_by_terms,
    quadratic_root,
    random_fraction,
    random_nonzero_fraction,
    series_products,
    small_fraction,
)


def expand_quotient(num, den, order):
    """Oracle: schoolbook long division on plain lists, independent of the
    library's series types."""
    num = [Fraction(v) for v in num] + [Fraction(0)] * order
    den = [Fraction(v) for v in den] + [Fraction(0)] * order
    out = []
    rem = num[:order]
    for k in range(order):
        q = rem[k] / den[0]
        out.append(q)
        for j in range(k, order):
            rem[j] -= q * den[j - k]
    return out


def schoolbook_product(a, b, order):
    """Oracle: the truncated product a*b on plain lists, term by term."""
    return [
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(order)
    ]


def horner_compose(self, inner):
    """Oracle: the Horner composition that PowerSeries.compose replaced,
    n - 1 full-order products."""
    if inner.coeffs[0] != 0:
        raise CompositionRequiresZeroConstantTerm(
            "inner series has nonzero constant term"
        )
    n = min(self.order, inner.order)
    inner_t = inner.truncate(n)
    acc = PowerSeries.of([self.coeffs[n - 1]], n)
    for k in range(n - 2, -1, -1):
        acc = acc * inner_t + self.coeffs[k]
    return acc


def lagrange_revert(self):
    """Oracle: the running-product Lagrange inversion that PowerSeries.revert
    replaced; the x^m coefficient of fbar is (1/m) [x^(m-1)] (x/f)^m."""
    if self.coeffs[0] != 0 or self.order < 2 or self.coeffs[1] == 0:
        raise NotRevertible("need f(0) = 0 and f'(0) != 0 with order >= 2")
    n = self.order
    h = PowerSeries.one(n - 1) / self.div_x()
    out = [Fraction(0)] * n
    p = PowerSeries.one(n - 1)
    for m in range(1, n):
        p = p * h
        out[m] = p.coeffs[m - 1] / m
    return PowerSeries(tuple(out))


def triangular_sqrt(self):
    """Oracle: the Fraction loop PowerSeries.sqrt ran before the quadratic solver.

    The square root with positive constant term.

    Only nonzero rational-square constant terms are supported; the
    remaining coefficients follow from a triangular recurrence.
    """
    c0 = self.coeffs[0]
    num, den = c0.numerator, c0.denominator
    if num <= 0:
        raise NonSquareConstantTerm(f"constant term {c0} has no usable square root")
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise NonSquareConstantTerm(f"constant term {c0} is not a rational square")
    t0 = Fraction(rn, rd)
    out = [t0]
    half = 1 / (2 * t0)
    for k in range(1, self.order):
        s = self.coeffs[k]
        for i in range(1, k):
            s -= out[i] * out[k - i]
        out.append(s * half)
    return PowerSeries(tuple(out))


# -- construction and bookkeeping ---------------------------------------


def test_of_pads_with_exact_zeros():
    s = PowerSeries.of([1, 2], 5)
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.order == 5


def test_rational_accepts_strings_and_rejects_floats():
    assert rational("3/4") == Fraction(3, 4)
    assert rational(-7) == -7
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(True)


def test_rational_strings_are_ascii_integers_or_p_over_q():
    assert rational(" -12/8 ") == Fraction(-3, 2) and rational("+5") == 5
    for text in ("0.5", "1e3", "1e5000000", "1_000", "\u0661", "3/\u0662", "inf", ""):
        with pytest.raises(ValueError, match="not an integer or 'p/q' string"):
            rational(text)


@pytest.mark.parametrize("build", [PowerSeries, PowerSeries.of])
def test_constructor_and_of_coerce_alike(build):
    # one coercion: bool and float are refused, "p/q" strings are parsed
    for bad in ([True], [1, False], [0.5], [Fraction(1, 2), 0.25]):
        with pytest.raises(TypeError):
            build(bad)
    s = build(["1/2", -3, Fraction(2, 3)])
    assert s.coeffs == (Fraction(1, 2), -3, Fraction(2, 3))
    assert s == PowerSeries.of([Fraction(1, 2), -3, Fraction(2, 3)])


def test_format_rational():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-11, 4)) == "-11/4"


def test_mixed_order_truncates_to_minimum():
    a = PowerSeries.of([1, 1, 1, 1, 1, 1])
    b = PowerSeries.of([1, 2, 3])
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a - b).order == 3


def test_truncate_refuses_to_extend():
    s = PowerSeries.of([1, 2, 3])
    assert s.truncate(2).coeffs == (1, 2)
    with pytest.raises(SeriesError):
        s.truncate(4)


def test_mul_x_div_x_roundtrip():
    s = PowerSeries.of([1, 2, 3])
    assert s.mul_x().coeffs == (0, 1, 2, 3)
    assert s.mul_x().div_x().coeffs == s.coeffs
    with pytest.raises(SeriesError):
        s.div_x()


# -- ring operations -----------------------------------------------------


def test_geometric_series_product_telescopes():
    order = 10
    one_minus_x = PowerSeries.of([1, -1], order)
    geo = PowerSeries.of([1] * order)
    assert (one_minus_x * geo).coeffs == PowerSeries.one(order).coeffs


def test_division_forced_expansion():
    got = PowerSeries.of([1, 1], 8) / PowerSeries.of([1, -1], 8)
    assert got.integers() == [1, 2, 2, 2, 2, 2, 2, 2]


def test_division_by_x_fails():
    with pytest.raises(DivisionByNonUnit):
        PowerSeries.one(5) / PowerSeries.x(5)


def test_rational_series_matches_long_division_oracle():
    num, den = [2, -1, 3], [1, 1, -2, 5]
    got = rational_series(num, den, 12)
    assert list(got.coeffs) == expand_quotient(num, den, 12)


def test_reciprocal_makes_only_newton_step_products():
    s = PowerSeries.of(range(1, 33))
    assert (s * (1 / s)).coeffs == PowerSeries.one(32).coeffs
    assert series_products(lambda: 1 / s) == 2 * 5  # two per doubling, 1 -> 32


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_division_inverts_multiplication(a, b, c):
    s = PowerSeries.of([1, a, b, c], 9)
    t = PowerSeries.of([2, c, -a], 9)
    assert ((s * t) / t).coeffs == s.coeffs


# -- composition ----------------------------------------------------------


def test_compose_rational_functions():
    # 1/(1-x) at x/(1-x) collapses to (1-x)/(1-2x)
    outer = rational_series([1], [1, -1], 12)
    inner = rational_series([0, 1], [1, -1], 12)
    got = outer.compose(inner)
    assert list(got.coeffs) == expand_quotient([1, -1], [1, -2], 12)


def test_compose_identity():
    s = PowerSeries.of([3, 1, 4, 1, 5, 9])
    assert s.compose(PowerSeries.x(6)).coeffs == s.coeffs


def test_compose_rejects_unit_inner():
    with pytest.raises(CompositionRequiresZeroConstantTerm):
        PowerSeries.one(5).compose(PowerSeries.of([1, 1], 5))


# -- reversion -------------------------------------------------------------


def test_revert_x():
    assert PowerSeries.x(6).revert().coeffs == PowerSeries.x(6).coeffs


def test_revert_mobius():
    f = rational_series([0, 1], [1, -1], 10)
    assert f.revert().coeffs == rational_series([0, 1], [1, 1], 10).coeffs


def test_revert_hybrid_tree_equation():
    f = rational_series([0, 1, -1, -1], [1, 1], 10)
    assert f.revert().integers() == [0, 1, 2, 7, 31, 154, 820, 4575, 26398, 156233]


def test_revert_requires_valuation_one():
    with pytest.raises(NotRevertible):
        PowerSeries.of([1, 1], 5).revert()
    with pytest.raises(NotRevertible):
        PowerSeries.of([0, 0, 1], 5).revert()


def _random_revertible(rng, order):
    coeffs = [Fraction(0), random_nonzero_fraction(rng)]
    coeffs += [random_fraction(rng) for _ in range(order - 2)]
    return PowerSeries(tuple(coeffs))


def test_revert_roundtrips_both_ways(rng):
    x = PowerSeries.x(24)
    for _ in range(12):
        f = _random_revertible(rng, 24)
        fbar = f.revert()
        assert f.compose(fbar).coeffs == x.coeffs
        assert fbar.compose(f).coeffs == x.coeffs


# -- square roots -----------------------------------------------------------


def test_sqrt_one():
    assert PowerSeries.one(6).sqrt().coeffs == PowerSeries.one(6).coeffs


def test_sqrt_perfect_square_polynomial():
    sq = PowerSeries.of([1, 2, 1], 8)
    assert sq.sqrt().coeffs == PowerSeries.of([1, 1], 8).coeffs


def test_sqrt_catalan_closed_form():
    order = 10
    inside = PowerSeries.of([1, -4], order)
    c = (1 - inside.sqrt()).div_x() / 2
    assert c.integers() == catalan(order - 1).integers()


def test_sqrt_rejects_non_squares():
    with pytest.raises(NonSquareConstantTerm):
        PowerSeries.of([2, 1], 5).sqrt()
    with pytest.raises(NonSquareConstantTerm):
        PowerSeries.of([-1, 1], 5).sqrt()
    with pytest.raises(NonSquareConstantTerm):
        PowerSeries.of([0, 1], 5).sqrt()


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=0, max_size=9))
def test_sqrt_squares_back(tail):
    s = PowerSeries.of([1] + tail, 10)
    t = s.sqrt()
    assert (t * t).coeffs == s.coeffs
    assert t.coeffs[0] > 0


# -- ring laws (spot checks) -------------------------------------------------


fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
series6 = st.lists(fracs, min_size=6, max_size=6).map(lambda v: PowerSeries(tuple(v)))


@given(series6, series6, series6)
def test_mul_is_associative_and_distributive(a, b, c):
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@given(series6, series6)
def test_mul_commutes(a, b):
    assert (a * b).coeffs == (b * a).coeffs


# -- integer-backed products against the list oracles ------------------------

# Coefficients that stress the common-denominator packing: ~200-bit
# numerators, denominators that are distinct large primes (so the lcm is
# their product), runs of zeros and negative values.
_BIG = st.integers(-(2**200), 2**200)
_PRIMES = [2**61 - 1, 2**89 - 1, 10**9 + 7, 998244353, 2**127 - 1]
wide = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    _BIG.map(Fraction),
    st.builds(Fraction, _BIG, st.sampled_from(_PRIMES)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 2**64)),
)
wide_series = st.one_of(
    st.lists(wide, min_size=1, max_size=24),
    st.lists(st.sampled_from([Fraction(0), Fraction(-1)]), min_size=1, max_size=24),
    st.integers(1, 24).map(lambda n: [Fraction(0)] * n),
).map(lambda v: PowerSeries(tuple(v)))


def _all_fractions(s):
    return all(type(c) is Fraction for c in s.coeffs)


@settings(max_examples=150)
@given(wide_series, wide_series)
def test_product_matches_schoolbook_oracle(a, b):
    got = a * b
    assert list(got.coeffs) == schoolbook_product(a.coeffs, b.coeffs, min(a.order, b.order))
    assert _all_fractions(got)


@pytest.mark.parametrize("m", [1, 2**100])
def test_product_coefficient_at_the_packing_bound(m):
    # The last coefficient, n*m*m, equals the bound the packing width is
    # chosen from; with n = 128 it is a power of two whose bit length is a
    # multiple of 8, so a byte width with no sign bit above it reads it back
    # as a negative number.
    n = 128
    s = PowerSeries((Fraction(m),) * n)
    assert list((s * s).coeffs) == [(k + 1) * m * m for k in range(n)]
    assert list((s * -s).coeffs) == [-(k + 1) * m * m for k in range(n)]


def _int_schoolbook(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


# bounds n*max|a|*max|b| one below, at and one above 2**e where the byte width w
# of a slot, and the bias 2**(8w - 1) packed into it, step (e = 8w - 1) or the
# top byte fills (e = 8w); each with every n that divides it, so [m]*n times
# [1]*n puts the last product coefficient n*m exactly on the bound
_SLOT_CASES = [
    (n, bound)
    for bound in sorted({2**e + d for e in (7, 8, 15, 16, 63, 64) for d in (-1, 0, 1)})
    for n in (1, 2, 3, 64)
    if bound % n == 0
]


@pytest.mark.parametrize("n, bound", _SLOT_CASES)
def test_int_product_at_slot_extremes(n, bound):
    m = bound // n
    for a, b in [
        ([m] * n, [1] * n),  # the last coefficient at +bound
        ([-m] * n, [1] * n),  # and at -bound
        ([-m] * n, [-1] * n),  # all-negative operands
        ([-1] * (n - 1) + [-m], [-1] * n),
        ([0] * (n - 1) + [m], [1] + [0] * (n - 1)),  # zeros below one nonzero slot
        ([0] * n, [m] * n),  # all zeros
    ]:
        assert riordan.series._int_product(a, b) == _int_schoolbook(a, b)


_int_pairs = st.integers(1, 24).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(-2, 2) | st.integers(-(2**70), 2**70), min_size=n, max_size=n)] * 2)
)


@settings(max_examples=150)
@given(_int_pairs)
def test_int_product_matches_schoolbook(ab):
    a, b = ab
    assert riordan.series._int_product(a, b) == _int_schoolbook(a, b)


@settings(max_examples=150)
@given(st.lists(st.integers(-2, 2) | st.integers(-(2**70), 2**70), min_size=1, max_size=24))
def test_int_product_squares_equal_operands(a):
    # equal operands, one list or two equal ones, take the squaring path
    assert riordan.series._int_product(a, a) == _int_schoolbook(a, a)
    assert riordan.series._int_product(a, list(a)) == _int_schoolbook(a, a)


@settings(max_examples=150)
@given(wide_series, wide.filter(bool), wide_series)
def test_quotient_matches_long_division_oracle(a, b0, rest):
    b = PowerSeries((b0,) + rest.coeffs[1:])
    got = a / b
    assert list(got.coeffs) == expand_quotient(a.coeffs, b.coeffs, min(a.order, b.order))
    assert _all_fractions(got)
    with pytest.raises(DivisionByNonUnit):
        a / PowerSeries((Fraction(0),) + rest.coeffs[1:])


# -- baby-step/giant-step compose and revert against the oracles ---------------

zero_heavy = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(3, 2**61 - 1)]
)
orders = st.one_of(st.integers(1, 3), st.integers(4, 40))


@st.composite
def series_of(draw, order, valuation=0):
    """Coefficients all wide or all zero-heavy, zero below the valuation."""
    coeff = draw(st.sampled_from([wide, zero_heavy]))
    tail = draw(st.lists(coeff, min_size=order, max_size=order))
    return PowerSeries(tuple([Fraction(0)] * valuation + tail)[:order])


# inner series of valuation 1, 2 or 3, drawn apart from the outer's order
inners = st.tuples(orders, st.sampled_from([1, 1, 2, 3])).flatmap(lambda ov: series_of(*ov))


@settings(max_examples=60)
@given(orders.flatmap(series_of), inners)
def test_compose_matches_horner_oracle(outer, inner):
    got = outer.compose(inner)
    assert got.coeffs == horner_compose(outer, inner).coeffs
    assert _all_fractions(got)


@settings(max_examples=60)
@given(wide.filter(bool), orders.flatmap(lambda n: series_of(n + 1)))
def test_revert_matches_lagrange_oracle(f1, rest):
    f = PowerSeries((Fraction(0), f1) + rest.coeffs[2:])
    got = f.revert()
    assert got.coeffs == lagrange_revert(f).coeffs
    assert _all_fractions(got)


@settings(max_examples=60)
@given(st.fractions(min_value=0, max_denominator=2**64).filter(bool), st.integers(1, 48).flatmap(series_of))
def test_sqrt_matches_triangular_oracle(t0, rest):
    s = PowerSeries((t0 * t0,) + rest.coeffs[1:])
    got = s.sqrt()
    assert got.coeffs == triangular_sqrt(s).coeffs
    assert _all_fractions(got)


def test_compose_and_revert_take_order_sqrt_products():
    # 2*ceil(sqrt(n)) + 4 at n = 256; Horner and the running-product
    # Lagrange inversion take n - 1 = 255 each.  revert's own Newton inverse
    # of f/x is counted apart: two products per doubling.
    n = 256
    bound = 2 * (isqrt(n - 1) + 1) + 4
    outer, inner = PowerSeries.of(range(1, n + 1)), PowerSeries.of([0, 1, 1], n)
    assert series_products(lambda: outer.compose(inner)) <= bound
    f = rational_series([0, 1, -1, -1], [1, 1], n)
    inverse = series_products(lambda: 1 / f.div_x())
    assert inverse == 2 * 8
    assert series_products(f.revert) - inverse <= bound


def test_reciprocal_and_compose_form_only_the_terms_they_read():
    # The Newton step forms self*g to n terms and g*e to the n - k new ones
    # (3 * 255 in all, where two full products a step take 4 * 255); Horner
    # step j forms n - j - m terms and inner**i is formed to n - i.
    n = 256
    s = PowerSeries.of(range(1, n + 1))
    assert series_products(lambda: 1 / s).length == 3 * (n - 1)
    outer, inner = PowerSeries.of(range(1, n + 1)), PowerSeries.of([0, 1, 1], n)
    assert series_products(lambda: outer.compose(inner)).length == 5625  # 30 * 256 at full length


# -- shortened products at the edges: orders near m**2, p/q on both sides ------

EDGE_ORDERS = [1, 2, 3, 4, 5, 9, 10, 16, 17, 25, 26, 47]


def pq_series(rng, order, valuation=0):
    """order terms, zero below the valuation, then nonzero p/q values of both signs."""
    tail = [random_nonzero_fraction(rng, -9, 9, 7) for _ in range(order)]
    return PowerSeries(tuple([Fraction(0)] * valuation + tail)[:order])


@pytest.mark.parametrize("n", EDGE_ORDERS)
@pytest.mark.parametrize("valuation", [1, 2])
def test_compose_at_edge_orders_matches_oracles(rng, n, valuation):
    outer, inner = pq_series(rng, n), pq_series(rng, n, valuation)
    got = outer.compose(inner)
    assert list(got.coeffs) == list_compose(list(outer.coeffs), list(inner.coeffs))
    assert _stored_in_lowest_terms(got)
    assert got.coeffs == horner_compose(outer, inner).coeffs
    # the smaller order wins whichever operand carries it
    longer = PowerSeries(outer.coeffs + pq_series(rng, 3).coeffs)
    assert longer.compose(inner) == got
    assert outer.compose(PowerSeries(inner.coeffs + pq_series(rng, 3).coeffs)) == got


@pytest.mark.parametrize("n", EDGE_ORDERS)
def test_substitution_serves_many_outers(rng, n):
    inner = pq_series(rng, n + 2, 1)
    sub = _Substitution(inner, n)
    for _ in range(3):
        outer = pq_series(rng, n)
        assert sub(outer) == outer.compose(inner)
        assert list(sub(outer).coeffs) == list_compose(list(outer.coeffs), list(inner.coeffs[:n]))
    if n > 1:
        with pytest.raises(InsufficientTerms):
            sub(pq_series(rng, n - 1))
    with pytest.raises(InsufficientTerms):
        _Substitution(inner, n + 3)
    with pytest.raises(CompositionRequiresZeroConstantTerm):
        _Substitution(pq_series(rng, n), n)


@pytest.mark.parametrize("n", [n for n in EDGE_ORDERS if n > 1])
def test_revert_at_edge_orders_matches_lagrange_oracle(rng, n):
    f = pq_series(rng, n, 1)
    got = f.revert()
    assert got.coeffs == lagrange_revert(f).coeffs
    assert list(got.coeffs) == list_revert(list(f.coeffs))


@pytest.mark.parametrize("n", [3, 5, 47, 129])
@pytest.mark.parametrize("c0", [Fraction(1), Fraction(-3), Fraction(2, 5), Fraction(-7, 3)])
def test_inverse_at_orders_off_powers_of_two(rng, n, c0):
    s = PowerSeries((c0,) + pq_series(rng, n).coeffs[1:])
    got = s._inverse()
    assert list(got.coeffs) == expand_quotient([1], s.coeffs, n)
    assert schoolbook_product(s.coeffs, got.coeffs, n) == [1] + [0] * (n - 1)
    assert 1 / s == got and _stored_in_lowest_terms(got)


# -- integer storage against plain Fraction tuples ---------------------------


def list_compose(outer, inner):
    """Oracle: Horner's rule on plain lists, to the smaller length."""
    n = min(len(outer), len(inner))
    acc = [Fraction(0)] * n
    for c in reversed(outer[:n]):
        acc = schoolbook_product(acc, inner, n)
        acc[0] += c
    return acc


def list_revert(f):
    """Oracle: Lagrange inversion on plain lists, [x^e] fbar = [x^(e-1)] (x/f)^e / e."""
    n = len(f)
    h = expand_quotient([1], f[1:], n - 1)
    out, p = [Fraction(0)] * n, [Fraction(1)] + [Fraction(0)] * (n - 2)
    for e in range(1, n):
        p = schoolbook_product(p, h, n - 1)
        out[e] = p[e - 1] / e
    return out


def _stored_in_lowest_terms(s):
    """ints over a positive denominator with no common factor, and a Fraction view."""
    return (
        type(s._den) is int
        and s._den > 0
        and all(type(c) is int for c in s._nums)
        and gcd(s._den, *s._nums) == 1
        and _all_fractions(s)
    )


scalars = st.one_of(wide, st.integers(-(2**70), 2**70))


@settings(max_examples=150)
@given(wide_series, wide_series, scalars, st.integers(1, 24))
def test_elementwise_operations_match_fraction_tuples(a, b, q, k):
    A, B = list(a.coeffs), list(b.coeffs)
    n = min(len(A), len(B))
    cases = {
        "a + b": (a + b, [x + y for x, y in zip(A, B)]),
        "a - b": (a - b, [x - y for x, y in zip(A, B)]),
        "-a": (-a, [-x for x in A]),
        "a + q": (a + q, [A[0] + q] + A[1:]),
        "q + a": (q + a, [q + A[0]] + A[1:]),
        "a - q": (a - q, [A[0] - q] + A[1:]),
        "q - a": (q - a, [q - A[0]] + [-x for x in A[1:]]),
        "a * q": (a * q, [x * q for x in A]),
        "q * a": (q * a, [q * x for x in A]),
        "a * b": (a * b, schoolbook_product(A, B, n)),
        "a.truncate(k)": (a.truncate(min(k, len(A))), A[:k]),
        "a.mul_x()": (a.mul_x(), [Fraction(0)] + A),
    }
    if q != 0:
        cases["a / q"] = (a / q, [x / q for x in A])
    if A[0] == 0 and len(A) > 1:
        cases["a.div_x()"] = (a.div_x(), A[1:])
    if B[0] != 0:
        cases["b._inverse()"] = (b._inverse(), expand_quotient([1], B, len(B)))
    for name, (got, want) in cases.items():
        assert list(got.coeffs) == want, name
        assert _stored_in_lowest_terms(got), name
    assert a.is_zero() == all(c == 0 for c in A)
    assert (a - a).is_zero() and a - a == PowerSeries.zero(len(A))


@given(wide_series, wide_series, st.integers(0, 24))
def test_equality_hash_and_views_match_fraction_tuples(a, b, k):
    A = a.coeffs
    assert (a == b) == (A == b.coeffs)
    # the same value reached through a common factor and through Fractions
    for same in (a * 6 * Fraction(1, 6), PowerSeries(A), PowerSeries.of(list(A))):
        assert same == a and hash(same) == hash(a) == hash((A,))
        assert _stored_in_lowest_terms(same)
    assert repr(a) == f"PowerSeries(coeffs={A!r})"
    assert [a[i] for i in range(len(A))] == list(A)
    assert all(type(a[i]) is Fraction for i in range(len(A)))
    if k <= len(A):
        assert a.prefix(k) == A[:k]
    else:
        with pytest.raises(InsufficientTerms):
            a.prefix(k)
    if all(c.denominator == 1 for c in A):
        assert a.integers() == [c.numerator for c in A]
    else:
        with pytest.raises(ValueError):
            a.integers()


@settings(max_examples=60)
@given(st.integers(1, 16).flatmap(series_of), st.integers(1, 16))
def test_powers_compose_and_revert_match_fraction_tuples(s, order):
    inner = PowerSeries((Fraction(0),) + s.coeffs[1:])
    outer = PowerSeries.of(s.coeffs[::-1], order)
    got = outer.compose(inner)
    assert list(got.coeffs) == list_compose(outer.coeffs, inner.coeffs)
    assert _stored_in_lowest_terms(got)
    if s.order > 1 and s[1] != 0:
        got = inner.revert()
        assert list(got.coeffs) == list_revert(inner.coeffs)
        assert _stored_in_lowest_terms(got)


def test_series_arithmetic_makes_no_fraction_round_trip(monkeypatch):
    # Once built, series multiply, divide, compose, revert and take Catalan
    # and square roots on their stored ints: they never clear denominators
    # again and never build the Fraction view, and neither does a pair.
    f = rational_series([0, 3, -1, -1], [2, 1], 40)
    s = PowerSeries.of([Fraction(k, 7) for k in range(1, 41)])
    square = s * s
    calls = []
    clear = riordan.series._over_common_denominator
    monkeypatch.setattr(
        riordan.series, "_over_common_denominator", lambda v: calls.append(len(v)) or clear(v)
    )
    s * f, s / (1 - f), 1 / s, s.compose(f), f.revert(), catalan_of(f), square.sqrt()
    pair = RiordanPair(1 / (1 - f), f)
    pair.z
    assert calls == []
    assert all(t._coeffs is None for t in (f, s, square, pair.g, pair.f))
    # the closed forms clear their parameters, not order-long lists
    monkeypatch.setattr(
        riordan.amatrix, "_over_common_denominator", lambda v: calls.append(len(v)) or clear(v)
    )
    closed_form_f_general(1, "1/2", -1, 2, "3/5", 40), perturbed_f("1/3", 2, -1, 40)
    assert calls == [5, 3]
    calls.clear()
    PowerSeries.of([1, 2])  # the constructor from Fractions does clear them
    assert calls == [2]


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_format_rational_has_no_digit_cap(rng, digits, sign):
    # CPython 3.11+ caps str(int) at 4300 digits; the rendering has no cap
    n = sign * rng.randrange(10 ** (digits - 1), 10**digits)
    text = format_rational(n)
    assert len(text) == digits + (sign < 0) and int(Decimal(text)) == n
    p, q = format_rational(Fraction(n, abs(n) + 1)).split("/")
    assert Fraction(int(Decimal(p)), int(Decimal(q))) == Fraction(n, abs(n) + 1)


def decimal_text(q: Fraction) -> str:
    """Oracle: q as 'p' or 'p/q' through Decimal, which has no digit cap."""
    return str(Decimal(q.numerator)) + ("" if q.denominator == 1 else f"/{Decimal(q.denominator)}")


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("den", [1, 6])
def test_texts_from_ints_match_format_rational_past_the_digit_cap(rng, digits, sign, den):
    # numerators of the digit count over den and over a 4301-digit denominator
    n = sign * rng.randrange(10 ** (digits - 1), 10**digits)
    big = rng.randrange(10**4300, 10**4301)
    nums = [n, n * den, 0, sign * 9]
    for d in (den, big):
        want = [decimal_text(Fraction(c, d)) for c in nums]
        assert _texts(nums, d) == want == [format_rational(Fraction(c, d)) for c in nums]
        assert [_ratio_text(-c, -d) for c in nums] == want


@given(st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=8), st.integers(1, 10**12))
def test_texts_from_ints_match_format_rational(nums, den):
    want = [decimal_text(Fraction(c, den)) for c in nums]
    assert _texts(nums, den) == want == [format_rational(Fraction(c, den)) for c in nums]
    assert [_ratio_text(-c, -den) for c in nums] == want


def test_rational_type_error_is_short_and_names_the_type():
    deep = []
    for _ in range(985):
        deep = [deep]
    for value, shown in [
        (deep, "list [[[[[[[...]]]]]]]"),
        ([10**5000], f"list [{'1' + '0' * 17}...{'0' * 19}]"),
        (0.5, "float 0.5"),
        (True, "bool True"),
        (None, "NoneType None"),
    ]:
        with pytest.raises(TypeError) as info:
            rational(value)
        assert str(info.value) == f"not an exact rational: {shown}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this CPython has no int-to-str digit cap")
@pytest.mark.parametrize("digits", [639, 640, 641, 4301])
def test_format_rational_renders_the_same_past_a_lowered_digit_cap(rng, digits):
    # str(n) renders up to the cap and str(Decimal(n)) past it, byte for byte alike
    n = rng.randrange(10 ** (digits - 1), 10**digits)
    q = Fraction(-n, 2 * n + 1)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest cap CPython accepts
    try:
        got = format_rational(n), format_rational(q)
    finally:
        sys.set_int_max_str_digits(cap)
    assert got == (str(Decimal(n)), f"{Decimal(-n)}/{Decimal(2 * n + 1)}")


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_rational_strings_have_no_digit_cap(rng, digits, sign):
    # CPython 3.11+ caps int(str) at 4300 digits; "p/q" scalars have no cap
    n = sign * rng.randrange(10 ** (digits - 1), 10**digits)
    q = rng.randrange(10 ** (digits - 1), 10**digits)
    assert rational(format_rational(n)) == n
    assert rational(f" {Decimal(n)}/{Decimal(q)} ") == Fraction(n, q)
    assert rational(f"1/{Decimal(q)}") == Fraction(1, q)
    with pytest.raises(ZeroDivisionError):
        rational(f"{Decimal(n)}/0")


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_reprs_have_no_digit_cap(digits, sign):
    # CPython 3.11+ caps str(int) at 4300 digits; Fraction's repr has the cap
    n = sign * (10**digits - 1)
    q = Fraction(1, n)
    want = f"Fraction({Decimal(q.numerator)}, {Decimal(q.denominator)})"
    assert repr(PowerSeries.of([n, q])) == f"PowerSeries(coeffs=(Fraction({Decimal(n)}, 1), {want}))"
    assert repr(Sequence.of([q], 2)) == f"Sequence(terms=({want},), offset=2)"
    seq = f"Sequence(terms=({want},), offset=0)"
    assert repr(LowerTriangle(((q,),))) == f"LowerTriangle(rows=(({want},),))"
    assert repr(ProductionData(((q,),), Sequence((q,)), Sequence((q,)))) == (
        f"ProductionData(matrix=(({want},),), z={seq}, a={seq})"
    )
    assert repr(JFraction((q,), (q,), True)) == f"JFraction(b=({want},), lam=({want},), terminated=True)"
    assert repr(SomosFitResult("Family", family_description=(q, q, q))) == (
        f"SomosFitResult(kind='Family', alpha=None, beta=None, "
        f"family_description=({want}, {want}, {want}), failing_index=None)"
    )


# -- catalan ------------------------------------------------------------------


def test_catalan_values():
    assert catalan(6).integers() == [1, 1, 2, 5, 14, 42]


def test_catalan_defining_identity():
    c = catalan(16)
    residual = c - 1 - (c * c).mul_x().truncate(16)
    assert residual.is_zero()


@given(st.lists(wide, min_size=0, max_size=11))
def test_catalan_of_matches_composition(tail):
    u = PowerSeries.of([0] + tail, len(tail) + 1)
    got = catalan_of(u)
    assert got.coeffs == horner_compose(catalan(u.order), u).coeffs
    assert _all_fractions(got)


@settings(max_examples=60)
@given(st.integers(1, 48).flatmap(lambda n: series_of(n, valuation=1)))
def test_catalan_of_matches_recurrence_oracle(u):
    got = catalan_of(u)
    assert got.coeffs == catalan_recurrence(u).coeffs
    assert _all_fractions(got)


def test_catalan_of_rejects_unit_argument():
    with pytest.raises(CompositionRequiresZeroConstantTerm):
        catalan_of(PowerSeries.of([1, 1], 5))


# -- the polynomial root against its oracles ----------------------------------


@st.composite
def root_equations(draw, degrees):
    """(lead, den, qs, order) for den*F = lead + sum_k q_k*F**k: short polynomials
    with small or p/q terms, den(0) = 1 and q_k(0) = 0, some q_k of valuation 2."""
    top = draw(degrees)
    poly = st.lists(st.one_of(small_fraction, zero_heavy), min_size=1, max_size=4)
    lead = PowerSeries(tuple(draw(poly)))
    den = PowerSeries((Fraction(1), *draw(poly)))
    qs = [
        PowerSeries((Fraction(0),) * draw(st.sampled_from([1, 1, 2])) + tuple(draw(poly)))
        for _ in range(top - 1)
    ]
    return lead, den, qs, draw(st.integers(1, 14))


ZERO_HEAVY_TERMS = [0, 0, 0, 0, 1, -1, Fraction(3, 2**61 - 1)]


def test_polynomial_root_matches_term_by_term_oracle(rng):
    """Seeded equations of degree K = 1..5, with int terms (the int kernel's d = 1,
    where it forms no D-power), small p/q terms or zero-heavy terms with the prime
    denominator 2**61 - 1 (d > 1), some q_k of valuation 2."""
    kinds = [
        lambda: rng.randint(-3, 3),
        lambda: random_fraction(rng),
        lambda: rng.choice(ZERO_HEAVY_TERMS),
    ]
    drawn = set()
    for i in range(150):
        terms = kinds[i % 3]

        def poly():
            return [terms() for _ in range(rng.randint(1, 4))]

        top = rng.randint(1, 5)
        lead, den = PowerSeries.of(poly()), PowerSeries.of([1, *poly()])
        qs = [PowerSeries.of([0] * rng.choice([1, 1, 2]) + poly()) for _ in range(top - 1)]
        order = rng.randint(1, 14)
        got = riordan.series._polynomial_root(lead, den, qs, order)
        assert list(got.coeffs) == polynomial_root_by_terms(lead, den, qs, order)
        d = lcm(lead._den, den._den, *[q._den for q in qs])
        drawn.add((top, "d = 1" if d == 1 else "2**61 - 1" if d % (2**61 - 1) == 0 else "d > 1"))
    assert {(top, d) for top in (1, 2, 3) for d in ("d = 1", "d > 1", "2**61 - 1")} <= drawn


@settings(max_examples=60)
@given(root_equations(st.just(2)).flatmap(lambda e: st.tuples(st.just(e), st.integers(1, 48))))
def test_polynomial_root_matches_quadratic_oracle(case):
    (lead, den, (q,), _), order = case
    got = riordan.series._polynomial_root(lead, den, [q], order)
    assert got == quadratic_root(lead, den, q, order)


def test_polynomial_root_without_powers_is_the_quotient():
    lead, den = PowerSeries.of([1, 2]), PowerSeries.of([1, Fraction(-1, 3), 5])
    got = riordan.series._polynomial_root(lead, den, [], 20)
    assert got == PowerSeries.of([1, 2], 20) / PowerSeries.of([1, Fraction(-1, 3), 5], 20)


# -- sequences and the binomial transform -------------------------------------


def test_sequence_prefix_and_integers():
    s = Sequence.of([1, 2, 3], offset=2)
    assert s.offset == 2
    assert s.prefix(2) == (1, 2)
    assert s.integers() == [1, 2, 3]
    with pytest.raises(ValueError):
        Sequence.of(["1/2"]).integers()


@pytest.mark.parametrize("cls", [PowerSeries, Sequence])
@pytest.mark.parametrize("values", [[1, 2, 3], [1, "1/2", "-2/3"]])
def test_indexing_reads_the_fraction_view(cls, values):
    # an int index, negative ones too, gives one Fraction and a slice a tuple of them,
    # as on the coeffs and terms views
    s = cls.of(values)
    view = tuple(Fraction(v) for v in values)
    assert [s[i] for i in range(-3, 3)] == [view[i] for i in range(-3, 3)]
    assert all(type(s[i]) is Fraction for i in range(-3, 3))
    assert (s[1:], s[::-1], s[-2:], s[5:]) == (view[1:], view[::-1], view[-2:], ())
    for i in (3, -4):
        with pytest.raises(IndexError):
            s[i]


exact_lists = st.lists(
    st.one_of(
        st.integers(-(10**30), 10**30),
        st.builds(Fraction, st.integers(-99, 99), st.integers(1, 60)),
        st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 60)),
    ),
    min_size=1,
    max_size=12,
)


@given(exact_lists, st.integers(-3, 3))
def test_sequence_stores_lowest_ints_under_its_fraction_view(v, offset):
    s = Sequence(v, offset)
    want = tuple(map(rational, v))
    assert s.terms == want and s.offset == offset
    assert s._den > 0 and gcd(s._den, *s._nums) == 1
    assert Sequence.of(v, offset) == s
    scaled = Sequence._ints([6 * c for c in s._nums], 6 * s._den, offset)  # stored in lowest terms
    assert (scaled._nums, scaled._den, hash(scaled)) == (s._nums, s._den, hash(s))
    for n in range(len(v) + 1):
        nums, d = s._cleared(n)
        assert (list(nums), d) == riordan.series._over_common_denominator(want[:n])


@given(exact_lists, exact_lists, st.integers(0, 1), st.integers(0, 1), st.booleans())
def test_sequence_equality_and_hash_are_those_of_the_fraction_terms(v, w, i, j, rewrite):
    if rewrite:  # the same values written another way: p/q strings over a scaled denominator
        w = [f"{3 * rational(x).numerator}/{3 * rational(x).denominator}" for x in v]
    a, b = Sequence(v, i), Sequence(w, j)
    same = (tuple(map(rational, v)), i) == (tuple(map(rational, w)), j)
    assert (a == b) is same and (b == a) is same
    if same:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("terms, kind", [((0.5, 1.0, 2.0), "float"), ((True, 1, 2), "bool")])
def test_sequence_rejects_terms_that_are_not_exact(terms, kind):
    with pytest.raises(TypeError, match=f"not an exact rational: {kind} "):
        Sequence(terms)


def test_binomial_transform_of_delta_is_all_ones():
    got = binomial_transform(Sequence.of([1, 0, 0, 0, 0, 0]))
    assert got.integers() == [1, 1, 1, 1, 1, 1]


def test_binomial_transform_moment_column():
    got = binomial_transform(Sequence.of([1, 7, 87, 1331, 22731]))
    assert got.integers() == [1, 8, 102, 1614, 28606]


def test_binomial_transform_matches_pascal_matrix_multiply(rng):
    from math import comb

    for _ in range(6):
        vec = [random_fraction(rng) for _ in range(8)]
        got = binomial_transform(Sequence.of(vec))
        want = [sum(comb(n, k) * vec[k] for k in range(n + 1)) for n in range(8)]
        assert list(got.terms) == want


def test_binomial_transform_agrees_with_triangle_multiply_to_16():
    from math import comb

    vec = [Fraction((-1) ** n * (n * n + 1), n + 1) for n in range(16)]
    got = binomial_transform(Sequence.of(vec))
    want = [sum(comb(n, k) * vec[k] for k in range(n + 1)) for n in range(16)]
    assert list(got.terms) == want
