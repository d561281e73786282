import random
from fractions import Fraction
from itertools import zip_longest
from operator import mul

import pytest
from hypothesis import settings, strategies as st

import riordan.amatrix
import riordan.series
from riordan.amatrix import AMatrixSpec
from riordan.hankel import FAMILY, INCONSISTENT, INSUFFICIENT, UNIQUE, SomosFitResult, _somos_windows
from riordan.series import (
    CompositionRequiresZeroConstantTerm,
    PowerSeries,
    SeriesError,
    _Substitution,
    _over_common_denominator,
    _over_lcm,
    rational,
)

settings.register_profile("suite", deadline=None, max_examples=30, derandomize=True)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return random.Random(20240517)


def random_fraction(rng, lo=-3, hi=3, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_nonzero_fraction(rng, lo=-3, hi=3, max_den=4) -> Fraction:
    while True:
        q = random_fraction(rng, lo, hi, max_den)
        if q != 0:
            return q


class Products(int):
    """A count of series-by-series products; ``length`` is their total
    operand length, the number of terms each product forms, summed."""


def series_products(thunk):
    """The series-by-series products thunk() makes: their number, with their
    total operand length as ``.length``."""
    count = length = 0
    mul = PowerSeries.__mul__

    def counted(self, other):
        nonlocal count, length
        if isinstance(other, PowerSeries):
            count += 1
            length += min(self.order, other.order)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PowerSeries, "__mul__", counted)
        thunk()
    out = Products(count)
    out.length = length
    return out


def int_products(thunk) -> list[tuple[int, bool]]:
    """The int products (series._int_product) thunk() makes, through a series product
    or directly: each one's length and whether it squares (its operands are equal)."""
    calls = []
    product = riordan.series._int_product

    def counted(a, b):
        calls.append((len(a), a == b))
        return product(a, b)

    with pytest.MonkeyPatch.context() as mp:
        for module in (riordan.series, riordan.amatrix):
            mp.setattr(module, "_int_product", counted)
        thunk()
    return calls


def record_reversions_and_substitutions(monkeypatch):
    """(reverts, substitutions): lists that fill, while monkeypatch is active, with
    every series PowerSeries.revert reverts and the order n of every composition
    (_Substitution.__call__, so PowerSeries.compose too)."""
    reverts, substitutions = [], []
    revert, substitute = PowerSeries.revert, _Substitution.__call__

    def counted_revert(self):
        reverts.append(self)
        return revert(self)

    def counted_substitute(substitution, outer):
        substitutions.append(substitution.n)
        return substitute(substitution, outer)

    monkeypatch.setattr(PowerSeries, "revert", counted_revert)
    monkeypatch.setattr(_Substitution, "__call__", counted_substitute)
    return reverts, substitutions


def bump_term(series, i):
    """series with 1 added to its term i."""
    nums = list(series.coeffs)
    nums[i] += 1
    return PowerSeries(tuple(nums))


def series_residual(spec, f):
    """Oracle: the series route of amatrix.functional_equation_residual, f - Phi(f) at
    f's order.  Every row is a polynomial in f off one list of series powers, each term
    a series-by-scalar product and each row a series sum; row -1 is added apart from
    ``row_sum``, so the rows i >= 0 end in a ``mul_x`` shift."""
    order = f.order
    rho_row = (Fraction(0), Fraction(0), *spec.rho)
    maxpow = max(len(r) for r in (rho_row, *spec.rows)) - 1
    powers = [PowerSeries.one(order), f]
    while len(powers) <= maxpow:
        powers.append(powers[-1] * f)
    zero = PowerSeries.zero(order)

    def value(row):
        return sum((powers[j] * c for j, c in enumerate(row) if c), zero)

    return f - spec.row_sum(value).mul_x().truncate(order) - value(rho_row)


def fraction_grid(spec):
    """Oracle: the spec's grid e[p][q] = [x^p w^q] E(x, w) as Fraction rows (AMatrixSpec._grid):
    the rho row (0, -1, rho_0, ...) and the array rows, each less the row above it when the
    last row repeats (the grid of (1 - x)*E)."""
    grid = [(Fraction(0), Fraction(-1), *spec.rho), *spec.rows]
    if spec.repeat_last_row:
        grid[1:] = [tuple(a - b for a, b in zip_longest(row, up, fillvalue=0)) for row, up in zip(grid[1:], grid)]
    return grid


def composition_checks(pair, a):
    """Oracle: the A and Z checks of a Bell pair whose A is read to order terms, one
    composition of that A into f: (f/x = A(f) to order - 1 terms, g = A(f) to order
    terms), what ``amatrix._spec_checks`` decides on A's own equation."""
    a_of_f = _Substitution(pair.f, a.order)(a)
    return a_of_f.truncate(pair.order - 1) == pair.f.div_x(), a_of_f == pair.g


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def amatrix_specs(draw):
    """Depth <= 3, width <= 3, rho length <= 2, p/q entries, either repeat flag."""
    width = draw(st.integers(1, 3))
    row = st.lists(small_fraction, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    rows[0][0] = draw(small_fraction.filter(bool))
    rho = draw(st.lists(small_fraction, max_size=2))
    return AMatrixSpec.of(rows, rho, draw(st.booleans()))


def somos_fit_by_fractions(h) -> SomosFitResult:
    """Oracle: the Fraction loop somos_fit ran before it cleared denominators.

    The window equations of h's terms, classified with every product, point and
    line a Fraction; see hankel.somos_fit.
    """
    t = h.terms
    if len(t) < 6:
        return SomosFitResult(INSUFFICIENT)
    line = point = None
    for n, p, q, r in _somos_windows(t):
        if p == 0 and q == 0:
            if r != 0:
                return SomosFitResult(INCONSISTENT, failing_index=n)
            continue
        if point is not None:
            if p * point[0] + q * point[1] != r:
                return SomosFitResult(INCONSISTENT, failing_index=n)
            continue
        if line is None:
            line = (p, q, r)
            continue
        p0, q0, r0 = line
        cross = p0 * q - p * q0
        if cross == 0:
            if p0 * r != p * r0 or q0 * r != q * r0:
                return SomosFitResult(INCONSISTENT, failing_index=n)
            continue
        point = ((r0 * q - r * q0) / cross, (p0 * r - p * r0) / cross)
    if point is not None:
        return SomosFitResult(UNIQUE, alpha=point[0], beta=point[1])
    if line is not None:
        lead = line[0] or line[1]
        return SomosFitResult(FAMILY, family_description=tuple(v / lead for v in line))
    return SomosFitResult(INSUFFICIENT)


def fit_allows(fit: SomosFitResult, alpha, beta) -> bool:
    """True iff the fitted solution set contains the pair (alpha, beta).

    Sequences with degenerate windows (an all-ones Hankel transform, say)
    admit a whole line of valid parameter pairs; a claimed pair then counts
    as confirmed when it lies on that line.
    """
    alpha, beta = rational(alpha), rational(beta)
    if fit.kind == UNIQUE:
        return fit.alpha == alpha and fit.beta == beta
    if fit.kind == FAMILY:
        p, q, r = fit.family_description
        return p * alpha + q * beta == r
    return False


def catalan_recurrence(u):
    """Oracle: the int recurrence catalan_of ran before the quadratic solver.

    C(u), the solution y of y = 1 + u*y**2, to u's order.  Because u(0) = 0,
    [x^n](u*y**2) involves only y_0..y_(n-1), so the coefficients follow one
    at a time; the running square y**2 is extended by one coefficient per
    step, O(order**2) products in all.  With u = U/D over one common
    denominator D, Y_m = y_m * D**m and S_m = [x^m](y**2) * D**m are integers
    and Y_n = sum_k U_k * D**(k-1) * S_(n-k), so the recurrence runs on ints.
    """
    if u.coeffs[0] != 0:
        raise CompositionRequiresZeroConstantTerm("u has a nonzero constant term")
    uc, d = _over_common_denominator(u.coeffs)
    v = [0] + [uc[k] * d ** (k - 1) for k in range(1, u.order)]
    y = [1]
    sq = [1]  # Y-scaled coefficients of y**2 known so far
    for n in range(1, u.order):
        y.append(sum(v[k] * sq[n - k] for k in range(1, n + 1) if v[k]))
        half = sum(y[i] * y[n - i] for i in range((n + 1) // 2))
        sq.append(2 * half + y[n // 2] ** 2 if n % 2 == 0 else 2 * half)
    return PowerSeries(tuple(Fraction(c, d**m) for m, c in enumerate(y)))


def quadratic_root(lead, den, q, order: int) -> PowerSeries:
    """Oracle: the quadratic solver that catalan_of, sqrt and the closed forms ran
    before the general polynomial root.

    The series F with den*F = lead + q*F**2, to the given order, for den(0) = 1 and
    q(0) = 0.  With lead, den, q = L/D, E/D, K/D over one common denominator D, the
    integers Phi_n = F_n*D**(2n+1) and S_m = [x^m](F**2)*D**(2m+2) (the Phi-scaled
    running square, a full convolution) satisfy
    Phi_n = L_n*D**(2n) - sum_(k>=1) (E_k*D**(2k-1)*Phi_(n-k) - K_k*D**(2k-2)*S_(n-k)).
    """
    if order < 1:
        raise SeriesError("order must be positive")
    (lead_, den_, q_), d = _over_lcm([lead, den, q])
    lead_ = lead_[:order] + [0] * (order - len(lead_))
    scale = [d ** (2 * n) for n in range(order)]
    es = [c * s // d for c, s in zip(den_[1:order], scale[1:])]
    ks = [c * s for c, s in zip(q_[1:order], scale)]
    phi, sq = [], []
    for n in range(order):
        phi.append(lead_[n] * scale[n] - sum(map(mul, es, reversed(phi))) + sum(map(mul, ks, reversed(sq))))
        sq.append(sum(map(mul, phi, reversed(phi))))
    return PowerSeries._ints([c * k for c, k in zip(phi, reversed(scale))], d * scale[-1])


def polynomial_root_by_terms(lead, den, qs, order: int) -> list[Fraction]:
    """Oracle: the F with den*F = lead + sum_(k>=2) qs[k-2]*F**k, term by term in
    Fractions, for den(0) = 1 and q_k(0) = 0.  F_n is lead_n less den's lower
    terms against F, plus [x^n](q_k*F**k) from F_0..F_(n-1) alone (F_n enters no
    q_k term since q_k(0) = 0); each power is a fresh schoolbook convolution."""

    def term(s, i):
        return s.coeffs[i] if i < s.order else Fraction(0)

    f = []
    for n in range(order):
        known = f + [Fraction(0)]
        total = term(lead, n) - sum(term(den, j) * f[n - j] for j in range(1, n + 1))
        for k, q in enumerate(qs, 2):
            power = [Fraction(1)] + [Fraction(0)] * n
            for _ in range(k):
                power = [sum(power[i] * known[m - i] for i in range(m + 1)) for m in range(n + 1)]
            total += sum(term(q, j) * power[n - j] for j in range(1, n + 1))
        f.append(total)
    return f
