import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st

from riordan.series import (
    CompositionRequiresZeroConstantTerm,
    PowerSeries,
    _over_common_denominator,
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


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


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
