"""Riordan arrays as (g, f) pairs of exact truncated power series.

Provides the triangle realization t[n][k] = [x^n] g * f^k, the group operations,
production matrices and A- and Z-sequences read off each pair's cached, checked
A- and Z-series, quasi-involution testing by one series identity at g's own
order and diagonal sums.

Equality everywhere is exact equality of rationals; there are no
tolerances.  All values are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .series import (
    InsufficientTerms, PowerSeries, Sequence, integer_values, rational, _exact_repr, _Substitution, _ZERO
)

InsufficientOrder = InsufficientTerms  # one exception; both names are public


class NotRiordanBand(ValueError):
    """A computed A- or Z-series failed its defining series identity."""


@dataclass(frozen=True)
class RiordanPair:
    """A pair (g, f) with g(0) != 0, f(0) = 0, f'(0) != 0.

    Both series are normalized to one shared truncation order on
    construction (the smaller of the two).  fbar, A and Z are cached on
    first use, and so are the checks; A does not compute Z, and Z reuses A.
    A pair built from a coefficient array (``amatrix.bell_pair``) has its A
    and Z read off the array and checked when it is built.
    """

    g: PowerSeries
    f: PowerSeries

    def __post_init__(self):
        n = min(self.g.order, self.f.order)
        if n < 2:
            raise InsufficientTerms(f"a Riordan pair needs g and f of order >= 2, not {self.g.order} and {self.f.order}")
        object.__setattr__(self, "g", self.g.truncate(n))
        object.__setattr__(self, "f", self.f.truncate(n))
        if self.g[0] == 0:
            raise ValueError("g must have a nonzero constant term")
        if self.f[0] != 0 or self.f[1] == 0:
            raise ValueError("f must vanish at 0 with nonzero linear term")

    @property
    def order(self) -> int:
        return self.g.order

    @cached_property
    def fbar(self) -> PowerSeries:
        """The compositional reverse of f, computed once per pair."""
        return self.f.revert()

    @cached_property
    def _at_f(self) -> _Substitution:
        """Composition into f to order - 1, which both checks read; f's powers are
        built once per pair."""
        return _Substitution(self.f, self.order - 1)

    @cached_property
    def a(self) -> PowerSeries:
        """A = x / fbar to order - 1, checked by f/x = A(f)."""
        a = 1 / self.fbar.div_x()
        if self._at_f(a) != self.f.div_x():
            raise NotRiordanBand("the A-series fails f/x = A(f)")
        return a

    @cached_property
    def z(self) -> PowerSeries:
        """Z = (1 - g0 / g(fbar)) / fbar = (1 - g0 / g(fbar)) / x * A, to order - 1,
        checked by (g - g0)/x = g * Z(f)."""
        g0, a = self.g[0], self.a  # A is checked before Z, which is read off it
        z = (1 - g0 / self.g.compose(self.fbar)).div_x() * a
        if self.g * self._at_f(z) != (self.g - g0).div_x():
            raise NotRiordanBand("the Z-series fails (g - g0)/x = g * Z(f)")
        return z

    @classmethod
    def identity(cls, order: int) -> RiordanPair:
        return cls(PowerSeries.one(order), PowerSeries.x(order))


@dataclass(frozen=True)
class LowerTriangle:
    """Dense lower-triangular array of rationals; row n has n + 1 entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    __repr__ = _exact_repr

    def __post_init__(self):
        rows = tuple(tuple(rational(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> Fraction:
        """Entry (n, k), for 0 <= k <= n < nrows; IndexError elsewhere."""
        if not 0 <= k <= n < len(self.rows):
            raise IndexError(f"no entry ({n}, {k}) in a triangle of {len(self.rows)} rows")
        return self.rows[n][k]

    def get(self, n: int, k: int) -> Fraction:
        """Entry (n, k), reading out-of-range positions as exact zero."""
        if 0 <= n < len(self.rows) and 0 <= k <= n:
            return self.rows[n][k]
        return _ZERO

    def integers(self) -> list[list[int]]:
        return [integer_values(row, "entry") for row in self.rows]


@dataclass(frozen=True)
class ProductionData:
    """Production matrix of a Riordan array plus its two defining sequences.

    The matrix is the square leading block of M^-1 * (M with its top row
    removed).  Column 0 is the Z-sequence and every column k >= 1 is the
    A-sequence shifted down by k - 1.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    z: Sequence
    a: Sequence

    __repr__ = _exact_repr

    def integer_rows(self) -> list[list[int]]:
        return [integer_values(row, "entry") for row in self.matrix]


def riordan_triangle(pair: RiordanPair, nrows: int) -> LowerTriangle:
    """The triangle t[n][k] = [x^n] g * f^k for n, k < nrows; column k is
    g * (f/x)**k to the nrows - k terms it holds, so t[n][k] is its x^(n-k) term."""
    if nrows < 1:
        raise ValueError("nrows must be positive")
    if nrows > pair.order:
        raise InsufficientTerms(
            f"{nrows} rows need order >= {nrows}, have {pair.order}"
        )
    return LowerTriangle(_lower([col.coeffs for col in _columns(pair, nrows)]))


def _columns(pair: RiordanPair, nrows: int):
    """Yield the triangle's columns k = 0..nrows - 1 as series: g * (f/x)**k to
    the nrows - k terms column k holds, one product each past column 0."""
    col, f_over_x = pair.g.truncate(nrows), pair.f.div_x()
    yield col
    for k in range(1, nrows):
        col = col.truncate(nrows - k) * f_over_x
        yield col


def _lower(columns) -> list[list]:
    """The lower triangle laid out from its columns, of any entry type: column k
    holds the entries of rows k, k + 1, ..."""
    return [[columns[k][n - k] for k in range(n + 1)] for n in range(len(columns))]


def riordan_mul(left: RiordanPair, right: RiordanPair) -> RiordanPair:
    """Group law: (g, f) . (u, v) = (g * u(f), v(f)), u and v composed into f by one _Substitution."""
    at_f = _Substitution(left.f, min(left.order, right.order))
    return RiordanPair(left.g * at_f(right.g), at_f(right.f))


def riordan_inverse(pair: RiordanPair) -> RiordanPair:
    """Group inverse (1 / g(fbar), fbar) with fbar the reverse of f."""
    return RiordanPair(1 / pair.g.compose(pair.fbar), pair.fbar)


def bell_from_f(f: PowerSeries) -> RiordanPair:
    """The Bell-subgroup element (f/x, f)."""
    return RiordanPair(f.div_x(), f)


def production_matrix(pair: RiordanPair, size: int) -> ProductionData:
    """The leading size x size block of P = M^-1 * (M minus its top row).

    Column 0 is Z and column k >= 1 is A shifted down by k - 1, from the
    checked pair.z and pair.a; the block needs order >= size + 1.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    if size + 1 > pair.order:
        raise InsufficientTerms(f"size {size} needs order >= {size + 1}, have {pair.order}")
    a, z = (Sequence._ints(s._nums[:size], s._den) for s in (pair.a, pair.z))
    return ProductionData(_band(z.terms, a.terms, _ZERO), z, a)


def _band(z, a, zero) -> tuple:
    """The production matrix laid out from its sequences, of any entry type: column 0
    is z and column k >= 1 is a shifted down by k - 1, with ``zero`` above it."""
    size = len(z)
    return tuple(((z[i], *a[i::-1]) + (zero,) * size)[:size] for i in range(size))


def a_sequence(pair: RiordanPair) -> Sequence:
    """The row-generation sequence A = x / fbar."""
    return Sequence._ints(pair.a._nums, pair.a._den)


def z_sequence(pair: RiordanPair) -> Sequence:
    """The column-0 generation sequence Z = (1 - g0 / g(fbar)) / fbar."""
    if pair.order < 3:
        raise InsufficientTerms(f"the Z-sequence needs order >= 3, have {pair.order}")
    return Sequence._ints(pair.z._nums, pair.z._den)


def reconstruct_from_AZ(a: PowerSeries, z: PowerSeries) -> RiordanPair:
    """The Riordan pair whose production data is (A, Z): ((A - xZ)/A, x/A)^-1."""
    if a[0] == 0:
        raise ValueError("A(0) must be nonzero")
    n = min(a.order, z.order)
    inv_a = 1 / a.truncate(n)
    f0 = inv_a.mul_x()
    g0 = 1 - (z.truncate(n) * inv_a).mul_x()
    return riordan_inverse(RiordanPair(g0, f0))


def quasi_involution_check(g: PowerSeries) -> bool:
    """True iff P = (g(x^2), x*g(x^2)) has inverse Q = (g(-x^2), x*g(-x^2)) at order 2n, n = g.order.

    With G = g(x^2), P*Q = (G * G(-x^2 G^2), x * G * G(-x^2 G^2)) = (h(x^2), x*h(x^2)) for
    h(y) = g(y) * g(-y g(y)^2), so P*Q = I exactly when h = 1 mod y^n: one identity at g's own
    order.  h(0) = g(0)^2, so g(0) = +-1.  Term k of g enters h at y^k with weight
    g(0) (1 + (-1)^k g(0)^(2k)): 2 g(0) for even k and 0 for odd k.  An odd term is read only
    at y^(k+1) or later, so when n is even the last term is never read; for g = 1 + c*y^k
    with k odd, c is first read at y^(2k)."""
    if g[0] == 0:
        raise ValueError("g must have a nonzero constant term")
    n = g.order
    return g * _Substitution(-(g * g).mul_x().truncate(n), n)(g) == PowerSeries.one(n)


def diagonal_sums(tri: LowerTriangle) -> Sequence:
    """d_n = sum_k t[n-k][k] over the valid entries of each falling diagonal."""
    terms = []
    for n in range(tri.nrows):
        s = _ZERO
        for k in range(n // 2 + 1):
            s += tri.rows[n - k][k]
        terms.append(s)
    return Sequence(tuple(terms))
