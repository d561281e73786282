"""Riordan arrays as (g, f) pairs of exact truncated power series.

Provides the triangle realization t[n][k] = [x^n] g * f^k, the group
operations, production matrices obtained by an exact triangular solve,
A- and Z-sequence extraction, quasi-involution testing and diagonal sums.

Equality everywhere is exact equality of rationals; there are no
tolerances.  All values are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .series import InsufficientTerms, PowerSeries, Sequence, integer_values, rational, _ZERO, _ONE

InsufficientOrder = InsufficientTerms  # one exception; both names are public


class NotRiordanBand(ValueError):
    """A computed production matrix failed the banded-structure check."""


@dataclass(frozen=True)
class RiordanPair:
    """A pair (g, f) with g(0) != 0, f(0) = 0, f'(0) != 0.

    Both series are normalized to one shared truncation order on
    construction (the smaller of the two).
    """

    g: PowerSeries
    f: PowerSeries

    def __post_init__(self):
        n = min(self.g.order, self.f.order)
        if n < 2:
            raise InsufficientTerms("a Riordan pair needs order >= 2")
        object.__setattr__(self, "g", self.g.truncate(n))
        object.__setattr__(self, "f", self.f.truncate(n))
        if self.g.coeffs[0] == 0:
            raise ValueError("g must have a nonzero constant term")
        if self.f.coeffs[0] != 0 or self.f.coeffs[1] == 0:
            raise ValueError("f must vanish at 0 with nonzero linear term")

    @property
    def order(self) -> int:
        return self.g.order

    @cached_property
    def fbar(self) -> PowerSeries:
        """The compositional reverse of f, computed once per pair."""
        return self.f.revert()

    @classmethod
    def identity(cls, order: int) -> RiordanPair:
        return cls(PowerSeries.one(order), PowerSeries.x(order))


@dataclass(frozen=True)
class LowerTriangle:
    """Dense lower-triangular array of rationals; row n has n + 1 entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} has {len(row)} entries, expected {n + 1}")

    @classmethod
    def of(cls, rows) -> LowerTriangle:
        return cls(tuple(tuple(rational(v) for v in row) for row in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, n: int, k: int) -> Fraction:
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
    removed).  Column 0 is the Z-sequence; every column k >= 1 carries the
    A-sequence shifted down, which is verified at construction time.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    z: Sequence
    a: Sequence

    @property
    def size(self) -> int:
        return len(self.matrix)

    def integer_rows(self) -> list[list[int]]:
        return [integer_values(row, "entry") for row in self.matrix]


def riordan_triangle(pair: RiordanPair, nrows: int) -> LowerTriangle:
    """The triangle t[n][k] = [x^n] g * f^k for n, k < nrows."""
    if nrows < 1:
        raise ValueError("nrows must be positive")
    if nrows > pair.order:
        raise InsufficientTerms(
            f"{nrows} rows need order >= {nrows}, have {pair.order}"
        )
    rows = [[_ZERO] * (n + 1) for n in range(nrows)]
    col = pair.g
    for k in range(nrows):
        for n in range(k, nrows):
            rows[n][k] = col.coeffs[n]
        if k + 1 < nrows:
            col = col * pair.f
    return LowerTriangle(tuple(tuple(r) for r in rows))


def riordan_mul(left: RiordanPair, right: RiordanPair) -> RiordanPair:
    """Group law: (g, f) . (u, v) = (g * u(f), v(f))."""
    return RiordanPair(left.g * right.g.compose(left.f), right.f.compose(left.f))


def riordan_inverse(pair: RiordanPair) -> RiordanPair:
    """Group inverse (1 / g(fbar), fbar) with fbar the reverse of f."""
    return RiordanPair(1 / pair.g.compose(pair.fbar), pair.fbar)


def bell_from_f(f: PowerSeries) -> RiordanPair:
    """The Bell-subgroup element (f/x, f)."""
    return RiordanPair(f.div_x(), f)


def _production_column(m, j: int, size: int) -> list[Fraction]:
    """Rows 0..size-1 of column j of P in M * P = (M minus top row), by
    forward substitution over m, the first size + 1 rows of M."""
    col: list[Fraction] = []
    for i in range(size):
        s = m[i + 1][j] if j <= i + 1 else _ZERO
        trow = m[i]
        for k in range(i):
            if col[k]:
                s -= trow[k] * col[k]
        col.append(s / trow[i])
    return col


def production_matrix(pair: RiordanPair, size: int) -> ProductionData:
    """Solve M * P = (M minus top row) for the leading size x size block of P.

    M is lower triangular with nonzero diagonal, so forward substitution on
    the (size + 1)-row truncation yields the block exactly, one column at a
    time; truncation introduces no windowing error.  Every column k >= 1 is
    checked against the A-sequence band.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    m = riordan_triangle(pair, size + 1).rows
    p = tuple(zip(*(_production_column(m, j, size) for j in range(size))))
    z, a = tuple(r[0] for r in p), tuple(r[1] for r in p)
    for i in range(size):
        for j in range(1, size):
            want = a[i - j + 1] if i - j + 1 >= 0 else _ZERO
            if p[i][j] != want:
                raise NotRiordanBand(
                    f"entry ({i},{j}) = {p[i][j]} breaks the band structure"
                )
    return ProductionData(p, Sequence(z), Sequence(a))


def a_sequence(pair: RiordanPair) -> Sequence:
    """The row-generation sequence, read off from x / fbar(x)."""
    a = PowerSeries.one(pair.order - 1) / pair.fbar.div_x()
    return Sequence(a.coeffs)


def z_sequence(pair: RiordanPair) -> Sequence:
    """Column-0 generation sequence, cross-checked two independent ways.

    Column 0 of the production matrix, forward-substituted alone in
    O(order**2) steps, must agree with the closed form
    Z(x) = (1 - g0 / g(fbar(x))) / fbar(x); a mismatch means the input
    violated the Riordan invariants and raises instead of guessing.
    """
    if pair.order < 3:
        raise InsufficientTerms(f"the Z-sequence needs order >= 3, have {pair.order}")
    size = pair.order - 1
    z = _production_column(riordan_triangle(pair, size + 1).rows, 0, size)
    ratio = 1 - (pair.g.coeffs[0] / pair.g.compose(pair.fbar))
    closed = ratio.div_x() / pair.fbar.div_x()
    if list(closed.coeffs[:size]) != z:
        raise NotRiordanBand("Z-sequence closed form disagrees with production matrix")
    return Sequence(tuple(z))


def reconstruct_from_AZ(a: PowerSeries, z: PowerSeries) -> RiordanPair:
    """The Riordan pair whose production data is (A, Z): ((A - xZ)/A, x/A)^-1."""
    if a.coeffs[0] == 0:
        raise ValueError("A(0) must be nonzero")
    n = min(a.order, z.order)
    inv_a = PowerSeries.one(n) / a.truncate(n)
    f0 = inv_a.mul_x()
    g0 = 1 - (z.truncate(n) * inv_a).mul_x()
    return riordan_inverse(RiordanPair(g0, f0))


def _aerate(g: PowerSeries, sign: int) -> PowerSeries:
    """g(x^2) or g(-x^2): exact at twice the input order."""
    out = [_ZERO] * (2 * g.order)
    s = _ONE
    for i, c in enumerate(g.coeffs):
        out[2 * i] = c * s
        s = s * sign
    return PowerSeries(tuple(out))


def quasi_involution_check(g: PowerSeries) -> bool:
    """True iff (g(x^2), x*g(x^2))^-1 equals (g(-x^2), x*g(-x^2)) to truncation."""
    if g.coeffs[0] == 0:
        raise ValueError("g must have a nonzero constant term")
    plus = _aerate(g, 1)
    minus = _aerate(g, -1)
    inv = riordan_inverse(RiordanPair(plus, plus.mul_x()))
    target = RiordanPair(minus, minus.mul_x())
    n = inv.order
    return inv.g.coeffs[:n] == target.g.coeffs[:n] and inv.f.coeffs[:n] == target.f.coeffs[:n]


def diagonal_sums(tri: LowerTriangle) -> Sequence:
    """d_n = sum_k t[n-k][k] over the valid entries of each falling diagonal."""
    terms = []
    for n in range(tri.nrows):
        s = _ZERO
        for k in range(n // 2 + 1):
            s += tri.rows[n - k][k]
        terms.append(s)
    return Sequence(tuple(terms))
