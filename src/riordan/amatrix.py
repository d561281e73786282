"""Riordan arrays characterized by a coefficient array plus a rho sequence.

The characterizing data is a finite array a[i][j] (optionally with its last
row repeated forever) and a sequence rho[j].  The associated f solves

    f/x = sum_i x^i * R_i(f) + (f^2/x) * rho(f),

where R_i is the generating polynomial of row i: one array equation
f = sum_(i >= -1) x^(i+1) * P_i(f) whose row -1 is P_(-1)(y) = y^2 * rho(y),
with coefficients (0, 0, rho_0, rho_1, ...).  Only AMatrixSpec knows how the
rows continue: ``entry`` reads a[i][j] at any depth i >= -1, ``row_sum``
evaluates sum_i x^i * value(row_i) over the rows i >= 0, summing a repeated
last row in closed form, and ``_grid`` is the coefficient grid of the one
polynomial E(x, w) = sum_i x^(i+1) P_i(w) - w (times 1 - x for a repeated last
row), as the ints of E(mu x, lam w)/lam, cleared once per spec.  The grid is read
in ints three times, with no series reversion or inverse: its columns give the
equation E(x, x*F) = 0 for F = f/x; its rows, with x = fbar(y) and w = y, an
equation in u = fbar/x = 1/A (the A-matrix construction of Merlini, Rogers,
Sprugnoli and Verri 1997) that, divided by u, gives A as a polynomial in u over
1 - x*rho(x); and E(x, f) f^k = 0, the entry recurrence of the Bell triangle,
runs on its entries as ints with no series product.  Every root follows from
one int recurrence, and the paper's two named families, the two-row spec
[[1, a, b], [1, c, d]] with rho = (rho0) and the single-row spec [[1, a, b]]
with rho = (c), are solved as specs on the same route (``closed_form_f_general``,
``perturbed_f``).  ``bell_pair`` checks each reading against the spec, with no
composition: f by the residual of the equation, and A by the A-matrix equation
it was read off, E(y/A, y) = 0, in L int products; the two are then tied by E
alone, whose branches through the origin are unique.

Everything is a pure function over immutable values; parameter sweeps can
run fully in parallel with no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import islice, zip_longest
from math import comb, lcm
from operator import mul

from .series import (
    InsufficientTerms,
    PowerSeries,
    Sequence,
    binomial_transform,
    format_rational,
    rational,
    _exact_repr,
    _int_product,
    _lowest,
    _over_common_denominator,
    _over_powers,
    _polynomial_root,
    _ZERO,
    _ONE,
)
from .core import LowerTriangle, NotRiordanBand, RiordanPair, bell_from_f


class InvalidSpec(ValueError):
    """The coefficient array violates the characterization hypotheses."""


class NonConvergence(RuntimeError):
    """A solver left a nonzero residual; indicates a bug."""


@dataclass(frozen=True)
class AMatrixSpec:
    """Rows a[i][j] of the characterizing array plus the rho coefficients.

    ``repeat_last_row`` models the infinite array whose rows are all equal
    to the last explicit row from that point on.  Row -1 is
    (0, 0, *rho), the coefficients of y^2 * rho(y).
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rho: tuple[Fraction, ...] = ()
    repeat_last_row: bool = False

    __repr__ = _exact_repr

    def __post_init__(self):
        rows = tuple(tuple(rational(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rho", tuple(rational(v) for v in self.rho))
        if not rows or not rows[0] or rows[0][0] == 0:
            raise InvalidSpec("the top-left array entry must be nonzero")
        if type(self.repeat_last_row) is not bool:
            raise TypeError(f"repeat_last_row must be a bool, not {type(self.repeat_last_row).__name__}")

    @classmethod
    def from_dict(cls, data: dict) -> AMatrixSpec:
        """Parse the JSON shape {"rows": [[...]], "rho": [...], "repeat_last_row": bool}.

        Scalars may be integers or "p/q" strings; any other key is refused.
        """
        if not isinstance(data, dict) or "rows" not in data:
            raise InvalidSpec("spec JSON must be an object with a 'rows' key")
        unknown = [key for key in data if key not in ("rows", "rho", "repeat_last_row")]
        if unknown:
            raise InvalidSpec(f"unknown spec key {unknown[0]!r}; the keys are 'rows', 'rho' and 'repeat_last_row'")
        rows = data["rows"]
        rho = data.get("rho", [])
        repeat = data.get("repeat_last_row", False)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InvalidSpec("'rows' must be a list of lists")
        if not isinstance(rho, list) or not isinstance(repeat, bool):
            raise InvalidSpec("'rho' must be a list and 'repeat_last_row' a bool")
        try:
            return cls(rows, rho, repeat)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, InvalidSpec):
                raise
            raise InvalidSpec(str(exc)) from exc

    def to_dict(self) -> dict:
        """The JSON shape of from_dict: integers as ints and other entries as
        "p/q" strings, and an integer past CPython's cap on int-to-str digits,
        which json.dumps could not write, as its decimal string."""

        def plain(q: Fraction):
            if q.denominator != 1:
                return format_rational(q)
            try:
                str(q.numerator)  # json.dumps runs int.__repr__, which has the cap
            except ValueError:
                return format_rational(q)
            return q.numerator

        return {
            "rows": [[plain(v) for v in row] for row in self.rows],
            "rho": [plain(v) for v in self.rho],
            "repeat_last_row": self.repeat_last_row,
        }

    def entry(self, i: int, j: int) -> Fraction:
        """a[i][j] for i >= -1 (row -1 is (0, 0, *rho)), with last-row
        repetition and zero padding applied.  Raises ValueError for i < -1
        or j < 0, which index no entry."""
        if i < -1 or j < 0:
            raise ValueError(f"no array entry ({i}, {j}): rows start at -1 and columns at 0")
        if self.repeat_last_row:
            i = min(i, len(self.rows) - 1)
        row = (_ZERO, _ZERO, *self.rho) if i == -1 else self.rows[i] if i < len(self.rows) else ()
        return row[j] if j < len(row) else _ZERO

    def row_sum(self, value) -> PowerSeries:
        """sum_i x^i * value(row_i) over the array rows i >= 0, to value's order.

        A repeated last row (index L - 1) contributes x^(L-1) * value(last) / (1 - x)
        for all its copies.  Evaluated by Horner from the last row up: each step
        is a shift and the division by 1 - x a running sum, so no series product
        is taken.
        """
        acc = value(self.rows[-1])
        if self.repeat_last_row:
            acc = acc._partial_sums()
        for row in reversed(self.rows[:-1]):
            acc = acc.mul_x().truncate(acc.order) + value(row)
        return acc

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int, ...], ...], int, int]:
        """(e, mu, lam): the grid of E(x, w) = sum_(i >= -1) x^(i+1) P_i(w) - w, whose root w = f is
        the solution, as the ints e[p][q] = [X^p W^q] E' for E' = E(mu X, lam W)/lam, built once per spec; rows
        are zero past their end.  Row p is array row p - 1, so row 0 is the rho row with the -w term,
        (0, -1, rho_0, ...).  A repeated last row makes it the grid of (1 - x)*E: each row loses the
        row above it, and the copies cancel, so the grid has L + 1 rows either way.  For lam the lcm
        of the denominators of E's coefficients r[p][q], beta that of a[0][0] and mu = lam*beta,
        e[p][q] = r[p][q] mu^p lam^(q-1) is an int (p + q >= 2, or e01 = -1 and e10 = beta*a[0][0]).
        The root is W = f(mu X)/lam, so [X^n] W^m = mu^n lam^(-m) [x^n] f^m; an int spec has mu = 1.
        """
        grid = [(_ZERO, -_ONE, *self.rho), *self.rows]
        if self.repeat_last_row:
            pairs = zip(grid[1:], grid)  # each row with the row above it
            grid[1:] = [tuple(a - b for a, b in zip_longest(*pair, fillvalue=_ZERO)) for pair in pairs]
        nums, lam = _over_common_denominator([v for row in grid for v in row])
        beta, it = self.rows[0][0].denominator, iter(nums)
        cells = (enumerate(islice(it, len(row))) for row in grid)
        e = tuple(tuple(c * lam ** (p + q) * beta**p // lam**2 for q, c in row) for p, row in enumerate(cells))
        return e, lam * beta, lam

    def __getstate__(self):  # the fields alone: a spec pickles the same with or without its _grid
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SolveReport:
    """The solution f and the solver's pass count: the root pass plus the
    full-order residual check, so 2 at every order."""

    f: PowerSeries
    iterations: int


def functional_equation_residual(spec: AMatrixSpec, f: PowerSeries) -> PowerSeries:
    """f - Phi(f), Phi(f) = sum_(i >= -1) x^(i+1) P_i(f) the equation's right side at
    f's order; identically zero at a solution, read off the rows and rho, not the grid.  Each
    row is an int combination of the ints of f's powers (one series product each past f) over
    one denominator; row -1 is added apart from ``row_sum``, so the rows i >= 0 end in a shift.
    """
    order = f.order
    rho_row = (_ZERO, _ZERO, *spec.rho)
    powers = [PowerSeries.one(order), f]
    while len(powers) < max(len(r) for r in (rho_row, *spec.rows)):
        powers.append(powers[-1] * f)
    den = lcm(*[c.denominator for row in (rho_row, *spec.rows) for c in row]) * lcm(*[p._den for p in powers])
    scale = [den // p._den for p in powers]

    def value(row) -> PowerSeries:  # as ints, all scaled alike, which the linear row_sum carries
        acc = [0] * order
        for w, p in [(c.numerator * scale[j] // c.denominator, powers[j]._nums) for j, c in enumerate(row) if c]:
            acc = [a + w * v for a, v in zip(acc, p)]
        return PowerSeries._ints(acc, 1)

    phi, rho = spec.row_sum(value)._nums, value(rho_row)._nums
    return PowerSeries._ints([scale[1] * c - a - r for c, a, r in zip(f._nums, (0, *phi), rho)], den)


def _f_over_x(spec: AMatrixSpec, order: int) -> PowerSeries:
    """F = f/x for the solution f of the spec, to the given order, off the columns of the
    spec's int grid e (AMatrixSpec._grid): with W = f(mu X)/lam = X*F', E'(X, W)/X is

        sum_q C_q F'^q = 0,   C_q = sum_p e[p][q] X^(p+q-1),

    and C_1(0) = -1 and C_q(0) = 0 for q >= 2, as grid row 0 is (0, -1, e02, ...): the shifted
    columns C_q are the int rows _polynomial_root takes, and its root F'_n = Phi_n/(D R^n) goes
    back to F_n = F'_n/(beta mu^n) by _over_powers (c = D beta, beta = mu/lam, r = R mu).
    """
    grid, mu, lam = spec._grid
    cols = [((0,) * q + col)[1:] for q, col in enumerate(zip_longest(*grid, fillvalue=0))]
    phi, d, r = _polynomial_root(cols, order)
    return PowerSeries._ints(*_over_powers(phi, d * (mu // lam), r * mu))


def solve_f(spec: AMatrixSpec, order: int) -> SolveReport:
    """The unique solution f with f(0) = 0, f'(0) = a[0][0], to truncation.

    f = x*F for the root F of the equation off the columns of the spec's grid
    (_f_over_x), one term at a time off one int recurrence; a full-order
    residual check, which evaluates the equation through ``row_sum`` and the
    powers of f and not through the grid the root was read off, closes the solve.
    ``iterations`` counts the root pass plus that check: 2.
    """
    if order < 2:
        raise InsufficientTerms("order must be at least 2")
    f = _f_over_x(spec, order - 1).mul_x()
    if not functional_equation_residual(spec, f).is_zero():
        raise NonConvergence("the root left a nonzero residual; the equation is miscoded")
    return SolveReport(f, 2)


def direct_triangle(spec: AMatrixSpec, nrows: int) -> LowerTriangle:
    """Bell triangle from the entry recurrence on the spec's grid (_triangle_ints)."""
    if nrows < 1:
        raise ValueError("nrows must be positive")
    return LowerTriangle([list(map(Fraction, nums, dens)) for nums, dens in _triangle_ints(spec, nrows)])


def _entry_rows(spec: AMatrixSpec, nrows: int) -> list[list[int]]:
    """The rows T'(n, m) = mu^n lam^(-m) T(n, m), m = 0..n, n = 0..nrows, of T(n, m) = [x^n] f^m: the
    powers of the root W = f(mu X)/lam of the spec's int grid e (AMatrixSpec._grid, row 0 (0, -1, e02,
    ...)), for which E'(X, W) W^k = 0 gives T'(n, k+1) = sum_((p,q) != (0,1)) e[p][q] T'(n-p, q+k) with
    no division.  Terms p >= 1 add shifted multiples of the last L rows; the rho terms (p = 0) read
    the row further right, so run right to left."""
    grid = spec._grid[0]
    terms = [(p, q, c) for p, row in enumerate(grid) for q, c in enumerate(row) if c and (p, q) != (0, 1)]
    rho = [(q - 1, c) for p, q, c in terms if p == 0]
    t = [[1]]  # T'(n, 0) = 0 past n = 0
    for n in range(1, nrows + 1):
        row = [0] * (n + 1)
        for p, q, c in terms:
            if 0 < p <= n:  # c * T'(n-p, m+q-1) into m = 1, 2, ...
                src = t[n - p][q:]
                row[1 : len(src) + 1] = [a + c * v for a, v in zip(row[1:], src)]
        for m in range(n - 1, 0, -1) if rho else ():
            for s, c in rho:
                if m + s <= n:
                    row[m] += c * row[m + s]
        t.append(row)
    return t


def _triangle_ints(spec: AMatrixSpec, nrows: int, pair: RiordanPair | None = None) -> list[tuple[list[int], list[int]]]:
    """Rows n < nrows of the Bell triangle as ints (nums, dens), t[n][k] = nums[k]/dens[k]: t[n][k] =
    T(n+1, k+1), row n + 1 of _entry_rows over mu^(n+1)/lam^(k+1) = beta^(n+1) lam^(n-k), mu = lam*beta.
    Given the spec's pair (bell_pair), each row is checked against the pair's f and checked A (_recurrence_checks)."""
    rows, (_, mu, lam) = _entry_rows(spec, nrows), spec._grid
    if pair is not None:
        _recurrence_checks(pair, mu, lam, rows)
    beta, powers = mu // lam, [lam**k for k in range(nrows)]
    return [(row[1:], [b * k for k in powers[n - 1 :: -1]]) for n, row in enumerate(rows[1:], 1) for b in (beta**n,)]


def _recurrence_checks(pair: RiordanPair, mu: int, lam: int, rows: list[list[int]]) -> None:
    """Check rows 1, 2, ... of a spec's entry recurrence against its Bell pair (bell_pair) once the
    pair's A has passed its own check.  For A = alpha/den, the pair's f as the recurrence's column 1
    (every row) and f/x = A(f) at x^(n-1) (rows n < N = pair.order, the terms A holds) are, in ints,

        T'(n, 1) g.den lam = g.num[n-1] mu^n,   sum_j alpha_j mu lam^(j-1) T'(n-1, j) = den T'(n, 1).

    Raises NotRiordanBand naming the triangle row, n - 1, of the first identity that fails.  No identity
    reads the last row past T'(n, 1), nor T'(n-1, j) where A_j = 0; those entries go unchecked."""
    a, g = pair.a, pair.g
    alpha = [c * mu // lam * lam**j for j, c in enumerate(a._nums)]  # mu lam^(j-1) is beta at j = 0
    for n, (prev, row) in enumerate(zip(rows, rows[1:]), 1):
        if row[1] * g._den * lam != g._nums[n - 1] * mu**n or (
            n < pair.order and a._den * row[1] != sum(map(mul, alpha, prev))
        ):
            raise NotRiordanBand(f"the triangle fails its check against the spec's f and A at row {n - 1}")


def closed_form_f_general(a, b, c, d, rho0, order: int) -> PowerSeries:
    """f/x for the two-row array [[1, a, b], [1, c, d]] with rho = (rho0).

    The root F of (1-ax-cx^2) F = (1+x) + x(rho0 + bx + dx^2) F^2, in closed form
    (1+x)/(1-ax-cx^2) * C(x(1+x)(rho0 + bx + dx^2) / (1-ax-cx^2)^2),
    where C is the Catalan generating function.  rho0 = 0 gives the pure two-row case.
    The equation is that of the spec's grid, solved by _f_over_x.
    """
    return _f_over_x(AMatrixSpec([[1, a, b], [1, c, d]], [rho0]), order)


def perturbed_f(a, b, c, order: int) -> PowerSeries:
    """The solution u of u/x = 1 + a*u + b*u^2 + c*u^2/x.

    u = x*F for the root F of (1-ax) F = 1 + x(c + bx) F^2; in closed form
    u = x/(1-ax) * C(x(bx + c)/(1-ax)^2), also the reverse of x(1 - cx)/(1 + ax + bx^2).
    F is read off the spec [[1, a, b]] with rho = (c) by _f_over_x.
    """
    return _f_over_x(AMatrixSpec([[1, a, b]], [c]), order).mul_x().truncate(order)


def _equation_rows(spec: AMatrixSpec) -> list[tuple[int, ...]]:
    """c_p = sum_q e[p][q] y^(p+q-1), p = 0..L, as int rows, one per row of the spec's int grid e
    (AMatrixSpec._grid): E'(X, W)/y = sum_p c_p u^p at X = y*u and W = y.  For an int spec, c_0 =
    y*rho(y) - 1 and c_p = y^(p-1) * R_(p-1)(y); a repeated last row adds y*(1 - y*rho) to c_1 and
    takes y*c_(p-1) from each later c_p."""
    return [((0,) * p + row)[1:] for p, row in enumerate(spec._grid[0])]


def _a_series(spec: AMatrixSpec, order: int) -> PowerSeries:
    """A = x/fbar for the solution f of the spec, to the given order, off the rows of
    the spec's int grid (_equation_rows): no f and no reversion.  With x = fbar(y) = y*u and
    w = f(fbar) = y, E(x, w)/y is the A-matrix equation (Merlini, Rogers, Sprugnoli and
    Verri 1997, with the rho row added)

        sum_p c_p u^p = 0,

    here of the grid's root W = f(mu X)/lam, whose A' has A'_n = mu lam^(n-1) A_n.  With c_1(0) =
    e10 and each c_p (p >= 2) divisible by y, the rows as they are give _polynomial_root u = 1/A',
    which it solves over D = |c_1(0)| = |e10|.  Divided by u instead, it gives A' = -(sum_(p>=1)
    c_p u^(p-1)) / c_0 with no inverse, a Horner sum in u (L - 1 series products) over a
    polynomial: the root of the rows [acc, c_0], with acc the sum's numerators, c_0(0) = -1.  For
    L = 1 A does not read u, which is then not solved.  That root Phi/(D R^n) goes back to A by
    _over_powers (c = D beta times the Horner sum's denominator, r = R lam).
    """
    rows, (_, mu, lam) = _equation_rows(spec), spec._grid
    acc = PowerSeries._ints(rows[-1], 1)._padded(order)
    if len(rows) > 2:
        u = PowerSeries._ints(*_over_powers(*_polynomial_root(rows, order)))
        for c in reversed(rows[1:-1]):
            acc = acc * u + PowerSeries._ints(c, 1)._padded(order)
    phi, d, r = _polynomial_root([acc._nums, rows[0]], order)
    return PowerSeries._ints(*_over_powers(phi, d * acc._den * (mu // lam), r * lam))


def bell_pair(spec: AMatrixSpec, order: int) -> RiordanPair:
    """bell_from_f(f) for the f of solve_f(spec, order), whose residual ties f to the
    spec, with its A and Z read off the array and checked against A's own equation
    (_spec_checks) before it is returned: no reversion, inverse, composition or entry
    recurrence runs for them.  A is read one term longer than the pair keeps, n =
    pair.order terms.  On a Bell pair g(fbar) = x/fbar = A, so Z = (1 - g0/A)/x * A =
    (A - g0)/x, and its check (g - g0)/x = g*Z(f) = (g/F)*(A(f) - g0)/x, with g/F = 1
    below x^(n - 1) for F = f/x, is g = A(f) to n terms: one term past the A check, f/x
    = A(f) to n - 1 terms.  Raises NotRiordanBand naming the series that fails."""
    if order < 3:
        raise InsufficientTerms(f"a spec's Bell pair needs order >= 3, got {order}")
    pair = bell_from_f(solve_f(spec, order).f)
    a = _a_series(spec, pair.order)
    a_ok, z_ok = _spec_checks(spec, a)
    if not a_ok:
        raise NotRiordanBand("the A-series fails f/x = A(f)")
    if not z_ok:
        raise NotRiordanBand("the Z-series fails (g - g0)/x = g * Z(f)")
    pair.__dict__.update(a=a.truncate(pair.order - 1), z=(a - pair.g[0]).div_x())
    return pair


def _spec_checks(spec: AMatrixSpec, a: PowerSeries) -> tuple[bool, bool]:
    """(A check, Z check) of a spec's pair (bell_pair) for its A read to n = pair.order
    terms, against the A-matrix equation, in L int products.  Horner in A over the
    grid's rows (_equation_rows),

        S = (...((c_0 A + c_1) A + c_2) ...) A + c_L = sum_p c_p A^(L-p),

    is E(y/A, y) A^L / y, times (A - y)/A when the last row repeats (its grid is that of
    (1 - x) E).  The A check is A(0) = a[0][0] and [y^k] S = 0 for k < n - 1; the Z check
    takes k = n - 1 too.  On the int grid's rows beta^p c_p(lam y) and A'_k = mu lam^(k-1) A_k
    (_a_series), S is beta^L S(lam y), zero where S is.  Why that is enough:

    - c_0(0) = -1, c_1(0) = a[0][0] and c_p(0) = 0 for p >= 2, so with A(0) = a[0][0] the
      term A_k enters [y^k] S with coefficient -L a00^(L-1) + (L-1) a00^(L-1) = -a00^(L-1),
      nonzero: S = 0 fixes A one term at a time.  ([y^0] S = A(0)^(L-1) (a00 - A(0)) also
      vanishes at A(0) = 0, hence the separate A(0) check.)
    - dE/dw(0, 0) = -1 and dE/dx(0, 0) = a[0][0] != 0, so E = 0 has one branch w = f(x) and
      one branch x = h(w) through the origin; x = fbar(w) is on it, as E(fbar(w), w) =
      E(fbar(w), f(fbar(w))) = 0, so h = fbar and the A of the true f, y/fbar, solves S = 0.
    - Hence the checked terms of A are those of y/fbar, and f/x = A(f) holds to the terms
      checked, for the f that solve_f's residual ties to the same E.
    """
    if a[0] != spec.rows[0][0]:
        return False, False
    (c0, *cs), (_, mu, lam) = _equation_rows(spec), spec._grid
    n = a.order
    alpha = [c * mu // lam * lam**k for k, c in enumerate(a._nums)]  # A' = alpha / a.den
    s, scale = (c0 + (0,) * n)[:n], 1  # S = s / scale, in lowest terms after each step
    for c in cs:
        k = scale * a._den
        s, scale = _lowest([v + k * w for v, w in zip(_int_product(s, alpha), c + (0,) * n)], k)
    return not any(s[:-1]), not any(s)


def narayana_poly_coeffs(nrows: int) -> LowerTriangle:
    """Coefficient triangle of the column polynomials P_n(r) of the
    single-row family A = (1, r) with rho(x) = 1 + rx.

    Entry (n, k) is C(2n-k+1, n-k) * C(2n-k, k-1) / k for k >= 1 and
    C(2n+1, n) / (2n+1) for k = 0.
    """
    if nrows < 1:
        raise ValueError("nrows must be positive")

    def ch(n: int, k: int) -> int:
        return comb(n, k) if 0 <= k <= n else 0

    rows = []
    for n in range(nrows):
        row = [Fraction(ch(2 * n + 1, n), 2 * n + 1)]
        for k in range(1, n + 1):
            row.append(Fraction(ch(2 * n - k, k - 1) * ch(2 * n - k + 1, n - k), k))
        rows.append(row)
    return LowerTriangle(rows)


def binomial_transform_equation_check(a, b, c, order: int) -> bool:
    """Check that the binomial transform of u/x, with u = perturbed_f(a, b, c),
    satisfies v/x = (1 + a*v + b*v^2)/(1 - x) + c*v^2/x.

    The transform (binomial_transform, on u/x's ints) has OGF U(x/(1-x))/(1-x) = v/x, for
    U = u/x and v = u(x/(1-x)), with no composition; that equation is the one of the repeated-row
    spec [[1, a, b]]* with rho = (c), so v is checked by its residual (functional_equation_residual).
    """
    if order < 4:
        raise ValueError("order must be at least 4")
    spec = AMatrixSpec([[1, a, b]], [c], repeat_last_row=True)
    u = perturbed_f(a, b, c, order).div_x()
    v = binomial_transform(Sequence._ints(u._nums, u._den))
    return functional_equation_residual(spec, PowerSeries._ints(v._nums, v._den).mul_x()).is_zero()


def orthogonal_poly_coeffs(a, b, nrows: int) -> LowerTriangle:
    """Coefficient triangle of P_n(x) = (x - a) P_(n-1)(x) - b P_(n-2)(x),
    with P_0 = 1 and P_1 = x - a."""
    if nrows < 1:
        raise ValueError("nrows must be positive")
    a, b = rational(a), rational(b)
    rows = [(_ONE,)]
    if nrows > 1:
        rows.append((-a, _ONE))
    for n in range(2, nrows):
        prev, prev2 = rows[n - 1], rows[n - 2]
        row = [_ZERO] * (n + 1)
        for k, v in enumerate(prev):
            row[k + 1] += v
            row[k] -= a * v
        for k, v in enumerate(prev2):
            row[k] -= b * v
        rows.append(row)
    return LowerTriangle(rows)
