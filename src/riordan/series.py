"""Exact truncated formal power series and sequences over rationals.

A :class:`PowerSeries` is a coefficient vector together with an explicit
truncation order (the number of retained coefficients).  Mixed-order
arithmetic always truncates to the smaller operand's order, so precision is
visible in the value itself and never silently invented.  A series and
a :class:`Sequence` share one store, ``_Stored``: int numerators over one
positive denominator in lowest terms (``_lowest``), so equality is int
comparison and arithmetic builds no ``Fraction`` per value.  Values are
returned as ``fractions.Fraction`` (the ``coeffs`` or ``terms`` view, built
on first read; indexing reads one), and floats and bools are rejected at
the boundary.  Denominators are cleared once, where ``Fraction``s enter, in
the constructor; the baby powers of a composition or reversion go over the
lcm of their stored denominators (``_over_lcm``), and a sequence's prefix goes
over the lcm of its own denominators with one gcd (``Sequence._cleared``),
which is how the Hankel layer reads it.  A product packs each operand into one
big int (Kronecker substitution) so a single big-int multiply does the work,
a quotient is a Newton inverse built from such products, and a root of a
polynomial equation (:func:`catalan_of`, ``sqrt``, and a spec's f and reverse,
the closed forms among them) follows from one int coefficient recurrence,
``_polynomial_root``: it takes its callers' int rows and is the one place that
picks the scale D of the root's terms.  Composition (Brent and Kung's
baby-step/giant-step) and reversion (Johansson's baby-step/giant-step Lagrange
inversion) each take about 2*sqrt(n) such products at order n, plus O(n**2)
int multiply-adds, where Horner and a running product take n - 1.
Newton steps and compositions form each product only to the terms that are
read from it.

Everything here is an immutable value and every operation is a pure
function, so series can be shared freely between concurrent workers.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd, isqrt, lcm
from operator import mul


class SeriesError(ValueError):
    pass


class InsufficientTerms(SeriesError):
    """Too few retained terms, or too low an order, for the requested depth."""


class DivisionByNonUnit(SeriesError):
    """Series division needs a divisor with nonzero constant term."""


class CompositionRequiresZeroConstantTerm(SeriesError):
    """outer(inner) is defined only when inner has no constant term."""


class NotRevertible(SeriesError):
    """Compositional reversion needs f(0) = 0 and f'(0) != 0."""


class NonSquareConstantTerm(SeriesError):
    """Square roots are supported only for nonzero rational-square constant terms."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    A string must be an ASCII integer or 'p/q' (ValueError otherwise, so no
    decimal or exponent form asks for unbounded work).  ``bool`` is refused
    although it subclasses ``int``, so a JSON ``true`` never passes for 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        m = _P_OVER_Q.fullmatch(value)
        if m is None:
            raise ValueError(f"not an integer or 'p/q' string: {value.strip()[:40]!r}")
        p, q = (int(Decimal(s)) for s in m.groups("1"))  # no digit cap, unlike int(s)
        if q == 0:
            raise ZeroDivisionError(f"zero denominator in {value.strip()[:40]!r}")
        return Fraction(p, q)
    raise TypeError(f"not an exact rational: {type(value).__name__} {_SHORT_REPR.repr(value)}")


_P_OVER_Q = re.compile(r"\s*([-+]?\d+)(?:/(\d+))?\s*", re.ASCII)


def integer_values(values, what: str) -> list[int]:
    """The values as ints; raises ValueError at the first non-integral one."""
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValueError(f"non-integer {what} {v}")
        out.append(v.numerator)
    return out


def _int_text(n: int) -> str:
    """str(n) where CPython's cap on int-to-str digits lets it, and past the cap,
    where str raises ValueError, str(Decimal(n)), which has no cap."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_rational(value: Fraction | int) -> str:
    """Render integers bare and proper fractions as 'p/q', at any length (_int_text)."""
    return _ratio_text(value.numerator, value.denominator)


def _ratio_text(p: int, q: int) -> str:
    """p/q in lowest terms, as 'p' or 'p/q' with the sign on p, for ints p and
    q != 0 at any length (_int_text): one gcd and no Fraction."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    p, q = p // g, q // g
    return _int_text(p) if q == 1 else f"{_int_text(p)}/{_int_text(q)}"


def _texts(nums, den: int) -> list[str]:
    """format_rational(Fraction(c, den)) for each int c of nums over the int den > 0,
    built from the ints (a series' _nums and _den, say) with no Fraction."""
    if den != 1:
        return [_ratio_text(c, den) for c in nums]
    try:
        return list(map(str, nums))
    except ValueError:  # past the digit cap
        return list(map(_int_text, nums))


class _ShortRepr(reprlib.Repr):
    """reprlib's capped repr for error messages, with no digit cap (_int_text)."""

    def repr_int(self, x, level):
        s = _int_text(x)
        return s if len(s) <= self.maxlong else f"{s[:18]}...{s[-19:]}"


_SHORT_REPR = _ShortRepr()


def _exact_repr(value) -> str:
    """repr of a value whose Fractions, also inside (nested) tuples and
    dataclasses (their repr=True fields, as a generated repr shows them), may
    exceed CPython's cap on int-to-str digits; it is those dataclasses' repr."""
    if isinstance(value, tuple):
        items = ", ".join(map(_exact_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    if isinstance(value, Fraction):
        return f"Fraction({Decimal(value.numerator)}, {Decimal(value.denominator)})"
    if is_dataclass(type(value)):
        items = ", ".join(f"{f.name}={_exact_repr(getattr(value, f.name))}" for f in fields(value) if f.repr)
        return f"{type(value).__qualname__}({items})"
    return repr(value)


def _exact_values(values) -> list[int | Fraction]:
    """The values as exact numbers: ints as they are, anything else through rational."""
    return [v if type(v) is int else rational(v) for v in values]


def _over_common_denominator(values) -> tuple[list[int], int]:
    """(nums, d) with values[i] == nums[i] / d and d the lcm of the denominators."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _lowest(nums, den: int) -> tuple[tuple[int, ...], int]:
    """The ints nums over den > 0 in lowest terms, gcd(den, *nums) == 1: how a series
    and a sequence store their values.  On a prefix of stored ints it is that prefix
    over the lcm of its own denominators, _over_common_denominator's form."""
    g = gcd(den, *nums)
    return (tuple(nums), den) if g == 1 else (tuple(c // g for c in nums), den // g)


def _int_product(a: list[int], b: list[int]) -> list[int]:
    """The first len(a) coefficients of a*b, for int lists of one length.

    Kronecker substitution: both operands are packed into big ints at a byte width w
    that holds every product coefficient (|c| <= len(a)*max|a|*max|b| < h = 2**(8w-1)), so
    one big-int multiply gives them all.  Each slot is packed biased, as v + h in 0..2**(8w),
    with one ``to_bytes`` per coefficient; the bias of every slot, K, is taken off each
    operand and put back on the product, whose low slots are then the unsigned digits c + h.
    Equal operands are packed once and squared.
    """
    n, square = len(a), a == b
    bound = n * max(map(abs, a)) * max(map(abs, b))
    if bound == 0:
        return [0] * n
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")  # K: h in every slot
    pa = _pack(a, width, half) - bias
    raw = (pa * pa if square else pa * (_pack(b, width, half) - bias)) + bias
    raw = (raw & ((1 << (8 * width * n)) - 1)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, width * n, width)]


def _pack(values: list[int], width: int, half: int) -> int:
    """sum (values[i] + half) * 256**(width*i), for |values[i]| < half = 2**(8*width-1)."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, map(half.__add__, values), repeat(width), repeat("little"))), "little"
    )


def _over_lcm(series) -> tuple[list[list[int]], int]:
    """(rows, d): each series' numerators as an int row over d, the lcm of their denominators."""
    d = lcm(*[s._den for s in series])
    return [list(map((d // s._den).__mul__, s._nums)) for s in series], d


class _Substitution:
    """outer -> outer(inner) mod x**n for one inner series, by the composition
    of PowerSeries.compose: inner's baby powers, as int columns over one
    common denominator, and its giant step are built once (m - 1 series
    products) and serve every outer."""

    __slots__ = ("n", "_columns", "_den", "_giant")

    def __init__(self, inner: PowerSeries, n: int):
        if inner._nums[0] != 0:
            raise CompositionRequiresZeroConstantTerm(
                "inner series has nonzero constant term"
            )
        if not 1 <= n <= inner.order:
            raise InsufficientTerms(f"order {n} needs 1..{inner.order}, the inner series' order")
        m = isqrt(n - 1) + 1
        powers = [inner.truncate(n).div_x()] if n > 1 else []  # u**i to n - i terms, up to u**m
        for i in range(2, min(m, n - 1) + 1):
            powers.append(powers[-1].truncate(n - i) * powers[0])
        baby, d = _over_lcm(powers[: m - 1])
        rows = [[d] + [0] * (n - 1)] + [[0] * i + r for i, r in enumerate(baby, 1)]
        self.n, self._columns, self._den = n, list(zip(*rows)), d
        self._giant = powers[-1] if len(powers) == m else None  # read only when n > m

    def __call__(self, outer: PowerSeries) -> PowerSeries:
        """outer(inner) to order n; outer needs order >= n."""
        n, columns = self.n, self._columns
        if outer.order < n:
            raise InsufficientTerms(f"composing to order {n} needs an outer series of order >= {n}")
        c, m, d = outer._nums[:n], len(columns[0]), self._den * outer._den
        blocks = [
            PowerSeries._ints([sum(map(mul, c[j : j + m], col)) for col in columns[: n - j]], d)
            for j in range(0, n, m)
        ]
        acc = blocks.pop()
        while blocks:
            acc = (acc * self._giant)._shift(m) + blocks.pop()
        return acc


class _Stored:
    """Exact values stored as int numerators over one positive denominator with
    gcd(den, *nums) == 1 (_lowest), cleared once, when the value is built.  The
    ``Fraction`` view (a series' ``coeffs``, a sequence's ``terms``) is built when
    first read; an int index reads one value and a slice reads the view."""

    __slots__ = ("_nums", "_den", "_view")

    def __init__(self, coeffs):
        """coeffs: ints, Fractions or 'p/q' strings (a Sequence names them terms)."""
        self._store(*_over_common_denominator(_exact_values(coeffs)))

    @classmethod
    def _ints(cls, nums, den: int):
        """The value nums / den, for int nums and a positive int den."""
        s = object.__new__(cls)
        s._store(nums, den)
        return s

    def _store(self, nums, den: int) -> None:
        if len(nums) == 0:
            raise SeriesError(f"a {type(self).__name__} needs at least one value")
        self._nums, self._den = _lowest(nums, den)
        self._view = None

    @property
    def _values(self) -> tuple[Fraction, ...]:
        """The Fraction view, built when first read; Fraction(c) takes no gcd."""
        if self._view is None:
            nums, den = self._nums, self._den
            self._view = tuple(map(Fraction, nums)) if den == 1 else tuple(Fraction(c, den) for c in nums)
        return self._view

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._values[i]
        return Fraction(self._nums[i]) if self._den == 1 else Fraction(self._nums[i], self._den)

    def prefix(self, n: int) -> tuple[Fraction, ...]:
        """The first n values, for 0 <= n <= their count."""
        if n < 0:
            raise SeriesError(f"negative length {n}")
        if n > len(self._nums):
            raise InsufficientTerms(f"only {len(self._nums)} values retained, asked for {n}")
        return self._values[:n]

    def integers(self, n: int | None = None) -> list[int]:
        """The first n values (all by default) as ints; raises if any is non-integral."""
        return integer_values(self._values if n is None else self.prefix(n), "value")


class PowerSeries(_Stored):
    """A power series known modulo x**order, where order = len(coeffs), on the
    one store (_Stored); ``coeffs`` is its ``Fraction`` view."""

    __slots__ = ()

    coeffs = _Stored._values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"PowerSeries(coeffs={_exact_repr(self.coeffs)})"

    # -- construction --------------------------------------------------

    @classmethod
    def of(cls, values, order: int | None = None) -> PowerSeries:
        """Series from explicit coefficients, padded with exact zeros.

        Padding is sound only because the given values are meant to be a
        polynomial (exactly known at every order); ``order`` below the
        value count trims the tail instead.
        """
        vals = _exact_values(values)
        if order is not None:
            if order < 1:
                raise SeriesError("order must be positive")
            vals = vals[:order] + [0] * (order - len(vals))
        return cls._ints(*_over_common_denominator(vals or [0]))

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls.of([], order)

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.of([1], order)

    @classmethod
    def x(cls, order: int) -> PowerSeries:
        return cls.of([0, 1], order)

    # -- inspection -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not any(self._nums)

    # -- reshaping ------------------------------------------------------

    def truncate(self, order: int) -> PowerSeries:
        if not 1 <= order <= self.order:
            raise SeriesError(f"order {order} needs 1..{self.order}: a truncation cannot extend a series")
        return PowerSeries._ints(self._nums[:order], self._den)

    def _padded(self, order: int) -> PowerSeries:
        """self with exact zeros up to the given order: a Newton step's start."""
        return PowerSeries._ints(self._nums + (0,) * (order - self.order), self._den)

    def mul_x(self) -> PowerSeries:
        """Multiply by x; exact, so the order grows by one."""
        return self._shift(1)

    def _shift(self, k: int) -> PowerSeries:
        """x**k * self; exact, so the order grows by k."""
        return PowerSeries._ints((0,) * k + self._nums, self._den)

    def _partial_sums(self) -> PowerSeries:
        """self / (1 - x): the running sums of the coefficients, with no series product."""
        return PowerSeries._ints(list(accumulate(self._nums)), self._den)

    def div_x(self) -> PowerSeries:
        """Divide by x; needs a zero constant term, order shrinks by one."""
        if self._nums[0] != 0:
            raise SeriesError("div_x needs a zero constant term")
        if self.order == 1:
            raise SeriesError("no coefficients would remain")
        return PowerSeries._ints(self._nums[1:], self._den)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rational(other)
            other = PowerSeries._ints((q.numerator,) + (0,) * (self.order - 1), q.denominator)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        d = lcm(self._den, other._den)
        ka, kb = d // self._den, d // other._den
        return PowerSeries._ints([a * ka + b * kb for a, b in zip(self._nums, other._nums)], d)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries._ints([-c for c in self._nums], self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-rational(other))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rational(other)
            return PowerSeries._ints([c * q.numerator for c in self._nums], self._den * q.denominator)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries._ints(_int_product(self._nums[:n], other._nums[:n]), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self times other's Newton inverse, to the smaller order."""
        if isinstance(other, (int, Fraction)):
            q = rational(other)
            if q == 0:
                raise DivisionByNonUnit("division by zero scalar")
            return self * (1 / q)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self * other.truncate(n)._inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._inverse() * other
        return NotImplemented

    def _inverse(self) -> PowerSeries:
        """1/self by Newton iteration from g = 1/self(0), doubling g's exact terms.

        With g exact to k terms and n = min(2k, order), self*g = 1 + x**k * e
        mod x**n, and g <- g - x**k * (g*e) mod x**n.  The step forms self*g to
        n terms and g*e to the n - k new ones.
        """
        if self._nums[0] == 0:
            raise DivisionByNonUnit("divisor has zero constant term")
        c0 = self._nums[0]
        g = PowerSeries._ints((self._den if c0 > 0 else -self._den,), abs(c0))
        while (k := g.order) < self.order:
            g = g._padded(min(2 * k, self.order))
            r = self * g
            g = g - (g * PowerSeries._ints(r._nums[k:], r._den))._shift(k)
        return g

    # -- composition, reversion, square root -----------------------------

    def compose(self, inner: PowerSeries) -> PowerSeries:
        """outer(inner(x)) to the smaller order n, by Brent and Kung's
        baby-step/giant-step composition.

        With m = ceil(sqrt(n)) and G = inner**m, outer(inner) is
        sum_j B_j * G**(j/m) for the blocks B_j = sum_(i<m) c[j + i] * inner**i
        (j = 0, m, 2m, ...).  Each block is an int dot product over one common
        denominator, formed to the n - j terms that B_j * G**(j/m) keeps, and
        the sum is Horner's rule in G, acc <- x**m * (acc * G/x**m) + B_j, whose
        product forms the n - j - m terms below x**n.  With the powers
        inner**i = x**i * (inner/x)**i, (inner/x)**i formed to n - i terms
        (:class:`_Substitution`), the whole takes about 2*sqrt(n) series
        products: m - 1 for the powers and ceil(n/m) - 1 for Horner.
        """
        return _Substitution(inner, min(self.order, inner.order))(self)

    def revert(self) -> PowerSeries:
        """Compositional reverse: the series fbar with self(fbar(x)) = x.

        Lagrange inversion, [x^e] fbar = [x^(e-1)] h**e / e with h = x/f, by
        Johansson's baby-step/giant-step: with m = ceil(sqrt(n - 1)) and
        e = j*m + i (i < m), each coefficient is one int dot product of h**i
        against (h**m)**j.  Beyond the Newton inverse h, that is about
        2*sqrt(n) series products.
        """
        if self._nums[0] != 0 or self.order < 2 or self._nums[1] == 0:
            raise NotRevertible("need f(0) = 0 and f'(0) != 0 with order >= 2")
        n = self.order
        h = 1 / self.div_x()
        m = isqrt(n - 2) + 1
        powers = list(accumulate([h] * m, mul))  # h**1..h**m by a running product
        big = powers.pop()
        baby, d = _over_lcm(powers)
        baby = [[d] + [0] * (n - 2)] + baby
        terms = [(0, 1)]  # (numerator, denominator) of each coefficient
        giant = PowerSeries._ints(baby[0], d)  # (h**m)**0
        for j in range(0, n, m):
            g, dg = giant._nums, giant._den
            for e in range(max(j, 1), min(j + m, n)):
                terms.append((sum(map(mul, baby[e - j][:e], g[e - 1 :: -1])), d * dg * e))
            if j + m < n:
                giant = giant * big if j else big
        den = lcm(*[t for _, t in terms])
        return PowerSeries._ints([s * (den // t) for s, t in terms], den)

    def sqrt(self) -> PowerSeries:
        """The square root with positive constant term.

        Only nonzero rational-square constant terms are supported.  With self =
        t0**2 + x*s/den (s, den its stored ints) and t0 = rn/rd, the root is t0 + x*w for
        w with 2*rn*(den/rd)*w = s - den*x*w**2 (rd**2 divides den), by _polynomial_root
        to self's order: one term more than needed, so order 1 is no case of its own.
        """
        c0 = self[0]
        if c0 <= 0:
            raise NonSquareConstantTerm(f"constant term {c0} has no usable square root")
        rn, rd = isqrt(c0.numerator), isqrt(c0.denominator)
        if (rn * rn, rd * rd) != (c0.numerator, c0.denominator):
            raise NonSquareConstantTerm(f"constant term {c0} is not a rational square")
        w = _polynomial_root(self._nums[1:], [2 * rn * self._den // rd], [[0, -self._den]], self.order)
        return w.mul_x().truncate(self.order) + Fraction(rn, rd)


def rational_series(num, den, order: int) -> PowerSeries:
    """Expansion of the rational function num(x)/den(x) to the given order."""
    return PowerSeries.of(num, order) / PowerSeries.of(den, order)


def _polynomial_root(lead, den, qs, order: int) -> PowerSeries:
    """The series F with den*F = lead + sum_(k=2..K) q_k*F**k, for qs = [q_2, ..., q_K],
    to the given order.

    lead, den and each q_k are int lists read as polynomials, zero past their length, with
    den[0] != 0 and q_k[0] = 0, so [x^n](q_k*F**k) involves only F_0..F_(n-1): the terms
    follow one at a time off the running powers F**2..F**K, O(K*order**2) int products.
    Divided by g, the gcd of all their ints signed as den[0], the rows L, E, Q_k give the
    least scale D = E_0 that clears the equation over den[0], and the integers
    Phi_n = F_n*D**(K*n+1) and P_(k,m) = [x^m](F**k)*D**(K*m+k) (P_1 = Phi) satisfy

        Phi_n = L_n*D**(K*n) + sum_(j>=1, k=1..K) Q_(k,j)*D**(K*j-k)*P_(k,n-j)

    with Q_1 = -E.  Every term of that sum is one int dot product of the scaled
    coefficients, j-major with k falling, against the reversed history of
    (P_(1,m), ..., P_(K,m)) for m < n.  At D = 1 every D-power is 1 and none is formed.
    """
    if order < 1:
        raise SeriesError("order must be positive")
    g = gcd(*den, *lead, *[c for q in qs for c in q]) * (1 if den[0] > 0 else -1)
    if g != 1:  # the rows over their content, with den[0] > 0
        lead, den, qs = [c // g for c in lead], [c // g for c in den], [[c // g for c in q] for q in qs]
    d = den[0]
    polys = list(enumerate([[-c for c in den], *qs], 1))[::-1]
    width = min(order, max(len(p) for _, p in polys))
    # Q_(k,j)*D**(K*j-k) for j = 1, 2, ... and, within each j, k = K..1: the order of the reversed history
    if d == 1:
        coef = [p[j] if j < len(p) else 0 for j in range(1, width) for _, p in polys]
        base = list(lead[:order])
    else:
        scale = [d ** (len(polys) * n) for n in range(order)]
        coef = [p[j] * scale[j] // d**k if j < len(p) else 0 for j in range(1, width) for k, p in polys]
        base = [c * s for c, s in zip(lead, scale)]
    base += [0] * (order - len(base))
    phi, history = [], []
    powers = [phi] + [[] for _ in qs]
    chain = list(zip(powers, powers[1:]))  # P_k = P_(k-1) * Phi
    for b in base:
        t = b + sum(map(mul, coef, reversed(history)))
        phi.append(t)
        history.append(t)
        for below, p in chain:
            v = sum(map(mul, below, reversed(phi)))
            p.append(v)
            history.append(v)
    if d == 1:
        return PowerSeries._ints(phi, 1)
    return PowerSeries._ints([c * k for c, k in zip(phi, reversed(scale))], d * scale[-1])


def catalan_of(u: PowerSeries) -> PowerSeries:
    """C(u), the solution y of y = 1 + u*y**2, to u's order (by _polynomial_root)."""
    if u._nums[0] != 0:
        raise CompositionRequiresZeroConstantTerm("u has a nonzero constant term")
    return _polynomial_root([u._den], [u._den], [u._nums], u.order)


def catalan(order: int) -> PowerSeries:
    """Generating function of the Catalan numbers: the solution of c = 1 + x*c**2."""
    return catalan_of(PowerSeries.x(order))


class Sequence(_Stored):
    """A finite run of exact terms; offset records the index of the first one.

    Stored as a PowerSeries is (_Stored); ``terms`` is the ``Fraction`` view.
    """

    __slots__ = ("offset",)

    def __init__(self, terms, offset: int = 0):
        super().__init__(terms)
        self.offset = offset

    @classmethod
    def _ints(cls, nums, den: int, offset: int = 0) -> Sequence:
        """The sequence nums / den from index offset, for int nums and a positive int den."""
        s = super()._ints(nums, den)
        s.offset = offset
        return s

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.offset == other.offset and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den, self.offset))

    def __repr__(self):
        return f"Sequence(terms={_exact_repr(self.terms)}, offset={self.offset!r})"

    @classmethod
    def of(cls, values, offset: int = 0) -> Sequence:
        return cls(values, offset)

    terms = _Stored._values

    def _cleared(self, n: int) -> tuple[tuple[int, ...], int]:
        """(nums, d): the first n terms as ints over d, the lcm of their own
        denominators, by one gcd (_lowest)."""
        return _lowest(self._nums[:n], self._den)

    def __len__(self) -> int:
        return len(self._nums)


def binomial_transform(seq: Sequence) -> Sequence:
    """t_n = sum_k C(n, k) s_k, computed exactly, on the stored ints."""
    nums = seq._nums
    terms = [sum(comb(n, k) * c for k, c in enumerate(nums[: n + 1])) for n in range(len(nums))]
    return Sequence._ints(terms, seq._den, seq.offset)
