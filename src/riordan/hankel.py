"""Exact Hankel transforms, Somos-4 parameter fitting, and J-fractions.

Hankel minors and J-fraction coefficients both come from one integer
Chebyshev recurrence over the terms on one common denominator, O(D**2) exact
int operations for D levels, which steps across an isolated zero minor; a
Hankel transform falls back to one Bareiss elimination per minor only past
two consecutive zero minors, and exact_det is Bareiss.  The
Somos-4 fitter classifies the full linear system over every available window
instead of trusting the first two, so hidden inconsistencies surface as data
rather than wrong answers.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .series import (
    InsufficientTerms, PowerSeries, Sequence, rational, _over_common_denominator
)

UNIQUE = "Unique"
FAMILY = "Family"
INCONSISTENT = "Inconsistent"
INSUFFICIENT = "InsufficientData"


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the int matrix m by fraction-free elimination, in place.

    Every division is exact.
    """
    n = len(m)
    sign = prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * prev


def _chebyshev(t: list[int]):
    """Yield (H_k, sigma_(k,k+1)) for k = 0, 1, ... over the ints t_0..t_(L-1),
    up to the first of two consecutive zero minors H_k = H_(k+1) = 0;
    sigma_(k,k+1) is None where t is too short.

    sigma_(k,l) is det of the Hankel rows 0..k-1 of t over columns 0..k plus
    the row (t_l, ..., t_(l+k)), so sigma_(k,k) = H_k and sigma_(0,l) = t_l:
    the Chebyshev algorithm (Gautschi 2004, 2.1.7) with sigma_k scaled by
    H_(k-1).  From H_(-1) = 1 and sigma_(-1,.) = 0, with every division exact,
        c = H_(k-1) sigma_(k,k+1) - H_k sigma_(k-1,k),
        sigma_(k+1,l) = (H_k H_(k-1) sigma_(k,l+1) - c sigma_(k,l) - H_k^2 sigma_(k-1,l)) / H_(k-1)^2.
    At a zero H_k (with H_(k-1) != 0) the step looks ahead two levels, from
    P_(k+2) ~ (alpha x^2 + beta x + gamma) P_k + delta P_(k-1) orthogonal to
    x^(k-1), x^k and x^(k+1).  With g = H_(k-1), s_i = sigma_(k,k+i) and
    u_i = sigma_(k-1,k-1+i), again with every division exact,
        sigma_(k+1,k+1+i) = -s_1 s_(i+1) / g, so H_(k+1) = -s_1^2 / g,
        sigma_(k+2,k+2+i) = -(alpha s_(i+4) + beta s_(i+3) + gamma s_(i+2) + delta u_(i+3)) / g^3,
        e = g s_2 - s_1 u_1, alpha = g s_1^2, beta = -s_1 e,
        gamma = s_2 e + s_1^2 u_2 - g s_1 s_3, delta = -s_1^3,
    and the plain step resumes from levels k+1 and k+2.  H_(k+1) is zero
    exactly when s_1 is, and there the recurrence stops.
    """
    h_prev, prev = 1, [0] * len(t)  # H_(k-1) and sigma_(k-1, k-1+i) at index i
    cur = list(t)  # sigma_(k, k+i) at index i
    while True:
        h = cur[0]
        yield h, cur[1] if len(cur) > 1 else None
        if len(cur) < 3:
            return
        if h:
            c = h_prev * cur[1] - h * prev[1]
            a, b, q = h * h_prev, h * h, h_prev * h_prev
            prev, cur = cur, [(a * cur[i + 2] - c * cur[i + 1] - b * prev[i + 2]) // q for i in range(len(cur) - 2)]
            h_prev = h
            continue
        g, s, u = h_prev, cur, prev
        if s[1] == 0:
            return
        prev = [-s[1] * v // g for v in s[1:-1]]
        h_prev = prev[0]
        yield h_prev, prev[1] if len(prev) > 1 else None
        if len(s) < 5:
            return
        e = g * s[2] - s[1] * u[1]
        alpha, beta, delta = g * s[1] * s[1], -s[1] * e, -s[1] ** 3
        gamma = s[2] * e + s[1] * s[1] * u[2] - g * s[1] * s[3]
        q = g**3
        cur = [
            -(alpha * s[i + 4] + beta * s[i + 3] + gamma * s[i + 2] + delta * u[i + 3]) // q
            for i in range(len(s) - 4)
        ]


def _minors(t, max_n: int) -> list[int]:
    """The leading Hankel minors H_0..H_max_n of the ints t_0..t_(2 max_n), from
    the Chebyshev recurrence (_chebyshev), with one Bareiss elimination per
    minor past two consecutive zero minors, where the recurrence stops."""
    t = list(t[: 2 * max_n + 1])
    minors = [h for h, _ in _chebyshev(t)]
    for n in range(len(minors), max_n + 1):
        minors.append(_bareiss([t[i : i + n + 1] for i in range(n + 1)]))
    return minors


def exact_det(matrix) -> Fraction:
    """Exact determinant of a square matrix of rationals (or ints).

    Each row is scaled by the lcm of its denominators, Bareiss runs on the
    resulting ints, and the product of the scales is divided back out.
    """
    rows = [[rational(v) for v in row] for row in matrix]
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    cleared = [_over_common_denominator(row) for row in rows]
    return Fraction(_bareiss([ints for ints, _ in cleared]), prod(d for _, d in cleared))


def hankel_transform(s: Sequence, max_n: int) -> Sequence:
    """h_n = det(s[i+j]) for 0 <= i, j <= n, for n = 0..max_n.

    The 2*max_n + 1 terms are put over one common denominator d, and the
    integer minors (_minors) give every h_n = H_n / d**(n+1) in O(max_n**2)
    int operations.  The recurrence steps across an isolated zero minor;
    only past two consecutive zero minors, where it stops, does each later
    h_n eliminate its own block (Bareiss).
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    need = 2 * max_n + 1
    if len(s) < need:
        raise InsufficientTerms(f"need {need} terms for h_{max_n}, have {len(s)}")
    t, d = _over_common_denominator(s.terms[:need])
    return Sequence(tuple(Fraction(v, d ** (n + 1)) for n, v in enumerate(_minors(t, max_n))))


@dataclass(frozen=True)
class SomosFitResult:
    """Classification of the window equations s_n s_(n-4) = alpha s_(n-1) s_(n-3) + beta s_(n-2)^2.

    kind is one of Unique, Family, Inconsistent, InsufficientData.  For
    Unique the pair (alpha, beta) satisfies every window exactly; Family
    carries the single normalized constraint p*alpha + q*beta = r; an
    Inconsistent fit reports the smallest window index with no solution.
    """

    kind: str
    alpha: Fraction | None = None
    beta: Fraction | None = None
    family_description: tuple[Fraction, Fraction, Fraction] | None = None
    failing_index: int | None = None


def _normalize_line(p: Fraction, q: Fraction, r: Fraction):
    lead = p if p != 0 else q
    return (p / lead, q / lead, r / lead)


def _somos_windows(t):
    """Lazily yield (n, p, q, r) = (n, t_(n-1) t_(n-3), t_(n-2)^2, t_n t_(n-4))
    for n >= 4; window n holds when r = alpha * p + beta * q."""
    for n in range(4, len(t)):
        yield n, t[n - 1] * t[n - 3], t[n - 2] * t[n - 2], t[n] * t[n - 4]


def somos_fit(h: Sequence) -> SomosFitResult:
    """Fit (alpha, beta) over every window of h, classifying the system.

    Windows whose coefficient row and right side are all zero constrain
    nothing and are skipped.  Fewer than two window equations in total is
    reported as InsufficientData rather than an error.
    """
    t = h.terms
    if len(t) < 6:
        return SomosFitResult(INSUFFICIENT)
    line: tuple[Fraction, Fraction, Fraction] | None = None
    point: tuple[Fraction, Fraction] | None = None
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
        alpha = (r0 * q - r * q0) / cross
        beta = (p0 * r - p * r0) / cross
        point = (alpha, beta)
    if point is not None:
        return SomosFitResult(UNIQUE, alpha=point[0], beta=point[1])
    if line is not None:
        return SomosFitResult(FAMILY, family_description=_normalize_line(*line))
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


def somos_verify(s: Sequence, alpha, beta) -> bool:
    """Product-form check s_n s_(n-4) = alpha s_(n-1) s_(n-3) + beta s_(n-2)^2
    for every available n >= 4; tolerant of zero terms."""
    if len(s) < 5:
        raise ValueError("need at least five terms")
    alpha, beta = rational(alpha), rational(beta)
    return all(alpha * p + beta * q == r for _, p, q, r in _somos_windows(s.terms))


@dataclass(frozen=True)
class JFraction:
    """Coefficients of 1/(1 - b0 x - lam1 x^2/(1 - b1 x - lam2 x^2/(...))).

    The input series is normalized by its constant term first.  A continued
    fraction written with +x^2 numerators corresponds to negative lam here.
    terminated means extraction stopped because a lam vanished.
    """

    b: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]
    terminated: bool = False


def jfraction(s: Sequence, depth: int) -> JFraction:
    """Extract depth + 1 b-coefficients and depth lambdas from the integer
    Chebyshev recurrence (_chebyshev) on the moments over one common
    denominator, in O(depth**2) int operations; stops early (terminated=True)
    when a lambda vanishes.  With H_(-2) = H_(-1) = 1 and sigma_(-1,0) = 0,

        lam_k = H_k H_(k-2) / H_(k-1)^2,
        b_k = sigma_(k,k+1) / H_k - sigma_(k-1,k) / H_(k-1).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if s.terms[0] == 0:
        raise ValueError("the leading term must be nonzero")
    need = 2 * depth + 2
    if len(s) < need:
        raise InsufficientTerms(f"depth {depth} needs {need} terms, have {len(s)}")
    bs: list[Fraction] = []
    lams: list[Fraction] = []
    h1 = h2 = 1  # H_(k-1), H_(k-2)
    s1 = 0  # sigma_(k-1,k)
    t, _ = _over_common_denominator(s.terms[:need])
    for h, sk in _chebyshev(t):
        if bs:
            lams.append(Fraction(h * h2, h1 * h1))
            if h == 0:
                return JFraction(tuple(bs), tuple(lams), terminated=True)
        bs.append(Fraction(h1 * sk - h * s1, h * h1))
        h2, h1, s1 = h1, h, sk
    return JFraction(tuple(bs), tuple(lams), terminated=False)


def jfraction_series(jf: JFraction, order: int) -> PowerSeries:
    """Rebuild the continued fraction as a power series of the given order."""
    if not jf.b:
        return PowerSeries.one(order)
    t = PowerSeries.one(order)
    for k in range(len(jf.b) - 1, -1, -1):
        den = PowerSeries.of([1, -jf.b[k]], order)
        if k < len(jf.lam) and jf.lam[k] != 0:
            den = den - (t * jf.lam[k]).mul_x().mul_x().truncate(order)
        t = 1 / den
    return t
