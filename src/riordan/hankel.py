"""Exact Hankel transforms, Somos-4 parameter fitting, and J-fractions.

Determinants are exact and run on one fraction-free (Bareiss) elimination
over Python ints, with the denominators cleared first.  A Hankel transform
reads every h_n off the pivots of a single elimination of its largest block
(Sylvester's identity), falling back to one elimination per later minor only
past a zero minor.  The Somos-4 fitter classifies the full linear system
over every available window instead of trusting the first two, so hidden
inconsistencies surface as data rather than wrong answers.  All functions
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .series import (
    InsufficientTerms, PowerSeries, Sequence, rational, _over_common_denominator, _ZERO
)

UNIQUE = "Unique"
FAMILY = "Family"
INCONSISTENT = "Inconsistent"
INSUFFICIENT = "InsufficientData"


def _bareiss(m: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free elimination of the int matrix m, in place: (det, minors).

    Every division is exact.  Until the first row swap the pivot at step k is
    the leading (k+1)-minor (Sylvester's identity), so minors holds the leading
    minors up to and including the first zero one, or all of them.
    """
    n = len(m)
    sign = prev = 1
    minors: list[int] = []
    for k in range(n):
        if not minors or minors[-1]:
            minors.append(m[k][k])
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0, minors
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * prev, minors


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
    return Fraction(_bareiss([ints for ints, _ in cleared])[0], prod(d for _, d in cleared))


def hankel_transform(s: Sequence, max_n: int) -> Sequence:
    """h_n = det(s[i+j]) for 0 <= i, j <= n, for n = 0..max_n.

    The 2*max_n + 1 terms are put over one common denominator d, and one
    fraction-free elimination of the whole integer block gives every
    h_n = minor_(n+1) / d**(n+1) on its pivots.  Past a zero minor the pivots
    stop being leading minors, so each later h_n eliminates its own block.
    """
    need = 2 * max_n + 1
    if len(s) < need:
        raise InsufficientTerms(f"need {need} terms for h_{max_n}, have {len(s)}")
    t, d = _over_common_denominator(s.terms[:need])
    _, minors = _bareiss([t[i : i + max_n + 1] for i in range(max_n + 1)])
    for n in range(len(minors), max_n + 1):
        minors.append(_bareiss([t[i : i + n + 1] for i in range(n + 1)])[0])
    return Sequence(tuple(Fraction(v, d ** (n + 1)) for n, v in enumerate(minors)))


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
    """Extract depth + 1 b-coefficients and depth lambdas by the Chebyshev
    algorithm on the normalized moments m_l = s_l / s_0 (Gautschi 2004), in
    O(depth**2) steps; stops early (terminated=True) when a lambda vanishes.
    From sigma_(-1,l) = 0 and sigma_(0,l) = m_l, level k >= 1 has

        sigma_(k,l) = sigma_(k-1,l+1) - b_(k-1) sigma_(k-1,l) - lam_(k-1) sigma_(k-2,l),
        lam_k = sigma_(k,k) / sigma_(k-1,k-1),
        b_k = sigma_(k,k+1) / sigma_(k,k) - sigma_(k-1,k) / sigma_(k-1,k-1).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if s.terms[0] == 0:
        raise ValueError("the leading term must be nonzero")
    need = 2 * depth + 2
    if len(s) < need:
        raise InsufficientTerms(f"depth {depth} needs {need} terms, have {len(s)}")
    prev = [_ZERO] * need  # sigma_(k-2, .)
    cur = [rational(v) / s.terms[0] for v in s.terms[:need]]  # sigma_(k-1, .)
    bs: list[Fraction] = [cur[1]]
    lams: list[Fraction] = []
    lam = _ZERO  # lam_0 multiplies sigma_(-1, .) = 0
    for k in range(1, depth + 1):
        nxt = [_ZERO] * need
        for l in range(k, need - k):
            nxt[l] = cur[l + 1] - bs[-1] * cur[l] - lam * prev[l]
        lam = nxt[k] / cur[k - 1]
        lams.append(lam)
        if lam == 0:
            return JFraction(tuple(bs), tuple(lams), terminated=True)
        bs.append(nxt[k + 1] / nxt[k] - cur[k] / cur[k - 1])
        prev, cur = cur, nxt
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
