"""Exact Hankel transforms, Somos-4 parameter fitting, and J-fractions.

Hankel minors and J-fraction coefficients both come from one Chebyshev
recurrence on monic rows, ints over a denominator known before each row is
formed: one exact division a row and no gcd over its entries, with row sizes
that follow the J-fraction rather than the minors; one pass (_chebyshev)
gives both.  Where the step's leading scalar divides out and its row needs no
division (every level of an integral J-fraction), a row entry takes one
multiply fewer.  A block step
carries it across every run of zero minors; exact_det is Bareiss.  The
Somos-4 fitter classifies the full linear system, on ints, over every
available window instead of trusting the first two, so hidden
inconsistencies surface as data rather than wrong answers.  All functions
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm, prod
from operator import mul

from .series import (
    InsufficientTerms, PowerSeries, Sequence, rational, _exact_repr, _over_common_denominator
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


def _monic_rows(t: list[int]):
    """Yield (H_k, row_k, D_k) for k = 0, 1, ... over the ints t_0..t_(L-1).

    The Chebyshev algorithm (Gautschi 2004, 2.1.7) on monic rows, with the
    block step of formal orthogonal polynomials (Draux 1983) across zero
    minors.  Row K is <P_K, x^(K+i)> = r_i / D_K, ints over D_K > 0, for the
    monic orthogonal polynomial P_K (H_(K-1) != 0); row 0 is t over 1.  The
    previous row v is read from x^(K-1), row -1 as (1, 0, 0, ...).  With
    r_(j-1) the first nonzero entry of r, H_K .. H_(K+j-2) = 0 and
        H_(K+j-1) = (-1)^(j(j-1)/2) H_(K-1) r_(j-1)^j / D_K^j,
    and P_(K+j) = q(x) P_K + c P_(K-1), q monic of degree j, gives row K + j
    as ints over nden.  H_(K+j-1) times that row is ints, so it is stored
    over D_(K+j) = gcd(nden, H_(K+j-1)): one exact division, known before
    the row is formed, and no gcd over the row.  v becomes r[j-1:].

    j = 1 is the three-term step: with (c0, c1), (p0, p1) the heads of r, v,
        row_(K+1)[i] = (a r_(i+2) - bb r_(i+1) - cc v_(i+2)) / nden,
        (a, bb, cc, nden) = (c0 p0, c1 p0 - p1 c0, c0^2, D_K c0 p0) / g,
    g = gcd(c0 p0, bb, c0^2) signed so that nden > 0; the row is stored as its
    numerators over nden divided by q = nden / D_(K+1), with no division where
    q = 1.  Where also g = c0 p0, so a = 1: the integral step, whose entries
    r_(i+2) - bb r_(i+1) - cc v_(i+2) take one multiply fewer.  Every step on
    integer moments with an integral J-fraction is integral with every row over
    1.  For j > 1,
    from Q_j = v_0 r_(j-1)^j and C = -r_(j-1)^(j+1), every division exact,
        Q_m = -(sum_(i=m+1..j) Q_i r_(i+j-1-m) + C v_(j-m)) / r_(j-1), m = j-1..0,
        row_(K+j)[i] = (sum_m Q_m r_(m+j+i) + C v_(j+1+i)) / nden,
    the j + 2 scalars over their gcd and nden = D_K Q_j.  Rows inside a
    block are None; minors a block yields past the end of t are still exact,
    and a row with no nonzero entry yields zeros to its end.
    """
    h_prev, d = 1, 1  # H_(K-1), D_K
    prev, p0, p1 = [1] + [0] * len(t), 1, 0  # row K - 1 read from x^(K-1), and its head
    cur = t
    while True:
        c0 = cur[0]
        h = h_prev * c0 // d
        yield h, cur, d
        if len(cur) < 3:
            return
        if c0:
            c1 = cur[1]
            a, bb, cc = c0 * p0, c1 * p0 - p1 * c0, c0 * c0
            g = gcd(a, bb, cc)
            if a < 0:
                g = -g
            if g != 1:
                a, bb, cc = a // g, bb // g, cc // g
            nden = d * a
            dn = gcd(nden, h)
            q = nden // dn
            terms = zip(cur[2:], cur[1:], prev[2:])
            if a == 1 and q == 1:  # the integral step, one multiply fewer an entry
                row = [x - bb * y - cc * z for x, y, z in terms]
            elif q == 1:
                row = [a * x - bb * y - cc * z for x, y, z in terms]
            else:
                row = [(a * x - bb * y - cc * z) // q for x, y, z in terms]
            prev, cur, p0, p1 = cur, row, c0, c1
            h_prev, d = h, dn
            continue
        j = next((i for i, x in enumerate(cur) if x), len(cur)) + 1
        yield from [(0, None, None)] * (j - 2)
        if j > len(cur):
            return
        r = cur[j - 1]
        h = (-1) ** (j * (j - 1) // 2) * h_prev * r**j // d**j
        yield h, None, None
        if len(cur) < 2 * j + 1:
            return
        qs, c = [0] * j + [prev[0] * r**j], -(r ** (j + 1))
        for m in range(j - 1, -1, -1):
            qs[m] = -(sum(map(mul, qs[m + 1 :], cur[j : 2 * j - m])) + c * prev[j - m]) // r
        g = gcd(c, *qs)
        qs, c = [v // g for v in qs], c // g
        nden = d * qs[j]
        d = gcd(nden, h)
        q = nden // d
        row = [
            (sum(map(mul, qs, cur[j + i : 2 * j + 1 + i])) + c * prev[j + 1 + i]) // q
            for i in range(len(cur) - 2 * j)
        ]
        prev, cur, p0, p1, h_prev = cur[j - 1 :], row, r, cur[j], h


def _minors(t, max_n: int) -> list[int]:
    """The leading Hankel minors H_0..H_max_n of the ints t_0..t_(2 max_n),
    from the monic Chebyshev recurrence with its block step (_monic_rows)."""
    return [h for h, _, _ in islice(_monic_rows(list(t[: 2 * max_n + 1])), max_n + 1)]


def _chebyshev(t, depth: int, heads: bool = False, minors: bool = True):
    """(H, jf): one pass of the monic Chebyshev recurrence (_monic_rows) over the
    ints t, at least 2 depth + 1 of them, giving the leading Hankel minors
    H = [H_0, ..., H_depth] and, when heads is asked for (2 depth + 2 terms),
    the J-fraction jf = (b, lam) as unreduced (numerator, denominator) int pairs.
    With (c0, c1) the head of row k over D_k and (p0, p1) that of row k - 1 over
    D_(k-1), and (1, 0) over 1 for row -1,

        b_k = c1/c0 - p1/p0,
        lam_k = (c0/D_k) / (p0/D_(k-1)) = H_k H_(k-2) / H_(k-1)^2;

    b and lam stop at the first lam_k = 0, the last entry of lam then, and so
    does the pass when the minors are not asked for (H is then None); jf is None
    when heads is not asked for.
    """
    hs, b, lam = [], [], []
    p0, p1, dp = 1, 0, 1
    for k, (h, row, d) in enumerate(islice(_monic_rows(t), depth + 1)):
        hs.append(h)
        if heads and p0:  # rows are None only after a zero lam
            c0, c1 = row[0], row[1]
            if k:
                lam.append((c0 * dp, d * p0))
            if c0:
                b.append((c1 * p0 - p1 * c0, c0 * p0))
            p0, p1, dp = c0, c1, d
        elif not minors:
            break
    return (hs if minors else None), ((b, lam) if heads else None)


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

    The 2*max_n + 1 terms are read as the sequence stores them, ints over d, the
    lcm of their own denominators (Sequence._cleared), and the integer minors
    (_chebyshev) give every h_n = H_n / d**(n+1) from the monic Chebyshev rows,
    max_n levels of one row step each, with a block step across every run of
    zero minors.  The h_n are returned as ints over the lcm of their own
    denominators, with no Fraction.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    need = 2 * max_n + 1
    if len(s) < need:
        raise InsufficientTerms(f"need {need} terms for h_{max_n}, have {len(s)}")
    t, d = s._cleared(need)
    minors, _ = _chebyshev(t, max_n)
    if d == 1:
        return Sequence._ints(minors, 1)
    # h_n in lowest terms is (H_n / g_n) / q_n, q_n = d**(n+1) / g_n with g_n = gcd(H_n, d**(n+1));
    # over lcm(q_n) the minors need no scaling up to d**(max_n+1) and no gcd at that size
    nums, dens, power = [], [], 1
    for v in minors:
        power *= d
        g = gcd(v, power)
        nums.append(v // g)
        dens.append(power // g)
    den = lcm(*dens)
    return Sequence._ints([v * (den // q) for v, q in zip(nums, dens)], den)


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

    __repr__ = _exact_repr


def _somos_windows(t):
    """Lazily yield (n, p, q, r) = (n, t_(n-1) t_(n-3), t_(n-2)^2, t_n t_(n-4))
    for n >= 4; window n holds when r = alpha * p + beta * q."""
    for n in range(4, len(t)):
        yield n, t[n - 1] * t[n - 3], t[n - 2] * t[n - 2], t[n] * t[n - 4]


def somos_fit(h: Sequence) -> SomosFitResult:
    """Fit (alpha, beta) over every window of h, classifying the system.

    Windows whose coefficient row and right side are all zero constrain
    nothing and are skipped.  Fewer than two window equations in total is
    reported as InsufficientData rather than an error.  The fit runs on h's
    stored numerators, which share one denominator (_somos_fit_ints).
    """
    return _somos_fit_ints(h._nums)


def _somos_fit_ints(t) -> SomosFitResult:
    """somos_fit on ints t: h's terms scaled so that every product of window n
    carries one positive factor s_n, which no outcome depends on
    (check_conjecture_point's argument); h's numerators over one denominator d,
    or the minors H_n of h_n = H_n / d**(n+1), say.  A solved point is kept as
    (alpha, beta) * cross, in ints; only the result holds Fractions."""
    if len(t) < 6:
        return SomosFitResult(INSUFFICIENT)
    line = point = None
    for n, p, q, r in _somos_windows(t):
        if p == 0 and q == 0:
            if r != 0:
                return SomosFitResult(INCONSISTENT, failing_index=n)
            continue
        if point is not None:
            if p * point[0] + q * point[1] != r * point[2]:
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
        point = (r0 * q - r * q0, p0 * r - p * r0, cross)
    if point is not None:
        return SomosFitResult(UNIQUE, alpha=Fraction(point[0], point[2]), beta=Fraction(point[1], point[2]))
    if line is not None:
        lead = line[0] or line[1]
        return SomosFitResult(FAMILY, family_description=tuple(Fraction(v, lead) for v in line))
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
    for every available n >= 4; tolerant of zero terms.  The windows run on s's
    stored numerators, which scales both sides of each by den**2, with alpha and
    beta as a/e and b/e over one common denominator e."""
    if len(s) < 5:
        raise ValueError("need at least five terms")
    (a, b), e = _over_common_denominator([rational(alpha), rational(beta)])
    return all(a * p + b * q == e * r for _, p, q, r in _somos_windows(s._nums))


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

    __repr__ = _exact_repr


def jfraction(s: Sequence, depth: int) -> JFraction:
    """Extract depth + 1 b-coefficients and depth lambdas from the monic
    Chebyshev recurrence (_chebyshev) on the moments as ints over the lcm of
    their denominators (Sequence._cleared); stops early (terminated=True) when
    a lambda vanishes.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if s._nums[0] == 0:
        raise ValueError("the leading term must be nonzero")
    need = 2 * depth + 2
    if len(s) < need:
        raise InsufficientTerms(f"depth {depth} needs {need} terms, have {len(s)}")
    _, (b, lam) = _chebyshev(s._cleared(need)[0], depth, heads=True, minors=False)
    return JFraction(
        tuple(Fraction(*x) for x in b), tuple(Fraction(*x) for x in lam), terminated=len(b) == len(lam)
    )


def jfraction_series(jf: JFraction, order: int) -> PowerSeries:
    """Rebuild the continued fraction as a power series of the given order."""
    t = PowerSeries.one(order)
    for k in range(len(jf.b) - 1, -1, -1):
        den = PowerSeries.of([1, -jf.b[k]], order)
        if k < len(jf.lam) and jf.lam[k] != 0:
            den = den - (t * jf.lam[k]).mul_x().mul_x().truncate(order)
        t = 1 / den
    return t
