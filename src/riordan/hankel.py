"""Exact Hankel transforms, Somos-4 parameter fitting, and J-fractions.

Hankel minors and J-fraction coefficients both come from one Chebyshev recurrence on monic rows,
ints over a denominator known before each row is formed: one exact division a row and no gcd
over its entries, with row sizes that follow the J-fraction rather than the minors; one pass
(_chebyshev) gives both, reading the J-fraction heads at every level whose row holds two
entries, so 2 depth + 2 terms give all of them.  Where the step's leading scalar divides out and
its row needs no division (every level of an integral J-fraction), a row entry takes one
multiply fewer.  A block step carries it across every run of zero minors; exact_det is Bareiss.
The genus-1 route reads the minors of a column whose equation has a 3 x 3 int grid off the
P-fraction of its quartic instead, in O(depth) int steps (_quartic_minors), and the quartic's
Somos-4 invariants (_genus1_quartic); only the conjecture sweep takes it.  The Somos-4 fitter
classifies the full linear system, on ints, over every available window instead of trusting the
first two, so hidden inconsistencies surface as data rather than wrong answers.  All functions
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, prod
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


def _chebyshev(t, depth: int, minors: bool = True):
    """(H, jf): one pass of the monic Chebyshev recurrence (_monic_rows) over the
    ints t, at least 2 depth + 1 of them, giving the leading Hankel minors
    H = [H_0, ..., H_depth] and the J-fraction jf = (b, lam) as unreduced
    (numerator, denominator) int pairs, read at every level whose row holds two
    entries (all depth + 1 levels from 2 depth + 2 terms).  With (c0, c1) the
    head of row k over D_k and (p0, p1) that of row k - 1 over D_(k-1), and
    (1, 0) over 1 for row -1,

        b_k = c1/c0 - p1/p0,
        lam_k = (c0/D_k) / (p0/D_(k-1)) = H_k H_(k-2) / H_(k-1)^2;

    b and lam stop at the first lam_k = 0, the last entry of lam then, and so
    does the pass when the minors are not asked for (H is then None).
    """
    hs, b, lam = [], [], []
    p0, p1, dp = 1, 0, 1
    for k, (h, row, d) in enumerate(islice(_monic_rows(t), depth + 1)):
        hs.append(h)
        if p0 and len(row) > 1:  # rows are None only after a zero lam
            c0, c1 = row[0], row[1]
            if k:
                lam.append((c0 * dp, d * p0))
            if c0:
                b.append((c1 * p0 - p1 * c0, c0 * p0))
            p0, p1, dp = c0, c1, d
        elif not minors:
            break
    return (hs if minors else None), (b, lam)


def _genus1_quartic(e) -> tuple[tuple[int, int, int, int], tuple[int, int]]:
    """The quartic D = B^2 - 4AC of the grid ints e (_quartic_minors), as its ints
    (s1, s0, E1, E0), and its Somos-4 invariants (alpha, beta) = (E1^2, E0^2 + s0 E1^2 - s1 E1 E0)
    (van der Poorten, J. Integer Seq. 8, 2005; Hone, Bull. LMS 37, 2005): S = z^2 + s1 z + s0 is
    the polynomial part of sqrt(D), and D - S^2 = 4 E1 z + 4 E0.
    """
    e02, e11, e12, e20, e21, e22 = e
    s1 = -e11 - 2 * e02
    x = e02 * e20 + e12 + e02 * (e11 + e02)
    s0 = -e21 - 2 * x
    e1 = -(e12 * e20 + e22) - e02 * e21 - (e11 + 2 * e02) * x
    e0 = -e22 * e20 - e21 * x - x * x
    return (s1, s0, e1, e0), (e1 * e1, e0 * e0 + s0 * e1 * e1 - s1 * e1 * e0)


def _quartic_minors(e, quartic: tuple[int, int, int, int], depth: int) -> list[int]:
    """The Hankel minors H_0..H_depth of the t_n of G = sum_n t_n z^(-n-1), the root with
    G ~ 1/z of A G^2 + B G + C = 0 for A = e02 z^2 + e12 z + e22, B = -z^2 + e11 z + e21 and
    C = z + e20, read off the P-fraction of G in ints: no series term and no Chebyshev row.
    quartic is (s1, s0, E1, E0) of _genus1_quartic(e).

    The grid.  e = (e02, e11, e12, e20, e21, e22) are the free entries of a 3 x 3 int grid
    e[p][q] = [x^p w^q] E(x, w) (AMatrixSpec._grid) whose row 0 is (0, -1, e02) and whose
    e10 = 1.  At x = 1/z, z^2 E(x, G) = A G^2 + B G + C for G = f(x), so t_n = [x^n] f/x for
    the root f of E(x, f) = 0, and the equation fixes G term by term.

    The P-fraction.  D = B^2 - 4AC is monic of degree 4, S = z^2 + s1 z + s0 is the polynomial
    part of sqrt(D) (the root ~ z^2) and D - S^2 = 4 E1 z + 4 E0, for the ints s1, s0, E1 and
    E0 of quartic.  1/G = w_0 = (P_0 + sqrt(D)) / Q_0, P_0 = -B, Q_0 = 2C, since
    (P_0 + sqrt(D))(P_0 - sqrt(D)) = 4AC makes 1/w_0 the root ~ 1/z.  For w = (P + sqrt(D)) / Q
    with P monic of degree 2 and Q twice a monic polynomial of degree 1 or 0 that divides
    D - P^2, let q be the polynomial part of w, the quotient of P + S by Q, since
    (sqrt(D) - S) / Q = O(1/z); q is monic of degree 1 or 2.
    P' = qQ - P and R = (D - P'^2) / Q, exact as P' = -P mod Q, give
    w - q = R / (P' + sqrt(D)) = -lam / w' with lam = -lc(R)/2 and w' = (P' + sqrt(D)) / Q',
    Q' = -R / lam, which divides D - P'^2 = -lam Q Q'.  So G = 1/(q_0 - lam_1/(q_1 - lam_2/...)).
    P' is S + u' for a constant u' at every level:
      - Q = 2(z + theta) gives q = z - b with b = theta - s1 from level 1 on (P = S + u),
        and u' = -2 S(-theta) - u; level 0 gives u' = 2(e21 + X - e20(e20 + e11 + e02)),
        X = -(s0 + e21)/2.
        R = -u' z + 2 E1 - s1 u' + theta u', so if u' != 0, lam' = u'/2 and
        theta' = s1 - theta - E1/lam'; if u' = 0, R = 2 E1, so lam' = -E1 and Q' = 2 if
        E1 != 0, and if E1 = 0 the fraction ends (w = q).
      - Q = 2 (reached only from u' = 0, so P = S) gives q = S, P' = S and R = 2 E1 z + 2 E0:
        lam' = -E1 and theta' = E0/E1.
    So a linear level k has u_k/2 = -mu_k - S(-theta_k), lam_(k+1) where it is not 0, for
    mu_k = u_(k-1)/2: lam_k after a linear level, 0 after one of degree 2, and e12 + e02(e11 + e02)
    at level 0.  Where level k - 1 is linear too, D - P_k^2 = -4 lam_k (z + theta_(k-1))
    (z + theta_k) at z^1 and z^0 gives E1 = lam_k (s1 - theta_(k-1) - theta_k) and
    E0 = lam_k (lam_k + s0 - theta_(k-1) theta_k),
    and with theta_(k-1) eliminated, lam_k is a root of L^2 + S(-theta_k) L = E0 - theta_k E1.
    u_k/2 = -S(-theta_k) - lam_k is the other, so lam_k u_k/2 = theta_k E1 - E0.

    The minors (Han, Adv. Math. 303, 2016, reads them off such a fraction).  Let q_k have
    degree m_k, N_k = m_0 + ... + m_k, L_k = lam_1 ... lam_k (L_0 = t_0 = 1), and
    Q_k = q_k Q_(k-1) - lam_k Q_(k-2) (Q_(-1) = 1, Q_(-2) = 0) the convergents' denominators,
    monic of degree N_k.  With G_j = 1/w_j = z^(-m_j) (1 + O(1/z)), induction on
    q_k G_k - 1 = lam_(k+1) G_k G_(k+1) gives Q_k G - U_k = L_(k+1) G_0 ... G_(k+1) for the
    numerators U_k, so l(z^i Q_k), l(z^n) = t_n, the z^(-i-1) coefficient of Q_k G, is 0 for
    i < N_(k+1) - 1 and L_(k+1) at N_(k+1) - 1.  The Hankel matrix of size N is the Gram
    matrix (l(p_i p_j)) of 1, ..., z^(N-1); a unit triangular change of basis to the monic
    z^j Q_(k-1) (0 <= j < m_k) of the degrees N_(k-1) + j keeps its determinant, and makes
    it block diagonal, block k anti-triangular with L_k on its anti-diagonal, so
        H at size N_k = prod_(i <= k) (-1)^(m_i (m_i - 1)/2) L_i^(m_i),
    a size inside a block has a zero first row in its last block, and a fraction that ends at
    level k leaves l(z^i Q_k) = 0 for every i, a zero row at every later size.

    The ints.  M_k is the minor at size N_k (M_(-1) = 1): M_(k-1) L_k if level k is linear,
    -M_(k-1) L_k^2 if it has degree 2, so lam_(k+1) = M_(k+1) M_(k-1) / M_k^2 at two linear
    levels.  Z_k = sigma_k M_k for sigma_k the z^(N_k - 1) coefficient of Q_k; M_k Q_k has int
    coefficients (Cramer's rule on the Hankel system that fixes Q_k), so Z_k is an int.  At a
    linear level sigma_k = sigma_(k-1) - b_k, so theta_k = sigma_(k-1) - sigma_k + s1, at level
    0 too with sigma_(-1) read as e02 (Z_(-1) = e02).  With W = M_k M_(k-1) and
    T = theta_k W = Z_(k-1) M_k - Z_k M_(k-1) + s1 W, (u_k/2) M_k^2 / M_(k-1), which is
    M_(k+1) if u_k != 0 and 0 if not, is
        (E1 T - E0 W) / M_(k-2)                       where level k - 1 is linear,
        -(T^2 - s1 T W + (mu_k + s0) W^2) / M_(k-1)^3   at level 0 and after degree 2,
    and sigma_(k+1) = sigma_k - b_(k+1) = sigma_(k-1) + s1 + E1/lam_(k+1) gives
        Z_(k+1) = (M_(k+1) Z_(k-1) + E1 M_k^2) / M_(k-1) + s1 M_(k+1).
    Where it is 0 and E1 != 0, the minors at sizes N_k + 1, + 2, + 3 are 0,
    M_(k+1) = -E1^2 M_k^3 / M_(k-1)^2 and M_(k+2) = M_(k+1) E1^2 M_k / M_(k-1), and q_(k+1) = S
    and theta_(k+2) = E0/E1 give sigma_(k+1) = sigma_k + s1 and sigma_(k+2) = sigma_(k+1) +
    s1 - E0/E1.  Every division is exact: its quotient is a minor, a Z or Z - s1 M.

    The invariants.  Where levels k - 1 to k + 2 are linear, three identities above read
      - lam_k lam_(k+1) = theta_k E1 - E0, the product of the roots, as u_k/2 = lam_(k+1);
      - theta_k + theta_(k+1) = s1 - E1/lam_(k+1), the theta step;
      - theta_k theta_(k+1) = lam_(k+1) + s0 - E0/lam_(k+1), E0 at level k + 1.
    The first at k times the first at k + 1, with the other two, gives
    lam_k lam_(k+1)^2 lam_(k+2) = alpha lam_(k+1) + beta for alpha = E1^2 and
    beta = E0^2 + s0 E1^2 - s1 E1 E0, the invariants of _genus1_quartic, and with
    lam_(j+1) = M_(j+1) M_(j-1) / M_j^2 that is M_(k+2) M_(k-2) = alpha M_(k+1) M_(k-1) + beta M_k^2,
    the Somos-4 window of _somos_windows.
    """
    e02, e11, e12, e20 = e[:4]
    s1, s0, e1, e0 = quartic
    m2, m1, m0 = None, 1, 1  # M_(k-2), M_(k-1), M_k
    z1, z0 = e02, -(e20 + e11 + e02)  # Z_(k-1), Z_k
    mu = e12 + e02 * (e11 + e02)  # None where level k - 1 is linear
    h = [1]
    while len(h) <= depth:
        w = m0 * m1
        t = z1 * m0 - z0 * m1 + s1 * w
        if mu is None:
            mn = (e1 * t - e0 * w) // m2
        else:
            mn = -(t * (t - s1 * w) + (mu + s0) * w * w) // (m1 * m1 * m1)
        if mn:
            h.append(mn)
            m2, m1, m0, z1, z0, mu = m1, m0, mn, z0, (mn * z1 + e1 * m0 * m0) // m1 + s1 * mn, None
            continue
        if not e1:  # the fraction ends
            break
        ma = -(e1 * m0) ** 2 * m0 // (m1 * m1)
        mb = ma * e1 * e1 * m0 // m1
        za = z0 * ma // m0 + s1 * ma
        h += [0, ma, mb]
        m1, m0, z1, z0, mu = ma, mb, za, ((za + s1 * ma) * e1 - e0 * ma) * mb // (ma * e1), 0
    return h[: depth + 1] + [0] * (depth + 1 - len(h))


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
    (_minors) give every h_n = H_n / d**(n+1) from the monic Chebyshev rows,
    max_n levels of one row step each, with a block step across every run of
    zero minors.  The h_n are stored as H_n d**(max_n - n) over d**(max_n + 1),
    which the store brings to lowest terms (_lowest) with one gcd, and no Fraction.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    need = 2 * max_n + 1
    if len(s) < need:
        raise InsufficientTerms(f"need {need} terms for h_{max_n}, have {len(s)}")
    t, d = s._cleared(need)
    minors = _minors(t, max_n)
    if d == 1:
        return Sequence._ints(minors, 1)
    return Sequence._ints([v * d ** (max_n - n) for n, v in enumerate(minors)], d ** (max_n + 1))


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
    _, (b, lam) = _chebyshev(s._cleared(need)[0], depth, minors=False)
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
