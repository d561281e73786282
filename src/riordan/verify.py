"""Fixture regression harness, conjecture sweep machinery, b-file ingestion.

The bundled corpus (fixtures/corpus.json) holds one entry per check:

    {"id": "<name>.<what>", "spec": <builder>, "check_kind": <kind>,
     "expected": <literal expected values>}

Builders describe the array under test:

    {"kind": "amatrix", "rows": [[...]], "rho": [...],
     "repeat_last_row": false, "invert": false}
    {"kind": "rational_pair", "g_num": [...], "g_den": [...],
     "f_num": [...], "f_den": [...], "invert": false}
    {"kind": "narayana_coeffs", "nrows": n}

Each check kind is one entry of the check table ``_CHECKS``:

    column, aseq, zseq, hankel, diagonal_sums:  leading terms of a sequence
    triangle, production:  leading rows of the triangle or production matrix
    somos:  {"mode": "fit" | "verify", "kind" (fit only), "alpha", "beta", "depth"}
    jfraction:  {"b": [...], "lambda": [...]}
    quasi_involution:  true or false, the inverse law of the aerated column

Scalars may be integers or "p/q" strings.  Expected values are literal data
(bundled, never recomputed); comparisons are exact, with no tolerances.  A
check kind missing from the table fails its fixture.

Triangle checks against an amatrix builder that is not inverted run both
constructions (series realization and the direct entry recurrence) so a
disagreement between the two routes is reported rather than masked.

The sweep harness grids the two-row family over a parameter box and verifies
each point's Hankel transform window by window against the conjectured Somos
parameters, read off the monic quartic under the square root in the point's
generating function as its Somos-4 invariants (_family_quartic); the paper's
closed forms (conjectured_somos_rho0, conjectured_somos_rho_delta) equal them
and stay as the tests' reference.  A point's Hankel minors are read off the
P-fraction of the same quartic (_quartic_minors), with no series and no
Chebyshev pass.  Counterexamples are recorded output, not assertion failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product

from .series import (
    InsufficientTerms,
    PowerSeries,
    Sequence,
    SeriesError,
    rational,
    rational_series,
    _exact_values,
    _over_common_denominator,
)
from .core import (
    LowerTriangle,
    RiordanPair,
    diagonal_sums,
    production_matrix,
    a_sequence,
    riordan_inverse,
    riordan_triangle,
    quasi_involution_check,
    z_sequence,
)
from .amatrix import (
    AMatrixSpec,
    bell_pair,
    direct_triangle,
    narayana_poly_coeffs,
)
from .hankel import _somos_windows, hankel_transform, jfraction, somos_fit, somos_verify


class FixtureNotFound(ValueError):
    """No fixture id matched the requested filter."""


class MalformedLine(ValueError):
    """A b-file line is not '# comment' or 'index value'."""


class NonConsecutiveIndices(ValueError):
    """b-file indices must increase by one."""


DEFAULT_ORDER = 32
SWEEP_ORDER = 40  # 16 Hankel windows a point


@dataclass(frozen=True)
class Fixture:
    id: str
    spec: dict
    check_kind: str
    expected: object


@dataclass(frozen=True)
class FixtureOutcome:
    id: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureReport:
    outcomes: tuple[FixtureOutcome, ...]

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> tuple[FixtureOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def ok(self) -> bool:
        return not self.failed


def load_corpus() -> list[Fixture]:
    raw = resources.files("riordan.fixtures").joinpath("corpus.json").read_text()
    return [
        Fixture(e["id"], e["spec"], e["check_kind"], e["expected"])
        for e in json.loads(raw)
    ]


def _amatrix_spec(spec: dict) -> AMatrixSpec:
    """The AMatrixSpec of an amatrix builder, without the builder-only keys."""
    return AMatrixSpec.from_dict({k: v for k, v in spec.items() if k not in ("kind", "invert")})


class _Builder:
    """Build-and-cache the array described by a fixture spec."""

    def __init__(self, order: int):
        self.order = order
        self._pairs: dict[str, RiordanPair] = {}

    def pair(self, spec: dict) -> RiordanPair:
        key = json.dumps(spec, sort_keys=True)
        if key in self._pairs:
            return self._pairs[key]
        kind = spec.get("kind")
        if kind == "amatrix":
            array = _amatrix_spec(spec)
            built = bell_pair(array, self.order)
        elif kind == "rational_pair":
            built = RiordanPair(
                rational_series(spec["g_num"], spec["g_den"], self.order),
                rational_series(spec["f_num"], spec["f_den"], self.order),
            )
        else:
            raise ValueError(f"builder kind {kind!r} does not describe a pair")
        if spec.get("invert", False):
            built = riordan_inverse(built)
        self._pairs[key] = built
        return built

    def column(self, spec: dict) -> Sequence:
        g = self.pair(spec).g
        return Sequence._ints(g._nums, g._den)

    def triangle(self, spec: dict, nrows: int) -> LowerTriangle:
        if spec.get("kind") == "narayana_coeffs":
            return narayana_poly_coeffs(spec["nrows"])
        return riordan_triangle(self.pair(spec), nrows)


def _expected_list(expected) -> list[Fraction]:
    return [rational(v) for v in expected]


# A check returns None when its fixture holds, else a failure detail.  Checks
# call functions by their module-level names, looked up when a check runs.


def _prefix_check(what: str, compute):
    """Compare the first len(expected) terms of compute(builder, spec, n)."""

    def check(fx: Fixture, builder: _Builder) -> str | None:
        want = _expected_list(fx.expected)
        got = compute(builder, fx.spec, len(want))
        return None if list(got.prefix(len(want))) == want else f"{what} mismatch"

    return check


def _check_triangle(fx: Fixture, builder: _Builder) -> str | None:
    want = [_expected_list(row) for row in fx.expected]
    tri = builder.triangle(fx.spec, len(want))
    if [list(row) for row in tri.rows[: len(want)]] != want:
        return "series triangle mismatch"
    if fx.spec.get("kind") == "amatrix" and not fx.spec.get("invert", False):
        direct = direct_triangle(_amatrix_spec(fx.spec), len(want))
        if [list(r) for r in direct.rows] != want:
            return "direct recurrence disagrees with series triangle"
    return None


def _check_production(fx: Fixture, builder: _Builder) -> str | None:
    want = [_expected_list(row) for row in fx.expected]
    prod = production_matrix(builder.pair(fx.spec), len(want))
    return None if [list(row) for row in prod.matrix] == want else "production matrix mismatch"


def _check_somos(fx: Fixture, builder: _Builder) -> str | None:
    exp = fx.expected
    h = hankel_transform(builder.column(fx.spec), int(exp["depth"]))
    alpha, beta = rational(exp["alpha"]), rational(exp["beta"])
    if exp["mode"] == "verify":
        return None if somos_verify(h, alpha, beta) else "product-form check failed"
    fit = somos_fit(h)
    ok = fit.kind == exp["kind"] and fit.alpha == alpha and fit.beta == beta
    return None if ok else f"fit returned {fit}"


def _check_jfraction(fx: Fixture, builder: _Builder) -> str | None:
    want_b = _expected_list(fx.expected["b"])
    want_lam = _expected_list(fx.expected["lambda"])
    jf = jfraction(builder.column(fx.spec), len(want_lam))
    ok = list(jf.b) == want_b and list(jf.lam) == want_lam
    return None if ok else f"got b={jf.b} lam={jf.lam}"


def _check_quasi_involution(fx: Fixture, builder: _Builder) -> str | None:
    col = builder.column(fx.spec).terms
    if any(c != 0 for c in col[1::2]):
        return "column is not aerated"
    ok = quasi_involution_check(PowerSeries(col[0::2])) == bool(fx.expected)
    return None if ok else "inverse law failed"


_CHECKS = {
    "column": _prefix_check("column", lambda b, spec, n: b.column(spec)),
    "aseq": _prefix_check("A-sequence", lambda b, spec, n: a_sequence(b.pair(spec))),
    "zseq": _prefix_check("Z-sequence", lambda b, spec, n: z_sequence(b.pair(spec))),
    "hankel": _prefix_check(
        "Hankel transform", lambda b, spec, n: hankel_transform(b.column(spec), n - 1)
    ),
    "diagonal_sums": _prefix_check(
        "diagonal sums", lambda b, spec, n: diagonal_sums(b.triangle(spec, n))
    ),
    "triangle": _check_triangle,
    "production": _check_production,
    "somos": _check_somos,
    "jfraction": _check_jfraction,
    "quasi_involution": _check_quasi_involution,
}


def run_fixtures(filter: str | None = None, order: int = DEFAULT_ORDER) -> FixtureReport:
    """Run the bundled corpus (or the subset whose id contains the filter).

    Every comparison is exact; any mismatch is reported in the outcome list.
    An unmatched filter raises FixtureNotFound; an order too low for a
    fixture's depth raises InsufficientTerms naming that fixture.
    """
    corpus = load_corpus()
    if filter:
        corpus = [fx for fx in corpus if filter.lower() in fx.id.lower()]
        if not corpus:
            raise FixtureNotFound(f"no fixture id contains {filter!r}")
    builder = _Builder(order)
    outcomes = []
    for fx in corpus:
        check = _CHECKS.get(fx.check_kind)
        try:
            detail = check(fx, builder) if check else f"unknown check kind {fx.check_kind!r}"
        except InsufficientTerms as exc:
            raise InsufficientTerms(f"{fx.id}: {exc}") from exc
        except Exception as exc:  # a crashing fixture is a failing fixture
            detail = f"{type(exc).__name__}: {exc}"
        outcomes.append(FixtureOutcome(fx.id, detail is None, detail or ""))
    return FixtureReport(tuple(outcomes))


# -- Somos-4 conjecture sweeps -----------------------------------------


def conjectured_somos_rho0(a, b, c, d) -> tuple[int | Fraction, int | Fraction]:
    """The conjectured (alpha, beta) for the two-row family with rho = 0."""
    a, b, c, d = _exact_values((a, b, c, d))  # ints as they are: an integer point is int arithmetic
    alpha = (b + a * b + d) ** 2
    beta = (
        b**4
        - b**3 * (2 + 3 * a + a * a - 2 * c)
        + b * (a + a * a - a * c - 2 * d) * d
        + (1 + a - c) * d * d
        - b * b * (c + a * c - c * c + 2 * d + 3 * a * d)
    )
    return alpha, beta


def conjectured_somos_rho_delta(a, b, c, d) -> tuple[int | Fraction, int | Fraction]:
    """The conjectured (alpha, beta) for the two-row family with rho = (1, 0, 0, ...)."""
    a, b, c, d = _exact_values((a, b, c, d))
    alpha = (4 + a * a + 3 * b + a * (4 + b) + c + d) ** 2
    beta = (
        -16
        - a**5
        + b**4
        - 3 * a**4 * (3 + b)
        + 2 * b**3 * (-2 + c)
        - 8 * c
        - 4 * c**2
        - c**3
        + b**2 * (-28 - c + c**2 - 8 * d)
        - 8 * d
        - 6 * c * d
        - 2 * c**2 * d
        - d**2
        - c * d**2
        - a**3 * (32 + 23 * b + 3 * b**2 + c + 2 * d)
        - 2 * b * (20 + c**2 + 9 * d + d**2 + 3 * c * (2 + d))
        - a**2 * (56 + 18 * b**2 + b**3 + 10 * d + c * (6 + d) + b * (66 + c + 5 * d))
        - a
        * (
            48
            + 3 * b**3
            + 2 * c**2
            + 16 * d
            + d**2
            + b**2 * (38 - 2 * c + 3 * d)
            + c * (12 + 5 * d)
            + b * (84 - c**2 + 19 * d + c * (8 + d))
        )
    )
    return alpha, beta


CONFIRMED = "confirmed"
DEGENERATE = "degenerate"
COUNTEREXAMPLE = "counterexample"


def _family_quartic(a: int, b: int, c: int, d: int, r: int, g: int) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The quartic of the family point with grid ints (a, b, c, d, r, g) (_quartic_minors), as
    its ints (s1, s0, E1, E0), and its Somos-4 invariants (alpha, beta) = (E1^2, E0^2 + s0 E1^2
    - s1 E1 E0) (van der Poorten, J. Integer Seq. 8, 2005; Hone, Bull. LMS 37, 2005).

    S = z^2 + s1 z + s0 is the polynomial part of sqrt(D) for D = B^2 - 4AC, and D - S^2 =
    4 E1 z + 4 E0; with X = rg + b + r(a + r), s1 = -a - 2r, s0 = -c - 2X,
    E1 = -(bg + d) - rc - (a + 2r) X and E0 = -dg - cX - X^2.  At g = 1 the invariants are
    conjectured_somos_rho0 or conjectured_somos_rho_delta of the point (the tests prove the
    polynomial identities).  The point over its common denominator g > 1 has the quartic
    g^4 D(z/g), so s1, s0, E1 and E0 carry g, g^2, g^3 and g^4, and the invariants are already
    g^6 alpha and g^8 beta of the point's own.
    """
    s1 = -a - 2 * r
    x = r * g + b + r * (a + r)
    s0 = -c - 2 * x
    e1 = -(b * g + d) - r * c - (a + 2 * r) * x
    e0 = -d * g - c * x - x * x
    return (s1, s0, e1, e0), (e1 * e1, e0 * e0 + s0 * e1 * e1 - s1 * e1 * e0)


def _quartic_minors(a: int, b: int, r: int, g: int, quartic: tuple[int, ...], depth: int) -> list[int]:
    """The Hankel minors H_0..H_depth of the t_n of G = sum_n t_n z^(-n-1), the root with
    G ~ 1/z of A G^2 + B G + C = 0 for the ints A = r z^2 + b z + d, B = -(z^2 - a z - c)
    and C = z + g, read off the P-fraction of G in ints: no series term and no Chebyshev row.
    quartic is (s1, s0, E1, E0) of _family_quartic(a, b, c, d, r, g).

    The family.  At x = 1/z and F = zG, times z, (1 - ax - cx^2) F = (1 + x) +
    x(rho0 + bx + dx^2) F^2 is this equation for g = 1, so t_n = [x^n] f/x, an int polynomial
    of degree <= n in the parameters, and the equation fixes G term by term.  Over a common
    denominator g, G(z/g)/g has the int moments g^n t_n and solves the equation for the ints
    (ga, g^2 b, g^2 c, g^3 d, g rho0, g), so its minors are g^(n(n+1)) H_n(t)
    (check_conjecture_point).

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
        and u' = -2 S(-theta) - u; level 0 gives u' = 2(c + X - g(g + a + r)),
        X of _family_quartic.
        R = -u' z + 2 E1 - s1 u' + theta u', so if u' != 0, lam' = u'/2 and
        theta' = s1 - theta - E1/lam'; if u' = 0, R = 2 E1, so lam' = -E1 and Q' = 2 if
        E1 != 0, and if E1 = 0 the fraction ends (w = q).
      - Q = 2 (reached only from u' = 0, so P = S) gives q = S, P' = S and R = 2 E1 z + 2 E0:
        lam' = -E1 and theta' = E0/E1.
    So a linear level k has u_k/2 = -mu_k - S(-theta_k), lam_(k+1) where it is not 0, for
    mu_k = u_(k-1)/2: lam_k after a linear level, 0 after one of degree 2, and b + r(a + r)
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
    0 too with sigma_(-1) read as r (Z_(-1) = r).  With W = M_k M_(k-1) and
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
    beta = E0^2 + s0 E1^2 - s1 E1 E0, the invariants of _family_quartic, and with
    lam_(j+1) = M_(j+1) M_(j-1) / M_j^2 that is M_(k+2) M_(k-2) = alpha M_(k+1) M_(k-1) + beta M_k^2,
    the Somos-4 window that check_conjecture_point reads.
    """
    s1, s0, e1, e0 = quartic
    m2, m1, m0 = None, 1, 1  # M_(k-2), M_(k-1), M_k
    z1, z0 = r, -(g + a + r)  # Z_(k-1), Z_k
    mu = b + r * (a + r)  # None where level k - 1 is linear
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


def check_conjecture_point(a, b, c, d, rho0: int, order: int) -> tuple[str, int | None]:
    """Evaluate the conjecture at one parameter tuple.

    Returns (status, failing_window).  rho0 must be 0 or 1 (ValueError), and every parameter,
    rho0 included, an int, a Fraction or a 'p/q' string (TypeError for a bool or a float)
    before anything else is read.  Tuples with conjectured alpha = 0 are degenerate before the
    order is read and any minor is formed, and so are tuples with fewer than two usable Hankel
    windows (p, q or r nonzero); otherwise the product-form relation is checked at every window
    of the transform to depth (order - 1) // 2, and the first failing one is reported.

    The conjectured (alpha, beta) is read off the point's quartic, as its Somos-4 invariants
    (_family_quartic), which equal conjectured_somos_rho0 and conjectured_somos_rho_delta as
    polynomials.  The windows run on the int minors of the quartic's P-fraction
    (_quartic_minors), with no series and no Fraction view.  An int point is its own grid, g = 1;
    any other is cleared to its common denominator g.  For g > 1 the minors are
    H_n = g^(n(n+1)) h_n, so the three products of window n carry g^(E+6), g^(E+4) and
    g^(E+12), E = 2n^2 - 6n, and the invariants of the scaled point are g^6 alpha and g^8 beta;
    so alpha p + beta q = r holds for h exactly when it holds for H and the scaled invariants,
    and neither that nor a window's usability depends on the scale.
    """
    if rho0 not in (0, 1):
        raise ValueError("rho0 must be 0 or 1")
    g = 1
    if not type(a) is type(b) is type(c) is type(d) is type(rho0) is int:
        (a, b, c, d, rho0), g = _over_common_denominator(_exact_values((a, b, c, d, rho0)))
        b, c, d = b * g, c * g, d * g * g
    quartic, (alpha, beta) = _family_quartic(a, b, c, d, rho0, g)
    if not alpha:
        return DEGENERATE, None
    if order < 1:
        raise SeriesError("order must be positive")
    usable, failing = 0, None
    for n, p, q, r in _somos_windows(_quartic_minors(a, b, rho0, g, quartic, (order - 1) // 2)):
        if p or q or r:
            usable += 1
            if failing is None and alpha * p + beta * q != r:
                failing = n
    if usable < 2:
        return DEGENERATE, None
    return (CONFIRMED, None) if failing is None else (COUNTEREXAMPLE, failing)


@dataclass(frozen=True)
class SweepReport:
    """Outcome tallies for a conjecture sweep over an integer parameter box."""

    family: str  # "rho0" or "rhodelta"
    lo: int
    hi: int
    order: int
    total: int
    confirmed: int
    degenerate: int
    counterexamples: tuple[tuple[tuple[int, int, int, int], int], ...]

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "range": [self.lo, self.hi],
            "order": self.order,
            "total": self.total,
            "confirmed": self.confirmed,
            "degenerate": self.degenerate,
            "counterexamples": [
                {"params": list(params), "failing_window": n}
                for params, n in self.counterexamples
            ],
        }


def _sweep(family: str, rho0: int, lo: int, hi: int, order: int) -> SweepReport:
    if lo > hi:
        raise ValueError(f"empty parameter range {lo}..{hi}")
    if order < 10:
        raise ValueError("sweep order must be at least 10 for two usable windows")
    confirmed = degenerate = 0
    counterexamples = []
    grid = range(lo, hi + 1)
    for a, b, c, d in product(grid, repeat=4):
        status, window = check_conjecture_point(a, b, c, d, rho0, order)
        if status == CONFIRMED:
            confirmed += 1
        elif status == DEGENERATE:
            degenerate += 1
        else:
            counterexamples.append(((a, b, c, d), window))
    total = len(grid) ** 4
    return SweepReport(
        family, lo, hi, order, total, confirmed, degenerate, tuple(counterexamples)
    )


def sweep_conjecture_rho0(lo: int, hi: int, order: int = SWEEP_ORDER) -> SweepReport:
    """Grid the rho = 0 conjecture over [lo, hi]^4."""
    return _sweep("rho0", 0, lo, hi, order)


def sweep_conjecture_rho_delta(lo: int, hi: int, order: int = SWEEP_ORDER) -> SweepReport:
    """Grid the rho = (1, 0, 0, ...) conjecture over [lo, hi]^4."""
    return _sweep("rhodelta", 1, lo, hi, order)


# -- OEIS b-file ingestion ----------------------------------------------


def load_bfile(path) -> Sequence:
    """Parse a b-file: '#' comment lines, then 'index value' data lines.

    Indices must be consecutive; the sequence offset is the first index.
    Any byte outside ASCII is a MalformedLine.
    """
    terms: list[Fraction] = []
    first: int | None = None
    prev: int | None = None
    # undecodable bytes become lone surrogates, so the bad line can be named
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            if not raw.isascii():
                raise MalformedLine(f"line {lineno}: not ASCII text")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedLine(f"line {lineno}: expected 'index value', got {line!r}")
            try:
                idx = int(parts[0])
                val = rational(parts[1])  # no digit cap
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedLine(f"line {lineno}: {exc}") from exc
            if first is None:
                first = idx
            elif idx != prev + 1:
                raise NonConsecutiveIndices(
                    f"line {lineno}: index {idx} does not follow {prev}"
                )
            prev = idx
            terms.append(val)
    if first is None:
        raise MalformedLine("no data lines found")
    return Sequence(tuple(terms), first)
