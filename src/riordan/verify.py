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

The sweep harness grids the two-row family over a parameter box and verifies each point's
Hankel transform window by window against its conjectured Somos parameters.  Both come from
the point's 3 x 3 int grid (check_conjecture_point): the minors off the P-fraction of the
monic quartic under the square root in its generating function (hankel._quartic_minors),
with no series and no Chebyshev pass, and (alpha, beta) as that quartic's Somos-4 invariants
(hankel._genus1_quartic), which the paper's closed forms (conjectured_somos_rho0,
conjectured_somos_rho_delta) equal and which stay as the tests' reference.  Counterexamples
are recorded output, not assertion failures.
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
from .hankel import (
    _genus1_quartic, _quartic_minors, _somos_windows, hankel_transform, jfraction, somos_fit, somos_verify
)


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


def check_conjecture_point(a, b, c, d, rho0: int, order: int) -> tuple[str, int | None]:
    """Evaluate the conjecture at one parameter tuple.

    Returns (status, failing_window).  rho0 must equal 0 or 1 (ValueError otherwise, for a string
    such as '1' too) as an int or a Fraction, and a, b, c and d may each be an int, a Fraction or a
    'p/q' string; a bool or a float, as rho0 too, raises TypeError.  All of it is checked before
    anything else is read.  Tuples with conjectured alpha = 0 are degenerate before the
    order is read and any minor is formed, and so are tuples with fewer than two usable Hankel
    windows (p, q or r nonzero); otherwise the product-form relation is checked at every window
    of the transform to depth (order - 1) // 2, and the first failing one is reported.

    The point's column is that of the spec [[1, a, b], [1, c, d]] with rho (rho0); e holds the six
    free entries of its 3 x 3 int grid (AMatrixSpec._grid, mu = lam = g) that hankel._quartic_minors
    reads, and an int point is its own grid, g = 1.  The windows run on the int minors
    H_n = g^(n(n+1)) h_n of its P-fraction, with no series and no Fraction view, and (alpha, beta)
    are its quartic's Somos-4 invariants (_genus1_quartic): conjectured_somos_rho0 and
    conjectured_somos_rho_delta as polynomials at g = 1 (the tests prove it), times g^6 and g^8 as
    s1, s0, E1 and E0 scale by g, g^2, g^3 and g^4.  The products of window n carry g^(E+6), g^(E+4)
    and g^(E+12), E = 2n^2 - 6n, so neither alpha p + beta q = r nor a window's usability depends on g.
    """
    if rho0 not in (0, 1):
        raise ValueError("rho0 must be 0 or 1")
    e = (rho0, a, b, 1, c, d)
    if not type(a) is type(b) is type(c) is type(d) is type(rho0) is int:
        (_, _, e02), (_, *e1), e2 = AMatrixSpec([[1, a, b], [1, c, d]], [rho0])._grid[0]
        e = (e02, *e1, *e2)
    quartic, (alpha, beta) = _genus1_quartic(e)
    if not alpha:
        return DEGENERATE, None
    if order < 1:
        raise SeriesError("order must be positive")
    usable, failing = 0, None
    for n, p, q, r in _somos_windows(_quartic_minors(e, quartic, (order - 1) // 2)):
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
