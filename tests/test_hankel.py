"""Determinants, Hankel transforms, Somos-4 fitting, J-fractions."""

import json
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from riordan.series import (
    PowerSeries, Sequence, catalan, rational, rational_series, _ZERO, _over_common_denominator
)
from riordan import hankel
from riordan.amatrix import AMatrixSpec, closed_form_f_general, solve_f
from riordan.hankel import (
    FAMILY,
    INCONSISTENT,
    INSUFFICIENT,
    UNIQUE,
    InsufficientTerms,
    JFraction,
    exact_det,
    hankel_transform,
    jfraction,
    jfraction_series,
    somos_fit,
    somos_verify,
)

from conftest import fit_allows, random_fraction, random_nonzero_fraction, small_fraction, somos_fit_by_fractions


def cofactor_det(m):
    """Oracle: textbook cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


# -- determinants -----------------------------------------------------------


def test_det_small_cases():
    assert exact_det([[1, 2], [3, 4]]) == -2
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert exact_det(eye) == 1
    assert exact_det([]) == 1


def test_det_hilbert_like_matrix():
    m = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    assert exact_det(m) == Fraction(1, 6048000)
    assert exact_det(m) == cofactor_det(m)


def test_det_rejects_ragged_input():
    with pytest.raises(ValueError):
        exact_det([[1, 2], [3]])


def test_det_handles_zero_pivots():
    m = [[0, 1, 2], [1, 0, 3], [4, 5, 0]]
    assert exact_det(m) == cofactor_det([[Fraction(v) for v in r] for r in m])


def test_det_integer_and_rational_paths_agree(rng):
    """Integer and p/q matrices both go through row scaling plus Bareiss;
    sparse entries and forced zero rows exercise pivot swaps and singular input."""
    for trial in range(60):
        n = rng.randint(1, 7)
        rational = trial % 2 == 1
        m = [
            [
                0 if rng.random() < 0.4
                else Fraction(rng.randint(-9, 9), rng.randint(1, 6) if rational else 1)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if trial % 5 == 0:
            m[rng.randrange(n)] = [0] * n
        want = cofactor_det([[Fraction(v) for v in row] for row in m])
        assert exact_det(m) == want


def test_det_singular_matrices_needing_row_swaps(rng):
    """A zero corner forces a row swap; a last row that combines two others
    makes the matrix singular, and the determinant must come out exactly 0."""
    for trial in range(40):
        n = rng.randint(3, 6)
        m = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
        m[0][0] = Fraction(0)
        if trial % 4 == 0:
            for row in m:
                row[0] = Fraction(0)
        p, q = random_fraction(rng), random_fraction(rng)
        m[-1] = [p * a + q * b for a, b in zip(m[0], m[1])]
        assert exact_det(m) == 0 == cofactor_det(m)
        m[-1][-1] += 1  # now regular unless the cofactor of the corner vanishes
        assert exact_det(m) == cofactor_det(m)


# -- Hankel transforms ----------------------------------------------------------


def per_minor_hankel(terms, max_n):
    """Oracle: one exact_det per leading minor, h_n = det(s[i+j]) for 0 <= i, j <= n."""
    return [
        exact_det([[terms[i + j] for j in range(n + 1)] for i in range(n + 1)])
        for n in range(max_n + 1)
    ]


def scaled_chebyshev(t):
    """Oracle: the Chebyshev recurrence on H_(k-1)-scaled int rows, the route
    hankel._monic_rows replaced.  Yields (H_k, sigma_(k,k+1)) for k = 0, 1, ...
    over the ints t_0..t_(L-1), up to the first of two consecutive zero minors
    H_k = H_(k+1) = 0; sigma_(k,k+1) is None where t is too short.

    sigma_(k,l) is det of the Hankel rows 0..k-1 of t over columns 0..k plus
    the row (t_l, ..., t_(l+k)), so sigma_(k,k) = H_k and sigma_(0,l) = t_l.
    From H_(-1) = 1 and sigma_(-1,.) = 0, with every division exact,
        c = H_(k-1) sigma_(k,k+1) - H_k sigma_(k-1,k),
        sigma_(k+1,l) = (H_k H_(k-1) sigma_(k,l+1) - c sigma_(k,l) - H_k^2 sigma_(k-1,l)) / H_(k-1)^2,
    and at a zero H_k (H_(k-1) != 0) a two-level look-ahead, which the block
    step of hankel._monic_rows generalizes to every run of zero minors.
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


def scaled_minors(t, max_n):
    """Oracle: H_0..H_max_n of the ints t from scaled_chebyshev, with one
    Bareiss elimination per minor past two consecutive zero minors."""
    t = list(t[: 2 * max_n + 1])
    minors = [h for h, _ in scaled_chebyshev(t)]
    for n in range(len(minors), max_n + 1):
        minors.append(hankel._bareiss([t[i : i + n + 1] for i in range(n + 1)]))
    return minors


hankel_term = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
zero_heavy_term = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2)])


@st.composite
def hankel_cases(draw, min_depth=0, max_depth=12):
    """(terms, depth) with int, p/q or zero-heavy terms, a few past the 2*depth + 1 needed."""
    depth = draw(st.integers(min_depth, max_depth))
    term = draw(st.sampled_from([st.integers(-9, 9), hankel_term, zero_heavy_term]))
    return draw(st.lists(term, min_size=2 * depth + 1, max_size=2 * depth + 3)), depth


def with_zero_block(terms, k, j=1):
    """terms changed so that h_k = ... = h_(k+j-1) = 0, or None when
    h_(k-1) = 0.  For i < j in turn, s_(2k+i) is solved for so that
    sigma_(k,k+i) = 0: the determinant of the Hankel rows 0..k-1 over columns
    0..k plus the row (s_(k+i), ..., s_(2k+i)), where s_(2k+i) enters only in
    the corner, with cofactor h_(k-1).  sigma_(k,k) = h_k, and with
    h_(k-1) != 0 these j zeros are exactly the j zero minors."""
    terms = list(terms)
    h = per_minor_hankel(terms, k - 1)[-1] if k else 1
    if h == 0:
        return None
    block = [[terms[i + c] for c in range(k + 1)] for i in range(k)]
    for i in range(j):
        terms[2 * k + i] = 0
        terms[2 * k + i] = -exact_det(block + [terms[k + i : 2 * k + i + 1]]) / h
    return terms


@settings(max_examples=150)
@given(hankel_cases())
def test_one_pass_hankel_matches_per_minor_oracle(case):
    terms, depth = case
    got = hankel_transform(Sequence.of(terms), depth).terms
    assert list(got) == per_minor_hankel(terms, depth)
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=50, deadline=None)
@given(hankel_cases(13, 24))
def test_hankel_matches_per_minor_oracle_at_depth_13_to_24(case):
    terms, depth = case
    got = hankel_transform(Sequence.of(terms), depth).terms
    assert list(got) == per_minor_hankel(terms, depth)
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=100)
@given(hankel_cases(), st.data())
def test_one_pass_hankel_past_a_forced_zero_minor(case, data):
    terms, depth = case
    k = data.draw(st.integers(0, depth))
    terms = with_zero_block(terms, k)
    assume(terms is not None)
    got = hankel_transform(Sequence.of(terms), depth).terms
    assert got[k] == 0
    assert list(got) == per_minor_hankel(terms, depth)
    assert all(type(v) is Fraction for v in got)


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The size of each matrix hankel._bareiss eliminates, in call order.
    The oracles call it too, so a test clears the list before its own calls."""
    calls = []
    bareiss = hankel._bareiss
    monkeypatch.setattr(hankel, "_bareiss", lambda m: calls.append(len(m)) or bareiss(m))
    return calls


# bareiss_calls is shared by the examples of a @given test; each clears it.
SHARED_FIXTURE = [HealthCheck.function_scoped_fixture]


@settings(max_examples=100, suppress_health_check=SHARED_FIXTURE)
@given(hankel_cases(1), st.data())
def test_hankel_past_two_consecutive_zero_minors(bareiss_calls, case, data):
    """The block step crosses h_k = h_(k+1) = 0, and no Bareiss elimination runs."""
    terms, depth = case
    k = data.draw(st.integers(0, depth - 1))
    terms = with_zero_block(terms, k, 2)
    assume(terms is not None)
    bareiss_calls.clear()
    got = hankel_transform(Sequence.of(terms), depth).terms
    assert bareiss_calls == []
    want = per_minor_hankel(terms, depth)
    assert want[k] == want[k + 1] == 0
    assert list(got) == want


@settings(max_examples=100, suppress_health_check=SHARED_FIXTURE)
@given(st.integers(1, 6), st.data())
def test_hankel_of_a_rational_series_is_zero_to_the_end(bareiss_calls, k, data):
    """P/Q with deg Q = k > deg P satisfies a recurrence of order k, so
    h_n = 0 for every n >= k: a zero tail, which one block step reaches."""
    depth = data.draw(st.integers(k, 12))
    q = [1] + data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    p = data.draw(st.lists(hankel_term, min_size=k, max_size=k))
    terms = rational_series(p, q, 2 * depth + 1).coeffs
    t = cleared(terms)
    bareiss_calls.clear()
    got = hankel_transform(Sequence.of(terms), depth).terms
    minors = hankel._minors(t, depth)
    assert bareiss_calls == []
    assert list(got) == per_minor_hankel(terms, depth)
    assert minors == scaled_minors(t, depth)
    assert not any(got[k:])


@settings(max_examples=150, deadline=None, suppress_health_check=SHARED_FIXTURE)
@given(hankel_cases(1, 16), st.data())
def test_block_step_across_a_forced_block_of_zero_minors(bareiss_calls, case, data):
    """A block of j = 1..5 zero minors from h_k, inside the depth or running
    past it as a zero tail, on int, p/q or zero-heavy terms: the block step
    matches both oracles, and no Bareiss elimination runs."""
    terms, depth = case
    k = data.draw(st.integers(0, depth))
    j = data.draw(st.integers(1, min(5, len(terms) - 2 * k)))
    terms = with_zero_block(terms, k, j)
    assume(terms is not None)
    t = cleared(terms)
    bareiss_calls.clear()
    got = hankel_transform(Sequence.of(terms), depth).terms
    minors = hankel._minors(t, depth)
    assert bareiss_calls == []
    assert not any(got[k : k + j])
    assert list(got) == per_minor_hankel(terms, depth)
    assert minors == scaled_minors(t, depth)


@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_zero_block_of_each_length_at_every_index(rng, bareiss_calls, j):
    """h_k = ... = h_(k+j-1) = 0 with every other minor nonzero, for every k
    at depth 12.  With j = 1 (the next test) j takes every class mod 4, so
    the sign (-1)^(j(j-1)/2) of the minor after the block takes both values."""
    for k in range(14 - j):
        while True:
            terms = with_zero_block([random_fraction(rng) for _ in range(25)], k, j)
            if terms is not None:
                want = per_minor_hankel(terms, 12)
                if [n for n, v in enumerate(want) if v == 0] == list(range(k, k + j)):
                    break
        t = cleared(terms)
        bareiss_calls.clear()
        got = hankel_transform(Sequence.of(terms), 12).terms
        minors = hankel._minors(t, 12)
        assert bareiss_calls == []
        assert list(got) == want
        assert minors == scaled_minors(t, 12)


def test_block_step_at_depth_64_past_an_early_block(rng, bareiss_calls):
    """[1, 1, 1, 1, 1, random ints]: h_1 = h_2 = 0 up front, where the route
    before the block step eliminated every later minor on its own (Bareiss,
    O(depth^4) in all); the block step carries the recurrence to depth 64."""
    t = [1] * 5 + [rng.randint(-9, 9) for _ in range(124)]
    got = hankel._minors(t, 64)
    assert bareiss_calls == []
    assert got[1] == got[2] == 0
    assert got == scaled_minors(t, 64)


def test_lone_zero_minor_at_every_index(rng, bareiss_calls):
    """h_k = 0 with every other minor nonzero, for k = 0..12 at depth 12: the
    Chebyshev recurrence steps across h_k, and no Bareiss elimination runs."""
    for k in range(13):
        while True:
            terms = with_zero_block([random_fraction(rng) for _ in range(25)], k)
            if terms is not None:
                want = per_minor_hankel(terms, 12)
                if [n for n, v in enumerate(want) if v == 0] == [k]:
                    break
        bareiss_calls.clear()
        assert list(hankel_transform(Sequence.of(terms), 12).terms) == want
        assert bareiss_calls == []


def test_hankel_takes_one_elimination_without_a_zero_minor(bareiss_calls):
    """Without a zero minor the Chebyshev recurrence gives every minor, and no
    Bareiss elimination runs."""
    c = catalan(41)
    assert hankel_transform(Sequence(c.coeffs), 20).integers() == [1] * 21
    assert bareiss_calls == []


def test_hankel_all_ones_collapses():
    h = hankel_transform(Sequence.of([1] * 9), 4)
    assert h.integers() == [1, 0, 0, 0, 0]


def test_hankel_catalan_is_all_ones():
    c = catalan(11)
    h = hankel_transform(Sequence(c.coeffs), 5)
    assert h.integers() == [1] * 6
    # against the cofactor oracle
    want = [
        cofactor_det([[c.coeffs[i + j] for j in range(n + 1)] for i in range(n + 1)])
        for n in range(6)
    ]
    assert list(h.terms) == want


def test_hankel_needs_enough_terms():
    with pytest.raises(InsufficientTerms):
        hankel_transform(Sequence.of([1, 2, 3]), 2)


@pytest.mark.parametrize("max_n", [-1, -2])
def test_hankel_rejects_negative_max_n(max_n):
    with pytest.raises(ValueError, match="max_n must be nonnegative"):
        hankel_transform(Sequence.of([1, 2, 3, 4, 5]), max_n)


def test_hankel_ignores_extra_terms(rng):
    base = [rng.randint(-5, 5) for _ in range(9)]
    h1 = hankel_transform(Sequence.of(base), 4)
    h2 = hankel_transform(Sequence.of(base + [rng.randint(-5, 5) for _ in range(4)]), 4)
    assert h1.terms == h2.terms


def cleared(terms) -> list[int]:
    """The exact terms as ints over their common denominator."""
    return _over_common_denominator([rational(v) for v in terms])[0]


@st.composite
def jfraction_coefficients(draw, min_depth=0, max_depth=16):
    """(b, lam) of a depth-d J-fraction with nonzero lambdas: small ints, small
    p/q, or lambdas as wide as the Hankel minors they build (lam_k up to
    2**(8k) bits), the kind whose monic rows do not stay small."""
    depth = draw(st.integers(min_depth, max_depth))
    kind = draw(st.sampled_from(["int", "p/q", "wide"]))
    if kind == "int":
        b_term, lam_terms = st.integers(-3, 3), [st.sampled_from([-3, -2, -1, 1, 2, 3])] * depth
    elif kind == "p/q":
        b_term, lam_terms = small_fraction, [small_fraction.filter(bool)] * depth
    else:
        b_term = st.integers(-(2**64), 2**64)
        lam_terms = [st.integers(1, 2 ** (8 * k)).map(lambda v: v * (-1) ** v) for k in range(1, depth + 1)]
    b = draw(st.lists(b_term, min_size=depth + 1, max_size=depth + 1))
    lam = [draw(term) for term in lam_terms]
    return JFraction(tuple(map(Fraction, b)), tuple(map(Fraction, lam)))


@settings(max_examples=100, deadline=None)
@given(jfraction_coefficients(), st.sampled_from([1, -2, Fraction(3, 5)]))
def test_monic_minors_match_scaled_oracle_on_jfraction_moments(jf, lead):
    """Moments of a J-fraction with small or H-sized lambdas: the monic rows
    give the minors of the scaled int recurrence and Heilermann's product
    h_n = lead^(n+1) prod_(i<=n) lam_i^(n+1-i)."""
    depth = len(jf.lam)
    terms = [lead * c for c in jfraction_series(jf, 2 * depth + 1).coeffs]
    t = cleared(terms)
    assert hankel._minors(t, depth) == scaled_minors(t, depth)
    want, p, h = [], Fraction(1), Fraction(1)
    for n in range(depth + 1):
        if n:
            p *= jf.lam[n - 1]
        h *= p
        want.append(h * lead ** (n + 1))
    assert list(hankel_transform(Sequence(tuple(terms)), depth).terms) == want


@settings(max_examples=100, deadline=None)
@given(hankel_cases(0, 16))
def test_monic_minors_match_scaled_oracle_on_random_moments(case):
    """Random int, p/q and zero-heavy terms, whose lambdas are H-sized."""
    terms, depth = case
    t = cleared(terms)
    assert hankel._minors(t, depth) == scaled_minors(t, depth)


@pytest.mark.parametrize("order, count", [(32, 60), (128, 8)])
def test_monic_minors_match_scaled_oracle_on_somos_closed_forms(order, count):
    """The minors the conjecture sweep reads: closed forms of seeded [-4..4]^4 points."""
    rng = random.Random(order)
    for _ in range(count):
        params = [rng.randint(-4, 4) for _ in range(4)]
        t = closed_form_f_general(*params, rng.randint(0, 1), order)._nums
        assert hankel._minors(t, (order - 1) // 2) == scaled_minors(t, (order - 1) // 2)


@settings(max_examples=100, deadline=None)
@given(hankel_cases(1, 16), st.data())
def test_monic_minors_match_scaled_oracle_past_zero_minors(case, data):
    """A block of one zero minor or of two."""
    terms, depth = case
    k = data.draw(st.integers(0, depth - 1))
    terms = with_zero_block(terms, k, data.draw(st.integers(1, 2)))
    assume(terms is not None)
    t = cleared(terms)
    got = hankel._minors(t, depth)
    assert got == scaled_minors(t, depth)
    assert got[k] == 0


@settings(max_examples=150, deadline=None)
@given(hankel_cases(0, 16), st.data())
def test_one_chebyshev_pass_gives_the_minors_and_the_jfraction(case, data):
    # one more term than the minors need adds the J-fraction's last heads and
    # changes no minor: row depth holds one entry without it and two with it
    terms, depth = case
    terms = terms + data.draw(st.lists(hankel_term, min_size=1, max_size=1))
    t = cleared(terms)
    minors, (b, lam) = hankel._chebyshev(t[: 2 * depth + 2], depth)
    assert minors == scaled_minors(t, depth)
    assert hankel._chebyshev(t[: 2 * depth + 1], depth) == (minors, (b[:depth], lam[: max(depth - 1, 0)]))
    # without the minors the pass stops where the J-fraction does, with the same heads
    assert hankel._chebyshev(t[: 2 * depth + 2], depth, minors=False) == (None, (b, lam))
    if t[0] != 0:
        jf = jfraction(Sequence.of(terms), depth)
        assert (jf.b, jf.lam) == (tuple(Fraction(*x) for x in b), tuple(Fraction(*x) for x in lam))
        assert jf.terminated == (len(b) == len(lam))


def test_integral_jfraction_rows_stay_over_one(rng):
    """Integer moments with an integral J-fraction: every row is ints over
    D_k = 1 (so no step divides), and the rows are <P_k, x^l>."""
    for depth in (1, 8, 32):
        for _ in range(6):
            b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(depth + 1))
            lam = tuple(Fraction(rng.choice([-5, -3, -1, 1, 2, 4])) for _ in range(depth))
            t = [int(v) for v in jfraction_series(JFraction(b, lam), 2 * depth + 1).coeffs]
            levels = list(hankel._monic_rows(t))
            assert len(levels) == depth + 1
            assert all(d == 1 for _, _, d in levels)
            # <P_k, x^k> = lam_1 ... lam_k, and <P_(k+1), x^(k+1)> / <P_k, x^k> = lam_(k+1)
            norm = 1
            for k, (_, row, _) in enumerate(levels):
                norm *= lam[k - 1] if k else 1
                assert row[0] == norm


def step_forms(t) -> list[tuple[int, str]]:
    """(k, form) for each step _monic_rows takes from level k on the ints t, read off
    the rows it yields: "block" where H_k = 0, else the three-term step, "integral"
    where its scalars over their gcd have a = 1 and D_(k+1) = D_k, and "general"
    otherwise, with "q = 1" where D_(k+1) = D_k a and "q > 1" where D_(k+1) is a
    proper divisor of D_k a."""
    levels = list(hankel._monic_rows(t))
    forms, (p0, p1) = [], (1, 0)
    for k, ((_, row, d), (_, after, d_after)) in enumerate(zip(levels, levels[1:])):
        if row is None:
            continue
        c0, c1 = row[0], row[1]
        if c0 == 0:
            forms.append((k, "block"))
        elif after is not None:
            a, bb, cc = c0 * p0, c1 * p0 - p1 * c0, c0 * c0
            a //= math.gcd(a, bb, cc) * (1 if a > 0 else -1)
            q = "q = 1" if d * a == d_after else "q > 1"
            forms.append((k, "integral" if a == 1 and q == "q = 1" else f"general, {q}"))
        p0, p1 = c0, c1
    return forms


@pytest.mark.parametrize(
    "form, level, t",
    [
        # Catalan numbers, an integral J-fraction: every row over 1
        ("integral", 0, [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]),
        ("general, q = 1", 0, [3, -2, 2, -3, -2, -3, -1, 0, 3, -2, 0, 1, -3]),
        ("general, q > 1", 1, [3, -2, 2, -3, -2, -3, -1, 0, 3, -2, 0, 1, -3]),
        # a = 1 with q > 1: the general step's row over q
        ("general, q > 1", 2, [-2, 2, -3, 3, -6, 6, -2, 1, -6, -4, 0, -3, 3]),
        # H_1 = 0
        ("block", 1, [1, 1, 1, 1, 1, 2, -1, 3, 0, 2, -2, 1, 1]),
    ],
)
def test_each_form_of_the_chebyshev_step(form, level, t):
    """One named input per form of the step, taken at the given level with
    later minors that read its row, against the scaled oracle."""
    assert (level, form) in step_forms(t)
    assert hankel._minors(t, 6) == scaled_minors(t, 6)


@pytest.mark.parametrize(
    "t, minors",
    [
        ([1] * 9, [1, 0, 0, 0, 0, 0, 0, 0]),  # a row with no nonzero entry
        ([1, 1, 1, 1, 1, 2], [1, 0, 0, 0, 1]),  # too few terms for the row past the block
        ([1, 0, 0, 0, 0, 0, 0, 3], [1, 0, 0, 0, 0, 0, -729]),
        ([2, 1, 0, 0, 0, 0, 0, 0, 5], [2, -1, 0, 0, 0, 0, -3125]),
    ],
)
def test_monic_rows_end_in_a_block_with_exact_minors_past_the_end_of_t(rng, t, minors):
    # the rows run out inside a block step; a minor H_k with 2k + 1 > len(t) reads
    # terms past t, and is the Hankel determinant of every extension of t
    assert [h for h, _, _ in hankel._monic_rows(t)] == minors
    for _ in range(30):
        ext = t + [rng.randint(-9, 9) for _ in range(2 * len(minors) - 1 - len(t))]
        assert [exact_det([ext[i : i + k + 1] for i in range(k + 1)]) for k in range(len(minors))] == minors


# -- Somos fitting ----------------------------------------------------------------


def test_fit_signed_somos_window():
    h = Sequence.of([1, 1, -2, -1, 3, -5, -7, -4, 23, 29, -59])
    fit = somos_fit(h)
    assert fit.kind == UNIQUE and fit.alpha == 1 and fit.beta == 1


def test_fit_grown_somos_window():
    fit = somos_fit(Sequence.of([1, 4, 28, 304, 14272, 676864]))
    assert fit.kind == UNIQUE and fit.alpha == 4 and fit.beta == 12


def test_fit_all_ones_is_a_family():
    fit = somos_fit(Sequence.of([1] * 8))
    assert fit.kind == FAMILY
    assert fit.family_description == (1, 1, 1)
    assert fit_allows(fit, 4, -3)
    assert not fit_allows(fit, 4, -2)


def test_fit_short_input_is_insufficient():
    assert somos_fit(Sequence.of([1, 1, 1, 1, 1])).kind == INSUFFICIENT


def test_fit_zero_windows_are_skipped():
    # all window products vanish: nothing constrains (alpha, beta)
    fit = somos_fit(Sequence.of([1, 0, 0, 0, 0, 0, 0]))
    assert fit.kind == INSUFFICIENT


def test_fit_reports_first_contradiction():
    fit = somos_fit(Sequence.of([1, 1, 1, 1, 1, 1, 2]))
    assert fit.kind == INCONSISTENT
    assert fit.failing_index == 6


def test_fit_detects_impossible_window():
    # window 4 has zero coefficients against a nonzero right side
    fit = somos_fit(Sequence.of([1, 0, 0, 0, 1, 1]))
    assert fit.kind == INCONSISTENT
    assert fit.failing_index == 4


def somos_terms(alpha, beta, start, count):
    """The Somos-4 sequence of (alpha, beta) from four start terms, cut at the
    first zero divisor: every window of it holds."""
    t = [Fraction(v) for v in start]
    while len(t) < count and t[-4] != 0:
        t.append((alpha * t[-1] * t[-3] + beta * t[-2] ** 2) / t[-4])
    return t


@st.composite
def somos_cases(draw):
    """Terms for the fit: random ints or p/q (mostly Inconsistent), zero-heavy
    (zero windows, InsufficientData), Somos-4 sequences with a term perhaps
    changed (Unique, Inconsistent late), geometric (Family), and short ones."""
    kind = draw(st.sampled_from(["int", "p/q", "zeros", "somos", "geometric", "short"]))
    if kind == "int":
        return draw(st.lists(st.integers(-3, 3), min_size=6, max_size=12))
    if kind == "p/q":
        return draw(st.lists(small_fraction, min_size=6, max_size=12))
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0, 0, 0, 1, -2, Fraction(1, 3)]), min_size=6, max_size=12))
    if kind == "short":
        return draw(st.lists(small_fraction, min_size=1, max_size=5))
    if kind == "geometric":
        c, r = draw(small_fraction.filter(bool)), draw(small_fraction)
        return [c * r**n for n in range(draw(st.integers(6, 12)))]
    alpha, beta = draw(small_fraction), draw(small_fraction)
    start = draw(st.lists(small_fraction.filter(bool), min_size=4, max_size=4))
    t = somos_terms(alpha, beta, start, draw(st.integers(6, 14)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(t) - 1))
        t[i] = draw(small_fraction)
    return t


@settings(max_examples=300)
@given(somos_cases())
def test_int_fit_matches_fraction_oracle(terms):
    h = Sequence.of(terms)
    assert somos_fit(h) == somos_fit_by_fractions(h)


@settings(max_examples=200)
@given(somos_cases(), st.integers(1, 12))
def test_int_fit_on_minors_matches_fit_of_their_quotients(terms, d):
    # the pipeline fits the minors H_n of h_n = H_n / d**(n+1): window n scales by d**(2n-2)
    minors = cleared(terms)
    h = Sequence(Fraction(v, d ** (n + 1)) for n, v in enumerate(minors))
    assert hankel._somos_fit_ints(minors) == somos_fit_by_fractions(h)


@pytest.mark.parametrize(
    "terms, kind",
    [
        (somos_terms(2, -3, [1, 2, -1, 3], 10), UNIQUE),
        (somos_terms(Fraction(1, 2), 3, [1, Fraction(1, 3), -2, 1], 9), UNIQUE),
        ([Fraction(2, 3) * 3**n for n in range(9)], FAMILY),
        ([1, 1, 1, 0, 0, 0, 0, 1], FAMILY),  # windows 5 and 6 are zero
        ([1, 0, 0, 0, 0, 0, 0], INSUFFICIENT),
        ([1, 2, 3], INSUFFICIENT),
        ([1, 0, 0, 0, 1, 1], INCONSISTENT),
        (somos_terms(2, -3, [1, 2, -1, 3], 9) + [1], INCONSISTENT),
        ([1, 1, 1, 1, 1, 1, Fraction(5, 2)], INCONSISTENT),
    ],
)
def test_int_fit_matches_fraction_oracle_on_each_kind(terms, kind):
    h = Sequence.of(terms)
    assert somos_fit(h) == somos_fit_by_fractions(h)
    assert somos_fit(h).kind == kind


@given(
    st.lists(st.integers(-3, 3), min_size=6, max_size=10),
)
def test_fit_solutions_always_verify(terms):
    seq = Sequence.of(terms)
    fit = somos_fit(seq)
    if fit.kind == UNIQUE:
        assert somos_verify(seq, fit.alpha, fit.beta)
    elif fit.kind == FAMILY:
        p, q, r = fit.family_description
        # any point on the line verifies; try two
        if q != 0:
            assert somos_verify(seq, 0, r / q)
        if p != 0:
            assert somos_verify(seq, r / p, 0)


# -- Somos verification --------------------------------------------------------


def test_verify_zero_bearing_sequence():
    h = Sequence.of([1, 0, -4, -16, -64, 0, 4096, 65536, 1048576, 0, -1073741824])
    assert somos_verify(h, 4, -4)
    assert not somos_verify(h, 4, 4)


def test_verify_somos_shift():
    assert somos_verify(Sequence.of([1, 1, 2, 3, 7, 23, 59, 314, 1529]), 1, 1)


def test_verify_rejects_wrong_parameters():
    assert not somos_verify(Sequence.of([1, 1, 2, 3, 7]), 0, 0)


def test_verify_needs_five_terms():
    with pytest.raises(ValueError):
        somos_verify(Sequence.of([1, 1, 2, 3]), 1, 1)


@settings(max_examples=300)
@given(st.data())
def test_int_verify_matches_the_fraction_form(data):
    # Somos-4 terms of (alpha, beta), perhaps with a term changed, often to zero, and
    # checked against their own pair or a random one: the windows on the stored ints
    # with alpha, beta over one denominator against the windows on the Fraction terms
    alpha, beta = data.draw(small_fraction), data.draw(small_fraction)
    start = [data.draw(small_fraction.filter(bool)), *data.draw(st.lists(small_fraction, min_size=3, max_size=3))]
    t = somos_terms(alpha, beta, start, data.draw(st.integers(5, 12)))
    if data.draw(st.booleans()):
        t[data.draw(st.integers(0, len(t) - 1))] = data.draw(st.sampled_from([0, 0, Fraction(1, 2), -3]))
    a, b = data.draw(st.one_of(st.just((alpha, beta)), st.tuples(small_fraction, small_fraction)))
    s = Sequence.of(t)
    want = all(a * p + b * q == r for _, p, q, r in hankel._somos_windows(s.terms))
    assert somos_verify(s, a, b) is want


# -- J-fractions ------------------------------------------------------------------


def inversion_jfraction(terms, depth):
    """Oracle: peel one level per series inversion.  With t the normalized
    tail, 1 - 1/t = b x + lam x^2 t' gives b, lam and the next tail t'."""
    t = PowerSeries(tuple(Fraction(v) for v in terms)) / Fraction(terms[0])
    bs, lams = [], []
    for level in range(depth + 1):
        w = 1 - (1 / t)
        bs.append(w.coeffs[1])
        if level == depth:
            break
        lams.append(w.coeffs[2])
        if w.coeffs[2] == 0:
            return JFraction(tuple(bs), tuple(lams), terminated=True)
        t = PowerSeries(w.coeffs[2:]) / w.coeffs[2]
    return JFraction(tuple(bs), tuple(lams), terminated=False)


def rational_chebyshev_jfraction(s: Sequence, depth: int) -> JFraction:
    """Oracle: the Chebyshev algorithm over Fractions on the normalized moments
    m_l = s_l / s_0.  From sigma_(-1,l) = 0 and sigma_(0,l) = m_l, level k >= 1 has

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


def test_jfraction_fifth_column_values():
    col = solve_f(AMatrixSpec([[1, 1, 0], [1, 1, 1]]), 13).f.div_x()
    jf = jfraction(Sequence(col.coeffs), 3)
    assert list(jf.b) == [2, -2, Fraction(11, 4), Fraction(43, 12)]
    assert list(jf.lam) == [-1, -4, Fraction(3, 16)]
    assert not jf.terminated


def test_jfraction_geometric_terminates():
    jf = jfraction(Sequence.of([1] * 8), 3)
    assert list(jf.b) == [1]
    assert list(jf.lam) == [0]
    assert jf.terminated


def test_jfraction_motzkin_is_all_ones():
    m = solve_f(AMatrixSpec([[1, 0, 1], [1, 1, 1]]), 15).f.div_x()
    jf = jfraction(Sequence(m.coeffs), 5)
    assert list(jf.b) == [1] * 6
    assert list(jf.lam) == [1] * 5
    # lambda oracle: lam_n = h_n h_(n-2) / h_(n-1)^2 with h_(-1) = 1
    h = per_minor_hankel(m.coeffs, 6)
    for n in range(1, 6):
        hm2 = h[n - 2] if n >= 2 else Fraction(1)
        assert jf.lam[n - 1] == h[n] * hm2 / h[n - 1] ** 2


def test_jfraction_needs_terms():
    with pytest.raises(InsufficientTerms):
        jfraction(Sequence.of([1, 2, 3]), 3)
    with pytest.raises(ValueError):
        jfraction(Sequence.of([0, 1, 2, 3]), 0)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        jfraction(Sequence.of([1, 2, 3]), -1)


def test_jfraction_reconstruction(rng):
    # random sequences with unit leading term; skip degenerate extractions
    done = 0
    while done < 8:
        terms = [1] + [rng.randint(-4, 4) for _ in range(11)]
        jf = jfraction(Sequence.of(terms), 4)
        if jf.terminated:
            continue
        rebuilt = jfraction_series(jf, 10)
        assert rebuilt.coeffs[:10] == tuple(Fraction(t) for t in terms)[:10]
        done += 1


def test_hankel_lambda_product_identity(rng):
    # h_n = prod_i lam_i^(n+1-i) for sequences with nonvanishing transform
    done = 0
    while done < 10:
        terms = [1] + [rng.randint(-4, 4) for _ in range(11)]
        h = per_minor_hankel(terms, 4)
        if any(v == 0 for v in h):
            continue
        jf = jfraction(Sequence.of(terms), 4)
        for n in range(1, 5):
            prod = Fraction(1)
            for i in range(1, n + 1):
                prod *= jf.lam[i - 1] ** (n + 1 - i)
            assert h[n] == prod
        done += 1


moment = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.just(0),
)


@st.composite
def jfraction_moments(draw, min_depth=0, max_depth=12):
    """(terms, depth): zero-heavy or random moments, or the moments of a
    J-fraction whose lambda_k vanishes at a drawn level k (then the tail
    after term 2k is redrawn, which leaves that lambda zero)."""
    depth = draw(st.integers(min_depth, max_depth))
    need = 2 * depth + 2
    lead = draw(moment.filter(bool))
    if depth == 0 or draw(st.booleans()):
        rest = draw(st.lists(moment, min_size=need - 1, max_size=need + 2))
        return [lead] + rest, depth
    k = draw(st.integers(1, depth))
    b = draw(st.lists(moment, min_size=depth + 1, max_size=depth + 1))
    lam = draw(st.lists(moment.filter(bool), min_size=depth, max_size=depth))
    lam[k - 1] = 0
    terms = [lead * c for c in jfraction_series(JFraction(tuple(b), tuple(lam)), need).coeffs]
    tail = draw(st.lists(moment, min_size=need - 2 * k - 1, max_size=need - 2 * k - 1))
    return terms[: 2 * k + 1] + tail, depth


@settings(max_examples=100)
@given(jfraction_moments())
def test_chebyshev_jfraction_matches_inversion_oracle(case):
    terms, depth = case
    got = jfraction(Sequence(tuple(terms)), depth)
    assert got == inversion_jfraction(terms, depth)
    assert all(type(v) is Fraction for v in got.b + got.lam)


# ~200-bit numerators over large prime denominators (Mersenne primes 2^p - 1)
wide_moment = st.builds(
    Fraction, st.integers(-(2**200), 2**200), st.sampled_from([1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1])
)


@st.composite
def wide_jfraction_moments(draw, max_depth):
    """(terms, depth) with wide rational moments, a few past the 2*depth + 2 needed."""
    depth = draw(st.integers(0, max_depth))
    need = 2 * depth + 2
    return [draw(wide_moment.filter(bool))] + draw(st.lists(wide_moment, min_size=need - 1, max_size=need + 1)), depth


@settings(max_examples=100, deadline=None)
@given(st.one_of(jfraction_moments(), wide_jfraction_moments(6)))
def test_integer_chebyshev_jfraction_matches_both_oracles(case):
    terms, depth = case
    got = jfraction(Sequence(tuple(terms)), depth)
    assert got == rational_chebyshev_jfraction(Sequence(tuple(terms)), depth)
    assert got == inversion_jfraction(terms, depth)
    assert all(type(v) is Fraction for v in got.b + got.lam)


@settings(max_examples=30, deadline=None)
@given(wide_jfraction_moments(24))
def test_integer_chebyshev_jfraction_matches_rational_oracle_to_depth_24(case):
    """Wide moments to depth 24 against the rational Chebyshev oracle only: the
    series-inversion oracle grows about 4x per two levels on them, to minutes."""
    terms, depth = case
    got = jfraction(Sequence(tuple(terms)), depth)
    assert got == rational_chebyshev_jfraction(Sequence(tuple(terms)), depth)
    assert all(type(v) is Fraction for v in got.b + got.lam)


def test_jfraction_stops_at_the_first_vanishing_lambda(rng):
    # depth 12 with lambda_k = 0 at each level k in turn, p/q coefficients
    for level in range(1, 13):
        b = tuple(random_fraction(rng) for _ in range(13))
        lam = [random_nonzero_fraction(rng) for _ in range(12)]
        lam[level - 1] = Fraction(0)
        terms = jfraction_series(JFraction(b, tuple(lam)), 26).coeffs
        got = jfraction(Sequence(terms), 12)
        assert got == JFraction(b[:level], tuple(lam[:level]), terminated=True)
        assert got == inversion_jfraction(terms, 12)


def scaled_jfraction(s: Sequence, depth: int) -> JFraction:
    """Oracle: the J-fraction read off scaled_chebyshev, the route before
    monic rows.  With H_(-2) = H_(-1) = 1 and sigma_(-1,0) = 0,

        lam_k = H_k H_(k-2) / H_(k-1)^2,
        b_k = sigma_(k,k+1) / H_k - sigma_(k-1,k) / H_(k-1).
    """
    bs: list[Fraction] = []
    lams: list[Fraction] = []
    h1 = h2 = 1  # H_(k-1), H_(k-2)
    s1 = 0  # sigma_(k-1,k)
    t, _ = _over_common_denominator(s.terms[: 2 * depth + 2])
    for h, sk in scaled_chebyshev(t):
        if bs:
            lams.append(Fraction(h * h2, h1 * h1))
            if h == 0:
                return JFraction(tuple(bs), tuple(lams), terminated=True)
        bs.append(Fraction(h1 * sk - h * s1, h * h1))
        h2, h1, s1 = h1, h, sk
    return JFraction(tuple(bs), tuple(lams), terminated=False)


@pytest.mark.parametrize("depth", [0, 1, 2, 24])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jfraction_matches_scaled_oracle(depth, data):
    """Random, zero-heavy and terminating moments (a lambda forced to 0) at a
    fixed depth: the same b, lambda and terminated flag as the scaled route."""
    terms, _ = data.draw(jfraction_moments(depth, depth))
    got = jfraction(Sequence(tuple(terms)), depth)
    assert got == scaled_jfraction(Sequence(tuple(terms)), depth)
    assert all(type(v) is Fraction for v in got.b + got.lam)


@settings(max_examples=60, deadline=None)
@given(jfraction_coefficients(0, 24), st.sampled_from([1, -3, Fraction(2, 7)]))
def test_jfraction_recovers_its_coefficients(jf, lead):
    """The J-fraction of the moments of (b, lam), small or H-sized, is (b, lam)."""
    depth = len(jf.lam)
    terms = [lead * c for c in jfraction_series(jf, 2 * depth + 2).coeffs]
    got = jfraction(Sequence(tuple(terms)), depth)
    assert got == jf
    assert got == scaled_jfraction(Sequence(tuple(terms)), depth)


# -- the genus-1 grid route ---------------------------------------------------

SPECS = pathlib.Path(__file__).parent.parent / "specs"
GRID_SPECS = {
    **{name: AMatrixSpec.from_dict(json.loads((SPECS / f"{name}.json").read_text()))
       for name in ("a171416", "motzkin", "pascal", "perturbed_moments", "schroeder")},
    "repeat-row": AMatrixSpec([[1, 1, 1], [1, -1, 2]], [1], True),
    "rho2-repeat": AMatrixSpec([[1, 3, -2], [4, -1, 5]], [2], True),
    "rho-2": AMatrixSpec([[1, -3, 2], [2, 5, -1]], [-2]),
    "rho7": AMatrixSpec([[1, 7, -5], [6, -7, 7]], [7]),
    "pq": AMatrixSpec([[1, "1/2", "-2/3"], [1, "3/4", 5]], ["1/3"]),
    "pq-repeat": AMatrixSpec([[1, "1/2", "-2/3"], ["5/6", "3/4", 5]], ["1/3"], True),
}


def grid_entries(spec):
    """The free entries e = (e02, e11, e12, e20, e21, e22) of the spec's int grid padded to 3 x 3,
    which must have row 0 (0, -1, e02) and e10 = 1."""
    rows, _, _ = spec._grid
    e = [list(row) + [0] * (3 - len(row)) for row in rows] + [[0] * 3] * (3 - len(rows))
    assert len(e) == 3 and all(len(row) == 3 for row in e)
    assert e[0][:2] == [0, -1] and e[1][0] == 1
    return e[0][2], e[1][1], e[1][2], e[2][0], e[2][1], e[2][2]


def spec_column(spec, depth):
    """The ints t'_0..t'_(2 depth) of the column of the spec's int grid, t'_n = mu^(n+1)/lam t_n
    for the t_n of f/x and the root f of the spec; t' = t for an int spec, mu = lam = 1."""
    _, mu, lam = spec._grid
    f = solve_f(spec, 2 * depth + 2).f
    t = [Fraction(c * mu**n, lam) for n, c in enumerate(f.coeffs)][1:]
    assert all(v.denominator == 1 for v in t)
    return [v.numerator for v in t]


@pytest.mark.parametrize("name", GRID_SPECS)
def test_the_grid_route_gives_the_chebyshev_minors(name):
    e = grid_entries(GRID_SPECS[name])
    quartic, _ = hankel._genus1_quartic(e)
    assert hankel._quartic_minors(e, quartic, 30) == hankel._minors(spec_column(GRID_SPECS[name], 30), 30)


@pytest.mark.parametrize("name, invariants", [
    ("a171416", (1, 1)),
    ("repeat-row", (121, -343)),
    ("rho2-repeat", (9801, -81791)),
    ("rho-2", (3969, -27963)),
    ("rho7", (7634169, -702660357)),
])
def test_the_grid_invariants_are_the_somos_fit(name, invariants):
    """On the genus-1 grids the quartic's invariants are the pair that somos_fit finds on the
    Chebyshev route's Hankel transform of the column."""
    spec = GRID_SPECS[name]
    assert hankel._genus1_quartic(grid_entries(spec))[1] == invariants
    fit = somos_fit(hankel_transform(Sequence(spec_column(spec, 30)), 30))
    assert (fit.kind, fit.alpha, fit.beta) == (UNIQUE, *invariants)
