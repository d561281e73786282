"""Acceptance gate: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Comparisons are exact rational equality (tolerance zero); the
only non-exact limits are the two stated time budgets.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

from riordan.series import PowerSeries, Sequence, rational_series
from riordan.core import (
    a_sequence,
    bell_from_f,
    diagonal_sums,
    production_matrix,
    quasi_involution_check,
    riordan_inverse,
    riordan_mul,
    riordan_triangle,
)
from riordan.amatrix import (
    AMatrixSpec,
    binomial_transform_equation_check,
    closed_form_f_general,
    direct_triangle,
    functional_equation_residual,
    narayana_poly_coeffs,
    solve_f,
)
from riordan.amatrix import bell_pair as spec_pair
from riordan.hankel import (
    UNIQUE,
    hankel_transform,
    jfraction,
    somos_fit,
    somos_verify,
)
from riordan.verify import CONFIRMED, check_conjecture_point
from riordan.verify import sweep_conjecture_rho0, sweep_conjecture_rho_delta

from conftest import fit_allows, random_fraction, random_nonzero_fraction
from test_amatrix import random_specs


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} [{label}]: FAIL")
        raise
    else:
        print(f"criterion {n:2d} [{label}]: PASS")


def bell_pair(rows, rho, order=32, repeat=False):
    return bell_from_f(solve_f(AMatrixSpec(rows, rho, repeat), order).f)


def column_of(rows, rho, order=32, repeat=False):
    return bell_pair(rows, rho, order, repeat).g


def test_criterion_01_array_characterizations():
    with criterion(1, "solver fixtures"):
        pascal = solve_f(AMatrixSpec([[1, 0, 0], [0, -1, -1]], [1]), 16).f
        assert pascal.coeffs == rational_series([0, 1], [1, -1], 16).coeffs

        alt1 = solve_f(AMatrixSpec([[1, 0, 1], [-1, -1, 0]], [1]), 16).f
        alt2 = solve_f(AMatrixSpec([[1, -1, 1], [0, -1, 0]], [1]), 16).f
        simple = solve_f(AMatrixSpec([[1]], []), 16).f
        x = PowerSeries.x(16)
        assert alt1.coeffs == x.coeffs and alt2.coeffs == x.coeffs
        assert simple.coeffs == x.coeffs
        assert alt1.coeffs == alt2.coeffs

        motzkin = bell_pair([[1, 0, 1], [1, 1, 1]], [])
        assert riordan_triangle(motzkin, 7).integers() == [
            [1],
            [1, 1],
            [2, 2, 1],
            [4, 5, 3, 1],
            [9, 12, 9, 4, 1],
            [21, 30, 25, 14, 5, 1],
            [51, 76, 69, 44, 20, 6, 1],
        ]

        ex4 = bell_pair([[1, 0, 1], [1, 1, 0]], [])
        assert riordan_triangle(ex4, 7).integers() == [
            [1],
            [1, 1],
            [2, 2, 1],
            [3, 5, 3, 1],
            [7, 10, 9, 4, 1],
            [13, 24, 22, 14, 5, 1],
            [31, 52, 57, 40, 20, 6, 1],
        ]


def test_criterion_02_somos_pipeline_under_two_seconds():
    with criterion(2, "column + Hankel + fit, < 2 s"):
        started = time.perf_counter()
        f = solve_f(AMatrixSpec([[1, 0, 1], [1, 1, 0]], []), 32).f
        assert f.integers(12) == [0, 1, 1, 2, 3, 7, 13, 31, 65, 156, 351, 849]
        h = hankel_transform(Sequence(f.div_x().coeffs), 10)
        assert h.integers() == [1, 1, 2, 3, 7, 23, 59, 314, 1529, 8209, 83313]
        fit = somos_fit(h)
        assert fit.kind == UNIQUE and (fit.alpha, fit.beta) == (1, 1)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_03_signed_expansion():
    with criterion(3, "signed two-row example"):
        fx = closed_form_f_general(-2, -1, 1, 0, 0, 21)
        assert fx.integers(11) == [1, -1, 2, -3, 3, 1, -15, 47, -98, 133, -17]
        h = hankel_transform(Sequence(fx.coeffs), 10)
        assert h.integers() == [1, 1, -2, -1, 3, -5, -7, -4, 23, 29, -59]
        fit = somos_fit(h)
        assert fit.kind == UNIQUE and (fit.alpha, fit.beta) == (1, 1)
        v = fx.coeffs
        for n in range(3, 21):
            assert v[n] == -2 * v[n - 1] - v[n - 2] - sum(
                v[i + 1] * v[n - i - 3] for i in range(n - 3)
            )


def test_criterion_04_three_worked_examples():
    with criterion(4, "triangles, J-fraction, zero-bearing verify, r-family"):
        # (i)
        spec_i = AMatrixSpec([[1, 1, 0], [1, 1, 1]], [])
        assert direct_triangle(spec_i, 7).integers() == [
            [1],
            [2, 1],
            [3, 4, 1],
            [6, 10, 6, 1],
            [13, 24, 21, 8, 1],
            [29, 59, 62, 36, 10, 1],
            [66, 146, 174, 128, 55, 12, 1],
        ]
        col_i = column_of([[1, 1, 0], [1, 1, 1]], [])
        h_i = hankel_transform(Sequence(col_i.coeffs), 5)
        assert h_i.integers() == [1, -1, -4, -3, 19, 67]
        fit_i = somos_fit(hankel_transform(Sequence(col_i.coeffs), 8))
        assert fit_i.kind == UNIQUE and (fit_i.alpha, fit_i.beta) == (1, 1)
        jf = jfraction(Sequence(col_i.coeffs), 3)
        assert list(jf.b) == [2, -2, Fraction(11, 4), Fraction(43, 12)]
        assert list(jf.lam) == [-1, -4, Fraction(3, 16)]

        # (ii)
        col_ii = column_of([[1, 0, 1], [1, 0, 1]], [])
        assert col_ii.integers(12) == [1, 1, 1, 3, 5, 11, 25, 55, 129, 303, 721, 1743]
        h_ii = hankel_transform(Sequence(col_ii.coeffs), 10)
        assert h_ii.integers() == [
            1, 0, -4, -16, -64, 0, 4096, 65536, 1048576, 0, -1073741824,
        ]
        assert somos_verify(h_ii, 4, -4)

        # (iii)
        col_iii = column_of([[1, 0, 1], [1, 4, 1]], [])
        h_iii = hankel_transform(Sequence(col_iii.coeffs), 5)
        assert h_iii.integers() == [1, 4, 28, 304, 14272, 676864]
        fit_iii = somos_fit(hankel_transform(Sequence(col_iii.coeffs), 8))
        assert fit_iii.kind == UNIQUE and (fit_iii.alpha, fit_iii.beta) == (4, 12)
        for r in range(5):
            col_r = column_of([[1, 0, 1], [1, r, 1]], [])
            h_r = hankel_transform(Sequence(col_r.coeffs), 8)
            want = (Fraction(4), Fraction(r * r - 4))
            assert somos_verify(h_r, *want)
            assert fit_allows(somos_fit(h_r), *want)


def test_criterion_05_quasi_involution():
    with criterion(5, "quasi-involution"):
        pair = bell_pair([[1, 0, 1], [0, 1, 0]], [], order=24)
        assert riordan_triangle(pair, 8).integers() == [
            [1],
            [0, 1],
            [2, 0, 1],
            [0, 4, 0, 1],
            [6, 0, 6, 0, 1],
            [0, 16, 0, 8, 0, 1],
            [22, 0, 30, 0, 10, 0, 1],
            [0, 68, 0, 48, 0, 12, 0, 1],
        ]
        assert riordan_triangle(riordan_inverse(pair), 8).integers() == [
            [1],
            [0, 1],
            [-2, 0, 1],
            [0, -4, 0, 1],
            [6, 0, -6, 0, 1],
            [0, 16, 0, -8, 0, 1],
            [-22, 0, 30, 0, -10, 0, 1],
            [0, -68, 0, 48, 0, -12, 0, 1],
        ]
        aerated = pair.g
        assert all(c == 0 for c in aerated.coeffs[1::2])
        assert quasi_involution_check(PowerSeries(aerated.coeffs[0::2]))


def test_criterion_06_delta_rho_examples():
    with criterion(6, "delta-rho families"):
        col = column_of([[1, 0, 1], [1, 1, 0]], [1])
        assert col.integers(7) == [1, 2, 6, 22, 90, 394, 1806]
        aseq = a_sequence(spec_pair(AMatrixSpec([[1, 0, 1], [1, 1, 0]], [1]), 13))
        assert aseq.integers()[:8] == [1, 2, 2, 2, 2, 2, 2, 2]

        tri = direct_triangle(AMatrixSpec([[1, -2, 2], [1, -1, 1]], [1]), 7)
        assert tri.integers() == [
            [1],
            [0, 1],
            [1, 0, 1],
            [1, 2, 0, 1],
            [3, 2, 3, 0, 1],
            [6, 7, 3, 4, 0, 1],
            [15, 14, 12, 4, 5, 0, 1],
        ]
        aseq2 = a_sequence(spec_pair(AMatrixSpec([[1, -2, 2], [1, -1, 1]], [1]), 13))
        assert aseq2.integers()[:5] == [1, 0, 1, 1, 1]

        col1 = column_of([[1, 0, -1], [1, 0, -2]], [1])
        h1 = hankel_transform(Sequence(col1.coeffs), 5)
        assert h1.integers() == [1, -1, 3, 4, 5, -31]
        fit1 = somos_fit(hankel_transform(Sequence(col1.coeffs), 8))
        assert fit1.kind == UNIQUE and (fit1.alpha, fit1.beta) == (1, 1)

        col2 = column_of([[1, 0, -1], [1, -2, 2]], [1])
        h2 = hankel_transform(Sequence(col2.coeffs), 5)
        assert h2.integers() == [1, -3, -13, 14, 465, 1819]
        fit2 = somos_fit(hankel_transform(Sequence(col2.coeffs), 8))
        assert fit2.kind == UNIQUE and (fit2.alpha, fit2.beta) == (1, 3)


def test_criterion_07_linear_rho_families():
    with criterion(7, "linear-rho families"):
        hybrid = AMatrixSpec([[1, 1]], [1, 1])
        assert direct_triangle(hybrid, 7).integers() == [
            [1],
            [2, 1],
            [7, 4, 1],
            [31, 18, 6, 1],
            [154, 90, 33, 8, 1],
            [820, 481, 185, 52, 10, 1],
            [4575, 2690, 1065, 324, 75, 12, 1],
        ]
        prod = production_matrix(bell_pair([[1, 1]], [1, 1]), 6)
        assert prod.integer_rows() == [
            [2, 1, 0, 0, 0, 0],
            [3, 2, 1, 0, 0, 0],
            [5, 3, 2, 1, 0, 0],
            [8, 5, 3, 2, 1, 0],
            [13, 8, 5, 3, 2, 1],
            [21, 13, 8, 5, 3, 2],
        ]

        doubled = bell_pair([[1, 1]], [1, 2])
        assert doubled.g.integers(7) == [1, 2, 8, 40, 224, 1344, 8448]
        assert a_sequence(doubled).integers()[:6] == [1, 2, 4, 8, 16, 32]
        prod2 = production_matrix(doubled, 6)
        assert prod2.integer_rows() == [
            [2, 1, 0, 0, 0, 0],
            [4, 2, 1, 0, 0, 0],
            [8, 4, 2, 1, 0, 0],
            [16, 8, 4, 2, 1, 0],
            [32, 16, 8, 4, 2, 1],
            [64, 32, 16, 8, 4, 2],
        ]

        jac = AMatrixSpec([[1, 2]], [1, 2])
        assert direct_triangle(jac, 7).integers() == [
            [1],
            [3, 1],
            [14, 6, 1],
            [83, 37, 9, 1],
            [554, 250, 69, 12, 1],
            [3966, 1802, 528, 110, 15, 1],
            [29756, 13580, 4122, 944, 160, 18, 1],
        ]
        prod3 = production_matrix(bell_pair([[1, 2]], [1, 2]), 6)
        assert prod3.integer_rows() == [
            [3, 1, 0, 0, 0, 0],
            [5, 3, 1, 0, 0, 0],
            [11, 5, 3, 1, 0, 0],
            [21, 11, 5, 3, 1, 0],
            [43, 21, 11, 5, 3, 1],
            [85, 43, 21, 11, 5, 3],
        ]

        nar = narayana_poly_coeffs(11)
        assert [list(r) for r in nar.rows[:7]] == [
            [1],
            [1, 1],
            [2, 4, 1],
            [5, 15, 10, 1],
            [14, 56, 63, 20, 1],
            [42, 210, 336, 196, 35, 1],
            [132, 792, 1650, 1440, 504, 56, 1],
        ]
        assert diagonal_sums(nar).integers() == [
            1, 1, 3, 9, 30, 108, 406, 1577, 6280, 25499, 105169,
        ]

        wide = AMatrixSpec([[1, 0, 0, 1], [0, 1, 0, 0]], [1])
        assert direct_triangle(wide, 7).integers() == [
            [1],
            [1, 1],
            [3, 2, 1],
            [9, 7, 3, 1],
            [30, 24, 12, 4, 1],
            [108, 87, 46, 18, 5, 1],
            [406, 330, 180, 76, 25, 6, 1],
        ]


def test_criterion_08_perturbed_moment_matrices():
    with criterion(8, "perturbed moment matrices"):
        spec = AMatrixSpec([[1, 2, 3]], [5])
        tri = direct_triangle(spec, 7)
        assert tri.integers() == [
            [1],
            [7, 1],
            [87, 14, 1],
            [1331, 223, 21, 1],
            [22731, 3880, 408, 28, 1],
            [415427, 71665, 7990, 642, 35, 1],
            [7949259, 1380682, 159591, 14004, 925, 42, 1],
        ]
        # the one-step recurrence behind the displayed identity
        lhs = tri.entry(4, 1)
        rhs = tri.entry(3, 0) + 2 * tri.entry(3, 1) + 3 * tri.entry(3, 2) + 5 * tri.entry(4, 2)
        assert lhs == rhs == 3880

        bspec = AMatrixSpec([[1, 2, 3]], [5], repeat_last_row=True)
        btri = direct_triangle(bspec, 7)
        assert btri.integers() == [
            [1],
            [8, 1],
            [102, 16, 1],
            [1614, 268, 24, 1],
            [28606, 4860, 498, 32, 1],
            [543298, 93440, 10250, 792, 40, 1],
            [10810754, 1873548, 214086, 18296, 1150, 48, 1],
        ]
        # the repeated-row recurrence sums entries of every earlier row
        lhs = btri.entry(5, 2)
        rhs = (
            sum(btri.get(4 - i, 1) for i in range(5))
            + 2 * sum(btri.get(4 - i, 2) for i in range(5))
            + 3 * sum(btri.get(4 - i, 3) for i in range(5))
            + 5 * btri.entry(5, 3)
        )
        assert lhs == rhs == 10250
        # and the repeated-row array is the binomial transform of the plain one
        pascal = bell_from_f(rational_series([0, 1], [1, -1], 9))
        plain = bell_pair([[1, 2, 3]], [5], order=9)
        assert riordan_triangle(riordan_mul(pascal, plain), 7).rows == btri.rows

        assert all(
            binomial_transform_equation_check(a, b, c, 10)
            for a, b, c in product(range(-2, 3), repeat=3)
        )


def test_criterion_09_substitution_example():
    with criterion(9, "substitution A-sequence example"):
        spec = AMatrixSpec([[1, 1, 1], [0, 1, 0]], [1])
        assert direct_triangle(spec, 9).integers() == [
            [1],
            [2, 1],
            [8, 4, 1],
            [34, 20, 6, 1],
            [162, 100, 36, 8, 1],
            [820, 524, 206, 56, 10, 1],
            [4338, 2832, 1182, 360, 80, 12, 1],
            [23694, 15704, 6828, 2248, 570, 108, 14, 1],
            [132612, 88876, 39818, 13856, 3850, 844, 140, 16, 1],
        ]
        aseq = a_sequence(spec_pair(spec, 14))
        assert aseq.integers() == [1, 2, 4, 2, 2, 8, -2, -10, 52, -26, -202, 576]
        prod = production_matrix(bell_pair([[1, 1, 1], [0, 1, 0]], [1]), 8)
        assert prod.integer_rows() == [
            [2, 1, 0, 0, 0, 0, 0, 0],
            [4, 2, 1, 0, 0, 0, 0, 0],
            [2, 4, 2, 1, 0, 0, 0, 0],
            [2, 2, 4, 2, 1, 0, 0, 0],
            [8, 2, 2, 4, 2, 1, 0, 0],
            [-2, 8, 2, 2, 4, 2, 1, 0],
            [-10, -2, 8, 2, 2, 4, 2, 1],
            [52, -10, -2, 8, 2, 2, 4, 2],
        ]


def test_criterion_10_property_suites(rng):
    with criterion(10, "property suites"):
        # dual construction on 20 random specs
        for spec in random_specs(rng, 20):
            f = solve_f(spec, 9).f
            assert riordan_triangle(bell_from_f(f), 8).rows == direct_triangle(spec, 8).rows
            assert functional_equation_residual(spec, f).is_zero()

        # group roundtrip on 20 random pairs
        from riordan.core import RiordanPair

        for _ in range(20):
            g = PowerSeries(
                tuple([random_nonzero_fraction(rng)] + [random_fraction(rng) for _ in range(9)])
            )
            f = PowerSeries(
                tuple([Fraction(0), random_nonzero_fraction(rng)]
                      + [random_fraction(rng) for _ in range(8)])
            )
            pair = RiordanPair(g, f)
            back = riordan_mul(pair, riordan_inverse(pair))
            assert back.g.coeffs == PowerSeries.one(10).coeffs
            assert back.f.coeffs == PowerSeries.x(10).coeffs

        # A-sequence two ways
        for spec in random_specs(rng, 6):
            assert (
                a_sequence(spec_pair(spec, 11)).terms[:8]
                == a_sequence(bell_from_f(solve_f(spec, 10).f)).terms[:8]
            )

        # reversion roundtrip
        x = PowerSeries.x(20)
        for _ in range(10):
            f = PowerSeries(
                tuple([Fraction(0), random_nonzero_fraction(rng)]
                      + [random_fraction(rng) for _ in range(18)])
            )
            assert f.compose(f.revert()).coeffs == x.coeffs
            assert f.revert().compose(f).coeffs == x.coeffs

        # Hankel lambda product identity on 10 nondegenerate sequences
        done = 0
        while done < 10:
            terms = [1] + [rng.randint(-4, 4) for _ in range(11)]
            h = hankel_transform(Sequence.of(terms), 4)
            if any(v == 0 for v in h.terms):
                continue
            jf = jfraction(Sequence.of(terms), 4)
            for n in range(1, 5):
                prod = Fraction(1)
                for i in range(1, n + 1):
                    prod *= jf.lam[i - 1] ** (n + 1 - i)
                assert h.terms[n] == prod
            done += 1

        # entry recurrence residual zero on every corpus array triangle
        from riordan.verify import load_corpus

        seen = set()
        for fx in load_corpus():
            spec_dict = fx.spec
            if spec_dict.get("kind") != "amatrix" or spec_dict.get("invert"):
                continue
            key = str(sorted(spec_dict.items()))
            if key in seen:
                continue
            seen.add(key)
            spec = AMatrixSpec.from_dict(
                {k: v for k, v in spec_dict.items() if k not in ("kind", "invert")}
            )
            nrows = 8
            tri = riordan_triangle(bell_from_f(solve_f(spec, nrows + 1).f), nrows)
            depth = len(spec.rows)
            width = max(len(r) for r in spec.rows)
            for n in range(depth - 1, nrows - 1):
                for k in range(n + 1):
                    want = sum(
                        spec.entry(i, j) * tri.get(n - i, k + j)
                        for i in range(n + 1 if spec.repeat_last_row else depth)
                        for j in range(width)
                    )
                    want += sum(
                        r * tri.get(n + 1, k + j + 2) for j, r in enumerate(spec.rho)
                    )
                    assert tri.get(n + 1, k + 1) == want, (fx.id, n, k)
        assert len(seen) >= 15


def test_criterion_11_conjecture_sweeps():
    with criterion(11, "conjecture sweeps, < 5 min combined"):
        started = time.perf_counter()
        rho0 = sweep_conjecture_rho0(-2, 2, order=14)
        rhodelta = sweep_conjecture_rho_delta(-2, 2, order=14)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"sweeps took {elapsed:.1f}s"

        for report in (rho0, rhodelta):
            assert report.total == 625
            assert report.total == report.confirmed + report.degenerate + len(
                report.counterexamples
            )
            as_dict = report.as_dict()
            assert set(as_dict) == {
                "family", "range", "order", "total", "confirmed", "degenerate",
                "counterexamples",
            }

        # the worked examples must be confirmed, not merely recorded
        assert check_conjecture_point(0, 1, 1, 0, 0, 14) == (CONFIRMED, None)
        assert check_conjecture_point(-2, -1, 1, 0, 0, 14) == (CONFIRMED, None)
        assert check_conjecture_point(1, 0, 1, 1, 0, 14) == (CONFIRMED, None)
        assert check_conjecture_point(0, 1, 0, 1, 0, 14) == (CONFIRMED, None)
        assert check_conjecture_point(0, 1, 4, 1, 0, 14) == (CONFIRMED, None)
        for r in range(5):
            assert check_conjecture_point(0, 1, r, 1, 0, 14) == (CONFIRMED, None)
        assert check_conjecture_point(0, -1, 0, -2, 1, 14) == (CONFIRMED, None)
        assert check_conjecture_point(0, -1, -2, 2, 1, 14) == (CONFIRMED, None)
        # full-grid counterexample lists are data, not assertions; echo them
        if rho0.counterexamples or rhodelta.counterexamples:
            print("recorded counterexamples:", rho0.counterexamples, rhodelta.counterexamples)


def test_readme_library_example_runs_on_the_public_names(capsys):
    # a public name the example reads that is retired or renamed fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "[1, 1, 2, 3, 7, 23, 59, 314, 1529, 8209, 83313]"
