"""Command-line behavior: output shapes, exit codes, JSON round-trips."""

import json
import os
import pathlib
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from riordan import amatrix as amatrix_mod, cli
from riordan.amatrix import AMatrixSpec, bell_pair
from riordan.core import _columns, _lower, a_sequence, production_matrix, riordan_triangle, z_sequence
from riordan.hankel import FAMILY, INCONSISTENT, UNIQUE, hankel_transform, jfraction, somos_fit
from riordan.series import Sequence, _texts, format_rational
from riordan.verify import Fixture

from conftest import amatrix_specs, bump_term, record_reversions_and_substitutions

SPECS = pathlib.Path(__file__).parent.parent / "specs"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve -------------------------------------------------------------------


def test_calls_in_one_process_get_their_own_defaults(capsys):
    # one parser serves every call, so no call may see another's arguments
    assert cli._build_parser() is cli._build_parser()
    pascal = str(SPECS / "pascal.json")
    code, out, _ = run(capsys, "pipeline", pascal, "--order", "12", "--format", "json")
    assert code == 0 and len(json.loads(out)["column"]) == 11
    code, out, _ = run(capsys, "verify", "--sweep", "rho0", "--range=0..0")
    assert code == 0 and out.startswith("sweep rho0 over [0..0]^4: ")
    code, out, _ = run(capsys, "verify", "--sweep", "rho0", "--range=0..0", "--format", "json")
    assert code == 0 and json.loads(out)["order"] == 40
    code, out, _ = run(capsys, "pipeline", pascal, "--format", "json")
    assert code == 0 and len(json.loads(out)["column"]) == 31


def test_solve_pascal_plain(capsys):
    code, out, _ = run(capsys, "solve", str(SPECS / "pascal.json"), "--order", "8")
    assert code == 0
    assert "f:    0 1 1 1 1 1 1 1" in out
    assert "f/x:  1 1 1 1 1 1 1" in out


def test_solve_json_roundtrips_byte_identical(capsys):
    code, out, _ = run(
        capsys, "solve", str(SPECS / "a171416.json"), "--order", "12", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["f"][:6] == ["0", "1", "1", "2", "3", "7"]
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


_json_scalars = st.text() | st.integers() | st.booleans() | st.none()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner)
    | st.dictionaries(st.integers(), inner),  # not str keys: json.dumps lays them out
    max_leaves=20,
)


@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    # non-ASCII, control and quote characters come from st.text(); lists of strings
    # take the writer's one-join path
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@given(st.lists(st.text(alphabet="\u00e9\u2028\U0001f600\"\\\n\x00az09/"), min_size=1), st.integers(0, 3))
def test_json_writer_matches_json_dumps_on_nested_string_lists(strings, depth):
    value = strings
    for level in range(depth):
        value = {f"k{level}": value, "n": level, "t": (value, None, True)}
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("digits", [4299, 4300, 4301, 50_000])
@pytest.mark.parametrize("sign", [1, -1])
def test_spec_integer_literals_have_no_digit_cap(tmp_path, digits, sign):
    # CPython 3.11+ caps int(str) at 4300 digits; a spec's JSON literals have no cap
    n = sign * (10**digits - 3)
    spec = tmp_path / "big.json"
    spec.write_text('{"rows": [[1, %s]], "rho": [%s]}' % (format_rational(n), format_rational(-n)))
    loaded = cli._load_spec(str(spec), 0)  # order 0: parsed, with no solve work to bound
    assert loaded.rows == ((1, n),) and loaded.rho == (-n,)


def test_solve_spec_with_4400_digit_literal(tmp_path, capsys):
    big = 10**4399 + 7
    spec = tmp_path / "big.json"
    spec.write_text('{"rows": [[1, %s]]}' % Decimal(big))
    code, out, err = run(capsys, "solve", str(spec), "--order", "4", "--format", "json")
    assert code == 0, err
    # f = x(1 + big*f) = x/(1 - big*x)
    assert [int(Decimal(v)) for v in json.loads(out)["f"]] == [0, 1, big, big**2]


def test_solve_spec_with_4401_digit_string_scalar(tmp_path, capsys):
    big = 10**4400
    spec = tmp_path / "big.json"
    spec.write_text('{"rows": [[1, "1/%s"]]}' % Decimal(big))
    code, out, err = run(capsys, "solve", str(spec), "--order", "4", "--format", "json")
    assert code == 0, err
    # f = x(1 + f/big) = x/(1 - x/big)
    assert json.loads(out)["f"] == ["0", "1", f"1/{Decimal(big)}", f"1/{Decimal(big**2)}"]


def test_pipeline_bfile_with_4400_digit_term(tmp_path, capsys):
    big = 10**4399 + 7
    spec, bfile = tmp_path / "big.json", tmp_path / "b.txt"
    spec.write_text('{"rows": [[1, %s]]}' % Decimal(big))
    bfile.write_text(f"0 1\n1 {Decimal(big)}\n")
    code, out, err = run(capsys, "pipeline", str(spec), "--bfile", str(bfile), "--order", "4", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["bfile"] == {"path": str(bfile), "compared": 2, "match": True}


@pytest.mark.parametrize(
    "entry, shown",
    [
        ("[" * 982 + "]" * 982, "list [[[[[[[...]]]]]]]"),  # the spec nests 985 deep
        ("[%s]" % Decimal(10**4400), "list [%s...%s]" % ("1" + "0" * 17, "0" * 19)),
    ],
    ids=["985-deep-list", "list-of-4401-digit-int"],
)
def test_spec_entry_that_is_not_a_number_gets_a_short_error(tmp_path, entry, shown):
    # the message names the type and a capped repr, with no digit-cap error; a fresh
    # interpreter, as from the shell, since pytest's stack leaves the JSON decoder
    # too little recursion depth for the deep list
    spec = tmp_path / "bad.json"
    spec.write_text('{"rows": [[1, %s]]}' % entry)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "riordan.cli", "solve", str(spec)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: invalid spec in {spec}: not an exact rational: {shown}\n"


def test_solve_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.json")
    assert code == 3
    assert "cannot read" in err


def test_solve_malformed_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 3
    assert "not valid JSON" in err


def test_spec_file_that_is_not_utf8_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"rows": [[1, 1]], "rho": ["\xff"]}')
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 3
    assert out == ""
    assert "not valid JSON" in err and "internal error" not in err


def test_spec_file_nested_too_deep_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "pipeline", str(bad))
    assert code == 3
    assert out == ""
    assert "not valid JSON" in err and "internal error" not in err


@pytest.mark.parametrize("scalar", ["0.5", "1e3", "1e5000000", "1_000", "\u0661", "1/\u0662", "0x10", ""])
def test_spec_and_bfile_scalars_are_integers_or_p_over_q(tmp_path, capsys, scalar):
    # decimal, exponent and separator forms and non-ASCII digits are refused, so no
    # string asks for more work than its length
    spec, bfile = tmp_path / "spec.json", tmp_path / "b.txt"
    spec.write_text(json.dumps({"rows": [[1, scalar]]}))
    code, out, err = run(capsys, "solve", str(spec))
    assert (code, out) == (2, "") and err.startswith("error: invalid spec")
    bfile.write_text(f"0 1\n1 {scalar or '#'}\n")
    code, out, err = run(capsys, "pipeline", str(SPECS / "pascal.json"), "--bfile", str(bfile))
    assert (code, out) == (2, "") and err.startswith("error: bad b-file")


def test_solve_invalid_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # a zero corner, and a JSON boolean that must not pass for the number 1
    for text in ('{"rows": [[0, 1]], "rho": []}', '{"rows": [[true, 1]]}'):
        bad.write_text(text)
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert out == ""
        assert "invalid spec" in err


def test_zero_denominator_in_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for command in ("solve", "pipeline"):
        for text in ('{"rows": [[1, "1/0"]]}', '{"rows": [[1]], "rho": ["2/0"]}'):
            bad.write_text(text)
            code, out, err = run(capsys, command, str(bad))
            assert code == 2
            assert out == ""
            assert err.startswith("error: invalid spec") and err.count("\n") == 1


def test_unknown_spec_key_is_usage_error(tmp_path, capsys):
    # a misspelt key would otherwise drop what it meant to set and solve another array
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": [[1, 1, 1], [1, -1, 2]], "rho": [1], "repeat_last_rows": true}')
    for command in ("solve", "pipeline"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid spec") and err.count("\n") == 1
        assert "'repeat_last_rows'" in err and "Traceback" not in err


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(spec, order):
        raise RuntimeError("solver blew up\nsecond line")

    monkeypatch.setattr(cli, "solve_f", broken)
    for command in ("solve", "pipeline"):
        code, out, err = run(capsys, command, str(SPECS / "pascal.json"))
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "error: internal error: RuntimeError('solver blew up\\nsecond line')\n"


def test_solve_rejects_order_below_two(capsys):
    code, out, err = run(capsys, "solve", str(SPECS / "pascal.json"), "--order", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--order" in err


def test_order_above_cap_is_usage_error(capsys):
    assert cli.MAX_ORDER == 1024
    for args in (
        ("solve", str(SPECS / "pascal.json")),
        ("pipeline", str(SPECS / "pascal.json"), "--zseq"),
        ("verify", "--sweep", "rho0", "--range", "0..0"),
    ):
        code, out, err = run(capsys, *args, "--order", "1025")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--order" in err and "1024" in err


def test_entry_work_above_cap_is_usage_error(tmp_path, capsys):
    # 10**4999 + 1 has 16607 bits: refused from order 4 on (16607 * 8 > 2**17), by solve
    # and pipeline, on one line; the 4400-digit entries of the tests above run at order 4
    assert cli.MAX_ENTRY_WORK == 2**17
    n = Decimal(10**4999 + 1)
    path = tmp_path / "huge.json"
    path.write_text(f'{{"rows": [[1, {n}, {n}], [{n}, {n}, -{n}]], "rho": [{n}, {n}, {n}], "repeat_last_row": true}}')
    for command, order in (("solve", "4"), ("pipeline", "4"), ("solve", "20")):
        code, out, err = run(capsys, command, str(path), "--order", order)
        assert code == 2
        assert out == ""
        assert err == f"error: spec entries of 16607 bits at --order {order} exceed 131072 bits times order^1.5\n"
    # the bits are those of the entries over their common denominator: 2**62 is 2**63/2, 64 bits,
    # and 64 * 161**1.5 < 2**17 < 64 * 162**1.5
    path.write_text(f'{{"rows": [[1, "1/2"]], "rho": [{2**62}]}}')
    assert run(capsys, "solve", str(path), "--order", "64")[0] == 0
    assert cli._load_spec(str(path), 161) == cli._load_spec(str(path), 1)
    for command in ("solve", "pipeline"):
        code, _, err = run(capsys, command, str(path), "--order", "162")
        assert code == 2 and err == "error: spec entries of 64 bits at --order 162 exceed 131072 bits times order^1.5\n"


@pytest.mark.parametrize(
    "spec, order",
    [
        *[(str(path), cli.MAX_ORDER) for path in sorted(SPECS.glob("*.json"))],
        # the p/q specs of the order-512 pipeline steps
        ({"rows": [[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], "rho": [1, "-1/2"], "repeat_last_row": True}, 512),
        ({"rows": [[1, 2, -1]], "rho": [1, "1/2"], "repeat_last_row": True}, 512),
        # the widest entries the benchmark's spec pool draws, at its order 48
        ({"rows": [[1, "-1/3", 2], ["1/2", -2, "1/3"]], "rho": ["-1/2", 2]}, 48),
    ],
)
def test_entry_cap_admits_bundled_and_recorded_specs(tmp_path, spec, order):
    if isinstance(spec, dict):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        spec = str(tmp_path / "spec.json")
    assert cli._load_spec(spec, order) == cli._load_spec(spec, 1)


# -- pipeline -----------------------------------------------------------------


def test_pipeline_hankel_and_fit(capsys):
    code, out, _ = run(
        capsys,
        "pipeline",
        str(SPECS / "a171416.json"),
        "--hankel",
        "--somos-fit",
        "--order",
        "24",
    )
    assert code == 0
    assert "hankel: 1 1 2 3 7 23 59 314 1529 8209 83313" in out
    assert "somos fit: Unique alpha=1 beta=1" in out


def test_pipeline_reverts_and_composes_nothing_to_check_a_and_z(capsys, monkeypatch):
    reverts, substitutions = record_reversions_and_substitutions(monkeypatch)
    for triangle in ([], ["--triangle"]):
        code, out, _ = run(capsys, "pipeline", str(SPECS / "motzkin.json"), "--aseq", "--zseq", "--production", *triangle)
        assert code == 0
        assert "A-sequence: " in out and "Z-sequence: " in out
    # A comes from the spec's A-matrix equation and fbar is not read, so nothing is
    # reverted; A and Z are checked on that equation, with no composition, whether
    # or not --triangle's rows are checked against them
    assert reverts == []
    assert substitutions == []


@pytest.mark.parametrize(
    "flags, passes",
    [(["--triangle"], 1), (["--hankel"], 0), (["--aseq"], 0), (["--zseq", "--production"], 0),
     (["--triangle", "--aseq", "--zseq", "--production"], 1)],
)
def test_pipeline_runs_the_entry_recurrence_at_most_once(flags, passes, capsys, monkeypatch):
    # only --triangle runs the recurrence; the A and Z checks read A's equation
    calls = []
    route = amatrix_mod._entry_rows

    def counted(spec, nrows):
        calls.append(spec)
        return route(spec, nrows)

    monkeypatch.setattr(amatrix_mod, "_entry_rows", counted)
    code, _, _ = run(capsys, "pipeline", str(SPECS / "motzkin.json"), *flags, "--rows", "15")
    assert code == 0
    assert len(calls) == passes


@pytest.mark.parametrize(
    "flags, term",
    [(["--aseq"], 2), (["--aseq", "--triangle"], 2), (["--zseq"], -1), (["--zseq", "--triangle", "--rows", "5"], -1)],
)
def test_pipeline_exits_4_on_a_corrupt_spec_a(flags, term, capsys, monkeypatch):
    # a low term of the seeded A fails its A check, its top term the Z check; either
    # way the run writes nothing to stdout and one line to stderr
    route = amatrix_mod._a_series
    monkeypatch.setattr(amatrix_mod, "_a_series", lambda spec, order: bump_term(route(spec, order), term))
    code, out, err = run(capsys, "pipeline", str(SPECS / "a171416.json"), *flags, "--format", "json")
    identity = "A-series" if term == 2 else "Z-series"
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: NotRiordanBand") and identity in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("n, m, failing", [(6, 3, 6), (15, 1, 14)])
def test_pipeline_exits_4_on_a_corrupt_printed_triangle_row(n, m, failing, capsys, monkeypatch):
    # with the spec's pair built, each printed row is checked against its f and A.  Entry
    # T'(n, m) of the recurrence is triangle entry (n - 1, m - 1).  Past column 0 it breaks
    # f/x = A(f) at triangle row n, whose dot product reads all of row n - 1; in column 0
    # of the last row, which A's terms do not reach, only the check against f sees it.
    route = amatrix_mod._entry_rows

    def corrupt(spec, nrows):
        rows = route(spec, nrows)
        rows[n] = rows[n][:m] + [rows[n][m] + 1] + rows[n][m + 1 :]
        return rows

    monkeypatch.setattr(amatrix_mod, "_entry_rows", corrupt)
    argv = ("pipeline", str(SPECS / "a171416.json"), "--rows", "15", "--order", "16")
    code, out, err = run(capsys, *argv, "--triangle", "--aseq", "--format", "json")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal error: NotRiordanBand") and f"at row {failing}" in err
    assert err.count("\n") == 1
    code, out, _ = run(capsys, *argv, "--triangle")  # with no spec pair, the rows print unchecked
    assert code == 0 and out


@pytest.mark.parametrize(
    "flags, solves",
    [(["--triangle"], 0), (["--hankel", "--somos-fit", "--jfraction"], 0), (["--aseq"], 1),
     (["--zseq"], 1), (["--production"], 1), (["--triangle", "--aseq", "--zseq", "--production"], 1)],
)
def test_pipeline_solves_the_spec_a_only_when_a_or_z_is_printed(flags, solves, capsys, monkeypatch):
    calls = []
    route = amatrix_mod._a_series

    def counted(spec, order):
        calls.append(order)
        return route(spec, order)

    monkeypatch.setattr(amatrix_mod, "_a_series", counted)
    code, _, _ = run(capsys, "pipeline", str(SPECS / "motzkin.json"), *flags)
    assert code == 0
    assert len(calls) == solves


def test_pipeline_production_display(capsys):
    code, out, _ = run(
        capsys,
        "pipeline",
        str(SPECS / "motzkin.json"),
        "--production",
        "--rows",
        "6",
        "--order",
        "16",
    )
    assert code == 0
    assert "Z: 1 1 0 0 0 0" in out
    assert "A: 1 1 1 0 0 0" in out


def test_pipeline_preflight_rejects_shallow_order(capsys):
    code, _, err = run(
        capsys, "pipeline", str(SPECS / "a171416.json"), "--hankel", "--order", "8"
    )
    assert code == 2
    assert "insufficient order" in err


def test_pipeline_triangle_preflight(capsys):
    code, _, err = run(
        capsys,
        "pipeline",
        str(SPECS / "motzkin.json"),
        "--triangle",
        "--rows",
        "9",
        "--order",
        "8",
    )
    assert code == 2
    assert "insufficient order" in err


@pytest.mark.parametrize("rows", [3, 9, 30])
def test_pipeline_triangle_alone_needs_order_rows_plus_one(capsys, rows):
    # the triangle reads no f, but --triangle keeps the order it has always asked for
    spec = str(SPECS / "a171416.json")
    argv = ["pipeline", spec, "--triangle", "--rows", str(rows), "--format", "json"]
    code, out, err = run(capsys, *argv, "--order", str(rows))
    assert code == 2 and out == ""
    assert f"insufficient order: a {rows}-row triangle needs order >= {rows + 1}" in err
    code, out, err = run(capsys, *argv, "--order", str(rows + 1))
    assert code == 0, err
    assert len(json.loads(out)["triangle"]) == rows


def test_pipeline_rejects_rows_below_one(capsys):
    for rows in ("0", "-3"):
        code, out, err = run(
            capsys, "pipeline", str(SPECS / "a171416.json"), "--hankel", "--rows", rows
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--rows" in err


def test_pipeline_jfraction_preflight_needs_one_more_term(capsys):
    args = ("pipeline", str(SPECS / "schroeder.json"), "--rows", "6")
    code, _, err = run(capsys, *args, "--jfraction", "--order", "12")
    assert code == 2
    assert "order >= 13" in err
    code, _, _ = run(capsys, *args, "--jfraction", "--order", "13")
    assert code == 0
    code, _, _ = run(capsys, *args, "--hankel", "--somos-fit", "--order", "12")
    assert code == 0


def test_pipeline_preflight_covers_every_analysis(capsys):
    spec = str(SPECS / "motzkin.json")
    for flags in (
        ("--order", "2"),
        ("--zseq", "--order", "3"),
        ("--production", "--rows", "12", "--order", "13"),
        ("--production", "--rows", "1"),
    ):
        code, out, err = run(capsys, "pipeline", spec, *flags)
        assert code == 2, flags
        assert out == ""
        assert err.startswith("error:")


def test_pipeline_jfraction_json(capsys):
    code, out, _ = run(
        capsys,
        "pipeline",
        str(SPECS / "schroeder.json"),
        "--jfraction",
        "--rows",
        "4",
        "--order",
        "12",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["jfraction"]["b"] == ["2", "3", "3", "3"]
    assert payload["jfraction"]["lambda"] == ["2", "2", "2"]
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_pipeline_bfile_match_and_mismatch(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("0 1\n1 1\n2 2\n3 3\n4 7\n")
    code, out, _ = run(
        capsys, "pipeline", str(SPECS / "a171416.json"), "--bfile", str(good)
    )
    assert code == 0
    assert "b-file check: match on 5 terms" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 1\n2 2\n3 4\n")
    code, out, _ = run(
        capsys, "pipeline", str(SPECS / "a171416.json"), "--bfile", str(bad)
    )
    assert code == 1
    assert "MISMATCH" in out


def test_pipeline_bfile_from_index_minus_one(tmp_path, capsys):
    # the column starts at index 0; indices 0 and up are compared
    good = tmp_path / "good.txt"
    good.write_text("-1 5\n0 1\n1 1\n2 2\n3 3\n")
    code, out, _ = run(
        capsys, "pipeline", str(SPECS / "a171416.json"), "--bfile", str(good), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["bfile"]["compared"] == 4
    assert json.loads(out)["bfile"]["match"] is True

    bad = tmp_path / "bad.txt"
    bad.write_text("-1 1\n0 2\n1 1\n2 2\n")
    code, out, _ = run(
        capsys, "pipeline", str(SPECS / "a171416.json"), "--bfile", str(bad)
    )
    assert code == 1
    assert "MISMATCH" in out


def test_pipeline_non_ascii_bfile_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "b.txt"
    bad.write_bytes(b"0 1\n1 \xff\n")
    code, out, err = run(
        capsys, "pipeline", str(SPECS / "a171416.json"), "--bfile", str(bad)
    )
    assert code == 2
    assert out == ""
    assert "bad b-file" in err


def test_pipeline_unreadable_bfile_is_io_error(tmp_path, capsys):
    for path in (tmp_path / "missing.txt", tmp_path):  # no such file, and a directory
        code, out, err = run(capsys, "pipeline", str(SPECS / "a171416.json"), "--bfile", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_pipeline_bfile_past_the_column_is_usage_error(tmp_path, capsys):
    # --order 32 gives the column indices 0..30; the b-file starts at 100
    bfile = tmp_path / "b.txt"
    bfile.write_text("100 1\n101 2\n")
    code, out, err = run(capsys, "pipeline", str(SPECS / "a171416.json"), "--order", "32", "--bfile", str(bfile))
    assert code == 2
    assert out == ""
    assert err == "error: b-file does not overlap the computed column\n"


def test_pipeline_plain_somos_fit_names_the_inconsistent_window(capsys):
    code, out, _ = run(capsys, "pipeline", str(SPECS / "hybrid_trees.json"), "--somos-fit", "--order", "32")
    assert code == 0
    assert out.splitlines()[-1] == "somos fit: Inconsistent at window 6"
    code, out, _ = run(capsys, "pipeline", str(SPECS / "hybrid_trees.json"), "--somos-fit", "--order", "32", "--format", "json")
    assert code == 0 and json.loads(out)["somos_fit"] == {"failing_window": 6, "kind": INCONSISTENT}


# -- pipeline against the public API ------------------------------------------------

_ANALYSES = ["--triangle", "--production", "--aseq", "--zseq", "--hankel", "--somos-fit", "--jfraction"]


def pipeline_by_api(spec, order: int, rows: int, flags) -> str:
    """The JSON text of a pipeline run, built from the public API's Fraction
    results and rendered with format_rational."""

    def texts(values):
        return [format_rational(v) for v in values]

    pair = bell_pair(spec, order)
    column = Sequence(pair.g.coeffs)
    payload: dict = {"column": texts(column.terms)}
    if "--triangle" in flags:
        payload["triangle"] = [texts(row) for row in riordan_triangle(pair, rows).rows]
    if "--production" in flags:
        prod = production_matrix(pair, rows)
        payload["production"] = {
            "matrix": [texts(row) for row in prod.matrix], "z": texts(prod.z.terms), "a": texts(prod.a.terms)
        }
    if "--aseq" in flags:
        payload["aseq"] = texts(a_sequence(pair).terms)
    if "--zseq" in flags:
        payload["zseq"] = texts(z_sequence(pair).terms)
    if "--hankel" in flags:
        payload["hankel"] = texts(hankel_transform(column, rows - 1).terms)
    if "--somos-fit" in flags:
        fit = somos_fit(hankel_transform(column, rows - 1))
        payload["somos_fit"] = {"kind": fit.kind}
        if fit.kind == UNIQUE:
            payload["somos_fit"].update(alpha=format_rational(fit.alpha), beta=format_rational(fit.beta))
        elif fit.kind == FAMILY:
            payload["somos_fit"]["line"] = texts(fit.family_description)
        elif fit.kind == INCONSISTENT:
            payload["somos_fit"]["failing_window"] = fit.failing_index
    if "--jfraction" in flags:
        jf = jfraction(column, rows - 1)
        payload["jfraction"] = {"b": texts(jf.b), "lambda": texts(jf.lam), "terminated": jf.terminated}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    amatrix_specs(),
    st.integers(1, 9),
    st.lists(st.sampled_from(_ANALYSES), unique=True),
    st.integers(0, 2),
)
@example(None, 12, ["--hankel", "--somos-fit"], 0)  # a171416 at order 24 = 2 * rows
@example(None, 64, ["--hankel", "--somos-fit", "--triangle"], 0)
def test_pipeline_json_matches_the_public_api(tmp_path, capsys, spec, rows, flags, extra):
    # the pipeline renders straight from the series' ints and one Chebyshev pass;
    # the order is the least the flags allow, or one or two more
    if spec is None:
        spec = cli._load_spec(str(SPECS / "a171416.json"), cli.MAX_ORDER)
    if "--production" in flags:
        rows = max(rows, 2)
    order = extra + max(
        3,
        4 if "--zseq" in flags else 0,
        rows + 1 if "--triangle" in flags else 0,
        rows + 2 if "--production" in flags else 0,
        2 * rows if {"--hankel", "--somos-fit"} & set(flags) else 0,
        2 * rows + 1 if "--jfraction" in flags else 0,
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    argv = ["pipeline", str(path), *flags, "--order", str(order), "--rows", str(rows), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == pipeline_by_api(spec, order, rows, flags)


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(amatrix_specs(), st.integers(1, 16))
def test_pipeline_triangle_equals_the_rendered_series_columns(tmp_path, capsys, spec, rows):
    # the recurrence's ints over powers of the grid's lcm denominator render in lowest
    # terms, with the sign on the numerator and "0" for zero, as the columns g * (f/x)^k do
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    order = max(3, rows + 1)
    argv = ["pipeline", str(path), "--triangle", "--rows", str(rows), "--order", str(order), "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    columns = _columns(bell_pair(spec, order), rows)
    assert json.loads(out)["triangle"] == _lower([_texts(c._nums, c._den) for c in columns])


# -- fuzzed command line ---------------------------------------------------------

class _Huge(int):
    """An int past CPython's int-to-str cap, with a repr hypothesis can print."""

    def __repr__(self):
        return f"<{len(str(Decimal(self)).lstrip('-'))}-digit int>"


_HUGE = _Huge(10**4999 + 1)
_odd_strings = st.sampled_from(
    ["1/2", "-3/4", " 7 ", "2/0", "0.5", "1e3", "1e5000000", "1_000", "\u0661", "x"]
)
_numbers = st.integers(-3, 3) | _odd_strings | st.sampled_from([_HUGE, _Huge(-_HUGE)])
_spec_keys = st.sampled_from(["rows", "rho", "repeat_last_row"])
_fuzz_values = st.recursive(
    _numbers | st.text(max_size=6) | st.floats() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_spec_keys | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_entries = st.integers(-3, 3) | _numbers  # mostly small ints, so that many specs solve
_spec_shaped = st.fixed_dictionaries(
    {"rows": st.lists(st.lists(_entries, min_size=1, max_size=4), min_size=1, max_size=3)},
    optional={"rho": st.lists(_entries, max_size=3), "repeat_last_row": st.booleans() | _numbers},
)


def _json_bytes(value) -> bytes:
    """json.dumps(value) as UTF-8, with ints past CPython's int-to-str cap written out."""
    if isinstance(value, int) and not isinstance(value, bool):
        return str(Decimal(value)).encode()
    if isinstance(value, list):
        return b"[" + b", ".join(map(_json_bytes, value)) + b"]"
    if isinstance(value, dict):
        items = (json.dumps(k).encode() + b": " + _json_bytes(v) for k, v in value.items())
        return b"{" + b", ".join(items) + b"}"
    return json.dumps(value).encode()


_spec_files = _spec_shaped.map(_json_bytes) | _fuzz_values.map(_json_bytes) | st.binary(max_size=48)
def _bfile_line(index: int, value) -> str:
    return f"{index} {Decimal(value) if isinstance(value, int) else value}"


_bfile_lines = st.lists(
    st.builds(_bfile_line, st.integers(-2, 3), _numbers)
    | st.sampled_from(["# comment", "", "0", "0 1 2", "a b"]),
    max_size=6,
)
_bfiles = st.none() | _bfile_lines.map(lambda lines: "\n".join(lines).encode()) | st.binary(max_size=24)


@st.composite
def _argvs(draw):
    """solve or pipeline with documented flags: --order <= 20 and --rows <= 8."""
    command = draw(st.sampled_from(["solve", "pipeline"]))
    order = draw(st.sampled_from([*range(2, 21), 1, 0, -1]))
    argv = [command, "--order", str(order), "--format", draw(st.sampled_from(["plain", "json"]))]
    if command == "pipeline":
        argv += ["--rows", str(draw(st.sampled_from([*range(1, 9), 0, -1])))]
        flags = ["--triangle", "--production", "--aseq", "--zseq", "--hankel", "--somos-fit", "--jfraction"]
        argv += draw(st.lists(st.sampled_from(flags), unique=True))
    return argv


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_spec_files, _bfiles, _argvs())
@example(b'{"rows": [[1, 1]], "rho": ["\xff"]}', None, ["solve", "--order", "8", "--format", "plain"])
@example(b"[" * 100000 + b"]" * 100000, None, ["pipeline", "--order", "8", "--format", "json"])
@example(b'{"rows": [[1, 1]]}', b"0 1\n1 2\n", ["pipeline", "--order", "8", "--format", "json"])
def test_fuzzed_cli_exits_as_documented(tmp_path, capsys, spec, bfile, argv):
    # every run exits 0, 2 or 3, or 1 on a b-file mismatch; no traceback and no
    # internal error, and nothing on stdout when it exits 2 or 3
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(spec)
    argv = [argv[0], str(spec_path), *argv[1:]]
    if bfile is not None and argv[0] == "pipeline":
        (tmp_path / "b.txt").write_bytes(bfile)
        argv += ["--bfile", str(tmp_path / "b.txt")]
    code, out, err = run(capsys, *argv)
    if code == 1:
        assert "--bfile" in argv
        assert "MISMATCH" in out if "plain" in argv else json.loads(out)["bfile"]["match"] is False
    else:
        assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err and "internal error" not in err
    if code in (2, 3):
        assert out == ""


# -- verify ---------------------------------------------------------------------


def test_verify_json_lists_no_failures(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"failed": [], "total": 76}


def test_verify_filtered_fixture_pass(capsys):
    code, out, _ = run(capsys, "verify", "A104545", "--order", "24")
    assert code == 0
    assert "2/2 fixtures passed" in out


def test_verify_order_below_fixture_depth_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--order", "2", "A104545")
    assert code == 2
    assert out == ""
    assert err.startswith("error: insufficient order") and "A104545" in err
    code, _, _ = run(capsys, "verify", "--order", "24", "A104545")
    assert code == 0


def test_verify_unknown_filter(capsys):
    code, _, err = run(capsys, "verify", "nonexistent")
    assert code == 2
    assert "no fixture id contains" in err


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    from riordan import verify as verify_mod

    broken = Fixture(
        id="broken.column",
        spec={"kind": "amatrix", "rows": [[1]], "rho": []},
        check_kind="column",
        expected=[1, 2, 3],
    )
    monkeypatch.setattr(verify_mod, "load_corpus", lambda: [broken])
    code, out, _ = run(capsys, "verify", "--order", "8")
    assert code == 1
    assert "FAIL broken.column" in out
    assert "0/1 fixtures passed" in out


def test_verify_sweep_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "verify", "--sweep", "rho0", "--range=-1..1", "--format", "json",
        "--order", "12",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 81
    assert payload["total"] == payload["confirmed"] + payload["degenerate"] + len(
        payload["counterexamples"]
    )
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_verify_sweep_plain_summary(capsys):
    code, out, _ = run(capsys, "verify", "--sweep", "rhodelta", "--range", "0..1")
    assert code == 0
    assert "sweep rhodelta over [0..1]^4" in out


def test_verify_sweep_defaults_to_sixteen_windows(capsys):
    code, out, _ = run(capsys, "verify", "--sweep", "rho0", "--range", "1..1", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 40  # depth 19: windows 4..19


def test_verify_sweep_rejects_reversed_range(capsys):
    code, _, err = run(capsys, "verify", "--sweep", "rho0", "--range=1..-1")
    assert code == 2
    assert "empty range" in err


def test_verify_sweep_order_below_ten_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--sweep", "rho0", "--order", "9", "--range=0..0")
    assert code == 2
    assert out == ""
    assert err == "error: sweep order must be at least 10 for two usable windows\n"


def test_verify_sweep_reports_a_counterexample(capsys, monkeypatch):
    from riordan import verify as verify_mod

    def check(a, b, c, d, rho0, order):  # one planted counterexample, at window 7
        if (a, b, c, d) == (0, 1, 0, -1):
            return verify_mod.COUNTEREXAMPLE, 7
        return verify_mod.CONFIRMED, None

    monkeypatch.setattr(verify_mod, "check_conjecture_point", check)
    argv = ("verify", "--sweep", "rho0", "--range=-1..1", "--order", "12")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "sweep rho0 over [-1..1]^4: 80 confirmed, 0 degenerate, 1 counterexamples of 81",
        "  COUNTEREXAMPLE at (0, 1, 0, -1), window 7",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["counterexamples"] == [{"params": [0, 1, 0, -1], "failing_window": 7}]


def test_verify_sweep_box_is_capped(capsys):
    assert cli.MAX_SWEEP_POINTS == 10**4
    for box in ("--range=-5..5", "--range=-50..50"):
        code, out, err = run(capsys, "verify", "--sweep", "rhodelta", box)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "points, more than 10000" in err


def test_verify_sweep_order_is_capped(capsys):
    assert cli.MAX_SWEEP_ORDER == 128
    for order in ("129", "1024"):
        code, out, err = run(capsys, "verify", "--sweep", "rho0", "--range", "0..0", "--order", order)
        assert code == 2
        assert out == ""
        assert err == f"error: sweep --order must be at most 128, got {order}\n"
    code, out, _ = run(capsys, "verify", "--sweep", "rho0", "--range", "0..0", "--order", "128")
    assert code == 0 and out.endswith("counterexamples of 1\n")


def test_pipeline_hankel_depth_is_capped(capsys):
    assert cli.MAX_HANKEL_DEPTH == 191
    spec = str(SPECS / "perturbed_moments.json")
    for flag in ("--hankel", "--somos-fit", "--jfraction"):
        code, out, err = run(capsys, "pipeline", spec, flag, "--rows", "193", "--order", "400")
        assert code == 2
        assert out == ""
        assert err == "error: Hankel analyses run to depth rows - 1, at most 191; got --rows 193\n"
    # depth 191 runs; perturbed_moments has h_n = 38^(n(n+1)/2) and lambda_k = 38
    code, out, err = run(
        capsys, "pipeline", spec, "--hankel", "--somos-fit", "--jfraction", "--rows", "192", "--order", "385",
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["hankel"]) == 192 and payload["hankel"][-1] == format_rational(38 ** (191 * 192 // 2))
    assert payload["jfraction"]["lambda"] == ["38"] * 191
    # the cap binds the Hankel analyses only
    code, _, err = run(capsys, "pipeline", spec, "--aseq", "--rows", "300", "--order", "64")
    assert code == 0, err


def test_pipeline_hankel_flags_are_capped_by_entry_bits_times_depth_squared(tmp_path, capsys):
    path = tmp_path / "spec.json"

    def write(n):
        path.write_text(json.dumps({"rows": [[1, n, n], [n, n, -n]], "rho": [n, n, n], "repeat_last_row": True}))

    # 16-bit entries at depth 126 ran for more than 300 s: 16 * 126**2 = 254,016 > 2**17
    write(2**16 - 1)
    for flag in ("--hankel", "--somos-fit", "--jfraction"):
        code, out, err = run(capsys, "pipeline", str(path), flag, "--rows", "127", "--order", "256")
        assert (code, out) == (2, "")
        assert err == "error: spec entries of 16 bits at Hankel depth 126 exceed 131072 bits times depth^2\n"
    # at the boundary: 1083 * 11**2 = 131,043 <= 2**17 < 1083 * 12**2, and the order cap
    # admits 1083-bit entries to order 24
    write(2**1082)
    code, out, err = run(capsys, "pipeline", str(path), "--hankel", "--rows", "12", "--order", "24", "--format", "json")
    assert code == 0, err
    assert len(json.loads(out)["hankel"]) == 12
    code, out, err = run(capsys, "pipeline", str(path), "--hankel", "--rows", "13", "--order", "24")
    assert (code, out) == (2, "")
    assert err == "error: spec entries of 1083 bits at Hankel depth 12 exceed 131072 bits times depth^2\n"
    # the cap binds the Hankel analyses only
    code, _, err = run(capsys, "pipeline", str(path), "--aseq", "--triangle", "--rows", "13", "--order", "24")
    assert code == 0, err


@pytest.mark.parametrize(
    "spec, depth",
    [
        *[(json.loads(path.read_text()), cli.MAX_HANKEL_DEPTH) for path in sorted(SPECS.glob("*.json"))],
        # the specs of the Hankel CI steps at their depths
        ({"rows": [[2, "1/2", -1], ["-2/3", 1, 1], [1, "1/3", -1]], "rho": [1, "-1/2"], "repeat_last_row": True}, 63),
        ({"rows": [[1, -2, -2], [1, 1, 0]], "rho": [0]}, 126),
        # the widest entries the benchmark's spec pool draws, at its depth 22
        ({"rows": [[1, "-1/3", 2], ["1/2", -2, "1/3"]], "rho": ["-1/2", 2]}, 22),
    ],
)
def test_hankel_cap_admits_bundled_and_recorded_specs(spec, depth):
    # perturbed_moments, with 3-bit entries, is the widest: 3 * 191**2 = 109,443
    assert cli._entry_bits(AMatrixSpec.from_dict(spec)) * depth**2 <= cli.MAX_ENTRY_WORK


def test_verify_sweep_rejects_malformed_range(capsys):
    code, _, err = run(capsys, "verify", "--sweep", "rho0", "--range", "1to2")
    assert code == 2
    assert "range must look like" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--range=garbage"], "error: --range applies only to --sweep\n"),
        (["--range=-1..1", "--format", "json"], "error: --range applies only to --sweep\n"),
        (["pascal", "--sweep", "rho0"], "error: a fixture filter ('pascal') does not apply to --sweep\n"),
        (["pascal", "--sweep", "rhodelta", "--range=0..0"], "error: a fixture filter ('pascal') does not apply to --sweep\n"),
        (["--sweep", "rho0", "--range="], "error: range must look like -2..2, got ''\n"),
    ],
)
def test_verify_refuses_an_argument_it_would_not_read(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", message)


def test_verify_sweep_range_defaults_to_minus_two_to_two(capsys):
    code, out, _ = run(capsys, "verify", "--sweep", "rho0", "--order", "10", "--format", "json")
    assert code == 0 and json.loads(out)["range"] == [-2, 2]
