"""Command-line surface for the toolkit.

Subcommands:

    solve     SPEC.json            print f and f/x for a coefficient-array spec
    pipeline  SPEC.json [flags]    solve, build the Bell array, run analyses
    verify    [FILTER | --sweep]   run bundled fixtures or a conjecture sweep

Exit codes: 0 success, 1 fixture or comparison failure, 2 bad arguments or
spec or insufficient order, 3 I/O problems (missing or unparsable files),
4 an internal error (an unexpected exception, reported on one line).

Work is bounded in size: --order, --rows, the Hankel depth and the sweep box
have caps.  solve and pipeline exit 2 when the entries' bit length b (that of
the largest of their common denominator and the numerators over it) times
order**1.5 exceeds MAX_ENTRY_WORK: f's n-th coefficient carries about n*b bits,
and solving f to order n takes about n**2 products of such ints.  That bounds
the solve and the series stages.  pipeline's Hankel flags also exit 2 when b
times depth**2 exceeds MAX_ENTRY_WORK: the depth-n minors grow as n**2 * b bits.

Output is deterministic.  JSON output renders every rational as a string
("7" or "11/4") so arbitrarily large values survive any JSON parser, and is
emitted with sorted keys so reprinting a parsed report is byte-identical.
The plain output of solve and pipeline is rendered from their JSON payload.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from decimal import Decimal
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from .series import InsufficientTerms, format_rational, _over_common_denominator, _ratio_text, _texts
from .core import bell_from_f, _band
from .amatrix import AMatrixSpec, InvalidSpec, bell_pair, solve_f, _triangle_ints
from .hankel import FAMILY, INCONSISTENT, UNIQUE, _chebyshev, _somos_fit_ints
from . import verify as verify_mod

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# bounds on the work one command may ask for; larger requests exit 2
MAX_ORDER = 1024
MAX_SWEEP_POINTS = 10**4  # [-4..4]^4, 6561 points, runs; [-5..5]^4 does not
# a non-degenerate sweep point's P-fraction takes 0.0023-0.0032 s (median) and at most 0.008 s at 128,
# 0.049-0.068 s and at most 0.17 s at 256 (40 seeded [-4..4]^4 points, CPython 3.11, 2 vCPUs): the minors'
# bits grow with the square of the order, so the rho0 [-4..4]^4 box takes 12-14 s at 128, minutes at 256
MAX_SWEEP_ORDER = 128
# --hankel, --somos-fit and --jfraction run to depth rows - 1, on one Chebyshev pass.  The
# slowest bundled spec, hybrid_trees, takes 2.9 / 25 / 130 s for that pass at depth
# 127 / 191 / 255 (CPython 3.11, 2 vCPUs); the next slowest, a171416, 1.3 s at 191.
MAX_HANKEL_DEPTH = 191
# entry bits times order**1.5: along it a three-row spec's solve takes 0.3 s at order 32
# (724-bit entries), 3.4 s at 256 and 24 s at 1024 (4 bits; CPython 3.11, 2 vCPUs).  Every
# bundled spec runs at MAX_ORDER; the README says why the order enters to the power 1.5.
# Also entry bits times depth**2 for the Hankel flags: along it the full pipeline of the
# three-row spec {"rows": [[1, N, N], [N, N, -N]], "rho": [N, N, N], "repeat_last_row": true}
# takes 272 s at depth 181 (4 bits, the slowest case timed) and 219 s at MAX_HANKEL_DEPTH
# (3 bits, those of perturbed_moments); 16 bits at depth 126 ran past 300 s.
MAX_ENTRY_WORK = 2**17


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _emit_json(payload) -> None:
    print(_json_text(payload))


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, at nesting ``indent``.

    Dicts with str keys, lists and tuples are laid out here, and a list of strings is
    one join of their encodings: indent=2 sends json.dumps to its pure-Python encoder.
    Any other value is json.dumps's own text, re-indented (a JSON text holds no raw
    newline but those of its layout).
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        items = [f"{_encode_str(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
    elif isinstance(value, (list, tuple)) and value:
        try:
            items = list(map(_encode_str, value))
        except TypeError:  # not all strings
            items = [_json_text(v, inner) for v in value]
    else:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _coeff_texts(series) -> list[str]:
    """A series' coefficients rendered from its stored ints, with no Fraction."""
    return _texts(series._nums, series._den)


def _entry_bits(spec: AMatrixSpec) -> int:
    """The bit length of the largest of the entries' common denominator and their numerators over it."""
    nums, d = _over_common_denominator([*chain(*spec.rows), *spec.rho])
    return max(d, *map(abs, nums)).bit_length()


def _load_spec(path: str, order: int) -> AMatrixSpec:
    """The spec in path, refused when its entries' bits times order**1.5 exceed MAX_ENTRY_WORK."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=lambda s: int(Decimal(s)))  # no digit cap
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # also not UTF-8, too deep
        raise _CliError(EXIT_IO, f"{path} is not valid JSON: {exc}")
    try:
        spec = AMatrixSpec.from_dict(data)
    except (InvalidSpec, TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid spec in {path}: {exc}")
    bits = _entry_bits(spec)
    if bits * bits * order**3 > MAX_ENTRY_WORK**2:
        raise _CliError(
            EXIT_USAGE,
            f"spec entries of {bits} bits at --order {order} exceed {MAX_ENTRY_WORK} bits times order^1.5",
        )
    return spec


def _cmd_solve(args) -> int:
    spec = _load_spec(args.spec, args.order)
    report = solve_f(spec, args.order)
    f = _coeff_texts(report.f)
    payload = {
        "f": f,
        "f_over_x": f[1:],
        "order": args.order,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        print("f:    " + " ".join(payload["f"]))
        print("f/x:  " + " ".join(payload["f_over_x"]))
    return EXIT_OK


def _fit_json(fit) -> dict:
    out: dict = {"kind": fit.kind}
    if fit.kind == UNIQUE:
        out["alpha"] = format_rational(fit.alpha)
        out["beta"] = format_rational(fit.beta)
    elif fit.kind == FAMILY:
        out["line"] = list(map(format_rational, fit.family_description))
    elif fit.kind == INCONSISTENT:
        out["failing_window"] = fit.failing_index
    return out


def _jfraction_json(b, lam) -> dict:
    """The J-fraction heads of hankel._chebyshev, (numerator, denominator) pairs."""
    return {
        "b": [_ratio_text(*x) for x in b],
        "lambda": [_ratio_text(*x) for x in lam],
        "terminated": len(b) == len(lam),
    }


def _fit_description(fit: dict) -> str:
    """The plain rendering of a _fit_json payload."""
    if fit["kind"] == UNIQUE:
        return f"Unique alpha={fit['alpha']} beta={fit['beta']}"
    if fit["kind"] == FAMILY:
        p, q, r = fit["line"]
        return f"Family {p}*alpha + {q}*beta = {r}"
    if fit["kind"] == INCONSISTENT:
        return f"Inconsistent at window {fit['failing_window']}"
    return fit["kind"]


def _jfraction_lines(jf: dict) -> list[str]:
    lines = [
        "J-fraction b:      " + " ".join(jf["b"]),
        "J-fraction lambda: " + " ".join(jf["lambda"]),
    ]
    if jf["terminated"]:
        lines.append("J-fraction terminated early (a lambda vanished)")
    return lines


# The plain-text lines of each pipeline payload entry, printed in payload order.
_PLAIN = {
    "column": lambda v: ["column: " + " ".join(v)],
    "triangle": lambda v: ["triangle:", *("  " + " ".join(r) for r in v)],
    "production": lambda v: [
        "production:",
        *("  " + " ".join(r) for r in v["matrix"]),
        "Z: " + " ".join(v["z"]),
        "A: " + " ".join(v["a"]),
    ],
    "aseq": lambda v: ["A-sequence: " + " ".join(v)],
    "zseq": lambda v: ["Z-sequence: " + " ".join(v)],
    "hankel": lambda v: ["hankel: " + " ".join(v)],
    "somos_fit": lambda v: ["somos fit: " + _fit_description(v)],
    "jfraction": _jfraction_lines,
    "bfile": lambda v: [
        f"b-file check: {'match' if v['match'] else 'MISMATCH'} on {v['compared']} terms"
    ],
}


def _cmd_pipeline(args) -> int:
    spec = _load_spec(args.spec, args.order)
    order, rows = args.order, args.rows
    if args.production and rows < 2:
        raise _CliError(EXIT_USAGE, f"--production needs --rows >= 2, got {rows}")
    if args.hankel or args.somos_fit or args.jfraction:
        if rows - 1 > MAX_HANKEL_DEPTH:
            raise _CliError(
                EXIT_USAGE, f"Hankel analyses run to depth rows - 1, at most {MAX_HANKEL_DEPTH}; got --rows {rows}"
            )
        bits = _entry_bits(spec)
        if bits * (rows - 1) ** 2 > MAX_ENTRY_WORK:
            raise _CliError(
                EXIT_USAGE,
                f"spec entries of {bits} bits at Hankel depth {rows - 1} exceed {MAX_ENTRY_WORK} bits times depth^2",
            )
    # the Bell pair keeps order - 1 terms of f/x; depth rows - 1 uses 2*rows - 1
    # of them for Hankel and 2*rows for J-fractions
    needs = (
        (True, 3, "the Bell array"),
        (args.zseq, 4, "the Z-sequence"),
        (args.triangle, rows + 1, f"a {rows}-row triangle"),
        (args.production, rows + 2, f"a {rows}-row production matrix"),
        (args.hankel or args.somos_fit, 2 * rows, f"depth-{rows} Hankel analyses"),
        (args.jfraction, 2 * rows + 1, f"a depth-{rows} J-fraction"),
    )
    for wanted, need, what in needs:
        if wanted and order < need:
            raise _CliError(
                EXIT_USAGE, f"insufficient order: {what} needs order >= {need}, have {order}"
            )
    # the spec's A (bell_pair) is solved only when A or Z is printed; --triangle then checks its rows against it
    spec_pair = bell_pair(spec, order) if args.aseq or args.zseq or args.production else None
    pair = spec_pair or bell_from_f(solve_f(spec, order).f)
    g = pair.g  # the column, nums / d
    if args.hankel or args.somos_fit or args.jfraction:
        # One pass gives the minors H_n of h_n = H_n / d**(n+1) and the J-fraction,
        # whole when the column has the one more term --jfraction asks for.  The fit
        # reads the minors: they scale window n by d**(2n-2), which no fitted quantity sees.
        minors, jf = _chebyshev(g._nums[: 2 * rows], rows - 1, minors=args.hankel or args.somos_fit)

    @functools.cache
    def sequence(name: str) -> list[str]:  # the pair's checked "a" or "z", rendered once
        return _coeff_texts(getattr(pair, name))

    def triangle_row(nums, dens) -> list[str]:  # dens are all 1 for an array of integers
        return _texts(nums, 1) if dens[0] == 1 else list(map(_ratio_text, nums, dens))

    def production() -> dict:
        a, z = sequence("a")[:rows], sequence("z")[:rows]
        return {"matrix": _band(z, a, "0"), "z": z, "a": a}

    # (wanted, payload key, JSON value); each runs at most once, in output order
    analyses = (
        (args.triangle, "triangle", lambda: [triangle_row(*r) for r in _triangle_ints(spec, rows, spec_pair)]),
        (args.production, "production", production),
        (args.aseq, "aseq", lambda: sequence("a")),
        (args.zseq, "zseq", lambda: sequence("z")),
        (args.hankel, "hankel", lambda: [_ratio_text(h, g._den ** (n + 1)) for n, h in enumerate(minors)]),
        (args.somos_fit, "somos_fit", lambda: _fit_json(_somos_fit_ints(minors))),
        (args.jfraction, "jfraction", lambda: _jfraction_json(*jf)),
    )
    payload: dict = {"column": _coeff_texts(g)}
    for wanted, key, compute in analyses:
        if wanted:
            payload[key] = compute()
    exit_code = EXIT_OK
    if args.bfile:
        try:
            ref = verify_mod.load_bfile(args.bfile)
        except OSError as exc:
            raise _CliError(EXIT_IO, f"cannot read {args.bfile}: {exc}")
        except (verify_mod.MalformedLine, verify_mod.NonConsecutiveIndices) as exc:
            raise _CliError(EXIT_USAGE, f"bad b-file {args.bfile}: {exc}")
        start = max(0, ref.offset)  # the column starts at index 0
        overlap = min(ref.offset + len(ref), g.order) - start
        if overlap <= 0:
            raise _CliError(EXIT_USAGE, "b-file does not overlap the computed column")
        match = ref.terms[start - ref.offset :][:overlap] == g.coeffs[start : start + overlap]
        payload["bfile"] = {"path": args.bfile, "compared": overlap, "match": match}
        if not match:
            exit_code = EXIT_FAILURE
    if args.format == "json":
        _emit_json(payload)
    else:
        print("\n".join(line for key, value in payload.items() for line in _PLAIN[key](value)))
    return exit_code


_RANGE_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise _CliError(EXIT_USAGE, f"range must look like -2..2, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise _CliError(EXIT_USAGE, f"empty range {text!r}")
    return lo, hi


def _cmd_verify(args) -> int:
    if args.sweep and args.filter:
        raise _CliError(EXIT_USAGE, f"a fixture filter ({args.filter!r}) does not apply to --sweep")
    if not args.sweep and args.range is not None:
        raise _CliError(EXIT_USAGE, "--range applies only to --sweep")
    if args.sweep:
        order = args.order if args.order is not None else verify_mod.SWEEP_ORDER
        if order > MAX_SWEEP_ORDER:
            raise _CliError(EXIT_USAGE, f"sweep --order must be at most {MAX_SWEEP_ORDER}, got {order}")
        lo, hi = _parse_range("-2..2" if args.range is None else args.range)
        points = (hi - lo + 1) ** 4
        if points > MAX_SWEEP_POINTS:
            raise _CliError(EXIT_USAGE, f"sweep box [{lo}..{hi}]^4 has {points} points, more than {MAX_SWEEP_POINTS}")
        sweep = (
            verify_mod.sweep_conjecture_rho0
            if args.sweep == "rho0"
            else verify_mod.sweep_conjecture_rho_delta
        )
        try:
            report = sweep(lo, hi, order)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc))
        if args.format == "json":
            _emit_json(report.as_dict())
        else:
            print(
                f"sweep {report.family} over [{lo}..{hi}]^4: "
                f"{report.confirmed} confirmed, {report.degenerate} degenerate, "
                f"{len(report.counterexamples)} counterexamples of {report.total}"
            )
            for params, window in report.counterexamples:
                print(f"  COUNTEREXAMPLE at {params}, window {window}")
        return EXIT_OK
    try:
        order = args.order if args.order is not None else verify_mod.DEFAULT_ORDER
        report = verify_mod.run_fixtures(args.filter or None, order=order)
    except verify_mod.FixtureNotFound as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if args.format == "json":
        _emit_json(
            {
                "total": report.total,
                "failed": [
                    {"id": o.id, "detail": o.detail} for o in report.failed
                ],
            }
        )
    else:
        for outcome in report.outcomes:
            mark = "ok" if outcome.ok else "FAIL"
            extra = f"  ({outcome.detail})" if outcome.detail else ""
            print(f"{mark:4s} {outcome.id}{extra}")
        print(f"{report.total - len(report.failed)}/{report.total} fixtures passed")
    return EXIT_OK if report.ok else EXIT_FAILURE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Exact Riordan-array toolkit: solve, analyze, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=32, help="series truncation order")
        p.add_argument(
            "--format", choices=("plain", "json"), default="plain", help="output format"
        )

    p_solve = sub.add_parser("solve", help="solve a coefficient-array spec for f")
    p_solve.add_argument("spec", help="path to an AMatrixSpec JSON file")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_pipe = sub.add_parser("pipeline", help="solve a spec and run analyses")
    p_pipe.add_argument("spec", help="path to an AMatrixSpec JSON file")
    common(p_pipe)
    p_pipe.add_argument("--rows", type=int, default=12, help="depth of the analyses")
    p_pipe.add_argument("--triangle", action="store_true", help="print the Bell triangle")
    p_pipe.add_argument("--production", action="store_true", help="print the production matrix")
    p_pipe.add_argument("--aseq", action="store_true", help="print the A-sequence")
    p_pipe.add_argument("--zseq", action="store_true", help="print the Z-sequence")
    p_pipe.add_argument("--hankel", action="store_true", help="print the Hankel transform of the column")
    p_pipe.add_argument("--somos-fit", dest="somos_fit", action="store_true", help="fit Somos-4 parameters to the Hankel transform")
    p_pipe.add_argument("--jfraction", action="store_true", help="print the J-fraction of the column")
    p_pipe.add_argument("--bfile", help="compare the column against a local b-file")
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_verify = sub.add_parser("verify", help="run bundled fixtures or conjecture sweeps")
    p_verify.add_argument("filter", nargs="?", default="", help="substring filter on fixture ids")
    p_verify.add_argument("--order", type=int, default=None, help="series truncation order")
    p_verify.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format"
    )
    p_verify.add_argument("--sweep", choices=("rho0", "rhodelta"), help="run a conjecture sweep instead of fixtures")
    p_verify.add_argument(
        "--range",
        default=None,
        help="per-parameter integer range LO..HI of --sweep, -2..2 by default (write --range=-2..2 for negative bounds)",
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.order is not None and not 2 <= args.order <= MAX_ORDER:
            raise _CliError(EXIT_USAGE, f"--order must be in 2..{MAX_ORDER}, got {args.order}")
        if getattr(args, "rows", 1) < 1:
            raise _CliError(EXIT_USAGE, f"--rows must be at least 1, got {args.rows}")
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InsufficientTerms as exc:
        print(f"error: insufficient order: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
