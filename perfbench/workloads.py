"""The three benchmark workloads: their seeded inputs, one op, and its check.

Each workload builds, from the run seed, the list of ops for one pass, and
knows how to run one op against the ``riordan`` package and how to check
its output against a reference that the code under test did not produce in
this run:

* ``sweep``: the recorded per-point conjecture table (``refs/sweep.json``).
* ``pipeline``: corpus literals for the bundled specs and the SHA-256 of
  every output recorded from a known-good revision (``refs/pipeline.json``).
* ``hankel``: Heilermann's product formula for Hankel determinants of
  J-fraction moments, and an independent rank classification of the
  Somos-4 window equations.

Nothing in this module imports ``riordan`` at import time: the runner
re-imports the package during each set-up, and every workload binds the
modules it uses in ``setup``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

SWEEP_ORDER = 32
SWEEP_BOX = (-4, 4)
SWEEP_PASS = 160
SWEEP_WARMUP = (1, 1, 1, 1, 0)
TRACE_OPS = 64

PIPELINE_FLAGS = (
    "--triangle", "--production", "--aseq", "--zseq", "--hankel",
    "--somos-fit", "--jfraction", "--format", "json",
)
# --jfraction at depth rows-1 needs 2*rows terms of f/x, so order must be
# at least 2*rows+1; the CLI preflight only enforces 2*rows (a known defect).
PIPELINE_ORDER = 48
PIPELINE_ROWS = 23
POOL_SEED = 20240517
POOL_SIZE = 30

HANKEL_PASS = 128
HANKEL_INT_DEPTH = 32
HANKEL_RAT_DEPTH = 16

# Corpus entries whose literal expected values a bundled spec must reproduce.
CORPUS_IDS = {
    "a171416.json": ("A171416.",),
    "motzkin.json": ("motzkin.",),
    "schroeder.json": ("A006318-simple.",),
    "hybrid_trees.json": ("A007863.",),
    "pascal.json": ("pascal.column",),
    "perturbed_moments.json": ("perturbed-moments.",),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- sweep ----------------------------------------------------------------


class Sweep:
    """One op is ``verify.check_conjecture_point`` at one seeded point."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.verify = importlib.import_module("riordan.verify")
        with open(Path(__file__).parent / "refs" / "sweep.json", encoding="utf-8") as fh:
            table = json.load(fh)
        if table["order"] != SWEEP_ORDER or tuple(table["box"]) != SWEEP_BOX:
            raise ValueError("refs/sweep.json was recorded for another order or box")
        special = {}
        for rho0 in (0, 1):
            entry = table[f"rho0={rho0}"]
            for a, b, c, d in entry["degenerate"]:
                special[(a, b, c, d, rho0)] = ("degenerate", None)
            for a, b, c, d, n in entry["counterexample"]:
                special[(a, b, c, d, rho0)] = ("counterexample", n)
        rng = random.Random(self.seed)
        lo, hi = SWEEP_BOX
        points = [tuple(rng.randint(lo, hi) for _ in range(4)) + (i % 2,) for i in range(SWEEP_PASS)]
        self.ops = [(p, special.get(p, ("confirmed", None))) for p in points]
        self.trace_ops = self.ops[:TRACE_OPS]
        self._warmup_op = (SWEEP_WARMUP, special.get(SWEEP_WARMUP, ("confirmed", None)))

    def warmup(self) -> None:
        self.run(self._warmup_op)

    def run(self, op):
        (a, b, c, d, rho0), _ = op
        return self.verify.check_conjecture_point(a, b, c, d, rho0, order=SWEEP_ORDER)

    def check(self, op, out) -> str | None:
        point, expected = op
        if tuple(out) != expected:
            return f"point {point}: got {out}, recorded {expected}"
        return None

    def canonical(self, out) -> str:
        return json.dumps(list(out))


# -- pipeline -------------------------------------------------------------


def bundled_specs(root: Path) -> list[Path]:
    return sorted((root / "specs").glob("*.json"))


def load_corpus(root: Path) -> dict:
    with open(root / "src" / "riordan" / "fixtures" / "corpus.json", encoding="utf-8") as fh:
        return {entry["id"]: entry for entry in json.load(fh)}


def generate_spec_pool(seed: int, count: int) -> list[dict]:
    """Random specs of the shape the amatrix tests draw: depth <= 2, width
    <= 3, rho length <= 2, entries in -2..2, top-left entry 1; a third of
    them with some p/q entries and a quarter with the last row repeated."""
    rng = random.Random(seed)
    pool = []
    for _ in range(count):
        rational = rng.random() < 1 / 3

        def entry():
            if rational and rng.random() < 0.3:
                return f"{rng.choice((-1, 1))}/{rng.randint(2, 3)}"
            return rng.randint(-2, 2)

        depth, width = rng.randint(1, 2), rng.randint(1, 3)
        rows = [[entry() for _ in range(width)] for _ in range(depth)]
        rows[0][0] = 1
        rho = [entry() for _ in range(rng.randint(0, 2))]
        pool.append({"rows": rows, "rho": rho, "repeat_last_row": rng.random() < 0.25})
    return pool


def run_pipeline(spec_path: Path, cli=None, order=PIPELINE_ORDER, rows=PIPELINE_ROWS) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    if cli is None:
        cli = importlib.import_module("riordan.cli")
    argv = ["pipeline", str(spec_path), *PIPELINE_FLAGS, "--order", str(order), "--rows", str(rows)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _prefix_matches(got: list, expected: list) -> bool:
    return len(got) >= len(expected) and all(
        Fraction(g) == Fraction(e) for g, e in zip(got, expected)
    )


def _block_matches(got: list, expected: list) -> bool:
    return len(got) >= len(expected) and all(
        _prefix_matches(g, e) for g, e in zip(got, expected)
    )


def corpus_mismatches(spec_name: str, payload: dict, corpus: dict) -> list[str]:
    """Corpus ids whose literal expected values the output does not reproduce."""
    bad = []
    for fid, fx in corpus.items():
        if not fid.startswith(CORPUS_IDS.get(spec_name, ())):
            continue
        kind, want = fx["check_kind"], fx["expected"]
        if kind in ("column", "aseq", "zseq", "hankel"):
            ok = _prefix_matches(payload[kind], want)
        elif kind == "triangle":
            ok = _block_matches(payload["triangle"], want)
        elif kind == "production":
            ok = _block_matches(payload["production"]["matrix"], want)
        elif kind == "somos" and want["mode"] == "fit" and want["kind"] == "Unique":
            fit = payload["somos_fit"]
            ok = fit["kind"] == "Unique" and (
                Fraction(fit["alpha"]), Fraction(fit["beta"])
            ) == (Fraction(want["alpha"]), Fraction(want["beta"]))
        else:
            raise ValueError(f"no comparison for corpus entry {fid} ({kind})")
        if not ok:
            bad.append(fid)
    return bad


class Pipeline:
    """One op is ``riordan.cli.main(["pipeline", SPEC, ...all analyses])``.

    A pass holds the six bundled specs and one spec from each pair of pool
    specs adjacent in recorded cost, in seeded order.  Pool specs cost 0.05
    to 3.3 s each, so a free draw would make the work of a pass, and with it
    every per-op statistic, depend on the seed; the pairing keeps the mix of
    costs nearly the same for every seed while each seed still runs its own
    specs.
    """

    def __init__(self, root: Path, seed: int, spec_dir: Path):
        self.root = root
        self.seed = seed
        self.spec_dir = spec_dir
        self.output_bytes = 0

    def setup(self) -> None:
        self.cli = importlib.import_module("riordan.cli")
        self.corpus = load_corpus(self.root)
        with open(Path(__file__).parent / "refs" / "pipeline.json", encoding="utf-8") as fh:
            refs = json.load(fh)
        by_name = {entry["name"]: entry for entry in refs}
        ops = [
            (path, by_name[path.name]["sha256"], path.name) for path in bundled_specs(self.root)
        ]
        pool = sorted((e for e in refs if not e["name"].endswith(".json")), key=lambda e: e["cost_s"])
        rng = random.Random(self.seed)
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        for pair in range(0, len(pool) - 1, 2):
            entry = rng.choice(pool[pair:pair + 2])
            path = self.spec_dir / f"{entry['name']}.json"
            path.write_text(json.dumps(entry["spec"]), encoding="utf-8")
            ops.append((path, entry["sha256"], None))
        rng.shuffle(ops)
        self.ops = self.trace_ops = ops

    def warmup(self) -> None:
        run_pipeline(bundled_specs(self.root)[0], self.cli, order=12, rows=5)

    def run(self, op):
        return run_pipeline(op[0], self.cli)

    def check(self, op, out) -> str | None:
        path, sha, corpus_name = op
        code, text = out
        self.output_bytes += len(text.encode("utf-8"))
        if code != 0:
            return f"{path.name}: exit code {code}"
        if digest(text) != sha:
            return f"{path.name}: output digest differs from the recorded one"
        if corpus_name:
            bad = corpus_mismatches(corpus_name, json.loads(text), self.corpus)
            if bad:
                return f"{path.name}: disagrees with corpus entries {bad}"
        return None

    def canonical(self, out) -> str:
        return out[1]


# -- hankel ---------------------------------------------------------------


def motzkin_moments(b: list, lam: list, count: int) -> list:
    """Moments of the J-fraction 1/(1 - b0 x - lam1 x^2/(1 - b1 x - ...)).

    Weighted Motzkin paths: T[n+1][k] = T[n][k-1] + b_k T[n][k] + lam_(k+1) T[n][k+1],
    with moment n equal to T[n][0].
    """
    row = [1]
    out = [1]
    for n in range(1, count):
        nxt = []
        for k in range(min(n, len(b) - 1) + 1):
            v = b[k] * row[k] if k < len(row) else 0
            if k >= 1:
                v += row[k - 1]
            if k + 1 < len(row):
                v += lam[k] * row[k + 1]
            nxt.append(v)
        row = nxt
        out.append(row[0])
    return out


def heilermann(lam: list, depth: int) -> list:
    """H_n = prod_(i<=n) lam_i^(n+1-i) for moments with s_0 = 1 (lam_1 = lam[0])."""
    out, h, p = [1], 1, 1
    for i in range(depth):
        p *= lam[i]
        h *= p
        out.append(h)
    return out


def _rank(rows: list) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank, col, width = 0, 0, len(m[0]) if m else 0
    while rank < len(m) and col < width:
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def expected_somos_fit(h: list) -> tuple:
    """Classify the windows h_n h_(n-4) = alpha h_(n-1) h_(n-3) + beta h_(n-2)^2
    by the ranks of the coefficient and augmented matrices."""
    if len(h) < 6:
        return ("InsufficientData",)
    eqs = [(h[n - 1] * h[n - 3], h[n - 2] ** 2, h[n] * h[n - 4]) for n in range(4, len(h))]
    for k in range(1, len(eqs) + 1):
        if _rank([e[:2] for e in eqs[:k]]) != _rank(eqs[:k]):
            return ("Inconsistent", k + 3)
    nonzero = [e for e in eqs if e[0] or e[1]]
    rank = _rank([e[:2] for e in eqs])
    if rank == 0:
        return ("InsufficientData",)
    p, q, r = (Fraction(v) for v in nonzero[0])
    if rank == 1:
        lead = p if p else q
        return ("Family", (p / lead, q / lead, r / lead))
    for p2, q2, r2 in nonzero[1:]:
        cross = p * q2 - p2 * q
        if cross:
            return ("Unique", (r * q2 - r2 * q) / cross, (p * r2 - p2 * r) / cross)
    raise AssertionError("rank 2 without two independent windows")


def _fit_tuple(fit) -> tuple:
    if fit.kind == "Unique":
        return (fit.kind, fit.alpha, fit.beta)
    if fit.kind == "Family":
        return (fit.kind, tuple(fit.family_description))
    if fit.kind == "Inconsistent":
        return (fit.kind, fit.failing_index)
    return (fit.kind,)


class Hankel:
    """One op is ``hankel_transform`` plus ``somos_fit`` on one moment sequence.

    Ops alternate between integer J-fraction data at depth 32 (the Bareiss
    route) and p/q data at depth 16 (the Gaussian route).
    """

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.hankel = importlib.import_module("riordan.hankel")
        sequence = importlib.import_module("riordan.series").Sequence
        rng = random.Random(self.seed)
        self.ops = []
        for i in range(HANKEL_PASS):
            if i % 2 == 0:
                depth = HANKEL_INT_DEPTH
                b = [rng.randint(-3, 3) for _ in range(depth + 1)]
                lam = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(depth)]
            else:
                depth = HANKEL_RAT_DEPTH
                b = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(depth + 1)]
                lam = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(depth)]
            moments = motzkin_moments(b, lam, 2 * depth + 1)
            h = heilermann(lam, depth)
            self.ops.append((sequence.of(moments), depth, h, expected_somos_fit(h)))
        self.trace_ops = self.ops[:TRACE_OPS]

    def warmup(self) -> None:
        self.run(self.ops[0])

    def run(self, op):
        seq, depth, _, _ = op
        h = self.hankel.hankel_transform(seq, depth)
        return h.terms, self.hankel.somos_fit(h)

    def check(self, op, out) -> str | None:
        _, depth, h, fit = op
        terms, got_fit = out
        if list(terms) != h:
            return f"depth {depth}: Hankel transform differs from Heilermann's product"
        if _fit_tuple(got_fit) != fit:
            return f"depth {depth}: somos_fit gave {_fit_tuple(got_fit)}, expected {fit}"
        return None

    def canonical(self, out) -> str:
        terms, fit = out
        return json.dumps([[str(t) for t in terms], [str(v) for v in _fit_tuple(fit)]])
