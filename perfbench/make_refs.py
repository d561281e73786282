"""Record the reference outputs that ``run.py`` checks ops against.

The references are recorded once from a known-good revision of the code and
committed; later revisions are checked against them, so a change that alters
an answer shows as a failed op.  Run from the repository root:

    python3 perfbench/make_refs.py sweep      # ~20 CPU-minutes, 2 workers
    python3 perfbench/make_refs.py pipeline   # ~3 CPU-minutes, 1 process

``sweep`` evaluates every point of the ``[-4..4]^4`` box for both rho0
families at the benchmark's order.  ``pipeline`` generates the random-spec
pool, runs every bundled and pool spec through the CLI once, and records the
SHA-256 of each output together with its cost (the least of three timed
runs), by which ``run.py`` pairs the pool specs.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFS = HERE / "refs"


def _sweep_point(args):
    from riordan import verify

    a, b, c, d, rho0 = args
    return verify.check_conjecture_point(a, b, c, d, rho0, workloads.SWEEP_ORDER)


def record_sweep(processes: int = 2) -> None:
    lo, hi = workloads.SWEEP_BOX
    points = [
        (a, b, c, d, rho0)
        for rho0 in (0, 1)
        for a, b, c, d in product(range(lo, hi + 1), repeat=4)
    ]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes) as pool:
        results = pool.map(_sweep_point, points, chunksize=64)
    table = {"order": workloads.SWEEP_ORDER, "box": [lo, hi]}
    for rho0 in (0, 1):
        table[f"rho0={rho0}"] = {"degenerate": [], "counterexample": []}
    for (a, b, c, d, rho0), (status, window) in zip(points, results):
        entry = table[f"rho0={rho0}"]
        if status == "degenerate":
            entry["degenerate"].append([a, b, c, d])
        elif status == "counterexample":
            entry["counterexample"].append([a, b, c, d, window])
    REFS.mkdir(exist_ok=True)
    with open(REFS / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, separators=(",", ":"))
        fh.write("\n")


def _record_spec(tmp: Path, name: str, spec: dict, corpus: dict) -> dict:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(spec))
    costs = []
    for _ in range(3):
        start = time.perf_counter()
        code, out = workloads.run_pipeline(path)
        costs.append(time.perf_counter() - start)
    if code != 0:
        raise SystemExit(f"{name} exits with {code}: the pipeline workload needs ops that succeed")
    if name.endswith(".json"):
        problems = workloads.corpus_mismatches(name, json.loads(out), corpus)
        if problems:
            raise SystemExit(f"{name} disagrees with the corpus: {problems}")
    print(f"{name} {min(costs):.2f}s", file=sys.stderr)
    return {"name": name, "spec": spec, "sha256": workloads.digest(out), "cost_s": round(min(costs), 3)}


def record_pipeline() -> None:
    corpus = workloads.load_corpus(ROOT)
    specs = [(path.name, json.loads(path.read_text())) for path in workloads.bundled_specs(ROOT)]
    pool = workloads.generate_spec_pool(workloads.POOL_SEED, workloads.POOL_SIZE)
    specs += [(f"pool-{i:02d}", spec) for i, spec in enumerate(pool)]
    tmp = ROOT / ".bench_out" / "make_refs"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        entries = [_record_spec(tmp, name, spec, corpus) for name, spec in specs]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFS / "pipeline.json", "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "sweep":
        record_sweep()
    elif what == "pipeline":
        record_pipeline()
    else:
        raise SystemExit("usage: make_refs.py sweep|pipeline")
