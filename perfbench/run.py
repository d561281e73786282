"""Benchmark for the riordan toolkit: one workload per process, closed loop.

    python3 perfbench/run.py --workload sweep|pipeline|hankel --seed N \\
        --seconds S --trace 0|1 [--max-ops N]

One thread issues each op only after the previous one returned.  Inputs come
from ``--seed`` alone; every op's output is checked (see ``workloads.py``).

Set-up (importing ``riordan`` afresh, generating the inputs, one warm-up op)
runs ``SETUP_REPS`` times and ``setup_s`` is the median.  The untraced run
(``--trace 0``) then repeats whole passes over the seeded op list until
``--seconds`` have elapsed, so every run holds each input equally often, and
prints the end-to-end metrics.  The traced run (``--trace 1``) times the
trace ops untraced, then with the spans of ``tracer.py`` installed, then
untraced again; it prints the per-layer totals of the traced pass and the
tracing overhead against the mean of the two untraced passes, and writes the
spans to ``.bench_out/`` in the repository root.

Host-speed correction.  On shared hosts the same single-threaded computation
runs up to 1.9x slower for a fraction of a second to many seconds at a time,
which swamps any code change.  So a fixed pure-Python probe of about half a
millisecond, sharing no code with ``riordan``, samples the host's speed every
20 ms while an op runs (see ``Clock``), and every reported time is the
measured time, less the probes, scaled by ``PROBE_REF_S`` over the mean
probe time: seconds on a host where the probe takes ``PROBE_REF_S``.  The
uncorrected wall-clock figures are printed too (``wall_*``), but only the
corrected ones go into the result line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPS = 3
PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

_SERIES = [f"series.{f}.{m}" for f in ("mul", "div", "compose", "revert") for m in ("calls", "self_s")]
PER_LAYER = {
    **{name: ("count" if name.endswith(".calls") else "s") for name in _SERIES},
    "series.coeff_bits_max": "bits",
    "amatrix.solve_f.self_s": "s",
    "amatrix.solve_f.passes": "count",
    "amatrix.closed_form_f_general.self_s": "s",
    "core.riordan_triangle.self_s": "s",
    "core.production_matrix.self_s": "s",
    "core.a_sequence.self_s": "s",
    "core.z_sequence.self_s": "s",
    "hankel.hankel_transform.self_s": "s",
    "hankel.exact_det.calls": "count",
    "hankel.exact_det.rational_calls": "count",
    "hankel.exact_det.self_s": "s",
    "hankel.jfraction.self_s": "s",
    "hankel.somos_fit.self_s": "s",
    "verify.check_conjecture_point.self_s": "s",
    "verify.windows_checked": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def probe() -> float:
    """Seconds taken by a fixed mix of small-Fraction and big-int arithmetic."""
    start = time.perf_counter()
    acc, x = Fraction(0), 1
    for i in range(1, 120):
        acc += Fraction(i % 13 + 1, i % 97 + 1)
        x = (x * 1000003 + i) % (1 << 521)
    return time.perf_counter() - start


class Clock:
    """Times calls and corrects each duration for the host's speed meanwhile.

    While a call runs, a SIGALRM timer runs ``probe`` every ``PROBE_EVERY_S``;
    the probe time is taken off the call's duration, and the rest is scaled
    by ``PROBE_REF_S`` over the mean probe time (the probes just before and
    after the call included).
    """

    def __init__(self):
        self.tracer: Tracer | None = None
        self.last_probe = probe()
        self.probes = [self.last_probe]
        self._samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self._samples.append(probe())
        if self.tracer:
            self.tracer.bench_span(start, time.perf_counter_ns())

    def time(self, fn, *args):
        """Returns (fn's result or the exception it raised, wall s, corrected s)."""
        self._samples = []
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is reported by the caller
            out = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start - sum(self._samples)
        speed = [self.last_probe, *self._samples, probe()]
        self.last_probe = speed[-1]
        self.probes.extend(speed[1:])
        return out, wall, wall * PROBE_REF_S / statistics.fmean(speed)


class Loop:
    """Runs ops of one workload, checks each output, and keeps the tallies."""

    def __init__(self, workload, clock: Clock, pass_len: int):
        self.workload = workload
        self.clock = clock
        self.pass_len = pass_len
        self.attempted = 0
        self.failed = 0
        self.first_problem: str | None = None
        self.digest = hashlib.sha256()  # over the outputs of the first pass
        self.wall: list[float] = []
        self.corrected: list[float] = []

    def one(self, op) -> None:
        """Run, time and check one op."""
        self.attempted += 1
        tracer = self.clock.tracer
        with tracer.op_span(self.attempted) if tracer else contextlib.nullcontext():
            out, wall, corrected = self.clock.time(self.workload.run, op)
        self.wall.append(wall)
        self.corrected.append(corrected)
        if tracer:
            tracer.op_factor[self.attempted] = corrected / wall
        if isinstance(out, Exception):
            self._fail(f"{type(out).__name__}: {out}")
            return
        try:
            problem = self.workload.check(op, out)
            if self.attempted <= self.pass_len:
                self.digest.update(self.workload.canonical(out).encode("utf-8"))
        except Exception as exc:  # output too malformed to check counts as failed
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            self._fail(problem)

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if self.first_problem is None:
            self.first_problem = problem

    def passes(self, ops, seconds: float) -> slice:
        """Whole passes over ops until seconds have elapsed; the slice of
        ``wall``/``corrected`` they filled."""
        first = len(self.wall)
        start = time.perf_counter()
        while len(self.wall) == first or time.perf_counter() - start < seconds:
            for op in ops:
                self.one(op)
        return slice(first, len(self.wall))


def make_workload(name: str, seed: int, spec_dir: Path):
    if name == "pipeline":
        return workloads.Pipeline(ROOT, seed, spec_dir)
    return workloads.Sweep(seed) if name == "sweep" else workloads.Hankel(seed)


def set_up(name: str, seed: int, spec_dir: Path):
    """Fresh import of riordan, seeded inputs and one warm-up op."""
    for mod in [m for m in sys.modules if m == "riordan" or m.startswith("riordan.")]:
        del sys.modules[mod]
    importlib.import_module("riordan")
    workload = make_workload(name, seed, spec_dir)
    workload.setup()
    workload.warmup()
    return workload


def untraced(loop: Loop, ops, seconds: float) -> tuple[dict, dict]:
    """Op metrics, host-corrected and wall-clock.  ``op_p90_ms`` is printed
    but is no end-to-end metric: a pipeline run holds about 21 ops, too few
    for a 90th percentile with ten samples beyond it."""
    taken = loop.passes(ops, seconds)
    ok = (taken.stop - taken.start) - loop.failed

    def summary(times):
        return {
            "ops_per_s": ok / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        }

    return summary(loop.corrected[taken]), summary(loop.wall[taken])


def traced(loop: Loop, ops, spans_path: Path) -> dict:
    first = sum(loop.corrected[loop.passes(ops, 0)])
    tracer = Tracer()
    tracer.install()
    loop.clock.tracer = tracer
    try:
        before = getattr(loop.workload, "output_bytes", 0)
        traced_s = sum(loop.corrected[loop.passes(ops, 0)])
        output_bytes = getattr(loop.workload, "output_bytes", 0) - before
    finally:
        loop.clock.tracer = None
        tracer.uninstall()
    second = sum(loop.corrected[loop.passes(ops, 0)])
    base = (first + second) / 2
    metrics = tracer.layer_metrics()
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_s"] = traced_s - base
    metrics["trace.overhead_pct"] = 100 * (traced_s - base) / base
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {name: metrics.get(name, 0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "pipeline", "hankel"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="cut each pass to its first N ops (N >= 2; for the smoke check)")
    args = parser.parse_args(argv)
    if args.max_ops is not None and args.max_ops < 2:
        parser.error("--max-ops must be at least 2")
    if not (ROOT / "src" / "riordan" / "__init__.py").is_file():
        print(f"error: no riordan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".bench_out"
    spec_dir = out_dir / f"run-{os.getpid()}"
    clock = Clock()
    extra, wall = {}, {}
    try:
        setups = [clock.time(set_up, args.workload, args.seed, spec_dir) for _ in range(SETUP_REPS)]
        for workload, _, _ in setups:
            if isinstance(workload, Exception):
                raise workload
        ops = (workload.trace_ops if args.trace else workload.ops)[: args.max_ops]
        loop = Loop(workload, clock, len(ops))
        if args.trace:
            metrics = traced(loop, ops, out_dir / f"spans-{args.workload}-seed{args.seed}.json")
            units = PER_LAYER
        else:
            measured, wall = untraced(loop, ops, args.seconds)
            metrics = {
                "setup_s": statistics.median(c for _, _, c in setups),
                **measured,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            extra["op_p90_ms"] = metrics.pop("op_p90_ms")
            wall["setup_s"] = statistics.median(w for _, w, _ in setups)
            units = END_TO_END
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops per pass {len(ops)}  timed ops {len(loop.wall)}  setup reps {SETUP_REPS}")
    print(f"python {platform.python_version()}  os.cpu_count {os.cpu_count()}  "
          f"nproc {len(os.sched_getaffinity(0))}  probe median {statistics.median(clock.probes) * 1e3:.3f} ms"
          f"  (reference {PROBE_REF_S * 1e3:.3f} ms)")
    print(f"output sha256 (first pass) {loop.digest.hexdigest()}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    for name, value in extra.items():
        print(f"{name:40s} {value:16.6f} ms (informational, {len(loop.wall)} samples)")
    for name, value in wall.items():
        print(f"{'wall_' + name:40s} {value:16.6f} {units.get(name, 'ms')} (not host-corrected)")
    print(f"{'fail_share':40s} {loop.failed / loop.attempted:16.6f} "
          f"failed/attempted ({loop.failed}/{loop.attempted})")
    if loop.first_problem:
        print(f"first failure: {loop.first_problem}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
