"""Spans around calls into the public functions of each ``riordan`` module.

The tracer patches the functions from outside: the name in its defining
module and every other ``riordan`` module that bound the same object with
``from .x import y`` (``verify.hankel_transform``, ``cli.solve_f``, ...).
Each call records a span (name, op id, parent span, start, end) in memory;
``write`` dumps them at the end of the run.  A span's self time is its
duration minus the time covered by its child spans.

Work the benchmark itself does inside an op (the tracer's bit-length and
argument scans after a call returns, the host-speed probes of ``run.Clock``)
is recorded as a ``bench`` child span of whatever span is open, so it is
left out of every layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("series", "amatrix", "core", "hankel", "verify", "cli")
BENCH = "bench"


def _coeff_bits(counters, result, args, kwargs) -> None:
    coeffs = getattr(result, "coeffs", None)
    if coeffs is None:
        return
    top = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
    if top > counters["series.coeff_bits_max"]:
        counters["series.coeff_bits_max"] = top


def _solve_passes(counters, result, args, kwargs) -> None:
    counters["amatrix.solve_f.passes"] += result.iterations


def _rational_det(counters, result, args, kwargs) -> None:
    if any(isinstance(v, Fraction) and v.denominator != 1 for row in args[0] for v in row):
        counters["hankel.exact_det.rational_calls"] += 1


def _windows(counters, result, args, kwargs) -> None:
    status, window = result
    if status == "confirmed":
        order = kwargs["order"] if "order" in kwargs else args[5]
        counters["verify.windows_checked"] += (order - 1) // 2 - 3
    elif status == "counterexample":
        counters["verify.windows_checked"] += window - 3


class Tracer:
    """Records spans for the wrapped calls of one run; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.op_factor: dict[int, float] = {}  # host-speed correction per op
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        nid, hook_id = self._name_id(name), self._name_id(BENCH)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[layer + ".errors"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, self.op_id, parent, start, end)
                counters[name + ".calls"] += 1
            if hook is not None:
                hook(counters, result, args, kwargs)
                spans.append((hook_id, self.op_id, parent, end, perf_counter_ns()))
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever a ``riordan`` module binds it."""
        cls = importlib.import_module("riordan.series").PowerSeries
        mul = self._wrap("series.mul", cls.__dict__["__mul__"], _coeff_bits)
        self._patch(cls, "__mul__", mul)
        self._patch(cls, "__rmul__", mul)
        for attr, name in (("__truediv__", "series.div"), ("compose", "series.compose"), ("revert", "series.revert")):
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], _coeff_bits))

        functions = (
            ("amatrix", "solve_f", _solve_passes),
            ("amatrix", "closed_form_f_general", None),
            ("core", "riordan_triangle", None),
            ("core", "production_matrix", None),
            ("core", "a_sequence", None),
            ("core", "z_sequence", None),
            ("hankel", "hankel_transform", None),
            ("hankel", "exact_det", _rational_det),
            ("hankel", "jfraction", None),
            ("hankel", "somos_fit", None),
            ("verify", "check_conjecture_point", _windows),
            ("cli", "main", None),
        )
        modules = [importlib.import_module(f"riordan.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("riordan"))
        for layer, fname, hook in functions:
            original = getattr(importlib.import_module(f"riordan.{layer}"), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, hook)
            for module in modules:
                if module.__dict__.get(fname) is original:
                    self._patch(module, fname, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def bench_span(self, start: int, end: int) -> None:
        """Record benchmark work done inside the currently open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self._name_id(BENCH), self.op_id, parent, start, end))

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Mark one benchmark op as a root span; its calls share its op id."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self._name_id("op"), op_id, -1, start, end)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus the children's durations,
        scaled by the host-speed correction of the op the span belongs to."""
        child = [0] * len(self.spans)
        for nid, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (nid, op, _, start, end) in enumerate(self.spans):
            out[self.names[nid]] += (end - start - child[i]) * self.op_factor.get(op, 1.0) / 1e9
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Counters and ``<name>.self_s`` totals; names never hit are absent."""
        metrics: dict[str, float] = dict(self.counters)
        for name, secs in self.self_times().items():
            metrics[name + ".self_s"] = secs
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)

