"""In-memory span recorder and its outside-in wiring into crsphere.

Spans wrap calls into each layer's public entry points at the places where
the library looks those names up, so nothing in the library changes:

* ``normal_form`` binds ``flow``, ``pullback_deformation`` and the field
  constructors by name at import, so they are wrapped in its namespace;
* the package attribute ``crsphere.flow`` is the function, so the flow
  module is taken from ``sys.modules``;
* ``flow.py`` and ``basis.py`` resolve ``_core.eval_poly`` at call time, so
  the kernel is wrapped on ``crsphere._core``;
* geometry, basis and operator entry points are wrapped on their classes.

A span is ``[name, start, end, parent, op, attrs]``. Spans stay in memory
and are written when the run ends. A span's self time is its duration
minus the durations of its direct children (one thread, so children never
overlap).
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

APPLY_METHODS = ("dbar_field", "k_harm", "combined_p_param", "combined_q", "box_b", "szego")
FIELD_FUNCTIONS = ("contact_from_generating", "complex_contact", "complex_contact_norm", "pi_re")


class Recorder:
    """Nested spans in one thread, tagged with the current operation id."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = "setup"

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield self.spans[idx][5]
        finally:
            self._close(idx)

    def wrap(self, name, fn, describe=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if describe is not None:
                self.spans[idx][5] = describe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _describe_eval(args, kwargs, out):
    z1, _, exponents, columns = args
    return {"shape": (int(z1.shape[0]), int(exponents.shape[0]), int(columns.shape[1]))}


def _describe_flow(default_steps):
    def describe(args, kwargs, out):
        requested = kwargs.get("steps", args[1] if len(args) > 1 else default_steps)
        identity = out.generator is None
        return {"identity": identity, "steps": int(out.steps),
                "doublings": 0 if identity else int(round(math.log2(out.steps / requested))),
                "contact_ratio": float(out.contact_ratio)}
    return describe


class Wiring:
    """Installs and removes the span wrappers on the library's lookup sites."""

    def __init__(self, recorder, lib):
        flow_module = sys.modules["crsphere.flow"]
        fields_module = sys.modules["crsphere.fields"]
        nf = lib.nf
        suite_cls = lib.operators.OperatorSuite
        basis_cls = lib.basis.Basis
        describe_flow = _describe_flow(flow_module.DEFAULT_FLOW_STEPS)
        self.recorder = recorder
        self.targets = [
            (lib.geometry.ReferenceGeometry, "derive", "geometry.reference", None),
            (lib.geometry.QuadratureGrid, "build", "geometry.grid", None),
            (basis_cls, "build", "basis.build", None),
            (basis_cls, "eval_columns", "basis.eval_columns", None),
            (basis_cls, "project_values", "basis.project", None),
            (suite_cls, "__init__", "operators.suite", None),
            (suite_cls, "pi_re_solve", "operators.pi_re_solve", None),
            (lib.core, "eval_poly", "kernel.eval_poly", _describe_eval),
        ]
        self.targets += [(suite_cls, m, f"operators.{m}", None) for m in APPLY_METHODS]
        for module in (nf, flow_module):
            self.targets += [(module, "flow", "flow.flow", describe_flow),
                             (module, "pullback_deformation", "flow.pullback", None)]
        for module in (nf, fields_module):
            self.targets += [(module, f, f"fields.{f}", None) for f in FIELD_FUNCTIONS]
        self._saved = []

    def install(self):
        for owner, attr, name, describe in self.targets:
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.recorder.wrap(name, raw.__func__, describe))
            else:
                new = self.recorder.wrap(name, raw, describe)
            setattr(owner, attr, new)
            self._saved.append((owner, attr, raw))

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.remove()

    @contextmanager
    def removed(self):
        self.remove()
        try:
            yield
        finally:
            self.install()


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_, t0, t1, _, _, _), c in zip(spans, child)]


def phases(spans):
    """Phase name of every span (the ancestor that is a direct child of an
    operation root); setup spans and roots get their own name."""
    out = []
    for name, _, _, parent, _, _ in spans:
        if parent < 0 or spans[parent][0] == "bench.op":
            out.append(name)
        else:
            out.append(out[parent])
    return out


def _op_figures(spans, selfs):
    """Per-operation sums: calls, self time and duration by span name, plus
    the kernel and flow attributes."""
    figs = defaultdict(lambda: defaultdict(float))
    for (name, t0, t1, parent, op, attrs), own in zip(spans, selfs):
        f = figs[op]
        f[name + ":calls"] += 1
        f[name + ":self"] += own
        f[name + ":dur"] += t1 - t0
        f[name.partition(".")[0] + ":layer_self"] += own
        if name == "kernel.eval_poly" and attrs:
            points, rows, cols = attrs["shape"]
            f["kernel:work_rows"] += points * rows * cols
            f["kernel:design_bytes"] += points * rows * 16
            parent_name = spans[parent][0] if parent >= 0 else ""
            f["kernel:flow_s" if parent_name == "flow.flow" else "kernel:other_s"] += t1 - t0
        elif name == "flow.flow" and attrs:
            f["flow:identity"] += attrs["identity"]
            f["flow:rk4_steps"] += attrs["steps"]
            f["flow:doublings"] += attrs["doublings"]
        elif name == "normal_form.solve":
            f["solve:iterations"] += attrs.get("iterations", 0)
        elif name == "io.write":
            f["io:bytes"] += attrs.get("bytes", 0)
    return figs


def _sum(f, names, suffix):
    return sum(f[n + suffix] for n in names)


_APPLY = [f"operators.{m}" for m in APPLY_METHODS]

# per-operation figures reported as the median over operations
PER_OP_METRICS = {
    "basis.project_calls": ("count", lambda f: f["basis.project:calls"]),
    "basis.project_s": ("s", lambda f: f["basis.project:self"]),
    "basis.eval_columns_calls": ("count", lambda f: f["basis.eval_columns:calls"]),
    "basis.eval_columns_self_s": ("s", lambda f: f["basis.eval_columns:self"]),
    "operators.apply_calls": ("count", lambda f: _sum(f, _APPLY, ":calls")),
    "operators.apply_s": ("s", lambda f: _sum(f, _APPLY, ":self")),
    "operators.pi_re_calls": ("count", lambda f: f["operators.pi_re_solve:calls"]),
    "operators.pi_re_s": ("s", lambda f: f["operators.pi_re_solve:self"]),
    "fields.self_s": ("s", lambda f: f["fields:layer_self"]),
    "flow.calls": ("count", lambda f: f["flow.flow:calls"]),
    "flow.identity_calls": ("count", lambda f: f["flow:identity"]),
    "flow.rk4_steps": ("count", lambda f: f["flow:rk4_steps"]),
    "flow.doublings": ("count", lambda f: f["flow:doublings"]),
    "flow.self_s": ("s", lambda f: f["flow.flow:self"]),
    "flow.pullback_calls": ("count", lambda f: f["flow.pullback:calls"]),
    "flow.pullback_self_s": ("s", lambda f: f["flow.pullback:self"]),
    "kernel.eval_calls": ("count", lambda f: f["kernel.eval_poly:calls"]),
    "kernel.eval_s.flow": ("s", lambda f: f["kernel:flow_s"]),
    "kernel.eval_s.other": ("s", lambda f: f["kernel:other_s"]),
    "kernel.work_mrows": ("Mrow", lambda f: f["kernel:work_rows"] / 1e6),
    "kernel.design_mb": ("MB", lambda f: f["kernel:design_bytes"] / 1e6),
    "normal_form.iterations": ("count", lambda f: f["solve:iterations"]),
    "normal_form.solve_self_s": ("s", lambda f: f["normal_form.solve:self"]),
    "normal_form.gen_self_s": ("s", lambda f: f["normal_form.gen:self"]),
    "io.encode_s": ("s", lambda f: f["io.encode:dur"]),
    "io.decode_s": ("s", lambda f: f["io.decode:dur"]),
    "io.write_s": ("s", lambda f: f["io.write:dur"]),
    "io.bytes_written": ("B", lambda f: f["io:bytes"]),
}

# figures that must repeat exactly on a rerun of the same seed
DETERMINISTIC = {
    "normal_form.iterations": lambda f: int(f["solve:iterations"]),
    "flow.calls": lambda f: int(f["flow.flow:calls"]),
    "flow.rk4_steps": lambda f: int(f["flow:rk4_steps"]),
    "kernel.eval_calls": lambda f: int(f["kernel.eval_poly:calls"]),
    "kernel.work_rows": lambda f: int(f["kernel:work_rows"]),
    "operators.apply_calls": lambda f: int(_sum(f, _APPLY, ":calls")),
    "operators.pi_re_calls": lambda f: int(f["operators.pi_re_solve:calls"]),
}


def analyse(spans, ops):
    """Per-layer metrics as (unit, value), deterministic per-op counts, and
    the solve-time accounting by layer."""
    selfs = self_times(spans)
    figs = _op_figures(spans, selfs)
    setup = figs["setup"]
    op_figs = [figs[op] for op in ops]

    metrics = {
        "geometry.reference_s": ("s", setup["geometry.reference:dur"]),
        "geometry.grid_s": ("s", setup["geometry.grid:dur"]),
        "basis.build_self_s": ("s", setup["basis.build:self"]),
        "basis.word_gram_s": ("s", setup["basis.word_gram:dur"]),
        "operators.suite_s": ("s", setup["operators.suite:dur"]),
    }
    for name, (unit, get) in PER_OP_METRICS.items():
        metrics[name] = (unit, float(median(get(f) for f in op_figs)))
    ratios = [attrs["contact_ratio"] for name, *_, attrs in spans
              if name == "flow.flow" and attrs]
    metrics["flow.max_contact_ratio"] = ("ratio", max(ratios, default=0.0))

    counts = [{k: get(f) for k, get in DETERMINISTIC.items()} for f in op_figs]

    phase = phases(spans)
    solve_total = sum(t1 - t0 for name, t0, t1, *_ in spans if name == "normal_form.solve")
    by_layer = defaultdict(float)
    for span, own, ph in zip(spans, selfs, phase):
        if ph == "normal_form.solve":
            by_layer[span[0].partition(".")[0]] += own
    accounted = sum(by_layer.values())
    if abs(accounted - solve_total) > 1e-6 * max(1.0, solve_total):
        raise AssertionError(f"self times {accounted} do not add up to solve time {solve_total}")
    accounting = {"solve_total_s": solve_total,
                  "self_s_by_layer": dict(sorted(by_layer.items(), key=lambda kv: -kv[1]))}
    return metrics, counts, accounting


def shape_histogram(spans):
    """Kernel call shapes (points, rows, cols) outside set-up, with counts."""
    hist = Counter(attrs["shape"] for name, _, _, _, op, attrs in spans
                   if name == "kernel.eval_poly" and attrs and op != "setup")
    return [{"points": p, "rows": r, "cols": c, "calls": n}
            for (p, r, c), n in hist.most_common()]
