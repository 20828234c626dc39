#!/usr/bin/env python3
"""End-to-end benchmark of the crsphere normal-form pipeline.

A closed loop with one client in one process. Each operation takes one
input, in order: it draws a deformation tensor with the library's own
generator (the library call behind ``crsphere gen``), round-trips it
through the io JSON encoding, solves it with ``normal_form.solve``, checks
the answer against its known construction at the acceptance tolerances,
and encodes and writes the result and history the way
``crsphere normal-form`` does.

    python3 perfbench/run.py --workload prefab-n12 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around the library's entry points
(see spans.py). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Spans, counts and results
go under ``.perfbench/`` at the root of the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# acceptance tolerances (tests/test_acceptance.py, criterion 4), unchanged
MAX_ITERATIONS = 25
RESIDUAL_TOL = 1e-9
RECOVERY_TOL = 1e-6
HARMONIC_TOL = 1e-9

# set-up samples in child processes: at least this many, then more until
# the samples cover SETUP_BUDGET_S, never more than SETUP_MAX_CHILDREN
SETUP_MIN_CHILDREN = 2
SETUP_MAX_CHILDREN = 6
SETUP_BUDGET_S = 8.0
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    degree: int
    kind: str   # the --kind of ``crsphere gen``
    tag: int    # third entry of the input seed sequence


# why each exists: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("prefab-n12", 12, "prefab-normal-form", 1),
    Workload("pullback-n8", 8, "pullback-of-zero", 2),
    Workload("random-n8", 8, "random", 3),
)}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# environment


def pin_blas_threads():
    """At most one BLAS thread per usable CPU; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def load_library():
    """Import crsphere from this checkout's ``src``, and nowhere else."""
    package = SRC / "crsphere"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no crsphere sources at {package}")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import crsphere
    from crsphere import _core, basis, cli, fields, geometry, io, normal_form, operators

    if Path(crsphere.__file__).resolve().parent != package.resolve():
        raise BenchError(f"crsphere imported from {crsphere.__file__}, not {package}")
    return SimpleNamespace(crsphere=crsphere, np=np, core=_core, basis=basis, cli=cli,
                           fields=fields, geometry=geometry, io=io, nf=normal_form,
                           operators=operators)


def git_commit():
    """HEAD of the checkout read from .git, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(lib, nproc):
    import scipy
    return {
        "kernel_implementation": lib.crsphere.kernel_implementation,
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one set-up and one operation


def set_up(lib, degree, span=None):
    """build_basis(N) + OperatorSuite + the first fs_norm(6), as every CLI
    call pays them; returns the suite and the wall time."""
    span = span or (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("bench.setup"):
        suite = lib.operators.OperatorSuite(lib.basis.build_basis(degree))
        with span("basis.word_gram"):
            suite.basis.zero().fs_norm(6)
    return suite, time.perf_counter() - t0


def measure_setup_in_children(degree):
    """Set-up times of fresh processes, so each starts with cold caches."""
    samples = []
    while len(samples) < SETUP_MAX_CHILDREN and (
            len(samples) < SETUP_MIN_CHILDREN or sum(samples) < SETUP_BUDGET_S):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--setup-sample", str(degree)],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def draw(lib, suite, workload, config, rng):
    """The library call of ``crsphere gen --kind <kind>``: the tensor, its
    provenance and the known construction."""
    nf, io = lib.nf, lib.io
    provenance = {"kind": workload.kind, "seed": config.seed}
    if workload.kind == "random":
        target = config.eps / 2
        phi = nf.random_deformation(suite.basis, rng, target, order=config.s)
        provenance.update(target=target, max_degree=suite.basis.degree - 2)
        return phi, provenance, None
    if workload.kind == "pullback-of-zero":
        target = config.eps / 5
        inst = nf.pullback_of_zero(suite, rng, target=target, order=config.s,
                                   steps=config.steps)
        provenance.update(target=target, x0_generating=io.scalar_to_json(inst.x0.generating))
        return inst.phi, provenance, inst
    target = config.eps / 2
    inst = nf.prefab_normal_form(suite, rng, target=target, order=config.s)
    provenance.update(target=target, y0=io.scalar_to_json(inst.y0),
                      psi0=io.scalar_to_json(inst.psi0))
    return inst.phi, provenance, inst


def gate(lib, kind, result, truth, order=6):
    """Problems with one solve at the acceptance tolerances; empty when the
    answer is right. Comparisons are written so that NaN fails."""
    norm = lib.fields.complex_contact_norm
    problems = []
    if not result.converged:
        problems.append("not converged")
    if not result.iterations <= MAX_ITERATIONS:
        problems.append(f"{result.iterations} iterations")
    residual = result.defining_residual() + result.gauge_residual()
    if not residual < RESIDUAL_TOL:
        problems.append(f"defining + gauge residual {residual:.2e}")
    if kind == "prefab-normal-form":
        y_rel = norm(result.y.parameter - truth.y0, order) / norm(truth.y0, order)
        psi_rel = ((result.psi.coefficient - truth.psi0).fs_norm(order)
                   / truth.psi0.fs_norm(order))
        if not (y_rel < RECOVERY_TOL and psi_rel < RECOVERY_TOL):
            problems.append(f"recovery y {y_rel:.2e} psi {psi_rel:.2e}")
    elif kind == "pullback-of-zero":
        left_over = result.y.fs_norm(order) + result.psi.fs_norm(order)
        x_rel = (result.x + truth.x0).fs_norm(order) / truth.x0.fs_norm(order)
        if not (left_over < RECOVERY_TOL and x_rel < RECOVERY_TOL):
            problems.append(f"|Y|+|psi| {left_over:.2e}, X + X0 {x_rel:.2e}")
    elif not result.harmonicity() < HARMONIC_TOL:
        problems.append(f"harmonicity {result.harmonicity():.2e}")
    return problems


class Loop:
    """The closed loop of one workload in this process."""

    def __init__(self, lib, workload, seed, out_dir, recorder=None, wiring=None):
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.config = lib.cli.RunConfig(degree=workload.degree, seed=seed)
        self.out_dir = out_dir
        self.recorder = recorder
        self.wiring = wiring
        self.suite = None
        # failures a correct program never raises on these inputs count as
        # failed operations; anything else aborts the run
        self.failures = (lib.nf.ConvergenceError, lib.crsphere.NeighbourhoodError,
                         lib.crsphere.FlowError, ArithmeticError)

    def span(self, name):
        return self.recorder.span(name) if self.recorder else nullcontext({})

    def timed_solve(self, phi):
        c = self.config
        t0 = time.perf_counter()
        result = self.lib.nf.solve(self.suite, phi, tol=c.tol, max_iter=c.max_iter,
                                   order=c.s, steps=c.steps, eps=c.eps)
        return result, time.perf_counter() - t0

    def paired_untraced_solve(self, phi):
        with self.span("bench.paired_untraced_solve"), self.wiring.removed():
            return self.timed_solve(phi)

    def operation(self, index):
        """One input end to end; returns a record of its timings and checks."""
        lib, io, c = self.lib, self.lib.io, self.config
        rec = {"op": index, "problems": [], "gen_s": None, "solve_s": None,
               "untraced_solve_s": None, "iterations": None, "flow_steps": None}
        rng = lib.np.random.default_rng([self.seed, index, self.workload.tag])
        try:
            with self.span("bench.op"):
                t0 = time.perf_counter()
                with self.span("normal_form.gen"):
                    phi, provenance, truth = draw(lib, self.suite, self.workload, c, rng)
                rec["gen_s"] = time.perf_counter() - t0
                with self.span("io.encode"):
                    text = io.canonical_dumps(io.deformation_to_json(
                        phi, config=c.echo(), provenance=provenance)) + "\n"
                with self.span("io.decode"):
                    phi = io.deformation_from_json(self.suite.basis, json.loads(text))
                input_sha = io.sha256_hex(text)

                paired = self.recorder is not None
                if paired and index % 2 == 0:
                    untraced, rec["untraced_solve_s"] = self.paired_untraced_solve(phi)
                with self.span("normal_form.solve") as attrs:
                    result, rec["solve_s"] = self.timed_solve(phi)
                    attrs["iterations"] = result.iterations
                if paired and index % 2 == 1:
                    untraced, rec["untraced_solve_s"] = self.paired_untraced_solve(phi)
                if paired and untraced.iterations != result.iterations:
                    raise BenchError(f"op {index}: traced and untraced solves took "
                                     f"{result.iterations} and {untraced.iterations} iterations")
                rec["iterations"] = result.iterations
                rec["flow_steps"] = result.flow_steps

                with self.span("bench.check"):
                    rec["problems"] = gate(lib, self.workload.kind, result, truth, c.s)
                with self.span("io.encode"):
                    obj = io.result_to_json(result, config=c.echo(), input_sha256=input_sha)
                out = self.out_dir / "result.json"
                history = self.out_dir / "result.history.csv"
                with self.span("io.write") as attrs:
                    io.write_json(out, obj)
                    io.write_csv(history, io.HISTORY_HEADER, result.history,
                                 preamble=[f"config={io.compact_dumps(c.echo())}",
                                           f"input_sha256={input_sha}"])
                    attrs["bytes"] = out.stat().st_size + history.stat().st_size
        except self.failures as exc:
            rec["problems"].append(f"{type(exc).__name__}: {exc}")
        return rec


# ---------------------------------------------------------------------------
# a whole run


def check_counts(path, counts):
    """Counts must repeat exactly on every run of the same seed: compare with
    the record of an earlier run, then keep the longer record."""
    if path.is_file():
        before = json.loads(path.read_text())
        if before["setup"] != counts["setup"]:
            raise BenchError(f"set-up counts {counts['setup']} differ from an earlier "
                             f"run of this seed: {before['setup']} ({path})")
        for i, (old, new) in enumerate(zip(before["ops"], counts["ops"])):
            if old != new:
                raise BenchError(f"op {i} counts {new} differ from an earlier run of "
                                 f"this seed: {old} ({path})")
        if len(before["ops"]) > len(counts["ops"]):
            return
    path.write_text(json.dumps(counts, indent=1) + "\n")


def dense_bytes(obj):
    """Bytes held in numpy arrays directly on an object (and in tuples and
    dict values there), as the array shapes give them."""
    import numpy as np

    def walk(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (tuple, list)):
            return sum(walk(v) for v in value)
        if isinstance(value, dict):
            return sum(walk(v) for v in value.values())
        return 0
    return sum(walk(v) for v in vars(obj).values())


def _metric(unit, value):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace, out_dir=OUT, lib=None):
    """Run one workload; returns (report, result) where result is the
    contract's final JSON object and report holds everything else."""
    nproc = pin_blas_threads()
    lib = lib or load_library()
    env = environment(lib, nproc)
    tag = f"{workload.name}-N{workload.degree}-seed{seed}"
    run_dir = out_dir / workload.name
    run_dir.mkdir(parents=True, exist_ok=True)

    recorder = wiring = None
    setup_samples = []
    if trace:
        from spans import Recorder, Wiring
        recorder = Recorder()
        wiring = Wiring(recorder, lib)
        wiring.install()
    else:
        setup_samples = measure_setup_in_children(workload.degree)
    try:
        loop = Loop(lib, workload, seed, run_dir, recorder, wiring)
        loop.suite, own_setup = set_up(lib, workload.degree,
                                       recorder.span if recorder else None)
        setup_samples.append(own_setup)

        records = []
        start = time.perf_counter()
        deadline = start + seconds
        while not records or time.perf_counter() < deadline:
            if recorder:
                recorder.op = len(records)
            records.append(loop.operation(len(records)))
        loop_s = time.perf_counter() - start
    finally:
        if wiring:
            wiring.remove()

    ok = [r for r in records if not r["problems"]]
    failed = len(records) - len(ok)
    suite = loop.suite
    setup_counts = {"geometry.nodes": int(suite.basis.grid.n_nodes),
                    "basis.size": int(suite.basis.size),
                    "basis.dense_bytes": dense_bytes(suite.basis),
                    "operators.dense_bytes": dense_bytes(suite)}
    report = {"workload": workload.name, "degree": workload.degree, "seed": seed,
              "trace": trace, "env": env, "ops": len(records), "failed": failed,
              "fail_rate": failed / len(records), "loop_s": loop_s,
              "problems": {r["op"]: r["problems"] for r in records if r["problems"]},
              "setup_samples_s": setup_samples}

    if trace:
        from spans import analyse, shape_histogram
        layer, op_counts, accounting = analyse(recorder.spans, range(len(records)))
        for r, counts in zip(records, op_counts):
            if r["iterations"] is not None and counts["normal_form.iterations"] != r["iterations"]:
                raise BenchError(f"op {r['op']}: span count disagrees with the result")
        layer["geometry.nodes"] = ("count", setup_counts["geometry.nodes"])
        layer["basis.size"] = ("count", setup_counts["basis.size"])
        layer["basis.dense_mb"] = ("MB", setup_counts["basis.dense_bytes"] / 1e6)
        layer["operators.dense_mb"] = ("MB", setup_counts["operators.dense_bytes"] / 1e6)
        traced = [r["solve_s"] for r in ok]
        layer["trace.solve_s_p50"] = ("s", median(traced) if traced else 0.0)
        layer["trace.overhead_s"] = ("s", median(r["solve_s"] - r["untraced_solve_s"] for r in ok)
                                     if ok else 0.0)
        metrics = {name: _metric(unit, value) for name, (unit, value) in sorted(layer.items())}
        report.update(shapes=shape_histogram(recorder.spans), solve_accounting=accounting)
        with open(out_dir / f"{tag}.spans.jsonl", "w") as fh:
            for name, t0, t1, parent, op, attrs in recorder.spans:
                fh.write(json.dumps([name, t0, t1, parent, op, attrs]) + "\n")
    else:
        op_counts = [{"normal_form.iterations": r["iterations"],
                      "flow_steps": r["flow_steps"]} for r in records]
        gen = [r["gen_s"] for r in ok]
        solve = [r["solve_s"] for r in ok]
        metrics = {
            "setup_s": _metric("s", median(setup_samples)),
            "gen_s_p50": _metric("s", median(gen) if gen else 0.0),
            "solve_s_p50": _metric("s", median(solve) if solve else 0.0),
            "solves_per_s": _metric("1/s", len(ok) / loop_s),
            "peak_rss_mb": _metric("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        }
        report["samples"] = {"setup_s": len(setup_samples), "gen_s_p50": len(gen),
                             "solve_s_p50": len(solve)}
        report.update(gen_samples_s=gen, solve_samples_s=solve)
    check_counts(out_dir / f"{tag}.trace{trace}.counts.json",
                 {"setup": setup_counts, "ops": op_counts})

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    report["result"] = result
    (out_dir / f"{tag}.trace{trace}.report.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    return report, result


def print_report(report):
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    print(f"workload {report['workload']} N={report['degree']} seed={report['seed']} "
          f"trace={report['trace']}: {report['ops']} ops in {report['loop_s']:.2f} s, "
          f"fail_rate {report['fail_rate']:g} (ratio)")
    for op, problems in report["problems"].items():
        print(f"  op {op} FAILED: {'; '.join(problems)}")
    samples = report.get("samples", {})
    for name, m in report["result"]["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{n}")
    if "solve_accounting" in report:
        acc = report["solve_accounting"]
        total = acc["solve_total_s"]
        print(f"  solve self time by layer, all ops ({total:.3f} s):")
        for layer, s in acc["self_s_by_layer"].items():
            print(f"    {layer:12s} {s:9.4f} s  {100 * s / total if total else 0:5.1f}%")
        print("  kernel call shapes (points x rows x cols: calls):")
        for row in report["shapes"][:8]:
            print(f"    {row['points']} x {row['rows']} x {row['cols']}: {row['calls']}")


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", type=int, metavar="N",
                        help=argparse.SUPPRESS)  # internal: one fresh set-up
    args = parser.parse_args(argv)
    try:
        if args.setup_sample:
            pin_blas_threads()
            print(set_up(load_library(), args.setup_sample)[1])
        elif args.workload == "all":
            run_all(args)
        elif args.workload:
            report, result = run_workload(WORKLOADS[args.workload], args.seed,
                                          args.seconds, args.trace)
            print_report(report)
            print(json.dumps(result))
        else:
            parser.error("--workload is required")
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
