"""Command-line interface.

Subcommands
-----------
gen          draw a deformation tensor and store it as JSON
normal-form  run the iteration on a stored tensor, emit result JSON + history CSV
verify       run the exactness battery at the configured degree, emit CSV
scan         tabulate a-priori norm ratios across seeds, emit CSV
slice        solve phi and G*phi, compare (Y, psi), emit CSV

Every output embeds the run configuration and the sha256 of any input file,
and reruns with identical flags are byte-identical.

Each failure is raised as a typed exception where it enters, and ``main``
maps it to its exit code through ``EXIT_CODES``, with one ``error:`` line on
stderr. Exit codes:
0  success
1  checks failed in ``verify`` or ``slice``
2  a bad flag (argparse), including a non-finite ``--tol``, ``--eps`` or
   ``auto:<size>``, a size that is not positive, a negative ``--seed``, an
   ``--s`` outside 1 to 64 and a ``--steps`` outside 1 to the flow step cap
3  the deformation is outside the neighbourhood: sup |phi| not below 1 (a
   stored tensor, or a ``gen`` draw at a large ``--eps``), a norm above
   ``--eps``, or a pulled-back structure with min |A| below 0.1
4  stored coefficients belong to a different basis build
5  a contact flow failed: the field is too large to flow, or no step count
   up to the cap passed the flow error estimate and contact checks
6  an input file cannot be read, is not JSON, has the wrong ``type`` or
   ``kind``, lacks a required key or holds a malformed or non-finite (NaN,
   inf, overflowing) coefficient, or an output file cannot be written
7  the iteration did not converge (``normal-form`` and ``slice``)
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import _core
from . import io as _io
from . import normal_form as nf
from .basis import build_basis
from .fields import complex_contact, pi_im, pi_re
from .flow import (COMPOSED_TABLE_ORDER, DEFAULT_FLOW_STEPS, MAX_FLOW_STEPS, FlowError,
                   NeighbourhoodError, flow)
from .geometry import monomial_moment
from .operators import FieldForm01, HolField, OperatorSuite

# No class here subclasses another, so the lookup does not depend on order.
EXIT_CODES = {
    NeighbourhoodError: 3,
    _io.BasisMismatchError: 4,
    FlowError: 5,
    OSError: 6,
    _io.InputError: 6,
    nf.ConvergenceError: 7,
}

VERIFY_HEADER = ["check", "residual", "tol", "status"]
SLICE_HEADER = ["quantity", "abs_diff", "rel_diff", "tol", "status"]
SCAN_SEEDS = 10
SLICE_TOL = 1e-6
# The order-s Folland-Stein weights grow geometrically in s and overflow a
# float at s = 317, 201, 146 and 125 for N = 4, 8, 16 and 24.
MAX_S = 64


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters, echoed into every output file."""

    degree: int = 8
    s: int = nf.DEFAULT_ORDER
    tol: float = nf.DEFAULT_TOL
    max_iter: int = nf.DEFAULT_MAX_ITER
    eps: float = nf.DEFAULT_EPS
    steps: int = DEFAULT_FLOW_STEPS
    seed: int = 0

    def __post_init__(self):
        if self.degree < 4:
            raise ValueError("--degree must be at least 4")
        if not 1 <= self.s <= MAX_S:
            raise ValueError(f"--s must be between 1 and {MAX_S}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("--tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("--max-iter must be at least 1")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError("--eps must be positive and finite")
        if not 1 <= self.steps <= MAX_FLOW_STEPS:
            raise ValueError(f"--steps must be between 1 and {MAX_FLOW_STEPS}")
        if self.seed < 0:
            raise ValueError("--seed must be non-negative")

    def echo(self):
        return asdict(self)


CONFIG_HELP = {
    "degree": "spectral truncation degree N",
    "s": f"Folland-Stein order for norms and stopping, 1 to {MAX_S}",
    "tol": "residual tolerance for the iteration",
    "max_iter": "iteration cap before giving up",
    "eps": "neighbourhood radius: inputs above this norm are rejected",
    "steps": "Cash-Karp 5(4) steps per contact flow, doubled until the embedded "
             f"error estimate passes, 1 to {MAX_FLOW_STEPS}",
    "seed": "non-negative seed for anything random",
}


def _add_config_flags(parser):
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default,
                            help=f"{CONFIG_HELP[f.name]} (default {f.default:g})")


def _suite(config: RunConfig) -> OperatorSuite:
    return OperatorSuite(build_basis(config.degree))


def _preamble(config: RunConfig, input_sha=None):
    lines = [f"config={_io.compact_dumps(config.echo())}"]
    if input_sha is not None:
        lines.append(f"input_sha256={input_sha}")
    return lines


def _csv_sibling(json_path, tag):
    stem = json_path[:-5] if json_path.endswith(".json") else json_path
    return f"{stem}.{tag}.csv"


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args, config):
    suite = _suite(config)
    rng = np.random.default_rng(config.seed)
    provenance = {"kind": args.kind, "seed": config.seed}

    if args.kind == "random":
        target = config.eps / 2
        phi = nf.random_deformation(suite.basis, rng, target, order=config.s)
        provenance.update(target=target, max_degree=suite.basis.degree - 2)
    elif args.kind == "pullback-of-zero":
        target = config.eps / 5
        inst = nf.pullback_of_zero(suite, rng, target=target, order=config.s,
                                   steps=config.steps)
        phi = inst.phi
        provenance.update(target=target,
                          x0_generating=_io.scalar_to_json(inst.x0.generating))
    else:  # prefab-normal-form; argparse choices guard the kind
        target = config.eps / 2
        inst = nf.prefab_normal_form(suite, rng, target=target, order=config.s)
        phi = inst.phi
        provenance.update(target=target,
                          y0=_io.scalar_to_json(inst.y0),
                          psi0=_io.scalar_to_json(inst.psi0))

    obj = _io.deformation_to_json(phi, config=config.echo(), provenance=provenance)
    _io.write_json(args.out, obj)
    print(f"wrote {args.kind} deformation (N={config.degree}, "
          f"|phi|_{config.s} = {phi.fs_norm(config.s):.3e}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# normal-form


def cmd_normal_form(args, config):
    suite = _suite(config)
    obj, input_sha = _io.read_json_hashed(args.infile)
    phi = _io.deformation_from_json(suite.basis, obj)

    history_path = _csv_sibling(args.out, "history")
    try:
        result = nf.solve(suite, phi, tol=config.tol, max_iter=config.max_iter,
                          order=config.s, steps=config.steps, eps=config.eps)
    except nf.ConvergenceError as exc:  # keep the failed run's history, then exit 7
        _io.write_json(args.out, {
            "type": "normal_form_failure",
            "reason": str(exc),
            "config": config.echo(),
            "input_sha256": input_sha,
            "history": exc.history,
        })
        _io.write_csv(history_path, _io.HISTORY_HEADER, exc.history,
                      preamble=_preamble(config, input_sha))
        raise

    _io.write_json(args.out, _io.result_to_json(result, config=config.echo(),
                                                input_sha256=input_sha))
    _io.write_csv(history_path, _io.HISTORY_HEADER, result.history,
                  preamble=_preamble(config, input_sha))
    print(f"converged in {result.iterations} iterations: "
          f"defining residual {result.defining_residual():.3e}, "
          f"gauge residual {result.gauge_residual():.3e}")
    print(f"wrote {args.out} and {history_path}")
    return 0


# ---------------------------------------------------------------------------
# verify


def identity_battery(suite: OperatorSuite, rng):
    """Exactness checks for the CLI table; returns rows with pass/fail status.

    Covers the frame normalizations, quadrature exactness through degree
    2N+4, the three homotopy splittings, the real-part projection, and the
    near-node Taylor table against the point kernel.
    Residuals are absolute except where noted.
    """
    basis = suite.basis
    geom = basis.geometry
    grid = basis.grid
    z1, z2 = grid.z1, grid.z2
    T, Z, Zb = geom.frame_vectors(z1, z2)
    rows = []

    def add(name, residual, tol):
        residual = float(residual)
        rows.append({"check": name, "residual": residual, "tol": tol,
                     "status": "pass" if residual <= tol else "FAIL"})

    add("reeb_normalization", np.max(np.abs(geom.eta(z1, z2, T) - 1.0)), 1e-10)
    duality = max(
        np.max(np.abs(geom.omega(z1, z2, T))),
        np.max(np.abs(geom.omega_bar(z1, z2, T))),
        np.max(np.abs(geom.eta(z1, z2, Z))),
        np.max(np.abs(geom.omega(z1, z2, Z) - 1.0)),
        np.max(np.abs(geom.omega_bar(z1, z2, Z))),
        np.max(np.abs(geom.eta(z1, z2, Zb))),
        np.max(np.abs(geom.omega(z1, z2, Zb))),
        np.max(np.abs(geom.omega_bar(z1, z2, Zb) - 1.0)),
    )
    add("frame_duality", duality, 1e-10)

    # -i d eta(Z, Zbar) must be the constant Levi form; evaluate the raw
    # two-form i*(dz.dzbar) pairing at the nodes.
    pairing = 1j * float(geom.eta_scale) * (
        Z[:, 0] * Zb[:, 2] + Z[:, 1] * Zb[:, 3]
        - Z[:, 2] * Zb[:, 0] - Z[:, 3] * Zb[:, 1])
    add("pseudoconvexity_levi",
        np.max(np.abs(pairing - 1j * float(geom.levi))), 1e-10)

    zb1, zb2 = np.conj(z1), np.conj(z2)
    deg_cap = 2 * basis.degree + 4
    worst = 0.0
    for _ in range(200):
        exps = rng.integers(0, deg_cap + 1, size=4)
        while exps.sum() > deg_cap:
            exps = rng.integers(0, deg_cap + 1, size=4)
        a1, a2, b1, b2 = (int(e) for e in exps)
        vals = z1 ** a1 * z2 ** a2 * zb1 ** b1 * zb2 ** b2
        moment = float(monomial_moment(a1, a2, b1, b2))
        worst = max(worst, abs(grid.mean(vals) - moment))
    add("quadrature_exactness_2N+4", worst, 1e-12)

    u = basis.random_scalar(rng)
    add("scalar_homotopy",
        (suite.p_scalar(suite.dbar_scalar(u)) + suite.szego(u) - u).l2_norm(),
        1e-10)
    alpha_raw = suite.flat(basis.random_scalar(rng))
    add("form_homotopy_scalar",
        (suite.dbar_scalar(suite.p_scalar(alpha_raw)) + suite.s_scalar(alpha_raw)
         - alpha_raw).a.l2_norm(), 1e-10)

    V = HolField(basis.random_scalar(rng), basis.random_scalar(rng))
    add("field_homotopy",
        (suite.p_field(suite.dbar_field(V)) + suite.k_harm(V) - V).fs_norm(0),
        1e-10)
    Phi = FieldForm01(basis.random_scalar(rng), basis.random_scalar(rng))
    add("field_form_homotopy",
        (suite.dbar_field(suite.p_field(Phi)) + suite.q_field(Phi) - Phi).fs_norm(0),
        1e-10)

    phi_q = basis.random_scalar(rng)
    Phi_h = FieldForm01(basis.zero(), phi_q)
    zc = complex_contact(suite, suite.combined_p_param(Phi_h))
    reassembled = suite.dbar_field(zc.as_hol_field()) + suite.combined_q(Phi_h)
    add("contact_homotopy", (reassembled - Phi_h).fs_norm(0), 1e-10)
    add("contact_q_is_h_valued", suite.combined_q(Phi_h).h_valued_defect(), 1e-10)
    add("contact_p_after_q",
        suite.combined_p_param(suite.combined_q(Phi_h)).l2_norm(), 1e-10)

    zf = complex_contact(suite, basis.random_scalar(rng))
    dbar_zf = suite.dbar_field(zf.as_hol_field())
    # relative to its input, whose norm grows like N^3 for a random scalar
    add("contact_q_kills_exact",
        suite.combined_q(dbar_zf).fs_norm(0) / max(1.0, dbar_zf.fs_norm(0)), 1e-10)
    recon = suite.combined_p_param(dbar_zf) + suite.k_harm(zf.as_hol_field()).f
    add("contact_reconstruction", (recon - zf.parameter).l2_norm(), 1e-10)

    x = pi_re(suite, zf)
    y = pi_im(suite, zf)
    split = x.generating - 1j * y.parameter
    add("pi_re_identity", (split - zf.parameter).l2_norm(), 1e-9)
    add("pi_re_is_real", x.generating.imag_part().l2_norm(), 1e-10)
    add("pi_im_certificate", y.certificate, 1e-9)

    # near-node evaluation: the Taylor table of a random scalar, summed at
    # nodes displaced by up to 1e-7, against the point kernel there; what its
    # certified truncation bound does not cover, relative to the scalar's
    # monomial mass (the scale of both sums' roundoff)
    column = basis.monomial_coefficients(basis.random_scalar(rng).coeffs)[:, None]
    size = 1e-7 * rng.random((2, grid.n_nodes))
    d1, d2 = size * np.exp(2j * np.pi * rng.random((2, grid.n_nodes)))
    order = COMPOSED_TABLE_ORDER
    table = basis.node_tables().taylor(column, order)
    exact = _core.eval_poly(z1 + d1, z2 + d2, basis.exponents, column)[:, 0]
    err = np.abs(_core.taylor_sum(table, _core.displacement_powers(d1, d2, order))[0] - exact)
    rho = max(float(np.abs(d1).max()), float(np.abs(d2).max()))
    bound = _core.truncation_bound(_core.truncation_weights(basis.exponents, column, order),
                                   rho, order, basis.degree)[0]
    add("near_node_taylor",
        max(float(err.max()) - float(bound), 0.0) / float(np.abs(column).sum()), 1e-13)
    return rows


def cmd_verify(args, config):
    suite = _suite(config)
    rng = np.random.default_rng(config.seed)
    rows = identity_battery(suite, rng)
    for row in rows:
        print(f"{row['status']:>4}  {row['check']:<28} "
              f"residual {row['residual']:.3e}  (tol {row['tol']:.0e})")
    if args.out:
        _io.write_csv(args.out, VERIFY_HEADER, rows, preamble=_preamble(config))
        print(f"wrote {args.out}")
    failed = [row for row in rows if row["status"] != "pass"]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# scan


def cmd_scan(args, config):
    suite = _suite(config)
    seeds = range(config.seed, config.seed + SCAN_SEEDS)
    rows = nf.apriori_harness(suite, seeds, s_values=(1, 2, 3),
                              order=config.s, steps=config.steps)
    _io.write_csv(args.out, nf.APRIORI_COLUMNS, rows, preamble=_preamble(config))
    summary = nf.harness_summary(rows, columns=nf.APRIORI_COLUMNS[3:])
    for s_value, stats in sorted(summary.items()):
        desc = ", ".join(f"{key} max {val['max']:.3g}" for key, val in stats.items())
        print(f"s={s_value}: {desc}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# slice


def _generator_spec(text):
    """``--generator``: a contact-field JSON path as is, or the float size of ``auto[:size]``."""
    head, colon, size_text = text.partition(":")
    if head != "auto":
        return text
    try:
        size = float(size_text) if colon else 2e-4
    except ValueError:
        size = math.nan
    if not (math.isfinite(size) and size > 0):
        raise argparse.ArgumentTypeError(
            f"auto size must be positive and finite, got {size_text!r}")
    return size


def _load_generator(suite, spec, config):
    """A stored contact field (JSON path) or a drawn one of norm ``spec``."""
    if isinstance(spec, str):
        return _io.contact_field_from_json(suite, _io.read_json(spec))
    return nf.harmonic_free_field(suite, np.random.default_rng([config.seed, 1]), spec, config.s)


def cmd_slice(args, config):
    suite = _suite(config)
    obj, input_sha = _io.read_json_hashed(args.infile)
    phi = _io.deformation_from_json(suite.basis, obj)
    G = flow(_load_generator(suite, args.generator, config), steps=config.steps)
    report = nf.slice_check(suite, phi, G, tol=config.tol,
                            max_iter=config.max_iter, order=config.s,
                            steps=config.steps, eps=config.eps)

    rows = [
        {"quantity": "y", "abs_diff": report.y_abs, "rel_diff": report.y_rel,
         "tol": SLICE_TOL, "status": "pass" if report.y_rel <= SLICE_TOL else "FAIL"},
        {"quantity": "psi", "abs_diff": report.psi_abs, "rel_diff": report.psi_rel,
         "tol": SLICE_TOL, "status": "pass" if report.psi_rel <= SLICE_TOL else "FAIL"},
    ]
    if args.out:
        _io.write_csv(args.out, SLICE_HEADER, rows, preamble=_preamble(config, input_sha))
    for row in rows:
        print(f"{row['status']:>4}  {row['quantity']:<4} abs {row['abs_diff']:.3e} "
              f"rel {row['rel_diff']:.3e}")
    if any(row["status"] != "pass" for row in rows):
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crsphere",
        description="Spectral normal-form pipeline for deformed CR structures "
                    "on the unit 3-sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="draw a deformation tensor")
    _add_config_flags(p_gen)
    p_gen.add_argument("--kind", required=True,
                       choices=["random", "pullback-of-zero", "prefab-normal-form"])
    p_gen.add_argument("--out", required=True, help="output JSON path")
    p_gen.set_defaults(func=cmd_gen)

    p_nf = sub.add_parser("normal-form", help="run the iteration on a stored tensor")
    _add_config_flags(p_nf)
    p_nf.add_argument("--in", dest="infile", required=True, help="deformation JSON")
    p_nf.add_argument("--out", required=True, help="result JSON path")
    p_nf.set_defaults(func=cmd_normal_form)

    p_ver = sub.add_parser("verify", help="run the exactness battery")
    _add_config_flags(p_ver)
    p_ver.add_argument("--out", help="optional CSV path")
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="tabulate a-priori ratios across seeds")
    _add_config_flags(p_scan)
    p_scan.add_argument("--out", required=True, help="CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_slice = sub.add_parser("slice", help="compare (Y, psi) for phi and G*phi")
    _add_config_flags(p_slice)
    p_slice.add_argument("--in", dest="infile", required=True, help="deformation JSON")
    p_slice.add_argument("--generator", required=True, type=_generator_spec,
                         help="contact-field JSON path, or auto[:size] (default 2e-4)")
    p_slice.add_argument("--out", help="optional CSV path")
    p_slice.set_defaults(func=cmd_slice)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args, config)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
