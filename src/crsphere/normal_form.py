"""Normal forms of deformed structures under contact diffeomorphisms.

Solves F_X*φ = i ∂̄Y + ψ for (X, Y, ψ) with Y in the complement V, ψ
harmonic (annihilated by the contact homotopy projector), and the gauge
constraint K(X − iY) = 0, by the frozen-linearization Picard iteration:
each step evaluates the residual

    χ = F_X*φ − i ∂̄Y − ψ,      ξ = K(X − iY),

and applies the inverse of the linearized map at the origin, splitting the
complex contact increment P(χ) + ξ into its real part (update of X), its
V part (update of Y), and pushing Q(χ) into ψ. Convergence is checked
before the update, so φ = 0 finishes in one residual evaluation.

The module also carries the quadratic-remainder contraction map (with the
composition slot frozen at a reference diffeomorphism), the slice
invariance check (normal forms of φ and G*φ agree in (Y, ψ)), forward
constructors for test instances, and the observed-constant harness for the
product, composition, remainder, homotopy-directionality, and a priori
estimate families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Basis, SpectralScalar, multiply
from .fields import (ComplexContactField, ContactField, VField, complex_contact,
                     complex_contact_norm, contact_from_generating, pi_re)
from .flow import (DEFAULT_FLOW_STEPS, ContactDiffeo, DeformationTensor, NeighbourhoodError,
                   e_remainder, flow, pullback_deformation, pullback_scalar)
from .operators import FieldForm01, HolField, OperatorSuite, ScalarForm01

DEFAULT_ORDER = 6
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 25
DEFAULT_EPS = 1e-2


class ConvergenceError(RuntimeError):
    """Picard iteration left without converging; carries the residual history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class ContractionError(RuntimeError):
    """The contraction map failed to contract; carries the observed ratios."""

    def __init__(self, message, ratios):
        super().__init__(message)
        self.ratios = ratios


def _residual_state(suite: OperatorSuite, phi: DeformationTensor,
                    g: SpectralScalar, y: SpectralScalar, psi: SpectralScalar, steps):
    """χ, ξ, the pullback tensor, and the flow at the state (g, y, ψ)."""
    X = contact_from_generating(suite, g)
    F = flow(X, steps=steps)
    mu = pullback_deformation(F, phi)
    dby = suite.dbar_field(complex_contact(suite, y).as_hol_field())
    chi = mu.coefficient - 1j * dby.q - psi
    xi = suite.k_harm(complex_contact(suite, g - 1j * y).as_hol_field())
    return chi, xi, mu, F


@dataclass
class NormalFormResult:
    """Converged (or partial) solver state with its certificates."""

    suite: OperatorSuite
    phi: DeformationTensor
    x: ContactField
    y: VField
    psi: DeformationTensor
    history: list
    converged: bool
    order: int
    tol: float
    steps: int
    flow_steps: int
    flow_rhs_evals: int             # over every flow of the solve
    max_flow_error_estimate: float  # the worst accepted flow's estimate
    _chi: SpectralScalar = field(repr=False, default=None)
    _xi: HolField = field(repr=False, default=None)

    @property
    def iterations(self):
        return len(self.history)

    def defining_residual(self, order=None):
        return self._chi.fs_norm(self.order if order is None else order)

    def gauge_residual(self, order=None):
        return self._xi.fs_norm(self.order if order is None else order)

    def harmonicity(self, order=None):
        param = self.suite.combined_p_param(self.psi.as_field_form())
        return complex_contact_norm(param, self.order if order is None else order)

    def verify(self, order=None, steps=None):
        """Recompute all three certificates from scratch at the final state."""
        order = self.order if order is None else order
        steps = self.steps if steps is None else steps
        chi, xi, _, _ = _residual_state(self.suite, self.phi, self.x.generating,
                                        self.y.parameter, self.psi.coefficient, steps)
        return {
            "defining": chi.fs_norm(order),
            "gauge": xi.fs_norm(order),
            "harmonicity": self.harmonicity(order),
        }

    def norm_report(self, s_max=None):
        s_max = self.order if s_max is None else s_max
        orders = list(range(s_max + 1))
        return {
            "s": orders,
            "x_norm": [self.x.fs_norm(s) for s in orders],
            "y_norm": [self.y.fs_norm(s) for s in orders],
            "psi_norm": [self.psi.fs_norm(s) for s in orders],
        }

    def _history_max(self, key):
        return max((row[key] for row in self.history), default=0)

    def max_truncation_mass(self):
        return self._history_max("trunc_mass")

    def max_contact_ratio(self):
        return self._history_max("contact_ratio")

    def max_kernel_fallbacks(self):
        """The most point-kernel calls of one iteration's flow and φ∘F."""
        return self._history_max("kernel_fallbacks")

    def max_node_displacement(self):
        return self._history_max("max_node_displacement")


def solve(suite: OperatorSuite, phi: DeformationTensor, tol=DEFAULT_TOL,
          max_iter=DEFAULT_MAX_ITER, order=DEFAULT_ORDER, steps=DEFAULT_FLOW_STEPS,
          eps=DEFAULT_EPS, require_convergence=True) -> NormalFormResult:
    """Find (X, Y, ψ) with F_X*φ = i∂̄Y + ψ, K(X − iY) = 0, ψ harmonic.

    Raises ConvergenceError when max_iter is exhausted (unless
    ``require_convergence`` is off, in which case the partial state is
    returned for diagnostics). Raises NeighbourhoodError when the order-
    ``order`` norm of φ exceeds ``eps``; neighbourhood failures from the
    pullback propagate.
    """
    basis = suite.basis
    if eps is not None:
        size = phi.fs_norm(order)
        if size > eps:
            raise NeighbourhoodError(
                f"deformation norm {size:.3e} exceeds the solver neighbourhood {eps:g}")

    g = basis.zero()
    y = basis.zero()
    psi = basis.zero()
    history = []
    converged = False
    chi = xi = None
    flow_steps = steps
    flow_rhs_evals = 0
    max_flow_estimate = 0.0
    for it in range(max_iter + 1):
        chi, xi, mu, F = _residual_state(suite, phi, g, y, psi, steps)
        chi_norm = chi.fs_norm(order)
        xi_norm = xi.fs_norm(order)
        flow_steps = max(flow_steps, F.steps)
        flow_rhs_evals += F.rhs_evals
        max_flow_estimate = max(max_flow_estimate, F.error_estimate)
        history.append({
            "iter": it,
            "chi_norm": chi_norm,
            "xi_norm": xi_norm,
            "trunc_mass": mu.coefficient.meta.get("truncation_mass", 0.0),
            "flow_rhs_evals": F.rhs_evals,
            "flow_error_estimate": F.error_estimate,
            "contact_ratio": F.contact_ratio,
            "kernel_fallbacks": F.kernel_fallbacks,
            "max_node_displacement": F.max_node_displacement,
            "field_norm": F.field_norm,
            "min_abs_a": mu.coefficient.meta["min_abs_a"],
            "sup_phi": mu.sup,
        })
        if chi_norm + xi_norm < tol:
            converged = True
            break
        if it == max_iter:
            break
        form = FieldForm01(basis.zero(), chi)
        f_step = suite.combined_p_param(form) + xi.f
        u = suite.pi_re_solve((f_step + suite.box_b(f_step)).real_part())
        g = (g - u).real_part()
        y = y - 1j * (f_step - u)
        psi = psi + suite.combined_q(form).q

    if not converged and require_convergence:
        last = history[-1]
        raise ConvergenceError(
            "outside contraction neighbourhood: residual "
            f"{last['chi_norm'] + last['xi_norm']:.3e} after {len(history) - 1} updates",
            history)

    x_field = contact_from_generating(suite, g)
    cert = pi_re(suite, complex_contact(suite, 1j * y)).generating.l2_norm()
    y_field = VField(complex_contact(suite, y), cert)
    return NormalFormResult(suite, phi, x_field, y_field, DeformationTensor(psi),
                            history, converged, order, tol, steps, flow_steps,
                            flow_rhs_evals, max_flow_estimate,
                            _chi=chi, _xi=xi)


def linear_solution(suite: OperatorSuite, phi: DeformationTensor):
    """The closed-form inverse of the linearization at the origin.

    Returns (g, y, ψ) scalars; the solver's converged answer approaches
    these to second order as φ → 0.
    """
    form = phi.as_field_form()
    f = suite.combined_p_param(form)
    u = suite.pi_re_solve((f + suite.box_b(f)).real_part())
    return -1.0 * u, -1j * (f - u), suite.combined_q(form).q


# ---------------------------------------------------------------------------
# contraction map


@dataclass
class ContractionResult:
    field: ComplexContactField
    ratios: list
    increments: list
    w_norm: float
    z_norm: float
    converged: bool


def contraction_t(suite: OperatorSuite, phi: DeformationTensor, x0: ContactField,
                  w: ComplexContactField, order=DEFAULT_ORDER, steps=DEFAULT_FLOW_STEPS,
                  tol=1e-12, max_iter=40) -> ContractionResult:
    """Fixed point of Z ↦ W − P(E(π_Re(Z), X₀-frozen, φ)) from Z₀ = 0, Z₁ = W.

    The composition slot of the remainder stays frozen at the flow of x0.
    Aborts with ContractionError if an increment ratio reaches 1.
    """
    basis = suite.basis
    f_frozen = flow(x0, steps=steps)
    w_norm = complex_contact_norm(w.parameter, order)
    z = w.parameter
    prev_inc = w_norm
    increments = [w_norm]
    ratios = []
    converged = w_norm == 0.0
    if not converged:
        for _ in range(max_iter):
            u = suite.pi_re_solve((z + suite.box_b(z)).real_part())
            xr = contact_from_generating(suite, u)
            rem = e_remainder(suite, xr, phi, steps=steps, compose_with=f_frozen)
            corr = suite.combined_p_param(FieldForm01(basis.zero(), rem))
            z_next = w.parameter - corr
            inc = complex_contact_norm(z_next - z, order)
            if prev_inc > 0:
                ratio = inc / prev_inc
                ratios.append(ratio)
                if ratio >= 1.0:
                    raise ContractionError(
                        f"contraction map is not contracting (ratio {ratio:.3f}, "
                        f"history {['%.3e' % r for r in ratios]})", ratios)
            increments.append(inc)
            z = z_next
            prev_inc = inc
            if inc <= tol * max(1.0, w_norm):
                converged = True
                break
    return ContractionResult(complex_contact(suite, z), ratios, increments,
                             w_norm, complex_contact_norm(z, order), converged)


# ---------------------------------------------------------------------------
# slice invariance


@dataclass
class SliceReport:
    base: NormalFormResult
    pulled: NormalFormResult
    order: int
    y_abs: float
    y_rel: float
    psi_abs: float
    psi_rel: float


def slice_check(suite: OperatorSuite, phi: DeformationTensor, G: ContactDiffeo,
                tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, order=DEFAULT_ORDER,
                steps=DEFAULT_FLOW_STEPS, eps=DEFAULT_EPS) -> SliceReport:
    """Solve φ and G*φ; the slice property predicts equal (Y, ψ).

    G*φ picks up the deformation of the flow itself on top of φ, so it can
    land outside a neighbourhood that φ fits in comfortably; eps bounds the
    larger of the two.
    """
    base = solve(suite, phi, tol=tol, max_iter=max_iter, order=order, steps=steps,
                 eps=eps)
    pulled_phi = pullback_deformation(G, phi)
    pulled = solve(suite, pulled_phi, tol=tol, max_iter=max_iter, order=order,
                   steps=steps, eps=eps)
    y_abs = complex_contact_norm(base.y.parameter - pulled.y.parameter, order)
    y_scale = max(complex_contact_norm(base.y.parameter, order),
                  complex_contact_norm(pulled.y.parameter, order))
    psi_abs = (base.psi.coefficient - pulled.psi.coefficient).fs_norm(order)
    psi_scale = max(base.psi.fs_norm(order), pulled.psi.fs_norm(order))
    return SliceReport(base, pulled, order, y_abs,
                       y_abs / y_scale if y_scale > 0 else 0.0,
                       psi_abs,
                       psi_abs / psi_scale if psi_scale > 0 else 0.0)


# ---------------------------------------------------------------------------
# forward-constructed instances


def random_deformation(basis: Basis, rng, target, order=DEFAULT_ORDER,
                       max_degree=None) -> DeformationTensor:
    """Band-limited random tensor rescaled to the target Γˢ norm."""
    if max_degree is None:
        max_degree = basis.degree - 2
    raw = basis.random_scalar(rng, max_degree=max_degree)
    return DeformationTensor(raw * (target / raw.fs_norm(order)))


def _v_defect(suite: OperatorSuite, y: SpectralScalar) -> SpectralScalar:
    """π_Re of i y: the real generating function that takes y off V."""
    return suite.pi_re_solve((1j * y + suite.box_b(1j * y)).real_part())


def _harmonic_free_slots(suite: OperatorSuite):
    """The slots outside the harmonic mask and its conjugate, min(p, q) ≥ 2."""
    mask = suite.harmonic_mask
    return (mask == 0) & (mask[suite.basis.conj_index] == 0)


def v_gauge_parameter(suite: OperatorSuite, raw: SpectralScalar) -> SpectralScalar:
    """Project a parameter into V ∩ ker K in one step.

    K is the harmonic slot mask on complex contact fields (see
    ``operators``), and the V projection y ↦ y + i π_Re(iy) is diagonal up to
    slot conjugation, so it keeps any conjugation-symmetric support. Zeroing
    the harmonic slots and their conjugates and projecting onto V once
    therefore lands in both.
    """
    y = suite.basis.scalar(np.where(_harmonic_free_slots(suite), raw.coeffs, 0.0))
    return y + 1j * _v_defect(suite, y)


@dataclass
class PrefabInstance:
    phi: DeformationTensor
    y0: SpectralScalar
    psi0: SpectralScalar


def prefab_normal_form(suite: OperatorSuite, rng, target=5e-3, order=DEFAULT_ORDER,
                       max_degree=None) -> PrefabInstance:
    """φ = i∂̄Y₀ + ψ₀ with Y₀ ∈ V ∩ ker K and harmonic ψ₀, sized to target.

    Y₀ is a random draw put into the gauge slice by ``v_gauge_parameter``
    and ψ₀ the combined Q of another. By construction the solver's exact
    answer is (0, Y₀, ψ₀), reached without any flow integration.
    """
    basis = suite.basis
    if max_degree is None:
        max_degree = basis.degree - 2
    y0 = v_gauge_parameter(suite, basis.random_scalar(rng, max_degree=max_degree))
    q_raw = basis.random_scalar(rng, max_degree=max_degree)
    psi0 = suite.combined_q(FieldForm01(basis.zero(), q_raw)).q
    dby = suite.dbar_field(complex_contact(suite, y0).as_hol_field())
    phi_coeff = 1j * dby.q + psi0
    scale = target / phi_coeff.fs_norm(order)
    return PrefabInstance(DeformationTensor(phi_coeff * scale), y0 * scale, psi0 * scale)


def harmonic_free_basis(suite: OperatorSuite, max_degree=4):
    """Orthonormal real generating functions g with K(Z_g) = 0.

    Real contact fields split into infinitesimal automorphisms (harmonic,
    K(Z_g) = Z_g: all of degree ≤ 3 plus part of every higher band) and
    the K-free complement. K(Z_g) = Z_{Mg} with M the harmonic slot mask
    (q ≤ 1), and the coefficients of a real g are conjugation-symmetric, so
    the K-free part lives on the slots with p, q ≥ 2: it first appears in
    the bidegree-(2,2) block. Columns are coefficient vectors of the real
    e_i, (e_i + e_j)/√2 and i(e_i − e_j)/√2 (j the conjugate slot of i) over
    those slots of degree ≤ max_degree.
    """
    basis = suite.basis
    nb = basis.size
    cols = []
    for i in np.flatnonzero(_harmonic_free_slots(suite) & (basis.degrees <= max_degree)).tolist():
        j = int(basis.conj_index[i])
        if j < i:
            continue
        e_i, e_j = np.zeros(nb, dtype=complex), np.zeros(nb, dtype=complex)
        e_i[i], e_j[j] = 1.0, 1.0
        cols += [e_i] if i == j else [(e_i + e_j) / np.sqrt(2.0), 1j * (e_i - e_j) / np.sqrt(2.0)]
    if not cols:
        raise ValueError(
            f"no harmonic-free contact fields of degree <= {max_degree}; need degree >= 4")
    return np.array(cols).T


@dataclass
class PullbackInstance:
    phi: DeformationTensor
    x0: ContactField


def pullback_of_zero(suite: OperatorSuite, rng, target=2e-3, order=DEFAULT_ORDER,
                     steps=DEFAULT_FLOW_STEPS, max_degree=4) -> PullbackInstance:
    """φ = F_{X₀}*0: the round structure dressed by a small contact flow.

    X₀ is drawn harmonic-free so the exact solution is (−X₀, 0, 0): any
    automorphism component of X₀ would reappear as a harmonic Y of the
    same size in the gauge-fixed normal form.
    """
    basis = suite.basis
    cols = harmonic_free_basis(suite, max_degree)
    g_raw = basis.scalar(cols @ rng.standard_normal(cols.shape[1]))
    g = g_raw.real_part() * (target / complex_contact_norm(g_raw, order))
    x0 = contact_from_generating(suite, g)
    F = flow(x0, steps=steps)
    # φ = 0, so φ∘F is 0 and needs no evaluation at F's images
    phi = pullback_deformation(F, DeformationTensor(basis.zero()), composition_values=0.0)
    return PullbackInstance(phi, x0)


# ---------------------------------------------------------------------------
# observed-constant harness


HARNESS_COLUMNS = [
    "seed", "N", "s",
    "ratio_product", "ratio_composition", "ratio_remainder",
    "ratio_p_scalar", "ratio_p_vec", "ratio_q_vec",
    "ratio_s_scalar", "ratio_h_scalar", "ratio_rho",
    "ratio_X", "ratio_Y", "ratio_psi",
]

APRIORI_COLUMNS = ["seed", "N", "s", "ratio_X", "ratio_Y", "ratio_psi"]

_HARNESS_FIELD_SIZE = 5e-3
_HARNESS_PHI_SIZE = 2e-3


def _apriori_ratios(result, mu_norms, s_values):
    rows = {}
    phi = result.phi
    for s in s_values:
        den = phi.fs_norm(s + 2) + mu_norms[s]
        rows[s] = (
            result.x.fs_norm(s + 3) / den,
            result.y.fs_norm(s + 3) / den,
            result.psi.fs_norm(s + 2) / den,
        )
    return rows


def estimate_harness(suite: OperatorSuite, seeds, s_values=(1, 2, 3), degree=4,
                     order=DEFAULT_ORDER, steps=DEFAULT_FLOW_STEPS):
    """Observed constants of the estimate families on seeded ensembles.

    One row per (seed, s) with every ratio finite; the a priori columns come
    from a deliberately partial solve (two updates) so the residual tensor
    μ is nonzero.
    """
    basis = suite.basis
    rows = []
    for seed in seeds:
        rng = np.random.default_rng([int(seed), basis.degree])
        u = basis.random_scalar(rng, max_degree=degree)
        v = basis.random_scalar(rng, max_degree=degree)
        uv = multiply(u, v)

        g_raw = basis.random_scalar(rng, max_degree=degree).real_part()
        g = g_raw * (_HARNESS_FIELD_SIZE / complex_contact_norm(g_raw, order))
        X = contact_from_generating(suite, g)
        F = flow(X, steps=steps)
        phi = random_deformation(basis, rng, _HARNESS_PHI_SIZE, order=order,
                                 max_degree=degree)
        comp = pullback_scalar(F, phi.coefficient)
        rem = e_remainder(suite, X, phi, steps=steps)

        alpha = ScalarForm01(basis.random_scalar(rng, max_degree=degree))
        p_sc = suite.p_scalar(alpha)
        s_sc = suite.s_scalar(alpha)
        h_in = basis.random_scalar(rng, max_degree=degree)
        h_sc = suite.szego(h_in)
        form = FieldForm01(basis.random_scalar(rng, max_degree=degree),
                           basis.random_scalar(rng, max_degree=degree))
        p_vec = suite.p_field(form)
        q_vec = suite.q_field(form)
        hol = HolField(basis.random_scalar(rng, max_degree=degree),
                       basis.random_scalar(rng, max_degree=degree))
        rho = suite.k_harm(hol)

        solve_phi = random_deformation(basis, rng, _HARNESS_PHI_SIZE, order=order,
                                       max_degree=degree)
        partial = solve(suite, solve_phi, tol=1e-15, max_iter=2, order=order,
                        steps=steps, require_convergence=False)
        mu_norms = {s: partial._chi.fs_norm(s + 2) for s in s_values}
        apriori = _apriori_ratios(partial, mu_norms, s_values)

        for s in s_values:
            x_norm = {k: X.fs_norm(k) for k in (s - 1, s, s + 1)}
            phi_norm = {k: phi.fs_norm(k) for k in (s - 1, s)}
            comp_norm = comp.fs_norm(s)
            rows.append({
                "seed": int(seed),
                "N": basis.degree,
                "s": s,
                "ratio_product": uv.fs_norm(s)
                / (u.fs_norm(s) * v.fs_norm(s - 1) + u.fs_norm(s - 1) * v.fs_norm(s)),
                "ratio_composition": comp_norm
                / (phi_norm[s] + phi_norm[s] * x_norm[s - 1] + phi_norm[s - 1] * x_norm[s]),
                "ratio_remainder": rem.fs_norm(s)
                / ((x_norm[s] + comp_norm) * x_norm[s + 1]),
                "ratio_p_scalar": p_sc.fs_norm(s) / alpha.fs_norm(s + 1),
                "ratio_p_vec": p_vec.fs_norm(s + 1) / form.fs_norm(s),
                "ratio_q_vec": q_vec.fs_norm(s) / form.fs_norm(s),
                "ratio_s_scalar": s_sc.fs_norm(s) / alpha.fs_norm(s),
                "ratio_h_scalar": h_sc.fs_norm(s) / h_in.fs_norm(s),
                "ratio_rho": rho.fs_norm(s) / hol.fs_norm(s),
                "ratio_X": apriori[s][0],
                "ratio_Y": apriori[s][1],
                "ratio_psi": apriori[s][2],
            })
    return rows


def apriori_harness(suite: OperatorSuite, seeds, s_values=(1, 2, 3), degree=4,
                    order=DEFAULT_ORDER, steps=DEFAULT_FLOW_STEPS):
    """The a priori ratio table alone, in the documented CSV column order."""
    rows = estimate_harness(suite, seeds, s_values=s_values, degree=degree,
                            order=order, steps=steps)
    return [{key: row[key] for key in APRIORI_COLUMNS} for row in rows]


def harness_summary(rows, columns=None):
    """Per-s max and median of each ratio column."""
    if columns is None:
        columns = [c for c in HARNESS_COLUMNS if c.startswith("ratio_")]
    out = {}
    s_values = sorted({row["s"] for row in rows})
    for s in s_values:
        chunk = [row for row in rows if row["s"] == s]
        out[s] = {}
        for col in columns:
            vals = [row[col] for row in chunk if col in row]
            if vals:
                out[s][col] = {"max": float(np.max(vals)), "median": float(np.median(vals))}
    return out
