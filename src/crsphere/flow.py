"""Contact diffeomorphisms as time-1 flows, and pullbacks of structures.

A contact field X = g T + h Z + h̄ Z̄ extends off the sphere by the same
polynomial formulas; in ambient coordinates the velocity is

    ż₁ = 2i g z₁ + h z̄₂,   ż₂ = 2i g z₂ − h z̄₁,

which is tangent to every centered sphere (the radial derivative of |z|²
vanishes identically), so re-projection after each integration step only
removes integrator drift. The flow map and its differential are integrated
together: positions by the Dormand–Prince 5(4) pair, the differential by the
variational equation dJ/dt = DX(z(t)) J with the conjugate rows of J
reconstructed from J itself (F commutes with conjugation).

The step count certifies itself by the embedded estimate (Dormand and Prince,
J. Comput. Appl. Math. 6, 1980; Hairer, Nørsett and Wanner, Solving ODEs I,
§II.5): each step advances with the 5th-order solution, and one more stage at
its end gives the 4th-order solution of the same step. The estimate of a flow
is the sum over its steps of max |y5 − y4| on images and Jacobians, taken
before the re-projection to S³. A flow is accepted only when its estimate is
at most FLOW_TOL and its contact ratio is within CONTACT_RATIO_TOL. The
contact ratio alone cannot see phase error: on the Hopf rotation the Jacobian
is a multiple of the identity, so the ratio stays at roundoff whatever the
step count.

Deformation pullbacks follow the frame recipe: with ω̂ = ω + (φ∘F) ω̄,

    A = ω̂_{F(x)}(dF Z),   B = ω̂_{F(x)}(dF Z̄),   μ = B / A,

read nodewise from the Z and Z̄ columns of F's frame maps and projected back
to the basis. The composition factor φ∘F may be frozen at a different
diffeomorphism (the remainder E and the contraction map need that variant).

The identity is marked explicitly (``ContactDiffeo.is_identity``), never
inferred from a missing generator, because a composite also has none. Its
frame maps are the exact 3×3 identity, and f∘F at its images (the nodes)
is the FFT synthesis ``f.values()``; any other F evaluates f at its images.
Every solve starts at X = 0, so its first pullback evaluates no polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _core
from .basis import Basis, SpectralScalar
from .fields import ContactField
from .operators import FieldForm01, OperatorSuite

DEFAULT_FLOW_STEPS = 1
FLOW_TOL = 1e-12
CONTACT_RATIO_TOL = 1e-8
MAX_FLOW_STEPS = 4096
FLOW_NORM_CAP = 8.0
FLOW_NORM_ORDER = 6
_IDENTITY_CUTOFF = 1e-13
_ROW_COMPRESS_REL = 1e-13
_MIN_ABS_A = 0.1


class FlowError(RuntimeError):
    """A field too large to flow, or no step count up to the cap whose flow
    error estimate and contact ratio pass."""


class NeighbourhoodError(RuntimeError):
    """The deformed structure left the parameterized neighbourhood."""


@dataclass
class DeformationTensor:
    """Deformation coefficient φ in φ ω̄⊗Z (H-valued; |φ| < 1 pointwise)."""

    coefficient: SpectralScalar

    def __post_init__(self):
        sup = self.sup_abs()
        if not sup < 1.0:  # a NaN fails this too
            raise ValueError(f"deformation tensor has sup |phi| = {sup:.3f}, not below 1")

    @property
    def basis(self):
        return self.coefficient.basis

    def sup_abs(self):
        return float(np.abs(self.coefficient.values()).max())

    def fs_norm(self, order):
        return self.coefficient.fs_norm(order)

    def as_field_form(self) -> FieldForm01:
        return FieldForm01(self.basis.zero(), self.coefficient)

    def __add__(self, other):
        return DeformationTensor(self.coefficient + other.coefficient)

    def __sub__(self, other):
        return DeformationTensor(self.coefficient - other.coefficient)

    def __mul__(self, scalar):
        return DeformationTensor(self.coefficient * scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# integration


def _flow_columns(X: ContactField):
    """Monomial rows and the 10 coefficient columns (g, h and their four
    ambient derivatives each) used by the flow right-hand side. Lowering one
    exponent is injective, so each derivative column is one indexed update."""
    basis = X.basis
    exps = basis.exponents
    position = np.zeros((basis.degree + 1,) * 4, dtype=np.int64)
    position[tuple(exps.T)] = np.arange(len(exps))
    cols = np.zeros((len(exps), 10), dtype=complex)
    cols[:, 0] = basis.monomial_coefficients(X.generating.coeffs)
    cols[:, 1] = basis.monomial_coefficients(X.horizontal.coeffs)
    for var in range(4):
        rows = np.flatnonzero(exps[:, var])
        lowered = exps[rows].copy()
        lowered[:, var] -= 1
        target = position[tuple(lowered.T)]
        power = exps[rows, var]
        for src, base in ((0, 2), (1, 6)):
            cols[target, base + var] += power * cols[rows, src]
    peak = np.abs(cols).max()
    if peak > 0:
        keep = np.abs(cols).max(axis=1) > _ROW_COMPRESS_REL * peak
        exps = exps[keep]
        cols = cols[keep]
    return np.ascontiguousarray(exps), np.ascontiguousarray(cols)


def _jac_full(jac):
    return np.concatenate([jac, np.conj(jac[:, :, [2, 3, 0, 1]])], axis=1)


def _rhs(exps, cols, z, jac):
    """Velocity and Jacobian derivative at positions z (n, 2), jac (n, 2, 4)."""
    z1, z2 = z[:, 0], z[:, 1]
    w = _core.eval_poly(z1, z2, exps, cols)
    g, h = w[:, 0], w[:, 1]
    dg, dh = w[:, 2:6], w[:, 6:10]
    zb1, zb2 = np.conj(z1), np.conj(z2)

    vel = np.empty_like(z)
    vel[:, 0] = 2j * g * z1 + h * zb2
    vel[:, 1] = 2j * g * z2 - h * zb1

    dx = np.empty((z.shape[0], 2, 4), dtype=complex)
    dx[:, 0, :] = 2j * z1[:, None] * dg + zb2[:, None] * dh
    dx[:, 0, 0] += 2j * g
    dx[:, 0, 3] += h
    dx[:, 1, :] = 2j * z2[:, None] * dg - zb1[:, None] * dh
    dx[:, 1, 1] += 2j * g
    dx[:, 1, 2] -= h

    return vel, dx @ _jac_full(jac)


# Dormand–Prince 5(4) for an autonomous field (Solving ODEs I, Table II.5.2):
# rows 2 to 6 of the stage matrix A; the 5th-order weights B over stages 1 to
# 6, which are also row 7 of A, so the seventh stage is the field at the new
# point; and E = B − B̂, the 5th- minus the 4th-order weights over all seven.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _advance(z, jac, dt, weights, stages):
    """z + dt Σ wᵢ vᵢ and jac + dt Σ wᵢ mᵢ over the stages (vᵢ, mᵢ)."""
    for w, (v, m) in zip(weights, stages):
        if w:
            z = z + (dt * w) * v
            jac = jac + (dt * w) * m
    return z, jac


def _integrate(exps, cols, z0, jac0, steps, estimate=False):
    """Time-1 DOPRI5 integration with per-step re-projection of positions to S³.

    Returns the images, the Jacobians and, with ``estimate``, the error
    estimate: the sum over steps of max |y5 − y4| on images and Jacobians,
    before re-projection (7 RHS calls a step). Without it the seventh stage
    is skipped (6 calls a step) and the estimate is None.
    """
    z, jac = z0, jac0
    dt = 1.0 / steps
    total = 0.0 if estimate else None
    for _ in range(steps):
        stages = [_rhs(exps, cols, z, jac)]
        for row in _DP_A:
            stages.append(_rhs(exps, cols, *_advance(z, jac, dt, row, stages)))
        z, jac = _advance(z, jac, dt, _DP_B, stages)
        if estimate:
            stages.append(_rhs(exps, cols, z, jac))
            dz, djac = _advance(0.0, 0.0, dt, _DP_E, stages)
            total += max(float(np.abs(dz).max()), float(np.abs(djac).max()))
        z /= np.sqrt(np.abs(z[:, :1]) ** 2 + np.abs(z[:, 1:]) ** 2)
    return z, jac, total


def _frame_maps(basis: Basis, start_z, images, jac):
    """3×3 matrices of dF on (T, Z, Z̄) against (η, ω, ω̄) at the image."""
    geom = basis.geometry
    frames = geom.frame_vectors(start_z[:, 0], start_z[:, 1])
    full = _jac_full(jac)
    n = start_z.shape[0]
    maps = np.empty((n, 3, 3), dtype=complex)
    w1, w2 = images[:, 0], images[:, 1]
    for j, vec in enumerate(frames):
        pushed = np.einsum("nkc,nc->nk", full, vec)
        maps[:, 0, j] = geom.eta(w1, w2, pushed)
        maps[:, 1, j] = geom.omega(w1, w2, pushed)
        maps[:, 2, j] = geom.omega_bar(w1, w2, pushed)
    return maps


def _contact_ratio(maps):
    """Largest ω/ω̄ component of F*η relative to its η component."""
    eta_t = np.abs(maps[:, 0, 0])
    off = np.maximum(np.abs(maps[:, 0, 1]), np.abs(maps[:, 0, 2]))
    return float((off / eta_t).max())


@dataclass
class ContactDiffeo:
    """Time-1 flow data at the quadrature nodes of a basis.

    ``rhs_evals`` counts the right-hand-side evaluations that produced the
    map, rejected step counts included; ``error_estimate`` is the embedded
    estimate of the accepted flow. Both are 0 for the identity.
    """

    basis: Basis
    generator: ContactField | None
    steps: int
    images: np.ndarray          # (n, 2)
    jacobians: np.ndarray       # (n, 2, 4), rows F1, F2 over (z1, z2, z̄1, z̄2)
    frame_maps: np.ndarray = field(repr=False)  # (n, 3, 3), see _frame_maps
    contact_ratio: float = 0.0
    is_identity: bool = False
    rhs_evals: int = 0
    error_estimate: float = 0.0

    @staticmethod
    def identity(basis: Basis) -> "ContactDiffeo":
        """The identity at the nodes: (T, Z, Z̄) is dual to (η, ω, ω̄), so
        the frame maps are exactly the 3×3 identity and the ratio is 0. The
        Jacobians and frame maps are read-only broadcasts, not per-node
        arrays; ``_integrate`` never writes to its inputs."""
        nodes = np.stack([basis.grid.z1, basis.grid.z2], axis=1)
        jac = np.broadcast_to(np.eye(2, 4, dtype=complex), (len(nodes), 2, 4))
        maps = np.broadcast_to(np.eye(3, dtype=complex), (len(nodes), 3, 3))
        return ContactDiffeo(basis, None, 0, nodes, jac, maps, 0.0, is_identity=True)

    def sphere_defect(self):
        return float(np.abs(np.abs(self.images[:, 0]) ** 2
                            + np.abs(self.images[:, 1]) ** 2 - 1.0).max())


def flow(X: ContactField, steps=DEFAULT_FLOW_STEPS) -> ContactDiffeo:
    """Time-1 contact flow of X from the quadrature nodes.

    Integrates ``steps`` DOPRI5 steps and accepts the flow when its embedded
    error estimate is at most FLOW_TOL and its contact ratio is at most
    CONTACT_RATIO_TOL. Otherwise the step count doubles, up to
    MAX_FLOW_STEPS; past that it raises FlowError. The returned ``steps`` is
    the accepted count, so it exceeds the requested one only after a doubling.
    A field whose order-FLOW_NORM_ORDER norm exceeds FLOW_NORM_CAP raises
    FlowError.
    """
    if steps < 1:
        raise ValueError(f"flow needs at least 1 step, got {steps}")
    basis = X.basis
    size = X.generating.l2_norm() + X.horizontal.l2_norm()
    if size < _IDENTITY_CUTOFF:
        return ContactDiffeo.identity(basis)
    norm = X.fs_norm(FLOW_NORM_ORDER)
    if norm > FLOW_NORM_CAP:
        raise FlowError(f"contact field too large to flow (norm {norm:.3g} > {FLOW_NORM_CAP})")

    exps, cols = _flow_columns(X)
    start = ContactDiffeo.identity(basis)
    nodes, jac0 = start.images, start.jacobians

    n_steps = steps
    rhs_evals = 0
    while True:
        images, jac, estimate = _integrate(exps, cols, nodes, jac0, n_steps, estimate=True)
        rhs_evals += 7 * n_steps
        maps = _frame_maps(basis, nodes, images, jac)
        ratio = _contact_ratio(maps)
        if estimate <= FLOW_TOL and ratio <= CONTACT_RATIO_TOL:
            return ContactDiffeo(basis, X, n_steps, images, jac, maps, ratio,
                                 rhs_evals=rhs_evals, error_estimate=estimate)
        if 2 * n_steps > MAX_FLOW_STEPS:
            raise FlowError(
                f"flow error estimate {estimate:.2e} (tol {FLOW_TOL:g}) and contact ratio "
                f"{ratio:.2e} (tol {CONTACT_RATIO_TOL:g}) at {n_steps} steps"
            )
        n_steps *= 2


def compose(outer: ContactDiffeo, inner: ContactDiffeo) -> ContactDiffeo:
    """The diffeomorphism outer ∘ inner, by transporting inner's data along
    outer's flow with outer's step count and no estimate stage. The outer map
    must be the identity or a flow: a composite has no generator to
    integrate. ``rhs_evals`` adds the transport's 6 per step to inner's. The
    transport runs at outer's accepted step count, so outer's estimate from
    the nodes stands in for it: the estimate is the sum of the two."""
    if outer.is_identity:
        return replace(inner, generator=None)
    if outer.generator is None:
        raise ValueError("compose needs an outer flow or the identity, got a composite")
    basis = inner.basis
    nodes = np.stack([basis.grid.z1, basis.grid.z2], axis=1)
    exps, cols = _flow_columns(outer.generator)
    images, jac, _ = _integrate(exps, cols, inner.images, inner.jacobians, outer.steps)
    maps = _frame_maps(basis, nodes, images, jac)
    return ContactDiffeo(basis, None, max(outer.steps, inner.steps),
                         images, jac, maps, _contact_ratio(maps),
                         rhs_evals=inner.rhs_evals + 6 * outer.steps,
                         error_estimate=inner.error_estimate + outer.error_estimate)


# ---------------------------------------------------------------------------
# pullbacks


def _composed_values(f: SpectralScalar, F: ContactDiffeo):
    """f ∘ F at the nodes: the FFT synthesis for the identity, otherwise f
    evaluated at F's images."""
    if F.is_identity:
        return f.values()
    return f.eval(F.images[:, 0], F.images[:, 1])


def pullback_scalar(F: ContactDiffeo, f: SpectralScalar) -> SpectralScalar:
    """f ∘ F at the nodes (see ``_composed_values``), then projection."""
    return F.basis.project_with_mass(_composed_values(f, F))


def pullback_deformation(F: ContactDiffeo, phi: DeformationTensor,
                         composition_values=None) -> DeformationTensor:
    """F*φ as a deformation tensor: μ = B/A nodewise, projected to the basis.

    ``composition_values`` freezes the φ∘F factor at given nodewise values
    (used by the remainder map); by default it is φ∘F (``_composed_values``).
    """
    if composition_values is None:
        composition_values = _composed_values(phi.coefficient, F)
    # ω and ω̄ at F(x) of dF Z and dF Z̄ are columns 1 and 2 of the frame maps
    maps = F.frame_maps
    a_vals = maps[:, 1, 1] + composition_values * maps[:, 2, 1]
    b_vals = maps[:, 1, 2] + composition_values * maps[:, 2, 2]
    min_a = float(np.abs(a_vals).min())
    if min_a < _MIN_ABS_A:
        raise NeighbourhoodError(f"structure left the parameterized neighbourhood (|A| = {min_a:.3f})")
    return DeformationTensor(F.basis.project_with_mass(b_vals / a_vals))


def e_remainder(suite: OperatorSuite, X: ContactField, phi: DeformationTensor,
                steps=DEFAULT_FLOW_STEPS, compose_with: ContactDiffeo | None = None):
    """E(X, φ) = F_X*φ − ∂̄X|_H − φ∘F: the second-order remainder.

    ``compose_with`` freezes the composition slot at another diffeomorphism
    (the contraction map's variant); the default is the live flow of X.
    """
    basis = X.basis
    F = flow(X, steps=steps)
    Fc = F if compose_with is None else compose_with
    comp_values = _composed_values(phi.coefficient, Fc)
    mu = pullback_deformation(F, phi, composition_values=comp_values)
    dbar_x = suite.dbar_field(X.as_hol_field())
    comp_proj = basis.from_values(comp_values)
    return mu.coefficient - dbar_x.q - comp_proj
