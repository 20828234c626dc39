"""Contact diffeomorphisms as time-1 flows, and pullbacks of structures.

A contact field X = g T + h Z + h̄ Z̄ extends off the sphere by the same
polynomial formulas; in ambient coordinates the velocity is

    ż₁ = 2i g z₁ + h z̄₂,   ż₂ = 2i g z₂ − h z̄₁,

which is tangent to every centered sphere (the radial derivative of |z|²
vanishes identically), so re-projection after each integration step only
removes integrator drift. The pullbacks need dF only on the frame, so the
flow carries the pushed vectors dF·T, dF·Z and dF·Z̄. A pushed vector f, with
components (f₁, f₂, f₃, f₄) over (z₁, z₂, z̄₁, z̄₂), obeys the variational
equation, whose dz-components are

    ḟ = 2i (dg·f) z + 2i g (f₁, f₂) + (dh·f)(z̄₂, −z̄₁) + h (f₄, −f₃).

F commutes with conjugation, T is real and Z̄ = conj(Z), so the dz̄-components
of dF·T, dF·Z and dF·Z̄ are the conjugated dz-components of dF·T, dF·Z̄ and
dF·Z. The state is one (8, n) array (``ContactDiffeo``), and every
right-hand-side operation is a broadcast over its contiguous rows.

The state advances by the Cash–Karp 5(4) pair (Cash and Karp, ACM Trans.
Math. Softw. 16, 1990), whose embedded 4th-order solution certifies the step
count: a flow is accepted when the sum over its steps of max |y5 − y4| over
the state, taken before the re-projection to S³, is at most FLOW_TOL and its
contact ratio is within CONTACT_RATIO_TOL. The ratio alone cannot see phase
error: the Hopf rotation pushes each frame vector to a unimodular multiple of
the frame at the image, so the ratio stays at roundoff whatever the steps.

Near-node evaluation. A solver flow moves each node by a few 1e-6 at most.
Each right-hand-side call bounds the truncation error of the order-1 Taylor
table of its 10 kernel rows at the nodes, carried through the right-hand side,
at its own displacement δ = y − x (``_FlowField``). Where the bound is at most
NEAR_NODE_TOL the call sums the table at δ, built by the first such call of
the flow; otherwise it takes the point kernel ``_core.eval_poly``, counted in
``ContactDiffeo.kernel_fallbacks``. The bound grows as max |δ|², so the early
stages of a step may pass where the late ones fail: on the solver's pullback
fields at N = 6, 8 and 12, the stages c = 0, 1/5 and 3/10 pass (the last at
0.3 to 0.95 of the tolerance) and c = 3/5, 1 and 7/8 take the kernel; its
random fields take it at two to six stages at N = 6 and at none at N ≥ 8.
The table changes each right-hand side by at most NEAR_NODE_TOL, so the
unit-size state by at most Σ|bᵢ| NEAR_NODE_TOL = NEAR_NODE_TOL over time 1
(the weights are nonnegative), and that shift passes into the pulled-back
tensor unchanged. With NEAR_NODE_TOL = 1e-14 solve outputs moved from the
point kernel's by at most 1.4e-13 of their largest entry at N = 8 and 12, and
by 1.3e-12 at N = 6, where random solves give outputs near 1e-6. f∘F on a
moving flow is the order-2 Taylor table of f at the nodes in the same way,
checked relative to max |f| at the nodes, with ``_core.eval_bilinear`` as its
fallback.

Deformation pullbacks follow the frame recipe: with ω̂ = ω + (φ∘F) ω̄,

    A = ω̂_{F(x)}(dF Z),   B = ω̂_{F(x)}(dF Z̄),   μ = B / A,

read nodewise from the Z and Z̄ columns of F's frame maps and projected back
to the basis. The composition factor φ∘F may be frozen at a different
diffeomorphism (the remainder E and the contraction map need that variant).

The identity is marked explicitly (``ContactDiffeo.is_identity``), never
inferred from a missing generator. Its frame maps are the exact 3×3
identity, and f∘F at its images (the nodes) is the FFT synthesis
``f.values()``; it builds no Taylor table. Every solve starts at X = 0, so
its first pullback evaluates no polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _core
from .basis import Basis, Componentwise, NonFiniteError, SpectralScalar
from .fields import ContactField
from .operators import FieldForm01, OperatorSuite

DEFAULT_FLOW_STEPS = 1
FLOW_TOL = 1e-12
CONTACT_RATIO_TOL = 1e-8
MAX_FLOW_STEPS = 4096
FLOW_NORM_CAP = 8.0
FLOW_NORM_ORDER = 6
# near-node evaluation: the largest certified error that a Taylor table may
# add to a right-hand side (absolute: the state is of unit size) or to f∘F
# (relative to max |f| at the nodes), checked on every call at that call's
# displacement, and the table orders. An order-1 table of f∘F never passed
# on a solver flow; order-2 rows from an order-3 table (70 transforms) at the
# stages failing at order 1 left no kernel call, but pullback-n8 solves were
# no faster and gens slower (16.5 vs 12.2 ms). Neither order is searched.
NEAR_NODE_TOL = 1e-14
FLOW_TABLE_ORDER = 1
COMPOSED_TABLE_ORDER = 2
_IDENTITY_CUTOFF = 1e-13
_ROW_COMPRESS_REL = 1e-13
_MIN_ABS_A = 0.1


class FlowError(RuntimeError):
    """A field too large (or not finite) to flow, or no step count up to the
    cap whose flow error estimate and contact ratio pass."""


class NeighbourhoodError(RuntimeError):
    """The deformed structure left the parameterized neighbourhood."""


@dataclass
class DeformationTensor(Componentwise):
    """Deformation coefficient φ in φ ω̄⊗Z (H-valued; ``sup`` = max |φ| < 1 at the nodes)."""

    coefficient: SpectralScalar

    def __post_init__(self):
        if not np.isfinite(self.coefficient.coeffs).all():
            raise NonFiniteError("deformation tensor has a NaN or infinite coefficient")
        self.sup = float(np.abs(self.coefficient.values()).max())
        if not self.sup < 1.0:
            raise NeighbourhoodError(f"deformation tensor has sup |phi| = {self.sup:.3f}, not below 1")

    @property
    def basis(self):
        return self.coefficient.basis

    def fs_norm(self, order):
        return self.coefficient.fs_norm(order)

    def as_field_form(self) -> FieldForm01:
        return FieldForm01(self.basis.zero(), self.coefficient)


# ---------------------------------------------------------------------------
# integration


def _flow_columns(X: ContactField):
    """Monomial rows and the 10 coefficient columns (g, h and their four
    ambient derivatives each) used by the flow right-hand side; the
    derivatives are the order-1 terms of ``_core.NodeTables.derivatives``.
    Rows whose columns all stay below _ROW_COMPRESS_REL of the largest entry
    are dropped."""
    basis = X.basis
    exps = basis.exponents
    gh = np.stack([basis.monomial_coefficients(X.generating.coeffs),
                   basis.monomial_coefficients(X.horizontal.coeffs)], axis=1)
    derivs = basis.node_tables().derivatives(gh, 1)  # (m, 5, 2): C, then ∂_v C
    cols = np.concatenate([gh, derivs[:, 1:, 0], derivs[:, 1:, 1]], axis=1)
    peak = np.abs(cols).max()
    if peak > 0:
        keep = np.abs(cols).max(axis=1) > _ROW_COMPRESS_REL * peak
        exps = exps[keep]
        cols = cols[keep]
    return np.ascontiguousarray(exps), np.ascontiguousarray(cols)


def _node_displacement(basis: Basis, y):
    """δ = y[:2] − x at the nodes x, as (δ1, δ2), and ρ = max |δ_v|."""
    d1, d2 = y[0] - basis.grid.z1, y[1] - basis.grid.z2
    return d1, d2, max(float(np.abs(d1).max()), float(np.abs(d2).max()))


def _rhs_error_bound(column_bounds, scale):
    """A bound on max |Δ dy| over the state from bounds on the errors of the
    10 kernel rows, when every entry of the state is at most ``scale`` ≥ 1 in
    modulus: in ``_rhs``, g and h multiply one state entry and each
    derivative row two."""
    e = column_bounds
    return scale * (2.0 * e[0] + e[1]) + scale * scale * (2.0 * e[2:6].sum() + e[6:].sum())


# the derivative rows at order FLOW_TABLE_ORDER over the order-2 table T of g
# and h: ∂^γ ∂_v g / γ! = (γ_v + 1) T_{γ+e_v}, so row 2 + v of g (6 + v of h)
# is Σ_γ (γ_v + 1) T_{γ+e_v} δ^γ; listed as (t of γ, t of γ + e_v, v, γ_v + 1)
_MULTI = _core.multi_indices(FLOW_TABLE_ORDER + 1).tolist()
_ROW_TERMS = [(t, _MULTI.index([c + (u == v) for u, c in enumerate(gamma)]), v, gamma[v] + 1)
              for t, gamma in enumerate(_core.multi_indices(FLOW_TABLE_ORDER).tolist())
              for v in range(4)]


class _FlowField:
    """The polynomial data of X for the right-hand side: the point kernel's
    rows and columns (``_flow_columns``), and the Taylor table of g and h at
    the nodes, built by the first call that uses it.

    Each call bounds the truncation error of the 10 rows at order
    FLOW_TABLE_ORDER = 1, carried through the right-hand side, at its own
    displacement and state size. Where that bound is at most NEAR_NODE_TOL
    the call sums the rows from the order-2 table of g and h alone
    (``_ROW_TERMS``); elsewhere it takes the point kernel, counted in
    ``kernel_fallbacks``.
    """

    def __init__(self, X: ContactField):
        self.basis = X.basis
        self.exps, self.cols = _flow_columns(X)
        self.kernel_fallbacks = 0
        self.max_node_displacement = 0.0
        self.table = None  # (15, 2, n): T_β of g and h for |β| ≤ 2
        self._weights = _core.truncation_weights(self.exps, self.cols, FLOW_TABLE_ORDER)

    def _sum(self, d1, d2):
        """The 10 rows summed from the table at the displacement (δ1, δ2)."""
        table = self.table
        powers = _core.displacement_powers(d1, d2, FLOW_TABLE_ORDER)
        out = np.empty((10, table.shape[2]), dtype=complex)
        out[:2] = _core.taylor_sum(table, powers)
        derivs = out[2:].reshape(2, 4, -1)  # [g or h, v]: rows 2 + v and 6 + v
        for t, raised, var, factor in _ROW_TERMS:
            if t == 0:
                derivs[:, var] = table[raised]
            else:
                derivs[:, var] += table[raised] * (factor * powers[t])
        return out

    def rows(self, y):
        """The 10 kernel rows at the images y[:2], (10, n): the table's sum
        when its bound at this call's displacement passes, else the point
        kernel (counted in ``kernel_fallbacks``)."""
        d1, d2, rho = _node_displacement(self.basis, y)
        self.max_node_displacement = max(self.max_node_displacement, rho)
        bounds = _core.truncation_bound(self._weights, rho, FLOW_TABLE_ORDER, self.basis.degree)
        # the bound grows with the state's size ≥ 1: a call failing at size 1 skips the sweep
        if _rhs_error_bound(bounds, 1.0) <= NEAR_NODE_TOL and \
                _rhs_error_bound(bounds, max(1.0, float(np.abs(y).max()))) <= NEAR_NODE_TOL:
            if self.table is None:
                tables = self.basis.node_tables()
                gh = np.zeros((len(self.basis.exponents), 2), dtype=complex)
                gh[tables.position[tuple(self.exps.T)]] = self.cols[:, :2]
                self.table = tables.taylor(gh, FLOW_TABLE_ORDER + 1)
            return self._sum(d1, d2)
        self.kernel_fallbacks += 1
        return np.ascontiguousarray(_core.eval_poly(y[0], y[1], self.exps, self.cols).T)


def _start_state(basis: Basis):
    """The identity's state: the nodes, then the dz-components of T, Z, Z̄."""
    z1, z2 = basis.grid.z1, basis.grid.z2
    frame = basis.geometry.frame_vectors(z1, z2)
    return np.concatenate([np.stack([z1, z2])] + [vec[:, :2].T for vec in frame])


# for dF·T, dF·Z and dF·Z̄: the state row of the dz-pair, and of the pair
# whose conjugates are the dz̄-pair
_PUSHED = ((2, 2), (4, 6), (6, 4))


def _rhs(field: _FlowField, y):
    """dy at the state y (8, n): the velocity at the images, then dv of each
    pushed vector; rows 2–5 and 6–9 of the field's rows are dg and dh."""
    w = field.rows(y)
    yb = np.conj(y)
    g2, h = 2j * w[0], w[1]
    iz1, iz2, zb1, zb2 = 2j * y[0], 2j * y[1], yb[0], yb[1]
    dy = np.empty_like(y)
    dy[0] = g2 * y[0] + h * zb2
    dy[1] = g2 * y[1] - h * zb1
    for k, b in _PUSHED:
        f1, f2, f3, f4 = y[k], y[k + 1], yb[b], yb[b + 1]
        dg = w[2] * f1 + w[3] * f2 + w[4] * f3 + w[5] * f4
        dh = w[6] * f1 + w[7] * f2 + w[8] * f3 + w[9] * f4
        dy[k] = iz1 * dg + zb2 * dh + g2 * f1 + h * f4
        dy[k + 1] = iz2 * dg - zb1 * dh + g2 * f2 - h * f3
    return dy


# Cash–Karp 5(4) for an autonomous field: rows 2 to 6 of the stage matrix A
# (nodes c = 1/5, 3/10, 3/5, 1, 7/8); the 5th-order weights B; and E = B − B̂,
# the 5th- minus the 4th-order weights. Both solutions come from the same six
# stages, so the estimate needs no right-hand side at the new point.
_CK_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_E = (-277 / 64512, 0.0, 6925 / 370944, -6925 / 202752, -277 / 14336, 277 / 7084)


def _advance(y, dt, weights, stages):
    """y + dt Σ wᵢ kᵢ over the stages kᵢ."""
    for w, k in zip(weights, stages):
        if w:
            y = y + (dt * w) * k
    return y


def _integrate(field, y, steps):
    """Time-1 Cash–Karp integration of the state, re-projecting the images to
    S³ after each step (6 RHS calls a step). Returns the state and the sum
    over steps of max |y5 − y4| over the state before re-projection."""
    dt = 1.0 / steps
    total = 0.0
    for _ in range(steps):
        stages = [_rhs(field, y)]
        for row in _CK_A:
            stages.append(_rhs(field, _advance(y, dt, row, stages)))
        y = _advance(y, dt, _CK_B, stages)
        total += float(np.abs(_advance(0.0, dt, _CK_E, stages)).max())
        y[:2] /= np.sqrt(np.abs(y[:1]) ** 2 + np.abs(y[1:2]) ** 2)
    return y, total


def _frame_maps(basis: Basis, y):
    """3×3 matrices of dF on (T, Z, Z̄) against (η, ω, ω̄) at the images of y."""
    geom = basis.geometry
    w1, w2 = y[0], y[1]
    maps = np.empty((y.shape[1], 3, 3), dtype=complex)
    for j, (k, b) in enumerate(_PUSHED):
        pushed = np.stack([y[k], y[k + 1], np.conj(y[b]), np.conj(y[b + 1])], axis=-1)
        maps[:, 0, j] = geom.eta(w1, w2, pushed)
        maps[:, 1, j] = geom.omega(w1, w2, pushed)
        maps[:, 2, j] = geom.omega_bar(w1, w2, pushed)
    return maps


def _contact_ratio(maps):
    """Largest ω/ω̄ component of F*η relative to its η component."""
    eta_t = np.abs(maps[:, 0, 0])
    off = np.maximum(np.abs(maps[:, 0, 1]), np.abs(maps[:, 0, 2]))
    return float((off / eta_t).max())


@dataclass(frozen=True)
class ContactDiffeo:
    """Time-1 flow data at the quadrature nodes of a basis.

    ``state`` rows 0–1 are the images F(x) of the nodes x, rows 2–3, 4–5 and
    6–7 the dz-components of dF·T, dF·Z and dF·Z̄ at x (their dz̄-components:
    conjugated rows 2–3, 6–7, 4–5); the identity keeps rows 0–1. ``rhs_evals``
    counts the RHS evaluations behind the map, rejected step counts included;
    ``error_estimate`` is the accepted flow's embedded estimate over the state
    (the pushed T has length κ = 2, so its errors weigh twice those of the
    images). ``kernel_fallbacks`` counts the right-hand-side calls that took
    the point kernel because the near-node bound failed, and
    ``max_node_displacement`` is the largest max |y − x| over the stage points
    y at which they asked for near-node values; φ∘F at the images records its
    own count and displacement on the pulled-back tensor's ``meta``
    (``pullback_deformation``). ``field_norm`` is the generator's norm that
    ``flow`` checked. All five are 0 for the identity.
    """

    basis: Basis
    generator: ContactField | None
    steps: int
    state: np.ndarray                           # (8, n); (2, n) for the identity
    frame_maps: np.ndarray = field(repr=False)  # (n, 3, 3), see _frame_maps
    contact_ratio: float = 0.0
    is_identity: bool = False
    rhs_evals: int = 0
    error_estimate: float = 0.0
    kernel_fallbacks: int = 0
    max_node_displacement: float = 0.0
    field_norm: float = 0.0

    @property
    def images(self):
        """The images of the nodes, (n, 2): a view of the state's rows 0–1."""
        return self.state[:2].T

    @staticmethod
    def identity(basis: Basis) -> "ContactDiffeo":
        """The identity at the nodes: (T, Z, Z̄) is dual to (η, ω, ω̄), so the
        frame maps are exactly the 3×3 identity (a read-only broadcast) and
        the ratio is 0. The state holds the nodes only."""
        nodes = np.stack([basis.grid.z1, basis.grid.z2])
        maps = np.broadcast_to(np.eye(3, dtype=complex), (nodes.shape[1], 3, 3))
        return ContactDiffeo(basis, None, 0, nodes, maps, 0.0, is_identity=True)

    def sphere_defect(self):
        return float(np.abs((np.abs(self.state[:2]) ** 2).sum(axis=0) - 1.0).max())


def flow(X: ContactField, steps=DEFAULT_FLOW_STEPS) -> ContactDiffeo:
    """Time-1 contact flow of X from the quadrature nodes.

    Integrates ``steps`` (1 to MAX_FLOW_STEPS) Cash–Karp steps of 6 RHS
    calls and accepts the flow when its embedded error estimate is at most
    FLOW_TOL and its contact ratio is at most CONTACT_RATIO_TOL. Otherwise the
    step count doubles, up to MAX_FLOW_STEPS; past that it raises FlowError.
    The returned ``steps`` is the accepted count, so it exceeds the requested
    one only after a doubling.
    A field whose order-FLOW_NORM_ORDER norm exceeds FLOW_NORM_CAP, or is not
    finite, raises FlowError before any integration. The right-hand side sums
    the field's Taylor table at the nodes where its bound passes
    (``_FlowField``) and calls the point kernel elsewhere.
    """
    if not 1 <= steps <= MAX_FLOW_STEPS:
        raise ValueError(f"flow needs 1 to {MAX_FLOW_STEPS} steps, got {steps}")
    basis = X.basis
    size = X.generating.l2_norm() + X.horizontal.l2_norm()
    if size < _IDENTITY_CUTOFF:
        return ContactDiffeo.identity(basis)
    # the norm squares weighted coefficients, so a field above unit size is
    # measured scaled to it, and a huge one fails the cap without overflowing
    scale = size if 1.0 < size < np.inf else 1.0
    norm = scale * (X * (1.0 / scale)).fs_norm(FLOW_NORM_ORDER)
    if not norm <= FLOW_NORM_CAP:  # a NaN fails this too
        raise FlowError(f"contact field too large to flow (norm {norm:.3g}, cap {FLOW_NORM_CAP})")

    field = _FlowField(X)
    n_steps, rhs_evals = steps, 0
    while True:
        # the start state is rebuilt per attempt, so no copy outlives the first step
        y, estimate = _integrate(field, _start_state(basis), n_steps)
        rhs_evals += 6 * n_steps
        maps = _frame_maps(basis, y)
        ratio = _contact_ratio(maps)
        if estimate <= FLOW_TOL and ratio <= CONTACT_RATIO_TOL:
            return ContactDiffeo(basis, X, n_steps, y, maps, ratio,
                                 rhs_evals=rhs_evals, error_estimate=estimate,
                                 kernel_fallbacks=field.kernel_fallbacks,
                                 max_node_displacement=field.max_node_displacement,
                                 field_norm=norm)
        if 2 * n_steps > MAX_FLOW_STEPS:
            raise FlowError(f"flow error estimate {estimate:.2e} (tol {FLOW_TOL:g}) and contact "
                            f"ratio {ratio:.2e} (tol {CONTACT_RATIO_TOL:g}) at {n_steps} steps")
        n_steps *= 2


# ---------------------------------------------------------------------------
# pullbacks


def _composed_values(f: SpectralScalar, F: ContactDiffeo):
    """f ∘ F at the nodes: the FFT synthesis for the identity; otherwise the
    order-2 Taylor table of f at the nodes, summed at F's displacement when
    its bound there is at most NEAR_NODE_TOL times max |f| over the nodes
    (its order-0 row), else f evaluated at F's images. Returns the values
    and {"kernel_fallbacks": 0 or 1, "node_displacement": max |F(x) − x|}."""
    if F.is_identity:
        return f.values(), {"kernel_fallbacks": 0, "node_displacement": 0.0}
    basis = f.basis
    d1, d2, rho = _node_displacement(basis, F.state)
    column = basis.monomial_coefficients(f.coeffs)[:, None]
    values = basis.node_tables().taylor(column, COMPOSED_TABLE_ORDER)
    weights = _core.truncation_weights(basis.exponents, column, COMPOSED_TABLE_ORDER)
    bound = _core.truncation_bound(weights, rho, COMPOSED_TABLE_ORDER, basis.degree)[0]
    fallback = not bound <= NEAR_NODE_TOL * float(np.abs(values[0]).max())
    if fallback:
        out = f.eval(F.images[:, 0], F.images[:, 1])
    else:
        out = _core.taylor_sum(values, _core.displacement_powers(d1, d2, COMPOSED_TABLE_ORDER))[0]
    return out, {"kernel_fallbacks": int(fallback), "node_displacement": rho}


def pullback_scalar(F: ContactDiffeo, f: SpectralScalar) -> SpectralScalar:
    """f ∘ F at the nodes (see ``_composed_values``), then projection."""
    return F.basis.project_with_mass(_composed_values(f, F)[0])


def pullback_deformation(F: ContactDiffeo, phi: DeformationTensor,
                         composition_values=None) -> DeformationTensor:
    """F*φ as a deformation tensor: μ = B/A nodewise, projected to the basis
    with min |A| over the nodes on its coefficient's ``meta["min_abs_a"]``.

    ``composition_values`` freezes the φ∘F factor at given nodewise values
    (used by the remainder map); by default it is φ∘F (``_composed_values``),
    whose counts go on the ``meta`` too.
    """
    counts = {}
    if composition_values is None:
        composition_values, counts = _composed_values(phi.coefficient, F)
    # ω and ω̄ at F(x) of dF Z and dF Z̄ are columns 1 and 2 of the frame maps
    maps = F.frame_maps
    a_vals = maps[:, 1, 1] + composition_values * maps[:, 2, 1]
    b_vals = maps[:, 1, 2] + composition_values * maps[:, 2, 2]
    min_a = float(np.abs(a_vals).min())
    if not min_a >= _MIN_ABS_A:  # a NaN fails this too
        raise NeighbourhoodError(f"structure left the parameterized neighbourhood (|A| = {min_a:.3f})")
    mu = F.basis.project_with_mass(b_vals / a_vals, min_abs_a=min_a, **counts)
    return DeformationTensor(mu)


def e_remainder(suite: OperatorSuite, X: ContactField, phi: DeformationTensor,
                steps=DEFAULT_FLOW_STEPS, compose_with: ContactDiffeo | None = None):
    """E(X, φ) = F_X*φ − ∂̄X|_H − φ∘F: the second-order remainder.

    ``compose_with`` freezes the composition slot at another diffeomorphism
    (the contraction map's variant); the default is the live flow of X.
    """
    basis = X.basis
    F = flow(X, steps=steps)
    Fc = F if compose_with is None else compose_with
    comp_values, _ = _composed_values(phi.coefficient, Fc)
    mu = pullback_deformation(F, phi, composition_values=comp_values)
    dbar_x = suite.dbar_field(X.as_hol_field())
    comp_proj = basis.from_values(comp_values)
    return mu.coefficient - dbar_x.q - comp_proj
