"""Contact flows: closed forms, group structure, pullbacks, remainder."""

import dataclasses
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from crsphere.fields import ContactField, complex_contact_norm, contact_from_generating
from crsphere import _core
from crsphere.basis import NonFiniteError
from crsphere.flow import (DEFAULT_FLOW_STEPS, FLOW_TABLE_ORDER, FLOW_TOL, MAX_FLOW_STEPS,
                           NEAR_NODE_TOL, ContactDiffeo, DeformationTensor, FlowError,
                           NeighbourhoodError, _CK_A, _CK_B, _CK_E, _flow_columns, _FlowField,
                           _frame_maps, _integrate, _node_displacement, _rhs, _rhs_error_bound,
                           _start_state, e_remainder, flow, pullback_deformation, pullback_scalar)
from crsphere.normal_form import pullback_of_zero, random_deformation, solve

from conftest import cached_basis, cached_suite


def small_field(suite, seed, size, max_degree=4):
    rng = np.random.default_rng(seed)
    g = suite.basis.random_scalar(rng, max_degree=max_degree).real_part()
    return contact_from_generating(suite, g * (size / complex_contact_norm(g, 6)))


def test_identity_flow(suite6):
    X = contact_from_generating(suite6, suite6.basis.zero())
    F = flow(X)
    z1, z2 = suite6.basis.grid.z1, suite6.basis.grid.z2
    assert np.max(np.abs(F.images[:, 0] - z1)) == 0.0
    assert np.max(np.abs(F.images[:, 1] - z2)) == 0.0
    assert F.is_identity and F.contact_ratio == 0.0
    assert F.rhs_evals == 0 and F.error_estimate == 0.0
    assert not flow(small_field(suite6, 77, 2e-3)).is_identity


def test_hopf_flow_closed_form(suite6):
    # generating function a constant c: the flow is z -> exp(2ic) z
    c = 0.05
    X = contact_from_generating(suite6, suite6.basis.constant(c))
    F = flow(X, steps=256)
    z1, z2 = suite6.basis.grid.z1, suite6.basis.grid.z2
    phase = np.exp(2j * c)
    err = max(np.max(np.abs(F.images[:, 0] - phase * z1)),
              np.max(np.abs(F.images[:, 1] - phase * z2)))
    assert err < 1e-9
    assert F.contact_ratio < 1e-10


@pytest.mark.parametrize("c", [0.05, 0.3])
def test_hopf_flow_frame_maps_closed_form(suite6, c):
    # the flow of g = c is z -> exp(2ic) z, which pushes T to T and Z to
    # exp(4ic) Z at the image ([T, Z] = -4iZ), so the frame maps are
    # diag(1, exp(4ic), exp(-4ic)) at every node
    F = flow(contact_from_generating(suite6, suite6.basis.constant(c)))
    expect = np.diag([1.0, np.exp(4j * c), np.exp(-4j * c)])
    assert np.abs(F.frame_maps - expect).max() < 1e-14


def test_error_estimate_catches_phase_error(suite6):
    # the Hopf rotation pushes each frame vector to a unimodular multiple of
    # the frame at the image, so the contact ratio stays at roundoff while
    # 1 step is far off; only the embedded estimate forces the doublings
    c = 0.3
    X = contact_from_generating(suite6, suite6.basis.constant(c))
    F = flow(X)
    assert F.steps > 1
    assert F.error_estimate <= FLOW_TOL
    z1, z2 = suite6.basis.grid.z1, suite6.basis.grid.z2
    phase = np.exp(2j * c)
    err = max(np.max(np.abs(F.images[:, 0] - phase * z1)),
              np.max(np.abs(F.images[:, 1] - phase * z2)))
    assert err < 1e-14


def test_flow_error_at_step_cap_names_both_checks(suite6, monkeypatch):
    import importlib
    flow_mod = importlib.import_module("crsphere.flow")
    monkeypatch.setattr(flow_mod, "MAX_FLOW_STEPS", 4)
    X = contact_from_generating(suite6, suite6.basis.constant(0.3))
    with pytest.raises(FlowError, match="flow error estimate .* contact ratio .* at 4 steps"):
        flow(X)


def test_small_field_accepted_at_default_steps(suite6):
    X = small_field(suite6, 72, 2e-3)
    F = flow(X)
    assert F.steps == DEFAULT_FLOW_STEPS
    ref = flow(X, steps=256)
    assert np.max(np.abs(F.state - ref.state)) < 1e-12


def test_flow_rejects_zero_steps(suite6):
    with pytest.raises(ValueError):
        flow(small_field(suite6, 73, 2e-3), steps=0)


def test_flow_rejects_steps_above_the_cap(suite6, monkeypatch):
    # the cap holds for a requested count as for a doubled one, and is
    # checked before any right-hand side
    import importlib
    flow_mod = importlib.import_module("crsphere.flow")
    monkeypatch.setattr(flow_mod, "_rhs", None)
    with pytest.raises(ValueError, match=f"1 to {MAX_FLOW_STEPS} steps, got {MAX_FLOW_STEPS + 1}"):
        flow(small_field(suite6, 73, 2e-3), steps=MAX_FLOW_STEPS + 1)


def _jac_full(jac):
    """The 4×4 ambient Jacobian from its (n, 2, 4) dz-rows: F is real, so the
    dz̄-rows are the conjugated dz-rows with the columns swapped in pairs."""
    return np.concatenate([jac, np.conj(jac[:, :, [2, 3, 0, 1]])], axis=1)


def _jac_rhs(exps, cols, z, jac):
    """The oracle's own right-hand side: velocity and Jacobian derivative
    DX(z) J at positions z (n, 2), jac (n, 2, 4) over (z1, z2, z̄1, z̄2)."""
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


def _rk4_integrate(exps, cols, z0, jac0, steps):
    """Classical RK4 time-1 integration of positions and ambient Jacobians,
    with per-step re-projection to S³."""
    z = z0.copy()
    jac = jac0.copy()
    dt = 1.0 / steps
    for _ in range(steps):
        v1, m1 = _jac_rhs(exps, cols, z, jac)
        v2, m2 = _jac_rhs(exps, cols, z + 0.5 * dt * v1, jac + 0.5 * dt * m1)
        v3, m3 = _jac_rhs(exps, cols, z + 0.5 * dt * v2, jac + 0.5 * dt * m2)
        v4, m4 = _jac_rhs(exps, cols, z + dt * v3, jac + dt * m3)
        z = z + (dt / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        jac = jac + (dt / 6.0) * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
        z /= np.sqrt(np.abs(z[:, :1]) ** 2 + np.abs(z[:, 1:]) ** 2)
    return z, jac


def _pushed_frame(basis, jac, every=1):
    """J·E_j at every ``every``-th node for E_j = T, Z, Z̄: the dz-components
    of the pushed frame, (6, m) in the row order of a flow's state."""
    grid = basis.grid
    frames = basis.geometry.frame_vectors(grid.z1[::every], grid.z2[::every])
    return np.concatenate([np.einsum("nkc,nc->kn", jac, vec) for vec in frames])


def _rk4_oracle(X, steps, every):
    """The oracle flow: RK4 images and Jacobians of X at ``steps`` steps from
    every ``every``-th node (the flow moves each node on its own), and their
    step-halving gap to the flow at ``steps // 2``."""
    exps, cols = _flow_columns(X)
    grid = X.basis.grid
    z0 = np.stack([grid.z1[::every], grid.z2[::every]], axis=1)
    jac0 = np.broadcast_to(np.eye(2, 4, dtype=complex), (len(z0), 2, 4))
    fine = _rk4_integrate(exps, cols, z0, jac0, steps)
    coarse = _rk4_integrate(exps, cols, z0, jac0, steps // 2)
    gap = max(float(np.abs(f - c).max()) for f, c in zip(fine, coarse))
    return fine[0], fine[1], gap


# Cash–Karp 5(4) (Cash and Karp, ACM Trans. Math. Softw. 16, 1990): nodes,
# stage rows, 5th- and 4th-order weights, as exact fractions
_CK_EXACT_C = [Fraction(c) for c in ("0", "1/5", "3/10", "3/5", "1", "7/8")]
_CK_EXACT_A = [[Fraction(a) for a in row] for row in (
    (), ("1/5",), ("3/40", "9/40"), ("3/10", "-9/10", "6/5"),
    ("-11/54", "5/2", "-70/27", "35/27"),
    ("1631/55296", "175/512", "575/13824", "44275/110592", "253/4096"))]
_CK_EXACT_B = [Fraction(b) for b in ("37/378", "0", "250/621", "125/594", "0", "512/1771")]
_CK_EXACT_B4 = [Fraction(b) for b in
                ("2825/27648", "0", "18575/48384", "13525/55296", "277/14336", "1/4")]


def _rooted_trees(order):
    """The rooted trees with ``order`` nodes, each a sorted tuple of its
    subtrees: every one grows from a tree of one node fewer by a new leaf."""
    def grow(tree):
        yield tuple(sorted(tree + ((),)))
        for i, child in enumerate(tree):
            for grown in grow(child):
                yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))

    trees = {()}
    for _ in range(order - 1):
        trees = {grown for tree in trees for grown in grow(tree)}
    return sorted(trees)


def _tree_condition(tree, A):
    """Φ(t), the order and the density γ(t) of a rooted tree t, for its order
    condition b·Φ(t) = 1/γ(t): Φ_i is the product over the subtrees u of
    (A Φ(u))_i, and γ(t) is t's order times the product of the γ(u)."""
    phi, order, gamma = [Fraction(1)] * len(A), 1, 1
    for child in tree:
        child_phi, child_order, child_gamma = _tree_condition(child, A)
        phi = [p * sum(a * q for a, q in zip(row, child_phi)) for p, row in zip(phi, A)]
        order += child_order
        gamma *= child_gamma
    return phi, order, order * gamma


def test_cash_karp_tableau_meets_its_order_conditions():
    # at the solver's field sizes a mistyped entry would still pass the RK4
    # oracle below, so the coefficients are pinned here, exactly: the rows of
    # A sum to the nodes, the 5th-order weights meet all 17 conditions
    # through order 5 and the 4th-order ones the 8 through order 4 but not
    # all of order 5 (so the estimate is not identically 0), and the module's
    # floats are these fractions rounded
    A = [row + [Fraction(0)] * (6 - len(row)) for row in _CK_EXACT_A]
    assert [sum(row) for row in A] == _CK_EXACT_C
    trees = {order: _rooted_trees(order) for order in range(1, 6)}
    assert [len(trees[order]) for order in trees] == [1, 1, 2, 4, 9]

    def holds(weights, tree):
        phi, _, gamma = _tree_condition(tree, A)
        return sum(w * p for w, p in zip(weights, phi)) == Fraction(1, gamma)

    assert all(holds(_CK_EXACT_B, tree) for order in trees for tree in trees[order])
    assert all(holds(_CK_EXACT_B4, tree) for order in range(1, 5) for tree in trees[order])
    assert not all(holds(_CK_EXACT_B4, tree) for tree in trees[5])

    assert [list(row) for row in _CK_A] == [[float(a) for a in row] for row in _CK_EXACT_A[1:]]
    assert list(_CK_B) == [float(b) for b in _CK_EXACT_B]
    assert list(_CK_E) == [float(b - b4) for b, b4 in zip(_CK_EXACT_B, _CK_EXACT_B4)]


def _solver_field(degree):
    suite = cached_suite(degree)
    phi = random_deformation(suite.basis, np.random.default_rng(90 + degree), 5e-3)
    return solve(suite, phi).x


@pytest.mark.parametrize("make_field, kernel", [
    (lambda: _solver_field(6), True),
    (lambda: _solver_field(8), False),
    (lambda: small_field(cached_suite(6), 74, 0.2, max_degree=3), True),
], ids=["solver-n6", "solver-n8", "large-n6"])
def test_default_flow_matches_rk4_oracle(make_field, kernel):
    # the contact field of a converged solve is the one a default flow moves
    # by in the solver's last iterations; it is small, so the large field
    # (still accepted at 1 step) is the one that sees a wrong stage entry.
    # The N = 8 solver field takes every right-hand side from the Taylor
    # table at the nodes; the N = 6 one moves nodes ten times farther, past
    # the table's bound at the four stages from c = 3/10 on, and the large one
    # at every stage, so both count point-kernel fallbacks.
    # The oracle follows one node in 13, a stride coprime to the radial and
    # torus sizes of the grid. The flow's pushed vectors are checked against
    # the oracle's ambient Jacobian applied to the frame at the nodes
    X = make_field()
    F = flow(X)
    assert F.steps == DEFAULT_FLOW_STEPS and F.error_estimate <= FLOW_TOL
    assert (F.kernel_fallbacks > 0) == kernel
    assert 0.0 < F.max_node_displacement
    every = 13
    images, jac, gap = _rk4_oracle(X, 256, every)
    assert gap < 1e-12
    assert np.abs(F.images[::every] - images).max() < 1e-12
    assert np.abs(F.state[2:, ::every] - _pushed_frame(X.basis, jac, every)).max() < 1e-12


def test_flow_field_sums_its_table_within_the_carried_bound():
    # a pullback field at N = 8 fails the near-node bound at its late stages
    # (see test_normal_form), so the table is built by the first call that
    # passes: the start state, at δ = 0. At the stage point c = 1/5 of a
    # 1-step flow the rows are summed from that table; they match the point
    # kernel within each column's truncation bound, and the right-hand side
    # within that bound carried through it, plus the roundoff of the two sums.
    # The stage point c = 1 fails the bound and takes the kernel
    suite = cached_suite(8)
    X = pullback_of_zero(suite, np.random.default_rng(0), target=2e-3).x0
    field = _FlowField(X)
    y0 = _start_state(suite.basis)
    assert field.table is None
    k1 = _rhs(field, y0)
    assert field.table is not None and field.kernel_fallbacks == 0
    nodes = _core.eval_poly(y0[0], y0[1], field.exps, field.cols).T
    roundoff = 1e-14 * np.abs(nodes).max(axis=1)[:, None]  # measured: 2.5e-15 of each row
    assert (np.abs(field.rows(y0) - nodes) <= roundoff).all()

    y = y0 + 0.2 * k1
    got = field.rows(y)
    assert field.kernel_fallbacks == 0
    expect = _core.eval_poly(y[0], y[1], field.exps, field.cols).T
    rho = _node_displacement(suite.basis, y)[2]
    bound = _core.truncation_bound(field._weights, rho, FLOW_TABLE_ORDER, suite.basis.degree)
    err = np.abs(got - expect)
    assert (err <= bound[:, None] + roundoff).all() and err.max() > roundoff.max()
    scale = max(1.0, float(np.abs(y).max()))
    carried = _rhs_error_bound(bound, scale)
    assert carried <= NEAR_NODE_TOL
    kernel_rhs = _rhs(SimpleNamespace(rows=lambda y: expect), y)
    assert np.abs(_rhs(field, y) - kernel_rhs).max() <= carried + 1e-14 * np.abs(kernel_rhs).max()

    field.rows(y0 + k1)
    assert field.kernel_fallbacks == 1


def test_flow_rhs_evaluation_counts(suite6, monkeypatch):
    # a perf guard: a default moving flow makes its 6 stages and no second
    # integration, and the solver's counter is the number of calls it made
    import importlib
    flow_mod = importlib.import_module("crsphere.flow")
    calls = []
    rhs = flow_mod._rhs

    def counted(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(flow_mod, "_rhs", counted)
    F = flow(small_field(suite6, 72, 2e-3))
    assert len(calls) == F.rhs_evals == 6
    calls.clear()
    phi = random_deformation(suite6.basis, np.random.default_rng(82), 5e-3)
    result = solve(suite6, phi)
    assert result.flow_rhs_evals == len(calls) == 6 * (result.iterations - 1)
    assert 0.0 < result.max_flow_error_estimate <= FLOW_TOL


def test_flow_stays_on_sphere(suite6):
    F = flow(small_field(suite6, 60, 5e-3), steps=16)
    assert F.sphere_defect() < 1e-14


def test_contact_ratio_small(suite6):
    for seed in range(3):
        F = flow(small_field(suite6, 61 + seed, 1e-2), steps=16)
        assert F.contact_ratio < 1e-8


def _transported(outer, inner):
    """The oracle of outer ∘ inner for two moving flows: inner's state carried
    along outer's field at outer's accepted step count, with its frame maps."""
    basis = inner.basis
    y, _ = _integrate(_FlowField(outer.generator), inner.state, outer.steps)
    return ContactDiffeo(basis, None, outer.steps, y, _frame_maps(basis, y))


def test_inverse_flow_composes_to_identity(suite6):
    X = small_field(suite6, 62, 5e-3)
    F = flow(X, steps=16)
    Finv = flow(-1.0 * X, steps=16)
    G = _transported(Finv, F)
    z1, z2 = suite6.basis.grid.z1, suite6.basis.grid.z2
    err = max(np.max(np.abs(G.images[:, 0] - z1)), np.max(np.abs(G.images[:, 1] - z2)))
    assert err < 1e-8


def test_pullback_of_zero_by_rotation_vanishes(suite6):
    # the Hopf rotation is a CR automorphism, so it fixes the round structure
    X = contact_from_generating(suite6, suite6.basis.constant(0.3))
    F = flow(X, steps=64)
    mu = pullback_deformation(F, DeformationTensor(suite6.basis.zero()))
    assert mu.fs_norm(6) < 1e-9


def test_pullback_scalar_under_rotation(suite6):
    # z1 has torus weight (1, 0), so the Hopf rotation scales it by exp(2ic)
    basis = suite6.basis
    c = 0.2
    X = contact_from_generating(suite6, basis.constant(c))
    F = flow(X, steps=128)
    f = basis.scalar(basis.project_values(basis.grid.z1))
    pulled = pullback_scalar(F, f)
    expect = np.exp(2j * c)
    assert (pulled - f * expect).l2_norm() < 1e-9


def test_pullback_respects_composition(suite6):
    X = small_field(suite6, 63, 4e-3)
    W = small_field(suite6, 64, 3e-3)
    FX, FW = flow(X, steps=16), flow(W, steps=16)
    FXW = _transported(FW, FX)  # first X, then W
    rng = np.random.default_rng(65)
    f = suite6.basis.random_scalar(rng, max_degree=3)
    once = pullback_scalar(FXW, f)
    twice = pullback_scalar(FX, pullback_scalar(FW, f))
    # the inner pullback is truncated before the outer one samples it, so
    # agreement is to truncation accuracy, not machine accuracy
    assert (once - twice).l2_norm() < 1e-6


def test_deformation_tensor_size_guard(suite6):
    big = suite6.basis.constant(1.5)
    with pytest.raises(NeighbourhoodError):
        DeformationTensor(big)
    for value in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            DeformationTensor(suite6.basis.constant(value))


def test_pullback_matches_explicit_frame_pushforward(suite6):
    # reference: complete the pushed Z and Zb of the state to 4-vectors (the
    # dz-bar part of dF Z is the conjugated dz part of dF Zb) and pair with
    # omega, omega-bar at the images, A = omega(dF Z) + (phi o F)
    # omega-bar(dF Z), B likewise with Zb; the production path reads the same
    # pairings from the stored frame maps. The pushed vectors themselves are
    # the RK4 oracle's Jacobian applied to Z and Zb at the nodes
    basis = suite6.basis
    geom = basis.geometry
    X = small_field(suite6, 74, 0.2, max_degree=3)
    F = flow(X, steps=16)
    phi = random_deformation(basis, np.random.default_rng(75), 5e-3)
    y = F.state
    pushed_z = np.stack([y[4], y[5], np.conj(y[6]), np.conj(y[7])], axis=-1)
    pushed_zb = np.stack([y[6], y[7], np.conj(y[4]), np.conj(y[5])], axis=-1)
    w1, w2 = F.images[:, 0], F.images[:, 1]
    comp = basis.eval_columns(w1, w2, phi.coefficient.coeffs[:, None])[:, 0]
    out = []
    for pushed in (pushed_z, pushed_zb):
        out.append(geom.omega(w1, w2, pushed) + comp * geom.omega_bar(w1, w2, pushed))
    a_vals, b_vals = out
    expect = basis.project_with_mass(b_vals / a_vals)
    got = pullback_deformation(F, phi).coefficient
    assert np.array_equal(got.coeffs, expect.coeffs)
    nodes = np.stack([basis.grid.z1, basis.grid.z2], axis=1)
    # φ∘F is evaluated at the images, as the bound fails there
    assert got.meta == {**expect.meta, "min_abs_a": float(np.abs(a_vals).min()),
                        "kernel_fallbacks": 1, "node_displacement": np.abs(F.images - nodes).max()}
    assert np.abs(F.images - nodes).max() > 1e-3 and np.abs(comp).max() > 0.0
    every = 13
    images, jac, _ = _rk4_oracle(X, 256, every)
    assert np.abs(F.images[::every] - images).max() < 1e-12
    assert np.abs(y[4:, ::every] - _pushed_frame(basis, jac, every)[2:]).max() < 1e-12


def test_pullback_records_its_counts_and_leaves_the_flow_frozen(suite6):
    # φ∘F of the field above takes the point kernel at F's images; each
    # pullback records that on its tensor's meta, and the flow keeps the
    # counts of its own right-hand sides
    basis = suite6.basis
    F = flow(small_field(suite6, 74, 0.2, max_degree=3), steps=16)
    phi = random_deformation(basis, np.random.default_rng(75), 5e-3)
    before = (F.kernel_fallbacks, F.max_node_displacement)
    for _ in range(2):
        assert pullback_deformation(F, phi).coefficient.meta["kernel_fallbacks"] == 1
        assert (F.kernel_fallbacks, F.max_node_displacement) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        F.kernel_fallbacks = 0


def _flow_columns_per_monomial(X):
    """The flow columns by a dict lookup per monomial and variable."""
    basis = X.basis
    exps = basis.exponents
    index = {tuple(e): i for i, e in enumerate(exps)}
    cols = np.zeros((len(exps), 10), dtype=complex)
    cols[:, 0] = basis.monomial_coefficients(X.generating.coeffs)
    cols[:, 1] = basis.monomial_coefficients(X.horizontal.coeffs)
    for src, base in ((0, 2), (1, 6)):
        for i, e in enumerate(exps):
            c = cols[i, src]
            if c == 0:
                continue
            for var in range(4):
                if e[var]:
                    lowered = list(e)
                    lowered[var] -= 1
                    cols[index[tuple(lowered)], base + var] += e[var] * c
    return cols


def test_flow_columns_match_per_monomial_loop(suite6):
    from crsphere.flow import _flow_columns
    X = small_field(suite6, 76, 1e-2, max_degree=6)
    exps, cols = _flow_columns(X)
    expect = _flow_columns_per_monomial(X)
    rows = [int(np.flatnonzero((suite6.basis.exponents == e).all(axis=1))[0]) for e in exps]
    assert np.array_equal(cols, expect[rows])
    dropped = np.setdiff1d(np.arange(len(expect)), rows)
    assert np.abs(expect[dropped]).max(initial=0.0) <= 1e-13 * np.abs(expect).max()
    assert len(rows) > 10


def test_neighbourhood_guard_raises(suite6, monkeypatch):
    # the frame coefficient stays near 1 for every admissible flow, so the
    # degeneracy bound is defensive; force it high to exercise the raise path
    import importlib
    flow_mod = importlib.import_module("crsphere.flow")
    X = small_field(suite6, 66, 3e-3)
    F = flow(X, steps=16)
    phi = DeformationTensor(suite6.basis.constant(0.5))
    monkeypatch.setattr(flow_mod, "_MIN_ABS_A", 10.0)
    with pytest.raises(NeighbourhoodError):
        pullback_deformation(F, phi)


def test_flow_norm_cap(suite6):
    g = suite6.basis.constant(20.0)
    with pytest.raises(FlowError):
        flow(contact_from_generating(suite6, g))


def test_non_finite_field_raises_before_integrating(suite6, monkeypatch):
    # a NaN field fails the norm cap as written (not norm <= cap) instead of
    # doubling to MAX_FLOW_STEPS on NaN estimates; any warning on the way
    # would fail the test too
    import importlib
    flow_mod = importlib.import_module("crsphere.flow")
    calls = []
    monkeypatch.setattr(flow_mod, "_rhs", lambda *args: calls.append(None))
    basis = suite6.basis
    X = ContactField(basis.constant(float("nan")), basis.zero())
    with pytest.raises(FlowError, match="nan"):
        flow(X)
    assert calls == []


def test_non_finite_frame_coefficient_leaves_neighbourhood(suite6):
    ident = ContactDiffeo.identity(suite6.basis)
    phi = DeformationTensor(suite6.basis.zero())
    nan = np.full(suite6.basis.grid.n_nodes, np.nan)
    with pytest.raises(NeighbourhoodError, match="nan"):
        pullback_deformation(ident, phi, composition_values=nan)


def test_zero_field_flow_builds_no_state():
    # the identity keeps read-only broadcasts and the nodes; the (8, n)
    # start state is built only by an integration
    basis = cached_basis(12)
    X = ContactField(basis.zero(), basis.zero())
    state_bytes = 8 * basis.grid.n_nodes * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        F = flow(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert F.is_identity
    assert peak < state_bytes


def test_remainder_vanishes_at_zero_field(suite6):
    rng = np.random.default_rng(67)
    phi = random_deformation(suite6.basis, rng, 5e-3)
    X0 = contact_from_generating(suite6, suite6.basis.zero())
    E = e_remainder(suite6, X0, phi, steps=8)
    assert E.l2_norm() < 1e-14


def test_linearized_action_slope_two(suite6):
    # |F_{tX}* 0 - t dbar X| = O(t^2): the log-log slope over a decade in t
    X = small_field(suite6, 68, 1.0)
    zero = DeformationTensor(suite6.basis.zero())
    errs = []
    ts = (1e-2, 1e-3, 1e-4)
    for t in ts:
        F = flow(t * X, steps=16)
        mu = pullback_deformation(F, zero)
        lin = suite6.dbar_field(X.as_hol_field()).q * t
        errs.append((mu.coefficient - lin).fs_norm(6))
    slopes = [np.log(errs[i] / errs[i + 1]) / np.log(ts[i] / ts[i + 1])
              for i in range(2)]
    for slope in slopes:
        assert abs(slope - 2.0) < 0.1


def test_truncation_mass_recorded(suite6):
    X = small_field(suite6, 69, 8e-3, max_degree=6)
    F = flow(X, steps=16)
    rng = np.random.default_rng(70)
    f = suite6.basis.random_scalar(rng)
    pulled = pullback_scalar(F, f)
    assert "truncation_mass" in pulled.meta
    assert pulled.meta["truncation_mass"] >= 0.0


@pytest.mark.parametrize("degree", [6, 8])
def test_identity_frame_maps_match_computed(degree):
    # the oracle: the frame maps of the start state computed from the forms,
    # as every moving flow computes them; the start state is the identity
    # Jacobian applied to the frame at the nodes
    basis = cached_basis(degree)
    ident = ContactDiffeo.identity(basis)
    start = _start_state(basis)
    jac = np.broadcast_to(np.eye(2, 4, dtype=complex), (basis.grid.n_nodes, 2, 4))
    assert np.array_equal(start[:2], ident.state)
    assert np.abs(start[2:] - _pushed_frame(basis, jac)).max() < 1e-12
    computed = _frame_maps(basis, start)
    assert np.abs(computed - ident.frame_maps).max() < 1e-14
    assert np.array_equal(ident.frame_maps, np.broadcast_to(np.eye(3), computed.shape))


def _evaluated(f, F):
    """The oracle of φ∘F: f evaluated over its monomials at F's images."""
    return f.eval(F.images[:, 0], F.images[:, 1])


@pytest.mark.parametrize("degree", [6, 8])
def test_identity_composition_matches_evaluation(degree):
    # the three φ∘F sites take the FFT synthesis at the identity; evaluating
    # over all monomials must give the same tensors to roundoff
    suite = cached_suite(degree)
    basis = suite.basis
    ident = ContactDiffeo.identity(basis)
    rng = np.random.default_rng(80 + degree)
    phi = random_deformation(basis, rng, 5e-3)
    scale = phi.coefficient.l2_norm()
    exact = _evaluated(phi.coefficient, ident)

    got = pullback_deformation(ident, phi).coefficient
    expect = pullback_deformation(ident, phi, composition_values=exact).coefficient
    assert (got - expect).l2_norm() < 1e-12 * scale
    assert (got - phi.coefficient).l2_norm() < 1e-12 * scale

    f = basis.random_scalar(rng)
    got = pullback_scalar(ident, f)
    assert (got - basis.project_with_mass(_evaluated(f, ident))).l2_norm() < 1e-12 * f.l2_norm()

    # E at X = 0 composes with its own (identity) flow; a moving X frozen at
    # the identity composes with the identity too
    zero = contact_from_generating(suite, basis.zero())
    X = small_field(suite, 81, 2e-3)
    for field, frozen in ((zero, None), (X, ident)):
        got = e_remainder(suite, field, phi, compose_with=frozen)
        mu = pullback_deformation(flow(field), phi, composition_values=exact)
        expect = (mu.coefficient - suite.dbar_field(field.as_hol_field()).q
                  - basis.from_values(exact))
        assert (got - expect).l2_norm() < 1e-12 * scale


def test_package_attribute_flow_is_the_module():
    # the flow function is reached as crsphere.flow.flow; the package
    # attribute must stay the module so that it can be inspected and patched
    import crsphere
    assert crsphere.flow is sys.modules["crsphere.flow"]


def test_public_names_resolve():
    import crsphere
    for name in crsphere.__all__:
        assert hasattr(crsphere, name), name
    namespace = {}
    exec("from crsphere import *", namespace)
    assert set(crsphere.__all__) <= set(namespace)
