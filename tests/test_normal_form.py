"""The normal-form iteration: recovery, contraction, slice, harness."""

import numpy as np
import pytest

from conftest import cached_suite
from crsphere.fields import complex_contact_norm, contact_from_generating
from crsphere.flow import (FLOW_NORM_CAP, DeformationTensor, NeighbourhoodError, flow,
                           pullback_deformation)
from crsphere import _core, normal_form as nf


def test_zero_deformation_gives_zero_normal_form(suite6):
    phi = DeformationTensor(suite6.basis.zero())
    result = nf.solve(suite6, phi, steps=8)
    assert result.converged
    assert result.iterations == 1
    assert result.x.fs_norm(6) == 0.0
    assert result.y.fs_norm(6) == 0.0
    assert result.psi.fs_norm(6) == 0.0


def test_prefab_recovery(suite8):
    rng = np.random.default_rng(80)
    inst = nf.prefab_normal_form(suite8, rng, target=5e-3)
    result = nf.solve(suite8, inst.phi, steps=16)
    assert result.converged
    assert result.iterations <= 3
    assert result.defining_residual() < 1e-12
    y_err = complex_contact_norm(result.y.parameter - inst.y0, 6)
    psi_err = (result.psi.coefficient - inst.psi0).fs_norm(6)
    assert y_err / complex_contact_norm(inst.y0, 6) < 1e-9
    assert psi_err / inst.psi0.fs_norm(6) < 1e-9
    assert result.x.fs_norm(6) < 1e-9


def test_pullback_of_zero_recovery(suite8):
    rng = np.random.default_rng(81)
    inst = nf.pullback_of_zero(suite8, rng, target=2e-3, steps=16)
    result = nf.solve(suite8, inst.phi, steps=16)
    assert result.converged
    assert result.y.fs_norm(6) + result.psi.fs_norm(6) < 1e-9
    x_err = (result.x.generating + inst.x0.generating).l2_norm()
    assert x_err / inst.x0.generating.l2_norm() < 1e-9


def test_pullback_of_zero_evaluates_no_polynomial(suite6, monkeypatch):
    # φ = 0, so φ∘F is skipped; the flow evaluates its field through
    # _core.eval_poly directly, not through Basis.eval_columns
    calls = []
    eval_columns = type(suite6.basis).eval_columns

    def counted(self, *args):
        calls.append(args)
        return eval_columns(self, *args)

    monkeypatch.setattr(type(suite6.basis), "eval_columns", counted)
    inst = nf.pullback_of_zero(suite6, np.random.default_rng(82), target=2e-3)
    assert calls == []
    assert inst.phi.fs_norm(6) > 0


KERNELS = ("eval_poly", "eval_bilinear")


def test_prefab_solve_evaluates_no_polynomial(suite6, monkeypatch):
    # the exact answer has X = 0, so every flow is the identity and every
    # φ∘F is an FFT synthesis
    def refuse(*args):
        raise AssertionError("a prefab solve evaluated a polynomial")

    for name in KERNELS:
        monkeypatch.setattr(_core, name, refuse)
    inst = nf.prefab_normal_form(suite6, np.random.default_rng(83))
    result = nf.solve(suite6, inst.phi)
    assert result.converged and result.iterations >= 2


def test_random_solve_first_iteration_evaluates_no_polynomial(suite8, monkeypatch):
    # iteration 0 runs at X = 0, the identity; the later ones flow a tiny
    # field, whose right-hand sides and φ∘F are sums of Taylor tables at the
    # nodes, so no iteration of the whole solve calls a point kernel (at
    # N = 8, where the solver's random fields pass the near-node bound)
    def refuse(*args):
        raise AssertionError("a random solve called a point kernel")

    for name in KERNELS:
        monkeypatch.setattr(_core, name, refuse)
    phi = nf.random_deformation(suite8.basis, np.random.default_rng(84), 5e-3)
    first = nf.solve(suite8, phi, max_iter=0, require_convergence=False)
    assert len(first.history) == 1
    result = nf.solve(suite8, phi)
    assert result.converged and result.iterations >= 2
    assert [row["kernel_fallbacks"] for row in result.history] == [0] * result.iterations
    assert result.max_kernel_fallbacks() == 0
    assert result.max_node_displacement() > 0.0


def test_random_solve_at_n6_counts_its_fallbacks(suite6):
    # the solver's random fields at N = 6 move nodes past the near-node bound,
    # so their flows take the point kernel and say so in every moving row
    phi = nf.random_deformation(suite6.basis, np.random.default_rng(84), 2e-3)
    result = nf.solve(suite6, phi)
    assert result.converged and result.iterations >= 2
    fallbacks = [row["kernel_fallbacks"] for row in result.history]
    assert fallbacks[0] == 0 and min(fallbacks[1:]) >= 7
    assert result.max_kernel_fallbacks() == max(fallbacks)


def test_history_carries_each_iterations_flow(suite6):
    # iteration 0 flows X = 0, the identity; the flow columns of the history
    # add up to the solve's totals and maxima
    phi = nf.random_deformation(suite6.basis, np.random.default_rng(86), 5e-3)
    result = nf.solve(suite6, phi)
    first = result.history[0]
    assert (first["flow_rhs_evals"], first["flow_error_estimate"], first["contact_ratio"],
            first["kernel_fallbacks"], first["max_node_displacement"]) == (0, 0.0, 0.0, 0, 0.0)
    assert result.iterations > 1
    assert sum(row["flow_rhs_evals"] for row in result.history) == result.flow_rhs_evals > 0
    assert max(row["flow_error_estimate"] for row in result.history) \
        == result.max_flow_error_estimate
    assert 0.0 < result.max_contact_ratio() == max(row["contact_ratio"] for row in result.history)


def test_history_carries_each_iterations_guard_margins(suite6):
    # the neighbourhood guards report the values they checked: the flow
    # field's order-6 norm (cap 8), min |A| (limit 0.1) and sup |F*phi|
    # (limit 1); iteration 0 pulls back by the identity, so A = 1 there
    phi = nf.random_deformation(suite6.basis, np.random.default_rng(86), 5e-3)
    result = nf.solve(suite6, phi)
    history = result.history
    assert (history[0]["field_norm"], history[0]["min_abs_a"]) == (0.0, 1.0)
    assert abs(history[0]["sup_phi"] - phi.sup) < 1e-12
    for row in history[1:]:
        assert 0.0 < row["field_norm"] <= FLOW_NORM_CAP
        assert 0.1 <= row["min_abs_a"] < 1.0 and 0.0 < row["sup_phi"] < 1.0
    # the last row flows the returned X
    assert history[-1]["field_norm"] == pytest.approx(result.x.fs_norm(6), rel=1e-14)


def test_solver_certificates(suite8):
    rng = np.random.default_rng(82)
    phi = nf.random_deformation(suite8.basis, rng, 2e-3)
    result = nf.solve(suite8, phi, steps=16)
    assert result.converged
    assert result.defining_residual() < 1e-10
    assert result.gauge_residual() < 1e-10
    assert result.harmonicity() < 1e-10
    assert result.y.certificate < 1e-10
    fresh = result.verify(steps=16)
    assert fresh["defining"] < 1e-9


def test_linear_solution_matches_small_limit(suite6):
    rng = np.random.default_rng(83)
    phi = nf.random_deformation(suite6.basis, rng, 1e-6)
    x_lin, y_lin, psi_lin = nf.linear_solution(suite6, phi)
    result = nf.solve(suite6, phi, steps=8)
    # the nonlinear correction is quadratic in the size of phi
    assert (result.x.generating - x_lin).l2_norm() < 1e-9
    assert (result.y.parameter - y_lin).l2_norm() < 1e-9
    assert (result.psi.coefficient - psi_lin).l2_norm() < 1e-9


def test_solution_is_a_normal_form(suite8):
    # recompute F_X* phi - i dbar Y - psi from scratch and check harmonicity
    rng = np.random.default_rng(84)
    phi = nf.random_deformation(suite8.basis, rng, 3e-3)
    result = nf.solve(suite8, phi, steps=16)
    X = result.x
    F = flow(X, steps=16)
    mu = pullback_deformation(F, phi)
    from crsphere.fields import complex_contact
    dby = suite8.dbar_field(complex_contact(suite8, result.y.parameter).as_hol_field())
    gap = mu.coefficient - 1j * dby.q - result.psi.coefficient
    assert gap.fs_norm(6) < 1e-9


def test_convergence_error_carries_history(suite6):
    rng = np.random.default_rng(85)
    phi = nf.random_deformation(suite6.basis, rng, 5e-3)
    with pytest.raises(nf.ConvergenceError) as err:
        nf.solve(suite6, phi, tol=1e-15, max_iter=1, steps=8)
    assert len(err.value.history) == 2
    assert err.value.history[0]["chi_norm"] > err.value.history[1]["chi_norm"]


def test_eps_guard(suite6):
    phi = DeformationTensor(suite6.basis.constant(0.5))
    with pytest.raises(NeighbourhoodError):
        nf.solve(suite6, phi, eps=1e-2)


def test_contraction_ratios(suite6):
    rng = np.random.default_rng(86)
    phi = nf.random_deformation(suite6.basis, rng, 2e-3)
    g = suite6.basis.random_scalar(rng, max_degree=4).real_part()
    x0 = contact_from_generating(suite6, g * (2e-3 / complex_contact_norm(g, 6)))
    from crsphere.fields import complex_contact
    w_raw = suite6.basis.random_scalar(rng, max_degree=4)
    w_field = complex_contact(suite6, w_raw * (1e-3 / complex_contact_norm(w_raw, 6)))
    result = nf.contraction_t(suite6, phi, x0, w_field, steps=8)
    assert result.converged
    assert all(r < 0.5 for r in result.ratios)
    assert result.z_norm <= 2.0 * result.w_norm + 1e-9


def test_contraction_zero_input(suite6):
    rng = np.random.default_rng(87)
    phi = nf.random_deformation(suite6.basis, rng, 1e-3)
    x0 = contact_from_generating(suite6, suite6.basis.zero())
    from crsphere.fields import complex_contact
    w = complex_contact(suite6, suite6.basis.zero())
    result = nf.contraction_t(suite6, phi, x0, w, steps=8)
    assert result.z_norm < 1e-12


def test_slice_invariance(suite8):
    rng = np.random.default_rng(88)
    inst = nf.prefab_normal_form(suite8, rng, target=1e-3, max_degree=4)
    cols = nf.harmonic_free_basis(suite8)
    a = suite8.basis.scalar(cols @ rng.standard_normal(cols.shape[1]))
    a = a.real_part() * (2e-4 / complex_contact_norm(a, 6))
    G = flow(contact_from_generating(suite8, a), steps=16)
    report = nf.slice_check(suite8, inst.phi, G, steps=16)
    assert report.y_rel < 1e-6
    assert report.psi_rel < 1e-6


def test_harmonic_free_basis_structure(suite6):
    cols = nf.harmonic_free_basis(suite6, max_degree=4)
    assert cols.shape[1] == 5
    with pytest.raises(ValueError):
        nf.harmonic_free_basis(suite6, max_degree=3)


def harmonic_free_basis_svd(suite, max_degree=4):
    """Real generating functions of degree <= max_degree killed by the general
    k_harm, as the nullspace of the stacked real and imaginary parts of
    K(Z_g) over an orthonormal real basis, by SVD (the oracle for the slot
    construction)."""
    from crsphere.fields import complex_contact
    basis = suite.basis
    nb = basis.size
    cols = []
    for i, j in enumerate(basis.conj_index.tolist()):
        if basis.degrees[i] > max_degree or j < i:
            continue
        e_i, e_j = np.zeros(nb, dtype=complex), np.zeros(nb, dtype=complex)
        e_i[i], e_j[j] = 1.0, 1.0
        cols += [e_i] if i == j else [(e_i + e_j) / np.sqrt(2.0), 1j * (e_i - e_j) / np.sqrt(2.0)]
    sub = np.array(cols).T
    defect = np.empty((2 * nb, sub.shape[1]), dtype=complex)
    for j in range(sub.shape[1]):
        harm = suite.k_harm(complex_contact(suite, basis.scalar(sub[:, j])).as_hol_field())
        defect[:, j] = np.concatenate([harm.f.coeffs, harm.h.coeffs])
    _, sv, vt = np.linalg.svd(np.vstack([defect.real, defect.imag]))
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
    return sub @ vt[rank:].T


@pytest.mark.parametrize("degree", [6, 8])
def test_harmonic_free_basis_matches_svd_nullspace(degree):
    from crsphere.fields import complex_contact
    suite = cached_suite(degree)
    cols = nf.harmonic_free_basis(suite)
    oracle = harmonic_free_basis_svd(suite)
    assert cols.shape == oracle.shape
    span_gap = np.abs(cols @ cols.conj().T - oracle @ oracle.conj().T).max()
    assert span_gap <= 1e-12
    assert np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max() <= 1e-12
    for col in cols.T:
        g = suite.basis.scalar(col)
        assert g.is_real()
        assert suite.k_harm(complex_contact(suite, g).as_hol_field()).fs_norm(0) <= 1e-12


def test_v_gauge_parameter_certificates(suite6):
    from crsphere.fields import complex_contact
    rng = np.random.default_rng(89)
    y = nf.v_gauge_parameter(suite6, suite6.basis.random_scalar(rng))
    harm = suite6.k_harm(complex_contact(suite6, y).as_hol_field()).f.l2_norm()
    v_defect = suite6.pi_re_solve((1j * y + suite6.box_b(1j * y)).real_part()).l2_norm()
    scale = max(1.0, y.l2_norm())
    assert harm < 1e-12 * scale
    assert v_defect < 1e-12 * scale


def v_gauge_parameter_two_harmonic_solves(suite, raw, rounds=40, tol=1e-13):
    """The gauge projection by alternating the general k_harm and the V
    projection until both certificates are below tol (the oracle for the
    one-step slot projection)."""
    from crsphere.fields import complex_contact
    y = raw
    scale = max(1.0, raw.l2_norm())
    for _ in range(rounds):
        y = y - suite.k_harm(complex_contact(suite, y).as_hol_field()).f
        u = suite.pi_re_solve((1j * y + suite.box_b(1j * y)).real_part())
        y = y + 1j * u
        harm_cert = suite.k_harm(complex_contact(suite, y).as_hol_field()).f.l2_norm()
        v_cert = suite.pi_re_solve((1j * y + suite.box_b(1j * y)).real_part()).l2_norm()
        if harm_cert < tol * scale and v_cert < tol * scale:
            return y
    raise ArithmeticError("gauge projection stalled")


def test_v_gauge_parameter_matches_two_solve_loop(suite6, suite8):
    for suite in (suite6, suite8):
        basis = suite.basis
        # the harmonic slots and their conjugates are zero exactly, where the
        # loop leaves roundoff
        harmonic = np.minimum(basis.bidegree_p, basis.bidegree_q) <= 1
        for seed in range(4):
            raw = basis.random_scalar(np.random.default_rng(seed))
            got = nf.v_gauge_parameter(suite, raw).coeffs
            assert np.all(got[harmonic] == 0), (basis.degree, seed)
            expect = v_gauge_parameter_two_harmonic_solves(suite, raw).coeffs
            gap = np.linalg.norm(got - expect)
            assert gap <= 1e-12 * max(1.0, raw.l2_norm()), (basis.degree, seed)


def test_random_deformation_targets_norm(suite6):
    rng = np.random.default_rng(90)
    phi = nf.random_deformation(suite6.basis, rng, 7e-3, order=6)
    assert abs(phi.fs_norm(6) - 7e-3) < 1e-12
    degs = suite6.basis.degrees[np.abs(phi.coefficient.coeffs) > 0]
    assert degs.max() <= suite6.basis.degree - 2


def test_estimate_harness_rows(suite6):
    rows = nf.estimate_harness(suite6, seeds=[0, 1], s_values=(1, 2), steps=8)
    assert len(rows) == 4
    for row in rows:
        for key in nf.HARNESS_COLUMNS:
            assert key in row
            value = row[key]
            assert np.isfinite(value)
        for key in nf.HARNESS_COLUMNS[3:]:
            assert row[key] >= 0.0


def test_harness_summary_shape(suite6):
    rows = nf.estimate_harness(suite6, seeds=[0], s_values=(1,), steps=8)
    summary = nf.harness_summary(rows)
    assert 1 in summary
    assert "ratio_product" in summary[1]
    assert summary[1]["ratio_product"]["max"] >= summary[1]["ratio_product"]["median"]
