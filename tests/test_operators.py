"""Homotopy splittings and the independently assembled operator oracles.

Independence here means quadrature + finite differences, never the spectral
derivative matrices: the Kohn Laplacian is pinned by its quadratic form
<box f, g> = (1/levi) <Zbar f, Zbar g>_{L^2} with the derivatives taken by
central differences, and the Szego projector by least squares against the
span of CR monomials assembled on the grid. The closed-form homotopy
inverses are pinned against the reference implementation they replace: a
dense SVD pseudo-inverse of every whole degree block in the metric weights,
and separately against the weighted Penrose identities.
"""

import numpy as np
import pytest
from scipy import sparse

from conftest import cached_suite
from test_basis import frame_derivative_fd

from crsphere import frame_derivative
from crsphere.basis import NonFiniteError
from crsphere.operators import FieldForm01, HolField, ScalarForm01


def test_scalar_homotopy_split(suite6):
    rng = np.random.default_rng(20)
    for _ in range(10):
        u = suite6.basis.random_scalar(rng)
        back = suite6.p_scalar(suite6.dbar_scalar(u)) + suite6.szego(u)
        assert (back - u).l2_norm() < 1e-10


def test_scalar_form_homotopy_split(suite6):
    rng = np.random.default_rng(21)
    for _ in range(10):
        alpha = suite6.flat(suite6.basis.random_scalar(rng))
        back = suite6.dbar_scalar(suite6.p_scalar(alpha)) + suite6.s_scalar(alpha)
        assert (back - alpha).a.l2_norm() < 1e-10


def test_scalar_projector_algebra(suite6):
    rng = np.random.default_rng(22)
    u = suite6.basis.random_scalar(rng)
    alpha = suite6.flat(suite6.basis.random_scalar(rng))
    # P annihilates the complement output and S annihilates exact forms
    assert suite6.p_scalar(suite6.s_scalar(alpha)).l2_norm() < 1e-10
    assert suite6.s_scalar(suite6.dbar_scalar(u)).a.l2_norm() < 1e-10
    assert suite6.dbar_scalar(suite6.szego(u)).a.l2_norm() < 1e-10


def test_field_homotopy_split(suite6):
    rng = np.random.default_rng(23)
    for _ in range(10):
        V = HolField(suite6.basis.random_scalar(rng), suite6.basis.random_scalar(rng))
        back = suite6.p_field(suite6.dbar_field(V)) + suite6.k_harm(V)
        assert (back - V).fs_norm(0) < 1e-10


def test_field_form_homotopy_split(suite6):
    rng = np.random.default_rng(24)
    for _ in range(10):
        Phi = FieldForm01(suite6.basis.random_scalar(rng), suite6.basis.random_scalar(rng))
        back = suite6.dbar_field(suite6.p_field(Phi)) + suite6.q_field(Phi)
        assert (back - Phi).fs_norm(0) < 1e-10


def test_field_projector_algebra(suite6):
    rng = np.random.default_rng(25)
    V = HolField(suite6.basis.random_scalar(rng), suite6.basis.random_scalar(rng))
    Phi = FieldForm01(suite6.basis.random_scalar(rng), suite6.basis.random_scalar(rng))
    assert suite6.p_field(suite6.q_field(Phi)).fs_norm(0) < 1e-10
    assert suite6.q_field(suite6.dbar_field(V)).fs_norm(0) < 1e-10
    assert suite6.dbar_field(suite6.k_harm(V)).fs_norm(0) < 1e-10
    assert suite6.k_harm(suite6.p_field(Phi)).fs_norm(0) < 1e-10


def test_szego_against_least_squares(suite6):
    # project onto the CR (q = 0) span assembled independently on the grid
    basis = suite6.basis
    grid = basis.grid
    z1, z2 = grid.z1, grid.z2
    cols = []
    for a1 in range(basis.degree + 1):
        for a2 in range(basis.degree + 1 - a1):
            cols.append(z1 ** a1 * z2 ** a2)
    A = np.stack(cols, axis=1)
    w = grid.weights_normalized
    gram = (A.conj().T * w) @ A
    rng = np.random.default_rng(26)
    f = basis.random_scalar(rng)
    fv = f.values()
    coeffs = np.linalg.solve(gram, (A.conj().T * w) @ fv)
    expect = A @ coeffs
    got = suite6.szego(f).values()
    assert np.max(np.abs(got - expect)) < 1e-9


def test_szego_is_orthogonal_projection(suite6):
    rng = np.random.default_rng(27)
    f = suite6.basis.random_scalar(rng)
    g = suite6.basis.random_scalar(rng)
    sf = suite6.szego(f)
    assert (suite6.szego(sf) - sf).l2_norm() < 1e-12
    lhs = np.vdot(sf.coeffs, g.coeffs)
    rhs = np.vdot(f.coeffs, suite6.szego(g).coeffs)
    assert abs(lhs - rhs) < 1e-12


def test_box_quadratic_form_fd_oracle(suite6):
    basis = suite6.basis
    rng = np.random.default_rng(28)
    w = basis.grid.weights_normalized
    z1, z2 = basis.grid.z1, basis.grid.z2
    inv_levi = 1.0 / float(basis.geometry.levi)
    for _ in range(3):
        f = basis.random_scalar(rng, max_degree=3)
        g = basis.random_scalar(rng, max_degree=3)
        lhs = np.vdot(g.coeffs, suite6.box_b(f).coeffs)
        zbf = frame_derivative_fd(basis, f, "Zb", z1, z2)
        zbg = frame_derivative_fd(basis, g, "Zb", z1, z2)
        rhs = inv_levi * np.sum(w * np.conj(zbg) * zbf)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-5


def test_box_kernel_is_cr_space(suite6):
    # ker box = CR functions; dimension (N+1)(N+2)/2 = 28 at N=6
    basis = suite6.basis
    mat = np.empty((basis.size, basis.size), dtype=complex)
    for j in range(basis.size):
        e = np.zeros(basis.size)
        e[j] = 1.0
        mat[:, j] = suite6.box_b(basis.scalar(e)).coeffs
    assert np.max(np.abs(mat.imag)) < 1e-12
    assert np.max(np.abs(mat - mat.T)) < 1e-12
    eigvals = np.linalg.eigvalsh(mat.real)
    null_dim = int(np.sum(np.abs(eigvals) < 1e-10))
    assert null_dim == 28
    assert np.min(eigvals) > -1e-12


def test_pi_re_solver_solves_its_system(suite6):
    rng = np.random.default_rng(29)
    rhs = suite6.basis.random_scalar(rng).real_part()
    u = suite6.pi_re_solve(rhs)
    back = u + 0.25 * suite6.delta_Q(u)
    assert (back - rhs).l2_norm() < 1e-9
    assert u.is_real(1e-10)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pi_re_solve_rejects_non_finite(suite6, value):
    # the diagonal is at least 1, so a finite right-hand side is the whole guard
    with pytest.raises(NonFiniteError):
        suite6.pi_re_solve(suite6.basis.constant(value))


def test_combined_homotopy_on_h_valued_forms(suite6):
    rng = np.random.default_rng(30)
    from crsphere.fields import complex_contact
    for _ in range(10):
        Phi = FieldForm01(suite6.basis.zero(), suite6.basis.random_scalar(rng))
        param = suite6.combined_p_param(Phi)
        Zc = complex_contact(suite6, param)
        back = suite6.dbar_field(Zc.as_hol_field()) + suite6.combined_q(Phi)
        assert (back - Phi).fs_norm(0) < 1e-10
        # the residue term stays H-valued and harmonic-parameter-free
        q_part = suite6.combined_q(Phi)
        assert q_part.h_valued_defect() < 1e-10
        assert suite6.combined_p_param(q_part).l2_norm() < 1e-10


def test_combined_homotopy_algebra(suite6):
    rng = np.random.default_rng(31)
    from crsphere.fields import complex_contact
    Zc = complex_contact(suite6, suite6.basis.random_scalar(rng))
    exact = suite6.dbar_field(Zc.as_hol_field())
    assert suite6.combined_q(exact).fs_norm(0) < 1e-10
    recon = suite6.combined_p_param(exact) + suite6.k_harm(Zc.as_hol_field()).f
    assert (recon - Zc.parameter).l2_norm() < 1e-10


@pytest.mark.parametrize("degree", [4, 6, 8, 12])
def test_k_harm_on_contact_fields_is_slot_mask(degree):
    # the general K = I - PB on Z_f is Z_{Mf}, M = diag(q <= 1)
    from crsphere.fields import complex_contact
    suite = cached_suite(degree)
    basis = suite.basis
    mask = suite.harmonic_mask
    rng = np.random.default_rng([32, degree])
    for _ in range(3):
        f = basis.random_scalar(rng)
        got = suite.k_harm(complex_contact(suite, f).as_hol_field())
        expect = complex_contact(suite, basis.scalar(mask * f.coeffs))
        assert (got.f - expect.parameter).l2_norm() <= 1e-12 * f.l2_norm()
        assert (got.h - expect.horizontal).l2_norm() <= 1e-12 * f.l2_norm()
    k_on_param = (suite.k_harm_matrix @ suite.z_pack_matrix)[:basis.size].toarray()
    assert np.abs(k_on_param - np.diag(mask)).max() <= 1e-13


def _dense_blockwise_pinv(mat, blocks, dom_weight, cod_weight):
    """Weighted pseudo-inverse of ``mat``, one dense block at a time."""
    out = np.zeros(mat.shape[::-1], dtype=mat.dtype)
    sd, sc = np.sqrt(dom_weight), np.sqrt(cod_weight)
    for idx in blocks:
        weighted = sc[idx, None] * mat[np.ix_(idx, idx)] / sd[None, idx]
        pinv = np.linalg.pinv(weighted, rcond=1e-9)
        out[np.ix_(idx, idx)] = (pinv / sd[idx, None]) * sc[None, idx]
    return out


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_operators_match_dense_degree_block_assembly(degree):
    suite = cached_suite(degree)
    basis = suite.basis
    nb = basis.size
    levi = float(basis.geometry.levi)
    eye, eye2, zero = np.eye(nb), np.eye(2 * nb), np.zeros((nb, nb))
    dzb = np.column_stack([frame_derivative(basis.scalar(e), ["Zb"]).coeffs for e in eye])
    blocks = [np.nonzero(basis.degrees == d)[0] for d in range(basis.degree + 1)]

    p_sc = _dense_blockwise_pinv(dzb, blocks, np.ones(nb), np.ones(nb))
    b_vec = np.block([[dzb, 1j * levi * eye], [zero, dzb]])
    p_vec = _dense_blockwise_pinv(
        b_vec, [np.concatenate([idx, nb + idx]) for idx in blocks],
        np.concatenate([np.ones(nb), np.full(nb, levi)]),
        np.concatenate([np.full(nb, 1.0 / levi), np.ones(nb)]))
    q_vec = eye2 - b_vec @ p_vec
    k_harm = eye2 - p_vec @ b_vec
    z_pack = np.vstack([eye, 2j * dzb])
    phat_param = np.hstack([np.diag((basis.bidegree_q == 0).astype(float)), -1j * levi * p_sc])
    combined_p = (eye - (k_harm @ z_pack)[:nb]) @ phat_param @ p_vec
    combined_q = eye2 - b_vec @ z_pack @ combined_p

    def form(v):
        return FieldForm01(basis.scalar(v[:nb]), basis.scalar(v[nb:]))

    def field(v):
        return HolField(basis.scalar(v[:nb]), basis.scalar(v[nb:]))

    def packed(x):
        a, b = (x.f, x.h) if isinstance(x, HolField) else (x.p, x.q)
        return np.concatenate([a.coeffs, b.coeffs])

    def columns(apply, n):
        return np.column_stack([apply(e) for e in np.eye(n)])

    n2 = 2 * nb
    cases = {
        "p_scalar": (p_sc, columns(lambda e: suite.p_scalar(ScalarForm01(basis.scalar(e))).coeffs, nb)),
        "p_field": (p_vec, columns(lambda e: packed(suite.p_field(form(e))), n2)),
        "q_field": (q_vec, columns(lambda e: packed(suite.q_field(form(e))), n2)),
        "k_harm": (k_harm, columns(lambda e: packed(suite.k_harm(field(e))), n2)),
        "combined_p_param": (combined_p, columns(lambda e: suite.combined_p_param(form(e)).coeffs, n2)),
        "combined_q": (combined_q, columns(lambda e: packed(suite.combined_q(form(e))), n2)),
    }
    for name, (dense, got) in cases.items():
        assert got.shape == dense.shape, name
        assert np.max(np.abs(got - dense)) < 1e-12, name


@pytest.mark.parametrize("degree", [4, 8, 12])
def test_field_pinv_weighted_penrose_identities(degree):
    suite = cached_suite(degree)
    basis = suite.basis
    nb, levi = basis.size, suite.levi
    B, P = suite.b_vec_matrix, suite.p_vec_matrix
    dom = sparse.diags_array(np.concatenate([np.ones(nb), np.full(nb, levi)]))
    cod = sparse.diags_array(np.concatenate([np.full(nb, 1.0 / levi), np.ones(nb)]))

    def largest(mat):
        return abs(mat).max()

    assert largest(B @ P @ B - B) <= 1e-13
    assert largest(P @ B @ P - P) <= 1e-13
    # BP and PB are self-adjoint in the codomain and domain weights
    assert largest(cod @ B @ P - (cod @ B @ P).conj().T) <= 1e-13
    assert largest(dom @ P @ B - (dom @ P @ B).conj().T) <= 1e-13
    # the closed forms store one entry per ladder entry and at most four per slot
    assert suite.p_sc_matrix.nnz == basis.frame_zbar_matrix.nnz
    assert suite.p_vec_matrix.nnz <= 4 * nb
