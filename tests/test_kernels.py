"""Polynomial evaluation kernels against a direct monomial sum."""

import tracemalloc

import numpy as np
import pytest

import crsphere
from conftest import cached_basis
from crsphere import _core


def random_case(rng, n, m, k, max_degree):
    w = rng.standard_normal((n, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    z1, z2 = w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]
    exps = rng.integers(0, max_degree + 1, size=(m, 4))
    cc = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return z1, z2, exps, cc


def off_sphere_case(rng):
    # nothing in the contract requires |z| = 1
    z1 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    z2 = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    exps = rng.integers(0, 6, size=(40, 4))
    cc = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    return z1, z2, exps, cc


def direct_sum(z1, z2, exps, cc):
    """sum_m z1^a1 z2^a2 conj(z1)^b1 conj(z2)^b2 C[m], with ``**`` powers."""
    out = np.zeros((z1.shape[0], cc.shape[1]), dtype=complex)
    for (a1, a2, b1, b2), row in zip(exps.tolist(), cc):
        mono = z1 ** a1 * z2 ** a2 * np.conj(z1) ** b1 * np.conj(z2) ** b2
        out += mono[:, None] * row
    return out


CASES = [
    pytest.param(lambda: random_case(np.random.default_rng(13), 11, 9, 4, 5),
                 1e-12, False, id="small"),
    pytest.param(lambda: random_case(np.random.default_rng(1001), 1, 1, 1, 0),
                 1e-11, False, id="constant"),
    # one and a half blocks, so a full block and a partial one
    pytest.param(lambda: random_case(np.random.default_rng(3000200), 3 * _core._BLOCK // 2,
                                     200, 5, 12),
                 1e-11, False, id="crosses-block"),
    pytest.param(lambda: off_sphere_case(np.random.default_rng(12)),
                 1e-12, True, id="off-sphere"),
    # the flow right-hand side's width, with repeated exponent rows
    pytest.param(lambda: random_case(np.random.default_rng(10), 40, 60, 10, 3),
                 1e-12, False, id="ten-columns"),
]


def check_against_direct_sum(kernel, case, tol, relative):
    z1, z2, exps, cc = case()
    got = kernel(z1, z2, exps, cc)
    expect = direct_sum(z1, z2, exps, cc)
    assert got.shape == expect.shape
    scale = max(1.0, np.max(np.abs(expect))) if relative else 1.0
    assert np.max(np.abs(got - expect)) / scale < tol


@pytest.mark.parametrize("case,tol,relative", CASES)
def test_numpy_kernel_against_direct_sum(case, tol, relative):
    check_against_direct_sum(_core.eval_poly, case, tol, relative)


@pytest.mark.parametrize("case,tol,relative", CASES)
def test_bilinear_kernel_against_direct_sum(case, tol, relative):
    check_against_direct_sum(_core.eval_bilinear, case, tol, relative)


def test_eval_columns_matches_design_route():
    # the whole N = 12 basis, three columns, at points off the grid nodes:
    # the bilinear form against the monomial design on the same coefficients
    basis = cached_basis(12)
    rng = np.random.default_rng(1212)
    w = rng.standard_normal((500, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    z1, z2 = w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]
    c = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
    got = basis.eval_columns(z1, z2, c)
    expect = _core.eval_poly(z1, z2, basis.exponents, basis.coeffs @ c)
    assert np.max(np.abs(got - expect)) / np.max(np.abs(expect)) < 1e-12


def test_eval_columns_memory_peak():
    # one column at N = 12 on the grid nodes; the bound is below a monomial
    # design of one 256-point block (1820 rows, 7.5 MB) and below a complex
    # copy of Basis.coeffs (23.8 MB)
    basis = cached_basis(12)
    c = np.random.default_rng(7).standard_normal((basis.size, 1)) + 0j
    z1, z2 = basis.grid.z1, basis.grid.z2
    tracemalloc.start()
    try:
        basis.eval_columns(z1, z2, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_kernel_implementation_is_numpy():
    assert crsphere.kernel_implementation == "numpy"


# -- near-node evaluation: Taylor tables at the grid nodes


@pytest.mark.parametrize("degree", [6, 8, 12])
def test_node_values_match_point_kernel(degree):
    # the radial scatter and one batched inverse FFT give the node values of
    # monomial columns; the point kernel at the nodes and the basis synthesis
    # of the same coefficients are the oracles
    basis = cached_basis(degree)
    rng = np.random.default_rng(900 + degree)
    c = rng.standard_normal((basis.size, 3)) + 1j * rng.standard_normal((basis.size, 3))
    columns = basis.monomial_coefficients(c)
    got = basis.node_tables().values(columns)
    expect = _core.eval_poly(basis.grid.z1, basis.grid.z2, basis.exponents, columns).T
    scale = np.abs(expect).max()
    assert np.abs(got - expect).max() < 1e-12 * scale
    assert np.abs(got[0] - basis.synthesize(c[:, 0])).max() < 1e-12 * scale


def test_multi_indices_order():
    multi = _core.multi_indices(2)
    assert len(multi) == 15 and multi[:5].tolist() == [[0] * 4] + np.eye(4, dtype=int).tolist()
    assert np.array_equal(_core.multi_indices(1), multi[:5])
    assert (np.diff(multi.sum(axis=1)) >= 0).all()


@pytest.mark.parametrize("degree", [6, 8])
def test_taylor_table_at_displaced_nodes(degree):
    # Σ_β T_β(x) δ^β against the point kernel at x + δ, for nodes displaced by
    # 1e-8 to 1e-4 and orders 0 to 3: the error never exceeds the certified
    # bound (plus the roundoff of the two sums), and wherever the bound passes
    # the φ∘F criterion of the flows it is within 1e-12 relative
    from crsphere.flow import NEAR_NODE_TOL
    basis = cached_basis(degree)
    tables = basis.node_tables()
    rng = np.random.default_rng(910 + degree)
    f = basis.random_scalar(rng, max_degree=degree - 2)
    column = basis.monomial_coefficients(f.coeffs)[:, None]
    n = basis.grid.n_nodes
    passed = truncated = 0
    for size in (1e-8, 1e-6, 1e-4):
        d1, d2 = size * np.exp(2j * np.pi * rng.random((2, n))) * rng.random((2, n))
        rho = max(np.abs(d1).max(), np.abs(d2).max())
        z1, z2 = basis.grid.z1 + d1, basis.grid.z2 + d2
        exact = _core.eval_poly(z1, z2, basis.exponents, column)[:, 0]
        scale = np.abs(exact).max()
        for order in range(4):
            powers = _core.displacement_powers(d1, d2, order)
            err = np.abs(_core.taylor_sum(tables.taylor(column, order), powers)[0] - exact).max()
            weights = _core.truncation_weights(basis.exponents, column, order)
            bound = _core.truncation_bound(weights, rho, order, degree)[0]
            assert err <= bound + 1e-13 * scale
            if bound <= NEAR_NODE_TOL * np.abs(f.values()).max():
                passed += 1
                assert err <= 1e-12 * scale
            truncated += err > 1e-10 * scale
    assert passed >= 4 and truncated >= 4
