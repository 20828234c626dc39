"""Polynomial evaluation kernel against a direct monomial sum."""

import numpy as np
import pytest

import crsphere
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


@pytest.mark.parametrize("case,tol,relative", [
    pytest.param(lambda: random_case(np.random.default_rng(13), 11, 9, 4, 5),
                 1e-12, False, id="small"),
    pytest.param(lambda: random_case(np.random.default_rng(1001), 1, 1, 1, 0),
                 1e-11, False, id="constant"),
    # 3000 points: two blocks of _core._BLOCK = 2048
    pytest.param(lambda: random_case(np.random.default_rng(3000200), 3000, 200, 5, 12),
                 1e-11, False, id="crosses-block"),
    pytest.param(lambda: off_sphere_case(np.random.default_rng(12)),
                 1e-12, True, id="off-sphere"),
])
def test_numpy_kernel_against_direct_sum(case, tol, relative):
    z1, z2, exps, cc = case()
    got = _core.eval_poly(z1, z2, exps, cc)
    expect = direct_sum(z1, z2, exps, cc)
    assert got.shape == expect.shape
    scale = max(1.0, np.max(np.abs(expect))) if relative else 1.0
    assert np.max(np.abs(got - expect)) / scale < tol


def test_kernel_implementation_is_numpy():
    assert crsphere.kernel_implementation == "numpy"
