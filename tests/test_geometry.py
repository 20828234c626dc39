"""Frame normalizations, pointwise form/frame formulas, quadrature moments.

The oracle values here are frozen by hand before anything is compared:
the two Reeb conditions force eta = Im(zbar.dz)/2 and T = 2i(z.d/dz - c.c.),
which makes the Levi constant 1/2 and [T, Z] = -4i Z, and the sphere moment
of a monomial is a1! a2! / (a1+a2+1)! when the holomorphic and antiholomorphic
exponents match and zero otherwise.
"""

from fractions import Fraction

import numpy as np

from crsphere.geometry import QuadratureGrid, ReferenceGeometry, monomial_moment

GEOM = ReferenceGeometry.derive()


def random_sphere_points(rng, n):
    w = rng.standard_normal((n, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]


def test_derived_scales_frozen():
    assert GEOM.eta_scale == Fraction(1, 2)
    assert GEOM.kappa == Fraction(2)
    assert GEOM.levi == Fraction(1, 2)


# The frame fields are linear on C^2: in x = (z1, z2, zbar1, zbar2) each is
# V(x) = A x, a 4x4 matrix A of Gaussian integers whose row j is the d/dx_j
# component. Then [V, W] = (B A - A B) x, and eta_raw(V) and d eta_raw(V, W)
# are quadratic forms x^T M x. A homogeneous quadratic is a constant c on S^3
# exactly when it equals c |z|^2 = c (x0 x2 + x1 x3) identically, so every
# sphere identity below compares matrices of small Gaussian integers, whose
# floating-point products and sums are exact.
FRAME_Z = np.zeros((4, 4), dtype=complex)
FRAME_Z[0, 3], FRAME_Z[1, 2] = 1, -1  # conj(z2) d/dz1 - conj(z1) d/dz2
FRAME_ZBAR = np.zeros((4, 4), dtype=complex)
FRAME_ZBAR[2, 1], FRAME_ZBAR[3, 0] = 1, -1  # z2 d/dzbar1 - z1 d/dzbar2
FRAME_T_UNSCALED = 1j * np.diag([1, 1, -1, -1])  # T / kappa
_EYE2, _ZERO2 = np.eye(2), np.zeros((2, 2))
SQUARE_NORM = np.block([[_ZERO2, _EYE2], [_EYE2, _ZERO2]])  # 2 x (|z|^2 form)
WEDGE = np.block([[_ZERO2, _EYE2], [-_EYE2, _ZERO2]])  # sum_j dz_j ^ dzbar_j


def sphere_constant(m):
    """The Gaussian integer c with x^T m x = c |z|^2; fails if there is none."""
    sym = m + m.T
    c = sym[0, 2]
    assert np.array_equal(sym, c * SQUARE_NORM)
    assert c == complex(int(c.real), int(c.imag))
    return c


def d_eta_raw(a, b):
    # d Im(zbar . dz) = i sum_j dz_j ^ dzbar_j, so d eta_raw(V, W) = i (A x)^T WEDGE (B x)
    return sphere_constant(1j * a.T @ WEDGE @ b)


def bracket(a, b):
    return b @ a - a @ b


def test_geometry_oracle_by_linear_algebra():
    # d eta(Z, Zbar) = i/2 fixes eta_scale
    pairing = d_eta_raw(FRAME_Z, FRAME_ZBAR)
    assert pairing.real == 0
    eta_scale = Fraction(1, 2) / int(pairing.imag)
    # 2i eta_raw(V) = zbar . V_z - z . V_zbar = -x^T WEDGE (A x); eta(T) = 1 fixes kappa
    two_i_eta_t = sphere_constant(-WEDGE @ FRAME_T_UNSCALED)
    assert two_i_eta_t.real == 0
    kappa = 1 / (eta_scale * Fraction(int(two_i_eta_t.imag), 2))
    # Reeb condition T -| d eta = 0 on both legs (kappa and eta_scale factor out)
    assert d_eta_raw(FRAME_T_UNSCALED, FRAME_Z) == 0
    assert d_eta_raw(FRAME_T_UNSCALED, FRAME_ZBAR) == 0
    levi = eta_scale * int(pairing.imag)  # -i d eta(Z, Zbar)
    assert (eta_scale, kappa, levi) == (Fraction(1, 2), Fraction(2), Fraction(1, 2))
    assert (GEOM.eta_scale, GEOM.kappa, GEOM.levi) == (eta_scale, kappa, levi)
    # [Z, Zbar] = -i levi T, [T, Z] = -4i Z, [T, Zbar] = 4i Zbar; all scalars are dyadic
    t_field = float(GEOM.kappa) * FRAME_T_UNSCALED
    assert np.array_equal(bracket(FRAME_Z, FRAME_ZBAR), -1j * float(GEOM.levi) * t_field)
    assert np.array_equal(bracket(t_field, FRAME_Z), -4j * FRAME_Z)
    assert np.array_equal(bracket(t_field, FRAME_ZBAR), 4j * FRAME_ZBAR)


def test_frame_vectors_pointwise():
    rng = np.random.default_rng(0)
    z1, z2 = random_sphere_points(rng, 64)
    T, Z, Zb = GEOM.frame_vectors(z1, z2)
    # hand formulas in (d/dz1, d/dz2, d/dzbar1, d/dzbar2) components
    T_expect = np.stack([2j * z1, 2j * z2, -2j * np.conj(z1), -2j * np.conj(z2)], axis=1)
    Z_expect = np.stack([np.conj(z2), -np.conj(z1),
                         np.zeros_like(z1), np.zeros_like(z1)], axis=1)
    assert np.max(np.abs(T - T_expect)) < 1e-14
    assert np.max(np.abs(Z - Z_expect)) < 1e-14
    assert np.max(np.abs(Zb - np.conj(Z)[:, [2, 3, 0, 1]])) < 1e-14


def test_forms_pointwise():
    rng = np.random.default_rng(1)
    z1, z2 = random_sphere_points(rng, 64)
    v = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    zb1, zb2 = np.conj(z1), np.conj(z2)
    eta_expect = (zb1 * v[:, 0] + zb2 * v[:, 1] - z1 * v[:, 2] - z2 * v[:, 3]) / 4j
    omega_expect = z2 * v[:, 0] - z1 * v[:, 1]
    omegabar_expect = zb2 * v[:, 2] - zb1 * v[:, 3]
    assert np.max(np.abs(GEOM.eta(z1, z2, v) - eta_expect)) < 1e-14
    assert np.max(np.abs(GEOM.omega(z1, z2, v) - omega_expect)) < 1e-14
    assert np.max(np.abs(GEOM.omega_bar(z1, z2, v) - omegabar_expect)) < 1e-14


def test_tangent_reconstruction():
    # a tangent vector a*T + b*Z + conj(b)*Zbar must read back (a, b, conj(b))
    rng = np.random.default_rng(2)
    z1, z2 = random_sphere_points(rng, 32)
    T, Z, Zb = GEOM.frame_vectors(z1, z2)
    a = rng.standard_normal(32)
    b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    v = a[:, None] * T + b[:, None] * Z + np.conj(b)[:, None] * Zb
    assert np.max(np.abs(GEOM.eta(z1, z2, v) - a)) < 1e-13
    assert np.max(np.abs(GEOM.omega(z1, z2, v) - b)) < 1e-13
    assert np.max(np.abs(GEOM.omega_bar(z1, z2, v) - np.conj(b))) < 1e-13


def test_reeb_conditions_at_nodes():
    grid = QuadratureGrid.build(6)
    z1, z2 = grid.z1, grid.z2
    T, Z, Zb = GEOM.frame_vectors(z1, z2)
    assert np.max(np.abs(GEOM.eta(z1, z2, T) - 1.0)) < 1e-13
    # T -| d eta = 0 is equivalent to d eta(T, Z) = d eta(T, Zbar) = 0; the raw
    # two-form is i (dz ^ dzbar) scaled by eta_scale
    scale = float(GEOM.eta_scale)

    def deta(v, w):
        return 1j * scale * (v[:, 0] * w[:, 2] + v[:, 1] * w[:, 3]
                             - v[:, 2] * w[:, 0] - v[:, 3] * w[:, 1])

    assert np.max(np.abs(deta(T, Z))) < 1e-13
    assert np.max(np.abs(deta(T, Zb))) < 1e-13
    # strong pseudoconvexity: -i d eta(Z, Zbar) equals the positive constant 1/2
    levi_vals = -1j * deta(Z, Zb)
    assert np.max(np.abs(levi_vals - 0.5)) < 1e-13


def test_monomial_moment_frozen_values():
    assert monomial_moment(0, 0, 0, 0) == Fraction(1)
    assert monomial_moment(1, 0, 1, 0) == Fraction(1, 2)
    assert monomial_moment(2, 0, 2, 0) == Fraction(1, 3)
    assert monomial_moment(1, 1, 1, 1) == Fraction(1, 6)
    assert monomial_moment(2, 1, 2, 1) == Fraction(1, 12)
    assert monomial_moment(3, 2, 3, 2) == Fraction(1, 60)
    # phase mismatch integrates to zero
    assert monomial_moment(1, 0, 0, 0) == 0
    assert monomial_moment(2, 0, 1, 1) == 0
    assert monomial_moment(0, 3, 0, 2) == 0


def test_consistency_with_l2_splitting():
    # sum over |z1|^(2a) |z2|^(2b) weights of the binomial expansion of
    # (|z1|^2 + |z2|^2)^d recovers 1 for every d
    for d in range(7):
        total = Fraction(0)
        for a in range(d + 1):
            from math import comb
            total += comb(d, a) * monomial_moment(a, d - a, a, d - a)
        assert total == 1


def test_quadrature_exactness_random_sample():
    grid = QuadratureGrid.build(6)
    rng = np.random.default_rng(3)
    z1, z2 = grid.z1, grid.z2
    zb1, zb2 = np.conj(z1), np.conj(z2)
    cap = 2 * 6 + 4
    for _ in range(300):
        e = rng.integers(0, cap + 1, size=4)
        while e.sum() > cap:
            e = rng.integers(0, cap + 1, size=4)
        a1, a2, b1, b2 = (int(x) for x in e)
        vals = z1 ** a1 * z2 ** a2 * zb1 ** b1 * zb2 ** b2
        assert abs(grid.mean(vals) - float(monomial_moment(a1, a2, b1, b2))) < 1e-12


def test_quadrature_detects_overshoot():
    # one degree past the design cap the rule is allowed to be wrong; make
    # sure the exactness above is not an accident of a vastly oversized rule
    grid = QuadratureGrid.build(4)
    z1 = grid.z1
    overshoot = np.abs(z1) ** (2 * (2 * 4 + 6))
    exact = float(monomial_moment(2 * 4 + 6, 0, 2 * 4 + 6, 0))
    assert abs(grid.mean(overshoot) - exact) > 1e-13


def is_seven_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def test_grid_length_is_the_smallest_seven_smooth_at_least_2n_plus_5():
    lengths = {}
    for N in range(1, 33):
        grid = QuadratureGrid.build(N)
        n_phi = lengths[N] = grid.n_phi
        assert n_phi >= 2 * N + 5 and is_seven_smooth(n_phi), N
        assert not any(is_seven_smooth(n) for n in range(2 * N + 5, n_phi)), N
        assert grid.n_nodes == grid.n_radial * n_phi ** 2
    assert [lengths[N] for N in (4, 6, 8, 10, 12, 16, 20)] == [14, 18, 21, 25, 30, 40, 45]
