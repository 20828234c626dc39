"""Basis construction: dimensions, orthonormality, bigrading, derivatives.

The frame-derivative oracle never touches the spectral machinery: basis
functions are polynomials in (z, zbar), so Z f, Zbar f and T f can be
checked against Wirtinger derivatives assembled from central differences
in the four real coordinates of C^2. The closed-form basis and ladder are
checked against exact-Fraction Gram-Schmidt on the degree-graded monomials
and exact rational pairings of the frame derivatives.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import cached_basis
from crsphere import build_basis, frame_derivative, fs_norm, multiply
from crsphere.basis import monomial_exponents
from crsphere.geometry import monomial_moment

PIVOT_RELATIVE_THRESHOLD = Fraction(1, 10 ** 12)

FD_STEP = 1e-6


def wirtinger_fd(eval_fn, z1, z2):
    """d/dz1, d/dz2, d/dzbar1, d/dzbar2 of eval_fn by central differences."""
    h = FD_STEP
    out = []
    for slot in range(2):
        args = [z1, z2]
        dx = (eval_fn(*_shift(args, slot, h)) - eval_fn(*_shift(args, slot, -h))) / (2 * h)
        dy = (eval_fn(*_shift(args, slot, 1j * h)) - eval_fn(*_shift(args, slot, -1j * h))) / (2 * h)
        out.append(0.5 * (dx - 1j * dy))   # d/dz
        out.append(0.5 * (dx + 1j * dy))   # d/dzbar
    # reorder to (dz1, dz2, dzbar1, dzbar2)
    return out[0], out[2], out[1], out[3]


def _shift(args, slot, delta):
    shifted = list(args)
    shifted[slot] = shifted[slot] + delta
    return shifted


def frame_derivative_fd(basis, f, word, z1, z2):
    def eval_fn(w1, w2):
        return basis.eval_columns(w1, w2, f.coeffs[:, None])[:, 0]
    d1, d2, db1, db2 = wirtinger_fd(eval_fn, z1, z2)
    zb1, zb2 = np.conj(z1), np.conj(z2)
    if word == "Z":
        return zb2 * d1 - zb1 * d2
    if word == "Zb":
        return z2 * db1 - z1 * db2
    if word == "T":
        return 2j * (z1 * d1 + z2 * d2 - zb1 * db1 - zb2 * db2)
    raise ValueError(word)


def _pair_exact(terms_a, terms_b):
    """Exact L^2 pairing <P, Q> of two rational monomial combinations.

    Each argument is a list of ((a1,a2,b1,b2), Fraction) pairs with real
    rational coefficients. The moment <m, m'> is real, so the result is a
    Fraction.
    """
    acc = Fraction(0)
    for ea, ca in terms_a:
        for eb, cb in terms_b:
            if ca == 0 or cb == 0:
                continue
            # <z^a zbar^b, z^a' zbar^b'> = moment(a + b', b + a')
            m = monomial_moment(ea[0] + eb[2], ea[1] + eb[3], eb[0] + ea[2], eb[1] + ea[3])
            if m:
                acc += ca * cb * m
    return acc


def _zbar_terms(terms):
    """Apply Zbar = z2 d/dzbar1 - z1 d/dzbar2 to a rational monomial combination."""
    out = {}
    for (a1, a2, b1, b2), c in terms:
        if b1:
            k = (a1, a2 + 1, b1 - 1, b2)
            out[k] = out.get(k, Fraction(0)) + c * b1
        if b2:
            k = (a1 + 1, a2, b1, b2 - 1)
            out[k] = out.get(k, Fraction(0)) - c * b2
    return [(k, v) for k, v in sorted(out.items()) if v != 0]


def _z_terms(terms):
    """Apply Z = zbar2 d/dz1 - zbar1 d/dz2 to a rational monomial combination."""
    out = {}
    for (a1, a2, b1, b2), c in terms:
        if a1:
            k = (a1 - 1, a2, b1, b2 + 1)
            out[k] = out.get(k, Fraction(0)) + c * a1
        if a2:
            k = (a1, a2 - 1, b1 + 1, b2)
            out[k] = out.get(k, Fraction(0)) - c * a2
    return [(k, v) for k, v in sorted(out.items()) if v != 0]


def exact_gram_schmidt(degree):
    """The basis by exact-Fraction Gram-Schmidt, and Z, Zbar by exact pairings.

    Monomials are orthonormalized per torus weight block in degree-graded
    order; dependent ones (through |z1|^2 + |z2|^2 = 1) give exactly zero
    residuals. Returns the slot arrays k1, k2, deg, p, q, the float
    coefficient matrix over ``monomial_exponents(degree)`` and the dense
    frame matrices (Z, Zbar), whose 1-sparsity is asserted.
    """
    exponents = monomial_exponents(degree)
    exp_index = {tuple(e): i for i, e in enumerate(exponents)}

    blocks = {}
    for i, (a1, a2, b1, b2) in enumerate(exponents):
        blocks.setdefault((int(a1 - b1), int(a2 - b2)), []).append(i)

    accepted = []  # (k1, k2, deg, terms, norm2)
    for key in sorted(blocks):
        rows = blocks[key]
        rows.sort(key=lambda i: (int(exponents[i].sum()), tuple(exponents[i])))
        ortho = []  # list of (terms, norm2) accepted in this block
        for i in rows:
            exp = tuple(int(v) for v in exponents[i])
            cand = {exp: Fraction(1)}
            cand_list = [(exp, Fraction(1))]
            own_norm2 = _pair_exact(cand_list, cand_list)
            # subtract projections onto the accepted block members
            for terms, norm2 in ortho:
                inner = _pair_exact(cand_list, terms)
                if inner:
                    coef = inner / norm2
                    for e, c in terms:
                        cand[e] = cand.get(e, Fraction(0)) - coef * c
                    cand_list = [(e, c) for e, c in sorted(cand.items()) if c != 0]
            residual2 = _pair_exact(cand_list, cand_list)
            if residual2 <= PIVOT_RELATIVE_THRESHOLD ** 2 * own_norm2:
                # exact arithmetic: dependent candidates give exactly zero
                if residual2 != 0:
                    raise AssertionError("near-zero but nonzero exact pivot")
                continue
            ortho.append((cand_list, residual2))
            accepted.append((key[0], key[1], sum(exp), cand_list, residual2))

    # canonical basis order: degree, then weight sum, then k1
    accepted.sort(key=lambda t: (t[2], t[0] + t[1], t[0], t[1]))

    size = len(accepted)
    coeffs = np.zeros((len(exponents), size))
    k1 = np.array([t[0] for t in accepted])
    k2 = np.array([t[1] for t in accepted])
    deg = np.array([t[2] for t in accepted])
    rational = [t[3] for t in accepted]
    norms2 = [t[4] for t in accepted]
    for j, (_, _, _, terms, norm2) in enumerate(accepted):
        scale = 1.0 / math.sqrt(norm2)
        for e, c in terms:
            coeffs[exp_index[e], j] = float(c) * scale

    slot = {(int(a), int(b), int(d)): i for i, (a, b, d) in enumerate(zip(k1, k2, deg))}
    frames = {_z_terms: np.zeros((size, size)), _zbar_terms: np.zeros((size, size))}
    for i in range(size):
        terms = rational[i]
        n2_i = norms2[i]
        for op, shift in ((_z_terms, -1), (_zbar_terms, +1)):
            img = op(terms)
            img_norm2 = _pair_exact(img, img)
            j = slot.get((int(k1[i]) + shift, int(k2[i]) + shift, int(deg[i])))
            if j is None:
                if img_norm2 != 0:
                    raise AssertionError("frame derivative left the basis span")
                continue
            inner = _pair_exact(img, rational[j])
            n2_j = norms2[j]
            # the image must be entirely in slot j: |<img, b_j>|^2 = |img|^2 |b_j|^2
            if img_norm2 * n2_j != inner * inner:
                raise AssertionError("frame derivative image is not 1-sparse")
            # normalized entry <op beta_i, beta_j>: its square is rational,
            # its sign that of the exact pairing
            entry2 = inner * inner / (n2_i * n2_j)
            frames[op][j, i] = math.copysign(math.sqrt(float(entry2)), inner)
    p = (deg + k1 + k2) // 2
    q = (deg - k1 - k2) // 2
    return k1, k2, deg, p, q, coeffs, frames[_z_terms], frames[_zbar_terms]


# basis_id of each degree as stored in files written before the closed form
STORED_BASIS_IDS = {4: "ee047f2030aba9c6", 6: "ee858d3180bd4d2d",
                    8: "c25e291ba17164c2", 10: "64521f4e1bac4850"}


@pytest.mark.parametrize("N", [4, 6, 8, 10])
def test_closed_form_matches_exact_gram_schmidt(N):
    k1, k2, deg, p, q, coeffs, z, zbar = exact_gram_schmidt(N)
    basis = cached_basis(N)
    for got, expect in ((basis.k1, k1), (basis.k2, k2), (basis.degrees, deg),
                        (basis.bidegree_p, p), (basis.bidegree_q, q)):
        assert np.array_equal(got, expect)
    support = coeffs != 0
    dense = basis.coeffs.toarray()
    assert np.array_equal(dense != 0, support)
    rel = np.abs(dense[support] - coeffs[support]) / np.abs(coeffs[support])
    assert np.max(rel) < 1e-14
    assert np.array_equal(basis.frame_z_matrix.toarray(), z)
    assert np.array_equal(basis.frame_zbar_matrix.toarray(), zbar)
    assert basis.basis_id == STORED_BASIS_IDS[N]


def test_dimension_formula():
    for N in (4, 6, 8):
        basis = cached_basis(N)
        assert basis.size == (N + 1) * (N + 2) * (2 * N + 3) // 6
    assert cached_basis(6).size == 140
    assert cached_basis(8).size == 285


def dense_node_values(basis):
    """Every basis function at every quadrature node, from the monomial form:
    the dense oracle for the radial-table-times-FFT transforms."""
    return basis.eval_columns(basis.grid.z1, basis.grid.z2, np.eye(basis.size))


def test_orthonormality_via_quadrature(basis6):
    vals = dense_node_values(basis6)
    w = basis6.grid.weights_normalized
    gram = (vals.conj().T * w) @ vals
    assert np.max(np.abs(gram - np.eye(basis6.size))) < 1e-12


def test_fft_transforms_match_dense_oracle():
    # grid lengths 14, 18 and 21: the length rule moved the first two
    rng = np.random.default_rng(12)
    for N in (4, 6, 8):
        basis = cached_basis(N)
        dense = dense_node_values(basis)
        c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        expect = dense @ c
        got = basis.scalar(c).values()
        assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect)), N
        v = rng.standard_normal(basis.grid.n_nodes) + 1j * rng.standard_normal(basis.grid.n_nodes)
        expect = dense.conj().T @ (basis.grid.weights_normalized * v)
        got = basis.project_values(v)
        assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect)), N


def test_transforms_match_point_evaluation_at_n12():
    # a dense oracle is about 94 MB at N = 12, so 8 random coefficient
    # columns go through synthesis as one (size, 8) stack and through the
    # point kernel; projection is checked as synthesis's adjoint on them
    basis = cached_basis(12)
    grid = basis.grid
    rng = np.random.default_rng(21)
    cols = rng.standard_normal((basis.size, 8)) + 1j * rng.standard_normal((basis.size, 8))
    points = basis.eval_columns(grid.z1, grid.z2, cols)
    got = basis.synthesize(cols)
    assert got.shape == (8, grid.n_nodes)
    assert np.max(np.abs(got - points.T)) < 1e-12 * np.max(np.abs(points))
    for j in range(8):
        assert np.array_equal(basis.synthesize(cols[:, j]), got[j])
    v = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    expect = points.conj().T @ (grid.weights_normalized * v)
    got = cols.conj().T @ basis.project_values(v)
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("N", [8, 12, 16])
def test_radial_gram_is_identity(N):
    # slots of one torus weight share the Fourier mode, so the quadrature
    # pairs their radial profiles alone, under the Gauss weights in u
    basis = cached_basis(N)
    w = basis.grid.u_weights
    weights = {}
    for j, key in enumerate(zip(basis.k1.tolist(), basis.k2.tolist())):
        weights.setdefault(key, []).append(j)
    for cols in weights.values():
        r = basis.radial[:, cols]
        gram = (r.T * w) @ r
        assert np.max(np.abs(gram - np.eye(len(cols)))) < 1e-13


def test_torus_bigrading(basis6):
    # a weight-(k1, k2) function picks up the phase e^{i(k1 a + k2 b)} under
    # the torus action (z1, z2) -> (e^{ia} z1, e^{ib} z2)
    rng = np.random.default_rng(4)
    a, b = 0.7, -1.3
    n = 40
    w = rng.standard_normal((n, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    z1, z2 = w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]
    cols = np.eye(basis6.size)
    before = basis6.eval_columns(z1, z2, cols)
    after = basis6.eval_columns(np.exp(1j * a) * z1, np.exp(1j * b) * z2, cols)
    phases = np.exp(1j * (basis6.k1 * a + basis6.k2 * b))
    assert np.max(np.abs(after - before * phases[None, :])) < 1e-10


def test_bigrade_integer_split(basis6):
    p = (basis6.degrees + basis6.k1 + basis6.k2) / 2
    q = (basis6.degrees - basis6.k1 - basis6.k2) / 2
    assert np.all(p == p.astype(int)) and np.all(q == q.astype(int))
    assert np.all(p >= 0) and np.all(q >= 0)
    assert np.all(p + q == basis6.degrees)


def test_frame_derivatives_against_finite_differences(basis6):
    rng = np.random.default_rng(5)
    w = rng.standard_normal((30, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    z1, z2 = w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3]
    f = basis6.random_scalar(rng, max_degree=4)
    for word in ("Z", "Zb", "T"):
        spectral = frame_derivative(f, [word])
        got = basis6.eval_columns(z1, z2, spectral.coeffs[:, None])[:, 0]
        expect = frame_derivative_fd(basis6, f, word, z1, z2)
        scale = max(1.0, np.max(np.abs(expect)))
        assert np.max(np.abs(got - expect)) / scale < 1e-6, word


def test_derivative_matrices_one_sparse(basis6):
    # Z and Zbar map each basis function to a single real multiple of
    # another basis function (weights shift by (+1,-1) within a degree)
    for word in ("Z", "Zb"):
        cols = np.empty((basis6.size, basis6.size), dtype=complex)
        for j in range(basis6.size):
            e = np.zeros(basis6.size)
            e[j] = 1.0
            cols[:, j] = frame_derivative(basis6.scalar(e), [word]).coeffs
        nnz_per_col = np.sum(np.abs(cols) > 1e-12, axis=0)
        assert np.max(nnz_per_col) <= 1
        assert np.max(np.abs(cols.imag)) < 1e-12


def test_reeb_derivative_is_diagonal_weight(basis6):
    # T has eigenvalue i*kappa*(p - q) on bigrade (p, q), and p - q = k1 + k2
    kappa = float(basis6.geometry.kappa)
    for j in rng_indices(basis6.size, 25):
        e = np.zeros(basis6.size)
        e[j] = 1.0
        got = frame_derivative(basis6.scalar(e), ["T"]).coeffs
        eigen = 1j * kappa * (basis6.k1[j] + basis6.k2[j])
        expect = eigen * e
        assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("N", [6, 8])
def test_ladder_matrices_obey_frame_brackets(N):
    # [Z, Zbar] = -i levi T, [T, Z] = -4i Z and [T, Zbar] = 4i Zbar, as
    # products of the coefficient matrices (operators compose right to left)
    basis = cached_basis(N)
    z = basis.frame_z_matrix.toarray()
    zb = basis.frame_zbar_matrix.toarray()
    t = np.diag(basis.t_eigs)
    tol = 1e-13 * np.max(np.abs(basis.t_eigs))
    levi = float(basis.geometry.levi)
    assert np.max(np.abs(z @ zb - zb @ z + 1j * levi * t)) < tol
    assert np.max(np.abs(t @ z - z @ t + 4j * z)) < tol
    assert np.max(np.abs(t @ zb - zb @ t - 4j * zb)) < tol


def rng_indices(size, count):
    return np.random.default_rng(6).choice(size, size=min(count, size), replace=False)


def test_multiply_matches_pointwise(basis6):
    rng = np.random.default_rng(7)
    f = basis6.random_scalar(rng, max_degree=2)
    g = basis6.random_scalar(rng, max_degree=3)
    product = multiply(f, g)
    z1, z2 = basis6.grid.z1, basis6.grid.z2
    lhs = basis6.eval_columns(z1, z2, product.coeffs[:, None])[:, 0]
    rhs = (basis6.eval_columns(z1, z2, f.coeffs[:, None])[:, 0]
           * basis6.eval_columns(z1, z2, g.coeffs[:, None])[:, 0])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_norm_zero_order_is_l2(basis6):
    rng = np.random.default_rng(8)
    f = basis6.random_scalar(rng)
    assert abs(fs_norm(f, 0) - np.linalg.norm(f.coeffs)) < 1e-12


def test_norm_order_monotone(basis6):
    rng = np.random.default_rng(9)
    f = basis6.random_scalar(rng)
    norms = [fs_norm(f, s) for s in range(5)]
    assert all(norms[i] <= norms[i + 1] + 1e-12 for i in range(4))


def test_norm_matches_explicit_word_sum(basis6):
    # ||f||_s^2 = sum over words I in {Z, Zb}, |I| <= s, of ||X_I f||^2
    rng = np.random.default_rng(12)
    f = basis6.random_scalar(rng)
    for s in (1, 2, 3):
        words = [w for k in range(s + 1) for w in itertools.product(("Z", "Zb"), repeat=k)]
        expect = sum(frame_derivative(f, list(w)).l2_norm() ** 2 for w in words)
        assert abs(fs_norm(f, s) ** 2 - expect) <= 1e-12 * expect, s


def test_projection_roundtrip(basis6):
    rng = np.random.default_rng(10)
    f = basis6.random_scalar(rng)
    z1, z2 = basis6.grid.z1, basis6.grid.z2
    vals = basis6.eval_columns(z1, z2, f.coeffs[:, None])[:, 0]
    back = basis6.project_values(vals)
    assert np.max(np.abs(back - f.coeffs)) < 1e-11


def test_project_with_mass_measures_discarded_part(basis6):
    # z1^(N+1) is a degree-(N+1) spherical harmonic, orthogonal to the
    # basis; its mean square on the sphere is 1/(N+2) (exact moment)
    rng = np.random.default_rng(11)
    f = basis6.random_scalar(rng)
    z1 = basis6.grid.z1
    c = 0.5
    out = basis6.project_with_mass(f.values() + c * z1 ** (basis6.degree + 1))
    assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-12
    expect = c / np.sqrt(basis6.degree + 2)
    assert abs(out.meta["truncation_mass"] - expect) < 1e-12
    assert basis6.project_with_mass(f.values()).meta["truncation_mass"] < 1e-12


def test_project_with_mass_in_span_is_roundoff(basis6):
    # the mass is the norm of the residual at the nodes, not a difference of
    # squares, so a scalar in the span reports roundoff, not sqrt(eps)
    for seed in range(8):
        f = basis6.random_scalar(np.random.default_rng(seed))
        assert basis6.project_with_mass(f.values()).meta["truncation_mass"] < 1e-12, seed


def test_basis_id_stability():
    a = build_basis(4)
    b = build_basis(4)
    assert a.basis_id == b.basis_id
    assert a.basis_id != cached_basis(6).basis_id


def test_real_part_conjugation(basis6):
    rng = np.random.default_rng(11)
    f = basis6.random_scalar(rng)
    re = f.real_part()
    z1, z2 = basis6.grid.z1[:50], basis6.grid.z2[:50]
    vals = basis6.eval_columns(z1, z2, re.coeffs[:, None])[:, 0]
    assert np.max(np.abs(vals.imag)) < 1e-12
    assert re.is_real()
