"""Truncated spectral basis of restricted polynomials on the 3-sphere.

The working space at truncation degree ``N`` is the span of the restricted
monomials ``z^a zbar^b`` with ``|a| + |b| <= N``. Restriction to the sphere
introduces exact linear dependencies (through ``|z1|^2 + |z2|^2 = 1``), so the
basis is produced by Gram-Schmidt against the exact moment Gram matrix.

Two structural facts keep everything exact:

* Monomials of different torus weight ``(k1, k2) = (a1 - b1, a2 - b2)`` are
  L^2-orthogonal, so the Gram matrix is block diagonal by weight and the
  orthonormalization runs independently per block.
* Within a weight block, processing monomials in degree-graded order yields
  exactly one new basis function per total degree; each comes out as the
  restriction of a bihomogeneous harmonic polynomial, so every basis function
  carries sharp metadata (weight, degree, bidegree).

All Gram-Schmidt arithmetic is done with ``fractions.Fraction`` (the moments
are factorial ratios), so dependent monomials are recognized by *exact* zero
residuals and the float coefficients are correct to one rounding each. The
relative pivot threshold of 1e-12 required by the calling contract is kept as
a guard; with exact residuals it can only fire on true zeros.

The frame derivatives Z, Zbar act 1-sparsely on this basis (they shift the
weight by (-1,-1) / (+1,+1) at fixed degree, and each (weight, degree) slot is
one-dimensional); their sparse matrices are assembled from exact rational
pairings and the 1-sparsity is asserted, not assumed. Both keep k1 - k2 and the
degree, so they act within the (degree, k1 - k2) chains of the basis. T acts
diagonally with eigenvalue ``i * kappa * (k1 + k2)``.

A basis function separates as ``R_j(u) e^{i k1 phi1} e^{i k2 phi2}`` with
``u = |z2|^2``, and the grid is Gauss in ``u`` times an equispaced torus, so
only the real table ``radial = R_j(u_r)`` (the basis at the radial nodes
with ``phi1 = phi2 = 0``) is stored. Synthesis at the nodes and projection
are a 2-D FFT per radial node plus a sum against it (the transform pattern
of Driscoll & Healy, 1994): the same quadrature sums as a dense
nodes-by-basis matrix, so aliasing is unchanged.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
from scipy import sparse

from . import _core
from .geometry import QuadratureGrid, ReferenceGeometry, monomial_moment

PIVOT_RELATIVE_THRESHOLD = Fraction(1, 10 ** 12)


def monomial_exponents(degree):
    """All (a1, a2, b1, b2) with total degree <= ``degree``, degree-graded lex order."""
    exps = []
    for d in range(degree + 1):
        block = []
        for a1 in range(d + 1):
            for a2 in range(d + 1 - a1):
                for b1 in range(d + 1 - a1 - a2):
                    b2 = d - a1 - a2 - b1
                    block.append((a1, a2, b1, b2))
        exps.extend(sorted(block))
    return np.array(exps, dtype=np.int64)


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


class Basis:
    """Orthonormal spectral basis at a fixed truncation degree.

    Basis functions are stored as real coefficient columns over the monomial
    list (``coeffs``), ordered degree-major and deterministically within each
    degree. Orthonormality holds in the normalized round L^2 inner product.
    """

    def __init__(self, degree, geometry, grid, exponents, coeffs, meta, rational_blocks):
        self.degree = degree
        self.geometry = geometry
        self.grid = grid
        self.exponents = exponents
        self.coeffs = coeffs  # (n_monomials, size) real float64
        self.k1 = meta["k1"]
        self.k2 = meta["k2"]
        self.degrees = meta["deg"]
        self.bidegree_p = meta["p"]
        self.bidegree_q = meta["q"]
        self._rational = rational_blocks  # index -> list of (exp, Fraction), unnormalized
        self._norms2 = meta["norm2"]      # index -> Fraction, squared norm of rational rep

        self.size = coeffs.shape[1]
        self._slot = {(int(a), int(b), int(d)): i
                      for i, (a, b, d) in enumerate(zip(self.k1, self.k2, self.degrees))}

        # Z and Zbar shift (k1, k2) along the diagonal at fixed degree, so the
        # (degree, k1 - k2) chains are invariant; each lists its slots by k1 + k2.
        chains = {}
        for i, key in enumerate(zip(self.degrees.tolist(), (self.k1 - self.k2).tolist())):
            chains.setdefault(key, []).append(i)
        self.chains = [np.array(c) for c in chains.values()]

        # conj(basis function) is exactly the mirrored-weight basis function.
        self.conj_index = np.array([self._slot[(-int(a), -int(b), int(d))]
                                    for a, b, d in zip(self.k1, self.k2, self.degrees)])

        kappa = float(geometry.kappa)
        self.t_eigs = 1j * kappa * (self.k1 + self.k2).astype(np.float64)

        self.radial = self.eval_columns(np.sqrt(1.0 - grid.u), np.sqrt(grid.u),
                                        np.eye(self.size)).real
        self._torus_slot = (self.k1 % grid.n_phi) * grid.n_phi + self.k2 % grid.n_phi

        self.frame_z_matrix, self.frame_zbar_matrix = self._assemble_frame_matrices()
        z, zb = self.frame_z_matrix, self.frame_zbar_matrix
        self._word_step = (z.multiply(z) + zb.multiply(zb)).T.tocsr()
        self._fs_levels = [np.ones(self.size)]  # w_0, w_1, ... of fs_norm2
        self.basis_id = self._content_hash()

    # -- construction ----------------------------------------------------

    @staticmethod
    def build(degree):
        geometry = ReferenceGeometry.derive()
        grid = QuadratureGrid.build(degree)
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
        meta = {
            "k1": np.array([t[0] for t in accepted]),
            "k2": np.array([t[1] for t in accepted]),
            "deg": np.array([t[2] for t in accepted]),
            "norm2": [t[4] for t in accepted],
        }
        meta["p"] = (meta["deg"] + meta["k1"] + meta["k2"]) // 2
        meta["q"] = (meta["deg"] - meta["k1"] - meta["k2"]) // 2
        rational_blocks = []
        for j, (_, _, _, terms, norm2) in enumerate(accepted):
            scale = 1.0 / math.sqrt(norm2)
            for e, c in terms:
                coeffs[exp_index[e], j] = float(c) * scale
            rational_blocks.append(terms)

        basis = Basis(degree, geometry, grid, exponents, coeffs, meta, rational_blocks)
        expected = (degree + 1) * (degree + 2) * (2 * degree + 3) // 6
        if size != expected:
            raise AssertionError(f"basis rank {size} != expected {expected}")
        return basis

    def _assemble_frame_matrices(self):
        """Exact sparse matrices of Z and Zbar on the basis (real entries).

        Zbar sends the (k1, k2, d) slot to (k1+1, k2+1, d) and Z to
        (k1-1, k2-1, d); the full image must land in that single slot, which
        is asserted through the exact norm identity below.
        """
        entries = {_z_terms: ([], [], []), _zbar_terms: ([], [], [])}
        for i in range(self.size):
            terms = self._rational[i]
            n2_i = self._norms2[i]
            for op, shift in ((_z_terms, -1), (_zbar_terms, +1)):
                img = op(terms)
                img_norm2 = _pair_exact(img, img)
                j = self._slot.get((int(self.k1[i]) + shift, int(self.k2[i]) + shift,
                                    int(self.degrees[i])))
                if j is None:
                    if img_norm2 != 0:
                        raise AssertionError("frame derivative left the basis span")
                    continue
                inner = _pair_exact(img, self._rational[j])
                n2_j = self._norms2[j]
                # the image must be entirely in slot j: |<img, b_j>|^2 = |img|^2 |b_j|^2
                if img_norm2 * n2_j != inner * inner:
                    raise AssertionError("frame derivative image is not 1-sparse")
                # normalized entry <op beta_i, beta_j>: its square is rational,
                # its sign that of the exact pairing
                entry2 = inner * inner / (n2_i * n2_j)
                rows, cols, vals = entries[op]
                rows.append(j)
                cols.append(i)
                vals.append(math.copysign(math.sqrt(float(entry2)), inner))
        shape = (self.size, self.size)
        return tuple(sparse.csr_array((vals, (rows, cols)), shape=shape)
                     for rows, cols, vals in entries.values())

    def _content_hash(self):
        h = hashlib.sha256()
        h.update(f"crsphere-basis-v1:{self.degree}".encode())
        h.update(self.exponents.astype(np.int64).tobytes())
        for a, b, d in zip(self.k1, self.k2, self.degrees):
            h.update(f"{a},{b},{d};".encode())
        return h.hexdigest()[:16]

    # -- evaluation and projection ----------------------------------------

    def eval_columns(self, z1, z2, column_matrix):
        """Evaluate basis-coefficient columns at arbitrary points.

        ``column_matrix`` has shape (size, k); returns (n_points, k).
        """
        mono = self.coeffs @ np.asarray(column_matrix, dtype=complex)
        return _core.eval_poly(np.asarray(z1, dtype=complex).ravel(),
                               np.asarray(z2, dtype=complex).ravel(),
                               self.exponents, np.ascontiguousarray(mono))

    def synthesize(self, coeffs):
        """Values at the quadrature nodes of the coefficient vector ``coeffs``:
        per radial node, the torus modes R_j(u_r) c_j (summed over slots of
        one weight) go through one inverse 2-D FFT."""
        n = self.grid.n_phi
        modes = np.zeros((self.grid.n_radial, n * n), dtype=complex)
        np.add.at(modes, (slice(None), self._torus_slot), self.radial * coeffs)
        return np.fft.ifft2(modes.reshape(-1, n, n), norm="forward").ravel()

    def project_values(self, values):
        """L^2-orthogonal projection of a vector of nodewise values onto the
        basis: the quadrature sums, as a 2-D FFT per radial node and a
        weighted radial sum against R_j."""
        n = self.grid.n_phi
        modes = np.fft.fft2(np.reshape(values, (-1, n, n)), norm="forward")
        modes = modes.reshape(-1, n * n)[:, self._torus_slot]
        return self.grid.u_weights @ (self.radial * modes)

    def project_with_mass(self, values):
        """Project nodewise values and record the discarded mass.

        The mass is the quadrature norm of ``values`` minus their projection,
        synthesized back at the nodes, stored on the result's
        ``meta["truncation_mass"]``.
        """
        coeffs = self.project_values(values)
        residual = values - self.synthesize(coeffs)
        mass = math.sqrt(float(np.dot(self.grid.weights_normalized, np.abs(residual) ** 2)))
        return SpectralScalar(self, coeffs, meta={"truncation_mass": mass})

    def monomial_coefficients(self, coeffs):
        return self.coeffs @ coeffs

    # -- scalars ----------------------------------------------------------

    def scalar(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {c.shape}")
        return SpectralScalar(self, c)

    def zero(self):
        return SpectralScalar(self, np.zeros(self.size, dtype=complex))

    def constant(self, value):
        c = np.zeros(self.size, dtype=complex)
        c[int(self._slot[(0, 0, 0)])] = value  # beta_0 = 1 exactly
        return SpectralScalar(self, c)

    def from_values(self, values):
        return SpectralScalar(self, self.project_values(np.asarray(values, dtype=complex)))

    def random_scalar(self, rng, max_degree=None, real=False):
        """Seeded random element, optionally band-limited and real."""
        max_degree = self.degree if max_degree is None else max_degree
        c = rng.standard_normal(self.size) + 1j * rng.standard_normal(self.size)
        c[self.degrees > max_degree] = 0.0
        f = self.scalar(c)
        return f.real_part() if real else f

    # -- frame derivatives and norms ---------------------------------------

    def apply_word(self, coeffs, word):
        """Apply a frame word (letters applied right to left, as written)."""
        out = np.asarray(coeffs, dtype=complex)
        for letter in reversed(list(word)):
            if letter == "T":
                out = self.t_eigs * out
            elif letter == "Z":
                out = self.frame_z_matrix @ out
            elif letter == "Zb":
                out = self.frame_zbar_matrix @ out
            else:
                raise ValueError(f"unknown frame letter {letter!r}")
        return out

    def fs_norm2(self, coeffs, order):
        """Squared order-s Folland-Stein norm (horizontal words only).

        ||f||_s^2 = sum over words I in {Z, Zb} with |I| <= s of ||X_I f||^2.
        Z and Zb are 1-sparse and injective on slots, so every X_I maps basis
        functions to multiples of distinct basis functions and the norm is
        diagonal: ||f||_s^2 = sum_i W_s[i] |c_i|^2 with W_s = w_0 + ... + w_s,
        w_0 = 1 and w_k = (Z o Z)^T w_{k-1} + (Zb o Zb)^T w_{k-1} (entrywise
        squares).
        """
        order = int(order)
        if order < 0:
            raise ValueError("norm order must be non-negative")
        levels = self._fs_levels
        while len(levels) <= order:
            levels.append(self._word_step @ levels[-1])
        weights = np.sum(levels[:order + 1], axis=0)
        return float(np.dot(weights, np.abs(np.asarray(coeffs)) ** 2))


class SpectralScalar:
    """A scalar field represented by coefficients in a :class:`Basis`."""

    __slots__ = ("basis", "coeffs", "meta")

    def __init__(self, basis, coeffs, meta=None):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.meta = meta or {}

    def values(self):
        return self.basis.synthesize(self.coeffs)

    def eval(self, z1, z2):
        return self.basis.eval_columns(z1, z2, self.coeffs[:, None])[:, 0]

    def conj(self):
        out = np.empty_like(self.coeffs)
        out[self.basis.conj_index] = np.conj(self.coeffs)
        return SpectralScalar(self.basis, out)

    def real_part(self):
        return SpectralScalar(self.basis, 0.5 * (self.coeffs + self.conj().coeffs))

    def imag_part(self):
        return SpectralScalar(self.basis, (-0.5j) * (self.coeffs - self.conj().coeffs))

    def is_real(self, tol=1e-12):
        return float(np.max(np.abs(self.coeffs - self.conj().coeffs), initial=0.0)) <= tol

    def l2_norm(self):
        return float(np.linalg.norm(self.coeffs))

    def fs_norm(self, order):
        return math.sqrt(self.basis.fs_norm2(self.coeffs, order))

    # arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.basis is not other.basis:
            raise ValueError("operands live on different bases")

    def __add__(self, other):
        self._check(other)
        return SpectralScalar(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralScalar(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralScalar(self.basis, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralScalar(self.basis, -self.coeffs)


def build_basis(degree):
    """Public constructor for the degree-``N`` spectral basis."""
    return Basis.build(degree)


def frame_derivative(f, word):
    """Apply a word in the frame letters {"T", "Z", "Zb"} to a scalar.

    The word is applied as written: ``frame_derivative(f, ["Z", "Zb"])``
    computes Z(Zbar(f)). An empty word returns f unchanged.
    """
    return SpectralScalar(f.basis, f.basis.apply_word(f.coeffs, word))


def multiply(f, g):
    """Pointwise product projected back onto the basis.

    The product is formed nodewise on the quadrature grid and projected
    L^2-orthogonally; the discarded mass is recorded as in
    :meth:`Basis.project_with_mass`.
    """
    f._check(g)
    return f.basis.project_with_mass(f.values() * g.values())


def fs_norm(f, order):
    """Folland-Stein norm of order ``s`` (words over {Z, Zbar} only); a
    diagonal weight on the coefficients, see :meth:`Basis.fs_norm2`."""
    return f.fs_norm(order)
