"""Truncated spectral basis of restricted polynomials on the 3-sphere, in
closed form.

The span of the restricted monomials ``z^a zbar^b``, ``|a| + |b| <= N``, has
one orthonormal basis function per slot ``(d, k1, k2)``,
``|k1| + |k2| <= d <= N``, ``d - k1 - k2`` even: the spherical harmonic of
torus weight ``(k1, k2)`` and bidegree ``(p, q) = ((d+k1+k2)/2, (d-k1-k2)/2)``.
With ``u = |z2|^2`` (uniform on [0, 1] under the normalized round measure),
``a = |k1|``, ``b = |k2|`` and ``n = (d - a - b)/2`` it is

    R_j(u) e^{i k1 phi1} e^{i k2 phi2},   R_j(u) = c (1-u)^{a/2} u^{b/2} P_n^{(a,b)}(2u-1)

with ``P_n^{(a,b)}`` a Jacobi polynomial (Szego, *Orthogonal Polynomials*,
Sec. 4.5). As an ambient polynomial it lives on the monomials
``z1^{k1+} zbar1^{k1-} z2^{k2+ + i} zbar2^{k2- + i}``, ``i = 0..n``. The top
coefficient is ``1/sqrt(nu)``, ``nu`` the squared norm of the monic Jacobi
polynomial in ``u``, ``(n+a)! (n+b)! / ((2n+a+b+1) (n+a+b)! n! C(2n+a+b, n)^2)``;
the others follow from ``c_{i-1} = -c_i i (b+i) / ((n-i+1)(n+a+b+i))``. This
is what Gram-Schmidt on the degree-graded monomials gives, sign included; the
tests keep that exact rational Gram-Schmidt as the oracle.

Z and Zbar are Folland's ladder (Folland, "The tangential Cauchy-Riemann
complex on spheres", Trans. AMS 171, 1972): Zbar sends slot ``(k1, k2, d)``
to ``(k1+1, k2+1, d)`` with entry ``sqrt(q (p+1))``, negated for ``k1 >= 0``,
and annihilates ``q = 0``; Z is minus its transpose. Both keep ``k1 - k2``
and the degree, so they act within the (degree, k1 - k2) chains. T acts
diagonally with eigenvalue ``i * kappa * (k1 + k2)``.

The grid is Gauss in ``u`` times an equispaced torus, so only the real table
``radial = R_j(u_r)`` (the basis at the radial nodes with
``phi1 = phi2 = 0``) is stored. It is evaluated by the Jacobi three-term
recurrence: the monomial form cancels, and its same-weight Gram under the
Gauss weights is off the identity by 6e-13 at N = 12 and 4e-10 at N = 20,
where the recurrence's stays below 5e-15. Synthesis and projection are a
2-D FFT per radial node (the pattern of Driscoll & Healy, 1994) and a sparse
operator built once: synthesis holds R_j(u_r) at (r, torus slot of j),
projection its transpose times the Gauss weight w_r. These are the
quadrature sums of a dense nodes-by-basis matrix, so aliasing is unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
from scipy import sparse

from . import _core
from .geometry import QuadratureGrid, ReferenceGeometry


# moduli up to this bound square and sum without overflow: each square stays
# below 1e300, and floats reach 1.8e308
_SQUARE_LIMIT = 1e150


class NonFiniteError(ValueError):
    """Coefficients or values that hold a NaN or an infinity."""


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


def _radial_table(u, a, b, n):
    """R_j(u) of the module docstring for slots with weights (a, b) and Jacobi
    degree n, shape (len(u), slots): the three-term recurrence of
    P_m^{(a,b)}(2u - 1) (Szego (4.5.1)), run for all slots at once up to the
    largest n, each slot keeping its own term."""
    x = (2.0 * u - 1.0)[:, None]
    p_prev = np.ones((u.size, a.size))
    p = (a + 1) + (a + b + 2) * (x - 1.0) / 2.0
    table = np.where(n == 0, p_prev, p)
    for m in range(2, int(n.max(initial=0)) + 1):
        s = 2 * m + a + b
        p_prev, p = p, (((s - 1) * (s * (s - 2) * x + (a * a - b * b)) * p
                         - 2 * (m + a - 1) * (m + b - 1) * s * p_prev)
                        / (2 * m * (m + a + b) * (s - 2)))
        table[:, n == m] = p[:, n == m]
    # 1 / (C(2n+a+b, n) sqrt(nu)) = sqrt((2n+a+b+1) / prod_{i<=b} (n+i)/(n+a+i))
    ratio = np.ones(a.shape)
    for i in range(1, int(b.max(initial=0)) + 1):
        ratio *= np.where(i <= b, (n + i) / (n + a + i), 1.0)
    scale = np.sqrt((2 * n + a + b + 1) / ratio)
    return np.sqrt(1.0 - u)[:, None] ** a * np.sqrt(u)[:, None] ** b * table * scale


class Basis:
    """Orthonormal spectral basis at a fixed truncation degree.

    Basis functions are stored as real coefficient columns over the monomial
    list (``coeffs``, CSR), ordered degree-major and deterministically within
    each degree. Orthonormality holds in the normalized round L^2 inner product.
    """

    def __init__(self, degree, geometry, grid, exponents, coeffs, k1, k2, degrees):
        self.degree = degree
        self.geometry = geometry
        self.grid = grid
        self.exponents = exponents
        self.coeffs = coeffs  # (n_monomials, size) real float64, CSR
        self.k1 = k1
        self.k2 = k2
        self.degrees = degrees
        self.bidegree_p = (degrees + k1 + k2) // 2
        self.bidegree_q = (degrees - k1 - k2) // 2

        self.size = coeffs.shape[1]
        self._slot = {s: i for i, s in enumerate(zip(k1.tolist(), k2.tolist(), degrees.tolist()))}

        # conj(basis function) is exactly the mirrored-weight basis function.
        self.conj_index = np.array([self._slot[(-int(a), -int(b), int(d))]
                                    for a, b, d in zip(self.k1, self.k2, self.degrees)])

        kappa = float(geometry.kappa)
        self.t_eigs = 1j * kappa * (self.k1 + self.k2).astype(np.float64)

        self.radial = _radial_table(grid.u, np.abs(k1), np.abs(k2),
                                    (degrees - np.abs(k1) - np.abs(k2)) // 2)
        self._synthesis = _core.torus_scatter(self.radial, k1, k2, grid.n_phi)
        weighted = grid.u_weights[:, None] * self.radial
        self._projection = _core.torus_scatter(weighted, k1, k2, grid.n_phi).T

        # Folland's ladder, see the module docstring
        src = np.flatnonzero(self.bidegree_q > 0)
        dst = [self._slot[(a + 1, b + 1, d)] for a, b, d in
               zip(self.k1[src].tolist(), self.k2[src].tolist(), self.degrees[src].tolist())]
        entry = np.sqrt(self.bidegree_q[src] * (self.bidegree_p[src] + 1.0))
        self.frame_zbar_matrix = zb = sparse.csr_array(
            (np.where(self.k1[src] < 0, entry, -entry), (dst, src)), shape=(self.size,) * 2)
        self.frame_z_matrix = z = (-zb.T).tocsr()
        self._word_step = (z.multiply(z) + zb.multiply(zb)).T.tocsr()
        self._fs_levels = [np.ones(self.size)]  # w_0, w_1, ... of fs_norm2
        self._node_tables = None  # built by the first moving flow
        self.basis_id = self._content_hash()

    # -- construction ----------------------------------------------------

    @staticmethod
    def build(degree):
        geometry = ReferenceGeometry.derive()
        grid = QuadratureGrid.build(degree)
        exponents = monomial_exponents(degree)
        exp_index = {e: i for i, e in enumerate(map(tuple, exponents.tolist()))}

        # canonical basis order: degree, then weight sum, then k1
        slots = sorted(((d, k1, k2) for d in range(degree + 1)
                        for k1 in range(-d, d + 1)
                        for k2 in range(abs(k1) - d, d - abs(k1) + 1)
                        if (d - k1 - k2) % 2 == 0),
                       key=lambda s: (s[0], s[1] + s[2], s[1], s[2]))

        entries = []
        f = math.factorial
        for j, (d, k1, k2) in enumerate(slots):
            a, b = abs(k1), abs(k2)
            n = (d - a - b) // 2
            nu = (f(n + a) * f(n + b)) / ((2 * n + a + b + 1) * f(n + a + b) * f(n)
                                         * math.comb(2 * n + a + b, n) ** 2)
            c = 1.0 / math.sqrt(nu)
            for i in range(n, -1, -1):
                row = exp_index[(max(k1, 0), max(k2, 0) + i, max(-k1, 0), max(-k2, 0) + i)]
                entries.append((c, row, j))
                if i:
                    c = -c * i * (b + i) / ((n - i + 1) * (n + a + b + i))
        vals, rows, cols = zip(*entries)
        coeffs = sparse.csr_array((vals, (rows, cols)), shape=(len(exponents), len(slots)))

        d, k1, k2 = np.array(slots, dtype=np.int64).T
        return Basis(degree, geometry, grid, exponents, coeffs, k1, k2, d)

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
        return _core.eval_bilinear(np.asarray(z1, dtype=complex).ravel(),
                                   np.asarray(z2, dtype=complex).ravel(),
                                   self.exponents, self.monomial_coefficients(column_matrix))

    def node_tables(self):
        """The near-node tables of this basis (``_core.NodeTables``: derivative
        gathers and radial scatter), built on first use."""
        if self._node_tables is None:
            self._node_tables = _core.NodeTables(self.exponents, self.grid.u, self.grid.n_phi)
        return self._node_tables

    def synthesize(self, coeffs):
        """Values at the quadrature nodes of the coefficient vector ``coeffs``
        (or of the columns of a (size, k) stack, shape (k, n)): the synthesis
        operator's torus modes, then one inverse 2-D FFT per radial node."""
        return _core.torus_values(self._synthesis, coeffs, self.grid.n_phi)

    def project_values(self, values):
        """L^2-orthogonal projection of a vector of nodewise values onto the
        basis: the quadrature sums, as a 2-D FFT per radial node and the
        projection operator."""
        modes = np.fft.fft2(np.reshape(values, (-1,) + (self.grid.n_phi,) * 2), norm="forward")
        return self._projection @ modes.ravel()

    def project_with_mass(self, values, **meta):
        """Project nodewise values and record the discarded mass.

        The mass is the quadrature norm of ``values`` minus their projection,
        synthesized back at the nodes, stored on the result's
        ``meta["truncation_mass"]`` next to the entries of ``meta``.
        """
        coeffs = self.project_values(values)
        residual = values - self.synthesize(coeffs)
        mass = math.sqrt(float(np.dot(self.grid.weights_normalized, np.abs(residual) ** 2)))
        return SpectralScalar(self, coeffs, meta={"truncation_mass": mass, **meta})

    def monomial_coefficients(self, coeffs):
        """Monomial coefficients of basis-coefficient vectors or columns. The
        real ``coeffs`` multiplies the real and imaginary parts apart: a
        complex product would copy its entries to complex on every call."""
        c = np.asarray(coeffs)
        return self.coeffs @ c.real + 1j * (self.coeffs @ c.imag)

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

    def random_scalar(self, rng, max_degree=None):
        """Seeded random complex element, optionally band-limited."""
        max_degree = self.degree if max_degree is None else max_degree
        c = rng.standard_normal(self.size) + 1j * rng.standard_normal(self.size)
        c[self.degrees > max_degree] = 0.0
        return self.scalar(c)

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
        """The Euclidean norm of the coefficients; above _SQUARE_LIMIT they are
        scaled by the largest modulus first, so that no square overflows."""
        peak = float(np.abs(self.coeffs).max(initial=0.0))
        if _SQUARE_LIMIT < peak < np.inf:
            return peak * float(np.linalg.norm(self.coeffs / peak))
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


class Componentwise:
    """Linear arithmetic for a dataclass whose fields are spectral scalars,
    field by field: the sum and difference of two instances, and a multiple
    by a number."""

    def _parts(self):
        return [getattr(self, f.name) for f in dataclasses.fields(self)]

    def __add__(self, other):
        return type(self)(*[a + b for a, b in zip(self._parts(), other._parts())])

    def __sub__(self, other):
        return type(self)(*[a - b for a, b in zip(self._parts(), other._parts())])

    def __mul__(self, scalar):
        return type(self)(*[a * scalar for a in self._parts()])

    __rmul__ = __mul__


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
