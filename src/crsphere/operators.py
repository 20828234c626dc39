"""Linear CR operator suite on the truncated spectral spaces.

Everything here is a finite matrix acting on basis coefficients. The frame
derivative Z̄ moves the one-dimensional slot (k1, k2, d) to (k1+1, k2+1, d),
so every operator in this module is block diagonal over the (d, k1 − k2)
chains of the basis (``Basis.chains``; at most d + 1 slots each). □_b, the
Szegő projector and the π_Re system are diagonal; homotopy inverses are
per-chain pseudo-inverses, stored sparse, and the associated projectors are
orthogonal in the inner products induced by the adapted metric.

Metric weights (derived from the Levi constant ℓ = 1/2):

* scalars: weight 1;
* (0,1)-forms a ω̄: weight 1/ℓ (|ω̄|² = 1/ℓ);
* fields f T + h Z: weights (1, ℓ);
* field-valued forms (p ω̄)⊗T + (q ω̄)⊗Z: weights (1/ℓ, 1).

The tangential complex on fields, in components, is

    ∂̄(f T + h Z) = (Z̄f + iℓ h) ω̄⊗T + (Z̄h) ω̄⊗Z,

where the iℓ h term is the T-component of π₍₁,₀₎[Z̄, hZ] coming from the
bracket [Z̄, Z] = iℓ T.

On complex contact fields Z_f = (f, 2i Z̄f) the harmonic projector K = I − PB
is the slot mask M = diag(q ≤ 1), K(Z_f) = Z_{Mf}:

* ker B = {Z_f : Z̄²f = 0}, since h = 2i Z̄f solves Z̄f + iℓ h = 0 (ℓ = 1/2);
* so ker B is spanned by the Z_{e_i} with q_i ≤ 1;
* all Z_{e_i} are mutually orthogonal in the (1, ℓ) field metric, because Z̄
  is 1-sparse and injective on slots, so K(Z_{e_i}) is Z_{e_i} or 0.

The gauge projection and the harmonic-free generators of ``normal_form`` use
M directly; ``k_harm`` stays the general operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .basis import Basis, SpectralScalar

PINV_RCOND = 1e-9


# ---------------------------------------------------------------------------
# coefficient-space value types


@dataclass
class ScalarForm01:
    """A scalar (0,1)-form α = a ω̄."""

    a: SpectralScalar

    def fs_norm(self, order):
        weight = 1.0 / float(self.a.basis.geometry.levi)
        return np.sqrt(weight) * self.a.fs_norm(order)

    def __add__(self, other):
        return ScalarForm01(self.a + other.a)

    def __sub__(self, other):
        return ScalarForm01(self.a - other.a)

    def __mul__(self, scalar):
        return ScalarForm01(self.a * scalar)

    __rmul__ = __mul__


@dataclass
class HolField:
    """A section V = f T + h Z of the holomorphic tangent sum C·T ⊕ H₍₁,₀₎."""

    f: SpectralScalar
    h: SpectralScalar

    def fs_norm(self, order):
        levi = float(self.f.basis.geometry.levi)
        return float(np.sqrt(self.f.fs_norm(order) ** 2 + levi * self.h.fs_norm(order) ** 2))

    def __add__(self, other):
        return HolField(self.f + other.f, self.h + other.h)

    def __sub__(self, other):
        return HolField(self.f - other.f, self.h - other.h)

    def __mul__(self, scalar):
        return HolField(self.f * scalar, self.h * scalar)

    __rmul__ = __mul__


@dataclass
class FieldForm01:
    """A field-valued (0,1)-form Φ = (p ω̄)⊗T + (q ω̄)⊗Z.

    Deformation tensors are the H-valued case p = 0.
    """

    p: SpectralScalar
    q: SpectralScalar

    def fs_norm(self, order):
        levi = float(self.p.basis.geometry.levi)
        return float(np.sqrt(self.p.fs_norm(order) ** 2 / levi + self.q.fs_norm(order) ** 2))

    def h_valued_defect(self, order=0):
        return np.sqrt(1.0 / float(self.p.basis.geometry.levi)) * self.p.fs_norm(order)

    def __add__(self, other):
        return FieldForm01(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        return FieldForm01(self.p - other.p, self.q - other.q)

    def __mul__(self, scalar):
        return FieldForm01(self.p * scalar, self.q * scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------


def _blockwise_pinv(mat, blocks, dom_weight, cod_weight):
    """Per-block weighted pseudo-inverse, as a sparse matrix.

    Returns P with P y = argmin ||x||_dom over minimizers of ||mat x − y||_cod,
    block by block. Each block is an index array whose span ``mat`` maps into
    itself; weights are per-coordinate diagonals.
    """
    sd = np.sqrt(dom_weight)
    sc = np.sqrt(cod_weight)
    rows, cols, vals = [], [], []
    for idx in blocks:
        block = mat[idx[:, None], idx].toarray()
        weighted = sc[idx, None] * block / sd[None, idx]
        pinv = np.linalg.pinv(weighted, rcond=PINV_RCOND)
        rows.append(np.repeat(idx, idx.size))
        cols.append(np.tile(idx, idx.size))
        vals.append(((pinv / sd[idx, None]) * sc[None, idx]).ravel())
    n_cod, n_dom = mat.shape
    return sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n_dom, n_cod))


class OperatorSuite:
    """All linear CR operators for one basis; immutable after construction."""

    def __init__(self, basis: Basis):
        self.basis = basis
        nb = basis.size
        levi = float(basis.geometry.levi)
        self.levi = levi
        # flat(h Z) = (iℓ h) ω̄ and sharp is its inverse
        self.lam_flat = 1j * levi
        self.lam_sharp = 1.0 / self.lam_flat

        dzb = basis.frame_zbar_matrix
        eye = sparse.eye_array(nb, format="csr")

        self.p_sc_matrix = _blockwise_pinv(dzb, basis.chains, np.ones(nb), np.ones(nb))
        self.s_sc_matrix = eye - dzb @ self.p_sc_matrix
        # ker(Z̄) is exactly the CR (holomorphic-restriction) part of the basis
        self.szego_mask = (basis.bidegree_q == 0).astype(float)
        # K on complex contact fields, see the module docstring
        self.harmonic_mask = (basis.bidegree_q <= 1).astype(float)
        szego = sparse.diags_array(self.szego_mask)
        defect = abs(eye - self.p_sc_matrix @ dzb - szego).max()
        if defect > 1e-10:
            raise AssertionError(f"Szegő projector disagrees with pseudo-inverse ({defect:.2e})")

        # □_b = ∂̄* ∂̄ with the (0,1)-form weight 1/ℓ folded into the adjoint;
        # Z̄ is 1-sparse and injective on slots, so □_b is the diagonal
        # b_i = (1/ℓ) Σ_j Z̄_ji²
        self.box_diag = (1.0 / levi) * dzb.multiply(dzb).sum(axis=0)

        # field complex B: (f, h) -> (p, q) packed as stacked coefficient vectors
        self.b_vec_matrix = sparse.block_array([[dzb, levi * 1j * eye], [None, dzb]], format="csr")
        field_dom_weight = np.concatenate([np.ones(nb), np.full(nb, levi)])
        field_cod_weight = np.concatenate([np.full(nb, 1.0 / levi), np.ones(nb)])
        field_blocks = [np.concatenate([idx, nb + idx]) for idx in basis.chains]
        self.p_vec_matrix = _blockwise_pinv(
            self.b_vec_matrix, field_blocks, field_dom_weight, field_cod_weight
        )
        eye2 = sparse.eye_array(2 * nb, format="csr")
        self.q_vec_matrix = eye2 - self.b_vec_matrix @ self.p_vec_matrix
        self.k_harm_matrix = eye2 - self.p_vec_matrix @ self.b_vec_matrix

        # For real u, u + Re(□_b u) is diagonal: conjugation sends slot i to
        # σ(i) = conj_index[i], so Re(□_b u)_i = (b_i + b_σ(i)) / 2 · u_i.
        self._pi_re_diag = 1.0 + 0.5 * (self.box_diag + self.box_diag[basis.conj_index])

        # Combined homotopy on deformation tensors. A complex contact field
        # Z_g packs as (g, 2i Z̄g); the parameter of the projection of a field
        # V = (f, h) onto complex contact fields is H f - flat-constant * P_sc h,
        # and the harmonic slots are masked out so that ker(combined P)
        # contains range(combined Q) exactly.
        self.z_pack_matrix = sparse.vstack([eye, 2j * dzb], format="csr")
        phat_param = sparse.hstack([szego, -self.lam_flat * self.p_sc_matrix], format="csr")
        self.combined_p_param_matrix = (
            sparse.diags_array(1.0 - self.harmonic_mask) @ phat_param @ self.p_vec_matrix)
        self.combined_q_matrix = eye2 - self.b_vec_matrix @ self.z_pack_matrix @ self.combined_p_param_matrix

    def combined_p_param(self, Phi: FieldForm01) -> SpectralScalar:
        """Parameter f of the combined homotopy field (a complex contact field)."""
        return self.basis.scalar(self.combined_p_param_matrix @ self._pack_form(Phi))

    def combined_q(self, Phi: FieldForm01) -> FieldForm01:
        """Complement piece of the homotopy Φ = ∂̄ Z_{param} + Q Φ."""
        return self._unpack_form(self.combined_q_matrix @ self._pack_form(Phi))

    # -- scalar complex -----------------------------------------------------

    def dbar_scalar(self, f: SpectralScalar) -> ScalarForm01:
        return ScalarForm01(self.basis.scalar(self.basis.frame_zbar_matrix @ f.coeffs))

    def box_b(self, f: SpectralScalar) -> SpectralScalar:
        return self.basis.scalar(self.box_diag * f.coeffs)

    def delta_Q(self, u: SpectralScalar) -> SpectralScalar:
        """Defined through Re(u + □_b u) = u + Δ_Q u / 4 (n = 1)."""
        return 4.0 * ((u + self.box_b(u)).real_part() - u)

    def szego(self, f: SpectralScalar) -> SpectralScalar:
        return self.basis.scalar(self.szego_mask * f.coeffs)

    def p_scalar(self, alpha: ScalarForm01) -> SpectralScalar:
        return self.basis.scalar(self.p_sc_matrix @ alpha.a.coeffs)

    def s_scalar(self, alpha: ScalarForm01) -> ScalarForm01:
        return ScalarForm01(self.basis.scalar(self.s_sc_matrix @ alpha.a.coeffs))

    # -- field complex ------------------------------------------------------

    def _pack_field(self, V: HolField):
        return np.concatenate([V.f.coeffs, V.h.coeffs])

    def _unpack_field(self, vec) -> HolField:
        nb = self.basis.size
        return HolField(self.basis.scalar(vec[:nb]), self.basis.scalar(vec[nb:]))

    def _pack_form(self, Phi: FieldForm01):
        return np.concatenate([Phi.p.coeffs, Phi.q.coeffs])

    def _unpack_form(self, vec) -> FieldForm01:
        nb = self.basis.size
        return FieldForm01(self.basis.scalar(vec[:nb]), self.basis.scalar(vec[nb:]))

    def dbar_field(self, V: HolField) -> FieldForm01:
        """∂̄V(Z̄) = π₍₁,₀₎[Z̄, V] via the structure constants of the frame."""
        return self._unpack_form(self.b_vec_matrix @ self._pack_field(V))

    def p_field(self, Phi: FieldForm01) -> HolField:
        return self._unpack_field(self.p_vec_matrix @ self._pack_form(Phi))

    def q_field(self, Phi: FieldForm01) -> FieldForm01:
        return self._unpack_form(self.q_vec_matrix @ self._pack_form(Phi))

    def k_harm(self, V: HolField) -> HolField:
        return self._unpack_field(self.k_harm_matrix @ self._pack_field(V))

    # -- musical isomorphisms on the horizontal bundle -----------------------

    def flat(self, h: SpectralScalar) -> ScalarForm01:
        """♭ of the horizontal field h Z: contraction with dη gives (iℓ h) ω̄."""
        return ScalarForm01(h * self.lam_flat)

    def sharp(self, alpha: ScalarForm01) -> SpectralScalar:
        """Frame coefficient of ♯α, the inverse of ♭."""
        return alpha.a * self.lam_sharp

    # -- real projection solve -----------------------------------------------

    def pi_re_solve(self, rhs: SpectralScalar) -> SpectralScalar:
        """Solve (I + Δ_Q/4) u = rhs for real u, rhs real.

        For real u the left side is u + Re(□_b u), a positive diagonal.
        """
        r = rhs.coeffs
        u = r / self._pi_re_diag
        resid = np.linalg.norm(self._pi_re_diag * u - r)
        if resid > 1e-10 * max(1.0, np.linalg.norm(r)):
            raise ArithmeticError(f"pi_Re solve residual {resid:.2e}")
        return self.basis.scalar(u)
