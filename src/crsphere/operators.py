"""Linear CR operator suite on the truncated spectral spaces.

Everything here is a finite matrix acting on basis coefficients. The frame
derivative Z̄ moves the one-dimensional slot (k1, k2, d) to (k1+1, k2+1, d),
so every operator in this module is block diagonal over the (d, k1 − k2)
chains of the basis (at most d + 1 slots each). □_b, the Szegő projector and
the π_Re system are diagonal; the homotopy inverses are closed forms, stored
sparse, and the associated projectors are orthogonal in the inner products
induced by the adapted metric.

Metric weights (derived from the Levi constant ℓ = 1/2):

* scalars: weight 1;
* (0,1)-forms a ω̄: weight 1/ℓ (|ω̄|² = 1/ℓ);
* fields f T + h Z: weights (1, ℓ);
* field-valued forms (p ω̄)⊗T + (q ω̄)⊗Z: weights (1/ℓ, 1).

The tangential complex on fields, in components, is

    ∂̄(f T + h Z) = (Z̄f + iℓ h) ω̄⊗T + (Z̄h) ω̄⊗Z,

where the iℓ h term is the T-component of π₍₁,₀₎[Z̄, hZ] coming from the
bracket [Z̄, Z] = iℓ T.

The homotopy inverses are the weighted pseudo-inverses in these metrics, in
closed form. Write Z̄ e_s = c_s e_σ(s), with the real ladder entry c_s = 0 when
q_s = 0, and let a_s be the entry into s from its preimage s⁻ (0 if s has
none). Z̄ is 1-sparse and injective on the slots it does not annihilate, so
Z̄⁺ is Z̄ᵀ with reciprocal entries. B(f, h) = (Z̄f + iℓh, Z̄h) sends the
unknowns (h_s, f_s⁻) only to the equations (p_s, q_σ(s)), through
[[iℓ, a_s], [c_s, 0]]; these groups are orthogonal in the diagonal weights,
so B⁺ is their direct sum:

* a_s c_s ≠ 0: the group is invertible, h_s = q_σ(s)/c_s and
  f_s⁻ = (p_s − iℓ h_s)/a_s;
* otherwise, with d_s = ℓ + a_s² + c_s², the weighted least-squares
  minimum-norm answer is h_s = (−i p_s + c_s q_σ(s))/d_s, f_s⁻ = a_s p_s/d_s;
* f_s = 0 where Z̄ e_s = 0 (it is in ker B), and B⁺ drops q_t at a slot t
  with no preimage (it is orthogonal to range B).

With S = diag(a_s c_s ≠ 0) and R = diag((1 − S_s)/d_s), c_s q_σ(s) = (Z̄ᵀq)_s and
a_s p_s = (Z̄ᵀp)_s⁻, so B⁺ = [[Z̄⁺S + Z̄ᵀR, −iℓ Z̄⁺SZ̄⁺], [−iR, SZ̄⁺ + RZ̄ᵀ]].

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

from .basis import Basis, Componentwise, NonFiniteError, SpectralScalar


# ---------------------------------------------------------------------------
# coefficient-space value types


@dataclass
class ScalarForm01(Componentwise):
    """A scalar (0,1)-form α = a ω̄."""

    a: SpectralScalar

    def fs_norm(self, order):
        weight = 1.0 / float(self.a.basis.geometry.levi)
        return np.sqrt(weight) * self.a.fs_norm(order)


@dataclass
class HolField(Componentwise):
    """A section V = f T + h Z of the holomorphic tangent sum C·T ⊕ H₍₁,₀₎."""

    f: SpectralScalar
    h: SpectralScalar

    def fs_norm(self, order):
        levi = float(self.f.basis.geometry.levi)
        return float(np.sqrt(self.f.fs_norm(order) ** 2 + levi * self.h.fs_norm(order) ** 2))


@dataclass
class FieldForm01(Componentwise):
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


# ---------------------------------------------------------------------------


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

        # Z̄⁺ = Z̄ᵀ with reciprocal entries, see the module docstring
        self.p_sc_matrix = zp = dzb.T.power(-1).tocsr()
        self.s_sc_matrix = eye - dzb @ self.p_sc_matrix
        # ker(Z̄) is exactly the CR (holomorphic-restriction) part of the basis
        self.szego_mask = (basis.bidegree_q == 0).astype(float)
        # K on complex contact fields, see the module docstring
        self.harmonic_mask = (basis.bidegree_q <= 1).astype(float)
        szego = sparse.diags_array(self.szego_mask)
        defect = abs(eye - self.p_sc_matrix @ dzb - szego).max()
        if defect > 1e-10:
            raise AssertionError(f"Szegő projector disagrees with pseudo-inverse ({defect:.2e})")

        # squared ladder entries out of (c²) and into (a²) each slot
        entries2 = dzb.multiply(dzb)
        c2, a2 = entries2.sum(axis=0), entries2.sum(axis=1)
        # □_b = ∂̄* ∂̄ with the (0,1)-form weight 1/ℓ folded into the adjoint;
        # Z̄ is 1-sparse and injective on slots, so □_b is the diagonal c²/ℓ
        self.box_diag = c2 / levi

        # field complex B: (f, h) -> (p, q) packed as stacked coefficient vectors
        self.b_vec_matrix = sparse.block_array([[dzb, levi * 1j * eye], [None, dzb]], format="csr")
        # B⁺ from the slot groups of the module docstring
        is_square = a2 * c2 != 0
        square = sparse.diags_array(is_square.astype(float))
        rest = sparse.diags_array(np.where(is_square, 0.0, 1.0 / (levi + a2 + c2)))
        self.p_vec_matrix = sparse.block_array(
            [[zp @ square + dzb.T @ rest, -1j * levi * zp @ square @ zp],
             [-1j * rest, square @ zp + rest @ dzb.T]], format="csr")
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

        For real u the left side is u + Re(□_b u), a diagonal of entries at
        least 1, so a finite right-hand side gives a finite exact quotient.
        """
        if not np.isfinite(rhs.coeffs).all():
            raise NonFiniteError("pi_Re right-hand side has a NaN or infinite coefficient")
        return self.basis.scalar(rhs.coeffs / self._pi_re_diag)
