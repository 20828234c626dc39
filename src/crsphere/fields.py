"""Contact vector fields, their complex relatives, and the splitting machinery.

Real contact fields are parameterized by a real generating function g:
X = g T + h Z + h̄ Z̄ with the horizontal part forced by the contact
condition (h = 2i Z̄g in this frame). Complex contact fields are the
holomorphic-tangent analogue Z_f = f T − (∂̄f)♯ = f T + (2i Z̄f) Z with a
complex parameter f; real parameters recover real contact fields under the
standard identification.

π_Re splits a complex contact field into a real contact field and a
remainder in the complement V = {Y : π_Re(iY) = 0}; it is computed by one
SPD solve of (I + Δ_Q/4) u = Re(f + □_b f) per application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Componentwise, NonFiniteError, SpectralScalar
from .operators import HolField, OperatorSuite


@dataclass
class ContactField(Componentwise):
    """A real contact vector field X = g T + h Z + h̄ Z̄, g = X⌟η real."""

    generating: SpectralScalar
    horizontal: SpectralScalar

    @property
    def basis(self):
        return self.generating.basis

    def as_hol_field(self) -> HolField:
        """Image under the identification with complex contact fields."""
        return HolField(self.generating, self.horizontal)

    def fs_norm(self, order):
        return complex_contact_norm(self.generating, order)

    def contact_residual(self, suite: OperatorSuite, order=0):
        """ω̄-component of d(X⌟η) + X⌟dη: Z̄g + iℓ h, zero for contact X."""
        defect = suite.dbar_scalar(self.generating).a + suite.lam_flat * self.horizontal
        return defect.fs_norm(order)


@dataclass
class ComplexContactField(Componentwise):
    """Z_f = f T − (∂̄f)♯, parameterized by the complex scalar f."""

    parameter: SpectralScalar
    horizontal: SpectralScalar

    @property
    def basis(self):
        return self.parameter.basis

    def as_hol_field(self) -> HolField:
        return HolField(self.parameter, self.horizontal)

    def fs_norm(self, order):
        return complex_contact_norm(self.parameter, order)

    def definition_residual(self, suite: OperatorSuite, order=0):
        """∂̄_b(Z⌟η) + π^{(0,1)}(Z⌟dη) evaluated in the frame."""
        defect = suite.dbar_scalar(self.parameter).a + suite.lam_flat * self.horizontal
        return defect.fs_norm(order)


@dataclass
class VField:
    """A complex contact field in the complement V, with its certificate."""

    field: ComplexContactField
    certificate: float  # ||pi_Re(i Y)|| at construction

    @property
    def parameter(self):
        return self.field.parameter

    def fs_norm(self, order):
        return self.field.fs_norm(order)


def complex_contact_norm(f: SpectralScalar, order):
    """||Z_f||_s^2 = ||f||_s^2 + ||∂̄f||_s^2 (form weight folded in)."""
    basis = f.basis
    dbar = basis.scalar(basis.frame_zbar_matrix @ f.coeffs)
    weight = 1.0 / float(basis.geometry.levi)
    return float(np.sqrt(f.fs_norm(order) ** 2 + weight * dbar.fs_norm(order) ** 2))


def _horizontal_from_parameter(suite: OperatorSuite, f: SpectralScalar) -> SpectralScalar:
    """h = −(∂̄f)♯ frame coefficient = 2i Z̄f in this convention."""
    return -1.0 * suite.sharp(suite.dbar_scalar(f))


def contact_from_generating(suite: OperatorSuite, g: SpectralScalar) -> ContactField:
    """Real contact field with X⌟η = g; rejects non-finite or non-real g."""
    if not np.isfinite(g.coeffs).all():
        raise NonFiniteError("generating function of a contact field must be finite")
    if not g.is_real(1e-12 * max(1.0, g.l2_norm())):
        raise ValueError("generating function of a contact field must be real")
    g = g.real_part()
    return ContactField(g, _horizontal_from_parameter(suite, g))


def complex_contact(suite: OperatorSuite, f: SpectralScalar) -> ComplexContactField:
    return ComplexContactField(f, _horizontal_from_parameter(suite, f))


def phat_shat(suite: OperatorSuite, V: HolField):
    """Split V into its complex contact projection and the Ŝ complement.

    P̂V = (H(η(V)) − P_sc(V♭)) T + (∂̄ P_sc(V♭))♯ and ŜV covers the rest;
    V = P̂V + ŜV exactly on the truncated space.
    """
    flat_coeff = suite.flat(V.h)  # (iℓ h) ω̄
    p_flat = suite.p_scalar(flat_coeff)
    f_hat = suite.szego(V.f) - p_flat
    phat = complex_contact(suite, f_hat)
    shat_f = suite.p_scalar(suite.dbar_scalar(V.f)) + p_flat
    shat_h = suite.sharp(suite.s_scalar(flat_coeff))
    return phat, HolField(shat_f, shat_h)


def pi_re(suite: OperatorSuite, Z: ComplexContactField) -> ContactField:
    """Real contact part of Z_f: generating u solves (I + Δ_Q/4)u = Re(f + □f)."""
    f = Z.parameter
    rhs = (f + suite.box_b(f)).real_part()
    u = suite.pi_re_solve(rhs)
    return ContactField(u, _horizontal_from_parameter(suite, u))


def pi_im(suite: OperatorSuite, Z: ComplexContactField) -> VField:
    """Complement part: Y with Z = π_Re(Z) − iY, certified to lie in V."""
    x = pi_re(suite, Z)
    y_param = 1j * (Z.parameter - x.generating)
    y = complex_contact(suite, y_param)
    cert = pi_re(suite, complex_contact(suite, 1j * y_param)).generating.l2_norm()
    return VField(y, cert)


def decompose(suite: OperatorSuite, Z: ComplexContactField):
    """Z = X − iY with X real contact and Y ∈ V."""
    x = pi_re(suite, Z)
    y = pi_im(suite, Z)
    return x, y

