"""Reference CR geometry of the unit 3-sphere in C^2.

Everything downstream is phrased in one fixed frame on S^3:

* ``Z    = conj(z2) d/dz1 - conj(z1) d/dz2``   (spans the (1,0) horizontal bundle)
* ``Zbar = z2 d/dzbar1 - z1 d/dzbar2``         (its conjugate)
* ``T    = i*kappa*(z . d/dz - zbar . d/dzbar)``  (Reeb field)

with contact form ``eta = scale * Im(zbar . dz)`` and dual coframe
``omega = z2 dz1 - z1 dz2`` (so ``omega(Z) = 1`` on the sphere).

The two normalization constants are *derived*, not assumed: ``scale`` is fixed
by requiring ``d eta = (i/2) omega ^ conj(omega)`` on the sphere, and ``kappa``
then follows from the Reeb condition ``eta(T) = 1``. ``ReferenceGeometry``
performs that derivation with exact rational arithmetic on the coefficient
polynomials and records the resulting Levi constant
``levi = -i * d eta(Z, Zbar)`` (strict pseudoconvexity means ``levi > 0``).

The quadrature grid lives here too: Hopf coordinates
``z1 = cos(theta) e^{i phi1}``, ``z2 = sin(theta) e^{i phi2}`` with the measure
``dsigma = cos(theta) sin(theta) dtheta dphi1 dphi2`` (total volume 2 pi^2).
Product grids that are uniform in both angles and Gauss-Legendre in
``u = sin^2(theta)`` integrate every monomial ``z^a zbar^b`` of total degree
up to ``2N + 4`` exactly, which is the contract the basis layer relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Monomials in the ambient variables are keyed by exponent tuples
# (a1, a2, b1, b2) meaning z1^a1 z2^a2 zbar1^b1 zbar2^b2. Coefficients are
# Gaussian rationals stored as (Fraction real, Fraction imag) pairs so the
# frame algebra below is exact.

_I = (Fraction(0), Fraction(1))
_ONE = (Fraction(1), Fraction(0))


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        w = _cadd(out.get(k, (Fraction(0), Fraction(0))), v)
        if w == (0, 0):
            out.pop(k, None)
        else:
            out[k] = w
    return out


def _poly_scale(p, c):
    return {k: _cmul(v, c) for k, v in p.items()}


def _poly_mul(p, q):
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            w = _cadd(out.get(k, (Fraction(0), Fraction(0))), _cmul(va, vb))
            if w == (0, 0):
                out.pop(k, None)
            else:
                out[k] = w
    return out


def _poly_diff(p, slot):
    """Partial derivative with respect to coordinate ``slot`` (0..3)."""
    out = {}
    for k, v in p.items():
        if k[slot] == 0:
            continue
        kk = list(k)
        c = Fraction(kk[slot])
        kk[slot] -= 1
        out[tuple(kk)] = _cmul(v, (c, Fraction(0)))
    return out


class FramePoly:
    """A vector field on C^2 given by four polynomial coefficients.

    ``comps[j]`` multiplies d/dx_j where x = (z1, z2, zbar1, zbar2).
    """

    def __init__(self, comps):
        self.comps = [dict(c) for c in comps]

    def apply(self, p):
        out = {}
        for j in range(4):
            out = _poly_add(out, _poly_mul(self.comps[j], _poly_diff(p, j)))
        return out

    def bracket(self, other):
        comps = []
        for j in range(4):
            comps.append(_poly_add(self.apply(other.comps[j]),
                                   _poly_scale(other.apply(self.comps[j]), (Fraction(-1), Fraction(0)))))
        return FramePoly(comps)

    def scaled(self, c):
        return FramePoly([_poly_scale(comp, c) for comp in self.comps])


def _mono(a1, a2, b1, b2, coeff=_ONE):
    return {(a1, a2, b1, b2): coeff}


def _frame_z():
    # Z = zbar2 d/dz1 - zbar1 d/dz2
    return FramePoly([
        _mono(0, 0, 0, 1),
        _mono(0, 0, 1, 0, (Fraction(-1), Fraction(0))),
        {},
        {},
    ])


def _frame_zbar():
    # Zbar = z2 d/dzbar1 - z1 d/dzbar2
    return FramePoly([
        {},
        {},
        _mono(0, 1, 0, 0),
        _mono(1, 0, 0, 0, (Fraction(-1), Fraction(0))),
    ])


def _frame_t_unscaled():
    # i*(z1 d/dz1 + z2 d/dz2 - zbar1 d/dzbar1 - zbar2 d/dzbar2)
    return FramePoly([
        _mono(1, 0, 0, 0, _I),
        _mono(0, 1, 0, 0, _I),
        _mono(0, 0, 1, 0, (Fraction(0), Fraction(-1))),
        _mono(0, 0, 0, 1, (Fraction(0), Fraction(-1))),
    ])


def _restrict_to_sphere(p):
    """Reduce a polynomial modulo |z1|^2 + |z2|^2 = 1.

    Substitutes zbar1*z1 -> 1 - z2*zbar2 repeatedly; the result has no
    monomial with both a1 > 0 and b1 > 0. Only used for small identity
    checks during the derivation, never in the numerical pipeline.
    """
    work = dict(p)
    changed = True
    while changed:
        changed = False
        for k in list(work.keys()):
            a1, a2, b1, b2 = k
            if a1 > 0 and b1 > 0:
                v = work.pop(k)
                rep = _poly_scale(_mono(a1 - 1, a2, b1 - 1, b2, v), _ONE)
                sub = _poly_add(rep, _poly_scale(_mono(a1 - 1, a2 + 1, b1 - 1, b2 + 1, v),
                                                 (Fraction(-1), Fraction(0))))
                work = _poly_add(work, sub)
                changed = True
                break
    return work


def _poly_is_zero_on_sphere(p):
    return len(_restrict_to_sphere(p)) == 0


@dataclass(frozen=True)
class ReferenceGeometry:
    """Derived normalization data for the round CR sphere.

    Attributes
    ----------
    eta_scale : Fraction
        ``eta = eta_scale * Im(conj(z) . dz)``.
    kappa : Fraction
        Reeb scale, ``T = i*kappa*(z . d/dz - zbar . d/dzbar)``.
    levi : Fraction
        ``-i * d eta(Z, Zbar)`` on the sphere; positive.
    """

    eta_scale: Fraction
    kappa: Fraction
    levi: Fraction
    bracket_z_zbar_vs_t: Fraction = field(default=Fraction(0))
    bracket_t_z_vs_z: complex = 0j

    @staticmethod
    def derive() -> "ReferenceGeometry":
        """Fix the two scales from the Reeb conditions and assert the frame algebra.

        d(eta_raw) with eta_raw = Im(zbar . dz) pairs (Z, Zbar) to i|z|^2, so
        requiring d eta(Z, Zbar) = (i/2) * [omega^omegabar](Z, Zbar) = i/2 on
        |z| = 1 forces eta_scale = 1/2, and eta(T) = 1 then forces kappa = 2.
        The arithmetic below re-derives that instead of trusting the comment.
        """
        # d(eta_raw) = i (dz1 ^ dzbar1 + dz2 ^ dzbar2); its value on a pair of
        # polynomial fields (V, W) is i * sum_j (V_j W_{j+2} - V_{j+2} W_j).
        def two_form_raw(v, w):
            acc = {}
            for j in range(2):
                acc = _poly_add(acc, _poly_mul(v.comps[j], w.comps[j + 2]))
                acc = _poly_add(acc, _poly_scale(_poly_mul(v.comps[j + 2], w.comps[j]),
                                                 (Fraction(-1), Fraction(0))))
            return _poly_scale(acc, _I)

        z_field = _frame_z()
        zbar_field = _frame_zbar()
        t_unscaled = _frame_t_unscaled()

        # d eta_raw (Z, Zbar) restricted to the sphere must be a constant.
        pairing = _restrict_to_sphere(two_form_raw(z_field, zbar_field))
        if set(pairing) != {(0, 0, 0, 0)}:
            raise AssertionError("d eta_raw (Z, Zbar) is not constant on the sphere")
        re_part, im_part = pairing[(0, 0, 0, 0)]
        if re_part != 0:
            raise AssertionError("d eta_raw (Z, Zbar) is not purely imaginary")
        eta_scale = Fraction(1, 2) / im_part  # want i/2 overall

        # eta_raw(T_unscaled) = |z|^2 = 1 on the sphere, through the raw pairing
        # eta_raw(V) = (1/2i)(zbar . V_z - z . V_zbar).
        def eta_raw_of(v):
            acc = {}
            acc = _poly_add(acc, _poly_mul(_mono(0, 0, 1, 0), v.comps[0]))
            acc = _poly_add(acc, _poly_mul(_mono(0, 0, 0, 1), v.comps[1]))
            acc = _poly_add(acc, _poly_scale(_poly_mul(_mono(1, 0, 0, 0), v.comps[2]),
                                             (Fraction(-1), Fraction(0))))
            acc = _poly_add(acc, _poly_scale(_poly_mul(_mono(0, 1, 0, 0), v.comps[3]),
                                             (Fraction(-1), Fraction(0))))
            return _poly_scale(acc, (Fraction(0), Fraction(-1, 2)))  # 1/(2i)

        t_pairing = _restrict_to_sphere(eta_raw_of(t_unscaled))
        if set(t_pairing) != {(0, 0, 0, 0)} or t_pairing[(0, 0, 0, 0)][1] != 0:
            raise AssertionError("eta_raw(T) is not a real constant on the sphere")
        kappa = 1 / (eta_scale * t_pairing[(0, 0, 0, 0)][0])

        t_field = t_unscaled.scaled((kappa, Fraction(0)))

        # Reeb condition T -| d eta = 0: check against both frame legs.
        for leg in (z_field, zbar_field):
            form = _poly_scale(two_form_raw(t_field, leg), (eta_scale, Fraction(0)))
            if not _poly_is_zero_on_sphere(form):
                raise AssertionError("T does not annihilate d eta on the sphere")

        # levi = -i * d eta(Z, Zbar); d eta(Z, Zbar) is purely imaginary, so the
        # Levi constant is its imaginary part after the eta_scale rescaling.
        levi_pairing = _poly_scale(pairing, (eta_scale, Fraction(0)))
        levi = levi_pairing[(0, 0, 0, 0)][1]
        if levi <= 0:
            raise AssertionError("Levi form is not positive: sphere not strictly pseudoconvex")

        # Structure constants: [Z, Zbar] = -i * levi_ratio * T and [T, Z] = c * Z.
        bz = z_field.bracket(zbar_field)
        # Compare with T componentwise: [Z,Zbar] must equal mu * T for scalar mu.
        mu = None
        for j in range(4):
            diff_keys = set(bz.comps[j]) | set(t_field.comps[j])
            for k in diff_keys:
                num = bz.comps[j].get(k)
                den = t_field.comps[j].get(k)
                if (num is None) != (den is None):
                    raise AssertionError("[Z, Zbar] is not proportional to T")
                if den is None:
                    continue
                ratio = _cmul(num, _cinv(den))
                if mu is None:
                    mu = ratio
                elif mu != ratio:
                    raise AssertionError("[Z, Zbar] is not proportional to T")
        if mu is None or mu[0] != 0:
            raise AssertionError("[Z, Zbar] is not an imaginary multiple of T")
        # mu = -i * (levi ratio): record levi consistency [Z,Zbar] = -(i*levi/eta-units) T
        bracket_ratio = -mu[1]  # [Z,Zbar] = -i*bracket_ratio*T
        if bracket_ratio != levi:
            raise AssertionError("Levi constant does not match [Z, Zbar] pairing")

        tz = t_field.bracket(z_field)
        lam = None
        for j in range(4):
            for k in set(tz.comps[j]) | set(z_field.comps[j]):
                num = tz.comps[j].get(k)
                den = z_field.comps[j].get(k)
                if (num is None) != (den is None):
                    raise AssertionError("[T, Z] is not proportional to Z")
                if den is None:
                    continue
                ratio = _cmul(num, _cinv(den))
                if lam is None:
                    lam = ratio
                elif lam != ratio:
                    raise AssertionError("[T, Z] is not proportional to Z")
        bracket_t_z = complex(float(lam[0]), float(lam[1]))

        return ReferenceGeometry(eta_scale=eta_scale, kappa=kappa, levi=levi,
                                 bracket_z_zbar_vs_t=bracket_ratio,
                                 bracket_t_z_vs_z=bracket_t_z)

    # -- pointwise frame data (vectorized over point arrays) ------------------

    def frame_vectors(self, z1, z2):
        """Components of (T, Z, Zbar) at the given points.

        Returns three arrays of shape (..., 4) in the coordinate order
        (d/dz1, d/dz2, d/dzbar1, d/dzbar2).
        """
        z1 = np.asarray(z1)
        kappa = float(self.kappa)
        t_vec = np.stack([1j * kappa * z1, 1j * kappa * z2,
                          -1j * kappa * np.conj(z1), -1j * kappa * np.conj(z2)], axis=-1)
        zero = np.zeros_like(z1)
        z_vec = np.stack([np.conj(z2), -np.conj(z1), zero, zero], axis=-1)
        zbar_vec = np.stack([zero, zero, z2, -z1], axis=-1)
        return t_vec, z_vec, zbar_vec

    def eta(self, z1, z2, vec):
        """eta at (z1,z2) paired with a complexified tangent 4-vector."""
        s = float(self.eta_scale)
        return (s / 2j) * (np.conj(z1) * vec[..., 0] + np.conj(z2) * vec[..., 1]
                           - z1 * vec[..., 2] - z2 * vec[..., 3])

    @staticmethod
    def omega(z1, z2, vec):
        """omega = z2 dz1 - z1 dz2 paired with a tangent 4-vector."""
        return z2 * vec[..., 0] - z1 * vec[..., 1]

    @staticmethod
    def omega_bar(z1, z2, vec):
        return np.conj(z2) * vec[..., 2] - np.conj(z1) * vec[..., 3]


def _cinv(x):
    d = x[0] * x[0] + x[1] * x[1]
    return (x[0] / d, -x[1] / d)


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature in Hopf coordinates, exact through degree 2N+4.

    Node ``(r * n_phi + i1) * n_phi + i2`` sits at ``u[r]`` and angles
    ``2 pi (i1, i2) / n_phi``. The Gauss-Legendre ``u_weights`` (summing to 1)
    over ``n_phi^2`` are the ``weights_normalized`` of the probability measure
    used for every L^2 pairing in the package.
    """

    degree: int
    z1: np.ndarray
    z2: np.ndarray
    u: np.ndarray
    u_weights: np.ndarray
    weights_normalized: np.ndarray
    n_phi: int
    n_radial: int

    @staticmethod
    def build(degree: int) -> "QuadratureGrid":
        n_phi = 2 * degree + 5
        n_radial = -(-(degree + 3) // 2)  # ceil((N+3)/2)
        # Gauss-Legendre on u = sin^2(theta) in [0, 1].
        nodes, wts = np.polynomial.legendre.leggauss(n_radial)
        u = 0.5 * (nodes + 1.0)
        wu = 0.5 * wts
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi

        uu, p1, p2 = np.meshgrid(u, phi, phi, indexing="ij")
        uu, p1, p2 = uu.ravel(), p1.ravel(), p2.ravel()
        r1 = np.sqrt(1.0 - uu)
        r2 = np.sqrt(uu)
        z1 = r1 * np.exp(1j * p1)
        z2 = r2 * np.exp(1j * p2)

        w_norm = np.repeat(wu, n_phi * n_phi) / (n_phi * n_phi)
        return QuadratureGrid(degree=degree, z1=z1, z2=z2, u=u, u_weights=wu,
                              weights_normalized=w_norm, n_phi=n_phi, n_radial=n_radial)

    @property
    def n_nodes(self) -> int:
        return self.z1.size

    def mean(self, values):
        """Integral against the normalized round measure."""
        return np.dot(self.weights_normalized, values)


def monomial_moment(a1, a2, b1, b2):
    """Exact normalized moment of z^a zbar^b over the round sphere.

    Nonzero only when a == b componentwise, in which case the value is
    a1! a2! / (a1 + a2 + 1)!. Returned as a Fraction.
    """
    if a1 != b1 or a2 != b2:
        return Fraction(0)
    import math

    return Fraction(math.factorial(a1) * math.factorial(a2),
                    math.factorial(a1 + a2 + 1))
