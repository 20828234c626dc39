"""Reference CR geometry of the unit 3-sphere in C^2.

Everything downstream is phrased in one fixed frame on S^3:

* ``Z    = conj(z2) d/dz1 - conj(z1) d/dz2``   (spans the (1,0) horizontal bundle)
* ``Zbar = z2 d/dzbar1 - z1 d/dzbar2``         (its conjugate)
* ``T    = i*kappa*(z . d/dz - zbar . d/dzbar)``  (Reeb field)

with contact form ``eta = scale * Im(zbar . dz)`` and dual coframe
``omega = z2 dz1 - z1 dz2`` (so ``omega(Z) = 1`` on the sphere).

The round sphere is the one fixed reference structure, so its normalizations
are constants, not computed at run time. ``d eta = (i/2) omega ^ conj(omega)``
on the sphere fixes ``scale = 1/2``, the Reeb condition ``eta(T) = 1`` then
fixes ``kappa = 2``, and the Levi constant is ``levi = -i * d eta(Z, Zbar)
= 1/2`` (strict pseudoconvexity means ``levi > 0``). With these,
``[Z, Zbar] = -i * levi * T`` and ``[T, Z] = -4i Z``. The frame fields are
linear on C^2, so the tests re-derive every one of these numbers exactly from
4x4 matrices.

The quadrature grid lives here too: Hopf coordinates
``z1 = cos(theta) e^{i phi1}``, ``z2 = sin(theta) e^{i phi2}`` with the measure
``dsigma = cos(theta) sin(theta) dtheta dphi1 dphi2`` (total volume 2 pi^2).
Product grids that are uniform in both angles and Gauss-Legendre in
``u = sin^2(theta)`` integrate every monomial ``z^a zbar^b`` of total degree
up to ``2N + 4`` exactly, which is the contract the basis layer relies on;
``QuadratureGrid`` takes the smallest 7-smooth angle count that keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ReferenceGeometry:
    """Normalization constants of the round CR sphere.

    Attributes
    ----------
    eta_scale : Fraction
        ``eta = eta_scale * Im(conj(z) . dz)``.
    kappa : Fraction
        Reeb scale, ``T = i*kappa*(z . d/dz - zbar . d/dzbar)``.
    levi : Fraction
        ``-i * d eta(Z, Zbar)`` on the sphere; positive.
    """

    eta_scale: Fraction = Fraction(1, 2)
    kappa: Fraction = Fraction(2)
    levi: Fraction = Fraction(1, 2)

    @staticmethod
    def derive() -> "ReferenceGeometry":
        """The round sphere's constants, derived in the module docstring.

        ``tests/test_geometry.py`` re-derives them, with the frame brackets,
        by exact 4x4 matrix algebra on the linear frame fields.
        """
        return ReferenceGeometry()

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


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature in Hopf coordinates, exact through degree 2N+4.

    Any ``n_phi >= 2N + 5`` is exact (|k| <= 2N + 4 < n_phi); the smallest
    with no prime factor above 7 is taken, as 2N + 5 is prime at N = 4, 6,
    12, 16 and the torus FFTs ran 2.3x slower at 29 angles than at 30.
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
        while pow(210, n_phi, n_phi):  # 7-smooth: n_phi divides a power of 2*3*5*7
            n_phi += 1
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
    return Fraction(math.factorial(a1) * math.factorial(a2),
                    math.factorial(a1 + a2 + 1))
