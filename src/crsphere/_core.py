"""Polynomial evaluation kernels.

Both kernels evaluate monomial-coefficient columns at points,

    out[i, j] = sum_m z1[i]^a1[m] z2[i]^a2[m] conj(z1[i])^b1[m] conj(z2[i])^b2[m] C[m, j],

under the same contract; they differ in how they form the sum.

* ``eval_bilinear`` serves ``Basis.eval_columns``, that is a spectral
  scalar at a flow's images (phi o F, ``pullback_scalar``): one column over
  all monomials (495 at N = 8, 1820 at N = 12). A monomial is a z1-pair
  ``z1^a1 conj(z1)^b1`` times a z2-pair, so each column is the bilinear form
  p(z1)^T M q(z2) over the (a, b) pairs present per variable, at most
  (N+1)(N+2)/2 of them (45 at N = 8, 91 at N = 12). M is filled once per
  call. Per block the temporaries are the two pair tables (_BLOCK × pairs)
  and one product with M (_BLOCK × pairs·k), 0.4 MB each at N = 12 and
  k = 1; no monomial design is built.
* ``eval_poly`` serves the flow right-hand side (``flow._rhs``): 10 columns
  (g, h and their four ambient derivatives) on the 33–819 monomial rows that
  the field keeps, at the images in the flow state; ``_rhs`` takes the result
  as 10 rows and pairs the derivative rows with the pushed frame vectors.
  There one BLAS product of the monomial design (rows × _BLOCK) with the
  columns beat the bilinear form 1.6–3.3× (N = 8, 285 and 33 rows), whose
  product with M is 10 columns wide. The design and one indexed factor are
  its per-block temporaries, 1.2 MB each at 285 rows.

Points go in blocks of _BLOCK, so the temporaries stay cache-sized. With
2048-point blocks a 285-row design was 9 MB, above glibc's mmap threshold
unless a larger allocation had raised it, so each block paid about 1200
minor page faults and the flow kernel ran 1.5× slower (12.6 against 8.4 ms
per call).
``flow.py`` and ``basis.py`` look the kernels up on this module at call
time.
"""

import numpy as np

_BLOCK = 256


def _pow_table(w, max_degree):
    table = np.empty((max_degree + 1,) + w.shape, dtype=complex)
    table[0] = 1.0
    for d in range(1, max_degree + 1):
        table[d] = table[d - 1] * w
    return table


def eval_poly(z1, z2, exponents, coeff_columns):
    """Evaluate monomial-coefficient columns at points.

    Parameters
    ----------
    z1, z2 : complex arrays, shape (n,)
    exponents : int array, shape (m, 4), columns (a1, a2, b1, b2)
    coeff_columns : complex array, shape (m, k)

    Returns
    -------
    complex array, shape (n, k)
    """
    z1 = np.ascontiguousarray(z1, dtype=complex)
    z2 = np.ascontiguousarray(z2, dtype=complex)
    coeff_columns = np.ascontiguousarray(coeff_columns, dtype=complex)
    a1, a2, b1, b2 = (np.ascontiguousarray(exponents[:, i]) for i in range(4))
    n = z1.shape[0]
    out = np.empty((n, coeff_columns.shape[1]), dtype=complex)
    max_degree = int(exponents.max(initial=0))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        p1 = _pow_table(z1[start:stop], max_degree)
        p2 = _pow_table(z2[start:stop], max_degree)
        q1 = np.conj(p1)
        q2 = np.conj(p2)
        design = p1[a1]
        design *= p2[a2]
        design *= q1[b1]
        design *= q2[b2]
        out[start:stop] = design.T @ coeff_columns
    return out


def _pairs(powers, conj_powers):
    """The distinct (a, b) pairs, as two exponent arrays, and each row's pair."""
    base = int(max(powers.max(initial=0), conj_powers.max(initial=0))) + 1
    codes, row = np.unique(powers * base + conj_powers, return_inverse=True)
    return codes // base, codes % base, row


def _pair_table(w, powers, conj_powers):
    """w^a conj(w)^b for the pairs (a, b), shape (pairs, len(w))."""
    table = _pow_table(w, int(max(powers.max(initial=0), conj_powers.max(initial=0))))
    return table[powers] * np.conj(table)[conj_powers]


def eval_bilinear(z1, z2, exponents, coeff_columns):
    """Evaluate monomial-coefficient columns at points, as a bilinear form
    in the z1 and z2 pair tables; the contract is that of :func:`eval_poly`.
    """
    z1 = np.ascontiguousarray(z1, dtype=complex)
    z2 = np.ascontiguousarray(z2, dtype=complex)
    coeff_columns = np.asarray(coeff_columns, dtype=complex)
    a1, b1, row1 = _pairs(exponents[:, 0], exponents[:, 2])
    a2, b2, row2 = _pairs(exponents[:, 1], exponents[:, 3])
    k = coeff_columns.shape[1]
    form = np.zeros((len(a1), len(a2), k), dtype=complex)
    np.add.at(form, (row1, row2), coeff_columns)
    form = form.reshape(len(a1), len(a2) * k)
    n = z1.shape[0]
    out = np.empty((n, k), dtype=complex)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        left = _pair_table(z1[start:stop], a1, b1).T @ form
        right = _pair_table(z2[start:stop], a2, b2).T
        out[start:stop] = (left.reshape(stop - start, len(a2), k) * right[:, :, None]).sum(axis=1)
    return out
