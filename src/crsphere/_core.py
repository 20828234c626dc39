"""Polynomial evaluation kernel.

The one hot loop in the package is evaluating many monomial-coefficient
columns at many points: a scalar at a flow's images (phi o F) and the flow's
right hand side at every Dormand-Prince stage. Both reduce to

    out[i, j] = sum_m z1[i]^a1[m] z2[i]^a2[m] conj(z1[i])^b1[m] conj(z2[i])^b2[m] C[m, j]

which is a monomial design matrix times a coefficient matrix. Points are
processed in blocks of _BLOCK, and the design of a block (monomials ×
_BLOCK complex numbers) is built in place: at most two such arrays, the
design and one indexed factor, are alive at once. Each is 16 MB at N = 8
(495 monomials), 60 MB at N = 12 (1820) and 350 MB at N = 20 (10626).
Smaller blocks were slower in real solves, because every block is a fresh
allocation that pays its page faults.
``flow.py`` and ``basis.py`` look ``eval_poly`` up on this module at call
time.
"""

import numpy as np

_BLOCK = 2048


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
