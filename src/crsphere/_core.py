"""Polynomial evaluation: two point kernels and Taylor tables at the grid
nodes.

Both point kernels evaluate monomial-coefficient columns at points,

    out[i, j] = sum_m z1[i]^a1[m] z2[i]^a2[m] conj(z1[i])^b1[m] conj(z2[i])^b2[m] C[m, j],

under the same contract; they differ in how they form the sum.

* ``eval_bilinear`` serves ``Basis.eval_columns``, that is a spectral
  scalar at arbitrary points, and phi o F at a flow's images where the
  near-node bound below fails: one column over
  all monomials (495 at N = 8, 1820 at N = 12). A monomial is a z1-pair
  ``z1^a1 conj(z1)^b1`` times a z2-pair, so each column is the bilinear form
  p(z1)^T M q(z2) over the (a, b) pairs present per variable, at most
  (N+1)(N+2)/2 of them (45 at N = 8, 91 at N = 12). M is filled once per
  call. Per block the temporaries are the two pair tables (_BLOCK × pairs)
  and one product with M (_BLOCK × pairs·k), 0.4 MB each at N = 12 and
  k = 1; no monomial design is built.
* ``eval_poly`` serves the rows of the flow right-hand side
  (``flow._FlowField.rows``) where the near-node bound fails: 10 columns
  (g, h and their four ambient derivatives) on the 33–819 monomial rows
  that the field keeps, at the images in the flow state; ``flow._rhs``
  takes the result as 10 rows and pairs the derivative rows with the
  pushed frame vectors.
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

Near-node evaluation. A contact flow of the solver moves each quadrature node
x by a tiny δ, so its field is summed from a Taylor table at the nodes
instead of evaluated at x + δ. Over the ambient variables
w = (z1, z2, z̄1, z̄2), taken as independent, a polynomial p is its finite
Taylor series,

    p(x + δ) = Σ_β T_β(x) δ^β,   T_β = ∂^β p / β!,   δ = (δ1, δ2, δ̄1, δ̄2).

``NodeTables`` holds the per-basis tables: the gathers that map the monomial
coefficients of p to those of every ∂^β p / β! of an order, and one sparse
radial scatter. A monomial at the node (u_r, φ1, φ2) is
r1^{a1+b1} r2^{a2+b2} e^{i(a1−b1)φ1} e^{i(a2−b2)φ2}, r1 = sqrt(1 − u_r),
r2 = sqrt(u_r), so the scatter puts r1^{a1+b1} r2^{a2+b2} on the torus slot
(a1 − b1, a2 − b2) of each radial node, and one batched inverse 2-D FFT gives
the node values of every column at once (``torus_values``, which
``Basis.synthesize`` uses too; |a1 − b1| ≤ N < n_phi/2, so no slot aliases).
``NodeTables.taylor`` builds T_β for |β| ≤ K, ``taylor_sum`` sums it at
x + δ, and ``truncation_bound`` bounds what the terms |β| > K leave out.
``Basis.node_tables`` builds the tables on first use, so a run whose flows
are all identities never builds them.

The truncation bound. For a monomial w^α of degree d, the binomial theorem
in each variable gives (x + δ)^α = Σ_{β ≤ α} C(α, β) x^{α−β} δ^β, where
C(α, β) = Π_v C(α_v, β_v). The nodes lie on S³, so |x_v| ≤ 1, and
|δ_v| ≤ ρ = max(|δ1|, |δ2|); Vandermonde's identity sums C(α, β) over
|β| = j to C(d, j). The omitted terms are therefore at most
Σ_{j>K} C(d, j) ρ^j. As C(d, j) C(j, K+1) = C(d, K+1) C(d−K−1, j−K−1) and
C(j, K+1) ≥ 1 for j > K, C(d, j) ≤ C(d, K+1) C(d−K−1, j−K−1), so

    Σ_{j>K} C(d, j) ρ^j ≤ C(d, K+1) ρ^{K+1} (1 + ρ)^{d−K−1}.

Summed over the monomials of a column, with d ≤ N,

    |p(x + δ) − Σ_{|β|≤K} T_β(x) δ^β|
        ≤ ρ^{K+1} (1 + ρ)^{N−K−1} Σ_m |c_m| C(d_m, K+1),

which is ``truncation_bound``. It covers truncation only; the table's
roundoff is that of the monomial sums, as in the point kernels.
"""

import functools
import itertools
import math

import numpy as np
from scipy import sparse

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


# ---------------------------------------------------------------------------
# near-node evaluation


def multi_indices(order):
    """The multi-indices β over (z1, z2, z̄1, z̄2) with |β| ≤ ``order``, shape
    (terms, 4): graded, and descending lexicographic within a grade, so 0 comes
    first, then e_1, ..., e_4. The list of a lower order is a prefix."""
    betas = [b for b in itertools.product(range(order, -1, -1), repeat=4) if sum(b) <= order]
    betas.sort(key=sum)  # stable, so each grade keeps the descending order
    return np.array(betas, dtype=np.int64)


@functools.cache
def _recursion(order):
    """For each β ≠ 0 of ``multi_indices(order)``, in order, the pair
    (t of β − e_v, v) for the first variable v that β raises: δ^β is the
    earlier term's power times δ_v."""
    multi = multi_indices(order)
    index = {beta: t for t, beta in enumerate(map(tuple, multi.tolist()))}
    steps = []
    for beta in multi.tolist()[1:]:
        var = next(v for v in range(4) if beta[v])
        beta[var] -= 1
        steps.append((index[tuple(beta)], var))
    return tuple(steps)


def truncation_weights(exponents, columns, order):
    """Σ_m |c_m| C(d_m, order + 1) per column, shape (k,): the column's factor
    in the truncation bound of the module docstring."""
    degrees = exponents.sum(axis=1)
    comb = np.ones(len(degrees))
    for i in range(order + 1):  # C(d, K+1) = Π_{i ≤ K} (d − i)/(i + 1), 0 for d ≤ K
        comb *= (degrees - i) / (i + 1)
    return comb @ np.abs(columns)


def truncation_bound(weights, rho, order, degree):
    """The certified truncation bound per column of an order-``order`` table
    with truncation weights ``weights``, for monomials of degree at most
    ``degree`` at node displacement ``rho`` = max |δ_v|:
    ρ^{K+1} (1+ρ)^{N−K−1} times the weights (module docstring)."""
    return rho ** (order + 1) * (1.0 + rho) ** max(degree - order - 1, 0) * weights


def torus_scatter(radial, k1, k2, n_phi):
    """The sparse (n_radial · n_phi², m) matrix with radial[r, j] at row (r, torus
    slot of (k1[j], k2[j])), the layout of ``torus_values``; built transposed, as CSR."""
    n_radial, m = radial.shape
    rows = (np.arange(n_radial) * n_phi + (k1 % n_phi)[:, None]) * n_phi + (k2 % n_phi)[:, None]
    indptr = np.arange(0, rows.size + 1, n_radial)
    return sparse.csr_array((radial.T.ravel(), rows.ravel(), indptr),
                            shape=(m, n_radial * n_phi * n_phi)).T


def torus_values(scatter, columns, n_phi):
    """Node values (n,) or (k, n) of a vector (m,) or columns (m, k): the modes
    ``scatter @ columns`` per radial node and torus slot, then an inverse 2-D
    FFT as two in-place passes (``ifft2`` allocates two more buffers)."""
    if np.ndim(columns) == 1:
        values = np.asarray(scatter @ columns, dtype=complex)
    else:  # column by column: a product and its transposed copy doubled the time
        values = np.empty((columns.shape[1], scatter.shape[0]), dtype=complex)
        for j in range(columns.shape[1]):
            values[j] = scatter @ columns[:, j]
    modes = values.reshape(values.shape[:-1] + (-1, n_phi, n_phi))
    for axis in (-1, -2):
        np.fft.ifft(modes, axis=axis, norm="forward", out=modes)
    return values


class NodeTables:
    """The per-basis tables of near-node evaluation (see the module docstring)
    for the monomial list ``exponents`` and the grid with radial nodes ``u``
    and ``n_phi`` angles per torus circle.

    ``derivatives`` maps the monomial coefficients of p to those of every
    ∂^β p / β! of an order by one gather, built on first use: ∂^β w^α / β! =
    C(α, β) w^{α−β}, and α ↦ α − β is injective on α ≥ β. ``scatter`` is the ``torus_scatter`` of r1^{a1+b1} r2^{a2+b2} at the
    weights (a1 − b1, a2 − b2), and ``values`` its ``torus_values``, the
    transform of ``Basis.synthesize``. ``position`` maps an exponent to
    its monomial row.
    """

    def __init__(self, exponents, u, n_phi):
        self.exponents = exponents
        degree = int(exponents.sum(axis=1).max(initial=0))
        self.position = np.zeros((degree + 1,) * 4, dtype=np.int64)
        self.position[tuple(exponents.T)] = np.arange(len(exponents))
        self._gathers = {}
        a1, a2, b1, b2 = exponents.T
        radial = np.sqrt(1.0 - u)[:, None] ** (a1 + b1) * np.sqrt(u)[:, None] ** (a2 + b2)
        self.scatter = torus_scatter(radial, a1 - b1, a2 - b2, n_phi)
        self.n_phi = n_phi

    def derivatives(self, columns, order):
        """The monomial coefficients of ∂^β C / β! of columns C (m, k) for
        |β| ≤ ``order``, shape (m, terms, k), in the order of
        ``multi_indices(order)``."""
        if order not in self._gathers:
            multi = multi_indices(order)
            rows, t = np.nonzero((self.exponents[:, None] >= multi).all(axis=2))
            alpha, beta = self.exponents[rows], multi[t]
            target = self.position[tuple((alpha - beta).T)] * len(multi) + t
            factor = np.frompyfunc(math.comb, 2, 1)(alpha, beta).prod(axis=1).astype(float)
            self._gathers[order] = (target, rows, factor[:, None])
        target, source, factor = self._gathers[order]
        (m, k), terms = columns.shape, math.comb(order + 4, 4)
        out = np.zeros((m * terms, k), dtype=complex)
        out[target] = factor * columns[source]
        return out.reshape(m, terms, k)

    def values(self, columns):
        """Node values (k, n) of monomial-coefficient columns (m, k)."""
        return torus_values(self.scatter, columns, self.n_phi)

    def taylor(self, columns, order):
        """The node values T_β = ∂^β C / β! of monomial-coefficient columns
        (m, k) for |β| ≤ ``order``, shape (terms, k, n), in the order of
        ``multi_indices(order)``: ``derivatives`` through one ``values``."""
        derivs = self.derivatives(columns, order)
        m, terms, k = derivs.shape
        return self.values(derivs.reshape(m, terms * k)).reshape(terms, k, -1)


def taylor_sum(values, powers):
    """Σ_β T_β δ^β, (k, n), from a Taylor table at the grid nodes, whose
    ``values[t]`` (k, n) is T_β for β = ``multi_indices(order)[t]``, and the
    ``displacement_powers`` δ^β of an order at most the table's: the leading
    terms of a table are those of every lower order. ``truncation_bound``
    bounds what the sum leaves out."""
    out = values[0].copy()
    for t in range(1, len(powers)):
        out += values[t] * powers[t]
    return out


def displacement_powers(d1, d2, order):
    """δ^β (n,) at the nodes for the β of ``multi_indices(order)``; None for β = 0."""
    delta = (d1, d2, np.conj(d1), np.conj(d2))
    powers = [None]
    for parent, var in _recursion(order):
        powers.append(delta[var] if parent == 0 else powers[parent] * delta[var])
    return powers
