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
* ``eval_poly`` serves the flow right-hand side (``flow._rhs``) where the
  near-node bound fails: 10 columns (g, h and their four ambient
  derivatives) on the 33–819 monomial rows that the field keeps, at the
  images in the flow state; ``_rhs`` takes the result as 10 rows and pairs
  the derivative rows with the pushed frame vectors.
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

``NodeTables`` holds the per-basis tables: four lowering operators, one per
variable, that map the monomial coefficients of p to those of ∂p/∂w_v, and
one sparse radial scatter. A monomial at the node (u_r, φ1, φ2) is
r1^{a1+b1} r2^{a2+b2} e^{i(a1−b1)φ1} e^{i(a2−b2)φ2}, r1 = sqrt(1 − u_r),
r2 = sqrt(u_r), so the scatter puts r1^{a1+b1} r2^{a2+b2} on the torus slot
(a1 − b1, a2 − b2) of each radial node, and one batched inverse 2-D FFT gives
the node values of every column at once (the pattern of
``Basis.synthesize``; |a1 − b1| ≤ N < n_phi/2, so no slot aliases).
``NodeTables.taylor`` builds T_β for |β| ≤ K, a ``NodeTaylor`` sums it at
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

import itertools

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


def _recursion(order):
    """For each β ≠ 0 of ``multi_indices(order)``, in order, the pair
    (t of β − e_v, v) for the first variable v that β raises: ∂^β and δ^β
    are built from the earlier term by one more factor of v."""
    multi = multi_indices(order)
    index = {beta: t for t, beta in enumerate(map(tuple, multi.tolist()))}
    steps = []
    for beta in multi.tolist()[1:]:
        var = next(v for v in range(4) if beta[v])
        beta[var] -= 1
        steps.append((index[tuple(beta)], var))
    return steps


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


class NodeTables:
    """The per-basis tables of near-node evaluation (see the module docstring)
    for the monomial list ``exponents`` and the grid with radial nodes ``u``
    and ``n_phi`` angles per torus circle.

    The lowering operator of variable v maps the monomial coefficients of p
    to those of ∂p/∂w_v (``lower``). Lowering exponent v is injective, so it
    is stored as the monomials with a_v > 0, their targets and a_v.
    ``scatter`` is the sparse (n_radial · n_phi², m) matrix with
    r1^{a1+b1} r2^{a2+b2} at row (r, torus slot of (a1 − b1, a2 − b2)), the
    slot numbering of ``Basis.synthesize``. ``position`` maps an exponent to
    its monomial row.
    """

    def __init__(self, exponents, u, n_phi):
        m = len(exponents)
        degree = int(exponents.sum(axis=1).max(initial=0))
        self.position = np.zeros((degree + 1,) * 4, dtype=np.int64)
        self.position[tuple(exponents.T)] = np.arange(m)
        self._lowering = []
        for var in range(4):
            rows = np.flatnonzero(exponents[:, var])
            lowered = exponents[rows].copy()
            lowered[:, var] -= 1
            power = exponents[rows, var].astype(float)[:, None]
            self._lowering.append((rows, self.position[tuple(lowered.T)], power))
        a1, a2, b1, b2 = exponents.T
        slot = ((a1 - b1) % n_phi) * n_phi + (a2 - b2) % n_phi
        radial = np.sqrt(1.0 - u)[:, None] ** (a1 + b1) * np.sqrt(u)[:, None] ** (a2 + b2)
        rows = np.arange(len(u))[:, None] * n_phi * n_phi + slot
        self.scatter = sparse.csr_array(
            (radial.ravel(), (rows.ravel(), np.tile(np.arange(m), len(u)))),
            shape=(len(u) * n_phi * n_phi, m))
        self.shape = (len(u), n_phi, n_phi)

    def lower(self, columns, var):
        """The monomial coefficients of ∂C/∂w_v for columns C (m, k)."""
        rows, target, power = self._lowering[var]
        out = np.zeros_like(columns)
        out[target] = power * columns[rows]
        return out

    def values(self, columns):
        """Node values of monomial-coefficient columns (m, k), shape (k, n):
        the radial scatter, then one batched inverse 2-D FFT, taken as two
        in-place passes (``ifft2`` would allocate two more buffers)."""
        k = columns.shape[1]
        modes = np.ascontiguousarray((self.scatter @ columns).T).reshape((k,) + self.shape)
        for axis in (-1, -2):
            np.fft.ifft(modes, axis=axis, norm="forward", out=modes)
        return modes.reshape(k, -1)

    def taylor(self, columns, order):
        """The node values T_β = ∂^β C / β! of monomial-coefficient columns
        (m, k) for |β| ≤ ``order``, shape (terms, k, n), in the order of
        ``multi_indices(order)``. Each ∂^β C / β! is one lowering of an
        earlier one, (1/β_v) ∂_v ∂^{β−e_v} C/(β−e_v)! for the first variable v
        that β raises (``_recursion``), and all go through one ``values``."""
        multi = multi_indices(order)
        m, k = columns.shape
        derivs = np.empty((m, len(multi), k), dtype=complex)
        derivs[:, 0] = columns
        for t, (parent, var) in enumerate(_recursion(order), start=1):
            derivs[:, t] = self.lower(derivs[:, parent], var) / multi[t, var]
        return self.values(derivs.reshape(m, -1)).reshape(len(multi), k, -1)


class NodeTaylor:
    """A Taylor table at the grid nodes: ``values[t]`` (k, n) is T_β for
    β = ``multi_indices(order)[t]``. Called with the displacements (δ1, δ2)
    of the nodes it returns Σ_β T_β δ^β, (k, n); ``truncation_bound`` bounds
    what that leaves out."""

    def __init__(self, values, order):
        self.values = values
        self.order = order
        self._steps = _recursion(order)  # δ^β = δ^{β−e_v} δ_v

    def __call__(self, d1, d2):
        delta = (d1, d2, np.conj(d1), np.conj(d2))
        powers = [None]
        out = self.values[0].copy()
        for t, (parent, var) in enumerate(self._steps, start=1):
            powers.append(delta[var] if parent == 0 else powers[parent] * delta[var])
            out += self.values[t] * powers[t]
        return out
