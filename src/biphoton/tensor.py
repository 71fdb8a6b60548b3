"""Dense complex linear algebra for small two-photon problems.

Everything in this module works on explicit numpy arrays of dimension 2, 4
or 16.  It provides the brute-force reference routes (Kronecker products,
partial traces, Hermitian eigendecompositions, symmetric Schmidt
decompositions) against which the closed-form results of the qutrit and
ququart modules are cross-checked.  No structure of the biphoton problem is
assumed here beyond bipartiteness.

Index convention: for a two-photon vector the first photon owns the slow
(outer) index, so a product state is ``kron(first, second)`` and a pure-state
amplitude matrix is ``psi.reshape(d, d)`` with rows labelled by the first
photon.
"""

import numpy as np


class BadDimension(ValueError):
    """Array shape incompatible with the requested bipartite structure."""


class NotHermitian(ValueError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class ConsistencyError(ArithmeticError):
    """A closed-form value disagreed with its brute-force cross-check."""


# entrywise tolerance for Hermiticity / symmetry tests on unit-scale matrices
HERMITIAN_TOL = 1e-12

# Schmidt weights below this are treated as numerically zero
SCHMIDT_WEIGHT_CUTOFF = 1e-12

# vn_entropy rejects an eigenvalue below -POSITIVITY_TOL as no float noise
POSITIVITY_TOL = 1e-12


def kron(a, b):
    """Kronecker product with the first operand on the slow (outer) index."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        raise BadDimension("kron operands must be non-empty")
    return np.kron(a, b)


def partial_trace(rho, d, which="second"):
    """Trace out one photon of a two-photon density matrix.

    Parameters
    ----------
    rho : (d*d, d*d) array
        Density matrix on the two-photon product space.
    d : int
        Single-photon dimension.
    which : {"first", "second"}
        Which photon to trace out.

    Returns
    -------
    (d, d) array, the reduced density matrix of the remaining photon.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise BadDimension(f"density matrix must be square, got shape {rho.shape}")
    if rho.shape[0] != d * d:
        raise BadDimension(
            f"matrix of shape {rho.shape} does not factor as {d} x {d} per photon"
        )
    r = rho.reshape(d, d, d, d)
    if which == "second":
        return np.einsum("ikjk->ij", r)
    if which == "first":
        return np.einsum("kikj->ij", r)
    raise ValueError("which must be 'first' or 'second'")


def _beyond_tolerance(m, mirror):
    # max |m - mirror| against HERMITIAN_TOL * max(1, max |m_ij|); the scale
    # is at least 1, so it is needed only once the difference exceeds the
    # tolerance itself
    off = np.abs(m - mirror).max()
    return off > HERMITIAN_TOL and off > HERMITIAN_TOL * max(1.0, np.abs(m).max())


def hermitian_eig(m):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(values, vectors)`` with real eigenvalues sorted in descending
    order and the matching orthonormal eigenvectors as the columns of
    ``vectors``.  Raises NotHermitian if ``m`` deviates from its conjugate
    transpose by more than HERMITIAN_TOL relative to the largest entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {m.shape}")
    if _beyond_tolerance(m, m.conj().T):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(m)
    # eigh sorts ascending; flip to descending (views of eigh's fresh arrays)
    return vals[::-1], vecs[:, ::-1]


def purity(rho):
    """Tr(rho^2) as a real number."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.einsum("ij,ji->", rho, rho).real)


def schmidt_number(psi, d):
    """Brute-force Schmidt parameter K = 1/Tr(rho_r^2) of a pure state.

    Builds the full density matrix of the two-photon vector ``psi``, traces
    out one photon and inverts the purity of the remainder.  This is the
    oracle route used to validate every closed-form K in the package.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    rho = np.outer(psi, psi.conj())
    rho_r = partial_trace(rho, d)
    return 1.0 / purity(rho_r)


def vn_entropy(eigvals):
    """Von Neumann entropy in bits from a set of eigenvalues.

    Eigenvalues are clipped to [0, 1] after checking that nothing is more
    negative than ``-POSITIVITY_TOL``; the 0*log(0) = 0 convention applies.
    A NaN entry contributes nothing and, like numpy's min, disables the
    check.
    """
    lam = np.asarray(eigvals, dtype=float).ravel().tolist()
    if lam and min(lam) < -POSITIVITY_TOL and not any(x != x for x in lam):
        raise ConsistencyError(
            f"eigenvalue {min(lam):.3e} below the positivity tolerance"
        )
    # summed in order from 0.0, as numpy sums fewer than eight terms; each
    # log2 is numpy's (math.log2 differs in the last bit for some doubles),
    # taken once per run of equal values
    acc, prev = 0.0, None
    for x in lam:
        if x > 0.0:
            x = min(x, 1.0)
            if x != prev:
                prev, log = x, float(np.log2(x))
            acc += x * log
    # adding +0.0 turns the -0.0 of a pure state into 0.0 and nothing else
    return -acc + 0.0


def takagi(m):
    """Takagi factorization of a complex symmetric matrix.

    Returns ``(s, modes)`` with non-negative values ``s`` in descending order
    and unit vectors in the columns of ``modes`` such that

        m = sum_k s[k] * outer(modes[:, k], modes[:, k])

    (an outer product without conjugation; this is the Schmidt decomposition
    adapted to exchange-symmetric two-photon amplitudes, where both photons
    share one mode per term).

    The factorization is computed from the real embedding
    ``[[Re m, Im m], [Im m, -Re m]]``, whose spectrum comes in +/- pairs; the
    positive half delivers the Takagi vectors.  Columns paired with values
    below SCHMIDT_WEIGHT_CUTOFF**0.5 are not meaningful and are expected to
    be dropped by the caller along with their weights.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimension(f"expected a square matrix, got shape {m.shape}")
    if _beyond_tolerance(m, m.T):
        raise ValueError("matrix is not complex symmetric within tolerance")
    n = m.shape[0]
    t = np.empty((2 * n, 2 * n))
    t[:n, :n] = m.real
    t[:n, n:] = m.imag
    t[n:, :n] = m.imag
    np.negative(m.real, out=t[n:, n:])
    vals, vecs = np.linalg.eigh(t)
    # keep the n largest eigenvalues (the non-negative half), descending
    xy = vecs[:, :n - 1:-1]
    return np.maximum(vals[:n - 1:-1], 0.0), xy[:n] + 1j * xy[n:]


class SchmidtDecomposition:
    """Schmidt decomposition of a symmetric two-photon pure state.

    Attributes
    ----------
    lambdas : (r,) array
        Schmidt weights (squared coefficients) in descending order, all at or
        above SCHMIDT_WEIGHT_CUTOFF, summing to 1 for a normalized input.
    modes_first, modes_second : (d, r) array
        Orthonormal single-photon Schmidt modes, one column per term.  The
        state is exchange-symmetric, so both photons carry the same mode in
        each term: the constructor takes one array, and both names refer to
        that one array object.
    """

    def __init__(self, lambdas, modes):
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.modes_first = self.modes_second = np.asarray(modes, dtype=complex)

    @property
    def num_terms(self):
        return int(self.lambdas.size)

    def reconstruct(self):
        """Reassemble the two-photon vector sum_k sqrt(lambda_k) m_k x m_k."""
        d = self.modes_first.shape[0]
        out = np.zeros(d * d, dtype=complex)
        for k in range(self.num_terms):
            out += np.sqrt(self.lambdas[k]) * kron(
                self.modes_first[:, k], self.modes_second[:, k]
            )
        return out


def schmidt_from_symmetric(m):
    """Schmidt-decompose a symmetric amplitude matrix, dropping tiny weights."""
    s, modes = takagi(m)
    lam = s * s
    # the weights descend, so all are kept when the last is
    if not lam[-1] >= SCHMIDT_WEIGHT_CUTOFF:
        keep = lam >= SCHMIDT_WEIGHT_CUTOFF
        lam, modes = lam[keep], modes[:, keep]
    return SchmidtDecomposition(lam, modes)


def equal_up_to_global_phase(a, b, tol=1e-9):
    """True when two unit vectors agree up to an overall complex phase."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise BadDimension("zero vector has no phase")
    return abs(np.vdot(a, b)) >= (1.0 - tol) * na * nb
