"""Biphoton polarization qutrits.

A frequency-degenerate photon pair from collinear type-I/II downconversion
lives in the three-dimensional symmetric subspace spanned by |2H>, |1H 1V>
and |2V>.  A pure qutrit is the amplitude triple (C1, C2, C3) on that basis;
as a two-photon polarization wavefunction it is the four-component vector

    (C1, C2/sqrt(2), C2/sqrt(2), C3)

on the product basis (HH, HV, VH, VV), first photon on the slow index.

This module provides the qutrit constructors, the Bell-like coefficient
change (C+, C-, C2), density and reduced density matrices, the entanglement
quantifiers (Schmidt parameter K, concurrence C, subsystem entropy), the
spin-flip route to the concurrence, Schmidt decomposition, the single-photon
polarization vector, polarizer-frame rotations and the two named state
families (product states and maximally entangled states).

Every closed-form quantity that has an independent brute-force route is
cross-checked against it at call time; a disagreement raises
ConsistencyError rather than returning silently wrong numbers.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from .tensor import (
    SCHMIDT_WEIGHT_CUTOFF,
    ConsistencyError,
    SchmidtDecomposition,
    schmidt_number,
)

SQRT2 = math.sqrt(2.0)

# tolerance for the call-time closed-form vs brute-force cross-checks
ORACLE_TOL = 1e-12


class ZeroState(ValueError):
    """State constructor received the zero vector."""


@dataclass(frozen=True)
class QutritState:
    """Normalized qutrit amplitudes on the (|2H>, |1H 1V>, |2V>) basis.

    Instances are expected to be unit vectors; use make_qutrit to normalize
    arbitrary input.  The constructor never alters the global phase.
    """

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        _check_norm((self.c1, self.c2, self.c3), "qutrit")

    @property
    def amplitudes(self):
        return np.array([self.c1, self.c2, self.c3], dtype=complex)


@dataclass(frozen=True)
class BellCoefficients:
    """Qutrit amplitudes in the (Phi+, Phi-, |1H 1V>) combination basis."""

    c_plus: complex
    c_minus: complex
    c2: complex


@dataclass(frozen=True)
class EntanglementReport:
    """Entanglement quantifiers of a qutrit.

    K is the Schmidt parameter (effective mode count, 1 for products, 2 at
    maximal entanglement), C the concurrence, entropy the von Neumann entropy
    of either reduced single-photon state in bits, and lambda_plus/minus the
    two reduced-state eigenvalues.
    """

    schmidt_k: float
    concurrence: float
    entropy: float
    lambda_plus: float
    lambda_minus: float


@dataclass(frozen=True)
class PolarizationReport:
    """Single-photon polarization vector xi and its length P."""

    xi: tuple
    degree_p: float


def make_qutrit(c1, c2, c3):
    """Build a QutritState from arbitrary amplitudes, normalizing the length.

    Only the magnitude is rescaled; relative and global phases pass through
    untouched.  Raises ValueError for a non-finite part and ZeroState for
    the all-zero input.
    """
    return QutritState(*_normalized((c1, c2, c3)))


def _squared_norm(amps):
    # summed left to right in Python floats, so the bits depend neither on
    # the amplitudes' number type nor on how sum() adds floats
    n = 0.0
    for c in amps:
        n += float(abs(c)) ** 2
    return n


def _check_norm(amps, kind):
    try:
        n = _squared_norm(amps)
    except OverflowError:
        # a float's ** raises where its product would give inf
        n = math.inf
    if not abs(n - 1.0) <= 1e-9:  # NaN fails too
        # make_* refuses non-finite parts too, so it is no remedy for them;
        # finite parts whose squares overflow keep the norm message
        if not all(cmath.isfinite(c) for c in amps):
            raise ValueError(f"{kind} amplitudes must be finite, got {list(amps)!r}")
        raise ValueError(f"{kind} amplitudes have squared norm {n!r}; use make_{kind}")


def _normalized(amplitudes):
    # the amplitudes of a qutrit or a ququart scaled to unit length; dividing
    # first by a power of two that puts their largest part in [1, 2) keeps
    # the squares from overflowing or underflowing, and gives the same bits
    # as normalizing the input directly
    amps = [complex(c) for c in amplitudes]
    # each part on its own: a NaN can leave the max of the parts finite, or 0
    if not all(cmath.isfinite(c) for c in amps):
        raise ValueError(f"amplitudes must be finite, got {amps!r}")
    peak = max(max(abs(c.real), abs(c.imag)) for c in amps)
    if peak == 0.0:
        raise ZeroState("cannot normalize the zero vector")
    scale = math.ldexp(0.5, math.frexp(peak)[1])
    amps = [c / scale for c in amps]
    norm = math.sqrt(_squared_norm(amps))
    return [c / norm for c in amps]


def wavefunction(q):
    """Four-component two-photon polarization vector of a qutrit."""
    return np.array(
        [q.c1, q.c2 / SQRT2, q.c2 / SQRT2, q.c3], dtype=complex
    )


def amplitude_matrix(q):
    """Symmetric 2x2 amplitude matrix, rows indexed by the first photon."""
    return wavefunction(q).reshape(2, 2)


def bell_coefficients(q):
    """Express a qutrit through the Bell-like combinations C+- = (C1 +- C3)/sqrt(2)."""
    return BellCoefficients(
        c_plus=(q.c1 + q.c3) / SQRT2,
        c_minus=(q.c1 - q.c3) / SQRT2,
        c2=q.c2,
    )


def from_bell(b):
    """Inverse of bell_coefficients."""
    return QutritState(
        (b.c_plus + b.c_minus) / SQRT2,
        b.c2,
        (b.c_plus - b.c_minus) / SQRT2,
    )


def density_matrix(q):
    """Rank-one 4x4 density matrix of the two-photon pure state."""
    psi = wavefunction(q)
    return np.outer(psi, psi.conj())


# The symmetric/antisymmetric combination of the HV and VH product vectors.
# Real, symmetric and orthogonal, so it is its own inverse and adjoint.
_U_SYM = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / SQRT2, 1.0 / SQRT2, 0.0],
        [0.0, 1.0 / SQRT2, -1.0 / SQRT2, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def transformed_density(q):
    """Density matrix rotated into the symmetrized (HH, Psi+, Psi-, VV) basis.

    A biphoton qutrit never populates the antisymmetric combination, so the
    third row and column vanish identically.
    """
    return _U_SYM @ density_matrix(q) @ _U_SYM


def coherence_matrix(q):
    """The 3x3 coherence block of the transformed density matrix.

    Rows and columns run over (HH, Psi+, VV); the diagonal carries
    (|C1|^2, |C2|^2, |C3|^2).
    """
    t = transformed_density(q)
    idx = np.array([0, 1, 3])
    return t[np.ix_(idx, idx)]


def reduced_density(q):
    """Reduced 2x2 single-photon density matrix (either photon, by symmetry).

    Closed form: diagonal (|C1|^2 + |C2|^2/2, |C3|^2 + |C2|^2/2) and
    off-diagonal (C1 C2* + C2 C3*)/sqrt(2).
    """
    cross = (q.c1 * np.conj(q.c2) + q.c2 * np.conj(q.c3)) / SQRT2
    return np.array(
        [
            [abs(q.c1) ** 2 + abs(q.c2) ** 2 / 2.0, cross],
            [np.conj(cross), abs(q.c3) ** 2 + abs(q.c2) ** 2 / 2.0],
        ],
        dtype=complex,
    )


def concurrence(q):
    """Concurrence C = |2 C1 C3 - C2^2| of a pure qutrit."""
    return abs(2.0 * q.c1 * q.c3 - q.c2 * q.c2)


def quantify(q):
    """Compute the entanglement quantifiers of a qutrit.

    Closed forms: C = |2 C1 C3 - C2^2|, K = 2/(2 - C^2), reduced eigenvalues
    lambda_+ = (1 + P)/2 and lambda_- = C^2/(2 (1 + P)) = (1 - P)/2 with P
    the degree of polarization, and their entropy in bits.  lambda_- is
    schmidt_decompose's small weight bit for bit, and keeps its digits near
    product states.  K is cross-checked at call time against 1/Tr(rho_r^2)
    with rho_r = M M^dagger of the 2x2 amplitude matrix
    M = [[C1, C2/sqrt(2)], [C2/sqrt(2), C3]], written out entry by entry in
    Python complex arithmetic, a route that does not pass through C.

    Every value is taken in Python float and complex arithmetic, with no
    array formed.  The entropy is tensor.vn_entropy of (lambda_+, lambda_-)
    bit for bit, from a kernel that sums the two distinct values in its
    order with numpy's log2.
    """
    c = concurrence(q)
    k = 2.0 / (2.0 - c * c)
    m01 = q.c2 / SQRT2
    _check_close(k, 1.0 / _block_purity(q.c1, m01, m01, q.c3),
                 "closed-form K={!r} disagrees with 1/Tr(rho_r^2) K={!r}")
    # P from the amplitudes keeps the digits sqrt(1 - C^2) loses, and
    # 1 - P^2 = C^2 = 4 |det M|^2 those 1 - P loses near product states; C/2
    # is |det M| bit for bit, squared as schmidt_decompose squares it
    lam_p, lam_m = _spectrum(_degree_p(_polarization_vector(q)), 4.0 * (c / 2.0) ** 2, 2)
    return EntanglementReport(k, c, _entropy(lam_p, lam_m, 2), lam_p, lam_m)


def quantify_many(amps, *, first_row=0):
    """Array form of quantify: the quantifiers of n qutrits in one pass.

    amps holds one unit-norm qutrit (C1, C2, C3) per row, shape (n, 3),
    real or complex; a row off unit norm by more than 1e-9, or with a
    non-finite part, raises ValueError naming it.  The EntanglementReport
    that comes back holds (n,) arrays.  The closed forms are quantify's, and
    so is the call-time check of K against 1/Tr(rho_r^2), rho_r = M M^dagger
    of every row's 2x2 amplitude matrix; a row that fails it raises
    ConsistencyError naming it.  Errors count rows from first_row, so a
    caller passing one block of a larger array names rows of the whole.
    Real rows give quantify's values bit for bit, complex rows agree within
    1e-14: numpy's complex products round differently from Python's.
    """
    a = _rows(amps, 3, "qutrit", first_row)
    c1, c2, c3 = a.T
    # concurrence and _block_purity take columns as they take numbers
    c = concurrence(SimpleNamespace(c1=c1, c2=c2, c3=c3))
    k = 2.0 / (2.0 - c * c)
    m01 = c2 / SQRT2
    _check_close_many(k, 1.0 / _block_purity(c1, m01, m01, c3),
                      "closed-form K={!r} disagrees with 1/Tr(rho_r^2) K={!r}", first_row)
    # _polarization_vector, with its squares element by element
    cross = c1 * c2.conjugate() + c2 * c3.conjugate()
    p = _degree_p_many(SQRT2 * cross.real, -SQRT2 * cross.imag,
                       _squares(abs(c1)) - _squares(abs(c3)))
    lam_p, lam_m = _spectrum_many(p, 4.0 * _squares(c / 2.0), 2)
    return EntanglementReport(k, c, _entropy_many(lam_p, lam_m, 2), lam_p, lam_m)


# sigma_y x sigma_y on the product basis; the minus signs sit on the
# (HH, VV) corner entries
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def spin_flip_concurrence(q):
    """Concurrence via the spin-flip overlap |<psi|sigma_y x sigma_y psi*>|.

    Cross-checked at call time against the algebraic form |2 C1 C3 - C2^2|.
    """
    psi = wavefunction(q)
    tilde = _SPIN_FLIP @ psi.conj()
    c_flip = abs(np.vdot(psi, tilde))
    c_alg = concurrence(q)
    if abs(c_flip - c_alg) > ORACLE_TOL:
        raise ConsistencyError(
            f"spin-flip concurrence {c_flip!r} disagrees with |2 C1 C3 - C2^2| = {c_alg!r}"
        )
    return c_flip


def schmidt_decompose(q):
    """Schmidt decomposition of the two-photon state.

    At most two terms for a qutrit; weights below the global cutoff are
    dropped, so a product state comes back with a single term.  Both photons
    share one mode per term because the state is exchange symmetric.

    Closed form, no eigensolver.  The weights are quantify's lambda_+- bit
    for bit.  With det M = C1 C3 - C2^2/2 (C = 2 |det M|), the
    first mode u solves M u* = sqrt(lambda_+) u: with v the reduced state's
    eigenvector for lambda_+ (any unit vector at P = 0) and w = M v*/|M v*|,
    u is v + w normalized, or i (v - w) where v + w cancels; this holds at
    degenerate weights too.  The second mode is the vector orthogonal to u,
    turned by the phase e^{i arg(det M)/2}.  At call time the terms, dropped
    ones included, must rebuild the amplitude matrix M within ORACLE_TOL.
    """
    c1, c2, c3 = complex(q.c1), complex(q.c2), complex(q.c3)
    xi = _polarization_vector(q)
    p = _degree_p(xi)
    det = c1 * c3 - c2 * c2 / 2.0
    lam_p, lam_m = _spectrum(p, 4.0 * abs(det) ** 2, 2)
    m01 = c2 / SQRT2
    m = ((c1, m01), (m01, c3))
    (v0, v1), (w0, w1) = _mode_pair(m, xi, p)
    if (v0.conjugate() * w0 + v1.conjugate() * w1).real >= 0.0:
        u = _unit(v0 + w0, v1 + w1)
    else:
        u = _unit(1j * (v0 - w0), 1j * (v1 - w1))
    x = _partner(u, cmath.sqrt(det / abs(det)) if det else 1.0)
    _check_terms(math.sqrt(lam_p), u, u, math.sqrt(lam_m), x, x, m)
    if lam_m >= SCHMIDT_WEIGHT_CUTOFF:
        return _decomposition([lam_p, lam_m], [u[0] + 0j, x[0] + 0j, u[1] + 0j, x[1] + 0j])
    return _decomposition([lam_p], [u[0] + 0j, u[1] + 0j])


def _unit(a, b):
    # the complex pair (a, b) scaled to unit length
    n = math.hypot(a.real, a.imag, b.real, b.imag)
    return a / n, b / n


def _mode_pair(a, xi, p):
    # the first Schmidt pair of a 2x2 amplitude block A = ((a00, a01),
    # (a10, a11)) whose first photon has the polarization vector xi and the
    # degree p: e, the top mode of A A^dagger, is the unit eigenvector of
    # (1 + xi.sigma)/2 for (1 + P)/2, (1, 0) at P = 0, of its two forms the
    # one without cancellation; its partner is w = A^T e*/|A^T e*|
    x, y, z = xi
    if p == 0.0:
        e = (1.0 + 0j, 0j)
    elif z >= 0.0:
        e = _unit(complex(p + z), complex(x, y))
    else:
        e = _unit(complex(x, -y), complex(p - z))
    e0c, e1c = e[0].conjugate(), e[1].conjugate()
    return e, _unit(a[0][0] * e0c + a[1][0] * e1c, a[0][1] * e0c + a[1][1] * e1c)


def _partner(u, phase):
    # the unit vector orthogonal to u, (-u1*, u0*), times a unit phase
    return -phase * u[1].conjugate(), phase * u[0].conjugate()


def _check_close(x, y, message):
    # the call-time check of a closed form x against its independent route
    # y; message takes both values, and is filled in only on failure
    if abs(x - y) > ORACLE_TOL:
        raise ConsistencyError(message.format(x, y))


def _check_terms(s1, a, b, s2, c, d, m):
    # the call-time check of a Schmidt decomposition: the two terms
    # s1 a b^T + s2 c d^T, dropped weights included, rebuild the 2x2
    # amplitude block m
    err = max(abs(s1 * a[0] * b[0] + s2 * c[0] * d[0] - m[0][0]),
              abs(s1 * a[0] * b[1] + s2 * c[0] * d[1] - m[0][1]),
              abs(s1 * a[1] * b[0] + s2 * c[1] * d[0] - m[1][0]),
              abs(s1 * a[1] * b[1] + s2 * c[1] * d[1] - m[1][1]))
    if err > ORACLE_TOL:
        raise ConsistencyError(
            f"Schmidt terms rebuild the amplitude matrix only within {err!r}"
        )


def _decomposition(lambdas, parts):
    # parts lists the single-photon modes row by row, one column per term,
    # each part already + 0j, which turns a -0.0 into 0.0.  A flat list
    # with its dtype given builds faster than nested rows or an in-place
    # + 0j on the array
    return SchmidtDecomposition(lambdas, np.array(parts, dtype=complex).reshape(-1, len(lambdas)))


def _polarization_vector(q):
    cross = q.c1 * q.c2.conjugate() + q.c2 * q.c3.conjugate()
    return (SQRT2 * cross.real, -SQRT2 * cross.imag, abs(q.c1) ** 2 - abs(q.c3) ** 2)


def _degree_p(xi):
    # P = |xi|, held at 1 where rounding would push a product state past it;
    # the one P behind both quantify's lambdas and polarization's degree_p.
    # The conditionals here and in _spectrum are min(), without its call
    p = math.hypot(*xi)
    return p if p < 1.0 else 1.0


def _block_purity(a, b, c, d):
    # Tr(rho^2) with rho = M M^dagger for the 2x2 block M = [[a, b], [c, d]],
    # the squared Frobenius norm of the Hermitian rho; the M M^dagger route
    # behind both kinds' K checks, through neither C, D nor P
    r00 = abs(a) ** 2 + abs(b) ** 2
    r11 = abs(c) ** 2 + abs(d) ** 2
    r01 = a * c.conjugate() + b * d.conjugate()
    return r00 * r00 + r11 * r11 + 2.0 * abs(r01) ** 2


def _spectrum(p, gap, d):
    # reduced eigenvalues of one photon, descending: (1 + P)/d and
    # (1 - P)/d = gap/(d (1 + P)), each d/2 times, from P and gap = 1 - P^2
    # in cancellation-free form: C^2 = 4 |det M|^2 for a qutrit (d = 2),
    # 4 |C1 C4 - C2 C3|^2 for a ququart (d = 4), whose two decoupled
    # polarization blocks share the high-frequency photon's P.  Only the
    # two distinct values come back: hi, then lo, held at hi where rounding
    # would put it above, near P = 0
    hi = (1.0 + p) / d
    lo = gap / (d * (1.0 + p))
    return hi, lo if lo < hi else hi


def _entropy(hi, lo, d):
    # tensor.vn_entropy of the spectrum _spectrum returns, hi then lo each
    # d/2 times, summed in its order with numpy's log2, whose bits math.log2
    # does not always share.  Its clip and positivity check have nothing to
    # do: 0 <= lo <= hi <= 1.  Its sum starts at 0.0, and 0.0 + a = a and
    # a + a = 2a are exact; a is never -0.0, since log2(1) = +0.0
    a = hi * float(np.log2(hi))
    if lo == hi:
        b = a
    elif lo > 0.0:
        b = lo * float(np.log2(lo))
    else:
        b = 0.0
    acc = a + b if d == 2 else a + a + b + b
    # + 0.0 turns the -0.0 of a pure state into 0.0; float() keeps the
    # entropy a Python float where numpy-scalar amplitudes make lo a numpy one
    return float(-acc) + 0.0


# The array forms of the helpers above, behind both kinds' quantify_many.
# They take each value as the scalar helper does; where numpy would round
# otherwise (its square is x * x, libm's pow(x, 2) is not always that, and
# nested hypots are not math.hypot of three values), they go element by
# element through the scalar operation.

def _rows(amps, width, kind, first_row=0):
    # amps as an (n, width) float or complex array of unit-norm rows, or
    # ValueError naming the first row that is not one, counted from first_row
    a = np.asarray(amps)
    a = a.astype(complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"{kind} amplitudes must have shape (n, {width}), got {a.shape}")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{kind} amplitudes must be finite, got row {first_row + i}: "
                         f"{a[i].tolist()!r}")
    with np.errstate(over="ignore"):
        n = (abs(a) ** 2).sum(axis=1)
    bad = np.flatnonzero(~(abs(n - 1.0) <= 1e-9))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{kind} amplitudes of row {first_row + i} have squared norm "
                         f"{float(n[i])!r}; use make_{kind}")
    return a


def _squares(x):
    # x ** 2 of every element in Python float arithmetic
    return np.fromiter(map(pow, x.tolist(), repeat(2)), float, x.size)


def _degree_p_many(x, y, z):
    # _degree_p of the vectors (x, y, z), one per element
    p = np.fromiter(map(math.hypot, x.tolist(), y.tolist(), z.tolist()), float, x.size)
    return np.where(p < 1.0, p, 1.0)


def _spectrum_many(p, gap, d):
    # _spectrum of every element
    hi = (1.0 + p) / d
    lo = gap / (d * (1.0 + p))
    return hi, np.where(lo < hi, lo, hi)


def _entropy_many(hi, lo, d):
    # _entropy of every element, with the same numpy log2; lo * log2(lo) is
    # hi's term where lo == hi, and 0 * log2(1) = 0 where lo is 0
    a = hi * np.log2(hi)
    b = lo * np.log2(np.where(lo > 0.0, lo, 1.0))
    return -(a + b if d == 2 else a + a + b + b) + 0.0


def _check_close_many(x, y, message, first_row=0):
    # _check_close of every element; the first row that fails is named,
    # counted from first_row
    bad = np.flatnonzero(abs(x - y) > ORACLE_TOL)
    if bad.size:
        i = bad[0]
        raise ConsistencyError(f"row {first_row + i}: "
                               + message.format(float(x[i]), float(y[i])))


def polarization(q):
    """Single-photon polarization vector xi = Tr(rho_r sigma) and its degree P.

    The anti-correlation C^2 + P^2 = 1 with the concurrence is verified at
    call time.
    """
    xi = _polarization_vector(q)
    p = _degree_p(xi)
    c = concurrence(q)
    if abs(c * c + p * p - 1.0) > ORACLE_TOL:
        raise ConsistencyError(
            f"C^2 + P^2 = {c * c + p * p!r} deviates from 1"
        )
    # + 0.0 turns a -0.0 component (a vanishing imaginary part) into 0.0
    x, y, z = xi
    return PolarizationReport((float(x) + 0.0, float(y) + 0.0, float(z) + 0.0), p)


def _arm_composite(q, arm, ratio):
    # a qutrit whose photons also carry an output-arm label: the polarization
    # amplitude matrix times the 2x2 arm matrix, as the 16-component vector
    # on the product basis of (polarization x arm) single-photon modes, and
    # its K from the partial-trace oracle, checked at call time to be ratio
    # times the qutrit's closed-form K
    composite = np.kron(amplitude_matrix(q), arm).reshape(16)
    k = schmidt_number(composite, 4)
    k_qutrit = quantify(q).schmidt_k
    if abs(k - ratio * k_qutrit) > 1e-10:
        raise ConsistencyError(
            f"composite K={k!r} is not {ratio} times the qutrit K={k_qutrit!r}"
        )
    return composite, k


# the 45-degree polarizer frame as an integer matrix on one photon's (H, V):
# each photon turns by U45/sqrt(2).  The rotated-frame phase equations of
# both kinds are derived from it, and ququart._ROT45 is its Kronecker square
U45 = np.array([[1, 1], [-1, 1]])


def _rotation_matrix(alpha):
    # action of a polarizer-frame rotation by alpha on (C1, C2, C3).  It stays
    # the qutrit's 45-degree forward model rather than U45's symmetric square:
    # at pi/4 its cos/sin products leave 2.2e-16 where that square has 0, and
    # those bits set the printed coincidence/1 counts
    c, s = math.cos(alpha), math.sin(alpha)
    cs = SQRT2 * c * s
    return np.array(
        [
            [c * c, cs, s * s],
            [-cs, c * c - s * s, cs],
            [s * s, -cs, c * c],
        ]
    )


def rotate_basis(q, alpha):
    """Amplitudes of the same state in a polarizer frame turned by alpha.

    The rotation is real orthogonal, leaves C+ = (C1 + C3)/sqrt(2) invariant
    and is inverted by rotate_basis(q, -alpha).
    """
    c1, c2, c3 = _rotation_matrix(float(alpha)) @ q.amplitudes
    return QutritState(c1, c2, c3)


def non_entangled_family(phi, phi1, phi3):
    """The full family of product (zero-concurrence) qutrits.

    Both photons share the single polarization mode
    (cos(phi/2) e^{i phi1/2}, sin(phi/2) e^{i phi3/2}); the amplitudes are
    the symmetric square of that mode.
    """
    half = phi / 2.0
    return QutritState(
        math.cos(half) ** 2 * cmath.exp(1j * phi1),
        (math.sin(phi) / SQRT2) * cmath.exp(1j * (phi1 + phi3) / 2.0),
        math.sin(half) ** 2 * cmath.exp(1j * phi3),
    )


def max_entangled_family(phi, phi1, phi3):
    """The full family of maximally entangled (C = 1, K = 2) qutrits."""
    return QutritState(
        (math.cos(phi) / SQRT2) * cmath.exp(1j * phi1),
        math.sin(phi) * cmath.exp(1j * (phi1 + phi3) / 2.0),
        -(math.cos(phi) / SQRT2) * cmath.exp(1j * phi3),
    )
