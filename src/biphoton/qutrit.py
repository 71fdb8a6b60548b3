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

import numpy as np

from .tensor import ConsistencyError, schmidt_from_symmetric, vn_entropy

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
        n = abs(self.c1) ** 2 + abs(self.c2) ** 2 + abs(self.c3) ** 2
        if not abs(n - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(
                f"qutrit amplitudes have squared norm {n!r}; use make_qutrit"
            )

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
    untouched.  Raises ZeroState for the all-zero input.
    """
    c1, c2, c3 = unit_scale((c1, c2, c3))
    norm = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2 + abs(c3) ** 2)
    return QutritState(c1 / norm, c2 / norm, c3 / norm)


def unit_scale(amplitudes):
    """Amplitudes divided by a power of two that puts their largest part in [1, 2).

    Squaring them then neither overflows nor underflows, and because the
    scale is a power of two, normalizing the result gives the same bits as
    normalizing the input directly.  Raises ZeroState for the zero vector.
    """
    amps = [complex(c) for c in amplitudes]
    peak = max(max(abs(c.real), abs(c.imag)) for c in amps)
    if peak == 0.0:
        raise ZeroState("cannot normalize the zero vector")
    scale = math.ldexp(0.5, math.frexp(peak)[1])
    return [c / scale for c in amps]


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
    lambda_+- = (1 +- P)/2 with P the degree of polarization, and their
    entropy in bits.  K is cross-checked at call time against 1/Tr(rho_r^2)
    with rho_r = M M^dagger built from the 2x2 amplitude matrix M, a route
    that does not pass through C.
    """
    c = concurrence(q)
    k = 2.0 / (2.0 - c * c)
    m = amplitude_matrix(q)
    rho_r = m @ m.conj().T
    # Tr(rho_r^2) is the squared Frobenius norm of the Hermitian rho_r
    k_oracle = 1.0 / np.vdot(rho_r, rho_r).real
    if abs(k - k_oracle) > ORACLE_TOL:
        raise ConsistencyError(
            f"closed-form K={k!r} disagrees with 1/Tr(rho_r^2) K={k_oracle!r}"
        )
    # lambda_+- = (1 +- P)/2: P = sqrt(1 - C^2) by C^2 + P^2 = 1, but P from
    # the amplitudes stays accurate where sqrt(1 - C^2) loses half the digits
    p = _degree_p(_polarization_vector(q))
    lam_p = (1.0 + p) / 2.0
    lam_m = (1.0 - p) / 2.0
    return EntanglementReport(
        schmidt_k=k,
        concurrence=c,
        entropy=vn_entropy([lam_p, lam_m]),
        lambda_plus=lam_p,
        lambda_minus=lam_m,
    )


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
    """
    return schmidt_from_symmetric(amplitude_matrix(q))


def _polarization_vector(q):
    cross = q.c1 * q.c2.conjugate() + q.c2 * q.c3.conjugate()
    return (SQRT2 * cross.real, -SQRT2 * cross.imag, abs(q.c1) ** 2 - abs(q.c3) ** 2)


def _degree_p(xi):
    # P = |xi|, held at 1 where rounding would push a product state past it;
    # the one P behind both quantify's lambdas and polarization's degree_p
    return min(1.0, math.hypot(*xi))


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
    return PolarizationReport(xi=tuple(float(x) + 0.0 for x in xi), degree_p=p)


def _rotation_matrix(alpha):
    # action of a polarizer-frame rotation by alpha on (C1, C2, C3)
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
