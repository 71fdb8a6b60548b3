"""Frequency-nondegenerate biphoton ququarts.

When the two downconverted photons are distinguishable by frequency (one
high, one low) the polarization state space grows to four dimensions,
spanned by the symmetrized products of the single-photon modes
(Hh, Hl, Vh, Vl):

    Psi_HH ~ Hh Hl,  Psi_HV ~ Hh Vl,  Psi_VH ~ Vh Hl,  Psi_VV ~ Vh Vl,

each symmetrized over photon exchange.  A pure ququart is the amplitude
quadruple (C1, C2, C3, C4) on that basis.  Viewed as a state of two
four-level carriers it is always entangled: the Schmidt parameter K never
drops below 2, and the quantifier that behaves like the qutrit concurrence
is the I-concurrence C_I = sqrt(2 (1 - 1/K)).

The module also carries the reduced two-level description obtained by
ignoring the frequency label (the two-qubit model), whose Schmidt parameter
is exactly half the full one, and the 45-degree polarizer-frame transform
used by the reconstruction protocol.
"""

import math

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ConsistencyError,
    hermitian_eig,
    schmidt_from_symmetric,
    schmidt_number,
    vn_entropy,
)
from .qutrit import (
    concurrence as qutrit_concurrence,
    unit_scale,
    wavefunction as qutrit_wavefunction,
)

SQRT2 = math.sqrt(2.0)

ORACLE_TOL = 1e-12

# single-photon modes in order: index 0..3
MODES = ("Hh", "Hl", "Vh", "Vl")

# which single-photon mode pair each basis state symmetrizes
_BASIS_PAIRS = {"HH": (0, 1), "HV": (0, 3), "VH": (2, 1), "VV": (2, 3)}

BASIS_LABELS = ("HH", "HV", "VH", "VV")


@dataclass(frozen=True)
class QuquartState:
    """Normalized ququart amplitudes on the (HH, HV, VH, VV) basis."""

    c1: complex
    c2: complex
    c3: complex
    c4: complex

    def __post_init__(self):
        n = sum(abs(c) ** 2 for c in self.amplitudes)
        if not abs(n - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(
                f"ququart amplitudes have squared norm {n!r}; use make_ququart"
            )

    @property
    def amplitudes(self):
        return np.array([self.c1, self.c2, self.c3, self.c4], dtype=complex)


@dataclass(frozen=True)
class QuquartReport:
    """Entanglement quantifiers of a ququart.

    schmidt_k lies in [2, 4], i_concurrence in [1, sqrt(1.5)], entropy (bits)
    in [1, 2]; lambdas are the four reduced-state eigenvalues, descending.
    They come in two degenerate pairs for every pure ququart.
    """

    schmidt_k: float
    i_concurrence: float
    entropy: float
    lambdas: tuple


@dataclass(frozen=True)
class TwoQubitModelReport:
    """Quantifiers of the polarization-only (frequency-blind) two-qubit model."""

    schmidt_k: float
    concurrence: float
    reduced: np.ndarray


def make_ququart(c1, c2, c3, c4):
    """Build a QuquartState from arbitrary amplitudes, normalizing the length.

    Phases pass through untouched.  Raises ZeroState for the zero vector.
    """
    amps = unit_scale((c1, c2, c3, c4))
    norm = math.sqrt(sum(abs(c) ** 2 for c in amps))
    return QuquartState(*(c / norm for c in amps))


def basis_wavefunction(label):
    """16-component wavefunction of one symmetrized basis state.

    The two-photon index runs over the 4x4 product of single-photon modes
    (Hh, Hl, Vh, Vl), first photon on the slow index.
    """
    if label not in _BASIS_PAIRS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {BASIS_LABELS}")
    i, j = _BASIS_PAIRS[label]
    e = np.eye(4)
    return (np.kron(e[i], e[j]) + np.kron(e[j], e[i])) / SQRT2


# the mode pair of each basis state in BASIS_LABELS order, as (rows, columns)
_PAIR_INDEX = tuple(np.array([_BASIS_PAIRS[label] for label in BASIS_LABELS]).T)


def amplitude_matrix(s):
    """Symmetric 4x4 amplitude matrix on the single-photon mode basis."""
    m = np.zeros((4, 4), dtype=complex)
    m[_PAIR_INDEX] = s.amplitudes / SQRT2
    # no pair is its own mirror, so each entry sums one amplitude with a zero
    return m + m.T


def wavefunction(s):
    """16-component two-photon wavefunction of a ququart."""
    return amplitude_matrix(s).reshape(16)


def density_matrix(s):
    """Full 16x16 two-photon density matrix |psi><psi|.

    Too large to be worth printing by default; `biphoton quantify
    --dump-density` prints it.  No quantifier builds it: the call-time K
    check takes the reduced matrix as M M^dagger instead.
    """
    psi = wavefunction(s)
    return np.outer(psi, np.conj(psi))


def reduced_density(s):
    """Reduced 4x4 single-photon density matrix (either photon, by symmetry).

    Checkerboard structure: the (Hh, Vh) and (Hl, Vl) mode pairs decouple
    into two 2x2 blocks, each of trace 1/2.
    """
    # Python complex arithmetic rounds as numpy's scalars do, without their
    # per-operation call cost
    c1, c2, c3, c4 = s.amplitudes.tolist()
    p1, p2, p3, p4 = (abs(c) ** 2 for c in (c1, c2, c3, c4))
    x = (c1 * c3.conjugate() + c2 * c4.conjugate()) / 2.0  # Hh-Vh coherence
    y = (c1 * c2.conjugate() + c3 * c4.conjugate()) / 2.0  # Hl-Vl coherence
    return np.array(
        [[(p1 + p2) / 2.0, 0, x, 0],
         [0, (p1 + p3) / 2.0, 0, y],
         [x.conjugate(), 0, (p3 + p4) / 2.0, 0],
         [0, y.conjugate(), 0, (p2 + p4) / 2.0]],
        dtype=complex,
    )


def _pair_determinant(s):
    # C1 C4 - C2 C3, the quantity every ququart quantifier runs through
    return s.c1 * s.c4 - s.c2 * s.c3


def quantify(s):
    """Compute the entanglement quantifiers of a ququart.

    Closed forms: with D = |C1 C4 - C2 C3|^2,

        K   = 2 / (1 - 2 D)        (in [2, 4])
        C_I = sqrt(1 + 2 D)        (in [1, sqrt(1.5)])

    K is cross-checked at call time against 1/Tr(rho_r^2) with
    rho_r = M M^dagger built from the 4x4 amplitude matrix M, a route that
    does not pass through D, and C_I against sqrt(2 (1 - 1/K)).  The four
    reduced eigenvalues and their entropy come from the closed-form reduced
    matrix.
    """
    d = abs(_pair_determinant(s)) ** 2
    k = 2.0 / (1.0 - 2.0 * d)
    ci = math.sqrt(1.0 + 2.0 * d)
    m = amplitude_matrix(s)
    rho_r = m @ m.conj().T
    # Tr(rho_r^2) is the squared Frobenius norm of the Hermitian rho_r
    k_oracle = 1.0 / np.vdot(rho_r, rho_r).real
    if abs(k - k_oracle) > ORACLE_TOL:
        raise ConsistencyError(
            f"closed-form K={k!r} disagrees with 1/Tr(rho_r^2) K={k_oracle!r}"
        )
    ci_from_k = math.sqrt(2.0 * (1.0 - 1.0 / k))
    if abs(ci - ci_from_k) > ORACLE_TOL:
        raise ConsistencyError(
            f"I-concurrence {ci!r} disagrees with sqrt(2 (1 - 1/K)) = {ci_from_k!r}"
        )
    lam, _ = hermitian_eig(reduced_density(s))
    return QuquartReport(
        schmidt_k=k,
        i_concurrence=ci,
        entropy=vn_entropy(lam),
        lambdas=tuple(float(v) for v in lam),
    )


def schmidt_decompose(s):
    """Schmidt decomposition of the 16-dimensional two-photon state.

    Always at least two terms: a symmetrized product of distinct modes
    cannot factor, which is why K never reaches below 2.
    """
    return schmidt_from_symmetric(amplitude_matrix(s))


def family_psi_phi(phi):
    """One-parameter family (cos phi, 0, 0, sin phi) with its K and entropy.

    Returns (state, K, S_r) where K = 4/(1 + cos^2 2 phi) and S_r is the
    reduced entropy in bits; the family sweeps K from 2 (phi = 0) to 4
    (phi = 45 degrees).
    """
    c, s_ = math.cos(phi), math.sin(phi)
    state = QuquartState(c, 0.0, 0.0, s_)
    k = 4.0 / (1.0 + math.cos(2.0 * phi) ** 2)
    # entropy of the eigenvalue pairs (cos^2/2, cos^2/2, sin^2/2, sin^2/2)
    ent = 1.0
    for t in (c * c, s_ * s_):
        if t > 0.0:
            ent -= t * math.log2(t)
    return state, k, ent


def family_psi_phi_prime(phi):
    """One-parameter family (cos phi/sqrt(2), 1/2, 1/2, sin phi/sqrt(2)).

    Interpolates between K = 2 at phi = 45 degrees and K = 4 at phi = 135
    degrees; unlike family_psi_phi it is asymmetric under phi -> pi - phi.
    """
    return QuquartState(
        math.cos(phi) / SQRT2, 0.5, 0.5, math.sin(phi) / SQRT2
    )


def two_qubit_model(s):
    """Quantifiers of the frequency-blind two-qubit reduction of a ququart.

    Treating the pair as two polarization qubits (ignoring the frequency
    label) gives concurrence 2 |C1 C4 - C2 C3| and Schmidt parameter
    K_2qb = 1/(1 - 2 |C1 C4 - C2 C3|^2), exactly half the full two-qudit K.
    Both the halving relation and K_2qb = 1/Tr(rho_2qb^2) are verified at
    call time.
    """
    det = _pair_determinant(s)
    d = abs(det) ** 2
    c2qb = 2.0 * abs(det)
    k2qb = 1.0 / (1.0 - 2.0 * d)
    c1, c2, c3, c4 = s.amplitudes.tolist()
    cross = c1 * c3.conjugate() + c2 * c4.conjugate()
    rho = np.array(
        [
            [abs(c1) ** 2 + abs(c2) ** 2, cross],
            [cross.conjugate(), abs(c3) ** 2 + abs(c4) ** 2],
        ],
        dtype=complex,
    )
    # Tr(rho^2) is the squared Frobenius norm of the Hermitian rho
    k_oracle = 1.0 / np.vdot(rho, rho).real
    if abs(k2qb - k_oracle) > ORACLE_TOL:
        raise ConsistencyError(
            f"two-qubit K={k2qb!r} disagrees with 1/Tr(rho^2)={k_oracle!r}"
        )
    k_full = 2.0 / (1.0 - 2.0 * d)
    if abs(k_full - 2.0 * k2qb) > ORACLE_TOL:
        raise ConsistencyError(
            f"two-qudit K={k_full!r} is not twice the two-qubit K={k2qb!r}"
        )
    return TwoQubitModelReport(schmidt_k=k2qb, concurrence=c2qb, reduced=rho)


# 45-degree polarizer-frame transform on (C1, C2, C3, C4); orthogonal, not
# an involution (the inverse is the transpose)
_ROT45 = 0.5 * np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [-1.0, 1.0, -1.0, 1.0],
        [-1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def rotate_basis_45(s):
    """Ququart amplitudes in the polarizer frame turned by 45 degrees."""
    return QuquartState(*(_ROT45 @ s.amplitudes))


def qutrit_to_ququart_postselect(q):
    """Send a qutrit through a frequency-splitting beam splitter and postselect.

    Each photon acquires an angular (output-arm) factor; postselecting on the
    two photons leaving through different arms multiplies the polarization
    amplitude matrix by the exchange matrix
    [[0, 1], [1, 0]]/sqrt(2) in the arm labels.  The angular factor is itself
    maximally entangled, so the Schmidt parameter doubles:
    K_total = 2 K_qutrit, verified here against the 16-dimensional
    partial-trace oracle.

    Returns (composite, k_total) where composite is the 16-component vector
    on the product basis of (polarization x arm) single-photon modes.
    """
    m_pol = qutrit_wavefunction(q).reshape(2, 2)
    arm = np.array([[0.0, 1.0], [1.0, 0.0]]) / SQRT2
    composite = np.kron(m_pol, arm).reshape(16)
    k_total = schmidt_number(composite, 4)
    c = qutrit_concurrence(q)
    k_qutrit = 2.0 / (2.0 - c * c)
    if abs(k_total - 2.0 * k_qutrit) > 1e-10:
        raise ConsistencyError(
            f"postselected K={k_total!r} is not twice the qutrit K={k_qutrit!r}"
        )
    return composite, k_total
