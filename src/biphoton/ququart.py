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
from types import SimpleNamespace

import numpy as np

from .tensor import SCHMIDT_WEIGHT_CUTOFF, ConsistencyError
from .qutrit import (
    ORACLE_TOL,
    U45,
    _arm_composite,
    _block_purity,
    _check_close,
    _check_close_many,
    _check_norm,
    _check_terms,
    _decomposition,
    _degree_p,
    _degree_p_many,
    _entropy,
    _entropy_many,
    _mode_pair,
    _normalized,
    _partner,
    _rows,
    _spectrum,
    _spectrum_many,
    _squares,
)

SQRT2 = math.sqrt(2.0)

# numpy divides a complex by a real as a product with the reciprocal
_INV_SQRT2 = 1.0 / SQRT2

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
        _check_norm((self.c1, self.c2, self.c3, self.c4), "ququart")

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

    Phases pass through untouched.  Raises ValueError for a non-finite part
    and ZeroState for the zero vector.
    """
    return QuquartState(*_normalized((c1, c2, c3, c4)))


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


def amplitude_matrix(s):
    """Symmetric 4x4 amplitude matrix on the single-photon mode basis.

    Entry (i, j) and its mirror hold C/sqrt(2) for the basis state that
    symmetrizes modes i and j (see _BASIS_PAIRS); the other entries are zero.
    """
    # each part rounds as numpy's complex C / sqrt(2) does; + 0j turns a
    # -0.0 part into 0.0, so no entry holds a negative zero
    a1, a2, a3, a4 = [complex(c) * _INV_SQRT2 + 0j for c in (s.c1, s.c2, s.c3, s.c4)]
    z = 0j
    return np.array(
        [[z, a1, z, a2],
         [a1, z, a3, z],
         [z, a3, z, a4],
         [a2, z, a4, z]]
    )


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
    into two 2x2 blocks, each of trace 1/2.  Both blocks have the
    eigenvalues (1 +- P_h)/4, with P_h the polarization degree of the
    high-frequency photon, so quantify takes the spectrum in closed form;
    this matrix serves the tests and the benchmark as its oracle.
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


def _reduced_purity(s):
    # Tr(rho_r^2) with rho_r = M M^dagger of the 4x4 amplitude matrix M, in
    # Python complex arithmetic.  M couples (Hh, Vh) only to (Hl, Vl), through
    # A = [[C1, C2], [C3, C4]]/sqrt(2), so rho_r is the direct sum of
    # A A^dagger and A^T conj(A).  Each block is taken from its own entries
    # although the two agree in exact arithmetic: twice the first would make
    # the halving check of two_qubit_model a copy of its purity check.  The
    # 1/sqrt(2) scale divides each block's purity by exactly 4
    return (_block_purity(s.c1, s.c2, s.c3, s.c4) + _block_purity(s.c1, s.c3, s.c2, s.c4)) / 4.0


def _high_photon_state(c1, c2, c3, c4):
    # the high-frequency photon's polarization state, twice the (Hh, Vh)
    # block of reduced_density: its H and V populations and H-V coherence
    return (abs(c1) ** 2 + abs(c2) ** 2, abs(c3) ** 2 + abs(c4) ** 2,
            c1 * c3.conjugate() + c2 * c4.conjugate())


def quantify(s):
    """Compute the entanglement quantifiers of a ququart.

    Closed forms: with D = |C1 C4 - C2 C3|^2 and P_h the polarization degree
    of the high-frequency photon,

        K       = 2 / (1 - 2 D)        (in [2, 4])
        C_I     = sqrt(1 + 2 D)        (in [1, sqrt(1.5)])
        lambdas = (1 + P_h)/4 twice, then D/(1 + P_h) = (1 - P_h)/4 twice

    and the entropy of those four reduced eigenvalues in bits.  The small
    pair is schmidt_decompose's small weight bit for bit, and keeps its
    digits near P_h = 1: it is exactly 0 where D = 0.  K is
    cross-checked at call time against 1/Tr(rho_r^2) with rho_r = M M^dagger
    of the 4x4 amplitude matrix M, and against K(P_h) = 4/(1 + P_h^2);
    neither route passes through D.  M couples (Hh, Vh) only to (Hl, Vl),
    through A = [[C1, C2], [C3, C4]]/sqrt(2), so rho_r is the direct sum of
    A A^dagger and A^T conj(A); each block's purity is written out from its
    own entries in Python complex arithmetic, with no 4x4 array formed.

    Every value is taken in Python float and complex arithmetic.  The
    entropy is tensor.vn_entropy of the four lambdas bit for bit, from a
    kernel that sums the two distinct values, each twice, in its order with
    numpy's log2.
    """
    d = abs(_pair_determinant(s)) ** 2
    k = 2.0 / (1.0 - 2.0 * d)
    _check_close(k, 1.0 / _reduced_purity(s),
                 "closed-form K={!r} disagrees with 1/Tr(rho_r^2) K={!r}")
    # P_h from the high-frequency photon's Stokes vector, ordered as xi;
    # its length does not see the sign of a zero part, so the amplitudes
    # need no conversion to complex
    h, v, x = _high_photon_state(s.c1, s.c2, s.c3, s.c4)
    p = _degree_p((2.0 * x.real, -2.0 * x.imag, h - v))
    _check_close(k, 4.0 / (1.0 + p * p),
                 "K(D)={!r} disagrees with K(P_h) = 4/(1 + P_h^2) = {!r}")
    hi, lo = _spectrum(p, 4.0 * d, 4)
    return QuquartReport(k, math.sqrt(1.0 + 2.0 * d), _entropy(hi, lo, 4), (hi, hi, lo, lo))


def quantify_many(amps, *, first_row=0):
    """Array form of quantify: the quantifiers of n ququarts in one pass.

    amps holds one unit-norm ququart (C1, C2, C3, C4) per row, shape (n, 4),
    real or complex; a row off unit norm by more than 1e-9, or with a
    non-finite part, raises ValueError naming it.  The QuquartReport that
    comes back holds (n,) arrays, and lambdas an (n, 4) array.  The closed
    forms are quantify's, and so are the call-time checks of K against
    1/Tr(rho_r^2), rho_r = M M^dagger, and against K(P_h) = 4/(1 + P_h^2);
    a row that fails one raises ConsistencyError naming it.  Errors count
    rows from first_row, so a caller passing one block of a larger array
    names rows of the whole.  Real rows give quantify's values bit for bit,
    complex rows agree within 1e-14: numpy's complex products round
    differently from Python's.
    """
    a = _rows(amps, 4, "ququart", first_row)
    c1, c2, c3, c4 = a.T
    # _pair_determinant and _reduced_purity take columns as they take numbers
    cols = SimpleNamespace(c1=c1, c2=c2, c3=c3, c4=c4)
    d = _squares(abs(_pair_determinant(cols)))
    k = 2.0 / (1.0 - 2.0 * d)
    _check_close_many(k, 1.0 / _reduced_purity(cols),
                      "closed-form K={!r} disagrees with 1/Tr(rho_r^2) K={!r}", first_row)
    # _high_photon_state, with its squares element by element
    h = _squares(abs(c1)) + _squares(abs(c2))
    v = _squares(abs(c3)) + _squares(abs(c4))
    x = c1 * c3.conjugate() + c2 * c4.conjugate()
    p = _degree_p_many(2.0 * x.real, -2.0 * x.imag, h - v)
    _check_close_many(k, 4.0 / (1.0 + p * p),
                      "K(D)={!r} disagrees with K(P_h) = 4/(1 + P_h^2) = {!r}", first_row)
    hi, lo = _spectrum_many(p, 4.0 * d, 4)
    return QuquartReport(k, np.sqrt(1.0 + 2.0 * d), _entropy_many(hi, lo, 4),
                         np.stack([hi, hi, lo, lo], axis=1))


def schmidt_decompose(s):
    """Schmidt decomposition of the 16-dimensional two-photon state.

    Always at least two terms: a symmetrized product of distinct modes
    cannot factor, which is why K never reaches below 2.

    Closed form, no eigensolver.  The amplitude matrix only couples the
    high-frequency modes (Hh, Vh) to the low-frequency ones (Hl, Vl),
    through A = [[C1, C2], [C3, C4]]/sqrt(2).  With e the high-frequency
    photon's polarization eigenvector for (1 + P_h)/2 and f the vector
    orthogonal to it, the low-frequency partners are w = A^T e*/|A^T e*| and
    g = e^{i arg(C1 C4 - C2 C3)} times the vector orthogonal to w, so that
    A = s1 e w^T + s2 f g^T.  Each such product gives two terms of equal
    weight, with modes (e, w)/sqrt(2) and i (e, -w)/sqrt(2) on
    (Hh, Hl, Vh, Vl): quantify's weights, (1 + P_h)/4 for e and w and
    (1 - P_h)/4 for f and g, bit for bit.  At call time the
    terms, dropped ones included, must rebuild A within ORACLE_TOL.
    """
    c1, c2, c3, c4 = complex(s.c1), complex(s.c2), complex(s.c3), complex(s.c4)
    h, v, x = _high_photon_state(c1, c2, c3, c4)
    xi = (2.0 * x.real, -2.0 * x.imag, h - v)
    p = _degree_p(xi)
    det = _pair_determinant(s)
    lam_hi, lam_lo = _spectrum(p, 4.0 * abs(det) ** 2, 4)
    a = ((c1 * _INV_SQRT2, c2 * _INV_SQRT2), (c3 * _INV_SQRT2, c4 * _INV_SQRT2))
    e, w = _mode_pair(a, xi, p)
    f = _partner(e, 1.0)
    g = _partner(w, det / abs(det) if det else 1.0)
    _check_terms(math.sqrt(lam_hi), e, w, math.sqrt(lam_lo), f, g, a)
    # the product e w^T gives the columns (e, w)/sqrt(2) and i (e, -w)/sqrt(2),
    # f g^T likewise; the rows run over (Hh, Hl, Vh, Vl)
    e0, e1, w0, w1 = e[0] * _INV_SQRT2, e[1] * _INV_SQRT2, w[0] * _INV_SQRT2, w[1] * _INV_SQRT2
    if lam_lo < SCHMIDT_WEIGHT_CUTOFF:
        return _decomposition([lam_hi, lam_hi], [
            e0 + 0j, 1j * e0 + 0j, w0 + 0j, -1j * w0 + 0j,
            e1 + 0j, 1j * e1 + 0j, w1 + 0j, -1j * w1 + 0j])
    f0, f1, g0, g1 = f[0] * _INV_SQRT2, f[1] * _INV_SQRT2, g[0] * _INV_SQRT2, g[1] * _INV_SQRT2
    return _decomposition([lam_hi, lam_hi, lam_lo, lam_lo], [
        e0 + 0j, 1j * e0 + 0j, f0 + 0j, 1j * f0 + 0j,
        w0 + 0j, -1j * w0 + 0j, g0 + 0j, -1j * g0 + 0j,
        e1 + 0j, 1j * e1 + 0j, f1 + 0j, 1j * f1 + 0j,
        w1 + 0j, -1j * w1 + 0j, g1 + 0j, -1j * g1 + 0j])


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
    K_2qb = 1/Tr(rho_2qb^2) is verified at call time, and so is the halving
    relation, against the M M^dagger K of the full ququart, taken block by
    block as in quantify.  The two-qubit purity is h^2 + v^2 + 2 |x|^2 from
    the high-frequency photon's populations h, v and coherence x.
    """
    det = _pair_determinant(s)
    d = abs(det) ** 2
    c2qb = 2.0 * abs(det)
    k2qb = 1.0 / (1.0 - 2.0 * d)
    # the frequency-blind reduced state is the high-frequency photon's
    h, v, cross = _high_photon_state(complex(s.c1), complex(s.c2), complex(s.c3), complex(s.c4))
    rho = np.array([h, cross, cross.conjugate(), v], dtype=complex).reshape(2, 2)
    # Tr(rho^2) is the squared Frobenius norm of the Hermitian rho
    _check_close(k2qb, 1.0 / (h * h + v * v + 2.0 * abs(cross) ** 2),
                 "two-qubit K={!r} disagrees with 1/Tr(rho^2)={!r}")
    k_full = 1.0 / _reduced_purity(s)
    if abs(k_full - 2.0 * k2qb) > ORACLE_TOL:
        raise ConsistencyError(
            f"two-qudit K={k_full!r} is not twice the two-qubit K={k2qb!r}"
        )
    return TwoQubitModelReport(k2qb, c2qb, rho)


# 45-degree polarizer-frame transform on (C1, C2, C3, C4): each photon turns
# by U45/sqrt(2).  Orthogonal, not an involution (the inverse is the
# transpose)
_ROT45 = np.kron(U45, U45) / 2.0


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
    K_total = 2 K_qutrit, with K_qutrit from qutrit.quantify, verified here
    against the 16-dimensional partial-trace oracle.

    Returns (composite, k_total) where composite is the 16-component vector
    on the product basis of (polarization x arm) single-photon modes.
    """
    return _arm_composite(q, np.array([[0.0, 1.0], [1.0, 0.0]]) / SQRT2, 2)
