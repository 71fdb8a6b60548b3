"""quantify's reduced eigenvalues and entropy against a 50-digit reference.

The reference reads a state's amplitudes as the exact binary fractions they
are and takes the reduced single-photon density matrix, its eigenvalues and
their entropy in the standard library's `decimal` at 50 significant digits.
It shares no formula with the package: the eigenvalues come from the trace
and determinant of the 2x2 polarization block, not from C, D or P.

The edge families are where double arithmetic loses digits by cancellation:
product states plus a small kick (P -> 1), ququarts with two zero amplitudes
and D = 0 (P_h = 1 exactly) and maximally entangled states (P = 0).
"""

import decimal
from decimal import Decimal

import numpy as np
import pytest

from biphoton import ququart, qutrit
from test_schmidt_closed_form import (
    kicked,
    maximal_ququart,
    near_maximal_qutrit,
    near_product_qutrit,
    product_ququart,
)

CTX = decimal.Context(prec=50)
LN2 = Decimal(2).ln(CTX)
_MODULE = {"qutrit": qutrit, "ququart": ququart}
_MAKE = {"qutrit": qutrit.make_qutrit, "ququart": ququart.make_ququart}


def _cmul_conj(x, y):
    # x y* for complex numbers held as (re, im) pairs of Decimals
    return (CTX.add(CTX.multiply(x[0], y[0]), CTX.multiply(x[1], y[1])),
            CTX.subtract(CTX.multiply(x[1], y[0]), CTX.multiply(x[0], y[1])))


def _abs2(x):
    return CTX.add(CTX.multiply(x[0], x[0]), CTX.multiply(x[1], x[1]))


def _block(kind, state):
    # the polarization block [[a, b], [b*, d]] of the reduced state, up to
    # a positive scale: for a qutrit M M^dagger with
    # M = [[C1, C2/sqrt(2)], [C2/sqrt(2), C3]], for a ququart the
    # high-frequency photon's (Hh, Vh) block; returns a, d and |b|^2
    amps = [(Decimal(complex(c).real), Decimal(complex(c).imag)) for c in state.amplitudes]
    if kind == "qutrit":
        c1, c2, c3 = amps
        half = CTX.divide(_abs2(c2), 2)
        b = [CTX.add(u, v) for u, v in zip(_cmul_conj(c1, c2), _cmul_conj(c2, c3))]
        return CTX.add(_abs2(c1), half), CTX.add(_abs2(c3), half), CTX.divide(_abs2(b), 2)
    c1, c2, c3, c4 = amps
    b = [CTX.add(u, v) for u, v in zip(_cmul_conj(c1, c3), _cmul_conj(c2, c4))]
    return CTX.add(_abs2(c1), _abs2(c2)), CTX.add(_abs2(c3), _abs2(c4)), _abs2(b)


def exact_spectrum(kind, state):
    """Descending reduced eigenvalues (two for a qutrit, four for a ququart,
    normalized to unit trace) and their entropy in bits, as Decimals."""
    a, d, b2 = _block(kind, state)
    t = CTX.add(a, d)
    gap = CTX.sqrt(CTX.add(CTX.power(CTX.subtract(a, d), 2), CTX.multiply(4, b2)))
    hi = CTX.divide(CTX.add(t, gap), 2)
    # the small eigenvalue as det/hi; det only cancels to 50 digits
    lo = max(Decimal(0), CTX.divide(CTX.subtract(CTX.multiply(a, d), b2), hi))
    lam = [CTX.divide(hi, t), CTX.divide(lo, t)]
    if kind == "ququart":
        lam = [CTX.divide(x, 2) for x in lam for _ in range(2)]
    entropy = Decimal(0)
    for x in lam:
        if x > 0:
            entropy = CTX.subtract(entropy, CTX.divide(CTX.multiply(x, x.ln(CTX)), LN2))
    return lam, entropy


def quantify_spectrum(kind, state):
    rep = _MODULE[kind].quantify(state)
    if kind == "qutrit":
        return [rep.lambda_plus, rep.lambda_minus], rep.entropy
    return list(rep.lambdas), rep.entropy


def zero_pair_ququarts(n, seed):
    """n complex Gaussian ququarts with C1 or C4 and C2 or C3 set to zero,
    so D = |C1 C4 - C2 C3|^2 = 0 exactly and the spectrum is (1/2, 1/2, 0, 0)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v[[rng.choice([0, 3]), rng.choice([1, 2])]] = 0.0
        out.append(ququart.make_ququart(*v.tolist()))
    return out


def unkicked(kind, centre, seed, n):
    rng = np.random.default_rng(seed)
    return [_MAKE[kind](*centre(rng).tolist()) for _ in range(n)]


def errors(kind, states):
    """Worst errors against the reference over the states: the small
    eigenvalue's relative error, the largest absolute eigenvalue error and
    the absolute entropy error."""
    small = every = entropy = 0.0
    for s in states:
        lam, ent = quantify_spectrum(kind, s)
        ref, ref_ent = exact_spectrum(kind, s)
        if ref[-1] > 0:
            small = max(small, float(abs(Decimal(lam[-1]) - ref[-1]) / ref[-1]))
        every = max(every, max(float(abs(Decimal(x) - r)) for x, r in zip(lam, ref)))
        entropy = max(entropy, float(abs(Decimal(ent) - ref_ent)))
    return small, every, entropy


@pytest.mark.parametrize("kind, centre", [("qutrit", near_product_qutrit),
                                          ("ququart", product_ququart)])
def test_near_product_small_eigenvalue_keeps_its_digits(kind, centre):
    # P -> 1: (1 - P)/d keeps only the digits of 1 - P, while the relative
    # error left in (1 - P^2)/(d (1 + P)) is det's own rounding, about
    # 1e-16/kick.  The entropy's error is absolute: (1 + P)/d rounds at
    # 1e-16, so its relative error near a product qutrit can reach 1e-2
    states = kicked(kind, centre, 3 if kind == "qutrit" else 4, 300, (-7, -3))
    small, _, entropy = errors(kind, states)
    assert small <= 1e-8
    assert entropy <= 1e-15


def test_zero_pair_ququarts_have_entropy_one():
    # D = 0 gives the small pair exactly 0, so the entropy is 1 bit exactly
    # where (1 + P_h)/4 is within a rounding of 1/2
    states = zero_pair_ququarts(2000, 41)
    for s in states:
        lam, ent = quantify_spectrum("ququart", s)
        assert lam[2:] == [0.0, 0.0]
        assert ent == 1.0
        assert abs(exact_spectrum("ququart", s)[1] - 1) <= Decimal("1e-40")
    assert errors("ququart", states)[1] <= 2.3e-16


@pytest.mark.parametrize("kind, centre", [("qutrit", near_maximal_qutrit),
                                          ("ququart", maximal_ququart)])
def test_maximally_entangled_spectrum(kind, centre):
    # P = 0: every eigenvalue is 1/d and the entropy is 1 (qutrit) or 2 bits
    # (ququart), up to the rounding of the amplitudes
    _, every, entropy = errors(kind, unkicked(kind, centre, 5, 300))
    assert every <= 1e-15
    assert entropy <= 2e-15


@pytest.mark.parametrize("kind", ["qutrit", "ququart"])
def test_haar_spectrum(kind):
    dim = 3 if kind == "qutrit" else 4
    rng = np.random.default_rng(6)
    states = [_MAKE[kind](*(rng.normal(size=dim) + 1j * rng.normal(size=dim)).tolist())
              for _ in range(300)]
    _, every, entropy = errors(kind, states)
    assert every <= 1e-15
    assert entropy <= 2e-15
