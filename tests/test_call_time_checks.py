"""Each call-time check of a closed form against an independent route still
runs and fires: it passes a generic state, and raises ConsistencyError on the
same state once a closed-form input is off by 1e-6.
Also pins the accuracy of the M M^dagger route behind the K checks."""

import math
import types

import numpy as np
import pytest

from biphoton import ququart, qutrit, tensor
from biphoton.tensor import ConsistencyError


OFF = 1e-6

rng = np.random.default_rng(20261018)


def random_amplitudes(n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# generic states, entangled enough that a 1e-6 shift of C or D moves K by
# far more than the 1e-12 tolerance
QUTRIT = qutrit.make_qutrit(0.6, 0.5j, -0.4 + 0.3j)
QUQUART = ququart.make_ququart(0.5, -0.2 + 0.4j, 0.3j, 0.6 - 0.1j)


def shifted(monkeypatch, module, name):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda s: original(s) + OFF)


def test_qutrit_k_check_fires(monkeypatch):
    qutrit.quantify(QUTRIT)
    shifted(monkeypatch, qutrit, "concurrence")
    with pytest.raises(ConsistencyError, match="closed-form K"):
        qutrit.quantify(QUTRIT)


def test_qutrit_anticorrelation_check_fires(monkeypatch):
    qutrit.polarization(QUTRIT)
    shifted(monkeypatch, qutrit, "concurrence")
    with pytest.raises(ConsistencyError, match=r"C\^2 \+ P\^2"):
        qutrit.polarization(QUTRIT)


def test_ququart_k_check_fires(monkeypatch):
    ququart.quantify(QUQUART)
    shifted(monkeypatch, ququart, "_pair_determinant")
    with pytest.raises(ConsistencyError, match="closed-form K"):
        ququart.quantify(QUQUART)


def test_ququart_i_concurrence_check_fires(monkeypatch):
    # C_I = sqrt(1 + 2 D) is the first square root quantify takes; D itself
    # feeds both sides of this check, so the shift goes on the root
    ququart.quantify(QUQUART)
    calls = []

    def sqrt(x):
        calls.append(x)
        return math.sqrt(x) + (OFF if len(calls) == 1 else 0.0)

    monkeypatch.setattr(ququart, "math", types.SimpleNamespace(sqrt=sqrt))
    with pytest.raises(ConsistencyError, match="I-concurrence"):
        ququart.quantify(QUQUART)
    assert len(calls) == 2


def test_two_qubit_purity_check_fires(monkeypatch):
    ququart.two_qubit_model(QUQUART)
    shifted(monkeypatch, ququart, "_pair_determinant")
    with pytest.raises(ConsistencyError, match="two-qubit K"):
        ququart.two_qubit_model(QUQUART)


def oracle_purities(monkeypatch):
    # record Tr(rho_r^2) as the quantify functions compute it
    seen = []
    vdot = np.vdot

    def spy(a, b):
        out = vdot(a, b)
        seen.append(out.real)
        return out

    monkeypatch.setattr(np, "vdot", spy)
    return seen


@pytest.mark.parametrize("module, make, n, d", [
    (qutrit, qutrit.make_qutrit, 3, 2),
    (ququart, ququart.make_ququart, 4, 4),
])
def test_k_oracle_matches_partial_trace(monkeypatch, module, make, n, d):
    seen = oracle_purities(monkeypatch)
    worst = 0.0
    for _ in range(1000):
        state = make(*random_amplitudes(n))
        seen.clear()
        module.quantify(state)
        assert len(seen) == 1
        k_dense = tensor.schmidt_number(module.wavefunction(state), d)
        worst = max(worst, abs(1.0 / seen[0] - k_dense))
    assert worst <= 1e-13
