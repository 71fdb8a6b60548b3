"""Each call-time check of a closed form against an independent route still
runs and fires: it passes a generic state, and raises ConsistencyError on the
same state once one of its inputs is off by 1e-6.
Also pins the accuracy of the M M^dagger route behind the K checks."""

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


def test_ququart_polarization_k_check_fires(monkeypatch):
    # K(D) = 2/(1 - 2 D) against K(P_h) = 4/(1 + P_h^2); P_h comes from the
    # high-frequency photon's Stokes vector, so the shift goes on its degree
    ququart.quantify(QUQUART)
    shifted(monkeypatch, ququart, "_degree_p")
    with pytest.raises(ConsistencyError, match=r"K\(P_h\)"):
        ququart.quantify(QUQUART)


def test_two_qubit_purity_check_fires(monkeypatch):
    ququart.two_qubit_model(QUQUART)
    shifted(monkeypatch, ququart, "_pair_determinant")
    with pytest.raises(ConsistencyError, match="two-qubit K"):
        ququart.two_qubit_model(QUQUART)


def test_two_qubit_halving_check_fires(monkeypatch):
    # the amplitude matrix feeds the full ququart's M M^dagger K alone, so a
    # shifted matrix leaves K_2qb and its own purity check untouched
    ququart.two_qubit_model(QUQUART)
    shifted(monkeypatch, ququart, "amplitude_matrix")
    with pytest.raises(ConsistencyError, match="not twice the two-qubit K"):
        ququart.two_qubit_model(QUQUART)


@pytest.mark.parametrize("module, state", [(qutrit, QUTRIT), (ququart, QUQUART)],
                         ids=["qutrit", "ququart"])
def test_schmidt_rebuild_check_fires(monkeypatch, module, state):
    # the leading weight and the first mode come from the polarization
    # degree, so the terms of a shifted degree no longer rebuild the state
    module.schmidt_decompose(state)
    shifted(monkeypatch, module, "_degree_p")
    with pytest.raises(ConsistencyError, match="Schmidt terms rebuild"):
        module.schmidt_decompose(state)


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
