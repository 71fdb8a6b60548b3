"""Each call-time check of a closed form against an independent route still
runs and fires: it passes a generic state, and raises ConsistencyError on the
same state once one of its inputs is off by 1e-6.
Also pins the accuracy of the M M^dagger route behind the K checks, on random
and on edge states, and the entry-by-entry Schmidt rebuild check."""

import numpy as np
import pytest

from biphoton import measurement, ququart, qutrit, tensor
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
    # the full ququart's block-by-block purity feeds its M M^dagger K alone,
    # so a shifted purity leaves K_2qb and its own purity check untouched
    ququart.two_qubit_model(QUQUART)
    shifted(monkeypatch, ququart, "_reduced_purity")
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


def shifted_row(monkeypatch, module, name, row):
    # one row of an array helper's output off by OFF
    original = getattr(module, name)

    def shift(*args):
        out = np.array(original(*args))
        out[row] += OFF
        return out

    monkeypatch.setattr(module, name, shift)


@pytest.mark.parametrize("module, state, name, message", [
    (qutrit, QUTRIT, "concurrence", "closed-form K"),
    (qutrit, QUTRIT, "_block_purity", "closed-form K"),
    (ququart, QUQUART, "_pair_determinant", "closed-form K"),
    (ququart, QUQUART, "_reduced_purity", "closed-form K"),
    (ququart, QUQUART, "_degree_p_many", r"K\(D\)=.* disagrees with K\(P_h\)"),
], ids=["qutrit-concurrence", "qutrit-purity", "ququart-determinant", "ququart-purity",
        "ququart-degree"])
def test_batched_check_fires_on_one_row_and_names_it(monkeypatch, module, state, name, message):
    # each side of each check of quantify_many, on one row of nine copies
    amps = np.tile(state.amplitudes, (9, 1))
    module.quantify_many(amps)
    shifted_row(monkeypatch, module, name, 5)
    with pytest.raises(ConsistencyError, match=f"^row 5: {message}"):
        module.quantify_many(amps)


# the function behind each kind's M M^dagger K: Tr(rho_r^2) of the qutrit's
# one 2x2 block, and of the ququart's two blocks summed
ORACLES = {qutrit: "_block_purity", ququart: "_reduced_purity"}


def oracle_purities(monkeypatch, module):
    # record Tr(rho_r^2) as the quantify functions compute it
    seen = []
    oracle = ORACLES[module]
    original = getattr(module, oracle)

    def spy(*args):
        out = original(*args)
        seen.append(out)
        return out

    monkeypatch.setattr(module, oracle, spy)
    return seen


@pytest.mark.parametrize("module, make, n, d", [
    (qutrit, qutrit.make_qutrit, 3, 2),
    (ququart, ququart.make_ququart, 4, 4),
])
def test_k_oracle_matches_partial_trace(monkeypatch, module, make, n, d):
    seen = oracle_purities(monkeypatch, module)
    worst = 0.0
    for _ in range(1000):
        state = make(*random_amplitudes(n))
        seen.clear()
        module.quantify(state)
        assert len(seen) == 1
        k_dense = tensor.schmidt_number(module.wavefunction(state), d)
        worst = max(worst, abs(1.0 / seen[0] - k_dense))
    assert worst <= 1e-13


def edge_amplitudes(n, seed):
    # amplitude lists for make_qutrit (n = 3) or make_ququart (n = 4): one
    # and two zero amplitudes at every position, real amplitudes of mixed
    # signs, and one amplitude scaled down to 1e-1 ... 1e-9
    edge_rng = np.random.default_rng(seed)

    def draw():
        return edge_rng.normal(size=n) + 1j * edge_rng.normal(size=n)

    states = []
    for zeros in [[i] for i in range(n)] + [[i, j] for i in range(n) for j in range(i + 1, n)]:
        for _ in range(5):
            amps = draw()
            amps[zeros] = 0.0
            states.append(amps)
    states += [edge_rng.normal(size=n) for _ in range(20)]
    for e in range(1, 10):
        for i in range(n):
            amps = draw()
            amps[i] *= 10.0 ** -e
            states.append(amps)
    return states


EDGE_QUTRITS = (
    [qutrit.make_qutrit(*a) for a in edge_amplitudes(3, 71)]
    + [qutrit.non_entangled_family(phi, p1, p3)
       for phi in (0.0, 0.3, np.pi / 2, 2.0, np.pi) for p1, p3 in ((0.0, 0.0), (0.7, -1.9))]
    + [qutrit.max_entangled_family(phi, p1, p3)
       for phi in (0.0, 0.3, np.pi / 4, np.pi / 2) for p1, p3 in ((0.0, 0.0), (0.7, -1.9))]
)
EDGE_QUQUARTS = (
    [ququart.make_ququart(*a) for a in edge_amplitudes(4, 72)]
    + [ququart.make_ququart(*a) for a in ([1, 0, 0, 1], [1, 1, 1, -1], [1, 0, 0, 1e-7])]
)


@pytest.mark.parametrize("module, states, d", [
    (qutrit, EDGE_QUTRITS, 2),
    (ququart, EDGE_QUQUARTS, 4),
], ids=["qutrit", "ququart"])
def test_k_oracle_matches_partial_trace_on_edge_states(monkeypatch, module, states, d):
    seen = oracle_purities(monkeypatch, module)
    for state in states:
        seen.clear()
        module.quantify(state)
        assert len(seen) == 1
        k_dense = tensor.schmidt_number(module.wavefunction(state), d)
        assert abs(1.0 / seen[0] - k_dense) <= 1e-13, state


# two generic terms s a b^T, the form of a Schmidt term
TERMS = (0.8, (0.6, 0.8j), (0.28 - 0.96j, 0.0), 0.3, (-0.8j, 0.6), (0.0, 1.0))


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_schmidt_rebuild_check_fires_on_each_entry(i, j):
    s1, a, b, s2, c, d = TERMS
    block = [[s1 * a[r] * b[k] + s2 * c[r] * d[k] for k in (0, 1)] for r in (0, 1)]
    qutrit._check_terms(s1, a, b, s2, c, d, block)
    block[i][j] += 1e-9
    with pytest.raises(ConsistencyError, match="Schmidt terms rebuild"):
        qutrit._check_terms(s1, a, b, s2, c, d, block)


def test_spin_flip_check_fires(monkeypatch):
    qutrit.spin_flip_concurrence(QUTRIT)
    shifted(monkeypatch, qutrit, "concurrence")
    with pytest.raises(ConsistencyError, match="spin-flip concurrence"):
        qutrit.spin_flip_concurrence(QUTRIT)


@pytest.mark.parametrize("build, ratio", [
    (measurement.beam_splitter_wavefunction, 1),
    (ququart.qutrit_to_ququart_postselect, 2),
], ids=["beam_splitter", "postselect"])
def test_arm_composite_k_check_fires(monkeypatch, build, ratio):
    # the composite's K against ratio times the qutrit's; the callers' arm
    # matrices keep that relation for every qutrit, so the shift goes on the
    # oracle
    build(QUTRIT)
    original = qutrit.schmidt_number
    monkeypatch.setattr(qutrit, "schmidt_number", lambda psi, d: original(psi, d) + OFF)
    with pytest.raises(ConsistencyError, match=f"is not {ratio} times the qutrit K"):
        build(QUTRIT)
