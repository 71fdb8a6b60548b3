"""Tests for frequency-nondegenerate biphoton ququarts: basis vectors,
reduced density matrices, quantifiers, example families, the two-qubit
comparison model, 45-degree rotation and beam-splitter post-selection."""

import math

import numpy as np
import pytest

from biphoton import ququart, qutrit, tensor


SQRT2 = math.sqrt(2.0)

rng = np.random.default_rng(20240819)


def random_ququart():
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return ququart.make_ququart(*v)


def unit(i):
    e = np.zeros(4)
    e[i] = 1.0
    return e


# ---------------------------------------------------------------------------
# basis vectors

def test_basis_wavefunction_structure():
    hh = ququart.basis_wavefunction("HH")
    assert np.allclose(hh, (tensor.kron(unit(0), unit(1)) + tensor.kron(unit(1), unit(0))) / SQRT2)
    hv = ququart.basis_wavefunction("HV")
    assert np.allclose(hv, (tensor.kron(unit(0), unit(3)) + tensor.kron(unit(3), unit(0))) / SQRT2)


def test_basis_wavefunctions_orthonormal():
    vecs = [ququart.basis_wavefunction(lbl) for lbl in ququart.BASIS_LABELS]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_wavefunction_basis_state_and_support():
    s = ququart.make_ququart(1, 0, 0, 0)
    assert np.allclose(ququart.wavefunction(s), ququart.basis_wavefunction("HH"))
    psi = ququart.wavefunction(random_ququart())
    assert np.count_nonzero(np.abs(psi) > 1e-15) <= 8


def test_wavefunction_swap_symmetric():
    m = ququart.wavefunction(random_ququart()).reshape(4, 4)
    assert np.max(np.abs(m - m.T)) <= 1e-12


def test_make_ququart_rejects_zero():
    with pytest.raises(qutrit.ZeroState):
        ququart.make_ququart(0, 0, 0, 0)


def test_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        ququart.QuquartState(1, 0, 0, complex("nan+nanj"))


@pytest.mark.parametrize("make, size", [(qutrit.make_qutrit, 3), (ququart.make_ququart, 4)])
@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.nan),
                                 math.inf, -math.inf, complex(0, math.inf),
                                 complex(0, -math.inf)])
@pytest.mark.parametrize("rest", [0.0, 0.5])
def test_make_rejects_non_finite_amplitudes(make, size, bad, rest):
    # a NaN part beside zeros is no zero vector, and beside 0.5 it leaves
    # the largest part finite: each part must be checked
    for i in range(size):
        amps = [rest] * size
        amps[i] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite") as err:
            make(*amps)
        assert type(err.value) is ValueError


@pytest.mark.parametrize("make, size", [(qutrit.QutritState, 3), (ququart.QuquartState, 4)])
@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.nan),
                                 math.inf, -math.inf, complex(0, math.inf),
                                 complex(0, -math.inf)])
def test_state_names_non_finite_amplitudes(make, size, bad):
    # make_* refuses the same input, so the message must not send the caller
    # there; beside a unit amplitude or zeros alike
    for rest in (0.0, 1.0):
        for i in range(size):
            amps = [rest] * size
            amps[i] = bad
            with pytest.raises(ValueError, match="amplitudes must be finite") as err:
                make(*amps)
            assert "make_" not in str(err.value)


@pytest.mark.parametrize("make, amps, norm",
                         [(qutrit.QutritState, (1, 1, 0), r"2\.0"),
                          (ququart.QuquartState, (1, 1, 0, 0), r"2\.0"),
                          # finite, but the squares overflow
                          (qutrit.QutritState, (1e200, 0, 0), "inf"),
                          (ququart.QuquartState, (0, 0, 1e200j, 0), "inf")])
def test_unnormalized_state_prints_its_squared_norm(make, amps, norm):
    # one norm check for both kinds, in Python floats whatever the input type
    with pytest.raises(ValueError, match=rf"squared norm {norm}; use make_"):
        make(*amps)


# ---------------------------------------------------------------------------
# density matrices

def test_density_matrix_is_projector():
    rho = ququart.density_matrix(random_ququart())
    assert rho.shape == (16, 16)
    assert abs(np.trace(rho) - 1) <= 1e-12
    assert np.max(np.abs(rho @ rho - rho)) <= 1e-12


def test_reduced_density_basis_state():
    red = ququart.reduced_density(ququart.make_ququart(1, 0, 0, 0))
    assert np.allclose(red, np.diag([0.5, 0.5, 0, 0]))


def test_reduced_density_family_diagonal():
    phi = 0.6
    s, _, _ = ququart.family_psi_phi(phi)
    red = ququart.reduced_density(s)
    c2, s2 = math.cos(phi) ** 2, math.sin(phi) ** 2
    assert np.allclose(red, np.diag([c2 / 2, c2 / 2, s2 / 2, s2 / 2]))


def test_reduced_density_matches_partial_trace():
    for _ in range(20):
        s = random_ququart()
        psi = ququart.wavefunction(s)
        oracle = tensor.partial_trace(np.outer(psi, psi.conj()), 4)
        assert np.max(np.abs(ququart.reduced_density(s) - oracle)) <= 1e-12


def test_reduced_density_checkerboard_zeros():
    red = ququart.reduced_density(random_ququart())
    for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert abs(red[i, j]) <= 1e-15
        assert abs(red[j, i]) <= 1e-15


# ---------------------------------------------------------------------------
# quantifiers

def test_quantify_minimal_entanglement():
    rep = ququart.quantify(ququart.make_ququart(1, 0, 0, 0))
    assert abs(rep.schmidt_k - 2) <= 1e-12
    assert abs(rep.i_concurrence - 1) <= 1e-12
    assert abs(rep.entropy - 1) <= 1e-12


def test_quantify_maxima():
    for amps in ((1, 0, 0, 1), (1, 1, 1, -1)):
        rep = ququart.quantify(ququart.make_ququart(*amps))
        assert abs(rep.schmidt_k - 4) <= 1e-12
        assert abs(rep.i_concurrence - math.sqrt(1.5)) <= 1e-12


def test_quantify_ranges_and_degeneracy():
    # every biphoton ququart is entangled: K >= 2, twice-degenerate spectrum
    for _ in range(50):
        rep = ququart.quantify(random_ququart())
        assert 2 - 1e-12 <= rep.schmidt_k <= 4 + 1e-12
        assert 1 - 1e-12 <= rep.i_concurrence <= math.sqrt(1.5) + 1e-12
        assert 1 - 1e-12 <= rep.entropy <= 2 + 1e-12
        l = rep.lambdas
        assert abs(l[0] - l[1]) <= 1e-12
        assert abs(l[2] - l[3]) <= 1e-12
        assert abs(sum(l) - 1) <= 1e-12


def test_quantify_concurrence_schmidt_relation():
    for _ in range(50):
        rep = ququart.quantify(random_ququart())
        assert abs(rep.i_concurrence - math.sqrt(2 * (1 - 1 / rep.schmidt_k))) <= 1e-12


@pytest.fixture(scope="module")
def haar():
    v = np.random.default_rng(7).normal(size=(20000, 4, 2)) @ [1, 1j]
    return [ququart.make_ququart(*row) for row in v.tolist()]


def test_quantify_spectrum_is_closed_form_pairs(haar):
    # lambdas = (1 + P_h)/4 twice, then (1 - P_h)/4 twice: exact pairs,
    # descending, and within 1e-15 of the dense eigensolver
    worst = 0.0
    for s in haar:
        lam = ququart.quantify(s).lambdas
        assert lam[0] == lam[1] >= lam[2] == lam[3]
        dense, _ = tensor.hermitian_eig(ququart.reduced_density(s))
        worst = max(worst, np.max(np.abs(np.subtract(lam, dense))))
    assert worst <= 1e-15


# the amplitude matrix as built before it became one np.array call: C/sqrt(2)
# stored by fancy indexing in numpy, then m + m.T
_PAIR_INDEX = tuple(np.array([ququart._BASIS_PAIRS[b] for b in ququart.BASIS_LABELS]).T)


def amplitude_matrix_oracle(s):
    m = np.zeros((4, 4), dtype=complex)
    m[_PAIR_INDEX] = s.amplitudes / SQRT2
    return m + m.T


def test_amplitude_matrix_bits_match_numpy_construction(haar):
    signed_zeros = [
        ququart.QuquartState(complex(-0.0, 0.6), complex(0.8, -0.0), -0.0, complex(-0.0, -0.0)),
        ququart.QuquartState(-0.6, 0.0, complex(-0.0, -0.8), 0),
    ]
    rotated = [ququart.rotate_basis_45(s) for s in haar[:100] + signed_zeros]
    for s in haar + signed_zeros + rotated:
        m = ququart.amplitude_matrix(s)
        assert m.dtype == complex and m.shape == (4, 4)
        assert m.tobytes() == amplitude_matrix_oracle(s).tobytes()


def test_schmidt_decompose_never_single_term():
    for _ in range(20):
        dec = ququart.schmidt_decompose(random_ququart())
        assert dec.num_terms >= 2
        s = random_ququart()
        err = np.max(
            np.abs(ququart.schmidt_decompose(s).reconstruct() - ququart.wavefunction(s))
        )
        assert err <= 1e-9


# ---------------------------------------------------------------------------
# example families

def test_family_psi_phi_points():
    s, k, entropy = ququart.family_psi_phi(0.0)
    assert abs(k - 2) <= 1e-12
    assert abs(entropy - 1) <= 1e-12
    _, k, entropy = ququart.family_psi_phi(math.pi / 4)
    assert abs(k - 4) <= 1e-12
    assert abs(entropy - 2) <= 1e-12
    _, k, _ = ququart.family_psi_phi(math.pi / 6)
    assert abs(k - 3.2) <= 1e-12


def test_family_psi_phi_matches_quantify():
    for phi in np.linspace(0, math.pi, 25):
        s, k, entropy = ququart.family_psi_phi(phi)
        rep = ququart.quantify(s)
        assert abs(rep.schmidt_k - k) <= 1e-12
        assert abs(rep.entropy - entropy) <= 1e-12
        assert abs(k - 4 / (1 + math.cos(2 * phi) ** 2)) <= 1e-12


def test_family_psi_phi_prime_points():
    for phi, k_want in ((math.pi / 4, 2.0), (3 * math.pi / 4, 4.0), (0.0, 16 / 7)):
        s = ququart.family_psi_phi_prime(phi)
        assert abs(ququart.quantify(s).schmidt_k - k_want) <= 1e-12


def test_family_psi_phi_prime_asymmetry():
    # K(phi) != K(pi - phi) for generic phi
    phi = 0.4
    k1 = ququart.quantify(ququart.family_psi_phi_prime(phi)).schmidt_k
    k2 = ququart.quantify(ququart.family_psi_phi_prime(math.pi - phi)).schmidt_k
    assert abs(k1 - k2) > 0.1


# ---------------------------------------------------------------------------
# two-qubit comparison model

def test_two_qubit_model_contrast_point():
    # the model calls the basis state separable; the two-qudit K disagrees
    s = ququart.make_ququart(1, 0, 0, 0)
    model = ququart.two_qubit_model(s)
    assert abs(model.schmidt_k - 1) <= 1e-12
    assert model.concurrence <= 1e-12
    assert abs(ququart.quantify(s).schmidt_k - 2) <= 1e-12


def test_two_qubit_model_bell_state():
    model = ququart.two_qubit_model(ququart.make_ququart(1, 0, 0, 1))
    assert abs(model.schmidt_k - 2) <= 1e-12
    assert abs(model.concurrence - 1) <= 1e-12


def test_two_qubit_model_factor_of_two():
    for _ in range(50):
        s = random_ququart()
        model = ququart.two_qubit_model(s)
        assert abs(ququart.quantify(s).schmidt_k - 2 * model.schmidt_k) <= 1e-12
        assert abs(np.trace(model.reduced) - 1) <= 1e-12


# ---------------------------------------------------------------------------
# 45-degree rotation

def test_rotate_basis_45_examples():
    out = ququart.rotate_basis_45(ququart.make_ququart(1, 0, 0, 0))
    assert np.allclose(out.amplitudes, [0.5, -0.5, -0.5, 0.5])
    out = ququart.rotate_basis_45(ququart.make_ququart(1, 1, 1, 1))
    assert np.allclose(out.amplitudes, [1, 0, 0, 0])


def test_rotate_basis_45_preserves_norm_and_k():
    for _ in range(20):
        s = random_ququart()
        out = ququart.rotate_basis_45(s)
        assert abs(np.linalg.norm(out.amplitudes) - 1) <= 1e-12
        assert abs(
            ququart.quantify(out).schmidt_k - ququart.quantify(s).schmidt_k
        ) <= 1e-12


# ---------------------------------------------------------------------------
# beam-splitter post-selection

def test_postselect_examples():
    _, k = ququart.qutrit_to_ququart_postselect(qutrit.make_qutrit(1, 0, 0))
    assert abs(k - 2) <= 1e-10
    _, k = ququart.qutrit_to_ququart_postselect(qutrit.make_qutrit(0, 1, 0))
    assert abs(k - 4) <= 1e-10
    _, k = ququart.qutrit_to_ququart_postselect(qutrit.make_qutrit(0.6, 0, 0.8))
    assert abs(k - 2 * 1.8545994065281899) <= 1e-10


def test_postselect_doubles_schmidt_number():
    for _ in range(20):
        q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        composite, k_total = ququart.qutrit_to_ququart_postselect(q)
        assert abs(np.linalg.norm(composite) - 1) <= 1e-12
        assert abs(k_total - 2 * qutrit.quantify(q).schmidt_k) <= 1e-10
        # the returned K comes from the 16-dim partial-trace oracle
        assert abs(k_total - tensor.schmidt_number(composite, 4)) <= 1e-12
