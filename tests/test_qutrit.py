"""Tests for biphoton qutrit states: construction, density matrices,
entanglement quantifiers, Schmidt modes, polarization and basis rotation."""

import math

import numpy as np
import pytest

from biphoton import qutrit, tensor


SQRT2 = math.sqrt(2.0)

rng = np.random.default_rng(20240818)


def random_qutrit():
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return qutrit.make_qutrit(*v)


# ---------------------------------------------------------------------------
# construction

def test_make_qutrit_normalizes():
    q = qutrit.make_qutrit(2, 0, 0)
    assert np.allclose(q.amplitudes, [1, 0, 0])
    q = qutrit.make_qutrit(1, 1, 1)
    assert np.allclose(q.amplitudes, np.ones(3) / math.sqrt(3))


def test_make_qutrit_keeps_global_phase():
    q = qutrit.make_qutrit(2j, 0, 0)
    assert np.allclose(q.amplitudes, [1j, 0, 0])


def test_make_qutrit_rejects_zero():
    with pytest.raises(qutrit.ZeroState):
        qutrit.make_qutrit(0, 0, 0)


def test_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        qutrit.QutritState(float("nan"), 0, 0)


def test_make_qutrit_scales_huge_and_tiny_input():
    for scale in (1e200, 1e-200, 1e-320):
        q = qutrit.make_qutrit(scale, 0, 1j * scale)
        assert np.allclose(q.amplitudes, [1 / SQRT2, 0, 1j / SQRT2], atol=1e-15)
    q = qutrit.make_qutrit(1e200, 0, 1)
    assert q.amplitudes[0] == 1 and abs(q.amplitudes[2] - 1e-200) <= 1e-215


def test_make_qutrit_scaling_keeps_the_bits():
    # the power-of-two scale must not change ordinary input in the last bit
    gen = np.random.default_rng(11)
    for _ in range(50):
        v = gen.normal(size=3) + 1j * gen.normal(size=3)
        norm = math.sqrt(sum(abs(complex(c)) ** 2 for c in v))
        want = [complex(c) / norm for c in v]
        assert list(qutrit.make_qutrit(*v).amplitudes) == want


def test_state_invariant_enforced():
    with pytest.raises(ValueError):
        qutrit.QutritState(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# wavefunction and Bell coefficients

def test_wavefunction_columns():
    assert np.allclose(
        qutrit.wavefunction(qutrit.make_qutrit(0, 1, 0)),
        [0, 1 / SQRT2, 1 / SQRT2, 0],
    )
    assert np.allclose(qutrit.wavefunction(qutrit.make_qutrit(1, 0, 0)), [1, 0, 0, 0])
    assert np.allclose(
        qutrit.wavefunction(qutrit.make_qutrit(1, 0, 1)),
        np.array([1, 0, 0, 1]) / SQRT2,
    )


def test_wavefunction_swap_symmetric():
    psi = qutrit.wavefunction(random_qutrit())
    assert psi[1] == psi[2]


def test_bell_coefficients_values():
    b = qutrit.bell_coefficients(qutrit.make_qutrit(1, 0, 0))
    assert np.allclose([b.c_plus, b.c_minus, b.c2], [1 / SQRT2, 1 / SQRT2, 0])
    b = qutrit.bell_coefficients(qutrit.make_qutrit(1, 0, 1))
    assert np.allclose([b.c_plus, b.c_minus, b.c2], [1, 0, 0])


def test_bell_round_trip():
    q = random_qutrit()
    back = qutrit.from_bell(qutrit.bell_coefficients(q))
    assert np.max(np.abs(back.amplitudes - q.amplitudes)) <= 1e-15


# ---------------------------------------------------------------------------
# density matrices

def test_density_matrix_basis_states():
    rho = qutrit.density_matrix(qutrit.make_qutrit(1, 0, 0))
    assert np.allclose(rho, np.diag([1, 0, 0, 0]))
    rho = qutrit.density_matrix(qutrit.make_qutrit(0, 1, 0))
    expect = np.zeros((4, 4))
    expect[1:3, 1:3] = 0.5
    assert np.allclose(rho, expect)


def test_density_matrix_closed_form_entries():
    q = random_qutrit()
    c1, c2, c3 = q.amplitudes
    rho = qutrit.density_matrix(q)
    assert abs(rho[0, 0] - abs(c1) ** 2) <= 1e-12
    assert abs(rho[0, 1] - c1 * np.conj(c2) / SQRT2) <= 1e-12
    assert abs(rho[1, 1] - abs(c2) ** 2 / 2) <= 1e-12
    assert abs(rho[0, 3] - c1 * np.conj(c3)) <= 1e-12


def test_density_matrix_is_pure_projector():
    rho = qutrit.density_matrix(random_qutrit())
    assert abs(np.trace(rho) - 1) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.max(np.abs(rho @ rho - rho)) <= 1e-12


def test_transformed_density_third_row_empty():
    # the antisymmetric Bell component never appears in a symmetric state
    q = random_qutrit()
    t = qutrit.transformed_density(q)
    assert np.max(np.abs(t[2, :])) <= 1e-12
    assert np.max(np.abs(t[:, 2])) <= 1e-12


def test_coherence_matrix_diagonal():
    assert np.allclose(
        qutrit.coherence_matrix(qutrit.make_qutrit(0, 1, 0)), np.diag([0, 1, 0])
    )
    assert np.allclose(
        qutrit.coherence_matrix(qutrit.make_qutrit(1, 0, 0)), np.diag([1, 0, 0])
    )
    q = random_qutrit()
    diag = np.diag(qutrit.coherence_matrix(q))
    assert np.allclose(diag, np.abs(q.amplitudes) ** 2)


def test_reduced_density_examples():
    assert np.allclose(
        qutrit.reduced_density(qutrit.make_qutrit(0, 1, 0)), np.eye(2) / 2
    )
    assert np.allclose(
        qutrit.reduced_density(qutrit.make_qutrit(1, 0, 0)), np.diag([1, 0])
    )
    assert np.allclose(
        qutrit.reduced_density(qutrit.make_qutrit(0.6, 0, 0.8)),
        np.diag([0.36, 0.64]),
    )


def test_reduced_density_matches_partial_trace():
    for _ in range(20):
        q = random_qutrit()
        rho = qutrit.density_matrix(q)
        oracle = tensor.partial_trace(rho, 2, which="second")
        assert np.max(np.abs(qutrit.reduced_density(q) - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# quantifiers

def test_quantify_maximally_entangled():
    rep = qutrit.quantify(qutrit.make_qutrit(0, 1, 0))
    assert abs(rep.schmidt_k - 2) <= 1e-12
    assert abs(rep.concurrence - 1) <= 1e-12
    assert abs(rep.entropy - 1) <= 1e-12


def test_quantify_product_state():
    rep = qutrit.quantify(qutrit.make_qutrit(1, 0, 0))
    assert abs(rep.schmidt_k - 1) <= 1e-12
    assert rep.concurrence <= 1e-12
    assert rep.entropy <= 1e-12


def test_quantify_frozen_point():
    rep = qutrit.quantify(qutrit.make_qutrit(0.6, 0, 0.8))
    assert abs(rep.concurrence - 0.96) <= 1e-12
    assert abs(rep.schmidt_k - 2 / (2 - 0.96**2)) <= 1e-12
    assert abs(rep.schmidt_k - 1.8545994065281899) <= 1e-12


def test_quantify_report_invariants():
    for _ in range(50):
        rep = qutrit.quantify(random_qutrit())
        assert abs(rep.lambda_plus + rep.lambda_minus - 1) <= 1e-12
        assert abs(rep.schmidt_k - 1 / (rep.lambda_plus**2 + rep.lambda_minus**2)) <= 1e-10
        assert 1 - 1e-12 <= rep.schmidt_k <= 2 + 1e-12
        assert -1e-12 <= rep.concurrence <= 1 + 1e-12


def test_lambda_closed_form_matches_eigensolver():
    for _ in range(50):
        q = random_qutrit()
        rep = qutrit.quantify(q)
        vals, _ = tensor.hermitian_eig(qutrit.reduced_density(q))
        assert abs(rep.lambda_plus - vals[0]) <= 1e-12
        assert abs(rep.lambda_minus - vals[1]) <= 1e-12


def test_lambda_closed_form_at_maximal_entanglement():
    # C = 1: (1 +- sqrt(1 - C^2))/2 would lose half the digits here
    states = [qutrit.make_qutrit(0, 1, 0)] + [
        qutrit.max_entangled_family(phi, phi1, phi3)
        for phi in np.linspace(0, math.pi, 7)
        for phi1 in (0.0, 0.7, 2.9)
        for phi3 in (0.0, -1.3)
    ]
    for q in states:
        rep = qutrit.quantify(q)
        vals, _ = tensor.hermitian_eig(qutrit.reduced_density(q))
        assert abs(rep.lambda_plus - vals[0]) <= 1e-12
        assert abs(rep.lambda_minus - vals[1]) <= 1e-12


def test_spin_flip_examples():
    assert abs(qutrit.spin_flip_concurrence(qutrit.make_qutrit(0, 1, 0)) - 1) <= 1e-12
    assert qutrit.spin_flip_concurrence(qutrit.make_qutrit(1, 0, 0)) <= 1e-12


def test_spin_flip_matches_algebraic_form():
    for _ in range(50):
        q = random_qutrit()
        c1, c2, c3 = q.amplitudes
        assert abs(
            qutrit.spin_flip_concurrence(q) - abs(2 * c1 * c3 - c2**2)
        ) <= 1e-12


def test_concurrence_depends_on_phase_combination_only():
    # C feels the phases only through phi1 + phi3 - 2 phi2
    q = random_qutrit()
    c1, c2, c3 = q.amplitudes
    for delta in (0.3, 1.2, -2.5):
        shifted = qutrit.make_qutrit(
            c1 * np.exp(1j * delta), c2, c3 * np.exp(-1j * delta)
        )
        assert abs(qutrit.concurrence(shifted) - qutrit.concurrence(q)) <= 1e-12


# ---------------------------------------------------------------------------
# Schmidt decomposition

def test_schmidt_maximally_entangled():
    dec = qutrit.schmidt_decompose(qutrit.make_qutrit(0, 1, 0))
    assert np.allclose(dec.lambdas, [0.5, 0.5])
    # degenerate subspace: compare projectors, not individual vectors
    proj = dec.modes_first @ dec.modes_first.conj().T
    assert np.max(np.abs(proj - np.eye(2))) <= 1e-10


def test_schmidt_factorable_state_single_term():
    q = qutrit.non_entangled_family(math.pi / 2, 0, 0)
    assert np.allclose(q.amplitudes, [0.5, 1 / SQRT2, 0.5])
    dec = qutrit.schmidt_decompose(q)
    assert dec.num_terms == 1
    mode = dec.modes_first[:, 0]
    target = np.array([1, 1]) / SQRT2
    overlap = abs(np.vdot(mode, target))
    assert abs(overlap - 1) <= 1e-9


def test_schmidt_single_mode_general_form():
    # C = 0 members factor into (cos(phi/2) e^{i phi1/2}, sin(phi/2) e^{i phi3/2})
    phi, phi1, phi3 = 1.1, 0.7, -0.4
    q = qutrit.non_entangled_family(phi, phi1, phi3)
    dec = qutrit.schmidt_decompose(q)
    assert dec.num_terms == 1
    target = np.array(
        [
            math.cos(phi / 2) * np.exp(1j * phi1 / 2),
            math.sin(phi / 2) * np.exp(1j * phi3 / 2),
        ]
    )
    assert abs(abs(np.vdot(dec.modes_first[:, 0], target)) - 1) <= 1e-9


def test_schmidt_reconstruction_random():
    for _ in range(20):
        q = random_qutrit()
        dec = qutrit.schmidt_decompose(q)
        err = np.max(np.abs(dec.reconstruct() - qutrit.wavefunction(q)))
        assert err <= 1e-9


# ---------------------------------------------------------------------------
# polarization

def test_polarization_examples():
    pol = qutrit.polarization(qutrit.make_qutrit(1, 0, 0))
    assert np.allclose(pol.xi, [0, 0, 1])
    assert abs(pol.degree_p - 1) <= 1e-12
    pol = qutrit.polarization(qutrit.make_qutrit(0, 1, 0))
    assert np.allclose(pol.xi, [0, 0, 0])
    assert pol.degree_p <= 1e-12


def test_polarization_components_are_never_negative_zero():
    for amps in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]):
        xi = qutrit.polarization(qutrit.make_qutrit(*amps)).xi
        assert all(math.copysign(1.0, x) == 1.0 for x in xi if x == 0.0)
    # nonzero components keep their bits
    q = qutrit.make_qutrit(0.3, 0.5j, -0.2)
    assert qutrit.polarization(q).xi == tuple(
        float(x) for x in qutrit._polarization_vector(q))


def test_polarization_anticorrelation():
    for _ in range(50):
        q = random_qutrit()
        pol = qutrit.polarization(q)
        c = qutrit.concurrence(q)
        assert abs(c**2 + pol.degree_p**2 - 1) <= 1e-12
        assert abs(pol.degree_p - np.linalg.norm(pol.xi)) <= 1e-12


def test_degree_p_is_the_p_behind_the_lambdas():
    # one P per qutrit: polarization's degree_p is the P of quantify's
    # lambda_+ = (1 + P)/2, bit for bit, and never exceeds 1; lambda_- is
    # the small Schmidt weight, (1 - P)/2 without its cancellation
    local = np.random.default_rng(5150)
    states = [qutrit.make_qutrit(*(local.normal(size=3) + 1j * local.normal(size=3)))
              for _ in range(2000)]
    states += [qutrit.non_entangled_family(phi, 0.3, -1.1)
               for phi in np.linspace(0, math.pi, 41)]
    for q in states:
        rep, pol = qutrit.quantify(q), qutrit.polarization(q)
        assert (1.0 + pol.degree_p) / 2.0 == rep.lambda_plus
        assert (rep.lambda_minus < tensor.SCHMIDT_WEIGHT_CUTOFF
                or qutrit.schmidt_decompose(q).lambdas[1] == rep.lambda_minus)
        assert pol.degree_p <= 1.0


# ---------------------------------------------------------------------------
# basis rotation

def test_rotate_basis_45_example():
    out = qutrit.rotate_basis(qutrit.make_qutrit(1, 0, 0), math.pi / 4)
    assert np.allclose(out.amplitudes, [0.5, -1 / SQRT2, 0.5])
    assert qutrit.concurrence(out) <= 1e-12


def test_rotate_basis_c_plus_invariant():
    q = qutrit.make_qutrit(1, 0, 1)
    for alpha in (0.2, 0.9, 2.1):
        b = qutrit.bell_coefficients(qutrit.rotate_basis(q, alpha))
        assert abs(b.c_plus - 1) <= 1e-12


def test_rotate_basis_inverts():
    q = random_qutrit()
    for alpha in (0.3, 1.0, -0.7):
        back = qutrit.rotate_basis(qutrit.rotate_basis(q, alpha), -alpha)
        assert np.max(np.abs(back.amplitudes - q.amplitudes)) <= 1e-12


def test_rotate_basis_preserves_concurrence():
    q = random_qutrit()
    c = qutrit.concurrence(q)
    for alpha in np.linspace(-math.pi, math.pi, 7):
        assert abs(qutrit.concurrence(qutrit.rotate_basis(q, alpha)) - c) <= 1e-12


# ---------------------------------------------------------------------------
# parametric families

def test_non_entangled_family():
    q = qutrit.non_entangled_family(0, 0, 0)
    assert np.allclose(q.amplitudes, [1, 0, 0])
    for _ in range(20):
        phi, phi1, phi3 = rng.uniform(-math.pi, math.pi, size=3)
        member = qutrit.non_entangled_family(phi, phi1, phi3)
        rep = qutrit.quantify(member)
        assert rep.concurrence <= 1e-12
        assert abs(rep.schmidt_k - 1) <= 1e-12


def test_non_entangled_family_factors():
    # the 4-vector is an exact product of one single-photon mode with itself
    phi, phi1, phi3 = 0.8, 0.5, -1.3
    member = qutrit.non_entangled_family(phi, phi1, phi3)
    mode = np.array(
        [
            math.cos(phi / 2) * np.exp(1j * phi1 / 2),
            math.sin(phi / 2) * np.exp(1j * phi3 / 2),
        ]
    )
    assert np.max(np.abs(qutrit.wavefunction(member) - tensor.kron(mode, mode))) <= 1e-12


def test_max_entangled_family():
    q = qutrit.max_entangled_family(math.pi / 2, 0, 0)
    assert np.allclose(q.amplitudes, [0, 1, 0])
    q = qutrit.max_entangled_family(0, 0.4, 1.1)
    assert np.allclose(
        q.amplitudes,
        [np.exp(0.4j) / SQRT2, 0, -np.exp(1.1j) / SQRT2],
    )
    for _ in range(20):
        phi, phi1, phi3 = rng.uniform(-math.pi, math.pi, size=3)
        rep = qutrit.quantify(qutrit.max_entangled_family(phi, phi1, phi3))
        assert abs(rep.concurrence - 1) <= 1e-12
        assert abs(rep.schmidt_k - 2) <= 1e-12


def test_real_coefficient_curve_points():
    # real qutrits with C_minus = 0 live on a one-parameter curve in C_plus
    for c_plus, k_want in ((0.0, 2.0), (1 / SQRT2, 1.0), (-1 / SQRT2, 1.0),
                           (1.0, 2.0), (-1.0, 2.0)):
        c2 = math.sqrt(max(0.0, 1 - c_plus**2))
        q = qutrit.from_bell(qutrit.BellCoefficients(c_plus, 0.0, c2))
        rep = qutrit.quantify(q)
        assert abs(rep.schmidt_k - k_want) <= 1e-12
        assert abs(rep.concurrence - abs(2 * c_plus**2 - 1)) <= 1e-12
