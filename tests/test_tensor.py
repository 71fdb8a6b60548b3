"""Tests for the dense linear-algebra core: Kronecker products, partial
traces, Hermitian eigendecomposition, Takagi factorization and entropy."""

import math

import numpy as np
import pytest

from biphoton import tensor


rng = np.random.default_rng(20240817)


def random_state(dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# kron

def test_kron_basis_columns():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert np.allclose(tensor.kron(e0, e1), [0, 1, 0, 0])
    assert np.allclose(tensor.kron(e0, e0), [1, 0, 0, 0])


def test_kron_identity():
    eye2 = np.eye(2)
    assert np.allclose(tensor.kron(eye2, eye2), np.eye(4))


def test_kron_first_operand_is_outer_index():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 5.0])
    out = tensor.kron(a, b)
    assert np.allclose(out, [3, 5, 6, 10])


def test_kron_rejects_empty():
    with pytest.raises(ValueError):
        tensor.kron(np.array([]), np.array([1.0]))


# ---------------------------------------------------------------------------
# partial trace

def test_partial_trace_bell_state():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(phi_plus, phi_plus.conj())
    for which in ("first", "second"):
        red = tensor.partial_trace(rho, 2, which=which)
        assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_product_state():
    psi = np.array([1.0, 0, 0, 0])
    red = tensor.partial_trace(np.outer(psi, psi.conj()), 2)
    assert np.allclose(red, np.diag([1.0, 0.0]))


def test_partial_trace_symmetric_vector_both_sides_equal():
    # swap-symmetric two-photon vector: tracing either photon gives the
    # same reduced matrix
    for _ in range(20):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(np.array([c[0], c[1], c[1], c[2]]))
        psi = np.array([c[0], c[1], c[1], c[2]])
        rho = np.outer(psi, psi.conj())
        r1 = tensor.partial_trace(rho, 2, which="first")
        r2 = tensor.partial_trace(rho, 2, which="second")
        assert np.max(np.abs(r1 - r2)) <= 1e-12
        assert abs(np.trace(r2) - 1) <= 1e-12
        assert np.linalg.eigvalsh(r2).min() >= -1e-12


def test_partial_trace_bad_dimension():
    with pytest.raises(tensor.BadDimension):
        tensor.partial_trace(np.eye(6) / 6, 2)
    with pytest.raises(tensor.BadDimension):
        tensor.partial_trace(np.eye(4) / 4, 3)


def test_partial_trace_16_dim():
    psi = random_state(16)
    red = tensor.partial_trace(np.outer(psi, psi.conj()), 4)
    assert red.shape == (4, 4)
    assert abs(np.trace(red) - 1) <= 1e-12


# ---------------------------------------------------------------------------
# hermitian_eig

def test_hermitian_eig_half_identity():
    vals, vecs = tensor.hermitian_eig(np.eye(2) / 2)
    assert np.allclose(vals, [0.5, 0.5])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(2))


def test_hermitian_eig_descending_and_reconstruction():
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (a + a.conj().T) / 2
        vals, vecs = tensor.hermitian_eig(m)
        assert np.all(np.diff(vals) <= 1e-12)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(recon - m)) <= 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(tensor.NotHermitian):
        tensor.hermitian_eig(m)


def test_hermitian_eig_rejects_non_square():
    for m in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(tensor.BadDimension):
            tensor.hermitian_eig(m)


def test_hermitian_eig_tolerance_scales_with_the_largest_entry():
    # asymmetry up to HERMITIAN_TOL * max(1, max |m_ij|) passes
    for scale in (1e-3, 1.0, 1e6):
        m = np.diag([scale, scale / 2]).astype(complex)
        tol = tensor.HERMITIAN_TOL * max(1.0, scale)
        m[0, 1] = 0.9 * tol
        tensor.hermitian_eig(m)
        m[0, 1] = 1.1 * tol
        with pytest.raises(tensor.NotHermitian):
            tensor.hermitian_eig(m)


def test_hermitian_eig_values_descend():
    vals, vecs = tensor.hermitian_eig(np.diag([0.1, 0.7, 0.2, 0.7]))
    assert vals.tolist() == [0.7, 0.7, 0.2, 0.1]
    assert np.array_equal(np.abs(vecs[:, 2]), [0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(np.abs(vecs[:, 3]), [1.0, 0.0, 0.0, 0.0])
    local = np.random.default_rng(4)
    for _ in range(20):
        a = local.normal(size=(4, 4)) + 1j * local.normal(size=(4, 4))
        vals, _ = tensor.hermitian_eig(a + a.conj().T)
        assert np.all(vals[:-1] >= vals[1:])


# ---------------------------------------------------------------------------
# purity and Schmidt number

def test_purity_pure_and_mixed():
    psi = random_state(2)
    assert abs(tensor.purity(np.outer(psi, psi.conj())) - 1) <= 1e-12
    assert abs(tensor.purity(np.eye(4) / 4) - 0.25) <= 1e-12


def test_schmidt_number_bell_state():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(tensor.schmidt_number(phi_plus, 2) - 2) <= 1e-12


def test_schmidt_number_product_state():
    psi = tensor.kron(random_state(2), random_state(2))
    assert abs(tensor.schmidt_number(psi, 2) - 1) <= 1e-12


# ---------------------------------------------------------------------------
# entropy

def test_vn_entropy_values():
    assert tensor.vn_entropy(np.array([1.0, 0.0])) == 0.0
    assert abs(tensor.vn_entropy(np.array([0.5, 0.5])) - 1) <= 1e-12
    assert abs(tensor.vn_entropy(np.full(4, 0.25)) - 2) <= 1e-12


def test_vn_entropy_of_pure_state_is_positive_zero():
    for lam in ([1.0, 0.0], [1.0], [0.0, 1.0, 0.0, 0.0]):
        assert math.copysign(1.0, tensor.vn_entropy(np.array(lam))) == 1.0
    # nonzero entropies keep their bits
    lam = np.array([0.3, 0.7])
    assert tensor.vn_entropy(lam) == float(-(lam * np.log2(lam)).sum())


def test_vn_entropy_clips_float_noise():
    # tiny negatives from eigensolvers are tolerated, real ones are not
    assert tensor.vn_entropy(np.array([1.0, -1e-15])) == 0.0
    with pytest.raises(tensor.ConsistencyError):
        tensor.vn_entropy(np.array([1.1, -0.1]))


def test_vn_entropy_positivity_threshold():
    assert tensor.vn_entropy([1.0, -1e-12]) == 0.0
    with pytest.raises(tensor.ConsistencyError, match="-1.000e-12"):
        tensor.vn_entropy([1.0, math.nextafter(-1e-12, -1.0)])
    with pytest.raises(tensor.ConsistencyError, match="-1.000e-06"):
        tensor.vn_entropy([1.0, -1e-6], clip=1e-7)
    with pytest.raises(tensor.ConsistencyError):
        tensor.vn_entropy([-math.inf, 1.0])


def test_vn_entropy_clips_at_one():
    assert tensor.vn_entropy([2.0, 0.5]) == 0.5
    assert tensor.vn_entropy([math.inf]) == 0.0
    assert math.copysign(1.0, tensor.vn_entropy([1.5])) == 1.0


def test_vn_entropy_of_nothing_is_positive_zero():
    for lam in ([], np.array([]), [0.0, -0.0]):
        out = tensor.vn_entropy(lam)
        assert out == 0.0 and math.copysign(1.0, out) == 1.0


def test_vn_entropy_nan_entries():
    # a NaN entry adds nothing, and a NaN anywhere disables the positivity
    # check in either order (numpy's min is NaN when any entry is)
    nan = math.nan
    assert tensor.vn_entropy([nan]) == 0.0
    assert tensor.vn_entropy([0.5, nan, 0.5]) == 1.0
    assert tensor.vn_entropy(np.array([0.5, 0.5, nan])) == 1.0
    assert tensor.vn_entropy([nan, -0.5]) == 0.0
    assert tensor.vn_entropy([-0.5, nan]) == 0.0


def test_vn_entropy_matches_the_array_formula_bit_for_bit():
    # the numpy formula sums its few terms in order, as the loop does
    local = np.random.default_rng(7)
    for size in (1, 2, 3, 4, 7):
        for _ in range(200):
            lam = local.dirichlet(np.ones(size))
            lam[local.random(size) < 0.2] = 0.0
            nz = lam[lam > 0.0]
            assert tensor.vn_entropy(lam) == float(-(nz * np.log2(nz)).sum()) + 0.0


# ---------------------------------------------------------------------------
# Takagi / symmetric Schmidt decomposition

def test_takagi_reconstructs_symmetric_matrix():
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = (a + a.T) / 2
        svals, modes = tensor.takagi(m)
        recon = (modes * svals) @ modes.T
        assert np.max(np.abs(recon - m)) <= 1e-10
        assert np.all(svals >= 0)
        assert np.all(np.diff(svals) <= 1e-12)
        assert np.max(np.abs(modes.conj().T @ modes - np.eye(2))) <= 1e-10


def test_takagi_rejects_non_square_and_non_symmetric():
    for m in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(tensor.BadDimension):
            tensor.takagi(m)
    m = np.array([[1.0, 0.5j], [0.5j, 0.0]])
    tensor.takagi(m)
    m[0, 1] += 1.1 * tensor.HERMITIAN_TOL
    with pytest.raises(ValueError, match="not complex symmetric"):
        tensor.takagi(m)
    # symmetric, not Hermitian: the transpose counts, not the adjoint
    m = np.array([[0.0, 1j], [1j, 0.0]])
    assert np.allclose(tensor.takagi(m)[0], [1.0, 1.0])


def test_schmidt_from_symmetric_drops_null_terms():
    # rank-1 symmetric matrix: a single Schmidt term survives
    u = random_state(2)
    m = np.outer(u, u)
    dec = tensor.schmidt_from_symmetric(m)
    assert dec.num_terms == 1
    assert abs(dec.lambdas[0] - 1) <= 1e-12


def test_schmidt_reconstruct_matches_input():
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (a + a.T) / 2
        m /= np.linalg.norm(m)
        dec = tensor.schmidt_from_symmetric(m)
        assert np.max(np.abs(dec.reconstruct().reshape(4, 4) - m)) <= 1e-9
        assert abs(sum(dec.lambdas) - 1) <= 1e-9


# ---------------------------------------------------------------------------
# phase-insensitive comparison

def test_equal_up_to_global_phase():
    psi = random_state(4)
    assert tensor.equal_up_to_global_phase(psi, psi * np.exp(0.7j))
    assert not tensor.equal_up_to_global_phase(psi, random_state(4))
