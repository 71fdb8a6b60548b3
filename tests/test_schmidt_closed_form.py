"""The closed-form Schmidt decompositions against the Takagi eigensolver.

`tensor.schmidt_from_symmetric(amplitude_matrix(s))`, an eigendecomposition
of the real embedding of the amplitude matrix, is the oracle.  The states are
the seeded sets of the bit pins and four edge families: qutrits near product
and near maximal entanglement, ququarts near P_h = 1 and near P_h = 0, each a
named state plus a random kick of size 10^U(-9, -3).
"""

import math

import numpy as np
import pytest

from biphoton import ququart, qutrit, tensor
from test_schmidt_pins import TYPES, states

KICKED = 500
_MODULE = {"qutrit": qutrit, "ququart": ququart}
# Schmidt terms of equal weight by construction share one group
_GROUPS = {"qutrit": ((0,), (1,)), "ququart": ((0, 1), (2, 3))}


def kicked(kind, centre, seed, n=KICKED, sizes=(-9, -3)):
    """n states, each centre(rng) plus a kick of size 10^U(*sizes)."""
    d = 3 if kind == "qutrit" else 4
    make = qutrit.make_qutrit if kind == "qutrit" else ququart.make_ququart
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        kick = rng.normal(size=d) + 1j * rng.normal(size=d)
        kick *= 10.0 ** rng.uniform(*sizes) / np.linalg.norm(kick)
        out.append(make(*(centre(rng) + kick).tolist()))
    return out


def _angles(rng):
    return rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)


def near_product_qutrit(rng):
    return qutrit.non_entangled_family(*_angles(rng)).amplitudes


def near_maximal_qutrit(rng):
    return qutrit.max_entangled_family(*_angles(rng)).amplitudes


def _unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def product_ququart(rng):
    # (C1, C2, C3, C4) = a x b on (Hh, Vh) x (Hl, Vl): D = 0, P_h = 1
    return np.kron(_unit(rng, 2), _unit(rng, 2))


def maximal_ququart(rng):
    # A = U/sqrt(2) for a unitary U: D = 1/4, P_h = 0
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q.reshape(4) / math.sqrt(2.0)


_EDGE = {
    ("qutrit", "near_product"): (near_product_qutrit, 31),
    ("qutrit", "near_maximal"): (near_maximal_qutrit, 32),
    ("ququart", "p_h_near_1"): (product_ququart, 41),
    ("ququart", "p_h_near_0"): (maximal_ququart, 42),
}

CASES = ([(kind, typ) for kind in ("qutrit", "ququart") for typ in TYPES + ("families",)]
         + sorted(_EDGE))


def case_states(kind, typ):
    if (kind, typ) in _EDGE:
        centre, seed = _EDGE[kind, typ]
        return kicked(kind, centre, seed)
    return states(kind, typ)


def projectors(modes, group):
    m = modes[:, list(group)]
    return m @ m.conj().T


def deviations(kind, s):
    """Worst deviations of one state's closed form from the oracle."""
    module = _MODULE[kind]
    dec = module.schmidt_decompose(s)
    m = module.amplitude_matrix(s)
    ref = tensor.schmidt_from_symmetric(m)
    lam, modes = dec.lambdas, dec.modes_first
    assert dec.num_terms == ref.num_terms
    assert np.all(np.diff(lam) <= 0.0)
    assert np.array_equal(dec.modes_second, modes)
    out = {
        "weights": np.max(np.abs(lam - ref.lambdas)),
        "orthonormal": np.max(np.abs(modes.conj().T @ modes - np.eye(lam.size))),
        "rebuild": 0.0,
        "projector": 0.0,
    }
    if lam.size == m.shape[0]:
        out["rebuild"] = np.max(np.abs((modes * np.sqrt(lam)) @ modes.T - m))
    # the oracle's modes are eigenvectors of a real embedding whose spectrum
    # holds +-sqrt(lambda), so a group's gap counts its distance to zero too;
    # a dropped group sits at zero
    kept = [g for g in _GROUPS[kind] if g[-1] < lam.size]
    level = [0.0] + [lam[g[0]] for g in kept]
    for i, g in enumerate(kept, 1):
        gap = min(abs(level[i] - level[j]) for j in range(len(level)) if j != i)
        if gap > 1e-3:
            diff = projectors(modes, g) - projectors(ref.modes_first, g)
            out["projector"] = max(out["projector"], np.max(np.abs(diff)))
    return out, dec


@pytest.mark.parametrize("kind, typ", CASES)
def test_closed_form_matches_takagi(kind, typ):
    worst = {"weights": 0.0, "orthonormal": 0.0, "rebuild": 0.0, "projector": 0.0}
    for s in case_states(kind, typ):
        dev, _ = deviations(kind, s)
        worst = {k: max(v, dev[k]) for k, v in worst.items()}
    assert worst["weights"] <= 1e-14, worst
    assert worst["orthonormal"] <= 1e-14, worst
    assert worst["rebuild"] <= 1e-14, worst
    assert worst["projector"] <= 1e-12, worst


@pytest.mark.parametrize("kind, typ", CASES)
def test_leading_weight_is_quantify_lambda(kind, typ):
    module = _MODULE[kind]
    for s in case_states(kind, typ):
        rep = module.quantify(s)
        top = rep.lambda_plus if kind == "qutrit" else rep.lambdas[0]
        assert module.schmidt_decompose(s).lambdas[0] == top


@pytest.mark.parametrize("kind, typ", CASES)
def test_small_weight_is_quantify_lambda(kind, typ):
    # one report, one value: quantify's small reduced eigenvalue is the
    # small Schmidt weight bit for bit wherever that weight is kept
    module = _MODULE[kind]
    for s in case_states(kind, typ):
        rep, lam = module.quantify(s), module.schmidt_decompose(s).lambdas
        if kind == "qutrit":
            small = [rep.lambda_minus]
        else:
            small = list(rep.lambdas[2:])
        if small[0] >= tensor.SCHMIDT_WEIGHT_CUTOFF:
            assert small == [lam[-1]] * len(small)


def test_weights_descend_at_maximal_entanglement():
    # rounding puts D/(1 + P_h) above (1 + P_h)/4 for some maximal ququarts
    # and 2 |det M|^2/(1 + P) above (1 + P)/2 for some maximal qutrits
    rng = np.random.default_rng(43)
    for _ in range(200):
        s = ququart.make_ququart(*maximal_ququart(rng).tolist())
        assert np.all(np.diff(ququart.schmidt_decompose(s).lambdas) <= 0.0)
        q = qutrit.make_qutrit(*near_maximal_qutrit(rng).tolist())
        assert np.all(np.diff(qutrit.schmidt_decompose(q).lambdas) <= 0.0)


@pytest.mark.parametrize("kind, amplitudes, terms", [
    ("qutrit", (0, 1, 0), 2),
    ("qutrit", (1, 0, 1e-7), 1),
    ("ququart", (1, 0, 0, 1), 4),
    ("ququart", (1, 1, 1, -1), 4),
    ("ququart", (1, 0, 0, 1e-7), 2),
])
def test_degenerate_and_cutoff_states(kind, amplitudes, terms):
    make = qutrit.make_qutrit if kind == "qutrit" else ququart.make_ququart
    s = make(*amplitudes)
    dev, dec = deviations(kind, s)
    assert dec.num_terms == terms
    assert tensor.equal_up_to_global_phase(
        dec.reconstruct(), _MODULE[kind].wavefunction(s), 1e-14)
    assert max(dev.values()) <= 1e-14, dev
