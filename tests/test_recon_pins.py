"""Pinned reconstruction outcomes for seeded states on every solver branch.

Each case runs on ideal records and on sampled records of 10^6 pairs.  A
qutrit outcome is pinned by the SHA-256 of its text: the recon/1 document
jsonio.dumps prints; for PhaseUnobservable its message, then the document of
the partial result it carries; for Inconsistent its message and the repr of
its best residual.  Ququart outcomes are pinned in recon_pins_ququart.json:
the message and class of any exception, the gauge, the warnings, the best
residual of Inconsistent, and the solutions as a set up to global phase
within 1e-12, each with the rms of the public equations at its phases.
Their printed order and representative follow np.roots' root order, which
may differ between numpy versions, so neither is pinned.  The pins were
recorded by outcome() and ququart_outcome() below.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from biphoton import jsonio, measurement, ququart, qutrit, reconstruct

PAIRS = 10**6
MODES = ("ideal", "sampled")
_MAKE = {"qutrit": qutrit.make_qutrit, "ququart": ququart.make_ququart}
_SOLVE = {"qutrit": reconstruct.qutrit_phases, "ququart": reconstruct.ququart_phases}


def haar(seed, dim, zeros=()):
    """Normalised complex Gaussian amplitudes, with the listed ones set to 0."""
    gen = np.random.default_rng(seed)
    c = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    c[list(zeros)] = 0.0
    return tuple(c / np.linalg.norm(c))


def real(seed, dim):
    """Real amplitudes drawn from the seed; the cases below use mixed signs."""
    c = np.random.default_rng(seed).normal(size=dim)
    return tuple(c / np.linalg.norm(c))


# (id, state of the natural record, state of the rotated record or None for
# the same state); the sampled records of case i draw seeds 2i + 1 and 2i + 2
QUTRIT_CASES = [
    ("generic-1", haar(1, 3), None),
    ("generic-2", haar(2, 3), None),
    ("generic-3", haar(3, 3), None),
    ("zero1-c1", haar(4, 3, (0,)), None),
    ("zero1-c3", haar(5, 3, (2,)), None),
    ("zero2-c3-only", haar(6, 3, (0, 1)), None),
    ("zero2-c1-only", haar(7, 3, (1, 2)), None),
    ("zero2-c2-only", haar(8, 3, (0, 2)), None),
    # C2 below threshold: exactly zero, and below the sampled threshold only
    ("c2-zero", haar(9, 3, (1,)), None),
    ("c2-small", (0.6, 0.001, 0.48 + 0.64j), None),
    ("real-1", real(13, 3), None),
    ("real-2", real(12, 3), None),
    ("mismatched", haar(105, 3), haar(1105, 3)),
]

QUQUART_CASES = [
    ("generic-1", haar(1, 4), None),
    ("generic-2", haar(2, 4), None),
    ("zero1-c2", haar(4, 4, (1,)), None),
    ("zero1-c4", haar(5, 4, (3,)), None),
    ("zero2-c1-c4", haar(6, 4, (0, 3)), None),
    ("zero2-c2-c3", haar(7, 4, (1, 2)), None),
    # below the sampled zero threshold only
    ("c4-small", (0.5, 0.3 + 0.4j, 0.1 - 0.5j, 0.001), None),
    ("real-1", real(10, 4), None),
    ("real-2", real(11, 4), None),
    ("mismatched", haar(104, 4), haar(1104, 4)),
]


def estimate(kind, index, amps, amps45, mode):
    recs = []
    for k, (basis, a) in enumerate((("natural", amps), ("rotated45", amps45 or amps))):
        cfg = measurement.ExperimentConfig(total_pairs=PAIRS, basis=basis, noise=mode,
                                           seed=2 * index + 1 + k)
        sim = (measurement.expected_coincidences if mode == "ideal"
               else measurement.sample_coincidences)
        recs.append(sim(_MAKE[kind](*a), cfg))
    return reconstruct.merge_estimates(*map(reconstruct.magnitudes_from_record, recs))


def solve(kind, est):
    """(message, result, best residual): the message and the partial result
    of PhaseUnobservable, or Inconsistent's message and best residual."""
    try:
        return "", _SOLVE[kind](est), None
    except reconstruct.PhaseUnobservable as err:
        return f"PhaseUnobservable: {err}", err.result, None
    except reconstruct.Inconsistent as err:
        return f"Inconsistent: {err}", None, err.best_residual


def outcome(index, amps, amps45, mode):
    message, res, best = solve("qutrit", estimate("qutrit", index, amps, amps45, mode))
    if res is None:
        return f"{message}\nbest_residual={best!r}"
    doc = jsonio.dumps(res.to_dict())
    return f"{message}\n{doc}" if message else doc


def ququart_outcome(index, amps, amps45, mode):
    est = estimate("ququart", index, amps, amps45, mode)
    message, res, best = solve("ququart", est)
    if res is None:
        return {"message": message, "best_residual": best}
    sols = [s.amplitudes for s in res.solutions()]
    return {"message": message, "gauge": res.gauge, "warnings": res.warnings,
            "residual": res.residual,
            "solutions": [[[z.real, z.imag] for z in a.tolist()] for a in sols],
            "rms": [float(reconstruct._rms(reconstruct.ququart_phase_equations(
                est.magnitudes, est.magnitudes45, list(np.angle(a))))) for a in sols]}


_QUTRIT_SHA256 = {
    "generic-1/ideal":
        "a845268668cd62ae857e20a1c3185f243d8814ff6032489faac35414e563989f",
    "generic-1/sampled":
        "8f54e7ac17495a48319451ad09db1e5674bca30d5c064f118aa553b534e1288c",
    "generic-2/ideal":
        "151b90113be1878c74e77ab40ce4dda7979a179d6924f39aac1b9fcf1d534559",
    "generic-2/sampled":
        "2a4827c848546984d78bc7cb38a3a78ea22aafa4b4aa2b66e791f2dc129331a6",
    "generic-3/ideal":
        "04c996c31ac50c640306d7e48c689c33c66ba0671e47a89c8d5d97d109cf7e27",
    "generic-3/sampled":
        "07a5068ee321be057bed2192e67c00dbe6b4944f448d47a218e085cea9ebf2ca",
    "zero1-c1/ideal":
        "e772d45692d9dea098f5a90e31ff88ed1b89d4c3284e327d32c551fe51aa696b",
    "zero1-c1/sampled":
        "f954c5d7cf89bb68a0f0163bfad13927334cfc177168f71d6f5fca8450736020",
    "zero1-c3/ideal":
        "7a92f2847017811ee8d90de30de4aae6b310f97448616c4cdd58bca1d8995702",
    "zero1-c3/sampled":
        "06b134c04eac74e074a148bbfbbcbbc7ade0eca9b3d8d10164042ef18e51c26b",
    "zero2-c3-only/ideal":
        "cc861e6c20eb334249412b5abae85bce90269263c1b5c0f1f95f9ef07f2a36e8",
    "zero2-c3-only/sampled":
        "c6b4bdae9fae56e4d2cf760e40d86f44d3d32820fd4dc9ff3e61bbb8ca5ee67e",
    "zero2-c1-only/ideal":
        "c510fcc21327bdb5753809a4765131f9c131d19f17d7f09bef96bcd29d109e32",
    "zero2-c1-only/sampled":
        "ed8d0bf5a1daf04c27a495f46f5a2dd7a6cc558e9975d8b86b83c0cb60fa1311",
    "zero2-c2-only/ideal":
        "8254d46539e95e6adb289018e1adec0adf898dded77de22d3c92ec9b52c5c13d",
    "zero2-c2-only/sampled":
        "28e35f72fedc437d60b584daf6d19450368537208ec6c52c8b64df99f3e2edcd",
    "c2-zero/ideal":
        "e58a4ee686702aac69e0f5472ad21cd5f6cadcfa3160b6232c0d8a8423b4f3b0",
    "c2-zero/sampled":
        "812cf9e3d06987973336d431d6b0420722e970a8a9bb3cb610df33e60c5d7ba9",
    "c2-small/ideal":
        "605aa34feb929a1f681bf039b6c28ec6a5374fb616696fe41684a61bdff99bb5",
    "c2-small/sampled":
        "35e17e69a4517aed89bf2494cb0bc054fd95036967638a7671f5e27d118b91f2",
    "real-1/ideal":
        "7f8124672bd6c9707c0c7bbf6d3e719ac0245b22143733431be59d6f15051cbf",
    "real-1/sampled":
        "d99479e53fec633c8e9a51f95acbe7694ff37ca93dcb14ee608f77b9b457656d",
    "real-2/ideal":
        "8d89b604cba73af76bf706e2c2a56c35f417d1cf71c2cbf5799a42a6840379ae",
    "real-2/sampled":
        "49c32485eb8c27a7c472cae1cfb0e298f0ea30171c7e4237486b31f1c53c8ee0",
    "mismatched/ideal":
        "47ed133532093da10c6da30e5b93a79f2ad787750d0fc7d326244c5069e925e1",
    "mismatched/sampled":
        "c31b041e4a687760fc11b18bf397b08152852408f1f8f2a01009314967ea41ea",
}

_QUQUART_PINS = Path(__file__).with_name("recon_pins_ququart.json")


def test_real_cases_have_mixed_signs():
    for name, amps, _ in QUTRIT_CASES + QUQUART_CASES:
        if name.startswith("real"):
            a = np.array(amps)
            assert (a > 0).any() and (a < 0).any()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index, case", list(enumerate(QUTRIT_CASES)),
                         ids=[c[0] for c in QUTRIT_CASES])
def test_qutrit_outcome_is_pinned(index, case, mode):
    name, amps, amps45 = case
    text = outcome(index, amps, amps45, mode)
    assert hashlib.sha256(text.encode()).hexdigest() == _QUTRIT_SHA256[f"{name}/{mode}"], text


def _aligned_distance(a, b):
    overlap = np.vdot(a, b)
    aligned = b * (abs(overlap) / overlap) if overlap else b
    return float(np.max(np.abs(aligned - a)))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index, case", list(enumerate(QUQUART_CASES)),
                         ids=[c[0] for c in QUQUART_CASES])
def test_ququart_outcome_is_pinned(index, case, mode):
    name, amps, amps45 = case
    want = json.loads(_QUQUART_PINS.read_text())[f"{name}/{mode}"]
    got = ququart_outcome(index, amps, amps45, mode)
    assert got["message"] == want["message"]
    if "solutions" not in want:
        assert "solutions" not in got
        assert abs(got["best_residual"] - want["best_residual"]) <= 1e-12
        return
    assert (got["gauge"], got["warnings"]) == (want["gauge"], want["warnings"])
    sols = [np.array([complex(*z) for z in s]) for s in got["solutions"]]
    pinned = [np.array([complex(*z) for z in s]) for s in want["solutions"]]
    assert len(sols) == len(pinned)
    for i, p in enumerate(pinned):
        matches = [j for j, s in enumerate(sols) if _aligned_distance(p, s) <= 1e-12]
        assert len(matches) == 1
        assert abs(got["rms"][matches[0]] - want["rms"][i]) <= 1e-12
    # the printed residual is that of the solution printed first
    first = next(i for i, p in enumerate(pinned) if _aligned_distance(p, sols[0]) <= 1e-12)
    assert abs(got["residual"] - want["rms"][first]) <= 1e-12
