"""Tests for the simulated beam-splitter coincidence experiment: expected
and sampled records in both bases, conditional and single-particle
probabilities, record serialization."""

import dataclasses
import math

import numpy as np
import pytest

from biphoton import measurement, ququart, qutrit, tensor


rng = np.random.default_rng(20240820)


def random_qutrit():
    return qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    with pytest.raises(ValueError):
        measurement.ExperimentConfig(total_pairs=0)
    with pytest.raises(ValueError):
        measurement.ExperimentConfig(total_pairs=10, detector_efficiency=0.0)
    with pytest.raises(ValueError):
        measurement.ExperimentConfig(total_pairs=10, detector_efficiency=1.5)
    with pytest.raises(ValueError):
        measurement.ExperimentConfig(total_pairs=10, basis="diagonal")
    with pytest.raises(ValueError):
        measurement.ExperimentConfig(total_pairs=10, noise="gaussian")


# ---------------------------------------------------------------------------
# beam splitter composite state

def test_beam_splitter_preserves_schmidt_number():
    for q, k_want in ((qutrit.make_qutrit(0, 1, 0), 2.0),
                      (qutrit.make_qutrit(1, 0, 0), 1.0)):
        psi = measurement.beam_splitter_wavefunction(q)
        assert abs(np.linalg.norm(psi) - 1) <= 1e-12
        assert abs(tensor.schmidt_number(psi, 4) - k_want) <= 1e-10
    q = random_qutrit()
    psi = measurement.beam_splitter_wavefunction(q)
    assert abs(
        tensor.schmidt_number(psi, 4) - qutrit.quantify(q).schmidt_k
    ) <= 1e-10


# ---------------------------------------------------------------------------
# ideal qutrit records

def test_expected_counts_pure_hh():
    cfg = measurement.ExperimentConfig(total_pairs=1000)
    rec = measurement.expected_coincidences(qutrit.make_qutrit(1, 0, 0), cfg)
    assert rec.counts["H|H"] == pytest.approx(500.0)
    assert rec.counts["H|V"] == 0
    assert rec.counts["V|H"] == 0
    assert rec.counts["V|V"] == 0
    assert rec.conditional_probabilities()["H|H"] == pytest.approx(1.0)


def test_expected_conditionals_hv_state():
    cfg = measurement.ExperimentConfig(total_pairs=10**6)
    rec = measurement.expected_coincidences(qutrit.make_qutrit(0, 1, 0), cfg)
    w = rec.conditional_probabilities()
    assert w["H|V"] == pytest.approx(0.5)
    assert w["V|H"] == pytest.approx(0.5)
    assert w["H|H"] == 0
    assert w["V|V"] == 0


def test_expected_counts_follow_amplitudes():
    q = random_qutrit()
    c1, c2, c3 = np.abs(q.amplitudes) ** 2
    cfg = measurement.ExperimentConfig(total_pairs=10**6, detector_efficiency=0.4)
    rec = measurement.expected_coincidences(q, cfg)
    eta, n = 0.4, 10**6
    assert rec.counts["H|H"] == pytest.approx(eta / 2 * n * c1)
    assert rec.counts["V|V"] == pytest.approx(eta / 2 * n * c3)
    assert rec.counts["H|V"] == pytest.approx(eta / 4 * n * c2)
    assert rec.counts["V|H"] == pytest.approx(eta / 4 * n * c2)


def test_conditionals_sum_to_one_and_eta_invariant():
    q = random_qutrit()
    w_ref = None
    for eta in (1.0, 0.37, 0.05):
        cfg = measurement.ExperimentConfig(total_pairs=10**6, detector_efficiency=eta)
        w = measurement.expected_coincidences(q, cfg).conditional_probabilities()
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
        if w_ref is None:
            w_ref = w
        else:
            for key in w:
                assert w[key] == pytest.approx(w_ref[key], abs=1e-12)


def test_single_particle_probabilities():
    q = random_qutrit()
    c1, c2, _ = np.abs(q.amplitudes) ** 2
    cfg = measurement.ExperimentConfig(total_pairs=10**6)
    singles = measurement.expected_coincidences(q, cfg).single_particle()
    assert singles["H"] == pytest.approx(c1 + c2 / 2, abs=1e-12)
    assert singles["H"] + singles["V"] == pytest.approx(1.0, abs=1e-12)


def test_rotated_basis_uses_rotated_amplitudes():
    q = random_qutrit()
    rotated = qutrit.rotate_basis(q, math.pi / 4)
    cfg = measurement.ExperimentConfig(total_pairs=10**6, basis="rotated45")
    w = measurement.expected_coincidences(q, cfg).conditional_probabilities()
    c1, c2, c3 = np.abs(rotated.amplitudes) ** 2
    assert w["H|H"] == pytest.approx(c1, abs=1e-12)
    assert w["H|V"] == pytest.approx(c2 / 2, abs=1e-12)
    assert w["V|V"] == pytest.approx(c3, abs=1e-12)


# ---------------------------------------------------------------------------
# sampled qutrit records

@pytest.mark.parametrize("state", [qutrit.make_qutrit(1, 0, 0), ququart.make_ququart(1, 0, 0, 0)],
                         ids=["qutrit", "ququart"])
def test_sampling_requires_sampled_mode(state):
    cfg = measurement.ExperimentConfig(total_pairs=100)
    with pytest.raises(ValueError):
        measurement.sample_coincidences(state, cfg)


def test_sampling_requires_non_negative_seed():
    with pytest.raises(ValueError):
        measurement.ExperimentConfig(total_pairs=100, noise="sampled", seed=-1)
    # an ideal record draws nothing, so its seed is not checked
    measurement.ExperimentConfig(total_pairs=100, seed=-1)


def test_sampling_deterministic_per_seed():
    q = random_qutrit()
    cfg = measurement.ExperimentConfig(total_pairs=10**5, noise="sampled", seed=42)
    a = measurement.sample_coincidences(q, cfg)
    b = measurement.sample_coincidences(q, cfg)
    assert a.counts == b.counts
    cfg2 = measurement.ExperimentConfig(total_pairs=10**5, noise="sampled", seed=43)
    c = measurement.sample_coincidences(q, cfg2)
    assert a.counts != c.counts


def test_sampling_degenerate_state():
    cfg = measurement.ExperimentConfig(total_pairs=10**4, noise="sampled", seed=7)
    rec = measurement.sample_coincidences(qutrit.make_qutrit(1, 0, 0), cfg)
    assert rec.counts["H|V"] == 0
    assert rec.counts["V|H"] == 0
    assert rec.counts["V|V"] == 0
    assert rec.counts["H|H"] > 0
    assert all(isinstance(v, int) for v in rec.counts.values())


def test_sampling_converges_to_ideal():
    q = random_qutrit()
    n = 10**6
    cfg = measurement.ExperimentConfig(total_pairs=n, noise="sampled", seed=3)
    rec = measurement.sample_coincidences(q, cfg)
    ideal = measurement.expected_coincidences(
        q, measurement.ExperimentConfig(total_pairs=n)
    ).conditional_probabilities()
    total = rec.total_coincidences()
    for key, w in rec.conditional_probabilities().items():
        sigma = math.sqrt(max(ideal[key] * (1 - ideal[key]), 1e-12) / total)
        assert abs(w - ideal[key]) <= 5 * sigma + 1e-9


# ---------------------------------------------------------------------------
# ququart records

def test_ququart_expected_basis_states():
    cfg = measurement.ExperimentConfig(total_pairs=10**6)
    rec = measurement.expected_coincidences(ququart.make_ququart(1, 0, 0, 0), cfg)
    w = rec.conditional_probabilities()
    assert w["Hh|Hl"] == pytest.approx(0.5)
    assert w["Hl|Hh"] == pytest.approx(0.5)
    assert sum(w.values()) == pytest.approx(1.0)
    rec = measurement.expected_coincidences(ququart.make_ququart(0, 0, 0, 1), cfg)
    w = rec.conditional_probabilities()
    assert w["Vh|Vl"] == pytest.approx(0.5)
    assert w["Vl|Vh"] == pytest.approx(0.5)


def test_ququart_expected_uniform_state():
    cfg = measurement.ExperimentConfig(total_pairs=10**6)
    rec = measurement.expected_coincidences(
        ququart.make_ququart(1, 1, 1, 1), cfg
    )
    w = rec.conditional_probabilities()
    assert len(w) == 8
    for value in w.values():
        assert value == pytest.approx(1 / 8)


def test_ququart_counts_at_quarter_eta():
    s = ququart.make_ququart(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    cfg = measurement.ExperimentConfig(total_pairs=10**6, detector_efficiency=0.8)
    rec = measurement.expected_coincidences(s, cfg)
    mags = np.abs(s.amplitudes) ** 2
    assert rec.counts["Hh|Hl"] == pytest.approx(0.8 / 4 * 10**6 * mags[0])
    assert rec.counts["Hh|Vl"] == pytest.approx(0.8 / 4 * 10**6 * mags[1])
    assert rec.counts["Hl|Vh"] == pytest.approx(0.8 / 4 * 10**6 * mags[2])
    assert rec.counts["Vh|Vl"] == pytest.approx(0.8 / 4 * 10**6 * mags[3])


def test_ququart_names_alias_the_kind_generic_builders():
    assert measurement.expected_coincidences_ququart is measurement.expected_coincidences
    assert measurement.sample_coincidences_ququart is measurement.sample_coincidences


def test_ququart_sampling_deterministic():
    s = ququart.make_ququart(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    cfg = measurement.ExperimentConfig(total_pairs=10**5, noise="sampled", seed=11)
    a = measurement.sample_coincidences(s, cfg)
    b = measurement.sample_coincidences(s, cfg)
    assert a.counts == b.counts


# ---------------------------------------------------------------------------
# serialization

def test_record_round_trip():
    q = random_qutrit()
    cfg = measurement.ExperimentConfig(total_pairs=10**5, noise="sampled", seed=9)
    rec = measurement.sample_coincidences(q, cfg)
    doc = rec.to_dict()
    assert doc["schema"] == "coincidence/1"
    assert doc["seed"] == 9
    back = measurement.CoincidenceRecord.from_dict(doc)
    assert back.counts == rec.counts
    assert back.basis == rec.basis
    assert back.kind == "qutrit"


def test_ideal_record_has_no_seed():
    cfg = measurement.ExperimentConfig(total_pairs=1000)
    rec = measurement.expected_coincidences(random_qutrit(), cfg)
    assert "seed" not in rec.to_dict()


def test_conditionals_of_an_empty_record_raise():
    cfg = measurement.ExperimentConfig(total_pairs=1000)
    rec = measurement.expected_coincidences(random_qutrit(), cfg)
    empty = dataclasses.replace(rec, counts=dict.fromkeys(rec.counts, 0.0))
    with pytest.raises(ValueError, match="no coincidences"):
        empty.conditional_probabilities()


def test_record_kind_detection():
    cfg = measurement.ExperimentConfig(total_pairs=1000)
    s = ququart.make_ququart(1, 1, 0, 0)
    rec = measurement.expected_coincidences(s, cfg)
    assert rec.kind == "ququart"
    # a misspelt setting leaves the kind to the settings the record shares
    q = measurement.expected_coincidences(random_qutrit(), cfg)
    counts = dict(q.counts)
    counts["VV|V"] = counts.pop("V|V")
    assert dataclasses.replace(q, counts=counts).kind == "qutrit"
    counts = dict(rec.counts)
    counts["Hhh|Hl"] = counts.pop("Hh|Hl")
    assert dataclasses.replace(rec, counts=counts).kind == "ququart"


def test_from_dict_rejects_bad_schema():
    doc = {"schema": "nope/9", "basis": "natural", "mode": "ideal",
           "eta": 1.0, "total_pairs": 10, "counts": {"H|H": 1}}
    with pytest.raises(ValueError):
        measurement.CoincidenceRecord.from_dict(doc)


def test_from_dict_requires_fields():
    with pytest.raises(ValueError):
        measurement.CoincidenceRecord.from_dict({"schema": "coincidence/1"})
