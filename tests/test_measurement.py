"""Tests for the simulated beam-splitter coincidence experiment: expected
and sampled records in both bases, conditional and single-particle
probabilities, record serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import jsonio, measurement, ququart, qutrit, reconstruct, tensor


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


def reference_kind(rec):
    # CoincidenceRecord.kind as it was: the kind whose settings the record
    # shares most of, a qutrit when it shares none
    return max(("qutrit", "ququart"), key=lambda k: len(
        rec.counts.keys() & set(measurement.KINDS[k].settings)))


def test_record_kind_detection():
    cfg = measurement.ExperimentConfig(total_pairs=1000)
    s = ququart.make_ququart(1, 1, 0, 0)
    rec = measurement.expected_coincidences(s, cfg)
    q = measurement.expected_coincidences(random_qutrit(), cfg)
    # exactly one kind's settings, in any order
    assert rec.kind == "ququart"
    assert q.kind == "qutrit"
    assert dataclasses.replace(rec, counts=dict(reversed(rec.counts.items()))).kind == "ququart"
    cases = [rec, q]
    # a misspelt setting leaves the kind to the settings the record shares
    counts = dict(q.counts)
    counts["VV|V"] = counts.pop("V|V")
    cases.append(dataclasses.replace(q, counts=counts))
    assert cases[-1].kind == "qutrit"
    counts = dict(rec.counts)
    counts["Hhh|Hl"] = counts.pop("Hh|Hl")
    cases.append(dataclasses.replace(rec, counts=counts))
    assert cases[-1].kind == "ququart"
    # empty counts, and a qutrit setting missing, share no or fewer settings
    cases.append(dataclasses.replace(q, counts={}))
    assert cases[-1].kind == "qutrit"
    cases.append(dataclasses.replace(q, counts={"H|H": 1.0}))
    assert cases[-1].kind == "qutrit"
    # both kinds' settings: the ququart's eight outnumber the qutrit's four
    both = dataclasses.replace(q, counts={**q.counts, **rec.counts})
    cases.append(both)
    assert both.kind == "ququart"
    cases.append(dataclasses.replace(q, counts={**q.counts, "Hh|Hl": 1.0}))
    assert cases[-1].kind == "qutrit"
    # as many settings as a qutrit has, all of them a ququart's
    cases.append(dataclasses.replace(q, counts=dict.fromkeys(measurement.QUQUART_SETTINGS[:4], 1.0)))
    assert cases[-1].kind == "ququart"
    for case in cases:
        assert case.kind == reference_kind(case)


def test_from_dict_rejects_bad_schema():
    doc = {"schema": "nope/9", "basis": "natural", "mode": "ideal",
           "eta": 1.0, "total_pairs": 10, "counts": {"H|H": 1}}
    with pytest.raises(ValueError):
        measurement.CoincidenceRecord.from_dict(doc)


def test_from_dict_requires_fields():
    with pytest.raises(ValueError):
        measurement.CoincidenceRecord.from_dict({"schema": "coincidence/1"})


# ---------------------------------------------------------------------------
# configurations a record can carry

@pytest.mark.parametrize("field, value, message", [
    ("total_pairs", 2.5, "total_pairs must be an integer, got 2.5"),
    ("total_pairs", 1000.0, "total_pairs must be an integer, got 1000.0"),
    ("total_pairs", True, "total_pairs must be an integer, got True"),
    ("total_pairs", "10", "total_pairs must be an integer, got '10'"),
    ("detector_efficiency", True, "detector_efficiency must be a real number, got True"),
    ("detector_efficiency", "0.5", "detector_efficiency must be a real number, got '0.5'"),
    ("detector_efficiency", 0.5j, "detector_efficiency must be a real number, got 0.5j"),
    ("seed", 2.7, "seed must be an integer, got 2.7"),
    ("seed", False, "seed must be an integer, got False"),
    ("seed", None, "seed must be an integer, got None"),
])
def test_config_refuses_what_a_record_cannot_carry(field, value, message):
    fields = {"total_pairs": 1000, "noise": "sampled", field: value}
    with pytest.raises(ValueError) as e:
        measurement.ExperimentConfig(**fields)
    assert str(e.value) == message


def test_float32_efficiency_gives_float64_counts_that_read_back():
    q = qutrit.make_qutrit(0.6, 0.3j, -0.2)
    eta = np.float32(0.3)
    cfg = measurement.ExperimentConfig(total_pairs=10**12, detector_efficiency=eta)
    assert type(cfg.detector_efficiency) is float and cfg.detector_efficiency == eta
    rec = measurement.expected_coincidences(q, cfg)
    assert all(type(v) is float for v in rec.counts.values())
    # float32 arithmetic would put H|H at 110204088403.59
    assert rec.counts["H|H"] == pytest.approx(110204086011.77, abs=0.01)
    back = measurement.CoincidenceRecord.from_dict(json.loads(jsonio.dumps(rec.to_dict())))
    again = measurement.expected_coincidences(q, measurement.ExperimentConfig(
        total_pairs=back.total_pairs, detector_efficiency=back.eta))
    assert back.counts == again.counts == rec.counts


integers = st.one_of(st.integers(-5, 2**63 + 5), st.booleans(), st.floats(-5, 1e6),
                     st.integers(0, 2**31).map(np.int64), st.integers(0, 2**31).map(np.uint32),
                     st.sampled_from([None, "7", 7j]))
reals = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(0.0, 1.0),
                  st.integers(-1, 2), st.booleans(), st.floats(0.0, 1.0).map(np.float64),
                  st.floats(0.0, 1.0, width=32).map(np.float32), st.integers(0, 2).map(np.int8),
                  st.sampled_from([None, "0.5", 0.5j]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integers, reals, integers, st.sampled_from(measurement.BASES),
       st.sampled_from(measurement.NOISE_MODES), st.booleans())
def test_every_accepted_config_gives_a_record_that_reads_back(pairs, eta, seed, basis, noise,
                                                              is_qutrit):
    try:
        cfg = measurement.ExperimentConfig(total_pairs=pairs, detector_efficiency=eta,
                                           basis=basis, noise=noise, seed=seed)
    except ValueError:
        return
    state = qutrit.make_qutrit(0.6, 0.3j, -0.2) if is_qutrit else \
        ququart.make_ququart(0.6, 0.3j, -0.2, 0.5)
    build = measurement.sample_coincidences if noise == "sampled" else \
        measurement.expected_coincidences
    rec = build(state, cfg)
    back = measurement.CoincidenceRecord.from_dict(json.loads(jsonio.dumps(rec.to_dict())))
    assert (back.basis, back.mode, back.eta, back.total_pairs, back.seed) == \
        (rec.basis, rec.mode, rec.eta, rec.total_pairs, rec.seed)
    assert back.counts == rec.counts


# ---------------------------------------------------------------------------
# records and magnitudes against the numpy forms they replaced

REFERENCE_KINDS = {
    qutrit.QutritState: (measurement.QUTRIT_SETTINGS, np.array([0, 1, 1, 2]),
                         lambda q: qutrit.rotate_basis(q, math.pi / 4.0)),
    ququart.QuquartState: (measurement.QUQUART_SETTINGS, np.array([0, 0, 1, 1, 2, 2, 3, 3]),
                           ququart.rotate_basis_45),
}


def reference_setting_probabilities(state, basis):
    # _setting_probabilities as it was: through a rotated state, with the
    # shares counted on every call
    settings, idx, rotate45 = REFERENCE_KINDS[type(state)]
    if basis == "rotated45":
        state = rotate45(state)
    p = np.abs(state.amplitudes) ** 2
    return settings, p[idx] / np.bincount(idx)[idx]


def reference_expected_coincidences(state, cfg):
    settings, probs = reference_setting_probabilities(state, cfg.basis)
    scale = cfg.detector_efficiency / 2.0 * cfg.total_pairs
    return measurement._record(cfg, "ideal", settings, [float(scale * p) for p in probs])


def reference_sample_coincidences(state, cfg):
    if cfg.noise != "sampled":
        raise ValueError("sample_coincidences needs a config with noise='sampled'")
    settings, probs = reference_setting_probabilities(state, cfg.basis)
    rng = np.random.default_rng(cfg.seed)
    n_det = rng.binomial(cfg.total_pairs, cfg.detector_efficiency / 2.0)
    draws = rng.multinomial(n_det, probs / probs.sum())
    return measurement._record(cfg, "sampled", settings, [int(v) for v in draws])


def reference_magnitudes_from_record(rec):
    # magnitudes_from_record as it was, summing through np.bincount, with the
    # NaN count named as it is now
    kind = reference_kind(rec)
    if rec.basis not in measurement.BASES:
        raise reconstruct.MalformedRecord(f"record basis {rec.basis!r} is not recognized")
    if rec.mode not in measurement.NOISE_MODES:
        raise reconstruct.MalformedRecord(f"record mode {rec.mode!r} is not recognized")
    settings, probes = measurement.KINDS[kind]
    unknown = [s for s in rec.counts if s not in settings]
    if unknown:
        raise reconstruct.MalformedRecord(f"record has settings {unknown} foreign to a {kind}")
    missing = [s for s in settings if s not in rec.counts]
    if missing:
        raise reconstruct.IncompleteRecord(f"record lacks settings {missing} for a {kind}")
    counts = [float(rec.counts[s]) for s in settings]
    if any(v < 0 for v in counts):
        raise reconstruct.MalformedRecord("negative coincidence count")
    total = sum(counts)
    nan = [s for s, v in zip(settings, counts) if math.isnan(v)]
    if nan:
        raise reconstruct.MalformedRecord(f"coincidence counts {nan} are NaN")
    if total <= 0:
        raise reconstruct.MalformedRecord("record holds no coincidences")
    if not math.isfinite(total):
        raise reconstruct.MalformedRecord("coincidence counts overflow their sum")
    sq = np.bincount(probes, weights=np.array(counts) / total)
    mags = np.sqrt(sq / float(sq.sum()))
    noise = 1.0 / math.sqrt(total) if rec.mode == "sampled" else 0.0
    est = reconstruct.MagnitudeEstimate(kind=kind, noise_scale=noise)
    if rec.basis == "natural":
        est.magnitudes = mags
    else:
        est.magnitudes45 = mags
    return est


def record_outcome(build, state, cfg):
    # the counts in order with their Python types and exact values (repr
    # tells -0.0 from 0.0); the rest of a coincidence/1 document is the config
    try:
        rec = build(state, cfg)
    except ValueError as e:
        return (type(e), str(e)), None
    return [(k, type(v), repr(v)) for k, v in rec.counts.items()], rec


def magnitudes_outcome(extract, rec):
    try:
        est = extract(rec)
    except ValueError as e:
        return type(e), str(e)
    return (est.kind, est.noise_scale,
            *(None if m is None else (m.dtype, m.shape, m.tobytes())
              for m in (est.magnitudes, est.magnitudes45)))


def scan_state(gen, dim, family):
    # generic, one amplitude zero, real of mixed sign, and, rarely, a state
    # off unit length that only the check of the rotated state refuses
    c = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    if family == "zero":
        c[gen.integers(dim)] = 0.0
    elif family == "real":
        c = c.real.copy()
    if family == "off-norm":
        cls = qutrit.QutritState if dim == 3 else ququart.QuquartState
        state = object.__new__(cls)
        for name, value in zip(("c1", "c2", "c3", "c4"), c.tolist()):
            object.__setattr__(state, name, value)
        return state
    return (qutrit.make_qutrit if dim == 3 else ququart.make_ququart)(*c)


def corrupt(gen, rec):
    # a record as magnitudes_from_record may meet it: mostly as built, else
    # with one fault (or a -0.0 count, which is no fault)
    counts = dict(rec.counts)
    keys = list(counts)
    fault = gen.integers(16)
    key = keys[gen.integers(len(keys))]
    if fault == 0:
        counts[key] = -0.0
    elif fault == 1:
        counts[key] = -1.0
    elif fault == 2:
        counts = dict.fromkeys(counts, 0.0)
    elif fault == 3:
        counts[key] = math.nan
    elif fault == 4:
        counts[key] = math.inf
    elif fault == 5:
        counts = dict.fromkeys(counts, 1e308)
    elif fault == 6:
        del counts[key]
    elif fault == 7:
        counts["X|Y"] = 1.0
    elif fault == 8:
        counts[key + "x"] = counts.pop(key)
    elif fault == 9:
        return dataclasses.replace(rec, basis="diagonal")
    elif fault == 10:
        return dataclasses.replace(rec, mode="noisy")
    elif fault == 11:
        counts = {k: v * 5e-324 for k, v in counts.items()}
    elif fault == 12:
        counts = {}
    else:
        return rec
    return dataclasses.replace(rec, counts=counts)


SCAN_RECORDS = 40_000


def test_records_and_magnitudes_equal_the_numpy_forms_bit_for_bit():
    gen = np.random.default_rng(2026)
    families = ["generic"] * 5 + ["zero"] * 2 + ["real"] * 2
    builders = {"ideal": (measurement.expected_coincidences, reference_expected_coincidences),
                "sampled": (measurement.sample_coincidences, reference_sample_coincidences)}
    for i in range(SCAN_RECORDS):
        dim = (3, 4)[i % 2]
        basis = measurement.BASES[(i // 2) % 2]
        mode = measurement.NOISE_MODES[(i // 4) % 2]
        family = "off-norm" if i % 397 == 0 else families[gen.integers(len(families))]
        state = scan_state(gen, dim, family)
        pairs = int(10 ** gen.uniform(1.0, 12.0))
        eta = float(gen.uniform(1e-3, 1.0)) if i % 5 else 1.0
        # now and then an ideal config for the sampler, which it refuses
        noise = "ideal" if i % 97 == 0 else mode
        cfg = measurement.ExperimentConfig(total_pairs=pairs, detector_efficiency=eta, basis=basis,
                                           noise=noise, seed=int(gen.integers(2**32)))
        build, reference = builders[mode]
        got, rec = record_outcome(build, state, cfg)
        want, _ = record_outcome(reference, state, cfg)
        assert got == want, (i, cfg)
        if rec is None:
            continue
        rec = corrupt(gen, rec)
        assert rec.kind == reference_kind(rec)
        got = magnitudes_outcome(reconstruct.magnitudes_from_record, rec)
        assert got == magnitudes_outcome(reference_magnitudes_from_record, rec), (i, rec)
