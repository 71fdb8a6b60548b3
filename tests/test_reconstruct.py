"""Tests for state reconstruction from two-basis coincidence records:
magnitude extraction, phase retrieval with its ambiguity classes, and the
real-coefficient shortcut formulas."""

import itertools
import math
import warnings

import numpy as np
import pytest

from biphoton import jsonio, measurement, ququart, qutrit, reconstruct


SQRT2 = math.sqrt(2.0)

rng = np.random.default_rng(20240821)


def ideal_records(state, pairs=10**6):
    cfg_n = measurement.ExperimentConfig(total_pairs=pairs)
    cfg_r = measurement.ExperimentConfig(total_pairs=pairs, basis="rotated45")
    return (measurement.expected_coincidences(state, cfg_n),
            measurement.expected_coincidences(state, cfg_r))


def ideal_estimate(state):
    rec_n, rec_r = ideal_records(state)
    return reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(rec_n),
        reconstruct.magnitudes_from_record(rec_r),
    )


def matches_up_to_phase_or_conjugation(candidate, truth):
    a, b = np.asarray(candidate), np.asarray(truth)
    return max(abs(np.vdot(a, b)), abs(np.vdot(np.conj(a), b))) >= 1 - 1e-9


# ---------------------------------------------------------------------------
# magnitude extraction

def test_magnitudes_ideal_qutrit():
    rec, _ = ideal_records(qutrit.make_qutrit(0, 1, 0))
    est = reconstruct.magnitudes_from_record(rec)
    assert est.kind == "qutrit"
    assert np.allclose(est.magnitudes, [0, 1, 0], atol=1e-12)


def test_magnitudes_ideal_ququart():
    rec, _ = ideal_records(ququart.make_ququart(1, 0, 0, 0))
    est = reconstruct.magnitudes_from_record(rec)
    assert np.allclose(est.magnitudes, [1, 0, 0, 0], atol=1e-12)


# the settings that probe each amplitude, written out by hand
QUTRIT_GROUPS = (("H|H",), ("H|V", "V|H"), ("V|V",))
QUQUART_GROUPS = (("Hh|Hl", "Hl|Hh"), ("Hh|Vl", "Vl|Hh"), ("Hl|Vh", "Vh|Hl"), ("Vh|Vl", "Vl|Vh"))


@pytest.mark.parametrize("make, groups, rotate45", [
    (qutrit.make_qutrit, QUTRIT_GROUPS, lambda q: qutrit.rotate_basis(q, math.pi / 4)),
    (ququart.make_ququart, QUQUART_GROUPS, ququart.rotate_basis_45),
], ids=["qutrit", "ququart"])
@pytest.mark.parametrize("basis", measurement.BASES)
def test_magnitudes_round_trip(make, groups, rotate45, basis):
    dim = len(groups)
    cfg = measurement.ExperimentConfig(total_pairs=10**6, detector_efficiency=0.7, basis=basis)
    for i in range(20):
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if i % 5 == 0:
            amps[i % dim] = 0.0
        state = make(*amps)
        rec = measurement.expected_coincidences(state, cfg)
        est = reconstruct.magnitudes_from_record(rec)
        if basis == "natural":
            got, want = est.magnitudes, np.abs(state.amplitudes)
        else:
            got, want = est.magnitudes45, np.abs(rotate45(state).amplitudes)
        assert np.max(np.abs(got - want)) <= 1e-12
        # summing in setting order by hand gives the same bits
        total = sum(rec.counts.values())
        sq = np.array([sum(rec.counts[s] / total for s in g) for g in groups])
        assert np.array_equal(got, np.sqrt(sq / sq.sum()))


def test_magnitudes_missing_setting():
    rec, _ = ideal_records(qutrit.make_qutrit(0, 1, 0))
    doc = rec.to_dict()
    del doc["counts"]["H|V"]
    broken = measurement.CoincidenceRecord.from_dict(doc)
    with pytest.raises(reconstruct.IncompleteRecord):
        reconstruct.magnitudes_from_record(broken)


def test_magnitudes_negative_count():
    rec, _ = ideal_records(qutrit.make_qutrit(0, 1, 0))
    doc = rec.to_dict()
    doc["counts"]["H|H"] = -5
    broken = measurement.CoincidenceRecord.from_dict(doc)
    with pytest.raises(reconstruct.MalformedRecord):
        reconstruct.magnitudes_from_record(broken)


def test_magnitudes_overflowing_counts():
    rec, _ = ideal_records(qutrit.make_qutrit(0.6, 0.3, 0.8))
    doc = rec.to_dict()
    doc["counts"] = {k: 1e308 for k in doc["counts"]}
    broken = measurement.CoincidenceRecord.from_dict(doc)
    with pytest.raises(reconstruct.MalformedRecord):
        reconstruct.magnitudes_from_record(broken)


def test_magnitudes_name_a_nan_count():
    # built in Python: from_dict refuses NaN
    rec, _ = ideal_records(qutrit.make_qutrit(0.6, 0.3, 0.8))
    broken = measurement.CoincidenceRecord(
        basis=rec.basis, mode=rec.mode, eta=rec.eta, total_pairs=rec.total_pairs,
        counts={**rec.counts, "H|V": math.nan})
    with pytest.raises(reconstruct.MalformedRecord, match=r"counts \['H\|V'\] are NaN"):
        reconstruct.magnitudes_from_record(broken)


def test_magnitudes_unknown_setting():
    rec, _ = ideal_records(qutrit.make_qutrit(0, 1, 0))
    doc = rec.to_dict()
    doc["counts"]["D|D"] = 3
    broken = measurement.CoincidenceRecord.from_dict(doc)
    with pytest.raises(reconstruct.MalformedRecord):
        reconstruct.magnitudes_from_record(broken)


@pytest.mark.parametrize("field, value", [("counts", "zero"), ("basis", "diagonal")])
def test_magnitudes_reject_empty_record_and_unknown_basis(field, value):
    rec, _ = ideal_records(qutrit.make_qutrit(0.6, 0.3, 0.8))
    doc = rec.to_dict()
    doc[field] = {k: 0 for k in doc["counts"]} if value == "zero" else value
    broken = measurement.CoincidenceRecord.from_dict(doc)
    with pytest.raises(reconstruct.MalformedRecord):
        reconstruct.magnitudes_from_record(broken)


def test_magnitudes_are_renormalized():
    q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
    cfg = measurement.ExperimentConfig(total_pairs=10**6, noise="sampled", seed=17)
    est = reconstruct.magnitudes_from_record(measurement.sample_coincidences(q, cfg))
    assert abs(np.sum(np.asarray(est.magnitudes) ** 2) - 1) <= 1e-12
    assert est.noise_scale > 0


def test_noisy_magnitudes_close_to_truth():
    for seed in range(5):
        q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        cfg = measurement.ExperimentConfig(
            total_pairs=10**6, noise="sampled", seed=seed
        )
        est = reconstruct.magnitudes_from_record(measurement.sample_coincidences(q, cfg))
        assert np.max(np.abs(np.asarray(est.magnitudes) - np.abs(q.amplitudes))) <= 0.01


def test_merge_estimates_validation():
    q = qutrit.make_qutrit(0, 1, 0)
    rec_n, rec_r = ideal_records(q)
    nat = reconstruct.magnitudes_from_record(rec_n)
    rot = reconstruct.magnitudes_from_record(rec_r)
    merged = reconstruct.merge_estimates(nat, rot)
    assert merged.magnitudes is not None and merged.magnitudes45 is not None
    with pytest.raises(ValueError):
        reconstruct.merge_estimates(nat, nat)
    s_rec, _ = ideal_records(ququart.make_ququart(1, 0, 0, 0))
    with pytest.raises(ValueError):
        reconstruct.merge_estimates(nat, reconstruct.magnitudes_from_record(s_rec))


def test_merge_estimates_states_the_record_pair_contract():
    nat, rot = map(reconstruct.magnitudes_from_record,
                   ideal_records(qutrit.make_qutrit(0.6, 0.3, 0.8)))
    with pytest.raises(ValueError, match="one natural and one rotated45 record, got two natural"):
        reconstruct.merge_estimates(nat, nat)
    with pytest.raises(ValueError, match="got two rotated45"):
        reconstruct.merge_estimates(rot, rot)
    s_rec, _ = ideal_records(ququart.make_ququart(1, 0, 0, 0))
    with pytest.raises(ValueError, match="different state kinds, qutrit and ququart"):
        reconstruct.merge_estimates(nat, reconstruct.magnitudes_from_record(s_rec))


def test_phase_solvers_need_both_bases_and_their_own_kind():
    rec_n, _ = ideal_records(qutrit.make_qutrit(0.6, 0.3, 0.8))
    with pytest.raises(reconstruct.IncompleteRecord):
        reconstruct.qutrit_phases(reconstruct.magnitudes_from_record(rec_n))
    with pytest.raises(ValueError, match="not a ququart"):
        reconstruct.ququart_phases(ideal_estimate(qutrit.make_qutrit(0.6, 0.3, 0.8)))


@pytest.mark.parametrize("magnitudes, magnitudes45", [
    (np.zeros(3), np.full(3, 3 ** -0.5)),
    (np.array([0.6, 0.0, 0.8]), np.full(3, 0.5)),
    (np.zeros(4), np.full(4, 0.5)),
    (np.full(4, 0.5), np.array([1.0, 0.0, 0.0, np.nan])),
], ids=["qutrit_zero", "qutrit_rotated_short", "ququart_zero", "ququart_rotated_nan"])
def test_phase_solvers_reject_magnitudes_of_non_unit_sum(magnitudes, magnitudes45):
    # a hand-built estimate whose magnitudes fit no state
    kind = "qutrit" if len(magnitudes) == 3 else "ququart"
    est = reconstruct.MagnitudeEstimate(kind, magnitudes, magnitudes45)
    solve = reconstruct.qutrit_phases if kind == "qutrit" else reconstruct.ququart_phases
    with pytest.raises(ValueError, match="unit squared sums"):
        solve(est)


# ---------------------------------------------------------------------------
# qutrit phase retrieval

def test_qutrit_round_trip_spec_state():
    q = qutrit.make_qutrit(np.exp(1j * math.pi / 3), 1, np.exp(-1j * math.pi / 3))
    res = reconstruct.qutrit_phases(ideal_estimate(q))
    c_true = qutrit.quantify(q).concurrence
    best = min(
        abs(qutrit.quantify(sol).concurrence - c_true) for sol in res.solutions()
    )
    assert best <= 1e-6
    assert any(
        matches_up_to_phase_or_conjugation(sol.amplitudes, q.amplitudes)
        for sol in res.solutions()
    )


def test_qutrit_round_trip_random_states():
    for _ in range(15):
        q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        res = reconstruct.qutrit_phases(ideal_estimate(q))
        assert any(
            matches_up_to_phase_or_conjugation(sol.amplitudes, q.amplitudes)
            for sol in res.solutions()
        )
        assert res.residual <= 1e-8


def test_qutrit_round_trip_small_outer_amplitude():
    # an earlier grid search returned no solution closer than 1 - 3.7e-4
    # to this state
    c = np.array([0.00113138 + 0.02808004j, 0.36201885 + 0.21614776j,
                  0.3651467 - 0.8295183j])
    q = qutrit.make_qutrit(*c)
    res = reconstruct.qutrit_phases(ideal_estimate(q))
    assert any(
        matches_up_to_phase_or_conjugation(sol.amplitudes, q.amplitudes)
        for sol in res.solutions()
    )


def test_qutrit_residual_is_recomputable():
    q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
    est = ideal_estimate(q)
    res = reconstruct.qutrit_phases(est)
    phases = np.angle(res.state.amplitudes)
    # evaluate the published equations at the returned state's phases,
    # re-gauged so the middle amplitude is real
    phi1 = phases[0] - phases[1]
    phi3 = phases[2] - phases[1]
    eqs = reconstruct.qutrit_phase_equations(
        est.magnitudes, est.magnitudes45, phi1, phi3
    )
    rms = float(np.sqrt(np.mean(np.square(eqs))))
    assert abs(rms - res.residual) <= 1e-9


def test_qutrit_gauge_makes_c2_real():
    q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
    res = reconstruct.qutrit_phases(ideal_estimate(q))
    for sol in res.solutions():
        c2 = sol.amplitudes[1]
        assert abs(c2.imag) <= 1e-9
        assert c2.real >= -1e-9


def test_qutrit_phase_unobservable_branch():
    # C2 = 0 with real outer amplitudes: both sign rows of phi1 - phi3 are
    # the same state (up to sign near pi), so it is printed once
    for amps in ((1, 0, 1), (1, 0, -1), (1, 0, 2), (0.3, 0, -0.7)):
        q = qutrit.make_qutrit(*amps)
        with pytest.raises(reconstruct.PhaseUnobservable) as err:
            reconstruct.qutrit_phases(ideal_estimate(q))
        res = err.value.result
        assert res is not None
        sols = np.array([sol.amplitudes for sol in res.solutions()])
        assert any(matches_up_to_phase_or_conjugation(a, q.amplitudes) for a in sols)
        assert abs(qutrit.concurrence(res.state) - qutrit.quantify(q).concurrence) <= 1e-6
        assert res.warnings
        overlap = np.abs(np.conj(sols) @ sols.T)[~np.eye(len(sols), dtype=bool)]
        assert np.all(overlap < 1 - 1e-8), amps


def test_qutrit_phase_unobservable_nonzero_difference():
    # C2 = 0 with a genuine relative phase: both sign branches are returned
    q = qutrit.make_qutrit(1, 0, np.exp(0.8j))
    with pytest.raises(reconstruct.PhaseUnobservable) as err:
        reconstruct.qutrit_phases(ideal_estimate(q))
    res = err.value.result
    sols = res.solutions()
    assert len(sols) == 2
    assert any(
        matches_up_to_phase_or_conjugation(sol.amplitudes, q.amplitudes)
        for sol in sols
    )


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_qutrit_c2_below_threshold_fits_e1_exactly(seed):
    # C2 below the sampled threshold, yet some H|V or V|H counts: the sign
    # rows fit e1 alone, so the noise in e2 cannot pull them off its root
    q = qutrit.make_qutrit(0.6, 0.002, 0.48 + 0.64j)
    cfg_n = measurement.ExperimentConfig(total_pairs=10**6, noise="sampled", seed=seed)
    cfg_r = measurement.ExperimentConfig(
        total_pairs=10**6, basis="rotated45", noise="sampled", seed=seed + 1
    )
    rec_n = measurement.sample_coincidences(q, cfg_n)
    assert rec_n.counts["H|V"] + rec_n.counts["V|H"] > 0
    est = reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(rec_n),
        reconstruct.magnitudes_from_record(measurement.sample_coincidences(q, cfg_r)),
    )
    with pytest.raises(reconstruct.PhaseUnobservable) as err:
        reconstruct.qutrit_phases(est)
    sols = err.value.result.solutions()
    assert len(sols) == 2
    for sol in sols:
        e1, _ = reconstruct.qutrit_phase_equations(
            est.magnitudes, est.magnitudes45, np.angle(sol.c1), np.angle(sol.c3))
        assert abs(e1) <= 1e-12


def test_qutrit_phases_irrelevant_when_only_c2():
    # C2 alone is observable; the empty outer amplitudes are pinned to 0
    q = qutrit.make_qutrit(0, 1, 0)
    res = reconstruct.qutrit_phases(ideal_estimate(q))
    assert matches_up_to_phase_or_conjugation(res.state.amplitudes, q.amplitudes)
    assert res.warnings


def test_qutrit_inconsistent_records():
    # natural and rotated records from different states cannot be solved
    qa = qutrit.make_qutrit(0.8, 0.36j, 0.48)
    qb = qutrit.make_qutrit(0.2, 0.5, math.sqrt(1 - 0.04 - 0.25))
    rec_n, _ = ideal_records(qa)
    _, rec_r = ideal_records(qb)
    est = reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(rec_n),
        reconstruct.magnitudes_from_record(rec_r),
    )
    with pytest.raises(reconstruct.Inconsistent) as err:
        reconstruct.qutrit_phases(est)
    assert err.value.best_residual > 0.05


@pytest.mark.parametrize("natural, rotated", [
    ((0.6, 0, 0.8), (0.1, 0.9, 0.3)),
    ((0, 1, 0), (0.1, 0.9, 0.3)),
    ((1, 0, 0, 0), (0.1, 0.9, 0.3, 0.2)),
], ids=["c2_below_threshold", "outer_amplitudes_pinned", "one_ququart_amplitude"])
def test_mismatched_records_are_inconsistent_in_every_branch(natural, rotated):
    make = qutrit.make_qutrit if len(natural) == 3 else ququart.make_ququart
    rec_n, _ = ideal_records(make(*natural))
    _, rec_r = ideal_records(make(*rotated))
    est = reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(rec_n),
        reconstruct.magnitudes_from_record(rec_r),
    )
    solve = reconstruct.qutrit_phases if len(natural) == 3 else reconstruct.ququart_phases
    with pytest.raises(reconstruct.Inconsistent) as err:
        solve(est)
    assert err.value.best_residual > reconstruct.RESIDUAL_CEILING


def test_qutrit_noisy_round_trip():
    q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
    cfg_n = measurement.ExperimentConfig(total_pairs=10**6, noise="sampled", seed=5)
    cfg_r = measurement.ExperimentConfig(
        total_pairs=10**6, basis="rotated45", noise="sampled", seed=6
    )
    est = reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(measurement.sample_coincidences(q, cfg_n)),
        reconstruct.magnitudes_from_record(measurement.sample_coincidences(q, cfg_r)),
    )
    try:
        res = reconstruct.qutrit_phases(est)
    except reconstruct.PhaseUnobservable as err:
        res = err.value.result
    c_true = qutrit.quantify(q).concurrence
    best = min(
        abs(qutrit.quantify(sol).concurrence - c_true) for sol in res.solutions()
    )
    assert best <= 0.05


# ---------------------------------------------------------------------------
# ququart phase retrieval

def test_ququart_round_trip_spec_state():
    phases = np.array([math.pi / 4, -math.pi / 4, math.pi / 8, -math.pi / 8])
    s = ququart.make_ququart(*(0.5 * np.exp(1j * phases)))
    res = reconstruct.ququart_phases(ideal_estimate(s))
    rep_true = ququart.quantify(s)
    best_k = min(
        abs(ququart.quantify(sol).schmidt_k - rep_true.schmidt_k)
        for sol in res.solutions()
    )
    best_ci = min(
        abs(ququart.quantify(sol).i_concurrence - rep_true.i_concurrence)
        for sol in res.solutions()
    )
    assert best_k <= 1e-5
    assert best_ci <= 1e-6
    assert any(
        matches_up_to_phase_or_conjugation(sol.amplitudes, s.amplitudes)
        for sol in res.solutions()
    )


def test_ququart_round_trip_random_states():
    for _ in range(10):
        s = ququart.make_ququart(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
        res = reconstruct.ququart_phases(ideal_estimate(s))
        assert any(
            matches_up_to_phase_or_conjugation(sol.amplitudes, s.amplitudes)
            for sol in res.solutions()
        )


def test_ququart_single_amplitude_unobservable():
    s = ququart.make_ququart(1, 0, 0, 0)
    with pytest.raises(reconstruct.PhaseUnobservable) as err:
        reconstruct.ququart_phases(ideal_estimate(s))
    res = err.value.result
    assert abs(ququart.quantify(res.state).schmidt_k - 2) <= 1e-9


def test_ququart_bell_like_state():
    s = ququart.make_ququart(1, 1, 1, -1)
    res = reconstruct.ququart_phases(ideal_estimate(s))
    # all N vanish and the solutions form a continuum, of which the solver
    # returns at most its candidate rows: 8 curve roots on both branches of
    # e2 and the 4 critical points, each with both signs of w
    assert len(res.solutions()) <= 40
    best = min(
        abs(ququart.quantify(sol).schmidt_k - 4) for sol in res.solutions()
    )
    assert best <= 1e-5


def test_ququart_gauge_sum_zero():
    s = ququart.make_ququart(*(rng.normal(size=4) + 1j * rng.normal(size=4)))
    res = reconstruct.ququart_phases(ideal_estimate(s))
    for sol in res.solutions():
        total = np.sum(np.angle(sol.amplitudes))
        # the phase sum is fixed to zero modulo 2 pi
        assert min(abs(total - k * 2 * math.pi) for k in (-2, -1, 0, 1, 2)) <= 1e-6


# ---------------------------------------------------------------------------
# ranking: rows are deduplicated as one amplitude array, and only the printed
# solutions become states

@pytest.mark.parametrize("name, make, solve, amps", [
    # C1 = C3 real: two of the four candidate rows are duplicates
    ("QutritState", qutrit.make_qutrit, reconstruct.qutrit_phases, (0.5, 0.5 + 0.5j, 0.5)),
    ("QuquartState", ququart.make_ququart, reconstruct.ququart_phases,
     (0.6 + 0.2j, 0.3 - 0.4j, -0.5 + 0.3j, 0.1 + 0.35j)),
], ids=["qutrit", "ququart"])
def test_only_the_printed_solutions_are_built_into_states(monkeypatch, name, make, solve,
                                                          amps):
    est = ideal_estimate(make(*amps))
    state_class, built = getattr(reconstruct, name), []

    def spy(*amplitudes):
        built.append(amplitudes)
        return state_class(*amplitudes)

    monkeypatch.setattr(reconstruct, name, spy)
    res = solve(est)
    assert len(built) == len(res.solutions())
    assert [s.amplitudes.tolist() for s in res.solutions()] == [list(a) for a in built]


def ququart_rows(phases):
    return np.array([0.5, 0.3, 0.6, math.sqrt(0.3)]) * np.exp(1j * phases)


def reference_rank(phases, rms, noise_scale, amplitudes):
    # the loop that built and compared one row at a time, in residual order
    best = float(np.min(rms))
    keep = np.flatnonzero(rms <= reconstruct._keep_threshold(best, noise_scale))
    keep = keep[np.argsort(rms[keep], kind="stable")]
    out, seen = [], []
    for i in keep:
        amps = amplitudes(phases[i:i + 1])[0]
        if seen and np.max(np.abs(np.array(seen) @ amps)) >= 1.0 - reconstruct.OVERLAP_DEDUPE:
            continue
        seen.append(np.conj(amps))
        out.append((amps, float(rms[i]), tuple(phases[i].tolist())))
    out.sort(key=lambda e: tuple(round(p % reconstruct.TWO_PI, 9) for p in e[2]))
    return out


@pytest.mark.parametrize("first_is_better", [True, False])
def test_rank_solutions_keeps_the_better_of_two_duplicates(first_is_better):
    # rows 0 and 2 are one state: 1e-9 rad apart, and row 2 is shifted by the
    # global phase pi/2 the zero-sum gauge allows
    phases = np.array([[0.3, -0.2, 1.1, -1.2],
                       [1.0, 0.5, -0.4, -1.1],
                       [0.3 + math.pi / 2 + 1e-9, -0.2 + math.pi / 2, 1.1 + math.pi / 2,
                        -1.2 + math.pi / 2],
                       [-2.0, 0.1, 0.9, 1.0]])
    rms = np.array([1e-7, 2e-7, 3e-7, 4e-7])
    if not first_is_better:
        rms[[0, 2]] = rms[[2, 0]]
    ranked = reconstruct._rank_solutions(phases, rms, 0.0, ququart_rows)
    survivor = 0 if first_is_better else 2
    # canonical order: smallest phases modulo 2 pi first
    order = sorted([survivor, 1, 3], key=lambda i: tuple(np.mod(phases[i], 2 * math.pi)))
    assert [e[2] for e in ranked] == [tuple(phases[i]) for i in order]
    assert [e[1] for e in ranked] == [rms[i] for i in order]
    assert np.array_equal(np.array([e[0] for e in ranked]), ququart_rows(phases[order]))
    want = reference_rank(phases, rms, 0.0, ququart_rows)
    assert [e[1:] for e in ranked] == [e[1:] for e in want]


@pytest.mark.parametrize("seed", range(20))
def test_rank_solutions_matches_the_row_by_row_loop(seed):
    local = np.random.default_rng(seed)
    phases = local.uniform(-math.pi, math.pi, size=(24, 4))
    # planted duplicates: near copies and copies shifted by the global phase
    # i^k, some with tied residuals
    copies = local.integers(0, 12, size=12)
    phases[12:] = (phases[copies] + local.integers(0, 4, size=(12, 1)) * math.pi / 2
                   + local.normal(scale=1e-6, size=(12, 4)))
    rms = local.choice([1e-9, 2e-9, 5e-7, 2e-6], size=24)
    noise = float(local.choice([0.0, 1e-7]))
    got = reconstruct._rank_solutions(phases, rms, noise, ququart_rows)
    want = reference_rank(phases, rms, noise, ququart_rows)
    assert len(got) < np.count_nonzero(rms <= 1e-6 + 10 * noise)
    assert [e[1:] for e in got] == [e[1:] for e in want]
    assert all(np.array_equal(g[0], w[0]) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# real-coefficient shortcuts

def test_qutrit_shortcut_examples():
    for amps, k_want, c_want in (
        ((1, 0, 1), 2.0, 1.0),
        ((1, 0, 0), 1.0, 0.0),
        ((0, 1, 0), 2.0, 1.0),
    ):
        q = qutrit.make_qutrit(*amps)
        k, c = reconstruct.qutrit_real_shortcut(ideal_estimate(q))
        assert abs(k - k_want) <= 1e-9
        assert abs(c - c_want) <= 1e-9


def test_qutrit_shortcut_rejects_out_of_range():
    # a sampled record of a nearly product state pushes dw^2 + dw45^2 past 1
    q = qutrit.make_qutrit(1, 0.01, 0)
    cfg_n = measurement.ExperimentConfig(total_pairs=10**6, noise="sampled", seed=0)
    cfg_r = measurement.ExperimentConfig(
        total_pairs=10**6, basis="rotated45", noise="sampled", seed=1000
    )
    rec_n = measurement.sample_coincidences(q, cfg_n)
    rec_r = measurement.sample_coincidences(q, cfg_r)
    est = reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(rec_n),
        reconstruct.magnitudes_from_record(rec_r),
    )
    with pytest.raises(reconstruct.Inconsistent) as err:
        reconstruct.qutrit_real_shortcut(est)
    assert err.value.clipped == (1.0, 0.0)


def test_qutrit_shortcut_random_real_states():
    for _ in range(25):
        q = qutrit.make_qutrit(*rng.normal(size=3))
        k, c = reconstruct.qutrit_real_shortcut(ideal_estimate(q))
        rep = qutrit.quantify(q)
        assert abs(k - rep.schmidt_k) <= 1e-9
        assert abs(c - rep.concurrence) <= 1e-9


def test_qutrit_shortcut_rejects_a_ququart_estimate():
    # these ququart records once gave (K, C) = (2.0, 1.0)
    est = ideal_estimate(ququart.make_ququart(0.5, 0.5j, -0.5, 0.5))
    with pytest.raises(ValueError, match="not a qutrit"):
        reconstruct.qutrit_real_shortcut(est)


@pytest.mark.parametrize("magnitudes, magnitudes45", [
    (np.array([0.6, 0.0, 0.6]), np.full(3, 3 ** -0.5)),
    (np.array([0.6, 0.0, 0.8]), np.full(3, 0.5)),
    (np.array([0.6, 0.0, 0.8]), np.array([1.0, 0.0, np.nan])),
], ids=["natural_short", "rotated_short", "rotated_nan"])
def test_qutrit_shortcut_rejects_magnitudes_of_non_unit_sum(magnitudes, magnitudes45):
    est = reconstruct.MagnitudeEstimate("qutrit", magnitudes, magnitudes45)
    with pytest.raises(ValueError, match="unit squared sums"):
        reconstruct.qutrit_real_shortcut(est)


def test_ququart_shortcut_examples():
    for amps, k_want in (
        ((1, 0, 0, 1), 4.0),
        ((1, 0, 0, 0), 2.0),
        ((math.cos(math.pi / 6), 0, 0, math.sin(math.pi / 6)), 3.2),
    ):
        s = ququart.make_ququart(*amps)
        k, ci = reconstruct.ququart_real_shortcut(ideal_estimate(s))
        assert abs(k - k_want) <= 1e-9
        assert abs(ci - math.sqrt(2 * (1 - 1 / k_want))) <= 1e-9


def test_ququart_shortcut_random_real_states():
    for _ in range(25):
        s = ququart.make_ququart(*rng.normal(size=4))
        k, ci = reconstruct.ququart_real_shortcut(ideal_estimate(s))
        rep = ququart.quantify(s)
        assert abs(k - rep.schmidt_k) <= 1e-9
        assert abs(ci - rep.i_concurrence) <= 1e-9


def test_ququart_shortcut_rejects_out_of_range():
    # magnitudes that push |C1 C4 - C2 C3|^2 past its 1/4 ceiling
    est = reconstruct.MagnitudeEstimate(
        kind="ququart",
        magnitudes=np.array([1 / SQRT2, 0, 0, 1 / SQRT2]),
        magnitudes45=np.array([0.5, 0.5, 0.5, 0.5]),
    )
    with pytest.raises(reconstruct.Inconsistent) as err:
        reconstruct.ququart_real_shortcut(est)
    k_clip, ci_clip = err.value.clipped
    assert abs(k_clip - 4) <= 1e-9
    assert abs(ci_clip - math.sqrt(1.5)) <= 1e-9


# ---------------------------------------------------------------------------
# result serialization

def test_result_to_dict():
    q = qutrit.make_qutrit(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
    res = reconstruct.qutrit_phases(ideal_estimate(q))
    doc = res.to_dict()
    assert doc["schema"] == "recon/1"
    assert doc["kind"] == "qutrit"
    assert len(doc["amplitudes"]) == 3
    assert all(set(a) == {"re", "im"} for a in doc["amplitudes"])
    assert doc["residual"] >= 0
    assert isinstance(doc["alternates"], list)


def reference_to_dict(res):
    # ReconstructionResult.to_dict as it was, through each solution's array
    amps = [[jsonio.complex_to_json(c) for c in s.amplitudes.tolist()] for s in res.solutions()]
    return {"schema": "recon/1", "kind": res.kind, "amplitudes": amps[0],
            "residual": res.residual, "alternates": amps[1:], "gauge": res.gauge,
            "warnings": list(res.warnings)}


def test_result_to_dict_equals_the_array_form():
    # solver results, and states whose fields hold numpy scalars, ints and -0.0
    gen = np.random.default_rng(53)
    results = []
    for make, solve, dim in ((qutrit.make_qutrit, reconstruct.qutrit_phases, 3),
                             (ququart.make_ququart, reconstruct.ququart_phases, 4)):
        for _ in range(10):
            state = make(*(gen.normal(size=dim) + 1j * gen.normal(size=dim)))
            results.append(solve(ideal_estimate(state)))
    odd = [qutrit.QutritState(np.complex128(0.6), 0.8, complex(-0.0, -0.0)),
           qutrit.QutritState(1, 0, 0),
           ququart.QuquartState(np.complex64(0.5), 0.5j, np.float64(-0.5), 0.5)]
    results.append(reconstruct.ReconstructionResult(
        kind="mixed", state=odd[0], residual=0.0, alternates=odd[1:], gauge="g",
        warnings=("w",)))
    for res in results:
        # repr tells -0.0 from 0.0 and a numpy float from a Python one
        assert repr(res.to_dict()) == repr(reference_to_dict(res))


# ---------------------------------------------------------------------------
# closed-form phase solvers

def central_jacobian(fun, x, h=1e-6):
    cols = []
    for d in range(x.size):
        step = np.zeros_like(x)
        step[d] = h
        cols.append((np.asarray(fun(x + step)) - np.asarray(fun(x - step))) / (2 * h))
    return np.column_stack(cols)


def test_phase_jacobians_match_central_differences():
    # the polish's fused residual and Jacobian kernel against the public
    # equation helpers, with all phases free and with a pinned amplitude
    gen = np.random.default_rng(12)
    kinds = (
        (3, lambda m, n: reconstruct._frame_terms("qutrit", m, n),
         lambda m, n, p: reconstruct.qutrit_phase_equations(m, n, *p),
         (np.eye(2), np.eye(2)[[0]])),
        (4, lambda m, n: reconstruct._frame_terms("ququart", m, n),
         reconstruct.ququart_phase_equations,
         (np.eye(4), np.eye(4)[[0, 1]] - np.eye(4)[3])),
    )
    for _ in range(20):
        m = np.abs(gen.normal(size=4))
        n = np.abs(gen.normal(size=4))
        x = gen.uniform(-math.pi, math.pi, size=4)
        for dim, terms, equations, bases in kinds:
            md, nd = m[:dim], n[:dim]
            for basis in bases:
                def public(y):
                    return np.array(equations(md, nd, list(y @ basis)))

                y = x[:len(basis)]
                rj = reconstruct._cosine_system(*terms(md, nd), basis)(y[None])
                r, jac = rj[..., 0], rj[..., 1:]
                assert np.max(np.abs(r[0] - public(y))) <= 1e-15
                assert np.max(np.abs(jac[0] - central_jacobian(public, y))) <= 1e-8


# the hand-derived term builders that the frame table replaced, as they were,
# except for one square: they took |C1(45)|^2 as n[0] ** 2, a numpy scalar
# power that goes through the C library's pow, which rounds about one square
# in 1,200 away from the correctly rounded product that the public equations
# and every other square use
_QUTRIT_FORMS, _QUTRIT_EQ = np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), (0, 1, 1)
_QUQUART_PAIRS = ((0, 2), (1, 3), (0, 1), (2, 3), (0, 3), (1, 2))
_PAIR_A, _PAIR_B = np.array(_QUQUART_PAIRS).T
_QUQUART_FORMS, _QUQUART_EQ = np.eye(4)[_PAIR_A] - np.eye(4)[_PAIR_B], (0, 0, 1, 1, 2, 2)


def hand_qutrit_terms(m, n):
    m1, m2, m3 = m
    n1, n2, n3 = n
    return (np.array([-m1 * m3, SQRT2 * m2 * m1, SQRT2 * m2 * m3]), _QUTRIT_FORMS, _QUTRIT_EQ,
            np.array([n2 * n2 - 0.5 * (m1 * m1 + m3 * m3), n1 * n1 - n3 * n3]))


def hand_ququart_terms(m, n):
    return (m[_PAIR_A] * m[_PAIR_B], _QUQUART_FORMS, _QUQUART_EQ,
            n[0] * n[0] + n[1:] ** 2 - 0.5)


def unit_magnitudes(gen, dim, family):
    x = np.abs(gen.normal(size=dim))
    if family == "zero":
        # C2 for a qutrit, any one amplitude for a ququart
        x[1 if dim == 3 else gen.integers(dim)] = 0.0
    elif family == "tiny":
        x *= 10.0 ** gen.uniform(-6.0, 0.0, size=dim)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("kind, dim, hand", [("qutrit", 3, hand_qutrit_terms),
                                             ("ququart", 4, hand_ququart_terms)],
                         ids=["qutrit", "ququart"])
def test_frame_terms_equal_the_hand_formulas_bit_for_bit(kind, dim, hand):
    gen = np.random.default_rng(13)
    families = ["generic"] * 2000 + ["zero"] * 200 + ["tiny"] * 200
    for family in families:
        m, n = unit_magnitudes(gen, dim, family), unit_magnitudes(gen, dim, family)
        inputs = [(m, n)]
        if kind == "qutrit":
            # the C2-below-threshold branch drops C2's terms
            inputs.append((m * [1.0, 0.0, 1.0], n))
        for mm, nn in inputs:
            coef, forms, eq, rhs = reconstruct._frame_terms(kind, mm, nn)
            want = hand(mm, nn)
            assert np.array_equal(coef, want[0])
            assert np.array_equal(forms, want[1])
            assert tuple(eq) == want[2]
            assert np.array_equal(rhs, want[3])
            # the same zeros too, so cosines and sines see the same angles
            assert np.array_equal(np.signbit(coef), np.signbit(want[0]))
            assert np.array_equal(np.signbit(forms), np.signbit(want[1]))


def test_rot45_is_the_kronecker_square_of_u45():
    # the hand-entered matrix it replaced, bit for bit
    old_rot45 = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0],
                                [-1.0, -1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0]])
    rot45 = np.kron(qutrit.U45, qutrit.U45) / 2
    assert rot45.dtype == old_rot45.dtype
    assert np.array_equal(rot45, old_rot45)
    assert np.array_equal(np.signbit(rot45), np.signbit(old_rot45))
    assert np.array_equal(ququart._ROT45, old_rot45)


@pytest.mark.parametrize("kind, make", [("qutrit", qutrit.QutritState),
                                        ("ququart", ququart.QuquartState)],
                         ids=["qutrit", "ququart"])
def test_forward_frame_and_derived_equations_agree(kind, make):
    # ideal records from the forward models (qutrit._rotation_matrix(pi/4),
    # ququart._ROT45) fit the equations derived from U45 at the true phases
    gen = np.random.default_rng(17)
    dim = 3 if kind == "qutrit" else 4
    worst = 0.0
    for _ in range(200):
        c = gen.normal(size=dim) + 1j * gen.normal(size=dim)
        c /= np.linalg.norm(c)
        est = ideal_estimate(make(*c))
        phases = np.angle(c)
        if kind == "qutrit":
            # the C2-real gauge
            x, basis = phases[[0, 2]] - phases[1], np.eye(2)
        else:
            # the zero-sum gauge
            x, basis = (phases - phases.mean())[:3], np.eye(4)[:3] - np.eye(4)[3]
        terms = reconstruct._frame_terms(kind, est.magnitudes, est.magnitudes45)
        r = reconstruct._cosine_system(*terms, basis)(x[None])[..., 0]
        worst = max(worst, float(np.max(np.abs(r))))
    assert worst <= 1e-14


def real_states(n, dim, seed):
    """Real amplitudes of mixed sign, each at least 0.1 in magnitude."""
    gen = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        c = gen.normal(size=dim)
        c /= np.linalg.norm(c)
        if np.min(np.abs(c)) >= 0.1:
            out.append(c)
    return out


def truth_overlap(res, truth):
    return max(
        max(abs(np.vdot(a, truth)), abs(np.vdot(np.conj(a), truth)))
        for a in (sol.amplitudes for sol in res.solutions())
    )


def test_real_amplitude_round_trips_meet_criterion_8():
    # real amplitudes put the phase equations at tangential double roots;
    # seed 5 holds a qutrit whose truth an earlier grid search with
    # least-squares refinement missed by 2.2e-9, beyond criterion 8's 1e-9
    for c in real_states(40, 3, 5):
        res = reconstruct.qutrit_phases(ideal_estimate(qutrit.make_qutrit(*c)))
        assert truth_overlap(res, c) >= 1 - 1e-9
    for c in real_states(20, 4, 5):
        s = ququart.make_ququart(*c)
        res = reconstruct.ququart_phases(ideal_estimate(s))
        assert truth_overlap(res, c) >= 1 - 1e-9


def sampled_estimate(state, seed, state45=None):
    # state45, when given, is the state of the rotated45 record
    frames = (("natural", state), ("rotated45", state if state45 is None else state45))
    recs = [
        measurement.sample_coincidences(s, measurement.ExperimentConfig(
            total_pairs=10**6, basis=basis, noise="sampled", seed=seed + k))
        for k, (basis, s) in enumerate(frames)
    ]
    return reconstruct.merge_estimates(
        *(reconstruct.magnitudes_from_record(r) for r in recs))


def test_sampled_real_records_reconstruct():
    # criterion 9's bound on |dC|, for states whose equations sit at double
    # roots; an earlier grid search took up to 110 s on the first of them
    q = qutrit.make_qutrit(0.1623, -0.3346, -0.9283)
    c_true = qutrit.quantify(q).concurrence
    for seed in range(5):
        res = reconstruct.qutrit_phases(sampled_estimate(q, 10 * seed))
        assert min(abs(qutrit.quantify(s).concurrence - c_true)
                   for s in res.solutions()) <= 0.05
    for seed, c in enumerate(real_states(10, 4, 7)):
        s = ququart.make_ququart(*c)
        ci_true = ququart.quantify(s).i_concurrence
        res = reconstruct.ququart_phases(sampled_estimate(s, 10 * seed))
        assert min(abs(ququart.quantify(sol).i_concurrence - ci_true)
                   for sol in res.solutions()) <= 0.05


def circle_gap(m, rhs, u, v):
    _, _, (c, s), det = reconstruct._w_system(m, rhs, u, v)
    return c * c + s * s - det * det


def bisect_sign_changes(g, t):
    # every sign change of g between neighbouring finite grid points,
    # bisected to rounding
    gt = g(t)
    cross = np.flatnonzero(np.isfinite(gt[:-1]) & np.isfinite(gt[1:]) & (gt[:-1] * gt[1:] <= 0.0))
    lo, hi, g_lo = t[cross], t[cross + 1], gt[cross]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        left = g_lo * g_mid <= 0.0
        hi, lo, g_lo = np.where(left, mid, hi), np.where(left, lo, mid), np.where(left, g_lo, g_mid)
    return 0.5 * (lo + hi)


def curve_scan_estimates():
    """The dense scan's records: 50 Haar ququarts (seed 8), ideal and sampled,
    then ideal records of two states whose curve roots crowd."""
    gen = np.random.default_rng(8)
    for i in range(50):
        s = ququart.make_ququart(*(gen.normal(size=4) + 1j * gen.normal(size=4)))
        yield ideal_estimate(s)
        yield sampled_estimate(s, 2 * i)
    for amps in (criterion_8_ququart(71), nth_draw(7, 106, haar_draw)):
        yield ideal_estimate(ququart.make_ququart(*amps))


def curve_gap_harmonics(m, rhs, free, n):
    # the FFT of n samples of H(t), the circle gap times its mirror in d,
    # with d complex off the real branches; t is the phase difference of
    # the free slot, as _curve_harmonics takes it
    coef = (m[0] * m[1], m[2] * m[3])
    t = np.arange(n) * (2 * math.pi / n)
    d = np.arccos((rhs[1] - coef[free] * np.cos(t)) / coef[1 - free] + 0j)
    uv = (t, d) if free == 0 else (d, t)
    uv_mirror = (t, -d) if free == 0 else (-d, t)
    return np.fft.fft((circle_gap(m, rhs, *uv) * circle_gap(m, rhs, *uv_mirror)).real)


def dense_scan_distances(est):
    """The (u, v) distance from each crossing of the dense scan to the
    nearest returned curve root.

    Oracle: walk both real branches v = +-acos((N2 - m1 m2 cos u) / (m3 m4))
    of e2 on a fine grid in u and bisect each sign change of the circle gap
    itself; every crossing must be a returned (u, v).
    """
    m, n = est.magnitudes, est.magnitudes45
    rhs = n[0] ** 2 + n[1:] ** 2 - 0.5
    u_grid = np.linspace(-math.pi, math.pi, 4097)

    def cos_v(u):
        return (rhs[1] - m[0] * m[1] * np.cos(u)) / (m[2] * m[3])

    u_root, v_root = reconstruct._curve_roots(m, rhs)
    out = []
    for sign in (1.0, -1.0):
        def gap(u):
            x = cos_v(u)
            return np.where(np.abs(x) <= 1.0, circle_gap(
                m, rhs, u, sign * np.arccos(np.clip(x, -1.0, 1.0))), np.nan)

        for u in bisect_sign_changes(gap, u_grid):
            v = sign * np.arccos(np.clip(cos_v(u), -1.0, 1.0))
            out.append(float(np.min(np.maximum(np.abs(reconstruct._wrap(u_root - u)),
                                               np.abs(reconstruct._wrap(v_root - v))))))
    return out


def test_curve_roots_match_a_dense_scan():
    worst, crossings, worst_harmonic, worst_sine = 0.0, 0, 0.0, 0.0
    for est in curve_scan_estimates():
        m, n = est.magnitudes, est.magnitudes45
        # the gap times its mirror in v is a trigonometric polynomial of
        # degree 4 in u, and an even one: a cosine series
        harm = curve_gap_harmonics(m, n[0] ** 2 + n[1:] ** 2 - 0.5, 0, 64)
        worst_harmonic = max(worst_harmonic, np.abs(harm[5:33]).max() / np.abs(harm).max())
        worst_sine = max(worst_sine, np.abs(harm.imag).max() / np.abs(harm).max())
        dist = dense_scan_distances(est)
        worst, crossings = max([worst, *dist]), crossings + len(dist)
    assert crossings >= 200
    assert worst <= 1e-6
    assert worst_harmonic <= 1e-11
    assert worst_sine <= 1e-11


def test_curve_roots_of_a_triple_cluster_match_the_scan_to_its_conditioning():
    # Haar draw 111 of default_rng(6): at each sign of t three roots of H lie
    # within 0.006 rad (u near +-0.39, v within 0.05 of 0, where d and -d
    # nearly meet), so a rounding of H moves them by about its cube root.
    # They come within 5.1e-5 rad of the scan's crossings (8.5e-5 for the
    # 16-sample FFT form); the other states of the scan come within 1e-6
    est = ideal_estimate(ququart.make_ququart(*nth_draw(6, 111, haar_draw)))
    dist = dense_scan_distances(est)
    assert len(dist) == 6
    assert max(dist) <= 1e-4


def test_curve_harmonics_from_five_samples_equal_the_fft_of_64():
    # the cosine series from five real samples against the FFT of 64 complex
    # ones (divided by 64, the coefficients of z^4 H(z)), on the dense
    # scan's records; both slots are the free one somewhere in the set
    worst, frees = 0.0, set()
    for est in curve_scan_estimates():
        m, n = est.magnitudes, est.magnitudes45
        rhs = reconstruct._frame_terms("ququart", m, n)[3]
        free, _, _, h = reconstruct._curve_harmonics(m, rhs)
        want = curve_gap_harmonics(m, rhs, free, 64)[np.arange(4, -5, -1)] / 64
        worst = max(worst, np.abs(h - want).max() / np.abs(want).max())
        frees.add(free)
    assert frees == {0, 1}
    assert worst <= 1e-11


# ---------------------------------------------------------------------------
# the polish: each candidate row stops on its own step

_MAKE_SOLVE = {"qutrit": (qutrit.make_qutrit, reconstruct.qutrit_phases),
               "ququart": (ququart.make_ququart, reconstruct.ququart_phases)}


def solve_partial(kind, est):
    try:
        return _MAKE_SOLVE[kind][1](est)
    except reconstruct.PhaseUnobservable as err:
        return err.result


def record_polish_calls(monkeypatch):
    """(fun, starting rows, polished rows, newton) of every _polish call, in order."""
    calls, polish = [], reconstruct._polish

    def spy(fun, x, newton=False):
        out = polish(fun, x, newton)
        calls.append((fun, np.array(x, dtype=float), out, newton))
        return out

    monkeypatch.setattr(reconstruct, "_polish", spy)
    return calls


def count_batches(fun, sizes):
    def counted(x, *second):
        sizes.append(len(x))
        return fun(x, *second)

    return counted


_GENERIC_QUQUART = (0.6 + 0.2j, 0.3 - 0.4j, -0.5 + 0.3j, 0.1 + 0.35j)
_ALL_FREE = np.eye(4)[:3] - np.eye(4)[3]


def test_polish_batch_shrinks_as_rows_converge():
    # every candidate row of a sampled record, polished as one batch
    # (40 -> 18 over 61 batches)
    est = sampled_estimate(ququart.make_ququart(*_GENERIC_QUQUART), 0)
    m, n = est.magnitudes, est.magnitudes45
    terms = reconstruct._frame_terms("ququart", m, n)
    sizes = []
    reconstruct._polish(count_batches(reconstruct._cosine_system(*terms, _ALL_FREE), sizes),
                        reconstruct._ququart_candidates(m, terms[3], [0, 1, 2, 3]))
    assert sizes[0] == 40
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < sizes[0]


def starting_rms(est):
    m, n = est.magnitudes, est.magnitudes45
    x0 = reconstruct._ququart_candidates(m, reconstruct._frame_terms("ququart", m, n)[3],
                                         [0, 1, 2, 3])
    return x0, reconstruct._rms(reconstruct.ququart_phase_equations(m, n, list((x0 @ _ALL_FREE).T)))


def same_sets_up_to_global_phase(a, b, tol=1e-12):
    return len(a) == len(b) and all(
        sum(1.0 - abs(np.vdot(x, y)) <= tol for y in b) == 1 for x in a)


def test_ideal_ququart_polishes_only_rows_that_start_near_a_root(monkeypatch):
    calls = record_polish_calls(monkeypatch)
    est = ideal_estimate(ququart.make_ququart(*_GENERIC_QUQUART))
    x0, rms = starting_rms(est)
    res = reconstruct.ququart_phases(est)
    (_, polished, _, _), = calls
    assert rms.min() < reconstruct.ROOT_START_RMS
    near = rms < reconstruct.NEAR_ROOT_RMS
    assert near.sum() < len(x0)
    assert np.array_equal(polished, x0[near])

    # pushed off their roots, no row starts at one, so every row is
    # polished, and they reach the same solutions
    candidates = reconstruct._ququart_candidates
    monkeypatch.setattr(reconstruct, "_ququart_candidates",
                        lambda *args: candidates(*args) + 1e-3)
    assert (starting_rms(est)[1] >= reconstruct.ROOT_START_RMS).all()
    pushed = reconstruct.ququart_phases(est)
    assert len(calls[-1][1]) == len(x0)
    assert same_sets_up_to_global_phase([s.amplitudes for s in res.solutions()],
                                        [s.amplitudes for s in pushed.solutions()])


def keep_band_floor(est):
    # what _keep_threshold(0.0, noise_scale) returns
    return 1e-6 + 10.0 * est.noise_scale


def test_sampled_ququart_polishes_only_rows_that_start_within_the_keep_band(monkeypatch):
    calls = record_polish_calls(monkeypatch)
    est = sampled_estimate(ququart.make_ququart(*_GENERIC_QUQUART), 0)
    x0, rms = starting_rms(est)
    reconstruct.ququart_phases(est)
    (_, polished, _, _), = calls
    inside = rms < keep_band_floor(est)
    assert 0 < inside.sum() < len(x0)
    assert np.array_equal(polished, x0[inside])


def test_sampled_ququart_polishes_every_row_when_none_starts_within_the_band(monkeypatch):
    # natural and rotated45 records of two different Haar states; no row
    # starts within the band, yet the best row fits below the ceiling
    first, second = (nth_draw(seed, 0, lambda gen: gen.normal(size=4) + 1j * gen.normal(size=4))
                     for seed in (102, 1102))
    est = sampled_estimate(ququart.make_ququart(*first), 19, ququart.make_ququart(*second))
    calls = record_polish_calls(monkeypatch)
    x0, rms = starting_rms(est)
    res = reconstruct.ququart_phases(est)
    (_, polished, _, _), = calls
    assert rms.min() >= keep_band_floor(est)
    assert len(x0) == 40
    assert np.array_equal(polished, x0)
    assert keep_band_floor(est) < res.residual <= reconstruct.RESIDUAL_CEILING


def test_sampled_ququart_with_a_pinned_amplitude_drops_its_far_seeds(monkeypatch):
    # C4 lies below the sampled zero threshold but is not zero; of the 16
    # seeds (s, -s, 0, pi per phase difference), only the two of +-acos in
    # both differences start within the band, and every 0 or pi seed is dropped
    calls = record_polish_calls(monkeypatch)
    est = sampled_estimate(ququart.make_ququart(0.5, 0.3 + 0.4j, 0.1 - 0.5j, 0.001), 13)
    with pytest.raises(reconstruct.PhaseUnobservable):
        reconstruct.ququart_phases(est)
    (_, polished, _, _), = calls
    m, n = est.magnitudes, est.magnitudes45
    assert m[3] > 0.0 and reconstruct._zero_threshold(est) > m[3]
    x0 = reconstruct._ququart_candidates(m, reconstruct._frame_terms("ququart", m, n)[3],
                                         [0, 1, 2])
    p = x0 @ (np.eye(4)[:2] - np.eye(4)[2])
    rms = reconstruct._rms(reconstruct.ququart_phase_equations(m, n, list(p.T)))
    inside = rms < keep_band_floor(est)
    assert np.array_equal(polished, x0[inside])
    # the rows run over (s, -s, 0, pi) for C2, and within each for C3
    at_0_or_pi = np.array([max(i, j) >= 2 for i, j in itertools.product(range(4), repeat=2)])
    assert inside.sum() == 2 and not inside[at_0_or_pi].any()


def solve_every_row(monkeypatch, est):
    # no row is dropped: not by its starting rms, nor beside a real root
    with monkeypatch.context() as patch:
        patch.setattr(reconstruct, "ROOT_START_RMS", np.inf)
        patch.setattr(reconstruct, "NEAR_ROOT_RMS", np.inf)
        patch.setattr(reconstruct, "TANGENCY_RADIUS", 0.0)
        return reconstruct.ququart_phases(est)


def criterion_8_ququart(index):
    gen = np.random.default_rng(809)
    c = gen.normal(size=(500, 4)) + 1j * gen.normal(size=(500, 4))
    return c[index]


@pytest.mark.parametrize("amps", [
    # crowded curve roots: the only rows of one root pair start at rms 4.2e-8,
    # beside rows of other roots at 1e-12
    criterion_8_ququart(71),
    # near-degenerate (draw 1782 of default_rng(20), rounded): no row starts
    # below 2.9e-6, and the rows of one root pair start above 1e-5
    (-0.381 - 0.281j, 0.508 + 0.392j, 0.289 + 0.269j, -0.346 - 0.297j),
], ids=["crowded-roots", "no-row-at-a-root"])
def test_ideal_ququart_keeps_roots_whose_rows_start_off_them(monkeypatch, amps):
    est = ideal_estimate(ququart.make_ququart(*amps))
    every = [s.amplitudes for s in solve_every_row(monkeypatch, est).solutions()]
    got = [s.amplitudes for s in reconstruct.ququart_phases(est).solutions()]
    assert len(every) == 8
    assert same_sets_up_to_global_phase(got, every)


def nth_draw(seed, index, draw):
    gen = np.random.default_rng(seed)
    for _ in range(index):
        draw(gen)
    return draw(gen)


def haar_draw(gen):
    return gen.normal(size=4) + 1j * gen.normal(size=4)


def real_draw(gen):
    # drawn again unless every |C| >= 0.1
    while True:
        c = gen.normal(size=4)
        c /= np.linalg.norm(c)
        if np.abs(c).min() >= 0.1:
            return c


def solution_rms(est, res):
    return [float(reconstruct._rms(reconstruct.ququart_phase_equations(
        est.magnitudes, est.magnitudes45, list(np.angle(s.amplitudes)))))
        for s in res.solutions()]


def test_ideal_ququart_prints_its_exact_roots_only():
    # the full polish left rows of this state stuck at rms 4.6e-7 to 7.8e-7
    # and printed them first, beside its 4 exact roots
    c = nth_draw(5, 267, lambda gen: gen.normal(size=4) + 1j * gen.normal(size=4))
    est = ideal_estimate(ququart.make_ququart(*c))
    res = reconstruct.ququart_phases(est)
    sols = [s.amplitudes for s in res.solutions()]
    assert len(sols) == 4
    assert max(solution_rms(est, res)) <= 1e-12
    # pairwise distinct
    assert same_sets_up_to_global_phase(sols, sols, 1e-8)
    assert truth_overlap(res, c / np.linalg.norm(c)) >= 1 - 1e-12


def test_ideal_real_ququart_prints_no_near_copies():
    # the full polish printed two near-copies at rms 3.8e-9 beside the root
    c = nth_draw(13, 10, real_draw)
    est = ideal_estimate(ququart.make_ququart(*c))
    res = reconstruct.ququart_phases(est)
    assert len(res.solutions()) == 1
    assert max(solution_rms(est, res)) <= 1e-12
    assert truth_overlap(res, c) >= 1 - 1e-12


def uvw(x0):
    # (p1 - p2, p3 - p4, p1 - p3) of zero-sum rows (p1, p2, p3)
    p1, p2, p3 = x0.T
    return p1 - p2, p1 + p2 + 2.0 * p3, p1 - p3


def test_ideal_real_ququart_polishes_only_its_real_critical_rows(monkeypatch):
    # the ring of curve-root rows around the real critical point walked back
    # to the root that point's rows hold exactly: 22 rows over 43 evaluations
    c = nth_draw(13, 10, real_draw)
    est = ideal_estimate(ququart.make_ququart(*c))
    x0, rms = starting_rms(est)
    sizes, polish = [], reconstruct._polish
    monkeypatch.setattr(reconstruct, "_polish",
                        lambda fun, x, newton: polish(count_batches(fun, sizes), x, newton))
    calls = record_polish_calls(monkeypatch)
    res = reconstruct.ququart_phases(est)
    (_, polished, _, _), = calls
    # both signs of w at the one critical point (u, v) in {0, pi}^2 whose
    # real w starts at the root to rounding; another critical point with w
    # in {0, pi} is no root
    u, v, w = uvw(x0)
    real = (np.hypot(np.sin(u), np.sin(v)) <= 1e-15) & (np.abs(np.sin(w)) < 1e-6)
    assert real.sum() == 4
    assert np.array_equal(polished, x0[real & (rms <= 1e-15)])
    assert len(polished) == 2
    assert len(sizes) <= 2
    assert len(res.solutions()) == 1
    assert truth_overlap(res, c) >= 1 - 1e-15


def test_ideal_real_ququarts_print_their_truth_to_rounding():
    # polished, the rows of the ring around the real root walked back toward
    # it and stopped short: 8 of these 300 missed the truth by 1.2e-14 to
    # 3.9e-13
    worst = 0.0
    for c in real_states(300, 4, 13):
        res = reconstruct.ququart_phases(ideal_estimate(ququart.make_ququart(*c)))
        worst = max(worst, 1.0 - truth_overlap(res, c))
    assert worst <= 1e-14


@pytest.mark.parametrize("amps", [
    # C1 and C2 share one phase and C3 and C4 another, so a critical row
    # holds a root, with w off 0 and pi: here 1.4e-9 off it in rms, 0.03 off
    # real in w; the rows beside it hold the other exact roots.  Dropping
    # them whenever a critical row starts below ROOT_START_RMS printed 2
    (-0.19, -0.87, 0.28987 - 0.0087j, -0.34984 + 0.0105j),
    # the critical row holds its root to rounding, with w 0.93 off real;
    # dropping its neighbours without the realness condition printed 2
    (0.3, -0.2, 0.3 + 0.4j, 0.36 + 0.48j),
], ids=["critical-row-near-its-root", "critical-row-at-its-root"])
def test_block_phase_ququart_keeps_the_roots_of_every_row(monkeypatch, amps):
    est = ideal_estimate(ququart.make_ququart(*amps))
    with monkeypatch.context() as patch:
        patch.setattr(reconstruct, "TANGENCY_RADIUS", 0.0)
        want = [s.amplitudes for s in reconstruct.ququart_phases(est).solutions()]
    got = [s.amplitudes for s in reconstruct.ququart_phases(est).solutions()]
    assert len(want) == 6
    assert same_sets_up_to_global_phase(got, want)


def test_near_real_ququart_keeps_the_roots_of_every_row(monkeypatch):
    # phases within 3e-4 of 0 or pi: a critical row starts within 1e-8 in
    # rms of a root, but not at one to rounding, and its polish stalls at
    # rms 5e-9.  The exact roots come from the curve-root rows around it
    c = (0.75317424 - 4.51098e-07j, 0.18470307, -0.43693155 + 1.12166949e-04j,
         0.45574571 + 5.17387737e-06j)
    est = ideal_estimate(ququart.make_ququart(*c))
    every = solve_every_row(monkeypatch, est)
    res = reconstruct.ququart_phases(est)
    assert len(every.solutions()) == 4
    assert same_sets_up_to_global_phase([s.amplitudes for s in res.solutions()],
                                        [s.amplitudes for s in every.solutions()])
    assert max(solution_rms(est, res)) <= 1e-12


def test_real_qutrit_rows_stop_at_the_cost_floor(monkeypatch):
    # acos near -1 or 1 leaves these rows about 1e-8 off a double root, where
    # a step only halves the offset; the residual is rounding noise after
    # the first step.  Without the floor they walked on and through rejected
    # steps for 18 evaluations
    c = real_states(15, 3, 13)[14]
    sizes, polish = [], reconstruct._polish
    monkeypatch.setattr(reconstruct, "_polish",
                        lambda fun, x, newton: polish(count_batches(fun, sizes), x, newton))
    res = reconstruct.qutrit_phases(ideal_estimate(qutrit.make_qutrit(*c)))
    assert sizes == [4, 4]
    assert truth_overlap(res, c) >= 1 - 1e-12


@pytest.mark.parametrize("kind", ["qutrit", "ququart"])
def test_converged_rows_match_the_same_row_polished_alone(monkeypatch, kind):
    polish = reconstruct._polish
    calls = record_polish_calls(monkeypatch)
    gen = np.random.default_rng(31)
    dim = 3 if kind == "qutrit" else 4
    for i in range(10):
        s = _MAKE_SOLVE[kind][0](*(gen.normal(size=dim) + 1j * gen.normal(size=dim)))
        for est in (ideal_estimate(s), sampled_estimate(s, 2 * i)):
            solve_partial(kind, est)
    # sampled records of real amplitudes leave minima of nonzero residual
    # beside their double roots, and rows run on past the Newton switch
    for i, c in enumerate(real_states(3, dim, 13)):
        solve_partial(kind, sampled_estimate(_MAKE_SOLVE[kind][0](*c), 2 * i))
    worst, rows, switched = 0.0, 0, 0
    total = sum(len(x0) for _, x0, _, _ in calls)
    for fun, x0, out, newton in calls:
        for start, got in zip(x0, out):
            calls_alone = []

            def counted(x, *second):
                calls_alone.append(bool(second))
                return fun(x, *second)

            alone = polish(counted, start[None], newton)[0]
            # one evaluation at the start, one per step taken and one at the
            # switch to Newton steps: a row still moving at POLISH_STEPS is
            # exempt
            newton_steps = calls_alone.count(True)
            if len(calls_alone) - 1 - (newton_steps > 0) < reconstruct.POLISH_STEPS:
                worst = max(worst, float(np.max(np.abs(reconstruct._wrap(got - alone)))))
                rows += 1
                switched += newton_steps > 0
    # 92 of 92 qutrit rows and 228 of 228 ququart rows stop on their own,
    # 8 and 80 of them after the switch
    assert rows >= 0.9 * total
    assert switched >= 1
    assert worst <= 1e-12


@pytest.mark.parametrize("kind, amps, free", [
    # one present amplitude: no free phase
    ("ququart", (1, 0, 0, 0), 0),
    # C2 below the threshold: the tie phi3 = -phi1
    ("qutrit", (0.6, 0, 0.48 + 0.64j), 1),
    ("qutrit", (0.5, 0.5 + 0.5j, 0.5), 2),
    ("ququart", (0.5, 0, 0.3 + 0.4j, 0.2 - 0.6j), 2),
    ("ququart", (0.6 + 0.2j, 0.3 - 0.4j, -0.5 + 0.3j, 0.1 + 0.35j), 3),
    # real amplitudes: double roots, where J^T J is singular
    ("ququart", (0.45, 0.35, -0.55, 0.6), 3),
], ids=["ququart-0", "qutrit-1", "qutrit-2", "ququart-2", "ququart-3", "ququart-3-real"])
def test_polish_is_finite_and_silent_for_every_free_phase_count(monkeypatch, kind, amps, free):
    # the stacked solve kernel returns NaN with a RuntimeWarning for a
    # singular matrix; the damping floors must keep every damped J^T J
    # regular.  Past NEWTON_AFTER steps, S of sampled records joins it and
    # can leave it indefinite or singular
    polish = reconstruct._polish
    calls = record_polish_calls(monkeypatch)
    s = _MAKE_SOLVE[kind][0](*amps)
    for est in (ideal_estimate(s), sampled_estimate(s, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = solve_partial(kind, est)
        assert all(np.isfinite(sol.amplitudes).all() for sol in res.solutions())
    assert {x0.shape[1] for _, x0, _, _ in calls} == {free}
    assert [newton for *_, newton in calls] == [False, True]
    assert all(np.isfinite(out).all() for _, _, out, _ in calls)
    # the sampled record's system from 40 starts spread over the torus, so
    # rows run past the switch; with no free phase there is no step to take
    sizes = []
    x0 = np.random.default_rng(5).uniform(-math.pi, math.pi, size=(40, free))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = polish(count_batches(calls[-1][0], sizes), x0, True)
    assert np.isfinite(out).all()
    assert len(sizes) > reconstruct.NEWTON_AFTER + 2 if free else sizes == [40]


def test_newton_step_needs_a_positive_definite_matrix():
    # where S leaves the damped matrix indefinite or singular, _step takes
    # the Gauss-Newton step bit for bit, with no warning; elsewhere it solves
    # with S added
    est = sampled_estimate(ququart.make_ququart(0.45, 0.35, -0.55, 0.6), 1)
    fun = reconstruct._cosine_system(
        *reconstruct._frame_terms("ququart", est.magnitudes, est.magnitudes45), _ALL_FREE)
    # away from the fit: 11 of these 12 damped matrices are indefinite with S
    x = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(12, 3))
    rj, s = fun(x, True)
    gram, eye, damping = reconstruct._gram(rj), np.eye(3), np.full(12, 1e-3)
    damped = gram[:, 1:, 1:] + (damping * np.trace(gram[:, 1:, 1:], axis1=1, axis2=2)
                                + 1e-30)[:, None, None] * eye
    indefinite = -s - 10.0 * damped
    # J = 0 leaves the damped matrix at the 1e-30 floor, which this S cancels
    zero = np.zeros((1, 4, 4))
    zero[0, 0, 0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        newton = reconstruct._step(gram, damping, eye, s)
        want = [np.linalg.solve(damped[i] + s[i], gram[i, 1:, 0]) if
                np.linalg.eigvalsh(damped[i] + s[i])[0] > 0 else None for i in range(12)]
        gauss = reconstruct._step(gram, damping, eye)
        assert same_bits(reconstruct._step(gram, damping, eye, indefinite), gauss)
        assert same_bits(reconstruct._step(zero, 1e-3, eye, -1e-30 * eye[None]),
                         reconstruct._step(zero, 1e-3, eye))
    assert any(w is not None for w in want) and any(w is None for w in want)
    for got, w, g in zip(newton, want, gauss):
        assert np.allclose(got, w, rtol=1e-9, atol=1e-15) if w is not None else same_bits(got, g)


def test_sampled_real_ququart_prints_no_maximum_of_the_cost():
    # at a real critical point J = 0, and there the cost can have a local
    # maximum below a row's cost: with S added whether or not the damped
    # matrix was positive definite, a Newton step landed on one, and the row
    # stopped there and printed it (rms 4.3e-4)
    c = nth_draw(33, 2, real_draw)
    est = sampled_estimate(ququart.make_ququart(*c), 5)
    res = reconstruct.ququart_phases(est)
    fun = reconstruct._cosine_system(
        *reconstruct._frame_terms("ququart", est.magnitudes, est.magnitudes45), _ALL_FREE)
    for sol in res.solutions():
        phases = np.angle(sol.amplitudes)
        rj, s = fun((phases - phases.mean())[None, :3], True)
        hessian = rj[0, :, 1:].T @ rj[0, :, 1:] + s[0]
        assert np.linalg.eigvalsh(hessian)[-1] > 0


def criterion_9_ququart_estimate(index):
    # the ququart analogue of criterion 9: Haar draws of default_rng(919),
    # records of draw i sampled with seeds i and i + 100000
    c = nth_draw(919, index, lambda gen: gen.normal(size=4) + 1j * gen.normal(size=4))
    state = ququart.make_ququart(*c)
    recs = [measurement.sample_coincidences(state, measurement.ExperimentConfig(
        total_pairs=10**6, basis=basis, noise="sampled", seed=index + offset))
        for basis, offset in (("natural", 0), ("rotated45", 100_000))]
    return reconstruct.merge_estimates(*(reconstruct.magnitudes_from_record(r) for r in recs))


def test_sampled_ququart_band_rows_stop_with_newton_steps(monkeypatch):
    # the two rows of a noise-level minimum (rms 7.3e-3) walked a flat valley
    # with Gauss-Newton steps for all POLISH_STEPS steps and stopped at rms
    # 0.007278851731649846 and 0.007278851731649873; with Newton steps past
    # the switch every row stops within 15 steps
    est = criterion_9_ququart_estimate(92)
    sizes, second, polish = [], [], reconstruct._polish

    def counted(fun):
        def evaluate(x, *flag):
            sizes.append(len(x))
            second.append(bool(flag))
            return fun(x, *flag)
        return evaluate

    monkeypatch.setattr(reconstruct, "_polish",
                        lambda fun, x, newton: polish(counted(fun), x, newton))
    res = reconstruct.ququart_phases(est)
    # one evaluation at the start, one per step, one at the switch
    assert any(second)
    assert len(sizes) - 2 < reconstruct.POLISH_STEPS
    rms = solution_rms(est, res)
    assert sum(r <= 1e-12 for r in rms) == 4
    band = [r for r in rms if r > 1e-12]
    # a flat minimum: rms is settled by rounding, so allow a few ulp
    assert len(band) == 2 and max(band) <= 0.007278851731649873 * (1 + 1e-12)


def test_polish_leaves_rows_where_the_jacobian_vanishes():
    # all coefficients zero: J = 0, so only the 1e-30 floor keeps the damped
    # J^T J regular, and J^T r = 0 stops every row before its first step
    m = n = np.full(4, 0.5)
    _, forms, eq, rhs = reconstruct._frame_terms("ququart", m, n)
    fun = reconstruct._cosine_system(np.zeros(len(forms)), forms, eq, rhs + 0.1,
                                     np.eye(4)[:3] - np.eye(4)[3])
    x0 = np.random.default_rng(4).uniform(-math.pi, math.pi, size=(5, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(reconstruct._polish(fun, x0), x0)


def reference_cosine_system(coef, forms, eq, rhs, basis):
    # _cosine_system as it was, building every part of to_rj on each call
    to_rj = np.zeros((2, len(coef), len(rhs), 1 + len(basis)))
    to_rj[0, ..., 0] = coef[:, None] * np.eye(len(rhs))[list(eq)]
    to_rj[1, ..., 1:] = -to_rj[0, ..., :1] * (forms @ basis.T)[:, None, :]
    to_rj, to_angle = to_rj.reshape(2 * len(coef), -1), forms.T
    offset = np.zeros(to_rj.shape[1])
    offset[::1 + len(basis)] = rhs

    def fun(x):
        theta = (x @ basis) @ to_angle
        rj = np.concatenate([np.cos(theta), np.sin(theta)], axis=1)[:, None] @ to_rj - offset
        return rj.reshape(len(x), len(rhs), 1 + len(basis))

    return fun


def solver_bases(kind):
    """Every basis the solver builds for a kind."""
    if kind == "qutrit":
        # both phases free, one, none, and the tie phi3 = -phi1 of C2 below
        # the threshold
        return list(reconstruct._QUTRIT_BASES.values()) + [np.array([[1.0, -1.0]])]
    return [np.eye(4)[list(active[:-1])] - np.eye(4)[active[-1]]
            for size in range(1, 5) for active in itertools.combinations(range(4), size)]


@pytest.mark.parametrize("kind, dim", [("qutrit", 3), ("ququart", 4)])
def test_cosine_system_equals_the_per_call_build_bit_for_bit(kind, dim):
    gen = np.random.default_rng(43)
    bases = solver_bases(kind)
    assert len(bases) == (5 if kind == "qutrit" else 15)
    for family in ["generic"] * 40 + ["zero"] * 10 + ["tiny"] * 10:
        m, n = unit_magnitudes(gen, dim, family), unit_magnitudes(gen, dim, family)
        coef, forms, eq, rhs = reconstruct._frame_terms(kind, m, n)
        # the C2-below-threshold fit drops C2's terms, leaving signed zeros;
        # with every coefficient and right-hand side zero, the sums are zeros
        # whose signs come from every slot
        cases = [(coef, rhs), (coef * 0.0, rhs * 0.0)]
        if kind == "qutrit":
            cases.append((coef * [1.0, 0.0, 0.0], rhs))
        for c, r in cases:
            for basis in bases:
                x = gen.uniform(-math.pi, math.pi, size=(6, len(basis)))
                # exact zeros of both signs reach the angles too
                x[0], x[1] = 0.0, -0.0
                got = reconstruct._cosine_system(c, forms, eq, r, basis)(x)
                want = reference_cosine_system(c, forms, eq, r, basis)(x)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_polish_returns_rows_unchanged_when_no_first_step_moves():
    # exact closed-form qutrit roots: the first step of every row is below
    # STEP_TOL, so the rows come back bit for bit after one evaluation
    gen = np.random.default_rng(47)
    polished = 0
    for i in range(60):
        c = gen.normal(size=3) + 1j * gen.normal(size=3)
        if i % 3 == 2:
            c[0] = 0.0
        est = ideal_estimate(qutrit.make_qutrit(*c))
        m, n = est.magnitudes, est.magnitudes45
        free = [0, 1] if c[0] else [1]
        basis = np.eye(2)[free]
        coef, forms, eq, rhs = terms = reconstruct._frame_terms("qutrit", m, n)
        x0 = reconstruct._qutrit_candidates(m, coef, rhs, free)
        fun = reconstruct._cosine_system(*terms, basis)
        rj = fun(x0)
        gram = rj.transpose(0, 2, 1) @ rj
        jtj = gram[:, 1:, 1:]
        shift = 1e-3 * np.trace(jtj, axis1=1, axis2=2) + 1e-30
        first = np.linalg.solve(jtj + shift[:, None, None] * np.eye(len(free)),
                                gram[:, 1:, :1])
        if np.max(np.abs(first)) >= 1e-3 * reconstruct.STEP_TOL:
            continue
        sizes = []
        out = reconstruct._polish(count_batches(fun, sizes), x0)
        assert sizes == [len(x0)]
        assert np.array_equal(out.view(np.int64), x0.view(np.int64))
        polished += 1
    assert polished >= 55


# ---------------------------------------------------------------------------
# the ququart candidate stage, against a copy of its first form

def reference_w_system(m, rhs, u, v):
    m1, m2, m3, m4 = m
    a11, a12 = m1 * m3 + m2 * m4 * np.cos(v - u), -m2 * m4 * np.sin(v - u)
    a21 = m1 * m4 * np.cos(v) + m2 * m3 * np.cos(u)
    a22 = m2 * m3 * np.sin(u) - m1 * m4 * np.sin(v)
    adj = (a22 * rhs[0] - a12 * rhs[2], a11 * rhs[2] - a21 * rhs[0])
    return (a11, a12), (a21, a22), adj, a11 * a22 - a12 * a21


def reference_acos(x):
    return np.arccos(np.clip(x, -1.0, 1.0))


def reference_curve_harmonics(m, rhs):
    # the first form of _curve_roots' polynomial, an independent reference
    # for the five-sample one: two gap passes of 16 complex samples and an
    # FFT, the coefficients of z^4 H(z) times 16
    coef = (m[0] * m[1], m[2] * m[3])
    free = int(coef[1] < coef[0])
    a, b = coef[free], coef[1 - free]

    def gap(t, d):
        u, v = (t, d) if free == 0 else (d, t)
        _, _, (c, s), det = reference_w_system(m, rhs, u, v)
        return c * c + s * s - det * det

    t = np.arange(16) * (2.0 * math.pi / 16)
    d = np.arccos((rhs[1] - a * np.cos(t)) / b + 0j)
    return free, a, b, np.fft.fft((gap(t, d) * gap(t, -d)).real)[np.arange(4, -5, -1)]


def reference_curve_roots(m, rhs):
    # _curve_roots as it was: the 16-sample polynomial, np.roots, tile
    free, a, b, h = reference_curve_harmonics(m, rhs)
    t = np.angle(np.roots(h)) if np.isfinite(h).all() else np.zeros(0)
    d = reference_acos((rhs[1] - a * np.cos(t)) / b)
    t, d = np.tile(t, 2), np.concatenate([d, -d])
    return (t, d) if free == 0 else (d, t)


def reference_ququart_candidates(m, rhs, active, curve_roots):
    # _ququart_candidates as it was, from the given curve roots (u, v): the
    # full _w_system, tile and stack
    if len(active) == 4:
        u, v = curve_roots
        u = np.concatenate([u, [0.0, 0.0, math.pi, math.pi]])
        v = np.concatenate([v, [0.0, math.pi, 0.0, math.pi]])
        row1, row3, _, _ = reference_w_system(m, rhs, u, v)
        first = np.hypot(*row1) >= np.hypot(*row3)
        a, b = np.where(first, row1[0], row3[0]), np.where(first, row1[1], row3[1])
        span = reference_acos(np.where(first, rhs[0], rhs[2])
                              / np.maximum(np.hypot(a, b), 1e-300))
        w = np.tile(np.arctan2(b, a), 2) + np.concatenate([span, -span])
        u, v = np.tile(u, 2), np.tile(v, 2)
        p1 = 0.25 * (u + v + 2.0 * w)
        return np.stack([p1, p1 - u, p1 - w], axis=-1)
    lead, rest = active[0], active[1:]
    equation = {(0, 2): 0, (1, 3): 0, (0, 1): 1, (2, 3): 1, (0, 3): 2, (1, 2): 2}
    span = [float(reference_acos(rhs[equation[lead, j]] / (m[lead] * m[j]))) for j in rest]
    phases = np.zeros((4 ** len(rest), 4))
    phases[:, rest] = list(itertools.product(*((s, -s, 0.0, math.pi) for s in span)))
    phases[:, active] -= phases[:, active].mean(axis=1, keepdims=True)
    return phases[:, active[:-1]]


def reference_tangent_rows(x0, start):
    # the curve-root rows within 0.1 rad in (u, v) of a real critical row:
    # one of the last 4 rows of each sign of w, whose w lies within 1e-6 of
    # 0 or pi and whose starting cost 3 rms^2 is at most 4e-30
    u, v, w = uvw(x0)
    half = len(x0) // 2
    critical = [i % half >= half - 4 for i in range(len(x0))]
    real = [i for i in range(len(x0))
            if critical[i] and abs(math.sin(w[i])) < 1e-6 and 3.0 * start[i] ** 2 <= 4e-30]
    return np.array([not critical[i] and any(
        math.hypot(np.angle(np.exp(1j * (u[i] - u[j]))), np.angle(np.exp(1j * (v[i] - v[j]))))
        < 0.1 for j in real) for i in range(len(x0))], dtype=bool)


def reference_polished_rows(est, active, x0):
    # the rows ququart_phases polished: when the best row starts at a root,
    # the rows near one, except, with all four amplitudes present, the rows
    # beside a real root that a critical row holds to rounding.  For
    # noise-free records both cuts are the two constants; for sampled
    # records both are the keep band's floor
    if est.noise_scale == 0.0:
        root, near = reconstruct.ROOT_START_RMS, reconstruct.NEAR_ROOT_RMS
    else:
        root = near = keep_band_floor(est)
    basis = np.eye(4)[active[:-1]] - np.eye(4)[active[-1]]
    p = list((x0 @ basis).T)
    start = reference_rms(reconstruct.ququart_phase_equations(
        est.magnitudes.tolist(), est.magnitudes45.tolist(), p))
    if start.min() >= root:
        return x0
    keep = start < near
    if len(active) == 4:
        keep &= ~reference_tangent_rows(x0, start)
    return x0[keep]


def reference_rms(eqs):
    return np.sqrt(sum(e * e for e in eqs) / len(eqs))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


def candidate_stage_cases():
    """(name, state amplitudes, sampled record seed or None)."""
    gen = np.random.default_rng(5)
    cases = []
    for i in range(30):
        c = gen.normal(size=4) + 1j * gen.normal(size=4)
        cases += [(f"haar-{i}", c, None), (f"haar-{i}-sampled", c, 2 * i)]
    cases += [(f"real-{i}", c, None) for i, c in enumerate(real_states(15, 4, 13))]
    cases += [(f"real-{i}-sampled", c, 40 + 2 * i) for i, c in enumerate(real_states(5, 4, 14))]
    cases += [
        ("crowded-roots", criterion_8_ququart(71), None),
        ("no-row-at-a-root", (-0.381 - 0.281j, 0.508 + 0.392j, 0.289 + 0.269j,
                              -0.346 - 0.297j), None),
        # equal magnitudes but for a phase or a last bit; the two curve
        # coefficients tie or swap by a rounding
        ("near-equal-phase", (1.0, 1.0, 1.0, -np.exp(1e-7j)), None),
        ("near-equal-phase-sampled", (1.0, 1.0, 1.0, -np.exp(1e-3j)), 7),
        ("near-tie", (0.5, 0.5, 0.5 + 1e-13, 0.5j), None),
        ("near-product", (1.0, 1e-3, 1e-3 + 1e-4j, 1e-6), None),
        # the continuum states: every (u, v) on a curve solves, and the
        # harmonics are rounding noise
        ("continuum-bell", (0.5, 0.5, 0.5, -0.5), None),
        ("continuum-real", (0.6, -0.3, 0.5, 0.2), None),
        ("continuum-real-sampled", (0.6, -0.3, 0.5, 0.2), 9),
    ]
    # every zero-amplitude branch: each set of present amplitudes, from
    # ideal and from sampled records, and one amplitude below the sampled
    # threshold but not zero
    for size in range(1, 4):
        for active in itertools.combinations(range(4), size):
            c = np.zeros(4, dtype=complex)
            c[list(active)] = gen.normal(size=size) + 1j * gen.normal(size=size)
            name = "present-" + "".join(str(i + 1) for i in active)
            cases += [(name, c, None), (name + "-sampled", c, 60 + size)]
    cases.append(("tiny-sampled", (0.6 + 0.1j, 0.5, 1e-4, -0.4 + 0.3j), 11))
    return cases


# the candidate-stage states whose curve roots are ill-posed.  Multiple
# roots, of real amplitudes and of near-degenerate states, move by a root
# of a rounding (the 8-fold roots of the real states by up to 0.01 rad);
# they are checked as roots of the reference polynomial.  Near the
# continua every harmonic is rounding noise, and so is every root
MULTIPLE_CURVE_ROOTS = {f"real-{i}" for i in range(15)} | {"no-row-at-a-root", "near-tie"}
NOISE_CURVE_ROOTS = {"near-equal-phase", "continuum-bell", "continuum-real"}


def assert_curve_roots_match_the_fft_form(name, m, rhs, curve_roots):
    if name in NOISE_CURVE_ROOTS:
        return
    (u, v), (u_ref, v_ref) = curve_roots, reference_curve_roots(m, rhs)
    assert len(u) == len(u_ref) == 16
    if name in MULTIPLE_CURVE_ROOTS:
        # backward error: each root z of the five-sample polynomial is a root
        # of the 16-sample one to rounding
        h = reference_curve_harmonics(m, rhs)[3]
        z = reconstruct._roots(reconstruct._curve_harmonics(m, rhs)[3])
        powers = np.abs(z)[:, None] ** np.arange(len(h) - 1, -1, -1)
        assert np.max(np.abs(np.polyval(h, z)) / (powers @ np.abs(h))) <= 1e-12
        return
    # each root of either set within the dense scan's 1e-6 rad of one of the
    # other, in u and in v
    dist = np.maximum(np.abs(reconstruct._wrap(u[:, None] - u_ref)),
                      np.abs(reconstruct._wrap(v[:, None] - v_ref)))
    assert max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= 1e-6


@pytest.mark.parametrize("name, amps, seed", candidate_stage_cases(),
                         ids=[case[0] for case in candidate_stage_cases()])
def test_ququart_candidate_stage_equals_its_first_form_bit_for_bit(monkeypatch, name, amps,
                                                                   seed):
    # the curve roots match the first form's to rounding; everything after
    # them is the first form's, bit for bit.  The root order follows the
    # eigenvalue kernel, so the reference is a copy of the first form run
    # on the same numpy, not pinned digests
    s = ququart.make_ququart(*amps)
    est = ideal_estimate(s) if seed is None else sampled_estimate(s, seed)
    m, n = est.magnitudes, est.magnitudes45
    rhs = reconstruct._frame_terms("ququart", m, n)[3]
    active = [i for i in range(4) if m[i] >= reconstruct._zero_threshold(est)]
    curve_roots = None
    if len(active) == 4:
        curve_roots = reconstruct._curve_roots(m, rhs)
        assert_curve_roots_match_the_fft_form(name, m, rhs, curve_roots)
    x0 = reconstruct._ququart_candidates(m, rhs, active)
    want = reference_ququart_candidates(m, rhs, active, curve_roots)
    assert same_bits(x0, want)
    calls = record_polish_calls(monkeypatch)
    try:
        reconstruct.ququart_phases(est)
    except reconstruct.PhaseUnobservable:
        pass
    (_, polished, _, _), = calls
    assert same_bits(polished, reference_polished_rows(est, active, want))


def roots_cases():
    gen = np.random.default_rng(61)
    cases = [gen.normal(size=9) + 1j * gen.normal(size=9) for _ in range(200)]
    # coefficients of very different sizes, as near-degenerate harmonics give
    cases += [(gen.normal(size=9) + 1j * gen.normal(size=9)) * 10.0 ** gen.uniform(-120, 120, 9)
              for _ in range(50)]
    zeros = [np.zeros(9, dtype=complex), np.zeros(1, dtype=complex)]
    trimmed = []
    for lead, trail in [(1, 0), (3, 0), (0, 1), (0, 4), (2, 2), (4, 4)]:
        p = gen.normal(size=9) + 1j * gen.normal(size=9)
        p[:lead] = 0.0
        p[len(p) - trail:] = 0.0
        trimmed.append(p)
    single = []
    for i in range(9):
        p = np.zeros(9, dtype=complex)
        p[i] = gen.normal() + 1j * gen.normal()
        single.append(p)
    return cases + zeros + trimmed + single + [np.array([2.0 - 1j]), np.array([0.0, 1.0, -3j])]


def real_roots_cases():
    # real coefficients take the kernel's real loop, and come back real
    # where every root is; _curve_roots' polynomials are palindromic
    gen = np.random.default_rng(65)
    cases = [gen.normal(size=9) for _ in range(200)]
    cases += [gen.normal(size=9) * 10.0 ** gen.uniform(-120, 120, 9) for _ in range(50)]
    for _ in range(50):
        half = gen.normal(size=5)
        cases.append(np.concatenate([half[:0:-1], half]))
    # all roots real, and all real but two
    cases += [np.poly(gen.normal(size=8)) for _ in range(20)]
    cases += [np.poly([*gen.normal(size=6), 1 + 2j, 1 - 2j]).real for _ in range(20)]
    for lead, trail in [(1, 0), (3, 0), (0, 1), (0, 4), (2, 2), (4, 4), (8, 0), (0, 8)]:
        p = gen.normal(size=9)
        p[:lead] = 0.0
        p[len(p) - trail:] = 0.0
        cases.append(p)
    return cases + [np.zeros(9), np.zeros(1), np.array([2.0]), np.array([0.0, 1.0, -3.0])]


def test_roots_equals_np_roots_bit_for_bit():
    for p in real_roots_cases():
        assert same_bits(reconstruct._roots(p), np.roots(p))
    for p in roots_cases():
        assert same_bits(reconstruct._roots(p), np.roots(p))


def test_roots_raises_what_np_roots_raises():
    # the companion overflows: np.roots' eigvals rejects the infinities
    p = np.array([1e-300, 1e300, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.roots(p)
        with pytest.raises(np.linalg.LinAlgError) as got:
            reconstruct._roots(p)
    assert str(got.value) == str(want.value)


def test_roots_raises_on_a_kernel_that_does_not_converge(monkeypatch):
    # the kernel flags non-convergence as an invalid value, which np.roots'
    # eigvals turns into LinAlgError
    def fails(a):
        return np.sqrt(-np.ones(len(a))).astype(complex)

    p = np.array([1.0, 2.0, 3.0], dtype=complex)
    monkeypatch.setattr(reconstruct, "_eigvals", fails)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        reconstruct._roots(p)


def test_acos_clips_as_np_clip_does_bit_for_bit():
    x = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
                  np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.5, 3.0, -7.0])
    x = np.concatenate([x, np.random.default_rng(62).normal(scale=2.0, size=1000)])
    assert same_bits(reconstruct._acos(x), np.arccos(np.clip(x, -1.0, 1.0)))


def test_acos1_gives_the_bits_of_acos():
    # finite input only, as documented: at NaN _acos1 returns pi, _acos NaN
    tiny = math.ulp(0.0)
    x = [0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
         math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0), 1.5, -1.5, 1e300,
         -1e300, math.inf, -math.inf, tiny, -tiny, 2 * tiny, -2 * tiny]
    x += np.random.default_rng(64).normal(scale=2.0, size=100_000).tolist()
    got = [reconstruct._acos1(v) for v in x]
    want = [float(reconstruct._acos(v)) for v in x]
    assert same_bits(got, want)


def test_ququart_rms_equals_the_public_equations_bit_for_bit():
    # the start filter and the printed residual both come from _ququart_rms
    gen = np.random.default_rng(63)
    for family in ["generic"] * 30 + ["zero"] * 10 + ["tiny"] * 10:
        m, n = unit_magnitudes(gen, 4, family), unit_magnitudes(gen, 4, family)
        coef, _, _, rhs = reconstruct._frame_terms("ququart", m, n)
        p = gen.uniform(-math.pi, math.pi, size=(40, 4))
        p[0], p[1] = 0.0, -0.0
        want = reference_rms(reconstruct.ququart_phase_equations(m.tolist(), n.tolist(),
                                                                 list(p.T)))
        assert same_bits(reconstruct._ququart_rms(coef, rhs, p), want)
