"""Acceptance suite: ten headline guarantees of the package, one test per
criterion, each printing a single pass/fail line (run with pytest -s to see
them).  Tolerances are fixed contracts, not tuning knobs."""

import json
import math
import time

import numpy as np

from biphoton import cli, measurement, ququart, qutrit, reconstruct, tensor


SQRT2 = math.sqrt(2.0)


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def random_qutrits(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_ququarts(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ideal_estimate(state):
    cfg_n = measurement.ExperimentConfig(total_pairs=10**6)
    cfg_r = measurement.ExperimentConfig(total_pairs=10**6, basis="rotated45")
    rec_n = measurement.expected_coincidences(state, cfg_n)
    rec_r = measurement.expected_coincidences(state, cfg_r)
    return reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(rec_n),
        reconstruct.magnitudes_from_record(rec_r),
    )


def best_match(solutions, truth):
    """Solution with the largest overlap with truth, allowing a global phase
    and the documented conjugate-mirror ambiguity; returns (solution, overlap)."""
    best, best_ov = None, -1.0
    for sol in solutions:
        a = np.asarray(sol.amplitudes)
        ov = max(abs(np.vdot(a, truth)), abs(np.vdot(np.conj(a), truth)))
        if ov > best_ov:
            best, best_ov = sol, ov
    return best, best_ov


def solve_qutrit(est):
    try:
        return reconstruct.qutrit_phases(est)
    except reconstruct.PhaseUnobservable as err:
        return err.result


def solve_ququart(est):
    try:
        return reconstruct.ququart_phases(est)
    except reconstruct.PhaseUnobservable as err:
        return err.result


# ---------------------------------------------------------------------------

def test_criterion_1_qutrit_oracle_equivalence():
    states = random_qutrits(10_000, seed=101)
    t0 = time.perf_counter()
    worst = 0.0
    for c1, c2, c3 in states:
        k_closed = 2.0 / (2.0 - abs(2 * c1 * c3 - c2**2) ** 2)
        psi = np.array([c1, c2 / SQRT2, c2 / SQRT2, c3])
        k_oracle = tensor.schmidt_number(psi, 2)
        worst = max(worst, abs(k_closed - k_oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, "qutrit closed-form K vs partial-trace oracle", ok,
           f"max |dK| {worst:.3g} over 10^4 states in {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_ququart_oracle_equivalence():
    states = random_ququarts(10_000, seed=202)
    t0 = time.perf_counter()
    worst = 0.0
    for c in states:
        k_closed = 2.0 / (1.0 - 2.0 * abs(c[0] * c[3] - c[1] * c[2]) ** 2)
        s = ququart.QuquartState(*c)
        k_oracle = tensor.schmidt_number(ququart.wavefunction(s), 4)
        worst = max(worst, abs(k_closed - k_oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, "ququart closed-form K vs 16-dim oracle", ok,
           f"max |dK| {worst:.3g} over 10^4 states in {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_identity_suite():
    qutrits = random_qutrits(10_000, seed=303)
    ququarts = random_ququarts(10_000, seed=304)
    worst_pol = worst_lam = worst_flip = worst_ci = 0.0
    for c in qutrits:
        q = qutrit.QutritState(*c)
        rep = qutrit.quantify(q)
        pol = qutrit.polarization(q)
        worst_pol = max(worst_pol,
                        abs(rep.concurrence**2 + pol.degree_p**2 - 1))
        vals, _ = tensor.hermitian_eig(qutrit.reduced_density(q))
        worst_lam = max(worst_lam, abs(rep.lambda_plus - vals[0]),
                        abs(rep.lambda_minus - vals[1]))
        worst_flip = max(worst_flip,
                         abs(qutrit.spin_flip_concurrence(q) - rep.concurrence))
    for c in ququarts:
        rep = ququart.quantify(ququart.QuquartState(*c))
        worst_ci = max(worst_ci, abs(
            rep.i_concurrence - math.sqrt(2 * (1 - 1 / rep.schmidt_k))))
    worst = max(worst_pol, worst_lam, worst_flip, worst_ci)
    ok = worst <= 1e-12
    report(3, "identity suite", ok,
           f"C^2+P^2 {worst_pol:.2g}, lambda closed form vs eig {worst_lam:.2g}, "
           f"spin-flip {worst_flip:.2g}, C_I relation {worst_ci:.2g}")
    assert ok


def test_criterion_4_paper_point_values():
    rep = qutrit.quantify(qutrit.make_qutrit(0, 1, 0))
    dev_hv = max(abs(rep.schmidt_k - 2), abs(rep.concurrence - 1),
                 abs(rep.entropy - 1))
    dev_max = 0.0
    for amps in ((1, 0, 0, 1), (1, 1, 1, -1)):
        rep4 = ququart.quantify(ququart.make_ququart(*amps))
        dev_max = max(dev_max, abs(rep4.schmidt_k - 4),
                      abs(rep4.i_concurrence - math.sqrt(1.5)))
    rng = np.random.default_rng(404)
    dev_min = 0.0
    for _ in range(100):
        a, b, x, y = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = ququart.make_ququart(a * x, a * y, b * x, b * y)
        rep4 = ququart.quantify(s)
        dev_min = max(dev_min, abs(rep4.schmidt_k - 2),
                      abs(rep4.i_concurrence - 1))
    worst = max(dev_hv, dev_max, dev_min)
    ok = worst <= 1e-12
    report(4, "point values", ok,
           f"Psi_HV {dev_hv:.2g}, maxima {dev_max:.2g}, "
           f"100 minimal states {dev_min:.2g}")
    assert ok


def test_criterion_5_figure_reproduction(capsys):
    # Fig 1 extrema, directly at the exact parameter values
    dev1 = 0.0
    for c_plus, k_want in ((1 / SQRT2, 1.0), (-1 / SQRT2, 1.0), (0.0, 2.0),
                           (1.0, 2.0), (-1.0, 2.0)):
        c2 = math.sqrt(max(0.0, 1 - c_plus**2))
        rep = qutrit.quantify(qutrit.from_bell(qutrit.BellCoefficients(c_plus, 0.0, c2)))
        dev1 = max(dev1, abs(rep.schmidt_k - k_want))
        if k_want == 2.0:
            dev1 = max(dev1, abs(rep.concurrence - 1), abs(rep.entropy - 1))
    # Fig 4 on a 100-point CSV grid
    code = cli.main(["sweep", "--family", "fig4", "--grid", "100"])
    out = capsys.readouterr().out
    assert code == 0
    dev4 = 0.0
    for line in out.strip().splitlines()[1:]:
        phi, k, _, s_r = (float(x) for x in line.split(","))
        dev4 = max(dev4, abs(k - 4 / (1 + math.cos(2 * phi) ** 2)))
        c2, s2 = math.cos(phi) ** 2, math.sin(phi) ** 2
        s_want = 1.0
        if c2 > 0:
            s_want -= c2 * math.log2(c2)
        if s2 > 0:
            s_want -= s2 * math.log2(s2)
        dev4 = max(dev4, abs(s_r - s_want))
    # Fig 5 asymmetry rows
    code = cli.main(["sweep", "--family", "fig5", "--grid", "5"])
    out5 = capsys.readouterr().out
    assert code == 0
    rows = [[float(x) for x in ln.split(",")] for ln in out5.strip().splitlines()[1:]]
    dev5 = max(abs(rows[1][1] - 2), abs(rows[3][1] - 4))
    worst = max(dev1, dev4, dev5)
    ok = worst <= 1e-12
    report(5, "figure reproduction", ok,
           f"fig1 extrema {dev1:.2g}, fig4 grid {dev4:.2g}, fig5 rows {dev5:.2g}")
    assert ok


def test_criterion_6_two_qubit_model_contrast(capsys):
    worst = 0.0
    for c in random_ququarts(1000, seed=606):
        s = ququart.QuquartState(*c)
        model = ququart.two_qubit_model(s)
        worst = max(worst, abs(
            ququart.quantify(s).schmidt_k - 2 * model.schmidt_k))
    code = cli.main(["compare-2qubit", "--kind", "ququart",
                     "--amplitudes", "[1,0,0,0]"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    dev_cli = max(abs(doc["two_qudit"]["schmidt_k"] - 2),
                  abs(doc["two_qubit_model"]["schmidt_k"] - 1))
    ok = worst <= 1e-12 and dev_cli <= 1e-12
    report(6, "two-qubit model contrast", ok,
           f"max |K - 2 K_2qb| {worst:.2g}, CLI point dev {dev_cli:.2g}")
    assert ok


def test_criterion_7_postselection_doubling():
    worst = 0.0
    for c in random_qutrits(1000, seed=707):
        q = qutrit.QutritState(*c)
        composite, _ = ququart.qutrit_to_ququart_postselect(q)
        k_oracle = tensor.schmidt_number(composite, 4)
        worst = max(worst, abs(k_oracle - 2 * qutrit.quantify(q).schmidt_k))
    ok = worst <= 1e-10
    report(7, "post-selection doubles K", ok,
           f"max |K_qqrt - 2 K_qtr| {worst:.3g} over 10^3 states (16-dim oracle)")
    assert ok


def test_criterion_8_ideal_tomography_round_trip():
    t0 = time.perf_counter()
    worst_c = worst_k = 0.0
    worst_overlap = 1.0
    for c in random_qutrits(500, seed=808):
        q = qutrit.QutritState(*c)
        res = solve_qutrit(ideal_estimate(q))
        sol, overlap = best_match(res.solutions(), np.asarray(q.amplitudes))
        worst_overlap = min(worst_overlap, overlap)
        rep_t, rep_s = qutrit.quantify(q), qutrit.quantify(sol)
        worst_c = max(worst_c, abs(rep_s.concurrence - rep_t.concurrence))
        worst_k = max(worst_k, abs(rep_s.schmidt_k - rep_t.schmidt_k))
    for c in random_ququarts(500, seed=809):
        s = ququart.QuquartState(*c)
        res = solve_ququart(ideal_estimate(s))
        sol, overlap = best_match(res.solutions(), np.asarray(s.amplitudes))
        worst_overlap = min(worst_overlap, overlap)
        rep_t, rep_s = ququart.quantify(s), ququart.quantify(sol)
        worst_c = max(worst_c, abs(rep_s.i_concurrence - rep_t.i_concurrence))
        worst_k = max(worst_k, abs(rep_s.schmidt_k - rep_t.schmidt_k))
    elapsed = time.perf_counter() - t0
    ok = worst_c <= 1e-6 and worst_k <= 1e-5 and worst_overlap >= 1 - 1e-9
    report(8, "ideal tomography round trip", ok,
           f"500+500 states: max |dC| {worst_c:.3g}, max |dK| {worst_k:.3g}, "
           f"min truth overlap {worst_overlap:.12f}, {elapsed:.1f} s")
    assert worst_overlap >= 1 - 1e-9, "no solution matches truth up to phase/mirror"
    assert worst_c <= 1e-6
    assert worst_k <= 1e-5


def test_criterion_9_noisy_tomography_round_trip():
    rng = np.random.default_rng(909)
    devs = []
    for seed in range(100):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        q = qutrit.make_qutrit(*v)
        cfg_n = measurement.ExperimentConfig(
            total_pairs=10**6, noise="sampled", seed=seed)
        cfg_r = measurement.ExperimentConfig(
            total_pairs=10**6, basis="rotated45", noise="sampled",
            seed=seed + 100_000)
        est = reconstruct.merge_estimates(
            reconstruct.magnitudes_from_record(
                measurement.sample_coincidences(q, cfg_n)),
            reconstruct.magnitudes_from_record(
                measurement.sample_coincidences(q, cfg_r)),
        )
        res = solve_qutrit(est)
        c_true = qutrit.quantify(q).concurrence
        devs.append(min(abs(qutrit.quantify(sol).concurrence - c_true)
                        for sol in res.solutions()))
    devs = np.array(devs)
    med, p95 = float(np.median(devs)), float(np.percentile(devs, 95))
    ok = med <= 0.02 and p95 <= 0.05
    report(9, "noisy tomography round trip", ok,
           f"N=10^6, 100 seeds: median |dC| {med:.4f}, 95th pct {p95:.4f}")
    assert med <= 0.02
    assert p95 <= 0.05


def test_criterion_10_real_coefficient_shortcuts():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        q = qutrit.make_qutrit(*rng.normal(size=3))
        k, c = reconstruct.qutrit_real_shortcut(ideal_estimate(q))
        rep = qutrit.quantify(q)
        worst = max(worst, abs(k - rep.schmidt_k), abs(c - rep.concurrence))
    for _ in range(1000):
        s = ququart.make_ququart(*rng.normal(size=4))
        k, ci = reconstruct.ququart_real_shortcut(ideal_estimate(s))
        rep = ququart.quantify(s)
        worst = max(worst, abs(k - rep.schmidt_k), abs(ci - rep.i_concurrence))
    ok = worst <= 1e-9
    report(10, "real-coefficient shortcuts", ok,
           f"max deviation {worst:.3g} over 10^3 qutrits + 10^3 ququarts")
    assert ok
