"""Correctness gates.  Each returns None when the output is right and a short
reason when it is not.  They run outside the timed region.
"""

import json
import math
import re

import numpy as np

from biphoton import measurement, qutrit, ququart, reconstruct, tensor

TRUTH_OVERLAP = 1.0 - 1e-9       # acceptance criterion 8
# Criterion 8 covers complex states.  Real amplitudes put the phase
# equations at a tangential double root, where the solver fixes a phase only
# to about the square root of its residual tolerance: in a scan of 160 real
# qutrits one missed criterion 8's bound, with overlap 1 - 4.3e-6 (60 real
# ququarts all met it).  Their solver output is held to the next power of
# ten above that worst case, so a solver that loses precision on them fails;
# their K and C must also meet criterion 10's shortcut, and the run record
# counts how many missed criterion 8's bound.
DOUBLE_ROOT_OVERLAP = 1.0 - 1e-5
SAMPLED_MEDIAN_MAX = 0.02        # acceptance criterion 9
SAMPLED_P95_MAX = 0.05
ORACLE_TOL = 1e-9
# lambda_pm = (1 +- sqrt(1 - C^2))/2 is ill-conditioned at C = 1: one ulp of
# C^2 moves lambda by sqrt(eps)/2 = 7.5e-9 (seen at |1H 1V>, where C = 1)
LAMBDA_TOL = 1e-7

_MODULE = {"qutrit": qutrit, "ququart": ququart}
_DIM = {"qutrit": 2, "ququart": 4}


def truth_overlap(solutions, truth):
    """Best overlap of truth with a solution or its conjugate mirror."""
    return max(
        max(abs(np.vdot(a, truth)), abs(np.vdot(np.conj(a), truth)))
        for a in solutions
    )


def truth_error(solutions, truth, min_overlap=TRUTH_OVERLAP):
    if not solutions:
        return "no solutions"
    ov = truth_overlap(solutions, truth)
    if ov < min_overlap:
        return f"truth not among the solutions (best overlap {ov:.12f})"
    return None


def reconstruct_output_error(stdout, truth):
    """The truth among the solutions printed by `biphoton reconstruct`."""
    doc = json.loads(stdout)
    sols = [np.array([complex(c["re"], c["im"]) for c in amps])
            for amps in [doc["amplitudes"]] + doc["alternates"]]
    return truth_error(sols, truth)


def entanglement(kind, amps):
    """C for a qutrit, C_I for a ququart, from the package's closed form."""
    mod = _MODULE[kind]
    state = (qutrit.make_qutrit if kind == "qutrit" else ququart.make_ququart)(*amps)
    rep = mod.quantify(state)
    return rep.concurrence if kind == "qutrit" else rep.i_concurrence


def real_shortcut_error(kind, est, truth):
    """Criterion 10: K and C (C_I) from the real-amplitude shortcut."""
    if kind == "qutrit":
        k, c = reconstruct.qutrit_real_shortcut(est)
        rep = qutrit.quantify(qutrit.make_qutrit(*truth))
        return (close_error(k, rep.schmidt_k, "shortcut K")
                or close_error(c, rep.concurrence, "shortcut C"))
    k, ci = reconstruct.ququart_real_shortcut(est)
    rep = ququart.quantify(ququart.make_ququart(*truth))
    return (close_error(k, rep.schmidt_k, "shortcut K")
            or close_error(ci, rep.i_concurrence, "shortcut C_I"))


def sampled_error(deviations):
    """Criterion 9 over a run: min |dC| per record pair, median and p95."""
    if not deviations:
        return None
    dev = np.asarray(deviations)
    med, p95 = float(np.median(dev)), float(np.percentile(dev, 95))
    if med > SAMPLED_MEDIAN_MAX or p95 > SAMPLED_P95_MAX:
        return f"sampled |dC| median {med:.4g}, p95 {p95:.4g} over {dev.size}"
    return None


def close_error(a, b, what, tol=ORACLE_TOL):
    if abs(a - b) > tol:
        return f"{what}: {a!r} vs oracle {b!r}"
    return None


def oracle(kind, state):
    """K and descending reduced eigenvalues from the dense tensor route."""
    mod = _MODULE[kind]
    d = _DIM[kind]
    psi = mod.wavefunction(state)
    rho_r = tensor.partial_trace(np.outer(psi, psi.conj()), d)
    lam, _ = tensor.hermitian_eig(rho_r)
    return tensor.schmidt_number(psi, d), lam, psi


def _schmidt_error(dec, lam, psi):
    kept = lam[lam >= tensor.SCHMIDT_WEIGHT_CUTOFF]
    if dec.lambdas.size != kept.size or np.max(np.abs(dec.lambdas - kept)) > ORACLE_TOL:
        return f"Schmidt weights {dec.lambdas} vs oracle {kept}"
    if not tensor.equal_up_to_global_phase(dec.reconstruct(), psi, ORACLE_TOL):
        return "Schmidt decomposition does not rebuild the state"
    return None


def qutrit_error(state, rep, pol, dec):
    k, lam, psi = oracle("qutrit", state)
    c_sq = 4.0 * lam[0] * lam[1]
    return (
        close_error(rep.schmidt_k, k, "K")
        or close_error(rep.concurrence ** 2, c_sq, "C^2")
        or close_error(rep.lambda_plus, lam[0], "lambda_plus", LAMBDA_TOL)
        or close_error(rep.concurrence ** 2 + pol.degree_p ** 2, 1.0, "C^2 + P^2")
        or _schmidt_error(dec, lam, psi)
    )


def ququart_error(state, rep, dec, two):
    k, lam, psi = oracle("ququart", state)
    return (
        close_error(rep.schmidt_k, k, "K")
        or close_error(rep.i_concurrence, math.sqrt(2.0 * (1.0 - 1.0 / k)), "C_I")
        or close_error(max(abs(a - b) for a, b in zip(rep.lambdas, lam)), 0.0, "lambdas")
        or close_error(two.schmidt_k, k / 2.0, "two-qubit K")
        or close_error(1.0 / (1.0 - two.concurrence ** 2 / 2.0), k / 2.0, "two-qubit C")
        or _schmidt_error(dec, lam, psi)
    )


def sweep_error(family, text, grid):
    """Row count and the closed-form relation each figure family obeys."""
    lines = text.splitlines()
    if len(lines) != grid + 1:
        return f"sweep {family}: {len(lines)} lines for grid {grid}"
    for line in lines[1:]:
        x, k, c, _ = (float(v) for v in line.split(","))
        if family == "fig1":
            err = close_error(k, 2.0 / (2.0 - c * c), "fig1 K")
        elif family == "fig4":
            err = close_error(k, 4.0 / (1.0 + math.cos(2.0 * x) ** 2), "fig4 K")
        else:
            err = close_error(c, math.sqrt(2.0 * (1.0 - 1.0 / k)), "fig5 C_I")
        if err:
            return err
    return None


def process_error(returncode, stderr, timed_out):
    if timed_out:
        return "process timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    return None


def repeat_error(seen, key, output):
    """The same output as the first run of the same input (stdout bytes for
    argv and stdin, or a result from the same record)."""
    first = seen.setdefault(key, output)
    if first != output:
        return "output differs from an earlier run of the same input"
    return None


def self_check():
    """Feed every gate a deliberately corrupted output; each must fire.

    Returns the list of gates that stayed silent (empty when all fired).
    """
    silent = []
    truth = np.array([0.6, 0.48j, 0.64], dtype=complex)
    wrong = truth * np.array([1.0, 1.0, -1.0])
    if truth_error([wrong], truth) is None:
        silent.append("tomography truth")
    cfg_n = measurement.ExperimentConfig(total_pairs=10**6)
    cfg_r = measurement.ExperimentConfig(total_pairs=10**6, basis="rotated45")
    real = qutrit.make_qutrit(0.6, -0.48, 0.64)
    est = reconstruct.merge_estimates(
        reconstruct.magnitudes_from_record(measurement.expected_coincidences(real, cfg_n)),
        reconstruct.magnitudes_from_record(measurement.expected_coincidences(real, cfg_r)))
    if real_shortcut_error("qutrit", est, np.array([0.6, 0.64, 0.48])) is None:
        silent.append("real-amplitude shortcut")
    if sampled_error([0.5] * 20) is None:
        silent.append("sampled criterion 9")
    q = qutrit.make_qutrit(*truth)
    rep, pol, dec = qutrit.quantify(q), qutrit.polarization(q), qutrit.schmidt_decompose(q)
    bad = type(rep)(rep.schmidt_k + 1e-6, rep.concurrence, rep.entropy,
                    rep.lambda_plus, rep.lambda_minus)
    if qutrit_error(q, bad, pol, dec) is None:
        silent.append("qutrit oracle")
    s = ququart.make_ququart(0.5, 0.5j, -0.5, 0.5)
    qrep = ququart.quantify(s)
    qbad = type(qrep)(qrep.schmidt_k, qrep.i_concurrence * 1.001, qrep.entropy, qrep.lambdas)
    if ququart_error(s, qbad, ququart.schmidt_decompose(s), ququart.two_qubit_model(s)) is None:
        silent.append("ququart oracle")
    if sweep_error("fig4", "phi,K,C_I,S_r\n0.5,3.0,1.1,1.0\n", 1) is None:
        silent.append("sweep rows")
    if (process_error(1, "", False) is None or process_error(0, "Traceback (most", False) is None
            or process_error(0, "", True) is None):
        silent.append("process")
    seen = {}
    repeat_error(seen, "argv", "a")
    if repeat_error(seen, "argv", "b") is None:
        silent.append("repeat bytes")
    return silent


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(stderr, package):
    """Cumulative import seconds of the outermost imports of `package`,
    parsed from `python -X importtime` output."""
    rows = []
    for m in _IMPORT_LINE.finditer(stderr):
        name = m.group(4)
        if name == package or name.startswith(package + "."):
            rows.append((len(m.group(3)), int(m.group(2))))
    if not rows:
        return 0.0
    top = min(depth for depth, _ in rows)
    return sum(us for depth, us in rows if depth == top) / 1e6
