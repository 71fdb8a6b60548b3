"""State reconstruction from two-basis coincidence records.

Coincidence counting behind polarizers fixes the amplitude magnitudes but
says nothing about phases.  Repeating the measurement in the 45-degree
polarizer frame adds interference information: the rotated magnitudes obey
a small set of cosine equations in the original phases.  The equations of
both kinds are derived at import from one matrix, qutrit.U45: each photon
turns by U45/sqrt(2).  This module turns
a (natural, rotated45) record pair into magnitude estimates and solves those
equations for the phases.  Closed forms give every candidate root: +-acos
branches, and for a ququart the 8 roots of a degree-4 trigonometric
polynomial, the product of a circle condition over both branches of the
curve one equation draws in two phase differences.  That product is real,
and even in the curve's angle, since conjugating every phase keeps every
magnitude; so five real samples fix it as a cosine series, and its roots
come from a real companion matrix.  Damped Gauss-Newton
steps then polish the candidates on the full equations, fitting noisy
records in the least-squares sense.  Ququart records polish only the
candidates that start near a root, when some candidate starts at one: for
sampled records, within the floor of the band of minima they keep.  For
noise-free records of real amplitudes, a candidate at a real critical point
holds its root exactly, and the curve-root candidates around it, which
would walk back to that root, are not polished either.  Qutrits polish
every candidate.  Both kinds polish through one kernel that returns the
residuals and the analytic Jacobian of a cosine system from one cosine and
one sine per term.  Each candidate stops on its own step and leaves the
batch, so it ends as it would polished alone; it also stops once its
residual is rounding noise, as at a double root.  The rows within the keep
threshold are deduplicated as one amplitude array, and only the solutions
that get printed are built into states.

With counting noise the fit is square, so J is singular at a minimum with a
nonzero residual, and Gauss-Newton steps converge only linearly there.  So
a candidate of a sampled record that is still moving after NEWTON_AFTER
steps takes damped full Newton steps: the residual's second-order term
joins J^T J wherever the damped sum stays positive definite, from the
cosines the kernel already takes.  Noise-free records never switch, since
an exact fit leaves that term zero, and keep their bits.

Phase conventions (gauges):

* qutrit: the middle amplitude C2 is taken real and non-negative; the two
  remaining unknowns are the phases of C1 and C3.
* ququart: only phase differences are observable, so the four phases are
  reported with their sum fixed to zero (restricted to the amplitudes above
  the zero threshold when some vanish).  Phases are reported modulo 2 pi,
  so the sum is zero only modulo 2 pi: adding pi/2 to all four phases
  keeps it, and the printed amplitudes are fixed only up to a factor i^k.
  Which of the four the solver reports depends on the path its polish took;
  the canonical order below sorts by the printed phases, so it can change
  with it.  Compare ququart solutions, also across versions of this
  package, up to a global phase.

Two-basis data does not always pin the state uniquely.  Complex conjugation
of all phases never changes any measured magnitude, so every solution comes
with its mirror; depending on the magnitudes the cosine system can admit
further discrete solutions that agree with all observations yet differ in
concurrence.  All solutions below the residual threshold are therefore
returned, the canonical one first (lexicographically smallest phases modulo
2 pi), the rest as alternates.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
# the stacked gufunc behind np.linalg.solve, called without the wrapper's
# per-call checks and copies
from numpy.linalg._umath_linalg import solve1 as _solve1
# and the one behind np.linalg.eigvals, which _roots calls the same way
from numpy.linalg._umath_linalg import eigvals as _eigvals

from .jsonio import complex_to_json
from .measurement import _SETTING_SETS, BASES, KINDS, NOISE_MODES
from .qutrit import SQRT2, U45, QutritState
from .ququart import QuquartState

TWO_PI = 2.0 * math.pi

# no solution below this root-mean-square mismatch means the record pair is
# inconsistent (corrupted or not from one state)
RESIDUAL_CEILING = 0.05

# |C| below this counts as zero in ideal records; sampled records use three
# statistical sigmas instead (capped, so a tiny record cannot zero everything)
IDEAL_ZERO_MAG = 1e-4
SAMPLED_ZERO_CAP = 0.3

# two solutions closer than this in overlap deficit are the same state
OVERLAP_DEDUPE = 1e-8


class IncompleteRecord(ValueError):
    """A required polarizer setting or basis is missing."""


class MalformedRecord(ValueError):
    """Counts are negative, empty or otherwise unusable."""


class Inconsistent(RuntimeError):
    """No phase assignment reproduces the records within the ceiling.

    For the real-amplitude shortcuts this also flags a quadratic form pushed
    out of its allowed range by noise; the attribute ``clipped`` then carries
    the quantifiers computed from the clipped value.
    """

    def __init__(self, message, best_residual=None, clipped=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.clipped = clipped


class PhaseUnobservable(RuntimeError):
    """Some phase information cannot be recovered from the records.

    The attribute ``result`` carries the partial reconstruction: unobservable
    phases are pinned to zero and everything observable is solved as usual.
    Magnitude-derived quantifiers in the partial result remain exact.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass
class MagnitudeEstimate:
    """Amplitude magnitudes recovered from records in one or both bases.

    magnitudes / magnitudes45 are the natural- and rotated-frame magnitude
    vectors (None until the matching record has been folded in), each of
    unit squared sum.  noise_scale is the statistical scale
    1/sqrt(total coincidences) for sampled input (0 for ideal).
    """

    kind: str
    magnitudes: np.ndarray = None
    magnitudes45: np.ndarray = None
    noise_scale: float = 0.0


def _amplitude_objects(state):
    # a state's amplitudes read from its fields, without building its array
    return [complex_to_json(z) for z in vars(state).values()]


@dataclass
class ReconstructionResult:
    """Reconstructed state plus everything needed to judge it.

    residual is the root-mean-square mismatch of the phase equations at the
    returned state, recomputable from the public equation helpers.
    alternates lists the other admissible solutions in canonical order.
    """

    kind: str
    state: object
    residual: float
    alternates: list
    gauge: str
    warnings: list

    def solutions(self):
        return [self.state] + list(self.alternates)

    def to_dict(self):
        return {
            "schema": "recon/1",
            "kind": self.kind,
            "amplitudes": _amplitude_objects(self.state),
            "residual": self.residual,
            "alternates": [_amplitude_objects(s) for s in self.alternates],
            "gauge": self.gauge,
            "warnings": list(self.warnings),
        }


# ---------------------------------------------------------------------------
# magnitudes from records
# ---------------------------------------------------------------------------

_PROBES = {name: k.probes.tolist() for name, k in KINDS.items()}
_N_AMPLITUDES = {name: max(p) + 1 for name, p in _PROBES.items()}


def magnitudes_from_record(rec):
    """Extract amplitude magnitudes from one coincidence record.

    The settings probing one amplitude (the two orderings of a symmetric
    pair) are summed and the squared magnitudes normalized to unit sum.
    Raises IncompleteRecord when a required setting is missing and
    MalformedRecord for an unknown basis or mode, a setting foreign to the
    record's kind, or negative, NaN or empty counts.
    """
    kind = rec.kind
    if rec.basis not in BASES:
        raise MalformedRecord(f"record basis {rec.basis!r} is not recognized")
    if rec.mode not in NOISE_MODES:
        raise MalformedRecord(f"record mode {rec.mode!r} is not recognized")
    settings = KINDS[kind].settings
    if rec.counts.keys() != _SETTING_SETS[kind]:
        # foreign first: a misspelt setting is also a missing one
        unknown = [s for s in rec.counts if s not in settings]
        if unknown:
            raise MalformedRecord(f"record has settings {unknown} foreign to a {kind}")
        missing = [s for s in settings if s not in rec.counts]
        raise IncompleteRecord(f"record lacks settings {missing} for a {kind}")
    counts = [float(rec.counts[s]) for s in settings]
    if any(v < 0 for v in counts):
        raise MalformedRecord("negative coincidence count")
    total = sum(counts)
    if total != total:
        nan = [s for s, v in zip(settings, counts) if v != v]
        raise MalformedRecord(f"coincidence counts {nan} are NaN")
    if total <= 0:
        raise MalformedRecord("record holds no coincidences")
    if not math.isfinite(total):
        raise MalformedRecord("coincidence counts overflow their sum")
    # np.bincount's sums in Python floats, in its order: each amplitude's
    # from 0.0, setting by setting
    sq = [0.0] * _N_AMPLITUDES[kind]
    for p, v in zip(_PROBES[kind], counts):
        sq[p] += v / total
    # the sum is 1 up to rounding; dividing by it sets the last bits.  It is
    # added left to right, as numpy's sum adds three or four terms
    norm = 0.0
    for v in sq:
        norm += v
    mags = np.array([math.sqrt(v / norm) for v in sq])
    noise = 1.0 / math.sqrt(total) if rec.mode == "sampled" else 0.0
    est = MagnitudeEstimate(kind=kind, noise_scale=noise)
    if rec.basis == "natural":
        est.magnitudes = mags
    else:
        est.magnitudes45 = mags
    return est


def merge_estimates(a, b):
    """Combine two single-basis estimates into one two-basis estimate.

    The contract of a record pair: raises ValueError unless both estimates
    are of one kind and one is natural, the other rotated45.
    """
    if a.kind != b.kind:
        raise ValueError(f"the two records describe different state kinds, {a.kind} and {b.kind}")
    have_a = a.magnitudes is not None
    have_b = b.magnitudes is not None
    if have_a == have_b:
        basis = "natural" if have_a else "rotated45"
        raise ValueError(f"need one natural and one rotated45 record, got two {basis} ones")
    nat, rot = (a, b) if have_a else (b, a)
    return MagnitudeEstimate(
        kind=a.kind,
        magnitudes=nat.magnitudes,
        magnitudes45=rot.magnitudes45,
        noise_scale=max(a.noise_scale, b.noise_scale),
    )


def _zero_threshold(est):
    if est.noise_scale > 0.0:
        return min(3.0 * est.noise_scale, SAMPLED_ZERO_CAP)
    return IDEAL_ZERO_MAG


def _keep_threshold(best, noise_scale):
    # keep every minimum statistically indistinguishable from the best one
    return max(1e-6 + 10.0 * noise_scale, best * 1.5 + 1e-15)


# ---------------------------------------------------------------------------
# phase equations (public so callers can recompute residuals)
# ---------------------------------------------------------------------------

def qutrit_phase_equations(m, m45, phi1, phi3):
    """Mismatch of the two rotated-frame magnitude equations for a qutrit.

    With magnitudes m = (|C1|, |C2|, |C3|) and rotated magnitudes m45, and
    C2 real by gauge, the rotated middle and outer magnitudes satisfy

        |C2(45)|^2        = (|C1|^2 + |C3|^2)/2 - |C1||C3| cos(phi1 - phi3)
        |C1(45)|^2 - |C3(45)|^2 = sqrt(2) |C2| (|C1| cos phi1 + |C3| cos phi3)

    Returns the two left-minus-right mismatches; both vanish at any phase
    assignment consistent with the data.  Accepts scalar or array phases.
    The solver fits the same equations, derived from the 45-degree frame
    qutrit.U45; the printed residual is computed here.
    """
    m1, m2, m3 = m
    n1, n2, n3 = m45
    e1 = 0.5 * (m1 * m1 + m3 * m3) - m1 * m3 * np.cos(phi1 - phi3) - n2 * n2
    e2 = SQRT2 * m2 * (m1 * np.cos(phi1) + m3 * np.cos(phi3)) - (n1 * n1 - n3 * n3)
    return e1, e2


def ququart_phase_equations(m, m45, phases):
    """Mismatch of the three rotated-frame magnitude equations for a ququart.

    Each equation ties one pairing of the four amplitudes to a combination
    of two rotated magnitudes:

        |C1||C3| cos(p1-p3) + |C2||C4| cos(p2-p4) = |C1(45)|^2 + |C2(45)|^2 - 1/2
        |C1||C2| cos(p1-p2) + |C3||C4| cos(p3-p4) = |C1(45)|^2 + |C3(45)|^2 - 1/2
        |C1||C4| cos(p1-p4) + |C2||C3| cos(p2-p3) = |C1(45)|^2 + |C4(45)|^2 - 1/2

    phases is a sequence (p1, p2, p3, p4) of scalars or broadcastable arrays;
    only differences enter, so the overall phase is pure gauge.  The solver
    fits the same equations, derived from the 45-degree frame qutrit.U45;
    the printed residual is computed here.
    """
    m1, m2, m3, m4 = m
    n1, n2, n3, n4 = m45
    p1, p2, p3, p4 = phases
    e1 = m1 * m3 * np.cos(p1 - p3) + m2 * m4 * np.cos(p2 - p4) - (n1 * n1 + n2 * n2 - 0.5)
    e2 = m1 * m2 * np.cos(p1 - p2) + m3 * m4 * np.cos(p3 - p4) - (n1 * n1 + n3 * n3 - 0.5)
    e3 = m1 * m4 * np.cos(p1 - p4) + m2 * m3 * np.cos(p2 - p3) - (n1 * n1 + n4 * n4 - 0.5)
    return e1, e2, e3


def _rms(eqs):
    return np.sqrt(sum(e * e for e in eqs) / len(eqs))


# ---------------------------------------------------------------------------
# closed-form candidates, polished on the full equations
# ---------------------------------------------------------------------------

# each row of the polish stops once its step moves no phase by STEP_TOL
# radians, or, after its first step, once its cost r.r is at most
# COST_FLOOR, and after POLISH_STEPS at the latest.  At a double root (real
# amplitudes) a step only halves the distance, so without the floor a row
# whose residual is already rounding noise walks on, then sits through
# about 15 rejected steps while the damping climbs back up from 1e-14.
# COST_FLOOR is about 1e-15 in rms on three equations.  300 Haar ququarts
# (seed 5), the 500 of criterion 8 and 300 sampled ones (seed 11) print the
# same bytes with it as without it, and so do 1,999 of 2,000 more (seed 6)
# and 269 of 300 real qutrits (seed 13); the other 32 print the same sets
STEP_TOL = 1e-12
POLISH_STEPS = 60
COST_FLOOR = 4e-30

# a row of a sampled record still polishing after NEWTON_AFTER steps adds
# the residual's second-order term S to J^T J wherever the damped sum is
# positive definite: the fit is square, so J is singular at a minimum with a
# nonzero residual, and Gauss-Newton steps only creep there.  Rows that stop
# sooner, the median sampled solve among them (7 steps in the tomography
# pool), keep their bits and their cost.  Over 300 Haar ququarts (seed 11,
# N = 10^6, record seeds 2i+1 and 2i+2) the switch after 4, 6, 8, 10, 12
# and 15 steps took 2,203, 2,217, 2,264, 2,316, 2,381 and 2,489 polish
# steps, against 3,253 without it, and left 2 or 3 solves of 21 at
# POLISH_STEPS.  The mean sampled generic ququart solve of the tomography
# pool (80 solves, best of 3, two runs on a 2-core machine) took 708-746,
# 710-718, 686-710, 698-734, 726-735 and 751-766 us, against 918 us; its
# median rose to 685-716 us with the switch after 4 steps, against 573-622
# us for the others and without it.  8 and 10 are within this noise; 10
# leaves more rows on the Gauss-Newton path, bit for bit
NEWTON_AFTER = 10

# ququart records polish only the candidate rows that start near a root.
# When some row starts at a root, the rows near one are polished; when none
# does, every row is.  For noise-free records a row starts at a root below
# ROOT_START_RMS in rms on the public equations, and near one below
# NEAR_ROOT_RMS; sampled records take the floor of the keep band,
# _keep_threshold(0, noise_scale), for both.  The two noise-free cuts rest
# on scans, not on a gap.  Where curve roots crowd, np.roots leaves the only
# rows of an exact root off it, by up to 5.9e-6 in 6,800 Haar ququarts
# (criterion 8's seed 809, seeds 5 to 7): polishing only the rows below 1e-8
# lost exact roots of 4 of them, the truth of one.  Near-degenerate states
# start every row off, and a 1e-5 cut alone lost exact roots of 2 of 20,000
# (seeds 20 and 21).  With both cuts, none of these 26,800 states or of
# 2,300 real ones (seeds 13 and 14) lost one.  Real amplitudes sit at double
# roots, and their other rows spread through the band: 1,818 of the 12,000
# rows of 300 real ququarts (seed 13, every |C| >= 0.1) start in
# [1e-10, 1e-6), against 4 of the 12,000 rows of 300 Haar ones (seed 5).
# All 1,818 lie in the rings of real roots that the rule below drops
ROOT_START_RMS = 1e-8
NEAR_ROOT_RMS = 1e-5

# with all four amplitudes present, a critical-point row ((u, v) in
# {0, pi}^2) is real when its w lies within REAL_W_TOL of 0 or pi.  Every
# sine in the equations then vanishes, and the circle-gap polynomial has an
# 8-fold root there, which np.roots scatters into a ring.  When a real row
# starts with its cost at COST_FLOOR, the curve-root rows within
# TANGENCY_RADIUS of it in (u, v) are not polished: each would walk back to
# the root that row holds.  Each of 1,300 real ququarts (seeds 13 and 14,
# every |C| >= 0.1) had such a row, its w at most 5.3e-7 off, and its ring
# reached 0.059 rad.  Both conditions are required.  A row that starts
# below ROOT_START_RMS need not hold its root: with that cut, 7 of 400
# near-real ququarts (phases moved by up to 0.1 off real; seed 1016) lost
# exact roots.  In block-phase ququarts (C1 and C2 of one phase, C3 and C4
# of another) a critical row holds a root with w off real, at least 3.3e-3
# in 300 of them (seed 15), and the rows beside it hold other exact roots:
# without the realness test, 9 of the 300 lost some.  A state whose w lies
# within REAL_W_TOL of real has its mirror within about 1e-12 in overlap
# deficit, which the dedupe merges anyway
REAL_W_TOL = 1e-6
TANGENCY_RADIUS = 0.1


def _wrap(x):
    return (np.asarray(x, dtype=float) + math.pi) % TWO_PI - math.pi


def _acos(x):
    return np.arccos(np.clip(x, -1.0, 1.0))


def _acos1(x):
    # _acos of one finite number, without np.clip's array set-up
    return float(np.arccos(min(1.0, max(-1.0, x))))


@functools.lru_cache(maxsize=64)
def _system_layout(forms_key, eq, n_eq, basis_key):
    """The parts of _cosine_system's maps that no record changes.

    The keys hold forms and basis as (dtype, shape, bytes).  Returns the
    flat slots of to_rj that a system writes, the term of each slot, its
    weight and the size of to_rj.  Every slot is a product of coef[term]
    with exact small integers: coef one-hot for the residuals, and
    -(coef one-hot) (forms @ basis.T) for the Jacobian.  So
    coef[term] * weight is each slot's value bit for bit, the signs of its
    zeros included; the other slots stay +0.  Last comes -g g^T of each
    term's gradient g = basis . form, flattened (n_terms, d^2), the matrix
    that S is built from.
    """
    forms, basis = (np.frombuffer(b, dtype).reshape(shape)
                    for dtype, shape, b in (forms_key, basis_key))
    n_terms, width = len(forms), 1 + len(basis)
    grad = forms @ basis.T
    weight = np.zeros((2, n_terms, n_eq, width))
    weight[0, ..., 0] = np.eye(n_eq)[list(eq)]
    weight[1, ..., 1:] = -weight[0, ..., :1] * grad[:, None, :]
    written = np.zeros(weight.shape, dtype=bool)
    written[0, ..., 0] = written[1, ..., 1:] = True
    slots = np.flatnonzero(written)
    term = np.broadcast_to(np.arange(n_terms)[:, None, None], weight.shape).reshape(-1)
    outer = -(grad[:, :, None] * grad[:, None, :]).reshape(n_terms, -1)
    return slots, term[slots], weight.reshape(-1)[slots], weight.size, outer


def _array_key(a):
    return a.dtype.str, a.shape, a.tobytes()


def _cosine_system(coef, forms, eq, rhs, basis):
    """Residuals and Jacobian of a system of cosine equations, as one array.

    Equation e reads sum of coef[t] cos(forms[t] . phases) over the terms t
    with eq[t] = e, minus rhs[e], and the phases are x @ basis.  The
    returned function maps free parameters x (k, d) to [r | J] (k, e, 1 + d),
    the residuals beside their Jacobian, from one cosine and one sine per
    term, in one product per row, so that no row's bits depend on its batch.
    The angles are taken from the phases, so they are those of the public
    equations bit for bit (at a critical point of e2, where some sines are
    pure rounding, those bits set the first step).  fun(x, True) also
    returns S (k, d, d), the second-order term sum_e r_e Hess(r_e) of the
    cost's Hessian J^T J + S.  Each term's Hessian is -coef cos(theta) g g^T
    with g its gradient, so S is one product per row of the cosines, scaled
    by coef and their equation's residual, with the terms' -g g^T.  What
    does not depend on coef and rhs is built once per (forms, eq, basis), in
    _system_layout.
    """
    slots, term, weight, size, outer = _system_layout(_array_key(forms), tuple(eq), len(rhs),
                                                      _array_key(basis))
    to_rj = np.zeros(size)
    to_rj[slots] = coef[term] * weight
    to_rj, to_angle = to_rj.reshape(2 * len(coef), -1), forms.T
    d = len(basis)
    offset = np.zeros(to_rj.shape[1])
    offset[::1 + d] = rhs

    def fun(x, second=False):
        theta = (x @ basis) @ to_angle
        cos = np.cos(theta)
        rj = np.concatenate([cos, np.sin(theta)], axis=1)[:, None] @ to_rj - offset
        rj = rj.reshape(len(x), len(rhs), 1 + d)
        if not second:
            return rj
        s = (rj[:, eq, 0] * coef * cos)[:, None] @ outer
        return rj, s.reshape(len(x), d, d)

    return fun


def _frame(entries, combos, phases):
    """The cosine terms of one kind's equations, derived from U45.

    entries names the amplitude on each entry (HH, HV, VH, VV) of the 2x2
    amplitude matrix.  An amplitude filling f entries sits on each at scale
    sqrt(f)/f, so the qutrit's C2 fills both off-diagonal ones at sqrt(2)/2.
    Each photon turns by U45/sqrt(2), so the rotated entries are
    kron(U45, U45)/2 times the scaled amplitudes mu.  Equation e weighs the
    squared rotated magnitudes by combos[e]; spread over the entries, its
    left side is the sum of Q[e, j, k] mu_j mu_k cos(phi_j - phi_k) over all
    j, k, with every Q a multiple of 1/4.  Each pair j < k with Q != 0
    becomes a term of weight 2 Q, in order of equation and pair.  Its form
    keeps the columns of the unknown phases (phases) and enters a single
    phase with a + sign, as the public equations write it.  The squares move
    to the right-hand side as diag . m^2, or as the constant const where a
    row weighs every |C_j|^2 alike, since the magnitudes have unit squared
    sum.  equation maps each pair (j, k) to the equation of its term.
    """
    eye = np.eye(len(combos[0]), dtype=int)
    embed = eye[list(entries)]
    fills = embed.sum(axis=0)
    rot = np.kron(U45, U45) @ embed
    q = rot.T @ ((combos @ embed.T)[:, :, None] * rot) / 4.0
    eq, j, k = np.nonzero(np.triu(q, 1))
    forms = (eye[j] - eye[k])[:, phases]
    forms[forms.sum(axis=1) < 0] *= -1
    diag = np.diagonal(q, axis1=1, axis2=2) / fills
    const = np.where((diag == diag[:, :1]).all(axis=1), diag[:, 0], 0.0)
    return SimpleNamespace(scale=np.sqrt(fills) / fills, w=2.0 * q[eq, j, k], j=j, k=k, eq=eq,
                           forms=forms.astype(float), combos=combos.astype(float), const=const,
                           diag=diag - const[:, None], equation=dict(zip(zip(j, k), eq)))


# the qutrit weighs |C2(45)|^2 and |C1(45)|^2 - |C3(45)|^2, and C2 is real by
# gauge, so its phase column is dropped; the ququart weighs
# |C1(45)|^2 + |Ck(45)|^2 for k = 2, 3, 4
_FRAMES = {
    "qutrit": _frame((0, 1, 1, 2), np.array([[0, 1, 0], [1, 0, -1]]), [0, 2]),
    "ququart": _frame((0, 1, 2, 3), np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]), range(4)),
}


def _frame_terms(kind, m, n):
    """The equations of a kind as the (coef, forms, eq, rhs) of _cosine_system.

    Every weight is an integer or a half, no sum has more than two nonzero
    terms, and (sqrt(2)/2) |C2| is exactly half of sqrt(2) |C2|.  So coef
    and rhs round as the hand-written products and sums do, such as
    sqrt(2) |C2||C1| or |C1(45)|^2 + |C2(45)|^2 - 1/2, whatever order the
    matrix products sum in.
    """
    f = _FRAMES[kind]
    mu = m * f.scale
    return (f.w * (mu[f.j] * mu[f.k]), f.forms, f.eq,
            f.combos @ (n * n) - (f.diag @ (m * m) + f.const))


def _gram(rj):
    return np.ascontiguousarray(rj.transpose(0, 2, 1)) @ rj


def _step(gram, damping, eye, s=None):
    # the damping is relative to J^T J's size (its trace); its floors keep
    # J^T J positive definite at a double root or J = 0, as solve1 needs
    jtj = gram[:, 1:, 1:]
    shift = damping * jtj.trace(axis1=1, axis2=2) + 1e-30
    damped = jtj + shift[:, None, None] * eye
    if s is None:
        return _solve1(damped, gram[:, 1:, 0])
    # S can leave the damped matrix indefinite or singular.  The step to the
    # model's stationary point can then land on a saddle or a maximum of the
    # cost that lies below the row, and stop there: J = 0 at the real
    # critical points of a real state.  Such rows take the Gauss-Newton step
    newton = damped + s
    convex = np.linalg.eigvalsh(newton)[:, 0] > 0
    return _solve1(np.where(convex[:, None, None], newton, damped), gram[:, 1:, 0])


def _polish(fun, x, newton=False):
    """Damped Gauss-Newton (Levenberg) steps on a batch of starting points.

    fun maps phases x (k, d) to [r | J] (k, e, 1 + d) (see _cosine_system);
    a row carries its phases, its damping and G = [r | J]^T [r | J].  A step
    is kept where it lowers r.r = G[0, 0]; the damping then shrinks, else it
    grows.  Each row stops on its own step and leaves the batch, as it would
    polished alone: once its step moves no phase by STEP_TOL, or, after its
    first step, once r.r is at most COST_FLOOR, rounding noise.  That first
    step still halves the offset the closed form leaves at a double root.
    When no first step moves a phase by STEP_TOL, as at exact closed-form
    roots, the rows come back as they went in, after one evaluation.

    With newton set (sampled records), the rows still polishing after
    NEWTON_AFTER steps take damped full Newton steps: S of fun(x, True) joins
    J^T J, through one more evaluation at the switch, where the damped sum
    is positive definite (see _step).  A square fit has a singular J at a
    minimum with a nonzero residual, where Gauss-Newton steps converge only
    linearly.  The steps are counted from the start, so a row still ends as
    it would polished alone.  Noise-free records of one state fit exactly,
    where S vanishes, and never switch.
    """
    x = np.array(x, dtype=float)
    eye = np.eye(x.shape[1])
    gram = _gram(fun(x))
    step = _step(gram, 1e-3, eye)
    moving = (np.abs(step) >= STEP_TOL).any(axis=1)
    if not moving.any():
        # exact roots skip the loop's set-up: about 10 % of an ideal qutrit solve
        return x
    out, live, damping = x.copy(), np.arange(len(x)), np.full(len(x), 1e-3)
    s = None
    for n in range(POLISH_STEPS):
        if not moving.all():
            out[live] = x
            live, x, gram, damping, step = (a[moving] for a in (live, x, gram, damping, step))
            if s is not None:
                s = s[moving]
            if not len(live):
                return out
        if newton and n == NEWTON_AFTER:
            s = fun(x, True)[1]
            step = _step(gram, damping, eye, s)
        # wrapped, so a long step across a near-singular J keeps the phases precise
        x_new = _wrap(x - step)
        if s is None:
            gram_new = _gram(fun(x_new))
        else:
            rj, s_new = fun(x_new, True)
            gram_new = _gram(rj)
        ok = gram_new[:, 0, 0] < gram[:, 0, 0]
        x, gram = np.where(ok[:, None], x_new, x), np.where(ok[:, None, None], gram_new, gram)
        if s is not None:
            s = np.where(ok[:, None, None], s_new, s)
        damping *= np.where(ok, 0.1, 10.0)
        np.maximum(damping, 1e-14, out=damping, where=ok)
        step = _step(gram, damping, eye, s)
        moving = (gram[:, 0, 0] > COST_FLOOR) & (np.abs(step) >= STEP_TOL).any(axis=1)
    out[live] = x
    return out


def _rank_solutions(phases, rms, noise_scale, amplitudes):
    """Filter, dedupe and order refined solutions.

    phases: (k, n) display phases of k candidate rows, rms: their residuals,
    amplitudes: display phases (j, n) -> amplitude rows (j, d), called once
    on all the rows within the keep threshold.  Their overlaps are taken as
    one Gram matrix, and a row is dropped as a physically identical
    duplicate when it overlaps a row of smaller residual already kept.
    Raises Inconsistent when nothing survives the residual ceiling.  Returns
    (amplitude row, residual, display_phases) entries in canonical order
    (lexicographically smallest display phases modulo 2 pi), the rows as
    lists of Python complex numbers.
    """
    rms = rms.tolist()
    best = min(rms)
    if best > RESIDUAL_CEILING:
        raise Inconsistent(
            f"no phase assignment fits the records (best rms mismatch {best:.4g})",
            best_residual=best,
        )
    cut = _keep_threshold(best, noise_scale)
    # in residual order; sorted() is stable, so equal residuals keep row order
    keep = sorted((i for i, r in enumerate(rms) if r <= cut), key=rms.__getitem__)
    rows = amplitudes(phases[keep])
    same = (np.abs(rows.conj() @ rows.T) >= 1.0 - OVERLAP_DEDUPE).tolist()
    kept = []
    for i in range(len(keep)):
        if not any(same[j][i] for j in kept):
            kept.append(i)
    rows, phases = rows.tolist(), phases.tolist()
    out = [(rows[i], rms[keep[i]], tuple(phases[keep[i]])) for i in kept]
    out.sort(key=lambda e: [round(p % TWO_PI, 9) for p in e[2]])
    return out


def _prepare(est, kind):
    if est.magnitudes is None or est.magnitudes45 is None:
        raise IncompleteRecord(
            "phase recovery needs magnitudes in both the natural and the "
            "rotated45 basis"
        )
    if est.kind != kind:
        raise ValueError(f"estimate is for a {est.kind}, not a {kind}")
    m = np.asarray(est.magnitudes, dtype=float)
    n = np.asarray(est.magnitudes45, dtype=float)
    # the tolerance of QutritState and QuquartState; NaN fails too
    if not (abs(m @ m - 1.0) <= 1e-9 and abs(n @ n - 1.0) <= 1e-9):
        raise ValueError("magnitude estimates must have unit squared sums")
    return m, n, (m < _zero_threshold(est)).tolist()


def _pinned_warning(zero):
    pinned = [i + 1 for i in range(len(zero)) if zero[i]]
    return ([f"amplitudes {pinned} below the zero threshold; their phases are pinned to 0"]
            if pinned else [])


def _solve(est, basis, x0, terms, residuals, amplitudes, gauge, warnings):
    """Polish the candidate rows x0, rank the results and build the result.

    terms = (coef, forms, eq, rhs) describe the cosine system (see
    _cosine_system) in the phases, which are x @ basis, so pinned phases
    stay 0 and tied ones keep their tie; terms may leave out equations or
    terms that are not to be fitted.  residuals maps display phases (k, n)
    to their rms on the public equations, all of them.  amplitudes maps
    display phases to amplitude rows (see _rank_solutions); the rows are
    deduplicated as one array, and only the printed solutions are built into
    states.  Rows of sampled records (noise_scale > 0) take Newton steps once
    they have polished for NEWTON_AFTER steps (see _polish).
    """
    phases = _wrap(_polish(_cosine_system(*terms, basis), x0, est.noise_scale > 0.0) @ basis)
    rms = residuals(phases)
    ranked = _rank_solutions(phases, rms, est.noise_scale, amplitudes)
    state = QutritState if est.kind == "qutrit" else QuquartState
    states = [state(*e[0]) for e in ranked]
    return ReconstructionResult(
        kind=est.kind, state=states[0], residual=ranked[0][1],
        alternates=states[1:], gauge=gauge, warnings=warnings,
    )


# ---------------------------------------------------------------------------
# qutrit phases
# ---------------------------------------------------------------------------

def _qutrit_candidates(m, coef, rhs, free):
    """Every root of the qutrit equations in closed form; rows hold the free phases.

    coef and rhs are those of _frame_terms: e1's term, then e2's terms of
    phi1 and of phi3.  With both outer phases free, e1 fixes
    delta = phi1 - phi3 up to sign and e2 becomes
    |z| cos(phi3 + arg z) = (|C1(45)|^2 - |C3(45)|^2) / (sqrt(2) |C2|) with
    z = |C3| + |C1| e^{i delta}.  With one pinned to 0, both equations are
    linear in the cosine of the free phase.  Noise is clipped into range.
    """
    if not free:
        return np.zeros((1, 0))
    if len(free) == 2:
        # one row at a time, through the ufuncs and the complex scalar type
        # of the array code, so every row keeps its bits
        m1, m2, m3 = m.tolist()
        out = []
        span = _acos1(rhs[0] / coef[0])
        for delta in (span, -span):
            z = m3 + m1 * np.exp(1j * delta)
            arg = np.arctan2(z.imag, z.real)
            beta = _acos1(rhs[1] / (SQRT2 * m2 * max(abs(z), 1e-300)))
            out += [(phi3 + delta, phi3) for phi3 in (beta - arg, -beta - arg)]
        return np.array(out)
    # e1 = coef[0] cos x - rhs[0] and e2 = coef[t] cos x + coef[3 - t] - rhs[1]
    # for the free phase's term t; take the least-squares cos x
    t = 1 + free[0]
    a, b = coef[[0, t]], np.array([rhs[0], rhs[1] - coef[3 - t]])
    span = _acos1(a @ b / (a @ a))
    return np.array([[span], [-span]])


# the bases of the qutrit's free phases, keyed by the free slots (0 for
# phi1, 1 for phi3)
_QUTRIT_BASES = {free: np.eye(2)[list(free)] for free in ((), (0,), (1,), (0, 1))}


def qutrit_phases(est):
    """Solve the qutrit phase equations from a two-basis magnitude estimate.

    Returns a ReconstructionResult in the C2-real gauge with every admissible
    solution (canonical first, mirrors and extra discrete branches as
    alternates).  Raises Inconsistent when no phases fit, in every branch;
    PhaseUnobservable when the interference amplitude C2 is below the zero
    threshold while both outer amplitudes are present.  Then only
    |phi1 - phi3| is recoverable: its two sign rows go through the same
    polish and ranking as any other candidates, on the tie phi3 = -phi1 and
    with C2's terms dropped, so only e1 is fitted, and the partial result
    rides on the exception.
    """
    m, n, zero = _prepare(est, "qutrit")
    coef, forms, eq, rhs = terms = _frame_terms("qutrit", m, n)

    # as Python floats the magnitudes give the products numpy scalars give,
    # at a fraction of the cost
    mags = m.tolist(), n.tolist()

    def residuals(phi):
        return _rms(qutrit_phase_equations(*mags, *phi.T))

    def amplitudes(phi):
        # C2 keeps phase 0, so it stays real in its column
        phases = np.zeros((len(phi), 3))
        phases[:, 0::2] = phi
        return m * np.exp(1j * phases)

    z1, z2, z3 = zero
    if z2 and not z1 and not z3:
        # no interference term: only cos(phi1 - phi3) is fixed, sign and all.
        # The fit drops C2's terms, as fitting e2 would fit noise against the
        # arbitrary tie phi1 + phi3 = 0
        psi = _acos1(rhs[0] / coef[0])
        result = _solve(est, np.array([[1.0, -1.0]]), [[psi / 2.0], [-psi / 2.0]],
                        (coef * [1.0, 0.0, 0.0], forms, eq, rhs), residuals, amplitudes,
                        "phi3 = -phi1 (C2 below threshold)",
                        ["interference amplitude below threshold: only the relative phase "
                         "phi1 - phi3 is observable, up to sign"])
        raise PhaseUnobservable(
            "C2 below threshold: phases only observable through phi1 - phi3", result=result)

    # a phase is solvable only when its amplitude and an interference partner
    # both survive the threshold
    a1 = (not z1) and (not z2 or not z3)
    a3 = (not z3) and (not z2 or not z1)
    free = [slot for slot, act in ((0, a1), (1, a3)) if act]
    return _solve(est, _QUTRIT_BASES[tuple(free)], _qutrit_candidates(m, coef, rhs, free),
                  terms, residuals, amplitudes, "phi2 = 0 (C2 real non-negative)",
                  _pinned_warning(zero))


# ---------------------------------------------------------------------------
# ququart phases
# ---------------------------------------------------------------------------

def _w_rows(m, u, v):
    """The rows of M in _w_system, the part the candidates use."""
    m1, m2, m3, m4 = m
    a11, a12 = m1 * m3 + m2 * m4 * np.cos(v - u), -m2 * m4 * np.sin(v - u)
    a21 = m1 * m4 * np.cos(v) + m2 * m3 * np.cos(u)
    a22 = m2 * m3 * np.sin(u) - m1 * m4 * np.sin(v)
    return (a11, a12), (a21, a22)


def _w_system(m, rhs, u, v):
    """e1 and e3 as M (cos w, sin w) = (N1, N3), for u = p1 - p2, v = p3 - p4.

    Here w = p1 - p3.  Returns the rows of M, adj(M) (N1, N3) and det(M):
    the solution lies on the unit circle where |adj(M) N|^2 = det(M)^2.
    """
    (a11, a12), (a21, a22) = rows = _w_rows(m, u, v)
    adj = (a22 * rhs[0] - a12 * rhs[2], a11 * rhs[2] - a21 * rhs[0])
    return (*rows, adj, a11 * a22 - a12 * a21)


def _raise_nonconvergence(err, flag):
    # np.errstate's call handler: the eigvals kernel flags a failure to
    # converge as an invalid value, which np.linalg.eigvals turns into this
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _roots(p):
    """np.roots of a 1-d real or complex array, bit for bit, with less set-up.

    The same zero trimming and companion matrix go to the stacked kernel
    behind np.linalg.eigvals, under the wrapper's checks: a non-finite
    companion raises LinAlgError before it, and so does a kernel that does
    not converge.  A real companion takes the kernel's real loop (d->D),
    and its roots come back real when all of them are, as np.roots' do.
    """
    nonzero = np.flatnonzero(p)
    if not len(nonzero):
        return np.array([])
    first, last = int(nonzero[0]), int(nonzero[-1])
    roots = np.array([])
    if last > first:
        a = np.eye(last - first, k=-1, dtype=p.dtype)
        a[0] = -p[first + 1:last + 1] / p[first]
        if not np.isfinite(a[0]).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        with np.errstate(call=_raise_nonconvergence, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            roots = _eigvals(a)
        if not np.iscomplexobj(p) and not roots.imag.any():
            roots = roots.real
    if last + 1 < len(p):
        # each trailing zero is a root at 0
        roots = np.concatenate([roots, np.zeros(len(p) - 1 - last, roots.dtype)])
    return roots


# cos(n pi / 4) for n = 0..7, with its zeros exact
_COS_EIGHTHS = (1.0, math.sqrt(0.5), 0.0, -math.sqrt(0.5), -1.0, -math.sqrt(0.5), 0.0,
                math.sqrt(0.5))
# _curve_roots' samples t_j = j pi / 4 (j = 0..4), as (cos t_j, sin t_j)
_T_SAMPLES = tuple((_COS_EIGHTHS[j], _COS_EIGHTHS[(j - 2) % 8]) for j in range(5))
# the DCT-I of H(t) = sum_k c_k cos(k t) at those samples: the row of k takes
# the H(t_j) to c_0 (k = 0) or c_k / 2, the coefficients of z^(4 -+ k) in
# z^4 H(z), z = e^(it), so the rows run k = 4..0..4, down the powers of z
_DCT_I = np.array([[(0.5 if j in (0, 4) else 1.0) * _COS_EIGHTHS[j * k % 8]
                    / (8.0 if k == 4 else 4.0) for j in range(5)]
                   for k in (4, 3, 2, 1, 0, 1, 2, 3, 4)])


def _curve_harmonics(m, rhs):
    """free, a, b and the coefficients of z^4 H(z), from five real samples.

    Along the e2 curve a cos t + b cos d = N2 (t the phase difference with
    the smaller coefficient a), the circle gap of _w_system is
    G0 + G1 sin d, with sin^2 d = 1 - cos^2 d where it is squared.  Their
    product over d and -d, H = G0^2 - G1^2 sin^2 d, is real also where d
    leaves the real torus (cos d outside [-1, 1]), and it is even in t:
    conjugating every phase, (t, d) -> (-t, -d), keeps every magnitude and
    so the gap.  H is a cosine series of degree 4, so five samples over
    [0, pi] fix it.
    """
    m1, m2, m3, m4 = m.tolist()
    n1, n2, n3 = rhs.tolist()
    coef = (m1 * m2, m3 * m4)
    free = int(coef[1] < coef[0])
    a, b = coef[free], coef[1 - free]
    # adj(M) N = (c, s) and det(M) = dt sin t + dd sin d, with the products
    # of the t slot and of the d slot swapped when t is v = p3 - p4
    p, q = m1 * m3 * n3, m2 * m4 * n3
    r, s = m1 * m4 * n1, m2 * m3 * n1
    dt, dd = m1 * m2 * (m3 * m3 - m4 * m4), m3 * m4 * (m2 * m2 - m1 * m1)
    if free:
        r, s, dt, dd = s, r, dd, dt
    h = []
    for ct, st in _T_SAMPLES:
        x = (n2 - a * ct) / b
        sin2 = 1.0 - x * x
        # each of c, s and det is its sin d-free part plus sin d times a slope
        c0, c1 = st * (s - q * x), q * ct - r
        s0, s1 = p - s * ct + (q * ct - r) * x, q * st
        d0 = dt * st
        g0 = c0 * c0 + s0 * s0 - d0 * d0 + (c1 * c1 + s1 * s1 - dd * dd) * sin2
        g1 = 2.0 * (c0 * c1 + s0 * s1 - d0 * dd)
        h.append(g0 * g0 - g1 * g1 * sin2)
    return free, a, b, _DCT_I @ h


def _curve_roots(m, rhs):
    """(u, v) on the e2 curve where the circle condition of _w_system holds.

    Let t be the angle of the smaller coefficient a of e2 and d the other,
    cos d = (N2 - a cos t) / b.  The circle gap is quadratic in the first
    harmonics of u and v, so its product H(t) over d and -d is even in
    sin d: a trigonometric polynomial of degree 4, and a real, even one,
    since conjugating every phase keeps every magnitude.  _curve_harmonics
    takes its coefficients from five real samples; the arguments of all 8
    roots of z^4 H(z), a real palindromic polynomial, come back with both
    signs of the real d.  Roots off the unit circle are kept, because noise
    moves near-tangencies there.
    """
    free, a, b, h = _curve_harmonics(m, rhs)
    t = np.angle(_roots(h)) if np.isfinite(h).all() else np.zeros(0)
    d = _acos((rhs[1] - a * np.cos(t)) / b)
    t, d = np.concatenate([t, t]), np.concatenate([d, -d])
    return (t, d) if free == 0 else (d, t)


# the critical points (u, v) in {0, pi}^2 of e2
_CRITICAL_U = np.array([0.0, 0.0, math.pi, math.pi])
_CRITICAL_V = np.array([0.0, math.pi, 0.0, math.pi])

# +w and -w for the two rows of _ququart_candidates' w
_SIGNS = np.array([[1.0], [-1.0]])


def _ququart_candidates(m, rhs, active):
    """Starting phases from closed forms; rows hold the phases of active[:-1].

    All four present: the 16 points (u, v) from _curve_roots (8 polynomial
    roots, each on both branches of e2) and the 4 critical points (u, v) in
    {0, pi}^2 of e2, where real amplitudes sit, each come with both signs of
    the w that the better-scaled of e1 and e3 fixes: at most 40 rows, of
    which ququart_phases polishes only those that start near a root.
    Otherwise each phase difference to the first present amplitude is +-acos
    from the one equation where the two share a term, ignoring the terms of
    pinned amplitudes, or 0 or pi; noisy records can leave those terms
    large.  rhs is that of _frame_terms.
    """
    if len(active) == 4:
        u, v = _curve_roots(m, rhs)
        u, v = np.concatenate([u, _CRITICAL_U]), np.concatenate([v, _CRITICAL_V])
        # at a root both e1 and e3 hold, so either fixes w up to sign, also
        # where M is singular (always at the critical points)
        (a11, a12), (a21, a22) = _w_rows(m.tolist(), u, v)
        first = np.hypot(a11, a12) >= np.hypot(a21, a22)
        a, b = np.where(first, a11, a21), np.where(first, a12, a22)
        span = _acos(np.where(first, rhs[0], rhs[2]) / np.maximum(np.hypot(a, b), 1e-300))
        # rows of +w, then rows of -w; x - y is x + (-y), so each row keeps
        # the bits of the sums over the tiled u, v and w
        w = np.arctan2(b, a) + _SIGNS * span
        p1 = 0.25 * (u + v + 2.0 * w)
        rows = np.empty((2, len(u), 3))
        rows[..., 0] = p1
        np.subtract(p1, u, out=rows[..., 1])
        np.subtract(p1, w, out=rows[..., 2])
        return rows.reshape(-1, 3)
    lead, rest = active[0], active[1:]
    span = [_acos1(rhs[_FRAMES["ququart"].equation[lead, j]] / (m[lead] * m[j])) for j in rest]
    phases = np.zeros((4 ** len(rest), 4))
    phases[:, rest] = list(itertools.product(*((s, -s, 0.0, math.pi) for s in span)))
    phases[:, active] -= phases[:, active].mean(axis=1, keepdims=True)
    return phases[:, active[:-1]]


def _tangent_rows(x0, start):
    """The curve-root rows that would walk back to a real critical row's root.

    x0 holds the rows (p1, p2, p3) of _ququart_candidates with all four
    amplitudes present: per sign of w, the curve-root rows, then the 4
    critical points; start holds their starting rms.  In the zero-sum gauge
    p4 = -(p1 + p2 + p3), so u = p1 - p2, v = p3 - p4 = p1 + p2 + 2 p3 and
    w = p1 - p3.  A critical row is real when w lies within REAL_W_TOL of 0
    or pi, so that every sine in the equations vanishes.  Returns the
    indices of the curve-root rows within TANGENCY_RADIUS in (u, v) of a
    real critical row that starts at its root to rounding, with its cost
    3 rms^2 at most COST_FLOOR.
    """
    half = len(x0) // 2
    critical = [*range(half - 4, half), *range(2 * half - 4, 2 * half)]
    rms = start.tolist()
    real = [i for i in critical if 3.0 * rms[i] * rms[i] <= COST_FLOOR
            and abs(math.sin(x0[i, 0] - x0[i, 2])) < REAL_W_TOL]
    if not real:
        return []
    p1, p2, p3 = x0.T
    u, v = p1 - p2, p1 + p2 + 2.0 * p3
    near = (np.hypot(_wrap(u[:, None] - u[real]), _wrap(v[:, None] - v[real]))
            < TANGENCY_RADIUS).any(axis=1)
    near[critical] = False
    return np.flatnonzero(near)


def _ququart_rms(coef, rhs, p):
    """rms over ququart_phase_equations of phase rows p (k, 4), bit for bit.

    coef and rhs of _frame_terms are its products and constants, and the
    cosines of all six differences come from one call; the squares are
    summed in the order _rms sums them.
    """
    f = _FRAMES["ququart"]
    e = coef * np.cos(p[:, f.j] - p[:, f.k])
    e = e[:, 0::2] + e[:, 1::2] - rhs
    e *= e
    return np.sqrt((e[:, 0] + e[:, 1] + e[:, 2]) / 3)


# the bases of the ququart's free phases, keyed by the present amplitudes:
# the first ones are free, and the last balances the sum to zero
_QUQUART_BASES = {
    active: np.eye(4)[list(active[:-1])] - np.eye(4)[active[-1]]
    for size in range(1, 5) for active in itertools.combinations(range(4), size)
}


def ququart_phases(est):
    """Solve the ququart phase equations from a two-basis magnitude estimate.

    Same contract as qutrit_phases, in the zero-sum phase gauge.  Any
    amplitude below the zero threshold makes some phase combination
    unobservable; the partial result (unobservable phases pinned to 0) then
    rides on a PhaseUnobservable exception.  One present amplitude takes the
    same path with no free phase, so mismatched records raise Inconsistent
    there as well.  When the best candidate row starts at a root, only the
    rows that start near one are polished; the other rows would walk back
    to roots those already hold, or to critical points.  Otherwise every
    row is polished.  Starting rms on the public equations is compared with
    two cuts: for noise-free records (noise_scale 0), ROOT_START_RMS for
    the best row and NEAR_ROOT_RMS for the rest; for sampled records, the
    floor of the keep band, 1e-6 + 10 noise scales, for both.  The rule is
    the same with all four amplitudes present and with pinned ones.
    With all four present, the rows around a real critical-point row that
    starts at its root to rounding (cost at COST_FLOOR) are dropped too: the
    curve-root rows within TANGENCY_RADIUS of it in (u, v), which all walk
    back to that root (see _tangent_rows).  Noise-free records of real
    amplitudes start such a row; sampled ones did not (150 real states).
    """
    m, n, zero = _prepare(est, "ququart")
    terms = _frame_terms("ququart", m, n)
    active = [i for i in range(4) if not zero[i]]

    names = "+".join(f"phi{i + 1}" for i in active)
    gauge = (f"{names} = 0, phases of below-threshold amplitudes pinned to 0" if any(zero)
             else "phi1 + phi2 + phi3 + phi4 = 0")
    basis = _QUQUART_BASES[tuple(active)]

    def residuals(p):
        return _ququart_rms(terms[0], terms[3], p)

    x0 = _ququart_candidates(m, terms[3], active)
    if est.noise_scale == 0.0:
        root, near = ROOT_START_RMS, NEAR_ROOT_RMS
    else:
        root = near = _keep_threshold(0.0, est.noise_scale)
    start = residuals(x0 @ basis)
    if start.min() < root:
        keep = start < near
        if len(active) == 4:
            keep[_tangent_rows(x0, start)] = False
        x0 = x0[keep]
    result = _solve(est, basis, x0, terms, residuals, lambda p: m * np.exp(1j * p), gauge,
                    _pinned_warning(zero))
    if any(zero):
        raise PhaseUnobservable("amplitudes below threshold leave some phase "
                                "combinations unobservable", result=result)
    return result


# ---------------------------------------------------------------------------
# real-amplitude shortcuts
# ---------------------------------------------------------------------------

def _imbalance(m):
    # w_H - w_V from the magnitudes m: w_H = |C1|^2 + |C2|^2/2, and w_V its
    # mirror
    return float(m[0] * m[0] + m[1] * m[1] / 2.0) - float(m[2] * m[2] + m[1] * m[1] / 2.0)


def qutrit_real_shortcut(est):
    """K and C of a real-amplitude qutrit from single-photon probabilities.

    For real amplitudes the polarization vector lies in a plane, and the two
    single-photon probability imbalances dw = w_H - w_V (natural frame) and
    dw45 (rotated frame) determine everything:

        1/K = (1 + dw^2 + dw45^2) / 2        C = sqrt(1 - dw^2 - dw45^2)

    Both imbalances come from the magnitude estimate alone, via
    w_H = |C1|^2 + |C2|^2/2 and its mirror.  The magnitudes sum the H|V and
    V|H settings, so on sampled records they average out the noise between
    the two that the records' single-photon tallies keep.  dw^2 + dw45^2
    must not exceed 1; noise can push it past, in which case Inconsistent
    is raised carrying the quantifiers of the clipped value (K = 1, C = 0).
    As in qutrit_phases, an estimate of another kind or with magnitudes of
    non-unit squared sums raises ValueError.  Returns (K, C).
    """
    m, n, _ = _prepare(est, "qutrit")
    dw = _imbalance(m)
    dw45 = _imbalance(n)
    kinv = min(1.0, 0.5 * (1.0 + dw * dw + dw45 * dw45))
    c_sq = 1.0 - dw * dw - dw45 * dw45
    k, c = 1.0 / kinv, math.sqrt(max(0.0, c_sq))
    if c_sq < -1e-9:
        raise Inconsistent(
            f"dw^2 + dw45^2 exceeds 1 by {-c_sq:.3g}: records do not fit a "
            "real-amplitude qutrit",
            clipped=(k, c),
        )
    return k, c


def ququart_real_shortcut(est):
    """K and C_I of a real-amplitude ququart straight from magnitudes.

    The determinant magnitude obeys

        |C1 C4 - C2 C3|^2 = 2 (|C1|^2 |C4|^2 + |C2|^2 |C3|^2)
                            - (|C1(45)|^2 + |C4(45)|^2 - 1/2)^2

    for real amplitudes of any signs.  The value must land in [0, 1/4];
    noise can push it out, in which case Inconsistent is raised carrying the
    quantifiers of the clipped value.  Returns (K, C_I).
    """
    m, n, _ = _prepare(est, "ququart")
    cross = _frame_terms("ququart", m, n)[3][_FRAMES["ququart"].equation[0, 3]]
    d = 2.0 * (m[0] * m[0] * (m[3] * m[3]) + m[1] * m[1] * (m[2] * m[2])) - cross * cross
    d_clip = min(0.25, max(0.0, d))
    k = 2.0 / (1.0 - 2.0 * d_clip)
    ci = math.sqrt(1.0 + 2.0 * d_clip)
    if d < -1e-9 or d > 0.25 + 1e-9:
        raise Inconsistent(
            f"determinant magnitude {d:.6g} outside [0, 1/4]: records do not "
            "fit a real-amplitude ququart",
            clipped=(k, ci),
        )
    return k, ci
