"""Simulated beam-splitter coincidence measurements.

The measurement scheme sends the collinear pair onto a 50/50 beam splitter
and counts coincidences between the two output arms behind polarizers.  The
beam-splitter (angular) factor is separable and identical for all
polarization settings, so it cancels from every conditional probability; it
only costs a factor eta/2 of the pairs, with eta the detector/collection
efficiency.

Qutrits and ququarts are measured the same way.  What differs is a small
per-kind table (``KINDS``): the ordered settings (sigma | sigma') and the
amplitude each setting probes,

    qutrit   H|H  H|V  V|H  V|V                          -> C1 C2 C2 C3
    ququart  Hh|Hl Hl|Hh Hh|Vl Vl|Hh Hl|Vh Vh|Hl Vh|Vl Vl|Vh
                                                         -> C1 C1 C2 C2 C3 C3 C4 C4

plus the matrix that turns the amplitudes to the 45-degree polarizer frame,
the one qutrit.rotate_basis and ququart.rotate_basis_45 apply.  An
amplitude probed by k settings gives each of them |C|^2 / k, so for a qutrit

    N_{H|H} = (eta/2) N |C1|^2        N_{V|V} = (eta/2) N |C3|^2
    N_{H|V} = N_{V|H} = (eta/4) N |C2|^2

and every ququart setting carries (eta/4) N |Ck|^2.  Single-photon
probabilities are row sums over the settings.  Summing the settings that
probe one amplitude inverts the table; the magnitude extraction in
``reconstruct`` does exactly that.

Records come in two modes: "ideal" records hold real-valued expected counts,
"sampled" records hold integer counts drawn reproducibly from the seeded
two-stage noise model (binomial pair loss, then a multinomial split over the
ordered settings).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .jsonio import finite_number
from . import qutrit as _qutrit
from . import ququart as _ququart

SQRT2 = math.sqrt(2.0)

BASES = ("natural", "rotated45")
NOISE_MODES = ("ideal", "sampled")

# ordered polarizer settings, "first arm | second arm"
QUTRIT_SETTINGS = ("H|H", "H|V", "V|H", "V|V")

# ordered ququart settings, grouped in pairs that probe |C1|^2 .. |C4|^2
QUQUART_SETTINGS = (
    "Hh|Hl", "Hl|Hh",
    "Hh|Vl", "Vl|Hh",
    "Hl|Vh", "Vh|Hl",
    "Vh|Vl", "Vl|Vh",
)


class Kind(NamedTuple):
    """What the measurement needs to know about one kind of state.

    probes[i] is the index of the amplitude whose |C|^2 setting i counts.
    """

    settings: tuple
    probes: np.ndarray


KINDS = {
    "qutrit": Kind(QUTRIT_SETTINGS, np.array([0, 1, 1, 2])),
    "ququart": Kind(QUQUART_SETTINGS, np.array([0, 0, 1, 1, 2, 2, 3, 3])),
}

# each kind's settings as a set, for CoincidenceRecord.kind and the checks of
# reconstruct.magnitudes_from_record
_SETTING_SETS = {name: frozenset(k.settings) for name, k in KINDS.items()}


def _forward(name, rot45):
    # what a record of one kind of state is built from: the kind's name and
    # settings, the probes, each setting's share of its amplitude's |C|^2 and
    # the map to the amplitudes in the 45-degree polarizer frame; the shares
    # as floats and the map as complex numbers, the operands numpy casts
    # them to on every call
    settings, probes = KINDS[name]
    shares = np.bincount(probes)[probes].astype(float)
    return name, settings, probes, shares, rot45.astype(complex)


# the matrices rotate_basis and rotate_basis_45 apply, whose bits set the
# printed counts
_FORWARD = {
    _qutrit.QutritState: _forward("qutrit", _qutrit._rotation_matrix(math.pi / 4.0)),
    _ququart.QuquartState: _forward("ququart", _ququart._ROT45),
}

SCHEMA = "coincidence/1"

# the sampler draws the pair number through numpy, which takes int64
MAX_PAIRS = 2**63 - 1


def _is_integer(x):
    # an int or a numpy integer, not a bool
    return type(x) is int or (isinstance(x, (int, np.integer)) and not isinstance(x, bool))


def _is_real(x):
    return type(x) is float or _is_integer(x) or isinstance(x, (float, np.floating))


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one simulated coincidence run.

    total_pairs is the number of generated pairs N, detector_efficiency the
    combined collection/detection efficiency eta in (0, 1], basis selects the
    polarizer frame, noise selects ideal expected counts or seeded sampling.
    """

    total_pairs: int
    detector_efficiency: float = 1.0
    basis: str = "natural"
    noise: str = "ideal"
    seed: int = 0

    def __post_init__(self):
        # only what a record can carry through to_dict and back: numbers of
        # the JSON kinds, none of them a bool
        if not _is_integer(self.total_pairs):
            raise ValueError(f"total_pairs must be an integer, got {self.total_pairs!r}")
        if not 1 <= self.total_pairs <= MAX_PAIRS:
            raise ValueError(f"total_pairs must lie in [1, {MAX_PAIRS}]")
        eta = self.detector_efficiency
        if not _is_real(eta):
            raise ValueError(f"detector_efficiency must be a real number, got {eta!r}")
        # a Python float, as a record reads it back: a numpy float32 would
        # keep ideal counts in float32
        eta = float(eta)
        object.__setattr__(self, "detector_efficiency", eta)
        if not 0.0 < eta <= 1.0:
            raise ValueError("detector_efficiency must lie in (0, 1]")
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}")
        if self.noise not in NOISE_MODES:
            raise ValueError(f"noise must be one of {NOISE_MODES}")
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.noise == "sampled" and self.seed < 0:
            raise ValueError("sampling needs a non-negative seed")


@dataclass(frozen=True)
class CoincidenceRecord:
    """One immutable set of coincidence counts.

    counts maps ordered settings "sigma|sigma'" to expected (real, mode
    "ideal") or drawn (integer, mode "sampled") coincidence numbers.  The
    mode tag travels with the record so consumers cannot confuse the two.
    """

    basis: str
    mode: str
    eta: float
    total_pairs: int
    counts: dict
    seed: int = None

    @property
    def kind(self):
        # the kind whose settings the record holds exactly, else the kind
        # whose settings it shares most of (a qutrit when it shares none), so
        # that a misspelt setting shows up as foreign to the record's own kind
        keys = self.counts.keys()
        for name, settings in _SETTING_SETS.items():
            if keys == settings:
                return name
        return max(_SETTING_SETS, key=lambda k: len(keys & _SETTING_SETS[k]))

    def total_coincidences(self):
        return sum(self.counts.values())

    def conditional_probabilities(self):
        """Counts normalized by the total; sums to 1 and is eta-free."""
        total = self.total_coincidences()
        if total <= 0:
            raise ValueError("record holds no coincidences")
        return {k: v / total for k, v in self.counts.items()}

    def single_particle(self):
        """Single-photon detection probabilities as row sums over settings."""
        w = self.conditional_probabilities()
        out = {}
        for key, val in w.items():
            first = key.split("|")[0]
            out[first] = out.get(first, 0.0) + val
        return out

    def to_dict(self):
        d = {
            "schema": SCHEMA,
            "basis": self.basis,
            "mode": self.mode,
            "eta": self.eta,
            "total_pairs": self.total_pairs,
            "counts": dict(self.counts),
        }
        if self.mode == "sampled":
            d["seed"] = self.seed
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict) or d.get("schema") != SCHEMA:
            raise ValueError(f"not a {SCHEMA} record")
        for key in ("basis", "mode", "eta", "total_pairs", "counts"):
            if key not in d:
                raise ValueError(f"record is missing the {key!r} field")
        for key in ("basis", "mode"):
            if not isinstance(d[key], str):
                raise ValueError(f"record {key} must be a string, got {d[key]!r}")
        if not isinstance(d["counts"], dict):
            raise ValueError("record counts must be a JSON object")
        total_pairs = finite_number(d["total_pairs"], "total_pairs")
        if total_pairs != int(total_pairs):
            raise ValueError(f"total_pairs must be an integer, got {total_pairs!r}")
        return cls(
            basis=d["basis"],
            mode=d["mode"],
            eta=float(finite_number(d["eta"], "eta")),
            total_pairs=int(total_pairs),
            counts={k: finite_number(v, f"count {k!r}") for k, v in d["counts"].items()},
            seed=d.get("seed"),
        )


def beam_splitter_wavefunction(q):
    """Attach the 50/50 beam-splitter output factor to a qutrit.

    Each photon picks up the angular mode (1, -1)/sqrt(2) over the two output
    arms, so the composite per-photon space is (polarization x arm) and the
    full state lives in 16 dimensions.  The angular factor is a product and
    adds no entanglement; the Schmidt parameter of the composite is verified
    to match the bare qutrit at call time.
    """
    arm = np.array([1.0, -1.0]) / SQRT2
    return _qutrit._arm_composite(q, np.outer(arm, arm), 1)[0]


def _setting_probabilities(state, basis):
    # ordered settings of the state's kind and their probabilities: each
    # setting carries its amplitude's |C|^2, shared evenly among the settings
    # probing that amplitude
    name, settings, probes, shares, rot45 = _FORWARD[type(state)]
    amps = state.amplitudes
    if basis == "rotated45":
        amps = rot45 @ amps
        # the check the rotated state's constructor makes
        _qutrit._check_norm(amps.tolist(), name)
    p = np.abs(amps) ** 2
    return settings, p[probes] / shares


def _record(cfg, mode, settings, values):
    return CoincidenceRecord(
        basis=cfg.basis,
        mode=mode,
        eta=cfg.detector_efficiency,
        total_pairs=cfg.total_pairs,
        counts=dict(zip(settings, values)),
        seed=cfg.seed if mode == "sampled" else None,
    )


def expected_coincidences(state, cfg):
    """Ideal (expected-value) coincidence record for a qutrit or a ququart.

    Every coincidence class claims its share of the (eta/2) N pairs that
    survive the beam splitter and the detectors.
    """
    settings, probs = _setting_probabilities(state, cfg.basis)
    scale = cfg.detector_efficiency / 2.0 * cfg.total_pairs
    return _record(cfg, "ideal", settings, (scale * probs).tolist())


def sample_coincidences(state, cfg):
    """Seeded noisy coincidence record for a qutrit or a ququart.

    Two-stage model: the number of detected coincidences is binomial with
    success probability eta/2 per generated pair, and those are split over
    the ordered settings by a single multinomial draw.  Identical
    (state, config) always reproduces identical counts.
    """
    if cfg.noise != "sampled":
        raise ValueError("sample_coincidences needs a config with noise='sampled'")
    settings, probs = _setting_probabilities(state, cfg.basis)
    rng = np.random.default_rng(cfg.seed)
    n_det = rng.binomial(cfg.total_pairs, cfg.detector_efficiency / 2.0)
    draws = rng.multinomial(n_det, probs / probs.sum())
    return _record(cfg, "sampled", settings, draws.tolist())


# older names, kept while callers move to the kind-generic builders
expected_coincidences_ququart = expected_coincidences
sample_coincidences_ququart = sample_coincidences
