"""Seeded workload inputs.

Every state is drawn from the benchmark seed; the package only ever sees the
resulting amplitudes.  State types follow a fixed cycle per kind, so the
share of each type is the same for every seed and only the values change.

The mix is a chosen test mix, not measured traffic: the package has no
recorded users.  Generic states are drawn as acceptance criteria 8 and 9
draw theirs (normalised complex Gaussian amplitudes, i.e. Haar-random).  The
three special types are a declared minority, one of each per eight states,
there to exercise the solver paths that generic states never reach.  The
benchmark reports timings per kind and per type, so a gain on one type can
be told apart from the weight this mix gives it.
"""

import json

import numpy as np

DIMS = {"qutrit": 3, "ququart": 4}

# generic: Haar-random complex amplitudes (acceptance criteria 8 and 9).
# zero1 / zero2: one / two amplitudes exactly zero, so the solver pins their
#   phases and searches a smaller grid (or reports PhaseUnobservable).
# real: real amplitudes of mixed sign, each at least REAL_MIN in magnitude;
#   the phase equations then have tangential double roots.  (A real ququart
#   with an amplitude just above the zero threshold is a different case: the
#   seed's solver spent 5.8 s on one from ideal records.)
TYPE_CYCLE = ("generic", "zero1", "generic", "real", "generic", "zero2", "generic", "generic")

# keeps the streams of different workloads apart for one seed
_STREAM = {"tomography": 1, "quantify": 2, "replay": 4}


class Sample:
    """One input state: kind, unit-norm amplitudes, type and a record seed."""

    __slots__ = ("kind", "amps", "typ", "record_seed")

    def __init__(self, kind, amps, typ, record_seed):
        self.kind = kind
        self.amps = amps
        self.typ = typ
        self.record_seed = record_seed

    def amplitudes_json(self):
        return json.dumps([[float(c.real), float(c.imag)] for c in self.amps])


REAL_MIN = 0.1


def _draw(rng, kind, typ):
    d = DIMS[kind]
    if typ == "real":
        while True:
            v = rng.normal(size=d)
            v /= np.linalg.norm(v)
            if np.abs(v).min() >= REAL_MIN:
                return v.astype(complex)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    if typ in ("zero1", "zero2"):
        v[rng.choice(d, size=int(typ[-1]), replace=False)] = 0.0
    return v / np.linalg.norm(v)


def samples(seed, stream, n, types=TYPE_CYCLE):
    """n samples alternating qutrit and ququart; each kind runs through the
    `types` cycle on its own."""
    rng = np.random.default_rng([seed, _STREAM[stream]])
    drawn = dict.fromkeys(DIMS, 0)
    out = []
    for i in range(n):
        kind = ("qutrit", "ququart")[i % 2]
        typ = types[drawn[kind] % len(types)]
        drawn[kind] += 1
        out.append(Sample(kind, _draw(rng, kind, typ), typ,
                          int(rng.integers(0, 2**31 - 2))))
    return out


def with_record_seeds(pool, seed, stream, draw=0):
    """The same states, with the seeds of their sampled records drawn from
    `seed`; each `draw` gives other records."""
    rng = np.random.default_rng([seed, _STREAM[stream], draw])
    return [Sample(s.kind, s.amps, s.typ, int(rng.integers(0, 2**31 - 2))) for s in pool]


def one_of_each_type(seed):
    """One sample per (kind, type): the fixed set the traced replay uses."""
    types = ("generic", "zero1", "zero2", "real")
    return samples(seed, "replay", 2 * len(types), types=types)


def shares(pool):
    """Share of the states that have a zero amplitude, and that are real."""
    n = len(pool)
    zero = sum(1 for s in pool if s.typ in ("zero1", "zero2"))
    real = sum(1 for s in pool if s.typ == "real")
    return {"below_threshold_share": zero / n, "real_share": real / n}
