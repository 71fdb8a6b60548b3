"""Bit-level pins of the Schmidt path and the two-qubit model.

SHA-256 digests of the raw bytes (signed zeros included) of every
`schmidt_decompose` weight and mode and of every `two_qubit_model` field, over
seeded states of each kind: Haar states, states with one or two zero
amplitudes, real states of mixed sign and both named families.  A change to
the closed-form Schmidt decompositions, the polarization vectors they start
from or the two-qubit model that moves any bit fails here.  Neither path
calls an eigensolver, so the digests no longer depend on how a LAPACK build
rounds `eigh`; they were recorded with numpy 2.4 on x86-64.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from biphoton import ququart, qutrit

PER_TYPE = 250
FAMILY_ANGLES = np.linspace(0.0, math.pi, 61)
TYPES = ("haar", "zero1", "zero2", "real")
_MAKE = {"qutrit": qutrit.make_qutrit, "ququart": ququart.make_ququart}
_SEED = {"qutrit": 3, "ququart": 4}


def seeded_states(kind, typ):
    d = 3 if kind == "qutrit" else 4
    rng = np.random.default_rng([_SEED[kind], TYPES.index(typ)])
    out = []
    for _ in range(PER_TYPE):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        if typ == "real":
            v = v.real
        elif typ in ("zero1", "zero2"):
            v[rng.choice(d, size=int(typ[-1]), replace=False)] = 0.0
        out.append(_MAKE[kind](*v.tolist()))
    return out


def family_states(kind):
    if kind == "qutrit":
        return [f(phi, 0.3 * phi, -0.7 * phi)
                for f in (qutrit.non_entangled_family, qutrit.max_entangled_family)
                for phi in FAMILY_ANGLES]
    return ([ququart.family_psi_phi(phi)[0] for phi in FAMILY_ANGLES]
            + [ququart.family_psi_phi_prime(phi) for phi in FAMILY_ANGLES])


def states(kind, typ):
    return family_states(kind) if typ == "families" else seeded_states(kind, typ)


def _array(h, a):
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def schmidt_digest(kind, typ):
    module = qutrit if kind == "qutrit" else ququart
    h = hashlib.sha256()
    for s in states(kind, typ):
        dec = module.schmidt_decompose(s)
        for a in (dec.lambdas, dec.modes_first, dec.modes_second):
            _array(h, a)
    return h.hexdigest()


def two_qubit_digest(typ):
    h = hashlib.sha256()
    for s in states("ququart", typ):
        rep = ququart.two_qubit_model(s)
        h.update(struct.pack("<dd", rep.schmidt_k, rep.concurrence))
        _array(h, rep.reduced)
    return h.hexdigest()


_SCHMIDT = {
    ("qutrit", "haar"):
        "48f3fad54f932e47c953e2b1da25045bb234efba6a327f3b7fa4a4f944dde99f",
    ("qutrit", "zero1"):
        "7d045cafc3cb87aa0b3a118dbb14de41be160f82409c140798d31326f1f0c4a6",
    ("qutrit", "zero2"):
        "c1997a1c7613229c76f6eb96f01a2fc682c5ee0353c6f8659960464e91712a5a",
    ("qutrit", "real"):
        "6188c84262870d159a3cdff06fbbcec34bb5c4900b261c06a49efa7c93ca358d",
    ("qutrit", "families"):
        "abc3537e4e175cda343de41044d6b643f73507eadc483aa7e4c9dd3ae0b8a5dd",
    ("ququart", "haar"):
        "0288613272ed698a0a1439728134462be071ce848aa17440c46b6b08387fbb6e",
    ("ququart", "zero1"):
        "70859f07a68b5ec94e3471b6fcee14c9b6961a7cffd512a8c018e1ee5d5b9bf2",
    ("ququart", "zero2"):
        "62e51f44443736387f227297d271b085aa3c580274e68c7ebd8088ec9a13df34",
    ("ququart", "real"):
        "78fba1bb3a8d1ec4d404728283d197f2443ca98219ead41f3019262f0d67a167",
    ("ququart", "families"):
        "092fbba4e14e1d9eb4605b3967a3fa61ec07b08f2aa5f74d8ec4a214c38f8b01",
}

_TWO_QUBIT = {
    "haar": "a10cbb95a34efe3f7aa33e92f171ab9d713b108d06088ed4e1c936b0bb157300",
    "zero1": "25b72ae15aeecd882c8b343c281359d15df2b50e428b3e473eced1286ad10930",
    "zero2": "00ccd2052e84be7eb2d1179a8ed6c6799a000ddeed1e09f90566c4aa2fe9c16d",
    "real": "40ef09ed85ca99fc9c7813d3cdb14404cdcfad15922b33062dc2ba083b8b1e96",
    "families": "4f9e1e6d0ae1c0312cf31d40d63f50563422b159dacd254a8342fac184f59acc",
}


@pytest.mark.parametrize("kind, typ", sorted(_SCHMIDT))
def test_schmidt_decompose_bits_are_pinned(kind, typ):
    assert schmidt_digest(kind, typ) == _SCHMIDT[kind, typ]


@pytest.mark.parametrize("typ", sorted(_TWO_QUBIT))
def test_two_qubit_model_bits_are_pinned(typ):
    assert two_qubit_digest(typ) == _TWO_QUBIT[typ]
