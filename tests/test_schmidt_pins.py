"""Bit-level pins of the Schmidt path and the two-qubit model.

SHA-256 digests of the raw bytes (signed zeros included) of every
`schmidt_decompose` weight and mode and of every `two_qubit_model` field, over
seeded states of each kind: Haar states, states with one or two zero
amplitudes, real states of mixed sign and both named families.  A change to
`tensor.takagi`, `tensor.schmidt_from_symmetric` or the amplitude matrices
that moves any bit fails here.  The digests were recorded with numpy 2.4 on
OpenBLAS 0.3.31 (x86-64); another LAPACK build may round `eigh` differently.
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
        "dc595723bf88905ed9e062792166938914d8ab100ed23d48026e0f9c0e9a95db",
    ("qutrit", "zero1"):
        "21c738dc5c4313913ee096c9f91f988aff608ca6e4f65f02ffdcf065e11585fa",
    ("qutrit", "zero2"):
        "bcb9256230a06cfd6370d70a03c35a7fe6db21c235128e85c025ff33badad047",
    ("qutrit", "real"):
        "f544d384b89d4fafc88050f40bfb753f8b90b8753b5ee6106d75caab5e358b85",
    ("qutrit", "families"):
        "58625523d877f9c50d89b06ebef272e6555670a6e460d232172a0a70629d4e73",
    ("ququart", "haar"):
        "e433ff4dbd04eacf575cc9693b0b1d127a46de806d3fd4587a9eb9c3057f5d86",
    ("ququart", "zero1"):
        "c6833f74756902d6d14fba9938f4feb69c321bd78c34591b479a74f7d6044af0",
    ("ququart", "zero2"):
        "be2785ee4129137350e89c2c2b4433afd2a629f4b0697c796af75cddda316afd",
    ("ququart", "real"):
        "7af447f68c89d7881cfeaae7364a75fc7410b91e04282de48dd554048a055f20",
    ("ququart", "families"):
        "fb54a889071917053fcfc2cf0be118ec8c70b59d62bf7edf8b918eca69284a61",
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
