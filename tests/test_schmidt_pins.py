"""Bit-level pins of the closed-form quantifiers.

SHA-256 digests of the raw bytes (signed zeros included) of every
`schmidt_decompose` weight and mode, of every `two_qubit_model` field, of
every `quantify` field but the entropy and of every qutrit `polarization`
field, over seeded states of each kind: Haar states, states with one or two
zero amplitudes, real states of mixed sign and both named families.  A change
to the closed forms, the polarization vectors they start from or the
two-qubit model that moves any bit fails here.  No path calls an eigensolver,
so the digests do not depend on how a LAPACK build rounds `eigh`; they were
recorded with numpy 2.4 on x86-64.  The entropy is instead held equal, bit
for bit, to `tensor.vn_entropy` of the report's own spectrum, which stays
true wherever numpy's `log2` rounds differently.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from biphoton import ququart, qutrit, tensor

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


def _floats(h, *xs):
    h.update(struct.pack(f"<{len(xs)}d", *xs))


def quantify_digest(kind, typ):
    h = hashlib.sha256()
    for s in states(kind, typ):
        if kind == "qutrit":
            rep = qutrit.quantify(s)
            _floats(h, rep.schmidt_k, rep.concurrence, rep.lambda_plus, rep.lambda_minus)
        else:
            rep = ququart.quantify(s)
            _floats(h, rep.schmidt_k, rep.i_concurrence, *rep.lambdas)
    return h.hexdigest()


def polarization_digest(typ):
    h = hashlib.sha256()
    for s in states("qutrit", typ):
        rep = qutrit.polarization(s)
        _floats(h, *rep.xi, rep.degree_p)
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


_QUANTIFY = {
    ("qutrit", "haar"):
        "6d66fc29e9f091d99f9bc558c581309e392688c3c35518f44278eac90b219cd5",
    ("qutrit", "zero1"):
        "98655e286b53d4ef2841b9dd2d66bdbcf0c91fdf70d0018dfe220127e5d87007",
    ("qutrit", "zero2"):
        "9319a7aa4b2ce83542a58778b43ed4db2ae2cc25e2ac94a2257c04fcdaf854ac",
    ("qutrit", "real"):
        "46eac4be6efdea1d3de364600459a0ad7223a9b5ea7b0c5f7d71f984a8bbd897",
    ("qutrit", "families"):
        "2da65608f720260123512b55259634caef5329d238c3aeceaab01d2079f722b2",
    ("ququart", "haar"):
        "9f92ff817bc30f9bc5ce6113cb05c8ddbbdeed57667ae57a9379dcacdc043566",
    ("ququart", "zero1"):
        "10b027c832d92dc5965596d3c24d478e822384d452d1c4f57b93353077f71765",
    ("ququart", "zero2"):
        "c3cfdd02705532a396c44265604cb4de0e5a6bda4de2f95b2ff24fe0c2d877dc",
    ("ququart", "real"):
        "875e047ea9f818fdff559e7d925cc714324457d948fad92943dd138a59c74974",
    ("ququart", "families"):
        "4bad6ca8736241b242b1ea0fd43ae3f79a1237d55643638efe61946680832100",
}

_POLARIZATION = {
    "haar": "efbfa935e100855f6f1c87f1f27048797b35f81562e66a9239698d0f231d7ff7",
    "zero1": "1061294c97aeb35236f5cdfb2fe0a6457fc58afd78723a2f96ad79d93e6bed60",
    "zero2": "c6fbd9d46ca8a6c5205776a7ba9056695a0b20d716d1f12c15d85f9bc42e8805",
    "real": "5903f7416d60356c823d2af9f9b65e2c604955c4f8149f2cb0e3a699444254a9",
    "families": "d12853725388b8910eac97dd3e1920c5dde5b7bf129ac29ab95d24633354d86a",
}


@pytest.mark.parametrize("kind, typ", sorted(_SCHMIDT))
def test_schmidt_decompose_bits_are_pinned(kind, typ):
    assert schmidt_digest(kind, typ) == _SCHMIDT[kind, typ]


@pytest.mark.parametrize("typ", sorted(_TWO_QUBIT))
def test_two_qubit_model_bits_are_pinned(typ):
    assert two_qubit_digest(typ) == _TWO_QUBIT[typ]


@pytest.mark.parametrize("kind, typ", sorted(_QUANTIFY))
def test_quantify_bits_are_pinned(kind, typ):
    assert quantify_digest(kind, typ) == _QUANTIFY[kind, typ]


@pytest.mark.parametrize("typ", sorted(_POLARIZATION))
def test_polarization_bits_are_pinned(typ):
    assert polarization_digest(typ) == _POLARIZATION[typ]


@pytest.mark.parametrize("kind, typ", sorted(_QUANTIFY))
def test_quantify_entropy_is_vn_entropy_of_its_spectrum(kind, typ):
    for s in states(kind, typ):
        if kind == "qutrit":
            rep = qutrit.quantify(s)
            lam = [rep.lambda_plus, rep.lambda_minus]
        else:
            rep = ququart.quantify(s)
            lam = list(rep.lambdas)
        # packed, so a -0.0 entropy fails against the oracle's 0.0
        assert struct.pack("<d", rep.entropy) == struct.pack("<d", tensor.vn_entropy(lam)), s


@pytest.mark.parametrize("kind, typ", sorted(_SCHMIDT))
def test_schmidt_arrays_are_one_contiguous_array_without_negative_zeros(kind, typ):
    # the digests hash contiguous copies, so they see none of this
    module = qutrit if kind == "qutrit" else ququart
    for s in states(kind, typ):
        dec = module.schmidt_decompose(s)
        m = dec.modes_first
        assert m is dec.modes_second
        assert m.dtype == np.complex128 and m.flags.c_contiguous
        assert dec.lambdas.dtype == np.float64 and dec.lambdas.flags.c_contiguous
        parts = np.concatenate([m.real.ravel(), m.imag.ravel(), dec.lambdas])
        assert not np.signbit(parts[parts == 0.0]).any(), s


# states on the kernel's edges, with the entropy they must print: P = 0
# (equal eigenvalues), lambda_minus = 0 (a product qutrit, +0.0), and
# ququarts with D = 0, whose small pair is exactly 0
_EDGE_ENTROPY = [
    ("qutrit", (0, 1, 0), 1.0),
    ("qutrit", (1, 0, -1), 1.0),
    ("qutrit", (1, 0, 0), 0.0),
    ("qutrit", (0, 0, 1j), 0.0),
    ("ququart", (1, 0, 0, 1), 2.0),
    ("ququart", (1, 1, 1, -1), 2.0),
    ("ququart", (1, 0, 0, 0), 1.0),
    ("ququart", (1, 2j, 0, 0), 1.0),
    ("ququart", (0.6, 0, -0.8j, 0), 1.0),
]


@pytest.mark.parametrize("kind, amps, entropy", _EDGE_ENTROPY)
def test_quantify_entropy_on_the_kernel_edges(kind, amps, entropy):
    if kind == "qutrit":
        rep = qutrit.quantify(qutrit.make_qutrit(*amps))
        lam = [rep.lambda_plus, rep.lambda_minus]
    else:
        rep = ququart.quantify(ququart.make_ququart(*amps))
        lam = list(rep.lambdas)
    packed = struct.pack("<d", rep.entropy)
    assert packed == struct.pack("<d", tensor.vn_entropy(lam))
    assert packed == struct.pack("<d", entropy)


@pytest.mark.parametrize("d", [2, 4])
def test_entropy_kernel_is_vn_entropy(d):
    rng = np.random.default_rng(d)
    cases = [(2.0 / d, 0.0), (1.0 / d, 1.0 / d), (0.5 + 0.5 / d, 0.5 / d)]
    for _ in range(2000):
        hi = (1.0 + rng.uniform()) / d
        cases += [(hi, hi), (hi, 0.0), (hi, hi * rng.uniform()),
                  (hi, hi * 10.0 ** rng.uniform(-300, -1))]
    for hi, lo in cases:
        want = tensor.vn_entropy([hi] * (d // 2) + [lo] * (d // 2))
        assert struct.pack("<d", qutrit._entropy(hi, lo, d)) == struct.pack("<d", want), (hi, lo)
