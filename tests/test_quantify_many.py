"""The array quantifiers qutrit.quantify_many and ququart.quantify_many
against the scalar quantify functions, state by state: within 1e-14 on
complex rows, bit for bit on real rows.  Also their shapes and the errors
that name a row."""

import numpy as np
import pytest

from biphoton import ququart, qutrit


rng = np.random.default_rng(20261020)

KINDS = {
    "qutrit": (qutrit, qutrit.make_qutrit, 3),
    "ququart": (ququart, ququart.make_ququart, 4),
}


def report_fields(rep):
    # every field of a report as an array, the ququart's lambdas as (..., 4)
    return {name: np.asarray(value) for name, value in vars(rep).items()}


def haar_rows(kind, n, real):
    # n states of a kind, Haar-random (real Gaussian rows when real), and
    # their amplitudes as the rows of an array
    module, make, width = KINDS[kind]
    raw = rng.normal(size=(n, width))
    if not real:
        raw = raw + 1j * rng.normal(size=(n, width))
    states = [make(*row) for row in raw]
    amps = np.array([s.amplitudes for s in states])
    return states, amps.real.copy() if real else amps


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_agrees_with_the_scalar_reports(kind, real):
    module = KINDS[kind][0]
    states, amps = haar_rows(kind, 2000, real)
    many = report_fields(module.quantify_many(amps))
    for i, state in enumerate(states):
        one = report_fields(module.quantify(state))
        for name, value in one.items():
            if real:
                assert np.array_equal(many[name][i], value), (name, i)
            else:
                assert np.abs(many[name][i] - value).max() <= 1e-14, (name, i)


# real rows on the branches of the spectrum and entropy kernels: products
# (a zero small eigenvalue), P = 0 (equal eigenvalues), ququarts with D = 0
# and near-products
EDGE_ROWS = {
    "qutrit": [[1, 0, 0], [0, 1, 0], [0, 0, -1], [1, 0, 1], [1, 0, -1], [0.6, 0, 0.8],
               [1, 1e-7, 0], [0.5, 0.5 * 2 ** 0.5, 0.5], [1, 2, 3]],
    "ququart": [[1, 0, 0, 0], [1, 0, 0, 1], [1, 1, 1, -1], [1, 1, 1, 1], [1, 0, 0, 1e-7],
                [0, 1, -1, 0], [1, 2, 3, 4]],
}


@pytest.mark.parametrize("kind", KINDS)
def test_edge_rows_give_the_scalar_bits(kind):
    module, make, _ = KINDS[kind]
    states = [make(*row) for row in EDGE_ROWS[kind]]
    many = report_fields(module.quantify_many(np.array([s.amplitudes for s in states]).real))
    for i, state in enumerate(states):
        for name, value in report_fields(module.quantify(state)).items():
            assert np.array_equal(many[name][i], value), (name, i)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, 1, 7])
def test_shapes(kind, n):
    module, _, width = KINDS[kind]
    _, amps = haar_rows(kind, n, real=False)
    fields = report_fields(module.quantify_many(amps.reshape(n, width)))
    for name, value in fields.items():
        assert value.shape == ((n, 4) if name == "lambdas" else (n,)), name
        assert value.dtype == float, name


@pytest.mark.parametrize("kind", KINDS)
def test_rejects_a_wrong_shape(kind):
    module, _, width = KINDS[kind]
    for shape in [(width,), (2, width + 1), (2, width - 1), (1, 2, width)]:
        with pytest.raises(ValueError, match=rf"shape \(n, {width}\)"):
            module.quantify_many(np.ones(shape))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scale", [1.0 + 2e-9, 1.0 - 2e-9, 0.0, 2.0])
def test_norm_error_names_the_row(kind, scale):
    module = KINDS[kind][0]
    _, amps = haar_rows(kind, 5, real=False)
    amps[3] *= scale
    with pytest.raises(ValueError, match=f"{kind} amplitudes of row 3 have squared norm"):
        module.quantify_many(amps)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)])
def test_non_finite_error_names_the_row(kind, bad):
    module = KINDS[kind][0]
    _, amps = haar_rows(kind, 5, real=False)
    amps[2, 1] = bad
    amps[4, 0] = bad
    with pytest.raises(ValueError, match=f"{kind} amplitudes must be finite, got row 2:"):
        module.quantify_many(amps)


@pytest.mark.parametrize("kind", KINDS)
def test_huge_parts_give_the_norm_error(kind):
    # finite parts whose squares overflow keep the norm message, as the
    # constructors do
    module = KINDS[kind][0]
    _, amps = haar_rows(kind, 3, real=True)
    amps[1, 0] = 1e200
    with pytest.raises(ValueError, match="row 1 have squared norm inf"):
        module.quantify_many(amps)
