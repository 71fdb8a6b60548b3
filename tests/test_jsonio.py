"""Tests for deterministic JSON and CSV emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import jsonio


def test_floats_print_17_significant_digits():
    assert jsonio.format_float(1 / 3) == "0.33333333333333331"
    assert jsonio.format_float(0.5) == "0.5"
    assert jsonio.format_float(-2.0) == "-2"


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        jsonio.format_float(math.nan)
    with pytest.raises(ValueError):
        jsonio.format_float(math.inf)


def test_dumps_sorts_keys():
    out = jsonio.dumps({"b": 1, "a": 2})
    assert out == '{"a":2,"b":1}'


def test_dumps_complex_as_re_im_object():
    out = jsonio.dumps({"z": 1 + 2j})
    assert out == '{"z":{"im":2,"re":1}}'


def test_dumps_handles_numpy_scalars_and_arrays():
    doc = {"v": np.array([1.0, 0.25]), "n": np.int64(3), "x": np.float64(0.5)}
    parsed = json.loads(jsonio.dumps(doc))
    assert parsed == {"v": [1, 0.25], "n": 3, "x": 0.5}


def test_dumps_deterministic():
    doc = {"z": [0.1 + 0.2j, 3], "k": {"nested": [True, None]}}
    assert jsonio.dumps(doc) == jsonio.dumps(doc)


def test_complex_round_trip():
    z = 0.34 - 1.7j
    assert jsonio.complex_from_json(jsonio.complex_to_json(z)) == z
    assert jsonio.complex_from_json([1.5, -2.0]) == 1.5 - 2j
    assert jsonio.complex_from_json(4) == 4 + 0j


def test_complex_from_json_rejects_bool():
    with pytest.raises(ValueError):
        jsonio.complex_from_json(True)


def test_finite_number_rejects_an_integer_too_large_for_a_float():
    # math.isfinite raises OverflowError on such an integer
    with pytest.raises(ValueError, match="count must be a finite number"):
        jsonio.finite_number(10**400, "count")


def test_csv_text_round_trips():
    xs = [1 / 3, 0.1, -7.25, 1e-300]
    text = jsonio.csv_text(("x", "y"), (xs, np.array(xs[::-1])))
    lines = text.split("\n")
    assert lines[0] == "x,y" and lines[-1] == "" and len(lines) == len(xs) + 2
    for line, x, y in zip(lines[1:], xs, xs[::-1]):
        assert [float(v) for v in line.split(",")] == [x, y]
        assert line == f"{x!r},{y!r}"


# ---------------------------------------------------------------------------
# dumps against the recursive encoder it replaced

def reference_emit(o, out):
    # one isinstance chain for every value, json.dumps for every string
    if isinstance(o, str):
        out.append(json.dumps(o))
    elif isinstance(o, bool):
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(jsonio.format_float(o))
    elif isinstance(o, (complex, np.complexfloating)):
        reference_emit({"re": float(o.real), "im": float(o.imag)}, out)
    elif isinstance(o, dict):
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        out.append("{")
        first = True
        for key in sorted(o):
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key))
            out.append(":")
            reference_emit(o[key], out)
        out.append("}")
    elif isinstance(o, (list, tuple, np.ndarray)):
        seq = o.tolist() if isinstance(o, np.ndarray) else o
        out.append("[")
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            reference_emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(o).__name__}")


def outcome(dump, doc):
    try:
        return dump(doc)
    except (TypeError, ValueError) as e:
        return type(e), str(e)


def reference_dumps(doc):
    out = []
    reference_emit(doc, out)
    return "".join(out)


# keys and strings with non-ASCII letters, control characters and quotes
text = st.text(st.characters(codec="utf-8"), max_size=6)
finite = st.floats(allow_nan=False, allow_infinity=False)
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    finite, st.integers(-10**30, 10**30), st.booleans(), st.none(), text,
    finite.map(np.float64), finite32.map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    text.map(np.str_),
    st.lists(finite, max_size=4).map(np.array),
    st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), max_size=3).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
)
# a float as a result document may hold one: a Python float, -0.0, a numpy
# float64, or a bool beside the floats
part = st.one_of(finite, st.just(-0.0), finite.map(np.float64), st.booleans())


def solutions(part):
    amplitude = st.one_of(
        st.fixed_dictionaries({"re": part, "im": part}),
        st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    )
    solution = st.lists(amplitude, min_size=3, max_size=4)
    return st.one_of(solution, solution.map(tuple))


def recon_documents(residual, part=part):
    """recon/1-shaped documents: amplitudes, nested alternates, warnings."""
    solution = solutions(part)
    return st.fixed_dictionaries({
        "schema": st.just("recon/1"), "kind": st.sampled_from(["qutrit", "ququart"]),
        "amplitudes": solution, "residual": residual,
        "alternates": st.one_of(st.lists(solution, max_size=3),
                                st.lists(solution, max_size=3).map(tuple)),
        "gauge": text, "warnings": st.lists(text, max_size=2),
    })


documents = st.one_of(
    st.recursive(
        numbers,
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.lists(inner, max_size=4).map(tuple),
                                st.dictionaries(st.one_of(text, text.map(np.str_)), inner,
                                                max_size=4)),
        max_leaves=20,
    ),
    recon_documents(part),
)
# each leaf that cannot be written: non-finite numbers, an unknown type,
# and an object whose keys are not all strings
unwritable = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                              complex(0, math.inf), np.array([1.0, math.nan]), object(), {1, 2},
                              b"x", {1: 2}, {"a": 1, 2: 3}])
documents_with_errors = st.one_of(
    st.recursive(
        st.one_of(numbers, unwritable),
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(text, inner, max_size=4)),
        max_leaves=12,
    ),
    recon_documents(st.one_of(part, unwritable)),
    # amplitude objects with a part that is not finite, a float among them
    recon_documents(part, st.one_of(part, st.sampled_from(
        [math.nan, math.inf, -math.inf, np.float64(math.inf)]))),
)
REFERENCE = settings(max_examples=300, deadline=None, derandomize=True)


@REFERENCE
@given(documents)
def test_dumps_matches_the_reference_encoder(doc):
    assert jsonio.dumps(doc) == reference_dumps(doc)


@REFERENCE
@given(documents_with_errors)
def test_dumps_fails_as_the_reference_encoder_does(doc):
    assert outcome(jsonio.dumps, doc) == outcome(reference_dumps, doc)


@pytest.mark.parametrize("doc, error, message", [
    ({1: 2}, TypeError, "JSON object keys must be strings, got 1"),
    pytest.param({"a": [1, {"b": 2, (1,): 3}]}, TypeError,
                 r"JSON object keys must be strings, got \(1,\)", id="doc1-TypeError-mixed keys"),
    ([0.5, math.nan], ValueError, "non-finite number cannot be serialized"),
    ({"x": -math.inf}, ValueError, "non-finite number cannot be serialized"),
    (np.array([math.inf]), ValueError, "non-finite number cannot be serialized"),
    ([object()], TypeError, "cannot serialize object"),
    ({"s": {1, 2}}, TypeError, "cannot serialize set"),
])
def test_dumps_errors_match_the_reference_encoder(doc, error, message):
    with pytest.raises(error, match=message):
        jsonio.dumps(doc)
    assert outcome(jsonio.dumps, doc) == outcome(reference_dumps, doc)


class Subdict(dict):
    # a lookup of its own, which the encoder must use
    def __getitem__(self, key):
        return -dict.__getitem__(self, key)


@pytest.mark.parametrize("doc", [
    {"re": 0.5, "im": -0.0},
    {"re": 1e308, "im": 1e308},
    {"re": np.float64(0.5), "im": 0.25},
    {"re": 0.5, "im": np.float64(-2.0)},
    {"re": 1, "im": 0.5},
    {"re": 0.5, "im": True},
    {"re": 0.5, "im": 0.25, "x": 1.0},
    {"re": 0.5, "x": 0.25},
    Subdict(re=0.5, im=0.25),
    [{"re": 0.1, "im": 0.2}, {"im": 1 / 3, "re": -2.0}],
], ids=["floats", "sum-overflows", "np-re", "np-im", "int-re", "bool-im", "extra-key",
        "other-key", "dict-subclass", "list"])
def test_amplitude_objects_match_the_reference_encoder(doc):
    assert jsonio.dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("re, im", [
    (math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (0.5, -math.inf),
    (math.inf, -math.inf), (np.float64(math.nan), 0.5),
])
def test_amplitude_objects_with_a_part_not_finite_fail_as_the_reference_encoder_does(re, im):
    for doc in ({"re": re, "im": im}, [{"re": re, "im": im}], Subdict(re=re, im=im)):
        with pytest.raises(ValueError, match="non-finite number cannot be serialized"):
            jsonio.dumps(doc)
        assert outcome(jsonio.dumps, doc) == outcome(reference_dumps, doc)
