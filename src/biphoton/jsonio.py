"""Deterministic JSON and CSV formatting for the command-line surface.

Identical inputs must serialize to identical bytes, so the encoder sorts all
object keys and prints floats through a fixed 17-significant-digit format
(enough to round-trip any double).  Complex numbers become {"im": ..,
"re": ..} objects.  CSV cells use the shortest representation that
round-trips, which is what repr() gives for Python floats.
"""

import json
import math

import numpy as np


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number cannot be serialized")
    return "%.17g" % x


def csv_rows(columns):
    """CSV lines of float columns, one per row, each ending in a newline.

    Each cell is the shortest round-trip decimal form of its float, repr's.
    """
    row = ",".join(["%r"] * len(columns)) + "\n"
    cells = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    return "".join(map(row.__mod__, cells))


def csv_text(header, columns):
    """CSV text of float columns under a header line, as csv_rows writes them."""
    return ",".join(header) + "\n" + csv_rows(columns)


# what json.dumps calls for a str, without its encoder set-up on every call
_encode_str = json.encoder.encode_basestring_ascii


def _emit(o, out):
    # the exact types a result document is made of first, then isinstance,
    # which also takes their subclasses and numpy's types; no type is both a
    # container and a scalar, so the order decides nothing else
    t = type(o)
    if t is float:
        # format_float without its conversion; it raises for the rest
        out.append("%.17g" % o if math.isfinite(o) else format_float(o))
    elif t is str:
        out.append(_encode_str(o))
    elif t is dict or isinstance(o, dict):
        # an amplitude object of two finite floats in one format; the sum of
        # two floats is finite only when both parts are
        if t is dict and len(o) == 2:
            re, im = o.get("re"), o.get("im")
            if type(re) is float and type(im) is float and math.isfinite(re + im):
                out.append('{"im":%.17g,"re":%.17g}' % (im, re))
                return
        # every key before sorting, which fails on mixed types
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        sep = "{"
        for key in sorted(o):
            out.append(f"{sep}{_encode_str(key)}:")
            _emit(o[key], out)
            sep = ","
        out.append("}" if sep == "," else "{}")
    elif t is list or isinstance(o, (list, tuple, np.ndarray)):
        sep = "["
        for item in o.tolist() if isinstance(o, np.ndarray) else o:
            out.append(sep)
            _emit(item, out)
            sep = ","
        out.append("]" if sep == "," else "[]")
    elif isinstance(o, str):
        out.append(_encode_str(o))
    elif isinstance(o, bool):
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(format_float(o))
    elif isinstance(o, (complex, np.complexfloating)):
        _emit({"re": float(o.real), "im": float(o.imag)}, out)
    else:
        raise TypeError(f"cannot serialize {type(o).__name__}")


def dumps(obj):
    """Serialize to a deterministic single-line JSON string."""
    out = []
    _emit(obj, out)
    return "".join(out)


def complex_to_json(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def finite_number(value, what):
    """Return value if it is a finite JSON number (not a boolean).

    Raises ValueError for anything else: strings, containers, NaN, the
    infinities and integers too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def complex_from_json(obj):
    """Accept a plain number, an [re, im] pair or an {re, im} object.

    Both parts must be finite numbers; anything else raises ValueError.
    """
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = obj
    elif isinstance(obj, dict) and set(obj) == {"re", "im"}:
        re, im = obj["re"], obj["im"]
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        re, im = obj, 0.0
    else:
        raise ValueError(f"cannot read {obj!r} as a complex amplitude")
    what = "amplitude part"
    return complex(float(finite_number(re, what)), float(finite_number(im, what)))
