"""Property test of the CLI contract over fuzzed argv and stdin.

For every input, well-formed or not, `cli.main` must return 0, 2, 3 or 4,
print no traceback, and print the same stdout bytes when run twice.  The CLI
runs in process with stdin, stdout and stderr redirected.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biphoton import cli, measurement, qutrit, ququart

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_IO, cli.EXIT_CONTRACT}


def run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, stdin=""):
    code, out, err = run(argv, stdin)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert run(argv, stdin)[:2] == (code, out), argv


# ---------------------------------------------------------------------------
# strategies

reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e300, 5e-324]),
    st.integers(-10**400, 10**400),
)
amplitude = st.one_of(
    reals,
    st.lists(reals, min_size=2, max_size=2),
    st.fixed_dictionaries({"re": reals, "im": reals}),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)
finite = st.floats(allow_nan=False, allow_infinity=False)
amplitudes_flag = st.one_of(
    st.lists(st.one_of(finite, st.lists(finite, min_size=2, max_size=2)),
             min_size=3, max_size=4).map(json.dumps),
    st.lists(amplitude, min_size=3, max_size=4).map(json.dumps),
    st.lists(amplitude, max_size=6).map(json.dumps),
    st.text(max_size=12),
)
number_text = st.one_of(
    reals.map(repr), st.sampled_from(["nan", "inf", "-inf", "1e999", "", ",", "x"]),
)
state_args = st.one_of(
    st.tuples(st.just("--amplitudes"), amplitudes_flag),
    st.tuples(
        st.just("--family"),
        st.sampled_from(tuple(cli._FAMILIES) + ("bogus",)),
        st.just("--param"),
        st.lists(number_text, max_size=4).map(",".join),
    ),
    st.tuples(),
).map(list)
kind_args = st.one_of(st.just([]), st.sampled_from(["qutrit", "ququart", "x"]).map(
    lambda k: ["--kind", k]))
big_ints = st.one_of(st.integers(-10, 10**7), st.integers(-10**30, 10**30))


@st.composite
def simulate_args(draw):
    argv = draw(state_args) + draw(kind_args)
    argv += ["--basis", draw(st.sampled_from(measurement.BASES + ("diagonal",)))]
    argv += ["--noise", draw(st.sampled_from(measurement.NOISE_MODES))]
    if draw(st.booleans()):
        argv += ["--eta", repr(draw(reals))]
    if draw(st.booleans()):
        argv += ["--pairs", str(draw(big_ints))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(big_ints))]
    return argv


argvs = st.one_of(
    st.tuples(st.just(["quantify"]), state_args, kind_args,
              st.sampled_from([[], ["--dump-density"]])).map(lambda t: sum(t, [])),
    st.tuples(st.just(["compare-2qubit"]), state_args, kind_args).map(lambda t: sum(t, [])),
    simulate_args().map(lambda a: ["simulate"] + a),
    st.tuples(
        st.sampled_from(["fig1", "fig4", "fig5", "fig2"]),
        # sizes beyond the --grid bound are drawn too; valid ones stay small
        # here, and run to a few thousand in the sweep property below
        st.one_of(st.integers(-3, 20), st.integers(cli.MAX_GRID + 1, 10**30)),
    ).map(lambda t: ["sweep", "--family", t[0], "--grid", str(t[1])]),
    st.lists(st.text(max_size=8), max_size=4),
)


@st.composite
def record_lines(draw):
    """Two or so record lines: true records of one state, then mutated."""
    make = draw(st.sampled_from([qutrit.make_qutrit, ququart.make_ququart]))
    dim = 3 if make is qutrit.make_qutrit else 4
    amps = draw(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False),
                         min_size=dim, max_size=dim).filter(lambda a: any(a)))
    try:
        state = make(*amps)
    except qutrit.ZeroState:
        state = make(*([1.0] + [0.0] * (dim - 1)))
    noise = draw(st.sampled_from(measurement.NOISE_MODES))
    pairs = draw(st.integers(1, 10**7))
    docs = []
    for basis in measurement.BASES:
        cfg = measurement.ExperimentConfig(total_pairs=pairs, basis=basis, noise=noise,
                                           seed=draw(st.integers(0, 2**32)))
        build = (measurement.sample_coincidences if noise == "sampled"
                 else measurement.expected_coincidences)
        docs.append(build(state, cfg).to_dict())
    for _ in range(draw(st.integers(0, 3))):
        doc = docs[draw(st.integers(0, len(docs) - 1))]
        target = draw(st.sampled_from(["counts", "top"]))
        counts = doc.get("counts")
        where = counts if target == "counts" and isinstance(counts, dict) else doc
        key = draw(st.one_of(st.sampled_from(sorted(where)), st.text(max_size=5)))
        value = draw(st.one_of(reals, st.text(max_size=4), st.none(),
                               st.sampled_from(["natural", "rotated45", "sampled", "ideal"])))
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = value
    lines = [json.dumps(d) for d in draw(st.permutations(docs))]
    extra = draw(st.sampled_from([[], [""], ["{"], ["[]"], [lines[0]]]))
    return "\n".join(lines + extra) + "\n"


# ---------------------------------------------------------------------------
# properties

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(argvs)
def test_cli_contract_over_argv(argv):
    check_contract(argv)


@FUZZ
@given(record_lines(), st.sampled_from([["reconstruct"], ["simulate", "--amplitudes", "[1,0,0]"]]))
def test_cli_contract_over_record_stdin(stdin, argv):
    check_contract(argv, stdin)


@FUZZ
@given(st.sampled_from(["fig1", "fig4", "fig5"]), st.integers(2, 4096))
def test_cli_contract_over_sweep_grids(family, grid):
    # valid grids up to a few thousand rows: the array quantifiers' lengths
    # end on every SIMD remainder
    check_contract(["sweep", "--family", family, "--grid", str(grid)])
