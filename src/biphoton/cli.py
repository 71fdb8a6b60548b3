"""Command-line surface for the biphoton toolkit.

Results go to stdout as single-line JSON with sorted keys and fixed float
formatting, so identical invocations produce byte-identical output;
diagnostics go to stderr.  Sweeps emit CSV.  Exit codes: 0 on success, 2 for
input errors (bad flags, malformed JSON, impossible states), 3 for I/O
failures, 4 for contract mismatches between otherwise well-formed inputs
(wrong basis pairing, inconsistent records).  For reconstruct, a record that
is wrong on its own (an unknown basis or mode, a missing or foreign setting,
unusable counts) exits 2; well-formed records that are not one natural and
one rotated45 record of one kind, or that no state fits, exit 4.

The simulate subcommand copies any JSON lines arriving on stdin through to
stdout before appending its own record, so record pairs for reconstruction
can be built by piping:

    biphoton simulate --amplitudes '[0.6,0,0.8]' \
      | biphoton simulate --amplitudes '[0.6,0,0.8]' --basis rotated45 \
      | biphoton reconstruct

Any stdin that is not a terminal is read to its end first, so a first stage
that inherits a stdin left open (a job runner, a script without a terminal)
waits; give it < /dev/null there.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections import namedtuple

import numpy as np

from . import jsonio, measurement, qutrit, ququart, reconstruct

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_CONTRACT = 4

# On a 2-vCPU Xeon VM _sweep_rows takes 0.7 to 1.4 us per row at 10^4 and
# 10^5 rows, and main about 4 us per row, most of it the CSV's float repr; a
# grid-101 sweep takes 0.5 to 0.9 ms in main, and main's first call in a
# process about 0.9 ms more to build the parser
MAX_GRID = 10**6
# a sweep computes, formats and writes this many rows at a time, so only
# the grid itself grows with --grid
SWEEP_BLOCK = 65536


class InputError(Exception):
    """Bad user input; maps to exit code 2."""


class ContractError(Exception):
    """Well-formed inputs that do not fit together; maps to exit code 4."""


def _emit_json(payload):
    sys.stdout.write(jsonio.dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# state construction from flags
# ---------------------------------------------------------------------------

# the per-kind functions behind the subcommands
_Kind = namedtuple("_Kind", "make quantify schmidt density phases")

_KINDS = {
    "qutrit": _Kind(qutrit.make_qutrit, qutrit.quantify, qutrit.schmidt_decompose,
                    qutrit.density_matrix, reconstruct.qutrit_phases),
    "ququart": _Kind(ququart.make_ququart, ququart.quantify, ququart.schmidt_decompose,
                     ququart.density_matrix, reconstruct.ququart_phases),
}

# named state families: kind, parameter count and state builder
_FAMILIES = {
    "non_entangled": ("qutrit", 3, qutrit.non_entangled_family),
    "max_entangled": ("qutrit", 3, qutrit.max_entangled_family),
    "psi_phi": ("ququart", 1, lambda phi: ququart.family_psi_phi(phi)[0]),
    "psi_phi_prime": ("ququart", 1, ququart.family_psi_phi_prime),
}


def _add_state_args(p):
    p.add_argument("--kind", choices=("qutrit", "ququart"),
                   help="state kind; inferred from the amplitude count or family when omitted")
    p.add_argument("--amplitudes",
                   help="JSON list of amplitudes: numbers, [re, im] pairs or {re, im} objects")
    p.add_argument("--family", choices=_FAMILIES,
                   help="named state family instead of explicit amplitudes")
    p.add_argument("--param", action="append",
                   help="family parameters, comma separated or repeated; missing ones default to 0")


def _family_params(args, count):
    vals = []
    for chunk in args.param or []:
        for tok in chunk.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                val = float(tok)
            except ValueError:
                raise InputError(f"cannot read {tok!r} as a number")
            if not math.isfinite(val):
                raise InputError(f"family parameters must be finite, got {tok!r}")
            vals.append(val)
    if len(vals) > count:
        raise InputError(
            f"family {args.family!r} takes at most {count} parameter(s), got {len(vals)}"
        )
    return vals + [0.0] * (count - len(vals))


def _build_state(args):
    """Resolve the state flags to ("qutrit"|"ququart", state)."""
    if args.amplitudes and args.family:
        raise InputError("give either --amplitudes or --family, not both")
    if args.family:
        kind, count, build = _FAMILIES[args.family]
        params = _family_params(args, count)
        try:
            state = build(*params)
        except ValueError as e:
            # finite angles so large that a sum or a doubling overflows
            raise InputError(f"family {args.family!r} cannot take these parameters: {e}")
    elif args.amplitudes:
        try:
            raw = json.loads(args.amplitudes)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed JSON in --amplitudes: {e}")
        if not isinstance(raw, list) or len(raw) not in (3, 4):
            raise InputError("--amplitudes must be a JSON list of 3 or 4 entries")
        try:
            amps = [jsonio.complex_from_json(x) for x in raw]
        except ValueError as e:
            raise InputError(str(e))
        kind = "qutrit" if len(amps) == 3 else "ququart"
        try:
            state = _KINDS[kind].make(*amps)
        except qutrit.ZeroState as e:
            raise InputError(str(e))
    else:
        raise InputError("a state is required: give --amplitudes or --family")
    if args.kind and args.kind != kind:
        raise InputError(f"--kind {args.kind} does not match the given {kind} state")
    return kind, state


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_quantify(args):
    kind, state = _build_state(args)
    ops = _KINDS[kind]
    dec = ops.schmidt(state)
    # the report fields are named as the printed keys; jsonio prints the
    # arrays as they are, one Schmidt mode per row
    payload = {
        "schema": "report/1",
        "kind": kind,
        "amplitudes": state.amplitudes,
        "entanglement": dataclasses.asdict(ops.quantify(state)),
        "schmidt": {"lambdas": dec.lambdas, "modes": dec.modes_first.T},
    }
    if kind == "qutrit":
        payload["polarization"] = dataclasses.asdict(qutrit.polarization(state))
    if args.dump_density:
        payload["density_matrix"] = ops.density(state).tolist()
    _emit_json(payload)
    return EXIT_OK


def cmd_compare_2qubit(args):
    kind, state = _build_state(args)
    if kind != "ququart":
        raise InputError("compare-2qubit needs a ququart state")
    rep = ququart.quantify(state)
    two = ququart.two_qubit_model(state)
    payload = {
        "schema": "compare/1",
        "kind": kind,
        "amplitudes": state.amplitudes,
        "two_qudit": {
            "schmidt_k": rep.schmidt_k,
            "i_concurrence": rep.i_concurrence,
        },
        "two_qubit_model": {
            "schmidt_k": two.schmidt_k,
            "concurrence": two.concurrence,
        },
        "ratio": rep.schmidt_k / two.schmidt_k,
    }
    _emit_json(payload)
    return EXIT_OK


def _config_from_args(args):
    try:
        return measurement.ExperimentConfig(
            total_pairs=args.pairs,
            detector_efficiency=args.eta,
            basis=args.basis,
            noise=args.noise,
            seed=args.seed,
        )
    except ValueError as e:
        raise InputError(str(e))


def _passthrough_stdin():
    # echo piped-in records so simulate stages can be chained; a tty or
    # unreadable stdin simply means there is nothing to pass along
    try:
        if sys.stdin is None or sys.stdin.isatty():
            return
        for line in sys.stdin:
            stripped = line.rstrip("\n")
            if stripped.strip():
                sys.stdout.write(stripped + "\n")
    except (AttributeError, ValueError, OSError):
        return


def cmd_simulate(args):
    _, state = _build_state(args)
    cfg = _config_from_args(args)
    if cfg.noise == "sampled":
        rec = measurement.sample_coincidences(state, cfg)
    else:
        rec = measurement.expected_coincidences(state, cfg)
    _passthrough_stdin()
    _emit_json(rec.to_dict())
    return EXIT_OK


def _read_records(args):
    lines = []
    if args.records:
        for path in args.records:
            with open(path, "r") as fh:
                lines.extend(fh.read().splitlines())
    else:
        lines = [ln.rstrip("\n") for ln in sys.stdin]
    recs = []
    for ln in lines:
        if not ln.strip():
            continue
        try:
            doc = json.loads(ln)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed JSON record: {e}")
        try:
            recs.append(measurement.CoincidenceRecord.from_dict(doc))
        except ValueError as e:
            raise InputError(str(e))
    return recs


def cmd_reconstruct(args):
    recs = _read_records(args)
    if len(recs) != 2:
        raise ContractError(
            f"reconstruction needs exactly one natural and one rotated45 "
            f"record, got {len(recs)} record(s)"
        )
    try:
        ests = [reconstruct.magnitudes_from_record(r) for r in recs]
    except (reconstruct.IncompleteRecord, reconstruct.MalformedRecord) as e:
        raise InputError(str(e))
    try:
        est = reconstruct.merge_estimates(*ests)
    except ValueError as e:
        raise ContractError(str(e))
    try:
        result = _KINDS[est.kind].phases(est)
    except reconstruct.PhaseUnobservable as e:
        result = e.result
        print(f"warning: {e}", file=sys.stderr)
    except reconstruct.Inconsistent as e:
        raise ContractError(str(e))
    _emit_json(result.to_dict())
    return EXIT_OK


def _sweep_grid(family, grid_n):
    """The figure's header and its parameter grid, taken in full."""
    if not 2 <= grid_n <= MAX_GRID:
        raise InputError(f"--grid must lie in [2, {MAX_GRID}]")
    if family == "fig1":
        return ("c_plus", "K", "C", "S_r"), np.linspace(-1.0, 1.0, grid_n)
    return ("phi", "K", "C_I", "S_r"), np.linspace(0.0, math.pi, grid_n)


def _sweep_rows(family, x, first_row):
    """The columns of the rows at grid values x: the family parameter, K, C
    or C_I and S_r, from one quantify_many call on the family's amplitudes;
    a failing check names its row of the whole grid."""
    if family == "fig1":
        # from_bell of (C+, 0, sqrt(1 - C+^2)): C1 = C3 = C+/sqrt(2)
        c13 = x / qutrit.SQRT2
        c2 = np.sqrt(np.maximum(0.0, 1.0 - x * x))
        rep = qutrit.quantify_many(np.stack([c13, c2, c13], axis=1), first_row=first_row)
        return x, rep.schmidt_k, rep.concurrence, rep.entropy
    # math's cos and sin, as the family builders take them
    cos = np.fromiter(map(math.cos, x.tolist()), float, len(x))
    sin = np.fromiter(map(math.sin, x.tolist()), float, len(x))
    if family == "fig4":
        zero = np.zeros(len(x))
        amps = [cos, zero, zero, sin]  # family_psi_phi
    else:
        half = np.full(len(x), 0.5)
        amps = [cos / qutrit.SQRT2, half, half, sin / qutrit.SQRT2]  # family_psi_phi_prime
    rep = ququart.quantify_many(np.stack(amps, axis=1), first_row=first_row)
    return x, rep.schmidt_k, rep.i_concurrence, rep.entropy


def _write_sweep(out, family, header, grid):
    out.write(",".join(header) + "\n")
    for start in range(0, len(grid), SWEEP_BLOCK):
        out.write(jsonio.csv_rows(_sweep_rows(family, grid[start:start + SWEEP_BLOCK], start)))


def cmd_sweep(args):
    header, grid = _sweep_grid(args.family, args.grid)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                _write_sweep(fh, args.family, header, grid)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return EXIT_IO
    else:
        _write_sweep(sys.stdout, args.family, header, grid)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry points
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Biphoton qutrit/ququart entanglement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantify", help="entanglement and polarization report")
    _add_state_args(p)
    p.add_argument("--dump-density", action="store_true",
                   help="include the full two-photon density matrix "
                        "(4x4 for qutrits, 16x16 for ququarts)")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("sweep", help="CSV sweep of a named figure family")
    p.add_argument("--family", required=True, choices=("fig1", "fig4", "fig5"))
    p.add_argument("--grid", type=int, default=100,
                   help=f"number of grid points, 2 to {MAX_GRID}")
    p.add_argument("--out", help="CSV output path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="coincidence record for a state")
    _add_state_args(p)
    p.add_argument("--basis", choices=measurement.BASES, default="natural")
    p.add_argument("--eta", type=float, default=1.0,
                   help="detector/collection efficiency in (0, 1]")
    p.add_argument("--pairs", type=int, default=1_000_000,
                   help="number of generated pairs")
    p.add_argument("--noise", choices=measurement.NOISE_MODES, default="ideal")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct",
                       help="recover a state from a natural + rotated45 record pair")
    p.add_argument("records", nargs="*",
                   help="files holding one JSON record per line (stdin when omitted)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("compare-2qubit",
                       help="two-qudit vs frequency-blind two-qubit quantifiers")
    _add_state_args(p)
    p.set_defaults(func=cmd_compare_2qubit)

    return parser


# built on main's first call and kept for later calls in the same process:
# each parse_args call fills a fresh namespace, and a failed parse changes
# nothing in the parser
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return code if isinstance(code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except UnicodeDecodeError as e:
        print(f"error: input is not UTF-8 text: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def console_main():
    sys.exit(main())
