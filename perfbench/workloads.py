"""The two workloads and the traced replay of single layers.

A workload is a closed loop with one caller over a fixed pool of seeded
states: `passes()` yields, pass after pass, the operations that cover the
whole pool once.  The runner times each `op.run(tracer)` and then calls
`check(op, outcome)` outside the timed region.  Every run times whole
passes, so it times the same states however fast the machine is.
Operations call the package's public functions from outside, each through
`tracer.call`, so a traced run records one span per call.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np

from biphoton import cli, jsonio, measurement, qutrit, ququart, reconstruct, tensor

import gates
import inputs

PAIRS = 10**6                 # pairs per record, as in acceptance criteria 8 and 9
MODES = ("ideal", "sampled")
SWEEP_FAMILIES = ("fig1", "fig4", "fig5")
SWEEP_GRID = 101
QUANTIFY_POOL = 2048          # 1024 states of each kind
# 16 states of each kind, two turns of the type cycle: a pass takes 19 s on
# a 2-vCPU Xeon VM (a ququart costs about seven qutrits).
TOMOGRAPHY_POOL = 32
# The tomography states are the same in every run; the seed draws the noise
# of their sampled records, afresh for each pass.  Solve times of single generic states spread by
# about 30 % (45-250 ms for qutrits), so with a pool drawn from each seed the
# per-kind medians moved by about 0.16 of their value from seed to seed
# (quartile distance over ten seeds, bootstrapped from measured per-state
# times), too much of a 0.25 bound to leave for the machine's own noise.
TOMOGRAPHY_STATES_SEED = 0
PROC_TIMEOUT_S = 60

_MAKE = {"qutrit": qutrit.make_qutrit, "ququart": ququart.make_ququart}
_SIMULATE = {
    ("qutrit", "ideal"): measurement.expected_coincidences,
    ("qutrit", "sampled"): measurement.sample_coincidences,
    ("ququart", "ideal"): measurement.expected_coincidences_ququart,
    ("ququart", "sampled"): measurement.sample_coincidences_ququart,
}
_SOLVE = {"qutrit": reconstruct.qutrit_phases, "ququart": reconstruct.ququart_phases}
_SIM_SPAN = {"ideal": "measurement.expected", "sampled": "measurement.sampled"}


def modes_for(sample):
    """Record types reconstructed for a state.

    Real-amplitude states get ideal records only: sampled noise splits their
    double roots, and the seed solver then takes from seconds up to 110 s for
    one reconstruction, longer than a run may last.
    """
    return ("ideal",) if sample.typ == "real" else MODES


class Op:
    """One timed operation: a request the closed-loop caller makes."""

    __slots__ = ("name", "kind", "label", "unit", "weight", "run", "ctx")

    def __init__(self, name, kind, label, unit, run, ctx=None, weight=1):
        self.name = name      # span name of the whole operation
        self.kind = kind      # "qutrit" / "ququart" (or "sweep")
        self.label = label    # input class its time is reported under
        self.unit = unit      # unit id shared by the spans of one input
        self.weight = weight  # states it handles, for the throughput figure
        self.run = run
        self.ctx = ctx


def reconstruct_one(tr, sample, state, mode):
    """Simulate both records, extract magnitudes, solve phases, serialize."""
    sim = _SIMULATE[sample.kind, mode]
    cfg_n = measurement.ExperimentConfig(
        total_pairs=PAIRS, noise=mode, seed=sample.record_seed)
    cfg_r = measurement.ExperimentConfig(
        total_pairs=PAIRS, basis="rotated45", noise=mode, seed=sample.record_seed + 1)
    rec_n = tr.call(_SIM_SPAN[mode], sim, state, cfg_n)
    rec_r = tr.call(_SIM_SPAN[mode], sim, state, cfg_r)
    est_n = tr.call("reconstruct.magnitudes", reconstruct.magnitudes_from_record, rec_n)
    est_r = tr.call("reconstruct.magnitudes", reconstruct.magnitudes_from_record, rec_r)
    est = tr.call("reconstruct.merge_estimates", reconstruct.merge_estimates, est_n, est_r)
    try:
        res = tr.call(f"reconstruct.{sample.kind}_phases.{mode}", _SOLVE[sample.kind], est)
    except reconstruct.PhaseUnobservable as e:
        res = e.result
    return est, res, tr.call("jsonio.dumps", jsonio.dumps, res.to_dict())


class Tomography:
    """Record simulation and two-basis reconstruction, in process.

    Every pass reconstructs the same states, each sampled record from noise
    of its own: criterion 9 is a statement about many records, and one pass
    holds 28.  The per-pass noise draws depend on the seed alone, so a run
    that repeats passes (the traced run) repeats the same records.
    """

    def __init__(self, seed):
        self.seed = seed
        self.pool = inputs.samples(TOMOGRAPHY_STATES_SEED, "tomography", TOMOGRAPHY_POOL)
        self.samples = inputs.with_record_seeds(self.pool, seed, "tomography")
        self.states = [_MAKE[s.kind](*s.amps) for s in self.samples]
        # keyed by (pool index, pass): each record counts once, and a repeat
        # of a record must reproduce it
        self.deviations = {}
        self.real_deficits = {}

    def passes(self):
        unit = 0
        for n in itertools.count():
            samples = inputs.with_record_seeds(self.pool, self.seed, "tomography", n)
            ops = []
            for k, (sample, state) in enumerate(zip(samples, self.states)):
                for mode in modes_for(sample):
                    ops.append(Op("tomography.op", sample.kind,
                                  f"{sample.kind}.{sample.typ}.{mode}", unit,
                                  functools.partial(reconstruct_one, sample=sample,
                                                    state=state, mode=mode),
                                  ctx=(k, n, sample, mode)))
                unit += 1
            yield ops

    def check(self, op, out):
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        k, n, sample, mode = op.ctx
        err = self._error(k, n, sample, mode, *out)
        return f"{sample.kind} {sample.typ} {mode} #{op.unit}: {err}" if err else None

    def _error(self, k, n, sample, mode, est, res, text):
        if json.loads(text).get("schema") != "recon/1":
            return "result JSON lacks the recon/1 schema"
        sols = [s.amplitudes for s in res.solutions()]
        if mode == "ideal" and sample.typ == "real":
            err = gates.repeat_error(self.real_deficits, k,
                                     1.0 - gates.truth_overlap(sols, sample.amps))
            return (err or gates.truth_error(sols, sample.amps, gates.DOUBLE_ROOT_OVERLAP)
                    or gates.real_shortcut_error(sample.kind, est, sample.amps))
        if mode == "ideal":
            return gates.truth_error(sols, sample.amps)
        c_true = gates.entanglement(sample.kind, sample.amps)
        deviation = min(abs(gates.entanglement(sample.kind, a) - c_true) for a in sols)
        return gates.repeat_error(self.deviations, (k, n), deviation)

    def finish(self):
        return gates.sampled_error(list(self.deviations.values()))

    def notes(self):
        d = list(self.real_deficits.values())
        dev = list(self.deviations.values())
        return {"sampled_records": len(dev),
                "sampled_records_over_p95_max":
                    int(sum(x > gates.SAMPLED_P95_MAX for x in dev)),
                "real_ideal_solves": len(d),
                "real_solver_misses": int(sum(x > 1.0 - gates.TRUTH_OVERLAP for x in d)),
                "real_worst_truth_deficit": float(max(d, default=0.0))}


def _quantify_qutrit(tr, state):
    return (tr.call("qutrit.quantify", qutrit.quantify, state),
            tr.call("qutrit.polarization", qutrit.polarization, state),
            tr.call("qutrit.schmidt_decompose", qutrit.schmidt_decompose, state))


def _quantify_ququart(tr, state):
    return (tr.call("ququart.quantify", ququart.quantify, state),
            tr.call("ququart.schmidt_decompose", ququart.schmidt_decompose, state),
            tr.call("ququart.two_qubit_model", ququart.two_qubit_model, state))


_QUANTIFY = {"qutrit": _quantify_qutrit, "ququart": _quantify_ququart}


def _quantify_batch(tr, kind, states):
    one = _QUANTIFY[kind]
    return [one(tr, s) for s in states]


def _main_captured(argv, stdin_text=""):
    """cli.main in process with stdin fed from a string and stdout captured."""
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


def sweep(tr, family):
    argv = ["sweep", "--family", family, "--grid", str(SWEEP_GRID)]
    return tr.call("cli.main.sweep", _main_captured, argv)


class Quantify:
    """Closed-form quantifiers with their call-time oracles, plus figure
    sweeps through cli.main; no record simulation and no phase solver.

    An operation quantifies every state of one kind in the pool, a batch of
    a few hundred milliseconds: single calls take about 0.1 ms, and the
    machine's speed changes on a scale of 0.1 s, so a median over single
    calls would jump with the share of time spent in each speed state.
    """

    def __init__(self, seed):
        self.samples = inputs.samples(seed, "quantify", QUANTIFY_POOL)
        self.batches = {
            kind: [_MAKE[s.kind](*s.amps) for s in self.samples if s.kind == kind]
            for kind in ("qutrit", "ququart")
        }
        self.sweeps = {}
        self.first = {}

    def passes(self):
        i = 0
        while True:
            ops = [Op("quantify.op", kind, kind, i,
                      functools.partial(_quantify_batch, kind=kind, states=states),
                      ctx=states, weight=len(states))
                   for kind, states in self.batches.items()]
            ops += [Op("quantify.sweep", "sweep", f"sweep.{family}", i,
                       functools.partial(sweep, family=family),
                       ctx=family, weight=SWEEP_GRID)
                    for family in SWEEP_FAMILIES]
            i += 1
            yield ops

    def check(self, op, out):
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        if op.kind == "sweep":
            rc, text = out
            if rc != 0:
                return f"sweep exit code {rc}"
            if op.ctx not in self.sweeps:
                err = gates.sweep_error(op.ctx, text, SWEEP_GRID)
                if err:
                    return err
            return gates.repeat_error(self.sweeps, op.ctx, text)
        # the oracles check every state of the first batch of a kind; later
        # batches of the same states must reproduce its numbers exactly
        values = [r[0].schmidt_k for r in out]
        first = self.first.setdefault(op.kind, values)
        if first is not values:
            return None if first == values else "quantifiers changed between passes"
        gate = gates.qutrit_error if op.kind == "qutrit" else gates.ququart_error
        for state, reports in zip(op.ctx, out):
            err = gate(state, *reports)
            if err:
                return err
        return None

    def finish(self):
        return None

    def notes(self):
        return {}


def package_env():
    """Environment for child interpreters: the checkout's src on the path."""
    src = os.path.abspath("src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv, stdin_bytes, env, python_args=("-m", "biphoton")):
    """Run one cold interpreter to completion; returns (rc, out, err, timed_out).

    stdin is /dev/null unless bytes are given: simulate copies a readable
    non-tty stdin through, and an inherited one can block it forever.
    """
    cmd = [sys.executable, *python_args, *argv]
    kw = {"input": stdin_bytes} if stdin_bytes is not None else {"stdin": subprocess.DEVNULL}
    try:
        p = subprocess.run(cmd, capture_output=True, timeout=PROC_TIMEOUT_S, env=env, **kw)
    except subprocess.TimeoutExpired:
        return None, b"", b"", True
    return p.returncode, p.stdout, p.stderr, False


WORKLOADS = {"tomography": Tomography, "quantify": Quantify}


# ---------------------------------------------------------------------------
# traced replay: every layer, on a fixed set, whatever the workload
# ---------------------------------------------------------------------------

QUANTIFY_REPLAYS = 50
TENSOR_REPLAYS = 200
MAIN_REPLAYS = 2
IMPORT_REPLAYS = 3


def replay(tr, seed):
    """Replay each public call from outside on one state of each kind and type.

    Gives every per-layer metric a value on every workload, and the solver
    counts on a fixed set, so they repeat exactly for a seed.  Returns
    (counts, errors).
    """
    samples = inputs.one_of_each_type(seed)
    states = [_MAKE[s.kind](*s.amps) for s in samples]
    errors = []
    n_solutions = n_recon = n_true = n_ideal_solutions = 0
    for i, (sample, state) in enumerate(zip(samples, states)):
        tr.unit = f"replay-{i}"
        for mode in modes_for(sample):
            try:
                _, res, _ = reconstruct_one(tr, sample, state, mode)
            except reconstruct.Inconsistent as e:
                errors.append(f"replay {sample.kind} {sample.typ} {mode}: {e}")
                continue
            sols = [s.amplitudes for s in res.solutions()]
            n_recon += 1
            n_solutions += len(sols)
            if mode == "ideal":
                n_ideal_solutions += len(sols)
                n_true += sum(gates.truth_overlap([a], sample.amps) >= gates.TRUTH_OVERLAP
                              for a in sols)
        for _ in range(QUANTIFY_REPLAYS):
            _QUANTIFY[sample.kind](tr, state)
        if sample.kind == "ququart":
            for _ in range(TENSOR_REPLAYS):
                tr.call("tensor.oracle_replay",
                        lambda: tensor.schmidt_number(ququart.wavefunction(state), 4))
                tr.call("tensor.hermitian_eig_replay",
                        lambda: tensor.hermitian_eig(ququart.reduced_density(state)))
    env = package_env()
    for i, sample in enumerate(samples[:2]):
        amps = sample.amplitudes_json()
        sim = ["simulate", "--amplitudes", amps, "--pairs", str(PAIRS)]
        # (subcommand, argv, index of the stage whose stdout is its stdin)
        stages = (("quantify", ["quantify", "--amplitudes", amps], None),
                  ("simulate", sim, None),
                  ("simulate", sim + ["--basis", "rotated45"], 1),
                  ("reconstruct", ["reconstruct"], 2))
        # every replay of a stage, in process or cold, prints the same bytes
        seen = {}
        tr.unit = f"replay-main-{i}"
        for _ in range(MAIN_REPLAYS):
            outs = []
            for j, (name, argv, src) in enumerate(stages):
                rc, text = tr.call(f"cli.main.{name}", _main_captured, argv,
                                   "" if src is None else outs[src])
                outs.append(text)
                err = f"exit code {rc}" if rc != 0 else gates.repeat_error(
                    seen, j, text.encode())
                if err:
                    errors.append(f"replay cli.main.{name}: {err}")
        tr.unit = f"replay-proc-{i}"
        outs = []
        for j, (name, argv, src) in enumerate(stages):
            rc, out, err, timed_out = tr.call(f"cli.proc.{name}", run_process, argv,
                                              None if src is None else outs[src], env)
            outs.append(out)
            err = (gates.process_error(rc, err.decode(errors="replace"), timed_out)
                   or gates.repeat_error(seen, j, out))
            if not err and name == "reconstruct":
                err = gates.reconstruct_output_error(out, sample.amps)
            if err:
                errors.append(f"replay cli.proc.{name}: {err}")
    tr.unit = "replay-sweep"
    for family in SWEEP_FAMILIES:
        rc, text = sweep(tr, family)
        err = gates.sweep_error(family, text, SWEEP_GRID) if rc == 0 else f"exit code {rc}"
        if err:
            errors.append(f"replay sweep: {err}")
    imports = []
    for _ in range(IMPORT_REPLAYS):
        rc, _, err, timed_out = run_process(
            [], None, env, python_args=("-X", "importtime", "-c", "import biphoton.cli"))
        text = err.decode(errors="replace")
        if gates.process_error(rc, text, timed_out):
            errors.append("replay import failed")
            continue
        imports.append((gates.import_times(text, "biphoton"), gates.import_times(text, "scipy")))
    counts = {
        "solutions_per_state": n_solutions / max(1, n_recon),
        "truth_hit_ratio": n_true / max(1, n_ideal_solutions),
        "import_s": float(np.median([a for a, _ in imports])) if imports else float("nan"),
        "import_scipy_s": float(np.median([b for _, b in imports])) if imports else float("nan"),
    }
    return counts, errors
