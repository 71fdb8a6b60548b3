"""Benchmark of the biphoton package: one closed-loop caller per workload.

Run from the repository root:

    python3 perfbench/run.py --workload tomography --seed 1 --seconds 45 --trace 0

Workloads (see README.md in this directory): tomography, quantify.
With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics; the line before it is the run record
(machine, versions, seed, reference loop time, wall-clock figures, input
shares).  The exit code is 0 only when every output passed its correctness
gate.
"""

import argparse
import bisect
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
READY = "ready"
WARMUP_S = 1.0
REF_SHARE = 0.05       # reference-loop time run per second of operation time
REF_WINDOW_S = 4.0     # width of the window of reference times an op is divided by


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("tomography", "quantify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload, print a ready line and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# reference loop
# ---------------------------------------------------------------------------

_REF_MATRIX = np.array([[2.0, 1 - 1j, 0.5j, 0.0],
                        [1 + 1j, 3.0, 0.25, 1j],
                        [-0.5j, 0.25, 1.0, 0.5],
                        [0.0, -1j, 0.5, 4.0]])


def reference():
    """Fixed work of the kind the package does, none of it the package's:
    small Hermitian eigendecompositions and Python object handling.  About
    1.5 ms on a 2-vCPU Xeon VM.

    The speed of a shared host changes by up to 60 % for tens of seconds at
    a time, and this loop slows with it in step with the package's calls.
    Operation times divided by the reference times measured around them
    (`Timings.costs`) keep the program's speed and lose most of the host's.
    """
    acc = 0.0
    for _ in range(40):
        acc += float(np.linalg.eigh(_REF_MATRIX)[0][0])
    for i in range(1000):
        c = complex(i, 1.0)
        d = {"a": c, "b": [c.real, abs(c)]}
        acc += d["b"][1]
    return acc


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------

class Timings:
    """Times and failures of the operations one call of `measure` ran."""

    def __init__(self):
        self.times = []     # (op.kind, op.label, seconds) per operation
        self.mids = []      # run clock at the middle of each operation
        self.refs = []      # (run clock, seconds) per reference loop
        self.passes = 0
        self.work = 0       # states handled; a sweep counts its rows
        self.failed = 0
        self.errors = []

    @property
    def ops(self):
        return len(self.times)

    @property
    def busy(self):
        return sum(t for _, _, t in self.times)

    def of_kind(self, kind):
        return [t for k, _, t in self.times if k == kind]

    @functools.cached_property
    def costs(self):
        """Each operation's time in reference loops: its seconds over the
        median reference time within REF_WINDOW_S of its middle."""
        at = [t for t, _ in self.refs]
        out = []
        for (_, _, t), mid in zip(self.times, self.mids):
            lo = bisect.bisect_left(at, mid - REF_WINDOW_S / 2)
            hi = bisect.bisect_right(at, mid + REF_WINDOW_S / 2)
            lo = min(lo, len(at) - 1)   # an operation longer than the window
            hi = max(hi, lo + 1)
            out.append(t / statistics.median(r for _, r in self.refs[lo:hi]))
        return out

    def costs_of_kind(self, kind):
        return [c for (k, _, _), c in zip(self.times, self.costs) if k == kind]

    @property
    def calib_ms(self):
        return statistics.median(r for _, r in self.refs) * 1e3


def warm_up(wl):
    """Run operations of a first pass untimed and unchecked for WARMUP_S (at
    least one), so lazy set-up inside numpy and scipy is done before timing."""
    start = time.perf_counter()
    for op in next(wl.passes()):
        try:
            op.run(spans.NullTracer())
        except Exception:  # the timed runs count and report failures
            pass
        reference()
        if time.perf_counter() - start > WARMUP_S:
            break


def measure(wl, tracer, seconds=None, passes=None):
    """Run whole passes over the workload's pool: `passes` of them, or as
    many as end within `seconds` if the next takes as long as the last.
    At least one pass runs.  After each operation, outside its timed region,
    the reference loop runs until it has taken REF_SHARE of the operations'
    time so far, so its times sample the machine's speed evenly over the run."""
    out = Timings()
    start = time.perf_counter()
    last = 0.0
    owed = 0.0
    for n, ops in enumerate(wl.passes()):
        if passes is not None and n >= passes:
            break
        if passes is None and n and time.perf_counter() - start + last > seconds:
            break
        p0 = time.perf_counter()
        for op in ops:
            tracer.unit = op.unit
            span = tracer.begin(op.name)
            t0 = time.perf_counter()
            try:
                outcome = op.run(tracer)
            except Exception as e:  # a failed operation is counted, not fatal
                outcome = e
            dt = time.perf_counter() - t0
            tracer.end(span)
            out.times.append((op.kind, op.label, dt))
            out.mids.append(t0 + dt / 2 - start)
            owed += REF_SHARE * dt
            while owed > 0:
                r0 = time.perf_counter()
                reference()
                r = time.perf_counter() - r0
                out.refs.append((r0 - start, r))
                owed -= r
            out.work += op.weight
            err = wl.check(op, outcome)
            if err:
                out.failed += 1
                if len(out.errors) < 5:
                    out.errors.append(err)
        last = time.perf_counter() - p0
        out.passes += 1
    return out


def by_label(timings):
    """Median milliseconds, median reference loops and count of the
    operations of each input class, so a gain on one class can be told apart
    from its weight in the mix."""
    groups = {}
    for (_, label, t), c in zip(timings.times, timings.costs):
        groups.setdefault(label, []).append((t, c))
    return {label: [statistics.median(t for t, _ in tc) * 1e3,
                    statistics.median(c for _, c in tc), len(tc)]
            for label, tc in sorted(groups.items())}


TAIL_MAX_PCT = 90.0


def tail(values):
    """Tail latency: the highest percentile, up to the 90th, that has at
    least ten samples beyond it.

    Above the 90th the figure of a long run follows single interrupts of
    the machine rather than the program.  Returns (value, percentile,
    samples beyond); with ten or fewer samples it is the 90th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    idx = int(TAIL_MAX_PCT / 100.0 * (n - 1))
    if n > 10:
        idx = min(idx, n - 11)
    pct = 100.0 * idx / (n - 1) if n > 1 else 100.0
    return xs[idx], pct, n - 1 - idx


def end_to_end(ps, setup_s):
    costs = ps.costs_of_kind("qutrit") + ps.costs_of_kind("ququart")
    tail_ref, tail_pct, beyond = tail(costs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ok_frac": (1.0 - ps.failed / ps.ops, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_kref": (1e3 * ps.work / sum(ps.costs), "1/kref"),
        "qutrit_p50_ref": (statistics.median(ps.costs_of_kind("qutrit")), "ref"),
        "ququart_p50_ref": (statistics.median(ps.costs_of_kind("ququart")), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
    }
    ops = ps.of_kind("qutrit") + ps.of_kind("ququart")
    wall = {
        "ops_per_s": ps.work / ps.busy,
        "qutrit_ms_p50": statistics.median(ps.of_kind("qutrit")) * 1e3,
        "ququart_ms_p50": statistics.median(ps.of_kind("ququart")) * 1e3,
        "op_ms_tail": tail(ops)[0] * 1e3,
    }
    return metrics, {"tail_percentile": tail_pct, "tail_samples_beyond": beyond,
                     "ops": len(ops), "passes": ps.passes, "wall": wall,
                     "ms_ref_p50_by_input": by_label(ps)}


# spans reported as per-layer metrics "<span>_<unit>": median self time
LAYER_SPANS = (
    ("reconstruct.qutrit_phases.ideal", "ms"),
    ("reconstruct.qutrit_phases.sampled", "ms"),
    ("reconstruct.ququart_phases.ideal", "ms"),
    ("reconstruct.ququart_phases.sampled", "ms"),
    ("reconstruct.magnitudes", "us"),
    ("reconstruct.merge_estimates", "us"),
    ("measurement.expected", "us"),
    ("measurement.sampled", "us"),
    ("jsonio.dumps", "us"),
    ("qutrit.quantify", "us"),
    ("qutrit.polarization", "us"),
    ("qutrit.schmidt_decompose", "us"),
    ("ququart.quantify", "us"),
    ("ququart.schmidt_decompose", "us"),
    ("ququart.two_qubit_model", "us"),
    ("tensor.oracle_replay", "us"),
    ("tensor.hermitian_eig_replay", "us"),
    ("cli.main.quantify", "ms"),
    ("cli.main.simulate", "ms"),
    ("cli.main.reconstruct", "ms"),
    ("cli.main.sweep", "ms"),
    ("cli.proc.quantify", "s"),
    ("cli.proc.simulate", "s"),
    ("cli.proc.reconstruct", "s"),
)
PER_SECOND = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer(untraced, traced, tracer, counts, sweep_grid):
    selfs = spans.self_times(tracer.spans)
    metrics = {}
    for span, unit in LAYER_SPANS:
        metrics[f"{span}_{unit}"] = (statistics.median(selfs[span]) * PER_SECOND[unit], unit)
    pipes = spans.durations_by_unit(
        tracer.spans, {"cli.proc.simulate", "cli.proc.reconstruct"}, count=3)
    metrics["cli.proc.pipe_s"] = (statistics.median(pipes), "s")
    sweep_total = sum(selfs["cli.main.sweep"])
    metrics["cli.main.sweep_rows_per_s"] = (
        len(selfs["cli.main.sweep"]) * sweep_grid / sweep_total, "1/s")
    metrics["cli.import_s"] = (counts["import_s"], "s")
    metrics["cli.import_scipy_s"] = (counts["import_scipy_s"], "s")
    metrics["reconstruct.solutions_per_state"] = (counts["solutions_per_state"], "count")
    metrics["reconstruct.truth_hit_ratio"] = (counts["truth_hit_ratio"], "ratio")
    # the same operations, timed without and with spans, compared in
    # reference loops so that a change of machine speed between the two
    # sides mostly cancels
    share = sum(traced.costs) / sum(untraced.costs) - 1.0
    metrics["trace.overhead_ms_per_op"] = (share * untraced.busy / untraced.ops * 1e3, "ms")
    metrics["trace.overhead_pct"] = (100.0 * share, "%")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    return metrics


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _openblas():
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "openblas": _openblas(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(args):
    """Median launch-to-ready time of fresh interpreters setting up the
    workload: imports plus input generation, up to the first timed op."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            rc = p.wait(timeout=120)
        if rc != 0 or line.strip() != READY:
            raise RuntimeError(f"setup probe failed (exit code {rc})")
        times.append(t1 - t0)
    return statistics.median(times)


def check_declared(metrics, key):
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json {key}: "
                           f"{sorted(set(got.items()) ^ set(declared.items()))}")


def main(argv=None):
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "biphoton", "__init__.py")):
        print("error: src/biphoton not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gates      # these two import the package from src/
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    problems = [f"gate did not fire on a corrupted {g} output" for g in gates.self_check()]
    record = run_record(args)
    if args.trace:
        warm_up(wl)
        untraced = measure(wl, spans.NullTracer(), seconds=args.seconds)
        tracer = spans.Tracer()
        traced = measure(wl, tracer, passes=untraced.passes)
        counts, replay_errors = workloads.replay(tracer, args.seed)
        problems += replay_errors
        metrics = per_layer(untraced, traced, tracer, counts, workloads.SWEEP_GRID)
        metrics["env.calib_ms"] = (untraced.calib_ms, "ms")
        key, runs = "per_layer", (untraced, traced)
    else:
        setup_s = measure_setup(args)
        warm_up(wl)
        timed = measure(wl, spans.NullTracer(), seconds=args.seconds)
        metrics, tail_info = end_to_end(timed, setup_s)
        record.update(tail_info)
        key, runs = "end_to_end", (timed,)
    check_declared(metrics, key)

    finish = wl.finish()
    if finish:
        problems.append(finish)
    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    record.update(inputs.shares(wl.samples))
    record.update(wl.notes())
    record["calib_ms"] = runs[0].calib_ms
    record["failed_frac"] = failed / attempted
    record["errors"] = [e for r in runs for e in r.errors] + problems
    correct = failed == 0 and not problems
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
