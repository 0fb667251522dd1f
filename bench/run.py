"""Run one bicover benchmark workload and print its metrics.

    python3 bench/run.py --workload kn-certify --seed 1 --seconds 32 --trace 0

Run from anywhere inside a checkout; the toolkit is imported from the
checkout's ``src/``.  One process, one thread, one closed-loop client: each
CLI op is issued in-process through ``bicover.cli.main(argv)`` only after
the previous one returned, with stdout and stderr captured.  Passes over the
workload's op list start until ``--seconds`` have elapsed, and the last one
finishes; at least three run (with ``--trace 1`` untraced and traced passes
alternate).  Every op is timed in seconds and in probe loops (see ``Probe``);
its exit code and output are checked after its timer stops.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics, both with the units BENCHMARK.json gives.  A
human-readable table precedes the final line, which is one JSON object.  The
provenance record (and, traced, every span) goes to ``.bench_out/``; the CLI's
files live in a scratch directory under ``.bench_work/`` that is removed at
exit.  Exit code 2 means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
MIN_PASSES = 3  # the fewest a median over passes is worth taking
COLD_IMPORT = "import sys; sys.path.insert(0, 'src'); import bicover.cli"

# Layers whose summed self time is reported as "<name>.s".
SELF_TIME_LAYERS = (
    "covering.verify", "covering.parse_covering", "covering.serialize_covering",
    "covering.code_to_covering", "covering.coloring_to_covering",
    "codes.build_code", "codes.even_weight_code",
    "diagnostics.check_tail_sum", "diagnostics.check_convex_tail_bound",
    "diagnostics.check_event_disjointness", "diagnostics.check_event_overlap",
    "diagnostics.check_independent_event_sets",
    "graphs.parse_graph", "graphs.greedy_coloring",
    "bounds.graph_report", "bounds.multigraph_report", "exact.exact_cap",
)
SWEEPS = ("diagnostics.check_event_disjointness",
          "diagnostics.check_event_overlap",
          "diagnostics.check_independent_event_sets")


def _vectors(args, result):
    """Selection vectors a diagnostic sweep visits: 2^m, or the trial count."""
    if args["mode"] == "exhaustive":
        return {"vectors": 1 << len(args["cov"].blocks)}
    return {"vectors": args["trials"]}


COUNTERS = {
    "covering.verify": lambda args, result: {"pairs": result.pair_count},
    "covering.parse_covering": lambda args, result: {"bytes": len(args["text"])},
    "covering.serialize_covering": lambda args, result: {"bytes": len(result)},
    **{name: _vectors for name in SWEEPS},
}


def invoke(cli, argv, tracer=None):
    """One CLI op: (exit code or None on a traceback, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects its input this way
        rc = e.code
    except Exception:  # a traceback is a failed op, never the end of the run
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def judge(op, rc, stdout, stderr):
    """None when the op did what the benchmark expects, else the reason."""
    if rc is None:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if rc != op.expect:
        return f"exit code {rc}, expected {op.expect}: {stderr.strip()[:200]}"
    try:
        op.check(stdout)
    except workloads.CheckFailed as e:
        return f"check failed: {e}"
    except (ValueError, KeyError, TypeError, OSError) as e:
        return f"output unreadable: {type(e).__name__}: {e}"
    return None


class Probe:
    """Machine-speed samples taken while the ops run.

    On a shared VM, host contention can switch a vCPU between a fast and a
    slow speed (measured up to 1.7x apart on a 2-vCPU VM) every second or
    so, and the slow share drifts over minutes, so the same pass's seconds
    spread by 20-30% between runs.  While active, a SIGALRM handler times a fixed
    pure-Python loop every PERIOD_S.  An op's seconds, less the loops run
    inside it, divided by the mean loop time around and inside it, count the
    op in probe loops: a figure the contention largely scales out of.
    """

    PERIOD_S = 0.02
    ITERS = 1500  # about 0.45 ms per sample, 2% of the run

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # the timer fired inside a sample: skip, never nest
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            x = acc = 0
            for _ in range(self.ITERS):
                x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
                acc += (x >> 32).bit_count()
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, call):
        """Run ``call()``; return (its result, net seconds, probe loops)."""
        self.sample()
        first = len(self.samples) - 1
        t0 = time.perf_counter()
        result = call()
        dt = time.perf_counter() - t0
        self.sample()
        window = self.samples[first:]
        net = dt - sum(window[1:-1])
        return result, net, net / statistics.mean(window)


def run_pass(cli, wl, probe, tracer=None):
    """Every op once, in order.

    Returns ([(label, seconds, probe loops)], [(label, reason)]).
    """
    times, failures = [], []
    for op in wl.ops:
        if op.prepare:
            op.prepare()
        gc.collect()  # each op starts on a clean heap, as a fresh CLI process does
        (rc, stdout, stderr), net, loops = probe.timed(
            lambda: invoke(cli, op.argv, tracer))
        times.append((op.label, net, loops))
        problem = judge(op, rc, stdout, stderr)
        if problem:
            failures.append((op.label, problem))
    return times, failures


def setup(name, seed, scratch):
    """One set-up: a cold interpreter imports bicover, then inputs are written.

    The import runs in a fresh process because that is what every ``bicover``
    invocation pays, and because a second in-process import would be free.
    """
    t0 = time.perf_counter()
    # Captured output makes run() wait on the pipes, not poll the child every
    # 50 ms as a bare wait with a timeout does.
    subprocess.run([sys.executable, "-c", COLD_IMPORT], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    wl = workloads.build(name, seed, tempfile.mkdtemp(dir=scratch))
    return time.perf_counter() - t0, wl


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass."""
    selfs = tracer.self_times()
    self_s, calls, counts = defaultdict(float), Counter(), defaultdict(Counter)
    for sp in tracer.spans:
        name = "cli" if sp.parent is None else sp.name
        self_s[name] += selfs[sp.id]
        calls[name] += 1
        counts[name].update(sp.counts)
    m = {"cli.self_s": self_s["cli"]}
    m.update({f"{name}.s": self_s[name] for name in SELF_TIME_LAYERS})
    m["covering.verify.calls"] = calls["covering.verify"]
    m["covering.verify.pairs"] = counts["covering.verify"]["pairs"]
    m["covering.verify.pairs_per_s"] = _rate(m["covering.verify.pairs"],
                                             self_s["covering.verify"])
    m["covering.file_mb"] = (counts["covering.parse_covering"]["bytes"]
                             + counts["covering.serialize_covering"]["bytes"]) / 1e6
    m["diagnostics.vectors"] = sum(counts[name]["vectors"] for name in SWEEPS)
    indep = "diagnostics.check_independent_event_sets"
    m["diagnostics.vectors_per_s"] = _rate(counts[indep]["vectors"], self_s[indep])
    m["exact.exact_cap.calls"] = calls["exact.exact_cap"]
    return m


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def measure(cli, wl, seconds, trace, after_pass):
    """Start passes until ``seconds`` have elapsed; the last one finishes.

    At least MIN_PASSES run, so a pass longer than a third of the budget
    stretches the run.  ``after_pass()`` runs, untimed, after every pass.
    Returns a list of pass dicts.
    """
    targets = spans.cli_targets(cli) if trace else ()
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = spans.Tracer(COUNTERS) if traced else None
        with Probe().active() as probe:
            if traced:
                with tracer.installed(targets):
                    times, failures = run_pass(cli, wl, probe, tracer)
            else:
                times, failures = run_pass(cli, wl, probe)
        passes.append({"traced": traced, "times": times, "failures": failures,
                       "tracer": tracer})
        after_pass()
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            return passes


def end_to_end(passes, setups):
    plain = [p for p in passes if not p["traced"]]

    def median(per_pass):
        return statistics.median(per_pass(p["times"]) for p in plain)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda ts: sum(t[1] for t in ts)),
        "slowest_op_s": median(lambda ts: max(t[1] for t in ts)),
        "wall_probes": median(lambda ts: sum(t[2] for t in ts)),
        "slowest_op_probes": median(lambda ts: max(t[2] for t in ts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes):
    traced = [layer_metrics(p["tracer"]) for p in passes if p["traced"]]
    m = {key: statistics.median(t[key] for t in traced) for key in traced[0]}

    def wall_probes(traced):
        return statistics.median(sum(t[2] for t in p["times"])
                                 for p in passes if p["traced"] == traced)

    m["trace.overhead_frac"] = wall_probes(True) / wall_probes(False) - 1
    return m


def git_sha():
    """HEAD of the checkout's own git directory, None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Hash over the toolkit's source files, for matching runs without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bicover")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(spec_metrics, values):
    """The metrics BENCHMARK.json names, in its order and with its units."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: the benchmark computes no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bicover", "cli.py")):
        print(f"error: no toolkit source under {SRC}; run the benchmark from a "
              "full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, SRC)
    from bicover import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported bicover from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-{args.seed}-")
    setups, built = [], []

    def set_up():
        dt, wl = setup(args.workload, args.seed, scratch)
        setups.append(dt)
        built.append(workloads.file_hashes(wl.inputs))
        return wl

    def more_set_ups():  # spread over the run, so one slow spell counts once
        if len(setups) < SETUP_REPEATS:
            set_up()

    try:
        wl = set_up()
        passes = measure(cli, wl, args.seconds, bool(args.trace), more_set_ups)
        while len(setups) < SETUP_REPEATS:
            set_up()
        deterministic = all(h == built[0] for h in built)
        outputs = workloads.file_hashes(
            os.path.join(wl.workdir, f) for f in sorted(os.listdir(wl.workdir)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = per_layer(passes) if args.trace else end_to_end(passes, setups)
    metrics = select(spec["per_layer" if args.trace else "end_to_end"], values)
    unbounded = {k: v for k, v in values.items() if k not in metrics}
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["times"]) for p in passes)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "instances": wl.instances,
        "input_sha256": built[0], "file_sha256": outputs,
        "setup_s": setups,
        "passes": [{"traced": p["traced"], "times": p["times"],
                    "failures": p["failures"]} for p in passes],
        "metrics": metrics, "unbounded": unbounded,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"{tag}-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([p["tracer"].to_json() for p in passes if p["traced"]], fh)

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"ops={attempted} failed={len(failures)} record=.bench_out/{tag}.json")
    for label, reason in failures:
        print(f"# FAILED {label}: {reason}")
    if not deterministic:
        print("# FAILED setup: the same seed generated different inputs")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6g} {m['unit']}")
    for name, value in unbounded.items():  # raw seconds, printed for people
        print(f"{name:<48} {value:>16.6g} s (not in BENCHMARK.json)")
    print(json.dumps({"correct": deterministic and not failures,
                      "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
