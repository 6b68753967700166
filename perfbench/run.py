"""stlplan benchmark: time the planning pipeline end to end and per layer.

    python3 perfbench/run.py --workload plan --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 50

Run from the root of a checkout; the package is imported from ./src.
One client in one process issues one op at a time (a closed loop) until
--seconds have passed; an op still running at that moment is abandoned
and reported as cut, so a stalled solve costs the run its remaining time
but never overruns it.  After each op, and after each set-up probe, a
fixed reference kernel is timed; the gated times (set-up and latency)
are wall times scaled by it to a quiet machine's speed, and the raw wall
times are printed beside them.  The gated latency is the geometric mean
over the run's inputs of each input's median scaled latency, so every
input counts, the slowest too.  Workloads (inputs in ops.py):

  plan         everything one attempt does before solve_nlp (decompose,
               plan_global, GlobalPlan.validate, construct_safe_corridor,
               SafeCorridor.validate, build_nlp, initial_guess) with
               run_pipeline's replans, on 120 inputs whose seeds come from
               the workload seed; the planner, stl_sat and the corridor
               own the time and the solver does none
  pipeline     run_pipeline on each shipped scenario at its own seed, as
               `stlplan run` does; the solver owns the time
  matrix       run_pipeline over the shipped scenarios x seeds taken from
               the workload seed (seed 0: the 3 x 10 reference matrix),
               stalled solves and replans included; not in
               BENCHMARK.json, because its cost varies too much from seed
               to seed for a run of tens of ops

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 every op runs untraced and then traced, the two outputs
must match byte for byte, the stage spans must cover all but
trace.GLUE_SHARE of the traced ops' wall time, and the last line holds
per-layer metrics from spans wrapped around the package's public entry
points.  Every op output passes the independent checks in check.py or
the op counts as failed and the run as incorrect.  Scratch output goes
to .bench_work/.
"""

import argparse
import collections
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# the workloads BENCHMARK.json lists
LISTED_WORKLOADS = ("plan", "pipeline")
ALL_WORKLOADS = LISTED_WORKLOADS + ("matrix",)
SETUP_PROBES = 9
# reference kernel timings after each set-up probe; their median scales
# the probe
SETUP_REFERENCES = 5
# one client issues one op at a time, so extra BLAS threads only add
# contention noise on a shared machine
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1

# end-to-end metrics: name -> unit
E2E_UNITS = {
    "setup_s": "s",
    "scaled_latency_s.input_gmean": "s",
    "success_rate": "ratio",
    "attempts_per_op": "attempts/op",
    "traj_length_m.mean": "m",
    "peak_rss_mb": "MB",
}
clock = time.perf_counter
# the reference kernel's time on a quiet machine; scaled latencies are
# seconds on a machine that runs the kernel in exactly this time
REFERENCE_S = 0.008
REFERENCE_SPAN = 2


def reference_kernel():
    """Fixed work independent of stlplan, in the program's own mix:
    interpreter arithmetic and a SuperLU factorization.  Its time beside
    an op measures how fast the shared machine runs at that moment."""
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    total = 0
    for i in range(60_000):
        total += i * i
    n = 3000
    matrix = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0),
                       np.full(n - 1, -1.0)], [-1, 0, 1], format="csc")
    for _ in range(3):
        splu(matrix).solve(np.arange(float(n)))
    return total


class RunDeadline(BaseException):
    """Raised inside an op that is still running when the run ends.
    A BaseException, so no handler in the program can swallow it."""


class Deadline:
    """Interval timer that cuts the op in flight when time is up."""

    def __init__(self, seconds):
        self.expired = False
        self.in_op = False
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))

    def _fire(self, signum, frame):
        self.expired = True
        if self.in_op:
            raise RunDeadline()

    def call(self, fn, *args):
        if self.expired:
            raise RunDeadline()
        self.in_op = True
        try:
            return fn(*args)
        finally:
            self.in_op = False

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def git_sha():
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "git_sha": git_sha(), "workload_seed": seed}


def setup_probe():
    """What a fresh interpreter does before its first op."""
    import ops
    ops.load_cases(ops.Pkg())


def measure_setup(workload):
    """Median set-up time of SETUP_PROBES fresh interpreters that import
    stlplan and load the shipped scenarios, each scaled like the op
    latencies by the reference kernel timed right after it.  Returns
    (scaled median, raw wall times)."""
    reference_kernel()  # imports numpy and scipy outside the timing
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload], cwd=ROOT, capture_output=True,
            text=True, timeout=120)
        raw.append(clock() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"setup probe failed with code "
                             f"{proc.returncode}")
        kernel = []
        for _ in range(SETUP_REFERENCES):
            t0 = clock()
            reference_kernel()
            kernel.append(clock() - t0)
        scaled.append(raw[-1] * REFERENCE_S / statistics.median(kernel))
    return statistics.median(scaled), raw


class Run:
    """State of one benchmark run."""

    def __init__(self, args):
        import ops
        self.ops = ops
        self.args = args
        self.pkg = ops.Pkg()
        self.work = WORK / args.workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.inputs = ops.Inputs(args.workload, ops.load_cases(self.pkg),
                                 args.seed)
        self.records = []
        self.cut = 0
        self.problems = []
        self.digests = {}

    def out_dir(self, case):
        return self.work / "out" / case.name

    def execute(self, case, seed, deadline=None, tracer=None):
        """Run and time one op, then check its output and time the
        reference kernel (both untimed).  With a tracer, the op runs
        inside a root span named bench.op.  Returns a record dict."""
        call = deadline.call if deadline else (lambda fn, *a: fn(*a))
        root = tracer.begin("bench.op") if tracer else None
        rec = {"scenario": case.name, "seed": seed, "root": root}
        t0 = clock()
        try:
            outcomes, raw = call(self.ops.run_op, self.pkg,
                                 self.args.workload, case, seed,
                                 self.out_dir(case))
        except Exception as err:
            # a classified failure (OpFailed) or an exception the program
            # let escape; either way the op failed and the run goes on
            rec["wall"] = clock() - t0
            if tracer:
                tracer.end(root, error=type(err).__name__)
            if isinstance(err, self.ops.OpFailed):
                rec.update(ok=False, attempts=err.outcomes, error=str(err))
            else:
                rec.update(ok=False, attempts=None,
                           error=traceback.format_exc())
        else:
            rec["wall"] = clock() - t0
            if tracer:
                tracer.end(root)
            digest, length, problems = self.ops.check_op(
                self.pkg, self.args.workload, case, raw)
            rec.update(ok=not problems, problems=problems,
                       attempts=outcomes, digest=digest, length=length,
                       raw=raw)
        t0 = clock()
        reference_kernel()
        rec["reference"] = clock() - t0
        return rec

    def note_digest(self, rec, what):
        key = (rec["scenario"], rec["seed"])
        if rec.get("digest") is None:
            return
        seen = self.digests.setdefault(key, rec["digest"])
        if seen != rec["digest"]:
            self.problems.append(f"{key}: output differs on {what}")

    def loop(self, step):
        """Call step(j) for j = 0, 1, ... until the run's time is up."""
        deadline = Deadline(self.args.seconds)
        t0 = self.t_start = self.t_last = clock()
        try:
            j = 0
            while not deadline.expired and j != self.args.max_ops:
                step(j, deadline)
                self.t_last = clock()
                j += 1
        except RunDeadline:
            self.cut += 1
        finally:
            deadline.close()
        return clock() - t0

    def note_problems(self, rec):
        if rec.get("problems"):
            self.problems.append(f"{rec['scenario']} seed {rec['seed']}: "
                                 + "; ".join(rec["problems"]))

    def warm_up(self):
        case, seed = self.inputs[0]
        rec = self.execute(case, seed)
        self.note_problems(rec)
        self.note_digest(rec, "repetition")

    def keep(self, rec):
        rec.pop("raw", None)
        rec.pop("root", None)
        self.records.append(rec)
        self.note_problems(rec)


def run_plain(run):
    def step(j, deadline):
        case, seed = run.inputs[j]
        rec = run.execute(case, seed, deadline)
        run.note_digest(rec, "repetition")
        run.keep(rec)
    return run.loop(step)


def run_traced(run):
    import trace
    tracer = trace.Tracer(run.pkg)
    totals = trace.LayerTotals()
    run.attempt_rows = []

    def step(j, deadline):
        case, seed = run.inputs[j]
        plain = run.execute(case, seed, deadline)
        with tracer:
            traced = run.execute(case, seed, deadline, tracer)
            spans, evals = tracer.take()
        root = traced.pop("root")
        run.note_problems(plain)
        run.note_digest(plain, "repetition")
        run.note_digest(traced, "traced run")
        attempts = trace.attempts_of(spans, root)
        covered, problems = trace.coverage(spans, root, attempts)
        inferred = [a["outcome"] for a in attempts]
        reported = traced["attempts"]
        if reported is not None and (
                len(inferred) != len(reported)
                or not all(map(trace.outcomes_agree, inferred, reported))):
            problems.append(f"span outcomes {inferred} vs reported "
                            f"{reported}")
        for p in problems:
            run.problems.append(f"{case.name} seed {seed}: {p}")
        # both executions scaled by the reference kernel timed after each
        overhead = REFERENCE_S * (traced["wall"] / traced["reference"]
                                  - plain["wall"] / plain["reference"])
        totals.add(spans, evals, attempts, overhead, covered,
                   traced["wall"])
        traced["untraced_wall"] = plain["wall"]
        run.keep(traced)
        run.attempt_rows.append((case.name, seed, traced["wall"], attempts))
    wall = run.loop(step)
    run.totals = totals
    if totals.ops:
        problem = trace.coverage_problem(totals.extra["covered_s"],
                                         totals.extra["op_wall_s"])
        if problem:
            run.problems.append(problem)
    return wall


def scaled_latencies(records):
    """Each op's wall time scaled to the machine speed at which the
    reference kernel takes REFERENCE_S: divided by the median kernel time
    over the REFERENCE_SPAN ops either side, over REFERENCE_S.  Other
    tenants of a shared machine slow everything alike for seconds at a
    time; the scaling removes most of that from the figures."""
    refs = [r["reference"] for r in records]
    out = []
    for j, r in enumerate(records):
        near = refs[max(0, j - REFERENCE_SPAN):j + REFERENCE_SPAN + 1]
        out.append(r["wall"] * REFERENCE_S / statistics.median(near))
    return out


def e2e_metrics(run, setup):
    """End-to-end metrics of an untraced run as {name: (value, samples)},
    plus figures that are printed but not gated."""
    import stats
    recs = run.records
    passing = [r for r in recs if r["ok"]]
    scaled = [x for x, r in zip(scaled_latencies(recs), recs) if r["ok"]]
    by_input = collections.defaultdict(list)
    for x, r in zip(scaled, passing):
        by_input[r["scenario"], r["seed"]].append(x)
    attempts = sum(len(r["attempts"] or [1]) for r in recs)
    n = max(len(recs), 1)
    lengths = {(r["scenario"], r["seed"]): r["length"] for r in passing}
    table = {
        "setup_s": (setup, SETUP_PROBES),
        "scaled_latency_s.input_gmean": (stats.gmean_of_medians(
            by_input.values()) if by_input else 0.0, len(scaled)),
        "success_rate": (len(passing) / n, len(recs)),
        "attempts_per_op": (attempts / n, len(recs)),
        "traj_length_m.mean": (statistics.fmean(lengths.values())
                               if lengths else 0.0, len(lengths)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    info = {}
    if passing:
        info["scaled_latency_s.p50"] = stats.percentile(scaled, 50)
        info["scaled_latency_s.p90"] = stats.percentile(scaled, 90)
        lat = [r["wall"] for r in passing]
        info["latency_s.p50"] = stats.percentile(lat, 50)
        info["latency_s.p90"] = stats.percentile(lat, 90)
        info["latency_s.max"] = (max(lat), 0)
        info["reference_s.p50"] = stats.percentile(
            [r["reference"] for r in recs], 50)
        # up to the last completed op: the op cut at the deadline has no
        # outcome, and its partial time would only add noise
        info["throughput_ops_per_s"] = (
            len(passing) / (run.t_last - run.t_start), len(passing))
    return table, info


def print_attempts(rows):
    print("ops with more than one attempt (per-attempt spans):")
    shown = 0
    for name, seed, wall, attempts in rows:
        if len(attempts) < 2:
            continue
        shown += 1
        print(f"  {name} seed {seed}: {wall:.3f} s")
        for i, a in enumerate(attempts, 1):
            detail = ""
            if a["solve"]:
                solve = a["solve"][0]
                secs = a["stages"]["optimizer.solve_nlp"]
                detail = (f", solve {secs:.3f} s, outer {solve['outer']}, "
                          f"inner {solve['inner']}, capped "
                          f"{solve['capped']}, violation "
                          f"{solve['violation']:.2e}")
            print(f"    attempt {i}: {a['outcome']} {a['seconds']:.3f} s"
                  f"{detail}")
    if not shown:
        print("  none")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=-1,
                        help="stop after this many ops even if time is "
                             "left (matrix --max-ops 30: exactly the "
                             "reference matrix)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json "
                             "untraced and traced and print all tables")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "stlplan" / "__init__.py").is_file():
        sys.stderr.write(f"no stlplan package under {ROOT / 'src'}; run "
                         f"from the root of a checkout\n")
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    if args.all:
        return run_all(args)
    if args.setup_probe:
        setup_probe()
        return 0

    # set-up is timed in fresh interpreters, before this one's own
    setup, probes = ((None, []) if args.trace
                     else measure_setup(args.workload))
    run = Run(args)
    run.warm_up()
    wall = run_traced(run) if args.trace else run_plain(run)

    facts = machine_facts(args.seed)
    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(run.records)} ops in {wall:.2f} s, {run.cut} cut at the "
          f"deadline")
    if args.trace:
        import trace
        print_attempts(run.attempt_rows)
        layer = run.totals.metrics()
        print(f"per-layer metrics ({run.totals.ops} traced ops; per op "
              f"unless the unit says otherwise):")
        for name in sorted(layer):
            print(f"  {name:44s} {layer[name]:14.6g} "
                  f"{trace.metric_unit(name)}")
        metrics = {k: {"value": layer[k], "unit": trace.metric_unit(k)}
                   for k in trace.REPORTED}
    else:
        table, info = e2e_metrics(run, setup)
        print(f"end-to-end metrics (name, value, unit, samples); raw setup "
              f"probes {[round(t, 3) for t in probes]} s:")
        for name, (value, count) in table.items():
            print(f"  {name:28s} {value:14.6g} {E2E_UNITS[name]:12s} "
                  f"n={count}")
        print("not gated (percentiles: samples above the value):")
        for name, (value, count) in info.items():
            unit = "1/s" if name.startswith("throughput") else "s"
            print(f"  {name:24s} {value:14.6g} {unit:12s} {count}")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, (v, _) in table.items()}
    for p in run.problems:
        print(f"PROBLEM: {p}")
    failed = sum(1 for r in run.records if not r["ok"])
    for r in run.records:
        if not r["ok"] and r.get("error"):
            print(f"FAILED: {r['scenario']} seed {r['seed']}: {r['error']}")
    result_file = (run.work / f"result-seed{args.seed}-trace{args.trace}"
                   f".json")
    result_file.write_text(json.dumps(
        {"machine": facts, "args": vars(args), "wall": wall, "cut": run.cut,
         "setup_probes": probes, "ops": run.records,
         "problems": run.problems, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps({"correct": not run.problems,
                      "attempted": max(len(run.records), 1),
                      "failed": failed if run.records else 1,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload of BENCHMARK.json, untraced then traced, in fresh
    processes."""
    summary = {}
    for workload in LISTED_WORKLOADS:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            print(f"===== {workload} trace={trace_flag}")
            print(proc.stdout, end="")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary[workload, trace_flag] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print("===== summary")
    for workload in LISTED_WORKLOADS:
        plain, traced = summary[workload, 0], summary[workload, 1]
        print(f"{workload}: correct={plain['correct'] and traced['correct']}"
              f", tracing overhead "
              f"{traced['metrics']['trace.overhead_s']['value']:.4f} s/op")
        for name, m in plain["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
