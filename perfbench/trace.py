"""Spans around the package's public entry points, added from outside.

The program is not edited: while a Tracer is installed, the functions
below are replaced in every module namespace that calls them by
wrappers that record a span (name, parent, start, end, exception) and,
for a few, facts read off the return value.  Only calls made inside an
open span (the benchmark's bench.op) are recorded, so the benchmark's
own checks leave no spans.  Uninstalling restores the originals.  Spans
are kept in memory per op and folded into per-layer totals after each
op, so a long run holds only one op's spans.
"""

import collections
import functools
import itertools
import time

from stats import self_times

clock = time.perf_counter

# the share of a traced run's op wall time that no stage span may
# cover: run_pipeline's glue (file writes, the collision and input-bound
# scans, bookkeeping) and the benchmark's own call overhead.  Checked
# over the whole run, so that a pause landing between two stages of a
# short op does not count as a missing stage.
GLUE_SHARE = 0.05

# outcome names used by run_pipeline for failed attempts
FAIL_STATUSES = ("plan", "corridor", "optimize-infeasible", "optimize",
                 "unsatisfied")

# per-layer metrics on the last line of a traced run.  Their times are
# spent on both workloads BENCHMARK.json lists; solver and pipeline
# seconds, which the plan workload never spends, appear only in the
# printed table and the result file, as does every metric not listed.
REPORTED = (
    "st_planner.plan_s",
    "st_planner.grow_tree_s",
    "st_planner.grow_tree_calls",
    "st_planner.tree_success_ratio",
    "st_planner.window_success_ratio",
    "satisfaction.stl_sat_s",
    "satisfaction.stl_sat_calls",
    "decomposer.decompose_s",
    "corridor.construct_s",
    "corridor.safe_cor_s",
    "corridor.safe_cor_calls",
    "corridor.distinct_boxes",
    "corridor.zero_width_handoffs",
    "corridor.disjoint_handoffs",
    "optimizer.build_nlp_s",
    "optimizer.build_infeasible",
    "optimizer.solve_share",
    "optimizer.factor_share",
    "optimizer.factor_calls",
    "optimizer.al_evals",
    "optimizer.al_evals_per_inner",
    "optimizer.outer_iterations",
    "optimizer.inner_iterations",
    "optimizer.inner_capped",
    "stl_core.oracle_calls",
    "scenario_cli.attempts",
    "scenario_cli.attempt_fail.corridor",
    "scenario_cli.attempt_fail.optimize-infeasible",
    "scenario_cli.attempt_fail.optimize",
    "scenario_cli.attempt_fail.unsatisfied",
    "trace.overhead_s",
)


def _solve_info(args, kwargs, result, optimizer):
    tol = args[2] if len(args) > 2 else kwargs.get("tolerances")
    max_inner = (tol or optimizer.SolverTolerances()).max_inner
    inner = [e["inner_iterations"] for e in result.log]
    return {"converged": bool(result.converged),
            "outer": int(result.outer_iterations),
            "inner": int(sum(inner)),
            "capped": sum(1 for n in inner if n >= max_inner),
            "violation": float(result.max_violation),
            "message": result.message}


def _corridor_info(result):
    distinct = zero = disjoint = 0
    prev = None
    for box in result.boxes:
        if box is prev:
            continue
        distinct += 1
        if prev is not None:
            lo = [max(a, b) for a, b in zip(box.lo, prev.lo)]
            hi = [min(a, b) for a, b in zip(box.hi, prev.hi)]
            if any(l > h for l, h in zip(lo, hi)):
                disjoint += 1
            elif any(l == h for l, h in zip(lo, hi)):
                zero += 1
        prev = box
    return {"distinct": distinct, "zero_width": zero, "disjoint": disjoint}


class Tracer:
    """Records spans while installed; take() hands over one op's spans."""

    def __init__(self, pkg):
        self.pkg = pkg
        self._ids = itertools.count()
        self._stack = []
        self._saved = []
        self.spans = {}
        self.al_evals = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = {"name": name, "parent": parent, "start": clock(),
                           "end": None, "error": None, "info": None}
        self._stack.append(sid)
        return sid

    def end(self, sid, error=None, info=None):
        span = self.spans[sid]
        span["end"] = clock()
        span["error"] = error
        span["info"] = info
        self._stack.pop()

    def take(self):
        """Return and forget the spans and counts recorded so far."""
        spans, evals = self.spans, self.al_evals
        self.spans, self.al_evals, self._stack = {}, 0, []
        return spans, evals

    def _wrap(self, name, fn, inspect=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.end(sid, error=type(err).__name__)
                raise
            tracer.end(sid, info=inspect(args, kwargs, result)
                       if inspect else None)
            return result
        return wrapper

    def _count_evals(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.al_evals += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def targets(self):
        """(owners, attribute, span name, inspector) of every wrapped
        entry point; owners lists each namespace the function is called
        through."""
        p = self.pkg
        cli, opt = p.scenario_cli, p.optimizer
        return [
            ((cli,), "run_pipeline", "scenario_cli.run_pipeline", None),
            ((cli, p.decomposer), "decompose", "decomposer.decompose", None),
            ((cli, p.st_planner), "plan_global", "st_planner.plan_global",
             None),
            ((p.st_planner,), "plan_local", "st_planner.plan_local", None),
            ((p.st_planner,), "grow_tree", "st_planner.grow_tree", None),
            ((p.st_planner,), "discretize_path",
             "st_planner.discretize_path", None),
            ((p.st_planner.GlobalPlan,), "validate",
             "st_planner.GlobalPlan.validate", None),
            ((p.st_planner, p.satisfaction), "stl_sat",
             "satisfaction.stl_sat", None),
            ((cli, p.corridor), "construct_safe_corridor",
             "corridor.construct_safe_corridor",
             lambda a, k, r: _corridor_info(r)),
            ((p.corridor,), "safe_cor", "corridor.safe_cor", None),
            ((p.corridor.SafeCorridor,), "validate",
             "corridor.SafeCorridor.validate", None),
            ((cli, opt), "build_nlp", "optimizer.build_nlp", None),
            ((cli, opt), "initial_guess", "optimizer.initial_guess", None),
            ((cli, opt), "solve_nlp", "optimizer.solve_nlp",
             lambda a, k, r: _solve_info(a, k, r, opt)),
            ((opt,), "splu", "optimizer.splu", None),
            ((cli, opt), "evaluate_solution", "optimizer.evaluate_solution",
             None),
            ((cli, p.stl_core), "oracle_satisfies_formula",
             "stl_core.oracle_satisfies_formula",
             lambda a, k, r: {"satisfied": bool(r)}),
        ] + [((cli,), attr, "scenario_cli." + attr, None)
             for attr in ("plan_csv_text", "pairs_csv_text",
                          "corridor_csv_text", "traj_csv_text", "emit_svg",
                          "read_traj_csv")]

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owners, attr, name, inspect in self.targets():
            wrapper = self._wrap(name, getattr(owners[0], attr), inspect)
            for owner in owners:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
        problem = self.pkg.optimizer.NlpProblem
        self._saved.append((problem, "cost_grad", problem.cost_grad))
        problem.cost_grad = self._count_evals(problem.cost_grad)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.take()
        return False


# ---------------------------------------------------------------------------
# reading one op's spans

def op_owner(spans, root):
    """The span that issues an op's stage calls: run_pipeline's, or the
    op's own root span when the benchmark calls the stages itself."""
    return next((sid for sid, s in spans.items()
                 if s["name"] == "scenario_cli.run_pipeline"), root)


def attempts_of(spans, root):
    """Split an op into attempts at each plan_global call.

    Attempt i runs from the start of the i-th plan_global to the start
    of the next one; the last runs to the end of the owner span (see
    op_owner).  Returns a list of dicts with the window, the seconds of
    each stage the owner called directly, solve facts and the inferred
    outcome.
    """
    owner = op_owner(spans, root)
    starts = sorted(s["start"] for s in spans.values()
                    if s["name"] == "st_planner.plan_global")
    ends = starts[1:] + [spans[owner]["end"]]
    attempts = []
    for lo, hi in zip(starts, ends):
        inside = [s for s in spans.values() if lo <= s["start"] < hi]
        stages = collections.Counter()
        for s in inside:
            if s["parent"] == owner:
                stages[s["name"]] += s["end"] - s["start"]
        attempts.append({"start": lo, "end": hi, "seconds": hi - lo,
                         "stages": dict(stages),
                         "solve": [s["info"] for s in inside
                                   if s["name"] == "optimizer.solve_nlp"
                                   and s["info"]],
                         "outcome": _infer_outcome(inside)})
    return attempts


def _infer_outcome(spans):
    """What the spans of one attempt say about how it ended."""
    by_name = {}
    for s in sorted(spans, key=lambda s: s["start"]):
        by_name.setdefault(s["name"], s)
    for name, status in (("st_planner.plan_global", "failed:plan"),
                         ("st_planner.GlobalPlan.validate", "failed:plan"),
                         ("corridor.construct_safe_corridor",
                          "failed:corridor"),
                         ("corridor.SafeCorridor.validate",
                          "failed:corridor")):
        if name in by_name and by_name[name]["error"]:
            return status
    build = by_name.get("optimizer.build_nlp")
    if build is None:
        return "incomplete"
    if build["error"] == "InfeasibleConstraintError":
        return "failed:optimize-infeasible"
    if build["error"]:
        return "failed:optimize"
    solve = by_name.get("optimizer.solve_nlp")
    if solve is None:
        return "planned"
    if solve["error"] or not solve["info"]["converged"]:
        return "failed:optimize"
    oracle = by_name.get("stl_core.oracle_satisfies_formula")
    if oracle is None or not oracle["info"]["satisfied"]:
        return "unsatisfied"
    return "satisfied"


def outcomes_agree(inferred, reported):
    """Span-inferred outcome against run_pipeline's own record.  The
    oracle verdict alone cannot see the collision and input-bound scans,
    so an oracle pass may still be reported unsatisfied."""
    return inferred == reported or (inferred, reported) == (
        "satisfied", "unsatisfied")


def coverage(spans, root, attempts):
    """(covered seconds, problems) of one op.  Covered is the time of
    the stages the owner calls directly: the decomposition before the
    first attempt and each attempt's stages.  Measured against the op's
    wall time it shows what no span covers, so a stage the tracer does
    not wrap shows as uncovered time."""
    if not attempts:
        return 0.0, ["no attempt spans"]
    owner = op_owner(spans, root)
    first = attempts[0]["start"]
    lead = [s for s in spans.values()
            if s["parent"] == owner and s["start"] < first]
    problems = []
    if any(s["name"] != "decomposer.decompose" or s["end"] > first
           for s in lead):
        problems.append("the first attempt overlaps other stages")
    covered = sum(s["end"] - s["start"] for s in lead) + sum(
        sum(a["stages"].values()) for a in attempts)
    return covered, problems


def coverage_problem(covered, wall):
    """A problem message when stage spans leave more than GLUE_SHARE of
    the wall time uncovered, else None."""
    share = 1.0 - covered / wall
    if share > GLUE_SHARE:
        return (f"stage spans leave {share:.1%} of {wall:.3f} s of op "
                f"time uncovered")
    return None


class LayerTotals:
    """Per-layer sums over the ops of one traced run."""

    def __init__(self):
        self.ops = 0
        self.total = collections.Counter()
        self.self_time = collections.Counter()
        self.calls = collections.Counter()
        self.errors = collections.Counter()
        self.extra = collections.Counter()
        self.overhead = 0.0

    def add(self, spans, evals, attempts, overhead, covered, wall):
        self.ops += 1
        self.overhead += overhead
        self.extra["covered_s"] += covered
        self.extra["op_wall_s"] += wall
        self.extra["al_evals"] += evals
        own = self_times({sid: (s["parent"], s["start"], s["end"])
                          for sid, s in spans.items()})
        for sid, s in spans.items():
            name = s["name"]
            self.total[name] += s["end"] - s["start"]
            self.self_time[name] += own[sid]
            self.calls[name] += 1
            if s["error"]:
                self.errors[name, s["error"]] += 1
            if name == "corridor.construct_safe_corridor" and s["info"]:
                for key, value in s["info"].items():
                    self.extra["corridor_" + key] += value
                self.extra["corridors"] += 1
        for a in attempts:
            self.extra["attempts"] += 1
            solve_s = a["stages"].get("optimizer.solve_nlp", 0.0)
            for info in a["solve"]:
                for key in ("outer", "inner", "capped"):
                    self.extra[key] += info[key]
            if a["outcome"] in ("satisfied", "planned"):
                self.extra["useful_solve_s"] += solve_s
            else:
                self.extra["wasted_attempt_s"] += a["seconds"]
                self.extra["failed_solve_s"] += solve_s
                self.extra["fail." + a["outcome"].removeprefix("failed:")] \
                    += 1

    def module_self(self):
        out = collections.Counter()
        for name, secs in self.self_time.items():
            out[name.split(".")[0]] += secs
        return out

    def metrics(self):
        """Per-op values (units in METRIC_UNITS) keyed by metric name."""
        n = max(self.ops, 1)
        t, c, x = self.total, self.calls, self.extra
        mods = self.module_self()
        solve = t["optimizer.solve_nlp"]
        op_s = t["bench.op"]
        inner = x["inner"]
        corridors = max(x["corridors"], 1)
        grow = c["st_planner.grow_tree"]
        tree_fail = self.errors["st_planner.grow_tree", "TreeFailure"]
        windows = c["st_planner.discretize_path"] + tree_fail
        plan_local_ok = c["st_planner.plan_local"] - sum(
            v for (name, _), v in self.errors.items()
            if name == "st_planner.plan_local")
        m = {
            "optimizer.solve_s": solve / n,
            "optimizer.solve_failed_s": x["failed_solve_s"] / n,
            "optimizer.useful_solve_ratio":
                (x["useful_solve_s"] / solve) if solve else 1.0,
            "optimizer.solve_share": solve / op_s if op_s else 0.0,
            "optimizer.factor_share": t["optimizer.splu"] / op_s
            if op_s else 0.0,
            "optimizer.factor_s": t["optimizer.splu"] / n,
            "optimizer.factor_calls": c["optimizer.splu"] / n,
            "optimizer.al_evals": x["al_evals"] / n,
            "optimizer.al_evals_per_inner":
                (x["al_evals"] / inner) if inner else 0.0,
            "optimizer.inner_iter_ms": (1e3 * solve / inner) if inner else 0.0,
            "optimizer.outer_iterations": x["outer"] / n,
            "optimizer.inner_iterations": inner / n,
            "optimizer.inner_capped": x["capped"] / n,
            "optimizer.build_nlp_s": t["optimizer.build_nlp"] / n,
            "optimizer.build_infeasible": self.errors[
                "optimizer.build_nlp", "InfeasibleConstraintError"] / n,
            "corridor.construct_s": t["corridor.construct_safe_corridor"] / n,
            "corridor.safe_cor_s": t["corridor.safe_cor"] / n,
            "corridor.safe_cor_calls": c["corridor.safe_cor"] / n,
            "corridor.distinct_boxes": x["corridor_distinct"] / corridors,
            "corridor.zero_width_handoffs": x["corridor_zero_width"]
            / corridors,
            "corridor.disjoint_handoffs": x["corridor_disjoint"] / corridors,
            "st_planner.plan_s": mods["st_planner"] / n,
            "st_planner.grow_tree_s": t["st_planner.grow_tree"] / n,
            "st_planner.grow_tree_calls": grow / n,
            "st_planner.tree_success_ratio":
                ((grow - tree_fail) / grow) if grow else 1.0,
            "st_planner.window_success_ratio":
                (plan_local_ok / windows) if windows else 1.0,
            "satisfaction.stl_sat_s": t["satisfaction.stl_sat"] / n,
            "satisfaction.stl_sat_calls": c["satisfaction.stl_sat"] / n,
            "decomposer.decompose_s": t["decomposer.decompose"] / n,
            "stl_core.oracle_s": t["stl_core.oracle_satisfies_formula"] / n,
            "stl_core.oracle_calls": c["stl_core.oracle_satisfies_formula"]
            / n,
            "scenario_cli.self_s": mods["scenario_cli"] / n,
            "scenario_cli.attempts": x["attempts"] / n,
            "scenario_cli.wasted_attempt_s": x["wasted_attempt_s"] / n,
            "trace.overhead_s": self.overhead / n,
            "trace.uncovered_share": (1.0 - x["covered_s"] / x["op_wall_s"])
            if x["op_wall_s"] else 0.0,
        }
        for status in FAIL_STATUSES:
            m["scenario_cli.attempt_fail." + status] = x["fail." + status] / n
        # self time of the modules whose spans nest others; the rest
        # equal a total above
        for module in ("stl_core", "corridor", "optimizer", "bench"):
            m[module + ".self_s"] = mods[module] / n
        return m


def metric_unit(name):
    if name.endswith(("_ratio", "_per_inner", "_share")):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    if name.split(".")[0] == "corridor" and name != "corridor.safe_cor_calls":
        return "1/corridor"
    return "1/op"
