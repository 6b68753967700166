"""Scenario configuration, the end-to-end pipeline, and the CLI.

A scenario JSON bundles the workspace, the task formula, the vehicle,
and tuning for the planner and solver.  The pipeline decomposes the
formula, plans timed waypoints, builds the corridor, solves the
trajectory optimization, writes all artifacts, and then verifies the
trajectory the way a consumer would see it: re-loaded from traj.csv and
checked with satisfaction.stl_sat plus collision and input-bound scans.

Exit codes: 0 task satisfied, 2 pipeline completed but the trajectory
does not satisfy the task, 3 a stage failed, 4 configuration error (a
usage error too), or an unwritable output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .corridor import DEFAULT_STEP, construct_safe_corridor
from .decomposer import decompose
from .optimizer import (InfeasibleConstraintError, SolverTolerances,
                        build_nlp, evaluate_solution, initial_guess,
                        solve_nlp, unicycle_model)
from .st_planner import PlannerParams, plan_global
from .stl_core import (Box, PointSequence, Region, StlError, Workspace,
                       is_identifier, oracle_satisfies_formula, parse_formula,
                       seconds, snap_index)

BUILTIN_SCENARIOS = ("scenario1", "scenario2", "scenario3")
_REPLAN_LIMIT = 3
_SEED_STRIDE = 10 ** 9


class ConfigError(StlError):
    pass


@dataclass
class Scenario:
    name: str
    tau: float
    workspace: Workspace
    formula_text: str
    formula: object
    x0: np.ndarray
    model: object
    planner: PlannerParams
    tolerances: SolverTolerances
    q_weights: tuple = (1.0, 1.0)
    r_weights: tuple = (1.0, 1.0, 0.1)
    corridor_step: float = DEFAULT_STEP
    seed: int = 0

    @property
    def horizon_steps(self):
        return self.formula.horizon


# ---------------------------------------------------------------------------
# scenario schema: one key table per JSON object, mapping each accepted
# key to a parser (value, dotted key name) -> parsed value that raises
# ConfigError.  Absent optional keys stay absent, so the defaults are
# those of Scenario, PlannerParams, SolverTolerances and unicycle_model.

def _scalar(kinds, what, test=lambda v: True, cast=lambda v: v):
    def parse(value, name):
        if isinstance(value, bool) or not isinstance(value, kinds) \
                or not test(value):
            raise ConfigError(f"{name} must be {what}")
        return cast(value)
    return parse


def _array(item, what, size=None, test=lambda v: True, cast=tuple):
    def parse(value, name):
        if not isinstance(value, list) or size not in (None, len(value)):
            raise ConfigError(f"{name} must be {what}")
        parsed = tuple(item(v, f"{name}[{i}]") for i, v in enumerate(value))
        if not test(parsed):
            raise ConfigError(f"{name} must be {what}")
        return cast(parsed)
    return parse


_number = _scalar((int, float), "a number", math.isfinite, float)
_positive = _scalar((int, float), "a positive number",
                    lambda v: 0 < v < math.inf, float)
_fraction = _scalar((int, float), "a number in [0, 1]",
                    lambda v: 0 <= v <= 1, float)
_count = _scalar(int, "a non-negative integer", lambda v: v >= 0)
_weight = _scalar((int, float), "a number >= 0",
                  lambda v: 0 <= v < math.inf, float)
_text = _scalar(str, "a string")
_interval = _array(_number, "[lo, hi] with lo < hi", 2,
                   lambda v: v[0] < v[1])
_box = _array(_interval, "[[xlo, xhi], [ylo, yhi]]", 2,
              cast=lambda axes: Box(*zip(*axes)))
_obstacles = _array(_box, "a list of boxes")
_unicycle = _scalar(str, "'unicycle'", lambda v: v == "unicycle")


def _vector(size):
    return _array(_number, f"a list of {size} numbers", size)


def _regions(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object of named boxes")
    for label in value:
        if not is_identifier(label):
            raise ConfigError(
                f"{name} key {label!r} is not a formula identifier (a "
                f"letter or _, then letters, digits or _, and none of the "
                f"operators F, G, U)")
    return tuple(Region(label, _box(box, f"{name}.{label}"))
                 for label, box in value.items())


def _table(keys, required=()):
    """Parser of a JSON object whose keys are drawn from `keys`."""
    def parse(value, name):
        what = name or "scenario"
        if not isinstance(value, dict):
            raise ConfigError(f"{what} must be a JSON object")
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ConfigError(f"unknown {what} keys: {unknown}")
        prefix = f"{name}." if name else ""
        for key in required:
            if key not in value:
                raise ConfigError(f"missing required field {prefix + key!r}")
        return {key: keys[key](v, prefix + key) for key, v in value.items()}
    return parse


def _workspace(value, name):
    spec = _table({"bounds": _box, "obstacles": _obstacles,
                   "regions": _regions}, required=("bounds",))(value, name)
    ws = Workspace(spec["bounds"], spec.get("obstacles", ()),
                   spec.get("regions", ()))
    named = [(f"obstacle {i}", box) for i, box in enumerate(ws.obstacles)]
    for what, box in named + [(f"region {r.name!r}", r.box)
                              for r in ws.regions]:
        if not (ws.bounds.contains(box.lo) and ws.bounds.contains(box.hi)):
            raise ConfigError(f"{what} leaves the workspace bounds")
    return ws


_SCENARIO = _table({
    "name": _text,
    "notes": _text,
    "tau": _positive,
    "workspace": _workspace,
    "formula": _text,
    "x0": _vector(3),
    "dynamics": _table({"model": _unicycle, "v": _interval,
                        "omega": _interval}, required=("model",)),
    "planner": _table({"goal_bias": _fraction, "step": _positive,
                       "time_step": _positive,
                       "max_iters_per_tree": _count, "max_restarts": _count}),
    "solver": _table({"eps_feas": _positive, "eps_opt": _positive,
                      "max_outer": _count, "max_inner": _count,
                      "q_weights": _array(_weight, "2 weights >= 0", 2),
                      "r_weights": _array(_weight, "3 weights >= 0", 3)}),
    "corridor": _table({"step": _positive}),
    "seed": _count,
}, required=("name", "tau", "workspace", "formula", "x0", "dynamics"))


def _require_free_atoms(formula, ws):
    """Reject an atom that no free point satisfies: a region, not
    negated, that lies (closed) inside one obstacle box."""
    for sub in formula.subtasks:
        if sub.prop.negated:
            continue
        box = sub.prop.region.box
        for i, o in enumerate(ws.obstacles):
            if o.contains(box.lo) and o.contains(box.hi):
                raise ConfigError(
                    f"atom {sub.prop.label!r} of {sub} lies inside "
                    f"obstacle {i}; no free point satisfies it")


def _unique_keys(pairs):
    """dict(pairs) of one JSON object, but a key given twice, which
    json.loads alone would collapse to its last value, is a ConfigError."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate JSON key {key!r}")
        data[key] = value
    return data


def load_scenario(source):
    """Load and validate a scenario from a path or a built-in name."""
    path = Path(source)
    if not path.exists():
        stem = str(source).removesuffix(".json")
        if stem not in BUILTIN_SCENARIOS:
            raise ConfigError(f"no such scenario file or built-in: {source}")
        path = resources.files("stlplan") / "scenarios" / f"{stem}.json"
    try:
        data = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {source}: {err}") from None
    except (json.JSONDecodeError, RecursionError) as err:
        raise ConfigError(f"invalid JSON: {err}") from None

    spec = _SCENARIO(data, "")
    tau, ws, dyn = spec["tau"], spec["workspace"], spec["dynamics"]
    x0 = np.array(spec["x0"])
    if not ws.point_free(x0[:2]):
        raise ConfigError("x0 position must be in free space")
    formula = parse_formula(spec["formula"], ws, tau=tau)
    _require_free_atoms(formula, ws)
    solver = spec.get("solver", {})
    optional = {"seed": spec["seed"]} if "seed" in spec else {}
    optional.update((key, solver.pop(key))
                    for key in ("q_weights", "r_weights") if key in solver)
    optional.update((f"corridor_{key}", value)
                    for key, value in spec.get("corridor", {}).items())
    return Scenario(
        name=spec["name"], tau=tau, workspace=ws,
        formula_text=spec["formula"], formula=formula, x0=x0,
        model=unicycle_model(tau, **{f"{axis}_bounds": dyn[axis]
                                     for axis in ("v", "omega")
                                     if axis in dyn}),
        planner=PlannerParams(**spec.get("planner", {})),
        tolerances=SolverTolerances(**solver), **optional)


# ---------------------------------------------------------------------------
# artifact serialization

def _csv_text(header, rows):
    """The header line, then one line per row."""
    return "\n".join([header, *rows]) + "\n"


def plan_csv_text(plan):
    wp = plan.waypoints
    return _csv_text("k,t,x,y", (
        f"{k},{k * wp.tau!r},{x!r},{y!r}"
        for k, (x, y) in enumerate(wp.positions.tolist(), wp.k0)))


def pairs_csv_text(plan):
    tau = plan.waypoints.tau
    return _csv_text("k,t,region", (f"{p.k},{p.k * tau!r},{p.label}"
                                    for p in plan.pairs))


def corridor_csv_text(cor):
    return _csv_text("k,xmin,xmax,ymin,ymax", (
        f"{k},{b.lo[0]!r},{b.hi[0]!r},{b.lo[1]!r},{b.hi[1]!r}"
        for k, b in enumerate(cor.boxes)))


_TRAJ_HEADER = "k,t,x,y,theta,v,omega"


def traj_csv_text(solution, tau):
    inputs = [f"{v!r},{omega!r}" for v, omega in solution.inputs.tolist()]
    return _csv_text(_TRAJ_HEADER, (
        f"{k},{float(k * tau)!r},{x!r},{y!r},"
        f"{math.remainder(theta, 2.0 * math.pi)!r},{tail}"
        for k, ((x, y, theta), tail) in enumerate(
            zip(solution.states.tolist(), inputs + [","], strict=True))))


def read_traj_csv(path, tau):
    """Parse a trajectory CSV into (positions, headings, inputs).

    The file is outside input: an unreadable file, a foreign header, a
    row without its seven cells, a non-numeric cell, a k cell that is
    not the row's index, a t cell that is not k * tau, or v and omega
    missing from a row but the last or present in the last raises
    ConfigError naming the path and the line."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    if len(lines) < 2 or lines[0] != _TRAJ_HEADER:
        raise ConfigError(f"{path}:1: not a trajectory CSV (header "
                          f"{_TRAJ_HEADER} and at least one row)")
    positions, headings, inputs = [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            k, t, x, y, theta, v, omega = line.split(",")
            step = line_no - 2
            if int(k) != step:
                raise ValueError(f"k is {k} in the row of step {step}")
            if not math.isfinite(float(t) / tau) \
                    or snap_index(float(t), tau) != step:
                raise ValueError(f"t is {t} in the row of step {step}, "
                                 f"not k * tau = {step * tau:g}")
            positions.append((float(x), float(y)))
            headings.append(float(theta))
            if line_no < len(lines):
                if not (v and omega):
                    raise ValueError(f"step {step} lacks v or omega")
                inputs.append((float(v), float(omega)))
            elif v or omega:
                raise ValueError("the last row takes no v or omega")
        except ValueError as err:
            raise ConfigError(f"{path}:{line_no}: {err}") from None
    return (np.array(positions), np.array(headings),
            np.array(inputs) if inputs else np.zeros((0, 2)))


def emit_svg(scenario, plan, cor, traj):
    """Deterministic SVG picture of the scenario and all its artifacts."""
    ws = scenario.workspace
    scale = 80.0
    pad = 24.0
    (xlo, ylo), (xhi, yhi) = ws.bounds.lo, ws.bounds.hi

    def xy(x, y):
        """The picture coordinates of a point, as text."""
        return (f"{pad + (x - xlo) * scale:.2f}",
                f"{pad + (yhi - y) * scale:.2f}")

    def rect(box, style):
        x, y = xy(box.lo[0], box.hi[1])
        w = (box.hi[0] - box.lo[0]) * scale
        h = (box.hi[1] - box.lo[1]) * scale
        return (f'<rect x="{x}" y="{y}" width="{w:.2f}" '
                f'height="{h:.2f}" {style}/>')

    def polyline(rows, style):
        pts = " ".join(",".join(xy(x, y)) for x, y in rows)
        return f'<polyline points="{pts}" fill="none" {style}/>'

    def circle(point, style):
        x, y = xy(*point)
        return f'<circle cx="{x}" cy="{y}" {style}/>'

    width = 2 * pad + (xhi - xlo) * scale
    height = 2 * pad + (yhi - ylo) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width:.0f}" height="{height:.0f}" '
             f'viewBox="0 0 {width:.0f} {height:.0f}">',
             rect(ws.bounds, 'fill="#ffffff" stroke="#000000"')]
    for o in ws.obstacles:
        parts.append(rect(o, 'fill="#9a9a9a" stroke="#6f6f6f"'))
    for r in ws.regions:
        parts.append(rect(r.box, 'fill="#d6e9f8" stroke="#3c7fb5" '
                                 'fill-opacity="0.7"'))
        x, y = xy(*((lo + hi) / 2.0 for lo, hi in zip(r.box.lo, r.box.hi)))
        parts.append(f'<text x="{x}" y="{y}" font-size="11" '
                     f'text-anchor="middle" fill="#1d4f75">{r.name}</text>')
    for box in cor.runs()[1]:
        parts.append(rect(box, 'fill="none" stroke="#d98e8e" '
                               'stroke-dasharray="4 3"'))
    waypoints = plan.waypoints.positions.tolist()
    parts.append(polyline(waypoints, 'stroke="#7f7f7f" stroke-width="1"'))
    for pair in plan.pairs:
        parts.append(circle(waypoints[pair.k - plan.waypoints.k0],
                            'r="3" fill="#2a62b8"'))
    parts.append(polyline(np.asarray(traj).tolist(),
                          'stroke="#c0392b" stroke-width="2"'))
    parts.append(circle(scenario.x0[:2].tolist(), 'r="4" fill="#1f9d44"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# pipeline

@dataclass
class RunReport:
    scenario: Scenario
    seed: int
    status: str = "failed:init"
    decomposition: object = None
    plan: object = None
    corridor: object = None
    solution: object = None
    metrics: dict = field(default_factory=dict)
    out_dir: str = ""
    error: str = ""
    attempts: list = field(default_factory=list)

    @property
    def satisfied(self):
        return self.status == "satisfied"

    def exit_code(self):
        if self.status == "satisfied":
            return 0
        if self.status == "unsatisfied":
            return 2
        return 3


def _polyline_length(points):
    return float(np.linalg.norm(np.diff(np.asarray(points), axis=0),
                                axis=1).sum())


def verify_trajectory(scenario, positions, headings, inputs):
    """Check a trajectory the way `run` and `check` both accept it: every
    sub-task by stl_sat on the grid positions, every segment of the
    polyline against the obstacles, every input within the bounds, every
    position inside the workspace bounds, the first state at x0, and
    every step within eps_feas of the model's step from the state and
    input before it (headings compared modulo 2 pi, as traj.csv wraps
    them).  A NaN fails each of the last three.  Returns {check name:
    passed} in that order.  The arrays are read_traj_csv's, of the
    scenario's horizon."""
    model = scenario.model
    ws = scenario.workspace
    states = np.column_stack([positions, headings])
    with np.errstate(invalid="ignore"):
        # row 0: the offset from x0; row k: the defect of step k - 1
        gap = np.vstack([scenario.x0 - states[:1],
                         model.step(states[:-1], inputs) - states[1:]])
        gap[:, 2] = (gap[:, 2] + math.pi) % (2.0 * math.pi) - math.pi
    gap = np.abs(gap)
    return {
        # stl_sat's verdict per sub-task; perfbench wraps this name, so it
        # stays until the next benchmark change (see FOUND in CHANGES.md)
        "satisfied": bool(oracle_satisfies_formula(
            PointSequence(0, scenario.tau, positions), scenario.formula)),
        "collision_free": not ws.segments_collide(positions[:-1],
                                                  positions[1:]).any(),
        "inputs_within_bounds": bool(
            np.all(inputs >= np.array(model.input_lo) - 1e-9)
            and np.all(inputs <= np.array(model.input_hi) + 1e-9)),
        "inside_workspace": bool(np.all((positions >= ws.bounds.lo) &
                                        (positions <= ws.bounds.hi))),
        "starts_at_x0": bool(np.all(gap[0] <= 1e-9)),
        "dynamics_feasible": bool(
            np.all(gap[1:] <= scenario.tolerances.eps_feas * (1.0 + 1e-6)
                   + 1e-12)),
    }


_PLAN_ARTIFACTS = ("plan.csv", "pairs.csv")
_ARTIFACTS = _PLAN_ARTIFACTS + ("corridor.csv", "traj.csv", "figure.svg",
                                "report.txt")


def _cleared_out(out_dir, artifacts):
    """out_dir, created if missing, without these artifacts of an
    earlier run, so none outlives the run about to write them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # unlinked, not overwritten: ext4 flushes a file truncated and
    # rewritten in place on close (auto_da_alloc), which costs a rerun
    # into the same out_dir about 2 ms more than writing new files
    for name in artifacts:
        (out / name).unlink(missing_ok=True)
    return out


def run_pipeline(scenario, seed, out_dir):
    """Run decompose / plan / corridor / optimize / verify with planner
    seed `seed` and write all artifacts into out_dir.  Verification
    re-reads traj.csv from disk.  Partial artifacts are still written
    when a stage fails; those of an earlier run into out_dir are removed
    first, so none outlives the run.  A task that decompose rejects
    raises its StlError after report.txt is written, as `validate` and
    `plan` do."""
    out = _cleared_out(out_dir, _ARTIFACTS)
    report = RunReport(scenario=scenario, seed=seed, out_dir=str(out))
    try:
        _run_stages(scenario, seed, out, report)
    finally:
        _write_report_text(out, report)
    return report


def _run_stages(scenario, seed, out, report):
    t0 = time.perf_counter()
    try:
        dec = decompose(scenario.formula, scenario.tau)
    except Exception as err:
        report.status, report.error = _failure("decompose", err)
        if isinstance(err, StlError):
            raise  # a task decompose rejects is a configuration error
        return
    report.decomposition = dec
    report.metrics["decompose_seconds"] = time.perf_counter() - t0

    for i in range(1 + _REPLAN_LIMIT):
        attempt = RunReport(scenario, seed + _SEED_STRIDE * i)
        _attempt_stages(scenario, dec, out, attempt)
        report.attempts.append(attempt)
        if attempt.status in ("satisfied", "failed:plan"):
            break
    report.status, report.error = attempt.status, attempt.error
    report.plan, report.corridor = attempt.plan, attempt.corridor
    report.solution = attempt.solution
    report.metrics.update(attempt.metrics, attempts=len(report.attempts))
    report.metrics["attempt_outcomes"] = [a.status for a in report.attempts]


def _failure(stage, err):
    """(status, error text) of an exception raised inside `stage`."""
    if isinstance(err, InfeasibleConstraintError):
        stage = "optimize-infeasible"
    return f"failed:{stage}", (str(err) if isinstance(err, StlError)
                               else repr(err))


def _plan_stage(scenario, dec, seed, out):
    """The plan stage of `run` and `plan`: plan_global with planner seed
    `seed`, GlobalPlan.validate against the speed limit and the horizon,
    then plan.csv and pairs.csv in out.  Nothing is written when planning
    or validation raises."""
    ws, model = scenario.workspace, scenario.model
    params = replace(scenario.planner, rng_seed=seed)
    plan = plan_global(dec, scenario.x0[:2], ws, params, tau=scenario.tau,
                       v_max=model.speed_limit)
    plan.validate(ws, model.speed_limit,
                  expected_len=scenario.horizon_steps + 1)
    (out / "plan.csv").write_text(plan_csv_text(plan))
    (out / "pairs.csv").write_text(pairs_csv_text(plan))
    return plan


def _attempt_stages(scenario, dec, out, attempt):
    """One plan / corridor / optimize / verify pass with planner seed
    attempt.seed, recorded in the fresh report `attempt`.  Any exception
    ends the attempt as failed:<the stage that raised it>."""
    ws = scenario.workspace
    tau = scenario.tau
    model = scenario.model
    m = attempt.metrics
    start = time.perf_counter()
    stage = "plan"
    try:
        plan = _plan_stage(scenario, dec, attempt.seed, out)
        attempt.plan = plan
        m["plan_seconds"] = time.perf_counter() - start
        m["plan_length"] = _polyline_length(plan.waypoints.positions)
        m["pair_count"] = len(plan.pairs)

        stage = "corridor"
        t0 = time.perf_counter()
        cor = construct_safe_corridor(plan.waypoints, ws,
                                      scenario.corridor_step)
        cor.validate(ws, plan.waypoints.positions)
        attempt.corridor = cor
        m["corridor_seconds"] = time.perf_counter() - t0
        m["corridor_distinct_boxes"] = len(cor.runs()[1])
        (out / "corridor.csv").write_text(corridor_csv_text(cor))

        stage = "optimize"
        t0 = time.perf_counter()
        problem = build_nlp(plan, cor, ws, model, scenario.x0,
                            q_weights=scenario.q_weights,
                            r_weights=scenario.r_weights)
        init = initial_guess(problem, plan.waypoints.positions)
        solution = solve_nlp(problem, init, scenario.tolerances)
        attempt.solution = solution
        m["solve_seconds"] = time.perf_counter() - t0
        m["solver_outer_iterations"] = solution.outer_iterations
        m["solver_violation"] = solution.max_violation
        m["solver_cost"] = solution.cost
        m["traj_length"] = _polyline_length(solution.states[:, :2])
        (out / "traj.csv").write_text(traj_csv_text(solution, tau))
        (out / "figure.svg").write_text(
            emit_svg(scenario, plan, cor, solution.states[:, :2]))
        if not solution.converged:
            raise StlError(f"solver did not converge: {solution.message}")

        stage = "verify"
        positions, headings, inputs = read_traj_csv(out / "traj.csv", tau)
        verdict = verify_trajectory(scenario, positions, headings, inputs)
        m.update(verdict, **evaluate_solution(problem, solution.states,
                                              solution.inputs))
        detail = ", ".join(f"{name}={ok}" for name, ok in verdict.items())
        m["verify_detail"] = f"{detail} (re-read from traj.csv)"
        attempt.status = "satisfied"
        if not all(verdict.values()):
            attempt.status, attempt.error = "unsatisfied", m["verify_detail"]
    except Exception as err:
        attempt.status, attempt.error = _failure(stage, err)
    finally:
        m["attempt_seconds"] = time.perf_counter() - start


def _write_report_text(out, report):
    lines = [f"scenario: {report.scenario.name} (seed {report.seed})",
             f"formula: {report.scenario.formula_text}",
             f"status: {report.status}"]
    for i, a in enumerate(report.attempts, start=1):
        lines.append(f"attempt {i} (seed {a.seed}, "
                     f"{a.metrics['attempt_seconds']:.2f} s): {a.status}"
                     + (f": {a.error}" if a.error else ""))
    if report.error:
        lines.append(f"last error: {report.error}")
    if report.decomposition is not None:
        lines.append("-- decomposition --")
        lines.append(report.decomposition.explain())
    lines.append("-- metrics --")
    for key in sorted(report.metrics):
        lines.append(f"{key}: {report.metrics[key]}")
    (out / "report.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CLI

def _cmd_validate(args, scenario):
    dec = decompose(scenario.formula, scenario.tau)
    print(f"{scenario.name}: valid "
          f"({len(scenario.workspace.regions)} regions, "
          f"{len(scenario.workspace.obstacles)} obstacles, "
          f"horizon {seconds(scenario.formula.horizon, scenario.tau)} s, "
          f"{len(dec.local_tasks)} local tasks)")
    return 0


def _cmd_decompose(args, scenario):
    print(decompose(scenario.formula, scenario.tau).explain())
    return 0


def _seed(args, scenario):
    if args.seed is None:
        return scenario.seed
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    return args.seed


def _cmd_plan(args, scenario):
    seed = _seed(args, scenario)
    dec = decompose(scenario.formula, scenario.tau)
    out = _cleared_out(args.out, _PLAN_ARTIFACTS)
    try:
        plan = _plan_stage(scenario, dec, seed, out)
    except Exception as err:  # as `run` records failed:plan
        _, error = _failure("plan", err)
        print(f"planning failed: {error}", file=sys.stderr)
        return 3
    print(f"{scenario.name} seed {seed}: {len(plan.waypoints)} waypoints, "
          f"{len(plan.pairs)} pairs -> {out}/plan.csv")
    return 0


def _cmd_run(args, scenario):
    seed = _seed(args, scenario)
    if args.repeat < 1:
        raise ConfigError("--repeat must be a positive integer")
    if args.repeat == 1:
        report = run_pipeline(scenario, seed=seed, out_dir=args.out)
        print(Path(report.out_dir, "report.txt").read_text(), end="")
        if report.error:
            print(f"error: {report.error}", file=sys.stderr)
        return report.exit_code()
    # load the solver's LAPACK once here, so forked workers inherit it
    import scipy.linalg.lapack

    # one worker per CPU this process may run on: under fork the pool
    # starts every worker up front, and more would only share the CPUs
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    # a Scenario pickles: every worker runs the one loaded above
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(args.repeat, cpus)) as pool:
        futures = [pool.submit(run_pipeline, scenario, seed=s,
                               out_dir=Path(args.out) / f"seed{s}")
                   for s in range(seed, seed + args.repeat)]
        reports = [fut.result() for fut in futures]
    for report in reports:
        length = report.metrics.get("traj_length")
        extra = f", length {length:.2f} m" if length is not None else ""
        print(f"seed {report.seed}: {report.status}{extra}")
    # 3 outranks 2 outranks 0
    return max(report.exit_code() for report in reports)


def _cmd_check(args, scenario):
    positions, headings, inputs = read_traj_csv(args.traj, scenario.tau)
    if len(positions) != scenario.horizon_steps + 1:
        raise ConfigError(f"{args.traj} has {len(positions)} rows but "
                          f"{scenario.name} needs {scenario.horizon_steps + 1}"
                          f" (one per step k = 0..{scenario.horizon_steps})")
    verdict = verify_trajectory(scenario, positions, headings, inputs)
    failed = [name for name, ok in verdict.items() if not ok]
    if failed:
        print(f"{args.traj}: does not satisfy {scenario.name} "
              f"(failed: {', '.join(failed)})")
        return 2
    print(f"{args.traj}: satisfies {scenario.name}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 4, as configuration errors, not with argparse's
    2, which `check` means as "does not satisfy"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="stlplan",
        description="Plan and optimize trajectories for temporal-logic "
                    "tasks over box workspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("decompose", help="show the timeline decomposition")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("plan", help="plan waypoints only")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.add_argument("--repeat", type=int, default=1,
                   help="run this many consecutive seeds in parallel")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", help="verify a trajectory CSV")
    p.add_argument("traj")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args, load_scenario(args.scenario))
    except (StlError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 4

