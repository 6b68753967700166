"""Output checks coded apart from the package.

Nothing here calls the package's oracle, geometry or dynamics: the
task formula is re-parsed from the scenario's JSON text, clauses are
evaluated on integer grid indices, segments are clipped against the
obstacles with a vectorized slab test, and the unicycle step is written
out again.  Every check returns a list of problems; empty means pass.
"""

import math
import re

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z_]\w*)|([!&\[\](),]))")
_GRID_TOL = 1e-9


class TaskSpec:
    """Workspace, task clauses and limits read straight from the JSON."""

    def __init__(self, raw):
        self.tau = float(raw["tau"])
        ws = raw["workspace"]
        (bx, by) = ws["bounds"]
        self.bounds = (np.array([bx[0], by[0]], float),
                       np.array([bx[1], by[1]], float))
        self.obstacles = [(np.array([o[0][0], o[1][0]], float),
                           np.array([o[0][1], o[1][1]], float))
                          for o in ws.get("obstacles", [])]
        self.regions = {name: (np.array([s[0][0], s[1][0]], float),
                               np.array([s[0][1], s[1][1]], float))
                        for name, s in ws.get("regions", {}).items()}
        self.clauses = _parse(raw["formula"], self)
        self.x0 = np.array(raw["x0"], float)
        dyn = raw["dynamics"]
        v = dyn.get("v", (-4.0, 4.0))
        w = dyn.get("omega", (-math.pi / 3, math.pi / 3))
        self.input_lo = np.array([v[0], w[0]], float)
        self.input_hi = np.array([v[1], w[1]], float)
        self.v_max = max(abs(v[0]), abs(v[1]))
        self.eps_feas = float(raw.get("solver", {}).get("eps_feas", 1e-4))
        self.horizon = max(_active_end(c) for c in self.clauses)

    def steps(self, t):
        k = round(t / self.tau)
        if abs(k * self.tau - t) > _GRID_TOL * max(1.0, t):
            raise ValueError(f"time {t} is not a multiple of tau {self.tau}")
        return k


def _active_end(clause):
    kind, outer, inner, _ = clause
    return outer[1] + (inner[1] if inner is not None else 0)


def _parse(text, spec):
    """Clauses (kind, (a, b), (c, d) or None, (lo, hi, negated)) with
    interval ends in grid steps; an until becomes its documented
    strengthening, a hold of the left atom plus a reach of the right."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad formula text at {pos}")
            break
        toks.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    toks.append("")
    i = 0

    def take(expect=None):
        nonlocal i
        tok = toks[i]
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, found {tok!r}")
        i += 1
        return tok

    def ival():
        take("[")
        a = spec.steps(float(take()))
        take(",")
        b = spec.steps(float(take()))
        take("]")
        return (a, b)

    def atom():
        if toks[i] == "!":
            take()
            lo, hi = spec.regions[take()]
            return (lo, hi, True)
        if toks[i] == "(":
            take()
            lo, hi = spec.regions[take()]
            while toks[i] == "&":
                take()
                rlo, rhi = spec.regions[take()]
                lo, hi = np.maximum(lo, rlo), np.minimum(hi, rhi)
            take(")")
            return (lo, hi, False)
        lo, hi = spec.regions[take()]
        return (lo, hi, False)

    clauses = []
    while True:
        if toks[i] in ("F", "G"):
            op = take()
            outer = ival()
            if toks[i] in ("F", "G"):
                op += take()
                inner = ival()
            else:
                inner = None
            clauses.append((op, outer, inner, atom()))
        else:
            left = atom()
            take("U")
            window = ival()
            right = atom()
            clauses.append(("G", window, None, left))
            clauses.append(("F", window, None, right))
        if toks[i] != "&":
            break
        take()
    take("")
    return clauses


def _inside(points, atom):
    lo, hi, negated = atom
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    return ~inside if negated else inside


def _clause_holds(clause, inside):
    kind, (a, b), inner, _ = clause
    if kind == "F":
        return bool(inside[a:b + 1].any())
    if kind == "G":
        return bool(inside[a:b + 1].all())
    c, d = inner
    windows = [inside[k + c:k + d + 1] for k in range(a, b + 1)]
    if kind == "FG":
        return any(w.all() for w in windows)
    return all(w.any() for w in windows)


def task_problems(spec, points):
    """Clauses violated by a position sequence sampled at k*tau, k>=0."""
    problems = []
    need = spec.horizon + 1
    if len(points) < need:
        return [f"{len(points)} samples cannot cover {need} grid steps"]
    for n, clause in enumerate(spec.clauses):
        if not _clause_holds(clause, _inside(points, clause[3])):
            problems.append(f"clause {n} ({clause[0]}) does not hold")
    return problems


def segment_hits(a, b, lo, hi):
    """Per segment a[i]-b[i]: does the closed segment meet the closed box
    [lo, hi]?  Vectorized slab clipping; touching counts as a hit."""
    d = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - a) / d
        t2 = (hi - a) / d
    near = np.where(d == 0.0, -np.inf, np.minimum(t1, t2))
    far = np.where(d == 0.0, np.inf, np.maximum(t1, t2))
    parallel_out = (d == 0.0) & ((a < lo) | (a > hi))
    enter = np.maximum(near.max(axis=1), 0.0)
    leave = np.minimum(far.min(axis=1), 1.0)
    return (enter <= leave) & ~parallel_out.any(axis=1)


def path_problems(spec, points, polyline):
    """Bounds and obstacle problems of a point sequence; with polyline,
    every segment between consecutive points is tested too."""
    problems = []
    lo, hi = spec.bounds
    if not np.all((points >= lo) & (points <= hi)):
        problems.append("a point leaves the workspace bounds")
    for n, (olo, ohi) in enumerate(spec.obstacles):
        if polyline:
            hits = segment_hits(points[:-1], points[1:], olo, ohi)
        else:
            hits = np.all((points >= olo) & (points <= ohi), axis=1)
        if hits.any():
            problems.append(f"obstacle {n} is hit at step "
                            f"{int(np.argmax(hits))}")
    return problems


def parse_traj_csv(text):
    """(states, inputs) from the trajectory CSV text."""
    rows = text.strip().split("\n")
    if rows[0] != "k,t,x,y,theta,v,omega":
        raise ValueError("unexpected trajectory header")
    states, inputs = [], []
    for j, row in enumerate(rows[1:]):
        cells = row.split(",")
        if int(cells[0]) != j:
            raise ValueError(f"row {j} has step {cells[0]}")
        states.append([float(c) for c in cells[2:5]])
        if cells[5]:
            inputs.append([float(cells[5]), float(cells[6])])
    return np.array(states), np.array(inputs).reshape(-1, 2)


def dynamics_defect(spec, states, inputs):
    """Worst one-step defect of the unicycle x' = x + tau v cos(theta),
    y' = y + tau v sin(theta), theta' = theta + tau omega; headings are
    compared modulo 2 pi because the CSV wraps them."""
    x, y, th = states[:-1, 0], states[:-1, 1], states[:-1, 2]
    v, w = inputs[:, 0], inputs[:, 1]
    dx = states[1:, 0] - (x + spec.tau * v * np.cos(th))
    dy = states[1:, 1] - (y + spec.tau * v * np.sin(th))
    dth = np.angle(np.exp(1j * (states[1:, 2] - th - spec.tau * w)))
    return float(np.max(np.abs(np.concatenate([dx, dy, dth]))))


def trajectory_problems(spec, traj_text):
    """Everything a satisfied run promises about its traj.csv."""
    states, inputs = parse_traj_csv(traj_text)
    K = spec.horizon
    if len(states) != K + 1 or len(inputs) != K:
        return [f"trajectory has {len(states)} states and {len(inputs)} "
                f"inputs for horizon {K}"]
    problems = []
    if np.max(np.abs(states[0, :2] - spec.x0[:2])) > 1e-9:
        problems.append("trajectory does not start at x0")
    problems += task_problems(spec, states[:, :2])
    problems += path_problems(spec, states[:, :2], polyline=True)
    if np.any(inputs < spec.input_lo - 1e-9) or \
            np.any(inputs > spec.input_hi + 1e-9):
        problems.append("an input leaves its bounds")
    defect = dynamics_defect(spec, states, inputs)
    if defect > spec.eps_feas * (1.0 + 1e-6) + 1e-12:
        problems.append(f"dynamics defect {defect:.3g} above "
                        f"{spec.eps_feas:g}")
    return problems


def _region_of_label(spec, label):
    negated = label.startswith("!")
    names = label.lstrip("!").split("&")
    lo, hi = spec.regions[names[0]]
    for name in names[1:]:
        rlo, rhi = spec.regions[name]
        lo, hi = np.maximum(lo, rlo), np.minimum(hi, rhi)
    return (lo, hi, negated)


def plan_problems(spec, waypoints, pairs, boxes):
    """Waypoints, certificate pairs (k, label) and corridor boxes
    ((lo, hi) per step) of one planning attempt."""
    pts = np.asarray(waypoints, float)
    K = spec.horizon
    if len(pts) != K + 1:
        return [f"{len(pts)} waypoints for horizon {K}"]
    problems = []
    if np.max(np.abs(pts[0] - spec.x0[:2])) > 1e-9:
        problems.append("plan does not start at x0")
    problems += task_problems(spec, pts)
    problems += path_problems(spec, pts, polyline=False)
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(steps > spec.v_max * spec.tau * (1.0 + 1e-6)):
        problems.append("waypoint spacing exceeds the speed limit")
    for k, label in pairs:
        if not _inside(pts[k:k + 1], _region_of_label(spec, label))[0]:
            problems.append(f"certificate pair ({k}, {label}) is false")
    lo, hi = np.asarray(boxes, float).transpose(1, 0, 2)
    if len(lo) != K + 1:
        return problems + [f"{len(lo)} corridor boxes for {K + 1} "
                           f"waypoints"]
    for what, bad in (
            ("misses its waypoint", np.any((pts < lo) | (pts > hi), axis=1)),
            ("leaves the workspace", np.any((lo < spec.bounds[0])
                                            | (hi > spec.bounds[1]), axis=1)),
            ("shares no doorway with the previous box", np.concatenate(
                [[False], np.any(np.maximum(lo[1:], lo[:-1])
                                 > np.minimum(hi[1:], hi[:-1]), axis=1)])),
            *((f"overlaps obstacle {n}",
               np.all(np.maximum(lo, olo) < np.minimum(hi, ohi), axis=1))
              for n, (olo, ohi) in enumerate(spec.obstacles))):
        if bad.any():
            problems.append(f"box {int(np.argmax(bad))} {what}")
    return problems
