"""Shared test fixtures: workspace builders, an independently coded
satisfaction evaluator, randomized instance generators, dense
references for the Newton system of a transcription, per-step loop
references for the corridor check and the transcription bounds, the
round-by-round box growth, the per-grid-point path sampling and the
per-step initial guess that the array versions must reproduce bit for
bit, and a call counter.

The evaluator here deliberately repeats none of the package code: it
works on float time lists with tolerant interval membership instead of
integer grid indices, so agreement between the two is meaningful.
"""

import math

import numpy as np

from stlplan.corridor import CorridorError, DEFAULT_STEP
from stlplan.optimizer import (InfeasibleConstraintError, _step_jacobians,
                               _time_major_order)
from stlplan.stl_core import (AtomicProp, Box, PointSequence, Region,
                              SubTask, TimeInterval, Workspace)

TIME_EPS = 1e-9


def make_ws(bounds=((0.0, 0.0), (10.0, 10.0)), obstacles=(), regions=()):
    """Workspace from plain tuples: bounds/obstacles as (lo, hi) pairs,
    regions as (name, lo, hi) triples."""
    bbox = Box(bounds[0], bounds[1])
    obs = tuple(Box(lo, hi) for lo, hi in obstacles)
    regs = tuple(Region(name, Box(lo, hi)) for name, lo, hi in regions)
    return Workspace(bbox, obs, regs)


def region_atom(name, lo, hi, negated=False):
    return AtomicProp(Region(name, Box(lo, hi)), negated=negated)


def direct_eval(seq, sub):
    """Double-loop satisfaction over float times; the reference the
    package oracle is checked against."""
    times = [(seq.k0 + j) * seq.tau for j in range(len(seq))]
    inside = [bool(sub.prop.holds(seq.positions[j]))
              for j in range(len(seq))]

    def within(t, lo, hi):
        return lo - TIME_EPS <= t <= hi + TIME_EPS

    outer = [j for j, t in enumerate(times)
             if within(t, sub.outer.lo, sub.outer.hi)]
    if sub.kind == "F":
        return any(inside[j] for j in outer)
    if sub.kind == "G":
        return all(inside[j] for j in outer)
    if sub.kind == "FG":
        for j in outer:
            window = [i for i, t in enumerate(times)
                      if within(t, times[j] + sub.inner.lo,
                                times[j] + sub.inner.hi)]
            if all(inside[i] for i in window):
                return True
        return False
    for j in outer:
        window = [i for i, t in enumerate(times)
                  if within(t, times[j] + sub.inner.lo,
                            times[j] + sub.inner.hi)]
        if not any(inside[i] for i in window):
            return False
    return True


def random_instance(rng, max_samples=40, inside_bias=0.5):
    """One randomized (sequence, sub-task) pair on a unit grid.

    The sequence always starts at k0 = 0 and covers the sub-task's
    active interval; in total at most max_samples grid points.
    """
    tau = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
    last = int(rng.integers(1, max_samples))  # index of the final sample
    kind = str(rng.choice(["F", "G", "FG", "GF"]))
    if kind in ("F", "G"):
        a = int(rng.integers(0, last))
        b = int(rng.integers(a, last + 1))
        outer = TimeInterval(a * tau, b * tau)
        inner = None
    else:
        d = int(rng.integers(1, max(2, last // 2)))
        b = int(rng.integers(0, last - d + 1))
        a = int(rng.integers(0, b + 1))
        c = int(rng.integers(0, d + 1))
        outer = TimeInterval(a * tau, b * tau)
        inner = TimeInterval(c * tau, d * tau)
    lo = rng.uniform(0.0, 6.0, size=2)
    hi = lo + rng.uniform(1.0, 4.0, size=2)
    negated = bool(rng.random() < 0.25)
    prop = region_atom("r", tuple(lo), tuple(np.minimum(hi, 10.0)),
                       negated=negated)
    sub = SubTask(kind, outer, inner, prop)

    box = prop.region.box
    pts = np.empty((last + 1, 2))
    for j in range(last + 1):
        if rng.random() < inside_bias:
            pts[j] = box.sample(rng)
        else:
            pts[j] = rng.uniform(0.0, 10.0, size=2)
    return PointSequence(0, tau, pts), sub


def honoring_sequence(seq, sub, pairs, rng):
    """A fresh random sequence on seq's grid that agrees with the pairs:
    inside the pair region at each pair time (outside for a negated
    atom), arbitrary everywhere else."""
    pts = rng.uniform(0.0, 10.0, size=(len(seq), 2))
    for pair in pairs:
        j = pair.k - seq.k0
        box = pair.prop.region.box
        if pair.prop.negated:
            p = rng.uniform(0.0, 10.0, size=2)
            while box.contains(p):
                p = rng.uniform(0.0, 10.0, size=2)
            pts[j] = p
        else:
            pts[j] = box.sample(rng)
    return PointSequence(seq.k0, seq.tau, pts)


def dense_dynamics_jacobian(prob, A, B):
    """Jacobian of the defects with respect to the packed variables,
    scattered from the per-step window blocks the Newton band uses."""
    K, n, m = prob.horizon, prob.model.state_dim, prob.model.input_dim
    order = _time_major_order(K, n, m)
    Jk = _step_jacobians(A, B)
    J = np.zeros((K * n, len(order)))
    for k in range(K):
        window = order[k * (n + m):k * (n + m) + 2 * n + m]
        J[k * n:(k + 1) * n, window] = Jk[k]
    return J


def _dense_difference_hessian(count, weights):
    # Hessian of sum_j ||y_{j+1} - y_j||^2_w over y in R^(count x len(w))
    D = np.diff(np.eye(count), axis=0)
    return 2.0 * np.kron(D.T @ D, np.diag(weights))


def dense_cost_hessian(prob):
    """Hessian of the quadratic cost over the packed variables."""
    Hx = _dense_difference_hessian(prob.horizon + 1, prob.r_weights)
    Hu = _dense_difference_hessian(prob.horizon, prob.q_weights)
    H = np.zeros((len(Hx) + len(Hu),) * 2)
    H[:len(Hx), :len(Hx)] = Hx
    H[len(Hx):, len(Hx):] = Hu
    return H


def band_to_dense(ab):
    """Symmetric matrix from LAPACK lower band storage,
    ab[d, j] = H[j + d, j]."""
    N = ab.shape[1]
    H = np.zeros((N, N))
    for d in range(min(len(ab), N)):
        j = np.arange(N - d)
        H[j + d, j] = ab[d, :N - d]
        H[j, j + d] = ab[d, :N - d]
    return H


def reference_validate(corridor, ws, waypoints):
    """SafeCorridor.validate as a loop over steps: containment, then the
    workspace, then every obstacle, box by box."""
    pts = np.asarray(waypoints, dtype=float)
    if len(pts) != len(corridor.boxes):
        raise CorridorError("corridor length does not match waypoints")
    for k, (box, p) in enumerate(zip(corridor.boxes, pts)):
        if not box.contains(p):
            raise CorridorError(f"box {k} does not contain its waypoint")
        if any(l < bl or h > bh for l, h, bl, bh in
               zip(box.lo, box.hi, ws.bounds.lo, ws.bounds.hi)):
            raise CorridorError(f"box {k} leaves the workspace")
        for o in ws.obstacles:
            if box.open_intersects(o):
                raise CorridorError(f"box {k} overlaps an obstacle")


def _reference_avoid_face(box, wp, margin):
    # the face with the largest clearance, low axes first on ties; None
    # when the waypoint sits inside the box
    best = None
    for axis in range(len(box.lo)):
        below = box.lo[axis] - wp[axis]
        above = wp[axis] - box.hi[axis]
        for clearance, side in ((below, 0), (above, 1)):
            if best is None or clearance > best[0] + 1e-12:
                best = (clearance, axis, side)
    clearance, axis, side = best
    if clearance <= 0.0:
        return None
    if side == 0:
        face = box.lo[axis] - margin
        return axis, None, max(min(face, wp[axis] + clearance), wp[axis])
    face = box.hi[axis] + margin
    return axis, min(max(face, wp[axis] - clearance), wp[axis]), None


def reference_position_bounds(pts, corridor, ws, pairs, margin):
    """The transcription's per-step position bounds and pair rows as a
    loop over steps, each step assembled and checked in turn."""
    pair_groups = {}
    for p in pairs:
        pair_groups.setdefault(p.k, []).append(p)
    lbs, ubs, pair_rows = [], [], []
    for k in range(len(pts)):
        wp = pts[k]
        lb = np.array(ws.bounds.lo, dtype=float)
        ub = np.array(ws.bounds.hi, dtype=float)
        box = corridor.boxes[k]
        if k > 0 and box is not corridor.boxes[k - 1]:
            prev = corridor.boxes[k - 1]
            door_lb = np.maximum(box.lo, prev.lo)
            door_ub = np.minimum(box.hi, prev.hi)
            if np.any(door_lb > door_ub):
                raise InfeasibleConstraintError(
                    f"corridor boxes at steps {k - 1} and {k} share no "
                    f"doorway")
            wide = door_ub - door_lb > 2.0 * margin
            door_lb = door_lb + wide * margin
            door_ub = door_ub - wide * margin
            lb, ub = np.maximum(lb, door_lb), np.minimum(ub, door_ub)
        else:
            lb = np.maximum(lb, np.minimum(np.array(box.lo) + margin, wp))
            ub = np.minimum(ub, np.maximum(np.array(box.hi) - margin, wp))
        for pair in pair_groups.get(k, ()):
            prop = pair.prop
            rbox = prop.region.box
            if not prop.negated:
                lb = np.maximum(lb, rbox.lo)
                ub = np.minimum(ub, rbox.hi)
            else:
                face = _reference_avoid_face(rbox, wp, margin)
                if face is None:
                    raise InfeasibleConstraintError(
                        f"waypoint at step {k} sits inside a region it "
                        f"must avoid ({pair.label})")
                axis, flo, fhi = face
                if flo is not None:
                    lb[axis] = max(lb[axis], flo)
                if fhi is not None:
                    ub[axis] = min(ub[axis], fhi)
            pair_rows.append((k, pair.label, prop))
        if np.any(lb > ub):
            raise InfeasibleConstraintError(
                f"constraints at step {k} have empty intersection "
                f"(corridor box against certified regions)")
        lbs.append(lb)
        ubs.append(ub)
    return np.array(lbs), np.array(ubs), tuple(pair_rows)


def _reference_blocked_overlap(box_lo, box_hi, obstacle, axis):
    for j in range(len(box_lo)):
        if j == axis:
            continue
        if max(box_lo[j], obstacle.lo[j]) > min(box_hi[j], obstacle.hi[j]):
            return False
    return True


def reference_safe_cor(point, ws, step=DEFAULT_STEP):
    """corridor.safe_cor round by round: every live face steps once per
    round, in the order x low, x high, y low, y high, and freezes on the
    first obstacle face or workspace bound it would cross."""
    p = np.asarray(point, dtype=float)
    if not ws.point_free(p):
        raise CorridorError(f"corridor seed {p.tolist()} is not in free "
                            f"space")
    dim = ws.bounds.dim
    lo = [float(v) for v in p]
    hi = [float(v) for v in p]
    frozen = [[False, False] for _ in range(dim)]
    while not all(all(f) for f in frozen):
        for axis in range(dim):
            for side in (0, 1):
                if frozen[axis][side]:
                    continue
                if side == 0:
                    cur = lo[axis]
                    target = max(cur - step, ws.bounds.lo[axis])
                    blockers = [o.hi[axis] for o in ws.obstacles
                                if _reference_blocked_overlap(lo, hi, o,
                                                              axis)
                                and target < o.hi[axis] <= cur]
                    if blockers:
                        lo[axis] = max(blockers)
                        frozen[axis][side] = True
                    elif target == ws.bounds.lo[axis]:
                        lo[axis] = target
                        frozen[axis][side] = True
                    else:
                        lo[axis] = target
                else:
                    cur = hi[axis]
                    target = min(cur + step, ws.bounds.hi[axis])
                    blockers = [o.lo[axis] for o in ws.obstacles
                                if _reference_blocked_overlap(lo, hi, o,
                                                              axis)
                                and cur <= o.lo[axis] < target]
                    if blockers:
                        hi[axis] = min(blockers)
                        frozen[axis][side] = True
                    elif target == ws.bounds.hi[axis]:
                        hi[axis] = target
                        frozen[axis][side] = True
                    else:
                        hi[axis] = target
    return Box(tuple(lo), tuple(hi))


def reference_discretize_path(path, k_lo, k_hi, tau):
    """st_planner.discretize_path one grid point at a time."""
    times = np.array([v.time for v in path])
    if np.any(np.diff(times) <= 0):
        raise ValueError("path times must strictly increase")
    positions = np.vstack([v.pos for v in path])
    if times[0] > k_lo * tau + TIME_EPS:
        raise ValueError("path starts after the window does")
    if times[-1] < k_hi * tau - TIME_EPS:
        raise ValueError("path ends before the window does")
    out = np.empty((k_hi - k_lo + 1, positions.shape[1]))
    for j, k in enumerate(range(k_lo, k_hi + 1)):
        t = k * tau
        i = int(np.searchsorted(times, t, side="right")) - 1
        if i < 0:
            i = 0
        if i >= len(times) - 1:
            i = len(times) - 1
            out[j] = positions[i]
            continue
        if times[i] == t:
            out[j] = positions[i]
        else:
            s = (t - times[i]) / (times[i + 1] - times[i])
            out[j] = positions[i] + s * (positions[i + 1] - positions[i])
    return PointSequence(k_lo, tau, out)


def reference_initial_guess(problem, waypoints):
    """optimizer.initial_guess with the heading recurrence, the norm and
    the standstill test all on one step at a time."""
    pts = np.asarray(waypoints, dtype=float)
    K = problem.horizon
    model = problem.model
    tau = model.tau
    states = np.zeros((K + 1, model.state_dim))
    states[:, :model.pos_dim] = pts
    theta = np.empty(K + 1)
    theta[0] = problem.x0[2] if model.state_dim > 2 else 0.0
    diffs = np.diff(pts, axis=0)
    for k in range(K):
        d = diffs[k]
        if np.linalg.norm(d) < 1e-9:
            theta[k + 1] = theta[k]
            continue
        raw = math.atan2(d[1], d[0])
        delta = (raw - theta[k] + math.pi) % (2.0 * math.pi) - math.pi
        theta[k + 1] = theta[k] + delta
    if model.state_dim > 2:
        states[:, 2] = theta
    inputs = np.zeros((K, model.input_dim))
    if model.name == "unicycle":
        heading = np.stack([np.cos(theta[:-1]), np.sin(theta[:-1])], axis=1)
        inputs[:, 0] = (diffs * heading).sum(axis=1) / tau
        inputs[:, 1] = np.diff(theta) / tau
    inputs = np.clip(inputs, problem.input_lb, problem.input_ub)
    states = np.clip(states, problem.state_lb, problem.state_ub)
    return states, inputs


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call in the
    returned list before calling through."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls
