"""Shared test fixtures: workspace builders, an independently coded
satisfaction evaluator, the direct until check, randomized instance
generators, the rollout of an input sequence through a dynamics model,
dense references for the Newton system of a transcription
and the bincount band kernel and boolean-indexed projected gradient
norm that the solver's in-place versions reproduce,
per-step loop references for the corridor check and the transcription
bounds, the round-by-round box growth, the per-grid-point path sampling
and the per-step initial guess that the array versions must reproduce
bit for bit, the generator-based point and segment predicates and the
per-point satisfaction checker that the float and membership-array
versions must agree with, and a call counter.

The evaluator here deliberately repeats none of the package code: it
works on float time lists (interval endpoints read as steps * tau) with
tolerant interval membership instead of integer grid indices, so
agreement between the two is meaningful.
"""

import bisect
import math

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from stlplan.corridor import CorridorError
from stlplan.satisfaction import SatisfactionPair
from stlplan.optimizer import InfeasibleConstraintError
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
    """Double-loop satisfaction over float times; the reference that
    satisfaction.stl_sat, the package's only evaluator, is checked
    against.  Interval endpoints are read in seconds, steps * tau."""
    tau = seq.tau
    times = [(seq.k0 + j) * tau for j in range(len(seq))]
    inside = [bool(sub.prop.holds(seq.positions[j]))
              for j in range(len(seq))]

    def within(t, lo, hi):
        return lo - TIME_EPS <= t <= hi + TIME_EPS

    outer = [j for j, t in enumerate(times)
             if within(t, sub.outer.lo * tau, sub.outer.hi * tau)]
    if sub.kind == "F":
        return any(inside[j] for j in outer)
    if sub.kind == "G":
        return all(inside[j] for j in outer)
    if sub.kind == "FG":
        for j in outer:
            window = [i for i, t in enumerate(times)
                      if within(t, times[j] + sub.inner.lo * tau,
                                times[j] + sub.inner.hi * tau)]
            if all(inside[i] for i in window):
                return True
        return False
    for j in outer:
        window = [i for i, t in enumerate(times)
                  if within(t, times[j] + sub.inner.lo * tau,
                            times[j] + sub.inner.hi * tau)]
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
        outer = TimeInterval(a, b, tau)
        inner = None
    else:
        d = int(rng.integers(1, max(2, last // 2)))
        b = int(rng.integers(0, last - d + 1))
        a = int(rng.integers(0, b + 1))
        c = int(rng.integers(0, d + 1))
        outer = TimeInterval(a, b, tau)
        inner = TimeInterval(c, d, tau)
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


def oracle_satisfies_until(seq, left, ival, right):
    """Reference until check, the semantics the decomposer's hold +
    reach rewrite strengthens: some grid witness of the right atom
    inside the window, with the left atom holding at every grid point
    from the sequence start up to the witness."""
    seq.require_coverage(TimeInterval(seq.k0, ival.hi, seq.tau))
    for k1 in range(ival.lo, ival.hi + 1):
        if k1 < seq.k0:
            continue
        if right.holds(seq.at_index(k1)):
            if all(left.holds(seq.at_index(k2))
                   for k2 in range(seq.k0, k1 + 1)):
                return True
    return False


def rollout(model, x0, inputs):
    """Apply an input sequence from x0; returns the K+1 visited states."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    states = np.empty((len(inputs) + 1, model.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    for k, u in enumerate(inputs):
        states[k + 1] = model.step(states[k], u)
    return states


def step_jacobians(A, B):
    """Jacobian of each defect c_k = x_{k+1} - f(x_k, u_k) with respect
    to its window (x_k, u_k, x_{k+1}): J_k = [-A_k, -B_k, I]."""
    K, n = A.shape[:2]
    eye = np.broadcast_to(np.eye(n), (K, n, n))
    return np.concatenate([-A, -B, eye], axis=2)


def dense_dynamics_jacobian(prob, A, B):
    """Jacobian of the defects with respect to the packed variables,
    scattered from the per-step window blocks the Newton band uses: J_k
    fills the columns k(n+m) .. k(n+m)+2n+m-1 of its rows."""
    K, n, m = prob.horizon, prob.model.state_dim, prob.model.input_dim
    Jk = step_jacobians(A, B)
    J = np.zeros((K * n, (K + 1) * n + K * m))
    for k in range(K):
        J[k * n:(k + 1) * n, k * (n + m):k * (n + m) + 2 * n + m] = Jk[k]
    return J


def _dense_difference_hessian(count, weights):
    # Hessian of sum_j ||y_{j+1} - y_j||^2_w over y in R^(count x len(w))
    D = np.diff(np.eye(count), axis=0)
    return 2.0 * np.kron(D.T @ D, np.diag(weights))


def dense_cost_hessian(prob):
    """Hessian of the quadratic cost over the packed variables: the
    state and input blocks, built over all states then all inputs, moved
    to the places pack gives those variables."""
    K, n, m = prob.horizon, prob.model.state_dim, prob.model.input_dim
    Hx = _dense_difference_hessian(K + 1, prob.r_weights)
    Hu = _dense_difference_hessian(K, prob.q_weights)
    H = np.zeros((len(Hx) + len(Hu),) * 2)
    H[:len(Hx), :len(Hx)] = Hx
    H[len(Hx):, len(Hx):] = Hu
    idx = np.arange(len(H))
    at = prob.pack(idx[:len(Hx)].reshape(K + 1, n),
                   idx[len(Hx):].reshape(K, m)).astype(np.intp)
    return H[np.ix_(at, at)]


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


class _BincountNewtonBand:
    """The Gauss-Newton band as a fresh array per call: each window's
    J_k'J_k scattered into the (2n+m, N) lower band storage by one
    bincount, factored by cholesky_banded and solved by
    cho_solve_banded."""

    def __init__(self, problem):
        model = problem.model
        K, n, m = problem.horizon, model.state_dim, model.input_dim
        N = (K + 1) * n + K * m
        s, w = n + m, 2 * n + m
        pairs = max(N - s, 0)
        weights = 2.0 * np.tile(np.concatenate([problem.r_weights,
                                                problem.q_weights]),
                                K + 1)[:pairs]
        self.hq = np.zeros((w, N))
        self.hq[0, :pairs] += weights
        self.hq[0, N - pairs:] += weights
        self.hq[s, :pairs] = -weights
        # window entry (a, b) of step k sits at ab[a - b, k*s + b] when
        # a >= b; the upper triangle goes to one spare slot past the end
        rows, cols = np.indices((w, w)).reshape(2, -1)
        slots = (rows - cols) * N + cols + (np.arange(K) * s)[:, None]
        slots[:, rows < cols] = w * N
        self.win_slots = slots.ravel()

    def matrix(self, A, B, rho, active):
        Jk = step_jacobians(A, B)
        JtJ = np.matmul(np.ascontiguousarray(Jk.transpose(0, 2, 1)), Jk)
        ab = self.hq + rho * np.bincount(
            self.win_slots, weights=JtJ.ravel(),
            minlength=self.hq.size + 1)[:-1].reshape(self.hq.shape)
        ab[0] += 1e-10
        keep = ~active
        ab *= keep
        for d in range(1, len(ab)):
            ab[d, :-d] *= keep[d:]  # ab[d, j] lies in row j + d
        ab[0, ~keep] = 1.0
        return ab

    def step(self, g, A, B, rho, active):
        if active.all():
            return np.zeros_like(g)
        try:
            factor = cholesky_banded(self.matrix(A, B, rho, active),
                                     lower=True, check_finite=False)
        except LinAlgError:
            return None
        return cho_solve_banded((factor, True), np.where(active, 0.0, -g),
                                check_finite=False)


def reference_newton_band(problem):
    """The Gauss-Newton band kernel that _NewtonBand's preallocated
    workspace and in-place LAPACK calls must reproduce bit for bit:
    matrix() returns a fresh band, step() goes through scipy's
    cholesky_banded and cho_solve_banded."""
    return _BincountNewtonBand(problem)


def reference_projected_gradient_norm(z, g, lb, ub):
    """Largest component of the gradient after projecting out, with
    boolean-indexed updates, the parts that point through a bound z
    sits on (within 1e-12); 0 on fixed variables."""
    pg = np.array(g, dtype=float)
    at_lb = z <= lb + 1e-12
    at_ub = z >= ub - 1e-12
    fixed = at_lb & at_ub
    pg[at_lb] = np.minimum(pg[at_lb], 0.0)
    pg[at_ub] = np.maximum(pg[at_ub], 0.0)
    pg[fixed] = 0.0
    return float(np.max(np.abs(pg))) if len(pg) else 0.0


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
    """The transcription's per-step position bounds as a loop over
    steps, each step assembled and checked in turn."""
    pair_groups = {}
    for p in pairs:
        pair_groups.setdefault(p.k, []).append(p)
    lbs, ubs = [], []
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
        if np.any(lb > ub):
            raise InfeasibleConstraintError(
                f"constraints at step {k} have empty intersection "
                f"(corridor box against certified regions)")
        lbs.append(lb)
        ubs.append(ub)
    return np.array(lbs), np.array(ubs)


def _reference_blocked_overlap(box_lo, box_hi, obstacle, axis):
    for j in range(len(box_lo)):
        if j == axis:
            continue
        if max(box_lo[j], obstacle.lo[j]) > min(box_hi[j], obstacle.hi[j]):
            return False
    return True


def reference_safe_cor(point, ws, step):
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


def reference_discretize_path(positions, times, k_lo, k_hi, tau):
    """st_planner.discretize_path one grid point at a time."""
    if np.any(np.diff(times) <= 0):
        raise ValueError("path times must strictly increase")
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


def reference_contains(box, p):
    """Box.contains through a generator over the point as given."""
    return all(l <= v <= h for v, l, h in zip(p, box.lo, box.hi))


def reference_segment_intersects(box, a, b):
    """Box.segment_intersects' slab clipping indexed per axis on the
    points as given (numpy scalars for arrays)."""
    tmin, tmax = 0.0, 1.0
    for i in range(box.dim):
        d = b[i] - a[i]
        if d == 0.0:
            if a[i] < box.lo[i] or a[i] > box.hi[i]:
                return False
            continue
        t1 = (box.lo[i] - a[i]) / d
        t2 = (box.hi[i] - a[i]) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax:
            return False
    return True


def reference_in_obstacle(ws, p):
    return any(reference_contains(o, p) for o in ws.obstacles)


def reference_segment_collides(ws, a, b):
    return any(reference_segment_intersects(o, a, b) for o in ws.obstacles)


def _reference_holds(prop, p):
    inside = reference_contains(prop.region.box, p)
    return not inside if prop.negated else inside


def reference_stl_sat(seq, sub):
    """satisfaction.stl_sat deciding one grid point at a time."""
    seq.require_coverage(sub.active_interval())
    outer_ks = range(sub.outer.lo, sub.outer.hi + 1)

    def window_of(k1):
        return range(k1 + sub.inner.lo, k1 + sub.inner.hi + 1)

    def holds(k):
        return _reference_holds(sub.prop, seq.at_index(k))

    def pairs(ks):
        return tuple(SatisfactionPair(k, sub.prop.label, sub.prop)
                     for k in ks)

    if sub.kind == "F":
        # the last index of the first run of grid points that hold
        witness = None
        for k in outer_ks:
            if holds(k):
                witness = k
            elif witness is not None:
                break
        if witness is None:
            return False, ()
        return True, pairs([witness])
    if sub.kind == "G":
        if all(holds(k) for k in outer_ks):
            return True, pairs(outer_ks)
        return False, ()
    if sub.kind == "FG":
        for k1 in outer_ks:
            window = window_of(k1)
            if all(holds(k2) for k2 in window):
                return True, pairs(window)
        return False, ()
    ai = sub.active_interval()
    visit_ks = [k for k in range(ai.lo, ai.hi + 1) if holds(k)]
    for k1 in outer_ks:
        window = window_of(k1)
        i = bisect.bisect_left(visit_ks, window.start)
        if i == len(visit_ks) or visit_ks[i] not in window:
            return False, ()
    return True, pairs(visit_ks)


def reference_initial_guess(problem, waypoints):
    """optimizer.initial_guess with the heading recurrence, the norm and
    the standstill test all on one step at a time."""
    pts = np.asarray(waypoints, dtype=float)
    K = problem.horizon
    model = problem.model
    tau = model.tau
    states = np.zeros((K + 1, model.state_dim))
    states[:, :pts.shape[1]] = pts
    theta = np.empty(K + 1)
    theta[0] = problem.x0[2]
    diffs = np.diff(pts, axis=0)
    for k in range(K):
        d = diffs[k]
        if np.linalg.norm(d) < 1e-9:
            theta[k + 1] = theta[k]
            continue
        raw = math.atan2(d[1], d[0])
        delta = (raw - theta[k] + math.pi) % (2.0 * math.pi) - math.pi
        theta[k + 1] = theta[k] + delta
    states[:, 2] = theta
    inputs = np.zeros((K, model.input_dim))
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
