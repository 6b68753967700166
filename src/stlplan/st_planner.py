"""Timed waypoint planning with goal-biased space-time trees.

Each local task is planned greedily: reach goals (plain eventually,
reach-and-hold, and the repeating visits of a patrol clause) are served
in deadline order by growing a random tree through position x time.
Every always-clause of the formula acts as a windowed keep-in /
keep-out constraint on every tree edge of every window, so the returned
waypoints respect them by construction.  The vertex path is then
sampled onto the grid and every sub-task re-checked; on failure the
attempt restarts with fresh randomness.

A disjunctive reach set is certified by the first earlier piece that
the waypoints stitched so far already satisfy; when none does, its
final piece is planned as one more sub-task of that piece's window.

Tree edges move at most a fixed step in space and a bounded stride in
time, and are rejected when they would exceed the commanded speed limit,
so consecutive grid waypoints always stay within reach of the vehicle.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, replace

import numpy as np

from .satisfaction import SatisfactionSet, stl_sat
from .stl_core import PointSequence, StlError, grid_ceil

_MIN_EDGE_DT = 1e-6
_TIME_TOL = 1e-9


class PlanningError(StlError):
    """Planning failed after exhausting its restart budget."""


class TreeFailure(StlError):
    """A single tree exhausted its iteration budget."""


@dataclass(frozen=True)
class PlannerParams:
    """Tuning knobs of the tree planner.

    time_step and time_overshoot default to five and two sampling steps
    when left unset.
    """

    goal_bias: float = 0.3
    step: float = 0.5
    time_step: float | None = None
    time_overshoot: float | None = None
    max_iters_per_tree: int = 5000
    max_restarts: int = 50
    rng_seed: int = 0

    def resolved_time_step(self, tau):
        return 5.0 * tau if self.time_step is None else self.time_step

    def resolved_overshoot(self, tau):
        return 2.0 * tau if self.time_overshoot is None else self.time_overshoot


@dataclass
class StVertex:
    """A tree vertex: a position stamped with a time."""

    pos: np.ndarray
    time: float

    def __init__(self, pos, time):
        self.pos = np.asarray(pos, dtype=float)
        self.time = float(time)

    def __repr__(self):
        return f"StVertex({self.pos.tolist()}, {self.time})"


@dataclass(frozen=True)
class Guard:
    """Stay inside (or outside) a box at every moment of a time window."""

    box: object
    lo: float
    hi: float
    keep_in: bool

    @classmethod
    def from_subtask(cls, sub):
        if sub.kind != "G":
            raise ValueError("guards come from always-clauses only")
        return cls(sub.prop.region.box, sub.outer.lo, sub.outer.hi,
                   keep_in=not sub.prop.negated)

    def point_ok(self, p, t):
        if t < self.lo - _TIME_TOL or t > self.hi + _TIME_TOL:
            return True
        inside = self.box.contains(p)
        return inside if self.keep_in else not inside


@dataclass(frozen=True)
class Goal:
    """A reach objective: be at prop's region within the arrival window,
    optionally holding position there for hold_after more seconds."""

    prop: object
    window: tuple
    hold_after: float = 0.0

    @property
    def deadline(self):
        return self.window[1]

    @property
    def sample_box(self):
        if self.prop is None or self.prop.negated:
            return None
        return self.prop.region.box

    @classmethod
    def by_time(cls, t):
        """Pure filler goal: any vertex at or after time t completes."""
        return cls(None, (t, t))


class SpaceTimeTree:
    """Growable vertex store with vectorized nearest queries."""

    def __init__(self, root_pos, root_time):
        root_pos = np.asarray(root_pos, dtype=float)
        self._pos = np.zeros((64, len(root_pos)))
        self._time = np.zeros(64)
        self._parent = [-1]
        self._n = 1
        self._pos[0] = root_pos
        self._time[0] = root_time

    def __len__(self):
        return self._n

    @property
    def positions(self):
        return self._pos[:self._n]

    @property
    def times(self):
        return self._time[:self._n]

    def vertex(self, i):
        return StVertex(self._pos[i].copy(), self._time[i])

    def add(self, pos, time, parent):
        if self._n == len(self._pos):
            self._pos = np.vstack([self._pos, np.zeros_like(self._pos)])
            self._time = np.concatenate([self._time,
                                         np.zeros_like(self._time)])
        self._pos[self._n] = pos
        self._time[self._n] = time
        self._parent.append(parent)
        self._n += 1
        return self._n - 1

    def path(self, i):
        out = []
        while i >= 0:
            out.append(self.vertex(i))
            i = self._parent[i]
        out.reverse()
        return out


def nearest(tree, pos, time):
    """Index of the position-nearest vertex strictly earlier than time,
    earliest-inserted on distance ties; None when no vertex qualifies."""
    mask = tree.times < time
    if not mask.any():
        return None
    d2 = ((tree.positions - np.asarray(pos)) ** 2).sum(axis=1)
    d2 = np.where(mask, d2, np.inf)
    return int(np.argmin(d2))


def steer(near_pos, near_time, samp_pos, samp_time, params, tau):
    """Move from the nearest vertex toward the sample, clamped to the
    spatial step and the time stride."""
    near_pos = np.asarray(near_pos, dtype=float)
    samp_pos = np.asarray(samp_pos, dtype=float)
    delta = samp_pos - near_pos
    dist = float(np.linalg.norm(delta))
    if dist > params.step:
        new_pos = near_pos + delta * (params.step / dist)
    else:
        new_pos = samp_pos.copy()
    new_time = min(near_time + params.resolved_time_step(tau), samp_time)
    return new_pos, new_time


def sample(ws, target, window, params, rng, keepins=()):
    """Draw a candidate (position, time).

    Time is uniform over the window; position is drawn from the target
    box with the goal-bias probability, from the intersection of any
    keep-in boxes active at the drawn time, and otherwise uniformly over
    free space.
    """
    lo, hi = window
    t = lo + rng.random() * (hi - lo)
    active = None
    feasible = True
    for g in keepins:
        if g.lo - _TIME_TOL <= t <= g.hi + _TIME_TOL:
            nxt = g.box if active is None else active.intersect(g.box)
            if nxt is None:
                feasible = False
                break
            active = nxt
    if feasible and active is not None:
        return active.sample(rng), t
    if target is not None and rng.random() < params.goal_bias:
        return target.sample(rng), t
    return ws.sample_free(rng), t


def _interp(p0, t0, p1, t1, t):
    if t1 == t0:
        return p0
    s = (t - t0) / (t1 - t0)
    return p0 + s * (p1 - p0)


def _edge_ok(ws, guards, p0, t0, p1, t1, v_max):
    """Validate one motion: duration, speed, obstacles, and the windowed
    keep-in / keep-out constraints on the overlapped sub-segment."""
    dt = t1 - t0
    if dt < _MIN_EDGE_DT:
        return False
    dist = float(np.linalg.norm(np.asarray(p1) - np.asarray(p0)))
    if dist > v_max * dt * (1.0 + 1e-9):
        return False
    if dist > 0.0 and ws.segment_collides(p0, p1):
        return False
    if dist == 0.0 and ws.in_obstacle(p0):
        return False
    for g in guards:
        a = max(t0, g.lo)
        b = min(t1, g.hi)
        if a > b + _TIME_TOL:
            continue
        pa = _interp(p0, t0, p1, t1, a)
        pb = _interp(p0, t0, p1, t1, min(b, t1))
        if g.keep_in:
            if not (g.box.contains(pa) and g.box.contains(pb)):
                return False
        else:
            if g.box.segment_intersects(pa, pb):
                return False
    return True


def _try_complete(goal, p, t, tau, ws, guards):
    """If (p, t) completes the goal, return the certifying tail vertices
    (ending on exact grid times) and the arrival grid index."""
    if goal.prop is None:
        if t >= goal.window[0]:
            return [StVertex(p, t)], None
        return None
    if not goal.prop.holds(p):
        return None
    if t > goal.window[1] + _TIME_TOL:
        return None
    g_k = grid_ceil(max(t, goal.window[0]), tau)
    g = g_k * tau
    if g > goal.window[1] + _TIME_TOL:
        return None
    tail = []
    if g > t + _TIME_TOL:
        # wait in place until the window opens / the next grid sample
        if not _edge_ok(ws, guards, p, t, p, g, math.inf):
            return None
        tail.append(StVertex(p, t))
        tail.append(StVertex(p, g))
    else:
        # arrival is (within tolerance) already on the grid sample
        tail.append(StVertex(p, g))
    if goal.hold_after > 0.0:
        k_end = g_k + grid_ceil(goal.hold_after, tau)
        g_end = k_end * tau
        if not _edge_ok(ws, guards, p, g, p, g_end, math.inf):
            return None
        tail.append(StVertex(p, g_end))
    return tail, g_k


def grow_tree(root, goal, ws, window, params, rng, *, tau, v_max=math.inf,
              guards=()):
    """Grow one space-time tree from the root until the goal completes.

    Returns the root-to-goal vertex path (the root included).  The time
    window bounds sampled times; the goal's own arrival window decides
    completion.  Raises TreeFailure when the iteration budget runs out.
    """
    for g in guards:
        if not g.point_ok(root.pos, root.time):
            raise PlanningError(
                f"start point {root.pos.tolist()} at t={root.time} violates "
                f"an always-constraint; no tree can repair its own root")
    done = _try_complete(goal, root.pos, root.time, tau, ws, guards)
    if done is not None:
        tail, arrival = done
        return _splice([root], tail), arrival
    tree = SpaceTimeTree(root.pos, root.time)
    keepins = tuple(g for g in guards if g.keep_in)
    t_hi = window[1] + params.resolved_overshoot(tau)
    for _ in range(params.max_iters_per_tree):
        samp_pos, samp_time = sample(ws, goal.sample_box,
                                     (window[0], t_hi), params, rng,
                                     keepins=keepins)
        ni = nearest(tree, samp_pos, samp_time)
        if ni is None:
            continue
        new_pos, new_time = steer(tree.positions[ni], tree.times[ni],
                                  samp_pos, samp_time, params, tau)
        if not _edge_ok(ws, guards, tree.positions[ni], tree.times[ni],
                        new_pos, new_time, v_max):
            continue
        done = _try_complete(goal, new_pos, new_time, tau, ws, guards)
        if done is not None:
            tail, arrival = done
            return _splice(tree.path(ni), tail), arrival
        tree.add(new_pos, new_time, ni)
    raise TreeFailure(
        f"tree exhausted {params.max_iters_per_tree} iterations without "
        f"completing its goal")


def _splice(prefix, tail):
    """Join a vertex chain and a completion tail, dropping duplicates and
    enforcing strictly increasing times."""
    out = list(prefix)
    for v in tail:
        while out and v.time <= out[-1].time + 1e-15:
            if v.time >= out[-1].time - _TIME_TOL and all(
                    abs(a - b) <= 1e-9 + 1e-5 * abs(b)
                    for a, b in zip(v.pos.tolist(), out[-1].pos.tolist())):
                out.pop()
            else:
                raise AssertionError(
                    f"non-monotone tree path near t={v.time}")
        out.append(v)
    return out


def discretize_path(path, k_lo, k_hi, tau):
    """Sample a vertex path at the grid points k_lo..k_hi.

    All grid times are located on the path with one sorted search.
    Vertices sitting exactly on a grid time, and the last vertex for
    grid times past it, are taken verbatim; other grid points are
    linear interpolations of the enclosing edge, computed as arrays with
    _interp's formula.
    """
    times = np.array([v.time for v in path])
    if np.any(np.diff(times) <= 0):
        raise ValueError("path times must strictly increase")
    positions = np.vstack([v.pos for v in path])
    if times[0] > k_lo * tau + _TIME_TOL:
        raise ValueError("path starts after the window does")
    if times[-1] < k_hi * tau - _TIME_TOL:
        raise ValueError("path ends before the window does")
    t = np.arange(k_lo, k_hi + 1) * tau
    last = len(times) - 1
    i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, last)
    out = positions[i]
    mid = np.flatnonzero((i < last) & (times[i] != t))
    i0 = i[mid]
    s = (t[mid] - times[i0]) / (times[i0 + 1] - times[i0])
    out[mid] = positions[i0] + s[:, None] * (positions[i0 + 1] -
                                             positions[i0])
    return PointSequence(k_lo, tau, out)


class _PatrolTracker:
    """Schedules the repeated visits a patrol (GF) clause needs."""

    def __init__(self, sub, tau):
        ai = sub.active_interval()
        self.sub = sub
        self.lo = ai.lo
        self.hi = ai.hi
        self.gap = sub.inner.length
        self.tau = tau
        self.last_k = None

    @property
    def done(self):
        if self.last_k is None:
            return False
        return self.hi - self.last_k * self.tau <= self.gap + _TIME_TOL

    def next_goal(self):
        if self.last_k is None:
            lo = self.lo
        else:
            lo = (self.last_k + 1) * self.tau
        hi = min((self.lo if self.last_k is None
                  else self.last_k * self.tau) + self.gap, self.hi)
        return Goal(self.sub.prop, (lo, hi))

    def record(self, arrival_k):
        self.last_k = arrival_k


def plan_local(task, q_init, ws, params, rng, guards, *, tau, v_max=math.inf):
    """Plan the waypoints of one local task window.

    q_init is the (position, time) the window starts from and guards
    constrain every tree edge.  Every sub-task of the task is planned
    and certified.  Returns (sequence, satisfaction set).
    """
    k_lo = grid_ceil(task.window.lo, tau)
    k_hi = grid_ceil(task.window.hi, tau)
    root = StVertex(q_init[0], q_init[1])

    tally = collections.Counter()
    for _ in range(params.max_restarts + 1):
        try:
            path = _attempt(root, ws, params, rng, task.subtasks, guards,
                            tau, v_max, k_hi * tau)
        except TreeFailure as err:
            tally[str(err)] += 1
            continue
        seq = discretize_path(path, k_lo, k_hi, tau)
        pairs = SatisfactionSet()
        for sub in task.subtasks:
            ok, sub_pairs = stl_sat(seq, sub)
            if not ok:
                tally[f"discretized waypoints missed {sub}"] += 1
                break
            pairs = pairs.union(sub_pairs)
        else:
            return seq, pairs
    worst = max(tally, key=tally.get, default="no attempts ran")
    raise PlanningError(
        f"window {task.window}: {tally.total()} attempts failed; most "
        f"frequent failure: {worst}")


def _attempt(root, ws, params, rng, subtasks, guards, tau, v_max, end_time):
    vertices = [root]
    goals = []
    for order, sub in enumerate(subtasks):
        if sub.kind == "F":
            goals.append((order, Goal(sub.prop, (sub.outer.lo, sub.outer.hi))))
        elif sub.kind == "FG":
            goals.append((order, Goal(sub.prop, (sub.outer.lo, sub.outer.hi),
                                      hold_after=sub.inner.hi)))
    trackers = [_PatrolTracker(s, tau) for s in subtasks if s.kind == "GF"]

    while True:
        candidates = [(order, goal, None) for order, goal in goals]
        candidates += [(1000 + ti, tracker.next_goal(), tracker)
                       for ti, tracker in enumerate(trackers)
                       if not tracker.done]
        if not candidates:
            break
        order, goal, tracker = min(candidates,
                                   key=lambda c: (c[1].deadline, c[0]))
        last = vertices[-1]
        path, arrival = grow_tree(last, goal, ws, (last.time, end_time),
                                  params, rng, tau=tau, v_max=v_max,
                                  guards=guards)
        vertices.extend(path[1:])
        if tracker is None:
            goals.remove((order, goal))
        else:
            tracker.record(arrival)

    last = vertices[-1]
    if last.time < end_time:
        if _edge_ok(ws, guards, last.pos, last.time, last.pos, end_time,
                    v_max):
            vertices.append(StVertex(last.pos, end_time))
        else:
            filler = Goal.by_time(end_time)
            path, _ = grow_tree(last, filler, ws, (last.time, end_time),
                                params, rng, tau=tau, v_max=v_max,
                                guards=guards)
            vertices.extend(path[1:])
    return vertices


@dataclass
class GlobalPlan:
    """Concatenated waypoints of all windows plus the certifying pairs."""

    waypoints: PointSequence
    pairs: SatisfactionSet

    def validate(self, ws, v_max, expected_len=None):
        """Check stitching, speed, and free-space invariants."""
        pts = self.waypoints.positions
        if expected_len is not None and len(pts) != expected_len:
            raise PlanningError(f"expected {expected_len} waypoints, have "
                                f"{len(pts)}")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        limit = v_max * self.waypoints.tau * (1.0 + 1e-6)
        fast = np.flatnonzero(steps > limit)
        if fast.size:
            k = int(fast[0])
            raise PlanningError(f"waypoint spacing exceeds the speed limit "
                                f"at step {k}: {steps[k]:.6g} m to step "
                                f"{k + 1}, limit {limit:.6g} m")
        blocked = np.flatnonzero(~ws.points_free(pts))
        if blocked.size:
            k = int(blocked[0])
            raise PlanningError(f"waypoint {pts[k].tolist()} at step {k} is "
                                f"not in free space")


def plan_global(decomposition, p0, ws, params, *, tau, v_max=math.inf):
    """Plan every local window in order and stitch the results.

    Returns a GlobalPlan whose waypoint sequence spans the whole grid
    and whose satisfaction set certifies every sub-task, including one
    piece of every disjunctive reach set.
    """
    p0 = np.asarray(p0, dtype=float)
    if not ws.point_free(p0):
        raise PlanningError(f"start position {p0.tolist()} is not in free "
                            f"space")
    merged = PointSequence(0, tau, [p0])
    pairs = SatisfactionSet()
    guards = [Guard.from_subtask(s) for s in decomposition.guard_subtasks()]
    for task in decomposition.local_tasks:
        fallbacks = []
        for dset in decomposition.disjunctive_sets:
            if decomposition.local_index_of(dset.final_piece) != task.index:
                continue
            for piece in dset.pieces[:-1]:
                ok, piece_pairs = stl_sat(merged, piece)
                if ok:
                    pairs = pairs.union(piece_pairs)
                    break
            else:
                fallbacks.append(dset.final_piece)
        task = replace(task, subtasks=task.subtasks + tuple(fallbacks))
        rng = np.random.default_rng(
            np.random.SeedSequence(params.rng_seed,
                                   spawn_key=(task.index,)))
        q_init = (merged.positions[-1], merged.k_last * tau)
        seq, local_pairs = plan_local(task, q_init, ws, params, rng, guards,
                                      tau=tau, v_max=v_max)
        merged = merged.concat(seq)
        pairs = pairs.union(local_pairs)
    return GlobalPlan(merged, pairs)
