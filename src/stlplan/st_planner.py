"""Timed waypoint planning with goal-biased space-time trees.

Each local task is planned greedily from one goal schedule: every
reach clause (plain eventually, reach-and-hold, each repeating visit of
a patrol clause, and the entry of a keep-in always-clause) has a next
goal that follows from its last arrival.  The goal with the earliest
deadline is served next, reaches before patrols on ties: in place when
the current point meets it, else by a random tree through position x
time.  When no goal is due, the window's end is the last goal, served
the same way: by waiting in place until the end when the guards allow
it, else by a tree to a point from which they do.  Every always-clause
of the formula acts as a windowed keep-in / keep-out constraint on
every tree edge of every window, so the returned waypoints respect them
by construction.  The window's joined path is sampled onto the grid and
every sub-task re-checked; on failure the attempt restarts with fresh
randomness.  The certifying pairs of every window are collected in
order; the GlobalPlan deduplicates them once.

A goal served in place opens a run at that point: while the next visit
of the same patrol sorts before every other goal due, it is completed
there too, one row per visit, in the same pass of the schedule.  The
point's region, obstacle and guard tests are made once per run, so a
patrol met where the vehicle stands costs a few float operations per
grid step, not a pass of the schedule.  The run ends exactly where a
pass per goal would switch: at another goal, a guard that a wait would
violate, a wait shorter than _MIN_EDGE_DT, or the patrol's end.

The schedule works in grid steps, as the sub-tasks' intervals are: a
goal's arrival window and hold are steps, and a goal is completed at
the first grid step at or after the tree's arrival.  Seconds are the
tree's own: the sampled times of its vertices, and the guards' windows
(steps * tau) they are checked against.

A disjunctive reach set is certified by the first earlier piece that
the waypoints stitched so far already satisfy; when none does, its
final piece is planned as one more sub-task of that piece's window.

Tree edges move at most a fixed step in space and a bounded stride in
time, and are rejected when they would exceed the commanded speed limit,
so consecutive grid waypoints always stay within reach of the vehicle.
A tree grows on plain floats, with no numpy inside its loop: its
vertices are a list of [x, y] rows and a list of times, scanned in full
for the nearest vertex, and each new vertex and edge is tested on those
floats (obstacles, guards, goal region).  A completed path goes back to
arrays.  Each float operation is the one the equivalent numpy array
expression performs, in the same order, so either form gives the same
plans bit for bit.  Edge lengths are sqrt(dx * dx + dy * dy) on plain
floats in that order, so no BLAS kernel's fused multiply-add can move a
plan.  Each window draws its uniforms from its Generator in blocks
(_BlockedDraws), the same stream as one call per draw.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .satisfaction import stl_sat
from .stl_core import PointSequence, StlError, _floats, grid_ceil, seconds

_MIN_EDGE_DT = 1e-6
_TIME_TOL = 1e-9


class PlanningError(StlError):
    """Planning failed after exhausting its restart budget."""


class TreeFailure(StlError):
    """A single tree exhausted its iteration budget."""


@dataclass(frozen=True)
class PlannerParams:
    """Tuning knobs of the tree planner.

    time_step defaults to five sampling steps when left unset.
    """

    goal_bias: float = 0.3
    step: float = 0.5
    time_step: float | None = None
    max_iters_per_tree: int = 5000
    max_restarts: int = 50
    rng_seed: int = 0

    def resolved_time_step(self, tau):
        return 5.0 * tau if self.time_step is None else self.time_step


@dataclass(frozen=True)
class Guard:
    """Stay inside (or outside) a box at every moment of a time window."""

    box: object
    lo: float
    hi: float
    keep_in: bool

    @classmethod
    def from_subtask(cls, sub, tau):
        if sub.kind != "G":
            raise ValueError("guards come from always-clauses only")
        return cls(sub.prop.region.box, sub.outer.lo * tau,
                   sub.outer.hi * tau, keep_in=not sub.prop.negated)

    def point_ok(self, p, t):
        if t < self.lo - _TIME_TOL or t > self.hi + _TIME_TOL:
            return True
        inside = self.box.contains(p)
        return inside if self.keep_in else not inside


class Goal(NamedTuple):
    """A reach objective: be at prop's region, or anywhere without a prop,
    at a grid step of the arrival window (lo, hi), then hold position
    for hold_after steps.  A named tuple, because a patrol run in place
    builds one per visit."""

    prop: object
    window: tuple
    hold_after: int = 0

    @property
    def deadline(self):
        return self.window[1]

    @property
    def sample_box(self):
        if self.prop is None or self.prop.negated:
            return None
        return self.prop.region.box


class _BlockedDraws:
    """The random() stream of a numpy Generator, drawn 256 uniforms at a
    time: the same values, in the same order, as one Generator.random()
    call per draw, at a fraction of the per-call cost."""

    __slots__ = ("random",)

    def __init__(self, rng):
        def blocks():
            while True:
                yield from rng.random(256).tolist()
        self.random = blocks().__next__


def nearest(positions, times, pos, time):
    """Index of the position-nearest row strictly earlier than time,
    earliest row on distance ties; None when no row qualifies.

    positions holds [x, y] rows and times their times, as plain floats;
    the squared distance is dx * dx + dy * dy, in that order."""
    px, py = pos
    best = None
    best_d = math.inf
    for i, t in enumerate(times):
        if t < time:
            x, y = positions[i]
            dx = x - px
            dy = y - py
            d = dx * dx + dy * dy
            if d < best_d:
                best = i
                best_d = d
    return best


def steer(near_pos, near_time, samp_pos, samp_time, params, tau):
    """Move from the nearest vertex toward the sample, clamped to the
    spatial step and the time stride.  Positions are [x, y] float
    sequences; the new one is a list, near + delta * (step / dist)."""
    nx, ny = near_pos
    sx, sy = samp_pos
    dx = sx - nx
    dy = sy - ny
    dist = math.sqrt(dx * dx + dy * dy)
    if dist > params.step:
        r = params.step / dist
        new_pos = [nx + dx * r, ny + dy * r]
    else:
        new_pos = [sx, sy]
    new_time = min(near_time + params.resolved_time_step(tau), samp_time)
    return new_pos, new_time


def sample(ws, target, window, params, rng, keepins=()):
    """Draw a candidate (position, time).

    Time is uniform over the window; position is drawn from the
    intersection of the keep-in boxes active at the drawn time, else
    from the target box with the goal-bias probability, and otherwise
    uniformly over free space.  Active keep-ins that share no box are
    ignored: the draw is then the one keepins=() gives.
    """
    lo, hi = window
    t = lo + rng.random() * (hi - lo)
    active = None
    for g in keepins:
        if g.lo - _TIME_TOL <= t <= g.hi + _TIME_TOL:
            active = g.box if active is None else active.intersect(g.box)
            if active is None:
                break
    if active is not None:
        return active.sample(rng), t
    if target is not None and rng.random() < params.goal_bias:
        return target.sample(rng), t
    return ws.sample_free(rng), t


def _interp(p0, t0, p1, t1, t):
    """The point at time t on the edge between the float lists p0 and p1;
    t1 - t0 is at least _MIN_EDGE_DT, which _edge_ok checks first."""
    s = (t - t0) / (t1 - t0)
    return [a + s * (b - a) for a, b in zip(p0, p1)]


def _edge_ok(ws, guards, p0, t0, p1, t1, v_max):
    """Validate one motion: duration, speed, obstacles, and the windowed
    keep-in / keep-out constraints on the overlapped sub-segment, all on
    the endpoints as plain floats; the length is steer's."""
    dt = t1 - t0
    if dt < _MIN_EDGE_DT:
        return False
    p0, p1 = _floats(p0), _floats(p1)
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    if math.sqrt(dx * dx + dy * dy) > v_max * dt * (1.0 + 1e-9):
        return False
    if ws.segment_collides(p0, p1):
        return False
    for g in guards:
        a = max(t0, g.lo)
        b = min(t1, g.hi)
        if a > b + _TIME_TOL:
            continue
        pa = _interp(p0, t0, p1, t1, a)
        pb = _interp(p0, t0, p1, t1, b)
        if g.keep_in:
            if not (g.box.contains(pa) and g.box.contains(pb)):
                return False
        else:
            if g.box.segment_intersects(pa, pb):
                return False
    return True


def _wait_test(p, ws, guards):
    """_edge_ok of a wait at the point p, as a test of its start and end
    times, with p's obstacle and guard tests made once: a wait passes
    when it lasts _MIN_EDGE_DT, p is free, and no guard that p violates
    is active during it.  An edge that stands still meets a box exactly
    when its point lies in it, which is the test made here."""
    p = _floats(p)
    if ws.segment_collides(p, p):
        return lambda t0, t1: False
    broken = [(g.lo, g.hi) for g in guards if g.box.contains(p) != g.keep_in]

    def wait_ok(t0, t1):
        if t1 - t0 < _MIN_EDGE_DT:
            return False
        for lo, hi in broken:
            if max(t0, lo) <= min(t1, hi) + _TIME_TOL:
                return False
        return True
    return wait_ok


def _complete_at(goal, t, tau, wait_ok):
    """If a point that meets goal's prop and stands still from time t on
    completes the goal, return the times of the certifying tail, ending
    on exact grid times, and the arrival grid index.  wait_ok(t0, t1)
    tests a wait at the point from t0 to t1."""
    g_k = max(grid_ceil(t, tau), goal.window[0])
    if g_k > goal.window[1]:
        return None
    g = g_k * tau
    if g > t + _TIME_TOL:
        # wait in place until the window opens / the next grid sample
        if not wait_ok(t, g):
            return None
        tail = [t, g]
    else:
        # arrival is (within tolerance) already on the grid sample
        tail = [g]
    if goal.hold_after > 0:
        g_end = (g_k + goal.hold_after) * tau
        if not wait_ok(g, g_end):
            return None
        tail.append(g_end)
    return tail, g_k


def _try_complete(goal, p, t, tau, ws, guards):
    """If (p, t) completes the goal, return the times of the certifying
    tail, all at position p and ending on exact grid times, and the
    arrival grid index; a goal without a prop holds everywhere."""
    if goal.prop is not None and not goal.prop.holds(p):
        return None
    return _complete_at(goal, t, tau, _wait_test(p, ws, guards))


def grow_tree(root_pos, root_time, goal, ws, end_time, params, rng, *, tau,
              v_max, guards):
    """Grow one space-time tree from the root until the goal completes.

    The root is not tested against the goal: the attempt completes a
    goal met in place itself.  The tree is held as a list of [x, y]
    float rows, a list of float times and a parent index per row.
    Returns (positions, times, arrival) of the path after the root, at
    least one row, times strictly increasing: the tree chain down to the
    vertex the completing edge leaves from, then the completion tail at
    the completing position.  Times are sampled from root_time to two
    sampling periods past end_time; the goal's own arrival window
    decides completion.  Raises TreeFailure, naming the goal's region or
    time, when the iteration budget runs out.
    """
    positions = [_floats(root_pos)]
    times = [float(root_time)]
    parent = [-1]
    keepins = tuple(g for g in guards if g.keep_in)
    target = goal.sample_box
    window = (times[0], end_time + 2.0 * tau)
    for _ in range(params.max_iters_per_tree):
        samp_pos, samp_time = sample(ws, target, window, params, rng,
                                     keepins=keepins)
        ni = nearest(positions, times, samp_pos, samp_time)
        if ni is None:
            continue
        near_pos, near_time = positions[ni], times[ni]
        new_pos, new_time = steer(near_pos, near_time, samp_pos, samp_time,
                                  params, tau)
        if not _edge_ok(ws, guards, near_pos, near_time, new_pos, new_time,
                        v_max):
            continue
        done = _try_complete(goal, new_pos, new_time, tau, ws, guards)
        if done is not None:
            # every tail time follows times[ni] by at least _MIN_EDGE_DT
            # less the grid tolerance, so the tail extends the chain
            tail, arrival = done
            chain = []
            while ni > 0:
                chain.insert(0, ni)
                ni = parent[ni]
            return (np.array([positions[i] for i in chain]
                             + [new_pos] * len(tail)),
                    np.array([times[i] for i in chain] + tail), arrival)
        positions.append(new_pos)
        times.append(new_time)
        parent.append(ni)
    aim = (goal.prop.label if goal.prop is not None
           else f"the window's end at {seconds(goal.deadline, tau)} s")
    raise TreeFailure(f"tree exhausted {params.max_iters_per_tree} "
                      f"iterations without reaching {aim}")


def discretize_path(positions, times, k_lo, k_hi, tau):
    """Sample the vertex path (positions, times) at grid points k_lo..k_hi.

    All grid times are located on the path with one sorted search.
    Vertices sitting exactly on a grid time, and the last vertex for
    grid times past it, are taken verbatim; other grid points are
    linear interpolations of the enclosing edge, computed as arrays with
    _interp's formula.
    """
    if np.any(np.diff(times) <= 0):
        raise ValueError("path times must strictly increase")
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


def _next_goal(sub, last_k):
    """The Goal that serves sub next, given the grid index last_k of its
    last arrival (None before the first), or None when it needs no more.

    F and FG need one arrival.  GF arrives within gap steps of its
    active interval's start and of each arrival until gap covers the
    interval's end; a zero gap asks for the next step, so it visits
    every grid step of the interval.  A keep-in G arrives by the start
    of its window and waits there; from then on, and for a keep-out G
    throughout, the guards serve it."""
    if sub.kind != "GF":
        if last_k is not None or (sub.kind == "G" and sub.prop.negated):
            return None
        hi = sub.outer.lo if sub.kind == "G" else sub.outer.hi
        hold = sub.inner.hi if sub.kind == "FG" else 0
        return Goal(sub.prop, (sub.outer.lo, hi), hold_after=hold)
    ai = sub.active_interval()
    gap = sub.inner.length
    if last_k is None:
        return Goal(sub.prop, (ai.lo, min(ai.lo + gap, ai.hi)))
    if ai.hi - last_k <= gap:
        return None
    return Goal(sub.prop, (last_k + 1, min(last_k + max(gap, 1), ai.hi)))


def plan_local(task, q_init, ws, params, rng, guards, *, tau, v_max):
    """Plan the waypoints of one local task window.

    q_init is the (position, time) the window starts from, checked
    against the guards once, and guards constrain every tree edge.
    Every sub-task of the task is planned and certified.  Returns
    (sequence, list of the sub-tasks' certifying pairs in sub-task
    order).
    """
    if not all(g.point_ok(*q_init) for g in guards):
        raise PlanningError(
            f"start point {q_init[0].tolist()} at t={q_init[1]} violates an "
            f"always-constraint; no tree can repair its own root")
    k_lo, k_hi = task.window.lo, task.window.hi
    tally = collections.Counter()
    for _ in range(params.max_restarts + 1):
        try:
            positions, times = _attempt(q_init, ws, params, rng,
                                        task.subtasks, guards, tau, v_max,
                                        k_hi)
        except TreeFailure as err:
            tally[str(err)] += 1
            continue
        seq = discretize_path(positions, times, k_lo, k_hi, tau)
        pairs = []
        for sub in task.subtasks:
            ok, sub_pairs = stl_sat(seq, sub)
            if not ok:
                tally[f"discretized waypoints missed {sub}"] += 1
                break
            pairs.extend(sub_pairs)
        else:
            return seq, pairs
    worst = max(tally, key=tally.get, default="no attempts ran")
    raise PlanningError(
        f"window {task.window}: {tally.total()} attempts failed; most "
        f"frequent failure: {worst}")


def _attempt(q_init, ws, params, rng, subtasks, guards, tau, v_max,
             end_k):
    """One pass of the goal schedule from q_init to grid step end_k: one
    goal per sub-task, of which only the one just served is replaced,
    then the window's end.  The goal that sorts first is served in place
    when the current point meets it, drawing no random numbers, else by
    a tree.  Served in place, it opens a run: each next goal of its
    sub-task that still sorts first and that the point meets is served
    at the same point in the same pass, with the point's region,
    obstacle and guard tests made once.  Returns the joined (positions,
    times)."""
    pos, time = q_init
    positions, times = [pos], [time]
    goals = [_next_goal(sub, None) for sub in subtasks]
    while True:
        # a keep-in goal whose time has passed was met: its guard held since
        due = sorted((goal.deadline, sub.kind == "GF", i)
                     for i, (sub, goal) in enumerate(zip(subtasks, goals))
                     if goal is not None and not (
                         sub.kind == "G"
                         and grid_ceil(time, tau) > goal.deadline))
        # with no goal due, the window's end is the last one
        *_, i = due[0] if due else (None,)
        goal = Goal(None, (end_k, end_k)) if i is None else goals[i]
        done = None
        if goal.prop is None or goal.prop.holds(pos):
            wait_ok = _wait_test(pos, ws, guards)
            done = _complete_at(goal, time, tau, wait_ok)
        if done is None:
            p, t, arrival = grow_tree(pos, time, goal, ws, end_k * tau,
                                      params, rng, tau=tau, v_max=v_max,
                                      guards=guards)
            positions.extend(p)
            times.extend(t)
        # served in place, the goal opens a run at pos: its sub-task's
        # next goal (a patrol's next visit; no other kind has one) is
        # served there too while it sorts before the first other goal
        # due.  Those keep their keys, and a keep-in one can only leave
        # the list, so the next pass would pick the same goal
        rival = due[1] if len(due) > 1 else (math.inf,)
        while done is not None:
            tail, arrival = done  # its first time is the current row's
            positions.extend([pos] * (len(tail) - 1))
            times.extend(tail[1:])
            goal = None if i is None else _next_goal(subtasks[i], arrival)
            done = None
            if goal is not None and (goal.deadline, True, i) < rival:
                done = _complete_at(goal, times[-1], tau, wait_ok)
        if i is None:
            return np.array(positions), np.array(times)
        goals[i] = _next_goal(subtasks[i], arrival)
        pos, time = positions[-1], times[-1]


@dataclass
class GlobalPlan:
    """Concatenated waypoints of all windows plus the certifying pairs,
    deduplicated and ordered by (k, label) on construction; of pairs
    sharing (k, label) the last one given is kept."""

    waypoints: PointSequence
    pairs: tuple

    def __post_init__(self):
        unique = {(p.k, p.label): p for p in self.pairs}
        self.pairs = tuple(unique[key] for key in sorted(unique))

    def validate(self, ws, v_max, expected_len):
        """Check stitching, speed, and free-space invariants."""
        pts = self.waypoints.positions
        if len(pts) != expected_len:
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


def plan_global(decomposition, p0, ws, params, *, tau, v_max):
    """Plan every local window in order and stitch the results.

    Returns a GlobalPlan whose waypoint sequence spans the whole grid
    and whose pairs certify every sub-task, including one piece of
    every disjunctive reach set.  tau must be the decomposition's grid
    step.
    """
    if tau != decomposition.tau:
        raise PlanningError(f"planner step {tau} s differs from the "
                            f"decomposition's grid step "
                            f"{decomposition.tau} s")
    p0 = np.asarray(p0, dtype=float)
    if not ws.point_free(p0):
        raise PlanningError(f"start position {p0.tolist()} is not in free "
                            f"space")
    merged = PointSequence(0, tau, [p0])
    pairs = []
    guards = [Guard.from_subtask(s, tau)
              for s in decomposition.guard_subtasks()]
    for task in decomposition.local_tasks:
        fallbacks = []
        for dset in task.choices:
            for piece in dset.pieces[:-1]:
                ok, piece_pairs = stl_sat(merged, piece)
                if ok:
                    pairs.extend(piece_pairs)
                    break
            else:
                fallbacks.append(dset.final_piece)
        task = replace(task, subtasks=task.subtasks + tuple(fallbacks))
        rng = _BlockedDraws(np.random.default_rng(
            np.random.SeedSequence(params.rng_seed,
                                   spawn_key=(task.index,))))
        q_init = (merged.positions[-1], merged.k_last * tau)
        seq, local_pairs = plan_local(task, q_init, ws, params, rng, guards,
                                      tau=tau, v_max=v_max)
        merged = merged.concat(seq)
        pairs.extend(local_pairs)
    return GlobalPlan(merged, pairs)
