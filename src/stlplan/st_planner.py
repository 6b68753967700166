"""Timed waypoint planning with goal-biased space-time trees.

Each local task is planned greedily from one goal schedule: every
reach clause (plain eventually, reach-and-hold, and each repeating
visit of a patrol clause) has a next goal that follows from its last
arrival, and a random tree through position x time is grown to the
goal with the earliest deadline, reaches before patrols on ties.
Every always-clause of the formula acts as a windowed keep-in /
keep-out constraint on every tree edge of every window, so the returned
waypoints respect them by construction.  Each tree hands its path on
as position and time arrays; the window's joined path is sampled onto
the grid and every sub-task re-checked; on failure the attempt restarts
with fresh randomness.  The certifying pairs of every window are
collected in order and deduplicated once, into the plan's
SatisfactionSet.

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


def nearest(positions, times, pos, time):
    """Index of the position-nearest row strictly earlier than time,
    earliest row on distance ties; None when no row qualifies."""
    mask = times < time
    if not mask.any():
        return None
    d2 = ((positions - np.asarray(pos)) ** 2).sum(axis=1)
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
    if ws.segment_collides(p0, p1):
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
    """If (p, t) completes the goal, return the times of the certifying
    tail, all at position p and ending on exact grid times, and the
    arrival grid index."""
    if goal.prop is None:
        if t >= goal.window[0]:
            return [t], None
        return None
    if not goal.prop.holds(p):
        return None
    if t > goal.window[1] + _TIME_TOL:
        return None
    g_k = grid_ceil(max(t, goal.window[0]), tau)
    g = g_k * tau
    if g > goal.window[1] + _TIME_TOL:
        return None
    if g > t + _TIME_TOL:
        # wait in place until the window opens / the next grid sample
        if not _edge_ok(ws, guards, p, t, p, g, math.inf):
            return None
        tail = [t, g]
    else:
        # arrival is (within tolerance) already on the grid sample
        tail = [g]
    if goal.hold_after > 0.0:
        k_end = g_k + grid_ceil(goal.hold_after, tau)
        g_end = k_end * tau
        if not _edge_ok(ws, guards, p, g, p, g_end, math.inf):
            return None
        tail.append(g_end)
    return tail, g_k


def grow_tree(root_pos, root_time, goal, ws, end_time, params, rng, *, tau,
              v_max=math.inf, guards=()):
    """Grow one space-time tree from the root until the goal completes.

    The tree is held as position and time arrays, doubled from 64 rows
    as it fills, plus a parent index per row.  Returns (positions,
    times, arrival) of the path after the root, times strictly
    increasing: the tree chain down to the vertex the completing edge
    leaves from, then the completion tail at the completing position.
    A root that completes the goal yields only its tail times later
    than root_time, possibly none.  Times are sampled from root_time to
    end_time plus the time overshoot; the goal's own arrival window
    decides completion.  Raises TreeFailure when the iteration budget
    runs out.
    """
    for g in guards:
        if not g.point_ok(root_pos, root_time):
            raise PlanningError(
                f"start point {root_pos.tolist()} at t={root_time} violates "
                f"an always-constraint; no tree can repair its own root")
    done = _try_complete(goal, root_pos, root_time, tau, ws, guards)
    if done is not None:
        tail, arrival = done
        tail = np.array([t for t in tail if t > root_time + 1e-15])
        return np.full((len(tail), len(root_pos)), root_pos), tail, arrival
    positions = np.zeros((64, len(root_pos)))
    times = np.zeros(64)
    positions[0] = root_pos
    times[0] = root_time
    parent = [-1]
    keepins = tuple(g for g in guards if g.keep_in)
    t_hi = end_time + params.resolved_overshoot(tau)
    for _ in range(params.max_iters_per_tree):
        samp_pos, samp_time = sample(ws, goal.sample_box,
                                     (root_time, t_hi), params, rng,
                                     keepins=keepins)
        n = len(parent)
        ni = nearest(positions[:n], times[:n], samp_pos, samp_time)
        if ni is None:
            continue
        new_pos, new_time = steer(positions[ni], times[ni],
                                  samp_pos, samp_time, params, tau)
        if not _edge_ok(ws, guards, positions[ni], times[ni],
                        new_pos, new_time, v_max):
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
            return (np.vstack([positions[chain]] + [new_pos] * len(tail)),
                    np.concatenate([times[chain], tail]), arrival)
        if n == len(times):
            positions = np.vstack([positions, np.zeros_like(positions)])
            times = np.concatenate([times, np.zeros_like(times)])
        positions[n] = new_pos
        times[n] = new_time
        parent.append(ni)
    raise TreeFailure(
        f"tree exhausted {params.max_iters_per_tree} iterations without "
        f"completing its goal")


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


def _next_goal(sub, last_k, tau):
    """The Goal that serves sub next, given the grid index last_k of its
    last arrival (None before the first), or None when it needs no more.

    F and FG need one arrival.  GF arrives within gap of its active
    interval's start and of each arrival until gap covers the interval's
    end.  G is served by the guards."""
    if sub.kind in ("F", "FG"):
        if last_k is not None:
            return None
        hold = sub.inner.hi if sub.kind == "FG" else 0.0
        return Goal(sub.prop, (sub.outer.lo, sub.outer.hi), hold_after=hold)
    if sub.kind != "GF":
        return None
    ai = sub.active_interval()
    gap = sub.inner.length
    if last_k is None:
        return Goal(sub.prop, (ai.lo, min(ai.lo + gap, ai.hi)))
    if ai.hi - last_k * tau <= gap + _TIME_TOL:
        return None
    return Goal(sub.prop, ((last_k + 1) * tau,
                           min(last_k * tau + gap, ai.hi)))


def plan_local(task, q_init, ws, params, rng, guards, *, tau, v_max=math.inf):
    """Plan the waypoints of one local task window.

    q_init is the (position, time) the window starts from and guards
    constrain every tree edge.  Every sub-task of the task is planned
    and certified.  Returns (sequence, list of the sub-tasks'
    certifying pairs in sub-task order).
    """
    k_lo = grid_ceil(task.window.lo, tau)
    k_hi = grid_ceil(task.window.hi, tau)

    tally = collections.Counter()
    for _ in range(params.max_restarts + 1):
        try:
            positions, times = _attempt(q_init, ws, params, rng,
                                        task.subtasks, guards, tau, v_max,
                                        k_hi * tau)
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
             end_time):
    pos, time = q_init
    parts = [(pos[None], np.array([time]))]
    last_k = [None] * len(subtasks)
    while True:
        due = [(goal.deadline, sub.kind == "GF", i, goal)
               for i, sub in enumerate(subtasks)
               if (goal := _next_goal(sub, last_k[i], tau)) is not None]
        if not due:
            break
        *_, i, goal = min(due)  # i is unique: goals are never compared
        p, t, last_k[i] = grow_tree(pos, time, goal, ws, end_time, params,
                                    rng, tau=tau, v_max=v_max, guards=guards)
        parts.append((p, t))
        if len(t):
            pos, time = p[-1], t[-1]

    if time < end_time:
        if _edge_ok(ws, guards, pos, time, pos, end_time, v_max):
            parts.append((pos[None], np.array([end_time])))
        else:
            parts.append(grow_tree(pos, time, Goal.by_time(end_time), ws,
                                   end_time, params, rng, tau=tau,
                                   v_max=v_max, guards=guards)[:2])
    positions, times = zip(*parts)
    return np.vstack(positions), np.concatenate(times)


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
    pairs = []
    guards = [Guard.from_subtask(s) for s in decomposition.guard_subtasks()]
    for task in decomposition.local_tasks:
        fallbacks = []
        for dset in decomposition.disjunctive_sets:
            if decomposition.local_index_of(dset.final_piece) != task.index:
                continue
            for piece in dset.pieces[:-1]:
                ok, piece_pairs = stl_sat(merged, piece)
                if ok:
                    pairs.extend(piece_pairs)
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
        pairs.extend(local_pairs)
    return GlobalPlan(merged, SatisfactionSet(pairs))
