"""Obstacle-free box corridors around waypoint sequences.

Each waypoint gets an axis-aligned box grown around it: faces take
turns expanding by a fixed increment and freeze by snapping onto the
first obstacle face or workspace bound they would otherwise cross.
The growth jumps between events: each face's unblocked positions are
precomputed with the round's own float operations, a sorted search
finds the rounds in which some face reaches an obstacle plane or the
workspace bound, and only those rounds run the blocker test, so the box
is the one the round-by-round schedule gives, bit for bit.
Consecutive waypoints reuse the previous box while they stay inside it,
so a corridor typically holds far fewer distinct boxes than waypoints.
Checks run on arrays: containment once per waypoint against the bounds
of its box, and the workspace and obstacle tests once per distinct box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .stl_core import Box, StlError

DEFAULT_STEP = 0.05


class CorridorError(StlError):
    pass


@dataclass(frozen=True)
class SafeCorridor:
    """One box per waypoint; consecutive entries may share the object."""

    boxes: tuple
    _runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        boxes = tuple(self.boxes)
        first = [b is not prev for prev, b in zip((None,) + boxes, boxes)]
        run = np.cumsum(first, dtype=np.intp) - 1
        run.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "_runs", (run, tuple(compress(boxes, first))))

    def runs(self):
        """The boxes split into runs of consecutive steps sharing one box
        object, derived once: (the run index of every step as a read-only
        array, the distinct boxes in first-use order)."""
        return self._runs

    def validate(self, ws, waypoints):
        """Raise unless every box contains its waypoint, stays inside the
        workspace, and keeps its interior clear of every obstacle.

        Containment is one comparison of the waypoints against per-step
        box bounds; the workspace and obstacle tests run once per
        distinct box.  The error names the first failing step k and, at
        k, the first failing test in that order.
        """
        pts = np.asarray(waypoints, dtype=float)
        if len(pts) != len(self.boxes):
            raise CorridorError("corridor length does not match waypoints")
        if not self.boxes:
            return
        run, distinct = self.runs()
        lo = np.array([b.lo for b in distinct])
        hi = np.array([b.hi for b in distinct])
        outside = ~np.all((pts >= lo[run]) & (pts <= hi[run]), axis=1)
        leaves = np.any((lo < ws.bounds.lo) | (hi > ws.bounds.hi), axis=1)
        overlaps = np.array([any(b.open_intersects(o) for o in ws.obstacles)
                             for b in distinct])
        bad = outside | leaves[run] | overlaps[run]
        if not bad.any():
            return
        k = int(np.argmax(bad))
        if outside[k]:
            raise CorridorError(f"box {k} does not contain its waypoint")
        if leaves[run[k]]:
            raise CorridorError(f"box {k} leaves the workspace")
        raise CorridorError(f"box {k} overlaps an obstacle")


def _blocked_overlap(box_lo, box_hi, obstacle, axis):
    """Closed overlap on every axis except the expanding one."""
    for j in range(len(box_lo)):
        if j == axis:
            continue
        if max(box_lo[j], obstacle.lo[j]) > min(box_hi[j], obstacle.hi[j]):
            return False
    return True


def _event_starts(p, ws, step):
    """Where the faces of a box grown from p stand at the start of each
    round in which one of them can freeze, provided none has frozen yet:
    one row per such round in ascending order, one entry per face in
    round-robin order (x low, x high, y low, y high, ...).

    A face's position after n rounds is the one before plus or minus the
    step, the round's own float operation (accumulate runs them in
    sequence), until the first one at or past the bound; that round
    freezes the face at the latest.  The other rounds listed are those
    whose (target, cur] interval (mirrored for a high face) holds an
    obstacle plane the face could snap onto.
    """
    dim = len(p)
    sign = np.array([-1.0, 1.0] * dim)
    start = np.repeat(p, 2)
    # mirrored so that every face moves up: -x for low faces; negation is
    # exact, so comparisons of mirrored values are exact too
    bound = sign * np.array([ws.bounds.lo, ws.bounds.hi]).T.ravel()
    n = int(np.max(bound - sign * start) / step) + 2
    while True:
        inc = np.empty((2 * dim, n + 1))
        inc[:, 0] = start
        inc[:, 1:] = (sign * step)[:, None]
        pos = np.add.accumulate(inc, axis=1)
        up = sign[:, None] * pos
        if np.all(up[:, -1] >= bound):
            break
        n *= 2
    rounds = set()
    for f, row in enumerate(up):
        axis = f // 2
        planes = ws._obs_lo[:, axis] if f % 2 else -ws._obs_hi[:, axis]
        last = int(np.searchsorted(row[1:], bound[f])) + 1
        # round r crosses the mirrored plane h when row[r - 1] <= h < row[r]
        cross = np.searchsorted(row, planes, side="right")
        rounds.update(cross[(cross > 0) & (cross < last)].tolist())
        rounds.add(last)
    return pos[:, np.array(sorted(rounds)) - 1].T.tolist()


def _step_face(lo, hi, axis, side, ws, step):
    """One round of one live face: move by the step toward the bound,
    or snap onto the nearest obstacle face the move would cross.
    Returns True when the face froze."""
    if side == 0:
        cur = lo[axis]
        target = max(cur - step, ws.bounds.lo[axis])
        blockers = [o.hi[axis] for o in ws.obstacles
                    if target < o.hi[axis] <= cur
                    and _blocked_overlap(lo, hi, o, axis)]
        if blockers:
            lo[axis] = max(blockers)
            return True
        lo[axis] = target
        return target == ws.bounds.lo[axis]
    cur = hi[axis]
    target = min(cur + step, ws.bounds.hi[axis])
    blockers = [o.lo[axis] for o in ws.obstacles
                if cur <= o.lo[axis] < target
                and _blocked_overlap(lo, hi, o, axis)]
    if blockers:
        hi[axis] = min(blockers)
        return True
    hi[axis] = target
    return target == ws.bounds.hi[axis]


def safe_cor(point, ws, step):
    """Largest box the face-expansion schedule reaches around one point.

    Faces expand round-robin (x low, x high, y low, y high, ...) by the
    step increment and freeze by snapping exactly onto whatever blocks
    them: an obstacle face or the workspace bound.  Only the rounds in
    which some face can freeze are run, each live face first moved
    straight to its precomputed position.  That is exact: in a round
    where no face's move reaches an obstacle plane or the bound, the
    blocker test finds nothing whatever the box overlaps, so every live
    face just steps.
    """
    p = np.asarray(point, dtype=float)
    if not ws.point_free(p):
        raise CorridorError(f"corridor seed {p.tolist()} is not in free "
                            f"space")
    lo = [float(v) for v in p]
    hi = [float(v) for v in p]
    live = list(range(2 * len(p)))
    for start in _event_starts(p, ws, step):
        for f in live:
            (lo, hi)[f % 2][f // 2] = start[f]
        live = [f for f in live
                if not _step_face(lo, hi, f // 2, f % 2, ws, step)]
    return Box(tuple(lo), tuple(hi))


def construct_safe_corridor(waypoints, ws, step):
    """Corridor for a PointSequence of waypoints; a new box is grown only
    when a waypoint leaves the previous one."""
    pts = waypoints.positions
    boxes = []
    while len(boxes) < len(pts):
        k = len(boxes)
        cur = safe_cor(pts[k], ws, step)
        rest = pts[k + 1:]
        leave = np.flatnonzero(~np.all((rest >= cur.lo) & (rest <= cur.hi),
                                       axis=1))
        boxes += [cur] * (1 + (leave[0] if leave.size else len(rest)))
    return SafeCorridor(tuple(boxes))
