"""Obstacle-free box corridors around waypoint sequences.

Each waypoint gets an axis-aligned box grown around it: faces take
turns expanding by a fixed increment and freeze by snapping onto the
first obstacle face or workspace bound they would otherwise cross.
Consecutive waypoints reuse the previous box while they stay inside it,
so a corridor typically holds far fewer distinct boxes than waypoints.
Checks run on arrays: containment once per waypoint against the bounds
of its box, and the workspace and obstacle tests once per distinct box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stl_core import Box, StlError

DEFAULT_STEP = 0.05


class CorridorError(StlError):
    pass


@dataclass(frozen=True)
class SafeCorridor:
    """One box per waypoint; consecutive entries may share the object."""

    boxes: tuple

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))

    def __len__(self):
        return len(self.boxes)

    def __getitem__(self, k):
        return self.boxes[k]

    def runs(self):
        """Split the boxes into runs of consecutive steps sharing one box
        object: (the run index of every step as an array, the distinct
        boxes in first-use order)."""
        distinct, run = [], []
        for b in self.boxes:
            if not distinct or distinct[-1] is not b:
                distinct.append(b)
            run.append(len(distinct) - 1)
        return np.array(run, dtype=np.intp), distinct

    def distinct(self):
        """The distinct boxes in first-use order."""
        return self.runs()[1]

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


def safe_cor(point, ws, step=DEFAULT_STEP):
    """Largest box the face-expansion schedule reaches around one point.

    Faces expand round-robin (x low, x high, y low, y high, ...) by the
    step increment and freeze by snapping exactly onto whatever blocks
    them: an obstacle face or the workspace bound.
    """
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
                                if _blocked_overlap(lo, hi, o, axis)
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
                                if _blocked_overlap(lo, hi, o, axis)
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


def construct_safe_corridor(waypoints, ws, step=DEFAULT_STEP):
    """Corridor for a waypoint sequence; a new box is grown only when a
    waypoint leaves the previous one."""
    pts = getattr(waypoints, "positions", None)
    if pts is None:
        pts = np.asarray(waypoints, dtype=float)
    boxes = []
    while len(boxes) < len(pts):
        k = len(boxes)
        cur = safe_cor(pts[k], ws, step)
        rest = pts[k + 1:]
        leave = np.flatnonzero(~np.all((rest >= cur.lo) & (rest <= cur.hi),
                                       axis=1))
        boxes += [cur] * (1 + (leave[0] if leave.size else len(rest)))
    return SafeCorridor(tuple(boxes))
