"""Obstacle-free box corridors around waypoint sequences.

Each waypoint gets an axis-aligned box grown around it: faces take
turns expanding by a fixed increment and freeze by snapping onto the
first obstacle face or workspace bound they would otherwise cross.

The growth works on one mirrored face vector (-xlo, xhi, -ylo, yhi,
...), in which every face moves up.  The workspace bound is mirrored
the same way, and an obstacle is the mirrored vector of its opposite
faces (-xhi, xlo, -yhi, ylo, ...): each entry is the plane that face
snaps onto, and the box overlaps the obstacle (closed) exactly when no
entry of the box's vector is below the obstacle's.  The Workspace
builds both once, for every box grown in it.  Negation is exact
and round-to-nearest is sign-symmetric, so every step, comparison and
snap is the mirror of the one in plain coordinates, and the box is
built at the end by negating the low faces.  A face that steps exactly
onto its bound takes the bound's own zero, which plain coordinates give
too unless the bound is written -0.0.

The growth jumps between events: each face's unblocked positions are
precomputed with the round's own float operations, a sorted search
finds the rounds in which some face reaches an obstacle plane or its
bound, and only those rounds run the blocker test, each live face first
moved straight to its precomputed position.  In the rounds skipped no
move reaches a plane or a bound, so the blocker test would find nothing
whatever the box overlaps, and the box is the one the round-by-round
schedule gives, bit for bit.
Consecutive waypoints reuse the previous box while they stay inside it,
so a corridor typically holds far fewer distinct boxes than waypoints.
Checks run on arrays: containment once per waypoint against the bounds
of its box, and the workspace and obstacle tests once per distinct box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import ge

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


def _event_starts(start, bound, planes, step):
    """Where the faces stand at the start of each round in which one of
    them can freeze, provided none has frozen yet: one row per such round
    in ascending order, one mirrored position per face.

    A face's position after n rounds is the one before plus the step, the
    round's own float operation (accumulate runs them in sequence), until
    the first one at or past the bound; that round freezes the face at
    the latest.  The other rounds listed are those whose [cur, target)
    interval holds an obstacle plane the face could snap onto.
    """
    n = int(np.max(bound - start) / step) + 2
    while True:
        inc = np.full((len(start), n + 1), step)
        inc[:, 0] = start
        pos = np.add.accumulate(inc, axis=1)
        if np.all(pos[:, -1] >= bound):
            break
        n *= 2
    rounds = set()
    for row, b, col in zip(pos, bound, planes.T):
        last = int(np.searchsorted(row[1:], b)) + 1
        # round r crosses the plane h when row[r - 1] <= h < row[r]
        cross = np.searchsorted(row, col, side="right")
        rounds.update(cross[(cross > 0) & (cross < last)].tolist())
        rounds.add(last)
    return pos[:, np.array(sorted(rounds)) - 1].T.tolist()


def _step_face(m, f, bound, planes, step):
    """One round of live face f: move it by the step toward its bound, or
    snap it onto the nearest plane in [cur, target) of an obstacle that
    the moved box overlaps (closed).  Returns True when the face froze."""
    cur = m[f]
    m[f] = target = min(bound[f], cur + step)
    blockers = [q[f] for q in planes
                if cur <= q[f] < target and all(map(ge, m, q))]
    if blockers:
        m[f] = min(blockers)
        return True
    return target == bound[f]


def safe_cor(point, ws, step):
    """Largest box the face-expansion schedule reaches around one point.

    Faces expand round-robin (x low, x high, y low, y high, ...) by the
    step increment and freeze by snapping exactly onto whatever blocks
    them: an obstacle face or the workspace bound.  Raises CorridorError
    when the point is not in free space.
    """
    p = np.asarray(point, dtype=float)
    if not ws.point_free(p):
        raise CorridorError(f"corridor seed {p.tolist()} is not in free "
                            f"space")
    m = [v for x in p.tolist() for v in (-x, x)]
    bound_array, plane_array, bound, planes = ws._mirrored
    live = range(len(m))
    for start in _event_starts(m, bound_array, plane_array, step):
        for f in live:
            m[f] = start[f]
        live = [f for f in live
                if not _step_face(m, f, bound, planes, step)]
    return Box([-v for v in m[::2]], m[1::2])


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
