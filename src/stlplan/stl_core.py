"""Core types for temporal-logic planning tasks.

Workspace geometry (axis-aligned boxes, obstacles, labeled regions),
time intervals on a sampling grid, a restricted temporal-logic formula
and its parser, uniformly sampled point sequences, and the verdict of a
whole formula over a sequence, decided sub-task by sub-task by
satisfaction.stl_sat.

Time in a formula is counted in grid steps of the sampling period tau.
The parser snaps each interval endpoint, written in seconds, to its
step once (within GRID_TOL relative) and rejects an endpoint off the
grid; every later stage works on the integer steps.  Seconds appear
again only in printing, as step * tau.

The formula fragment is a conjunction of clauses, each one of

    F[a,b] atom          eventually
    G[a,b] atom          always
    F[a,b] G[c,d] atom   reach and hold
    G[a,b] F[c,d] atom   recurring visits
    atom U[a,b] atom     until, rewritten as G[a,b] left & F[a,b] right

where an atom is a region label, a negated label, or a parenthesized
conjunction of labels (intersected into a single region at parse time).
The parser turns each clause straight into sub-tasks, the until into
its rewritten pair, which is sufficient but not necessary: any sequence
satisfying the pair satisfies the until, not conversely.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import satisfaction

GRID_TOL = 1e-9
# rejection-sampling draws Workspace.sample_free makes before giving up
SAMPLE_FREE_TRIES = 1000

KINDS = ("F", "G", "FG", "GF")


class StlError(Exception):
    """Base class for task-definition and evaluation errors."""


class FormulaSyntaxError(StlError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownRegionError(StlError):
    pass


class IntervalAlignmentError(FormulaSyntaxError):
    """An interval endpoint is not an integer multiple of the sampling step."""


class NestedOverlapError(StlError):
    """Two nested sub-tasks have overlapping active-interval interiors."""


class CoverageError(StlError):
    """A point sequence does not cover the grid points a check needs."""


# ---------------------------------------------------------------------------
# grid arithmetic

def snap_index(t, tau):
    """Return k with k*tau == t (within tolerance), or None."""
    k = int(round(t / tau))
    if abs(k * tau - t) <= GRID_TOL * max(1.0, abs(t)):
        return k
    return None


def grid_ceil(t, tau):
    """Smallest grid index k with k*tau >= t (tolerant of float noise)."""
    return int(math.ceil(t / tau - GRID_TOL))


def seconds(k, tau):
    """Grid step k printed in seconds: k * tau to ten significant
    digits, so that step 3 at tau 0.1 prints as 0.3."""
    return f"{k * tau:.10g}"


# ---------------------------------------------------------------------------
# geometry

def _floats(p):
    """The coordinates of point p as plain floats: a numpy array is
    converted once, a list or tuple is used as it is."""
    return p.tolist() if isinstance(p, np.ndarray) else p


def _slab_hit(a, b, lo, hi):
    """Box.segment_intersects on the float sequences a and b and the
    box bounds lo and hi."""
    tmin, tmax = 0.0, 1.0
    for u, v, l, h in zip(a, b, lo, hi):
        d = v - u
        if d == 0.0:
            if u < l or u > h:
                return False
            continue
        t1 = (l - u) / d
        t2 = (h - u) / d
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > tmin:
            tmin = t1
        if t2 < tmax:
            tmax = t2
        if tmin > tmax:
            return False
    return True


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box given by per-axis lower and upper bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise ValueError("bound dimension mismatch")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError(f"inverted box bounds {lo} {hi}")

    @property
    def dim(self):
        return len(self.lo)

    def contains(self, p):
        for v, l, h in zip(_floats(p), self.lo, self.hi):
            if not l <= v <= h:
                return False
        return True

    def intersect(self, other):
        """Closed intersection with positive extent on every axis, or None."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(l >= h for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def open_intersects(self, other):
        """True when the open interiors overlap (shared faces do not count)."""
        return all(max(a, b) < min(c, d)
                   for a, b, c, d in zip(self.lo, other.lo, self.hi, other.hi))

    def segment_intersects(self, a, b):
        """True when the closed segment a-b meets the closed box.

        Slab clipping of the segment parameter; touching a face or a
        corner counts as a hit.
        """
        return _slab_hit(_floats(a), _floats(b), self.lo, self.hi)

    @cached_property
    def _lo_and_span(self):
        return tuple((l, h - l) for l, h in zip(self.lo, self.hi))

    def sample(self, rng):
        """A uniform point of the box as a list of floats, one
        rng.random() per axis: the draws and operations of
        lo + rng.random(dim) * span."""
        return [l + rng.random() * s for l, s in self._lo_and_span]


@dataclass(frozen=True)
class Region:
    """A named closed box region of the workspace."""

    name: str
    box: Box


@dataclass(frozen=True)
class Workspace:
    """Bounded planar workspace with box obstacles and labeled regions.

    in_obstacle, point_free and segment_collides test one point or
    segment: they convert it to plain floats once and loop over the
    obstacles, sharing Box's closed tests.  points_free and
    segments_collide test many at once as arrays, with the same float
    operations."""

    bounds: Box
    obstacles: tuple
    regions: tuple

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "regions", tuple(self.regions))
        table = {}
        for r in self.regions:
            if r.name in table:
                raise ValueError(f"duplicate region name {r.name!r}")
            table[r.name] = r
        object.__setattr__(self, "_table", table)
        # obstacle bounds as (O, d) arrays for the batched predicates
        shape = (len(self.obstacles), self.bounds.dim)
        object.__setattr__(self, "_obs_lo", np.array(
            [o.lo for o in self.obstacles], dtype=float).reshape(shape))
        object.__setattr__(self, "_obs_hi", np.array(
            [o.hi for o in self.obstacles], dtype=float).reshape(shape))
        # corridor.safe_cor's mirrored faces, built once: the bound as
        # (-lo, hi) per axis and each obstacle's planes as (-hi, lo) per
        # axis, as arrays and as plain floats
        bound = np.column_stack([np.negative(self.bounds.lo),
                                 self.bounds.hi]).ravel()
        planes = np.stack([-self._obs_hi, self._obs_lo], axis=2).reshape(
            shape[0], 2 * shape[1])
        object.__setattr__(self, "_mirrored",
                           (bound, planes, bound.tolist(), planes.tolist()))

    def region(self, name):
        try:
            return self._table[name]
        except KeyError:
            raise UnknownRegionError(f"unknown region {name!r}") from None

    def in_obstacle(self, p):
        p = _floats(p)
        for o in self.obstacles:
            if o.contains(p):
                return True
        return False

    def point_free(self, p):
        p = _floats(p)
        return self.bounds.contains(p) and not self.in_obstacle(p)

    def segment_collides(self, a, b):
        """True when the segment touches any obstacle (closed test)."""
        a, b = _floats(a), _floats(b)
        for o in self.obstacles:
            if _slab_hit(a, b, o.lo, o.hi):
                return True
        return False

    def points_free(self, P):
        """point_free of each row of the (N, d) array P."""
        P = np.asarray(P, dtype=float)
        lo, hi = self.bounds.lo, self.bounds.hi
        inside = np.all((P >= lo) & (P <= hi), axis=1)
        Q = P[:, None, :]
        hit = np.all((Q >= self._obs_lo) & (Q <= self._obs_hi), axis=2)
        return inside & ~hit.any(axis=1)

    def segments_collide(self, A, B):
        """segment_collides of each segment A[i]-B[i] of the (N, d)
        arrays A and B: Box.segment_intersects' slab clipping with the
        same float operations, run on all obstacle-segment pairs as
        (O, N) arrays, one axis at a time, so that numpy's inner loops
        run along the segments."""
        A = np.asarray(A, dtype=float).T
        D = np.asarray(B, dtype=float).T - A
        hit = np.ones((len(self.obstacles), A.shape[1]), dtype=bool)
        tmin = np.zeros(hit.shape)
        tmax = np.ones(hit.shape)
        for a, d, lo, hi in zip(A, D, self._obs_lo.T[:, :, None],
                                self._obs_hi.T[:, :, None]):
            # an axis the segment does not move along must pass through
            # the slab; the others clip the parameter interval [tmin, tmax]
            move = d != 0.0
            hit &= move | ((a >= lo) & (a <= hi))
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (lo - a) / d
                t2 = (hi - a) / d
            swap = t1 > t2
            t1, t2 = np.where(swap, t2, t1), np.where(swap, t1, t2)
            tmin = np.where(move & (t1 > tmin), t1, tmin)
            tmax = np.where(move & (t2 < tmax), t2, tmax)
        return (hit & ~(tmin > tmax)).any(axis=0)

    def sample_free(self, rng):
        for _ in range(SAMPLE_FREE_TRIES):
            p = self.bounds.sample(rng)
            if not self.in_obstacle(p):
                return p
        raise StlError("could not sample a free point; workspace nearly full")


# ---------------------------------------------------------------------------
# time intervals

@dataclass(frozen=True)
class TimeInterval:
    """Closed interval [lo, hi] of grid steps, 0 <= lo <= hi; tau, the
    sampling period, only turns the steps into seconds for printing."""

    lo: int
    hi: int
    tau: float

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)
                and 0 <= self.lo <= self.hi):
            raise ValueError(f"bad step interval [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    def minkowski(self, other):
        return TimeInterval(self.lo + other.lo, self.hi + other.hi, self.tau)

    def interior_contains(self, k):
        return self.lo < k < self.hi

    def contains_interval(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self):
        return f"[{seconds(self.lo, self.tau)},{seconds(self.hi, self.tau)}]"


# ---------------------------------------------------------------------------
# formula AST

@dataclass(frozen=True)
class AtomicProp:
    """A region label or its negation; holds at points of the workspace.

    Membership in the region is closed; the negation holds strictly
    outside the region (boundary points belong to the region).
    """

    region: Region
    negated: bool = False

    @property
    def label(self):
        return ("!" if self.negated else "") + self.region.name

    def holds(self, p):
        inside = self.region.box.contains(p)
        return not inside if self.negated else inside

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class SubTask:
    """One temporal clause: F, G, nested FG (reach-hold) or GF (patrol)."""

    kind: str
    outer: TimeInterval
    inner: TimeInterval | None
    prop: AtomicProp

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"bad sub-task kind {self.kind!r}")
        if (self.inner is None) == (self.kind in ("FG", "GF")):
            raise ValueError("inner interval required exactly for FG/GF")

    @property
    def nested(self):
        return self.kind in ("FG", "GF")

    def active_interval(self):
        """The grid steps whose samples the clause can constrain."""
        return self._active_interval

    @cached_property
    def _active_interval(self):
        # built once: the goal schedule asks for it at every patrol visit
        if self.nested:
            return self.outer.minkowski(self.inner)
        return self.outer

    def __str__(self):
        if self.kind == "F" or self.kind == "G":
            return f"{self.kind}{self.outer} {self.prop}"
        a, b = self.kind[0], self.kind[1]
        return f"{a}{self.outer} {b}{self.inner} {self.prop}"


@dataclass(frozen=True)
class Formula:
    """Conjunction of sub-tasks, of which no two nested ones have
    overlapping active-interval interiors."""

    subtasks: tuple

    def __post_init__(self):
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        if not self.subtasks:
            raise ValueError("empty formula")
        nested = [s for s in self.subtasks if s.nested]
        for i, s in enumerate(nested):
            for t in nested[i + 1:]:
                a, b = s.active_interval(), t.active_interval()
                if max(a.lo, b.lo) < min(a.hi, b.hi):
                    raise NestedOverlapError(
                        f"nested sub-tasks {s} and {t} have overlapping "
                        f"active intervals")

    @property
    def horizon(self):
        """Last grid step any sub-task constrains."""
        return max(s.active_interval().hi for s in self.subtasks)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<num>\d+(?:\.\d+)?)
  | (?P<op>[FGU](?!\w))
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<sym>[!&\[\](),])
  | (?P<bad>\S))""", re.VERBOSE)


def is_identifier(name):
    """True when the formula tokenizer reads name as one identifier: a
    letter or underscore, then letters, digits or underscores, and none
    of the operators F, G and U."""
    m = _TOKEN_RE.fullmatch(name)
    return m is not None and m["ident"] == name


def _tokenize(text):
    """(kind, text, position) of each token, then an end token; a symbol's
    kind is its own text.  A non-blank character that starts no token is
    an error at its own position."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word, at = m[kind], m.start(kind)
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {word!r}", at)
        tokens.append((word if kind == "sym" else kind, word, at))
    tokens.append(("end", "", len(text)))
    return tokens


# what the messages call a token kind that is not its own text
_EXPECTED = {"num": "a number", "ident": "a region name"}


class _Parser:
    def __init__(self, text, workspace, tau):
        self.tokens = _tokenize(text)
        self.ws = workspace
        self.tau = tau
        self.i = 0

    def next_is(self, *words):
        """True when the next token's text is one of words."""
        return self.tokens[self.i][1] in words

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise self.expected(_EXPECTED.get(kind, repr(kind)))
        self.i += 1
        return tok

    def expected(self, what):
        """The error of a next token that is not `what`, in words."""
        _, word, at = self.tokens[self.i]
        found = repr(word) if word else "end of input"
        return FormulaSyntaxError(f"expected {what}, found {found}", at)

    def parse(self):
        subtasks = self.clause()
        while self.next_is("&"):
            self.take()
            subtasks += self.clause()
        kind, word, at = self.take()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {word!r}", at)
        return Formula(subtasks)

    def clause(self):
        """The sub-tasks of one clause: an until, or F or G over an atom,
        the one nesting the other or not."""
        if not self.next_is("F", "G"):
            left = self.atom()
            if not self.next_is("U"):
                raise self.expected("U")
            self.take()
            ival = self.interval()
            # Sufficient rewrite: hold the left atom over the whole window and
            # reach the right atom inside it.
            return [SubTask("G", ival, None, left),
                    SubTask("F", ival, None, self.atom())]
        kind, ivals = "", []
        while self.next_is("F", "G"):
            _, op, at = self.take()
            if len(kind) == 2:
                raise FormulaSyntaxError("nesting deeper than two operators",
                                         at)
            if kind == op:
                raise FormulaSyntaxError(f"{op} may not nest another {op}", at)
            kind += op
            ivals.append(self.interval())
        outer, inner, *_ = ivals + [None]
        return [SubTask(kind, outer, inner, self.atom())]

    def interval(self):
        self.take("[")
        lo = self.step()
        self.take(",")
        hi = self.step()
        closing = self.take("]")
        if hi < lo:
            raise FormulaSyntaxError(
                f"interval upper bound {seconds(hi, self.tau)} below lower "
                f"bound {seconds(lo, self.tau)}", closing[2])
        return TimeInterval(lo, hi, self.tau)

    def step(self):
        """The grid step of the next token, an endpoint in seconds."""
        _, text, at = self.take("num")
        t = float(text)
        if not math.isfinite(t / self.tau):
            raise FormulaSyntaxError("endpoint is too large", at)
        k = snap_index(t, self.tau)
        if k is None:
            raise IntervalAlignmentError(
                f"endpoint {text} is not a multiple of the sampling step "
                f"{self.tau}", at)
        return k

    def atom(self):
        if self.next_is("!"):
            self.take()
            name = self.take("ident")
            return AtomicProp(self.ws.region(name[1]), negated=True)
        if not self.next_is("("):
            return AtomicProp(self.ws.region(self.take("ident")[1]))
        self.take()
        names = [self.take("ident")[1]]
        while len(names) < 2 or self.next_is("&"):
            self.take("&")
            names.append(self.take("ident")[1])
        close = self.take(")")
        regions = [self.ws.region(n) for n in names]
        box = regions[0].box
        for r in regions[1:]:
            box = box.intersect(r.box)
            if box is None:
                raise FormulaSyntaxError(
                    f"regions {' & '.join(names)} have empty intersection",
                    close[2])
        return AtomicProp(Region("&".join(names), box))


def parse_formula(text, workspace, tau):
    """Parse a task formula against a workspace region table, its
    interval endpoints snapped to grid steps of the sampling period
    tau."""
    return _Parser(text, workspace, tau).parse()


# ---------------------------------------------------------------------------
# point sequences

class PointSequence:
    """Positions sampled uniformly on the grid: point j is at (k0+j)*tau."""

    def __init__(self, k0, tau, positions):
        self.k0 = int(k0)
        self.tau = float(tau)
        pts = np.array(positions, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("positions must be a nonempty (N, dim) array")
        pts.setflags(write=False)
        self.positions = pts

    def __len__(self):
        return len(self.positions)

    @property
    def k_last(self):
        return self.k0 + len(self.positions) - 1

    def at_index(self, k):
        """Position at absolute grid index k."""
        j = k - self.k0
        if not 0 <= j < len(self.positions):
            raise CoverageError(f"grid index {k} outside [{self.k0}, "
                                f"{self.k_last}]")
        return self.positions[j]

    def require_coverage(self, interval):
        """Raise CoverageError if a grid step of interval is missing."""
        if not self.k0 <= interval.lo <= interval.hi <= self.k_last:
            raise CoverageError(
                f"sequence covers grid [{self.k0}, {self.k_last}] but the "
                f"check needs {interval}")

    def concat(self, other):
        """Join a sequence that starts at this one's final grid point,
        exactly: the planner starts each window at the previous one's
        last point, taken verbatim."""
        if other.tau != self.tau:
            raise ValueError("sampling step mismatch")
        if other.k0 != self.k_last:
            raise ValueError(f"sequences not contiguous: {self.k_last} vs "
                             f"{other.k0}")
        if other.positions[0].tolist() != self.positions[-1].tolist():
            raise ValueError("sequences disagree at the junction point")
        return PointSequence(
            self.k0, self.tau,
            np.vstack([self.positions, other.positions[1:]]))


# ---------------------------------------------------------------------------
# formula satisfaction

def oracle_satisfies_formula(seq, formula):
    """Check every sub-task of the conjunction against the sequence with
    satisfaction.stl_sat, the package's one satisfaction checker."""
    # looked up on the module at call time, so that a replaced
    # satisfaction.stl_sat (a tracer's wrapper) sees the calls of run and
    # check too
    return all(satisfaction.stl_sat(seq, sub)[0] for sub in formula.subtasks)
