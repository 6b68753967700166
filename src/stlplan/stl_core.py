"""Core types for temporal-logic planning tasks.

Workspace geometry (axis-aligned boxes, obstacles, labeled regions),
time intervals on a sampling grid, a restricted temporal-logic formula
AST with parser and printer, uniformly sampled point sequences, and a
brute-force satisfaction oracle used to cross-check the fast checker.

The formula fragment is a conjunction of clauses, each one of

    F[a,b] atom          eventually
    G[a,b] atom          always
    F[a,b] G[c,d] atom   reach and hold
    G[a,b] F[c,d] atom   recurring visits
    atom U[a,b] atom     until, rewritten as G[a,b] left & F[a,b] right

where an atom is a region label, a negated label, or a parenthesized
conjunction of labels (intersected into a single region at parse time).
The until rewrite is sufficient but not necessary: any sequence
satisfying the rewritten pair satisfies the until, not conversely.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

GRID_TOL = 1e-9

KINDS = ("F", "G", "FG", "GF")


class StlError(Exception):
    """Base class for task-definition and evaluation errors."""


class FormulaSyntaxError(StlError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownRegionError(StlError):
    pass


class IntervalAlignmentError(StlError):
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


def grid_floor(t, tau):
    """Largest grid index k with k*tau <= t (tolerant of float noise)."""
    return int(math.floor(t / tau + GRID_TOL))


# ---------------------------------------------------------------------------
# geometry

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

    @property
    def center(self):
        return np.array([(l + h) / 2.0 for l, h in zip(self.lo, self.hi)])

    def contains(self, p):
        return all(l <= v <= h for v, l, h in zip(p, self.lo, self.hi))

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
        tmin, tmax = 0.0, 1.0
        for i in range(self.dim):
            d = b[i] - a[i]
            if d == 0.0:
                if a[i] < self.lo[i] or a[i] > self.hi[i]:
                    return False
                continue
            t1 = (self.lo[i] - a[i]) / d
            t2 = (self.hi[i] - a[i]) / d
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
            if tmin > tmax:
                return False
        return True

    def sample(self, rng):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + rng.random(self.dim) * (hi - lo)


@dataclass(frozen=True)
class Region:
    """A named closed box region of the workspace."""

    name: str
    box: Box


@dataclass(frozen=True)
class Workspace:
    """Bounded planar workspace with box obstacles and labeled regions."""

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

    def region(self, name):
        try:
            return self._table[name]
        except KeyError:
            raise UnknownRegionError(f"unknown region {name!r}") from None

    def in_obstacle(self, p):
        return any(o.contains(p) for o in self.obstacles)

    def point_free(self, p):
        return self.bounds.contains(p) and not self.in_obstacle(p)

    def segment_collides(self, a, b):
        """True when the segment touches any obstacle (closed test)."""
        return any(o.segment_intersects(a, b) for o in self.obstacles)

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
        same float operations, run on all segment-obstacle pairs."""
        A = np.asarray(A, dtype=float)[:, None, :]
        D = np.asarray(B, dtype=float)[:, None, :] - A
        lo, hi = self._obs_lo, self._obs_hi
        flat = D == 0.0
        # an axis the segment does not move along must pass through the
        # slab; the others clip the parameter interval [tmin, tmax]
        hit = ~np.any(flat & ((A < lo) | (A > hi)), axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            T1 = (lo - A) / D
            T2 = (hi - A) / D
        tmin = np.zeros(hit.shape)
        tmax = np.ones(hit.shape)
        for i in range(D.shape[2]):
            swap = T1[..., i] > T2[..., i]
            t1 = np.where(swap, T2[..., i], T1[..., i])
            t2 = np.where(swap, T1[..., i], T2[..., i])
            move = ~flat[..., i]
            tmin = np.where(move & (t1 > tmin), t1, tmin)
            tmax = np.where(move & (t2 < tmax), t2, tmax)
        return (hit & ~(tmin > tmax)).any(axis=1)

    def sample_free(self, rng, max_tries=1000):
        for _ in range(max_tries):
            p = self.bounds.sample(rng)
            if not self.in_obstacle(p):
                return p
        raise StlError("could not sample a free point; workspace nearly full")


# ---------------------------------------------------------------------------
# time intervals

@dataclass(frozen=True)
class TimeInterval:
    """Closed interval [lo, hi] of nonnegative times."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (0.0 <= self.lo <= self.hi < math.inf):
            raise ValueError(f"bad time interval [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    def minkowski(self, other):
        return TimeInterval(self.lo + other.lo, self.hi + other.hi)

    def interior_contains(self, t):
        return self.lo < t < self.hi

    def contains_interval(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def grid_indices(self, tau):
        """Grid indices k with lo <= k*tau <= hi, in increasing order."""
        k0 = grid_ceil(self.lo, tau)
        k1 = grid_floor(self.hi, tau)
        return range(k0, k1 + 1)

    def __str__(self):
        return f"[{_fmt_num(self.lo)},{_fmt_num(self.hi)}]"


def _fmt_num(v):
    if v == int(v):
        return str(int(v))
    return repr(v)


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
        """The span of times whose samples the clause can constrain."""
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
    """Conjunction of sub-tasks, with source clauses kept for printing."""

    subtasks: tuple
    clauses: tuple

    def __post_init__(self):
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if not self.subtasks:
            raise ValueError("empty formula")

    @property
    def horizon(self):
        """Largest time any sub-task constrains."""
        return max(s.active_interval().hi for s in self.subtasks)

    def validate(self, tau):
        """Check grid alignment of every interval endpoint and pairwise
        disjointness of nested active-interval interiors."""
        for sub in self.subtasks:
            ivals = [sub.outer] + ([sub.inner] if sub.inner else [])
            for iv in ivals:
                for endpoint in (iv.lo, iv.hi):
                    if snap_index(endpoint, tau) is None:
                        raise IntervalAlignmentError(
                            f"endpoint {endpoint} of {sub} is not a multiple "
                            f"of the sampling step {tau}")
        nested = [s for s in self.subtasks if s.nested]
        for i in range(len(nested)):
            for j in range(i + 1, len(nested)):
                a = nested[i].active_interval()
                b = nested[j].active_interval()
                if max(a.lo, b.lo) < min(a.hi, b.hi):
                    raise NestedOverlapError(
                        f"nested sub-tasks {nested[i]} and {nested[j]} have "
                        f"overlapping active intervals")

    def __str__(self):
        return pretty(self)


# ---------------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z_]\w*)|([!&\[\](),]))")


def is_identifier(name):
    """True when the formula tokenizer reads name as one identifier: a
    letter or underscore, then letters, digits or underscores, and none
    of the operators F, G and U."""
    m = _TOKEN_RE.fullmatch(name)
    return (m is not None and m.group(2) == name
            and name not in ("F", "G", "U"))


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            word = m.group(2)
            kind = "op" if word in ("F", "G", "U") else "ident"
            tokens.append((kind, word, m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, workspace):
        self.tokens = _tokenize(text)
        self.ws = workspace
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {tok[1]!r}" if tok[1] else
                f"expected {kind}, found end of input", tok[2])
        self.i += 1
        return tok

    def parse(self):
        clauses = [self.clause()]
        while self.peek()[0] == "&":
            self.take()
            clauses.append(self.clause())
        tok = self.peek()
        if tok[0] != "end":
            raise FormulaSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        subtasks = []
        for cl in clauses:
            subtasks.extend(_clause_subtasks(cl))
        return Formula(tuple(subtasks), tuple(clauses))

    def clause(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] in ("F", "G"):
            return self.temporal_clause()
        left = self.atom()
        op = self.take("op")
        if op[1] != "U":
            raise FormulaSyntaxError(f"expected U, found {op[1]!r}", op[2])
        ival = self.interval()
        right = self.atom()
        return ("until", left, ival, right)

    def temporal_clause(self):
        op1 = self.take("op")
        iv1 = self.interval()
        tok = self.peek()
        if tok[0] == "op" and tok[1] in ("F", "G"):
            op2 = self.take("op")
            if op2[1] == op1[1]:
                raise FormulaSyntaxError(
                    f"{op1[1]} may not nest another {op2[1]}", op2[2])
            iv2 = self.interval()
            nxt = self.peek()
            if nxt[0] == "op" and nxt[1] in ("F", "G"):
                raise FormulaSyntaxError("nesting deeper than two operators",
                                         nxt[2])
            prop = self.atom()
            return ("sub", SubTask(op1[1] + op2[1], iv1, iv2, prop))
        prop = self.atom()
        return ("sub", SubTask(op1[1], iv1, None, prop))

    def interval(self):
        self.take("[")
        lo = float(self.take("num")[1])
        self.take(",")
        hi = float(self.take("num")[1])
        closing = self.take("]")
        if hi < lo:
            raise FormulaSyntaxError(f"interval upper bound {hi} below lower "
                                     f"bound {lo}", closing[2])
        return TimeInterval(lo, hi)

    def atom(self):
        tok = self.peek()
        if tok[0] == "!":
            self.take()
            name = self.take("ident")
            return AtomicProp(self.ws.region(name[1]), negated=True)
        if tok[0] == "(":
            self.take()
            names = [self.take("ident")]
            self.take("&")
            names.append(self.take("ident"))
            while self.peek()[0] == "&":
                self.take()
                names.append(self.take("ident"))
            close = self.take(")")
            regions = [self.ws.region(n[1]) for n in names]
            box = regions[0].box
            for r in regions[1:]:
                box = box.intersect(r.box)
                if box is None:
                    raise FormulaSyntaxError(
                        "regions " + " & ".join(n[1] for n in names) +
                        " have empty intersection", close[2])
            combined = Region("&".join(n[1] for n in names), box)
            return AtomicProp(combined)
        name = self.take("ident")
        return AtomicProp(self.ws.region(name[1]))


def _clause_subtasks(clause):
    if clause[0] == "sub":
        return [clause[1]]
    _, left, ival, right = clause
    # Sufficient rewrite: hold the left atom over the whole window and
    # reach the right atom inside it.
    return [SubTask("G", ival, None, left), SubTask("F", ival, None, right)]


def parse_formula(text, workspace, tau=None):
    """Parse a task formula against a workspace region table.

    When tau is given the parsed formula is validated for grid alignment
    and nested-interval disjointness.
    """
    formula = _Parser(text, workspace).parse()
    if tau is not None:
        formula.validate(tau)
    return formula


def pretty(formula):
    """Render a formula to text; parsing the result reproduces the AST."""
    parts = []
    for cl in formula.clauses:
        if cl[0] == "sub":
            parts.append(_pretty_sub(cl[1]))
        else:
            _, left, ival, right = cl
            parts.append(f"{_pretty_atom(left)} U{ival} {_pretty_atom(right)}")
    return " & ".join(parts)


def _pretty_sub(sub):
    if sub.nested:
        return (f"{sub.kind[0]}{sub.outer} {sub.kind[1]}{sub.inner} "
                f"{_pretty_atom(sub.prop)}")
    return f"{sub.kind}{sub.outer} {_pretty_atom(sub.prop)}"


def _pretty_atom(prop):
    if "&" in prop.region.name:
        return "(" + " & ".join(prop.region.name.split("&")) + ")"
    return prop.label


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

    def covers(self, interval):
        """True when every grid point inside the interval is present."""
        ks = interval.grid_indices(self.tau)
        if len(ks) == 0:
            return True
        return self.k0 <= ks.start and ks.stop - 1 <= self.k_last

    def require_coverage(self, interval):
        if not self.covers(interval):
            raise CoverageError(
                f"sequence covers grid [{self.k0}, {self.k_last}] but the "
                f"check needs {interval}")

    def concat(self, other):
        """Join a sequence that starts at this one's final grid point."""
        if other.tau != self.tau:
            raise ValueError("sampling step mismatch")
        if other.k0 != self.k_last:
            raise ValueError(f"sequences not contiguous: {self.k_last} vs "
                             f"{other.k0}")
        if not np.allclose(other.positions[0], self.positions[-1],
                           atol=1e-12):
            raise ValueError("sequences disagree at the junction point")
        return PointSequence(
            self.k0, self.tau,
            np.vstack([self.positions, other.positions[1:]]))


# ---------------------------------------------------------------------------
# brute-force oracle

def oracle_satisfies(seq, sub):
    """Brute-force check of one sub-task over a uniform sequence.

    Quantifiers range over the grid points inside each interval; nested
    windows are anchored at the outer witness time. Serves as the
    independent reference for the fast satisfaction checker.
    """
    seq.require_coverage(sub.active_interval())
    tau = seq.tau
    outer_ks = sub.outer.grid_indices(tau)
    if sub.kind == "F":
        return any(sub.prop.holds(seq.at_index(k)) for k in outer_ks)
    if sub.kind == "G":
        return all(sub.prop.holds(seq.at_index(k)) for k in outer_ks)
    if sub.kind == "FG":
        for k1 in outer_ks:
            window = _window_indices(k1, sub.inner, tau)
            if all(sub.prop.holds(seq.at_index(k2)) for k2 in window):
                return True
        return False
    # GF
    for k1 in outer_ks:
        window = _window_indices(k1, sub.inner, tau)
        if not any(sub.prop.holds(seq.at_index(k2)) for k2 in window):
            return False
    return True


def _window_indices(k1, inner, tau):
    t1 = k1 * tau
    lo = grid_ceil(t1 + inner.lo, tau)
    hi = grid_floor(t1 + inner.hi, tau)
    return range(lo, hi + 1)


def oracle_satisfies_formula(seq, formula):
    """Check every sub-task of the conjunction against the sequence."""
    return all(oracle_satisfies(seq, sub) for sub in formula.subtasks)
