"""Timeline decomposition of a task formula into local tasks.

The planning horizon is cut at the upper ends of sub-task active
intervals, skipping candidates that fall strictly inside the active
interval of a nested (FG/GF) sub-task so those stay whole; like every
interval, the cuts are grid steps.  Plain F and G sub-tasks that span
several cut windows are split at the cuts: every piece of a G must
hold, while an F spanning cuts turns into a disjunctive set of reach
pieces of which one must be satisfied.  A local task is the planner's
whole input for its window: the pieces that must hold there and the
sets whose final piece lies there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stl_core import StlError, SubTask, TimeInterval, seconds


@dataclass(frozen=True)
class LocalTask:
    """Sub-tasks whose active intervals fit one cut window, and the
    disjunctive sets (choices) whose final piece fits it."""

    index: int
    window: TimeInterval
    subtasks: tuple
    choices: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "subtasks", tuple(self.subtasks))
        object.__setattr__(self, "choices", tuple(self.choices))


@dataclass(frozen=True)
class DisjunctiveFSet:
    """Pieces of a cut-spanning reach sub-task; one of them must hold.

    The final piece acts as the fallback: a planner commits to it when
    no earlier piece was satisfied along the way.
    """

    origin: SubTask
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(self.pieces) < 2:
            raise ValueError("a disjunctive set needs at least two pieces")

    @property
    def final_piece(self):
        return self.pieces[-1]


@dataclass(frozen=True)
class Decomposition:
    """The local tasks of a formula between consecutive cut steps; tau
    prints the cuts in seconds."""

    formula: object
    tau: float
    cuts: tuple
    local_tasks: tuple
    disjunctive_sets: tuple

    def guard_subtasks(self):
        """Every assigned always-piece, across all local tasks."""
        return tuple(s for task in self.local_tasks for s in task.subtasks
                     if s.kind == "G")

    def explain(self):
        """Human-readable decomposition report."""
        lines = []
        cuts = ", ".join(seconds(c, self.tau) for c in self.cuts)
        horizon = seconds(self.formula.horizon, self.tau)
        lines.append(f"horizon {horizon} s, cut times ({cuts})")
        for task in self.local_tasks:
            lines.append(f"local task {task.index} over {task.window}:")
            if not task.subtasks:
                lines.append("  (no assigned sub-tasks)")
            for sub in task.subtasks:
                note = "kept whole" if sub.nested else "must hold"
                lines.append(f"  {sub}  [{note}]")
        if self.disjunctive_sets:
            lines.append("disjunctive reach choices (one piece each):")
            index = {d: task.index for task in self.local_tasks
                     for d in task.choices}
            for d in self.disjunctive_sets:
                alts = " | ".join(str(p) for p in d.pieces)
                lines.append(f"  {d.origin} -> {alts}")
                lines.append(f"    fallback piece {d.final_piece} in local "
                             f"task {index[d]}")
        return "\n".join(lines)


def compute_cuts(formula):
    """Cut steps: zero plus every active-interval upper end that does not
    fall strictly inside a nested sub-task's active interval."""
    nested = [s.active_interval() for s in formula.subtasks if s.nested]
    candidates = {s.active_interval().hi for s in formula.subtasks}
    kept = {c for c in candidates
            if not any(n.interior_contains(c) for n in nested)}
    cuts = tuple(sorted(kept | {0}))
    # The horizon itself is never interior to a nested interval, so the
    # last cut always equals the horizon.
    assert cuts[-1] == formula.horizon
    return cuts


def split_subtask(sub, cuts):
    """Split one sub-task at the cut steps inside its active interval.

    Returns a list of pieces (all of which must hold), or a
    DisjunctiveFSet when a reach sub-task spans several windows.  Nested
    sub-tasks are never split.
    """
    ai = sub.active_interval()
    bounds = [ai.lo] + [c for c in cuts if ai.interior_contains(c)] + [ai.hi]
    if len(bounds) == 2:
        return [sub]
    if sub.nested:
        raise StlError(f"cut at {seconds(bounds[1], ai.tau)} s splits "
                       f"nested sub-task {sub}")
    pieces = [SubTask(sub.kind, TimeInterval(a, b, ai.tau), None, sub.prop)
              for a, b in zip(bounds, bounds[1:])]
    if sub.kind == "F":
        return DisjunctiveFSet(sub, tuple(pieces))
    return pieces


def decompose(formula, tau):
    """Split a formula along the timeline into per-window local tasks.

    The windows are intervals of grid steps of the sampling period tau.
    Pieces of split G sub-tasks and all unsplit sub-tasks are assigned
    to the cut window that contains their active interval (earliest
    window on boundary ties); each cut-spanning F sub-task becomes a
    disjunctive set, filed as a choice of the window of its final piece,
    where the planner resolves it.
    """
    if formula.horizon == 0:
        raise StlError("task constrains only time zero; nothing to plan")
    cuts = compute_cuts(formula)
    windows = [TimeInterval(a, b, tau) for a, b in zip(cuts[:-1], cuts[1:])]
    assigned = [[] for _ in windows]
    choices = [[] for _ in windows]
    disjunctive = []

    def window_of(piece):
        ai = piece.active_interval()
        for i, w in enumerate(windows):
            if w.contains_interval(ai):
                return i
        raise AssertionError(f"piece {piece} fits no cut window")

    for sub in formula.subtasks:
        result = split_subtask(sub, cuts)
        if isinstance(result, DisjunctiveFSet):
            disjunctive.append(result)
            choices[window_of(result.final_piece)].append(result)
            continue
        for piece in result:
            assigned[window_of(piece)].append(piece)
    tasks = tuple(LocalTask(i + 1, w, assigned[i], choices[i])
                  for i, w in enumerate(windows))
    return Decomposition(formula, tau, cuts, tasks, tuple(disjunctive))
