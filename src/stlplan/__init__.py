"""Planning and control toolkit for temporal-logic reach/avoid tasks.

Pipeline: parse a task formula over a box workspace, split it along the
timeline into local tasks, plan timed waypoints with a goal-biased
spatio-temporal tree per local task, wrap the waypoints in an
obstacle-free corridor, and track everything with a smooth trajectory
from a direct-transcription optimizer.
"""

from .stl_core import (
    AtomicProp,
    Box,
    Formula,
    PointSequence,
    Region,
    SubTask,
    TimeInterval,
    Workspace,
    oracle_satisfies_formula,
    parse_formula,
)
from .decomposer import Decomposition, DisjunctiveFSet, LocalTask, decompose
from .satisfaction import SatisfactionPair, stl_sat
from .st_planner import GlobalPlan, PlannerParams, plan_global
from .corridor import SafeCorridor, construct_safe_corridor, safe_cor
from .optimizer import (
    NlpProblem,
    NlpSolution,
    SolverTolerances,
    build_nlp,
    rollout,
    solve_nlp,
    unicycle_model,
)
from .scenario_cli import Scenario, load_scenario, run_pipeline

__all__ = [
    "AtomicProp", "Box", "Formula", "PointSequence", "Region", "SubTask",
    "TimeInterval", "Workspace",
    "oracle_satisfies_formula", "parse_formula",
    "Decomposition", "DisjunctiveFSet", "LocalTask", "decompose",
    "SatisfactionPair", "stl_sat",
    "GlobalPlan", "PlannerParams", "plan_global",
    "SafeCorridor", "construct_safe_corridor", "safe_cor",
    "NlpProblem", "NlpSolution", "SolverTolerances", "build_nlp", "rollout",
    "solve_nlp", "unicycle_model",
    "Scenario", "load_scenario", "run_pipeline",
]
