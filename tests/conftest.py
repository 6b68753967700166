import numpy as np
import pytest

from stlplan.corridor import construct_safe_corridor
from stlplan.decomposer import decompose
from stlplan.optimizer import build_nlp
from stlplan.scenario_cli import load_scenario
from stlplan.st_planner import plan_global
from stlplan.stl_core import parse_formula

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def first_scenario_artifacts():
    """One seeded planning pass of the first shipped scenario, shared by
    the planner, corridor, and optimizer module tests."""
    from dataclasses import replace

    scenario = load_scenario("scenario1")
    dec = decompose(scenario.formula, scenario.tau)
    params = replace(scenario.planner, rng_seed=0)
    plan = plan_global(dec, scenario.x0[:2], scenario.workspace, params,
                       tau=scenario.tau, v_max=scenario.model.speed_limit)
    cor = construct_safe_corridor(plan.waypoints, scenario.workspace,
                                  scenario.corridor_step)
    problem = build_nlp(plan, cor, scenario.workspace, scenario.model,
                        scenario.x0, q_weights=scenario.q_weights,
                        r_weights=scenario.r_weights)
    return {"scenario": scenario, "decomposition": dec, "plan": plan,
            "corridor": cor, "problem": problem}


# scenario3 under formulas with a keep-in always-clause, which no shipped
# formula has: they reach the keep-in branches of the tree's sampling and
# edge tests
KEEP_IN_FORMULAS = ("G[3,5] mu1 & F[0,25] mu2",
                    "F[0,10] G[0,5] mu1 & G[12,16] mu2 & F[30,50] mu4")


@pytest.fixture(scope="session")
def shipped_first_attempts():
    """The plan and corridor of run's first attempt on each shipped
    scenario, and on scenario3 under each keep-in formula, at seeds 0-2:
    {(name, seed): (scenario, plan, corridor)}, where a keep-in case is
    named "scenario3: <formula>"."""
    from dataclasses import replace

    cases = {name: load_scenario(name)
             for name in ("scenario1", "scenario2", "scenario3")}
    base = cases["scenario3"]
    for text in KEEP_IN_FORMULAS:
        cases[f"scenario3: {text}"] = replace(
            base, formula_text=text,
            formula=parse_formula(text, base.workspace, tau=base.tau))
    out = {}
    for name, sc in cases.items():
        dec = decompose(sc.formula, sc.tau)
        for seed in range(3):
            plan = plan_global(dec, sc.x0[:2], sc.workspace,
                               replace(sc.planner, rng_seed=seed),
                               tau=sc.tau, v_max=sc.model.speed_limit)
            cor = construct_safe_corridor(plan.waypoints, sc.workspace,
                                          sc.corridor_step)
            out[name, seed] = (sc, plan, cor)
    return out
