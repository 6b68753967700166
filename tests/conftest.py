import numpy as np
import pytest

from stlplan.corridor import construct_safe_corridor
from stlplan.decomposer import decompose
from stlplan.optimizer import build_nlp
from stlplan.scenario_cli import load_scenario
from stlplan.st_planner import plan_global

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


@pytest.fixture(scope="session")
def shipped_first_attempts():
    """The plan and corridor of run's first attempt on each shipped
    scenario at seeds 0-2: {(name, seed): (scenario, plan, corridor)}."""
    from dataclasses import replace

    out = {}
    for name in ("scenario1", "scenario2", "scenario3"):
        sc = load_scenario(name)
        dec = decompose(sc.formula, sc.tau)
        for seed in range(3):
            plan = plan_global(dec, sc.x0[:2], sc.workspace,
                               replace(sc.planner, rng_seed=seed),
                               tau=sc.tau, v_max=sc.model.speed_limit)
            cor = construct_safe_corridor(plan.waypoints, sc.workspace,
                                          sc.corridor_step)
            out[name, seed] = (sc, plan, cor)
    return out
