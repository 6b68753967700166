import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import xml.etree.ElementTree
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import count_calls
from stlplan import optimizer, scenario_cli
from stlplan.optimizer import NlpSolution, SolverTolerances
from stlplan.scenario_cli import (BUILTIN_SCENARIOS, ConfigError, RunReport,
                                  corridor_csv_text, emit_svg,
                                  load_scenario, main, pairs_csv_text,
                                  plan_csv_text, read_traj_csv, run_pipeline,
                                  traj_csv_text)
from stlplan.st_planner import GlobalPlan
from stlplan.stl_core import PointSequence, StlError, parse_formula


def _tiny_data():
    """A small, quickly solvable scenario used across the CLI tests."""
    return {
        "name": "tiny",
        "tau": 0.5,
        "workspace": {
            "bounds": [[0.0, 4.0], [0.0, 4.0]],
            "obstacles": [],
            "regions": {"goal": [[2.0, 3.0], [2.0, 3.0]]},
        },
        "formula": "F[0,2] goal",
        "x0": [0.5, 0.5, 0.0],
        "dynamics": {"model": "unicycle"},
        "planner": {"time_step": 0.25, "max_iters_per_tree": 4000,
                    "max_restarts": 10},
        "seed": 0,
    }


def _readme_scenario():
    """The scenario JSON block of the README's "Scenario files" section."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Scenario files", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def _write_scenario(tmp_path, data, name="tiny.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture()
def tiny_path(tmp_path):
    return _write_scenario(tmp_path, _tiny_data())


# ---------------------------------------------------------------------------
# loading and validation

def test_first_builtin_scenario_values():
    s = load_scenario("scenario1")
    assert s.name == "scenario1"
    assert s.tau == 0.1
    assert np.allclose(s.x0, [0.5, 0.5, math.pi / 3])
    assert s.horizon_steps == 600
    assert len(s.workspace.obstacles) == 5
    assert sorted(r.name for r in s.workspace.regions) == \
        [f"mu{i}" for i in range(1, 7)]
    assert s.planner.goal_bias == 0.3
    assert s.model.input_lo == (-4.0, -math.pi / 3)
    assert s.model.input_hi == (4.0, math.pi / 3)
    assert s.q_weights == (1.0, 1.0)
    assert s.r_weights == (1.0, 1.0, 0.1)
    assert s.corridor_step == 0.05
    assert s.seed == 0


def test_builtin_names_accept_a_json_suffix():
    a = load_scenario("scenario2")
    b = load_scenario("scenario2.json")
    assert a.formula_text == b.formula_text


def test_every_builtin_loads_and_round_trips_its_formula():
    horizons = {"scenario1": 600, "scenario2": 600, "scenario3": 500}
    for name in BUILTIN_SCENARIOS:
        s = load_scenario(name)
        assert parse_formula(s.formula_text, s.workspace, tau=s.tau) == \
            s.formula
        assert s.horizon_steps == s.formula.horizon == horizons[name]


def _shipped_data(name):
    base = Path(scenario_cli.__file__).parent / "scenarios"
    return json.loads((base / f"{name}.json").read_text())


def test_a_reach_region_inside_an_obstacle_is_rejected(tmp_path, capsys):
    # scenario3 with one obstacle over its upper part: mu2 lies inside it,
    # so no free point reaches mu2; planning used to grind through every
    # restart before failing
    data = _shipped_data("scenario3")
    data["workspace"]["obstacles"] = [[[0.0, 10.0], [1.5, 6.0]]]
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ConfigError, match=r"atom 'mu2' of F\[0,25\] mu2 "
                                          r"lies inside obstacle 0"):
        load_scenario(path)
    assert main(["validate", str(path)]) == 4
    assert "mu2" in capsys.readouterr().err


@pytest.mark.parametrize("formula, box, ok", [
    ("F[0,2] goal", [[2.0, 3.0], [2.0, 3.0]], False),   # exactly the region
    ("G[0,2] goal", [[1.0, 3.5], [1.0, 3.5]], False),   # keep-in, inside
    ("F[0,2] (goal & wide)", [[2.0, 3.0], [2.0, 3.0]], False),
    ("G[0,2] !goal", [[2.0, 3.0], [2.0, 3.0]], True),   # negated
    ("F[0,2] wide", [[2.0, 3.0], [2.0, 3.0]], True),    # unused region
    ("F[0,2] goal", [[2.0, 3.0], [2.0, 2.9]], True),    # sticks out
], ids=["equal", "keep-in", "conjunction", "negated", "unused", "partly"])
def test_only_unsatisfiable_atoms_inside_an_obstacle_are_rejected(
        tmp_path, formula, box, ok):
    data = _tiny_data()
    data["workspace"]["regions"]["wide"] = [[1.0, 3.5], [1.0, 3.5]]
    data["workspace"]["obstacles"] = [box]
    data["formula"] = formula
    path = _write_scenario(tmp_path, data)
    if ok:
        load_scenario(path)
    else:
        with pytest.raises(ConfigError, match="inside obstacle 0"):
            load_scenario(path)


def test_unknown_sources_are_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario("scenario9")
    with pytest.raises(ConfigError):
        load_scenario("no/such/file.json")
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(str(tmp_path))  # a directory


@pytest.mark.parametrize("mutate, hint", [
    (lambda d: d.pop("tau"), "missing"),
    (lambda d: d.update(tau=-0.1), "tau"),
    (lambda d: d["workspace"].update(bounds=[[0, 4]]), "bounds"),
    (lambda d: d["workspace"].update(bounds=[[4, 0], [0, 4]]),
     "workspace.bounds[0] must be [lo, hi] with lo < hi"),
    (lambda d: d["workspace"]["obstacles"].append([[3, 5], [0, 1]]),
     "obstacle"),
    (lambda d: d["workspace"]["regions"].update(F=[[0, 1], [0, 1]]),
     "operator"),
    (lambda d: d.update(x0=[0.5, 0.5]), "x0"),
    (lambda d: d.update(dynamics={"model": "bicycle"}), "unicycle"),
    (lambda d: d["planner"].update(stride=3), "planner"),
    (lambda d: d.update(solver={"learning_rate": 0.1}), "solver"),
    (lambda d: d.update(solver={"q_weights": [1.0, 1.0, 1.0]}),
     "q_weights"),
    (lambda d: d.update(corridor={"step": 0.0}), "corridor"),
    (lambda d: d.update(workspace=[]), "workspace"),
    (lambda d: d["workspace"].update(regions=[[[0, 1], [0, 1]]]), "regions"),
    (lambda d: d["workspace"].update(walls=[]), "walls"),
    (lambda d: d["dynamics"].update(v=5), "dynamics.v"),
    (lambda d: d["planner"].update(step="abc"), "planner.step"),
    (lambda d: d.update(x0="abc"), "x0 must be a list"),
    (lambda d: d.update(tau=True), "tau must be a positive number"),
    (lambda d: d.update(sovler={}), "sovler"),
    (lambda d: d.update(corridor={"stride": 0.1}), "unknown corridor"),
    (lambda d: d["dynamics"].update(v_bounds=[-1, 1]), "v_bounds"),
    (lambda d: d.update(solver={"q_weights": [1.0, -1.0]}), "q_weights[1]"),
    (lambda d: d.update(solver={"r_weights": [1.0, 1.0, -0.1]}),
     "r_weights[2] must be a number >= 0"),
    (lambda d: d["workspace"]["regions"].update({"a&b <x>": [[0, 1], [0, 1]]}),
     "workspace.regions key 'a&b <x>' is not a formula identifier"),
    (lambda d: d["workspace"]["regions"].update({"1st": [[0, 1], [0, 1]]}),
     "workspace.regions key '1st'"),
    (lambda d: d["workspace"]["regions"].update({"a b": [[0, 1], [0, 1]]}),
     "workspace.regions key 'a b'"),
    (lambda d: d["workspace"]["regions"].update({" goal2": [[0, 1], [0, 1]]}),
     "workspace.regions key ' goal2'"),
    (lambda d: d["workspace"]["regions"].update({"": [[0, 1], [0, 1]]}),
     "workspace.regions key ''"),
    (lambda d: d["planner"].update(time_overshoot=0.2), "time_overshoot"),
    (lambda d: d["planner"].update(time_step=None),
     "planner.time_step must be a positive number"),
])
def test_malformed_scenarios_are_rejected(tmp_path, mutate, hint):
    data = _tiny_data()
    mutate(data)
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert hint.lower() in str(err.value).lower()


def test_readme_scenario_loads_and_shows_the_defaults(tmp_path):
    data = _readme_scenario()
    full = load_scenario(_write_scenario(tmp_path, data, "full.json"))
    assert full.model.input_lo == tuple(
        b[0] for b in (data["dynamics"]["v"], data["dynamics"]["omega"]))
    assert full.tolerances == SolverTolerances()
    for key in ("planner", "solver", "corridor"):
        del data[key]
    data["dynamics"] = {"model": "unicycle"}
    bare = load_scenario(_write_scenario(tmp_path, data, "bare.json"))
    for attr in ("planner", "tolerances", "q_weights", "r_weights",
                 "corridor_step"):
        assert getattr(full, attr) == getattr(bare, attr), attr
    assert full.model.input_lo == bare.model.input_lo
    assert full.model.input_hi == bare.model.input_hi


def test_x0_inside_an_obstacle_is_rejected(tmp_path):
    data = _tiny_data()
    data["workspace"]["obstacles"] = [[[0.2, 0.8], [0.2, 0.8]]]
    with pytest.raises(ConfigError):
        load_scenario(_write_scenario(tmp_path, data))


def _scenario3_text():
    return (Path(scenario_cli.__file__).parent / "scenarios" /
            "scenario3.json").read_text()


@pytest.mark.parametrize("text, hint", [
    ("{not json", "invalid JSON"),
    # json.loads alone keeps the last of a duplicated key, at any level
    (_scenario3_text().replace('"regions": {',
                               '"regions": {"mu1": [[0, 1], [0, 1]], ', 1),
     "duplicate JSON key 'mu1'"),
    (_scenario3_text().replace('{', '{"tau": 0.5, ', 1),
     "duplicate JSON key 'tau'"),
    # deeper than the decoder's recursion limit
    ("[" * 100000 + "]" * 100000, "invalid JSON"),
], ids=["syntax", "duplicate-region", "duplicate-tau", "deep"])
def test_invalid_json_is_a_config_error(tmp_path, capsys, text, hint):
    path = tmp_path / "broken.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=hint):
        load_scenario(path)
    assert main(["validate", str(path)]) == 4
    assert f"configuration error: {hint}" in capsys.readouterr().err


def test_misaligned_formula_fails_at_load(tmp_path):
    data = _tiny_data()
    data["formula"] = "F[0,0.3] goal"
    path = _write_scenario(tmp_path, data)
    with pytest.raises(StlError):
        load_scenario(path)


def test_an_overflowing_interval_literal_is_a_config_error(tmp_path,
                                                           capsys):
    # 400 nines read as an infinite float: a syntax error at the
    # literal's position, exit 4, not a traceback
    data = _tiny_data()
    data["formula"] = "F[0," + "9" * 400 + "] goal"
    path = _write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 4
    assert "is too large (at position 4)" in capsys.readouterr().err


def test_cli_prints_cut_steps_in_seconds_without_float_noise(tmp_path,
                                                             capsys):
    # the first hold ends at step 1 + 2 = 3, printed 0.3, not as the
    # float sum 0.1 + 0.2 = 0.30000000000000004
    data = json.loads(_scenario3_text())
    data["formula"] = "F[0,0.1] G[0,0.2] mu1 & F[0.3,0.7] mu2"
    path = _write_scenario(tmp_path, data)
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("horizon 0.7 s, cut times (0, 0.3, 0.7)\n"
                          "local task 1 over [0,0.3]:\n")
    assert "0.30000000000000004" not in out
    # and a second hold that starts where the first ends is valid
    data["formula"] = "F[0,0.1] G[0,0.2] mu1 & F[0.3,0.4] G[0,0.1] mu3"
    path = _write_scenario(tmp_path, data)
    assert main(["validate", str(path)]) == 0
    assert "horizon 0.5 s, 2 local tasks" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# artifact serialization

def test_traj_csv_round_trips_states_and_inputs(tmp_path):
    rng = np.random.default_rng(5)
    states = rng.uniform(-2, 9, size=(6, 3))
    inputs = rng.uniform(-3, 3, size=(5, 2))
    sol = NlpSolution(states=states, inputs=inputs, cost=0.0,
                      max_violation=0.0, outer_iterations=1,
                      converged=True, message="converged")
    text = traj_csv_text(sol, 0.5)
    path = tmp_path / "traj.csv"
    path.write_text(text)
    positions, headings, parsed_inputs = read_traj_csv(path, 0.5)
    assert np.array_equal(positions, states[:, :2])
    expected = [math.remainder(t, 2 * math.pi) for t in states[:, 2]]
    assert np.array_equal(headings, expected)
    assert np.array_equal(parsed_inputs, inputs)
    assert text.splitlines()[0] == "k,t,x,y,theta,v,omega"
    assert text.splitlines()[-1].endswith(",")  # final row has no inputs


def test_read_traj_csv_rejects_foreign_headers(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_traj_csv(path, 0.5)


def test_csv_text_uses_round_trippable_floats(first_scenario_artifacts):
    plan = first_scenario_artifacts["plan"]
    text = plan_csv_text(plan)
    lines = text.splitlines()
    assert lines[0] == "k,t,x,y"
    assert len(lines) == len(plan.waypoints) + 1
    cells = lines[3].split(",")
    assert float(cells[2]) == plan.waypoints.positions[2][0]
    assert float(cells[3]) == plan.waypoints.positions[2][1]
    pair_lines = pairs_csv_text(plan).splitlines()
    assert pair_lines[0] == "k,t,region"
    assert len(pair_lines) == len(plan.pairs) + 1


def test_svg_variants_gain_layers(first_scenario_artifacts):
    scenario = first_scenario_artifacts["scenario"]
    plan = first_scenario_artifacts["plan"]
    cor = first_scenario_artifacts["corridor"]
    traj = plan.waypoints.positions
    full = emit_svg(scenario, plan, cor, traj)
    assert full.startswith("<svg") and full.rstrip().endswith("</svg>")
    xml.etree.ElementTree.fromstring(full)  # well-formed XML
    for name in ("mu1", "mu6"):
        assert f">{name}</text>" in full
    boxes = len(cor.runs()[1])
    # bounds + obstacles + regions + one dashed rect per distinct box
    assert full.count("<rect") == 1 + 5 + 6 + boxes
    assert full.count("stroke-dasharray") == boxes
    assert full.count("polyline") == 2  # the plan and the trajectory
    assert full.count("<circle") == len(plan.pairs) + 1  # pairs + x0
    assert "#c0392b" in full
    assert emit_svg(scenario, plan, cor, traj) == full


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_satisfies_the_tiny_scenario(tiny_path, tmp_path):
    scenario = load_scenario(tiny_path)
    out = tmp_path / "out"
    report = run_pipeline(scenario, seed=0, out_dir=out)
    assert report.status == "satisfied"
    assert report.satisfied
    assert report.exit_code() == 0
    for name in ("plan.csv", "pairs.csv", "corridor.csv", "traj.csv",
                 "figure.svg", "report.txt"):
        assert (out / name).exists()
    assert "status: satisfied" in (out / "report.txt").read_text()
    positions, _, inputs = read_traj_csv(out / "traj.csv", scenario.tau)
    assert len(positions) == scenario.horizon_steps + 1
    assert len(inputs) == scenario.horizon_steps
    m = report.metrics
    assert m["satisfied"] and m["collision_free"]
    assert m["inputs_within_bounds"]
    assert m["dynamics_violation"] <= 1e-4
    assert m["attempts"] >= 1


def test_a_keep_in_always_clause_that_starts_late_plans_and_verifies(
        tmp_path):
    # scenario3 with G[3,5] mu1 from an x0 outside mu1: the planner must
    # enter mu1 by 3 s and wait there for the guard to hold; the zero-gap
    # patrol G[3,5] F[0,0] mu1 asks for mu1 at the same grid times
    data = _shipped_data("scenario3")
    for formula in ("G[3,5] mu1", "G[3,5] F[0,0] mu1"):
        data["formula"] = formula
        path = _write_scenario(tmp_path, data, "keep_in.json")
        out = tmp_path / "out"
        report = run_pipeline(load_scenario(path), seed=0, out_dir=out)
        assert report.status == "satisfied", formula
        assert report.metrics["satisfied"]
        pairs = (out / "pairs.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in pairs] == \
            [str(k) for k in range(30, 51)], formula
        assert main(["check", str(out / "traj.csv"), str(path)]) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("formula", [
    "F[0,5] mu1 & G[6,10] !mu1",
    "F[0,3] G[0,2] mu1 & G[6,10] !mu1",
    "G[0,4] F[0,2] mu4 & G[7,10] !mu4",
    "F[0,3] G[0,1] mu1 & F[4,5] !mu1 & F[6,8] mu1"])
def test_a_window_that_must_leave_before_a_keep_out_plans_and_verifies(
        tmp_path, formula, seed):
    # after its last goal the window must leave that goal's region before
    # a keep-out starts: the window's end is reached like any other goal;
    # a negated reach leaves its region the same way, as a goal of its own
    data = _shipped_data("scenario3")
    data["formula"] = formula
    data["planner"]["max_restarts"] = 5
    path = _write_scenario(tmp_path, data, "keep_out.json")
    out = tmp_path / "out"
    report = run_pipeline(load_scenario(path), seed=seed, out_dir=out)
    assert report.status == "satisfied"
    # pairs.csv certifies every atom of the formula, negated ones too
    pairs = (out / "pairs.csv").read_text().splitlines()[1:]
    assert {line.split(",")[2] for line in pairs} == \
        set(re.findall(r"!?mu\d", formula))
    assert main(["check", str(out / "traj.csv"), str(path)]) == 0


def test_one_factorization_per_inner_iteration_of_the_pipeline(
        tiny_path, tmp_path, monkeypatch):
    # perfbench counts optimizer.splu calls as Gauss-Newton iterations
    calls = count_calls(monkeypatch, optimizer, "splu")
    report = run_pipeline(load_scenario(tiny_path), seed=0, out_dir=tmp_path)
    inner = sum(e["inner_iterations"] for a in report.attempts
                if a.solution is not None for e in a.solution.log)
    assert report.satisfied
    assert len(calls) == inner > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_keeps_the_plan_inside_an_always_region(tmp_path, seed):
    # a non-negated G clause: every tree edge must stay in the keep-in
    # box, so every waypoint of plan.csv lies inside it
    data = _tiny_data()
    data["workspace"]["regions"]["safe"] = [[0.0, 3.5], [0.0, 3.5]]
    data["formula"] = "G[0,4] safe & F[0,2] goal"
    scenario = load_scenario(_write_scenario(tmp_path, data))
    out = tmp_path / "out"
    report = run_pipeline(scenario, seed=seed, out_dir=out)
    assert report.status == "satisfied", report.error
    rows = (out / "plan.csv").read_text().splitlines()[1:]
    assert len(rows) == scenario.horizon_steps + 1 == 9
    for row in rows:
        x, y = map(float, row.split(",")[2:])
        assert 0.0 <= x <= 3.5 and 0.0 <= y <= 3.5, row


def test_unreachable_goal_fails_the_planning_stage(tmp_path):
    data = _tiny_data()
    data["workspace"]["obstacles"] = [
        [[1.5, 2.9], [1.5, 1.7]], [[1.5, 2.9], [2.7, 2.9]],
        [[1.5, 1.7], [1.7, 2.7]], [[2.7, 2.9], [1.7, 2.7]]]
    data["workspace"]["regions"] = {"goal": [[2.0, 2.4], [2.0, 2.4]]}
    data["planner"] = {"time_step": 0.25, "max_iters_per_tree": 150,
                       "max_restarts": 1}
    path = _write_scenario(tmp_path, data)
    out = tmp_path / "out"
    report = run_pipeline(load_scenario(path), seed=0, out_dir=out)
    assert report.status == "failed:plan"
    assert report.exit_code() == 3
    assert report.metrics["attempts"] == 1  # replanning cannot help here
    text = (out / "report.txt").read_text()
    assert "status: failed:plan" in text
    # the starved tree names its goal's region
    assert "without reaching goal" in text
    assert not (out / "traj.csv").exists()


def test_a_failed_run_leaves_no_artifact_of_an_earlier_run(
        tiny_path, tmp_path, monkeypatch):
    scenario = load_scenario(tiny_path)
    out = tmp_path / "out"
    assert run_pipeline(scenario, seed=0, out_dir=out).satisfied

    def no_plan(*args, **kwargs):
        raise StlError("no plan")
    monkeypatch.setattr(scenario_cli, "plan_global", no_plan)
    report = run_pipeline(scenario, seed=0, out_dir=out)
    assert report.status == "failed:plan"
    assert sorted(p.name for p in out.iterdir()) == ["report.txt"]
    assert "status: failed:plan" in (out / "report.txt").read_text()


# every artifact but report.txt, whose stage times vary from run to run
_COMPARED_ARTIFACTS = ("plan.csv", "pairs.csv", "corridor.csv", "traj.csv",
                       "figure.svg")


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_a_pickled_scenario_runs_to_the_same_artifacts(tmp_path, name):
    # run --repeat hands its workers the loaded scenario by pickling it
    scenario = load_scenario(name)
    outs = [tmp_path / "loaded", tmp_path / "unpickled"]
    for sc, out in zip((scenario, pickle.loads(pickle.dumps(scenario))),
                       outs):
        assert run_pipeline(sc, seed=0, out_dir=out).satisfied
    for artifact in _COMPARED_ARTIFACTS:
        assert (outs[0] / artifact).read_bytes() \
            == (outs[1] / artifact).read_bytes(), artifact


def test_identical_seeds_give_byte_identical_artifacts(tiny_path, tmp_path):
    scenario = load_scenario(tiny_path)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_pipeline(scenario, seed=3, out_dir=out)
    for name in ("plan.csv", "pairs.csv", "corridor.csv", "traj.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# sha256 of plan.csv, pairs.csv and corridor.csv of the first attempt of
# `run` per shipped scenario and seed, and per keep-in formula on
# scenario3 and seed; none of them uses BLAS, so they hold under every
# OpenBLAS kernel.  A change that moves one updates it
# here and declares the output change
GOLDEN_PLANNER_DIGESTS = {
    ("scenario1", 0): (
        "6e67039edf59ee9862360eb545a00dd02645a253cd78b0bc9e056aac8d221b40",
        "3eb8aeda9dbb1f8b1911538374b866c543fab287d6b3b54653a28f4942e486e6",
        "5c4aa500b1379062c59d455d0f52961be328c7846b0c9453ad73fdae945a6cf6"),
    ("scenario1", 1): (
        "cf55b1a981b15f80168be8c2382ab79cfeb68e017f9cd2c9ac7228ed1e4284c0",
        "c942654cf69a81b292d29fa2024f3b9b9ba1504eebea4fa8ab6f9beff2bc62b9",
        "fb82d4373c0c8f4129309188e13e74f69c610e7117031fb7b8f76bb2417b3366"),
    ("scenario1", 2): (
        "af0b3bbc36891eeab92ec832a33e92b55ace1dd8e3b4d4ced254d196ec42abd4",
        "e5559c4029c93a67baf2538de7e138c40ea9d61a11f9e27d872d7ce5c5849350",
        "b716da3d8451132d3ecfca8737701a50ed4c687cd0566f306b34ec95d31a87c3"),
    ("scenario2", 0): (
        "09db9fa16f2e6aab584d3320f587c4955adaa7781c20d9259ab631d6a7887522",
        "87675a5e189b95c45995caf138f871f919c7b27c7b7d27ff37babbb993e16964",
        "dd61f87a25411b4b51fa44852e79ae64f9f8e110de61a86f69865ea9f066f6db"),
    ("scenario2", 1): (
        "c6c42d9b212f4e995b7a03b5d93f214c33aa7a7afcd32a32eccdd49df7d61058",
        "87675a5e189b95c45995caf138f871f919c7b27c7b7d27ff37babbb993e16964",
        "a6236ae6990af512db813d82b543e91009e050ddc0b2b98ae0b385da5271c23f"),
    ("scenario2", 2): (
        "2ccaa8f1753731421e7686c7fef5fc28fc293fc64ded62cd425030903f45d4f8",
        "87675a5e189b95c45995caf138f871f919c7b27c7b7d27ff37babbb993e16964",
        "e19bbb60d2e11096db32df2da6b4ea75e95389a2a426450bd159e3bdffcd66c2"),
    ("scenario3", 0): (
        "62952b52241100951d0081049d4693b80517aa991ff4e0876d26780d6f1ec8f4",
        "02c90c937f4212b09f3b9167bb97385676a989715eafe01f3799f6660ccc8515",
        "85b029c381599c08a6d48b0754893a1442e0f53149c9562a1a6ada917e94fe06"),
    ("scenario3", 1): (
        "e7f19f1404229e351d2d57c0e78e5ae46a51a6c1671dec12932b2bcb177d7259",
        "128eb43cba5d10ef0afbe28b59d03c967922e7e042292d2247fd94b3efb68442",
        "c4430067656eb2d034bbbaeb2491316f95c5ef038d512fe60a653e5ee8266194"),
    ("scenario3", 2): (
        "14b6b1115583198e799eeda17d3512d1d2b0792c3cfbcdda84a39f25ad9674f4",
        "128eb43cba5d10ef0afbe28b59d03c967922e7e042292d2247fd94b3efb68442",
        "7c4480ec40322f278840f102781a50914d85b43d82eeae2b188500ad5ff894b3"),
    ("scenario3: G[3,5] mu1 & F[0,25] mu2", 0): (
        "afd0e9d60e07007a589031b80273fda5e6a148f99824540231955a5bdd33b9a4",
        "99059a22d6782d9fd3c028fe1545d87c77a11472f728e09f4975a937aae47c00",
        "961f46de81b546ddff93259920e43fb1e91099649005b55e1879da1c28c8a843"),
    ("scenario3: G[3,5] mu1 & F[0,25] mu2", 1): (
        "cada73440d198c488fcc8728ba7165c181b8a63648a3ddbd21203f973f2823d0",
        "99059a22d6782d9fd3c028fe1545d87c77a11472f728e09f4975a937aae47c00",
        "0fc3801d37927376beb8263edcf56bb4f1c46efa04b1683349003c199337d349"),
    ("scenario3: G[3,5] mu1 & F[0,25] mu2", 2): (
        "4ee4c847a610fb2c846c7a7ec3ab9dcd7cafbfef9687c7d3a8a9e75e59cd920c",
        "99059a22d6782d9fd3c028fe1545d87c77a11472f728e09f4975a937aae47c00",
        "0fc3801d37927376beb8263edcf56bb4f1c46efa04b1683349003c199337d349"),
    ("scenario3: F[0,10] G[0,5] mu1 & G[12,16] mu2 & F[30,50] mu4", 0): (
        "df6e3d27c3b54583129456805136100c72f3beb9778e2669a01397dc093c5a70",
        "6cedc1625fcb438d81b2e61bba4d99abfbcc964ad28d3b79827854e6c2f20acd",
        "13b7bab456e35f198a9d64948445ff62df688249004852806b3c33be6922330b"),
    ("scenario3: F[0,10] G[0,5] mu1 & G[12,16] mu2 & F[30,50] mu4", 1): (
        "dc64f442ddff8f3b6801b99560d089a0c316304a63ab1ec83514d9781ad80c65",
        "6cedc1625fcb438d81b2e61bba4d99abfbcc964ad28d3b79827854e6c2f20acd",
        "b111b99e33e85f3faaacfcf83258ccfdeece95c7c7974cd747308bb00a180b0d"),
    ("scenario3: F[0,10] G[0,5] mu1 & G[12,16] mu2 & F[30,50] mu4", 2): (
        "25c51632aed3f017d9bde2f97e425a5cf6a179cf4db595c979435eafaf7039ea",
        "6cedc1625fcb438d81b2e61bba4d99abfbcc964ad28d3b79827854e6c2f20acd",
        "bc9d332c1b3c5f6ab61918a2c07c80a6c984c35eecd70e1921f437bf6c7a1f2a"),
}


def test_planner_artifacts_match_their_golden_digests(shipped_first_attempts):
    got = {key: tuple(hashlib.sha256(text.encode()).hexdigest()
                      for text in (plan_csv_text(plan), pairs_csv_text(plan),
                                   corridor_csv_text(cor)))
           for key, (_, plan, cor) in shipped_first_attempts.items()}
    assert got == GOLDEN_PLANNER_DIGESTS


def test_traj_csv_and_figure_svg_bytes_are_pinned(first_scenario_artifacts):
    # a solution built without the solver, so the bytes hold under every
    # OpenBLAS kernel: the states are scenario1's seed-0 waypoints, their
    # headings cross +-pi, so traj.csv wraps them, one heading is -0.0,
    # and the inputs are seeded draws.  A change that moves either digest
    # updates it here and declares the output change
    scenario = first_scenario_artifacts["scenario"]
    plan = first_scenario_artifacts["plan"]
    xy = plan.waypoints.positions
    K = len(xy) - 1
    states = np.column_stack([xy, np.linspace(-7.0, 7.0, K + 1)])
    states[1, 2] = -0.0
    inputs = np.random.default_rng(0).uniform(-2.0, 2.0, size=(K, 2))
    sol = NlpSolution(states=states, inputs=inputs, cost=0.0,
                      max_violation=0.0, outer_iterations=1,
                      converged=True, message="converged")
    traj = traj_csv_text(sol, scenario.tau)
    assert traj.splitlines()[2].split(",")[4] == "-0.0"
    svg = emit_svg(scenario, plan, first_scenario_artifacts["corridor"],
                   states[:, :2])
    assert [hashlib.sha256(text.encode()).hexdigest()
            for text in (traj, svg)] == [
        "77a82e461c4a7395378391950ac1f9414d88c09f234124880becbdef21dac9aa",
        "e995af58d4fe816253de55bb90b42df29ce2927bd1874eca3fb71c0dea7bf544"]


def test_exit_codes_follow_the_status():
    scenario = load_scenario("scenario1")
    assert RunReport(scenario, 0, status="satisfied").exit_code() == 0
    assert RunReport(scenario, 0, status="unsatisfied").exit_code() == 2
    assert RunReport(scenario, 0, status="failed:optimize").exit_code() == 3


@pytest.mark.parametrize("stage, name", [
    ("decompose", "decompose"), ("plan", "plan_global"),
    ("corridor", "construct_safe_corridor"), ("optimize", "solve_nlp"),
    ("verify", "read_traj_csv")])
def test_an_exception_inside_a_stage_fails_that_stage(
        tiny_path, tmp_path, monkeypatch, capsys, stage, name):
    def broken(*args, **kwargs):
        raise ValueError("broken stage")
    monkeypatch.setattr(scenario_cli, name, broken)
    out = tmp_path / "out"
    report = run_pipeline(load_scenario(tiny_path), seed=0, out_dir=out)
    assert report.status == f"failed:{stage}"
    assert report.error == "ValueError('broken stage')"
    text = (out / "report.txt").read_text()
    assert f"status: failed:{stage}" in text
    assert "last error: ValueError('broken stage')" in text
    cli = tmp_path / "cli"
    assert main(["run", str(tiny_path), "--out", str(cli)]) == 3
    captured = capsys.readouterr()
    # run prints the report it writes, and the error once more on stderr
    assert captured.out == (cli / "report.txt").read_text()
    assert captured.err == "error: ValueError('broken stage')\n"


def test_a_replan_that_succeeds_leaves_no_stale_error(tiny_path, tmp_path,
                                                      monkeypatch):
    solve = scenario_cli.solve_nlp
    solutions = []

    def fail_first_solve(*args):
        solutions.append(solve(*args))
        if len(solutions) == 1:
            return replace(solutions[0], converged=False,
                           message="forced failure")
        return solutions[-1]
    monkeypatch.setattr(scenario_cli, "solve_nlp", fail_first_solve)
    out = tmp_path / "out"
    report = run_pipeline(load_scenario(tiny_path), seed=0, out_dir=out)
    assert report.status == "satisfied" and report.error == ""
    assert report.metrics["attempt_outcomes"] == ["failed:optimize",
                                                  "satisfied"]
    assert [a.seed for a in report.attempts] == [0, 10 ** 9]
    assert report.solution is solutions[1] is report.attempts[1].solution
    text = (out / "report.txt").read_text()
    lines = re.findall(r"^attempt .*$", text, re.M)
    assert len(lines) == 2
    assert re.fullmatch(r"attempt 1 \(seed 0, \d+\.\d\d s\): failed:optimize: "
                        r"solver did not converge: forced failure", lines[0])
    assert re.fullmatch(r"attempt 2 \(seed 1000000000, \d+\.\d\d s\): "
                        r"satisfied", lines[1])
    assert "last error" not in text


def test_a_run_whose_verification_fails_ends_unsatisfied(tiny_path, tmp_path,
                                                         monkeypatch):
    verify = scenario_cli.verify_trajectory

    def colliding(*args):
        return {**verify(*args), "collision_free": False}
    monkeypatch.setattr(scenario_cli, "verify_trajectory", colliding)
    out = tmp_path / "out"
    report = run_pipeline(load_scenario(tiny_path), seed=0, out_dir=out)
    assert report.status == "unsatisfied" and report.exit_code() == 2
    assert report.metrics["attempt_outcomes"] == ["unsatisfied"] * 4
    assert len(report.attempts) == 4
    assert "collision_free=False" in report.error
    assert report.error == report.metrics["verify_detail"]
    text = (out / "report.txt").read_text()
    assert f"last error: {report.error}\n" in text
    assert main(["run", str(tiny_path), "--out", str(tmp_path / "cli")]) == 2


def test_the_report_keeps_no_object_of_an_earlier_attempt(tiny_path,
                                                          tmp_path,
                                                          monkeypatch):
    construct = scenario_cli.construct_safe_corridor
    corridors = []

    def corridor_once(*args):
        if corridors:
            raise StlError("corridor refused")
        corridors.append(construct(*args))
        return corridors[0]
    monkeypatch.setattr(scenario_cli, "construct_safe_corridor",
                        corridor_once)
    monkeypatch.setattr(scenario_cli, "solve_nlp", lambda *args: NlpSolution(
        states=np.zeros((5, 3)), inputs=np.zeros((4, 2)), cost=0.0,
        max_violation=1.0, outer_iterations=1, converged=False,
        message="forced failure"))
    report = run_pipeline(load_scenario(tiny_path), seed=0, out_dir=tmp_path)
    assert report.metrics["attempt_outcomes"] == [
        "failed:optimize"] + ["failed:corridor"] * 3
    assert report.corridor is None and report.solution is None
    assert report.attempts[0].corridor is corridors[0]
    assert report.attempts[0].solution is not None
    assert report.plan is report.attempts[-1].plan is not None
    assert report.error == "corridor refused"
    # the last attempt planned and stopped at its corridor
    assert "plan_seconds" in report.metrics
    assert "corridor_seconds" not in report.metrics
    assert "solve_seconds" not in report.metrics


# ---------------------------------------------------------------------------
# command line

def test_cli_validate_and_decompose(tiny_path, capsys):
    assert main(["validate", str(tiny_path)]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["decompose", str(tiny_path)]) == 0
    assert "cut times" in capsys.readouterr().out
    assert main(["decompose", "scenario1"]) == 0
    out = capsys.readouterr().out
    assert "cut times (0, 20, 30, 50, 60)" in out
    # the window that plans only a fallback piece shows it
    assert "fallback piece F[50,60] mu6 in local task 4" in out


def test_python_dash_m_stlplan_runs_the_cli_once(tiny_path):
    # the package entry point imports the CLI module once, so it runs
    # without the "found in sys.modules" RuntimeWarning
    src = str(Path(scenario_cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stlplan",
         "validate", str(tiny_path)],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "valid" in done.stdout


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only run --repeat uses concurrent.futures; a fresh interpreter that
    # imports the CLI module must not load it
    src = str(Path(scenario_cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, stlplan.scenario_cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_cli_plan_writes_waypoint_artifacts(tiny_path, tmp_path, capsys):
    out = tmp_path / "planned"
    assert main(["plan", str(tiny_path), "--seed", "1",
                 "--out", str(out)]) == 0
    assert "waypoints" in capsys.readouterr().out
    # the plan stage of run, which needs no replan at this seed
    ran = tmp_path / "ran"
    assert main(["run", str(tiny_path), "--seed", "1",
                 "--out", str(ran)]) == 0
    assert "attempt 2" not in (ran / "report.txt").read_text()
    for name in ("plan.csv", "pairs.csv"):
        assert (out / name).read_bytes() == (ran / name).read_bytes()


def test_cli_plan_that_fails_removes_an_earlier_plan(tmp_path, capsys):
    # scenario3 with one tree iteration and no restart cannot plan; the
    # plan.csv and pairs.csv of an earlier plan into --out must not stay
    out = tmp_path / "out"
    assert main(["plan", "scenario3", "--out", str(out)]) == 0
    assert (out / "plan.csv").exists() and (out / "pairs.csv").exists()
    data = json.loads((Path(scenario_cli.__file__).parent / "scenarios" /
                       "scenario3.json").read_text())
    data["planner"].update(max_iters_per_tree=1, max_restarts=0)
    path = _write_scenario(tmp_path, data, "starved.json")
    assert main(["plan", str(path), "--out", str(out)]) == 3
    assert "planning failed" in capsys.readouterr().err
    assert not (out / "plan.csv").exists()
    assert not (out / "pairs.csv").exists()


@pytest.mark.parametrize("command", ["plan", "run"])
def test_cli_rejects_a_plan_that_fails_validation(tiny_path, tmp_path,
                                                  monkeypatch, capsys,
                                                  command):
    # a planner result one waypoint short of the horizon: both commands
    # validate it and stop before writing plan.csv
    plan_global = scenario_cli.plan_global

    def short(*args, **kwargs):
        wps = plan_global(*args, **kwargs).waypoints
        return GlobalPlan(PointSequence(0, wps.tau, wps.positions[:-1]), ())
    monkeypatch.setattr(scenario_cli, "plan_global", short)
    out = tmp_path / "out"
    assert main([command, str(tiny_path), "--out", str(out)]) == 3
    assert "expected 5 waypoints, have 4" in capsys.readouterr().err
    assert not (out / "plan.csv").exists()


@pytest.mark.parametrize("command", ["plan", "run"])
def test_cli_classifies_any_planner_error_as_a_failed_plan(
        tiny_path, tmp_path, monkeypatch, capsys, command):
    # an error that is no StlError: `run` records it as failed:plan, and
    # `plan` must exit 3 with it too, not end in a traceback
    def broken(*args, **kwargs):
        raise ValueError("planner broke")
    monkeypatch.setattr(scenario_cli, "plan_global", broken)
    out = tmp_path / "out"
    assert main([command, str(tiny_path), "--out", str(out)]) == 3
    assert "ValueError('planner broke')" in capsys.readouterr().err
    assert not (out / "plan.csv").exists()


def test_cli_run_then_check_round_trip(tiny_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(tiny_path), "--seed", "0",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    # run prints the report it writes, byte for byte, and no error
    assert captured.out == (out / "report.txt").read_text()
    assert "status: satisfied\n" in captured.out and captured.err == ""
    assert main(["check", str(out / "traj.csv"), str(tiny_path)]) == 0
    assert "satisfies" in capsys.readouterr().out

    lines = ["k,t,x,y,theta,v,omega"]
    for k in range(5):
        tail = "0.0,0.0" if k < 4 else ","
        lines.append(f"{k},{k * 0.5},0.1,0.1,0.0,{tail}")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["check", str(bad), str(tiny_path)]) == 2
    assert "does not satisfy" in capsys.readouterr().out


def test_cli_run_repeat_runs_consecutive_seeds(tiny_path, tmp_path, capsys):
    # the second input is scenario3 started inside mu1 and told to stay
    # there: its trajectory is solved and 0.0 m long, and the line says so
    still = json.loads((Path(scenario_cli.__file__).parent / "scenarios" /
                        "scenario3.json").read_text())
    still.update(x0=[3.5, 1.5, 0.0], formula="G[0,2] mu1")
    for path, length in ((tiny_path, r"[1-9]\d*\.\d\d"),
                         (_write_scenario(tmp_path, still, "still.json"),
                          r"0\.00")):
        out = tmp_path / f"batch-{path.stem}"
        code = main(["run", str(path), "--seed", "0", "--out", str(out),
                     "--repeat", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        for seed, line in enumerate(lines):
            assert re.fullmatch(rf"seed {seed}: satisfied, length {length} m",
                                line), line
            # each worker writes what a single run of its seed writes
            single = tmp_path / f"single-{path.stem}-{seed}"
            assert main(["run", str(path), "--seed", str(seed),
                         "--out", str(single)]) == 0
            capsys.readouterr()
            for name in _COMPARED_ARTIFACTS:
                assert (out / f"seed{seed}" / name).read_bytes() \
                    == (single / name).read_bytes(), (path.stem, seed, name)


def test_cli_reports_config_errors_with_exit_4(tmp_path, capsys):
    assert main(["run", "scenario9.json"]) == 4
    assert "configuration error" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 4
    assert "configuration error" in capsys.readouterr().err
    data = _tiny_data()
    data["dynamics"]["v_bounds"] = [-1.0, 1.0]
    assert main(["validate", str(_write_scenario(tmp_path, data))]) == 4
    assert "v_bounds" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["validate", "{sc}"], 4), (["decompose", "{sc}"], 4),
    (["plan", "{sc}", "--out", "{out}"], 4),
    (["run", "{sc}", "--out", "{out}"], 4),
    (["run", "{sc}", "--repeat", "2", "--out", "{out}"], 4),
    (["check", "{traj}", "{sc}"], 0)],
    ids=["validate", "decompose", "plan", "run", "run-repeat", "check"])
def test_cli_gives_one_verdict_for_a_task_decompose_rejects(
        tmp_path, capsys, argv, code):
    # loading accepts a horizon of zero and decompose rejects it, so each
    # command that decomposes ends as a configuration error; check decides
    # the formula without decomposing it, and the one row, at x0 inside
    # goal, satisfies it
    data = _tiny_data()
    data.update(formula="F[0,0] goal", x0=[2.5, 2.5, 0.0])
    paths = {"sc": _write_scenario(tmp_path, data), "out": tmp_path / "out",
             "traj": tmp_path / "traj.csv"}
    paths["traj"].write_text("k,t,x,y,theta,v,omega\n0,0.0,2.5,2.5,0.0,,\n")
    assert main([arg.format_map(paths) for arg in argv]) == code
    captured = capsys.readouterr()
    if code:
        assert "configuration error: task constrains only time zero; " \
            "nothing to plan" in captured.err
    else:
        assert captured.out == f"{paths['traj']}: satisfies tiny\n"


@pytest.mark.parametrize("command", ["plan", "run"])
def test_cli_rejects_a_negative_seed_before_any_stage(tiny_path, tmp_path,
                                                      capsys, command):
    out = tmp_path / "out"
    assert main([command, str(tiny_path), "--seed", "-1",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "--seed must be a non-negative integer" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("repeat", ["0", "-3"])
def test_cli_rejects_a_repeat_below_one_before_any_run(
        tiny_path, tmp_path, capsys, monkeypatch, repeat):
    runs = count_calls(monkeypatch, scenario_cli, "run_pipeline")
    out = tmp_path / "out"
    assert main(["run", str(tiny_path), "--repeat", repeat,
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "--repeat must be a positive integer" in captured.err
    assert captured.out == "" and not out.exists() and runs == []


@pytest.mark.parametrize("argv", [
    ["check", "traj.csv"],
    ["run", "scenario1", "--seed", "x"],
    ["plan", "scenario1", "--bogus"],
    [],
    ["decompose", "scenario3", "--explain"],
], ids=["missing-positional", "non-integer-seed", "unknown-option",
        "no-command", "removed-explain"])
def test_cli_usage_errors_exit_4(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    assert "usage: stlplan" in capsys.readouterr().err


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "usage: stlplan check" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "plan"])
def test_cli_reports_an_unwritable_out_dir_with_exit_4(tiny_path, tmp_path,
                                                       capsys, command):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out = blocker / "sub"
    assert main([command, str(tiny_path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(out) in err


@pytest.mark.parametrize("text", [
    None,
    "",
    "k,t,x,y,theta,v,omega\n",
    "k,t,x,y,theta,v,omega\n0,0.0,0.5,0.5\n",
    "k,t,x,y,theta,v,omega\n0,0.0,0.5,abc,0.0,,\n",
    "k,t,x,y,theta\n0,0.0,0.5,0.5,0.0\n",
    "k,t,x,y,theta,v,omega\n0,0.0,0.5,0.5,0.0,,\n",
], ids=["missing", "empty", "header-only", "short-row", "non-numeric",
        "foreign-header", "too-few-rows"])
def test_cli_check_rejects_malformed_trajectory_files(tiny_path, tmp_path,
                                                      capsys, text):
    path = tmp_path / "traj.csv"
    if text is not None:
        path.write_text(text)
    assert main(["check", str(path), str(tiny_path)]) == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err


def test_read_traj_csv_rejects_a_row_out_of_step(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("k,t,x,y,theta,v,omega\n0,0.0,0.5,0.5,0.0,0.0,0.0\n"
                    "2,0.5,0.5,0.5,0.0,,\n")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:3: "):
        read_traj_csv(path, 0.5)


@pytest.mark.parametrize("tails, line", [
    (["0.0,0.0", ",", "0.0,0.0", ","], 3),
    (["0.0,0.0", "0.0,0.0", "0.0,0.0", "0.0,0.0"], 5),
    (["0.0,0.0", "0.0,", "0.0,0.0", ","], 3),
    (["0.0,0.0", "0.0,0.0", "0.0,0.0", ",0.0"], 5),
], ids=["middle-row-blank", "last-row-filled", "one-blank-cell",
        "last-row-one-cell"])
def test_read_traj_csv_rejects_misplaced_input_cells(tmp_path, tails, line):
    # every row but the last carries v and omega, the last neither
    path = tmp_path / "traj.csv"
    path.write_text("k,t,x,y,theta,v,omega\n" + "".join(
        f"{k},{k * 0.5},0.5,0.5,0.0,{tail}\n"
        for k, tail in enumerate(tails)))
    with pytest.raises(ConfigError,
                       match=f"{re.escape(str(path))}:{line}: "):
        read_traj_csv(path, 0.5)


@pytest.mark.parametrize("t", ["0.6", "99", "abc", "nan", "inf", "1e308"])
def test_read_traj_csv_rejects_a_t_that_is_not_k_tau(tmp_path, t):
    path = tmp_path / "traj.csv"
    path.write_text("k,t,x,y,theta,v,omega\n0,0.0,0.5,0.5,0.0,0.0,0.0\n"
                    f"1,{t},0.5,0.5,0.0,,\n")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:3: "):
        read_traj_csv(path, 0.5)


@pytest.mark.parametrize("t", ["99", "abc"])
def test_cli_check_rejects_a_row_whose_t_is_wrong(tiny_path, tmp_path,
                                                  capsys, t):
    out = tmp_path / "run"
    assert main(["run", str(tiny_path), "--out", str(out)]) == 0
    path = out / "traj.csv"
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[1] = t
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(path), str(tiny_path)]) == 4
    assert f"{path}:4: " in capsys.readouterr().err


@pytest.mark.parametrize("row, v, omega", [(2, "", ""), (4, "0.0", "0.0")],
                         ids=["middle-row-blank", "last-row-filled"])
def test_cli_check_rejects_misplaced_input_cells(tiny_path, tmp_path,
                                                 capsys, row, v, omega):
    out = tmp_path / "run"
    assert main(["run", str(tiny_path), "--out", str(out)]) == 0
    path = out / "traj.csv"
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[5:] = [v, omega]
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(path), str(tiny_path)]) == 4
    assert f"{path}:{row + 2}: " in capsys.readouterr().err


def _tamper(path, k, **cells):
    """Rewrite row k of a trajectory CSV, each cell given as a function
    of its old value."""
    lines = path.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[k + 1].split(",")))
    for name, edit in cells.items():
        row[name] = repr(edit(float(row[name])))
    lines[k + 1] = ",".join(row.values())
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("k, cells, named", [
    (2, {"x": lambda x: 1000.0, "y": lambda y: -1000.0},
     ["inside_workspace"]),
    (2, {"x": lambda x: 4.0 + 1e-6}, ["inside_workspace"]),
    (0, {"x": lambda x: x + 0.3}, ["starts_at_x0"]),
    (0, {"theta": lambda t: t + 0.3}, ["starts_at_x0"]),
    (2, {"x": lambda x: x - 0.3}, ["dynamics_feasible"]),
    # three times eps_feas, so the step defects exceed it whatever the
    # solver's own defect there
    (2, {"y": lambda y: y + 3e-4}, ["dynamics_feasible"]),
    (0, {"x": lambda x: math.nan},
     ["inside_workspace", "starts_at_x0", "dynamics_feasible"]),
], ids=["outside", "just-outside", "start", "start-heading", "teleport",
        "nudge", "nan"])
def test_cli_check_rejects_tampered_trajectories(tiny_path, tmp_path, capsys,
                                                 k, cells, named):
    out = tmp_path / "run"
    assert main(["run", str(tiny_path), "--out", str(out)]) == 0
    path = out / "traj.csv"
    _tamper(path, k, **cells)
    capsys.readouterr()
    assert main(["check", str(path), str(tiny_path)]) == 2
    failed = capsys.readouterr().out.split("(failed: ")[1].rstrip(")\n")
    assert set(named) <= set(failed.split(", "))
    if named == ["dynamics_feasible"]:
        assert failed == "dynamics_feasible"


def test_cli_check_compares_the_start_heading_modulo_two_pi(
        tiny_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(tiny_path), "--out", str(out)]) == 0
    _tamper(out / "traj.csv", 0, theta=lambda t: t + 2.0 * math.pi)
    assert main(["check", str(out / "traj.csv"), str(tiny_path)]) == 0


@pytest.mark.parametrize("rows", [4, 6])
def test_cli_check_names_the_rows_a_trajectory_has_and_needs(
        tiny_path, tmp_path, capsys, rows):
    # the tiny task spans F[0,2] at tau 0.5: steps 0..4, five rows
    lines = ["k,t,x,y,theta,v,omega"]
    for k in range(rows):
        tail = "0.0,0.0" if k < rows - 1 else ","
        lines.append(f"{k},{k * 0.5},0.5,0.5,0.0,{tail}")
    path = tmp_path / "traj.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path), str(tiny_path)]) == 4
    err = capsys.readouterr().err
    assert f"{path} has {rows} rows but tiny needs 5" in err


def test_cli_check_verifies_collisions_and_input_bounds(tmp_path, capsys):
    # the README layout: this path reaches the goal in time, so the
    # oracle alone passes it, but it cuts through the obstacle at 9 m/s
    scenario = _write_scenario(tmp_path, _readme_scenario())
    points = [(0.5, 0.5), (3.0, 0.5), (3.0, 3.0), (3.0, 3.0), (3.0, 3.0)]
    lines = ["k,t,x,y,theta,v,omega"]
    for k, (x, y) in enumerate(points):
        tail = "9.0,0.0" if k < 4 else ","
        lines.append(f"{k},{k * 0.5},{x},{y},0.0,{tail}")
    path = tmp_path / "fast.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", str(path), str(scenario)]) == 2
    out = capsys.readouterr().out
    assert "does not satisfy" in out
    assert "collision_free" in out and "inputs_within_bounds" in out
    assert "failed: satisfied" not in out
