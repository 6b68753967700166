import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import count_calls
from stlplan import optimizer, scenario_cli
from stlplan.optimizer import NlpSolution, SolverTolerances
from stlplan.scenario_cli import (BUILTIN_SCENARIOS, ConfigError, RunReport,
                                  emit_svg, load_scenario, main,
                                  pairs_csv_text, plan_csv_text,
                                  read_traj_csv, run_pipeline, traj_csv_text)
from stlplan.stl_core import StlError, parse_formula, pretty


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
    for name in BUILTIN_SCENARIOS:
        s = load_scenario(name)
        again = parse_formula(pretty(s.formula), s.workspace, tau=s.tau)
        assert pretty(again) == pretty(s.formula)
        assert s.horizon_steps * s.tau == pytest.approx(s.formula.horizon)


def test_unknown_sources_are_config_errors():
    with pytest.raises(ConfigError):
        load_scenario("scenario9")
    with pytest.raises(ConfigError):
        load_scenario("no/such/file.json")


@pytest.mark.parametrize("mutate, hint", [
    (lambda d: d.pop("tau"), "missing"),
    (lambda d: d.update(tau=-0.1), "tau"),
    (lambda d: d["workspace"].update(bounds=[[0, 4]]), "bounds"),
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


def test_invalid_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_misaligned_formula_fails_at_load(tmp_path):
    data = _tiny_data()
    data["formula"] = "F[0,0.3] goal"
    path = _write_scenario(tmp_path, data)
    with pytest.raises(StlError):
        load_scenario(path)


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
    base = emit_svg(scenario)
    assert base.startswith("<svg") and base.rstrip().endswith("</svg>")
    for name in ("mu1", "mu6"):
        assert f">{name}</text>" in base
    assert base.count("<rect") == 1 + 5 + 6  # bounds + obstacles + regions
    assert "polyline" not in base
    with_plan = emit_svg(scenario, plan=plan)
    assert with_plan.count("polyline") == 1
    assert with_plan.count("<circle") == len(plan.pairs) + 1
    with_cor = emit_svg(scenario, plan=plan, cor=cor)
    assert "stroke-dasharray" in with_cor
    traj = plan.waypoints.positions
    full = emit_svg(scenario, plan=plan, cor=cor, traj=traj)
    assert full.count("polyline") == 2
    assert "#c0392b" in full
    assert emit_svg(scenario, plan=plan, cor=cor, traj=traj) == full


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


def test_one_factorization_per_inner_iteration_of_the_pipeline(
        tiny_path, monkeypatch):
    # perfbench counts optimizer.splu calls as Gauss-Newton iterations
    calls = count_calls(monkeypatch, optimizer, "splu")
    report = run_pipeline(load_scenario(tiny_path), seed=0)
    inner = sum(e["inner_iterations"] for a in report.attempts
                if a.solution is not None for e in a.solution.log)
    assert report.satisfied
    assert len(calls) == inner > 0


def test_pipeline_without_an_out_dir_keeps_nothing(tiny_path):
    report = run_pipeline(load_scenario(tiny_path), seed=0)
    assert report.satisfied
    assert report.out_dir == ""


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
    assert not (out / "traj.csv").exists()


def test_identical_seeds_give_byte_identical_artifacts(tiny_path, tmp_path):
    scenario = load_scenario(tiny_path)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        run_pipeline(scenario, seed=3, out_dir=out)
    for name in ("plan.csv", "pairs.csv", "corridor.csv", "traj.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


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
    assert main(["run", str(tiny_path), "--out", str(tmp_path / "cli")]) == 3
    assert "ValueError('broken stage')" in capsys.readouterr().err


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


def test_the_report_keeps_no_object_of_an_earlier_attempt(tiny_path,
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
    report = run_pipeline(load_scenario(tiny_path), seed=0)
    assert report.metrics["attempt_outcomes"] == [
        "failed:optimize"] + ["failed:corridor"] * 3
    assert report.corridor is None and report.solution is None
    assert report.attempts[0].corridor is corridors[0]
    assert report.attempts[0].solution is not None
    assert report.plan is report.attempts[-1].plan is not None
    assert report.error == "corridor refused"
    assert [stage for stage, _ in report.stage_log] == ["decompose", "plan"]
    assert "solve_seconds" not in report.metrics


# ---------------------------------------------------------------------------
# command line

def test_cli_validate_and_decompose(tiny_path, capsys):
    assert main(["validate", str(tiny_path)]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["decompose", str(tiny_path)]) == 0
    assert "cut times" in capsys.readouterr().out
    assert main(["decompose", "scenario1", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "cut times (0, 20, 30, 50, 60)" in out


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


def test_cli_plan_writes_waypoint_artifacts(tiny_path, tmp_path, capsys):
    out = tmp_path / "planned"
    assert main(["plan", str(tiny_path), "--seed", "1",
                 "--out", str(out)]) == 0
    assert (out / "plan.csv").exists()
    assert (out / "pairs.csv").exists()
    assert "waypoints" in capsys.readouterr().out


def test_cli_run_then_check_round_trip(tiny_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(tiny_path), "--seed", "0",
                 "--out", str(out)]) == 0
    assert "status: satisfied" in capsys.readouterr().out
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
    out = tmp_path / "batch"
    code = main(["run", str(tiny_path), "--seed", "0", "--out", str(out),
                 "--repeat", "2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "seed 0: satisfied" in text
    assert "seed 1: satisfied" in text
    for seed in (0, 1):
        assert (out / f"seed{seed}" / "traj.csv").exists()


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


@pytest.mark.parametrize("command", ["plan", "run"])
def test_cli_rejects_a_negative_seed_before_any_stage(tiny_path, tmp_path,
                                                      capsys, command):
    out = tmp_path / "out"
    assert main([command, str(tiny_path), "--seed", "-1",
                 "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "--seed must be a non-negative integer" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", "traj.csv"],
    ["run", "scenario1", "--seed", "x"],
    ["plan", "scenario1", "--bogus"],
    [],
], ids=["missing-positional", "non-integer-seed", "unknown-option",
        "no-command"])
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
