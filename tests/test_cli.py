import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdkf import analysis, cli, sim
from pdkf.model import AgentSpec, SystemModel, Topology
from pdkf.sim import ScenarioConfig, save_scenario


@pytest.fixture()
def case1_file(tmp_path):
    p = tmp_path / "case1.scn"
    save_scenario(sim.case1(), str(p))
    return str(p)


@pytest.fixture()
def scalar_file(tmp_path):
    # two coupled agents without sensors: the information recursions decay,
    # so the a-priori rate analysis is feasible with explicit factors
    model = SystemModel(A=[[1.0]], Q=[[1.0]], x0_mean=[0.0], P0=[[2.0]])
    agents = [AgentSpec(H=np.zeros((1, 1)), R=[[1.0]], D=np.zeros((0, 1)),
                        d=np.zeros(0), delta=1.2) for _ in range(2)]
    cfg = ScenarioConfig(model=model, agents=agents,
                         topology=Topology(np.full((2, 2), 0.5)),
                         T=40, mode="event", x0_cov=np.array([[2.0]]))
    p = tmp_path / "scalar.scn"
    save_scenario(cfg, str(p))
    return str(p)


def test_eco_check_reports_both_alphas(case1_file, tmp_path, capsys):
    out = tmp_path / "eco"
    rc = cli.main(["eco-check", case1_file, "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "alpha without constraints:" in captured and "(fail)" in captured
    assert "alpha with constraints:" in captured and "(pass)" in captured
    assert (out / "manifest.json").exists()
    assert (out / "scenario.scn").exists()


def test_eco_check_horizon_sets_the_window_only(case1_file, tmp_path, capsys):
    # for eco-check --horizon is the observability window, not the run's T
    out = tmp_path / "eco"
    rc = cli.main(["eco-check", case1_file, "--horizon", "3", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    cfg = sim.load_scenario(case1_file)
    rep = analysis.eco_check(cfg.model, cfg.agents, 3)
    assert printed.startswith("window: 3\n")
    assert f"alpha without constraints: {rep.alpha_without_constraints:.6g} (" in printed
    assert f"alpha with constraints: {rep.alpha:.6g} (" in printed
    assert sim.load_scenario(str(out / "scenario.scn")).T == cfg.T
    assert "horizon" not in json.loads((out / "manifest.json").read_text())["overrides"]


def test_run_epdkf_lambda_near_reference(case1_file, tmp_path, capsys):
    out = tmp_path / "ep"
    rc = cli.main(["run-epdkf", case1_file, "--delta", "0.3,0.4,0.8",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("lambda:")][0]
    lam = float(line.split()[1])
    assert abs(lam - 0.311) <= 0.02
    assert (out / "metrics.csv").exists()
    assert (out / "triggers.csv").exists()


def test_run_tpdkf_writes_metrics(case1_file, tmp_path, capsys):
    out = tmp_path / "tp"
    rc = cli.main(["run-tpdkf", case1_file, "--L", "2", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "metrics.csv").exists()
    assert not (out / "triggers.csv").exists()
    assert "final mse:" in capsys.readouterr().out


def test_mc_repeat_is_bit_identical(case1_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["mc", case1_file, "--trials", "1", "--seed", "7",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        outs.append(out)
    for fname in ("metrics.csv", "triggers.csv", "manifest.json",
                  "scenario.scn"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_out_dir_from_environment(case1_file, tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("PDKF_OUT", str(target))
    rc = cli.main(["eco-check", case1_file])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert (target / "manifest.json").exists()


def test_threshold_bound_reports_per_agent(scalar_file, tmp_path, capsys):
    rc = cli.main(["threshold-bound", scalar_file, "--beta", "0.5,0.8",
                   "--kstar", "4", "--out", str(tmp_path / "th")])
    assert rc == cli.EXIT_OK
    outtext = capsys.readouterr().out
    assert "agent 0: delta <" in outtext
    assert "network uniform bound:" in outtext


def test_design_commands_run_the_pilot_pass_only_for_a_missing_beta(case1_file, tmp_path,
                                                                   capsys, monkeypatch):
    # threshold-bound reads β only, so one --beta value leaves nothing for the
    # pilot pass to give; rate-bound still takes β̄ from it
    calls, pilot = [], sim.pilot_betas
    monkeypatch.setattr(sim, "pilot_betas", lambda cfg: calls.append(cfg) or pilot(cfg))
    outs = []
    for argv, runs in ((["threshold-bound", "--beta", "0.5"], 0),
                       (["threshold-bound", "--beta", "0.5,0.9"], 0),
                       (["threshold-bound"], 1),
                       (["rate-bound", "--delta", "1.0", "--beta", "0.5"], 1)):
        calls.clear()
        out = tmp_path / str(len(outs))
        assert cli.main([argv[0], case1_file, *argv[1:], "--out", str(out)]) == cli.EXIT_OK
        assert len(calls) == runs, argv
        outs.append((capsys.readouterr().out, (out / "manifest.json").read_text()))
    assert outs[0] == outs[1]


def test_rate_bound_feasible_scalar(scalar_file, tmp_path, capsys):
    rc = cli.main(["rate-bound", scalar_file, "--beta", "0.5,0.8",
                   "--out", str(tmp_path / "rb")])
    assert rc == cli.EXIT_OK
    outtext = capsys.readouterr().out
    assert "lambda0:" in outtext


def test_rate_bound_infeasible_exits_three(case1_file, tmp_path, capsys):
    rc = cli.main(["rate-bound", case1_file, "--delta", "0.3",
                   "--horizon", "100", "--out", str(tmp_path / "rb3")])
    assert rc == cli.EXIT_INFEASIBLE
    assert "infeasible:" in capsys.readouterr().err


def test_rate_bound_on_overflowing_tables_exits_three_with_one_message(tmp_path, capsys):
    # one scalar agent with A = 0.1: with β̄ = 0.9 the information bound f
    # grows 90-fold a step, and stops being finite at step 158 of 250
    model = SystemModel(A=[[0.1]], Q=[[1.0]], x0_mean=[0.0], P0=[[1.0]])
    agents = [AgentSpec(H=[[1.0]], R=[[1.0]], D=np.zeros((0, 1)), d=np.zeros(0))]
    path = tmp_path / "fast.scn"
    save_scenario(ScenarioConfig(model=model, agents=agents,
                                 topology=Topology(np.ones((1, 1))), T=250), str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["rate-bound", str(path), "--delta", "1.2", "--beta", "0.5,0.9",
                       "--out", str(tmp_path / "rb")])
    assert rc == cli.EXIT_INFEASIBLE
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == ("infeasible: the rate tables overflow: f not finite from "
                       "step 158 of the horizon; try a shorter one\n")


@pytest.mark.parametrize("kstar", ["-5", "0", "2"])
def test_threshold_bound_kstar_below_n_plus_n_exits_two(scalar_file, tmp_path,
                                                        capsys, kstar):
    # N + n = 3 on the scalar scenario: a window too short is a bad argument
    rc = cli.main(["threshold-bound", scalar_file, "--beta", "0.5,0.8",
                   "--kstar", kstar, "--out", str(tmp_path / "th")])
    assert rc == cli.EXIT_VALIDATION
    assert "--kstar must be at least N + n = 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["threshold-bound", "rate-bound"])
def test_design_commands_on_a_time_varying_model_exit_three(tmp_path, capsys,
                                                            command):
    model = SystemModel(A=[[[1.0]], [[0.9]]], Q=[[1.0]], x0_mean=[0.0],
                        P0=[[2.0]])
    agents = [AgentSpec(H=np.ones((1, 1)), R=[[1.0]], D=np.zeros((0, 1)),
                        d=np.zeros(0), delta=0.5) for _ in range(2)]
    cfg = ScenarioConfig(model=model, agents=agents,
                         topology=Topology(np.full((2, 2), 0.5)), T=20)
    path = tmp_path / "tv.scn"
    save_scenario(cfg, str(path))
    rc = cli.main([command, str(path), "--beta", "0.5,0.8",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_INFEASIBLE
    assert "time-invariant model" in capsys.readouterr().err


def test_missing_scenario_exits_two(tmp_path, capsys):
    rc = cli.main(["run-tpdkf", str(tmp_path / "nope.scn")])
    assert rc == cli.EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_bad_delta_count_exits_two(case1_file, capsys):
    rc = cli.main(["run-epdkf", case1_file, "--delta", "0.3,0.4"])
    assert rc == cli.EXIT_VALIDATION
    capsys.readouterr()


def test_nan_delta_exits_two(case1_file, tmp_path, capsys):
    rc = cli.main(["run-epdkf", case1_file, "--delta", "nan",
                   "--out", str(tmp_path / "ep")])
    assert rc == cli.EXIT_VALIDATION
    assert "delta" in capsys.readouterr().err
    assert not (tmp_path / "ep" / "triggers.csv").exists()


def test_short_sim_r_exits_two(case1_file, tmp_path, capsys):
    with open(case1_file) as fh:
        raw = json.load(fh)
    raw["sim"]["sim_r"] = [[[90.0]]]          # one entry for three agents
    bad = tmp_path / "short_sim_r.scn"
    bad.write_text(json.dumps(raw))
    rc = cli.main(["mc", str(bad), "--out", str(tmp_path / "mc")])
    assert rc == cli.EXIT_VALIDATION
    assert "sim_r" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, field", [
    (("agents", 0, "R"), [[float("inf")]], "R"),
    (("model", "x0_mean", 0), float("nan"), "x0_mean"),
    (("sim", "P0_init"), np.diag([1.0, -1.0, 1.0, 1.0]).tolist(), "P0_init"),
    (("sim", "T"), "abc", "sim.T"),
    (("sim", "seed"), "x", "sim.seed"),
    (("sim", "theta"), "x", "sim.theta"),
    (("model", "A"), "abc", "model.A"),
    # a misspelled or stray key must not load as if it were absent
    (("sim", "trails"), 5, "sim.trails: unknown field"),
    (("agents", 0, "delat"), 9.0, "agents[0].delat: unknown field"),
    (("model", "beta1"), 0.5, "model.beta1: unknown field"),
    (("topology", "wieghts"), [], "topology.wieghts: unknown field"),
    (("nmae",), "case1", ": nmae: unknown field"),
    # integer fields take JSON integers only: no truncated float, no string,
    # no bool; real fields take JSON numbers only
    (("sim", "T"), 7.9, "sim.T: expected an integer, got 7.9"),
    (("sim", "T"), "7", "sim.T: expected an integer, got '7'"),
    (("sim", "L"), 2.0, "sim.L: expected an integer, got 2.0"),
    (("sim", "trials"), True, "sim.trials: expected an integer, got True"),
    (("sim", "seed"), 3.5, "sim.seed: expected an integer, got 3.5"),
    (("sim", "checkpoints"), [2.9, "3"], "sim.checkpoints: expected an integer, got 2.9"),
    (("sim", "checkpoints"), [2, "3"], "sim.checkpoints: expected an integer, got '3'"),
    # a negative checkpoint used to run and record nothing at it
    (("sim", "checkpoints"), [50, -3], ": checkpoints[1] must be nonnegative, got -3"),
    (("sim", "theta"), "1.0", "sim.theta: expected a number, got '1.0'"),
    (("sim", "theta"), False, "sim.theta: expected a number, got False"),
    (("agents", 0, "eps"), "0.5", "agents[0].eps: expected a number, got '0.5'"),
    (("agents", 2, "delta"), True, "agents[2].delta: expected a number, got True"),
    # matrix fields take JSON numbers or nested lists of them, checked at the
    # leaves: numpy reads a bool as 0/1 and a numeric string as its number
    (("agents", 0, "R"), [["90"]], "agents[0].R: expected a number or a list of "
                                   "numbers, got '90'"),
    (("model", "x0_mean"), [True, 0, "0", 0.0], "model.x0_mean: expected a number "
                                                "or a list of numbers, got True"),
    (("topology", "weights", 0, 0), False, "topology.weights: expected a number"),
    # json reads NaN; a NaN self-weight used to run and exit 0
    (("topology", "weights", 0, 0), float("nan"), "topology: weights has non-finite entries"),
    (("sim", "x0_hat"), [0, 0, "0", 0], "sim.x0_hat: expected a number"),
    (("sim", "sim_r"), [[[True]], None, [[90.0]]], "sim.sim_r: expected a number"),
    # an unconstrained agent's D and d are absent, null or [], never another
    # falsy value
    (("agents", 1, "D"), 0, "agents[1]: D must be a 2-D array"),
    (("agents", 1, "D"), False, "agents[1].D: expected a number or a list of "
                                "numbers, got False"),
    (("agents", 1, "d"), False, "agents[1].d: expected a number"),
    # the name reaches manifest.json as it is
    (("name",), 17, ": name must be a string, got 17"),
], ids=["inf-R", "nan-x0_mean", "indefinite-P0_init", "text-T", "text-seed",
        "text-theta", "text-A", "unknown-sim", "unknown-agent", "unknown-model",
        "unknown-topology", "unknown-top-level", "float-T", "quoted-T", "float-L",
        "bool-trials", "float-seed", "float-checkpoint", "quoted-checkpoint",
        "negative-checkpoint", "quoted-theta", "bool-theta", "quoted-eps", "bool-delta",
        "quoted-R",
        "mixed-x0_mean", "bool-weight", "nan-weight", "quoted-x0_hat", "bool-sim_r", "zero-D",
        "false-D", "false-d", "number-name"])
def test_bad_scenario_values_exit_two(case1_file, tmp_path, capsys, path,
                                      value, field):
    with open(case1_file) as fh:
        raw = json.load(fh)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    rc = cli.main(["mc", str(bad), "--out", str(tmp_path / "mc")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert field in err and str(bad) in err
    assert not (tmp_path / "mc" / "metrics.csv").exists()


@pytest.mark.parametrize("argv", [
    ["eco-check"], ["threshold-bound"], ["rate-bound", "--delta", "1.2", "--horizon", "50"],
    ["mc"], ["run-tpdkf"], ["run-epdkf"],
], ids=lambda argv: argv[0])
def test_contradictory_constraints_exit_two_before_any_output(case1_file, tmp_path,
                                                              capsys, argv):
    # agent 0 keeps the road through the origin; agent 2's is moved off it
    with open(case1_file) as fh:
        raw = json.load(fh)
    raw["agents"][2]["d"] = [1.0, 0.0]
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = cli.main([argv[0], str(bad), *argv[1:], "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: malformed scenario file {str(bad)!r}: agents: inconsistent constraints: "
        f"the constraint set is empty, as no state meets every row of agents [0, 2]\n")
    assert not out.exists()


def test_scenario_numbers_need_no_decimal_point(case1_file, tmp_path):
    # a real field may hold a JSON integer: it loads as that float
    with open(case1_file) as fh:
        raw = json.load(fh)
    raw["sim"]["theta"], raw["agents"][1]["eps"], raw["agents"][0]["delta"] = 2, 1, 0
    p = tmp_path / "ints.scn"
    p.write_text(json.dumps(raw))
    cfg = sim.load_scenario(str(p))
    assert (cfg.theta, cfg.agents[1].eps, cfg.agents[0].delta) == (2.0, 1.0, 0.0)
    assert all(type(v) is float for v in (cfg.theta, cfg.agents[1].eps,
                                          cfg.agents[0].delta))


@pytest.mark.parametrize("edit, message", [
    # a key given twice must not load as if the last one were the only one
    (lambda text: text.replace('"trials": ', '"trials": 7,\n  "trials": ', 1),
     "malformed scenario file '{}': duplicate key 'trials'"),
    # the block-mapping format of earlier releases is not read
    (lambda text: "agents:\n- H:\n  - - 1.0\nname: case1\nsim:\n  T: 5\n",
     "scenario file {} is not valid JSON"),
], ids=["duplicate-key", "not-json"])
def test_bad_scenario_text_exits_two(case1_file, tmp_path, capsys, edit, message):
    with open(case1_file) as fh:
        text = fh.read()
    bad = tmp_path / "bad.scn"
    bad.write_text(edit(text))
    rc = cli.main(["mc", str(bad), "--out", str(tmp_path / "mc")])
    assert rc == cli.EXIT_VALIDATION
    assert message.format(bad) in capsys.readouterr().err
    assert not (tmp_path / "mc" / "metrics.csv").exists()


def test_nonuniform_rate_bound_needs_explicit_delta(case1_file, capsys):
    rc = cli.main(["rate-bound", case1_file])
    assert rc == cli.EXIT_VALIDATION
    assert "uniform" in capsys.readouterr().err


def test_case1_subcommand_runs(tmp_path, capsys):
    out = tmp_path / "c1"
    rc = cli.main(["case1", "--out", str(out), "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert (out / "metrics.csv").exists()
    printed = capsys.readouterr().out
    assert "lambda:" in printed
    # the same lines as `pdkf mc`
    assert "trials: 1\n" in printed and f"wrote metrics.csv to {out}" in printed


@pytest.mark.parametrize("command", ["case1", "case2"])
def test_builtin_cases_reject_a_scenario_file(tmp_path, capsys, command):
    # the built-in cases read no scenario file, so they must not accept one
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--scenario", str(tmp_path / "x.scn"), "--trials", "1",
                  "--horizon", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "--scenario" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_rounds_exit_two_in_every_mode(case1_file, tmp_path, capsys):
    # case1 is an event scenario, and run-tpdkf runs time mode regardless
    rc = cli.main(["run-tpdkf", case1_file, "--L", "0",
                   "--out", str(tmp_path / "tp")])
    assert rc == cli.EXIT_VALIDATION
    assert "L must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "tp" / "metrics.csv").exists()


@pytest.mark.parametrize("argv", [
    ["threshold-bound", "--beta", "nan,nan"],
    ["threshold-bound", "--beta", "inf"],
    ["threshold-bound", "--beta", "0"],
    ["rate-bound", "--delta", "1.0", "--beta", "nan", "--horizon", "30"],
    ["rate-bound", "--delta", "1.0", "--beta", "0.5,2", "--horizon", "30"],
    ["rate-bound", "--delta", "1.0", "--beta", "1,0.5", "--horizon", "30"],
    ["threshold-bound", "--beta", "abc"],
    ["rate-bound", "--delta", "1.0", "--beta", "0.5,abc", "--horizon", "30"],
], ids=["nan-pair", "inf", "zero", "nan", "beta_bar-2", "beta-1", "text",
        "text-beta_bar"])
def test_bad_beta_exits_two(case1_file, tmp_path, capsys, argv):
    rc = cli.main([argv[0], case1_file, *argv[1:], "--out", str(tmp_path / "b")])
    assert rc == cli.EXIT_VALIDATION
    assert "--beta" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run-epdkf", "--delta", "x"],
    ["rate-bound", "--delta", "0.3,x,0.8", "--beta", "0.5,0.9"],
], ids=["run", "rate-bound"])
def test_bad_delta_text_exits_two(case1_file, tmp_path, capsys, argv):
    rc = cli.main([argv[0], case1_file, *argv[1:], "--out", str(tmp_path / "d")])
    assert rc == cli.EXIT_VALIDATION
    assert "--delta" in capsys.readouterr().err
    assert not (tmp_path / "d" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run-tpdkf", "mc"])
def test_diverging_run_exits_two_before_writing(tmp_path, capsys, command):
    # A scaled by 50: the state overflows near step 95 and the MSE turns NaN
    cfg = sim.case1(T=200, mode="time")
    m = cfg.model
    cfg.model = SystemModel(50 * m.A[0], m.Q[0], m.x0_mean, m.P0)
    scn = tmp_path / "unstable.scn"
    save_scenario(cfg, str(scn))
    with np.errstate(all="ignore"):
        rc = cli.main([command, str(scn), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "column 'mse'" in err and "at step 94" in err
    assert not (tmp_path / "o" / "metrics.csv").exists()
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["run-tpdkf"], "metrics.csv column 'mse' is not finite at step 94"),
    (["run-epdkf", "--delta", "0.4"], "the covariance of agent 1 is not finite "
                                      "at step 90"),
], ids=["time", "event"])
def test_diverging_run_reports_once_naming_the_step(tmp_path, capsys, argv, message):
    # A scaled by 50; the event run inverts an overflowed covariance at step 90
    cfg = sim.case1(T=200, mode="time")
    m = cfg.model
    cfg.model = SystemModel(50 * m.A[0], m.Q[0], m.x0_mean, m.P0)
    scn = tmp_path / "unstable.scn"
    save_scenario(cfg, str(scn))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([argv[0], str(scn), *argv[1:], "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: the run diverged: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run-tpdkf", "run-epdkf"])
def test_single_run_rejects_trials(case1_file, tmp_path, capsys, command):
    # a single run makes one trial, so its parser has no --trials
    with pytest.raises(SystemExit) as exc:
        cli.main([command, case1_file, "--trials", "5", "--out", str(tmp_path / "r")])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert "--trials" in capsys.readouterr().err
    assert not (tmp_path / "r" / "manifest.json").exists()


# the flags each command reads; README's CLI table lists the same sets
READ_FLAGS = {
    "eco-check": {"--horizon"},
    "run-tpdkf": {"--seed", "--L", "--horizon"},
    "run-epdkf": {"--seed", "--delta", "--horizon"},
    "threshold-bound": {"--kstar", "--beta", "--L", "--horizon"},
    "rate-bound": {"--delta", "--beta", "--L", "--horizon"},
    "mc": {"--seed", "--trials", "--L", "--delta", "--horizon"},
    "case1": {"--seed", "--trials", "--delta", "--horizon"},
    "case2": {"--seed", "--trials", "--L", "--horizon"},
}
ALL_FLAGS = ["--scenario", "--seed", "--trials", "--L", "--delta", "--horizon",
             "--kstar", "--beta"]


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, read in READ_FLAGS.items()
    for flag in ALL_FLAGS if flag not in read])
def test_unread_flag_exits_two(case1_file, tmp_path, capsys, command, flag):
    # a flag that cannot change a command's output is not one of its options
    scenario = [] if command in ("case1", "case2") else [case1_file]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *scenario, flag, "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == cli.EXIT_VALIDATION
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, flag, code", [
    ("event", "--L", cli.EXIT_VALIDATION), ("time", "--delta", cli.EXIT_VALIDATION),
    ("time", "--L", cli.EXIT_OK), ("event", "--delta", cli.EXIT_OK),
])
def test_mc_takes_only_the_flag_its_mode_reads(tmp_path, capsys, mode, flag, code):
    # mc's parser has both flags; the mode, read from the file, picks one
    scn = tmp_path / "s.scn"
    save_scenario(sim.case1(mode=mode, T=5), str(scn))
    rc = cli.main(["mc", str(scn), flag, "2", "--out", str(tmp_path / "out")])
    assert rc == code
    err = capsys.readouterr().err
    if code == cli.EXIT_VALIDATION:
        assert f"{flag} has no effect: the scenario runs in {mode} mode" in err
        assert not (tmp_path / "out").exists()
    else:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert flag.lstrip("-") in manifest["overrides"]


@pytest.mark.parametrize("command", READ_FLAGS)
def test_help_lists_exactly_the_read_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"^  (--\w+)", capsys.readouterr().out, re.M))
    assert listed == READ_FLAGS[command] | {"--out"}


@pytest.mark.parametrize("argv", [["run-tpdkf", "--L", "2"], ["run-epdkf"]],
                         ids=["time", "event"])
def test_single_run_writes_the_scenario_it_ran(tmp_path, argv):
    # case2 is a 100-trial time scenario; each run-* command makes one run
    scn = tmp_path / "case2.scn"
    save_scenario(sim.case2(T=20, delta=0.8), str(scn))
    run, again = tmp_path / "run", tmp_path / "mc"
    assert cli.main([argv[0], str(scn), *argv[1:], "--out", str(run)]) == cli.EXIT_OK
    manifest = json.loads((run / "manifest.json").read_text())
    mode = "time" if argv[0] == "run-tpdkf" else "event"
    assert (manifest["mode"], manifest["trials"]) == (mode, 1)
    assert cli.main(["mc", str(run / "scenario.scn"), "--out", str(again)]) == cli.EXIT_OK
    files = ["metrics.csv"] + (["triggers.csv"] if mode == "event" else [])
    for name in files:
        assert (run / name).read_bytes() == (again / name).read_bytes()
    assert (run / "triggers.csv").exists() == (mode == "event")


def test_non_finite_trigger_score_is_named():
    rm = sim.run_event(sim.case1(T=5))
    k, i = 3, 1                         # row 7 of triggers.csv
    rm.g[k - 1, i] = float("inf")
    assert rm.trigger_log[7][:3] == (k, i, float("inf"))
    with pytest.raises(ValueError, match=rf"column 'g' \(agent {i}\) is not "
                                         rf"finite at step {k}"):
        sim._require_finite(rm)
    rm.trace_p[k - 1] = float("nan")
    with pytest.raises(ValueError, match=rf"column 'trace_p' is not finite at "
                                         rf"step {k - 1}"):
        sim._require_finite(rm)


# --- fuzz: one section or field of a saved scenario replaced ----------------

FUZZ_PATHS = [
    ("model",), ("agents",), ("topology",), ("sim",), ("name",),
    ("model", "A"), ("model", "Q"), ("model", "x0_mean"), ("model", "P0"),
    ("agents", 0), ("agents", 1, "H"), ("agents", 0, "R"), ("agents", 0, "D"),
    ("agents", 2, "d"), ("agents", 0, "eps"), ("agents", 1, "delta"),
    ("topology", "weights"), ("sim", "T"), ("sim", "L"), ("sim", "mode"),
    ("sim", "trials"), ("sim", "seed"), ("sim", "theta"), ("sim", "checkpoints"),
    ("sim", "P0_init"), ("sim", "x0_cov"),
]
FUZZ_VALUES = [None, -1, 0, 0.5, 3, "", "abc", "inf", "nan", "event",
               [], [1, 2, 3], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0, 3.0, 4.0]]]


@settings(max_examples=80, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from(FUZZ_VALUES))
def test_mutated_scenario_exits_zero_with_finite_csv_or_two(tmp_path_factory,
                                                            path, value):
    raw = sim._cfg_to_dict(sim.case1(T=5))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    work = tmp_path_factory.mktemp("fuzz")
    (work / "bad.scn").write_text(json.dumps(raw))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(["run-tpdkf", str(work / "bad.scn"), "--out", str(work / "out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    if rc == cli.EXIT_VALIDATION:
        # the message names the file and the mutated field or its section
        msg = err.getvalue()
        assert str(work / "bad.scn") in msg
        assert path[0] in msg or (isinstance(path[-1], str)
                                  and re.search(rf"\b{path[-1]}\b", msg))
    if rc == cli.EXIT_OK:
        rows = np.loadtxt(work / "out" / "metrics.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))


@pytest.mark.parametrize("weights, reason", [
    ([], "weights must be a 2-D array"),
    ([[]], "weights must be square"),
    # a one-way chain 0 -> 1 -> 2
    ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
     "communication graph must be strongly connected"),
])
def test_mc_rejects_bad_topology_weights(tmp_path, weights, reason):
    raw = sim._cfg_to_dict(sim.case1(T=5))
    raw["topology"]["weights"] = weights
    path = tmp_path / "bad.scn"
    path.write_text(json.dumps(raw))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(["mc", str(path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION
    assert f"'{path}': topology: {reason}" in err.getvalue()
