import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pdkf import event, filter as filt, sim
from pdkf.analysis import constraint_error, pilot_contraction_factors, space_decomposition
from pdkf.event import TriggerState, epdkf_round, tpdkf_round
from pdkf.filter import AgentState, ConsistentEstimate
from pdkf.model import (AgentSpec, GlobalConstraint, SystemModel, Topology,
                        build_global_constraint)
from pdkf.sim import (
    ROAD_D,
    ScenarioConfig,
    case1,
    case2,
    ckf_baseline,
    consensus_baseline,
    generate_truth,
    load_scenario,
    monte_carlo,
    run_event,
    run_time_based,
    save_scenario,
    scenario_hash,
    write_manifest,
    write_metrics_csv,
    write_triggers_csv,
)

import oracles
import padded
from networks import directed_scenarios

SQRT3 = np.sqrt(3.0)


def single_agent_cfg(T=30, seed=3):
    n = 2
    model = SystemModel(A=np.array([[1.0, 0.1], [0.0, 1.0]]),
                        Q=np.diag([0.5, 0.2]), x0_mean=np.zeros(n),
                        P0=np.diag([4.0, 2.0]))
    agents = [AgentSpec(H=np.array([[1.0, 0.0]]), R=np.array([[2.0]]),
                        D=np.zeros((0, n)), d=np.zeros(0))]
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(np.array([[1.0]])),
                          T=T, mode="time", seed=seed)


# --- scenario construction -----------------------------------------------

def test_case1_shape():
    cfg = case1()
    assert cfg.topology.N == 3
    assert cfg.model.n == 4
    assert np.allclose(cfg.agents[0].D, ROAD_D)
    assert not cfg.agents[1].has_constraint
    assert not cfg.agents[1].has_measurement
    assert cfg.agents[0].delta == 0.3 and cfg.agents[2].delta == 0.8


def test_case2_shape():
    cfg = case2(T=10, N=20)
    assert cfg.topology.N == 20
    for i, a in enumerate(cfg.agents):
        assert a.has_constraint == (i % 2 == 0)
    # the generated random graph is fixed by its own dedicated seed
    assert scenario_hash(cfg) == scenario_hash(case2(T=10, N=20))


def test_scenario_validation():
    cfg = case1()
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, T=0)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, mode="sometimes")
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, mode="time", L=0)
    with pytest.raises(ValueError, match="L must be at least 1"):
        dataclasses.replace(cfg, mode="event", L=0)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, agents=cfg.agents[:2])


def test_sim_r_needs_one_entry_per_agent():
    with pytest.raises(ValueError, match="sim_r"):
        dataclasses.replace(case1(), sim_r=[np.array([[90.0]])])


@pytest.mark.parametrize("override, field", [
    (dict(x0_hat=np.array([0.0, np.nan, 0.0, 0.0])), "x0_hat"),
    (dict(x0_hat=np.zeros(3)), "x0_hat"),
    (dict(P0_init=np.diag([1.0, -1.0, 1.0, 1.0])), "P0_init"),
    (dict(x0_cov=np.triu(np.ones((4, 4)))), "x0_cov"),
    (dict(sim_q=np.full((4, 4), np.inf)), "sim_q"),
    (dict(sim_q=np.eye(3)), "sim_q"),
    (dict(sim_r=[None, np.array([[-1.0]]), None]), r"sim_r\[1\]"),
    (dict(seed=-1), "seed"),
    (dict(agents=[]), "agents"),
    # agent 2's road moved off agent 0's: no state meets both
    (dict(agents=case1().agents[:2] + [dataclasses.replace(case1().agents[2],
                                                           d=np.array([1.0, 0.0]))]),
     r"^agents: inconsistent constraints: .*every row of agents \[0, 2\]$"),
    # the integer settings take what the scenario file can hold: a bool used
    # to save as true and a float to run truncated, or to fail in the step
    (dict(L=True), "^L must be an integer, got True$"),
    (dict(T=2.5), r"^T must be an integer, got 2\.5$"),
    (dict(trials=True), "^trials must be an integer, got True$"),
    (dict(checkpoints=(2.7,)), r"^checkpoints\[0\] must be an integer, got 2\.7$"),
    # θ is a real setting: a bool used to run as 1 and save as true
    (dict(theta=True), "^theta must be a number, got True$"),
    (dict(theta="0.5"), "^theta must be a number, got '0.5'$"),
    # case1 sets P0_init, which the consistent-initialization rule's own θ
    # check never saw: θ ≤ 0 used to be stored, saved and run
    (dict(theta=-1), r"^theta must be finite and positive, got -1\.0$"),
    (dict(theta=0), r"^theta must be finite and positive, got 0\.0$"),
    (dict(theta=float("inf")), "^theta must be finite and positive, got inf$"),
    (dict(theta=float("nan")), "^theta must be finite and positive, got nan$"),
    # a negative checkpoint was never recorded, and nothing said so
    (dict(checkpoints=(5, -3)), r"^checkpoints\[1\] must be nonnegative, got -3$"),
    # the lower bounds share one message form, which names the value
    (dict(T=0), "^T must be at least 1, got 0$"),
    (dict(trials=0), "^trials must be at least 1, got 0$"),
], ids=["nan-x0_hat", "short-x0_hat", "indefinite-P0_init", "asymmetric-x0_cov",
        "inf-sim_q", "small-sim_q", "negative-sim_r", "negative-seed", "no-agents",
        "contradictory-d", "bool-L", "float-T", "bool-trials", "float-checkpoint",
        "bool-theta", "str-theta", "negative-theta", "zero-theta", "inf-theta",
        "nan-theta", "negative-checkpoint", "zero-T", "zero-trials"])
def test_scenario_rejects_bad_overrides(override, field):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(case1(), **override)


def test_scenario_rejects_agent_of_other_width():
    cfg = case1()
    narrow = AgentSpec(H=np.ones((1, 3)), R=np.eye(1), D=np.zeros((0, 3)),
                       d=np.zeros(0))
    with pytest.raises(ValueError, match="agent 0"):
        dataclasses.replace(cfg, agents=[narrow] + cfg.agents[1:])


# --- truth generation ------------------------------------------------------

def test_truth_respects_heading_constraint():
    cfg = case1(T=80)
    gc = build_global_constraint(cfg.agents)
    X, _ = generate_truth(cfg, np.random.default_rng(1))
    assert np.abs(gc.Dbar @ X.T - gc.dbar[:, None]).max() < 1e-9
    # the 60-degree road: position and velocity components keep a sqrt(3) ratio
    assert np.allclose(X[:, 0], SQRT3 * X[:, 1], atol=1e-9)
    assert np.allclose(X[:, 2], SQRT3 * X[:, 3], atol=1e-9)


def test_truth_noiseless_is_deterministic():
    n = 4
    cfg = dataclasses.replace(case1(T=10), sim_q=np.zeros((n, n)),
                              x0_cov=np.zeros((n, n)),
                              sim_r=[np.zeros((1, 1))] * 3)
    X, Y = generate_truth(cfg, np.random.default_rng(0))
    assert np.abs(X).max() == 0.0  # zero mean start, no noise
    for i in range(3):
        assert np.abs(Y[i]).max() == 0.0


def test_truth_same_rng_same_draw():
    cfg = case1(T=15)
    X1, Y1 = generate_truth(cfg, np.random.default_rng(42))
    X2, Y2 = generate_truth(cfg, np.random.default_rng(42))
    assert np.array_equal(X1, X2)
    assert all(np.array_equal(a, b) for a, b in zip(Y1, Y2))


def time_varying_cfg(T=40, seed=5):
    """A time-varying A (one per step) and three Q matrices for T steps, so
    Q_at holds the last one from step 2 on; two agents, one constrained."""
    A = [np.array([[1.0, 0.0, dt, 0.0], [0.0, 1.0, 0.0, dt],
                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
         for dt in np.linspace(0.05, 0.2, T)]
    Q = [np.diag([4.0, 4.0, 1.0, 1.0]), np.diag([1.0, 2.0, 0.5, 0.5]),
         np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.2, 1.0]])]
    model = SystemModel(A=A, Q=Q, x0_mean=np.array([1.0, 2.0, 0.0, 0.5]),
                        P0=np.diag([9.0, 9.0, 1.0, 1.0]))
    agents = [AgentSpec(H=np.eye(4)[:2], R=np.diag([3.0, 5.0]),
                        D=ROAD_D[:1].copy(), d=np.array([0.5])),
              AgentSpec(H=np.array([[0.0, 0.0, 1.0, 1.0]]), R=np.array([[2.0]]),
                        D=np.zeros((0, 4)), d=np.zeros(0))]
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(np.array([[0.5, 0.5], [0.5, 0.5]])),
                          T=T, seed=seed)


TRUTH_CASES = {
    "case1": case1(),
    "case2": case2(),
    "case2-n60": case2(N=60, T=60),
    "time-varying": time_varying_cfg(),
    "overrides": dataclasses.replace(
        case1(T=60), x0_cov=np.diag([50.0, 20.0, 2.0, 2.0]),
        sim_q=np.diag([2.0, 1.0, 0.5, 0.25]),
        sim_r=[np.array([[40.0]]), None, np.array([[10.0]])]),
    "unconstrained-single": single_agent_cfg(),
}


def _close(a, b, rtol):
    return a.shape == b.shape and np.abs(a - b).max() <= rtol * np.abs(b).max()


@pytest.mark.parametrize("cfg", TRUTH_CASES.values(), ids=TRUTH_CASES.keys())
def test_truth_blocks_match_the_per_trial_generator(cfg):
    children = np.random.SeedSequence(cfg.seed).spawn(3)
    gc = build_global_constraint(cfg.agents)
    X, Y = generate_truth(cfg, [np.random.default_rng(c) for c in children])
    for j, child in enumerate(children):
        Xo, Yo = oracles.generate_truth(cfg, np.random.default_rng(child), gc)
        assert _close(X[..., j], Xo, 1e-12)
        for Yi, Yoi in zip(Y, Yo):
            assert _close(Yi[..., j], Yoi, 1e-12)
        # the one-trial form is the block code on a block of one
        Xs, Ys = generate_truth(cfg, np.random.default_rng(child))
        assert np.array_equal(Xs, X[..., j])
        assert all(np.array_equal(a, b[..., j]) for a, b in zip(Ys, Y))
    for a, Yi in zip(cfg.agents, Y):
        if not a.has_measurement:
            assert not Yi.any()
    if not gc.empty:
        assert np.abs(np.tensordot(gc.Dbar, X, (1, 1)) - gc.dbar[:, None, None]).max() < 1e-9


@pytest.mark.parametrize("cfg", TRUTH_CASES.values(), ids=TRUTH_CASES.keys())
def test_truth_trial_does_not_depend_on_the_block_size(cfg):
    X3, Y3 = sim._noise_blocks(cfg, 3, 7)
    X50, Y50 = sim._noise_blocks(cfg, 50, 7)
    assert X50.shape[2] == 50
    assert np.array_equal(X50[..., :3], X3)
    assert all(np.array_equal(a[..., :3], b) for a, b in zip(Y50, Y3))


@pytest.mark.parametrize("cfg", TRUTH_CASES.values(), ids=TRUTH_CASES.keys())
def test_truth_draws_each_trials_stream_in_order(cfg):
    # x0 (n,), process noise (T, n), one (T, m_i) block per agent: each
    # generator ends where a fresh one does after that many normals
    children = np.random.SeedSequence(11).spawn(4)
    rngs = [np.random.default_rng(c) for c in children]
    generate_truth(cfg, rngs)
    n, T = cfg.model.n, cfg.T
    draws = n + T * n + sum(T * a.H.shape[0] for a in cfg.agents)
    for rng, child in zip(rngs, children):
        fresh = np.random.default_rng(child)
        fresh.standard_normal(draws)
        assert rng.bit_generator.state == fresh.bit_generator.state


# --- engine vs. plain Kalman filter -----------------------------------------

def test_single_agent_covariances_match_kf():
    cfg = single_agent_cfg(T=25)
    rm = run_time_based(cfg)
    x0, P = cfg.initial_pairs()[0]
    A, Q = cfg.model.A_at(0), cfg.model.Q_at(0)
    expect = [np.trace(P)]
    for _ in range(25):
        P = A @ P @ A.T + Q
        _, P = oracles.kf_update(np.zeros(2), P, np.zeros(1),
                                 cfg.agents[0].H, cfg.agents[0].R)
        expect.append(np.trace(P))
    assert np.allclose(rm.trace_p, expect, atol=1e-10)
    assert rm.lambda_ == 1.0  # nothing to communicate


def test_consensus_baseline_equals_filter_when_unconstrained():
    cfg = single_agent_cfg(T=20)
    a = run_time_based(cfg)
    b = consensus_baseline(cfg)
    assert np.array_equal(a.mse, b.mse)
    assert np.array_equal(a.trace_p, b.trace_p)


@pytest.mark.parametrize("cfg", [case1(trials=200), case2(T=150, trials=20)],
                         ids=["case1", "case2"])
def test_constraint_sq_is_the_public_constraint_error(cfg):
    # the recorder reads D̄·e; the public definition is the last s̄ coordinates
    # of Fᵀe, summed over coordinates, with F from space_decomposition
    rm = monte_carlo(cfg)
    X, ys = sim._noise_blocks(cfg, cfg.trials, cfg.seed)
    gc = cfg.global_constraint
    F = space_decomposition(gc)[0]
    assert rm.checkpoints == tuple(k for k in (50, 150, 250) if k <= cfg.T)
    for k, (est, *_) in enumerate(sim._filter_path(cfg, cfg.mode, ys, cfg.T, cfg.trials)):
        if k not in rm.checkpoints:
            continue
        want = np.array([np.mean(np.sum(constraint_error(e, X[k], F, gc.s_bar) ** 2, axis=0))
                         for e in est])
        got = np.array([rm.constraint_sq[(k, i)] for i in range(len(est))])
        # per agent against the agent mean: an agent on the set has rounding noise
        assert np.abs(got - want).max() <= 1e-10 * want.mean()


def test_constraint_residuals_tiny_on_case1():
    rm = run_time_based(case1(mode="time", T=60))
    assert rm.constraint_residuals.max() < 1e-9


def test_ckf_baseline_runs_and_diverges_without_constraint_rows():
    # the central stacked filter sees only H (no constraint information), so
    # its covariance keeps growing on the marginally stable vehicle model
    rm = ckf_baseline(case1(mode="time", T=120))
    assert rm.trace_p[120] > 3 * rm.trace_p[40]


def test_ckf_residual_does_not_depend_on_the_constraint_basis(monkeypatch):
    # D̄ is one orthonormal basis of the row space, chosen by the SVD; the
    # baseline's residual is taken against the agents' own (D_i, d_i), so a
    # rotated D̄ moves it only through the truth's last bits, and rows scaled
    # by 3 in every constrained agent scale it by 3
    cfg = case1(mode="time", T=60, trials=5)
    a = ckf_baseline(cfg).constraint_residuals
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s], [s, c]])

    def rotated_basis(agents):
        gc = build_global_constraint(agents)
        return GlobalConstraint(Dbar=R @ gc.Dbar, dbar=R @ gc.dbar)
    with monkeypatch.context() as mp:
        mp.setattr(sim, "build_global_constraint", rotated_basis)
        rotated = dataclasses.replace(cfg)
    assert not np.allclose(rotated.global_constraint.Dbar, cfg.global_constraint.Dbar)
    b = ckf_baseline(rotated).constraint_residuals
    assert a[1:].min() > 0
    assert np.allclose(b, a, rtol=1e-9, atol=0)
    scaled = dataclasses.replace(cfg, agents=[
        dataclasses.replace(ag, D=3 * ag.D, d=3 * ag.d) for ag in cfg.agents])
    assert np.allclose(ckf_baseline(scaled).constraint_residuals, 3 * a, rtol=1e-9, atol=0)


def test_runs_read_the_constraint_their_config_built(monkeypatch):
    # ScenarioConfig builds D̄ once; the truth, the recorder and the baselines
    # read that one instead of building it again.  A baseline's own network
    # (the CKF's one agent, the stripped agents) builds its own, so no call
    # may be handed the scenario's agents
    cfg = case1(mode="time", T=20, trials=3)
    event = dataclasses.replace(cfg, mode="event")
    own = {id(a) for a in cfg.agents}
    handed = []

    def recording(agents):
        handed.append([id(a) for a in agents])
        return build_global_constraint(agents)
    monkeypatch.setattr(sim, "build_global_constraint", recording)
    monte_carlo(cfg)
    run_event(event)
    ckf_baseline(cfg)
    consensus_baseline(cfg)
    assert handed and not any(own & set(ids) for ids in handed)


def test_consensus_residual_is_taken_against_the_truths_agents():
    # the stripped agents filter; the residual rows are the scenario's own,
    # so the estimates that never see the road show how far they leave it
    cfg = case1(mode="time", trials=5, T=60)
    rm = consensus_baseline(cfg)
    assert rm.constraint_residuals.max() > 1
    # the filtered numbers are those of a time-based run on stripped agents
    stripped = dataclasses.replace(cfg, agents=[
        dataclasses.replace(a, D=np.zeros((0, 4)), d=np.zeros(0)) for a in cfg.agents])
    X, ys = sim._noise_blocks(cfg, cfg.trials, cfg.seed)
    last = list(sim._filter_path(stripped, "time", ys, cfg.T, cfg.trials))[-1][0]
    errs = last - X[-1]
    assert rm.mse[-1] == np.mean(np.mean(np.sum(errs * errs, axis=1), axis=1))
    want = max(np.abs(a.D @ last[i] - a.d[:, None]).max()
               for i, a in enumerate(cfg.agents) if a.has_constraint)
    assert np.isclose(rm.constraint_residuals[-1], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cfg", [case1(mode="time", trials=20), case2(mode="time", trials=20)],
                         ids=["case1", "case2"])
def test_ckf_baseline_is_the_stacked_kalman_filter(cfg):
    # the centralized filter is the engine on one agent; the reference is a
    # plain predict/update loop on the stacked measuring agents
    rm = ckf_baseline(cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    X, Y = generate_truth(cfg, [np.random.default_rng(c) for c in children])
    meas = [i for i, a in enumerate(cfg.agents) if a.has_measurement]
    H = np.vstack([cfg.agents[i].H for i in meas])
    R = np.diag([cfg.agents[i].R.item() for i in meas])     # every R is 1×1 here
    rows = [a for a in cfg.agents if a.has_constraint]
    D, d = np.vstack([a.D for a in rows]), np.concatenate([a.d for a in rows])
    x0, P = cfg.initial_pairs()[0]
    x = np.tile(x0[:, None], (1, cfg.trials))
    want = {f: np.zeros(cfg.T + 1) for f in ("mse", "trace_p", "mean_error_norm",
                                              "constraint_residuals")}
    for k in range(cfg.T + 1):
        if k:
            A, Q = cfg.model.A_at(k - 1), cfg.model.Q_at(k - 1)
            x, P = A @ x, A @ P @ A.T + Q
            y = np.concatenate([Y[i][k - 1] for i in meas])
            cols = [oracles.kf_update(x[:, j], P, y[:, j], H, R) for j in range(cfg.trials)]
            x, P = np.stack([c[0] for c in cols], axis=1), cols[0][1]
        e = x - X[k]
        want["mse"][k] = np.mean(np.sum(e * e, axis=0))
        want["trace_p"][k] = np.trace(P)
        want["mean_error_norm"][k] = np.linalg.norm(e.mean(axis=1))
        want["constraint_residuals"][k] = np.abs(D @ x - d[:, None]).max()
    for f, v in want.items():
        assert np.allclose(getattr(rm, f), v, rtol=1e-12, atol=0), f


# --- engine and public rounds vs. the reference rounds -------------------------

def _round_steps(cfg, tpdkf, epdkf, trigger=TriggerState):
    """Per step k = 0..T: the states and the fired set (None at k = 0 and in
    time mode) of the rounds `tpdkf`/`epdkf` on trial 0 of the engine's noise
    stream, with the truth X.  `epdkf` takes one `trigger(x, P, 0, delta)`
    per agent: a `TriggerState`, or an `oracles.Anchor` for the reference."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    X, Y = generate_truth(cfg, rng)
    pairs = cfg.initial_pairs()
    states = [AgentState(i, ConsistentEstimate(x, P))
              for i, (x, P) in enumerate(pairs)]
    trig = [trigger(x, P, 0, a.delta) for (x, P), a in zip(pairs, cfg.agents)]
    args = (cfg.model, cfg.agents, cfg.topology)
    steps = [(states, None)]
    for k in range(1, cfg.T + 1):
        y = [Y[i][k - 1] for i in range(cfg.topology.N)]
        if cfg.mode == "time":
            steps.append((tpdkf(states, y, *args, cfg.L, k), None))
        else:
            steps.append(epdkf(states, trig, y, *args, k))
        states = steps[-1][0]
    return steps, X


def _reference_run(cfg):
    """Per-step MSE, fired sets and final (error, P) per agent of the
    reference rounds `oracles.tpdkf_round`/`oracles.epdkf_round`."""
    steps, X = _round_steps(cfg, oracles.tpdkf_round, oracles.epdkf_round,
                            oracles.Anchor)
    mse = [np.mean([np.sum((s.estimate.x - X[k]) ** 2) for s in states])
           for k, (states, _) in enumerate(steps)]
    fired = {k: f for k, (_, f) in enumerate(steps) if f}
    final = [(s.estimate.x - X[cfg.T], s.estimate.P) for s in steps[-1][0]]
    return np.array(mse), fired, final


ROUND_CASES = [
    case1(mode="time", L=2, T=60, seed=5),
    case2(mode="time", L=2, T=60, trials=1, seed=5),
    case1(mode="event", T=60, seed=5),
    case1(mode="event", T=60, seed=5, delta=(0.0, 0.0, 0.0)),
    case2(mode="event", T=60, trials=1, seed=5),
    case2(mode="event", T=60, trials=1, seed=5, delta=0.0),
]
ROUND_IDS = ["case1-time", "case2-time", "case1-event", "case1-event-d0",
             "case2-event", "case2-event-d0"]


@pytest.mark.parametrize("cfg", ROUND_CASES, ids=ROUND_IDS)
def test_engine_matches_reference_rounds(cfg):
    cfg = dataclasses.replace(cfg, checkpoints=(cfg.T,))
    rm = run_time_based(cfg) if cfg.mode == "time" else run_event(cfg)
    mse, fired, final = _reference_run(cfg)
    assert np.all(np.abs(rm.mse - mse) <= 1e-10 * mse)
    assert rm.fired_sets() == fired
    for i, (e, P) in enumerate(final):
        S = np.outer(e, e)
        assert np.abs(rm.sample_moment[(cfg.T, i)] - S).max() <= 1e-10 * np.abs(S).max()
        assert np.abs(rm.P_checkpoint[(cfg.T, i)] - P).max() <= 1e-10 * np.abs(P).max()


# --- event mode ---------------------------------------------------------------

def test_event_zero_threshold_fires_except_exact_ties():
    cfg = case1(mode="event", delta=(0.0, 0.0, 0.0), T=120)
    rm = run_event(cfg)
    silent = [(k, i, g) for k, i, g, fired in rm.trigger_log if not fired]
    # only the sensing-free agent's very first step carries zero gain
    assert silent == [(1, 1, 0.0)]
    assert rm.lambda_ == pytest.approx(1.0 - 2.0 / (120 * 4))


def test_event_trigger_log_independent_of_noise_seed():
    logs = []
    for seed in (0, 123):
        rm = run_event(case1(mode="event", T=60, seed=seed))
        logs.append(rm.trigger_log)
    assert len(logs[0]) == 3 * 60
    assert logs[0] == logs[1]


def test_event_lambda_decreases_with_larger_thresholds():
    lam = [run_event(case1(mode="event", delta=(d, d, d), T=80)).lambda_
           for d in (0.1, 0.5, 1.5)]
    assert lam[0] >= lam[1] >= lam[2]


def test_event_constraints_hold():
    rm = run_event(case1(mode="event", T=60))
    assert rm.constraint_residuals.max() < 1e-9


def test_case2_smoke():
    cfg = case2(T=25, trials=2)
    rm = monte_carlo(cfg)
    assert 0.0 <= rm.lambda_ <= 1.0
    assert rm.constraint_residuals.max() < 1e-9
    assert rm.mse.shape == (26,)


# --- reproducibility ------------------------------------------------------------

def test_monte_carlo_same_seed_bitwise():
    cfg = case1(mode="event", trials=8, seed=5)
    a = monte_carlo(cfg)
    b = monte_carlo(cfg)
    assert np.array_equal(a.mse, b.mse)
    assert np.array_equal(a.mean_error_norm, b.mean_error_norm)
    assert a.trigger_log == b.trigger_log


def test_monte_carlo_seed_changes_data():
    a = monte_carlo(case1(mode="time", trials=4, seed=0, T=40))
    b = monte_carlo(case1(mode="time", trials=4, seed=1, T=40))
    assert not np.array_equal(a.mse, b.mse)
    assert np.array_equal(a.trace_p, b.trace_p)  # covariances are data-free


def test_trials_override_used():
    rm = monte_carlo(case1(trials=1), trials=3, seed=11)
    assert rm.trials == 3 and rm.seed == 11


@pytest.mark.parametrize("cfg", [
    case1(mode="time", L=2, T=60),
    case1(mode="event", T=60),
    case2(mode="event", T=30, delta=0.0),
], ids=["case1-time", "case1-event", "case2-event-d0"])
def test_covariance_side_does_not_depend_on_trials(cfg):
    # the benchmark's reference values come from one-trial runs
    one, five = monte_carlo(cfg, trials=1), monte_carlo(cfg, trials=5)
    assert np.array_equal(one.trace_p, five.trace_p)
    assert np.array_equal(one.trace_p_agent, five.trace_p_agent)
    assert one.trigger_log == five.trigger_log
    assert len(one.trigger_log) == (cfg.T * cfg.topology.N if cfg.mode == "event" else 0)


@pytest.mark.parametrize("cfg", [case1(mode="event"), case2(), case2(N=60)],
                         ids=["case1", "case2", "case2-n60"])
def test_pilot_betas_cover_the_first_fifty_steps_of_a_time_run(cfg):
    # the pilot's pass holds no trials and runs no state step; its
    # covariances are those of a one-trial run
    rm = run_time_based(dataclasses.replace(cfg, checkpoints=range(1, 51)))
    mats = [P for _, P in cfg.initial_pairs()]
    mats += [rm.P_checkpoint[(k, i)] for k in range(1, 51) for i in range(cfg.topology.N)]
    expect = pilot_contraction_factors(mats, cfg.model.A_at(0), cfg.model.Q_at(0))
    assert sim.pilot_betas(cfg) == expect


def test_pilot_betas_build_no_second_scenario(monkeypatch):
    # the pilot's blocks hold min(T, 50) rows, which set the horizon of its
    # pass, so it runs on the scenario itself and checks none of it again
    # (a copy with T = 50 re-ran the global-constraint SVD)
    cfg, calls = case2(), []
    monkeypatch.setattr(sim, "build_global_constraint", calls.append)
    sim.pilot_betas(cfg)
    assert calls == []


@pytest.mark.parametrize("mode", ["time", "event"])
def test_filter_path_runs_the_steps_it_is_told_to_run(mode):
    cfg = case1(mode=mode, T=30)
    full, short = (list(sim._filter_path(cfg, mode, [], T, 0)) for T in (30, 7))
    assert len(full) == 31 and len(short) == 8
    for got, want in zip(short, full):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _zero_blocks(cfg, trials):
    """Zero measurements in the truth's format: one (g, T, m, trials) block
    per H group of cfg's step layout."""
    return [np.zeros((len(idx), cfg.T, H.shape[1], trials))
            for idx, H, _ in event.step_layout(cfg.agents, cfg.topology).meas]


SPLIT_CASES = {
    "case1-time-L2": case1(mode="time", L=2, T=60),
    "case1-event": case1(mode="event", T=60),
    "case2-event": case2(mode="event", T=60, delta=0.4),
    "case2-n60-event": case2(mode="event", N=60, T=30),
}


def _assert_covariance_side_without_trials(cfg):
    _X, ys = sim._noise_blocks(cfg, 5, cfg.seed)
    bare = list(sim._filter_path(cfg, cfg.mode, [], cfg.T, 0))
    full = list(sim._filter_path(cfg, cfg.mode, ys, cfg.T, 5))
    assert len(bare) == len(full) == cfg.T + 1
    for (est, *side), (_est, *ref) in zip(bare, full):
        assert est.shape == (cfg.topology.N, cfg.model.n, 0)
        for a, b in zip(side, ref):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("cfg", SPLIT_CASES.values(), ids=SPLIT_CASES.keys())
def test_a_pass_without_trials_yields_the_covariance_side_of_a_pass_with_them(cfg):
    _assert_covariance_side_without_trials(cfg)


@settings(max_examples=25, deadline=None)
@given(cfg=directed_scenarios())
def test_a_pass_without_trials_yields_the_covariance_side_on_random_networks(cfg):
    _assert_covariance_side_without_trials(cfg)


@pytest.mark.parametrize("cfg", [SPLIT_CASES["case1-time-L2"], SPLIT_CASES["case2-event"]],
                         ids=["case1-time-L2", "case2-event"])
def test_a_pass_without_trials_forms_no_state_map(cfg, monkeypatch):
    # no pinv of a projection's S, and the fusion's sums without the CI maps
    calls = []
    pinv, slot_sum = filt.pinv, filt.slot_sum

    def pinv_spy(M):
        calls.append("pinv")
        return pinv(M)

    def sum_spy(terms, sizes, maps=None):
        calls.append("slot_sum" if maps is None else "slot_sum with maps")
        return slot_sum(terms, sizes, maps)

    monkeypatch.setattr(filt, "pinv", pinv_spy)
    for module in (filt, event):
        monkeypatch.setattr(module, "slot_sum", sum_spy)
    for trials, want in ((0, {"slot_sum"}), (1, {"pinv", "slot_sum", "slot_sum with maps"})):
        calls.clear()
        for _ in sim._filter_path(cfg, cfg.mode, _zero_blocks(cfg, trials), cfg.T, trials):
            pass
        assert set(calls) == want
        assert calls.count("slot_sum") == cfg.T * (1 if cfg.mode == "event" else cfg.L)


def scalar_cfg(T=25, seed=8):
    """A one-state model on two agents, one of which measures it."""
    model = SystemModel(A=[[0.9]], Q=[[0.5]], x0_mean=[1.0], P0=[[2.0]])
    agents = [AgentSpec(H=[[1.0]], R=[[0.3]], D=np.zeros((0, 1)), d=np.zeros(0)),
              AgentSpec(H=[[0.0]], R=[[1.0]], D=np.zeros((0, 1)), d=np.zeros(0))]
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(np.full((2, 2), 0.5)), T=T, seed=seed)


@pytest.mark.parametrize("trials", [1, 3, 200])
@pytest.mark.parametrize("cfg", [*TRUTH_CASES.values(), scalar_cfg()],
                         ids=[*TRUTH_CASES.keys(), "scalar"])
def test_truth_equals_the_affine_recursion_bit_for_bit(cfg, trials):
    # one block sum per step adds the terms in the order of two _affine calls;
    # at n = 1 and one trial the sum's inner shape is degenerate
    children = np.random.SeedSequence(cfg.seed).spawn(trials)
    X, Y = generate_truth(cfg, [np.random.default_rng(c) for c in children])
    Xo, Yo = oracles.affine_truth(cfg, [np.random.default_rng(c) for c in children])
    assert np.array_equal(X, Xo)
    assert len(Y) == len(Yo) and all(np.array_equal(a, b) for a, b in zip(Y, Yo))


# --- persistence ------------------------------------------------------------------

def test_scenario_roundtrip(tmp_path):
    cfg = case1(mode="event", trials=2, seed=9)
    p = tmp_path / "case1.scn"
    save_scenario(cfg, str(p))
    loaded = load_scenario(str(p))
    assert scenario_hash(loaded) == scenario_hash(cfg)
    a, b = monte_carlo(cfg), monte_carlo(loaded)
    assert np.array_equal(a.mse, b.mse)


def test_numpy_integer_settings_save_reload_and_run_as_python_ints(tmp_path):
    # a numpy seed used to run but fail to save (int64 is not JSON serializable)
    cfg = case1(mode="event", T=np.int64(20), trials=np.int32(2), seed=np.int64(3))
    twin = case1(mode="event", T=20, trials=2, seed=3)
    assert all(type(getattr(cfg, f)) is int for f in ("T", "L", "trials", "seed"))
    save_scenario(cfg, str(tmp_path / "a.scn"))
    loaded = load_scenario(str(tmp_path / "a.scn"))
    assert scenario_hash(loaded) == scenario_hash(twin)
    runs = [monte_carlo(c) for c in (cfg, loaded, twin)]
    assert all(np.array_equal(r.mse, runs[2].mse) for r in runs)
    assert np.array_equal(monte_carlo(twin, trials=np.int64(2), seed=np.uint8(3)).mse,
                          runs[2].mse)
    with pytest.raises(ValueError, match=r"^trials must be an integer, got 2\.5$"):
        monte_carlo(twin, trials=2.5)


@pytest.mark.parametrize("override, message", [
    (dict(seed=-1), "^seed must be nonnegative, got -1$"),
    (dict(trials=0), "^trials must be at least 1, got 0$"),
], ids=["negative-seed", "zero-trials"])
def test_monte_carlo_checks_its_overrides_as_the_scenario_does(override, message):
    # a negative seed used to reach numpy, whose message names no field
    with pytest.raises(ValueError, match=message):
        monte_carlo(case1(mode="time", T=5), **override)


@pytest.mark.parametrize("theta", [np.float32(0.5), np.float64(0.5)], ids=["float32", "float64"])
def test_numpy_theta_saves_reloads_and_hashes_as_the_python_float(tmp_path, theta):
    # a float32 θ used to fail to save (float32 is not JSON serializable)
    cfg = dataclasses.replace(case1(T=20, trials=2), theta=theta)
    twin = dataclasses.replace(case1(T=20, trials=2), theta=0.5)
    assert type(cfg.theta) is float and cfg.theta == 0.5
    save_scenario(cfg, str(tmp_path / "a.scn"))
    loaded = load_scenario(str(tmp_path / "a.scn"))
    assert type(loaded.theta) is float
    assert scenario_hash(cfg) == scenario_hash(loaded) == scenario_hash(twin)
    assert (tmp_path / "a.scn").read_text() == sim._scenario_text(twin)


def test_scenario_roundtrip_preserves_overrides(tmp_path):
    cfg = dataclasses.replace(case1(T=20), x0_hat=np.array([50.0, 50.0, 0, 0]),
                              sim_q=np.zeros((4, 4)))
    p = tmp_path / "o.scn"
    save_scenario(cfg, str(p))
    loaded = load_scenario(str(p))
    assert np.allclose(loaded.x0_hat, cfg.x0_hat)
    assert np.allclose(loaded.sim_q, 0.0)
    assert scenario_hash(loaded) == scenario_hash(cfg)


def _rowless_blind(cfg):
    """cfg with its blind agent 1 given no measurement rows: H (0, n), R (0, 0)."""
    a, agents = cfg.agents[1], list(cfg.agents)
    agents[1] = AgentSpec(np.zeros((0, cfg.model.n)), np.zeros((0, 0)), a.D, a.d, a.eps,
                          a.delta)
    return dataclasses.replace(cfg, agents=agents)


def test_sim_r_takes_the_empty_block_of_an_agent_without_measurement_rows(tmp_path):
    cfg = _rowless_blind(case1(mode="event", T=20, trials=2, seed=4))
    with_r = dataclasses.replace(cfg, sim_r=[None, np.zeros((0, 0)), None])
    save_scenario(with_r, str(tmp_path / "a.scn"))
    loaded = load_scenario(str(tmp_path / "a.scn"))
    assert loaded.sim_r[1].shape == (0, 0)
    assert scenario_hash(loaded) == scenario_hash(with_r)
    assert np.array_equal(monte_carlo(loaded).mse, monte_carlo(cfg).mse)


@settings(max_examples=25, deadline=None)
@given(cfg=directed_scenarios(T=8))
def test_random_scenarios_round_trip_through_a_file(tmp_path_factory, cfg):
    # most draws hold an agent without measurement rows, H (0, n) and R (0, 0)
    path = str(tmp_path_factory.mktemp("random") / "a.scn")
    save_scenario(cfg, path)
    loaded = load_scenario(path)
    assert scenario_hash(loaded) == scenario_hash(cfg)
    a, b = monte_carlo(cfg, trials=2), monte_carlo(loaded, trials=2)
    for key in ("mse", "trace_p", "fired"):
        assert np.array_equal(getattr(a, key), getattr(b, key)), key


def _floats(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw)


def _array(draw, *shape, **kw):
    size = math.prod(shape)
    return np.array(draw(st.lists(_floats(**kw), min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def _covariance(draw, m):
    """Diagonal and nonnegative; its off-diagonal zeros are 0.0 or -0.0."""
    M = np.full((m, m), draw(st.sampled_from([0.0, -0.0])))
    np.fill_diagonal(M, _array(draw, m, min_value=0.0, max_value=1e6))
    return M


@st.composite
def scenario_configs(draw):
    N, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    steps = draw(st.sampled_from([1, 1, 2, 3]))       # A/Q lists when > 1

    def invertible():
        # triangular with a diagonal bounded away from zero
        sign = draw(st.sampled_from([1.0, -1.0]))
        return (np.triu(_array(draw, n, n, min_value=-10.0, max_value=10.0), 1)
                + sign * np.diag(_array(draw, n, min_value=0.5, max_value=2.0)))

    A = [invertible() for _ in range(steps)]
    Q = [_covariance(draw, n) for _ in range(draw(st.sampled_from([1, steps])))]
    model = SystemModel(A=A, Q=Q, x0_mean=_array(draw, n, min_value=-1e3, max_value=1e3),
                        P0=_covariance(draw, n))
    agents = []
    point = _array(draw, n, min_value=-10.0, max_value=10.0)  # every agent's d meets it
    for _ in range(N):
        m, s = draw(st.integers(1, 2)), draw(st.integers(0, n))
        # full row rank: the leading s × s block is diagonal and nonsingular
        D = _array(draw, s, n, min_value=-5.0, max_value=5.0)
        D[:, :s] = np.diag(_array(draw, s, min_value=0.5, max_value=2.0))
        R = _covariance(draw, m)
        R[np.diag_indices(m)] += 1.0
        agents.append(AgentSpec(
            H=_array(draw, m, n, min_value=-10.0, max_value=10.0), R=R,
            D=D, d=D @ point,
            eps=draw(_floats(min_value=1e-6, max_value=1.0)),
            delta=draw(_floats(min_value=0.0, max_value=10.0))))
    # a cycle keeps every network strongly connected; extra edges at random
    support = (np.eye(N, dtype=bool) | np.roll(np.eye(N, dtype=bool), 1, axis=1)
               | np.array(draw(st.lists(st.booleans(), min_size=N * N,
                                        max_size=N * N))).reshape(N, N))
    raw = support * _array(draw, N, N, min_value=0.1, max_value=1.0)
    weights = raw / raw.sum(axis=1, keepdims=True)
    x0_hat = draw(st.sampled_from([None, (n,), (N, n)]))
    opt = {}
    if x0_hat is not None:
        opt["x0_hat"] = _array(draw, *x0_hat, min_value=-1e3, max_value=1e3)
    for key in ("P0_init", "x0_cov", "sim_q"):
        if draw(st.booleans()):
            opt[key] = _covariance(draw, n)
    if draw(st.booleans()):
        opt["sim_r"] = [None if draw(st.booleans()) else _covariance(draw, a.R.shape[0])
                        for a in agents]
    return ScenarioConfig(
        model=model, agents=agents, topology=Topology(weights),
        T=draw(st.integers(1, 500)), L=draw(st.integers(1, 5)),
        mode=draw(st.sampled_from(["time", "event"])),
        trials=draw(st.integers(1, 1000)), seed=draw(st.integers(0, 2 ** 63)),
        theta=draw(_floats(min_value=0.0, max_value=10.0, exclude_min=True)),
        checkpoints=tuple(draw(st.lists(st.integers(0, 500), max_size=4))),
        name=draw(st.text(max_size=12)), **opt)


def _config_arrays(cfg):
    """Every float a scenario file holds, as named arrays (None where unset)."""
    m = cfg.model
    out = {"A": np.array(m.A), "Q": np.array(m.Q), "x0_mean": m.x0_mean,
           "P0": m.P0, "weights": cfg.topology.weights,
           "theta": np.float64(cfg.theta)}
    for i, a in enumerate(cfg.agents):
        for key in ("H", "R", "D", "d", "eps", "delta"):
            out[f"agents[{i}].{key}"] = np.asarray(getattr(a, key))
    for key in ("x0_hat", "P0_init", "x0_cov", "sim_q"):
        out[key] = getattr(cfg, key)
    for i, r in enumerate(cfg.sim_r or []):
        out[f"sim_r[{i}]"] = r
    return out


@settings(max_examples=60, deadline=None)
@given(cfg=scenario_configs())
def test_scenario_file_round_trip_is_exact(tmp_path_factory, cfg):
    work = tmp_path_factory.mktemp("roundtrip")
    save_scenario(cfg, str(work / "a.scn"))
    loaded = load_scenario(str(work / "a.scn"))
    save_scenario(loaded, str(work / "b.scn"))
    assert (work / "a.scn").read_bytes() == (work / "b.scn").read_bytes()
    scalars = ("name", "mode", "T", "L", "trials", "seed", "checkpoints")
    assert ([getattr(loaded, k) for k in scalars]
            == [getattr(cfg, k) for k in scalars])
    want, got = _config_arrays(cfg), _config_arrays(loaded)
    assert got.keys() == want.keys()
    for key, ref in want.items():
        if ref is None:
            assert got[key] is None, key
            continue
        assert got[key].shape == ref.shape, key
        assert np.array_equal(got[key], ref), key
        assert np.array_equal(np.signbit(got[key]), np.signbit(ref)), key


def test_load_scenario_rejects_garbage(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text('{"agents": [oops\n')
    with pytest.raises(ValueError, match="bad.scn"):
        load_scenario(str(p))
    p.write_bytes(b"\xff\xfe{}")            # not UTF-8
    with pytest.raises(ValueError, match="bad.scn"):
        load_scenario(str(p))
    p2 = tmp_path / "empty.scn"
    p2.write_text('{"model": {}}\n')
    with pytest.raises(ValueError):
        load_scenario(str(p2))
    p2.write_text('["just a list"]\n')
    with pytest.raises(ValueError, match="not a mapping"):
        load_scenario(str(p2))


@pytest.mark.parametrize("key, value, section", [
    ("sim", None, "sim"), ("sim", 5, "sim"), ("model", [1.0], "model"),
    ("topology", "W", "topology"), ("agents", [1, 2, 3], "agents"),
    ("agents", {"H": [[1.0]]}, "agents"),
])
def test_load_scenario_names_malformed_section(tmp_path, key, value, section):
    raw = sim._cfg_to_dict(case1(T=5))
    raw[key] = value
    p = tmp_path / "bad.scn"
    p.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"section '{section}'"):
        load_scenario(str(p))


def test_metrics_csv_deterministic(tmp_path):
    rm = run_event(case1(mode="event", T=30))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics_csv(str(p1), rm)
    write_metrics_csv(str(p2), rm)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "step,mse,trace_p,lambda_running,max_constraint_residual,mean_error_norm"
    assert len(p1.read_text().splitlines()) == 32  # header + T+1 rows


def test_triggers_csv_content(tmp_path):
    rm = run_event(case1(mode="event", T=10))
    p = tmp_path / "t.csv"
    write_triggers_csv(str(p), rm)
    lines = p.read_text().splitlines()
    assert lines[0] == "step,agent,g,fired"
    assert len(lines) == 1 + 3 * 10
    k, i, g, fired = lines[1].split(",")
    assert (int(k), int(i)) == (1, 0) and fired in ("0", "1")


@pytest.mark.parametrize("mode", ["time", "event"])
def test_csv_block_equals_the_row_by_row_format(tmp_path, mode):
    # one `%` over the whole block writes the bytes a format per row wrote
    rm = run_event(case1(mode=mode, T=40)) if mode == "event" else \
        run_time_based(case1(T=40))
    for name, cols in sim._csv_tables(rm).items():
        p = tmp_path / name
        (write_metrics_csv if name == "metrics.csv" else write_triggers_csv)(str(p), rm)
        row = ",".join("%.17g" if v.dtype.kind == "f" else "%d" for v in cols.values())
        want = ",".join(cols) + "\n" + "".join(
            (row + "\n") % r for r in zip(*(v.tolist() for v in cols.values())))
        assert p.read_text() == want
        assert len(want.splitlines()) == 1 + len(next(iter(cols.values())))


def _recorder_cfg(N, n, trials):
    """N agents on a complete graph, every other one constrained (one row, or
    two from the third agent on); the constraints agree with each other."""
    model = SystemModel(A=np.eye(n), Q=np.eye(n), x0_mean=np.zeros(n), P0=np.eye(n))
    rows = [0 if i % 2 else min(n, 1 + (i >= 2)) for i in range(N)]
    agents = [AgentSpec(H=np.eye(1, n), R=np.eye(1), D=np.eye(s, n),
                        d=np.array([0.5, -1.0][:s])) for s in rows]
    return ScenarioConfig(model=model, agents=agents, topology=Topology(np.full((N, N), 1 / N)),
                          T=30, trials=trials, checkpoints=(2,))


@pytest.mark.parametrize("N, n, trials", [(1, 1, 1), (1, 4, 9), (3, 4, 1), (4, 2, 200),
                                          (20, 4, 20)])
def test_recorder_equals_the_np_mean_formulas_bit_for_bit(N, n, trials):
    # the steps reach the recorder as blocks: step 0 as a chunk of one step,
    # steps 1..T as one chunk
    rng = np.random.default_rng(1000 * N + 10 * n + trials)
    cfg = _recorder_cfg(N, n, trials)
    rows = sim._own_rows(cfg.agents)
    rec = sim._Recorder(cfg, trials, 0, cfg.global_constraint, rows)
    steps = []
    for k in range(cfg.T + 1):
        scale = 10.0 ** rng.uniform(-3, 3, (N, 1, trials))
        est = scale * rng.standard_normal((N, n, trials))
        x_k = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((n, trials))
        P = np.stack([oracles.random_psd(rng, n, scale=10.0 ** rng.uniform(-3, 3))
                      for _ in range(N)])
        steps.append((est, x_k, P))
    for k0, k1 in [(0, 1), (1, cfg.T + 1)]:
        rec.record(k0, *(np.stack(v) for v in zip(*steps[k0:k1])))
    for k, (est, x_k, P) in enumerate(steps):
        m, errs = rec.metrics, est - x_k
        assert m.mse[k] == np.mean(np.mean(np.sum(errs * errs, axis=1), axis=1))
        assert np.array_equal(m.trace_p_agent[k], np.trace(P, axis1=1, axis2=2))
        assert m.trace_p[k] == np.mean(np.trace(P, axis1=1, axis2=2))
        mean = np.mean(np.mean(errs, axis=2), axis=0)
        # the norm is a numpy sum of squares, where np.linalg.norm takes a
        # BLAS dot, which may round the last bit differently
        assert m.mean_error_norm[k] == np.sqrt(np.sum(mean * mean))
        assert m.mean_error_norm[k] == pytest.approx(np.linalg.norm(mean), rel=5e-16)
        want = max([0.0] + [float(np.abs(r[0] @ est[i] - r[1][:, None]).max())
                            for i, r in enumerate(rows) if r is not None])
        assert m.constraint_residuals[k] == want


def _assert_same_metrics(got, want):
    for f in dataclasses.fields(sim.RunMetrics):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, dict):
            assert list(a) == list(b), f.name
            assert all(np.array_equal(a[key], b[key], equal_nan=True) for key in b), f.name
        else:
            assert np.array_equal(a, b, equal_nan=True), f.name


def test_recorder_reads_a_nan_estimate_as_the_per_step_recorder():
    # a NaN in a constrained agent's estimate: its group's residual is NaN,
    # and so is the step's max over groups (it used to skip that group)
    cfg = _recorder_cfg(3, 4, 5)
    rows, rng = sim._own_rows(cfg.agents), np.random.default_rng(7)
    est, X = rng.standard_normal((cfg.T + 1, 3, 4, 5)), rng.standard_normal((cfg.T + 1, 4, 5))
    est[2, 0, 1, 3] = np.nan
    P = np.stack([[oracles.random_psd(rng, 4) for _ in range(3)] for _ in range(cfg.T + 1)])
    ref = oracles.StepRecorder(cfg, 5, 0, cfg.global_constraint, rows)
    for k in range(cfg.T + 1):
        ref.record(k, est[k], X[k], P[k])
    rec = sim._Recorder(cfg, 5, 0, cfg.global_constraint, rows)
    rec.record(0, est.copy(), X, P)
    assert np.isnan(rec.metrics.mse[2]) and np.isnan(rec.metrics.constraint_residuals[2])
    assert np.isfinite(np.delete(rec.metrics.constraint_residuals, 2)).all()
    _assert_same_metrics(rec.finish(), ref.finish())


def ring_cfg(N, n, mode, T=30):
    """N agents on a ring (a path below three) with a time-invariant model;
    agent i measures coordinate i mod n, and from n = 2 on every other agent
    knows x_0 = 0.5."""
    model = SystemModel(A=np.eye(n) + 0.1 * np.eye(n, k=1), Q=np.eye(n),
                        x0_mean=np.zeros(n), P0=4.0 * np.eye(n))
    rows = [int(n > 1 and i % 2 == 0) for i in range(N)]
    agents = [AgentSpec(np.eye(1, n, i % n), [[1.0 + i % 3]], np.eye(r, n), [0.5] * r,
                        0.01, 0.3) for i, r in enumerate(rows)]
    adj = np.zeros((N, N))
    for i in range(N - 1 if N < 3 else N):
        adj[i, (i + 1) % N] = adj[(i + 1) % N, i] = 1.0
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(sim.metropolis_weights(adj) if N > 1 else [[1.0]]),
                          T=T, mode=mode, seed=4)


# name -> (scenario, its run, the agents of the network its pass records)
CHUNK_CASES = {
    "scalar-time": (ring_cfg(1, 1, "time"), monte_carlo, 1),
    "scalar-event": (ring_cfg(1, 1, "event"), monte_carlo, 1),
    "case1-time": (case1(mode="time", L=2, T=30), monte_carlo, 3),
    "case1-event": (case1(mode="event", T=30), monte_carlo, 3),
    "ring13-time": (ring_cfg(13, 2, "time"), monte_carlo, 13),
    "ring13-event": (ring_cfg(13, 2, "event"), monte_carlo, 13),
    "ckf": (case1(mode="time", T=30), ckf_baseline, 1),
    "consensus": (case1(mode="time", T=30), consensus_baseline, 3),
}


@pytest.mark.parametrize("K", [1, 7, 40])
@pytest.mark.parametrize("trials", [1, 5])
@pytest.mark.parametrize("case", CHUNK_CASES)
def test_chunked_recording_equals_the_per_step_recorder_bit_for_bit(monkeypatch, case,
                                                                   trials, K):
    # checkpoints at the prior, at the last step of a chunk of 7, at the first
    # step of the next chunk and at T; 7 does not divide T + 1 = 31
    cfg, run, N = CHUNK_CASES[case]
    cfg = dataclasses.replace(cfg, trials=trials, checkpoints=(0, 6, 7, 30))
    with monkeypatch.context() as patch:
        patch.setattr(sim, "_run_core", oracles.step_recorded_run)
        want = run(cfg)
    chunks, record = [], sim._Recorder.record

    def spy(rec, k0, est, X, P):
        chunks.append((k0, len(est)))
        return record(rec, k0, est, X, P)

    n = cfg.model.n
    monkeypatch.setattr(sim, "_CHUNK_BYTES", K * 8 * N * n * (trials + n))
    monkeypatch.setattr(sim._Recorder, "record", spy)
    got = run(cfg)
    K = min(K, cfg.T + 1)
    assert chunks == [(k0, min(K, cfg.T + 1 - k0)) for k0 in range(0, cfg.T + 1, K)]
    _assert_same_metrics(got, want)
    assert set(got.sample_moment) == {(k, i) for k in (0, 6, 7, 30) for i in range(N)}


def test_manifest_deterministic_and_complete(tmp_path):
    cfg = case1(mode="event", trials=2, seed=4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_manifest(str(p1), cfg, overrides={"delta": [0.3, 0.4, 0.8]})
    write_manifest(str(p2), cfg, overrides={"delta": [0.3, 0.4, 0.8]})
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["scenario_sha256"] == scenario_hash(cfg)
    assert doc["scenario"] == cfg.name
    assert doc["seed"] == 4 and doc["trials"] == 2
    assert "numpy" in doc["versions"] and "python" in doc["versions"]
    assert not any("time" in key or "date" in key for key in doc)


# --- the stacked engine on agents of mixed shapes -------------------------------

def heterogeneous_cfg(mode, T=40, seed=2):
    """Five agents with 1- and 2-row H and D (an offset road), a blind agent
    and two unconstrained ones (one with an all-zero 2-row D), on a ring with a
    chord, so agents fuse 3 or 4 pairs.  Time mode runs a time-varying A."""
    n = 4
    A0 = np.array([[1.0, 0.0, 0.1, 0.0], [0.0, 1.0, 0.0, 0.1],
                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    A = A0 if mode == "event" else [
        A0 @ np.diag([1.0, 1.0, 1.0 + 0.02 * np.sin(k), 1.0 - 0.02 * np.cos(k)])
        for k in range(T)]
    model = SystemModel(A, np.diag([4.0, 4.0, 1.0, 1.0]), np.zeros(n),
                        np.diag([100.0, 100.0, 4.0, 4.0]))
    e = np.eye(n)
    agents = [
        AgentSpec(e[:1], [[2.0]], ROAD_D[:1], [1.0], 0.01, 0.3),
        AgentSpec(e[1:3], np.diag([3.0, 1.0]), ROAD_D, [1.0, -0.5], 0.02, 0.0),
        AgentSpec(np.zeros((1, n)), [[1.0]], np.zeros((0, n)), [], 0.01, 0.5),
        AgentSpec(e[[0, 3]], np.diag([2.0, 0.5]), ROAD_D[1:], [-0.5], 0.05, 0.2),
        AgentSpec(0.3 * e[1:2], [[4.0]], np.zeros((2, n)), [0.0, 0.0], 0.01, 1.0),
    ]
    adj = np.zeros((5, 5))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]:
        adj[i, j] = adj[j, i] = 1.0
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(sim.metropolis_weights(adj)), T=T,
                          L=2, mode=mode, seed=seed, checkpoints=(T,))


@pytest.mark.parametrize("mode", ["time", "event"])
def test_engine_matches_reference_rounds_on_mixed_shapes(mode):
    cfg = heterogeneous_cfg(mode)
    rm = run_time_based(cfg) if mode == "time" else run_event(cfg)
    mse, fired, final = _reference_run(cfg)
    assert np.all(np.abs(rm.mse - mse) <= 1e-10 * mse)
    assert rm.fired_sets() == fired
    if mode == "event":
        assert 0.0 < rm.lambda_ < 1.0
    for i, (e, P) in enumerate(final):
        S = np.outer(e, e)
        assert np.abs(rm.sample_moment[(cfg.T, i)] - S).max() <= 1e-10 * np.abs(S).max()
        assert np.abs(rm.P_checkpoint[(cfg.T, i)] - P).max() <= 1e-10 * np.abs(P).max()


@settings(max_examples=25, deadline=None)
@given(cfg=directed_scenarios())
def test_engine_matches_reference_rounds_on_random_directed_networks(cfg):
    rm = run_time_based(cfg) if cfg.mode == "time" else run_event(cfg)
    mse, fired, _final = _reference_run(cfg)
    assert np.all(np.abs(rm.mse - mse) <= 1e-10 * mse)
    assert rm.fired_sets() == fired
    # λ by its definition, one step and one agent at a time
    receivers = [np.count_nonzero(cfg.topology.weights[:, i]) - 1
                 for i in range(cfg.topology.N)]
    silent, lam = 0, [1.0]
    for k in range(1, cfg.T + 1):
        silent += sum(d for i, d in enumerate(receivers) if i not in fired.get(k, ()))
        lam.append(1.0 - silent / (k * sum(receivers))
                   if cfg.mode == "event" and sum(receivers) else 1.0)
    assert rm.lambda_running.tolist() == lam


@pytest.mark.parametrize("mode", ["time", "event"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_constrained_agents_meet_their_constraints_on_random_networks(mode, data):
    # the paper's satisfied SEC: from step 1 on, each constrained agent's
    # estimate lies on its own constraint set D_i x = d_i to rounding, for
    # every trial (step 0 holds the initial estimates, which are not projected)
    cfg = data.draw(directed_scenarios(T=30, modes=(mode,)))
    _X, ys = sim._noise_blocks(cfg, 3, cfg.seed)
    for k, (est, *_) in enumerate(sim._filter_path(cfg, mode, ys, cfg.T, 3)):
        for a, x in zip(cfg.agents, est) if k else ():
            if a.has_constraint:
                scale = np.abs(a.D) @ np.abs(x) + np.abs(a.d)[:, None]
                assert (np.abs(a.D @ x - a.d[:, None]) <= 1e-12 * scale).all(), k


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: at δ = 0 a score that is zero in exact "
                          "arithmetic fires on the sign of its rounding error")
def test_agent_without_any_information_source_never_fires_at_zero_threshold():
    # one agent with no measurement and no constraint: its fresh pair is its
    # held extrapolation in exact arithmetic at every step, so g = 0 and it
    # never gains enough to broadcast
    n = 2
    model = SystemModel(np.array([[1.05, -0.48], [0.0, 0.91]]),
                        np.array([[1.09, -0.21], [-0.21, 0.31]]),
                        np.array([-2.3, -0.2]), np.diag([3.9, 4.8]))
    blind = AgentSpec(np.zeros((0, n)), np.zeros((0, 0)), np.zeros((0, n)), np.zeros(0))
    rm = run_event(ScenarioConfig(model=model, agents=[blind], mode="event", T=30,
                                  topology=Topology(np.array([[1.0]]))))
    assert np.abs(rm.g).max() < 1e-14
    assert not rm.fired.any()


@pytest.mark.parametrize("mode", ["time", "event"])
def test_filter_path_never_changes_what_it_yielded(mode):
    # pilot_betas keeps every yielded covariance, and the recorder reads each
    # step's stacks only after the next step may have started
    cfg = heterogeneous_cfg(mode, T=12)
    _X, ys = sim._noise_blocks(cfg, 2, 3)
    kept = []
    for out in sim._filter_path(cfg, mode, ys, cfg.T, 2):
        for arrays, copies in kept:
            assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
        arrays = [np.asarray(v) for v in out]
        kept.append((arrays, [a.copy() for a in arrays]))
    assert len(kept) == cfg.T + 1


def test_filter_path_names_the_guard_and_the_step_of_a_failure():
    # A scaled by 50: the covariances are data-free, so a pass on no trials
    # fails where a run does, at the step guard that names agent 1; the
    # padded reference fails with the same message
    cfg = case1(mode="event", T=120, delta=(0.4, 0.4, 0.4))
    m = cfg.model
    cfg.model = SystemModel(50 * m.A[0], m.Q[0], m.x0_mean, m.P0)
    ys = _zero_blocks(cfg, 0)
    for path in (sim._filter_path, padded.padded_filter_path):
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^the run diverged: the covariance of agent 1 is not "
                                  r"finite at step 90$"):
            for _ in path(cfg, "event", ys, cfg.T, 0):
                pass


def _tiny_eps(cfg, eps):
    return dataclasses.replace(cfg, agents=[dataclasses.replace(a, eps=eps) if a.has_constraint
                                            else a for a in cfg.agents])


def _stiff_cfg():
    """One agent whose two measurement rows are 1e20 more precise than its
    process noise: the update's covariance loses definiteness to rounding."""
    model = SystemModel(A=np.eye(2), Q=1e8 * np.array([[2.0, 1.0], [1.0, 2.0]]),
                        x0_mean=np.zeros(2), P0=np.eye(2))
    agent = AgentSpec(H=np.array([[1.0, 0.5], [0.3, 1.0]]), R=1e-12 * np.eye(2),
                      D=np.zeros((0, 2)), d=np.zeros(0))
    return ScenarioConfig(model=model, agents=[agent], topology=Topology(np.ones((1, 1))),
                          T=20, trials=2)


@pytest.mark.parametrize("cfg, message", [
    # ε = 1e-14: the blind agent's information sum is singular (a LinAlgError
    # inside a kernel, which names no agent of its own)
    (_tiny_eps(case1(mode="time", L=2, T=100, trials=20), 1e-14),
     r"the fusion of agent 1: Singular matrix at step 42"),
    # a guard's ValueError, not a LinAlgError
    (_stiff_cfg(), r"the covariance of agent 0 must be positive definite at step \d+"),
], ids=["kernel", "guard"])
def test_every_failure_of_a_step_names_its_agent_and_step(cfg, message, monkeypatch):
    # the failing step lies inside a chunk, which is run again step by step
    calls, step = [], sim.filter_step

    def spy(layout, est, P, ys, As, *args):
        calls.append([len(As), "raised"])
        out = step(layout, est, P, ys, As, *args)
        calls[-1][1] = "ran"
        return out

    monkeypatch.setattr(sim, "filter_step", spy)
    with pytest.raises(ValueError, match=rf"^the run diverged: {message}$"):
        monte_carlo(cfg)
    first = [status for _, status in calls].index("raised")
    k0, K = 1 + sum(K for K, _ in calls[:first]), calls[first][0]
    if "step 42" in message:
        assert k0 < 42 < k0 + K - 1
    assert K > 1 and all(K == 1 for K, _ in calls[first + 1:])
    assert [status for _, status in calls[first + 1:]][-1] == "raised"


def _chunk_bytes(cfg, trials, K):
    """The `_CHUNK_BYTES` at which `_filter_path` runs cfg in chunks of K steps."""
    layout = event.step_layout(cfg.agents, cfg.topology)
    N, n, E = cfg.topology.N, cfg.model.n, len(layout.src)
    rounds = 1 if cfg.mode == "event" else cfg.L
    return K * 8 * n * (N * (trials + n) + (rounds * (3 * N + 4 * E) * n if trials else 0))


def _assert_chunks_equal_single_steps(cfg, trials=3, Ks=(2, 7)):
    """Every yielded (est, P, g, fired) of passes in chunks of each K equals a
    pass of one-step chunks bit for bit, signbit included; cfg.T is a
    multiple of no K."""
    _X, ys = sim._noise_blocks(cfg, trials, cfg.seed)
    passes, step = {}, sim.filter_step
    for K in (1, *Ks):
        chunks = []

        def spy(layout, est, P, ys, As, *args):
            chunks.append(len(As))
            return step(layout, est, P, ys, As, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK_BYTES", _chunk_bytes(cfg, trials, K))
            patch.setattr(sim, "filter_step", spy)
            passes[K] = list(sim._filter_path(cfg, cfg.mode, ys, cfg.T, trials))
        assert chunks == [min(K, cfg.T + 1 - k0) for k0 in range(1, cfg.T + 1, K)]
    for K in Ks:
        assert len(passes[K]) == cfg.T + 1
        for got, want in zip(passes[K], passes[1], strict=True):
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


CHUNKED_PASSES = {
    "case1-time-L2": case1(mode="time", L=2, T=23),
    "case1-event": case1(mode="event", T=23),
    "case2-time-L2": case2(mode="time", L=2, T=23),
    "case2-event": case2(mode="event", T=23, delta=0.4),
    "case2-n60-event": case2(mode="event", N=60, T=23, delta=0.4),
    "mixed-time-varying-A": heterogeneous_cfg("time", T=23),
    "mixed-event": heterogeneous_cfg("event", T=23),
}


@pytest.mark.parametrize("cfg", CHUNKED_PASSES.values(), ids=CHUNKED_PASSES.keys())
def test_a_pass_in_chunks_equals_a_pass_step_by_step_bit_for_bit(cfg):
    _assert_chunks_equal_single_steps(cfg)


@settings(max_examples=10, deadline=None)
@given(cfg=directed_scenarios(T=23))
def test_a_pass_in_chunks_equals_a_pass_step_by_step_on_random_networks(cfg):
    _assert_chunks_equal_single_steps(cfg)


def test_a_chunk_forms_its_projection_maps_with_one_pinv_per_D_group(monkeypatch):
    # case1 time L=2: one D group, so one pinv per chunk over its (steps ×
    # rounds) stack, not one per step and round
    cfg = case1(mode="time", L=2)
    _X, ys = sim._noise_blocks(cfg, 200, cfg.seed)
    chunks, stacks, step, pinv = [], [], sim.filter_step, filt.pinv

    def step_spy(layout, est, P, ys, As, *args):
        chunks.append(len(As))
        return step(layout, est, P, ys, As, *args)

    def pinv_spy(M):
        stacks.append(M.shape)
        return pinv(M)

    monkeypatch.setattr(sim, "filter_step", step_spy)
    monkeypatch.setattr(filt, "pinv", pinv_spy)
    for _ in sim._filter_path(cfg, "time", ys, cfg.T, 200):
        pass
    assert len(event.step_layout(cfg.agents, cfg.topology).proj) == 1
    assert sum(chunks) == cfg.T and max(chunks) > 1
    assert [shape[0] for shape in stacks] == [cfg.L * K for K in chunks]


@pytest.mark.parametrize("T, trials, blocks, message", [
    (31, 3, None, r"the measurement block of H group 0 is \(2, 30, 1, 3\), "
                  r"not \(g, at least 31 steps, m, 3 trials\)"),
    (30, 2, None, r"the measurement block of H group 0 is \(2, 30, 1, 3\), "
                  r"not \(g, at least 30 steps, m, 2 trials\)"),
    (30, 3, [], r"ys holds 0 blocks for 1 H groups"),
], ids=["short", "trials", "missing"])
def test_filter_path_checks_its_blocks_before_the_first_step(T, trials, blocks, message):
    # a block shorter than T, of other trials or missing used to fail inside
    # a step (an IndexError, or a broadcast error read as a divergence)
    cfg = case1(mode="time", T=30)
    ys = _zero_blocks(cfg, 3) if blocks is None else blocks
    with pytest.raises(ValueError, match=rf"^{message}$"):
        next(sim._filter_path(cfg, "time", ys, T, trials))


def test_the_truth_draws_the_layouts_blocks_and_every_step_reads_them_as_views(monkeypatch):
    # one (g, T, m, trials) block per H group of the step layout, its rows the
    # group's measuring agents; case1's group is agents 0 and 2 around the
    # blind agent 1, and the mixed network's 1-row group agents 0 and 4
    reads, step = [], sim.filter_step

    def spy(layout, est, P, ys, As, *args):
        reads.append((ys, len(As)))
        return step(layout, est, P, ys, As, *args)

    monkeypatch.setattr(sim, "filter_step", spy)
    for cfg, blind in ((heterogeneous_cfg("time", T=10), [2]), (case1(mode="time", T=10), [1]),
                       (_rowless_blind(case1(mode="event", T=10)), [1])):
        meas = event.step_layout(cfg.agents, cfg.topology).meas
        _X, ys = sim._noise_blocks(cfg, 3, cfg.seed)
        assert [y.shape for y in ys] == [(len(idx), cfg.T, H.shape[1], 3) for idx, H, _ in meas]
        reads.clear()
        for _ in sim._filter_path(cfg, cfg.mode, ys, cfg.T, 3):
            pass
        k0 = 0      # each chunk reads its rows of every block, each step once
        for got, K in reads:
            assert len(got) == len(ys)
            for y, block in zip(got, ys):
                assert np.shares_memory(y, block) and np.array_equal(y, block[:, k0:k0 + K])
            k0 += K
        assert k0 == cfg.T
        # the public form: a measuring agent's Y[i] is its row of one block, a
        # view; an agent that does not measure gets exact zeros
        children = np.random.SeedSequence(cfg.seed).spawn(3)
        _X, Y = generate_truth(cfg, [np.random.default_rng(c) for c in children])
        for (idx, *_), block in zip(meas, ys):
            base = Y[idx[0]].base
            assert base.shape == block.shape
            for row, i in enumerate(idx):
                assert Y[i].base is base and np.shares_memory(Y[i], base[row])
                assert np.array_equal(Y[i], block[row])
        for i in blind:
            assert Y[i].shape == (cfg.T, cfg.agents[i].H.shape[0], 3)
            assert not Y[i].any() and not np.signbit(Y[i]).any()


def test_every_driver_draws_its_truth_through_generate_truth(monkeypatch):
    # the drivers read `_truth`'s blocks, but draw them inside the public
    # generate_truth, so a profile of a run finds its truth under that name
    calls, draw = [], sim.generate_truth

    def spy(cfg, rng, **kw):
        calls.append(kw)
        return draw(cfg, rng, **kw)

    monkeypatch.setattr(sim, "generate_truth", spy)
    cfg = case1(mode="event", T=20, trials=3)
    for run in (monte_carlo, sim.run_event, sim.ckf_baseline, sim.consensus_baseline):
        run(cfg)
    assert calls == [{"_blocks": True}] * 4
    X, ys = draw(cfg, [np.random.default_rng(0)], _blocks=True)
    assert X.shape == (21, 4, 1) and [y.shape[:2] for y in ys] == [(2, 20)]


def _measuring_none(cfg, rowless):
    """cfg with every agent's H a zero row (R kept), or no rows at all."""
    n = cfg.model.n
    return dataclasses.replace(cfg, agents=[
        dataclasses.replace(a, H=np.zeros((0, n)), R=np.zeros((0, 0))) if rowless
        else dataclasses.replace(a, H=np.zeros((1, n))) for a in cfg.agents])


@pytest.mark.parametrize("mode", ["time", "event"])
@pytest.mark.parametrize("rowless", [False, True], ids=["zero-rows", "rowless"])
def test_a_network_where_no_agent_measures_runs_every_driver(mode, rowless):
    # the layout has no H group, so the truth draws no block and the pass is
    # told T and the trials; the drivers still filter on the constraints alone
    cfg = _measuring_none(case1(mode=mode, T=30, trials=4), rowless)
    assert event.step_layout(cfg.agents, cfg.topology).meas == []
    _X, ys = sim._noise_blocks(cfg, cfg.trials, cfg.seed)
    assert ys == []
    steps = list(sim._filter_path(cfg, mode, ys, cfg.T, cfg.trials))
    assert len(steps) == cfg.T + 1
    for est, P, *_ in steps:
        assert est.shape == (3, cfg.model.n, cfg.trials)
        assert np.isfinite(est).all() and np.isfinite(P).all()
    for rm in (monte_carlo(cfg), ckf_baseline(cfg), consensus_baseline(cfg)):
        for f in ("mse", "trace_p", "lambda_running", "constraint_residuals",
                  "mean_error_norm", "g"):
            assert np.isfinite(getattr(rm, f)).all(), f
    assert np.isfinite(sim.pilot_betas(cfg)).all()


def _constrained_blocks(cfg, ks=(10, 50, 100), Ls=(1, 2, 4, 8)):
    """{(L, k): max over agents of tr(D̄ P D̄ᵀ)} from zero-trial time passes."""
    Dbar, out = cfg.global_constraint.Dbar, {}
    for L in Ls:
        run = dataclasses.replace(cfg, L=L, mode="time", T=max(ks))
        for k, (_, P, _, _) in enumerate(sim._filter_path(run, "time", [], run.T, 0)):
            if k in ks:
                out[(L, k)] = np.trace(Dbar @ P @ Dbar.T, axis1=1, axis2=2).max()
    return out


def _assert_consensus_steps_shrink_the_constrained_block(cfg):
    blocks = _constrained_blocks(cfg)
    for k in (10, 50, 100):
        for L, L2 in ((1, 2), (2, 4), (4, 8)):
            assert blocks[(L2, k)] <= blocks[(L, k)], (k, L, L2, blocks)
    return blocks


def test_consensus_steps_shrink_the_constrained_covariance_of_the_bundled_cases():
    # the abstract: the error covariance in the constraint set can be made
    # arbitrarily small by a large enough consensus step L
    for cfg, at_100 in ((case1(mode="time"), (6.09, 7.48e-3, 2.50e-3, 1.07e-3)),
                        (case2(mode="time"), (24.1, 9.03, 5.02e-2, 6.45e-3))):
        blocks = _assert_consensus_steps_shrink_the_constrained_block(cfg)
        got = [blocks[(L, 100)] for L in (1, 2, 4, 8)]
        assert np.allclose(got, at_100, rtol=5e-3), got


@settings(max_examples=12, deadline=None)
@given(cfg=directed_scenarios(T=100, modes=("time",)))
def test_consensus_steps_shrink_the_constrained_covariance_on_random_networks(cfg):
    assume(not cfg.global_constraint.empty)
    _assert_consensus_steps_shrink_the_constrained_block(cfg)


PADDED_CASES = {
    "case1-time": case1(mode="time", L=2, T=60, trials=5, seed=5),
    "case1-event": case1(mode="event", T=60, trials=5, seed=5),
    "case2-time": case2(mode="time", L=2, T=60, trials=3, seed=5),
    "case2-event": case2(mode="event", T=60, trials=3, seed=5),
    "case2-n60-event": case2(mode="event", N=60, T=30, trials=3, seed=5),
    "case2-n200-event": case2(mode="event", N=200, T=30, trials=2, seed=5),
    "mixed-time": heterogeneous_cfg("time"),
    "mixed-event": heterogeneous_cfg("event"),
}


def _assert_padded_path(cfg, mode):
    _X, ys = sim._noise_blocks(cfg, cfg.trials, cfg.seed)
    got = list(sim._filter_path(cfg, mode, ys, cfg.T, cfg.trials))
    want = list(padded.padded_filter_path(cfg, mode, ys, cfg.T, cfg.trials))
    assert len(got) == len(want) == cfg.T + 1
    for step, ref in zip(got, want):
        for a, b in zip(step, ref):
            a, b = np.asarray(a), np.asarray(b)
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("cfg", PADDED_CASES.values(), ids=PADDED_CASES.keys())
def test_filter_path_equals_the_padded_fusion_bit_for_bit(cfg):
    # the slot-major edge list adds each agent's terms in the padded order
    _assert_padded_path(cfg, cfg.mode)


def test_time_and_event_passes_share_one_layout_and_equal_the_padded_fusion():
    # the step's mode comes from its held pairs, not from the layout: one
    # build, by the first truth, which reads the layout's H groups, then a
    # cache hit for its pass and for the second mode's truth and pass
    cfg = case1(mode="event", L=2, T=40, trials=3, seed=8)
    before = event._build_layout.cache_info()
    for mode in ("time", "event"):
        _assert_padded_path(cfg, mode)
    after = event._build_layout.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)


ENGINE_CASES = {
    "case1-time": case1(mode="time", L=2, T=60, seed=5),
    "case2-time": case2(mode="time", L=3, T=60, trials=1, seed=5),
    "case1-event": case1(mode="event", T=60, seed=5),
    "case1-event-d0": case1(mode="event", T=60, seed=5, delta=(0.0, 0.0, 0.0)),
    "case2-event": case2(mode="event", T=60, trials=1, seed=5, delta=0.4),
    "case2-event-d1.2": case2(mode="event", T=60, trials=1, seed=5, delta=1.2),
    "case2-n60-event": case2(mode="event", N=60, T=60, trials=1, seed=5),
}


@pytest.mark.parametrize("cfg", ENGINE_CASES.values(), ids=ENGINE_CASES.keys())
def test_public_rounds_equal_the_engine_bit_for_bit(cfg):
    # the rounds and a one-trial engine pass are one program: same kernels,
    # same held-pair recursion, so every step's numbers are the same bits
    steps, _X = _round_steps(cfg, tpdkf_round, epdkf_round)
    _X, ys = sim._noise_blocks(cfg, 1, cfg.seed)
    path = list(sim._filter_path(cfg, cfg.mode, ys, cfg.T, 1))
    assert len(steps) == len(path) == cfg.T + 1
    for (states, fired), (est, P, _g, engine_fired) in zip(steps[1:], path[1:]):
        if cfg.mode == "event":
            assert fired == set(np.flatnonzero(engine_fired).tolist())
        for s, x, p in zip(states, est[:, :, 0], P):
            assert np.array_equal(s.estimate.x, x)
            assert np.array_equal(s.estimate.P, p)


# `heterogeneous_cfg` is defined above, so the mixed shapes join the list here
@pytest.mark.parametrize("cfg", ROUND_CASES + [heterogeneous_cfg("time"),
                                               heterogeneous_cfg("event")],
                         ids=ROUND_IDS + ["mixed-time", "mixed-event"])
def test_public_rounds_match_reference_rounds(cfg):
    # the stacked rounds against the per-agent composition, step by step
    got, _ = _round_steps(cfg, tpdkf_round, epdkf_round)
    want, _ = _round_steps(cfg, oracles.tpdkf_round, oracles.epdkf_round,
                           oracles.Anchor)
    for (states, fired), (ref, ref_fired) in zip(got, want):
        assert fired == ref_fired
        assert [s.id for s in states] == [s.id for s in ref]
        for s, r in zip(states, ref):
            for a, b in ((s.estimate.x, r.estimate.x), (s.estimate.P, r.estimate.P)):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
