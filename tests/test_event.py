import dataclasses

import numpy as np
import pytest

from pdkf import event
from pdkf import filter as filter_module
from pdkf.event import TriggerState, epdkf_round, tpdkf_round, trigger_from_info
from pdkf.filter import (AgentState, ConsistentEstimate, _check_pd, _ensure_pd, kalman_gain,
                         symmetrize)
from pdkf.model import AgentSpec, SystemModel, Topology, metropolis_weights
from pdkf.sim import case1, case2

import oracles


def trigger_one(P_tilde, P_bar_tilde, delta):
    """The engine's trigger on one pair: `_check_pd` and `inv` of each
    covariance as a stack of one, then `trigger_from_info`."""
    info, info_bar = (np.linalg.inv(_check_pd([M], "covariance of agent"))
                      for M in (P_tilde, P_bar_tilde))
    g, fired = trigger_from_info(info, info_bar, np.array([delta]))
    return g[0], fired[0]


def test_information_gain_scalar():
    # at delta = 0 the trigger score is the information gain itself
    assert trigger_one([[0.5]], [[1.0]], 0.0)[0] == pytest.approx(1.0)


def test_information_gain_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        trigger_one([[-1.0]], [[1.0]], 0.0)


def test_trigger_exact_tie_stays_silent():
    # gain equals the threshold exactly: strict inequality, no fire
    g, fired = trigger_one([[0.5]], [[1.0]], delta=1.0)
    assert g == pytest.approx(0.0)
    assert not fired
    g, fired = trigger_one([[0.4]], [[1.0]], delta=1.0)
    assert g > 0 and fired
    # the same tie in information form, on the inverses
    g, fired = trigger_from_info(np.array([[[2.0]]]), np.array([[[1.0]]]), np.ones(1))
    assert (g.tolist(), fired.tolist()) == ([0.0], [False])


@pytest.mark.parametrize("seed", range(5))
def test_trigger_from_info_matches_trigger_eval(seed):
    # against the hand-rolled covariance-form trigger `oracles.trigger_eval`
    rng = np.random.default_rng(seed)
    P, P_bar = oracles.random_psd(rng, 4), oracles.random_psd(rng, 4)
    for delta in (0.0, 0.1, 10.0):
        g, fired = trigger_one(P, P_bar, delta)
        g_want, fired_want = oracles.trigger_eval(P, P_bar, delta)
        assert g == pytest.approx(g_want, rel=1e-10, abs=1e-10)
        assert fired == fired_want


def test_trigger_from_info_rejects_asymmetric_difference():
    with pytest.raises(ValueError, match="^the information difference is not symmetric$"):
        trigger_from_info(np.array([[[1.0, 1.0], [0.0, 1.0]]]), np.eye(2)[None], np.zeros(1))


# --- the trigger state ------------------------------------------------------

def test_trigger_state_copies_its_anchor():
    x0, P0 = np.arange(3.0), oracles.random_psd(np.random.default_rng(3), 3)
    ts = TriggerState(x0, P0, 0, 0.1)
    want = (x0.copy(), P0.copy())
    x0[:] = 9.0
    P0[:] = 7.0
    assert np.array_equal(ts.x, want[0]) and np.array_equal(ts.P, want[1])


def test_trigger_state_rejects_non_finite_delta():
    with pytest.raises(ValueError, match="delta must be finite"):
        TriggerState([0.0], [[1.0]], 0, float("nan"))


@pytest.mark.parametrize("delta, message", [
    ("0.5", "^delta must be a number, got '0.5'$"),
    (True, "^delta must be a number, got True$"),
], ids=["str", "bool"])
def test_trigger_state_names_a_delta_that_is_not_a_number(delta, message):
    # a string used to raise a raw TypeError, and a bool to be stored
    with pytest.raises(ValueError, match=message):
        TriggerState([0.0], [[1.0]], 0, delta)
    assert type(TriggerState([0.0], [[1.0]], 0, np.float32(0.5)).delta) is float


@pytest.mark.parametrize("time, message", [
    (True, "^time must be an integer, got True$"),
    (0.0, r"^time must be an integer, got 0\.0$"),
    (-1, "^time must be nonnegative, got -1$"),
], ids=["bool", "float", "negative"])
def test_trigger_state_checks_its_step_as_an_integer(time, message):
    # True used to be held as step 1, and 0.0 to pass the rounds' step check
    with pytest.raises(ValueError, match=message):
        TriggerState([0.0], [[1.0]], time, 0.1)


@pytest.mark.parametrize("x, P, message", [
    ([0.0], np.eye(2), r"^P must be \(1, 1\), got \(2, 2\)$"),
    (np.zeros(2), np.ones(2), r"^P must be \(2, 2\), got \(2,\)$"),
    (np.zeros(2), np.diag([1.0, np.nan]), "P has non-finite entries"),
    ([0.0, np.inf], np.eye(2), "x has non-finite entries"),
    # it used to be stored as given, and symmetrized only where a step read it
    (np.zeros(2), [[2.0, 1.0], [0.0, 2.0]], "^P is not symmetric$"),
    # it used to be accepted, and to fail only at its first round
    (np.zeros(2), -np.eye(2), "^P must be positive semidefinite$"),
], ids=["P-too-big", "P-vector", "nan-P", "inf-x", "asymmetric-P", "indefinite-P"])
def test_trigger_state_rejects_a_bad_pair(x, P, message):
    with pytest.raises(ValueError, match=message):
        TriggerState(x, P, 0, 0.1)


def test_held_pairs_equal_the_from_anchor_extrapolation():
    # the rounds advance each held pair one step per round; the reference
    # rebuilds it from the agent's last broadcast at every step
    cfg = case1(mode="event")
    model, agents, top = cfg.model, cfg.agents, cfg.topology
    A, Q = model.A_at(0), model.Q_at(0)
    pairs = cfg.initial_pairs()
    states = [AgentState(i, ConsistentEstimate(x, P)) for i, (x, P) in enumerate(pairs)]
    triggers = [TriggerState(x, P, 0, a.delta) for (x, P), a in zip(pairs, agents)]
    anchors = [oracles.Anchor(x.copy(), P.copy(), 0, a.delta)
               for (x, P), a in zip(pairs, agents)]
    rng = np.random.default_rng(8)
    fires = []
    for k in range(1, 31):
        ys = [rng.standard_normal(a.H.shape[0]) for a in agents]
        prev = [s.estimate for s in states]
        states, fired = epdkf_round(states, triggers, ys, model, agents, top, k)
        fires += [i in fired for i in range(3)]
        for i, (ts, a) in enumerate(zip(triggers, anchors)):
            assert ts.time == k
            if i in fired:
                # the broadcast is the fresh pair as the engine forms it:
                # prediction, then the gain
                x, P = A @ prev[i].x, _ensure_pd(symmetrize(A @ prev[i].P @ A.T + Q), "P")
                if agents[i].has_measurement:
                    K, P = kalman_gain(P, agents[i].H, agents[i].R)
                    x, P = x + K @ (ys[i] - agents[i].H @ x), _ensure_pd(P, "P")
                a.x, a.P, a.time = x, P, k
            x, P = a.held(k, A, Q)
            assert np.array_equal(ts.x, x) and np.array_equal(ts.P, P)
    assert any(fires) and not all(fires)
    assert max(k - a.time for a in anchors) > 1      # some pair held over steps


def path3_setup(delta=(0.3, 0.4, 0.8)):
    n = 4
    A = np.array([[1, 0, 0.1, 0], [0, 1, 0, 0.1], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    Q = np.diag([4.0, 4.0, 1.0, 1.0])
    D = np.array([[1.0, -np.sqrt(3.0), 0, 0], [0, 0, 1.0, -np.sqrt(3.0)]])
    model = SystemModel(A=A, Q=Q, x0_mean=np.zeros(n),
                        P0=np.diag([100.0, 100.0, 4.0, 4.0]))
    H = np.array([[1.0, 0, 0, 0]])
    agents = [
        AgentSpec(H=H, R=np.array([[90.0]]), D=D, d=np.zeros(2), delta=delta[0]),
        AgentSpec(H=np.zeros((1, n)), R=np.array([[90.0]]),
                  D=np.zeros((0, n)), d=np.zeros(0), delta=delta[1]),
        AgentSpec(H=H, R=np.array([[90.0]]), D=D, d=np.zeros(2), delta=delta[2]),
    ]
    top = Topology(metropolis_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])))
    return model, agents, top


def fresh_states(model, agents, rng):
    return [AgentState(i, ConsistentEstimate(rng.standard_normal(model.n),
                                             model.P0.copy()))
            for i in range(len(agents))]


def test_epdkf_single_agent_equals_time_based():
    rng = np.random.default_rng(11)
    n = 3
    model = SystemModel(A=np.eye(n) + 0.1 * rng.standard_normal((n, n)),
                        Q=oracles.random_psd(rng, n),
                        x0_mean=np.zeros(n), P0=np.eye(n))
    agent = AgentSpec(H=rng.standard_normal((2, n)),
                      R=oracles.random_psd(rng, 2, jitter=0.1),
                      D=rng.standard_normal((1, n)), d=np.zeros(1), delta=0.5)
    top = Topology(np.array([[1.0]]))
    st_e = fresh_states(model, [agent], np.random.default_rng(5))
    st_t = [AgentState(0, ConsistentEstimate(st_e[0].estimate.x.copy(),
                                             st_e[0].estimate.P.copy()))]
    triggers = [TriggerState(st_e[0].estimate.x, st_e[0].estimate.P, 0, 0.5)]
    for k in range(1, 5):
        y = [rng.standard_normal(2)]
        st_e, _ = epdkf_round(st_e, triggers, y, model, [agent], top, k)
        st_t = tpdkf_round(st_t, y, model, [agent], top, L=1, k=k)
        assert np.allclose(st_e[0].estimate.x, st_t[0].estimate.x, atol=1e-10)
        assert np.allclose(st_e[0].estimate.P, st_t[0].estimate.P, atol=1e-10)


def test_epdkf_trigger_pattern_ignores_measurements():
    model, agents, top = path3_setup()
    fired_runs = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        states = [AgentState(i, ConsistentEstimate(np.zeros(4), model.P0.copy()))
                  for i in range(3)]
        triggers = [TriggerState(np.zeros(4), model.P0.copy(), 0, a.delta)
                    for a in agents]
        fired_seq = []
        for k in range(1, 20):
            ys = [rng.standard_normal(1) * 10 for _ in range(3)]
            states, fired = epdkf_round(states, triggers, ys, model,
                                        agents, top, k)
            fired_seq.append(frozenset(fired))
        fired_runs.append(fired_seq)
    assert fired_runs[0] == fired_runs[1]
    # but the estimates themselves do depend on the data
    assert not all(f == frozenset() for f in fired_runs[0])


def test_epdkf_constrained_agents_stay_feasible():
    model, agents, top = path3_setup()
    rng = np.random.default_rng(2)
    states = [AgentState(i, ConsistentEstimate(np.zeros(4), model.P0.copy()))
              for i in range(3)]
    triggers = [TriggerState(np.zeros(4), model.P0.copy(), 0, a.delta)
                for a in agents]
    for k in range(1, 10):
        ys = [rng.standard_normal(1) for _ in range(3)]
        states, _ = epdkf_round(states, triggers, ys, model, agents, top, k)
        for i in (0, 2):
            r = agents[i].D @ states[i].estimate.x - agents[i].d
            assert np.abs(r).max() < 1e-9


def test_epdkf_rejects_time_varying_model():
    model, agents, top = path3_setup()
    tv = SystemModel(A=[model.A_at(0)] * 3, Q=model.Q_at(0),
                     x0_mean=np.zeros(4), P0=model.P0)
    states = [AgentState(i, ConsistentEstimate(np.zeros(4), model.P0.copy()))
              for i in range(3)]
    triggers = [TriggerState(np.zeros(4), model.P0.copy(), 0, a.delta)
                for a in agents]
    with pytest.raises(ValueError, match="time-invariant"):
        epdkf_round(states, triggers, [np.zeros(1)] * 3, tv, agents, top, 1)


# --- the trigger on stacks over an agent axis -------------------------------

@pytest.mark.parametrize("N", [1, 7])
def test_stacked_trigger_equals_single_calls(N):
    rng = np.random.default_rng(N)
    info = np.linalg.inv(np.stack([oracles.random_psd(rng, 4) for _ in range(N)]))
    held = np.linalg.inv(np.stack([oracles.random_psd(rng, 4) for _ in range(N)]))
    delta = rng.uniform(0.0, 2.0, N)
    # member 0 is an exact tie at delta = 0: a zero score that stays silent
    held[0], delta[0] = info[0], 0.0
    g, fired = trigger_from_info(info, held, delta)
    assert g.shape == fired.shape == (N,)
    assert (g[0], fired[0]) == (0.0, False)
    for i in range(N):
        g_i, fired_i = trigger_from_info(info[i:i + 1], held[i:i + 1], delta[i:i + 1])
        assert (g[i], fired[i]) == (g_i[0], fired_i[0])


def test_stacked_trigger_rejects_one_asymmetric_member():
    info = np.stack([np.eye(2)] * 3)
    info[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="^the information difference is not symmetric$"):
        trigger_from_info(info, np.stack([np.eye(2)] * 3), np.zeros(3))


# --- the rounds' arguments and guards ------------------------------------------

def _round_args(delta=(0.3, 0.4, 0.8)):
    model, agents, top = path3_setup(delta)
    states = fresh_states(model, agents, np.random.default_rng(0))
    triggers = [TriggerState(s.estimate.x, s.estimate.P, 0, a.delta)
                for s, a in zip(states, agents)]
    return model, agents, top, states, triggers, [np.ones(1)] * 3


@pytest.mark.parametrize("name", ["states", "trigger_states", "measurements",
                                  "agents"])
def test_epdkf_round_names_an_argument_without_one_entry_per_agent(name):
    model, agents, top, states, triggers, ys = _round_args()
    args = dict(states=states, trigger_states=triggers, measurements=ys,
                agents=agents)
    args[name] = args[name][:2]
    with pytest.raises(ValueError, match=f"^{name} has 2 entries for 3 agents"):
        epdkf_round(args["states"], args["trigger_states"], args["measurements"],
                    model, args["agents"], top, 1)


@pytest.mark.parametrize("name", ["states", "measurements", "agents"])
def test_tpdkf_round_names_an_argument_without_one_entry_per_agent(name):
    model, agents, top, states, _, ys = _round_args()
    args = dict(states=states, measurements=ys, agents=agents)
    args[name] = args[name] + args[name][:1]
    with pytest.raises(ValueError, match=f"^{name} has 4 entries for 3 agents"):
        tpdkf_round(args["states"], args["measurements"], model, args["agents"],
                    top, L=1)


@pytest.mark.parametrize("L, message", [
    (True, "^L must be an integer, got True$"),
    (1.5, r"^L must be an integer, got 1\.5$"),
    (0, "^L must be at least 1, got 0$"),
], ids=["bool", "float", "zero"])
def test_tpdkf_round_checks_L_as_the_scenario_does(L, message):
    # True used to run one round, where ScenarioConfig(L=True) is refused
    model, agents, top, states, _, ys = _round_args()
    with pytest.raises(ValueError, match=message):
        tpdkf_round(states, ys, model, agents, top, L=L)


def test_rounds_check_the_step_as_an_integer():
    # k = 1.5 used to run on a time-invariant model, and k = 1.0 to match
    # trigger states of step 0
    model, agents, top, states, triggers, ys = _round_args()
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1\.5$"):
        tpdkf_round(states, ys, model, agents, top, L=1, k=1.5)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 1\.0$"):
        epdkf_round(states, triggers, ys, model, agents, top, 1.0)


def test_tpdkf_round_refuses_a_step_before_a_time_varying_model_starts():
    # k = 0 steps with A_{-1}, which used to be the last A of the sequence
    model, agents, top, states, _, ys = _round_args()
    tv = SystemModel(A=[s * model.A_at(0) for s in (1.0, 2.0, 3.0)], Q=model.Q_at(0),
                     x0_mean=np.zeros(4), P0=model.P0)
    with pytest.raises(ValueError, match="^a time-varying model starts at step 0, got step -1$"):
        tpdkf_round(states, ys, tv, agents, top, L=1, k=0)


def test_rounds_reject_states_out_of_agent_order():
    # agent 1's estimate must not run under agent 0's H and D
    model, agents, top, states, triggers, ys = _round_args()
    swapped = [states[1], states[0], states[2]]
    with pytest.raises(ValueError, match=r"states must have ids 0\.\.2 in order"):
        epdkf_round(swapped, triggers, ys, model, agents, top, 1)
    with pytest.raises(ValueError, match=r"states must have ids 0\.\.2 in order"):
        tpdkf_round(swapped, ys, model, agents, top, L=1)
    assert all(ts.time == 0 for ts in triggers)


def test_epdkf_round_rejects_a_held_covariance_that_is_not_positive_definite():
    model, agents, top, states, triggers, ys = _round_args()
    triggers[1].P = -100.0 * np.eye(4)
    with pytest.raises(ValueError, match="held covariance of agent 1 must be "
                                         "positive definite"):
        epdkf_round(states, triggers, ys, model, agents, top, 1)


@pytest.mark.parametrize("time", [0, 2])
def test_epdkf_round_names_a_trigger_state_not_at_the_previous_step(time):
    # a round skipped or run twice would extrapolate over the wrong gap
    model, agents, top, states, triggers, ys = _round_args()
    states, _ = epdkf_round(states, triggers, ys, model, agents, top, 1)
    triggers[2].time = time
    with pytest.raises(ValueError, match=f"^trigger state of agent 2 holds step {time}, "
                                         f"not 1$"):
        epdkf_round(states, triggers, ys, model, agents, top, 2)
    assert [ts.time for ts in triggers] == [1, 1, time]


def test_epdkf_round_names_a_trigger_state_whose_delta_is_not_the_agents():
    # the engine fires on AgentSpec.delta; a round firing on another δ (case1
    # at T = 10: 0 broadcasts at δ = 100, 11 at the agents' δ) would disagree
    cfg = case1(mode="event", T=10)
    pairs = cfg.initial_pairs()
    states = [AgentState(i, ConsistentEstimate(x, P)) for i, (x, P) in enumerate(pairs)]
    triggers = [TriggerState(x, P, 0, a.delta) for (x, P), a in zip(pairs, cfg.agents)]
    triggers[1] = TriggerState(*pairs[1], 0, 100.0)
    ys = [np.zeros(a.H.shape[0]) for a in cfg.agents]
    with pytest.raises(ValueError, match=r"^trigger state of agent 1 has delta 100\.0, "
                                         r"but its AgentSpec has delta 0\.4$"):
        epdkf_round(states, triggers, ys, cfg.model, cfg.agents, cfg.topology, 1)
    assert [ts.time for ts in triggers] == [0, 0, 0]


def test_epdkf_round_names_an_agent_whose_held_pair_is_not_n_dimensional():
    model, agents, top, states, triggers, ys = _round_args()
    triggers[1] = TriggerState(np.zeros(3), np.eye(3), 0, 0.4)
    with pytest.raises(ValueError, match="^trigger state of agent 1 has 3 entries, not 4$"):
        epdkf_round(states, triggers, ys, model, agents, top, 1)


@pytest.mark.parametrize("bad", [[1], [0, 1, 2]], ids=["one", "all"])
def test_rounds_name_an_agent_whose_estimate_is_not_n_dimensional(bad):
    # one such agent leaves states that do not stack, all of them a stack of
    # another shape: either way the first of them is named
    model, agents, top, states, triggers, ys = _round_args()
    for i in bad:
        states[i] = AgentState(i, ConsistentEstimate(np.zeros(3), np.eye(3)))
    message = f"^state of agent {bad[0]} has 3 entries, not 4$"
    with pytest.raises(ValueError, match=message):
        epdkf_round(states, triggers, ys, model, agents, top, 1)
    with pytest.raises(ValueError, match=message):
        tpdkf_round(states, ys, model, agents, top, L=1)
    assert [ts.time for ts in triggers] == [0, 0, 0]


@pytest.mark.parametrize("what", ["state", "trigger state"])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_rounds_name_an_agent_whose_x_is_not_finite(what, entry):
    # x is checked on construction, not when edited in place; a NaN state
    # used to run through both rounds into NaN states without an error
    model, agents, top, states, triggers, ys = _round_args()
    (states[1].estimate if what == "state" else triggers[1]).x[0] = entry
    with pytest.raises(ValueError, match=f"^{what} of agent 1 is not finite$"):
        epdkf_round(states, triggers, ys, model, agents, top, 1)
    if what == "state":
        with pytest.raises(ValueError, match="^state of agent 1 is not finite$"):
            tpdkf_round(states, ys, model, agents, top, L=1)
    assert [ts.time for ts in triggers] == [0, 0, 0]


@pytest.mark.parametrize("mode", ["time", "event"])
def test_rounds_reject_a_covariance_that_is_not_finite(mode):
    # numpy's Cholesky returns NaN for a NaN matrix instead of raising, so the
    # definiteness guard must not let the blind agent's NaN covariance through
    # (unconstrained agents: no projection's pseudo-inverse fails on it later)
    model, agents, top, states, triggers, ys = _round_args()
    agents = [dataclasses.replace(a, D=np.zeros((0, 4)), d=np.zeros(0))
              for a in agents]
    states[1].estimate.P = np.full((4, 4), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        if mode == "time":
            tpdkf_round(states, ys, model, agents, top, L=1)
        else:
            epdkf_round(states, triggers, ys, model, agents, top, 1)


def test_rounds_reject_a_numerically_singular_innovation():
    # tiny R under a huge, badly scaled P: cond(S) is about 1e16
    model = SystemModel(A=np.eye(2), Q=1e-12 * np.eye(2), x0_mean=np.zeros(2),
                        P0=np.diag([1e16, 1.0]))
    agent = AgentSpec(H=np.eye(2), R=1e-12 * np.eye(2), D=np.zeros((0, 2)),
                      d=np.zeros(0), delta=0.5)
    top = Topology(np.array([[1.0]]))
    states = [AgentState(0, ConsistentEstimate(np.zeros(2), model.P0))]
    y = [np.zeros(2)]
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        tpdkf_round(states, y, model, [agent], top, L=1)
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        epdkf_round(states, [TriggerState(np.zeros(2), model.P0, 0, 0.5)], y,
                    model, [agent], top, 1)


def _two_row_case1():
    """case1 in event mode with a second row [0, 0, 1, 0] (R = I₂) in agent
    0's H: its states, trigger states and arguments after the model."""
    cfg = case1(mode="event", T=10)
    agents = list(cfg.agents)
    agents[0] = dataclasses.replace(agents[0], H=np.vstack([agents[0].H, [0, 0, 1, 0]]),
                                    R=np.eye(2))
    pairs = cfg.initial_pairs()
    states = [AgentState(i, ConsistentEstimate(x, P)) for i, (x, P) in enumerate(pairs)]
    triggers = [TriggerState(x, P, 0, a.delta) for (x, P), a in zip(pairs, agents)]
    return states, triggers, (cfg.model, agents, cfg.topology)


@pytest.mark.parametrize("ys, message", [
    # one entry used to broadcast over the two rows of agent 0's H
    ([[1.0], None, [0.0]], "measurement of agent 0 has 1 entries, not 2$"),
    ([[1.0, 2.0], None, [0.0, 3.0]], "measurement of agent 2 has 2 entries, not 1$"),
    # a NaN used to reach the estimates of agents 0 and 1
    ([[np.nan, 0.0], None, [0.0]], "measurement of agent 0 is not finite$"),
    ([[1.0, 0.0], None, [np.inf]], "measurement of agent 2 is not finite$"),
], ids=["short", "long", "nan", "inf"])
def test_rounds_name_an_agent_whose_measurement_does_not_fit_its_H(ys, message):
    # agent 1 of case1 does not measure, so its entry is not read
    states, triggers, args = _two_row_case1()
    with pytest.raises(ValueError, match=f"^{message}"):
        epdkf_round(states, triggers, ys, *args, 1)
    with pytest.raises(ValueError, match=f"^{message}"):
        tpdkf_round(states, ys, *args, L=1)
    assert [ts.time for ts in triggers] == [0, 0, 0]


def test_rounds_name_an_agent_whose_measurement_is_ragged_in_its_group():
    # agents 0 and 2 of the path share one H group of one row
    model, agents, top, states, triggers, _ = _round_args()
    ys = [np.ones(1), None, np.ones(2)]
    with pytest.raises(ValueError, match="^measurement of agent 2 has 2 entries, not 1$"):
        epdkf_round(states, triggers, ys, model, agents, top, 1)
    with pytest.raises(ValueError, match="^measurement of agent 2 has 2 entries"):
        tpdkf_round(states, ys, model, agents, top, L=1)


def test_rounds_take_measurements_of_any_shape_with_the_H_rows():
    # agents 0 and 2 of the path share one H group of one row: a (1,)
    # vector, a (1, 1) column, a list and a float, mixed within the group,
    # give the same round
    model, agents, top, states, _, _ = _round_args()
    got = [tpdkf_round(states, ys, model, agents, top, L=1) for ys in
           ([np.array([0.5]), None, np.array([-1.0])],
            [np.array([[0.5]]), None, -1.0],
            [[0.5], None, np.array([[-1.0]])])]
    for other in got[1:]:
        for s, t in zip(got[0], other):
            assert np.array_equal(s.estimate.x, t.estimate.x)
            assert np.array_equal(s.estimate.P, t.estimate.P)


@pytest.mark.parametrize("mode, rounds, calls", [("event", 1, 5), ("time", 2, 6)])
def test_filter_step_factors_each_covariance_stack_once(mode, rounds, calls, monkeypatch):
    # one Cholesky per stack made: predict, each H group, then per round the
    # fused stack and each D group; in event mode also the held stack, the
    # only one `_ensure_pd` does not make.  A second factor before each
    # inverse would add one call per round.
    cfg = case2(mode=mode, N=20, T=1, trials=1)
    layout = event.step_layout(cfg.agents, cfg.topology)
    assert (len(layout.meas), len(layout.proj)) == (1, 1)
    x0, P = map(np.stack, zip(*cfg.initial_pairs()))
    ys = [np.zeros((len(idx), H.shape[1], 1)) for idx, H, _ in layout.meas]
    factored = []
    cholesky = filter_module._cholesky

    def spy(M):
        factored.append(M.shape)
        return cholesky(M)

    monkeypatch.setattr(filter_module, "_cholesky", spy)
    event.filter_step(layout, x0[:, :, None], P, ys, cfg.model.A_at(0), cfg.model.Q_at(0),
                      rounds, (x0[:, :, None], P) if mode == "event" else None)
    assert len(factored) == calls
    assert all(len(shape) == 3 for shape in factored)     # stacks, never one member


@pytest.mark.parametrize("case, mode, rounds", [(case1, "time", 2), (case2, "event", 1)],
                         ids=["case1-time-L2", "case2-event"])
def test_filter_step_symmetrizes_each_stack_once_and_makes_no_identity(case, mode, rounds,
                                                                       monkeypatch):
    # six stacks each: the prediction, the gain's, and per round the fused
    # and the projected stack; in event mode, with one round, the held stack
    # (`_check_pd`) and the trigger's information difference (whose
    # symmetric part `_check_symmetric` returns) instead of a second round.
    # `_ensure_pd` does not symmetrize them again, and the identities come
    # from the layout, built before the step; forming the state maps adds
    # neither.
    cfg = case(mode=mode, T=1, trials=1)
    layout = event.step_layout(cfg.agents, cfg.topology)
    assert (len(layout.meas), len(layout.proj)) == (1, 1)
    x0, P = map(np.stack, zip(*cfg.initial_pairs()))
    ys = [np.zeros((len(idx), H.shape[1], 1)) for idx, H, _ in layout.meas]
    shapes, eyes = [], []
    eye = np.eye

    def spy(M):
        shapes.append(M.shape)
        return symmetrize(M)

    def eye_spy(*args, **kwargs):
        eyes.append(args)
        return eye(*args, **kwargs)

    def check_spy(M, name, operands=(), check=event._check_symmetric):
        shapes.append(M.shape)
        return check(M, name, operands)

    monkeypatch.setattr(filter_module, "symmetrize", spy)
    monkeypatch.setattr(event, "symmetrize", spy)
    monkeypatch.setattr(event, "_check_symmetric", check_spy)
    monkeypatch.setattr(np, "eye", eye_spy)
    event.filter_step(layout, x0[:, :, None], P, ys, cfg.model.A_at(0), cfg.model.Q_at(0),
                      rounds, (x0[:, :, None], P) if mode == "event" else None)
    assert len(shapes) == 6 and eyes == []
    assert all(len(shape) == 3 for shape in shapes)       # stacks, never one member


def _arrays(obj):
    """Every ndarray in nested tuples, lists and dataclasses (the layout)."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = list(vars(obj).values())
    if isinstance(obj, (tuple, list)):
        return [a for o in obj for a in _arrays(o)]
    return []


@pytest.mark.parametrize("mode", ["time", "event"])
def test_rounds_never_change_what_they_returned(mode, monkeypatch):
    # at delta 0 nearly every agent broadcasts, so anchors move every round
    model, agents, top, states, triggers, _ = _round_args(delta=(0.0, 0.0, 0.0))
    stacks = []

    def spying(step):
        def spy(*args):
            out = step(*args)
            stacks.extend(_arrays(args) + _arrays(out))
            return out
        return spy

    monkeypatch.setattr(event, "filter_step", spying(event.filter_step))
    rng = np.random.default_rng(4)
    kept = []
    for k in range(1, 7):
        ys = [rng.standard_normal(1) for _ in range(3)]
        if mode == "time":
            states = tpdkf_round(states, ys, model, agents, top, L=2, k=k)
        else:
            states, fired = epdkf_round(states, triggers, ys, model, agents, top, k)
            assert fired and all(ts.time == k for ts in triggers)
        for arrays, copies in kept:
            assert all(np.array_equal(a, c) for a, c in zip(arrays, copies))
        arrays = [a for s in states for a in (s.estimate.x, s.estimate.P)]
        kept.append((arrays, [a.copy() for a in arrays]))
        returned = [a for arrays, _ in kept for a in arrays]
        for ts in triggers:
            for held in (ts.x, ts.P):
                assert not any(np.shares_memory(held, a) for a in returned + stacks)
    assert len(stacks) > 0


# --- the step layout: built once per network ------------------------------------

def test_rounds_build_each_network_layout_once():
    model, agents, top, states, triggers, _ = _round_args()
    before = event._build_layout.cache_info()
    rng = np.random.default_rng(6)
    st_e = st_t = states
    for k in range(1, 31):
        ys = [rng.standard_normal(1) for _ in range(3)]
        st_e, _ = epdkf_round(st_e, triggers, ys, model, agents, top, k)
        st_t = tpdkf_round(st_t, ys, model, agents, top, L=2, k=k)
    after = event._build_layout.cache_info()
    # one build serves both modes, every later round a hit
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 59)


@pytest.mark.parametrize("case", [case1, case2], ids=["case1", "case2"])
def test_layout_gathers_each_agents_own_fresh_pair_and_its_neighbors_held_pairs(case):
    cfg = case(T=1)
    N, layout = cfg.topology.N, event.step_layout(cfg.agents, cfg.topology)
    receiver = np.argsort(layout.rank)[layout.slots[1]]
    for i in range(N):     # src runs over each agent's in-neighbors, itself included
        assert sorted(layout.src[receiver == i]) == np.flatnonzero(
            cfg.topology.edges[i]).tolist()
    own = layout.src == receiver
    assert np.count_nonzero(own) == N
    assert np.array_equal(layout.held_src[own], layout.src[own])
    assert np.array_equal(layout.held_src[~own], N + layout.src[~own])


def test_layout_holds_each_agents_threshold():
    model, agents, top, *_ = _round_args(delta=(0.3, 0.4, 0.8))
    assert event.step_layout(agents, top).deltas.tolist() == [0.3, 0.4, 0.8]


@pytest.mark.parametrize("j", [0, 2])
def test_filter_step_names_the_held_covariance_that_is_not_finite(j):
    cfg = case1(mode="event", T=1, trials=1)
    layout = event.step_layout(cfg.agents, cfg.topology)
    x0, P = map(np.stack, zip(*cfg.initial_pairs()))
    ys = [np.zeros((len(idx), H.shape[1], 1)) for idx, H, _ in layout.meas]
    held_P = P.copy()
    held_P[j, 1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"^the held covariance of agent {j} is not finite$"):
        event.filter_step(layout, x0[:, :, None], P, ys, cfg.model.A_at(0), cfg.model.Q_at(0),
                          1, (x0[:, :, None], held_P))


@pytest.mark.parametrize("case", [case1, case2], ids=["case1", "case2"])
def test_filter_step_advances_the_held_covariances_of_a_block_without_states(case):
    # the held x is advanced and re-anchored only where est holds columns;
    # the held P is advanced and re-anchored whatever est holds
    cfg = case(mode="event", T=40)
    layout = event.step_layout(cfg.agents, cfg.topology)
    x0, P0 = map(np.stack, zip(*cfg.initial_pairs()))
    A, Q = cfg.model.A_at(0), cfg.model.Q_at(0)
    rng = np.random.default_rng(11)
    ys = [[rng.standard_normal((len(idx), H.shape[1], 1)) for idx, H, _ in layout.meas]
          for _ in range(cfg.T)]
    held_P, broadcasts = {}, 0
    for width in (0, 1):
        est = x0[:, :, None].repeat(width, axis=2)
        P, held, held_P[width] = P0, (est, P0), []
        for y in ys:
            est, P, _, fired, held = event.filter_step(
                layout, est, P, [b[..., :width] for b in y], A, Q, 1, held)
            assert held[0].shape == (cfg.topology.N, cfg.model.n, width)
            held_P[width].append(held[1])
            broadcasts += np.count_nonzero(fired)
    # some agents re-anchor and some extrapolate
    assert 0 < broadcasts < 2 * cfg.T * cfg.topology.N
    for bare, full in zip(held_P[0], held_P[1], strict=True):
        assert np.array_equal(bare, full)
        assert np.array_equal(np.signbit(bare), np.signbit(full))


def _anchors(triggers):
    """The reference's anchors for trigger states that hold step 0."""
    return [oracles.Anchor(ts.x.copy(), ts.P.copy(), ts.time, ts.delta)
            for ts in triggers]


def test_rounds_on_interleaved_networks_match_reference_rounds():
    # a path and a complete graph of three agents, each round run in turn on
    # both, in both modes: each cached layout must serve only its own network
    nets = []
    for delta, adj in [((0.3, 0.4, 0.8), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                       ((0.1, 0.2, 0.6), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])]:
        model, agents, _, states, triggers, _ = _round_args(delta)
        top = Topology(metropolis_weights(np.array(adj)))
        nets.append(dict(args=(model, agents, top), event=states, time=states,
                         trig=triggers, ref_event=states, ref_time=states,
                         ref_trig=_anchors(triggers)))
    rng = np.random.default_rng(9)
    broadcasts = 0
    for k in range(1, 21):
        for net in nets:
            ys = [rng.standard_normal(1) for _ in range(3)]
            net["event"], fired = epdkf_round(net["event"], net["trig"], ys,
                                              *net["args"], k)
            net["ref_event"], ref_fired = oracles.epdkf_round(
                net["ref_event"], net["ref_trig"], ys, *net["args"], k)
            assert fired == ref_fired
            broadcasts += len(fired)
            net["time"] = tpdkf_round(net["time"], ys, *net["args"], L=2, k=k)
            net["ref_time"] = oracles.tpdkf_round(net["ref_time"], ys, *net["args"],
                                                  L=2, k=k)
            for mode in ("event", "time"):
                for s, r in zip(net[mode], net["ref_" + mode]):
                    for a, b in ((s.estimate.x, r.estimate.x),
                                 (s.estimate.P, r.estimate.P)):
                        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
    assert 0 < broadcasts < 2 * 20 * 3
