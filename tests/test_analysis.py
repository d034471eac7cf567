import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdkf import analysis, sim
from pdkf.analysis import (
    compute_beta,
    compute_beta_bar,
    constraint_error,
    eco_check,
    eig_pos,
    pilot_contraction_factors,
    rate_bound,
    space_decomposition,
    threshold_bounds,
)
from pdkf.filter import slot_sum
from pdkf.model import (
    AgentSpec,
    GlobalConstraint,
    SystemModel,
    Topology,
    build_global_constraint,
    metropolis_weights,
)

import oracles
from networks import directed_scenarios


# --- tiny builders --------------------------------------------------------

def scalar_model(q=1.0, a=1.0, p0=10.0):
    return SystemModel(A=[[a]], Q=[[q]], x0_mean=[0.0], P0=[[p0]])


def scalar_agent(h=1.0, r=1.0, dpair=None, eps=0.5, delta=0.0):
    if dpair is None:
        D, d = np.zeros((0, 1)), np.zeros(0)
    else:
        D, d = np.array([[dpair[0]]]), np.array([dpair[1]])
    return AgentSpec(H=np.array([[h]]), R=np.array([[r]]), D=D, d=d,
                     eps=eps, delta=delta)


SINGLE = Topology(np.array([[1.0]]))
PAIR = Topology(metropolis_weights(np.array([[0, 1], [1, 0]])))


def path3_setup():
    n = 4
    A = np.array([[1, 0, 0.1, 0], [0, 1, 0, 0.1], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    Q = np.diag([4.0, 4.0, 1.0, 1.0])
    D = np.array([[1.0, -np.sqrt(3.0), 0, 0], [0, 0, 1.0, -np.sqrt(3.0)]])
    model = SystemModel(A=A, Q=Q, x0_mean=np.zeros(n),
                        P0=np.diag([100.0, 100.0, 4.0, 4.0]))
    H = np.array([[1.0, 0, 0, 0]])
    agents = [
        AgentSpec(H=H, R=np.array([[90.0]]), D=D, d=np.zeros(2), eps=0.01),
        AgentSpec(H=np.zeros((1, n)), R=np.array([[90.0]]),
                  D=np.zeros((0, n)), d=np.zeros(0), eps=0.01),
        AgentSpec(H=H, R=np.array([[90.0]]), D=D, d=np.zeros(2), eps=0.01),
    ]
    top = Topology(metropolis_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])))
    return model, agents, top


def directed4_setup():
    # path3's agents plus a measuring one on a directed, strongly connected
    # cycle 0 -> 1 -> 2 -> 3 -> 0 with extra edges: in-degrees 2, 3, 4, 2
    model, agents, _ = path3_setup()
    extra = AgentSpec(H=np.array([[0, 1.0, 0, 0]]), R=np.array([[40.0]]),
                      D=np.zeros((0, 4)), d=np.zeros(0), eps=0.01)
    top = Topology(np.array([[0.5, 0.0, 0.0, 0.5],
                             [0.2, 0.5, 0.0, 0.3],
                             [0.1, 0.3, 0.4, 0.2],
                             [0.0, 0.0, 0.6, 0.4]]))
    return model, [*agents, extra], top


def info_blocks(model, agents):
    n = model.n
    info_y, info_d = [], []
    for a in agents:
        if a.H.size and np.any(a.H):
            info_y.append(a.H.T @ np.linalg.inv(a.R) @ a.H)
        else:
            info_y.append(np.zeros((n, n)))
        if a.D.size and np.any(a.D):
            info_d.append(a.D.T @ a.D / a.eps)
        else:
            info_d.append(np.zeros((n, n)))
    return info_y, info_d


# --- observability gate ----------------------------------------------------

def test_eco_scalar_counts_window():
    rep = eco_check(scalar_model(), [scalar_agent()], N_bar=3)
    assert rep.alpha == pytest.approx(4.0)  # four unit terms
    assert rep.observable_with_constraints
    assert rep.observable_without_constraints


def test_eco_full_rank_H_window_zero():
    n = 3
    agent = AgentSpec(H=np.eye(n), R=np.eye(n), D=np.zeros((0, n)), d=np.zeros(0))
    model = SystemModel(A=np.eye(n), Q=np.eye(n), x0_mean=np.zeros(n), P0=np.eye(n))
    rep = eco_check(model, [agent], N_bar=0)
    assert rep.alpha == pytest.approx(1.0)
    assert rep.observable_with_constraints


def test_eco_constraints_make_the_difference():
    model, agents, _ = path3_setup()
    rep = eco_check(model, agents, N_bar=model.n + len(agents))
    assert rep.alpha > 0
    assert rep.observable_with_constraints
    assert rep.alpha_without_constraints < 1e-10
    assert not rep.observable_without_constraints


def test_eco_matches_direct_product_chain():
    rng = np.random.default_rng(4)
    n, N_bar = 3, 4
    A_seq = [np.eye(n) + 0.3 * rng.standard_normal((n, n)) for _ in range(N_bar)]
    model = SystemModel(A=A_seq, Q=np.eye(n), x0_mean=np.zeros(n), P0=np.eye(n))
    agents = [AgentSpec(H=rng.standard_normal((1, n)), R=np.eye(1),
                        D=rng.standard_normal((1, n)), d=np.zeros(1)),
              AgentSpec(H=rng.standard_normal((2, n)),
                        R=oracles.random_psd(rng, 2, jitter=0.2),
                        D=np.zeros((0, n)), d=np.zeros(0))]
    rep = eco_check(model, agents, N_bar=N_bar)
    term = sum(a.H.T @ np.linalg.inv(a.R) @ a.H for a in agents if a.H.size) \
        + sum(a.D.T @ a.D for a in agents if a.D.size)
    expect = oracles.gramian(A_seq, [term] * (N_bar + 1))
    assert np.allclose(rep.gramian, expect, atol=1e-10)


def test_eco_start_index_shifts_window():
    n = 2
    A_seq = [np.eye(n) * s for s in (2.0, 3.0, 4.0)]
    model = SystemModel(A=A_seq, Q=np.eye(n), x0_mean=np.zeros(n), P0=np.eye(n))
    agent = AgentSpec(H=np.eye(n), R=np.eye(n), D=np.zeros((0, n)), d=np.zeros(0))
    rep = eco_check(model, [agent], N_bar=1, k0=1)
    expect = oracles.gramian([A_seq[1]], [np.eye(n)] * 2)
    assert np.allclose(rep.gramian, expect)
    with pytest.raises(ValueError):
        eco_check(model, [agent], N_bar=-1)


@pytest.mark.parametrize("kw, message", [
    (dict(N_bar=2.5), r"^N_bar must be an integer, got 2\.5$"),
    (dict(N_bar=-1), "^N_bar must be nonnegative, got -1$"),
    (dict(N_bar=1, k0=-1), "^k0 must be nonnegative, got -1$"),
    (dict(N_bar=1, k0=True), "^k0 must be an integer, got True$"),
], ids=["float-window", "negative-window", "negative-k0", "bool-k0"])
def test_eco_check_names_a_bad_window_or_start(kw, message):
    # on a time-varying model k0 = -1 used to return the Gramian of k0 = 2
    A_seq = [np.eye(2) * s for s in (2.0, 3.0, 4.0)]
    model = SystemModel(A=A_seq, Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    agent = AgentSpec(H=np.eye(2), R=np.eye(2), D=np.zeros((0, 2)), d=np.zeros(0))
    with pytest.raises(ValueError, match=message):
        eco_check(model, [agent], **kw)


# --- contraction factors ----------------------------------------------------

def test_compute_beta_scalar_half():
    # A=1, Q=P: X(X+Q)^-1 = P/(2P) = 1/2
    assert compute_beta([[3.0]], np.eye(1), [[3.0]]) == pytest.approx(0.5)
    assert compute_beta_bar([[3.0]], np.eye(1), [[3.0]]) == pytest.approx(0.5)


def test_compute_beta_clamps_at_one():
    # Q = 0 would give exactly 1; the clamp keeps the strict inequality usable
    assert compute_beta([[1.0]], np.eye(1), [[0.0]]) == pytest.approx(1 - 1e-6)


def test_compute_beta_rejects_indefinite():
    with pytest.raises(ValueError):
        compute_beta([[-1.0]], np.eye(1), [[1.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_contraction_inequalities_hold_above_and_below(seed):
    rng = np.random.default_rng(seed)
    n = 3
    A = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    if abs(np.linalg.det(A)) < 1e-3:
        return
    Q = oracles.random_psd(rng, n)
    P_ref = oracles.random_psd(rng, n)
    beta = compute_beta(P_ref, A, Q)
    beta_bar = compute_beta_bar(P_ref, A, Q)
    Ainv = np.linalg.inv(A)
    bump = oracles.random_psd(rng, n, jitter=0.0)

    P_up = P_ref + bump  # any P above the reference
    lhs = np.linalg.inv(A @ P_up @ A.T + Q)
    rhs = beta * Ainv.T @ np.linalg.inv(P_up) @ Ainv
    assert np.linalg.eigvalsh(0.5 * (lhs - rhs + (lhs - rhs).T)).min() >= -1e-9

    # any PD P below the reference satisfies the upper inequality
    lo = np.linalg.eigvalsh(P_ref).min()
    P_dn = 0.5 * lo * np.eye(n)
    lhs = np.linalg.inv(A @ P_dn @ A.T + Q)
    rhs = beta_bar * Ainv.T @ np.linalg.inv(P_dn) @ Ainv
    assert np.linalg.eigvalsh(0.5 * (rhs - lhs + (rhs - lhs).T)).min() >= -1e-9


def test_pilot_contraction_factors_scalar():
    betas = pilot_contraction_factors([np.array([[2.0]]), np.array([[8.0]])],
                                      np.eye(1), np.eye(1))
    assert betas[0] == pytest.approx(2.0 / 3.0)
    assert betas[1] == pytest.approx(8.0 / 9.0)
    assert 0 < betas[0] <= betas[1] < 1


# --- threshold design --------------------------------------------------------

def test_threshold_single_agent_no_constraint():
    rep = threshold_bounds(scalar_model(), [scalar_agent()], SINGLE,
                           beta=0.5, kstar=4)
    # measurement information exactly matches the design normalization
    assert rep.network_bound == pytest.approx(1.0)
    assert rep.mbar_positive.all()


def test_threshold_single_agent_with_constraint():
    agent = scalar_agent(dpair=(1.0, 0.0), eps=0.5)
    rep = threshold_bounds(scalar_model(), [agent], SINGLE, beta=0.5, kstar=4)
    # every window term gains D^T D / eps = 2 on top of the unit measurement
    assert rep.network_bound == pytest.approx(3.0)


def test_threshold_dead_network_gives_zero():
    agents = [AgentSpec(H=np.zeros((1, 1)), R=np.eye(1),
                        D=np.zeros((0, 1)), d=np.zeros(0))]
    rep = threshold_bounds(scalar_model(), agents, SINGLE, beta=0.5, kstar=4)
    assert rep.network_bound == 0.0
    assert not rep.mbar_positive.any()


def test_threshold_requires_long_enough_window():
    with pytest.raises(ValueError, match="kstar"):
        threshold_bounds(scalar_model(), [scalar_agent()], SINGLE,
                         beta=0.5, kstar=1)


def test_threshold_requires_an_integer_window():
    # 30.5 passes the N + n check, then used to fail in range() with a TypeError
    with pytest.raises(ValueError, match=r"^kstar must be an integer, got 30\.5$"):
        threshold_bounds(scalar_model(), [scalar_agent()], SINGLE, beta=0.5, kstar=30.5)


def test_threshold_matches_direct_matrix_powers():
    model, agents, top = path3_setup()
    beta, kstar = 0.3, 9
    rep = threshold_bounds(model, agents, top, beta=beta, kstar=kstar)
    info_y, info_d = info_blocks(model, agents)
    A = model.A_at(0)
    for i in range(3):
        M_o, Mbar_o = oracles.threshold_matrices(i, A, top.weights, info_y,
                                                 info_d, beta, kstar)
        assert np.allclose(rep.M[i].sum(axis=0), M_o, atol=1e-9)
        assert np.allclose(rep.Mbar[i], Mbar_o, atol=1e-9)
        w, V = np.linalg.eigh(M_o)
        M_isqrt = V @ np.diag(w ** -0.5) @ V.T
        lam = np.linalg.eigvalsh(M_isqrt @ Mbar_o @ M_isqrt).min()
        assert rep.per_agent_bound[i] == pytest.approx(max(lam, 0.0), abs=1e-9)


@pytest.mark.parametrize("kstar", [150, 154, 160, 181, 200])
def test_threshold_sums_keep_terms_whose_unscaled_products_overflow(kstar):
    # A = 0.1, β = 0.5: M = Σ_{τ=1..k*} 50^{τ-1} = (50^{k*} − 1)/49, though
    # (A^{1-τ})ᵀA^{1-τ} = 100^{τ-1} overflows from τ = 156 on; M̄ equals M, so
    # the bound is 1.  From τ = 183 on even 50^{τ-1} overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        if kstar == 200:
            with pytest.raises(ValueError, match=r"^the threshold sums overflow: M and "
                                                 r"Mbar not finite at tau 183; "):
                threshold_bounds(scalar_model(a=0.1), [scalar_agent()], SINGLE, 0.5, kstar)
            return
        rep = threshold_bounds(scalar_model(a=0.1), [scalar_agent()], SINGLE, 0.5, kstar)
    want = (Fraction(50) ** kstar - 1) / 49
    assert abs(Fraction(float(rep.M[0, 0, 0, 0])) / want - 1) <= 1e-12
    assert rep.network_bound == pytest.approx(1.0, abs=1e-12)


def test_threshold_case1_network_bound_positive():
    # The designed bound is deliberately conservative: with contraction
    # factors taken from the actual filter covariances (whose constrained
    # directions are eps-small) it lands many orders of magnitude below the
    # empirically stable threshold range.  Only positivity is load-bearing.
    model, agents, top = path3_setup()
    rep = threshold_bounds(model, agents, top, beta=6e-4, kstar=7)
    assert rep.network_bound > 0
    print(f"case-1 threshold network bound: {rep.network_bound:.3e} "
          f"(stable thresholds observed up to ~1e-1)")


# --- constrained-space helpers ----------------------------------------------

def test_space_decomposition_axis_aligned():
    F, Dt = space_decomposition(np.array([[0.0, 1.0]]))
    assert np.allclose(F, np.eye(2))
    assert np.allclose(np.abs(Dt), [[1.0]])


def test_space_decomposition_diagonal_direction():
    F, Dt = space_decomposition(np.array([[1.0, -1.0]]) / np.sqrt(2))
    s = 1 / np.sqrt(2)
    assert np.allclose(F[:, 0], [s, s])      # null space of D
    assert np.allclose(F[:, 1], [s, -s])     # row space, sign-canonical
    assert np.allclose(Dt, [[1.0]])


def test_space_decomposition_properties():
    rng = np.random.default_rng(8)
    for _ in range(20):
        D = rng.standard_normal((2, 5))
        F, Dt = space_decomposition(D)
        assert np.allclose(F.T @ F, np.eye(5), atol=1e-10)
        prod = D @ F
        assert np.abs(prod[:, :3]).max() < 1e-10
        assert np.allclose(prod[:, 3:], Dt, atol=1e-10)
        assert abs(np.linalg.det(Dt)) > 1e-12


def test_space_decomposition_accepts_global_constraint():
    gc = GlobalConstraint(Dbar=np.array([[0.0, 1.0]]), dbar=np.zeros(1))
    F, Dt = space_decomposition(gc)
    assert np.allclose(np.abs(F), np.eye(2))
    with pytest.raises(ValueError, match="row rank"):
        space_decomposition(np.array([[1.0, 0], [2.0, 0]]))


def test_constraint_error_selects_constrained_components():
    F = np.eye(3)
    e = constraint_error([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], F, s_bar=2)
    assert np.allclose(e, [2.0, 3.0])
    assert constraint_error([1.0], [0.0], np.eye(1), 0).size == 0


def test_constraint_error_takes_trial_blocks():
    rng = np.random.default_rng(5)
    F, _ = space_decomposition(rng.standard_normal((2, 4)))
    x_hat, x = rng.standard_normal((4, 7)), rng.standard_normal((4, 7))
    block = constraint_error(x_hat, x, F, 2)
    assert block.shape == (2, 7)
    for c in range(7):
        assert np.allclose(block[:, c], np.linalg.solve(F, x_hat[:, c] - x[:, c])[2:],
                           atol=1e-12)


def test_constraint_error_vanishes_for_feasible_pairs():
    D = np.array([[1.0, -np.sqrt(3.0), 0, 0], [0, 0, 1.0, -np.sqrt(3.0)]])
    F, Dt = space_decomposition(D / 2.0)
    x = np.array([np.sqrt(3.0), 1.0, 2 * np.sqrt(3.0), 2.0])   # D x = 0
    x_hat = x + np.array([np.sqrt(3.0), 1.0, 0, 0])            # still feasible
    assert np.abs(constraint_error(x_hat, x, F, 2)).max() < 1e-12


# --- positive-part operator ---------------------------------------------------

def test_eig_pos_examples():
    P = oracles.random_psd(np.random.default_rng(0), 3)
    assert np.allclose(eig_pos(P), P, atol=1e-10)
    assert np.allclose(eig_pos(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))


def test_eig_pos_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eig_pos(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_pos_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((6, 4, 4))
    stack = 0.5 * (B + B.swapaxes(1, 2))
    assert np.array_equal(eig_pos(stack), np.array([eig_pos(M) for M in stack]))
    stack[4, 0, 1] += 1e-3          # one asymmetric member spoils the stack
    with pytest.raises(ValueError, match="symmetric"):
        eig_pos(stack)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_eig_pos_dominates(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((4, 4))
    M = 0.5 * (B + B.T)
    Mp = eig_pos(M)
    assert np.linalg.eigvalsh(Mp).min() >= -1e-10
    assert np.linalg.eigvalsh(Mp - M).min() >= -1e-10


# --- information recursions ----------------------------------------------------

def tables(model, agents, top, T, beta=0.4, beta_bar=0.7):
    return analysis._rate_tables(T, model, agents, top, beta, beta_bar)


def test_f_upper_seed_term():
    f0 = tables(scalar_model(), [scalar_agent()], SINGLE, 0, beta_bar=0.8).f[0, 0]
    assert f0[0, 0] == pytest.approx(2.0)  # Q^-1 + H^T R^-1 H


def test_f_upper_blind_agent_decays_geometrically():
    agents = [AgentSpec(H=np.zeros((1, 1)), R=np.eye(1),
                        D=np.zeros((0, 1)), d=np.zeros(0))]
    f = tables(scalar_model(), agents, SINGLE, 4, beta_bar=0.8).f
    for t in (0, 1, 4):
        assert f[t, 0, 0, 0] == pytest.approx(0.8 ** t)


def test_f_upper_matches_loop_oracle():
    model, agents, top = path3_setup()
    info_y, info_d = info_blocks(model, agents)
    f = tables(model, agents, top, 6).f
    assert f.shape == (7, 3, 4, 4)
    for t in range(7):
        for i in range(3):
            expect = oracles.f_recursion(t, i, model.A_at(0), model.Q_at(0),
                                         top.weights, info_y, info_d, 0.7)
            assert np.allclose(f[t, i], expect, atol=1e-9)


def test_z_lower_starts_at_zero():
    zbar = tables(scalar_model(), [scalar_agent()], SINGLE, 3, beta=0.5).zbar
    assert np.allclose(zbar[0], 0.0)


def test_z_lower_matches_loop_oracle():
    model, agents, top = path3_setup()
    info_y, info_d = info_blocks(model, agents)
    zbar = tables(model, agents, top, 6).zbar
    assert zbar.shape == (7, 3, 4, 4)
    for t in range(7):
        for i in range(3):
            expect = oracles.z_recursion(t, i, 0.0, model.A_at(0), top.weights,
                                         info_y, info_d, 0.4)
            assert np.allclose(zbar[t, i], expect, atol=1e-9)


def test_z_lower_threshold_term_separates():
    # z(delta) = z(0) - delta * S_t for t >= 2: the penalty enters linearly
    model, agents, top = path3_setup()
    info_y, info_d = info_blocks(model, agents)
    tb = tables(model, agents, top, 6)
    delta = 0.35
    for t in range(2, 7):
        for i in range(3):
            z_d = oracles.z_recursion(t, i, delta, model.A_at(0), top.weights,
                                      info_y, info_d, 0.4)
            assert np.allclose(z_d, tb.zbar[t, i] - delta * tb.S[t], atol=1e-10)


def test_delta_correction_zero_below_two_steps():
    S = tables(scalar_model(), [scalar_agent()], SINGLE, 2, beta=0.5).S
    assert np.allclose(S[:2], 0.0)
    assert S[2, 0, 0] == pytest.approx(0.25)
    model, agents, top = path3_setup()
    S = tables(model, agents, top, 6).S
    for t in range(7):
        assert np.allclose(S[t], oracles.s_correction(t, model.A_at(0), 0.4),
                           atol=1e-12)


@pytest.mark.parametrize("n", [4, 1])
def test_neighbourhood_sum_is_bit_identical_to_the_per_agent_loop(n):
    # threshold_bounds' all-pairs sums: slot_sum over the complete slot list,
    # slot j holding agent j's term for every receiver.  Zero weights must
    # add exact zeros and j must run in index order, so that the bounds
    # cannot move with the stacking; for a scalar state numpy's own
    # reduction would sum N ≥ 8 terms pairwise
    rng = np.random.default_rng(11)
    N = 20
    Ws = [np.where(rng.random((N, N)) < 0.5, rng.random((N, N)), 0.0)
          for _ in range(2)]
    Xs = [rng.standard_normal((N, n, n)) * 10.0 ** rng.integers(-3, 4, (N, 1, 1))
          for _ in range(2)]
    per_j = sum(W.T[:, :, None, None] * X[:, None] for W, X in zip(Ws, Xs))
    got = slot_sum(per_j.reshape(-1, n, n), (N,) * N)
    for i in range(N):
        acc = np.zeros((n, n))
        for j in range(N):
            acc += Ws[0][i, j] * Xs[0][j] + Ws[1][i, j] * Xs[1][j]
        assert np.array_equal(got[i], acc)


def case2_setup():
    cfg = sim.case2(N=20)
    return cfg.model, cfg.agents, cfg.topology


@pytest.mark.parametrize("setup", [directed4_setup, case2_setup])
def test_edge_list_tables_are_bit_identical_to_the_dense_sums(setup):
    # the in-edge sums add the dense form's terms in its order, so f, z̄ and
    # S match it bit for bit, the sign of every zero included
    model, agents, top = setup()
    tb = tables(model, agents, top, 40)
    for got, ref in zip((tb.f, tb.zbar, tb.S),
                        oracles.dense_rate_tables(40, model, agents, top, 0.4, 0.7)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("make", [sim.case1, lambda: sim.case2(N=20),
                                  lambda: sim.case2(N=60)], ids=["case1", "case2", "case2-N60"])
def test_rate_tables_equal_the_dense_recursion_over_the_design_horizon(make):
    # f and u advance as one stack, and S's terms are formed again only
    # where they overflow: at the design's factors and horizon nothing moves
    cfg = make()
    net = (cfg.model, cfg.agents, cfg.topology)
    betas = sim.pilot_betas(cfg)
    tb = analysis._rate_tables(250, *net, *betas)
    for got, ref in zip((tb.f, tb.zbar, tb.S), oracles.dense_rate_tables(250, *net, *betas)):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_rate_tables_powers_feed_the_silence_term():
    model, agents, top = path3_setup()
    info_y, _ = info_blocks(model, agents)
    tb = tables(model, agents, top, 5)
    for t in range(6):
        Ap = tb.Ainv_pow[t]
        for i in range(3):
            assert np.allclose(tb.beta_pow[t] * Ap.T @ tb.info_y[i] @ Ap,
                               oracles.l_matrix(t, i, model.A_at(0), info_y, 0.4),
                               atol=1e-12)


# --- trigger-horizon solvers -----------------------------------------------------

BLIND = [AgentSpec(H=np.zeros((1, 1)), R=np.eye(1),
                   D=np.zeros((0, 1)), d=np.zeros(0))]


def scan(delta, i, model, agents, top, T, beta, beta_bar):
    """(T1, T2) of agent i from freshly built tables."""
    return analysis._scan_agent(analysis._rate_tables(T, model, agents, top, beta,
                                                      beta_bar), delta, i)


def test_solve_T1_blind_scalar_exact():
    # f = 0.8^t, penalty = delta*(1 - S_t) with S_t = sum_{tau>=2} 0.5^tau:
    # positivity holds through t = 6 and fails from t = 7 on
    model = scalar_model()
    t1, _ = scan(0.5, 0, model, BLIND, SINGLE, T=20, beta=0.5, beta_bar=0.8)
    assert t1 == 6


def test_solve_T1_huge_delta_excludes_triggering():
    model = scalar_model()
    t1, _ = scan(1.5, 0, model, BLIND, SINGLE, T=20, beta=0.5, beta_bar=0.8)
    assert t1 == 0


def test_solve_T1_zero_delta_unbounded():
    model = scalar_model()
    assert scan(0.0, 0, model, BLIND, SINGLE, T=20,
                beta=0.5, beta_bar=0.8)[0] is None


def test_solve_T1_monotone_in_delta():
    model = scalar_model()
    vals = [scan(d, 0, model, BLIND, SINGLE, T=40, beta=0.5, beta_bar=0.8)[0]
            for d in (0.05, 0.1, 0.3, 0.6, 0.9)]
    assert all(v is not None for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_solve_T2_above_uniform_level_runs_full_horizon():
    model = scalar_model()
    _, t2 = scan(1.2, 0, model, BLIND, SINGLE, T=30, beta=0.5, beta_bar=0.8)
    assert t2 == 30


def test_solve_T2_zero_delta_infeasible():
    model = scalar_model()
    assert scan(0.0, 0, model, BLIND, SINGLE, T=30,
                beta=0.5, beta_bar=0.8)[1] is None


def test_solve_T2_prefix_semantics():
    # the guarantee must hold at every step up to the reported horizon, so a
    # positive gap at s=0 kills it even if later gaps are negative
    model = scalar_model()
    assert scan(0.9, 0, model, BLIND, SINGLE, T=30,
                beta=0.5, beta_bar=0.8)[1] is None


def test_scans_match_loops_over_the_oracle_recursions():
    for setup in (path3_setup, directed4_setup):
        check_scans_against_the_oracle_recursions(*setup())


def check_scans_against_the_oracle_recursions(model, agents, top):
    info_y, info_d = info_blocks(model, agents)
    A, W, T, n = model.A_at(0), top.weights, 8, model.n
    tb = tables(model, agents, top, T)

    def positive_part(M):
        w, V = np.linalg.eigh(M)
        return V @ np.diag(np.maximum(w, 0.0)) @ V.T

    for delta in (0.8, 5.0, 500.0, 2000.0, 1e4):
        for i in range(len(agents)):
            f = [oracles.f_recursion(t, i, A, model.Q_at(0), W, info_y, info_d, 0.7)
                 for t in range(T + 1)]
            hits = [t for t in range(T + 1) if np.linalg.eigvalsh(
                f[t] - positive_part(oracles.z_recursion(
                    t, i, delta, A, W, info_y, info_d, 0.4) + delta * np.eye(n))
            ).max() > 0]
            t1 = None if len(hits) == T + 1 else max(hits, default=0)
            t2 = T
            for t in range(T + 1):    # prefix: stop at the first failing step
                l_t = oracles.l_matrix(t, i, A, info_y, 0.4)
                if np.linalg.eigvalsh(f[t] - l_t).max() - delta > 0:
                    t2 = t - 1 if t > 0 else None
                    break
            assert analysis._scan_agent(tb, delta, i) == (t1, t2)


@pytest.mark.parametrize("blind, T, delta, expect", [
    (True, 250, 0.01, (23, None)),    # last hit in the fifth chunk from T
    (True, 24, 0.01, (23, None)),     # last hit one below T, in the first chunk
    (True, 31, 0.01, (23, None)),     # last hit the top step of the second chunk
    (True, 23, 0.01, (None, None)),   # every step hits
    (True, 8, 0.5, (6, None)),        # last hit in the first chunk from T
    (True, 17, 1.2, (0, 17)),         # no hit; no failing step
    (True, 0, 1.2, (0, 0)),
    (True, 0, 0.5, (None, None)),
    (False, 250, 4.9, (250, 15)),     # first failing step inside the second chunk
    (False, 250, 4.99, (250, 25)),    # ... inside the third
    (False, 250, 4.4, (250, 7)),      # ... the first step of the second
    (False, 16, 4.9, (16, 15)),
    (False, 9, 2.0, (9, 0)),
    (False, 1, 5.0, (0, 1)),
    (False, 7, 1e4, (0, 7)),
])
def test_scans_from_the_ends_pin_every_outcome(blind, T, delta, expect):
    # T1 ∈ {None, 0, interior, T} and T2 ∈ {None, 0, interior, T}, found in
    # the first, a middle or the last of the doubling chunks
    agents = BLIND if blind else [scalar_agent()]
    tb = analysis._rate_tables(T, scalar_model(), agents, SINGLE, 0.5, 0.8)
    assert analysis._scan_agent(tb, delta, 0) == oracles.full_scan(tb, delta, 0) == expect


@settings(max_examples=60, deadline=None)
@given(cfg=directed_scenarios(modes=("event",)),
       T=st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17, 250]),
       delta=st.sampled_from([0.0, 0.05, 1.0, 1e4]),
       betas=st.sampled_from([(0.4, 0.7), (0.5, 0.9), (0.2, 0.95)]))
def test_scans_from_the_ends_equal_the_full_scan_on_random_networks(cfg, T, delta, betas):
    tb = analysis._rate_tables(T, cfg.model, cfg.agents, cfg.topology, *betas)
    for i in range(cfg.topology.N):
        assert analysis._scan_agent(tb, delta, i) == oracles.full_scan(tb, delta, i)


@pytest.mark.parametrize("make, deltas", [
    (sim.case1, (0.0, 0.3, 1.0, 5.0, 100.0, 1e4)),
    (lambda: sim.case2(N=20), (0.0, 0.4, 1.2, 5.0, 100.0, 1e4)),
    (lambda: sim.case2(N=60), (0.0, 0.4, 1.2, 5.0, 100.0, 1e4)),
], ids=["case1", "case2", "case2-N60"])
def test_rate_bound_reports_equal_the_full_scan_reports(make, deltas, monkeypatch):
    cfg = make()
    net, betas = (cfg.model, cfg.agents, cfg.topology), sim.pilot_betas(cfg)
    tb = analysis._rate_tables(250, *net, *betas)
    monkeypatch.setattr(analysis, "_rate_tables", lambda *a: tb)   # built once
    for delta in deltas:
        fast = rate_bound(delta, *net, 250, *betas)
        with monkeypatch.context() as m:
            m.setattr(analysis, "_scan_agent", oracles.full_scan)
            assert rate_bound(delta, *net, 250, *betas) == fast


# --- silence-rate bound -----------------------------------------------------------

def two_scalar_agents():
    return [scalar_agent(h=1.0, r=1.0),
            AgentSpec(H=np.zeros((1, 1)), R=np.eye(1),
                      D=np.zeros((0, 1)), d=np.zeros(0))]


def test_rate_bound_formula_plugin(monkeypatch):
    # pin the crediting formula itself: T1 = T2 = 1 on both agents of a
    # two-node graph with T = 100 must yield exactly one half
    monkeypatch.setattr(analysis, "_scan_agent", lambda *a, **k: (1, 1))
    rep = rate_bound(0.7, scalar_model(), two_scalar_agents(), PAIR, T=100,
                     beta=0.5, beta_bar=0.8)
    assert rep.lambda0 == pytest.approx(0.5)
    assert rep.lambda0_asymptotic == pytest.approx(0.5)
    assert rep.V1 == [0, 1]
    assert rep.status == "ok"


def test_rate_bound_zero_T2_is_vacuous(monkeypatch):
    monkeypatch.setattr(analysis, "_scan_agent", lambda *a, **k: (1, 0))
    rep = rate_bound(0.7, scalar_model(), two_scalar_agents(), PAIR, T=100,
                     beta=0.5, beta_bar=0.8)
    assert rep.lambda0 == pytest.approx(1.0)


@pytest.mark.parametrize("delta, T, message", [
    (float("inf"), 20, "^delta must be finite and nonnegative$"),
    (float("nan"), 20, "^delta must be finite and nonnegative$"),
    (-0.5, 20, "^delta must be finite and nonnegative$"),
    (True, 20, "^delta must be a number, got True$"),
    (0.7, -1, "^T must be at least 1, got -1$"),
    (0.7, 0, "^T must be at least 1, got 0$"),
    (0.7, 2.5, r"^T must be an integer, got 2\.5$"),
], ids=["inf-delta", "nan-delta", "negative-delta", "bool-delta", "negative-T", "zero-T",
        "float-T"])
def test_rate_bound_names_a_bad_threshold_or_horizon(delta, T, message):
    # δ = inf or NaN used to be reported as an overflow of the rate tables,
    # and T = 0 as "no bound available"
    with pytest.raises(ValueError, match=message):
        rate_bound(delta, scalar_model(), two_scalar_agents(), PAIR, T=T,
                   beta=0.5, beta_bar=0.8)


def test_rate_bound_no_qualifying_agent():
    rep = rate_bound(0.0, scalar_model(), BLIND, SINGLE, T=20,
                     beta=0.5, beta_bar=0.8)
    assert rep.status == "no bound available"
    assert rep.lambda0 is None
    assert rep.T1 == [None]
    assert rep.condition1_ok == [False]


def test_rate_bound_blind_pair_nontrivial():
    agents = [AgentSpec(H=np.zeros((1, 1)), R=np.eye(1),
                        D=np.zeros((0, 1)), d=np.zeros(0)) for _ in range(2)]
    rep = rate_bound(1.2, scalar_model(), agents, PAIR, T=100,
                     beta=0.5, beta_bar=0.8)
    bigger = rate_bound(1.2 * 1.1 + 1e-6, scalar_model(), agents, PAIR, T=100,
                        beta=0.5, beta_bar=0.8)
    assert rep.status == "ok"
    assert rep.lambda0 is not None and 0.0 <= rep.lambda0 <= 1.0
    for t1, t2 in zip(rep.T1, rep.T2):
        assert t1 is not None and 0 <= t1 <= 100
        assert t2 is not None and 0 <= t2 <= 100
    # a larger threshold cannot certify more communication
    assert rep.lambda0 >= bigger.lambda0 - 1e-12
    assert rep.condition2_ok == [True, True]


def test_rate_bound_report_ranges():
    rep = rate_bound(0.8, scalar_model(), two_scalar_agents(), PAIR, T=50,
                     beta=0.5, beta_bar=0.8)
    for t in rep.T1 + rep.T2:
        assert t is None or 0 <= t <= 50
    if rep.lambda0 is not None:
        assert 0.0 <= rep.lambda0 <= 1.0 + 1e-12


@pytest.mark.parametrize("beta, beta_bar", [
    (1.0, 0.8), (0.0, 0.8), (0.5, 2.0), (0.5, 1.0), (float("nan"), 0.8),
    (0.5, float("nan")), (0.5, float("inf")),
])
def test_rate_analysis_rejects_factors_outside_unit_interval(beta, beta_bar):
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        rate_bound(0.7, scalar_model(), two_scalar_agents(), PAIR, T=20,
                   beta=beta, beta_bar=beta_bar)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        analysis._rate_tables(20, scalar_model(), BLIND, SINGLE, beta, beta_bar)


def _overflowing():
    # A = 0.1: A⁻ᵀ(·)A⁻¹ multiplies the information by 100 per step, so with
    # β̄ = 0.9 f grows 90-fold and overflows at step 158; (A^{-τ})ᵀA^{-τ}
    # overflows from τ = 155 on, but the term β^τ·(A^{-τ})ᵀA^{-τ} of S is 50^τ
    return scalar_model(a=0.1, q=1.0), [scalar_agent(delta=1.2)]


def test_rate_tables_that_overflow_name_their_first_step():
    model, agents = _overflowing()
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        with pytest.raises(ValueError, match=r"^the rate tables overflow: f not "
                                             r"finite from step 158 of the horizon"):
            analysis._rate_tables(250, model, agents, SINGLE, 0.5, 0.9)
        with pytest.raises(ValueError, match="from step 158"):
            rate_bound(1.2, model, agents, SINGLE, T=250, beta=0.5, beta_bar=0.9)
        tb = analysis._rate_tables(157, model, agents, SINGLE, 0.5, 0.9)
    assert all(np.isfinite(X).all() for X in (tb.f, tb.zbar, tb.S))


def test_rate_tables_keep_S_whose_unscaled_terms_overflow():
    # with β̄ = 0.5, f grows 50-fold and stays finite up to step 181, and so
    # does S[t] = Σ_{τ=2..t} 50^τ, though (A^{-τ})ᵀA^{-τ} = 100^τ overflows
    # from τ = 155 on
    model, agents = _overflowing()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tb = analysis._rate_tables(181, model, agents, SINGLE, 0.5, 0.5)
        with pytest.raises(ValueError, match="not finite from step 182 "):
            analysis._rate_tables(182, model, agents, SINGLE, 0.5, 0.5)
    assert all(np.isfinite(X).all() for X in (tb.f, tb.zbar, tb.S))
    want = float(sum(50 ** tau for tau in range(2, 156)))
    assert tb.S[155, 0, 0] == pytest.approx(want, rel=1e-12)
    assert tb.S[154, 0, 0] == pytest.approx(want - 50.0 ** 155, rel=1e-12)


def _exact_scalar_scan(a, delta, T, beta, beta_bar):
    """(T1, T2) of the one-agent scalar model with q = h = r = 1, in exact
    arithmetic: the recursions of `_rate_tables` and the scans of
    `_scan_agent` over every step, with Fractions of the floats given."""
    a, delta, beta, beta_bar = map(Fraction, (a, delta, beta, beta_bar))
    grow = 1 / (a * a)                       # A⁻ᵀ(·)A⁻¹ of a scalar
    f, u, zbar, S = [Fraction(2)], Fraction(1), [Fraction(0)], [Fraction(0)]
    for t in range(1, T + 1):
        zbar.append(beta * grow * u)
        u = beta * grow * u + 1
        f.append(beta_bar * grow * f[-1] + 1)
        S.append(S[-1] + (beta * grow) ** t if t >= 2 else Fraction(0))
    hits = [f[t] - max(zbar[t] + delta * (1 - S[t]), Fraction(0)) > 0 for t in range(T + 1)]
    t1 = None if all(hits) else max((t for t, h in enumerate(hits) if h), default=0)
    fails = [t for t in range(T + 1) if f[t] - (beta * grow) ** (t + 1) - delta > 0]
    t2 = T if not fails else (fails[0] - 1 if fails[0] else None)
    return t1, t2


@pytest.mark.parametrize("T", [120, 150, 154, 160, 181])
@pytest.mark.parametrize("delta", [1.2, 1e100])
def test_rate_scans_decide_exactly_or_name_their_overflow(T, delta):
    # A = 0.1: the silence term β^{s+1}(A^{-(s+1)})ᵀHᵀR⁻¹HA^{-(s+1)} = 50^{s+1}
    # is formed unscaled as 100^{s+1}, which overflows from s = 154 on, and
    # δ·(I − S) overflows at δ = 1e100 once S passes 1.8e208 (step 123).  The
    # scans read no term that is not finite: each answer is the exact one,
    # or the tables' ValueError names the term, the step and δ.
    model, agents = _overflowing()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rep = rate_bound(delta, model, agents, SINGLE, T=T, beta=0.5, beta_bar=0.5)
        except ValueError as exc:
            assert re.match(r"the rate tables overflow: (the silence term|zbar \+ delta\*\(I "
                            r"- S\)) not finite at step \d+ for delta \S+; try a shorter "
                            r"horizon$", str(exc))
            assert delta == 1e100 or T == 181      # the only terms out of range
            return
    assert (rep.T1[0], rep.T2[0]) == _exact_scalar_scan(0.1, delta, T, 0.5, 0.5)
