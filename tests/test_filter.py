import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdkf import filter as filter_module
from pdkf.filter import (
    AgentState,
    ConsistentEstimate,
    _ensure_pd,
    ci_maps,
    init_consistent,
    kalman_gain,
    pinv,
    projection_map,
    symmetrize,
)
from pdkf.event import tpdkf_round
from pdkf.model import AgentSpec, SystemModel, Topology, metropolis_weights

import oracles

RNG_PROPERTY_RUNS = 100


def ci_one(infos, weights):
    """`ci_maps` on one agent that fuses every given pair: (P, [C_j])."""
    P, C = ci_maps(infos, weights, ((1,) * len(infos), np.zeros(len(infos), dtype=int)))
    return P[0], C


@pytest.mark.parametrize("x, P, field", [
    (np.zeros(2), np.full((2, 2), np.nan), "P"),
    (np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]]), "P"),
    (np.array([0.0, np.nan]), np.eye(2), "x"),
    (np.array([-np.inf, 0.0]), np.eye(2), "x"),
], ids=["nan-P", "inf-P", "nan-x", "inf-x"])
def test_consistent_estimate_rejects_non_finite(x, P, field):
    # numpy's Cholesky returns a NaN factor for such a P instead of raising
    with pytest.raises(ValueError, match=f"^{field} has non-finite entries"):
        ConsistentEstimate(x, P)


@pytest.mark.parametrize("P", [np.zeros((2, 3)), np.zeros(2), np.eye(3)],
                         ids=["non-square", "vector", "other-size"])
def test_consistent_estimate_rejects_a_P_of_another_shape(P):
    # checked before the Cholesky, which would fail on it with numpy's message;
    # the message is TriggerState's too (one rule, model._check_covariance)
    with pytest.raises(ValueError, match=rf"^P must be \(2, 2\), got {re.escape(str(P.shape))}$"):
        ConsistentEstimate(np.zeros(2), P)


def test_consistent_estimate_copies_its_pair():
    # x used to alias the caller's array, so editing it moved the estimate
    x, P = np.arange(3.0), np.eye(3)
    est = ConsistentEstimate(x, P)
    x[:] = 9.0
    P[:] = 7.0
    assert np.array_equal(est.x, np.arange(3.0)) and np.array_equal(est.P, np.eye(3))


# --- initialization ------------------------------------------------------

def test_init_no_bias_doubles_prior():
    est = init_consistent(x0_hat=[1.0], P0=[[2.0]], theta=1.0, x0_mean=[1.0])
    assert est.P[0, 0] == pytest.approx(4.0)
    assert est.x[0] == 1.0


def test_init_bias_term():
    # theta = 1, bias b = 3: P = 2*P0 + 2*b^2
    est = init_consistent(x0_hat=[3.0], P0=[[2.0]], theta=1.0, x0_mean=[0.0])
    assert est.P[0, 0] == pytest.approx(4.0 + 2 * 9.0)


def test_init_rejects_bad_theta():
    with pytest.raises(ValueError):
        init_consistent([0.0], [[1.0]], theta=0.0, x0_mean=[0.0])


@pytest.mark.parametrize("theta, message", [
    ("1", "^theta must be a number, got '1'$"),
    (True, "^theta must be a number, got True$"),
    (float("inf"), "^theta must be finite and positive, got inf$"),
], ids=["str", "bool", "inf"])
def test_init_names_a_theta_that_is_not_a_finite_positive_real(theta, message):
    # a string used to raise a raw TypeError, and inf to fail as "P has
    # non-finite entries"
    with pytest.raises(ValueError, match=message):
        init_consistent([0.0], [[1.0]], theta=theta, x0_mean=[0.0])


@pytest.mark.parametrize("P0, x0_mean, message", [
    ([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0], "^P0 is not symmetric$"),
    (np.eye(3), [0.0, 0.0], r"^P0 must be \(2, 2\), got \(3, 3\)$"),
    (np.diag([-1.0, 1.0]), [0.0, 0.0], "^P0 must be positive semidefinite$"),
    (np.eye(2), [0.0, 0.0, 0.0], "^x0_mean must have 2 entries, got 3$"),
    (np.eye(2), [0.0, np.nan], "^x0_mean has non-finite entries$"),
], ids=["asymmetric-P0", "P0-too-big", "indefinite-P0", "long-x0_mean", "nan-x0_mean"])
def test_init_names_a_bad_P0_or_x0_mean(P0, x0_mean, message):
    # each used to fail in the P built from them ("P is not symmetric", "P must
    # be positive definite", "P has non-finite entries") or in numpy's broadcast
    with pytest.raises(ValueError, match=message):
        init_consistent([0.0, 0.0], P0, 1.0, x0_mean)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=20.0),
       st.integers(min_value=0, max_value=10_000))
def test_init_dominates_prior_moment(theta, seed):
    # E[(x0_hat - x0)(..)^T] = P0 + b b^T must stay below the inflated P
    rng = np.random.default_rng(seed)
    n = 3
    P0 = oracles.random_psd(rng, n)
    b = rng.standard_normal(n)
    est = init_consistent(b, P0, theta, np.zeros(n))
    moment = P0 + np.outer(b, b)
    assert np.linalg.eigvalsh(est.P - moment).min() >= -1e-9


# --- predict / update ----------------------------------------------------

def test_predict_scalar():
    # one blind, unconstrained agent: its step is the prediction alone
    model = SystemModel(A=np.array([[1.0]]), Q=np.array([[3.0]]),
                        x0_mean=np.zeros(1), P0=np.eye(1))
    agent = AgentSpec(H=np.zeros((1, 1)), R=np.eye(1), D=np.zeros((0, 1)), d=np.zeros(0))
    states = [AgentState(0, ConsistentEstimate([1.0], [[2.0]]))]
    [out] = tpdkf_round(states, [None], model, [agent], Topology(np.array([[1.0]])), L=1)
    est = out.estimate
    assert est.P[0, 0] == pytest.approx(5.0)
    assert est.x[0] == pytest.approx(1.0)


def test_measurement_update_scalar_gain():
    # P=5, H=1, R=90: K = 5/95, P+ = (1-K)*5 = 450/95
    K, P = kalman_gain(np.array([[5.0]]), np.array([[1.0]]), np.array([[90.0]]))
    assert (K @ [1.0])[0] == pytest.approx(5.0 / 95.0)
    assert P[0, 0] == pytest.approx(450.0 / 95.0)


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_predict_update_matches_textbook_kf(seed):
    rng = np.random.default_rng(seed)
    n, m = 3, 2
    P = oracles.random_psd(rng, n)
    x = rng.standard_normal(n)
    A = rng.standard_normal((n, n)) + 2 * np.eye(n)
    Q = oracles.random_psd(rng, n)
    H = rng.standard_normal((m, n))
    R = oracles.random_psd(rng, m, jitter=0.1)
    y = rng.standard_normal(m)

    # the engine's prediction, then its gain
    x_got, P_got = A @ x, _ensure_pd(symmetrize(A @ P @ A.T + Q), "P")
    K, P_got = kalman_gain(P_got, H, R)
    x_got = x_got + K @ (y - H @ x_got)
    xe, Pe = oracles.kf_predict(x, P, A, Q)
    xe, Pe = oracles.kf_update(xe, Pe, y, H, R)
    assert np.allclose(x_got, xe, atol=1e-8)
    assert np.allclose(P_got, Pe, atol=1e-8)


# --- covariance intersection ---------------------------------------------

def test_ci_fuse_harmonic_scalar():
    P, C = ci_one([np.array([[1.0]]), np.array([[1.0 / 3.0]])], [0.5, 0.5])
    assert P[0, 0] == pytest.approx(1.5)
    assert (C[0] @ [0.0] + C[1] @ [2.0])[0] == pytest.approx(0.5)


def test_ci_fuse_single_pair_identity():
    P, C = ci_one([np.linalg.inv(np.diag([2.0, 3.0]))], [1.0])
    assert np.allclose(C[0] @ [1.0, 2.0], [1.0, 2.0])
    assert np.allclose(P, np.diag([2.0, 3.0]))


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_ci_fuse_consistency_preserved(seed):
    # if P_j dominates the true moment for each input, CI's output dominates
    # the fused moment for *any* cross-correlation; check the classic bound
    # P_out >= (sum_j w_j P_j^-1)^-1 with equality, and P_out <= max_j P_j/w_j
    rng = np.random.default_rng(seed)
    n = 3
    pairs = [(rng.standard_normal(n), oracles.random_psd(rng, n))
             for _ in range(3)]
    w = rng.random(3) + 0.1
    w = w / w.sum()
    P, C = ci_one([np.linalg.inv(P_j) for _, P_j in pairs], w)
    xo, Po = oracles.ci_combine(pairs, w)
    assert np.allclose(sum(C_j @ x_j for C_j, (x_j, _) in zip(C, pairs)), xo, atol=1e-8)
    assert np.allclose(P, Po, atol=1e-8)
    for (x_j, P_j), w_j in zip(pairs, w):
        # information of the output is at least each scaled input information
        gap = np.linalg.inv(P) - w_j * np.linalg.inv(P_j)
        assert np.linalg.eigvalsh(symmetrize(gap)).min() >= -1e-8


# --- constraint projection ------------------------------------------------

def test_project_unit_example():
    eps = 0.01
    G, c, P = projection_map(np.eye(2), np.array([[1.0, 0.0]]), np.array([0.0]), eps)
    assert np.allclose(G @ [1.0, 1.0] + c, [0.0, 1.0], atol=1e-12)
    assert np.allclose(P, np.diag([eps / (1 + eps), 1.0]), atol=1e-12)


def test_project_zero_D_identity():
    x, P = np.array([1.0, 2.0]), np.diag([1.0, 2.0])
    for D, d in [(np.zeros((0, 2)), np.zeros(0)),
                 (np.zeros((1, 2)), np.zeros(1))]:
        G, c, P_new = projection_map(P, D, d, 0.01)
        assert np.allclose(G @ x + c, x)
        assert np.allclose(P_new, P)


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_project_feasibility_and_information_identity(seed):
    rng = np.random.default_rng(seed)
    n, s = 4, 2
    P = oracles.random_psd(rng, n)
    x = rng.standard_normal(n)
    D = rng.standard_normal((s, n))
    d = rng.standard_normal(s)
    eps = 10.0 ** rng.uniform(-3, 0)
    G, c, P_new = projection_map(P, D, d, eps)
    # the state lands exactly on the constraint set
    assert np.abs(D @ (G @ x + c) - d).max() < 1e-9
    # information form of the covariance update, to 1e-8 relative
    lhs = np.linalg.inv(P_new)
    rhs = np.linalg.inv(P) + D.T @ D / eps
    assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_project_sandwiched_between_exact_and_none(seed):
    # exact null-space projection <= regularized projection <= no projection,
    # and the exact projection loses rank(D) directions
    rng = np.random.default_rng(seed)
    n, s = 4, 2
    P = oracles.random_psd(rng, n)
    x = rng.standard_normal(n)
    D = rng.standard_normal((s, n))
    d = rng.standard_normal(s)
    _G, _c, P_new = projection_map(P, D, d, 1e-2)
    S = D @ P @ D.T
    exact = P - P @ D.T @ np.linalg.inv(S) @ D @ P
    assert np.linalg.eigvalsh(symmetrize(P_new - exact)).min() >= -1e-9
    assert np.linalg.eigvalsh(symmetrize(P - P_new)).min() >= -1e-9
    eigs = np.sort(np.linalg.eigvalsh(symmetrize(exact)))
    assert np.all(np.abs(eigs[:s]) < 1e-8 * max(1.0, eigs[-1]))
    assert eigs[s] > 1e-8


# --- the shared kernels against the oracles, state side applied ----------

def _close(got, want, rtol=1e-8):
    return np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_kalman_gain_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n, m = 4, 2
    P = oracles.random_psd(rng, n)
    H = rng.standard_normal((m, n))
    R = oracles.random_psd(rng, m, jitter=0.1)
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    K, P_new = kalman_gain(P, H, R)
    x_want, P_want = oracles.kf_update(x, P, y, H, R)
    assert _close(x + K @ (y - H @ x), x_want)
    assert _close(P_new, P_want)
    assert np.array_equal(P_new, P_new.T)


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_ci_maps_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n, J = 3, 4
    pairs = [(rng.standard_normal(n), oracles.random_psd(rng, n)) for _ in range(J)]
    w = rng.dirichlet(np.ones(J))
    P, Cs = ci_one([np.linalg.inv(P_j) for _, P_j in pairs], w)
    x_want, P_want = oracles.ci_combine(pairs, w)
    assert _close(sum(C @ x_j for C, (x_j, _) in zip(Cs, pairs)), x_want)
    assert _close(P, P_want)


@settings(max_examples=RNG_PROPERTY_RUNS, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_projection_map_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n, s = 4, 2
    P = oracles.random_psd(rng, n)
    x = rng.standard_normal(n)
    D = rng.standard_normal((s, n))
    d = rng.standard_normal(s)
    eps = 10.0 ** rng.uniform(-3, 0)
    G, c, P_new = projection_map(P, D, d, eps)
    x_want, P_want = oracles.constrain(x, P, D, d, eps)
    assert _close(G @ x + c, x_want)
    assert _close(P_new, P_want)


# --- full step -----------------------------------------------------------

def single_agent_setup(rng):
    n, m = 3, 2
    A = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    Q = oracles.random_psd(rng, n)
    H = rng.standard_normal((m, n))
    R = oracles.random_psd(rng, m, jitter=0.1)
    model = SystemModel(A=A, Q=Q, x0_mean=np.zeros(n), P0=np.eye(n))
    agent = AgentSpec(H=H, R=R, D=np.zeros((0, n)), d=np.zeros(0))
    top = Topology(np.array([[1.0]]))
    return model, agent, top


@pytest.mark.parametrize("L", [1, 3])
def test_tpdkf_single_agent_reduces_to_kf(L):
    # one agent, no constraint: fusion is a no-op at any L, so the step
    # must equal a plain Kalman filter step
    rng = np.random.default_rng(42)
    model, agent, top = single_agent_setup(rng)
    x = rng.standard_normal(3)
    P = oracles.random_psd(rng, 3)
    y = rng.standard_normal(2)

    states = [AgentState(0, ConsistentEstimate(x, P))]
    out = tpdkf_round(states, [y], model, [agent], top, L=L, k=1)

    xe, Pe = oracles.kf_predict(x, P, model.A_at(0), model.Q_at(0))
    xe, Pe = oracles.kf_update(xe, Pe, y, agent.H, agent.R)
    assert np.allclose(out[0].estimate.x, xe, atol=1e-8)
    assert np.allclose(out[0].estimate.P, Pe, atol=1e-8)


def test_tpdkf_l_round_information_closed_form():
    # L rounds of {fuse over neighbors, constrain} acting on the post-update
    # information matrices follow the closed form with weight-matrix powers
    rng = np.random.default_rng(7)
    n, N, L = 3, 3, 4
    W = metropolis_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    D_list = [rng.standard_normal((1, n)), np.zeros((0, n)),
              rng.standard_normal((2, n))]
    eps_list = [0.5, 1.0, 0.25]
    ests = [(rng.standard_normal(n), oracles.random_psd(rng, n)) for _ in range(N)]
    omegas0 = [np.linalg.inv(P) for _, P in ests]

    for _ in range(L):
        rounds = []
        for i in range(N):
            nbrs = np.flatnonzero(W[i])
            P, C = ci_one([np.linalg.inv(ests[j][1]) for j in nbrs], W[i, nbrs])
            x = sum(C_j @ ests[j][0] for C_j, j in zip(C, nbrs))
            G, c, P = projection_map(P, D_list[i], np.zeros(D_list[i].shape[0]), eps_list[i])
            rounds.append((G @ x + c, P))
        ests = rounds

    expect = oracles.info_after_rounds(omegas0, W, D_list, eps_list, L)
    for (_, P), omega in zip(ests, expect):
        got = np.linalg.inv(P)
        assert np.abs(got - omega).max() <= 1e-8 * max(1.0, np.abs(omega).max())


def test_tpdkf_keeps_constrained_agents_feasible():
    rng = np.random.default_rng(3)
    n = 4
    D = np.array([[1.0, -np.sqrt(3.0), 0, 0]])
    model = SystemModel(A=np.eye(n), Q=np.eye(n),
                        x0_mean=np.zeros(n), P0=np.eye(n))
    agents = [
        AgentSpec(H=np.eye(1, n), R=np.eye(1), D=D, d=np.zeros(1)),
        AgentSpec(H=np.zeros((1, n)), R=np.eye(1),
                  D=np.zeros((0, n)), d=np.zeros(0)),
    ]
    top = Topology(metropolis_weights(np.array([[0, 1], [1, 0]])))
    states = [AgentState(i, ConsistentEstimate(rng.standard_normal(n),
                                               oracles.random_psd(rng, n)))
              for i in range(2)]
    for k in range(3):
        ys = [rng.standard_normal(1), rng.standard_normal(1)]
        states = tpdkf_round(states, ys, model, agents, top, L=2, k=k)
        assert np.abs(D @ states[0].estimate.x).max() < 1e-9


def test_pinv_cuts_tiny_singular_values():
    M = np.diag([1.0, 1e-12])
    Mi = pinv(M)
    assert Mi[0, 0] == pytest.approx(1.0)
    assert Mi[1, 1] == 0.0


def _svd_pinv(M):
    return np.linalg.pinv(M, rcond=1e-9)


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_pinv_of_well_conditioned_stacks_is_the_svd_pseudo_inverse(s):
    # the inverse it keeps differs from the SVD's only in the last bits
    rng = np.random.default_rng(s)
    stacks = [np.stack([oracles.random_psd(rng, s, scale=10.0 ** e) for e in
                        rng.uniform(-6, 6, 12)]),
              rng.standard_normal((12, s, s)) + 3 * s * np.eye(s)]    # unsymmetric
    for M in stacks:
        got, want = pinv(M), _svd_pinv(M)
        err = np.abs(got - want).max(axis=(-2, -1))
        assert (err <= 1e-12 * np.abs(want).max(axis=(-2, -1))).all()
        assert s == 1 or err.max() > 0      # the inverse, not the SVD, ran


def _ill_rotated(cond):
    """A 2×2 SPD matrix of condition number `cond` in rotated axes, whose
    inverse and SVD pseudo-inverse differ in their last bits."""
    c, s = np.cos(0.3), np.sin(0.3)
    U = np.array([[c, -s], [s, c]])
    return U @ np.diag([1.0, 1.0 / cond]) @ U.T


# members that must take the SVD, and an unsymmetric one whose inverse is
# exact in binary, so that the inverse and the SVD agree bit for bit
PINV_MEMBERS = {"cut": np.diag([1.0, 1e-12]), "cond-3e8": _ill_rotated(3e8),
                "zero": np.zeros((2, 2)), "unsymmetric": np.array([[0.0, 2.0], [-4.0, 0.0]])}


@pytest.mark.parametrize("name", list(PINV_MEMBERS))
def test_pinv_member_equals_the_svd_bit_for_bit(name):
    M = PINV_MEMBERS[name]
    assert np.array_equal(pinv(M), _svd_pinv(M))
    if name == "cond-3e8":      # a certificate loosened to 1e9 would keep this
        assert not np.array_equal(np.linalg.inv(M), _svd_pinv(M))


def test_pinv_of_a_mixed_stack_equals_single_calls():
    rng = np.random.default_rng(7)
    members = [*PINV_MEMBERS.values(), oracles.random_psd(rng, 2), rng.standard_normal((2, 2))]
    for order in (members, members[::-1], members[3:] + members[:3]):
        M = np.stack(order)
        got = pinv(M)
        for Mi, Gi in zip(M, got):
            assert np.array_equal(Gi, pinv(Mi))
        # the same members once more, with no exactly singular one in the stack
        kept = np.stack([m for m in order if m.any()])
        assert all(np.array_equal(Gi, pinv(Mi)) for Mi, Gi in zip(kept, pinv(kept)))


@pytest.mark.parametrize("others", [None, [np.eye(2)], [np.eye(2), np.zeros((2, 2))]],
                         ids=["single", "stacked", "stacked-with-a-singular-member"])
def test_pinv_of_a_nan_member_raises_as_the_svd_does(others):
    M = np.array([[1.0, np.nan], [0.0, 1.0]])
    if others is not None:
        M = np.stack([*others, M])
    with pytest.raises(np.linalg.LinAlgError) as svd:
        _svd_pinv(M)
    with pytest.raises(np.linalg.LinAlgError) as ours:
        pinv(M)
    assert str(ours.value) == str(svd.value)


# --- the private LAPACK kernels against np.linalg --------------------------

# (N, n): one covariance per agent for every state size the scenarios use,
# one-member and empty stacks, and the case2 N = 60 stack
KERNEL_STACKS = [(0, 4), (1, 1), (1, 4), (3, 2), (3, 4), (20, 4), (60, 4), (5, 3)]


def _spd_stack(rng, N, n):
    return symmetrize(np.array([oracles.random_psd(rng, n) for _ in range(N)]).reshape(N, n, n))


@pytest.mark.parametrize("N, n", KERNEL_STACKS)
def test_kernels_give_the_bits_of_np_linalg(N, n):
    rng = np.random.default_rng(100 * N + n)
    P = _spd_stack(rng, N, n)
    for stack in (P, *P[:1]):               # the stack, and one matrix alone
        assert np.array_equal(filter_module._inv(stack), np.linalg.inv(stack))
        assert np.array_equal(filter_module._inv_or_nan(stack), np.linalg.inv(stack))
        assert np.array_equal(filter_module._cholesky(stack), np.linalg.cholesky(stack))
    for rows in (1, 2):                     # the gain's S and the projection's S + εI
        S = _spd_stack(rng, N, rows)
        B = rng.standard_normal((N, rows, n))
        assert np.array_equal(filter_module._solve(S, B), np.linalg.solve(S, B))


def _failing_stack():
    """An SPD member, a singular one and an indefinite one."""
    return np.stack([np.diag([2.0, 3.0]), np.zeros((2, 2)), np.diag([1.0, -1.0])])


def test_kernels_raise_or_give_nan_as_their_callers_need():
    # _inv and _solve raise np.linalg's error for the whole stack; the
    # guards' _cholesky and _inv_or_nan give NaN for each failing member only
    M = _failing_stack()
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        filter_module._inv(M)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        filter_module._solve(M, np.ones((3, 2, 1)))
    inv, chol = filter_module._inv_or_nan(M), filter_module._cholesky(M)
    assert np.array_equal(inv[[0, 2]], np.linalg.inv(M[[0, 2]]))
    assert np.array_equal(chol[0], np.linalg.cholesky(M[0]))
    assert np.isnan(inv[1]).all() and np.isnan(chol[1:]).all()


def test_public_maps_raise_on_a_singular_input_as_np_linalg_does():
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        ci_one([np.zeros((2, 2))], [1.0])                   # zero information sum
    D = np.array([[1.0, 0.0], [2.0, 0.0]])                  # dependent rows
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        projection_map(np.eye(2), D, np.zeros((2, 1)), 0.0)


# --- the kernels on stacks over an agent axis, against single-matrix calls ----

def _stack(rng, N, rows):
    """N random PD 4×4 covariances and N random matrices of `rows` rows; for
    N > 1 the first matrix is zero (a blind or unconstrained agent)."""
    P = np.stack([oracles.random_psd(rng, 4) for _ in range(N)])
    M = rng.standard_normal((N, rows, 4))
    if N > 1:
        M[0] = 0.0
    return P, M


@pytest.mark.parametrize("N", [1, 7])
@pytest.mark.parametrize("rows", [1, 2])
def test_stacked_kalman_gain_equals_single_calls(N, rows):
    rng = np.random.default_rng(10 * N + rows)
    P, H = _stack(rng, N, rows)
    R = np.stack([oracles.random_psd(rng, rows, jitter=0.1) for _ in range(N)])
    K, P_new = kalman_gain(P, H, R)
    assert K.shape == (N, 4, rows) and P_new.shape == (N, 4, 4)
    for i in range(N):
        K_i, P_i = kalman_gain(P[i], H[i], R[i])
        assert np.array_equal(K[i], K_i)
        assert np.array_equal(P_new[i], P_i)


@pytest.mark.parametrize("N", [1, 7])
@pytest.mark.parametrize("rows", [1, 2])
def test_stacked_projection_map_equals_single_calls(N, rows):
    rng = np.random.default_rng(20 * N + rows)
    P, D = _stack(rng, N, rows)
    d = rng.standard_normal((N, rows, 1))
    eps = 10.0 ** rng.uniform(-3, 0, (N, 1, 1))
    G, c, P_new = projection_map(P, D, d, eps)
    assert G.shape == (N, 4, 4) and c.shape == (N, 4, 1)
    for i in range(N):
        G_i, c_i, P_i = projection_map(P[i], D[i], d[i, :, 0], eps[i, 0, 0])
        assert np.array_equal(G[i], G_i)
        assert np.array_equal(c[i, :, 0], c_i)
        assert np.array_equal(P_new[i], P_i)


@pytest.mark.parametrize("N", [1, 7])
def test_stacked_ci_maps_equals_single_calls_on_slot_major_edges(N):
    # rows sorted by in-degree, descending: slot s covers the first sizes[s]
    rng = np.random.default_rng(N)
    counts = np.sort(rng.integers(1, 5, N))[::-1]
    sizes = tuple(int(np.count_nonzero(counts > s)) for s in range(counts[0]))
    own = [[np.linalg.inv(oracles.random_psd(rng, 4)) for _ in range(c)] for c in counts]
    own_w = [rng.dirichlet(np.ones(c)) for c in counts]
    edges = [(i, s) for s, size in enumerate(sizes) for i in range(size)]
    dst = np.array([i for i, _ in edges])
    P, C = ci_maps([own[i][s] for i, s in edges], [own_w[i][s] for i, s in edges],
                   (sizes, dst))
    assert P.shape == (N, 4, 4) and C.shape == (len(edges), 4, 4)
    for i, c in enumerate(counts):
        P_i, C_i = ci_one(own[i], own_w[i])
        assert np.array_equal(P[i], P_i)
        assert np.array_equal(C[dst == i], C_i)


def test_stacked_ensure_pd_equals_single_calls():
    # member 2 is indefinite, so its Cholesky fails and only it gets jitter,
    # on a copy: neither the stack nor a member passed alone is written
    rng = np.random.default_rng(8)
    stack = symmetrize(np.stack([oracles.random_psd(rng, 3) for _ in range(5)]))
    stack[2] = np.diag([1.0, -1e-12, 2.0])
    before = stack.copy()
    got = _ensure_pd(stack, "P")
    assert np.array_equal(got, np.stack([_ensure_pd(M, "P") for M in stack]))
    assert np.array_equal(stack, before)
    assert np.array_equal(got[2], stack[2] + 1e-9 * np.eye(3))
    for i in (0, 1, 3, 4):
        assert np.array_equal(got[i], stack[i])
    assert not np.shares_memory(got, stack)
    # where no member needs jitter, the stack checked is the stack returned
    fine = stack[[0, 1, 3, 4]]
    assert _ensure_pd(fine, "P") is fine


def test_consistent_estimate_rejects_an_asymmetric_P():
    # it used to store the symmetric part, [[2, .5], [.5, 2]]
    with pytest.raises(ValueError, match="^P is not symmetric$"):
        ConsistentEstimate([0.0, 0.0], [[2.0, 1.0], [0.0, 2.0]])


def test_consistent_estimate_symmetrizes_its_P():
    P = np.diag([2.0, 3.0])
    P[0, 1] = 1e-13
    est = ConsistentEstimate(np.zeros(2), P)
    assert np.array_equal(est.P, symmetrize(P)) and est.P[1, 0] == est.P[0, 1]
    assert not np.shares_memory(est.P, P)


def test_ensure_pd_names_a_member_that_jitter_cannot_fix():
    # its one Cholesky is the definiteness check: -I stays indefinite under
    # the jitter, and the member is named by its index or by its agent id
    stack = np.stack([np.eye(3)] * 4)
    stack[2] = -np.eye(3)
    with pytest.raises(ValueError, match="^covariance of agent 2 must be positive definite$"):
        _ensure_pd(stack, "covariance of agent")
    with pytest.raises(ValueError, match="^covariance of agent 7 must be positive definite$"):
        _ensure_pd(stack, "covariance of agent", np.array([1, 4, 7, 9]))
    # an indefinite P fails the covariance rule before it gets there
    with pytest.raises(ValueError, match="^P must be positive semidefinite$"):
        ConsistentEstimate(np.zeros(3), -np.eye(3))


def test_ensure_pd_rejects_a_member_that_is_not_finite():
    # numpy's Cholesky returns a NaN factor here instead of raising
    stack = np.stack([np.eye(3)] * 3)
    stack[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^covariance of agent 1 is not finite$"):
        _ensure_pd(stack, "covariance of agent")
    stack[1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^covariance of agent 5 is not finite$"):
        _ensure_pd(stack, "covariance of agent", np.array([2, 5, 8]))


def test_innovation_guard_checks_every_stack_member():
    P = np.stack([np.eye(2), np.diag([1e16, 1.0])])
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
        kalman_gain(P, np.stack([np.eye(2)] * 2), np.stack([1e-12 * np.eye(2)] * 2))
    # one-row H: S is 1×1, singular only when zero or not finite
    H = np.array([[[1.0, 0.0]], [[0.0, 0.0]]])
    kalman_gain(P, H, np.ones((2, 1, 1)))
    for bad_R in (np.zeros((2, 1, 1)), np.full((2, 1, 1), np.nan)):
        with pytest.raises(np.linalg.LinAlgError, match="numerically singular"):
            kalman_gain(P, H, bad_R)
