"""Hand-rolled reference implementations used to pin expected test values.

The formula oracles are coded straight from the defining formulas, with loops
and explicit inverses and no imports from the package under test, so that the
two sides can actually disagree.  Slow and obvious on purpose.

The reference rounds (`tpdkf_round`, `epdkf_round`) are the
per-agent composition of the package's single-pair primitives (`predict`,
`measurement_update`, `trigger_eval`, `ci_fuse`, `project`,
`TriggerState.held_at`), each pinned to the formula oracles by its own tests.
They loop over agents and pairs where the package runs one stacked
`event.filter_step`, so they are the differential reference for the rounds
and the batch engine.

`generate_truth`, last, is the per-trial truth generator the package ran
before it drew all trials on one block: one generator, one trial, the state
stepped row by row.  It is the differential reference for `sim.generate_truth`.

The padded fusion, last, is the engine pass the package ran before it fused
over a slot-major edge list (`padded_filter_path`); the slot-major pass must
reproduce it bit for bit.
"""
import numpy as np

from pdkf import sim
from pdkf.event import _grouped, trigger_eval, trigger_from_info
from pdkf.filter import (AgentState, _check_pd, _ensure_pd, ci_fuse, kalman_gain,
                         measurement_update, predict, project, projection_map,
                         symmetrize)
from pdkf.model import AgentSpec, Topology, build_global_constraint
from pdkf.sim import ScenarioConfig


def kf_predict(x, P, A, Q):
    x = np.asarray(x, dtype=float)
    return A @ x, A @ P @ A.T + Q


def kf_update(x, P, y, H, R):
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    x_new = x + K @ (np.asarray(y, dtype=float) - H @ x)
    P_new = (np.eye(P.shape[0]) - K @ H) @ P
    return x_new, P_new


def ci_combine(pairs, weights):
    """Convex information combination: P = (sum w_j P_j^-1)^-1."""
    omega = sum(w * np.linalg.inv(P) for (_, P), w in zip(pairs, weights))
    xi = sum(w * np.linalg.inv(P) @ x for (x, P), w in zip(pairs, weights))
    P_new = np.linalg.inv(omega)
    return P_new @ xi, P_new


def constrain(x, P, D, d, eps):
    """Soft equality-constraint projection, direct formula."""
    S = D @ P @ D.T
    x_new = x - P @ D.T @ np.linalg.pinv(S) @ (D @ x - d)
    P_new = P - P @ D.T @ np.linalg.inv(S + eps * np.eye(D.shape[0])) @ D @ P
    return x_new, P_new


def info_after_rounds(omegas0, weights, D_list, eps_list, L):
    """Information matrices after L rounds of {combine, constrain}.

    Closed form: Omega_i(L) = sum_j [W^L]_ij Omega_j(0)
                  + sum_{s=0}^{L-1} sum_j [W^s]_ij D_j^T D_j / eps_j.
    """
    N = len(omegas0)
    n = omegas0[0].shape[0]
    con = [D.T @ D / e if D.size else np.zeros((n, n))
           for D, e in zip(D_list, eps_list)]
    out = []
    WL = np.linalg.matrix_power(weights, L)
    for i in range(N):
        acc = sum(WL[i, j] * omegas0[j] for j in range(N))
        for s in range(L):
            Ws = np.linalg.matrix_power(weights, s)
            acc = acc + sum(Ws[i, j] * con[j] for j in range(N))
        out.append(acc)
    return out


def gramian(A_seq, info_terms):
    """Observability-style Gramian over a window.

    A_seq[j] maps step j to j+1; info_terms[j] is the summed information
    matrix contributed at step j (H^T R^-1 H and/or D^T D).  Transition
    products are built term by term.
    """
    n = info_terms[0].shape[0]
    G = np.zeros((n, n))
    Phi = np.eye(n)
    for j, term in enumerate(info_terms):
        G = G + Phi.T @ term @ Phi
        if j < len(A_seq):
            Phi = A_seq[j] @ Phi
    return G


def metropolis(adj):
    adj = np.asarray(adj, dtype=float)
    N = adj.shape[0]
    deg = adj.sum(axis=1)
    W = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if i != j and adj[i, j]:
                W[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(N):
        W[i, i] = 1.0 - W[i].sum()
    return W


def multi_step(P, A, Q, steps):
    out = np.array(P, dtype=float)
    for _ in range(steps):
        out = A @ out @ A.T + Q
    return out


def f_recursion(t, i, A, Q, weights, info_y, info_d, beta_bar):
    """Upper information recursion, recomputed from scratch each call."""
    N = weights.shape[0]
    Ainv = np.linalg.inv(A)
    Qinv = np.linalg.inv(Q)
    f = [Qinv + info_y[j] for j in range(N)]
    for _ in range(t):
        f = [beta_bar * Ainv.T @ (sum(weights[j, l] * f[l] for l in range(N))
                                  + info_d[j]) @ Ainv + info_y[j]
             for j in range(N)]
    return f[i]


def z_recursion(t, i, delta, A, weights, info_y, info_d, beta):
    """Lower information recursion with the threshold penalty."""
    N = weights.shape[0]
    n = A.shape[0]
    Ainv = np.linalg.inv(A)
    u = [info_y[j].copy() for j in range(N)]
    if t == 0:
        return np.zeros((n, n))
    for _ in range(t - 1):
        w = [sum(weights[j, l] * u[l] for l in range(N))
             - delta * np.eye(n) + info_d[j] for j in range(N)]
        u = [beta * Ainv.T @ w[j] @ Ainv + info_y[j] for j in range(N)]
    return beta * Ainv.T @ u[i] @ Ainv


def l_matrix(t, i, A, info_y, beta):
    Ainv_pow = np.linalg.matrix_power(np.linalg.inv(A), t + 1)
    return beta ** (t + 1) * Ainv_pow.T @ info_y[i] @ Ainv_pow


def s_correction(t, A, beta):
    n = A.shape[0]
    S = np.zeros((n, n))
    for tau in range(2, t + 1):
        Ainv_pow = np.linalg.matrix_power(np.linalg.inv(A), tau)
        S = S + beta ** tau * Ainv_pow.T @ Ainv_pow
    return S


def threshold_matrices(i, A, weights, info_y, info_d_raw, beta, kstar):
    """Design matrices for the threshold bound, direct matrix-power form.

    info_d_raw[j] must be D_j^T D_j / eps_j.
    """
    N = weights.shape[0]
    n = A.shape[0]
    M = np.zeros((n, n))
    Mbar = np.zeros((n, n))
    for tau in range(1, kstar + 1):
        Ap = np.linalg.matrix_power(np.linalg.inv(A), tau - 1)
        Wt = np.linalg.matrix_power(weights, tau)
        Wtm1 = np.linalg.matrix_power(weights, tau - 1)
        M = M + beta ** (tau - 1) * Wt[i].sum() * Ap.T @ Ap
        mid = sum(Wt[i, j] * info_y[j] + Wtm1[i, j] * info_d_raw[j]
                  for j in range(N))
        Mbar = Mbar + beta ** (tau - 1) * Ap.T @ mid @ Ap
    return M, Mbar


def random_psd(rng, n, scale=1.0, jitter=1e-3):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T) + jitter * np.eye(n)


# --- reference rounds: one agent and one pair at a time ----------------------

def tpdkf_round(states, measurements, model, agents, topology, L, k=1):
    """One time-based step: per agent predict and update, then L barrier-
    synchronized rounds of {CI fusion over in-neighbors, projection}."""
    A = model.A_at(k - 1)
    Q = model.Q_at(k - 1)
    updated = []
    for st, spec in zip(states, agents):
        est = predict(st.estimate, A, Q)
        if spec.has_measurement:
            est = measurement_update(est, measurements[st.id], spec.H, spec.R)
        updated.append(est)

    current = updated
    for _ in range(L):
        fused = []
        for i, spec in enumerate(agents):
            nbrs = topology.in_neighbors(i)
            est = ci_fuse([current[j] for j in nbrs], topology.weights[i, nbrs])
            fused.append(project(est, spec.D, spec.d, spec.eps))
        current = fused

    return [AgentState(st.id, est) for st, est in zip(states, current)]


def epdkf_round(states, trigger_states, measurements, model, agents, topology, k):
    """One event-triggered step; returns (states, fired set).  Phase 1: each
    agent predicts, updates, evaluates its trigger and re-anchors its trigger
    state on fire.  Phase 2: each fuses its fresh pair with its neighbors' held
    pairs, then projects once."""
    A, Q = model.A_at(0), model.Q_at(0)

    # Phase 1: local updates and trigger decisions against an immutable snapshot.
    fresh = []
    fired = set()
    for st, spec, ts in zip(states, agents, trigger_states):
        est = predict(st.estimate, A, Q)
        if spec.has_measurement:
            est = measurement_update(est, measurements[st.id], spec.H, spec.R)
        fresh.append(est)
        g, fire = trigger_eval(est.P, ts.held_at(k, A, Q)[1], ts.delta)
        if fire:
            fired.add(st.id)
            # the broadcast becomes the anchor every receiver extrapolates
            ts.last_x, ts.last_P, ts.last_time = est.x.copy(), est.P.copy(), k

    # Phase 2: fusion with the held neighbor pairs, one projection.
    new_states = []
    for i, spec in enumerate(agents):
        nbrs = [j for j in topology.in_neighbors(i) if j != i]
        pairs = [(fresh[i].x, fresh[i].P)] + [trigger_states[j].held_at(k, A, Q)
                                             for j in nbrs]
        est = ci_fuse(pairs, topology.weights[i, [i] + nbrs])
        new_states.append(AgentState(i, project(est, spec.D, spec.d, spec.eps)))
    return new_states, fired


# --- the per-trial truth generator ----------------------------------------------
# `sim.generate_truth` before it ran all trials on one (n, trials) block, with
# its two helpers: one trial from one generator, stepped row by row.

def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValueError("covariance matrix must be positive semidefinite")
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def _affine_projector(gc):
    """Returns (project_onto_set, tangent_projector) for the global constraint."""
    if gc.empty:
        return (lambda x: x), np.eye(0)
    Dbar, dbar = gc.Dbar, gc.dbar
    G = Dbar.T @ np.linalg.inv(Dbar @ Dbar.T)

    def proj(x):
        return x - G @ (Dbar @ x - dbar.reshape(-1, *([1] * (x.ndim - 1))))

    tangent = np.eye(Dbar.shape[1]) - G @ Dbar
    return proj, tangent


def generate_truth(cfg, rng, gc=None):
    """One trial of the true trajectory and all agent measurements.

    x0 is drawn from the configured initial distribution and projected onto
    the global constraint set; process noise is projected onto the constraint
    tangent space so D̄·x_k = d̄ holds at every step.  Returns
    (states (T+1, n), [per-agent measurements (T, m_i)]); measurement row
    k-1 belongs to step k.
    """
    model, T, n = cfg.model, cfg.T, cfg.model.n
    if gc is None:
        gc = build_global_constraint(cfg.agents)
    proj, tangent = _affine_projector(gc)

    x0_cov = cfg.x0_cov if cfg.x0_cov is not None else cfg.model.P0
    x0 = model.x0_mean + _psd_sqrt(x0_cov) @ rng.standard_normal(n)
    x0 = proj(x0)

    W = rng.standard_normal((T, n))
    if cfg.sim_q is not None or model.time_invariant:
        W = W @ _psd_sqrt(cfg.sim_q_at(0)).T
    else:
        W = np.vstack([W[k] @ _psd_sqrt(cfg.sim_q_at(k)).T for k in range(T)])
    if not gc.empty:
        W = W @ tangent.T

    X = np.empty((T + 1, n))
    X[0] = x0
    for k in range(T):
        X[k + 1] = proj(model.A_at(k) @ X[k] + W[k])

    Y = []
    for i, a in enumerate(cfg.agents):
        m = a.H.shape[0]
        V = rng.standard_normal((T, m))   # drawn even if unused: fixed stream order
        if a.has_measurement:
            Y.append(X[1:] @ a.H.T + V @ _psd_sqrt(cfg.sim_r_of(i)).T)
        else:
            Y.append(np.zeros((T, m)))
    return X, Y


# --- the padded fusion -------------------------------------------------------
# `event.step_layout`, `event.filter_step`, `filter.ci_maps` and
# `sim._filter_path` as they were before the fusion ran on a slot-major edge
# list: every agent fuses over as many slots as the largest in-degree, a spare
# slot is the agent itself at weight 0, and the layout is built on every call.
# The held pairs advance by `TriggerState.held_at`'s recursion, as the engine's
# do.  The differential reference for the slot-major fusion, bit for bit.

def padded_layout(agents: list[AgentSpec], topology: Topology, event: bool) -> tuple:
    """What `filter_step` needs of a network: (meas, proj, slot, weights), with
    meas (indices, H, R) and proj (indices, D, d, eps) per H, or D, shape group
    of measuring, or constrained, agents.  slot[i, s] is i's s-th in-neighbor
    j, or N + j for j's held pair in event mode; spare slots are i at weight 0."""
    N = topology.N
    meas = _grouped([(a.H, a.R) if a.has_measurement else None for a in agents])
    proj = _grouped([(a.D, a.d[:, None], np.full((1, 1), a.eps)) if a.has_constraint
                     else None for a in agents])
    nbrs = [topology.in_neighbors(i) for i in range(N)]
    slot = np.repeat(np.arange(N)[:, None], max(map(len, nbrs)), axis=1)
    weights = np.zeros(slot.shape)
    for i, js in enumerate(nbrs):
        slot[i, :len(js)] = np.where(event & (js != i), N + js, js)
        weights[i, :len(js)] = topology.weights[i, js]
    return meas, proj, slot, weights


def padded_ci_maps(infos, weights) -> tuple[np.ndarray, np.ndarray]:
    """Covariance intersection as a linear map of the fused states.

    From information matrices Ω_j = P_j⁻¹ and weights a_j: P = (Σ a_j Ω_j)⁻¹
    and C_j = P a_j Ω_j, so the fused state is x = Σ_j C_j x_j.  infos holds
    the d matrices Ω_j, or a stack (N, d, n, n) with weights (N, d), where a
    slot of zero weight (and a finite matrix) pads an agent with fewer
    neighbors.  The sum runs over the slots in order (a reduction along an
    outer axis), so each agent's P is the same fused alone or in a stack.
    """
    terms = np.asarray(weights)[..., None, None] * np.asarray(infos)
    P = symmetrize(np.linalg.inv(terms.sum(axis=-3)))
    return P, P[..., None, :, :] @ terms


def padded_filter_step(layout: tuple, est, P, ys: list, A, Q, rounds: int = 1,
                       held: tuple | None = None, deltas=None) -> tuple:
    """One step of either filter on the agent stack: new (est, P, g, fired, held).

    est (N, n, c) holds c state columns (trials) per agent, P the (N, n, n)
    covariances, ys one (g, m, c) block per H group.  Time mode (held None)
    runs `rounds` fusion-projection rounds on the fresh pairs.  Event mode
    fires where the trigger score g against held = (hx, hP), each last
    broadcast extrapolated to this step, exceeds deltas, fuses each neighbor's
    held pair (fresh if it fired) and returns the pairs then held.  Guards,
    once per stack and bit-neutral where Cholesky succeeds: `_ensure_pd` on
    every covariance stack made, definiteness before each inverse, cond(S) ≤
    1e14 before each gain.  A LinAlgError carries `covariances` = (P, held P).
    """
    meas, proj, slot, weights = layout
    event = held is not None
    hx, hP = held if event else (None, None)
    hinfo, g, fired = None, np.zeros(0), np.zeros(0, dtype=bool)

    def gather(fresh, kept):
        return np.take(np.concatenate([fresh, kept]) if event else fresh, slot, 0)

    try:
        est, P = A @ est, _ensure_pd(A @ P @ A.T + Q)
        for (idx, H, R), y in zip(meas, ys):
            K, P_upd = kalman_gain(P[idx], H, R)
            est[idx] += K @ (y - H @ est[idx])
            P[idx] = _ensure_pd(P_upd)
        info = np.linalg.inv(_check_pd(P, "covariance of agent"))
        if event:
            hinfo = np.linalg.inv(_check_pd(hP, "held covariance of agent"))
            g, fired = trigger_from_info(info, hinfo, deltas)
            # a broadcast becomes the anchor every receiver extrapolates
            f = fired[:, None, None]
            hx, hP, hinfo = (np.where(f, est, hx), np.where(f, P, hP),
                             np.where(f, info, hinfo))
        for r in range(rounds):
            if r:
                info = np.linalg.inv(_check_pd(P, "covariance of agent"))
            Pc, C = padded_ci_maps(gather(info, hinfo), weights)
            x = (C @ gather(est, hx)).sum(axis=1)    # slot by slot, in order
            Pc = _ensure_pd(Pc)
            for idx, D, d, eps in proj:
                G, c, P_proj = projection_map(Pc[idx], D, d, eps)
                Pc[idx] = _ensure_pd(P_proj)
                x[idx] = G @ x[idx] + c
            est, P = x, Pc
    except np.linalg.LinAlgError as exc:
        exc.covariances = (P, hP)
        raise
    return est, P, g, fired, (hx, hP) if event else None


def padded_filter_path(cfg: ScenarioConfig, mode: str, Y: list):
    """One pass of either filter: yields (est, P, g, fired) for k = 0..T.

    est (N, n, trials) and P (N, n, n) are new stacks of each agent's state
    block and covariance after step k; g and fired list the trigger scores
    and decisions of step k in event mode, and are empty otherwise and at
    k = 0.  Y holds the (T, m_i, trials) measurement blocks; trials may be 0.
    Each step is one `event.filter_step` (held pairs advanced here); a
    LinAlgError from an overflowed covariance becomes a ValueError naming
    agent and step.
    """
    model, agents, event = cfg.model, cfg.agents, mode == "event"
    if event and not model.time_invariant:
        raise ValueError("event-triggered mode requires a time-invariant model")
    layout = padded_layout(agents, cfg.topology, event)
    Ys = [np.stack([Y[i] for i in idx]) for idx, *_ in layout[0]]
    deltas = np.array([a.delta for a in agents])
    x0, P = map(np.stack, zip(*cfg.initial_pairs()))
    est = np.repeat(x0[:, :, None], Y[0].shape[2], axis=2)
    held = (est, P) if event else None     # the initial time is a broadcast
    yield est, P, [], []
    for k in range(1, cfg.T + 1):
        A, Q = model.A_at(k - 1), model.Q_at(k - 1)
        if held is not None:
            held = (A @ held[0], A @ held[1] @ A.T + Q)
        try:
            est, P, g, fired, held = padded_filter_step(
                layout, est, P, [Yg[:, k - 1] for Yg in Ys], A, Q,
                1 if event else cfg.L, held, deltas)
        except np.linalg.LinAlgError as exc:
            raise sim._diverged(k, *exc.covariances, exc) from None
        yield est, P, g.tolist(), fired.tolist()
