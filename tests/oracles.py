"""Hand-rolled reference implementations used to pin expected test values.

The formula oracles are coded straight from the defining formulas, with loops
and explicit inverses and no imports from the package under test, so that the
two sides can actually disagree.  Slow and obvious on purpose.

The reference rounds (`tpdkf_round`, `epdkf_round`) compose those oracles
(`kf_predict`, `kf_update`, `trigger_eval`, `ci_combine`, `constrain`) one agent
and one pair at a time.  The event round keeps each agent's last broadcast as
an `Anchor` and rebuilds the held pair from it at every step (`Anchor.held`,
a loop of x ← A x and `multi_step`), where the package advances the held
pairs one step per round.  From the package they take only the public state
types (`AgentState`, `ConsistentEstimate`), so they are an independent
differential reference for the stacked `event.filter_step` that the rounds
and the batch engine run.

`generate_truth`, last, is the per-trial truth generator the package ran
before it drew all trials on one block: one generator, one trial, the state
stepped row by row.  It is the differential reference for `sim.generate_truth`.
`affine_truth` is the block recursion that followed it, one `_affine` pair per
step, and `StepRecorder` the recorder that reduced one step per call: the
references the block sum of the truth and the chunked recorder must equal bit
for bit.

`dense_rate_tables` is the rate analysis's tables with each neighbour sum
taken over all N² pairs by `_nbr_sum`, the reference the edge-list
sums of `analysis._rate_tables` must equal bit for bit.  `full_scan` reads T1
and T2 off those tables with one stacked scan over every t, the reference
the early-exit scans of `analysis._scan_agent` must equal.
"""
from dataclasses import dataclass

import numpy as np

from pdkf.analysis import _info_blocks, eig_pos
from pdkf.filter import AgentState, ConsistentEstimate, symmetrize
from pdkf.model import build_global_constraint
from pdkf.sim import _filter_path, _Recorder


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


def trigger_eval(P_tilde, P_bar_tilde, delta):
    """Event trigger, direct formula: g = λ_max(P̃⁻¹ − P̄̃⁻¹) − δ, fires on g > 0."""
    gain = np.linalg.inv(P_tilde) - np.linalg.inv(P_bar_tilde)
    g = np.linalg.eigvalsh(gain).max() - delta
    return g, g > 0


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


def _nbr_sum(*terms) -> np.ndarray:
    """Row i of Σ_j Σ_(W, X) W[i, j]·X[j] for every agent i at once.

    The sum over j runs in index order, and zero weights add exact zeros,
    so each row is bit-identical to agent i's own loop over its neighbours
    (W @ X, or numpy's pairwise reduction, would reorder the sum).  It runs
    over all N² pairs because `threshold_bounds`' powers W^τ are dense.
    """
    per_j = sum(W.T[:, :, None, None] * X[:, None] for W, X in terms)
    for term in per_j[1:]:      # into per_j[0], a new array: its zeros keep their sign
        per_j[0] += term
    return per_j[0]


def dense_rate_tables(T, model, agents, topology, beta, beta_bar):
    """(f, z̄, S) of `analysis._rate_tables`, every neighbour sum dense."""
    Ainv = np.linalg.inv(model.A_at(0))
    Qinv = np.linalg.inv(model.Q_at(0))
    W, N, n = topology.weights, topology.N, model.n
    info_y, info_d = _info_blocks(model, agents)
    info_d = info_d / np.reshape([a.eps for a in agents], (-1, 1, 1))
    beta_pow = np.empty(T + 1)
    Ainv_pow = np.empty((T + 1, n, n))
    beta_pow[0], Ainv_pow[0] = beta, Ainv
    for tau in range(1, T + 1):
        beta_pow[tau] = beta_pow[tau - 1] * beta
        Ainv_pow[tau] = Ainv_pow[tau - 1] @ Ainv
    S = np.zeros((T + 1, n, n))
    terms = beta_pow[1:T, None, None] * (Ainv_pow[1:T].swapaxes(-1, -2)
                                         @ Ainv_pow[1:T])
    S[2:] = symmetrize(np.cumsum(terms, axis=0))
    f = np.empty((T + 1, N, n, n))
    zbar = np.zeros((T + 1, N, n, n))
    f[0] = symmetrize(Qinv + info_y)
    u = info_y
    for t in range(1, T + 1):
        f[t] = symmetrize(beta_bar * (Ainv.T @ (_nbr_sum((W, f[t - 1])) + info_d)
                                      @ Ainv) + info_y)
        zbar[t] = symmetrize(beta * (Ainv.T @ u @ Ainv))
        u = symmetrize(beta * (Ainv.T @ (_nbr_sum((W, u)) + info_d) @ Ainv)
                       + info_y)
    return f, zbar, S


def full_scan(tables, delta, i):
    """(T1, T2) of `analysis._scan_agent`, every t of the horizon scanned."""
    T = len(tables.S) - 1
    corr = tables.zbar[:, i] + delta * (np.eye(tables.S.shape[-1]) - tables.S)
    proof = np.linalg.eigvalsh(tables.f[:, i] - eig_pos(corr)).max(axis=-1)
    hits = np.flatnonzero(proof > 0.0)
    if hits.size == T + 1:
        t1 = None
    else:
        t1 = int(hits[-1]) if hits.size else 0
    Ap = tables.Ainv_pow
    l = tables.beta_pow[:, None, None] * (Ap.swapaxes(-1, -2) @ tables.info_y[i] @ Ap)
    gbar = np.linalg.eigvalsh(tables.f[:, i] - l).max(axis=-1) - delta
    fails = np.flatnonzero(gbar > 0.0)
    if not fails.size:
        return t1, T
    return t1, int(fails[0]) - 1 if fails[0] > 0 else None


def random_psd(rng, n, scale=1.0, jitter=1e-3):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T) + jitter * np.eye(n)


# --- reference rounds: one agent and one pair at a time ----------------------

def _local(st, spec, y, A, Q):
    """An agent's fresh pair: predict, then update if it measures anything."""
    x, P = kf_predict(st.estimate.x, st.estimate.P, A, Q)
    return kf_update(x, P, y, spec.H, spec.R) if spec.has_measurement else (x, P)


def _fuse_and_constrain(pairs, weights, spec):
    x, P = ci_combine(pairs, weights)
    return constrain(x, P, spec.D, spec.d, spec.eps) if spec.has_constraint else (x, P)


def tpdkf_round(states, measurements, model, agents, topology, L, k=1):
    """One time-based step: per agent predict and update, then L barrier-
    synchronized rounds of {CI fusion over in-neighbors, projection}."""
    A, Q = model.A_at(k - 1), model.Q_at(k - 1)
    current = [_local(st, spec, measurements[st.id], A, Q)
               for st, spec in zip(states, agents)]
    for _ in range(L):
        fused = []
        for i, spec in enumerate(agents):
            nbrs = topology.in_neighbors(i)
            fused.append(_fuse_and_constrain([current[j] for j in nbrs],
                                             topology.weights[i, nbrs], spec))
        current = fused
    return [AgentState(st.id, ConsistentEstimate(x, P))
            for st, (x, P) in zip(states, current)]


@dataclass
class Anchor:
    """An agent's last broadcast pair, the step it was sent at and the
    agent's trigger threshold; the initial pair counts as sent at step 0."""
    x: np.ndarray
    P: np.ndarray
    time: int
    delta: float

    def held(self, k, A, Q):
        """The broadcast extrapolated from its own step to step k."""
        x = self.x
        for _ in range(k - self.time):
            x = A @ x
        return x, multi_step(self.P, A, Q, k - self.time)


def epdkf_round(states, anchors, measurements, model, agents, topology, k):
    """One event-triggered step on a list of `Anchor`s; returns (states, fired
    set).  Phase 1: each agent predicts, updates, evaluates its trigger against
    its anchor extrapolated to step k and re-anchors on fire.  Phase 2: each
    fuses its fresh pair with its neighbors' held pairs, then projects once."""
    A, Q = model.A_at(0), model.Q_at(0)

    # Phase 1: local updates and trigger decisions against an immutable snapshot.
    fresh = [_local(st, spec, measurements[st.id], A, Q)
             for st, spec in zip(states, agents)]
    fired = set()
    for st, (x, P), a in zip(states, fresh, anchors):
        if trigger_eval(P, a.held(k, A, Q)[1], a.delta)[1]:
            fired.add(st.id)
            # the broadcast becomes the anchor every receiver extrapolates
            a.x, a.P, a.time = x, P, k

    # Phase 2: fusion with the held neighbor pairs, one projection.
    new_states = []
    for i, spec in enumerate(agents):
        nbrs = [j for j in topology.in_neighbors(i) if j != i]
        pairs = [fresh[i]] + [anchors[j].held(k, A, Q) for j in nbrs]
        x, P = _fuse_and_constrain(pairs, topology.weights[i, [i] + nbrs], spec)
        new_states.append(AgentState(i, ConsistentEstimate(x, P)))
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

    def sim_q_at(k):
        return cfg.sim_q if cfg.sim_q is not None else model.Q_at(k)

    W = rng.standard_normal((T, n))
    if cfg.sim_q is not None or model.time_invariant:
        W = W @ _psd_sqrt(sim_q_at(0)).T
    else:
        W = np.vstack([W[k] @ _psd_sqrt(sim_q_at(k)).T for k in range(T)])
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


# --- the truth recursion and the recorder a step at a time -----------------------
# `sim.generate_truth`'s block recursion as it ran before its terms were summed
# as one block: one `_affine` pair per step.  And `sim._Recorder.record` as it
# reduced one step per call, with the loop of `sim._run_core` that called it.
# Both are the bit-for-bit references of the block forms.

def _affine(M, X, c):
    out = c + M[:, 0, None] * X[..., 0, None, :]
    for b in range(1, M.shape[1]):
        out += M[:, b, None] * X[..., b, None, :]
    return out


def affine_truth(cfg, rngs):
    """((T+1, n, trials), [(T, m_i, trials)]) from one generator per trial."""
    model, T, n, gc = cfg.model, cfg.T, cfg.model.n, cfg.global_constraint
    X = np.empty((T + 1, n, len(rngs)))
    Y = [np.empty((T, a.H.shape[0], len(rngs))) for a in cfg.agents]
    for j, r in enumerate(rngs):
        X[0, :, j] = r.standard_normal(n)
        X[1:, :, j] = r.standard_normal((T, n))
        for Yi in Y:
            Yi[:, :, j] = r.standard_normal(Yi.shape[:2])
    tangent, c = np.eye(n) - gc.Dbar.T @ gc.Dbar, gc.Dbar.T @ gc.dbar[:, None]
    x0_cov = cfg.x0_cov if cfg.x0_cov is not None else model.P0
    X[0] = _affine(tangent @ _psd_sqrt(x0_cov), X[0], tangent @ model.x0_mean[:, None] + c)
    qs = [cfg.sim_q] if cfg.sim_q is not None else model.Q
    TA, TS = [tangent @ A for A in model.A], [tangent @ _psd_sqrt(q) for q in qs]
    for k in range(T):
        x = _affine(TA[min(k, len(TA) - 1)], X[k], c)
        X[k + 1] = _affine(TS[min(k, len(TS) - 1)], X[k + 1], x)
    for i, (a, Yi) in enumerate(zip(cfg.agents, Y)):
        Yi[...] = (_affine(_psd_sqrt(cfg.sim_r_of(i)), Yi, _affine(a.H, X[1:], 0.0))
                   if a.has_measurement else 0.0)
    return X, Y


class StepRecorder(_Recorder):
    """`sim._Recorder` with its per-step `record`."""

    def record(self, k: int, est: np.ndarray, x_k: np.ndarray, P: np.ndarray,
               g=None, fired=None):
        m = self.metrics
        if k and len(m.fired):
            m.g[k - 1], m.fired[k - 1] = g, fired
        errs = est - x_k
        N, _, trials = errs.shape
        m.mse[k] = ((errs * errs).sum(axis=1).sum(axis=1) / trials).sum() / N
        m.trace_p_agent[k] = P.trace(axis1=1, axis2=2)
        m.trace_p[k] = m.trace_p_agent[k].sum() / N
        mean = (errs.sum(axis=2) / trials).sum(axis=0) / N
        m.mean_error_norm[k] = np.sqrt((mean * mean).sum())
        m.constraint_residuals[k] = np.max(      # NaN if any group's is NaN
            [0.0] + [float(np.abs(D @ est[idx] - d[..., None]).max())
                     for idx, D, d in self.constraints])
        if k in m.checkpoints:
            for i, e in enumerate(errs):
                m.sample_moment[(k, i)] = e @ e.T / est.shape[2]
                m.P_checkpoint[(k, i)] = P[i].copy()
                if not self.gc.empty:
                    comp = self.gc.Dbar @ e
                    m.constraint_sq[(k, i)] = float(np.mean(np.sum(comp * comp, axis=0)))


def step_recorded_run(cfg, mode, seed, X, Y, gc, rows):
    """`sim._run_core`, recording each step as the engine yields it."""
    rec = StepRecorder(cfg, X.shape[2], seed, gc, rows, event=mode == "event")
    for k, (est, P, g, fired) in enumerate(_filter_path(cfg, mode, Y)):
        rec.record(k, est, X[k], P, g, fired)
    return rec.finish()
