"""The padded fusion: `event.step_layout`, `event.filter_step`,
`filter.ci_maps` and `sim._filter_path` as they were before the fusion ran on
a slot-major edge list.  Every agent fuses over as many slots as the largest
in-degree, a spare slot is the agent itself at weight 0, and the layout is
built on every call.  The held pairs advance inside the step, as they do in
`event.filter_step`.  The guard `_ensure_pd`, the gain and the projection are
copies of the package's as they were before the step did each piece of work
once: `_ensure_pd` symmetrizes every stack it is given, and the gain and the
projection build their identities on every call.  So this is the
differential reference for the slot-major fusion and for that work, bit for
bit, not for the formulas (`oracles.py` holds those).
"""
import numpy as np

from pdkf.event import _grouped, trigger_from_info
from pdkf.filter import _check_pd, pinv, symmetrize
from pdkf.model import AgentSpec, Topology
from pdkf.sim import ScenarioConfig


def _ensure_pd(P: np.ndarray, name: str, ids=None) -> np.ndarray:
    """P symmetrized, or each matrix of a stack, once checked positive
    definite by one Cholesky over the stack; only where that fails does each
    member get its own, and 1e-9·I where that fails too."""
    P = symmetrize(P)
    try:
        if np.isfinite(np.linalg.cholesky(P)).all():
            return P
    except np.linalg.LinAlgError:
        pass
    for M in P.reshape(-1, *P.shape[-2:]):
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            M += 1e-9 * np.eye(len(M))
    return _check_pd(P, name, ids)


def kalman_gain(P, H, R) -> tuple[np.ndarray, np.ndarray]:
    """(K, P⁺) of one Kalman update on a stack, cond(S) ≤ 1e14 checked."""
    Ht = H.swapaxes(-1, -2)
    S = H @ P @ Ht + R
    cond = np.max(np.linalg.cond(S) if S.shape[-1] > 1 else
                  np.where(np.isfinite(S) & (S != 0), 1.0, np.inf), initial=0.0)
    if not cond <= 1e14:
        raise np.linalg.LinAlgError(
            f"innovation matrix is numerically singular (cond={cond:.3e})")
    K = np.linalg.solve(S.swapaxes(-1, -2), (P @ Ht).swapaxes(-1, -2)).swapaxes(-1, -2)
    return K, symmetrize((np.eye(P.shape[-1]) - K @ H) @ P)


def projection_map(P, D, d, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, c, P⁺) of the constraint projection on a stack."""
    Dt = D.swapaxes(-1, -2)
    PDt = P @ Dt
    DP = D @ P
    S = DP @ Dt
    M = PDt @ pinv(S)
    P_new = symmetrize(P - PDt @ np.linalg.solve(S + eps * np.eye(S.shape[-1]), DP))
    return np.eye(P.shape[-1]) - M @ D, M @ d, P_new


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
    takes held = (hx, hP), the pairs held after the previous step, advances
    them to this step (x ← A x, P ← A P Aᵀ + Q, not symmetrized), fires where
    the trigger score g against them exceeds deltas, fuses each neighbor's
    held pair (fresh if it fired) and returns the pairs then held.  Guards,
    once per stack and bit-neutral where Cholesky succeeds: `_ensure_pd` on
    every covariance stack made, whose one Cholesky is also the definiteness
    check before its inverse; `_check_pd` on the held stack, which
    `_ensure_pd` does not make; cond(S) ≤ 1e14 before each gain.  The
    guards' errors name the failing agent.
    """
    meas, proj, slot, weights = layout
    event = held is not None
    hx, hP = held if event else (None, None)
    hinfo, g, fired = None, np.zeros(0), np.zeros(0, dtype=bool)

    def gather(fresh, kept):
        return np.take(np.concatenate([fresh, kept]) if event else fresh, slot, 0)

    if event:
        hx, hP = A @ hx, A @ hP @ A.T + Q
    est, P = A @ est, A @ P @ A.T + Q
    P = _ensure_pd(P, "the covariance of agent")
    for (idx, H, R), y in zip(meas, ys):
        K, P_upd = kalman_gain(P[idx], H, R)
        est[idx] += K @ (y - H @ est[idx])
        P[idx] = _ensure_pd(P_upd, "the covariance of agent", idx)
    info = np.linalg.inv(P)
    if event:
        hinfo = np.linalg.inv(_check_pd(hP, "the held covariance of agent"))
        g, fired = trigger_from_info(info, hinfo, deltas)
        # a broadcast becomes the anchor every receiver extrapolates
        f = fired[:, None, None]
        hx, hP, hinfo = (np.where(f, est, hx), np.where(f, P, hP),
                         np.where(f, info, hinfo))
    for r in range(rounds):
        if r:
            info = np.linalg.inv(P)
        P, C = padded_ci_maps(gather(info, hinfo), weights)
        est = (C @ gather(est, hx)).sum(axis=1)    # slot by slot, in order
        P = _ensure_pd(P, "the covariance of agent")
        for idx, D, d, eps in proj:
            G, c, P_proj = projection_map(P[idx], D, d, eps)
            P[idx] = _ensure_pd(P_proj, "the covariance of agent", idx)
            est[idx] = G @ est[idx] + c
    return est, P, g, fired, (hx, hP) if event else None


def padded_filter_path(cfg: ScenarioConfig, mode: str, Y: list):
    """One pass of either filter: yields (est, P, g, fired) for k = 0..T.

    est (N, n, trials) and P (N, n, n) are new stacks of each agent's state
    block and covariance after step k; g and fired list the trigger scores
    and decisions of step k in event mode, and are empty otherwise and at
    k = 0.  Y holds the (T, m_i, trials) measurement blocks; trials may be 0.
    Each step is one `padded_filter_step`, which advances the held pairs; a
    LinAlgError of the step becomes "the run diverged: <its message> at step
    k".
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
        try:
            est, P, g, fired, held = padded_filter_step(
                layout, est, P, [Yg[:, k - 1] for Yg in Ys],
                model.A_at(k - 1), model.Q_at(k - 1),
                1 if event else cfg.L, held, deltas)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"the run diverged: {exc} at step {k}") from None
        yield est, P, g.tolist(), fired.tolist()
