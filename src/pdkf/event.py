"""Event-triggered communication layer and the stacked filter step.

An agent broadcasts its measurement-updated pair only when the information
gain over what its neighbors can already extrapolate exceeds a threshold:
g = λ_max(P̃⁻¹ − P̄̃⁻¹) − δ with P̄̃ the multi-step prediction of the last
broadcast.  Silent neighbors are substituted by that same extrapolation, so
the whole communication pattern is a deterministic function of the model and
thresholds — it never depends on measured data.  `filter_step`, a step of
either filter on the stack of all agents, serves the Monte Carlo engine and
the step-by-step rounds `tpdkf_round` and `epdkf_round` alike; both read the
network's `step_layout`, built once per network and fused over its real
edges only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .filter import (AgentState, _check_pd, _ensure_pd, _estimate, ci_maps,
                     kalman_gain, projection_map, slot_sum, symmetrize)
from .model import AgentSpec, SystemModel, Topology


_ANCHOR_FIELDS = frozenset({"last_x", "last_P", "last_time"})


@dataclass
class TriggerState:
    """Last broadcast pair of one agent plus its trigger threshold.

    The initial state counts as a broadcast at time 0, so extrapolation is
    always anchored.  `held_at` caches the anchor's extrapolation and advances
    it from the cached step, so a caller that moves k forward by one per round
    pays one prediction per round whatever the gap since the last broadcast.
    Assigning any anchor field restarts the cache.
    """

    last_x: np.ndarray
    last_P: np.ndarray
    last_time: int
    delta: float

    def __post_init__(self):
        self.last_x = np.array(self.last_x, dtype=float).ravel()
        self.last_P = np.array(self.last_P, dtype=float)
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be finite and nonnegative")

    def __setattr__(self, name, value):
        if name in _ANCHOR_FIELDS:
            object.__setattr__(self, "_held", None)
        object.__setattr__(self, name, value)

    def held_at(self, k: int, A, Q) -> tuple[np.ndarray, np.ndarray]:
        """(x̄̃, P̄̃): the anchor extrapolated to time k.

        Applies x ← A x, P ← A P Aᵀ + Q once per step since the anchor, so
        the result is bit-identical to that loop run from the anchor.  The
        cache restarts from the anchor when k is below the cached step or A/Q
        are other objects than last time.  The returned arrays are shared with
        the cache and must not be modified.
        """
        if k < self.last_time:
            raise ValueError("trigger state is ahead of the current time")
        A, Q = np.asarray(A, dtype=float), np.asarray(Q, dtype=float)
        held = self._held
        if held is None or held[0] > k or held[1] is not A or held[2] is not Q:
            held = (self.last_time, A, Q, self.last_x, self.last_P)
        step, _, _, x, P = held
        for _ in range(k - step):
            x, P = A @ x, A @ P @ A.T + Q
        self._held = (k, A, Q, x, P)
        return x, P


def trigger_from_info(info, info_held, delta):
    """Trigger scores g = λ_max(Ω − Ω̄) − δ from the information matrices of
    the fresh pairs (Ω = P̃⁻¹) and of the held extrapolations (Ω̄ = P̄̃⁻¹),
    stacks over a leading agent axis with δ one value per agent; an agent
    fires only on a strictly positive score.  Returns (g, fired) arrays."""
    diff = info - info_held
    sym = symmetrize(diff)
    scale = np.abs(sym).max(axis=(-2, -1), initial=1.0)
    if np.count_nonzero(np.abs(diff - diff.swapaxes(-1, -2)).max(axis=(-2, -1))
                        > 1e-8 * scale):
        raise ValueError("information difference lost symmetry beyond tolerance")
    g = np.linalg.eigvalsh(sym)[..., -1] - delta     # eigvalsh sorts ascending
    return g, g > 0.0


def _grouped(entries: list) -> list:
    """(indices, *stacked fields) per group of non-None entries of equal shapes."""
    groups: dict = {}
    for i, e in enumerate(entries):
        if e is not None:
            groups.setdefault(tuple(np.shape(v) for v in e), []).append(i)
    return [(np.array(idx), *(np.stack(f) for f in zip(*(entries[i] for i in idx))))
            for idx in groups.values()]


@dataclass(frozen=True)
class StepLayout:
    """What `filter_step` needs of a network.

    meas holds (indices, H, R) and proj (indices, D, d, eps) per H, or D,
    shape group of measuring, or constrained, agents.  The fusion runs over
    the E in-edges only, as a slot-major edge list: with the agents ordered
    by in-degree (descending, stable), slot s holds the s-th in-neighbor of
    each of the first sizes[s] agents, and rank[i] is agent i's row in that
    order.  src is each edge's sender j, or N + j for j's held pair in event
    mode, and weights its fusion weight; slots = (sizes, dst), with dst the
    receiver's row, is what `ci_maps` takes.
    """

    meas: list
    proj: list
    rank: np.ndarray
    src: np.ndarray
    weights: np.ndarray
    slots: tuple


@functools.lru_cache(maxsize=4)
def _build_layout(event: bool, topology: Topology, *agents: AgentSpec) -> StepLayout:
    meas = _grouped([(a.H, a.R) if a.has_measurement else None for a in agents])
    proj = _grouped([(a.D, a.d[:, None], np.full((1, 1), a.eps)) if a.has_constraint
                     else None for a in agents])
    N, edges = topology.N, topology.edges
    deg = edges.sum(axis=1)
    order = np.argsort(-deg, kind="stable")
    sizes = tuple(int(np.count_nonzero(deg > s)) for s in range(deg.max()))
    # row r of nbr lists the in-neighbors of agent order[r], column s is slot
    # s, and nonzero on the transpose runs slot by slot, rows ascending
    nbr = np.zeros((N, len(sizes)), dtype=int)
    in_slot = np.arange(len(sizes)) < deg[order, None]
    nbr[in_slot] = np.nonzero(edges[order])[1]
    slot, dst = np.nonzero(in_slot.T)
    src = nbr[dst, slot]
    receiver = order[dst]
    weights = topology.weights[receiver, src]
    if event:
        src = np.where(src != receiver, N + src, src)
    return StepLayout(meas, proj, np.argsort(order), src, weights, (sizes, dst))


def step_layout(agents: list[AgentSpec], topology: Topology, event: bool) -> StepLayout:
    """The `StepLayout` of a network, built once per agent objects, topology
    object and mode and then returned from a cache of the four networks used
    last.  `AgentSpec` and `Topology` compare by identity and hold read-only
    arrays, so a cached layout cannot go stale."""
    return _build_layout(event, topology, *agents)


def filter_step(layout: StepLayout, est, P, ys: list, A, Q, rounds: int = 1,
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
    event = held is not None
    hx, hP = held if event else (None, None)
    hinfo, g, fired = None, np.zeros(0), np.zeros(0, dtype=bool)

    def gather(fresh, kept):
        return np.take(np.concatenate([fresh, kept]) if event else fresh, layout.src, 0)

    try:
        est, P = A @ est, _ensure_pd(A @ P @ A.T + Q)
        for (idx, H, R), y in zip(layout.meas, ys):
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
            Pc, C = ci_maps(gather(info, hinfo), layout.weights, layout.slots)
            # rows follow the layout's order until this one un-permutation
            x = slot_sum(gather(est, hx), layout.slots[0], C)[layout.rank]
            Pc = _ensure_pd(Pc[layout.rank])
            for idx, D, d, eps in layout.proj:
                G, c, P_proj = projection_map(Pc[idx], D, d, eps)
                Pc[idx] = _ensure_pd(P_proj)
                x[idx] = G @ x[idx] + c
            est, P = x, Pc
    except np.linalg.LinAlgError as exc:
        exc.covariances = (P, hP)
        raise
    return est, P, g, fired, (hx, hP) if event else None


def _round(states, measurements, agents, topology, A, Q, rounds, triggers=None,
           k=None) -> tuple:
    """`filter_step` on the stacked arguments of a round: (states, fired)."""
    N = topology.N
    named = dict(states=states, measurements=measurements, agents=agents,
                 **({} if triggers is None else {"trigger_states": triggers}))
    for name, seq in named.items():
        if len(seq) != N:
            raise ValueError(f"{name} has {len(seq)} entries for {N} agents")
    if [st.id for st in states] != list(range(N)):
        raise ValueError(f"states must have ids 0..{N - 1} in order, "
                         f"got {[st.id for st in states]}")
    layout = step_layout(agents, topology, triggers is not None)
    held = deltas = None
    if triggers is not None:
        hx, hP = map(np.stack, zip(*(ts.held_at(k, A, Q) for ts in triggers)))
        held, deltas = (hx[:, :, None], hP), np.array([ts.delta for ts in triggers])
    est, P, _, fired, held = filter_step(
        layout, np.stack([st.estimate.x for st in states])[:, :, None],
        np.stack([st.estimate.P for st in states]),
        [np.array([np.ravel(measurements[i]) for i in idx], dtype=float)[:, :, None]
         for idx, *_ in layout.meas], A, Q, rounds, held, deltas)
    for i in np.flatnonzero(fired):      # re-anchored on copies of the fresh pair
        ts = triggers[i]
        ts.last_x, ts.last_P, ts.last_time = held[0][i, :, 0].copy(), held[1][i].copy(), k
    return ([AgentState(i, _estimate(x[:, 0], p)) for i, (x, p) in enumerate(zip(est, P))],
            set(np.flatnonzero(fired).tolist()))


def tpdkf_round(states: list[AgentState], measurements, model: SystemModel,
                agents: list[AgentSpec], topology: Topology, L: int,
                k: int = 1) -> list[AgentState]:
    """Advance every agent one time step of the time-based filter.

    measurements: per-agent measurement vectors (entries for zero-H agents are
    ignored and may be None).  The L fusion-projection rounds are barrier
    synchronized: round l of every agent consumes round-l outputs of its
    in-neighbors, never mixed rounds.  One `filter_step` on the stacked states.
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    return _round(states, measurements, agents, topology, model.A_at(k - 1),
                  model.Q_at(k - 1), L)[0]


def epdkf_round(states: list[AgentState], trigger_states: list[TriggerState],
                measurements, model: SystemModel, agents: list[AgentSpec],
                topology: Topology, k: int) -> tuple[list[AgentState], set[int]]:
    """Advance every agent one event-triggered step; returns the fired set.

    Phase 1 (all agents, then barrier): predict, measurement-update, evaluate
    own trigger and broadcast on fire.  Phase 2: fuse the own fresh pair with
    neighbor pairs (fresh if fired, extrapolated otherwise), then project once.
    One `filter_step` on the stacked states and `TriggerState.held_at(k)` pairs.
    """
    if not model.time_invariant:
        raise ValueError("event-triggered mode requires a time-invariant model")
    return _round(states, measurements, agents, topology, model.A_at(0),
                  model.Q_at(0), 1, trigger_states, k)
