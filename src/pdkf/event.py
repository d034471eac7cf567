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
edges only.  `filter_step` also holds the one held-pair recursion they share.
The rounds check each per-agent list whole, stacking every x and
measurement list by one helper, `_rows`, which checks widths and
finiteness; a single agent is looked at only to name a failing one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .filter import (AgentState, _check_pd, _ensure_pd, _estimate, _inv, _kalman_gain,
                     _pair, _projection_map, ci_maps, slot_sum, symmetrize)
from .model import AgentSpec, SystemModel, Topology, _check_symmetric, _integer, _threshold

_COV = "the covariance of agent"


@dataclass
class TriggerState:
    """What an agent's neighbors hold of it, plus its trigger threshold
    (which the rounds require to equal its `AgentSpec.delta`): the held pair
    (x, P) of step `time`, its last broadcast extrapolated to that step.  The
    initial state counts as a broadcast at time 0; each event round advances
    the pair in `filter_step` and re-anchors it where the agent fires.  x and
    P are copied and checked by `filter._pair`, as in `ConsistentEstimate`;
    delta is checked by `model._threshold` and stored as a Python float.
    """

    x: np.ndarray
    P: np.ndarray
    time: int
    delta: float

    def __post_init__(self):
        self.x, self.P = _pair(self.x, self.P)
        self.delta = _threshold(self.delta)


def trigger_from_info(info, info_held, delta):
    """Trigger scores g = λ_max(Ω − Ω̄) − δ from the information matrices of
    the fresh pairs (Ω = P̃⁻¹) and of the held extrapolations (Ω̄ = P̄̃⁻¹),
    stacks over a leading agent axis with δ one value per agent; an agent
    fires only on a strictly positive score; Ω − Ω̄ must pass the shared
    symmetry check, whose symmetric part the eigen-solver reads.  Returns
    (g, fired) arrays."""
    sym = _check_symmetric(info - info_held, "the information difference")
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

    meas holds (indices, H, R) and proj (indices, D, d, eps·I) per H, or D,
    shape group of measuring, or constrained, agents; eye is the n×n
    identity.  eps·I and eye, the constants of the gain and the projection,
    are made once per network instead of once per step.  The fusion runs over
    the E in-edges only, as a slot-major edge list: with the agents ordered
    by in-degree (descending, stable), slot s holds the s-th in-neighbor of
    each of the first sizes[s] agents, and rank[i] is agent i's row in that
    order.  src is each edge's sender j, which a time step gathers with from
    the fresh pairs; held_src is N + j where the sender is a neighbor and the
    receiver's own index on its own edge, which an event step gathers with
    from [fresh; held].  weights holds each edge's fusion weight; slots =
    (sizes, dst), with dst the receiver's row, is what `ci_maps` takes.
    deltas holds each agent's trigger threshold δ_i (`AgentSpec.delta`),
    which an event step fires on.
    """

    meas: list
    proj: list
    eye: np.ndarray
    rank: np.ndarray
    src: np.ndarray
    held_src: np.ndarray
    weights: np.ndarray
    slots: tuple
    deltas: np.ndarray


@functools.lru_cache(maxsize=4)
def _build_layout(topology: Topology, *agents: AgentSpec) -> StepLayout:
    meas = _grouped([(a.H, a.R) if a.has_measurement else None for a in agents])
    proj = _grouped([(a.D, a.d[:, None], a.eps * np.eye(len(a.D))) if a.has_constraint
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
    return StepLayout(meas, proj, np.eye(agents[0].H.shape[1]), np.argsort(order), src,
                      np.where(src != receiver, N + src, src), topology.weights[receiver, src],
                      (sizes, dst), np.array([a.delta for a in agents]))


def step_layout(agents: list[AgentSpec], topology: Topology) -> StepLayout:
    """The `StepLayout` of a network, built once per agent and topology
    objects and then returned from a cache of the four networks used last;
    one layout serves time and event steps alike.  `AgentSpec` and
    `Topology` are frozen, compare by identity and hold read-only arrays, so
    a cached layout, its thresholds included, cannot go stale."""
    return _build_layout(topology, *agents)


def filter_step(layout: StepLayout, est, P, ys: list, A, Q, rounds: int = 1,
                held: tuple | None = None) -> tuple:
    """One step of either filter on the agent stack: new (est, P, g, fired, held).

    est (N, n, c) holds c state columns (trials) per agent, P the (N, n, n)
    covariance stack, ys one (g, m, c) block per H group; every fact about the
    network, the thresholds included, is read from the layout, and the mode
    from held alone.  Time mode (held None) runs `rounds` fusion-projection
    rounds on the fresh pairs, gathered by the layout's src.  Event mode
    takes held = (hx, hP), the pairs held after the previous step, advances
    them to this step (x ← A x, P ← A P Aᵀ + Q, not symmetrized), fires
    where the trigger score g against them exceeds the layout's deltas,
    fuses each neighbor's held pair (fresh if it fired), gathered by the
    layout's held_src, and returns the pairs then held.  Each covariance
    stack made is symmetrized once, where it is made (the prediction here,
    the others inside the kernels).
    Guards, once per stack and bit-neutral where Cholesky succeeds:
    `_ensure_pd` on every covariance stack made, whose one Cholesky is also
    the definiteness check before its inverse; `_check_pd` on the held
    stack, which `_ensure_pd` does not make; cond(S) ≤ 1e14 before each
    gain.  The guards' errors name the failing agent: "the covariance of
    agent i …" or "the held covariance of agent i …".
    """
    event = held is not None
    hx, hP = held if event else (None, None)
    hinfo, g, fired = None, np.zeros(0), np.zeros(0, dtype=bool)

    def gather(fresh, kept):
        return (np.take(np.concatenate([fresh, kept]), layout.held_src, 0) if event
                else np.take(fresh, layout.src, 0))

    if event:
        hx, hP = A @ hx, A @ hP @ A.T + Q
    est, P = A @ est, symmetrize(A @ P @ A.T + Q)
    P = _ensure_pd(P, _COV)
    for (idx, H, R), y in zip(layout.meas, ys):
        K, P_upd = _kalman_gain(P[idx], H, R, layout.eye)
        est[idx] += K @ (y - H @ est[idx])
        P[idx] = _ensure_pd(P_upd, _COV, idx)
    info = _inv(P)
    if event:
        hinfo = _inv(_check_pd(hP, "the held covariance of agent"))
        g, fired = trigger_from_info(info, hinfo, layout.deltas)
        # a broadcast becomes the anchor every receiver extrapolates
        f = fired[:, None, None]
        hx, hP, hinfo = (np.where(f, est, hx), np.where(f, P, hP),
                         np.where(f, info, hinfo))
    for r in range(rounds):
        if r:
            info = _inv(P)
        Pc, C = ci_maps(gather(info, hinfo), layout.weights, layout.slots)
        # rows follow the layout's order until this one un-permutation
        est = slot_sum(gather(est, hx), layout.slots[0], C)[layout.rank]
        P = _ensure_pd(Pc[layout.rank], _COV)
        for idx, D, d, eps_I in layout.proj:
            G, c, P_proj = _projection_map(P[idx], D, d, eps_I, layout.eye)
            P[idx] = _ensure_pd(P_proj, _COV, idx)
            est[idx] = G @ est[idx] + c
    return est, P, g, fired, (hx, hP) if event else None


def _rows(values, ids, size: int, what: str) -> np.ndarray:
    """The (len(values), size, 1) stack of per-agent values of any shape,
    made and checked once; only a failed check looks for the first agent
    ids[j] whose value has another size or is not finite, and names it."""
    try:
        block = np.array(values, dtype=float).reshape(len(values), -1)
    except ValueError:          # shapes differ: ragged, or (m,) beside (m, 1)
        block = None
    if block is None or block.shape[1] != size or not np.isfinite(block).all():
        for i, v in zip(ids, values):
            v = np.ravel(np.asarray(v, dtype=float))
            if v.size != size:
                raise ValueError(f"{what} of agent {i} has {v.size} entries, not {size}")
            if not np.isfinite(v).all():
                raise ValueError(f"{what} of agent {i} is not finite")
        block = np.array([np.ravel(v) for v in values], dtype=float)
    return block[:, :, None]


def _round(states, measurements, agents, topology, A, Q, rounds, triggers=None,
           k=None) -> tuple:
    """`filter_step` on the stacked arguments of a round: (states, fired).
    Each per-agent list is checked whole, and only a failed check names the
    first bad agent; every x and measurement is stacked by `_rows`.  The
    returned states hold rows of the new stacks, and the trigger states rows
    of one copy of each held stack."""
    N, n = topology.N, len(A)
    named = dict(states=states, measurements=measurements, agents=agents,
                 **({} if triggers is None else {"trigger_states": triggers}))
    for name, seq in named.items():
        if len(seq) != N:
            raise ValueError(f"{name} has {len(seq)} entries for {N} agents")
    if [st.id for st in states] != list(range(N)):
        raise ValueError(f"states must have ids 0..{N - 1} in order, "
                         f"got {[st.id for st in states]}")
    layout = step_layout(agents, topology)
    held = None
    if triggers is not None:
        if [ts.time for ts in triggers] != [k - 1] * N:
            i = next(i for i, ts in enumerate(triggers) if ts.time != k - 1)
            raise ValueError(f"trigger state of agent {i} holds step {triggers[i].time}, "
                             f"not {k - 1}")
        hx = _rows([ts.x for ts in triggers], range(N), n, "trigger state")
        if [ts.delta for ts in triggers] != layout.deltas.tolist():
            # the rounds fire on AgentSpec.delta, as the engine does
            i = next(i for i, (ts, a) in enumerate(zip(triggers, agents))
                     if ts.delta != a.delta)
            raise ValueError(f"trigger state of agent {i} has delta {triggers[i].delta}, "
                             f"but its AgentSpec has delta {agents[i].delta}")
        held = (hx, np.array([ts.P for ts in triggers]))
    est = _rows([st.estimate.x for st in states], range(N), n, "state")
    ys = [_rows([measurements[i] for i in idx.tolist()], idx.tolist(), H.shape[1],
                "measurement") for idx, H, _ in layout.meas]
    est, P, _, fired, held = filter_step(
        layout, est, np.array([st.estimate.P for st in states]), ys, A, Q, rounds, held)
    if triggers is not None:    # one copy each: shared with nothing returned
        for ts, x, p in zip(triggers, held[0][:, :, 0].copy(), held[1].copy()):
            ts.x, ts.P, ts.time = x, p, k
    return ([AgentState(i, _estimate(x, p)) for i, (x, p) in enumerate(zip(est[:, :, 0], P))],
            set(np.flatnonzero(fired).tolist()))


def tpdkf_round(states: list[AgentState], measurements, model: SystemModel,
                agents: list[AgentSpec], topology: Topology, L: int,
                k: int = 1) -> list[AgentState]:
    """Advance every agent one time step of the time-based filter.

    measurements: per-agent measurement vectors (entries for zero-H agents are
    ignored and may be None).  The L fusion-projection rounds are barrier
    synchronized: round l of every agent consumes round-l outputs of its
    in-neighbors, never mixed rounds.  One `filter_step` on the stacked states,
    with L checked as `ScenarioConfig` checks it, and A and Q of step k − 1.
    """
    L = _integer(L, "L", 1)
    return _round(states, measurements, agents, topology, model.A_at(k - 1),
                  model.Q_at(k - 1), L)[0]


def epdkf_round(states: list[AgentState], trigger_states: list[TriggerState],
                measurements, model: SystemModel, agents: list[AgentSpec],
                topology: Topology, k: int) -> tuple[list[AgentState], set[int]]:
    """Advance every agent one event-triggered step; returns the fired set.

    Phase 1 (all agents, then barrier): predict, measurement-update, evaluate
    own trigger and broadcast on fire.  Phase 2: fuse the own fresh pair with
    neighbor pairs (fresh if fired, extrapolated otherwise), then project once.
    One `filter_step` on the stacked states and held pairs; every trigger
    state must hold step k − 1 and the agent's own δ (`AgentSpec.delta`, as
    the engine reads it), and is left holding step k.
    """
    if not model.time_invariant:
        raise ValueError("event-triggered mode requires a time-invariant model")
    return _round(states, measurements, agents, topology, model.A_at(0),
                  model.Q_at(0), 1, trigger_states, k)
