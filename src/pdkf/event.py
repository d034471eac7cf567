"""Event-triggered communication layer and the stacked filter step.

An agent broadcasts its measurement-updated pair only when the information
gain over what its neighbors can already extrapolate exceeds a threshold:
g = λ_max(P̃⁻¹ − P̄̃⁻¹) − δ with P̄̃ the multi-step prediction of the last
broadcast.  Silent neighbors are substituted by that same extrapolation, so
the whole communication pattern is a deterministic function of the model and
thresholds — it never depends on measured data.  `filter_step`, a chunk
of steps of either filter on the stack of all agents, serves the Monte
Carlo engine (chunks of many steps) and the step-by-step rounds
`tpdkf_round` and `epdkf_round` (chunks of one) alike; both read the
network's `step_layout`, built once per network and fused over its real
edges only.  Because the covariances and the trigger never read a state,
a chunk runs the covariance side of all its steps first, forms the state
maps they fix in one call per kind, then applies them step by step.
`filter_step` also holds the one held-pair recursion they share, and on a
state block of no columns (a pass on no trials) it does covariance work
only.
The rounds check each per-agent list whole, stacking every x and
measurement list by one helper, `_rows`, which checks widths and
finiteness; a single agent is looked at only to name a failing one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .filter import (AgentState, _check_pd, _ci_gains, _ci_information, _eigvalsh,
                     _ensure_pd, _estimate, _inv, _kalman_gain, _pair, _projection_cov,
                     _projection_state, slot_sum, symmetrize)
from .model import AgentSpec, SystemModel, Topology, _check_symmetric, _integer, _real

_COV = "the covariance of agent"


@dataclass
class TriggerState:
    """What an agent's neighbors hold of it, plus its trigger threshold
    (which the rounds require to equal its `AgentSpec.delta`): the held pair
    (x, P) of step `time`, its last broadcast extrapolated to that step.  The
    initial state counts as a broadcast at time 0; each event round advances
    the pair in `filter_step` and re-anchors it where the agent fires.  x and
    P are checked copies (`filter._pair`, P PSD, as in `ConsistentEstimate`);
    time and delta go through `model._integer` and `model._real`, each ≥ 0.
    """

    x: np.ndarray
    P: np.ndarray
    time: int
    delta: float

    def __post_init__(self):
        self.x, self.P = _pair(self.x, self.P)
        self.time = _integer(self.time, "time", 0)
        self.delta = _real(self.delta, "delta", "nonnegative")


def trigger_from_info(info, info_held, delta):
    """Trigger scores g = λ_max(Ω − Ω̄) − δ from the information matrices of
    the fresh pairs (Ω = P̃⁻¹) and of the held extrapolations (Ω̄ = P̄̃⁻¹),
    stacks over a leading agent axis with δ one value per agent; an agent
    fires only on a strictly positive score; Ω − Ω̄ must pass the shared
    symmetry check, scaled by max|Ω| and max|Ω̄| where it fails at its own
    scale (Ω and Ω̄ may nearly cancel), and the eigen-solver reads its
    symmetric part.  Returns (g, fired) arrays."""
    sym = _check_symmetric(info - info_held, "the information difference", (info, info_held))
    g = _eigvalsh(sym)[..., -1] - delta     # eigvalsh sorts ascending
    return g, g > 0.0


def _named(stage: str, ids, kernel, *stacks):
    """kernel(*stacks), on stacks whose first axis holds one member per agent
    ids[j].  Only if it raises is each member run alone, and the first that
    fails is named: "the {stage} of agent {ids[j]}: {its message}"."""
    try:
        return kernel(*stacks)
    except ValueError as exc:           # a LinAlgError is one
        for j, i in enumerate(ids):
            try:
                kernel(*(s[j:j + 1] for s in stacks))
            except ValueError as one:
                raise type(exc)(f"the {stage} of agent {i}: {one}") from exc
        raise


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


def filter_step(layout: StepLayout, est, P, ys: list, As, Qs, rounds: int = 1,
                held: tuple | None = None) -> tuple:
    """A chunk of K = len(As) ≥ 1 steps of either filter on the agent stack,
    each in the paper's order (predict, update, trigger in event mode, then
    per round CI-fuse and project): (est, P, g, fired, held), the first
    four lists of K new arrays, one per step.

    est (N, n, c) holds c state columns (trials) per agent and P is the
    (N, n, n) covariance stack before the chunk; As and Qs hold each step's
    A and Q, and ys one (g, K, m, c) block per H group of the layout, row t
    the measurements of step t, read only where est holds columns (ys may
    be [] on none).  Each step returns est (N, n, c), P (N, n, n), and g and
    fired (N,) in event mode, empty in time mode.  Every fact about the
    network, the thresholds included, is read from the layout, and the mode
    from held alone.  Time mode (held None) runs `rounds` fusion-projection
    rounds on the fresh pairs, gathered by the layout's src.  Event mode
    takes held = (hx, hP), the pairs held before the chunk, advances them
    each step (x ← A x, P ← A P Aᵀ + Q, not symmetrized), fires where the
    trigger score g against them exceeds the layout's deltas, re-anchors
    the pairs of the agents that fired, fuses each neighbor's held pair
    (fresh if it fired), gathered by the layout's held_src, and returns the
    pairs held after the chunk.

    The covariances and the trigger never read a state, so each step's
    state update is an affine map that they fix.  The step runs in two
    loops: first the covariance side of every step of the chunk, keeping
    each gain, each round's fused P and terms and each D group's P·Dᵀ and
    S; then, only where est holds columns, the state side, step by step.
    Between them the state maps are formed once per chunk, over its
    (steps × rounds) stack: the CI maps C = P[dst]·terms, and per D group
    M = P·Dᵀ·`pinv`(S), G = I − M D and c = M d.  Each member of those
    stacks has the bits it has alone, so a chunk of K steps has the bits of
    K chunks of one.  On zero columns the step keeps nothing for the state
    side, forms no map and returns est and hx as given.  Each covariance stack made
    is symmetrized once, where it is made (the prediction here, the others
    inside the kernels).
    Guards, once per stack and bit-neutral where Cholesky succeeds:
    `_ensure_pd` on every covariance stack made, whose one Cholesky is also
    the definiteness check before its inverse; `_check_pd` on the held
    stack, which `_ensure_pd` does not make; cond(S) ≤ 1e14 before each
    gain.  The guards' errors name the failing agent: "the covariance of
    agent i …" or "the held covariance of agent i …"; any other error of a
    kernel on a stack is named by `_named` as "the {update, inverse, held
    inverse, trigger, fusion, projection} of agent i: …".
    """
    event, states = held is not None, est.shape[2] > 0
    hx, hP = held if event else (None, None)
    hinfo, agents, (sizes, dst) = None, range(len(P)), layout.slots
    src = layout.held_src if event else layout.src
    Ps, ests, g, fired = [], [], [], []
    if not event:
        g, fired = [np.zeros(0)] * len(As), [np.zeros(0, dtype=bool)] * len(As)
    # what the state side reads: the gains, and per (step, round) the fused
    # P, its terms and each D group's (P·Dᵀ, S)
    gains, fused, terms, proj = [], [], [], [([], []) for _ in layout.proj]

    def gather(fresh, kept):    # each in-edge's sender, slot-major
        return (fresh if kept is None else np.concatenate([fresh, kept])).take(src, 0)

    for t, (A, Q) in enumerate(zip(As, Qs)):
        if event:
            hP = A @ hP @ A.T + Q
        P = _ensure_pd(symmetrize(A @ P @ A.T + Q), _COV)
        for idx, H, R in layout.meas:
            K, P_upd = _named("update", idx, lambda *s: _kalman_gain(*s, layout.eye), P[idx], H, R)
            if states:
                gains.append(K)
            P[idx] = _ensure_pd(P_upd, _COV, idx)
        info = _named("inverse", agents, _inv, P)
        if event:
            hinfo = _named("held inverse", agents, _inv,
                           _check_pd(hP, "the held covariance of agent"))
            g_t, fired_t = _named("trigger", agents, trigger_from_info, info, hinfo,
                                  layout.deltas)
            g.append(g_t)
            fired.append(fired_t)
            # a broadcast becomes the anchor every receiver extrapolates
            f = fired_t[:, None, None]
            hP, hinfo = np.where(f, P, hP), np.where(f, info, hinfo)
        for r in range(rounds):
            if r:
                info = _named("inverse", agents, _inv, P)
            infos = gather(info, hinfo)
            try:
                Pc, a_info = _ci_information(infos, layout.weights, sizes)
            except np.linalg.LinAlgError:   # name the row whose information sum is singular
                _named("fusion", np.argsort(layout.rank), _inv,
                       slot_sum(layout.weights[:, None, None] * infos, sizes))
                raise
            if states:
                fused.append(Pc)
                terms.append(a_info)
            # rows follow the layout's order until this one un-permutation
            P = _ensure_pd(Pc[layout.rank], _COV)
            for (PDts, Ss), (idx, D, d, eps_I) in zip(proj, layout.proj):
                PDt, S, P_proj = _named("projection", idx, _projection_cov, P[idx], D, eps_I)
                if states:
                    PDts.append(PDt)
                    Ss.append(S)
                P[idx] = _ensure_pd(P_proj, _COV, idx)
        Ps.append(P)
    if not states:
        return [est] * len(As), Ps, g, fired, (hx, hP) if event else None
    C = _ci_gains(_stack(fused), _stack(terms), dst)
    maps = [_projection_state(_stack(PDts), _stack(Ss), D, d, layout.eye)
            for (PDts, Ss), (_, D, d, _) in zip(proj, layout.proj)]
    gains = iter(gains)
    for t, A in enumerate(As):
        if event:
            hx = A @ hx
        est = A @ est
        for j, (idx, H, _) in enumerate(layout.meas):
            est[idx] += next(gains) @ (ys[j][:, t] - H @ est[idx])
        if event:
            hx = np.where(fired[t][:, None, None], est, hx)
        for i in range(t * rounds, (t + 1) * rounds):
            est = slot_sum(gather(est, hx), sizes, C[i])[layout.rank]
            for (G, c), (idx, *_) in zip(maps, layout.proj):
                est[idx] = G[i] @ est[idx] + c[i]
        ests.append(est)
    return ests, Ps, g, fired, (hx, hP) if event else None


def _stack(arrays: list) -> np.ndarray:
    """The arrays as one stack over a new leading axis; a lone array's is a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


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
    """One `filter_step` on a chunk of one step, the stacked arguments of a
    round: (states, fired).
    Each per-agent list is checked whole, and only a failed check names the
    first bad agent; every x and measurement is stacked by `_rows`.  The
    trigger states' pairs go in as the step's held pair; the returned states
    hold rows of the new stacks, and the trigger states rows of one copy of
    each held stack the step returns."""
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
                "measurement")[:, None] for idx, H, _ in layout.meas]
    (est,), (P,), _, (fired,), held = filter_step(
        layout, est, np.array([st.estimate.P for st in states]), ys, [A], [Q], rounds, held)
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
    with L and k checked by `model._integer` (L ≥ 1), and A and Q of step k − 1.
    """
    L, k = _integer(L, "L", 1), _integer(k, "k")
    return _round(states, measurements, agents, topology, model.A_at(k - 1),
                  model.Q_at(k - 1), L)[0]


def epdkf_round(states: list[AgentState], trigger_states: list[TriggerState],
                measurements, model: SystemModel, agents: list[AgentSpec],
                topology: Topology, k: int) -> tuple[list[AgentState], set[int]]:
    """Advance every agent one event-triggered step; returns the fired set.

    Phase 1 (all agents, then barrier): predict, measurement-update, evaluate
    own trigger and broadcast on fire.  Phase 2: fuse the own fresh pair with
    neighbor pairs (fresh if fired, extrapolated otherwise), then project once.
    One `filter_step` on the stacked states and held pairs; k is an integer;
    every trigger state must hold step k − 1 and the agent's own δ
    (`AgentSpec.delta`, as the engine reads it), and is left holding step k.
    """
    k = _integer(k, "k")
    if not model.time_invariant:
        raise ValueError("event-triggered mode requires a time-invariant model")
    return _round(states, measurements, agents, topology, model.A_at(0),
                  model.Q_at(0), 1, trigger_states, k)
