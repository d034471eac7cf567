"""Event-triggered communication layer and filter round (time-invariant model).

An agent broadcasts its measurement-updated pair only when the information
gain over what its neighbors can already extrapolate exceeds a threshold:
g = λ_max(P̃⁻¹ − P̄̃⁻¹) − δ with P̄̃ the multi-step prediction of the last
broadcast.  Silent neighbors are substituted by that same extrapolation, so
the whole communication pattern is a deterministic function of the model and
thresholds — it never depends on measured data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filter import (AgentState, ConsistentEstimate, ci_fuse, measurement_update,
                     predict, project, symmetrize)
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
        A = np.asarray(A, dtype=float)
        Q = np.asarray(Q, dtype=float)
        held = self._held
        if held is None or held[0] > k or held[1] is not A or held[2] is not Q:
            held = (self.last_time, A, Q, self.last_x, self.last_P)
        step, _, _, x, P = held
        for _ in range(k - step):
            x = A @ x
            P = A @ P @ A.T + Q
        self._held = (k, A, Q, x, P)
        return x, P


def trigger_from_info(info, info_held, delta):
    """Trigger score g = λ_max(Ω − Ω̄) − δ from the information matrices of
    the fresh pair (Ω = P̃⁻¹) and of the held extrapolation (Ω̄ = P̄̃⁻¹); fires
    only on a strictly positive score.  On stacks over a leading agent axis
    (δ one value per agent) it returns arrays of scores and decisions."""
    diff = info - info_held
    sym = symmetrize(diff)
    scale = np.abs(sym).max(axis=(-2, -1), initial=1.0)
    if np.count_nonzero(np.abs(diff - diff.swapaxes(-1, -2)).max(axis=(-2, -1))
                        > 1e-8 * scale):
        raise ValueError("information difference lost symmetry beyond tolerance")
    g = np.linalg.eigvalsh(sym)[..., -1] - delta     # eigvalsh sorts ascending
    return (float(g), bool(g > 0.0)) if g.ndim == 0 else (g, g > 0.0)


def trigger_eval(P_tilde, P_bar_tilde, delta: float) -> tuple[float, bool]:
    """Trigger score and decision; fires only on strictly positive score."""
    return trigger_from_info(_inv_pd(P_tilde, "P_tilde"),
                             _inv_pd(P_bar_tilde, "P_bar_tilde"), delta)


def _inv_pd(M, name: str) -> np.ndarray:
    M = symmetrize(np.asarray(M, dtype=float))
    if np.linalg.eigvalsh(M).min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    return np.linalg.inv(M)


def epdkf_round(states: list[AgentState], trigger_states: list[TriggerState],
                measurements, model: SystemModel, agents: list[AgentSpec],
                topology: Topology, k: int) -> tuple[list[AgentState], set[int]]:
    """Advance every agent one event-triggered step; returns the fired set.

    Phase 1 (all agents, then barrier): predict, measurement-update, evaluate
    own trigger and broadcast on fire.  Phase 2: fuse the own fresh pair with
    neighbor pairs (fresh if fired, extrapolated otherwise), then project once.
    """
    if not model.time_invariant:
        raise ValueError("event-triggered mode requires a time-invariant model")
    A, Q = model.A_at(0), model.Q_at(0)

    # Phase 1: local updates and trigger decisions against an immutable snapshot.
    fresh: list[ConsistentEstimate] = []
    fired: set[int] = set()
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
