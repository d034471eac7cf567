"""Synchronous-round network simulator and Monte Carlo harness.

The engine exploits the fact that, once the covariance recursion and the
trigger pattern (which never depends on measured data) are fixed, every
filter step is an affine map of the previous estimates and the current
measurements.  One pass, `_filter_path`, advances the (N, n, n) covariance
stack and the (N, n, trials) state stack together: each step runs every
`filter`/`event` kernel once on the agent stack, fusing the pairs gathered
over the network's real edges (the cached, slot-major `event.step_layout`,
each agent's neighbors in order), applies the maps to all trials at once,
then drops them.  The runs, the Monte Carlo, both baselines (the centralized
one as a one-agent network) and the design pilot (`pilot_betas`, on zero
trials) share that pass, and `_run_core` alone records it, a chunk of steps
per `_Recorder.record` call.

Reproducibility contract: the master seed is split with
``np.random.SeedSequence(seed).spawn(trials)`` and trial j draws from
``default_rng(children[j])`` in a fixed order: x0 (n,), the process-noise
block (T, n), then one measurement-noise block (T, m_i) per agent in agent
order.  Identical config + seed therefore reproduces bit-identical output.
The draw order per trial is that of a per-trial loop; the transforms run on
(n, trials) blocks for all trials at once (`generate_truth`, three numpy
calls per step), so states may differ from a per-trial loop in the last bit,
never a trigger decision.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import filter as filt
from .analysis import pilot_contraction_factors
from .event import _grouped, filter_step, step_layout
from .model import (AgentSpec, GlobalConstraint, SystemModel, Topology, _at,
                    _check_covariance, _check_finite, _integer, _real,
                    build_global_constraint, metropolis_weights)

# Road alignment used by the vehicle scenarios: heading 60 degrees, so
# x1 = tan(60°)·x2 and x3 = tan(60°)·x4.
ROAD_D = np.array([[1.0, -np.sqrt(3.0), 0.0, 0.0],
                   [0.0, 0.0, 1.0, -np.sqrt(3.0)]])


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ScenarioConfig:
    """A scenario: model, agents and topology, with the settings of its runs.
    T, L and trials (at least 1), the seed and each checkpoint (nonnegative;
    one above T is not recorded) go through `model._integer`, and theta
    through `model._real`; any other value raises a ValueError that names
    the field ("T must be at least 1, got 0")."""

    model: SystemModel
    agents: list
    topology: Topology
    T: int
    L: int = 1
    mode: str = "time"            # "time" or "event"
    trials: int = 1
    seed: int = 0
    theta: float = 1.0
    x0_hat: np.ndarray | None = None     # (n,) shared or (N, n); None -> x0_mean
    P0_init: np.ndarray | None = None    # explicit initial covariance override
    x0_cov: np.ndarray | None = None     # truth initial covariance; None -> model.P0
    sim_q: np.ndarray | None = None      # actual process noise; None -> model Q
    sim_r: list | None = None            # actual measurement noise; None -> agent R
    checkpoints: tuple = (50, 150, 250)
    name: str = "scenario"
    # derived from `agents` on construction; raises on an empty constraint set
    global_constraint: GlobalConstraint = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        for attr, least in (("T", 1), ("L", 1), ("trials", 1), ("seed", 0)):
            setattr(self, attr, _integer(getattr(self, attr), attr, least))
        self.theta = _real(self.theta, "theta")
        self.checkpoints = tuple(_integer(k, f"checkpoints[{i}]", 0)
                                 for i, k in enumerate(self.checkpoints))
        if self.mode not in ("time", "event"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.agents) != self.topology.N:
            raise ValueError(f"agents: one AgentSpec per topology node required "
                             f"({self.topology.N}), got {len(self.agents)}")
        if self.sim_r is not None and len(self.sim_r) != len(self.agents):
            raise ValueError(f"sim_r needs one entry per agent ({len(self.agents)}), "
                             f"got {len(self.sim_r)}")
        n = self.model.n
        for i, a in enumerate(self.agents):
            if a.H.shape[1] != n or a.D.shape[1] != n:
                raise ValueError(f"agent {i}: H and D need {n} columns")
        self.global_constraint = build_global_constraint(self.agents)
        for attr in ("x0_hat", "P0_init", "x0_cov", "sim_q"):
            v = getattr(self, attr)
            if v is not None:
                object.__setattr__(self, attr, np.asarray(v, dtype=float))
        if self.x0_hat is not None:
            _check_finite(self.x0_hat, "x0_hat")
            self.x0_hat_matrix()        # raises on a wrong shape
        covs = [(attr, getattr(self, attr), n)
                for attr in ("P0_init", "x0_cov", "sim_q")]
        covs += [(f"sim_r[{i}]", r, a.H.shape[0])
                 for i, (r, a) in enumerate(zip(self.sim_r or [], self.agents))]
        for name, M, m in covs:
            if M is not None:
                _check_covariance(M, name, m)

    # -- derived pieces ----------------------------------------------------

    def x0_hat_matrix(self) -> np.ndarray:
        """(N, n) initial estimates; a single vector is shared by all agents."""
        N, n = self.topology.N, self.model.n
        x = self.model.x0_mean if self.x0_hat is None else self.x0_hat
        if x.shape == (n,):
            return np.tile(x, (N, 1))
        if x.shape != (N, n):
            raise ValueError(f"x0_hat must be (n,) or (N, n), got {x.shape}")
        return x

    def initial_pairs(self) -> list:
        """Per-agent (x0_hat_i, P0_i); P0 from the explicit override when given,
        otherwise from the consistent-initialization rule."""
        xs = self.x0_hat_matrix()
        if self.P0_init is not None:
            return [(x, np.array(self.P0_init, dtype=float)) for x in xs]
        ests = [filt.init_consistent(x, self.model.P0, self.theta, self.model.x0_mean)
                for x in xs]
        return [(e.x, e.P) for e in ests]

    def sim_r_of(self, i: int) -> np.ndarray:
        if self.sim_r is not None and self.sim_r[i] is not None:
            return np.asarray(self.sim_r[i], dtype=float)
        return self.agents[i].R


@dataclass
class RunMetrics:
    mse: np.ndarray
    trace_p: np.ndarray
    lambda_running: np.ndarray
    constraint_residuals: np.ndarray      # per-step max_i ||D_i x_hat - d_i||_inf
    mean_error_norm: np.ndarray           # per-step ||mean error||_2 (bias decay)
    g: np.ndarray        # (T, N) trigger scores of steps 1..T; (0, N) in time mode
    fired: np.ndarray    # (T, N) bool: who broadcast at each step; (0, N) likewise
    trials: int = 1
    seed: int = 0
    checkpoints: tuple = ()
    trace_p_agent: np.ndarray | None = None               # (T+1, N)
    sample_moment: dict = field(default_factory=dict)     # (k, i) -> (n, n)
    P_checkpoint: dict = field(default_factory=dict)      # (k, i) -> (n, n)
    # (k, i) -> mean squared constraint-direction error.  For an agent whose
    # estimate already lies on the constraint set it is rounding noise (1e-30
    # to 1e-27): estimate and truth both satisfy the constraint, so only last
    # bits differ.  Only the mean over agents is meaningful.
    constraint_sq: dict = field(default_factory=dict)

    @property
    def lambda_(self) -> float:
        return float(self.lambda_running[-1])

    @property
    def trigger_log(self) -> list:
        """triggers.csv's rows: (step, agent, g, fired), step-major."""
        return list(zip(*(v.tolist() for v in _csv_tables(self)["triggers.csv"].values())))

    def fired_sets(self) -> dict:
        return {k: set(np.flatnonzero(row).tolist())
                for k, row in enumerate(self.fired, 1) if row.any()}


# ---------------------------------------------------------------------------
# truth and measurement generation


def _psd_sqrt(M: np.ndarray) -> np.ndarray:
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    if w.min() < -1e-10 * max(w.max(), 1.0):
        raise ValueError("covariance matrix must be positive semidefinite")
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def _affine(M: np.ndarray, X: np.ndarray, c) -> np.ndarray:
    """c + M @ X on a (…, columns of M, trials) block, as one multiply and one
    add per column of M in index order: each trial gets the same exactly
    rounded operations whatever the number of trials, where BLAS rounds a GEMV
    and a GEMM differently."""
    out = c + M[:, 0, None] * X[..., 0, None, :]
    for b in range(1, M.shape[1]):
        out += M[:, b, None] * X[..., b, None, :]
    return out


def generate_truth(cfg: ScenarioConfig,
                   rng: np.random.Generator | Sequence[np.random.Generator]):
    """True trajectories and all agent measurements, of one trial or a block.

    With one Generator `rng`: one trial, (states (T+1, n), [per-agent
    measurements (T, m_i)]).  With a sequence of Generators: one trial each,
    ((T+1, n, trials), [(T, m_i, trials)]) blocks.  The one-trial form is the
    same code on a block of one, so it equals column j of a block drawn on
    the same generators bit for bit.  Each trial draws from its own generator
    in the order of the module docstring.  x0 is drawn from the configured
    initial distribution and projected onto `cfg.global_constraint`;
    process noise is projected onto the constraint tangent space so
    D̄·x_k = d̄ holds at every step.  D̄ has orthonormal rows, so the
    projection is x ↦ (I − D̄ᵀD̄)x + D̄ᵀd̄, with no inverse.  Measurement row
    k-1 belongs to step k; an agent without a measurement gets exact zeros.
    A step adds to c = D̄ᵀd̄ each T_A[:, b]·x_k[b], then each T_S[:, b]·z_k[b],
    in index order (T_A, T_S: the projected A_k, Q^½), as one sum over the
    outer axis of a (2n + 1, n, trials) block of those terms.
    """
    single = hasattr(rng, "standard_normal")
    rngs = [rng] if single else list(rng)
    model, T, n, gc = cfg.model, cfg.T, cfg.model.n, cfg.global_constraint
    X = np.empty((T + 1, n, len(rngs)))
    Y = [np.empty((T, a.H.shape[0], len(rngs))) for a in cfg.agents]
    for j, r in enumerate(rngs):        # the raw draws, straight into the blocks
        X[0, :, j] = r.standard_normal(n)
        X[1:, :, j] = r.standard_normal((T, n))
        for Yi in Y:                    # drawn even if unused: fixed stream order
            Yi[:, :, j] = r.standard_normal(Yi.shape[:2])

    # the projection x ↦ tangent x + c, folded into each noise factor and A_k;
    # without constraint rows it is exactly x ↦ I x + 0
    tangent, c = np.eye(n) - gc.Dbar.T @ gc.Dbar, gc.Dbar.T @ gc.dbar[:, None]
    x0_cov = cfg.x0_cov if cfg.x0_cov is not None else model.P0
    X[0] = _affine(tangent @ _psd_sqrt(x0_cov), X[0],
                   tangent @ model.x0_mean[:, None] + c)
    qs = [cfg.sim_q] if cfg.sim_q is not None else model.Q
    TA, TS = [tangent @ A for A in model.A], [tangent @ _psd_sqrt(q) for q in qs]
    terms = np.empty((2 * n + 1, n, len(rngs)))     # c, then each column's term
    terms[0] = c
    for k in range(T):                  # X[k + 1] holds z_k until the sum overwrites it
        np.multiply(_at(TA, k).T[:, :, None], X[k][:, None], out=terms[1:n + 1])
        np.multiply(_at(TS, k).T[:, :, None], X[k + 1][:, None], out=terms[n + 1:])
        terms.sum(axis=0, out=X[k + 1])
    for i, (a, Yi) in enumerate(zip(cfg.agents, Y)):
        Yi[...] = (_affine(_psd_sqrt(cfg.sim_r_of(i)), Yi, _affine(a.H, X[1:], 0.0))
                   if a.has_measurement else 0.0)
    return (X[..., 0], [Yi[..., 0] for Yi in Y]) if single else (X, Y)


def _noise_blocks(cfg: ScenarioConfig, trials: int, seed: int):
    """Stacked truth/measurement blocks: X (T+1, n, trials), Y_i (T, m_i, trials)."""
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(trials)]
    return generate_truth(cfg, rngs)


# ---------------------------------------------------------------------------
# the filter pass


def _filter_path(cfg: ScenarioConfig, mode: str, Y: list):
    """One pass of either filter: yields (est, P, g, fired) for k = 0..T.

    est (N, n, trials) and P (N, n, n) are new stacks of each agent's state
    block and covariance after step k; g and fired are the (N,) trigger
    scores and decisions of step k in event mode, and empty otherwise and at
    k = 0.  Y holds the (T, m_i, trials) measurement blocks; trials may be 0.
    Each step is one `event.filter_step`, which also advances the held pairs
    it returned the step before, as it does for the rounds, so a one-trial
    pass is the rounds' arithmetic bit for bit; a LinAlgError of the step,
    such as its guard's "the covariance of agent i is not finite", becomes
    the ValueError "the run diverged: <that message> at step k".
    """
    model, agents, event = cfg.model, cfg.agents, mode == "event"
    if event and not model.time_invariant:
        raise ValueError("event-triggered mode requires a time-invariant model")
    layout = step_layout(agents, cfg.topology)
    Ys = [np.stack([Y[i] for i in idx]) for idx, *_ in layout.meas]
    x0, P = map(np.stack, zip(*cfg.initial_pairs()))
    est = np.repeat(x0[:, :, None], Y[0].shape[2], axis=2)
    held = (est, P) if event else None     # the initial time is a broadcast
    yield est, P, np.zeros(0), np.zeros(0, dtype=bool)
    for k in range(1, cfg.T + 1):
        try:
            est, P, g, fired, held = filter_step(
                layout, est, P, [Yg[:, k - 1] for Yg in Ys], model.A_at(k - 1),
                model.Q_at(k - 1), 1 if event else cfg.L, held)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"the run diverged: {exc} at step {k}") from None
        yield est, P, g, fired


# ---------------------------------------------------------------------------
# metrics accumulation

# the recorder's chunk: the bytes of its buffered state and covariance stacks
_CHUNK_BYTES = 1 << 18


class _Recorder:
    def __init__(self, cfg: ScenarioConfig, trials: int, seed: int,
                 gc: GlobalConstraint, constraints: list, event: bool = False):
        """`constraints` holds one (D, d) pair or None per recorded estimate;
        residuals are evaluated against these.  `event` keeps trigger rows.
        At each checkpoint `constraint_sq` takes the constrained coordinates
        of each agent's error block e as D̄·e (`gc` has orthonormal rows)."""
        T, topo = cfg.T, cfg.topology
        rows = (T if event else 0, topo.N)
        self.constraints = _grouped(constraints)
        self.metrics = RunMetrics(
            mse=np.zeros(T + 1), trace_p=np.zeros(T + 1),
            lambda_running=np.ones(T + 1), constraint_residuals=np.zeros(T + 1),
            mean_error_norm=np.zeros(T + 1), g=np.zeros(rows),
            fired=np.zeros(rows, dtype=bool), trials=trials, seed=seed,
            checkpoints=tuple(k for k in cfg.checkpoints if k <= T),
            trace_p_agent=np.zeros((T + 1, len(constraints))))
        self.out_deg = np.array([topo.out_degree0(i) for i in range(topo.N)])
        self.gc = gc

    def record(self, k0: int, est: np.ndarray, X: np.ndarray, P: np.ndarray):
        """Steps k0..k0 + K − 1 from one chunk, sized by `_CHUNK_BYTES`: the
        (K, N, n, trials) state, (K, N, n, n) covariance and (K, n, trials)
        truth blocks.  Each reduction is a step's, with the step as a leading
        axis, so a chunk of K steps has the bits of K chunks of one; the
        errors, then their squares, overwrite `est`.  Means are sums over their
        count, as `np.mean` computes them; every reduction is numpy's own.  A
        residual is the groups' largest, NaN if any group's is NaN."""
        m, ks, (K, N, _, trials) = self.metrics, slice(k0, k0 + len(est)), est.shape
        res = np.zeros(K)
        for idx, D, d in self.constraints:
            res = np.maximum(res, np.abs(D @ est[:, idx] - d[..., None]).max(axis=(1, 2, 3)))
        m.constraint_residuals[ks] = res
        errs = np.subtract(est, X[:, None], out=est)
        mean = (errs.sum(axis=3) / trials).sum(axis=1) / N
        m.mean_error_norm[ks] = np.sqrt((mean * mean).sum(axis=1))
        for k in [k for k in range(k0, k0 + K) if k in m.checkpoints]:
            for i, e in enumerate(errs[k - k0]):
                m.sample_moment[(k, i)] = e @ e.T / trials
                m.P_checkpoint[(k, i)] = P[k - k0, i].copy()
                if not self.gc.empty:
                    comp = self.gc.Dbar @ e
                    m.constraint_sq[(k, i)] = float(np.mean(np.sum(comp * comp, axis=0)))
        sq = np.multiply(errs, errs, out=errs)
        m.mse[ks] = (sq.sum(axis=2).sum(axis=2) / trials).sum(axis=1) / N
        m.trace_p_agent[ks] = P.trace(axis1=2, axis2=3)
        m.trace_p[ks] = m.trace_p_agent[ks].sum(axis=1) / N

    def finish(self) -> RunMetrics:
        """The metrics, with λ_k = 1 − (out-edges silent over steps 1..k) / (k ·
        Σ out-degree), in exact integers up to the division; 1 without rows or edges."""
        m, total = self.metrics, float(self.out_deg.sum())
        if len(m.fired) and total > 0:
            silent = np.cumsum((~m.fired) @ self.out_deg)
            m.lambda_running[1:] = 1.0 - silent / (np.arange(1, len(silent) + 1) * total)
        return m


# ---------------------------------------------------------------------------
# simulation drivers


def _own_rows(agents: list) -> list:
    """Each agent's own (D_i, d_i), or None for an unconstrained agent."""
    return [(a.D, a.d) if a.has_constraint else None for a in agents]


def _run_core(cfg: ScenarioConfig, mode: str, seed: int, X: np.ndarray, Y: list,
              gc: GlobalConstraint, rows: list) -> RunMetrics:
    """One pass of cfg's network over the measurement blocks Y, recorded
    against the truth X: the one place a `_filter_path` is recorded.  The
    truth's constraint `gc` and the residual `rows`, one (D, d) or None per
    agent of cfg, come from the scenario X and Y were drawn from.  The steps'
    stacks are copied into chunks of K steps, as many as fit both buffers in
    `_CHUNK_BYTES` (1 ≤ K ≤ T + 1), each recorded, as is the rest, by one call."""
    (T1, n, trials), N = X.shape, cfg.topology.N
    rec = _Recorder(cfg, trials, seed, gc, rows, event=mode == "event")
    K = max(1, min(T1, _CHUNK_BYTES // (8 * N * n * (trials + n))))
    ests, Ps, m = np.empty((K, N, n, trials)), np.empty((K, N, n, n)), rec.metrics
    for k, (est, P, g, fired) in enumerate(_filter_path(cfg, mode, Y)):
        if k and len(m.fired):
            m.g[k - 1], m.fired[k - 1] = g, fired
        j = k % K
        ests[j], Ps[j] = est, P
        if j == K - 1 or k == T1 - 1:
            rec.record(k - j, ests[:j + 1], X[k - j:k + 1], Ps[:j + 1])
    return rec.finish()


def _run(cfg: ScenarioConfig, mode: str, trials: int, seed: int) -> RunMetrics:
    """The filter of `mode` on truth drawn from cfg itself."""
    return _run_core(cfg, mode, seed, *_noise_blocks(cfg, trials, seed),
                     cfg.global_constraint, _own_rows(cfg.agents))


def run_time_based(cfg: ScenarioConfig) -> RunMetrics:
    """Single-trial run of the time-based filter over the full horizon."""
    return _run(cfg, "time", 1, cfg.seed)


def run_event(cfg: ScenarioConfig) -> RunMetrics:
    """Single-trial run of the event-triggered filter; λ is the measured rate."""
    return _run(cfg, "event", 1, cfg.seed)


def monte_carlo(cfg: ScenarioConfig, trials: int | None = None,
                seed: int | None = None) -> RunMetrics:
    """Monte Carlo aggregation: MSE_k = (1/N)Σ_i (1/trials)Σ_j ||error||².
    trials and seed override cfg's, checked as `ScenarioConfig` checks them."""
    t = cfg.trials if trials is None else _integer(trials, "trials", 1)
    s = cfg.seed if seed is None else _integer(seed, "seed", 0)
    return _run(cfg, cfg.mode, t, s)


def pilot_betas(cfg: ScenarioConfig) -> tuple:
    """Default (β, β̄) for the design tools: contraction factors covering every
    covariance of a time-based pilot pass over the first min(T, 50) steps."""
    pilot = dataclasses.replace(cfg, T=min(cfg.T, 50), mode="time")
    Y = [np.zeros((pilot.T, a.H.shape[0], 0)) for a in cfg.agents]
    mats = np.concatenate([P for _, P, _, _ in _filter_path(pilot, "time", Y)])
    return pilot_contraction_factors(mats, cfg.model.A_at(0), cfg.model.Q_at(0))


# ---------------------------------------------------------------------------
# baselines


def ckf_baseline(cfg: ScenarioConfig) -> RunMetrics:
    """Centralized Kalman filter on the stacked measurement model (no
    constraint information): the engine on a one-agent network whose agent
    holds every measuring agent's H, stacked, with the block-diagonal R.
    Shares the truth draws with the other drivers; the residual of its one
    estimate is taken against every agent's own (D_i, d_i), stacked."""
    X, Y = _noise_blocks(cfg, cfg.trials, cfg.seed)
    n, idx = cfg.model.n, [i for i, a in enumerate(cfg.agents) if a.has_measurement]
    H = np.vstack([cfg.agents[i].H for i in idx] or [np.zeros((0, n))])
    owner = np.repeat(idx, [len(cfg.agents[i].R) for i in idx])   # each row's agent
    R = np.zeros((len(H), len(H)))      # block-diagonal: its blocks, row-major, in order
    R[owner[:, None] == owner] = np.concatenate([cfg.agents[i].R.ravel() for i in idx] or [[]])
    one = dataclasses.replace(cfg, agents=[AgentSpec(H, R, np.zeros((0, n)), np.zeros(0))],
                              topology=Topology(np.ones((1, 1))), L=1, sim_r=None,
                              x0_hat=cfg.x0_hat_matrix()[0])
    Yc = np.concatenate([Y[i] for i in idx] or [np.zeros((cfg.T, 0, X.shape[2]))], axis=1)
    rows = [(a.D, a.d) for a in cfg.agents if a.has_constraint]
    stacked = [tuple(map(np.concatenate, zip(*rows))) if rows else None]
    return _run_core(one, "time", cfg.seed, X, [Yc], cfg.global_constraint, stacked)


def consensus_baseline(cfg: ScenarioConfig) -> RunMetrics:
    """The identical time-based pipeline with every constraint removed
    (pure covariance-intersection consensus on posteriors).  The truth is
    still generated from the original, constrained scenario, and each
    agent's residual is taken against its own (D_i, d_i) there."""
    stripped = [dataclasses.replace(a, D=np.zeros((0, cfg.model.n)), d=np.zeros(0))
                for a in cfg.agents]
    cfg2 = dataclasses.replace(cfg, agents=stripped, mode="time")
    return _run_core(cfg2, "time", cfg.seed, *_noise_blocks(cfg, cfg.trials, cfg.seed),
                     cfg.global_constraint, _own_rows(cfg.agents))


# ---------------------------------------------------------------------------
# canonical scenarios


def _vehicle_scenario(name: str, sensors: list, W: np.ndarray,
                      **run) -> ScenarioConfig:
    """The vehicle model shared by case1 and case2.  sensors holds one
    (H, on_road, delta) per agent: the 1×4 measurement row (R = 90), whether
    the agent knows the road constraint, and its trigger threshold."""
    A = np.array([[1.0, 0.0, 0.1, 0.0],
                  [0.0, 1.0, 0.0, 0.1],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    P0 = np.diag([100.0, 100.0, 4.0, 4.0])
    model = SystemModel(A, np.diag([4.0, 4.0, 1.0, 1.0]), np.zeros(4), P0)
    agents = [AgentSpec(np.asarray(H, dtype=float), np.array([[90.0]]),
                        ROAD_D.copy() if road else np.zeros((0, 4)),
                        np.zeros(2 if road else 0), 0.01, float(delta))
              for H, road, delta in sensors]
    return ScenarioConfig(model=model, agents=agents, topology=Topology(W),
                          P0_init=P0.copy(), x0_cov=np.diag([100.0, 100.0, 3.0, 1.0]),
                          name=name, **run)


def case1(mode: str = "event", L: int = 1, trials: int = 1, seed: int = 0,
          delta: tuple = (0.3, 0.4, 0.8), T: int = 250) -> ScenarioConfig:
    """Three-agent road-constrained vehicle scenario on a path graph."""
    H_pos = [[1.0, 0.0, 0.0, 0.0]]
    sensors = [(H_pos, True, delta[0]), ([[0.0] * 4], False, delta[1]),
               (H_pos, True, delta[2])]
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    return _vehicle_scenario("case1", sensors, metropolis_weights(adj), T=T, L=L,
                             mode=mode, trials=trials, seed=seed)


def case2(mode: str = "time", L: int = 1, trials: int = 100, seed: int = 0,
          delta: float = 0.4, T: int = 250, N: int = 20) -> ScenarioConfig:
    """Twenty-agent variant: random connected graph, heterogeneous sensing,
    constraints known to every other agent."""
    H_types = [[[1.0, 0.0, 0.0, 0.0]], [[0.0, 0.3, 0.0, 0.0]], [[0.0, 1.0, 0.0, 0.0]]]
    sensors = [(H_types[i % 3], i % 2 == 0, delta) for i in range(N)]
    graph_rng = np.random.default_rng(2020)
    for _attempt in range(1000):
        adj = np.triu(graph_rng.random((N, N)) < 0.15, 1).astype(float)
        adj = adj + adj.T
        try:
            W = metropolis_weights(adj)
            break
        except ValueError:
            continue
    else:
        raise RuntimeError("could not draw a connected topology")
    return _vehicle_scenario("case2", sensors, W, T=T, L=L, mode=mode,
                             trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# scenario files, CSV, manifest


def _mat(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _cfg_to_dict(cfg: ScenarioConfig) -> dict:
    m = cfg.model
    d: dict = {
        "name": cfg.name,
        "model": {
            "A": _mat(m.A[0]) if m.time_invariant else [_mat(a) for a in m.A],
            "Q": _mat(m.Q[0]) if m.time_invariant else [_mat(q) for q in m.Q],
            "x0_mean": _mat(m.x0_mean),
            "P0": _mat(m.P0),
        },
        "agents": [{
            "H": _mat(a.H), "R": _mat(a.R),
            "D": _mat(a.D), "d": _mat(a.d),
            "eps": float(a.eps), "delta": float(a.delta),
        } for a in cfg.agents],
        "topology": {"weights": _mat(cfg.topology.weights)},
        "sim": {
            "T": cfg.T, "L": cfg.L, "mode": cfg.mode, "trials": cfg.trials,
            "seed": cfg.seed, "theta": cfg.theta,
            "checkpoints": list(cfg.checkpoints),
        },
    }
    for key in ("x0_hat", "P0_init", "x0_cov", "sim_q"):
        if getattr(cfg, key) is not None:
            d["sim"][key] = _mat(getattr(cfg, key))
    if cfg.sim_r is not None:
        d["sim"]["sim_r"] = [None if r is None else _mat(r) for r in cfg.sim_r]
    return d


def _scenario_text(cfg: ScenarioConfig) -> str:
    return json.dumps(_cfg_to_dict(cfg), sort_keys=True, indent=1) + "\n"


def save_scenario(cfg: ScenarioConfig, path: str) -> str:
    """Write the scenario file as JSON; returns its text, for `write_manifest`."""
    text = _scenario_text(cfg)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _floats(v) -> np.ndarray:
    """A JSON number or nested lists of them as a float array; every entry is
    checked, as `np.asarray` reads a bool or a numeric string as a number."""
    out = np.asarray(v, dtype=float)                     # a ragged list fails here
    for leaf in np.asarray(v, dtype=object).ravel():     # in file order
        if type(leaf) not in (int, float):
            raise TypeError(f"expected a number or a list of numbers, got {leaf!r}")
    return out


def _covariance(v) -> np.ndarray:
    """A covariance as `_floats` reads it; [] is the (0, 0) one of an agent
    without measurement rows."""
    return np.zeros((0, 0)) if v == [] else _floats(v)


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def load_scenario(path: str) -> ScenarioConfig:
    """Read a scenario file written by `save_scenario`.

    Text that is not JSON and every malformed entry, unknown key (`sim.trails`)
    or repeated key raise a ValueError that names the file and the entry
    (`sim.T`, `agents[0].R`) or the section that rejected it.
    """
    bad = f"malformed scenario file {path!r}"

    def unique(pairs) -> dict:
        keys = [key for key, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ValueError(f"{bad}: duplicate key {max(keys, key=keys.count)!r}")
        return dict(pairs)

    with open(path) as fh:
        try:
            raw = json.load(fh, object_pairs_hook=unique)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{bad}: not a mapping")

    def known(sec, where, keys) -> None:
        for key in sec:
            if key not in keys:
                raise ValueError(f"{bad}: {where}{key}: unknown field")

    known(raw, "", ("name", "model", "agents", "topology", "sim"))

    def section(key, default=None):
        val = raw.get(key, default)
        if not isinstance(val, dict):
            raise ValueError(f"{bad}: section {key!r} must be a mapping")
        return val

    def fields(sec, where, converters) -> dict:
        known(sec, f"{where}.", converters)
        out = {}
        for key, convert in converters.items():
            if key in sec:
                try:
                    out[key] = convert(sec[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{bad}: {where}.{key}: {exc}") from exc
        return out

    def build(where, cls, **kwargs):
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{bad}: {where}{exc}") from exc

    md, sim = section("model"), section("sim", {})
    specs = raw.get("agents")
    if not (isinstance(specs, list) and all(isinstance(a, dict) for a in specs)):
        raise ValueError(f"{bad}: section 'agents' must be a list of mappings")
    model = build("model: ", SystemModel, **fields(md, "model", {
        "A": _floats, "Q": _floats, "x0_mean": _floats, "P0": _floats}))
    # no measurement rows: H and R are [], read as the (0, n) and (0, 0) blocks
    agent_fields = {"H": lambda v: np.zeros((0, model.n)) if v == [] else _floats(v),
                    "R": _covariance,
                    # no constraint: D and d absent, null or []
                    "D": lambda v: np.zeros((0, model.n)) if v in (None, []) else _floats(v),
                    "d": lambda v: _floats([] if v is None else v),
                    "eps": _real, "delta": _real}
    agents = [build(f"agents[{i}]: ", AgentSpec, **fields(
                  {"D": None, "d": None, **spec}, f"agents[{i}]", agent_fields))
              for i, spec in enumerate(specs)]
    topo = build("topology: ", Topology,
                 **fields(section("topology"), "topology", {"weights": _floats}))
    matrix, covariance = _optional(_floats), _optional(_covariance)
    run = fields({"T": 250, **sim}, "sim", {
        "T": _integer, "L": _integer, "mode": str, "trials": _integer, "seed": _integer,
        "theta": _real, "x0_hat": matrix, "P0_init": matrix, "x0_cov": matrix,
        "sim_q": matrix, "sim_r": _optional(lambda v: [covariance(r) for r in v]),
        "checkpoints": lambda v: tuple(map(_integer, v))})
    # ScenarioConfig's own messages name the field they reject
    return build("", ScenarioConfig, model=model, agents=agents, topology=topo,
                 name=raw.get("name", "scenario"), **run)


def scenario_hash(cfg: ScenarioConfig | str) -> str:
    """SHA-256 of the scenario file's text; pass the text when it is at hand."""
    text = cfg if isinstance(cfg, str) else _scenario_text(cfg)
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_tables(rm: RunMetrics) -> dict:
    """What metrics.csv and triggers.csv hold: file -> column -> one value per
    row.  The float columns, written with `%.17g`, are exactly those that
    `_require_finite` checks; integer and bool columns are written as integers."""
    steps, N = rm.fired.shape
    return {"metrics.csv": {"step": np.arange(len(rm.mse)), "mse": rm.mse,
                            "trace_p": rm.trace_p, "lambda_running": rm.lambda_running,
                            "max_constraint_residual": rm.constraint_residuals,
                            "mean_error_norm": rm.mean_error_norm},
            "triggers.csv": {"step": np.repeat(np.arange(1, steps + 1), N),
                             "agent": np.tile(np.arange(N), steps), "g": rm.g.ravel(),
                             "fired": rm.fired.ravel()}}


def _require_finite(rm: RunMetrics) -> None:
    """Raise a ValueError naming the earliest non-finite value that
    metrics.csv or triggers.csv would hold: its column and its step."""
    found = [(int(cols["step"][r]), f"{name} column {col!r}"
              + (f" (agent {cols['agent'][r]})" if "agent" in cols else ""))
             for name, cols in _csv_tables(rm).items() for col, v in cols.items()
             if v.dtype.kind == "f" for r in np.flatnonzero(~np.isfinite(v))[:1]]
    if found:
        k, column = min(found, key=lambda kc: kc[0])
        raise ValueError(f"the run diverged: {column} is not finite at step {k}")


def _write_csv(path: str, cols: dict) -> None:
    """The columns as CSV rows, formatted by one `%` over the whole block."""
    row = ",".join("%.17g" if v.dtype.kind == "f" else "%d" for v in cols.values()) + "\n"
    values = [v.tolist() for v in cols.values()]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.write(row * len(values[0]) % tuple(chain.from_iterable(zip(*values))))


def write_metrics_csv(path: str, rm: RunMetrics) -> None:
    _write_csv(path, _csv_tables(rm)["metrics.csv"])


def write_triggers_csv(path: str, rm: RunMetrics) -> None:
    _write_csv(path, _csv_tables(rm)["triggers.csv"])


def write_manifest(path: str, cfg: ScenarioConfig, overrides: dict | None = None,
                   scenario_text: str | None = None) -> None:
    import importlib.metadata
    import scipy                        # the top-level package only: ~13 ms

    try:
        pkg_version = importlib.metadata.version("pdkf")
    except importlib.metadata.PackageNotFoundError:
        pkg_version = "unknown"
    manifest = {
        "scenario": cfg.name,
        "scenario_sha256": scenario_hash(scenario_text or cfg),
        "seed": cfg.seed,
        "trials": cfg.trials,
        "mode": cfg.mode,
        "overrides": overrides or {},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "pdkf": pkg_version,
        },
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
