"""Offline design and verification tools.

Contents:
  * windowed collective-observability Gramian including constraint rows
    (`eco_check`),
  * contraction factors relating predicted and prior information
    (`compute_beta`, `compute_beta_bar`),
  * triggering-threshold design bounds (`threshold_bounds`),
  * constraint-subspace coordinates (`space_decomposition`, `constraint_error`),
  * worst-case information recursions under successive triggering / silence,
    built in one pass over t as stacked (T+1, N, n, n) tables
    (`_rate_tables`) whose neighbour sums run over the real in-edges only,
    and the communication-rate bound (`rate_bound`), which reads every
    agent's T1 and T2 off the tables from the ends of the horizon, in chunks
    of doubling length tested on the stack of the open agents (`_scan_agents`).

Everything here is a pure function of the model/topology; nothing simulates.
pdkf computes with scipy only here: the generalized symmetric eigenproblems
of β, β̄ and the threshold bounds (`_eigh_pencil`) import `scipy.linalg` on
their first call, so `import pdkf` and the filters load none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .event import _grouped, step_layout
from .filter import slot_sum, symmetrize
from .model import (AgentSpec, SystemModel, Topology, _check_covariance, _check_square,
                    _check_symmetric, _integer, _real, matrix_rank)

_OBS_TOL = 1e-10


# ---------------------------------------------------------------------------
# reports


@dataclass
class EcoReport:
    N_bar: int
    gramian: np.ndarray
    alpha: float
    gramian_without_constraints: np.ndarray
    alpha_without_constraints: float
    observable_with_constraints: bool
    observable_without_constraints: bool


@dataclass
class ThresholdReport:
    beta: float
    kstar: int
    M: np.ndarray             # (N, N, n, n): M[i, j]
    Mbar: np.ndarray          # (N, n, n)
    per_agent_bound: np.ndarray
    network_bound: float
    mbar_positive: np.ndarray  # (N,) bool


@dataclass
class RateReport:
    delta: float
    horizon: int
    beta: float
    beta_bar: float
    T1: list = field(default_factory=list)   # per agent: int or None (unbounded)
    T2: list = field(default_factory=list)   # per agent: int or None (infeasible)
    condition1_ok: list = field(default_factory=list)
    condition2_ok: list = field(default_factory=list)
    V1: list = field(default_factory=list)
    lambda0: float | None = None
    lambda0_asymptotic: float | None = None
    status: str = "ok"


# ---------------------------------------------------------------------------
# observability


def eco_check(model: SystemModel, agents: list[AgentSpec], N_bar: int,
              k0: int = 0) -> EcoReport:
    """Windowed observability Gramian with and without constraint rows.

    Accumulates Φᵀ(Σ HᵀR⁻¹H + Σ DᵀD)Φ over the window [k0, k0+N_bar] with Φ
    the state transition product; alpha is its smallest eigenvalue.  The
    constraint-free variant distinguishes the extended condition from the
    classical one.  N_bar and k0 go through `model._integer` (≥ 0).
    """
    N_bar, k0 = _integer(N_bar, "N_bar", 0), _integer(k0, "k0", 0)
    n = model.n
    info_y, info_d = (blocks.sum(axis=0) for blocks in _info_blocks(model, agents))
    G, G0, Phi = np.zeros((n, n)), np.zeros((n, n)), np.eye(n)
    for j in range(k0, k0 + N_bar + 1):
        G += Phi.T @ (info_y + info_d) @ Phi
        G0 += Phi.T @ info_y @ Phi
        Phi = model.A_at(j) @ Phi
    G, G0 = symmetrize(G), symmetrize(G0)
    alpha, alpha0 = (float(np.linalg.eigvalsh(M).min()) for M in (G, G0))
    return EcoReport(N_bar=N_bar, gramian=G, alpha=alpha,
                     gramian_without_constraints=G0, alpha_without_constraints=alpha0,
                     observable_with_constraints=alpha > _OBS_TOL,
                     observable_without_constraints=alpha0 > _OBS_TOL)


# ---------------------------------------------------------------------------
# contraction factors


def _eigh_pencil(X, Y) -> np.ndarray:
    """Eigenvalues of the symmetric-definite pencil (X, Y), ascending.

    scipy.linalg is imported here, on the first design call, so that
    `import pdkf` and the filters never load it.  It stays scipy: reducing
    the pencil in numpy (Cholesky of Y, then eigvalsh of L⁻¹XL⁻ᵀ) moved the
    per-agent threshold bounds of case2 N=60 by up to 5e-6 relative, far
    above the last-bit agreement the design outputs are held to.
    """
    import scipy.linalg
    return scipy.linalg.eigh(X, Y, eigvals_only=True)


def _prediction_spectrum(P_ref, A, Q) -> np.ndarray:
    """Eigenvalues of X(X+Q)⁻¹, X = A·P_ref·Aᵀ (all in [0, 1]); A finite and square
    (`model._check_square`), Q PSD, P_ref PD."""
    A = _check_square(A, "A", len(np.atleast_1d(A)))
    Q = symmetrize(_check_covariance(Q, "Q", len(A)))
    P_ref = symmetrize(_check_covariance(P_ref, "P_ref", len(A), definite=True))
    X = symmetrize(A @ P_ref @ A.T)
    return _eigh_pencil(X, X + Q)


def compute_beta(P_lo, A, Q) -> float:
    """Information contraction factor of one prediction step.

    Returns β = λ_min((A·P_lo·Aᵀ)(A·P_lo·Aᵀ + Q)⁻¹) clamped into
    (1e-6, 1 - 1e-6).  The inequality (A P Aᵀ + Q)⁻¹ ⪰ β·A⁻ᵀP⁻¹A⁻¹ then holds
    for every parameter matrix P ⪰ P_lo, so P_lo should be a *lower* bound on
    the matrices encountered (e.g. the smallest eigenvalue seen in a pilot
    run, times identity).  Q and P_lo are checked as `_prediction_spectrum`'s.
    """
    lam = float(_prediction_spectrum(P_lo, A, Q).min())
    return float(np.clip(lam, 1e-6, 1.0 - 1e-6))


def compute_beta_bar(P_hi, A, Q) -> float:
    """Expansion counterpart of `compute_beta`.

    Returns β̄ = λ_max((A·P_hi·Aᵀ)(A·P_hi·Aᵀ + Q)⁻¹) clamped into
    (1e-6, 1 - 1e-6), Q and P_hi checked as in `compute_beta`;
    (A P Aᵀ + Q)⁻¹ ⪯ β̄·A⁻ᵀP⁻¹A⁻¹ holds for every P ⪯ P_hi.
    """
    lam = float(_prediction_spectrum(P_hi, A, Q).max())
    return float(np.clip(lam, 1e-6, 1.0 - 1e-6))


def pilot_contraction_factors(P_mats, A, Q) -> tuple[float, float]:
    """(β, β̄) from a collection of parameter matrices seen in a pilot run.

    Feeds c_lo·I / c_hi·I with the extreme eigenvalues over the collection to
    compute_beta / compute_beta_bar so both inequalities cover the whole run.
    """
    eigs = np.linalg.eigvalsh(symmetrize(np.asarray(P_mats, dtype=float)))
    c_lo, c_hi = float(eigs.min()), float(eigs.max())
    if c_lo <= 0:
        raise ValueError("pilot matrices must be positive definite")
    n = len(np.atleast_1d(A))     # checked as `_prediction_spectrum` checks it
    return (compute_beta(c_lo * np.eye(n), A, Q),
            compute_beta_bar(c_hi * np.eye(n), A, Q))


# ---------------------------------------------------------------------------
# threshold design


def threshold_bounds(model: SystemModel, agents: list[AgentSpec],
                     topology: Topology, beta: float, kstar: int) -> ThresholdReport:
    """Uniform trigger-threshold upper bounds that keep the filter bounded.

    M[i, j] = Σ_{τ=1..k*} β^{τ-1} a_{ij,τ} (A^{1-τ})ᵀ A^{1-τ} and Mbar_i adds
    the measurement/constraint information along the same weighting; the
    per-agent admissible uniform threshold is λ_min(M_i^{-1/2} Mbar_i
    M_i^{-1/2}) with M_i = Σ_j M[i, j], and the network bound is the minimum
    over agents.  Each term is formed with `_scaled`, as the rate tables'
    are, so a term whose unscaled product (A^{1-τ})ᵀA^{1-τ} overflows is
    still summed; where M or Mbar is not finite even so, a ValueError names
    the first τ at which it is not.  M̄ sums over j in index order, by one sum
    over the leading axis of a C-ordered (N, N, n, n) block, bit for bit
    `slot_sum` on the complete slot list; kstar is an integer
    (`model._integer`) ≥ N + n, and β a real in (0, 1) (`model._real`).
    """
    if not model.time_invariant:
        raise ValueError("threshold design requires a time-invariant model")
    beta = _real(beta, "beta", "unit")
    N, n = topology.N, model.n
    kstar = _integer(kstar, "kstar")
    if kstar < N + n:
        raise ValueError(f"kstar must be at least N + n = {N + n} for the information "
                         f"sum to be provably positive definite; got {kstar}")
    A = model.A_at(0)
    Ainv = np.linalg.inv(A)
    info_y, info_d = _design_blocks(model, agents, topology)

    M = np.zeros((N, N, n, n))
    Mbar = np.zeros((N, n, n))
    A_pow = np.eye(n)                  # A^{1-τ}, starting at τ = 1
    W_pow = topology.weights.copy()    # 𝒜^τ, starting at τ = 1
    W_prev = np.eye(N)                 # 𝒜^{τ-1}
    coef = 1.0                         # β^{τ-1}
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        for tau in range(1, kstar + 1):
            M += _scaled(coef * W_pow, A_pow)
            # j leads per_j in memory, so numpy sums over it in index order
            per_j = (np.ascontiguousarray(W_pow.T)[:, :, None, None] * info_y[:, None]
                     + np.ascontiguousarray(W_prev.T)[:, :, None, None] * info_d[:, None])
            Mbar += _scaled(coef, A_pow, per_j.sum(axis=0))
            bad = [name for name, X in (("M", M), ("Mbar", Mbar)) if not np.isfinite(X).all()]
            if bad:
                raise ValueError(f"the threshold sums overflow: {' and '.join(bad)} not "
                                 f"finite at tau {tau}; try a smaller kstar")
            A_pow = A_pow @ Ainv
            W_prev = W_pow
            W_pow = W_pow @ topology.weights
            coef *= beta

    M_sum, Mbar_sym = symmetrize(M.sum(axis=1)), symmetrize(Mbar)
    mbar_pos = np.linalg.eigvalsh(Mbar_sym)[:, 0] > 0          # ascending
    per_agent = np.array([max(float(_eigh_pencil(Mb, Ms).min()), 0.0)
                          for Mb, Ms in zip(Mbar_sym, M_sum)])
    return ThresholdReport(beta=beta, kstar=kstar, M=M, Mbar=Mbar,
                           per_agent_bound=per_agent, mbar_positive=mbar_pos,
                           network_bound=float(per_agent.min()))


# ---------------------------------------------------------------------------
# constraint-subspace coordinates


def space_decomposition(Dbar) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal change of basis isolating the constrained directions.

    Returns (F, Dtilde) with F = [null-space basis | row-space basis] so that
    Dbar·F = [0 | Dtilde] and Dtilde is square nonsingular.  Column signs are
    canonicalized for determinism.
    """
    Dbar = np.asarray(getattr(Dbar, "Dbar", Dbar), dtype=float)
    s_bar, n = Dbar.shape
    if matrix_rank(Dbar) < s_bar:
        raise ValueError("Dbar must have full row rank")
    _, _, Vt = np.linalg.svd(Dbar, full_matrices=True)
    V = Vt.T
    for c in range(n):  # sign convention: largest-|entry| component positive
        idx = int(np.argmax(np.abs(V[:, c])))
        if V[idx, c] < 0:
            V[:, c] = -V[:, c]
    F = np.hstack([V[:, s_bar:], V[:, :s_bar]])
    Dtilde = Dbar @ V[:, :s_bar]
    return F, Dtilde


def constraint_error(x_hat, x, F, s_bar: int) -> np.ndarray:
    """Estimation-error components along the constrained directions.

    The last s_bar coordinates of F⁻¹(x̂ − x) = Fᵀ(x̂ − x) (F is orthonormal);
    x̂ and x may be (n,) vectors or (n, trials) blocks.
    """
    diff = np.asarray(x_hat, dtype=float) - np.asarray(x, dtype=float)
    return (F.T @ diff)[F.shape[1] - s_bar:]


# ---------------------------------------------------------------------------
# worst-case information recursions


def eig_pos(M) -> np.ndarray:
    """Positive part V·diag(max(λ, 0))·Vᵀ ⪰ M of a symmetric matrix, or of each
    matrix of a stack, from the symmetric part that `_check_symmetric` returns."""
    w, V = np.linalg.eigh(_check_symmetric(np.asarray(M, dtype=float), "eig_pos's matrix"))
    return (V * np.maximum(w, 0.0)[..., None, :]) @ V.swapaxes(-1, -2)


def _info_blocks(model, agents):
    """(N, n, n) stacks of H_iᵀR_i⁻¹H_i and D_iᵀD_i (zero where absent), each
    formed once per shape group (`event._grouped`) by one stacked solve and
    one product; the design recursions weigh D_iᵀD_i by 1/ε_i."""
    info_y, info_d = np.zeros((2, len(agents), model.n, model.n))
    for idx, H, R in _grouped([(a.H, a.R) if a.has_measurement else None for a in agents]):
        info_y[idx] = H.swapaxes(-1, -2) @ np.linalg.solve(R, H)
    for idx, D in _grouped([(a.D,) if a.has_constraint else None for a in agents]):
        info_d[idx] = D.swapaxes(-1, -2) @ D
    return info_y, info_d


def _design_blocks(model, agents, topology):
    """`_info_blocks` of one agent per node of the topology ("agents has 2
    entries for 3 agents"), D_iᵀD_i weighed by 1/ε_i, as the design reads them."""
    if len(agents) != topology.N:
        raise ValueError(f"agents has {len(agents)} entries for {topology.N} agents")
    info_y, info_d = _info_blocks(model, agents)
    return info_y, info_d / np.reshape([a.eps for a in agents], (-1, 1, 1))


class _RateTables(NamedTuple):
    f: np.ndarray          # (T+1, N, n, n) view of the tables' (T+1, N, 2, n, n) block
    zbar: np.ndarray       # (T+1, N, n, n) view of the same block
    S: np.ndarray          # (T+1, n, n)
    beta_pow: np.ndarray   # (T+1,): β^τ for τ = 1..T+1
    Ainv_pow: np.ndarray   # (T+1, n, n): A^{-τ} for τ = 1..T+1
    info_y: np.ndarray     # (N, n, n)


def _scaled(scale, M, X=None) -> np.ndarray:
    """scale·MᵀXM for each term of a stack, X the identity where None;
    scale, M and X broadcast against each other over the leading axes (one
    scale per step, or per agent pair).  A finite term keeps the bits of the
    product formed unscaled, then scaled.  Where that overflows, as
    (A^{-τ})ᵀA^{-τ} does before β^τ brings it back into range, the term is
    formed again as (√scale·M)ᵀX(√scale·M), with the operands broadcast to
    the terms' shape only there.  A term still not finite is left so, for
    the caller to report."""
    def form(M, X):
        return M.swapaxes(-1, -2) @ M if X is None else M.swapaxes(-1, -2) @ X @ M

    s = np.asarray(scale, dtype=float)[..., None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = s * form(M, X)
        big = ~np.isfinite(terms).all(axis=(-2, -1))
        if big.any():
            def at(Y):      # the members of Y, broadcast to the terms, at big
                return np.broadcast_to(Y, big.shape + np.shape(Y)[-2:])[big]

            terms[big] = form(np.sqrt(at(s)) * at(M), None if X is None else at(X))
    return terms


def _rate_tables(T: int, model: SystemModel, agents, topology: Topology,
                 beta: float, beta_bar: float) -> _RateTables:
    """Worst-case information recursions of the rate analysis, one pass over t.

    f[t, i] bounds agent i's post-update information after t steps from
    above: seed Q⁻¹ + H_iᵀR_i⁻¹H_i; step β̄·A⁻ᵀ(Σ_j a_ij f_j + D_iᵀD_i/ε_i)A⁻¹
    plus the own measurement information.  zbar[t, i] is the threshold-free
    lower bound on the extrapolated information after t silent steps (zero at
    t = 0); at threshold δ the bound is zbar[t, i] − δ·S[t], with
    S[t] = Σ_{τ=2..t} β^τ (A^{-τ})ᵀ A^{-τ} (zero for t < 2).  The running
    powers (β^τ, A^{-τ}) feed both S and the silence test of `_scan_agents`.
    Σ_j a_ij runs over agent i's in-edges in neighbour order (the filters'
    step layout and `slot_sum`), bit for bit a loop over its neighbours.
    f and u, the lower bound on the updated information, advance into one
    (T+1, N, 2, n, n) block; after the loop z̄_t = β·A⁻ᵀu_{t−1}A⁻¹ is formed
    16 steps at a time, from the top down, over u_t.
    Raises a ValueError naming the first step at which f, z̄ or S is not
    finite: the scans cannot read T1 or T2 off such tables.  The seed inverts
    Q, so Q must be positive definite (`model._check_covariance`), not only
    semidefinite as `SystemModel` takes it: "Q must be positive definite".
    """
    beta, beta_bar = _real(beta, "beta", "unit"), _real(beta_bar, "beta_bar", "unit")
    N, n = topology.N, model.n
    Ainv = np.linalg.inv(model.A_at(0))
    Qinv = np.linalg.inv(_check_covariance(model.Q_at(0), "Q", n, definite=True))
    info_y, info_d = _design_blocks(model, agents, topology)
    layout = step_layout(agents, topology)
    weights = layout.weights[:, None, None, None]

    def nbr_sum(X):
        return slot_sum(weights * X[layout.src], layout.slots[0])[layout.rank]

    beta_pow = np.empty(T + 1)
    Ainv_pow = np.empty((T + 1, n, n))
    S = np.zeros((T + 1, n, n))
    fu = np.empty((T + 1, N, 2, n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        beta_pow[0], Ainv_pow[0] = beta, Ainv
        for tau in range(1, T + 1):
            beta_pow[tau] = beta_pow[tau - 1] * beta
            Ainv_pow[tau] = Ainv_pow[tau - 1] @ Ainv
        S[2:] = symmetrize(np.cumsum(_scaled(beta_pow[1:T], Ainv_pow[1:T]), axis=0))
        scale = np.array([beta_bar, beta])[:, None, None]
        fu[0] = np.stack([symmetrize(Qinv + info_y), info_y], axis=1)
        for t in range(1, T + 1):
            fu[t] = symmetrize(scale * (Ainv.T @ (nbr_sum(fu[t - 1]) + info_d[:, None]) @ Ainv)
                               + info_y[:, None])
        for b in range(T + 1, 1, -16):      # top down: u below b is still in place
            a = max(1, b - 16)
            fu[a:b, :, 1] = symmetrize(beta * (Ainv.T @ fu[a - 1:b - 1, :, 1] @ Ainv))
        fu[0, :, 1] = 0.0
    f, zbar = fu[:, :, 0], fu[:, :, 1]
    ok = {name: np.isfinite(X).reshape(T + 1, -1).all(axis=1)
          for name, X in (("f", f), ("zbar", zbar), ("S", S))}
    first = {name: int(steps.argmin()) for name, steps in ok.items() if not steps.all()}
    if first:
        t = min(first.values())
        names = " and ".join(name for name, at in first.items() if at == t)
        raise ValueError(f"the rate tables overflow: {names} not finite from "
                         f"step {t} of the horizon; try a shorter one")
    return _RateTables(f, zbar, S, beta_pow, Ainv_pow, info_y)


def _scan_agents(tables: _RateTables, delta: float) -> tuple[list, list]:
    """(T1, T2) at threshold δ: two lists with each agent's int ≤ T or None.

    T1 is the largest t at which successive triggering cannot yet be
    excluded: the necessary condition λ_max(f_t − [z̄_t + δ(I − S_t)]₊) > 0
    for a run of consecutive broadcasts holds there (a hit).  It is None
    when every t ≤ T hits (no finite bound), and 0 when none does
    (triggering excluded outright).  T2 is the largest t such that silence
    is guaranteed at every step up to t (prefix semantics): the sufficient
    condition λ_max(f_s − β^{s+1}(A^{-(s+1)})ᵀH_iᵀR_i⁻¹H_i A^{-(s+1)}) ≤ δ
    must hold for every s ≤ t.  It is None when not even one silent step is
    guaranteed.

    Both are read from the ends of the horizon, on chunks of 8, 16, 32, …
    steps from that end: T2 from the first failing step, T1 from the last
    hit, and only when that hit is at T from the first step that does not
    hit.  Each chunk is tested at once for every agent whose answer is still
    open, by one `eig_pos` and one `eigvalsh` over the (steps × open agents)
    stack, and each agent keeps the answer of its own first chunk that
    settles it.  The answers are those of a scan over every t, because each
    matrix gets the same stacked call and LAPACK treats each matrix of a
    stack on its own.  `eig_pos`'s symmetry guard sees only the matrices
    scanned; it cannot fire on the others, which are exactly symmetric by
    construction (z̄ and S are symmetrized, and the correction is
    elementwise).  The silence term is formed with `_scaled`, as S is; a
    test's term that is not finite even so raises the tables' ValueError,
    naming it, the step and δ, so that no answer is read off an overflow.
    """
    T, N = len(tables.S) - 1, tables.f.shape[1]
    eye = np.eye(tables.S.shape[-1])

    def finite(X, a, what):
        bad = np.flatnonzero(~np.isfinite(X).all(axis=(-3, -2, -1)))
        if bad.size:
            raise ValueError(f"the rate tables overflow: {what} not finite at step "
                             f"{a + bad[0]} for delta {delta:.6g}; try a shorter horizon")
        return X

    def hit(a, b, idx):
        with np.errstate(over="ignore", invalid="ignore"):
            corr = finite(tables.zbar[a:b, idx] + delta * (eye - tables.S[a:b, None]), a,
                          "zbar + delta*(I - S)")
        return np.linalg.eigvalsh(tables.f[a:b, idx] - eig_pos(corr)).max(axis=-1) > 0.0

    def fails(a, b, idx):
        with np.errstate(over="ignore", invalid="ignore"):
            l = tables.f[a:b, idx] - _scaled(tables.beta_pow[a:b, None],
                                             tables.Ainv_pow[a:b, None], tables.info_y[idx])
        return np.linalg.eigvalsh(finite(l, a, "the silence term")).max(axis=-1) - delta > 0.0

    def first(test, idx, last=False):
        """Per agent of idx, the first t ≤ T (the last, if `last`) at which the
        (steps, agents) test(a, b, idx) over t ∈ [a, b) holds, or -1."""
        at, todo = np.full(len(idx), -1), np.arange(len(idx))
        lo, hi, size = 0, T + 1, 8
        while lo < hi and todo.size:
            a, b = (max(lo, hi - size), hi) if last else (lo, min(hi, lo + size))
            held = test(a, b, idx[todo])
            row = len(held) - 1 - held[::-1].argmax(axis=0) if last else held.argmax(axis=0)
            done = held.any(axis=0)
            at[todo[done]] = a + row[done]
            todo = todo[~done]
            lo, hi, size = (lo, a, 2 * size) if last else (b, hi, 2 * size)
        return at

    agents = np.arange(N)
    last_hit = first(hit, agents, last=True)
    top = agents[last_hit == T]
    unbounded = np.isin(agents, top[first(lambda a, b, idx: ~hit(a, b, idx), top) < 0])
    fail = first(fails, agents)
    return ([None if u else max(int(t), 0) for t, u in zip(last_hit, unbounded)],
            [T if t < 0 else int(t) - 1 if t > 0 else None for t in fail])


def rate_bound(delta: float, model: SystemModel, agents: list[AgentSpec],
               topology: Topology, T: int, beta: float, beta_bar: float) -> RateReport:
    """Upper bound on the measured communication rate at a uniform threshold.

    For each agent with a bounded triggering-run length T1 and a guaranteed
    silent prefix T2, credits T2 silent steps per cycle of length T1 + T2:
    λ0 = 1 − Σ_{V1} T2·⌊T/(T1+T2)⌋·outdeg / (T·Σ outdeg).
    δ goes through `model._real` (finite, ≥ 0) and T through `model._integer`
    (≥ 1); `_rate_tables` takes β and β̄ through `model._real` (in (0, 1)).
    """
    if not model.time_invariant:
        raise ValueError("rate analysis requires a time-invariant model")
    delta, T = _real(delta, "delta", "nonnegative"), _integer(T, "T", 1)
    tables = _rate_tables(T, model, agents, topology, beta, beta_bar)

    report = RateReport(delta=delta, horizon=T, beta=beta, beta_bar=beta_bar)
    report.T1, report.T2 = _scan_agents(tables, delta)
    t1, t2 = (np.array([-1 if t is None else t for t in ts]) for ts in (report.T1, report.T2))
    # condition 1, λ_max(S[T1]) ≤ 1 + 1e-12, for every agent; S[0] = S[1] = 0
    lam = np.linalg.eigvalsh(tables.S[np.maximum(t1, 0)]).max(axis=-1)
    cond1, cond2 = (t1 >= 0) & (lam <= 1.0 + 1e-12), (t1 >= 0) & (t2 >= 0)
    report.condition1_ok, report.condition2_ok = cond1.tolist(), cond2.tolist()
    report.V1 = np.flatnonzero(cond1 & cond2).tolist()

    # each agent's out-neighbors, itself excluded: a column sum of the edges
    out_deg = (topology.edges.sum(axis=0) - topology.edges.diagonal()).astype(float)
    total = out_deg.sum()
    if not report.V1 or total == 0:
        report.status = "no bound available"
        return report

    # Any prefix of the guaranteed silent run is also a valid certificate, so
    # cap T2 at T - T1 (≥ 0, as T1 ≤ T) to stay in the admissible range; an
    # agent left with no silent step credits nothing.
    v = np.array(report.V1)
    silent = np.minimum(t2[v], T - t1[v])
    v, silent = v[silent > 0], silent[silent > 0]
    cycle = t1[v] + silent
    # the credits are whole numbers, which sum exactly in any order; the
    # asymptotic shares are added in agent order, a running sum from 0.0
    credited = (silent * (T // cycle) * out_deg[v]).sum()
    asympt = np.cumsum(np.append(0.0, silent / cycle * out_deg[v]))[-1]
    report.lambda0 = float(1.0 - credited / (T * total))
    report.lambda0_asymptotic = float(1.0 - asympt / total)
    return report
