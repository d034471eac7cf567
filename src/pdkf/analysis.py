"""Offline design and verification tools.

Contents:
  * windowed collective-observability Gramian including constraint rows
    (`eco_check`),
  * contraction factors relating predicted and prior information
    (`compute_beta`, `compute_beta_bar`),
  * triggering-threshold design bounds (`threshold_bounds`),
  * constraint-subspace coordinates (`space_decomposition`, `constraint_error`),
  * worst-case information recursions under successive triggering / silence
    (`f_upper`, `z_lower`) and the communication-rate bound built on them
    (`solve_T1`, `solve_T2`, `rate_bound`).

Everything here is a pure function of the model/topology; nothing simulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .model import AgentSpec, SystemModel, Topology, matrix_rank

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
    monotone_check: bool | None = None


# ---------------------------------------------------------------------------
# observability


def eco_check(model: SystemModel, agents: list[AgentSpec], N_bar: int,
              k0: int = 0) -> EcoReport:
    """Windowed observability Gramian with and without constraint rows.

    Accumulates Φᵀ(Σ HᵀR⁻¹H + Σ DᵀD)Φ over the window [k0, k0+N_bar] with Φ
    the state transition product; alpha is its smallest eigenvalue.  The
    constraint-free variant distinguishes the extended condition from the
    classical one.
    """
    if N_bar < 0:
        raise ValueError("window length must be nonnegative")
    n = model.n
    info_y = np.zeros((n, n))
    info_d = np.zeros((n, n))
    for a in agents:
        if a.has_measurement:
            info_y += a.H.T @ np.linalg.solve(a.R, a.H)
        if a.has_constraint:
            info_d += a.D.T @ a.D
    G = np.zeros((n, n))
    G0 = np.zeros((n, n))
    Phi = np.eye(n)
    for j in range(k0, k0 + N_bar + 1):
        G += Phi.T @ (info_y + info_d) @ Phi
        G0 += Phi.T @ info_y @ Phi
        Phi = model.A_at(j) @ Phi
    G = 0.5 * (G + G.T)
    G0 = 0.5 * (G0 + G0.T)
    alpha = float(np.linalg.eigvalsh(G).min())
    alpha0 = float(np.linalg.eigvalsh(G0).min())
    return EcoReport(
        N_bar=N_bar,
        gramian=G,
        alpha=alpha,
        gramian_without_constraints=G0,
        alpha_without_constraints=alpha0,
        observable_with_constraints=alpha > _OBS_TOL,
        observable_without_constraints=alpha0 > _OBS_TOL,
    )


# ---------------------------------------------------------------------------
# contraction factors


def _pd_check(M: np.ndarray, name: str) -> np.ndarray:
    M = 0.5 * (M + M.T)
    if M.size and np.linalg.eigvalsh(M).min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    return M


def _prediction_spectrum(P_ref, A, Q) -> np.ndarray:
    """Eigenvalues of X(X+Q)⁻¹ with X = A·P_ref·Aᵀ (all lie in [0, 1])."""
    A = np.asarray(A, dtype=float)
    Q = 0.5 * (np.asarray(Q, dtype=float) + np.asarray(Q, dtype=float).T)
    X = A @ _pd_check(np.asarray(P_ref, dtype=float), "P_ref") @ A.T
    X = 0.5 * (X + X.T)
    return scipy.linalg.eigh(X, X + Q, eigvals_only=True)


def compute_beta(P_lo, A, Q) -> float:
    """Information contraction factor of one prediction step.

    Returns β = λ_min((A·P_lo·Aᵀ)(A·P_lo·Aᵀ + Q)⁻¹) clamped into
    (1e-6, 1 - 1e-6).  The inequality (A P Aᵀ + Q)⁻¹ ⪰ β·A⁻ᵀP⁻¹A⁻¹ then holds
    for every parameter matrix P ⪰ P_lo, so P_lo should be a *lower* bound on
    the matrices encountered (e.g. the smallest eigenvalue seen in a pilot
    run, times identity).
    """
    lam = float(_prediction_spectrum(P_lo, A, Q).min())
    return float(np.clip(lam, 1e-6, 1.0 - 1e-6))


def compute_beta_bar(P_hi, A, Q) -> float:
    """Expansion counterpart of `compute_beta`.

    Returns β̄ = λ_max((A·P_hi·Aᵀ)(A·P_hi·Aᵀ + Q)⁻¹) clamped into
    (1e-6, 1 - 1e-6); (A P Aᵀ + Q)⁻¹ ⪯ β̄·A⁻ᵀP⁻¹A⁻¹ holds for every P ⪯ P_hi.
    """
    lam = float(_prediction_spectrum(P_hi, A, Q).max())
    return float(np.clip(lam, 1e-6, 1.0 - 1e-6))


def pilot_contraction_factors(P_mats, A, Q) -> tuple[float, float]:
    """(β, β̄) from a collection of parameter matrices seen in a pilot run.

    Feeds c_lo·I / c_hi·I with the extreme eigenvalues over the collection to
    compute_beta / compute_beta_bar so both inequalities cover the whole run.
    """
    c_lo = min(float(np.linalg.eigvalsh(0.5 * (P + P.T)).min()) for P in P_mats)
    c_hi = max(float(np.linalg.eigvalsh(0.5 * (P + P.T)).max()) for P in P_mats)
    if c_lo <= 0:
        raise ValueError("pilot matrices must be positive definite")
    n = np.asarray(A).shape[0]
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
    over agents.
    """
    if not model.time_invariant:
        raise ValueError("threshold design requires a time-invariant model")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    N, n = topology.N, model.n
    if kstar < N + n:
        raise ValueError(
            f"kstar must be at least N + n = {N + n} for the information sum "
            "to be provably positive definite; got "
            f"{kstar}"
        )
    A = model.A_at(0)
    Ainv = np.linalg.inv(A)
    info_y, info_d = _info_blocks(model, agents)

    M = np.zeros((N, N, n, n))
    Mbar = np.zeros((N, n, n))
    A_pow = np.eye(n)                  # A^{1-τ}, starting at τ = 1
    W_pow = topology.weights.copy()    # 𝒜^τ, starting at τ = 1
    W_prev = np.eye(N)                 # 𝒜^{τ-1}
    coef = 1.0                         # β^{τ-1}
    for _tau in range(1, kstar + 1):
        G = A_pow.T @ A_pow
        for i in range(N):
            mid = np.zeros((n, n))
            for j in range(N):
                M[i, j] += coef * W_pow[i, j] * G
                mid += W_pow[i, j] * info_y[j] + W_prev[i, j] * info_d[j]
            Mbar[i] += coef * (A_pow.T @ mid @ A_pow)
        A_pow = A_pow @ Ainv
        W_prev = W_pow
        W_pow = W_pow @ topology.weights
        coef *= beta

    per_agent = np.zeros(N)
    mbar_pos = np.zeros(N, dtype=bool)
    for i in range(N):
        Mi = 0.5 * (M[i].sum(axis=0) + M[i].sum(axis=0).T)
        Mbari = 0.5 * (Mbar[i] + Mbar[i].T)
        mbar_pos[i] = bool(np.linalg.eigvalsh(Mbari).min() > 0)
        lam = scipy.linalg.eigh(Mbari, Mi, eigvals_only=True).min()
        per_agent[i] = max(float(lam), 0.0)
    return ThresholdReport(
        beta=beta, kstar=kstar, M=M, Mbar=Mbar,
        per_agent_bound=per_agent,
        network_bound=float(per_agent.min()) if N else 0.0,
        mbar_positive=mbar_pos,
    )


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

    The last s_bar coordinates of F⁻¹(x̂ − x).
    """
    diff = np.asarray(x_hat, dtype=float).ravel() - np.asarray(x, dtype=float).ravel()
    e = np.linalg.solve(F, diff)
    return e[e.size - s_bar:] if s_bar > 0 else np.zeros(0)


# ---------------------------------------------------------------------------
# worst-case information recursions


def eig_pos(M) -> np.ndarray:
    """Positive part of a symmetric matrix: V·diag(max(λ, 0))·Vᵀ ⪰ M."""
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-8 * scale:
        raise ValueError("eig_pos requires a symmetric matrix")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.maximum(w, 0.0)) @ V.T


def _info_blocks(model, agents):
    n = model.n
    info_y = [a.H.T @ np.linalg.solve(a.R, a.H) if a.has_measurement
              else np.zeros((n, n)) for a in agents]
    info_d = [(a.D.T @ a.D) / a.eps if a.has_constraint else np.zeros((n, n))
              for a in agents]
    return info_y, info_d


def _f_table(t_max: int, model: SystemModel, agents, topology: Topology,
             beta_bar: float) -> list[list[np.ndarray]]:
    """f[t][i]: upper bound on the post-update information after t steps.

    Seed: Q⁻¹ + H_iᵀR_i⁻¹H_i.  Step: conjugate the weighted neighborhood sum
    plus the projection information through β̄·A⁻ᵀ(·)A⁻¹ and re-add the own
    measurement information.
    """
    A = model.A_at(0)
    Ainv = np.linalg.inv(A)
    Qinv = np.linalg.inv(model.Q_at(0))
    W = topology.weights
    info_y, info_d = _info_blocks(model, agents)
    N = topology.N
    table = [[0.5 * ((Qinv + info_y[i]) + (Qinv + info_y[i]).T) for i in range(N)]]
    for _s in range(1, t_max + 1):
        prev = table[-1]
        cur = []
        for i in range(N):
            acc = np.zeros_like(Qinv)
            for j in range(N):
                if W[i, j] > 0:
                    acc += W[i, j] * prev[j]
            f = beta_bar * (Ainv.T @ (acc + info_d[i]) @ Ainv) + info_y[i]
            cur.append(0.5 * (f + f.T))
        table.append(cur)
    return table


def _zbar_table(t_max: int, model: SystemModel, agents, topology: Topology,
                beta: float, delta: float = 0.0) -> list[list[np.ndarray]]:
    """z[t][i]: lower bound on the extrapolated information after t silent steps.

    With delta = 0 this is the threshold-free part; the full bound is obtained
    from it by the separable delta correction (`delta_correction`).
    """
    A = model.A_at(0)
    Ainv = np.linalg.inv(A)
    n = model.n
    W = topology.weights
    info_y, info_d = _info_blocks(model, agents)
    N = topology.N
    u = [info_y[i].copy() for i in range(N)]           # bound on updated info
    z: list[list[np.ndarray]] = [[np.zeros((n, n)) for _ in range(N)]]
    for t in range(1, t_max + 1):
        z.append([0.5 * ((beta * (Ainv.T @ u[i] @ Ainv))
                         + (beta * (Ainv.T @ u[i] @ Ainv)).T) for i in range(N)])
        w = []
        for i in range(N):
            acc = np.zeros((n, n))
            for j in range(N):
                if W[i, j] > 0:
                    acc += W[i, j] * u[j]
            w.append(acc - delta * np.eye(n) + info_d[i])
        u = [0.5 * ((beta * (Ainv.T @ w[i] @ Ainv) + info_y[i])
                    + (beta * (Ainv.T @ w[i] @ Ainv) + info_y[i]).T)
             for i in range(N)]
    return z


def delta_correction(t: int, model: SystemModel, beta: float) -> np.ndarray:
    """S_t = Σ_{τ=2..t} β^τ (A^{-τ})ᵀ A^{-τ} (zero for t < 2)."""
    return _delta_corrections(max(t, 0), model, beta)[-1]


def _delta_corrections(t_max: int, model: SystemModel, beta: float) -> list:
    """[S_0, ..., S_{t_max}] of `delta_correction`, from one running sum."""
    n = model.n
    out = [np.zeros((n, n)) for _ in range(min(t_max, 1) + 1)]   # S_0 = S_1 = 0
    S = np.zeros((n, n))
    Ainv = np.linalg.inv(model.A_at(0))
    A_pow = Ainv @ Ainv
    coef = beta * beta
    for _tau in range(2, t_max + 1):
        S += coef * (A_pow.T @ A_pow)
        out.append(0.5 * (S + S.T))
        A_pow = A_pow @ Ainv
        coef *= beta
    return out


def f_upper(t: int, i: int, model: SystemModel, agents: list[AgentSpec],
            topology: Topology, beta_bar: float) -> np.ndarray:
    """Uniform upper bound on agent i's post-update information after t steps."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _f_table(t, model, agents, topology, beta_bar)[t][i]


def z_lower(t: int, i: int, delta: float, model: SystemModel,
            agents: list[AgentSpec], topology: Topology, beta: float) -> np.ndarray:
    """Uniform lower bound on the t-step extrapolated information of agent i."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _zbar_table(t, model, agents, topology, beta, delta)[t][i]


def _fbar_proof(f_ti, zbar_ti, S_t, delta, n) -> float:
    corr = zbar_ti + delta * (np.eye(n) - S_t)
    return float(np.linalg.eigvalsh(f_ti - eig_pos(corr)).max())


def solve_T1(delta: float, i: int, model: SystemModel, agents: list[AgentSpec],
             topology: Topology, T: int, beta: float, beta_bar: float,
             _tables=None) -> int | None:
    """Largest t ≤ T at which successive triggering cannot yet be excluded.

    Scans the necessary condition for a run of consecutive broadcasts; returns
    None when it holds through the whole horizon (no finite bound), and 0 when
    it fails everywhere (triggering excluded outright).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    f_tab, zbar_tab, S_list = _tables or _rate_tables(T, model, agents, topology,
                                                      beta, beta_bar)
    n = model.n
    hits = [t for t in range(T + 1)
            if _fbar_proof(f_tab[t][i], zbar_tab[t][i], S_list[t], delta, n) > 0.0]
    if len(hits) == T + 1:
        return None
    return max(hits) if hits else 0


def solve_T2(delta: float, i: int, model: SystemModel, agents: list[AgentSpec],
             topology: Topology, T: int, beta: float, beta_bar: float,
             _tables=None) -> int | None:
    """Largest t ≤ T such that silence is guaranteed at every step up to t.

    Prefix semantics: the sufficient condition must hold for all s ≤ t.
    Returns None when not even one silent step is guaranteed.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    f_tab, _, _ = _tables or _rate_tables(T, model, agents, topology, beta, beta_bar)
    A = model.A_at(0)
    Ainv = np.linalg.inv(A)
    info_y, _ = _info_blocks(model, agents)
    best = None
    A_pow = Ainv.copy()          # A^{-t-1} at t = 0
    coef = beta                  # β^{t+1} at t = 0
    for t in range(T + 1):
        l_t = coef * (A_pow.T @ info_y[i] @ A_pow)
        gbar = float(np.linalg.eigvalsh(f_tab[t][i] - l_t).max()) - delta
        if gbar > 0.0:
            break
        best = t
        A_pow = A_pow @ Ainv
        coef *= beta
    return best


def _rate_tables(T, model, agents, topology, beta, beta_bar):
    if not (0.0 < beta < 1.0 and 0.0 < beta_bar < 1.0):
        raise ValueError("beta and beta_bar must lie in (0, 1)")
    f_tab = _f_table(T, model, agents, topology, beta_bar)
    zbar_tab = _zbar_table(T, model, agents, topology, beta, 0.0)
    S_list = _delta_corrections(T, model, beta)
    return f_tab, zbar_tab, S_list


def rate_bound(delta: float, model: SystemModel, agents: list[AgentSpec],
               topology: Topology, T: int, beta: float, beta_bar: float,
               _self_check: bool = True) -> RateReport:
    """Upper bound on the measured communication rate at a uniform threshold.

    For each agent with a bounded triggering-run length T1 and a guaranteed
    silent prefix T2, credits T2 silent steps per cycle of length T1 + T2:
    λ0 = 1 − Σ_{V1} T2·⌊T/(T1+T2)⌋·outdeg / (T·Σ outdeg).
    """
    if not model.time_invariant:
        raise ValueError("rate analysis requires a time-invariant model")
    N = topology.N
    tables = _rate_tables(T, model, agents, topology, beta, beta_bar)
    S_list = tables[2]

    report = RateReport(delta=delta, horizon=T, beta=beta, beta_bar=beta_bar)
    for i in range(N):
        t1 = solve_T1(delta, i, model, agents, topology, T, beta, beta_bar,
                      _tables=tables)
        t2 = solve_T2(delta, i, model, agents, topology, T, beta, beta_bar,
                      _tables=tables)
        cond1 = t1 is not None
        if t1 is not None and t1 >= 2:
            cond1 = bool(np.linalg.eigvalsh(S_list[t1]).max() <= 1.0 + 1e-12)
        cond2 = t1 is not None and t2 is not None and 0 <= t2
        report.T1.append(t1)
        report.T2.append(t2)
        report.condition1_ok.append(cond1)
        report.condition2_ok.append(cond2)
        if t1 is not None and t2 is not None and cond1:
            report.V1.append(i)

    out_deg = np.array([topology.out_degree0(i) for i in range(N)], dtype=float)
    total = out_deg.sum()
    if not report.V1 or total == 0 or T <= 0:
        report.status = "no bound available"
        return report

    credited = 0.0
    asympt = 0.0
    for i in report.V1:
        t1 = report.T1[i]
        # Any prefix of the guaranteed silent run is also a valid certificate,
        # so cap T2 at T - T1 to stay inside the admissible range.
        t2 = min(report.T2[i], max(T - t1, 0))
        if t2 == 0:
            continue
        cycle = t1 + t2
        credited += t2 * (T // cycle) * out_deg[i]
        asympt += (t2 / cycle) * out_deg[i]
    report.lambda0 = float(1.0 - credited / (T * total))
    report.lambda0_asymptotic = float(1.0 - asympt / total)

    if _self_check:
        bigger = rate_bound(delta * 1.1 + 1e-6, model, agents, topology, T,
                            beta, beta_bar, _self_check=False)
        if bigger.lambda0 is not None:
            report.monotone_check = bool(report.lambda0 >= bigger.lambda0 - 1e-12)
    return report
