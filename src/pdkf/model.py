"""Domain types for the networked estimation problem.

A `SystemModel` describes the shared linear dynamics, `AgentSpec` the per-agent
observation and equality-constraint blocks, `Topology` the directed communication
graph with its fusion weights, and `GlobalConstraint` the orthonormal rows of
the constraint that every agent's local constraint implies.

All types are plain value objects; validation happens at construction time and
every operation here is side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_RANK_RTOL = 1e-9  # relative singular-value cutoff for rank decisions


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {M.shape}")
    return M


def _readonly(M: np.ndarray) -> np.ndarray:
    """A read-only copy: later edits of the caller's array, or of the field,
    cannot change a network that a cached step layout was built from."""
    M = np.array(M)
    M.flags.writeable = False
    return M


def _integer(v, name: str | None = None, least: int | None = None) -> int:
    """v as a Python int, from a Python or numpy integer but not a bool, of at least
    `least` if given; else a ValueError naming `name` ("L must be at least 1, got 0")."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"expected an integer, got {v!r}" if name is None
                         else f"{name} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{name} must be "
                         f"{'nonnegative' if least == 0 else f'at least {least}'}, got {v}")
    return int(v)


def _real(v, name: str | None = None) -> float:
    """v as a Python float, from a Python or numpy integer or float but not a
    bool; any other value raises a ValueError, which names the field `name`
    if given."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"expected a number, got {v!r}" if name is None
                         else f"{name} must be a number, got {v!r}")
    return float(v)


def _threshold(v) -> float:
    """A trigger threshold δ: a number (`_real`), finite and nonnegative."""
    v = _real(v, "delta")
    if not 0 <= v < np.inf:
        raise ValueError("delta must be finite and nonnegative")
    return v


def _check_finite(M: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """The symmetric part ½(M + Mᵀ) of a matrix, or of each matrix of a stack,
    once each is checked: |M − Mᵀ| ≤ 1e-8·max(1, max|½(M + Mᵀ)|), else
    "{name} is not symmetric".  NaN passes, so check finiteness first."""
    sym = 0.5 * (M + M.swapaxes(-1, -2))
    scale = np.abs(sym).max(axis=(-2, -1), initial=1.0)
    if np.count_nonzero(np.abs(M - M.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
                        > 1e-8 * scale):
        raise ValueError(f"{name} is not symmetric")
    return sym


def _check_covariance(M: np.ndarray, name: str, m: int) -> None:
    """A finite, symmetric positive semidefinite (m, m) matrix; zero is legal."""
    M = np.asarray(M, dtype=float)
    if M.shape != (m, m):
        raise ValueError(f"{name} must be ({m}, {m}), got {M.shape}")
    _check_finite(M, name)
    w = np.linalg.eigvalsh(_check_symmetric(M, name))   # empty for no measurement rows
    if w.size and w.min() < -1e-10 * max(1.0, abs(w.max())):
        raise ValueError(f"{name} must be positive semidefinite")


def _reachable(adj: np.ndarray, start: int) -> np.ndarray:
    """Boolean mask of the nodes reachable from `start` along the edges
    i → j with adj[i, j] true, start included (one frontier step per hop)."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _components(adj: np.ndarray) -> list[list[int]]:
    """Connected components of a symmetric adjacency as index lists; the
    lowest node not yet in one starts the next (scipy's labelling order)."""
    comps, todo = [], np.ones(adj.shape[0], dtype=bool)
    while todo.any():
        comp = _reachable(adj, int(np.argmax(todo)))
        comps.append(np.flatnonzero(comp).tolist())
        todo &= ~comp
    return comps


def matrix_rank(M: np.ndarray) -> int:
    """Rank with the package-wide relative singular-value tolerance."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_RTOL * s[0]))


@dataclass(frozen=True)
class SystemModel:
    """Linear dynamics x_{k+1} = A_k x_k + w_k with E{w wᵀ} ≤ Q_k.

    A and Q may be single (n, n) matrices (time-invariant) or sequences of
    them, one per step.
    """

    A: np.ndarray | list
    Q: np.ndarray | list
    x0_mean: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        A_seq = self._to_seq(self.A, "A")
        Q_seq = self._to_seq(self.Q, "Q")
        object.__setattr__(self, "A", A_seq)
        object.__setattr__(self, "Q", Q_seq)
        object.__setattr__(self, "x0_mean", np.asarray(self.x0_mean, dtype=float).ravel())
        object.__setattr__(self, "P0", _as_matrix(self.P0, "P0"))
        n = self.n
        for k, Ak in enumerate(A_seq):
            _check_finite(Ak, f"A[{k}]")
            if Ak.shape != (n, n):
                raise ValueError(f"A[{k}] must be ({n}, {n}), got {Ak.shape}")
            if abs(np.linalg.det(Ak)) < 1e-300:
                raise ValueError(f"A[{k}] is singular")
        _check_finite(self.x0_mean, "x0_mean")
        if self.x0_mean.shape != (n,):
            raise ValueError("x0_mean length does not match state dimension")
        _check_covariance(self.P0, "P0", n)
        for k, Qk in enumerate(Q_seq):
            _check_covariance(Qk, f"Q[{k}]", n)

    @staticmethod
    def _to_seq(M, name):
        arr = np.asarray(M, dtype=float)
        if arr.ndim == 2:
            return [arr]
        if arr.ndim == 3:
            return [arr[k] for k in range(arr.shape[0])]
        raise ValueError(f"{name} must be one matrix or a sequence of matrices")

    @property
    def n(self) -> int:
        return self.A[0].shape[0]

    @property
    def time_invariant(self) -> bool:
        return len(self.A) == 1 and len(self.Q) == 1

    def A_at(self, k: int) -> np.ndarray:
        """A_k, read by `_at`."""
        return _at(self.A, k)

    def Q_at(self, k: int) -> np.ndarray:
        """Q_k, read by `_at`."""
        return _at(self.Q, k)


def _at(seq: list, k: int) -> np.ndarray:
    """Step k's matrix of a per-step sequence: its one matrix at any k, else
    entry k, the last one from there on; a ValueError at k < 0."""
    if len(seq) == 1:
        return seq[0]
    if k < 0:
        raise ValueError(f"a time-varying model starts at step 0, got step {k}")
    return seq[min(k, len(seq) - 1)]


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """Per-agent observation (H, R) and equality constraint (D, d, eps) blocks.

    H may be all-zero (a blind agent) and D may be all-zero (unconstrained).
    `eps` (`_real`, finite and positive) regularizes the covariance
    projection; `delta` (`_threshold`) is the event trigger threshold; both
    are stored as Python floats.  H, R, D and d are read-only copies of the
    arrays passed in; specs compare and hash by identity.
    """

    H: np.ndarray
    R: np.ndarray
    D: np.ndarray
    d: np.ndarray
    eps: float = 0.01
    delta: float = 0.0

    def __post_init__(self):
        for name in ("H", "R", "D"):
            object.__setattr__(self, name, _readonly(_as_matrix(getattr(self, name), name)))
        object.__setattr__(self, "d", _readonly(np.asarray(self.d, dtype=float).ravel()))
        for name in ("H", "R", "D", "d"):
            _check_finite(getattr(self, name), name)
        if self.H.shape[0] != self.R.shape[0]:
            raise ValueError("H and R disagree on measurement dimension")
        _check_symmetric(self.R, "R")
        if self.R.shape[0] and np.linalg.eigvalsh(self.R).min() <= 0:
            raise ValueError("R must be positive definite")
        if self.D.shape[0] != self.d.shape[0]:
            raise ValueError("D and d disagree on constraint dimension")
        if self.has_constraint and matrix_rank(self.D) < self.D.shape[0]:
            raise ValueError("D must be all-zero or have full row rank")
        object.__setattr__(self, "eps", _real(self.eps, "eps"))
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be finite and positive")
        object.__setattr__(self, "delta", _threshold(self.delta))

    @property
    def has_constraint(self) -> bool:
        return self.D.size > 0 and np.any(self.D != 0.0)

    @property
    def has_measurement(self) -> bool:
        return self.H.size > 0 and np.any(self.H != 0.0)


@dataclass(frozen=True, eq=False)
class Topology:
    """Directed communication graph with row-stochastic fusion weights.

    `weights[i, j] > 0` means agent i uses (receives) agent j's estimate.  The
    matrix must be finite and non-empty, the diagonal positive and the off-diagonal
    support strongly connected: every agent reaches agent 0 and is reached
    from it (numpy reachability, no graph library).  `edges` holds the
    boolean support of `weights`; both are read-only and `weights` is a copy
    of the array passed in.  Topologies compare and hash by identity.
    """

    weights: np.ndarray
    edges: np.ndarray = field(init=False)

    def __post_init__(self):
        W = _as_matrix(self.weights, "weights")
        _check_finite(W, "weights")     # a NaN passes every comparison below
        if W.shape[0] != W.shape[1]:
            raise ValueError("weights must be square")
        if W.size == 0:
            raise ValueError("weights must be non-empty")
        if np.any(W < -1e-15):
            raise ValueError("weights must be nonnegative")
        W = np.where(W < 0, 0.0, W)
        row_sums = W.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-12:
            raise ValueError("weight rows must each sum to 1")
        if np.any(np.diag(W) <= 0):
            raise ValueError("diagonal weights must be positive")
        object.__setattr__(self, "weights", _readonly(W))
        object.__setattr__(self, "edges", _readonly(W > 0))
        if not (_reachable(self.edges, 0).all() and _reachable(self.edges.T, 0).all()):
            raise ValueError("communication graph must be strongly connected")

    @property
    def N(self) -> int:
        return self.weights.shape[0]

    def in_neighbors(self, i: int) -> np.ndarray:
        """Indices j (including i) whose estimates agent i fuses."""
        return np.flatnonzero(self.edges[i])

    def out_neighbors0(self, i: int) -> np.ndarray:
        """Indices j ≠ i that receive agent i's broadcasts."""
        out = np.flatnonzero(self.edges[:, i])
        return out[out != i]

    def out_degree0(self, i: int) -> int:
        return int(self.out_neighbors0(i).size)


@dataclass(frozen=True)
class GlobalConstraint:
    """The constraint Dbar x = dbar implied by all agents, with orthonormal
    rows: Dbar·Dbarᵀ = I within 1e-12.  So I − DbarᵀDbar projects onto the
    constraint set's tangent space and Dbar·e holds the constrained
    coordinates of an error e (`build_global_constraint` makes such rows)."""

    Dbar: np.ndarray
    dbar: np.ndarray

    def __post_init__(self):
        Dbar = np.asarray(self.Dbar, dtype=float)
        if Dbar.ndim != 2:
            Dbar = Dbar.reshape(0, 0) if Dbar.size == 0 else np.atleast_2d(Dbar)
        object.__setattr__(self, "Dbar", Dbar)
        object.__setattr__(self, "dbar", np.asarray(self.dbar, dtype=float).ravel())
        if Dbar.shape[0] != self.dbar.shape[0]:
            raise ValueError("Dbar and dbar disagree on the number of rows")
        off = np.abs(Dbar @ Dbar.T - np.eye(self.s_bar)).max(initial=0.0)
        if not off <= 1e-12:            # NaN included
            raise ValueError(f"Dbar must have orthonormal rows (so full row rank): "
                             f"|Dbar·Dbarᵀ − I| reaches {off:.3g}")

    @property
    def s_bar(self) -> int:
        return self.Dbar.shape[0]

    @property
    def empty(self) -> bool:
        return self.s_bar == 0


def metropolis_weights(adjacency) -> np.ndarray:
    """Build row-stochastic consensus weights from an undirected graph.

    adjacency: symmetric boolean/0-1 matrix without self-loops.  Off-diagonal
    weight for an edge {i, j} is 1/(1 + max(deg(i), deg(j))); the diagonal
    takes the remaining mass.  Rejects disconnected graphs, listing the
    components as plain index lists in `_components`' order.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    if np.any(np.diag(adj)):
        raise ValueError("adjacency must not contain self-loops")
    N = adj.shape[0]
    comps = _components(adj)
    if len(comps) > 1:
        raise ValueError(f"graph is disconnected; components: {comps}")
    deg = adj.sum(axis=1)
    W = np.where(adj, 1.0 / (1.0 + np.maximum.outer(deg, deg)), 0.0)
    W[np.diag_indices(N)] = 1.0 - W.sum(axis=1)
    return W


def build_global_constraint(agents: list[AgentSpec]) -> GlobalConstraint:
    """The global constraint D̄x = d̄ that all agents' constraint rows imply.

    The agents' rows, each normalized to unit norm, are stacked and split by
    one SVD: D̄ is the orthonormal basis of their row space (D̄D̄ᵀ = I) and
    d̄ = D̄x*, with x* the stack's least-norm common solution.  A normalized
    row that x* misses by more than 1e-8 (relative) makes the constraint set
    empty; the error starts with ``agents:`` and names the agents whose rows
    x* misses.
    """
    held = [i for i, a in enumerate(agents) if a.has_constraint]
    if not held:
        n = agents[0].H.shape[1] if agents else 0
        return GlobalConstraint(np.zeros((0, n)), np.zeros(0))
    D = np.vstack([agents[i].D for i in held])
    d = np.concatenate([agents[i].d for i in held])
    owner = np.repeat(held, [agents[i].D.shape[0] for i in held])
    norm = np.linalg.norm(D, axis=1)
    D, d = D / norm[:, None], d / norm
    U, s, Vt = np.linalg.svd(D, full_matrices=False)
    r = int(np.sum(s > _RANK_RTOL * s[0]))
    Dbar, dbar = Vt[:r], (U[:, :r].T @ d) / s[:r]     # d̄ = D̄x* for x* = D̄ᵀd̄
    Dx = D @ (Dbar.T @ dbar)
    missed = np.abs(Dx - d) > 1e-8 * np.maximum(1.0, np.maximum(np.abs(d), np.abs(Dx)))
    if missed.any():
        raise ValueError(f"agents: inconsistent constraints: the constraint set is "
                         f"empty, as no state meets every row of agents "
                         f"{np.unique(owner[missed]).tolist()}")
    return GlobalConstraint(Dbar, dbar)
