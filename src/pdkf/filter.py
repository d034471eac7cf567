"""The filter formulas of the projected distributed Kalman filter.

One step per agent is: predict → measurement update → L synchronized rounds
of {covariance-intersection fusion over in-neighbors; constraint projection}.
The carried pair (x̂, P) is kept *consistent*: the true error second moment
stays dominated by P in the PSD order, which covariance intersection
preserves under unknown cross-correlations.  `event.filter_step` composes
these kernels on the stack of all agents.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .model import _check_finite

_JITTER = 1e-9
_PINV_RTOL = 1e-9
_PINV_COND = 1e8     # below 1/_PINV_RTOL, so a certified inverse cuts nothing


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# LAPACK gufuncs that `np.linalg` wraps, called with their float64 signatures:
# `np.linalg`'s bits without its Python wrapper, in one `np.errstate` per call.
# `_inv` and `_solve` raise `np.linalg`'s "Singular matrix" for a failing
# member; the guards' `_cholesky` and `_inv_or_nan` give NaN there and warn
# nothing, and the guards read it as not finite.
_as_linalg = np.errstate(call=_singular, invalid="call", over="ignore",
                         divide="ignore", under="ignore")
_quiet = np.errstate(all="ignore")
_inv = _as_linalg(functools.partial(_umath_linalg.inv, signature="d->d"))
_solve = _as_linalg(functools.partial(_umath_linalg.solve, signature="dd->d"))
_inv_or_nan = _quiet(functools.partial(_umath_linalg.inv, signature="d->d"))
_cholesky = _quiet(functools.partial(_umath_linalg.cholesky_lo, signature="d->d"))


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def _ensure_pd(P: np.ndarray, name: str, ids=None) -> np.ndarray:
    """P, a symmetric matrix or stack of them, once checked positive
    definite: P itself when one Cholesky over the stack gives a finite
    factor, which proves every member positive definite.  Otherwise each
    member whose factor is not finite (NaN where Cholesky failed) gets
    1e-9·I added, in a copy; then `_check_pd` names the first member that is
    not finite (LinAlgError) or still not positive definite (ValueError), by
    its index or by ids[index] for a stack of some agents.  The caller
    symmetrizes P where it makes it; P itself is never written."""
    F = _cholesky(P)
    if np.isfinite(F).all():
        return P
    P = P.copy()
    P[~np.isfinite(F).all(axis=(-2, -1))] += _JITTER * np.eye(P.shape[-1])
    return _check_pd(P, name, ids)


def _check_pd(M, name: str, ids=None) -> np.ndarray:
    """M symmetrized, or each matrix of a stack, once checked positive
    definite: one Cholesky over the stack, and only if its factor is not
    finite (NaN input, or a member Cholesky failed on), a LinAlgError for a
    member that is not finite or `eigvalsh` for one that is not positive
    definite.  A stack's member is named by its index, or by ids[index]."""
    M = symmetrize(np.asarray(M, dtype=float))
    if np.isfinite(_cholesky(M)).all():
        return M

    def which(bad) -> str:
        return "" if M.ndim == 2 else f" {bad[0] if ids is None else ids[bad[0]]}"

    bad = np.flatnonzero(~np.isfinite(M).all(axis=(-2, -1)))
    if bad.size:
        raise np.linalg.LinAlgError(f"{name}{which(bad)} is not finite")
    bad = np.flatnonzero(np.linalg.eigvalsh(M)[..., 0] <= 0)   # ascending
    if bad.size:
        raise ValueError(f"{name}{which(bad)} must be positive definite")
    return M


def pinv(M: np.ndarray) -> np.ndarray:
    """Moore–Penrose inverse with singular values cut at 1e-9·σ_max, of a
    matrix or of each matrix of a stack.

    A member keeps its LU inverse when ‖M‖_F·‖M⁻¹‖_F ≤ 1e8: that product
    bounds cond₂(M) from above, so the cut would remove nothing and the
    inverse is the pseudo-inverse.  Every other member (exactly singular,
    with a NaN inverse, not finite, or cond above 1e8) gets the SVD of
    `np.linalg.pinv`.  Each member's result is the same alone or in a stack."""
    inv = _inv_or_nan(M)
    ok = (M * M).sum(axis=(-2, -1)) * (inv * inv).sum(axis=(-2, -1)) <= _PINV_COND ** 2
    if not ok.all():                   # NaN fails the test too
        inv[~ok] = np.linalg.pinv(M[~ok], rcond=_PINV_RTOL)
    return inv


def _pair(x, P) -> tuple[np.ndarray, np.ndarray]:
    """Checked copies of an estimate's or a held pair (x flattened): both finite,
    P (len(x), len(x)) ("P shape (2, 3) does not match the state dimension 2")."""
    x, P = np.array(x, dtype=float).ravel(), np.array(P, dtype=float)
    _check_finite(x, "x")
    _check_finite(P, "P")
    if P.shape != (x.size, x.size):
        raise ValueError(f"P shape {P.shape} does not match the state dimension {x.size}")
    return x, P


@dataclass
class ConsistentEstimate:
    """State estimate x with parameter matrix P dominating the error moment.
    The pair is copied and checked by `_pair`; a P that the 1e-9·I jitter of
    `_ensure_pd` does not make positive definite is rejected too."""

    x: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        self.x, P = _pair(self.x, self.P)
        self.P = _ensure_pd(symmetrize(P), "P")


def _estimate(x: np.ndarray, P: np.ndarray) -> ConsistentEstimate:
    """A ConsistentEstimate of a pair that `_ensure_pd` has already passed."""
    est = object.__new__(ConsistentEstimate)
    est.x, est.P = x, P
    return est


@dataclass
class AgentState:
    id: int
    estimate: ConsistentEstimate


def init_consistent(x0_hat, P0, theta: float, x0_mean) -> ConsistentEstimate:
    """Initial pair covering both prior covariance and initialization bias.

    P = (1+θ)·P0 + ((θ+1)/θ)·(x̂0−x̄0)(x̂0−x̄0)ᵀ, which dominates the second
    moment of x̂0 − x0 for any θ > 0.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    x0_hat = np.asarray(x0_hat, dtype=float).ravel()
    x0_mean = np.asarray(x0_mean, dtype=float).ravel()
    bias = (x0_hat - x0_mean).reshape(-1, 1)
    P = (1.0 + theta) * np.asarray(P0, dtype=float) \
        + ((theta + 1.0) / theta) * (bias @ bias.T)
    return ConsistentEstimate(x0_hat, P)


def kalman_gain(P, H, R) -> tuple[np.ndarray, np.ndarray]:
    """(K, P⁺) of one Kalman update: K = P Hᵀ (H P Hᵀ + R)⁻¹ and
    P⁺ = (I − K H) P symmetrized; the updated state is x + K (y − H x).
    P, H and R may be single matrices or stacks over a leading agent axis.
    Raises LinAlgError if an innovation matrix S has cond(S) > 1e14."""
    return _kalman_gain(P, H, R, np.eye(P.shape[-1]))


def _kalman_gain(P, H, R, I):
    """`kalman_gain` with the n×n identity I given (the step layout's)."""
    Ht = H.swapaxes(-1, -2)
    S = H @ P @ Ht + R
    if S.shape[-1] > 1:
        cond = np.max(np.linalg.cond(S), initial=0.0)
    else:   # a 1×1 S has cond 1 unless it is 0 or not finite: no SVD per agent
        a = np.abs(S)
        cond = 1.0 if a.min(initial=np.inf) > 0.0 and a.max(initial=0.0) < np.inf else np.inf
    if not cond <= 1e14:
        raise np.linalg.LinAlgError(
            f"innovation matrix is numerically singular (cond={cond:.3e})")
    K = _solve(S.swapaxes(-1, -2), (P @ Ht).swapaxes(-1, -2)).swapaxes(-1, -2)
    return K, symmetrize((I - K @ H) @ P)


def slot_sum(terms: np.ndarray, sizes, maps=None) -> np.ndarray:
    """Row sums of a slot-major edge list: slot s holds one term for each of
    rows 0..sizes[s]-1, in row order, and the rows are added to slot by slot,
    so each row's terms are summed in slot order, as a loop over them would.
    With maps, one matrix per edge, the terms summed are maps[e] @ terms[e],
    formed one slot at a time."""
    start = sizes[0]
    acc = terms[:start].copy() if maps is None else maps[:start] @ terms[:start]
    for size in sizes[1:]:
        end = start + size
        acc[:size] += terms[start:end] if maps is None else maps[start:end] @ terms[start:end]
        start = end
    return acc


def ci_maps(infos, weights, slots) -> tuple[np.ndarray, np.ndarray]:
    """Covariance intersection as a linear map of the fused states.

    From information matrices Ω_j = P_j⁻¹ and weights a_j: P = (Σ a_j Ω_j)⁻¹
    and C_j = P a_j Ω_j, so the fused state is x = Σ_j C_j x_j.  infos holds
    the E in-edges of a stack of agents as a slot-major edge list
    (`slot_sum`), slots = (sizes, dst) with dst the row of each edge's
    receiver; P is one matrix per row and C one per edge.  Each row's sum
    runs over its edges in order, so an agent's P is the same fused alone or
    in a stack.
    """
    terms = np.asarray(weights)[:, None, None] * np.asarray(infos)
    sizes, dst = slots
    P = symmetrize(_inv(slot_sum(terms, sizes)))
    return P, P[dst] @ terms


def projection_map(P, D, d, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constraint projection as an affine state map: (G, c, P⁺).

    The state x ↦ G x + c is the exact oblique projection onto {x : D x = d}
    (pseudo-inverse of D P Dᵀ), so D x = d holds to machine precision; P is
    shrunk through (D P Dᵀ + eps·I)⁻¹, which keeps it positive definite and
    equals information addition DᵀD/eps.  For a stack of N agents, P and D
    carry a leading agent axis, d is (N, s, 1) and eps (N, 1, 1); c is then
    (N, n, 1), a column for each agent.
    """
    return _projection_map(P, D, d, eps * np.eye(D.shape[-2]), np.eye(P.shape[-1]))


def _projection_map(P, D, d, eps_I, I):
    """`projection_map` with eps·I (s×s, or one per agent) and the n×n
    identity I given (the step layout's)."""
    Dt = D.swapaxes(-1, -2)
    PDt = P @ Dt
    DP = D @ P
    S = DP @ Dt  # s×s, PD because P is
    M = PDt @ pinv(S)
    P_new = symmetrize(P - PDt @ _solve(S + eps_I, DP))
    return I - M @ D, M @ d, P_new
