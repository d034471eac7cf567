"""Correctness checks on the outputs of one benchmark operation.

Every check returns a list of problems; an operation with any problem counts
as failed.  The checks hold for any seed: the trigger pattern, `lambda_`,
`trace_p` and the design reports are functions of the model alone, so they
are compared with the seed-free values in `reference.json`, while the
seed-dependent columns are only required to be finite.
"""

from __future__ import annotations

import csv
import math

TRACE_P_RTOL = 1e-9      # trace_p is noise-free; allows last-bit reordering
RESIDUAL_TOL = 1e-9      # worst |D x_hat - d|; the projection leaves ~1e-13
DESIGN_RTOL = 1e-9       # threshold bounds and alpha
STATE_RTOL = 1e-10       # online rounds against the batch engine


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_metrics_csv(path: str, ref_trace_p: list) -> list:
    """Finite values, one row per step, trace_p on the reference, and every
    estimate on its own constraint set."""
    rows = _read_csv(path)
    problems = []
    if len(rows) != len(ref_trace_p):
        return [f"{path}: {len(rows)} rows, expected {len(ref_trace_p)}"]
    for k, row in enumerate(rows):
        vals = {c: float(v) for c, v in row.items()}
        bad = [c for c, v in vals.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{path} step {k}: non-finite {bad}")
            continue
        if vals["step"] != k:
            problems.append(f"{path}: row {k} holds step {row['step']}")
        if rel_err(vals["trace_p"], ref_trace_p[k]) > TRACE_P_RTOL:
            problems.append(f"{path} step {k}: trace_p {vals['trace_p']!r} "
                            f"!= reference {ref_trace_p[k]!r}")
        if vals["max_constraint_residual"] > RESIDUAL_TOL:
            problems.append(f"{path} step {k}: constraint residual "
                            f"{vals['max_constraint_residual']:.3g} > {RESIDUAL_TOL}")
    return problems


def last_lambda(metrics_path: str) -> float:
    return float(_read_csv(metrics_path)[-1]["lambda_running"])


def check_triggers_csv(path: str, ref_fired: list) -> list:
    """Trigger log equal to the reference: ref_fired[k-1][i] is '1' when agent
    i broadcast at step k."""
    rows = _read_csv(path)
    N = len(ref_fired[0]) if ref_fired else 0
    expected = [(k, i) for k in range(1, len(ref_fired) + 1) for i in range(N)]
    if len(rows) != len(expected):
        return [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (k, i) in zip(rows, expected):
        if (int(row["step"]), int(row["agent"])) != (k, i):
            problems.append(f"{path}: row ({row['step']}, {row['agent']}) "
                            f"out of order, expected ({k}, {i})")
        elif row["fired"] != ref_fired[k - 1][i]:
            problems.append(f"{path}: agent {i} at step {k} fired="
                            f"{row['fired']}, reference {ref_fired[k - 1][i]}")
        elif not math.isfinite(float(row["g"])):
            problems.append(f"{path}: non-finite g at step {k}, agent {i}")
    return problems


def fired_rows(rm) -> list:
    """The trigger log of a `RunMetrics` in the reference format: one string
    per step, character i '1' when agent i broadcast."""
    T, N = rm.trace_p.shape[0] - 1, rm.trace_p_agent.shape[1]
    rows = [["0"] * N for _ in range(T)]
    for k, i, _g, fired in rm.trigger_log:
        if fired:
            rows[k - 1][i] = "1"
    return ["".join(r) for r in rows]


def count_fired_csv(path: str) -> int:
    return sum(row["fired"] == "1" for row in _read_csv(path))


def check_design(eco, thr, rate, ref: dict) -> list:
    """Reports of eco_check, threshold_bounds and rate_bound against the
    reference: integers and lambda0 exactly, real-valued bounds to 1e-9."""
    problems = []
    for name, got in (("alpha", eco.alpha),
                      ("alpha_without_constraints", eco.alpha_without_constraints),
                      ("network_bound", thr.network_bound)):
        if rel_err(got, ref[name]) > DESIGN_RTOL:
            problems.append(f"{name} {got!r} != reference {ref[name]!r}")
    bounds = list(map(float, thr.per_agent_bound))
    if len(bounds) != len(ref["per_agent_bound"]) or any(
            rel_err(g, r) > DESIGN_RTOL
            for g, r in zip(bounds, ref["per_agent_bound"])):
        problems.append(f"per-agent threshold bounds {bounds} != reference")
    for name in ("T1", "T2"):
        if list(getattr(rate, name)) != ref[name]:
            problems.append(f"{name} {getattr(rate, name)} != reference {ref[name]}")
    if rate.lambda0 != ref["lambda0"]:
        problems.append(f"lambda0 {rate.lambda0!r} != reference {ref['lambda0']!r}")
    return problems


def check_online(fired: list, final_errors: list, mse: list, ref_fired: list,
                 ref_run) -> list:
    """One online pass against the batch engine on the same seed.

    fired: per step, the set of agents that broadcast; final_errors: per
    agent, x_hat - x at the horizon; mse: per step k >= 1.  `ref_run` is the
    `RunMetrics` of `sim.run_event` with a checkpoint at the horizon, whose
    `sample_moment[(T, i)]` is the outer product of agent i's final error.
    """
    problems = []
    T = len(fired)
    ref_sets = ref_run.fired_sets()
    for k, got in enumerate(fired, start=1):
        want = {i for i, c in enumerate(ref_fired[k - 1]) if c == "1"}
        if got != want or got != ref_sets.get(k, set()):
            problems.append(f"step {k}: fired {sorted(got)}, reference "
                            f"{sorted(want)}, engine {sorted(ref_sets.get(k, set()))}")
    for k, v in enumerate(mse, start=1):
        if not math.isfinite(v) or rel_err(v, float(ref_run.mse[k])) > STATE_RTOL:
            problems.append(f"step {k}: mse {v!r} != engine {float(ref_run.mse[k])!r}")
    for i, e in enumerate(final_errors):
        outer = [[a * b for b in e] for a in e]
        ref = ref_run.sample_moment[(T, i)]
        scale = max(abs(float(x)) for x in ref.ravel())
        worst = max(abs(outer[r][c] - float(ref[r, c]))
                    for r in range(len(e)) for c in range(len(e)))
        if not worst <= STATE_RTOL * scale:
            problems.append(f"agent {i}: final error outer product off by "
                            f"{worst:.3g} relative to {scale:.3g}")
    return problems
