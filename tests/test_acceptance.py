"""End-to-end acceptance checks.

One test per criterion; each prints a single `criterion N (...): PASS/FAIL`
line (visible with -s or in the captured-output section) and then asserts.
Tolerances are stated inline next to each check.
"""
import dataclasses
import time

import numpy as np
import pytest

from pdkf import cli, sim
from pdkf.analysis import eco_check, eig_pos, rate_bound
from pdkf.filter import ci_maps, projection_map
from pdkf.model import AgentSpec, SystemModel, Topology, metropolis_weights
from pdkf.sim import ScenarioConfig, case1

import oracles


def _verdict(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- 1: constraint satisfaction ---------------------------------------------

def test_criterion_01_constraint_satisfaction():
    t0 = time.perf_counter()
    rm = sim.run_time_based(case1(mode="time", L=1))
    elapsed = time.perf_counter() - t0
    worst = rm.constraint_residuals.max()
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _verdict(1, "constraint satisfaction",
                    ok, f"max residual {worst:.3e} (<=1e-9), {elapsed:.2f}s (<1s)")


# --- 2: consistency ------------------------------------------------------------

def test_criterion_02_consistency():
    t0 = time.perf_counter()
    worst = -np.inf
    for cfg in (case1(mode="time", L=1, trials=1000, seed=2),
                case1(mode="event", trials=1000, seed=2)):
        rm = sim.monte_carlo(cfg)
        n = cfg.model.n
        for (k, i), S in rm.sample_moment.items():
            P = rm.P_checkpoint[(k, i)]
            lam = np.linalg.eigvalsh(0.5 * (S + S.T) - P).max()
            worst = max(worst, lam - 0.15 * np.trace(P) / n)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0 and elapsed < 120.0
    assert _verdict(2, "consistency", ok,
                    f"worst lam_max(S-P) margin {worst:+.3e} (<=0), "
                    f"{elapsed:.1f}s (<120s)")


# --- 3: observability gate vs. divergence ---------------------------------------

def test_criterion_03_eco_gate():
    t0 = time.perf_counter()
    cfg = case1(mode="time")
    rep = eco_check(cfg.model, cfg.agents, cfg.topology.N + cfg.model.n)
    tp = sim.run_time_based(cfg).trace_p
    stable = abs(tp[250] - tp[100]) / tp[100]
    ckf = sim.ckf_baseline(cfg).trace_p
    cons = sim.consensus_baseline(cfg).trace_p
    growth_ckf = ckf[250] / ckf[100]
    growth_cons = cons[250] / cons[100]
    elapsed = time.perf_counter() - t0
    ok = (rep.alpha > 0 and rep.alpha_without_constraints < 1e-10
          and stable < 0.01 and growth_ckf >= 10 and growth_cons >= 10
          and elapsed < 30.0)
    assert _verdict(3, "observability gate", ok,
                    f"alpha {rep.alpha:.3e}>0, "
                    f"without {rep.alpha_without_constraints:.1e}<1e-10, "
                    f"filter drift {stable:.2%}<1%, "
                    f"baselines x{growth_ckf:.1f}/x{growth_cons:.1f}>=10, "
                    f"{elapsed:.1f}s (<30s)")


# --- 4: fusion-projection compression --------------------------------------------

def test_criterion_04_round_compression():
    traces, variances = {}, {}
    for L in (1, 2, 4, 8):
        cfg = dataclasses.replace(case1(mode="time", trials=400, seed=1), L=L)
        rm = sim.monte_carlo(cfg)
        traces[L] = rm.trace_p[-1]
        variances[L] = np.mean([rm.constraint_sq[(250, i)] for i in range(3)])
    monotone = all(traces[a] >= traces[b] - 1e-9
                   for a, b in zip((1, 2, 4), (2, 4, 8)))
    drop = variances[8] / variances[1]
    envelope = variances[4] / variances[2]
    ok = monotone and drop <= 0.25 and 0.3 <= envelope <= 0.8
    # The envelope window fails by construction of the scenario: constrained
    # neighbors inject eps-weighted constraint information every round, so the
    # constraint-direction error contracts geometrically per round (three
    # decades from L=2 to L=4), far faster than the 1/L envelope the window
    # encodes.  The covariance-side analogue of the same ratio lands at ~0.43.
    assert _verdict(4, "round compression", ok,
                    f"trace monotone {monotone}, L8/L1 {drop:.2e}<=0.25, "
                    f"L4/L2 {envelope:.2e} in [0.3,0.8]")


# --- 5: bias decay -----------------------------------------------------------------

def test_criterion_05_bias_decay():
    cfg = dataclasses.replace(case1(mode="time", trials=1000, seed=0),
                              x0_hat=np.array([50.0, 50.0, 0.0, 0.0]))
    rm = sim.monte_carlo(cfg)
    ks = np.arange(5, 101)
    logs = np.log(rm.mean_error_norm[5:101])
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    r2 = 1 - np.sum((logs - pred) ** 2) / np.sum((logs - logs.mean()) ** 2)
    ok = slope < 0 and r2 >= 0.8
    assert _verdict(5, "bias decay", ok,
                    f"slope {slope:.4f}<0, R2 {r2:.3f}>=0.8")


# --- 6: event-trigger reproduction ---------------------------------------------------

def test_criterion_06_event_rate_reproduction():
    t0 = time.perf_counter()
    rm = sim.run_event(case1(mode="event", delta=(0.3, 0.4, 0.8)))
    elapsed = time.perf_counter() - t0
    ok = abs(rm.lambda_ - 0.311) <= 0.02 and elapsed < 1.0
    assert _verdict(6, "event-trigger reproduction", ok,
                    f"lambda {rm.lambda_:.4f} vs 0.311 +/- 0.02, "
                    f"{elapsed:.2f}s (<1s)")


# --- 7: threshold monotonicity ---------------------------------------------------------

def test_criterion_07_threshold_monotonicity():
    steady = []
    for d in (0.12, 0.42, 0.57, 0.97, 2.00):
        rm = sim.run_event(case1(mode="event", delta=(d, d, d)))
        tpa = rm.trace_p_agent
        steady.append(np.mean([tpa[50:, i].max() for i in range(3)]))
    monotone = all(a <= b * (1 + 1e-9) for a, b in zip(steady, steady[1:]))
    gap = steady[-1] / steady[0]
    ok = monotone and gap >= 100
    assert _verdict(7, "threshold monotonicity", ok,
                    f"steady traces {['%.3g' % s for s in steady]} "
                    f"non-decreasing {monotone}, span x{gap:.0f}>=100")


# --- 8: rate-bound soundness -------------------------------------------------------------

def _scalar_pair(delta, seed, T=200):
    model = SystemModel(A=[[1.0]], Q=[[1.0]], x0_mean=[0.0], P0=[[2.0]])
    agents = [AgentSpec(H=[[1.0]], R=[[1.0]], D=np.zeros((0, 1)),
                        d=np.zeros(0), delta=delta),
              AgentSpec(H=np.zeros((1, 1)), R=[[1.0]], D=np.zeros((0, 1)),
                        d=np.zeros(0), delta=delta)]
    return ScenarioConfig(model=model, agents=agents,
                          topology=Topology(np.full((2, 2), 0.5)),
                          T=T, mode="event", seed=seed,
                          x0_cov=np.array([[2.0]]))


def _vehicle_unconstrained(delta, seed, T=200):
    A = np.array([[1, 0, 0.1, 0], [0, 1, 0, 0.1], [0, 0, 1, 0], [0, 0, 0, 1.0]])
    Q = np.diag([4.0, 4.0, 1.0, 1.0])
    P0 = np.diag([2.0, 2.0, 2.0, 2.0])
    model = SystemModel(A=A, Q=Q, x0_mean=np.zeros(4), P0=P0)
    H = np.array([[1.0, 0, 0, 0]])
    mk = lambda h: AgentSpec(H=h, R=np.array([[90.0]]), D=np.zeros((0, 4)),
                             d=np.zeros(0), delta=delta)
    agents = [mk(H), mk(np.zeros((1, 4))), mk(H)]
    top = Topology(metropolis_weights(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])))
    return ScenarioConfig(model=model, agents=agents, topology=top, T=T,
                          mode="event", seed=seed, P0_init=P0, x0_cov=P0)


def test_criterion_08_rate_bound_soundness():
    scenarios = [_scalar_pair(4.0, seed) for seed in (0, 1, 2)]
    scenarios += [_scalar_pair(1.2, 3), _scalar_pair(5.0, 4)]
    scenarios += [_vehicle_unconstrained(1.2, 5), _vehicle_unconstrained(3.0, 6)]
    rows = []
    sound = True
    for cfg in scenarios:
        beta, beta_bar = sim.pilot_betas(cfg)
        rep = rate_bound(cfg.agents[0].delta, cfg.model, cfg.agents,
                         cfg.topology, cfg.T, beta, beta_bar)
        lam = sim.run_event(cfg).lambda_
        assert rep.lambda0 is not None, "scenario family must stay feasible"
        sound &= lam <= rep.lambda0 + 1e-12
        rows.append(f"{lam:.3f}<={rep.lambda0:.3f}")

    grid_cfg = _scalar_pair(4.0, 0)
    beta, beta_bar = sim.pilot_betas(grid_cfg)
    grid = [rate_bound(d, grid_cfg.model, grid_cfg.agents, grid_cfg.topology,
                       grid_cfg.T, beta, beta_bar).lambda0
            for d in (1.2, 1.6, 2.0, 3.0, 4.0)]
    nonincreasing = all(a >= b - 1e-12 for a, b in zip(grid, grid[1:]))
    ok = sound and nonincreasing
    assert _verdict(8, "rate-bound soundness", ok,
                    f"{len(scenarios)} scenarios measured<=bound [{', '.join(rows)}], "
                    f"grid {grid} non-increasing {nonincreasing}")


# --- 9: property suites ---------------------------------------------------------------------

def test_criterion_09_property_suites():
    rng = np.random.default_rng(2024)
    failures = []

    # (a) product inequality for ordered PSD pairs: P0 P1^-1 P0 <= P0
    for _ in range(100):
        P0 = oracles.random_psd(rng, 4, jitter=0.0)
        P1 = P0 + oracles.random_psd(rng, 4)
        gap = P0 - P0 @ np.linalg.inv(P1) @ P0
        if np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() < -1e-9:
            failures.append("psd-product")
            break

    # (b) positive-part domination
    for _ in range(100):
        B = rng.standard_normal((4, 4))
        M = 0.5 * (B + B.T)
        Mp = eig_pos(M)
        if (np.linalg.eigvalsh(Mp).min() < -1e-10
                or np.linalg.eigvalsh(Mp - M).min() < -1e-10):
            failures.append("eig-pos")
            break

    # (c) information form of the regularized projection, 1e-8 relative
    for _ in range(100):
        P = oracles.random_psd(rng, 4)
        D = rng.standard_normal((2, 4))
        eps = 10.0 ** rng.uniform(-3, 0)
        rng.standard_normal(4)          # a state, which the check does not read
        _G, _c, P_out = projection_map(P, D, rng.standard_normal(2), eps)
        rhs = np.linalg.inv(P) + D.T @ D / eps
        rel = np.abs(np.linalg.inv(P_out) - rhs).max() / max(1.0, np.abs(rhs).max())
        if rel > 1e-8:
            failures.append("projection-identity")
            break

    # (d) regularized projection sandwiched between exact and none, with the
    # exact projection losing exactly rank(D) directions
    for _ in range(100):
        P = oracles.random_psd(rng, 4)
        D = rng.standard_normal((2, 4))
        rng.standard_normal(4)          # a state, which the check does not read
        _G, _c, P_out = projection_map(P, D, np.zeros(2), 1e-2)
        exact = P - P @ D.T @ np.linalg.inv(D @ P @ D.T) @ D @ P
        lo = np.linalg.eigvalsh(0.5 * ((P_out - exact) + (P_out - exact).T)).min()
        hi = np.linalg.eigvalsh(0.5 * ((P - P_out) + (P - P_out).T)).min()
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (exact + exact.T)))
        zeros = int((np.abs(eigs) < 1e-8 * max(1.0, eigs[-1])).sum())
        if lo < -1e-9 or hi < -1e-9 or zeros != 2:
            failures.append("sandwich")
            break

    # (e) L rounds of {fuse, constrain} on three agents follow the closed-form
    # information recursion with weight-matrix powers, 1e-8 relative
    W = metropolis_weights(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    one_agent = ((1, 1, 1), np.zeros(3, dtype=int))     # ci_maps' edge list
    for _ in range(20):
        L = int(rng.integers(1, 5))
        D_list = [rng.standard_normal((1, 3)), np.zeros((0, 3)),
                  rng.standard_normal((2, 3))]
        eps_list = [0.5, 1.0, 0.25]
        ests = [(rng.standard_normal(3), oracles.random_psd(rng, 3))
                for _ in range(3)]
        omegas0 = [np.linalg.inv(P) for _, P in ests]
        for _r in range(L):
            infos = [np.linalg.inv(P) for _, P in ests]
            rounds = []
            for i in range(3):
                P, C = ci_maps(infos, W[i], one_agent)
                x = sum(C_j @ x_j for C_j, (x_j, _) in zip(C, ests))
                G, c, P = projection_map(P[0], D_list[i],
                                         np.zeros(D_list[i].shape[0]), eps_list[i])
                rounds.append((G @ x + c, P))
            ests = rounds
        expect = oracles.info_after_rounds(omegas0, W, D_list, eps_list, L)
        for (_, P), omega in zip(ests, expect):
            rel = np.abs(np.linalg.inv(P) - omega).max() \
                / max(1.0, np.abs(omega).max())
            if rel > 1e-8:
                failures.append("round-identity")
                break
        if failures and failures[-1] == "round-identity":
            break

    ok = not failures
    assert _verdict(9, "property suites", ok,
                    "all five suites clean" if ok else f"failed: {failures}")


# --- 10: determinism --------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    scn = tmp_path / "case1.scn"
    sim.save_scenario(case1(), str(scn))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["mc", str(scn), "--trials", "1", "--seed", "7",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        outs.append(out)
    identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("metrics.csv", "triggers.csv", "manifest.json", "scenario.scn"))

    logs = [sim.run_event(case1(mode="event", seed=s)).trigger_log
            for s in (0, 123)]
    pattern_fixed = logs[0] == logs[1]
    ok = identical and pattern_fixed
    assert _verdict(10, "determinism", ok,
                    f"repeat bit-identical {identical}, "
                    f"trigger log invariant across noise seeds {pattern_fixed}")
