"""The benchmark's workloads: inputs from a seed, set-up, one operation, checks.

Each workload writes its scenario with `sim.save_scenario` from the seed; the
program sees only that file (and, for the CLI workloads, `pdkf` flags).  The
seed sets the scenario's noise seed.  The trigger pattern, `trace_p` and the
design reports do not depend on it, which is what lets `checks` compare them
with fixed reference values for every seed.

Sizes are chosen so that one operation takes 0.5 to 7 s on a 2-core host and a
20 s run holds at least three operations.

`reference_values` computes what `reference.json` holds for a workload; run
`make_reference.py` to rewrite that file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import time

import numpy as np

import checks
from pdkf import analysis, cli, event, filter as filt, sim


def _scenario(workdir: str) -> str:
    return os.path.join(workdir, "scenario.scn")


def _cli(argv: list) -> tuple:
    """`pdkf <argv>` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class MonteCarlo:
    """`pdkf mc` on one scenario file through `cli.main`."""

    def __init__(self, name: str, build):
        self.name, self._build = name, build

    def generate(self, seed: int, workdir: str) -> None:
        sim.save_scenario(self._build(seed), _scenario(workdir))

    def setup(self, workdir: str) -> dict:
        cfg = sim.load_scenario(_scenario(workdir))
        return {"scenario": _scenario(workdir), "out": os.path.join(workdir, "out"),
                "steps": cfg.T, "event": cfg.mode == "event"}

    def reference_run(self, state):
        return None

    def reference_values(self, state) -> dict:
        # trace_p and the trigger pattern do not depend on the trials
        rm = sim.monte_carlo(sim.load_scenario(state["scenario"]), trials=1)
        ref = {"trace_p": [float(v) for v in rm.trace_p]}
        if state["event"]:
            ref["fired"] = checks.fired_rows(rm)
            ref["lambda"] = rm.lambda_
        return ref

    def operation(self, state, tick=None) -> dict:
        code, out = _cli(["mc", state["scenario"], "--out", state["out"]])
        return {"code": code, "stdout": out}

    def check(self, state, result, ref: dict, _engine) -> list:
        if result["code"] != 0:
            return [f"pdkf mc exited {result['code']}"]
        out = state["out"]
        problems = checks.check_metrics_csv(os.path.join(out, "metrics.csv"),
                                            ref["trace_p"])
        if not os.path.exists(os.path.join(out, "manifest.json")):
            problems.append("manifest.json missing")
        if state["event"]:
            problems += checks.check_triggers_csv(
                os.path.join(out, "triggers.csv"), ref["fired"])
            lam = checks.last_lambda(os.path.join(out, "metrics.csv"))
            if lam != ref["lambda"]:
                problems.append(f"lambda_ {lam!r} != reference {ref['lambda']!r}")
            if f"lambda: {ref['lambda']:.6g}\n" not in result["stdout"]:
                problems.append("printed lambda differs from the reference")
        return problems

    def event_counts(self, state, result) -> tuple:
        """(broadcasts, lambda_) of one operation; (0, 0.0) in time mode."""
        if not state["event"]:
            return 0, 0.0
        out = state["out"]
        return (checks.count_fired_csv(os.path.join(out, "triggers.csv")),
                checks.last_lambda(os.path.join(out, "metrics.csv")))


class Design:
    """`pdkf eco-check`, `pdkf threshold-bound` and `pdkf rate-bound` in turn."""

    name = "design-case2"
    DELTA = "1.2"       # at 0.4 rate-bound exits 3: no certified bound
    HORIZON = 250

    def generate(self, seed: int, workdir: str) -> None:
        sim.save_scenario(sim.case2(N=20, seed=seed), _scenario(workdir))

    def setup(self, workdir: str) -> dict:
        sim.load_scenario(_scenario(workdir))
        return {"scenario": _scenario(workdir), "out": os.path.join(workdir, "out"),
                "steps": self.HORIZON}

    def reference_run(self, state):
        return None

    def reference_values(self, state) -> dict:
        reps = self.operation(state)["reports"]
        eco, thr = reps["eco_check"][-1], reps["threshold_bounds"][-1]
        rate = reps["rate_bound"][-1]
        return {"alpha": eco.alpha,
                "alpha_without_constraints": eco.alpha_without_constraints,
                "network_bound": thr.network_bound,
                "per_agent_bound": [float(b) for b in thr.per_agent_bound],
                "T1": list(rate.T1), "T2": list(rate.T2),
                "lambda0": rate.lambda0}

    def operation(self, state, tick=None) -> dict:
        scn, out = state["scenario"], state["out"]
        reports = {}
        saved = {}
        # keep each report the commands compute; the CLI prints them rounded
        for fn in ("eco_check", "threshold_bounds", "rate_bound"):
            saved[fn] = orig = getattr(analysis, fn)
            setattr(analysis, fn, _keep_result(orig, reports, fn))
        try:
            runs = [
                _cli(["eco-check", scn, "--out", os.path.join(out, "eco")]),
                _cli(["threshold-bound", scn, "--out", os.path.join(out, "thr")]),
                _cli(["rate-bound", scn, "--delta", self.DELTA, "--horizon",
                      str(self.HORIZON), "--out", os.path.join(out, "rate")]),
            ]
        finally:
            for fn, orig in saved.items():
                setattr(analysis, fn, orig)
        return {"runs": runs, "reports": reports}

    def check(self, state, result, ref: dict, _engine) -> list:
        codes = [code for code, _ in result["runs"]]
        if codes != [0, 0, 0]:
            return [f"design commands exited {codes}"]
        reps = result["reports"]
        # the outermost rate_bound call returns last (after its self-check)
        problems = checks.check_design(reps["eco_check"][-1],
                                       reps["threshold_bounds"][-1],
                                       reps["rate_bound"][-1], ref)
        if f"lambda0: {ref['lambda0']:.6g}\n" not in result["runs"][2][1]:
            problems.append("printed lambda0 differs from the reference")
        return problems

    def event_counts(self, state, result) -> tuple:
        return 0, 0.0


def _keep_result(fn, store: dict, key: str):
    def keep(*args, **kwargs):
        rep = fn(*args, **kwargs)
        store.setdefault(key, []).append(rep)
        return rep
    return keep


class Online:
    """One `event.epdkf_round` per step, as a step-by-step user drives it."""

    name = "online-case2-event"
    WINDOW = 25     # steps between host-speed samples, about half a second

    def generate(self, seed: int, workdir: str) -> None:
        sim.save_scenario(sim.case2(mode="event", N=20, T=250, trials=1,
                                    seed=seed, delta=0.4), _scenario(workdir))

    def setup(self, workdir: str) -> dict:
        cfg = sim.load_scenario(_scenario(workdir))
        # trial 0 of the documented stream: SeedSequence(seed).spawn(trials)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        X, Y = sim.generate_truth(cfg, rng)
        meas = [[Y[i][k - 1] for i in range(cfg.topology.N)]
                for k in range(1, cfg.T + 1)]
        return {"cfg": cfg, "X": X, "meas": meas, "pairs": cfg.initial_pairs(),
                "steps": cfg.T}

    def reference_run(self, state):
        """The batch engine on the same seed, with the final step recorded."""
        cfg = state["cfg"]
        return sim.run_event(dataclasses.replace(cfg, checkpoints=(cfg.T,)))

    def reference_values(self, state) -> dict:
        rm = self.reference_run(state)
        return {"fired": checks.fired_rows(rm), "lambda": rm.lambda_}

    def operation(self, state, tick=None) -> dict:
        """One pass over the horizon.  `tick`, when given, is called after
        every WINDOW steps and returns a scale for the steps since the
        previous call (see run.HostSpeed); without it the scale is 1."""
        cfg, X = state["cfg"], state["X"]
        states = [filt.AgentState(i, filt.ConsistentEstimate(x, P))
                  for i, (x, P) in enumerate(state["pairs"])]
        trig = [event.TriggerState(x, P, 0, a.delta)
                for (x, P), a in zip(state["pairs"], cfg.agents)]
        args = (cfg.model, cfg.agents, cfg.topology)
        fired, step_s, mse, scale = [], [], [], []
        for k, y in enumerate(state["meas"], start=1):
            t0 = time.perf_counter()
            states, f = event.epdkf_round(states, trig, y, *args, k)
            step_s.append(time.perf_counter() - t0)
            fired.append(f)
            mse.append(float(np.mean([np.sum((s.estimate.x - X[k]) ** 2)
                                      for s in states])))
            if k % self.WINDOW == 0 or k == len(state["meas"]):
                factor = tick() if tick else 1.0
                scale += [factor] * (k - len(scale))
        errors = [(s.estimate.x - X[-1]).tolist() for s in states]
        return {"fired": fired, "errors": errors, "mse": mse, "step_s": step_s,
                "step_scale": scale}

    def check(self, state, result, ref: dict, engine) -> list:
        return checks.check_online(result["fired"], result["errors"],
                                   result["mse"], ref["fired"], engine)

    def event_counts(self, state, result) -> tuple:
        """(broadcasts, lambda_) with lambda_ as `sim` defines it: one minus
        the share of out-edges left silent over the horizon."""
        topo = state["cfg"].topology
        deg = [topo.out_degree0(i) for i in range(topo.N)]
        silent = sum(d for f in result["fired"]
                     for i, d in enumerate(deg) if i not in f)
        return (sum(len(f) for f in result["fired"]),
                1.0 - silent / (len(result["fired"]) * sum(deg)))


WORKLOADS = {w.name: w for w in (
    MonteCarlo(
        "mc-case1-time",
        lambda seed: sim.case1(mode="time", L=2, trials=200, seed=seed)),
    MonteCarlo(
        "mc-case2-n60-event",
        lambda seed: sim.case2(mode="event", N=60, T=60, trials=20, seed=seed,
                               delta=0.4)),
    Design(),
    Online(),
)}
