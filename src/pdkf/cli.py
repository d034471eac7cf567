"""Command-line entry point.

Subcommands: eco-check, run-tpdkf, run-epdkf, threshold-bound, rate-bound,
mc, case1, case2.  The six file commands take the scenario file as their one
positional argument; case1/case2 build a bundled scenario.  Each command
accepts only the flags it reads (`_COMMANDS`), plus --out, so argparse
rejects any other flag with exit 2; `mc`, once the file is read, rejects
the one of --L (time mode) and --delta (event mode) its mode does not read.
Every run writes a manifest (scenario hash, seed, library versions, explicit
overrides) next to its CSV output so it can be reproduced exactly.  Output
directory resolution: --out flag, then $PDKF_OUT, then the current directory.

Exit codes: 0 success, 2 validation/parse failure (an unread flag or an
unknown scenario key included), 3 infeasible analysis preconditions, 1
unexpected crash.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, sim
from .model import _real

EXIT_OK = 0
EXIT_CRASH = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3

# the single-run commands and the filter each runs
_RUN_MODES = {"run-tpdkf": "time", "run-epdkf": "event"}
_BUILTIN = {"case1": sim.case1, "case2": sim.case2}

# every flag a command can read, by argparse dest; eco-check's --horizon is
# its observability window
_FLAGS = {
    "seed": ("--seed", {"type": int}),
    "trials": ("--trials", {"type": int}),
    "L": ("--L", {"type": int}),
    "delta": ("--delta", {"help": "uniform value or comma list, one per agent"}),
    "horizon": ("--horizon", {"type": int, "help": "steps"}),
    "window": ("--horizon", {"type": int, "help": "observability window "
                                                  "(default N + n)"}),
    "kstar": ("--kstar", {"type": int, "help": "threshold-design window "
                                               "(default N + n)"}),
    "beta": ("--beta", {"help": "contraction factor; 'b' or 'b,bbar' "
                                "(default: derived from a pilot run)"}),
}

# each command's help and the flags it reads: only those that can change its
# printed report or CSVs (--L and --horizon reach the design bounds through
# the pilot run that derives beta); argparse rejects any other with exit 2
_COMMANDS = {
    "eco-check": ("report the windowed observability test with and without "
                  "constraint information", "window"),
    "run-tpdkf": ("single run of the time-based filter", "seed L horizon"),
    "run-epdkf": ("single run of the event-triggered filter", "seed delta horizon"),
    "threshold-bound": ("uniform trigger-threshold design bound",
                        "kstar beta L horizon"),
    "rate-bound": ("a-priori communication-rate bound", "delta beta L horizon"),
    "mc": ("Monte Carlo run using the scenario's mode", "seed trials L delta horizon"),
    "case1": ("run the built-in 3-agent road scenario", "seed trials delta horizon"),
    "case2": ("run the built-in 20-agent scenario", "seed trials L horizon"),
}

# scenario overrides: flag dest -> ScenarioConfig field
_OVERRIDES = {"seed": "seed", "trials": "trials", "L": "L", "horizon": "T"}


class _Infeasible(Exception):
    pass


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser of every command, or of argv's command alone when argv
    names one first; its usage line still lists every command, so its help
    and error output is the whole parser's."""
    p = argparse.ArgumentParser(
        prog="pdkf",
        description="Distributed Kalman filtering with state equality "
                    "constraints: simulation and design tools.")
    named = argv[:1] if argv[:1] and argv[0] in _COMMANDS else list(_COMMANDS)
    usage = {"metavar": "{" + ",".join(_COMMANDS) + "}"} if len(named) == 1 else {}
    sub = p.add_subparsers(dest="command", required=True, **usage)
    for name in named:
        help_text, flags = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        if name not in _BUILTIN:
            sp.add_argument("scenario", metavar="SCENARIO", help="scenario file")
        sp.add_argument("--out", help="output directory (default $PDKF_OUT or .)")
        for dest in flags.split():
            flag, kwargs = _FLAGS[dest]
            sp.add_argument(flag, dest=dest, **kwargs)
    return p


def _out_dir(args) -> str:
    out = args.out or os.environ.get("PDKF_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _numbers(flag: str, text: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def _parse_delta(text: str, N: int) -> list:
    vals = _numbers("--delta", text)
    if len(vals) == 1:
        vals = vals * N
    if len(vals) != N:
        raise ValueError(f"--delta needs 1 or {N} values, got {len(vals)}")
    return [_real(v, "--delta", "nonnegative") for v in vals]


def _load_config(args) -> tuple:
    """Scenario from file or the built-in builders, plus the override record.

    A command's parser holds only the flags it reads, so an unset flag and
    one the command does not take look alike here: both are absent or None.
    """
    if args.command in _BUILTIN:
        cfg = _BUILTIN[args.command]()
    elif not os.path.exists(args.scenario):
        raise ValueError(f"scenario file not found: {args.scenario}")
    else:
        cfg = sim.load_scenario(args.scenario)
    if args.command == "mc":
        # the file's mode is known only now: time mode reads --L, event --delta
        unread = "delta" if cfg.mode == "time" else "L"
        if getattr(args, unread) is not None:
            raise ValueError(f"--{unread} has no effect: the scenario runs in "
                             f"{cfg.mode} mode")
    if args.command in _RUN_MODES:
        cfg = dataclasses.replace(cfg, mode=_RUN_MODES[args.command], trials=1)
    overrides: dict = {}
    for dest, field in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            cfg = dataclasses.replace(cfg, **{field: value})
            overrides[dest] = value
    if getattr(args, "delta", None) is not None:
        vals = _parse_delta(args.delta, cfg.topology.N)
        agents = [dataclasses.replace(a, delta=v)
                  for a, v in zip(cfg.agents, vals)]
        cfg = dataclasses.replace(cfg, agents=agents)
        overrides["delta"] = vals
    return cfg, overrides


def _beta_values(args) -> list | None:
    """The one or two values of --beta, checked, or None without it."""
    if args.beta is None:
        return None
    vals = [_real(v, "--beta", "unit") for v in _numbers("--beta", args.beta)]
    if len(vals) > 2:
        raise ValueError("--beta takes one or two comma-separated values")
    return vals


def _parse_beta(args, cfg) -> tuple:
    """(beta, beta_bar) from --beta or from a pilot covariance run."""
    vals = _beta_values(args)
    if vals is None:
        return sim.pilot_betas(cfg)
    return vals[0], (vals[1] if len(vals) == 2 else sim.pilot_betas(cfg)[1])


def _emit(out, cfg, overrides, metrics=None) -> None:
    if metrics is not None:
        sim._require_finite(metrics)
    text = sim.save_scenario(cfg, os.path.join(out, "scenario.scn"))
    sim.write_manifest(os.path.join(out, "manifest.json"), cfg, overrides, text)
    if metrics is not None:
        sim.write_metrics_csv(os.path.join(out, "metrics.csv"), metrics)
        if len(metrics.fired):          # event mode: one trigger row per step
            sim.write_triggers_csv(os.path.join(out, "triggers.csv"), metrics)


def _cmd_eco_check(args, cfg, overrides, out) -> int:
    window = args.window if args.window is not None else cfg.topology.N + cfg.model.n
    rep = analysis.eco_check(cfg.model, cfg.agents, window)
    _emit(out, cfg, overrides)
    wo = "pass" if rep.observable_without_constraints else "fail"
    wi = "pass" if rep.observable_with_constraints else "fail"
    print(f"window: {window}")
    print(f"alpha without constraints: {rep.alpha_without_constraints:.6g} ({wo})")
    print(f"alpha with constraints: {rep.alpha:.6g} ({wi})")
    return EXIT_OK


def _cmd_mc(args, cfg, overrides, out) -> int:
    # a diverging run is reported once, as a ValueError naming its step
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = sim.monte_carlo(cfg)
    _emit(out, cfg, overrides, metrics)
    print(f"trials: {metrics.trials}")
    if cfg.mode == "event":
        print(f"lambda: {metrics.lambda_:.6g}")
    print(f"final mse: {metrics.mse[-1]:.6g}")
    print(f"wrote metrics.csv to {out}")
    return EXIT_OK


def _cmd_threshold(args, cfg, overrides, out) -> int:
    least = cfg.topology.N + cfg.model.n
    kstar = args.kstar if args.kstar is not None else least
    if kstar < least:
        raise ValueError(f"--kstar must be at least N + n = {least}, got {kstar}")
    vals = _beta_values(args)       # the threshold design reads β only
    beta = vals[0] if vals else sim.pilot_betas(cfg)[0]
    try:
        rep = analysis.threshold_bounds(cfg.model, cfg.agents, cfg.topology,
                                        beta, kstar)
    except ValueError as exc:
        raise _Infeasible(str(exc)) from exc
    _emit(out, cfg, dict(overrides, beta=beta, kstar=kstar))
    for i, b in enumerate(rep.per_agent_bound):
        flag = "" if rep.mbar_positive[i] else "  [information sum not PD]"
        print(f"agent {i}: delta < {b:.6g}{flag}")
    print(f"network uniform bound: {rep.network_bound:.6g}")
    return EXIT_OK


def _cmd_rate(args, cfg, overrides, out) -> int:
    deltas = {a.delta for a in cfg.agents}      # --delta is already applied
    if len(deltas) != 1:
        raise ValueError("rate-bound analyzes a uniform threshold; pass a single "
                         "--delta value" if args.delta is not None else
                         "scenario has non-uniform thresholds; pass --delta for "
                         "the uniform analysis")
    delta = deltas.pop()
    beta, beta_bar = _parse_beta(args, cfg)
    try:
        rep = analysis.rate_bound(delta, cfg.model, cfg.agents, cfg.topology,
                                  cfg.T, beta, beta_bar)
    except ValueError as exc:
        raise _Infeasible(str(exc)) from exc
    _emit(out, cfg, dict(overrides, delta=delta, beta=beta,
                         beta_bar=beta_bar, horizon=cfg.T))
    print(f"delta: {delta:.6g}  beta: {beta:.6g}  beta_bar: {beta_bar:.6g}")
    for i in range(cfg.topology.N):
        print(f"agent {i}: T1={rep.T1[i]}  T2={rep.T2[i]}"
              f"{'' if rep.condition1_ok[i] else '  [condition 1 violated]'}")
    if rep.lambda0 is None:
        raise _Infeasible(f"rate bound unavailable: {rep.status} "
                          f"(T1={rep.T1}, T2={rep.T2})")
    print(f"lambda0: {rep.lambda0:.6g}")
    if rep.lambda0_asymptotic is not None:
        print(f"lambda0 (asymptotic): {rep.lambda0_asymptotic:.6g}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        cfg, overrides = _load_config(args)
        run = {"eco-check": _cmd_eco_check, "threshold-bound": _cmd_threshold,
               "rate-bound": _cmd_rate}.get(args.command, _cmd_mc)
        return run(args, cfg, overrides, _out_dir(args))
    except _Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
