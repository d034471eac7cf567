"""Import hygiene: the filters, the Monte Carlo and the baselines run without
scipy's submodules; only the design commands' eigenproblems load `scipy.linalg`.
No step loads a third-party package that numpy and scipy do not load
themselves: the scenario file is JSON, read by the standard library.

The checks run in a fresh interpreter, because pytest's own process has
already imported scipy (the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys

import pytest

import pdkf

SCRIPT = r"""
import contextlib, io, json, sys

seen = {}
import pdkf
seen["import pdkf"] = sorted(sys.modules)
from pdkf import cli
seen["import pdkf.cli"] = sorted(sys.modules)
# before the design commands, which load scipy.linalg
short = pdkf.case1(mode="time", trials=2, T=20)
for baseline in (pdkf.ckf_baseline, pdkf.consensus_baseline):
    baseline(short)
    seen[baseline.__name__] = sorted(sys.modules)
for argv in (["case1", "--trials", "2", "--horizon", "20", "--out", "a"],
             ["mc", "a/scenario.scn", "--trials", "2", "--out", "b"],
             ["run-epdkf", "a/scenario.scn", "--out", "c"],
             ["eco-check", "a/scenario.scn", "--out", "d"],
             ["threshold-bound", "a/scenario.scn", "--out", "e"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[argv[0]] = sorted(sys.modules)
print(json.dumps(seen))
"""

# what the two runtime dependencies load on their own, with the design
# commands' scipy.linalg and the manifest's importlib.metadata
DEPENDENCIES = r"""
import importlib.metadata, json, sys, numpy, scipy.linalg
print(json.dumps(sorted(sys.modules)))
"""


def _run(script, cwd):
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdkf.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded_after_each_step(tmp_path_factory) -> dict:
    return _run(SCRIPT, tmp_path_factory.mktemp("steps"))


def test_filters_and_monte_carlo_load_no_scipy_submodule(loaded_after_each_step):
    seen = {step: [m for m in mods if m.startswith(("scipy.sparse", "scipy.linalg"))]
            for step, mods in loaded_after_each_step.items()}
    for step in ("import pdkf", "import pdkf.cli", "case1", "mc", "run-epdkf",
                 "eco-check", "ckf_baseline", "consensus_baseline"):
        assert seen[step] == [], f"{step} loaded {seen[step][:5]}"
    # the design eigenproblems do load it, so the check above can see a load
    assert "scipy.linalg" in seen["threshold-bound"]


def test_no_step_loads_a_package_beyond_numpy_and_scipy(loaded_after_each_step,
                                                         tmp_path):
    def packages(mods):
        return {m.partition(".")[0] for m in mods}

    allowed = (packages(_run(DEPENDENCIES, tmp_path)) | {"pdkf"}
               | set(sys.stdlib_module_names))
    for step, mods in loaded_after_each_step.items():
        assert packages(mods) - allowed == set(), step


# every class and function `from pdkf import *` binds
PUBLIC = ["AgentSpec", "AgentState", "ConsistentEstimate", "EcoReport", "GlobalConstraint",
          "RateReport", "RunMetrics", "ScenarioConfig", "SystemModel", "ThresholdReport",
          "Topology", "TriggerState", "build_global_constraint", "case1", "case2", "ci_maps",
          "ckf_baseline", "compute_beta", "compute_beta_bar", "consensus_baseline",
          "constraint_error", "eco_check", "eig_pos", "epdkf_round", "generate_truth",
          "init_consistent", "kalman_gain", "load_scenario", "metropolis_weights",
          "monte_carlo", "pilot_contraction_factors", "projection_map", "rate_bound",
          "run_event", "run_time_based", "save_scenario", "space_decomposition",
          "threshold_bounds", "tpdkf_round", "trigger_from_info"]


def test_star_import_binds_the_public_names_and_no_submodule():
    ns = {}
    exec("from pdkf import *", ns)
    for module in ("filter", "model", "event", "analysis", "sim"):
        assert module not in ns, module
    assert sorted(set(ns) - {"__builtins__"}) == sorted(PUBLIC)
    # the builtin `filter` is not shadowed by the submodule
    assert list(eval("filter(None, [0, 1])", ns)) == [1]
