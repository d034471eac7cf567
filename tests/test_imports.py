"""Import hygiene: the filters and the Monte Carlo run without scipy's
submodules; only the design commands' eigenproblems load `scipy.linalg`.

The checks run in a fresh interpreter, because pytest's own process has
already imported scipy (the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys

import pdkf

SCRIPT = r"""
import contextlib, io, json, sys

def heavy():
    return sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg")))

seen = {}
import pdkf
seen["import pdkf"] = heavy()
from pdkf import cli
seen["import pdkf.cli"] = heavy()
for argv in (["case1", "--trials", "2", "--horizon", "20", "--out", "a"],
             ["mc", "a/scenario.scn", "--trials", "2", "--out", "b"],
             ["run-epdkf", "a/scenario.scn", "--out", "c"],
             ["eco-check", "a/scenario.scn", "--out", "d"],
             ["threshold-bound", "a/scenario.scn", "--out", "e"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[argv[0]] = heavy()
print(json.dumps(seen))
"""


def _loaded_after_each_step(cwd) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(pdkf.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_filters_and_monte_carlo_load_no_scipy_submodule(tmp_path):
    seen = _loaded_after_each_step(tmp_path)
    for step in ("import pdkf", "import pdkf.cli", "case1", "mc", "run-epdkf",
                 "eco-check"):
        assert seen[step] == [], f"{step} loaded {seen[step][:5]}"
    # the design eigenproblems do load it, so the check above can see a load
    assert "scipy.linalg" in seen["threshold-bound"]
