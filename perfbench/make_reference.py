"""Rewrite reference.json: the seed-free outputs the checks compare against.

    python3 perfbench/make_reference.py

Only regenerate it when the program's results are meant to change; the file
is what lets the benchmark tell a faster program from a different one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def main() -> int:
    run._import_program()
    from workloads import WORKLOADS

    ref = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as workdir:
        for name, wl in WORKLOADS.items():
            wl.generate(0, workdir)
            ref[name] = wl.reference_values(wl.setup(workdir))
    with open(os.path.join(run.BENCH, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
