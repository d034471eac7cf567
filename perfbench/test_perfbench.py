"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

pdkf = run._import_program()
from pdkf import analysis, cli, sim  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TEST_WORK = os.path.join(run.WORK, "tests")


def _workdir(name: str) -> str:
    path = os.path.join(TEST_WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _rewrite_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


@pytest.fixture(scope="module")
def mc_event():
    wl = WORKLOADS["mc-case2-n60-event"]
    workdir = _workdir("mc-event")
    wl.generate(3, workdir)
    state = wl.setup(workdir)
    ref = run._load_reference(wl.name)
    result = wl.operation(state)
    return wl, state, ref, result


def test_event_mc_output_passes(mc_event):
    wl, state, ref, result = mc_event
    assert wl.check(state, result, ref, None) == []
    assert wl.event_counts(state, result) == (
        sum(r.count("1") for r in ref["fired"]), ref["lambda"])


@pytest.mark.parametrize("edit, fname", [
    (lambda rows: rows[123].update(fired=str(1 - int(rows[123]["fired"]))),
     "triggers.csv"),
    (lambda rows: rows[40].update(mse="nan"), "metrics.csv"),
    (lambda rows: rows[7].update(trace_p=repr(float(rows[7]["trace_p"]) * (1 + 1e-6))),
     "metrics.csv"),
])
def test_perturbed_output_fails(mc_event, edit, fname):
    wl, state, ref, result = mc_event
    copy = dict(state, out=os.path.join(_workdir("perturbed"), "out"))
    shutil.copytree(state["out"], copy["out"])
    _rewrite_csv(os.path.join(copy["out"], fname), edit)
    assert wl.check(copy, result, ref, None)


def test_online_flipped_broadcast_fails():
    wl = WORKLOADS["online-case2-event"]
    workdir = _workdir("online")
    sim.save_scenario(sim.case2(mode="event", N=20, T=30, trials=1, seed=4,
                                delta=0.4), os.path.join(workdir, "scenario.scn"))
    state = wl.setup(workdir)
    engine = wl.reference_run(state)
    ref = wl.reference_values(state)
    result = wl.operation(state)
    assert wl.check(state, result, ref, engine) == []
    k = next(k for k, f in enumerate(result["fired"]) if f)
    bad = dict(result, fired=list(result["fired"]))
    bad["fired"][k] = set(bad["fired"][k]) ^ {min(bad["fired"][k])}
    assert wl.check(state, bad, ref, engine)
    drift = dict(result, errors=[[v * (1 + 1e-8) for v in e] for e in result["errors"]])
    assert wl.check(state, drift, ref, engine)


def _module_functions() -> dict:
    return {(m, attr): obj for m in ("sim", "filter", "event", "analysis",
                                     "model", "cli")
            for attr, obj in vars(getattr(pdkf, m)).items() if callable(obj)}


def _traced_mc(tracer: Tracer, workdir: str) -> int:
    scn = os.path.join(workdir, "scenario.scn")
    sim.save_scenario(sim.case1(mode="event", trials=5, T=30, seed=1), scn)
    with tracer.active(), tracer.span("bench.operation") as root:
        assert cli.main(["mc", scn, "--out", os.path.join(workdir, "out")]) == 0
    return root


def test_self_times_add_up_to_parent_time():
    tracer = Tracer(pdkf)
    root = _traced_mc(tracer, _workdir("spans"))
    spans, selfs = tracer.spans, tracer.self_times()
    child_sum = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    for idx, (_name, start, end, _parent) in enumerate(spans):
        assert selfs[idx] + child_sum[idx] == pytest.approx(end - start, abs=1e-12)
        assert selfs[idx] >= -1e-12
    tree = tracer.subtree(root)
    assert sum(selfs[i] for i in tree) == pytest.approx(
        spans[root][2] - spans[root][1], abs=1e-9)
    names = {spans[i][0] for i in tree}
    assert {"cli.main", "sim.monte_carlo", "sim.generate_truth",
            "filter.symmetrize", "sim.build_global_constraint"} <= names
    totals = tracer.layer_totals(root)
    # imported names keep the namespace in the span, the home module in totals
    assert "model.build_global_constraint" in totals
    assert totals["cli.main"]["s"] == pytest.approx(spans[root + 1][2] - spans[root + 1][1])


def test_tracer_restores_functions_and_counts_repeat():
    originals = _module_functions()
    calls = []
    for n in range(2):
        tracer = Tracer(pdkf)
        root = _traced_mc(tracer, _workdir(f"repeat{n}"))
        calls.append({k: t["calls"] for k, t in tracer.layer_totals(root).items()})
    assert calls[0] == calls[1]
    assert calls[0]["filter.pinv"] > 0
    assert _module_functions() == originals


def test_recursive_call_counted_once_in_s():
    cfg = sim.case1(T=20)
    tracer = Tracer(pdkf)
    with tracer.active(), tracer.span("bench.operation") as root:
        analysis.rate_bound(1.2, cfg.model, cfg.agents, cfg.topology, 20,
                            0.5, 0.9)
    t = tracer.layer_totals(root)["analysis.rate_bound"]
    assert t["calls"] == 2               # the self-check calls it again
    assert t["s"] == pytest.approx(tracer.spans[root + 1][2] - tracer.spans[root + 1][1])


def test_benchmark_json_matches_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    layer = [f"{k}.{f}" for k, fields in run.LAYER_FIELDS.items() for f in fields]
    layer += ["event.broadcasts", "event.lambda", "trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layer


def test_exits_nonzero_without_program_sources():
    bare = _workdir("bare")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-case1-time",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
