"""pdkf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from `src/`
of that checkout, nothing is installed.  One client drives the workload in a
closed loop: each operation starts when the previous one has finished and
been checked.  Operations repeat until `--seconds` have passed (at least
three).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the process exits 1 when an operation
failed its checks.

`--trace 0` reports the end-to-end metrics:
  setup_s      median over 5 fresh processes of the time from process start
               to ready: importing pdkf and loading the scenario (online: also
               drawing the measurements and building the initial states)
  run_s        median wall time of one operation
  step_p50_ms, step_p95_ms
               per-step latency.  Online: one epdkf_round; percentiles over
               the T steps of a pass, each step's latency being its median
               over the passes.  Batch workloads: each operation's time over
               the steps it advances, so the percentiles run over operations
  peak_rss_mb  peak resident set of this process (one process per workload)
Times are scaled to a host of fixed speed (see HostSpeed); the unscaled
medians are printed to stderr.

`--trace 1` alternates untraced and traced operations and reports per-layer
metrics from the traced ones (see tracing.py), with the tracing overhead.
Spans go to perfbench/.work/<workload>/spans.csv.

`--report` runs every workload in its own process with `--trace 0` and prints
each metric with its unit, the failure share and the host facts; it exits 1
when any operation failed.

BLAS/OpenMP pools are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")

MIN_OPS = 3
SETUP_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("step_p50_ms", "ms"),
              ("step_p95_ms", "ms"), ("peak_rss_mb", "MB"))
# per-layer metrics: (module.function, fields); see BENCHMARK.json
LAYER_FIELDS = {
    "sim.generate_truth": ("calls", "self_s"),
    "sim.monte_carlo": ("self_s",),
    "sim.load_scenario": ("s",),
    "sim.write_metrics_csv": ("s",),
    "sim.write_triggers_csv": ("s",),
    "sim.write_manifest": ("s",),
    "sim.save_scenario": ("s",),
    "filter.pinv": ("calls",),
    "filter.symmetrize": ("calls",),
    "filter.predict": ("calls", "self_s"),
    "filter.measurement_update": ("calls", "self_s"),
    "filter.ci_fuse": ("calls", "self_s"),
    "filter.project": ("calls", "self_s"),
    "event.epdkf_round": ("calls", "self_s"),
    "event.trigger_eval": ("calls", "self_s"),
    "event.multi_step_prediction": ("calls", "self_s"),
    "event.resolve_neighbor_pair": ("calls", "self_s"),
    "analysis.rate_bound": ("calls", "self_s"),
    "analysis.delta_correction": ("calls", "self_s"),
    "analysis.eig_pos": ("calls", "self_s"),
    "analysis.solve_T1": ("self_s",),
    "analysis.solve_T2": ("self_s",),
    "analysis.pilot_contraction_factors": ("s",),
    "analysis.threshold_bounds": ("s",),
    "analysis.eco_check": ("s",),
    "model.metropolis_weights": ("s",),
    "model.build_global_constraint": ("calls",),
    "cli.main": ("self_s",),
}


def _import_program():
    """Put this checkout's src/ first on the path and import pdkf from it."""
    if not os.path.isfile(os.path.join(SRC, "pdkf", "__init__.py")):
        sys.exit(f"error: no pdkf sources under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import pdkf
    if os.path.dirname(os.path.dirname(os.path.abspath(pdkf.__file__))) != SRC:
        sys.exit(f"error: pdkf imported from {pdkf.__file__}, not {SRC}")
    return pdkf


def host_facts() -> dict:
    import scipy
    return {"nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _load_reference(name: str) -> dict:
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)[name]


def _fresh_workdir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class HostSpeed:
    """Scales wall times to a host of fixed speed.

    On a shared host the speed of a core drifts by +-20% over tens of
    seconds, which swamps the differences the benchmark must resolve.  A fixed
    loop of the small-matrix numpy calls pdkf itself makes is timed before
    and after every timed interval; the interval's wall time is multiplied by
    REFERENCE_S over the mean of the two loop times.  The result is the
    interval's duration on a host where the loop takes REFERENCE_S seconds.
    """

    REFERENCE_S = 0.1
    ITERATIONS = 8000

    def __init__(self):
        self._A = np.array([[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.2, 0.1],
                            [0.5, 0.2, 2.0, 0.3], [0.0, 0.1, 0.3, 1.5]])
        self.loop_s = [self._loop()]

    def _loop(self) -> float:
        A = self._A
        t0 = time.perf_counter()
        x = A
        for _ in range(self.ITERATIONS):
            x = np.linalg.inv(x) @ A + A
            x = 0.5 * (x + x.T) / np.abs(x).max()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Scale for the interval since the previous loop; runs the next one."""
        self.loop_s.append(self._loop())
        return self.REFERENCE_S / (0.5 * (self.loop_s[-2] + self.loop_s[-1]))


def _setup_seconds(name: str, workdir: str, speed: HostSpeed) -> tuple:
    """Wall times of fresh processes that only set the workload up."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-probe", workdir, "--workload", name],
                       check=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * speed.factor())
    return raw, scaled


class Run:
    """Counts attempted and failed operations; prints problems to stderr."""

    def __init__(self, wl, state, ref, engine):
        self.wl, self.state, self.ref, self.engine = wl, state, ref, engine
        self.attempted = self.failed = 0

    def operation(self, tick=None):
        t0 = time.perf_counter()
        result = self.wl.operation(self.state, tick)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        problems = self.wl.check(self.state, result, self.ref, self.engine)
        if problems:
            self.failed += 1
            print(f"{self.wl.name}: operation {self.attempted} failed:",
                  *problems[:10], sep="\n  ", file=sys.stderr)
        return elapsed, result


def measure(wl, seed: int, seconds: float) -> tuple:
    workdir = _fresh_workdir(wl.name)
    wl.generate(seed, workdir)
    state = wl.setup(workdir)
    run = Run(wl, state, _load_reference(wl.name), wl.reference_run(state))
    speed = HostSpeed()
    setup_raw, setup_s = _setup_seconds(wl.name, workdir, speed)

    op_raw, op_s, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(op_s) < MIN_OPS or time.perf_counter() < deadline:
        elapsed, result = run.operation(speed.factor)
        op_raw.append(elapsed)
        if "step_s" in result:
            # the pass is its steps; each is scaled by its own window's speed
            steps = [s * f for s, f in zip(result["step_s"], result["step_scale"])]
            op_s.append(sum(steps))
            passes.append(steps)
        else:
            op_s.append(elapsed * speed.factor())
    if passes:
        # step k does the same work in every pass: its latency is the median
        # over passes, which drops a step that met a host stall
        step_ms = [1e3 * statistics.median(col) for col in zip(*passes)]
    else:
        step_ms = [1e3 * s / state["steps"] for s in op_s]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(op_s),
        "step_p50_ms": float(np.percentile(step_ms, 50)),
        "step_p95_ms": float(np.percentile(step_ms, 95)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{wl.name}: {len(op_s)} operations, {len(step_ms)} step samples; "
          f"unscaled medians: setup {statistics.median(setup_raw):.4g} s, "
          f"operation {statistics.median(op_raw):.4g} s; speed loop "
          f"{min(speed.loop_s):.4g}-{max(speed.loop_s):.4g} s", file=sys.stderr)
    return run, {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END}


def measure_traced(pdkf, wl, seed: int, seconds: float) -> tuple:
    from tracing import Tracer

    tracer = Tracer(pdkf)
    workdir = _fresh_workdir(wl.name)
    with tracer.active(), tracer.span("bench.setup") as setup_root:
        wl.generate(seed, workdir)
        state = wl.setup(workdir)
    run = Run(wl, state, _load_reference(wl.name), wl.reference_run(state))

    plain_s, traced_s, per_op, counts = [], [], [], set()
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        plain_s.append(run.operation()[0])
        with tracer.active(), tracer.span("bench.operation") as root:
            elapsed, result = run.operation()
        traced_s.append(elapsed)
        per_op.append(tracer.layer_totals(root))
        counts.add(wl.event_counts(state, result))
    tracer.write(os.path.join(workdir, "spans.csv"))

    setup = tracer.layer_totals(setup_root)
    calls = {key: t["calls"] for key, t in per_op[0].items()}
    if any({key: t["calls"] for key, t in op.items()} != calls for op in per_op) \
            or len(counts) != 1:
        run.failed += 1
        print(f"{wl.name}: call counts differ between traced operations",
              file=sys.stderr)

    metrics = {}
    for key, fields in LAYER_FIELDS.items():
        for field in fields:
            base = setup.get(key, {}).get(field, 0)
            if field == "calls":
                value = base + calls.get(key, 0)
            else:
                value = base + statistics.median(
                    op.get(key, {}).get(field, 0.0) for op in per_op)
            unit = "count" if field == "calls" else "s"
            metrics[f"{key}.{field}"] = {"value": value, "unit": unit}
    broadcasts, lam = counts.pop()
    metrics["event.broadcasts"] = {"value": broadcasts, "unit": "count"}
    metrics["event.lambda"] = {"value": lam, "unit": "ratio"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_s) - statistics.median(plain_s),
        "unit": "s"}
    return run, metrics


def report(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    print("host: " + json.dumps(host_facts()))
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 and not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            status = 1
            continue
        res = json.loads(lines[-1])
        frac = res["failed"] / res["attempted"]
        status |= proc.returncode != 0 or frac > 0
        print(f"{name}:")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<12} {m['value']:>12.6g} {m['unit']}")
        print(f"  {'failed_frac':<12} {frac:>12.6g} ratio "
              f"({res['failed']} of {res['attempted']} operations)")
    return int(status)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    pdkf = _import_program()
    from workloads import WORKLOADS

    if args.report:
        return report(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.setup_probe)
        return 0

    print("host: " + json.dumps(host_facts()))
    if args.trace:
        run, metrics = measure_traced(pdkf, wl, args.seed, args.seconds)
    else:
        run, metrics = measure(wl, args.seed, args.seconds)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
