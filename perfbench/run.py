"""Benchmark of the shortintervals package: one workload per invocation.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 10 --trace 0

Run from the repository root (the package is imported from ./src).  With
--trace 0 the workload runs untraced for --seconds of operation time and the
end-to-end metrics are reported; with --trace 1 a fixed, seed-determined
number of operations runs once untraced and once with spans around every
layer, and the per-layer metrics are reported.  Every output is checked,
right after its call and outside the timed region.  Human-readable lines go
first; the last line of stdout is the JSON result.  Details, spans and run
metadata are written under .perfbench_out/.  Exit code 1 when any check
failed, 2 when the package is missing.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from statistics import median

from spans import LayerStats, Tracer, self_times, write_spans
from workloads import WORKLOADS, Empirical, Workload, fraction_loop, percentiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 5
# Timing.  Other tenants of a shared machine slow this program by up to 1.8x,
# in stretches from a fraction of a second to minutes, so a wall time moves
# by a fifth between runs while the program stays the same.  Operations run
# in blocks of BLOCK_SECONDS, and the workload's reference loop, which has
# the program's mix of work, is timed before and after each block.  An
# operation's time is its wall time scaled by REFERENCE_S / (the mean of the
# two reference times): its wall time on the machine when nothing else slows
# it.  On the 2-vCPU machine the benchmark was tuned on, the ratio of program
# to reference time held within 2% (exact layers) and 4% (numpy) over 10-s
# windows while the program's own time moved by 20%.
BLOCK_SECONDS = 0.1
SETUP_REFERENCE_LOOPS = 20
SHOWN_ERRORS = 10
SELF_TIME_RESOLUTION = 1e-6  # seconds


def declared_metrics():
    """name -> unit of the end-to-end and of the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_package():
    if not (SRC / "shortintervals" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package under {SRC}; run from a repository checkout\n")
        sys.exit(2)
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import shortintervals

    return shortintervals


def metadata():
    """Run information; recorded, never gated on."""
    import numpy

    src_lines = sum(
        1 for p in sorted(SRC.rglob("*.py")) for line in p.read_text().splitlines() if line.strip()
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_nonblank_lines": src_lines,
    }


# --------------------------------------------------------------------------
# set-up time

def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def setup_reference():
    """The exact layers' reference loop, long enough to average the machine's
    swings over the half second a set-up run takes."""
    for _ in range(SETUP_REFERENCE_LOOPS):
        fraction_loop()


def setup_seconds(runs=SETUP_RUNS):
    """Median time of fresh interpreters that import the package and produce
    a first answer in every mode, each scaled by the reference timed before
    and after it.  The benchmark process has imported the package already,
    so byte-compiled files exist, as for an installed package.  Returns the
    median and the wall times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    cmd = [sys.executable, "-c", "import shortintervals as si, workloads; workloads.first_answers(si)"]
    quiet = SETUP_REFERENCE_LOOPS * Workload.REFERENCE_S
    walls, scaled = [], []
    before = timed(setup_reference)
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        after = timed(setup_reference)
        scaled.append(walls[-1] * quiet / ((before + after) / 2))
        before = after
    return median(scaled), walls


# --------------------------------------------------------------------------
# untraced measurement

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 100:
            self.errors.append(message)


def run_op(workload, inp, tally, call=None):
    """One operation, `workload.call` unless another `call` is given, then
    the check of its output outside the timing; an exception of any kind is
    a failed operation.  Returns the seconds of the call."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        out = (call or workload.call)(inp)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        tally.fail(f"{workload.name}({inp!r}): {type(exc).__name__}: {exc}")
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        errors = workload.check(inp, out)
    except Exception as exc:
        errors = [f"check raised {type(exc).__name__}: {exc}"]
    if errors:
        tally.fail("; ".join(errors))
    return elapsed


def fixed_checks(workload, tally):
    extra = getattr(workload, "fixed_checks", None)
    if extra is None:
        return
    tally.attempted += 1
    try:
        errors = extra()
    except Exception as exc:
        errors = [f"fixed checks raised {type(exc).__name__}: {exc}"]
    if errors:
        tally.fail("; ".join(errors))


def measure(workload, seconds, tally):
    """Operations on fresh inputs until their wall times sum to `seconds`,
    in blocks bracketed by the reference loop.  Returns the kind and the
    scaled time of each operation, and the summed wall time.  Inputs are not
    kept, so the benchmark's own memory hardly grows with the program's
    speed."""
    stream = workload.inputs()
    kinds, scaled, busy = [], array("d"), 0.0
    before = timed(workload.reference)
    while busy < seconds:
        block = []
        while sum(block) < BLOCK_SECONDS:
            inp = next(stream)
            kinds.append(workload.kind(inp))
            block.append(run_op(workload, inp, tally))
        after = timed(workload.reference)
        scale = workload.REFERENCE_S / ((before + after) / 2)
        scaled.extend(t * scale for t in block)
        busy += sum(block)
        before = after
    return kinds, scaled, busy


def end_to_end(si, workload, seconds):
    tally = Tally()
    setup_s, setup_runs = setup_seconds()
    workload.setup()
    kinds, op_s, busy = measure(workload, seconds, tally)
    fixed_checks(workload, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50, p90 = percentiles(op_s)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(op_s) / sum(op_s),
        "op_ms_p90": p90,
        "peak_rss_mb": rss_mb,
    }
    units, _ = declared_metrics()
    report = {name: (value, units[name]) for name, value in metrics.items()}
    report["op_ms_p50"] = (p50, "ms")
    report["ops"] = (len(op_s), "count")
    report["wall_ops_per_s"] = (len(op_s) / busy, "1/s")
    report.update(workload.report(kinds, op_s))
    details = {"setup_wall_s": setup_runs, "busy_s": busy}
    return metrics, report, tally, details


# --------------------------------------------------------------------------
# traced measurement

def clear_caches(si):
    """Drop every functools cache in the package so set-up is built again."""
    for mod in (si.tables, si.mu, si.piecewise, si.polys, si.optimize, si.exact):
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def install_wrappers(tracer, si):
    """Wrap each function where its caller looks it up: mu binds
    feasible_region and certified_sup by name, piecewise calls
    polys.roots_in_closed_interval through the module, and the workloads call
    mu.mu_upper and the empirical functions through their modules."""
    mu = si.mu
    exact_root = si.polys.ExactRoot

    def roots(found):
        n_exact = sum(1 for r in found if isinstance(r, exact_root))
        return {"exact": n_exact, "bracketed": len(found) - n_exact}

    def sup(res):
        empty = res.is_empty
        return {"nodes": getattr(res, "nodes", 0), "nonempty": int(not empty),
                "zero_node": int(not empty and getattr(res, "nodes", 0) == 0)}

    tracer.wrap(mu, "mu_upper", "mu.mu_upper", count=lambda r: {"empty": int(r.is_empty)})
    tracer.wrap(mu, "objective_cells", "mu.objective_cells", count=lambda cells: {
        "cells": len(cells), "objectives": sum(len(c.objectives) for c in cells)})
    tracer.wrap(mu, "feasible_region", "piecewise.feasible_region",
                count=lambda region: {"intervals": len(region)})
    tracer.wrap(mu, "certified_sup", "optimize.certified_sup", count=sup)
    tracer.wrap(si.polys, "roots_in_closed_interval", "polys.roots_in_closed_interval",
                count=roots)
    tracer.wrap(si.piecewise.PiecewiseBound, "evaluate_upper", "piecewise.evaluate_upper")
    for name in Empirical.STEPS:
        tracer.wrap(si.empirical, name, f"empirical.{name}")


def layer_metrics(spans, energy_bytes, energy_peak):
    selfs = self_times(spans)

    def stats(name):
        return LayerStats(spans, selfs, name)

    a, astar = stats("tables.a_table"), stats("tables.astar_table")
    fr, roots = stats("piecewise.feasible_region"), stats("polys.roots_in_closed_interval")
    cells, mu_up = stats("mu.objective_cells"), stats("mu.mu_upper")
    sup, ev = stats("optimize.certified_sup"), stats("piecewise.evaluate_upper")
    out = {
        "tables.a_table.ms": a.ms,
        "tables.astar_table.ms": astar.ms,
        "tables.pieces": a.total("pieces") + astar.total("pieces"),
        "piecewise.feasible_region.calls": fr.calls,
        "piecewise.feasible_region.ms": fr.ms,
        "piecewise.feasible_region.us_p50": fr.us_p50,
        "piecewise.feasible_region.intervals": fr.total("intervals"),
        "polys.roots_in_closed_interval.calls": roots.calls,
        "polys.roots_in_closed_interval.exact": roots.total("exact"),
        "polys.roots_in_closed_interval.bracketed": roots.total("bracketed"),
        "polys.roots_in_closed_interval.ms": roots.ms,
        "mu.objective_cells.self_ms": cells.self_ms,
        "mu.cells": cells.total("cells"),
        "mu.objectives": cells.total("objectives"),
        "mu.empty_thetas": mu_up.total("empty"),
        "optimize.certified_sup.calls": sup.calls,
        "optimize.certified_sup.ms": sup.ms,
        "optimize.certified_sup.us_p50": sup.us_p50,
        "optimize.nodes": sup.total("nodes"),
        "optimize.nodes_max": sup.maximum("nodes"),
        "optimize.nonempty_thetas": sup.total("nonempty"),
        "optimize.zero_node_thetas": sup.total("zero_node"),
        "piecewise.evaluate_upper.calls": ev.calls,
        "piecewise.evaluate_upper.us_p50": ev.us_p50,
        "empirical.additive_energy.bytes_computed": energy_bytes,
        "empirical.additive_energy.peak_bytes": energy_peak,
    }
    for name in Empirical.STEPS:
        out[f"empirical.{name}.ms"] = stats(f"empirical.{name}").ms
    return out, selfs


def traced(si, workload, ops=None):
    """Traced set-up, then the first `ops` inputs, each run once untraced and
    once traced, alternating which goes first so that drift in machine speed
    falls on both sides; the difference of the two summed wall times is the
    tracing overhead."""
    ops = ops or workload.traced_ops
    tally = Tally()
    tracer = Tracer()
    clear_caches(si)
    n = si.tables.DEFAULT_PINTZ_MAX_N
    for name, build in (("tables.a_table", si.tables.a_table),
                        ("tables.astar_table", si.tables.astar_table)):
        for mode in si.HypothesisMode:
            tracer.call(name, build, mode, n, count=lambda t: {"pieces": len(t.pieces)})
    workload.setup()

    def traced_call(inp):
        install_wrappers(tracer, si)
        try:
            return tracer.call("bench.op", workload.call, inp)
        finally:
            tracer.restore()

    stream = workload.inputs()
    first_span = len(tracer.spans)
    untraced_wall = traced_wall = 0.0
    for i in range(ops):
        inp = next(stream)
        if i % 2:
            traced_wall += run_op(workload, inp, tally, traced_call)
        untraced_wall += run_op(workload, inp, tally)
        if not i % 2:
            traced_wall += run_op(workload, inp, tally, traced_call)

    energy_bytes = energy_peak = 0
    if workload.name == "empirical":
        n = workload.zeros.count_below(workload.ENERGY_T)
        calls = sum(1 for s in tracer.spans if s[0] == "empirical.additive_energy")
        energy_bytes = calls * 8 * (2 * n) ** 2
        tracemalloc.start()
        try:
            si.empirical.additive_energy(workload.zeros, workload.ENERGY_T)
            energy_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fixed_checks(workload, tally)
    metrics, selfs = layer_metrics(tracer.spans, energy_bytes, energy_peak)
    metrics.update({
        "trace.ops": ops,
        "trace.wall_ms": 1e3 * traced_wall,
        "trace.untraced_wall_ms": 1e3 * untraced_wall,
        "trace.overhead_ms": 1e3 * (traced_wall - untraced_wall),
        "trace.self_ms_sum": 1e3 * sum(selfs[first_span:]),
    })
    # children nest inside their parent, so no self time is negative beyond
    # clock resolution; a wrapper that mis-parents spans breaks this
    worst = min(selfs, default=0.0)
    if worst < -SELF_TIME_RESOLUTION:
        tally.fail(f"a span's self time is negative: {worst:.3g} s")
    _, units = declared_metrics()
    report = {name: (metrics[name], units[name]) for name in units}
    return metrics, report, tally, {"spans": tracer.spans}


# --------------------------------------------------------------------------

def run(name, seed, seconds, trace, traced_ops=None):
    """Returns (metrics, report, tally, details) for one workload run."""
    si = import_package()
    workload = WORKLOADS[name](si, seed)
    if trace:
        metrics, report, tally, details = traced(si, workload, traced_ops)
    else:
        metrics, report, tally, details = end_to_end(si, workload, seconds)
    report["error_rate"] = (tally.failed / tally.attempted, "1")
    return metrics, report, tally, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metrics, report, tally, details = run(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", details.pop("spans"))
    meta = metadata()

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    for key, (value, unit) in report.items():
        print(f"{key:44s} {value:16.6g} {unit}")
    print(f"attempted {tally.attempted} failed {tally.failed}")
    for message in tally.errors[:SHOWN_ERRORS]:
        print(f"FAILED: {message}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": meta, "details": details,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    units = declared_metrics()[args.trace]
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
