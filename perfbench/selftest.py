"""Self-test of the benchmark: small runs emit every metric with its unit,
traced counts repeat across processes for a seed, and each checker rejects a
deliberately wrong answer, so the correctness gate cannot pass vacuously.

    python3 perfbench/selftest.py

Exit code 0 when every test passes.  Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import run

REPORTED = {
    "curve": ("thetas_per_s", "theta_ms_p50", "theta_ms_p90", "error_rate"),
    "window": ("thetas_per_s", "theta_ms_p50", "theta_ms_p90", "error_rate"),
    "tables": ("lookups_per_s", "lookup_us_p50", "lookup_us_p90", "error_rate"),
    "empirical": ("sieve_s", "energy_s", "moments_s", "error_rate"),
}
# (workload, mode, theta) for refined mu: the supremum sits on a table
# breakpoint, on a feasible-region endpoint inside a piece, and where the two
# moment objectives cross
WITNESS_CASES = (
    ("curve", "unconditional", Fraction(1, 3)),
    ("curve", "unconditional", Fraction(17, 60)),
    ("curve", "unconditional", Fraction(17, 45)),
    ("window", "dh", Fraction(1, 6)),
)

failures = []


def expect(condition, message):
    print(("ok      " if condition else "FAILED  ") + message)
    if not condition:
        failures.append(message)


def test_small_runs():
    e2e, _ = run.declared_metrics()
    for name in REPORTED:
        metrics, report, tally, _ = run.run(name, seed=3, seconds=0.5, trace=0)
        expect(set(metrics) == set(e2e) and all(metrics[k] > 0 for k in metrics),
               f"{name}: every end-to-end metric, all positive")
        expect(all(k in report and report[k][1] for k in REPORTED[name]),
               f"{name}: report names {', '.join(REPORTED[name])} with units")
        expect(tally.failed == 0 and tally.attempted > 0, f"{name}: outputs checked and correct")


def traced_result(name, seed):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_runs():
    """Two processes trace the same seed: every per-layer metric, and the
    counts, which must not depend on timing or hash order, repeat exactly."""
    _, layers = run.declared_metrics()
    repeating = [n for n, u in layers.items() if u == "count"] + [
        "empirical.additive_energy.bytes_computed"]
    for name in REPORTED:
        (code, first), (_, second) = traced_result(name, 3), traced_result(name, 3)
        metrics = first["metrics"]
        expect(code == 0 and first["correct"] and second["correct"], f"{name}: traced outputs correct")
        expect({k: v["unit"] for k, v in metrics.items()} == layers,
               f"{name}: every per-layer metric with its unit")
        diff = [k for k in repeating if metrics[k] != second["metrics"][k]]
        expect(not diff, f"{name}: per-layer counts repeat for one seed {diff or ''}")


def test_wrong_answers():
    si = run.import_package()
    from workloads import Empirical, Tables, WORKLOADS
    import checks

    workloads = {}
    for name, mode, theta in WITNESS_CASES:
        if name not in workloads:
            workloads[name] = WORKLOADS[name](si, seed=5)
            workloads[name].setup()
        w = workloads[name]
        inp = (mode, True, theta, Fraction(1, 10**9))
        r = w.call(inp)
        where = f"{mode} refined mu({theta}), witness {float(r.witness_exact):.6f}"
        expect(not w.check(inp, r), f"{where}: the true bracket passes")
        lowered = SimpleNamespace(is_empty=r.is_empty, lower=r.lower, upper=r.upper - 1e-6,
                                  witness_exact=r.witness_exact)
        expect(bool(w.check(inp, lowered)), f"{where}: upper lowered by 1e-6 is a failure")
        shifted = SimpleNamespace(is_empty=r.is_empty, lower=r.lower - 1e-6,
                                  upper=r.upper - 1e-6, witness_exact=r.witness_exact)
        expect(any("float grid" in e for e in w.check(inp, shifted)),
               f"{where}: a consistent bracket 1e-6 too low is caught by the float grid")
        tally = run.Tally()
        run.run_op(w, inp, tally, call=lambda _: lowered)
        expect(tally.failed == 1, f"{where}: the lowered upper counts as a failed operation")

    expect(not checks.check_energy(1000.0, checks.GOLDEN_ENERGY[1000.0]), "energy: golden passes")
    emp = Empirical(si, seed=5)
    emp.setup()
    inp = ("additive_energy", (1000.0,))
    count = emp.call(inp)
    expect(not emp.check(inp, count), "energy: the computed count passes")
    expect(bool(emp.check(inp, count + 1)), "energy: a count off by one is a failure")

    tables = Tables(si, seed=5)
    tables.setup()
    pw = tables.tables[0][1]
    i = next(k for k in range(1, len(pw.pieces) - 1)
             if pw.pieces[k].rf is not None and pw.pieces[k + 1].rf is not None)
    piece, neighbour = pw.pieces[i], pw.pieces[i + 1]
    s = si.polys.rational_between(piece.lo, piece.hi)
    right = tables.call((0, s))
    wrong = neighbour.rf.eval_exact(s)
    expect(not tables.check((0, s), right), "tables: the true lookup passes")
    expect(bool(tables.check((0, s), wrong)),
           "tables: a value from the neighbouring piece is a failure")


def test_bare_directory():
    """Without the package the benchmark exits non-zero and prints no result."""
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    run.OUT_DIR.mkdir(exist_ok=True)
    test_bare_directory()
    test_wrong_answers()
    test_small_runs()
    test_traced_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
