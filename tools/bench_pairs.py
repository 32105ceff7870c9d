"""Benchmark two checkouts against each other in alternating pairs of runs.

    python tools/bench_pairs.py --parent ../parent --change . --out BENCH_6.json \
        --runs curve:601-610 --runs window:611-615 --seconds 16 \
        --claim curve:ops_per_s --traced curve:1 --what "parent abc123 vs this change"

Each checkout is a directory holding a tree of the repository (a fresh
`git archive` export, say).  For every workload and seed given by --runs,
`perfbench/run.py --workload W --seed S --seconds N --trace 0` runs once in
each checkout, one right after the other, and the side that goes first
alternates from seed to seed, so drift in the machine's speed falls on both
sides.  --traced adds one `--trace 1` run per side for a workload and seed.

The output is one JSON file.  For every workload and end-to-end metric of
the change's BENCHMARK.json it holds each side's median and quartiles
(inclusive method), the ratio of the medians (change over parent) and how
many pairs the change won.  --claim names the workload and metric of a
claimed gain; its entry also holds the parent's interquartile range and
whether the claim holds: the change wins at least 9 in 10 pairs and its
median is better than the parent's by more than the parent's IQR.  Every
single run is listed too.

Standard library only; run it with the interpreter the benchmark should use.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIR_SHARE = 0.9  # share of pairs a claimed gain must win


def parse_runs(text: str) -> tuple[str, list[int]]:
    """'curve:601-610' or 'curve:7' -> ('curve', [601, ..., 610])."""
    workload, _, seeds = text.partition(":")
    lo, _, hi = seeds.partition("-")
    return workload, list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in a checkout: its JSON result line plus the run's
    metadata record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed: {proc.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    meta = json.loads(record.read_text())["metadata"]
    return {"workload": workload, "seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "metadata": meta}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list[tuple[dict, dict]], name: str, better: str) -> tuple[dict, int]:
    """Both sides' spread of one metric, the ratio of the medians and the
    pairs the change won."""
    parent = [p["metrics"][name] for p, _ in pairs]
    change = [c["metrics"][name] for _, c in pairs]
    wins = sum(1 for a, b in zip(parent, change) if (b < a if better == "lower" else b > a))
    out = {"parent": spread(parent), "change": spread(change),
           "ratio_change_over_parent": statistics.median(change) / statistics.median(parent)
           if statistics.median(parent) else None,
           "change_better_pairs": f"{wins}/{len(pairs)}"}
    return out, wins


def machine() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if not cpu and cpuinfo.is_file():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", action="append", default=[], type=parse_runs,
                        help="WORKLOAD:FIRST-LAST seeds of alternating untraced pairs")
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--traced", action="append", default=[], type=parse_runs,
                        help="WORKLOAD:SEED of one traced run per side")
    parser.add_argument("--what", default="", help="what the two checkouts are")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, end_to_end, claim = [], {}, None
    for workload, seeds in args.runs:
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            done = {}
            for side in order:
                done[side] = dict(side=side, **run_once(sides[side], workload, seed, args.seconds, 0))
                runs.append(done[side])
                print(f"{side:6s} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in done[side]["metrics"].items()),
                      flush=True)
            pairs.append((done["parent"], done["change"]))
        entry = {}
        for name, better in metrics.items():
            entry[name], wins = compare(pairs, name, better)
            if args.claim == f"{workload}:{name}":
                parent = entry[name]["parent"]
                iqr = parent["q3"] - parent["q1"]
                gain = entry[name]["change"]["median"] - parent["median"]
                gain = -gain if better == "lower" else gain
                claim = {"workload": workload, "metric": name, "better": better,
                         "parent_median": parent["median"],
                         "change_median": entry[name]["change"]["median"],
                         "ratio": entry[name]["ratio_change_over_parent"],
                         "change_better_pairs": entry[name]["change_better_pairs"],
                         "parent_iqr": iqr,
                         "holds": wins >= PAIR_SHARE * len(pairs) and gain > iqr}
        entry["correct"] = all(p["correct"] and c["correct"] for p, c in pairs)
        entry["failed_ops"] = sum(p["failed"] + c["failed"] for p, c in pairs)
        entry["pairs"] = len(pairs)
        end_to_end[workload] = entry
    traced = {}
    for workload, seeds in args.traced:
        for seed in seeds:
            for side in ("parent", "change"):
                rec = dict(side=side, **run_once(sides[side], workload, seed, args.seconds, 1))
                runs.append(rec)
                traced.setdefault(f"{workload}_seed{seed}", {})[side] = rec["metrics"]
    lines = {side: next((r["metadata"].get("src_nonblank_lines") for r in runs
                         if r["side"] == side), None) for side in sides}
    report = {
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace T",
        "seconds": args.seconds,
        "machine": dict(machine(), numpy=runs[0]["metadata"].get("numpy") if runs else None),
        "protocol": "parent and change run one after the other for each seed, alternating "
                    "which goes first; quartiles over each side's runs (inclusive method)",
        "claim": claim,
        "end_to_end": end_to_end,
        "traced": traced,
        "src_nonblank_py_lines": lines,
        "notes": args.note,
        "runs": [{k: v for k, v in r.items() if k != "metadata"} for r in runs],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    if claim is not None:
        print(f"claim {claim['workload']}/{claim['metric']}: ratio {claim['ratio']:.3f}, "
              f"{claim['change_better_pairs']} pairs, parent IQR {claim['parent_iqr']:.4g}, "
              f"holds={claim['holds']}")
    return 0 if all(e["correct"] for e in end_to_end.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
