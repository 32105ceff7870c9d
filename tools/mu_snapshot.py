"""Snapshot mu on a fixed theta grid and the tables, or compare two snapshots.

    PYTHONPATH=src python tools/mu_snapshot.py write after.json
    PYTHONPATH=/path/to/other/checkout/src python tools/mu_snapshot.py write before.json
    python tools/mu_snapshot.py diff before.json after.json

`write` runs mu_upper for every hypothesis mode, refined and l2-only, at each
theta of theta_grid(1/1000, 999/1000, 999): 8000 (mode, refined, theta)
triples, at tol 1e-9 (1e-13 under RH, whose bound is exactly 1 - theta).
It records `upper`, `lower` (as float reprs, so they compare exactly),
`str(witness_exact)` and `active`.  It also records every piece of the A
and A* tables in every mode as `str(lo)`, `str(hi)`, `str(rf)` (None for
-inf) and provenance, so a changed piece beyond every feasible region shows
too.  The package is imported from the Python path, so the same script
snapshots any checkout.  `diff` exits 0 when both files hold the same
triples and tables with identical records, 1 otherwise.

Standard library only; a `write` takes about a minute per checkout.
"""

import json
import sys
import time
from fractions import Fraction

FIELDS = ("upper", "lower", "witness", "active")
SHOWN = 10


def tables() -> dict:
    from shortintervals import HypothesisMode
    from shortintervals.tables import a_table, astar_table

    return {
        f"{mode.value}/{name}": [
            [str(p.lo), str(p.hi), None if p.rf is None else str(p.rf), p.provenance]
            for p in build(mode).pieces
        ]
        for mode in HypothesisMode
        for name, build in (("a", a_table), ("astar", astar_table))
    }


def snapshot() -> dict:
    from shortintervals import HypothesisMode
    from shortintervals.mu import mu_upper, theta_grid

    grid = theta_grid(Fraction(1, 1000), Fraction(999, 1000), 999)
    rows = []
    for mode in HypothesisMode:
        tol = Fraction(1, 10**13) if mode is HypothesisMode.RH else Fraction(1, 10**9)
        for refined in (True, False):
            for theta in grid:
                res = mu_upper(theta, mode, tol, refined)
                rows.append({
                    "mode": mode.value, "refined": refined, "theta": str(theta),
                    "upper": repr(res.upper), "lower": repr(res.lower),
                    "witness": None if res.witness_exact is None else str(res.witness_exact),
                    "active": res.active,
                })
    return {"rows": rows, "tables": tables()}


def _load(path) -> tuple[dict, dict]:
    with open(path) as f:
        snap = json.load(f)
    rows = {(r["mode"], r["refined"], r["theta"]): r for r in snap["rows"]}
    return rows, snap.get("tables", {})


def diff(path_a, path_b) -> int:
    (a, tables_a), (b, tables_b) = _load(path_a), _load(path_b)
    only = set(a) ^ set(b)
    mismatches = [(k, f) for k in sorted(set(a) & set(b)) for f in FIELDS if a[k][f] != b[k][f]]
    empty = sum(1 for k in set(a) & set(b) if a[k]["active"] == b[k]["active"] == "EMPTY")
    print(f"{len(set(a) & set(b))} pairs, {empty} EMPTY on both sides, "
          f"{len(mismatches)} mismatched fields, {len(only)} triples in one file only")
    for k, f in mismatches[:SHOWN]:
        print(f"  {k}: {f} {a[k][f]!r} != {b[k][f]!r}")
    names = sorted(set(tables_a) & set(tables_b))
    pieces = [(name, i, pa, pb) for name in names
              for i, (pa, pb) in enumerate(zip(tables_a[name], tables_b[name]))]
    changed = [t for t in pieces if t[2] != t[3]]
    counts = [name for name in names if len(tables_a[name]) != len(tables_b[name])]
    lone = set(tables_a) ^ set(tables_b)
    print(f"{len(names)} tables, {len(pieces)} pieces, {len(changed)} mismatched pieces, "
          f"{len(counts)} tables with a different piece count, {len(lone)} tables in one file only")
    for name, i, pa, pb in changed[:SHOWN]:
        print(f"  {name} piece {i}: {pa} != {pb}")
    return int(bool(mismatches or only or changed or counts or lone))


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        start = time.perf_counter()
        snap = snapshot()
        with open(argv[1], "w") as f:
            json.dump(snap, f, indent=0)
        print(f"{len(snap['rows'])} triples in {time.perf_counter() - start:.1f} s -> {argv[1]}")
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
