"""Command-line front end.

Subcommands: eval-a, eval-astar, mu, curve, table-dump, verify, and the
empirical group (sieve, exceptional, zeros-check, explicit-formula, energy,
moments).  Output formats: human (default), csv, json.  Exit codes: 0 ok,
1 usage or failed verification, 2 domain error, 3 non-convergence, 4 I/O.

Identical invocations produce byte-identical output: no timestamps, sorted
JSON keys, repr-exact floats, -inf serialized as the string "-inf".
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import empirical, tables
from .claims import run_claims
from .errors import (
    NonConvergence,
    OrderError,
    OutOfDomain,
    ParseError,
    ShortIntervalsError,
)
from .mu import mu_curve, mu_upper
from .tables import HypothesisMode

ZEROS_ENV = "SHORTINTERVALS_ZEROS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

# table-dump holds every sample in memory before it prints; the ceiling keeps
# that bounded for every value the CLI admits
MAX_DUMP_SAMPLES = 100_000


def parse_exact(text: str) -> Fraction:
    """Exact rational from 'p/q' or a finite decimal string."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact rational: {text!r} ({exc})") from None
    return value


def _exact_arg(text: str) -> Fraction:
    try:
        return parse_exact(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _mode_arg(text: str) -> HypothesisMode:
    try:
        return HypothesisMode.parse(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fnum(x: float) -> str:
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, float):
        return _fnum(obj) if not math.isfinite(obj) else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dump_json(record: dict, out_path: str | None):
    _emit(json.dumps(_jsonable(record), sort_keys=True, allow_nan=False), out_path)


def _zeros_for(args) -> empirical.ZeroSet:
    path = getattr(args, "zeros_file", None) or os.environ.get(ZEROS_ENV)
    if path:
        return empirical.load_zeros(path)
    return empirical.default_zeros()


# --------------------------------------------------------------------------
# subcommand handlers

def _cmd_eval_table(args, which: str) -> int:
    table = (tables.a_table if which == "a" else tables.astar_table)(
        args.mode, args.sigma_cap_n
    )
    value = table.evaluate_upper(args.sigma)
    pieces = table.pieces_at(args.sigma)
    rows = [
        {"formula": str(p.rf) if p.rf is not None else "-inf", "reference": p.provenance}
        for p in pieces
    ]
    rec = {
        "schema": f"eval-{which}/1",
        "sigma": args.sigma,
        "mode": args.mode.value,
        "value": str(value) if not isinstance(value, float) else "-inf",
        "value_float": float(value),
        "rows": rows,
    }
    if args.format == "json":
        _dump_json(rec, None)
    elif args.format == "csv":
        print("sigma,mode,value")
        print(f"{args.sigma},{args.mode.value},{_fnum(float(value))}")
    else:
        name = "A" if which == "a" else "A*"
        print(f"{name}({args.sigma}) [{args.mode.value}] = {rec['value']}"
              f" ~ {_fnum(rec['value_float'])}")
        for r in rows:
            print(f"  row: {r['formula']}   [{r['reference']}]")
    return EXIT_OK


def _mu_record(res) -> dict:
    return {
        "schema": "mu-bound/1",
        "theta": res.theta,
        "mode": res.mode.value,
        "refined": res.refined,
        "upper": res.upper,
        "lower": res.lower,
        "witness_sigma": res.witness_sigma,
        "active": res.active,
        "tol": res.tol,
    }


def _cmd_mu(args) -> int:
    res = mu_upper(
        args.theta,
        args.mode,
        tol=args.tol,
        refined=not args.l2_only,
        pintz_max_n=args.sigma_cap_n,
    )
    if args.format == "json":
        _dump_json(_mu_record(res), None)
    elif args.format == "csv":
        print("theta,mode,refined,upper,lower,witness_sigma,active,tol")
        w = "" if res.witness_sigma is None else repr(res.witness_sigma)
        print(
            f"{res.theta},{res.mode.value},{not args.l2_only},{_fnum(res.upper)},"
            f"{_fnum(res.lower)},{w},{res.active},{res.tol}"
        )
    else:
        kind = "refined (min of both moments)" if not args.l2_only else "second moment only"
        if res.is_empty:
            print(f"mu({res.theta}) [{res.mode.value}, {kind}] = -inf (empty constraint region)")
        else:
            print(f"mu({res.theta}) [{res.mode.value}, {kind}] <= {_fnum(res.upper)}")
            print(f"  certified bracket [{_fnum(res.lower)}, {_fnum(res.upper)}], "
                  f"witness sigma = {_fnum(res.witness_sigma)}, active {res.active}")
    return EXIT_OK


def _cmd_curve(args) -> int:
    pts = mu_curve(
        args.theta_min,
        args.theta_max,
        args.steps,
        args.mode,
        tol=args.tol,
        refined=not args.l2_only,
        pintz_max_n=args.sigma_cap_n,
    )
    if args.format == "json":
        rec = {
            "schema": "mu-curve/1",
            "mode": args.mode.value,
            "refined": not args.l2_only,
            "points": [
                {"theta": p.theta, "mu_upper": p.mu_upper, "gap_exponent": p.gap_exponent}
                for p in pts
            ],
        }
        _dump_json(rec, args.out)
    else:  # csv is the default curve format for files; human mirrors it
        lines = ["theta,mu_upper,gap_exponent"]
        lines += [f"{p.theta},{_fnum(p.mu_upper)},{_fnum(p.gap_exponent)}" for p in pts]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_table_dump(args) -> int:
    if not 1 <= args.samples <= MAX_DUMP_SAMPLES:
        raise OutOfDomain(f"samples must lie in [1, {MAX_DUMP_SAMPLES}], got {args.samples}")
    if args.transcription:
        _emit(tables.transcription_text(args.which).rstrip("\n"), args.out)
        return EXIT_OK
    table = (tables.a_table if args.which == "a" else tables.astar_table)(
        args.mode, args.sigma_cap_n
    )
    pieces = [
        {
            "lo": str(p.lo),
            "hi": str(p.hi),
            "lo_float": float(p.lo),
            "hi_float": float(p.hi),
            "formula": str(p.rf) if p.rf is not None else "-inf",
            "reference": p.provenance,
        }
        for p in table.pieces
    ]
    cap_f = float(table.sigma_cap)
    samples = []
    for p in table.pieces:
        lo_f, hi_f = float(p.lo), float(p.hi)
        n = max(2, int(round(args.samples * (hi_f - lo_f) / cap_f)))
        for k in range(n):
            s = lo_f + (hi_f - lo_f) * k / n
            v = -math.inf if p.rf is None else float(p.rf.eval_exact(Fraction(s)))
            samples.append((s, v))
    if args.format == "csv":
        lines = ["sigma,value"] + [f"{repr(s)},{_fnum(v)}" for s, v in samples]
        _emit("\n".join(lines), args.out)
    else:
        rec = {
            "schema": "table-dump/1",
            "which": args.which,
            "mode": args.mode.value,
            "pieces": pieces,
            "samples": [{"sigma": s, "value": v} for s, v in samples],
        }
        _dump_json(rec, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_claims(args.filter)
    if args.format == "json":
        _dump_json(
            {"schema": "claims/1", "all_pass": report.all_passed,
             "claims": report.records()},
            None,
        )
    elif args.format == "csv":
        print("id,expected,computed,tolerance,pass")
        for r in report.records():
            print(f"{r['id']},{r['expected']},{r['computed']},{r['tolerance']},{r['pass']}")
    else:
        print(report.format_table())
        n_pass = sum(1 for r in report.results if r.passed)
        print(f"\n{n_pass}/{len(report.results)} claims pass")
    return EXIT_OK if report.all_passed else EXIT_USAGE


def _cmd_empirical(args) -> int:
    sub = args.empirical_cmd
    if sub == "sieve":
        sv = empirical.sieve_lambda(args.limit, max_limit=args.max_limit)
        if args.cache:
            sv.save_cache(args.cache)
        rec = {
            "schema": "sieve/1",
            "limit": sv.limit,
            "psi_limit": sv.psi(sv.limit),
            "cache": args.cache,
        }
    elif sub == "exceptional":
        sv = empirical.sieve_lambda(
            int(2 * args.X + float(2 * args.X) ** float(args.theta)) + 2,
            max_limit=args.max_limit,
        )
        scan = empirical.exceptional_measure(sv, args.X, args.theta, args.delta, args.step)
        rec = {
            "schema": "exceptional/1",
            "X": scan.X,
            "theta": args.theta,
            "delta": args.delta,
            "step": scan.step,
            "measure_estimate": scan.measure_estimate,
            "sample_count": scan.sample_count,
            "exceptional_count": scan.exceptional_count,
        }
    elif sub == "zeros-check":
        zs = _zeros_for(args)
        heights = [float(t) for t in (args.T or [100.0, 1000.0, zs.max_T])]
        checks = [
            {
                "T": t,
                "count": zs.count_below(t),
                "main_terms": empirical.riemann_vonmangoldt(t),
            }
            for t in heights
        ]
        rec = {
            "schema": "zeros-check/1",
            "source": os.path.basename(str(zs.source)),
            "count": len(zs),
            "max_T": zs.max_T,
            "checks": checks,
        }
    elif sub == "explicit-formula":
        zs = _zeros_for(args)
        value = empirical.explicit_formula_psi(zs, args.x, args.T)
        rec = {"schema": "explicit-formula/1", "x": args.x, "T": args.T, "value": value}
        if args.compare_sieve:
            sv = empirical.sieve_lambda(int(args.x) + 1, max_limit=args.max_limit)
            rec["psi_sieve"] = sv.psi(args.x)
            rec["abs_error"] = abs(value - rec["psi_sieve"])
    elif sub == "energy":
        zs = _zeros_for(args)
        rec = {
            "schema": "energy/1",
            "T": args.T,
            "ordinates": zs.count_below(args.T),
            "count": empirical.additive_energy(zs, args.T, cap=args.cap),
        }
    elif sub == "moments":
        zs = _zeros_for(args)
        stat = empirical.moment_statistic(
            zs, args.X, args.theta, args.k, args.samples, seed=args.seed
        )
        rec = {
            "schema": "moments/1",
            "X": args.X,
            "theta": args.theta,
            "k": args.k,
            "samples": stat.samples,
            "T": stat.T,
            "mean": stat.mean,
            "std_error": stat.std_error,
        }
    else:  # pragma: no cover
        raise AssertionError(sub)

    if args.format == "json":
        _dump_json(rec, None)
    elif args.format == "csv":
        keys = [k for k in rec if k not in ("schema", "checks", "rows")]
        print(",".join(keys))
        print(",".join(
            _fnum(rec[k]) if isinstance(rec[k], float) else str(rec[k]) for k in keys
        ))
    else:
        for k, v in rec.items():
            if k == "schema":
                continue
            print(f"{k}: {_fnum(v) if isinstance(v, float) else v}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser wiring

def build_parser() -> _Parser:
    # global flags accepted before or after the subcommand: the shared parent
    # uses SUPPRESS defaults so a subparser never clobbers an earlier value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "csv", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--tol", type=_exact_arg, default=argparse.SUPPRESS,
                        help="certification tolerance (exact rational or decimal)")
    common.add_argument("--sigma-cap-n", type=int, default=argparse.SUPPRESS,
                        help="largest family index (5 to %d); sets the table right edge"
                        % tables.MAX_FAMILY_INDEX)

    p = _Parser(prog="shortintervals", description=__doc__.splitlines()[0],
                parents=[common])
    sp = p.add_subparsers(dest="cmd", required=True)

    def sub(name, **kw):
        return sp.add_parser(name, parents=[common], **kw)

    q = sub("eval-a", help="evaluate the zero-density table")
    q.add_argument("--sigma", type=_exact_arg, required=True)
    q.add_argument("--mode", type=_mode_arg, default=HypothesisMode.UNCONDITIONAL)

    q = sub("eval-astar", help="evaluate the additive-energy table")
    q.add_argument("--sigma", type=_exact_arg, required=True)
    q.add_argument("--mode", type=_mode_arg, default=HypothesisMode.UNCONDITIONAL)

    q = sub("mu", help="certified exceptional-set exponent bound")
    q.add_argument("--theta", type=_exact_arg, required=True)
    q.add_argument("--mode", type=_mode_arg, default=HypothesisMode.UNCONDITIONAL)
    q.add_argument("--l2-only", action="store_true",
                   help="drop the fourth-moment term (weaker bound)")

    q = sub("curve", help="bound on a theta grid; figure data")
    q.add_argument("--theta-min", type=_exact_arg, required=True)
    q.add_argument("--theta-max", type=_exact_arg, required=True)
    q.add_argument("--steps", type=int, required=True)
    q.add_argument("--mode", type=_mode_arg, default=HypothesisMode.UNCONDITIONAL)
    q.add_argument("--l2-only", action="store_true")
    q.add_argument("--out", help="write to file instead of stdout")

    q = sub("table-dump", help="table rows plus a dense sampled curve")
    q.add_argument("--which", choices=("a", "astar"), required=True)
    q.add_argument("--mode", type=_mode_arg, default=HypothesisMode.UNCONDITIONAL)
    q.add_argument("--samples", type=int, default=2000)
    q.add_argument("--transcription", action="store_true",
                   help="emit the committed row transcription file verbatim")
    q.add_argument("--out")

    q = sub("verify", help="run the claims ledger; exit 0 iff all pass")
    q.add_argument("--filter", help="only claims whose id starts with this prefix")

    q = sub("empirical", help="desk-scale measurements")
    eq = q.add_subparsers(dest="empirical_cmd", required=True)

    e = eq.add_parser("sieve", parents=[common])
    e.add_argument("--limit", type=int, required=True)
    e.add_argument("--cache", help="write a binary cumulative-psi cache file")
    e.add_argument("--max-limit", type=int, default=empirical.DEFAULT_MAX_LIMIT)

    e = eq.add_parser("exceptional", parents=[common])
    e.add_argument("--X", type=int, required=True)
    e.add_argument("--theta", type=_exact_arg, required=True)
    e.add_argument("--delta", type=_exact_arg, required=True)
    e.add_argument("--step", type=float, default=1.0)
    e.add_argument("--max-limit", type=int, default=empirical.DEFAULT_MAX_LIMIT)

    e = eq.add_parser("zeros-check", parents=[common])
    e.add_argument("--zeros-file", help=f"zeros dataset (default ${ZEROS_ENV} or packaged)")
    e.add_argument("--T", type=float, action="append")

    e = eq.add_parser("explicit-formula", parents=[common])
    e.add_argument("--x", type=float, required=True)
    e.add_argument("--T", type=float, required=True)
    e.add_argument("--zeros-file")
    e.add_argument("--compare-sieve", action="store_true")
    e.add_argument("--max-limit", type=int, default=empirical.DEFAULT_MAX_LIMIT)

    e = eq.add_parser("energy", parents=[common])
    e.add_argument("--T", type=float, required=True)
    e.add_argument("--cap", type=int, default=5000)
    e.add_argument("--zeros-file")

    e = eq.add_parser("moments", parents=[common])
    e.add_argument("--X", type=int, required=True)
    e.add_argument("--theta", type=_exact_arg, required=True)
    e.add_argument("--k", type=int, choices=(1, 2), required=True)
    e.add_argument("--samples", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--zeros-file")
    return p


_GLOBAL_DEFAULTS = {
    "format": "human",
    "tol": Fraction(1, 10**9),
    "sigma_cap_n": tables.DEFAULT_PINTZ_MAX_N,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run one subcommand, mapping errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if args.cmd == "eval-a":
            return _cmd_eval_table(args, "a")
        if args.cmd == "eval-astar":
            return _cmd_eval_table(args, "astar")
        if args.cmd == "mu":
            return _cmd_mu(args)
        if args.cmd == "curve":
            return _cmd_curve(args)
        if args.cmd == "table-dump":
            return _cmd_table_dump(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "empirical":
            return _cmd_empirical(args)
        raise AssertionError(args.cmd)  # pragma: no cover
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ParseError, OrderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShortIntervalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
