import json
import tracemalloc
from fractions import Fraction as F

import pytest

from shortintervals import cli, empirical, mu, tables
from shortintervals.cli import dispatch, parse_exact
from shortintervals.errors import ParseError


def run(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr().out
    return rc, out


# ----- exact argument parsing --------------------------------------------------

def test_parse_exact_fraction():
    assert parse_exact("17/30") == F(17, 30)


def test_parse_exact_decimal():
    assert parse_exact("0.76") == F(19, 25)
    assert parse_exact("0.25") == F(1, 4)


def test_parse_exact_rejects():
    with pytest.raises(ParseError):
        parse_exact("1/0")
    with pytest.raises(ParseError):
        parse_exact("zeta")


# ----- mu ----------------------------------------------------------------------

def test_mu_json_record(capsys):
    rc, out = run(capsys, "--format", "json", "mu", "--theta", "17/30")
    assert rc == 0
    rec = json.loads(out)
    assert rec["schema"] == "mu-bound/1"
    assert rec["theta"] == "17/30"
    assert rec["active"] == "L4"
    assert abs(rec["upper"] - 0.5833333333333334) < 1e-9


def test_mu_minus_inf_serialization(capsys):
    rc, out = run(capsys, "--format", "json", "mu", "--theta", "0.7", "--mode", "rh")
    assert rc == 0
    rec = json.loads(out)
    assert rec["upper"] == "-inf"
    assert rec["active"] == "EMPTY"


def test_global_flags_accepted_after_subcommand(capsys):
    rc, out = run(capsys, "mu", "--theta", "17/30", "--format", "json")
    assert rc == 0
    assert json.loads(out)["active"] == "L4"
    rc, out = run(capsys, "curve", "--theta-min", "0.2", "--theta-max", "0.3",
                  "--steps", "2", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "theta,mu_upper,gap_exponent"


def test_mu_usage_error(capsys):
    assert dispatch(["mu", "--theta", "not-a-number"]) == 1
    assert dispatch(["mu"]) == 1
    assert dispatch(["no-such-command"]) == 1


def test_mu_domain_error(capsys):
    assert dispatch(["mu", "--theta", "1.5"]) == 2


@pytest.mark.parametrize("tol", ["0", "-1"])
@pytest.mark.parametrize("theta", ["1/2", "3/4"])  # 3/4 is EMPTY
def test_mu_non_positive_tol_is_a_domain_error(capsys, tol, theta):
    assert dispatch(["--tol", tol, "mu", "--theta", theta]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("n", ["0", "-1", "4"])
@pytest.mark.parametrize("mode", ["unconditional", "dh"])
def test_sigma_cap_n_below_the_finite_rows_is_a_domain_error(capsys, n, mode):
    assert dispatch(["--sigma-cap-n", n, "mu", "--theta", "1/2", "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [
    ["mu", "--theta", "1/2"],
    ["curve", "--theta-min", "1/4", "--theta-max", "1/2", "--steps", "2"],
    ["table-dump", "--which", "a"],
])
def test_sigma_cap_n_above_the_ceiling_is_a_domain_error(capsys, command):
    n = str(tables.MAX_FAMILY_INDEX + 1)
    assert dispatch(["--sigma-cap-n", n, *command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


def test_curve_steps_above_the_ceiling_is_a_domain_error(capsys):
    steps = str(mu.MAX_CURVE_STEPS + 1)
    assert dispatch(["curve", "--theta-min", "1/4", "--theta-max", "1/2", "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out


def test_sigma_cap_n_at_the_finite_rows_runs(capsys):
    rc, out = run(capsys, "--sigma-cap-n", "5", "--format", "json", "mu", "--theta", "17/30")
    assert rc == 0
    assert json.loads(out)["active"] == "L4"


def test_mu_convergence_error(capsys):
    rc = dispatch(
        ["--tol", "1/100000000000000000000", "mu", "--theta", "0.5", "--mode", "dh"]
    )
    assert rc == 3
    # positive, though below the smallest double: cannot be met, not a domain error
    tiny = "1/1" + "0" * 400
    assert dispatch(["--tol", tiny, "mu", "--theta", "0.5", "--mode", "dh"]) == 3


# ----- curve -------------------------------------------------------------------

def test_curve_row_count_and_header(capsys):
    rc, out = run(
        capsys, "--format", "csv", "curve",
        "--theta-min", "0.01", "--theta-max", "0.99", "--steps", "98",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,mu_upper,gap_exponent"
    assert len(lines) == 1 + 99
    assert lines[1].startswith("1/100,")
    assert lines[-1].split(",")[1] == "-inf"


def test_curve_round_trip_and_sorted(capsys, tmp_path):
    out_file = tmp_path / "curve.csv"
    rc = dispatch(
        ["--format", "csv", "curve", "--theta-min", "1/5", "--theta-max", "2/5",
         "--steps", "10", "--out", str(out_file)]
    )
    assert rc == 0
    lines = out_file.read_text().strip().splitlines()[1:]
    thetas = [parse_exact(ln.split(",")[0]) for ln in lines]
    assert thetas == sorted(thetas)
    values = [float(ln.split(",")[1]) for ln in lines]
    assert values == sorted(values, reverse=True)


def test_identical_invocations_byte_identical(capsys):
    rc1, out1 = run(capsys, "--format", "json", "mu", "--theta", "0.3")
    rc2, out2 = run(capsys, "--format", "json", "mu", "--theta", "0.3")
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc1, out1 = run(capsys, "--format", "csv", "curve",
                    "--theta-min", "0.2", "--theta-max", "0.3", "--steps", "4")
    rc2, out2 = run(capsys, "--format", "csv", "curve", "--theta-min", "0.2",
                    "--theta-max", "0.3", "--steps", "4")
    assert rc1 == rc2 == 0
    assert out1 == out2


# ----- tables ------------------------------------------------------------------

def test_eval_a_json(capsys):
    rc, out = run(capsys, "--format", "json", "eval-a", "--sigma", "7/10")
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == "30/13"
    assert {r["reference"] for r in rec["rows"]} == {"Ingham", "Guth-Maynard"}


def test_eval_astar_json(capsys):
    rc, out = run(capsys, "--format", "json", "eval-astar", "--sigma", "7/10")
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == "235/39"


def test_eval_a_out_of_domain(capsys):
    assert dispatch(["eval-a", "--sigma", "0.99999"]) == 2


def test_table_dump_json(capsys):
    rc, out = run(capsys, "--format", "json", "table-dump", "--which", "a",
                  "--samples", "200")
    assert rc == 0
    rec = json.loads(out)
    assert rec["schema"] == "table-dump/1"
    assert rec["pieces"][0]["formula"] == "1/(1 - s)"
    assert rec["pieces"][1]["reference"] == "Ingham"
    sigmas = [s["sigma"] for s in rec["samples"]]
    assert sigmas == sorted(sigmas)


def test_table_dump_transcription_export(capsys):
    rc, out = run(capsys, "table-dump", "--which", "astar", "--transcription")
    assert rc == 0
    assert "(539 - sqrt(42121))/460" in out
    assert out.strip().splitlines()[-1].endswith("Heath-Brown")


def test_table_dump_csv_sampled(capsys):
    rc, out = run(capsys, "--format", "csv", "table-dump", "--which", "astar",
                  "--mode", "rh", "--samples", "100")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma,value"
    assert any(ln.endswith(",-inf") for ln in lines[1:])


@pytest.mark.parametrize("samples", [-5, 0, cli.MAX_DUMP_SAMPLES + 1])
def test_table_dump_samples_outside_the_range_is_a_domain_error(capsys, monkeypatch, samples):
    built = []
    monkeypatch.setattr(tables, "a_table", lambda *args: built.append(args))
    assert dispatch(["table-dump", "--which", "a", "--samples", str(samples)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out
    assert not built  # rejected before any table is built or sampled


def test_table_dump_one_sample_runs(capsys):
    rc, out = run(capsys, "--format", "csv", "table-dump", "--which", "a", "--samples", "1")
    assert rc == 0
    assert out.splitlines()[0] == "sigma,value" and len(out.splitlines()) > 1


# ----- verify ------------------------------------------------------------------

def test_verify_filter_exit_zero(capsys):
    rc, out = run(capsys, "verify", "--filter", "table-")
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_json_records(capsys):
    rc, out = run(capsys, "--format", "json", "verify", "--filter", "pintz-")
    assert rc == 0
    rec = json.loads(out)
    assert rec["all_pass"] is True
    assert rec["claims"][0]["id"] == "pintz-jump-59-60"


# ----- empirical ----------------------------------------------------------------

def test_empirical_sieve_and_cache(capsys, tmp_path):
    cache = tmp_path / "c.lams"
    rc, out = run(capsys, "--format", "json", "empirical", "sieve",
                  "--limit", "1000", "--cache", str(cache))
    assert rc == 0
    rec = json.loads(out)
    assert rec["limit"] == 1000
    assert abs(rec["psi_limit"] - 996.68) < 0.01
    assert cache.read_bytes()[:4] == b"LAMS"


def test_empirical_exceptional(capsys):
    rc, out = run(capsys, "--format", "json", "empirical", "exceptional",
                  "--X", "10000", "--theta", "0.7", "--delta", "0.5")
    assert rc == 0
    rec = json.loads(out)
    assert rec["measure_estimate"] == 0
    assert rec["sample_count"] == 10000


def test_empirical_zeros_check(capsys):
    rc, out = run(capsys, "--format", "json", "empirical", "zeros-check",
                  "--T", "100")
    assert rc == 0
    rec = json.loads(out)
    assert rec["checks"][0]["count"] == 29


def test_empirical_zeros_file_io_error(capsys):
    assert dispatch(["empirical", "zeros-check",
                     "--zeros-file", "/no/such/file.txt"]) == 4


def test_empirical_zeros_file_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.1\n13.9\n")
    assert dispatch(["empirical", "zeros-check", "--zeros-file", str(bad)]) == 4


def test_empirical_energy(capsys):
    rc, out = run(capsys, "--format", "json", "empirical", "energy", "--T", "50")
    assert rc == 0
    rec = json.loads(out)
    assert rec["ordinates"] == 10
    assert rec["count"] > 0


def test_empirical_explicit_formula(capsys):
    rc, out = run(capsys, "--format", "json", "empirical", "explicit-formula",
                  "--x", "1000", "--T", "1000", "--compare-sieve")
    assert rc == 0
    rec = json.loads(out)
    assert rec["abs_error"] <= 5.0


def test_empirical_moments(capsys):
    rc, out = run(capsys, "--format", "json", "empirical", "moments",
                  "--X", "100000", "--theta", "0.6", "--k", "1",
                  "--samples", "50")
    assert rc == 0
    rec = json.loads(out)
    assert rec["mean"] > 0 and rec["std_error"] >= 0


MOMENTS = ["empirical", "moments", "--X", "100000", "--theta", "0.6", "--k", "1", "--samples"]
SIEVE = ["empirical", "sieve", "--limit", "1000", "--max-limit"]


@pytest.mark.parametrize("argv", [
    MOMENTS + ["0"],
    MOMENTS + [str(empirical.MAX_MOMENT_SAMPLES + 1)],
    SIEVE + ["0"],
    SIEVE + [str(empirical.DEFAULT_MAX_LIMIT + 1)],
], ids=["samples-0", "samples-ceiling+1", "max-limit-0", "max-limit-ceiling+1"])
def test_empirical_guards_outside_their_range_are_domain_errors(capsys, monkeypatch, argv):
    # rejected before any array is built: the peak stays far below the
    # 16 MB of a moment sample at the ceiling
    monkeypatch.delenv("SHORTINTERVALS_ZEROS", raising=False)
    tracemalloc.start()
    try:
        rc = dispatch(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith("error:") and not captured.out
    assert peak < 2 * 1024 * 1024, peak


def test_env_var_zeros_path(capsys, tmp_path, monkeypatch):
    p = tmp_path / "z.txt"
    p.write_text("14.134725\n21.022040\n")
    monkeypatch.setenv("SHORTINTERVALS_ZEROS", str(p))
    rc, out = run(capsys, "--format", "json", "empirical", "zeros-check")
    assert rc == 0
    rec = json.loads(out)
    assert rec["count"] == 2
