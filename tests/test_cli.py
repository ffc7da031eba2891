import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynctl.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_subcommand_json(capsys):
    code, out, _ = run_cli(
        ["orbit", "--map", "x^4/(x^2-2)^2", "--point", "3/2", "--s", "", "--ncap", "6"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integral_indices"] == [1]
    assert payload["points"][1] == "81"
    assert payload["truncation"] == "iteration_cap"
    assert payload["exact"] is False


def test_orbit_keeps_the_whole_record_where_a_count_would_cut(capsys):
    # A count-only scan of this orbit stops at the basepoint (certified tail);
    # orbit prints every point up to the budget instead.
    from dynctl.orbits import scan_orbit
    from dynctl.parsing import parse_map
    from dynctl.points import EMPTY_S, ProjPointQ, Truncation

    m = parse_map("(x-1)/(x^3+1)").to_rational_map()
    cut = scan_orbit(m, ProjPointQ(10**6, 1), EMPTY_S, n_cap=4, count_only=True)
    assert cut.truncation is Truncation.CERTIFIED_TAIL and len(cut.points) == 1
    code, out, _ = run_cli(["orbit", "--map", "(x-1)/(x^3+1)", "--point", "1000000",
                            "--s", "", "--ncap", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["truncation"] == "iteration_cap" and len(payload["points"]) == 5
    assert payload["integral_indices"] == [0] and payload["exact"] is False


def test_orbit_csv_schema(capsys):
    code, out, _ = run_cli(
        ["orbit", "--map", "x^2", "--point", "0", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: dynctl.orbit.v1"
    assert lines[1] == "n,point,integral"


def test_canheight_subcommand(capsys):
    import math

    code, out, _ = run_cli(["canheight", "--map", "x^2", "--point", "2", "--tol", "1e-6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - math.log(2)) <= payload["radius"]


def test_preper_subcommand(capsys):
    code, out, _ = run_cli(["preper", "--map", "x^2-1", "--point", "0"], capsys)
    assert code == 0
    assert json.loads(out)["preperiodic"] is True


def test_density_csv_decreasing(capsys):
    code, out, _ = run_cli(
        ["density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "10,20,40", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: dynctl.density.v1"
    ratios = [float(row.split(",")[3]) for row in lines[2:]]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_nmax_subcommand(capsys):
    code, out, _ = run_cli(
        ["nmax", "--map", "pell(2)", "--s", "", "--b", "5", "--height-budget-bits", "10000"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n_emp"] == 1


def test_error_json_on_bad_map(capsys):
    code, out, err = run_cli(["orbit", "--map", "x^2/", "--point", "2"], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ParseError"


def test_error_json_on_degenerate_map(capsys):
    code, _, err = run_cli(["orbit", "--map", "x^2/x^2", "--point", "2"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "DegenerateMapError"


@pytest.mark.parametrize("args", [
    ["nmax", "--map", "(x+1)/(x+2)", "--s", "", "--b", "10", "--workers", "2"],
    ["preper", "--map", "(x+1)/(x+2)", "--point", "3"],
], ids=["nmax", "preper"])
def test_degree_one_map_is_refused_before_any_point(args, monkeypatch, capsys):
    import dynctl.orbits as orbits_mod

    def no_enumeration(bound):
        raise AssertionError("points were enumerated for a degree-1 map")

    monkeypatch.setattr(orbits_mod, "enumerate_points", no_enumeration)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": "canonical heights need a map of degree >= 2"}


@pytest.mark.parametrize("args, estimate", [
    (["density", "--map", "x^2", "--s", "", "--b", "10,1000000"], "2000001000001"),
    (["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "", "--b", "30"],
     "4611686016279904256"),
], ids=["density", "ffavg"])
def test_enumeration_over_its_limit_is_refused_before_it_starts(args, estimate, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SizeBudgetExceededError"
    assert f" {estimate} " in payload["message"]


def test_density_over_the_enumeration_limit_starts_no_pool(monkeypatch, capsys):
    import dynctl.orbits as orbits_mod
    from dynctl.errors import SizeBudgetExceededError
    from dynctl.points import enumerate_points

    def no_pool(*args, **kwargs):
        raise AssertionError("map_chunks ran for a bound over the enumeration limit")

    monkeypatch.setattr(orbits_mod, "map_chunks", no_pool)
    code, out, err = run_cli(["density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "4472",
                              "--workers", "2"], capsys)
    assert code == 1
    assert out == ""
    with pytest.raises(SizeBudgetExceededError) as refused:
        enumerate_points(4472)
    assert json.loads(err) == {"error": "SizeBudgetExceededError",
                               "message": str(refused.value)}


@pytest.mark.parametrize("args, count", [
    (["avg3", "--b", "5,1000"], "8012006001"),
    (["avg3", "--n1", "1000000000", "--b", "5"], "3000000036"),
    (["orbit", "--map", "x+1", "--point", "0", "--ncap", "1000000000"], "1000000001"),
    (["orbit", "--map", "x^2", "--point", "2", "--height-budget-bits", "1000000000"],
     "1000000000"),
], ids=["avg3-box", "avg3-exponent", "orbit-ncap", "orbit-height-budget"])
def test_avg3_and_orbit_over_their_limits_are_refused_before_any_work(args, count,
                                                                       monkeypatch, capsys):
    import dynctl.families as families_mod
    import dynctl.orbits as orbits_mod

    def no_work(*args):
        raise AssertionError("work started before the limit was checked")

    monkeypatch.setattr(families_mod, "three_param_family", no_work)
    monkeypatch.setattr(orbits_mod, "evaluate", no_work)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SizeBudgetExceededError"
    assert f" {count} " in payload["message"]


def test_nmax_deterministic_across_workers(capsys):
    args = ["nmax", "--map", "pell(2)", "--s", "", "--b", "20", "--height-budget-bits", "10000"]
    _, out1, _ = run_cli(args + ["--workers", "1"], capsys)
    _, out2, _ = run_cli(args + ["--workers", "2"], capsys)
    assert out1 and out1 == out2


def test_density_single_bound_slope_null(capsys):
    code, out, err = run_cli(
        ["density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "10"], capsys
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["hits"] == [3]
    assert payload["loglog_slope"] is None


def test_density_slope_null_when_a_ratio_is_zero():
    from dynctl.orbits import DensityReport

    report = DensityReport((10, 20), (0, 2), (128, 512), (0.0, 2 / 512), False, 0)
    assert report.loglog_slope() is None


def test_unexpected_exception_becomes_error_json(monkeypatch, capsys):
    import dynctl.cli as cli_mod

    def crash(args):
        return 1 // 0

    monkeypatch.setattr(cli_mod, "cmd_density", crash)
    code, out, err = run_cli(["density", "--map", "x^2", "--s", "", "--b", "10"], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "ZeroDivisionError"


@pytest.mark.parametrize("flag, value", [
    ("--ncap", "-1"),
    ("--height-budget-bits", "0"),
    ("--workers", "0"),
])
def test_numeric_flag_below_minimum_rejected(flag, value, capsys):
    code, out, err = run_cli(
        ["nmax", "--map", "pell(2)", "--s", "", "--b", "3", flag, value], capsys
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert flag in payload["message"]


@pytest.mark.parametrize("args", [
    ["nmax", "--map", "pell(2)", "--s", "", "--b", "3", "--ncap", "100001"],
    ["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "", "--b", "1",
     "--ncap", "100001"],
    ["nmax", "--config", "ncap.cfg", "--map", "pell(2)", "--s", "", "--b", "3"],
], ids=["nmax", "ffavg", "nmax-config"])
def test_ncap_over_its_limit_is_refused_before_any_work(args, tmp_path, monkeypatch, capsys):
    import dynctl.funcfield as funcfield_mod
    import dynctl.orbits as orbits_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap was checked")

    monkeypatch.setattr(orbits_mod, "enumerate_points", no_work)
    monkeypatch.setattr(funcfield_mod, "enumerate_ff_elements", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ncap.cfg").write_text("ncap=100001\n")
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SizeBudgetExceededError"
    assert " 100002 " in payload["message"]


def test_numeric_flag_from_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ncap=-1\n")
    code, out, err = run_cli(
        ["nmax", "--config", str(cfg), "--map", "pell(2)", "--s", "", "--b", "3"], capsys
    )
    assert code == 1
    assert out == ""
    assert "--ncap" in json.loads(err)["message"]


FFAVG_B1 = ["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "", "--b", "1"]


def assert_usage_error(code, out, err, *fragments):
    assert code == 2
    assert out == ""
    assert "usage:" not in err
    payload = json.loads(err)
    assert payload["error"] == "UsageError"
    for fragment in fragments:
        assert fragment in payload["message"]


def test_ffavg_has_no_height_budget_flag(capsys):
    code, out, err = run_cli(FFAVG_B1 + ["--height-budget-bits", "5"], capsys)
    assert_usage_error(code, out, err, "--height-budget-bits")


@pytest.mark.parametrize("args, fragment", [
    (["orbit", "--map", "x^2", "--point", "2", "--bogus", "1"], "--bogus"),
    (["orbit", "--point", "2"], "--map"),
    (["orbit", "--map", "x^2", "--point", "2", "--ncap", "x"], "--ncap"),
    ([], "subcommand"),
])
def test_argparse_rejections_become_one_json_error(args, fragment, capsys):
    assert_usage_error(*run_cli(args, capsys), fragment)


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dynctl orbit")


@pytest.mark.parametrize("args, flag", [
    (["orbit", "--map", "x^2", "--point", "2", "--workers", "2"], "--workers"),
    (["canheight", "--map", "x^2", "--point", "2", "--workers", "2"], "--workers"),
    (["preper", "--map", "x^2", "--point", "2", "--workers", "2"], "--workers"),
    (FFAVG_B1 + ["--workers", "2"], "--workers"),
    (["verify", "--workers", "2"], "--workers"),
    (["orbit", "--map", "x^2", "--point", "2", "--seed", "1"], "--seed"),
    (["nmax", "--map", "x^2", "--b", "2", "--seed", "1"], "--seed"),
    (["canheight", "--map", "x^2", "--point", "2", "--format", "csv"], "--format"),
    (["preper", "--map", "x^2", "--point", "2", "--format", "csv"], "--format"),
    (["nmax", "--map", "x^2", "--b", "2", "--format", "csv"], "--format"),
])
def test_flags_a_subcommand_does_not_read_are_rejected(args, flag, capsys):
    assert_usage_error(*run_cli(args, capsys), flag)


def test_config_key_of_another_subcommand_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("height_budget_bits=0\nworkers=0\ntol=junk\n")
    code, out, err = run_cli(FFAVG_B1 + ["--config", str(cfg), "--format", "csv"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[2] == "1,6,2,0.3333333333333333"


def test_config_key_no_subcommand_has_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ncpa=3\n")
    code, out, err = run_cli(
        ["nmax", "--config", str(cfg), "--map", "pell(2)", "--s", "", "--b", "3"], capsys
    )
    assert_usage_error(code, out, err, "ncpa")


def test_config_value_checked_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=csv\n")
    code, out, err = run_cli(["preper", "--config", str(cfg), "--map", "x^2", "--point", "2"],
                             capsys)
    assert_usage_error(code, out, err, "format")
    cfg.write_text("ncap=x\n")
    code, out, err = run_cli(["orbit", "--config", str(cfg), "--map", "x^2", "--point", "2"],
                             capsys)
    assert_usage_error(code, out, err, "--ncap")


def test_config_before_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ncap=2\n")
    code, out, _ = run_cli(
        ["--config", str(cfg), "orbit", "--map", "x^4/(x^2-2)^2", "--point", "3/2"], capsys
    )
    assert code == 0
    assert len(json.loads(out)["points"]) == 3


def test_avg_deterministic_across_workers(capsys):
    args = ["avg", "--map", "pell(2)", "--beta", "t", "--s", "", "--b", "5,10",
            "--height-budget-bits", "10000", "--format", "csv"]
    _, out1, _ = run_cli(args + ["--workers", "1"], capsys)
    _, out2, _ = run_cli(args + ["--workers", "2"], capsys)
    assert out1 == out2


def test_verify_exit_zero(capsys):
    code, out, _ = run_cli(["verify", "--format", "json", "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "phi_t.second_iterate_resultant" in names
    assert "cube_sum.height_bound" in names


def test_verify_deterministic_given_seed(capsys):
    _, out1, _ = run_cli(["verify", "--format", "json", "--seed", "7"], capsys)
    _, out2, _ = run_cli(["verify", "--format", "json", "--seed", "7"], capsys)
    assert out1 == out2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ncap=2\nformat=json\n")
    code, out, _ = run_cli(
        ["orbit", "--config", str(cfg), "--map", "x^4/(x^2-2)^2", "--point", "3/2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 3  # n_cap = 2 from the config file


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["preper", "--map", "x^2", "--point", "5", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["preperiodic"] is False


def test_avg_family_case(capsys):
    code, out, _ = run_cli(
        ["avg", "--map", "phi_t", "--beta", "t^3+2", "--s", "", "--b", "3,6",
         "--height-budget-bits", "10000"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["excluded"] == [2, 2]  # t = -1 and t = infinity
    assert payload["averages"][1] <= payload["averages"][0] + 1e-12


@pytest.mark.parametrize("param", ["t", "f"])
def test_avg_over_an_empty_population_reports_null(param, capsys):
    # x^2 + c has a polynomial second iterate at every c, so every parameter
    # is excluded; the averages of an empty population are null, not an error.
    args = ["avg", "--map", f"x^2+{param}", "--beta", "t", "--s", "", "--b", "1,2"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["population"] == [0, 0] and payload["excluded"] == [4, 8]
    assert payload["averages"] == [None, None]
    assert payload["truncated_fractions"] == [None, None]
    code, out, err = run_cli(args + ["--format", "csv"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == ["1,0,0,,", "2,0,0,,"]


def test_avg_over_a_family_in_f_matches_the_family_in_t(capsys):
    args = ["--beta", "t", "--s", "", "--b", "2,3", "--height-budget-bits", "10000"]
    code_f, out_f, err_f = run_cli(["avg", "--map", "(x-f)/(x^3+1)", *args], capsys)
    code_t, out_t, _ = run_cli(["avg", "--map", "(x-t)/(x^3+1)", *args], capsys)
    assert code_f == code_t == 0 and err_f == ""
    payload_f, payload_t = json.loads(out_f), json.loads(out_t)
    assert payload_f.pop("map") == "(x-f)/(x^3+1)"
    assert payload_t.pop("map") == "(x-t)/(x^3+1)"
    assert payload_f == payload_t


def test_canheight_rejects_family_expression(capsys):
    code, _, err = run_cli(["canheight", "--map", "phi_t", "--point", "2"], capsys)
    assert code == 1
    assert "parameters" in json.loads(err)["message"]


def test_density_deterministic_across_workers(capsys):
    args = ["density", "--map", "pell(2)", "--s", "", "--b", "5,10", "--format", "csv"]
    _, out1, _ = run_cli(args + ["--workers", "1"], capsys)
    _, out2, _ = run_cli(args + ["--workers", "2"], capsys)
    assert out1 == out2


def test_ffavg_subcommand(capsys):
    code, out, _ = run_cli(
        ["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,0,0,0,1", "--s", "",
         "--b", "1,2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: dynctl.ffavg.v1"
    assert len(lines) == 4


def test_ffavg_checks_p_before_it_tests_s_for_irreducibility(monkeypatch, capsys):
    import dynctl.funcfield as funcfield_mod

    def no_s_check(f):
        raise AssertionError("S was tested for irreducibility before p was checked")

    monkeypatch.setattr(funcfield_mod, "is_irreducible", no_s_check)
    code, out, err = run_cli(["ffavg", "--p", "1000003", "--d", "2", "--beta-coeffs",
                              "0,0,0,0,1", "--s", "t^4+t+1", "--b", "1"], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "p must be a prime <= 97"}


@pytest.mark.parametrize("args, message", [
    (["nmax", "--map", "phi_t", "--b", "3"],
     "the map has parameters t: a family runs under avg, the (r, s, t) box under avg3"),
    (["avg", "--map", "three_param", "--beta", "t", "--b", "2"],
     "avg sweeps one-parameter families; the (r, s, t) box runs under avg3"),
])
def test_family_under_the_wrong_subcommand_names_the_right_one(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_avg_beta_in_x_is_one_json_error(capsys):
    for beta in ("x", "f"):
        code, out, err = run_cli(["avg", "--map", "x^2+1", "--beta", beta, "--b", "2"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "DynctlError",
                                   "message": "beta must be a function of the parameter only"}


def test_avg_refuses_a_beta_not_in_lowest_terms(capsys):
    # (t^2 - 1)/(t - 1) is [0 : 0] at t = 1, and t/t is the constant 1: the
    # forms of each share a root (Res = 0), so each is one JSON error, as a
    # map with Res = 0 is.
    for beta in ("(t^2-1)/(t-1)", "t/t"):
        code, out, err = run_cli(["avg", "--map", "(x^2+1)/x", "--beta", beta,
                                  "--s", "", "--b", "2"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "beta's numerator and denominator share a root (Res = 0); "
                       "write beta in lowest terms"}
    # In lowest terms, t + 1 keeps t = 1 in the population.
    code, out, _ = run_cli(["avg", "--map", "(x^2+1)/x", "--beta", "t+1",
                            "--s", "", "--b", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["excluded"] == [0] and payload["population"] == [8]


def test_canheight_nan_tol_is_one_json_error(capsys):
    code, out, err = run_cli(["canheight", "--map", "x^2", "--point", "2", "--tol", "nan"],
                             capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "tol must be positive"}


@pytest.mark.parametrize("case", ["nmax_json", "preper_json", "avg3_json"])
def test_nmax_preper_and_avg3_solve_no_cofactors(case, monkeypatch, capsys):
    # Preperiodicity reads the scan's switch, so these commands keep their
    # golden bytes with the cofactor solve refused.
    import hashlib

    import dynctl.maps as maps_mod
    from test_golden import GOLDEN

    def refuse(m):
        raise AssertionError("a cofactor certificate was solved")

    monkeypatch.setattr(maps_mod, "cofactors", refuse)
    argv, digest = GOLDEN[case]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("tol", ["1e-320", "5e-324"])
def test_canheight_tol_past_the_float_range_is_one_json_error(tol, capsys):
    # Reaching such a tol needs d^n*(d-1) above the largest float; it is refused
    # before any step, as --tol 0 is.
    code, out, err = run_cli(["canheight", "--map", "x^2-2", "--point", "2", "--tol", tol],
                             capsys)
    assert code == 1
    assert out == ""
    message = "tol is too small: d^n*(d-1) would pass the largest float"
    assert json.loads(err) == {"error": "ValueError", "message": message}
    code, out, _ = run_cli(["canheight", "--map", "x^2-2", "--point", "2", "--tol", "1e-306"],
                           capsys)
    assert code == 0 and json.loads(out)["iterations"] == 1018


def test_verify_csv_schema(monkeypatch, capsys):
    import csv

    import dynctl.cli as cli_mod
    from dynctl.reports import CheckResult, VerificationReport

    fake_checks = (
        lambda: VerificationReport((CheckResult("a.identity", True, "3 samples, 0 bad"),)),
        lambda seed=0: VerificationReport((CheckResult("b.bound", False, f"seed {seed}"),
                                           CheckResult("b.empty", True))),
    )
    monkeypatch.setattr(cli_mod, "verification_checks", lambda: fake_checks)
    code, out, _ = run_cli(["verify", "--format", "csv", "--seed", "4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "# schema: dynctl.verify.v1"
    assert list(csv.reader(lines[1:])) == [
        ["name", "ok", "detail"],
        ["a.identity", "1", "3 samples, 0 bad"],
        ["b.bound", "0", "seed 4"],
        ["b.empty", "1", ""],
    ]


@pytest.mark.parametrize("expr", [
    "x^99999999",
    "(x^2+1)^5000",
    "(x^2+1)^40",
    "1" * 5000 + "*x",
])
def test_oversized_map_is_one_json_parse_error(expr, monkeypatch, capsys):
    from dynctl.parsing import MAX_DEGREE, MAX_TERM_PAIRS
    from dynctl.polynomials import IntPoly

    real_mul = IntPoly.__mul__

    def bounded_mul(a, b):
        # An oversized product must be refused before it is computed.
        if isinstance(b, IntPoly):
            assert a.total_degree() + b.total_degree() <= MAX_DEGREE
            assert len(a.terms) * len(b.terms) <= MAX_TERM_PAIRS
        return real_mul(a, b)

    def no_pow(a, n):
        raise AssertionError("the parser powers by checked products only")

    monkeypatch.setattr(IntPoly, "__mul__", bounded_mul)
    monkeypatch.setattr(IntPoly, "__pow__", no_pow)
    code, out, err = run_cli(["orbit", "--map", expr, "--point", "2"], capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"


@pytest.mark.parametrize("expr", ["(" * 20000 + "x" + ")" * 20000, "-" * 20000 + "x"])
def test_deeply_nested_map_is_one_json_parse_error(expr, capsys):
    from dynctl.parsing import MAX_NESTING

    code, out, err = run_cli(["orbit", f"--map={expr}", "--point", "2"], capsys)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"nesting deeper than {MAX_NESTING} (at position")


# Integer inputs are ASCII decimal literals: int() alone would also read
# "1_0" as 10 and "٣" (an Arabic-Indic three) as 3, and \d matches "٢".
ORBIT = ["orbit", "--map", "x^2", "--point", "2"]


@pytest.mark.parametrize("args, error", [
    (ORBIT + ["--s", "1_3"], "ParseError"),
    (ORBIT + ["--s", "٣"], "ParseError"),
    (["orbit", "--map", "x^2", "--point", "1_0"], "ParseError"),
    (["orbit", "--map", "x^2", "--point", "٣/2"], "ParseError"),
    (["density", "--map", "x^2", "--b", "10,2_0"], "ParseError"),
    (["ffavg", "--p", "2", "--d", "2", "--beta-coeffs", "0,1_0", "--b", "1"], "ParseError"),
    (["orbit", "--map", "x^٢", "--point", "2"], "ParseError"),
    (["orbit", "--map", "pell(٢)", "--point", "2"], "ParseError"),
    (ORBIT + ["--ncap", "1_0"], "UsageError"),
    (ORBIT + ["--height-budget-bits", "1_000"], "UsageError"),
    (["nmax", "--map", "pell(2)", "--b", "٣"], "UsageError"),
    (["nmax", "--map", "pell(2)", "--b", "3", "--workers", "١"], "UsageError"),
    (["avg3", "--n1", "1_0", "--b", "5"], "UsageError"),
    (["ffavg", "--p", "٢", "--d", "2", "--beta-coeffs", "0,1", "--b", "1"], "UsageError"),
    (["verify", "--seed", "1_0"], "UsageError"),
], ids=["s-underscore", "s-arabic-indic", "point-underscore", "point-arabic-indic",
        "b-values", "beta-coeffs", "map-digit", "pell-digit", "ncap", "height-budget-bits",
        "nmax-b", "workers", "avg3-n1", "ffavg-p", "verify-seed"])
def test_non_ascii_integer_is_one_json_error(args, error, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == (2 if error == "UsageError" else 1)
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("tol", ["1_0e-3", "1e-٣", "0x1p-3", "1e-3f", ""])
def test_tol_that_is_not_an_ascii_float_literal_is_one_usage_error(tol, capsys):
    # float() alone would read "1_0e-3" as 0.01 and "1e-٣" as 0.001.
    code, out, err = run_cli(["canheight", "--map", "x^2", "--point", "2", "--tol", tol],
                             capsys)
    assert_usage_error(code, out, err, "--tol", f"bad float literal {tol!r}")


@pytest.mark.parametrize("tol", ["1e-3", " +.5E+1 ", "2.", "inf"])
def test_tol_accepts_ascii_float_literals(tol, capsys):
    code, out, err = run_cli(["canheight", "--map", "x^2", "--point", "2", "--tol", tol],
                             capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["iterations"] >= 0


def test_non_ascii_integer_from_config_is_one_usage_error(tmp_path, capsys):
    cfg = tmp_path / "ncap.cfg"
    cfg.write_text("ncap = 1_0\n")
    code, out, err = run_cli(ORBIT + ["--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError" and "'1_0'" in payload["message"]


def test_integer_literal_error_names_its_position(capsys):
    code, _, err = run_cli(["density", "--map", "x^2", "--b", "10,2_0"], capsys)
    assert code == 1
    assert json.loads(err)["message"] == "bad integer literal '2_0' (at position 3)"


def _dynctl_imports(argv):
    """The dynctl modules a fresh `python -m dynctl.cli argv` imports, read
    from its -X importtime lines. The CLI itself runs as __main__."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "dynctl.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr.splitlines()[-1]
    names = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    return {name for name in names if name.partition(".")[0] == "dynctl"}


def test_each_subcommand_imports_only_the_layers_it_runs():
    ffavg = _dynctl_imports(["ffavg", "--p", "2", "--d", "2", "--beta-coeffs",
                             "0,0,0,0,1", "--s", "", "--b", "1"])
    assert ffavg == {"dynctl", "dynctl.errors", "dynctl.points", "dynctl.polynomials",
                     "dynctl.reports", "dynctl.funcfield"}
    avg3 = _dynctl_imports(["avg3", "--b", "2"])
    assert "dynctl.families" in avg3
    assert not avg3 & {"dynctl.funcfield", "dynctl.parsing"}
    for argv in (["nmax", "--map", "pell(2)", "--s", "", "--b", "1"],
                 ["density", "--map", "(x-1)/(x^3+1)", "--s", "", "--b", "2"]):
        loaded = _dynctl_imports(argv)
        assert "dynctl.orbits" in loaded and "dynctl.funcfield" not in loaded, argv[0]
