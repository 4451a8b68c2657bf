"""Command-line surface: formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kudla_green import arith, checks, cli, integrals, lattice
from kudla_green.arith import L_chi_2_series
from kudla_green.cli import main

GREEN_ARGS = ["green", "--z1", "0.1+1.1i", "--z2", "0.2+0.15i",
              "--z3=-0.3+1.3i", "--m", "1", "--gamma", "0",
              "--v", "1", "--radius", "6"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_cli_error(capsys, *argv):
    """Exit code and stderr of a command that ends in an error message."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_coeff_table_values(capsys):
    code, out = run_cli(capsys, "coeff", "--gamma", "0", "--m-from", "1",
                        "--m-to", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["gamma", "m", "D0", "f", "H", "C", "deg"]
    row1 = lines[1].split("\t")
    assert row1[:5] == ["0", "1", "1", "2", "-7/12"]
    assert float(row1[5]) == pytest.approx(-140.0)
    assert float(row1[6]) == pytest.approx(7.0 / 144.0)
    assert len(lines) == 4


def test_coeff_empty_range_header_only(capsys):
    code, out = run_cli(capsys, "coeff", "--gamma", "0", "--m-from", "5",
                        "--m-to", "4")
    assert code == 0
    assert out.strip().splitlines() == ["gamma\tm\tD0\tf\tH\tC\tdeg"]


def test_coeff_invalid_range_exit_2(capsys):
    code, err = run_cli_error(capsys, "coeff", "--gamma", "0", "--m-from",
                              "0", "--m-to", "3")
    assert code == 2
    assert err == "error: gamma=0 table requires m >= 1\n"


def test_coeff_gamma1_quarter_indices(capsys):
    code, out = run_cli(capsys, "coeff", "--gamma", "1", "--m-from", "1",
                        "--m-to", "13")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    ms = [r.split("\t")[1] for r in rows]
    assert ms == ["1/4", "5/4", "9/4", "13/4"]
    # the 4m = 5 row carries H(2,5) = -2/5
    assert rows[1].split("\t")[4] == "-2/5"


def test_coeff_deterministic(capsys):
    _, out1 = run_cli(capsys, "coeff", "--gamma", "0", "--m-from", "1",
                      "--m-to", "6")
    _, out2 = run_cli(capsys, "coeff", "--gamma", "0", "--m-from", "1",
                      "--m-to", "6")
    assert out1 == out2


def test_coeff_csv_json_payloads_match(capsys):
    _, csv_out = run_cli(capsys, "--format", "csv", "coeff", "--gamma", "0",
                         "--m-from", "1", "--m-to", "4")
    _, json_out = run_cli(capsys, "--format", "json", "coeff", "--gamma", "0",
                          "--m-from", "1", "--m-to", "4")
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    json_rows = json.loads(json_out)["rows"]
    assert len(csv_rows) == len(json_rows) == 4
    for cr, jr in zip(csv_rows, json_rows):
        assert cr["H"] == jr["H"]
        assert float(cr["C"]) == jr["C"]
        assert float(cr["deg"]) == jr["deg"]


def test_green_generic_point(capsys):
    code, out = run_cli(capsys, "--format", "json", *GREEN_ARGS)
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["terms_used"] > 0
    assert row["value"] > 0
    assert row["tail_bound"] >= 0


def test_green_domain_error_exit_3(capsys):
    code, err = run_cli_error(capsys, "green", "--z1", "1i", "--z2", "5i",
                              "--z3", "1i", "--m", "1", "--gamma", "0",
                              "--v", "1")
    assert code == 3
    assert err.startswith("error: ")


def test_green_majorant_not_positive_definite_exit_3(capsys):
    code, err = run_cli_error(capsys, "green", "--z1=0.1+1.1i",
                              "--z2=1000000.05+0.2i", "--z3=-0.2+0.9i",
                              "--m", "1", "--gamma", "0", "--v", "1",
                              "--radius", "4")
    assert code == 3
    assert err == "error: majorant Gram matrix not positive definite\n"


@pytest.mark.parametrize("name,value", [("v", "nan"), ("v", "inf"),
                                        ("radius", "nan"), ("radius", "inf")])
def test_green_non_finite_input_exit_3(capsys, name, value):
    argv = list(GREEN_ARGS)
    argv[argv.index(f"--{name}") + 1] = value
    code, err = run_cli_error(capsys, *argv)
    assert code == 3
    assert err == f"error: {name} must be positive and finite\n"


@pytest.mark.parametrize("z1,message", [
    ("nan+1.1i", "error: point has a non-finite coordinate: "
                 "z=((nan+1.1j), (0.2+0.15j), (-0.3+1.3j))\n"),
    ("inf+1.1i", "error: point has a non-finite coordinate: "
                 "z=((inf+1.1j), (0.2+0.15j), (-0.3+1.3j))\n"),
    # finite, but the majorant's entries overflow
    ("1e308+1.1i", "error: majorant Gram matrix not positive definite\n"),
])
def test_green_non_finite_point_exit_3(capsys, z1, message):
    argv = list(GREEN_ARGS)
    argv[argv.index("--z1") + 1] = z1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_cli_error(capsys, *argv)
    assert code == 3
    assert err == message


def test_green_far_point_cholesky_failure_exit_3(capsys):
    # passes majorant_gram's check, but the reduced Gram matrix loses
    # positive definiteness to rounding inside the enumeration
    code, err = run_cli_error(capsys, "green",
                              "--z1=-2.1066463769301604+1.927729745487047i",
                              "--z2", "0.9802269730176029+1.101430037749781i",
                              "--z3", "9998.914313999301+0.9991160152587389i",
                              "--m", "5/4", "--gamma", "1",
                              "--v", "0.9117224885582169",
                              "--radius", "5.484124898473129")
    assert code == 3
    assert err == "error: majorant Gram matrix not positive definite\n"


def test_green_subnormal_v_exit_3(capsys):
    # 2 pi v R would underflow to 0 for the smallest R the sum keeps
    argv = list(GREEN_ARGS)
    argv[argv.index("--v") + 1] = "5e-324"
    code, err = run_cli_error(capsys, *argv)
    assert code == 3
    assert err == (f"error: v must be at least {sys.float_info.min!r}, "
                   "the smallest normal float\n")
    argv[argv.index("--v") + 1] = repr(sys.float_info.min)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert int(out.splitlines()[1].split("\t")[1]) > 0


@pytest.mark.parametrize("v,radius", [("1e-300", "1e-30"), ("1", "5e-324")])
def test_green_tiny_tail_cut_exit_3(capsys, v, radius):
    # 2 pi v radius below the smallest normal float: e^{-t}/t of the tail
    # estimate would divide by zero or be infinite
    argv = list(GREEN_ARGS)
    argv[argv.index("--v") + 1] = v
    argv[argv.index("--radius") + 1] = radius
    code, err = run_cli_error(capsys, *argv)
    assert code == 3
    assert err == ("error: 2 pi v radius must be at least "
                   f"{sys.float_info.min!r}, the smallest normal float\n")


def test_green_cap_overflow_exit_3(capsys, monkeypatch):
    # the shell holds more than 10 points at radius 6; the real cap of
    # 2000000 is reached near radius 4e5
    monkeypatch.setattr(lattice, "_POINT_CAP", 10)
    code, err = run_cli_error(capsys, *GREEN_ARGS)
    assert code == 3
    assert err == "error: more than 10 lattice points below the bound\n"


def test_green_node_cap_overflow_exit_3(capsys, monkeypatch):
    # the walk at radius 6 visits 692 half-tree nodes; the real cap of
    # 20000000 stops m = 1000000, which would otherwise never end
    monkeypatch.setattr(lattice, "_NODE_CAP", 100)
    code, err = run_cli_error(capsys, *GREEN_ARGS)
    assert code == 3
    assert err == ("error: more than 100 search-tree nodes in the "
                   "enumeration\n")


@pytest.mark.parametrize("argv", [
    ["coeff", "--gamma", "0", "--m-from", "26", "--m-to", "26"],
    ["coeff", "--gamma", "1", "--m-from", "101", "--m-to", "101"],
    [*GREEN_ARGS[:6], "--m", "26", "--gamma", "0", "--v", "1"],
    [*GREEN_ARGS[:6], "--m=-103/4", "--gamma", "1", "--v", "1"],
], ids=["coeff-gamma0", "coeff-gamma1", "green-gamma0", "green-gamma1"])
def test_index_past_the_limit_exit_2(capsys, monkeypatch, argv):
    # the real limit |4m| <= 10**9 keeps one index below a few seconds;
    # 4m = 104, 101 and -103 pass every other check
    monkeypatch.setattr(arith, "_MAX_ABS_4M", 100)
    code, err = run_cli_error(capsys, *argv)
    assert code == 2
    assert err == "error: |4m| must be at most 100\n"


@pytest.mark.parametrize("gamma,rows", [("0", 8), ("1", 2)])
def test_coeff_range_past_the_cap_exit_2(capsys, monkeypatch, gamma, rows):
    # the real cap of 100000 indices bounds the table built before printing;
    # a range past it is refused before any index is split
    monkeypatch.setattr(cli, "_MAX_COEFF_RANGE", 8)
    argv = ("coeff", "--gamma", gamma, "--m-from", "1", "--m-to")
    code, out = run_cli(capsys, *argv, "8")
    assert code == 0 and len(out.splitlines()) == 1 + rows

    def refuse(*args):
        raise AssertionError("an index was built")
    monkeypatch.setattr(cli, "split_discriminant", refuse)
    code, err = run_cli_error(capsys, *argv, "9")
    assert code == 2
    assert err == "error: coeff range holds 9 indices, more than 8\n"


def test_green_singular_point_exit_4(capsys):
    code, err = run_cli_error(capsys, "green", "--z1", "1i", "--z2", "0i",
                              "--z3", "1i", "--m", "1", "--gamma", "0",
                              "--v", "1")
    assert code == 4
    assert "divisor" in err


def test_green_quarter_index(capsys):
    code, out = run_cli(capsys, "--format", "json", "green",
                        "--z1", "0.41+1.13i", "--z2", "0.27+0.21i",
                        "--z3", "0.13+0.93i", "--m", "5/4", "--gamma", "1",
                        "--v", "2", "--radius", "5")
    assert code == 0
    assert json.loads(out)["rows"][0]["terms_used"] > 0


def test_green_class_mismatch_exit_2(capsys):
    code, err = run_cli_error(capsys, "green", "--z1", "0.4+1.1i",
                              "--z2", "0.3+0.2i", "--z3", "0.1+0.9i",
                              "--m", "1/4", "--gamma", "0", "--v", "1")
    assert code == 2
    assert err.startswith("error: ")


def test_verify_default_passes(capsys):
    code, out = run_cli(capsys, "verify", "--tol", "1e-6")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_verify_tight_tolerance_fails(capsys):
    code, out = run_cli(capsys, "verify", "--tol", "1e-15")
    assert code == 1
    assert "FAIL" in out


def test_verify_only_exact_check(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "--only",
                        "divisor-sum-exact", "--tol", "1e-6")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 1
    assert checks[0]["diff"] == 0.0


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_green_bad_tol_exit_2(capsys, tol):
    code, err = run_cli_error(capsys, *GREEN_ARGS, f"--tol={tol}")
    assert code == 2
    assert err == "error: tol must be positive\n"


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_verify_bad_tol_exit_2(capsys, tol):
    code, err = run_cli_error(capsys, "verify", "--only",
                              "divisor-sum-exact", f"--tol={tol}")
    assert code == 2
    assert err == "error: tol must be nonnegative\n"


NAN_ROUTES = [
    ("cohen-dual-route", "L_chi_2_series"),
    ("zeta-functional-equation", "L_chi_2_series"),
    ("degree-dual-route", "heegner_degree"),
]


@pytest.mark.parametrize("name,route", NAN_ROUTES)
def test_verify_nan_route_fails(capsys, monkeypatch, name, route):
    monkeypatch.setattr(f"kudla_green.checks.{route}", lambda *args: math.nan)
    code, out = run_cli(capsys, "verify", "--only", name)
    assert code == 1
    assert "FAIL" in out


def test_verify_corollary_row_fails_on_a_wrong_derivative(capsys, monkeypatch):
    # the constant * is fixed, so a c0' off by 1e-5 can no longer be
    # absorbed into it
    argv = ("verify", "--only", "corollary-identity")
    assert run_cli(capsys, *argv)[0] == 0
    c0_prime = integrals.coefficient_c0_prime
    monkeypatch.setattr(integrals, "coefficient_c0_prime",
                        lambda c, v, kappa: (1 + 1e-5) * c0_prime(c, v, kappa))
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert "FAIL" in out


def test_verify_V22_row_compares_against_the_series(capsys, monkeypatch):
    # the V_{1,3}(-4) and V_{2,2}(5) rows read G = L(2, chi_{-4}) and
    # L(2, chi_5) from the independent oracle, so a wrong oracle fails both
    monkeypatch.setattr("kudla_green.checks.L_chi_2_series",
                        lambda D0: 1.00001 * L_chi_2_series(D0))
    code, out = run_cli(capsys, "verify", "--only", "volume-spot-values")
    assert code == 1
    status = {line.split("\t")[1]: line.split("\t")[-1]
              for line in out.splitlines()[1:-1]}
    assert status["V_{1,3}(-4) = Catalan/3"] == "FAIL"
    assert status["V_{2,2}(5) dual routes"] == "FAIL"


def _volume_rows(capsys):
    code, out = run_cli(capsys, "verify", "--only", "volume-spot-values")
    return code, {row[1]: row for row in
                  (line.split("\t") for line in out.splitlines()[1:-1])}


def test_verify_volume_rows_read_vol_sie(capsys, monkeypatch):
    # each row compares vol_sie itself with a literature value, so a
    # covolume off by 1e-5 fails all three at the default --tol
    vol_sie = checks.vol_sie
    monkeypatch.setattr("kudla_green.checks.vol_sie",
                        lambda c: (1 + 1e-5) * vol_sie(c))
    code, rows = _volume_rows(capsys)
    assert code == 1
    assert [row[-1] for row in rows.values()] == ["FAIL"] * 3


def test_verify_hirzebruch_row_sees_one_ulp(capsys, monkeypatch):
    # vol_sie / pi^2 is Hirzebruch's 1/15 bit for bit, so a covolume one
    # ulp off moves the row's diff off zero
    label = "Hirzebruch volume (5, f=1) = 1/15 exactly"
    assert float(_volume_rows(capsys)[1][label][4]) == 0.0
    vol_sie = checks.vol_sie
    monkeypatch.setattr("kudla_green.checks.vol_sie",
                        lambda c: (1 + 2 ** -52) * vol_sie(c))
    assert float(_volume_rows(capsys)[1][label][4]) > 0.0


def test_verify_volume_rows_pass_at_tight_tolerance(capsys):
    # the Catalan oracle is good to a few ulp, not to a partial sum's 3e-10
    code, _ = run_cli(capsys, "verify", "--only", "volume-spot-values",
                      "--tol", "1e-12")
    assert code == 0


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_verify_json_strict_with_infinite_tol(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "--only",
                        "divisor-sum-exact", "--tol", "inf")
    assert code == 0
    assert _strict_json(out)["inputs"]["tol"] == "inf"


@pytest.mark.parametrize("name,route", NAN_ROUTES)
def test_verify_json_strict_with_nan_diff(capsys, monkeypatch, name, route):
    monkeypatch.setattr(f"kudla_green.checks.{route}", lambda *args: math.nan)
    code, out = run_cli(capsys, "--format", "json", "verify", "--only", name)
    assert code == 1
    rows = _strict_json(out)["checks"]
    assert any(r["diff"] == "nan" and r["status"] == "FAIL" for r in rows)


def test_verify_registry_contract():
    # perfbench wraps these entries by name and calls each with no argument
    assert list(cli._VERIFY_CHECKS) == [
        "divisor-sum-exact", "cohen-dual-route", "degree-dual-route",
        "orbit-integral-reduction", "orbit-integral-negative-convention",
        "green-integral-identity", "corollary-identity",
        "majorant-siegel-condition", "volume-spot-values",
        "zeta-functional-equation"]
    for check in cli._VERIFY_CHECKS.values():
        rows = check()
        assert rows
        for row in rows:
            assert set(row) == {"label", "lhs", "rhs", "diff"}


def test_verify_unknown_check_exit_2(capsys):
    code, err = run_cli_error(capsys, "verify", "--only", "no-such-check")
    assert code == 2
    assert err.startswith("error: unknown check 'no-such-check'")


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--output", str(target), "--format", "json", "coeff",
                 "--gamma", "0", "--m-from", "1", "--m-to", "2"])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "coeff"
    assert len(payload["rows"]) == 2


def test_output_file_untouched_by_an_error(tmp_path, capsys):
    target = tmp_path / "o.txt"
    target.write_text("previous report\n")
    argv = list(GREEN_ARGS)
    argv[argv.index("--v") + 1] = "nan"
    code, err = run_cli_error(capsys, "--output", str(target), *argv)
    assert code == 3
    assert err == "error: v must be positive and finite\n"
    assert target.read_text() == "previous report\n"


def test_output_unwritable_path_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code = main(["--output", str(target), "coeff", "--gamma", "0",
                 "--m-from", "1", "--m-to", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {target}: "
                            "No such file or directory\n")
    assert not target.parent.exists()


def test_siegel_samples_are_randomstate_7():
    # oracle: numpy's RandomState(7), drawn as the verify grid was built
    rng = np.random.RandomState(7)
    want = []
    for _ in range(20):
        y1, y3 = rng.uniform(0.5, 2.0, size=2)
        y2 = rng.uniform(-0.9, 0.9) * math.sqrt(y1 * y3)
        x1, x2, x3 = rng.uniform(-2.0, 2.0, size=3)
        want.append((x1, y1, x2, y2, x3, y3))
    got = [(p.z1.real, p.z1.imag, p.z2.real, p.z2.imag, p.z3.real, p.z3.imag)
           for p in cli._siegel_samples()]
    assert [[x.hex() for x in p] for p in got] == \
        [[float(x).hex() for x in p] for p in want]


def test_verify_does_not_import_numpy_random():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from kudla_green.cli import main\n"
            "assert main(['verify', '--only',"
            " 'majorant-siegel-condition']) == 0\n"
            "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["green", "--z1", "not-a-number", "--z2", "1i", "--z3", "1i",
              "--m", "1", "--gamma", "0", "--v", "1"])
    assert exc.value.code == 2


_README_GREEN = ["green", "--z1", "0.1+1.1i", "--z2", "0.2+0.15i",
                 "--z3=-0.3+1.3i", "--v", "1", "--radius", "12"]


@pytest.mark.parametrize("argv,digest", [
    (["coeff", "--gamma", "0", "--m-from", "1", "--m-to", "300"],
     "43008bf9e2cd57b6452295fefd7db70b0bd6255790e6e1d7d9cb5b74a606e951"),
    (["coeff", "--gamma", "1", "--m-from", "1", "--m-to", "300"],
     "311ee3b8a4f925ad961ab40e55c8082426561ce1ad7c3da7a19b327bbd824365"),
    (_README_GREEN + ["--m", "1", "--gamma", "0"],
     "e699d8f9ef016875e4d2fe065e9b29bf5d31d3dc6f6d8052fceccceceb8524f8"),
    (_README_GREEN + ["--m=-3/4", "--gamma", "1"],
     "648ed1f72b7f5f96d605441d0c594dc750530f832c38720a649136354624f14e"),
    (["verify"],
     "d31a5c9e9292540846564a39466c1e78b314ebd4956c9b8d23bff6331698e654"),
    (["--format", "json", "verify"],
     "5852f0f8046ae481a911cb3e8de040226567d796f291956f5394e7b6bd10464e"),
], ids=["coeff-gamma0", "coeff-gamma1", "green-m1", "green-m-minus-3-4",
        "verify-text", "verify-json"])
def test_output_bytes_pinned(capsys, argv, digest):
    # the CLI output is promised byte for byte; a change to any printed
    # digit of these tables, Green values or verify rows moves a digest
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
