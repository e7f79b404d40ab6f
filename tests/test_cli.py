import json
import math

import pytest

from hexdimer import partition, specialfn
from hexdimer.cli import main

from _reference import TABLE1, UNIVERSAL_CONSTANT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constant_prints_reference_value(capsys):
    code, out, _ = run(capsys, "constant")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split(",")[0])
    assert abs(value - UNIVERSAL_CONSTANT) < 5e-6


def test_partition_finite(capsys):
    code, out, _ = run(capsys, "partition", "--M", "1", "--N", "1", "--K", "2", "--q", "0.5")
    assert code == 0
    z = float(out.strip().splitlines()[-1].split(",")[-1])
    assert abs(z - 1.75) < 1e-12


def test_partition_infinite_k(capsys):
    code, out, _ = run(capsys, "partition", "--M", "1", "--N", "1", "--K", "inf", "--q", "0.5")
    assert code == 0
    z = float(out.strip().splitlines()[-1].split(",")[-1])
    assert abs(z - 2.0) < 1e-12


def test_coeffs_json_and_metadata(capsys):
    code, out, _ = run(capsys, "coeffs", "--scenario", "infinite", "--a", "2", "--b", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["convention"] == "f = +ln(Z)/V"
    rows = dict((r[0], r[1]) for r in payload["rows"])
    assert rows["f1"] == 0.0
    assert abs(12 * 2 * rows["f2"] - 1.0) < 1e-14


def test_coeffs_requires_scenario_arguments(capsys):
    code, _, err = run(capsys, "coeffs", "--scenario", "sliced", "--a", "1", "--b", "3")
    assert code == 1
    assert "phi" in err


def test_coeffs_rejects_nonfinite_side(capsys):
    for bad in ("inf", "nan"):
        code, _, err = run(capsys, "coeffs", "--scenario", "finite", "--a", "1", "--b", "1",
                           "--c", bad)
        assert code == 1
        assert "finite" in err


def write_unit_table(tmp_path):
    path = tmp_path / "phi01.csv"
    path.write_text("".join(f"{i / 10},1.0\n" for i in range(11)))  # covers [0, 1] only
    return f"tabulated:{path}"


def test_partition_sliced_rejects_range_outside_table(tmp_path, capsys):
    phi = write_unit_table(tmp_path)
    code, out, err = run(capsys, "partition", "--a", "1", "--b", "3", "--inv-eps", "8", "--phi", phi)
    assert code == 1
    assert "tabulated range" in err and out == ""


def test_free_energy_point_rejects_range_outside_table(tmp_path, capsys):
    phi = write_unit_table(tmp_path)
    code, out, err = run(capsys, "free-energy", "--a", "1", "--b", "3", "--inv-eps", "8", "--phi", phi)
    assert code == 1
    assert "tabulated range" in err and out == ""


def test_partition_q1_large_box(capsys):
    # q = 1 uses the limit of the product formula, with no enumeration and no size guard
    code, out, _ = run(capsys, "partition", "--M", "4", "--N", "4", "--K", "8", "--q", "1")
    assert code == 0
    log_z = float(out.strip().splitlines()[-1].split(",")[-2])
    assert abs(log_z - math.log(184225041)) < 1e-14 * math.log(184225041)


def test_partition_prints_overflowing_z_as_inf(capsys):
    for argv in (("--a", "10", "--b", "10", "--inv-eps", "20", "--phi", "const:0.05"),
                 ("--M", "40", "--N", "40", "--K", "40", "--q", "0.98")):
        code, out, _ = run(capsys, "partition", *argv)
        assert code == 0
        log_z, z = out.strip().splitlines()[-1].split(",")[-2:]
        assert float(log_z) > 710 and z == "inf"


def test_free_energy_rejects_infinite_side(capsys):
    code, out, err = run(capsys, "free-energy", "--a", "inf", "--b", "1",
                         "--inv-eps-min", "2", "--inv-eps-max", "10")
    assert code == 1
    assert "side a" in err and out == ""


@pytest.mark.parametrize("argv", [
    ("partition", "--M", "1", "--N", "1", "--K", "1", "--q", "0.5"),
    ("free-energy", "--M", "1", "--N", "1", "--K", "1", "--q", "0.5"),
    ("coeffs", "--scenario", "infinite", "--a", "1", "--b", "1"),
    ("fit", "--scenario", "infinite", "--a", "1", "--b", "1", "--inv-eps-min", "2",
     "--inv-eps-max", "10"),
    ("table1", "--row", "cosine:1,3"),
    ("constant",),
    ("verify",),
], ids=lambda argv: argv[0])
def test_tol_override_is_unrecognised(argv, capsys):
    # the tolerances are module constants; no command takes an override
    code, out, err = run(capsys, *argv, "--tol-override", "rel_tol=1e-10")
    assert code == 1
    assert "unrecognized arguments: --tol-override" in err and out == ""


@pytest.mark.parametrize("argv, flag", [
    # flags a command does not read are not offered
    (("coeffs", "--scenario", "infinite", "--a", "2", "--b", "1", "--inv-eps", "7"), "--inv-eps"),
    (("fit", "--scenario", "infinite", "--a", "2", "--b", "1", "--inv-eps-min", "2",
      "--inv-eps-max", "10", "--inv-eps", "7"), "--inv-eps"),
    (("partition", "--a", "1", "--b", "3", "--c", "1", "--inv-eps", "8", "--phi", "cosine"), "--c"),
    # lattice flags do not mix with scaled ones
    (("partition", "--M", "2", "--N", "2", "--K", "2", "--q", "0.5", "--a", "1"), "--a"),
    (("partition", "--M", "2", "--N", "2", "--q", "0.5", "--phi", "cosine"), "--phi"),
    (("partition", "--M", "2", "--N", "2", "--q", "0.5", "--inv-eps", "4"), "--inv-eps"),
    (("free-energy", "--a", "1", "--b", "1", "--c", "1", "--inv-eps", "4", "--M", "3"), "--a"),
    (("free-energy", "--M", "2", "--N", "2", "--q", "0.5", "--inv-eps-min", "2"), "--inv-eps-min"),
    (("free-energy", "--a", "1", "--b", "1", "--inv-eps", "4", "--inv-eps-min", "2",
      "--inv-eps-max", "9"), "--inv-eps-min"),
    # a missing value names the flag instead of failing on None
    (("free-energy", "--M", "2", "--N", "2", "--K", "2"), "--q"),
    (("free-energy", "--M", "2", "--K", "2", "--q", "0.5"), "--N"),
    (("free-energy", "--a", "1", "--b", "1", "--inv-eps-min", "2"), "--inv-eps-max"),
    (("free-energy", "--a", "1", "--b", "1"), "--inv-eps"),
    (("free-energy", "--b", "1", "--inv-eps", "4"), "--a"),
    (("partition", "--a", "1", "--b", "3", "--phi", "cosine"), "--inv-eps"),
    (("partition", "--a", "1", "--b", "3", "--inv-eps", "8"), "--phi"),
    (("partition", "--M", "2", "--N", "2", "--K", "2"), "--q"),
    (("partition",), "--a"),
    (("coeffs", "--scenario", "infinite", "--b", "1"), "--a"),
    (("coeffs", "--scenario", "finite", "--a", "1", "--b", "1"), "--c"),
    (("fit", "--scenario", "infinite", "--a", "1", "--b", "1", "--inv-eps-min", "2"),
     "--inv-eps-max"),
])
def test_usage_errors_name_the_flag(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert flag in err and out == ""
    assert "NoneType" not in err and "operand" not in err


def test_missing_tabulated_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, out, err = run(capsys, "partition", "--a", "1", "--b", "3", "--inv-eps", "8",
                         "--phi", f"tabulated:{missing}")
    assert code == 1
    assert "missing.csv" in err and out == ""


def test_json_is_strict_for_nonfinite_values(capsys):
    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    code, out, _ = run(capsys, "partition", "--M", "40", "--N", "40", "--K", "40", "--q", "0.98",
                       "--json")
    assert code == 0
    log_z, z = json.loads(out, parse_constant=reject)["rows"][0][-2:]
    assert log_z > 710 and z == "inf"


def test_usage_error_exit_code(capsys):
    assert main(["free-energy", "--bogus-flag"]) == 1
    assert main(["nonexistent-subcommand"]) == 1


def test_free_energy_grid_deterministic(tmp_path, capsys):
    out1 = tmp_path / "grid1.csv"
    out2 = tmp_path / "grid2.csv"
    for out in (out1, out2):
        code = main(["free-energy", "--a", "1", "--b", "1", "--c", "1",
                     "--inv-eps-min", "2", "--inv-eps-max", "12", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()
    assert any(line.startswith("# convention:") for line in header)
    assert "inv_eps,eps,f,variant,params" in header


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert "pass" in out


def test_verify_kasteleyn_only(capsys):
    code, out, _ = run(capsys, "verify", "--kasteleyn")
    assert code == 0
    assert "kasteleyn-vs-enumeration" in out
    assert "dual-evaluator" not in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    import hexdimer.cli as cli

    monkeypatch.setattr(cli, "_verify_suites",
                        lambda args: iter([("fake", "case", False, "boom")]))
    code, out, err = run(capsys, "verify")
    assert code == 3
    assert "FAIL" in out


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # an unreachable universal-constant tolerance is a convergence failure: exit 2
    monkeypatch.setattr(specialfn, "_CONSTANT_REL_TOL", 1e-30)
    specialfn.universal_constant.cache_clear()
    code, _, err = run(capsys, "coeffs", "--scenario", "infinite", "--a", "1", "--b", "1")
    assert code == 2
    assert "universal constant" in err


def test_table1_single_row(capsys):
    code, out, _ = run(capsys, "table1", "--row", "cosine:1,3")
    assert code == 0
    line = out.strip().splitlines()[-1]
    fields = line.split(",")
    f0_analytic, f0_fitted = float(fields[3]), float(fields[4])
    ref = TABLE1[("cosine", 1, 3)]
    assert abs(f0_analytic - ref[0]) < 5e-8
    assert abs(f0_fitted - ref[1]) < 1e-7


def test_free_energy_single_lattice_point(capsys):
    code, out, _ = run(capsys, "free-energy", "--M", "1", "--N", "1", "--K", "1",
                       "--q", str(math.exp(-1.0)))
    assert code == 0
    f = float(out.strip().splitlines()[-1].split(",")[2])
    assert abs(f - (-math.log(1 + math.exp(-1.0)) / 6.0)) < 1e-14
    # q = 1 is eps = 0, printed unsigned; ln Z is the log of the 20 configurations
    code, out, _ = run(capsys, "free-energy", "--M", "2", "--N", "2", "--K", "2", "--q", "1")
    assert code == 0
    _, eps, f = out.strip().splitlines()[-1].split(",")[:3]
    assert eps == "0"
    assert abs(float(f) - (-math.log(20) / 24)) < 1e-15


def test_tabulated_phi_through_cli(tmp_path, capsys):
    import numpy as np

    grid = np.linspace(-1.5, 3.5, 300)
    table = tmp_path / "phi.csv"
    table.write_text("\n".join(f"{t},{(2 + math.cos(t)) / 3}" for t in grid))
    code, out, _ = run(capsys, "partition", "--a", "1", "--b", "3", "--inv-eps", "8",
                       "--phi", f"tabulated:{table}")
    assert code == 0
    logz_tab = float(out.strip().splitlines()[-1].split(",")[-2])
    code, out, _ = run(capsys, "partition", "--a", "1", "--b", "3", "--inv-eps", "8",
                       "--phi", "cosine")
    logz_cos = float(out.strip().splitlines()[-1].split(",")[-2])
    assert abs(logz_tab - logz_cos) < 1e-7


def test_numerical_failure_from_series_cap(monkeypatch, capsys):
    monkeypatch.setattr(partition, "_SERIES_N_MAX", 10)
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "converge" in err
