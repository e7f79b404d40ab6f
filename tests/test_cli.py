import itertools
import json
import math
import re
import types
import warnings

import pytest

from hexdimer import (BoxShape, ConvergenceError, Scenario, TabulatedPhi, asymptotics,
                      enumeration, kasteleyn, kasteleyn_partition, log_z_macmahon,
                      oracle_partition, partition, specialfn)
from hexdimer.cli import main
from hexdimer.fitting import BASIS_NAMES

from _forks import assert_no_child_left, set_cpus
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


@pytest.mark.parametrize("argv,spec", [
    (("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "cosine:5"), "cosine:5"),
    (("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "cosine:"), "cosine:"),
    (("table1", "--row", "cosine:junk:1,3"), "cosine:junk"),
])
def test_cosine_takes_no_arguments(capsys, argv, spec):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: bad phi spec {spec!r}; expected cosine\n")


@pytest.mark.parametrize("argv,spec", [
    (("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "tabulated:"),
     "tabulated:"),
    (("partition", "--a", "1", "--b", "3", "--inv-eps", "8", "--phi", "tabulated"), "tabulated"),
])
def test_tabulated_needs_a_file(capsys, argv, spec):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: bad phi spec {spec!r}; expected tabulated:<file>\n")


@pytest.mark.parametrize("argv,match", [
    # the closed forms' divisor overflows; Scenario rejects the sides before any box
    (("free-energy", "--a", "1e308", "--b", "1", "--c", "1", "--inv-eps", "10"), "ab+bc+ca = inf"),
    (("partition", "--a", "1e308", "--b", "3", "--phi", "cosine", "--inv-eps", "2"), "ab = inf"),
    (("coeffs", "--scenario", "infinite", "--a", "1e200", "--b", "1e200"), "ab = inf"),
    (("coeffs", "--scenario", "finite", "--a", "1e200", "--b", "1e200", "--c", "1"),
     "ab+bc+ca = inf"),
    (("coeffs", "--scenario", "sliced", "--a", "1e200", "--b", "1e200", "--phi", "cosine"),
     "ab = inf"),
    # admissible sides whose lattice box at this mesh is infinite
    (("free-energy", "--a", "1e307", "--b", "1", "--inv-eps", "100"), "a/eps = inf"),
    (("partition", "--a", "1e300", "--b", "1e-10", "--phi", "const:1", "--inv-eps", "1000000000"),
     "a/eps = inf"),
])
def test_overflowing_sides_are_rejected(capsys, argv, match):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and match in err


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


BEYOND_FLOAT = str(10**400)


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
    # 1/eps must be a positive integer
    (("free-energy", "--a", "1", "--b", "1", "--inv-eps", "0"), "--inv-eps"),
    (("free-energy", "--a", "1", "--b", "1", "--inv-eps", "-3"), "--inv-eps"),
    (("partition", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", "0"), "--inv-eps"),
    (("partition", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", "-2"), "--inv-eps"),
    # the height is a positive integer or 'inf'
    (("partition", "--M", "2", "--N", "2", "--K", "x", "--q", "0.5"), "--K"),
    (("partition", "--M", "2", "--N", "2", "--K", "0", "--q", "0.5"), "--K"),
    # a phi spec with the wrong number of values names the expected form
    (("partition", "--a", "1", "--b", "3", "--inv-eps", "4", "--phi", "linear:1"),
     "linear:alpha,beta"),
    # q outside (0, 1] is named before ln q is taken for the eps column
    (("free-energy", "--M", "2", "--N", "2", "--K", "2", "--q", "0"), "q must be in (0, 1]"),
    (("free-energy", "--M", "2", "--N", "2", "--K", "2", "--q", "-0.5"), "q must be in (0, 1]"),
    # a side far below the mesh is named as the scaled side, not as a lattice box
    (("free-energy", "--a", "1e-10", "--b", "1", "--inv-eps", "1"), "a/eps = 1e-10 rounds to 0"),
    (("free-energy", "--a", "1", "--b", "1", "--c", "1e-10", "--inv-eps", "1"),
     "c/eps = 1e-10 rounds to 0"),
    # a side whose e^(-side) rounds to 1 is named, not a math domain error
    (("coeffs", "--scenario", "infinite", "--a", "1e-17", "--b", "1"), "side a = 1e-17"),
    (("coeffs", "--scenario", "finite", "--a", "1", "--b", "1", "--c", "1e-17"), "side c = 1e-17"),
    # every integer flag is used as a float, so one beyond the float range is named
    (("partition", "--M", BEYOND_FLOAT, "--N", "1", "--K", "1", "--q", "0.5"), "--M"),
    (("partition", "--M", "2", "--N", "2", "--K", BEYOND_FLOAT, "--q", "0.5"), "--K"),
    (("free-energy", "--M", "3", "--N", "2", "--K", BEYOND_FLOAT, "--q", "0.5"), "--K"),
    (("partition", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", BEYOND_FLOAT),
     "--inv-eps"),
    (("free-energy", "--a", "1", "--b", "1", "--c", "1", "--inv-eps", BEYOND_FLOAT), "--inv-eps"),
    (("free-energy", "--a", "1", "--b", "1", "--c", "1", "--inv-eps-min", "2",
      "--inv-eps-max", BEYOND_FLOAT), "--inv-eps-max"),
    (("fit", "--scenario", "finite", "--a", "1", "--b", "1", "--c", "1", "--inv-eps-min", "2",
      "--inv-eps-max", BEYOND_FLOAT), "--inv-eps-max"),
    # integers within the float range whose cell count or area is not
    (("partition", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", str(10**300)),
     "over 1.798e+308 cells"),
    # a lattice box is named by its product terms, as partition names it, and
    # a bad q before its size
    (("free-energy", "--M", str(10**300), "--N", str(10**300), "--K", str(10**300), "--q", "0.5"),
     "the product formula has 3e+300 terms, above the limit of 4194304 terms"),
    (("free-energy", "--M", str(10**300), "--N", str(10**300), "--K", str(10**300), "--q", "0"),
     "q must be in (0, 1]"),
])
def test_usage_errors_name_the_flag(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert flag in err and out == ""
    assert "NoneType" not in err and "operand" not in err and "_parse_k" not in err
    # one error line, the last: no second message
    assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]


def test_missing_tabulated_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, out, err = run(capsys, "partition", "--a", "1", "--b", "3", "--inv-eps", "8",
                         "--phi", f"tabulated:{missing}")
    assert code == 1
    assert "missing.csv" in err and out == ""


def test_one_column_tabulated_file_names_the_form(tmp_path, capsys):
    table = tmp_path / "one_column.csv"
    table.write_text("\n".join(str(0.1 * i) for i in range(10)))
    code, out, err = run(capsys, "partition", "--a", "1", "--b", "3", "--inv-eps", "8",
                         "--phi", f"tabulated:{table}")
    assert code == 1 and out == ""
    assert "one_column.csv" in err and "t,phi" in err


@pytest.mark.parametrize("argv, message", [
    (("free-energy", "--phi", "const:inf", "--a", "1", "--b", "3", "--inv-eps", "4"), "finite"),
    (("free-energy", "--phi", "linear:inf,0", "--a", "1", "--b", "3", "--inv-eps", "4"), "finite"),
    (("coeffs", "--scenario", "sliced", "--phi", "const:inf", "--a", "1", "--b", "3"), "finite"),
    (("partition", "--phi", "linear:1,nan", "--a", "1", "--b", "3", "--inv-eps", "4"), "finite"),
    # every weight e^{-E} rounds to 1, so ln(1 - e^{-E}) cannot be formed
    (("partition", "--phi", "const:1e-320", "--a", "1", "--b", "3", "--inv-eps", "4"),
     "rounds to 1"),
], ids=lambda v: f"{v[0]}-{v[2]}" if isinstance(v, tuple) else None)
def test_degenerate_phi_is_an_error(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "phi" in err and message in err and "side" not in err


def test_a_dip_between_coarse_samples_is_rejected(tmp_path, capsys):
    # the spline dips to -0.05 at t = 0.301, between the points of a 2001-point
    # grid on [-1, 3].  Sampled there, free-energy printed an f with exit 0 and
    # coeffs failed with "math domain error"
    import numpy as np

    t = np.union1d(np.linspace(-1, 3, 201), 0.301 + np.linspace(-3e-4, 3e-4, 41))
    values = 1 - 1.05 * np.exp(-((t - 0.301) / 1e-4) ** 2)
    point = "(0.30099999999999993) = -0.050000000000000044"
    with pytest.raises(ValueError, match=re.escape(f"; tabulated{point}")):
        Scenario("sliced", 1, 3, phi=TabulatedPhi(t, values))
    table = tmp_path / "dip.csv"
    table.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(t.tolist(), values.tolist())))
    for argv in (("free-energy", "--inv-eps", "100"), ("coeffs", "--scenario", "sliced")):
        code, out, err = run(capsys, *argv, "--a", "1", "--b", "3", "--phi", f"tabulated:{table}")
        assert code == 1 and out == ""
        assert err == (f"error: phi must be finite and strictly positive on [-1.0, 3.0]; "
                       f"tabulated:{table}{point}\n")


@pytest.mark.parametrize("argv", [
    ("free-energy", "--a", "1", "--b", "3e9", "--phi", "cosine",
     "--inv-eps-min", "2", "--inv-eps-max", "10"),
    ("partition", "--a", "1", "--b", "3e9", "--phi", "cosine", "--inv-eps", "2"),
], ids=["grid", "single"])
def test_sliced_cell_limit_exits_1(argv, capsys):
    # the first mesh alone is 1.2e10 cells; the check runs before any allocation
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"above the limit of {partition.MAX_SLICED_CELLS} cells" in err


def test_sliced_all_zero_sum_prints_zero(capsys):
    code, out, _ = run(capsys, "partition", "--phi", "const:1e300", "--a", "1", "--b", "3",
                       "--inv-eps", "4")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[-2] == "0"
    code, out, _ = run(capsys, "free-energy", "--phi", "const:1e300", "--a", "1", "--b", "3",
                       "--inv-eps", "4")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[2] == "0"


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


def test_a_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; every call must print what it
    # prints on a freshly built parser, whatever the calls before it did
    from hexdimer import cli

    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "out.csv"
    coeffs = ("coeffs", "--scenario", "infinite", "--a", "2", "--b", "1")
    free_energy = ("free-energy", "--a", "1", "--b", "2", "--c", "3", "--inv-eps", "10")
    calls = [
        (("coeffs", "--scenario", "infinite", "--a", "2"), None),
        (("--version",), None),
        ((*coeffs, "--json"), None),
        (coeffs, None),
        ((*free_energy, "--out", str(out)), None),
        (free_energy, None),
        (("coeffs", "--scenario", "sliced", "--a", "1", "--b", "3"), None),
        (coeffs, (specialfn, "_LI_N_MAX", 2)),
        (coeffs, None),
    ]

    def record(fresh):
        records = []
        for argv, patch in calls:
            if fresh:
                cli.build_parser.cache_clear()
            with monkeypatch.context() as m:
                if patch:
                    m.setattr(*patch)
                code = main(list(argv))
            printed = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            records.append((code, printed.out, printed.err, written))
        return records

    reused = record(fresh=False)
    assert reused == record(fresh=True)
    codes = [code for code, *_ in reused]
    assert codes == [1, 0, 0, 0, 0, 0, 1, 2, 0]
    assert "the following arguments are required: --b" in reused[0][2]
    assert reused[1][1] == f"hexdimer {cli.__version__}\n"
    assert json.loads(reused[2][1])["meta"]["command"] == "coeffs"
    assert reused[3][1].startswith("# command: coeffs") and reused[8] == reused[3]
    assert reused[4][1] == "" and reused[4][3] == reused[5][1] != ""
    assert reused[6][2] == "error: the sliced scenario needs a phi function\n"
    assert reused[7][2].startswith("numerical failure: ")


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


def test_verify_walks_and_embeds_each_box_once(monkeypatch):
    # the 27 ordered boxes are walked once each for their three q; the 10
    # distinct sorted boxes are embedded once each and factored once per q;
    # the MacMahon ln Z of all 81 cases come in one batch; the rows are those
    # of the public oracles per (box, q)
    import hexdimer.cli as cli

    calls = {"energy_histogram": 0, "build_embedding": 0, "dgbtrf": 0}
    batches, kernel = [], cli._uniform_log_z
    monkeypatch.setattr(cli, "_uniform_log_z", lambda boxes, qs: (
        batches.append(len(boxes)) or kernel(boxes, qs)))
    lapack = types.SimpleNamespace(dgbtrf=kasteleyn._flapack().dgbtrf)
    monkeypatch.setattr(kasteleyn, "_flapack", lambda: lapack)

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(enumeration, "energy_histogram")
    spy(kasteleyn, "build_embedding")
    spy(lapack, "dgbtrf")
    rows = [row for row in cli._verify_suites()
            if row[0] in ("enumeration-vs-macmahon", "kasteleyn-vs-enumeration")]
    assert calls == {"energy_histogram": 27, "build_embedding": 10, "dgbtrf": 30}
    assert batches == [81]
    monkeypatch.undo()

    expected = []
    for m, n, k in itertools.product((1, 2, 3), repeat=3):
        shape = BoxShape(m, n, k)
        for q in (0.3, 0.5, 0.9):
            z_oracle = oracle_partition(shape, q)
            for suite, z in (("enumeration-vs-macmahon", math.exp(log_z_macmahon(shape, q))),
                             ("kasteleyn-vs-enumeration", kasteleyn_partition(shape, q))):
                expected.append((suite, f"{m};{n};{k};q={q}", abs(z - z_oracle) <= 1e-9 * z_oracle,
                                 f"rel={abs(z - z_oracle) / z_oracle:.2e}"))
    assert rows == expected


def test_verify_failure_exit_code(monkeypatch, capsys):
    import hexdimer.cli as cli

    monkeypatch.setattr(cli, "_verify_suites",
                        lambda: iter([("fake", "case", False, "boom")]))
    code, out, err = run(capsys, "verify")
    assert code == 3
    assert "FAIL" in out


def test_fit_reports_why_the_analytic_column_is_blank(monkeypatch, capsys):
    argv = ("fit", "--scenario", "infinite", "--a", "2", "--b", "1",
            "--inv-eps-min", "2", "--inv-eps-max", "40")
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "analytic_error" not in plain

    def fail(self):
        raise ConvergenceError("series did not converge")

    monkeypatch.setattr(partition.Scenario, "coefficients", fail)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "# analytic_error: series did not converge" in out.splitlines()

    def rows(text):
        return [line.split(",") for line in text.splitlines() if not line.startswith("#")][1:]

    # the fitted rows are kept as they were; only the analytic columns are blank
    assert [r[:2] for r in rows(out)] == [r[:2] for r in rows(plain)]
    assert all(r[2:] == ["", ""] for r in rows(out)) and len(rows(out)) == 6


def test_a_sliced_f0_inversion_that_cannot_converge_is_a_numerical_failure(monkeypatch, capsys):
    # cosine (1, 3) takes two Newton steps on each side
    monkeypatch.setattr(asymptotics, "_INVERSE_STEPS", 1)
    sliced = ("--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "cosine")
    code, out, err = run(capsys, "coeffs", *sliced)
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: sliced_f0: Newton's method inverting int phi")
    code, out, err = run(capsys, "fit", *sliced, "--inv-eps-min", "2", "--inv-eps-max", "40")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert any(line.startswith("# analytic_error: sliced_f0: ") for line in lines)
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 6 and all(r[1] != "" and r[2:] == ["", ""] for r in rows)


def test_fit_and_table1_name_the_same_basis(capsys):
    code, out, _ = run(capsys, "fit", "--scenario", "infinite", "--a", "2", "--b", "1",
                       "--inv-eps-min", "2", "--inv-eps-max", "40", "--json")
    assert code == 0
    assert tuple(row[0] for row in json.loads(out)["rows"]) == BASIS_NAMES
    code, out, _ = run(capsys, "table1", "--row", "linear:1,0.5:1,3")
    assert code == 0
    assert f"# basis: {','.join(BASIS_NAMES)}" in out.splitlines()


def test_numerical_failure_exit_code(monkeypatch, capsys):
    # a polylogarithm cut off before it converges is a convergence failure: exit 2
    monkeypatch.setattr(specialfn, "_LI_N_MAX", 2)
    code, _, err = run(capsys, "coeffs", "--scenario", "infinite", "--a", "1", "--b", "1")
    assert code == 2
    assert "did not converge within 2 terms" in err


def test_coeffs_with_a_side_near_zero_converges(capsys):
    # the rescaled sides are 1e-7: sliced f3 takes only the uniform box's f3
    # there, and f0 comes from sliced_f0, not from the uniform f0's li sum
    code, out, _ = run(capsys, "coeffs", "--scenario", "sliced", "--a", "1", "--b", "1",
                       "--phi", "const:1e-7")
    assert code == 0
    assert "f0,16.231801339838427" in out and "f3,-0.10765887856366696" in out


def test_table1_bad_row_names_the_form(capsys):
    code, out, err = run(capsys, "table1", "--row", "cosine:1")
    assert code == 1 and out == ""
    assert "bad table1 row 'cosine:1'; expected <phi>:<a>,<b>" in err


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


def test_out_rewrites_an_existing_file_to_the_new_length(tmp_path, capsys):
    argv = ["partition", "--a", "1", "--b", "3", "--phi", "cosine", "--inv-eps", "4"]
    code, want, _ = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "out.csv"
    for before in ("x" * (3 * len(want)), "", "short\n"):
        out.write_text(before)
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == want


# cosine (1, 3) over 1/eps = 2..200 is 8.06 M cells: split in two on two CPUs
SPLIT_FIT = ("fit", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", "cosine",
             "--inv-eps-min", "2", "--inv-eps-max", "200")


@pytest.mark.parametrize("exc, code, prefix", [
    (ValueError("the coefficients failed"), 1, "error: "),
    (ConvergenceError("the coefficients failed"), 2, "numerical failure: "),
])
def test_table1_coefficient_error_under_the_split_kills_every_child(monkeypatch, capsys, forks,
                                                                     exc, code, prefix):
    def fail(self):
        raise exc

    monkeypatch.setattr(partition.Scenario, "coefficients", fail)
    set_cpus(monkeypatch, 1)
    one = run(capsys, "table1", "--row", "cosine:1,3")
    assert one == (code, "", prefix + "the coefficients failed\n") and forks == []
    set_cpus(monkeypatch, 2)
    assert run(capsys, "table1", "--row", "cosine:1,3") == one
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_table1_names_the_coefficient_error_before_the_grids(monkeypatch, capsys, forks, cpus):
    # const:1e-300 fails both: e^(-a*phi(b-a)) and e^(-E) at eps = 1/2 round to 1
    set_cpus(monkeypatch, cpus)
    code, out, err = run(capsys, "table1", "--row", "const:1e-300:1,3")
    assert code == 1 and out == ""
    assert err == ("error: side a*phi(b-a) = 1e-300 is too small: e^(-a*phi(b-a)) rounds to 1 "
                   "in floating point, so ln(1 - e^(-a*phi(b-a))) cannot be formed\n")
    assert len(forks) == cpus - 1
    assert_no_child_left()


def test_fit_under_the_split_keeps_its_rows_and_names_the_analytic_error(monkeypatch, capsys,
                                                                          forks):
    set_cpus(monkeypatch, 1)
    code, plain, _ = run(capsys, *SPLIT_FIT)
    assert code == 0 and "analytic_error" not in plain
    set_cpus(monkeypatch, 2)
    assert run(capsys, *SPLIT_FIT) == (0, plain, "")

    def fail(self):
        raise ConvergenceError("series did not converge")

    monkeypatch.setattr(partition.Scenario, "coefficients", fail)
    set_cpus(monkeypatch, 1)
    one = run(capsys, *SPLIT_FIT)
    assert one[0] == 0 and "# analytic_error: series did not converge" in one[1].splitlines()
    set_cpus(monkeypatch, 2)
    assert run(capsys, *SPLIT_FIT) == one
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("phi, eps", [("const:3e-15", "0.014925373134328358"),
                                      ("const:1e-300", "0.5")])
@pytest.mark.parametrize("cpus", [1, 2])
def test_fit_names_a_grid_error_before_a_coefficient_error(monkeypatch, capsys, forks, phi, eps,
                                                           cpus):
    def fail(self):
        raise ValueError("the coefficients failed")

    monkeypatch.setattr(partition.Scenario, "coefficients", fail)
    set_cpus(monkeypatch, cpus)
    argv = ("fit", "--scenario", "sliced", "--a", "1", "--b", "3", "--phi", phi,
            "--inv-eps-min", "2", "--inv-eps-max", "200")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: eps * phi is too small for {phi} at eps = {eps}:")
    assert len(forks) == cpus - 1
    assert_no_child_left()


def test_coeffs_rejects_a_tiny_phi_before_sliced_f0(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("sliced_f0 ran")

    monkeypatch.setattr(asymptotics, "sliced_f0", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "coeffs", "--scenario", "sliced", "--a", "1", "--b", "3",
                             "--phi", "const:1e-300")
    assert code == 1 and out == ""
    assert err == ("error: side a*phi(b-a) = 1e-300 is too small: e^(-a*phi(b-a)) rounds to 1 "
                   "in floating point, so ln(1 - e^(-a*phi(b-a))) cannot be formed\n")
    code, out, err = run(capsys, "coeffs", "--scenario", "sliced", "--a", "1", "--b", "3",
                         "--phi", "const:1e200")
    assert code == 1 and out == ""
    assert err == ("error: sides too large: ab*phi(b-a)^2 = inf, and the closed forms divide by "
                   "12(ab*phi(b-a)^2), which overflows\n")
