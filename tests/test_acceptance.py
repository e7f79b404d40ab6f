"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Criteria 4 and 6 share the expensive slice-weight grids through module-scoped
fixtures.
"""
import math
import time

import pytest

from hexdimer import (
    BoxShape,
    INFINITE,
    chi,
    coeffs_finite,
    coeffs_infinite,
    coeffs_sliced,
    fit,
    free_energy_value,
    grid_samples,
    kasteleyn_partition,
    log_z_infinite,
    log_z_macmahon,
    log_z_sliced,
    oracle_partition,
    phi_from_id,
    q_func,
    residual_slope,
    series_free_energy,
    universal_constant,
    universal_constant_detail,
    zeta3,
    Scenario,
)
from hexdimer.asymptotics import log_ratio_three

from _reference import TABLE1, UNIVERSAL_CONSTANT, UNIVERSAL_CONSTANT_HP, ZETA3

_TABLE1_CONFIGS = tuple((phi_id, float(a), float(b)) for (phi_id, a, b) in TABLE1)
_FINITE_CONFIGS = ((1.0, 1.0, 1.0), (3.0, 2.0, 1.0))


def _report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def table1_results():
    """Fitted + analytic coefficients for each reference slice-weight row,
    plus the wall time spent building them (charged to criterion 4)."""
    t0 = time.time()
    out = {}
    for phi_id, a, b in _TABLE1_CONFIGS:
        phi = phi_from_id(phi_id)
        samples = grid_samples(Scenario("sliced", a, b, phi=phi), 2, 200)
        out[(phi_id, a, b)] = (coeffs_sliced(a, b, phi), fit(samples))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def finite_fits():
    out = {}
    for (a, b, c) in _FINITE_CONFIGS:
        samples = grid_samples(Scenario("finite", a, b, c), 2, 200)
        out[(a, b, c)] = fit(samples)
    return out


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                shape = BoxShape(m, n, k)
                for q in (0.3, 0.5, 0.9):
                    z_enum = oracle_partition(shape, q)
                    z_mac = math.exp(log_z_macmahon(shape, q))
                    z_kast = kasteleyn_partition(shape, q)
                    for x, y in ((z_enum, z_mac), (z_enum, z_kast), (z_mac, z_kast)):
                        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    elapsed = time.time() - t0
    _report(1, worst < 1e-9 and elapsed < 30.0,
            f"max pairwise rel diff {worst:.2e} over 27 shapes x 3 weights", elapsed)


def test_criterion_2_universal_constant():
    t0 = time.time()
    value, bound = universal_constant_detail()
    elapsed = time.time() - t0
    miss = abs(value - UNIVERSAL_CONSTANT_HP)
    ok = (abs(value - UNIVERSAL_CONSTANT) < 5e-6
          and value == universal_constant()
          and miss <= bound < 1e-13
          and elapsed < 1.0)
    _report(2, ok, f"I_Q = {value:.9f} (ref {UNIVERSAL_CONSTANT}), "
                   f"|I_Q - 130-digit ref| {miss:.1e} <= bound {bound:.1e}", elapsed)


def test_criterion_3_dual_evaluator_identity():
    t0 = time.time()
    worst = 0.0
    for scenario in (Scenario("finite", 1.0, 1.0, 1.0), Scenario("finite", 3.0, 2.0, 1.0),
                     Scenario("infinite", 1.0, 1.0), Scenario("infinite", 2.0, 1.0)):
        for t in (10, 50, 100):
            exact = free_energy_value(scenario.box(1.0 / t), math.exp(-1.0 / t))
            series = series_free_energy(scenario, 1.0 / t)
            worst = max(worst, abs(exact - series))
    elapsed = time.time() - t0
    _report(3, worst < 1e-11 and elapsed < 10.0,
            f"max |exact - series| = {worst:.2e}", elapsed)


def test_criterion_4_table1_reproduction(table1_results):
    results, build_time = table1_results
    t0 = time.time()
    details = []
    ok = True
    for (phi_id, a, b), (analytic, fitted) in results.items():
        _, f0_ref, _, _, _, f3_ref = TABLE1[(phi_id, int(a), int(b))]
        f0, f1, f2, f3 = fitted.coefficients[:4]
        row_ok = (abs(f0 - f0_ref) < 1e-7
                  and abs(f1) <= 1e-5
                  and 0.998 <= 12 * a * b * f2 <= 1.002
                  and abs(f3 - f3_ref) < 1e-6
                  and abs(f3 - analytic.f3) < 2e-4)
        ok = ok and row_ok
        details.append(f"{phi_id}({a:g},{b:g}): d_f0={abs(f0 - f0_ref):.1e} "
                       f"12ab_f2={12 * a * b * f2:.6f} d_f3={abs(f3 - f3_ref):.1e} "
                       f"d_f3_analytic={abs(f3 - analytic.f3):.1e}")
    elapsed = build_time + (time.time() - t0)
    _report(4, ok and elapsed < 300.0, "; ".join(details), elapsed)


def test_criterion_5_residual_scaling():
    t0 = time.time()
    slopes = []
    ok = True
    for (a, b, c) in _FINITE_CONFIGS:
        samples = grid_samples(Scenario("finite", a, b, c), 50, 200)
        coeffs = coeffs_finite(a, b, c)
        slope = residual_slope(samples, coeffs)
        slopes.append(f"({a:g},{b:g},{c:g}): slope={slope:.3f}")
        ok = ok and abs(slope - 4.0) <= 0.2
    elapsed = time.time() - t0
    _report(5, ok and elapsed < 60.0, "; ".join(slopes), elapsed)


def test_criterion_6_f1_vanishes(table1_results, finite_fits):
    results = table1_results[0]
    t0 = time.time()
    ok = True
    details = []
    for (a, b, c) in _FINITE_CONFIGS:
        ok = ok and coeffs_finite(a, b, c).f1 == 0.0
    for (a, b) in ((1.0, 1.0), (2.0, 1.0)):
        ok = ok and coeffs_infinite(a, b).f1 == 0.0
    for (phi_id, a, b), (analytic, fitted) in results.items():
        ok = ok and analytic.f1 == 0.0
        f1 = fitted.coefficients[1]
        ok = ok and abs(f1) < 1e-5
        details.append(f"{phi_id}({a:g},{b:g}): |f1|={abs(f1):.1e}")
    for key, fitted in finite_fits.items():
        f1 = fitted.coefficients[1]
        ok = ok and abs(f1) < 1e-5
        details.append(f"finite{key}: |f1|={abs(f1):.1e}")
    elapsed = time.time() - t0
    _report(6, ok, "; ".join(details), elapsed)


def test_criterion_7_constant_phi_reduction():
    t0 = time.time()
    ok = True
    details = []
    for (a, b) in ((1.0, 3.0), (2.0, 3.0)):
        sliced = coeffs_sliced(a, b, phi_from_id("const:1"))
        infinite = coeffs_infinite(a, b)
        d = [abs(sliced.f0 - infinite.f0), abs(sliced.f1 - infinite.f1),
             abs(sliced.f2 - infinite.f2), abs(sliced.f3 - infinite.f3)]
        row_ok = d[0] < 1e-10 and d[1] == 0.0 and d[2] < 1e-12 and d[3] < 1e-12
        ok = ok and row_ok
        details.append(f"(a,b)=({a:g},{b:g}): d=({d[0]:.1e},{d[1]:.0e},{d[2]:.1e},{d[3]:.1e})")
    c_val = 1.7
    for (m, n) in ((2, 3), (4, 4)):
        eps = 0.25
        lhs = log_z_sliced(m, n, phi_from_id(f"const:{c_val}"), eps)
        rhs = log_z_infinite(BoxShape(m, n, INFINITE), math.exp(-eps * c_val))
        ok = ok and abs(lhs - rhs) < 1e-12
        details.append(f"logZ reduction m={m},n={n}: {abs(lhs - rhs):.1e}")
    elapsed = time.time() - t0
    _report(7, ok, "; ".join(details), elapsed)


def test_criterion_8_special_function_suite():
    t0 = time.time()
    checks = []
    checks.append(("chi evenness", all(abs(chi(z) - chi(-z)) < 1e-12
                                       for z in [x * 0.25 for x in range(-40, 41)])))
    checks.append(("chi Taylor O(z^6)",
                   all(abs(chi(z) - (1 - z**2 / 12 + z**4 / 240)) <= 3e-4 * z**6 + 5e-16
                       for z in [0.001 + 0.001 * i for i in range(500)])))
    checks.append(("Q(0) = -1/6", q_func(0.0) == -1.0 / 6.0))
    checks.append(("Li3(1) = zeta(3)", abs(zeta3() - ZETA3) < 1e-10))
    a, b, c = 1.0, 2.0, 3.0
    series = math.fsum(
        ((-math.expm1(-n * a)) * (-math.expm1(-n * b)) * (-math.expm1(-n * c)) - 1.0) / n
        for n in range(1, 400))
    checks.append(("log identity", abs(series - log_ratio_three(a, b, c)) < 1e-10))
    elapsed = time.time() - t0
    ok = all(passed for _, passed in checks) and elapsed < 1.0
    detail = ", ".join(f"{name}={'ok' if passed else 'FAIL'}" for name, passed in checks)
    _report(8, ok, detail, elapsed)
