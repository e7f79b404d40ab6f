import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import (
    ExpansionCoefficients,
    FitBasis,
    FreeEnergySample,
    IllConditionedBasisError,
    coeffs_infinite,
    coeffs_sliced,
    CosinePhi,
    Scenario,
    fit,
    grid_samples,
    residual_slope,
)

from _reference import TABLE1


def synth_samples(coeffs, inv_min=2, inv_max=80):
    basis = FitBasis.default()
    out = []
    for t in range(inv_min, inv_max + 1):
        eps = 1.0 / t
        row = basis.design_matrix(np.array([eps]))[0]
        out.append(FreeEnergySample(t, eps, float(row @ np.asarray(coeffs))))
    return out


def test_sample_grid():
    scenario = Scenario("infinite", 2.0, 1.0)
    assert [s.inv_eps for s in grid_samples(scenario, 2, 5)] == [2, 3, 4, 5]
    assert len(grid_samples(scenario)) == 199  # default grid 2..200
    with pytest.raises(ValueError):
        grid_samples(scenario, 10, 10)


def test_exact_linear_recovery():
    truth = (0.1, 0.0, 1.0, -0.05, 0.0, 0.0)
    result = fit(synth_samples(truth))
    assert max(abs(f - t) for f, t in zip(result.coefficients, truth)) < 1e-10
    assert result.residual_rms < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.floats(-1, 1) for _ in range(6)]))
def test_recovery_property(truth):
    result = fit(synth_samples(truth))
    assert max(abs(f - t) for f, t in zip(result.coefficients, truth)) < 1e-9


def test_fit_reorder_invariance_bit_identical():
    samples = grid_samples(Scenario("infinite", 2.0, 1.0), 2, 60)
    shuffled = samples[:]
    random.Random(7).shuffle(shuffled)
    a = fit(samples)
    b = fit(shuffled)
    assert a.coefficients == b.coefficients


def test_fit_guards():
    samples = synth_samples((0.1, 0, 1, 0, 0, 0), inv_min=2, inv_max=9)
    with pytest.raises(ValueError):
        fit(samples[:8])  # too few
    dup = samples + [samples[0]]
    with pytest.raises(ValueError):
        fit(dup)


def test_ill_conditioned_basis_rejected():
    bad = FitBasis(
        names=("1", "x", "x_again", "eps2", "eps3", "eps4"),
        terms=(
            lambda e: np.ones_like(e),
            lambda e: e,
            lambda e: e * (1 + 1e-14),
            lambda e: e**2,
            lambda e: e**3,
            lambda e: e**4,
        ),
    )
    samples = synth_samples((0.1, 0.2, 0, 0.3, 0, 0), inv_min=2, inv_max=40)
    with pytest.raises(IllConditionedBasisError):
        fit(samples, basis=bad)


def test_infinite_height_fit_against_analytic():
    samples = grid_samples(Scenario("infinite", 2.0, 1.0), 2, 200)
    result = fit(samples)
    f0, f1, f2, f3 = result.coefficients[:4]
    analytic = coeffs_infinite(2.0, 1.0)
    assert abs(f1) < 1e-5
    assert abs(12 * 2.0 * f2 - 1.0) < 2e-3
    assert abs(f0 - analytic.f0) < 1e-6
    assert abs(f3 - analytic.f3) < 2e-4


def test_sliced_fit_against_reference_row():
    f0_a, f0_n, f1_n, twelve_n, f3_a, f3_n = TABLE1[("cosine", 1, 3)]
    samples = grid_samples(Scenario("sliced", 1.0, 3.0, phi=CosinePhi()), 2, 200)
    result = fit(samples)
    f0, f1, f2, f3 = result.coefficients[:4]
    assert abs(f0 - f0_n) < 1e-7
    assert abs(f3 - f3_n) < 1e-6
    analytic = coeffs_sliced(1.0, 3.0, CosinePhi())
    assert abs(f3 - analytic.f3) < 2e-4


def test_residual_slope_synthetic_powers():
    # residual c*eps^3 against a 4-term model with only f0 set
    coeffs = ExpansionCoefficients(0.3, 0.0, 0.0, 0.0, scenario="fit")
    samples = [FreeEnergySample(t, 1.0 / t, 0.3 + 2.0 * (1.0 / t) ** 3)
               for t in range(20, 201, 6)]
    slope = residual_slope(samples, coeffs)
    assert abs(slope - 3.0) < 0.05


def test_residual_slope_guards():
    coeffs = ExpansionCoefficients(0.3, 0.0, 0.0, 0.0, scenario="fit")
    few = [FreeEnergySample(t, 1.0 / t, 0.3 + (1.0 / t) ** 3) for t in range(20, 28)]
    with pytest.raises(ValueError):
        residual_slope(few, coeffs)
    # exact zeros are excluded; all-zero residuals leave < 5 usable points
    exact = [FreeEnergySample(t, 1.0 / t, 0.3) for t in range(20, 40)]
    with pytest.raises(ValueError):
        residual_slope(exact, coeffs)


def test_fit_result_expansion_wrapper():
    samples = grid_samples(Scenario("infinite", 1.0, 1.0), 2, 80)
    result = fit(samples)
    exp_coeffs = result.expansion("infinite", "f = +ln(Z)/V")
    assert exp_coeffs.provenance == "fitted"
    assert exp_coeffs.f0 == result.coefficients[0]
