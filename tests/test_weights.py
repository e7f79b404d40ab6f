import numpy as np
import pytest

from hexdimer import (
    ConstantPhi,
    CosinePhi,
    LinearPhi,
    TabulatedPhi,
    phi_from_id,
)


def test_catalog_parsing():
    assert isinstance(phi_from_id("cosine"), CosinePhi)
    lin = phi_from_id("linear:2,0.5")
    assert float(lin(0.0)) == 2.0 and float(lin(2.0)) == 3.0
    const = phi_from_id("const:1.5")
    assert float(const(123.0)) == 1.5
    with pytest.raises(ValueError):
        phi_from_id("mystery:1")


def test_derivatives_and_antiderivative_consistency():
    for phi in (ConstantPhi(1.3), LinearPhi(1.0, 0.5), CosinePhi()):
        h = 1e-6
        for t in (-0.7, 0.0, 1.9):
            fd1 = (float(phi(t + h)) - float(phi(t - h))) / (2 * h)
            assert abs(fd1 - float(phi.d1(t))) < 1e-8
            fd_int = (float(phi.antiderivative(t + h)) - float(phi.antiderivative(t - h))) / (2 * h)
            assert abs(fd_int - float(phi(t))) < 1e-8
        assert abs(phi.integral(0.0, 2.0) - (float(phi.antiderivative(2.0)) - float(phi.antiderivative(0.0)))) < 1e-15


def test_positivity_check():
    LinearPhi(1.0, 0.5).check_positive(-1.0, 3.0)
    with pytest.raises(ValueError):
        LinearPhi(0.1, -1.0).check_positive(-1.0, 3.0)


def test_tabulated_matches_sampled_function():
    grid = np.linspace(-1.5, 3.5, 400)
    phi = TabulatedPhi(grid, (2 + np.cos(grid)) / 3)
    ref = CosinePhi()
    for t in (-1.0, 0.3, 2.9):
        assert abs(float(phi(t)) - float(ref(t))) < 1e-8
        assert abs(float(phi.d1(t)) - float(ref.d1(t))) < 1e-5
        assert abs(phi.integral(0.0, t) - ref.integral(0.0, t)) < 1e-8


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedPhi([0, 1], [1, 1])
    with pytest.raises(ValueError):
        TabulatedPhi([0, 1, 1, 2], [1, 1, 1, 1])


def test_tabulated_rejects_range_outside_table():
    from hexdimer import coeffs_sliced

    grid = np.linspace(0.0, 1.0, 21)
    phi = TabulatedPhi(grid, 1.0 + 0.0 * grid)
    phi.check_positive(0.0, 1.0)
    phi.check_positive(0.25, 0.75)
    for lo, hi in ((-0.1, 1.0), (0.0, 1.1), (-1.0, 3.0)):
        with pytest.raises(ValueError, match="tabulated range"):
            phi.check_positive(lo, hi)
    with pytest.raises(ValueError, match="tabulated range"):
        coeffs_sliced(1.0, 3.0, phi)
