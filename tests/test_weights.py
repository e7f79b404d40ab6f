import math

import numpy as np
import pytest

from hexdimer import (
    ConstantPhi,
    CosinePhi,
    LinearPhi,
    TabulatedPhi,
    phi_from_id,
)

from _reference import same_bits


def test_catalog_parsing():
    assert isinstance(phi_from_id("cosine"), CosinePhi)
    lin = phi_from_id("linear:2,0.5")
    assert float(lin(0.0)) == 2.0 and float(lin(2.0)) == 3.0
    const = phi_from_id("const:1.5")
    assert float(const(123.0)) == 1.5
    with pytest.raises(ValueError):
        phi_from_id("mystery:1")


@pytest.mark.parametrize("phi", [
    ConstantPhi(1.0), ConstantPhi(1.0000001), ConstantPhi(math.pi), ConstantPhi(3e-15),
    LinearPhi(1234567.0, 0.5), LinearPhi(0.1 + 0.2, -1e-300), LinearPhi(-0.0, 1e16),
], ids=lambda phi: phi.id)
def test_id_rebuilds_the_parameters_exactly(phi):
    back = phi_from_id(phi.id)
    assert type(back) is type(phi) and back.id == phi.id
    assert same_bits(back.alpha, phi.alpha) and same_bits(back.beta, phi.beta)


def test_ids_keep_the_short_forms():
    assert [p.id for p in (ConstantPhi(1.0), ConstantPhi(40.0), LinearPhi(1.0, 0.5),
                           LinearPhi(1e-7, 3e-15), ConstantPhi(1e-300))] == [
        "const:1", "const:40", "linear:1,0.5", "linear:1e-07,3e-15", "const:1e-300"]
    assert ConstantPhi(1.0000001).id != ConstantPhi(1.0).id


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


class SpikePhi(CosinePhi):
    """cosine with an infinite value at t = 0."""

    id = "spike"

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t == 0.0, np.inf, super().__call__(t))


def test_nonfinite_phi_is_rejected():
    for make in (lambda: ConstantPhi(np.inf), lambda: ConstantPhi(np.nan),
                 lambda: LinearPhi(np.inf, 0.0), lambda: LinearPhi(1.0, np.nan)):
        with pytest.raises(ValueError, match="phi .*finite"):
            make()
    with pytest.raises(ValueError, match=r"finite and strictly positive.*spike\(0.0\) = inf"):
        SpikePhi().check_positive(-1.0, 1.0)


@pytest.mark.parametrize("spec, form", [
    ("linear:1,2,3", "linear:alpha,beta"),
    ("linear:1,x", "linear:alpha,beta"),
    ("const:", "const:c"),
    ("const:1,2", "const:c"),
])
def test_bad_spec_names_the_form(spec, form):
    with pytest.raises(ValueError, match=form):
        phi_from_id(spec)


def test_tabulated_file_needs_two_columns(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("0,1,2\n1,1,2\n2,1,2\n3,1,2\n")
    with pytest.raises(ValueError, match="three.csv.*t,phi"):
        phi_from_id(f"tabulated:{path}")


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="integral is a difference of antiderivatives")
def test_cosine_integral_over_a_short_side_far_out():
    # sliced_f0's u(a) is integral(b - a, b) over the short side: the difference
    # of two antiderivatives near 2b/3 keeps only about 16 - log10(b/a) digits,
    # 4.4e-11 relative here (2.1e-12 at b = 1e4, 1.5e-9 at b = 1e7).  The
    # sum-to-product form (2a + 2 cos(d + a/2) sin(a/2))/3, d = b - a, is
    # stable.  Its fix is a change of its own: a stable CosinePhi.integral
    # moves pinned bits, cosine (1, 3)'s f0 from 0.47220669610174465 to
    # 0.4722066961017446 and cosine (1, 30)'s f0 too
    mpmath = pytest.importorskip("mpmath")
    a, b = 1.0, 1e6
    with mpmath.workdps(40):
        d, half = mpmath.mpf(b) - a, mpmath.mpf(a) / 2
        ref = float((2 * mpmath.mpf(a) + 2 * mpmath.cos(d + half) * mpmath.sin(half)) / 3)
    got = float(CosinePhi().integral(b - a, b))
    assert abs(got - ref) <= 1e-13 * abs(ref)
