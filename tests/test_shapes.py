import math

import pytest

from hexdimer import INFINITE, BoxShape, CosinePhi, Scenario


def test_finite_volume_formula():
    assert BoxShape(1, 1, 1).volume == 6
    assert BoxShape(2, 2, 2).volume == 24
    assert BoxShape(3, 2, 1).volume == 2 * (6 + 2 + 3)


def test_infinite_volume_is_mn():
    assert BoxShape(4, 5, INFINITE).volume == 20
    assert not BoxShape(4, 5, INFINITE).is_finite


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0), (1, 1, 2.5)])
def test_invalid_boxes_rejected(bad):
    with pytest.raises(ValueError):
        BoxShape(*bad)


def test_scaled_shape_lattice_consistency():
    # a scenario's scaled sides map to the lattice box at mesh eps
    assert Scenario("finite", 1.0, 2.0, 3.0).box(0.1) == BoxShape(10, 20, 30)
    assert Scenario("infinite", 1.0, 2.0).box(0.1) == BoxShape(10, 20, INFINITE)
    assert Scenario("sliced", 1.0, 3.0, phi=CosinePhi()).box(0.25) == BoxShape(4, 12, INFINITE)
    with pytest.raises(ValueError, match=r"a/eps = 1.5 is not an integer within 1e-09"):
        Scenario("infinite", 1.5, 1.0).box(1.0)
    with pytest.raises(ValueError, match="c/eps"):
        Scenario("finite", 1.0, 2.0, 3.5).box(1.0)
    # within the integer tolerance of 0, but not a lattice side
    with pytest.raises(ValueError, match=r"a/eps = 1e-10 rounds to 0 lattice steps"):
        Scenario("infinite", 1e-10, 1.0).box(1.0)
    with pytest.raises(ValueError, match=r"c/eps = 1e-10 rounds to 0 lattice steps"):
        Scenario("finite", 1.0, 2.0, 1e-10).box(1.0)
    for eps in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="mesh eps must be positive"):
            Scenario("finite", 1.0, 2.0, 3.0).box(eps)


def test_scaled_from_box_roundtrip():
    # sides that are not exact in binary still map back to the integer box
    box = BoxShape(3, 2, INFINITE)
    assert Scenario("infinite", 3 / 7, 2 / 7).box(1 / 7) == box
    assert Scenario("finite", 3 / 7, 2 / 7, 5 / 7).box(1 / 7) == BoxShape(3, 2, 5)
