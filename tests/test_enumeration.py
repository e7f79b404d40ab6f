import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import (
    BoxShape,
    INFINITE,
    OracleSizeError,
    energy_histogram,
    oracle_partition,
)
from hexdimer import enumeration
from hexdimer.enumeration import MAX_CELLS, MAX_CONFIGS, MAX_HEIGHT, config_count

from _reference import boxed_plane_partition_count, same_bits


def enumerate_configs(shape):
    """Yield every monotone height table, as a tuple of m rows, exactly once,
    lexicographically over row-major cells (the listing the library counts)."""
    m, n, k = shape.m, shape.n, shape.k
    grid = [[0] * n for _ in range(m)]

    def fill(cell):
        if cell == m * n:
            yield tuple(tuple(row) for row in grid)
            return
        i, j = divmod(cell, n)
        bound = k
        if i > 0:
            bound = min(bound, grid[i - 1][j])
        if j > 0:
            bound = min(bound, grid[i][j - 1])
        for h in range(bound + 1):
            grid[i][j] = h
            yield from fill(cell + 1)
        grid[i][j] = 0

    yield from fill(0)


# every box the guard admits with at most 20,000 configurations: 295 boxes
LISTED_BOXES = [(m, n, k) for m in range(1, MAX_CELLS + 1) for n in range(1, MAX_CELLS // m + 1)
                for k in range(1, MAX_HEIGHT + 1) if config_count(BoxShape(m, n, k)) <= 20_000]


@functools.cache
def listed_energies(m, n, k):
    """The number of cubes of each listed configuration, in listing order."""
    return tuple(sum(map(sum, h)) for h in enumerate_configs(BoxShape(m, n, k)))


def is_valid_config(shape, heights) -> bool:
    """Check the order constraints h_ij <= h_{i-1,j}, h_ij <= h_{i,j-1} and 0 <= h <= k."""
    m, n, k = shape.m, shape.n, shape.k
    if len(heights) != m or any(len(row) != n for row in heights):
        return False
    for i in range(m):
        for j in range(n):
            h = heights[i][j]
            if h < 0 or h > k:
                return False
            if i > 0 and h > heights[i - 1][j]:
                return False
            if j > 0 and h > heights[i][j - 1]:
                return False
    return True


def test_small_counts():
    assert sum(1 for _ in enumerate_configs(BoxShape(1, 1, 1))) == 2
    assert sum(1 for _ in enumerate_configs(BoxShape(1, 1, 2))) == 3
    assert sum(1 for _ in enumerate_configs(BoxShape(2, 2, 2))) == 20


def test_single_column_heights():
    configs = list(enumerate_configs(BoxShape(1, 1, 2)))
    assert configs == [((0,),), ((1,),), ((2,),)]


@pytest.mark.parametrize("m,n,k", [(m, n, k) for m in (1, 2, 3) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_counts_match_product_formula(m, n, k):
    got = sum(1 for _ in enumerate_configs(BoxShape(m, n, k)))
    assert got == boxed_plane_partition_count(m, n, k)


def test_configs_unique_and_valid():
    shape = BoxShape(2, 3, 2)
    seen = set()
    for heights in enumerate_configs(shape):
        assert heights not in seen
        seen.add(heights)
        assert is_valid_config(shape, heights)


def test_validator_consistency_under_single_increments():
    # bumping any one cell either stays valid or breaks exactly the order/cap
    # constraints the validator enforces
    shape = BoxShape(2, 3, 2)
    for heights in enumerate_configs(shape):
        rows = [list(r) for r in heights]
        for i in range(shape.m):
            for j in range(shape.n):
                rows[i][j] += 1
                h = rows[i][j]
                expected = (h <= shape.k
                            and (i == 0 or h <= rows[i - 1][j])
                            and (j == 0 or h <= rows[i][j - 1]))
                assert is_valid_config(shape, rows) == expected
                rows[i][j] -= 1


def test_oracle_partition_values():
    assert oracle_partition(BoxShape(1, 1, 1), 0.5) == 1.5
    assert oracle_partition(BoxShape(1, 1, 2), 0.5) == 1.75
    assert oracle_partition(BoxShape(2, 2, 2), 1.0) == 20.0


def test_oracle_is_energy_polynomial():
    # coefficient vector from the energy histogram, Horner-evaluated,
    # reproduces the oracle
    shape = BoxShape(2, 2, 3)
    hist = energy_histogram(shape)
    q = 0.7
    coeffs = [hist.get(e, 0) for e in range(max(hist) + 1)]
    horner = 0.0
    for c in reversed(coeffs):
        horner = horner * q + c
    assert abs(horner - oracle_partition(shape, q)) < 1e-12 * horner


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([0.3, 0.5, 0.9]))
def test_oracle_monotone_in_sides(m, n, k, q):
    base = oracle_partition(BoxShape(m, n, k), q)
    assert oracle_partition(BoxShape(m + 1, n, k), q) >= base
    assert oracle_partition(BoxShape(m, n + 1, k), q) >= base
    assert oracle_partition(BoxShape(m, n, k + 1), q) >= base


def test_size_guard(monkeypatch):
    for walk in (energy_histogram, lambda shape: oracle_partition(shape, 0.5)):
        with pytest.raises(OracleSizeError):
            walk(BoxShape(5, 4, 2))
        with pytest.raises(OracleSizeError):
            walk(BoxShape(2, 2, 9))
        with pytest.raises(OracleSizeError):
            walk(BoxShape(2, 2, INFINITE))
    # the guard reads the module constants
    monkeypatch.setattr(enumeration, "MAX_CELLS", 20)
    assert sum(energy_histogram(BoxShape(5, 4, 1)).values()) == config_count(BoxShape(5, 4, 1))
    assert oracle_partition(BoxShape(5, 4, 1), 1.0) == config_count(BoxShape(5, 4, 1))


@pytest.mark.parametrize("m,n,k", [(4, 4, 8), (2, 8, 8), (4, 4, 5)])
def test_size_guard_on_exact_count(m, n, k):
    # inside the cell and height limits, but more than MAX_CONFIGS configurations
    assert config_count(BoxShape(m, n, k)) > MAX_CONFIGS
    with pytest.raises(OracleSizeError, match="configurations"):
        energy_histogram(BoxShape(m, n, k))
    with pytest.raises(OracleSizeError, match="configurations"):
        oracle_partition(BoxShape(m, n, k), 0.5)


@pytest.mark.parametrize("m,n,k", [(1, 1, 1), (2, 3, 4), (4, 4, 4), (2, 8, 3), (5, 4, 1)])
def test_config_count_matches_product_formula(m, n, k):
    assert config_count(BoxShape(m, n, k)) == boxed_plane_partition_count(m, n, k)


def test_oracle_q_domain():
    with pytest.raises(ValueError):
        oracle_partition(BoxShape(1, 1, 1), 1.5)


def test_energy_histogram_matches_listing():
    for m, n, k in LISTED_BOXES:
        listed = {}
        for e in listed_energies(m, n, k):
            listed[e] = listed.get(e, 0) + 1
        hist = energy_histogram(BoxShape(m, n, k))
        assert hist == listed and list(hist) == sorted(hist), (m, n, k)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 1.0])
def test_oracle_partition_matches_per_configuration_fsum(q):
    # bit for bit: math.fsum over q^e, one term per listed configuration
    for m, n, k in LISTED_BOXES:
        want = math.fsum(q ** e for e in listed_energies(m, n, k))
        assert same_bits(oracle_partition(BoxShape(m, n, k), q), want), (m, n, k, q)
