import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import summation
from hexdimer.partition import log_z_sliced, sliced_log_weight_exponents
from hexdimer.summation import exact_sum
from hexdimer.weights import CosinePhi


def same_bits(x: float, y: float) -> bool:
    return struct.pack("<d", x) == struct.pack("<d", y)


def assert_matches_fsum(xs) -> None:
    assert same_bits(exact_sum(np.array(xs, dtype=float)), math.fsum(xs))


# finite floats with binary exponents in [-600, 600]
scaled_floats = st.builds(math.ldexp,
                          st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
                          st.integers(-600, 600))


@settings(max_examples=300, deadline=None)
@given(st.lists(scaled_floats, max_size=200))
def test_matches_fsum_bit_for_bit(xs):
    assert_matches_fsum(xs)


@settings(max_examples=50, deadline=None)
@given(st.lists(scaled_floats, min_size=1, max_size=20), st.integers(0, 2**32 - 1))
def test_cancelling_copies_match_fsum(xs, seed):
    # each value with its negation, shuffled, plus a small unpaired tail
    rng = np.random.default_rng(seed)
    ys = xs + [-x for x in xs] + [x * 2.0**-60 for x in xs[:3]]
    assert_matches_fsum([ys[i] for i in rng.permutation(len(ys))])


@pytest.mark.parametrize("xs", [
    [],
    [0.0],
    [-0.0],
    [3.5],
    [-2.0**-1074],
    [1.0, 2.0**-53],
    [1.0, 2.0**-53, 2.0**-106],
    [1.0, -2.0**-54, 2.0**-53],
    [1.0, 2.0**-53, -2.0**-106],
    [1e16, 1.0, -1e16],
    [1.0, -1.0, 1e-300, -1e-300],
    [5e-324, 5e-324, -1e-323, 2.0**-1060],
    [2.0**-1022, -2.0**-1074, 3e-320],
    [2.0**-899, 2.0**-950, -5e-324],
    [1e300, 1.0, -1e300],
])
def test_explicit_cases(xs):
    assert_matches_fsum(xs)


@pytest.mark.parametrize("size", [3, 1 << 15, (1 << 15) + 1, 200_001])
def test_large_arrays_use_several_levels(size):
    rng = np.random.default_rng(size)
    # magnitudes spread over 2^-300..2^300, far more than one extraction level holds
    xs = rng.standard_normal(size) * np.exp2(rng.integers(-300, 300, size))
    assert same_bits(exact_sum(xs), math.fsum(xs))
    terms = np.log1p(-np.exp(-rng.uniform(1e-3, 6.0, size)))
    assert same_bits(exact_sum(terms), math.fsum(terms))


def test_same_sign_full_blocks():
    # like ln Z terms: one sign, magnitudes just under a power of two, so each
    # level sum of a full block comes close to sigma and needs all 53 bits
    rng = np.random.default_rng(11)
    for _ in range(40):
        xs = -rng.uniform(0.9, 1.0, 1 << 15)
        assert same_bits(exact_sum(xs), math.fsum(xs))


def test_matrix_input_is_summed_whole_and_left_unchanged():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((300, 200))
    before = x.copy()
    assert same_bits(exact_sum(x), math.fsum(x.ravel()))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("xs", [
    [math.inf, 1.0],
    [-math.inf, 2.0, 3.0],
    [1.0, math.nan],
    [math.inf, math.nan],
    [1e308, -1e308, 1e308],
    [1.0] * (1 << 15) + [math.inf],                 # inf in a later block
    [0.5] * (1 << 15) + [1e308, -1e308, 1e308, 1.0],
])
def test_nonfinite_and_huge_follow_fsum(xs):
    got, want = exact_sum(np.array(xs)), math.fsum(xs)
    assert same_bits(got, want) or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("xs", [
    [math.inf, -math.inf],
    [1e308, 1e308, -1e308],
])
def test_fsum_errors_carry_over(xs):
    with pytest.raises(Exception) as want:
        math.fsum(xs)
    with pytest.raises(want.type):
        exact_sum(np.array(xs))


def level_spy(monkeypatch):
    """Record the number of level sums each _split_level call appends, and
    every math.fsum call made on the input array itself (the fallback)."""
    calls, fallbacks = [], []
    split, fsum = summation._split_level, math.fsum

    def split_spy(x, p, q, parts):
        before = len(parts)
        sigma = split(x, p, q, parts)
        calls.append(len(parts) - before)
        return sigma

    def fsum_spy(xs):
        if isinstance(xs, np.ndarray):
            fallbacks.append(xs.size)
        return fsum(xs)

    monkeypatch.setattr(summation, "_split_level", split_spy)
    monkeypatch.setattr(summation.math, "fsum", fsum_spy)
    return calls, fallbacks


@settings(max_examples=300, deadline=None)
@given(st.lists(scaled_floats, min_size=1, max_size=200))
def test_one_level_remainder_error_within_bound(xs):
    x = np.array(xs)
    k = x.size
    p, q, parts = np.empty(k), np.empty(k), []
    sigma = summation._split_level(x, p, q, parts)
    exact = sum(map(Fraction, xs), Fraction(0))
    if not sigma:  # fully split: the parts are the sum
        assert sum(map(Fraction, parts), Fraction(0)) == exact
        return
    u = Fraction(1, 2**53)
    rests = [Fraction(r) for r in p.tolist()]
    assert all(abs(r) <= u * sigma for r in rests)
    assert sum(map(Fraction, parts), Fraction(0)) + sum(rests, Fraction(0)) == exact
    # any order of summing k values each at most u sigma: off by gamma_{k-1} k u sigma
    gamma = (k - 1) * u / (1 - (k - 1) * u)
    error = abs(Fraction(float(p.sum())) - sum(rests, Fraction(0)))
    assert error <= gamma * k * u * sigma
    assert gamma * k * u * sigma <= Fraction(k * k * summation._U * summation._U * sigma)


def test_tie_after_one_level_falls_back_and_matches_fsum(monkeypatch):
    # 1 + 2^-53 is a rounding midpoint; the 2^-106 beyond it lies in the
    # float-summed remainders, so one level cannot decide which way it rounds
    calls, fallbacks = level_spy(monkeypatch)
    xs = [1.0, 2.0**-53, 2.0**-106]
    got = exact_sum(np.array(xs))
    assert same_bits(got, math.fsum(xs)) and got == 1.0 + 2.0**-52
    assert calls == [1] and fallbacks == [3]


def test_sliced_terms_decide_after_one_level(monkeypatch):
    m, n, eps = 200, 600, 1.0 / 200  # cosine (1, 3) at 1/eps = 200
    calls, fallbacks = level_spy(monkeypatch)
    log_z = log_z_sliced(m, n, CosinePhi(), eps)
    blocks = -(-m * n // summation._BLOCK)
    assert calls == [1] * blocks and fallbacks == []  # one level sum per block
    terms = np.log1p(-np.exp(-sliced_log_weight_exponents(m, n, CosinePhi(), eps)))
    assert same_bits(log_z, -math.fsum(terms.ravel()))
