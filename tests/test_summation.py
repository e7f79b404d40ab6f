import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import partition, summation
from hexdimer.partition import log_z_sliced, sliced_log_weight_exponents
from hexdimer.summation import exact_sum
from hexdimer.weights import phi_from_id

from _reference import TABLE1, same_bits


@contextlib.contextmanager
def fsum_max(size: int):
    """Run exact_sum with summation._FSUM_MAX set to size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(summation, "_FSUM_MAX", size)
        yield


# exact_sum as shipped, and with the extraction forced on however few values
FSUM_MAX_BOTH = (summation._FSUM_MAX, 0)


def sums_both_ways(xs) -> list[float]:
    x = np.array(xs, dtype=float)
    sums = []
    for size in FSUM_MAX_BOTH:
        with fsum_max(size):
            sums.append(exact_sum(x))
    return sums


def assert_matches_fsum(xs) -> None:
    want = math.fsum(xs)
    assert all(same_bits(got, want) for got in sums_both_ways(xs))
    # the extraction given max|x|, or four times it, in place of a measured max
    top = max(map(abs, xs), default=0.0)
    with fsum_max(0):
        for bound in (top, 4.0 * top):
            assert same_bits(exact_sum(np.array(xs, dtype=float), bound), want)


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


# values that make ties and signed zeros likely: powers of two, their halves
# and quarters of an ulp, and both zeros
tie_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0**-53, -2.0**-53, 2.0**-54, 2.0**-106])


@st.composite
def arrays_around_fsum_max(draw):
    """1 to 600 values, so both sides of _FSUM_MAX are drawn: a few drawn
    values, repeated with random signs and power-of-two scales (exact).  Some
    sums are built to land on a rounding midpoint x + ulp(x)/2 amid
    cancelling pairs."""
    size = draw(st.integers(1, 600))
    base = draw(st.lists(scaled_floats | tie_floats, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = [math.ldexp(v, int(e)) * s for v, e, s in zip(
        rng.choice(base, size).tolist(), rng.integers(-40, 40, size), rng.choice([-1.0, 1.0], size))]
    if size >= 2 and draw(st.booleans()):
        x = xs[0] or 1.0
        pairs = xs[1:size // 2]
        xs = [x, math.ulp(x) / 2] + pairs + [-y for y in pairs]
        xs = [xs[i] for i in rng.permutation(len(xs))]
    return xs


@settings(max_examples=200, deadline=None)
@given(arrays_around_fsum_max())
def test_matches_fsum_either_side_of_fsum_max(xs):
    assert summation._FSUM_MAX == 256
    assert_matches_fsum(xs)


@pytest.mark.parametrize("size", [255, 256, 257, 600])
def test_signed_zeros_and_midpoints_at_fsum_max(size):
    assert_matches_fsum([-0.0] * size)
    assert_matches_fsum([0.0, -0.0] * (size // 2) + [-0.0] * (size % 2))
    midpoint = [1.0, 2.0**-53] + [0.0] * (size - 2)
    assert_matches_fsum(midpoint)
    assert_matches_fsum(midpoint[:-1] + [2.0**-106] if size > 2 else midpoint)


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
    assert_matches_fsum(xs.tolist())
    terms = np.log1p(-np.exp(-rng.uniform(1e-3, 6.0, size)))
    assert_matches_fsum(terms.tolist())


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
    want = math.fsum(xs)
    for got in sums_both_ways(xs):
        assert same_bits(got, want) or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("xs", [
    [math.inf, -math.inf],
    [1e308, 1e308, -1e308],
])
def test_fsum_errors_carry_over(xs):
    with pytest.raises(Exception) as want:
        math.fsum(xs)
    for size in FSUM_MAX_BOTH:
        with fsum_max(size), pytest.raises(want.type):
            exact_sum(np.array(xs))


def level_spy(monkeypatch):
    """Record the sigma of every _split call (one per block) and the size of
    every array that _fsum sums whole (the fallback)."""
    sigmas, fallbacks = [], []
    split, fsum_whole = summation._split, summation._fsum

    def split_spy(x, sigma, p, q):
        sigmas.append(sigma)
        return split(x, sigma, p, q)

    def fsum_spy(x):
        fallbacks.append(x.size)
        return fsum_whole(x)

    monkeypatch.setattr(summation, "_split", split_spy)
    monkeypatch.setattr(summation, "_fsum", fsum_spy)
    return sigmas, fallbacks


def splitting_constant(size: int, top: float) -> float:
    """sigma = 2^(M+e): size + 2 <= 2^M values, each below 2^e >= top."""
    return math.ldexp(1.0, (size + 1).bit_length() + math.frexp(top)[1])


@settings(max_examples=300, deadline=None)
@given(st.lists(scaled_floats, min_size=1, max_size=200), st.sampled_from([None, 1.0, 1.5, 4.0]),
       st.sampled_from([0, 100]))
def test_one_level_remainder_error_within_bound(xs, looser, pad):
    # looser: sigma from the measured max|x| (None), or from a bound that many
    # times max|x|; pad: sigma sized for a block of k + pad values, as a
    # partial last block gets it
    x = np.array(xs)
    k = x.size
    size = k + pad
    top = None if looser is None else looser * float(np.abs(x).max())
    exact = sum(map(Fraction, xs), Fraction(0))
    bound = float(np.abs(x).max()) if top is None else top
    if not bound >= summation._TINY:  # zero or tiny: summed whole by math.fsum, never split
        with fsum_max(0):
            assert same_bits(exact_sum(x, top), math.fsum(xs))
        return
    sigma = splitting_constant(size, bound)
    p, q = np.empty(k), np.empty(k)
    level, rest = summation._split(x, sigma, p, q)
    u = Fraction(1, 2**53)
    rests = [Fraction(r) for r in p.tolist()]
    assert all(abs(r) <= u * sigma for r in rests)
    assert Fraction(level) + sum(rests, Fraction(0)) == exact
    # any order of summing k values each at most u sigma: off by gamma_{k-1} k u sigma
    gamma = (k - 1) * u / (1 - (k - 1) * u)
    error = abs(Fraction(rest) - sum(rests, Fraction(0)))
    assert error <= gamma * k * u * sigma
    assert gamma * k * u * sigma <= Fraction(size * size * summation._U * summation._U * sigma)


def test_bound_covers_every_block_at_its_full_allowance(monkeypatch):
    # each block's remainder sum comes back off by its whole allowance
    # delta = (size u)^2 sigma, all four the same way; the exact sum
    # 1 + 2^-53 - 2^-80 lies 2^-80 below the midpoint of 1 and 1 + 2^-52, within
    # 3 delta of it, so a bound short of the four blocks' 4 delta rounds it up
    split = summation._split
    deltas = []

    def off_by_allowance(x, sigma, p, q):
        level, _ = split(x, sigma, p, q)
        delta = (x.size * summation._U) ** 2 * sigma
        deltas.append(delta)
        return level, math.fsum(p.tolist()) + delta

    monkeypatch.setattr(summation, "_split", off_by_allowance)
    x = np.zeros(4 * summation._BLOCK)
    x[[0, summation._BLOCK, 2 * summation._BLOCK]] = [1.0, 2.0**-53, -(2.0**-80)]
    got = exact_sum(x)
    assert same_bits(got, math.fsum(x.tolist())) and got == 1.0
    assert len(deltas) == 4 and 2.0**-80 < 3 * deltas[0]


def test_tie_after_one_level_falls_back_and_matches_fsum(monkeypatch):
    # 1 + 2^-53 is a rounding midpoint; the 2^-106 beyond it lies in the
    # float-summed remainders, so one level cannot decide which way it rounds
    monkeypatch.setattr(summation, "_FSUM_MAX", 0)  # 3 values would skip the split
    sigmas, fallbacks = level_spy(monkeypatch)
    xs = [1.0, 2.0**-53, 2.0**-106]
    got = exact_sum(np.array(xs))
    assert same_bits(got, math.fsum(xs)) and got == 1.0 + 2.0**-52
    # one split, at the sigma of the measured max|x| = 1, then the fallback
    assert sigmas == [splitting_constant(3, 1.0)] and fallbacks == [3]


def test_small_and_zero_arrays_skip_the_split(monkeypatch):
    sigmas, fallbacks = level_spy(monkeypatch)
    x = np.linspace(-1.0, 2.0, summation._FSUM_MAX + 1)
    exact_sum(x[1:])  # _FSUM_MAX values: summed whole, never split
    assert sigmas == [] and fallbacks == [summation._FSUM_MAX]
    del fallbacks[:]
    exact_sum(x)
    assert sigmas == [splitting_constant(x.size, 2.0)] and fallbacks == []
    del sigmas[:]
    for zeros in (np.zeros(1000), np.full(1000, -0.0)):  # top 0: no split, no fsum
        assert same_bits(exact_sum(zeros), 0.0) and same_bits(exact_sum(zeros, 0.0), 0.0)
    assert sigmas == [] and fallbacks == []


@pytest.mark.parametrize("scale", [2.0**-950, 2.0**-901, 2.0**901, 2.0**1000],
                         ids=["2^-950", "2^-901", "2^901", "2^1000"])
def test_tops_out_of_range_send_the_array_to_fsum_whole(monkeypatch, scale):
    # a top below 2^-900 or above 2^900, measured or given, skips the split
    sigmas, fallbacks = level_spy(monkeypatch)
    xs = np.random.default_rng(5).uniform(-1.0, 1.0, 1000) * scale
    for top in (None, float(np.abs(xs).max())):
        assert same_bits(exact_sum(xs, top), math.fsum(xs.tolist()))
    assert sigmas == [] and fallbacks == [1000, 1000]


def test_sliced_terms_decide_after_one_level(monkeypatch):
    # every Table 1 row at 1/eps = 200: a fallback to fsum over the terms costs
    # about 50 ns per cell, far more than the extraction saves
    sigmas, fallbacks = level_spy(monkeypatch)
    tops = []

    def exact_sum_spy(values, top=None):
        tops.append(top)
        return exact_sum(values, top)

    monkeypatch.setattr(partition, "exact_sum", exact_sum_spy)
    for spec, a, b in TABLE1:
        m, n, eps, phi = 200 * a, 200 * b, 1.0 / 200, phi_from_id(spec)
        del sigmas[:], tops[:]
        log_z = log_z_sliced(m, n, phi, eps)
        blocks = -(-m * n // summation._BLOCK)
        assert len(sigmas) == blocks and fallbacks == []  # one split per block
        # every block takes sigma from the kernel's bound, not from max|x|
        [top] = tops
        assert top is not None and top >= summation._TINY
        assert sigmas == [splitting_constant(min(m * n, summation._BLOCK), top)] * blocks
        terms = np.log1p(-np.exp(-sliced_log_weight_exponents(m, n, phi, eps)))
        assert same_bits(log_z, -math.fsum(terms.ravel()))


def fsum_or_error(xs):
    """math.fsum(xs), or the type of the exception it raises."""
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_segments_match_fsum(segments) -> None:
    """exact_sums over the segments laid end to end gives math.fsum of each,
    bit for bit (nan as nan), or raises what fsum raises on the first segment
    that raises."""
    values = np.array([x for segment in segments for x in segment], dtype=float)
    want = [fsum_or_error(segment) for segment in segments]
    error = next((w for w in want if isinstance(w, type)), None)
    if error is not None:
        with pytest.raises(error):
            summation.exact_sums(values, [len(segment) for segment in segments])
        return
    got = summation.exact_sums(values, [len(segment) for segment in segments])
    assert len(got) == len(want)
    assert all(same_bits(g, w) or (math.isnan(g) and math.isnan(w)) for g, w in zip(got, want))


special_floats = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 2.0**-1000,
                                  2.0**950, -2.0**950])


@st.composite
def segments(draw):
    """One segment: 0 to 600 values around _FSUM_MAX with ties and signed
    zeros, plain scaled floats, all zeros, or rarely a few specials: inf, nan,
    tops outside [2^-900, 2^900] and sums that overflow."""
    kind = draw(st.sampled_from(["around", "around", "plain", "zeros", "empty", "special"]))
    if kind == "around":
        return draw(arrays_around_fsum_max())
    if kind == "plain":
        return draw(st.lists(scaled_floats, min_size=1, max_size=300))
    if kind == "zeros":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=300))
    if kind == "empty":
        return []
    return draw(st.lists(special_floats | scaled_floats, min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(st.lists(segments(), min_size=1, max_size=6))
def test_each_segment_matches_fsum_bit_for_bit(parts):
    assert summation._FSUM_MAX == 256
    assert_segments_match_fsum(parts)


@st.composite
def tight_segments(draw):
    """One segment whose sum sits where deciding it from its level and
    remainder sums is tight, at a scale 2^e: reaching 2^e from below, where
    the ulp halves, a few quarter-ulps either side; on or just off a midpoint
    between floats; exactly zero; one value; mixed signs; or with its top
    near 2^900 or 2^-900.  Cancelling pairs (x, -x), shuffled in, lengthen a
    segment and mix its signs without moving its sum."""
    kind = draw(st.sampled_from(["power", "midpoint", "zero", "one", "mixed", "far"]))
    e = draw(st.integers(-40, 40))
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    if kind == "one":
        return [math.ldexp(draw(unit), e)]
    if kind == "far":
        scale = math.ldexp(1.0, draw(st.sampled_from([-900, 900])) + draw(st.integers(-2, 2)))
        return [scale * x for x in draw(st.lists(unit, min_size=1, max_size=100))]
    tiny = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.ldexp(1.0, e - 110)
    if kind == "power":  # 2^(e-1) + ... + 2^(e-k) + 2^(e-k) = 2^e, then d quarter-ulps below it
        k, d = draw(st.integers(1, 60)), draw(st.integers(-3, 3))
        values = [math.ldexp(1.0, e - j) for j in range(1, k + 1)]
        values += [math.ldexp(1.0, e - k), -d * math.ldexp(1.0, e - 55), tiny]
    elif kind == "midpoint":  # a and the midpoint above it, half an ulp of a
        a = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), e)
        values = [a, math.ulp(a) / 2, tiny]
    elif kind == "mixed":
        values = draw(st.lists(scaled_floats, min_size=1, max_size=100))
    else:  # zero
        values = [math.ldexp(1.0, e), -math.ldexp(1.0, e)]
    pairs = draw(st.lists(st.builds(math.ldexp, unit, st.integers(e - 60, e + 2)), max_size=60))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return [sign * x for x in draw(st.permutations(values + pairs + [-x for x in pairs]))]


@settings(max_examples=100, deadline=None)
@given(st.lists(tight_segments(), min_size=2, max_size=5))
def test_segments_decided_at_once_match_fsum_bit_for_bit(parts):
    assert_segments_match_fsum(parts)


@pytest.mark.parametrize("e", [-900 + 60, -7, 0, 5, 900 - 60])
@pytest.mark.parametrize("quarters", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 55])
def test_a_sum_just_below_a_power_of_two_is_decided_by_the_gap_below(e, quarters, k):
    # 2^e less 1, 2 or 3 quarters of the gap below it, 2^(e-53), less
    # 2^(e-110).  At two quarters the float sum of level and remainders is
    # the midpoint, rounded to 2^e, while the sum rounds down: only a check
    # against the gap below 2^e, half the gap above, leaves it undecided
    parts = [math.ldexp(1.0, e - j) for j in range(1, k + 1)]
    parts += [math.ldexp(1.0, e - k), -quarters * math.ldexp(1.0, e - 55), -math.ldexp(1.0, e - 110)]
    assert_segments_match_fsum([parts, [1.0, 2.0], [-x for x in parts]])


@pytest.mark.parametrize("sizes", [[255, 256, 257], [1, 600, 2], [256] * 5])
def test_segments_around_fsum_max_are_split_at_once(monkeypatch, sizes):
    # segments of in-range values go through one _split call over the whole
    # array, each at its own sigma; a lone segment is exact_sum's
    rng = np.random.default_rng(sum(sizes))
    parts = [(rng.standard_normal(k) * np.exp2(rng.integers(-40, 40, k))).tolist() for k in sizes]
    calls, split = [], summation._split

    def split_spy(x, sigma, p, q, starts=None):
        calls.append((x.size, None if starts is None else starts.tolist()))
        return split(x, sigma, p, q, starts)

    monkeypatch.setattr(summation, "_split", split_spy)
    assert_segments_match_fsum(parts)
    assert calls == [(sum(sizes), [sum(sizes[:i]) for i in range(len(sizes))])]


def fsum_spy(monkeypatch):
    """Record the size of every array that _fsum sums whole."""
    sizes, fsum_whole = [], summation._fsum

    def spy(x):
        sizes.append(x.size)
        return fsum_whole(x)

    monkeypatch.setattr(summation, "_fsum", spy)
    return sizes


def test_a_tie_falls_back_for_its_segment_only(monkeypatch):
    # 1 + 2^-53 + 2^-106 lies just above a rounding midpoint, within the bound
    # of its remainder sum: that segment alone goes to math.fsum
    fallbacks = fsum_spy(monkeypatch)
    tie = [1.0, 2.0**-53, 2.0**-106]
    assert_segments_match_fsum([[0.5] * 300, tie, [3.0, -1.0, 0.25]])
    assert fallbacks == [3]
    assert summation.exact_sums(np.array(tie * 2), [3, 3]) == [1.0 + 2.0**-52] * 2


@pytest.mark.parametrize("scale", [2.0**-950, 2.0**-901, 2.0**901, 2.0**1000],
                         ids=["2^-950", "2^-901", "2^901", "2^1000"])
def test_a_top_out_of_range_sums_each_segment_on_its_own(monkeypatch, scale):
    # no segment is split with the others; exact_sum splits the 400 values of
    # the first, and the other two go to math.fsum, one for its top and one
    # for its size
    sigmas, fallbacks = level_spy(monkeypatch)
    rng = np.random.default_rng(9)
    parts = [rng.uniform(-1.0, 1.0, 400).tolist(), (rng.uniform(-1.0, 1.0, 300) * scale).tolist(),
             rng.uniform(-1.0, 1.0, 100).tolist()]
    assert_segments_match_fsum(parts)
    assert len(sigmas) == 1 and fallbacks == [300, 100]


@pytest.mark.parametrize("parts", [
    [[1.0, 2.0], [], [3.0]],
    [[0.0] * 300, [-0.0] * 5, [-0.0] * 400, [1.0, -1.0]],
    [[1.0] * 300, [math.inf, 1.0], [2.0] * 10],
    [[1.0, math.nan], [1.0] * 300],
    [[1.0] * 300, [math.inf, -math.inf], [math.nan]],
    [[1e308, 1e308, -1e308], [1.0]],
], ids=["empty", "zeros", "inf", "nan", "inf-inf", "overflow"])
def test_special_segments_follow_fsum(parts):
    assert_segments_match_fsum(parts)
