import itertools
import math
import os
import re
import signal
import tempfile
import threading
import tracemalloc
import warnings
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer import (
    BoxShape,
    ConstantPhi,
    ConvergenceError,
    CosinePhi,
    FreeEnergySample,
    INFINITE,
    LinearPhi,
    Scenario,
    coeffs_infinite,
    free_energy_value,
    grid_samples,
    log_z_infinite,
    log_z_macmahon,
    log_z_sliced,
    oracle_partition,
    series_free_energy,
)
from hexdimer.enumeration import config_count
from hexdimer import partition, specialfn
from hexdimer.cli import main
from hexdimer.partition import sliced_log_weight_exponents
from hexdimer.summation import exact_sum
from hexdimer.weights import PhiFunction, TabulatedPhi, phi_from_id

from _forks import assert_no_child_left, set_cpus
from _reference import reference_series_free_energy, same_bits, ulps_apart


def test_macmahon_small_boxes():
    assert abs(log_z_macmahon(BoxShape(1, 1, 1), 0.5) - math.log(1.5)) < 1e-15
    assert abs(log_z_macmahon(BoxShape(1, 1, 2), 0.5) - math.log(1.75)) < 1e-15


def test_macmahon_matches_enumeration():
    shape = BoxShape(3, 3, 3)
    assert abs(log_z_macmahon(shape, 0.7) - math.log(oracle_partition(shape, 0.7))) < 1e-10


def test_macmahon_symmetric_in_sides():
    vals = [log_z_macmahon(BoxShape(*perm), 0.6) for perm in itertools.permutations((2, 3, 4))]
    assert max(vals) - min(vals) < 1e-12 * max(map(abs, vals))


def test_macmahon_q_domain():
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            log_z_macmahon(BoxShape(2, 2, 2), bad)
    with pytest.raises(ValueError):
        log_z_macmahon(BoxShape(2, 2, INFINITE), 0.5)
    with pytest.raises(ValueError):
        log_z_infinite(BoxShape(2, 2, INFINITE), 1.0)  # infinitely many configurations


def test_macmahon_q1_is_log_of_exact_count():
    # the q -> 1 limit of each grouped factor is (t-1)/(t-2)
    for sides in itertools.product((1, 2, 5, 12), repeat=3):
        shape = BoxShape(*sides)
        exact = math.log(config_count(shape))
        assert abs(log_z_macmahon(shape, 1.0) - exact) <= 4e-16 * exact
    shape = BoxShape(3, 3, 3)
    assert abs(log_z_macmahon(shape, 1.0) - math.log(oracle_partition(shape, 1.0))) < 1e-12
    assert abs(log_z_macmahon(BoxShape(4, 4, 8), 1.0) - math.log(184225041)) < 1e-14


def reference_macmahon(m, n, k, q):
    """ln Z of the finite box from its grouped terms, the multiplicity of each
    t = i+j+l by convolving three rows of ones, summed with math.fsum."""
    mult = np.convolve(np.convolve(np.ones(m), np.ones(n)), np.ones(k))
    t = np.arange(3, m + n + k + 1, dtype=float)
    if q == 1.0:
        terms = np.log1p(1.0 / (t - 2.0))
    else:
        q_t2 = np.exp((t - 2.0) * math.log(q))
        terms = np.log1p(q_t2 * (1.0 - q) / (1.0 - q_t2))
    return fsum(mult * terms)


def reference_infinite(m, n, q):
    """ln Z at infinite height from its terms s = i+j-1, each multiplicity
    the minimum of s, m, n and m+n-s, summed with math.fsum."""
    s = np.arange(1, m + n, dtype=float)
    mult = np.minimum.reduce([s, np.full_like(s, m), np.full_like(s, n), m + n - s])
    return -fsum(mult * np.log1p(-np.exp(s * math.log(q))))


def test_uniform_products_match_their_fsum_expressions():
    # the grouped terms, formed as in log_z_macmahon and log_z_infinite and
    # summed with math.fsum: exact_sum must give the same bits
    rng = np.random.default_rng(14)
    for _ in range(300):
        m, n, k = (int(v) for v in rng.integers(1, 601, 3))
        for q in (1.0, float(rng.uniform(0.5, 1.0)), math.exp(-1.0 / int(rng.integers(2, 201)))):
            assert same_bits(log_z_macmahon(BoxShape(m, n, k), q), reference_macmahon(m, n, k, q))
            if q == 1.0:
                continue
            want = reference_infinite(m, n, q)
            assert same_bits(log_z_infinite(BoxShape(m, n, INFINITE), q), want)


def reference_free_energy(scenario, eps):
    """The free energy at mesh eps from reference_macmahon or
    reference_infinite, with the scenario's sign."""
    box, q = scenario.box(eps), math.exp(-eps)
    if box.is_finite:
        return -reference_macmahon(box.m, box.n, box.k, q) / box.volume
    return reference_infinite(box.m, box.n, q) / box.volume


def batch_spy(monkeypatch):
    """Record the boxes of every _uniform_log_z call."""
    batches, kernel = [], partition._uniform_log_z

    def spy(boxes, qs):
        batches.append([tuple(box) for box in np.asarray(boxes).tolist()])
        return kernel(boxes, qs)

    monkeypatch.setattr(partition, "_uniform_log_z", spy)
    return batches


BENCHMARK_UNIFORM = (Scenario("finite", 1.0, 1.0, 1.0), Scenario("finite", 3.0, 2.0, 1.0),
                     Scenario("infinite", 1.0, 1.0), Scenario("infinite", 2.0, 1.0))


@pytest.mark.parametrize("scenario", BENCHMARK_UNIFORM, ids=lambda s: f"{s.kind}-{s.a:g},{s.b:g}")
def test_uniform_grid_meshes_match_the_references(monkeypatch, scenario):
    # every mesh of a batched grid has the bits of its own reference, and the
    # batches hold up to _BATCH_TERMS terms, so meshes straddle their boundaries
    batches = batch_spy(monkeypatch)
    samples = grid_samples(scenario, 2, 200)
    assert [s.inv_eps for s in samples] == list(range(2, 201))
    assert len(batches) > 1 and sum(map(len, batches)) == 199
    terms = [sum(map(sum, batch)) for batch in batches]
    assert max(terms) <= partition._BATCH_TERMS
    # each batch but the last was closed by the first mesh of the next
    assert all(total + sum(batch[0]) > partition._BATCH_TERMS
               for total, batch in zip(terms, batches[1:]))
    for s in samples:
        assert same_bits(s.f, reference_free_energy(scenario, s.eps))
        assert same_bits(s.f, scenario.free_energy(s.eps))


def test_meshes_above_the_batch_constant_run_alone(monkeypatch):
    # (3, 2, 1) has 6t terms at 1/eps = t: with a constant of 64, the meshes
    # from t = 11 on are each a batch of their own
    monkeypatch.setattr(partition, "_BATCH_TERMS", 64)
    batches = batch_spy(monkeypatch)
    scenario = Scenario("finite", 3.0, 2.0, 1.0)
    samples = grid_samples(scenario, 2, 40)
    for s in samples:
        assert same_bits(s.f, reference_free_energy(scenario, s.eps))
    lone = [batch for batch in batches if sum(map(sum, batch)) > 64]
    assert [box for [box] in lone] == [(3 * t, 2 * t, t) for t in range(11, 41)]
    assert sum(map(len, batches)) == 39


def test_finite_meshes_at_q_one_beside_meshes_below_it(monkeypatch):
    # a = 2^-52 is 4 lattice steps at 1/eps = 2^54 +- 10; q = e^(-eps) rounds
    # to 1 from 2^54 - 1 on, and one batch holds both kinds of mesh
    side, lo = 2.0**-52, 2**54 - 10
    scenario = Scenario("finite", side, side, side)
    batches = batch_spy(monkeypatch)
    samples = grid_samples(scenario, lo, lo + 20)
    assert len(batches) == 1
    units = [math.exp(-s.eps) == 1.0 for s in samples]
    assert units == [False] * 9 + [True] * 12
    for s in samples:
        assert same_bits(s.f, reference_free_energy(scenario, s.eps))


def test_an_infinite_box_names_eps_where_q_rounds_to_one():
    # the same message one mesh at a time and on a grid, at its first such mesh
    side, lo = 2.0**-52, 2**54 - 10
    scenario = Scenario("infinite", side, side)
    message = (f"eps = {1.0 / (2**54 - 1)!r} is too small for the infinite-height box: "
               f"q = e^(-eps) rounds to 1 in floating point, so ln(1 - q) cannot be formed")
    with pytest.raises(ValueError) as one:
        scenario.free_energy(1.0 / (2**54 - 1))
    assert str(one.value) == message
    with pytest.raises(ValueError) as grid:
        grid_samples(scenario, lo, lo + 20)
    assert str(grid.value) == message
    assert grid_samples(scenario, lo, 2**54 - 2)[-1].f > 0


def test_a_batch_raises_its_first_bad_mesh_before_a_later_check(monkeypatch):
    # 1/eps = 3 is off the lattice (a/eps = 3001.5), and 1/eps = 2 is already
    # in the batch: its error, here a nan free energy, comes first
    scenario = Scenario("infinite", 1000.5, 1000.0)
    with pytest.raises(ValueError, match=re.escape("a/eps = 3001.5 is not an integer")):
        grid_samples(scenario, 2, 10)
    kernel = partition._uniform_log_z
    monkeypatch.setattr(partition, "_uniform_log_z", lambda boxes, qs: [
        math.nan if tuple(boxes[0]) == (2001, 2000) else f for f in kernel(boxes, qs)])
    with pytest.raises(ValueError, match="free energy must be finite"):
        grid_samples(scenario, 2, 10)


def test_a_grid_evaluates_its_first_bad_mesh_alone_by_free_energy(monkeypatch):
    # 1/eps = 2 runs in the batch; 1/eps = 3 (a/eps = 3001.5) is the first
    # bad mesh, and free_energy, called once there, words its error
    scenario = Scenario("infinite", 1000.5, 1000.0)
    calls, free_energy = [], Scenario.free_energy

    def spy(self, eps):
        calls.append(eps)
        return free_energy(self, eps)

    monkeypatch.setattr(Scenario, "free_energy", spy)
    with pytest.raises(ValueError) as bad:
        grid_samples(scenario, 2, 10)
    assert str(bad.value) == "a/eps = 3001.5 is not an integer within 1e-09"
    assert calls == [1.0 / 3]


PLANNED = (Scenario("finite", 1.0, 2.0, 3.0), Scenario("finite", 20.0, 10.0, 15.0),
           Scenario("infinite", 4.0, 1.0), Scenario("infinite", 1.0, 30.0))


@pytest.mark.parametrize("batch_terms", [partition._BATCH_TERMS, 64])
@pytest.mark.parametrize("scenario", PLANNED, ids=lambda s: f"{s.kind}-{s.a:g},{s.b:g},{s.c:g}")
def test_the_planned_grid_is_free_energy_mesh_by_mesh(monkeypatch, scenario, batch_terms):
    # a grid is planned _BATCH_TERMS // 2 meshes at a time and cut into
    # batches of at most _BATCH_TERMS terms: with 64, a plan holds 32 meshes,
    # so both kinds of edge fall inside 2..200.  (20, 10, 15) has 45t terms,
    # above 2^13 from 1/eps = 183 on
    monkeypatch.setattr(partition, "_BATCH_TERMS", batch_terms)
    batches = batch_spy(monkeypatch)
    samples = grid_samples(scenario, 2, 200)
    assert len(batches) > 1 and sum(map(len, batches)) == 199
    # each mesh above the constant is a batch of its own
    above = [batch for batch in batches if sum(map(sum, batch)) > batch_terms]
    assert [box for [box] in above] == [box for batch in batches for box in batch
                                        if sum(box) > batch_terms]
    assert [s.inv_eps for s in samples] == list(range(2, 201))
    for s in samples:
        assert same_bits(s.f, scenario.free_energy(s.eps)), s.inv_eps


def test_a_batch_takes_meshes_up_to_exactly_the_batch_constant(monkeypatch):
    # (1, 1) has 2t terms at 1/eps = t: 4 + ... + 14 = 54 and 16 + 18 + 20 = 54
    monkeypatch.setattr(partition, "_BATCH_TERMS", 54)
    batches = batch_spy(monkeypatch)
    grid_samples(Scenario("infinite", 1.0, 1.0), 2, 12)
    assert [[m for m, _ in batch] for batch in batches] == [[2, 3, 4, 5, 6, 7], [8, 9, 10],
                                                            [11, 12]]


VERIFY_BOXES = tuple(itertools.product((1, 2, 3), repeat=3))


def test_batched_products_are_the_lone_products():
    # verify's 27 boxes at its three q, and cubes at q in [0.5, 0.95] beside
    # q = 1, alone and in one batch: each ln Z has the bits of one call
    rng = np.random.default_rng(34)
    cube_qs = [0.5, 0.95, 1.0, *rng.uniform(0.5, 0.95, 5).tolist()]
    finite = [*itertools.product(VERIFY_BOXES, (0.3, 0.5, 0.9)),
              *itertools.product([(8, 8, 8), (16, 16, 16), (24, 24, 24)], cube_qs)]
    for batch in (finite[:81], finite[81:], finite):
        boxes, qs = zip(*batch)
        for box, q, log_z in zip(boxes, qs, partition._uniform_log_z(boxes, qs)):
            assert same_bits(log_z, log_z_macmahon(BoxShape(*box), q)), (box, q)
            assert same_bits(log_z, reference_macmahon(*box, q)), (box, q)
    boxes, qs = zip(*itertools.product([(1, 1), (3, 2), (24, 8)], (0.3, 0.5, 0.9, 0.95)))
    for box, q, log_z in zip(boxes, qs, partition._uniform_log_z(boxes, qs)):
        assert same_bits(log_z, log_z_infinite(BoxShape(*box, INFINITE), q)), (box, q)
        assert same_bits(log_z, reference_infinite(*box, q)), (box, q)


@pytest.mark.parametrize("sides", [*itertools.product((1, 2), repeat=3), (1, 1, 600),
                                   (600, 1, 1), (1, 600, 1), (2, 1, 599), (1, 3, 1), (5, 1, 5)])
def test_macmahon_degenerate_boxes_match_convolution(sides):
    # sides of 1 and 2 put the monomials of the closed-form multiplicity at
    # coinciding or dropped exponents, which random sides seldom reach
    for q in (1.0, 0.5, 0.999, math.exp(-1.0 / 200)):
        assert same_bits(log_z_macmahon(BoxShape(*sides), q), reference_macmahon(*sides, q))


def test_infinite_height_values():
    assert abs(log_z_infinite(BoxShape(1, 1, INFINITE), 0.5) - math.log(2.0)) < 1e-15
    expected = -math.log(1 - 0.3) - math.log(1 - 0.09)
    assert abs(log_z_infinite(BoxShape(1, 2, INFINITE), 0.3) - expected) < 1e-15
    with pytest.raises(ValueError):
        log_z_infinite(BoxShape(2, 2, 3), 0.5)


def test_macmahon_converges_to_infinite_height():
    q = 0.5
    inf_val = log_z_infinite(BoxShape(2, 2, INFINITE), q)
    prev_gap = None
    for k in (5, 10, 20, 200):
        gap = abs(log_z_macmahon(BoxShape(2, 2, k), q) - inf_val)
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap
    assert prev_gap < 1e-12


def test_macmahon_monotone_in_k():
    q = 0.6
    vals = [log_z_macmahon(BoxShape(2, 3, k), q) for k in range(1, 12)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sliced_constant_phi_reduces_to_uniform():
    for (m, n) in ((2, 3), (4, 4)):
        eps = 0.25
        lhs = log_z_sliced(m, n, ConstantPhi(1.0), eps)
        rhs = log_z_infinite(BoxShape(m, n, INFINITE), math.exp(-eps))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_sliced_single_box():
    # m = n = 1: one factor with exponent eps*phi(b-a) = eps*phi(0)
    eps = 0.2
    phi = CosinePhi()
    expected = -math.log1p(-math.exp(-eps * float(phi(0.0))))
    assert abs(log_z_sliced(1, 1, phi, eps) - expected) < 1e-15


def test_sliced_bit_identical_to_naive_double_loop():
    m, n, eps = 20, 60, 1.0 / 20  # a=1, b=3 at 1/eps = 20
    phi = CosinePhi()
    fast = log_z_sliced(m, n, phi, eps)
    # naive: recompute each slice-weight sum from scratch per cell (same
    # left-to-right order), then identical ufuncs and summation
    d = n - m
    exponents = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            acc_minus = 0.0
            for kk in range(1, i + 1):
                acc_minus += float(phi((d - kk) * eps))
            acc_plus = 0.0
            for ll in range(1, j + 1):
                acc_plus += float(phi((d + ll) * eps))
            exponents[i, j] = eps * (float(phi(d * eps)) + (acc_minus + acc_plus))
    naive = -fsum(np.log1p(-np.exp(-exponents)).ravel())
    assert naive == fast


class CountingPhi(PhiFunction):
    """Delegates to a profile and counts the kernel's calls; check_positive is not counted."""

    def __init__(self, base):
        self.base = base
        self.id = base.id
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.base(t)

    def check_positive(self, lo, hi):
        return self.base.check_positive(lo, hi)


def reference_sliced_exponents(m, n, phi, eps):
    """The (n, m) exponents E_ij from scalar prefix-sum loops."""
    d = n - m
    c_minus, acc = [0.0] * n, 0.0
    for i in range(1, n):
        acc += float(phi((d - i) * eps))
        c_minus[i] = acc
    c_plus, acc = [0.0] * m, 0.0
    for j in range(1, m):
        acc += float(phi((d + j) * eps))
        c_plus[j] = acc
    return eps * (float(phi(d * eps)) + (np.asarray(c_minus)[:, None] + np.asarray(c_plus)[None, :]))


def reference_sliced_log_z(m, n, phi, eps):
    """ln Z from scalar prefix-sum loops and math.fsum."""
    return -fsum(np.log1p(-np.exp(-reference_sliced_exponents(m, n, phi, eps))).ravel())


def reference_sliced_f(a, b, phi, t):
    """Free energy at 1/eps = t from reference_sliced_log_z."""
    m, n = round(a * t), round(b * t)
    return reference_sliced_log_z(m, n, phi, 1.0 / t) / (m * n)


@pytest.mark.parametrize("profile, a, b", [
    pytest.param("cosine", 1.0, 3.0, id="cosine"),
    pytest.param("tabulated", 1.0, 3.0, id="tabulated"),
    pytest.param("linear:2,0.5", 2.0, 3.0, id="linear-2-3"),  # n != 3m
])
def test_sliced_grid_bit_identical_to_scalar_reference(profile, a, b):
    if profile == "tabulated":
        t = np.linspace(-a - 0.5, b + 0.5, 321)
        base = TabulatedPhi(t, 1.0 + 0.08 * np.cos(t + 1.0) - 0.05 * np.cos(2.0 * t + 2.0))
    else:
        base = phi_from_id(profile)
    phi = CountingPhi(base)
    samples = grid_samples(Scenario("sliced", a, b, phi=phi), 2, 200)
    assert phi.calls <= 3 * len(samples)  # a scalar prefix loop makes m + n - 1 per point
    by_t = {s.inv_eps: s.f for s in samples}
    for t in (2, 3, 17, 64, 200):
        assert by_t[t] == reference_sliced_f(a, b, base, t)


def mpmath_sliced_log_z(m, n, eps):
    """ln Z of the cosine m x n sliced box at the float mesh eps, in 30-digit
    mpmath: prefix sums of (2 + cos s)/3 over the slices, then
    -ln prod (1 - e^{-E_ij}), each e^{-E_ij} the product of its row's
    e^{-eps (eta + c_minus[i])} and its column's e^{-eps c_plus[j]}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        eps = mpmath.mpf(eps)
        values = [(2 + mpmath.cos((n - m + j) * eps)) / 3 for j in range(1 - n, m)]
        eta = values[n - 1]
        rows = [mpmath.exp(-(eta + c) * eps)
                for c in itertools.accumulate(reversed(values[:n - 1]), initial=0)]
        cols = [mpmath.exp(-c * eps) for c in itertools.accumulate(values[n:], initial=0)]
        return -mpmath.log(mpmath.fprod(1 - x * y for x in rows for y in cols))


@pytest.mark.parametrize("t", [8, 20, 50])
def test_sliced_log_z_matches_a_30_digit_product(t):
    # cosine (1, 3); measured relative gaps 6.8e-17, 7.6e-17 and 7.9e-17
    m, n, eps = t, 3 * t, 1.0 / t
    want = mpmath_sliced_log_z(m, n, eps)
    assert abs(log_z_sliced(m, n, CosinePhi(), eps) - want) <= 5e-16 * want


@st.composite
def sliced_bound_cases(draw):
    """A positive profile, box and mesh whose smallest exponent E_min lies on
    either side of 2^-30, in the normal range, or where e^{-E} is subnormal
    or 0 (E from 708 to 760).  Boxes include 1 x n and n x 1 rows of up to
    two extraction blocks."""
    kind = draw(st.sampled_from(["const", "linear", "cosine"]))
    shape = draw(st.sampled_from(["box", "row", "column"]))
    # a long row holds one extraction block of 2^15 values, or two
    side, long = st.integers(1, 300), st.integers(200, 2_000) | st.integers(32_769, 40_000)
    m, n = {"box": (draw(side), draw(side)), "row": (1, draw(long)),
            "column": (draw(long), 1)}[shape]
    e_min = draw(draw(st.sampled_from([
        st.floats(-13.0, math.log10(2.0**-30)).map(lambda x: 10.0**x),
        st.sampled_from([2.0**-30, math.nextafter(2.0**-30, 0.0), math.nextafter(2.0**-30, 1.0)]),
        st.floats(math.log10(2.0**-30), -6.0).map(lambda x: 10.0**x),
        st.floats(1e-3, 40.0),
        st.floats(600.0, 708.0),  # terms down to 2^-1022
        st.floats(708.0, 760.0),  # e^{-E} subnormal, then 0
    ])))
    if kind == "cosine":  # phi in [1/3, 1]: E_min lies in [eps/3, eps]
        return m, n, CosinePhi(), e_min
    eps = 10.0 ** draw(st.floats(-3.0, 0.0))
    scale = e_min / eps
    if kind == "const":
        return m, n, ConstantPhi(scale), eps
    # scale * (1 + r (t - t0) / span), t0 = (n-m) eps = b-a: positive on the
    # slices [(1-m) eps, (n-1) eps], which lie within span of t0
    r = draw(st.floats(-0.9, 0.9))
    t0, span = (n - m) * eps, max(m, n) * eps
    return m, n, LinearPhi(scale * (1.0 - r * t0 / span), scale * r / span), eps


@settings(max_examples=100, deadline=None)
@given(sliced_bound_cases())
def test_sliced_bound_keeps_sum_exact(case):
    m, n, phi, eps = case
    tops = []

    def exact_sum_spy(values, top=None):
        tops.append(top)
        return exact_sum(values, top)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "exact_sum", exact_sum_spy)
        log_z = log_z_sliced(m, n, phi, eps)
    exponents = reference_sliced_exponents(m, n, phi, eps)
    terms = np.log1p(-np.exp(-exponents))
    assert same_bits(log_z, 0.0 - fsum(terms.ravel()))
    [top] = tops
    assert (top is not None) == (exponents.min() > 2.0**-30)
    if top is not None and top >= 2.0**-900:  # the bound stands in for max|term|
        largest = float(np.abs(terms).max())
        assert largest <= top <= 4.0 * largest


def test_sliced_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        log_z_sliced(4, 4, LinearPhi(0.1, -1.0), 0.25)  # phi < 0 inside the domain


NONPOSITIVE = "non-positive weight exponent: phi must be strictly positive on [-a, b]"
# a = 1, b = 3 at 1/eps = 256: log_z_sliced(256, 768, phi, 1/256) evaluates phi
# on these slices, the n side below t = 2 (eta = phi(2)), the m side above it
SLICES = np.arange(-255, 768) / 256.0


class SpikedPhi(PhiFunction):
    """CosinePhi with its value replaced at the given slices."""

    id = "spiked"

    def __init__(self, spikes):
        self.spikes = spikes

    def __call__(self, t):
        values = np.array(CosinePhi()(t), dtype=float)
        for t0, v in self.spikes.items():
            values[t == t0] = v
        return values


def one_slice_table(value):
    """A spline through the slices, 1 everywhere but value at t = 1."""
    return TabulatedPhi(SLICES, np.where(SLICES == 1.0, value, 1.0))


@pytest.fixture
def exp_calls(monkeypatch):
    """The shapes of every np.exp call made while the test runs."""
    shapes, exp = [], np.exp

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    return shapes


@pytest.mark.parametrize("phi", [
    one_slice_table(-1000.0),  # <= 0 at one interior slice; the smallest E is not E[0, 0]
    SpikedPhi({1.0: math.nan}),
    SpikedPhi({2.0: math.nan}),  # eta
    SpikedPhi({1.0: math.inf, 2.5: -math.inf}),  # inf + -inf cells are nan, the rest -inf
    SpikedPhi({2.5: math.inf, 1.0: -math.inf}),
    SpikedPhi({1.0: math.inf, 0.5: -math.inf}),  # one prefix sum turns nan
    SpikedPhi({2.0: math.inf, 0.5: -math.inf}),
    LinearPhi(0.1, -1.0),
], ids=["table", "nan", "nan-eta", "inf-n", "inf-m", "inf-same-side", "inf-eta", "linear"])
def test_sliced_positivity_is_decided_before_the_matrix(phi, exp_calls):
    # the 768 x 256 matrix takes 1.5 MiB; the prefix sums take 8 KiB
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            with pytest.raises(ValueError, match=f"^{re.escape(NONPOSITIVE)}$"):
                log_z_sliced(256, 768, phi, 1.0 / 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exp_calls == []
    assert peak < 256 * 768 * 8 // 4


@pytest.mark.parametrize("phi", [one_slice_table(-0.5), SpikedPhi({2.5: math.inf})],
                         ids=["table", "inf-m"])
def test_sliced_positivity_keeps_positive_exponents(phi):
    # one slice <= 0 or infinite, yet every E_ij > 0: accepted, with the
    # bits of the scalar reference
    assert same_bits(log_z_sliced(4, 12, phi, 0.25), reference_sliced_log_z(4, 12, phi, 0.25))


def test_sliced_rejects_weights_that_round_to_one():
    # every E is below 2^-54, so e^{-E} rounds to 1 and ln(1 - e^{-E}) is -inf
    # in floating point, though Z is finite; a subnormal phi is not needed
    with pytest.raises(ValueError, match="rounds to 1"):
        log_z_sliced(4, 12, ConstantPhi(1e-320), 0.25)
    with pytest.raises(ValueError, match="rounds to 1"):
        log_z_sliced(4, 12, ConstantPhi(1e-17), 0.25)


def test_sliced_all_zero_sum_is_positive_zero():
    # e^{-E} underflows to 0 in every cell: ln Z = +0.0, not -0.0
    for m, n in ((4, 12), (12, 4), (3, 3)):
        assert same_bits(log_z_sliced(m, n, ConstantPhi(1e300), 0.25), 0.0)


def test_sliced_cell_limit_is_checked_before_phi():
    phi = CountingPhi(CosinePhi())
    limit = f"1e+06 x 1e+06 = 1e+12 cells, above the limit of {partition.MAX_SLICED_CELLS} cells"
    with pytest.raises(ValueError, match=re.escape(limit)):
        log_z_sliced(10**6, 10**6, phi, 1e-6)
    assert phi.calls == 0


def test_sliced_grid_cell_limit_is_checked_before_the_first_mesh():
    # b = 3e9 at 1/eps = 10 is 3e11 cells; its first mesh alone would be 1.2e10
    phi = CountingPhi(CosinePhi())
    with pytest.raises(ValueError, match=re.escape("10 x 3e+10 = 3e+11 cells")):
        grid_samples(Scenario("sliced", 1.0, 3e9, phi=phi), 2, 10)
    assert phi.calls == 0


PRODUCT_LIMIT = f"above the limit of {partition.MAX_PRODUCT_TERMS} terms"


def test_product_term_limit_is_checked_before_any_array(monkeypatch, capsys):
    # a side of 1e10 steps would ask for about 80 GB per array: any array the
    # formulas form is an error here, so a missed check cannot allocate
    def refuse(*args, **kwargs):
        raise AssertionError("an array was formed before the term limit was checked")

    monkeypatch.setattr(partition.np, "bincount", refuse)
    monkeypatch.setattr(partition.np, "arange", refuse)
    side = 10**10
    # :g cannot format an int beyond the float range; the message gives a bound
    for steps, count in ((side, "1e+10"), (10**400, "over 1.798e+308")):
        with pytest.raises(ValueError, match=re.escape(f"{count} terms, {PRODUCT_LIMIT}")):
            log_z_macmahon(BoxShape(steps, 1, 1), 0.5)
        with pytest.raises(ValueError, match=re.escape(f"{count} terms, {PRODUCT_LIMIT}")):
            log_z_infinite(BoxShape(steps, 1, INFINITE), 0.5)
    for k in ("1", "inf"):
        code = main(["partition", "--M", str(side), "--N", "1", "--K", k, "--q", "0.5"])
        err = capsys.readouterr().err
        assert code == 1 and f"1e+10 terms, {PRODUCT_LIMIT}" in err


def test_uniform_grid_term_limit_is_checked_before_the_first_mesh(monkeypatch):
    # a = 1e5 at 1/eps = 200 is 2e7 terms; its first mesh, 1/eps = 2, only 2e5
    meshes = []
    monkeypatch.setattr(Scenario, "free_energy", lambda self, eps: meshes.append(eps))
    for scenario in (Scenario("finite", 1e5, 1.0, 1.0), Scenario("infinite", 1e5, 1.0)):
        with pytest.raises(ValueError, match=re.escape(f"2e+07 terms, {PRODUCT_LIMIT}")):
            grid_samples(scenario, 2, 200)
    assert meshes == []


def test_a_one_process_grid_holds_no_per_mesh_list_before_its_first_mesh():
    # 10^6 meshes would take 8 MB as one NaN slot each; mesh 1 fails at once
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("a/eps = 1e-09 rounds to 0 lattice steps")):
            grid_samples(Scenario("infinite", 1e-9, 1e-9), 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


BEYOND_FLOAT = 10**400
OVER = "over 1.798e+308"


@pytest.mark.parametrize("call,message", [
    (lambda: Scenario("finite", BEYOND_FLOAT, 1.0, 1.0),
     f"side a must be finite and positive, got {OVER}"),
    (lambda: coeffs_infinite(BEYOND_FLOAT, 1.0), f"side a must be finite and positive, got {OVER}"),
    (lambda: log_z_sliced(BEYOND_FLOAT, 1, CosinePhi(), 0.5),
     f"the sliced box is {OVER} x 1 = {OVER} cells"),
    (lambda: grid_samples(Scenario("infinite", 1.0, 1.0), 2, BEYOND_FLOAT),
     f"inv_eps_max = {OVER} is beyond the float range"),
], ids=["scenario-side", "coeffs-side", "sliced-cells", "grid-inv-eps-max"])
def test_an_int_beyond_the_float_range_is_named_not_an_overflow(call, message):
    # float() of such an int overflows: each check names it as a bound instead
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_sliced_rejects_bad_sides_and_mesh():
    for m, n, eps in ((0, 4, 0.25), (4, 0, 0.25), (4, 4, 0.0), (4, 4, -0.25),
                      (4, 4, math.nan), (4, 4, math.inf)):
        with pytest.raises(ValueError, match="need m, n >= 1 and eps > 0"):
            log_z_sliced(m, n, ConstantPhi(1.0), eps)


def test_free_energy_sample_rejects_inconsistent_mesh_and_nonfinite_f():
    for inv_eps, eps in ((2, 0.3), (0, 1.0), (4, 0.25 * (1 + 1e-8))):
        with pytest.raises(ValueError, match="inconsistent sample"):
            FreeEnergySample(inv_eps, eps, 1.0)
    # a nan eps, a float t and a bool t are each named, as BoxShape names a bad side
    for inv_eps, eps, shown in ((4, math.nan, "eps=nan, inv_eps=4"),
                                (2.5, 0.4, "eps=0.4, inv_eps=2.5"),
                                (True, 1.0, "eps=1.0, inv_eps=True")):
        with pytest.raises(ValueError, match=re.escape(f"inconsistent sample: {shown}")):
            FreeEnergySample(inv_eps, eps, 1.0)
    for f in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="free energy must be finite"):
            FreeEnergySample(4, 0.25, f)
    assert FreeEnergySample(4, 0.25 * (1 + 1e-10), 1.0).inv_eps == 4


def test_sliced_rejects_range_outside_table():
    # a = 1, b = 3 at 1/eps = 8 evaluates phi on [-7/8, 23/8]; the table covers [0, 1]
    t = np.linspace(0.0, 1.0, 11)
    phi = TabulatedPhi(t, np.ones_like(t))
    with pytest.raises(ValueError, match="tabulated range"):
        log_z_sliced(8, 24, phi, 1.0 / 8)
    assert log_z_sliced(1, 1, phi, 1.0 / 8) > 0  # the single slice t = 0 is covered


def test_sliced_exponent_matrix_shape():
    e = sliced_log_weight_exponents(3, 5, ConstantPhi(2.0), 0.5)
    assert e.shape == (5, 3)
    assert abs(e[0, 0] - 0.5 * 2.0) < 1e-15


def test_free_energy_unit_box_value():
    f = Scenario("finite", 1.0, 1.0, 1.0).free_energy(1.0)
    assert abs(f - (-math.log(1 + math.exp(-1.0)) / 6.0)) < 1e-15


def test_free_energy_sign_conventions():
    # finite boxes are negative, infinite-height (and sliced) positive
    assert free_energy_value(BoxShape(10, 10, 10), math.exp(-0.1)) < 0
    assert free_energy_value(BoxShape(10, 10, INFINITE), math.exp(-0.1)) > 0
    assert Scenario("sliced", 1.0, 1.0, phi=ConstantPhi(1.0)).free_energy(0.1) > 0
    assert Scenario("finite", 1.0, 1.0, 1.0).convention == "f = -ln(Z)/V"
    for kind, phi in (("infinite", None), ("sliced", ConstantPhi(1.0))):
        assert Scenario(kind, 1.0, 1.0, phi=phi).convention == "f = +ln(Z)/V"


def test_dual_evaluators_finite():
    for (a, b, c) in ((1.0, 1.0, 1.0), (3.0, 2.0, 1.0)):
        scenario = Scenario("finite", a, b, c)
        for t in (10, 50):
            exact = free_energy_value(scenario.box(1.0 / t), math.exp(-1.0 / t))
            series = series_free_energy(scenario, 1.0 / t)
            assert abs(exact - series) < 1e-12


def test_dual_evaluators_infinite():
    for (a, b) in ((1.0, 1.0), (2.0, 1.0)):
        scenario = Scenario("infinite", a, b)
        exact = free_energy_value(scenario.box(0.1), math.exp(-0.1))
        series = series_free_energy(scenario, 0.1)
        assert abs(exact - series) < 1e-12


def test_series_follows_shape():
    # the height c picks the three-factor finite series or the two-factor one
    tall = series_free_energy(Scenario("finite", 1.0, 1.0, 40.0), 0.1)
    infinite = series_free_energy(Scenario("infinite", 1.0, 1.0), 0.1)
    assert tall < 0 < infinite


def test_series_rejects_sliced_and_off_lattice_meshes():
    with pytest.raises(ValueError, match="not sliced"):
        series_free_energy(Scenario("sliced", 1.0, 3.0, phi=ConstantPhi(1.0)), 0.25)
    with pytest.raises(ValueError, match="a/eps"):
        series_free_energy(Scenario("infinite", 1.5, 1.0), 1.0)
    with pytest.raises(ValueError, match="mesh eps must be positive"):
        series_free_energy(Scenario("infinite", 1.0, 1.0), 0.0)


def test_series_partial_sums_monotone(monkeypatch):
    # every term is positive, so looser tolerances give smaller magnitudes
    scenario = Scenario("infinite", 1.0, 1.0)
    tight = series_free_energy(scenario, 0.1)
    monkeypatch.setattr(partition, "_SERIES_TERM_TOL", 1e-6)
    loose = series_free_energy(scenario, 0.1)
    assert 0 < loose <= tight


def test_series_cap_raises(monkeypatch):
    monkeypatch.setattr(partition, "_SERIES_N_MAX", 10)
    with pytest.raises(ConvergenceError) as err:
        series_free_energy(Scenario("finite", 1.0, 1.0, 1.0), 0.01)
    assert err.value.partial is not None


# the numpy chunks may move the series by a few ulp from the term-by-term loop
SERIES_ULPS = 4
SERIES_BOXES = (Scenario("finite", 1.0, 1.0, 1.0), Scenario("finite", 3.0, 2.0, 1.0),
                Scenario("finite", 1.0, 1.0, 40.0), Scenario("finite", 0.5, 2.0, 3.0),
                Scenario("infinite", 1.0, 1.0), Scenario("infinite", 2.0, 1.0))


@pytest.mark.parametrize("scenario", SERIES_BOXES, ids=lambda s: f"{s.kind}-{s.a}-{s.b}-{s.c}")
def test_series_within_ulps_of_term_by_term_reference(scenario):
    # 1/eps = 1000 puts n = 1 on chi's Taylor switch; 2000 and 5000 go below it
    for t in (2, 4, 10, 50, 100, 200, 1000, 2000, 5000):
        want = reference_series_free_energy(scenario, 1.0 / t)
        assert ulps_apart(series_free_energy(scenario, 1.0 / t), want) <= SERIES_ULPS, t


# verify's 8 dual-evaluator series, recorded from the term-by-term loop; on
# the recording host the chunked series gives each of them bit for bit
VERIFY_SERIES = {
    (Scenario("finite", 1.0, 1.0, 1.0), 10): "-0x1.120383466d476p-4",
    (Scenario("finite", 1.0, 1.0, 1.0), 50): "-0x1.13c73b5fe703bp-4",
    (Scenario("finite", 3.0, 2.0, 1.0), 10): "-0x1.037d664a3819cp-5",
    (Scenario("finite", 3.0, 2.0, 1.0), 50): "-0x1.0492f9b161754p-5",
    (Scenario("infinite", 1.0, 1.0), 10): "0x1.202ee45ed29ebp-1",
    (Scenario("infinite", 1.0, 1.0), 50): "0x1.21989a6d1f3fap-1",
    (Scenario("infinite", 2.0, 1.0), 10): "0x1.72db2648d347ep-2",
    (Scenario("infinite", 2.0, 1.0), 50): "0x1.745bc852513c8p-2",
}


def test_verify_series_pins():
    for (scenario, t), pin in VERIFY_SERIES.items():
        got = series_free_energy(scenario, 1.0 / t)
        assert ulps_apart(got, float.fromhex(pin)) <= SERIES_ULPS, (scenario, t)


def first_n_below_tolerance(eps: float) -> int:
    n = 1
    while not specialfn.chi(n * eps) / (2.0 * n * n) < partition._SERIES_TERM_TOL:
        n += 1
    return n


def test_series_chunks_sum_through_the_first_n_below_the_tolerance(monkeypatch):
    # The terms are summed once, exactly, so the chunk size leaves the bits
    # alone.  The stop term is below an ulp of the sum, so the terms are
    # counted: the stop falls at a chunk's end, at the next one's start, or
    # inside one.
    scenario, eps = Scenario("finite", 3.0, 2.0, 1.0), 0.1
    want = series_free_energy(scenario, eps)
    last = first_n_below_tolerance(eps)
    counts = []

    def exact_sum_spy(values, top=None):
        counts.append(np.size(values))
        return exact_sum(values, top)

    monkeypatch.setattr(partition, "exact_sum", exact_sum_spy)
    for chunk in (1, 7, last - 1, last, last + 1, 4096):
        monkeypatch.setattr(partition, "_SERIES_CHUNK", chunk)
        assert same_bits(series_free_energy(scenario, eps), want), chunk
        assert counts.pop() == last, chunk


@pytest.mark.parametrize("chunk", [3, 4096])
def test_series_cap_sums_exactly_the_cap(monkeypatch, chunk):
    monkeypatch.setattr(partition, "_SERIES_N_MAX", 10)
    monkeypatch.setattr(partition, "_SERIES_CHUNK", chunk)
    sizes = []

    def chi_spy(z):
        sizes.append(z.size)
        return specialfn.chi(z)

    monkeypatch.setattr(partition, "chi", chi_spy)
    scenario, eps = Scenario("finite", 1.0, 1.0, 1.0), 0.01
    with pytest.raises(ConvergenceError) as err:
        series_free_energy(scenario, eps)
    with pytest.raises(ConvergenceError) as ref:
        reference_series_free_energy(scenario, eps)
    assert sum(sizes) == 10 and max(sizes) <= 10
    assert ulps_apart(err.value.partial, ref.value.partial) <= SERIES_ULPS
    # the stop quantity of term 10, the last one summed
    assert same_bits(err.value.achieved, specialfn.chi(10 * eps) / (2.0 * 10 * 10))


def test_free_energy_scaled_sliced_sample():
    f = Scenario("sliced", 1.0, 3.0, phi=ConstantPhi(1.0)).free_energy(0.25)
    assert f == log_z_sliced(4, 12, ConstantPhi(1.0), 0.25) / 48


def test_grid_samples_shape():
    scenario = Scenario("infinite", 2.0, 1.0)
    samples = grid_samples(scenario, 2, 12)
    assert [s.inv_eps for s in samples] == list(range(2, 13))
    assert all(s.eps == 1.0 / s.inv_eps and s.f == scenario.free_energy(s.eps) for s in samples)
    for lo, hi in ((12, 2), (0, 5)):
        with pytest.raises(ValueError):
            grid_samples(scenario, lo, hi)


class RaisingPhi(CosinePhi):
    """Cosine until armed; then it raises exc in the forked children
    (in_child) or in the process that made it (not in_child)."""

    def __init__(self, exc, in_child):
        self.exc, self.in_child, self.owner, self.armed = exc, in_child, os.getpid(), False

    def __call__(self, t):
        if self.armed and (os.getpid() != self.owner) == self.in_child:
            raise self.exc
        return super().__call__(t)


# (1, 3) over 1/eps = 2..200 is 8.06 M cells, three times _SPLIT_WORK: two processes
SPLIT_GRID = (2, 200)


def split_scenario(phi):
    return Scenario("sliced", 1.0, 3.0, phi=phi)


def test_split_grid_is_the_one_process_grid_bit_for_bit(monkeypatch, forks):
    scenario = split_scenario(CosinePhi())
    set_cpus(monkeypatch, 2)
    split = grid_samples(scenario, *SPLIT_GRID)
    assert len(forks) == 1
    assert_no_child_left()
    set_cpus(monkeypatch, 1)
    one = grid_samples(scenario, *SPLIT_GRID)
    assert len(forks) == 1
    assert [(s.inv_eps, s.eps.hex(), s.f.hex()) for s in split] == \
        [(s.inv_eps, s.eps.hex(), s.f.hex()) for s in one]


def test_the_cap_bounds_the_processes_and_a_three_way_split_keeps_the_bits(monkeypatch, forks):
    # 8.06 M cells make three whole _SPLIT_WORKs; with the finest mesh's
    # 120,000 cells fitting into the cap only twice, two processes run
    scenario = split_scenario(CosinePhi())
    set_cpus(monkeypatch, 1)
    one = grid_samples(scenario, *SPLIT_GRID)
    set_cpus(monkeypatch, 16)
    assert grid_samples(scenario, *SPLIT_GRID) == one
    assert len(forks) == 2
    assert_no_child_left()
    monkeypatch.setattr(partition, "MAX_SLICED_CELLS", 3 * 120_000 - 1)
    assert grid_samples(scenario, *SPLIT_GRID) == one
    assert len(forks) == 3
    assert_no_child_left()


def test_grid_processes_and_queue_order_come_from_the_lattice_sides(monkeypatch):
    set_cpus(monkeypatch, 16)
    # terms 2000 t, 40.2 M in all (19 _SPLIT_WORKs); 400,000 at t = 200 fit
    # into MAX_PRODUCT_TERMS ten times
    assert partition._grid_processes(Scenario("infinite", 1000.0, 1000.0), range(2, 201)) == 10
    # cells 3 t^2 of (1, 3), 8.06 M in all: three processes
    scenario = split_scenario(CosinePhi())
    assert partition._grid_processes(scenario, range(2, 201)) == 3
    # off the lattice at 1/eps = 3: left to the one-process loop
    assert partition._grid_processes(Scenario("infinite", 1000.5, 1000.0), range(2, 201)) == 1
    set_cpus(monkeypatch, 2)
    assert partition._grid_processes(scenario, range(2, 201)) == 2
    # the whole grid goes into the queue before the fork, largest mesh first,
    # after a NaN slot per mesh, with the file's offset at the first mesh number
    seeks, queued, real_lseek, real_fork = [], [], os.lseek, os.fork

    def lseek(fd, pos, how):
        seeks.append(fd)
        return real_lseek(fd, pos, how)

    def fork():
        data = os.pread(seeks[-1], 2 * 199 * 8, 0)
        queued.append((np.frombuffer(data[:199 * 8]).tolist(),
                       np.frombuffer(data[199 * 8:], dtype=np.int64).tolist(),
                       real_lseek(seeks[-1], 0, os.SEEK_CUR)))
        return real_fork()

    monkeypatch.setattr(os, "lseek", lseek)
    monkeypatch.setattr(os, "fork", fork)
    grid_samples(scenario, *SPLIT_GRID)
    slots, meshes, offset = queued[0]
    assert all(math.isnan(f) for f in slots) and len(slots) == 199
    assert meshes == list(range(200, 1, -1)) and offset == 199 * 8


def test_the_plan_holds_no_per_mesh_list(monkeypatch):
    # 2^21 - 1 meshes of (1, 1): the finest, 2^22 - 2 terms, fits the cap, and
    # a work figure kept per mesh would take about 80 MB
    set_cpus(monkeypatch, 16)
    tracemalloc.start()
    try:
        assert partition._grid_processes(Scenario("infinite", 1.0, 1.0), range(1, 2**21)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("cpus, children", [(1, 0), (2, 1), (3, 2), (16, 2)])
def test_the_grid_and_the_coefficients_beside_it_keep_the_bits(monkeypatch, forks, cpus,
                                                                 children):
    scenario = split_scenario(CosinePhi())
    set_cpus(monkeypatch, 1)
    one = [(s.inv_eps, s.eps.hex(), s.f.hex()) for s in grid_samples(scenario, *SPLIT_GRID)]
    alone = [f.hex() for f in scenario.coefficients()]
    set_cpus(monkeypatch, cpus)
    beside = []

    def coefficients():
        beside.append(len(forks))  # every child has been forked by now
        beside.append(scenario.coefficients())

    split = grid_samples(scenario, *SPLIT_GRID, beside=coefficients)
    assert beside[0] == len(forks) == children
    assert [f.hex() for f in beside[1]] == alone
    assert [(s.inv_eps, s.eps.hex(), s.f.hex()) for s in split] == one
    assert_no_child_left()


def test_an_error_beside_the_grid_kills_and_reaps_every_child(monkeypatch, forks):
    set_cpus(monkeypatch, 3)

    def fail():
        raise ValueError("beside the grid")

    with pytest.raises(ValueError, match="beside the grid"):
        grid_samples(split_scenario(CosinePhi()), *SPLIT_GRID, beside=fail)
    assert len(forks) == 2
    assert_no_child_left()


class Hung(BaseException):
    """Raised by the alarm that ends a test that would otherwise hang."""


@pytest.mark.parametrize("children_die", [False, True])
def test_a_long_grid_over_three_processes_neither_blocks_nor_hangs(monkeypatch, forks,
                                                                   children_die):
    # 699 cheap meshes pulled by three processes on at most two cores: every
    # uniform grid of (1, 1) with _SPLIT_WORK = 1024 splits three ways on three
    # CPUs.  Every process logs each mesh it takes into one pipe, so a mesh
    # number read twice from the shared queue shows
    scenario, grid = Scenario("infinite", 1.0, 1.0), (2, 700)
    set_cpus(monkeypatch, 1)
    one = grid_samples(scenario, *grid)
    monkeypatch.setattr(partition, "_SPLIT_WORK", 1024)
    set_cpus(monkeypatch, 3)
    owner, real_value = os.getpid(), partition.free_energy_value
    log, log_end = os.pipe()

    def value(shape, q):
        os.write(log_end, np.float64(q).tobytes())
        if children_die and os.getpid() != owner:
            raise RuntimeError("a child's mesh")
        return real_value(shape, q)

    monkeypatch.setattr(partition, "free_energy_value", value)

    def hung(signum, frame):
        raise Hung()

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        assert grid_samples(scenario, *grid) == one
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(log_end)
        with os.fdopen(log, "rb") as taken:
            qs = np.frombuffer(taken.read()).tolist()
    assert len(forks) == 2
    assert_no_child_left()
    if not children_die:
        assert sorted(qs) == sorted(math.exp(-1.0 / t) for t in range(2, 701))


def test_a_fork_warning_raised_as_an_error_loses_no_child(monkeypatch, forks):
    # Python 3.12+ warns in the parent after forking with threads alive
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          f"may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    scenario = split_scenario(CosinePhi())
    set_cpus(monkeypatch, 1)
    one = grid_samples(scenario, *SPLIT_GRID)
    set_cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_samples(scenario, *SPLIT_GRID) == one
    assert len(forks) == 1
    assert_no_child_left()


def test_a_failing_mesh_raises_the_one_process_error_under_the_split(monkeypatch, forks):
    # e^(-E) first rounds to 1 at 1/eps = 67; the split's own share fails at 200
    scenario = split_scenario(phi_from_id("const:3e-15"))
    set_cpus(monkeypatch, 1)
    grid_samples(scenario, 2, 66)
    with pytest.raises(ValueError) as one:
        grid_samples(scenario, *SPLIT_GRID)
    assert "at eps = 0.014925373134328358:" in str(one.value)
    set_cpus(monkeypatch, 2)
    with pytest.raises(ValueError) as split:
        grid_samples(scenario, *SPLIT_GRID)
    assert len(forks) == 1 and str(split.value) == str(one.value)
    assert_no_child_left()


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("cpus", [1, 2], ids=["one process", "split"])
@pytest.mark.parametrize("kind", ["sliced", "uniform"])
def test_a_kernel_value_that_is_not_finite_stops_the_grid(monkeypatch, forks, kind, cpus, bad):
    # the kernel returns inf or nan at 1/eps = 30, here or in a forked child;
    # the grid raises FreeEnergySample's error rather than return the sample
    monkeypatch.setattr(partition, "_SPLIT_WORK", 1024)
    set_cpus(monkeypatch, cpus)
    if kind == "sliced":
        scenario, grid = Scenario("sliced", 1.0, 1.0, phi=ConstantPhi(1.0)), (2, 40)
        sliced = partition.log_z_sliced
        monkeypatch.setattr(partition, "log_z_sliced", lambda m, n, phi, eps:
                            bad if m == 30 else sliced(m, n, phi, eps))
    else:
        scenario, grid = Scenario("infinite", 1.0, 1.0), (2, 700)
        uniform = partition._uniform_log_z
        monkeypatch.setattr(partition, "_uniform_log_z", lambda boxes, qs: [
            bad if box[0] == 30 else f for box, f in zip(boxes, uniform(boxes, qs))])
    assert partition._grid_processes(scenario, range(grid[0], grid[1] + 1)) == cpus
    with pytest.raises(ValueError, match="free energy must be finite"):
        grid_samples(scenario, *grid)
    assert len(forks) == cpus - 1
    assert_no_child_left()


def test_a_failing_child_leaves_the_grid_to_this_process(monkeypatch, forks):
    phi = RaisingPhi(RuntimeError("a child's mesh"), in_child=True)
    scenario = split_scenario(phi)
    phi.armed = True
    set_cpus(monkeypatch, 2)
    samples = grid_samples(scenario, *SPLIT_GRID)
    assert len(forks) == 1
    assert_no_child_left()
    set_cpus(monkeypatch, 1)
    assert samples == grid_samples(split_scenario(CosinePhi()), *SPLIT_GRID)


def test_a_failed_fork_leaves_the_grid_to_this_process(monkeypatch, forks):
    def refuse(*args):
        raise BlockingIOError("refused")

    scenario = split_scenario(CosinePhi())
    set_cpus(monkeypatch, 1)
    one = grid_samples(scenario, *SPLIT_GRID)
    set_cpus(monkeypatch, 2)
    with monkeypatch.context() as patch:
        patch.setattr(tempfile, "TemporaryFile", refuse)  # no writable temporary directory
        assert grid_samples(scenario, *SPLIT_GRID) == one
    assert forks == []
    monkeypatch.setattr(os, "fork", refuse)
    assert grid_samples(scenario, *SPLIT_GRID) == one


def test_a_caller_that_ignores_sigchld_keeps_the_split(monkeypatch, forks):
    # its children are reaped for it, and os.waitpid then fails with ECHILD
    scenario = split_scenario(CosinePhi())
    set_cpus(monkeypatch, 1)
    one = [(s.inv_eps, s.f.hex()) for s in grid_samples(scenario, *SPLIT_GRID)]
    set_cpus(monkeypatch, 2)
    owner, here, real_log_z = os.getpid(), [], partition.log_z_sliced

    def log_z(*args):
        if os.getpid() == owner:
            here.append(args)
        return real_log_z(*args)

    monkeypatch.setattr(partition, "log_z_sliced", log_z)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        split = [(s.inv_eps, s.f.hex()) for s in grid_samples(scenario, *SPLIT_GRID)]
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert split == one
    assert len(forks) == 1 and len(here) < 199
    assert_no_child_left()


def test_an_interrupt_kills_and_reaps_every_child(monkeypatch, forks):
    phi = RaisingPhi(KeyboardInterrupt(), in_child=False)
    scenario = split_scenario(phi)
    phi.armed = True
    set_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        grid_samples(scenario, *SPLIT_GRID)
    assert len(forks) == 1
    assert_no_child_left()


def test_small_grids_and_a_second_thread_do_not_fork(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    # the benchmark's uniform grids: the largest is 120,594 terms in all
    for scenario in (Scenario("finite", 1.0, 1.0, 1.0), Scenario("finite", 3.0, 2.0, 1.0),
                     Scenario("infinite", 1.0, 1.0), Scenario("infinite", 2.0, 1.0)):
        grid_samples(scenario, 2, 200)
    grid_samples(split_scenario(CosinePhi()), 2, 100)  # 1.02 M cells
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        grid_samples(split_scenario(CosinePhi()), *SPLIT_GRID)
    finally:
        release.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert forks == []


@pytest.mark.parametrize("kind,a,b,c,phi,match", [
    ("bogus", 1.0, 1.0, INFINITE, None, "unknown scenario"),
    ("infinite", math.inf, 1.0, INFINITE, None, "side a"),
    ("infinite", 1.0, -1.0, INFINITE, None, "side b"),
    ("finite", 1.0, 1.0, INFINITE, None, "side c"),
    ("finite", 1.0, 1.0, math.nan, None, "side c"),
    ("infinite", 1.0, 1.0, 2.0, None, "infinite height"),
    ("sliced", 1.0, 1.0, 2.0, CosinePhi(), "infinite height"),
    ("sliced", 1.0, 3.0, INFINITE, None, "needs a phi"),
    ("infinite", 1.0, 1.0, INFINITE, CosinePhi(), "takes no phi"),
    ("finite", 1.0, 1.0, 1.0, CosinePhi(), "takes no phi"),
    ("infinite", 1e200, 1e200, INFINITE, None, "ab = inf"),
    ("sliced", 1e200, 1e200, INFINITE, CosinePhi(), "ab = inf"),
    ("finite", 1e200, 1e200, 1.0, None, r"ab\+bc\+ca = inf"),
    ("finite", 1e154, 1e154, 1.0, None, r"24\(ab\+bc\+ca\), which overflows"),
])
def test_scenario_validation(kind, a, b, c, phi, match):
    with pytest.raises(ValueError, match=match):
        Scenario(kind, a, b, c, phi)


def test_scenario_box_rejects_an_infinite_side_over_eps():
    scenario = Scenario("infinite", 1e307, 1.0)
    with pytest.raises(ValueError, match="a/eps = inf"):
        scenario.box(0.01)
    assert scenario.box(1.0) == BoxShape(int(1e307), 1, INFINITE)


def test_scenario_checks_phi_on_the_box():
    with pytest.raises(ValueError, match="strictly positive"):
        Scenario("sliced", 1.0, 3.0, phi=LinearPhi(1.0, -0.5))  # phi(3) < 0
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="tabulated range"):
        Scenario("sliced", 1.0, 3.0, phi=TabulatedPhi(t, np.ones_like(t)))


def test_scenario_coefficients_dispatch():
    from hexdimer import coeffs_finite, coeffs_infinite, coeffs_sliced

    assert Scenario("finite", 3.0, 2.0, 1.0).coefficients() == coeffs_finite(3.0, 2.0, 1.0)
    assert Scenario("infinite", 2.0, 1.0).coefficients() == coeffs_infinite(2.0, 1.0)
    phi = ConstantPhi(1.0)
    assert Scenario("sliced", 1.0, 1.0, phi=phi).coefficients() == coeffs_sliced(1.0, 1.0, phi)


def test_macmahon_gap_bounded_by_qk():
    # convergence to the infinite-height value is geometric in k
    q = 0.5
    inf_val = log_z_infinite(BoxShape(2, 2, INFINITE), q)
    gap5 = abs(log_z_macmahon(BoxShape(2, 2, 5), q) - inf_val)
    gap10 = abs(log_z_macmahon(BoxShape(2, 2, 10), q) - inf_val)
    assert gap10 <= 5.0 * gap5 * q**5
