"""Exact log-partition functions and free energies for all three scenarios.

Sign conventions (fixed by fitting exact data; see README):
  finite box:      f = -ln Z / V,  V = 2(mn + nk + mk)
  infinite height: f = +ln Z / V,  V = m n
  sliced weights:  f = +ln Z / V,  V = m n
The log_z_* functions themselves always return ln Z > 0.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import signal
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import (ExpansionCoefficients, _require_sides, coeffs_finite, coeffs_infinite,
                          coeffs_sliced)
from .errors import ConvergenceError, _shown
from .shapes import INFINITE, BoxShape, _is_positive_int
from .specialfn import chi
from .summation import exact_sum, exact_sums
from .weights import PhiFunction


# stopping rule for the resummed free-energy series
_SERIES_TERM_TOL = 1e-16
_SERIES_N_MAX = 10**7
_SERIES_CHUNK = 4096  # terms formed per numpy pass
# how far a/eps, b/eps and c/eps may sit from an integer
_LATTICE_TOL = 1e-9
# log_z_sliced hands exact_sum a bound on its terms when E_min lies above this
_BOUND_E_MIN = math.ldexp(1.0, -30)
# most cells m*n of one sliced ln Z: its exponent matrix then takes 256 MiB
MAX_SLICED_CELLS = 2**25
# most terms m+n+k (m+n at infinite height) of one uniform product formula.
# A call holds at most four arrays of m+n+k+1 slots at once (three float64,
# one int64), so it peaks near 4 * 8 B * 2^22 = 128 MiB
MAX_PRODUCT_TERMS = 2**22
# most terms m+n+k (m+n at infinite height) of the uniform meshes a grid
# evaluates in one batch; a mesh with more runs alone.  On a 2-core EPYC VM
# the four uniform grids of the benchmark's fit, (1,1,1), (3,2,1), (1,1) and
# (2,1) over 1/eps = 2..200, took 4.95-5.17 ms in all with 2^13 (medians of
# 30, three rounds), against 6.2-6.4 ms with 2^12, 4.8-6.7 ms with 2^14 and
# 6.5-7.1 ms with 2^15; one mesh at a time they took 11.0 ms
_BATCH_TERMS = 2**13
# a grid runs in one process per whole _SPLIT_WORK of its work (see
# _grid_processes).  On a 2-core Xeon VM a 2-way split of cosine (1, 3) tied
# with one process at 1.02 M cells (18.3 ms, medians of 15) and won at 2.22 M
# (31.4 ms against 37.9)
_SPLIT_WORK = 2**21
# a value slot or a mesh number in the queue file of a split grid: a float64 or
# an int64 in this machine's byte order
_SLOT_BYTES = 8


@dataclass(frozen=True)
class FreeEnergySample:
    """One exact free-energy value on the integer 1/eps grid."""

    inv_eps: int
    eps: float
    f: float

    def __post_init__(self):
        # not "> 1e-9": a nan eps fails every comparison
        if not (_is_positive_int(self.inv_eps) and abs(self.eps * self.inv_eps - 1.0) <= 1e-9):
            raise ValueError(f"inconsistent sample: eps={self.eps!r}, inv_eps={self.inv_eps!r}")
        if not math.isfinite(self.f):
            raise ValueError("free energy must be finite")


def _check_product_terms(terms: float) -> None:
    """Reject a uniform product formula of more than MAX_PRODUCT_TERMS terms
    before anything is allocated."""
    if terms > MAX_PRODUCT_TERMS:
        raise ValueError(f"the product formula has {_shown(terms, '.4g')} terms, above the limit "
                         f"of {MAX_PRODUCT_TERMS} terms")


# the numerator prod_s (1-x^s) of r sides, 3 for the finite box and 2 at
# infinite height: its 2^r monomials, each the sum of the sides in one column
# here, and their signs, as the float weights np.bincount takes
_SUBSETS = {r: np.array(list(itertools.product((0, 1), repeat=r))).T for r in (2, 3)}
_SIGNS = {r: np.where(subsets.sum(axis=0) % 2, -1.0, 1.0) for r, subsets in _SUBSETS.items()}


def _uniform_log_z(boxes, qs) -> list[float]:
    """ln Z of each box at its q by its product formula, all boxes in one set
    of numpy passes.  boxes holds integer rows (an array or tuples): finite
    boxes (m, n, k) with 0 < q <= 1, or boxes (m, n) of infinite height with
    0 < q < 1, each at its q in qs.  ln q is taken with math.log, where
    numpy's log may move an ulp, and rest = 1 - q, so q = 1 is ln q = rest = 0.

    The boxes are laid end to end, each in sum(sides) + 1 slots.  Slot i of
    a box holds the multiplicity of its grouped factor, the coefficient of
    x^i in prod_s (1-x^s)/(1-x) over its r sides: the 2^r signed monomials
    of the numerator prod_s (1-x^s), of degree sum(sides), counted by
    np.bincount, then r running sums in int64.  These are small integers (at
    most mn for the finite box, min(m, n) at infinite height).  Before the
    last running sum, each box's entries sum to the polynomial's value at
    x = 1, which keeps a factor 1-x^s and so is 0: one cumsum over every box
    starts afresh at each box, and the last r slots of each box are 0.

    Slot i has power p = i+1 and x = q^p = exp(p ln q).  The finite box
    groups its factors by t = p+2 = i+j+l, 1 <= i, j, l <= m, n, k; each
    grouped factor (1-q^(t-1))/(1-q^(t-2)) is the single log1p of a positive
    quantity, x (1-q)/(1-x), stable at both x -> 0 and x -> 1.  At q = 1 it
    is its limit (t-1)/(t-2), the log1p of 1/p, so ln Z is the log of the
    configuration count.  At infinite height, ln Z = -sum_{i,j} ln(1 -
    q^(i+j-1)) = -sum mult log1p(-x), s = p = i+j-1.  Every pass but the sum
    is elementwise, and exact_sums sums each box's terms mult * log1p(.)
    exactly, so a box's ln Z has the same bits alone or beside others.  A
    lone box's ln q and 1 - q broadcast over its slots; many spread theirs.
    """
    boxes, qs = np.asarray(boxes), np.asarray(qs)
    log_q, rest = np.array([math.log(q) for q in qs.tolist()]), 1.0 - qs
    count, r = boxes.shape
    monomials = boxes @ _SUBSETS[r]
    sizes = monomials[:, -1] + 1  # the last monomial has degree sum(sides)
    ends = np.add.accumulate(sizes)
    starts, slots = ends - sizes, int(ends[-1])
    monomials += starts[:, None]
    mult = np.bincount(monomials.ravel(), np.tile(_SIGNS[r], count), slots).astype(np.int64)
    for _ in range(r):
        np.add.accumulate(mult, out=mult)
    powers = np.arange(1.0, slots + 1.0)
    if count > 1:
        powers -= np.repeat(starts, sizes)
    units = rest == 0.0
    if units.all():
        terms = 1.0 / powers
    else:
        if count > 1:
            log_q, rest = np.repeat(log_q, sizes), np.repeat(rest, sizes)
        terms = powers * log_q
        np.exp(terms, out=terms)
        if r == 2:
            np.negative(terms, out=terms)
        else:
            den = 1.0 - terms
            terms *= rest
            if units.any():  # beside q < 1, x (1-q)/(1-x) is 0/0 at q = 1: take 1/p there
                units = np.repeat(units, sizes)
                np.divide(terms, den, out=terms, where=~units)
                np.divide(1.0, powers, out=terms, where=units)
            else:
                terms /= den
    np.log1p(terms, out=terms)
    terms *= mult
    sums = exact_sums(terms, sizes)
    return sums if r == 3 else [-total for total in sums]


def log_z_macmahon(shape: BoxShape, q: float) -> float:
    """ln Z for the finite box via the triple product formula, q in (0, 1]:
    _uniform_log_z of the one box at q, so the cost is O(m+n+k) instead of
    O(mnk) and the value has the bits of the box in any batch.  A box with
    m+n+k above MAX_PRODUCT_TERMS is rejected before any array exists.
    """
    if not shape.is_finite:
        raise ValueError("log_z_macmahon requires finite k; use log_z_infinite")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1]; got {q}")
    _check_product_terms(shape.m + shape.n + shape.k)
    return _uniform_log_z([(shape.m, shape.n, shape.k)], [q])[0]


def log_z_infinite(shape: BoxShape, q: float) -> float:
    """ln Z for the infinite-height box, -sum_{i,j} ln(1 - q^{i+j-1}): the
    one-box case of _uniform_log_z, with its bits in any batch.  A box with
    m+n above MAX_PRODUCT_TERMS is rejected before any array exists."""
    if shape.is_finite:
        raise ValueError("log_z_infinite requires k = inf")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must be in (0, 1) for the infinite-height box; got {q}")
    _check_product_terms(shape.m + shape.n)
    return _uniform_log_z([(shape.m, shape.n)], [q])[0]


def _sliced_prefix_sums(m: int, n: int, phi: PhiFunction, eps: float):
    """Slice weight eta = phi(b-a) and the prefix sums c_minus (n side) and
    c_plus (m side) of phi, from one vectorised phi call over every slice
    t = (n-m+j)*eps, j = 1-n..m-1.  np.cumsum accumulates left to right in
    plain floats, so an index-by-index recomputation (the naive oracle)
    reproduces every entry bit for bit."""
    d = n - m
    values = np.asarray(phi((d + np.arange(1 - n, m)) * eps), dtype=float)
    c_minus = np.zeros(n)
    np.cumsum(values[:n - 1][::-1], out=c_minus[1:])
    c_plus = np.zeros(m)
    np.cumsum(values[n:], out=c_plus[1:])
    return values[n - 1], c_minus, c_plus


def _negated_exponents(eta: float, c_minus: np.ndarray, c_plus: np.ndarray,
                       eps: float) -> np.ndarray:
    """-E as an (n, m) matrix: each c_minus[i] repeated along row i, plus
    c_plus along every row (fl(c_minus[i] + c_plus[j]): addition commutes, so
    these are the bits of the outer sum), then + eta, then * -eps, which
    rounds to exactly -fl(s * eps)."""
    terms = np.repeat(c_minus, c_plus.size).reshape(c_minus.size, c_plus.size)
    terms += c_plus
    terms += eta
    terms *= -eps
    return terms


def sliced_log_weight_exponents(m: int, n: int, phi: PhiFunction, eps: float) -> np.ndarray:
    """Exponent matrix E with Z = prod 1/(1 - e^{-E_ij}).

    E_ij = eps * (phi(b-a) + sum_{k=1..i} phi(b-a-k*eps) + sum_{l=1..j} phi(b-a+l*eps)),
    i over the n side, j over the m side; the slice sums are cached prefix sums.
    This is the exact negation of the -E that log_z_sliced forms from the same
    prefix sums, so an index-by-index recomputation (the naive oracle)
    reproduces every entry bit for bit.
    """
    terms = _negated_exponents(*_sliced_prefix_sums(m, n, phi, eps), eps)
    np.negative(terms, out=terms)
    return terms


def _check_sliced_cells(m: float, n: float) -> None:
    """Reject a sliced box of more than MAX_SLICED_CELLS cells m*n before
    anything is allocated."""
    if m * n > MAX_SLICED_CELLS:
        raise ValueError(f"the sliced box is {_shown(m, 'g')} x {_shown(n, 'g')} = "
                         f"{_shown(m * n, '.4g')} cells, above the limit of "
                         f"{MAX_SLICED_CELLS} cells")


def log_z_sliced(m: int, n: int, phi: PhiFunction, eps: float) -> float:
    """ln Z for the infinite-height box with slice weights q_t = e^{-eps phi(t eps)}.

    A box of more than MAX_SLICED_CELLS cells m*n is rejected before phi is
    called.  phi is evaluated on the slices [(1-m) eps, (n-1) eps]; a
    tabulated profile must cover them.  Every E_ij must be positive:
    fl(fl(fl(c_minus[i] + c_plus[j]) + eta) * eps) is monotone in both prefix
    sums, so the smallest E_ij is the one formed from their minima; min
    carries a nan through, and an inf against a -inf gives -inf or nan there.
    That one cell decides the check, before the (n, m) matrix exists.
    -E is formed directly and turned into the terms ln(1 - e^{-E_ij}) in
    place, which are summed exactly (exact_sum equals math.fsum bit for bit).
    The largest |term| is the one at E_min, so when E_min > 2^-30, where
    e^{-E} is well clear of 1, top = 2 * -ln(1 - e^{-E_min}) bounds every
    |term| and exact_sum takes its splitting constant from top instead of
    measuring max|term|; the factor 2 covers ulp-level differences between
    math's and numpy's exp and log1p.  At or below 2^-30 exact_sum measures
    max|term| once; a top below 2^-900 sends the whole array to math.fsum,
    as a measured max would.
    When e^{-E_ij} rounds to 1 in floating point (E_ij below about 1e-16),
    ln(1 - e^{-E_ij}) cannot be formed and ValueError is raised; Z itself is
    finite for every E_ij > 0.
    """
    if m < 1 or n < 1 or not 0.0 < eps < math.inf:
        raise ValueError("need m, n >= 1 and eps > 0, finite")
    _check_sliced_cells(m, n)
    phi.check_range((1 - m) * eps, (n - 1) * eps)
    eta, c_minus, c_plus = _sliced_prefix_sums(m, n, phi, eps)
    e_min = (c_minus.min() + c_plus.min() + eta) * eps
    if not e_min > 0.0:
        raise ValueError("non-positive weight exponent: phi must be strictly positive on [-a, b]")
    terms = _negated_exponents(eta, c_minus, c_plus, eps)
    np.exp(terms, out=terms)
    np.negative(terms, out=terms)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf is reported below
        np.log1p(terms, out=terms)
    top = None
    if e_min > _BOUND_E_MIN:
        top = 2.0 * -math.log1p(-math.exp(-e_min))
    total = exact_sum(terms, top)
    if total == -math.inf:
        raise ValueError(f"eps * phi is too small for {phi.id} at eps = {eps}: e^(-E) rounds "
                         f"to 1 in floating point, so ln(1 - e^(-E)) cannot be formed")
    return 0.0 - total  # not -total: an all-zero sum gives 0, not -0


# the signs free_energy_value applies; Scenario.convention names its own
CONVENTION_FINITE = "f = -ln(Z)/V"
CONVENTION_POSITIVE = "f = +ln(Z)/V"


def free_energy_value(shape: BoxShape, q: float) -> float:
    """Free energy per site from the exact product formulas (uniform weight)."""
    if shape.is_finite:
        return -log_z_macmahon(shape, q) / shape.volume
    return log_z_infinite(shape, q) / shape.volume


def series_free_energy(scenario: Scenario, eps: float) -> float:
    """Resummed series sum_n chi(n eps) H_n / n^3 with the scenario prefactor.

    H_n has three exponential factors for the finite box, two for the
    infinite-height box; the sliced box has no such series.  The terms are
    formed with numpy, _SERIES_CHUNK consecutive n per pass, kept, and summed
    once with exact_sum, so the chunking leaves the value alone.  The terms
    stop at the first n whose remaining tail bound chi(n eps) * max(H) *
    sum_{m>n} m^-3 <= chi(n eps)/(2 n^2) is below _SERIES_TERM_TOL, that
    term included; once _SERIES_N_MAX terms are formed without it (no chunk
    runs past that cap), ConvergenceError carries their exact sum.  There
    the terms take 80 MB and their concatenation as much again, 160 MB in
    all, against 128 MiB (134 MB) for a MAX_PRODUCT_TERMS product formula.
    numpy's exp and expm1 may differ from the C library's by an ulp, so the
    value lies within 4 ulp of a term-by-term loop over math.exp and
    math.expm1.
    """
    if scenario.kind == "sliced":
        raise ValueError("the series free energy covers the finite and infinite boxes, not sliced")
    scenario.box(eps)  # rejects eps <= 0 and off-lattice meshes, as the exact route does
    a, b, c = scenario.a, scenario.b, scenario.c
    finite = scenario.kind == "finite"
    if finite:
        prefactor = -1.0 / (2.0 * (a * b + b * c + a * c))
    else:
        prefactor = 1.0 / (a * b)

    parts = []
    for start in range(1, _SERIES_N_MAX + 1, _SERIES_CHUNK):
        n = np.arange(start, min(start + _SERIES_CHUNK, _SERIES_N_MAX + 1), dtype=float)
        chi_n = chi(n * eps)
        h = (-np.expm1(-n * a)) * (-np.expm1(-n * b))
        if finite:
            h *= -np.expm1(-n * c)
        terms = chi_n * h / (n * n * n)  # n * n is exact, so n * n * n rounds n^3 once
        tail = chi_n / (2.0 * n * n)
        done = tail < _SERIES_TERM_TOL
        if done.any():
            parts.append(terms[:int(done.argmax()) + 1])
            return prefactor * exact_sum(np.concatenate(parts))
        parts.append(terms)
    raise ConvergenceError(f"series free energy did not converge within {_SERIES_N_MAX} terms",
                           partial=prefactor * exact_sum(np.concatenate(parts)),
                           achieved=float(tail[-1]))


SCENARIO_KINDS = ("finite", "infinite", "sliced")


@dataclass(frozen=True)
class Scenario:
    """One of the three boxes, in scaled sides: the finite hexagon (a, b, c),
    the infinite-height box (a, b), or the infinite-height box with slice
    weights q_t = e^{-eps phi(t eps)}.

    Construction validates the combination once; every consumer (sampling,
    coefficients, the sign convention) then reads it from here.
    """

    kind: str
    a: float
    b: float
    c: float = INFINITE
    phi: PhiFunction | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {self.kind!r}; expected one of "
                             f"{', '.join(SCENARIO_KINDS)}")
        if self.kind == "finite":
            _require_sides(self.a, self.b, self.c)
        else:
            _require_sides(self.a, self.b)
            if self.c != INFINITE:
                raise ValueError(f"the {self.kind} scenario has infinite height; got c = {self.c}")
        if self.kind == "sliced":
            if self.phi is None:
                raise ValueError("the sliced scenario needs a phi function")
            self.phi.check_positive(-self.a, self.b)
        elif self.phi is not None:
            raise ValueError(f"the {self.kind} scenario takes no phi function")

    @property
    def convention(self) -> str:
        return CONVENTION_FINITE if self.kind == "finite" else CONVENTION_POSITIVE

    def box(self, eps: float) -> BoxShape:
        """The lattice box at mesh eps: a/eps, b/eps and, for the finite box,
        c/eps must be positive integers within _LATTICE_TOL."""
        if not eps > 0:
            raise ValueError("mesh eps must be positive")
        lattice = []
        for name, x in (("a", self.a), ("b", self.b), ("c", self.c)):
            if x == INFINITE:
                lattice.append(INFINITE)
                continue
            ratio = x / eps
            if not math.isfinite(ratio):
                raise ValueError(f"{name}/eps = {ratio}: the side is too large for mesh {eps}")
            steps = round(ratio)
            if abs(ratio - steps) > _LATTICE_TOL:
                raise ValueError(f"{name}/eps = {ratio} is not an integer within {_LATTICE_TOL}")
            if steps == 0:
                raise ValueError(f"{name}/eps = {ratio} rounds to 0 lattice steps; "
                                 f"the side must span at least one")
            lattice.append(steps)
        return BoxShape(*lattice)

    def free_energy(self, eps: float) -> float:
        """Exact free energy per site at mesh eps (see box).  Where q = e^(-eps)
        rounds to 1, the infinite-height product has the factor 1/(1 - q), so
        eps is named."""
        box = self.box(eps)
        if self.kind == "sliced":
            return log_z_sliced(box.m, box.n, self.phi, eps) / (box.m * box.n)
        q = math.exp(-eps)
        if q == 1.0 and not box.is_finite:
            raise ValueError(f"eps = {eps} is too small for the infinite-height box: "
                             f"q = e^(-eps) rounds to 1 in floating point, so ln(1 - q) "
                             f"cannot be formed")
        return free_energy_value(box, q)

    def _free_energies(self, meshes):
        """free_energy(1/t) for each t of the iterable meshes, in order, as a
        generator.

        Sliced meshes run one at a time.  Uniform meshes are planned with
        numpy, _BATCH_TERMS // 2 of them at a time, the most one batch can
        hold: eps = 1/t, each side's ratio side/eps, its lattice steps
        np.rint(ratio) (half to even, as round), the checks of box,
        free_energy and _check_product_terms, and the term counts; q =
        e^(-eps) is taken per mesh with math, where numpy's exp may move an
        ulp.  The meshes before the first that fails a check are cut into
        batches of at most _BATCH_TERMS terms, or one mesh with more, and
        evaluated by _uniform_log_z.  Then the failed mesh is evaluated alone
        by free_energy, which raises its error, so the first bad mesh's error
        comes out in grid order, worded as one mesh at a time words it."""
        if self.kind == "sliced":
            for t in meshes:
                yield self.free_energy(1.0 / t)
            return
        finite = self.kind == "finite"
        sides = np.array([self.a, self.b, self.c] if finite else [self.a, self.b])[:, None]
        meshes = iter(meshes)
        while chunk := list(itertools.islice(meshes, _BATCH_TERMS // 2)):
            eps = 1.0 / np.array(chunk, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):  # inf/nan ratios fail below
                ratio = sides / eps
                steps = np.rint(ratio)
                on_lattice = (np.abs(ratio - steps) <= _LATTICE_TOL) & (steps != 0)
            terms = steps.sum(axis=0)
            qs = np.array([math.exp(-e) for e in eps.tolist()])
            ok = on_lattice.all(axis=0) & (terms <= MAX_PRODUCT_TERMS)
            if not finite:
                ok &= qs < 1.0
            count = len(chunk) if ok.all() else int(ok.argmin())
            boxes = steps[:, :count].T.astype(np.int64)
            m, n = boxes[:, 0], boxes[:, 1]
            volumes = 2 * (m * n + n * boxes[:, 2] + m * boxes[:, 2]) if finite else m * n
            ends = np.cumsum(terms[:count])
            start = 0
            while start < count:
                top = ends[start - 1] + _BATCH_TERMS if start else _BATCH_TERMS
                end = max(int(np.searchsorted(ends, top, "right")), start + 1)
                log_z = np.array(_uniform_log_z(boxes[start:end], qs[start:end]))
                if finite:  # f = -ln Z / V
                    np.negative(log_z, out=log_z)
                yield from (log_z / volumes[start:end]).tolist()
                start = end
            if count < len(chunk):  # the first bad mesh, evaluated alone, raises its error
                self.free_energy(1.0 / chunk[count])
                raise AssertionError(f"1/eps = {chunk[count]} failed the grid's checks alone")

    def coefficients(self) -> ExpansionCoefficients:
        """Closed-form f0..f3."""
        if self.kind == "finite":
            return coeffs_finite(self.a, self.b, self.c)
        if self.kind == "infinite":
            return coeffs_infinite(self.a, self.b)
        return coeffs_sliced(self.a, self.b, self.phi)


def _grid_processes(scenario: Scenario, grid: range) -> int:
    """How many processes evaluate grid: this one and P-1 forked children.

    A mesh's work is what its cap bounds: cells (a/eps)(b/eps) of a sliced
    box, terms (a+b+c)/eps ((a+b)/eps at infinite height) of a uniform one.
    The finest mesh is checked against its cap first, so a grid beyond it
    fails before any mesh runs.  With the grid's work a*b*sum(t^2) or
    (a+b+c)*sum(t), in closed form, P = min(CPUs, work // _SPLIT_WORK,
    cap // finest mesh's work): the meshes that run at once hold no more
    than one call at the cap.  P = 1 without os.fork or os.sched_getaffinity,
    with another Python thread alive (a fork copies no other thread), or
    with either of the first two meshes off the lattice, so the loop in one
    process raises the error at its first bad mesh."""
    a, b, c, lo, hi = scenario.a, scenario.b, scenario.c, grid[0], grid[-1]
    eps = 1.0 / hi
    if scenario.kind == "sliced":
        _check_sliced_cells(a / eps, b / eps)
        cap, finest = MAX_SLICED_CELLS, (a / eps) * (b / eps)
        work = a * b * ((hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6)
    else:
        sides = a + b + (c if scenario.kind == "finite" else 0.0)
        _check_product_terms(sides / eps)
        cap, finest, work = MAX_PRODUCT_TERMS, sides / eps, sides * ((lo + hi) * len(grid) // 2)
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    try:
        for t in grid[:2]:
            scenario.box(1.0 / t)
    except ValueError:
        return 1
    return max(1, int(min(len(os.sched_getaffinity(0)), work // _SPLIT_WORK, cap // finest)))


def _pull(scenario: Scenario, grid: range, fd: int) -> None:
    """Take the next mesh number t from the queue file fd until it ends, and
    write scenario.free_energy(1/t) as float64 bytes into t's slot."""
    while record := os.read(fd, _SLOT_BYTES):
        t = int.from_bytes(record, sys.byteorder, signed=True)
        os.pwrite(fd, np.float64(scenario.free_energy(1.0 / t)).tobytes(),
                  (t - grid[0]) * _SLOT_BYTES)


def _pulled_free_energies(scenario: Scenario, grid: range, processes: int,
                          beside) -> list[float]:
    """scenario.free_energy at the meshes 1/t of grid, in grid order, as
    processes pull them from one queue; NaN where a mesh was not evaluated.

    The queue is a temporary file: a float64 slot per mesh, NaN at first,
    then the mesh numbers, largest first.  Once it is flushed, processes - 1
    children are forked (none if the file cannot be made, fewer if a fork
    fails), this process calls beside, if given, and every process runs
    _pull on the shared descriptor, whose offset read(2) moves under a lock:
    no two processes read the same number.  A child ends in os._exit,
    whatever happens: it never returns into the caller and never flushes
    stdio.  This process stops pulling on an exception in its own mesh,
    reaps each child and reads the slots back.  An exception from beside, or
    any other BaseException, propagates after every child still running is
    killed with SIGKILL and reaped.
    """
    n, parent, children, queue, fd = len(grid), os.getpid(), [], None, None
    try:
        with contextlib.suppress(OSError):
            queue = tempfile.TemporaryFile()
            queue.write(np.full(n, math.nan).tobytes()
                        + np.arange(grid[-1], grid[0] - 1, -1, dtype=np.int64).tobytes())
            queue.flush()  # from here on only the descriptor touches the file
            os.lseek(queue.fileno(), n * _SLOT_BYTES, os.SEEK_SET)
            fd = queue.fileno()
            for _ in range(processes - 1):
                try:
                    with warnings.catch_warnings():
                        # Python 3.12+ warns here, after the fork, with threads alive
                        # (numpy's BLAS pool); raised as an error, it would lose the pid
                        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                                DeprecationWarning)
                        pid = os.fork()
                    if pid == 0:
                        _pull(scenario, grid, fd)
                finally:
                    if os.getpid() != parent:  # the child, however it got here
                        os._exit(0)
                children.append(pid)
        if beside is not None:
            beside()
        if fd is None:
            return [math.nan] * n
        with contextlib.suppress(Exception):  # the caller evaluates this mesh and raises its error
            _pull(scenario, grid, fd)
        while children:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: it has exited
                os.waitpid(children[-1], 0)
            children.pop()
        return np.frombuffer(os.pread(fd, n * _SLOT_BYTES, 0)).tolist()
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if queue is not None:
            with contextlib.suppress(OSError):  # a flush that failed fails again
                queue.close()


def grid_samples(scenario: Scenario, inv_eps_min: int = 2, inv_eps_max: int = 200,
                 beside=None) -> list[FreeEnergySample]:
    """Exact free-energy samples over the integer grid 1/eps = min..max.

    The grid's plan (_grid_processes) checks its finest mesh against
    MAX_SLICED_CELLS or MAX_PRODUCT_TERMS before the first sample is
    computed.  In one process the meshes are evaluated as the samples are
    built, with no per-mesh list before: a sliced mesh one at a time, uniform
    meshes in batches of at most _BATCH_TERMS terms (Scenario._free_energies),
    each mesh's lattice check in grid order and each value the bits of its
    mesh alone.  A grid whose meshes' work sums to 2 * _SPLIT_WORK or more is
    split over forked processes on a machine with two or more CPUs.  They
    pull its meshes from one temporary file, one at a time, and write each
    value into it as the mesh finishes, the same bits as in one process (see
    _pulled_free_energies).  Any mesh they did not evaluate is evaluated here,
    in grid order, so a failing grid raises its first bad mesh's error.

    beside, if given, is called once with no arguments in this process
    before it evaluates its first mesh: under a split, once the children
    have started on the grid.  Its exception propagates, with every child
    killed and reaped."""
    if inv_eps_min < 1 or inv_eps_min >= inv_eps_max:
        raise ValueError("need 1 <= inv_eps_min < inv_eps_max")
    if inv_eps_max > sys.float_info.max:  # 1.0 / inv_eps_max would overflow
        raise ValueError(f"inv_eps_max = {_shown(inv_eps_max, '')} is beyond the float range")
    grid = range(inv_eps_min, inv_eps_max + 1)
    processes, values = _grid_processes(scenario, grid), itertools.repeat(math.nan)
    if processes > 1:
        values = _pulled_free_energies(scenario, grid, processes, beside)
    elif beside is not None:
        beside()
    # values is a list, or one NaN repeated, so both zips see the same values
    fresh = scenario._free_energies(t for t, f in zip(grid, values) if math.isnan(f))
    return [FreeEnergySample(inv_eps=t, eps=1.0 / t, f=next(fresh) if math.isnan(f) else f)
            for t, f in zip(grid, values)]
