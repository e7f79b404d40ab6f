import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hexdimer
from hexdimer import (
    BoxShape,
    INFINITE,
    build_embedding,
    kasteleyn_matrix,
    kasteleyn_partition,
    log_z_kasteleyn,
    log_z_macmahon,
    oracle_partition,
)
from hexdimer import EmbeddingError, kasteleyn
from hexdimer.kasteleyn import HORIZONTAL

from _reference import boxed_plane_partition_count, same_bits


def test_unit_hexagon_structure():
    emb = build_embedding(BoxShape(1, 1, 1))
    assert emb.white.shape == (3, 2)
    assert emb.black.shape == (3, 2)
    assert emb.edges.shape == (6, 3)


def test_vertex_counts():
    # 2(mn + nk + mk) vertices in total
    assert build_embedding(BoxShape(2, 1, 1)).size * 2 == 10
    assert build_embedding(BoxShape(2, 2, 2)).size * 2 == 24
    for shape in (BoxShape(3, 2, 1), BoxShape(1, 3, 2), BoxShape(3, 3, 3)):
        emb = build_embedding(shape)
        assert 2 * emb.size == shape.volume


def _dense(mat):
    """The band matrix as a dense array: entry (i, j) from ab[kl + ku + i - j, j]."""
    i, j = np.indices(mat.shape)
    d = mat.kl + mat.ku + i - j
    inside = (d >= mat.kl) & (d < len(mat.ab))
    return np.where(inside, mat.ab[d.clip(0, len(mat.ab) - 1), j], 0.0)


def _positions(emb):
    """The complex embedding of the module docstring, from the (u, v) arrays."""
    (wu, wv), (bu, bv) = emb.white.T, emb.black.T
    return ((-2 * wu - 2 * wv) + 1j * (2 * wu + wv),
            (-2 * bu - 2 * bv - 1) + 1j * (2 * bu + bv + 2))


def test_horizontal_edges_have_integer_aligned_endpoints():
    emb = build_embedding(BoxShape(2, 3, 2))
    white_pos, black_pos = _positions(emb)
    wi, bi, direction = emb.edges.T
    w, b = white_pos[wi], black_pos[bi]
    assert np.array_equal(w.imag == b.imag, direction == HORIZONTAL)
    # K carries q^(Re w + Im w) = q^-v on each horizontal edge, 1 on the others
    exponent = w.real + w.imag
    assert np.array_equal(exponent, -emb.white[wi, 1])
    q = 0.5
    entries = _dense(kasteleyn_matrix(emb, q))[wi, bi]
    assert np.array_equal(entries, np.where(direction == HORIZONTAL, q ** exponent, 1.0))


def test_matrix_entries():
    emb = build_embedding(BoxShape(1, 1, 1))
    mat = kasteleyn_matrix(emb, 0.5)
    assert mat.shape == (3, 3)
    dense = _dense(mat)
    assert np.all(dense >= 0.0)
    # the non-zeros are exactly the edges
    wi, bi, direction = emb.edges.T
    assert np.count_nonzero(dense) == len(emb.edges) and np.all(dense[wi, bi] > 0.0)
    # one horizontal edge at weight 1 (v = 0) and one at weight q^{-(-1)} = q
    horizontal = direction == HORIZONTAL
    assert sorted(dense[wi[horizontal], bi[horizontal]]) == [0.5, 1.0]


def _face_check_arguments(monkeypatch, shape):
    """The (shape, white_id, black_id, partners) that build_embedding hands to
    _check_faces for shape, after that check has passed on them."""
    seen = []
    check = kasteleyn._check_faces
    monkeypatch.setattr(kasteleyn, "_check_faces", lambda *args: seen.append(args) or check(*args))
    build_embedding(shape)
    monkeypatch.undo()
    return seen[0]


def test_a_broken_face_is_an_embedding_error_naming_it(monkeypatch):
    # the white U(1, 0)'s horizontal edge to D(0, 0) runs from (1, 0) to
    # (1, 1), on the hexagons around both; the first in (x, y) order is named
    shape = BoxShape(3, 2, 1)
    _, white_id, black_id, partners = _face_check_arguments(monkeypatch, shape)
    doctored = partners.copy()
    doctored[white_id[1 + shape.n + 1, 0 + shape.k + 1], HORIZONTAL] = -1
    with pytest.raises(EmbeddingError) as broken:
        kasteleyn._check_faces(shape, white_id, black_id, doctored)
    assert str(broken.value) == "face at lattice point (1, 0) is not a 6-cycle"


def test_an_extra_edge_fails_euler_count(monkeypatch):
    # a boundary white given one more black keeps every face closed but adds
    # an edge: V - E + F = 0, not 1
    shape = BoxShape(3, 2, 1)
    _, white_id, black_id, partners = _face_check_arguments(monkeypatch, shape)
    doctored = partners.copy()
    doctored[tuple(np.argwhere(partners < 0)[0])] = 0
    v_count = shape.volume
    faces = shape.m * shape.n + shape.n * shape.k + shape.m * shape.k - shape.m - shape.n - shape.k + 1
    with pytest.raises(EmbeddingError) as broken:
        kasteleyn._check_faces(shape, white_id, black_id, doctored)
    assert str(broken.value) == (f"Euler check failed: V={v_count}, E={v_count + faces}, "
                                 f"internal F={faces}")


def test_infinite_height_rejected():
    with pytest.raises(ValueError):
        build_embedding(BoxShape(2, 2, INFINITE))


def test_matchings_counted_at_q_one():
    for shape in (BoxShape(1, 1, 1), BoxShape(2, 2, 2), BoxShape(3, 2, 2)):
        count = kasteleyn_partition(shape, 1.0)
        assert abs(count - boxed_plane_partition_count(shape.m, shape.n, shape.k)) < 1e-6


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("m,n,k", [(m, n, k) for m in (1, 2, 3) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_matches_enumeration_oracle(m, n, k, q):
    shape = BoxShape(m, n, k)
    z_det = kasteleyn_partition(shape, q)
    z_ref = oracle_partition(shape, q)
    assert abs(z_det - z_ref) <= 1e-9 * z_ref


def test_q_outside_the_unit_interval_is_rejected():
    for q in (0.0, 1.5):
        with pytest.raises(ValueError, match=re.escape(f"q must be in (0, 1], got {q}")):
            log_z_kasteleyn(BoxShape(1, 1, 1), q)


def test_examples_from_oracle():
    assert abs(kasteleyn_partition(BoxShape(1, 1, 1), 0.5) - 1.5) < 1e-12
    assert abs(kasteleyn_partition(BoxShape(1, 1, 2), 0.5) - 1.75) < 1e-12
    assert abs(kasteleyn_partition(BoxShape(2, 2, 2), 1.0) - 20.0) < 1e-9


def test_log_form_consistent():
    shape = BoxShape(3, 2, 2)
    assert abs(math.exp(log_z_kasteleyn(shape, 0.4)) - oracle_partition(shape, 0.4)) < 1e-9


def test_dimension_guard(monkeypatch):
    # rejected from the side lengths, before any graph is built
    def no_build(shape):
        raise AssertionError("build_embedding called for an oversized box")

    monkeypatch.setattr(kasteleyn, "build_embedding", no_build)
    with pytest.raises(ValueError, match="exceeds"):
        log_z_kasteleyn(BoxShape(40, 40, 40), 0.9)


def test_dimension_guard_boundary():
    shape = BoxShape(25, 25, 25)  # N = 1875, admitted
    assert abs(log_z_kasteleyn(shape, 0.9) - log_z_macmahon(shape, 0.9)) <= 1e-9
    with pytest.raises(ValueError, match="2028"):
        log_z_kasteleyn(BoxShape(26, 26, 26), 0.9)


def reference_log_z_kasteleyn(shape, q):
    """ln Z from a band matrix filled entry by entry at (kl + ku + wi - bi, bi),
    each entry q^-v or 1 times its row scale e^(v ln(q) / 2), then factored
    by dgbtrf: the construction with no layout kept between q."""
    box = BoxShape(*sorted((shape.m, shape.n, shape.k)))
    emb = build_embedding(box)
    wi, bi, direction = emb.edges.T
    kl, ku = max(int(np.max(wi - bi)), 0), max(int(np.max(bi - wi)), 0)
    log_q = math.log(q) if q < 1.0 else 0.0
    horizontal = wi[direction == HORIZONTAL]
    scale_log = np.zeros(emb.size)
    scale_log[horizontal] = 0.5 * emb.white[horizontal, 1] * log_q
    ab = np.zeros((2 * kl + ku + 1, emb.size), order="F")
    entries = (kl + ku + wi - bi, bi)
    ab[entries] = np.where(direction == HORIZONTAL, q ** -emb.white[wi, 1].astype(float), 1.0)
    ab[entries] *= np.exp(scale_log)[wi]
    lu, _, info = kasteleyn._flapack().dgbtrf(ab, kl, ku, overwrite_ab=True)
    assert info == 0
    j0 = box.m * box.n * (box.n - 1) // 2
    return float(np.sum(np.log(np.abs(lu[kl + ku])))) - float(np.sum(scale_log)) + j0 * log_q


def assert_layout_keeps_the_bits(shape, qs):
    """One layout evaluated at each q in turn gives the bits of a fresh
    log_z_kasteleyn call and of the entry-by-entry reference."""
    log_z = kasteleyn._log_z_of_q(shape)
    for q in qs:
        got = log_z(q)
        assert same_bits(got, log_z_kasteleyn(shape, q)), (shape, q)
        assert same_bits(got, reference_log_z_kasteleyn(shape, q)), (shape, q)


def test_verify_boxes_keep_their_bits_over_one_layout():
    for sides in itertools.product((1, 2, 3), repeat=3):
        assert_layout_keeps_the_bits(BoxShape(*sides), (0.3, 0.5, 0.9))


def test_every_ordering_of_a_verify_box_has_the_same_bits():
    # ln Z depends on the sorted sides alone, so verify may share one
    # embedding and factorization among a box's orderings
    for sides in itertools.combinations_with_replacement((1, 2, 3), 3):
        for q in (0.3, 0.5, 0.9):
            first, *others = (log_z_kasteleyn(BoxShape(*order), q)
                              for order in itertools.permutations(sides))
            assert all(same_bits(first, other) for other in others), (sides, q)


@pytest.mark.parametrize("side", [8, 16, 24])
def test_cubes_keep_their_bits_over_one_layout(side):
    qs = [0.5, 0.95, *np.random.default_rng(side).uniform(0.5, 0.95, 3).tolist()]
    assert_layout_keeps_the_bits(BoxShape(side, side, side), qs)


@pytest.mark.parametrize("side", [8, 16, 24])
def test_matches_macmahon_on_cubes(side):
    shape = BoxShape(side, side, side)
    for q in np.linspace(0.3, 1.0, 15):
        assert abs(log_z_kasteleyn(shape, q) - log_z_macmahon(shape, q)) <= 2e-10, q


@pytest.mark.parametrize("m,n,k", [(24, 10, 30), (5, 30, 20), (30, 20, 5),
                                   (60, 25, 5), (57, 29, 2), (44, 22, 5), (40, 17, 23)])
def test_matches_macmahon_on_boxes(m, n, k):
    # elongated boxes near q = 1 are where an unsorted side order lost accuracy
    # (60 x 25 x 5 was 1.5e-1 off at q = 0.999)
    shape = BoxShape(m, n, k)
    for q in (0.5, 0.9, 0.99, 0.999, 1.0):
        assert abs(log_z_kasteleyn(shape, q) - log_z_macmahon(shape, q)) <= 1e-9, q


@pytest.mark.parametrize("m,n,k", [(1, 29, 3), (2, 30, 16)])
def test_small_q_on_long_boxes(m, n, k):
    # entries span q^-30..1 on long boxes; no pivot may underflow to zero
    shape = BoxShape(m, n, k)
    for q in (0.05, 0.1):
        assert abs(log_z_kasteleyn(shape, q) - log_z_macmahon(shape, q)) <= 1e-9, q


@pytest.mark.parametrize("m,n,k,q,power", [(20, 20, 3, 1e-20, 19), (25, 25, 6, 1e-15, 24),
                                           (10, 10, 10, 1e-40, 9), (3, 3, 3, 1e-200, 2),
                                           (2, 2, 2, 5e-324, 1)])
def test_overflowing_q_power_is_a_value_error(m, n, k, q, power):
    # q is in the domain, but a power of 1/q in the matrix or its row scale
    # exceeds the float range: a usage error, without a numpy warning,
    # not a vanished determinant
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"q = {q!r} is too small .* q\^-{power} overflows"):
            log_z_kasteleyn(BoxShape(m, n, k), q)
    assert log_z_macmahon(BoxShape(m, n, k), q) > 0.0


_SCIPY_LOADS = """
import contextlib, io, sys
import hexdimer
from hexdimer import BoxShape, cli, log_z_kasteleyn

def loaded(*names):
    return sorted(m for m in names if m in sys.modules)

print(loaded('scipy.linalg', 'scipy.sparse'))
try:
    log_z_kasteleyn(BoxShape(40, 40, 40), 0.5)
except ValueError as err:
    print(err)
print(loaded('scipy.linalg._flapack'))
first = log_z_kasteleyn(BoxShape(3, 3, 3), 0.5).hex()
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(['verify'])
print(status, loaded('scipy.linalg', 'scipy.sparse'))
used = sys.modules['scipy.linalg._flapack']
import scipy.linalg.lapack
print(scipy.linalg.lapack.dgbtrf is used.dgbtrf, scipy.linalg.lapack._flapack is used)
print(log_z_kasteleyn(BoxShape(3, 3, 3), 0.5).hex() == first)
"""


def test_import_leaves_scipy_linalg_unloaded():
    # The oracle loads only scipy's LAPACK wrapper, and only once a box has
    # passed its checks: importing scipy.linalg for it would add 0.25-0.35 s
    # and 28 MB to every process that imports hexdimer or runs verify
    src = str(Path(hexdimer.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _SCIPY_LOADS],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == [
        "[]",
        "Kasteleyn matrix dimension 4800 exceeds 2000",
        "[]",  # rejected before LAPACK was loaded
        "0 []",
        "True True",  # a later scipy.linalg shares the wrapper the oracle used
        "True",
    ]


def test_missing_lapack_wrapper_is_an_import_error(monkeypatch):
    # one import path: a scipy without the wrapper fails loudly, naming it
    monkeypatch.setattr(kasteleyn, "_FLAPACK", "scipy.linalg._no_such_wrapper")
    with pytest.raises(ImportError, match=r"ships no scipy\.linalg\._no_such_wrapper"):
        kasteleyn._flapack()
