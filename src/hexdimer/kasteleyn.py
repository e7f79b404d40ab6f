"""Kasteleyn-matrix partition function for the hexagonal domain.

The dimer graph is the adjacency graph of up/down unit triangles inside the
hexagon with side lengths (m, n, k), built in sheared coordinates where the
triangular lattice point (x, y) sits at x*e1 + y*e2, e2 at 60 degrees.  The
hexagon is { -n <= x <= m, -k <= y <= n, -k <= x + y <= m }; up-triangle
U(u,v) has corners (u,v), (u+1,v), (u,v+1) and is white, down-triangle D(u,v)
has corners (u+1,v), (u,v+1), (u+1,v+1) and is black.

Each white U(u,v) has up to three black partners, one per lozenge type:
D(u-1,v) horizontal (a cube's top face; carries the q weight), D(u,v) up and
D(u,v-1) down.  The complex embedding places whites at (-2u-2v) + (2u+v)i and
blacks at (-2u-2v-1) + (2u+v+2)i: horizontal-edge endpoints share Im and have
integer coordinates, Re w + Im w = -v.  The top face of the column (i, j) at
height h projects to v = j - h, so a matching's weight is q^{Volume - J0} with
J0 = m*n*(n-1)/2 the exponent of the empty-pile matching; dividing |det K| by
the empty-pile weight q^{-J0} recovers Z = sum q^Volume.

Whites and blacks are numbered by decreasing u, then increasing v.  Edges join
the lines u and u - 1, so K is banded (kl = ku = side on a cube) and ln|det K|
comes from LAPACK's banded partial-pivoting LU: dense GEPP that skips the zeros
outside the band.  The order sets GEPP's rounding: the order (u + v, u) loses
1.7e-9 in ln Z at 24^3 and hits a zero pivot at (40, 40, 1).  All-positive
weights are a valid Kasteleyn weighting here: every internal face is a hexagon
(6 = 2 mod 4 edges, zero negative entries is even).

The LU needs one LAPACK routine, dgbtrf, so the oracle loads only scipy's
compiled wrapper scipy.linalg._flapack, once the box has passed its checks.
Importing scipy.linalg for it, with scipy's array-API layer and numpy.f2py,
costs 0.25-0.35 s and 28 MB of peak memory on a 2-core Xeon VM; the wrapper
alone costs 17-26 ms and 3.5 MB, and gives the same dgbtrf.
"""
from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from math import exp, log
from pathlib import Path

import numpy as np

from .errors import EmbeddingError, SingularMatrixError
from .shapes import BoxShape

# Not a cost limit: the tests pin the error up to 25^3; it grows fast beyond
# (|d ln Z| 5e-12 at 25^3, 1e-7 at 48^3, 7e-6 at 56^3).
MAX_DIMENSION = 2000

HORIZONTAL, UP, DOWN = 0, 1, 2  # direction codes in HexEmbedding.edges[:, 2]
_PARTNERS = np.array([(-1, 0), (0, 0), (0, -1)])  # per direction: black (du, dv) from white (u, v)


@dataclass(frozen=True)
class HexEmbedding:
    """Triangle-adjacency graph in sweep order: white[i], black[i] are the (u, v)
    of the i-th up/down triangle; edges rows are (white, black, direction code)."""

    shape: BoxShape
    white: np.ndarray
    black: np.ndarray
    edges: np.ndarray

    @property
    def size(self) -> int:
        return len(self.white)


@dataclass(frozen=True)
class BandMatrix:
    """Square matrix in LAPACK band storage, with kl spare rows on top for the
    LU's fill: entry (i, j) sits at ab[kl + ku + i - j, j]."""

    ab: np.ndarray
    kl: int
    ku: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ab.shape[1], self.ab.shape[1])


def _sweep_order(keep):
    """Sweep-order index grid (-1 off the graph), and its cells in the order."""
    flipped, gv = np.nonzero(keep[::-1])  # row-major with u reversed: the sweep order
    gu = len(keep) - 1 - flipped
    ids = np.full(keep.shape, -1)
    ids[gu, gv] = np.arange(len(gu))
    return ids, gu, gv


def build_embedding(shape: BoxShape) -> HexEmbedding:
    """Construct the hexagon's dimer graph; raises for infinite height."""
    if not shape.is_finite:
        raise ValueError("Kasteleyn embedding requires finite k")
    m, n, k = shape.m, shape.n, shape.k
    # (u, v) sits at grid[u + n + 1, v + k + 1]; the one-cell border holds no
    # triangle, so every neighbour lookup below stays on the grid
    u, v = np.arange(-n - 1, m + 3)[:, None], np.arange(-k - 1, n + 3)
    # lattice points (x, y) of the hexagon, on the grid plus one row and column
    inside = (-n <= u) & (u <= m) & (-k <= v) & (v <= n) & (-k <= u + v) & (u + v <= m)
    right, top = inside[1:, :-1], inside[:-1, 1:]
    white_id, wu, wv = _sweep_order(inside[:-1, :-1] & right & top)
    black_id, bu, bv = _sweep_order(right & top & inside[1:, 1:])
    expected = m * n + n * k + m * k
    if len(wu) != expected or len(bu) != expected:
        raise EmbeddingError(f"triangle count mismatch for {shape}: {len(wu)} white / "
                             f"{len(bu)} black, expected {expected} each")
    partners = black_id[wu[:, None] + _PARTNERS[:, 0], wv[:, None] + _PARTNERS[:, 1]]
    _check_faces(shape, white_id, black_id, partners)
    wi, direction = np.nonzero(partners >= 0)
    return HexEmbedding(shape=shape, white=np.column_stack((wu - n - 1, wv - k - 1)),
                        black=np.column_stack((bu - n - 1, bv - k - 1)),
                        edges=np.column_stack((wi, partners[wi, direction], direction)))


def _check_faces(shape: BoxShape, white_id, black_id, partners) -> None:
    """Every internal face must be a hexagon: a 6-cycle of partners (the blacks
    of each white, -1 for none) around a lattice point (x, y); plus Euler's count."""
    # whites (x, y), (x-1, y), (x, y-1) and blacks (x-1, y), (x-1, y-1), (x, y-1)
    ring = np.array([white_id[1:, 1:], white_id[:-1, 1:], white_id[1:, :-1],
                     black_id[:-1, 1:], black_id[:-1, :-1], black_id[1:, :-1]])
    face = (ring >= 0).all(axis=0)
    ring = ring[:, face]
    cycle_w, cycle_b = ring[[0, 1, 1, 2, 2, 0]], ring[[3, 3, 4, 4, 5, 5]]
    # one direction column at a time: no (6, F, 3) gather of every partner
    closed = np.logical_or.reduce([col[cycle_w] == cycle_b for col in partners.T]).all(axis=0)
    if not closed.all():
        gx, gy = np.argwhere(face)[np.argmin(closed)]
        raise EmbeddingError(
            f"face at lattice point ({gx - shape.n}, {gy - shape.k}) is not a 6-cycle")
    v_count, e_count, faces = 2 * len(partners), np.count_nonzero(partners >= 0), face.sum()
    if v_count - e_count + faces != 1:
        raise EmbeddingError(f"Euler check failed: V={v_count}, E={e_count}, internal F={faces}")


@dataclass(frozen=True)
class _BandLayout:
    """Where each edge of an embedding sits in band storage: kl, ku, the
    flat index of its entry in the F-ordered ab, whether it is horizontal,
    and -v, the exponent of q on it, as a float."""

    kl: int
    ku: int
    rows: int
    cols: int
    flat: np.ndarray
    horizontal: np.ndarray
    neg_v: np.ndarray

    def matrix(self, values: np.ndarray) -> BandMatrix:
        """The band matrix with values on the edges, zeros elsewhere."""
        ab = np.zeros(self.rows * self.cols)
        ab[self.flat] = values
        return BandMatrix(ab.reshape(self.cols, self.rows).T, self.kl, self.ku)


def _band_layout(embedding: HexEmbedding) -> _BandLayout:
    """The band layout of embedding's edges, entry (wi, bi) at ab[kl + ku + wi - bi, bi]."""
    wi, bi, direction = embedding.edges.T
    kl, ku = max(int(np.max(wi - bi)), 0), max(int(np.max(bi - wi)), 0)
    rows = 2 * kl + ku + 1  # kl spare rows on top for the LU's fill
    return _BandLayout(kl, ku, rows, embedding.size, kl + ku + wi - bi + rows * bi,
                       direction == HORIZONTAL, -embedding.white[wi, 1].astype(float))


def kasteleyn_matrix(embedding: HexEmbedding, q: float) -> BandMatrix:
    """Weighted adjacency matrix, whites by blacks, in band storage; entry
    q^(Re w + Im w) = q^-v on the horizontal edge of the white (u, v), 1 on
    slanted edges, 0 elsewhere."""
    layout = _band_layout(embedding)
    return layout.matrix(np.where(layout.horizontal, q ** layout.neg_v, 1.0))


_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """scipy's compiled LAPACK wrapper, loaded without the scipy.linalg package
    and registered in sys.modules, so scipy.linalg.lapack later shares it."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy  # light; runs scipy's platform set-up (DLL paths)
        finder = FileFinder(str(Path(scipy.__file__).parent / "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_FLAPACK)
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} ships no {_FLAPACK}", name=_FLAPACK)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module


def _log_z_of_q(shape: BoxShape) -> Callable[[float], float]:
    """ln Z as a function of q in (0, 1], over one embedding of the sorted box
    and its band layout: |det K|, normalized by the empty-pile matching
    weight.  Each q forms the edge values, fills a zeroed ab and factors it."""
    if shape.is_finite and shape.volume // 2 > MAX_DIMENSION:
        raise ValueError(f"Kasteleyn matrix dimension {shape.volume // 2} exceeds {MAX_DIMENSION}")
    # Z is symmetric in the sides; the ascending order keeps GEPP accurate on
    # elongated boxes (60 x 25 x 5 at q = 0.999: 1.5e-1 off in ln Z unsorted)
    box = BoxShape(*sorted((shape.m, shape.n, shape.k)))
    embedding = build_embedding(box)  # raises for infinite height
    dgbtrf = _flapack().dgbtrf  # loaded once the box has passed its checks
    layout = _band_layout(embedding)
    wi = embedding.edges[:, 0]
    horizontal = wi[layout.horizontal]
    half_v = 0.5 * embedding.white[horizontal, 1]
    j0 = box.m * box.n * (box.n - 1) // 2

    def log_z(q: float) -> float:
        # Halve each row's exponent spread before factorization so extreme q
        # powers cancel in the log-domain correction rather than under/overflow.
        log_q = log(q) if q < 1.0 else 0.0
        scale_log = np.zeros(embedding.size)
        scale_log[horizontal] = half_v * log_q
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            values = np.where(layout.horizontal, q ** layout.neg_v, 1.0)
            values *= np.exp(scale_log)[wi]
        if not np.all(np.isfinite(values)):
            # K holds q^-v and the row scale q^(v/2), over the whites' v
            v = embedding.white[horizontal, 1]
            power = max(v.max(), -v.min() / 2)
            raise ValueError(f"q = {q!r} is too small for the Kasteleyn matrix of {shape}: "
                             f"q^-{power:g} overflows a float")
        mat = layout.matrix(values)
        lu, _, info = dgbtrf(mat.ab, mat.kl, mat.ku, overwrite_ab=True)
        pivots = np.abs(lu[mat.kl + mat.ku])
        if info != 0 or not np.all(np.isfinite(pivots)):
            raise SingularMatrixError(f"Kasteleyn determinant vanished for {shape}, q={q}; Z > 0 "
                                      "always, so the embedding or weighting is inconsistent")
        return float(np.sum(np.log(pivots))) - float(np.sum(scale_log)) + j0 * log_q

    return log_z


def log_z_kasteleyn(shape: BoxShape, q: float) -> float:
    """ln Z via |det K|, normalized by the empty-pile matching weight."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    return _log_z_of_q(shape)(q)


def kasteleyn_partition(shape: BoxShape, q: float) -> float:
    """Z(q) as the normalized absolute Kasteleyn determinant."""
    return exp(log_z_kasteleyn(shape, q))
