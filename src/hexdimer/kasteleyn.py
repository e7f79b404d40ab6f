"""Kasteleyn-matrix partition function for the hexagonal domain.

The dimer graph is the adjacency graph of up/down unit triangles inside the
hexagon with side lengths (m, n, k), built in sheared coordinates where the
triangular lattice point (x, y) sits at x*e1 + y*e2, e2 at 60 degrees.  The
hexagon is { -n <= x <= m, -k <= y <= n, -k <= x + y <= m }; up-triangle
U(u,v) has corners (u,v), (u+1,v), (u,v+1) and is white, down-triangle D(u,v)
has corners (u+1,v), (u,v+1), (u+1,v+1) and is black.

Each white U(u,v) has up to three black partners, one per lozenge type:
  horizontal: D(u-1,v)  (a cube's top face; carries the q weight)
  up:         D(u,v)
  down:       D(u,v-1)

The complex embedding places whites at (-2u-2v) + (2u+v)i and blacks at
(-2u-2v-1) + (2u+v+2)i: horizontal-edge endpoints share Im and have integer
coordinates, Re w + Im w = -v, and the two slanted types change Im by +2/+1.
The top face of the column (i, j) at height h projects to v = j - h, so a
matching's weight is q^{Volume - J0} with J0 = m*n*(n-1)/2 the exponent of
the empty-pile matching; dividing |det K| by the empty-pile weight q^{-J0}
recovers Z = sum q^Volume.

All-positive weights are a valid Kasteleyn weighting here: every internal
face is a hexagon (6 = 2 mod 4 edges, zero negative entries is even).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, log

import numpy as np

from .errors import EmbeddingError, SingularMatrixError
from .shapes import BoxShape

MAX_DIMENSION = 2000

HORIZONTAL = "horizontal"
UP = "up"
DOWN = "down"

# black partner offsets per direction, relative to the white (u, v)
_PARTNERS = ((HORIZONTAL, -1, 0), (UP, 0, 0), (DOWN, 0, -1))


@dataclass(frozen=True)
class HexEmbedding:
    """Bipartite triangle-adjacency graph with its complex-plane embedding."""

    shape: BoxShape
    white_vertices: tuple[complex, ...]
    black_vertices: tuple[complex, ...]
    edges: tuple[tuple[int, int, str], ...]

    @property
    def size(self) -> int:
        return len(self.white_vertices)


def _in_hexagon(shape: BoxShape, x: int, y: int) -> bool:
    m, n, k = shape.m, shape.n, shape.k
    return -n <= x <= m and -k <= y <= n and -k <= x + y <= m


def _white_position(u: int, v: int) -> complex:
    return complex(-2 * u - 2 * v, 2 * u + v)


def _black_position(u: int, v: int) -> complex:
    return complex(-2 * u - 2 * v - 1, 2 * u + v + 2)


def build_embedding(shape: BoxShape) -> HexEmbedding:
    """Construct the hexagon's dimer graph; raises for infinite height."""
    if not shape.is_finite:
        raise ValueError("Kasteleyn embedding requires finite k")
    m, n, k = shape.m, shape.n, shape.k

    whites: dict[tuple[int, int], int] = {}
    blacks: dict[tuple[int, int], int] = {}
    for u in range(-n, m + 1):
        for v in range(-k, n + 1):
            if all(_in_hexagon(shape, *c) for c in ((u, v), (u + 1, v), (u, v + 1))):
                whites[(u, v)] = len(whites)
            if all(_in_hexagon(shape, *c) for c in ((u + 1, v), (u, v + 1), (u + 1, v + 1))):
                blacks[(u, v)] = len(blacks)

    expected = m * n + n * k + m * k
    if len(whites) != expected or len(blacks) != expected:
        raise EmbeddingError(
            f"triangle count mismatch for {shape}: {len(whites)} white / {len(blacks)} black, "
            f"expected {expected} each")

    edges = []
    for (u, v), wi in whites.items():
        for direction, du, dv in _PARTNERS:
            bi = blacks.get((u + du, v + dv))
            if bi is not None:
                edges.append((wi, bi, direction))

    _check_faces(shape, whites, blacks, edges)

    return HexEmbedding(
        shape=shape,
        white_vertices=tuple(_white_position(u, v) for (u, v) in whites),
        black_vertices=tuple(_black_position(u, v) for (u, v) in blacks),
        edges=tuple(edges),
    )


def _check_faces(shape: BoxShape, whites, blacks, edges) -> None:
    """Every internal face must be a hexagon; verified via its 6-edge cycle
    around each interior lattice point, plus the Euler count."""
    edge_set = {(w, b) for (w, b, _) in edges}
    m, n, k = shape.m, shape.n, shape.k
    faces = 0
    for x in range(-n, m + 1):
        for y in range(-k, n + 1):
            ring_w = ((x, y), (x - 1, y), (x, y - 1))
            ring_b = ((x - 1, y), (x - 1, y - 1), (x, y - 1))
            if all(c in whites for c in ring_w) and all(c in blacks for c in ring_b):
                faces += 1
                cycle = [(whites[ring_w[0]], blacks[ring_b[0]]), (whites[ring_w[1]], blacks[ring_b[0]]),
                         (whites[ring_w[1]], blacks[ring_b[1]]), (whites[ring_w[2]], blacks[ring_b[1]]),
                         (whites[ring_w[2]], blacks[ring_b[2]]), (whites[ring_w[0]], blacks[ring_b[2]])]
                if any(e not in edge_set for e in cycle):
                    raise EmbeddingError(f"face at lattice point ({x}, {y}) is not a 6-cycle")
    v_count = len(whites) + len(blacks)
    if v_count - len(edges) + faces != 1:
        raise EmbeddingError(
            f"Euler check failed: V={v_count}, E={len(edges)}, internal F={faces}")


def kasteleyn_matrix(embedding: HexEmbedding, q: float) -> np.ndarray:
    """Dense weighted adjacency matrix; entry q^(Re w + Im w) on horizontal
    edges, 1 on slanted edges, 0 elsewhere."""
    size = embedding.size
    mat = np.zeros((size, size))
    for wi, bi, direction in embedding.edges:
        if direction == HORIZONTAL:
            w = embedding.white_vertices[wi]
            mat[wi, bi] = q ** (w.real + w.imag)
        else:
            mat[wi, bi] = 1.0
    return mat


def log_z_kasteleyn(shape: BoxShape, q: float) -> float:
    """ln Z via |det K|, normalized by the empty-pile matching weight."""
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be in (0, 1], got {q}")
    embedding = build_embedding(shape)
    if embedding.size > MAX_DIMENSION:
        raise ValueError(f"Kasteleyn matrix dimension {embedding.size} exceeds {MAX_DIMENSION}")
    mat = kasteleyn_matrix(embedding, q)
    # Halve each row's exponent spread before factorization so extreme q
    # powers cancel in the log-domain correction rather than under/overflow.
    log_q = log(q) if q < 1.0 else 0.0
    scale_log = np.zeros(embedding.size)
    for wi, bi, direction in embedding.edges:
        if direction == HORIZONTAL:
            w = embedding.white_vertices[wi]
            scale_log[wi] = -0.5 * (w.real + w.imag) * log_q
    mat *= np.exp(scale_log)[:, None]
    sign, log_abs_det = np.linalg.slogdet(mat)
    if sign == 0.0 or not np.isfinite(log_abs_det):
        raise SingularMatrixError(
            f"Kasteleyn determinant vanished for {shape}, q={q}; Z > 0 always, "
            "so the embedding or weighting is inconsistent")
    j0 = shape.m * shape.n * (shape.n - 1) // 2
    return log_abs_det - float(np.sum(scale_log)) + j0 * log_q


def kasteleyn_partition(shape: BoxShape, q: float) -> float:
    """Z(q) as the normalized absolute Kasteleyn determinant."""
    return exp(log_z_kasteleyn(shape, q))
