"""Dense symmetric-matrix helpers: scaled triangular vectorization and spectral splits."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

SQRT2 = float(np.sqrt(2.0))


@lru_cache(maxsize=128)
def tri_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays of the upper triangle (diagonal included), row-major."""
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=128)
def tri_scale(n: int) -> np.ndarray:
    """sqrt(2) on off-diagonal triangle positions, 1 on the diagonal."""
    rows, cols = tri_indices(n)
    s = np.where(rows == cols, 1.0, SQRT2)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=128)
def tri_weights(n: int) -> np.ndarray:
    """2 on off-diagonal triangle positions, 1 on the diagonal (doubled inner products)."""
    rows, cols = tri_indices(n)
    w = np.where(rows == cols, 1.0, 2.0)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=128)
def tri_position(n: int) -> np.ndarray:
    """n x n lookup from (i, j) to the triangle-vector position of the unordered pair."""
    rows, cols = tri_indices(n)
    pos = np.zeros((n, n), dtype=np.int64)
    pos[rows, cols] = np.arange(rows.size)
    pos[cols, rows] = pos[rows, cols]
    pos.setflags(write=False)
    return pos


def svec(mat: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix: <M, N> = svec(M) . svec(N)."""
    n = mat.shape[0]
    rows, cols = tri_indices(n)
    return mat[rows, cols] * tri_scale(n)


def smat(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    rows, cols = tri_indices(n)
    vals = vec / tri_scale(n)
    out = np.zeros((n, n))
    out[rows, cols] = vals
    out[cols, rows] = vals
    return out


def psd_split(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a symmetric matrix into its projections onto the PSD and NSD cones.

    Returns ``(pos, neg)`` with ``pos + neg == sym(mat)``, ``pos`` PSD, ``neg`` NSD,
    and ``<pos, neg> == 0`` up to round-off.
    """
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    pos = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    pos = 0.5 * (pos + pos.T)
    return pos, sym - pos


def psd_project(mat: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix."""
    return psd_split(mat)[0]
