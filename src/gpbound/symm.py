"""Dense symmetric-matrix helpers: upper-triangle indexing and spectral splits."""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def tri_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays of the upper triangle (diagonal included), row-major."""
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=128)
def tri_weights(n: int) -> np.ndarray:
    """2 on off-diagonal triangle positions, 1 on the diagonal (doubled inner products)."""
    rows, cols = tri_indices(n)
    w = np.where(rows == cols, 1.0, 2.0)
    w.setflags(write=False)
    return w


def psd_split(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a symmetric matrix into its projections onto the PSD and NSD cones.

    Returns ``(pos, neg)`` with ``pos + neg == sym(mat)``, ``pos`` PSD, ``neg`` NSD,
    and ``<pos, neg> == 0`` up to round-off.
    """
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    # Form V diag(vals) V' over the smaller side of the spectrum: n^2 r flops for
    # r eigenpairs instead of n^3, and near a low-rank optimum r is a fraction of n.
    cut = int(np.searchsorted(vals, 0.0, side="right"))   # vals ascend; vals[cut:] > 0
    few_positive = 2 * cut >= vals.size
    V, lam = (vecs[:, cut:], vals[cut:]) if few_positive else (vecs[:, :cut], vals[:cut])
    part = (V * lam) @ V.T
    part = 0.5 * (part + part.T)
    return (part, sym - part) if few_positive else (sym - part, part)


def psd_project(mat: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix."""
    return psd_split(mat)[0]
