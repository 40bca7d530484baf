"""The spectral split of a dense symmetric matrix into its PSD and NSD parts, the
one eigendecomposition of every solver sweep."""
from __future__ import annotations

import numpy as np


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

