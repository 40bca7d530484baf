"""The spectral split of a dense symmetric matrix into its PSD and NSD parts, the
one eigendecomposition of every solver sweep.

Both precisions run LAPACK's divide-and-conquer ``?syevd``, picked by dtype. In double
precision the split is ``V diag(lam) V'`` over the smaller side of the spectrum. In
single precision (``single=True``) a float32 copy of the matrix is eigendecomposed,
which takes about two thirds of the double-precision time (4.4 against 6.8 ms at
n = 300, one BLAS thread). The eigenvectors of the smaller side are cast to double
and re-orthonormalized there by Cholesky-QR, and their eigenvalues are replaced by
double-precision Rayleigh quotients h_i = q_i' sym q_i, clipped to the side's sign
(the first step of Ogita & Aishima's refinement, JJIAM 2018). So in either
precision:

- the side formed as the product is exactly semidefinite, and the other side is the
  difference, so ``pos + neg == sym`` up to the rounding of that one subtraction;
- ``<pos, neg> = sum_i h_i (q_i' sym q_i) - sum_i h_i^2`` is 0 up to double rounding,
  because each h_i is its own Rayleigh quotient or 0.

Only the sign of the difference side is accurate to float32 alone: its extreme
eigenvalue is of order n * u32 * ||sym||, and the split moves by about
u32 * ||sym|| / gap from the double one, where gap is the distance of the spectrum
from 0. A single-precision split falls back to double when float32 cannot handle
the matrix: an entry outside float32's normal range, a nonzero LAPACK ``info``, an
eigenvalue that overflows or a failed Cholesky-QR.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

_F32 = np.finfo(np.float32)


def psd_split(mat: np.ndarray, single: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Split a symmetric matrix into its projections onto the PSD and NSD cones.

    Returns ``(pos, neg)`` with ``pos + neg == sym(mat)``, ``pos`` PSD, ``neg`` NSD,
    and ``<pos, neg> == 0`` up to round-off; ``single`` computes the eigenvectors in
    single precision (module docstring). Raises ``np.linalg.LinAlgError`` when the
    double-precision eigendecomposition fails, as it does on a non-finite matrix or
    one whose spectrum overflows.
    """
    pos, neg, _ = precision_split(0.5 * (mat + mat.T), single)
    return pos, neg


def precision_split(sym: np.ndarray, single: bool) -> tuple[np.ndarray, np.ndarray, bool]:
    """:func:`psd_split` of a matrix that is symmetric bit for bit, as every sweep's is,
    so it is not symmetrized again; and whether the eigenvectors came from single
    precision (False when ``single`` fell back to double)."""
    side = _single_side(sym) if single else None
    ran_single = side is not None
    if side is None:
        eig = _syevd(sym, np.float64)
        if eig is None:
            raise np.linalg.LinAlgError("eigendecomposition did not converge")
        side = _smaller_side(*eig)
    # Form V diag(lam) V' over the smaller side of the spectrum: n^2 r flops for
    # r eigenpairs instead of n^3, and near a low-rank optimum r is a fraction of n.
    V, lam, few_positive = side
    part = (V * lam) @ V.T
    part = 0.5 * (part + part.T)
    pos, neg = (part, sym - part) if few_positive else (sym - part, part)
    return pos, neg, ran_single


def _syevd(sym: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray] | None:
    """Ascending eigenvalues and eigenvectors of ``sym`` in ``dtype`` by ?syevd; None
    when LAPACK reports failure or an eigenvalue overflows."""
    # sym' is sym in Fortran order, so the copy is one LAPACK may overwrite in place
    a = sym.T.astype(dtype)
    vals, vecs, info = lapack.get_lapack_funcs("syevd", (a,))(a, lower=1, overwrite_a=1)
    return None if info or not np.isfinite(vals).all() else (vals, vecs)


def _smaller_side(vals: np.ndarray, vecs: np.ndarray):
    cut = int(np.searchsorted(vals, 0.0, side="right"))   # vals ascend; vals[cut:] > 0
    few_positive = 2 * cut >= vals.size
    side = slice(cut, None) if few_positive else slice(None, cut)
    return vecs[:, side], vals[side], few_positive


def _single_side(sym: np.ndarray):
    """The smaller side from a float32 eigendecomposition, refined in double: the
    vectors by Cholesky-QR, the values by clipped Rayleigh quotients; None when float32
    cannot handle ``sym``."""
    top = max(sym.max(), -sym.min())
    if not _F32.tiny <= top <= _F32.max:   # also refuses a non-finite entry
        return None
    eig = _syevd(sym, np.float32)
    if eig is None:
        return None
    V32, _, few_positive = _smaller_side(*eig)
    V = V32.astype(np.float64)
    del eig, V32   # free the float32 buffers before the products
    R, info = lapack.dpotrf(V.T @ V)
    if info:
        return None
    V = blas.dtrsm(1.0, R, V, side=1, overwrite_b=1)   # V R^-1, in place
    h = np.einsum("ij,ij->j", V, sym @ V)
    h = np.maximum(h, 0.0, out=h) if few_positive else np.minimum(h, 0.0, out=h)
    return V, h, few_positive
