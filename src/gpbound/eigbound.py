"""The eigenvalue bound: a lower bound valid at every iterate of the solver.

The dual objective b'y + F1(S) + F2(v) is evaluated at sign-feasible multipliers,
and the dual-equality violation is paid for through the negative spectrum of the
rebuilt slack matrix Zc = C - A*(y) - B*(v) - S. Every feasible X has trace n and top
eigenvalue at most ``xbar``, both proven from the rows by :func:`xbar_for`, so
<Zc, X> >= min{sum mu_i lambda_i : 0 <= mu_i <= xbar, sum mu_i <= n}: xbar on the
floor(n / xbar) most negative eigenvalues and the remainder on the next. Eigenvalues
are charged less a margin for rounding, in ``eigvalsh`` (n * eps * ||Zc||_F) and in
forming Zc, and the dual value and the charge each less a bound on their own
summation error, so the bound holds in floating point (Jansson, Chaykin & Keil,
SIAM J. Numer. Anal. 2007).

This module alone knows what the certificate assumes about a problem: it reads the
premises from the problem's data on first use and caches them on the problem. When
<C, X> is an integer at every partition matrix X, the bound is reported rounded up:
``value`` bounds the minimum over the partition matrices the rows admit, ``raw`` the
relaxation.

The bound holds for any multipliers, so :func:`gpbound.admm.solve` evaluates it on
its check sweeps, stops once it meets the primal objective and returns the best
one, which :func:`gpbound.certify.certify_bound` reports. This module imports no
solver code, so both can call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .model import SdpProblem


@dataclass(frozen=True)
class BoundCertificate:
    value: float                     # eig route: over the partition matrices the rows admit
    method: str                      # "eig" | "lp"
    perturbation: float | None = None
    xbar: float | None = None
    feasible: bool = True            # LP route may fail; -inf value then
    clamp: float = 0.0               # magnitude of sign-clamped multiplier entries
    raw: float | None = None         # eig route: over the relaxation, before rounding up


def _box_support(M: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """A multiplier block met with its bounds lo <= W <= hi, in one pass over them.

    Entries whose support pairing is infinite (M > 0 against lo = -inf, M < 0 against
    hi = +inf) are zeroed. Returns (that clamped block, the norm of what was zeroed,
    inf{<M, W> : lo <= W <= hi} of the clamped block, and the sum of the absolute
    products that infimum adds up).
    """
    pos, neg = M > 0, M < 0
    bad = (pos & np.isinf(lo)) | (neg & np.isinf(hi))
    mag = 0.0
    if bad.any():
        mag = float(np.linalg.norm(M[bad]))
        M = M.copy()
        M[bad] = 0.0
        pos &= ~bad
        neg &= ~bad
    low, high = M[pos] * lo[pos], M[neg] * hi[neg]
    value = 0.0 + float(low.sum()) + float(high.sum())   # 0.0 + maps a -0.0 sum to 0.0
    return M, mag, value, float(np.abs(low).sum() + np.abs(high).sum())


def dual_objective(problem: SdpProblem, y, v, S):
    """(b'y + F1(S) + F2(v), clamp magnitude), unbounded-paired entries of S and v zeroed."""
    _, mag_s, f1, _ = _box_support(S, problem.box_lo, problem.box_hi)
    _, mag_v, f2, _ = _box_support(v, problem.l, problem.u)
    return float(problem.b @ y) + f1 + f2, mag_s + mag_v


class _Premises(NamedTuple):   # what the certificate assumes about a problem
    xbar: float                 # top eigenvalue of every feasible X
    integral: bool              # <C, X> is an integer at every partition matrix X
    abs_At: sp.spmatrix         # |A|', |B|' and the largest column count of the
    abs_Bt: sp.spmatrix         # stacked rows: the parts of the rounding margin
    columns: int                # that depend on the problem only


def _premises(p: SdpProblem) -> _Premises:
    """The premises of ``p``, read from its data on the first call and cached on it."""
    if "_premises" not in p.__dict__:
        xbar = _xbar_from_rows(p)   # raises without the rows diag(X) = e
        # without negative entries |M|' is M' itself, no copy (every builder's rows but cuts)
        At, Bt = (Mt if (Mt.data >= 0).all() else abs(Mt) for Mt in (p.A.T, p.B.T))
        columns = int((p.A.getnnz(axis=0) + p.B.getnnz(axis=0)).max())
        p.__dict__["_premises"] = _Premises(xbar, _integral(p.C), At, Bt, columns)
    return p.__dict__["_premises"]


def xbar_for(p: SdpProblem) -> float:
    """Provable bound on the top eigenvalue of every feasible X, read from the rows
    on the first call, with the certificate's other premises, and cached on the problem.

    The premise is diag(X) = e, n equality rows c e_i e_i' = c, so tr X = n bounds it;
    a problem without them raises ``ValueError``. A block of n rows (e_i w' + w e_i')/2
    with one w > 0 reads (X w)_i against r_i (b, or u for inequalities) and narrows it:
    with ``box_lo`` >= 0 to max_i r_i / w_i by Collatz-Wielandt (m for the keq DNN,
    W / min(a) for the knapsack DNN), rounded up unless an integer; as equalities with
    r = c w, c an integer, w is an eigenvector and the other eigenvalues sum to n - c,
    so to max(c, n - c) (the keq SDP).
    """
    return _premises(p).xbar


def _integral(C: np.ndarray) -> bool:
    """Whether <C, X> = tr C + sum_{i != j} C_ij X_ij is an integer at every partition
    matrix X (0/1, unit diagonal): every C_ij a multiple of 1/2 (``fmod`` is exact), and
    tr C an integer, with an even number of the C_ii odd halves."""
    if not (np.fmod(C, 0.5) == 0).all():
        return False
    return int(np.count_nonzero(np.fmod(np.diagonal(C), 1.0))) % 2 == 0


def _xbar_from_rows(p: SdpProblem) -> float:
    n, A = p.n, p.A
    rows = np.flatnonzero(np.diff(A.indptr) == 1)
    col, val = A.indices[A.indptr[rows]], A.data[A.indptr[rows]]
    pins = (col % (n + 1) == 0) & (val == p.b[rows]) & (val != 0)
    if np.unique(col[pins]).size < n:
        raise ValueError("no rows pin diag(X) = e, so no eigenvalue bound is provable")
    xbar = float(n)
    for M, rhs, equal in ((A, p.b, True), (p.B, p.u, False)):
        M = M if M.has_canonical_format else M.tocoo().tocsr()   # sorted, no duplicates
        # row i of a block that model._sym_rows builds for (X w)_i has 2n - 1 entries,
        # the first in column i, and votes for the block i rows above it
        full = np.flatnonzero(np.diff(M.indptr) == 2 * n - 1)
        first = M.indices[M.indptr[full]]
        votes = np.bincount((full - first)[(first < n) & (full >= first)])
        for s in np.flatnonzero(votes == n):
            a, b = np.divmod(M.indices[M.indptr[s]:M.indptr[s + n]], n)
            val = M.data[M.indptr[s]:M.indptr[s + n]]
            row = np.repeat(np.arange(n), 2 * n - 1)
            # 2n - 1 distinct columns in row i or column i are the pattern; its diagonal
            # entry is w_i, and an entry off it w_j / 2, j the other index
            diag, off = a == b, a != b
            w = val[diag]
            if not (((a == row) | (b == row)).all() and (w > 0).all()
                    and (val[off] == 0.5 * w[(a + b - row)[off]]).all()):
                continue
            r = rhs[s:s + n]
            q = r / w
            with np.errstate(invalid="ignore"):   # fmod(inf, w) is NaN
                exact = np.fmod(r, w) == 0   # r_i / w_i is an integer, so q_i is exact
            if p.box_lo.min() >= 0:
                xbar = min(xbar, np.where(exact, q, np.nextafter(q, np.inf)).max())
            if equal and exact.all() and (q == q[0]).all():
                xbar = min(xbar, max(q[0], n - q[0]))
    return max(float(xbar), 1.0)   # below tr X / n = 1 nothing is feasible


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error of k roundings."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1.0 - ku)


def _rounding_margins(p: SdpProblem, y, v, S, abs_s: float, abs_v: float
                      ) -> tuple[float, float]:
    """Error bounds for forming Zc = C - A*(y) - B*(v) - S and d0 = b'y + F1(S) + F2(v),
    given the absolute terms ``abs_s`` of F1(S) and ``abs_v`` of F2(v).

    An entry of Zc sums at most c + 2 terms, c the largest column count of the
    stacked rows, so |fl(Zc) - Zc| <= gamma_{c+2} (|C| + |A|'|y| + |B|'|v| + |S|)
    elementwise (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1), and gamma_{c+3} covers the symmetrized copy too; by Weyl, the
    Frobenius norm of that bound shifts no eigenvalue further. d0 sums at most
    m + q + n^2 products. Both bounds are doubled, which covers the rounding in
    evaluating them (relative size below (n^2 + m + q + c) u).
    """
    n = p.n
    _, _, abs_At, abs_Bt, c = _premises(p)
    T = np.abs(p.C) + (abs_At @ np.abs(y) + abs_Bt @ np.abs(v)).reshape(n, n) + np.abs(S)
    zc = 2.0 * _gamma(c + 3) * float(np.linalg.norm(T))
    terms = float(np.abs(p.b) @ np.abs(y)) + abs_s + abs_v
    return zc, 2.0 * _gamma(p.m + p.q + n * n) * terms


def _spectral_charge(evals: np.ndarray, xbar: float, trace: float) -> float:
    """min sum mu_i evals_i over 0 <= mu_i <= xbar, sum mu_i <= trace (evals ascending).

    xbar goes on the floor(trace / xbar) most negative eigenvalues and the
    remainder on the next one if it is negative; an infinite trace charges xbar
    on every negative eigenvalue.
    """
    neg = evals[evals < 0]
    full = neg.size if trace >= xbar * neg.size else int(trace // xbar)
    neg_sum = float(neg[:full].sum())
    charge = xbar * neg_sum if neg_sum < 0 else 0.0
    rest = trace - xbar * full
    if full < neg.size and rest > 0:
        charge += rest * float(neg[full])
    return charge


def eig_lower_bound(p: SdpProblem, approx) -> BoundCertificate:
    """The reported bound, from approximate multipliers by spectral perturbation.

    ``approx`` is any state with multipliers ``y``, ``v`` and ``S`` (an
    :class:`gpbound.admm.AdmmState`); the bound is valid for any multipliers. They are
    sign-clamped wherever their support pairing would hit an infinite bound, Zc = C -
    A*(y) - B*(v) - S is rebuilt from them (rather than trusting the solver's projected
    PSD matrix, which keeps the bound safe at loose tolerances), and its negative
    eigenvalues are charged by ``_spectral_charge`` with ``xbar_for(p)`` and trace n; a
    problem without the rows diag(X) = e raises ``ValueError``. Each computed eigenvalue
    is lowered by ``n * eps * ||Zc||_F`` (for ``eigvalsh``) plus the Zc margin of
    ``_rounding_margins``, the dual value by its d0 margin, the charge by a doubled
    Higham bound on its own sums and products, and the final sum of those three by a
    doubled gamma_2 of their magnitudes, since the exact values lie no further away
    than that. ``perturbation`` is the charge after its margin and ``raw`` the bound
    on the relaxation; ``value``, the bound on the minimum over the partition matrices
    the rows admit, is ``raw`` rounded up when <C, X> is an integer at all of them and
    ``raw`` is finite, else ``raw``.
    """
    premises = _premises(p)
    y = approx.y
    S_c, mag_s, f1, abs_s = _box_support(approx.S, p.box_lo, p.box_hi)
    v_c, mag_v, f2, abs_v = _box_support(approx.v, p.l, p.u)
    d0 = float(p.b @ y) + f1 + f2
    Zc = p.C - p.adjoint(y, v_c) - S_c
    zc_err, d0_err = _rounding_margins(p, y, v_c, S_c, abs_s, abs_v)
    margin = p.n * np.finfo(float).eps * np.linalg.norm(Zc) + zc_err
    evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T)) - margin
    charge = _spectral_charge(evals, premises.xbar, p.n)
    # every product in the charge is <= 0, so |charge| is the sum of their absolute
    # values; it takes at most (number of negative evals) + 3 roundings, doubled
    # like the margins of _rounding_margins
    perturbation = charge - 2.0 * _gamma(int((evals < 0).sum()) + 3) * abs(charge)
    # the two additions of the final sum round too; same doubling
    raw = d0 - d0_err + perturbation
    raw -= 2.0 * _gamma(2) * (abs(d0) + d0_err + abs(perturbation))
    value = float(math.ceil(raw)) if premises.integral and math.isfinite(raw) else raw
    return BoundCertificate(value=value, method="eig", perturbation=perturbation,
                            xbar=premises.xbar, clamp=mag_s + mag_v, raw=raw)
