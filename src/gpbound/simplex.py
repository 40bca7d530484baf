"""Dense two-phase primal simplex on standard-form problems.

Solves min c'x subject to A x = b, x >= 0 on a full tableau. Pricing is
steepest-coefficient with a switch to Bland's rule after a run of degenerate
pivots, which keeps termination guaranteed. Solutions are certified against
the original data: feasibility, dual feasibility of the reduced costs, and the
complementary-slackness / duality-gap residual.

Two things keep the tableau cheap. A pivot updates it in place with one BLAS
rank-1 call (``dger`` on the Fortran-ordered view ``T.T``), so no tableau-sized
temporary is allocated. Phase 1 starts from a slack basis: after negative
right-hand sides are flipped, every row that owns a ``+1`` unit column starts
with that column basic, and artificial columns are added only for the other
rows, whose sum is the phase-1 objective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

FEAS_TOL = 1e-8
PIVOT_TOL = 1e-9
STALL_LIMIT = 40        # degenerate pivots before Bland pricing kicks in


@dataclass
class LpResult:
    status: str            # optimal | infeasible | unbounded | iteration_limit | uncertified
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None = None
    iterations: int = 0


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    # T -= outer(factors, T[row]) in place; T is C-contiguous, so T.T is a
    # Fortran array that dger updates without a copy
    dger(-1.0, T[row].copy(), factors, a=T.T, overwrite_a=1)
    basis[row] = col


def _price(obj_row: np.ndarray, allowed: np.ndarray, bland: bool) -> int | None:
    reduced = np.where(allowed, obj_row, np.inf)
    if bland:
        idx = np.flatnonzero(reduced < -PIVOT_TOL)
        return int(idx[0]) if idx.size else None
    j = int(np.argmin(reduced))
    return j if reduced[j] < -PIVOT_TOL else None


def _ratio_row(T: np.ndarray, basis: np.ndarray, col: int, nrows: int) -> int | None:
    colvals = T[:nrows, col]
    rhs = T[:nrows, -1]
    ok = colvals > PIVOT_TOL
    if not ok.any():
        return None
    ratios = np.where(ok, rhs / np.where(ok, colvals, 1.0), np.inf)
    best = ratios[ok].min()
    candidates = np.flatnonzero(ok & (ratios <= best + PIVOT_TOL))
    # leaving-variable tie-break on the basis index keeps cycling at bay
    return int(candidates[np.argmin(basis[candidates])])


def _run(T: np.ndarray, basis: np.ndarray, ncols: int, allowed: np.ndarray, max_iter: int):
    nrows = T.shape[0] - 1
    stalled = 0
    bland = False
    it = 0
    while it < max_iter:
        col = _price(T[-1, :ncols], allowed, bland)
        if col is None:
            return "optimal", it
        row = _ratio_row(T, basis, col, nrows)
        if row is None:
            return "unbounded", it
        before = T[-1, -1]
        _pivot(T, basis, row, col)
        it += 1
        # the corner stores the negated objective: an increase is real progress
        if T[-1, -1] > before + PIVOT_TOL:
            stalled = 0
            bland = False
        else:
            stalled += 1
            if stalled >= STALL_LIMIT:
                bland = True
    return "iteration_limit", it


def solve_dense_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    max_iter: int | None = None,
) -> LpResult:
    """Standard-form solve; see the module docstring for the method."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    A_orig = A
    b_orig = b.copy()
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    scale = max(1.0, float(np.abs(b).sum()))

    # phase 1: a +1 unit column starts basic in its row; the other rows get artificials
    unit = np.flatnonzero((np.count_nonzero(A, axis=0) == 1)
                          & (A.max(axis=0, initial=0.0) == 1.0))
    slack_rows, first = np.unique(np.nonzero(A[:, unit].T)[1], return_index=True)
    art_rows = np.setdiff1d(np.arange(m), slack_rows)
    ncols = n + art_rows.size
    T = np.zeros((m + 1, ncols + 1))
    assert T.flags.c_contiguous  # dger updates T.T in place only if it is Fortran-ordered
    T[:m, :n] = A
    T[art_rows, np.arange(n, ncols)] = 1.0
    T[:m, -1] = b
    T[-1, :n] = -A[art_rows].sum(axis=0)
    T[-1, -1] = -b[art_rows].sum()
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = unit[first]
    basis[art_rows] = np.arange(n, ncols)
    allowed = np.ones(ncols, dtype=bool)
    status, it1 = _run(T, basis, ncols, allowed, max_iter)
    if status == "iteration_limit":
        return LpResult("iteration_limit", None, None, iterations=it1)
    if -T[-1, -1] > FEAS_TOL * scale:
        return LpResult("infeasible", None, None, iterations=it1)

    # drive any residual artificial variables out of the basis
    for row in np.flatnonzero(basis >= n):
        cols = np.flatnonzero(np.abs(T[row, :n]) > PIVOT_TOL)
        if cols.size:
            _pivot(T, basis, int(row), int(cols[0]))

    # phase 2: real objective, artificial columns barred from entering
    allowed[n:] = False
    T[-1, :] = 0.0
    T[-1, :n] = c
    in_basis = np.flatnonzero(basis < n)
    if in_basis.size:
        T[-1, :] -= c[basis[in_basis]] @ T[in_basis, :]
    status, it2 = _run(T, basis, ncols, allowed, max_iter)
    iterations = it1 + it2
    if status == "iteration_limit":
        return LpResult("iteration_limit", None, None, iterations=iterations)
    if status == "unbounded":
        return LpResult("unbounded", None, None, iterations=iterations)

    x = np.zeros(n)
    keep = basis < n
    x[basis[keep]] = T[:m][keep, -1]
    obj = float(c @ x)

    # certification against the original data (duals flipped back for negated rows)
    ext = np.hstack([A, np.eye(m)[:, art_rows]])
    cext = np.concatenate([c, np.zeros(art_rows.size)])
    try:
        duals = np.linalg.solve(ext[:, basis].T, cext[basis])
    except np.linalg.LinAlgError:
        return LpResult("uncertified", x, obj, iterations=iterations)
    duals[neg] *= -1.0
    cscale = max(1.0, float(np.abs(c).max()) if c.size else 1.0)
    feas = np.linalg.norm(A_orig @ x - b_orig) <= FEAS_TOL * scale
    nonneg = x.min(initial=0.0) >= -FEAS_TOL
    reduced = c - A_orig.T @ duals
    dual_feas = reduced.min(initial=0.0) >= -FEAS_TOL * cscale
    gap = abs(obj - duals @ b_orig) <= FEAS_TOL * max(1.0, abs(obj))
    comp = abs(float(x @ reduced)) <= FEAS_TOL * max(1.0, abs(obj))
    if not (feas and nonneg and dual_feas and gap and comp):
        return LpResult("uncertified", x, obj, duals=duals, iterations=iterations)
    return LpResult("optimal", x, obj, duals=duals, iterations=iterations)
