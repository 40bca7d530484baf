"""The eigenvalue bound: a lower bound valid at every iterate of the solver.

The dual objective b'y + F1(S) + F2(v) is evaluated at sign-feasible multipliers,
and the dual-equality violation is paid for through the negative spectrum of the
rebuilt slack matrix Zc = C - A*(y) - B*(v) - S. Every feasible X has trace n
(each relaxation has the rows diag(X) = e) and top eigenvalue at most a provable
``xbar``, so <Zc, X> >= min{sum mu_i lambda_i : 0 <= mu_i <= xbar, sum mu_i <= n}:
xbar on the floor(n / xbar) most negative eigenvalues and the remainder on the
next. Eigenvalues are charged less a margin for rounding, in ``eigvalsh``
(n * eps * ||Zc||_F) and in forming Zc, and the dual value and the charge each
less a bound on their own summation error, so the bound holds in floating point
(Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 2007).

The bound holds for any multipliers, so :func:`gpbound.admm.solve` evaluates it on
its check sweeps, stops once it meets the primal objective and returns the best
one, which :func:`gpbound.certify.certify_bound` reports. This module imports no
solver code, so both can call it.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import SdpProblem

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundCertificate:
    value: float
    method: str                      # "eig" | "lp"
    perturbation: float | None = None
    xbar: float | None = None
    feasible: bool = True            # LP route may fail; -inf value then
    clamp: float = 0.0               # magnitude of sign-clamped multiplier entries
    raw: float | None = None         # eig route: the bound before rounding up to an integer


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
    """b'y + F1(S) + F2(v) with the unbounded-paired entries of S and v zeroed.

    Returns (value, clamp magnitude).
    """
    _, mag_s, f1, _ = _box_support(S, problem.box_lo, problem.box_hi)
    _, mag_v, f2, _ = _box_support(v, problem.l, problem.u)
    return float(problem.b @ y) + f1 + f2, mag_s + mag_v


def xbar_for(p: SdpProblem) -> float:
    """Provable upper bound on the top eigenvalue of every feasible primal matrix.

    Equipartition DNN points are nonnegative with row sums m, so their top
    eigenvalue is at most the group size m. Equipartition SDP points have e as an
    eigenvector with eigenvalue m and trace n, so every other eigenvalue is
    nonnegative and at most n - m. Knapsack SDP points are PSD with trace n.
    Knapsack DNN points are also nonnegative with (X a)_i <= W, so the row sums of
    Diag(a)^-1 X Diag(a) are at most W / min(a), and by Perron so is the top
    eigenvalue. A problem whose tag names none of these raises ``ValueError``.
    """
    tag = p.tag
    if tag.problem == "keq" and tag.m is not None:
        return float(tag.m if tag.relaxation != "sdp" else max(tag.m, p.n - tag.m))
    if tag.problem == "gpkc" and tag.relaxation == "sdp":
        return float(p.n)
    if tag.problem == "gpkc" and tag.capacity is not None and tag.min_weight:
        return float(min(p.n, tag.capacity / tag.min_weight))
    raise ValueError(f"no provable xbar for a {tag.problem!r} {tag.relaxation!r} problem")


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
    abs_At, abs_Bt, c = p.row_magnitudes
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


def eig_lower_bound(p: SdpProblem, approx, xbar: float,
                    trace: float = math.inf) -> BoundCertificate:
    """Spectral-perturbation bound from approximate multipliers.

    ``approx`` is any state with multipliers ``y``, ``v`` and ``S`` (an
    :class:`gpbound.admm.AdmmState`). The multipliers are sign-clamped wherever
    their support pairing would hit an infinite bound, the PSD-deficient matrix is
    rebuilt as Zc = C - A*(y) - B*(v) - S from the clamped multipliers, and its
    negative eigenvalues are charged by ``_spectral_charge`` with ``xbar`` and
    ``trace``, which must bound the top eigenvalue and the trace of every feasible
    X (the bound is valid for any multipliers). Rebuilding (rather than trusting
    the solver's projected PSD matrix) is what keeps the bound safe at loose
    stopping tolerances. Each computed eigenvalue is lowered by
    ``n * eps * ||Zc||_F`` (for ``eigvalsh``) plus the Zc margin of
    ``_rounding_margins``, the dual value by its d0 margin, the charge by a doubled
    Higham bound on its own sums and products, and the final sum of those three by
    a doubled gamma_2 of their magnitudes, since the exact values lie no further
    away than that. ``perturbation`` is the charge after its margin; ``raw`` and
    ``value`` are both the bound.
    """
    if xbar <= 0:
        raise ValueError("xbar must be positive")
    y = approx.y
    S_c, mag_s, f1, abs_s = _box_support(approx.S, p.box_lo, p.box_hi)
    v_c, mag_v, f2, abs_v = _box_support(approx.v, p.l, p.u)
    mag = mag_s + mag_v
    if mag:
        log.debug("eig bound clamped multiplier mass %.3e", mag)
    d0 = float(p.b @ y) + f1 + f2
    Zc = p.C - p.adjoint(y, v_c) - S_c
    zc_err, d0_err = _rounding_margins(p, y, v_c, S_c, abs_s, abs_v)
    margin = p.n * np.finfo(float).eps * np.linalg.norm(Zc) + zc_err
    evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T)) - margin
    charge = _spectral_charge(evals, xbar, trace)
    # every product in the charge is <= 0, so |charge| is the sum of their absolute
    # values; it takes at most (number of negative evals) + 3 roundings, doubled
    # like the margins of _rounding_margins
    perturbation = charge - 2.0 * _gamma(int((evals < 0).sum()) + 3) * abs(charge)
    # the two additions of the final sum round too; same doubling
    value = d0 - d0_err + perturbation
    value -= 2.0 * _gamma(2) * (abs(d0) + d0_err + abs(perturbation))
    return BoundCertificate(value=value, method="eig", perturbation=perturbation,
                            xbar=xbar, clamp=mag, raw=value)
