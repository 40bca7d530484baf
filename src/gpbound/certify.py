"""Safe lower bounds from approximate solver output.

Two post-processing routes turn a near-optimal iterate into a bound that is
valid no matter how early the solver stopped:

* eigenvalue route: evaluate the dual objective (``admm.dual_objective``, the
  value the solver reports) at sign-feasible multipliers and pay for the
  dual-equality violation through the negative spectrum of the rebuilt slack
  matrix Zc. Every feasible X has trace n (each relaxation has the
  rows diag(X) = e) and top eigenvalue at most a provable ``xbar``, so
  <Zc, X> >= min{sum mu_i lambda_i : 0 <= mu_i <= xbar, sum mu_i <= n}: xbar on
  the floor(n / xbar) most negative eigenvalues and the remainder on the next;
* LP route: freeze the solver's PSD dual block Z as it is and re-optimize the
  remaining multipliers exactly with the bundled dense simplex.

``certify_bound``'s ``auto`` route is the eigenvalue route for every relaxation
(xbar = group size m for the equipartition DNN, n - m for its SDP,
min(n, W / min(a)) for the knapsack DNN and n for the knapsack SDP). A knapsack
DNN solve that did not converge to ``GPKC_EIG_ACCURACY`` falls back to the LP
route, which is much stronger at loose caps. Eigenvalues are charged less a
margin for rounding, in ``eigvalsh`` (n * eps * ||Zc||_F) and in forming Zc,
and the dual value and the charge each less a bound on their own summation
error, so the bound holds in floating point (Jansson, Chaykin & Keil, SIAM J.
Numer. Anal. 2007).
``cutting_loop`` is the one solve-then-certify loop: one round for the SDP and
the DNN, rounds of violated triangle cuts for DNN+MET.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .admm import (AdmmParams, AdmmResult, AdmmState, clamp_unbounded, dual_objective,
                   pad_state, solve)
from .graphs import GraphInstance, PartitionSpec
from .model import SdpProblem, add_cuts, build, separate_met
from .simplex import LpResult, solve_dense_lp  # re-exported: the LP oracle lives here

log = logging.getLogger(__name__)

GPKC_EIG_ACCURACY = 1e-5

__all__ = [
    "BoundCertificate",
    "xbar_for",
    "eig_lower_bound",
    "lp_lower_bound",
    "certify_bound",
    "CutRound",
    "cutting_loop",
    "solve_dense_lp",
    "LpResult",
]


@dataclass(frozen=True)
class BoundCertificate:
    value: float
    method: str                      # "eig" | "lp"
    perturbation: float | None = None
    xbar: float | None = None
    feasible: bool = True            # LP route may fail; -inf value then
    clamp: float = 0.0               # magnitude of sign-clamped multiplier entries


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


def _support_abs(M: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Sum of the absolute products that ``box_support_value(M, lo, hi)`` adds up."""
    pos, neg = M > 0, M < 0
    return float(np.abs(M[pos] * lo[pos]).sum() + np.abs(M[neg] * hi[neg]).sum())


def _rounding_margins(p: SdpProblem, y, v, S) -> tuple[float, float]:
    """Error bounds for forming Zc = C - A*(y) - B*(v) - S and d0 = b'y + F1(S) + F2(v).

    An entry of Zc sums at most c + 2 terms, c the largest column count of the
    stacked rows, so |fl(Zc) - Zc| <= gamma_{c+2} (|C| + |A|'|y| + |B|'|v| + |S|)
    elementwise (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    section 3.1), and gamma_{c+3} covers the symmetrized copy too; by Weyl, the
    Frobenius norm of that bound shifts no eigenvalue further. d0 sums at most
    m + q + n^2 products. Both bounds are doubled, which covers the rounding in
    evaluating them (relative size below (n^2 + m + q + c) u).
    """
    n = p.n
    G = p.stacked_rows()
    c = int(G.getnnz(axis=0).max())
    w = np.abs(np.concatenate([y, v]))
    T = np.abs(p.C) + (abs(G).T @ w).reshape(n, n) + np.abs(S)
    zc = 2.0 * _gamma(c + 3) * float(np.linalg.norm(T))
    terms = float(np.abs(p.b) @ np.abs(y)) + _support_abs(S, p.box_lo, p.box_hi)
    terms += _support_abs(v, p.l, p.u)
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


def eig_lower_bound(p: SdpProblem, approx: AdmmState, xbar: float,
                    trace: float = math.inf) -> BoundCertificate:
    """Spectral-perturbation bound from approximate multipliers.

    The multipliers are sign-clamped wherever their support pairing would hit an
    infinite bound, the PSD-deficient matrix is rebuilt as Zc = C - A*(y) - B*(v) - S
    from the clamped multipliers, and its negative eigenvalues are charged by
    ``_spectral_charge`` with ``xbar`` and ``trace``, which must bound the top
    eigenvalue and the trace of every feasible X (the bound is valid for any
    multipliers). Rebuilding (rather than trusting the solver's projected PSD
    matrix) is what keeps the bound safe at loose stopping tolerances. Each
    computed eigenvalue is lowered by ``n * eps * ||Zc||_F`` (for ``eigvalsh``)
    plus the Zc margin of ``_rounding_margins``, the dual value by its d0 margin,
    the charge by a doubled Higham bound on its own sums and products, and the
    final sum of those three by a doubled gamma_2 of their magnitudes, since the
    exact values lie no further away than that. ``perturbation`` is the charge
    after its margin.
    """
    if xbar <= 0:
        raise ValueError("xbar must be positive")
    y = approx.y
    d0, mag = dual_objective(p, y, approx.v, approx.S)
    if mag:
        log.debug("eig bound clamped multiplier mass %.3e", mag)
    S_c, _ = clamp_unbounded(approx.S, p.box_lo, p.box_hi)
    v_c, _ = clamp_unbounded(approx.v, p.l, p.u)
    Zc = p.C - p.adjoint(y, v_c) - S_c
    zc_err, d0_err = _rounding_margins(p, y, v_c, S_c)
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
    return BoundCertificate(value=value, method="eig",
                            perturbation=perturbation, xbar=xbar, clamp=mag)


def _standard_form_box_lp(p: SdpProblem, Cz: np.ndarray):
    """Standard-form data for min <Cz, X> over the linear part of the feasible set.

    Variables are the upper-triangle entries of X (inner products doubled off the
    diagonal) plus one slack per inequality row; box and interval bounds become
    shifts, reflections, sign splits, or extra bound rows as needed.
    """
    n, m, q = p.n, p.m, p.q
    rows_, cols_ = np.triu_indices(n)
    nut = rows_.size
    w2 = np.where(rows_ == cols_, 1.0, 2.0)   # off-diagonal inner products count twice

    M = np.zeros((m + q, nut + q))
    M[:, :nut] = p.stacked_rows()[:, rows_ * n + cols_].toarray() * w2
    M[m:, nut:] = -np.eye(q)

    rhs = np.concatenate([p.b, np.zeros(q)])
    cost = np.concatenate([w2 * Cz[rows_, cols_], np.zeros(q)])
    lo = np.concatenate([p.box_lo[rows_, cols_], p.l])
    hi = np.concatenate([p.box_hi[rows_, cols_], p.u])

    # a free variable becomes a +/- pair; one bounded above only is shifted by that
    # bound and reflected; the others are shifted by their lower bound, and boxed
    # ones get a bound row whose slack is a unit column
    lo_inf, hi_inf = np.isinf(lo), np.isinf(hi)
    free = lo_inf & hi_inf
    boxed = ~lo_inf & ~hi_inf
    shift = np.where(lo_inf, np.where(hi_inf, 0.0, hi), lo)
    rhs = rhs - M @ shift
    const = float(cost @ shift)
    src = np.repeat(np.arange(nut + q), np.where(free, 2, 1))
    second = np.zeros(src.size, dtype=bool)
    second[1:] = src[1:] == src[:-1]
    sign = np.where(second | (lo_inf[src] & ~hi_inf[src]), -1.0, 1.0)

    nb = int(boxed.sum())
    ncols = src.size
    A = np.zeros((m + q + nb, ncols + nb))
    A[:m + q, :ncols] = M[:, src] * sign
    t = np.arange(nb)
    A[m + q + t, np.flatnonzero(boxed[src])] = 1.0
    A[m + q + t, ncols + t] = 1.0
    rhs = np.concatenate([rhs, (hi - lo)[boxed]])
    c = np.concatenate([cost[src] * sign, np.zeros(nb)])
    return c, A, rhs, const


def lp_lower_bound(p: SdpProblem, Z: np.ndarray) -> BoundCertificate:
    """Dual-adjustment bound: freeze the PSD block and re-optimize the rest exactly.

    With Z frozen at the input (the solver's PSD dual block, used as it is), the
    best achievable dual objective is a linear program; its optimum is a valid
    bound whenever finite. The program solved here is the box-constrained image
    of that LP (same optimum by duality, far fewer rows); an unbounded image
    certifies the adjustment is infeasible and -inf is returned, matching the
    declared failure mode. The value returned is
    the simplex's primal objective at its final point, not a bound evaluated at
    dual multipliers: the simplex accepts reduced costs down to a small negative
    tolerance, so the value can exceed the LP optimum by about that tolerance
    times the 1-norm of the point, and it carries no rounding margin.
    """
    c, A, rhs, const = _standard_form_box_lp(p, p.C - Z)
    res = solve_dense_lp(c, A, rhs)
    if res.status == "optimal":
        return BoundCertificate(value=res.objective + const, method="lp", feasible=True)
    if res.status not in ("unbounded", "infeasible"):
        log.warning("lp bound gave up with status %s; reporting -inf", res.status)
    return BoundCertificate(value=-np.inf, method="lp", feasible=False)


def certify_bound(p: SdpProblem, result: AdmmResult, method: str = "auto") -> BoundCertificate:
    """Certify a solver result: ``"auto"`` and ``"eig"`` take the eigenvalue route.

    Every builder emits the rows diag(X) = e, so the eigenvalue bound is charged
    with trace n and ``xbar_for(p)``. A knapsack DNN (or DNN+MET) solve that did
    not converge to ``GPKC_EIG_ACCURACY`` goes to the LP route instead, which is
    much stronger at loose caps. ``"lp"`` always takes the LP route.
    """
    if method == "auto":
        method = "eig"
    if method == "eig" and p.tag.problem == "gpkc" and p.tag.relaxation != "sdp":
        accurate = result.status == "converged" and result.eps_tol <= GPKC_EIG_ACCURACY
        if not accurate:
            log.warning(
                "eigenvalue bound for a knapsack DNN needs an accurate solve; "
                "falling back to the LP bound"
            )
            method = "lp"
    if method == "eig":
        return eig_lower_bound(p, result.state, xbar_for(p), trace=p.n)
    if method == "lp":
        return lp_lower_bound(p, result.state.Z)
    raise ValueError(f"unknown certificate method {method!r}")


@dataclass(frozen=True)
class CutRound:
    round: int
    certificate: BoundCertificate
    cuts: int                      # cuts active in the relaxation this round
    iterations: int
    status: str
    seconds: float                 # CPU time of this round's solve and certificate

    @property
    def bound(self) -> float:
        return self.certificate.value


def cutting_loop(
    g: GraphInstance,
    spec: PartitionSpec,
    relaxation: str = "dnn+met",
    params: AdmmParams | None = None,
    max_rounds: int = 10,
    m_met: int | None = None,
    method: str = "auto",
    callback=None,
) -> list[CutRound]:
    """Solve a relaxation and certify a safe bound, round by round.

    ``"sdp"`` and ``"dnn"`` run one round. ``"dnn+met"`` starts from the plain
    DNN; each later round appends at most ``m_met`` (default 2n) most violated
    triangle inequalities not yet present and re-solves warm-started. It stops
    after ``max_rounds`` rounds or as soon as separation comes back empty. Every
    round is certified by ``certify_bound(..., method)``, and ``callback`` goes
    to every ``solve``.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    m_met = m_met if m_met is not None else 2 * g.n
    if m_met < 1:
        raise ValueError(f"m_met must be at least 1, got {m_met}")
    if relaxation != "dnn+met":
        max_rounds = 1
    problem = build(g, spec, "dnn" if relaxation == "dnn+met" else relaxation)

    rounds: list[CutRound] = []
    start = None
    for rnd in range(max_rounds):
        t0 = time.process_time()
        result = solve(problem, params, start=start, callback=callback)
        cert = certify_bound(problem, result, method)
        rounds.append(CutRound(rnd, cert, len(problem.met_cuts), result.iterations,
                               result.status, time.process_time() - t0))
        if rnd == max_rounds - 1:
            break
        # a loosely solved round can still violate its own cuts; skip those
        present = {c.triple for c in problem.met_cuts}
        cuts = [c for c in separate_met(result.state.X, m_met + len(present))
                if c.triple not in present][:m_met]
        if not cuts:
            break
        problem = add_cuts(problem, cuts)
        start = pad_state(result.state, problem)
    return rounds
