"""Safe lower bounds from approximate solver output.

Two post-processing routes turn a near-optimal iterate into a bound that is
valid no matter how early the solver stopped:

* eigenvalue route: evaluate the dual objective at sign-feasible multipliers and
  pay for the dual-equality violation through the negative spectrum of the
  rebuilt slack matrix, scaled by a provable upper bound ``xbar`` on the largest
  eigenvalue of any feasible primal matrix;
* LP route: freeze the PSD part and re-optimize the remaining multipliers
  exactly with the bundled dense simplex.

Equipartition problems and the knapsack SDP default to the eigenvalue route
(xbar = group size m for the DNN, n - m for the SDP, n for the knapsack SDP,
whose free box makes the frozen-Z LP unbounded), the knapsack DNN to the LP
route (xbar = min(n, W / min(a))). Eigenvalues are charged less the margin
n * eps * ||Zc||_F, so the bound holds in floating point (Jansson, Chaykin &
Keil, SIAM J. Numer. Anal. 2007). ``cutting_loop`` is the
one solve-then-certify loop: one round for the SDP and the DNN, rounds of
violated triangle cuts for DNN+MET.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .admm import (AdmmParams, AdmmResult, AdmmState, box_support_value, clamp_unbounded,
                   pad_state, solve)
from .graphs import GraphInstance, PartitionSpec
from .model import SdpProblem, add_cuts, build, separate_met
from .simplex import LpResult, solve_dense_lp  # re-exported: the LP oracle lives here
from .symm import psd_project, tri_indices, tri_weights

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


def eig_lower_bound(p: SdpProblem, approx: AdmmState, xbar: float) -> BoundCertificate:
    """Spectral-perturbation bound from approximate multipliers.

    The multipliers are sign-clamped wherever their support pairing would hit an
    infinite bound, the PSD-deficient matrix is rebuilt as C - A*(y) - B*(v) - S
    from the clamped multipliers, and its negative eigenvalues enter the bound
    scaled by ``xbar``. Rebuilding (rather than trusting the solver's projected
    PSD matrix) is what keeps the bound safe at loose stopping tolerances. Each
    computed eigenvalue is lowered by ``n * eps * ||Zc||_F`` before the charge,
    since the true eigenvalue lies no further below it than that.
    """
    if xbar <= 0:
        raise ValueError("xbar must be positive")
    y = approx.y
    S_c, mag = clamp_unbounded(approx.S, p.box_lo, p.box_hi)
    v_c, mag_v = clamp_unbounded(approx.v, p.l, p.u)
    mag += mag_v
    if mag:
        log.debug("eig bound clamped multiplier mass %.3e", mag)
    d0 = float(p.b @ y) + box_support_value(S_c, p.box_lo, p.box_hi)
    d0 += box_support_value(v_c, p.l, p.u)
    Zc = p.C - p.adjoint(y, v_c) - S_c
    margin = p.n * np.finfo(float).eps * np.linalg.norm(Zc)
    evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T)) - margin
    neg_sum = float(evals[evals < 0].sum())
    perturbation = xbar * neg_sum if neg_sum < 0 else 0.0
    return BoundCertificate(value=d0 + perturbation, method="eig",
                            perturbation=perturbation, xbar=xbar, clamp=mag)


def _standard_form_box_lp(p: SdpProblem, Cz: np.ndarray):
    """Standard-form data for min <Cz, X> over the linear part of the feasible set.

    Variables are the upper-triangle entries of X (inner products doubled off the
    diagonal) plus one slack per inequality row; box and interval bounds become
    shifts, reflections, sign splits, or extra bound rows as needed.
    """
    n, m, q = p.n, p.m, p.q
    rows_, cols_ = tri_indices(n)
    nut = rows_.size
    w2 = tri_weights(n)

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


def lp_lower_bound(
    p: SdpProblem,
    Z_tilde: np.ndarray,
    project: bool = True,
) -> BoundCertificate:
    """Dual-adjustment bound: freeze the PSD block and re-optimize the rest exactly.

    With Z frozen at the (projected) input, the best achievable dual objective is
    a linear program; its optimum is a valid bound whenever finite. The program
    solved here is the box-constrained image of that LP (same optimum by duality,
    far fewer rows); an unbounded image certifies the adjustment is infeasible and
    -inf is returned, matching the declared failure mode.
    """
    Z = psd_project(Z_tilde) if project else Z_tilde
    c, A, rhs, const = _standard_form_box_lp(p, p.C - Z)
    res = solve_dense_lp(c, A, rhs)
    if res.status == "optimal":
        return BoundCertificate(value=res.objective + const, method="lp", feasible=True)
    if res.status not in ("unbounded", "infeasible"):
        log.warning("lp bound gave up with status %s; reporting -inf", res.status)
    return BoundCertificate(value=-np.inf, method="lp", feasible=False)


def certify_bound(p: SdpProblem, result: AdmmResult, method: str = "auto") -> BoundCertificate:
    """Route a solver result to the default certificate for its problem family."""
    eig_default = p.tag.problem == "keq" or (p.tag.problem, p.tag.relaxation) == ("gpkc", "sdp")
    if method == "auto":
        method = "eig" if eig_default else "lp"
    if method == "eig" and not eig_default:
        accurate = result.status == "converged" and result.eps_tol <= GPKC_EIG_ACCURACY
        if not accurate:
            log.warning(
                "eigenvalue bound for a knapsack DNN needs an accurate solve; "
                "falling back to the LP bound"
            )
            method = "lp"
    if method == "eig":
        return eig_lower_bound(p, result.state, xbar_for(p))
    if method == "lp":
        return lp_lower_bound(p, result.state.Z, project=False)
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
    triangle inequalities and re-solves warm-started. It stops after
    ``max_rounds`` rounds or as soon as separation comes back empty. Every round
    is certified by ``certify_bound(..., method)``, and ``callback`` goes to
    every ``solve``.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    if relaxation != "dnn+met":
        max_rounds = 1
    m_met = m_met if m_met is not None else 2 * g.n
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
        cuts = separate_met(result.state.X, m_met)
        if not cuts:
            break
        problem = add_cuts(problem, cuts)
        start = pad_state(result.state, problem)
    return rounds
