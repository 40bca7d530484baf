"""Safe lower bounds from approximate solver output.

Two post-processing routes turn a near-optimal iterate into a bound, and
``certify_bound`` takes exactly the one it is asked for:

* ``"eig"``, the default (:mod:`gpbound.eigbound`): evaluate the dual objective at
  sign-feasible multipliers and pay for the dual-equality violation through the
  negative spectrum of the rebuilt slack matrix, with margins for every rounding
  (xbar = group size m for the equipartition DNN, n - m for its SDP,
  min(n, W / min(a)) for the knapsack DNN and n for the knapsack SDP). It is valid
  in floating point no matter how early the solver stopped, and
  :func:`gpbound.admm.solve` already returns its best one. With integral edge
  weights every cut is an integer, so this route reports its bound rounded up;
* ``"lp"``: freeze the solver's PSD dual block Z as it is and re-optimize the
  remaining multipliers with the bundled dense simplex. Its value is the
  simplex's primal objective, with no rounding margin, so it is not a
  floating-point-safe bound.

``cutting_loop`` is the one solve-then-certify loop: one round for the SDP and
the DNN, rounds of violated triangle cuts for DNN+MET.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .admm import AdmmParams, AdmmResult, pad_state, solve
from .eigbound import BoundCertificate, eig_lower_bound, xbar_for
from .graphs import GraphInstance, PartitionSpec
from .model import SdpProblem, add_cuts, build, separate_met
from .simplex import solve_dense_lp

log = logging.getLogger(__name__)

__all__ = [
    "BoundCertificate",
    "xbar_for",
    "eig_lower_bound",
    "lp_lower_bound",
    "certify_bound",
    "CutRound",
    "cutting_loop",
]


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


def certify_bound(p: SdpProblem, result: AdmmResult, method: str = "eig") -> BoundCertificate:
    """Certify ``result``, which must come from ``solve(p, ...)``, by ``method``.

    ``"eig"`` reports the solver's own certificate, ``result.certificate``: the best
    eigenvalue bound of the solve, charged with trace n (every builder emits the
    rows diag(X) = e) and ``xbar_for(p)``. Only a result that carries none is
    certified here, on its state. When the problem's tag says its edge weights are
    integral, the optimum is an integer, so the certificate reports the bound
    rounded up and keeps the unrounded one in ``raw``. ``"lp"`` takes the LP route;
    its value carries no rounding margin, so it is not rounded up.
    """
    if method == "eig":
        cert = result.certificate
        if cert is None:
            cert = eig_lower_bound(p, result.state, xbar_for(p), trace=p.n)
        if p.tag.integral and math.isfinite(cert.value):
            cert = replace(cert, value=float(math.ceil(cert.value)))
        return cert
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
    method: str = "eig",
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
