"""Safe lower bounds from approximate solver output.

``certify_bound`` turns a solve into a bound by one of two routes:

* ``"eig"``, the default and the bound that ``cutting_loop`` and the command line
  report: the eigenvalue bound of :mod:`gpbound.eigbound`, valid in floating point
  no matter how early the solver stopped, whose best one :func:`gpbound.admm.solve`
  already returns. Its ``value`` bounds the minimum over the partition matrices the
  rows admit, rounded up when C makes every such <C, X> an integer, as integral edge
  weights do, and its ``raw`` bounds the relaxation;
* ``"lp"``, a cross-check for the benchmark gate and the tests: freeze the
  solver's PSD dual block Z as it is and re-optimize the remaining multipliers
  with the bundled dense simplex. Its value is the simplex's primal objective,
  with no rounding margin, so it is not a floating-point-safe bound.

``cutting_loop`` is the one solve-then-certify loop: one round for the SDP and
the DNN, rounds of violated triangle cuts for DNN+MET. A DNN+MET round that is not
the last only feeds separation and the next warm start, so it is solved to
``ROUND_SLACK`` * eps_tol, as SDP cutting-plane codes separate from relaxations not
solved to full accuracy (BiqMac: Rendl, Rinaldi & Wiegele, Math. Prog. 121, 2010);
the last round is solved to eps_tol (:func:`cutting_loop`). Cuts separated at looser
points differ, so final bounds move both ways against loops with every round at
eps_tol (BENCH_inexact_rounds.json).
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .admm import AdmmParams, AdmmResult, solve
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

# every DNN+MET round but the last is solved to ROUND_SLACK * eps_tol (module docstring);
# chosen from 10, 30 and 100 on the cli-met loops (BENCH_inexact_rounds.json)
ROUND_SLACK = 30


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

    ``"eig"`` reports the solver's own certificate, ``result.certificate``, the best
    eigenvalue bound of the solve: its ``value`` bounds the minimum over the partition
    matrices the rows admit and its ``raw`` the relaxation. ``"lp"`` takes the LP
    route; its value carries no rounding margin, so it is not rounded up.
    """
    if method == "eig":
        return result.certificate
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
    single_sweeps: int             # the solve's sweeps split in single precision
    certify_s: float               # wall seconds of the solve's eigenvalue certificates
    accelerated_sweeps: int        # the solve's sweeps run on an Anderson extrapolation
    eps_tol: float                 # the tolerance this round's solve ran at

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
    callback=None,
) -> list[CutRound]:
    """Solve a relaxation and certify a safe bound, round by round.

    ``"sdp"`` and ``"dnn"`` run one round. ``"dnn+met"`` starts from the plain
    DNN; each later round appends at most ``m_met`` (default 2n) most violated
    triangle inequalities not yet present and re-solves warm-started. It stops
    after ``max_rounds`` rounds or once separation comes back empty. Every
    round reports its solve's certificate, ``result.certificate``.

    The last round is solved at ``params.eps_tol``, and every round before it at
    ``ROUND_SLACK`` times that, or at eps_tol itself when that product is not
    finite; ``CutRound.eps_tol`` says which. When separation after a loose round
    comes back empty, the next round, the last, solves the same problem at eps_tol
    and reports the same cut count; with every round at eps_tol the loop just ends.
    So ``"sdp"``, ``"dnn"`` and ``max_rounds=1`` run ``solve(problem, params)`` as
    it is, and the last round always comes from an eps_tol solve. Every round is one
    ``solve``, within ``params.max_iter`` sweeps, and its CPU ``seconds`` cover that
    solve and its certificate. Every round after the first is warm-started from the
    state the round before returned, as it is (``solve`` pads the rows of the new
    cuts), so it stops by the bound test only with its residual within
    ``WARM_WITHIN`` * its eps_tol (:func:`gpbound.admm.solve`).
    ``callback`` goes to every ``solve``, so each round numbers its sweeps from 1.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    m_met = m_met if m_met is not None else 2 * g.n
    if m_met < 1:
        raise ValueError(f"m_met must be at least 1, got {m_met}")
    if relaxation != "dnn+met":
        max_rounds = 1
    problem = build(g, spec, "dnn" if relaxation == "dnn+met" else relaxation)
    prm = params or AdmmParams()
    loose = ROUND_SLACK * prm.eps_tol
    inexact = replace(prm, eps_tol=loose) if math.isfinite(loose) else prm

    rounds: list[CutRound] = []
    start = None
    final = False
    for rnd in range(max_rounds):
        final = final or rnd == max_rounds - 1
        round_prm = prm if final else inexact
        t0 = time.process_time()
        result = solve(problem, round_prm, start=start, callback=callback)
        rounds.append(CutRound(rnd, result.certificate, len(problem.met_cuts),
                               result.iterations, result.status, time.process_time() - t0,
                               result.single_sweeps, result.certify_s,
                               result.accelerated_sweeps, round_prm.eps_tol))
        if final:
            break
        # a loosely solved round can still violate its own cuts; skip those
        present = {c.triple for c in problem.met_cuts}
        cuts = [c for c in separate_met(result.state.X, m_met + len(present))
                if c.triple not in present][:m_met]
        if cuts:
            problem = add_cuts(problem, cuts)
        elif inexact is prm:
            break   # every round already ran at eps_tol
        else:
            final = True   # nothing left to cut: the same problem once more, at eps_tol
        start = result.state
    return rounds
