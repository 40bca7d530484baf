"""Three-block alternating-direction solver for the conic partition relaxations.

The solver works on the dual: maximize b'y + F1(S) + F2(v) subject to
A*(y) + B*(ybar) + S + Z = C, ybar = v, Z PSD, where F1/F2 are the support
functions of the box and slack intervals. Each sweep updates the multiplier
pair (y, ybar) through one cached Cholesky solve, the box-dual S and the
interval-dual v by closed-form interval projections, Z and the primal X from a
single eigendecomposition, and the primal slack s; the complementarity
<X, Z> = 0 holds by construction in every iteration.

The matrix multiplier moves by a step of ``PRIMAL_STEP`` = 1.6: the sweep keeps
Xt <- (1 - 1.6) Xt + 1.6 X beside X and forms the next sweep's X / sigma from Xt.
Wen, Goldfarb & Yin (Math. Prog. Comp. 2, 2010) prove convergence for any step in
(0, (1 + sqrt(5)) / 2). Every other reader of the primal matrix (residuals, the
stepsize rules, the callback, the returned state, warm starts, certificates and
rounding) sees the projection X, which stays PSD and complementary to Z. Keq
DNNs at n = 200 and 300 converge in 80-90 sweeps instead of 110-120; knapsack
DNNs save less (BENCH_relaxed_step.json). Stepping the slack s too saved 0.2% of
the sweeps, and stepping X in place would leave it neither PSD nor
complementary to Z.

Apart from that eigendecomposition, a sweep is kept to a few passes over n x n
arrays. It forms Xt / sigma once for both the multiplier right-hand side and
the matrix that is split, and it forms the adjoint A*(y) + B*(ybar) once. The
triangular solves read the cached factor in place. The PSD/NSD product is formed
from the smaller side of the spectrum (see :func:`gpbound.symm.psd_split`). Box
clips use scalar bounds when the box is uniform, as every builder's box is except
a knapsack DNN with conflict pairs.

The five residuals cost about as much as the multiplier solve, and neither
stepsize rule needs them after every sweep, so :func:`solve` evaluates them only
on every ``CHECK_EVERY``-th sweep (and the last); a non-finite iterate in between
is caught by the sweep itself before its eigendecomposition.

The stepsize sigma follows the norm-ratio rule (``adaptive``: ||X|| / ||Z|| after
every sweep) or the residual-balancing rule (``classic``: a factor of
``CLASSIC_SCALE`` on check sweeps). ``auto`` runs the first without inequality rows
and the second with them. With inequality rows and a finite box lower bound (a
knapsack DNN, a DNN+MET round) it opens with ``OPENING_SWEEPS`` norm-ratio sweeps:
such a solve settles near sigma 0.01, which the classic rule alone reaches from
``sigma0`` = 1 only after hundreds of sweeps.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .model import SdpProblem
from .symm import psd_split

SIGMA_LO = 1e-6
SIGMA_HI = 1e6
# ``solve`` runs its stopping test on every CHECK_EVERY-th sweep and the last one. On
# the same sweeps the residual-balancing ("classic") rule divides sigma by
# CLASSIC_SCALE when the primal residual exceeds CLASSIC_RATIO times the dual one, and
# multiplies it when the dual residual exceeds CLASSIC_RATIO times the primal one
CHECK_EVERY = 10
CLASSIC_RATIO = 5.0
CLASSIC_SCALE = 1.1
# step of the matrix multiplier: Xt <- (1 - PRIMAL_STEP) Xt + PRIMAL_STEP sigma P_psd(N);
# the ADMM converges for any step in (0, (1 + sqrt(5)) / 2) (module docstring)
PRIMAL_STEP = 1.6
# sweeps of the norm-ratio opening that "auto" runs before the classic rule (module docstring)
OPENING_SWEEPS = 100


class SolverDivergedError(RuntimeError):
    """A non-finite iterate appeared; carries the offending iteration."""

    def __init__(self, iteration: int, detail: str):
        self.iteration = iteration
        super().__init__(f"non-finite iterate at iteration {iteration}: {detail}")


class DependentRowsError(ValueError):
    """The stacked constraint rows are linearly dependent."""

    def __init__(self, rows):
        self.rows = tuple(int(r) for r in rows)
        super().__init__(f"constraint rows {self.rows} are linearly dependent")


@dataclass
class AdmmState:
    """An iterate. ``X`` is the projection sigma P_psd(N) of the last sweep, which every
    reader of the primal matrix sees; ``Xt`` is the stepped multiplier the next sweep
    starts from, and it is ``X`` itself unless given. Sweeps rebind both and write into
    neither, so they may share one array."""

    X: np.ndarray
    s: np.ndarray
    y: np.ndarray
    ybar: np.ndarray
    Z: np.ndarray
    S: np.ndarray
    v: np.ndarray
    sigma: float
    iter: int = 0
    Xt: np.ndarray | None = None

    def __post_init__(self):
        if self.Xt is None:
            self.Xt = self.X

    @classmethod
    def zeros(cls, problem: SdpProblem, sigma: float) -> "AdmmState":
        n, m, q = problem.n, problem.m, problem.q
        return cls(
            X=np.zeros((n, n)), s=np.zeros(q), y=np.zeros(m), ybar=np.zeros(q),
            Z=np.zeros((n, n)), S=np.zeros((n, n)), v=np.zeros(q), sigma=sigma,
        )

    def copy(self) -> "AdmmState":
        return AdmmState(
            X=self.X.copy(), s=self.s.copy(), y=self.y.copy(), ybar=self.ybar.copy(),
            Z=self.Z.copy(), S=self.S.copy(), v=self.v.copy(),
            sigma=self.sigma, iter=self.iter, Xt=self.Xt.copy(),
        )


@dataclass(frozen=True)
class ResidualRecord:
    eps_dc: float
    eps_pc: float
    eps_pb: float
    eps_opt_m: float
    eps_opt_v: float

    @property
    def max_residual(self) -> float:
        return max(self.eps_dc, self.eps_pc, self.eps_pb, self.eps_opt_m, self.eps_opt_v)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.eps_dc, self.eps_pc, self.eps_pb, self.eps_opt_m, self.eps_opt_v)


@dataclass(frozen=True)
class NormalFactor:
    """Lower-triangular Cholesky factor of [[AA*, AB*], [BA*, BB* + I]]."""

    R: np.ndarray
    m: int
    q: int

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # R' is the upper factor and, as the transpose of a C-ordered R, already in
        # Fortran order, so LAPACK reads the factor in place; cho_solve((R, True), .)
        # would copy and scan all of it. A non-finite rhs gives a non-finite solution,
        # which the sweep catches before its eigendecomposition.
        return scipy.linalg.cho_solve((self.R.T, False), rhs, check_finite=False)


def factor_normal_matrix(problem: SdpProblem) -> NormalFactor:
    """Factor the constraint Gram matrix once; reused by every multiplier update."""
    G = problem.stacked_rows()
    Q = (G @ G.T).toarray()
    m = problem.m
    if problem.q:
        idx = np.arange(m, m + problem.q)
        Q[idx, idx] += 1.0
    try:
        R = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise _diagnose_dependent_rows(Q) from None
    return NormalFactor(R=R, m=m, q=problem.q)


def _diagnose_dependent_rows(Q: np.ndarray) -> DependentRowsError:
    """Name the rows that the pivoted Cholesky factorization of the Gram ``Q`` leaves
    out: each is, to working accuracy, a combination of the rows pivoted before it."""
    _, piv, rank, _ = scipy.linalg.lapack.dpstrf(Q, lower=1)
    return DependentRowsError(sorted(piv[rank:] - 1))


def update_y(state: AdmmState, factor: NormalFactor, problem: SdpProblem,
             x_sigma: np.ndarray | None = None):
    """Multiplier update: solve the cached normal system at the current iterate.

    Expects the state as left by the previous sweep (S, Z, Xt, v, s current);
    ``x_sigma`` is Xt / sigma when the caller has it already.
    """
    sigma = state.sigma
    W0 = state.S + state.Z
    W0 -= problem.C
    W0 += state.Xt / sigma if x_sigma is None else x_sigma
    rhs_top = problem.b / sigma - problem.eq_apply(W0)
    rhs_bot = -problem.ineq_apply(W0) + state.v + state.s / sigma
    yy = factor.solve(np.concatenate([rhs_top, rhs_bot]))
    return yy[: factor.m], yy[factor.m :]


def sweep(state: AdmmState, factor: NormalFactor, problem: SdpProblem) -> None:
    """One three-block sweep, in place: (y, ybar), then S, then Z, v, X, Xt and s.

    S is the box-dual interval projection, Z and X come from one eigenvalue
    split of N = A*(y) + B*(ybar) + S + Xt/sigma - C (X = sigma * P_psd(N),
    Z = -P_nsd(N)), the stepped multiplier is Xt <- (1 - PRIMAL_STEP) Xt +
    PRIMAL_STEP X, and the slack s and its dual v come from clipping
    t = s - sigma * ybar to the slack interval. X stays PSD with <X, Z> = 0; only
    the next sweep reads Xt. Raises :class:`SolverDivergedError` before the
    eigendecomposition if N is not finite, and if the eigendecomposition fails.
    """
    sigma = state.sigma
    x_sigma = state.Xt / sigma
    state.y, state.ybar = update_y(state, factor, problem, x_sigma)
    adj = problem.adjoint(state.y, state.ybar)
    # M = A*(y) + B*(ybar) + Z + Xt/sigma - C, summed into Xt/sigma's buffer; addition
    # commutes exactly, so the bits are those of the left-to-right sum
    M = x_sigma
    M += adj + state.Z
    M -= problem.C
    S = problem.clip_box(sigma * M)
    S /= sigma
    S -= M
    state.S = S
    N = M
    N -= state.Z
    N += S
    if not np.isfinite(N).all():
        raise SolverDivergedError(state.iter + 1, f"sigma={sigma:.3e}")
    try:
        pos, neg = psd_split(N)
    except np.linalg.LinAlgError:   # finite N whose symmetrization overflows
        raise SolverDivergedError(state.iter + 1, f"eigh failed, sigma={sigma:.3e}") from None
    state.Z = np.negative(neg, out=neg)
    pos *= sigma
    state.X = pos
    # Xt + PRIMAL_STEP (X - Xt), formed in N's buffer, which the split left unused
    np.subtract(pos, state.Xt, out=N)
    N *= PRIMAL_STEP
    N += state.Xt
    state.Xt = N
    t = state.s - sigma * state.ybar
    state.s = problem.clip_slack(t)
    state.v = (state.s - t) / sigma


def residuals(state: AdmmState, problem: SdpProblem) -> ResidualRecord:
    """The five normalized infeasibility / optimality measures of the iterate."""
    C, b = problem.C, problem.b
    Rd = problem.adjoint(state.y, state.ybar)
    Rd += state.Z
    Rd += state.S
    Rd -= C
    eps_dc = np.linalg.norm(Rd) / (1.0 + np.linalg.norm(C))
    eps_dc += np.linalg.norm(state.v - state.ybar) / (1.0 + np.linalg.norm(state.y))
    eps_pc = np.linalg.norm(problem.eq_apply(state.X) - b) / (1.0 + np.linalg.norm(b))
    eps_pc += np.linalg.norm(problem.ineq_apply(state.X) - state.s) / (
        1.0 + np.linalg.norm(state.s)
    )
    nX = np.linalg.norm(state.X)
    gap = problem.clip_box(state.X)
    eps_pb = np.linalg.norm(np.subtract(state.X, gap, out=gap)) / (1.0 + nX)
    gap = problem.clip_box(np.subtract(state.X, state.S, out=gap), out=gap)
    eps_opt_m = np.linalg.norm(np.subtract(state.X, gap, out=gap)) / (
        1.0 + nX + np.linalg.norm(state.S)
    )
    eps_opt_v = np.linalg.norm(state.s - problem.clip_slack(state.s - state.v)) / (
        1.0 + np.linalg.norm(state.v) + np.linalg.norm(state.s)
    )
    return ResidualRecord(float(eps_dc), float(eps_pc), float(eps_pb),
                          float(eps_opt_m), float(eps_opt_v))


def norm_ratio(state: AdmmState) -> float | None:
    """||X|| / ||Z|| kept within [SIGMA_LO, SIGMA_HI]; None when either norm is 0."""
    nX = np.linalg.norm(state.X)
    nZ = np.linalg.norm(state.Z)
    if nX == 0.0 or nZ == 0.0:
        return None
    return float(min(max(nX / nZ, SIGMA_LO), SIGMA_HI))


def adapt_sigma(state: AdmmState, rule: str, rec: ResidualRecord | None = None) -> float:
    """Next stepsize under the norm-ratio rule or the residual-balancing rule,
    kept within [SIGMA_LO, SIGMA_HI]."""
    if rule == "adaptive":
        ratio = norm_ratio(state)
        if ratio is not None:
            return ratio
        return SIGMA_HI if np.linalg.norm(state.Z) == 0.0 else SIGMA_LO
    if rule == "classic":
        if rec is None:
            raise ValueError("the residual-balancing rule needs a residual record")
        # Primal-dominant residuals call for a smaller stepsize in this dual sweep:
        # large sigma enforces dual feasibility and freezes the primal multiplier.
        sigma = state.sigma
        pd = rec.eps_pc / rec.eps_dc if rec.eps_dc > 0 else np.inf
        if pd > CLASSIC_RATIO:
            sigma /= CLASSIC_SCALE
        elif pd < 1.0 / CLASSIC_RATIO:
            sigma *= CLASSIC_SCALE
        return float(min(max(sigma, SIGMA_LO), SIGMA_HI))
    raise ValueError(f"unknown stepsize rule {rule!r}")


def box_support_value(M: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """inf{<M, W> : lo <= W <= hi}; -inf when a nonzero entry pairs an infinite bound."""
    pos = M > 0
    neg = M < 0
    if np.any(pos & np.isinf(lo)) or np.any(neg & np.isinf(hi)):
        return -np.inf
    total = 0.0
    if pos.any():
        total += float((M[pos] * lo[pos]).sum())
    if neg.any():
        total += float((M[neg] * hi[neg]).sum())
    return total


def clamp_unbounded(M: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Zero the entries whose support pairing is infinite; returns (clamped, magnitude)."""
    bad = ((M > 0) & np.isinf(lo)) | ((M < 0) & np.isinf(hi))
    if not bad.any():
        return M, 0.0
    out = M.copy()
    out[bad] = 0.0
    return out, float(np.linalg.norm(M[bad]))


def dual_objective(problem: SdpProblem, y, v, S):
    """b'y + F1(S) + F2(v) with the unbounded-paired entries of S and v zeroed.

    Returns (value, clamp magnitude).
    """
    S, m1 = clamp_unbounded(S, problem.box_lo, problem.box_hi)
    v, m2 = clamp_unbounded(v, problem.l, problem.u)
    val = float(problem.b @ y) + box_support_value(S, problem.box_lo, problem.box_hi)
    val += box_support_value(v, problem.l, problem.u)
    return val, m1 + m2


@dataclass
class AdmmParams:
    eps_tol: float = 1e-5
    max_iter: int = 20000
    sigma0: float = 1.0
    rule: str = "auto"             # auto | adaptive | classic

    def __post_init__(self):
        if self.rule not in ("auto", "adaptive", "classic"):
            raise ValueError(f"rule must be auto, adaptive or classic, got {self.rule!r}")
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError(f"sigma0 must be finite and positive, got {self.sigma0!r}")


@dataclass
class AdmmResult:
    state: AdmmState
    residuals: ResidualRecord
    status: str                    # "converged" | "iter_limit"
    primal_obj: float
    dual_obj: float
    iterations: int
    elapsed: float
    eps_tol: float


def pad_state(state: AdmmState, problem: SdpProblem) -> AdmmState:
    """Warm start for a problem extended with new inequality rows (zeros appended)."""
    q = problem.q
    if q < state.ybar.size:
        raise ValueError("target problem has fewer inequality rows than the state")
    grown = state.copy()
    pad = q - state.ybar.size
    if pad:
        grown.ybar = np.concatenate([grown.ybar, np.zeros(pad)])
        grown.v = np.concatenate([grown.v, np.zeros(pad)])
        grown.s = np.concatenate([grown.s, np.zeros(pad)])
    return grown


def _row_scales(problem: SdpProblem) -> tuple[np.ndarray, np.ndarray]:
    G = problem.stacked_rows()
    norms = np.sqrt(np.asarray(G.multiply(G).sum(axis=1)).ravel())
    return norms[: problem.m], norms[problem.m :]


def _equilibrated(problem: SdpProblem):
    """Row-scaled copy of the problem (unit-norm constraint rows) plus the scales.

    The feasible set is unchanged; multipliers and slacks of the scaled problem map
    back through the returned diagonal scales. Needed because raw vertex-weight
    magnitudes leave the slack block orders of magnitude off the matrix block.
    """
    d_eq, d_in = _row_scales(problem)
    scaled = replace(
        problem,
        A=sp.diags(1.0 / d_eq) @ problem.A, b=problem.b / d_eq,
        B=sp.diags(1.0 / d_in) @ problem.B, l=problem.l / d_in, u=problem.u / d_in,
    )
    return scaled, d_eq, d_in


def _check_start(start: AdmmState) -> None:
    if not (np.isfinite(start.sigma) and start.sigma > 0):
        raise ValueError(f"start state sigma must be finite and positive, got {start.sigma!r}")
    for name in ("X", "Xt", "s", "y", "ybar", "Z", "S", "v"):
        if not np.isfinite(getattr(start, name)).all():
            raise ValueError(f"start state {name} has non-finite entries")


def solve(
    problem: SdpProblem,
    params: AdmmParams | None = None,
    start: AdmmState | None = None,
    callback=None,
) -> AdmmResult:
    """Run the sweep loop until the largest residual drops below the tolerance.

    The loop itself runs on a row-equilibrated copy of the constraints; the stopping
    test, the returned state, and the residual record all live in the caller's
    coordinates. The stopping test runs only on check sweeps: every ``CHECK_EVERY``-th
    sweep and the sweep at ``max_iter``. So the returned state always comes from a
    check sweep, and ``residuals`` describes it; ``max_iter=0`` returns the start
    state with its record. ``callback(iteration, state, record, primal, dual)`` fires
    after every sweep when provided, with a record formed for it; it does not change
    where the loop stops. Identical inputs produce an identical iterate stream.
    A start state with a non-finite entry raises ``ValueError``, and a sweep that
    produces one raises :class:`SolverDivergedError`.

    Under ``auto`` a warm start opens with the norm ratio too, although it discards the
    sigma carried in ``start``. On cutting_loop's DNN+MET rounds at n = 60 (keq, k = 3,
    densities 0.2/0.5/0.8, seeds 0/10/20/30) the warm rounds took 4880 sweeps with the
    opening and 5870 without it at a multiplier step of 1. At ``PRIMAL_STEP`` = 1.6 they
    take 4690 with it and 4320 without it, and keq n = 12 takes 920 against 620, so the
    opening no longer pays on warm starts (ROADMAP item 8).
    """
    prm = params or AdmmParams()
    t0 = time.perf_counter()
    work, d_eq, d_in = _equilibrated(problem)
    factor = factor_normal_matrix(work)
    rule, opening = prm.rule, 0
    if rule == "auto":
        rule = "classic" if problem.q else "adaptive"
        if problem.q and np.isfinite(problem.box_lo).any():
            opening = OPENING_SWEEPS

    if start is not None:
        _check_start(start)
        state = start.copy()
        state.iter = 0
        state.y = state.y * d_eq
        state.ybar = state.ybar * d_in
        state.v = state.v * d_in
        state.s = state.s / d_in
    else:
        state = AdmmState.zeros(work, prm.sigma0)

    def unscaled_view() -> AdmmState:
        return AdmmState(
            X=state.X, s=state.s * d_in, y=state.y / d_eq, ybar=state.ybar / d_in,
            Z=state.Z, S=state.S, v=state.v / d_in, sigma=state.sigma, iter=state.iter,
        )

    C = problem.C
    status = "iter_limit"
    rec = residuals(unscaled_view(), problem)

    for k in range(1, prm.max_iter + 1):
        sweep(state, factor, work)
        state.iter = k
        check = k % CHECK_EVERY == 0 or k == prm.max_iter
        if check or callback is not None:
            view = unscaled_view()
            rec = residuals(view, problem)
        # every part of the state enters the numerator of some residual
        if check and not np.isfinite(rec.as_tuple()).all():
            raise SolverDivergedError(k, f"sigma={state.sigma:.3e}")
        if callback is not None:
            primal = float((C * view.X).sum())
            dual, _ = dual_objective(problem, view.y, view.v, view.S)
            callback(k, view, rec, primal, dual)
        if check and rec.max_residual <= prm.eps_tol:
            status = "converged"
            break

        if k <= opening:
            ratio = norm_ratio(state)
            if ratio is None:
                opening = 0   # the opening ends here, with sigma as it is
            else:
                state.sigma = ratio
        elif rule == "adaptive":
            state.sigma = adapt_sigma(state, "adaptive")
        elif k % CHECK_EVERY == 0:
            state.sigma = adapt_sigma(state, "classic", rec)

    final = unscaled_view()
    primal = float((C * final.X).sum())
    dual, _ = dual_objective(problem, final.y, final.v, final.S)
    return AdmmResult(
        state=final, residuals=rec, status=status,
        primal_obj=primal, dual_obj=dual,
        iterations=final.iter, elapsed=time.perf_counter() - t0,
        eps_tol=prm.eps_tol,
    )
