"""Three-block alternating-direction solver for the conic partition relaxations.

The solver works on the dual: maximize b'y + F1(S) + F2(v) subject to
A*(y) + B*(ybar) + S + Z = C, ybar = v, Z PSD, where F1/F2 are the support
functions of the box and slack intervals. Each sweep updates the multiplier
pair (y, ybar) through one solve with a cached factor of the normal matrix (a dense
Cholesky factor, or a sparse LU when the problem has triangle cuts; see
:class:`NormalFactor`), the box-dual S and the interval-dual v by closed-form
interval projections, Z and the primal X from a single eigendecomposition, and the
primal slack s; the complementarity <X, Z> = 0 holds by construction in every
iteration.

The matrix multiplier moves by a step of ``PRIMAL_STEP`` = 1.6: the sweep keeps
Xt <- (1 - 1.6) Xt + 1.6 X beside X and forms the next sweep's X / sigma from Xt.
Wen, Goldfarb & Yin (Math. Prog. Comp. 2, 2010) prove convergence for any step in
(0, (1 + sqrt(5)) / 2). Every other reader of the primal matrix (residuals, the
stepsize rule, the callback, the returned state, warm starts, certificates and
rounding) sees the projection X, which stays PSD and complementary to Z. Keq
DNNs at n = 200 and 300 converge in 80-90 sweeps instead of 110-120; knapsack
DNNs save less (BENCH_relaxed_step.json). Stepping the slack s too saved 0.2% of
the sweeps, and stepping X in place would leave it neither PSD nor
complementary to Z.

That eigendecomposition is most of a sweep (about 0.21 of 0.27 s at keq n = 1000),
so :func:`solve` runs it in single precision on the sweeps that need no exact
split (see :func:`gpbound.symm.precision_split`): every sweep that is not a check
sweep, until a residual record (the start's or a check sweep's) has its largest
residual within ``DOUBLE_WITHIN`` * eps_tol. From then on every sweep runs in double, and check
sweeps and the sweep at ``max_iter`` always do. So every state that is certified,
residual-tested, returned, warm-started from or rounded comes from a
double-precision split. A single-precision sweep keeps X / sigma - Z = N and
<X, Z> = 0 to double rounding, as a double one does, but whichever of X and Z is the
difference side of the split is semidefinite only to float32 accuracy. The split
runs 18-35% faster on bench sweep matrices at n = 80-300, keq-eig solves keep their
sweeps and bounds (BENCH_single_sweeps.json), and ``AdmmResult.single_sweeps``
counts the sweeps that ran it.

Apart from that eigendecomposition, a sweep is kept to a few passes over n x n
arrays. It forms Xt / sigma once for both the multiplier right-hand side and
the matrix that is split, and it forms the adjoint A*(y) + B*(ybar) once. The
dense factor's triangular solves read it in place. The PSD/NSD product is formed
from the smaller side of the spectrum (see :func:`gpbound.symm.precision_split`).
Box clips use scalar bounds when the box is uniform, as every builder's box is
except a knapsack DNN with conflict pairs.

The five residuals cost about as much as the multiplier solve, and the stepsize
rule does not need them after every sweep, so :func:`solve` evaluates them only
on every ``CHECK_EVERY``-th sweep (and the last); a non-finite iterate in between
is caught by the sweep itself before its eigendecomposition.

The eigenvalue bound of :mod:`gpbound.eigbound` is valid at every iterate, and the
product of a solve is that bound. So on the same check sweeps :func:`solve` also
certifies the iterate (about 8 ms at n = 300, against about 13 ms per sweep; their
sum is ``AdmmResult.certify_s``), keeps
the best certificate and its state by reference (sweeps rebind the state's arrays
and never write into them), and stops once the best bound meets the primal
objective within ``BOUND_STOP`` * eps_tol relative and has stopped rising by that
much. The residual test still runs first. Keq-eig bench solves end after 60
instead of 80-90 sweeps, with bounds lower by under 1e-4 relative
(BENCH_certified_stop.json). The best certificate is returned as
``AdmmResult.certificate``, and :func:`gpbound.certify.certify_bound` reports it.
A warm start may stop by the bound test only once a check sweep has certified
strictly above the start's own certificate, and only on a check sweep whose largest
residual is within ``WARM_WITHIN`` * eps_tol. Its X violates the rows just added and
lies near the start's bound, so without the first gate a cut round could meet the
test within a few check sweeps and return its start. Without the second, the primal
objective of an X that still violates its rows could meet the bound below the
relaxation's optimum, most of all in a round warm-started from a loosely solved one
(:func:`gpbound.certify.cutting_loop`). The gates have no limit of their own:
a warm start that never certifies above its start ends only by the residual test
or at ``max_iter``. On 236 warm DNN+MET rounds of small and n = 60 instances the
first check sweep above the start came at sweep 10 to 960, median 30. With every
certificate capped at the start's, a keq and a knapsack round ended by the residual
test after 110 and 260 sweeps.

For a fixed sigma a sweep is a fixed-point map of its input (Xt, Z, S, s, v), and
ADMM's linear tail makes its iterates crawl. So after every sweep that leaves sigma
unchanged, :func:`solve` replaces the next sweep's input by a type-II Anderson
extrapolation over the last ``ANDERSON_MEMORY`` + 1 sweep outputs (Walker & Ni,
SIAM J. Numer. Anal. 49, 2011): the combination, with weights summing to 1, whose
residuals g(u) - u have the least norm. The history restarts whenever sigma changes,
so nothing is extrapolated in the norm-ratio opening. It also restarts when the
residual norm grows or the least-squares system is singular or its solution not
finite, and a sweep whose extrapolated input made the residual grow is dropped: the
next sweep runs on the output before it (the safeguards of Zhang, O'Donoghue &
Boyd, SIAM J. Optim. 30, 2020). Only inputs are extrapolated: every check,
certificate, residual record, callback and returned state comes from a real sweep,
and the eigenvalue bound is valid at any multipliers, so the step changes how fast
the bound rises and not whether it is one.
``AdmmResult.accelerated_sweeps`` counts the sweeps run on an extrapolated input.
The history keeps the upper triangles of Xt, Z and S, so an extrapolated matrix is
symmetric bit for bit, and it is allocated at the first step: a solve that stops
inside its opening allocates none. On the cli-met grid (12 keq instances at n = 60;
sdp, dnn, and dnn+met with 3 rounds) the sweeps fell from 6760 to 5440, with every
reported bound equal or higher (BENCH_anderson.json).

One stepsize rule serves every problem; it never looks at the problem's
structure. A cold start begins at sigma 1 and sets sigma to the norm ratio
||X|| / ||Z|| after each of its first ``OPENING_SWEEPS`` sweeps; the opening ends
early, with sigma as it is, at a sweep where either norm is 0. After that, and
from sweep 1 of a warm start (which begins at the sigma it carries), residual
balancing moves sigma by ``CLASSIC_SCALE`` on check sweeps. Sigma stays within
[``SIGMA_LO``, ``SIGMA_HI``]. The opening brings a cold solve near its settling
sigma (about 0.01 on a knapsack DNN) in a few sweeps, which balancing alone
reaches from 1 only after hundreds; a warm start already carries such a sigma.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .eigbound import BoundCertificate, dual_objective, eig_lower_bound, xbar_for
from .model import SdpProblem
from .symm import precision_split

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
# norm-ratio sweeps that open every cold start before balancing (module docstring)
OPENING_SWEEPS = 100
# ``solve`` stops on a check sweep once the best certified bound lies within
# BOUND_STOP * eps_tol (relative) of the primal objective and rose by less than that
# since the previous check sweep (module docstring)
BOUND_STOP = 10
# ``solve`` runs the sweeps that are not check sweeps in single precision until a
# residual record, the start's or a check sweep's, has its largest residual within
# DOUBLE_WITHIN * eps_tol; every later sweep runs in double (module docstring)
DOUBLE_WITHIN = 10
# a warm start passes the bound test only once its largest residual is within
# WARM_WITHIN * eps_tol (module docstring)
WARM_WITHIN = 10
# the statuses of a solve that a stopping test ended; the other one is "iter_limit"
STOPPED = ("converged", "bound")
# while sigma holds still, a type-II Anderson step extrapolates the next sweep's input
# over the last ANDERSON_MEMORY + 1 sweep outputs; 0 runs every sweep on the previous
# sweep's output (module docstring). 3 is within 3% of the fewest sweeps measured up to
# 8, and 1 takes almost five times as many (BENCH_anderson.json, memory_choice)
ANDERSON_MEMORY = 3


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
    """Factor of the normal matrix [[AA*, AB*], [BA*, BB* + I]] of the stacked rows.

    A problem with triangle cuts (``met_cuts``) keeps a sparse LU in ``lu`` (scipy's
    SuperLU on a symmetric minimum-degree ordering with diagonal pivots) and ``R`` is
    None; every other problem keeps the dense lower-triangular Cholesky factor ``R``
    and ``lu`` is None. A cut row touches 3 pairs, so the Gram of the cut rows is
    almost empty while its dense form grows with the square of the cut count (at
    keq n = 300 with 3000 rows it is 1.1% nonzero; the dense Cholesky takes 0.48 s
    and one solve 5.74 ms, the sparse LU 0.027 s and 0.14 ms). Cut-free problems keep
    the dense factor: the sparse LU was barely faster on the keq-eig solves, whose
    Gram has a dense n x n block, and left the process holding more resident memory
    after each; that also keeps ``scipy.sparse.linalg`` out of ``import gpbound``.
    """

    R: np.ndarray | None
    m: int
    q: int
    lu: object = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.lu is not None:
            return self.lu.solve(rhs)
        # R' is the upper factor and, as the transpose of a C-ordered R, already in
        # Fortran order, so LAPACK reads the factor in place; cho_solve((R, True), .)
        # would copy and scan all of it. dpotrs is what cho_solve((R', False), .) calls,
        # without its argument handling. A non-finite rhs gives a non-finite solution,
        # which the sweep catches before its eigendecomposition.
        x, info = scipy.linalg.lapack.dpotrs(self.R.T, rhs, lower=0)
        if info:
            raise ValueError(f"dpotrs: illegal value in argument {-info}")
        return x


def factor_normal_matrix(problem: SdpProblem) -> NormalFactor:
    """Factor the constraint Gram matrix once; reused by every multiplier update.

    Which factor a problem gets is :class:`NormalFactor`'s choice. Dependent rows
    raise :class:`DependentRowsError` naming them, whichever factor fails."""
    G = problem.stacked_rows()
    m, q = problem.m, problem.q
    if problem.met_cuts:
        Q = (G @ G.T + sp.diags(np.repeat([0.0, 1.0], [m, q]))).tocsc()
        return NormalFactor(R=None, m=m, q=q, lu=_sparse_lu(Q))
    Q = (G @ G.T).toarray()
    if q:
        idx = np.arange(m, m + q)
        Q[idx, idx] += 1.0
    try:
        R = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise _diagnose_dependent_rows(Q) from None
    return NormalFactor(R=R, m=m, q=q)


def _sparse_lu(Q: sp.csc_matrix):
    """SuperLU of the positive definite ``Q`` with its pivots kept on the diagonal.

    A pivot that is zero, that had to leave the diagonal, or that is not positive
    means ``Q`` is not positive definite, as a failed Cholesky factorization does on
    the dense path; the Gram is made dense only then, for the diagnosis."""
    from scipy.sparse.linalg import splu   # imported here, off ``import gpbound``

    try:
        lu = splu(Q, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options=dict(SymmetricMode=True))
    except RuntimeError:   # SuperLU: "Factor is exactly singular"
        lu = None
    if lu is None or not (np.array_equal(lu.perm_r, lu.perm_c)
                          and (lu.U.diagonal() > 0).all()):
        raise _diagnose_dependent_rows(Q.toarray())
    return lu


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


def sweep(state: AdmmState, factor: NormalFactor, problem: SdpProblem,
          single: bool = False) -> bool:
    """One three-block sweep, in place: (y, ybar), then S, then Z, v, X, Xt and s.

    S is the box-dual interval projection, Z and X come from one eigenvalue
    split of N = A*(y) + B*(ybar) + S + Xt/sigma - C (X = sigma * P_psd(N),
    Z = -P_nsd(N)), the stepped multiplier is Xt <- (1 - PRIMAL_STEP) Xt +
    PRIMAL_STEP X, and the slack s and its dual v come from clipping
    t = s - sigma * ybar to the slack interval. X stays PSD with <X, Z> = 0; only
    the next sweep reads Xt. ``single`` runs the split in single precision (see
    :func:`gpbound.symm.precision_split`), which leaves one of X and Z semidefinite
    only to float32 accuracy; returns whether it did. N is symmetric bit for bit when
    Xt and Z are, since C, the adjoint and the box are, so the split takes it as it
    is. Raises :class:`SolverDivergedError` before the eigendecomposition if N is not
    finite, and if the eigendecomposition fails.
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
        pos, neg, single = precision_split(N, single)
    except np.linalg.LinAlgError:   # finite N whose spectrum overflows
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
    return single


class _Anderson:
    """Type-II Anderson extrapolation of a sweep's input (Xt, Z, S, s, v).

    For a fixed sigma the sweep is a fixed-point map u -> g(u). :meth:`step` takes the
    output g of the sweep just run and the residual f = g - u against the input it
    kept, and over the last pairs (at most ``memory`` + 1) picks weights alpha with
    sum 1 that minimize ||sum_i alpha_i f_i||; the next input is sum_i alpha_i g_i
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011, in its constrained form). The
    weights come from the Gram matrix of the residuals, reduced to differences against
    the newest one before it is solved. :meth:`reset` drops every pair. When the
    residual norm grows on an extrapolated input, that output is dropped and the next
    sweep runs on the output before it, with the history restarted from that output's
    pair (the safeguard of Zhang, O'Donoghue & Boyd, SIAM J. Optim. 30, 2020). When
    it grows on a plain input, or the reduced system is singular or its solution not
    finite, the history restarts from the newest pair, whose output then runs as it is.

    The pairs live in two rings of flat buffers allocated at the first step, each
    holding the upper triangles of Xt, Z and S, then s and v. An extrapolated matrix
    is gathered from one triangle into both, so it is symmetric bit for bit, as the
    sweep needs (it splits N as it is); its s and v are views of a buffer that a later
    step overwrites once the sweep has read it (sweeps never write into their input).
    """

    def __init__(self, n: int, q: int, memory: int):
        self.n, self.q, self.rows = n, q, memory + 1
        self.G = None
        self.reset()

    def reset(self) -> None:
        self.held = []       # ring rows of the pairs, oldest first
        self.input = None    # ring row of the next input, -1 for ``self.u``, None unknown

    def _allocate(self) -> None:
        n, q, rows = self.n, self.q, self.rows
        r, c = np.triu_indices(n)
        t = r.size
        self.upper = r * n + c   # flat positions of the upper triangle, row by row
        self.mirror = np.empty((n, n), dtype=np.intp)   # packed position of every entry
        self.mirror[r, c] = self.mirror[c, r] = np.arange(t)
        self.ends = (t, 2 * t, 3 * t, 3 * t + q)
        size = 3 * t + 2 * q
        # zeros: rows outside the history enter the products with weight 0
        self.G, self.F = np.zeros((rows, size)), np.zeros((rows, size))
        self.u = np.empty(size)
        self.H = np.zeros((rows, rows))
        self.last = -1       # ring row of the newest output

    def step(self, state: AdmmState) -> bool:
        """Record the sweep just run, and set the state's input blocks for the next
        sweep when they are extrapolated; returns whether they were."""
        if self.G is None:
            self._allocate()
        held, inp, G = self.held, self.input, self.G
        # the held rows run in ring order up to the newest output, and the input is that
        # output or self.u, so the row after the newest is free or the oldest pair's
        new = self.last = (self.last + 1) % self.rows
        if len(held) == self.rows:
            del held[0]
        g = G[new]
        t, t2, t3, t4 = self.ends
        upper = self.upper
        np.take(state.Xt, upper, out=g[:t], mode="clip")
        np.take(state.Z, upper, out=g[t:t2], mode="clip")
        np.take(state.S, upper, out=g[t2:t3], mode="clip")
        g[t3:t4] = state.s
        g[t4:] = state.v
        self.input = new   # unless extrapolated below
        if inp is None:
            return False
        F, H = self.F, self.H
        np.subtract(g, self.u if inp < 0 else G[inp], out=F[new])
        row = F @ F[new]
        H[new] = row
        H[:, new] = row
        hkk = row[new]
        if held and not hkk <= H[held[-1], held[-1]]:   # the residual grew
            if inp < 0:
                # an extrapolated input made it grow: drop this output, and the next
                # sweep runs on the output before it
                del held[:-1]
                self.input = self.last = held[0]
                self._feed(state, G[held[0]])
                return False
            held.clear()
        held.append(new)
        if len(held) < 2:
            return False
        # the residual differences f_i - f_new, i in old, and their Gram matrix
        old = np.array(held[:-1])
        hk = row[old]
        A = H[old[:, None], old] + hkk
        A -= np.add.outer(hk, hk)
        # A is symmetric, so its transpose is the Fortran-ordered array LAPACK takes
        _, gamma, info = scipy.linalg.lapack.dposv(A.T, hkk - hk, overwrite_a=1,
                                                   overwrite_b=1)
        total = sum(gamma.tolist())
        if info or not math.isfinite(total):   # singular, or a solution not finite
            del held[:-1]
            return False
        alpha = np.zeros(self.rows)
        alpha[old] = gamma
        alpha[new] = 1.0 - total
        self._feed(state, np.dot(alpha, G, out=self.u))
        self.input = -1
        return True

    def _feed(self, state: AdmmState, vec: np.ndarray) -> None:
        """Set the state's input blocks from a packed vector, as views of it (s, v) and
        as full matrices gathered from its triangles (Xt, Z, S)."""
        t, t2, t3, t4 = self.ends
        mirror = self.mirror
        state.Xt, state.Z, state.S = vec[:t][mirror], vec[t:t2][mirror], vec[t2:t3][mirror]
        state.s, state.v = vec[t3:t4], vec[t4:]


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


def classic_sigma(state: AdmmState, rec: ResidualRecord) -> float:
    """Residual balancing: sigma moved by ``CLASSIC_SCALE`` toward balanced primal and
    dual residuals, kept within [SIGMA_LO, SIGMA_HI]."""
    # Primal-dominant residuals call for a smaller stepsize in this dual sweep:
    # large sigma enforces dual feasibility and freezes the primal multiplier.
    sigma = state.sigma
    pd = rec.eps_pc / rec.eps_dc if rec.eps_dc > 0 else np.inf
    if pd > CLASSIC_RATIO:
        sigma /= CLASSIC_SCALE
    elif pd < 1.0 / CLASSIC_RATIO:
        sigma *= CLASSIC_SCALE
    return float(min(max(sigma, SIGMA_LO), SIGMA_HI))


@dataclass
class AdmmParams:
    eps_tol: float = 1e-5
    max_iter: int = 20000

    def __post_init__(self):
        if not (np.isfinite(self.eps_tol) and self.eps_tol > 0):
            raise ValueError(f"eps_tol must be finite and positive, got {self.eps_tol!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be at least 0, got {self.max_iter!r}")


@dataclass
class AdmmResult:
    state: AdmmState
    residuals: ResidualRecord
    status: str                    # "converged" | "bound" | "iter_limit"
    primal_obj: float
    dual_obj: float
    iterations: int                # sweeps run; state.iter is the returned state's sweep
    elapsed: float
    certificate: BoundCertificate | None   # eigenvalue bound of ``state``; None without xbar
    single_sweeps: int             # sweeps whose split ran in single precision
    certify_s: float               # seconds of ``elapsed`` spent in eigenvalue certificates
    accelerated_sweeps: int        # sweeps whose input was an Anderson extrapolation


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
    # scaled rows stay symmetric, so the copy skips the problem's row check
    scaled = problem._derived(
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
    """Run the sweep loop until a stopping test passes, and return the best-certified state.

    The loop itself runs on a row-equilibrated copy of the constraints; the stopping
    tests, the returned state, and the residual record all live in the caller's
    coordinates. The tests run only on check sweeps: every ``CHECK_EVERY``-th sweep
    and the sweep at ``max_iter``. First the residual test: the largest residual is
    within ``eps_tol`` (status ``"converged"``). Then, when the problem has a provable
    ``xbar`` (every builder's problem does; a ``custom`` tag does not), the bound
    test: the best eigenvalue bound seen, b, satisfies |<C, X> - b| <=
    ``BOUND_STOP`` * eps_tol * |b| and rose by less than that since the previous
    check sweep (status ``"bound"``); a warm start passes it only once b is strictly
    above its start's certificate and only on a check sweep whose largest residual is
    within ``WARM_WITHIN`` * eps_tol, so one that never does ends by the residual test
    or at ``max_iter``. Otherwise the loop ends at ``max_iter``
    (status ``"iter_limit"``).

    With an ``xbar``, every check sweep's state is certified, and the state with the
    best bound is returned, with its own residual record and that bound as
    ``certificate``; a warm start's own certificate is the first to beat, so a solve
    never certifies below its start, and a cold start that no check sweep certified
    is certified once, at return. Without one, the state of the last check sweep is
    returned, and ``certificate`` is None. So the returned state comes from a check
    sweep or is the start, ``state.iter`` names its sweep, ``iterations`` counts the
    sweeps run, and ``residuals`` describes the returned state; ``max_iter=0``
    returns the start state with its record.
    ``callback(iteration, state, record, primal, dual)`` fires after every sweep when
    provided, with a record formed for it; it does not change where the loop stops.
    After a sweep that leaves sigma unchanged, the next sweep may start from an
    Anderson extrapolation of the last sweep outputs (module docstring); it is never
    checked, certified or returned, and ``accelerated_sweeps`` counts the sweeps
    that started from one. Identical inputs produce an identical iterate stream. A
    start state's X, Xt, Z and S are symmetrized once, so a start and its
    symmetrized copy give the same result. A start state with a non-finite entry
    raises ``ValueError``, and a sweep that produces one raises
    :class:`SolverDivergedError`.

    The stepsize rule is the same for every problem (module docstring): a cold start
    opens at sigma 1 with ``OPENING_SWEEPS`` norm-ratio sweeps, and a warm start
    balances residuals from the sigma in ``start``.
    """
    prm = params or AdmmParams()
    t0 = time.perf_counter()
    work, d_eq, d_in = _equilibrated(problem)
    factor = factor_normal_matrix(work)
    opening = OPENING_SWEEPS if start is None else 0
    try:
        xbar = xbar_for(problem)
    except ValueError:
        xbar = None

    if start is not None:
        _check_start(start)
        state = start.copy()
        state.iter = 0
        # sweeps keep the iterate symmetric bit for bit and split N as it is
        for name in ("X", "Xt", "Z", "S"):
            mat = getattr(state, name)
            setattr(state, name, 0.5 * (mat + mat.T))
        state.y = state.y * d_eq
        state.ybar = state.ybar * d_in
        state.v = state.v * d_in
        state.s = state.s / d_in
    else:
        state = AdmmState.zeros(work, 1.0)

    def unscaled_view() -> AdmmState:
        # sweeps rebind the state's arrays and never write into them, so a view keeps
        # its values after later sweeps
        return AdmmState(
            X=state.X, s=state.s * d_in, y=state.y / d_eq, ybar=state.ybar / d_in,
            Z=state.Z, S=state.S, v=state.v / d_in, sigma=state.sigma, iter=state.iter,
        )

    certify_s = 0.0

    def certified(view: AdmmState) -> BoundCertificate:
        nonlocal certify_s
        t = time.perf_counter()
        cert = eig_lower_bound(problem, view, xbar, trace=problem.n)
        certify_s += time.perf_counter() - t
        return cert

    C = problem.C
    status = "iter_limit"
    view = unscaled_view()
    rec = residuals(view, problem)
    best, best_rec = view, rec
    cert = certified(view) if start is not None and xbar is not None else None
    best_lb = cert.value if cert is not None else -np.inf
    last_lb = best_lb
    start_lb = best_lb   # a warm start stops by the bound only once it certified above this
    sweeps = single_sweeps = accelerated_sweeps = 0
    single = rec.max_residual > DOUBLE_WITHIN * prm.eps_tol
    anderson = _Anderson(work.n, work.q, ANDERSON_MEMORY)
    extrapolated = False

    for k in range(1, prm.max_iter + 1):
        check = k % CHECK_EVERY == 0 or k == prm.max_iter
        sigma = state.sigma
        accelerated_sweeps += extrapolated
        single_sweeps += sweep(state, factor, work, single and not check)
        state.iter = sweeps = k
        if check or callback is not None:
            view = unscaled_view()
            rec = residuals(view, problem)
            # every part of the state enters the numerator of some residual
            if check and not np.isfinite(rec.as_tuple()).all():
                raise SolverDivergedError(k, f"sigma={state.sigma:.3e}")
            if check and rec.max_residual <= DOUBLE_WITHIN * prm.eps_tol:
                single = False
            primal = float((C * view.X).sum())
        if callback is not None:
            dual, _ = dual_objective(problem, view.y, view.v, view.S)
            callback(k, view, rec, primal, dual)
        if check:
            if xbar is None:
                best, best_rec = view, rec
            else:
                lb = certified(view)
                if lb.value > best_lb:
                    best, best_rec, cert, best_lb = view, rec, lb, lb.value
            if rec.max_residual <= prm.eps_tol:
                status = "converged"
                break
            if xbar is not None:
                slack = BOUND_STOP * prm.eps_tol * abs(best_lb)
                if (best_lb > start_lb and abs(primal - best_lb) <= slack
                        and best_lb - last_lb < slack
                        and (start is None or rec.max_residual <= WARM_WITHIN * prm.eps_tol)):
                    status = "bound"
                    break
                last_lb = best_lb

        if k <= opening:
            ratio = norm_ratio(state)
            if ratio is None:
                opening = 0   # the opening ends here, with sigma as it is
            else:
                state.sigma = ratio
        elif k % CHECK_EVERY == 0:
            state.sigma = classic_sigma(state, rec)
        if k < prm.max_iter:
            if state.sigma == sigma:
                extrapolated = anderson.step(state)
            else:
                anderson.reset()
                extrapolated = False

    if cert is None and xbar is not None:
        cert = certified(best)   # a cold start that no check sweep certified (max_iter=0)
    primal = float((C * best.X).sum())
    dual, _ = dual_objective(problem, best.y, best.v, best.S)
    return AdmmResult(
        state=best, residuals=best_rec, status=status,
        primal_obj=primal, dual_obj=dual,
        iterations=sweeps, elapsed=time.perf_counter() - t0,
        certificate=cert, single_sweeps=single_sweeps, certify_s=certify_s,
        accelerated_sweeps=accelerated_sweeps,
    )
