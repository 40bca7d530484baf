"""Conic problem construction for the partition relaxations.

All relaxations share one container: minimize <C, X> subject to equality rows
<A_i, X> = b_i, inequality rows l_j <= <B_j, X> <= u_j (through a slack vector),
an elementwise box on X, and X PSD. The rows are stored as two sparse matrices
over vec(X), the row-major flattening of X: row i of ``A`` (m x n^2) is the
symmetric matrix A_i flattened the same way, so A(X) = A @ X.ravel() and
A*(y) = (A' y).reshape(n, n); ``B`` (q x n^2) holds the B_j. Infinite bounds are
stored as IEEE infinities; they are only ever consumed by clip operations and
support-function evaluations, never by norms.

This module only builds problems and separates cuts; the loop that solves,
certifies and tightens them with cuts, ``cutting_loop``, lives in
:mod:`gpbound.certify`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graphs import Gpkc, GraphInstance, KEquipartition, PartitionSpec, laplacian

MET_VIOLATION_TOL = 1e-4


@dataclass(frozen=True)
class ProblemTag:
    """Which partition problem and relaxation a conic problem encodes."""

    problem: str              # "keq" | "gpkc"
    relaxation: str           # "sdp" | "dnn" | "dnn+met"
    m: int | None = None      # equipartition group size
    capacity: float | None = None
    min_weight: float | None = None   # smallest knapsack vertex weight
    integral: bool = False    # integral edge weights: every cut, so the optimum, is an integer


@dataclass(frozen=True)
class TriangleCut:
    """Transitivity inequality X_ij + X_ir - X_jr <= 1 for distinct (i, j, r), j < r."""

    i: int
    j: int
    r: int
    violation: float = 0.0

    def __post_init__(self):
        if len({self.i, self.j, self.r}) != 3:
            raise ValueError("triangle vertices must be distinct")
        if self.j > self.r:
            j, r = self.r, self.j
            object.__setattr__(self, "j", j)
            object.__setattr__(self, "r", r)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.r)


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Conic program data; immutable after construction.

    ``A`` and ``B`` are scipy sparse matrices with n^2 columns whose rows are
    symmetric n x n matrices flattened row-major (see the module docstring); a
    problem without inequality rows has a 0 x n^2 ``B``, which is the default.
    """

    n: int
    C: np.ndarray
    A: sp.spmatrix
    b: np.ndarray
    B: sp.spmatrix | None = None
    l: np.ndarray = field(default_factory=lambda: np.zeros(0))
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    tag: ProblemTag = ProblemTag(problem="custom", relaxation="sdp")
    met_cuts: tuple = ()

    def __post_init__(self):
        n = self.n
        C = np.asarray(self.C, dtype=float)
        if not np.isfinite(C).all():
            raise ValueError("objective matrix must be finite")
        if C.shape != (n, n) or not np.allclose(C, C.T):
            raise ValueError("objective matrix must be symmetric of order n")
        object.__setattr__(self, "C", 0.5 * C + 0.5 * C.T)  # no overflow below the largest float
        B = sp.csr_matrix((0, n * n)) if self.B is None else self.B
        object.__setattr__(self, "A", _checked_rows(self.A, n, "equality"))
        object.__setattr__(self, "B", _checked_rows(B, n, "inequality"))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        lo = np.full((n, n), -np.inf) if self.box_lo is None else np.asarray(self.box_lo, float)
        hi = np.full((n, n), np.inf) if self.box_hi is None else np.asarray(self.box_hi, float)
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        if self.b.size != self.m:
            raise ValueError("equality right-hand side does not match row count")
        if not np.isfinite(self.b).all():
            raise ValueError("equality right-hand side must be finite")
        for name, vals in (("inequality", (self.l, self.u)), ("box", (lo, hi))):
            if any(np.isnan(v).any() for v in vals):
                raise ValueError(f"{name} bounds must not be NaN; infinite ones are allowed")
        if self.l.size != self.q or self.u.size != self.q:
            raise ValueError("inequality bounds do not match row count")
        if np.any(self.l > self.u):
            raise ValueError("inequality bounds must satisfy l <= u")
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.B.shape[0]

    def eq_apply(self, X: np.ndarray) -> np.ndarray:
        return self.A @ X.ravel()

    def ineq_apply(self, X: np.ndarray) -> np.ndarray:
        return self.B @ X.ravel()

    @cached_property
    def _transposes(self) -> tuple[sp.spmatrix, sp.spmatrix]:
        # A' and B' are views that share A's and B's arrays; ``.T`` builds a new one per call
        return self.A.T, self.B.T

    @cached_property
    def _box_bounds(self):
        # the box as two scalars when it is uniform (every builder's box is, but a knapsack
        # DNN's with conflict pairs): clipping against scalars is about 3x faster than
        # against two n x n arrays at n=300
        lo, hi = self.box_lo, self.box_hi
        if lo.size and (lo == lo.flat[0]).all() and (hi == hi.flat[0]).all():
            return lo.flat[0], hi.flat[0]
        return lo, hi

    def adjoint(self, y: np.ndarray, ybar: np.ndarray | None = None) -> np.ndarray:
        """A*(y) + B*(ybar) as a dense symmetric matrix; an omitted ybar counts as zero."""
        At, Bt = self._transposes
        vec = At @ y
        if ybar is not None:
            vec += Bt @ ybar
        return vec.reshape(self.n, self.n)

    def clip_box(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """X clipped to the box, into ``out`` when given (it may be X itself)."""
        lo, hi = self._box_bounds
        return np.clip(X, lo, hi, out=out)

    def clip_slack(self, t: np.ndarray) -> np.ndarray:
        return np.clip(t, self.l, self.u)

    def stacked_rows(self) -> sp.csr_matrix:
        """All constraint rows, equalities first, over vec(X)."""
        return sp.vstack([self.A, self.B], format="csr")

    @cached_property
    def row_magnitudes(self) -> tuple[sp.spmatrix, sp.spmatrix, int]:
        """|A|', |B|' and the largest column count of the stacked rows: the parts of the
        eigenvalue bound's rounding margin that depend on the problem only. A transpose
        without negative entries is |.|' itself, so every builder's rows but the
        triangle cuts cost no copy."""
        def magnitude(Mt):
            return Mt if (Mt.data >= 0).all() else abs(Mt)

        At, Bt = self._transposes
        columns = int((self.A.getnnz(axis=0) + self.B.getnnz(axis=0)).max())
        return magnitude(At), magnitude(Bt), columns


def _checked_rows(M, n: int, kind: str) -> sp.csr_matrix:
    """``M`` as CSR after checking it has n^2 columns and every row is symmetric."""
    M = sp.csr_matrix(M, dtype=float)
    if M.shape[1] != n * n:
        raise ValueError(f"{kind} constraint matrix must have n^2 = {n * n} columns")
    transpose = np.arange(n * n).reshape(n, n).T.ravel()
    if (M[:, transpose] != M).nnz:
        raise ValueError(f"every {kind} constraint row must be a symmetric matrix")
    return M


def _sym_rows(n_rows: int, n: int, row, i, j, val) -> sp.csr_matrix:
    """n_rows x n^2 matrix to whose row ``row[t]`` entry t adds the flattened
    (val[t]/2)(e_i e_j' + e_j e_i') with i = ``i[t]``, j = ``j[t]``; ``val`` may be a scalar."""
    row, i, j = np.asarray(row), np.asarray(i), np.asarray(j)
    half = np.broadcast_to(0.5 * np.asarray(val, dtype=float), row.shape)
    return sp.csr_matrix(
        (np.concatenate([half, half]),
         (np.concatenate([row, row]), np.concatenate([i * n + j, j * n + i]))),
        shape=(n_rows, n * n),
    )


def _integral(g: GraphInstance) -> bool:
    """Whether every edge weight is an integer, so that every cut value is one."""
    return bool((g.W_adj == np.round(g.W_adj)).all())


def _keq_base(g: GraphInstance, k: int):
    # rows e_i e_i' (diag(X) = e), then (e_i e' + e e_i')/2 ((X e)_i = m)
    spec = KEquipartition.for_graph(g.n, k)
    n = g.n
    v = np.arange(n)
    i, j = np.divmod(np.arange(n * n), n)
    A = _sym_rows(2 * n, n, np.concatenate([v, n + i]), np.concatenate([v, i]),
                  np.concatenate([v, j]), 1.0)
    b = np.concatenate([np.ones(n), np.full(n, float(spec.m))])
    return spec, A, b


def build_keq_sdp(g: GraphInstance, k: int) -> SdpProblem:
    """Equipartition relaxation: diag(X) = e, X e = m e, X PSD, free box."""
    spec, A, b = _keq_base(g, k)
    tag = ProblemTag("keq", "sdp", m=spec.m, integral=_integral(g))
    return SdpProblem(n=g.n, C=laplacian(g, 0.5), A=A, b=b, tag=tag)


def build_keq_dnn(g: GraphInstance, k: int) -> SdpProblem:
    """As :func:`build_keq_sdp` with the elementwise lower bound X >= 0."""
    spec, A, b = _keq_base(g, k)
    tag = ProblemTag("keq", "dnn", m=spec.m, integral=_integral(g))
    return SdpProblem(
        n=g.n, C=laplacian(g, 0.5), A=A, b=b,
        box_lo=np.zeros((g.n, g.n)), tag=tag,
    )


def _gpkc_base(g: GraphInstance, spec: Gpkc):
    # rows e_i e_i' (diag(X) = e) and (e_i a' + a e_i')/2 ((X a)_i <= W)
    if spec.n != g.n:
        raise ValueError("vertex weight vector length does not match the graph")
    n = g.n
    v = np.arange(n)
    i, j = np.divmod(np.arange(n * n), n)
    A = _sym_rows(n, n, v, v, v, 1.0)
    B = _sym_rows(n, n, i, i, j, spec.a[j])
    return A, np.ones(n), B, np.full(n, spec.W)


def build_gpkc_sdp(g: GraphInstance, spec: Gpkc) -> SdpProblem:
    """Knapsack relaxation: diag(X) = e, X a <= W e, X PSD, free box."""
    A, b, B, u = _gpkc_base(g, spec)
    tag = ProblemTag("gpkc", "sdp", capacity=spec.W, min_weight=float(spec.a.min()),
                     integral=_integral(g))
    return SdpProblem(
        n=g.n, C=laplacian(g, 0.5), A=A, b=b,
        B=B, l=np.full(g.n, -np.inf), u=u, tag=tag,
    )


def build_gpkc_dnn(g: GraphInstance, spec: Gpkc) -> SdpProblem:
    """Knapsack relaxation with X >= 0; then (X a)_i >= a_i is valid and sharpens l.

    Two vertices with a_i + a_j > W share no group of a feasible partition, so
    X_ij = 0 is valid on such a conflict pair, and the box's upper bound is 0
    there. Without conflict pairs the box stays uniform (``box_hi`` is free).
    """
    A, b, B, u = _gpkc_base(g, spec)
    conflict = spec.a[:, None] + spec.a[None, :] > spec.W
    np.fill_diagonal(conflict, False)
    tag = ProblemTag("gpkc", "dnn", capacity=spec.W, min_weight=float(spec.a.min()),
                     integral=_integral(g))
    return SdpProblem(
        n=g.n, C=laplacian(g, 0.5), A=A, b=b,
        B=B, l=spec.a.copy(), u=u,
        box_lo=np.zeros((g.n, g.n)),
        box_hi=np.where(conflict, 0.0, np.inf) if conflict.any() else None, tag=tag,
    )


def build(g: GraphInstance, spec: PartitionSpec, relaxation: str) -> SdpProblem:
    """The ``"sdp"`` or ``"dnn"`` relaxation of the partition problem ``spec`` on ``g``."""
    if relaxation not in ("sdp", "dnn"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if isinstance(spec, KEquipartition):
        return build_keq_dnn(g, spec.k) if relaxation == "dnn" else build_keq_sdp(g, spec.k)
    return build_gpkc_dnn(g, spec) if relaxation == "dnn" else build_gpkc_sdp(g, spec)


def separate_met(X: np.ndarray, max_cuts: int) -> list[TriangleCut]:
    """Most violated transitivity inequalities, sorted by decreasing violation.

    Checks all 3 * C(n, 3) inequalities X_ij + X_ir - X_jr <= 1 (apex i, pair j < r)
    and keeps up to ``max_cuts`` with violation above ``MET_VIOLATION_TOL``; ties
    are ordered by (apex, left, right). Leg j at apex i can only be in a violated
    one if X_ij + t_i - x_min - 1 > MET_VIOLATION_TOL, where t_i is the largest
    leg at i and x_min the smallest off-diagonal entry, so each apex scans only the
    block of such legs. Rounding is monotone, so that test, evaluated in the same
    order with a few units of roundoff to spare, keeps every leg the full scan
    would use.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if X.shape != (n, n):
        raise ValueError("X must be square")
    if n < 3:
        return []
    off = X.copy()
    np.fill_diagonal(off, np.nan)
    # fmax/fmin skip NaN entries, which are in no violated inequality
    top = np.fmax.reduce(off, axis=1)
    x_min = np.fmin.reduce(off, axis=None)
    spare = 8 * np.finfo(float).eps * (1.0 + np.fmax.reduce(np.abs(off), axis=None))
    with np.errstate(invalid="ignore", over="ignore"):
        legs = off + top[:, None] - x_min - 1.0 > MET_VIOLATION_TOL - spare
    apex, left, right, viol = [], [], [], []
    for i in range(n):
        J = np.flatnonzero(legs[i])   # ascending and without i, so j < r maps to J[j] < J[r]
        if J.size < 2:
            continue
        xi = X[i, J]
        V = xi[:, None] + xi[None, :] - X[np.ix_(J, J)] - 1.0
        jj, rr = np.nonzero(np.triu(V > MET_VIOLATION_TOL, k=1))
        if jj.size:
            apex.append(np.full(jj.size, i))
            left.append(J[jj])
            right.append(J[rr])
            viol.append(V[jj, rr])
    if not apex:
        return []
    apex = np.concatenate(apex)
    left = np.concatenate(left)
    right = np.concatenate(right)
    viol = np.concatenate(viol)
    if 0 < max_cuts < viol.size:
        # sort only the max_cuts largest violations and every tie of the smallest
        kth = np.partition(viol, viol.size - max_cuts)[viol.size - max_cuts]
        keep = np.flatnonzero(viol >= kth)
        apex, left, right, viol = apex[keep], left[keep], right[keep], viol[keep]
    order = np.lexsort((right, left, apex, -viol))[:max_cuts]
    return [
        TriangleCut(int(apex[t]), int(left[t]), int(right[t]), float(viol[t]))
        for t in order
    ]


def add_cuts(p: SdpProblem, cuts) -> SdpProblem:
    """Append triangle cuts as inequality rows with u = 1; duplicate triples rejected."""
    cuts = list(cuts)
    if not cuts:
        return p
    existing = {c.triple for c in p.met_cuts}
    fresh = []
    for cut in cuts:
        if cut.triple in existing:
            raise ValueError(f"cut {cut.triple} already present")
        existing.add(cut.triple)
        fresh.append(cut)
    # row t is X_ij + X_ir - X_jr for the t-th fresh cut (i, j, r)
    t = np.arange(len(fresh))
    i, j, r = np.array([c.triple for c in fresh]).T
    rows = _sym_rows(t.size, p.n, np.tile(t, 3), np.concatenate([i, i, j]),
                     np.concatenate([j, r, r]), np.repeat([1.0, 1.0, -1.0], t.size))
    new_l = np.concatenate([p.l, np.full(len(fresh), -np.inf)])
    new_u = np.concatenate([p.u, np.ones(len(fresh))])
    tag = replace(p.tag, relaxation="dnn+met") if p.tag.relaxation.startswith("dnn") else p.tag
    return replace(
        p, B=sp.vstack([p.B, rows], format="csr"), l=new_l, u=new_u, tag=tag,
        met_cuts=p.met_cuts + tuple(fresh),
    )
