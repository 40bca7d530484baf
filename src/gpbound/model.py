"""Conic problem construction for the partition relaxations.

All relaxations share one container: minimize <C, X> subject to equality rows
<A_i, X> = b_i, inequality rows l_j <= <B_j, X> <= u_j (through a slack vector),
an elementwise box on X, and X PSD. Infinite bounds are stored as IEEE infinities;
they are only ever consumed by clip operations and support-function evaluations,
never by norms.

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
from .symm import smat, svec, tri_position, tri_scale

MET_VIOLATION_TOL = 1e-4


@dataclass(frozen=True)
class ProblemTag:
    """Which partition problem and relaxation a conic problem encodes."""

    problem: str              # "keq" | "gpkc"
    relaxation: str           # "sdp" | "dnn" | "dnn+met"
    k: int | None = None
    m: int | None = None
    capacity: float | None = None
    min_weight: float | None = None   # smallest knapsack vertex weight
    instance: str = ""


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
    """Conic program data; immutable after construction."""

    n: int
    C: np.ndarray
    eq_mats: tuple
    b: np.ndarray
    ineq_mats: tuple = ()
    l: np.ndarray = field(default_factory=lambda: np.zeros(0))
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    tag: ProblemTag = ProblemTag(problem="custom", relaxation="sdp")
    met_cuts: tuple = ()

    def __post_init__(self):
        n = self.n
        C = np.asarray(self.C, dtype=float)
        if C.shape != (n, n) or not np.allclose(C, C.T):
            raise ValueError("objective matrix must be symmetric of order n")
        object.__setattr__(self, "C", 0.5 * (C + C.T))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "l", np.asarray(self.l, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        lo = np.full((n, n), -np.inf) if self.box_lo is None else np.asarray(self.box_lo, float)
        hi = np.full((n, n), np.inf) if self.box_hi is None else np.asarray(self.box_hi, float)
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        if self.b.size != len(self.eq_mats):
            raise ValueError("equality right-hand side does not match row count")
        if self.l.size != len(self.ineq_mats) or self.u.size != len(self.ineq_mats):
            raise ValueError("inequality bounds do not match row count")
        if np.any(self.l > self.u):
            raise ValueError("inequality bounds must satisfy l <= u")
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    @property
    def m(self) -> int:
        return len(self.eq_mats)

    @property
    def q(self) -> int:
        return len(self.ineq_mats)

    @cached_property
    def _eq_op(self) -> sp.csr_matrix:
        return _stack_svec_rows(self.eq_mats, self.n)

    @cached_property
    def _ineq_op(self) -> sp.csr_matrix:
        return _stack_svec_rows(self.ineq_mats, self.n)

    def eq_apply(self, X: np.ndarray) -> np.ndarray:
        return self._eq_op @ svec(X)

    def ineq_apply(self, X: np.ndarray) -> np.ndarray:
        if self.q == 0:
            return np.zeros(0)
        return self._ineq_op @ svec(X)

    def adjoint(self, y: np.ndarray, ybar: np.ndarray | None = None) -> np.ndarray:
        """A*(y) + B*(ybar) as a dense symmetric matrix."""
        vec = self._eq_op.T @ y
        if ybar is not None and ybar.size:
            vec = vec + self._ineq_op.T @ ybar
        return smat(vec, self.n)

    def clip_box(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.box_lo, self.box_hi)

    def clip_slack(self, t: np.ndarray) -> np.ndarray:
        if self.q == 0:
            return np.zeros(0)
        return np.clip(t, self.l, self.u)

    def stacked_rows(self) -> sp.csr_matrix:
        """All constraint rows over the isometric triangle vectorization."""
        if self.q == 0:
            return self._eq_op
        return sp.vstack([self._eq_op, self._ineq_op], format="csr")


def _stack_svec_rows(mats, n: int) -> sp.csr_matrix:
    cols_of = tri_position(n)
    scale = tri_scale(n)
    data, cols, indptr = [], [], [0]
    for mat in mats:
        coo = mat.tocoo()
        keep = coo.row <= coo.col
        r, c, v = coo.row[keep], coo.col[keep], coo.data[keep]
        pos = cols_of[r, c]
        data.append(v * scale[pos])
        cols.append(pos)
        indptr.append(indptr[-1] + pos.size)
    if not mats:
        return sp.csr_matrix((0, n * (n + 1) // 2))
    data = np.concatenate(data)
    cols = np.concatenate(cols)
    return sp.csr_matrix((data, cols, np.array(indptr)), shape=(len(mats), n * (n + 1) // 2))


def _diag_row(n: int, i: int) -> sp.csr_matrix:
    return sp.csr_matrix(([1.0], ([i], [i])), shape=(n, n))


def _rowsum_row(n: int, i: int) -> sp.csr_matrix:
    # symmetrized row-sum constraint (e_i e^T + e e_i^T) / 2, so <A, X> = (X e)_i
    cols = np.arange(n)
    rows = np.full(n, i)
    vals = np.full(n, 0.5)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    m = m + m.T
    return m.tocsr()


def _weighted_rowsum_row(a: np.ndarray, i: int) -> sp.csr_matrix:
    # (e_i a^T + a e_i^T) / 2, so <B, X> = (X a)_i
    n = a.size
    cols = np.arange(n)
    rows = np.full(n, i)
    m = sp.coo_matrix((0.5 * a, (rows, cols)), shape=(n, n))
    m = m + m.T
    return m.tocsr()


def _keq_base(g: GraphInstance, k: int):
    spec = KEquipartition.for_graph(g.n, k)
    n = g.n
    eq = tuple(_diag_row(n, i) for i in range(n)) + tuple(_rowsum_row(n, i) for i in range(n))
    b = np.concatenate([np.ones(n), np.full(n, float(spec.m))])
    return spec, eq, b


def build_keq_sdp(g: GraphInstance, k: int) -> SdpProblem:
    """Equipartition relaxation: diag(X) = e, X e = m e, X PSD, free box."""
    spec, eq, b = _keq_base(g, k)
    tag = ProblemTag("keq", "sdp", k=k, m=spec.m, instance=g.name)
    return SdpProblem(n=g.n, C=0.5 * laplacian(g), eq_mats=eq, b=b, tag=tag)


def build_keq_dnn(g: GraphInstance, k: int) -> SdpProblem:
    """As :func:`build_keq_sdp` with the elementwise lower bound X >= 0."""
    spec, eq, b = _keq_base(g, k)
    tag = ProblemTag("keq", "dnn", k=k, m=spec.m, instance=g.name)
    return SdpProblem(
        n=g.n, C=0.5 * laplacian(g), eq_mats=eq, b=b,
        box_lo=np.zeros((g.n, g.n)), tag=tag,
    )


def _gpkc_base(g: GraphInstance, spec: Gpkc):
    if spec.n != g.n:
        raise ValueError("vertex weight vector length does not match the graph")
    n = g.n
    eq = tuple(_diag_row(n, i) for i in range(n))
    b = np.ones(n)
    ineq = tuple(_weighted_rowsum_row(spec.a, i) for i in range(n))
    u = np.full(n, spec.W)
    return eq, b, ineq, u


def build_gpkc_sdp(g: GraphInstance, spec: Gpkc) -> SdpProblem:
    """Knapsack relaxation: diag(X) = e, X a <= W e, X PSD, free box."""
    eq, b, ineq, u = _gpkc_base(g, spec)
    tag = ProblemTag("gpkc", "sdp", capacity=spec.W, min_weight=float(spec.a.min()),
                     instance=g.name)
    return SdpProblem(
        n=g.n, C=0.5 * laplacian(g), eq_mats=eq, b=b,
        ineq_mats=ineq, l=np.full(g.n, -np.inf), u=u, tag=tag,
    )


def build_gpkc_dnn(g: GraphInstance, spec: Gpkc) -> SdpProblem:
    """Knapsack relaxation with X >= 0; then (X a)_i >= a_i is valid and sharpens l."""
    eq, b, ineq, u = _gpkc_base(g, spec)
    tag = ProblemTag("gpkc", "dnn", capacity=spec.W, min_weight=float(spec.a.min()),
                     instance=g.name)
    return SdpProblem(
        n=g.n, C=0.5 * laplacian(g), eq_mats=eq, b=b,
        ineq_mats=ineq, l=spec.a.copy(), u=u,
        box_lo=np.zeros((g.n, g.n)), tag=tag,
    )


def build(g: GraphInstance, spec: PartitionSpec, relaxation: str) -> SdpProblem:
    """The ``"sdp"`` or ``"dnn"`` relaxation of the partition problem ``spec`` on ``g``."""
    if relaxation not in ("sdp", "dnn"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if isinstance(spec, KEquipartition):
        return build_keq_dnn(g, spec.k) if relaxation == "dnn" else build_keq_sdp(g, spec.k)
    return build_gpkc_dnn(g, spec) if relaxation == "dnn" else build_gpkc_sdp(g, spec)


def separate_met(X: np.ndarray, max_cuts: int, tol: float = MET_VIOLATION_TOL) -> list[TriangleCut]:
    """Most violated transitivity inequalities, sorted by decreasing violation.

    Scans all 3 * C(n, 3) inequalities X_ij + X_ir - X_jr <= 1 (apex i, pair j < r)
    and keeps up to ``max_cuts`` with violation above ``tol``.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if X.shape != (n, n):
        raise ValueError("X must be square")
    apex, left, right, viol = [], [], [], []
    for i in range(n):
        V = X[i][:, None] + X[i][None, :] - X - 1.0
        jj, rr = np.nonzero(np.triu(V > tol, k=1))
        keep = (jj != i) & (rr != i)
        jj, rr = jj[keep], rr[keep]
        if jj.size:
            apex.append(np.full(jj.size, i))
            left.append(jj)
            right.append(rr)
            viol.append(V[jj, rr])
    if not apex:
        return []
    apex = np.concatenate(apex)
    left = np.concatenate(left)
    right = np.concatenate(right)
    viol = np.concatenate(viol)
    order = np.lexsort((right, left, apex, -viol))[:max_cuts]
    return [
        TriangleCut(int(apex[t]), int(left[t]), int(right[t]), float(viol[t]))
        for t in order
    ]


def _cut_matrix(n: int, cut: TriangleCut) -> sp.csr_matrix:
    i, j, r = cut.triple
    rows = [i, j, i, r, j, r]
    cols = [j, i, r, i, r, j]
    vals = [0.5, 0.5, 0.5, 0.5, -0.5, -0.5]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


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
    new_mats = p.ineq_mats + tuple(_cut_matrix(p.n, c) for c in fresh)
    new_l = np.concatenate([p.l, np.full(len(fresh), -np.inf)])
    new_u = np.concatenate([p.u, np.ones(len(fresh))])
    tag = replace(p.tag, relaxation="dnn+met") if p.tag.relaxation.startswith("dnn") else p.tag
    return replace(
        p, ineq_mats=new_mats, l=new_l, u=new_u, tag=tag,
        met_cuts=p.met_cuts + tuple(fresh),
    )
