"""Feasible partitions from relaxation solutions.

Rounding is randomized but fully reproducible: every entry point accepts a seed
or generator, ties break toward the lowest vertex index, and time limits are
only checked between samples or pairwise passes, never inside one. Samplers
draw label vectors (``labels[v]`` is the group of v, -1 while unassigned);
only the best one becomes a validated ``Partition``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import GraphInstance, Gpkc, KEquipartition, Partition, PartitionSpec, cut_value

EPS_GAIN = 1e-9


@dataclass(frozen=True)
class HeuristicResult:
    partition: Partition
    ub: float
    samples_used: int
    elapsed: float
    method: str


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def gram_factor(X: np.ndarray) -> np.ndarray:
    """V with V V' equal to the PSD part of X (negative eigenvalues clamped)."""
    sym = 0.5 * (X + X.T)
    vals, vecs = np.linalg.eigh(sym)
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def _best_of_samples(g: GraphInstance, draw, samples: int, time_limit: float | None,
                     t0: float, method: str) -> HeuristicResult:
    """Lowest-cut partition over up to ``samples`` label vectors from ``draw()``.

    A sample is scored as total weight minus within-group weight, read off
    ``W @ onehot(labels)``; the first strict minimum wins and is the one sample
    turned into a ``Partition``, whose ``cut_value`` is the reported ub. The time
    limit counts from ``t0`` and is checked between samples, after the first
    one, so at least one sample is always drawn.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    W = g.W_adj
    total = W.sum()
    rows = np.arange(g.n)
    best, best_val, used = None, np.inf, 0
    for _ in range(samples):
        if time_limit is not None and time.perf_counter() - t0 > time_limit and used:
            break
        labels = draw()
        onehot = np.zeros((g.n, labels.max() + 1))
        onehot[rows, labels] = 1.0
        val = total - (W @ onehot)[rows, labels].sum()  # twice the cut
        used += 1
        if val < best_val:
            best, best_val = labels, val
    partition = Partition.from_assignment(best)
    return HeuristicResult(partition, cut_value(g, partition), used,
                           time.perf_counter() - t0, method)


def hyperplane_transform(X: np.ndarray, k: int) -> np.ndarray:
    """Map a 0/1-style co-membership matrix onto the +-1 cut geometry."""
    if k < 2:
        raise ValueError("need at least 2 groups")
    n = X.shape[0]
    return (k * X - np.ones((n, n))) / (k - 1)


def _top_unassigned(scores: np.ndarray, unassigned: np.ndarray, count: int) -> np.ndarray:
    # stable sort on the ascending index list makes ties pick the lowest vertex
    order = np.argsort(-scores[unassigned], kind="stable")
    return unassigned[order[:count]]


def hyperplane_round(
    g: GraphInstance,
    X: np.ndarray,
    k: int,
    m: int | None = None,
    samples: int = 100,
    time_limit: float | None = None,
    seed=None,
    distribution: str = "uniform",
) -> HeuristicResult:
    """Randomized hyperplane rounding.

    The relaxation solution is recentred onto the +-1 geometry and factored once;
    each sample draws an n-by-k score matrix r and fills the groups greedily,
    group t taking the m unassigned vertices with the largest v_i . r_t. The
    default draws r uniformly on (0, 1); ``distribution="gaussian"`` switches to
    standard normal directions.
    """
    n = g.n
    if m is None:
        m = n // k
    if k < 2 or k * m != n:
        raise ValueError("group shape must satisfy k * m = n with k >= 2")
    if distribution not in ("uniform", "gaussian"):
        raise ValueError("distribution must be 'uniform' or 'gaussian'")
    rng = _rng(seed)
    t0 = time.perf_counter()
    V = gram_factor(hyperplane_transform(X, k))

    def draw() -> np.ndarray:
        r = rng.random((n, k)) if distribution == "uniform" else rng.normal(size=(n, k))
        scores = V @ r
        labels = np.full(n, -1)
        for t in range(k):
            labels[_top_unassigned(scores[:, t], np.flatnonzero(labels < 0), m)] = t
        return labels

    return _best_of_samples(g, draw, samples, time_limit, t0, "Hyp")


def vc_round_keq(
    g: GraphInstance,
    X: np.ndarray,
    k: int,
    m: int | None = None,
    samples: int = 100,
    time_limit: float | None = None,
    seed=None,
) -> HeuristicResult:
    """Vector clustering: seed a group at a random vertex, pull in its m-1 nearest
    unassigned neighbours under the similarity sim(i, j) = x_i . x_j (rows of X)."""
    n = g.n
    if m is None:
        m = n // k
    if k < 2 or k * m != n:
        raise ValueError("group shape must satisfy k * m = n with k >= 2")
    rng = _rng(seed)
    t0 = time.perf_counter()
    sim = X @ X

    def draw() -> np.ndarray:
        labels = np.full(n, -1)
        for t in range(k):
            unassigned = np.flatnonzero(labels < 0)
            i = unassigned[rng.integers(unassigned.size)]
            labels[i] = t
            labels[_top_unassigned(sim[i], unassigned[unassigned != i], m - 1)] = t
        return labels

    return _best_of_samples(g, draw, samples, time_limit, t0, "Vc")


def vc_round_gpkc(
    g: GraphInstance,
    X: np.ndarray,
    a: np.ndarray,
    W_cap: float,
    samples: int = 100,
    time_limit: float | None = None,
    seed=None,
) -> HeuristicResult:
    """Capacity-aware vector clustering; the group count is an output.

    Groups open at a random unassigned vertex and scan the remaining vertices in
    decreasing similarity order, keeping every one whose weight still fits.
    """
    n = g.n
    a = np.asarray(a, dtype=float)
    rng = _rng(seed)
    t0 = time.perf_counter()
    sim = X @ X

    def draw() -> np.ndarray:
        labels = np.full(n, -1)
        t = 0
        while (unassigned := np.flatnonzero(labels < 0)).size:
            i = unassigned[rng.integers(unassigned.size)]
            rest = unassigned[unassigned != i]
            group = [i]
            weight = float(a[i])
            order = rest[np.argsort(-sim[i][rest], kind="stable")]
            for j, aj in zip(order.tolist(), a[order].tolist()):
                if weight + aj <= W_cap:
                    group.append(j)
                    weight += aj
            labels[group] = t
            t += 1
        return labels

    return _best_of_samples(g, draw, samples, time_limit, t0, "Vc")


def two_opt_bisection(
    g: GraphInstance,
    p1,
    p2,
    weights: np.ndarray | None = None,
    capacity: float | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Steepest-swap local search on one group pair.

    The gain of exchanging s in the first group with t in the second is
    (ext1(t) - int2(t)) + (ext2(s) - int1(s)) - 2 w_st, the cut decrease of the
    swap; swaps apply while the best gain exceeds ``EPS_GAIN``. With ``weights``
    and ``capacity`` given, only weight-feasible swaps are candidates.
    """
    W = g.W_adj
    g1 = np.array(sorted(p1), dtype=np.int64)
    g2 = np.array(sorted(p2), dtype=np.int64)
    c1 = W[:, g1].sum(axis=1)
    c2 = W[:, g2].sum(axis=1)
    w1 = float(weights[g1].sum()) if weights is not None else 0.0
    w2 = float(weights[g2].sum()) if weights is not None else 0.0

    while True:
        d1 = c2[g1] - c1[g1]
        d2 = c1[g2] - c2[g2]
        gains = d1[:, None] + d2[None, :] - 2.0 * W[np.ix_(g1, g2)]
        if weights is not None:
            fits = (
                (w1 - weights[g1][:, None] + weights[g2][None, :] <= capacity + 1e-9)
                & (w2 - weights[g2][None, :] + weights[g1][:, None] <= capacity + 1e-9)
            )
            gains = np.where(fits, gains, -np.inf)
        flat = int(np.argmax(gains))
        si, ti = divmod(flat, g2.size)
        if gains[si, ti] <= EPS_GAIN:
            break
        s, t = int(g1[si]), int(g2[ti])
        g1[si], g2[ti] = t, s
        c1 += W[:, t] - W[:, s]
        c2 += W[:, s] - W[:, t]
        if weights is not None:
            w1 += weights[t] - weights[s]
            w2 += weights[s] - weights[t]
    return tuple(int(v) for v in sorted(g1)), tuple(int(v) for v in sorted(g2))


def two_opt_multi(
    g: GraphInstance,
    partition: Partition,
    spec: PartitionSpec,
    time_limit: float | None = None,
    seed=None,
) -> Partition:
    """Pairwise swap refinement over randomly chosen group pairs until clean.

    A pair goes back on the worklist whenever one of its groups changed; the cut
    value never increases, and feasibility (sizes or weights) is preserved by
    construction.
    """
    groups = [tuple(grp) for grp in partition.groups]
    if len(groups) < 2:
        return partition
    rng = _rng(seed)
    weights = spec.a if isinstance(spec, Gpkc) else None
    capacity = spec.W if isinstance(spec, Gpkc) else None
    t0 = time.perf_counter()

    dirty = {(i, j) for i in range(len(groups)) for j in range(i + 1, len(groups))}
    while dirty:
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            break
        pairs = sorted(dirty)
        i, j = pairs[rng.integers(len(pairs))]
        dirty.discard((i, j))
        new_i, new_j = two_opt_bisection(g, groups[i], groups[j], weights=weights,
                                         capacity=capacity)
        if new_i != groups[i] or new_j != groups[j]:
            groups[i], groups[j] = new_i, new_j
            for t in range(len(groups)):
                if t != i:
                    dirty.add((min(t, i), max(t, i)))
                if t != j:
                    dirty.add((min(t, j), max(t, j)))
    return Partition.from_groups(partition.n, groups)


ROUNDING_METHODS = ("vc", "hyp", "vc+2opt", "hyp+2opt")


def round_relaxation(g, X, spec, method="vc+2opt", samples=100, time_limit=None, seed=None,
                     distribution="uniform") -> HeuristicResult:
    """Feasible partition from a relaxation solution by one of ``ROUNDING_METHODS``.

    ``"vc"`` is vector clustering (capacity-aware for knapsack specs), ``"hyp"``
    hyperplane rounding (equipartition only, directions drawn from
    ``distribution``); a ``"+2opt"`` suffix chains pairwise swap refinement on
    the same generator, within what is left of ``time_limit``.
    """
    if method not in ROUNDING_METHODS:
        raise ValueError(f"unknown rounding method {method!r}")
    rng = _rng(seed)
    if method.startswith("hyp"):
        if not isinstance(spec, KEquipartition):
            raise ValueError("hyperplane rounding applies to equipartition problems only")
        base = hyperplane_round(g, X, spec.k, spec.m, samples, time_limit, rng, distribution)
    elif isinstance(spec, KEquipartition):
        base = vc_round_keq(g, X, spec.k, spec.m, samples, time_limit, rng)
    else:
        base = vc_round_gpkc(g, X, spec.a, spec.W, samples, time_limit, rng)
    if not method.endswith("+2opt"):
        return base

    t0 = time.perf_counter()
    remaining = None if time_limit is None else max(0.0, time_limit - base.elapsed)
    refined = two_opt_multi(g, base.partition, spec, time_limit=remaining, seed=rng)
    ub = cut_value(g, refined)
    if ub > base.ub:  # pairwise refinement never worsens; guard regardless
        refined, ub = base.partition, base.ub
    elapsed = base.elapsed + (time.perf_counter() - t0)
    return HeuristicResult(refined, ub, base.samples_used, elapsed, base.method + "+2opt")


def vc_plus_two_opt(g, X, spec, samples=100, time_limit=None, seed=None) -> HeuristicResult:
    """Vector clustering chained into pairwise swap refinement."""
    return round_relaxation(g, X, spec, "vc+2opt", samples, time_limit, seed)


def hyp_plus_two_opt(g, X, spec, samples=100, time_limit=None, seed=None) -> HeuristicResult:
    """Hyperplane rounding chained into pairwise swap refinement."""
    return round_relaxation(g, X, spec, "hyp+2opt", samples, time_limit, seed)
