"""Feasible partitions from relaxation solutions.

Rounding is randomized but fully reproducible: every entry point accepts a seed
or generator, and ties break toward the lowest vertex index. Samplers draw label
vectors (``labels[v]`` is the group of v, -1 while unassigned) in chunks, one
``(c, n)`` label matrix at a time, and score each chunk with one matrix product;
only the best sample becomes a validated ``Partition``. The first chunk holds one
sample. Later equipartition chunks hold at most ``CHUNK_BUDGET`` label-by-group
entries (or one sample's, if that is more). Knapsack vector clustering draws one
row of n uniforms per sample and packs a whole chunk at once; its draw arrays are
(c, n), so its later chunks hold ``CHUNK_BUDGET // n`` samples, scored in
label-by-group slices within the budget. A chunk draws the same random stream, in
the same order, as drawing its samples one by one, so results do not depend on
the chunk size. A relaxation solution with a non-finite entry is refused before
anything is drawn. Time limits are only checked between chunks or pairwise
passes, never inside one.

Scoring runs in float32 when the weights are integers and every row's absolute sum
is below 2^24, and in float64 otherwise: every partial sum of ``W @ onehot`` is then
an integer that float32 holds exactly, so both give the same scores bit for bit.
Hyperplane rounding factors the recentred solution once and keeps only its
eigenpairs above n * eps * lambda_max, the numerical rank: at keq n = 1000, k = 10
that is 182 of 1000 columns, and each sample's product shrinks accordingly.

Pairwise 2-opt keeps every vertex's weight into every group in one matrix, built
once per call and updated per swap, instead of re-summing a group pair at every
visit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import GraphInstance, Gpkc, KEquipartition, Partition, PartitionSpec, cut_value

EPS_GAIN = 1e-9
CHUNK_BUDGET = 2 ** 16   # label-by-group entries per chunk array (512 KB of floats)


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
    """V with V V' equal to the PSD part of X up to n * eps * lambda_max.

    The columns are sqrt(lambda_i) q_i over the eigenpairs of sym(X) whose eigenvalue
    exceeds n * eps * lambda_max (lambda_max clamped at 0), in ascending order, so they
    are the last ``V.shape[1]`` eigenvectors; the rest, the clamped negative spectrum
    and the rounding noise around a low-rank X, are dropped.
    """
    sym = 0.5 * (X + X.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = len(vals) * np.finfo(float).eps * max(vals[-1], 0.0)
    keep = int(np.searchsorted(vals, floor, side="right"))   # vals ascend
    return vecs[:, keep:] * np.sqrt(vals[keep:])


def _twice_cuts(W: np.ndarray, total: float, labels: np.ndarray, groups: int) -> np.ndarray:
    """Twice the cut of every row of a ``(c, n)`` label matrix, as total weight minus
    within-group weight, read off one product ``W @ onehot`` with c * groups columns
    in W's dtype; the within-group sums add in float64."""
    c, n = labels.shape
    rows = np.arange(n)
    cols = labels + groups * np.arange(c)[:, None]
    onehot = np.zeros((n, c * groups), dtype=W.dtype)
    onehot[rows, cols] = 1
    return total - (W @ onehot)[rows, cols].sum(axis=1, dtype=np.float64)


def _finite(M: np.ndarray) -> np.ndarray:
    """M itself, refused if any entry is not finite."""
    if not np.isfinite(M).all():   # non-finite keys tie with assigned vertices or stall eigh
        raise ValueError("relaxation solution gives non-finite similarities")
    return M


def _best_of_samples(g: GraphInstance, draw, samples: int, time_limit: float | None,
                     t0: float, method: str, draw_width: int | None = None) -> HeuristicResult:
    """Lowest-cut partition over up to ``samples`` label vectors from ``draw(c)``.

    ``draw(c)`` returns the next c samples as a ``(c, n)`` label matrix. The first
    chunk holds one sample. Later ones hold ``CHUNK_BUDGET // draw_width`` samples
    when the draw's arrays take ``draw_width`` entries per sample, and otherwise as
    many as keep the scoring arrays within ``CHUNK_BUDGET`` entries for the group
    count last drawn. Every chunk is scored in slices of that many label-by-group
    entries. Samples are scored by ``_twice_cuts``; the first strict minimum wins and
    is the one sample turned into a ``Partition``, whose ``cut_value`` is the
    reported ub. The time limit counts from ``t0`` and is checked between chunks,
    after the first one, so at least one sample is always drawn.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    W = g.W_adj
    total = W.sum()
    # every partial sum of W @ onehot is then an integer below 2^24 (module docstring)
    if np.array_equal(W, np.round(W)) and np.abs(W).sum(axis=1).max() < 2 ** 24:
        W = W.astype(np.float32)
    best, best_val, used, chunk = None, np.inf, 0, 1
    while used < samples:
        if used and time_limit is not None and time.perf_counter() - t0 > time_limit:
            break
        labels = draw(min(chunk, samples - used))
        groups = int(labels.max()) + 1
        scored = max(1, CHUNK_BUDGET // (g.n * groups))
        chunk = scored if draw_width is None else max(1, CHUNK_BUDGET // draw_width)
        for lo in range(0, len(labels), scored):
            vals = _twice_cuts(W, total, labels[lo:lo + scored], groups)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best, best_val = labels[lo + i].copy(), vals[i]
        used += len(labels)
    partition = Partition.from_assignment(best)
    return HeuristicResult(partition, cut_value(g, partition), used,
                           time.perf_counter() - t0, method)


def hyperplane_transform(X: np.ndarray, k: int) -> np.ndarray:
    """Map a 0/1-style co-membership matrix onto the +-1 cut geometry."""
    if k < 2:
        raise ValueError("need at least 2 groups")
    n = X.shape[0]
    return (k * X - np.ones((n, n))) / (k - 1)


def _fill_smallest(labels: np.ndarray, key: np.ndarray, count: int, t: int) -> None:
    """Put, in every row of ``labels``, the ``count`` unassigned entries with the
    smallest ``key`` into group t; ties at the count-th value go to the lowest index."""
    key = np.where(labels < 0, key, np.inf)
    part = np.argpartition(key, count - 1, axis=1)
    kth = np.take_along_axis(key, part[:, count - 1:count], axis=1)
    tied = key == kth
    if np.count_nonzero(tied) == len(key):   # the count-th key is unique in every row
        np.put_along_axis(labels, part[:, :count], t, axis=1)
        return
    below = key < kth
    need = count - below.sum(axis=1, keepdims=True)
    labels[below | (tied & (np.cumsum(tied, axis=1) <= need))] = t


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

    The relaxation solution is recentred onto the +-1 geometry and factored once by
    :func:`gram_factor`, whose p columns are its top eigenpairs; each sample draws
    an n-by-k direction matrix r and fills the groups greedily, group t taking the m
    unassigned vertices with the largest v_i . r_t over the last p rows of r. The
    default draws r uniformly on [0, 1); ``distribution="gaussian"`` switches to
    standard normal directions. A chunk of c samples draws r as one (c, n, k)
    array, the same stream as c draws of (n, k), whatever p is.
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
    V = gram_factor(_finite(hyperplane_transform(X, k)))
    rows = slice(n - V.shape[1], None)   # the rows of r that meet V's columns

    def draw(c: int) -> np.ndarray:
        shape = (c, n, k)
        r = rng.random(shape) if distribution == "uniform" else rng.normal(size=shape)
        scores = np.matmul(V, r[:, rows])   # one product per sample, each V @ r[s][rows]
        labels = np.full((c, n), -1)
        for t in range(k - 1):
            _fill_smallest(labels, -scores[:, :, t], m, t)
        labels[labels < 0] = k - 1
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
    unassigned neighbours under the similarity sim(i, j) = x_i . x_j (rows of X).

    Group t opens at the pick-th unassigned vertex in index order, pick uniform
    below n - t m; a chunk of c samples draws its c * k picks at once, in the order
    the samples would draw them one by one.
    """
    n = g.n
    if m is None:
        m = n // k
    if k < 2 or k * m != n:
        raise ValueError("group shape must satisfy k * m = n with k >= 2")
    rng = _rng(seed)
    t0 = time.perf_counter()
    sim = _finite(X @ X)
    highs = n - m * np.arange(k)

    def draw(c: int) -> np.ndarray:
        picks = rng.integers(np.broadcast_to(highs, (c, k)))
        labels = np.full((c, n), -1)
        rows = np.arange(c)
        for t in range(k - 1):
            opener = np.argmax(np.cumsum(labels < 0, axis=1) > picks[:, t:t + 1], axis=1)
            labels[rows, opener] = t
            if m > 1:
                _fill_smallest(labels, -sim[opener], m - 1, t)
        labels[labels < 0] = k - 1
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

    Each sample draws one row u of n uniforms. Its group t opens at the
    floor(u_t count)-th of the count unassigned vertices in index order, then scans
    the other unassigned vertices in decreasing similarity order (stable, so ties
    keep the lowest index first), keeping every one whose weight still fits. A
    chunk of c samples draws u as one (c, n) array, the same stream as c draws of
    n, and packs its samples side by side: for every group it opens, one
    first-fit step per similarity position across all samples still unassigned.
    Its draw arrays are (c, n), so a chunk after the first holds
    ``CHUNK_BUDGET // n`` samples; the time limit is checked between chunks.
    """
    n = g.n
    a = np.asarray(a, dtype=float)
    rng = _rng(seed)
    t0 = time.perf_counter()
    order = np.argsort(-_finite(X @ X), axis=1, kind="stable")

    def draw(c: int) -> np.ndarray:
        u = rng.random((c, n))
        labels = np.full((c, n), -1)
        live = np.arange(c)
        t = 0
        while live.size:
            free = labels[live] < 0
            ranks = np.cumsum(free, axis=1)
            count = ranks[:, -1]
            pick = np.minimum((u[live, t] * count).astype(np.int64), count - 1)
            opener = np.argmax(ranks > pick[:, None], axis=1)
            cols = np.arange(live.size)
            free[cols, opener] = False
            # position j of every live sample's similarity order, one row per j;
            # the scan assigns only positions it has passed, so `fits` stays valid
            seq = order[opener].T
            fits = free[cols, seq]
            steps = a[seq]
            weight = a[opener]
            packed = np.empty_like(weight)
            for j in np.flatnonzero(fits.any(axis=1)):
                take = fits[j]
                np.add(weight, steps[j], out=packed)
                take &= packed <= W_cap
                np.copyto(weight, packed, where=take)
            pos, col = np.nonzero(fits)
            labels[live[col], seq[pos, col]] = t
            labels[live, opener] = t
            live = live[(labels[live] < 0).any(axis=1)]
            t += 1
        return labels

    return _best_of_samples(g, draw, samples, time_limit, t0, "Vc", draw_width=n)


def two_opt_multi(
    g: GraphInstance,
    partition: Partition,
    spec: PartitionSpec,
    time_limit: float | None = None,
    seed=None,
) -> Partition:
    """Steepest-swap refinement over randomly chosen group pairs until clean.

    ``conn[h, v]``, the weight from vertex v into group h, is built once per call
    and kept up to date by two row updates per swap. A visit to the pair (i, j),
    drawn uniformly from the sorted worklist, takes both groups as sorted arrays and
    swaps s in group i with t in group j, the first largest gain
    (conn[j, s] - conn[i, s]) + (conn[i, t] - conn[j, t]) - 2 w_st in row-major
    order, while that gain exceeds ``EPS_GAIN`` times the largest weighted degree.
    On integral weights every gain is an exact integer and that threshold is below
    1; on others it keeps the kept rows' drift, a few ulps of a degree per swap,
    from admitting a swap that does not lower the cut. For a knapsack spec only
    swaps that keep both groups within capacity are candidates. A pair goes back on
    the worklist whenever one of its groups changed; the time limit is checked
    between visits. The cut never increases, and sizes and weights stay feasible.
    """
    groups = [np.array(grp, dtype=np.int64) for grp in partition.groups]
    k = len(groups)
    if k < 2:
        return partition
    rng = _rng(seed)
    weights = spec.a if isinstance(spec, Gpkc) else None
    capacity = spec.W if isinstance(spec, Gpkc) else None
    t0 = time.perf_counter()
    W = g.W_adj   # symmetric, so row v is also column v
    conn = np.array([W[grp].sum(axis=0) for grp in groups])
    threshold = EPS_GAIN * W.sum(axis=1).max()

    dirty = {(i, j) for i in range(k) for j in range(i + 1, k)}
    while dirty:
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            break
        pairs = sorted(dirty)
        i, j = pairs[rng.integers(len(pairs))]
        dirty.discard((i, j))
        g1, g2 = np.sort(groups[i]), np.sort(groups[j])
        ci, cj = conn[i], conn[j]
        if weights is not None:
            w1, w2 = float(weights[g1].sum()), float(weights[g2].sum())
        swapped = False
        while True:
            gains = ((cj[g1] - ci[g1])[:, None] + (ci[g2] - cj[g2])[None, :]
                     - 2.0 * W[np.ix_(g1, g2)])
            if weights is not None:
                fits = ((w1 - weights[g1][:, None] + weights[g2][None, :] <= capacity + 1e-9)
                        & (w2 - weights[g2][None, :] + weights[g1][:, None] <= capacity + 1e-9))
                gains = np.where(fits, gains, -np.inf)
            si, ti = divmod(int(np.argmax(gains)), g2.size)
            if gains[si, ti] <= threshold:
                break
            s, t = int(g1[si]), int(g2[ti])
            g1[si], g2[ti] = t, s
            shift = W[t] - W[s]
            ci += shift
            cj -= shift
            if weights is not None:
                w1 += weights[t] - weights[s]
                w2 += weights[s] - weights[t]
            swapped = True
        if swapped:
            groups[i], groups[j] = g1, g2
            for h in range(k):
                if h != i:
                    dirty.add((min(h, i), max(h, i)))
                if h != j:
                    dirty.add((min(h, j), max(h, j)))
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
