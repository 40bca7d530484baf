"""Weighted graph instances, partitions, cut arithmetic, random generators, and file I/O.

Random generation uses numpy's PCG64 generator seeded through ``np.random.default_rng``;
the draw order documented on each generator is part of the reproducibility contract.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

EDGE_WEIGHT_HIGH = 100      # edge weights are integers in {1, ..., 100}
VERTEX_WEIGHT_HIGH = 1000   # vertex weights are integers in {1, ..., 1000}
CAPACITY_SAMPLES = 1000     # permutations drawn when calibrating a knapsack capacity
CAPACITY_FEASIBLE_SHARE = 0.10

_WEIGHT_TOL = 1e-9


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecValidationError(ValueError):
    """Instance data violates the partition-problem requirements."""


@dataclass(frozen=True, eq=False)
class GraphInstance:
    """Undirected graph on ``n`` vertices with a symmetric nonnegative weight matrix."""

    n: int
    W_adj: np.ndarray
    name: str = "graph"

    def __post_init__(self):
        W = np.asarray(self.W_adj, dtype=float)
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if W.shape != (self.n, self.n):
            raise ValueError(f"weight matrix shape {W.shape} does not match n={self.n}")
        if not np.isfinite(W).all():
            raise ValueError("edge weights must be finite")
        if not np.array_equal(W, W.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(W < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(W) != 0):
            raise ValueError("diagonal of the weight matrix must be zero")
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "W_adj", W)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphInstance)
            and self.n == other.n
            and self.name == other.name
            and np.array_equal(self.W_adj, other.W_adj)
        )

    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.W_adj)))

    def total_weight(self) -> float:
        return float(np.triu(self.W_adj).sum())


@dataclass(frozen=True)
class KEquipartition:
    """Split into ``k`` groups of exactly ``m`` vertices each."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 2:
            raise SpecValidationError("need at least 2 groups")
        if self.m < 1:
            raise SpecValidationError("group size must be positive")

    @classmethod
    def for_graph(cls, n: int, k: int) -> "KEquipartition":
        if k < 2 or n % k != 0:
            raise SpecValidationError(f"k={k} must be >= 2 and divide n={n}")
        return cls(k=k, m=n // k)

    @property
    def n(self) -> int:
        return self.k * self.m


@dataclass(frozen=True, eq=False)
class Gpkc:
    """Knapsack-constrained partition: positive vertex weights ``a``, capacity ``W``."""

    a: np.ndarray
    W: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise SpecValidationError("vertex weights must form a nonempty vector")
        if not (np.isfinite(a).all() and np.isfinite(self.W)):
            raise SpecValidationError("vertex weights and the capacity must be finite")
        if np.any(a <= 0):
            raise SpecValidationError("vertex weights must be positive")
        if np.any(a > self.W + _WEIGHT_TOL):
            raise SpecValidationError("a vertex weight exceeds the capacity bound")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "W", float(self.W))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gpkc)
            and self.W == other.W
            and np.array_equal(self.a, other.a)
        )

    @property
    def n(self) -> int:
        return int(self.a.size)


PartitionSpec = KEquipartition | Gpkc


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex groups covering ``range(n)``, held in canonical order."""

    n: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        canon = []
        for grp in self.groups:
            g = tuple(sorted(int(v) for v in grp))
            if not g:
                raise ValueError("empty group")
            if len(set(g)) != len(g):
                raise ValueError("repeated vertex inside a group")
            if any(v < 0 or v >= self.n for v in g):
                raise ValueError("vertex index out of range")
            if seen.intersection(g):
                raise ValueError("groups are not disjoint")
            seen.update(g)
            canon.append(g)
        if len(seen) != self.n:
            raise ValueError("groups do not cover all vertices")
        canon.sort(key=lambda g: g[0])
        object.__setattr__(self, "groups", tuple(canon))

    @classmethod
    def from_groups(cls, n: int, groups) -> "Partition":
        return cls(n=n, groups=tuple(tuple(g) for g in groups))

    @classmethod
    def from_assignment(cls, labels) -> "Partition":
        labels = np.asarray(labels)
        by_label: dict = {}
        for v, lab in enumerate(labels):
            by_label.setdefault(int(lab), []).append(v)
        return cls(n=labels.size, groups=tuple(tuple(g) for g in by_label.values()))

    @property
    def k(self) -> int:
        return len(self.groups)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    def assignment(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        for t, grp in enumerate(self.groups):
            out[list(grp)] = t
        return out

    def feasible_for(self, spec: PartitionSpec) -> bool:
        if isinstance(spec, KEquipartition):
            return self.k == spec.k and all(len(g) == spec.m for g in self.groups)
        sums = [float(spec.a[list(g)].sum()) for g in self.groups]
        return all(s <= spec.W + _WEIGHT_TOL for s in sums)

    def validate_for(self, spec: PartitionSpec) -> None:
        if not self.feasible_for(spec):
            raise SpecValidationError("partition violates its problem requirements")


def laplacian(g: GraphInstance, scale: float = 1.0) -> np.ndarray:
    """Weighted Laplacian Diag(W e) - W of the weights scale * W; symmetric PSD with zero
    row sums. Scaling before the row sums keeps them finite wherever the scaled ones are."""
    W = scale * g.W_adj
    return np.diag(W.sum(axis=1)) - W


def cut_value(g: GraphInstance, p: Partition) -> float:
    """Total weight of edges whose endpoints land in different groups.

    Evaluated as half the trace inner product of the Laplacian with the group
    co-membership indicator Gram matrix.
    """
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} vertices, graph has {g.n}")
    L = laplacian(g)
    assign = p.assignment()
    same = assign[:, None] == assign[None, :]
    return 0.5 * float(L[same].sum())


def _sample_graph(rng: np.random.Generator, n: int, density: float, prefix: str,
                  seed: int) -> GraphInstance:
    # Draw order (part of the contract): one uniform per unordered pair for presence,
    # then one integer weight per unordered pair; both in row-major triangle order.
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rows, cols = np.triu_indices(n, k=1)
    present = rng.random(rows.size) < density
    weights = rng.integers(1, EDGE_WEIGHT_HIGH + 1, size=rows.size)
    W = np.zeros((n, n))
    W[rows[present], cols[present]] = weights[present]
    W = W + W.T
    return GraphInstance(n=n, W_adj=W, name=f"{prefix}{int(round(density * 100))}_n{n}_s{seed}")


def gen_rand_graph(n: int, density: float, seed: int) -> GraphInstance:
    """Random graph with edge probability ``density`` and integer weights in {1..100}."""
    return _sample_graph(np.random.default_rng(seed), n, density, "rand", seed)


def gen_gpkc_instance(n: int, density: float, k: int, seed: int) -> tuple[GraphInstance, Gpkc]:
    """Random knapsack-partition instance.

    The graph is drawn exactly as in :func:`gen_rand_graph`; vertex weights are
    integers in {1..1000}. The capacity is calibrated so that roughly 10% of random
    weightings stay feasible for a reference equipartition: the vertices are split
    into k consecutive blocks of size m = n/k (only the block sizes matter), the
    weight vector is permuted 1000 times, the maximum block weight is recorded for
    each permutation, and the capacity is the 100th smallest of those maxima.
    """
    if k < 1 or n % k != 0:
        raise SpecValidationError(f"k={k} must divide n={n}")
    m = n // k
    rng = np.random.default_rng(seed)
    g = _sample_graph(rng, n, density, "GPKCrand", seed)
    a = rng.integers(1, VERTEX_WEIGHT_HIGH + 1, size=n).astype(float)
    perms = rng.permuted(np.tile(a, (CAPACITY_SAMPLES, 1)), axis=1)
    maxima = perms.reshape(CAPACITY_SAMPLES, k, m).sum(axis=2).max(axis=1)
    rank = int(CAPACITY_FEASIBLE_SHARE * CAPACITY_SAMPLES) - 1
    W = float(np.partition(maxima, rank)[rank])
    return g, Gpkc(a=a, W=W)


def format_number(x: float) -> str:
    """A weight as written to instance files and CSV key columns: integral values
    without a decimal point, others by ``repr``."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _records(kind: str, table: np.ndarray, values: np.ndarray) -> str:
    """One line '<kind> <row of table> <value>' per row of the integer ``table``, each
    value written by :func:`format_number`, built by a single %-format."""
    if (values == np.trunc(values)).all() and (np.abs(values) < 2.0 ** 63).all():
        values = values.astype(np.int64)   # "%s" of int(x) is format_number(x) here
    else:
        values = [format_number(x) for x in values.tolist()]
    fields = np.empty((table.shape[0], table.shape[1] + 1), dtype=object)
    fields[:, :-1] = table
    fields[:, -1] = values
    line = kind + " %s" * fields.shape[1] + "\n"
    return (line * fields.shape[0]) % tuple(fields.ravel().tolist())


def write_instance(path, g: GraphInstance, spec: Gpkc | None = None) -> None:
    """Write the text instance format; see the package README for the grammar."""
    path = Path(path)
    if spec is not None and spec.n != g.n:
        raise ValueError("vertex weight vector length does not match the graph")
    rows, cols = np.triu_indices(g.n, k=1)
    mask = g.W_adj[rows, cols] != 0
    rows, cols = rows[mask], cols[mask]
    text = f"# name: {g.name}\ngp {g.n} {rows.size}\n"
    text += _records("e", np.column_stack([rows + 1, cols + 1]), g.W_adj[rows, cols])
    if spec is not None:
        text += f"k {format_number(spec.W)}\n"
        text += _records("v", np.arange(1, g.n + 1)[:, None], spec.a)
    path.write_text(text)


def _number(tok: str, lineno: int, what: str) -> float:
    try:
        val = float(tok)
    except ValueError:
        raise InstanceFormatError(f"bad {what} {tok!r}", lineno) from None
    if not math.isfinite(val):
        raise InstanceFormatError(f"{what} must be finite, got {tok!r}", lineno)
    return val


def _integer(tok: str, lineno: int, what: str) -> int:
    val = _number(tok, lineno, what)
    if not val.is_integer():
        raise InstanceFormatError(f"{what} must be an integer, got {tok!r}", lineno)
    return int(val)


def _edge(line: str, lineno: int, n: int | None) -> tuple[int, int, float]:
    """The endpoints and weight of one edge record, with every check of the grammar;
    ``n`` is None when no header precedes the line."""
    toks = line.split()
    if n is None:
        raise InstanceFormatError("edge before header", lineno)
    if len(toks) != 4:
        raise InstanceFormatError("edge line must be 'e <i> <j> <w>'", lineno)
    i = _integer(toks[1], lineno, "endpoint")
    j = _integer(toks[2], lineno, "endpoint")
    w = _number(toks[3], lineno, "edge weight")
    if not (1 <= i < j <= n):
        raise InstanceFormatError(f"endpoints must satisfy 1 <= i < j <= {n}", lineno)
    if w < 0:
        raise InstanceFormatError("negative edge weight", lineno)
    return i, j, w


def _edge_block(lines: list[str], linenos: np.ndarray, n: int | None, header: int):
    """(i, j, w) rows of the edge records ``lines``, each 'e' and its fields, and the
    first of them that fails a check as an InstanceFormatError, or None; rows from
    that line on are dropped. ``header`` is the header's line number.

    The records are converted by one ``np.loadtxt``, whose number syntax is a subset
    of ``float``'s, and checked as arrays. A record the arrays flag, or every record if
    the conversion fails, runs through :func:`_edge`, which raises with its message.
    """
    if not lines:
        return np.empty((0, 3)), None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # records that are all blank read as no data
            # a generator: no second string per record is held beside the lines
            vals = np.loadtxt((ln[2:] for ln in lines), dtype=float, comments=None, ndmin=2)
        if vals.shape != (len(lines), 3):
            raise ValueError("a record without three fields")
        i, j, w = vals.T
        ok = (linenos > header) & np.isfinite(vals).all(axis=1)
        ok &= (i == np.floor(i)) & (j == np.floor(j)) & (1 <= i) & (i < j) & (j <= (n or 0))
        ok &= w >= 0
    except ValueError:
        vals = np.empty((len(lines), 3))
        ok = np.zeros(len(lines), dtype=bool)
    for t in np.flatnonzero(~ok).tolist():
        lineno = int(linenos[t])
        try:
            vals[t] = _edge(lines[t], lineno, n if lineno > header else None)
        except InstanceFormatError as exc:
            return vals[:t], exc
    return vals, None


def read_instance(path) -> tuple[GraphInstance, Gpkc | None]:
    """Parse an instance file; returns the graph and the knapsack block when present.

    Edge records are read in bulk (:func:`_edge_block`) and every other line on its
    own. A malformed file raises :class:`InstanceFormatError` for its first bad line,
    with that line's number, after the duplicate-edge warnings of the lines before it.
    """
    path = Path(path)
    name = path.stem
    lines = path.read_text().splitlines()
    in_block = [ln.startswith("e ") for ln in lines]
    n = None
    header = len(lines) + 1     # the header's line number
    declared_edges = 0
    capacity = None
    a = None
    seen_vertex = None
    error = None
    try:
        for t in np.flatnonzero(np.logical_not(in_block)).tolist():
            lineno = t + 1
            line = lines[t].strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("name:"):
                    name = body[len("name:"):].strip()
                continue
            toks = line.split()
            kind = toks[0]
            if kind == "gp":
                if n is not None:
                    raise InstanceFormatError("duplicate header", lineno)
                if len(toks) != 3:
                    raise InstanceFormatError("header must be 'gp <n> <edges>'", lineno)
                n = _integer(toks[1], lineno, "vertex count")
                declared_edges = _integer(toks[2], lineno, "edge count")
                if n < 2:
                    raise InstanceFormatError("need at least 2 vertices", lineno)
                header = lineno
            elif kind == "e":   # spaced otherwise: joins the block as 'e <fields>'
                lines[t] = " ".join(toks)
                in_block[t] = True
            elif kind == "k":
                if n is None:
                    raise InstanceFormatError("capacity before header", lineno)
                if capacity is not None:
                    raise InstanceFormatError("duplicate capacity line", lineno)
                if len(toks) != 2:
                    raise InstanceFormatError("capacity line must be 'k <W>'", lineno)
                capacity = _number(toks[1], lineno, "capacity")
                a = np.zeros(n)
                seen_vertex = np.zeros(n, dtype=bool)
            elif kind == "v":
                if a is None:
                    raise InstanceFormatError("vertex weight before capacity line", lineno)
                if len(toks) != 3:
                    raise InstanceFormatError("vertex line must be 'v <i> <a_i>'", lineno)
                i = _integer(toks[1], lineno, "vertex index")
                if not 1 <= i <= n:
                    raise InstanceFormatError(f"vertex index out of range 1..{n}", lineno)
                if seen_vertex[i - 1]:
                    raise InstanceFormatError(f"duplicate vertex weight for {i}", lineno)
                a[i - 1] = _number(toks[2], lineno, "vertex weight")
                seen_vertex[i - 1] = True
            else:
                raise InstanceFormatError(f"unknown record {kind!r}", lineno)
    except InstanceFormatError as exc:
        error = exc

    # the block's records before the first bad line of the other lines
    linenos = np.flatnonzero(in_block) + 1
    if error is not None:
        linenos = linenos[linenos < error.line]
    vals, block_error = _edge_block(list(compress(lines, in_block))[:linenos.size],
                                    linenos, n, header)
    del lines, in_block   # the text is read; free it before W and its copies exist
    if block_error is not None:
        error = block_error
        linenos = linenos[:vals.shape[0]]
    ends = vals[:, :2].astype(np.int64) - 1
    # every record of a pair after its first warns; the last one's weight stands
    key = ends[:, 0] * (n or 0) + ends[:, 1]
    order = np.argsort(key, kind="stable")
    same = key[order[1:]] == key[order[:-1]]
    for t in np.sort(order[1:][same]).tolist():
        i, j = ends[t] + 1
        warnings.warn(f"{path.name}:{linenos[t]}: duplicate edge ({i},{j}), last value wins")
    if error is not None:
        raise error
    if n is None:
        raise InstanceFormatError("missing 'gp' header")
    if vals.shape[0] != declared_edges:
        raise InstanceFormatError(
            f"header declares {declared_edges} edges but {vals.shape[0]} edge lines found"
        )
    last = np.ones(key.size, dtype=bool)
    last[order[:-1][same]] = False
    W = np.zeros((n, n))
    flat = W.ravel()
    flat[key[last]] = vals[last, 2]
    flat[(ends[:, 1] * n + ends[:, 0])[last]] = vals[last, 2]
    # the relaxations' objective is the Laplacian of W / 2 (model.build)
    with np.errstate(over="ignore"):
        overflow = np.flatnonzero(~np.isfinite((0.5 * W).sum(axis=1)))
    if overflow.size:
        raise InstanceFormatError(f"weighted degree of vertex {overflow[0] + 1} overflows")
    g = GraphInstance(n=n, W_adj=W, name=name)
    if capacity is None:
        return g, None
    if not seen_vertex.all():
        missing = int(np.flatnonzero(~seen_vertex)[0]) + 1
        raise InstanceFormatError(f"missing vertex weight for {missing}")
    return g, Gpkc(a=a, W=capacity)
