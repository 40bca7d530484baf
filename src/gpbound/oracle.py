"""Exhaustive ground truth for tiny instances.

Enumeration is canonical (the group holding the smallest unassigned vertex comes
first) so every partition is visited exactly once and ties resolve to the first
minimum found. Hard size caps raise instead of silently truncating.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphInstance, Partition, cut_value

ENUM_CAP = 10 ** 6


class OracleSizeError(ValueError):
    """The instance is too large for exhaustive search."""


class NoFeasiblePartitionError(ValueError):
    """Every set partition violates the capacity bound."""


@dataclass(frozen=True)
class OracleResult:
    opt: float
    argmin: Partition
    enumerated: int


def equipartition_count(n: int, k: int) -> int:
    m = n // k
    return math.factorial(n) // (math.factorial(m) ** k * math.factorial(k))


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for val in row:
            nxt.append(nxt[-1] + val)
        row = nxt
    return row[0]


def _assignment_cut(W: np.ndarray, assign: np.ndarray) -> float:
    diff = assign[:, None] != assign[None, :]
    return 0.5 * float(W[diff].sum())


def brute_force_keq(g: GraphInstance, k: int) -> OracleResult:
    """Minimum-cut equipartition by canonical exhaustive search."""
    n = g.n
    if k < 2 or n % k:
        raise ValueError(f"k={k} must be >= 2 and divide n={n}")
    m = n // k
    total = equipartition_count(n, k)
    if total > ENUM_CAP:
        raise OracleSizeError(f"{total} equipartitions exceed the cap of {ENUM_CAP}")

    W = g.W_adj
    best_val = math.inf
    best_groups: list[tuple[int, ...]] | None = None
    count = 0
    groups: list[tuple[int, ...]] = []

    def recurse(remaining: tuple[int, ...], cut_so_far: float):
        nonlocal best_val, best_groups, count
        if not remaining:
            count += 1
            if cut_so_far < best_val:
                best_val = cut_so_far
                best_groups = list(groups)
            return
        head, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, m - 1):
            group = (head,) + combo
            inside = set(group)
            outside = [v for v in rest if v not in inside]
            added = sum(W[a, b] for a in group for b in outside)
            groups.append(group)
            recurse(tuple(outside), cut_so_far + added)
            groups.pop()

    recurse(tuple(range(n)), 0.0)
    part = Partition.from_groups(n, best_groups)
    return OracleResult(opt=cut_value(g, part), argmin=part, enumerated=count)


def brute_force_gpkc(g: GraphInstance, a: np.ndarray, W_cap: float) -> OracleResult:
    """Minimum-cut capacity-feasible partition over all set partitions.

    Enumerates restricted-growth strings with capacity pruning; the feasible
    count is exact because group weights only grow along a prefix.
    """
    n = g.n
    a = np.asarray(a, dtype=float)
    if a.size != n:
        raise ValueError("vertex weight vector length does not match the graph")
    if bell_number(n) > ENUM_CAP:
        raise OracleSizeError(f"Bell({n}) exceeds the cap of {ENUM_CAP}")

    W = g.W_adj
    assign = np.zeros(n, dtype=np.int64)
    weights = [0.0] * n
    best_val = math.inf
    best_assign: np.ndarray | None = None
    feasible = 0

    def recurse(v: int, blocks: int):
        nonlocal best_val, best_assign, feasible
        if v == n:
            feasible += 1
            val = _assignment_cut(W, assign)
            if val < best_val:
                best_val = val
                best_assign = assign.copy()
            return
        for blk in range(blocks + 1):
            if weights[blk] + a[v] > W_cap + 1e-9:
                continue
            assign[v] = blk
            weights[blk] += a[v]
            recurse(v + 1, blocks + (1 if blk == blocks else 0))
            weights[blk] -= a[v]

    if a[0] > W_cap + 1e-9:
        raise NoFeasiblePartitionError("no capacity-feasible partition exists")
    weights[0] = a[0]  # vertex 0 is pinned to block 0 by the growth-string canon
    recurse(1, 1)
    if best_assign is None:
        raise NoFeasiblePartitionError("no capacity-feasible partition exists")
    part = Partition.from_assignment(best_assign)
    return OracleResult(opt=cut_value(g, part), argmin=part, enumerated=feasible)
