"""A fixed reference kernel: how fast this host runs gpbound-like work right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
minutes, and the drift outlasts a whole run, so no statistic over one run's
passes removes it. The kernel below uses only numpy and Python, never gpbound,
and mixes the two kinds of work the workloads do: dense eigendecompositions
with fresh n-by-n temporaries (as in an ADMM sweep) and many small numpy calls
driven from Python (as in rounding). It runs before every pass and after the
last one. Each pass's time is scaled by ``REF_NOMINAL_S`` over the kernel's time
around it, which expresses it in seconds on a host where the kernel takes
``REF_NOMINAL_S``. No change to gpbound can change the kernel's time.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.25
_N = 300
_SWEEPS = 12
_ROUNDS = 200


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed kernel (same inputs every call)."""
    rng = np.random.default_rng(0)
    B = rng.standard_normal((_N, _N))
    B = 0.5 * (B + B.T)
    S = rng.standard_normal((200, 200))
    idx = np.arange(200)
    t0 = perf_counter()
    X = B.copy()
    for _ in range(_SWEEPS):
        w, V = np.linalg.eigh(X)
        N = (V * np.maximum(w, 0.0)) @ V.T - X
        X = np.clip(0.5 * (N + N.T), -1.0, 1.0) + 0.1 * B
    for s in range(_ROUNDS):
        left = idx
        for _ in range(8):
            i = left[s % left.size]
            rest = left[left != i]
            take = rest[np.argsort(-S[i][rest], kind="stable")[:24]]
            left = np.setdiff1d(left, np.append(take, i), assume_unique=True)
    return perf_counter() - t0
