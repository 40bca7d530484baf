"""Correctness gate, run before any timing: lb <= opt <= ub on brute-forced instances.

Every gate instance is solved in its DNN and SDP relaxations and certified by both
routes (eigenvalue and LP). A bound that is not a bound makes every timing
meaningless, so any violation stops the run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

from gpbound import (
    AdmmParams,
    KEquipartition,
    brute_force_gpkc,
    brute_force_keq,
    build_gpkc_dnn,
    build_gpkc_sdp,
    build_keq_dnn,
    build_keq_sdp,
    certify_bound,
    cut_value,
    gen_gpkc_instance,
    gen_rand_graph,
    solve,
    vc_plus_two_opt,
)

TOL = 1e-6
KEQ_CASES = ((12, 3), (12, 4))        # (n, k), brute-forced by brute_force_keq
GPKC_CASE = (10, 2)                   # (n, k used to calibrate the capacity)
DENSITY = 0.5
SOLVE = AdmmParams(eps_tol=1e-5)


@dataclass
class GateResult:
    oracle_s: float = 0.0
    enumerated: int = 0
    checks: int = 0
    violations: list[str] = field(default_factory=list)


def sandwich_violations(label: str, lbs: dict[str, float], opt: float, ub: float) -> list[str]:
    """One message per certified bound above ``opt``, and one if ``ub`` undercuts it.

    An LP bound of -inf (declared infeasible adjustment) is valid, only useless.
    """
    tol = TOL * max(1.0, abs(opt))
    out = [f"{label}: {route} lb {lb!r} > opt {opt!r}"
           for route, lb in lbs.items() if math.isnan(lb) or lb > opt + tol]
    if not ub >= opt - tol:
        out.append(f"{label}: ub {ub!r} < opt {opt!r}")
    return out


def _check(res: GateResult, label, g, spec, problems, opt) -> None:
    lbs = {}
    X = None
    for relax, problem in problems:
        result = solve(problem, SOLVE)
        if relax == "dnn":
            X = result.state.X
        for route in ("eig", "lp"):
            lbs[f"{relax}/{route}"] = certify_bound(problem, result, method=route).value
    heur = vc_plus_two_opt(g, X, spec, samples=100, seed=0)
    if not heur.partition.feasible_for(spec):
        res.violations.append(f"{label}: ub partition infeasible")
    if abs(cut_value(g, heur.partition) - heur.ub) > TOL * max(1.0, abs(heur.ub)):
        res.violations.append(f"{label}: ub {heur.ub!r} is not the cut of its partition")
    res.violations += sandwich_violations(label, lbs, opt, heur.ub)
    res.checks += len(lbs) + 1


def run_gate(seed: int) -> GateResult:
    """Brute-force keq n=12 (k=3, 4) and gpkc n=10 with instance seeds from ``seed``."""
    res = GateResult()
    for t, (n, k) in enumerate(KEQ_CASES):
        g = gen_rand_graph(n, DENSITY, 1000 * seed + t)
        t0 = perf_counter()
        oracle = brute_force_keq(g, k)
        res.oracle_s += perf_counter() - t0
        res.enumerated += oracle.enumerated
        problems = [("dnn", build_keq_dnn(g, k)), ("sdp", build_keq_sdp(g, k))]
        _check(res, f"keq {g.name} k={k}", g, KEquipartition.for_graph(n, k), problems,
               oracle.opt)
    n, k = GPKC_CASE
    g, spec = gen_gpkc_instance(n, DENSITY, k, 1000 * seed + len(KEQ_CASES))
    t0 = perf_counter()
    oracle = brute_force_gpkc(g, spec.a, spec.W)
    res.oracle_s += perf_counter() - t0
    res.enumerated += oracle.enumerated
    problems = [("dnn", build_gpkc_dnn(g, spec)), ("sdp", build_gpkc_sdp(g, spec))]
    _check(res, f"gpkc {g.name}", g, spec, problems, oracle.opt)
    return res
