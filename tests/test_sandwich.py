"""Master check: lb <= opt <= ub against the brute-force oracle, at loose solver caps
and at the default one.

A certificate must be a bound at any iterate, so every relaxation is solved for
only 5, 20 or 50 sweeps and certified by both routes; at the default cap every
round must also stop by a test, which checks the bound where such a solve stops.
The instance grid and its seeds are fixed; each case prints its seed.
"""
from functools import lru_cache

import pytest

from gpbound import oracle
from gpbound.admm import STOPPED, AdmmParams
from gpbound.certify import cutting_loop
from gpbound.graphs import KEquipartition, cut_value, gen_gpkc_instance, gen_rand_graph
from gpbound.rounding import vc_plus_two_opt

# (problem, n, k, density, instance seed)
# the last two gpkc instances have conflict pairs (two vertices heavier together than W)
CASES = (("keq", 10, 2, 0.5, 21), ("keq", 9, 3, 0.5, 22), ("gpkc", 9, 3, 0.5, 23),
         ("gpkc", 7, 7, 0.2, 3), ("gpkc", 10, 5, 0.5, 2))
RELAXATIONS = ("sdp", "dnn", "dnn+met")
METHODS = ("eig", "lp")
CAPS = (5, 20, 50, AdmmParams().max_iter)
TOL = 1e-9


@lru_cache(maxsize=None)
def instance(case):
    problem, n, k, density, seed = case
    if problem == "keq":
        g = gen_rand_graph(n, density, seed)
        spec = KEquipartition.for_graph(n, k)
        return g, spec, oracle.brute_force_keq(g, k).opt
    g, spec = gen_gpkc_instance(n, density, k, seed)
    return g, spec, oracle.brute_force_gpkc(g, spec.a, spec.W).opt


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("relaxation", RELAXATIONS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-n{c[1]}-k{c[2]}-s{c[4]}")
def test_lb_opt_ub(case, relaxation, method, cap):
    print(f"sandwich case={case} seed={case[4]} relaxation={relaxation} "
          f"method={method} max_iter={cap}")
    g, spec, opt = instance(case)
    last = {}
    rounds = cutting_loop(g, spec, relaxation, AdmmParams(max_iter=cap), max_rounds=3,
                          method=method, callback=lambda k, view, *_: last.update(X=view.X))
    tol = TOL * max(1.0, abs(opt))
    for rnd in rounds:
        assert rnd.bound <= opt + tol, (case, relaxation, method, cap, rnd)
        if cap == AdmmParams().max_iter:
            assert rnd.status in STOPPED, (case, relaxation, method, rnd)
    heur = vc_plus_two_opt(g, last["X"], spec, samples=20, seed=case[4])
    assert heur.partition.feasible_for(spec)
    assert heur.ub == pytest.approx(cut_value(g, heur.partition))
    assert opt <= heur.ub + tol, (case, heur.ub, opt)
