"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s``
to watch them live. The sandwich checks are hard assertions; the bound-method
comparison (criterion 7) reports its outcome and only warns on a direction flip,
since that behavior is empirical rather than guaranteed.
"""
import dataclasses
import logging
import time
import warnings

import numpy as np
import pytest

from gpbound import admm, certify, model, oracle, rounding
from gpbound.admm import AdmmParams, residuals, solve, update_y
from gpbound.graphs import GraphInstance, KEquipartition, gen_gpkc_instance, gen_rand_graph
from gpbound.symm import precision_split

log = logging.getLogger("acceptance")


def announce(cid: str, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid} {name}: {status} {detail}".rstrip())
    assert ok, f"{cid} {name}: {detail}"


def complete_graph(n):
    W = np.ones((n, n))
    np.fill_diagonal(W, 0.0)
    return GraphInstance(n=n, W_adj=W, name=f"K{n}")


KEQ_CASES = [
    # twenty fixed-seed (n, density, k, seed) combinations
    (6, 0.2, 2, 1), (6, 0.5, 2, 2), (6, 0.8, 2, 3),
    (6, 0.2, 3, 4), (6, 0.5, 3, 5), (6, 0.8, 3, 6),
    (8, 0.2, 2, 7), (8, 0.5, 2, 8), (8, 0.8, 2, 9),
    (8, 0.2, 4, 10), (8, 0.5, 4, 11), (8, 0.8, 4, 12),
    (10, 0.2, 2, 13), (10, 0.5, 2, 14), (10, 0.8, 2, 15),
    (10, 0.2, 5, 16), (10, 0.5, 5, 17), (10, 0.8, 5, 18),
    (10, 0.5, 2, 101), (8, 0.8, 4, 202),
]

GPKC_CASES = [
    # ten fixed-seed (n, density, k_for_capacity, seed) combinations
    (7, 0.5, 7, 1), (7, 0.8, 7, 2), (7, 0.2, 7, 3),
    (8, 0.5, 2, 4), (8, 0.8, 2, 5), (8, 0.2, 4, 6), (8, 0.8, 4, 7),
    (9, 0.5, 3, 8), (9, 0.8, 3, 9), (9, 0.2, 3, 10),
]


class TestCriterion1CompleteGraphIdentity:
    def test_dnn_bound_and_vc_ub_equal_closed_form(self):
        t0 = time.perf_counter()
        worst = 0.0
        for n, k in [(8, 2), (12, 3), (20, 4)]:
            m = n // k
            expected = (n * n - n * m) / 2.0
            g = complete_graph(n)
            p = model.build_keq_dnn(g, k)
            res = solve(p)
            lb = certify.certify_bound(p, res).value
            ub = rounding.vc_plus_two_opt(g, res.state.X, KEquipartition(k=k, m=m),
                                          samples=20, seed=0).ub
            worst = max(worst, abs(lb - expected), abs(ub - expected))
            assert lb == pytest.approx(expected, abs=1e-2)
            assert ub == pytest.approx(expected, abs=1e-2)
        elapsed = time.perf_counter() - t0
        announce("C1", "complete-graph identity", elapsed < 30.0,
                 f"(max deviation {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2KeqSandwich:
    def test_twenty_instances_two_tolerances(self):
        t0 = time.perf_counter()
        assert len(KEQ_CASES) == 20
        violations = 0
        for n, density, k, seed in KEQ_CASES:
            g = gen_rand_graph(n, density, seed)
            opt = oracle.brute_force_keq(g, k).opt
            p = model.build_keq_dnn(g, k)
            spec = KEquipartition.for_graph(n, k)
            for tol in (1e-3, 1e-5):
                res = solve(p, AdmmParams(eps_tol=tol))
                lb = certify.certify_bound(p, res, method="eig").value
                vc = rounding.vc_plus_two_opt(g, res.state.X, spec, samples=30, seed=seed)
                hyp = rounding.hyp_plus_two_opt(g, res.state.X, spec, samples=30, seed=seed)
                if not (lb <= opt + 1e-9):
                    violations += 1
                if not (opt <= vc.ub + 1e-9 and opt <= hyp.ub + 1e-9):
                    violations += 1
                vc.partition.validate_for(spec)
                hyp.partition.validate_for(spec)
        elapsed = time.perf_counter() - t0
        announce("C2", "equipartition oracle sandwich",
                 violations == 0 and elapsed < 300.0,
                 f"({len(KEQ_CASES)} instances x 2 tolerances, "
                 f"{violations} violations, {elapsed:.1f}s)")


class TestCriterion3GpkcSandwich:
    def test_ten_instances(self):
        t0 = time.perf_counter()
        assert len(GPKC_CASES) == 10
        violations = 0
        for n, density, k, seed in GPKC_CASES:
            g, spec = gen_gpkc_instance(n, density, k, seed)
            opt = oracle.brute_force_gpkc(g, spec.a, spec.W).opt
            p = model.build_gpkc_dnn(g, spec)
            res = solve(p)
            lb = certify.certify_bound(p, res, method="lp").value
            vc = rounding.vc_plus_two_opt(g, res.state.X, spec, samples=30, seed=seed)
            if not (lb <= opt + 1e-9 and opt <= vc.ub + 1e-9):
                violations += 1
            vc.partition.validate_for(spec)
        elapsed = time.perf_counter() - t0
        announce("C3", "knapsack oracle sandwich",
                 violations == 0 and elapsed < 300.0,
                 f"({len(GPKC_CASES)} instances, {violations} violations, {elapsed:.1f}s)")


class TestCriterion4RelaxationNesting:
    def test_sdp_below_dnn_everywhere(self):
        # certified values carry O(eps_tol * scale) noise, so the nesting check
        # runs the solver tighter than the asserted 1e-6 relative slack
        prm = AdmmParams(eps_tol=1e-8)
        checked = 0
        for n, density, k, seed in KEQ_CASES:
            g = gen_rand_graph(n, density, seed)
            sdp = model.build_keq_sdp(g, k)
            dnn = model.build_keq_dnn(g, k)
            lb_sdp = certify.certify_bound(sdp, solve(sdp, prm)).value
            lb_dnn = certify.certify_bound(dnn, solve(dnn, prm)).value
            assert lb_sdp <= lb_dnn + 1e-6 * (1.0 + abs(lb_dnn))
            checked += 1
        for n, density, k, seed in GPKC_CASES:
            g, spec = gen_gpkc_instance(n, density, k, seed)
            sdp = model.build_gpkc_sdp(g, spec)
            dnn = model.build_gpkc_dnn(g, spec)
            lb_sdp = certify.certify_bound(sdp, solve(sdp, prm)).value
            lb_dnn = certify.certify_bound(dnn, solve(dnn, prm)).value
            assert lb_sdp <= lb_dnn + 1e-6 * (1.0 + abs(lb_dnn))
            checked += 1
        announce("C4a", "relaxation nesting", True, f"({checked} instances)")

    def test_cutting_loop_bound_non_decreasing(self):
        rounds_seen = 0
        for g, spec in [
            (gen_rand_graph(8, 0.5, 8), KEquipartition.for_graph(8, 2)),
            (gen_rand_graph(10, 0.2, 13), KEquipartition.for_graph(10, 2)),
            gen_gpkc_instance(8, 0.5, 2, 4),
        ]:
            trace = certify.cutting_loop(g, spec, max_rounds=4)
            assert 1 <= len(trace) <= 4
            for earlier, later in zip(trace, trace[1:]):
                assert later.bound >= earlier.bound - 1e-6 * (1.0 + abs(earlier.bound))
            rounds_seen += len(trace)
        announce("C4b", "cutting-loop monotone bounds", True, f"({rounds_seen} rounds)")


class TestCriterion5ConvergenceAtScale:
    def test_n100_dnn_solves(self):
        g = gen_rand_graph(100, 0.8, 42)
        times = []
        for k in (2, 5, 10):
            p = model.build_keq_dnn(g, k)
            prm = AdmmParams(eps_tol=1e-5, max_iter=20000)
            t0 = time.perf_counter()
            # untagged, the problem has no xbar, so only the residual test stops it
            res = solve(dataclasses.replace(p, tag=model.ProblemTag("custom", "dnn")), prm)
            dt = time.perf_counter() - t0
            times.append(dt)
            assert res.status == "converged"
            assert res.iterations <= 20000
            assert res.residuals.max_residual <= 1e-5
            assert dt < 120.0
            # the same iterates, which the bound test can only stop sooner
            tagged = solve(p, prm)
            assert tagged.status in admm.STOPPED and tagged.iterations <= res.iterations
        announce("C5", "n=100 convergence at reference settings", True,
                 "(" + ", ".join(f"{t:.1f}s" for t in times) + ")")


class TestCriterion6SolverMicroInvariants:
    def test_psd_split_trials(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 14))
            A = rng.normal(size=(n, n))
            M = A + A.T
            pos, neg, _ = precision_split(M, False)
            nrm = max(1.0, np.linalg.norm(M))
            assert np.linalg.norm(pos + neg - M) <= 1e-8 * nrm
            assert abs((pos * neg).sum()) <= 1e-8 * nrm * nrm
        announce("C6a", "spectral split trials", True, "(1000 trials)")

    def test_per_iteration_complementarity(self):
        events = []

        def cb(k, state, rec, primal, dual):
            nX = np.linalg.norm(state.X)
            nZ = np.linalg.norm(state.Z)
            events.append(abs((state.X * state.Z).sum()) <= 1e-8 * max(1.0, nX * nZ))

        for seed in range(6):
            g = gen_rand_graph(12, 0.8, seed)
            solve(model.build_keq_dnn(g, 2), AdmmParams(eps_tol=1e-7, max_iter=400),
                  callback=cb)
        g, spec = gen_gpkc_instance(9, 0.5, 3, 2)
        solve(model.build_gpkc_dnn(g, spec), AdmmParams(max_iter=400), callback=cb)
        announce("C6b", "per-iteration complementarity", len(events) >= 1000 and all(events),
                 f"({len(events)} iterations)")

    def test_multiplier_system_residual(self):
        rng = np.random.default_rng(1)
        problems = []
        for seed in (0, 1):
            g = gen_rand_graph(6, 0.8, seed)
            problems.append(model.build_keq_dnn(g, 3))
            gg, spec = gen_gpkc_instance(6, 0.5, 2, seed)
            problems.append(model.build_gpkc_dnn(gg, spec))
        # a DNN+MET round with 60 cuts (test_admm's warm_round), whose factor is sparse
        keq = model.build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3)
        problems.append(model.add_cuts(keq, model.separate_met(solve(keq).state.X, 60)))
        assert problems[-1].q == 60
        checks = 0
        for p in problems:
            fac = admm.factor_normal_matrix(p)
            G = p.stacked_rows()
            Q = (G @ G.T).toarray()
            if p.q:
                idx = np.arange(p.m, p.m + p.q)
                Q[idx, idx] += 1.0
            for _ in range(250):
                st = _random_state(p, rng)
                y, ybar = update_y(st, fac, p)
                rhs = _rhs_of(st, p)
                lhs = Q @ np.concatenate([y, ybar])
                assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))
                checks += 1
        announce("C6c", "multiplier system residual", checks >= 1000, f"({checks} trials)")

    def test_residual_record_reproduction(self):
        rng = np.random.default_rng(2)
        g = gen_rand_graph(7, 0.8, 3)
        p1 = model.build_keq_dnn(g, 7)
        gg, spec = gen_gpkc_instance(6, 0.5, 3, 5)
        p2 = model.build_gpkc_dnn(gg, spec)
        checks = 0
        for p in (p1, p2):
            for _ in range(500):
                st = _random_state(p, rng)
                rec = residuals(st, p)
                ref = _independent_residuals(st, p)
                assert np.allclose(rec.as_tuple(), ref, rtol=1e-9, atol=1e-12)
                checks += 1
        announce("C6d", "residual record reproduction", checks >= 1000, f"({checks} trials)")


def _random_state(p, rng):
    n, m, q = p.n, p.m, p.q
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, n))
    D = rng.normal(size=(n, n))
    return admm.AdmmState(
        X=A + A.T, s=rng.normal(size=q), y=rng.normal(size=m), ybar=rng.normal(size=q),
        Z=B + B.T, S=D + D.T, v=rng.normal(size=q),
        sigma=float(rng.uniform(0.1, 5.0)),
    )


def _rhs_of(st, p):
    W0 = st.S + st.Z - p.C + st.X / st.sigma
    top = p.b / st.sigma - p.eq_apply(W0)
    if p.q:
        bot = -p.ineq_apply(W0) + st.v + st.s / st.sigma
        return np.concatenate([top, bot])
    return top


def _independent_residuals(st, p):
    # dense re-evaluation of the five stopping measures, sharing no operator code
    n = p.n
    A_dense = np.stack([p.A[i].toarray().reshape(n, n) for i in range(p.m)])
    dual_mat = p.C - st.Z - st.S
    for i in range(p.m):
        dual_mat = dual_mat - st.y[i] * A_dense[i]
    AX = np.array([(A_dense[i] * st.X).sum() for i in range(p.m)])
    if p.q:
        B_dense = np.stack([p.B[j].toarray().reshape(n, n) for j in range(p.q)])
        for j in range(p.q):
            dual_mat = dual_mat - st.ybar[j] * B_dense[j]
        BX = np.array([(B_dense[j] * st.X).sum() for j in range(p.q)])
    eps_dc = np.linalg.norm(dual_mat) / (1 + np.linalg.norm(p.C))
    eps_pc = np.linalg.norm(AX - p.b) / (1 + np.linalg.norm(p.b))
    if p.q:
        eps_dc += np.linalg.norm(st.v - st.ybar) / (1 + np.linalg.norm(st.y))
        eps_pc += np.linalg.norm(BX - st.s) / (1 + np.linalg.norm(st.s))
    clipX = np.minimum(np.maximum(st.X, p.box_lo), p.box_hi)
    eps_pb = np.linalg.norm(st.X - clipX) / (1 + np.linalg.norm(st.X))
    clipXS = np.minimum(np.maximum(st.X - st.S, p.box_lo), p.box_hi)
    eps_opt_m = np.linalg.norm(st.X - clipXS) / (
        1 + np.linalg.norm(st.X) + np.linalg.norm(st.S))
    if p.q:
        clip_sv = np.minimum(np.maximum(st.s - st.v, p.l), p.u)
        eps_opt_v = np.linalg.norm(st.s - clip_sv) / (
            1 + np.linalg.norm(st.v) + np.linalg.norm(st.s))
    else:
        eps_opt_v = 0.0
    return (eps_dc, eps_pc, eps_pb, eps_opt_m, eps_opt_v)


class TestCriterion7BoundMethodComparison:
    def test_reported_dominance_pattern(self):
        g = gen_rand_graph(100, 0.8, 42)
        observed = {}
        for k in (2, 20):
            p = model.build_keq_dnn(g, k)
            res = solve(p, AdmmParams(eps_tol=1e-12, max_iter=40))
            eig = certify.certify_bound(p, res, method="eig").value
            lp = certify.lp_lower_bound(p, res.state.Z).value
            observed[k] = (eig, lp)
            print(f"ACCEPTANCE C7 detail: k={k} iterations={res.iterations} "
                  f"eig={eig:.2f} lp={lp:.2f}")
        expected_k2 = observed[2][0] >= observed[2][1]
        expected_k20 = observed[20][1] >= observed[20][0]
        if not (expected_k2 and expected_k20):
            warnings.warn(
                "bound-method dominance differs from the usual pattern: "
                f"{observed} (reported, not enforced)"
            )
        announce("C7", "bound-method comparison at matched iterations", True,
                 f"(k=2 eig>=lp: {expected_k2}, k=20 lp>=eig: {expected_k20})")


class TestCriterion8HeuristicFuzz:
    def test_ten_thousand_partitions_and_determinism(self):
        total = 0
        g1 = gen_rand_graph(10, 0.8, 1)
        spec1 = KEquipartition.for_graph(10, 5)
        rngmat = np.random.default_rng(3).normal(size=(10, 10))
        X1 = rngmat @ rngmat.T
        a = rounding.vc_round_keq(g1, X1, 5, samples=2500, seed=11)
        b = rounding.vc_round_keq(g1, X1, 5, samples=2500, seed=11)
        assert a.partition == b.partition and a.ub == b.ub
        a.partition.validate_for(spec1)
        total += a.samples_used

        c = rounding.hyperplane_round(g1, X1, 5, samples=2500, seed=12)
        d = rounding.hyperplane_round(g1, X1, 5, samples=2500, seed=12)
        assert c.partition == d.partition and c.ub == d.ub
        c.partition.validate_for(spec1)
        total += c.samples_used

        g2, spec2 = gen_gpkc_instance(9, 0.5, 3, 6)
        e = rounding.vc_round_gpkc(g2, X1[:9, :9], spec2.a, spec2.W, samples=2500, seed=13)
        f = rounding.vc_round_gpkc(g2, X1[:9, :9], spec2.a, spec2.W, samples=2500, seed=13)
        assert e.partition == f.partition and e.ub == f.ub
        e.partition.validate_for(spec2)
        total += e.samples_used

        # explicit per-sample feasibility sweep across specs
        for seed in range(1250):
            r1 = rounding.vc_round_keq(g1, X1, 2, samples=1, seed=seed)
            r1.partition.validate_for(KEquipartition.for_graph(10, 2))
            r2 = rounding.vc_round_gpkc(g2, X1[:9, :9], spec2.a, spec2.W,
                                        samples=1, seed=seed)
            r2.partition.validate_for(spec2)
            total += r1.samples_used + r2.samples_used

        announce("C8", "heuristic fuzz and determinism", total >= 10000,
                 f"({total} rounded partitions)")
