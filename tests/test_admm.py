import numpy as np
import pytest
import scipy.sparse as sp

from gpbound import admm
from gpbound.admm import (
    AdmmParams,
    AdmmState,
    DependentRowsError,
    SolverDivergedError,
    adapt_sigma,
    box_support_value,
    dual_objective,
    factor_normal_matrix,
    residuals,
    solve,
    sweep,
    update_y,
)
from gpbound.graphs import GraphInstance, gen_gpkc_instance, gen_rand_graph
from gpbound.certify import certify_bound
from gpbound.model import (SdpProblem, add_cuts, build_gpkc_dnn, build_gpkc_sdp, build_keq_dnn,
                           build_keq_sdp, separate_met)
from gpbound.symm import psd_split


def diag_problem(c_diag, box_lo=None):
    n = len(c_diag)
    A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
    return SdpProblem(n=n, C=np.diag(np.asarray(c_diag, float)), A=A,
                      b=np.ones(n), box_lo=box_lo)


def ineq_toy_problem():
    """n=2 toy with one slack row; its optimum is known in closed form.

    min <C, X> with C = [[1, .8], [.8, 1]], diag(X) = e, -1 <= X_12 <= 0.3.
    The optimum sits at X_12 = -1 with objective 0.4.
    """
    n = 2
    A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
    B = sp.csr_matrix(([0.5, 0.5], ([0, 0], [1, 2])), shape=(1, n * n))
    C = np.array([[1.0, 0.8], [0.8, 1.0]])
    return SdpProblem(n=n, C=C, A=A, b=np.ones(n),
                      B=B, l=np.array([-1.0]), u=np.array([0.3]))


def ineq_toy_kkt_state(sigma=1.0):
    # analytic saddle point of the toy above: y = (.5, .5), ybar = v = .6,
    # Z = [[.5, .5], [.5, .5]], X = [[1, -1], [-1, 1]], s = -1, S = 0
    return AdmmState(
        X=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        s=np.array([-1.0]),
        y=np.array([0.5, 0.5]),
        ybar=np.array([0.6]),
        Z=np.array([[0.5, 0.5], [0.5, 0.5]]),
        S=np.zeros((2, 2)),
        v=np.array([0.6]),
        sigma=sigma,
    )


def random_state(problem, rng, sigma=1.0):
    n, m, q = problem.n, problem.m, problem.q
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, n))
    D = rng.normal(size=(n, n))
    return AdmmState(
        X=A + A.T, s=rng.normal(size=q), y=rng.normal(size=m),
        ybar=rng.normal(size=q), Z=B + B.T, S=D + D.T,
        v=rng.normal(size=q), sigma=sigma,
    )


class TestNormalFactor:
    def test_diag_only_rows_give_identity(self):
        p = diag_problem([1.0, 2.0, 3.0])
        fac = factor_normal_matrix(p)
        assert np.allclose(fac.R, np.eye(3))

    def test_reconstruction_within_tolerance(self):
        g = gen_rand_graph(4, 0.8, 0)
        p = build_keq_dnn(g, 2)
        fac = factor_normal_matrix(p)
        G = p.stacked_rows()
        Q = (G @ G.T).toarray()
        err = np.linalg.norm(fac.R @ fac.R.T - Q) / np.linalg.norm(Q)
        assert err <= 1e-10

    def test_duplicated_row_reported(self):
        n = 3
        A = sp.csr_matrix(([1.0, 1.0], ([0, 1], [0, 0])), shape=(2, n * n))
        p = SdpProblem(n=n, C=np.eye(n), A=A, b=np.ones(2))
        with pytest.raises(DependentRowsError):
            factor_normal_matrix(p)

    def test_duplicated_keq_row_named_from_the_gram_matrix(self):
        # a keq DNN at n=40 with its diagonal row 3 appended again as row 80:
        # exactly that row is named, by the factorization and by solve (which
        # factors the row-equilibrated copy), and the diagnosis stays near the
        # size of the 81 x 81 Gram matrix instead of densifying 81 x 1600 rows
        import tracemalloc

        p = build_keq_dnn(gen_rand_graph(40, 0.5, 1), 4)
        dup = SdpProblem(n=p.n, C=p.C, A=sp.vstack([p.A, p.A[3]]), b=np.append(p.b, 1.0),
                         box_lo=p.box_lo, tag=p.tag)
        tracemalloc.start()
        try:
            with pytest.raises(DependentRowsError) as info:
                factor_normal_matrix(dup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.rows == (80,)
        assert peak < 500_000
        with pytest.raises(DependentRowsError) as info:
            solve(dup)
        assert info.value.rows == (80,)


    def test_solve_reads_the_factor_in_place(self):
        # the triangular solves run on R itself: no copy of the (m+q)^2 factor,
        # and the solution still satisfies the normal equations
        import tracemalloc

        p = build_keq_dnn(gen_rand_graph(100, 0.5, 0), 4)
        fac = factor_normal_matrix(p)
        rhs = np.random.default_rng(0).normal(size=fac.m + fac.q)
        fac.solve(rhs)
        tracemalloc.start()
        try:
            x = fac.solve(rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fac.R.nbytes / 10
        G = p.stacked_rows()
        assert np.linalg.norm((G @ G.T) @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestUpdateY:
    def test_kkt_point_is_fixed(self):
        p = ineq_toy_problem()
        st = ineq_toy_kkt_state(sigma=0.7)
        fac = factor_normal_matrix(p)
        y, ybar = update_y(st, fac, p)
        assert np.allclose(y, st.y, atol=1e-8)
        assert np.allclose(ybar, st.ybar, atol=1e-8)

    def test_reduces_to_eq_block_without_ineq(self):
        p = diag_problem([2.0, -1.0, 0.5])
        rng = np.random.default_rng(1)
        st = random_state(p, rng, sigma=1.3)
        fac = factor_normal_matrix(p)
        y, ybar = update_y(st, fac, p)
        assert ybar.size == 0
        W0 = st.S + st.Z - p.C + st.X / st.sigma
        rhs = p.b / st.sigma - p.eq_apply(W0)
        # AA* = I for diagonal rows, so y should equal the rhs directly
        assert np.allclose(y, rhs, atol=1e-12)

    def test_linear_system_residual(self):
        rng = np.random.default_rng(2)
        g = gen_rand_graph(5, 0.8, 3)
        p = build_keq_dnn(g, 5)  # m = 1 group size => k=5, m=1
        fac = factor_normal_matrix(p)
        G = p.stacked_rows()
        Q = (G @ G.T).toarray()
        for _ in range(20):
            st = random_state(p, rng, sigma=float(rng.uniform(0.1, 5)))
            y, ybar = update_y(st, fac, p)
            W0 = st.S + st.Z - p.C + st.X / st.sigma
            rhs = p.b / st.sigma - p.eq_apply(W0)
            r = np.linalg.norm(Q @ y - rhs)
            assert r <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def swept(state, problem):
    """A copy of ``state`` advanced by one sweep."""
    out = state.copy()
    sweep(out, factor_normal_matrix(problem), problem)
    return out


class TestUpdateS:
    """The box-dual step of a sweep: S = clip(sigma M) / sigma - M."""

    def test_free_box_gives_zero(self):
        p = diag_problem([1.0, 1.0])
        rng = np.random.default_rng(3)
        st = swept(random_state(p, rng), p)
        assert np.allclose(st.S, 0.0)

    def test_hand_evaluation_lower_bounded_box(self):
        # lo = 0, hi = inf, sigma = 1, C = 0: S = 3 I drives the multiplier step to
        # y = b - diag(S) = -2, so M = -2 I and the new S is 2 on the diagonal
        n = 2
        p = diag_problem([0.0, 0.0], box_lo=np.zeros((n, n)))
        st = AdmmState.zeros(p, sigma=1.0)
        st.S = 3.0 * np.eye(n)
        st = swept(st, p)
        assert np.allclose(st.y, [-2.0, -2.0])
        assert np.allclose(st.S, 2.0 * np.eye(n))

    def test_box_complementarity_elementwise(self):
        rng = np.random.default_rng(4)
        n = 5
        lo = np.where(rng.random((n, n)) < 0.5, 0.0, -np.inf)
        lo = np.minimum(lo, lo.T)
        hi = np.where(rng.random((n, n)) < 0.5, 1.5, np.inf)
        hi = np.maximum(hi, hi.T)
        A = sp.csr_matrix(([1.0], ([0], [0])), shape=(1, n * n))
        p = SdpProblem(n=n, C=np.zeros((n, n)), A=A, b=np.ones(1),
                       box_lo=lo, box_hi=hi)
        for _ in range(50):
            st = random_state(p, rng, sigma=float(rng.uniform(0.2, 4.0)))
            sigma = st.sigma
            new = swept(st, p)
            M = p.adjoint(new.y, new.ybar) + st.Z + st.X / sigma - p.C
            S = new.S
            proj = p.clip_box(sigma * M)
            # identity S = proj/sigma - M and the sign pattern of an interval dual
            assert np.allclose(S, proj / sigma - M)
            inside = (sigma * M > lo) & (sigma * M < hi)
            assert np.allclose(S[inside], 0.0, atol=1e-12)
            at_lo = sigma * M < lo
            assert np.all(S[at_lo] > 0)
            at_hi = sigma * M > hi
            assert np.all(S[at_hi] < 0)


class TestUpdateZV:
    """The PSD-dual and interval-dual steps of a sweep."""

    def test_psd_n_gives_zero_z(self):
        # zero state, C = I: y = b + diag(C) = 2, so N = diag(2, 2) - C = I, PSD
        p = diag_problem([1.0, 1.0])
        st = swept(AdmmState.zeros(p, sigma=1.0), p)
        assert np.allclose(st.y, [2.0, 2.0])
        assert np.allclose(st.Z, 0.0, atol=1e-12)
        assert st.v.size == 0

    def test_indefinite_diagonal(self):
        # C = 0, S = diag(0, 2): y = b - diag(S) = (1, -1), so N = diag(1, -1)
        p = diag_problem([0.0, 0.0])
        st = AdmmState.zeros(p, sigma=1.0)
        st.S = np.diag([0.0, 2.0])
        st = swept(st, p)
        assert np.allclose(st.Z, np.diag([0.0, 1.0]), atol=1e-12)

    def test_free_slack_interval_gives_zero_v(self):
        p = ineq_toy_problem()
        free = SdpProblem(n=p.n, C=p.C, A=p.A, b=p.b,
                          B=p.B,
                          l=np.array([-np.inf]), u=np.array([np.inf]))
        rng = np.random.default_rng(5)
        st = swept(random_state(free, rng, sigma=2.0), free)
        assert np.allclose(st.v, 0.0, atol=1e-12)

    def test_kkt_point_is_fixed(self):
        p = ineq_toy_problem()
        st = ineq_toy_kkt_state(sigma=2.5)
        new = swept(st, p)
        for name in ("y", "ybar", "S", "Z", "v", "X", "s"):
            assert np.allclose(getattr(new, name), getattr(st, name), atol=1e-8), name


class TestUpdatePrimal:
    """The primal steps of a sweep: X = sigma P_psd(N), s = clip(s - sigma ybar)."""

    def test_nsd_n_gives_zero_x(self):
        # C = I, S = 1.5 I: y = b - diag(S - C) = 0.5, so N = diag(.5, .5) - I = -0.5 I
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=1.0)
        st.S = 1.5 * np.eye(2)
        st = swept(st, p)
        assert np.allclose(st.y, [0.5, 0.5])
        assert np.allclose(st.X, 0.0, atol=1e-12)

    def test_complementarity_and_reconstruction(self):
        # N is formed from the stepped multiplier Xt; X is its projection, and Xt
        # moves toward X by PRIMAL_STEP
        rng = np.random.default_rng(6)
        p = diag_problem([1.0, -2.0, 0.3, 0.9])
        for _ in range(25):
            st = random_state(p, rng, sigma=float(rng.uniform(0.2, 3.0)))
            st.Xt = random_state(p, rng).X
            new = swept(st, p)
            X, Z = new.X, new.Z
            N = p.adjoint(new.y, new.ybar) + new.S + st.Xt / st.sigma - p.C
            nrm = np.linalg.norm(N)
            assert abs((X * Z).sum()) <= 1e-8 * max(1.0, np.linalg.norm(X) * np.linalg.norm(Z))
            assert np.linalg.norm(X / st.sigma - Z - N) <= 1e-10 * max(1.0, nrm)
            assert np.linalg.eigvalsh(X)[0] >= -1e-9 * max(1.0, nrm)
            assert np.linalg.eigvalsh(Z)[0] >= -1e-9 * max(1.0, nrm)
            step = (1.0 - admm.PRIMAL_STEP) * st.Xt + admm.PRIMAL_STEP * X
            assert np.linalg.norm(new.Xt - step) <= 1e-12 * max(1.0, np.linalg.norm(step))
            assert np.array_equal(new.Xt, new.Xt.T)

    def test_slack_and_its_dual_follow_clip(self):
        p = ineq_toy_problem()
        rng = np.random.default_rng(13)
        for _ in range(25):
            st = random_state(p, rng, sigma=float(rng.uniform(0.2, 3.0)))
            st.s = 3.0 * st.s  # reach both ends of the interval [-1, 0.3]
            new = swept(st, p)
            t = st.s - st.sigma * new.ybar
            assert np.array_equal(new.s, np.clip(t, p.l, p.u))
            assert np.allclose(new.v, (new.s - t) / st.sigma, atol=1e-12)

    def test_kkt_point_is_fixed(self):
        p = ineq_toy_problem()
        st = ineq_toy_kkt_state(sigma=1.7)
        new = swept(st, p)
        assert np.allclose(new.X, st.X, atol=1e-10)
        assert np.allclose(new.s, st.s, atol=1e-10)


class TestResiduals:
    def test_zero_at_analytic_kkt_point_diag(self):
        p = diag_problem([1.0, 2.0, 3.0], box_lo=np.zeros((3, 3)))
        st = AdmmState.zeros(p, sigma=1.0)
        st.X = np.eye(3)
        st.y = np.array([1.0, 2.0, 3.0])
        rec = residuals(st, p)
        assert rec.max_residual <= 1e-9

    def test_zero_at_analytic_kkt_point_with_slack(self):
        rec = residuals(ineq_toy_kkt_state(), ineq_toy_problem())
        assert rec.max_residual <= 1e-9

    def test_zero_state_primal_infeasibility(self):
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=1.0)
        rec = residuals(st, p)
        nb = np.linalg.norm(p.b)
        assert rec.eps_pc >= nb / (1.0 + nb) - 1e-12

    def test_invariant_under_row_relabeling(self):
        g = gen_rand_graph(6, 0.8, 9)
        p = build_keq_dnn(g, 3)
        rng = np.random.default_rng(10)
        st = random_state(p, rng)
        rec = residuals(st, p)
        perm = rng.permutation(p.m)
        p2 = SdpProblem(n=p.n, C=p.C, A=p.A[perm],
                        b=p.b[perm], box_lo=p.box_lo, box_hi=p.box_hi)
        st2 = st.copy()
        st2.y = st.y[perm]
        rec2 = residuals(st2, p2)
        assert np.allclose(rec.as_tuple(), rec2.as_tuple(), rtol=1e-12)


class TestAdaptSigma:
    def test_balanced_norms_give_unit_sigma(self):
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=3.0)
        st.X = np.eye(2)
        st.Z = np.diag([1.0, 1.0])
        assert adapt_sigma(st, "adaptive") == pytest.approx(1.0)

    def test_balanced_residuals_leave_sigma(self):
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=2.2)
        rec = admm.ResidualRecord(0.5, 0.5, 0.0, 0.0, 0.0)
        assert adapt_sigma(st, "classic", rec) == pytest.approx(2.2)

    def test_zero_z_clamps_high(self):
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=1.0)
        st.X = np.eye(2)
        assert adapt_sigma(st, "adaptive") == 1e6
        assert admm.norm_ratio(st) is None


class TestSolve:
    def test_trivial_identity_objective(self):
        p = diag_problem([1.0, 1.0, 1.0])
        res = solve(p)
        assert res.status == "converged"
        assert res.primal_obj == pytest.approx(3.0, abs=1e-4)
        assert np.allclose(res.state.X, np.eye(3), atol=1e-4)

    def test_k8_equipartition_objective_constant(self):
        W = np.ones((8, 8))
        np.fill_diagonal(W, 0.0)
        g = GraphInstance(n=8, W_adj=W, name="K8")
        res = solve(build_keq_dnn(g, 2))
        assert res.status == "converged"
        assert res.primal_obj == pytest.approx(16.0, abs=1e-2)

    def test_rand80_n50_converges(self):
        g = gen_rand_graph(50, 0.8, 1)
        res = solve(build_keq_dnn(g, 5))
        assert res.status == "converged"
        assert res.iterations <= 20000
        assert res.residuals.max_residual <= 1e-5

    def test_weak_duality_on_converged_runs(self):
        cases = []
        for seed in (0, 1):
            g = gen_rand_graph(12, 0.8, seed)
            cases.append(build_keq_dnn(g, 3))
            cases.append(build_keq_sdp(g, 2))
        g, spec = gen_gpkc_instance(9, 0.5, 3, 2)
        cases.append(build_gpkc_dnn(g, spec))
        for p in cases:
            res = solve(p)
            assert res.status == "converged"
            slack = 10 * res.eps_tol * (1.0 + abs(res.primal_obj))
            assert res.dual_obj <= res.primal_obj + slack

    def test_complementarity_every_iteration(self):
        g = gen_rand_graph(10, 0.8, 4)
        p = build_keq_dnn(g, 2)
        seen = []

        def cb(k, state, rec, primal, dual):
            nX = np.linalg.norm(state.X)
            nZ = np.linalg.norm(state.Z)
            seen.append(abs((state.X * state.Z).sum()) <= 1e-8 * max(1.0, nX * nZ))

        solve(p, callback=cb)
        assert seen and all(seen)

    def test_deterministic_iterate_stream(self):
        g = gen_rand_graph(10, 0.5, 8)
        p = build_keq_dnn(g, 5)
        r1 = solve(p, AdmmParams(max_iter=50))
        r2 = solve(p, AdmmParams(max_iter=50))
        assert np.array_equal(r1.state.X, r2.state.X)
        assert np.array_equal(r1.state.y, r2.state.y)
        assert r1.residuals.as_tuple() == r2.residuals.as_tuple()

    def test_monotone_trend_of_windowed_median(self):
        g = gen_rand_graph(20, 0.8, 2)
        p = build_keq_dnn(g, 2)
        hist = []
        solve(p, AdmmParams(eps_tol=1e-7, max_iter=2000),
              callback=lambda k, st, rec, pr, du: hist.append(rec.max_residual))
        hist = np.array(hist)
        window = 100
        if hist.size > 2 * window:
            meds = [np.median(hist[t : t + window]) for t in range(0, hist.size - window, 25)]
            for early, late in zip(meds, meds[1:]):
                assert late <= early * (1.0 + 1e-9)

    def test_one_iteration_is_one_sweep(self):
        # unit-norm rows leave the equilibrated copy equal to the problem itself; the
        # sweep starts from the start state's Xt, and the returned state carries the
        # projection X as its Xt, so a warm start from it begins with Xt = X
        rng = np.random.default_rng(12)
        p = diag_problem([1.0, -2.0, 0.3], box_lo=np.zeros((3, 3)))
        st = random_state(p, rng, sigma=0.9)
        st.Xt = random_state(p, rng).X
        res = solve(p, AdmmParams(max_iter=1, eps_tol=0.0), start=st)
        manual = swept(st, p)
        for name in ("y", "S", "Z", "X"):
            assert np.array_equal(getattr(res.state, name), getattr(manual, name)), name
        assert res.iterations == 1
        assert np.array_equal(res.state.Xt, res.state.X)
        assert np.array_equal(res.state.copy().Xt, res.state.X)
        assert not np.array_equal(manual.Xt, manual.X)

    def test_callback_records_match_residuals(self):
        # the solver forms each record in the caller's coordinates, so the records
        # equal the public definition recomputed from scratch, bit for bit
        def check(p, start=None):
            seen = []

            def cb(k, state, rec, primal, dual):
                assert rec == residuals(state, p), k
                seen.append(k)

            res = solve(p, start=start, callback=cb)
            assert res.status == "converged" and seen == list(range(1, res.iterations + 1))
            return res

        keq = build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3)
        res = check(keq)
        g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
        check(build_gpkc_dnn(g, spec))
        met = add_cuts(keq, separate_met(res.state.X, 60))
        assert met.q == 60
        check(met, admm.pad_state(res.state, met))

    def test_iter_limit_status(self):
        g = gen_rand_graph(16, 0.5, 3)
        res = solve(build_keq_dnn(g, 4), AdmmParams(max_iter=3))
        assert res.status == "iter_limit"
        assert res.iterations == 3


def cadence_problems():
    """A keq DNN (adaptive rule) and a gpkc DNN (norm-ratio opening, then the classic
    rule) that converge."""
    g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
    return {"keq": build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3),
            "gpkc": build_gpkc_dnn(g, spec)}


def warm_round():
    """A DNN+MET round with 60 cuts and the start state cutting_loop would give it."""
    keq = build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3)
    res = solve(keq)
    met = add_cuts(keq, separate_met(res.state.X, 60))
    assert met.q == 60
    return met, admm.pad_state(res.state, met)


class TestCheckCadence:
    """The stopping test runs on every CHECK_EVERY-th sweep and at max_iter only."""

    @pytest.mark.parametrize("name", ["keq", "gpkc"])
    def test_residuals_run_on_check_sweeps_only(self, name, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return residuals(*args, **kwargs)

        monkeypatch.setattr(admm, "residuals", counted)
        res = solve(cadence_problems()[name])
        assert res.status == "converged"
        # one record for the start state, one per check sweep
        assert len(calls) == -(-res.iterations // admm.CHECK_EVERY) + 1

    def test_stop_on_a_check_sweep(self):
        for p in cadence_problems().values():
            res = solve(p)
            assert res.status == "converged"
            assert res.iterations % admm.CHECK_EVERY == 0
            assert res.residuals.max_residual <= res.eps_tol
            assert res.residuals == residuals(res.state, p)
        capped = solve(cadence_problems()["keq"], AdmmParams(max_iter=23))
        assert capped.status == "iter_limit" and capped.iterations == 23
        assert np.isfinite(capped.residuals.as_tuple()).all()

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_callback_does_not_move_the_stop(self, name):
        p, start = warm_round() if name == "warm" else (cadence_problems()[name], None)
        plain = solve(p, start=start)
        traced = solve(p, start=start, callback=lambda *a: None)
        assert (traced.iterations, traced.status) == (plain.iterations, plain.status)
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(traced.state, field), getattr(plain.state, field))
        assert traced.state.sigma == plain.state.sigma
        assert traced.residuals == plain.residuals

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_stop_is_first_check_sweep_within_tolerance(self, name):
        p, start = warm_round() if name == "warm" else (cadence_problems()[name], None)
        prm = AdmmParams()
        worst = []
        res = solve(p, prm, start=start,
                    callback=lambda k, st, rec, pr, du: worst.append(rec.max_residual))
        assert res.status == "converged" and len(worst) == res.iterations
        first = next(k for k in range(1, len(worst) + 1) if worst[k - 1] <= prm.eps_tol)
        stop = next(k for k in range(first, prm.max_iter + 1)
                    if k % admm.CHECK_EVERY == 0 and worst[k - 1] <= prm.eps_tol)
        assert res.iterations == stop

    def test_zero_sweeps_return_the_start_record(self):
        p = cadence_problems()["keq"]
        res = solve(p, AdmmParams(max_iter=0))
        assert (res.iterations, res.status) == (0, "iter_limit")
        assert res.residuals == residuals(AdmmState.zeros(p, 1.0), p)


def sigma_path(p, params=None):
    """Per sweep: the sigma it ran with, the clamped ||X|| / ||Z|| it left (None when a
    norm is 0) and a copy of X; plus the result."""
    path = []

    def cb(k, state, rec, primal, dual):
        nX, nZ = np.linalg.norm(state.X), np.linalg.norm(state.Z)
        ratio = None if nX == 0 or nZ == 0 else min(max(nX / nZ, admm.SIGMA_LO), admm.SIGMA_HI)
        path.append((state.sigma, ratio, state.X.copy()))

    return path, solve(p, params, callback=cb)


class TestStepsizeRule:
    """``auto``: adaptive without inequality rows, classic with them, and a norm-ratio
    opening first when the box also has a finite lower bound."""

    def test_knapsack_dnn_opens_with_the_norm_ratio(self):
        path, res = sigma_path(cadence_problems()["gpkc"])
        assert res.status == "converged" and res.iterations > admm.OPENING_SWEEPS
        sigmas = [sigma for sigma, _, _ in path]
        assert sigmas[0] == 1.0
        for k in range(1, admm.OPENING_SWEEPS + 1):
            ratio = path[k - 1][1]
            assert ratio is not None and sigmas[k] == ratio, k
        moves = [k for k in range(admm.OPENING_SWEEPS + 1, res.iterations)
                 if sigmas[k] != sigmas[k - 1]]
        assert moves and all(k % admm.CHECK_EVERY == 0 for k in moves)

    @pytest.mark.parametrize("name, rule", [("keq", "adaptive"), ("gpkc-sdp", "classic")])
    def test_auto_is_the_explicit_rule(self, name, rule):
        if name == "keq":
            p = cadence_problems()["keq"]
        else:
            g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
            p = build_gpkc_sdp(g, spec)
        auto_path, auto = sigma_path(p, AdmmParams(rule="auto", max_iter=150))
        path, explicit = sigma_path(p, AdmmParams(rule=rule, max_iter=150))
        assert auto.iterations == explicit.iterations == len(auto_path) == len(path)
        for k, ((sa, _, Xa), (se, _, Xe)) in enumerate(zip(auto_path, path), start=1):
            assert sa == se and np.array_equal(Xa, Xe), k
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(auto.state, field), getattr(explicit.state, field))
        assert auto.state.sigma == explicit.state.sigma

    def test_zero_z_ends_the_opening(self):
        # Z is 0 after the first sweep here; the adaptive rule would pin sigma at SIGMA_HI
        g, spec = gen_gpkc_instance(7, 0.8, 7, 2)
        p = build_gpkc_dnn(g, spec)
        path, res = sigma_path(p)
        assert path[0][1] is None
        sigmas = [sigma for sigma, _, _ in path]
        assert all(sigmas[k] == sigmas[k - 1] for k in range(1, res.iterations)
                   if k % admm.CHECK_EVERY)
        assert res.status == "converged"
        assert certify_bound(p, res).method == "eig"


class TestBadInput:
    @pytest.mark.parametrize("sigma0", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_params_reject_bad_sigma0(self, sigma0):
        with pytest.raises(ValueError, match="sigma0"):
            AdmmParams(sigma0=sigma0)

    def test_params_reject_unknown_rule(self):
        with pytest.raises(ValueError, match="rule"):
            AdmmParams(rule="bogus")

    @pytest.mark.parametrize("name", ["X", "S", "Z"])
    def test_non_finite_start_rejected(self, name):
        p = diag_problem([1.0, 2.0], box_lo=np.zeros((2, 2)))
        st = AdmmState.zeros(p, sigma=1.0)
        getattr(st, name)[0, 1] = np.nan
        with pytest.raises(ValueError, match=f"start state {name}"):
            solve(p, start=st)

    def test_overflowing_objective_diverges(self):
        n = 3
        A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))),
                          shape=(n, n * n))
        with np.errstate(all="ignore"):
            p = SdpProblem(n=n, C=np.full((n, n), 1e308), A=A, b=np.ones(n))
            with pytest.raises(SolverDivergedError) as info:
                solve(p)
        assert info.value.iteration == 1


class TestWarmStart:
    def test_pad_state_shapes(self):
        from gpbound.model import TriangleCut, add_cuts

        g = gen_rand_graph(6, 0.8, 2)
        p = build_keq_dnn(g, 2)
        res = solve(p, AdmmParams(max_iter=20))
        p2 = add_cuts(p, [TriangleCut(0, 1, 2), TriangleCut(3, 4, 5)])
        grown = admm.pad_state(res.state, p2)
        assert grown.ybar.shape == (2,) and grown.v.shape == (2,) and grown.s.shape == (2,)
        assert np.array_equal(grown.X, res.state.X)
        with pytest.raises(ValueError):
            admm.pad_state(grown, p)  # cannot shrink back

    def test_warm_start_reaches_same_bound(self):
        g = gen_rand_graph(10, 0.8, 6)
        p = build_keq_dnn(g, 2)
        cold = solve(p)
        partial = solve(p, AdmmParams(max_iter=30))
        warm = solve(p, start=partial.state)
        assert warm.status == "converged"
        assert warm.primal_obj == pytest.approx(cold.primal_obj, rel=1e-4)
        assert warm.iterations < cold.iterations

    def test_explicit_rules_both_converge(self):
        g = gen_rand_graph(10, 0.8, 7)
        p = build_keq_dnn(g, 2)
        res_a = solve(p, AdmmParams(rule="adaptive"))
        res_c = solve(p, AdmmParams(rule="classic"))
        assert res_a.status == "converged" and res_c.status == "converged"
        assert res_a.primal_obj == pytest.approx(res_c.primal_obj, rel=1e-3)


class TestPsdSplit:
    def test_split_properties_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n))
            M = A + A.T
            pos, neg = psd_split(M)
            nrm = np.linalg.norm(M)
            assert np.linalg.norm(pos + neg - M) <= 1e-8 * max(1.0, nrm)
            assert np.allclose(pos, pos.T) and np.allclose(neg, neg.T)
            assert abs((pos * neg).sum()) <= 1e-8 * max(1.0, nrm ** 2)
            assert np.linalg.eigvalsh(pos)[0] >= -1e-9 * max(1.0, nrm)
            assert np.linalg.eigvalsh(neg)[-1] <= 1e-9 * max(1.0, nrm)

    def test_matches_full_product_on_either_side(self):
        # the product is formed from the smaller side of the spectrum; compare with
        # V max(vals, 0) V' over all of it, for spectra of every sign pattern
        rng = np.random.default_rng(14)
        n = 40
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        spectra = {
            "more positive": np.concatenate([rng.uniform(0.1, 5, 30), -rng.uniform(0.1, 5, 10)]),
            "more negative": np.concatenate([rng.uniform(0.1, 5, 10), -rng.uniform(0.1, 5, 30)]),
            "zero": np.zeros(n),
            "positive definite": rng.uniform(0.1, 5, n),
            "negative definite": -rng.uniform(0.1, 5, n),
        }
        for name, lam in spectra.items():
            M = (Q * lam) @ Q.T
            M = 0.5 * (M + M.T)
            vals, vecs = np.linalg.eigh(M)
            ref = (vecs * np.maximum(vals, 0.0)) @ vecs.T
            ref = 0.5 * (ref + ref.T)
            pos, neg = psd_split(M)
            tol = 1e-12 * max(np.linalg.norm(M), 1e-300)
            assert np.linalg.norm(pos - ref) <= tol, name
            assert np.linalg.norm(neg - (M - ref)) <= tol, name
            assert np.linalg.norm(pos + neg - M) <= tol, name
            assert np.array_equal(pos, pos.T) and np.array_equal(neg, neg.T), name
            nrm = max(1.0, np.linalg.norm(M))
            assert np.linalg.eigvalsh(pos)[0] >= -1e-12 * nrm, name
            assert np.linalg.eigvalsh(neg)[-1] <= 1e-12 * nrm, name


class TestDualObjective:
    def test_support_value_signs(self):
        lo = np.zeros((2, 2))
        hi = np.full((2, 2), np.inf)
        S = np.array([[1.0, -0.5], [-0.5, 2.0]])
        assert box_support_value(S, lo, hi) == -np.inf
        S2 = np.abs(S)
        assert box_support_value(S2, lo, hi) == 0.0

    def test_clamped_reporting(self):
        p = diag_problem([1.0, 1.0], box_lo=np.zeros((2, 2)))
        S = np.array([[0.5, -0.1], [-0.1, 0.2]])
        val, mag = dual_objective(p, np.zeros(2), np.zeros(0), S)
        assert np.isfinite(val)
        assert mag == pytest.approx(np.sqrt(2 * 0.1 ** 2))
