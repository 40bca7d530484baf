import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from gpbound import admm, symm
from gpbound.admm import (
    AdmmParams,
    AdmmState,
    DependentRowsError,
    SolverDivergedError,
    classic_sigma,
    dual_objective,
    factor_normal_matrix,
    norm_ratio,
    residuals,
    solve,
    sweep,
    update_y,
)
from gpbound.graphs import GraphInstance, gen_gpkc_instance, gen_rand_graph, laplacian
from gpbound.certify import certify_bound, cutting_loop
from gpbound.eigbound import _box_support, eig_lower_bound
from gpbound.model import (SdpProblem, TriangleCut, add_cuts, build_gpkc_dnn,
                           build_gpkc_sdp, build_keq_dnn, build_keq_sdp, separate_met)
from gpbound.graphs import KEquipartition
from gpbound.symm import precision_split


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


@pytest.fixture
def residual_stop_only(monkeypatch):
    """A zero bound slack: a best bound never rises by less than 0, so only the
    residual test can stop a solve."""
    monkeypatch.setattr(admm, "BOUND_STOP", 0)


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
        # a keq DNN at n=40 with its diagonal row 3 appended again as row 80, alone
        # (dense Cholesky) and with one triangle cut (sparse LU): exactly that row is
        # named, by the factorization and by solve (which factors the row-equilibrated
        # copy), and the diagnosis stays near the size of the Gram matrix instead of
        # densifying its rows over 1600 columns
        import tracemalloc

        import scipy.sparse.linalg  # noqa: F401 (the sparse LU's first import is not traced)

        p = build_keq_dnn(gen_rand_graph(40, 0.5, 1), 4)
        dup = SdpProblem(n=p.n, C=p.C, A=sp.vstack([p.A, p.A[3]]), b=np.append(p.b, 1.0),
                         box_lo=p.box_lo)
        for prob in (dup, add_cuts(dup, [TriangleCut(0, 1, 2)])):
            tracemalloc.start()
            try:
                with pytest.raises(DependentRowsError) as info:
                    factor_normal_matrix(prob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert info.value.rows == (80,)
            assert peak < 500_000
            with pytest.raises(DependentRowsError) as info:
                solve(prob)
            assert info.value.rows == (80,)

    @pytest.mark.parametrize("Q", [[[1.0, 2.0], [2.0, 1.0]],    # a negative pivot
                                   [[0.0, 1.0], [1.0, 0.0]],    # a pivot off the diagonal
                                   [[4.0, 2.0], [2.0, 1.0]]])   # exactly singular
    def test_sparse_lu_refuses_what_cholesky_refuses(self, Q):
        # SuperLU factors each of these; the sparse path must refuse them as the
        # dense Cholesky factorization does
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array(Q))
        with pytest.raises(DependentRowsError):
            admm._sparse_lu(sp.csc_matrix(Q))


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
        assert norm_ratio(st) == pytest.approx(1.0)

    def test_balanced_residuals_leave_sigma(self):
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=2.2)
        rec = admm.ResidualRecord(0.5, 0.5, 0.0, 0.0, 0.0)
        assert classic_sigma(st, rec) == pytest.approx(2.2)

    def test_zero_z_clamps_high(self):
        p = diag_problem([1.0, 1.0])
        st = AdmmState.zeros(p, sigma=1.0)
        st.X = np.eye(2)
        assert norm_ratio(st) is None
        st.Z = np.diag([1e-9, 0.0])
        assert norm_ratio(st) == admm.SIGMA_HI


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

    def test_rand80_n50_converges(self, residual_stop_only):
        g = gen_rand_graph(50, 0.8, 1)
        res = solve(build_keq_dnn(g, 5))
        assert res.status == "converged"
        assert res.iterations <= 20000
        assert res.residuals.max_residual <= 1e-5

    def test_weak_duality_on_converged_runs(self, residual_stop_only):
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
            slack = 10 * AdmmParams().eps_tol * (1.0 + abs(res.primal_obj))
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
        # sweep starts from the start state's Xt, and the state it hands on (to the
        # callback, and as the result when it certifies above the start) carries the
        # projection X as its Xt, so a warm start from it begins with Xt = X
        rng = np.random.default_rng(12)
        p = diag_problem([1.0, -2.0, 0.3], box_lo=np.zeros((3, 3)))
        st = random_state(p, rng, sigma=0.9)
        st.Xt = random_state(p, rng).X
        seen = []
        res = solve(p, AdmmParams(max_iter=1), start=st,
                    callback=lambda k, state, *_: seen.append(state))
        manual = swept(st, p)
        for name in ("y", "S", "Z", "X"):
            assert np.array_equal(getattr(seen[0], name), getattr(manual, name)), name
        assert res.iterations == 1 and res.state.iter in (0, 1)
        for state in (seen[0], res.state):
            assert np.array_equal(state.Xt, state.X)
            assert np.array_equal(state.copy().Xt, state.X)
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
            assert res.status in admm.STOPPED and seen == list(range(1, res.iterations + 1))
            return res

        keq = build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3)
        res = check(keq)
        g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
        check(build_gpkc_dnn(g, spec))
        met = add_cuts(keq, separate_met(res.state.X, 60))
        assert met.q == 60
        check(met, res.state)

    def test_iter_limit_status(self):
        g = gen_rand_graph(16, 0.5, 3)
        res = solve(build_keq_dnn(g, 4), AdmmParams(max_iter=3))
        assert res.status == "iter_limit"
        assert res.iterations == 3

    def test_solve_matches_cho_solve_bit_for_bit(self):
        # the direct dpotrs call is the LAPACK call scipy.linalg.cho_solve makes, on the
        # dense factors solve uses: a keq DNN and a knapsack DNN (a problem with cuts
        # takes the sparse LU, whose solves C6c checks by their residual)
        import scipy.linalg

        g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
        rng = np.random.default_rng(3)
        for p in (build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3), build_gpkc_dnn(g, spec)):
            fac = factor_normal_matrix(admm._equilibrated(p)[0])
            for rhs in (rng.normal(size=fac.m + fac.q), 1e6 * rng.normal(size=fac.m + fac.q)):
                want = scipy.linalg.cho_solve((fac.R.T, False), rhs, check_finite=False)
                assert fac.solve(rhs).tobytes() == want.tobytes()


class TestRowsCheckedOnce:
    """Constraint rows are checked when a problem is built, not again for the copies
    derived from it: solve's row-scaled working copy and add_cuts' grown problem."""

    @pytest.fixture
    def checks(self, monkeypatch):
        from gpbound import model

        calls = []

        def spy(M, n, kind):
            calls.append(kind)
            return checked(M, n, kind)

        checked = model._checked_rows
        monkeypatch.setattr(model, "_checked_rows", spy)
        return calls

    def test_solve_and_add_cuts_check_no_row_again(self, checks):
        p = build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3)
        assert checks == ["equality", "inequality"]
        res = solve(p, AdmmParams(max_iter=20))
        met = add_cuts(p, separate_met(res.state.X, 40))
        solve(met, AdmmParams(max_iter=20), start=res.state)
        assert checks == ["equality", "inequality"]

    def test_derived_problems_equal_their_checked_copies(self):
        # the fields that a replace() through the constructor would give, bit for bit
        g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
        met, _ = warm_round()
        for p in (build_gpkc_dnn(g, spec), met):
            work, d_eq, d_in = admm._equilibrated(p)
            full = dataclasses.replace(p, A=work.A, b=work.b, B=work.B, l=work.l, u=work.u)
            for name in ("A", "B"):
                a, b = getattr(work, name), getattr(full, name)
                assert a.format == b.format == "csr"
                for part in ("indptr", "indices", "data"):
                    assert getattr(a, part).tobytes() == getattr(b, part).tobytes()
            for name in ("C", "b", "l", "u", "box_lo", "box_hi"):
                assert getattr(work, name).tobytes() == getattr(full, name).tobytes()
            assert work.met_cuts == full.met_cuts

    def test_derived_problem_still_checks_its_vectors(self):
        # a zero equality row scales its right-hand side to a non-finite value
        p = diag_problem([1.0, 2.0])
        zero = SdpProblem(n=2, C=p.C, A=sp.vstack([p.A, sp.csr_matrix((1, 4))]),
                          b=np.append(p.b, 1.0))
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="must be finite"):
            solve(zero)
        with pytest.raises(ValueError, match="keeps n, C and the box"):
            p._derived(C=2 * p.C)


def cadence_problems():
    """A keq DNN and a gpkc DNN that converge."""
    g, spec = gen_gpkc_instance(30, 0.5, 3, 2)
    return {"keq": build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3),
            "gpkc": build_gpkc_dnn(g, spec)}


def warm_round():
    """A DNN+MET round with 60 cuts and the start cutting_loop gives it: the cut-free
    round's state, as it is."""
    keq = build_keq_dnn(gen_rand_graph(30, 0.5, 1), 3)
    res = solve(keq)
    met = add_cuts(keq, separate_met(res.state.X, 60))
    assert met.q == 60
    return met, res.state


def start_bound(p, start):
    """The certificate a warm start of ``p`` from ``start`` must beat: that of the
    start itself, padded for the rows it lacks, as ``solve`` certifies it."""
    return solve(p, AdmmParams(max_iter=0), start=start).certificate.raw


def assert_callback_does_not_move_the_stop(p, start):
    plain = solve(p, start=start)
    traced = solve(p, start=start, callback=lambda *a: None)
    assert (traced.iterations, traced.status, traced.accelerated_sweeps) == \
        (plain.iterations, plain.status, plain.accelerated_sweeps)
    for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
        assert np.array_equal(getattr(traced.state, field), getattr(plain.state, field))
    assert (traced.state.sigma, traced.state.iter) == (plain.state.sigma, plain.state.iter)
    assert traced.residuals == plain.residuals


def cadence_case(name):
    """A cadence problem or the warm round, and its start."""
    if name != "warm":
        return cadence_problems()[name], None
    return warm_round()


@pytest.mark.usefixtures("residual_stop_only")
class TestCheckCadence:
    """The residual test runs on every CHECK_EVERY-th sweep and at max_iter only; with
    a zero bound slack it is the only stopping test."""

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
            assert res.residuals.max_residual <= AdmmParams().eps_tol
            assert res.residuals == residuals(res.state, p)
        capped = solve(cadence_problems()["keq"], AdmmParams(max_iter=23))
        assert capped.status == "iter_limit" and capped.iterations == 23
        assert np.isfinite(capped.residuals.as_tuple()).all()

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_callback_does_not_move_the_stop(self, name):
        assert_callback_does_not_move_the_stop(*cadence_case(name))

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_stop_is_first_check_sweep_within_tolerance(self, name):
        p, start = cadence_case(name)
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


def certified_path(p, params=None, start=None):
    """Per check sweep: (sweep, its eigenvalue bound, its primal objective, its
    largest residual), read through the callback; plus the result."""
    prm = params or AdmmParams()
    path = []

    def cb(k, state, rec, primal, dual):
        if k % admm.CHECK_EVERY == 0 or k == prm.max_iter:
            lb = eig_lower_bound(p, state).raw
            path.append((k, lb, primal, rec.max_residual))

    return path, solve(p, prm, start=start, callback=cb)


class TestCertifiedStop:
    """With a provable xbar, every check sweep is certified, the best-certified state
    is returned, and the loop also stops once that bound meets the primal objective."""

    @pytest.mark.parametrize("seed, density", [(1, 0.5), (4, 0.2), (6, 0.8)])
    def test_returns_the_best_certified_iterate(self, seed, density):
        # the sweep where a solve stops need not certify best: the first SDP's bound
        # fell 501.19243 -> 501.18424 when its stop moved from sweep 85 to 90, and the
        # third converges at sweep 80 after its best bound at sweep 70
        p = build_keq_sdp(gen_rand_graph(12, density, seed), 3)
        path, res = certified_path(p)
        cert = certify_bound(p, res)
        assert cert.raw >= max(lb for _, lb, _, _ in path)
        assert (res.state.iter, cert.raw) in [(k, lb) for k, lb, _, _ in path]
        assert res.residuals == residuals(res.state, p)
        if seed == 6:
            assert res.state.iter < res.iterations

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_stop_is_first_check_sweep_meeting_the_bound(self, name):
        p, start = cadence_case(name)
        prm = AdmmParams()
        path, res = certified_path(p, prm, start)
        # a warm start stops by the bound only once it certified above its start and
        # its residual is within WARM_WITHIN * eps_tol
        best = floor = -np.inf if start is None else start_bound(p, start)
        within = np.inf if start is None else admm.WARM_WITHIN * prm.eps_tol
        stop = None
        for k, lb, primal, largest in path:
            last, best = best, max(best, lb)
            slack = admm.BOUND_STOP * prm.eps_tol * abs(best)
            if (best > floor and abs(primal - best) <= slack and best - last < slack
                    and largest <= within):
                stop = k
                break
        assert stop is not None and (res.status, res.iterations) == ("bound", stop)
        assert certify_bound(p, res).raw == best

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_callback_does_not_move_the_stop(self, name):
        assert_callback_does_not_move_the_stop(*cadence_case(name))

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_zero_bound_slack_never_stops_on_the_bound(self, name, monkeypatch):
        # the same iterates run on to the residual test, so the best bound can only rise
        p, start = cadence_case(name)
        tagged = solve(p, start=start)
        monkeypatch.setattr(admm, "BOUND_STOP", 0)
        plain = solve(p, start=start)
        assert tagged.status == "bound" and plain.status == "converged"
        assert plain.iterations > tagged.iterations
        assert plain.certificate.raw >= tagged.certificate.raw

    def test_status_names_the_test_that_ended_the_loop(self, monkeypatch):
        # with a zero bound slack the residual test ends this solve, on a sweep whose
        # largest residual is within eps_tol; the state returned is an earlier,
        # better-certified and looser one, and its record says so
        p = build_keq_dnn(gen_rand_graph(100, 0.8, 42), 2)
        monkeypatch.setattr(admm, "BOUND_STOP", 0)
        last = {}
        res = solve(p, callback=lambda k, st, rec, *_: last.update(k=k, rec=rec))
        eps = AdmmParams().eps_tol
        assert res.status == "converged" and last["k"] == res.iterations
        assert last["rec"].max_residual <= eps
        assert res.state.iter < res.iterations
        assert res.residuals == residuals(res.state, p)
        assert res.residuals.max_residual > eps

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_certificate_is_the_returned_states_bound(self, name):
        p, start = cadence_case(name)
        res = solve(p, start=start)
        assert res.certificate == eig_lower_bound(p, res.state)

    def test_custom_unit_diagonal_problem_stops_on_the_bound(self, monkeypatch):
        # a max-cut SDP built by hand: its rows diag(X) = e give xbar = n, so it is
        # certified and stopped like a builder's problem
        n = 12
        A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))),
                          shape=(n, n * n))
        p = SdpProblem(n=n, C=-laplacian(gen_rand_graph(n, 0.5, 0), 0.25), A=A, b=np.ones(n))
        res = solve(p)
        assert res.status == "bound" and res.certificate.xbar == n
        assert res.certificate == eig_lower_bound(p, res.state)
        monkeypatch.setattr(admm, "BOUND_STOP", 0)
        plain = solve(p)
        assert plain.status == "converged" and plain.iterations > res.iterations

    def test_problem_without_unit_diagonal_is_refused_before_scaling(self, monkeypatch):
        def scaled(*args):
            raise AssertionError("the problem was scaled")

        monkeypatch.setattr(admm, "_equilibrated", scaled)
        p = build_keq_dnn(gen_rand_graph(12, 0.5, 1), 3)
        for q in (dataclasses.replace(p, A=p.A[1:], b=p.b[1:]),
                  dataclasses.replace(p, b=np.concatenate([np.full(12, 2.0), p.b[12:]]))):
            with pytest.raises(ValueError, match="diag"):
                solve(q, callback=lambda *a: pytest.fail("a sweep ran"))

    def test_cold_start_without_sweeps_certifies_its_start(self):
        p = build_keq_dnn(gen_rand_graph(12, 0.5, 3), 4)
        res = solve(p, AdmmParams(max_iter=0))
        assert res.iterations == 0 and res.state.iter == 0
        assert res.certificate == eig_lower_bound(p, res.state)

    def test_warm_start_never_certifies_below_its_start(self):
        # a warm start stops by the bound only once a check sweep certified strictly
        # above its start, so both rounds return a swept state with a higher bound; the
        # second one used to stop after 20 sweeps and return its start
        p0 = build_keq_dnn(gen_rand_graph(12, 0.5, 3), 4)
        r0 = solve(p0)
        p1 = add_cuts(p0, separate_met(r0.state.X, 24))
        for p, start in (warm_round(), (p1, r0.state)):
            res = solve(p, start=start)
            before = start_bound(p, start)
            assert res.status in admm.STOPPED
            assert certify_bound(p, res).raw > before
            assert 0 < res.state.iter <= res.iterations
            assert res.residuals == residuals(res.state, p)

    @pytest.mark.parametrize("case", ["keq", "gpkc"])
    def test_warm_start_that_cannot_rise_ends_by_the_residual_test(self, case, monkeypatch):
        # every certificate capped at the start's: the gate never opens, and the round
        # still ends by the residual test, long before max_iter, returning its start
        if case == "keq":
            p, start = warm_round()
        else:
            p0 = build_gpkc_dnn(*gen_gpkc_instance(15, 0.5, 3, 6))
            r0 = solve(p0)
            p = add_cuts(p0, separate_met(r0.state.X, 30))
            start = r0.state
        cap = start_bound(p, start)
        certify = admm.eig_lower_bound

        def capped(*args, **kwargs):
            cert = certify(*args, **kwargs)
            return dataclasses.replace(cert, raw=min(cert.raw, cap))

        monkeypatch.setattr(admm, "eig_lower_bound", capped)
        res = solve(p, start=start)
        assert res.status == "converged" and res.iterations <= 300
        assert res.state.iter == 0 and res.certificate.raw == cap


def sigma_path(p, params=None):
    """Per sweep: the sigma it ran with, the clamped ||X|| / ||Z|| it left (None when a
    norm is 0) and a copy of X; plus the result."""
    path = []

    def cb(k, state, rec, primal, dual):
        nX, nZ = np.linalg.norm(state.X), np.linalg.norm(state.Z)
        ratio = None if nX == 0 or nZ == 0 else min(max(nX / nZ, admm.SIGMA_LO), admm.SIGMA_HI)
        path.append((state.sigma, ratio, state.X.copy()))

    return path, solve(p, params, callback=cb)


def stepsize_problems():
    """A keq and a knapsack SDP and DNN; the stepsize rule must not tell them apart."""
    g = gen_rand_graph(30, 0.5, 1)
    gk, spec = gen_gpkc_instance(30, 0.5, 3, 2)
    return {"keq-sdp": build_keq_sdp(g, 3), "keq-dnn": build_keq_dnn(g, 3),
            "gpkc-sdp": build_gpkc_sdp(gk, spec), "gpkc-dnn": build_gpkc_dnn(gk, spec)}


def rule_path(p, start=None, sweeps=admm.OPENING_SWEEPS + 50):
    """Per sweep: the sigma it ran with, the norm ratio it left and the balanced sigma
    of its record, over ``sweeps`` sweeps that no tolerance ends early."""
    path = []

    def cb(k, state, rec, primal, dual):
        path.append((state.sigma, norm_ratio(state), classic_sigma(state, rec)))

    res = solve(p, AdmmParams(eps_tol=1e-300, max_iter=sweeps), start=start, callback=cb)
    assert len(path) == res.iterations == sweeps
    return path


def assert_balanced_on_check_sweeps(path, first):
    """From sweep ``first`` on, sigma moves only on check sweeps, to the balanced sigma."""
    sigmas = [sigma for sigma, _, _ in path]
    for k in range(first, len(path)):
        expected = path[k - 1][2] if k % admm.CHECK_EVERY == 0 else sigmas[k - 1]
        assert sigmas[k] == expected, k


class TestStepsizeRule:
    """One rule for every problem: a cold start takes the norm ratio after each of its
    first OPENING_SWEEPS sweeps and then balances residuals on check sweeps; a warm
    start balances from the sigma it carries."""

    @pytest.mark.parametrize("name", ["keq-sdp", "keq-dnn", "gpkc-sdp", "gpkc-dnn"])
    def test_cold_start_opens_then_balances(self, name):
        path = rule_path(stepsize_problems()[name])
        sigmas = [sigma for sigma, _, _ in path]
        assert sigmas[0] == 1.0
        for k in range(1, admm.OPENING_SWEEPS + 1):
            ratio = path[k - 1][1]
            assert ratio is not None and sigmas[k] == ratio, k
        assert_balanced_on_check_sweeps(path, admm.OPENING_SWEEPS + 1)

    def test_warm_start_balances_from_the_carried_sigma(self):
        p, start = warm_round()
        path = rule_path(p, start)
        assert path[0][0] == start.sigma
        assert_balanced_on_check_sweeps(path, 1)
        assert path[admm.CHECK_EVERY][0] != start.sigma

    def test_zero_z_ends_the_opening(self):
        # Z is 0 after the first sweep here; the norm ratio would pin sigma at SIGMA_HI
        g, spec = gen_gpkc_instance(7, 0.8, 7, 2)
        p = build_gpkc_dnn(g, spec)
        path, res = sigma_path(p)
        assert path[0][1] is None
        sigmas = [sigma for sigma, _, _ in path]
        assert all(sigmas[k] == sigmas[k - 1] for k in range(1, res.iterations)
                   if k % admm.CHECK_EVERY)
        assert res.status in admm.STOPPED
        assert certify_bound(p, res).method == "eig"


class TestBadInput:
    @pytest.mark.parametrize("eps_tol", [0.0, -1.0, np.inf, np.nan])
    def test_params_reject_bad_eps_tol(self, eps_tol):
        with pytest.raises(ValueError, match="eps_tol"):
            AdmmParams(eps_tol=eps_tol)

    def test_params_reject_negative_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            AdmmParams(max_iter=-5)

    def test_params_hold_only_the_stopping_rule(self):
        assert [f.name for f in dataclasses.fields(AdmmParams)] == ["eps_tol", "max_iter"]

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, -np.inf, np.nan])
    def test_start_rejects_bad_sigma(self, sigma):
        # a start state is how a caller picks another starting sigma
        p = diag_problem([1.0, 2.0])
        with pytest.raises(ValueError, match="sigma"):
            solve(p, start=AdmmState.zeros(p, sigma=sigma))

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
    @staticmethod
    def cut_rounds():
        """A keq DNN with one cut, its state after 20 sweeps, and the DNN with a second
        cut: a start that lacks one of the problem's two inequality rows."""
        p1 = add_cuts(build_keq_dnn(gen_rand_graph(6, 0.8, 2), 2), [TriangleCut(0, 1, 2)])
        p2 = add_cuts(p1, [TriangleCut(3, 4, 5)])
        return p1, p2, solve(p1, AdmmParams(max_iter=20)).state

    def test_start_lacking_rows_runs_as_its_zero_padded_copy(self):
        p1, p2, start = self.cut_rounds()
        kept = start.copy()
        padded = start.copy()
        for name in ("ybar", "v", "s"):
            setattr(padded, name, np.append(getattr(start, name), 0.0))
        a = solve(p2, AdmmParams(max_iter=20), start=start)
        b = solve(p2, AdmmParams(max_iter=20), start=padded)
        assert (a.iterations, a.status, a.single_sweeps) == (b.iterations, b.status,
                                                               b.single_sweeps)
        assert a.certificate == b.certificate
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(a.state, field), getattr(b.state, field)), field
        grown = solve(p2, AdmmParams(max_iter=0), start=start).state
        assert grown.ybar.shape == grown.v.shape == grown.s.shape == (2,)
        assert grown.ybar[1] == grown.v[1] == grown.s[1] == 0.0
        assert np.array_equal(grown.X, start.X)
        for field in ("X", "Xt", "y", "ybar", "S", "Z", "v", "s"):   # the start is not written
            assert np.array_equal(getattr(start, field), getattr(kept, field)), field
        with pytest.raises(ValueError, match="ybar"):   # cannot shrink back
            solve(p1, start=solve(p2, AdmmParams(max_iter=20), start=start).state)

    @pytest.mark.parametrize("field", ["X", "Xt", "Z", "S", "y", "ybar", "v", "s"])
    def test_start_it_cannot_continue_from_rejected(self, field, monkeypatch):
        # a start of another n or m, with more inequality rows than the problem, or
        # with ybar, v and s of unequal lengths is refused before the problem is
        # scaled, by a message that names the field and both shapes
        p1, p2, start = self.cut_rounds()
        n, m = p2.n, p2.m
        bad = start.copy()
        if field in ("X", "Xt", "Z", "S"):
            setattr(bad, field, np.eye(n + 1))
            shapes = [(n + 1, n + 1), (n, n)]
        elif field == "y":
            bad.y = np.zeros(m - 1)
            shapes = [(m - 1,), (m,)]
        elif field == "ybar":   # three rows, v and s too, for a problem with two
            for name in ("ybar", "v", "s"):
                setattr(bad, name, np.zeros(3))
            shapes = [(3,), 2]
        else:
            setattr(bad, field, np.zeros(2))
            shapes = [(2,), (1,)]

        def scaled(*args):
            raise AssertionError("the problem was scaled before the start was checked")

        monkeypatch.setattr(admm, "_equilibrated", scaled)
        with pytest.raises(ValueError, match=f"start state {field} ") as info:
            solve(p2, start=bad)
        for shape in shapes:
            assert str(shape) in str(info.value)

    def test_warm_start_reaches_same_bound(self):
        g = gen_rand_graph(10, 0.8, 6)
        p = build_keq_dnn(g, 2)
        cold = solve(p)
        partial = solve(p, AdmmParams(max_iter=30))
        warm = solve(p, start=partial.state)
        assert warm.status in admm.STOPPED
        assert warm.primal_obj == pytest.approx(cold.primal_obj, rel=1e-4)
        assert warm.iterations < cold.iterations

    def test_non_symmetric_start_runs_as_its_symmetrized_copy(self):
        p, start = warm_round()
        rng = np.random.default_rng(4)
        skewed, symmetrized = start.copy(), start.copy()
        for name in ("X", "Xt", "Z", "S"):
            M = getattr(start, name) + 1e-3 * rng.normal(size=(p.n, p.n))
            setattr(skewed, name, M)
            setattr(symmetrized, name, 0.5 * (M + M.T))
        assert not np.array_equal(skewed.X, skewed.X.T)
        a = solve(p, start=skewed)
        b = solve(p, start=symmetrized)
        assert (a.iterations, a.status, a.single_sweeps) == (b.iterations, b.status,
                                                               b.single_sweeps)
        assert a.certificate.raw == b.certificate.raw
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(a.state, field), getattr(b.state, field)), field

    def test_every_split_matrix_is_symmetric(self, monkeypatch):
        # the sweep splits N as it is, so every term of N must keep it symmetric bit
        # for bit: a keq SDP, a knapsack DNN with a non-uniform box, and a warm round
        g, spec = gen_gpkc_instance(10, 0.5, 5, 2)
        conflict = build_gpkc_dnn(g, spec)
        assert not np.isscalar(conflict._box_bounds[1])
        p, start = warm_round()
        seen = []

        def spy(N, single):
            seen.append(np.array_equal(N, N.T))
            return precision_split(N, single)

        monkeypatch.setattr(admm, "precision_split", spy)
        for problem, st in ((build_keq_sdp(gen_rand_graph(21, 0.5, 3), 3), None),
                            (conflict, None), (p, start)):
            solve(problem, AdmmParams(max_iter=60), start=st)
        assert len(seen) == 180 and all(seen)

    def test_box_is_read_as_its_symmetric_intersection(self):
        lo = np.array([[0.0, -1.0], [0.5, 0.0]])
        hi = np.array([[9.0, 3.0], [2.0, 9.0]])
        p = diag_problem([1.0, 2.0])
        q = SdpProblem(n=2, C=p.C, A=p.A, b=p.b, box_lo=lo, box_hi=hi)
        assert np.array_equal(q.box_lo, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(q.box_hi, [[9.0, 2.0], [2.0, 9.0]])
        with pytest.raises(ValueError, match="lo <= hi"):
            SdpProblem(n=2, C=p.C, A=p.A, b=p.b, box_lo=lo, box_hi=np.where(hi == 2, 0.2, hi))


class TestPsdSplit:
    def test_split_properties_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n))
            M = A + A.T
            pos, neg, _ = precision_split(M, False)
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
            pos, neg, _ = precision_split(M, False)
            tol = 1e-12 * max(np.linalg.norm(M), 1e-300)
            assert np.linalg.norm(pos - ref) <= tol, name
            assert np.linalg.norm(neg - (M - ref)) <= tol, name
            assert np.linalg.norm(pos + neg - M) <= tol, name
            assert np.array_equal(pos, pos.T) and np.array_equal(neg, neg.T), name
            nrm = max(1.0, np.linalg.norm(M))
            assert np.linalg.eigvalsh(pos)[0] >= -1e-12 * nrm, name
            assert np.linalg.eigvalsh(neg)[-1] <= 1e-12 * nrm, name


def split_spectra():
    """TestPsdSplit's spectra (n = 40), one with eigenvalues of either sign far below
    float32's resolution, and random symmetric matrices up to n = 300."""
    rng = np.random.default_rng(14)
    n = 40
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectra = [np.concatenate([rng.uniform(0.1, 5, 30), -rng.uniform(0.1, 5, 10)]),
               np.concatenate([rng.uniform(0.1, 5, 10), -rng.uniform(0.1, 5, 30)]),
               np.zeros(n), rng.uniform(0.1, 5, n), -rng.uniform(0.1, 5, n),
               np.concatenate([rng.uniform(1, 5, 10), 1e-10 * rng.normal(size=20),
                               -rng.uniform(1, 5, 10)])]
    mats = [(Q * lam) @ Q.T for lam in spectra]
    for n in (2, 3, 7, 20, 60, 150, 300):
        for _ in range(2):
            A = rng.normal(size=(n, n))
            mats.append(A + A.T + rng.normal(size=(n, n)))   # not symmetric
    return mats


class TestSinglePrecisionSplit:
    """precision_split(sym, True): float32 eigenvectors of the smaller side, refined in
    double by Cholesky-QR and Rayleigh quotients."""

    def test_invariants(self):
        u32 = np.finfo(np.float32).eps
        for M in split_spectra():
            n = M.shape[0]
            sym = 0.5 * (M + M.T)
            nrm = max(np.linalg.norm(M), 1e-300)
            pos, neg, _ = precision_split(sym, True)
            # one side is the product and semidefinite to double rounding; the other is
            # its exact difference from sym, of the right sign to float32 accuracy
            few_positive = np.array_equal(neg, sym - pos)
            assert few_positive or np.array_equal(pos, sym - neg)
            prod, rest = (pos, -neg) if few_positive else (-neg, pos)
            assert np.array_equal(prod, prod.T)
            assert np.linalg.eigvalsh(prod)[0] >= -1e-12 * nrm
            assert np.linalg.eigvalsh(rest)[0] >= -n * u32 * nrm
            assert abs((pos * neg).sum()) <= 1e-12 * np.linalg.norm(pos) * nrm
            # Davis-Kahan: the vectors move by about u32 ||M|| / gap
            gap = np.abs(np.linalg.eigvalsh(sym)).min()
            if gap > 0:
                ref = precision_split(sym, False)[0]
                assert np.linalg.norm(pos - ref) <= u32 * nrm ** 2 / gap

    def test_runs_in_single_precision(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(30, 30))
        assert precision_split(A, True)[2] and not precision_split(A, False)[2]

    def test_out_of_range_falls_back_to_double(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(12, 12))
        for M in (1e39 * (A + A.T), 1e-39 * (A + A.T), np.zeros((12, 12))):
            pos, neg, single = precision_split(M, True)
            ref = precision_split(M, False)
            assert not single
            assert np.array_equal(pos, ref[0]) and np.array_equal(neg, ref[1])

    def test_lapack_failure_falls_back_to_double(self, monkeypatch):
        real = symm.lapack.get_lapack_funcs

        def failing(names, arrays):
            syevd = real(names, arrays)
            if arrays[0].dtype != np.float32:
                return syevd
            return lambda a, **kw: (*syevd(a, **kw)[:2], 1)

        rng = np.random.default_rng(8)
        sym = rng.normal(size=(20, 20))
        sym = 0.5 * (sym + sym.T)
        ref = precision_split(sym, False)
        monkeypatch.setattr(symm.lapack, "get_lapack_funcs", failing)
        pos, neg, single = precision_split(sym, True)
        assert not single
        assert np.array_equal(pos, ref[0]) and np.array_equal(neg, ref[1])

    def test_failed_cholesky_qr_falls_back_to_double(self, monkeypatch):
        rng = np.random.default_rng(9)
        sym = rng.normal(size=(20, 20))
        sym = 0.5 * (sym + sym.T)
        ref = precision_split(sym, False)
        monkeypatch.setattr(symm.lapack, "dpotrf", lambda G: (G, 1))
        pos, neg, single = precision_split(sym, True)
        assert not single
        assert np.array_equal(pos, ref[0]) and np.array_equal(neg, ref[1])

    def test_double_failure_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            precision_split(np.full((3, 3), np.inf), True)


def all_double(monkeypatch):
    monkeypatch.setattr(admm, "DOUBLE_WITHIN", np.inf)


class TestSinglePrecisionSweeps:
    """solve runs its non-check sweeps in single precision until a record is within
    DOUBLE_WITHIN * eps_tol; the result matches an all-double run."""

    @pytest.mark.parametrize("family", ["keq", "gpkc"])
    @pytest.mark.parametrize("relaxation", ["sdp", "dnn"])
    def test_matches_all_double(self, family, relaxation, monkeypatch):
        if family == "keq":
            g = gen_rand_graph(24, 0.5, 3)
            p = (build_keq_sdp if relaxation == "sdp" else build_keq_dnn)(g, 3)
        else:
            g, spec = gen_gpkc_instance(20, 0.5, 4, 3)
            p = (build_gpkc_sdp if relaxation == "sdp" else build_gpkc_dnn)(g, spec)
        # with the Anderson steps as shipped, then without any (memory 0)
        for memory in (admm.ANDERSON_MEMORY, 0):
            monkeypatch.setattr(admm, "ANDERSON_MEMORY", memory)
            mixed = solve(p)
            all_double(monkeypatch)
            double = solve(p)
            monkeypatch.undo()
            assert mixed.single_sweeps > 0 and double.single_sweeps == 0
            assert mixed.status == double.status
            assert mixed.certificate.raw == pytest.approx(double.certificate.raw,
                                                          rel=1e-6), memory

    def test_cut_loop_matches_all_double(self, monkeypatch):
        g = gen_rand_graph(24, 0.8, 4)
        spec = KEquipartition.for_graph(24, 3)
        mixed = cutting_loop(g, spec, "dnn+met", max_rounds=3)
        all_double(monkeypatch)
        double = cutting_loop(g, spec, "dnn+met", max_rounds=3)
        assert len(mixed) == len(double) == 3
        for a, b in zip(mixed, double):
            assert (a.status, a.cuts) == (b.status, b.cuts)
            assert a.bound == pytest.approx(b.bound, rel=1e-6)

    @pytest.mark.parametrize("name", ["keq", "gpkc", "warm"])
    def test_counts_the_non_check_sweeps_before_the_switch(self, name, residual_stop_only):
        p, start = cadence_case(name)
        prm = AdmmParams()
        worst = {}
        res = solve(p, prm, start=start,
                    callback=lambda k, st, rec, pr, du: worst.__setitem__(k, rec.max_residual))
        checks = [k for k in worst if k % admm.CHECK_EVERY == 0 or k == prm.max_iter]
        handover = max(admm.DOUBLE_WITHIN * prm.eps_tol, admm.DOUBLE_FLOOR)
        switch = next((k for k in checks if worst[k] <= handover), res.iterations)
        assert switch < res.iterations   # the switch happens before the stop
        assert res.single_sweeps == switch - switch // admm.CHECK_EVERY

    @pytest.mark.parametrize("args", [(7, 0.2, 7, 3), (9, 0.2, 3, 10)])
    def test_tight_tolerance_hands_over_to_double(self, args):
        # float32 sweeps stall at residuals of 3-8e-7, above DOUBLE_WITHIN * 1e-8, and
        # these SDPs' optimum is 0, where the bound test's slack vanishes: without the
        # DOUBLE_FLOOR handover both ran all 20000 sweeps
        p = build_gpkc_sdp(*gen_gpkc_instance(*args))
        res = solve(p, AdmmParams(eps_tol=1e-8))
        assert res.status in admm.STOPPED and res.iterations < 1000
        assert res.single_sweeps < res.iterations

    def test_check_sweeps_run_in_double(self, monkeypatch):
        asked = []

        def spy(N, single):
            asked.append(single)
            return precision_split(N, single)

        monkeypatch.setattr(admm, "precision_split", spy)
        p = build_keq_dnn(gen_rand_graph(20, 0.5, 2), 2)
        res = solve(p, AdmmParams(max_iter=35))
        assert res.iterations == len(asked) == 35
        assert [k for k in range(1, 36) if not asked[k - 1]] == [10, 20, 30, 35]
        assert res.single_sweeps == 31

    def test_identical_runs_are_equal(self):
        p = build_gpkc_dnn(*gen_gpkc_instance(20, 0.5, 4, 5))
        a, b = solve(p), solve(p)
        assert (a.iterations, a.status, a.single_sweeps) == (b.iterations, b.status,
                                                               b.single_sweeps)
        assert a.certificate.raw == b.certificate.raw
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(a.state, field), getattr(b.state, field)), field

    def test_certify_s_times_the_certificates(self, monkeypatch):
        # one certificate per check sweep, or one at return when no sweep ran
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eig_lower_bound(*args, **kwargs)

        monkeypatch.setattr(admm, "eig_lower_bound", counted)
        p = build_keq_dnn(gen_rand_graph(20, 0.5, 2), 2)
        res = solve(p)
        assert 0.0 < res.certify_s < res.elapsed
        assert len(calls) == res.iterations // admm.CHECK_EVERY
        calls.clear()
        bare = solve(p, AdmmParams(max_iter=0))
        assert len(calls) == 1 and 0.0 < bare.certify_s <= bare.elapsed


def sdp_past_the_opening():
    """A keq SDP whose cold solve outlives the norm-ratio opening (160 sweeps)."""
    return build_keq_sdp(gen_rand_graph(30, 0.2, 2), 3)


def anderson_log(monkeypatch):
    """Per Anderson step: (the sweep just run, whether the next input was extrapolated,
    whether its Xt, Z and S are symmetric bit for bit)."""
    log = []
    step = admm._Anderson.step

    def spy(self, state):
        extrapolated = step(self, state)
        log.append((state.iter, extrapolated,
                    all(np.array_equal(M, M.T) for M in (state.Xt, state.Z, state.S))))
        return extrapolated

    monkeypatch.setattr(admm._Anderson, "step", spy)
    return log


def iterate_with_anderson(T, u, steps, memory, inputs=None):
    """Run u <- T(u) on 1 x 1 blocks Xt, Z and S with Anderson steps between the
    applications; returns the residual norms ||T(u) - u|| and the step results, and
    appends every u to ``inputs`` when given."""
    acc = admm._Anderson(1, 0, memory)
    state = AdmmState.zeros(diag_problem([1.0]), 1.0)
    norms, extrapolated = [], []
    for _ in range(steps):
        if inputs is not None:
            inputs.append(u)
        g = T(u)
        norms.append(float(np.linalg.norm(g - u)))
        state.Xt, state.Z, state.S = (np.array([[x]]) for x in g)
        extrapolated.append(acc.step(state))
        u = np.array([state.Xt[0, 0], state.Z[0, 0], state.S[0, 0]])
    return norms, extrapolated


class TestAnderson:
    """While sigma holds still, solve replaces each sweep's input by a type-II Anderson
    extrapolation over the last sweep outputs; checks, certificates and the returned
    state still come from real sweeps."""

    def test_linear_map_converges_in_few_steps(self):
        # on an affine contraction of R^3, three differences span the space, and the
        # step solves the fixed point (plain iteration: about 0.9^k)
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        M = Q @ np.diag([0.9, 0.5, -0.3]) @ Q.T
        c = rng.normal(size=3)
        norms, extrapolated = iterate_with_anderson(lambda u: M @ u + c, np.zeros(3), 8, 3)
        assert extrapolated[:2] == [False, False] and all(extrapolated[2:5])
        assert norms[6] <= 1e-9 * norms[0]

    def test_growing_residual_restarts(self):
        # an expansion: every residual grows, so no step is extrapolated
        norms, extrapolated = iterate_with_anderson(lambda u: 2.0 * u + 1.0, np.zeros(3),
                                                    10, 3)
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert not any(extrapolated)

    def test_singular_least_squares_restarts(self):
        # a translation: every residual is the same vector, so every difference is 0 and
        # the least-squares system singular; no step is extrapolated, and none grew
        norms, extrapolated = iterate_with_anderson(lambda u: u + np.array([1.0, -2.0, 3.0]),
                                                    np.zeros(3), 10, 3)
        assert len(set(norms)) == 1
        assert not any(extrapolated)

    def test_growth_on_an_extrapolated_input_drops_that_output(self):
        # x -> x / 2 + 1.5 below 2.5 (fixed point 3, beyond the piece) and 100 - 30 x
        # above: the step extrapolates to 3, where the residual jumps from 0.375 to 7, so
        # that output is dropped and the next input is the output before it, 2.625
        def T(u):
            x = u[0]
            return np.array([x / 2 + 1.5 if x < 2.5 else 100.0 - 30.0 * x, 0.0, 0.0])

        inputs = []
        norms, extrapolated = iterate_with_anderson(T, np.zeros(3), 5, 3, inputs)
        assert [u[0] for u in inputs] == [0.0, 1.5, 2.25, 3.0, 2.625]
        assert norms[3] == 7.0 and extrapolated[:4] == [False, False, True, False]

    def test_one_difference_solves_a_scaling(self):
        # a scaling of the distance to a fixed point: one difference spans it, and the
        # first extrapolated input is the fixed point
        target = np.array([1.0, -2.0, 3.0])
        norms, extrapolated = iterate_with_anderson(
            lambda u: target + 0.5 * (u - target), np.zeros(3), 4, 3)
        assert extrapolated[:3] == [False, False, True]
        assert norms[3] <= 1e-12 * norms[0]

    @pytest.mark.parametrize("name", ["warm", "sdp"])
    def test_identical_runs_are_equal(self, name):
        p, start = warm_round() if name == "warm" else (sdp_past_the_opening(), None)
        a, b = solve(p, start=start), solve(p, start=start)
        assert a.accelerated_sweeps > 0
        assert (a.iterations, a.status, a.accelerated_sweeps, a.single_sweeps) == \
            (b.iterations, b.status, b.accelerated_sweeps, b.single_sweeps)
        assert a.certificate == b.certificate
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(a.state, field), getattr(b.state, field)), field

    def test_cold_solve_inside_the_opening_runs_without_history(self, monkeypatch):
        # the opening moves sigma after every sweep, so a solve that stops inside it
        # never extrapolates, and it is the solve without any history bit for bit
        p = cadence_problems()["keq"]
        a = solve(p)
        assert a.iterations <= admm.OPENING_SWEEPS and a.accelerated_sweeps == 0
        monkeypatch.setattr(admm, "ANDERSON_MEMORY", 0)
        b = solve(p)
        assert (a.iterations, a.status, a.single_sweeps) == \
            (b.iterations, b.status, b.single_sweeps)
        assert a.certificate == b.certificate and a.residuals == b.residuals
        for field in ("X", "y", "ybar", "S", "Z", "v", "s"):
            assert np.array_equal(getattr(a.state, field), getattr(b.state, field)), field

    def test_extrapolated_matrices_are_symmetric(self, monkeypatch):
        # the sweep splits N as it is: the extrapolated Xt, Z and S of a keq SDP, a
        # knapsack DNN with a non-uniform box and a warm round are symmetric bit for bit
        log = anderson_log(monkeypatch)
        g, spec = gen_gpkc_instance(10, 0.5, 5, 2)
        p, start = warm_round()
        for problem, st in ((sdp_past_the_opening(), None), (build_gpkc_dnn(g, spec), None),
                            (p, start)):
            solve(problem, start=st)
        assert sum(extrapolated for _, extrapolated, _ in log) > 50
        assert all(symmetric for _, extrapolated, symmetric in log if extrapolated)

    def test_extrapolation_waits_for_three_sweeps_at_one_sigma(self, monkeypatch):
        # the history restarts whenever sigma changes, and it takes two residuals: a
        # sweep runs on an extrapolated input only when the three sweeps before it ran
        # at its sigma, so none does in the opening
        log = anderson_log(monkeypatch)
        sigmas = {}
        res = solve(sdp_past_the_opening(),
                    callback=lambda k, st, rec, pr, du: sigmas.__setitem__(k, st.sigma))
        assert res.iterations > admm.OPENING_SWEEPS + 10
        accelerated = [k + 1 for k, extrapolated, _ in log if extrapolated]
        assert len(accelerated) == res.accelerated_sweeps > 0
        assert min(accelerated) > admm.OPENING_SWEEPS + 3
        for k in accelerated:
            assert len({sigmas[j] for j in range(k - 3, k + 1)}) == 1, k

    def test_returned_state_comes_from_a_check_sweep(self):
        # extrapolated inputs are never returned: the state and record are a check
        # sweep's, and the certificate is that state's bound
        p, start = warm_round()
        res = solve(p, start=start)
        assert res.state.iter % admm.CHECK_EVERY == 0
        assert res.residuals == residuals(res.state, p)
        assert res.certificate == eig_lower_bound(p, res.state)


class TestDualObjective:
    def test_support_value_signs(self):
        # positive entries meet lo, negative ones hi
        S = np.array([[1.0, -0.5], [-0.5, 2.0]])
        clamped, mag, value, terms = _box_support(S, np.full((2, 2), -1.0),
                                                  np.full((2, 2), 2.0))
        assert clamped is S and mag == 0.0 and value == -5.0 and terms == 5.0
        # an entry paired with an infinite bound is zeroed before the sum, and counted
        # in the clamp norm; the block given is not written
        lo, hi = np.zeros((2, 2)), np.full((2, 2), np.inf)
        clamped, mag, value, terms = _box_support(S, lo, hi)
        assert np.array_equal(clamped, np.diag([1.0, 2.0])) and S[0, 1] == -0.5
        assert mag == np.linalg.norm([0.5, 0.5]) and value == 0.0 and terms == 0.0
        assert _box_support(np.abs(S), lo, hi)[1:] == (0.0, 0.0, 0.0)

    def test_clamped_reporting(self):
        p = diag_problem([1.0, 1.0], box_lo=np.zeros((2, 2)))
        S = np.array([[0.5, -0.1], [-0.1, 0.2]])
        val, mag = dual_objective(p, np.zeros(2), np.zeros(0), S)
        assert np.isfinite(val)
        assert mag == pytest.approx(np.sqrt(2 * 0.1 ** 2))
