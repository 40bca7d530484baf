import itertools
import tracemalloc

import numpy as np
import pytest

from gpbound import simplex
from gpbound.certify import _standard_form_box_lp
from gpbound.graphs import gen_gpkc_instance
from gpbound.model import build_gpkc_dnn
from gpbound.simplex import _pivot, solve_dense_lp


def vertex_enumeration_optimum(c, A, b):
    """Brute-force oracle: scan all basic feasible solutions (<= 8 variables)."""
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, b)
        if xb.min(initial=0.0) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


class TestBasics:
    def test_max_under_simplex_constraint(self):
        # max x1 s.t. x1 + x2 = 1, x >= 0 -> 1, solved as min -x1
        res = solve_dense_lp(np.array([-1.0, 0.0]), np.array([[1.0, 1.0]]),
                             np.array([1.0]))
        assert res.status == "optimal"
        assert -res.objective == pytest.approx(1.0)

    def test_infeasible_detected(self):
        # x1 = -1 with x1 >= 0
        res = solve_dense_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
        assert res.status == "infeasible"

    def test_unbounded_detected(self):
        # min -x1 s.t. x1 - x2 = 0 -> drive both up forever
        res = solve_dense_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]),
                             np.array([0.0]))
        assert res.status == "unbounded"

    def test_degenerate_problem_terminates(self):
        # classic cycling-prone data (Beale); Bland fallback must terminate
        A = np.array([
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        res = solve_dense_lp(c, A, b)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-9)

    def test_equality_redundancy_handled(self):
        # duplicated row keeps an artificial basic at zero; must still solve
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = solve_dense_lp(np.array([1.0, 2.0]), A, np.array([1.0, 1.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)


class TestAgainstVertexEnumeration:
    def test_random_small_lps(self):
        rng = np.random.default_rng(0)
        solved = 0
        for trial in range(300):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 9))
            A = rng.normal(size=(m, n))
            x_feas = rng.uniform(0.1, 2.0, size=n)
            b = A @ x_feas  # feasible by construction
            c = rng.normal(size=n)
            truth = vertex_enumeration_optimum(c, A, b)
            res = solve_dense_lp(c, A, b)
            if truth is None:
                continue
            if res.status == "unbounded":
                # oracle only sees vertices; confirm a ray exists
                continue
            assert res.status == "optimal", f"trial {trial}: {res.status}"
            assert res.objective <= truth + 1e-7 * max(1.0, abs(truth))
            assert res.objective >= truth - 1e-7 * max(1.0, abs(truth))
            solved += 1
        assert solved > 100

    def test_bounded_random_lps_exact(self):
        # append a simplex-style row so the LP is always bounded
        rng = np.random.default_rng(1)
        for trial in range(100):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(m + 2, 8))
            A = rng.normal(size=(m, n))
            x_feas = rng.uniform(0.1, 1.0, size=n)
            b = A @ x_feas
            A = np.vstack([A, np.ones(n)])
            b = np.concatenate([b, [float(x_feas.sum())]])
            c = rng.normal(size=n)
            truth = vertex_enumeration_optimum(c, A, b)
            res = solve_dense_lp(c, A, b)
            assert truth is not None
            assert res.status == "optimal"
            assert res.objective == pytest.approx(truth, rel=1e-7, abs=1e-7)


class TestCertification:
    def test_duals_and_gap(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 7))
        x_feas = rng.uniform(0.5, 1.5, size=7)
        b = A @ x_feas
        A = np.vstack([A, np.ones(7)])
        b = np.concatenate([b, [float(x_feas.sum())]])
        c = rng.normal(size=7)
        res = solve_dense_lp(c, A, b)
        assert res.status == "optimal"
        assert res.duals is not None
        gap = abs(res.objective - res.duals @ b)
        assert gap <= 1e-8 * max(1.0, abs(res.objective))
        assert np.linalg.norm(A @ res.x - b) <= 1e-8 * max(1.0, np.abs(b).sum())


def outer_product_pivot(T, row, col):
    """Reference rank-1 pivot: the textbook update with an explicit outer product."""
    T = T.copy()
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    return T - np.outer(factors, T[row])


class TestPivot:
    def test_matches_outer_product(self):
        rng = np.random.default_rng(3)
        T = rng.normal(size=(31, 57))
        assert T.flags.c_contiguous
        expected = outer_product_pivot(T, 7, 12)
        basis = np.arange(30)
        _pivot(T, basis, 7, 12)
        assert basis[7] == 12
        np.testing.assert_allclose(T, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        assert T[7, 12] == 1.0
        assert np.abs(np.delete(T[:, 12], 7)).max() <= 1e-12

    def test_allocates_no_tableau_sized_temporary(self):
        # the certificate LP of a knapsack instance at n = 80 is 241 x 3641; an
        # outer-product update allocates about 7 MB per pivot
        rng = np.random.default_rng(4)
        T = rng.uniform(0.5, 1.5, size=(241, 3641))
        basis = np.arange(240)
        tracemalloc.start()
        try:
            _pivot(T, basis, 17, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def slack_lp(A0, b, c):
    """[A0 | I] x = b: every row with b >= 0 can start on its own slack column."""
    m = A0.shape[0]
    return np.hstack([A0, np.eye(m)]), b, np.concatenate([c, np.zeros(m)])


class TestSlackStartingBasis:
    def test_random_slack_lps(self):
        # the last row sum(x0) + s = total bounds every variable; rows with a
        # negative right-hand side lose their slack to the sign flip
        rng = np.random.default_rng(5)
        infeasible = optimal = 0
        for trial in range(200):
            m = int(rng.integers(1, 3))
            n0 = int(rng.integers(1, 8 - m))
            A0 = np.vstack([rng.normal(size=(m - 1, n0)), np.ones(n0)])
            b = np.concatenate([rng.normal(size=m - 1), [rng.uniform(0.5, 2.0)]])
            A, b, c = slack_lp(A0, b, rng.normal(size=n0))
            truth = vertex_enumeration_optimum(c, A, b)
            res = solve_dense_lp(c, A, b)
            if truth is None:
                assert res.status == "infeasible", trial
                infeasible += 1
                continue
            assert res.status == "optimal", (trial, res.status)
            assert res.objective == pytest.approx(truth, rel=1e-7, abs=1e-7), trial
            optimal += 1
        assert optimal > 100 and infeasible > 5

    def test_infeasible(self):
        # x1 <= 1, x2 <= 1 and x1 + x2 >= 3 (the middle row has no slack after its flip)
        A0 = np.array([[1.0, 0.0], [-1.0, -1.0], [0.0, 1.0]])
        A, b, c = slack_lp(A0, np.array([1.0, -3.0, 1.0]), np.array([1.0, 1.0]))
        assert vertex_enumeration_optimum(c, A, b) is None
        assert solve_dense_lp(c, A, b).status == "infeasible"

    def test_redundant_row(self):
        # the third row is the sum of the first two, owns no unit column and
        # keeps its artificial basic at zero
        A0 = np.array([[1.0, 1.0], [1.0, 2.0]])
        A, b, c = slack_lp(A0, np.array([2.0, 3.0]), np.array([-1.0, -2.0]))
        truth = vertex_enumeration_optimum(c, A, b)
        res = solve_dense_lp(c, np.vstack([A, A.sum(axis=0)]), np.append(b, b.sum()))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(truth, rel=1e-9)

    def test_knapsack_certificate_lp_phase_one(self, monkeypatch):
        # the LP that lp_lower_bound builds for a knapsack DNN at n = 80: its 80
        # bound rows start on their slacks, so 160 of 240 rows get an artificial.
        # Phase 1 only sees A and b, so the cost here is the plain C.
        g, spec = gen_gpkc_instance(80, 0.5, 4, 1)
        p = build_gpkc_dnn(g, spec)
        c, A, b, _ = _standard_form_box_lp(p, p.C)
        phases = []
        inner = simplex._run

        def run(T, basis, ncols, allowed, max_iter):
            status, it = inner(T, basis, ncols, allowed, max_iter)
            phases.append((it, ncols - A.shape[1]))
            return status, it

        monkeypatch.setattr(simplex, "_run", run)
        res = solve_dense_lp(c, A, b)
        assert res.status == "optimal"
        assert A.shape == (240, 3400)
        pivots, artificials = phases[0]
        assert artificials == 160
        # an all-artificial start took 914 phase-1 pivots on this LP
        assert pivots <= 400
