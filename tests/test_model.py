import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from gpbound import admm
from gpbound.graphs import Gpkc, GraphInstance, Partition, gen_rand_graph
from gpbound.model import (
    MET_VIOLATION_TOL,
    SdpProblem,
    TriangleCut,
    add_cuts,
    build_gpkc_dnn,
    build_gpkc_sdp,
    build_keq_dnn,
    build_keq_sdp,
    separate_met,
)


def complete_graph(n):
    W = np.full((n, n), 1.0)
    np.fill_diagonal(W, 0.0)
    return GraphInstance(n=n, W_adj=W, name=f"K{n}")


def indicator_gram(p: Partition) -> np.ndarray:
    assign = p.assignment()
    return (assign[:, None] == assign[None, :]).astype(float)


def all_set_partitions(items):
    # recursive block-building enumeration, independent of the oracle module
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


class TestKeqBuilders:
    def test_row_counts_n4_k2(self):
        g = gen_rand_graph(4, 0.8, 0)
        p = build_keq_sdp(g, 2)
        assert p.m == 8 and p.q == 0

    def test_block_feasible_point_satisfies_rows(self):
        g = gen_rand_graph(4, 0.5, 1)
        p = build_keq_sdp(g, 2)
        X = indicator_gram(Partition.from_groups(4, [(0, 1), (2, 3)]))
        assert np.allclose(p.eq_apply(X), p.b)

    def test_complete_graph_objective_constant(self):
        n, k = 6, 3
        m = n // k
        g = complete_graph(n)
        p = build_keq_sdp(g, k)
        expected = (n * n - n * m) / 2
        for groups in ([(0, 1), (2, 3), (4, 5)], [(0, 3), (1, 4), (2, 5)]):
            X = indicator_gram(Partition.from_groups(n, groups))
            assert float((p.C * X).sum()) == pytest.approx(expected)

    def test_dnn_box_and_partition_feasibility(self):
        g = gen_rand_graph(6, 0.5, 2)
        p = build_keq_dnn(g, 3)
        assert np.all(p.box_lo == 0.0) and np.all(np.isinf(p.box_hi))
        X = indicator_gram(Partition.from_groups(6, [(0, 1), (2, 3), (4, 5)]))
        assert np.allclose(p.eq_apply(X), p.b)
        assert np.array_equal(p.clip_box(X), X)

    def test_divisibility_enforced(self):
        g = gen_rand_graph(6, 0.5, 3)
        with pytest.raises(Exception):
            build_keq_sdp(g, 4)


class TestGpkcBuilders:
    def test_identity_feasible_for_dnn(self):
        g = gen_rand_graph(5, 0.5, 4)
        spec = Gpkc(a=np.array([2.0, 3.0, 1.0, 2.0, 2.0]), W=4.0)
        p = build_gpkc_dnn(g, spec)
        X = np.eye(5)
        assert np.allclose(p.eq_apply(X), p.b)
        vals = p.ineq_apply(X)
        assert np.all(vals >= p.l - 1e-12) and np.all(vals <= p.u + 1e-12)

    def test_unit_weights_capacity_one(self):
        g = complete_graph(3)
        spec = Gpkc(a=np.ones(3), W=1.0)
        p = build_gpkc_dnn(g, spec)
        X = np.eye(3)
        vals = p.ineq_apply(X)
        assert np.all(vals <= p.u + 1e-12) and np.all(vals >= p.l - 1e-12)

    def test_all_ones_violates_capacity(self):
        g = complete_graph(4)
        spec = Gpkc(a=np.array([2.0, 2.0, 2.0, 2.0]), W=5.0)
        p = build_gpkc_sdp(g, spec)
        X = np.ones((4, 4))
        assert np.any(p.ineq_apply(X) > p.u)

    def test_sdp_has_free_lower_slack(self):
        g = complete_graph(4)
        spec = Gpkc(a=np.ones(4), W=2.0)
        p = build_gpkc_sdp(g, spec)
        assert np.all(np.isinf(p.l)) and np.all(p.l < 0)
        assert np.all(p.u == 2.0)

    def test_conflict_pairs_fixed_to_zero(self):
        # 4 + 3 > 6 is the only conflict; a pair of weight exactly W is not one
        spec = Gpkc(a=np.array([4.0, 3.0, 1.0, 2.0]), W=6.0)
        p = build_gpkc_dnn(complete_graph(4), spec)
        hi = np.full((4, 4), np.inf)
        hi[0, 1] = hi[1, 0] = 0.0
        assert np.array_equal(p.box_hi, hi)
        assert np.array_equal(p.box_lo, np.zeros((4, 4)))
        # the knapsack SDP keeps the paper's free box
        assert np.isinf(build_gpkc_sdp(complete_graph(4), spec).box_hi).all()

    def test_every_feasible_partition_lies_in_the_box(self):
        a = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 4.0])
        spec = Gpkc(a=a, W=7.0)
        p = build_gpkc_dnn(gen_rand_graph(6, 0.5, 3), spec)
        assert (p.box_hi == 0).sum() > 0
        feasible = 0
        for groups in all_set_partitions(range(6)):
            part = Partition.from_groups(6, groups)
            if part.feasible_for(spec):
                X = indicator_gram(part)
                assert np.all(X <= p.box_hi) and np.all(X >= p.box_lo), groups
                feasible += 1
        assert feasible > 0

    def test_no_conflict_pairs_keep_the_free_box(self):
        from gpbound.graphs import gen_gpkc_instance

        g, spec = gen_gpkc_instance(30, 0.5, 5, 1)
        pair = spec.a[:, None] + spec.a[None, :]
        assert pair[~np.eye(30, dtype=bool)].max() <= spec.W
        p = build_gpkc_dnn(g, spec)
        assert np.array_equal(p.box_hi, np.full((30, 30), np.inf))
        assert p._box_bounds == (0.0, np.inf)


class TestSeparation:
    def test_clear_violation_found(self):
        X = np.eye(3)
        X[0, 1] = X[1, 0] = 1.0
        X[0, 2] = X[2, 0] = 1.0
        cuts = separate_met(X, max_cuts=10)
        assert cuts and cuts[0].triple == (0, 1, 2)
        assert cuts[0].violation == pytest.approx(1.0)

    def test_identity_clean(self):
        assert separate_met(np.eye(6), max_cuts=10) == []

    def test_partition_grams_satisfy_all_triangles(self):
        n = 6
        for blocks in all_set_partitions(range(n)):
            X = indicator_gram(Partition.from_groups(n, [tuple(b) for b in blocks]))
            assert separate_met(X, max_cuts=5) == []

    def test_agrees_with_naive_triple_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 7
            A = rng.random((n, n))
            X = 0.5 * (A + A.T)
            cuts = separate_met(X, max_cuts=10 ** 6)
            naive = []
            for i, j, r in itertools.permutations(range(n), 3):
                if j < r:
                    v = X[i, j] + X[i, r] - X[j, r] - 1.0
                    if v > 1e-4:
                        naive.append((v, (i, j, r)))
            assert len(cuts) == len(naive)
            got = {c.triple: c.violation for c in cuts}
            for v, triple in naive:
                assert got[triple] == pytest.approx(v)

    def test_sorted_by_violation_and_capped(self):
        rng = np.random.default_rng(5)
        A = rng.random((8, 8))
        X = 0.5 * (A + A.T) + 0.5
        cuts = separate_met(X, max_cuts=4)
        assert len(cuts) <= 4
        viols = [c.violation for c in cuts]
        assert viols == sorted(viols, reverse=True)


def separate_met_full_scan(X, max_cuts):
    """The n^3 scan that separate_met replaced: every apex, every pair, one full sort."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    apex, left, right, viol = [], [], [], []
    for i in range(n):
        V = X[i][:, None] + X[i][None, :] - X - 1.0
        jj, rr = np.nonzero(np.triu(V > MET_VIOLATION_TOL, k=1))
        keep = (jj != i) & (rr != i)
        jj, rr = jj[keep], rr[keep]
        if jj.size:
            apex.append(np.full(jj.size, i))
            left.append(jj)
            right.append(rr)
            viol.append(V[jj, rr])
    if not apex:
        return []
    apex = np.concatenate(apex)
    left = np.concatenate(left)
    right = np.concatenate(right)
    viol = np.concatenate(viol)
    order = np.lexsort((right, left, apex, -viol))[:max_cuts]
    return [TriangleCut(int(apex[t]), int(left[t]), int(right[t]), float(viol[t]))
            for t in order]


class TestSeparationMatchesFullScan:
    """separate_met scans only the legs that can be in a violated cut and sorts only
    the largest violations; its output must be the full scan's, tie order included."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(16)
        for n in (3, 4, 9, 25):
            A = rng.random((n, n)) - 0.01          # entries from -0.01, as DNN iterates have
            yield 0.5 * (A + A.T)
        for n in (8, 20):
            A = rng.integers(-1, 5, size=(n, n)) / 4.0   # quarters: many exact ties
            yield np.triu(A) + np.triu(A, 1).T
        A = rng.random((12, 12)) * 0.7             # legs below 0.5 on most apexes
        X = 0.5 * (A + A.T)
        X[3, 5] = X[5, 3] = 0.95
        X[3, 7] = X[7, 3] = 0.9
        yield X
        X = 0.5 * (A + A.T) + 0.3
        X[2, 4] = X[4, 2] = np.nan
        yield X
        g = gen_rand_graph(30, 0.5, 1)
        yield admm.solve(build_keq_dnn(g, 3), admm.AdmmParams(max_iter=40)).state.X

    def test_equals_the_full_scan(self):
        found = []
        for X in self.matrices():
            every = separate_met_full_scan(X, 10 ** 6)
            counts = {0, 1, len(every) // 3, len(every) - 1, len(every), len(every) + 5}
            for max_cuts in sorted(c for c in counts if c >= 0):
                assert separate_met(X, max_cuts) == separate_met_full_scan(X, max_cuts), \
                    (X.shape, max_cuts)
            found.append(len(every))
        assert sum(c > 0 for c in found) >= 6

    def test_ties_at_the_cap_keep_the_full_order(self):
        X = np.zeros((6, 6))
        X[0, 1:] = X[1:, 0] = 1.0                 # apex 0: ten cuts of violation 1
        np.fill_diagonal(X, 1.0)
        every = separate_met_full_scan(X, 10 ** 6)
        assert len(every) == 10 and len({c.violation for c in every}) == 1
        for max_cuts in range(1, 11):
            assert separate_met(X, max_cuts) == every[:max_cuts]


class TestAddCuts:
    def setup_method(self):
        self.g = gen_rand_graph(6, 0.8, 7)
        self.p = build_keq_dnn(self.g, 2)

    def test_no_cuts_identity(self):
        assert add_cuts(self.p, []) is self.p

    def test_q_grows_by_cut_count(self):
        cuts = [TriangleCut(0, 1, 2), TriangleCut(1, 2, 3)]
        p2 = add_cuts(self.p, cuts)
        assert p2.q == self.p.q + 2
        assert np.all(p2.u[-2:] == 1.0)
        assert np.all(np.isinf(p2.l[-2:]))

    def test_duplicate_rejected(self):
        p2 = add_cuts(self.p, [TriangleCut(0, 1, 2)])
        with pytest.raises(ValueError):
            add_cuts(p2, [TriangleCut(0, 1, 2)])
        with pytest.raises(ValueError):
            add_cuts(self.p, [TriangleCut(0, 1, 2), TriangleCut(0, 2, 1)])

    def test_cut_row_evaluates_triangle_expression(self):
        p2 = add_cuts(self.p, [TriangleCut(0, 1, 2)])
        rng = np.random.default_rng(0)
        A = rng.random((6, 6))
        X = 0.5 * (A + A.T)
        got = p2.ineq_apply(X)[-1]
        assert got == pytest.approx(X[0, 1] + X[0, 2] - X[1, 2])


class TestGramConditioning:
    @pytest.mark.parametrize("n,k", [(4, 2), (12, 3), (24, 4), (60, 5)])
    def test_keq_normal_matrix_factors(self, n, k):
        g = gen_rand_graph(n, 0.5, n + k)
        admm.factor_normal_matrix(build_keq_dnn(g, k))

    @pytest.mark.parametrize("n", [4, 20, 60])
    def test_gpkc_normal_matrix_factors(self, n):
        g = gen_rand_graph(n, 0.5, n)
        a = np.random.default_rng(n).integers(1, 1000, size=n).astype(float)
        spec = Gpkc(a=a, W=float(a.sum()))
        admm.factor_normal_matrix(build_gpkc_dnn(g, spec))

    def test_cut_rows_keep_independence(self):
        g = gen_rand_graph(10, 0.8, 1)
        p = add_cuts(build_keq_dnn(g, 2), [TriangleCut(0, 1, 2), TriangleCut(3, 4, 5)])
        admm.factor_normal_matrix(p)


class TestCuttingLoop:
    def test_one_round_trace_when_solution_clean(self):
        g = complete_graph(6)
        trace = model_cutting_loop_for(g, 2)
        assert len(trace) == 1
        assert trace[0].cuts == 0

    def test_trace_length_capped_by_max_rounds(self):
        from gpbound.certify import cutting_loop
        from gpbound.graphs import KEquipartition

        g = gen_rand_graph(8, 0.8, 0)  # known to violate triangles at the optimum
        trace = cutting_loop(g, KEquipartition.for_graph(8, 2), max_rounds=2)
        assert 1 <= len(trace) <= 2

    def test_bound_non_decreasing_fixed_seed(self):
        from gpbound.certify import cutting_loop
        from gpbound.graphs import KEquipartition

        g = gen_rand_graph(8, 0.5, 8)
        trace = cutting_loop(g, KEquipartition.for_graph(8, 2), max_rounds=4)
        for earlier, later in zip(trace, trace[1:]):
            assert later.bound >= earlier.bound - 1e-6 * (1.0 + abs(earlier.bound))


    @pytest.mark.parametrize("relaxation", ["sdp", "dnn"])
    @pytest.mark.parametrize("knapsack", [False, True])
    def test_single_round_is_solve_then_certify(self, relaxation, knapsack):
        from gpbound.certify import certify_bound, cutting_loop
        from gpbound.graphs import KEquipartition, gen_gpkc_instance
        from gpbound.model import build

        if knapsack:
            g, spec = gen_gpkc_instance(8, 0.5, 2, 3)
        else:
            g = gen_rand_graph(9, 0.5, 4)
            spec = KEquipartition.for_graph(9, 3)
        params = admm.AdmmParams(eps_tol=1e-4)
        rounds = cutting_loop(g, spec, relaxation, params)
        problem = build(g, spec, relaxation)
        result = admm.solve(problem, params)
        cert = certify_bound(problem, result)
        assert len(rounds) == 1
        assert rounds[0].certificate == cert
        assert rounds[0].bound == cert.value
        assert (rounds[0].iterations, rounds[0].status) == (result.iterations, result.status)

    def test_rounds_carry_their_solves_sweep_and_certificate_counts(self, monkeypatch):
        from gpbound import certify
        from gpbound.graphs import KEquipartition

        results = []

        def spy(*args, **kwargs):
            results.append(admm.solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(certify, "solve", spy)
        rounds = certify.cutting_loop(gen_rand_graph(12, 0.8, 0),
                                      KEquipartition.for_graph(12, 3), max_rounds=3)
        assert len(rounds) == len(results) > 1
        assert any(r.single_sweeps for r in rounds)
        for r, res in zip(rounds, results):
            assert (r.single_sweeps, r.certify_s) == (res.single_sweeps, res.certify_s)

    def test_callback_sees_every_sweep_of_every_round(self):
        from gpbound.certify import cutting_loop
        from gpbound.graphs import KEquipartition

        g = gen_rand_graph(8, 0.8, 0)
        seen = []
        rounds = cutting_loop(g, KEquipartition.for_graph(8, 2), max_rounds=3,
                              callback=lambda k, *rest: seen.append(k))
        assert len(rounds) > 1
        assert len(seen) == sum(r.iterations for r in rounds)
        assert seen.count(1) == len(rounds)

    @pytest.mark.parametrize("max_rounds", [0, -1])
    def test_rejects_fewer_than_one_round(self, max_rounds):
        from gpbound.certify import cutting_loop
        from gpbound.graphs import KEquipartition

        g = gen_rand_graph(6, 0.5, 0)
        with pytest.raises(ValueError, match="max_rounds"):
            cutting_loop(g, KEquipartition.for_graph(6, 2), max_rounds=max_rounds)

    @pytest.mark.parametrize("m_met", [0, -1])
    def test_rejects_fewer_than_one_cut_per_round(self, m_met):
        # m_met = -1 once sliced the separated cuts with a negative index: round 1 of
        # rand50_n12_s1 at k = 3 added 36 cuts, against 24 at the default 2n
        from gpbound.certify import cutting_loop
        from gpbound.graphs import KEquipartition

        g = gen_rand_graph(12, 0.5, 1)
        with pytest.raises(ValueError, match="m_met"):
            cutting_loop(g, KEquipartition.for_graph(12, 3), m_met=m_met)


def model_cutting_loop_for(g, k):
    from gpbound.certify import cutting_loop
    from gpbound.graphs import KEquipartition

    return cutting_loop(g, KEquipartition.for_graph(g.n, k), max_rounds=5)


class TestTriangleVectorization:
    def test_weighted_upper_triangle_matches_full_inner_product(self):
        # the LP route evaluates <A, X> on doubled upper-triangle entries; the
        # two evaluations must agree to 1e-12 relative
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, n))
            A = A + A.T
            B = B + B.T
            full = float((A * B).sum())
            r, c = np.triu_indices(n)
            ut = float((np.where(r == c, 1.0, 2.0) * A[r, c] * B[r, c]).sum())
            assert abs(ut - full) <= 1e-12 * max(1.0, abs(full))


class TestFeasiblePointsSatisfyBuilders:
    def test_keq_partition_points(self):
        g = gen_rand_graph(8, 0.5, 11)
        p = build_keq_dnn(g, 4)
        for groups in ([(0, 1), (2, 3), (4, 5), (6, 7)], [(0, 7), (1, 6), (2, 5), (3, 4)]):
            X = indicator_gram(Partition.from_groups(8, groups))
            assert np.allclose(p.eq_apply(X), p.b)

    def test_gpkc_partition_points(self):
        g = gen_rand_graph(6, 0.5, 12)
        a = np.array([2.0, 1.0, 3.0, 2.0, 2.0, 1.0])
        spec = Gpkc(a=a, W=5.0)
        p = build_gpkc_dnn(g, spec)
        part = Partition.from_groups(6, [(0, 2), (1, 3, 5), (4,)])
        part.validate_for(spec)
        X = indicator_gram(part)
        assert np.allclose(p.eq_apply(X), p.b)
        vals = p.ineq_apply(X)
        assert np.all(vals >= p.l - 1e-9) and np.all(vals <= p.u + 1e-9)


def unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


# the paper's constraint matrices, one n x n matrix per row
def diag_ref(n, i):
    return np.outer(unit(n, i), unit(n, i))


def rowsum_ref(n, i):
    e = np.ones(n)
    return (np.outer(unit(n, i), e) + np.outer(e, unit(n, i))) / 2


def weighted_rowsum_ref(a, i):
    n = a.size
    return (np.outer(unit(n, i), a) + np.outer(a, unit(n, i))) / 2


def triangle_ref(n, i, j, r):
    M = np.zeros((n, n))
    M[i, j] = M[j, i] = M[i, r] = M[r, i] = 0.5
    M[j, r] = M[r, j] = -0.5
    return M


def rows_as_matrices(M, n):
    return [M[t].toarray().reshape(n, n) for t in range(M.shape[0])]


def assert_rows_equal(M, n, expected):
    got = rows_as_matrices(M, n)
    assert M.shape == (len(expected), n * n)
    for t, (g_t, e_t) in enumerate(zip(got, expected)):
        assert np.array_equal(g_t, e_t), f"row {t}"


def weighted_instance(n):
    g = gen_rand_graph(n, 0.5, n)
    a = np.random.default_rng(n).integers(1, 1000, size=n).astype(float)
    return g, Gpkc(a=a, W=float(a.sum()) / 2)


class TestConstraintRows:
    """Every built row equals the paper's matrix, flattened row-major, exactly."""

    @pytest.mark.parametrize("n,k", [(5, 5), (8, 4)])
    def test_keq_rows(self, n, k):
        g = gen_rand_graph(n, 0.5, n)
        for build_fn in (build_keq_sdp, build_keq_dnn):
            p = build_fn(g, k)
            assert_rows_equal(p.A, n, [diag_ref(n, i) for i in range(n)]
                              + [rowsum_ref(n, i) for i in range(n)])
            assert p.B.shape == (0, n * n) and p.q == 0

    @pytest.mark.parametrize("n", [2, 3, 8, 60])
    def test_keq_rows_are_the_generic_builders_arrays(self, n):
        # the keq rows are written in CSR order directly; _sym_rows, which sorts, is
        # the reference down to the index dtype and the canonical format
        from gpbound.model import _sym_rows

        v = np.arange(n)
        i, j = np.divmod(np.arange(n * n), n)
        want = _sym_rows(2 * n, n, np.concatenate([v, n + i]), np.concatenate([v, i]),
                         np.concatenate([v, j]), 1.0)
        got = build_keq_dnn(gen_rand_graph(n, 0.5, n), n).A
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.has_canonical_format

    @pytest.mark.parametrize("n", [5, 8])
    def test_gpkc_rows(self, n):
        g, spec = weighted_instance(n)
        for build_fn in (build_gpkc_sdp, build_gpkc_dnn):
            p = build_fn(g, spec)
            assert_rows_equal(p.A, n, [diag_ref(n, i) for i in range(n)])
            assert_rows_equal(p.B, n, [weighted_rowsum_ref(spec.a, i) for i in range(n)])

    @pytest.mark.parametrize("n", [5, 8])
    def test_cut_rows_appended(self, n):
        g, spec = weighted_instance(n)
        first = [TriangleCut(0, 1, 2), TriangleCut(3, 4, 1)]
        second = [TriangleCut(4, 0, 2), TriangleCut(2, 3, 0)]
        keq = add_cuts(add_cuts(build_keq_dnn(g, n), first), second)
        assert_rows_equal(keq.B, n, [triangle_ref(n, *c.triple) for c in first + second])
        gpkc = add_cuts(build_gpkc_dnn(g, spec), first)
        assert_rows_equal(gpkc.B, n, [weighted_rowsum_ref(spec.a, i) for i in range(n)]
                          + [triangle_ref(n, *c.triple) for c in first])

    def test_rejects_non_symmetric_row(self):
        n = 3
        diag = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))),
                             shape=(n, n * n))
        upper_only = sp.csr_matrix(([1.0], ([0], [1])), shape=(1, n * n))  # X_01 alone
        with pytest.raises(ValueError, match="symmetric"):
            SdpProblem(n=n, C=np.eye(n), A=sp.vstack([diag, upper_only]), b=np.ones(n + 1))
        with pytest.raises(ValueError, match="symmetric"):
            SdpProblem(n=n, C=np.eye(n), A=diag, b=np.ones(n), B=upper_only,
                       l=np.zeros(1), u=np.ones(1))

    def test_rejects_wrong_width(self):
        n = 3
        tri = sp.csr_matrix((np.ones(n), (np.arange(n), [0, 3, 5])), shape=(n, n * (n + 1) // 2))
        with pytest.raises(ValueError, match="columns"):
            SdpProblem(n=n, C=np.eye(n), A=tri, b=np.ones(n))
        diag = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))),
                             shape=(n, n * n))
        with pytest.raises(ValueError, match="columns"):
            SdpProblem(n=n, C=np.eye(n), A=diag, b=np.ones(n),
                       B=sp.csr_matrix((1, n * n + 1)), l=np.zeros(1), u=np.ones(1))


class TestNonFiniteData:
    """Non-finite problem data is refused at construction; infinite bounds stay legal."""

    n = 3

    def kwargs(self, **over):
        n = self.n
        diag = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))),
                             shape=(n, n * n))
        base = dict(n=n, C=np.eye(n), A=diag, b=np.ones(n), B=diag,
                    l=np.full(n, -np.inf), u=np.full(n, np.inf),
                    box_lo=np.full((n, n), -np.inf), box_hi=np.full((n, n), np.inf))
        base.update(over)
        return base

    def test_infinite_bounds_accepted(self):
        p = SdpProblem(**self.kwargs())
        assert np.isinf(p.l).all() and np.isinf(p.box_hi).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_objective_rejected(self, bad):
        C = np.eye(self.n)
        C[0, 1] = C[1, 0] = bad
        with pytest.raises(ValueError, match="objective matrix must be finite"):
            SdpProblem(**self.kwargs(C=C))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_right_hand_side_rejected(self, bad):
        b = np.ones(self.n)
        b[1] = bad
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            SdpProblem(**self.kwargs(b=b))

    @pytest.mark.parametrize("name", ["l", "u", "box_lo", "box_hi"])
    def test_nan_bound_rejected(self, name):
        vals = self.kwargs()[name].copy()
        vals.flat[1] = np.nan
        with pytest.raises(ValueError, match="must not be NaN"):
            SdpProblem(**self.kwargs(**{name: vals}))

    def test_largest_floats_stay_finite(self):
        # symmetrizing C, and halving the Laplacian, must not overflow
        p = SdpProblem(**self.kwargs(C=np.full((self.n, self.n), 1e308)))
        assert (p.C == 1e308).all()
        W = np.array([[0.0, 1e308, 0.0], [1e308, 0.0, 1e308], [0.0, 1e308, 0.0]])
        C = build_keq_sdp(GraphInstance(n=3, W_adj=W, name="big"), 3).C
        assert np.isfinite(C).all() and C[1, 1] == 1e308
