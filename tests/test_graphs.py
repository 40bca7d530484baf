import numpy as np
import pytest

from gpbound.graphs import (
    Gpkc,
    GraphInstance,
    InstanceFormatError,
    KEquipartition,
    Partition,
    SpecValidationError,
    cut_value,
    gen_gpkc_instance,
    gen_rand_graph,
    laplacian,
    read_instance,
    write_instance,
)


def complete_graph(n, weight=1.0):
    W = np.full((n, n), float(weight))
    np.fill_diagonal(W, 0.0)
    return GraphInstance(n=n, W_adj=W, name=f"K{n}")


def edge_scan_cut(g, p):
    # independent oracle: sum weights over vertex pairs in different groups
    assign = p.assignment()
    total = 0.0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if assign[i] != assign[j]:
                total += g.W_adj[i, j]
    return total


class TestLaplacian:
    def test_unit_triangle(self):
        g = complete_graph(3)
        L = laplacian(g)
        assert np.array_equal(np.diag(L), [2.0, 2.0, 2.0])
        off = L[~np.eye(3, dtype=bool)]
        assert np.array_equal(off, -np.ones(6))

    def test_empty_graph(self):
        g = GraphInstance(n=4, W_adj=np.zeros((4, 4)))
        assert np.array_equal(laplacian(g), np.zeros((4, 4)))

    def test_k4(self):
        g = complete_graph(4)
        expected = 4 * np.eye(4) - np.ones((4, 4))
        assert np.array_equal(laplacian(g), expected)

    def test_psd_on_random_instances(self):
        for seed in range(100):
            g = gen_rand_graph(6 + seed % 7, 0.5, seed)
            L = laplacian(g)
            lam_min = np.linalg.eigvalsh(L)[0]
            assert lam_min >= -1e-8 * np.linalg.norm(L)
            assert np.allclose(L.sum(axis=1), 0.0)

    def test_scale_halves_the_bits_and_keeps_large_sums_finite(self):
        g = gen_rand_graph(9, 0.5, 3)
        assert np.array_equal(laplacian(g, 0.5), 0.5 * laplacian(g))
        W = np.array([[0.0, 1e308, 0.0], [1e308, 0.0, 1e308], [0.0, 1e308, 0.0]])
        big = GraphInstance(n=3, W_adj=W)
        with np.errstate(over="ignore"):
            assert not np.isfinite(laplacian(big)).all()
        assert laplacian(big, 0.5)[1, 1] == 1e308


class TestCutValue:
    def test_k4_bisection(self):
        g = complete_graph(4)
        p = Partition.from_groups(4, [(0, 1), (2, 3)])
        assert cut_value(g, p) == 4.0

    def test_single_group_zero(self):
        g = gen_rand_graph(7, 0.8, 3)
        p = Partition.from_groups(7, [tuple(range(7))])
        assert cut_value(g, p) == 0.0

    def test_matches_edge_scan(self):
        g = gen_rand_graph(8, 0.5, 42)
        p = Partition.from_groups(8, [(0, 3, 5, 6), (1, 2, 4, 7)])
        got = cut_value(g, p)
        want = edge_scan_cut(g, p)
        assert got == pytest.approx(want, rel=1e-9)

    def test_edge_scan_agreement_random(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(4, 11))
            g = gen_rand_graph(n, float(rng.choice([0.2, 0.5, 0.8])), trial)
            labels = rng.integers(0, 3, size=n)
            p = Partition.from_assignment(labels)
            assert cut_value(g, p) == pytest.approx(edge_scan_cut(g, p), rel=1e-9)

    def test_rejects_mismatched_partition(self):
        g = complete_graph(4)
        p = Partition.from_groups(3, [(0, 1), (2,)])
        with pytest.raises(ValueError):
            cut_value(g, p)


class TestPartition:
    def test_canonical_order(self):
        p = Partition.from_groups(5, [(4, 2), (3, 0, 1)])
        assert p.groups == ((0, 1, 3), (2, 4))

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ValueError):
            Partition.from_groups(4, [(0, 1), (1, 2, 3)])
        with pytest.raises(ValueError):
            Partition.from_groups(4, [(0, 1), (3,)])

    def test_rejects_repeat_inside_group(self):
        with pytest.raises(ValueError):
            Partition.from_groups(3, [(0, 0, 1), (2,)])

    def test_assignment_round_trip(self):
        p = Partition.from_groups(6, [(0, 5), (1, 2), (3, 4)])
        q = Partition.from_assignment(p.assignment())
        assert p == q

    def test_feasibility_checks(self):
        p = Partition.from_groups(4, [(0, 1), (2, 3)])
        assert p.feasible_for(KEquipartition(k=2, m=2))
        assert not p.feasible_for(KEquipartition(k=4, m=1))
        spec = Gpkc(a=np.array([1.0, 2.0, 3.0, 1.0]), W=4.0)
        assert p.feasible_for(spec)
        assert not p.feasible_for(Gpkc(a=np.array([3.0, 3.0, 1.0, 1.0]), W=3.0))


class TestGenerators:
    def test_edge_count_within_binomial_bound(self):
        g = gen_rand_graph(100, 0.8, 11)
        pairs = 100 * 99 // 2
        mean = 0.8 * pairs
        sigma = np.sqrt(pairs * 0.8 * 0.2)
        assert abs(g.num_edges() - mean) <= 5 * sigma

    def test_zero_density_gives_empty_graph(self):
        g = gen_rand_graph(6, 0.0, 5)
        assert g.num_edges() == 0

    def test_deterministic(self):
        a = gen_rand_graph(20, 0.5, 123)
        b = gen_rand_graph(20, 0.5, 123)
        assert a == b

    def test_weights_in_range(self):
        g = gen_rand_graph(30, 0.5, 9)
        w = g.W_adj[g.W_adj > 0]
        assert w.min() >= 1 and w.max() <= 100
        assert np.array_equal(w, np.round(w))


class TestGpkcGenerator:
    def test_capacity_at_least_max_weight(self):
        for seed in (0, 1, 2):
            _, spec = gen_gpkc_instance(9, 0.5, 3, seed)
            assert spec.W >= spec.a.max()

    def test_capacity_is_tenth_percentile_of_maxima(self):
        n, k, seed = 12, 3, 17
        g, spec = gen_gpkc_instance(n, 0.8, k, seed)
        # replay the documented draw order to recover the 1000 maxima
        rng = np.random.default_rng(seed)
        rows, _ = np.triu_indices(n, k=1)
        rng.random(rows.size)
        rng.integers(1, 101, size=rows.size)
        a = rng.integers(1, 1001, size=n).astype(float)
        assert np.array_equal(a, spec.a)
        perms = rng.permuted(np.tile(a, (1000, 1)), axis=1)
        maxima = perms.reshape(1000, k, n // k).sum(axis=2).max(axis=1)
        count = int((maxima <= spec.W).sum())
        assert 99 <= count <= 101

    def test_deterministic(self):
        g1, s1 = gen_gpkc_instance(8, 0.5, 2, 77)
        g2, s2 = gen_gpkc_instance(8, 0.5, 2, 77)
        assert g1 == g2 and s1 == s2

    def test_graph_matches_plain_generator(self):
        g, _ = gen_gpkc_instance(10, 0.2, 2, 5)
        plain = gen_rand_graph(10, 0.2, 5)
        assert np.array_equal(g.W_adj, plain.W_adj)

    def test_rejects_bad_k(self):
        with pytest.raises(SpecValidationError):
            gen_gpkc_instance(10, 0.5, 3, 0)


class TestInstanceIO:
    def test_round_trip_plain(self, tmp_path):
        g = gen_rand_graph(9, 0.5, 4)
        f = tmp_path / "g.gp"
        write_instance(f, g)
        back, spec = read_instance(f)
        assert spec is None
        assert back == g

    def test_round_trip_gpkc(self, tmp_path):
        g, spec = gen_gpkc_instance(8, 0.8, 2, 13)
        f = tmp_path / "g.gp"
        write_instance(f, g, spec)
        back, spec2 = read_instance(f)
        assert back == g
        assert spec2 == spec

    def test_vertex_weight_above_capacity_rejected(self, tmp_path):
        f = tmp_path / "bad.gp"
        f.write_text("gp 2 1\ne 1 2 5\nk 3\nv 1 4\nv 2 1\n")
        with pytest.raises(SpecValidationError):
            read_instance(f)

    def test_duplicate_edge_last_wins_with_warning(self, tmp_path):
        f = tmp_path / "dup.gp"
        f.write_text("gp 3 2\ne 1 2 5\ne 1 2 7\n")
        with pytest.warns(UserWarning, match="duplicate edge"):
            g, _ = read_instance(f)
        assert g.W_adj[0, 1] == 7

    def test_parse_error_carries_line_number(self, tmp_path):
        f = tmp_path / "bad.gp"
        f.write_text("gp 3 1\ne 2 1 5\n")
        with pytest.raises(InstanceFormatError) as err:
            read_instance(f)
        assert err.value.line == 2

    def test_negative_weight_rejected(self, tmp_path):
        f = tmp_path / "neg.gp"
        f.write_text("gp 3 1\ne 1 2 -4\n")
        with pytest.raises(InstanceFormatError):
            read_instance(f)

    def test_edge_count_mismatch_rejected(self, tmp_path):
        f = tmp_path / "count.gp"
        f.write_text("gp 3 2\ne 1 2 4\n")
        with pytest.raises(InstanceFormatError):
            read_instance(f)

    def test_fractional_endpoint_rejected(self, tmp_path):
        f = tmp_path / "frac.gp"
        f.write_text("gp 3 1\ne 1.5 2 4\n")
        with pytest.raises(InstanceFormatError) as err:
            read_instance(f)
        assert err.value.line == 2

    @pytest.mark.parametrize("body, line", [
        ("gp 3 1\ne 2 3 inf\n", 2),
        ("gp 3 1\ne 1 2 nan\n", 2),
        ("gp 3 1\ne 1 2 -inf\n", 2),
        ("gp 2 1\ne 1 2 5\nk nan\nv 1 1\nv 2 1\n", 3),
        ("gp 2 1\ne 1 2 5\nk inf\nv 1 1\nv 2 1\n", 3),
        ("gp 2 1\ne 1 2 5\nk 3\nv 1 inf\nv 2 1\n", 4),
        ("gp 2 1\ne 1 2 5\nk 3\nv 1 1\nv 2 nan\n", 5),
    ], ids=["e-inf", "e-nan", "e-minus-inf", "k-nan", "k-inf", "v-inf", "v-nan"])
    def test_non_finite_number_rejected_with_line(self, tmp_path, body, line):
        f = tmp_path / "nonfinite.gp"
        f.write_text(body)
        with pytest.raises(InstanceFormatError, match="finite") as err:
            read_instance(f)
        assert err.value.line == line

    def test_overflowing_degree_rejected(self, tmp_path):
        # 4.5e308 / 2 is past the largest float; 2e308 / 2 is not
        f = tmp_path / "big.gp"
        f.write_text("gp 4 3\ne 1 2 1.5e308\ne 1 3 1.5e308\ne 1 4 1.5e308\n")
        with pytest.raises(InstanceFormatError, match="vertex 1 overflows"):
            read_instance(f)
        f.write_text("gp 3 2\ne 1 2 1e308\ne 2 3 1e308\n")
        g, _ = read_instance(f)
        assert g.W_adj[1, 2] == 1e308


class TestSpecTypes:
    def test_keq_divisibility(self):
        spec = KEquipartition.for_graph(12, 3)
        assert spec.m == 4
        with pytest.raises(SpecValidationError):
            KEquipartition.for_graph(10, 3)

    def test_gpkc_validation(self):
        with pytest.raises(SpecValidationError):
            Gpkc(a=np.array([1.0, -2.0]), W=5.0)
        with pytest.raises(SpecValidationError):
            Gpkc(a=np.array([1.0, 6.0]), W=5.0)

    @pytest.mark.parametrize("a, W", [
        ([1.0, np.inf], 5.0), ([1.0, np.nan], 5.0), ([1.0, 2.0], np.nan), ([1.0, 2.0], np.inf),
    ], ids=["a-inf", "a-nan", "W-nan", "W-inf"])
    def test_gpkc_rejects_non_finite(self, a, W):
        with pytest.raises(SpecValidationError, match="finite"):
            Gpkc(a=np.array(a), W=W)

    @pytest.mark.parametrize("w", [np.inf, np.nan])
    def test_graph_rejects_non_finite_weights(self, w):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = w
        with pytest.raises(ValueError, match="finite"):
            GraphInstance(n=3, W_adj=W)
