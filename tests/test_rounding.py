import types

import numpy as np
import pytest

from gpbound import oracle, rounding
from gpbound.graphs import (
    Gpkc,
    GraphInstance,
    KEquipartition,
    Partition,
    cut_value,
    gen_gpkc_instance,
    gen_rand_graph,
)
from gpbound.rounding import (
    _rng,
    gram_factor,
    hyp_plus_two_opt,
    hyperplane_round,
    hyperplane_transform,
    round_relaxation,
    two_opt_bisection,
    two_opt_multi,
    vc_plus_two_opt,
    vc_round_gpkc,
    vc_round_keq,
)


def complete_graph(n):
    W = np.full((n, n), 1.0)
    np.fill_diagonal(W, 0.0)
    return GraphInstance(n=n, W_adj=W, name=f"K{n}")


def indicator_gram(p: Partition) -> np.ndarray:
    assign = p.assignment()
    return (assign[:, None] == assign[None, :]).astype(float)


class TestGramFactor:
    def test_identity_gives_orthogonal_factor(self):
        V = gram_factor(np.eye(4))
        assert np.allclose(V @ V.T, np.eye(4), atol=1e-10)

    def test_rank_one_all_ones(self):
        X = np.ones((5, 5))
        V = gram_factor(X)
        assert np.allclose(V @ V.T, X, atol=1e-8)
        s = np.linalg.svd(V, compute_uv=False)
        assert (s > 1e-8).sum() == 1

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            X = A @ A.T
            V = gram_factor(X)
            assert np.linalg.norm(V @ V.T - X) <= 1e-8 * np.linalg.norm(X)

    def test_clamps_negative_spectrum(self):
        X = np.diag([1.0, -0.5])
        V = gram_factor(X)
        assert np.allclose(V @ V.T, np.diag([1.0, 0.0]), atol=1e-12)


class TestHyperplane:
    def test_transform_maps_01_to_pm1(self):
        p = Partition.from_groups(4, [(0, 1), (2, 3)])
        X = indicator_gram(p)
        T = hyperplane_transform(X, 2)
        assert set(np.unique(T)) == {-1.0, 1.0}

    def test_k8_every_sample_sixteen(self):
        g = complete_graph(8)
        X = indicator_gram(Partition.from_groups(8, [(0, 1, 2, 3), (4, 5, 6, 7)]))
        res = hyperplane_round(g, X, k=2, samples=5, seed=1)
        assert res.ub == 16.0
        assert res.samples_used == 5

    def test_feasibility_always(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            n, k = 12, 3
            g = gen_rand_graph(n, 0.5, trial)
            A = rng.normal(size=(n, n))
            X = A @ A.T / n
            res = hyperplane_round(g, X, k=k, samples=3, seed=trial)
            res.partition.validate_for(KEquipartition(k=k, m=n // k))
            assert res.ub == cut_value(g, res.partition)

    def test_rejects_k1(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            hyperplane_round(g, np.eye(4), k=1, m=4)

    def test_gaussian_direction_toggle(self):
        g = gen_rand_graph(8, 0.8, 14)
        spec = KEquipartition(k=2, m=4)
        res = hyperplane_round(g, np.eye(8), k=2, samples=4, seed=0,
                               distribution="gaussian")
        res.partition.validate_for(spec)
        with pytest.raises(ValueError):
            hyperplane_round(g, np.eye(8), k=2, samples=1, distribution="cauchy")


class TestVcKeq:
    def test_identity_similarity_gives_valid_shape(self):
        g = gen_rand_graph(6, 0.5, 3)
        res = vc_round_keq(g, np.eye(6), k=3, samples=4, seed=0)
        assert res.partition.sizes() == (2, 2, 2)

    def test_recovers_planted_partition(self):
        g = gen_rand_graph(9, 0.8, 4)
        planted = Partition.from_groups(9, [(0, 3, 6), (1, 4, 7), (2, 5, 8)])
        X = indicator_gram(planted)
        res = vc_round_keq(g, X, k=3, samples=1, seed=11)
        assert res.partition == planted
        assert res.ub == cut_value(g, planted)

    def test_group_sizes_invariant(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            g = gen_rand_graph(8, 0.2, trial)
            A = rng.normal(size=(8, 8))
            res = vc_round_keq(g, A @ A.T, k=4, samples=2, seed=trial)
            assert all(s == 2 for s in res.partition.sizes())


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_similarity_rejected(self, bad):
        X = np.eye(6)
        X[1, 4] = X[4, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            vc_round_keq(gen_rand_graph(6, 0.5, 3), X, k=3, samples=2, seed=0)


class TestVcGpkc:
    def test_tight_capacity_forces_singletons(self):
        g = complete_graph(5)
        a = np.full(5, 3.0)
        res = vc_round_gpkc(g, np.eye(5), a, W_cap=3.0, samples=2, seed=0)
        assert res.partition.k == 5
        assert res.ub == g.total_weight()

    def test_loose_capacity_with_flat_similarity_packs_everything(self):
        g = gen_rand_graph(6, 0.5, 6)
        a = np.ones(6)
        X = np.ones((6, 6))
        res = vc_round_gpkc(g, X, a, W_cap=10.0, samples=1, seed=3)
        assert res.partition.k == 1
        assert res.ub == 0.0

    def test_weight_feasibility_fixed_seed(self):
        g, spec = gen_gpkc_instance(9, 0.5, 3, 8)
        rng = np.random.default_rng(9)
        A = rng.normal(size=(9, 9))
        res = vc_round_gpkc(g, A @ A.T, spec.a, spec.W, samples=5, seed=2)
        res.partition.validate_for(spec)


class TestTwoOptBisection:
    def test_optimal_four_cycle_unchanged(self):
        W = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            W[i, j] = W[j, i] = 1.0
        g = GraphInstance(n=4, W_adj=W, name="C4")
        p1, p2 = two_opt_bisection(g, (0, 1), (2, 3))
        assert (p1, p2) == ((0, 1), (2, 3))

    def test_complete_graph_symmetric_no_move(self):
        g = complete_graph(4)
        p1, p2 = two_opt_bisection(g, (0, 1), (2, 3))
        assert (p1, p2) == ((0, 1), (2, 3))

    def test_never_worsens_random(self):
        for seed in range(20):
            g = gen_rand_graph(8, 0.5, seed)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(8)
            before = Partition.from_groups(8, [tuple(perm[:4]), tuple(perm[4:])])
            p1, p2 = two_opt_bisection(g, before.groups[0], before.groups[1])
            after = Partition.from_groups(8, [p1, p2])
            assert cut_value(g, after) <= cut_value(g, before) + 1e-12

    def test_finds_planted_improvement(self):
        # two dense clusters split across the groups: swaps must help
        W = np.zeros((6, 6))
        for i in (0, 1, 2):
            for j in (0, 1, 2):
                if i != j:
                    W[i, j] = 10.0
        for i in (3, 4, 5):
            for j in (3, 4, 5):
                if i != j:
                    W[i, j] = 10.0
        g = GraphInstance(n=6, W_adj=W, name="two-cliques")
        p1, p2 = two_opt_bisection(g, (0, 1, 3), (2, 4, 5))
        after = Partition.from_groups(6, [p1, p2])
        assert cut_value(g, after) == 0.0


class TestTwoOptMulti:
    def test_single_group_returned_unchanged(self):
        g = gen_rand_graph(5, 0.5, 1)
        p = Partition.from_groups(5, [tuple(range(5))])
        out = two_opt_multi(g, p, Gpkc(a=np.ones(5), W=10.0), seed=0)
        assert out == p

    def test_keq_never_worsens(self):
        g = gen_rand_graph(6, 0.8, 13)
        spec = KEquipartition(k=3, m=2)
        p = Partition.from_groups(6, [(0, 5), (1, 3), (2, 4)])
        out = two_opt_multi(g, p, spec, seed=7)
        out.validate_for(spec)
        assert cut_value(g, out) <= cut_value(g, p)

    def test_gpkc_weights_respected(self):
        g, spec = gen_gpkc_instance(9, 0.8, 3, 10)
        start = vc_round_gpkc(g, np.eye(9), spec.a, spec.W, samples=1, seed=4).partition
        out = two_opt_multi(g, start, spec, seed=5)
        out.validate_for(spec)
        assert cut_value(g, out) <= cut_value(g, start)


class TestPipelines:
    def test_vc_2opt_reaches_brute_force_on_small(self):
        g = gen_rand_graph(8, 0.8, 21)
        opt = oracle.brute_force_keq(g, 2).opt
        X = np.eye(8)
        res = vc_plus_two_opt(g, X, KEquipartition(k=2, m=4), samples=20, seed=3)
        assert res.method == "Vc+2opt"
        assert res.ub >= opt - 1e-9
        res.partition.validate_for(KEquipartition(k=2, m=4))
        assert res.ub == cut_value(g, res.partition)

    def test_hyp_2opt_feasible_and_sandwiched(self):
        g = gen_rand_graph(8, 0.5, 22)
        opt = oracle.brute_force_keq(g, 4).opt
        res = hyp_plus_two_opt(g, np.eye(8), KEquipartition(k=4, m=2), samples=20, seed=4)
        assert res.ub >= opt - 1e-9
        res.partition.validate_for(KEquipartition(k=4, m=2))

    def test_gpkc_pipeline_feasible(self):
        g, spec = gen_gpkc_instance(8, 0.5, 2, 12)
        res = vc_plus_two_opt(g, np.eye(8), spec, samples=10, seed=5)
        res.partition.validate_for(spec)
        opt = oracle.brute_force_gpkc(g, spec.a, spec.W).opt
        assert res.ub >= opt - 1e-9

    def test_hyperplane_rejected_for_gpkc(self):
        g, spec = gen_gpkc_instance(8, 0.5, 2, 12)
        with pytest.raises(ValueError):
            hyp_plus_two_opt(g, np.eye(8), spec)


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        g = gen_rand_graph(10, 0.5, 30)
        rngmat = np.random.default_rng(0).normal(size=(10, 10))
        X = rngmat @ rngmat.T
        spec = KEquipartition(k=5, m=2)
        a = vc_plus_two_opt(g, X, spec, samples=7, seed=99)
        b = vc_plus_two_opt(g, X, spec, samples=7, seed=99)
        assert a.partition == b.partition and a.ub == b.ub
        c = hyp_plus_two_opt(g, X, spec, samples=7, seed=99)
        d = hyp_plus_two_opt(g, X, spec, samples=7, seed=99)
        assert c.partition == d.partition and c.ub == d.ub

    def test_different_seeds_may_differ_but_stay_feasible(self):
        g = gen_rand_graph(12, 0.5, 31)
        spec = KEquipartition(k=4, m=3)
        for seed in range(5):
            res = vc_round_keq(g, np.eye(12), k=4, samples=3, seed=seed)
            res.partition.validate_for(spec)


# ---------------------------------------------------------------- reference samplers
# Reference samplers that draw one sample at a time, build and validate a
# Partition for every sample and score it by cut_value. The library draws and
# scores label vectors in chunks instead and must match them bit for bit on
# integer-weight graphs.

def _top_unassigned(scores: np.ndarray, unassigned: np.ndarray, count: int) -> np.ndarray:
    # stable sort on the ascending index list makes ties pick the lowest vertex
    order = np.argsort(-scores[unassigned], kind="stable")
    return unassigned[order[:count]]


def _reference_best(g, draw, samples):
    best, best_val, used = None, np.inf, 0
    for _ in range(samples):
        part = draw()
        val = cut_value(g, part)
        used += 1
        if val < best_val:
            best, best_val = part, val
    return best, best_val, used


def reference_hyperplane(g, X, k, samples, rng, distribution="uniform"):
    n, m = g.n, g.n // k
    V = gram_factor(hyperplane_transform(X, k))

    def draw():
        r = rng.random((n, k)) if distribution == "uniform" else rng.normal(size=(n, k))
        scores = V @ r
        unassigned = np.arange(n)
        groups = []
        for t in range(k):
            take = _top_unassigned(scores[:, t], unassigned, m)
            groups.append(tuple(int(v) for v in take))
            unassigned = np.setdiff1d(unassigned, take, assume_unique=True)
        return Partition.from_groups(n, groups)

    return _reference_best(g, draw, samples)


def reference_vc_keq(g, X, k, samples, rng):
    n, m = g.n, g.n // k
    sim = X @ X

    def draw():
        unassigned = np.arange(n)
        groups = []
        for _ in range(k):
            i = int(unassigned[rng.integers(unassigned.size)])
            take = _top_unassigned(sim[i], unassigned[unassigned != i], m - 1)
            group = (i,) + tuple(int(v) for v in take)
            groups.append(group)
            unassigned = np.setdiff1d(unassigned, group, assume_unique=True)
        return Partition.from_groups(n, groups)

    return _reference_best(g, draw, samples)


def reference_vc_gpkc(g, X, a, W_cap, samples, rng):
    n = g.n
    sim = X @ X

    def draw():
        u = rng.random(n)
        unassigned = np.arange(n)
        groups = []
        while unassigned.size:
            i = int(unassigned[int(u[len(groups)] * unassigned.size)])
            rest = unassigned[unassigned != i]
            group, weight = [i], a[i]
            for j in rest[np.argsort(-sim[i][rest], kind="stable")]:
                if weight + a[j] <= W_cap:
                    group.append(int(j))
                    weight += a[j]
            groups.append(tuple(group))
            unassigned = np.setdiff1d(unassigned, group, assume_unique=True)
        return Partition.from_groups(n, groups)

    return _reference_best(g, draw, samples)


def reference_plus_two_opt(g, X, spec, base, seed, samples):
    rng = _rng(seed)
    if base == "hyp":
        part, ub, used = reference_hyperplane(g, X, spec.k, samples, rng)
    elif isinstance(spec, KEquipartition):
        part, ub, used = reference_vc_keq(g, X, spec.k, samples, rng)
    else:
        part, ub, used = reference_vc_gpkc(g, X, spec.a, spec.W, samples, rng)
    refined = two_opt_multi(g, part, spec, seed=rng)
    refined_ub = cut_value(g, refined)
    return (part, ub, used) if refined_ub > ub else (refined, refined_ub, used)


def tied_relaxation(n, seed):
    """Low-rank integer PSD matrix: many exactly tied similarities."""
    A = np.random.default_rng(seed).integers(-2, 3, size=(n, 3)).astype(float)
    return A @ A.T


def weighted_graph(n, seed):
    """Non-integer weights, where summation order matters."""
    rng = np.random.default_rng(seed)
    W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.5), 1)
    return GraphInstance(n=n, W_adj=W + W.T, name=f"w{n}_{seed}")


SAMPLES = 40


class TestLabelVectorSampling:
    @pytest.mark.parametrize("seed", range(6))
    def test_keq_samplers_match_reference(self, seed):
        g = gen_rand_graph(60, 0.5, seed)
        X = tied_relaxation(60, seed)
        spec = KEquipartition.for_graph(60, 3)
        cases = [
            (hyperplane_round(g, X, 3, samples=SAMPLES, seed=seed),
             reference_hyperplane(g, X, 3, SAMPLES, _rng(seed))),
            (hyperplane_round(g, X, 3, samples=SAMPLES, seed=seed, distribution="gaussian"),
             reference_hyperplane(g, X, 3, SAMPLES, _rng(seed), "gaussian")),
            (vc_round_keq(g, X, 3, samples=SAMPLES, seed=seed),
             reference_vc_keq(g, X, 3, SAMPLES, _rng(seed))),
            (vc_plus_two_opt(g, X, spec, samples=SAMPLES, seed=seed),
             reference_plus_two_opt(g, X, spec, "vc", seed, SAMPLES)),
            (hyp_plus_two_opt(g, X, spec, samples=SAMPLES, seed=seed),
             reference_plus_two_opt(g, X, spec, "hyp", seed, SAMPLES)),
        ]
        for res, (part, ub, used) in cases:
            assert (res.partition.groups, res.ub, res.samples_used) == (part.groups, ub, used)

    @pytest.mark.parametrize("seed", range(6))
    def test_gpkc_samplers_match_reference(self, seed):
        g, spec = gen_gpkc_instance(40, 0.5, 4, seed)
        X = tied_relaxation(40, seed)
        # unit weights fill every group exactly to capacity
        for spec in (spec, Gpkc(a=np.ones(40), W=4.0)):
            res = vc_round_gpkc(g, X, spec.a, spec.W, samples=SAMPLES, seed=seed)
            part, ub, used = reference_vc_gpkc(g, X, spec.a, spec.W, SAMPLES, _rng(seed))
            assert (res.partition.groups, res.ub, res.samples_used) == (part.groups, ub, used)
            res = vc_plus_two_opt(g, X, spec, samples=SAMPLES, seed=seed)
            part, ub, used = reference_plus_two_opt(g, X, spec, "vc", seed, SAMPLES)
            assert (res.partition.groups, res.ub, res.samples_used) == (part.groups, ub, used)

    def test_tied_cuts_keep_the_first_sample(self):
        # every equipartition of a complete graph has the same cut
        g = complete_graph(12)
        X = tied_relaxation(12, 0)
        for seed in range(3):
            first, _, _ = reference_vc_keq(g, X, 3, 1, _rng(seed))
            assert vc_round_keq(g, X, 3, samples=SAMPLES, seed=seed).partition == first
            first, _, _ = reference_hyperplane(g, X, 3, 1, _rng(seed))
            assert hyperplane_round(g, X, 3, samples=SAMPLES, seed=seed).partition == first

    def test_one_partition_per_call(self, monkeypatch):
        g = gen_rand_graph(30, 0.5, 1)
        X = tied_relaxation(30, 1)
        built = []
        post_init = Partition.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Partition, "__post_init__", counting)
        res = vc_round_keq(g, X, 3, samples=200, seed=2)
        assert res.samples_used == 200
        assert len(built) == 1

    def test_ub_is_cut_of_partition_exactly(self):
        for seed in range(4):
            g = weighted_graph(24, seed)
            X = tied_relaxation(24, seed) + np.eye(24)
            a = np.random.default_rng(seed).integers(1, 5, size=24).astype(float)
            for res in (hyperplane_round(g, X, 4, samples=30, seed=seed),
                        vc_round_keq(g, X, 4, samples=30, seed=seed),
                        vc_round_gpkc(g, X, a, 12.0, samples=30, seed=seed),
                        vc_plus_two_opt(g, X, KEquipartition.for_graph(24, 4), samples=30,
                                        seed=seed)):
                assert res.ub == cut_value(g, res.partition)

    def test_non_integer_weights_match_reference_ub(self):
        # scores sum in another order than cut_value, so only near-ties may differ
        for seed in range(4):
            g = weighted_graph(30, seed)
            X = tied_relaxation(30, seed) + np.eye(30)
            res = vc_round_keq(g, X, 3, samples=SAMPLES, seed=seed)
            _, ub, _ = reference_vc_keq(g, X, 3, SAMPLES, _rng(seed))
            assert res.ub == pytest.approx(ub, rel=1e-12)

    def test_zero_time_limit_draws_one_sample(self):
        g, spec = gen_gpkc_instance(12, 0.5, 3, 4)
        X = tied_relaxation(12, 4)
        for res in (hyperplane_round(g, X, 3, samples=50, time_limit=0.0, seed=1),
                    vc_round_keq(g, X, 3, samples=50, time_limit=0.0, seed=1),
                    vc_round_gpkc(g, X, spec.a, spec.W, samples=50, time_limit=0.0, seed=1)):
            assert res.samples_used == 1
            assert res.ub == cut_value(g, res.partition)

    @pytest.mark.parametrize("sampler", ["hyp", "vc-keq", "vc-gpkc"])
    def test_non_finite_relaxation_refused_before_drawing(self, sampler):
        g, spec = gen_gpkc_instance(9, 0.5, 3, 2)
        X = np.eye(9)
        X[0, 1] = X[1, 0] = np.nan
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        call = {"hyp": lambda: hyperplane_round(g, X, 3, samples=5, seed=rng),
                "vc-keq": lambda: vc_round_keq(g, X, 3, samples=5, seed=rng),
                "vc-gpkc": lambda: vc_round_gpkc(g, X, spec.a, spec.W, samples=5, seed=rng)}
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            call[sampler]()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_fewer_than_one_sample(self, samples):
        g, spec = gen_gpkc_instance(9, 0.5, 3, 2)
        X = np.eye(9)
        keq = KEquipartition.for_graph(9, 3)
        calls = [
            lambda: hyperplane_round(g, X, 3, samples=samples, seed=0),
            lambda: vc_round_keq(g, X, 3, samples=samples, seed=0),
            lambda: vc_round_gpkc(g, X, spec.a, spec.W, samples=samples, seed=0),
            lambda: round_relaxation(g, X, keq, "vc+2opt", samples=samples, seed=0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="samples must be at least 1"):
                call()


CHUNK = 4   # samples per chunk after the first, with CHUNK_BUDGET patched below


def patch_budget(monkeypatch, n, groups, chunk=CHUNK):
    monkeypatch.setattr(rounding, "CHUNK_BUDGET", chunk * n * groups)


def keq_cases(g, X, spec, samples, seed):
    """(library result, reference (partition, ub, samples)) for every keq sampler."""
    k = spec.k
    return [
        (hyperplane_round(g, X, k, samples=samples, seed=seed),
         reference_hyperplane(g, X, k, samples, _rng(seed))),
        (hyperplane_round(g, X, k, samples=samples, seed=seed, distribution="gaussian"),
         reference_hyperplane(g, X, k, samples, _rng(seed), "gaussian")),
        (vc_round_keq(g, X, k, samples=samples, seed=seed),
         reference_vc_keq(g, X, k, samples, _rng(seed))),
        (vc_plus_two_opt(g, X, spec, samples=samples, seed=seed),
         reference_plus_two_opt(g, X, spec, "vc", seed, samples)),
        (hyp_plus_two_opt(g, X, spec, samples=samples, seed=seed),
         reference_plus_two_opt(g, X, spec, "hyp", seed, samples)),
    ]


def gpkc_cases(g, X, spec, samples, seed):
    return [
        (vc_round_gpkc(g, X, spec.a, spec.W, samples=samples, seed=seed),
         reference_vc_gpkc(g, X, spec.a, spec.W, samples, _rng(seed))),
        (vc_plus_two_opt(g, X, spec, samples=samples, seed=seed),
         reference_plus_two_opt(g, X, spec, "vc", seed, samples)),
    ]


def assert_matches(cases):
    for res, (part, ub, used) in cases:
        assert (res.partition.groups, res.ub, res.samples_used) == (part.groups, ub, used)


class TestChunkedSampling:
    """Chunks of a few samples, with ``CHUNK_BUDGET`` patched small."""

    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_every_chunk_boundary_matches_reference(self, monkeypatch, samples):
        g = gen_rand_graph(24, 0.5, samples)
        X = tied_relaxation(24, samples)
        patch_budget(monkeypatch, 24, 3)
        assert_matches(keq_cases(g, X, KEquipartition.for_graph(24, 3), samples, samples))
        g, spec = gen_gpkc_instance(24, 0.5, 3, samples)
        patch_budget(monkeypatch, 24, 1)   # knapsack draws hold CHUNK_BUDGET // n samples
        assert_matches(gpkc_cases(g, X, spec, samples, samples))

    @pytest.mark.parametrize("chunk", [1, 3, SAMPLES])
    def test_knapsack_draws_of_any_size_match_reference(self, monkeypatch, chunk):
        # draws of 1, 3 and all samples; (10, 0.5, 5, 2) has conflict pairs
        for g, spec in (gen_gpkc_instance(24, 0.5, 3, chunk), gen_gpkc_instance(10, 0.5, 5, 2)):
            X = tied_relaxation(g.n, chunk) + np.eye(g.n)
            monkeypatch.setattr(rounding, "CHUNK_BUDGET", chunk * g.n)
            assert_matches(gpkc_cases(g, X, spec, SAMPLES, chunk))

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_singleton_groups(self, monkeypatch, chunk):
        # m = 1 (k = n): every group is its opener alone
        g = gen_rand_graph(6, 0.5, chunk)
        X = tied_relaxation(6, chunk)
        patch_budget(monkeypatch, 6, 6, chunk)
        assert_matches(keq_cases(g, X, KEquipartition.for_graph(6, 6), 7, chunk))

    def test_time_limit_is_checked_between_chunks(self, monkeypatch):
        # a clock that ticks once per reading: t0 = 0, then 1, 2, 3 before chunks
        # 2, 3 and 4, so a limit of 2.5 stops after chunk 3
        g = gen_rand_graph(24, 0.5, 3)
        X = tied_relaxation(24, 3)
        gk, spec = gen_gpkc_instance(24, 0.5, 3, 3)
        patch_budget(monkeypatch, 24, 3)
        calls = [
            (g, lambda: hyperplane_round(g, X, 3, samples=50, time_limit=2.5, seed=1),
             lambda used: reference_hyperplane(g, X, 3, used, _rng(1))),
            (g, lambda: vc_round_keq(g, X, 3, samples=50, time_limit=2.5, seed=1),
             lambda used: reference_vc_keq(g, X, 3, used, _rng(1))),
            (gk, lambda: vc_round_gpkc(gk, X, spec.a, spec.W, samples=50, time_limit=2.5, seed=1),
             lambda used: reference_vc_gpkc(gk, X, spec.a, spec.W, used, _rng(1))),
        ]
        used = []
        for graph, call, reference in calls:
            ticks = iter(range(100))
            monkeypatch.setattr(rounding, "time",
                                types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
            res = call()
            assert 1 <= res.samples_used < 50
            assert res.ub == cut_value(graph, res.partition)
            part, ub, n_used = reference(res.samples_used)
            assert (res.partition.groups, res.ub, res.samples_used) == (part.groups, ub, n_used)
            used.append(res.samples_used)
        assert used[:2] == [1 + 2 * CHUNK] * 2

    @pytest.mark.parametrize("per_sample", [0.5, 5.3])
    def test_chunk_arrays_stay_within_the_budget(self, monkeypatch, per_sample):
        # a budget of half a sample's n * groups entries, and of a few samples;
        # knapsack draws hold (c, n) arrays, equipartition draws (c, n, groups) ones
        n, k = 24, 3
        budget = int(per_sample * n * k)
        monkeypatch.setattr(rounding, "CHUNK_BUDGET", budget)
        drawn, scored = [], []
        best_of_samples, twice_cuts = rounding._best_of_samples, rounding._twice_cuts

        def spy_best(g, draw, *args, **kwargs):
            def spied(c):
                labels = draw(c)
                drawn.append((labels.shape, int(labels.max()) + 1))
                return labels
            return best_of_samples(g, spied, *args, **kwargs)

        def spy_cuts(W, total, labels, groups):
            scored.append((labels.shape, groups))
            return twice_cuts(W, total, labels, groups)

        monkeypatch.setattr(rounding, "_best_of_samples", spy_best)
        monkeypatch.setattr(rounding, "_twice_cuts", spy_cuts)
        g = gen_rand_graph(n, 0.5, 5)
        X = tied_relaxation(n, 5)
        gk, spec = gen_gpkc_instance(n, 0.5, 3, 5)
        for knapsack, call in (
                (False, lambda: hyperplane_round(g, X, k, samples=30, seed=2)),
                (False, lambda: vc_round_keq(g, X, k, samples=30, seed=2)),
                (True, lambda: vc_round_gpkc(gk, X, spec.a, spec.W, samples=30, seed=2))):
            drawn.clear()
            scored.clear()
            assert call().samples_used == 30
            assert sum(c for (c, _), _ in drawn) == sum(c for (c, _), _ in scored) == 30
            assert drawn[0][0][0] == 1
            for (c, width), groups in scored:
                assert c * width * groups <= max(budget, width * groups)
            for (c, width), groups in drawn[1:]:
                if knapsack:
                    assert c * width <= max(budget, width)
                else:
                    # a chunk is sized from the groups of the chunk before it
                    assert c * width <= max(budget, width * groups)
            if knapsack:
                # CHUNK_BUDGET // n samples per draw after the first, whatever the groups
                per_draw = max(1, budget // n)
                full, rest = divmod(29, per_draw)
                assert [c for (c, _), _ in drawn] == [1] + [per_draw] * full + [rest] * (rest > 0)
            if per_sample < 1:
                assert len(drawn) == 30
