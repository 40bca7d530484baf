import math
import warnings
from pathlib import Path

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
    format_number,
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

    def test_duplicate_of_a_zero_weight_edge_warns(self, tmp_path):
        f = tmp_path / "dup0.gp"
        f.write_text("gp 3 2\ne 1 2 0\ne 1 2 5\n")
        with pytest.warns(UserWarning, match=r"dup0.gp:3: duplicate edge \(1,2\)"):
            g, _ = read_instance(f)
        assert g.W_adj[0, 1] == 5

    @pytest.mark.parametrize("body, line", [
        ("gp 2 1\ne 1 2 5\nk 10\nv 1 3\nv 2 4\nk 20\nv 1 3\nv 2 4\n", 6),
        ("gp 2 1\ne 1 2 5\nk 10\nv 1 3\nk 20\nv 1 3\nv 2 4\n", 5),
    ], ids=["after-the-block", "inside-the-block"])
    def test_duplicate_capacity_line_rejected(self, tmp_path, body, line):
        f = tmp_path / "twok.gp"
        f.write_text(body)
        with pytest.raises(InstanceFormatError, match="duplicate capacity line") as err:
            read_instance(f)
        assert err.value.line == line

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


# ---------------------------------------------------------------- per-line references

def reference_write_instance(path, g, spec=None):
    """The instance writer one edge line at a time: the specification of the bytes."""
    path = Path(path)
    rows, cols = np.triu_indices(g.n, k=1)
    mask = g.W_adj[rows, cols] != 0
    rows, cols = rows[mask], cols[mask]
    lines = [f"# name: {g.name}", f"gp {g.n} {rows.size}"]
    for i, j in zip(rows, cols):
        lines.append(f"e {i + 1} {j + 1} {format_number(g.W_adj[i, j])}")
    if spec is not None:
        if spec.n != g.n:
            raise ValueError("vertex weight vector length does not match the graph")
        lines.append(f"k {format_number(spec.W)}")
        for i in range(g.n):
            lines.append(f"v {i + 1} {format_number(spec.a[i])}")
    path.write_text("\n".join(lines) + "\n")


def reference_read_instance(path):
    """The instance reader one line at a time: the specification of the grammar, its
    messages and line numbers. It warns on every repeated edge pair and rejects a
    second capacity line."""
    path = Path(path)
    name = path.stem
    n = None
    declared_edges = 0
    edge_lines = 0
    W = None
    capacity = None
    a = None
    seen_vertex = None
    seen_edge = set()

    def _num(tok, lineno, what):
        try:
            val = float(tok)
        except ValueError:
            raise InstanceFormatError(f"bad {what} {tok!r}", lineno) from None
        if not math.isfinite(val):
            raise InstanceFormatError(f"{what} must be finite, got {tok!r}", lineno)
        return val

    def _int(tok, lineno, what):
        val = _num(tok, lineno, what)
        if not val.is_integer():
            raise InstanceFormatError(f"{what} must be an integer, got {tok!r}", lineno)
        return int(val)

    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "gp":
            if n is not None:
                raise InstanceFormatError("duplicate header", lineno)
            if len(toks) != 3:
                raise InstanceFormatError("header must be 'gp <n> <edges>'", lineno)
            n = _int(toks[1], lineno, "vertex count")
            declared_edges = _int(toks[2], lineno, "edge count")
            if n < 2:
                raise InstanceFormatError("need at least 2 vertices", lineno)
            W = np.zeros((n, n))
        elif kind == "e":
            if W is None:
                raise InstanceFormatError("edge before header", lineno)
            if len(toks) != 4:
                raise InstanceFormatError("edge line must be 'e <i> <j> <w>'", lineno)
            i = _int(toks[1], lineno, "endpoint")
            j = _int(toks[2], lineno, "endpoint")
            w = _num(toks[3], lineno, "edge weight")
            if not (1 <= i < j <= n):
                raise InstanceFormatError(f"endpoints must satisfy 1 <= i < j <= {n}", lineno)
            if w < 0:
                raise InstanceFormatError("negative edge weight", lineno)
            if (i, j) in seen_edge:
                warnings.warn(f"{path.name}:{lineno}: duplicate edge ({i},{j}), last value wins")
            seen_edge.add((i, j))
            W[i - 1, j - 1] = w
            W[j - 1, i - 1] = w
            edge_lines += 1
        elif kind == "k":
            if W is None:
                raise InstanceFormatError("capacity before header", lineno)
            if capacity is not None:
                raise InstanceFormatError("duplicate capacity line", lineno)
            if len(toks) != 2:
                raise InstanceFormatError("capacity line must be 'k <W>'", lineno)
            capacity = _num(toks[1], lineno, "capacity")
            a = np.zeros(n)
            seen_vertex = np.zeros(n, dtype=bool)
        elif kind == "v":
            if a is None:
                raise InstanceFormatError("vertex weight before capacity line", lineno)
            if len(toks) != 3:
                raise InstanceFormatError("vertex line must be 'v <i> <a_i>'", lineno)
            i = _int(toks[1], lineno, "vertex index")
            if not 1 <= i <= n:
                raise InstanceFormatError(f"vertex index out of range 1..{n}", lineno)
            if seen_vertex[i - 1]:
                raise InstanceFormatError(f"duplicate vertex weight for {i}", lineno)
            a[i - 1] = _num(toks[2], lineno, "vertex weight")
            seen_vertex[i - 1] = True
        else:
            raise InstanceFormatError(f"unknown record {kind!r}", lineno)

    if n is None:
        raise InstanceFormatError("missing 'gp' header")
    if edge_lines != declared_edges:
        raise InstanceFormatError(
            f"header declares {declared_edges} edges but {edge_lines} edge lines found"
        )
    with np.errstate(over="ignore"):
        overflow = np.flatnonzero(~np.isfinite((0.5 * W).sum(axis=1)))
    if overflow.size:
        raise InstanceFormatError(f"weighted degree of vertex {overflow[0] + 1} overflows")
    g = GraphInstance(n=n, W_adj=W, name=name)
    if capacity is None:
        return g, None
    if not seen_vertex.all():
        missing = int(np.flatnonzero(~seen_vertex)[0]) + 1
        raise InstanceFormatError(f"missing vertex weight for {missing}")
    return g, Gpkc(a=a, W=capacity)


def outcome(reader, path):
    """What reading ``path`` gives: the result or the exception's type, text and line,
    with the warnings issued on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", *reader(path))
        except (InstanceFormatError, SpecValidationError) as exc:
            result = (type(exc).__name__, str(exc), getattr(exc, "line", None))
    return result, [str(w.message) for w in caught]


def assert_same_outcome(path):
    (got, got_warnings), (want, want_warnings) = (
        outcome(read_instance, path), outcome(reference_read_instance, path))
    assert got_warnings == want_warnings
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got == want
        return
    g, spec = got[1:]
    g_ref, spec_ref = want[1:]
    assert g == g_ref
    assert g.W_adj.tobytes() == g_ref.W_adj.tobytes()   # bit for bit, signed zeros too
    assert spec == spec_ref


def fractional_graph(n, seed):
    rng = np.random.default_rng(seed)
    W = np.triu(rng.random((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n)), k=1)
    W[rng.random((n, n)) < 0.3] = 0.0
    W[0, 1:4] = [0.1, 5e-324, 7.0]
    W = np.triu(W, k=1)
    return GraphInstance(n=n, W_adj=W + W.T, name=f"frac{n}")


class TestBulkInstanceIO:
    """The bulk writer and reader against the per-line references above."""

    @pytest.mark.parametrize("make", [
        lambda: (gen_rand_graph(2, 1.0, 0), None),
        lambda: (gen_rand_graph(9, 0.0, 1), None),
        lambda: (gen_rand_graph(60, 0.5, 2), None),
        lambda: (gen_rand_graph(300, 0.5, 3), None),
        lambda: gen_gpkc_instance(12, 0.8, 3, 4),
        lambda: gen_gpkc_instance(80, 0.2, 4, 5),
        lambda: (fractional_graph(40, 6), None),
        lambda: (fractional_graph(40, 7), Gpkc(a=np.linspace(0.5, 3.0, 40) / 3.0, W=7.25)),
        lambda: (GraphInstance(n=3, W_adj=np.array(
            [[0.0, 2.0 ** 63, 1e20], [2.0 ** 63, 0.0, 2.0 ** 62], [1e20, 2.0 ** 62, 0.0]])),
            Gpkc(a=np.array([1.0, 2.0, 3.0]), W=2.0 ** 70)),
    ], ids=["n2", "empty", "keq60", "keq300", "gpkc12", "gpkc80", "fractional",
            "fractional-gpkc", "huge-integral"])
    def test_files_match_the_reference_byte_for_byte(self, tmp_path, make):
        g, spec = make()
        write_instance(tmp_path / "bulk.gp", g, spec)
        reference_write_instance(tmp_path / "ref.gp", g, spec)
        assert (tmp_path / "bulk.gp").read_bytes() == (tmp_path / "ref.gp").read_bytes()
        assert_same_outcome(tmp_path / "bulk.gp")
        back, spec_back = read_instance(tmp_path / "bulk.gp")
        assert back.W_adj.tobytes() == g.W_adj.tobytes()
        assert spec_back == spec

    def test_writer_checks_the_weight_vector_first(self, tmp_path):
        g = gen_rand_graph(5, 0.5, 0)
        with pytest.raises(ValueError, match="does not match"):
            write_instance(tmp_path / "x.gp", g, Gpkc(a=np.ones(4), W=2.0))
        assert not (tmp_path / "x.gp").exists()

    @pytest.mark.parametrize("body", [
        "# a comment\n\n# name: hand\ngp 4 3\ne 1 2 5\n\n# middle\ne 2 3 1.5\ne 3 4 7\n",
        "  gp 4 2\n\te 1 2 5\n   e 2 4 3\n#name: spaced  \n",
        "gp\t4\t2\ne\t1\t2\t5\ne 1  3   4  \n",
        "gp 4 3\ne 1 2 5\nk 10\nv 1 3\nv 2 4\ne 2 3 1\nv 3 1\nv 4 2\ne 3 4 2\n",
        "gp 3 4\ne 1 2 5\ne 2 3 1\n e 1 2 7\ne 1 2 0\n",
        "gp 3 2\ne 1 2 0\ne 1 2 5\n",
        "gp 3 3\ne 1 2 -0\ne 1 3 1e0\ne 2 3 +2.50\n",
        "gp 3 2\ne 1 2 1_0\ne 2 3 \u0661\n",
        "gp 3 1\ne 1 2 5\u00a0\n",
        "gp 3 1\r\ne 1 2 5\r\n",
        "# name: first\n# name: second\ngp 2 0\n",
        "gp 3 1\nv 1 2\n",
        "gp 3 1\ne 1 2 1.5e308\ne 1 3 1.5e308\n",
    ], ids=["comments", "whitespace", "tabs", "edges-after-knapsack", "duplicates",
            "duplicate-after-zero", "number-spellings", "float-only-spellings", "nbsp",
            "crlf", "two-names", "vertex-before-capacity", "count-mismatch"])
    def test_hand_written_files_read_as_the_reference(self, tmp_path, body):
        f = tmp_path / "hand.gp"
        f.write_text(body)
        assert_same_outcome(f)

    @pytest.mark.parametrize("body", [
        "",
        "e 1 2 3\n",
        "e 1 2 3\ngp 3 1\n",
        "gp 3 1\ngp 3 1\n",
        "gp 3\n",
        "gp 1 0\n",
        "gp 3.5 0\n",
        "gp x 0\n",
        "gp 3 1\ne 1 2\n",
        "gp 3 1\ne 1 2 3 4\n",
        "gp 3 1\ne\n",
        "gp 3 1\ne \n",
        "gp 3 1\ne 1 2 3 # note\n",
        "gp 3 1\ne 2 1 5\n",
        "gp 3 1\ne 1 4 5\n",
        "gp 3 1\ne 0 2 5\n",
        "gp 3 1\ne 1 1 5\n",
        "gp 3 1\ne 1.5 2 4\n",
        "gp 3 1\ne 1 2.5 4\n",
        "gp 3 1\ne 1 inf 4\n",
        "gp 3 1\ne x 2 4\n",
        "gp 3 1\ne 1 2 w\n",
        "gp 3 1\ne 1 2 -4\n",
        "gp 3 1\ne 1 2 -inf\n",
        "gp 3 1\ne 1 2 nan\n",
        "gp 3 1\ne 2 3 inf\n",
        "gp 3 1\ne 1 2 1e400\n",
        "gp 3 1\ne 1e300 2 4\n",
        "gp 3 1\ne 2.5 1 -4\n",
        "gp 3 2\ne 1 2 5\nfoo 1\ne 2 3 -1\n",
        "gp 3 3\ne 1 2 5\ne 1 2 6\ne 2 3 -1\n",
        "gp 3 3\ne 1 2 5\n e 1 2 6\n  e 2 3 x\ne 1 3 -1\n",
        "gp 3 3\ne 1 2 5\ne 1 3 x\n  e 2 3 -1\n",
        "gp 3 2\ne 1 2 5\ne 1 2 6\nk\n",
        "gp 3 2\ne 1 2 1_0\ne 2 3 -1\n",
        "gp 3 2\ne 1 2 1_0\ne 2 x 1\n",
        "gp 3 1\ne 1 2 5\nx 1\n",
        "gp 3 1\ne 1 2 5\nk 3\nk 4\n",
        "gp 2 1\ne 1 2 5\nk 10\nv 1 3\nk 20\nv 1 3\nv 2 4\n",
        "gp 2 1\ne 1 2 5\nk 10\nv 1 3\nv 2 4\nk 20\nv 1 3\nv 2 4\n",
        "k 3\ngp 2 1\n",
        "gp 2 1\ne 1 2 5\nk 3 4\n",
        "gp 2 1\ne 1 2 5\nk nan\nv 1 1\nv 2 1\n",
        "gp 2 1\ne 1 2 5\nk inf\nv 1 1\nv 2 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 inf\nv 2 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 1\nv 2 nan\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 3 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 1\nv 1 2\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 4\nv 2 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 0\nv 2 1\n",
        "gp 3 2\ne 1 2 5\n",
        "gp 3 1\ne 1 2 5\ne 2 3 5\n",
        "gp 4 3\ne 1 2 1.5e308\ne 1 3 1.5e308\ne 1 4 1.5e308\n",
    ])
    def test_malformed_files_fail_as_the_reference(self, tmp_path, body):
        f = tmp_path / "bad.gp"
        f.write_text(body)
        assert_same_outcome(f)
