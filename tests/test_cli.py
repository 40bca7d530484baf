import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpbound import reports
from gpbound.admm import AdmmParams, solve
from gpbound.cli import build_parser, main
from gpbound.graphs import (GraphInstance, KEquipartition, format_number, gen_gpkc_instance,
                            read_instance, write_instance)
from gpbound.model import build_keq_dnn
from gpbound.rounding import vc_plus_two_opt


@pytest.fixture
def k8_file(tmp_path):
    W = np.ones((8, 8))
    np.fill_diagonal(W, 0.0)
    path = tmp_path / "K8.gp"
    write_instance(path, GraphInstance(n=8, W_adj=W, name="K8"))
    return path


@pytest.fixture
def gpkc_file(tmp_path):
    g, spec = gen_gpkc_instance(8, 0.5, 2, 1)
    path = tmp_path / f"{g.name}.gp"
    write_instance(path, g, spec)
    return path


@pytest.fixture
def solves(monkeypatch):
    """Every relaxation solve a command runs, as (params, result) pairs."""
    from gpbound import admm, certify

    calls = []
    real = admm.solve

    def spy(problem, params=None, **kwargs):
        result = real(problem, params, **kwargs)
        calls.append((params, result))
        return result

    monkeypatch.setattr(admm, "solve", spy)
    monkeypatch.setattr(certify, "solve", spy)
    return calls


class TestGen:
    def test_three_densities_three_files(self, tmp_path):
        assert main(["gen", "--n", "8", "--seed", "2", "--outdir", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.glob("*.gp"))
        assert names == ["rand20_n8_s2.gp", "rand50_n8_s2.gp", "rand80_n8_s2.gp"]

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            main(["gen", "--n", "10", "--density", "0.5", "--seed", "7", "--outdir", str(d)])
        assert (a / "rand50_n10_s7.gp").read_text() == (b / "rand50_n10_s7.gp").read_text()

    def test_gpkc_file_has_capacity_line(self, tmp_path):
        main(["gen", "--n", "8", "--density", "0.5", "--seed", "1", "--gpkc", "--k", "2",
              "--outdir", str(tmp_path)])
        text = (tmp_path / "GPKCrand50_n8_s1.gp").read_text()
        assert any(line.startswith("k ") for line in text.splitlines())

    def test_outputs_go_where_their_flags_say(self, tmp_path, monkeypatch):
        # no environment variable moves an output away from the path its flag names
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GPBOUND_OUTDIR", "elsewhere")
        assert main(["gen", "--n", "8", "--density", "0.5", "--seed", "1",
                     "--outdir", "inst"]) == 0
        instance = ["--instance", "inst/rand50_n8_s1.gp", "--k", "2"]
        assert main(["solve", *instance, "--relaxation", "sdp", "--out", "lb.csv"]) == 0
        assert main(["heur", *instance, "--lb-csv", "lb.csv", "--out", "ub.csv"]) == 0
        assert main(["report", "--solve-csv", "lb.csv", "--heur-csv", "ub.csv",
                     "--out", "summary.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "inst", "lb.csv", "summary.csv", "ub.csv"]
        assert [p.name for p in (tmp_path / "inst").iterdir()] == ["rand50_n8_s1.gp"]

    @pytest.mark.parametrize("flags, message", [
        (["--n", "1"], "vertices"), (["--n", "8", "--density", "1.7"], "density"),
        (["--n", "8", "--density", "0.5", "nan"], "density"),
    ], ids=["n-1", "density-above-1", "density-nan-after-a-good-one"])
    def test_bad_values_leave_no_directory(self, tmp_path, flags, message, capsys):
        outdir = tmp_path / "inst"
        assert main(["gen", *flags, "--outdir", str(outdir)]) == 1
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_gpkc_without_k_leaves_no_directory(self, tmp_path):
        outdir = tmp_path / "inst"
        with pytest.raises(SystemExit, match="--k is required"):
            main(["gen", "--n", "8", "--gpkc", "--outdir", str(outdir)])
        assert not outdir.exists()

    def test_k_without_gpkc_leaves_no_directory(self, tmp_path, capsys):
        # --k only calibrates a capacity, so without --gpkc it would go unused
        outdir = tmp_path / "inst"
        assert main(["gen", "--n", "8", "--k", "2", "--outdir", str(outdir)]) == 1
        assert "--gpkc" in capsys.readouterr().err
        assert not outdir.exists()


class TestKnapsackRefusesK:
    """--k on a problem solved as knapsack (inferred from the capacity block, or
    --problem gpkc) exits 1 before anything is solved, rather than going unused."""

    @pytest.mark.parametrize("command", ["solve", "heur", "oracle"])
    @pytest.mark.parametrize("problem", [[], ["--problem", "gpkc"]], ids=["inferred", "gpkc"])
    def test_exits_before_solving(self, gpkc_file, tmp_path, command, problem, solves,
                                  capsys):
        out = tmp_path / "out.csv"
        assert main([command, "--instance", str(gpkc_file), *problem, "--k", "2",
                     "--out", str(out)]) == 1
        assert "--problem keq" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    def test_problem_keq_partitions_the_graph(self, gpkc_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["solve", "--instance", str(gpkc_file), "--problem", "keq", "--k", "2",
                     "--out", str(out)]) == 0
        assert reports.read_rows(out)[0].k_or_w == "2"


@pytest.mark.parametrize("bad", ["refused --k", "malformed"])
def test_solve_checks_every_instance_before_the_first_solve(k8_file, gpkc_file, tmp_path, bad,
                                                            solves, capsys):
    # a bad later instance used to leave the earlier ones' --cert-out rows and no --out
    if bad == "malformed":
        later, code = tmp_path / "broken.gp", 3
        later.write_text("gp 3 1\ne 1 4 2\n")
    else:
        later, code = gpkc_file, 1
    out, cert = tmp_path / "x.csv", tmp_path / "c.csv"
    assert main(["solve", "--instance", str(k8_file), str(later), "--k", "2",
                 "--out", str(out), "--cert-out", str(cert)]) == code
    assert solves == [] and not out.exists() and not cert.exists()
    assert capsys.readouterr().out == ""


def test_solve_and_heur_use_the_solver_defaults(k8_file, solves):
    # heur rounds the X that solve certified: both read AdmmParams' defaults
    for command in ("solve", "heur"):
        args = build_parser().parse_args([command, "--instance", str(k8_file)])
        assert (args.eps_tol, args.max_iter) == (AdmmParams().eps_tol, AdmmParams().max_iter)
        assert main([command, "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--relaxation", "dnn"]) == 0
    (solve_params, solved), (heur_params, rounded) = solves
    assert solve_params == heur_params == AdmmParams()
    assert (solved.iterations, solved.status) == (rounded.iterations, rounded.status)
    assert np.array_equal(solved.state.X, rounded.state.X)


class TestSolve:
    def test_k8_dnn_bound(self, k8_file, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--relaxation", "dnn", "--out", str(out)])
        assert code == 0
        row = reports.read_rows(out)[0]
        assert row.lb == pytest.approx(16.0, abs=1e-2)
        assert row.status == "converged"

    def test_relaxation_nesting_on_fixed_seed(self, tmp_path):
        main(["gen", "--n", "8", "--density", "0.8", "--seed", "5", "--outdir", str(tmp_path)])
        inst = tmp_path / "rand80_n8_s5.gp"
        out = tmp_path / "solve.csv"
        for relax in ("sdp", "dnn"):
            main(["solve", "--instance", str(inst), "--problem", "keq", "--k", "2",
                  "--relaxation", relax, "--eps-tol", "1e-8", "--out", str(out)])
        rows = reports.read_rows(out)
        lb = {r.relaxation: r.lb for r in rows}
        assert lb["dnn"] >= lb["sdp"] - 1e-6 * (1.0 + abs(lb["dnn"]))

    def test_met_rounds_bounded(self, tmp_path):
        main(["gen", "--n", "8", "--density", "0.8", "--seed", "3", "--outdir", str(tmp_path)])
        inst = tmp_path / "rand80_n8_s3.gp"
        out = tmp_path / "met.csv"
        code = main(["solve", "--instance", str(inst), "--problem", "keq", "--k", "2",
                     "--relaxation", "dnn+met", "--max-rounds", "3", "--out", str(out)])
        assert code == 0
        rows = reports.read_rows(out)
        assert 1 <= len(rows) <= 3
        for earlier, later in zip(rows, rows[1:]):
            assert later.lb >= earlier.lb - 1e-6 * (1.0 + abs(earlier.lb))

    def test_trace_emitted(self, k8_file, tmp_path):
        trace = tmp_path / "trace.csv"
        main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--trace", str(trace), "--trace-every", "1"])
        rows = reports.read_rows(trace)
        assert rows and isinstance(rows[0], reports.TraceRow)

    def test_met_honours_certificate_and_trace_flags(self, tmp_path):
        main(["gen", "--n", "12", "--density", "0.5", "--seed", "1", "--outdir", str(tmp_path)])
        base = ["solve", "--instance", str(tmp_path / "rand50_n12_s1.gp"), "--problem", "keq",
                "--k", "3", "--trace-every", "100000"]
        for relax in ("dnn", "dnn+met"):
            code = main([*base, "--relaxation", relax, "--max-rounds", "3",
                         "--out", str(tmp_path / f"{relax}.csv"),
                         "--trace", str(tmp_path / f"trace_{relax}.csv"),
                         "--cert-out", str(tmp_path / f"cert_{relax}.csv")])
            assert code == 0
        dnn = reports.read_rows(tmp_path / "dnn.csv")
        met = reports.read_rows(tmp_path / "dnn+met.csv")
        assert len(dnn) == 1 and len(met) > 1
        assert (met[0].lb, met[0].iterations) == (dnn[0].lb, dnn[0].iterations)
        certs = reports.read_rows(tmp_path / "cert_dnn+met.csv")
        assert [c.method for c in certs] == ["eig"] * len(met)
        assert [c.bound for c in certs] == [r.lb for r in met]
        # one trace row per round: the final sweep of each
        trace = reports.read_rows(tmp_path / "trace_dnn+met.csv")
        assert [t.iter for t in trace] == [r.iterations for r in met]

    def test_cert_out_reads_converged_for_a_bound_stop(self, tmp_path):
        # the column means "stopped by a test": the residual test or the bound test
        main(["gen", "--n", "10", "--density", "0.5", "--seed", "3", "--outdir", str(tmp_path)])
        base = ["solve", "--instance", str(tmp_path / "rand50_n10_s3.gp"), "--problem", "keq",
                "--k", "2", "--relaxation", "sdp"]
        assert main([*base, "--out", str(tmp_path / "solve.csv"),
                     "--cert-out", str(tmp_path / "cert.csv")]) == 0
        assert main([*base, "--max-iter", "20", "--cert-out", str(tmp_path / "cert.csv")]) == 0
        [row] = reports.read_rows(tmp_path / "solve.csv")
        stopped, capped = reports.read_rows(tmp_path / "cert.csv")
        assert row.status == "bound" and stopped.converged
        assert not capped.converged

    @pytest.mark.parametrize("rounds", ["0", "-2"])
    def test_met_rejects_fewer_than_one_round(self, k8_file, tmp_path, rounds, capsys):
        out = tmp_path / "met.csv"
        code = main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--relaxation", "dnn+met", "--max-rounds", rounds, "--out", str(out)])
        assert code == 1
        assert "max_rounds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, field", [
        (["--eps-tol", "0"], "eps_tol"), (["--eps-tol", "-1"], "eps_tol"),
        (["--eps-tol", "nan"], "eps_tol"), (["--max-iter", "-5"], "max_iter"),
        (["--relaxation", "dnn+met", "--m-met", "-1"], "m_met"),
    ], ids=["eps-tol-0", "eps-tol-neg", "eps-tol-nan", "max-iter-neg", "m-met-neg"])
    def test_rejects_bad_solver_settings(self, k8_file, tmp_path, flags, field, capsys):
        out = tmp_path / "solve.csv"
        code = main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     *flags, "--out", str(out)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("every", ["0", "-5"])
    def test_rejects_trace_every_below_one(self, k8_file, tmp_path, every, capsys):
        out, trace = tmp_path / "solve.csv", tmp_path / "trace.csv"
        code = main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--trace", str(trace), "--trace-every", every, "--out", str(out)])
        assert code == 1
        assert "--trace-every" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("flags", [["--rule", "auto"], ["--sigma0", "1"],
                                       ["--config", "f.json"], ["--certify", "auto"],
                                       ["--certify", "lp"], ["--certify", "eig"]],
                             ids=["rule", "sigma0", "config", "certify-auto", "certify-lp",
                                  "certify-eig"])
    def test_removed_flags_are_unknown(self, k8_file, tmp_path, flags):
        out = tmp_path / "solve.csv"
        with pytest.raises(SystemExit) as info:
            main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                  *flags, "--out", str(out), "--cert-out", str(tmp_path / "cert.csv")])
        assert info.value.code == 2
        assert not out.exists() and not (tmp_path / "cert.csv").exists()

    @pytest.mark.parametrize("flag", ["--cuts-out", "--trace"])
    def test_per_round_files_refuse_several_instances(self, tmp_path, flag, capsys):
        # neither row type has an instance column; each instance used to rewrite the file
        main(["gen", "--n", "12", "--density", "0.2", "0.8", "--seed", "1",
              "--outdir", str(tmp_path)])
        out, rows = tmp_path / "solve.csv", tmp_path / "rows.csv"
        code = main(["solve", "--instance", str(tmp_path / "rand20_n12_s1.gp"),
                     str(tmp_path / "rand80_n12_s1.gp"), "--problem", "keq", "--k", "3",
                     "--relaxation", "dnn+met", "--max-rounds", "3",
                     flag, str(rows), "--out", str(out)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists() and not rows.exists()

    def test_overflowing_instance_exits_diverged(self, tmp_path, capsys):
        big = tmp_path / "big.gp"
        big.write_text("gp 3 2\ne 1 2 1e308\ne 2 3 1e308\n")
        out = tmp_path / "solve.csv"
        with np.errstate(all="ignore"):
            code = main(["solve", "--instance", str(big), "--problem", "keq", "--k", "3",
                         "--out", str(out)])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_degree_exits_malformed(self, tmp_path, capsys):
        big = tmp_path / "big.gp"
        big.write_text("gp 4 3\ne 1 2 1.5e308\ne 1 3 1.5e308\ne 1 4 1.5e308\n")
        out = tmp_path / "solve.csv"
        code = main(["solve", "--instance", str(big), "--problem", "keq", "--k", "2",
                     "--out", str(out)])
        assert code == 3
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        "gp 3 1\ne 2 3 inf\n",
        "gp 3 1\ne 1 2 nan\n",
        "gp 2 1\ne 1 2 5\nk nan\nv 1 1\nv 2 1\n",
        "gp 2 1\ne 1 2 5\nk 3\nv 1 inf\nv 2 1\n",
    ], ids=["e-inf", "e-nan", "k-nan", "v-inf"])
    def test_non_finite_instance_number_exits_malformed(self, tmp_path, body, capsys):
        bad = tmp_path / "bad.gp"
        bad.write_text(body)
        out = tmp_path / "solve.csv"
        code = main(["solve", "--instance", str(bad), "--k", "2", "--out", str(out)])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_capacity_line_exits_malformed(self, tmp_path, capsys):
        bad = tmp_path / "twok.gp"
        bad.write_text("gp 2 1\ne 1 2 5\nk 10\nv 1 3\nv 2 4\nk 20\nv 1 3\nv 2 4\n")
        out = tmp_path / "solve.csv"
        code = main(["solve", "--instance", str(bad), "--out", str(out)])
        assert code == 3
        assert "line 6: duplicate capacity line" in capsys.readouterr().err
        assert not out.exists()

    def test_knapsack_sdp_bounds_are_finite(self, tmp_path):
        # the frozen-Z LP of the knapsack SDP is unbounded (-inf); the reported
        # eigenvalue bound is not
        main(["gen", "--n", "12", "--seed", "3", "--gpkc", "--k", "3",
              "--outdir", str(tmp_path)])
        out = tmp_path / "solve.csv"
        instances = sorted(tmp_path.glob("GPKC*.gp"))
        assert len(instances) == 3
        for inst in instances:
            assert main(["solve", "--instance", str(inst), "--relaxation", "sdp",
                         "--out", str(out)]) == 0
        rows = reports.read_rows(out)
        assert len(rows) == 3
        assert all(np.isfinite(r.lb) for r in rows)

    def test_infeasible_spec_exit_code(self, tmp_path):
        bad = tmp_path / "bad.gp"
        bad.write_text("gp 2 1\ne 1 2 5\nk 3\nv 1 4\nv 2 1\n")
        assert main(["solve", "--instance", str(bad), "--problem", "gpkc"]) == 3


class TestHeur:
    def test_gap_formatting(self, k8_file, tmp_path, capsys):
        out = tmp_path / "heur.csv"
        code = main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--method", "vc+2opt", "--samples", "10", "--seed", "1",
                     "--lb", "15.0", "--out", str(out)])
        assert code == 0
        row = reports.read_rows(out)[0]
        assert row.ub == pytest.approx(16.0)
        assert row.gap_vs_lb_percent == pytest.approx(100.0 * (16.0 - 15.0) / 15.0)

    def test_missing_lb_leaves_gap_empty(self, k8_file, tmp_path):
        out = tmp_path / "heur.csv"
        main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--method", "hyp", "--samples", "5", "--out", str(out)])
        row = reports.read_rows(out)[0]
        assert row.gap_vs_lb_percent is None

    def test_fixed_seed_reproducible(self, tmp_path):
        main(["gen", "--n", "10", "--density", "0.8", "--seed", "4", "--outdir", str(tmp_path)])
        inst = tmp_path / "rand80_n10_s4.gp"
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"heur_{tag}.csv"
            main(["heur", "--instance", str(inst), "--problem", "keq", "--k", "5",
                  "--method", "vc+2opt", "--samples", "20", "--seed", "9",
                  "--time-limit", "1e9", "--out", str(out)])
            outs.append(reports.read_rows(out)[0])
        assert outs[0] == outs[1]

    def test_matches_library_rounding(self, tmp_path, capsys):
        # the command and the library share one rounding path: same X, seed, ub;
        # two samples keep the ub seed-dependent on this instance
        main(["gen", "--n", "30", "--density", "0.5", "--seed", "3", "--outdir", str(tmp_path)])
        inst = tmp_path / "rand50_n30_s3.gp"
        capsys.readouterr()
        code = main(["heur", "--instance", str(inst), "--problem", "keq", "--k", "3",
                     "--method", "vc+2opt", "--samples", "2", "--time-limit", "inf",
                     "--seed", "6"])
        assert code == 0
        printed = float(capsys.readouterr().out.split(",")[2])
        g, _ = read_instance(inst)
        X = solve(build_keq_dnn(g, 3), AdmmParams()).state.X
        lib = vc_plus_two_opt(g, X, KEquipartition.for_graph(30, 3), samples=2,
                              time_limit=float("inf"), seed=6)
        assert printed == float(f"{lib.ub:.6f}")

    @pytest.mark.parametrize("method", ["hyp", "hyp+2opt"])
    def test_hyperplane_refuses_knapsack(self, gpkc_file, method, capsys):
        code = main(["heur", "--instance", str(gpkc_file), "--method", method,
                     "--samples", "3"])
        assert code == 1
        assert "equipartition problems only" in capsys.readouterr().err

    def test_lb_csv_matches_instance(self, tmp_path, capsys):
        # rand80's row comes last in solve.csv; taking it gave rand20 a gap of -92.35
        main(["gen", "--n", "20", "--density", "0.2", "0.8", "--seed", "1",
              "--outdir", str(tmp_path)])
        solve_csv = tmp_path / "solve.csv"
        base = {name: ["--instance", str(tmp_path / f"{name}.gp"), "--problem", "keq",
                       "--k", "2"] for name in ("rand20_n20_s1", "rand80_n20_s1")}
        for argv in base.values():
            assert main(["solve", *argv, "--out", str(solve_csv)]) == 0
        lb = {r.instance: r.lb for r in reports.read_rows(solve_csv)}
        capsys.readouterr()
        assert main(["heur", *base["rand20_n20_s1"], "--samples", "20",
                     "--lb-csv", str(solve_csv)]) == 0
        _, _, ub, gap = capsys.readouterr().out.strip().split(",")
        expected = 100.0 * (float(ub) - lb["rand20_n20_s1"]) / lb["rand20_n20_s1"]
        assert float(gap) == pytest.approx(expected, abs=1e-4)
        assert float(gap) >= 0.0

    def test_rejects_zero_samples(self, k8_file, tmp_path, capsys):
        out = tmp_path / "heur.csv"
        code = main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--samples", "0", "--out", str(out)])
        assert code == 1
        assert "samples" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samples_rejected_before_solving(self, k8_file, monkeypatch, capsys):
        from gpbound import admm

        calls = []
        real_solve = admm.solve
        monkeypatch.setattr(admm, "solve", lambda *a, **kw: calls.append(1) or real_solve(*a, **kw))
        code = main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--samples", "0"])
        assert code == 1
        assert "samples must be at least 1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("limit", ["-1", "nan"])
    def test_rejects_bad_time_limit(self, k8_file, tmp_path, limit, monkeypatch, capsys):
        from gpbound import admm

        calls = []
        monkeypatch.setattr(admm, "solve", lambda *a, **kw: calls.append(1))
        out = tmp_path / "heur.csv"
        code = main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--time-limit", limit, "--out", str(out)])
        assert code == 1
        assert "--time-limit" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("method", ["vc", "vc+2opt"])
    def test_vector_clustering_refuses_gaussian(self, k8_file, tmp_path, method, solves,
                                                capsys):
        # vector clustering draws no directions, so the flag would go unused
        out = tmp_path / "heur.csv"
        code = main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--method", method, "--distribution", "gaussian", "--out", str(out)])
        assert code == 1
        assert "--distribution gaussian" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    @pytest.mark.parametrize("method", ["hyp", "hyp+2opt"])
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    def test_hyperplanes_take_either_distribution(self, k8_file, method, distribution):
        assert main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--method", method, "--distribution", distribution,
                     "--samples", "5"]) == 0

    def test_infinite_time_limit_draws_every_sample(self, k8_file, tmp_path):
        detail = tmp_path / "detail.csv"
        assert main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--method", "vc", "--samples", "7", "--time-limit", "inf",
                     "--detail-out", str(detail)]) == 0
        assert reports.read_rows(detail)[0].samples == 7

    def test_detail_rows(self, k8_file, tmp_path):
        detail = tmp_path / "detail.csv"
        main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--method", "vc", "--samples", "7", "--detail-out", str(detail)])
        row = reports.read_rows(detail)[0]
        assert row.samples == 7
        assert row.elapsed_s >= 0.0


class TestOracle:
    def test_sandwich_passes(self, k8_file, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main(["oracle", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                     "--lb", "15.9", "--ub", "16.0", "--out", str(out)])
        assert code == 0
        row = reports.read_rows(out)[0]
        assert row.opt == pytest.approx(16.0)
        assert row.enumerated == 35

    def test_violation_exit_code(self, k8_file):
        assert main(["oracle", "--instance", str(k8_file), "--problem", "keq",
                     "--k", "2", "--lb", "16.5"]) == 5

    def test_refuses_oversized_instance(self, tmp_path):
        main(["gen", "--n", "20", "--density", "0.5", "--seed", "0", "--outdir", str(tmp_path)])
        inst = tmp_path / "rand50_n20_s0.gp"
        assert main(["oracle", "--instance", str(inst), "--problem", "keq", "--k", "10"]) == 1

    def test_csv_bounds_match_instance_and_k(self, tmp_path):
        # two instances at two k values in one solve.csv and one heur.csv: the
        # oracle reads only the rows of the instance and k it checks
        main(["gen", "--n", "8", "--density", "0.2", "0.8", "--seed", "1",
              "--outdir", str(tmp_path)])
        solve_csv, heur_csv = tmp_path / "solve.csv", tmp_path / "heur.csv"
        runs = [(name, k) for name in ("rand20_n8_s1", "rand80_n8_s1") for k in ("2", "4")]
        for name, k in runs:
            base = ["--instance", str(tmp_path / f"{name}.gp"), "--problem", "keq", "--k", k]
            assert main(["solve", *base, "--out", str(solve_csv)]) == 0
            assert main(["heur", *base, "--samples", "20", "--out", str(heur_csv)]) == 0
        for name, k in runs:
            assert main(["oracle", "--instance", str(tmp_path / f"{name}.gp"),
                         "--problem", "keq", "--k", k, "--lb-csv", str(solve_csv),
                         "--ub-csv", str(heur_csv)]) == 0, (name, k)

    def test_lb_csv_checks_every_solve_row(self, tmp_path, capsys):
        # an unsafe sdp row followed by a safe dnn row: the oracle checked only the last
        main(["gen", "--n", "8", "--density", "0.5", "--seed", "1", "--outdir", str(tmp_path)])
        base = ["--instance", str(tmp_path / "rand50_n8_s1.gp"), "--problem", "keq", "--k", "2"]
        lb_csv = tmp_path / "lb.csv"
        for relax in ("sdp", "dnn"):
            assert main(["solve", *base, "--relaxation", relax, "--out", str(lb_csv)]) == 0
        assert main(["oracle", *base, "--lb-csv", str(lb_csv)]) == 0
        sdp, dnn = reports.read_rows(lb_csv)
        reports.write_rows(lb_csv, [replace(sdp, lb=1e9), dnn])
        capsys.readouterr()
        assert main(["oracle", *base, "--lb-csv", str(lb_csv)]) == 5
        assert "lb 1000000000.0 exceeds optimum 244" in capsys.readouterr().err
        # heur's gap is taken against the same, largest, lb
        assert main(["heur", *base, "--samples", "20", "--lb-csv", str(lb_csv)]) == 0
        _, _, ub, gap = capsys.readouterr().out.strip().split(",")
        assert float(gap) == pytest.approx(100.0 * (float(ub) - 1e9) / 1e9, abs=1e-4)

    def test_gpkc_oracle(self, gpkc_file, tmp_path):
        code = main(["oracle", "--instance", str(gpkc_file)])
        assert code == 0


class TestReport:
    def test_merged_summary_round_trips(self, k8_file, tmp_path):
        solve = tmp_path / "solve.csv"
        heur = tmp_path / "heur.csv"
        for relax in ("sdp", "dnn"):
            main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
                  "--relaxation", relax, "--out", str(solve)])
        main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--method", "vc+2opt", "--samples", "5", "--out", str(heur)])
        summary = tmp_path / "summary.csv"
        code = main(["report", "--solve-csv", str(solve), "--heur-csv", str(heur),
                     "--out", str(summary)])
        assert code == 0
        rows = reports.read_rows(summary)
        assert len(rows) == 1
        assert rows[0].lb_sdp is not None and rows[0].lb_dnn is not None
        assert rows[0].imp_dnn_pct is not None

    def test_same_size_instances_join_by_name(self, tmp_path):
        # rand20_n20_s1 and rand80_n20_s1 share (n, k); a join on (n, k) once paired
        # rand80's lb with rand20's ub and printed gap_pct = -92.35
        main(["gen", "--n", "20", "--density", "0.2", "0.8", "--seed", "1",
              "--outdir", str(tmp_path)])
        solve_csv, heur_csv = tmp_path / "solve.csv", tmp_path / "heur.csv"
        for name in ("rand20_n20_s1", "rand80_n20_s1"):
            base = ["--instance", str(tmp_path / f"{name}.gp"), "--problem", "keq", "--k", "2"]
            assert main(["solve", *base, "--out", str(solve_csv)]) == 0
            assert main(["heur", *base, "--samples", "20", "--out", str(heur_csv)]) == 0
        summary = tmp_path / "summary.csv"
        assert main(["report", "--solve-csv", str(solve_csv), "--heur-csv", str(heur_csv),
                     "--out", str(summary)]) == 0
        lb = {r.instance: r.lb for r in reports.read_rows(solve_csv)}
        ub = {r.instance: r.ub for r in reports.read_rows(heur_csv)}
        rows = reports.read_rows(summary)
        assert sorted(r.instance for r in rows) == ["rand20_n20_s1", "rand80_n20_s1"]
        for row in rows:
            assert (row.n, row.k_or_w) == (20, "2")
            assert row.lb_dnn == lb[row.instance] and row.ub == ub[row.instance]
            assert row.gap_pct >= 0.0

    def test_one_instance_at_two_k_values(self, tmp_path):
        # the k=2 ub once joined the k=4 lb: "ub 210.0 undercuts lb 397.66", exit 5
        main(["gen", "--n", "20", "--density", "0.2", "--seed", "1", "--outdir", str(tmp_path)])
        solve_csv, heur_csv = tmp_path / "solve.csv", tmp_path / "heur.csv"
        for k in ("2", "4"):
            base = ["--instance", str(tmp_path / "rand20_n20_s1.gp"), "--problem", "keq",
                    "--k", k]
            assert main(["solve", *base, "--out", str(solve_csv)]) == 0
            assert main(["heur", *base, "--samples", "20", "--out", str(heur_csv)]) == 0
        summary = tmp_path / "summary.csv"
        assert main(["report", "--solve-csv", str(solve_csv), "--heur-csv", str(heur_csv),
                     "--out", str(summary)]) == 0
        ub = {r.k_or_w: r.ub for r in reports.read_rows(heur_csv)}
        rows = reports.read_rows(summary)
        assert sorted(r.k_or_w for r in rows) == ["2", "4"]
        for row in rows:
            assert row.ub == ub[row.k_or_w] and row.gap_pct >= 0.0

    def test_ub_below_lb_exits_5(self, tmp_path, capsys):
        solve_csv, heur_csv = tmp_path / "solve.csv", tmp_path / "heur.csv"
        reports.write_rows(solve_csv, [reports.SolveRow("a", 8, "2", "dnn", 16.0, 10, 0.1,
                                                        "converged")])
        reports.write_rows(heur_csv, [reports.HeurRow("a", "2", "Vc", 15.0)])
        summary = tmp_path / "summary.csv"
        assert main(["report", "--solve-csv", str(solve_csv), "--heur-csv", str(heur_csv),
                     "--out", str(summary)]) == 5
        assert "certificate violation" in capsys.readouterr().err
        assert not summary.exists()

    def test_ub_below_an_earlier_row_exits_5(self, tmp_path, capsys):
        # the summary shows the last row per relaxation, but the ub is checked against
        # every row: dnn rows lb 1e9 then 15 with ub 16 once exited 0
        solve_csv, heur_csv = tmp_path / "solve.csv", tmp_path / "heur.csv"
        reports.write_rows(solve_csv, [
            reports.SolveRow("a", 8, "2", "dnn", 1e9, 10, 0.1, "converged"),
            reports.SolveRow("a", 8, "2", "dnn", 15.0, 10, 0.1, "converged"),
        ])
        reports.write_rows(heur_csv, [reports.HeurRow("a", "2", "Vc", 16.0)])
        summary = tmp_path / "summary.csv"
        assert main(["report", "--solve-csv", str(solve_csv), "--heur-csv", str(heur_csv),
                     "--out", str(summary)]) == 5
        assert "lb 1000000000.0" in capsys.readouterr().err
        assert not summary.exists()

    def test_infinite_lb_leaves_percentages_empty(self, tmp_path, capsys):
        # a solve CSV is outside input and may hold a -inf lb (the LP cross-check of
        # the knapsack SDP reads -inf); gaps and improvements over it once printed nan
        main(["gen", "--n", "12", "--seed", "3", "--gpkc", "--k", "3", "--density", "0.5",
              "--outdir", str(tmp_path)])
        base = ["--instance", str(tmp_path / "GPKCrand50_n12_s3.gp")]
        solve_csv, heur_csv = tmp_path / "solve.csv", tmp_path / "heur.csv"
        summary = tmp_path / "summary.csv"
        g, spec = read_instance(tmp_path / "GPKCrand50_n12_s3.gp")
        reports.write_rows(solve_csv, [reports.SolveRow(g.name, g.n, format_number(spec.W),
                                                        "sdp", -np.inf, 5, 0.0, "bound")])
        capsys.readouterr()
        assert main(["heur", *base, "--samples", "20", "--lb-csv", str(solve_csv),
                     "--out", str(heur_csv)]) == 0
        assert capsys.readouterr().out.strip().endswith(",")
        assert reports.read_rows(heur_csv)[0].gap_vs_lb_percent is None
        report = ["report", "--solve-csv", str(solve_csv), "--heur-csv", str(heur_csv),
                  "--out", str(summary)]
        assert main(report) == 0
        row = reports.read_rows(summary)[0]
        assert row.lb_sdp == -np.inf and row.gap_pct is None
        assert main(["solve", *base, "--out", str(solve_csv)]) == 0
        assert main(report) == 0
        row = reports.read_rows(summary)[0]
        assert row.imp_dnn_pct is None and np.isfinite(row.gap_pct)

    def test_every_emitted_csv_parses(self, k8_file, tmp_path):
        paths = {
            "solve": tmp_path / "s.csv",
            "cert": tmp_path / "c.csv",
            "trace": tmp_path / "t.csv",
            "heur": tmp_path / "h.csv",
            "detail": tmp_path / "d.csv",
            "oracle": tmp_path / "o.csv",
            "cuts": tmp_path / "r.csv",
        }
        main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--out", str(paths["solve"]), "--cert-out", str(paths["cert"]),
              "--trace", str(paths["trace"]), "--trace-every", "5"])
        main(["solve", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--relaxation", "dnn+met", "--max-rounds", "1",
              "--out", str(paths["solve"]), "--cuts-out", str(paths["cuts"])])
        main(["heur", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--method", "hyp+2opt", "--samples", "3",
              "--out", str(paths["heur"]), "--detail-out", str(paths["detail"])])
        main(["oracle", "--instance", str(k8_file), "--problem", "keq", "--k", "2",
              "--out", str(paths["oracle"])])
        for name, path in paths.items():
            if name == "cuts" and not path.exists():
                continue  # loop may stop before any cut is found
            assert reports.read_rows(path), name


def readme_commands():
    """The ``gpbound ...`` lines of the README's command-line block, continuations
    joined, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in joined.splitlines()
            if line.startswith("gpbound ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen", "solve", "heur", "oracle", "report"}
    for argv in commands:
        build_parser().parse_args(argv)
