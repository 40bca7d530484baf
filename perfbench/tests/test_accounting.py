import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl
from gpbound import HeuristicResult, KEquipartition, Partition, cut_value, gen_rand_graph

BENCH = Path(run.__file__).resolve().parent


def test_lb_problems():
    assert wl.lb_problems(1.0, 2.0) == ([], [])
    assert wl.lb_problems(None, 2.0)[0]
    assert wl.lb_problems(-math.inf, 2.0)[0]
    assert wl.lb_problems(math.nan, 2.0)[0]
    reasons, violations = wl.lb_problems(3.0, 2.0)
    assert reasons == [] and violations


def test_ub_problems():
    g = gen_rand_graph(6, 0.8, 1)
    spec = KEquipartition.for_graph(6, 2)
    good = Partition.from_groups(6, [(0, 1, 2), (3, 4, 5)])
    cut = cut_value(g, good)
    assert wl.ub_problems(g, spec, HeuristicResult(good, cut, 1, 0.0, "x")) == []
    assert wl.ub_problems(g, spec, HeuristicResult(good, cut - 1, 1, 0.0, "x"))
    lopsided = Partition.from_groups(6, [(0, 1), (2, 3, 4, 5)])
    assert wl.ub_problems(g, spec, HeuristicResult(lopsided, cut_value(g, lopsided), 1, 0.0, "x"))


def test_ledger_counts_failures_and_violations():
    ledger = wl.Ledger()
    ledger.record("a", [])
    ledger.record("b", ["exit 1"])
    ledger.record("c", [], ["lb > ub"])
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.violations == ["c: lb > ub"]


def _inst(ub, lb_dnn=1.0):
    return {"n": 6, "k": 2, "lb_sdp": 0.5, "lb_dnn": lb_dnn, "lb_met": 1.5, "ub": ub}


def _row(inst):
    return {"n": "6", "k_or_w": "2", "lb_sdp": repr(inst["lb_sdp"]),
            "lb_dnn": repr(inst["lb_dnn"]), "lb_dnn_met": repr(inst["lb_met"]),
            "ub": repr(inst["ub"])}


def test_join_mismatches():
    a, b = _inst(3.0), _inst(4.0, lb_dnn=1.2)
    assert wl.join_mismatches([a, b], [_row(a), _row(b)]) == 0
    # one row keyed on (n, k) pairing b's bounds with a's ub matches neither instance
    assert wl.join_mismatches([a, b], [_row({**b, "ub": 3.0})]) == 2


def test_report_join_defect_counts_as_failed_report(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "CLI_N", 6)
    monkeypatch.setattr(wl, "CLI_K", 2)
    ledger = wl.Ledger()
    res = wl.cli_pass(0, 0, tmp_path, spans.NullTracer(), ledger)
    # gen + 3 x (3 solves + heur) + report; the three instances share n and k
    assert ledger.attempted == 14
    assert ledger.violations == []
    assert res.layers["reports.join_mismatches"] >= 2
    assert ledger.failed == 1 and ledger.failures[0].startswith("report")
    assert len(res.gaps) == 3 and all(g >= 0 for g in res.gaps)


def test_exception_fails_both_operations(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("boom")

    monkeypatch.setattr(wl, "solve", broken)
    ledger = wl.Ledger()
    res = wl.library_pass("gpkc-lp", 0, 0, tmp_path, spans.NullTracer(), ledger)
    assert (ledger.attempted, ledger.failed) == (6, 6)
    assert ledger.violations == [] and res.gaps == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)
    layers = json.loads((BENCH / "layers.json").read_text())["layers"]
    assert list(layers) == list(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "keq-eig",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_scales_times_to_reference_speed():
    from reference import REF_NOMINAL_S

    passes = [wl.PassResult(2.0, 1.0, 3.0, [5.0], {}), wl.PassResult(4.0, 2.0, 6.0, [7.0], {})]
    # the host ran at half the nominal speed around the second pass
    refs = [REF_NOMINAL_S, REF_NOMINAL_S, 3 * REF_NOMINAL_S]
    setups = [{"setup_s": 0.5}, {"setup_s": 0.7}, {"setup_s": 0.6}]
    out = run.end_to_end(passes, refs, setups, 2 * REF_NOMINAL_S)
    assert out["sandwich_s"] == pytest.approx(3.0)
    assert out["lb_s"] == pytest.approx(2.0)
    assert out["setup_s"] == pytest.approx(0.3)
    assert out["gap_pct"] == pytest.approx(6.0)
