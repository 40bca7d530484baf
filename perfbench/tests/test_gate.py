import math

from gate import run_gate, sandwich_violations


def test_sandwich_holds():
    assert sandwich_violations("x", {"dnn/eig": 9.5, "dnn/lp": 10.0}, 10.0, 12.0) == []


def test_infeasible_lp_bound_is_valid():
    assert sandwich_violations("x", {"dnn/lp": -math.inf}, 10.0, 10.0) == []


def test_each_bad_bound_is_reported():
    out = sandwich_violations("x", {"dnn/eig": 10.5, "sdp/lp": math.nan}, 10.0, 9.0)
    assert len(out) == 3
    assert any("dnn/eig" in m for m in out) and any("sdp/lp" in m for m in out)
    assert any("ub" in m for m in out)


def test_gate_passes_and_enumerates():
    res = run_gate(0)
    assert res.violations == []
    # 5775 + 15400 equipartitions of n=12 (k=3, 4) plus the feasible gpkc partitions
    assert res.enumerated > 5775 + 15400
    assert res.checks == 3 * 5
