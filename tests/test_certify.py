import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import gpbound
from gpbound import admm, certify, eigbound, oracle
from gpbound.admm import STOPPED, AdmmParams, AdmmState, dual_objective, solve
from gpbound.certify import certify_bound, eig_lower_bound, lp_lower_bound, xbar_for
from gpbound.eigbound import _box_support, _gamma, _spectral_charge
from gpbound.graphs import Gpkc, GraphInstance, gen_gpkc_instance, gen_rand_graph
from gpbound.model import (SdpProblem, TriangleCut, add_cuts, build_gpkc_dnn,
                           build_gpkc_sdp, build_keq_dnn, build_keq_sdp)


def diag_problem(c_diag, box_lo=None):
    n = len(c_diag)
    A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
    return SdpProblem(n=n, C=np.diag(np.asarray(c_diag, float)), A=A,
                      b=np.ones(n), box_lo=box_lo)


def state_with(p, y, S=None, v=None, X=None):
    st = AdmmState.zeros(p, sigma=1.0)
    st.y = np.asarray(y, float)
    if S is not None:
        st.S = np.asarray(S, float)
    if v is not None:
        st.v = np.asarray(v, float)
    if X is not None:
        st.X = np.asarray(X, float)
    return st


class TestXbar:
    def test_keq_group_size(self):
        g = gen_rand_graph(100, 0.2, 0)
        p = build_keq_dnn(g, 5)
        assert xbar_for(p) == 20.0

    def test_keq_sdp_covers_feasible_spectrum(self):
        # X = ee'/3 + 4uu' is SDP-feasible for n=6, k=3 (diag 1, row sums m=2)
        # with top eigenvalue 4 > m; the SDP bound is n - m = 4
        g = gen_rand_graph(6, 0.5, 0)
        p = build_keq_sdp(g, 3)
        u = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]) / np.sqrt(6.0)
        X = np.ones((6, 6)) / 3.0 + 4.0 * np.outer(u, u)
        assert np.allclose(np.diag(X), 1.0) and np.allclose(X.sum(axis=1), 2.0)
        top = np.linalg.eigvalsh(X)[-1]
        assert top == pytest.approx(4.0)
        assert xbar_for(p) >= top
        assert xbar_for(build_keq_dnn(g, 3)) == 2.0

    def test_gpkc_covers_feasible_spectrum(self):
        # groups {0, 1, 2} and {3, 4, 5} both weigh W = 4: their 0/1 co-membership
        # matrix is DNN-feasible with top eigenvalue 3, and W / min(a) = 4 covers it
        # (W / max(a) = 2 would not); X = uu' with u'a = 0 is SDP-feasible with
        # top eigenvalue n = 6
        g = gen_rand_graph(6, 0.5, 0)
        spec = Gpkc(a=np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0]), W=4.0)
        X_dnn = np.kron(np.eye(2), np.ones((3, 3)))
        u = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        X_sdp = np.outer(u, u)
        for X in (X_dnn, X_sdp):
            assert np.allclose(np.diag(X), 1.0) and np.all(X @ spec.a <= spec.W)
        assert np.all(X_dnn >= 0)
        dnn, sdp = build_gpkc_dnn(g, spec), build_gpkc_sdp(g, spec)
        assert xbar_for(dnn) == 4.0 >= np.linalg.eigvalsh(X_dnn)[-1]
        assert xbar_for(sdp) == 6.0 >= np.linalg.eigvalsh(X_sdp)[-1] - 1e-12
        met = add_cuts(dnn, [TriangleCut(0, 1, 3)])
        assert xbar_for(met) == 4.0

    def test_without_the_diagonal_rows_nothing_is_provable(self):
        # a row dropped, and rows 2 X_ii = 1: neither pins diag(X) = e
        p = diag_problem([1.0, 1.0, 1.0])
        for A, b in ((p.A[:2], p.b[:2]), (2.0 * p.A, p.b)):
            with pytest.raises(ValueError, match="diag"):
                xbar_for(SdpProblem(n=3, C=p.C, A=A, b=b))
        # scaled rows c X_ii = c still pin it
        assert xbar_for(SdpProblem(n=3, C=p.C, A=2.0 * p.A, b=2.0 * p.b)) == 3.0

    def test_unit_diagonal_alone_gives_n(self):
        assert xbar_for(diag_problem([1.0, 2.0, 3.0])) == 3.0
        assert xbar_for(diag_problem([1.0, 2.0, 3.0], box_lo=np.zeros((3, 3)))) == 3.0

    @staticmethod
    def builder_table():
        """(name, problem, the xbar its relaxation proves) for every builder, with and
        without conflict pairs and with triangle cuts: m for the keq DNN, max(m, n - m)
        for its SDP, n for the knapsack SDP and min(n, W / min(a)) for its DNN."""
        cuts = [TriangleCut(0, 1, 2), TriangleCut(3, 1, 4)]
        table = []
        for n, k in ((12, 3), (12, 6), (30, 2), (60, 4)):
            g, m = gen_rand_graph(n, 0.5, 1), n // k
            dnn = build_keq_dnn(g, k)
            table += [(f"keq-sdp-{n}-{k}", build_keq_sdp(g, k), max(m, n - m)),
                      (f"keq-dnn-{n}-{k}", dnn, m),
                      (f"keq-met-{n}-{k}", add_cuts(dnn, cuts), m)]
        for args in ((8, 0.5, 2, 2), (30, 0.5, 3, 2), (7, 0.2, 7, 3), (9, 0.2, 3, 10),
                     (10, 0.5, 5, 2)):
            g, spec = gen_gpkc_instance(*args)
            dnn = build_gpkc_dnn(g, spec)
            pairs = int(np.isfinite(dnn.box_hi).any())
            cap = min(g.n, spec.W / spec.a.min())
            table += [(f"gpkc-sdp-{args}", build_gpkc_sdp(g, spec), g.n),
                      (f"gpkc-dnn-{args}-pairs{pairs}", dnn, cap),
                      (f"gpkc-met-{args}-pairs{pairs}", add_cuts(dnn, cuts), cap)]
        return table

    def test_builders_rows_give_their_relaxations_value(self):
        table = self.builder_table()
        assert {name.split("-pairs")[1] for name, _, _ in table if "pairs" in name} == {"0", "1"}
        for name, p, want in table:
            # W / min(a) is rounded up unless it is an integer or above n
            assert want <= xbar_for(p) <= np.nextafter(want, np.inf), name
            if want == int(want):
                assert xbar_for(p) == want, name

    def test_rows_without_their_premise_give_n(self):
        # a keq DNN without its rows X e = m e: X = ee' is feasible, with top
        # eigenvalue n, and the optimum is 0, so no certificate may exceed 0
        for (n, density, seed), sweeps in (((12, 0.5, 1), (20, 300)), ((60, 0.8, 3), (300,))):
            p = build_keq_dnn(gen_rand_graph(n, density, seed), 3)
            q = replace(p, A=p.A[:n], b=p.b[:n])
            assert xbar_for(p) == n // 3 and xbar_for(q) == n
            X = np.ones((n, n))
            assert np.allclose(q.eq_apply(X), q.b) and float((q.C * X).sum()) == 0.0
            for max_iter in sweeps:
                assert solve(q, AdmmParams(max_iter=max_iter)).certificate.value <= 0.0
        # the knapsack rows (X a)_i <= W without X >= 0 leave n
        g, spec = gen_gpkc_instance(10, 0.5, 5, 2)
        assert xbar_for(build_gpkc_dnn(g, spec)) < 10.0 == xbar_for(build_gpkc_sdp(g, spec))

    def test_one_sweep_charges_the_rows_premises(self):
        # charged with the trace and xbar the rows prove, the bound after one sweep
        # stays below the optimum; xbar = 1 (809.7) or trace = 1 (942.1) would not
        g = gen_rand_graph(12, 0.5, 1)
        p = build_keq_dnn(g, 3)
        res = solve(p, AdmmParams(max_iter=1))
        assert res.state.iter == 1
        opt = oracle.brute_force_keq(g, 3).opt
        assert opt == 626.0
        cert = eig_lower_bound(p, res.state)
        assert cert.xbar == 4.0 and cert.value <= opt

    def test_xbar_is_read_once_per_problem(self, monkeypatch):
        p = build_keq_dnn(gen_rand_graph(12, 0.5, 1), 3)
        assert xbar_for(p) == 4.0
        monkeypatch.setattr(eigbound, "_xbar_from_rows", None)
        monkeypatch.setattr(eigbound, "_integral", None)
        assert xbar_for(p) == 4.0
        eig_lower_bound(p, AdmmState.zeros(p, 1.0))


class TestEigBound:
    def test_psd_slack_gives_dual_objective(self):
        p = diag_problem([1.0, 2.0, 3.0])
        st = state_with(p, y=[1.0, 2.0, 3.0])  # C - Diag(y) = 0 is PSD
        cert = eig_lower_bound(p, st)
        # only the rounding margins are charged
        assert -1e-12 < cert.perturbation <= 0.0
        assert cert.raw == pytest.approx(6.0)

    def test_single_negative_eigenvalue_formula(self):
        delta = 0.3
        y = np.array([1.0, 2.0, 3.0])
        Z_target = np.diag([0.5, 0.2, -delta])
        n = 3
        A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
        p = SdpProblem(n=n, C=np.diag(y) + Z_target, A=A, b=np.ones(n))
        cert = eig_lower_bound(p, state_with(p, y=y))
        # the rows diag(X) = e give xbar = trace = n, all of it on the one eigenvalue
        assert cert.xbar == n
        assert cert.perturbation == pytest.approx(-n * delta)
        assert cert.raw == pytest.approx(float(y.sum()) - n * delta)

    def test_eigenvalue_below_rounding_margin_is_charged(self):
        # Zc = C = Diag(1e6, 1e-10): the second eigenvalue is positive but below
        # the margin 2 * eps * ||Zc||_F + 2 * gamma_4 * ||Zc||_F (about 1.3e-9;
        # the second term bounds the rounding in forming Zc, whose entries sum
        # one row term and C), so it is charged, with xbar = trace = 2
        p = diag_problem([1e6, 1e-10])
        st = state_with(p, y=[0.0, 0.0])
        cert = eig_lower_bound(p, st)
        u = np.finfo(float).eps / 2
        margin = (2 * np.finfo(float).eps + 2 * 4 * u / (1 - 4 * u)) * np.hypot(1e6, 1e-10)
        assert 0.0 < 1e-10 < margin
        assert cert.perturbation == pytest.approx(2.0 * (1e-10 - margin), rel=1e-9)
        assert cert.raw < 0.0  # the unmargined bound is exactly 0

    def test_margin_only_lowers_the_bound(self):
        g = gen_rand_graph(12, 0.5, 7)
        p = build_keq_dnn(g, 3)
        res = solve(p, AdmmParams(eps_tol=1e-4))
        xbar = xbar_for(p)
        cert = eig_lower_bound(p, res.state)
        Zc = p.C - p.adjoint(res.state.y) - _box_support(res.state.S, p.box_lo, p.box_hi)[0]
        evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T))
        d0 = cert.raw - cert.perturbation
        unmargined = d0 + _spectral_charge(evals, xbar, p.n)
        margin = p.n * np.finfo(float).eps * np.linalg.norm(Zc)
        assert cert.raw <= unmargined
        assert unmargined - cert.raw <= xbar * p.n * margin * (1 + 1e-9)

    def test_refuses_a_problem_without_the_unit_diagonal(self):
        # the trace and xbar it charges are read from the rows diag(X) = e
        p = diag_problem([1.0, 1.0])
        q = SdpProblem(n=2, C=p.C, A=p.A[:1], b=p.b[:1])
        with pytest.raises(ValueError, match="diag"):
            eig_lower_bound(q, state_with(q, y=[0.0]))

    def test_negative_box_dual_entries_clamped(self):
        p = diag_problem([1.0, 1.0], box_lo=np.zeros((2, 2)))
        S = np.array([[0.4, -0.2], [-0.2, 0.1]])  # negatives pair the +inf side
        cert = eig_lower_bound(p, state_with(p, y=[0.0, 0.0], S=S))
        assert np.isfinite(cert.value)
        assert cert.clamp > 0

    def test_safe_below_brute_force_at_loose_tolerance(self):
        for seed in (0, 1, 2):
            g = gen_rand_graph(8, 0.8, seed)
            opt = oracle.brute_force_keq(g, 2).opt
            p = build_keq_dnn(g, 2)
            for tol in (1e-3, 1e-4, 1e-5):
                res = solve(p, AdmmParams(eps_tol=tol))
                cert = eig_lower_bound(p, res.state)
                assert cert.value <= opt + 1e-9

    def test_charge_monotone_in_xbar(self):
        # the spectrum of a sloppy solve's Zc: a larger xbar never charges less
        g = gen_rand_graph(8, 0.5, 3)
        p = build_keq_dnn(g, 2)
        res = solve(p, AdmmParams(eps_tol=1e-2))  # sloppy on purpose
        Zc = p.C - p.adjoint(res.state.y) - _box_support(res.state.S, p.box_lo, p.box_hi)[0]
        evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T)) - 1e-3   # some negative ones
        assert (evals < 0).sum() > 1
        for trace in (p.n, math.inf):
            charges = [_spectral_charge(evals, xbar, trace) for xbar in (1.0, 2.0, 4.0, 8.0)]
            assert charges == sorted(charges, reverse=True) and charges[0] > charges[-1]


# The five helpers that met a multiplier block with its bounds before
# ``eigbound._box_support`` merged them, kept as references for it.

def ref_box_support_value(M, lo, hi):
    pos = M > 0
    neg = M < 0
    if np.any(pos & np.isinf(lo)) or np.any(neg & np.isinf(hi)):
        return -np.inf
    total = 0.0
    if pos.any():
        total += float((M[pos] * lo[pos]).sum())
    if neg.any():
        total += float((M[neg] * hi[neg]).sum())
    return total


def ref_clamp_unbounded(M, lo, hi):
    bad = ((M > 0) & np.isinf(lo)) | ((M < 0) & np.isinf(hi))
    if not bad.any():
        return M, 0.0
    out = M.copy()
    out[bad] = 0.0
    return out, float(np.linalg.norm(M[bad]))


def ref_clamped(problem, v, S):
    S, m1 = ref_clamp_unbounded(S, problem.box_lo, problem.box_hi)
    v, m2 = ref_clamp_unbounded(v, problem.l, problem.u)
    return v, S, m1 + m2


def ref_dual_value(problem, y, v, S):
    val = float(problem.b @ y) + ref_box_support_value(S, problem.box_lo, problem.box_hi)
    val += ref_box_support_value(v, problem.l, problem.u)
    return val


def ref_support_abs(M, lo, hi):
    pos, neg = M > 0, M < 0
    return float(np.abs(M[pos] * lo[pos]).sum() + np.abs(M[neg] * hi[neg]).sum())


def ref_dual_objective(problem, y, v, S):
    v, S, mag = ref_clamped(problem, v, S)
    return ref_dual_value(problem, y, v, S), mag


def ref_rounding_margins(p, y, v, S):
    """``_rounding_margins`` as it read on the reference helpers."""
    n = p.n
    _, _, abs_At, abs_Bt, c = eigbound._premises(p)
    T = np.abs(p.C) + (abs_At @ np.abs(y) + abs_Bt @ np.abs(v)).reshape(n, n) + np.abs(S)
    zc = 2.0 * _gamma(c + 3) * float(np.linalg.norm(T))
    terms = float(np.abs(p.b) @ np.abs(y)) + ref_support_abs(S, p.box_lo, p.box_hi)
    terms += ref_support_abs(v, p.l, p.u)
    return zc, 2.0 * _gamma(p.m + p.q + n * n) * terms


def ref_eig_lower_bound(p, approx, xbar, trace=math.inf):
    """``eig_lower_bound`` as it read on the reference helpers."""
    y = approx.y
    v_c, S_c, mag = ref_clamped(p, approx.v, approx.S)
    d0 = ref_dual_value(p, y, v_c, S_c)
    Zc = p.C - p.adjoint(y, v_c) - S_c
    zc_err, d0_err = ref_rounding_margins(p, y, v_c, S_c)
    margin = p.n * np.finfo(float).eps * np.linalg.norm(Zc) + zc_err
    evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T)) - margin
    charge = _spectral_charge(evals, xbar, trace)
    perturbation = charge - 2.0 * _gamma(int((evals < 0).sum()) + 3) * abs(charge)
    value = d0 - d0_err + perturbation
    value -= 2.0 * _gamma(2) * (abs(d0) + d0_err + abs(perturbation))
    return value, perturbation, mag


def same_bits(a, b) -> bool:
    """Equal bit for bit, so -0.0 differs from 0.0 and a NaN equals the same NaN."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def builder_problems():
    """Every builder's problem, the conflict-pair knapsack DNN and a DNN+MET round."""
    g = gen_rand_graph(16, 0.5, 3)
    gk, spec = gen_gpkc_instance(15, 0.5, 3, 3)
    dnn = build_keq_dnn(g, 4)
    met = add_cuts(dnn, [TriangleCut(0, 1, 2), TriangleCut(3, 5, 7)])
    return {"keq-sdp": build_keq_sdp(g, 4), "keq-dnn": dnn,
            "gpkc-sdp": build_gpkc_sdp(gk, spec), "gpkc-dnn": build_gpkc_dnn(gk, spec),
            "conflict-dnn": build_gpkc_dnn(*gen_gpkc_instance(10, 0.5, 5, 2)), "keq-met": met}


BUILDER_PROBLEMS = ["keq-sdp", "keq-dnn", "gpkc-sdp", "gpkc-dnn", "conflict-dnn", "keq-met"]


def mixed_bounds(p, rng):
    """``p`` with a box and slack interval that are infinite on either side at random
    entries, finite elsewhere, and -0.0 on some."""
    def bounds(shape):
        if rng.random() < 0.2:   # the box {0}: every product in F1 and F2 is a zero
            return np.full(shape, -0.0), np.zeros(shape)
        lo = rng.choice([-np.inf, -1.5, 0.0, -0.0], size=shape)
        return lo, np.maximum(lo, rng.choice([-0.0, 0.0, 2.5, np.inf], size=shape))

    lo, hi = bounds((p.n, p.n))
    lo = np.maximum(lo, lo.T)
    hi = np.maximum(np.minimum(hi, hi.T), lo)
    l, u = bounds(p.q)
    return replace(p, box_lo=lo, box_hi=hi, l=l, u=u)


class TestBoxSupport:
    """``_box_support`` against the five helpers it replaced, bit for bit."""

    @staticmethod
    def check(p, st):
        S_c, mag_s, f1, abs_s = _box_support(st.S, p.box_lo, p.box_hi)
        v_c, mag_v, f2, abs_v = _box_support(st.v, p.l, p.u)
        for M, lo, hi, (clamped, mag, value, terms) in (
                (st.S, p.box_lo, p.box_hi, (S_c, mag_s, f1, abs_s)),
                (st.v, p.l, p.u, (v_c, mag_v, f2, abs_v))):
            ref, ref_mag = ref_clamp_unbounded(M, lo, hi)
            assert same_bits(clamped, ref) and same_bits(mag, ref_mag)
            assert same_bits(value, ref_box_support_value(ref, lo, hi))
            assert same_bits(terms, ref_support_abs(ref, lo, hi))
        assert all(same_bits(a, b) for a, b in zip(dual_objective(p, st.y, st.v, st.S),
                                                   ref_dual_objective(p, st.y, st.v, st.S)))
        margins = eigbound._rounding_margins(p, st.y, v_c, S_c, abs_s, abs_v)
        assert all(same_bits(a, b) for a, b in zip(margins,
                                                   ref_rounding_margins(p, st.y, v_c, S_c)))
        cert = eig_lower_bound(p, st)
        value, perturbation, mag = ref_eig_lower_bound(p, st, xbar_for(p), trace=p.n)
        assert same_bits(cert.raw, value)
        assert cert.value == (math.ceil(value) if eigbound._premises(p).integral
                              and math.isfinite(value) else value)
        assert same_bits(cert.perturbation, perturbation) and same_bits(cert.clamp, mag)

    @pytest.mark.parametrize("sweeps", [3, 20, 200])
    @pytest.mark.parametrize("name", BUILDER_PROBLEMS)
    def test_solver_states(self, name, sweeps):
        # the first and last sweep's state, and the best-certified one solve returns
        p = builder_problems()[name]
        seen = []
        res = solve(p, AdmmParams(max_iter=sweeps),
                    callback=lambda k, st, *_: k in (1, sweeps) and seen.append(st.copy()))
        for st in (*seen, res.state):
            self.check(p, st)

    @pytest.mark.parametrize("name", BUILDER_PROBLEMS)
    def test_random_multipliers(self, name):
        # keq-sdp has no slack rows and an all-infinite box, so every nonzero entry of
        # S is clamped; the other problems also get boxes and slack intervals that are
        # infinite on either side at random entries
        rng = np.random.default_rng(21)
        base = builder_problems()[name]
        for trial in range(10):
            p = base if trial < 2 or name == "keq-sdp" else mixed_bounds(base, rng)
            st = AdmmState.zeros(p, sigma=1.0)
            st.y = rng.normal(size=p.m)
            S = rng.normal(size=(p.n, p.n))
            zero = rng.random((p.n, p.n)) < 0.2
            st.S = np.where(zero | zero.T, -0.0 if trial % 2 else 0.0, S + S.T)
            st.v = np.where(rng.random(p.q) < 0.2, -0.0, rng.normal(size=p.q))
            self.check(p, st)


class TestTraceCharge:
    """The eigenvalue charge min sum mu_i lambda_i over 0 <= mu_i <= xbar, sum mu_i <= trace."""

    def test_infinite_trace_is_the_old_charge(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            evals = np.sort(rng.normal(size=12))
            xbar = float(rng.uniform(0.5, 5.0))
            neg_sum = float(evals[evals < 0].sum())
            old = xbar * neg_sum if neg_sum < 0 else 0.0
            assert _spectral_charge(evals, xbar, math.inf) == old
            assert _spectral_charge(evals, xbar, trace=xbar * evals.size) == old

    def test_trace_aware_charge_is_never_lower(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            M = rng.normal(size=(n, n))
            p = SdpProblem(n=n, C=M + M.T, A=diag_problem(np.zeros(n)).A, b=np.ones(n))
            st = state_with(p, y=rng.normal(size=n))
            evals = np.linalg.eigvalsh(p.C - np.diag(st.y))
            xbar = float(rng.uniform(0.5, n))
            new = _spectral_charge(evals, xbar, n)
            assert new >= _spectral_charge(evals, xbar, math.inf), trial
            assert new <= 0.0
            assert eig_lower_bound(p, st).perturbation <= 0.0

    def test_feasible_spectrum_attains_the_charge(self):
        # Zc = Diag(-3, -2, -1, 0.5, 2), xbar = 2, trace 5: xbar on the two most
        # negative eigenvalues, the remainder 1 on the third, so the charge is -11,
        # and X = Diag(2, 2, 1, 0, 0) (PSD, trace 5, top eigenvalue 2) has
        # <Zc, X> = -11; without the trace, xbar on all three gives -12
        z = np.array([-3.0, -2.0, -1.0, 0.5, 2.0])
        X = np.diag([2.0, 2.0, 1.0, 0.0, 0.0])
        assert np.trace(X) == 5.0 and np.linalg.eigvalsh(X)[-1] <= 2.0
        assert float((np.diag(z) * X).sum()) == _spectral_charge(z, 2.0, 5.0) == -11.0
        assert _spectral_charge(z, 2.0, math.inf) == -12.0
        # the rows diag(X) = e give xbar = trace = 5, all of it on -3, which
        # X = Diag(5, 0, 0, 0, 0) attains; the certificate's margins only lower it
        p = diag_problem(z)
        cert = eig_lower_bound(p, state_with(p, y=np.zeros(5)))
        assert cert.xbar == 5.0
        assert cert.perturbation <= -15.0
        assert cert.perturbation == pytest.approx(-15.0, abs=1e-12)

    def test_certify_bound_passes_trace_n_for_every_family(self, monkeypatch):
        # the solver certifies its check sweeps on the caller's problem, and
        # certify_bound reports its best, charged with xbar_for(p) and trace n
        seen = []
        real = admm.eig_lower_bound

        def spy(p, approx):
            seen.append(p)
            return real(p, approx)

        monkeypatch.setattr(admm, "eig_lower_bound", spy)
        g = gen_rand_graph(9, 0.5, 4)
        gk, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        problems = [build_keq_sdp(g, 3), build_keq_dnn(g, 3),
                    build_gpkc_sdp(gk, spec), build_gpkc_dnn(gk, spec)]
        for p in problems:
            res = solve(p, AdmmParams(eps_tol=1e-5))
            cert = certify_bound(p, res)
            assert cert.method == "eig" and cert == real(p, res.state)
            value, _, _ = ref_eig_lower_bound(p, res.state, xbar_for(p), trace=p.n)
            assert same_bits(cert.raw, value)
        assert list(dict.fromkeys(id(p) for p in seen)) == [id(p) for p in problems]


class TestRoundingMargins:
    """Hand-built cases whose Zc or dual value rounds upward in floating point; their
    rows give the premises the certificate charges."""

    BIG = 1e16 + 2.0      # the float spacing here is 2, and BIG + 1 rounds up

    @staticmethod
    def group_rows(c_diag):
        """diag(X) = e, X e = e and X >= 0 (the keq DNN with groups of one), with
        C = Diag(c_diag): the rows give xbar = 1 and trace n."""
        n = len(c_diag)
        p = replace(build_keq_dnn(gen_rand_graph(n, 0.5, 0), n), C=np.diag(c_diag))
        assert xbar_for(p) == 1.0
        return p

    @staticmethod
    def exact_value(p, st):
        # Zc is diagonal, so its eigenvalues are exact rationals of the inputs
        A = p.A.toarray()
        z = sorted(Fraction(p.C[i, i]) - Fraction(st.S[i, i])
                   - sum(Fraction(a) * Fraction(yr) for a, yr in zip(A[:, i * (p.n + 1)], st.y))
                   for i in range(p.n))
        charge, left = Fraction(0), Fraction(p.n)
        for lam in z:
            mu = min(Fraction(xbar_for(p)), left)
            if lam >= 0 or mu <= 0:
                break
            charge += mu * lam
            left -= mu
        d0 = sum(Fraction(bi) * Fraction(yi) for bi, yi in zip(p.b, st.y))
        return d0 + charge

    @staticmethod
    def naive_value(p, st):
        Zc = p.C - p.adjoint(st.y) - st.S
        return float(p.b @ st.y) + _spectral_charge(np.linalg.eigvalsh(Zc), xbar_for(p), p.n)

    def test_forming_zc(self):
        # Zc_11 = BIG + 1 - (BIG + 2) is -1, but fl(BIG + 1) = BIG + 2 makes it 0;
        # the dual value b'y = -1 is exact; xbar = trace = 2
        p = diag_problem([self.BIG, 1.0], box_lo=np.zeros((2, 2)))
        st = state_with(p, y=[-1.0, 0.0], S=np.diag([self.BIG + 2.0, 0.0]))
        exact = self.exact_value(p, st)
        assert self.naive_value(p, st) > exact
        assert Fraction(eig_lower_bound(p, st).raw) <= exact

    def test_summing_the_charge(self):
        # Zc = Diag(-1, -1e-16, -1e-16, -1e-16) is formed exactly; with xbar = 1 each
        # -1e-16 is lost against -1 in the running sum, so the naive charge is -1
        # where the exact one is -1 - 3e-16
        p = self.group_rows([-1.0, -1e-16, -1e-16, -1e-16])
        st = state_with(p, y=np.zeros(p.m))
        exact = self.exact_value(p, st)
        assert self.naive_value(p, st) > exact
        assert Fraction(eig_lower_bound(p, st).raw) <= exact

    def test_forming_the_dual_value(self):
        # rows BIG X_11 = BIG and X_22 = 1: b'y = -BIG + 1 rounds up to -BIG + 2, and
        # Zc = C - Diag(-BIG, 1) = Diag(4, 4) is formed exactly
        A = sp.csr_matrix(([self.BIG, 1.0], ([0, 1], [0, 3])), shape=(2, 4))
        p = SdpProblem(n=2, C=np.diag([4.0 - self.BIG, 5.0]), A=A, b=np.array([self.BIG, 1.0]))
        st = state_with(p, y=[-1.0, 1.0])
        assert np.array_equal(p.C - p.adjoint(st.y), np.diag([4.0, 4.0]))
        exact = self.exact_value(p, st)
        assert self.naive_value(p, st) > exact
        assert Fraction(eig_lower_bound(p, st).raw) <= exact

    def test_the_final_sum(self):
        # the bound is d0 - d0_err + perturbation, summed in floating point; it must
        # not exceed the exact sum of those three floats, which the plain float sum
        # does on some of these random cases
        p = self.group_rows([0.0, 0.0, 0.0])
        rng = np.random.default_rng(15)
        above = 0
        for _ in range(200):
            st = state_with(p, y=rng.normal(size=p.m))
            cert = eig_lower_bound(p, st)
            d0, _ = dual_objective(p, st.y, st.v, st.S)
            # S is zero and there are no slack rows, so F1 and F2 add no terms
            _, d0_err = eigbound._rounding_margins(p, st.y, st.v, st.S, 0.0, 0.0)
            exact = Fraction(d0) - Fraction(d0_err) + Fraction(cert.perturbation)
            assert Fraction(cert.raw) <= exact
            above += Fraction(d0 - d0_err + cert.perturbation) > exact
        assert above


class TestLpBound:
    def test_hand_lp_diagonal(self):
        p = diag_problem([3.0, -1.0], box_lo=np.zeros((2, 2)))
        cert = lp_lower_bound(p, np.zeros((2, 2)))
        assert cert.feasible
        assert cert.value == pytest.approx(2.0)

    def test_hand_lp_with_nonnegative_offdiag(self):
        n = 2
        A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
        C = np.array([[3.0, 0.5], [0.5, -1.0]])
        p = SdpProblem(n=n, C=C, A=A, b=np.ones(n), box_lo=np.zeros((n, n)))
        cert = lp_lower_bound(p, np.zeros((n, n)))
        assert cert.value == pytest.approx(2.0)

    def test_negative_offdiag_makes_adjustment_infeasible(self):
        n = 2
        A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
        C = np.array([[3.0, -0.5], [-0.5, -1.0]])
        p = SdpProblem(n=n, C=C, A=A, b=np.ones(n), box_lo=np.zeros((n, n)))
        cert = lp_lower_bound(p, np.zeros((n, n)))
        assert not cert.feasible
        assert cert.value == -np.inf

    def test_z_equal_to_objective_gives_zero(self):
        g = gen_rand_graph(6, 0.8, 4)
        p = build_keq_dnn(g, 2)
        cert = lp_lower_bound(p, p.C.copy())
        assert cert.feasible
        assert cert.value == pytest.approx(0.0, abs=1e-9)

    def test_safe_below_brute_force(self):
        g = gen_rand_graph(8, 0.5, 7)
        opt = oracle.brute_force_keq(g, 2).opt
        p = build_keq_dnn(g, 2)
        for tol in (1e-3, 1e-5):
            res = solve(p, AdmmParams(eps_tol=tol))
            cert = lp_lower_bound(p, res.state.Z)
            assert cert.value <= opt + 1e-9

    def test_perturbed_z_gives_finite_or_infeasible(self):
        g = gen_rand_graph(6, 0.5, 8)
        p = build_keq_dnn(g, 3)
        res = solve(p)
        Z = res.state.Z + np.random.default_rng(0).normal(scale=1e-3, size=(6, 6))
        cert = lp_lower_bound(p, Z)  # Z is taken as it is, not projected
        assert np.isfinite(cert.value) or not cert.feasible


class TestCertifyRouting:
    def test_keq_routes_to_eig(self):
        g = gen_rand_graph(6, 0.8, 1)
        p = build_keq_dnn(g, 2)
        res = solve(p)
        cert = certify_bound(p, res)
        assert cert.method == "eig"
        assert cert.xbar == 3.0

    @pytest.mark.parametrize("seed, params", [(5, AdmmParams(eps_tol=1e-3)),
                                              (2, AdmmParams(max_iter=5))],
                             ids=["eps-tol-1e-3", "max-iter-5"])
    def test_gpkc_dnn_eig_at_loose_settings(self, seed, params):
        # "eig" is the eigenvalue route whatever the solve's tolerance or cap
        g, spec = gen_gpkc_instance(8, 0.5, 2, seed)
        p = build_gpkc_dnn(g, spec)
        res = solve(p, params)
        cert = certify_bound(p, res, method="eig")
        assert cert.method == "eig" and cert.xbar == xbar_for(p)
        assert cert.value <= oracle.brute_force_gpkc(g, spec.a, spec.W).opt + 1e-9

    def test_gpkc_sdp_routes_to_eig(self):
        # its frozen-Z LP is unbounded (free box), so the LP route reads -inf
        p = build_gpkc_sdp(*gen_gpkc_instance(12, 0.2, 3, 3))
        res = solve(p)
        cert = certify_bound(p, res)
        assert cert.method == "eig" and cert.xbar == 12.0
        assert cert.raw == pytest.approx(9.0029, abs=1e-3)
        assert cert.value == 10.0   # integral weights: the bound rounded up
        assert not lp_lower_bound(p, res.state.Z).feasible

    def test_gpkc_sdp_eig_kept_at_loose_tolerance(self):
        g, spec = gen_gpkc_instance(8, 0.5, 2, 5)
        p = build_gpkc_sdp(g, spec)
        res = solve(p, AdmmParams(eps_tol=1e-3))
        cert = certify_bound(p, res, method="eig")
        assert cert.method == "eig" and np.isfinite(cert.value)
        assert cert.value <= oracle.brute_force_gpkc(g, spec.a, spec.W).opt + 1e-9

    def test_reports_the_solvers_certificate(self, monkeypatch):
        # a builder's problem is certified by the solve: no second eigendecomposition
        def refuse(*args, **kwargs):
            raise AssertionError("certify_bound recomputed the eigenvalue bound")

        g = gen_rand_graph(9, 0.5, 4)
        gk, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        problems = [build_keq_sdp(g, 3), build_keq_dnn(g, 3),
                    build_gpkc_sdp(gk, spec), build_gpkc_dnn(gk, spec)]
        results = [solve(p) for p in problems]
        monkeypatch.setattr(certify, "eig_lower_bound", refuse)
        for p, res in zip(problems, results):
            assert res.certificate.raw == certify_bound(p, res).raw

    def test_unknown_method_refused(self):
        p = build_keq_dnn(gen_rand_graph(6, 0.8, 1), 2)
        res = solve(p)
        for method in ("auto", "bogus"):
            with pytest.raises(ValueError, match="unknown certificate method"):
                certify_bound(p, res, method)

    def test_gpkc_eig_allowed_when_converged_tight(self):
        g, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        p = build_gpkc_dnn(g, spec)
        res = solve(p, AdmmParams(eps_tol=1e-5))
        assert res.status in STOPPED
        cert = certify_bound(p, res, method="eig")
        assert cert.method == "eig"
        opt = oracle.brute_force_gpkc(g, spec.a, spec.W).opt
        assert cert.value <= opt + 1e-9

    def test_both_finite_on_converged_dnn(self):
        g = gen_rand_graph(10, 0.8, 6)
        p = build_keq_dnn(g, 5)
        res = solve(p)
        assert res.status == "converged"
        eig = certify_bound(p, res, method="eig")
        lp = lp_lower_bound(p, res.state.Z)
        assert np.isfinite(eig.value) and np.isfinite(lp.value)

    def test_relaxation_nesting_sdp_below_dnn(self):
        # certified bounds carry O(eps_tol * scale) noise, so the nesting check
        # solves tighter than the 1e-6 relative slack it asserts
        prm = AdmmParams(eps_tol=1e-8)
        for seed in (0, 4):
            g = gen_rand_graph(10, 0.8, seed)
            sdp = build_keq_sdp(g, 2)
            dnn = build_keq_dnn(g, 2)
            lb_sdp = certify_bound(sdp, solve(sdp, prm)).value
            lb_dnn = certify_bound(dnn, solve(dnn, prm)).value
            assert lb_sdp <= lb_dnn + 1e-6 * (1.0 + abs(lb_dnn))


class TestConflictPairs:
    """gen_gpkc_instance(7, 0.2, 7, 3) has a = 932 and 928 against W = 932: most
    vertex pairs cannot share a group, and the DNN fixes X_ij = 0 on them."""

    @pytest.fixture(scope="class")
    def conflict(self):
        g, spec = gen_gpkc_instance(7, 0.2, 7, 3)
        p = build_gpkc_dnn(g, spec)
        assert (p.box_hi == 0).any()
        return p, solve(p), oracle.brute_force_gpkc(g, spec.a, spec.W).opt

    def test_converges_and_eig_certifies_the_optimum(self, conflict):
        p, res, opt = conflict
        assert opt == 189.0
        assert res.status in STOPPED
        cert = certify_bound(p, res)
        assert cert.method == "eig"
        assert opt - 5e-3 <= cert.value <= opt + 1e-9
        assert cert.value == opt   # rounded up, the bound proves optimality

    def test_lp_route_stays_below_the_optimum(self, conflict):
        p, res, opt = conflict
        cert = certify_bound(p, res, method="lp")
        assert cert.feasible and cert.value <= opt + 1e-9


def set_partitions(n):
    """Every partition of range(n), as group labels (restricted growth strings)."""
    def grow(labels, groups):
        if len(labels) == n:
            yield np.array(labels)
            return
        for g in range(groups + 1):
            yield from grow(labels + [g], max(groups, g + 1))
    yield from grow([0], 1)


class TestIntegralRoundUp:
    """When <C, X> is an integer at every partition matrix X, as with integral edge
    weights, the eigenvalue bound is reported rounded up and the unrounded one kept
    in ``raw``; that premise is read from C."""

    @staticmethod
    def halved(g):
        return GraphInstance(n=g.n, W_adj=0.5 * g.W_adj, name=g.name)

    def test_integrality_is_read_from_c(self):
        g = gen_rand_graph(9, 0.5, 4)
        gk, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        problems = [build_keq_sdp(g, 3), build_keq_dnn(g, 3),
                    build_gpkc_sdp(gk, spec), build_gpkc_dnn(gk, spec)]
        assert all(eigbound._premises(p).integral for p in problems)
        assert eigbound._premises(add_cuts(problems[1], [TriangleCut(0, 1, 2)])).integral
        assert (self.halved(g).W_adj % 1 == 0.5).any()
        assert not eigbound._premises(build_keq_dnn(self.halved(g), 3)).integral
        assert not eigbound._premises(build_gpkc_dnn(self.halved(gk), spec)).integral
        assert not eigbound._premises(replace(problems[1], C=problems[1].C / 3)).integral
        # 2 C_ij integers off the diagonal and an integer trace, both read exactly: two
        # odd halves on the diagonal sum to an integer, one does not, and every float
        # from 2^52 on is an integer
        for c_diag, off, integral in (([0.5, 1.5, 3.0], 0.5, True),
                                      ([0.5, 1.0, 3.0], 0.5, False),
                                      ([1.0, 1.0, 3.0], 0.25, False),
                                      ([2.0 ** 60, 0.5, 1e300], -1e300, False),
                                      ([2.0 ** 60, 0.5, -0.5], 1e300, True)):
            C = np.diag(c_diag) + off * (1 - np.eye(3))
            p = SdpProblem(n=3, C=C, A=diag_problem(c_diag).A, b=np.ones(3))
            assert eigbound._premises(p).integral is integral, (c_diag, off)

    @pytest.mark.parametrize("halve", [False, True])
    def test_eig_route_rounds_up_only_integral_cuts(self, halve):
        g = gen_rand_graph(9, 0.5, 4)
        p = build_keq_dnn(self.halved(g) if halve else g, 3)
        res = solve(p)
        cert = certify_bound(p, res)
        assert cert == eig_lower_bound(p, res.state)
        assert cert.value == (cert.raw if halve else math.ceil(cert.raw))
        assert cert.value != cert.raw or halve

    def test_a_third_of_the_weights_is_not_rounded(self):
        # C / 3 makes every cut a third of an integer: rounding the bound up to 78
        # would exceed the optimum 233 / 3
        g = gen_rand_graph(8, 0.5, 3)
        p = build_keq_dnn(g, 2)
        q = replace(p, C=p.C / 3)
        opt = oracle.brute_force_keq(g, 2).opt
        assert opt == 233.0
        cert = certify_bound(q, solve(q))
        assert cert.value == cert.raw <= opt / 3

    def test_custom_unit_diagonal_problem_with_integer_c_is_rounded(self):
        # a hand-built SDP over diag(X) = e with integer C: every partition matrix is
        # feasible and has an integer objective, so the rounded bound stays below them
        n = 6
        M = np.random.default_rng(3).integers(-3, 4, size=(n, n)).astype(float)
        p = diag_problem(np.zeros(n))
        p = SdpProblem(n=n, C=M + M.T, A=p.A, b=p.b)
        cert = certify_bound(p, solve(p))
        assert cert.value == math.ceil(cert.raw) > cert.raw
        best = min(float((p.C * (lab[:, None] == lab[None, :])).sum())
                   for lab in set_partitions(n))
        assert cert.value <= best

    def test_lp_route_is_not_rounded(self):
        g, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        p = build_gpkc_dnn(g, spec)
        res = solve(p, AdmmParams(max_iter=20))
        cert = certify_bound(p, res, method="lp")
        assert cert.raw is None and cert.value == lp_lower_bound(p, res.state.Z).value
        assert cert.value != math.ceil(cert.value)

    @pytest.mark.parametrize("density, seed", [(0.2, 3), (0.8, 2)])
    def test_rounded_bound_proves_optimality(self, density, seed):
        g, spec = gen_gpkc_instance(7, density, 7, seed)
        p = build_gpkc_dnn(g, spec)
        cert = certify_bound(p, solve(p))
        opt = oracle.brute_force_gpkc(g, spec.a, spec.W).opt
        assert cert.method == "eig" and cert.raw < opt
        assert cert.value == opt


class TestLpBoundAgainstIndependentFormulation:
    """Cross-check the whole LP route against a direct statement of the
    adjustment program solved by an unrelated LP code (scipy HiGHS)."""

    @staticmethod
    def reference_lp_value(p, Z):
        from scipy.optimize import linprog

        n, m, q = p.n, p.m, p.q
        rows, cols = np.triu_indices(n)
        nut = rows.size
        A_dense = [p.A[r].toarray().reshape(n, n) for r in range(m)]
        B_dense = [p.B[s].toarray().reshape(n, n) for s in range(q)]
        Cz = p.C - Z

        # variables: y (m, free), v_l, v_u (q each), S_L, S_U (nut each)
        nv = m + 2 * q + 2 * nut
        A_eq = np.zeros((nut, nv))
        b_eq = np.zeros(nut)
        cost = np.zeros(nv)
        bounds = [(None, None)] * m + [(0, None)] * (2 * q + 2 * nut)
        for t, (i, j) in enumerate(zip(rows, cols)):
            for r in range(m):
                A_eq[t, r] = A_dense[r][i, j]
            for s in range(q):
                A_eq[t, m + s] = B_dense[s][i, j]
                A_eq[t, m + q + s] = -B_dense[s][i, j]
            A_eq[t, m + 2 * q + t] = 1.0
            A_eq[t, m + 2 * q + nut + t] = -1.0
            b_eq[t] = Cz[i, j]
        cost[:m] = p.b
        for s in range(q):
            lo, hi = p.l[s], p.u[s]
            if np.isinf(lo):
                bounds[m + s] = (0, 0)
            else:
                cost[m + s] = lo
            if np.isinf(hi):
                bounds[m + q + s] = (0, 0)
            else:
                cost[m + q + s] = -hi
        for t, (i, j) in enumerate(zip(rows, cols)):
            lo, hi = p.box_lo[i, j], p.box_hi[i, j]
            if np.isinf(lo):
                bounds[m + 2 * q + t] = (0, 0)
            else:
                cost[m + 2 * q + t] = lo
            if np.isinf(hi):
                bounds[m + 2 * q + nut + t] = (0, 0)
            else:
                cost[m + 2 * q + nut + t] = -hi
        res = linprog(-cost, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if res.status == 2:
            return -np.inf
        assert res.status == 0, res.message
        return -res.fun

    def test_keq_dnn_matches(self):
        g = gen_rand_graph(5, 0.8, 1)
        p = build_keq_dnn(g, 5)
        res = solve(p, AdmmParams(eps_tol=1e-4))
        mine = lp_lower_bound(p, res.state.Z)
        ref = self.reference_lp_value(p, res.state.Z)
        assert mine.value == pytest.approx(ref, rel=1e-7, abs=1e-7)

    def test_gpkc_dnn_matches(self):
        g, spec = gen_gpkc_instance(6, 0.8, 2, 3)
        p = build_gpkc_dnn(g, spec)
        res = solve(p, AdmmParams(eps_tol=1e-4))
        mine = lp_lower_bound(p, res.state.Z)
        ref = self.reference_lp_value(p, res.state.Z)
        assert mine.value == pytest.approx(ref, rel=1e-7, abs=1e-7)

    def test_with_triangle_rows_matches(self):
        from gpbound.model import TriangleCut, add_cuts

        g = gen_rand_graph(6, 0.8, 4)
        p = add_cuts(build_keq_dnn(g, 3), [TriangleCut(0, 1, 2), TriangleCut(2, 3, 4)])
        res = solve(p, AdmmParams(eps_tol=1e-4))
        mine = lp_lower_bound(p, res.state.Z)
        ref = self.reference_lp_value(p, res.state.Z)
        assert mine.value == pytest.approx(ref, rel=1e-7, abs=1e-7)

    def test_infeasible_case_matches(self):
        n = 2
        import scipy.sparse as _sp

        A = _sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))),
                           shape=(n, n * n))
        C = np.array([[3.0, -0.5], [-0.5, -1.0]])
        p = SdpProblem(n=n, C=C, A=A, b=np.ones(n), box_lo=np.zeros((n, n)))
        mine = lp_lower_bound(p, np.zeros((n, n)))
        ref = self.reference_lp_value(p, np.zeros((n, n)))
        assert mine.value == -np.inf and ref == -np.inf


class TestSafetyCrossProduct:
    """Both certificates stay below the exact optimum for every problem family
    and stopping tolerance; no violations tolerated."""

    TOLERANCES = (1e-3, 1e-4, 1e-5)

    def test_keq_both_certificates(self):
        for seed in (3, 9):
            g = gen_rand_graph(8, 0.5, seed)
            opt = oracle.brute_force_keq(g, 4).opt
            p = build_keq_dnn(g, 4)
            for tol in self.TOLERANCES:
                res = solve(p, AdmmParams(eps_tol=tol))
                eig = eig_lower_bound(p, res.state)
                lp = lp_lower_bound(p, res.state.Z)
                assert eig.value <= opt + 1e-9, (seed, tol)
                assert lp.value <= opt + 1e-9, (seed, tol)

    def test_gpkc_both_certificates(self):
        for seed in (2, 7):
            g, spec = gen_gpkc_instance(8, 0.8, 2, seed)
            opt = oracle.brute_force_gpkc(g, spec.a, spec.W).opt
            p = build_gpkc_dnn(g, spec)
            for tol in self.TOLERANCES:
                res = solve(p, AdmmParams(eps_tol=tol))
                lp = lp_lower_bound(p, res.state.Z)
                assert lp.value <= opt + 1e-9, (seed, tol)
                if res.status == "converged" and tol <= 1e-5:
                    eig = eig_lower_bound(p, res.state)
                    assert eig.value <= opt + 1e-9, (seed, tol)


def test_simplex_not_reexported():
    # the LP route is the simplex's one caller; the package does not export it, and
    # the route itself is a cross-check importable from gpbound.certify only
    for name in ("solve_dense_lp", "LpResult", "lp_lower_bound"):
        assert name not in gpbound.__all__ and not hasattr(gpbound, name)
    for name in ("solve_dense_lp", "LpResult"):
        assert name not in certify.__all__


def imported_by_gpbound(module: str) -> str:
    """"True" or "False": whether ``import gpbound`` in a fresh interpreter imports
    ``module``."""
    src = Path(gpbound.__file__).resolve().parents[1]
    code = f"import sys, gpbound; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout.strip()


def test_import_leaves_scipy_optimize_out():
    # importing scipy.optimize alone adds about 17 MB RSS, which the benchmark's
    # peak-RSS bound would see; the bundled simplex keeps the LP route off it
    assert imported_by_gpbound("scipy.optimize") == "False"


def test_import_leaves_scipy_sparse_linalg_out():
    # only a problem with triangle cuts factors its normal matrix with the sparse LU,
    # which imports scipy.sparse.linalg (about 1.3 MB RSS and 15 ms) when it first runs,
    # so runs without cuts pay neither
    assert imported_by_gpbound("scipy.sparse.linalg") == "False"
