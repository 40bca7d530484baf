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
from gpbound.eigbound import _spectral_charge, clamp_unbounded
from gpbound.graphs import Gpkc, GraphInstance, gen_gpkc_instance, gen_rand_graph
from gpbound.model import (ProblemTag, SdpProblem, TriangleCut, add_cuts, build_gpkc_dnn,
                           build_gpkc_sdp, build_keq_dnn, build_keq_sdp)


def diag_problem(c_diag, box_lo=None, tag=None):
    n = len(c_diag)
    A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
    kwargs = {} if tag is None else {"tag": tag}
    return SdpProblem(n=n, C=np.diag(np.asarray(c_diag, float)), A=A,
                      b=np.ones(n), box_lo=box_lo, **kwargs)


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

    def test_no_provable_value_raises(self):
        for tag in (ProblemTag("custom", "sdp"), ProblemTag("gpkc", "dnn")):
            with pytest.raises(ValueError):
                xbar_for(diag_problem([1.0, 1.0], tag=tag))


class TestEigBound:
    def test_psd_slack_gives_dual_objective(self):
        p = diag_problem([1.0, 2.0, 3.0])
        st = state_with(p, y=[1.0, 2.0, 3.0])  # C - Diag(y) = 0 is PSD
        cert = eig_lower_bound(p, st, xbar=4.0)
        # only the rounding margins are charged
        assert -1e-12 < cert.perturbation <= 0.0
        assert cert.value == pytest.approx(6.0)

    def test_single_negative_eigenvalue_formula(self):
        delta = 0.3
        y = np.array([1.0, 2.0, 3.0])
        Z_target = np.diag([0.5, 0.2, -delta])
        n = 3
        A = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n) * (n + 1))), shape=(n, n * n))
        p = SdpProblem(n=n, C=np.diag(y) + Z_target, A=A, b=np.ones(n))
        cert = eig_lower_bound(p, state_with(p, y=y), xbar=4.0)
        assert cert.perturbation == pytest.approx(-4.0 * delta)
        assert cert.value == pytest.approx(float(y.sum()) - 4.0 * delta)

    def test_eigenvalue_below_rounding_margin_is_charged(self):
        # Zc = C = Diag(1e6, 1e-10): the second eigenvalue is positive but below
        # the margin 2 * eps * ||Zc||_F + 2 * gamma_4 * ||Zc||_F (about 1.3e-9;
        # the second term bounds the rounding in forming Zc, whose entries sum
        # one row term and C), so it is charged
        p = diag_problem([1e6, 1e-10])
        st = state_with(p, y=[0.0, 0.0])
        cert = eig_lower_bound(p, st, xbar=3.0)
        u = np.finfo(float).eps / 2
        margin = (2 * np.finfo(float).eps + 2 * 4 * u / (1 - 4 * u)) * np.hypot(1e6, 1e-10)
        assert 0.0 < 1e-10 < margin
        assert cert.perturbation == pytest.approx(3.0 * (1e-10 - margin), rel=1e-9)
        assert cert.value < 0.0  # the unmargined bound is exactly 0

    def test_margin_only_lowers_the_bound(self):
        g = gen_rand_graph(12, 0.5, 7)
        p = build_keq_dnn(g, 3)
        res = solve(p, AdmmParams(eps_tol=1e-4))
        xbar = xbar_for(p)
        cert = eig_lower_bound(p, res.state, xbar)
        Zc = p.C - p.adjoint(res.state.y) - clamp_unbounded(res.state.S, p.box_lo, p.box_hi)[0]
        evals = np.linalg.eigvalsh(0.5 * (Zc + Zc.T))
        d0 = cert.value - cert.perturbation
        unmargined = d0 + xbar * evals[evals < 0].sum()
        margin = p.n * np.finfo(float).eps * np.linalg.norm(Zc)
        assert cert.value <= unmargined
        assert unmargined - cert.value <= xbar * p.n * margin * (1 + 1e-9)

    def test_rejects_nonpositive_xbar(self):
        p = diag_problem([1.0, 1.0])
        with pytest.raises(ValueError):
            eig_lower_bound(p, state_with(p, y=[0.0, 0.0]), xbar=0.0)

    def test_negative_box_dual_entries_clamped(self):
        p = diag_problem([1.0, 1.0], box_lo=np.zeros((2, 2)))
        S = np.array([[0.4, -0.2], [-0.2, 0.1]])  # negatives pair the +inf side
        cert = eig_lower_bound(p, state_with(p, y=[0.0, 0.0], S=S), xbar=1.0)
        assert np.isfinite(cert.value)
        assert cert.clamp > 0

    def test_safe_below_brute_force_at_loose_tolerance(self):
        for seed in (0, 1, 2):
            g = gen_rand_graph(8, 0.8, seed)
            opt = oracle.brute_force_keq(g, 2).opt
            p = build_keq_dnn(g, 2)
            for tol in (1e-3, 1e-4, 1e-5):
                res = solve(p, AdmmParams(eps_tol=tol))
                cert = eig_lower_bound(p, res.state, xbar_for(p))
                assert cert.value <= opt + 1e-9

    def test_monotone_in_xbar(self):
        g = gen_rand_graph(8, 0.5, 3)
        p = build_keq_dnn(g, 2)
        res = solve(p, AdmmParams(eps_tol=1e-2))  # sloppy on purpose
        b1 = eig_lower_bound(p, res.state, xbar=4.0).value
        b2 = eig_lower_bound(p, res.state, xbar=8.0).value
        assert b2 <= b1 + 1e-12


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

    def test_infinite_trace_leaves_the_bound_unchanged(self):
        g = gen_rand_graph(10, 0.5, 2)
        p = build_keq_dnn(g, 2)
        res = solve(p, AdmmParams(eps_tol=1e-2))
        default = eig_lower_bound(p, res.state, xbar_for(p))
        assert default == eig_lower_bound(p, res.state, xbar_for(p), trace=math.inf)
        assert default == eig_lower_bound(p, res.state, xbar_for(p), trace=p.n * xbar_for(p))

    def test_trace_aware_charge_is_never_lower(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            M = rng.normal(size=(n, n))
            p = SdpProblem(n=n, C=M + M.T, A=diag_problem(np.zeros(n)).A, b=np.ones(n))
            st = state_with(p, y=rng.normal(size=n))
            xbar = float(rng.uniform(0.5, n))
            old = eig_lower_bound(p, st, xbar)
            new = eig_lower_bound(p, st, xbar, trace=n)
            assert new.value >= old.value, trial
            assert new.perturbation <= 0.0

    def test_feasible_spectrum_attains_the_charge(self):
        # Zc = Diag(-3, -2, -1, 0.5, 2), xbar = 2, trace n = 5: xbar on the two
        # most negative eigenvalues, the remainder 1 on the third, so the charge
        # is -11, and X = Diag(2, 2, 1, 0, 0) (PSD, trace 5, top eigenvalue 2)
        # has <Zc, X> = -11
        z = np.array([-3.0, -2.0, -1.0, 0.5, 2.0])
        p = diag_problem(z)
        cert = eig_lower_bound(p, state_with(p, y=np.zeros(5)), xbar=2.0, trace=5.0)
        X = np.diag([2.0, 2.0, 1.0, 0.0, 0.0])
        assert np.trace(X) == 5.0 and np.linalg.eigvalsh(X)[-1] <= 2.0
        attained = float((p.C * X).sum())
        assert attained == -11.0
        assert cert.perturbation <= attained
        assert cert.perturbation == pytest.approx(attained, abs=1e-12)
        assert eig_lower_bound(p, state_with(p, y=np.zeros(5)), xbar=2.0).perturbation \
            == pytest.approx(-12.0, abs=1e-12)

    def test_certify_bound_passes_trace_n_for_every_family(self, monkeypatch):
        # the solver certifies its check sweeps, and certify_bound reports its best
        seen = []
        real = admm.eig_lower_bound

        def spy(p, approx, xbar, trace=math.inf):
            seen.append((p.tag.problem, p.tag.relaxation, trace, p.n))
            return real(p, approx, xbar, trace)

        monkeypatch.setattr(admm, "eig_lower_bound", spy)
        g = gen_rand_graph(9, 0.5, 4)
        gk, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        problems = [build_keq_sdp(g, 3), build_keq_dnn(g, 3),
                    build_gpkc_sdp(gk, spec), build_gpkc_dnn(gk, spec)]
        for p in problems:
            res = solve(p, AdmmParams(eps_tol=1e-5))
            cert = certify_bound(p, res)
            assert cert.method == "eig"
            assert cert.raw == real(p, res.state, xbar_for(p), trace=p.n).value
        assert list(dict.fromkeys((prob, relax) for prob, relax, _, _ in seen)) == [
            ("keq", "sdp"), ("keq", "dnn"), ("gpkc", "sdp"), ("gpkc", "dnn")]
        assert all(trace == n for _, _, trace, n in seen)


class TestRoundingMargins:
    """Hand-built cases whose Zc or dual value rounds upward in floating point."""

    BIG = 1e16 + 2.0      # the float spacing here is 2, and BIG + 1 rounds up

    @staticmethod
    def exact_value(p, st, xbar, trace):
        # Zc is diagonal, so its eigenvalues are exact rationals of the inputs
        z = sorted(Fraction(p.C[i, i]) - Fraction(st.y[i]) - Fraction(st.S[i, i])
                   for i in range(p.n))
        charge, left = Fraction(0), Fraction(trace)
        for lam in z:
            mu = min(Fraction(xbar), left)
            if lam >= 0 or mu <= 0:
                break
            charge += mu * lam
            left -= mu
        d0 = sum(Fraction(bi) * Fraction(yi) for bi, yi in zip(p.b, st.y))
        return d0 + charge

    def naive_value(self, p, st, xbar, trace):
        Zc = p.C - p.adjoint(st.y) - st.S
        return float(p.b @ st.y) + _spectral_charge(np.linalg.eigvalsh(Zc), xbar, trace)

    def test_forming_zc(self):
        # Zc_11 = BIG + 1 - (BIG + 2) is -1, but fl(BIG + 1) = BIG + 2 makes it 0;
        # the dual value b'y = -1 is exact
        p = diag_problem([self.BIG, 1.0], box_lo=np.zeros((2, 2)))
        st = state_with(p, y=[-1.0, 0.0], S=np.diag([self.BIG + 2.0, 0.0]))
        exact = self.exact_value(p, st, 2.0, 2.0)
        assert self.naive_value(p, st, 2.0, 2.0) > exact
        assert Fraction(eig_lower_bound(p, st, xbar=2.0, trace=2.0).value) <= exact

    def test_summing_the_charge(self):
        # Zc = Diag(-1, -1e-16, -1e-16, -1e-16) is formed exactly; each -1e-16 is
        # lost against -1 in the running sum, so the naive charge is -1 where the
        # exact one is -1 - 3e-16
        p = diag_problem([-1.0, -1e-16, -1e-16, -1e-16])
        st = state_with(p, y=np.zeros(4))
        exact = self.exact_value(p, st, 1.0, 4.0)
        assert self.naive_value(p, st, 1.0, 4.0) > exact
        assert Fraction(eig_lower_bound(p, st, xbar=1.0, trace=4.0).value) <= exact

    def test_forming_the_dual_value(self):
        # b'y = -BIG + 1 rounds up to -BIG + 2; Zc = Diag(4, 4) is formed exactly
        A = diag_problem([0.0, 0.0]).A
        p = SdpProblem(n=2, C=np.diag([3.0, 5.0]), A=A, b=np.array([self.BIG, 1.0]))
        st = state_with(p, y=[-1.0, 1.0])
        trace = self.BIG + 1.0
        exact = self.exact_value(p, st, trace, trace)
        assert self.naive_value(p, st, trace, trace) > exact
        assert Fraction(eig_lower_bound(p, st, xbar=trace, trace=trace).value) <= exact

    def test_the_final_sum(self):
        # the value is d0 - d0_err + perturbation, summed in floating point; it must
        # not exceed the exact sum of those three floats, which the plain float sum
        # does on some of these random cases
        p = diag_problem([0.0, 0.0, 0.0])
        rng = np.random.default_rng(15)
        above = 0
        for _ in range(200):
            st = state_with(p, y=rng.normal(size=3))
            cert = eig_lower_bound(p, st, xbar=1.0, trace=3.0)
            d0, _ = dual_objective(p, st.y, st.v, st.S)
            _, d0_err = eigbound._rounding_margins(p, st.y, st.v, st.S)
            exact = Fraction(d0) - Fraction(d0_err) + Fraction(cert.perturbation)
            assert Fraction(cert.value) <= exact
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
        assert cert.raw == pytest.approx(9.0053, abs=1e-3)
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

    def test_result_without_certificate_is_certified_on_its_state(self):
        g = gen_rand_graph(9, 0.5, 4)
        p = build_keq_dnn(g, 3)
        res = solve(p)
        cert = certify_bound(p, replace(res, certificate=None))
        assert cert == certify_bound(p, res)

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


class TestIntegralRoundUp:
    """With integral edge weights every cut is an integer, so the eigenvalue route
    reports its bound rounded up and keeps the unrounded one in ``raw``."""

    @staticmethod
    def halved(g):
        return GraphInstance(n=g.n, W_adj=0.5 * g.W_adj, name=g.name)

    def test_builders_flag_integral_weights(self):
        g = gen_rand_graph(9, 0.5, 4)
        gk, spec = gen_gpkc_instance(8, 0.5, 2, 2)
        problems = [build_keq_sdp(g, 3), build_keq_dnn(g, 3),
                    build_gpkc_sdp(gk, spec), build_gpkc_dnn(gk, spec)]
        assert all(p.tag.integral for p in problems)
        assert add_cuts(problems[1], [TriangleCut(0, 1, 2)]).tag.integral
        assert (self.halved(g).W_adj % 1 == 0.5).any()
        assert not build_keq_dnn(self.halved(g), 3).tag.integral
        assert not build_gpkc_dnn(self.halved(gk), spec).tag.integral

    @pytest.mark.parametrize("halve", [False, True])
    def test_eig_route_rounds_up_only_integral_cuts(self, halve):
        g = gen_rand_graph(9, 0.5, 4)
        p = build_keq_dnn(self.halved(g) if halve else g, 3)
        res = solve(p)
        cert = certify_bound(p, res)
        assert cert.raw == eig_lower_bound(p, res.state, xbar_for(p), trace=p.n).value
        assert cert.value == (cert.raw if halve else math.ceil(cert.raw))
        assert cert.value != cert.raw or halve

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
                eig = eig_lower_bound(p, res.state, xbar_for(p))
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
                    eig = eig_lower_bound(p, res.state, xbar_for(p))
                    assert eig.value <= opt + 1e-9, (seed, tol)


def test_simplex_not_reexported():
    # the LP route is the simplex's one caller; the package does not export it
    for name in ("solve_dense_lp", "LpResult"):
        assert name not in gpbound.__all__ and not hasattr(gpbound, name)
        assert name not in certify.__all__


def test_import_leaves_scipy_optimize_out():
    # importing scipy.optimize alone adds about 17 MB RSS, which the benchmark's
    # peak-RSS bound would see; the bundled simplex keeps the LP route off it
    src = Path(gpbound.__file__).resolve().parents[1]
    code = "import sys, gpbound; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
