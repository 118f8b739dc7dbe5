"""Constants estimation, budgets, and the slowly-driven-semigroup machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from slowfast.certify import (HYPOTHESIS_MARGIN, LIPSCHITZ_SAMPLES, ConstantsCertificate,
                              _op_norm, assemble_certificate,
                              band_limited_drivers,
                              delta_budget, estimate_lipschitz,
                              estimate_process_bound, frozen_coefficient_window,
                              frozen_drivers, rho_budget, slow_drift_budget,
                              spectral_gap_check, straightened_constants)
from slowfast.core import FastSlowSystem, GridDomain, GridFunction
from slowfast.errors import (InfeasibleBudgetError, NoDecayError,
                             PreconditionError)
from slowfast.integrate import IntegratorConfig, flow
from slowfast.systems import build_l1, build_nf1, build_q1, build_vdp_cut

CFG = IntegratorConfig(dt=0.01)


def matrix_system(A_of_nu, m, lo=-1.0, hi=1.0):
    """Linear fast field x' = A(nu) x driven by a frozen scalar parameter."""
    def F(x, y):
        A = A_of_nu(y[..., 0])
        return np.einsum("...ij,...j->...i", A, x)

    return FastSlowSystem(m=m, n=1, F=F, g=lambda x, y: np.zeros_like(y),
                          A0=lambda y: A_of_nu(y[..., 0]),
                          domain=GridDomain([lo], [hi], [3]))


def jordan(nu):
    return matrix_system(lambda s: np.broadcast_to(
        np.array([[-1.0, nu], [0.0, -1.0]]), np.shape(s) + (2, 2)).copy(), 2)


def rotation(nu):
    return matrix_system(lambda s: np.broadcast_to(
        np.array([[-1.0, -1.0], [nu ** 2, -1.0]]), np.shape(s) + (2, 2)).copy(), 2)


def brute_force_K(A, mu, t_max=12.0, n=800):
    """Oracle: dense sampling of ||e^{At}|| e^{mu t} via the matrix exponential."""
    ts = np.linspace(0, t_max, n)[1:]
    return max(1.0, max(np.linalg.norm(expm(A * t), 2) * np.exp(mu * t) for t in ts))


class TestProcessBound:
    def test_exact_semigroup_within_2pct(self, l1):
        sys, _ = l1
        drivers = band_limited_drivers(sys.domain, 0.1, 4, seed=0)
        K, mu = estimate_process_bound(sys, drivers, 10.0, CFG)
        assert K == pytest.approx(1.0, rel=0.02)
        assert mu == pytest.approx(1.0, rel=0.02)

    def test_jordan_transient_growth(self):
        Ks, mus = {}, {}
        for nu in (1.0, 5.0):
            K, mu = estimate_process_bound(jordan(nu), frozen_drivers([[0.0]]), 12.0, CFG)
            assert mu > 0
            Ks[nu], mus[nu] = K, mu
        assert Ks[5.0] > Ks[1.0]
        # sampled K never exceeds the dense-expm envelope at the same rate
        oracle = brute_force_K(np.array([[-1.0, 5.0], [0.0, -1.0]]), mus[5.0])
        assert Ks[5.0] <= oracle * 1.01

    def test_rotation_transient_amplification(self):
        nu = 7.0
        p = flow(rotation(nu), [1.0, 0.0], [0.0], (0.0, np.pi / 2),
                 IntegratorConfig(dt=0.0005))
        assert np.linalg.norm(p.fast[-1]) == pytest.approx(
            nu * np.exp(-np.pi / 2), rel=1e-6)
        K, _ = estimate_process_bound(rotation(nu), frozen_drivers([[0.0]]), 12.0, CFG)
        K1, _ = estimate_process_bound(rotation(1.5), frozen_drivers([[0.0]]), 12.0, CFG)
        assert K > K1 > 1.0

    def test_growth_raises_no_decay(self):
        growing = matrix_system(lambda s: np.broadcast_to(
            0.2 * np.eye(1), np.shape(s) + (1, 1)).copy(), 1)
        with pytest.raises(NoDecayError):
            estimate_process_bound(growing, frozen_drivers([[0.0]]), 8.0, CFG)

    def test_empty_sample_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            estimate_process_bound(build_l1(), [], 5.0, CFG)

    @pytest.mark.parametrize("kind", ["sup", "euclidean"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stacked_op_norm_equals_per_matrix_bytes(self, kind, m):
        rng = np.random.default_rng(m)
        rng.uniform(0.1, 1.0, m)      # advances rng as the dropped weights did: U is unchanged
        sys = FastSlowSystem(m=m, n=1, F=lambda x, y: -x, g=lambda x, y: np.zeros_like(y),
                             A0=lambda y: -np.eye(m), domain=GridDomain([0.0], [1.0], [3]),
                             norm_kind=kind)

        def per_matrix(M):
            # the one-matrix-at-a-time norms the stacked call replaces
            if kind == "sup":
                return float(np.max(np.sum(np.abs(M), axis=1)))
            return float(np.linalg.norm(M, 2))

        U = rng.normal(size=(12, m, m))
        want = np.asarray([per_matrix(M) for M in U])
        assert _op_norm(sys, U).tobytes() == want.tobytes()


class TestLipschitz:
    def test_l1_constants(self):
        sys = build_l1(eps=0.1, domain=(-1.0, 1.0))
        vals = estimate_lipschitz(sys, n_samples=4000, x_radius=2.0, seed=1)
        assert vals["M0"] == pytest.approx(1.0, abs=0.01)
        assert vals["M1x"] <= 1e-9
        assert vals["M1y"] == pytest.approx(1.0, rel=1e-6)
        assert vals["N1"] <= 1e-9
        assert vals["N0"] == pytest.approx(0.1, rel=1e-9)

    def test_q1_constants(self):
        sys = build_q1(eps=0.1)
        vals = estimate_lipschitz(sys, n_samples=4000, x_radius=2.0, seed=1)
        assert vals["M0"] == pytest.approx(1.0, abs=0.01)
        assert vals["M1y"] == pytest.approx(2.0, abs=0.01)

    def test_g_zero_gives_zero_n(self):
        sys = build_q1(eps=0.0)
        vals = estimate_lipschitz(sys, n_samples=1000, seed=0)
        assert vals["N0"] == 0.0 and vals["N1"] == 0.0

    def test_budget_floor(self):
        with pytest.raises(PreconditionError):
            estimate_lipschitz(build_l1(), n_samples=100)

    def test_override_marks_supplied(self):
        """A Lipschitz override replaces its sampled value and is marked
        supplied; the other four constants stay sampled, with the values that
        estimate_lipschitz returns."""
        sys = build_l1()
        cert = assemble_certificate(sys, IntegratorConfig(dt=0.05), overrides={"N1": 0.5})
        sampled = estimate_lipschitz(sys, n_samples=LIPSCHITZ_SAMPLES)
        assert cert.N1 == 0.5 and cert.provenance["N1"] == "supplied"
        for key in ("M0", "M1x", "M1y", "N0"):
            assert cert.provenance[key] == "sampled"
            assert getattr(cert, key) == sampled[key]

    @pytest.mark.parametrize("overrides, match", [
        ({"K": 2.0}, "together"), ({"mu": 0.5}, "together"),
        ({"N1": 0.1, "Q": 1.0}, "unknown")], ids=["lone-K", "lone-mu", "unknown-key"])
    def test_assemble_rejects_bad_overrides(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            assemble_certificate(build_l1(), IntegratorConfig(dt=0.05), overrides=overrides)

    def test_assemble_uses_the_k_mu_pair(self):
        cert = assemble_certificate(build_l1(), IntegratorConfig(dt=0.05),
                                    overrides={"K": 1.5, "mu": 0.75})
        assert (cert.K, cert.mu) == (1.5, 0.75)
        assert cert.provenance["K"] == cert.provenance["mu"] == "supplied"

    def test_base_point_evaluated_once_per_chunk(self, monkeypatch):
        """F at the base points once per chunk, shared by the remainder and the
        y-quotients: R0 only for its x-offset and random-pair quotients (2 calls
        per chunk of 1000 samples), and F 5 times per chunk (the base point,
        R0's two, the y-offset and the random-pair quotient)."""
        calls, f_calls = [], []
        R0, eval_F = FastSlowSystem.R0, FastSlowSystem.eval_F
        monkeypatch.setattr(FastSlowSystem, "R0",
                            lambda self, x, y: calls.append(len(x)) or R0(self, x, y))
        monkeypatch.setattr(FastSlowSystem, "eval_F",
                            lambda self, x, y: f_calls.append(len(x)) or eval_F(self, x, y))
        estimate_lipschitz(build_q1(eps=0.1), n_samples=2000, seed=0)
        assert calls == [1000] * 4
        assert f_calls == [1000] * 10

    def test_delta_override_marks_supplied(self):
        cert = assemble_certificate(build_l1(), IntegratorConfig(dt=0.05),
                                    overrides={"delta": 0.3})
        assert cert.delta == 0.3 and cert.provenance["delta"] == "supplied"

    def test_monotone_in_budget(self):
        sys = build_q1(eps=0.1)
        v1 = estimate_lipschitz(sys, n_samples=1000, seed=2)
        v2 = estimate_lipschitz(sys, n_samples=8000, seed=2)
        for key in ("M0", "M1y", "N0"):
            assert v2[key] >= v1[key] - 1e-12


class TestDeltaBudget:
    def test_closed_form_example(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.1, M1y=0.2, N0=0, N1=0)
        delta, cap = delta_budget(cert)
        assert delta == pytest.approx(0.444444, abs=1e-6)
        assert cap == pytest.approx(0.311538, abs=1e-6)

    def test_second_closed_form(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.0, M1y=1.0, N0=0, N1=0)
        delta, cap = delta_budget(cert)
        assert delta == pytest.approx(2.0)
        assert cap == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_degenerate_m1y(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.2, M1y=0.0, N0=0, N1=0)
        delta, cap = delta_budget(cert)
        assert 0 < delta < 1e-10
        assert cap == pytest.approx((1 - 0.2) / 2.0, rel=1e-6)

    def test_infeasible(self):
        cert = ConstantsCertificate(K=2, mu=1, M0=1, M1x=0.6, M1y=1, N0=0, N1=0)
        with pytest.raises(InfeasibleBudgetError):
            delta_budget(cert)

    def test_existence_holds_below_cap_thousand_certs(self):
        # direct substitution over 10^3 random certificates
        rng = np.random.default_rng(123)
        for _ in range(1000):
            K = rng.uniform(1.0, 5.0)
            mu = rng.uniform(0.2, 3.0)
            M1x = rng.uniform(0.0, 0.5) * mu / K
            M1y = rng.uniform(0.0, 2.0)
            cert = ConstantsCertificate(K=K, mu=mu, M0=1.0, M1x=M1x, M1y=M1y,
                                        N0=0.0, N1=0.0)
            delta, cap = delta_budget(cert)
            N1 = rng.uniform(0.01, 0.99) * cap
            gap = mu - K * M1x - N1 * (delta + 1.0)
            assert gap > 0
            assert K * M1y / gap < delta + 1e-9 or M1y == 0.0


class TestRhoBudget:
    def test_n1_zero_closed_form(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.0, M1y=0.5,
                                    N0=0, N1=0.0, delta=0.25)
        rho = rho_budget(cert)
        assert rho == pytest.approx(0.5, rel=1e-6)

    def test_returned_rho_exceeds_delta(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.0, M1y=0.2,
                                    N0=0, N1=0.0, delta=0.8)
        assert rho_budget(cert) > 0.8

    def test_bisection_satisfies_inequality(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.1, M1y=0.2,
                                    N0=0, N1=0.05, delta=0.444444)
        rho = rho_budget(cert)
        lhs = cert.K * cert.M1y / (cert.mu - cert.K * cert.M1x - cert.N1 * (rho + 1))
        assert lhs < rho

    def test_infeasible(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=1, M1x=0.5, M1y=5.0,
                                    N0=0, N1=0.2, delta=0.1)
        with pytest.raises(InfeasibleBudgetError):
            rho_budget(cert)


class TestFrozenWindow:
    def test_k_one_needs_no_window(self):
        assert frozen_coefficient_window(1.0, 1.0, 0.5) == 0.0

    def test_closed_form(self):
        assert frozen_coefficient_window(2.0, 1.0, 0.5) == pytest.approx(
            1.386294, abs=1e-6)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            frozen_coefficient_window(2.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            frozen_coefficient_window(0.5, 1.0, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 10.0), st.floats(0.3, 3.0), st.floats(0.01, 0.99))
    def test_equality_at_returned_window(self, K, mu, frac):
        eps = frac * mu
        l = frozen_coefficient_window(K, mu, eps)
        # K e^{-mu l} = e^{-(mu-eps) l} exactly at the smallest window
        assert K * np.exp(-mu * l) == pytest.approx(np.exp(-(mu - eps) * l),
                                                    rel=1e-12)


class TestSlowDriftBudget:
    def test_k_one_convention(self):
        M0c, N0c, l = slow_drift_budget(1.0, 1.0, 0.5, 1.0)
        assert l == 1.0
        assert 1.0 * (1.0 * N0c * l + 2 * M0c) <= 0.5 * (1 + 1e-12)

    def test_closed_form_split(self):
        M0c, N0c, l = slow_drift_budget(2.0, 1.0, 0.5, 1.0)
        assert l == pytest.approx(1.386294, abs=1e-6)
        assert N0c == pytest.approx(0.090168, abs=1e-6)
        assert M0c == pytest.approx(0.0625, abs=1e-9)

    def test_substitution(self):
        for K in (1.5, 3.0):
            M0c, N0c, l = slow_drift_budget(K, 2.0, 0.7, 0.4)
            assert K * (0.4 * N0c * l + 2 * M0c) <= (2.0 - 0.7) * (1 + 1e-12)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            slow_drift_budget(2.0, 1.0, 1.5, 1.0)


class TestSpectralGap:
    def test_l1_margin(self):
        sys = build_l1()
        res = spectral_gap_check(sys, lambda y: np.zeros(np.asarray(y).shape[:-1] + (1,)), 0.9)
        assert res.max_real == pytest.approx(-1.0, abs=1e-12)
        assert res.margin == pytest.approx(0.1, abs=1e-12)
        assert res.ok

    def test_q1_gap_one(self):
        sys = build_q1()
        res = spectral_gap_check(sys, lambda y: (np.asarray(y) ** 2), 0.0)
        assert res.max_real == pytest.approx(-1.0, abs=1e-12)

    def test_nf1_gershgorin_then_dense(self, nf1_solved):
        sys, cert, h, _ = nf1_solved
        # Gershgorin oracle: all discs centred at -1 with radius < 0.5
        nodes = sys.domain.node_coords()
        worst = -np.inf
        for y in nodes[:: max(1, len(nodes) // 8)]:
            J = sys.DxF(np.asarray(h(y)), y)
            radii = np.sum(np.abs(J), axis=1) - np.abs(np.diag(J))
            worst = max(worst, float(np.max(np.diag(J) + radii)))
        assert worst < -0.5
        res = spectral_gap_check(sys, h, 0.5)
        assert res.ok
        assert res.max_real < -0.5


    @pytest.mark.parametrize("build", [lambda: build_nf1(m=16), build_vdp_cut],
                             ids=["NF1", "VDP-cut"])
    def test_one_batch_equals_per_node_loop(self, build):
        sys = build()
        rng = np.random.default_rng(0)
        h0 = GridFunction(sys.domain, 0.05 * rng.normal(size=sys.domain.shape + (sys.m,)))
        worst = -np.inf
        for y in sys.domain.node_coords():
            lam = np.linalg.eigvals(sys.DxF(np.asarray(h0(y), dtype=float), y))
            worst = max(worst, float(np.max(lam.real)))
        assert repr(spectral_gap_check(sys, h0, 0.5).max_real) == repr(worst)


class TestCertificatePredicates:
    def test_hypothesis_table_states(self):
        cert = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=0.0, M1y=1.0,
                                    N0=0.1, N1=0.0, delta=2.0, rho=2.0)
        table = dict(cert.hypothesis_table())
        assert all(v == "pass" for v in table.values())
        broken = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=0.0, M1y=1.0,
                                      N0=0.1, N1=10.0, delta=2.0, rho=2.0)
        table = dict(broken.hypothesis_table())
        assert table["existence (delta budget)"] == "fail"
        partial = ConstantsCertificate(K=1.0, mu=1.0)
        assert "unknown" in dict(partial.hypothesis_table()).values()
        assert cert.hypotheses_hold() and partial.hypotheses_hold()
        assert not broken.hypotheses_hold()

    @pytest.mark.parametrize("fields, hold", [
        ({}, True), (dict(N1=10.0), False), (dict(delta=float("nan")), True)],
        ids=["all-pass", "failing", "unknown-row"])
    def test_verdict_is_the_check_status_and_the_exit_code(self, fields, hold, monkeypatch):
        """The `hypotheses` check and `certify`'s exit code both read
        hypotheses_hold(): pass / exit 0 when it holds, fail / exit 2 when not."""
        from slowfast import cli, harness
        kw = dict(K=1.0, mu=1.0, M0=0.5, M1x=0.0, M1y=1.0, N0=0.1, N1=0.0, delta=2.0, rho=2.0)
        cert = ConstantsCertificate(**{**kw, **fields})
        assert cert.hypotheses_hold() is hold
        assert ("unknown" in dict(cert.hypothesis_table()).values()) == ("delta" in fields)
        check = harness._chk_hypotheses(None, {"cert": cert})
        assert check["status"] == ("pass" if hold else "fail")

        def stage(spec, state):
            state["cert"] = cert
        monkeypatch.setattr(harness, "_stage_certify", stage)
        assert cli.main(["certify", "--system", "L1"]) == (0 if hold else 2)

    def test_json_roundtrip(self):
        import json
        cert = ConstantsCertificate(K=1.2, mu=0.9, M0=0.5, M1x=0.01, M1y=1.0,
                                    N0=0.1, N1=0.02, delta=2.0, rho=2.5,
                                    provenance={"K": "sampled"})
        data = json.loads(cert.to_json())
        back = ConstantsCertificate.from_dict(data)
        assert back.K == cert.K and back.rho == cert.rho
        assert back.provenance["K"] == "sampled"

    def test_margin_is_a_module_constant(self):
        import json
        cert = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=0.0, M1y=1.0,
                                    N0=0.1, N1=0.0, delta=2.0, rho=2.0)
        assert json.loads(cert.to_json())["margin"] == HYPOTHESIS_MARGIN == 0.01
        assert cert._lt(1.0, 1.0 + 1.5 * HYPOTHESIS_MARGIN)
        assert not cert._lt(1.0, 1.0 + 0.5 * HYPOTHESIS_MARGIN)
        with pytest.raises(TypeError):
            ConstantsCertificate(margin=0.02)

    def test_straightened_constants(self):
        cert = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=0.2, M1y=1.0,
                                    N0=0.1, N1=0.05, delta=2.0, rho=2.0)
        sc = straightened_constants(cert, dh_sup=0.5)
        assert sc.mu == pytest.approx(0.8)
        assert sc.M1x == 0.0
        assert sc.N1 == pytest.approx(0.075)
