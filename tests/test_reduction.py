"""Straightening, the defect fixed point, semiconjugacy, rates, derivatives,
matched-asymptotics decomposition."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from conftest import build_coupled, sampled
from slowfast import reduction
from slowfast.certify import ConstantsCertificate, straightened_constants
from slowfast.core import FastSlowSystem, GridDomain, GridFunction
from slowfast.errors import CapabilityError, ContractionError
from slowfast.integrate import IntegratorConfig, flow, rk4_path
from slowfast.reduction import (attraction_rate_fit, decompose_orbit, dp_point,
                                e_norm_sweep, q_along_orbit,
                                semiconjugacy_residual, straighten)
from slowfast.systems import build_q1, l1_h, l2_P, q1_dh, q1_h

CFG = IntegratorConfig(dt=0.01)
CFG2 = IntegratorConfig(dt=0.02)
CFG5 = IntegratorConfig(dt=0.005)


def _zero_h(y):
    """The manifold h = 0 of L2, as the `l2_straight` fixture straightens it."""
    return np.zeros(np.asarray(y).shape[:-1] + (1,))


def tc2_system(eps=0.1):
    """Analytic manifold h = 1 with a slow field that feels both variables:
    exercises the reversible slow process genuinely."""
    dom = GridDomain([-1.0], [1.0], [21])

    def F(x, y):
        return -x + 1.0

    def g(x, y):
        return eps * (1.0 + 0.3 * np.sin(y) + 0.4 * np.sin(y) * np.tanh(x - 1.0))

    def A0(y):
        return np.broadcast_to(-np.eye(1), y.shape[:-1] + (1, 1)).copy()

    def DF(x, y):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = -1.0
        return out

    def Dg(x, y):
        t = np.tanh(x[..., 0] - 1.0)
        out = np.empty(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = eps * 0.4 * np.sin(y[..., 0]) * (1.0 - t * t)
        out[..., 0, 1] = eps * (0.3 + 0.4 * t) * np.cos(y[..., 0])
        return out

    return FastSlowSystem(m=1, n=1, F=F, g=g, A0=A0, domain=dom, DF=DF, Dg=Dg)


def tc2_straight(eps=0.1):
    sys = tc2_system(eps)
    one = lambda y: np.ones(np.asarray(y).shape[:-1] + (1,))
    zdh = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1, 1))
    zd2h = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1, 1, 1))
    ssys = straighten(sys, one, zdh, d2h=zd2h)
    cert = ConstantsCertificate(K=1.0, mu=1.0, M0=1.0, M1x=0.0, M1y=0.0,
                                N0=2 * eps, N1=1.1 * eps, delta=1e-12, rho=0.1)
    return ssys, straightened_constants(cert, 0.0)


def _reference_dp_point(sys_t, result, cert, cfg_int, tol):
    """dp_point as written with hand-computed state offsets and its own D g
    evaluation (before named blocks and the shared Jacobian); dp_point must
    match it byte for byte."""
    m, n = sys_t.m, sys_t.n
    d = m + n
    xi, eta = result.xi, result.eta
    rate = cert.contraction_rate() - 2.0 * cert.N1
    amp = max(cert.K * max(float(sys_t.norm_x(xi)), 1.0) * (cert.N1 + 1.0), 10 * tol)
    T = math.log(amp / tol) / rate
    sU, sY, sG = d * d, n * n, n * d

    def unpack(u):
        o = 0
        xt = u[o:o + m]; o += m
        y = u[o:o + n]; o += n
        q = u[o:o + n]; o += n
        U = u[o:o + sU].reshape(d, d); o += sU
        Y = u[o:o + sY].reshape(n, n); o += sY
        return xt, y, q, U, Y, u[o:].reshape(n, d)

    zeros_m = np.zeros(m)

    def fld(t, u):
        xt, y, q, U, Y, G = unpack(u)
        p = y - q
        Fg = sys_t.eval_Fg(xt, y)
        g0p = sys_t.eval_g(zeros_m, p)
        Dg = sys_t.eval_Dg(xt, y)
        J = np.concatenate([sys_t.eval_DF(xt, y), Dg], axis=0)
        Az = sys_t.Dyg(zeros_m, p)
        integrand = Y @ (Az @ U[m:, :] - Dg @ U)
        return np.concatenate([Fg, Fg[m:] - g0p, (J @ U).ravel(), (-Y @ Az).ravel(),
                               integrand.ravel()])

    u0 = np.concatenate([xi, eta, result.Q, np.eye(d).ravel(), np.eye(n).ravel(),
                         np.zeros(sG)])
    _, path = rk4_path(fld, u0, 0.0, T, cfg_int.steps_for(T))
    Q1 = unpack(path[-1])[-1]
    return np.concatenate([np.zeros((n, m)), np.eye(n)], axis=1) - Q1, Q1


def _reference_jacobians(sys, h, dh, d2h):
    """The straightened DF and Dg as written before the shared transform, each
    evaluating h, Dh and the base Jacobians on its own; straighten must match
    them byte for byte."""
    m = sys.m

    def Dgt(xt, y):
        x = xt + np.asarray(h(y), dtype=float)
        Dg = sys.eval_Dg(x, y)
        dxg, dyg = Dg[..., :, :m], Dg[..., :, m:]
        dy = dyg + np.einsum("...ij,...jk->...ik", dxg, np.asarray(dh(y), dtype=float))
        return np.concatenate([dxg, dy], axis=-1)

    def DFt(xt, y):
        x = xt + np.asarray(h(y), dtype=float)
        Dh = np.asarray(dh(y), dtype=float)
        D2h = np.asarray(d2h(y), dtype=float)
        DF = sys.eval_DF(x, y)
        Dg = sys.eval_Dg(x, y)
        gv = sys.eval_g(x, y)
        dxF, dyF = DF[..., :, :m], DF[..., :, m:]
        dxg, dyg = Dg[..., :, :m], Dg[..., :, m:]
        dx = dxF - np.einsum("...ij,...jk->...ik", Dh, dxg)
        dy = (dyF + np.einsum("...ij,...jk->...ik", dxF, Dh)
              - np.einsum("...iab,...b->...ia", D2h, gv)
              - np.einsum("...ij,...jk->...ik", Dh,
                          dyg + np.einsum("...ij,...jk->...ik", dxg, Dh)))
        return np.concatenate([dx, dy], axis=-1)

    return DFt, Dgt


class TestStraighten:
    def test_manifold_maps_to_zero(self, coupled_straight):
        ssys, scert = coupled_straight
        nodes = ssys.domain.node_coords()
        vals = ssys.eval_F(np.zeros((nodes.shape[0], 1)), nodes)
        # straightened field vanishes on {xt = 0} up to solver tolerance
        assert np.max(np.abs(vals)) <= 1e-6

    def test_orbit_started_on_manifold_stays(self, coupled_straight):
        # grid-h straightening forces the orbit at the h-interpolation error
        # scale O(dy^2) between nodes; 41 points over [-1, 1] gives ~3e-4
        # forcing and ~1e-5 accumulated drift at worst
        ssys, _ = coupled_straight
        p = flow(ssys, [0.0], [0.1], (0.0, 10.0), CFG)
        assert np.max(np.abs(p.fast)) <= 1e-5

    def test_l1_straightened_field_is_linear(self, l1):
        sys, _ = l1
        h = lambda y: l1_h(y, 0.1)
        dh = lambda y: np.ones(np.asarray(y).shape[:-1] + (1, 1))
        ssys = straighten(sys, h, dh)
        xt = np.linspace(-0.4, 0.4, 9)[:, None]
        ys = np.linspace(-0.4, 0.4, 9)[:, None]
        # F~(xt, y) = -xt exactly
        assert np.allclose(ssys.eval_F(xt, ys), -xt, atol=1e-14)

    def test_two_evaluation_routes_agree(self, q1):
        sys, _ = q1
        h = lambda y: q1_h(y[..., 0], 0.1)[..., None]
        dh = lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]
        ssys = straighten(sys, h, dh)
        xt, y = np.array([0.1]), np.array([0.0])
        direct = ssys.eval_F(xt, y)
        composed = sys.eval_F(xt + h(y), y) - dh(y)[..., 0] * sys.eval_g(xt + h(y), y)
        assert np.allclose(direct, composed, atol=1e-12)

    @pytest.mark.parametrize("grid_h", [False, True], ids=["oracle_h", "grid_h"])
    @pytest.mark.parametrize("lead", [(), (7,)], ids=["point", "batch"])
    def test_fused_field_bytes(self, grid_h, lead):
        sys = build_q1(0.1)
        h = lambda y: q1_h(y[..., 0], 0.1)[..., None]
        dh = lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]
        if grid_h:
            h = sampled(sys.domain, h)
            dh = sampled(sys.domain, dh)
        st = straighten(sys, h, dh)
        rng = np.random.default_rng(5)
        xt = rng.uniform(-0.5, 0.5, lead + (sys.m,))
        y = rng.uniform(-1.0, 1.0, lead + (sys.n,))
        fused = st.eval_Fg(xt, y)
        split = np.concatenate([st.eval_F(xt, y), st.eval_g(xt, y)], axis=-1)
        assert fused.shape == split.shape == lead + (sys.m + sys.n,)
        assert fused.tobytes() == split.tobytes()

    @pytest.mark.parametrize("name", ["Q1", "coupled"])
    @pytest.mark.parametrize("lead", [(), (7,)], ids=["point", "batch"])
    def test_jacobians_match_reference_bytes(self, name, lead):
        if name == "Q1":
            sys = build_q1(0.1)
            h = lambda y: q1_h(y[..., 0], 0.1)[..., None]
            dh = lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]
            d2h = lambda y: np.full(y.shape[:-1] + (1, 1, 1), 2.0)
        else:                             # nonzero D_x g, so every chain-rule term counts
            sys = build_coupled()
            h = lambda y: 0.3 * np.sin(y)
            dh = lambda y: 0.3 * np.cos(y)[..., None]
            d2h = lambda y: -0.3 * np.sin(y)[..., None, None]
        st = straighten(sys, h, dh, d2h=d2h)
        DFt, Dgt = _reference_jacobians(sys, h, dh, d2h)
        rng = np.random.default_rng(11)
        xt = rng.uniform(-0.5, 0.5, lead + (sys.m,))
        y = rng.uniform(-0.9, 0.9, lead + (sys.n,))
        d = sys.m + sys.n
        for got, want, rows in ((st.eval_DF(xt, y), DFt(xt, y), sys.m),
                                (st.eval_Dg(xt, y), Dgt(xt, y), sys.n)):
            assert got.shape == want.shape == lead + (rows, d)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["Q1", "coupled"])
    @pytest.mark.parametrize("lead", [(), (7,)], ids=["point", "batch"])
    def test_grid_jet_one_read_bytes(self, name, lead, monkeypatch):
        """Grid-function h and Dh on one grid are read by one interpolation per
        evaluation (gt reads h alone, DF adds D2h), and every field equals the
        straightening by the same values called one function at a time."""
        if name == "Q1":
            sys = build_q1(0.1)
            h = lambda y: q1_h(y[..., 0], 0.1)[..., None]
            dh = lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]
            d2h = lambda y: np.full(y.shape[:-1] + (1, 1, 1), 2.0)
        else:                             # nonzero D_x g, so every chain-rule term counts
            sys = build_coupled()
            h = lambda y: 0.3 * np.sin(y)
            dh = lambda y: 0.3 * np.cos(y)[..., None]
            d2h = lambda y: -0.3 * np.sin(y)[..., None, None]
        h, dh, d2h = (sampled(sys.domain, f) for f in (h, dh, d2h))
        st = straighten(sys, h, dh, d2h=d2h)
        ref = straighten(sys, lambda y: h(y), lambda y: dh(y), d2h=lambda y: d2h(y))
        rng = np.random.default_rng(12)
        xt = rng.uniform(-0.5, 0.5, lead + (sys.m,))
        y = rng.uniform(-1.1, 1.1, lead + (sys.n,))       # some points outside the box
        calls = Counter()
        call = GridFunction.__call__

        def counted(f, y):
            calls["interp"] += 1
            return call(f, y)

        monkeypatch.setattr(GridFunction, "__call__", counted)
        for field, reads in (("eval_F", 1), ("eval_g", 1), ("eval_Fg", 1), ("eval_DF", 2),
                             ("eval_Dg", 1)):
            calls.clear()
            got = getattr(st, field)(xt, y)
            assert calls["interp"] == reads, field
            want = getattr(ref, field)(xt, y)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
        calls.clear()
        assert st.eval_A0(y).tobytes() == ref.eval_A0(y).tobytes()
        assert calls["interp"] == 1 + 2

    def test_fused_field_calls_h_and_g_once(self):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        q1 = build_q1(0.1)
        sys = dataclasses.replace(q1, F=counted("F", q1.F), g=counted("g", q1.g))
        st = straighten(sys, counted("h", lambda y: q1_h(y[..., 0], 0.1)[..., None]),
                        counted("Dh", lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]))
        xt, y = np.full((4, 1), 0.2), np.linspace(-1.0, 1.0, 4)[:, None]
        st.eval_Fg(xt, y)
        assert calls == {"F": 1, "g": 1, "h": 1, "Dh": 1}
        calls.clear()
        np.concatenate([st.eval_F(xt, y), st.eval_g(xt, y)], axis=-1)
        assert calls == {"F": 1, "g": 2, "h": 2, "Dh": 1}

    def test_dg_bound(self, coupled_straight, coupled_solved):
        ssys, _ = coupled_straight
        sys, cert, _, dh = coupled_solved
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.5, 0.5, (200, 1))
        ys = sys.domain.sample(rng, 200)
        Dg = ssys.eval_Dg(xs, ys)
        norms = np.linalg.norm(Dg.reshape(200, -1), axis=1)
        dh_sup = float(np.max(np.abs(dh(ys))))
        assert np.max(norms) <= (1.0 + dh_sup) * cert.N1 * (1 + 1e-6) + 1e-9


class TestQAlongOrbit:
    def test_vanishing_integrand(self, q1):
        # after straightening Q1 the slow field no longer feels xt at all
        sys, cert = q1
        h = lambda y: q1_h(y[..., 0], 0.1)[..., None]
        dh = lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]
        ssys = straighten(sys, h, dh)
        scert = straightened_constants(cert, 2.2)
        res = q_along_orbit(ssys, [0.5], [0.0], scert, CFG)
        assert np.all(res.Q == 0.0)
        assert np.all(res.P == np.array([0.0]))

    def test_l2_closed_form(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG5)
        assert res.P[0] == pytest.approx(l2_P(1.0, 0.0, 0.1), abs=1e-6)
        assert res.Q[0] == pytest.approx(-0.1, abs=1e-6)

    def test_xi_zero_exact(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [0.0], [0.4], scert, CFG)
        assert np.all(res.Q == 0.0) and res.E_ratio == 0.0
        assert np.all(res.P == np.array([0.4]))

    def test_contraction_budget_enforced(self, l2_straight):
        ssys, scert = l2_straight
        from dataclasses import replace
        bad = replace(scert, N1=2.0)
        with pytest.raises(ContractionError):
            q_along_orbit(ssys, [1.0], [0.0], bad, CFG)

    def test_sweep_ratio_below_certified(self, coupled_straight):
        ssys, scert = coupled_straight
        res = q_along_orbit(ssys, [0.5], [0.1], scert, CFG)
        assert res.report.measured_ratio <= res.report.theoretical_ratio * 1.05 + 1e-9

    def test_batch_matches_single(self, coupled_straight, monkeypatch):
        ssys, scert = coupled_straight
        monkeypatch.setattr(reduction, "TOL_DEFECT", 1e-11)
        monkeypatch.setattr(reduction, "TOL_E_NORM", 1e-11)
        xis = np.array([[0.3], [-0.2]])
        etas = np.array([[0.1], [0.4]])
        P, Q, ratios = e_norm_sweep(ssys, xis, etas, scert, CFG)
        for i in range(2):
            single = q_along_orbit(ssys, xis[i], etas[i], scert, CFG)
            assert np.allclose(P[i], single.P, atol=1e-5)
            # a one-query batch runs the same arithmetic as the single query
            P1, _, _ = e_norm_sweep(ssys, xis[i:i + 1], etas[i:i + 1], scert, CFG)
            assert np.array_equal(P1[0], single.P)


class TestENormBound:
    def test_coupled_random_queries(self, coupled_straight):
        ssys, scert = coupled_straight
        rng = np.random.default_rng(11)
        xis = rng.uniform(-0.6, 0.6, (40, 1))
        etas = rng.uniform(-0.9, 0.9, (40, 1))
        _, _, ratios = e_norm_sweep(ssys, xis, etas, scert, CFG)
        bound = scert.K * scert.N1 / (scert.mu - scert.K * scert.N1)
        assert np.max(ratios) <= bound * 1.05

    def test_l2_exact_ratio(self, l2_straight):
        ssys, scert = l2_straight
        rng = np.random.default_rng(5)
        xis = rng.uniform(-1.0, 1.0, (30, 1))
        etas = rng.uniform(-0.8, 0.8, (30, 1))
        _, _, ratios = e_norm_sweep(ssys, xis, etas, scert, CFG)
        mask = np.abs(xis[:, 0]) > 1e-9
        assert np.allclose(ratios[mask], 0.1, atol=1e-4)
        bound = scert.K * scert.N1 / (scert.mu - scert.K * scert.N1)
        assert np.max(ratios) <= bound * 1.05


def _semiconjugacy_reference(ssys, res, t_max, cfg, cert, n_checks):
    """The semiconjugacy residual by a loop that re-solves every sample time,
    t = 0 included."""
    orbit = flow(ssys, res.xi, res.eta, (0.0, t_max), cfg)
    proj = reduction.projected_flow(ssys, res.P, (0.0, t_max), cfg)
    worst = 0.0
    for t in np.linspace(0.0, t_max, n_checks):
        xt_t, y_t = orbit.at(t)
        P_t = q_along_orbit(ssys, xt_t, y_t, cert, cfg).P
        if t == 0.0:           # the query's own point: P again, bit for bit
            assert P_t.tobytes() == res.P.tobytes()
        worst = max(worst, float(np.linalg.norm(P_t - proj.at(t)[1])))
    return worst


class TestSemiconjugacy:
    # L2 (Q = 0) and the coupled system (Q != 0), each at a point off its manifold
    CASES = {"l2_straight": ([1.0], [0.0]), "coupled_straight": ([0.4], [-0.2])}

    @pytest.mark.parametrize("n_checks", [3, 5, 9])
    @pytest.mark.parametrize("fixture", sorted(CASES))
    def test_equals_loop_that_resolves_t0_bytes(self, fixture, n_checks, request):
        ssys, scert = request.getfixturevalue(fixture)
        res = q_along_orbit(ssys, *self.CASES[fixture], scert, CFG2)
        got = semiconjugacy_residual(ssys, res, 4.0, CFG2, scert, n_checks=n_checks)
        want = _semiconjugacy_reference(ssys, res, 4.0, CFG2, scert, n_checks)
        assert got > 0.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n_checks", [3, 9])
    def test_queries_each_sample_after_t0_once(self, l2_straight, n_checks, monkeypatch):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG2)
        calls = []
        monkeypatch.setattr(reduction, "q_along_orbit",
                            lambda *a, **k: calls.append(a) or q_along_orbit(*a, **k))
        semiconjugacy_residual(ssys, res, 4.0, CFG2, scert, n_checks=n_checks)
        assert len(calls) == n_checks - 1

    def test_l2_small_residual(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG5)
        semi = semiconjugacy_residual(ssys, res, 10.0, CFG5, cert=scert)
        assert semi <= 1e-6

    def test_perturbed_projection_detected(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG5)
        from slowfast.reduction import projected_flow
        orbit = flow(ssys, res.xi, res.eta, (0.0, 10.0), CFG5)
        wrong = projected_flow(ssys, res.P + 0.01, (0.0, 10.0), CFG5)
        t = 10.0
        xt_t, y_t = orbit.at(t)
        r_t = q_along_orbit(ssys, xt_t, y_t, scert, CFG5)
        _, y_w = wrong.at(t)
        assert np.linalg.norm(r_t.P - y_w) >= 0.009

    def test_semigroup_consistency(self, coupled_straight):
        # P(orbit(t1)) evolved to t2 equals P(orbit(t2))
        ssys, scert = coupled_straight
        res = q_along_orbit(ssys, [0.4], [-0.2], scert, CFG)
        orbit = flow(ssys, res.xi, res.eta, (0.0, 6.0), CFG)
        t1, t2 = 1.5, 5.0
        xt1, y1 = orbit.at(t1)
        xt2, y2 = orbit.at(t2)
        P1 = q_along_orbit(ssys, xt1, y1, scert, CFG).P
        P2 = q_along_orbit(ssys, xt2, y2, scert, CFG).P
        evolved = flow(ssys, np.zeros(1), P1, (0.0, t2 - t1), CFG).slow[-1]
        assert np.linalg.norm(evolved - P2) <= 1e-6


class TestAttractionRate:
    def test_l2_exact_gap(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG5)
        fit = attraction_rate_fit(ssys, res, 10.0, CFG5, cert=scert)
        assert fit.rate == pytest.approx(1.0, rel=0.02)
        assert fit.r2 >= 0.999
        assert fit.slow_prefactor_ok

    def test_xi_zero_underdetermined(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [0.0], [0.3], scert, CFG)
        fit = attraction_rate_fit(ssys, res, 5.0, CFG, cert=scert)
        assert fit.underdetermined

    def test_fiber_constancy(self, coupled_straight, monkeypatch):
        # two starts with the same projection converge to each other fast
        ssys, scert = coupled_straight
        monkeypatch.setattr(reduction, "TOL_DEFECT", 1e-12)
        monkeypatch.setattr(reduction, "TOL_E_NORM", 1e-12)
        res_a = q_along_orbit(ssys, [0.5], [0.1], scert, CFG)
        # find eta_b so that (0.25, eta_b) has the same projection: batched
        # grid-search refinement (P is monotone in eta here)
        target = res_a.P[0]
        lo, hi = -0.5, 0.5
        for _ in range(5):
            etas = np.linspace(lo, hi, 33)[:, None]
            xis = np.full_like(etas, 0.25)
            P, _, _ = e_norm_sweep(ssys, xis, etas, scert, CFG)
            k = int(np.searchsorted(P[:, 0], target))
            k = min(max(k, 1), 32)
            lo, hi = etas[k - 1, 0], etas[k, 0]
        eta_b = 0.5 * (lo + hi)
        pa = flow(ssys, [0.5], [0.1], (0.0, 8.0), CFG)
        pb = flow(ssys, [0.25], [eta_b], (0.0, 8.0), CFG)
        gap = np.linalg.norm(np.concatenate([pa.fast - pb.fast, pa.slow - pb.slow],
                                            axis=1), axis=1)
        from slowfast.reduction import fit_exponential
        fit = fit_exponential(list(zip(pa.times, gap)), 1e-9)
        assert fit.rate >= 0.95 * scert.mu


class TestDpPoint:
    def test_l2_affine_exact(self, l2_straight):
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG)
        P1, Q1 = dp_point(ssys, res, scert, CFG)
        assert np.allclose(P1, [[0.1, 1.0]], atol=1e-8)

    def test_xi_zero_identity(self, q1):
        sys, cert = q1
        h = lambda y: q1_h(y[..., 0], 0.1)[..., None]
        dh = lambda y: q1_dh(y[..., 0], 0.1)[..., None, None]
        d2h = lambda y: np.full(np.asarray(y).shape[:-1] + (1, 1, 1), 2.0)
        ssys = straighten(sys, h, dh, d2h=d2h)
        scert = straightened_constants(cert, 2.2)
        res = q_along_orbit(ssys, [0.0], [0.2], scert, CFG)
        P1, Q1 = dp_point(ssys, res, scert, CFG)
        assert np.allclose(Q1, 0.0, atol=1e-12)
        assert np.allclose(P1, [[0.0, 1.0]], atol=1e-12)

    def test_fd_agreement_nontrivial(self, monkeypatch):
        ssys, scert = tc2_straight(eps=0.1)
        monkeypatch.setattr(reduction, "TOL_DEFECT", 1e-12)
        xi0, eta0 = 0.4, 0.2
        res = q_along_orbit(ssys, [xi0], [eta0], scert, CFG5)
        P1, _ = dp_point(ssys, res, scert, CFG5)

        def P_of(xi, eta):
            return q_along_orbit(ssys, [xi], [eta], scert, CFG5).P[0]

        d = 1e-5
        fd = np.array([(P_of(xi0 + d, eta0) - P_of(xi0 - d, eta0)) / (2 * d),
                       (P_of(xi0, eta0 + d) - P_of(xi0, eta0 - d)) / (2 * d)])
        assert np.max(np.abs(P1[0] - fd)) <= 1e-4

    def test_matches_offset_packed_reference_bytes(self, monkeypatch):
        ssys, scert = tc2_straight(eps=0.1)
        monkeypatch.setattr(reduction, "TOL_DEFECT", 1e-12)
        res = q_along_orbit(ssys, [0.4], [0.2], scert, CFG)
        P1, Q1 = dp_point(ssys, res, scert, CFG)
        P1_ref, Q1_ref = _reference_dp_point(ssys, res, scert, CFG, 1e-12)
        assert P1.tobytes() == P1_ref.tobytes() and Q1.tobytes() == Q1_ref.tobytes()

    def test_grid_h_requires_smoothness(self, coupled_straight):
        ssys, scert = coupled_straight
        res = q_along_orbit(ssys, [0.2], [0.1], scert, CFG)
        with pytest.raises(CapabilityError):
            dp_point(ssys, res, scert, CFG)

    def test_variational_decay_premise_sampled(self):
        # the smoothness hypothesis behind dp_point: first variational flows of
        # the straightened system decay at essentially the fast rate
        from slowfast.integrate import flow, variational_flow
        ssys, scert = tc2_straight(eps=0.1)
        base = flow(ssys, [0.5], [0.2], (0.0, 8.0), CFG)
        vf = variational_flow(ssys, base, 1, CFG)
        ux = np.abs(vf.first[:, 0, 0])          # d x~(t) / d xi
        rate = scert.mu - scert.N1
        envelope = 1.05 * np.exp(-rate * vf.times)
        assert np.all(ux <= envelope + 1e-12)


class TestDecompose:
    def test_start_on_manifold_zero_layer(self, l2, l2_straight):
        sys, _ = l2
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [0.0], [0.3], scert, CFG)
        _, outer, layer = decompose_orbit(sys, _zero_h, res, 5.0, CFG)
        assert np.max(np.abs(layer.fast)) <= 1e-12
        assert np.max(np.abs(layer.slow)) <= 1e-12

    def test_l2_closed_form_layer(self, l2, l2_straight):
        sys, _ = l2
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG5)
        _, outer, layer = decompose_orbit(sys, _zero_h, res, 5.0, CFG5)
        lx, ly = layer.at(2.0)
        assert lx[0] == pytest.approx(0.135335, abs=2e-6)
        assert ly[0] == pytest.approx(-0.0135335, abs=2e-6)

    def test_reconstruction_identity(self, l2, l2_straight):
        sys, _ = l2
        ssys, scert = l2_straight
        res = q_along_orbit(ssys, [1.0], [0.0], scert, CFG)
        _, outer, layer = decompose_orbit(sys, _zero_h, res, 5.0, CFG)
        orbit = flow(sys, [1.0], [0.0], (0.0, 5.0), CFG)
        err = max(np.max(np.abs(orbit.fast - (outer.fast + layer.fast))),
                  np.max(np.abs(orbit.slow - (outer.slow + layer.slow))))
        assert err <= 1e-9

    def test_layer_decays_at_certified_rate(self, coupled_solved, coupled_straight):
        sys, cert, h, _ = coupled_solved
        ssys, scert = coupled_straight
        res = q_along_orbit(ssys, [0.5], [0.0], scert, CFG)
        _, outer, layer = decompose_orbit(sys, h, res, 8.0, CFG)
        norms = np.linalg.norm(np.concatenate([layer.fast, layer.slow], axis=1),
                               axis=1)
        rate = (cert.mu - cert.K * cert.M1x) / 1.05
        start = norms[0]
        bound = 3.0 * start * np.exp(-rate * layer.times)
        assert np.all(norms[layer.times > 1.0] <= bound[layer.times > 1.0])

    @pytest.mark.parametrize("xi,eta", [(0.6, -0.3), (0.0, 0.2)], ids=["off", "on"])
    def test_orbit_is_the_flow_from_the_query_point(self, coupled_solved,
                                                    coupled_straight, xi, eta):
        # the returned orbit is the original-coordinates flow from (h(eta) + xi, eta)
        sys, _, h, _ = coupled_solved
        ssys, scert = coupled_straight
        res = q_along_orbit(ssys, [xi], [eta], scert, CFG)
        orbit, _, _ = decompose_orbit(sys, h, res, 4.0, CFG)
        x0 = np.asarray(h(np.array([eta])), dtype=float) + np.array([xi])
        want = flow(sys, x0, np.array([eta]), (0.0, 4.0), CFG)
        for got, ref in ((orbit.times, want.times), (orbit.fast, want.fast),
                         (orbit.slow, want.slow)):
            assert got.tobytes() == ref.tobytes()
