"""Time integration: flows, slow subsystem, processes, variational flows,
bounded solutions."""

import numpy as np
import pytest

from slowfast import integrate
from slowfast.certify import ConstantsCertificate
from slowfast.core import FastSlowSystem, GridDomain
from slowfast.errors import (ConvergenceError, DomainExitError, NumericError,
                             PreconditionError)
from slowfast.integrate import (IntegratorConfig, OrbitPath, _full_field,
                                _graph_fields, _picard_bounded, bounded_solution,
                                flow, process_A0, process_apply, rk4_final,
                                rk4_path, truncation_horizon, variational_flow)
from slowfast.manifold import LPConfig, d2h_solve, dh_solve, lp_solve
from slowfast.reduction import e_norm_sweep, q_along_orbit
from slowfast.systems import build_l1, build_l2, build_q1

CFG = IntegratorConfig(dt=0.01)
FINE = IntegratorConfig(dt=0.001)


def const_system(c=0.3):
    """x' = 0, y' = c: straight-line slow drift."""
    return FastSlowSystem(
        m=1, n=1, F=lambda x, y: np.zeros_like(x),
        g=lambda x, y: np.full_like(y, c),
        A0=lambda y: np.zeros(y.shape[:-1] + (1, 1)),
        domain=GridDomain([-10.0], [10.0], [3]))


class TestRK4:
    @staticmethod
    def field(t, u):
        return -u + np.sin(t) * u * u

    @pytest.mark.parametrize("t0, t1, n", [(0.5, 2.0, 37), (2.0, -1.0, 50)],
                             ids=["forward", "backward"])
    def test_path_end_is_final_state(self, t0, t1, n):
        u0 = np.array([[0.3, -0.2], [0.1, 0.5]])
        times, path = rk4_path(self.field, u0, t0, t1, n)
        t_end, u_end = rk4_final(self.field, u0, t0, t1, n)
        assert np.array_equal(path[0], u0)
        assert np.array_equal(path[-1], u_end)
        h = (t1 - t0) / n
        assert np.array_equal(times, np.array([t0 + h * k for k in range(n + 1)]))
        assert t_end == times[-1]

    def test_nonfinite_state_raises(self):
        with pytest.raises(NumericError, match="first bad batch row 1"):
            with np.errstate(over="ignore", invalid="ignore"):
                rk4_final(lambda t, u: u * u, np.array([[0.1], [50.0], [60.0]]),
                          0.0, 1.0, 100)


@pytest.mark.parametrize("make", [
    lambda: IntegratorConfig(dt=float("nan")),
    lambda: IntegratorConfig(dt=float("inf")),
    lambda: LPConfig(grid=GridDomain([0.0], [1.0], [5]), tol_fixed_point=float("nan")),
    lambda: GridDomain([0.0], [float("inf")], [5]),
], ids=["dt-nan", "dt-inf", "tol-nan", "bound-inf"])
def test_nonfinite_config_rejected(make):
    with pytest.raises(ValueError):
        make()


class TestFlow:
    def test_l2_closed_form(self):
        sys = build_l2(eps=0.1)
        p = flow(sys, [1.0], [0.0], (0.0, 1.0), CFG)
        assert p.fast[-1, 0] == pytest.approx(0.367879, abs=5e-6)
        assert p.slow[-1, 0] == pytest.approx(0.0632121, abs=5e-7)

    def test_g_zero_keeps_y(self):
        sys = build_l1(eps=0.0)
        p = flow(sys, [0.3], [0.2], (0.0, 5.0), CFG)
        assert np.max(np.abs(p.slow - 0.2)) < 1e-14

    def test_constant_drift(self):
        sys = const_system(0.3)
        p = flow(sys, [0.0], [1.0], (0.0, 2.0), CFG)
        assert p.slow[-1, 0] == pytest.approx(1.6, abs=1e-12)

    def test_richardson_ratio_fourth_order(self):
        # endpoint errors against 2n steps, at n/2 and at n steps: ~16 for RK4
        sys = build_q1(eps=0.1)
        u0, n = np.array([0.5, 0.0]), IntegratorConfig(dt=0.02).steps_for(1.0)
        coarse, mid, fine = (rk4_final(_full_field(sys), u0, 0.0, 1.0, k)[1]
                             for k in (n // 2, n, 2 * n))
        ratio = np.max(np.abs(coarse - fine)) / np.max(np.abs(mid - fine))
        assert 8.0 <= ratio <= 40.0

    def test_domain_exit_raises_with_time(self):
        sys = build_l1(eps=0.1)        # y' = 0.1, exits y=0.5 at t=3 from 0.2
        with pytest.raises(DomainExitError) as ei:
            flow(sys, [0.1], [0.2], (0.0, 10.0), CFG)
        assert ei.value.exit_time == pytest.approx(3.0, abs=0.05)
        assert ei.value.path is not None

    def test_stop_on_exit_truncates(self):
        sys = build_l1(eps=0.1)
        p = flow(sys, [0.1], [0.2], (0.0, 10.0), CFG, stop_on_exit=True)
        assert "domain_exit" in p.meta
        assert p.times[-1] <= 3.02


class TestOrbitPath:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            OrbitPath(np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)))


def slow_path(sys, sigma, eta, t1):
    """psi(t; eta, sigma) on [0, t1]: the slow drift y' = g(sigma(y), y) that the
    manifold map integrates backward (t1 < 0) from each node."""
    return rk4_path(_graph_fields(sys, sigma)[0], np.array(eta, dtype=float), 0.0, t1,
                    CFG.steps_for(t1))


class TestSlowIVP:
    def test_g_zero_constant(self):
        sys = build_l1(eps=0.0)
        _, ys = slow_path(sys, lambda y: np.zeros_like(y), [0.3], 4.0)
        assert np.max(np.abs(ys - 0.3)) < 1e-14

    def test_l1_backward_closed_form(self):
        sys = build_l1(eps=0.1)
        _, ys = slow_path(sys, lambda y: np.zeros_like(y), [0.5], -5.0)
        assert ys[-1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_gronwall_separation_bound(self, coupled):
        sys, cert = coupled
        sigma = lambda y: 0.3 * np.sin(2 * y)
        L = 0.6
        times, ys1 = slow_path(sys, sigma, [0.1], 8.0)
        _, ys2 = slow_path(sys, sigma, [0.15], 8.0)
        gap = np.abs(ys1 - ys2)[:, 0]
        bound = 0.05 * np.exp(cert.N1 * (L + 1.0) * np.abs(times))
        assert np.all(gap <= bound * (1 + 1e-6))


class TestProcess:
    def test_constant_scalar(self):
        sys = build_l1()
        h = process_A0(sys, lambda t: np.array([0.0]))
        assert process_apply(h, 1.0, 0.0, [2.0], FINE)[0] == pytest.approx(
            0.735759, abs=1e-6)

    def test_identity_at_equal_times(self):
        sys = build_l1()
        h = process_A0(sys, lambda t: np.array([0.0]))
        out = process_apply(h, 0.7, 0.7, [2.0], CFG)
        assert out[0] == 2.0

    def test_time_varying_scalar_quadrature(self):
        # A0(psi(t)) = -(1 + 0.1 t): T(2,0) = exp(-2 - 0.1*2^2/2) = e^{-2.2}
        sys = FastSlowSystem(
            m=1, n=1, F=lambda x, y: -(1 + y) * x,
            g=lambda x, y: np.full_like(y, 0.1),
            A0=lambda y: -(1.0 + y)[..., None],
            domain=GridDomain([-1.0], [9.0], [2]))
        h = process_A0(sys, lambda t: np.array([0.1 * t]))
        got = process_apply(h, 2.0, 0.0, [1.0], FINE)[0]
        assert got == pytest.approx(0.110803, abs=1e-6)

    def test_cocycle_property(self):
        sys = FastSlowSystem(
            m=1, n=1, F=lambda x, y: -(1 + y) * x,
            g=lambda x, y: np.full_like(y, 0.1),
            A0=lambda y: -(1.0 + y)[..., None],
            domain=GridDomain([-1.0], [9.0], [2]))
        h = process_A0(sys, lambda t: np.array([0.1 * np.sin(t)]))
        rng = np.random.default_rng(0)
        for _ in range(5):
            r, s, t = np.sort(rng.uniform(0, 3, 3))
            lhs = process_apply(h, t, r, [1.0], FINE)
            rhs = process_apply(h, t, s, process_apply(h, s, r, [1.0], FINE), FINE)
            assert abs(lhs[0] - rhs[0]) <= 10 * 1e-10

    def test_forward_only_guard(self):
        sys = build_l1()
        h = process_A0(sys, lambda t: np.array([0.0]))
        with pytest.raises(PreconditionError):
            process_apply(h, 0.0, 1.0, [1.0], CFG)

    def test_reversible_slow_generator(self):
        from slowfast.integrate import process_Z
        sys = FastSlowSystem(
            m=1, n=1, F=lambda x, y: -x, g=lambda x, y: 0.2 * np.sin(y),
            A0=lambda y: -np.ones(y.shape[:-1] + (1, 1)),
            Dg=lambda x, y: np.stack([np.zeros_like(y[..., 0]),
                                      0.2 * np.cos(y[..., 0])], axis=-1)[..., None, :],
            DF=lambda x, y: np.stack([-np.ones_like(x[..., 0]),
                                      np.zeros_like(y[..., 0])], axis=-1)[..., None, :],
            domain=GridDomain([-2.0], [2.0], [3]))
        z = process_Z(sys, lambda t: np.array([0.3 + 0.05 * t]))
        assert z.reversible
        back = process_apply(z, 0.0, 1.5, [1.0], FINE)        # backward is legal
        fwd = process_apply(z, 1.5, 0.0, back, FINE)
        assert fwd[0] == pytest.approx(1.0, abs=1e-9)


class TestVariationalFlow:
    def test_linear_system_equals_process(self):
        sys = build_l2(eps=0.1)
        base = flow(sys, [1.0], [0.0], (0.0, 1.0), CFG)
        vf = variational_flow(sys, base, 1, CFG)
        assert vf.first[-1][0, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_order1_matches_fd(self):
        sys = build_q1(eps=0.1)
        base = flow(sys, [0.5], [0.1], (0.0, 2.0), CFG)
        vf = variational_flow(sys, base, 1, CFG)
        d = 1e-5
        for j, (dx, dy) in enumerate([(d, 0.0), (0.0, d)]):
            pp = flow(sys, [0.5 + dx], [0.1 + dy], (0.0, 2.0), CFG, check_domain=False)
            pm = flow(sys, [0.5 - dx], [0.1 - dy], (0.0, 2.0), CFG, check_domain=False)
            fd = np.concatenate([(pp.fast[-1] - pm.fast[-1]) / (2 * d),
                                 (pp.slow[-1] - pm.slow[-1]) / (2 * d)])
            rel = np.max(np.abs(vf.first[-1][:, j] - fd)) / (1 + np.max(np.abs(fd)))
            assert rel <= 1e-4

    def test_order2_matches_fd_of_first(self):
        sys = build_q1(eps=0.1)
        base = flow(sys, [0.5], [0.1], (0.0, 1.5), CFG)
        vf = variational_flow(sys, base, 2, CFG)
        d = 1e-4
        bp = flow(sys, [0.5], [0.1 + d], (0.0, 1.5), CFG, check_domain=False)
        bm = flow(sys, [0.5], [0.1 - d], (0.0, 1.5), CFG, check_domain=False)
        fd = (variational_flow(sys, bp, 1, CFG).first[-1]
              - variational_flow(sys, bm, 1, CFG).first[-1]) / (2 * d)
        assert np.max(np.abs(vf.second[-1][:, :, 1] - fd)) <= 1e-4

    def test_missing_derivatives_raise(self):
        sys = build_l1()
        bare = FastSlowSystem(m=1, n=1, F=sys.F, g=sys.g, A0=sys.A0,
                              domain=sys.domain)
        base = flow(bare, [0.0], [0.0], (0.0, 1.0), CFG)
        from slowfast.errors import CapabilityError
        with pytest.raises(CapabilityError):
            variational_flow(bare, base, 1, CFG)


L1_CERT = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=0.0, M1y=1.0,
                               N0=0.1, N1=0.0, delta=2.0, rho=2.0)


class TestBoundedSolution:
    def test_r0_zero_gives_zero(self):
        sys = build_l2(eps=0.1)
        cert = ConstantsCertificate(K=1.0, mu=1.0, M0=0.0, M1x=0.0, M1y=0.0,
                                    N0=0.2, N1=0.1, delta=1e-12, rho=0.1)
        bs = bounded_solution(sys, lambda y: np.zeros_like(y), [0.3], cfg=CFG,
                              cert=cert)
        assert np.max(np.abs(bs.fast)) < 1e-12

    def test_l1_closed_form(self):
        sys = build_l1(eps=0.1)
        bs = bounded_solution(sys, lambda y: np.zeros_like(y), [0.5], cfg=CFG,
                              cert=L1_CERT)
        assert bs.fast[-1, 0] == pytest.approx(0.4, abs=1e-8)
        # along the path, phi(t) = psi(t) - 0.1 once the startup layer decayed:
        # at the midpoint the residual layer is ~ e^{-T/2} * |sigma - phi|(-T)
        mid = len(bs) // 2
        layer = np.exp(-(bs.times[mid] - bs.times[0])) * 2.0
        assert bs.fast[mid, 0] == pytest.approx(bs.slow[mid, 0] - 0.1,
                                                abs=max(1e-8, 2 * layer))

    def test_frozen_slow_converges_to_root(self):
        sys = build_q1(eps=0.0)
        bs = bounded_solution(sys, lambda y: np.zeros_like(y), [0.7], cfg=CFG,
                              cert=L1_CERT)
        # Newton root of -x + y^2 at y = 0.7
        assert bs.fast[-1, 0] == pytest.approx(0.49, abs=1e-8)

    def test_horizon_stability(self):
        sys = build_l1(eps=0.1)
        T = truncation_horizon(L1_CERT, 1e-9)
        a = bounded_solution(sys, lambda y: np.zeros_like(y), [0.5], horizon=T, cfg=CFG)
        b = bounded_solution(sys, lambda y: np.zeros_like(y), [0.5], horizon=2 * T, cfg=CFG)
        amp = 2 * (L1_CERT.K * L1_CERT.M0 / L1_CERT.mu + L1_CERT.delta)
        bound = L1_CERT.K * np.exp(-(L1_CERT.mu - 0.0) * T) * amp
        assert abs(a.fast[-1, 0] - b.fast[-1, 0]) <= bound + 1e-12

    def test_picard_cross_validates_forward(self):
        sys = build_q1(eps=0.1)
        fw = bounded_solution(sys, lambda y: np.zeros_like(y), [0.4], cfg=CFG,
                              cert=L1_CERT)
        pc = _picard_bounded(sys, lambda y: np.zeros_like(y), [0.4],
                             truncation_horizon(L1_CERT, 1e-9), CFG, 1e-9)
        assert abs(fw.fast[-1, 0] - pc.fast[-1, 0]) < 1e-7

    def test_picard_raises_when_sweeps_run_out(self, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_SWEEPS", 1)
        sys = build_q1(eps=0.1)
        with pytest.raises(ConvergenceError):
            _picard_bounded(sys, lambda y: np.zeros_like(y), np.array([0.4]), 2.0, CFG,
                            tol=1e-300)

    def test_contraction_violation_rejected(self):
        from slowfast.errors import ContractionError
        sys = build_l1(eps=0.1)
        bad = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=2.0, M1y=1.0,
                                   N0=0.1, N1=0.0, delta=2.0, rho=2.0)
        with pytest.raises(ContractionError):
            bounded_solution(sys, lambda y: np.zeros_like(y), [0.5], cfg=CFG, cert=bad)


class TestDecayOnStraightened:
    def test_s1_style_decay(self, coupled_straight):
        ssys, scert = coupled_straight
        cfg = IntegratorConfig(dt=0.01)
        p = flow(ssys, [0.4], [0.1], (0.0, 6.0), cfg, check_domain=False)
        rate = scert.mu          # mu' of the straightened system
        norms = np.abs(p.fast[:, 0])
        # sampled pairs t >= s
        idx = np.linspace(0, len(p) - 1, 12).astype(int)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                s, t = p.times[idx[a]], p.times[idx[b]]
                lhs = norms[idx[b]]
                rhs = 1.05 * scert.K * np.exp(-rate * (t - s)) * norms[idx[a]]
                assert lhs <= rhs + 1e-12


COARSE = IntegratorConfig(dt=0.1)

# each fixed-point iteration, run to a tolerance no sweep meets: (name in the
# error message, call); Q1 and L2 at xi != 0 have nonzero fixed points
SWEEP_CASES = {
    "lp_solve": ("manifold", lambda f: lp_solve(
        *f["q1"], LPConfig(grid=f["q1"][0].domain, tol_fixed_point=1e-300), COARSE)),
    "dh_solve": ("derivative", lambda f: dh_solve(
        f["q1"][0], f["q1_solved"][3], f["q1"][1],
        LPConfig(grid=f["q1"][0].domain, tol_fixed_point=1e-300), COARSE)),
    "d2h_solve": ("second-derivative", lambda f: d2h_solve(
        f["q1"][0], f["q1_solved"][3], f["q1_dh_solved"][0], f["q1"][1],
        LPConfig(grid=f["q1"][0].domain, tol_fixed_point=1e-300), COARSE)),
    "q_along_orbit": ("defect", lambda f: q_along_orbit(
        *f["l2_straight"][:1], [0.5], [0.3], f["l2_straight"][1], COARSE, tol_q=1e-300)),
    "e_norm_sweep": ("defect", lambda f: e_norm_sweep(
        f["l2_straight"][0], [[0.5], [-0.4]], [[0.3], [0.1]], f["l2_straight"][1], COARSE,
        tol_q=1e-300)),
    "_picard_bounded": ("Picard", lambda f: _picard_bounded(
        f["q1"][0], lambda y: np.zeros_like(y), [0.4], 2.0, CFG, 1e-300)),
}


class TestSweepLoop:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_cap_raises_with_report(self, case, request, monkeypatch):
        what, call = SWEEP_CASES[case]
        fixtures = {name: request.getfixturevalue(name)
                    for name in ("q1", "q1_solved", "q1_dh_solved", "l2_straight")}
        monkeypatch.setattr(integrate, "MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as info:
            call(fixtures)
        report = info.value.report
        assert report.iterations == 1 and not report.converged
        assert report.residuals[0] > 0
        assert str(info.value).startswith(f"{what} iteration did not reach 1e-300 in 1 sweeps")
