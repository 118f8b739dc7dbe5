"""Time integration: flows, slow subsystem, processes, variational flows,
bounded solutions."""

import ast
from pathlib import Path

import numpy as np
import pytest

import slowfast
from slowfast import integrate, reduction
from slowfast.certify import ConstantsCertificate
from slowfast.core import FastSlowSystem, GridDomain, _Blocks
from slowfast.errors import ConvergenceError, NumericError, PreconditionError
from slowfast.integrate import (ContractionReport, IntegratorConfig, OrbitPath, _full_field,
                                _graph_fields, _sweep, bounded_solution_batch, flow,
                                process_apply, rk4_final, rk4_path, variational_flow)
from slowfast.manifold import TOL_FIXED_POINT, d2h_solve, dh_solve, lp_solve
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
    lambda: GridDomain([0.0], [float("inf")], [5]),
], ids=["dt-nan", "dt-inf", "bound-inf"])
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

    def test_leaves_the_box_unchecked(self):
        sys = build_l1(eps=0.1)        # y' = 0.1, exits y=0.5 at t=3 from 0.2
        p = flow(sys, [0.1], [0.2], (0.0, 10.0), CFG)
        assert p.times[-1] == pytest.approx(10.0)
        assert p.slow[-1, 0] == pytest.approx(1.2)

    def test_backward_span_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            flow(build_l1(eps=0.1), [0.1], [0.2], (0.0, -1.0), CFG)


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


class TestBlocks:
    SHAPES = [(2,), (2, 3), (1, 2, 2), ()]

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["no-lead", "rows", "grid"])
    def test_join_split_round_trip_bytes(self, lead):
        blocks = _Blocks(*self.SHAPES)
        rng = np.random.default_rng(0)
        parts = [rng.normal(size=lead + s) for s in self.SHAPES]
        u = blocks.join(lead, *parts)
        # the blocks sit in order on the last axis, as hand-computed offsets put them
        flat = np.concatenate([p.reshape(lead + (-1,)) for p in parts], axis=-1)
        assert u.shape == lead + (13,) and u.tobytes() == flat.tobytes()
        views = blocks.split(u)
        for p, v in zip(parts, views):
            assert v.shape == p.shape and v.tobytes() == p.tobytes()
            assert np.shares_memory(v, u)
        assert blocks.join(lead, *views).tobytes() == u.tobytes()

    def test_join_broadcasts_parts_over_the_leading_axes(self):
        blocks = _Blocks((2,), (2, 2))
        u = blocks.join((3,), np.array([1.0, 2.0]), np.eye(2))
        assert np.array_equal(u, np.tile([1.0, 2.0, 1.0, 0.0, 0.0, 1.0], (3, 1)))
        with pytest.raises(ValueError):
            blocks.join((3,), np.zeros(2))


def scalar_process_system():
    """A0(y) = -(1 + y), the scalar fast process T0(t, s) = exp(-int_s^t (1 + psi))."""
    return FastSlowSystem(
        m=1, n=1, F=lambda x, y: -(1 + y) * x,
        g=lambda x, y: np.full_like(y, 0.1),
        A0=lambda y: -(1.0 + y)[..., None],
        domain=GridDomain([-1.0], [9.0], [2]))


def frozen(*ys):
    """Constant driver paths through the slow points ys: a (B, 1) batch."""
    batch = np.array(ys, dtype=float)[:, None]
    return lambda t: batch


class TestProcess:
    def test_constant_scalar(self):
        got = process_apply(build_l1(), frozen(0.0), [[2.0]], 0.0, 1.0, FINE)
        assert got[0, 0] == pytest.approx(0.735759, abs=1e-6)

    def test_identity_at_equal_times(self):
        out = process_apply(build_l1(), frozen(0.0), [[2.0]], 0.7, 0.7, CFG)
        assert out[0, 0] == 2.0

    def test_time_varying_scalar_quadrature(self):
        # A0(psi(t)) = -(1 + 0.1 t): T(2,0) = exp(-2 - 0.1*2^2/2) = e^{-2.2}
        got = process_apply(scalar_process_system(), lambda t: np.array([[0.1 * t]]),
                            [[1.0]], 0.0, 2.0, FINE)
        assert got[0, 0] == pytest.approx(0.110803, abs=1e-6)

    def test_two_drivers_in_one_batch(self):
        # psi = c t for c = 0.1 and 0.2: T(2,0) = exp(-2 - 2c), one row each
        sys = scalar_process_system()
        drivers = lambda t: np.array([[0.1 * t], [0.2 * t]])
        got = process_apply(sys, drivers, [[1.0], [1.0]], 0.0, 2.0, FINE)
        assert got[:, 0] == pytest.approx(np.exp([-2.2, -2.4]), abs=1e-6)
        for row in range(2):
            one = process_apply(sys, lambda t: drivers(t)[row:row + 1], [[1.0]], 0.0, 2.0,
                                FINE)
            assert np.array_equal(got[row], one[0])

    def test_cocycle_property(self):
        sys = scalar_process_system()
        drv = lambda t: np.array([[0.1 * np.sin(t)]])
        rng = np.random.default_rng(0)
        for _ in range(5):
            r, s, t = np.sort(rng.uniform(0, 3, 3))
            lhs = process_apply(sys, drv, [[1.0]], r, t, FINE)
            rhs = process_apply(sys, drv, process_apply(sys, drv, [[1.0]], r, s, FINE),
                                s, t, FINE)
            assert abs(lhs[0, 0] - rhs[0, 0]) <= 10 * 1e-10

    def test_forward_only_guard(self):
        with pytest.raises(PreconditionError):
            process_apply(build_l1(), frozen(0.0), [[1.0]], 1.0, 0.0, CFG)


def _reference_variational_flow(sys, base, order, cfg):
    """variational_flow as written with hand-computed state offsets (before
    named blocks); the named-block field must match it byte for byte."""
    m, n = sys.m, sys.n
    d = m + n
    t0, t1 = float(base.times[0]), float(base.times[-1])
    u0 = np.concatenate([base.fast[0], base.slow[0]])

    def jac(x, y):
        return np.concatenate([sys.eval_DF(x, y), sys.eval_Dg(x, y)], axis=-2)

    def hess(x, y):
        return np.concatenate([sys.eval_D2F(x, y), sys.eval_D2g(x, y)], axis=-3)

    nU = d * d
    if order == 1:
        def field(t, u):
            z, U = u[:d], u[d:].reshape(d, d)
            J = jac(z[:m], z[m:])
            return np.concatenate([sys.eval_Fg(z[:m], z[m:]), (J @ U).ravel()])
        w0 = np.concatenate([u0, np.eye(d).ravel()])
    else:
        def field(t, u):
            z = u[:d]
            U = u[d:d + nU].reshape(d, d)
            V = u[d + nU:].reshape(d, d, d)
            J = jac(z[:m], z[m:])
            H = hess(z[:m], z[m:])
            dV = np.einsum("ic,cab->iab", J, V) + np.einsum("icd,ca,db->iab", H, U, U)
            return np.concatenate([sys.eval_Fg(z[:m], z[m:]), (J @ U).ravel(), dV.ravel()])
        w0 = np.concatenate([u0, np.eye(d).ravel(), np.zeros(d * d * d)])

    times, path = rk4_path(field, w0, t0, t1, cfg.steps_for(t1 - t0))
    second = path[:, d + nU:].reshape(-1, d, d, d) if order == 2 else None
    return times, path[:, :d], path[:, d:d + nU].reshape(-1, d, d), second


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
            pp = flow(sys, [0.5 + dx], [0.1 + dy], (0.0, 2.0), CFG)
            pm = flow(sys, [0.5 - dx], [0.1 - dy], (0.0, 2.0), CFG)
            fd = np.concatenate([(pp.fast[-1] - pm.fast[-1]) / (2 * d),
                                 (pp.slow[-1] - pm.slow[-1]) / (2 * d)])
            rel = np.max(np.abs(vf.first[-1][:, j] - fd)) / (1 + np.max(np.abs(fd)))
            assert rel <= 1e-4

    def test_order2_matches_fd_of_first(self):
        sys = build_q1(eps=0.1)
        base = flow(sys, [0.5], [0.1], (0.0, 1.5), CFG)
        vf = variational_flow(sys, base, 2, CFG)
        d = 1e-4
        bp = flow(sys, [0.5], [0.1 + d], (0.0, 1.5), CFG)
        bm = flow(sys, [0.5], [0.1 - d], (0.0, 1.5), CFG)
        fd = (variational_flow(sys, bp, 1, CFG).first[-1]
              - variational_flow(sys, bm, 1, CFG).first[-1]) / (2 * d)
        assert np.max(np.abs(vf.second[-1][:, :, 1] - fd)) <= 1e-4

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_offset_packed_reference_bytes(self, order):
        sys = build_q1(eps=0.1)
        base = flow(sys, [0.5], [0.1], (0.0, 1.5), CFG)
        vf = variational_flow(sys, base, order, CFG)
        times, states, first, second = _reference_variational_flow(sys, base, order, CFG)
        assert vf.times.tobytes() == times.tobytes()
        assert vf.states.tobytes() == states.tobytes()
        assert vf.first.tobytes() == first.tobytes()
        assert (vf.second is None) == (order == 1)
        if order == 2:
            assert vf.second.tobytes() == second.tobytes()

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


def bounded_at_zero(sys, etas, cert=L1_CERT, sigma=lambda y: np.zeros_like(y), tol=1e-9):
    """phi(0; eta, sigma) for each eta, over the truncation horizon of `cert`."""
    return bounded_solution_batch(sys, sigma, np.asarray(etas, dtype=float)[:, None],
                                  cert.lp_horizon(tol), CFG)[:, 0]


def _picard_bounded(sys, sig, eta, T, cfg, tol):
    """The bounded solution of `bounded_solution_batch` on the same slow path and
    time grid, by Picard iteration of the variation-of-constants map (each sweep one
    inhomogeneous linear solve) from phi = 0: the cross-check of the two-pass."""
    from scipy.interpolate import CubicSpline     # a test-only dependency

    slow_field = _graph_fields(sys, sig)[0]
    n_b = cfg.steps_for(T)
    _, y_T = rk4_final(slow_field, np.atleast_1d(np.asarray(eta, dtype=float)), 0.0, -T, n_b)
    times, ys = rk4_path(slow_field, y_T, -T, 0.0, n_b)
    y_spline = CubicSpline(times, ys, axis=0)

    def apply(phi):
        spline = CubicSpline(times, phi, axis=0)

        def lin(t, v):
            y = y_spline(t)
            return sys.eval_A0(y) @ v + sys.R0(spline(t), y)

        return rk4_path(lin, np.zeros(sys.m), -T, 0.0, n_b)[1]

    report = ContractionReport()
    phi = _sweep("Picard", apply, np.zeros((len(times), sys.m)), report, tol)
    return OrbitPath(times, phi, ys)


def test_package_imports_no_scipy():
    """scipy is a test dependency only: no module of the package imports it,
    at the top or inside a function."""
    found = []
    for path in sorted(Path(slowfast.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == []


class TestBoundedSolution:
    def test_r0_zero_gives_zero(self):
        sys = build_l2(eps=0.1)
        cert = ConstantsCertificate(K=1.0, mu=1.0, M0=0.0, M1x=0.0, M1y=0.0,
                                    N0=0.2, N1=0.1, delta=1e-12, rho=0.1)
        assert np.max(np.abs(bounded_at_zero(sys, [0.3], cert))) < 1e-12

    def test_l1_closed_form(self):
        # y' = 0.1, so phi(t) = psi(t) - 0.1 is the bounded solution: phi(0) = eta - 0.1
        etas = np.array([-0.5, 0.1, 0.3, 0.5])
        phi = bounded_at_zero(build_l1(eps=0.1), etas)
        assert phi == pytest.approx(etas - 0.1, abs=1e-8)

    def test_frozen_slow_converges_to_root(self):
        # Newton root of -x + y^2 at y = 0.7
        assert bounded_at_zero(build_q1(eps=0.0), [0.7])[0] == pytest.approx(0.49, abs=1e-8)

    def test_horizon_stability(self):
        sys = build_l1(eps=0.1)
        zero = lambda y: np.zeros_like(y)
        T = L1_CERT.lp_horizon(1e-9)
        a, b = (bounded_solution_batch(sys, zero, [[0.5]], horizon, CFG)[0, 0]
                for horizon in (T, 2 * T))
        amp = 2 * (L1_CERT.K * L1_CERT.M0 / L1_CERT.mu + L1_CERT.delta)
        bound = L1_CERT.K * np.exp(-(L1_CERT.mu - 0.0) * T) * amp
        assert abs(a - b) <= bound + 1e-12

    def test_picard_cross_validates_forward(self):
        sys = build_q1(eps=0.1)
        fw = bounded_at_zero(sys, [0.4])[0]
        pc = _picard_bounded(sys, lambda y: np.zeros_like(y), [0.4],
                             L1_CERT.lp_horizon(1e-9), CFG, 1e-9)
        assert abs(fw - pc.fast[-1, 0]) < 1e-7

    def test_picard_raises_when_sweeps_run_out(self, monkeypatch):
        monkeypatch.setattr(integrate, "MAX_SWEEPS", 1)
        sys = build_q1(eps=0.1)
        with pytest.raises(ConvergenceError):
            _picard_bounded(sys, lambda y: np.zeros_like(y), np.array([0.4]), 2.0, CFG,
                            tol=1e-300)

    def test_contraction_violation_rejected(self):
        from slowfast.errors import ContractionError
        bad = ConstantsCertificate(K=1.0, mu=1.0, M0=0.5, M1x=2.0, M1y=1.0,
                                   N0=0.1, N1=0.0, delta=2.0, rho=2.0)
        with pytest.raises(ContractionError):
            bounded_at_zero(build_l1(eps=0.1), [0.5], bad)


class TestDecayOnStraightened:
    def test_s1_style_decay(self, coupled_straight):
        ssys, scert = coupled_straight
        cfg = IntegratorConfig(dt=0.01)
        p = flow(ssys, [0.4], [0.1], (0.0, 6.0), cfg)
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

# each fixed-point iteration, run to a tolerance that one sweep from zero does
# not meet: (name in the error message, tolerance, call); Q1 and L2 at xi != 0
# have nonzero fixed points
SWEEP_CASES = {
    "lp_solve": ("manifold", TOL_FIXED_POINT, lambda f: lp_solve(*f["q1"], COARSE)),
    "dh_solve": ("derivative", TOL_FIXED_POINT, lambda f: dh_solve(
        f["q1"][0], f["q1_solved"][2], f["q1"][1], COARSE)),
    "d2h_solve": ("second-derivative", TOL_FIXED_POINT, lambda f: d2h_solve(
        f["q1"][0], f["q1_solved"][2], f["q1_dh_solved"][0], f["q1"][1], COARSE)),
    "q_along_orbit": ("defect", 1e-300, lambda f: q_along_orbit(
        *f["l2_straight"][:1], [0.5], [0.3], f["l2_straight"][1], COARSE)),
    "e_norm_sweep": ("defect", 1e-300, lambda f: e_norm_sweep(
        f["l2_straight"][0], [[0.5], [-0.4]], [[0.3], [0.1]], f["l2_straight"][1], COARSE)),
    "_picard_bounded": ("Picard", 1e-300, lambda f: _picard_bounded(
        f["q1"][0], lambda y: np.zeros_like(y), [0.4], 2.0, CFG, 1e-300)),
}


class TestSweepLoop:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_raises_numeric_at_once(self, bad):
        calls = []

        def apply(u):
            calls.append(u)
            return np.full_like(u, bad)

        report = ContractionReport()
        with pytest.raises(NumericError,
                           match=f"defect iteration: residual {bad} at sweep 1 is not finite"):
            _sweep("defect", apply, np.zeros(3), report, 1e-10)
        assert len(calls) == 1 and report.iterations == 1 and not report.converged

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_cap_raises_with_report(self, case, request, monkeypatch):
        what, tol, call = SWEEP_CASES[case]
        fixtures = {name: request.getfixturevalue(name)
                    for name in ("q1", "q1_solved", "q1_dh_solved", "l2_straight")}
        monkeypatch.setattr(integrate, "MAX_SWEEPS", 1)
        # the reduction sweeps read their tolerance from these constants
        monkeypatch.setattr(reduction, "TOL_DEFECT", 1e-300)
        monkeypatch.setattr(reduction, "TOL_E_NORM", 1e-300)
        with pytest.raises(ConvergenceError) as info:
            call(fixtures)
        report = info.value.report
        assert report.iterations == 1 and not report.converged
        assert report.residuals[0] > 0
        assert str(info.value).startswith(f"{what} iteration did not reach {tol:g} in 1 sweeps")
