"""The manifold fixed point, its derivatives, residual diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import sampled
from slowfast import integrate, manifold, systems
from slowfast.certify import ConstantsCertificate, assemble_certificate
from slowfast.core import FastSlowSystem, GridDomain, GridFunction, _Blocks, _joint_reader
from slowfast.errors import ContractionError, NumericError, PreconditionError
from slowfast.integrate import IntegratorConfig, bounded_solution_batch, two_pass
from slowfast.harness import _random_ball_sigma
from slowfast.manifold import (TOL_BOUNDED, TOL_FIXED_POINT, _derivative_map, _lp_apply,
                               d2h_solve, dh_solve, eqv_residual, fd_derivative_error,
                               invariance_residual, lp_map, lp_map_batch, lp_solve)
from slowfast.systems import build_l1, build_nf1, build_q1, l1_h, q1_dh, q1_h

CFG = IntegratorConfig(dt=0.01)


def grid_of(sys, fn):
    return sampled(sys.domain, fn)


class TestLpMap:
    def test_exact_fixed_point_l1(self, l1):
        sys, cert = l1
        sig = grid_of(sys, lambda y: l1_h(y, 0.1))
        out = lp_map(sys, sig, cert, CFG)
        assert np.max(np.abs(out.values - sig.values)) <= 1e-8

    def test_zero_sigma_l1_closed_form(self, l1):
        sys, cert = l1
        out = lp_map(sys, GridFunction.zeros(sys.domain, (1,)), cert, CFG)
        nodes = sys.domain.node_coords()
        assert np.max(np.abs(out(nodes)[:, 0] - (nodes[:, 0] - 0.1))) <= 1e-9

    def test_r0_zero_maps_to_zero(self, l2):
        # with M1y = 0 any delta keeps the existence budget feasible, so widen
        # the (degenerate) ball to admit a nonzero candidate
        sys, cert = l2
        cert = replace(cert, delta=0.5)
        sig = grid_of(sys, lambda y: 0.01 * np.sin(3 * y))
        out = lp_map(sys, sig, cert, CFG)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_ball_membership_enforced(self, l1):
        sys, cert = l1
        big = grid_of(sys, lambda y: np.full_like(y, 100.0))
        with pytest.raises(PreconditionError):
            lp_map(sys, big, cert, CFG)

    def test_infeasible_certificate_rejected(self, l1):
        sys, _ = l1
        bad = ConstantsCertificate(K=1, mu=1, M0=0.5, M1x=0.0, M1y=1.0,
                                   N0=0.1, N1=5.0, delta=2.0, rho=2.0)
        with pytest.raises(ContractionError):
            lp_map(sys, GridFunction.zeros(sys.domain, (1,)), bad, CFG)


@pytest.fixture(scope="module")
def nf1_small():
    sys = build_nf1(eps=0.01, m=8, points=11)
    return sys, assemble_certificate(sys, CFG, seed=0, x_radius=0.5)


def _ball_sigmas(sys, cert, k, seed):
    rng = np.random.default_rng(seed)
    radius = cert.ball_radius
    return [_random_ball_sigma(sys, sys.domain, radius, rng) for _ in range(k)]


class Counter:
    """Counts the calls of a wrapped function."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def count_calls(monkeypatch, owner, name):
    counter = Counter(getattr(owner, name))
    monkeypatch.setattr(owner, name, lambda *a: counter(*a))
    return counter


class TestLpMapBatch:
    @pytest.mark.parametrize("system, k", [("q1", 6), ("coupled", 4), ("nf1_small", 3),
                                           ("q1", 1)])
    def test_batch_equals_single_maps_bytes(self, system, k, request):
        sys, cert = request.getfixturevalue(system)
        cfg_int = IntegratorConfig(dt=0.05)
        sigmas = _ball_sigmas(sys, cert, k, seed=k)
        batch = lp_map_batch(sys, sigmas, cert, cfg_int)
        assert len(batch) == k
        for sigma, got in zip(sigmas, batch):
            want = lp_map(sys, sigma, cert, cfg_int)
            assert got.values.shape == want.values.shape == sigma.values.shape
            assert got.values.tobytes() == want.values.tobytes()
            assert got.value_norm is sigma.value_norm

    def test_ball_checked_per_sigma(self, q1):
        sys, cert = q1
        sigmas = _ball_sigmas(sys, cert, 3, seed=0)
        sigmas[2] = sigmas[2].with_values(sigmas[2].values * 100)
        with pytest.raises(PreconditionError, match="outside the certified ball"):
            lp_map_batch(sys, sigmas, cert, CFG)
        assert lp_map_batch(sys, [], cert, CFG) == []

    @staticmethod
    def _lp_apply_reads(sys, cert, monkeypatch):
        """Interpolation calls of one `_lp_apply` at T = 2, dt = 0.1, for K =
        1, 2 and 10 candidates; returns (counts, RK4 steps)."""
        cfg_int = IntegratorConfig(dt=0.1)
        interp = count_calls(monkeypatch, GridFunction, "__call__")
        counts = []
        for k in (1, 2, 10):
            interp.calls = 0
            _lp_apply(sys, _ball_sigmas(sys, cert, k, seed=k), 2.0, cfg_int)
            counts.append(interp.calls)
        return counts, cfg_int.steps_for(2.0)

    def test_interpolations_do_not_scale_with_sigmas(self, q1, monkeypatch):
        """One interpolation per RK4 stage (plus the lift), whatever K is, where
        the drift reads x: Q1 declared to read it."""
        sys, cert = q1
        counts, steps = self._lp_apply_reads(replace(sys, drift_reads_x=True), cert,
                                             monkeypatch)
        assert counts == [8 * steps + 1] * 3

    def test_drift_reading_no_x_reads_only_the_lift(self, q1, monkeypatch):
        """Q1's drift reads no x: the candidates are read once, at the lift."""
        sys, cert = q1
        assert self._lp_apply_reads(sys, cert, monkeypatch)[0] == [1] * 3

    def test_nan_in_one_sigma_named_by_block_and_row(self):
        """A NaN at node 5 of the third candidate reaches rows 4 and 5 of its
        block (row 4 interpolates node 5 with weight 0, and 0 * NaN is NaN);
        the error names the first of them as (block, row)."""
        sys = FastSlowSystem(m=1, n=1, F=lambda x, y: -x, g=lambda x, y: np.zeros_like(y),
                             A0=lambda y: np.full(y.shape[:-1] + (1, 1), -1.0),
                             domain=GridDomain([0.0], [1.0], [11]))
        sigmas = [GridFunction.zeros(sys.domain, (1,)) for _ in range(4)]
        bad = np.zeros((11, 1))
        bad[5] = np.nan
        sigmas[2] = sigmas[2].with_values(bad)
        with pytest.raises(NumericError, match=r"first bad batch row \(2, 4\)"):
            with np.errstate(invalid="ignore"):
                _lp_apply(sys, sigmas, 1.0, CFG)


class TestOneInterpolationPerStage:
    """One grid interpolation per field evaluation in the derivative maps and
    in the invariance residual: each field evaluation calls g once."""

    @staticmethod
    def _map_reads(sys, fields, monkeypatch):
        """(g calls, interpolation calls) of one `_derivative_map` of order
        len(fields) at T = 2, dt = 0.1: 20 steps of 4 stages in each pass."""
        W = GridFunction.zeros(sys.domain, (sys.m,) + (sys.n,) * len(fields))
        interp = count_calls(monkeypatch, GridFunction, "__call__")
        g = count_calls(monkeypatch, FastSlowSystem, "eval_g")
        _derivative_map(sys, (*fields, W), 2.0, IntegratorConfig(dt=0.1))
        return g.calls, interp.calls

    def test_dh_apply(self, q1_solved, monkeypatch):
        """Where the drift reads x (Q1 declared to read it), both passes read
        the grid at every stage."""
        sys, cert, h, _ = q1_solved
        g, interp = self._map_reads(replace(sys, drift_reads_x=True), (h,), monkeypatch)
        assert g == 8 * 20 and interp == g

    def test_d2h_field(self, q1_solved, q1_dh_solved, monkeypatch):
        sys, cert, h, _ = q1_solved
        dh, _ = q1_dh_solved
        interp = count_calls(monkeypatch, GridFunction, "__call__")
        g = count_calls(monkeypatch, FastSlowSystem, "eval_g")
        d2h_solve(replace(sys, drift_reads_x=True), h, dh, cert, IntegratorConfig(dt=0.1))
        assert g.calls > 0 and interp.calls == g.calls

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_map_drift_reading_no_x(self, order, q1_solved, q1_dh_solved,
                                               monkeypatch):
        """Q1's drift reads no x: the backward pass reads no grid, and the
        forward pass reads h[, Dh] once per stage."""
        sys, cert, h, _ = q1_solved
        g, interp = self._map_reads(sys, (h, q1_dh_solved[0])[:order], monkeypatch)
        assert g == 8 * 20 and interp == 4 * 20

    @staticmethod
    def _eqv_residual_reads(sys, h, cert, monkeypatch):
        """(g calls, interpolation calls) of one `eqv_residual` at T = 2, dt = 0.1."""
        interp = count_calls(monkeypatch, GridFunction, "__call__")
        g = count_calls(monkeypatch, FastSlowSystem, "eval_g")
        eqv_residual(sys, h, cert, IntegratorConfig(dt=0.1), horizon=2.0)
        return g.calls, interp.calls

    def test_eqv_residual(self, q1_solved, monkeypatch):
        """Where the drift reads x (Q1 declared to read it), both passes read h
        at every stage."""
        sys, cert, h, _ = q1_solved
        g, interp = self._eqv_residual_reads(replace(sys, drift_reads_x=True), h, cert,
                                             monkeypatch)
        assert g == 8 * 20 and interp == g + 1   # + the node read

    def test_eqv_residual_drift_reading_no_x(self, q1_solved, monkeypatch):
        """Q1's drift reads no x: only the forward pass reads h, for the
        remainder term, once per stage."""
        sys, cert, h, _ = q1_solved
        g, interp = self._eqv_residual_reads(sys, h, cert, monkeypatch)
        assert g == 8 * 20 and interp == 4 * 20 + 1

    def test_joint_reader_equals_each_function_bytes(self, q1_solved, q1_dh_solved):
        sys, _, h, _ = q1_solved
        dh, _ = q1_dh_solved
        w2 = GridFunction(sys.domain, np.random.default_rng(0).standard_normal(
            sys.domain.shape + (1, 1, 1)))
        ys = np.random.default_rng(1).uniform(-1.2, 1.2, size=(3, 7, 1))
        for y in (ys, ys[0, 0]):                  # a batch, and one point
            for got, f in zip(_joint_reader(h, dh, w2)(y), (h, dh, w2)):
                assert got.shape == f(y).shape and got.tobytes() == f(y).tobytes()


class TestLpSolve:
    def test_l1_analytic(self, l1_solved):
        sys, cert, h, rep = l1_solved
        nodes = sys.domain.node_coords()
        err = np.max(np.abs(h(nodes)[:, 0] - l1_h(nodes[:, 0], 0.1)))
        assert err <= 1e-6
        assert rep.converged
        assert rep.measured_ratio <= rep.theoretical_ratio * 1.05 + 1e-6

    def test_q1_analytic(self, q1_solved):
        sys, cert, h, rep = q1_solved
        nodes = sys.domain.node_coords()
        err = np.max(np.abs(h(nodes)[:, 0] - q1_h(nodes[:, 0], 0.1)))
        assert err <= 1e-5
        assert h(np.array([[1.0]]))[0, 0] == pytest.approx(0.82, abs=1e-5)

    def test_eps_zero_matches_newton(self):
        sys = build_q1(eps=0.0)
        cert = ConstantsCertificate(K=1, mu=1, M0=1.0, M1x=0.0, M1y=2.0,
                                    N0=0.0, N1=0.0, delta=4.0, rho=4.0)
        h, rep = lp_solve(sys, cert, CFG)
        nodes = sys.domain.node_coords()
        # Newton oracle: root of -x + y^2 is y^2 itself
        assert np.max(np.abs(h(nodes)[:, 0] - nodes[:, 0] ** 2)) <= 1e-8

    def test_fixed_point_residual_property(self, l1_solved):
        sys, cert, h, rep = l1_solved
        again = lp_map(sys, h, cert, CFG)
        assert np.max(np.abs(again.values - h.values)) <= 2 * TOL_FIXED_POINT

    def test_norm_bound_theorem(self, l1_solved, q1_solved):
        for sys, cert, h, rep in (l1_solved, q1_solved):
            bound = cert.K * cert.M0 / cert.mu \
                + cert.K * cert.M1y / (cert.mu - cert.K * cert.M1x)
            assert h.sup_norm() <= bound * 0.99

    def test_sup_norm_within_ball(self, q1_solved):
        sys, cert, h, rep = q1_solved
        assert h.sup_norm() <= cert.K * cert.M0 / cert.mu + cert.delta + 1e-9


    def test_blow_up_fails_fast(self, monkeypatch):
        """x' = -x + 5x^3 + y leaves every ball from x = 0 when y is near 1: the
        first sweep's forward pass overflows and must stop the solve."""
        sys = FastSlowSystem(
            m=1, n=1, F=lambda x, y: -x + 5 * x ** 3 + y,
            g=lambda x, y: np.zeros_like(y),
            A0=lambda y: np.full(y.shape[:-1] + (1, 1), -1.0),
            domain=GridDomain([0.0], [1.0], [11]))
        cert = ConstantsCertificate(K=1.0, mu=1.0, M0=0.1, M1x=0.1, M1y=0.1,
                                    N0=0.0, N1=0.0, delta=0.5, rho=0.6)
        sweeps = count_calls(monkeypatch, manifold, "_lp_apply")
        with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
            lp_solve(sys, cert, CFG, horizon=5)
        assert sweeps.calls == 1


class TestMeasuredContraction:
    def test_random_pairs_below_theoretical(self, coupled):
        sys, cert = coupled
        grid = sys.domain
        rng = np.random.default_rng(7)
        radius = cert.ball_radius
        sigmas = [_random_ball_sigma(sys, grid, radius, rng) for _ in range(8)]
        images = lp_map_batch(sys, sigmas, cert, CFG)    # equal to one lp_map per sigma
        worst = 0.0
        for k in range(0, 8, 2):
            s1, s2 = sigmas[k], sigmas[k + 1]
            gap = np.max(np.abs(s2.values - s1.values))
            if gap == 0:
                continue
            d = np.max(np.abs(images[k + 1].values - images[k].values))
            worst = max(worst, d / gap)
        assert worst <= cert.lp_ratio() * 1.05


class TestEqvResidual:
    def test_exact_h_small(self, l1_solved):
        sys, cert, h, _ = l1_solved
        assert eqv_residual(sys, h, cert, CFG) <= 1e-6

    def test_perturbed_h_detected(self, l1_solved):
        sys, cert, h, _ = l1_solved
        bad = h.with_values(h.values + 0.1)
        assert eqv_residual(sys, bad, cert, CFG) >= 0.05

    def test_r0_zero_exactly_zero(self, l2):
        sys, cert = l2
        h = GridFunction.zeros(sys.domain, (1,))
        assert eqv_residual(sys, h, cert, CFG) <= 1e-14


class TestInvarianceResidual:
    def test_l1_exact_h_long_horizon(self):
        # wide box so the drift stays inside for the full window
        sys = build_l1(eps=0.1, domain=(-1.0, 3.0), points=41)
        res = invariance_residual(sys, lambda y: l1_h(y, 0.1), [0.5], 20.0, CFG)
        assert not res.partial
        assert res.max_deviation <= 1e-6

    def test_off_manifold_decay_rate(self, q1):
        sys, cert = q1
        from slowfast.reduction import fit_exponential
        eta = np.array([-0.5])
        x0 = q1_h(eta, 0.1) + 0.5
        from slowfast.integrate import flow
        p = flow(sys, x0, eta, (0.0, 8.0), CFG)
        dev = np.abs(p.fast[:, 0] - q1_h(p.slow[:, 0], 0.1))
        fit = fit_exponential(list(zip(p.times, dev)), 1e-10)
        rate = cert.mu - cert.K * cert.M1x
        assert fit.rate == pytest.approx(rate, rel=0.05)

    def test_g_zero_equilibrium_branch(self):
        sys = build_q1(eps=0.0)
        res = invariance_residual(sys, lambda y: y ** 2, [0.4], 10.0, CFG)
        assert res.max_deviation <= 1e-9

    def test_partial_flag_on_exit(self, l1_solved):
        sys, cert, h, _ = l1_solved
        res = invariance_residual(sys, h, [0.45], 10.0, CFG)
        assert res.partial and res.exit_time is not None

    def test_exit_time_of_first_exit(self):
        # L1: y' = 0.1 leaves the box [-0.5, 0.5] at t = 3 from y = 0.2
        res = invariance_residual(build_l1(eps=0.1), lambda y: l1_h(y, 0.1), [0.2], 10.0, CFG)
        assert res.partial
        assert abs(res.exit_time - 3.0) <= CFG.dt * (1 + 1e-9)

    def test_cut_at_first_exit(self):
        # the same exit: the deviation is read on the path up to its first
        # sample outside the box, and no further
        sys = build_l1(eps=0.1)
        reads = []

        def h(y):
            reads.append(np.array(y))
            return l1_h(y, 0.1)

        res = invariance_residual(sys, h, [0.2], 10.0, CFG)
        assert res.partial
        path = reads[-1]                    # the slow track the deviation read
        inside = sys.domain.contains(path)
        assert inside[:-1].all() and not inside[-1]
        assert path[-1, 0] == pytest.approx(0.2 + 0.1 * res.exit_time)

    def test_start_outside_the_box_rejected(self):
        with pytest.raises(PreconditionError, match="outside the slow box"):
            invariance_residual(build_l1(eps=0.1), lambda y: l1_h(y, 0.1), [0.6], 1.0, CFG)


class TestDh:
    def test_dh_map_fixed_point_l1(self, l1_solved):
        sys, cert, h, _ = l1_solved
        exact = GridFunction(sys.domain, np.ones(sys.domain.shape + (1, 1)))
        out = _derivative_map(sys, (h, exact), cert.dh_horizon(TOL_BOUNDED), CFG)
        assert np.max(np.abs(out - 1.0)) <= 1e-8

    def test_dh_solve_l1(self, l1_solved):
        sys, cert, h, _ = l1_solved
        dh, rep = dh_solve(sys, h, cert, CFG)
        assert np.max(np.abs(dh.values - 1.0)) <= 1e-6
        assert fd_derivative_error(h, dh) <= 1e-6

    def test_dh_solve_q1_analytic(self, q1_solved, q1_dh_solved):
        sys, cert, h, _ = q1_solved
        dh, rep = q1_dh_solved
        nodes = sys.domain.node_coords()
        err = np.max(np.abs(dh(nodes)[:, 0, 0] - q1_dh(nodes[:, 0], 0.1)))
        assert err <= 1e-4
        assert rep.measured_ratio <= rep.theoretical_ratio * 1.05 + 1e-6

    def test_dh_sup_bound_boundary_confined(self, coupled, coupled_solved):
        sys, cert = coupled
        _, _, h, dh = coupled_solved
        bound = cert.K * cert.M1y / (cert.mu - cert.K * cert.M1x
                                     - cert.N1 * (cert.rho + 1))
        assert dh.sup_norm() <= bound * (1 + 1e-6)

    def test_dh_implicit_function_oracle_g_zero(self):
        sys = build_q1(eps=0.0)
        cert = ConstantsCertificate(K=1, mu=1, M0=1.0, M1x=0.0, M1y=2.0,
                                    N0=0.0, N1=0.0, delta=4.0, rho=4.0)
        h, _ = lp_solve(sys, cert, CFG)
        dh, _ = dh_solve(sys, h, cert, CFG)
        nodes = sys.domain.node_coords()
        # implicit function theorem: Dh = -(D_x F)^{-1} D_y F = 2y
        assert np.max(np.abs(dh(nodes)[:, 0, 0] - 2 * nodes[:, 0])) <= 1e-6

    def test_m1y_zero_gives_zero(self, l2):
        sys, cert = l2
        h = GridFunction.zeros(sys.domain, (1,))
        dh, _ = dh_solve(sys, h, cert, CFG)
        assert np.max(np.abs(dh.values)) <= 1e-12


class TestD2h:
    def test_q1_constant_two(self, q1_solved, q1_dh_solved):
        sys, cert, h, _ = q1_solved
        dh, _ = q1_dh_solved
        d2, rep = d2h_solve(sys, h, dh, cert, CFG)
        assert np.max(np.abs(d2.values - 2.0)) <= 1e-3

    def test_linear_system_zero(self, l1_solved):
        sys, cert, h, _ = l1_solved
        dh, _ = dh_solve(sys, h, cert, CFG)
        d2, _ = d2h_solve(sys, h, dh, cert, CFG)
        assert np.max(np.abs(d2.values)) <= 1e-9

    def test_g_zero_scalar_implicit_oracle(self):
        sys = build_q1(eps=0.0)
        cert = ConstantsCertificate(K=1, mu=1, M0=1.0, M1x=0.0, M1y=2.0,
                                    N0=0.0, N1=0.0, delta=4.0, rho=4.0)
        h, _ = lp_solve(sys, cert, CFG)
        dh, _ = dh_solve(sys, h, cert, CFG)
        d2, _ = d2h_solve(sys, h, dh, cert, CFG)
        # twice-differentiated implicit relation h = y^2: D2h = 2
        assert np.max(np.abs(d2.values - 2.0)) <= 1e-3


def _reference_dh_apply(sys, h, w_field, T, cfg_int):
    """The order-1 derivative map as written before the one order-k map: its
    own generator, drift, forward term and block layouts; `_derivative_map`
    must match it byte for byte."""
    read = _joint_reader(h, w_field)
    grid = h.domain
    etas = grid.node_coords()
    B, m, n = etas.shape[0], sys.m, sys.n
    back, fwd = _Blocks((n,), (n, n)), _Blocks((n,), (n, n), (m, n))     # y, z[, v]

    def field(blocks):
        def fld(t, u):
            y, z, *v = blocks.split(u)
            hy, Wy = read(y)
            Dg = sys.eval_Dg(hy, y)
            gen = np.einsum("...ij,...jk->...ik", Dg[..., :, :m], Wy) + Dg[..., :, m:]
            parts = [sys.eval_g(hy, y), np.einsum("...ij,...jk->...ik", gen, z)]
            if v:
                DFh = sys.eval_DF(hy, y)
                parts.append(np.einsum("...ij,...jk->...ik", DFh[..., :, :m], v[0])
                             + np.einsum("...ij,...jk->...ik", DFh[..., :, m:], z))
            return blocks.join(u.shape[:-1], *parts)

        return fld

    uf = two_pass(field(back), field(fwd), back.join((B,), etas, np.eye(n)),
                  lambda u_T: fwd.join((B,), *back.split(u_T), np.zeros((m, n))),
                  T, cfg_int)
    return fwd.split(uf)[2].reshape(grid.shape + (m, n))


def _reference_d2h_apply(sys, h, dh, W2, T, cfg_int):
    """The order-2 derivative map as `d2h_solve` wrote it before the one
    order-k map, with its own terms, fields and block layouts."""
    grid = h.domain
    m, n = sys.m, sys.n
    etas = grid.node_coords()
    B = etas.shape[0]
    back = _Blocks((n,), (n, n), (n, n, n))                     # y, z1, z2
    fwd = _Blocks((n,), (n, n), (n, n, n), (m, n, n))          # y, z1, z2, v

    def terms(y, z1, z2, hy, Dhy, W2y):
        w1 = np.einsum("...ij,...ja->...ia", Dhy, z1)
        V1 = np.concatenate([w1, z1], axis=-2)
        Dg = sys.eval_Dg(hy, y)
        D2g = sys.eval_D2g(hy, y)
        Sy = np.einsum("...icd,...ca,...db->...iab", D2g, V1, V1)
        w2 = (np.einsum("...icd,...ca,...db->...iab", W2y, z1, z1)
              + np.einsum("...ij,...jab->...iab", Dhy, z2))
        dz1 = np.einsum("...ij,...ja->...ia",
                        np.einsum("...ic,...cj->...ij", Dg[..., :, :m], Dhy) + Dg[..., :, m:],
                        z1)
        dz2 = (np.einsum("...ic,...cab->...iab", Dg[..., :, :m], w2)
               + np.einsum("...ij,...jab->...iab", Dg[..., :, m:], z2) + Sy)
        return V1, dz1, dz2

    def make_field(read, blocks):
        def fld(t, u):
            y, z1, z2, *v = blocks.split(u)
            hy, Dhy, W2y = read(y)
            V1, dz1, dz2 = terms(y, z1, z2, hy, Dhy, W2y)
            parts = [sys.eval_g(hy, y), dz1, dz2]
            if v:
                DFh = sys.eval_DF(hy, y)
                D2F = sys.eval_D2F(hy, y)
                Sx = np.einsum("...icd,...ca,...db->...iab", D2F, V1, V1)
                parts.append(np.einsum("...ij,...jab->...iab", DFh[..., :, :m], v[0])
                             + np.einsum("...ij,...jab->...iab", DFh[..., :, m:], z2) + Sx)
            return blocks.join(u.shape[:-1], *parts)

        return fld

    u0 = back.join((B,), etas, np.eye(n), np.zeros((n, n, n)))
    read = _joint_reader(h, dh, GridFunction(grid, W2))
    uf = two_pass(make_field(read, back), make_field(read, fwd), u0,
                  lambda u_T: fwd.join((B,), *back.split(u_T), np.zeros((m, n, n))),
                  T, cfg_int)
    return fwd.split(uf)[3].reshape(grid.shape + (m, n, n))


def _jet_system(m=2, n=2, seed=0):
    """A system whose fields and derivatives are fixed random tensors scaled by
    1 + |y|^2: only the shapes matter to a byte comparison of two maps, and
    every term of the order-2 map is nonzero (Q1 has D g = 0)."""
    rng = np.random.default_rng(seed)
    d = m + n
    DF, Dg = rng.standard_normal((m, d)), rng.standard_normal((n, d))
    D2F, D2g = rng.standard_normal((m, d, d)), rng.standard_normal((n, d, d))

    def scaled(T):
        return lambda x, y: (1.0 + np.sum(y * y, axis=-1))[(...,) + (None,) * T.ndim] * T

    return FastSlowSystem(
        m=m, n=n, F=lambda x, y: -x, g=lambda x, y: 0.1 * y, A0=lambda y: -np.eye(m),
        domain=GridDomain([-1.0] * n, [1.0] * n, [5] * n),
        DF=scaled(DF), Dg=scaled(Dg), D2F=scaled(D2F), D2g=scaled(D2g))


def _candidate(sys, value_shape, seed):
    """A random candidate derivative field: nonzero, so every term of the map acts."""
    return 0.5 * np.random.default_rng(seed).standard_normal(sys.domain.shape + value_shape)


class TestDerivativeMap:
    """The one order-k derivative map gives the bytes of the two maps it replaced."""

    CFG = IntegratorConfig(dt=0.05)

    @pytest.mark.parametrize("solved", ["q1_solved", "coupled_solved"])
    def test_order_1_matches_reference_bytes(self, solved, request):
        sys, _, h, *_ = request.getfixturevalue(solved)
        w = GridFunction(sys.domain, _candidate(sys, (sys.m, sys.n), 0))
        got = _derivative_map(sys, (h, w), 3.0, self.CFG)
        assert got.tobytes() == _reference_dh_apply(sys, h, w, 3.0, self.CFG).tobytes()

    def test_order_2_q1_matches_reference_bytes(self, q1_solved, q1_dh_solved):
        sys, _, h, _ = q1_solved
        dh, _ = q1_dh_solved
        W2 = _candidate(sys, (sys.m, sys.n, sys.n), 1)
        got = _derivative_map(sys, (h, dh, GridFunction(sys.domain, W2)), 3.0, self.CFG)
        assert got.tobytes() == _reference_d2h_apply(sys, h, dh, W2, 3.0, self.CFG).tobytes()

    @pytest.mark.parametrize("order", [1, 2])
    def test_every_term_matches_reference_bytes(self, order):
        sys = _jet_system()
        h = GridFunction(sys.domain, _candidate(sys, (sys.m,), 2))
        dh = GridFunction(sys.domain, _candidate(sys, (sys.m, sys.n), 3))
        if order == 1:
            got = _derivative_map(sys, (h, dh), 1.0, self.CFG)
            want = _reference_dh_apply(sys, h, dh, 1.0, self.CFG)
        else:
            W2 = _candidate(sys, (sys.m, sys.n, sys.n), 4)
            got = _derivative_map(sys, (h, dh, GridFunction(sys.domain, W2)), 1.0, self.CFG)
            want = _reference_d2h_apply(sys, h, dh, W2, 1.0, self.CFG)
        assert np.all(got != 0) and got.tobytes() == want.tobytes()


class TestDriftReadingNoX:
    """L1, Q1 and NF1 declare a slow drift that reads no x: D_x g = 0 leaves
    the derivative map's image independent of its candidate, so `dh_solve`
    and `d2h_solve` apply the map once and keep its image."""

    CFG = IntegratorConfig(dt=0.1)

    @pytest.mark.parametrize("name, order", [("L1", 1), ("L1", 2), ("Q1", 1), ("Q1", 2),
                                             ("NF1", 1)])
    def test_image_does_not_depend_on_candidate_bytes(self, name, order):
        sys = systems.EXAMPLES[name].build(**({"m": 16, "points": 11} if name == "NF1" else {}))
        assert sys.drift_reads_x is False
        # h (and Dh at order 2) random: the claim holds on any graph
        fields = [GridFunction(sys.domain, _candidate(sys, (sys.m,) + (sys.n,) * k, k))
                  for k in range(order)]
        shape = (sys.m,) + (sys.n,) * order

        def image(W):
            return _derivative_map(sys, (*fields, GridFunction(sys.domain, W)), 2.0, self.CFG)

        first = image(np.zeros(sys.domain.shape + shape))
        for W in (first, _candidate(sys, shape, 9)):
            assert image(W).tobytes() == first.tobytes()

    @pytest.mark.parametrize("solved", ["l1_solved", "q1_solved"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_solves_equal_the_swept_map(self, solved, order, request, monkeypatch):
        """The same values and residuals as the system declared to read x,
        whose solve sweeps the map for real; one map application, not two."""
        sys, cert, h, _ = request.getfixturevalue(solved)
        fields = (h,) if order == 1 else (h, dh_solve(sys, h, cert, self.CFG)[0])
        maps = count_calls(monkeypatch, manifold, "_derivative_map")
        got = []
        for s in (sys, replace(sys, drift_reads_x=True)):
            maps.calls = 0
            if order == 1:
                w, rep = dh_solve(s, h, cert, self.CFG)
            else:
                w, rep = d2h_solve(s, *fields, cert, self.CFG)
            got.append((w.values.tobytes(), rep.residuals, maps.calls))
        (declared, res, calls), (swept, swept_res, swept_calls) = got
        assert declared == swept and res == swept_res
        # the swept map's last sweep recomputes the image: residual 0.0
        assert calls == 1 and swept_calls == len(swept_res) and res[-1] == 0.0


class TestSlowPathOnce:
    """Where the drift reads no x, `lp_solve` integrates the slow path once per
    solve, `lp_map_batch` once per batch on one (N, n) block, and the
    derivative maps' backward pass reads no grid.  Every result keeps the
    bytes of the same system declared to read x, which runs the full path."""

    CFG = IntegratorConfig(dt=0.1)

    @staticmethod
    def _results(sys, cert, order, cfg):
        """lp_solve's h and residuals, ten lp_map_batch images (as in the
        contraction check), and the derivative solves up to `order`."""
        h, rep = lp_solve(sys, cert, cfg)
        rng = np.random.default_rng(1)
        sigmas = [_random_ball_sigma(sys, sys.domain, cert.ball_radius, rng)
                  for _ in range(10)]
        out = [h.values.tobytes(), rep.residuals]
        out += [s.values.tobytes() for s in lp_map_batch(sys, sigmas, cert, cfg)]
        dh, dh_rep = dh_solve(sys, h, cert, cfg)
        out += [dh.values.tobytes(), dh_rep.residuals]
        if order == 2:
            d2, d2_rep = d2h_solve(sys, h, dh, cert, cfg)
            out += [d2.values.tobytes(), d2_rep.residuals]
        return out

    @pytest.mark.parametrize("name, order", [("L1", 2), ("Q1", 2), ("NF1", 1)])
    def test_equals_the_full_path_bytes(self, name, order):
        example = systems.EXAMPLES[name]
        sys = example.build(**({"m": 16} if name == "NF1" else {}))
        assert sys.drift_reads_x is False
        cert = assemble_certificate(sys, self.CFG, seed=0, x_radius=example.sampling_radius)
        got = self._results(sys, cert, order, self.CFG)
        want = self._results(replace(sys, drift_reads_x=True), cert, order, self.CFG)
        assert len(got) == len(want) == 14 + 2 * (order - 1) and got == want

    def test_lp_solve_passes(self, q1, monkeypatch):
        """sweeps + 1 RK4 passes (one backward, one forward per sweep), where
        the declared full path makes two per sweep."""
        sys, cert = q1
        passes = count_calls(monkeypatch, integrate, "_rk4")
        for s, per_sweep, once in ((sys, 1, 1), (replace(sys, drift_reads_x=True), 2, 0)):
            passes.calls = 0
            _, rep = lp_solve(s, cert, self.CFG)
            assert rep.iterations >= 2 and passes.calls == per_sweep * rep.iterations + once

    def test_lp_map_batch_integrates_one_backward_block(self, q1, monkeypatch):
        sys, cert = q1
        shapes, rk4 = [], integrate._rk4
        monkeypatch.setattr(integrate, "_rk4",
                            lambda f, u0, *a: shapes.append(np.shape(u0)) or rk4(f, u0, *a))
        N = sys.domain.node_count
        for k in (1, 2, 10):
            shapes.clear()
            lp_map_batch(sys, _ball_sigmas(sys, cert, k, seed=k), cert, self.CFG, horizon=2.0)
            assert shapes == [(N, 1), (k, N, 2)]


class TestBadHorizon:
    @pytest.mark.parametrize("horizon", [-5.0, 0.0, np.inf, np.nan])
    def test_rejected_before_any_pass(self, q1, horizon, monkeypatch):
        """A non-finite or non-positive horizon is a ValueError before any
        RK4 pass (-5 used to run 60 diverging sweeps, inf and nan to raise
        from the step count)."""
        sys, cert = q1
        zero = GridFunction.zeros(sys.domain, (1,))
        passes = count_calls(monkeypatch, integrate, "_rk4")
        for call in (lambda: lp_solve(sys, cert, CFG, horizon=horizon),
                     lambda: lp_map(sys, zero, cert, CFG, horizon=horizon),
                     lambda: lp_map_batch(sys, [zero, zero], cert, CFG, horizon=horizon),
                     lambda: eqv_residual(sys, zero, cert, CFG, horizon=horizon),
                     lambda: bounded_solution_batch(sys, zero, sys.domain.node_coords(),
                                                    horizon, CFG)):
            with pytest.raises(ValueError, match="horizon must be positive and finite"):
                call()
        assert passes.calls == 0


class TestEpsilonContinuity:
    def test_l1_gap_halves(self):
        cert = ConstantsCertificate(K=1, mu=1, M0=0.5, M1x=0.0, M1y=1.0,
                                    N0=0.1, N1=0.0, delta=2.0, rho=2.0)
        sups = []
        h0, _ = lp_solve(build_l1(eps=0.0), cert, CFG)
        for eps in (0.1, 0.05, 0.025):
            he, _ = lp_solve(build_l1(eps=eps), cert, CFG)
            sups.append(np.max(np.abs(he.values - h0.values)))
        assert sups[1] / sups[0] == pytest.approx(0.5, abs=0.075)
        assert sups[2] / sups[1] == pytest.approx(0.5, abs=0.075)


class TestUniquenessSurrogate:
    def test_two_sided_bounded_orbit_lies_on_manifold(self, q1_solved):
        # backward-forward shooting: any orbit bounded on both ends must sit
        # on the manifold at t = 0
        sys, cert, h, _ = q1_solved
        from slowfast.integrate import bounded_solution_batch
        etas = np.array([-0.7, 0.0, 0.6])
        phi = bounded_solution_batch(sys, h, etas[:, None], cert.lp_horizon(1e-9), CFG)
        assert np.max(np.abs(phi[:, 0] - q1_h(etas, 0.1))) <= 1e-7
