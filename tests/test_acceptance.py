"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test records a one-line PASS/FAIL verdict that the terminal summary
prints (see conftest.pytest_terminal_summary).
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import record_criterion
from slowfast.certify import (assemble_certificate, estimate_process_bound,
                              frozen_coefficient_window, frozen_drivers,
                              straightened_constants)
from slowfast.core import FastSlowSystem, GridDomain, GridFunction
from slowfast.harness import _random_ball_sigma
from slowfast.integrate import IntegratorConfig, flow, rk4_path
from slowfast.manifold import (d2h_solve, dh_solve, eqv_residual,
                               fd_derivative_error, invariance_residual,
                               lp_map_batch, lp_solve)
from slowfast.reduction import (attraction_rate_fit, e_norm_sweep,
                                q_along_orbit, semiconjugacy_residual,
                                straighten)
from slowfast.systems import (build_l1, build_nf1, build_q1, l1_h,
                              nf1_profile_interp, q1_dh, q1_h)

DT = IntegratorConfig(dt=0.01)
DT5 = IntegratorConfig(dt=0.005)


def q1_analytic_straight(q1_pair, eps):
    sys = build_q1(eps=eps)
    cert = assemble_certificate(sys, DT, seed=0, x_radius=2.0)
    h = lambda y: q1_h(y[..., 0], eps)[..., None]
    dh = lambda y: q1_dh(y[..., 0], eps)[..., None, None]
    d2h = lambda y: np.full(np.asarray(y).shape[:-1] + (1, 1, 1), 2.0)
    ssys = straighten(sys, h, dh, d2h=d2h)
    dh_sup = float(np.max(np.abs(q1_dh(sys.domain.node_coords()[:, 0], eps))))
    return sys, ssys, straightened_constants(cert, dh_sup)


def test_criterion_01_exact_fixed_points(l1, q1):
    t0 = time.time()
    sys1, cert1 = l1
    h1, rep1 = lp_solve(sys1, cert1, DT)
    t_l1 = time.time() - t0
    nodes1 = sys1.domain.node_coords()
    err_l1 = float(np.max(np.abs(h1(nodes1)[:, 0] - l1_h(nodes1[:, 0], 0.1))))

    t0 = time.time()
    sysq, certq = q1
    hq, repq = lp_solve(sysq, certq, DT)
    t_q1 = time.time() - t0
    nodesq = sysq.domain.node_coords()
    err_q1 = float(np.max(np.abs(hq(nodesq)[:, 0] - q1_h(nodesq[:, 0], 0.1))))

    ok = err_l1 <= 1e-6 and err_q1 <= 1e-5 and t_l1 <= 30.0 and t_q1 <= 30.0
    record_criterion(1, ok, f"L1 sup err {err_l1:.2e} (<=1e-6, {t_l1:.1f}s), "
                            f"Q1 sup err {err_q1:.2e} (<=1e-5, {t_q1:.1f}s)")
    assert err_l1 <= 1e-6
    assert err_q1 <= 1e-5
    assert t_l1 <= 30.0 and t_q1 <= 30.0


def _measured_ratio(sys, cert, grid_points, n_pairs, seed):
    grid = GridDomain(sys.domain.lower, sys.domain.upper, [grid_points])
    rng = np.random.default_rng(seed)
    radius = cert.ball_radius
    sigmas, gaps = [], []
    for _ in range(n_pairs):
        s1 = _random_ball_sigma(sys, grid, radius, rng)
        s2 = _random_ball_sigma(sys, grid, radius, rng)
        gap = float(np.max(sys.norm_x(s2.values - s1.values)))
        if gap != 0:
            sigmas += [s1, s2]
            gaps.append(gap)
    images = lp_map_batch(sys, sigmas, cert, DT)      # all pairs in one two-pass
    worst = 0.0
    for gap, l1, l2 in zip(gaps, images[0::2], images[1::2]):
        d = float(np.max(sys.norm_x(l2.values - l1.values)))
        worst = max(worst, d / gap)
    return worst


def test_criterion_02_contraction_certification(q1, coupled):
    sysq, certq = q1
    ratio_q = _measured_ratio(sysq, certq, 41, 10, seed=21)
    bound_q = certq.lp_ratio() * 1.05
    sysc, certc = coupled
    ratio_c = _measured_ratio(sysc, certc, 41, 10, seed=22)
    bound_c = certc.lp_ratio() * 1.05
    ok = ratio_q <= bound_q and ratio_c <= bound_c
    record_criterion(2, ok, f"measured ratios {ratio_q:.2e} <= {bound_q:.3f} (Q1), "
                            f"{ratio_c:.2e} <= {bound_c:.3f} (coupled), 20 pairs")
    assert ratio_q <= bound_q
    assert ratio_c <= bound_c


def test_criterion_03_norm_bound(l1, q1, nf1):
    details, ok = [], True
    for name, (sys, cert), builder, kw in (
            ("L1", l1, build_l1, {}),
            ("Q1", q1, build_q1, {}),
            ("NF1", nf1, build_nf1, {"m": 64, "points": 41})):
        sys0 = builder(eps=0.0, **kw)
        h0, _ = lp_solve(sys0, cert, DT)
        bound = cert.K * cert.M0 / cert.mu \
            + cert.K * cert.M1y / (cert.mu - cert.K * cert.M1x)
        sup = h0.sup_norm()
        ok = ok and sup <= 0.99 * bound
        details.append(f"{name} {sup:.4f}<=0.99*{bound:.4f}")
        assert sup <= 0.99 * bound
    record_criterion(3, ok, "; ".join(details))


def test_criterion_04_epsilon_continuity(l1, q1):
    details, ok = [], True
    for name, (sys, cert), builder in (("L1", l1, build_l1), ("Q1", q1, build_q1)):
        h0, _ = lp_solve(builder(eps=0.0), cert, DT)
        gaps = []
        for eps in (0.1, 0.05, 0.025):
            he, _ = lp_solve(builder(eps=eps), cert, DT)
            gaps.append(float(np.max(sys.norm_x(he.values - h0.values))))
        r1, r2 = gaps[1] / gaps[0], gaps[2] / gaps[1]
        good = 0.35 <= r1 <= 0.65 and 0.35 <= r2 <= 0.65
        ok = ok and good
        details.append(f"{name} ratios {r1:.3f},{r2:.3f}")
        assert good
    record_criterion(4, ok, "; ".join(details) + " in [0.35, 0.65]")


def test_criterion_05_derivative_correctness(l1_solved, q1_solved, q1_dh_solved):
    sys1, cert1, h1, _ = l1_solved
    dh1, _ = dh_solve(sys1, h1, cert1, DT)
    fd_l1 = fd_derivative_error(h1, dh1)

    sysq, certq, hq, _ = q1_solved
    dhq, _ = q1_dh_solved
    fd_q1 = fd_derivative_error(hq, dhq)

    d2, _ = d2h_solve(sysq, hq, dhq, certq, DT)
    d2_err = float(np.max(np.abs(d2.values - 2.0)))

    ok = fd_l1 <= 1e-4 and fd_q1 <= 1e-4 and d2_err <= 1e-3
    record_criterion(5, ok, f"dh fd errors {fd_l1:.2e}, {fd_q1:.2e} (<=1e-4); "
                            f"Q1 d2h vs 2: {d2_err:.2e} (<=1e-3)")
    assert fd_l1 <= 1e-4
    assert fd_q1 <= 1e-4
    assert d2_err <= 1e-3


def test_criterion_06_attraction_rate(l2_straight, q1):
    ssys_l2, scert_l2 = l2_straight
    res = q_along_orbit(ssys_l2, [1.0], [0.0], scert_l2, DT5)
    fit_l2 = attraction_rate_fit(ssys_l2, res, 10.0, DT5, cert=scert_l2)
    rate_l2_req = 0.95 * scert_l2.mu

    _, ssys_q, scert_q = q1_analytic_straight(q1, eps=0.05)
    resq = q_along_orbit(ssys_q, [0.4], [-0.3], scert_q, DT5)
    fit_q = attraction_rate_fit(ssys_q, resq, 10.0, DT5, cert=scert_q)
    rate_q_req = 0.95 * scert_q.mu

    ok = (fit_l2.rate >= rate_l2_req and fit_l2.r2 >= 0.99
          and fit_q.rate >= rate_q_req and fit_q.r2 >= 0.99)
    record_criterion(6, ok, f"rates L2 {fit_l2.rate:.3f}>={rate_l2_req:.3f} "
                            f"(r2 {fit_l2.r2:.4f}), Q1 {fit_q.rate:.3f}>="
                            f"{rate_q_req:.3f} (r2 {fit_q.r2:.4f})")
    assert fit_l2.rate >= rate_l2_req and fit_l2.r2 >= 0.99
    assert fit_q.rate >= rate_q_req and fit_q.r2 >= 0.99


def test_criterion_07_semiconjugacy(l2_straight, q1):
    ssys_l2, scert_l2 = l2_straight
    res = q_along_orbit(ssys_l2, [1.0], [0.0], scert_l2, DT5)
    semi_l2 = semiconjugacy_residual(ssys_l2, res, 10.0, DT5, cert=scert_l2)

    _, ssys_q, scert_q = q1_analytic_straight(q1, eps=0.05)
    resq = q_along_orbit(ssys_q, [0.4], [-0.3], scert_q, DT5)
    semi_q = semiconjugacy_residual(ssys_q, resq, 10.0, DT5, cert=scert_q)

    ok = semi_l2 <= 1e-5 and semi_q <= 1e-5
    record_criterion(7, ok, f"max semiconjugacy residual over [0,10]: "
                            f"L2 {semi_l2:.2e}, Q1 {semi_q:.2e} (<=1e-5)")
    assert semi_l2 <= 1e-5
    assert semi_q <= 1e-5


def test_criterion_08_e_norm_bound(l2_straight, q1, coupled_straight):
    rng = np.random.default_rng(88)
    details, ok = [], True
    _, ssys_q, scert_q = q1_analytic_straight(q1, eps=0.1)
    for name, (ssys, scert) in (("L2", l2_straight), ("Q1", (ssys_q, scert_q)),
                                ("coupled", coupled_straight)):
        dom = ssys.domain
        sample = dom.lower + (dom.upper - dom.lower) \
            * rng.uniform(0.05, 0.95, (100, dom.n))
        xis = rng.uniform(-0.8, 0.8, (100, ssys.m))
        _, _, ratios = e_norm_sweep(ssys, xis, sample, scert, DT)
        mu_p = scert.mu
        bound = scert.K * scert.N1 / max(mu_p - scert.K * scert.N1, 1e-300)
        good = bool(np.max(ratios) <= bound * 1.05 + 1e-12)
        ok = ok and good
        details.append(f"{name} max {np.max(ratios):.4f} <= {bound * 1.05:.4f}")
        assert good
    record_criterion(8, ok, "; ".join(details) + " (100 queries each)")


def _window_family():
    """2x2 slowly rotating non-normal family meeting the drift premise."""
    B = np.array([[-1.0, 3.0], [0.0, -2.0]])
    omega = 0.02

    def A_of(t):
        c, s = np.cos(omega * t), np.sin(omega * t)
        R = np.array([[c, -s], [s, c]])
        return R @ B @ R.T

    return B, omega, A_of


def test_criterion_09_window_lemma_and_counterexamples():
    B, omega, A_of = _window_family()
    mu = 1.0
    # frozen-envelope oracle: K = sup_t ||e^{Bt}|| e^{mu t} by dense expm sampling
    ts = np.linspace(0, 14, 1500)[1:]
    K = max(1.0, max(np.linalg.norm(expm(B * t), 2) * np.exp(mu * t) for t in ts))
    eps = 0.5
    l = frozen_coefficient_window(K, mu, eps)
    assert l == pytest.approx(np.log(K) / eps, rel=1e-12)
    # drift premise: ||A(t) - A(s)|| <= eps/K for |t-s| <= l
    drift = max(np.linalg.norm(A_of(t + l) - A_of(t), 2)
                for t in np.linspace(0, 10, 50))
    assert drift <= eps / K

    cfg = IntegratorConfig(dt=0.005)
    starts = np.linspace(0.0, 6.0, 32)
    worst = 0.0
    n_pairs = 0
    for s in starts:
        def lin(t, V):
            return A_of(t) @ V
        times, mats = rk4_path(lin, np.eye(2), s, s + 8.0, 1600)
        for idx in np.linspace(40, 1600, 32).astype(int):
            gap = times[idx] - s
            ratio = np.linalg.norm(mats[idx], 2) / (K * np.exp(-(mu - eps) * gap))
            worst = max(worst, ratio)
            n_pairs += 1
    assert n_pairs >= 1000
    window_ok = worst <= 1.02

    # first counterexample family: transient growth K(nu) increases
    def jordan(nu):
        A = np.array([[-1.0, nu], [0.0, -1.0]])
        return FastSlowSystem(m=2, n=1, F=lambda x, y: x @ A.T,
                              g=lambda x, y: np.zeros_like(y),
                              A0=lambda y: np.broadcast_to(A, y.shape[:-1] + (2, 2)).copy(),
                              domain=GridDomain([-1.0], [1.0], [2]))

    Ks = []
    for nu in (1.0, 3.0, 5.0):
        Knu, _ = estimate_process_bound(jordan(nu), frozen_drivers([[0.0]]), 12.0, DT)
        Ks.append(Knu)
    jordan_ok = Ks[0] < Ks[1] < Ks[2]

    # second: rotation family amplification |x(pi/2)| = nu e^{-pi/2}
    nu = 7.0
    A = np.array([[-1.0, -1.0], [nu ** 2, -1.0]])
    rot = FastSlowSystem(m=2, n=1, F=lambda x, y: x @ A.T,
                         g=lambda x, y: np.zeros_like(y),
                         A0=lambda y: np.broadcast_to(A, y.shape[:-1] + (2, 2)).copy(),
                         domain=GridDomain([-1.0], [1.0], [2]))
    p = flow(rot, [1.0, 0.0], [0.0], (0.0, np.pi / 2),
             IntegratorConfig(dt=0.0005))
    amp = float(np.linalg.norm(p.fast[-1]))
    exact = nu * np.exp(-np.pi / 2)
    rot_ok = abs(amp - exact) <= 0.01 * exact

    ok = window_ok and jordan_ok and rot_ok
    record_criterion(9, ok, f"window envelope ratio {worst:.3f}<=1.02 "
                            f"({n_pairs} pairs), K(nu) {Ks[0]:.2f}<{Ks[1]:.2f}"
                            f"<{Ks[2]:.2f}, |x(pi/2)| {amp:.4f} vs {exact:.4f}")
    assert window_ok and jordan_ok and rot_ok


def test_criterion_10_banach_discretization(nf1, nf1_solved):
    from slowfast.certify import spectral_gap_check

    sys, cert, h, rep = nf1_solved
    gap = spectral_gap_check(sys, h, 0.5)
    margin_ok = gap.margin >= 0.5 - 1e-9

    inv = invariance_residual(sys, h, [0.75], 5.0, DT)
    inv_ok = inv.max_deviation <= 1e-4 and not inv.partial

    # self-convergence under joint (m, slow grid) doubling
    probes_y = np.linspace(0.553, 1.447, 7)[:, None]
    probes_xi = np.linspace(0.037, 0.963, 17)
    profiles = []
    for m, pts in ((16, 11), (32, 21), (64, 41)):
        s = build_nf1(eps=0.01, m=m, points=pts)
        hh, _ = lp_solve(s, cert, DT)
        profiles.append(nf1_profile_interp(hh(probes_y), s.meta["nodes"], probes_xi))
    d1 = float(np.max(np.abs(profiles[0] - profiles[1])))
    d2 = float(np.max(np.abs(profiles[1] - profiles[2])))
    order = float(np.log2(d1 / d2))
    order_ok = order >= 1.8

    ok = margin_ok and rep.converged and inv_ok and order_ok
    record_criterion(10, ok, f"gap margin {gap.margin:.6f}>=0.5, converged="
                             f"{rep.converged}, invariance {inv.max_deviation:.2e}"
                             f"<=1e-4, order {order:.2f}>=1.8")
    assert margin_ok and rep.converged and inv_ok and order_ok


def test_criterion_11_equivalence_residual(l1_solved, q1_solved, l2, nf1_solved,
                                           vdp_solved):
    sys2, cert2 = l2
    cases = {
        "L1": l1_solved[:3],
        "Q1": q1_solved[:3],
        "L2": (sys2, cert2, GridFunction.zeros(sys2.domain, (1,))),
        "NF1": nf1_solved[:3],
        "VDP-cut": vdp_solved[:3],
    }
    details, ok = [], True
    for name, (sys, cert, h) in cases.items():
        res = eqv_residual(sys, h, cert, DT)
        good = res <= 1e-5
        perturbed = h.with_values(h.values + 0.1)
        res_p = eqv_residual(sys, perturbed, cert, DT)
        good = good and res_p >= 0.05
        ok = ok and good
        details.append(f"{name} {res:.1e}/{res_p:.2f}")
        assert res <= 1e-5, name
        assert res_p >= 0.05, name
    record_criterion(11, ok, "converged/perturbed residuals: " + "; ".join(details))
