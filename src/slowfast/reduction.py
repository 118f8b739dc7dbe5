"""Slow-manifold reduction: the straightening transform, the orbit-local fixed
point for the slow projection defect Q, the reduction map P = id_y - Q with its
first derivative, and the matched-asymptotics decomposition of orbits.

Q is never built as a global grid function over the full phase space; the
defining integral only ever consumes Q along the forward orbit of the queried
point, so each query iterates a functional on that orbit's own time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import ConstantsCertificate
from .core import FastSlowSystem, GridFunction, _Blocks, _graph_transform, _joint_reader
from .errors import CapabilityError, PreconditionError, UnderdeterminedError
from .integrate import (ContractionReport, IntegratorConfig, OrbitPath, _full_field, _jet,
                        _sweep, flow, rk4_final, rk4_path)


TOL_DEFECT = 1e-10      # a query's defect sweep residual; sets its and dp_point's horizons
TOL_E_NORM = 1e-9       # e_norm_sweep's defect sweep residual; sets its horizon


def straighten(sys: FastSlowSystem, h, dh, d2h=None) -> FastSlowSystem:
    """The system in graph coordinates xt = x - h(y), itself a fast-slow system:

        Ft(xt, y) = F(xt + h(y), y) - Dh(y) g(xt + h(y), y),
        gt(xt, y) = g(xt + h(y), y),

    with the manifold at {xt = 0}.  h, dh may be GridFunctions (from
    lp_solve/dh_solve) or smooth callables.  Every evaluation but gt's reads
    the jet (h(y), Dh(y)) once: by one interpolation of both when they are
    grid functions on one grid, else by a call of each; gt reads h alone, and
    the joint field eval_Fg evaluates g once.  Its DF needs the second
    derivative of h; without d2h the straightened system carries no DF and
    derivative-consuming operations will raise.  gt reads xt only where g
    reads x, so the straightened system keeps `sys.drift_reads_x`.  The
    transform is the one `core.localize` shifts by.
    """
    shifted, lin = _graph_transform(sys)
    m = sys.m

    if isinstance(h, GridFunction) and isinstance(dh, GridFunction) and h._same_grid(dh):
        jet = _joint_reader(h, dh)
    else:
        def jet(y):
            return np.asarray(h(y), dtype=float), np.asarray(dh(y), dtype=float)

    def Ft(xt, y):
        return shifted(xt, y, *jet(y))[0]

    def gt(xt, y):
        return sys.eval_g(xt + np.asarray(h(y), dtype=float), y)

    def Fgt(xt, y):
        return np.concatenate(shifted(np.asarray(xt, dtype=float), y, *jet(y)), axis=-1)

    DFt = Dgt = None
    if sys.has_derivatives(1):
        def slow_blocks(x, y, dhy):
            # the slow rows of the straightened Jacobian: D_x g, D_y g + D_x g Dh
            Dg = sys.eval_Dg(x, y)
            dxg = Dg[..., :, :m]
            return dxg, Dg[..., :, m:] + np.einsum("...ij,...jk->...ik", dxg, dhy)

        def Dgt(xt, y):
            hy, dhy = jet(y)
            return np.concatenate(slow_blocks(xt + hy, y, dhy), axis=-1)

        if d2h is not None:
            def DFt(xt, y):
                hy, Dh = jet(y)
                x = xt + hy
                DF = sys.eval_DF(x, y)
                dxF, dyF = DF[..., :, :m], DF[..., :, m:]
                dxg, dyt = slow_blocks(x, y, Dh)
                dx = dxF - np.einsum("...ij,...jk->...ik", Dh, dxg)
                dy = (dyF + np.einsum("...ij,...jk->...ik", dxF, Dh)
                      - np.einsum("...iab,...b->...ia", np.asarray(d2h(y), dtype=float),
                                  sys.eval_g(x, y))
                      - np.einsum("...ij,...jk->...ik", Dh, dyt))
                return np.concatenate([dx, dy], axis=-1)

    return FastSlowSystem(m=m, n=sys.n, F=Ft, g=gt, A0=lambda y: lin(y, *jet(y)),
                          domain=sys.domain, DF=DFt, Dg=Dgt, norm_kind=sys.norm_kind,
                          Fg=Fgt, drift_reads_x=sys.drift_reads_x)


@dataclass
class ReductionResult:
    """Outcome of one reduction query at (xi, eta)."""

    P: np.ndarray                 # projected slow base point
    Q: np.ndarray                 # eta - P
    E_ratio: float                # |Q| / |xi| (0 for xi = 0)
    report: ContractionReport
    xi: np.ndarray
    eta: np.ndarray
    horizon: float
    orbit: Optional[OrbitPath] = None

    def to_dict(self):
        return {
            "P": self.P.tolist(), "Q": self.Q.tolist(),
            "E_ratio": self.E_ratio, "horizon": self.horizon,
            "xi": self.xi.tolist(), "eta": self.eta.tolist(),
            "converged": self.report.converged,
            "sweeps": self.report.iterations,
            "measured_ratio": self.report.measured_ratio,
            "theoretical_ratio": self.report.theoretical_ratio,
        }


def _defect_sweep(sys_t, times, xts, ys, report, tol):
    """Iterate the defect functional to its fixed point q on sampled orbits.

    xts, ys have shape (S, ..., m) and (S, ..., n) over the S sample times;
    the axes between are a batch of orbits sharing the time grid.  Appends
    the sweep residuals (max over the batch) to `report`; returns q.
    """
    dts = np.diff(times).reshape((-1,) + (1,) * (ys.ndim - 1))
    g_orbit = sys_t.eval_g(xts, ys)
    zeros = np.zeros_like(xts)

    def apply(q):
        integrand = sys_t.eval_g(zeros, ys - q) - g_orbit
        seg = 0.5 * (integrand[1:] + integrand[:-1]) * dts
        return np.concatenate([np.cumsum(seg[::-1], axis=0)[::-1],
                               np.zeros((1,) + ys.shape[1:])], axis=0)

    return _sweep("defect", apply, np.zeros_like(ys), report, tol,
                  lambda d: np.linalg.norm(d, axis=-1))


def q_along_orbit(sys_t: FastSlowSystem, xi, eta, cert: ConstantsCertificate,
                  cfg_int: IntegratorConfig = IntegratorConfig()) -> ReductionResult:
    """Fixed point of the orbit-local defect functional

        q_{k+1}(t) = int_t^T [ gt(0, y(s) - q_k(s)) - gt(xt(s), y(s)) ] ds

    from q_0 = 0 on the forward orbit of (xi, eta) of the straightened system
    sys_t; P = eta - q(0).  The measured sweep ratio must respect the
    certified factor `cert.defect_ratio()` = K N1 / mu', which also checks the
    reduction budget.  The sweep stops at TOL_DEFECT, which also sets the
    forward horizon `cert.forward_horizon(|xi|, TOL_DEFECT)`.

    `cert` carries the straightened constants: its mu is the straightened
    decay rate and its N1 the straightened slow Lipschitz constant.
    """
    report = ContractionReport(theoretical_ratio=cert.defect_ratio())
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    xin = float(sys_t.norm_x(xi))
    T = cert.forward_horizon(xin, TOL_DEFECT)

    if T == 0.0:
        report.converged = True
        return ReductionResult(P=eta.copy(), Q=np.zeros(sys_t.n), E_ratio=0.0,
                               report=report, xi=xi, eta=eta, horizon=0.0)

    orbit = flow(sys_t, xi, eta, (0.0, T), cfg_int)
    q = _defect_sweep(sys_t, orbit.times, orbit.fast, orbit.slow, report, TOL_DEFECT)
    Q = q[0].copy()
    P = eta - Q
    e_ratio = float(np.linalg.norm(Q)) / xin if xin > 0 else 0.0
    return ReductionResult(P=P, Q=Q, E_ratio=e_ratio, report=report,
                           xi=xi, eta=eta, horizon=T, orbit=orbit)


def e_norm_sweep(sys_t: FastSlowSystem, xis, etas, cert: ConstantsCertificate,
                 cfg_int: IntegratorConfig = IntegratorConfig()):
    """Defect queries for a whole batch of (xi, eta) pairs at once.

    Integrates all orbits jointly over the longest needed horizon, then runs
    the defect sweep of q_along_orbit on the whole batch, to TOL_E_NORM.  Returns
    (P (B, n), Q (B, n), E_ratio (B,)).
    """
    cert.defect_ratio()                     # the reduction budget
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    xi_norms = sys_t.norm_x(xis)
    T = max(cert.forward_horizon(float(np.max(xi_norms)), TOL_E_NORM), 2 * cfg_int.dt)
    times, states = rk4_path(_full_field(sys_t), np.concatenate([xis, etas], axis=-1),
                             0.0, T, cfg_int.steps_for(T))
    q = _defect_sweep(sys_t, times, states[..., : sys_t.m], states[..., sys_t.m:],
                      ContractionReport(), TOL_E_NORM)
    Q = q[0]
    P = etas - Q
    ratios = np.where(xi_norms > 0, np.linalg.norm(Q, axis=-1) / np.maximum(xi_norms, 1e-300), 0.0)
    return P, Q, ratios


def projected_flow(sys_t: FastSlowSystem, P, t_span, cfg_int) -> OrbitPath:
    """Flow of the straightened system started on the manifold, (0, P)."""
    return flow(sys_t, np.zeros(sys_t.m), P, t_span, cfg_int)


def _orbit_pair(sys_t, result, t_max, cfg_int, what):
    """The orbit from (xi, eta) and the projected flow from (0, P) of a converged query."""
    if not result.report.converged:
        raise PreconditionError(f"{what} needs a converged result")
    span = (0.0, float(t_max))
    return (flow(sys_t, result.xi, result.eta, span, cfg_int),
            projected_flow(sys_t, result.P, span, cfg_int))


def semiconjugacy_residual(sys_t: FastSlowSystem, result: ReductionResult,
                           t_max, cfg_int: IntegratorConfig, cert: ConstantsCertificate,
                           n_checks=9):
    """max over sampled t of |P(orbit(t)) - y_projected(t)|.

    Re-runs the defect query at points along the orbit and compares with the
    projected slow flow started at (0, P): the two must agree if P really
    semi-conjugates the flow to the on-manifold flow.  `result` comes from
    `q_along_orbit` with the same `cert` and `cfg_int`, so the query at t = 0
    would return its P bit for bit: the samples start after t = 0, so
    `n_checks` counts t = 0 and needs at least 2.
    """
    if n_checks < 2:
        raise ValueError(f"n_checks must be at least 2 (t = 0 and a later time), not {n_checks}")
    orbit, proj = _orbit_pair(sys_t, result, t_max, cfg_int, "semiconjugacy check")
    worst = 0.0
    for t in np.linspace(0.0, float(t_max), n_checks)[1:]:
        xt_t, y_t = orbit.at(t)
        res_t = q_along_orbit(sys_t, xt_t, y_t, cert, cfg_int)
        _, y_proj = proj.at(t)
        worst = max(worst, float(np.linalg.norm(res_t.P - y_proj)))
    return worst


@dataclass(frozen=True)
class ExpFit:
    rate: float
    prefactor: float
    r2: float
    n_used: int


def fit_exponential(samples, noise_floor=1e-12) -> ExpFit:
    """Least-squares fit of value ~ prefactor * exp(-rate * t) on log-values.

    Uses only samples strictly above the noise floor; needs at least five.
    """
    ts, vs = [], []
    for t, v in samples:
        if v > noise_floor:
            ts.append(float(t))
            vs.append(float(v))
    if len(ts) < 5:
        raise UnderdeterminedError(
            f"only {len(ts)} samples above the noise floor {noise_floor:g}")
    t = np.asarray(ts)
    logv = np.log(np.asarray(vs))
    slope, intercept = np.polyfit(t, logv, 1)
    pred = slope * t + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExpFit(rate=-float(slope), prefactor=float(np.exp(intercept)),
                  r2=r2, n_used=len(ts))


@dataclass
class RateFit:
    rate: float
    prefactor: float
    r2: float
    underdetermined: bool = False
    slow_prefactor: Optional[float] = None
    slow_prefactor_bound: Optional[float] = None

    @property
    def slow_prefactor_ok(self):
        if self.slow_prefactor is None or self.slow_prefactor_bound is None:
            return None
        return bool(self.slow_prefactor <= 1.05 * self.slow_prefactor_bound)


def attraction_rate_fit(sys_t: FastSlowSystem, result: ReductionResult,
                        t_max, cfg_int: IntegratorConfig, cert: ConstantsCertificate) -> RateFit:
    """Least-squares exponential fit of |orbit(t) - projected orbit(t)|.

    Fits log-gap over the window where the gap exceeds the noise floor 1e-11; also
    fits the slow-component gap alone and compares its prefactor against the
    certified bound `cert.slow_prefactor_bound(|xi|)` = K E |xi|, E the cap
    `cert.e_ratio_bound()`.
    """
    orbit, proj = _orbit_pair(sys_t, result, t_max, cfg_int, "rate fit")
    noise_floor = 1e-11
    gap = sys_t.norm_xy(orbit.fast - proj.fast, orbit.slow - proj.slow)
    try:
        fit = fit_exponential(list(zip(orbit.times, gap)), noise_floor)
    except UnderdeterminedError:
        return RateFit(rate=float("nan"), prefactor=float("nan"), r2=float("nan"),
                       underdetermined=True)
    out = RateFit(rate=fit.rate, prefactor=fit.prefactor, r2=fit.r2)
    slow_gap = np.linalg.norm(orbit.slow - proj.slow, axis=-1)
    if np.max(slow_gap) > noise_floor:
        sfit = fit_exponential(list(zip(orbit.times, slow_gap)), noise_floor)
        out.slow_prefactor = sfit.prefactor
        out.slow_prefactor_bound = cert.slow_prefactor_bound(float(sys_t.norm_x(result.xi)))
    return out


def dp_point(sys_t: FastSlowSystem, result: ReductionResult,
             cert: ConstantsCertificate, cfg_int: IntegratorConfig = IntegratorConfig()):
    """First derivative of the reduction map at the query point (xi, eta) of
    `result`, integrated over `cert.dp_horizon(|xi|, TOL_DEFECT)`, the horizon
    that pins it to TOL_DEFECT.

    Integrates, in one pass: the straightened orbit, the defect q(t) (by its
    own ODE from the converged Q), the first variational flow U(t), the
    left-evolved reversible slow process Y(s) = Z(0, s), and the accumulating
    defect-derivative integral.  Returns the pair (P1, Q1) with
    P1 = (0, I) - Q1 of shape (n, m+n).
    """
    if not sys_t.has_derivatives(1):
        raise CapabilityError("dp_point needs derivatives of the straightened system "
                              "(smooth h with a second derivative)")
    m, n, d = sys_t.m, sys_t.n, sys_t.m + sys_t.n
    xi, eta = result.xi, result.eta
    T = cert.dp_horizon(float(sys_t.norm_x(xi)), TOL_DEFECT)

    blocks = _Blocks((d,), (n,), (d, d), (n, n), (n, d))     # z = (xt, y), q, U, Y, G
    zeros_m = np.zeros(m)

    def fld(t, u):
        z, q, U, Y, _ = blocks.split(u)
        Fg, J = _jet(sys_t, z)
        p = z[m:] - q
        Az = sys_t.Dyg(zeros_m, p)
        integrand = Y @ (Az @ U[m:, :] - J[m:] @ U)
        return blocks.join((), Fg, Fg[m:] - sys_t.eval_g(zeros_m, p), J @ U, -Y @ Az,
                           integrand)

    u0 = blocks.join((), np.concatenate([xi, eta]), result.Q, np.eye(d), np.eye(n),
                     np.zeros((n, d)))
    Q1 = blocks.split(rk4_final(fld, u0, 0.0, T, cfg_int.steps_for(T))[1])[-1]
    P1 = np.concatenate([np.zeros((n, m)), np.eye(n)], axis=1) - Q1
    return P1, Q1


def decompose_orbit(sys: FastSlowSystem, h, result: ReductionResult, t_max,
                    cfg_int: IntegratorConfig = IntegratorConfig()):
    """Matched-asymptotics split of the original-coordinates orbit:

        orbit(t) = outer(t) + layer(t),

    orbit the flow of `sys` from the query's original point (h(eta) + xi, eta),
    outer the slow-manifold orbit from the projected point (h(P), P), layer
    the exponentially decaying correction.  Returns (orbit, outer, layer).
    Reconstruction is exact by construction; the layer magnitude is the
    caller's to check against the certified decay.
    """
    if not result.report.converged:
        raise PreconditionError("decompose_orbit needs a converged result")
    P = result.P
    x0 = np.asarray(h(result.eta), dtype=float) + result.xi   # original x of the query
    orbit = flow(sys, x0, result.eta, (0.0, float(t_max)), cfg_int)
    outer = flow(sys, np.asarray(h(P), dtype=float), P, (0.0, float(t_max)), cfg_int)
    layer = OrbitPath(orbit.times, orbit.fast - outer.fast, orbit.slow - outer.slow)
    return orbit, outer, layer
