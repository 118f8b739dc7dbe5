"""Slow-manifold computation: the contraction map sigma -> phi(0; ., sigma) on a
ball of Lipschitz grid functions, its fixed point h, the first- and
second-derivative fixed points, and residual diagnostics.

Every node evaluation is a two-pass solve: the slow path is integrated
backward to the truncation horizon, then the coupled (fast, slow[, variational])
system is integrated forward, so that all RK4 stage values are exact field
evaluations (no path interpolation enters the inner loops).  Sweeps are full
Jacobi sweeps: every node reads the previous iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import ConstantsCertificate
from .core import FastSlowSystem, GridFunction, GridStack, _Blocks, _joint_reader
from .errors import (CapabilityError, ContractionError, InfeasibleBudgetError,
                     PreconditionError)
from .integrate import (ContractionReport, IntegratorConfig, _graph_fields, _sweep,
                        bounded_solution_batch, flow, two_pass)


TOL_FIXED_POINT = 1e-9      # sweep residual at which the manifold and derivative solves stop
TOL_BOUNDED = 1e-10         # startup error of the bounded solution; sets the horizons


def _horizon(cert, horizon):
    """The backward horizon: `horizon` if set, else the certificate's lp_horizon."""
    return cert.lp_horizon(TOL_BOUNDED) if horizon is None else float(horizon)


# -- the manifold map ----------------------------------------------------------

def _ball_check(sigma: GridFunction, radius):
    return sigma.ball_norm() <= radius * (1.0 + 1e-12)


def _lp_apply(sys, sigmas, T, cfg_int):
    """One application of the manifold map to each of K candidates on one grid.

    The K node sets run as one (K, N, n) batch through one two-pass; row
    block k reads sigma_k through a GridStack.  Returns the K images.
    """
    grid = sigmas[0].domain
    etas = np.broadcast_to(grid.node_coords(), (len(sigmas), grid.node_count, grid.n))
    vals = bounded_solution_batch(sys, GridStack(sigmas), etas, T, cfg_int)
    return [s.with_values(v.reshape(grid.shape + (sys.m,))) for s, v in zip(sigmas, vals)]


def lp_map_batch(sys: FastSlowSystem, sigmas, cert: ConstantsCertificate,
                 cfg_int: IntegratorConfig = IntegratorConfig(), horizon=None):
    """`lp_map` of each candidate in the list `sigmas` (all on one grid), in one
    batched two-pass; returns the list of images, each equal bit for bit to
    its own `lp_map`.  Every candidate must lie in the certified ball.
    """
    if not cert.budget_ok(cert.delta):
        raise ContractionError("certificate does not satisfy the existence budget")
    sigmas = list(sigmas)
    radius = cert.ball_radius
    for sigma in sigmas:
        if not _ball_check(sigma, radius):
            raise PreconditionError("sigma lies outside the certified ball")
    return _lp_apply(sys, sigmas, _horizon(cert, horizon), cfg_int) if sigmas else []


def lp_map(sys: FastSlowSystem, sigma: GridFunction, cert: ConstantsCertificate,
           cfg_int: IntegratorConfig = IntegratorConfig(), horizon=None) -> GridFunction:
    """The manifold map evaluated on the grid: node eta -> phi(0; eta, sigma).

    Requires sigma in the certified ball (sup norm plus safety-factored
    Lipschitz estimate) and a feasible existence budget.
    """
    return lp_map_batch(sys, [sigma], cert, cfg_int, horizon)[0]


def lp_solve(sys: FastSlowSystem, cert: ConstantsCertificate,
             cfg_int: IntegratorConfig = IntegratorConfig(), horizon=None):
    """Iterate the manifold map to its fixed point h on the system's grid.

    `horizon` (None: `cert.lp_horizon(TOL_BOUNDED)`) is the backward horizon
    of every bounded solution.  Returns (h, report).  The report's
    theoretical ratio is the certified contraction factor `cert.lp_ratio()`;
    sweep residuals are sup-norm changes between Jacobi sweeps.
    """
    if not cert.budget_ok(cert.delta):
        raise ContractionError("certificate does not satisfy the existence budget")
    zero = GridFunction.zeros(sys.domain, (sys.m,), value_norm=sys.norm_x)
    radius = cert.ball_radius
    if not _ball_check(zero, radius):
        raise PreconditionError("initial iterate lies outside the certified ball")
    T = _horizon(cert, horizon)
    report = ContractionReport(theoretical_ratio=cert.lp_ratio())
    h = zero.with_values(_sweep(
        "manifold", lambda v: _lp_apply(sys, [zero.with_values(v)], T, cfg_int)[0].values,
        zero.values, report, TOL_FIXED_POINT, sys.norm_x))
    report.diagnostics["in_ball"] = bool(_ball_check(h, radius))
    return h, report


# -- residual diagnostics --------------------------------------------------------

def eqv_residual(sys: FastSlowSystem, h: GridFunction, cert: ConstantsCertificate,
                 cfg_int: IntegratorConfig = IntegratorConfig(), horizon=None):
    """Max residual over h's grid nodes of the invariance integral condition

        h(eta) = int_{-inf}^0 T0(0, s; eta, h) R0(h(psi(s)), psi(s)) ds,

    with the integral truncated at `horizon` (None: the certificate's) and
    evaluated as an inhomogeneous linear forward solve.  Small residual certifies (numerically)
    that h parameterizes an invariant graph.
    """
    T = _horizon(cert, horizon)
    etas = h.domain.node_coords()
    m, n = sys.m, sys.n

    slow_field = _graph_fields(sys, h)[0]
    blocks = _Blocks((n,), (m,))                      # y, v

    def joint(t, u):
        y, v = blocks.split(u)
        hy = np.asarray(h(y), dtype=float)           # once: the slow drift reads it too
        A = sys.eval_A0(y)
        Fg = sys.eval_Fg(hy, y)
        r0 = Fg[..., :m] - np.einsum("...ij,...j->...i", A, hy)
        dv = np.einsum("...ij,...j->...i", A, v) + r0
        return blocks.join(u.shape[:-1], Fg[..., m:], dv)

    uf = two_pass(slow_field, joint, etas,
                  lambda y_T: blocks.join(y_T.shape[:-1], y_T, np.zeros(m)), T, cfg_int)
    vals = np.asarray(h(etas), dtype=float)
    resid = sys.norm_x(vals - blocks.split(uf)[1])
    return float(np.max(resid))


@dataclass
class InvarianceResult:
    max_deviation: float
    partial: bool = False
    exit_time: Optional[float] = None


def invariance_residual(sys: FastSlowSystem, h, eta, t_max,
                        cfg_int: IntegratorConfig = IntegratorConfig()) -> InvarianceResult:
    """Integrate the full system from (h(eta), eta) and report max |x(t) - h(y(t))|.

    The graph of h is invariant over the slow box only: eta outside the box
    is a PreconditionError.  The orbit is cut at its first sample outside the
    box, and the result is flagged partial with that sample's time.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not sys.domain.contains(eta):
        raise PreconditionError("eta lies outside the slow box")
    x0 = np.asarray(h(eta), dtype=float)
    path = flow(sys, x0, eta, (0.0, float(t_max)), cfg_int)
    fast, slow, exit_t = path.fast, path.slow, None
    inside = sys.domain.contains(slow)
    if not inside.all():
        k = int(np.argmin(inside))            # >= 1: eta is inside
        fast, slow, exit_t = fast[:k + 1], slow[:k + 1], float(path.times[k])
    dev = sys.norm_x(fast - np.asarray(h(slow), dtype=float))
    return InvarianceResult(max_deviation=float(np.max(dev)),
                            partial=exit_t is not None, exit_time=exit_t)


# -- first derivative -------------------------------------------------------------

def _derivative_map(sys, fields, T, cfg_int):
    """One application of the order-k derivative map (k = 1, 2) on the whole
    grid; returns the node values, of shape grid + (m,) + (n,) * k.

    `fields` is (h, W) at k = 1 and (h, Dh, W) at k = 2, W the candidate k-th
    derivative, all on one grid and read by one interpolation per stage; D1
    below is W at k = 1 and Dh at k = 2.  Backward pass: (psi, z1[, z2]) from
    (eta, I[, 0]) along the slow drift g(h(psi), psi), with
    z1' = [D_x g . D1 + D_y g] z1 and, at k = 2,
    z2' = D_x g . w2 + D_y g . z2 + D2g[V1, V1], where V1 = (Dh z1, z1) and
    w2 = W[z1, z1] + Dh z2.  Forward pass re-integrates them and accumulates
    v' = D_x F(h, psi) v + D_y F(h, psi) z_k [+ D2F[V1, V1]] from v(-T) = 0;
    the node update is v(0).
    """
    order = len(fields) - 1
    read = _joint_reader(*fields)
    grid = fields[0].domain
    etas = grid.node_coords()
    B, m, n = etas.shape[0], sys.m, sys.n
    zs = [(n, n), (n, n, n)][:order]                       # z1[, z2]
    v_shape = (m,) + zs[-1][1:]
    back, fwd = _Blocks((n,), *zs), _Blocks((n,), *zs, v_shape)      # y, z1[, z2][, v]
    mat = "...ij,...jk->...ik"                             # matrix product
    lin = mat if order == 1 else "...ij,...jab->...iab"   # a matrix on an order-k block

    def quad(D2, a):                                       # D2[a, a] on the columns of a
        return np.einsum("...icd,...ca,...db->...iab", D2, a, a)

    def field(blocks):
        def fld(t, u):
            y, *z = blocks.split(u)                        # z1[, z2][, v]
            zk, v = z[order - 1], z[order:]
            hy, D1, *W = read(y)
            Dg = sys.eval_Dg(hy, y)
            gen = np.einsum(mat, Dg[..., :, :m], D1) + Dg[..., :, m:]
            parts = [sys.eval_g(hy, y), np.einsum(mat, gen, z[0])]
            if order == 2:
                V1 = np.concatenate([np.einsum(mat, D1, z[0]), z[0]], axis=-2)
                w2 = quad(W[0], z[0]) + np.einsum(lin, D1, zk)
                parts.append(np.einsum(lin, Dg[..., :, :m], w2)
                             + np.einsum(lin, Dg[..., :, m:], zk) + quad(sys.eval_D2g(hy, y), V1))
            if v:
                DFh = sys.eval_DF(hy, y)
                dv = np.einsum(lin, DFh[..., :, :m], v[0]) + np.einsum(lin, DFh[..., :, m:], zk)
                parts.append(dv + quad(sys.eval_D2F(hy, y), V1) if order == 2 else dv)
            return blocks.join(u.shape[:-1], *parts)

        return fld

    u0 = back.join((B,), etas, *[np.eye(n), np.zeros((n, n, n))][:order])
    uf = two_pass(field(back), field(fwd), u0,
                  lambda u_T: fwd.join((B,), *back.split(u_T), np.zeros(v_shape)), T, cfg_int)
    return fwd.split(uf)[-1].reshape(grid.shape + v_shape)


def dh_solve(sys: FastSlowSystem, h: GridFunction, cert: ConstantsCertificate,
             cfg_int: IntegratorConfig = IntegratorConfig()):
    """Fixed point of the derivative map; returns (Dh field, report).

    The theoretical ratio is `cert.dh_ratio()` and the horizon
    `cert.dh_horizon(TOL_BOUNDED)`.  The sup bound `cert.dh_sup_bound()`
    presumes slow paths confined to the box; the derivative stage reports it
    beside the solved field's sup norm, and nothing enforces it.
    """
    if not sys.has_derivatives(1):
        raise CapabilityError("dh_solve needs DF and Dg")
    if not cert.budget_ok(cert.rho):
        raise ContractionError("certificate does not satisfy the smoothness budget")
    T = cert.dh_horizon(TOL_BOUNDED)
    report = ContractionReport(theoretical_ratio=cert.dh_ratio())
    grid = h.domain
    w = GridFunction(grid, _sweep(
        "derivative", lambda W: _derivative_map(sys, (h, GridFunction(grid, W)), T, cfg_int),
        np.zeros(grid.shape + (sys.m, sys.n)), report, TOL_FIXED_POINT))
    return w, report


def fd_derivative_error(h: GridFunction, dh: GridFunction):
    """Max interior-node mismatch between dh and central differences of h.

    The independent check used to validate the derivative fixed point.
    """
    dom = h.domain
    worst = 0.0
    for a in range(dom.n):
        sl_lo = [slice(None)] * dom.n
        sl_hi = [slice(None)] * dom.n
        sl_mid = [slice(None)] * dom.n
        sl_lo[a] = slice(0, -2)
        sl_hi[a] = slice(2, None)
        sl_mid[a] = slice(1, -1)
        fd = (h.values[tuple(sl_hi)] - h.values[tuple(sl_lo)]) / (2 * dom.spacing[a])
        got = dh.values[tuple(sl_mid)][..., a]
        worst = max(worst, float(np.max(np.abs(fd - got))))
    return worst


# -- second derivative -------------------------------------------------------------

def d2h_solve(sys: FastSlowSystem, h: GridFunction, dh: GridFunction,
              cert: ConstantsCertificate, cfg_int: IntegratorConfig = IntegratorConfig()):
    """Fixed point of the order-2 variational integral system; returns
    (second-derivative field with values (m, n, n), report).

    The inhomogeneity stacks the second derivatives of (F, g) against the
    first-order flow (w1, z1) = (Dh(psi) z1, z1); the candidate field enters
    the slow variational equation through the chain-rule path
    w2 = W2(psi)[z1, z1] + Dh(psi) z2.
    """
    if not sys.has_derivatives(2):
        raise CapabilityError("d2h_solve needs D2F and D2g")
    if not cert.d2h_ok:
        raise InfeasibleBudgetError("order-2 budget violated "
                                    "(needs 2 N1 < mu - K M1x and the k=2 inequality)")
    grid = h.domain
    m, n = sys.m, sys.n
    T = cert.d2h_horizon(TOL_BOUNDED)
    report = ContractionReport()
    W2 = _sweep("second-derivative",
                lambda W: _derivative_map(sys, (h, dh, GridFunction(grid, W)), T, cfg_int),
                np.zeros(grid.shape + (m, n, n)), report, TOL_FIXED_POINT)
    return GridFunction(grid, W2), report
