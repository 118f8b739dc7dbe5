"""Slow-manifold computation: the contraction map sigma -> phi(0; ., sigma) on a
ball of Lipschitz grid functions, its fixed point h, the first- and
second-derivative fixed points, and residual diagnostics.

Every node evaluation is a two-pass solve: the slow path is integrated
backward to the truncation horizon, then the coupled (fast, slow[, variational])
system is integrated forward, so that all RK4 stage values are exact field
evaluations (no path interpolation enters the inner loops).  Where the slow
drift reads no x, the slow path reads no candidate graph: the manifold map
integrates it once per solve (or per batch of candidates) and every forward
pass starts from that end state, and the derivative maps' backward pass
reads no grid.  Sweeps are full Jacobi sweeps: every node reads the previous
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certify import ConstantsCertificate
from .core import FastSlowSystem, GridFunction, GridStack, _Blocks, _joint_reader
from .errors import (CapabilityError, ContractionError, InfeasibleBudgetError,
                     PreconditionError)
from .integrate import (ContractionReport, IntegratorConfig, _graph_fields,
                        _positive_finite, _sweep, backward_end, flow, two_pass)


TOL_FIXED_POINT = 1e-9      # sweep residual at which the manifold and derivative solves stop
TOL_BOUNDED = 1e-10         # startup error of the bounded solution; sets the horizons


def _horizon(cert, horizon):
    """The backward horizon: `horizon` if set (positive and finite, else a
    ValueError), else the certificate's lp_horizon."""
    if horizon is None:
        return cert.lp_horizon(TOL_BOUNDED)
    return _positive_finite("horizon", float(horizon))


# -- the manifold map ----------------------------------------------------------

def _ball_check(sigma: GridFunction, radius):
    return sigma.ball_norm() <= radius * (1.0 + 1e-12)


def _slow_end(sys, grid, T, cfg_int):
    """psi(-T) from the (N, n) nodes of `grid` where the slow drift reads no x,
    so that no candidate graph moves it; None where it reads x."""
    if sys.drift_reads_x:
        return None
    return backward_end(_graph_fields(sys, None)[0], grid.node_coords(), T, cfg_int)


def _lp_apply(sys, sigmas, T, cfg_int, y_T=None):
    """One application of the manifold map to each of K candidates on one grid.

    The K node sets run as one (K, N, n) batch through one two-pass; row
    block k reads sigma_k through a GridStack.  `y_T` is `_slow_end`: where
    it is set, the backward pass is skipped and its (N, n) end state is
    broadcast to the K blocks.  Returns the K images.
    """
    grid = sigmas[0].domain
    etas = np.broadcast_to(grid.node_coords(), (len(sigmas), grid.node_count, grid.n))
    slow_field, joint, lift = _graph_fields(sys, GridStack(sigmas))
    u_T = None if y_T is None else np.broadcast_to(y_T, etas.shape)
    vals = two_pass(slow_field, joint, etas, lift, T, cfg_int, u_T)[..., :sys.m]
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
    T = _horizon(cert, horizon)
    if not sigmas:
        return []
    return _lp_apply(sys, sigmas, T, cfg_int, _slow_end(sys, sigmas[0].domain, T, cfg_int))


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
    y_T = _slow_end(sys, sys.domain, T, cfg_int)           # once for every sweep
    report = ContractionReport(theoretical_ratio=cert.lp_ratio())
    h = zero.with_values(_sweep(
        "manifold", lambda v: _lp_apply(sys, [zero.with_values(v)], T, cfg_int, y_T)[0].values,
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
    z2' = (D_x g . w2 + D_y g . z2) + D2g[V1, V1], where V1 = (Dh z1, z1) and
    w2 = W[z1, z1] + Dh z2.  Forward pass re-integrates them and accumulates
    v' = D_x F(h, psi) v + D_y F(h, psi) z_k [+ D2F[V1, V1]] from v(-T) = 0;
    the node update is v(0).

    Where the drift reads no x (`sys.drift_reads_x` False), D_x g = 0: both
    passes drop the D_x g terms, so W is never read.  The backward pass then
    reads no grid at all: it evaluates g and its derivatives at x = 0 and
    takes Dh = 0 in V1, which leaves D2g[V1, V1] = D_yy g[z1, z1].  The
    forward pass reads h[, Dh] for the fast field.
    """
    order = len(fields) - 1
    reads_x = sys.drift_reads_x
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

    def field(blocks, read):
        def fld(t, u):
            y, *z = blocks.split(u)                        # z1[, z2][, v]
            zk, v = z[order - 1], z[order:]
            hy, *D = read(y)                               # h, then D1[, W] or [Dh]
            Dg = sys.eval_Dg(hy, y)
            gx, gy = Dg[..., :, :m], Dg[..., :, m:]
            gen = np.einsum(mat, gx, D[0]) + gy if reads_x else gy
            parts = [sys.eval_g(hy, y), np.einsum(mat, gen, z[0])]
            if order == 2:
                V1 = np.concatenate([np.einsum(mat, D[0], z[0]), z[0]], axis=-2)
                dz2 = np.einsum(lin, gy, zk)
                if reads_x:
                    w2 = quad(D[1], z[0]) + np.einsum(lin, D[0], zk)
                    dz2 = np.einsum(lin, gx, w2) + dz2
                parts.append(dz2 + quad(sys.eval_D2g(hy, y), V1))
            if v:
                DFh = sys.eval_DF(hy, y)
                dv = np.einsum(lin, DFh[..., :, :m], v[0]) + np.einsum(lin, DFh[..., :, m:], zk)
                parts.append(dv + quad(sys.eval_D2F(hy, y), V1) if order == 2 else dv)
            return blocks.join(u.shape[:-1], *parts)

        return fld

    if reads_x:
        back_read = fwd_read = _joint_reader(*fields)
    else:
        zeros = [np.zeros((B,) + f.value_shape) for f in fields[:-1]]    # h[, Dh] = 0
        back_read, fwd_read = (lambda y: zeros), _joint_reader(*fields[:-1])
    u0 = back.join((B,), etas, *[np.eye(n), np.zeros((n, n, n))][:order])
    uf = two_pass(field(back, back_read), field(fwd, fwd_read), u0,
                  lambda u_T: fwd.join((B,), *back.split(u_T), np.zeros(v_shape)), T, cfg_int)
    return fwd.split(uf)[-1].reshape(grid.shape + v_shape)


def _derivative_solve(what, sys, fields, T, cfg_int, report):
    """Sweep the derivative map on the grid of `fields` (h[, Dh]) from W = 0 to
    its fixed point; returns the node values.  Where the drift does not read
    x, D_x g = 0 leaves the map's image independent of W, so the map is
    applied once and every sweep returns that image."""
    grid = fields[0].domain

    def apply(W):
        return _derivative_map(sys, (*fields, GridFunction(grid, W)), T, cfg_int)

    W0 = np.zeros(grid.shape + (sys.m,) + (sys.n,) * len(fields))
    if not sys.drift_reads_x:
        image = apply(W0)
        apply = lambda W: image
    return _sweep(what, apply, W0, report, TOL_FIXED_POINT)


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
    report = ContractionReport(theoretical_ratio=cert.dh_ratio())
    W = _derivative_solve("derivative", sys, (h,), cert.dh_horizon(TOL_BOUNDED), cfg_int,
                          report)
    return GridFunction(h.domain, W), report


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
    report = ContractionReport()
    W2 = _derivative_solve("second-derivative", sys, (h, dh),
                           cert.d2h_horizon(TOL_BOUNDED), cfg_int, report)
    return GridFunction(h.domain, W2), report
