"""Fixed-step RK4 time integration: full flows, the fast process (a
two-parameter semigroup), variational flows, the bounded solution that
underlies the slow-manifold fixed point, the named blocks of a flat RK4
state, and the sweep loop that every fixed-point iteration runs.

Only the classic 4th-order Runge-Kutta scheme is provided; reproducibility
of certified numbers matters more than adaptivity here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import FastSlowSystem, _Blocks
from .errors import CapabilityError, ConvergenceError, NumericError, PreconditionError


MAX_STEPS = 5_000_000       # steps of one pass; a longer pass is a ValueError
MAX_SWEEPS = 60             # sweeps of each fixed-point iteration before ConvergenceError


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")

    @staticmethod
    def default_for(mu, N1, diameter):
        """Default step: min(0.01, 0.1 / (mu + N1 * diameter))."""
        return IntegratorConfig(dt=min(0.01, 0.1 / (mu + N1 * diameter + 1e-300)))

    def steps_for(self, span):
        n = max(1, int(math.ceil(abs(span) / self.dt - 1e-12)))
        if n > MAX_STEPS:
            raise ValueError(f"horizon {span} needs {n} steps > {MAX_STEPS}")
        return n


def _rk4(field, u0, t0, t1, n_steps, observe=None):
    """The RK4 loop behind every integrator: u' = field(t, u) from t0 to t1.

    u0 may have any shape; the field must return the same shape.  t1 < t0
    integrates backward.  `observe(k, t_k, u_k)` runs after step k = 1..n.
    The end state is checked once: a non-finite entry raises NumericError.
    Returns (t1 as reached, final state).
    """
    u = np.array(u0, dtype=float)
    h = (t1 - t0) / n_steps
    t = t0
    for k in range(1, n_steps + 1):
        k1 = field(t, u)
        k2 = field(t + h / 2, u + (h / 2) * k1)
        k3 = field(t + h / 2, u + (h / 2) * k2)
        k4 = field(t + h, u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + k * h
        if observe is not None:
            observe(k, t, u)
    if not np.isfinite(u).all():
        # the leading index of the first bad entry: a row, or (block, row) of a stack
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(u))[0, :-1]) or (0,)
        row = where[0] if len(where) == 1 else where
        raise NumericError(f"RK4 state is not finite after integrating from t = {t0:g} "
                           f"to {t1:g} (first bad batch row {row})")
    return t, u


def rk4_path(field, u0, t0, t1, n_steps):
    """Integrate u' = field(t, u) from t0 to t1, returning all samples.

    Returns (times (S+1,), states (S+1,) + u0.shape).
    """
    times = t0 + (t1 - t0) / n_steps * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1,) + np.shape(u0))
    out[0] = u0

    def keep(k, t, u):
        out[k] = u

    _rk4(field, u0, t0, t1, n_steps, keep)
    return times, out


def rk4_final(field, u0, t0, t1, n_steps):
    """Streaming RK4; keeps only the current state.  Returns (t1, final state)."""
    return _rk4(field, u0, t0, t1, n_steps)


@dataclass
class OrbitPath:
    """A time-sampled trajectory with fast and slow tracks."""

    times: np.ndarray
    fast: np.ndarray
    slow: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times = t
        self.fast = np.asarray(self.fast, dtype=float)
        self.slow = np.asarray(self.slow, dtype=float)
        if self.fast.shape[0] != t.shape[0] or self.slow.shape[0] != t.shape[0]:
            raise ValueError("fast/slow arrays must match times in length")

    def __len__(self):
        return self.times.shape[0]

    def at(self, t):
        """Linear interpolation of both tracks at time t."""
        fast = np.stack([np.interp(t, self.times, self.fast[:, i])
                         for i in range(self.fast.shape[1])], axis=-1)
        slow = np.stack([np.interp(t, self.times, self.slow[:, i])
                         for i in range(self.slow.shape[1])], axis=-1)
        return fast, slow


def _full_field(sys):
    m = sys.m

    def field(t, u):
        return sys.eval_Fg(u[..., :m], u[..., m:])

    return field


def flow(sys: FastSlowSystem, x0, y0, t_span, cfg: IntegratorConfig) -> OrbitPath:
    """Sampled solution of the full system forward over t_span = (t0, t1),
    t0 < t1.  The slow box is not checked: `manifold.invariance_residual`
    cuts an orbit where it leaves the box."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    t0, t1 = float(t_span[0]), float(t_span[1])
    times, states = rk4_path(_full_field(sys), np.concatenate([x0, y0]), t0, t1,
                             cfg.steps_for(t1 - t0))
    m = sys.m
    return OrbitPath(times, states[:, :m].copy(), states[:, m:].copy())


# -- the fast process (a two-parameter semigroup) -----------------------------

def _process_field(sys: FastSlowSystem, driver):
    """The field U' = A0(psi(t)) U of the fast process T0(t, s; psi), over a
    batch of driver paths: driver(t) is (B, n) and U is (B, ..., m)."""
    def field(t, U):
        return np.einsum("bij,b...j->b...i", sys.eval_A0(driver(t)), U)

    return field


def process_apply(sys: FastSlowSystem, driver, U, s, t, cfg: IntegratorConfig):
    """T0(t, s; psi) U for each driver path psi of the batch driver(t) (B, n);
    forward-only (t < s is a PreconditionError) and linear in U."""
    t, s = float(t), float(s)
    if t < s:
        raise PreconditionError("t < s for a forward-only (dissipative) process")
    U = np.asarray(U, dtype=float)
    if t == s:
        return U.copy()
    return _rk4(_process_field(sys, driver), U, s, t, cfg.steps_for(t - s))[1]


# -- variational flows --------------------------------------------------------

@dataclass
class VariationalFlow:
    """Derivatives of the flow map w.r.t. its initial condition along one orbit."""

    times: np.ndarray
    states: np.ndarray          # (S, m+n) re-integrated base orbit
    first: np.ndarray           # (S, m+n, m+n)
    second: Optional[np.ndarray] = None   # (S, m+n, m+n, m+n)


def _jet(sys: FastSlowSystem, z):
    """The joint field (F, g) at z = (x, y) and its Jacobian J, the generator
    of the first variational flow U' = J U."""
    x, y = z[..., :sys.m], z[..., sys.m:]
    return sys.eval_Fg(x, y), np.concatenate([sys.eval_DF(x, y), sys.eval_Dg(x, y)], axis=-2)


def variational_flow(sys: FastSlowSystem, base: OrbitPath, order, cfg: IntegratorConfig) -> VariationalFlow:
    """First (and optionally second) variational flow along the base orbit.

    The base orbit is re-integrated jointly with the variational equations so
    that the RK4 stage values are exact; base.times fixes the span and the
    initial condition.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not sys.has_derivatives(1):
        raise CapabilityError("variational_flow needs DF and Dg")
    if order == 2 and not sys.has_derivatives(2):
        raise CapabilityError("second variational flow needs D2F and D2g")
    m, d = sys.m, sys.m + sys.n
    t0, t1 = float(base.times[0]), float(base.times[-1])
    blocks = _Blocks(*[(d,), (d, d), (d, d, d)][:order + 1])    # z, U[, V]

    def field(t, u):
        z, U, *V = blocks.split(u)
        Fg, J = _jet(sys, z)
        parts = [Fg, J @ U]
        if V:
            x, y = z[:m], z[m:]
            H = np.concatenate([sys.eval_D2F(x, y), sys.eval_D2g(x, y)], axis=-3)
            parts.append(np.einsum("ic,cab->iab", J, V[0])
                         + np.einsum("icd,ca,db->iab", H, U, U))
        return blocks.join((), *parts)

    w0 = blocks.join((), *[np.concatenate([base.fast[0], base.slow[0]]), np.eye(d),
                           np.zeros((d, d, d))][:order + 1])
    times, path = rk4_path(field, w0, t0, t1, cfg.steps_for(t1 - t0))
    states, first, *second = blocks.split(path)
    return VariationalFlow(times=times, states=states, first=first,
                           second=second[0] if second else None)


# -- fixed-point sweeps -------------------------------------------------------

@dataclass
class ContractionReport:
    """Per-sweep residuals of a fixed-point iteration and the contraction verdict."""

    residuals: list = field(default_factory=list)
    theoretical_ratio: float = float("nan")
    converged: bool = False
    diagnostics: dict = field(default_factory=dict)

    @property
    def iterations(self):
        return len(self.residuals)

    @property
    def measured_ratio(self):
        r = np.asarray(self.residuals, dtype=float)
        good = r[:-1] > 0
        if np.sum(good) == 0:
            return 0.0
        return float(np.median(r[1:][good] / r[:-1][good]))


def _sweep(what, apply, u, report, tol, norm=np.abs):
    """The one loop behind every fixed-point iteration: u <- apply(u) on
    node-value arrays, at most MAX_SWEEPS times.

    Each sweep appends its residual, the max of the norm of the change, to
    `report`; the sweeps stop once it is <= tol, which marks the report
    converged, and the last iterate is returned.  A residual that is not
    finite raises NumericError at once; running out of sweeps raises
    ConvergenceError carrying the report.  `what` names the iteration.
    """
    for k in range(1, MAX_SWEEPS + 1):
        new = apply(u)
        r = float(np.max(norm(new - u)))
        report.residuals.append(r)
        u = new
        if r <= tol:
            report.converged = True
            return u
        if not math.isfinite(r):
            raise NumericError(f"{what} iteration: residual {r} at sweep {k} is not finite")
    raise ConvergenceError(f"{what} iteration did not reach {tol:g} in {MAX_SWEEPS} sweeps "
                           f"(last residual {report.residuals[-1]:.3e})", report=report)


# -- bounded solution ---------------------------------------------------------

def _graph_fields(sys, sig):
    """The slow drift on the graph of sig, the coupled (fast, slow) field, and
    the lift y -> (sig(y), y) that starts the coupled field on the graph."""
    def slow_field(t, y):
        return sys.eval_g(np.asarray(sig(y), dtype=float), y)

    def joint(t, u):
        x, y = u[..., : sys.m], u[..., sys.m:]
        return np.concatenate([sys.eval_F(x, y), slow_field(t, y)], axis=-1)

    def lift(y):
        return np.concatenate([np.asarray(sig(y), dtype=float), y], axis=-1)

    return slow_field, joint, lift


def two_pass(back_field, fwd_field, u0, lift, T, cfg: IntegratorConfig):
    """The bounded-solution kernel behind every Lyapunov-Perron map.

    Integrates `back_field` from u0 backward over [0, -T] (the slow path and
    anything carried along it), then `fwd_field` forward over [-T, 0] from
    lift(backward end state); returns the forward end state.
    """
    n_steps = cfg.steps_for(T)
    _, u_T = rk4_final(back_field, u0, 0.0, -T, n_steps)
    return rk4_final(fwd_field, lift(u_T), -T, 0.0, n_steps)[1]


def bounded_solution_batch(sys: FastSlowSystem, sigma, etas, horizon,
                           cfg: IntegratorConfig):
    """phi(0; eta, sigma) of the unique bounded solution of x' = F(x, psi(t; eta,
    sigma)), for a batch of eta rows (..., n) at once; returns (..., m).

    Integrates psi backward to -T, then (x' = F(x,y), y' = g(sigma(y), y))
    forward from (sigma(psi(-T)), psi(-T)).  The contraction at rate mu - K*M1x
    bounds the startup error by K e^{-(mu - K M1x) T} * 2(K M0/mu + delta), so
    T = ConstantsCertificate.lp_horizon(tol) pins phi(0) to `tol`.  The tests
    cross-check it against Picard iteration of the variation-of-constants map."""
    slow_field, joint, lift = _graph_fields(sys, sigma)
    u0 = two_pass(slow_field, joint, np.asarray(etas, dtype=float), lift,
                  float(horizon), cfg)
    return u0[..., : sys.m]
