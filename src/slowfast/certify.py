"""Estimation and validation of the constants behind every contraction argument:
the process bound (K, mu), the Lipschitz/sup constants (M0, M1x, M1y, N0, N1),
the delta/rho budgets, and the frozen-coefficient window machinery for slowly
driven linear systems.

Sampled values are falsifiable estimates, not proofs: sups are approached from
below, decay rates from above.  Every hypothesis predicate is a pure function
of the certificate fields, applied with the relative margin HYPOTHESIS_MARGIN
to absorb sampling noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
import numpy as np

from .core import FastSlowSystem
from .errors import (CapabilityError, ContractionError, InfeasibleBudgetError,
                     NoDecayError, NumericError, PreconditionError)
from .integrate import IntegratorConfig, _process_field, _rk4

CERTIFICATE_FIELDS = ("K", "mu", "M0", "M1x", "M1y", "N0", "N1", "delta", "rho")
LIPSCHITZ_SAMPLES = 2000    # sample budget of the certificate's Lipschitz bundle
PROCESS_HORIZON = 10.0      # time span over which the certificate samples process norms
HYPOTHESIS_MARGIN = 0.01    # relative slack of every strict budget inequality


@dataclass(frozen=True)
class ConstantsCertificate:
    """The constant bundle with per-field provenance, and every budget,
    contraction factor, bound and horizon read from it: no other module does
    arithmetic on the fields.  Each budget reads gap(w, k) = mu' - k N1 (w+1)."""

    K: float = float("nan")
    mu: float = float("nan")
    M0: float = float("nan")
    M1x: float = float("nan")
    M1y: float = float("nan")
    N0: float = float("nan")
    N1: float = float("nan")
    delta: float = float("nan")
    rho: float = float("nan")
    provenance: dict = field(default_factory=dict)

    def _lt(self, lhs, rhs):
        """Strict inequality with relative safety margin."""
        return lhs * (1.0 + HYPOTHESIS_MARGIN) < rhs

    @property
    def H_ok(self):
        return (self.K >= 1.0 and self.mu > 0.0
                and self._lt(self.K * self.M1x, self.mu))

    def budget_ok(self, weight):
        """The order-1 budget at a weight, K M1y < weight gap(weight) under (H):
        existence at delta, smoothness at rho."""
        gap = self.gap(weight)
        return self.H_ok and gap > 0.0 and self._lt(self.K * self.M1y, weight * gap)

    @property
    def d2h_ok(self):
        """The order-2 budget: 2 N1 < mu' and K M1y < (2 (rho+1) - 1) gap(rho, 2)."""
        if not 2.0 * self.N1 < self.contraction_rate():
            return False
        g2 = self.gap(self.rho, order=2)
        return g2 > 0 and self.K * self.M1y < (2.0 * (self.rho + 1.0) - 1.0) * g2

    @property
    def reduction_ok(self):
        return self._lt(self.K * self.N1, self.mu)

    @property
    def ball_radius(self):
        return self.K * self.M0 / self.mu + self.delta

    def contraction_rate(self):
        """mu' = mu - K M1x, the decay rate of the straightened fast component."""
        return self.mu - self.K * self.M1x

    def gap(self, weight, order=1):
        """mu' - order N1 (weight + 1), the decay left at an order-k weight."""
        return self.contraction_rate() - order * self.N1 * (weight + 1.0)

    def lp_ratio(self):
        """Contraction factor of the manifold map on the delta-ball."""
        return self.K * self.M1y / ((self.delta + 1.0) * self.gap(self.delta))

    def dh_ratio(self):
        """Contraction factor of the derivative map at weight rho."""
        return self.K * self.M1y / (self.rho * self.gap(self.rho))

    def dh_sup_bound(self):
        """Sup bound on Dh, for slow paths confined to the box."""
        return self.K * self.M1y / self.gap(self.rho)

    def norm_bound(self):
        """K M0 / mu + K M1y / mu', the theorem-level sup bound on h."""
        return self.K * self.M0 / self.mu + self.K * self.M1y / self.contraction_rate()

    def e_ratio_bound(self):
        """K N1 / (mu' - K N1), the cap on |Q| / |xi| of a reduction query."""
        return self.K * self.N1 / max(self.contraction_rate() - self.K * self.N1, 1e-300)

    def slow_prefactor_bound(self, xi_norm):
        """K e_ratio_bound() |xi|, the prefactor bound of the slow gap's decay."""
        return self.K * self.e_ratio_bound() * xi_norm

    def defect_ratio(self):
        """K N1 / mu', the defect map's contraction factor, once K N1 < mu' holds."""
        mu_p = self.contraction_rate()
        if not self.reduction_ok or self.K * self.N1 >= mu_p:
            raise ContractionError("reduction budget K N1 < mu' violated")
        return self.K * self.N1 / mu_p

    def lp_horizon(self, tol):
        """Backward T with K 2 (K M0 / mu + delta) e^{-mu' T} <= tol (NaN delta: 0)."""
        rate = self.contraction_rate()
        if rate <= 0:
            raise ContractionError("no positive contraction rate: K*M1x >= mu")
        delta = self.delta if np.isfinite(self.delta) else 0.0
        amplitude = max(2.0 * (self.K * self.M0 / self.mu + delta), 10 * tol)
        return math.log(self.K * amplitude / tol) / rate

    def dh_horizon(self, tol):
        """Backward T of the derivative map, at rate gap(rho)."""
        rate = self.gap(self.rho)
        if rate <= 0:
            raise InfeasibleBudgetError("derivative budget N1(rho+1) >= mu - K*M1x")
        amp = max(self.K * max(self.M1y, 1e-6) / rate, 10 * tol)
        return math.log(amp / tol) / rate

    def d2h_horizon(self, tol):
        """Backward T of the order-2 map, at rate gap(rho, 2); needs d2h_ok."""
        rate = self.gap(self.rho, order=2)
        return math.log(max(self.K * max(self.M1y, 1e-6) / (rate * tol), 10.0)) / rate

    def forward_horizon(self, xi_norm, tol):
        """Smallest T with K e^{-mu' T} |xi| <= tol / (2 N1 (1 + e_ratio_bound()))."""
        denom = 2.0 * self.N1 * (1.0 + self.e_ratio_bound())
        if denom <= 0 or xi_norm == 0:
            return 0.0
        target = tol / denom
        if self.K * xi_norm <= target:
            return 0.0
        return math.log(self.K * xi_norm / target) / self.contraction_rate()

    def dp_horizon(self, xi_norm, tol):
        """Forward T of dP, at rate gap(0, 2) = mu' - 2 N1."""
        rate = self.gap(0.0, order=2)
        if rate <= 0:
            raise InfeasibleBudgetError("derivative budget 2 N1 < mu' violated")
        amp = max(self.K * max(xi_norm, 1.0) * (self.N1 + 1.0), 10 * tol)
        return math.log(amp / tol) / rate

    def hypothesis_table(self):
        def status(flag, needed):
            if any(math.isnan(getattr(self, f)) for f in needed):
                return "unknown"
            return "pass" if flag else "fail"

        return [
            ("H1 process decay (K, mu)", status(self.K >= 1.0 and self.mu > 0, ("K", "mu"))),
            ("H2 contraction K*M1x < mu", status(self.H_ok, ("K", "mu", "M1x"))),
            ("H3 timescale N1 < mu - K*M1x",
             status(self._lt(self.N1, self.contraction_rate()), ("K", "mu", "M1x", "N1"))),
            ("existence (delta budget)", status(self.budget_ok(self.delta),
                                                ("K", "mu", "M1x", "M1y", "N1", "delta"))),
            ("smoothness (rho budget)", status(self.budget_ok(self.rho),
                                               ("K", "mu", "M1x", "M1y", "N1", "rho"))),
            ("S1 straightened decay", status(self.H_ok, ("K", "mu", "M1x"))),
            ("S2 reduction K*N1 < mu", status(self.reduction_ok, ("K", "mu", "N1"))),
        ]

    def hypotheses_hold(self):
        """True unless a row of the hypothesis table fails; an "unknown" row (a
        NaN constant) does not count."""
        return all(status != "fail" for _, status in self.hypothesis_table())

    def to_json(self):
        data = {f: getattr(self, f) for f in CERTIFICATE_FIELDS}
        data["provenance"] = dict(self.provenance)
        data["margin"] = HYPOTHESIS_MARGIN
        data["hypotheses"] = {name: st for name, st in self.hypothesis_table()}
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=True)

    @classmethod
    def from_dict(cls, data):
        kw = {f: float(data.get(f, float("nan"))) for f in CERTIFICATE_FIELDS}
        return cls(provenance=dict(data.get("provenance", {})), **kw)


# -- (H1): process bound ------------------------------------------------------

class DriverSet:
    """A batch of slow driver paths, evaluated together.

    Each path is center + sum_k amp_k sin(om_k t + ph_k) per component; frozen
    paths have zero amplitude.  Time-shifted copies fold the shift into the
    phases, so sampling T(t, 0) over a shifted set covers T(t, s) of the
    originals.
    """

    def __init__(self, center, amp, om, ph):
        self.center = np.asarray(center, dtype=float)   # (B, n)
        self.amp = np.asarray(amp, dtype=float)          # (B, M, n)
        self.om = np.asarray(om, dtype=float)
        self.ph = np.asarray(ph, dtype=float)

    def __len__(self):
        return self.center.shape[0]

    def batch(self, t):
        """Values of all paths at scalar time t, shape (B, n)."""
        return self.center + np.sum(self.amp * np.sin(self.om * t + self.ph), axis=1)

    def shifted(self, shifts):
        reps = len(shifts)
        return DriverSet(np.repeat(self.center, reps, axis=0),
                         np.repeat(self.amp, reps, axis=0),
                         np.repeat(self.om, reps, axis=0),
                         (self.ph[:, None] + self.om[:, None]
                          * np.asarray(shifts)[None, :, None, None]).reshape(
                             -1, *self.ph.shape[1:]))


def band_limited_drivers(domain, N0, count, seed=0):
    """Random smooth paths in the box with |psi'| <= N0, plus frozen worst cases.

    Fourier sums of three modes with amplitudes scaled to respect both the
    speed cap and the box; frozen paths sit at the box corners and center.
    """
    modes = 3
    rng = np.random.default_rng(seed)
    lo, hi = domain.lower, domain.upper
    center, halfw = (lo + hi) / 2.0, (hi - lo) / 2.0
    centers, amps, oms, phs = [], [], [], []
    for _ in range(count):
        om = rng.uniform(0.1, 1.0, size=(modes, domain.n))
        ph = rng.uniform(0, 2 * np.pi, size=(modes, domain.n))
        amp = rng.uniform(0.2, 1.0, size=(modes, domain.n))
        speed = np.sum(np.abs(amp * om), axis=0)          # per-component |psi'| bound
        scale_speed = N0 / (np.linalg.norm(speed) + 1e-300)
        scale_box = np.min(halfw / (np.sum(amp, axis=0) + 1e-300))
        s = min(1.0, scale_speed, scale_box)
        centers.append(center)
        amps.append(amp * s)
        oms.append(om)
        phs.append(ph)
    for c in (lo, hi, center):
        centers.append(c)
        amps.append(np.zeros((modes, domain.n)))
        oms.append(np.ones((modes, domain.n)))
        phs.append(np.zeros((modes, domain.n)))
    return DriverSet(np.stack(centers), np.stack(amps), np.stack(oms), np.stack(phs))


def estimate_process_bound(sys: FastSlowSystem, drivers, t_max,
                           cfg: IntegratorConfig):
    """Sampled (K, mu) with |T0(t,s; psi) xi| <= K e^{-mu (t-s)} |xi|.

    Each driver runs from four start shifts s, evenly spaced over
    [0, t_max / 2] (a frozen driver's shifted copies are itself).  All
    (driver, start-shift) combinations are integrated as one batched linear
    solve and the operator norm sampled along the way.  mu is the
    smallest pairwise decay rate -log||T||/gap over the tail half of the gap
    range (so the claimed rate is what the worst sampled pair actually shows);
    K is the max over all samples of ||T|| e^{mu * gap}.  Operator norms are
    exact for m <= 8 and probed with 10 random unit vectors (drawn with
    seed 0) above that.  Norms are sampled about 80 times along the way.
    """
    if not isinstance(drivers, DriverSet):
        raise TypeError("drivers must be a DriverSet (band_limited_drivers / frozen_drivers)")
    if len(drivers) == 0:
        raise ValueError("need a non-empty driver sample")
    dset = drivers.shifted(np.linspace(0.0, 0.5 * t_max, 4))
    B, m = len(dset), sys.m
    if m <= 8:
        U = np.broadcast_to(np.eye(m), (B, m, m)).copy()

        def norms(U):
            return _op_norm(sys, U)
    else:
        rng = np.random.default_rng(0)
        U = rng.normal(size=(B, 10, m))
        U /= np.maximum(sys.norm_x(U)[..., None], 1e-300)

        def norms(U):
            return np.max(sys.norm_x(U), axis=-1)

    n_steps = cfg.steps_for(t_max)
    stride = max(1, n_steps // 80)
    gaps, lognorms = [], []

    def sample(k, t, cur):
        if k % stride == 0 or k == n_steps:
            gaps.append(np.full(B, t))
            lognorms.append(np.log(np.maximum(norms(cur), 1e-300)))

    _rk4(_process_field(sys, dset.batch), U, 0.0, t_max, n_steps, sample)
    gaps = np.concatenate(gaps)
    lognorms = np.concatenate(lognorms)

    tail = gaps >= 0.5 * t_max
    rates = -lognorms[tail] / gaps[tail]
    mu = float(np.min(rates))
    if mu <= 0:
        raise NoDecayError(f"sampled process norms grow (worst tail rate {mu:.3g} <= 0 "
                           f"at step dt = {cfg.dt:g})")
    K = max(1.0, float(np.max(np.exp(lognorms + mu * gaps))))
    return K, mu


def frozen_drivers(points):
    """A DriverSet of constant paths through the given slow points (N, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    B, n = pts.shape
    return DriverSet(pts, np.zeros((B, 1, n)), np.ones((B, 1, n)), np.zeros((B, 1, n)))


def _op_norm(sys, M):
    """Operator norms induced by the fast-space norm, of a stack M (..., m, m)."""
    if sys.norm_kind == "sup":
        return np.max(np.sum(np.abs(M), axis=-1), axis=-1)
    return np.linalg.norm(M, 2, axis=(-2, -1))


# -- (H2)/(H3): Lipschitz and sup constants -----------------------------------

def estimate_lipschitz(sys: FastSlowSystem, n_samples=2000, x_radius=2.0, seed=0):
    """Sampled sup / difference-quotient estimates of (M0, M1x, M1y, N1, N0).

    Lower bounds on the true constants (sampling never overshoots a sup).
    """
    pair_scale = 1e-4                    # length of the small offsets
    if n_samples < 1000:
        raise PreconditionError("sampling budget must be at least 10^3")
    rng = np.random.default_rng(seed)
    values = {"M0": 0.0, "M1x": 0.0, "M1y": 0.0, "N0": 0.0, "N1": 0.0}
    # fixed chunk size: a larger budget at the same seed replays the smaller
    # budget's chunks exactly, so sampled sups are monotone in the budget
    chunk = 1000
    done = 0
    while done < n_samples:
        b = min(chunk, n_samples - done)
        done += b
        ys = sys.domain.sample(rng, b)
        xs = rng.uniform(-x_radius, x_radius, size=(b, sys.m))
        # the base point's values, evaluated once and shared by every quotient;
        # r0 is R0(xs, ys) from f0, by the operations `R0` performs
        f0, g0 = sys.eval_F(xs, ys), sys.eval_g(xs, ys)
        r0 = f0 - np.einsum("...ij,...j->...i", sys.eval_A0(ys), xs)

        values["M0"] = max(values["M0"], float(np.max(sys.norm_x(r0))))
        values["N0"] = max(values["N0"], float(np.max(sys.norm_y(g0))))

        # difference quotients: small offsets pick up local slopes, random
        # pairs the non-local variation
        dx = rng.normal(size=xs.shape)
        dx *= pair_scale / np.maximum(np.linalg.norm(dx, axis=-1, keepdims=True), 1e-300)
        q = sys.norm_x(sys.R0(xs + dx, ys) - r0) / sys.norm_x(dx)
        xs2 = rng.uniform(-x_radius, x_radius, size=xs.shape)
        qp = sys.norm_x(sys.R0(xs2, ys) - r0) \
            / np.maximum(sys.norm_x(xs2 - xs), 1e-300)
        values["M1x"] = max(values["M1x"], float(np.max(q)), float(np.max(qp)))

        dy = rng.normal(size=ys.shape)
        dy *= pair_scale / np.maximum(np.linalg.norm(dy, axis=-1, keepdims=True), 1e-300)
        qy = sys.norm_x(sys.eval_F(xs, ys + dy) - f0) / sys.norm_y(dy)
        ys2 = sys.domain.sample(rng, b)
        qyp = sys.norm_x(sys.eval_F(xs, ys2) - f0) \
            / np.maximum(sys.norm_y(ys2 - ys), 1e-300)
        values["M1y"] = max(values["M1y"], float(np.max(qy)), float(np.max(qyp)))

        du = np.concatenate([dx, dy], axis=-1)
        qg = sys.norm_y(sys.eval_g(xs + dx, ys + dy) - g0) \
            / np.maximum(np.linalg.norm(du, axis=-1), 1e-300)
        qgp = sys.norm_y(sys.eval_g(xs2, ys2) - g0) \
            / np.maximum(np.sqrt(sys.norm_x(xs2 - xs) ** 2 + sys.norm_y(ys2 - ys) ** 2),
                         1e-300)
        values["N1"] = max(values["N1"], float(np.max(qg)), float(np.max(qgp)))
    return values


# -- budgets -------------------------------------------------------------------

_DELTA_FLOOR = 64 * np.finfo(float).eps


def delta_budget(cert: ConstantsCertificate):
    """delta = 2 K M1y / (mu - K M1x) and the slow-Lipschitz cap that makes the
    existence inequality hold for every N1 below it.

    Degenerate M1y = 0 returns a machine-floor delta; then any
    N1 < (mu - K M1x)/2 suffices.
    """
    gap = cert.contraction_rate()
    if gap <= 0:
        raise InfeasibleBudgetError("K*M1x >= mu: no contraction budget exists")
    delta = 2.0 * cert.K * cert.M1y / gap
    degenerate = delta <= _DELTA_FLOOR
    if degenerate:
        delta = _DELTA_FLOOR
    n1_cap = gap / (2.0 * (delta + 1.0))
    return delta, n1_cap


def rho_budget(cert: ConstantsCertificate):
    """Smallest rho > delta with N1 (rho+1) < mu - K M1x and
    K M1y / (mu - K M1x - N1 (rho+1)) < rho, by bisection on the feasible edge
    to a relative width of 1e-10.
    """
    gap = cert.contraction_rate()
    if gap <= 0:
        raise InfeasibleBudgetError("K*M1x >= mu")
    delta = cert.delta if np.isfinite(cert.delta) else 0.0
    if cert.N1 <= 0:
        rho = max(delta, cert.K * cert.M1y / gap) * (1.0 + 1e-9) + 1e-15
        return rho

    cap = gap / cert.N1 - 1.0
    if cap <= delta:
        raise InfeasibleBudgetError("no admissible rho above delta")

    def feasible(rho):
        g = cert.gap(rho)
        return g > 0 and cert.K * cert.M1y < rho * g

    grid = np.linspace(delta, cap, 512)[1:-1]
    ok = [r for r in grid if feasible(r)]
    if not ok:
        raise InfeasibleBudgetError("no admissible rho for this certificate")
    hi = ok[0]
    lo = delta
    while hi - lo > 1e-10 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    rho = float(hi * (1.0 + 1e-9))
    assert rho > delta
    return rho


# -- frozen-coefficient window machinery --------------------------------------

def frozen_coefficient_window(K, mu, eps):
    """Smallest window l with K e^{-mu l} <= e^{-(mu-eps) l}, i.e. l = ln(K)/eps.

    If the generator drifts by at most eps/K over any window of length l, the
    driven process obeys ||T(t,s)|| <= K e^{-(mu-eps)(t-s)}.
    """
    if K < 1.0:
        raise ValueError("K must be >= 1")
    if not 0 < eps < mu:
        raise ValueError("need 0 < eps < mu")
    return math.log(K) / eps


def slow_drift_budget(K, mu_tilde, mu_target, M1nu):
    """Caps (M0_cap, N0_cap, l) so that K (M1nu N0 l + 2 M0) <= mu_tilde - mu_target.

    l satisfies K e^{-mu_tilde l} <= e^{-mu_target l}; the budget is split
    equally between the drift term and the remainder term.  K = 1 makes any
    l admissible; the convention then is l = 1.
    """
    if not 0 < mu_target < mu_tilde:
        raise ValueError("need 0 < mu_target < mu_tilde")
    if K < 1.0:
        raise ValueError("K must be >= 1")
    if M1nu <= 0:
        raise InfeasibleBudgetError("drift Lipschitz constant must be positive")
    l = 1.0 if K == 1.0 else math.log(K) / (mu_tilde - mu_target)
    budget = mu_tilde - mu_target
    N0_cap = budget / (2.0 * K * M1nu * l)
    M0_cap = budget / (4.0 * K)
    assert K * (M1nu * N0_cap * l + 2.0 * M0_cap) <= budget * (1 + 1e-12)
    return M0_cap, N0_cap, l


# -- spectral gap --------------------------------------------------------------

@dataclass(frozen=True)
class SpectralGapResult:
    max_real: float
    mu_req: float
    ok: bool

    @property
    def margin(self):
        return -self.max_real - self.mu_req


def spectral_gap_check(sys: FastSlowSystem, h0, mu_req) -> SpectralGapResult:
    """Max over grid nodes y of max Re spec(D_x F(h0(y), y)) against -mu_req."""
    if sys.m > 512:
        raise CapabilityError("dense eigenvalue check limited to m <= 512")
    nodes = sys.domain.node_coords()
    J = sys.DxF(np.asarray(h0(nodes), dtype=float), nodes)     # every node in one batch
    try:
        lam = np.linalg.eigvals(J)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError("eigensolver failed on the grid nodes") from exc
    worst = float(np.max(lam.real))
    return SpectralGapResult(max_real=worst, mu_req=float(mu_req), ok=worst < -mu_req)


# -- assembly ------------------------------------------------------------------

def straightened_constants(cert: ConstantsCertificate, dh_sup):
    """(S1)/(S2) constants of the straightened system from the original bundle:
    mu' = mu - K M1x, N1' = (1 + ||Dh||) N1."""
    mu_p = cert.contraction_rate()
    if mu_p <= 0:
        raise InfeasibleBudgetError("K*M1x >= mu: straightened system has no decay")
    n1_p = (1.0 + float(dh_sup)) * cert.N1
    prov = dict(cert.provenance)
    prov.update(mu="closed-form", M1x="closed-form", N1="closed-form")
    return replace(cert, mu=mu_p, M1x=0.0, N1=n1_p, provenance=prov)


def assemble_certificate(sys: FastSlowSystem, cfg: IntegratorConfig = IntegratorConfig(),
                         seed=0, x_radius=2.0, overrides=None) -> ConstantsCertificate:
    """Full estimation pipeline: Lipschitz bundle first (LIPSCHITZ_SAMPLES
    samples; its N0 caps the driver speed), then (K, mu) from 4 sampled drivers
    over PROCESS_HORIZON, integrated at a step of at least 0.02, then the delta
    and rho budgets.

    `overrides` maps certificate fields to supplied values; K and mu come as
    a pair.  An unknown key or a lone K or mu is a ValueError.
    """
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(CERTIFICATE_FIELDS), key=str)
    if unknown:
        raise ValueError(f"unknown certificate overrides {unknown}; "
                         f"known fields are {CERTIFICATE_FIELDS}")
    if ("K" in overrides) != ("mu" in overrides):
        raise ValueError("override K and mu together: the process bound is one pair")
    values = estimate_lipschitz(sys, n_samples=LIPSCHITZ_SAMPLES, x_radius=x_radius, seed=seed)
    prov = {k: "supplied" if k in overrides else "sampled" for k in values}
    values.update((k, float(overrides[k])) for k in values if k in overrides)
    if "K" in overrides:
        K, mu = float(overrides["K"]), float(overrides["mu"])
        prov.update(K="supplied", mu="supplied")
    else:
        drivers = band_limited_drivers(sys.domain, max(values["N0"], 1e-6),
                                       4, seed=seed)
        K, mu = estimate_process_bound(sys, drivers, PROCESS_HORIZON,
                                       IntegratorConfig(dt=max(cfg.dt, 0.02)))
        prov.update(K="sampled", mu="sampled")
    cert = ConstantsCertificate(K=K, mu=mu, **values)
    if "delta" in overrides:
        delta, prov["delta"] = float(overrides["delta"]), "supplied"
    else:
        delta, prov["delta"] = delta_budget(cert)[0], "closed-form"
    cert = replace(cert, delta=delta)
    if "rho" in overrides:
        rho, prov["rho"] = float(overrides["rho"]), "supplied"
    else:
        try:
            rho, prov["rho"] = rho_budget(cert), "closed-form"
        except InfeasibleBudgetError:
            rho, prov["rho"] = float("nan"), "infeasible"
    return replace(cert, rho=rho, provenance=prov)
