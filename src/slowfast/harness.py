"""Scenario-level verification runs: build a system, certify it, compute the
manifold and its derivatives, straighten by them, query the reduction map, and
score every requested check.  The stage functions here are the only code that
solves a scenario; the CLI runs them too.  Everything is seeded and
deterministic: the same scenario document and seed give byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .certify import (CERTIFICATE_FIELDS, assemble_certificate,
                      spectral_gap_check, straightened_constants)
from .core import FastSlowSystem, GridFunction
from .errors import CapabilityError, SchemaError
from .integrate import IntegratorConfig
from .manifold import (dh_solve, eqv_residual, fd_derivative_error,
                       invariance_residual, lp_map_batch, lp_solve, d2h_solve)
from .reduction import q_along_orbit, semiconjugacy_residual, straighten
from .systems import EXAMPLES, get_example

# check -> the stage it reads, or whose budget it maps under; the check runs
# only if that stage completed
_NEEDS = {
    "hypotheses": "certify",
    "manifold": "slow_manifold",
    "analytic_h": "slow_manifold",
    "eqv_residual": "slow_manifold",
    "invariance": "slow_manifold",
    "derivative_fd": "derivative",
    "contraction": "slow_manifold",
    "norm_bound": "slow_manifold",
    "spectral_gap": "certify",
    "reduction": "reduction",
}
KNOWN_CHECKS = tuple(_NEEDS)

_DEFAULT_CHECKS = {
    "L1": ["hypotheses", "manifold", "analytic_h", "eqv_residual",
           "derivative_fd", "contraction", "norm_bound"],
    "Q1": ["hypotheses", "manifold", "analytic_h", "eqv_residual",
           "derivative_fd", "contraction", "norm_bound"],
    "L2": ["hypotheses", "manifold", "analytic_h", "reduction"],
    "VDP-cut": ["hypotheses", "spectral_gap", "manifold", "eqv_residual"],
    "NF1": ["hypotheses", "spectral_gap", "manifold", "invariance",
            "eqv_residual", "norm_bound"],
}


def _number(v):
    """A finite int or float; a bool is not a number here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:                # an int beyond the float range
        return False


def _numbers(v):
    return _number(v) or (isinstance(v, list) and len(v) > 0 and all(map(_number, v)))


def _count(lo):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _positive(v):
    return _number(v) and v > 0


# scenario key -> (test of its value, what the test wants); None also passes
# where the field's default is None
_SCHEMA = {
    "system": (lambda v: isinstance(v, str) and v in EXAMPLES, f"one of {sorted(EXAMPLES)}"),
    "eps": (_number, "a finite number"),
    "domain": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_number, v))
               and v[0] < v[1], "[lo, hi] with finite lo < hi"),
    "grid": (_count(3), "an integer >= 3, for an interior node on each axis"),
    "m": (_count(1), "an integer >= 1"),
    "dt": (_positive, "a finite number > 0"),
    "horizon": (_positive, "a finite number > 0"),
    "derivative": (lambda v: _count(0)(v) and v <= 2, "0, 1 or 2"),
    "checks": (lambda v: isinstance(v, list) and all(c in KNOWN_CHECKS for c in v),
               f"a list of checks from {KNOWN_CHECKS}"),
    "overrides": (lambda v: isinstance(v, dict) and ("K" in v) == ("mu" in v)
                  and all(k in CERTIFICATE_FIELDS and _number(x) for k, x in v.items()),
                  f"a map from {CERTIFICATE_FIELDS} to finite numbers, K with mu"),
    "seed": (_count(0), "an integer >= 0"),
    "out": (lambda v: isinstance(v, str), "a path"),
    "reduction_points": (lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_numbers, p)) for p in v),
        "a list of [xi, eta] pairs of finite numbers or number lists"),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Validated scenario document.  Unknown keys, and keys that no stage of the
    scenario reads (`m` outside NF1, `reduction_points` without the reduction
    check), are rejected outright."""

    system: str
    eps: float = None
    domain: Optional[list] = None
    grid: Optional[int] = None
    m: Optional[int] = None
    dt: Optional[float] = None
    horizon: Optional[float] = None
    derivative: int = 1
    checks: Optional[list] = None
    overrides: Optional[dict] = None
    seed: int = 0
    out: Optional[str] = None
    reduction_points: Optional[list] = None

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - set(_SCHEMA)
        if unknown:
            raise SchemaError(f"unknown scenario keys: {sorted(unknown, key=str)}")
        if "system" not in data:
            raise SchemaError("scenario needs a 'system'")
        defaults = {f.name: f.default for f in fields(cls)}
        for key, value in data.items():
            test, want = _SCHEMA[key]
            if not ((value is None and defaults[key] is None) or test(value)):
                raise SchemaError(f"scenario key {key!r} must be {want}, not {value!r}")
        if data.get("m") is not None and data["system"] != "NF1":
            raise SchemaError("scenario key 'm' applies to NF1 only")
        checks = data.get("checks")
        if data.get("reduction_points") is not None and "reduction" not in (
                _DEFAULT_CHECKS[data["system"]] if checks is None else checks):
            raise SchemaError("scenario key 'reduction_points' needs the reduction check")
        return cls(**data)

    def to_dict(self):
        return asdict(self)

    def resolved(self):
        """Fill defaults from the example registry; returns (example, kwargs)."""
        ex = get_example(self.system)
        kw = {"eps": ex.default_eps if self.eps is None else float(self.eps)}
        if self.domain is not None:
            kw["domain"] = tuple(self.domain)
        if self.grid is not None:
            kw["points"] = self.grid
        if self.m is not None:
            kw["m"] = self.m
        return ex, kw


def build_scenario_system(spec: ScenarioSpec) -> FastSlowSystem:
    ex, kw = spec.resolved()
    return ex.build(**kw)


# -- scenario checks ----------------------------------------------------------------

def _check(name, ok, **metrics):
    return {"name": name, "status": "pass" if ok else "fail",
            "metrics": _jsonable(metrics)}


def _skipped(name, reason):
    return {"name": name, "status": "skipped", "metrics": {"reason": reason}}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (str, bool, type(None))):
        return obj
    return repr(obj)


def run_scenario(spec: ScenarioSpec) -> dict:
    """Execute certify -> lp_solve -> dh_solve [-> d2h_solve] -> straighten(h, Dh) ->
    reduction queries -> residual checks; stage and check errors land in the report.
    """
    return _run(spec)[0]


def _run(spec):
    """The scenario's report and the first exception a stage or check raised
    (stages first), or None.  A stage completes when it returns metrics without
    a "skipped" key; after a failed stage the later ones are skipped, and a
    check whose stage (`_NEEDS`) did not complete is skipped and names it.
    """
    # where the report is written is not part of the record: same scenario, same bytes
    scenario = {k: v for k, v in spec.to_dict().items() if k != "out"}
    report = {"scenario": scenario, "seed": spec.seed, "certificate": None,
              "stages": [], "checks": [], "artifacts": []}
    checks = spec.checks if spec.checks is not None else _DEFAULT_CHECKS[spec.system]
    state = _state(spec)

    completed, failed, first = set(), None, None
    for name, fn in _stages(spec, "reduction" in checks):
        if failed:
            report["stages"].append(_skipped(name, f"stage {failed} failed"))
            continue
        try:
            metrics = _jsonable(fn(spec, state))
            if name == "certify":
                report["certificate"] = metrics["certificate"]
        except Exception as exc:
            report["stages"].append(_error_entry(name, exc))
            failed, first = name, exc
            continue
        report["stages"].append({"name": name, "status": "ok", "metrics": metrics})
        if "skipped" not in metrics:
            completed.add(name)

    for c in checks:
        if _NEEDS[c] not in completed:
            report["checks"].append(_skipped(c, f"stage {_NEEDS[c]} did not run"))
            continue
        try:
            report["checks"].append(_CHECKS[c](spec, state))
        except Exception as exc:
            report["checks"].append(_error_entry(c, exc))
            if first is None:
                first = exc
    report["passed"] = failed is None and all(
        c["status"] in ("pass", "skipped") for c in report["checks"])
    return report, first


def _state(spec):
    """The state the stages of `spec` share, before the first stage runs."""
    ex, kw = spec.resolved()
    return {"example": ex, "build_kw": kw, "eps": kw["eps"]}


def _stages(spec, reduction):
    """(name, stage) in run order; the reduction straightens by Dh, so it needs
    the derivative stage.  Read per call, so a replaced stage is the one that runs."""
    stages = [("certify", _stage_certify), ("slow_manifold", _stage_manifold)]
    if spec.derivative >= 1 or reduction:
        stages.append(("derivative", _stage_derivative))
    if spec.derivative >= 2:
        stages.append(("second_derivative", _stage_d2))
    if reduction:
        stages.append(("reduction", _stage_reduction))
    return stages


def _error_entry(name, exc):
    """Any exception becomes a typed entry, so the report survives; traceback to the log."""
    import logging   # here, not at the top: a run that fails nowhere never loads it
    logging.getLogger(__name__).debug("%s failed", name, exc_info=exc)
    return {"name": name, "status": "error",
            "metrics": {"error": f"{type(exc).__name__}: {exc}"}}


def _stage_certify(spec, state):
    sys = state["sys"] = build_scenario_system(spec)
    # each reduction point has m numbers in xi and n in eta (the count rule of
    # `reduce --point`), checked before any sampling or solve
    for i, (xi, eta) in enumerate(spec.reduction_points or ()):
        if np.size(xi) != sys.m or np.size(eta) != sys.n:
            raise SchemaError(f"reduction point {i} {[xi, eta]!r}: xi must have {sys.m} "
                              f"entries and eta {sys.n}")
    # a set dt is the step of the certificate and of every solve; without one,
    # the certificate samples at the default step and picks the solves' step
    cfg_int = IntegratorConfig() if spec.dt is None else IntegratorConfig(dt=float(spec.dt))
    cert = state["cert"] = assemble_certificate(
        sys, cfg_int, seed=spec.seed, x_radius=state["example"].sampling_radius,
        overrides=spec.overrides or {})
    if spec.dt is None:
        cfg_int = IntegratorConfig.default_for(cert.mu, cert.N1, sys.domain.diameter)
    state["cfg_int"] = cfg_int
    return {"certificate": json.loads(cert.to_json())}


def _stage_manifold(spec, state):
    sys, cert = state["sys"], state["cert"]
    h, rep = lp_solve(sys, cert, state["cfg_int"], horizon=spec.horizon)
    state["h"], state["h_report"] = h, rep
    return {"converged": rep.converged, "sweeps": rep.iterations,
            "sup_norm": h.sup_norm(), "measured_ratio": rep.measured_ratio,
            "theoretical_ratio": rep.theoretical_ratio,
            "residuals": rep.residuals}


def _stage_derivative(spec, state):
    sys, cert = state["sys"], state["cert"]
    if not sys.has_derivatives(1):
        return {"skipped": "system supplies no derivatives"}
    dh, rep = dh_solve(sys, state["h"], cert, state["cfg_int"])
    state["dh"], state["fd_error"] = dh, fd_derivative_error(state["h"], dh)
    return {"converged": rep.converged, "sweeps": rep.iterations,
            "fd_error": state["fd_error"],
            "sup_norm": dh.sup_norm(), "sup_bound": cert.dh_sup_bound()}


def _stage_d2(spec, state):
    sys, cert = state["sys"], state["cert"]
    if not sys.has_derivatives(2):
        return {"skipped": "system supplies no second derivatives"}
    d2, rep = d2h_solve(sys, state["h"], state["dh"], cert, state["cfg_int"])
    state["d2h"] = d2
    return {"converged": rep.converged, "sup_norm": d2.sup_norm()}


def _straightened(state):
    """The system straightened by the solved h and Dh, and its (S1)/(S2) constants."""
    dh = state.get("dh")
    if dh is None:
        raise CapabilityError("straightening needs Dh; the system supplies no derivatives")
    return (straighten(state["sys"], state["h"], dh),
            straightened_constants(state["cert"], dh.sup_norm()))


def _stage_reduction(spec, state):
    sys = state["sys"]
    ssys, scert = _straightened(state)
    state["ssys"], state["scert"] = ssys, scert

    rng = np.random.default_rng(spec.seed)
    points = spec.reduction_points
    if points is None:
        n_q = 8
        xis = rng.uniform(-0.5, 0.5, size=(n_q, sys.m))
        etas = sys.domain.sample(rng, n_q)
        points = [[x.tolist(), e.tolist()] for x, e in zip(xis, etas)]
    bound = scert.e_ratio_bound()

    queried = [q_along_orbit(ssys, np.atleast_1d(xi), np.atleast_1d(eta), scert,
                             state["cfg_int"]) for xi, eta in points]
    results = [r.to_dict() for r in queried]
    worst_ratio = max((r.E_ratio for r in queried), default=0.0)
    state["e_ratio_worst"] = worst_ratio
    state["e_ratio_bound"] = bound
    return {"queries": len(results), "worst_E_ratio": worst_ratio,
            "E_ratio_bound": bound, "results": results}


# -- individual checks ---------------------------------------------------------------

def _chk_hypotheses(spec, state):
    cert = state["cert"]
    table = dict(cert.hypothesis_table())
    required = [k for k, v in table.items() if v != "unknown"]
    ok = all(table[k] == "pass" for k in required)
    return _check("hypotheses", ok, table=table)


def _chk_manifold(spec, state):
    rep = state["h_report"]
    return _check("manifold", rep.converged, sweeps=rep.iterations,
                  final_residual=rep.residuals[-1] if rep.residuals else None)


def _chk_analytic_h(spec, state):
    ex, sys, h = state["example"], state["sys"], state["h"]
    if ex.analytic_h is None:
        return _skipped("analytic_h", "no analytic oracle")
    if sys.m != 1:
        return _skipped("analytic_h", "scalar oracle, m > 1")
    nodes = sys.domain.node_coords()
    exact = np.asarray(ex.analytic_h(nodes[..., 0], state["eps"]), dtype=float)
    err = float(np.max(np.abs(exact - h(nodes)[..., 0])))
    return _check("analytic_h", err <= ex.h_tol, sup_error=err, tol=ex.h_tol)


def _chk_eqv(spec, state):
    val = eqv_residual(state["sys"], state["h"], state["cert"], state["cfg_int"],
                       horizon=spec.horizon)
    return _check("eqv_residual", val <= 1e-5, residual=val, tol=1e-5)


def _chk_invariance(spec, state):
    sys = state["sys"]
    eta = sys.domain.lower + 0.25 * (sys.domain.upper - sys.domain.lower)
    res = invariance_residual(sys, state["h"], eta, t_max=5.0, cfg_int=state["cfg_int"])
    tol = 1e-4
    return _check("invariance", res.max_deviation <= tol,
                  residual=res.max_deviation, tol=tol, partial=res.partial)


def _chk_derivative_fd(spec, state):
    err = state["fd_error"]
    return _check("derivative_fd", err <= 1e-4, fd_error=err, tol=1e-4)


def _chk_contraction(spec, state):
    sys, cert = state["sys"], state["cert"]
    rng = np.random.default_rng(spec.seed + 1)
    radius = cert.ball_radius
    pairs = 5 if spec.system != "L1" else 3
    sigmas, gaps = [], []
    for _ in range(pairs):
        s1 = _random_ball_sigma(sys, sys.domain, radius, rng)
        s2 = _random_ball_sigma(sys, sys.domain, radius, rng)
        d = float(np.max(sys.norm_x(s2.values - s1.values)))
        if d != 0:
            sigmas += [s1, s2]
            gaps.append(d)
    # every sigma of every pair in one batched two-pass
    images = lp_map_batch(sys, sigmas, cert, state["cfg_int"], horizon=spec.horizon)
    worst = 0.0
    for d, l1, l2 in zip(gaps, images[0::2], images[1::2]):
        worst = max(worst, float(np.max(sys.norm_x(l2.values - l1.values))) / d)
    bound = cert.lp_ratio() * 1.05 + 1e-6
    return _check("contraction", worst <= bound, measured=worst, bound=bound)


def _random_ball_sigma(sys, grid, radius, rng):
    """A random smooth grid function, a sum of 3 sine modes, inside the certified ball."""
    nodes = grid.node_coords()
    vals = np.zeros((nodes.shape[0], sys.m))
    for _ in range(3):
        om = rng.uniform(0.5, 2.0, size=grid.n)
        ph = rng.uniform(0, 2 * np.pi)
        amp = rng.normal(size=sys.m)
        vals += np.sin(nodes @ om + ph)[:, None] * amp[None, :]
    gf = GridFunction(grid, vals.reshape(grid.shape + (sys.m,)), value_norm=sys.norm_x)
    bn = gf.ball_norm()
    scale = 0.5 * radius / bn if bn > 0 else 0.0
    return gf.with_values(gf.values * scale)


def _eps0_manifold(state, horizon):
    """The eps = 0 manifold at `horizon` (None: the certificate's), solved once
    per scenario and horizon and kept in the stage state."""
    solved = state.setdefault("h0", {})
    if horizon not in solved:
        sys0 = state["example"].build(eps=0.0, **{k: v for k, v in state["build_kw"].items()
                                                  if k != "eps"})
        solved[horizon] = lp_solve(sys0, state["cert"], state["cfg_int"], horizon=horizon)[0]
    return solved[horizon]


def _chk_norm_bound(spec, state):
    """Theorem-level sup bound on the eps = 0 manifold with >= 1% slack."""
    cert = state["cert"]
    h0 = _eps0_manifold(state, spec.horizon)
    bound = cert.norm_bound()
    sup = h0.sup_norm()
    return _check("norm_bound", sup <= bound * 0.99, sup_norm=sup, bound=bound)


def _chk_spectral_gap(spec, state):
    sys = state["sys"]
    if spec.system == "VDP-cut":
        h0 = lambda y: np.zeros(np.asarray(y).shape[:-1] + (sys.m,))
        mu_req = 1.0
        min_margin = 0.0
    else:
        h0 = _eps0_manifold(state, None)
        mu_req = 0.5
        min_margin = 0.5 - 1e-9
    res = spectral_gap_check(sys, h0, mu_req)
    ok = res.ok and res.margin >= min_margin
    return _check("spectral_gap", ok, max_real=res.max_real, margin=res.margin,
                  mu_req=mu_req)


def _chk_reduction(spec, state):
    worst, bound = state["e_ratio_worst"], state["e_ratio_bound"]
    ssys, scert = state["ssys"], state["scert"]
    rng = np.random.default_rng(spec.seed + 2)
    xi = rng.uniform(0.2, 0.6, size=ssys.m)
    eta = ssys.domain.sample(rng, 1)[0]
    res = q_along_orbit(ssys, xi, eta, scert, state["cfg_int"])
    semi = semiconjugacy_residual(ssys, res, t_max=5.0, cfg_int=state["cfg_int"],
                                  cert=scert)
    ok = worst <= bound * 1.05 + 1e-9 and semi <= 1e-5
    return _check("reduction", ok, worst_E_ratio=worst, E_ratio_bound=bound,
                  semiconjugacy=semi)


_CHECKS = {
    "hypotheses": _chk_hypotheses,
    "manifold": _chk_manifold,
    "analytic_h": _chk_analytic_h,
    "eqv_residual": _chk_eqv,
    "invariance": _chk_invariance,
    "derivative_fd": _chk_derivative_fd,
    "contraction": _chk_contraction,
    "norm_bound": _chk_norm_bound,
    "spectral_gap": _chk_spectral_gap,
    "reduction": _chk_reduction,
}
