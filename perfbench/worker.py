"""One benchmark workload in one process.

Started by run.py with the package's `src` directory on PYTHONPATH.  It sets
up (imports, seeded inputs, building the system), prints READY, then runs
passes of the workload and prints one JSON line: the metrics, the number of
correctness checks attempted and the labels of those that failed.

With --trace 0 it runs passes until --seconds is spent and reports the
end-to-end metrics.  With --pause it also prints PAUSE before each pass and
waits for a line on stdin, so that run.py can time fresh set-ups between
passes.  With --trace 1 it runs one untraced pass and two traced passes of
the same inputs, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = Path(__file__).resolve().parent / "out"

# p90 must have at least ten samples above it (choosing-metrics guide)
MIN_QUERIES = 110
MIN_PASSES = 3
MANIFOLD_QUERIES = 20          # per pass of a scenario workload
POINTS_PER_QUERY = 640
REDUCTION_QUERIES = 28         # per pass of reduce-l2
XI_MAX = 0.5                   # |xi| bound of the harness's own reduction points
P_TOL = 1e-6                   # tests/test_reduction.py, L2 against l2_P
FD_TOL = 1e-4                  # the harness derivative_fd tolerance
SEMICONJ_TOL = 1e-5            # the harness reduction-check tolerance

# The scenarios set dt = 0.1, ten times the certified default step, so that
# a pass takes a few seconds instead of a minute.  The work per RK4 step (and
# so the share of each layer) is the same as at the default step; only the
# number of steps shrinks.  Every check still passes at this step.
SCENARIOS = {
    "grid-q1": {"system": "Q1", "derivative": 2, "dt": 0.1},
    "banach-nf1": {"system": "NF1", "m": 64, "derivative": 1, "dt": 0.1},
}

STAGES = ("certify", "slow_manifold", "derivative", "second_derivative")
CHECKS = ("hypotheses", "manifold", "analytic_h", "eqv_residual", "invariance",
          "derivative_fd", "contraction", "norm_bound", "spectral_gap")
ACCURACY = ("h_sup_error", "query_max_error", "eqv_residual", "fd_error",
            "lp_measured_ratio", "lp_certified_ratio", "dh_measured_ratio",
            "dh_certified_ratio", "P_max_error", "defect_measured_ratio",
            "defect_certified_ratio", "semiconj_residual")


class Checks:
    """Correctness checks of a run: each is one attempt, failures by label."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(label)


def _check_solves(checks, solves):
    """Every fixed point converged, with its sweep ratio within the certified factor.

    A solver that fails raises instead of returning, so its solve is missing
    here; `Scenario` counts a missing solve as a failed check.
    """
    for name, (_, rep) in solves:
        checks.add(f"{name} converged", rep.converged)
        if math.isfinite(rep.theoretical_ratio):
            checks.add(f"{name} sweep ratio", rep.measured_ratio <= rep.theoretical_ratio)


class Scenario:
    """`run_scenario` on a named system, then manifold queries.

    A manifold query evaluates the solved manifold h and its derivative field
    Dh at POINTS_PER_QUERY seeded slow points, one call per point, as a user
    mapping slow states onto the solution does.  Every pass makes the same
    queries.  Only `run_scenario` counts toward `run_s`; the queries count
    toward `query_ms_*`, and the checks toward neither.
    """

    def __init__(self, mods, seed, doc):
        self.mods = mods
        harness = mods["harness"]
        self.spec = harness.ScenarioSpec.from_dict({**doc, "seed": seed})
        self.example, kw = self.spec.resolved()
        self.eps = kw["eps"]
        self.system = harness.build_scenario_system(self.spec)
        rng = np.random.default_rng(seed)
        self.points = self.system.domain.sample(rng, MANIFOLD_QUERIES * POINTS_PER_QUERY)
        # the first solve of each of these is the stage's; checks may solve again
        self.stage_solves = ["manifold.lp_solve", "manifold.dh_solve",
                             "manifold.d2h_solve"][:1 + doc["derivative"]]
        self.solves = []
        self.accuracy = {}

    def capture(self, name, out):
        self.solves.append((name, out))

    def run_pass(self, checks, latencies, probe, index):
        """One pass; returns the seconds of `run_scenario` and appends each
        manifold query's seconds to `latencies`."""
        self.solves.clear()
        start = time.perf_counter()
        report = self.mods["harness"].run_scenario(self.spec)
        run_s = time.perf_counter() - start
        checks.add("run_scenario passed", report["passed"])
        _check_solves(checks, self.solves)
        stage = {name: next((out for n, out in self.solves if n == name), None)
                 for name in self.stage_solves}
        for name, out in stage.items():
            if out is None:
                checks.add(f"{name} returned", False)
        if stage["manifold.lp_solve"] is None or stage["manifold.dh_solve"] is None:
            checks.add("manifold queries (no solved h and Dh)", False)
            return run_s
        h, dh = stage["manifold.lp_solve"][0], stage["manifold.dh_solve"][0]

        values = []
        with probe.span("bench.manifold_queries"):
            for query in self.points.reshape(MANIFOLD_QUERIES, POINTS_PER_QUERY, -1):
                start = time.perf_counter()
                values += [(h(y), dh(y)) for y in query]
                latencies.append(time.perf_counter() - start)
        query_err = self._check_queries(checks, h, dh, values)
        self._record_accuracy(checks, report, h, query_err, stage)
        return run_s

    def _check_queries(self, checks, h, dh, values):
        ex, dom = self.example, self.system.domain
        y = self.points[:, 0]
        got_h = np.stack([v[0] for v in values])
        got_dh = np.stack([v[1] for v in values]).reshape(len(values), -1)
        if ex.analytic_h is not None and ex.analytic_dh is not None:
            # oracle, plus the linear-interpolation error bound spacing^2/8 |h''|
            d2 = np.abs(ex.analytic_d2h(dom.node_coords()[:, 0], self.eps))
            tol_h = ex.h_tol + dom.spacing[0] ** 2 / 8 * float(np.max(d2))
            err_h = np.abs(got_h[:, 0] - ex.analytic_h(y, self.eps))
            err_dh = np.abs(got_dh[:, 0] - ex.analytic_dh(y, self.eps))
            ok = (err_h <= tol_h) & (err_dh <= FD_TOL)
            err = np.maximum(err_h, err_dh)
        else:
            # independent reference: piecewise-linear interpolation of the nodes
            axis = dom.axes()[0]
            err = np.zeros(len(values))
            for got, gf in ((got_h, h), (got_dh, dh)):
                nodes = gf.values.reshape(len(axis), -1)
                ref = np.stack([np.interp(y, axis, nodes[:, i])
                                for i in range(nodes.shape[1])], axis=-1)
                scale = 1.0 + float(np.max(np.abs(nodes)))
                err = np.maximum(err, np.max(np.abs(got - ref), axis=-1) / scale)
            ok = err <= 1e-12
        for i, good in enumerate(ok.reshape(MANIFOLD_QUERIES, -1).all(axis=1)):
            checks.add(f"manifold query {i}", bool(good))
        return float(np.max(err))

    def _record_accuracy(self, checks, report, h, query_err, stage):
        ex = self.example
        found = {c["name"]: c["metrics"] for c in report["checks"]}
        stages = {s["name"]: s["metrics"] for s in report["stages"]}
        acc = {"query_max_error": query_err,
               "eqv_residual": found.get("eqv_residual", {}).get("residual", 0.0),
               "fd_error": stages.get("derivative", {}).get("fd_error", 0.0)}
        if ex.analytic_h is not None:
            nodes = self.system.domain.node_coords()
            got = h.values.reshape(len(nodes), -1)[:, 0]
            err = float(np.max(np.abs(got - ex.analytic_h(nodes[:, 0], self.eps))))
            checks.add("h matches the analytic manifold", err <= ex.h_tol)
            acc["h_sup_error"] = err
        for key, name in (("lp", "manifold.lp_solve"), ("dh", "manifold.dh_solve")):
            rep = stage[name][1]
            acc[f"{key}_measured_ratio"] = rep.measured_ratio
            acc[f"{key}_certified_ratio"] = rep.theoretical_ratio
        self.accuracy = acc


class Reduction:
    """L2 straightened with its analytic oracles, then a closed loop of
    reduction queries P(xi, eta), each checked against `l2_P`.

    Pass k queries its own points, drawn from (seed, k), from the
    distribution of the harness's reduction stage: xi uniform on
    [-XI_MAX, XI_MAX], eta uniform on the domain.  |xi| is stratified (one
    draw from each of REDUCTION_QUERIES equal slices of [0, XI_MAX], with a
    random sign), so every pass draws nearly the same spread of horizons
    whatever the seed.  Certify, straighten, the queries and the
    semiconjugacy residual count toward `run_s`; the checks do not.
    """

    def __init__(self, mods, seed):
        self.mods = mods
        self.seed = seed
        self.example = mods["systems"].get_example("L2")
        self.eps = self.example.default_eps
        self.system = self.example.build(eps=self.eps)
        self.accuracy = {}

    def points(self, index):
        rng = np.random.default_rng([self.seed, index])
        n = REDUCTION_QUERIES
        mags = XI_MAX * (np.arange(n) + rng.uniform(size=n)) / n
        signs = rng.choice([-1.0, 1.0], size=n)
        etas = self.system.domain.sample(rng, n)
        return [(np.array([signs[i] * mags[i]]), etas[i]) for i in rng.permutation(n)]

    def capture(self, name, out):
        pass

    def run_pass(self, checks, latencies, probe, index):
        """One pass over the points of pass `index`; returns its seconds and
        appends each query's seconds to `latencies`."""
        from slowfast.errors import SlowfastError

        certify, integrate = self.mods["certify"], self.mods["integrate"]
        reduction = self.mods["reduction"]
        ex, eps, sys_ = self.example, self.eps, self.system
        points = self.points(index)
        start = time.perf_counter()
        cert = certify.assemble_certificate(sys_, integrate.IntegratorConfig(),
                                            seed=self.seed, x_radius=ex.sampling_radius)
        cfg = integrate.IntegratorConfig.default_for(cert.mu, cert.N1,
                                                     sys_.domain.diameter)
        ssys = reduction.straighten(
            sys_, lambda y: np.asarray(ex.analytic_h(y[..., 0], eps))[..., None],
            lambda y: np.asarray(ex.analytic_dh(y[..., 0], eps))[..., None, None])
        dh_sup = float(np.max(np.abs(ex.analytic_dh(sys_.domain.node_coords()[..., 0], eps))))
        scert = certify.straightened_constants(cert, dh_sup)

        results = []
        for xi, eta in points:
            with probe.span("bench.reduction_query"):
                q_start = time.perf_counter()
                try:
                    res = reduction.q_along_orbit(ssys, xi, eta, scert, cfg)
                except SlowfastError:
                    res = None
                latencies.append(time.perf_counter() - q_start)
            results.append(res)
        done = [r for r in results if r is not None]
        semi = float("inf")
        if done:
            semi = reduction.semiconjugacy_residual(ssys, done[0], t_max=5.0,
                                                    cfg_int=cfg, cert=scert, n_checks=3)
        run_s = time.perf_counter() - start

        p_err = 0.0
        for i, ((xi, eta), res) in enumerate(zip(points, results)):
            if res is None:
                checks.add(f"reduction query {i} raised", False)
                continue
            err = float(np.max(np.abs(res.P - ex.analytic_P(xi, eta, eps))))
            p_err = max(p_err, err)
            checks.add(f"reduction query {i} P", err <= P_TOL)
            _check_solves(checks, [("reduction.q_along_orbit", (None, res.report))])
        checks.add("semiconjugacy residual", semi <= SEMICONJ_TOL)
        self.accuracy = {
            "P_max_error": p_err, "semiconj_residual": semi,
            "defect_measured_ratio": max((r.report.measured_ratio for r in done),
                                         default=0.0),
            "defect_certified_ratio": done[0].report.theoretical_ratio if done else 0.0,
        }
        return run_s


def build_workload(mods, name, seed):
    if name == "reduce-l2":
        return Reduction(mods, seed)
    return Scenario(mods, seed, SCENARIOS[name])


# -- measurement ----------------------------------------------------------------

def timed_pass(wl, checks, latencies, probe, index=0):
    """One pass in a `bench.pass` span; returns (run_s, wall seconds of the pass)."""
    start = time.perf_counter()
    with probe.span("bench.pass"):
        run_s = wl.run_pass(checks, latencies, probe, index)
    return run_s, time.perf_counter() - start


def _pause():
    print("PAUSE", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("run.py closed the pause channel")


def measure(wl, mods, seconds, checks, pause=False):
    """Untraced passes until `seconds` of passes is spent, with at least
    MIN_PASSES passes and MIN_QUERIES queries.

    `run_s` is the mean over the passes: over twenty 60-s runs on a noisy
    2-vCPU host it spread less across seeds than the median or the fastest
    pass.  With `pause`, the worker waits before each pass (see _pause); the
    waits are not counted in `seconds`.
    """
    probe = tracing.Probe(spans=False)
    probe.install(mods, tracing.SOLVES, on_return=wl.capture)
    runs, walls, latencies = [], [], []
    try:
        while True:
            if pause:
                _pause()
            run_s, wall = timed_pass(wl, checks, latencies, probe, len(runs))
            runs.append(run_s)
            walls.append(wall)
            spent = sum(walls)
            if len(runs) >= MIN_PASSES and spent + statistics.median(walls) > seconds and (
                    len(latencies) >= MIN_QUERIES or spent > 2 * seconds):
                break
    finally:
        probe.restore()
    ms = np.asarray(latencies or [0.0]) * 1e3
    p90 = float(np.percentile(ms, 90))
    metrics = {
        "run_s": (statistics.mean(runs), "s"),
        "query_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "query_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": len(runs), "run_s": runs, "pass_s": walls,
            "queries": len(latencies), "queries_above_p90": int(np.sum(ms > p90))}
    return metrics, info


def trace(wl, mods, checks, trace_path):
    """One untraced pass, then two traced passes with identical inputs."""
    probe = tracing.Probe(spans=False)
    probe.install(mods, tracing.SOLVES, on_return=wl.capture)
    try:
        untraced = timed_pass(wl, checks, [], probe)[0]
    finally:
        probe.restore()
    accuracy = dict(wl.accuracy)

    probe = tracing.Probe(spans=True)
    probe.install(mods, on_return=wl.capture)
    traced = []
    try:
        for run in (1, 2):
            probe.run = run
            traced.append(timed_pass(wl, checks, [], probe)[0])
    finally:
        probe.restore()
    identical = probe.counts[1] == probe.counts[2]
    checks.add("traced counters identical across passes", identical)
    trace_path.parent.mkdir(exist_ok=True)
    probe.write_spans(trace_path)

    runs = [layer_metrics(probe, run) for run in (1, 2)]
    metrics = {}
    for name, (value, unit) in runs[0].items():
        # counts are identical across passes; times are the mean of the two
        second = runs[1][name][0]
        metrics[name] = (value if unit == "count" else (value + second) / 2, unit)
    for key in ACCURACY:
        metrics[f"accuracy.{key}"] = (float(accuracy.get(key, 0.0)), "1")
    mean_traced = sum(traced) / 2
    metrics.update({
        "trace.run_s_untraced": (untraced, "s"),
        "trace.run_s_traced": (mean_traced, "s"),
        "trace.overhead_s": (mean_traced - untraced, "s"),
        "trace.spans": (probe.span_count(1), "count"),
        "trace.counters_identical": (int(identical), "count"),
    })
    info = {"trace_file": str(trace_path.relative_to(ROOT)),
            "counters": dict(sorted(probe.counts[1].items()))}
    return metrics, info


def layer_metrics(probe, run):
    inc, layer_inc, self_time = probe.summarize(run)
    count = probe.counts[run]
    fields = [n for n in tracing.METHODS if n.startswith("systems.")]
    rk4 = ("integrate.rk4_final", "integrate.rk4_path")

    interp_calls = count["core.interp.calls"]
    rk4_steps = sum(count[f"{n}.steps"] for n in rk4)
    rk4_s = sum(inc[n] for n in rk4)
    sweeps = {k: count[f"manifold.{k}_solve.sweeps"] for k in ("lp", "dh", "d2h")}
    solve_s = sum(inc[f"manifold.{k}_solve"] for k in sweeps)
    out = {
        "core.interp_calls": (interp_calls, "count"),
        "core.interp_s": (inc["core.interp"], "s"),
        "core.interp_us": (1e6 * inc["core.interp"] / max(interp_calls, 1), "us"),
        "systems.field_evals": (sum(count[f"{n}.calls"] for n in fields), "count"),
        # outermost field spans only: a straightened field calls the base field
        "systems.field_s": (layer_inc["systems"], "s"),
        "integrate.rk4_calls": (sum(count[f"{n}.calls"] for n in rk4), "count"),
        "integrate.rk4_steps": (rk4_steps, "count"),
        "integrate.rk4_s": (rk4_s, "s"),
        "integrate.step_us": (1e6 * rk4_s / max(rk4_steps, 1), "us"),
        "certify.assemble_s": (inc["certify.assemble_certificate"], "s"),
        "certify.process_bound_s": (inc["certify.estimate_process_bound"], "s"),
        "certify.lipschitz_s": (inc["certify.estimate_lipschitz"], "s"),
        "certify.spectral_gap_s": (inc["certify.spectral_gap_check"], "s"),
        "manifold.lp_solve_s": (inc["manifold.lp_solve"], "s"),
        "manifold.lp_sweeps": (sweeps["lp"], "count"),
        "manifold.lp_map_calls": (count["manifold.lp_map.calls"], "count"),
        "manifold.dh_solve_s": (inc["manifold.dh_solve"], "s"),
        "manifold.dh_sweeps": (sweeps["dh"], "count"),
        "manifold.d2h_solve_s": (inc["manifold.d2h_solve"], "s"),
        "manifold.d2h_sweeps": (sweeps["d2h"], "count"),
        "manifold.eqv_residual_s": (inc["manifold.eqv_residual"], "s"),
        "manifold.sweep_ms": (1e3 * solve_s / max(sum(sweeps.values()), 1), "ms"),
        "reduction.q_s": (inc["reduction.q_along_orbit"], "s"),
        "reduction.queries": (count["reduction.q_along_orbit.calls"], "count"),
        "reduction.defect_sweeps": (count["reduction.q_along_orbit.sweeps"], "count"),
        "reduction.orbit_steps": (count["reduction.q_along_orbit.orbit_steps"], "count"),
        "reduction.semiconj_s": (inc["reduction.semiconjugacy_residual"], "s"),
    }
    for stage in STAGES:
        out[f"harness.stage_s.{stage}"] = (inc[f"harness.stage.{stage}"], "s")
    for check in CHECKS:
        out[f"harness.check_s.{check}"] = (inc[f"harness.check.{check}"], "s")
    for layer in tracing.MODULES + ("bench",):
        out[f"{layer}.self_s"] = (self_time[layer], "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[*SCENARIOS, "reduce-l2"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pause", action="store_true")
    args = ap.parse_args(argv)

    mods = tracing.load_modules()
    src = Path(mods["core"].__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"imported slowfast from {src}, not from {ROOT / 'src'}")
    wl = build_workload(mods, args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    if args.trace:
        path = TRACE_DIR / f"spans-{args.workload}.npz"
        metrics, info = trace(wl, mods, checks, path)
    else:
        metrics, info = measure(wl, mods, args.seconds, checks, args.pause)
    print(json.dumps({"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "attempted": checks.attempted, "failed": checks.failed,
                      "info": info}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
