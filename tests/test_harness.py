"""Scenario runner, exponential fitting, report determinism."""

import inspect
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.errors import SchemaError, UnderdeterminedError
from slowfast import harness
from slowfast.core import GridDomain
from slowfast.harness import KNOWN_CHECKS, ScenarioSpec, run_scenario
from slowfast.reduction import fit_exponential
from slowfast.systems import EXAMPLES


class TestFitExponential:
    def test_exact_exponential(self):
        ts = np.linspace(0, 3, 40)
        fit = fit_exponential(list(zip(ts, 3.0 * np.exp(-2.0 * ts))), 1e-12)
        assert fit.rate == pytest.approx(2.0, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
        assert fit.r2 >= 0.999

    def test_constant_samples_flag_zero_rate(self):
        ts = np.linspace(0, 3, 20)
        fit = fit_exponential(list(zip(ts, np.full(20, 0.7))), 1e-12)
        assert abs(fit.rate) <= 1e-9

    def test_modulated_exponential(self):
        ts = np.linspace(0, 6, 200)
        vals = np.exp(-ts) * (1.0 + 0.01 * np.sin(ts))
        fit = fit_exponential(list(zip(ts, vals)), 1e-12)
        assert fit.rate == pytest.approx(1.0, rel=0.02)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            fit_exponential([(0.0, 1e-15), (1.0, 1e-16)], 1e-12)

    def test_noise_floor_filters(self):
        ts = np.linspace(0, 20, 100)
        vals = np.maximum(np.exp(-ts), 1e-13) + 1e-13
        fit = fit_exponential(list(zip(ts, vals)), 1e-6)
        assert fit.rate == pytest.approx(1.0, rel=0.05)
        assert fit.n_used < 100


class TestScenarioSpec:
    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"system": "L1", "bogus": 1})

    def test_unknown_system_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"system": "L9"})

    def test_bad_type_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"system": "L1", "grid": "many"})

    def test_bad_check_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"system": "L1", "checks": ["nope"]})

    def test_roundtrip(self):
        spec = ScenarioSpec.from_dict({"system": "L1", "eps": 0.1, "seed": 3})
        assert spec.to_dict()["system"] == "L1"

    @pytest.mark.parametrize("doc", [
        {"eps": []}, {"eps": ["a"]}, {"eps": [0.1, 0.05]}, {"eps": True},
        {"eps": float("nan")},
        pytest.param({"eps": 2 ** 1100}, id="eps-beyond-float-range"),
        {"domain": [0.5]}, {"domain": [1.0, 0.0]}, {"domain": [0.0, float("inf")]},
        {"grid": [3, "x"]}, {"grid": 1}, {"grid": 2}, {"grid": True}, {"m": 0},
        {"dt": 0.0}, {"dt": float("nan")}, {"horizon": -1.0},
        {"seed": -1}, {"seed": None}, {"derivative": True},
        {"overrides": {"K": "x"}}, {"overrides": {"K": 2.0}}, {"overrides": {"Q": 1.0}},
        {"overrides": {"N1": float("inf")}},
        {"reduction_points": [[0.1]]}, {"reduction_points": [[0.1, "a"]]},
        {"m": 7}, {"reduction_points": [[0.1, 0.2]]},      # read by no stage of L1
    ], ids=lambda doc: json.dumps(doc, separators=(",", ":")))
    def test_bad_value_rejected(self, doc):
        with pytest.raises(SchemaError):
            ScenarioSpec.from_dict({"system": "L1", **doc})


_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
           | st.sampled_from(sorted(EXAMPLES) + list(KNOWN_CHECKS) + ["K", "mu"]))
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.sampled_from(["K", "mu", "N1", "Q"]), inner,
                                         max_size=3), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(system=st.sampled_from(sorted(EXAMPLES) + ["L9"]),
       doc=st.dictionaries(st.sampled_from(sorted(harness._SCHEMA) + ["bogus"]), _VALUES,
                           max_size=5))
def test_fuzzed_scenario_resolves_or_raises_schema_error(system, doc):
    """A scenario document either gives a spec that resolves, or a SchemaError."""
    try:
        spec = ScenarioSpec.from_dict({"system": system, **doc})
    except SchemaError:
        return
    spec.resolved()


class TestRunScenario:
    def test_l1_default_scenario_passes(self):
        spec = ScenarioSpec.from_dict({
            "system": "L1", "dt": 0.01,
            "checks": ["hypotheses", "manifold", "analytic_h", "eqv_residual",
                       "derivative_fd", "contraction"]})
        report = run_scenario(spec)
        assert report["passed"], json.dumps(report["checks"], indent=2)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["analytic_h"]["metrics"]["sup_error"] <= 1e-6

    def test_broken_certificate_reported_not_thrown(self):
        spec = ScenarioSpec.from_dict({
            "system": "L1", "dt": 0.01, "overrides": {"N1": 10.0},
            "checks": ["hypotheses", "manifold"]})
        report = run_scenario(spec)
        assert not report["passed"]
        stages = {s["name"]: s for s in report["stages"]}
        assert stages["slow_manifold"]["status"] == "error"
        assert "Contraction" in stages["slow_manifold"]["metrics"]["error"] or \
            "budget" in stages["slow_manifold"]["metrics"]["error"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["hypotheses"]["status"] == "fail"

    def test_any_exception_reported_not_thrown(self, monkeypatch):
        def boom(spec, state):
            raise TypeError("unsupported operand")
        monkeypatch.setattr(harness, "_stage_derivative", boom)
        monkeypatch.setitem(harness._CHECKS, "manifold", boom)
        spec = ScenarioSpec.from_dict({
            "system": "L1", "dt": 0.02, "grid": 21, "derivative": 1,
            "checks": ["hypotheses", "manifold"]})
        report = run_scenario(spec)
        assert not report["passed"]
        stages = {s["name"]: s for s in report["stages"]}
        assert stages["slow_manifold"]["status"] == "ok"
        assert stages["derivative"]["status"] == "error"
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["hypotheses"]["status"] == "pass"
        assert by_name["manifold"]["status"] == "error"
        for entry in (stages["derivative"], by_name["manifold"]):
            assert entry["metrics"]["error"] == "TypeError: unsupported operand"
        json.dumps(report)

    def test_analytic_h_skipped_for_vector_fast_state(self):
        dom = GridDomain([0.0], [1.0], [5])
        state = {"example": SimpleNamespace(analytic_h=lambda y, eps: y, h_tol=1.0),
                 "sys": SimpleNamespace(m=2, domain=dom), "eps": 0.1,
                 "h": lambda y: np.zeros(y.shape[:-1] + (2,))}
        entry = harness._CHECKS["analytic_h"](None, state)
        assert entry["name"] == "analytic_h" and entry["status"] == "skipped"

    def test_nf1_scenario(self):
        spec = ScenarioSpec.from_dict({
            "system": "NF1", "m": 32, "grid": 21, "dt": 0.01, "derivative": 0,
            "checks": ["hypotheses", "manifold", "invariance", "spectral_gap"]})
        report = run_scenario(spec)
        assert report["passed"], json.dumps(report["checks"], indent=2)
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["invariance"]["metrics"]["residual"] <= 1e-4
        assert by_name["spectral_gap"]["metrics"]["margin"] >= 0.5 - 1e-9

    @pytest.mark.parametrize("horizon, solves", [(None, 2), (6.0, 3)])
    def test_eps0_manifold_solved_once(self, monkeypatch, horizon, solves):
        """norm_bound and spectral_gap share the eps = 0 manifold when they
        solve it with the same horizon (a set horizon reaches norm_bound only)."""
        calls = []
        solve = harness.lp_solve
        monkeypatch.setattr(harness, "lp_solve",
                            lambda *a, **kw: calls.append(a) or solve(*a, **kw))
        spec = ScenarioSpec.from_dict({
            "system": "NF1", "m": 8, "grid": 11, "dt": 0.05, "derivative": 0,
            "horizon": horizon, "checks": ["spectral_gap", "norm_bound"]})
        report = run_scenario(spec)
        assert len(calls) == solves                   # the stage's solve, then eps = 0
        assert [c["status"] for c in report["checks"]] == ["pass", "pass"]

    def test_horizon_reaches_every_solve(self, monkeypatch):
        """A set horizon reaches the stage's solve, eqv_residual, contraction and
        norm_bound's eps = 0 solve; spectral_gap's eps = 0 solve keeps the
        certificate's (None)."""
        got = []

        def record(name):
            fn = getattr(harness, name)
            sig = inspect.signature(fn)

            def wrapped(*a, **kw):
                got.append((name, sig.bind(*a, **kw).arguments.get("horizon")))
                return fn(*a, **kw)
            monkeypatch.setattr(harness, name, wrapped)

        for name in ("lp_solve", "lp_map_batch", "eqv_residual"):
            record(name)
        spec = ScenarioSpec.from_dict({
            "system": "Q1", "grid": 11, "dt": 0.1, "derivative": 0, "horizon": 6.0,
            "checks": ["eqv_residual", "contraction", "norm_bound", "spectral_gap"]})
        run_scenario(spec)
        assert got == [("lp_solve", 6.0), ("eqv_residual", 6.0), ("lp_map_batch", 6.0),
                       ("lp_solve", 6.0), ("lp_solve", None)]

    def test_contraction_check_one_batch_equals_serial_pairs(self, monkeypatch):
        from slowfast.manifold import lp_map
        spec = ScenarioSpec.from_dict({"system": "Q1", "dt": 0.1, "seed": 3})
        state = harness._state(spec)
        harness._stage_certify(spec, state)
        batches = []
        batch = harness.lp_map_batch
        monkeypatch.setattr(harness, "lp_map_batch",
                            lambda sys, sigmas, *a, **kw: batches.append(len(sigmas))
                            or batch(sys, sigmas, *a, **kw))
        entry = harness._CHECKS["contraction"](spec, state)
        assert batches == [10]
        sys, cert, cfg_int = (state[k] for k in ("sys", "cert", "cfg_int"))
        rng = np.random.default_rng(spec.seed + 1)
        worst = 0.0
        for _ in range(5):
            s1, s2 = (harness._random_ball_sigma(sys, sys.domain, cert.ball_radius, rng)
                      for _ in range(2))
            d = float(np.max(sys.norm_x(s2.values - s1.values)))
            images = [lp_map(sys, s, cert, cfg_int).values for s in (s1, s2)]
            worst = max(worst, float(np.max(sys.norm_x(images[1] - images[0]))) / d)
        assert entry["metrics"]["measured"] == worst

    @pytest.mark.parametrize("doc", [
        {"system": "L1", "dt": 0.02, "grid": 21, "checks": ["hypotheses", "manifold"]},
        {"system": "Q1", "dt": 0.05, "grid": 21, "derivative": 2},
        {"system": "L2", "grid": 21},
        {"system": "VDP-cut", "dt": 0.05, "grid": 21},
        {"system": "NF1", "m": 8, "grid": 11, "dt": 0.05, "derivative": 0,
         "checks": ["hypotheses", "spectral_gap", "manifold", "invariance",
                    "eqv_residual"]},
    ], ids=lambda doc: doc["system"])
    def test_determinism_byte_identical(self, doc):
        spec = ScenarioSpec.from_dict({**doc, "seed": 42})
        a = json.dumps(run_scenario(spec), sort_keys=True)
        b = json.dumps(run_scenario(spec), sort_keys=True)
        assert a == b
        assert json.loads(a)["passed"]
