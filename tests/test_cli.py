"""Command-line interface: exit codes, file outputs, schema validation."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import cli, errors, harness
from slowfast.core import GridFunction
from slowfast.cli import EXIT_NO_CONVERGENCE, main, write_csv
from slowfast.errors import (ConvergenceError, InfeasibleBudgetError,
                             NumericError)


def run_cli(*argv):
    return main(list(argv))


class TestCertifyCommand:
    def test_l1_all_pass(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code = run_cli("certify", "--system", "L1", "--eps", "0.1",
                       "--dt", "0.01", "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "pass" in text and "fail" not in text
        data = json.loads(out.read_text())
        assert data["K"] >= 1.0
        assert data["provenance"]["K"] == "sampled"

    def test_override_infeasible_exits_2(self, capsys):
        code = run_cli("certify", "--system", "L1", "--override", "N1=10")
        assert code == 2
        assert "fail" in capsys.readouterr().out

    def test_nf1_prints_no_second_gap(self, capsys):
        # NF1's spectral gap has one definition: the `spectral_gap` check of run
        code = run_cli("certify", "--system", "NF1", "--m", "32", "--grid", "11",
                       "--dt", "0.01")
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("hypothesis") and "spectral gap" not in text

    def test_unknown_system_usage_error(self, capsys):
        assert run_cli("certify", "--system", "L9") == 1


class TestSlowManifoldCommand:
    def test_l1_csv_value(self, tmp_path):
        out = tmp_path / "l1"
        code = run_cli("slow-manifold", "--system", "L1", "--eps", "0.1",
                       "--dt", "0.01", "--derivative", "1", "--out", str(out))
        assert code == 0
        lines = (tmp_path / "l1.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["y0", "h", "dh"]
        rows = {float(r.split(",")[0]): [float(v) for v in r.split(",")[1:]]
                for r in lines[1:]}
        assert rows[0.5][0] == pytest.approx(0.4, abs=1e-6)
        assert rows[0.5][1] == pytest.approx(1.0, abs=1e-6)
        report = json.loads((tmp_path / "l1.json").read_text())
        assert report["report"]["converged"]

    def test_eps_zero_newton_branch(self, tmp_path):
        out = tmp_path / "q1z"
        code = run_cli("slow-manifold", "--system", "Q1", "--eps", "0.0",
                       "--dt", "0.01", "--derivative", "0", "--out", str(out))
        assert code == 0
        lines = (tmp_path / "q1z.csv").read_text().strip().splitlines()
        for row in lines[1:]:
            y, h = (float(v) for v in row.split(","))
            assert h == pytest.approx(y * y, abs=1e-6)

    def test_csv_17_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a"], [[1.0 / 3.0]])
        assert "0.33333333333333331" in path.read_text()


class TestReduceCommand:
    def test_l2_point(self, tmp_path):
        out = tmp_path / "red"
        code = run_cli("reduce", "--system", "L2", "--eps", "0.1", "--dt", "0.005",
                       "--point", "1.0,0.0", "--out", str(out))
        assert code == 0
        data = json.loads((tmp_path / "red.json").read_text())
        assert data["P"][0] == pytest.approx(0.1, abs=1e-6)
        assert data["converged"]
        lines = (tmp_path / "red.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        # three tracks: orbit, outer, layer
        assert len(lines[0].split(",")) == 1 + 3 * 2

    def test_xi_zero_q_exact_zero(self, tmp_path):
        out = tmp_path / "red0"
        code = run_cli("reduce", "--system", "L2", "--eps", "0.1",
                       "--point", "0.0,0.3", "--out", str(out))
        assert code == 0
        data = json.loads((tmp_path / "red0.json").read_text())
        assert data["Q"] == [0.0]

    @pytest.mark.parametrize("point, certifies", [
        ("1.0", True), ("1.0,abc", False), ("nan,0.0", False), ("1.0,0.0,5", True)],
        ids=["short", "not-a-number", "nan", "long"])
    def test_bad_point_usage_error(self, tmp_path, monkeypatch, point, certifies):
        """A --point of anything but m + n finite numbers exits 1 and writes
        nothing: an entry that is not a finite number before any stage, a wrong
        count right after the certify stage, before the manifold is solved."""
        ran = []
        for name in ("_stage_certify", "_stage_manifold"):
            monkeypatch.setattr(harness, name, _recording(ran, name, getattr(harness, name)))
        out = tmp_path / "red"
        assert run_cli("reduce", "--system", "L2", "--point", point, "--out", str(out)) == 1
        assert ran == (["_stage_certify"] if certifies else [])
        assert list(tmp_path.iterdir()) == []

    def test_derivative_flag_usage_error(self, tmp_path, monkeypatch):
        """reduce always solves Dh and never D2h, so it takes no --derivative:
        the flag exits 1 before any stage and writes nothing."""
        ran = []
        monkeypatch.setattr(harness, "_stage_certify",
                            _recording(ran, "_stage_certify", harness._stage_certify))
        out = tmp_path / "red"
        assert run_cli("reduce", "--system", "L2", "--derivative", "2",
                       "--point", "1.0,0.0", "--out", str(out)) == 1
        assert ran == []
        assert list(tmp_path.iterdir()) == []

    def test_scenario_derivative_key_usage_error(self, tmp_path, monkeypatch):
        """A scenario's derivative key is refused like the flag: exit 1 before
        any stage, and nothing written."""
        ran = []
        monkeypatch.setattr(harness, "_stage_certify",
                            _recording(ran, "_stage_certify", harness._stage_certify))
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"system": "L2", "derivative": 2}))
        out = tmp_path / "red"
        assert run_cli("reduce", "--scenario", str(scen),
                       "--point", "1.0,0.0", "--out", str(out)) == 1
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scen.json"]


@pytest.mark.parametrize("command, doc, extra", [
    ("certify", {"system": "L1", "checks": ["manifold"], "dt": 0.1}, []),
    ("slow-manifold", {"system": "L2", "eps": 0.1, "reduction_points": [[0.3, 0.2]]}, []),
    ("reduce", {"system": "L2", "eps": 0.1, "reduction_points": [[0.3, 0.2]]},
     ["--point", "1.0,0.0"]),
], ids=["certify-checks", "slow-manifold-reduction_points", "reduce-reduction_points"])
def test_run_only_scenario_keys_usage_error(tmp_path, monkeypatch, command, doc, extra):
    """Only run reads a scenario's checks and reduction_points; the other
    commands refuse them: exit 1 before any stage, and nothing written."""
    ran = []
    monkeypatch.setattr(harness, "_stage_certify",
                        _recording(ran, "_stage_certify", harness._stage_certify))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(doc))
    assert run_cli(command, "--scenario", str(scen), *extra, "--out", str(tmp_path / "o")) == 1
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scen.json"]
    # run keeps both keys
    spec = cli._spec_from_args(cli.make_parser().parse_args(["run", "--scenario", str(scen)]))
    assert (spec.checks, spec.reduction_points) == (doc.get("checks"),
                                                    doc.get("reduction_points"))


def _recording(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapped


class TestCommandsRunTheStages:
    """certify, slow-manifold and reduce solve through the stage functions of
    `harness`, and the reduction stage straightens by the solved h and Dh."""

    @pytest.mark.parametrize("argv", [
        ("slow-manifold", "--system", "L1", "--dt", "0.1", "--grid", "21"),
        ("reduce", "--system", "L2", "--dt", "0.1", "--point", "1.0,0.0")],
        ids=["slow-manifold", "reduce"])
    def test_a_failing_manifold_stage_fails_the_command(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(harness, "_stage_manifold", _raising(NumericError, "no h"))
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 4
        assert list(tmp_path.iterdir()) == []

    def test_reduction_straightens_the_solved_manifold(self, tmp_path, monkeypatch):
        seen = []
        straighten = harness.straighten
        monkeypatch.setattr(harness, "straighten",
                            lambda sys, h, dh, d2h=None: seen.append((h, dh, d2h))
                            or straighten(sys, h, dh, d2h))
        assert run_cli("run", "--system", "L2", "--out", str(tmp_path / "r.json")) == 0
        assert len(seen) == 1
        h, dh, d2h = seen[0]
        assert isinstance(h, GridFunction) and isinstance(dh, GridFunction)
        assert d2h is None

    def test_derivative_fd_reads_the_stage(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "fd_derivative_error",
                            _recording(calls, "fd", harness.fd_derivative_error))
        assert run_cli("run", "--system", "L1", "--dt", "0.1", "--grid", "21",
                       "--out", str(tmp_path / "r.json")) == 0
        assert calls == ["fd"]


class TestRunCommand:
    def test_l1_scenario_file(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "system": "L1", "dt": 0.02, "grid": 21,
            "checks": ["hypotheses", "manifold", "analytic_h"]}))
        out = tmp_path / "report.json"
        code = run_cli("run", "--system", "L1", "--scenario", str(scen),
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"]

    def test_failing_check_nonzero_exit(self, tmp_path):
        # N1=10 breaks the existence budget: the slow_manifold stage raises
        # ContractionError, so the run exits 2, as `certify` does for it
        code = run_cli("run", "--system", "L1", "--dt", "0.02", "--grid", "21",
                       "--override", "N1=10")
        assert code == 2

    def test_report_bytes_do_not_depend_on_out(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({
            "system": "L1", "dt": 0.02, "grid": 21,
            "checks": ["hypotheses", "manifold", "analytic_h"]}))
        paths = [tmp_path / "a.json", tmp_path / "elsewhere" / "b.json"]
        for out in paths:
            assert run_cli("run", "--system", "L1", "--scenario", str(scen),
                           "--out", str(out)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert "out" not in json.loads(paths[0].read_text())["scenario"]

    def test_unknown_scenario_key_exit_1(self, tmp_path):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"system": "L1", "wat": True}))
        assert run_cli("run", "--system", "L1", "--scenario", str(scen)) == 1

    @pytest.mark.parametrize("text", ['{"system": "L1", "eps": []}', "[1, 2]", "{bad", None],
                             ids=["empty-eps", "list", "not-json", "missing"])
    def test_malformed_scenario_exit_1(self, tmp_path, capsys, text):
        scen = tmp_path / "scen.json"
        if text is not None:
            scen.write_text(text)
        assert run_cli("run", "--scenario", str(scen)) == 1
        assert capsys.readouterr().err.startswith("error: ")


def _raising(cls, message="injected"):
    def fn(*args):
        raise cls(message)
    return fn


def _quiet(spec, state):
    return {}


SMALL_RUN = ("run", "--system", "L1", "--dt", "0.02", "--grid", "21")


class TestRunExitCodes:
    """`run` writes its report, then exits as the first error would have."""

    @pytest.mark.parametrize("cls, code", [(NumericError, 4), (InfeasibleBudgetError, 2),
                                           (ConvergenceError, 3), (ValueError, 4)])
    def test_stage_error_class_sets_exit(self, monkeypatch, tmp_path, cls, code):
        monkeypatch.setattr(harness, "_stage_certify", _raising(cls))
        out = tmp_path / "report.json"
        assert run_cli(*SMALL_RUN, "--out", str(out)) == code
        report = json.loads(out.read_text())
        assert report["stages"][0] == {"name": "certify", "status": "error",
                                       "metrics": {"error": f"{cls.__name__}: injected"}}

    def test_failing_check_without_error_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_stage_certify", lambda spec, state: {"certificate": {}})
        for stage in ("_stage_manifold", "_stage_derivative"):
            monkeypatch.setattr(harness, stage, _quiet)
        monkeypatch.setitem(harness._CHECKS, "hypotheses",
                            lambda spec, state: harness._check("hypotheses", False))
        monkeypatch.setitem(harness._DEFAULT_CHECKS, "L1", ["hypotheses"])
        assert run_cli(*SMALL_RUN) == 3
        out = capsys.readouterr().out
        assert "check hypotheses: fail" in out and '"error"' not in out

    def test_check_error_after_every_stage_sets_exit(self, monkeypatch, tmp_path):
        """Every stage completes and two checks raise: the report is written
        with both errors, and the exit code is the first one's."""
        monkeypatch.setattr(harness, "_stage_certify", lambda spec, state: {"certificate": {}})
        for stage in ("_stage_manifold", "_stage_derivative"):
            monkeypatch.setattr(harness, stage, _quiet)
        monkeypatch.setitem(harness._CHECKS, "hypotheses", _raising(NumericError))
        monkeypatch.setitem(harness._CHECKS, "manifold", _raising(ConvergenceError))
        monkeypatch.setitem(harness._DEFAULT_CHECKS, "L1", ["hypotheses", "manifold"])
        out = tmp_path / "report.json"
        assert run_cli(*SMALL_RUN, "--out", str(out)) == 4
        report = json.loads(out.read_text())
        assert [e["status"] for e in report["stages"]] == ["ok"] * 3
        assert [(e["name"], e["status"], e["metrics"]["error"]) for e in report["checks"]] == [
            ("hypotheses", "error", "NumericError: injected"),
            ("manifold", "error", "ConvergenceError: injected")]
        assert report["passed"] is False

    def test_error_class_defined_outside_the_package_sets_exit(self, monkeypatch):
        class LocalNumeric(NumericError):
            pass

        monkeypatch.setattr(harness, "_stage_certify", _raising(LocalNumeric))
        assert run_cli(*SMALL_RUN) == 4


def _skips(reason, *names):
    return [(name, "skipped", reason) for name in names]


# (flags, exit code, [(stage, status, reason or error)], [(check, status, reason or error)])
FAILURE_PATHS = {
    "Q1-unstable-step": (
        ("--system", "Q1", "--dt", "5"), 2,
        [("certify", "error", "NoDecayError: sampled process norms grow "
                              "(worst tail rate -0.524 <= 0 at step dt = 5)"),
         *_skips("stage certify failed", "slow_manifold", "derivative")],
        [*_skips("stage certify did not run", "hypotheses"),
         *_skips("stage slow_manifold did not run", "manifold", "analytic_h", "eqv_residual"),
         *_skips("stage derivative did not run", "derivative_fd"),
         *_skips("stage slow_manifold did not run", "contraction", "norm_bound")]),
    "VDP-cut-negative-eps": (
        ("--system", "VDP-cut", "--eps", "-1", "--dt", "0.1"), 2,
        [("certify", "error", "InfeasibleBudgetError: K*M1x >= mu: no contraction budget exists"),
         *_skips("stage certify failed", "slow_manifold", "derivative")],
        [*_skips("stage certify did not run", "hypotheses", "spectral_gap"),
         *_skips("stage slow_manifold did not run", "manifold", "eqv_residual")]),
    "L1-no-existence-budget": (
        ("--system", "L1", "--dt", "0.1", "--grid", "21", "--override", "N1=10"), 2,
        [("certify", "ok", None),
         ("slow_manifold", "error",
          "ContractionError: certificate does not satisfy the existence budget"),
         *_skips("stage slow_manifold failed", "derivative")],
        [("hypotheses", "fail", None),
         *_skips("stage slow_manifold did not run", "manifold", "analytic_h", "eqv_residual"),
         *_skips("stage derivative did not run", "derivative_fd"),
         *_skips("stage slow_manifold did not run", "contraction", "norm_bound")]),
    "Q1-no-smoothness-budget": (
        ("--system", "Q1", "--dt", "0.1", "--override", "rho=0.5"), 2,
        [("certify", "ok", None), ("slow_manifold", "ok", None),
         ("derivative", "error",
          "ContractionError: certificate does not satisfy the smoothness budget")],
        [("hypotheses", "fail", None), ("manifold", "pass", None),
         ("analytic_h", "pass", None), ("eqv_residual", "pass", None),
         *_skips("stage derivative did not run", "derivative_fd"),
         ("contraction", "pass", None), ("norm_bound", "pass", None)]),
    "L1-no-order-2-budget": (
        ("--system", "L1", "--dt", "0.1", "--grid", "21", "--derivative", "2",
         "--override", "N1=0.12", "--override", "rho=3"), 2,
        [("certify", "ok", None), ("slow_manifold", "ok", None), ("derivative", "ok", None),
         ("second_derivative", "error",
          "InfeasibleBudgetError: order-2 budget violated "
          "(needs 2 N1 < mu - K M1x and the k=2 inequality)")],
        [("hypotheses", "pass", None), ("manifold", "pass", None),
         ("analytic_h", "pass", None), ("eqv_residual", "pass", None),
         ("derivative_fd", "pass", None), ("contraction", "pass", None),
         ("norm_bound", "pass", None)]),
    "L2-no-reduction-budget": (
        ("--system", "L2", "--dt", "0.1", "--override", "K=20", "--override", "mu=1"), 2,
        [("certify", "ok", None), ("slow_manifold", "ok", None), ("derivative", "ok", None),
         ("reduction", "error", "ContractionError: reduction budget K N1 < mu' violated")],
        [("hypotheses", "fail", None), ("manifold", "pass", None),
         ("analytic_h", "pass", None),
         *_skips("stage reduction did not run", "reduction")]),
    "L1-no-derivative": (
        ("--system", "L1", "--dt", "0.1", "--grid", "21", "--derivative", "0"), 0,
        [("certify", "ok", None), ("slow_manifold", "ok", None)],
        [("hypotheses", "pass", None), ("manifold", "pass", None),
         ("analytic_h", "pass", None), ("eqv_residual", "pass", None),
         *_skips("stage derivative did not run", "derivative_fd"),
         ("contraction", "pass", None), ("norm_bound", "pass", None)]),
    # the reduction stage straightens by the solved Dh, so its stage runs anyway
    "L2-no-derivative": (
        ("--system", "L2", "--dt", "0.05", "--derivative", "0"), 0,
        [("certify", "ok", None), ("slow_manifold", "ok", None),
         ("derivative", "ok", None), ("reduction", "ok", None)],
        [("hypotheses", "pass", None), ("manifold", "pass", None),
         ("analytic_h", "pass", None), ("reduction", "pass", None)]),
}


@pytest.mark.parametrize("case", list(FAILURE_PATHS))
def test_failure_path_report(tmp_path, capsys, case):
    """A failed stage skips the later stages and every check that reads one of
    them; each skip names its stage, and the exit code is the first error's."""
    flags, code, stages, checks = FAILURE_PATHS[case]
    out = tmp_path / "report.json"
    assert run_cli("run", *flags, "--out", str(out)) == code
    report = json.loads(out.read_text())

    def entries(kind):
        return [(e["name"], e["status"], e["metrics"].get("reason", e["metrics"].get("error")))
                for e in report[kind]]

    assert entries("stages") == stages
    assert entries("checks") == checks
    assert report["passed"] == (code == 0)
    assert "KeyError" not in out.read_text()


ERROR_CLASSES = sorted(
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    + [ValueError, np.linalg.LinAlgError, KeyError, RuntimeError], key=lambda c: c.__name__)


@settings(max_examples=40, deadline=None)
@given(cls=st.sampled_from(ERROR_CLASSES), message=st.text(max_size=12))
def test_run_exit_matches_the_escaped_error(cls, message):
    """A stage error gives `run` the exit code `main` gives the same error
    escaping a command; a class with no code of its own keeps exit 3."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_stage_certify", _raising(cls, message))
        mp.setattr(cli, "cmd_certify", _raising(cls, message))
        run_code = run_cli(*SMALL_RUN)
        try:
            escaped = run_cli("certify", "--system", "L1")
        except cls:
            escaped = EXIT_NO_CONVERGENCE
    assert run_code == escaped


class TestSpecFromArgs:
    """Every common flag lands in the scenario spec under its own key."""

    def spec(self, *flags, system="Q1"):
        return cli._spec_from_args(cli.make_parser().parse_args(["run", "--system", system,
                                                                 *flags]))

    def test_every_flag_lands(self):
        # NF1: the one system that reads --m
        spec = self.spec("--eps", "0.05", "--grid", "21", "--m", "16", "--dt", "0.1",
                         "--horizon", "7.5", "--derivative", "2", "--seed", "3",
                         "--out", "r.json", "--override", "N1=0.2", "--override", "K=1.5",
                         "--override", "mu=0.9", system="NF1")
        assert (spec.system, spec.eps, spec.grid, spec.m, spec.dt, spec.horizon,
                spec.derivative, spec.seed, spec.out) == (
            "NF1", 0.05, 21, 16, 0.1, 7.5, 2, 3, "r.json")
        assert spec.overrides == {"N1": 0.2, "K": 1.5, "mu": 0.9}

    def test_repeated_eps_keeps_the_last_like_dt(self):
        spec = self.spec("--eps", "0.1", "--eps", "0.05", "--dt", "0.2", "--dt", "0.1")
        assert (spec.eps, spec.dt) == (0.05, 0.1)

    def test_unset_flags_keep_defaults(self):
        spec = self.spec()
        assert spec == harness.ScenarioSpec(system="Q1")

    def test_override_flags_merge_into_the_scenario_map(self, tmp_path, capsys):
        """Each --override sets its own key of a scenario's overrides and keeps
        the others; a scenario map that is not a map is still a schema error."""
        scen = tmp_path / "scen.json"
        parse = lambda *flags: cli._spec_from_args(cli.make_parser().parse_args(
            ["run", "--scenario", str(scen), *flags]))
        scen.write_text(json.dumps({"system": "L1", "overrides": {"K": 1.5, "mu": 0.75}}))
        assert parse("--override", "N1=0.2").overrides == {"K": 1.5, "mu": 0.75, "N1": 0.2}
        assert parse("--override", "mu=0.5").overrides == {"K": 1.5, "mu": 0.5}
        assert parse().overrides == {"K": 1.5, "mu": 0.75}
        scen.write_text(json.dumps({"system": "L1", "overrides": [["K", 1.5]]}))
        assert run_cli("run", "--scenario", str(scen), "--override", "N1=0.2") == 1
        assert capsys.readouterr().err.startswith("error: scenario key 'overrides' must be ")

    @pytest.mark.parametrize("override", ["rho", "rho=abc"], ids=["no-equals", "not-a-number"])
    def test_malformed_override_usage_error(self, capsys, override):
        assert run_cli("certify", "--system", "L1", "--override", override) == 1
        assert capsys.readouterr().err.startswith("error: override ")

    @pytest.mark.parametrize("doc", [None, {"dt": 0.1}], ids=["no-scenario", "scenario"])
    def test_no_system_usage_error(self, tmp_path, capsys, doc):
        argv = ["run"]
        if doc is not None:
            scen = tmp_path / "scen.json"
            scen.write_text(json.dumps(doc))
            argv += ["--scenario", str(scen)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == "error: --system is required\n"


def test_scenario_seed_unless_the_flag_is_given(tmp_path):
    """--seed overrides a scenario's seed only when it is given: a scenario
    with seed 3 certifies with the bytes of --seed 3, not those of seed 0."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"system": "L2", "seed": 3, "dt": 0.1}))
    runs = {"scenario": ["--scenario", str(scen)],
            "flag": ["--system", "L2", "--dt", "0.1", "--seed", "3"],
            "default": ["--system", "L2", "--dt", "0.1"]}
    for name, argv in runs.items():
        assert run_cli("certify", *argv, "--out", str(tmp_path / f"{name}.json")) == 0
    read = lambda name: (tmp_path / f"{name}.json").read_bytes()
    assert read("scenario") == read("flag") != read("default")
    parse = lambda *flags: cli._spec_from_args(cli.make_parser().parse_args(
        ["run", "--scenario", str(scen), *flags]))
    assert (parse().seed, parse("--seed", "5").seed, parse("--seed", "0").seed) == (3, 5, 0)


@pytest.mark.parametrize("point", [[[1.0, 2.0], 0.0], [0.5, [0.0, 1.0]]],
                         ids=["long-xi", "long-eta"])
def test_reduction_point_of_wrong_size_usage_error(tmp_path, monkeypatch, point):
    """A scenario's reduction point whose xi does not have m entries, or whose
    eta does not have n, exits 1 from the certify stage, before any solve, and
    the report names the point."""
    ran = []
    monkeypatch.setattr(harness, "_stage_manifold",
                        _recording(ran, "_stage_manifold", harness._stage_manifold))
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"system": "L2", "dt": 0.05, "checks": ["reduction"],
                                "reduction_points": [[0.3, 0.2], point]}))
    out = tmp_path / "report.json"
    assert run_cli("run", "--scenario", str(scen), "--out", str(out)) == 1
    assert ran == []
    stage = json.loads(out.read_text())["stages"][0]
    assert (stage["name"], stage["status"]) == ("certify", "error")
    assert stage["metrics"]["error"].startswith(f"SchemaError: reduction point 1 {point!r}:")


def test_run_stage_error_on_stderr(tmp_path, capsys):
    """`run` writes its report, then prints the first stage error to stderr
    as an error escaping a command prints, and exits with its code."""
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"system": "L2", "dt": 0.05, "checks": ["reduction"],
                                "reduction_points": [[0.3, 0.2], [[1.0, 2.0], 0.0]]}))
    out = tmp_path / "report.json"
    assert run_cli("run", "--scenario", str(scen), "--out", str(out)) == 1
    error = json.loads(out.read_text())["stages"][0]["metrics"]["error"]
    assert capsys.readouterr().err == "error: " + error.removeprefix("SchemaError: ") + "\n"


class TestAtomicWrite:
    def test_no_partial_file_on_same_name(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        from slowfast.cli import _atomic_write
        _atomic_write(str(target), "new")
        assert target.read_text() == "new"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".slowfast-")]
        assert not leftovers

    def test_no_temp_file_when_the_rename_fails(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        target.write_text("old")

        def fail(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="injected"):
            cli._atomic_write(str(target), "new")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]
