"""Command-line interface.

Subcommands: certify, slow-manifold, reduce, run.  Each runs the stage
functions of `harness` on one state; reduce straightens by the solved h and
Dh, as the reduction stage of `run` does.  Exit codes are a stable
contract: 0 success, 1 usage/schema error, 2 certificate infeasible,
3 non-convergence, 4 numeric failure.  `run` always writes its report;
then, when the first error a stage or check raised has an exit code, it
re-raises that error, so `main` reports it as it reports an error escaping
any command.  All files are written atomically (temp file + rename); CSV
uses '.' decimals, comma separators, a header row, and 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys as _sys
import tempfile

import numpy as np

from . import harness
from .errors import (ContractionError, ConvergenceError,
                     InfeasibleBudgetError, NoDecayError, SchemaError,
                     SlowfastError)
from .harness import ScenarioSpec, _number, _run
from .reduction import decompose_orbit, q_along_orbit, semiconjugacy_residual
from .systems import EXAMPLES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERIC = 4

# exception class -> exit code and stderr label; the first matching row wins
EXIT_CODES = (
    (SchemaError, EXIT_USAGE, "error"),
    ((InfeasibleBudgetError, ContractionError, NoDecayError), EXIT_INFEASIBLE, "infeasible"),
    (ConvergenceError, EXIT_NO_CONVERGENCE, "did not converge"),
    ((SlowfastError, ValueError, np.linalg.LinAlgError), EXIT_NUMERIC, "numeric failure"),
)


def _exit_row(exc_type):
    for types, code, label in EXIT_CODES:
        if issubclass(exc_type, types):
            return code, label
    return None


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".slowfast-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _parse_overrides(pairs):
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise SchemaError(f"override {p!r} is not KEY=VALUE")
        k, v = p.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError as exc:
            raise SchemaError(f"override value {v!r} is not a number") from exc
    return out


def _spec_from_args(args):
    data = {"system": args.system}
    if getattr(args, "scenario", None):
        try:
            with open(args.scenario) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:      # unreadable, or not JSON
            raise SchemaError(f"cannot read scenario {args.scenario}: {exc}") from exc
        if not isinstance(data, dict):
            raise SchemaError(f"scenario {args.scenario} is not a JSON object")
        # only run reads checks and reduction_points; reduce has no --derivative,
        # as it always solves Dh and never D2h
        unread = [k for k in ("checks", "reduction_points") if k in data and args.command != "run"]
        if "derivative" in data and not hasattr(args, "derivative"):
            unread.append("derivative")
        if unread:
            raise SchemaError(f"scenario {args.scenario}: {args.command} takes no "
                              f"{' or '.join(unread)} key")
        if args.system:
            data["system"] = args.system
    for key in ("eps", "grid", "m", "dt", "horizon", "derivative", "seed", "out"):
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    # --override merges into the scenario's overrides, the flag winning per key;
    # scenario overrides that are not a map stay as they are, for the schema to refuse
    ov = _parse_overrides(getattr(args, "override", None))
    base = data.get("overrides")
    if ov and (base is None or isinstance(base, dict)):
        data["overrides"] = {**(base or {}), **ov}
    if not data.get("system"):
        raise SchemaError("--system is required")
    return ScenarioSpec.from_dict(data)


def _parse_point(text):
    """--point as finite numbers, the rule the schema applies to reduction_points."""
    try:
        point = [float(v) for v in text.split(",")]
    except ValueError:
        point = None
    if point is None or not all(map(_number, point)):
        raise SchemaError(f"--point must be comma-separated finite numbers, not {text!r}")
    return point


def _print_hypothesis_table(cert):
    rows = cert.hypothesis_table()
    width = max(len(name) for name, _ in rows)
    print(f"{'hypothesis':<{width}}  status")
    for name, status in rows:
        print(f"{name:<{width}}  {status}")


def cmd_certify(args):
    spec = _spec_from_args(args)
    state = harness._state(spec)
    harness._stage_certify(spec, state)
    cert = state["cert"]
    _print_hypothesis_table(cert)
    if spec.out:
        _atomic_write(spec.out, cert.to_json() + "\n")
        print(f"wrote {spec.out}")
    required_fail = any(status == "fail" for _, status in cert.hypothesis_table())
    return EXIT_INFEASIBLE if required_fail else EXIT_OK


def cmd_slow_manifold(args):
    spec = _spec_from_args(args)
    state = harness._state(spec)
    for _, stage in harness._stages(spec, False):
        stage(spec, state)
    sysm, cert, h, rep = state["sys"], state["cert"], state["h"], state["h_report"]
    # a skipped derivative stage (a system without derivatives) leaves no field
    fields = {k: state[k] for k in ("h", "dh", "d2h") if k in state}
    out = spec.out or f"slow_manifold_{spec.system}"
    nodes = sysm.domain.node_coords()
    header = [f"y{a}" for a in range(sysm.n)]
    cols = [nodes[:, a] for a in range(sysm.n)]
    for name, gf in fields.items():
        flat = gf.values.reshape(nodes.shape[0], -1)
        for j in range(flat.shape[1]):
            header.append(f"{name}{j}" if flat.shape[1] > 1 else name)
            cols.append(flat[:, j])
    write_csv(out + ".csv", header, zip(*cols))
    payload = {
        "system": spec.system, "eps": sysm.meta["eps"],
        "grid": {"lower": sysm.domain.lower.tolist(),
                 "upper": sysm.domain.upper.tolist(),
                 "points": sysm.domain.shape},
        "certificate": json.loads(cert.to_json()),
        "report": {"converged": rep.converged, "sweeps": rep.iterations,
                   "residuals": rep.residuals,
                   "measured_ratio": rep.measured_ratio,
                   "theoretical_ratio": rep.theoretical_ratio},
    }
    _atomic_write(out + ".json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}.csv and {out}.json (sup |h| = {h.sup_norm():.6g})")
    return EXIT_OK


def cmd_reduce(args):
    spec = _spec_from_args(args)
    point = _parse_point(args.point)
    state = harness._state(spec)
    harness._stage_certify(spec, state)
    sysm, cfg_int = state["sys"], state["cfg_int"]
    if len(point) != sysm.m + sysm.n:
        raise SchemaError(f"--point needs {sysm.m}+{sysm.n} numbers, not {len(point)}")
    harness._stage_manifold(spec, state)
    harness._stage_derivative(spec, state)
    ssys, scert = harness._straightened(state)
    xi, eta = np.asarray(point[: sysm.m]), np.asarray(point[sysm.m:])
    res = q_along_orbit(ssys, xi, eta, scert, cfg_int)
    out = spec.out or f"reduction_{spec.system}"
    payload = res.to_dict()
    payload["semiconjugacy_residual"] = semiconjugacy_residual(
        ssys, res, t_max=5.0, cfg_int=cfg_int, cert=scert, n_checks=5)
    _atomic_write(out + ".json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    t_max = min(10.0, max(2.0, res.horizon)) if res.horizon > 0 else 5.0
    orbit, outer, layer = decompose_orbit(sysm, state["h"], res, t_max, cfg_int)
    header = (["t"]
              + [f"orbit_x{i}" for i in range(sysm.m)] + [f"orbit_y{a}" for a in range(sysm.n)]
              + [f"outer_x{i}" for i in range(sysm.m)] + [f"outer_y{a}" for a in range(sysm.n)]
              + [f"layer_x{i}" for i in range(sysm.m)] + [f"layer_y{a}" for a in range(sysm.n)])
    rows = np.concatenate([orbit.times[:, None], orbit.fast, orbit.slow,
                           outer.fast, outer.slow, layer.fast, layer.slow], axis=1)
    write_csv(out + ".csv", header, rows)
    print(f"wrote {out}.json and {out}.csv (P = {res.P.tolist()})")
    return EXIT_OK


def cmd_run(args):
    spec = _spec_from_args(args)
    report, exc = _run(spec)
    text = json.dumps(report, indent=2, sort_keys=True)
    if spec.out:
        _atomic_write(spec.out, text + "\n")
        print(f"wrote {spec.out}")
    else:
        print(text)
    for c in report["checks"]:
        print(f"check {c['name']}: {c['status']}")
    if exc is not None and _exit_row(type(exc)):
        raise exc
    return EXIT_OK if report["passed"] else EXIT_NO_CONVERGENCE


def _add_common(p, with_point=False):
    p.add_argument("--system", choices=sorted(EXAMPLES), help="built-in system name")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--eps", type=float, help="timescale parameter")
    p.add_argument("--grid", type=int, help="slow grid points per axis, >= 3 (an interior node per axis)")
    p.add_argument("--m", type=int, help="fast quadrature size (NF1)")
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    if not with_point:          # reduce always solves Dh and never D2h
        p.add_argument("--derivative", type=int, choices=(0, 1, 2))
    p.add_argument("--seed", type=int, help="sampling seed (default: the scenario's, else 0)")
    p.add_argument("--out")
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="certificate constant override")
    if with_point:
        p.add_argument("--point", required=True,
                       help="comma-separated xi,eta coordinates")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="slowfast",
        description="compute, certify and stress-test attracting slow manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("certify", help="estimate constants and print the hypothesis table")
    _add_common(p)
    p.set_defaults(fn=cmd_certify)
    p = sub.add_parser("slow-manifold", help="solve for h (and derivatives) on the grid")
    _add_common(p)
    p.set_defaults(fn=cmd_slow_manifold)
    p = sub.add_parser("reduce", help="reduction-map query at a point")
    _add_common(p, with_point=True)
    p.set_defaults(fn=cmd_reduce)
    p = sub.add_parser("run", help="full scenario with checks")
    _add_common(p)
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv=None):
    level = os.environ.get("SLOWFAST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except Exception as exc:
        row = _exit_row(type(exc))
        if row is None:
            raise
        code, label = row
        detail = f"{type(exc).__name__}: {exc}" if code == EXIT_NUMERIC else exc
        print(f"{label}: {detail}", file=_sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
