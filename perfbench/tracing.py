"""In-memory span tracing of the slowfast package, applied from outside.

A `Probe` replaces public names of the package with thin wrappers and
restores them afterwards; nothing under `src/` changes.  A name that another
module imported (for example `rk4_final` inside `slowfast.manifold`, or the
solvers that `slowfast.harness` imported) is replaced in every module
namespace that holds the same object, so every call site is seen.

With spans on, each call records (span id, parent span id, name, start, end,
run id); the spans stay in memory until `write_spans`.  Without spans, only
the return-value hooks run, so an untraced pass pays for no timing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("core", "systems", "integrate", "certify", "manifold", "reduction",
           "harness")

# span name -> (home module, attribute); the layer is the span name's prefix
FUNCTIONS = {
    "integrate.rk4_final": ("integrate", "rk4_final"),
    "integrate.rk4_path": ("integrate", "rk4_path"),
    "integrate.flow": ("integrate", "flow"),
    "integrate.bounded_solution_batch": ("integrate", "bounded_solution_batch"),
    "certify.assemble_certificate": ("certify", "assemble_certificate"),
    "certify.estimate_process_bound": ("certify", "estimate_process_bound"),
    "certify.estimate_lipschitz": ("certify", "estimate_lipschitz"),
    "certify.spectral_gap_check": ("certify", "spectral_gap_check"),
    "certify.straightened_constants": ("certify", "straightened_constants"),
    "manifold.lp_solve": ("manifold", "lp_solve"),
    "manifold.lp_map": ("manifold", "lp_map"),
    "manifold.dh_solve": ("manifold", "dh_solve"),
    "manifold.d2h_solve": ("manifold", "d2h_solve"),
    "manifold.eqv_residual": ("manifold", "eqv_residual"),
    "manifold.invariance_residual": ("manifold", "invariance_residual"),
    "manifold.fd_derivative_error": ("manifold", "fd_derivative_error"),
    "reduction.straighten": ("reduction", "straighten"),
    "reduction.q_along_orbit": ("reduction", "q_along_orbit"),
    "reduction.semiconjugacy_residual": ("reduction", "semiconjugacy_residual"),
    "harness.run_scenario": ("harness", "run_scenario"),
    "harness.stage.certify": ("harness", "_stage_certify"),
    "harness.stage.slow_manifold": ("harness", "_stage_manifold"),
    "harness.stage.derivative": ("harness", "_stage_derivative"),
    "harness.stage.second_derivative": ("harness", "_stage_d2"),
    "harness.stage.reduction": ("harness", "_stage_reduction"),
}

# span name -> (class in slowfast.core, method): the interpolation and the
# field/Jacobian boundary of every system, including straightened ones
METHODS = {
    "core.interp": ("GridFunction", "__call__"),
    **{f"systems.{m}": ("FastSlowSystem", m)
       for m in ("eval_F", "eval_g", "eval_A0", "eval_DF", "eval_Dg",
                 "eval_D2F", "eval_D2g")},
}

SOLVES = ("manifold.lp_solve", "manifold.dh_solve", "manifold.d2h_solve")


def _rk4_steps(args, kwargs, out):
    return {"steps": int(kwargs.get("n_steps", args[4] if len(args) > 4 else 0))}


def _sweeps(args, kwargs, out):
    return {"sweeps": out[1].iterations}


def _query(args, kwargs, out):
    orbit = out.orbit
    return {"sweeps": out.report.iterations,
            "orbit_steps": 0 if orbit is None else len(orbit.times) - 1}


COUNT_HOOKS = {
    "integrate.rk4_final": _rk4_steps,
    "integrate.rk4_path": _rk4_steps,
    **{name: _sweeps for name in SOLVES},
    "reduction.q_along_orbit": _query,
}


def load_modules():
    return {m: importlib.import_module(f"slowfast.{m}") for m in MODULES}


class Probe:
    """Wraps package names; records spans when `spans` is true.

    Spans are kept column-wise (a reduce-l2 pass makes over a million), and a
    span's id is its row, given when it opens, so rows are in start order.
    """

    def __init__(self, spans):
        self.spans_on = spans
        self.names = []                      # name index -> span name
        self.layers = []                     # layer index -> layer
        self.layer_of = []                   # name index -> layer index
        self.parent = array("q")
        self.name = array("H")
        self.run_of = array("B")
        # 1 where no span of the same name (or layer) was open when this one opened
        self.outer_name = array("B")
        self.outer_layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(Counter)   # run -> counter name -> value
        self.run = 0
        self._stack = []
        self._open_names = []                # name index -> spans open now
        self._open_layers = []               # layer index -> spans open now
        self._undo = []

    def _index(self, name):
        if name not in self.names:
            layer = _layer(name)
            if layer not in self.layers:
                self.layers.append(layer)
                self._open_layers.append(0)
            self.names.append(name)
            self.layer_of.append(self.layers.index(layer))
            self._open_names.append(0)
        return self.names.index(name)

    def _open(self, idx):
        sid = len(self.start)
        layer = self.layer_of[idx]
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(idx)
        self.run_of.append(self.run)
        self.outer_name.append(self._open_names[idx] == 0)
        self.outer_layer.append(self._open_layers[layer] == 0)
        self._open_names[idx] += 1
        self._open_layers[layer] += 1
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        idx = self.name[sid]
        self._open_names[idx] -= 1
        self._open_layers[self.layer_of[idx]] -= 1
        self._stack.pop()

    # -- patching ---------------------------------------------------------
    def _wrapper(self, name, fn, hook, on_return):
        probe = self
        idx = self._index(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not probe.spans_on:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(name, out)
                return out
            sid = probe._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                probe._close(sid)
            counter = probe.counts[probe.run]
            counter[name + ".calls"] += 1
            if hook is not None:
                for key, value in hook(args, kwargs, out).items():
                    counter[f"{name}.{key}"] += value
            if on_return is not None:
                on_return(name, out)
            return out

        return wrapped

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self, mods, names=None, on_return=None):
        """Wrap `names` (default: every known name) in all namespaces holding them.

        `on_return(name, result)` is called after every call of a name in SOLVES.
        """
        names = set(names) if names is not None else (
            set(FUNCTIONS) | set(METHODS) | {"harness.check"})
        for name, (home, attr) in FUNCTIONS.items():
            if name not in names or not hasattr(mods[home], attr):
                continue
            orig = getattr(mods[home], attr)
            wrapped = self._wrapper(name, orig, COUNT_HOOKS.get(name),
                                    on_return if name in SOLVES else None)
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, wrapped)
        for name, (cls_name, attr) in METHODS.items():
            if name in names:
                cls = getattr(mods["core"], cls_name)
                self._set(cls, attr, self._wrapper(name, cls.__dict__[attr], None, None))
        if "harness.check" in names:
            checks = mods["harness"]._CHECKS
            for key, fn in list(checks.items()):
                self._set(checks, key, self._wrapper(f"harness.check.{key}", fn, None, None))

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- spans --------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        """A span from the benchmark's own code (a no-op while spans are off)."""
        if not self.spans_on:
            yield
            return
        sid = self._open(self._index(name))
        try:
            yield
        finally:
            self._close(sid)

    def span_count(self, run):
        return self.run_of.count(run)

    def write_spans(self, path):
        """All spans as columns of a compressed .npz; a span's id is its row."""
        np.savez_compressed(path, names=np.array(self.names), parent=np.array(self.parent),
                            name=np.array(self.name), run=np.array(self.run_of),
                            start=np.array(self.start), end=np.array(self.end))

    def summarize(self, run):
        """Per-run totals by span name and by layer: (inclusive, layer_inclusive, self).

        Inclusive time sums only the outermost spans of a name (or layer), so
        a re-entrant name, such as a straightened field calling the base
        field, is not counted twice.  Self time is a span's duration minus
        that of its children.
        """
        parent, name, run_of, outer_name, outer_layer = (
            np.array(a) for a in (self.parent, self.name, self.run_of,
                                  self.outer_name, self.outer_layer))
        dur = np.array(self.end) - np.array(self.start)
        layer = np.array(self.layer_of)[name]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        mine = run_of == run

        def totals(mask, keys, labels, weights):
            sums = np.bincount(keys[mask], weights=weights[mask], minlength=len(labels))
            return Counter(dict(zip(labels, sums.tolist())))

        return (totals(mine & (outer_name == 1), name, self.names, dur),
                totals(mine & (outer_layer == 1), layer, self.layers, dur),
                totals(mine, layer, self.layers, dur - child))


def _layer(name):
    return name.split(".", 1)[0]
