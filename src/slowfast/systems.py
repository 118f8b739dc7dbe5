"""Built-in example systems with analytic oracles where they exist.

Five named systems are registered:

  L1       x' = -x + y,         y' = eps        (exact manifold y - eps)
  Q1       x' = -x + y^2,       y' = eps        (exact manifold y^2 - 2 eps y + 2 eps^2)
  L2       x' = -x,             y' = eps x      (manifold 0, reduction P = eta + eps xi)
  VDP-cut  cubic fast nullcline, attracting branch shifted and cut off
  NF1      quadrature-discretized integro-differential fast field with one
           slowly drifting gain parameter, sup norm over nodes

All callables broadcast over leading axes.  Each system stores `eps` in its
meta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import FastSlowSystem, GridDomain, chi, dchi, localize


def _box(lo, hi, points):
    return GridDomain(np.atleast_1d(lo), np.atleast_1d(hi), np.atleast_1d(points))


# -- the callables L1, Q1 and L2 share (m = n = 1) ----------------------------------

def _a0_minus_one(y):
    return np.full(y.shape[:-1] + (1, 1), -1.0)


def _zero_Dg(x, y):
    return np.zeros(x.shape[:-1] + (1, 2))


def _zero_D2(x, y):
    return np.zeros(x.shape[:-1] + (1, 2, 2))


# -- L1 -------------------------------------------------------------------------

def build_l1(eps=0.1, domain=(-0.5, 0.5), points=101):
    dom = _box(domain[0], domain[1], points)

    def F(x, y):
        return -x + y

    def g(x, y):
        return np.full(y.shape, float(eps))

    def DF(x, y):
        out = np.empty(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = -1.0
        out[..., 0, 1] = 1.0
        return out

    return FastSlowSystem(m=1, n=1, F=F, g=g, A0=_a0_minus_one, domain=dom, DF=DF,
                          Dg=_zero_Dg, D2F=_zero_D2, D2g=_zero_D2,
                          meta={"name": "L1", "eps": float(eps)})


def l1_h(y, eps):
    return np.asarray(y, dtype=float) - eps


# -- Q1 -------------------------------------------------------------------------

def build_q1(eps=0.1, domain=(-1.0, 1.0), points=101):
    dom = _box(domain[0], domain[1], points)

    def F(x, y):
        return -x + y * y

    def g(x, y):
        return np.full(y.shape, float(eps))

    def DF(x, y):
        out = np.empty(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = -1.0
        out[..., 0, 1] = 2.0 * y[..., 0]
        return out

    def D2F(x, y):
        out = np.zeros(x.shape[:-1] + (1, 2, 2))
        out[..., 0, 1, 1] = 2.0
        return out

    return FastSlowSystem(m=1, n=1, F=F, g=g, A0=_a0_minus_one, domain=dom, DF=DF,
                          Dg=_zero_Dg, D2F=D2F, D2g=_zero_D2,
                          meta={"name": "Q1", "eps": float(eps)})


def q1_h(y, eps):
    y = np.asarray(y, dtype=float)
    return y * y - 2.0 * eps * y + 2.0 * eps * eps


def q1_dh(y, eps):
    return 2.0 * np.asarray(y, dtype=float) - 2.0 * eps


# -- L2 -------------------------------------------------------------------------

def build_l2(eps=0.1, domain=(-1.0, 1.0), points=41):
    dom = _box(domain[0], domain[1], points)

    def F(x, y):
        return -x

    def g(x, y):
        return float(eps) * x

    def DF(x, y):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = -1.0
        return out

    def Dg(x, y):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = float(eps)
        return out

    return FastSlowSystem(m=1, n=1, F=F, g=g, A0=_a0_minus_one, domain=dom, DF=DF, Dg=Dg,
                          D2F=_zero_D2, D2g=_zero_D2,
                          meta={"name": "L2", "eps": float(eps)})


def l2_P(xi, eta, eps):
    """Closed-form reduction map of L2: the slow drift eta + eps xi."""
    return np.asarray(eta, dtype=float) + eps * np.asarray(xi, dtype=float)


# -- VDP-cut ----------------------------------------------------------------------

def vdp_branch(y):
    """Attracting outer branch x >= 1 of the cubic nullcline x - x^3/3 = y.

    With x = 2 cos(t) the cubic reads cos(3t) = a, a = -3y/2, so the branch
    is 2 cos(arccos(a)/3) for -1 <= a <= 1 and 2 cosh(arccosh(a)/3) for
    a > 1.  Past the fold (y > 2/3, a < -1) there is no such root: NaN.
    Elementwise in y.
    """
    a = -1.5 * np.asarray(y, dtype=float)
    x = np.where(a <= 1.0, 2.0 * np.cos(np.arccos(np.clip(a, -1.0, 1.0)) / 3.0),
                 2.0 * np.cosh(np.arccosh(np.maximum(a, 1.0)) / 3.0))
    return np.where(a >= -1.0, x, np.nan)


def _vdp_jet(y):
    """(h0, Dh0) of the outer branch at y: one branch evaluation, Dh0 = 1/(1 - x^2)."""
    x = vdp_branch(np.asarray(y, dtype=float)[..., 0])
    return x[..., None], (1.0 / (1.0 - x * x))[..., None, None]


def build_vdp_raw(eps=0.005, domain=(-2.0, 0.0), points=81):
    dom = _box(domain[0], domain[1], points)
    e = float(eps)

    def F(x, y):
        return x - x ** 3 / 3.0 - y

    def g(x, y):
        return e * x

    def A0(y):
        return np.full(y.shape[:-1] + (1, 1), 1.0)

    def DF(x, y):
        out = np.empty(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = 1.0 - x[..., 0] ** 2
        out[..., 0, 1] = -1.0
        return out

    def Dg(x, y):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = e
        return out

    return FastSlowSystem(m=1, n=1, F=F, g=g, A0=A0, domain=dom, DF=DF, Dg=Dg,
                          meta={"name": "VDP-raw", "eps": e})


def build_vdp_cut(eps=0.005, domain=(-2.0, 0.0), points=81, radius=0.1):
    """The outer-branch system shifted to the origin and cut off at `radius`."""
    raw = build_vdp_raw(eps, domain, points)
    loc = localize(raw, _vdp_jet, radius, tol=1e-10)
    loc.meta.update(name="VDP-cut", eps=float(eps))
    return loc


# -- NF1 ---------------------------------------------------------------------------

_NF1_SHIFT = 0.4
_NF1_GAIN = 0.12
_NF1_S0 = math.tanh(_NF1_SHIFT)          # the sigmoid's tangent line at 0: value
_NF1_S0P = 1.0 - _NF1_S0 * _NF1_S0       # and slope


def _nf1_kernel(m):
    xi = (np.arange(m) + 0.5) / m
    w = (np.sin(2 * np.pi * (xi[:, None] - xi[None, :]))
         + np.sin(2 * np.pi * xi)[:, None] - np.sin(2 * np.pi * xi)[None, :])
    return _NF1_GAIN * w, xi


def _nf1_sigmoid(v):
    """Shifted tanh with its deviation from the tangent line cut off beyond |v| = 2."""
    s0, s0p = _NF1_S0, _NF1_S0P
    dev = np.tanh(v + _NF1_SHIFT) - s0 - s0p * v
    return s0 + s0p * v + chi(np.abs(v) / 2.0) * dev   # chi at |v|/2: pure tanh up to 1


def _nf1_sigmoid_prime(v):
    s0, s0p = _NF1_S0, _NF1_S0P
    t = np.tanh(v + _NF1_SHIFT)
    dev = t - s0 - s0p * v
    devp = (1.0 - t * t) - s0p
    cut = chi(np.abs(v) / 2.0)
    dcut = dchi(np.abs(v) / 2.0) * np.sign(v) / 2.0
    return s0p + dcut * dev + cut * devp


def build_nf1(eps=0.01, m=64, domain=(0.5, 1.5), points=41):
    """Quadrature discretization of u_t(z) = -u(z) + y * int w(z, z') s(u(z')) dz'
    with a slowly drifting gain y.  Midpoint nodes, sup norm over nodes; the
    antisymmetric kernel keeps the fast linearization spectrum on Re = -1.
    """
    dom = _box(domain[0], domain[1], points)
    W, xi = _nf1_kernel(m)
    dxi = 1.0 / m
    A_lin = W * (dxi * _NF1_S0P)

    def F(u, y):
        s = _nf1_sigmoid(u)
        return -u + y[..., 0:1] * dxi * np.einsum("ij,...j->...i", W, s)

    def g(u, y):
        return np.full(y.shape, float(eps))

    diag = np.arange(m)

    def A0(y):
        out = y[..., 0, None, None] * A_lin
        out[..., diag, diag] -= 1.0
        return out

    def DF(u, y):
        sp = _nf1_sigmoid_prime(u)
        out = np.empty(u.shape[:-1] + (m, m + 1))
        out[..., :, :m] = (-np.eye(m)
                           + y[..., 0, None, None] * dxi * W * sp[..., None, :])
        s = _nf1_sigmoid(u)
        out[..., :, m] = dxi * np.einsum("ij,...j->...i", W, s)
        return out

    def Dg(u, y):
        return np.zeros(u.shape[:-1] + (1, m + 1))

    return FastSlowSystem(m=m, n=1, F=F, g=g, A0=A0, domain=dom, DF=DF, Dg=Dg,
                          norm_kind="sup",
                          meta={"name": "NF1", "eps": float(eps), "m": m,
                                "nodes": xi, "gain": _NF1_GAIN})


def nf1_profile_interp(values, nodes, probes):
    """Periodic linear interpolation of node profiles onto probe locations.

    Lets manifolds computed at different quadrature sizes be compared on a
    common set of spatial points.
    """
    values = np.asarray(values, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    ext_nodes = np.concatenate([[nodes[-1] - 1.0], nodes, [nodes[0] + 1.0]])
    ext_vals = np.concatenate([values[..., -1:], values, values[..., :1]], axis=-1)
    flat = ext_vals.reshape(-1, ext_nodes.size)
    out = np.stack([np.interp(probes, ext_nodes, row) for row in flat])
    return out.reshape(values.shape[:-1] + (len(probes),))


# -- registry -----------------------------------------------------------------------

@dataclass(frozen=True)
class ExampleSystem:
    """A named example: builder plus optional closed-form oracles."""

    id: str
    build: Callable
    default_eps: float
    analytic_h: Optional[Callable] = None      # (y, eps) -> x
    analytic_dh: Optional[Callable] = None
    analytic_d2h: Optional[Callable] = None
    analytic_P: Optional[Callable] = None      # (xi, eta, eps) -> slow point
    sampling_radius: float = 2.0
    h_tol: float = 1e-5                        # oracle agreement tolerance


# analytic oracles take the scalar slow track (any shape) and return the same
# shape, so harness wrappers can append value axes uniformly
EXAMPLES = {
    "L1": ExampleSystem(
        id="L1", build=build_l1, default_eps=0.1,
        analytic_h=l1_h,
        analytic_dh=lambda y, e: np.ones_like(np.asarray(y, dtype=float)),
        analytic_d2h=lambda y, e: np.zeros_like(np.asarray(y, dtype=float)),
        h_tol=1e-6),
    "Q1": ExampleSystem(
        id="Q1", build=build_q1, default_eps=0.1,
        analytic_h=q1_h, analytic_dh=q1_dh,
        analytic_d2h=lambda y, e: np.full_like(np.asarray(y, dtype=float), 2.0),
        h_tol=1e-5),
    "L2": ExampleSystem(
        id="L2", build=build_l2, default_eps=0.1,
        analytic_h=lambda y, e: np.zeros_like(np.asarray(y, dtype=float)),
        analytic_dh=lambda y, e: np.zeros_like(np.asarray(y, dtype=float)),
        analytic_P=l2_P,
        h_tol=1e-8),
    "VDP-cut": ExampleSystem(
        id="VDP-cut", build=build_vdp_cut, default_eps=0.005,
        sampling_radius=0.1, h_tol=1e-4),
    "NF1": ExampleSystem(
        id="NF1", build=build_nf1, default_eps=0.01,
        sampling_radius=0.5, h_tol=1e-4),
}


def get_example(name):
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; known: {sorted(EXAMPLES)}")
    return EXAMPLES[name]
