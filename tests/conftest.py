"""Shared fixtures: certified systems and solved manifolds are expensive, so
everything pipeline-shaped is session-scoped and reused across test modules.

Also the test-only system and helpers that no product path reads: the coupled
system of criteria 02 and 08, the Jacobian check against central differences,
and grid sampling of a callable.
"""

import numpy as np
import pytest

from slowfast.certify import assemble_certificate, straightened_constants
from slowfast.core import (FastSlowSystem, GridFunction, _central_diff, _smooth_step,
                           _smooth_step_prime)
from slowfast.integrate import IntegratorConfig
from slowfast.manifold import dh_solve, lp_solve
from slowfast.reduction import straighten
from slowfast.systems import _box, build_l1, build_l2, build_nf1, build_q1, build_vdp_cut

DT = IntegratorConfig(dt=0.01)
DT2 = IntegratorConfig(dt=0.02)

ACCEPTANCE_RESULTS = {}


def record_criterion(number, passed, detail):
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d}: {status} - {detail}")


# -- the coupled test system (not in the named registry) ------------------------

def build_coupled(eps=0.02, domain=(-1.0, 1.0), points=81):
    """A genuinely coupled scalar system: the slow drift feels both variables,
    so the manifold map has a nonzero contraction factor and the reduction
    defect Q is nonzero.  The drift vanishes smoothly on the box boundary, so
    orbits stay in the box for all time -- the setting in which every global
    estimate is stated.  Used to make contraction and defect-norm
    measurements non-trivial.
    """
    dom = _box(domain[0], domain[1], points)
    e = float(eps)
    lo, hi = float(domain[0]), float(domain[1])
    width = 0.25 * (hi - lo)

    def beta(y):
        # 1 in the core of the box, 0 on the boundary
        edge = np.minimum(y - lo, hi - y) / width
        return _smooth_step(edge)

    def dbeta(y):
        edge_lo = (y - lo) / width
        edge_hi = (hi - y) / width
        lower = edge_lo <= edge_hi
        d = np.where(lower, _smooth_step_prime(edge_lo) / width,
                     -_smooth_step_prime(edge_hi) / width)
        return d

    def base_g(x, y):
        return 1.0 + 0.3 * np.tanh(x[..., 0]) + 0.2 * np.sin(y[..., 0])

    def F(x, y):
        return -x + 0.5 * y + 0.25 * np.sin(y) + 0.1 * np.tanh(x) ** 3

    def g(x, y):
        return (e * base_g(x, y) * beta(y[..., 0]))[..., None]

    def A0(y):
        return np.full(y.shape[:-1] + (1, 1), -1.0)

    def DF(x, y):
        t = np.tanh(x[..., 0])
        out = np.empty(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = -1.0 + 0.3 * t * t * (1.0 - t * t)
        out[..., 0, 1] = 0.5 + 0.25 * np.cos(y[..., 0])
        return out

    def Dg(x, y):
        t = np.tanh(x[..., 0])
        yy = y[..., 0]
        out = np.empty(x.shape[:-1] + (1, 2))
        out[..., 0, 0] = e * 0.3 * (1.0 - t * t) * beta(yy)
        out[..., 0, 1] = e * (0.2 * np.cos(yy) * beta(yy) + base_g(x, y) * dbeta(yy))
        return out

    def D2F(x, y):
        t = np.tanh(x[..., 0])
        s2 = 1.0 - t * t
        out = np.zeros(x.shape[:-1] + (1, 2, 2))
        out[..., 0, 0, 0] = 0.1 * (6.0 * t * s2 * s2 - 6.0 * t ** 3 * s2)
        out[..., 0, 1, 1] = -0.25 * np.sin(y[..., 0])
        return out

    return FastSlowSystem(m=1, n=1, F=F, g=g, A0=A0, domain=dom, DF=DF, Dg=Dg,
                          D2F=D2F, D2g=None)


# -- helpers ---------------------------------------------------------------------

def check_derivatives(sys: FastSlowSystem, n_points=100, x_radius=1.0):
    """Max relative mismatch between supplied Jacobians and central differences,
    at points drawn with seed 0.

    Also checks that A0 matches D_x F(0, y).  A system that declares a slow
    drift reading no x (`drift_reads_x` False) is held to that exactly: g
    must give the same bits at x and at x + 1, and the x-block of Dg must be
    0.0; a miss makes the result inf.  Raises nothing; returns the worst
    relative error so callers/tests can assert against their tolerance.
    """
    rng = np.random.default_rng(0)
    ys = sys.domain.sample(rng, n_points)
    xs = rng.uniform(-x_radius, x_radius, size=(n_points, sys.m))
    worst = 0.0

    def rel(a, b):
        return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))

    for x, y in zip(xs, ys):
        joint = lambda u: sys.eval_F(u[: sys.m], u[sys.m:])
        fd = _central_diff(joint, np.concatenate([x, y]))
        a0fd = _central_diff(lambda u: sys.eval_F(u, y), np.zeros(sys.m))
        worst = max(worst, rel(a0fd, sys.eval_A0(y)))
        if sys.DF is not None:
            worst = max(worst, rel(fd, sys.eval_DF(x, y)))
        if sys.Dg is not None:
            gfd = _central_diff(lambda u: sys.eval_g(u[: sys.m], u[sys.m:]),
                                np.concatenate([x, y]))
            worst = max(worst, rel(gfd, sys.eval_Dg(x, y)))
        if not sys.drift_reads_x:
            same_g = sys.eval_g(x, y).tobytes() == sys.eval_g(x + 1.0, y).tobytes()
            if not same_g or (sys.Dg is not None and np.any(sys.Dxg(x, y) != 0.0)):
                worst = np.inf
    return worst


def sampled(domain, fn):
    """fn, which takes the (N, n) array of all nodes, sampled on the grid."""
    vals = np.asarray(fn(domain.node_coords()), dtype=float)
    return GridFunction(domain, vals.reshape(domain.shape + vals.shape[1:]))


# -- fixtures --------------------------------------------------------------------

@pytest.fixture(scope="session")
def l1():
    sys = build_l1(eps=0.1)
    cert = assemble_certificate(sys, DT, seed=0, x_radius=2.0)
    return sys, cert


@pytest.fixture(scope="session")
def l1_solved(l1):
    sys, cert = l1
    h, rep = lp_solve(sys, cert, DT)
    return sys, cert, h, rep


@pytest.fixture(scope="session")
def q1():
    sys = build_q1(eps=0.1)
    cert = assemble_certificate(sys, DT, seed=0, x_radius=2.0)
    return sys, cert


@pytest.fixture(scope="session")
def q1_solved(q1):
    sys, cert = q1
    h, rep = lp_solve(sys, cert, DT)
    return sys, cert, h, rep


@pytest.fixture(scope="session")
def q1_dh_solved(q1_solved):
    sys, cert, h, _ = q1_solved
    dh, rep = dh_solve(sys, h, cert, DT)
    return dh, rep


@pytest.fixture(scope="session")
def l2():
    sys = build_l2(eps=0.1)
    cert = assemble_certificate(sys, DT, seed=0)
    return sys, cert


@pytest.fixture(scope="session")
def l2_straight(l2):
    sys, cert = l2
    zero_h = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1,))
    zero_dh = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1, 1))
    zero_d2h = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1, 1, 1))
    ssys = straighten(sys, zero_h, zero_dh, d2h=zero_d2h)
    scert = straightened_constants(cert, 0.0)
    return ssys, scert


@pytest.fixture(scope="session")
def coupled():
    sys = build_coupled(points=41)
    cert = assemble_certificate(sys, DT, seed=0)
    return sys, cert


@pytest.fixture(scope="session")
def coupled_solved(coupled):
    sys, cert = coupled
    h, rep = lp_solve(sys, cert, DT)
    dh, dhrep = dh_solve(sys, h, cert, DT2)
    return sys, cert, h, dh


@pytest.fixture(scope="session")
def coupled_straight(coupled_solved):
    sys, cert, h, dh = coupled_solved
    ssys = straighten(sys, h, dh)
    scert = straightened_constants(cert, dh.sup_norm())
    return ssys, scert


@pytest.fixture(scope="session")
def nf1():
    sys = build_nf1(eps=0.01, m=64, points=41)
    cert = assemble_certificate(sys, DT, seed=0, x_radius=0.5)
    return sys, cert


@pytest.fixture(scope="session")
def nf1_solved(nf1):
    sys, cert = nf1
    h, rep = lp_solve(sys, cert, DT)
    return sys, cert, h, rep


@pytest.fixture(scope="session")
def vdp():
    sys = build_vdp_cut(eps=0.005)
    cert = assemble_certificate(sys, DT, seed=0, x_radius=0.1)
    return sys, cert


@pytest.fixture(scope="session")
def vdp_solved(vdp):
    sys, cert = vdp
    h, rep = lp_solve(sys, cert, DT)
    return sys, cert, h, rep
