"""Shared fixtures: certified systems and solved manifolds are expensive, so
everything pipeline-shaped is session-scoped and reused across test modules.
"""

import numpy as np
import pytest

from slowfast.certify import assemble_certificate, straightened_constants
from slowfast.integrate import IntegratorConfig
from slowfast.manifold import dh_solve, lp_solve
from slowfast.reduction import straighten
from slowfast.systems import (build_coupled, build_l1, build_l2, build_nf1,
                              build_q1, build_vdp_cut)

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
