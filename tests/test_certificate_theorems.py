"""Every budget, contraction factor, bound and horizon of ConstantsCertificate,
pinned bit for bit against the inline formula it replaced in the solvers.

The reference functions below copy those formulas verbatim (`self` read as
`cert`, a module tolerance read as `tol`), so a change to a certificate
method that moves a single bit of any solver's horizon, ratio or bound fails
here before it reaches a report.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from slowfast import harness
from slowfast.certify import straightened_constants
from slowfast.errors import ContractionError, InfeasibleBudgetError
from slowfast.harness import ScenarioSpec
from slowfast.manifold import TOL_BOUNDED
from slowfast.reduction import TOL_DEFECT, TOL_E_NORM
from slowfast.systems import EXAMPLES

TOLS = (TOL_BOUNDED, TOL_DEFECT, TOL_E_NORM, 1e-9)
XI_NORMS = (0.0, 0.3, 1.0, 2.5)


# -- the inline formulas, verbatim ------------------------------------------------

def ref_existence_ok(cert):                 # certify.ConstantsCertificate.budget_ok(delta)
    gap = cert.contraction_rate() - cert.N1 * (cert.delta + 1.0)
    return (cert.H_ok and gap > 0.0
            and cert._lt(cert.K * cert.M1y, cert.delta * gap))


def ref_smooth_ok(cert):                    # certify.ConstantsCertificate.budget_ok(rho)
    gap = cert.contraction_rate() - cert.N1 * (cert.rho + 1.0)
    return (cert.H_ok and gap > 0.0
            and cert._lt(cert.K * cert.M1y, cert.rho * gap))


def ref_lp_ratio(cert):                     # certify.ConstantsCertificate.lp_ratio
    gap = cert.contraction_rate() - cert.N1 * (cert.delta + 1.0)
    return cert.K * cert.M1y / ((cert.delta + 1.0) * gap)


def ref_dh_ratio(cert):                     # certify.ConstantsCertificate.dh_ratio
    gap = cert.contraction_rate() - cert.N1 * (cert.rho + 1.0)
    return cert.K * cert.M1y / (cert.rho * gap)


def ref_d2h_ok(cert):                       # manifold._d2h_budget_ok
    gap = cert.contraction_rate()
    if not 2.0 * cert.N1 < gap:
        return False
    g2 = gap - 2.0 * cert.N1 * (cert.rho + 1.0)
    return g2 > 0 and cert.K * cert.M1y < (2.0 * (cert.rho + 1.0) - 1.0) * g2


def ref_dh_sup_bound(cert):                 # manifold.dh_solve
    return cert.K * cert.M1y / (cert.contraction_rate() - cert.N1 * (cert.rho + 1))


def ref_norm_bound(cert):                   # harness._chk_norm_bound
    return cert.K * cert.M0 / cert.mu + cert.K * cert.M1y / cert.contraction_rate()


def ref_e_ratio_bound(cert):                # reduction.forward_horizon's e_bound
    mu_p = cert.contraction_rate()
    return cert.K * cert.N1 / max(mu_p - cert.K * cert.N1, 1e-300)


def ref_e_ratio_bound_straightened(scert):  # harness._stage_reduction
    return scert.K * scert.N1 / max(scert.mu - scert.K * scert.N1, 1e-300)


def ref_slow_prefactor_bound(cert, xi_norm):    # reduction.attraction_rate_fit
    mu_p = cert.contraction_rate()
    return (cert.K ** 2 * cert.N1
            / max(mu_p - cert.K * cert.N1, 1e-300)
            * xi_norm)


def ref_defect_ratio(cert):                 # reduction._reduction_rate, q_along_orbit
    mu_p = cert.contraction_rate()
    if not cert.reduction_ok or cert.K * cert.N1 >= mu_p:
        raise ContractionError("reduction budget K N1 < mu' violated")
    return cert.K * cert.N1 / mu_p


def ref_lp_horizon(cert, tol):              # integrate.truncation_horizon
    rate = cert.contraction_rate()
    if rate <= 0:
        raise ContractionError("no positive contraction rate: K*M1x >= mu")
    delta = cert.delta if np.isfinite(cert.delta) else 0.0
    amplitude = max(2.0 * (cert.K * cert.M0 / cert.mu + delta), 10 * tol)
    return math.log(cert.K * amplitude / tol) / rate


def ref_dh_horizon(cert, tol):              # manifold._dh_horizon
    rate = cert.contraction_rate() - cert.N1 * (cert.rho + 1.0)
    if rate <= 0:
        raise InfeasibleBudgetError("derivative budget N1(rho+1) >= mu - K*M1x")
    amp = max(cert.K * max(cert.M1y, 1e-6) / rate, 10 * tol)
    return math.log(amp / tol) / rate


def ref_d2h_horizon(cert, tol):             # manifold.d2h_solve
    rate = cert.contraction_rate() - 2.0 * cert.N1 * (cert.rho + 1.0)
    T = math.log(max(cert.K * max(cert.M1y, 1e-6) / (rate * tol), 10.0)) / rate
    return T


def ref_forward_horizon(cert, xi_norm, tol):    # reduction.forward_horizon
    mu_p = cert.contraction_rate()
    if mu_p <= 0:
        raise ContractionError("straightened decay rate is not positive")
    e_bound = cert.K * cert.N1 / max(mu_p - cert.K * cert.N1, 1e-300)
    denom = 2.0 * cert.N1 * (1.0 + e_bound)
    if denom <= 0 or xi_norm == 0:
        return 0.0
    target = tol / denom
    if cert.K * xi_norm <= target:
        return 0.0
    return math.log(cert.K * xi_norm / target) / mu_p


def ref_dp_horizon(cert, xi_norm, tol):     # reduction.dp_point
    mu_p = cert.contraction_rate()
    if 2.0 * cert.N1 >= mu_p:
        raise InfeasibleBudgetError("derivative budget 2 N1 < mu' violated")
    amp = max(cert.K * max(xi_norm, 1.0) * (cert.N1 + 1.0), 10 * tol)
    T = math.log(amp / tol) / (mu_p - 2.0 * cert.N1)
    return T


# -- the certificates ------------------------------------------------------------------

def _default_certificate(system):
    """The certificate `slowfast run --system <system>` computes (seed 0)."""
    spec = ScenarioSpec.from_dict({"system": system})
    state = harness._state(spec)
    harness._stage_certify(spec, state)
    return state["cert"]


@pytest.fixture(scope="module")
def certificates():
    named = {s: _default_certificate(s) for s in EXAMPLES}
    certs = dict(named)
    certs.update({f"{s}-straightened": straightened_constants(c, 0.5) for s, c in named.items()})
    l1, l2 = named["L1"], named["L2"]
    certs.update({
        "L1-N1=0": replace(l1, N1=0.0),
        "L1-M1y=0": replace(l1, M1y=0.0),
        "L1-delta=nan": replace(l1, delta=float("nan")),
        "L1-N1=10": replace(l1, N1=10.0),
        "L1-N1=0.12-rho=3": replace(l1, N1=0.12, rho=3.0),
        "Q1-rho=0.5": replace(named["Q1"], rho=0.5),
        "L2-K=20-mu=1": replace(l2, K=20.0, mu=1.0),
        "L2-straightened-N1=0": straightened_constants(replace(l2, N1=0.0), 0.0),
    })
    return certs


def _outcome(fn, *args):
    """What a call gives, comparable bit for bit: a raise's class and message,
    or the value (a bool, or a float's hex digits)."""
    try:
        v = fn(*args)
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))
    if isinstance(v, (bool, np.bool_)):
        return ("bool", bool(v))
    return ("float", float(v).hex())


def test_certificates_cover_every_verdict(certificates):
    """The set holds passing and failing certificates for every budget."""
    for budget in (ref_existence_ok, ref_smooth_ok, ref_d2h_ok):
        assert {budget(c) for c in certificates.values()} == {True, False}
    raised = [_outcome(ref_defect_ratio, c)[0] for c in certificates.values()]
    assert "raise" in raised and "float" in raised


CASES = {
    # method: (call on the certificate, reference, argument tuples)
    "existence_ok": (lambda c: c.budget_ok(c.delta), ref_existence_ok, [()]),
    "smooth_ok": (lambda c: c.budget_ok(c.rho), ref_smooth_ok, [()]),
    "d2h_ok": (lambda c: c.d2h_ok, ref_d2h_ok, [()]),
    "lp_ratio": (lambda c: c.lp_ratio(), ref_lp_ratio, [()]),
    "dh_ratio": (lambda c: c.dh_ratio(), ref_dh_ratio, [()]),
    "dh_sup_bound": (lambda c: c.dh_sup_bound(), ref_dh_sup_bound, [()]),
    "norm_bound": (lambda c: c.norm_bound(), ref_norm_bound, [()]),
    "e_ratio_bound": (lambda c: c.e_ratio_bound(), ref_e_ratio_bound, [()]),
    "defect_ratio": (lambda c: c.defect_ratio(), ref_defect_ratio, [()]),
    "lp_horizon": (lambda c, tol: c.lp_horizon(tol), ref_lp_horizon, [(t,) for t in TOLS]),
    "dh_horizon": (lambda c, tol: c.dh_horizon(tol), ref_dh_horizon, [(t,) for t in TOLS]),
    "d2h_horizon": (lambda c, tol: c.d2h_horizon(tol), ref_d2h_horizon,
                    [(t,) for t in TOLS]),
    "dp_horizon": (lambda c, x, tol: c.dp_horizon(x, tol), ref_dp_horizon,
                   [(x, t) for x in XI_NORMS for t in TOLS]),
}


@pytest.mark.parametrize("method", list(CASES))
def test_method_equals_inline_formula(certificates, method):
    call, ref, arg_sets = CASES[method]
    for name, cert in certificates.items():
        for args in arg_sets:
            assert _outcome(call, cert, *args) == _outcome(ref, cert, *args), (name, args)


def test_gap_is_every_budget_gap(certificates):
    for name, c in certificates.items():
        mu_p = c.contraction_rate()
        for w in (c.delta, c.rho):
            assert _outcome(c.gap, w) == _outcome(lambda: mu_p - c.N1 * (w + 1.0)), name
        assert _outcome(c.gap, c.rho, 2) == _outcome(
            lambda: c.contraction_rate() - 2.0 * c.N1 * (c.rho + 1.0)), name
        assert _outcome(c.gap, 0.0, 2) == _outcome(lambda: mu_p - 2.0 * c.N1), name


def test_forward_horizon_equals_inline_formula(certificates):
    """Equal wherever the old formula returned; where it raised (mu' <= 0),
    the reduction budget that both of its callers check first raises too."""
    for name, cert in certificates.items():
        for x in XI_NORMS:
            for tol in TOLS:
                want = _outcome(ref_forward_horizon, cert, x, tol)
                if want[0] == "raise":
                    with pytest.raises(ContractionError):
                        cert.defect_ratio()
                    continue
                assert _outcome(cert.forward_horizon, x, tol) == want, (name, x, tol)


def test_e_ratio_bound_equals_harness_formula_when_straightened(certificates):
    straightened = [c for name, c in certificates.items() if "straightened" in name]
    assert len(straightened) == 6
    for c in straightened:
        assert c.M1x == 0.0
        assert _outcome(c.e_ratio_bound) == _outcome(ref_e_ratio_bound_straightened, c)


def test_slow_prefactor_bound_within_rounding(certificates):
    """K (K N1 / D) |xi| against (K^2 N1 / D) |xi|: the products associate
    differently, so the two may differ in the last bits."""
    for name, c in certificates.items():
        if _outcome(c.defect_ratio)[0] == "raise":
            continue
        for x in XI_NORMS:
            assert c.slow_prefactor_bound(x) == pytest.approx(
                ref_slow_prefactor_bound(c, x), rel=4 * np.finfo(float).eps, abs=0.0), name


def test_edge_cases(certificates):
    n1_zero, m1y_zero, no_delta = (certificates[k] for k in ("L1-N1=0", "L1-M1y=0",
                                                            "L1-delta=nan"))
    assert all(n1_zero.forward_horizon(x, TOL_DEFECT) == 0.0 for x in XI_NORMS)
    assert all(c.forward_horizon(0.0, TOL_DEFECT) == 0.0 for c in certificates.values())
    floored = replace(m1y_zero, M1y=1e-6)
    assert m1y_zero.dh_horizon(TOL_BOUNDED) == floored.dh_horizon(TOL_BOUNDED)
    assert m1y_zero.d2h_horizon(TOL_BOUNDED) == floored.d2h_horizon(TOL_BOUNDED)
    assert no_delta.lp_horizon(TOL_BOUNDED) == replace(no_delta, delta=0.0).lp_horizon(
        TOL_BOUNDED)
