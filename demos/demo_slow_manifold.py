#!/usr/bin/env python3
"""Walk through the manifold pipeline on the exactly solvable examples.

The linear example has the invariant graph y - eps, the quadratic one
y^2 - 2 eps y + 2 eps^2; both come out of the fixed-point solver to solver
tolerance, and the residual diagnostics confirm invariance independently.
"""

import numpy as np

from slowfast import (IntegratorConfig, assemble_certificate, dh_solve,
                      eqv_residual, invariance_residual, lp_solve)
from slowfast.systems import build_l1, build_q1, l1_h, q1_dh, q1_h

cfg_int = IntegratorConfig(dt=0.01)

print("== L1: x' = -x + y, y' = 0.1 on [-0.5, 0.5] ==")
sys = build_l1(eps=0.1)
cert = assemble_certificate(sys, cfg_int, seed=0)
print("sampled constants:",
      {k: round(getattr(cert, k), 4) for k in ("K", "mu", "M0", "M1x", "M1y", "N1")})
for name, status in cert.hypothesis_table():
    print(f"  {name:<35} {status}")

h, report = lp_solve(sys, cert, cfg_int)
nodes = sys.domain.node_coords()
err = np.max(np.abs(h(nodes)[:, 0] - l1_h(nodes[:, 0], 0.1)))
print(f"fixed point after {report.iterations} sweeps; sup error vs y-0.1: {err:.2e}")
print(f"invariance-integral residual: {eqv_residual(sys, h, cert, cfg_int):.2e}")

print()
print("== Q1: x' = -x + y^2, y' = 0.1 on [-1, 1] ==")
sysq = build_q1(eps=0.1)
certq = assemble_certificate(sysq, cfg_int, seed=0)
hq, repq = lp_solve(sysq, certq, cfg_int)
nq = sysq.domain.node_coords()
errq = np.max(np.abs(hq(nq)[:, 0] - q1_h(nq[:, 0], 0.1)))
print(f"sup error vs y^2 - 0.2y + 0.02: {errq:.2e}")

dh, dhrep = dh_solve(sysq, hq, certq, cfg_int)
errd = np.max(np.abs(dh(nq)[:, 0, 0] - q1_dh(nq[:, 0], 0.1)))
print(f"derivative fixed point, sup error vs 2y - 0.2: {errd:.2e}")

inv = invariance_residual(sysq, hq, [-0.5], 8.0, cfg_int)
print(f"graph deviation along a flowed orbit, t in [0, 8]: {inv.max_deviation:.2e}")
