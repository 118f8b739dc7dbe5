#!/usr/bin/env python3
"""The discretized integro-differential example: a 64-node quadrature fast
field with the sup norm, one slowly drifting gain, and a genuinely
infinite-dimensional-flavored manifold computation.
"""

import numpy as np

from slowfast import (IntegratorConfig, assemble_certificate, eqv_residual,
                      invariance_residual, lp_solve, spectral_gap_check)
from slowfast.systems import build_nf1, nf1_profile_interp

cfg_int = IntegratorConfig(dt=0.01)
sys = build_nf1(eps=0.01, m=64, points=41)
print(f"fast dimension m = {sys.m} (midpoint quadrature), slow gain in "
      f"[{sys.domain.lower[0]}, {sys.domain.upper[0]}]")

cert = assemble_certificate(sys, cfg_int, seed=0, x_radius=0.5)
print("sampled constants:",
      {k: round(getattr(cert, k), 4) for k in ("K", "mu", "M0", "M1x", "M1y")})

h, report = lp_solve(sys, cert, cfg_int)
print(f"manifold solve: {report.iterations} sweeps, sup |h| = {h.sup_norm():.4f}")

gap = spectral_gap_check(sys, h, 0.5)
print(f"spectral gap along the sheet: max Re = {gap.max_real:.8f} "
      f"(margin {gap.margin:.6f} vs 0.5)")

print(f"invariance-integral residual: {eqv_residual(sys, h, cert, cfg_int):.2e}")
inv = invariance_residual(sys, h, [0.75], 5.0, cfg_int)
print(f"flowed-orbit graph deviation: {inv.max_deviation:.2e}")

# profile of the manifold at a fixed gain, as a function on [0, 1]
probes = np.linspace(0.05, 0.95, 7)
prof = nf1_profile_interp(h(np.array([[1.0]])), probes)
print("h(y=1.0) sampled along the spatial variable:")
for z, v in zip(probes, prof.ravel()):
    print(f"  z = {z:.2f}: {v:+.5f}")
