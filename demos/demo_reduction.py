#!/usr/bin/env python3
"""Reduction-map queries and the matched-asymptotics decomposition.

On x' = -x, y' = eps x the projection is exactly P = eta + eps xi, the
attraction rate is the fast decay rate, and the layer correction is the
closed-form exponential transient.
"""

import numpy as np

from slowfast import (IntegratorConfig, assemble_certificate, attraction_rate_fit,
                      decompose_orbit, dp_point, q_along_orbit,
                      semiconjugacy_residual, straighten, straightened_constants)
from slowfast.systems import build_l2, l2_P

cfg = IntegratorConfig(dt=0.005)
sys = build_l2(eps=0.1)
cert = assemble_certificate(sys, IntegratorConfig(dt=0.01), seed=0)

zero = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1,))
zero_op = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1, 1))
zero_bi = lambda y: np.zeros(np.asarray(y).shape[:-1] + (1, 1, 1))
ssys = straighten(sys, zero, zero_op, d2h=zero_bi)   # manifold is exactly {x = 0}
scert = straightened_constants(cert, 0.0)

xi, eta = 1.0, 0.0
res = q_along_orbit(ssys, [xi], [eta], scert, cfg)
print(f"query at (xi, eta) = ({xi}, {eta})")
print(f"  P = {res.P[0]:.8f}   closed form eta + eps*xi = {l2_P(xi, eta, 0.1):.8f}")
print(f"  |Q|/|xi| = {res.E_ratio:.6f}   certified cap {scert.e_ratio_bound():.6f}")

semi = semiconjugacy_residual(ssys, res, 10.0, cfg, cert=scert)
print(f"  semiconjugacy residual over [0, 10]: {semi:.2e}")

fit = attraction_rate_fit(ssys, res, 10.0, cfg, cert=scert)
print(f"  fitted attraction rate {fit.rate:.4f} (r^2 = {fit.r2:.6f})")

P1, Q1 = dp_point(ssys, res, scert, cfg)
print(f"  dP = {P1[0].tolist()}   closed form [eps, 1] = [0.1, 1.0]")

_, outer, layer = decompose_orbit(sys, zero, res, 5.0, cfg)
lx, ly = layer.at(2.0)
print(f"  layer correction at t=2: ({lx[0]:.6f}, {ly[0]:.7f})"
      f"   closed form (e^-2, -0.1 e^-2) = (0.135335, -0.0135335)")
