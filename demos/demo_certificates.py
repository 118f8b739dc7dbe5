#!/usr/bin/env python3
"""The certification machinery on linear test families.

Shows the sampled process bound recovering an exact semigroup, the two
classic families whose transient growth is unbounded in a parameter (so no
uniform K exists), and the frozen-coefficient window that converts frozen
semigroup decay into decay for a slowly driven system.
"""

import numpy as np
from scipy.linalg import expm

from slowfast import (IntegratorConfig, frozen_coefficient_window,
                      slow_drift_budget)
from slowfast.certify import estimate_process_bound, frozen_drivers
from slowfast.core import FastSlowSystem, GridDomain
from slowfast.integrate import rk4_path
from slowfast.systems import build_l1

cfg = IntegratorConfig(dt=0.01)


def frozen_matrix_system(A):
    return FastSlowSystem(
        m=A.shape[0], n=1, F=lambda x, y: x @ A.T,
        g=lambda x, y: np.zeros_like(y),
        A0=lambda y: np.broadcast_to(A, y.shape[:-1] + A.shape).copy(),
        domain=GridDomain([-1.0], [1.0], [2]))


print("== exact semigroup ==")
from slowfast.certify import band_limited_drivers
l1 = build_l1()
K, mu = estimate_process_bound(l1, band_limited_drivers(l1.domain, 0.1, 4), 10.0, cfg)
print(f"scalar decay at rate 1: sampled (K, mu) = ({K:.4f}, {mu:.4f})")

print()
print("== transient growth grows with the off-diagonal coupling ==")
for nu in (1.0, 3.0, 5.0):
    A = np.array([[-1.0, nu], [0.0, -1.0]])
    Knu, munu = estimate_process_bound(frozen_matrix_system(A), frozen_drivers([[0.0]]), 12.0, cfg)
    print(f"  nu = {nu}: K = {Knu:.3f} (mu = {munu:.3f})  -- no uniform bound in nu")

print()
print("== rotation family: amplification nu * e^(-pi/2) at quarter period ==")
nu = 7.0
A = np.array([[-1.0, -1.0], [nu ** 2, -1.0]])
times, path = rk4_path(lambda t, x: A @ x, np.array([1.0, 0.0]), 0.0, np.pi / 2, 4000)
print(f"  |x(pi/2)| = {np.linalg.norm(path[-1]):.6f},"
      f"  nu e^(-pi/2) = {nu * np.exp(-np.pi / 2):.6f}")

print()
print("== frozen-coefficient window for a slowly rotated non-normal family ==")
B = np.array([[-1.0, 3.0], [0.0, -2.0]])
ts = np.linspace(0, 14, 1200)[1:]
K = max(1.0, max(np.linalg.norm(expm(B * t), 2) * np.exp(t) for t in ts))
eps = 0.5
l = frozen_coefficient_window(K, 1.0, eps)
print(f"  frozen envelope K = {K:.4f} at rate mu = 1; window l = ln K / eps = {l:.4f}")
omega = 0.02


def A_of(t):
    c, s = np.cos(omega * t), np.sin(omega * t)
    R = np.array([[c, -s], [s, c]])
    return R @ B @ R.T


worst = 0.0
for s0 in np.linspace(0.0, 6.0, 8):
    _, mats = rk4_path(lambda t, V: A_of(t) @ V, np.eye(2), s0, s0 + 8.0, 800)
    for k in (100, 300, 500, 799):
        gap = k * 0.01
        worst = max(worst, np.linalg.norm(mats[k], 2) / (K * np.exp(-(1 - eps) * gap)))
print(f"  driven-system envelope ratio vs K e^(-(mu-eps) gap): {worst:.3f} (<= 1)")

print()
print("== slow-drift budget split ==")
M0c, N0c, l = slow_drift_budget(2.0, 1.0, 0.5, 1.0)
print(f"  K=2, rates 1 -> 0.5: window {l:.4f}, caps M0 <= {M0c:.4f}, N0 <= {N0c:.4f}")
