"""Consistency study of the discrete operator against two exact solutions.

A traveling linear profile u = p.x + nu*sqrt(eps^2+|p|^2) t is reproduced
to roundoff for any smoothing parameter; the shrinking-circle solution
u = |x|^2 + 2t of the raw equation shows second-order residual decay on an
annulus away from the center, measured on nodes shared by all grids.
"""

import numpy as np

import mcflow as mc
from mcflow import operator as op

ball = mc.ball(1.0)

print("== traveling linear profile (exact for every eps) ==")
p = np.array([0.7, -0.4])
lin = lambda q: q @ p
for eps, nu in ((0.2, 0.3), (0.05, 0.3)):
    params = mc.FlowParams(epsilon=eps, nu=nu)
    grid = mc.build_grid(ball, 1 / 32)
    bv = op.boundary_values(grid, lin)
    u = op.init_state(grid, lin, bv)
    rate = op.regularized_rhs(u, grid, params, bv)
    expect = nu * np.sqrt(eps ** 2 + p @ p)
    err = np.max(np.abs(rate[grid.interior[grid.inside]] - expect))
    print(f"  eps={eps:5.2f}  sup residual = {err:.3e}")

print("\n== shrinking circles, residual on 0.2 <= r <= 0.8 ==")
quad = lambda q: np.sum(q ** 2, axis=1)
params = mc.FlowParams(epsilon=1e-3, nu=0.0)
residuals = []
spacings = (1 / 16, 1 / 32, 1 / 64)
for h in spacings:
    grid = mc.build_grid(ball, h)
    bv = op.boundary_values(grid, quad)
    u = op.init_state(grid, quad, bv)
    rate = op.regularized_rhs(u, grid, params, bv)
    r = np.linalg.norm(grid.points, axis=-1)
    stride = int(round((1 / 16) / h))
    shared = np.zeros(grid.shape, bool)
    shared[::stride, ::stride] = True
    mask = grid.interior & shared & (r >= 0.2) & (r <= 0.8)
    residuals.append(np.max(np.abs(2.0 - rate[mask[grid.inside]])))

print(f"  {'h':>8} {'residual':>12} {'order':>7}")
for i, (h, res) in enumerate(zip(spacings, residuals)):
    order = "" if i == 0 else f"{np.log2(residuals[i-1]/res):7.2f}"
    print(f"  {h:8.5f} {res:12.4e} {order}")
