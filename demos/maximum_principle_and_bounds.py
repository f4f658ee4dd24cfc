"""A priori bounds in action: solution range, certified sup bound and the
rate ceiling, on a relaxing bump and on a driven linear profile."""

import numpy as np

import mcflow as mc
from mcflow import barriers as ba
from mcflow import verify as vf

ball = mc.ball(1.0)
grid = mc.build_grid(ball, 1 / 16)
zero = lambda p: np.zeros(len(p))
bump = lambda p: 0.3 * (1 - np.sum(p ** 2, axis=1)) ** 2
lin = lambda p: p[:, 0]

print("== bump relaxation, no drift: solution stays inside the data range ==")
params = mc.FlowParams(epsilon=0.05, nu=0.0)
prob = mc.IBVP(ball, zero, bump)
rep = mc.solve_ibvp(prob, grid, params, horizon=1.0)
b0 = rep.sup_ut[0]          # the rate on the initial slice
print(f"  data range [0, 0.3]; solution range over all steps "
      f"[{rep.min_u.min():.2e}, {rep.max_u.max():.4f}]")
print(f"  rate ceiling: sup|u_t| = {rep.sup_ut.max():.4f} <= "
      f"initial-slice bound {b0:.4f} + 10h = {b0 + 10 * grid.spacing:.4f}")

print("\n== driven linear profile: certified sup bound ==")
params = mc.FlowParams(epsilon=0.05, nu=0.3)
prob = mc.IBVP(ball, lin, lin)
bound = ba.sup_norm_bound(prob, grid, params)
rep = mc.solve_ibvp(prob, grid, params, horizon=1.0)
print(f"  steady comparison field max = {bound.steady_max:.4f}, "
      f"data shift = {bound.data_shift:.1f}")
print(f"  sup|u| over the run = {rep.sup_u.max():.4f} <= C = {bound.value:.4f}")

gm = vf.gradient_interior_max_check(rep)
print(f"  interior |grad u| max {gm.interior_max:.4f} vs parabolic boundary "
      f"{gm.parabolic_boundary_max:.4f} (slack {gm.slack:.1e})")
