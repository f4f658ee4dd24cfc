"""Distance-function barriers: construction, numerical certification and
the flow respecting the barrier on the boundary collar."""

import numpy as np

import mcflow as mc
from mcflow import barriers as ba

ball = mc.ball(1.0)
grid = mc.build_grid(ball, 1 / 32)
lin = lambda p: p[:, 0]
prob = mc.IBVP(ball, lin, lin)

for nu in (0.0, 0.3):
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    bar, _ = ba.build_barriers(prob, grid, params)
    resid = ba.barrier_supersolution_residual(bar, prob, grid, params)
    print(f"nu={nu}: slope={bar.slope:.3f}, collar width={bar.collar_width}, "
          f"data Lipschitz={bar.data_lipschitz:.3f}")
    print(f"        certification margin min over collar = {resid:.4f} (>= 0)")

    rep = mc.solve_ibvp(prob, grid, params, horizon=1.0,
                        snapshot_times=np.linspace(0, 1, 11))
    hvals = np.where(grid.inside, grid.points[..., 0], np.nan)
    gap = max(float(np.max((v - hvals - bar.psi)[bar.collar]))
              for _s, _t, v in rep.snapshots)
    print(f"        worst (u - h - psi) on the collar = {gap:.3e} "
          f"(tolerance {10 * grid.spacing})")

print("\na slope far below the threshold fails certification with drift:")
weak = ba.Barrier(sign=1, slope=1e-6, collar_width=0.5, data_lipschitz=0.0,
                  psi=None, collar=ba.build_barriers(
                      prob, grid, mc.FlowParams(epsilon=0.05))[0].collar)
print(f"  margin = {ba.barrier_supersolution_residual(weak, prob, grid, mc.FlowParams(epsilon=0.05, nu=0.3)):.4f}")
