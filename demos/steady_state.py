"""Newton solve of the steady Dirichlet problem, checked against explicit
relaxation, its cost under grid refinement, and the one-sided differential
spot checks on the terminal field."""

import numpy as np

import mcflow as mc
from mcflow import verify as vf

ball = mc.ball(1.0)
grid = mc.build_grid(ball, 1 / 16)
lin = lambda p: p[:, 0]
prob = mc.IBVP(ball, lin, lin)

print("== no drift: linear data is already steady ==")
res = mc.relax_to_steady(prob, grid, mc.FlowParams(epsilon=0.05, nu=0.0), tol=1e-6)
print(f"  method={res.method}, steps={res.steps}, residual={res.residual:.2e}")

print("\n== drift nu=0.3: solve until sup|rate| < 1e-6 ==")
params = mc.FlowParams(epsilon=0.05, nu=0.3)
mid = tuple(np.array(grid.shape) // 2)
oracle = mc.relax_to_steady(prob, grid, params, tol=1e-6, method="explicit")
res = mc.relax_to_steady(prob, grid, params, tol=1e-6)
for r in (oracle, res):
    print(f"  method={r.method}, newton_iterations={r.newton_iterations}, "
          f"steps={r.steps}, residual={r.residual:.2e}, "
          f"value at the center = {r.state.values[mid]:.8f}")
gap = np.max(np.abs(res.state.values[grid.inside] - oracle.state.values[grid.inside]))
print(f"  sup|newton - explicit| = {gap:.2e}")

print("\n== refinement at nu=0.3: preconditioned Newton cost per spacing ==")
for h in (1 / 16, 1 / 32, 1 / 64):
    r = mc.relax_to_steady(prob, mc.build_grid(ball, h), params, tol=1e-6)
    print(f"  h=1/{round(1 / h)}: method={r.method}, evaluations={r.steps}, "
          f"residual={r.residual:.2e}")

snaps, times = vf.replicate_steady(res.state.values)
for mode in ("sub", "super"):
    bad = vf.viscosity_spot_check(snaps, times, grid, params, mode)
    print(f"  {mode}-solution spot check: {len(bad)} violations")

print("\n== continuation in the smoothing parameter ==")
table = mc.epsilon_continuation(prob, grid, params, (0.2, 0.1, 0.05), horizon=1.0)
for (e1, e2), d in zip(zip(table.epsilons, table.epsilons[1:]), table.sup_diffs):
    print(f"  sup|u({e1}) - u({e2})| = {d:.3e}")
print(f"  differences strictly decreasing: {table.monotone_decreasing}")
