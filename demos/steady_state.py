"""Newton solve of the steady Dirichlet problem, checked against explicit
relaxation; its cost with the plain and the frozen-coefficient
preconditioner, and from a cold start at small smoothing; and the one-sided
differential spot checks on the terminal field.  The cost tables are the
ones in the README; their counts are for one BLAS thread
(OMP_NUM_THREADS=1)."""

import time
from unittest import mock

import numpy as np

import mcflow as mc
from mcflow import flow as fl
from mcflow import verify as vf

ball = mc.ball(1.0)
grid = mc.build_grid(ball, 1 / 16)
lin = lambda p: p[:, 0]
prob = mc.IBVP(ball, lin, lin)

print("== no drift: linear data is already steady ==")
res = mc.relax_to_steady(prob, grid, mc.FlowParams(epsilon=0.05, nu=0.0), tol=1e-6)
print(f"  steps={res.steps}, residual={res.residual:.2e}")

print("\n== drift nu=0.3: solve until sup|rate| < 1e-6 ==")
params = mc.FlowParams(epsilon=0.05, nu=0.3)
mid = tuple(np.array(grid.shape) // 2)
bvals = mc.boundary_values(grid, lin)
for k, _, u, ws in mc.march(mc.init_state(grid, lin, bvals), grid, params, bvals, 10 ** 7):
    residual = np.max(np.abs(ws.rate[ws.interior]))
    if residual < 1e-6:
        break
oracle = ws.box(u)
print(f"  explicit relaxation: steps={k}, residual={residual:.2e}, "
      f"value at the center = {oracle[mid]:.8f}")
res = mc.relax_to_steady(prob, grid, params, tol=1e-6)
print(f"  newton_iterations={res.newton_iterations}, "
      f"steps={res.steps}, residual={res.residual:.2e}, "
      f"value at the center = {res.values[mid]:.8f}")
gap = np.max(np.abs(res.values[grid.inside] - oracle[grid.inside]))
print(f"  sup|newton - explicit| = {gap:.2e}")

print("\n== residual evaluations to sup|rate| < 1e-6, plain -> frozen-coefficient M^-1 ==")


def rotated(angle):
    c, s = np.cos(angle), np.sin(angle)
    return lambda p: c * p[:, 0] + s * p[:, 1]


disk, ball3 = mc.ball(1.0), mc.ball(1.0, dim=3)
rows = [(f"disk, nu={nu}, h=1/{n}", disk, 1 / n, nu, lin)
        for nu in (0.3, 1.5) for n in (16, 32, 64)]
rows += [("disk, nu=0.9, h=1/32", disk, 1 / 32, 0.9, lin),
         ("3D ball, nu=0.3, h=1/16", ball3, 1 / 16, 0.3, lin),
         ("disk, data rotated by +pi/6, nu=0.3, h=1/32", disk, 1 / 32, 0.3, rotated(np.pi / 6)),
         ("disk, data rotated by -pi/6, nu=0.3, h=1/32", disk, 1 / 32, 0.3, rotated(-np.pi / 6))]
# unit coefficients make M the plain box Laplacian
unit = lambda ws: np.ones(len(ws.grads))
for label, domain, h, nu, data in rows:
    g = mc.build_grid(domain, h)
    solve = lambda: mc.relax_to_steady(mc.IBVP(domain, data, data), g,
                                       mc.FlowParams(epsilon=0.05, nu=nu), tol=1e-6,
                                       max_steps=20_000)
    with mock.patch.object(fl, "_frozen_coefficients", unit):
        plain = solve()
    frozen = solve()
    gap = np.max(np.abs(frozen.values[g.inside] - plain.values[g.inside]))
    print(f"  {label}: {plain.steps} -> {frozen.steps} evaluations "
          f"(converged {plain.converged}, {frozen.converged}), sup|difference| = {gap:.1e}")

print("\n== cold start from x1^2 data, nu=0: residual evaluations to sup|rate| < 1e-6 ==")
square = lambda p: p[:, 0] ** 2
for n, eps in ((32, 0.025), (32, 0.0125), (32, 0.00625), (64, 0.025)):
    g = mc.build_grid(disk, 1 / n)
    t0 = time.perf_counter()
    cold = mc.relax_to_steady(mc.IBVP(disk, square, square), g, mc.FlowParams(epsilon=eps),
                              tol=1e-6, max_steps=20_000)
    print(f"  h=1/{n}, eps={eps}: {cold.steps} evaluations, converged {cold.converged}, "
          f"{time.perf_counter() - t0:.2f} s")

print("\n== one-sided spot checks on the nu=0.3, h=1/16 field ==")
snaps, times = vf.replicate_steady(res.values)
bad = vf.viscosity_spot_check(snaps, times, grid, params)
for mode in ("sub", "super"):
    print(f"  {mode}-solution spot check: {sum(v.mode == mode for v in bad)} violations")

print("\n== continuation in the smoothing parameter ==")
table = mc.epsilon_continuation(prob, grid, params, (0.2, 0.1, 0.05), horizon=1.0)
for (e1, e2), d in zip(zip(table.epsilons, table.epsilons[1:]), table.sup_diffs):
    print(f"  sup|u({e1}) - u({e2})| = {d:.3e}")
print(f"  differences strictly decreasing: {table.monotone_decreasing}")
