"""Flatness propagation on the smoothed stadium: monotone ramp data that
plateaus along the axis stays at the plateau value up to the smoothing
drift, bracketed by the envelope pair."""

import numpy as np

import mcflow as mc
from mcflow import liouville as lv
from mcflow import verify as vf

prob = lv.ramp_problem()
grid = mc.build_grid(prob.domain, 1 / 32)
print(f"stadium {prob.domain.half_width} x {prob.domain.straight_half_length}, "
      f"ramp Lipschitz {prob.data_lipschitz}, plateau from "
      f"{prob.plateau_start} (margin {prob.plateau_margin})")

env = lv.build_envelopes(prob)
print(f"lower envelope: smoothed ramp of steepness {env.ramp_steepness}, "
      f"upper envelope constant {env.upper_value}")

for nu in (0.0, 0.2):
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    rep = lv.flatness_and_sandwich(prob, grid, params, horizon=0.5)
    print(f"\nnu={nu}:")
    print(f"  sup_t F = {rep.sup_flatness:.4f} <= {rep.bound:.4f} "
          f"(= eps*nu*T + 10 h Lip)")
    print(f"  upper sandwich violation (drift-corrected): "
          f"{rep.upper_violation.max():.2e}")
    print(f"  lower sandwich violation: {rep.lower_violation.max():.2e} "
          f"(the smoothing leak, <= sup_t F)")
    print(f"  axial monotonicity defect: {rep.monotone_violation.max():.2e}")

print("\nenvelope fields under the one-sided checks:")
params = mc.FlowParams(epsilon=0.05, nu=0.2)
tau = grid.points[..., -1]
upper = np.where(grid.inside, env.upper_value, np.nan)
lower = np.where(grid.inside, env.lower_profile(tau.ravel()).reshape(grid.shape), np.nan)
for name, field, mode in (("upper", upper, "super"), ("lower", lower, "sub")):
    bad = vf.viscosity_spot_check(*vf.replicate_steady(field), grid, params)
    print(f"  {name} envelope, {mode} check: {sum(v.mode == mode for v in bad)} violations")
