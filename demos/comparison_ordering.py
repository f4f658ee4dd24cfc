"""Ordering preservation: seeded random ordered data pairs co-evolved,
reporting per pair the signed maximum of u_low - u_high over all steps and
nodes (negative: how close the pair came to crossing) and the worst
violation.  The pairs of each driving speed march together as one stack of
fields."""

import mcflow as mc
from mcflow import barriers as ba

ball = mc.ball(1.0)
grid = mc.build_grid(ball, 1 / 16)

lines = {}
worst = 0.0
for nu, seeds in ((0.0, range(0, 10, 2)), (0.3, range(1, 10, 2))):
    lows, highs = zip(*(ba.random_ordered_pair(ball, seed) for seed in seeds))
    params = mc.FlowParams(epsilon=0.1, nu=nu)
    rep = ba.comparison_experiment(lows, highs, grid, params, horizon=0.25)
    for seed, violation in zip(seeds, rep.per_pair):
        lines[seed] = (f"seed {seed} (nu={nu}): {rep.steps} steps, "
                       f"max (u_low - u_high) = {violation:.2e}")
    worst = max(worst, rep.max_violation)

for seed in sorted(lines):
    print(lines[seed])
print(f"\nworst violation over all pairs: {worst:.2e} (tolerance 1e-10)")
