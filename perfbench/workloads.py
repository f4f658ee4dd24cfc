"""Seeded workload definitions: the configs each workload hands to the CLI.

Seed 0 reproduces the demo configs byte for byte (plus the generated
spheroid config).  Other seeds vary the data only -- bump amplitude,
direction of the linear data, comparison pair seeds -- so the grid and
the step count of every time-stepped config stay fixed.
"""

import math
import random
from dataclasses import dataclass

FLOW_BUMP = """\
# relaxing bump on the unit disk, no drift
experiment = flow
domain.kind = ball
domain.radius = 1.0
data.boundary = 0
data.initial = {amp}*(1 - x1^2 - x2^2)^2
params.epsilon = 0.05
params.nu = 0
grid.spacing = 0.03125
run.horizon = 1.0
run.snapshot_times = 0.5 1.0
"""

STEADY_DRIFT = """\
# steady Dirichlet problem with drift via relaxation
experiment = steady
domain.kind = ball
domain.radius = 1.0
data.boundary = {linear}
data.initial = {linear}
params.epsilon = 0.05
params.nu = 0.3
grid.spacing = 0.03125
run.tolerance = 1e-6
"""

SPHEROID = """\
# relaxing bump on the prolate spheroid (1, 0.6, 0.6), no drift
experiment = flow
domain.kind = ellipse
domain.dim = 3
domain.semi_major = 1.0
domain.semi_minor = 0.6
data.boundary = 0
data.initial = {amp}*max(0, 1 - x1^2 - (x2^2+x3^2)/0.36)^2
params.epsilon = 0.05
params.nu = 0
grid.spacing = 0.0625
run.horizon = 0.5
run.snapshot_times = 0.25 0.5
"""

COMPARISON = """\
# seeded ordered pairs co-evolved, ordering violation reported
experiment = comparison
domain.kind = ball
domain.radius = 1.0
params.epsilon = 0.1
grid.spacing = 0.0625
run.horizon = 0.25
run.pairs = 20
run.seed = {pair_seed}
"""

LIOUVILLE_RAMP = """\
# flatness propagation for a monotone axial ramp on the smoothed stadium
experiment = liouville
domain.kind = smoothed-stadium
domain.half_width = 0.5
domain.straight_half_length = 1.5
domain.corner_radius = 0.25
data.boundary = min(1, max(0, (x2 + 0.25)/0.5))
data.initial = min(1, max(0, (x2 + 0.25)/0.5))
params.epsilon = 0.05
params.nu = 0
grid.spacing = 0.03125
run.horizon = 0.5
liouville.plateau_start = 0.25
liouville.plateau_value = 1.0
liouville.plateau_margin = 0.125
"""

VISCOSITY = """\
# one-sided differential spot checks on a flow trajectory
experiment = viscosity
domain.kind = ball
domain.radius = 1.0
data.boundary = {linear}
data.initial = {linear}
params.epsilon = 0.05
params.nu = 0.3
grid.spacing = 0.0625
run.horizon = 0.5
run.probe_budget = 2000
"""


@dataclass(frozen=True)
class ConfigRun:
    """One CLI invocation of a workload: a config file and what it fixes."""

    name: str             # file stem, also the output directory name
    text: str
    experiment: str
    amplitude: float | None = None    # exact sup of the bump data, when known
    steps: int | None = None          # time steps fixed by the inputs
    evolutions: int = 1               # fields stepped side by side


def _amplitude(rng: random.Random, seed: int) -> str:
    return "0.3" if seed == 0 else f"{rng.uniform(0.25, 0.35):.6f}"


def _linear(rng: random.Random, seed: int) -> str:
    """x1 for seed 0, else x1 rotated towards x2 by an angle in [-pi/6, pi/6]."""
    if seed == 0:
        return "x1"
    a = rng.uniform(-math.pi / 6, math.pi / 6)
    c, s = math.cos(a), math.sin(a)
    return f"{c:.12f}*x1 {'-' if s < 0 else '+'} {abs(s):.12f}*x2"


def _flow_ball2d(seed, rng):
    amp = _amplitude(rng, seed)
    return (ConfigRun("flow_bump", FLOW_BUMP.format(amp=amp), "flow",
                      amplitude=float(amp), steps=8192),)


def _steady_ball2d(seed, rng):
    return (ConfigRun("steady_drift", STEADY_DRIFT.format(linear=_linear(rng, seed)),
                      "steady"),)


def _flow_spheroid3d(seed, rng):
    amp = _amplitude(rng, seed)
    return (ConfigRun("spheroid", SPHEROID.format(amp=amp), "flow",
                      amplitude=float(amp), steps=1536),)


def _certify_mix(seed, rng):
    return (
        ConfigRun("comparison", COMPARISON.format(pair_seed=20 * seed), "comparison",
                  steps=20 * 512, evolutions=2),
        ConfigRun("liouville_ramp", LIOUVILLE_RAMP, "liouville",
                  steps=4096),
        ConfigRun("viscosity", VISCOSITY.format(linear=_linear(rng, seed)), "viscosity",
                  steps=1024),
    )


# why each workload was chosen is recorded beside it in BENCHMARK.json
WORKLOADS = {
    "flow-ball2d": _flow_ball2d,
    "steady-ball2d": _steady_ball2d,
    "flow-spheroid3d": _flow_spheroid3d,
    "certify-mix": _certify_mix,
}


def build(name: str, seed: int) -> tuple:
    """The workload's configs for one seed; the same seed gives the same bytes."""
    return WORKLOADS[name](seed, random.Random(f"{name}:{seed}"))
