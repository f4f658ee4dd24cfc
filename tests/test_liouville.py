from types import SimpleNamespace

import numpy as np
import pytest

import mcflow as mc
from mcflow import liouville as lv
from mcflow import operator as op
from mcflow import verify as vf
from helpers import sandwich_row_loop


@pytest.fixture(scope="module")
def ramp():
    return lv.ramp_problem()


@pytest.fixture(scope="module")
def stadium_grid(ramp):
    return mc.build_grid(ramp.domain, 1 / 32)


@pytest.fixture(scope="module")
def ramp_report(ramp, stadium_grid):
    """The ramp's report at horizon 0.5 and epsilon 0.05, by nu, made once."""
    cache = {}

    def report(nu):
        if nu not in cache:
            cache[nu] = lv.flatness_and_sandwich(
                ramp, stadium_grid, mc.FlowParams(epsilon=0.05, nu=nu), horizon=0.5)
        return cache[nu]

    return report


def test_ramp_problem_well_formed(ramp):
    assert ramp.data_lipschitz == pytest.approx(2.0, rel=0.02)
    taus = np.linspace(-1.0, 1.0, 101)
    prof = ramp.axial_profile(taus)
    assert np.min(np.diff(prof)) >= -1e-12
    assert np.all(prof[taus >= 0.25] == 1.0)


def test_problem_rejects_non_monotone_data():
    dom = mc.smoothed_stadium(0.5, 1.5, 0.25)
    with pytest.raises(ValueError):
        lv.CylinderProblem(domain=dom, initial_data=lambda p: -p[:, -1],
                           plateau_start=0.25, plateau_value=-0.25,
                           plateau_margin=0.125)


def test_problem_rejects_margin_past_straight_section():
    dom = mc.smoothed_stadium(0.5, 1.5, 0.25)
    g = lambda p: np.minimum(1.0, np.maximum(0.0, 2.0 * (p[:, -1] + 0.25)))
    with pytest.raises(lv.EnvelopeError):
        lv.CylinderProblem(domain=dom, initial_data=g, plateau_start=0.25,
                           plateau_value=1.0, plateau_margin=1.5)


def test_plateau_only_data_gives_constant_envelopes():
    dom = mc.smoothed_stadium(0.5, 1.5, 0.25)
    g = lambda p: np.ones(len(p))
    prob = lv.CylinderProblem(domain=dom, initial_data=g, plateau_start=0.25,
                              plateau_value=1.0, plateau_margin=0.125)
    env = lv.build_envelopes(prob)
    taus = np.linspace(-1.4, 1.4, 100)
    assert np.all(env.lower_profile(taus) == 1.0)
    assert env.upper_value == 1.0


def test_envelopes_bracket_ramp_data(ramp):
    env = lv.build_envelopes(ramp)
    taus = np.linspace(-1.25, ramp.plateau_start + ramp.plateau_margin, 1000)
    lower = env.lower_profile(taus)
    data = ramp.axial_profile(taus)      # ramp data is cross-section independent
    assert np.all(lower <= data + 1e-12)
    assert np.all(np.diff(lower) >= -1e-12)
    # level exactly at the shifted plateau
    past = taus >= ramp.plateau_start + ramp.plateau_margin - 1e-9
    assert np.all(lower[past] == ramp.plateau_value)


def test_lower_envelope_is_c2_at_sampled_resolution(ramp):
    env = lv.build_envelopes(ramp)
    taus = np.linspace(0.1, 0.4, 20001)
    v = env.lower_profile(taus)
    dtau = taus[1] - taus[0]
    d2 = np.diff(v, 2) / dtau ** 2
    # second differences of a C2 function vary continuously: adjacent
    # samples stay within a mesh-width-scaled bound
    assert np.max(np.abs(np.diff(d2))) < 1e3 * dtau * np.max(np.abs(d2) + 1.0)


def test_flat_problem_stays_flat():
    dom = mc.smoothed_stadium(0.5, 1.5, 0.25)
    g = lambda p: np.ones(len(p))
    prob = lv.CylinderProblem(domain=dom, initial_data=g, plateau_start=0.25,
                              plateau_value=1.0, plateau_margin=0.125)
    grid = mc.build_grid(dom, 1 / 16)
    rep = lv.flatness_and_sandwich(prob, grid, mc.FlowParams(epsilon=0.05), 0.05)
    assert rep.sup_flatness == 0.0
    assert rep.lower_violation.max() == 0.0
    assert rep.upper_violation.max() == 0.0
    assert rep.monotone_violation.max() == 0.0


def test_flatness_bound_driftless(ramp_report):
    rep = ramp_report(0.0)
    assert rep.sup_flatness <= rep.bound
    assert rep.upper_violation.max() <= 1e-12
    assert rep.monotone_violation.max() <= 1e-10


def test_flatness_bound_with_drift(ramp_report):
    params = mc.FlowParams(epsilon=0.05, nu=0.2)
    rep = ramp_report(params.nu)
    assert rep.sup_flatness <= rep.bound
    # flat regions drift no faster than eps*nu, so the corrected upper
    # sandwich holds tightly
    assert rep.upper_violation.max() <= 1e-10
    # axial ordering bends only within the drift allowance
    assert rep.monotone_violation.max() <= params.epsilon * params.nu * 0.5 + 1e-8


def test_lower_sandwich_violation_quantified_by_flatness(ramp_report):
    # the smoothing leak below the plateau is exactly what the lower
    # envelope misses: the violation never exceeds the flatness deficit
    rep = ramp_report(0.0)
    assert rep.lower_violation.max() <= rep.sup_flatness + 1e-8


@pytest.mark.parametrize("nu", [0.0, 0.2])
def test_sandwich_rows_equal_the_elementwise_oracle(ramp, stadium_grid, ramp_report, nu):
    # taking each maximum before its difference and clamp changes no bit
    # of any report row
    rep = ramp_report(nu)
    params = mc.FlowParams(epsilon=0.05, nu=nu)
    sandwich = lv._Sandwich(ramp, stadium_grid, rep.envelopes)
    bvals = op.boundary_values(stadium_grid, ramp.initial_data)
    start = op.init_state(stadium_grid, ramp.initial_data, bvals)
    want = [sandwich_row_loop(sandwich, u, params.epsilon * nu * t)
            for _, t, u, _ in op.march(start, stadium_grid, params, bvals, rep.steps)]
    got = (rep.flatness, rep.lower_violation, rep.upper_violation, rep.monotone_violation)
    for column, oracle in zip(got, zip(*want)):
        assert column.tobytes() == np.array(oracle).tobytes()
    # with drift every column leaves 0 somewhere, so no clamp hides the test
    assert nu == 0.0 or all(np.count_nonzero(c) for c in got)


def test_negative_drift_rejected(ramp, stadium_grid):
    with pytest.raises(ValueError):
        lv.flatness_and_sandwich(ramp, stadium_grid,
                                 mc.FlowParams(epsilon=0.05, nu=-0.1), 0.1)


def test_envelope_fields_pass_viscosity_checks(ramp, stadium_grid):
    params = mc.FlowParams(epsilon=0.05, nu=0.2)
    env = lv.build_envelopes(ramp)
    upper = np.where(stadium_grid.inside, env.upper_value, np.nan)
    tau = stadium_grid.points[..., -1]
    lower = np.where(stadium_grid.inside,
                     env.lower_profile(tau.ravel()).reshape(stadium_grid.shape), np.nan)
    snaps, times = vf.replicate_steady(upper)
    assert [v for v in vf.viscosity_spot_check(snaps, times, stadium_grid, params)
            if v.mode == "super"] == []
    snaps, times = vf.replicate_steady(lower)
    assert [v for v in vf.viscosity_spot_check(snaps, times, stadium_grid, params)
            if v.mode == "sub"] == []


def _axial_max_profile_per_slice(problem, taus):
    """Oracle of liouville._axial_max_profile: one data call per axial slice."""
    dom = problem.domain
    center = np.asarray(dom.center, dtype=float)
    xs = center[0] + np.linspace(-dom.half_width, dom.half_width, 41)
    if dom.dim == 2:
        cross = xs[:, None]
    else:
        ys = center[1] + np.linspace(-dom.half_width, dom.half_width, 41)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        cross = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return np.array([np.max(problem.initial_data(np.concatenate(
        [cross, np.full((len(cross), 1), tau)], axis=1))) for tau in taus])


@pytest.mark.parametrize("dim", [2, 3])
def test_axial_profile_in_blocks_equals_the_per_slice_loop(dim):
    dom = mc.smoothed_stadium(0.5, 1.5, 0.25, center=(0.01, -0.02, 0.03)[:dim], dim=dim)
    sizes = []

    def data(p):
        sizes.append(len(p))
        ramp = np.minimum(1.0, np.maximum(0.0, 2.0 * (p[:, -1] + 0.25)))
        return ramp + 0.1 * np.sin(7.0 * p[:, 0]) * np.cos(3.0 * p[:, -1]) - 0.2 * p[:, 0] ** 2

    problem = SimpleNamespace(domain=dom, initial_data=data)
    taus = np.linspace(-1.5, 0.5, lv.ENVELOPE_SAMPLES)
    got = lv._axial_max_profile(problem, taus)
    assert max(sizes) <= lv.PROFILE_BLOCK_POINTS
    assert len(sizes) == -(-lv.ENVELOPE_SAMPLES // (lv.PROFILE_BLOCK_POINTS // 41 ** (dim - 1)))
    assert got.tobytes() == _axial_max_profile_per_slice(problem, taus).tobytes()
