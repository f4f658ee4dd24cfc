"""Golden digests of seed-0 outputs.

A change that leaves the scheme as it is keeps every output bit for bit;
these sha256 digests pin fast ones through the CLI: the steady snapshot of
steady_drift.cfg, the flatness table of liouville_ramp.cfg, the series of
flow_bump.cfg cut to a horizon of 0.05 (409 steps), and in 3D the series
and last snapshot of the benchmark's spheroid flow cut to the same horizon
(153 steps).  The 3D digests are the same with one and with two BLAS
threads.  The comparison run writes no data file: its digests are taken
in the test, on the 40-field stack of comparison.cfg cut to a horizon of
0.05 (102 steps).  So are those of the three fields the viscosity run of
viscosity.cfg hands its checker and of the continuation table of
continuation.cfg cut to a horizon of 0.05.
"""

import hashlib
from pathlib import Path

import pytest

import mcflow as mc
from mcflow import barriers as ba, cli, flow as fl, verify as vf

CONFIGS = Path(__file__).parents[1] / "demos" / "configs"
SHORT_BUMP = {"run.horizon = 1.0": "run.horizon = 0.05",
              "run.snapshot_times = 0.5 1.0": "run.snapshot_times = 0.025 0.05"}
# the seed-0 spheroid config of perfbench/workloads.py, horizon cut to 0.05
SHORT_SPHEROID = """\
experiment = flow
domain.kind = ellipse
domain.dim = 3
domain.semi_major = 1.0
domain.semi_minor = 0.6
data.boundary = 0
data.initial = 0.3*max(0, 1 - x1^2 - (x2^2+x3^2)/0.36)^2
params.epsilon = 0.05
params.nu = 0
grid.spacing = 0.0625
run.horizon = 0.05
run.snapshot_times = 0.025 0.05
"""


@pytest.mark.parametrize("experiment, config, edits, output, digest", [
    ("steady", "steady_drift.cfg", {}, "steady_00000057.mcfgrid",
     "1ef05c812a1e3269101c5aa5f56ec77be885ffda6b7928085837666ac4f26103"),
    ("liouville", "liouville_ramp.cfg", {}, "flatness.csv",
     "a30629a4599977cdf9840ada73c9a88ded73085e646a93ab9053c76f8928dd02"),
    ("flow", "flow_bump.cfg", SHORT_BUMP, "series.csv",
     "7676e1de20fd2a2e3a39833eae5cba63d5317b2854e1708dabfabe2c53057991"),
], ids=["steady-drift", "liouville-ramp", "flow-bump-short"])
def test_seed_0_output_keeps_its_digest(tmp_path, experiment, config, edits, output, digest):
    text = (CONFIGS / config).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(text)
    assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256((out / output).read_bytes()).hexdigest() == digest


def test_seed_0_spheroid_keeps_its_digests(tmp_path):
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(SHORT_SPHEROID)
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("series.csv", "snapshot_00000153.mcfgrid")}
    assert digests == {
        "series.csv": "716fdc8691ea6f3e0e207211d624cbac9727068e6d1b47a02861b56c0d0cf8dd",
        "snapshot_00000153.mcfgrid":
            "8a7b8c0876bfb7db0df5f07582682f71dd7b652218067f05a8c2d3b5b58ce63b",
    }


def test_seed_0_comparison_stack_keeps_its_digests(monkeypatch):
    # the signed per-step and per-pair maxima of u_low - u_high, all
    # negative on this ordered run, and the last state of the stack that the
    # run marches
    cfg = cli.load_config(CONFIGS / "comparison.cfg")
    grid = mc.build_grid(cfg.domain, cfg.spacing)
    lows, highs = zip(*(ba.random_ordered_pair(cfg.domain, cfg.seed + k)
                        for k in range(cfg.pairs)))
    last, march = [], ba.march

    def recording(*args):
        for k, t, u, ws in march(*args):
            yield k, t, u, ws
        last.append(u.copy())

    monkeypatch.setattr(ba, "march", recording)
    report = ba.comparison_experiment(lows, highs, grid, cfg.params, 0.05)
    assert report.steps == 102 and last[0].shape == (grid.n_inside, 2 * cfg.pairs)
    digests = [hashlib.sha256(a.tobytes()).hexdigest()
               for a in (report.per_step, report.per_pair, last[0])]
    assert digests == [
        "05acbead69756246e7b17fc6d4bdbda5771d07e52af879fed12775ed7034e7e4",
        "925c0533054fb51fb757b4eac4bfc08c3fdd1858caa1407f83f1a9def7ee130b",
        "5b8eb7bf487ceeacb4527b1d0abcae3811240c32a2d7d88592ab74bfa387460e",
    ]


def test_seed_0_viscosity_fields_keep_their_digests(tmp_path, monkeypatch):
    seen, check = [], vf.viscosity_spot_check

    def recording(snaps, times, *args):
        seen.append(([hashlib.sha256(s.tobytes()).hexdigest() for s in snaps], list(times)))
        return check(snaps, times, *args)

    monkeypatch.setattr(vf, "viscosity_spot_check", recording)
    out = tmp_path / "out"
    assert cli.main(["viscosity", "--config", str(CONFIGS / "viscosity.cfg"),
                     "--out", str(out)]) == 0
    # one call checks both inequalities
    assert len(seen) == 1
    assert seen[0] == ([
        "6baeb8d22bbea063a6b7188d371f10d89669f735019d251738ac8b3fb6435e9d",
        "a20bfe60bd6eb53162c85314e4c17f3ee0af8e61b396466120d926b06bc98cca",
        "dd15bcd92ce8c6d7f796f571a9ad5dc92e77997813198b018ce563312a0a26c1",
    ], [0.25, 0.375, 0.5])


def test_seed_0_continuation_keeps_its_differences():
    cfg = cli.load_config(CONFIGS / "continuation.cfg")
    grid = mc.build_grid(cfg.domain, cfg.spacing)
    table = fl.epsilon_continuation(cfg.problem, grid, cfg.params, cfg.eps_list, 0.05)
    assert [d.hex() for d in table.sup_diffs] == ["0x1.11b5ba2428200p-10",
                                                  "0x1.9477b780b5000p-12"]
