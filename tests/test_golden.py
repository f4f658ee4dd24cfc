"""Golden digests of seed-0 outputs.

A change that leaves the scheme as it is keeps every output bit for bit;
these sha256 digests pin three fast ones through the CLI: the steady
snapshot of steady_drift.cfg, the flatness table of liouville_ramp.cfg and
the series of flow_bump.cfg cut to a horizon of 0.05 (409 steps).
"""

import hashlib
from pathlib import Path

import pytest

from mcflow import cli

CONFIGS = Path(__file__).parents[1] / "demos" / "configs"
SHORT_BUMP = {"run.horizon = 1.0": "run.horizon = 0.05",
              "run.snapshot_times = 0.5 1.0": "run.snapshot_times = 0.025 0.05"}


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
