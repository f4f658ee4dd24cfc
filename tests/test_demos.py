"""The fast demos run to completion: a demo that reads a renamed field or
passes a dropped argument fails here, not in a reader's hands.  The three
slow ones (barrier_certificates, energy_dissipation, steady_state; about
10 s together) are run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcflow

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(mcflow.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["operator_convergence", "comparison_ordering",
                                  "maximum_principle_and_bounds", "liouville_flatness"])
def test_fast_demo_exits_0(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(DEMOS / f"{demo}.py")], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
