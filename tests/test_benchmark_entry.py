"""The program entry points the benchmark in perfbench/ calls.

A change that breaks them would otherwise fail only the benchmark: its
set-up chain (load_config, build_grid, boundary_values, init_state) on
every seed-0 config, and a traced CLI run whose per-layer counts read the
operator's rate evaluation and Euler update by name.
"""

import os
import time
from pathlib import Path

import pytest

import mcflow as mc
from mcflow import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"
CONFIGS = Path(__file__).parents[1] / "demos" / "configs"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(os.environ)
    import run, tracing, workloads
    # run.py pins the BLAS threads of its own process; the subprocesses of
    # other tests keep the session's environment
    for var in set(os.environ) - before:
        del os.environ[var]
    return run, tracing, workloads


def test_setup_chain_runs_on_every_seed_0_config(perfbench, tmp_path):
    run, _, workloads = perfbench
    configs = {c.name: c for name in workloads.WORKLOADS for c in workloads.build(name, 0)}
    bench = run.Bench(mc, list(configs.values()), 0, 0.0, tmp_path / "work")
    samples, interior = bench.time_setup(time.perf_counter())
    assert len(samples) == run.SETUP_MIN_REPS
    assert len(interior) == len(configs) and min(interior) > 0


def test_traced_flow_run_counts_rate_and_euler_calls(perfbench, tmp_path):
    _, tracing, _ = perfbench
    text = (CONFIGS / "flow_bump.cfg").read_text()
    text = text.replace("run.horizon = 1.0", "run.horizon = 0.01").replace(
        "run.snapshot_times = 0.5 1.0", "run.snapshot_times = 0.01")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    tracer = tracing.Tracer()
    with tracer:
        assert cli.main(["flow", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert tracer.stats["operator.regularized_rhs"].calls > 0
    assert tracer.stats["operator.euler_update"].calls > 0
    # the rate's gradient goes through the public, traced function
    assert tracer.stats["operator.node_gradient"].calls > 0
