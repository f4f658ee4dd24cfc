"""Self-test of the benchmark itself (not part of a measured run).

    python3 perfbench/selftest.py

Checks that seed 0 writes the demo configs byte for byte, that every
seed keeps the grid and step-count lines, that the tracer replaces every
binding of every public function, and that two traced repetitions of
each of the four workloads on seed 0 give identical counts,
with operator.rhs_calls equal to the count the seed program makes.
Exits non-zero on the first failed check.
"""

import inspect
import shutil
import sys
from pathlib import Path

import run
import tracing
import workloads

# regularized_rhs calls per repetition at seed 0, counted on the seed program
# (flow-ball2d: 8192 steps, the initial rate and the rate-ceiling bound).
RHS_CALLS_SEED0 = {"flow-ball2d": 8194, "steady-ball2d": 44671,
                   "flow-spheroid3d": 1538, "certify-mix": 25601}

FIXED_KEYS = ("experiment", "domain.", "grid.", "params.", "run.horizon",
              "run.tolerance", "run.pairs", "run.snapshot_times", "liouville.")


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        sys.exit(1)


def check_generator(root: Path):
    demos = root / "demos" / "configs"
    for name in workloads.WORKLOADS:
        base = workloads.build(name, 0)
        check(base == workloads.build(name, 0), f"{name}: seed 0 is reproducible")
        for c in base:
            demo = demos / f"{c.name}.cfg"
            if demo.is_file():
                check(demo.read_text() == c.text, f"{name}: {c.name}.cfg equals the demo config")
        for seed in (1, 7, 123):
            for c0, c in zip(base, workloads.build(name, seed)):
                fixed = [ln for ln in c.text.splitlines() if ln.startswith(FIXED_KEYS)]
                fixed0 = [ln for ln in c0.text.splitlines() if ln.startswith(FIXED_KEYS)]
                check(fixed == fixed0, f"{name} seed {seed}: {c.name} keeps grid and steps")


def check_patching(mcflow):
    with tracing.Tracer():
        missed = []
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("mcflow"):
                continue
            for attr, obj in vars(mod).items():
                # wrappers belong to the tracing module, originals to a layer
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.split(".")[-1] in tracing.LAYERS
                        and obj.__name__ == attr):
                    missed.append(f"{mod_name}.{attr}")
    check(not missed, f"tracer patches every public binding {missed or ''}")
    leftover = [a for a, o in vars(mcflow.operator).items() if hasattr(o, "__wrapped__")]
    check(not leftover, "tracer restores the originals on exit")


def check_counts(mcflow, root: Path, name: str):
    work = root / run.WORK_DIR / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = run.Bench(mcflow, workloads.build(name, 0), 0, 0.0, work)
        reps = []
        for i in range(2):
            tracer = tracing.Tracer()
            wall, written = bench.repetition(i, tracer)
            reps.append(run.layer_metrics(tracer, wall, written, 0.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check(not bench.ledger.failures, f"{name}: correctness gate passes {bench.ledger.failures}")
    counts = [{k: v for k, (v, unit) in m.items() if unit in run.COUNT_UNITS} for m in reps]
    check(counts[0] == counts[1], f"{name}: traced counts repeat exactly")
    rhs = counts[0]["operator.rhs_calls"]
    check(rhs == RHS_CALLS_SEED0[name],
          f"{name}: operator.rhs_calls {rhs} == {RHS_CALLS_SEED0[name]}")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    mcflow = run.load_program(root)
    check_generator(root)
    check_patching(mcflow)
    for name in workloads.WORKLOADS:
        check_counts(mcflow, root, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
