"""One-off measurement of the CLI's --batch path; reported, never gated.

    python3 perfbench/batch_probe.py

Runs two generated flow configs (the flow-ball2d inputs of seeds 0 and 1)
in one CLI call with --batch 1 and with --batch 2, alternating, REPS times
each, and prints the median wall_s of each together with the machine
record.  Both modes must write identical outputs.
"""

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import run
import workloads

SEEDS = (0, 1)
REPS = 2


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    mcflow = run.load_program(root)
    work = root / run.WORK_DIR / "batch-probe"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        argv_cfg = []
        for seed in SEEDS:
            (config,) = workloads.build("flow-ball2d", seed)
            path = work / f"flow_{seed}.cfg"
            path.write_text(config.text)
            argv_cfg += ["--config", str(path)]
        walls = {1: [], 2: []}
        hashes = {}
        for rep in range(REPS):
            for batch in (1, 2) if rep % 2 == 0 else (2, 1):
                out = work / f"out-b{batch}"
                t0 = time.perf_counter()
                rc = mcflow.cli.main(["flow", *argv_cfg, "--out", str(out), "--batch", str(batch)])
                walls[batch].append(time.perf_counter() - t0)
                if rc != 0:
                    print(f"error: --batch {batch} exited {rc}", file=sys.stderr)
                    return 1
                hashes[batch] = {d.name: gate.output_hashes(d) for d in sorted(out.iterdir())}
                shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    same = hashes[1] == hashes[2]
    print("machine " + json.dumps(run.machine_record(mcflow), sort_keys=True))
    for batch in (1, 2):
        print(f"--batch {batch}: wall_s median {statistics.median(walls[batch]):.4f} s "
              f"over {len(walls[batch])} runs {[round(w, 4) for w in walls[batch]]}")
    print(f"outputs identical across batch modes: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
