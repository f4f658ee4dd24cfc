"""mcflow benchmark: one seeded workload through the public CLI entry point.

    python3 perfbench/run.py --workload flow-spheroid3d --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each run writes the workload's configs, times the
set-up path (load_config, build_grid, boundary_values, init_state) several
times, then calls ``mcflow.cli.main`` once per config, repeating the whole
workload while another repetition fits in ``--seconds`` (at least once).
Times are reported in calibration-scaled reference seconds (see
CAL_REFERENCE_STEP_S).  Every output is checked by the correctness gate.  With ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics come
from the traced ones.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# serial runs: no BLAS or OpenMP worker threads (set before numpy loads)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import tracing
import workloads

WORK_DIR = ".perfbench_work"
# Machine-speed calibration: a fixed numpy stencil loop owned by the benchmark
# (it runs no program code).  Shared hosts swing in speed by up to 2x over
# minutes, so every timed interval is bracketed by two calibrations and
# reported in reference seconds: raw * CAL_REFERENCE_STEP_S / mean(step time).
# A calibration lasts CAL_SHARE of the interval before it, at least CAL_MIN_S,
# so its own noise stays small against long repetitions.
CAL_REFERENCE_STEP_S = 16e-6    # one loop step on an idle 2-core Intel Xeon
CAL_MIN_S = 0.5
CAL_SHARE = 0.08
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 50
SETUP_SHARE = 0.15          # share of --seconds spent repeating the set-up path
MIN_TAIL = 10               # samples beyond the reported percentile


class ProgramMissing(RuntimeError):
    """The checkout holds no importable mcflow source tree."""


def load_program(root: Path):
    src = root / "src"
    if not (src / "mcflow" / "__init__.py").is_file():
        raise ProgramMissing(f"no mcflow sources under {src}")
    sys.path.insert(0, str(src))
    import mcflow
    import mcflow.cli
    if Path(mcflow.__file__).resolve().parent != (src / "mcflow").resolve():
        raise ProgramMissing(f"imported mcflow from {mcflow.__file__}, not from {src}")
    return mcflow


def calibration_step_s(seconds: float) -> float:
    """Mean time of one step of a 65x65 stencil update (the array size and
    ufunc mix of the 2D operator), stepped for about ``seconds``."""
    u = np.linspace(0.0, 1.0, 65 * 65).reshape(65, 65)
    g = np.zeros_like(u)
    s = np.zeros_like(u)
    steps = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        for _ in range(1000):
            np.subtract(u[2:], u[:-2], out=g[1:-1])
            g *= 0.5
            np.multiply(g, g, out=s)
            s += 0.0025
            np.sqrt(s, out=s)
        steps += 1000
    return (time.perf_counter() - t0) / steps


def percentile_with_tail(samples):
    """(label, value) of the highest percentile with MIN_TAIL samples beyond it."""
    n = len(samples)
    if n <= MIN_TAIL:
        return None, None
    k = n - MIN_TAIL - 1
    return f"p{100.0 * (k + 1) / n:.0f}", sorted(samples)[k]


def machine_record(mcflow):
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "mcflow": getattr(mcflow, "__version__", "unknown"),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "execution": "one process, workloads and configs run serially",
    }


class Ledger:
    """Checks attempted and failed over a run; names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, label, results):
        self.attempted += len(results)
        self.failures += [f"{label}: {name}" for name, ok in results if not ok]


class Bench:
    def __init__(self, mcflow, configs, seed, seconds, work: Path):
        self.mcflow = mcflow
        self.configs = configs
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.ledger = Ledger()
        self.first_hashes = {}
        self.crashed = False
        self.paths = []
        cfg_dir = work / "configs"
        cfg_dir.mkdir(parents=True)
        for c in configs:
            path = cfg_dir / f"{c.name}.cfg"
            path.write_text(c.text)
            self.paths.append(path)

    # -- set-up path ----------------------------------------------------------
    def time_setup(self, start):
        """Samples of config -> initialised state, summed over configs, plus the
        interior node count of each config's grid."""
        m = self.mcflow
        samples, interior = [], []
        while len(samples) < SETUP_MAX_REPS:
            total = 0.0
            interior = []
            for path in self.paths:
                t0 = time.perf_counter()
                cfg = m.cli.load_config(path)
                grid = m.geometry.build_grid(cfg.domain, cfg.spacing)
                bvals = m.operator.boundary_values(grid, cfg.boundary_expr)
                m.operator.init_state(grid, cfg.initial_expr, bvals)
                total += time.perf_counter() - t0
                interior.append(int(grid.interior.sum()))
            samples.append(total)
            if (len(samples) >= SETUP_MIN_REPS
                    and time.perf_counter() - start >= SETUP_SHARE * self.seconds):
                break
        return samples, interior

    # -- one repetition of the workload ---------------------------------------
    def repetition(self, index, tracer=None):
        """Run every config once through cli.main; return (wall seconds, bytes written)."""
        wall = 0.0
        written = 0
        for config, path in zip(self.configs, self.paths):
            out = self.work / f"rep{index:03d}" / config.name
            argv = [config.experiment, "--config", str(path), "--out", str(out)]
            rc = None
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    with tracer or contextlib.nullcontext():
                        rc = self.mcflow.cli.main(argv)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    self.crashed = True
                wall += time.perf_counter() - t0
            first = self.first_hashes.get(config.name)
            self.ledger.add(f"rep {index} {config.name}",
                            gate.checks(config, self.seed, rc, out, first))
            hashes = gate.output_hashes(out)
            if first is None:
                self.first_hashes[config.name] = hashes
            if out.is_dir():
                written += sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out, ignore_errors=True)
        return wall, written

    def run(self, traced: bool):
        """Set-up samples, then repetitions until the next one would end after
        --seconds from the start (each kind of repetition runs at least once).
        Returns raw set-up samples and their calibration scale, the interior
        node counts, (raw, scale) per plain repetition and
        (tracer, raw, scale, bytes written) per traced one."""
        start = time.perf_counter()
        cal = [calibration_step_s(CAL_MIN_S)]
        setup, interior = self.time_setup(start)
        cal.append(calibration_step_s(CAL_MIN_S))
        setup_scale = 2 * CAL_REFERENCE_STEP_S / (cal[0] + cal[1])
        plain, traces = [], []
        kinds = ("plain", "traced") if traced else ("plain",)
        last = {}
        index = 0
        while not self.crashed:
            kind = kinds[index % len(kinds)]
            if len(last) == len(kinds):
                remaining = self.seconds - (time.perf_counter() - start)
                if last[kind] * (1 + CAL_SHARE) > remaining:
                    break
            tracer = tracing.Tracer() if kind == "traced" else None
            wall, written = self.repetition(index, tracer)
            cal.append(calibration_step_s(max(CAL_MIN_S, CAL_SHARE * wall)))
            last[kind] = wall
            scale = 2 * CAL_REFERENCE_STEP_S / (cal[-2] + cal[-1])
            if tracer is None:
                plain.append((wall, scale))
            else:
                traces.append((tracer, wall, scale, written))
            index += 1
        return setup, setup_scale, interior, plain, traces

    def node_steps(self, interior):
        if any(c.steps is None for c in self.configs):
            return None
        return sum(n * c.steps * c.evolutions for n, c in zip(interior, self.configs))


# -- metrics -------------------------------------------------------------------

def layer_metrics(tr: tracing.Tracer, traced_wall, written, overhead_s):
    """Every per-layer metric of one traced repetition, name -> (value, unit).
    Times are raw seconds, except overhead_s: traced minus untraced wall_s,
    both in reference seconds."""
    sp = tr.span
    rhs = sp("operator.regularized_rhs")
    top = tr.top_level_s()
    m = {
        "geometry.build_grid_s": (sp("geometry.build_grid").total_s, "s"),
        "geometry.signed_distance_points": (sp("geometry.signed_distance").work, "count"),
        "geometry.inside_share": (tr.grid_nodes[0] / max(tr.grid_nodes[1], 1), "ratio"),
        "operator.rhs_calls": (rhs.calls, "count"),
        "operator.rhs_self_s": (rhs.self_s, "s"),
        "operator.rhs_ns_per_node": (1e9 * rhs.self_s / max(rhs.work, 1), "ns"),
        "operator.rhs_bytes_computed": (tr.rhs_bytes, "B"),
        "operator.node_gradient_s": (sp("operator.node_gradient").total_s, "s"),
        "operator.euler_self_s": (sp("operator.euler_update").self_s, "s"),
        "operator.closure_s": (sp("operator.apply_closure").total_s, "s"),
        "operator.closure_calls": (sp("operator.apply_closure").calls, "count"),
        "operator.boundary_values_s": (sp("operator.boundary_values").total_s, "s"),
        "operator.boundary_values_calls": (sp("operator.boundary_values").calls, "count"),
        "flow.solve_ibvp_self_s": (sp("flow.solve_ibvp").self_s, "s"),
        "flow.relax_steps": (sp("flow.relax_to_steady").work, "count"),
        "flow.relax_self_s": (sp("flow.relax_to_steady").self_s, "s"),
        "barriers.comparison_steps": (sp("barriers.comparison_experiment").work, "count"),
        "barriers.comparison_self_s": (sp("barriers.comparison_experiment").self_s, "s"),
        "liouville.sandwich_steps": (sp("liouville.flatness_and_sandwich").work, "count"),
        "liouville.sandwich_self_s": (sp("liouville.flatness_and_sandwich").self_s, "s"),
        "liouville.build_envelopes_s": (sp("liouville.build_envelopes").total_s, "s"),
        "verify.spot_check_s": (sp("verify.viscosity_spot_check").total_s, "s"),
        "verify.initial_slice_s": (sp("verify.ut_initial_slice_bound").total_s, "s"),
        "verify.energy_series_s": (sp("verify.energy_series").total_s, "s"),
        "expressions.eval_points": (sp("expressions.eval").work, "count"),
        "expressions.eval_s": (sp("expressions.eval").total_s, "s"),
        "cli.load_config_s": (sp("cli.load_config").total_s, "s"),
        "cli.write_s": (sum(s.self_s for n, s in tr.stats.items()
                            if n.startswith("cli.write_")), "s"),
        "cli.bytes_written": (written, "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.unaccounted_s": (traced_wall - top, "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    return m


COUNT_UNITS = ("count", "B")


def merge_layers(per_rep, ledger):
    """Median of each per-layer metric over traced repetitions; counts must repeat."""
    merged = {}
    for name, (_, unit) in per_rep[0].items():
        values = [m[name][0] for m in per_rep]
        if unit in COUNT_UNITS:
            if len(per_rep) > 1:
                ledger.add(f"trace {name}", [("counts-repeat", len(set(values)) == 1)])
            merged[name] = (values[0], unit)
        else:
            merged[name] = (statistics.median(values), unit)
    return merged


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _dist_line(name, unit, samples):
    label, tail = percentile_with_tail(samples)
    tail_txt = f"{label} {_fmt(tail)}" if label else f"no percentile (needs > {MIN_TAIL})"
    return (f"  {name:<18} median {_fmt(statistics.median(samples))} {unit}; "
            f"{tail_txt}; samples {len(samples)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    try:
        mcflow = load_program(root)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text())
    configs = workloads.build(args.workload, args.seed)
    # fixed-width name: summary.txt lists output paths, and cli.bytes_written counts it
    work = root / WORK_DIR / f"{args.workload}-s{args.seed}-p{os.getpid():07d}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(mcflow, configs, args.seed, args.seconds, work)
        setup, setup_scale, interior, plain, traces = bench.run(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = bench.ledger
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        args.workload, "not a declared workload of BENCHMARK.json")
    print(f"workload {args.workload} seed {args.seed}: {why}")
    print("machine " + json.dumps(machine_record(mcflow), sort_keys=True))
    for c in configs:
        ref = gate.reference_hashes(c.name)
        for fname, digest in bench.first_hashes.get(c.name, {}).items():
            same = "" if args.seed else (" (= seed-0 reference)" if ref.get(fname) == digest
                                         else " (differs from seed-0 reference)")
            print(f"sha256 {c.name}/{fname} {digest}{same}")

    print("end-to-end (untraced; reference seconds = raw seconds x calibration scale):")
    walls = [w * scale for w, scale in plain]
    setups = [t * setup_scale for t in setup]
    wall_s = statistics.median(walls)
    setup_s = statistics.median(setups)
    print(_dist_line("wall_s", "s", walls))
    print("  raw wall, scale    " + " ".join(f"{w:.4f} x {c:.4f}" for w, c in plain))
    print(_dist_line("setup_s", "s", setups) + f"; raw median {statistics.median(setup):.6g} "
          f"x {setup_scale:.4f}")
    node_steps = bench.node_steps(interior)
    if node_steps is not None:
        print(f"  node_steps_per_s   {node_steps / (wall_s - setup_s):.6g} 1/s "
              f"({node_steps} node steps, from medians)")
    else:
        print("  node_steps_per_s   not reported (the solver owns the step count)")
    print(f"  peak_rss_mb        {peak_rss_mb:.6g} MB; samples 1")
    ratio = len(ledger.failures) / max(ledger.attempted, 1)
    print(f"  check_fail_ratio   {ratio:.6g} ({len(ledger.failures)} of {ledger.attempted})")

    metrics = {"wall_s": (wall_s, "s"), "setup_s": (setup_s, "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    if args.trace:
        metrics = {}
        if traces:
            per_rep = [layer_metrics(tr, w, written, w * scale - wall_s)
                       for tr, w, scale, written in traces]
            metrics = merge_layers(per_rep, ledger)
            print(f"per-layer (traced, median of {len(traces)} repetitions; "
                  f"traced wall {_fmt(statistics.median([w for _, w, _, _ in traces]))} s):")
            for name, (value, unit) in metrics.items():
                print(f"  {name:<34} {_fmt(value)} {unit}")

    for failure in ledger.failures:
        print(f"FAILED {failure}")
    # a crashed run reports 0 for what it could not measure, with correct false
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: metrics.get(m["name"], (0.0, m["unit"])) for m in declared}
    result = {
        "correct": not ledger.failures and not bench.crashed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {n: {"value": v, "unit": unit} for n, (v, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
