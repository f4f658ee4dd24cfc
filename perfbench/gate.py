"""Correctness gate: what one CLI run of one workload config must produce.

Every config is checked for its exit code, every property its experiment
asserts, the summary scalars the inputs fix for any seed, and -- on seed 0
-- the reference scalars in references.json to the tolerance recorded
there.  Every check reads the outputs defensively, so a crash fails all
checks of its config and the number attempted per config is fixed.
The sha256 of each output file is reported, never gated.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

PROPERTIES = {
    "flow": ("rate-ceiling", "max-principle"),
    "steady": ("steady-residual", "steady-viscosity-clean"),
    "comparison": ("ordering-preserved",),
    "liouville": ("flatness-bound", "envelope-upper-super", "envelope-lower-sub"),
    "viscosity": ("viscosity-clean",),
}

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())


def parse_summary(path: Path):
    """(property name -> passed, scalar name -> value) from summary.txt."""
    props, scalars = {}, {}
    if not path.is_file():
        return props, scalars
    for line in path.read_text().splitlines():
        if line.startswith("property "):
            name, rest = line[len("property "):].split(": ", 1)
            props[name] = rest.startswith("pass ")
        elif ": " in line and not line.startswith(("file: ", "experiment: ", "all_passed: ")):
            key, val = line.split(": ", 1)
            scalars[key] = float(val)
    return props, scalars


def output_hashes(out_dir: Path) -> dict:
    """sha256 of every output file except the summary, which names paths."""
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "summary.txt"}


def snapshot_field(path: Path) -> np.ndarray:
    """Node values of a snapshot file, read from its documented layout: magic,
    uint32 dimension count and axis counts, float64 box corners, float64 values."""
    blob = path.read_bytes()
    ndim = int(np.frombuffer(blob, "<u4", 1, 8)[0])
    shape = tuple(int(n) for n in np.frombuffer(blob, "<u4", ndim, 12))
    offset = 12 + 4 * ndim + 16 * ndim
    return np.frombuffer(blob, "<f8", int(np.prod(shape)), offset).reshape(shape)


def steady_field_scalars(out_dir: Path) -> dict:
    """Value at the box-centre node and mean square over the domain of the steady field."""
    snaps = sorted(out_dir.glob("steady_*.mcfgrid")) if out_dir.is_dir() else []
    if not snaps:
        return {}
    u = snapshot_field(snaps[-1])
    inside = u[np.isfinite(u)]
    return {"field_center": float(u[tuple(n // 2 for n in u.shape)]),
            "field_mean_sq": float(np.mean(inside ** 2))}


def _series(path: Path):
    """series.csv as a float array (columns t,sup_u,sup_grad,sup_ut,J,diss,src,resid)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) if path.is_file() else None


def _close(value, ref, rel_tol=0.0, abs_tol=0.0):
    return value is not None and abs(value - ref) <= max(rel_tol * abs(ref), abs_tol)


def _le(value, limit):
    return value is not None and value <= limit


def checks(config, seed: int, exit_code, out_dir: Path, first_hashes=None):
    """List of (check name, passed) for one run of one config."""
    props, sc = parse_summary(out_dir / "summary.txt")
    get = sc.get
    result = [("exit-code", exit_code == 0)]
    result += [(f"property:{p}", props.get(p) is True) for p in PROPERTIES[config.experiment]]

    exp = config.experiment
    if exp == "flow":
        n_snaps = sum(1 for n in output_hashes(out_dir) if n.startswith("snapshot_"))
        series = _series(out_dir / "series.csv")
        result += [
            ("steps", get("steps") == config.steps),
            ("not-aborted", get("aborted") == 0.0),
            ("sup_u-is-data-max", _close(get("sup_u"), config.amplitude, rel_tol=1e-9)),
            ("two-snapshots", n_snaps == 2),
            ("series-rows", series is not None and len(series) == config.steps + 1),
            # both flow workloads have nu = 0: the area functional J cannot grow
            ("energy-nonincreasing",
             series is not None and bool(np.all(np.diff(series[:, 4]) <= 0.0))),
        ]
    elif exp == "steady":
        result.append(("residual-below-tolerance", _le(get("residual"), 1e-6)))
        sc.update(steady_field_scalars(out_dir))
    elif exp == "comparison":
        result += [("pairs", get("pairs") == 20.0),
                   ("max_violation", _le(get("max_violation"), 1e-10))]
    elif exp == "liouville":
        result += [("flatness-within-bound",
                    get("bound") is not None and _le(get("sup_flatness"), get("bound"))),
                   ("monotone", _le(get("max_monotone_violation"), 0.0))]
    elif exp == "viscosity":
        result.append(("no-violations", get("violations") == 0.0))

    if seed == 0:
        for key, ref in REFERENCES["seed0"][config.name]["scalars"].items():
            result.append((f"seed0:{key}", _close(get(key), ref["value"],
                                                  ref.get("rel_tol", 0.0), ref.get("abs_tol", 0.0))))
    if first_hashes is not None:
        result.append(("deterministic-outputs", output_hashes(out_dir) == first_hashes))
    return result


def reference_hashes(config_name: str) -> dict:
    return REFERENCES["seed0"][config_name].get("sha256", {})
