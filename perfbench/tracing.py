"""Per-layer tracing from outside the program.

Every public function of each mcflow module is wrapped, and every binding
of it is replaced: ``flow``, ``barriers``, ``liouville`` and ``verify``
import ``regularized_rhs``, ``euler_update``, ``boundary_values`` and
``init_state`` by name, so patching ``mcflow.operator`` alone would miss
most calls.  Expression evaluation is traced through
``Expression.__call__``.

Spans are aggregated as they close: per span name the call count, the
total time, the self time (duration minus the time covered by child
spans) and a per-name work count.
"""

import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("geometry", "operator", "flow", "barriers", "verify", "liouville",
          "expressions", "cli")

BYTES_PER_VALUE = 8


def rhs_full_box_writes(dim: int) -> int:
    """Full-box float64 array writes per regularized_rhs call, counted from
    the seed implementation: node gradient (2 per axis), smoothed norm
    (4 + 2 per extra axis), the per-axis face fluxes (11 + 4 per extra axis)
    and the divergence and rate assembly (5)."""
    return 2 * dim + (4 + 2 * (dim - 1)) + dim * (11 + 4 * (dim - 1)) + 5


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0        # per-name count: points, interior node updates, steps


def _n_points(pts) -> int:
    shape = getattr(pts, "shape", None)
    if shape is None:
        return len(pts) if len(pts) and hasattr(pts[0], "__len__") else 1
    return 1 if len(shape) == 1 else int(shape[0])


class Tracer:
    """Context manager that patches the program's functions while active."""

    package = "mcflow"

    def __init__(self):
        self.stats = {}
        self.grid_nodes = [0, 0]        # interior, box over grids built
        self.rhs_bytes = 0
        self._stack = []
        self._undo = []
        self._grids = {}                # id -> (grid, interior, box nodes, dim)

    def _sizes(self, grid):
        entry = self._grids.get(id(grid))
        if entry is None or entry[0] is not grid:
            entry = (grid, int(grid.interior.sum()), int(grid.interior.size), grid.dim)
            self._grids[id(grid)] = entry
        return entry[1:]

    # -- work counts taken from arguments and results ---------------------
    def _work(self, name, args, result):
        if name in ("geometry.signed_distance", "expressions.eval"):
            return _n_points(args[-1] if name == "geometry.signed_distance" else args[1])
        if name == "geometry.build_grid":
            n_int, n_box, _ = self._sizes(result)
            self.grid_nodes[0] += n_int
            self.grid_nodes[1] += n_box
            return n_box
        if name == "operator.regularized_rhs":
            n_int, n_box, dim = self._sizes(args[1])
            self.rhs_bytes += BYTES_PER_VALUE * n_box * rhs_full_box_writes(dim)
            return n_int
        if name in ("flow.relax_to_steady", "barriers.comparison_experiment",
                    "liouville.flatness_and_sandwich"):
            return int(result.steps)
        return 0

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        work = self._work

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - covered
                if stack:
                    stack[-1] += elapsed
            stats.work += work(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        expr_cls = sys.modules[f"{self.package}.expressions"].Expression
        call = expr_cls.__call__
        self._undo.append((expr_cls, "__call__", call))
        expr_cls.__call__ = self._wrap("expressions.eval", call)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- aggregation --------------------------------------------------------
    def span(self, name) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def layer_self_s(self, layer) -> float:
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(layer + "."))

    def top_level_s(self) -> float:
        """Time covered by spans with no traced parent (cli.main per config)."""
        return sum(s.self_s for s in self.stats.values())
