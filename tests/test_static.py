"""Static checks on the source tree, by `ast` alone: nothing here runs the
package or the demos."""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcflow"
# the experiment runners share the signature the dispatcher calls them with
RUNNER_SIGNATURE = ("cfg", "grid", "out")


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _parameters(fn) -> list:
    a = fn.args
    names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]


def _runner_names(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_RUNNERS" for t in node.targets)):
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def unread_parameters(path: Path) -> list:
    """(line, function, parameter) for every parameter its function's body never reads.

    A read is a load of the name anywhere inside the body, nested functions
    included.
    """
    tree = _parse(path)
    runners = _runner_names(tree)
    loads, functions = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.setdefault(node.id, []).append((node.lineno, node.col_offset))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            functions.append(node)
    out = []
    for fn in functions:
        name = getattr(fn, "name", "<lambda>")
        params = _parameters(fn)
        if name in runners and tuple(params) == RUNNER_SIGNATURE:
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        start = (body[0].lineno, body[0].col_offset)
        end = (body[-1].end_lineno, body[-1].end_col_offset)
        out += [(fn.lineno, name, p) for p in params
                if not any(start <= at < end for at in loads.get(p, ()))]
    return sorted(out)


def test_every_parameter_is_read():
    unread = [f"{path.name}:{line} {fn}({param})"
              for path in sorted(PACKAGE.glob("*.py"))
              for line, fn, param in unread_parameters(path)]
    assert unread == []


def test_the_parameter_check_sees_an_unread_parameter(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a, b):\n    return a\n\ng = lambda x, y: y\n\n"
                   "def _run(cfg, grid, out):\n    return 0\n\n_RUNNERS = {'r': _run}\n")
    assert unread_parameters(src) == [(1, "f", "b"), (4, "<lambda>", "x")]


def unread_imports(path: Path) -> list:
    """(line, name) for every name a module imports and never reads.

    A read is a load of the name anywhere in the module, an attribute read
    through it included.  Future imports bind no name and are left out.
    """
    tree = _parse(path)
    loads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for name in (a.asname or a.name.split(".")[0] for a in node.names)
                  if name != "*" and name not in loads)


def test_every_import_is_read():
    # the package's __init__ imports to re-export, so only the modules are checked
    unread = [f"{path.name}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for line, name in unread_imports(path)]
    assert unread == []


def test_the_import_check_sees_an_unread_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\nimport os\nimport os.path\n"
                   "import numpy as np\nfrom a import b as c, d\nfrom . import e\n"
                   "from f import *\n\ndef g(x: d) -> None:\n    return np.sum(x)\n")
    assert unread_imports(src) == [(2, "os"), (3, "os"), (5, "c"), (6, "e")]


def _decorator_name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def unread_fields(modules, readers) -> list:
    """(module, line, class, field) for every annotated field of a @dataclass
    in the modules whose name no attribute load in the readers reads."""
    loads = {node.attr for path in readers for node in ast.walk(_parse(path))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [(path.name, item.lineno, node.name, item.target.id)
            for path in modules for node in ast.walk(_parse(path))
            if isinstance(node, ast.ClassDef)
            and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in loads]


def test_every_dataclass_field_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = modules + sorted(path for folder in ("tests", "demos", "perfbench")
                               for path in (ROOT / folder).rglob("*.py"))
    assert unread_fields(modules, readers) == []


def test_the_field_check_sees_an_unread_field(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import dataclasses\nfrom dataclasses import dataclass, field\n\n"
                   "@dataclass\nclass A:\n    read: int\n    unread: float = 0.0\n"
                   "    kept: list = field(default_factory=list)\n\n"
                   "@dataclasses.dataclass(frozen=True)\nclass B:\n    kept: int\n\n"
                   "class Plain:\n    other: int\n\n"
                   "a = A(1)\na.unread = a.read\nprint(a.kept)\n")
    assert unread_fields([src], [src]) == [("m.py", 7, "A", "unread")]


def roll_calls(path: Path) -> list:
    """Lines of every call to a function named roll: np.roll, numpy.roll or
    an imported roll.  A roll wraps values across the lattice edge."""
    return sorted(node.lineno for node in ast.walk(_parse(path))
                  if isinstance(node, ast.Call)
                  and "roll" in (getattr(node.func, "attr", None), getattr(node.func, "id", None)))


def test_no_module_wraps_the_lattice_by_a_roll():
    # shifted slices say where the lattice edge is; a roll reads the far edge there
    rolls = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in roll_calls(path)]
    assert rolls == []


def test_the_roll_check_sees_a_roll(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import numpy as np\nimport numpy\nfrom numpy import roll\n\n"
                   "a = np.roll(np.arange(3), 1)\nb = numpy.roll(a, -1, axis=0)\n"
                   "c = roll(b, 2)\nd = np.rollaxis(a[None], 1)\nrolled = a[1:]\n")
    assert roll_calls(src) == [5, 6, 7]


def take_function_calls(path: Path) -> list:
    """Lines of every call to numpy's take function: np.take, numpy.take or
    an imported take.  Method calls a.take(...) are not counted."""
    tree = _parse(path)
    numpy_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
    takes = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy"
             for a in node.names if a.name == "take"}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id in takes
                       or isinstance(node.func, ast.Attribute) and node.func.attr == "take"
                       and isinstance(node.func.value, ast.Name)
                       and node.func.value.id in numpy_names))


def test_no_module_gathers_through_the_take_function():
    # the ndarray.take method skips the function's Python dispatcher, which
    # costs as much as a small gather itself
    calls = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in take_function_calls(path)]
    assert calls == []


def test_the_take_check_sees_a_take_function_call(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import numpy as np\nimport numpy\nfrom numpy import take as tk\n\n"
                   "a = np.arange(3)\nb = np.take(a, [0, 1])\nc = numpy.take(a, [2], axis=0)\n"
                   "d = tk(a, [1])\ne = a.take([0])\nf = np.take_along_axis(a, a, 0)\n")
    assert take_function_calls(src) == [6, 7, 8]


def twin_functions(path: Path) -> list:
    """(line, name) for every module-level function f whose module also
    defines a function _f at module level: a public wrapper and its private
    body, which a tracer that wraps public functions times as one."""
    defs = {node.name: node.lineno for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return sorted((line, name) for name, line in defs.items() if f"_{name}" in defs)


def test_no_module_defines_a_function_and_its_private_twin():
    twins = [f"{path.name}:{line} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for line, name in twin_functions(path)]
    assert twins == []


def test_the_twin_check_sees_a_twin(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def _f(x):\n    return x\n\ndef f(x):\n    return _f(x)\n\n"
                   "async def g():\n    pass\n\nasync def _g():\n    pass\n\n"
                   "def h():\n    def _h():\n        pass\n\nclass K:\n"
                   "    def k(self):\n        pass\n\n    def _k(self):\n        pass\n\n"
                   "_m = 1\n\ndef m():\n    return _m\n")
    assert twin_functions(src) == [(4, "f"), (7, "g")]


def _module_path(module: str) -> Path:
    path = PACKAGE.joinpath(*module.split(".")[1:])
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


@lru_cache(maxsize=None)
def _module_names(module: str) -> set:
    """Top-level names a module of the package binds, submodules included."""
    path = _module_path(module)
    names = {p.stem for p in path.parent.glob("*.py")} if path.name == "__init__.py" else set()
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _package_aliases(tree: ast.Module) -> dict:
    """alias -> package module for every import of the package a demo makes."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name: a.name for a in node.names
                        if a.name.split(".")[0] == "mcflow"}
        elif isinstance(node, ast.ImportFrom) and node.module == "mcflow":
            aliases |= {a.asname or a.name: f"mcflow.{a.name}" for a in node.names}
    return aliases


def missing_demo_attributes(path: Path) -> list:
    """(line, alias.attribute) for every package attribute a demo reads that does not exist."""
    tree = _parse(path)
    names = {alias: _module_names(module) for alias, module in _package_aliases(tree).items()}
    return [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in names and node.attr not in names[node.value.id]]


def test_demos_read_only_existing_package_attributes():
    missing = [f"{path.name}:{line} {attr}"
               for path in sorted((ROOT / "demos").glob("*.py"))
               for line, attr in missing_demo_attributes(path)]
    assert missing == []


def test_the_demo_check_sees_a_missing_attribute(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text("import mcflow as mc\nfrom mcflow import verify as vf\n"
                    "mc.build_grid\nmc.verify\nvf.energy_series\nvf.no_such_name\n")
    assert missing_demo_attributes(demo) == [(6, "vf.no_such_name")]


@lru_cache(maxsize=None)
def _functions(module: str) -> dict:
    """The functions a package module binds at top level, by name: its own
    defs and those it imports from sibling modules.  Classes are left out."""
    out = {}
    for node in _parse(_module_path(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            defs = _functions(f"mcflow.{node.module}")
            out |= {a.asname or a.name: defs[a.name] for a in node.names if a.name in defs}
    return out


def _misfit(call: ast.Call, fn) -> str | None:
    """Why the call does not fit the def, or None when it does (or cannot be told)."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    a = fn.args
    positional = [arg.arg for arg in a.posonlyargs + a.args]
    if len(call.args) > len(positional) and a.vararg is None:
        return f"{len(call.args)} positional arguments for {len(positional)} parameters"
    keywords = [arg.arg for arg in a.args + a.kwonlyargs]
    for k in call.keywords:
        if k.arg not in keywords and a.kwarg is None:
            return f"unknown keyword {k.arg}"
    given = set(positional[:len(call.args)]) | {k.arg for k in call.keywords}
    required = positional[:len(positional) - len(a.defaults)] + [
        arg.arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is None]
    missing = [name for name in required if name not in given]
    return f"missing {', '.join(missing)}" if missing else None


def misfit_demo_calls(path: Path) -> list:
    """(line, alias.function, reason) for every call a demo makes through an
    mcflow alias to a package function whose def it does not fit."""
    tree = _parse(path)
    modules = {alias: module for alias, module in _package_aliases(tree).items()
               if _module_path(module).exists()}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            fn = _functions(modules[node.func.value.id]).get(node.func.attr)
            reason = _misfit(node, fn) if fn is not None else None
            if reason:
                out.append((node.lineno, f"{node.func.value.id}.{node.func.attr}", reason))
    return out


def test_demo_calls_fit_the_package_signatures():
    misfits = [f"{path.name}:{line} {call}: {reason}"
               for path in sorted((ROOT / "demos").glob("*.py"))
               for line, call, reason in misfit_demo_calls(path)]
    assert misfits == []


def test_the_call_check_sees_a_misfit_call(tmp_path):
    demo = tmp_path / "demo.py"
    demo.write_text(
        "import mcflow as mc\nfrom mcflow import barriers as ba\n"
        "ba.barrier_supersolution_residual(bar, ball, grid, lin, params)\n"
        "ba.barrier_supersolution_residual(bar, prob, grid, params)\n"
        "mc.solve_ibvp(prob, grid, params, horizon=1.0, snapshots=())\n"
        "mc.solve_ibvp(prob, grid, params, snapshot_times=())\n"
        "mc.solve_ibvp(prob, grid, params, 1.0, snapshot_times=())\n"
        "mc.FlowParams(0.05, 0.0, None, 1)\nba.no_such_function(1)\n")
    assert misfit_demo_calls(demo) == [
        (3, "ba.barrier_supersolution_residual", "5 positional arguments for 4 parameters"),
        (5, "mc.solve_ibvp", "unknown keyword snapshots"),
        (6, "mc.solve_ibvp", "missing horizon"),
    ]
