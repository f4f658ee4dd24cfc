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


@lru_cache(maxsize=None)
def _module_names(module: str) -> set:
    """Top-level names a module of the package binds, submodules included."""
    path = PACKAGE.joinpath(*module.split(".")[1:])
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
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


def missing_demo_attributes(path: Path) -> list:
    """(line, alias.attribute) for every package attribute a demo reads that does not exist."""
    tree = _parse(path)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name: a.name for a in node.names
                        if a.name.split(".")[0] == "mcflow"}
        elif isinstance(node, ast.ImportFrom) and node.module == "mcflow":
            aliases |= {a.asname or a.name: f"mcflow.{a.name}" for a in node.names}
    names = {alias: _module_names(module) for alias, module in aliases.items()}
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
