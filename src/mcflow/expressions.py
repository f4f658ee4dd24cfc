"""Data expressions: restricted Python arithmetic over the coordinates.

Configs give boundary and initial data as text such as
``0.3*max(0, 1 - x1^2 - x2^2)^2`` or ``|x1| - 1``.  A token pass reads
``^`` as ``**`` and ``|e|`` as ``abs(e)``, ``ast.parse`` parses the
result, and one walk accepts only int or float constants, the coordinates
x1 .. x9, ``+ - * / **``, unary signs, and calls by bare name of ``min``
and ``max`` (one or more arguments) and of ``abs``, ``sqrt`` and ``exp``
(exactly one).  Anything else is an ExpressionError.  The walk builds
closures that evaluate vectorized over (N, dim) point arrays; nothing
reaches ``eval``, ``exec`` or ``compile``.
"""

import ast
import operator
import re

import numpy as np

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^(),|]))")

_FUNCS = {
    "min": lambda *a: np.minimum.reduce(a),
    "max": lambda *a: np.maximum.reduce(a),
    "abs": lambda a: np.abs(a),
    "sqrt": lambda a: np.sqrt(a),
    "exp": lambda a: np.exp(a),
}

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


class ExpressionError(ValueError):
    """Malformed data expression."""


def _to_python(text: str) -> str:
    """Python source of ``text``: ``^`` as ``**`` and ``|e|`` as ``abs(e)``.

    A bar closes when it follows an operand and opens otherwise.  Bars and
    parentheses must nest, and a closer must follow an operand.  Tokens are
    joined by spaces, so Python reads no literal that the tokenizer split,
    such as ``1_0``, ``0x1`` or ``1j``.
    """
    out, opened, pos = [], [], 0
    operand = False                      # does the last token end an operand?
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExpressionError(
                    f"unexpected character at position {pos} in expression {text!r}")
            break
        pos = m.end()
        num, name, sym = m.groups()
        closes = sym == ")" or (sym == "|" and operand)
        if closes:
            if not operand or opened[-1:] != ["(" if sym == ")" else "|"]:
                raise ExpressionError(
                    f"unbalanced {sym!r} at position {m.start(3)} in expression {text!r}")
            opened.pop()
            out.append(")")
        elif sym in ("(", "|"):
            opened.append(sym)
            out.append("abs(" if sym == "|" else "(")
        else:
            out.append("**" if sym in ("^", "**") else num or name or sym)
        operand = sym is None or closes
    if opened:
        raise ExpressionError(f"unclosed {opened[-1]!r} in expression {text!r}")
    return " ".join(out)


class Expression:
    """A parsed, vectorized scalar expression of the coordinates."""

    def __init__(self, text: str):
        self.text = text
        src = _to_python(text)
        try:
            tree = ast.parse(src, mode="eval")
        except SyntaxError as exc:
            raise ExpressionError(f"{exc.msg} in expression {text!r}") from None
        used = set()

        def walk(node):
            if isinstance(node, ast.Constant) and type(node.value) in (int, float):
                # float() of the literal as written: a 400-digit integer reads inf
                c = float(src[node.col_offset:node.end_col_offset])
                return lambda pts: np.full(len(pts), c)
            if isinstance(node, ast.Name):
                if not re.fullmatch(r"x[1-9]", node.id):
                    raise ExpressionError(f"unknown variable {node.id!r} in expression "
                                          f"{text!r} (coordinates are x1, x2, ...)")
                k = int(node.id[1]) - 1
                used.add(k)
                return lambda pts: pts[:, k]
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
                f = walk(node.operand)
                return f if isinstance(node.op, ast.UAdd) else lambda pts: -f(pts)
            if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
                op, a, b = _BINOPS[type(node.op)], walk(node.left), walk(node.right)
                return lambda pts: op(a(pts), b(pts))
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None)
                # `(min)(x1)` parses to the same Call, its name starting after the Call
                if name not in _FUNCS or node.func.col_offset != node.col_offset:
                    raise ExpressionError(
                        f"unknown function {ast.unparse(node.func)!r} in expression {text!r} "
                        f"(functions are min, max, abs, sqrt, exp, called by bare name)")
                one = name not in ("min", "max")
                if node.keywords or (len(node.args) != 1 if one else not node.args):
                    raise ExpressionError(
                        f"{name} takes {'exactly one argument' if one else 'one or more arguments'}"
                        f" in expression {text!r}")
                fn, args = _FUNCS[name], [walk(a) for a in node.args]
                return lambda pts: fn(*(a(pts) for a in args))
            raise ExpressionError(f"{type(node).__name__} not allowed in expression {text!r}")

        self._eval = walk(tree.body)
        self.variables = sorted(used)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if self.variables and max(self.variables) >= pts.shape[1]:
            raise ExpressionError(
                f"expression {self.text!r} uses x{max(self.variables) + 1} "
                f"but points have dimension {pts.shape[1]}")
        return np.broadcast_to(self._eval(pts), (len(pts),)).astype(float)


def parse_expression(text: str) -> Expression:
    return Expression(text)
