import functools
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcflow.expressions import ExpressionError, parse_expression

# the origin plus points on both sides of every coordinate plane
PTS = np.vstack([np.zeros(3), np.random.default_rng(0).uniform(-2.0, 2.0, (15, 3))])
NUMBERS = ("0", "2", "10", ".5", "0.25", "3.", "1e-1", "2.5E1", "7e+0")
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "^": operator.pow, "**": operator.pow}
UNARY = {"abs": np.abs, "sqrt": np.sqrt, "exp": np.exp}
FOLDS = {"min": np.minimum, "max": np.maximum}

# a tree is (config text, numpy evaluation, whether the text needs no parentheses)


def _constant(text):
    return text, lambda pts: np.full(len(pts), float(text)), True


def _variable(k):
    return f"x{k + 1}", lambda pts: pts[:, k], True


def _operand(tree):
    return tree[0] if tree[2] else f"({tree[0]})"


def _binary(args):
    a, op, b = args
    return (f"{_operand(a)} {op} {_operand(b)}",
            lambda pts: BINARY[op](a[1](pts), b[1](pts)), False)


def _signed(args):
    sign, a = args
    return sign + _operand(a), (lambda pts: -a[1](pts)) if sign == "-" else a[1], False


def _bars(a):
    return f"|{a[0]}|", lambda pts: np.abs(a[1](pts)), True


def _call(args):
    name, a = args
    return f"{name}({a[0]})", lambda pts: UNARY[name](a[1](pts)), True


def _fold(args):
    name, items = args
    return (f"{name}({', '.join(t[0] for t in items)})",
            lambda pts: functools.reduce(FOLDS[name], [t[1](pts) for t in items]), True)


TREES = st.recursive(
    st.sampled_from(NUMBERS).map(_constant) | st.integers(0, 2).map(_variable),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(sorted(BINARY)), sub).map(_binary),
        st.tuples(st.sampled_from("+-"), sub).map(_signed),
        sub.map(_bars),
        st.tuples(st.sampled_from(sorted(UNARY)), sub).map(_call),
        st.tuples(st.sampled_from(sorted(FOLDS)), st.lists(sub, min_size=1, max_size=3))
        .map(_fold)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_config_syntax_evaluates_like_numpy(tree):
    text, evaluate, _ = tree
    expr = parse_expression(text)
    with np.errstate(all="ignore"):
        got, want = expr(PTS), evaluate(PTS)
    assert got.tobytes() == want.tobytes(), text
    assert expr.variables == sorted({int(k) - 1 for k in re.findall(r"x(\d)", text)})


@pytest.mark.parametrize("text", [
    "(min)(x1)", "|x1 + (2|)", "x1 |x2|", "min()", "abs(x1, x2)", "x1 if x2 else 1",
    "not x1", "x1 and x2", "True", "yield x1", "x1.real", "__import__(x1)",
    "sqrt(x1, 2)", "exp()", "max()", "min(x1,)", "min(*x1)", "min(**x1)",
])
def test_outside_the_grammar_is_an_expression_error(text):
    with pytest.raises(ExpressionError):
        parse_expression(text)
