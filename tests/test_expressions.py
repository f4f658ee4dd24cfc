import numpy as np
import pytest

from mcflow.expressions import parse_expression, ExpressionError


def test_basic_arithmetic():
    e = parse_expression("2*x1 + 3*x2 - 1")
    pts = np.array([[1.0, 2.0], [0.0, 0.0]])
    assert e(pts) == pytest.approx([7.0, -1.0])


def test_precedence_and_power():
    e = parse_expression("x1 + x2^2*3")
    assert e(np.array([[1.0, 2.0]]))[0] == pytest.approx(13.0)
    assert parse_expression("2^3^1")(np.zeros((1, 2)))[0] == pytest.approx(8.0)
    assert parse_expression("x1**2")(np.array([[3.0, 0.0]]))[0] == pytest.approx(9.0)


def test_unary_minus_and_division():
    e = parse_expression("-x1/2 + -(x2)")
    assert e(np.array([[4.0, 1.0]]))[0] == pytest.approx(-3.0)


def test_min_max_abs():
    e = parse_expression("min(1, max(0, x1))")
    pts = np.array([[-1.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
    assert e(pts) == pytest.approx([0.0, 0.5, 1.0])
    assert parse_expression("|x1 - 2|")(np.array([[0.5, 0.0]]))[0] == pytest.approx(1.5)


def test_ramp_expression_matches_closure():
    lam, w, m = 1.0, 0.5, 0.25
    e = parse_expression(f"min({lam}, max(0, {lam}*(x2 - {m} + {w})/{w}))")
    pts = np.column_stack([np.zeros(50), np.linspace(-1, 1, 50)])
    ref = np.minimum(lam, np.maximum(0.0, lam * (pts[:, 1] - m + w) / w))
    assert e(pts) == pytest.approx(ref)


def test_constant_broadcasts():
    e = parse_expression("3.5")
    assert e(np.zeros((4, 2))).shape == (4,)
    assert np.all(e(np.zeros((4, 2))) == 3.5)


def test_sqrt_exp():
    e = parse_expression("sqrt(x1^2 + x2^2)")
    assert e(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)
    assert parse_expression("exp(0*x1)")(np.zeros((1, 2)))[0] == pytest.approx(1.0)


def test_parse_errors():
    for bad in ("x1 +", "foo(x1)", "x0", "y1", "(x1", "x1 $ 2", "min(x1"):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_dimension_mismatch_reported():
    e = parse_expression("x3")
    with pytest.raises(ExpressionError):
        e(np.zeros((2, 2)))


def test_variables_tracked():
    assert parse_expression("x1*x3 + 2").variables == [0, 2]


def _chain(terms):
    return " + ".join(["x1"] * terms)


@pytest.mark.parametrize("terms", [1200, 3000])
def test_too_deep_an_expression_is_an_expression_error(terms):
    # 3,000 terms overflow the parser, 1,200 the walk
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_expression(_chain(terms))


def test_too_deep_an_evaluation_is_an_expression_error():
    e = parse_expression(_chain(900))
    assert e(np.ones((3, 2))) == pytest.approx([900.0] * 3)

    def nested(depth):
        return e(np.ones((3, 2))) if depth == 0 else nested(depth - 1)

    with pytest.raises(ExpressionError, match="nested too deeply"):
        nested(300)


def test_constant_exponents_take_the_exact_paths():
    # a constant exponent is a scalar: numpy's square, square root and
    # reciprocal, not its general power loop
    rng = np.random.default_rng(7)
    x = rng.uniform(0.1, 3.0, 6195) * rng.choice([-1.0, 1.0], 6195)
    pts = x[:, None]
    assert parse_expression("x1^2")(pts).tobytes() == (x * x).tobytes()
    assert parse_expression("x1^-1")(pts).tobytes() == (1 / x).tobytes()
    assert parse_expression("|x1|^0.5")(pts).tobytes() == np.sqrt(np.abs(x)).tobytes()
