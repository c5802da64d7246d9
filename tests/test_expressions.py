from pathlib import Path

import numpy as np
import pytest

from steepen.expressions import ExpressionError, parse_expression


def test_literal_constant():
    one = parse_expression("1")
    assert one(0.0) == 1.0
    assert np.array_equal(one(np.array([0.0, 2.0, -3.0])), np.ones(3))


def test_example_profile_matches_reference():
    # the one-sided entropy profile family at gamma = 3: (e^-x + 1)^-4
    expr = parse_expression("(exp(-x)+1)^(-4)")
    x = np.linspace(-2.0, 6.0, 41)
    assert np.allclose(expr(x), (np.exp(-x) + 1.0) ** -4, rtol=1e-14)


def test_syntax_error_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(+)")
    assert err.value.position == 4


def test_unknown_identifier_and_function():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(t)")
    assert err.value.position == 4
    with pytest.raises(ExpressionError):
        parse_expression("spam(x)")


def test_trailing_input_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("1 2")


def test_precedence_and_unary_minus():
    assert parse_expression("2+3*4")(0.0) == 14.0
    assert parse_expression("2*3^2")(0.0) == 18.0
    assert parse_expression("-x^2")(3.0) == -9.0  # minus binds after the power
    assert parse_expression("2^-2")(0.0) == 0.25
    assert parse_expression("2^3^2")(0.0) == 512.0  # right associative


def test_exponent_must_be_numeric():
    with pytest.raises(ExpressionError):
        parse_expression("x^x")
    assert parse_expression("(x+1)^(2*3)")(1.0) == 64.0


def test_builtin_pi_and_user_constants():
    assert parse_expression("sin(pi)")(0.0) == pytest.approx(0.0, abs=1e-15)
    expr = parse_expression("a*x + b", constants={"a": 2.0, "b": -1.0})
    assert expr(3.0) == 5.0
    with pytest.raises(ExpressionError):
        parse_expression("x", constants={"x": 1.0})
    with pytest.raises(ExpressionError):
        parse_expression("x", constants={"sin": 1.0})


def test_division_and_scientific_notation():
    assert parse_expression("1/4 + 2.5e-1")(0.0) == 0.5


ZOO = [
    "x",
    "3.5",
    "x^2 - 2*x + 1",
    "sin(2*pi*x)",
    "cos(x)^3",
    "tanh(2*sin(x))",
    "sqrt(x^2 + 1)",
    "exp(-x^2)",
    "(exp(-x)+1)^(-4)",
    "1/(1 + x^2)",
    "-x*exp(-(x - 0.5)^2)",
    "(1 + 0.05*(1 + cos(2*pi*x/40)))^(-4)",
]


@pytest.mark.parametrize("text", ZOO)
def test_derivative_matches_finite_difference(text):
    expr = parse_expression(text)
    deriv = expr.derivative()
    for x in (-1.3, -0.2, 0.4, 1.7):
        step = 1e-6 * max(1.0, abs(x))
        fd = (expr(x + step) - expr(x - step)) / (2.0 * step)
        assert deriv(x) == pytest.approx(fd, rel=2e-8, abs=2e-8)


@pytest.mark.parametrize("text", ZOO)
def test_second_derivative_matches_finite_difference(text):
    expr = parse_expression(text)
    d2 = expr.derivative(2)
    for x in (-0.7, 0.3, 1.1):
        step = 2e-5 * max(1.0, abs(x))
        fd = (expr(x + step) - 2.0 * expr(x) + expr(x - step)) / step**2
        assert d2(x) == pytest.approx(fd, rel=5e-5, abs=5e-5)


def test_evaluation_is_pure_and_vectorized():
    expr = parse_expression("tanh(x)*x - 0.25")
    xs = np.linspace(-2, 2, 17)
    vec = expr(xs)
    scal = np.array([expr(float(x)) for x in xs])
    assert np.array_equal(vec, scal)
    assert np.array_equal(vec, expr(xs))  # deterministic


@pytest.mark.parametrize("text, f", [
    ("x", lambda x: x),
    ("2*x", lambda x: 2.0 * x),
    ("1", lambda x: np.ones_like(x)),
    ("sin(x)", np.sin),
])
@pytest.mark.parametrize("x", [np.array(0.3), np.array([0.3]), np.linspace(-1.0, 1.0, 7)])
def test_call_returns_a_fresh_float_array_of_the_input_shape(text, f, x):
    out = parse_expression(text)(x)
    assert np.array_equal(out, f(x))
    if x.ndim == 0:
        assert type(out) is float
    else:
        assert out.shape == x.shape and out.dtype == np.float64
        assert out.flags.writeable
    assert not np.shares_memory(out, x)


def test_constant_division_folds():
    assert parse_expression("1/4") == parse_expression("0.25")
    assert parse_expression("x^(1/3)")(8.0) == pytest.approx(2.0, rel=1e-15)
    assert parse_expression("x^(g/2)", {"g": 3.0})(4.0) == pytest.approx(8.0, rel=1e-15)
    # the one-sided family with its exponent written in the grammar
    g = 1.4
    family = parse_expression("(exp(-x)+1)^(-(3*g-1)/2)", {"g": g})
    x = np.linspace(-2.0, 6.0, 9)
    assert np.array_equal(family(x), (np.exp(-x) + 1.0) ** (-(3 * g - 1) / 2))


#: the expressions README.md shows, and ``x^x``, which it shows failing
README_EXAMPLES = [
    "(x+1)^(2*3)",
    "(exp(-x)+1)^(-(3*g-1)/2)",
    "1 + 0.3*tanh(1.5*sin(2*pi*(x - 10)/20))",
    "(1 + 0.05*(1 + cos(2*pi*x/40)))^(-4)",
]


def test_readme_grammar_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in README_EXAMPLES + ["x^x"]:
        assert f"`{text}`" in readme, text
    for text in README_EXAMPLES:
        expr = parse_expression(text, {"g": 5.0 / 3.0})
        assert np.all(np.isfinite(expr.derivative(2)(np.linspace(0.0, 20.0, 41)))), text
    with pytest.raises(ExpressionError, match="exponent must fold"):
        parse_expression("x^x")


@pytest.mark.parametrize("text, offset", [
    ("0^-1", 1),
    ("(0-8)^0.5", 5),
    ("sqrt(-1)", 0),
    ("1e999", 0),
    ("x + 2*1e999", 6),
    ("0/0", 1),
    ("x + 1e308*10", 9),
    ("exp(1000) - x", 0),
])
def test_non_finite_constant_is_an_error_at_its_offset(text, offset):
    with pytest.raises(ExpressionError, match="not finite") as err:
        parse_expression(text)
    assert err.value.position == offset


def test_non_finite_named_constant_is_an_error():
    with pytest.raises(ExpressionError, match="'a' gives a constant that is not finite"):
        parse_expression("x*a", {"a": float("inf")})


@pytest.mark.parametrize("text, offset", [("é", 0), ("x + été", 4), ("2*x²", 3)])
def test_non_ascii_character_is_an_error_at_its_offset(text, offset):
    with pytest.raises(ExpressionError, match="unexpected character") as err:
        parse_expression(text)
    assert err.value.position == offset
