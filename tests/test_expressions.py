import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrosurf.errors import ExpressionError
from gyrosurf.expressions import MAX_DEPTH, Expression, kernel, parse, partials


def test_literals_and_variables():
    assert Expression("3")(0.0, 0.0) == 3.0
    assert Expression("x1")(2.5, -1.0) == 2.5
    assert Expression("x2")(2.5, -1.0) == -1.0
    assert Expression("2.5e-3")(0.0, 0.0) == 2.5e-3


def test_precedence():
    assert Expression("1 + 2 * 3")(0, 0) == 7.0
    assert Expression("(1 + 2) * 3")(0, 0) == 9.0
    assert Expression("2 * x1 + 3 * x2")(2.0, 1.0) == 7.0
    assert Expression("-x1^2")(3.0, 0.0) == -9.0  # unary binds looser than ^


def test_power_right_associative():
    assert Expression("2^3^2")(0, 0) == 512.0
    assert Expression("(2^3)^2")(0, 0) == 64.0


def test_functions():
    assert abs(Expression("sin(x1)")(0.3, 0) - math.sin(0.3)) < 1e-15
    assert abs(Expression("cos(x1)^2 + sin(x1)^2")(1.234, 0) - 1.0) < 1e-15
    assert abs(Expression("exp(x2)")(0, 0.5) - math.exp(0.5)) < 1e-15
    assert abs(Expression("sqrt(x1)")(2.0, 0) - math.sqrt(2.0)) < 1e-15


def test_division_and_unary():
    assert Expression("1 / 4")(0, 0) == 0.25
    assert Expression("2 - -3")(0, 0) == 5.0
    assert Expression("6 / 2 / 3")(0, 0) == 1.0  # left associative


def test_matches_reference_on_random_points():
    rng = np.random.default_rng(42)
    expr = Expression("1 + 0.5 * sin(x1) * cos(2 * x2) + x1^2 / 4")
    for _ in range(200):
        x1, x2 = rng.uniform(-3.0, 3.0, 2)
        want = 1.0 + 0.5 * math.sin(x1) * math.cos(2 * x2) + x1**2 / 4.0
        assert abs(expr(x1, x2) - want) < 1e-14


@pytest.mark.parametrize("bad", [
    "", "  ", "1 +", "(1 + 2", "1 + 2)", "sin", "sin()", "foo(1)",
    "x3", "1 ** 2", "2 @ 3", "1..2",
])
def test_malformed_expressions_rejected(bad):
    with pytest.raises(ExpressionError):
        Expression(bad)


def test_evaluation_errors_are_wrapped():
    with pytest.raises(ExpressionError):
        Expression("1 / x1")(0.0, 0.0)
    with pytest.raises(ExpressionError):
        Expression("sqrt(x1)")(-1.0, 0.0)


def test_power_of_negative_base():
    assert Expression("x1^3")(-2.0, 0.0) == -8.0
    with pytest.raises(ExpressionError):
        Expression("x1^0.5")(-1.0, 0.0)
    with pytest.raises(ExpressionError):
        Expression("x1^x2")(-1.0, 0.5)


def test_value_is_the_tree_as_written():
    # derivative trees drop factors of 0; values never do
    assert math.isnan(Expression("0 * x1")(math.inf, 0.0))
    assert math.isnan(Expression("x1 - x1")(math.inf, 0.0))


def test_derivative_kernel_errors_are_wrapped():
    grad = kernel(partials([Expression("sqrt(x1)").tree], 1), "'sqrt(x1)'")
    assert grad(4.0, 0.0) == (0.25, 0.0)
    with pytest.raises(ExpressionError):
        grad(0.0, 0.0)


# Every grammar node, ^ with a constant and a non-constant exponent, each
# with its first and second partials (d1, d2) and (d11, d12, d22) written
# out by hand.
PARTIALS_BY_HAND = [
    ("+x1 * x2 - 3",
     lambda a, b: (b, a),
     lambda a, b: (0.0, 1.0, 0.0)),
    ("x1 / x2 + -x2",
     lambda a, b: (1 / b, -a / b**2 - 1),
     lambda a, b: (0.0, -1 / b**2, 2 * a / b**3)),
    ("sin(x1) * cos(x2)",
     lambda a, b: (math.cos(a) * math.cos(b), -math.sin(a) * math.sin(b)),
     lambda a, b: (-math.sin(a) * math.cos(b), -math.cos(a) * math.sin(b),
                   -math.sin(a) * math.cos(b))),
    ("exp(x1 * x2)",
     lambda a, b: (b * math.exp(a * b), a * math.exp(a * b)),
     lambda a, b: (b * b * math.exp(a * b), (1 + a * b) * math.exp(a * b),
                   a * a * math.exp(a * b))),
    ("sqrt(x1^2 + x2^2)",
     lambda a, b: (a / math.hypot(a, b), b / math.hypot(a, b)),
     lambda a, b: (b * b / math.hypot(a, b)**3, -a * b / math.hypot(a, b)**3,
                   a * a / math.hypot(a, b)**3)),
    ("x1^x2",
     lambda a, b: (b * a**(b - 1), a**b * math.log(a)),
     lambda a, b: (b * (b - 1) * a**(b - 2), a**(b - 1) * (1 + b * math.log(a)),
                   a**b * math.log(a)**2)),
    ("2^x1 - x2^-1.5",
     lambda a, b: (2**a * math.log(2), 1.5 * b**-2.5),
     lambda a, b: (2**a * math.log(2)**2, 0.0, -3.75 * b**-3.5)),
]


@pytest.mark.parametrize("text,first,second", PARTIALS_BY_HAND,
                         ids=[case[0] for case in PARTIALS_BY_HAND])
@settings(max_examples=40, deadline=None)
@given(x1=st.floats(0.5, 2.0), x2=st.floats(0.5, 2.0))
def test_kernel_partials_match_closed_forms(text, first, second, x1, x2):
    tree = Expression(text).tree
    d1 = kernel(partials([tree], 1), text)(x1, x2)
    d11, d12, d21, d22 = kernel(partials([tree], 2), text)(x1, x2)
    assert d12 == d21
    for got, want in zip(d1 + (d11, d12, d22),
                         first(x1, x2) + second(x1, x2)):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


# Shapes that once overflowed the recursion limit: (name, text of size n,
# largest n within MAX_DEPTH).  Parentheses nest only in the parser; the
# others nest in the tree as well.
DEEP_SHAPES = [
    ("parentheses", lambda n: "(" * n + "x1" + ")" * n, MAX_DEPTH - 1),
    ("sin", lambda n: "sin(" * n + "x1" + ")" * n, MAX_DEPTH - 1),
    ("power_chain", lambda n: "^".join(["x1"] * n), MAX_DEPTH),
    ("sum_of_products", lambda n: " + ".join(["x1 * x2"] * n), MAX_DEPTH - 1),
    ("sum", lambda n: " + ".join(["x1"] * n), MAX_DEPTH),
]


@pytest.mark.parametrize("shape,n_cap", [s[1:] for s in DEEP_SHAPES],
                         ids=[s[0] for s in DEEP_SHAPES])
def test_nesting_capped_at_max_depth(shape, n_cap):
    tree = parse(shape(n_cap))
    for order in range(4):
        values = kernel(partials([tree], order), "deep")(1.1, 0.9)
        assert all(math.isfinite(v) for v in values)
    with pytest.raises(ExpressionError, match="nests deeper"):
        parse(shape(n_cap + 1))
