"""Position-only potentials V(x1, x2).

Velocity dependence is ruled out by construction: the expression grammar
knows only the coordinate names, and the built-in kinds are functions of
position alone.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import Expression, kernel, partials


class Potential:
    """Scalar potential with value and gradient callables."""

    def __init__(self, kind: str, params: dict, value_fn, gradient_fn):
        self.kind = kind
        self.params = dict(params)
        self._value = value_fn
        self._gradient = gradient_fn

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self._value(x))

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.asarray(self._gradient(x), dtype=float)

    def __repr__(self) -> str:
        return f"Potential({self.kind}, {self.params})"


def none() -> Potential:
    return Potential("none", {}, lambda x: 0.0, lambda x: np.zeros(2))


def axis_cosine(c: float) -> Potential:
    """V = c * cos(x1); the uniform-gravity term of an axis-aligned setup."""

    def value(x):
        return c * math.cos(x[0])

    def gradient(x):
        return np.array([-c * math.sin(x[0]), 0.0])

    return Potential("axis_cosine", {"c": c}, value, gradient)


def from_expression(text: str) -> Potential:
    """Potential from an expression in x1, x2.

    The gradient is one kernel compiled from the expression's symbolic
    partials (see `expressions`), exact up to rounding.
    """
    expr = Expression(text)
    grad = kernel(partials([expr.tree], 1), f"gradient of {text!r}")

    def value(x):
        return expr(x[0], x[1])

    def gradient(x):
        return np.array(grad(*x.tolist()))

    return Potential("custom", {"expression": text}, value, gradient)
