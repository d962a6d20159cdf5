"""Arithmetic expressions in the chart coordinates x1, x2, compiled to kernels.

The accepted grammar is deliberately small: floating literals, the two
coordinate names, binary + - * / ^, unary minus, parentheses, and the
functions sin, cos, exp, sqrt.  `^` is right-associative and binds tighter
than unary minus applied to its base (so `-x1^2` is `-(x1^2)`).

An expression parses to a tree of tuples: ("num", value), ("var", name),
("neg", a), (op, a, b) for the binary operators and (func, a) for the
functions.  `derivative` differentiates a tree symbolically; derivative
trees fold constant subtrees and drop terms of 0 and factors of 1, while
the tree as written is never rewritten.  `kernel` emits one straight-line
Python function for a list of trees through generated source and
`compile`, computing each distinct subtree once into a local.  So a value
is the same float that evaluating the text left to right gives, and a
partial derivative is exact up to rounding.

`^` runs as math.pow, which raises where a negative base would give a
complex number.  A non-constant exponent differentiates through log, a
kernel function the grammar does not offer.  A kernel raises
ExpressionError on the ValueError, OverflowError or ZeroDivisionError of
any step.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

from .errors import ExpressionError

_FUNCTIONS = ("sin", "cos", "exp", "sqrt")
_BINARY = ("+", "-", "*", "/")

# what a kernel's source may name besides x1 and x2; log appears only in
# the derivatives of ^ with a non-constant exponent
_NAMESPACE = {
    name: getattr(math, name)
    for name in _FUNCTIONS + ("log", "pow", "inf", "nan")
}

# the kernel's operations, for constant folding
_APPLY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
    "neg": operator.neg,
    **{name: _NAMESPACE[name] for name in _FUNCTIONS + ("log",)},
}

_ARITH_ERRORS = (ValueError, OverflowError, ZeroDivisionError)

# deepest nesting `parse` accepts, in the parser and in the tree; every
# stage after it (derivatives, code generation) recurses over the tree
MAX_DEPTH = 64

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected character {rest[0]!r} in {text!r}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    tokens.append(("end", ""))
    return tokens


class _Parser:
    """Recursive descent over the token list; produces the expression tree."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}, got {val!r}")

    def parse(self) -> tuple:
        tree = self.sum_()
        kind, val = self.peek()
        if kind != "end":
            raise ExpressionError(f"trailing input {val!r} in {self.text!r}")
        return tree

    def sum_(self) -> tuple:
        tree = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                tree = (val, tree, self.term())
            else:
                return tree

    def term(self) -> tuple:
        tree = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                tree = (val, tree, self.unary())
            else:
                return tree

    def unary(self) -> tuple:
        # every recursion (parentheses, functions, signs, exponents) passes
        # through here, so this counts the nesting
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.text)
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.unary()
            tree = ("neg", inner) if val == "-" else inner
        else:
            tree = self.power()
        self.depth -= 1
        return tree

    def power(self) -> tuple:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            # right-associative; exponent may carry its own unary sign
            return ("^", base, self.unary())
        return base

    def atom(self) -> tuple:
        kind, val = self.take()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            if val in ("x1", "x2"):
                return ("var", val)
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.sum_()
                self.expect_op(")")
                return (val, arg)
            raise ExpressionError(f"unknown name {val!r} in {self.text!r}")
        if kind == "op" and val == "(":
            inner = self.sum_()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected token {val!r} in {self.text!r}")


# -- symbolic derivatives ----------------------------------------------------

ZERO = ("num", 0.0)
ONE = ("num", 1.0)
_TWO = ("num", 2.0)


def _num(value: float) -> tuple:
    return ZERO if value == 0.0 else ("num", value)


def _make(op: str, *args: tuple) -> tuple:
    """Node of a derivative tree: constants folded, 0 and 1 pruned."""
    if all(a[0] == "num" for a in args):
        try:
            return _num(_APPLY[op](*(a[1] for a in args)))
        except _ARITH_ERRORS:
            return (op, *args)  # fails at run time, as the written tree would
    a = args[0]
    if op == "neg":
        return a[1] if a[0] == "neg" else (op, a)
    b = args[-1]
    if op == "+":
        if a == ZERO:
            return b
        if b == ZERO:
            return a
    elif op == "-":
        if b == ZERO:
            return a
        if a == ZERO:
            return _make("neg", b)
    elif op == "*":
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE:
            return b
        if b == ONE:
            return a
    elif op == "/":
        if a == ZERO:
            return ZERO
        if b == ONE:
            return a
    elif op == "^":
        if b == ONE:
            return a
        if b == ZERO:
            return ONE
    return (op, *args)


def _fold(tree: tuple) -> tuple:
    """The tree rebuilt through `_make`; a constant subtree becomes a number."""
    if tree[0] in ("num", "var"):
        return tree
    return _make(tree[0], *(_fold(a) for a in tree[1:]))


def derivative(tree: tuple, var: str, memo: dict | None = None) -> tuple:
    """Tree of d tree / d var, for var "x1" or "x2".

    `memo` maps (id(subtree), var) to (subtree, derivative); holding the
    subtree keeps its id from being reused, so a shared subtree is
    differentiated once per memo.
    """
    memo = {} if memo is None else memo
    key = (id(tree), var)
    if key not in memo:
        memo[key] = (tree, _derivative(tree, var, memo))
    return memo[key][1]


def _derivative(tree: tuple, var: str, memo: dict) -> tuple:
    op = tree[0]
    if op == "num":
        return ZERO
    if op == "var":
        return ONE if tree[1] == var else ZERO
    a = tree[1]
    da = derivative(a, var, memo)
    if op == "neg":
        return _make("neg", da)
    if op == "sin":
        return _make("*", _make("cos", a), da)
    if op == "cos":
        return _make("neg", _make("*", _make("sin", a), da))
    if op == "exp":
        return _make("*", tree, da)
    if op == "sqrt":
        return _make("/", da, _make("*", _TWO, tree))
    if op == "log":
        return _make("/", da, a)
    b = tree[2]
    db = derivative(b, var, memo)
    if op in ("+", "-"):
        return _make(op, da, db)
    if op == "*":
        return _make("+", _make("*", da, b), _make("*", a, db))
    if op == "/":
        # (a' - (a/b) b') / b reuses the quotient the value computes
        return _make("/", _make("-", da, _make("*", tree, db)), b)
    # only a constant exponent has derivative 0; fold just those
    exponent = _fold(b) if db == ZERO else b
    if exponent[0] == "num":
        c = exponent
        return _make("*", _make("*", c, _make("^", a, _num(c[1] - 1.0))), da)
    # d(a^b) = a^b (b' log a + b a' / a)
    return _make("*", tree, _make("+", _make("*", db, _make("log", a)),
                                  _make("/", _make("*", b, da), a)))


def partials(trees: list[tuple], order: int) -> list[tuple]:
    """All partials of one order, derivative index major.

    Order 1 is [d/dx1 of each tree] then [d/dx2 of each]; order 2 is the
    blocks (1, 1), (1, 2), (2, 1), (2, 2), and so on.  A mixed partial is
    one tree for every ordering of its indices, taken along x1 first.
    Reshaped to (2,) * order + (len(trees),) this is the layout
    d[k, l, ...] = d^order / dx_k dx_l ....
    """
    memo: dict = {}
    # blocks[idx]: the partials along the sorted multi-index idx
    blocks = {(): list(trees)}
    for n in range(1, order + 1):
        for idx in itertools.combinations_with_replacement((0, 1), n):
            var = ("x1", "x2")[idx[-1]]
            blocks[idx] = [derivative(t, var, memo) for t in blocks[idx[:-1]]]
    return [t for idx in itertools.product((0, 1), repeat=order)
            for t in blocks[tuple(sorted(idx))]]


# -- code generation ---------------------------------------------------------


def _const_source(value: float) -> str:
    text = repr(value)
    return f"({text})" if value < 0.0 else text


def _kernel_source(trees: list[tuple]) -> str:
    """Source of `def kernel(x1, x2)` returning the tuple of tree values.

    Every distinct compound subtree is one local, assigned in evaluation
    order, so the function body is straight-line code.
    """
    # a subtree is keyed by its operator and its operands' sources, so a
    # lookup never hashes a whole tree; `seen` skips subtree objects that
    # derivative trees share
    names: dict[tuple, str] = {}
    seen: dict[int, str] = {}
    lines = []

    def emit(tree: tuple) -> str:
        op = tree[0]
        if op == "num":
            return _const_source(tree[1])
        if op == "var":
            return tree[1]
        name = seen.get(id(tree))
        if name is not None:
            return name
        args = [emit(a) for a in tree[1:]]
        key = (op, *args)
        name = names.get(key)
        if name is None:
            if op == "neg":
                src = f"-{args[0]}"
            elif op in _BINARY:
                src = f"{args[0]} {op} {args[1]}"
            elif op == "^":
                src = f"pow({args[0]}, {args[1]})"
            else:
                src = f"{op}({args[0]})"
            name = names[key] = f"t{len(names)}"
            lines.append(f"        {name} = {src}")
        seen[id(tree)] = name
        return name

    outputs = [emit(t) for t in trees]
    return "\n".join([
        "def kernel(x1, x2):",
        "    try:",
        *lines,
        f"        return ({''.join(o + ', ' for o in outputs)})",
        "    except _ARITH_ERRORS as exc:",
        "        raise _failure(exc, x1, x2) from exc",
    ])


def kernel(trees: list[tuple], label: str):
    """Compile `trees` to one function (x1, x2) -> tuple of floats.

    Arguments must be Python floats.  `label` names the expressions in the
    ExpressionError a failing step raises.
    """

    def failure(exc, x1, x2):
        return ExpressionError(
            f"evaluation of {label} failed at ({x1}, {x2}): {exc}"
        )

    namespace = dict(_NAMESPACE, _ARITH_ERRORS=_ARITH_ERRORS, _failure=failure)
    exec(compile(_kernel_source(trees), f"<kernel {label}>", "exec"), namespace)
    return namespace["kernel"]


def _too_deep(text: str) -> ExpressionError:
    shown = text if len(text) <= 40 else text[:40] + "..."
    return ExpressionError(
        f"expression {shown!r} nests deeper than {MAX_DEPTH} levels")


def _depth(tree: tuple) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest, stack = 0, [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((a, depth + 1) for a in node[1:] if isinstance(a, tuple))
    return deepest


def parse(text: str) -> tuple:
    """The tree of an expression string.

    Raises ExpressionError if the text is malformed or nests deeper than
    MAX_DEPTH levels, in parentheses or in its tree (a long sum is a deep
    tree).
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    tree = _Parser(text).parse()
    if _depth(tree) > MAX_DEPTH:
        raise _too_deep(text)
    return tree


class Expression:
    """A parsed expression of (x1, x2) with its compiled value kernel."""

    def __init__(self, text: str):
        self.tree = parse(text)
        self.text = text
        self._fn = kernel([self.tree], repr(text))

    def __call__(self, x1: float, x2: float) -> float:
        return self._fn(float(x1), float(x2))[0]

    def __repr__(self) -> str:
        return f"Expression({self.text!r})"
