"""Safe closed-form scalar expressions of the base coordinates.

Volume densities, conformal exponents, and volume-change functions are
entered as strings like ``"exp(x1) * (1 + 0.2*x2^2)"``.  They are parsed
once into a small AST-backed evaluator that accepts either floats or
jets for ``x1..xn``, so the same definition serves plain evaluation and
differentiation under the integral.
"""

from __future__ import annotations

import ast
import math
import sys

import numpy as np

from . import jets
from .errors import ConfigError

# each takes a jet or a float
_FUNCTIONS = {
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "sin": jets.sin,
    "cos": jets.cos,
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

# nodes from the root to a leaf: the parser's own nesting limit, well within
# the recursion limit of the walks below
MAX_DEPTH = 200

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


class ScalarField:
    """Closed-form function of x, callable on floats or jets."""

    def __init__(self, expr: str, nvars: int):
        self.expr = expr
        self.nvars = nvars
        try:
            tree = ast.parse(expr.replace("^", "**"), mode="eval")
        except SyntaxError as err:
            raise ConfigError(f"cannot parse expression {expr!r}: {err.msg}") from None
        except RecursionError:
            raise ConfigError(f"expression {expr!r} is nested too deeply to parse") from None
        self._tree = tree.body
        if _depth(self._tree) > MAX_DEPTH:
            raise ConfigError(f"expression {expr!r} is nested more than {MAX_DEPTH} levels deep")
        self._validate(self._tree)
        self._check_constants(self._tree)

    def __call__(self, xs):
        xs = list(xs)
        if len(xs) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(xs)}")
        return self._eval(self._tree, xs)

    def __repr__(self):
        return f"ScalarField({self.expr!r}, nvars={self.nvars})"

    def jet(self, x, degree: int) -> jets.Jet:
        """Jet of the field at x in the x-only ring of the given degree."""
        ring = jets.ring(self.nvars, degree)
        value = self([ring.seed(i, float(v)) for i, v in enumerate(x)])
        # a constant expression evaluates to a float
        return value if isinstance(value, jets.Jet) else ring.const(value)

    def _validate(self, node):
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"non-numeric literal {node.value!r}")
        elif isinstance(node, ast.Name):
            if node.id not in _CONSTANTS and self._slot(node.id) is None:
                raise ConfigError(
                    f"unknown name {node.id!r}; use x1..x{self.nvars}, pi, e"
                )
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, (*_BINOPS, ast.Pow)):
                raise ConfigError("unsupported operator")
            self._validate(node.left)
            self._validate(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            self._validate(node.operand)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
                raise ConfigError("only exp, log, sqrt, sin, cos calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ConfigError(f"{node.func.id} takes exactly one argument")
            self._validate(node.args[0])
        else:
            raise ConfigError(f"unsupported syntax in expression: {ast.dump(node)}")

    def _check_constants(self, node) -> bool:
        """Whether ``node`` reads a coordinate, refusing undefined constants on the way.

        Each sub-expression that reads none is evaluated here, once, and must
        have a finite real value: ``sqrt(-1)`` is a configuration error, not
        a failure at every point.
        """
        if isinstance(node, ast.Name):
            return node.id not in _CONSTANTS
        if isinstance(node, ast.Constant):
            return False
        children = node.args if isinstance(node, ast.Call) else [
            child for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr)]
        # a list, not a generator: every child is checked, also after one reads x
        if any([self._check_constants(child) for child in children]):
            return True
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                value = self._eval(node, [])
        except ArithmeticError:
            value = None
        if not isinstance(value, float) or not math.isfinite(value):
            raise ConfigError(f"in {self.expr!r}, {ast.unparse(node)} has no finite real value")
        return False

    def _slot(self, name: str):
        if name.startswith("x") and name[1:].isdigit():
            i = int(name[1:]) - 1
            if 0 <= i < self.nvars:
                return i
        return None

    def _eval(self, node, xs):
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in _CONSTANTS:
                return _CONSTANTS[node.id]
            return xs[self._slot(node.id)]
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, xs)
            right = self._eval(node.right, xs)
            if isinstance(node.op, ast.Pow):
                return self._pow(left, right)
            return _BINOPS[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, xs)
            return -operand if isinstance(node.op, ast.USub) else operand
        if isinstance(node, ast.Call):
            return _FUNCTIONS[node.func.id](self._eval(node.args[0], xs))
        raise AssertionError("unreachable: expression was validated")

    @staticmethod
    def _pow(base, exponent):
        if isinstance(exponent, jets.Jet):
            raise ConfigError("exponents must be constants")
        if isinstance(base, jets.Jet):
            return base ** (int(exponent) if float(exponent).is_integer() else exponent)
        return base**exponent


def _depth(tree: ast.expr) -> int:
    """Nodes on the longest path from ``tree`` to a leaf, counted level by level."""
    depth, level = 0, [tree]
    while level:
        depth, level = depth + 1, [child for node in level for child in
                                   ast.iter_child_nodes(node) if isinstance(child, ast.expr)]
    return depth


def finite_number(v) -> bool:
    """Whether ``v`` is an int or float, not a bool, with a finite float value."""
    # exact for an int of any size, and false for nan
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def as_field(spec, nvars: int) -> ScalarField | None:
    """Accept a ScalarField, an expression string, a finite number as its constant, or None."""
    if spec is None or isinstance(spec, ScalarField):
        return spec
    if isinstance(spec, str):
        return ScalarField(spec, nvars)
    if finite_number(spec):
        return ScalarField(repr(float(spec)), nvars)
    raise ConfigError(f"expected an expression string, got {type(spec).__name__}")
