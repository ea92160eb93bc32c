"""Tiny arithmetic grammar for nodal fields over (x, y).

Supported: +, -, *, /, unary minus, parentheses, numeric literals, the
names x and y, and the functions sin, cos, exp. Evaluation is vectorized
over coordinate arrays. Parsing goes through the Python ast with a strict
whitelist, so arbitrary code never runs.
"""

from __future__ import annotations

import ast
import operator
import reprlib

import numpy as np

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


class ExpressionError(ValueError):
    pass


def _evaluate(node, env):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            try:
                return float(node.value)
            except OverflowError:
                raise ExpressionError(
                    f"literal {reprlib.repr(node.value)} is beyond the "
                    f"float range") from None
        raise ExpressionError(f"literal {node.value!r} is not a number")
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise ExpressionError(f"unknown name {node.id!r}; only x and y "
                              "are available")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left = _evaluate(node.left, env)
        right = _evaluate(node.right, env)
        if isinstance(node.op, ast.Div) and np.any(np.asarray(right) == 0.0):
            raise ExpressionError("division by zero")
        return _BINOPS[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.UAdd, ast.USub)):
        value = _evaluate(node.operand, env)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) \
                or node.func.id not in _FUNCTIONS \
                or node.keywords or len(node.args) != 1:
            raise ExpressionError("only sin(_), cos(_), exp(_) may be called")
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], env))
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")


def evaluate_field(expr: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate an expression at coordinate arrays; always returns an array
    shaped like x (constants are broadcast). A division by zero, a value
    that is not finite (an overflow), an integer literal beyond the float
    range or nesting deeper than the parser or evaluator can recurse
    raises ExpressionError."""
    expr = expr.replace("·", "*").replace("−", "-")
    try:
        tree = ast.parse(expr, mode="eval")
        with np.errstate(over="ignore", invalid="ignore"):
            value = _evaluate(tree, {"x": np.asarray(x, dtype=float),
                                     "y": np.asarray(y, dtype=float)})
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {expr!r}: {exc.msg}") from None
    except RecursionError:
        raise ExpressionError(f"{reprlib.repr(expr)} is nested too deeply") \
            from None
    if not np.all(np.isfinite(value)):
        raise ExpressionError(f"{expr!r} is not finite at every point")
    return np.broadcast_to(np.asarray(value, dtype=float), np.shape(x)).copy()
