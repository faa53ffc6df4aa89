"""Vectorized scalar/boolean expression trees.

sPaQL constraints have the general form ``SUM(f(R)) ⊙ v`` where ``f`` is
an arbitrary per-tuple function of the relation's attributes (Appendix A;
Section 2.3 notes that constraints may use ``g(t_i)`` for arbitrary real
valued ``g``).  ``WHERE`` clauses are boolean expressions over the same
attribute space.  This module defines the shared expression AST and a
vectorized evaluator: expressions evaluate to one numpy value per tuple,
given a *column resolver* — which is how stochastic attributes get
substituted with per-scenario realizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from ..errors import CompileError

#: A column resolver: attribute name -> per-tuple value vector.
ColumnResolver = Union[Mapping[str, np.ndarray], Callable[[str], np.ndarray]]


class Expr:
    """Base class for expression nodes.  Nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    # Frozen dataclasses with manual __slots__ don't pickle out of the
    # box (the default slot-state restore goes through the blocked
    # __setattr__), so spell the state protocol out.  The store's model
    # fingerprint and a VG's parameter fingerprint fall back to pickling
    # VG state (``service/store.py::model_fingerprint``,
    # ``mcdb/vg.py::_canonical_param``), which may hold expressions; an
    # unpicklable value there would silently become a per-instance
    # ``unpicklable-<uuid>`` fingerprint that no other model shares.
    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(self, slot):
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Attr(Expr):
    """Reference to a relation attribute by name."""

    name: str

    __slots__ = ("name",)


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (number or string)."""

    value: object

    __slots__ = ("value",)


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic binary operation: ``+ - * / ^``."""

    op: str
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary minus (and plus, normalized away by the parser)."""

    op: str
    operand: Expr

    __slots__ = ("op", "operand")


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison producing a boolean vector: ``<= < >= > = <>``."""

    op: str
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")


@dataclass(frozen=True)
class BoolOp(Expr):
    """Logical ``AND`` / ``OR`` over boolean subexpressions."""

    op: str
    left: Expr
    right: Expr

    __slots__ = ("op", "left", "right")


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr

    __slots__ = ("operand",)


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar function application (``abs``, ``sqrt``, ``exp``, ``ln``, ``log``)."""

    name: str
    args: tuple

    __slots__ = ("name", "args")


_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log": np.log10,
    "floor": np.floor,
    "ceil": np.ceil,
}

_ARITH = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

_COMPARE = {
    "<=": np.less_equal,
    "<": np.less,
    ">=": np.greater_equal,
    ">": np.greater,
    "=": np.equal,
    "<>": np.not_equal,
}


def _resolve(columns: ColumnResolver, name: str) -> np.ndarray:
    if callable(columns):
        return columns(name)
    try:
        return columns[name]
    except KeyError:
        raise CompileError(f"unknown attribute {name!r}") from None


def evaluate(expr: Expr, columns: ColumnResolver) -> np.ndarray:
    """Evaluate ``expr`` to a per-tuple vector.

    ``columns`` maps attribute names to equal-length numpy arrays; passing
    a callable lets callers lazily materialize columns (e.g. scenario
    realizations of stochastic attributes).
    """
    if isinstance(expr, Const):
        return np.asarray(expr.value)
    if isinstance(expr, Attr):
        return np.asarray(_resolve(columns, expr.name))
    if isinstance(expr, UnaryOp):
        val = evaluate(expr.operand, columns)
        if expr.op == "-":
            return np.negative(val)
        if expr.op == "+":
            return val
        raise CompileError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        func = _ARITH.get(expr.op)
        if func is None:
            raise CompileError(f"unknown arithmetic operator {expr.op!r}")
        return func(evaluate(expr.left, columns), evaluate(expr.right, columns))
    if isinstance(expr, Compare):
        func = _COMPARE.get(expr.op)
        if func is None:
            raise CompileError(f"unknown comparison operator {expr.op!r}")
        return func(evaluate(expr.left, columns), evaluate(expr.right, columns))
    if isinstance(expr, BoolOp):
        left = evaluate(expr.left, columns).astype(bool)
        right = evaluate(expr.right, columns).astype(bool)
        if expr.op == "AND":
            return np.logical_and(left, right)
        if expr.op == "OR":
            return np.logical_or(left, right)
        raise CompileError(f"unknown boolean operator {expr.op!r}")
    if isinstance(expr, Not):
        return np.logical_not(evaluate(expr.operand, columns).astype(bool))
    if isinstance(expr, FuncCall):
        func = _FUNCTIONS.get(expr.name.lower())
        if func is None:
            raise CompileError(f"unknown function {expr.name!r}")
        args = [evaluate(a, columns) for a in expr.args]
        return func(*args)
    raise CompileError(f"cannot evaluate expression node {type(expr).__name__}")


def attributes_of(expr: Expr) -> set[str]:
    """Collect the attribute names referenced by ``expr``."""
    out: set[str] = set()
    _collect(expr, out)
    return out


def _collect(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, Attr):
        out.add(expr.name)
    elif isinstance(expr, (BinOp, Compare, BoolOp)):
        _collect(expr.left, out)
        _collect(expr.right, out)
    elif isinstance(expr, (UnaryOp, Not)):
        _collect(expr.operand, out)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            _collect(arg, out)
    elif isinstance(expr, Const):
        pass
    else:
        raise CompileError(f"unknown expression node {type(expr).__name__}")


def affine_in(expr: Expr, names: set[str]) -> bool:
    """Structurally check that ``expr`` is affine in the attributes ``names``.

    Affinity lets expectation estimation use linearity (``E[aX+b] =
    aE[X]+b``) instead of Monte Carlo.  The test is conservative: it
    requires that attributes in ``names`` never appear inside nonlinear
    functions, denominators, exponents, or products with other members of
    ``names``.  Returns ``True`` for expressions not referencing ``names``
    at all (degree-zero affine).
    """
    return _affine_degree(expr, names) <= 1


def _affine_degree(expr: Expr, names: set[str]) -> int:
    """Degree in ``names``: 0 (constant), 1 (affine), or 2 (nonlinear)."""
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Attr):
        return 1 if expr.name in names else 0
    if isinstance(expr, UnaryOp):
        return _affine_degree(expr.operand, names)
    if isinstance(expr, BinOp):
        left = _affine_degree(expr.left, names)
        right = _affine_degree(expr.right, names)
        if expr.op in ("+", "-"):
            return max(left, right)
        if expr.op == "*":
            return 2 if (left and right) else max(left, right)
        if expr.op == "/":
            return 2 if right else left
        if expr.op == "^":
            return 2 if (left or right) else 0
        return 2
    if isinstance(expr, FuncCall):
        degrees = [_affine_degree(a, names) for a in expr.args]
        if expr.name.lower() == "abs" and max(degrees, default=0) == 0:
            return 0
        return 2 if any(degrees) else 0
    if isinstance(expr, (Compare, BoolOp, Not)):
        inner: set[str] = set()
        _collect(expr, inner)
        return 2 if inner & names else 0
    raise CompileError(f"unknown expression node {type(expr).__name__}")


def render(expr: Expr) -> str:
    """Render an expression back to sPaQL-compatible text."""
    if isinstance(expr, Const):
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return repr(expr.value) if isinstance(expr.value, float) else str(expr.value)
    if isinstance(expr, Attr):
        return expr.name
    if isinstance(expr, UnaryOp):
        return f"{expr.op}{_paren(expr.operand)}"
    if isinstance(expr, BinOp):
        return f"{_paren(expr.left)} {expr.op} {_paren(expr.right)}"
    if isinstance(expr, Compare):
        return f"{render(expr.left)} {expr.op} {render(expr.right)}"
    if isinstance(expr, BoolOp):
        return f"({render(expr.left)}) {expr.op} ({render(expr.right)})"
    if isinstance(expr, Not):
        return f"NOT ({render(expr.operand)})"
    if isinstance(expr, FuncCall):
        args = ", ".join(render(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise CompileError(f"cannot render expression node {type(expr).__name__}")


def _paren(expr: Expr) -> str:
    text = render(expr)
    # UnaryOp must parenthesize too: "-x ^ 2" parses as "-(x ^ 2)" (the
    # exponent binds tighter than unary minus) and "--x" does not parse
    # at all, so "(-x) ^ 2" / "-(-x)" are the round-trippable forms.
    if isinstance(expr, (BinOp, BoolOp, Compare, UnaryOp)):
        return f"({text})"
    return text


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression from text.

    Delegates to the sPaQL parser (the grammar's ``LinearFunction`` /
    predicate sub-language); imported lazily to avoid a circular import.
    """
    from ..spaql.parser import parse_standalone_expression

    return parse_standalone_expression(text)
