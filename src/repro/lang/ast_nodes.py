"""AST node classes for the behavioral language.

All nodes are immutable dataclasses; statements carry their source line for
error reporting.  The AST is deliberately small: the language only needs to
express what the paper's benchmarks use (straight-line arithmetic, nested
conditionals, ``for``/``while`` loops).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Type:
    """A value type: signedness plus bit width (``bool`` is ``uint1``)."""

    width: int
    signed: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 32:
            raise ValueError(f"bit width must be in [1, 32], got {self.width}")

    @staticmethod
    def bool_type() -> "Type":
        return Type(1, signed=False)

    def __str__(self) -> str:
        if self.width == 1 and not self.signed:
            return "bool"
        return ("int" if self.signed else "uint") + str(self.width)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    line: int


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class VarRef(Expr):
    name: str


@dataclass(frozen=True)
class IndexExpr(Expr):
    """An indexed array read: ``name[index]``."""

    name: str
    index: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # one of the operators in lang/__init__ grammar
    left: Expr
    right: Expr


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Stmt:
    line: int


@dataclass(frozen=True)
class VarDecl(Stmt):
    name: str
    declared_type: Type | None
    init: Expr | None


@dataclass(frozen=True)
class ArrayDecl(Stmt):
    """A fixed-size array declaration: ``var name: elem_type[size];``.

    Arrays are process-level memory: every location powers on at zero and
    the contents persist across stimulus passes (they lower to RAMs, not
    registers).  ``size`` must be a power of two so index arithmetic wraps
    identically in every backend.
    """

    name: str
    elem_type: Type
    size: int


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    value: Expr


@dataclass(frozen=True)
class ArrayAssign(Stmt):
    """An indexed array write: ``name[index] = value;``."""

    name: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...]


@dataclass(frozen=True)
class For(Stmt):
    init: Assign
    cond: Expr
    update: Assign
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]


# --------------------------------------------------------------------------
# Top level
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    name: str
    type: Type


@dataclass(frozen=True)
class Process:
    """A behavioral process: named inputs, named outputs, and a body."""

    name: str
    inputs: tuple[Param, ...]
    outputs: tuple[Param, ...]
    body: tuple[Stmt, ...]
    line: int = 1

    def input_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.inputs)

    def output_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.outputs)


def walk_statements(body: tuple[Stmt, ...]):
    """Yield every statement in ``body``, recursing into compound bodies."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, For):
            yield stmt.init
            yield stmt.update
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def assigned_names(body: tuple[Stmt, ...]) -> set[str]:
    """Names assigned anywhere inside ``body`` (including loop iterators)."""
    names: set[str] = set()
    for stmt in walk_statements(body):
        if isinstance(stmt, (Assign, VarDecl)):
            names.add(stmt.name)
    return names


def used_names(expr: Expr) -> set[str]:
    """Variable names read by an expression (array reads count the array)."""
    if isinstance(expr, VarRef):
        return {expr.name}
    if isinstance(expr, IndexExpr):
        return {expr.name} | used_names(expr.index)
    if isinstance(expr, UnaryOp):
        return used_names(expr.operand)
    if isinstance(expr, BinaryOp):
        return used_names(expr.left) | used_names(expr.right)
    return set()


def exprs_of(stmt: Stmt):
    """Top-level expressions of one statement (non-recursive)."""
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, ArrayAssign):
        yield stmt.index
        yield stmt.value
    elif isinstance(stmt, Assign):
        yield stmt.value
    elif isinstance(stmt, (If, For, While)):
        yield stmt.cond
