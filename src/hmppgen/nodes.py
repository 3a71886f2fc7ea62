"""AST for the supported C subset.

Statements carry the pragmas that precede them; a Block additionally
keeps trailing accelerator pragmas so transfer directives can land after
its last statement.

The expression fields of each node kind are listed once, in textual
order: `walk_exprs` and `replace_exprs` read the expressions' list, and
`stmt_exprs` and `rewrite_stmt_exprs` the statements' (a declaration's
are each declarator's dims, then its initializer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# expressions


class Expr:
    pass


@dataclass
class Num(Expr):
    lexeme: str  # original spelling, e.g. "0.0", "99"


@dataclass
class Str(Expr):
    lexeme: str  # includes quotes


@dataclass
class Name(Expr):
    ident: str


@dataclass
class Paren(Expr):
    inner: Expr


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    func: str
    args: list[Expr]


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Unary(Expr):
    op: str  # - ! * & ++ --
    operand: Expr
    prefix: bool = True


@dataclass
class Assign(Expr):
    op: str  # = += -= *= /= %=
    target: Expr
    value: Expr


# ---------------------------------------------------------------------------
# statements


class Stmt:
    pragmas: list
    line: int


@dataclass
class VarDecl:
    name: str
    elem_type: str  # int | float | double
    dims: list[Expr] = field(default_factory=list)  # [] scalar, [n] array, [r, c] matrix
    init: Optional[Expr] = None
    pointer: bool = False
    reference: bool = False  # C++-style `int &a`, parameters only


@dataclass
class DeclStmt(Stmt):
    decls: list[VarDecl]
    elem_type: str = "int"
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)
    trailing_pragmas: list = field(default_factory=list)
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class For(Stmt):
    init: Union[Expr, DeclStmt, None]
    cond: Optional[Expr]
    update: Optional[Expr]
    body: Stmt = None
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    orelse: Optional[Stmt] = None
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class CallsiteStmt(Stmt):
    """Invocation of an outlined accelerator function (emitted form only)."""

    label: str = ""
    args: list[Expr] = field(default_factory=list)
    pragmas: list = field(default_factory=list)
    line: int = 0


# ---------------------------------------------------------------------------
# top level


@dataclass
class Param:
    name: str
    elem_type: str
    dims: list[Expr] = field(default_factory=list)
    pointer: bool = False
    reference: bool = False
    io: Optional[str] = "in"  # in | out | inout | by-value-scalar | None
    size_expr: Optional[Expr] = None  # product of declared dims for pointer params
    reduced: bool = False  # pointer standing in for a reduction scalar

    @property
    def is_array(self) -> bool:
        return bool(self.dims) or (self.pointer and not self.reduced)


@dataclass
class FunctionDef:
    name: str
    return_type: str
    params: list[Param]
    body: Block
    pragmas: list = field(default_factory=list)
    line: int = 0


@dataclass
class ProtoDecl:
    """Function prototype kept as raw text (e.g. `int printf(const char *, ...)`)."""

    name: str
    return_type: str
    raw_params: str
    pointer_result: bool = False
    line: int = 0


@dataclass
class GlobalDecl:
    decl_stmt: DeclStmt


@dataclass(eq=False)
class Symbol:
    """One declaration.  Symbols compare and hash by identity, so two
    declarations sharing a name are two keys."""

    name: str
    elem_type: str
    dims: tuple = ()  # dim expressions; () scalar, 1 entry array, 2 entries matrix
    storage: str = "local"  # global | parameter | local
    pointer: bool = False
    reference: bool = False
    decl: object = None  # DeclStmt / Param / GlobalDecl that introduced it

    @property
    def shape(self) -> str:
        if self.pointer:
            return "pointer"
        if len(self.dims) == 0:
            return "scalar"
        if len(self.dims) == 1:
            return "array"
        return "matrix"

    @property
    def is_array(self) -> bool:
        return self.shape in ("array", "matrix")


@dataclass
class SourceUnit:
    filename: str = "<input>"
    items: list = field(default_factory=list)  # GlobalDecl | ProtoDecl | FunctionDef
    source_text: str = ""

    @property
    def functions(self) -> list[FunctionDef]:
        return [x for x in self.items if isinstance(x, FunctionDef)]

    @property
    def globals(self) -> list[GlobalDecl]:
        return [x for x in self.items if isinstance(x, GlobalDecl)]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# traversal helpers


def child_stmts(stmt: Stmt) -> list[Stmt]:
    if isinstance(stmt, Block):
        return list(stmt.stmts)
    if isinstance(stmt, For):
        out = [stmt.init] if isinstance(stmt.init, DeclStmt) else []
        return out + [stmt.body]
    if isinstance(stmt, While):
        return [stmt.body]
    if isinstance(stmt, If):
        return [stmt.then] + ([stmt.orelse] if stmt.orelse is not None else [])
    return []


def walk_stmts(stmt: Stmt) -> Iterator[Stmt]:
    """Pre-order walk of a statement subtree."""
    yield stmt
    for c in child_stmts(stmt):
        yield from walk_stmts(c)


# the sub-expression fields of each compound expression, in textual order
# (a Call's sub-expressions are its argument list)
_EXPR_FIELDS = {Paren: ("inner",), Index: ("base", "index"),
                BinOp: ("left", "right"), Unary: ("operand",),
                Assign: ("target", "value")}


def walk_exprs(node) -> Iterator[Expr]:
    if isinstance(node, Expr):
        yield node
        for name in _EXPR_FIELDS.get(type(node), ()):
            yield from walk_exprs(getattr(node, name))
        if isinstance(node, Call):
            for a in node.args:
                yield from walk_exprs(a)


def replace_exprs(e: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Pre-order rewrite: a node that `fn` maps to a new expression is
    replaced whole; any other node (`fn` returns None) keeps its identity
    and has its children rewritten.  Returns the rewritten root."""
    new = fn(e)
    if new is not None:
        return new
    for name in _EXPR_FIELDS.get(type(e), ()):
        setattr(e, name, replace_exprs(getattr(e, name), fn))
    if isinstance(e, Call):
        e.args = [replace_exprs(a, fn) for a in e.args]
    return e


# the expression fields of each statement kind, in textual order; a field
# holds an expression, None or a list of expressions (a for loop's
# declaration is a child statement, not an expression), and a
# declaration's fields are those of each of its declarators
_STMT_EXPR_FIELDS = {ExprStmt: ("expr",), Return: ("value",),
                     For: ("init", "cond", "update"), While: ("cond",),
                     If: ("cond",), CallsiteStmt: ("args",),
                     VarDecl: ("dims", "init")}


def _expr_fields(stmt: Stmt) -> Iterator[tuple[object, str]]:
    """(node, field name) of each expression field one statement owns."""
    for node in stmt.decls if isinstance(stmt, DeclStmt) else (stmt,):
        for name in _STMT_EXPR_FIELDS.get(type(node), ()):
            yield node, name


def stmt_expr_items(stmt: Stmt) -> Iterator[tuple[str, Expr]]:
    """(field name, expression) of each top-level expression one statement
    owns, in textual order."""
    for node, name in _expr_fields(stmt):
        value = getattr(node, name)
        for e in value if isinstance(value, list) else (value,):
            if isinstance(e, Expr):
                yield name, e


def stmt_exprs(stmt: Stmt) -> list[Expr]:
    """Top-level expressions owned directly by one statement, in textual
    order."""
    return [e for _, e in stmt_expr_items(stmt)]


def rewrite_stmt_exprs(stmt: Stmt, fn: Callable[[Expr], Optional[Expr]]):
    """`replace_exprs` over every expression one statement owns, in
    place."""
    for node, name in _expr_fields(stmt):
        value = getattr(node, name)
        if isinstance(value, list):
            setattr(node, name, [replace_exprs(e, fn) for e in value])
        elif isinstance(value, Expr):
            setattr(node, name, replace_exprs(value, fn))
