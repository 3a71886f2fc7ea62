"""Canonical C text from a SourceUnit.

Printing adds no parentheses beyond explicit Paren nodes, so a
parse/print round trip is token-equivalent to the input.  Formatting is
fixed (4-space indent, pragmas at column 0) and deterministic.  An
`Overlay` adds directives to the printed text without changing the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import (
    Assign, BinOp, Block, Call, CallsiteStmt, DeclStmt, Expr, ExprStmt, For,
    FunctionDef, GlobalDecl, If, Index, Name, Num, Param, Paren, ProtoDecl,
    Return, SourceUnit, Stmt, Str, Unary, VarDecl, While,
)

INDENT = "    "


@dataclass
class Overlay:
    """Directives printed over a tree that does not hold them, keyed by the
    identity of the node they belong to."""

    before: dict[int, list] = field(default_factory=dict)  # id(stmt)
    trailing: dict[int, list] = field(default_factory=dict)  # id(block)
    codelets: dict[int, object] = field(default_factory=dict)  # id(fn)


def print_expr(e: Expr) -> str:
    if isinstance(e, Num) or isinstance(e, Str):
        return e.lexeme
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Paren):
        return "(%s)" % print_expr(e.inner)
    if isinstance(e, Index):
        return "%s[%s]" % (print_expr(e.base), print_expr(e.index))
    if isinstance(e, Call):
        return "%s(%s)" % (e.func, ", ".join(print_expr(a) for a in e.args))
    if isinstance(e, BinOp):
        return "%s %s %s" % (print_expr(e.left), e.op, print_expr(e.right))
    if isinstance(e, Unary):
        if e.prefix:
            return e.op + print_expr(e.operand)
        return print_expr(e.operand) + e.op
    if isinstance(e, Assign):
        return "%s %s %s" % (print_expr(e.target), e.op, print_expr(e.value))
    raise TypeError("cannot print expression %r" % (e,))


def _declarator(d: VarDecl) -> str:
    text = ("*" if d.pointer else "") + ("&" if d.reference else "") + d.name
    for dim in d.dims:
        text += "[%s]" % print_expr(dim)
    if d.init is not None:
        text += " = " + print_expr(d.init)
    return text


def _decl_fragment(stmt: DeclStmt) -> str:
    return "%s %s" % (stmt.elem_type, ", ".join(_declarator(d) for d in stmt.decls))


def print_param(p: Param) -> str:
    text = p.elem_type + " "
    if p.pointer:
        text += "*"
    if p.reference:
        text += "&"
    text += p.name
    for dim in p.dims:
        text += "[%s]" % print_expr(dim)
    return text


class _Printer:
    def __init__(self, overlay: Overlay | None = None):
        self.lines: list[str] = []
        self.overlay = overlay or Overlay()

    def pragmas_of(self, s: Stmt) -> list:
        """Overlay directives first, then the statement's own pragmas."""
        return self.overlay.before.get(id(s), []) + s.pragmas

    def pragma_lines(self, pragmas):
        for p in pragmas:
            for line in p.render().splitlines():
                self.lines.append(line)

    def stmt(self, s: Stmt, depth: int):
        self.pragma_lines(self.pragmas_of(s))
        pad = INDENT * depth
        if isinstance(s, DeclStmt):
            self.lines.append(pad + _decl_fragment(s) + ";")
        elif isinstance(s, ExprStmt):
            self.lines.append(pad + print_expr(s.expr) + ";")
        elif isinstance(s, Return):
            text = "return" + ("" if s.value is None else " " + print_expr(s.value))
            self.lines.append(pad + text + ";")
        elif isinstance(s, CallsiteStmt):
            args = ", ".join(print_expr(a) for a in s.args)
            self.lines.append(pad + "%s(%s);" % (s.label, args))
        elif isinstance(s, Block):
            self.lines.append(pad + "{")
            self.block_body(s, depth + 1)
            self.lines.append(pad + "}")
        elif isinstance(s, For):
            if s.init is None:
                init = ""
            elif isinstance(s.init, DeclStmt):
                init = _decl_fragment(s.init)
            else:
                init = print_expr(s.init)
            cond = "" if s.cond is None else print_expr(s.cond)
            update = "" if s.update is None else print_expr(s.update)
            head = "for (%s; %s; %s)" % (init, cond, update)
            self.attached_body(head, s.body, depth)
        elif isinstance(s, While):
            self.attached_body("while (%s)" % print_expr(s.cond), s.body, depth)
        elif isinstance(s, If):
            self.attached_body("if (%s)" % print_expr(s.cond), s.then, depth)
            if s.orelse is not None:
                if isinstance(s.orelse, Block) \
                        and not self.pragmas_of(s.orelse):
                    self.attached_body("else", s.orelse, depth)
                else:
                    self.lines.append(INDENT * depth + "else")
                    self.stmt(s.orelse, depth + 1)
        else:
            raise TypeError("cannot print statement %r" % (s,))

    def attached_body(self, head: str, body: Stmt, depth: int):
        pad = INDENT * depth
        if isinstance(body, Block) and not self.pragmas_of(body):
            self.lines.append(pad + head + " {")
            self.block_body(body, depth + 1)
            self.lines.append(pad + "}")
        else:
            self.lines.append(pad + head)
            self.stmt(body, depth + 1)

    def block_body(self, block: Block, depth: int):
        for s in block.stmts:
            self.stmt(s, depth)
        self.pragma_lines(block.trailing_pragmas)
        self.pragma_lines(self.overlay.trailing.get(id(block), []))

    def function(self, fn: FunctionDef):
        codelet = self.overlay.codelets.get(id(fn))
        self.pragma_lines(fn.pragmas if codelet is None else [codelet])
        params = ", ".join(print_param(p) for p in fn.params)
        self.lines.append("%s %s(%s) {" % (fn.return_type, fn.name, params))
        self.block_body(fn.body, 1)
        self.lines.append("}")

    def unit(self, u: SourceUnit) -> str:
        first = True
        for item in u.items:
            if not first:
                self.lines.append("")
            first = False
            if isinstance(item, GlobalDecl):
                self.pragma_lines(item.decl_stmt.pragmas)
                self.lines.append(_decl_fragment(item.decl_stmt) + ";")
            elif isinstance(item, ProtoDecl):
                star = "*" if item.pointer_result else ""
                self.lines.append("%s %s%s(%s);" % (item.return_type, star,
                                                    item.name, item.raw_params))
            elif isinstance(item, FunctionDef):
                self.function(item)
            else:
                raise TypeError("cannot print item %r" % (item,))
        return "\n".join(self.lines) + "\n"


def print_unit(unit: SourceUnit, overlay: Overlay | None = None) -> str:
    return _Printer(overlay).unit(unit)
