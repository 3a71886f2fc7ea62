"""Canonical C text from a SourceUnit.

Printing adds no parentheses beyond explicit Paren nodes, so a
parse/print round trip is token-equivalent to the input.  Formatting is
fixed (4-space indent, pragmas at column 0) and deterministic.  A tree
prints once into a `Template`; filling its holes with an `Overlay` adds
directives to the text without changing the tree, so every variant of a
program shape renders from its shape's one template.
"""

from __future__ import annotations

from .errors import PlanError
from .nodes import (
    Assign, BinOp, Block, Call, CallsiteStmt, DeclStmt, Expr, ExprStmt, For,
    FunctionDef, GlobalDecl, If, Index, Name, Num, Param, Paren, ProtoDecl,
    Return, SourceUnit, Stmt, Str, Unary, VarDecl, While,
)

INDENT = "    "


# The text of directives printed over a tree that does not hold them, by
# hole: ("before", id(stmt)) and ("end", id(block)), as the transfer
# schedule's slots, and ("codelet", id(fn)) for the directive that
# replaces a function's own pragmas.
Overlay = dict[tuple[str, int], str]


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


def pragma_text(pragmas) -> str:
    """The lines of pragmas or directives, each ending in a newline (a
    rendered pragma has no trailing line break)."""
    return "".join(p.render() + "\n" for p in pragmas)


class Template:
    """A tree printed once: text with holes where an overlay's directives
    go.  A hole stands before each statement (before its own pragmas), at
    the end of each block (after its trailing pragmas) and at each
    function's pragma lines, which a codelet directive replaces."""

    def __init__(self, parts: list[str], holes: dict[tuple[str, int], int]):
        self.parts = parts  # text segments and, between them, hole defaults
        self.holes = holes  # hole -> its index in `parts`

    def fill(self, overlay: Overlay | None = None) -> str:
        parts = list(self.parts)
        for hole, text in (overlay or {}).items():
            if hole not in self.holes:
                # a loop or if body block prints its brace on the header
                # line, which leaves no room for directives before it
                raise PlanError("internal: directives placed where the "
                                "program prints no slot (%s)" % hole[0])
            parts[self.holes[hole]] = text
        return "".join(parts)

    def key(self, overlay: Overlay) -> tuple:
        """Names `fill(overlay)` without holding its text: this template,
        then the part index and text of each filled hole in part order.
        Equal keys fill to equal text."""
        filled = sorted((self.holes[hole], text)
                        for hole, text in overlay.items())
        return (self, *(x for pair in filled for x in pair))


class _Printer:
    def __init__(self):
        self.parts: list[str] = []
        self.holes: dict[tuple[str, int], int] = {}
        self.text: list[str] = []  # the lines since the last hole

    def line(self, text: str):
        self.text.append(text + "\n")

    def hole(self, kind: str, node, default: str = ""):
        self.parts.append("".join(self.text))
        self.text = []
        self.holes[kind, id(node)] = len(self.parts)
        self.parts.append(default)

    def template(self) -> Template:
        return Template(self.parts + ["".join(self.text)], self.holes)

    def stmt(self, s: Stmt, depth: int):
        self.hole("before", s)
        self.text.append(pragma_text(s.pragmas))
        pad = INDENT * depth
        if isinstance(s, DeclStmt):
            self.line(pad + _decl_fragment(s) + ";")
        elif isinstance(s, ExprStmt):
            self.line(pad + print_expr(s.expr) + ";")
        elif isinstance(s, Return):
            text = "return" + ("" if s.value is None else " " + print_expr(s.value))
            self.line(pad + text + ";")
        elif isinstance(s, CallsiteStmt):
            args = ", ".join(print_expr(a) for a in s.args)
            self.line(pad + "%s(%s);" % (s.label, args))
        elif isinstance(s, Block):
            self.line(pad + "{")
            self.block_body(s, depth + 1)
            self.line(pad + "}")
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
                self.attached_body("else", s.orelse, depth)
        else:
            raise TypeError("cannot print statement %r" % (s,))

    def attached_body(self, head: str, body: Stmt, depth: int):
        """A body block without pragmas opens on the header line, and so
        has no hole before it."""
        pad = INDENT * depth
        if isinstance(body, Block) and not body.pragmas:
            self.line(pad + head + " {")
            self.block_body(body, depth + 1)
            self.line(pad + "}")
        else:
            self.line(pad + head)
            self.stmt(body, depth + 1)

    def block_body(self, block: Block, depth: int):
        for s in block.stmts:
            self.stmt(s, depth)
        self.text.append(pragma_text(block.trailing_pragmas))
        self.hole("end", block)

    def function(self, fn: FunctionDef):
        self.hole("codelet", fn, pragma_text(fn.pragmas))
        params = ", ".join(print_param(p) for p in fn.params)
        self.line("%s %s(%s) {" % (fn.return_type, fn.name, params))
        self.block_body(fn.body, 1)
        self.line("}")

    def unit(self, u: SourceUnit) -> Template:
        first = True
        for item in u.items:
            if not first:
                self.line("")
            first = False
            if isinstance(item, GlobalDecl):
                self.text.append(pragma_text(item.decl_stmt.pragmas))
                self.line(_decl_fragment(item.decl_stmt) + ";")
            elif isinstance(item, ProtoDecl):
                star = "*" if item.pointer_result else ""
                self.line("%s %s%s(%s);" % (item.return_type, star,
                                            item.name, item.raw_params))
            elif isinstance(item, FunctionDef):
                self.function(item)
            else:
                raise TypeError("cannot print item %r" % (item,))
        return self.template()


def unit_template(unit: SourceUnit) -> Template:
    """The unit printed once, for any number of overlays."""
    return _Printer().unit(unit)


def print_unit(unit: SourceUnit) -> str:
    return unit_template(unit).fill()
