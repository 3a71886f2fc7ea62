"""Recursive-descent parser for the supported C subset.

Pragmas attach to the statement that follows them; an OpenMP pragma with
no following statement is an error.  Accelerator pragmas may trail a
block (they are positional markers, not annotations).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import CParseError, UnsupportedConstructError, read_text
from .lexer import Token, tokenize
from .nodes import (
    Assign, BinOp, Block, Call, CallsiteStmt, DeclStmt, Expr, ExprStmt, For, FunctionDef,
    GlobalDecl, If, Index, Name, Num, Param, Paren, ProtoDecl, Return,
    SourceUnit, Stmt, Str, Symbol, Unary, VarDecl, While, child_stmts,
    stmt_exprs, walk_exprs, walk_stmts,
)
from .pragmas import OmpPragma, parse_pragma

TYPE_KEYWORDS = ("int", "float", "double")
UNSUPPORTED_KEYWORDS = {
    "goto", "switch", "case", "default", "do", "break", "continue",
    "struct", "union", "enum", "typedef", "sizeof", "static", "extern",
    "register", "volatile", "unsigned", "signed", "long", "short", "char",
    "const",
}

ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS)
               for op in ops}

# Deepest statement/expression nesting accepted.  Every later stage walks
# the tree recursively, and at this depth each still fits in Python's
# default recursion limit of 1000 frames.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.toks = tokens
        self.i = 0
        self.filename = filename
        self.depth = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, value: str) -> bool:
        t = self.peek()
        return t.kind in ("PUNCT", "ID") and t.value == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.i += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        t = self.peek()
        if not self.at(value):
            self.error("expected %r, got %r" % (value, t.value or t.kind), t)
        return self.next()

    def error(self, msg: str, tok: Token | None = None):
        t = tok or self.peek()
        raise CParseError(msg, t.line, t.col, self.filename)

    def descend(self):
        """Enters one level of nesting; the caller lowers `depth` again."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d levels is not supported"
                       % MAX_NESTING)

    def check_supported(self):
        t = self.peek()
        if t.kind == "ID" and t.value in UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstructError(t.value, t.line, t.col, self.filename)

    # -- pragmas --------------------------------------------------------------

    def collect_pragmas(self) -> list:
        out = []
        while self.peek().kind == "PRAGMA":
            t = self.next()
            out.append(parse_pragma(t.value, t.line))
        return out

    # -- top level -------------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        unit = SourceUnit(filename=self.filename)
        while self.peek().kind != "EOF":
            pragmas = self.collect_pragmas()
            if self.peek().kind == "EOF":
                if pragmas:
                    self.error("dangling pragma: no declaration follows")
                break
            item = self.parse_top_item()
            if pragmas:
                if isinstance(item, FunctionDef):
                    item.pragmas = pragmas
                else:
                    self.error("pragma may only precede a function here")
            unit.items.append(item)
        return unit

    def parse_top_item(self):
        self.check_supported()
        if self.peek().kind == "ID" and self.peek().value == "void":
            base = self.next().value
        elif self.peek().kind == "ID" and self.peek().value in TYPE_KEYWORDS:
            base = self.next().value
        else:
            self.error("expected a declaration or function definition")
        pointer_result = self.accept("*")
        name_tok = self.peek()
        if name_tok.kind != "ID":
            self.error("expected identifier")
        name = self.next().value
        if self.at("("):
            return self.parse_function_or_proto(base, pointer_result, name, name_tok)
        if pointer_result:
            self.error("pointer globals are outside the supported subset")
        decl_stmt = self.parse_decl_stmt(base, first_name=name, line=name_tok.line)
        return GlobalDecl(decl_stmt)

    def parse_function_or_proto(self, base, pointer_result, name, name_tok):
        # scan ahead: prototype if the parameter list is followed by `;`
        depth, j = 0, self.i
        while j < len(self.toks):
            v = self.toks[j].value
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        after = self.toks[j + 1] if j + 1 < len(self.toks) else self.toks[-1]
        if after.value == ";":
            raw = " ".join(t.value for t in self.toks[self.i + 1:j])
            self.i = j + 2
            return ProtoDecl(name, base, raw, pointer_result, name_tok.line)
        if pointer_result:
            self.error("pointer-returning function definitions are unsupported")
        params = self.parse_params()
        body = self.parse_block()
        return FunctionDef(name, base, params, body, line=name_tok.line)

    def parse_params(self) -> list[Param]:
        self.expect("(")
        params: list[Param] = []
        if self.accept(")"):
            return params
        if self.peek().value == "void" and self.peek(1).value == ")":
            self.next()
            self.expect(")")
            return params
        while True:
            self.check_supported()
            t = self.peek()
            if t.kind != "ID" or t.value not in TYPE_KEYWORDS + ("void",):
                self.error("expected parameter type")
            elem = self.next().value
            pointer = False
            while self.accept("*"):
                pointer = True
            reference = self.accept("&")
            nt = self.peek()
            if nt.kind != "ID":
                self.error("expected parameter name")
            pname = self.next().value
            dims = []
            while self.accept("["):
                dims.append(self.parse_expr())
                self.expect("]")
            params.append(Param(pname, elem, dims, pointer, reference))
            if self.accept(")"):
                return params
            self.expect(",")

    # -- statements -------------------------------------------------------------

    def parse_block(self) -> Block:
        lb = self.expect("{")
        block = Block(line=lb.line)
        while not self.at("}"):
            if self.peek().kind == "EOF":
                self.error("unterminated block")
            pragmas = self.collect_pragmas()
            if self.at("}"):
                omp = [p for p in pragmas if isinstance(p, OmpPragma)]
                if omp:
                    raise CParseError("dangling pragma: no statement follows",
                                      omp[0].line, None, self.filename)
                block.trailing_pragmas.extend(pragmas)
                break
            stmt = self.parse_stmt()
            stmt.pragmas = pragmas + stmt.pragmas
            block.stmts.append(stmt)
        self.expect("}")
        return block

    def parse_stmt(self) -> Stmt:
        self.descend()
        stmt = self.dispatch_stmt()
        self.depth -= 1
        return stmt

    def dispatch_stmt(self) -> Stmt:
        self.check_supported()
        t = self.peek()
        if t.value == "{":
            return self.parse_block()
        if t.value == "for":
            return self.parse_for()
        if t.value == "while":
            return self.parse_while()
        if t.value == "if":
            return self.parse_if()
        if t.value == "return":
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(value, line=t.line)
        if t.kind == "ID" and t.value in TYPE_KEYWORDS:
            base = self.next().value
            return self.parse_decl_stmt(base, line=t.line)
        if t.value == "void":
            self.error("local void declarations are not allowed")
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr, line=t.line)

    def parse_decl_stmt(self, base: str, first_name: str | None = None,
                        line: int = 0) -> DeclStmt:
        decls = []
        name = first_name
        while True:
            pointer = False
            if name is None:
                while self.accept("*"):
                    pointer = True
                nt = self.peek()
                if nt.kind != "ID":
                    self.error("expected declarator name")
                name = self.next().value
            dims = []
            while self.accept("["):
                dims.append(self.parse_expr())
                self.expect("]")
            init = self.parse_assignment() if self.accept("=") else None
            decls.append(VarDecl(name, base, dims, init, pointer))
            name = None
            if self.accept(";"):
                return DeclStmt(decls, base, line=line)
            self.expect(",")

    def parse_for(self) -> For:
        t = self.expect("for")
        self.expect("(")
        init = None
        if not self.at(";"):
            nt = self.peek()
            if nt.kind == "ID" and nt.value in TYPE_KEYWORDS:
                base = self.next().value
                init = self.parse_decl_stmt(base, line=nt.line)  # consumes `;`
            else:
                init = self.parse_expr()
                self.expect(";")
        else:
            self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        update = None if self.at(")") else self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return For(init, cond, update, body, line=t.line)

    def parse_while(self) -> While:
        t = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return While(cond, self.parse_stmt(), line=t.line)

    def parse_if(self) -> If:
        t = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_stmt()
        orelse = None
        if self.accept("else"):
            orelse = self.parse_stmt()
        return If(cond, then, orelse, line=t.line)

    # -- expressions --------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> Expr:
        left = self.parse_binary(0)
        t = self.peek()
        if t.kind == "PUNCT" and t.value in ASSIGN_OPS:
            if not _is_lvalue(left):
                self.error("left side of %r is not assignable" % t.value, t)
            self.descend()
            self.next()
            value = self.parse_assignment()
            self.depth -= 1
            return Assign(t.value, left, value)
        return left

    def parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing: operators of one level associate left, and
        a tighter operator on the right binds into the right operand.  Each
        operator nests the chain built so far one level deeper."""
        left = self.parse_unary()
        nested = 0
        while True:
            t = self.peek()
            level = _PRECEDENCE.get(t.value, -1) if t.kind == "PUNCT" else -1
            if level < min_level:
                break
            self.descend()
            nested += 1
            self.next()
            left = BinOp(t.value, left, self.parse_binary(level + 1))
        self.depth -= nested
        return left

    def parse_unary(self) -> Expr:
        self.descend()
        t = self.peek()
        if t.kind == "PUNCT" and t.value in ("-", "!", "*", "&", "++", "--"):
            self.next()
            expr = Unary(t.value, self.parse_unary(), prefix=True)
        else:
            expr = self.parse_postfix()
        self.depth -= 1
        return expr

    def parse_postfix(self) -> Expr:
        """Calls, subscripts and postfix ++/-- wrap the expression so far,
        one nesting level each."""
        expr = self.parse_primary()
        nested = 0
        while True:
            t = self.peek()
            call = t.value == "(" and isinstance(expr, Name)
            if not (call or t.value == "[" or
                    (t.kind == "PUNCT" and t.value in ("++", "--"))):
                self.depth -= nested
                return expr
            self.descend()
            nested += 1
            self.next()
            if call:
                args = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if self.accept(")"):
                            break
                        self.expect(",")
                expr = Call(expr.ident, args)
            elif t.value == "[":
                idx = self.parse_expr()
                self.expect("]")
                expr = Index(expr, idx)
            else:
                expr = Unary(t.value, expr, prefix=False)

    def parse_primary(self) -> Expr:
        self.check_supported()
        t = self.next()
        if t.kind == "NUM":
            return Num(t.value)
        if t.kind == "STR":
            return Str(t.value)
        if t.kind == "ID":
            return Name(t.value)
        if t.value == "(":
            inner = self.parse_expr()
            self.expect(")")
            return Paren(inner)
        self.error("unexpected token %r in expression" % (t.value or t.kind), t)


def _is_lvalue(e: Expr) -> bool:
    if isinstance(e, Paren):
        return _is_lvalue(e.inner)
    return isinstance(e, (Name, Index)) or (isinstance(e, Unary) and e.op == "*")


def stmt_nesting(stmt: Stmt, level: int) -> int:
    """Deepest nesting level the parser would count in `stmt` printed as a
    statement at `level` (a function body's statements are at level 1), so
    a rewritten tree can be held to MAX_NESTING like a parsed one."""
    exprs = ([Call(stmt.label, stmt.args)] if isinstance(stmt, CallsiteStmt)
             else stmt_exprs(stmt))
    deepest = max([level] + [level + _expr_nesting(e) for e in exprs])
    for c in child_stmts(stmt):
        # a for loop's declaration is parsed as part of the loop header
        inner = level if isinstance(stmt, For) and c is stmt.init else level + 1
        deepest = max(deepest, stmt_nesting(c, inner))
    return deepest


def _expr_nesting(e: Expr) -> int:
    """Levels below its statement that `e` occupies: each operand, an
    assignment's value and each further operator of a chain nest deeper."""
    if isinstance(e, Assign):
        return max(_expr_nesting(e.target), 1 + _expr_nesting(e.value))
    if isinstance(e, BinOp):
        ops, left = 1, e.left
        while isinstance(left, BinOp):
            ops, left = ops + 1, left.left
        return max(_expr_nesting(e.left), ops + _expr_nesting(e.right))
    if isinstance(e, Unary) and e.prefix:
        return 1 + _expr_nesting(e.operand)
    return 1 + _postfix_nesting(e)[0]


def _postfix_nesting(e: Expr) -> tuple[int, int]:
    """(levels, operators) of a postfix chain: each call, subscript and
    postfix ++/-- nests the chain so far one level deeper."""
    if isinstance(e, Call):
        return 1 + max([0] + [_expr_nesting(a) for a in e.args]), 1
    if isinstance(e, Index) or isinstance(e, Unary) and not e.prefix:
        levels, ops = _postfix_nesting(
            e.base if isinstance(e, Index) else e.operand)
        index = _expr_nesting(e.index) if isinstance(e, Index) else 0
        return max(levels, ops + 1 + index), ops + 1
    if isinstance(e, (Name, Num, Str)):
        return 0, 0
    return _expr_nesting(e.inner if isinstance(e, Paren) else e), 0


# ---------------------------------------------------------------------------
# name resolution


@dataclass
class Resolution:
    """Links every identifier use and every declaration to its Symbol, and
    each OpenMP reduction clause to the Symbol visible at its statement."""

    name_symbol: dict[int, Symbol] = field(default_factory=dict)
    decl_symbol: dict[int, Symbol] = field(default_factory=dict)
    functions: set[str] = field(default_factory=set)  # defined function names
    reductions: dict[int, Symbol | None] = field(default_factory=dict)

    def symbol_of(self, name_node: Name) -> Symbol | None:
        return self.name_symbol.get(id(name_node))

    def symbol_of_decl(self, decl: VarDecl | Param) -> Symbol:
        """The Symbol a variable declaration or parameter introduces."""
        return self.decl_symbol[id(decl)]

    def reduction_of(self, stmt: Stmt) -> Symbol | None:
        """The variable `stmt`'s OpenMP reduction clause names, as declared
        where the statement stands; None when no declaration is visible."""
        return self.reductions.get(id(stmt))


def resolve(unit: SourceUnit) -> Resolution:
    """Resolves every Name to exactly one Symbol, raising on failures.

    Parameter array dims are exempt: accelerator argument sizes are
    evaluated in the caller's context, not the kernel's.
    """
    res = Resolution(functions={fn.name for fn in unit.functions})
    globals_: dict[str, Symbol] = {}
    for g in unit.globals:
        for d in g.decl_stmt.decls:
            if d.name in globals_:
                raise CParseError("duplicate global %r" % d.name,
                                  g.decl_stmt.line, None, unit.filename)
            globals_[d.name] = res.decl_symbol[id(d)] = Symbol(
                d.name, d.elem_type, tuple(d.dims), "global", d.pointer,
                decl=g.decl_stmt)
    for fn in unit.functions:
        _resolve_function(unit, fn, res, globals_)
    return res


def _resolve_function(unit: SourceUnit, fn: FunctionDef, res: Resolution,
                      globals_: dict[str, Symbol]):
    scopes: list[dict[str, Symbol]] = [globals_]
    params = {}
    for p in fn.params:
        params[p.name] = res.decl_symbol[id(p)] = Symbol(
            p.name, p.elem_type, tuple(p.dims), "parameter", p.pointer,
            p.reference, decl=p)
    scopes.append(params)

    def find(name: str) -> Symbol | None:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        return None

    def lookup(name: str, line: int) -> Symbol:
        sym = find(name)
        if sym is None:
            raise CParseError("undeclared identifier %r" % name, line, None,
                              unit.filename)
        return sym

    def resolve_expr(e: Expr, line: int):
        for sub in walk_exprs(e):
            if isinstance(sub, Name):
                res.name_symbol[id(sub)] = lookup(sub.ident, line)

    def walk(stmt: Stmt):
        omp = next((p for p in stmt.pragmas if isinstance(p, OmpPragma)), None)
        if omp is not None and omp.reduction is not None:
            res.reductions[id(stmt)] = find(omp.reduction[1])
        if isinstance(stmt, Block):
            scopes.append({})
            for s in stmt.stmts:
                walk(s)
            scopes.pop()
            return
        if isinstance(stmt, DeclStmt):
            for d in stmt.decls:
                for dim in d.dims:
                    resolve_expr(dim, stmt.line)
                if d.init is not None:
                    resolve_expr(d.init, stmt.line)
                if d.name in scopes[-1]:
                    raise CParseError("duplicate declaration of %r" % d.name,
                                      stmt.line, None, unit.filename)
                scopes[-1][d.name] = res.decl_symbol[id(d)] = Symbol(
                    d.name, d.elem_type, tuple(d.dims), "local", d.pointer,
                    decl=stmt)
            return
        if isinstance(stmt, For):
            scopes.append({})
            if isinstance(stmt.init, DeclStmt):
                walk(stmt.init)
            elif stmt.init is not None:
                resolve_expr(stmt.init, stmt.line)
            for e in (stmt.cond, stmt.update):
                if e is not None:
                    resolve_expr(e, stmt.line)
            walk(stmt.body)
            scopes.pop()
            return
        for e in stmt_exprs(stmt):
            resolve_expr(e, stmt.line)
        for c in child_stmts(stmt):
            walk(c)

    walk(fn.body)


# ---------------------------------------------------------------------------
# public entry points


def parse_translation_unit(text: str, filename: str = "<input>") -> SourceUnit:
    """Parses preprocessed C (plus pragma lines) into a lossless SourceUnit."""
    unit = _Parser(tokenize(text, filename), filename).parse_unit()
    unit.source_text = text
    resolve(unit)
    return unit


def parse_file(path) -> SourceUnit:
    return parse_translation_unit(read_text(path), str(path))


def strip_pragmas(unit: SourceUnit) -> SourceUnit:
    """Returns a copy with zero pragma attachments; all other nodes unchanged."""
    out = copy.deepcopy(unit)
    for fn in out.functions:
        fn.pragmas = []
        for stmt in walk_stmts(fn.body):
            stmt.pragmas = []
            if isinstance(stmt, Block):
                stmt.trailing_pragmas = []
    return out
