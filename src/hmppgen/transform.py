"""Outline and inline phases.

Outlining moves an annotated loop nest verbatim into a fresh accelerator
function and leaves a call in its place.  That codelet is a plain
`FunctionDef`, the same object `insert_codelets` places in the unit, so
the tree holds the one copy of it.  Inlining substitutes callee bodies
into call sites with freshly named parameter copies so kernel bodies end
up call-free (math builtins excepted); it rewrites the unit and keeps no
record beside it.  Every diagnostic names the file, and the line where
the source has one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import SourceError, TransformError
from .nodes import (
    Assign, BinOp, Block, Call, CallsiteStmt, DeclStmt, Expr, ExprStmt, For,
    FunctionDef, GlobalDecl, If, Index, Name, Num, Param, Paren, Return,
    SourceUnit, Stmt, Str, Symbol, Unary, VarDecl, While, child_stmts,
    replace_exprs, rewrite_stmt_exprs, stmt_exprs, walk_exprs, walk_stmts,
)
from .parser import MAX_NESTING, Resolution, stmt_nesting
from .pragmas import HmppDirective, OmpPragma

# Callable from accelerator code without inlining (CUDA provides them).
MATH_BUILTINS = frozenset({
    "cos", "sin", "tan", "acos", "asin", "atan", "atan2", "sqrt", "exp",
    "log", "pow", "fabs", "floor", "ceil", "fmin", "fmax", "abs",
})

# Opaque calls that only read their arguments.
READONLY_OPAQUE = frozenset({"printf", "fprintf", "puts"})


# ---------------------------------------------------------------------------
# block discovery


@dataclass
class OmpRegion:
    pragma: OmpPragma
    stmt: Stmt
    line: int
    blocks: list["OmpBlock"] = field(default_factory=list)


@dataclass
class OmpBlock:
    block_id: int
    pragma: OmpPragma
    stmt: Stmt
    fn: FunctionDef
    line: int
    region: Optional[OmpRegion] = None

    @property
    def annotated(self) -> bool:
        return self.pragma.check or self.pragma.fixed is not None


def _omp_pragma_of(stmt: Stmt) -> Optional[OmpPragma]:
    for p in stmt.pragmas:
        if isinstance(p, OmpPragma):
            return p
    return None


def find_omp_blocks(unit: SourceUnit) -> list[OmpBlock]:
    """All OpenMP blocks in source order; `omp for` loops inside an
    `omp parallel` are reported as sub-blocks of that region.  A check or
    fixed block inside another one is a TransformError at its pragma."""
    out: list[OmpBlock] = []

    def visit(stmt: Stmt, fn: FunctionDef, region: Optional[OmpRegion],
              annotated: Optional[OmpBlock]):
        p = _omp_pragma_of(stmt)
        if p is not None:
            if p.kind == "parallel":
                inner = OmpRegion(p, stmt, p.line)
                for c in child_stmts(stmt):
                    visit(c, fn, inner, annotated)
                return
            if p.kind in ("parallel_for", "for"):
                b = OmpBlock(len(out) + 1, p, stmt, fn, p.line,
                             region if p.kind == "for" else None)
                if b.region is not None:
                    b.region.blocks.append(b)
                out.append(b)
                if b.annotated and annotated is not None:
                    raise TransformError(
                        "check/fixed block nested inside the check/fixed "
                        "block at line %d is not supported; annotate one of "
                        "them" % annotated.line, b.line, None, unit.filename)
                annotated = b if b.annotated else annotated
        for c in child_stmts(stmt):
            visit(c, fn, region, annotated)

    for fn in unit.functions:
        visit(fn.body, fn, None, None)
    return out


def region_warnings(blocks: list[OmpBlock], filename: str) -> list[str]:
    """One `file:line: warning` per parallel region that carries check or
    fixed itself: only its inner `omp for` blocks can be enumerated."""
    out = []
    for b in blocks:
        r = b.region
        if r is not None and (r.pragma.check or r.pragma.fixed is not None):
            msg = SourceError("warning: check/fixed on the parallel region is "
                              "not enumerable; annotate the inner for blocks",
                              r.line, None, filename).format()
            if msg not in out:
                out.append(msg)
    return out


# ---------------------------------------------------------------------------
# access classification


@dataclass
class Access:
    symbol: Symbol
    kind: str  # read | write | addr


def expr_accesses(e: Expr, res: Resolution, out: list[Access]):
    """Appends symbol accesses of one expression in textual order.

    Compound assignment records a read then a write; opaque calls read
    every argument and also write array arguments (they decay to
    mutable pointers) unless the callee is a known pure printer or a
    math builtin.  The defined functions are those `res` resolved.
    """
    defined = res.functions

    def sym(node) -> Optional[Symbol]:
        return res.symbol_of(node) if isinstance(node, Name) else None

    def base_symbol(target: Expr) -> Optional[Symbol]:
        return sym(_lvalue(target)[0])

    def walk(node: Expr):
        if isinstance(node, Name):
            s = sym(node)
            if s is not None:
                out.append(Access(s, "read"))
        elif isinstance(node, Paren):
            walk(node.inner)
        elif isinstance(node, Index):
            walk(node.base)
            walk(node.index)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Unary):
            if node.op == "&":
                s = base_symbol(node.operand)
                if s is not None:
                    out.append(Access(s, "addr"))
                for e2 in _lvalue(node.operand)[1]:
                    walk(e2)
            elif node.op in ("++", "--"):
                s = base_symbol(node.operand)
                walk(node.operand)
                if s is not None:
                    out.append(Access(s, "write"))
            else:
                walk(node.operand)
        elif isinstance(node, Call):
            for a in node.args:
                if isinstance(a, Str):
                    continue
                walk(a)
                if node.func in MATH_BUILTINS or node.func in READONLY_OPAQUE:
                    continue
                if node.func in defined:
                    continue  # analyzable later; treat like opaque below
                s = base_symbol(a)
                if s is not None and s.is_array:
                    out.append(Access(s, "write"))
            if node.func in defined:
                for a in node.args:
                    s = base_symbol(a)
                    if s is not None and s.is_array:
                        out.append(Access(s, "write"))
        elif isinstance(node, Assign):
            # textual order: target base, its indexes, then the value
            s = base_symbol(node.target)
            if s is not None:
                if node.op != "=":
                    out.append(Access(s, "read"))
                if isinstance(node.target, Unary) and node.target.op == "*":
                    # write through a pointer reads the pointer itself
                    out.append(Access(s, "read"))
                out.append(Access(s, "write"))
            for e2 in reversed(_lvalue(node.target)[1]):
                walk(e2)
            walk(node.value)

    walk(e)


def _lvalue(target: Expr) -> tuple[Expr, list[Expr]]:
    """The base of an lvalue chain (through subscripts, parentheses and
    unary operators) and its index expressions, outermost first."""
    indexes = []
    while isinstance(target, (Index, Paren, Unary)):
        if isinstance(target, Index):
            indexes.append(target.index)
        target = (target.base if isinstance(target, Index) else
                  target.inner if isinstance(target, Paren) else
                  target.operand)
    return target, indexes


def stmt_accesses(stmt: Stmt, res: Resolution) -> list[Access]:
    """Accesses of one statement, not descending into child statements."""
    out: list[Access] = []
    for e in stmt_exprs(stmt):
        expr_accesses(e, res, out)
    return out


def subtree_accesses(stmt: Stmt, res: Resolution) -> list[Access]:
    out = []
    for s in walk_stmts(stmt):
        out.extend(stmt_accesses(s, res))
    return out


# ---------------------------------------------------------------------------
# parameter inference


def infer_codelet_params(block_stmt: Stmt, accesses: list[Access],
                         reduction: Optional[Symbol] = None,
                         filename: str = "") -> list[Param]:
    """Free variables of the block in first-use order, shaped for the
    accelerator signature; `accesses` are the block's `subtree_accesses`
    of symbols declared outside it.

    Scalars pass by value, 1-D arrays as sized pointers, matrices with
    their declared dimensions.  The reduction variable `reduction` becomes
    a `<name>_reduced` pointer of size 1 in its first-use slot, or last
    when the block never names it.
    """
    reads: set[Symbol] = set()
    writes: set[Symbol] = set()
    order: dict[Symbol, None] = {}
    for a in accesses:
        order.setdefault(a.symbol)
        if a.kind in ("read", "addr"):
            reads.add(a.symbol)
        if a.kind == "write":
            writes.add(a.symbol)

    params: list[Param] = []
    for sym in order:
        if sym is reduction:
            params.append(_reduced_param(sym))
            continue
        if sym.shape == "scalar":
            params.append(Param(sym.name, sym.elem_type, io="by-value-scalar"))
        elif sym.shape == "array":
            io = _io_of(sym in reads, sym in writes)
            params.append(Param(sym.name, sym.elem_type, pointer=True, io=io,
                                size_expr=Paren(copy.deepcopy(sym.dims[0]))))
        elif sym.shape == "matrix":
            io = _io_of(sym in reads, sym in writes)
            params.append(Param(sym.name, sym.elem_type,
                                dims=[copy.deepcopy(d) for d in sym.dims],
                                io=io))
        else:
            raise TransformError(
                "free variable %r has unknown dimensions and cannot be "
                "passed to the accelerator" % sym.name,
                getattr(block_stmt, "line", None), None, filename)
    if reduction is not None and reduction not in order:
        params.append(_reduced_param(reduction))
    return params


def _reduced_param(sym: Symbol) -> Param:
    return Param(sym.name + "_reduced", sym.elem_type, pointer=True, io=None,
                 size_expr=Num("1"), reduced=True)


def _io_of(read, write) -> str:
    if read and write:
        return "inout"
    if write:
        return "out"
    return "in"


# ---------------------------------------------------------------------------
# gridify


def loop_ivar(loop: For) -> Optional[str]:
    init = loop.init
    if isinstance(init, DeclStmt) and len(init.decls) == 1:
        return init.decls[0].name
    if isinstance(init, Assign) and isinstance(init.target, Name):
        return init.target.ident
    if init is None and isinstance(loop.cond, (BinOp, Paren)):
        cond = loop.cond.inner if isinstance(loop.cond, Paren) else loop.cond
        if isinstance(cond, BinOp) and isinstance(cond.left, Name):
            return cond.left.ident
    return None


def _sole_inner_for(loop: For) -> Optional[For]:
    body = loop.body
    if isinstance(body, Block):
        stmts = [s for s in body.stmts]
        if len(stmts) == 1 and isinstance(stmts[0], For):
            return stmts[0]
        return None
    return body if isinstance(body, For) else None


def gridify_spec(block_stmt: Stmt,
                 reduction: Optional[tuple[str, str]] = None) -> list[str]:
    """Grid dimensions for a loop nest: a perfect two-deep prefix maps both
    induction variables; a reduction collapses the outer one to 1."""
    if not isinstance(block_stmt, For):
        return []
    outer = loop_ivar(block_stmt)
    if outer is None:
        return []
    inner_for = _sole_inner_for(block_stmt)
    inner = loop_ivar(inner_for) if inner_for is not None else None
    if inner is not None:
        return ["1", inner] if reduction else [outer, inner]
    return [outer]


# ---------------------------------------------------------------------------
# outlining


@dataclass
class Kernel:
    """One outlined block: its codelet (the function named `label`), the
    callsite that replaced the block in function `fn_name`, and the
    block's id."""

    label: str
    block_id: int
    codelet: FunctionDef
    callsite: CallsiteStmt
    fn_name: str

    @property
    def array_params(self) -> list[Param]:
        return [p for p in self.codelet.params if p.is_array]


def codelet_label(fn_name: str, line: int, tag: str) -> str:
    return "_instr_for%s_ol_%d_%s" % (tag, line, fn_name)


def outline_block(unit: SourceUnit, block: OmpBlock, tag: str,
                  res: Resolution) -> Kernel:
    """Rewrites `unit` in place: the block's loop nest moves verbatim (the
    same statement object, its pragmas dropped) into a fresh codelet
    function and a callsite takes its place, so callers that need the
    original pass a copy.  `res` resolves `unit` as it was before its
    first outlining; the blocks of one unit share it."""
    if not isinstance(block.stmt, For):
        raise TransformError("annotated block must start with a for loop",
                             block.line, None, unit.filename)
    reduction = block.pragma.reduction
    sym = None
    if reduction is not None:
        sym = res.reduction_of(block.stmt)
        if sym is None:
            raise TransformError("unknown symbol %r" % reduction[1],
                                 block.stmt.line, None, unit.filename)
        if sym.shape != "scalar":
            raise TransformError("reduction variable %r must be scalar"
                                 % reduction[1], block.line, None, unit.filename)
    # the block's own locals are the symbols it declares
    inside = set(map(id, walk_stmts(block.stmt)))
    free = [a for a in subtree_accesses(block.stmt, res)
            if not (a.symbol.storage == "local" and id(a.symbol.decl) in inside)]
    _check_scalar_liveness(unit, block, free, inside, res, sym)
    params = infer_codelet_params(block.stmt, free, sym, unit.filename)
    label = codelet_label(block.fn.name, block.line, tag)

    loop = block.stmt
    loop.pragmas = []
    grid = gridify_spec(loop, reduction)
    if grid:
        loop.pragmas = [HmppDirective(kind="gridify", gridify_dims=grid,
                                      reduce=reduction)]
    body = Block(stmts=[loop])
    if reduction is not None:
        var, elem = reduction[1], sym.elem_type
        body.stmts.insert(0, DeclStmt(
            [VarDecl(var, elem, init=Unary("*", Name(var + "_reduced")))], elem))
        body.stmts.append(ExprStmt(
            Assign("=", Unary("*", Name(var + "_reduced")), Name(var))))

    codelet = FunctionDef(label, "void", params, body, line=block.line)
    args: list[Expr] = [Unary("&", Name(sym.name)) if p.reduced
                        else Name(p.name) for p in params]
    callsite = CallsiteStmt(label=label, args=args, line=block.line)
    _replace_stmt(block.fn, block.stmt, callsite, unit)
    return Kernel(label, block.block_id, codelet, callsite, block.fn.name)


def _check_scalar_liveness(unit: SourceUnit, block: OmpBlock,
                           free: list[Access], inside: set[int],
                           res: Resolution, reduction: Optional[Symbol]):
    """A scalar written inside the block stays by-value, so it must be dead
    (re-written before any read) on the CPU afterwards.  `free` are the
    block's accesses of outer symbols, `inside` the ids of its statements;
    the `reduction` variable is exempt."""
    written = {a.symbol for a in free
               if a.kind == "write" and a.symbol.shape == "scalar"
               and a.symbol is not reduction}
    if not written:
        return
    ordered = list(walk_stmts(block.fn.body))
    at = next(i for i, s in enumerate(ordered) if s is block.stmt)
    for stmt in ordered[at + 1:]:
        if id(stmt) in inside:
            continue
        for a in stmt_accesses(stmt, res):
            if a.symbol not in written:
                continue
            if a.kind == "read":
                raise TransformError(
                    "scalar %r is written inside the accelerated block and "
                    "read afterwards on the CPU; by-value outlining would "
                    "change its value (use a reduction)" % a.symbol.name,
                    block.line, None, unit.filename)
            if a.kind == "write":
                written.discard(a.symbol)
        if not written:
            return


def _replace_stmt(fn: FunctionDef, old: Stmt, new: Stmt, unit: SourceUnit):
    # bare loop/branch bodies are wrapped so directives can land around the
    # replacement later
    for stmt in walk_stmts(fn.body):
        if isinstance(stmt, Block):
            for i, s in enumerate(stmt.stmts):
                if s is old:
                    stmt.stmts[i] = new
                    return
        elif isinstance(stmt, (For, While)) and stmt.body is old:
            stmt.body = Block(stmts=[new], line=new.line)
            return
        elif isinstance(stmt, If):
            if stmt.then is old:
                stmt.then = Block(stmts=[new], line=new.line)
                return
            if stmt.orelse is old:
                stmt.orelse = Block(stmts=[new], line=new.line)
                return
    raise TransformError("internal: statement to outline not found",
                         old.line, None, unit.filename)


def insert_codelets(unit: SourceUnit, kernels: list[Kernel]):
    """Places the codelets ahead of the function that calls them, in kernel
    order."""
    for fn in unit.functions:
        at = unit.items.index(fn)
        for k in kernels:
            if k.fn_name == fn.name:
                unit.items.insert(at, k.codelet)
                at += 1


def check_global_scope(codelet: FunctionDef, res: Resolution,
                       filename: str) -> list[str]:
    """`file:line` diagnostics for identifiers in the codelet body that
    resolve to a global rather than to a parameter or a body-local
    declaration, and for calls left un-inlined, each at the line of the
    statement that holds it; `res` resolves the unit the codelet is in."""
    diags: list[str] = []
    for stmt in walk_stmts(codelet.body):
        for e in stmt_exprs(stmt):
            for node in walk_exprs(e):
                if (isinstance(node, Name)
                        and res.symbol_of(node).storage == "global"):
                    msg = ("codelet %s: identifier %r does not resolve to a "
                           "parameter or local" % (codelet.name, node.ident))
                elif isinstance(node, Call) and node.func not in MATH_BUILTINS:
                    msg = ("codelet %s: un-inlinable call to %r"
                           % (codelet.name, node.func))
                else:
                    continue
                diags.append(SourceError(msg, stmt.line or None, None,
                                         filename).format())
    return diags


# ---------------------------------------------------------------------------
# inline phase


def _calls(root: Stmt) -> Iterator[tuple[Stmt, Call]]:
    """Every call under a statement subtree, paired with the statement whose
    own expressions contain it."""
    for stmt in walk_stmts(root):
        for e in stmt_exprs(stmt):
            for node in walk_exprs(e):
                if isinstance(node, Call):
                    yield stmt, node


class _InlineState:
    def __init__(self, unit: SourceUnit, targets: set[str]):
        self.unit = unit
        self.targets = targets
        self.fn_map = {f.name: f for f in unit.functions}
        self.counter = 0

    def next_index(self) -> int:
        y = self.counter
        self.counter += 1
        return y

    def is_target(self, e: Expr) -> bool:
        return isinstance(e, Call) and e.func in self.targets

    def error(self, message: str, at: Stmt) -> TransformError:
        """A diagnostic at the line of statement `at`, when it has one."""
        return TransformError(message, at.line or None, None,
                              self.unit.filename)


def _check_acyclic(unit: SourceUnit, targets: set[str]):
    """Rejects a call cycle among the targets at the call that closes it;
    functions and calls are visited in unit order, so the diagnostic
    names the same function."""
    edges = {f.name: [(call.func, stmt.line) for stmt, call in _calls(f.body)
                      if call.func in targets]
             for f in unit.functions if f.name in targets}
    state: dict[str, int] = {}

    def dfs(n):
        state[n] = 1
        for m, line in edges.get(n, ()):
            if state.get(m) == 1:
                raise TransformError("recursive function %r cannot be "
                                     "inlined" % m, line or None, None,
                                     unit.filename)
            if state.get(m, 0) == 0:
                dfs(m)
        state[n] = 2

    for n in edges:
        if state.get(n, 0) == 0:
            dfs(n)


def _rename_uses(block: Block, mapping: dict[str, tuple[str, bool]],
                 fname: str, state: _InlineState):
    """Renames parameter uses; reference parameters become pointer derefs.
    A local that shadows a parameter is an error at its declaration."""

    def renamed(e: Expr) -> Optional[Expr]:
        if isinstance(e, Name) and e.ident in mapping:
            new, is_ref = mapping[e.ident]
            return Unary("*", Name(new)) if is_ref else Name(new)
        return None

    for stmt in walk_stmts(block):
        if isinstance(stmt, DeclStmt):
            for d in stmt.decls:
                if d.name in mapping:
                    raise state.error("local %r in %r shadows a parameter; "
                                      "cannot inline" % (d.name, fname), stmt)
        rewrite_stmt_exprs(stmt, renamed)


def _find_local_ret(body: Block) -> Optional[VarDecl]:
    for stmt in walk_stmts(body):
        if isinstance(stmt, DeclStmt):
            for d in stmt.decls:
                if d.name == "ret":
                    return d
    return None


def _expand_call(call: Call, at: Stmt, level: int, state: _InlineState,
                 capture: bool) -> tuple[list[Stmt], Optional[str]]:
    """Builds the statements replacing one call in statement `at`, which is
    at nesting `level`, each at `at`'s line; returns them plus the name of
    the `_return_<y>` variable when the result is captured."""
    y = state.next_index()
    line = at.line
    fn = state.fn_map[call.func]
    if len(call.args) != len(fn.params):
        raise state.error("call to %r passes %d arguments, expected %d"
                          % (call.func, len(call.args), len(fn.params)), at)
    out: list[Stmt] = []
    mapping: dict[str, tuple[str, bool]] = {}
    for x, (p, arg) in enumerate(zip(fn.params, call.args)):
        pname = "_p_%d_%s_%d" % (x, fn.name, y)
        if p.reference:
            if not _is_addressable(arg):
                raise state.error("argument %d of %r must be addressable "
                                  "(reference parameter)" % (x, fn.name), at)
            out.append(DeclStmt([VarDecl(pname, p.elem_type, init=Unary("&", arg),
                                         pointer=True)], p.elem_type,
                                line=line))
        else:
            out.append(DeclStmt([VarDecl(pname, p.elem_type, init=arg)],
                                p.elem_type, line=line))
        mapping[p.name] = (pname, p.reference)

    # the rewrites below deepen the copy by at most one level; bounding the
    # original first keeps an oversized copy from being made at all
    _check_nesting([fn.body], level, fn.name, at, state.unit)
    body = copy.deepcopy(fn.body)
    body.pragmas = []
    _rename_uses(body, mapping, fn.name, state)

    ret_name = "ret_%s%d" % (fn.name, y)
    return_var = "_return_%d" % y
    returns = [s for s in walk_stmts(body) if isinstance(s, Return)]
    if fn.return_type != "void":
        if len(returns) != 1 or body.stmts[-1] is not returns[0]:
            raise state.error("%r must end in a single tail return to be "
                              "inlined" % fn.name, at)
        ret = returns[0]
        body.stmts[-1] = ExprStmt(Assign("=", Name(ret_name),
                                         ret.value if ret.value is not None
                                         else Num("0")), line=ret.line)
        body.stmts.insert(0, DeclStmt([VarDecl(ret_name, fn.return_type)],
                                      fn.return_type, line=line))
        if capture:
            body.stmts.append(ExprStmt(Assign("=", Name(return_var),
                                              Name(ret_name)), line=line))
        result_type = fn.return_type
    else:
        if returns:
            raise state.error("void %r has a return statement; cannot "
                              "inline" % fn.name, at)
        local_ret = _find_local_ret(body)
        if capture:
            if local_ret is None:
                raise state.error("void function %r used in an expression"
                                  % fn.name, at)
            body.stmts.append(DeclStmt([VarDecl(ret_name, local_ret.elem_type)],
                                       local_ret.elem_type, line=line))
            body.stmts.append(ExprStmt(Assign("=", Name(ret_name), Name("ret")),
                                       line=line))
            body.stmts.append(ExprStmt(Assign("=", Name(return_var),
                                              Name(ret_name)), line=line))
            result_type = local_ret.elem_type
        else:
            result_type = None

    _check_nesting(out + [body], level, fn.name, at, state.unit)
    _inline_block(body, state, level + 1)

    if capture:
        out.append(DeclStmt([VarDecl(return_var, result_type)], result_type,
                            line=line))
    out.append(body)
    return out, return_var if capture else None


def _check_nesting(stmts: list[Stmt], level: int, fname: str, at: Stmt,
                   unit: SourceUnit):
    """Rejects an expansion that would nest past the parser's limit, where
    the later recursive stages could no longer walk it."""
    if max(stmt_nesting(s, level) for s in stmts) > MAX_NESTING:
        raise TransformError("inlining %r here nests deeper than %d levels, "
                             "which is not supported" % (fname, MAX_NESTING),
                             at.line, None, unit.filename)


def _is_addressable(e: Expr) -> bool:
    return isinstance(e, (Name, Index))


def _inline_stmt(stmt: Stmt, state: _InlineState, level: int) -> list[Stmt]:
    """Expands the target calls in the expressions `stmt` owns, innermost
    first; returns their statements followed by `stmt`, which now reads
    each result from its `_return_<y>`.  A bare call statement is replaced
    by its expansion, its result discarded.  A declaration whose later
    declarator holds a target call is split into one declaration per
    declarator first, so each expansion follows the declarators it may
    read."""
    if isinstance(stmt, DeclStmt) \
            and _has_target_calls(DeclStmt(stmt.decls[1:]), state):
        return [s for i, d in enumerate(stmt.decls)
                for s in _inline_stmt(DeclStmt(
                    [d], stmt.elem_type, line=stmt.line,
                    pragmas=stmt.pragmas if i == 0 else []), state, level)]
    out: list[Stmt] = []

    def expanded(e: Expr) -> Optional[Expr]:
        if isinstance(e, BinOp) and e.op in ("&&", "||") and any(
                state.is_target(c) for c in walk_exprs(e.right)):
            # hoisting the call would run it whatever the left operand
            raise state.error("call to inlined function in an unsupported "
                              "position (right operand of %s)" % e.op, stmt)
        if not state.is_target(e):
            return None
        if not isinstance(stmt, (ExprStmt, DeclStmt, Return)):
            raise state.error("call to inlined function in an unsupported "
                              "position (loop header or condition)", stmt)
        e.args = [replace_exprs(a, expanded) for a in e.args]
        stmts, ret = _expand_call(e, stmt, level, state, capture=True)
        out.extend(stmts)
        return Name(ret)

    if isinstance(stmt, ExprStmt) and state.is_target(stmt.expr):
        stmt.expr.args = [replace_exprs(a, expanded) for a in stmt.expr.args]
        out += _expand_call(stmt.expr, stmt, level, state, capture=False)[0]
        out[0].pragmas = stmt.pragmas + out[0].pragmas
        return out
    if isinstance(stmt, For) and isinstance(stmt.init, DeclStmt):
        # a header's declaration is a child statement; refused like the rest
        rewrite_stmt_exprs(stmt.init, expanded)
    rewrite_stmt_exprs(stmt, expanded)
    return out + [stmt]


def _has_target_calls(stmt: Stmt, state: _InlineState) -> bool:
    return any(state.is_target(call) for _, call in _calls(stmt))


def _inline_into_children(stmt: Stmt, state: _InlineState, level: int):
    """Recurses into nested statement bodies, wrapping a bare body in a
    block only when splicing is needed there.  `stmt` is at nesting
    `level`, as the parser counts it."""

    def descend(body: Stmt) -> Stmt:
        if isinstance(body, Block):
            _inline_block(body, state, level + 2)
            return body
        if _has_target_calls(body, state):
            wrapped = Block(stmts=[body], line=body.line)
            _inline_block(wrapped, state, level + 2)
            return wrapped
        _inline_into_children(body, state, level + 1)
        return body

    if isinstance(stmt, (For, While)):
        stmt.body = descend(stmt.body)
    elif isinstance(stmt, If):
        stmt.then = descend(stmt.then)
        if stmt.orelse is not None:
            stmt.orelse = descend(stmt.orelse)
    elif isinstance(stmt, Block):
        _inline_block(stmt, state, level + 1)


def _inline_block(block: Block, state: _InlineState, level: int):
    """Inlines into the statements of `block`, which are at nesting
    `level`."""
    new_stmts: list[Stmt] = []
    for stmt in block.stmts:
        _inline_into_children(stmt, state, level)
        new_stmts.extend(_inline_stmt(stmt, state, level))
    block.stmts = new_stmts


def inline_calls_in_place(unit: SourceUnit,
                          targets: Iterable[str] | str = "all"):
    """Inlines the named defined functions (or all of them) into their call
    sites, rewriting `unit`; fully inlined functions are removed and
    announced by a `deletedFunctionBodyNamed_<f>` marker."""
    defined = {f.name for f in unit.functions}
    if targets == "all":
        selected = {n for n in defined if n != "main"}
    else:
        selected = set(targets)
        missing = selected - defined
        if missing:
            raise TransformError("cannot inline undefined function(s): %s"
                                 % ", ".join(sorted(missing)),
                                 filename=unit.filename)
    selected &= {call.func for f in unit.functions
                 for _, call in _calls(f.body)}
    if not selected:
        return
    for f in unit.functions:
        # a kernel's callsite must stay in the function it was outlined from
        if f.name in selected and any(isinstance(s, CallsiteStmt)
                                      for s in walk_stmts(f.body)):
            raise TransformError("function %r holds an outlined block and "
                                 "cannot be inlined" % f.name, f.line, None,
                                 unit.filename)
    _check_acyclic(unit, selected)
    state = _InlineState(unit, selected)
    for f in unit.functions:
        if f.name not in selected:
            _inline_block(f.body, state, 1)

    remaining = {call.func for f in unit.functions
                 for _, call in _calls(f.body)}
    fully = [f.name for f in unit.functions
             if f.name in selected and f.name not in remaining]
    unit.items = [it for it in unit.items
                  if not (isinstance(it, FunctionDef) and it.name in fully)]
    for at, name in enumerate(fully):
        unit.items.insert(at, GlobalDecl(DeclStmt(
            [VarDecl("deletedFunctionBodyNamed_%s" % name, "int",
                     init=Num("1"))], "int")))


def kernel_path_targets(unit: SourceUnit, kernels: list[Kernel]) -> set[str]:
    """Defined functions reachable from codelet bodies; these must inline."""
    defined = {f.name for f in unit.functions}
    fn_map = {f.name: f for f in unit.functions}
    roots: set[str] = set()
    for k in kernels:
        for stmt, call in _calls(k.codelet.body):
            if call.func in MATH_BUILTINS:
                continue
            if call.func not in defined:
                raise TransformError(
                    "codelet %s calls undeclared function %r, which cannot "
                    "run on the accelerator" % (k.label, call.func),
                    stmt.line or None, None, unit.filename)
            roots.add(call.func)
    closure = set()
    work = list(roots)
    while work:
        n = work.pop()
        if n in closure:
            continue
        closure.add(n)
        work.extend(call.func for _, call in _calls(fn_map[n].body)
                    if call.func in defined and call.func not in MATH_BUILTINS)
    return closure
