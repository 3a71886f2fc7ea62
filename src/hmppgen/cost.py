"""Static operation counts, and the cost program of a program shape.

The simulator charges CPU time by operations: the operators, subscripts
and calls of each statement, with loop bodies repeated by their folded
trip counts.  All of that depends only on the shape (the outlined and
inlined tree), not on a variant's flags or transfer plan, so the shape's
analysis compiles its host function once (`compile_costs`) into a
`CostProgram`: a tree of steps, one per statement, that holds the
statement's slots, the CPU accesses the simulator tracks, its CPU op
charges in order and folded loop trips, with each callsite's kernel op
count and each transferred symbol's byte size beside it.
`explore` replays that program against each variant's schedule and flags.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .context import ContextTable, Slot, const_env, fold_expr
from .nodes import (
    Assign, BinOp, Block, Call, CallsiteStmt, DeclStmt, Expr, ExprStmt, For,
    If, Name, Num, Paren, Return, SourceUnit, Stmt, Str, Symbol, While,
    child_stmts, walk_exprs,
)
from .parser import Resolution

ELEM_BYTES = {"int": 4, "float": 4, "double": 8}


def expr_ops(e: Optional[Expr]) -> int:
    """Operators, subscripts and calls in an expression (0 for None)."""
    return sum(1 for n in walk_exprs(e)
               if not isinstance(n, (Num, Str, Name, Paren)))


def stmt_own_ops(stmt: Stmt) -> int:
    total = 0
    if isinstance(stmt, DeclStmt):
        total += sum(expr_ops(d.init) for d in stmt.decls if d.init is not None)
    elif isinstance(stmt, ExprStmt):
        total += expr_ops(stmt.expr)
    elif isinstance(stmt, Return) and stmt.value is not None:
        total += expr_ops(stmt.value)
    elif isinstance(stmt, (While, If)):
        total += expr_ops(stmt.cond)
    elif isinstance(stmt, CallsiteStmt):
        total += sum(expr_ops(a) for a in stmt.args)
    return total


def loop_trips(stmt: Stmt, env: dict[Symbol, float],
               res: Resolution) -> float:
    """Statically folded trip count of a for or while loop; 1 when the
    bounds do not fold."""
    var = start = None
    if isinstance(stmt, For):
        if isinstance(stmt.init, DeclStmt) and len(stmt.init.decls) == 1:
            var = res.symbol_of_decl(stmt.init.decls[0])
            if stmt.init.decls[0].init is not None:
                start = fold_expr(stmt.init.decls[0].init, env, res)
        elif isinstance(stmt.init, Assign) and isinstance(stmt.init.target, Name):
            var = res.symbol_of(stmt.init.target)
            start = fold_expr(stmt.init.value, env, res)
    cond = stmt.cond.inner if isinstance(stmt.cond, Paren) else stmt.cond
    if not (isinstance(cond, BinOp) and cond.op in ("<", "<=")
            and isinstance(cond.left, Name)):
        return 1.0
    left = res.symbol_of(cond.left)
    if var is None:
        var, start = left, env.get(left)
    stop = fold_expr(cond.right, env, res)
    if left is not var or start is None or stop is None:
        return 1.0
    return max(stop - start + (1 if cond.op == "<=" else 0), 0.0)


def static_ops(stmt: Stmt, env: dict[Symbol, float],
               res: Resolution) -> float:
    """Operation count of a statement subtree with loop trips folded in."""
    env = dict(env)

    def walk(s: Stmt) -> float:
        total = float(stmt_own_ops(s))
        if isinstance(s, (For, While)):
            if isinstance(s, For):
                header = expr_ops(s.init) + expr_ops(s.cond) + expr_ops(s.update)
                if isinstance(s.init, DeclStmt):
                    for d in s.init.decls:
                        if d.init is not None:
                            v = fold_expr(d.init, env, res)
                            if v is not None:
                                env[res.symbol_of_decl(d)] = v
                        header += expr_ops(d.init)
            else:
                header = expr_ops(s.cond)
            trips = loop_trips(s, env, res)
            return trips * (header + walk(s.body))
        if isinstance(s, Block):
            return total + sum(walk(c) for c in s.stmts)
        if isinstance(s, If):
            branches = walk(s.then) + (walk(s.orelse) if s.orelse else 0.0)
            return total + branches
        if isinstance(s, ExprStmt) and isinstance(s.expr, Assign) \
                and isinstance(s.expr.target, Name):
            v = fold_expr(s.expr.value, env, res)
            if v is not None and s.expr.op == "=":
                env[res.symbol_of(s.expr.target)] = v
        return total

    return walk(stmt)


# ---------------------------------------------------------------------------
# the cost program


class Step(NamedTuple):
    """A statement: the id of its "before" slot, the CPU accesses the
    simulator tracks ((symbol, is_write) pairs), its CPU op charges in the
    order the replay makes them, the steps it runs in turn (a block's
    statements, an if's branches) and a block's "end" slot (-1 for no
    block)."""

    slot: int
    events: tuple
    charges: tuple
    stmts: tuple = ()
    end: int = -1


class LoopStep(NamedTuple):
    """A for or while loop; `charges` holds its init expression's ops."""

    slot: int
    events: tuple
    charges: tuple
    init: Optional[Step]  # a for loop's init declaration
    trips: float
    header: float  # the ops of the condition and update, per iteration
    body: Step


class CallStep(NamedTuple):
    """A callsite: the replay runs the kernel instead of the statement."""

    slot: int
    kernel: int  # index into the table's kernels


class KernelCost(NamedTuple):
    arg_ops: float  # by-value argument evaluation on the CPU
    ops: float  # the codelet body's ops, with its arguments folded in
    # (caller symbol, reduced, reads, writes) of each parameter passed by
    # reference, in parameter order
    params: tuple[tuple[Symbol, bool, bool, bool], ...]


class CostProgram(NamedTuple):
    body: Step
    slots: dict[Slot, int]  # every slot of the host function -> its id
    kernels: list[KernelCost]  # in the table's kernel order
    sizes: dict[Symbol, int]  # bytes of every symbol a callsite passes


def compile_costs(unit: SourceUnit, table: ContextTable,
                  res: Resolution) -> CostProgram:
    """The cost program of the host function `table` describes; `res`
    resolves `unit`, which holds the codelets."""
    env = table.consts
    slots: dict[Slot, int] = {}
    kernel_at = {id(k.callsite): i for i, k in enumerate(table.kernels)}
    fn_ops: dict[str, float] = {}

    def slot(kind: str, node: Stmt) -> int:
        slots[kind, id(node)] = len(slots)
        return slots[kind, id(node)]

    def function_ops(name: str) -> float:
        if name not in fn_ops:
            fn_ops[name] = 0.0
            for f in unit.functions:
                if f.name == name:
                    fn_ops[name] = static_ops(f.body, const_env(f, res), res)
        return fn_ops[name]

    def step(stmt: Stmt):
        before = slot("before", stmt)
        if id(stmt) in kernel_at:
            return CallStep(before, kernel_at[id(stmt)])
        events = tuple((sym, kind != "read")
                       for sym, kind in table.cpu_events.get(id(stmt), ()))
        if isinstance(stmt, For):
            init = stmt.init
            return LoopStep(
                before, events,
                _nonzero([expr_ops(init)] if isinstance(init, Expr) else []),
                step(init) if isinstance(init, DeclStmt) else None,
                loop_trips(stmt, env, res),
                float(expr_ops(stmt.cond) + expr_ops(stmt.update)),
                step(stmt.body))
        if isinstance(stmt, While):
            return LoopStep(before, events, (), None,
                            loop_trips(stmt, env, res),
                            float(expr_ops(stmt.cond)), step(stmt.body))
        charges = [float(stmt_own_ops(stmt))]
        if isinstance(stmt, ExprStmt):
            charges += [function_ops(n.func) for n in walk_exprs(stmt.expr)
                        if isinstance(n, Call)]
        stmts = tuple(step(c) for c in child_stmts(stmt))
        return Step(before, events, _nonzero(charges), stmts,
                    slot("end", stmt) if isinstance(stmt, Block) else -1)

    kernels = []
    sizes: dict[Symbol, int] = {}
    for k in table.kernels:
        kenv = {}
        for p, arg in zip(k.codelet.params, k.callsite.args):
            v = fold_expr(arg, env, res)
            if v is not None:
                kenv[res.symbol_of_decl(p)] = v
        params = []
        for p in k.codelet.params:
            if p.io == "by-value-scalar":
                continue
            sym = table.caller(k, p)
            sizes[sym] = _size(sym, env, res)
            params.append((sym, p.reduced, p.reduced or p.io in ("in", "inout"),
                           p.reduced or p.io in ("out", "inout")))
        kernels.append(KernelCost(
            float(sum(expr_ops(a) for a in k.callsite.args)),
            static_ops(k.codelet.body, kenv, res), tuple(params)))
    return CostProgram(step(table.fn.body), slots, kernels, sizes)


def _nonzero(charges: list) -> tuple:
    """Adding zero changes no sum, so a zero charge is left out."""
    return tuple(float(c) for c in charges if c)


def _size(sym: Symbol, env: dict[Symbol, float], res: Resolution) -> int:
    """Bytes of the whole object, its declared dimensions folded in `env`."""
    n = 1.0
    for d in sym.dims:
        v = fold_expr(d, env, res)
        n *= v if v is not None else 1.0
    return int(n) * ELEM_BYTES.get(sym.elem_type, 8)
