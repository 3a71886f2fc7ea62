"""Operation counts: the cost program of a program shape.

The simulator charges CPU time by operations: the operators, subscripts
and calls of each statement, with loop bodies repeated by their folded
trip counts.  All of that depends only on the shape (the outlined and
inlined tree), not on a variant's flags or transfer plan, so the shape's
analysis compiles its host function once (`compile_costs`) into a
`CostProgram`: a tree of steps, one per statement, that holds the
statement's slots, the CPU accesses the simulator tracks, its CPU op
charges in order and folded loop trips, with each callsite's kernel op
count and each transferred symbol's byte size beside it.
`explore` replays that program against each variant's schedule and
flags; the all-baseline variant's program is its host function with no
callsite.

This compiler is the only code that counts operations, so the baseline
and the variants are costed by one set of rules:

- a loop's init runs once each time the loop is entered, its condition
  and update once per trip;
- constants fold in program order: each scalar declaration's
  initializer and each plain `=` assignment whose value folds binds its
  variable, an array's size folds where it is declared, and a codelet
  starts from its arguments folded at its callsite;
- a codelet or a helper function compiles like the host function and
  costs the ops of its steps run once, so a call to a helper costs the
  helper's ops each time it runs: in a statement, a declaration's
  initializer, a condition or a loop header alike.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .context import ContextTable, Slot, fold_expr
from .nodes import (
    Assign, BinOp, Block, Call, DeclStmt, Expr, ExprStmt, For, Name, Num,
    Paren, SourceUnit, Stmt, Str, Symbol, While, child_stmts,
    stmt_expr_items, walk_exprs,
)
from .parser import Resolution

ELEM_BYTES = {"int": 4, "float": 4, "double": 8}


def expr_ops(e: Optional[Expr]) -> int:
    """Operators, subscripts and calls in an expression (0 for None)."""
    return sum(1 for n in walk_exprs(e)
               if not isinstance(n, (Num, Str, Name, Paren)))


def own_exprs(stmt: Stmt) -> list[Expr]:
    """The expressions a statement evaluates once each time it runs, not
    those of its child statements: none for a loop, whose step charges its
    own header, and no array dims of a declaration, which run no code."""
    if isinstance(stmt, (For, While)):
        return []
    return [e for name, e in stmt_expr_items(stmt) if name != "dims"]


def stmt_own_ops(stmt: Stmt) -> int:
    return sum(expr_ops(e) for e in own_exprs(stmt))


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
    slots: dict[Slot, int]  # each compiled statement's slots -> their ids
    kernels: list[KernelCost]  # in the table's kernel order
    # bytes of every array declared and of every symbol a callsite passes
    sizes: dict[Symbol, int]


def compile_costs(unit: SourceUnit, table: ContextTable,
                  res: Resolution) -> CostProgram:
    """The cost program of the host function `table` describes; `res`
    resolves `unit`, which holds the codelets and the helpers."""
    slots: dict[Slot, int] = {}
    kernel_at = {id(k.callsite): i for i, k in enumerate(table.kernels)}
    kernels: list = [None] * len(table.kernels)
    sizes: dict[Symbol, int] = {}
    # a call of a function from its own body, the host's included, adds
    # nothing
    fn_ops = {table.fn.name: 0.0}

    def slot(kind: str, node: Stmt) -> int:
        slots[kind, id(node)] = len(slots)
        return slots[kind, id(node)]

    def function_ops(name: str) -> float:
        if name not in fn_ops:
            fn_ops[name] = 0.0
            for f in unit.functions:
                if f.name == name:
                    fn_ops[name] = _ops(step(f.body, {}))
        return fn_ops[name]

    def call_ops(exprs) -> list[float]:
        """The ops of the helpers called in `exprs`, one per call."""
        return [function_ops(n.func) for e in exprs for n in walk_exprs(e)
                if isinstance(n, Call)]

    def step(stmt: Stmt, env: dict[Symbol, float]):
        """Compiles `stmt`, folding its bindings into `env`."""
        before = slot("before", stmt)
        if id(stmt) in kernel_at:
            i = kernel_at[id(stmt)]
            kernels[i] = kernel_cost(table.kernels[i], env)
            return CallStep(before, i)
        events = tuple((sym, kind != "read")
                       for sym, kind in table.cpu_events.get(id(stmt), ()))
        if isinstance(stmt, For):
            init = stmt.init
            return LoopStep(
                before, events,
                _nonzero([expr_ops(init)] + call_ops([init])
                         if isinstance(init, Expr) else []),
                step(init, env) if isinstance(init, DeclStmt) else None,
                loop_trips(stmt, env, res),
                float(expr_ops(stmt.cond) + expr_ops(stmt.update)
                      + sum(call_ops([stmt.cond, stmt.update]))),
                step(stmt.body, env))
        if isinstance(stmt, While):
            return LoopStep(before, events, (), None,
                            loop_trips(stmt, env, res),
                            float(expr_ops(stmt.cond)
                                  + sum(call_ops([stmt.cond]))),
                            step(stmt.body, env))
        charges = [float(stmt_own_ops(stmt))] + call_ops(own_exprs(stmt))
        binds = []
        if isinstance(stmt, DeclStmt):
            binds = [(res.symbol_of_decl(d), d.init) for d in stmt.decls
                     if d.init is not None and not d.dims]
            for d in stmt.decls:
                if d.dims:  # an array's size folds where it is declared
                    sym = res.symbol_of_decl(d)
                    sizes[sym] = _size(sym, env, res)
        elif isinstance(stmt, ExprStmt):
            e = stmt.expr
            if isinstance(e, Assign) and e.op == "=" \
                    and isinstance(e.target, Name):
                binds = [(res.symbol_of(e.target), e.value)]
        for sym, value in binds:
            v = fold_expr(value, env, res)
            if v is not None:
                env[sym] = v
        stmts = tuple(step(c, env) for c in child_stmts(stmt))
        return Step(before, events, _nonzero(charges), stmts,
                    slot("end", stmt) if isinstance(stmt, Block) else -1)

    def kernel_cost(k, env: dict[Symbol, float]) -> KernelCost:
        """The kernel's costs, its arguments folded where it is called."""
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
            # a parameter or a global folds from constants alone
            sizes.setdefault(sym, _size(sym, {}, res))
            params.append((sym, p.reduced, p.reduced or p.io in ("in", "inout"),
                           p.reduced or p.io in ("out", "inout")))
        return KernelCost(float(sum(expr_ops(a) for a in k.callsite.args)),
                          _ops(step(k.codelet.body, kenv)), tuple(params))

    return CostProgram(step(table.fn.body, {}), slots, kernels, sizes)


def _ops(step: Step) -> float:
    """The ops of running a step once; a codelet or helper body has no
    callsite step."""
    total = sum(step.charges)
    if type(step) is LoopStep:
        if step.init is not None:
            total += _ops(step.init)
        return total + step.trips * (step.header + _ops(step.body))
    return total + sum(_ops(s) for s in step.stmts)


def _nonzero(charges: list) -> tuple:
    """Adding zero changes no sum, so a zero charge is left out."""
    return tuple(float(c) for c in charges if c)


def _size(sym: Symbol, env: dict[Symbol, float], res: Resolution) -> int:
    """Bytes of the whole object, its dimensions folded in `env`."""
    n = 1.0
    for d in sym.dims:
        v = fold_expr(d, env, res)
        n *= v if v is not None else 1.0
    return int(n) * ELEM_BYTES.get(sym.elem_type, 8)
