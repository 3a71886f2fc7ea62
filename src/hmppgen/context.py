"""Per-variable access facts and transfer placement.

The analysis walks the outlined program, records who touches each array
on which host, and derives where uploads, downloads, group
declarations, noupdate markings and synchronize points belong so that
every accelerator read sees loaded data and every CPU read sees stored
data, with as few whole-object transfers as possible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .errors import AnalysisError, PlanError
from .nodes import (
    BinOp, Block, CallsiteStmt, DeclStmt, Expr, For, FunctionDef, Name, Num,
    Param, Paren, SourceUnit, Stmt, Symbol, Unary, While, child_stmts,
    walk_stmts,
)
from .parser import Resolution, resolve
from .transform import (
    Kernel, OmpBlock, stmt_accesses, subtree_accesses,
)
from .variants import FlagSet


@dataclass(frozen=True)
class Host:
    kind: str  # CPU | GPU
    kernel: Optional[str] = None  # kernel label when on the accelerator

    def render(self) -> str:
        return self.kind if self.kind == "CPU" else "GPU(%s)" % self.kernel


CPU = Host("CPU")


@dataclass
class AccessEvent:
    symbol: Symbol
    kind: str  # read | write | addr
    site: int
    stmt: Stmt
    host: Host
    loop_path: tuple[int, ...]


@dataclass(frozen=True)
class InsertionPoint:
    anchor: Stmt
    position: str  # before | after


# Where directives print and the simulator runs them: ("before", id(stmt))
# or ("end", id(block)), after the block's last statement.
Slot = tuple[str, int]


@dataclass
class ContextTable:
    fn: FunctionDef
    events: dict[Symbol, list[AccessEvent]] = field(default_factory=dict)
    kernels: list[Kernel] = field(default_factory=list)
    site_of: dict[int, int] = field(default_factory=dict)  # id(stmt) -> site
    loop_path_of: dict[int, tuple[int, ...]] = field(default_factory=dict)
    stmt_at: dict[int, Stmt] = field(default_factory=dict)  # site -> stmt
    # (kernel label, parameter name) -> the caller's symbol at the callsite
    callers: dict[tuple[str, str], Symbol] = field(default_factory=dict)
    # id(stmt) -> the slot just after a statement of a block
    slot_after: dict[int, Slot] = field(default_factory=dict)
    # id(stmt) -> (symbol, kind) of the CPU accesses the simulator tracks:
    # those of arrays and of symbols a kernel touches
    cpu_events: dict[int, list[tuple[Symbol, str]]] = field(
        default_factory=dict)
    # the function's initializer constants (`const_env`)
    consts: dict[Symbol, float] = field(default_factory=dict)

    def add(self, ev: AccessEvent):
        self.events.setdefault(ev.symbol, []).append(ev)

    def of(self, symbol: Symbol) -> list[AccessEvent]:
        return self.events.get(symbol, [])

    def caller(self, k: Kernel, p: Param) -> Symbol:
        """The variable kernel `k`'s callsite passes as parameter `p`."""
        return self.callers[(k.label, p.name)]

    def name_counts(self) -> Counter:
        """How many of the table's symbols carry each name."""
        return Counter(sym.name for sym in self.events)

    def kernel_of(self, label: str) -> Kernel:
        for k in self.kernels:
            if k.label == label:
                return k
        raise KeyError(label)

    def site(self, stmt: Stmt) -> int:
        return self.site_of[id(stmt)]

    def path(self, stmt: Stmt) -> tuple[int, ...]:
        return self.loop_path_of[id(stmt)]

    def slot(self, point: InsertionPoint) -> Slot:
        """The slot an insertion point prints in: "after" a statement is
        before the next one of its block, or at the block's end."""
        if point.position == "before":
            return "before", id(point.anchor)
        if id(point.anchor) not in self.slot_after:
            raise PlanError("internal: insertion anchor is not inside a block")
        return self.slot_after[id(point.anchor)]


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# static expression folding


def fold_expr(e: Expr, env: dict[Symbol, float],
              res: Resolution) -> Optional[float]:
    """The value of `e` when it folds from the constants `env` holds for
    the symbols `res` resolves its names to; None otherwise."""
    if isinstance(e, Num):
        try:
            return float(e.lexeme)
        except ValueError:
            return None
    if isinstance(e, Paren):
        return fold_expr(e.inner, env, res)
    if isinstance(e, Name):
        return env.get(res.symbol_of(e))
    if isinstance(e, Unary) and e.op == "-" and e.prefix:
        v = fold_expr(e.operand, env, res)
        return None if v is None else -v
    if isinstance(e, BinOp):
        a = fold_expr(e.left, env, res)
        b = fold_expr(e.right, env, res)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/" and b != 0:
            return a / b
    return None


def const_env(fn: FunctionDef, res: Resolution) -> dict[Symbol, float]:
    """Initializer constants of the function's scalars."""
    env: dict[Symbol, float] = {}
    for stmt in walk_stmts(fn.body):
        if isinstance(stmt, DeclStmt):
            for d in stmt.decls:
                if d.init is not None and not d.dims:
                    v = fold_expr(d.init, env, res)
                    if v is not None:
                        env[res.symbol_of_decl(d)] = v
    return env


# ---------------------------------------------------------------------------
# building the table


def build_context_table(unit: SourceUnit, kernels: list[Kernel],
                        res: Resolution) -> ContextTable:
    """Access facts for the function hosting the callsites.

    Codelet accesses surface at the callsite, attributed to the kernel;
    compound assignments yield a read then a write.  By-value scalar
    arguments count as CPU reads at the call.  The codelets must already
    be in `unit` (`insert_codelets`), and `res` resolves it as it is now:
    one resolution covers them all.  The table also links each statement
    of a block to the slot after it and holds the function's initializer
    constants, once for every variant of a shape.
    """
    fns = {k.fn_name for k in kernels}
    if len(fns) > 1:
        raise AnalysisError("kernels span multiple functions: %s"
                            % ", ".join(sorted(fns)))
    fn = unit.function(fns.pop())
    table = ContextTable(fn=fn, kernels=list(kernels),
                         consts=const_env(fn, res))
    by_callsite = {id(k.callsite): k for k in kernels}

    site = [0]
    loop_stack: list[int] = []

    def visit(stmt: Stmt):
        site[0] += 1
        s = site[0]
        table.site_of[id(stmt)] = s
        table.loop_path_of[id(stmt)] = tuple(loop_stack)
        table.stmt_at[s] = stmt
        k = by_callsite.get(id(stmt))
        if k is not None:
            _record_kernel_events(table, k, s, tuple(loop_stack), res)
        else:
            for a in stmt_accesses(stmt, res):
                table.add(AccessEvent(a.symbol, a.kind, s, stmt, CPU,
                                      tuple(loop_stack)))
        if isinstance(stmt, Block):
            for c, after in zip(stmt.stmts, stmt.stmts[1:]):
                table.slot_after[id(c)] = "before", id(after)
            if stmt.stmts:
                table.slot_after[id(stmt.stmts[-1])] = "end", id(stmt)
        loop = isinstance(stmt, (For, While))
        if loop:
            loop_stack.append(s)
        for c in child_stmts(stmt):
            visit(c)
        if loop:
            loop_stack.pop()

    visit(fn.body)
    for sym, events in table.events.items():
        if sym.is_array or any(ev.host.kind == "GPU" for ev in events):
            for ev in events:
                if ev.host.kind == "CPU":
                    table.cpu_events.setdefault(id(ev.stmt), []).append(
                        (sym, ev.kind))
    return table


def _record_kernel_events(table: ContextTable, k: Kernel, site: int,
                          path: tuple[int, ...], res: Resolution):
    host = Host("GPU", k.label)
    stmt = k.callsite
    # facts per parameter, from the codelet body
    facts: dict[Symbol, set[str]] = {}
    for a in subtree_accesses(k.codelet.body, res):
        facts.setdefault(a.symbol, set()).add(a.kind)
    for p, arg in zip(k.codelet.params, k.callsite.args):
        # a reduction variable is passed as `&s`
        sym = res.symbol_of(arg.operand if p.reduced else arg)
        table.callers[(k.label, p.name)] = sym
        kinds = facts.get(res.symbol_of_decl(p), set())
        if p.io == "by-value-scalar":
            table.add(AccessEvent(sym, "read", site, stmt, CPU, path))
            continue
        if "read" in kinds or "addr" in kinds:
            table.add(AccessEvent(sym, "read", site, stmt, host, path))
        if "write" in kinds:
            table.add(AccessEvent(sym, "write", site, stmt, host, path))


# ---------------------------------------------------------------------------
# queries


def last_cpu_write_site(symbol: Symbol, kernel: str,
                        table: ContextTable) -> InsertionPoint:
    """Point just after the last CPU write before the kernel, backtracking
    out of loops that do not enclose the callsite; falls back to the
    declaration (or function start) when no write precedes."""
    call = table.kernel_of(kernel).callsite
    ks = table.site(call)
    kpath = table.path(call)
    last: Optional[AccessEvent] = None
    for ev in table.of(symbol):
        if ev.host.kind == "CPU" and ev.kind in ("write", "addr") \
                and ev.site < ks:
            last = ev
    if last is None:
        decl = symbol.decl
        if isinstance(decl, DeclStmt) and id(decl) in table.site_of:
            return InsertionPoint(decl, "after")
        return InsertionPoint(_first_stmt(table.fn), "before")
    common = _common_prefix(last.loop_path, kpath)
    if len(last.loop_path) > len(common):
        offending = last.loop_path[len(common)]
        return InsertionPoint(table.stmt_at[offending], "after")
    return InsertionPoint(last.stmt, "after")


def first_cpu_read_site(symbol: Symbol, kernel: str,
                        table: ContextTable) -> Optional[InsertionPoint]:
    """Point just before the first CPU read after the kernel, hoisted above
    loops that do not enclose the callsite; None when never read.

    A CPU read textually before the callsite but inside a shared loop is a
    wrap-around consumer (it sees the value in the next iteration), so the
    store must stay right after the callsite, once per iteration.
    """
    call = table.kernel_of(kernel).callsite
    ks = table.site(call)
    kpath = table.path(call)
    for ev in table.of(symbol):
        if ev.host.kind == "CPU" and ev.kind in ("read", "addr") \
                and ev.site < ks and set(ev.loop_path) & set(kpath):
            return InsertionPoint(call, "after")
    for ev in table.of(symbol):
        if ev.host.kind == "CPU" and ev.kind in ("read", "addr") \
                and ev.site > ks:
            common = _common_prefix(ev.loop_path, kpath)
            if len(ev.loop_path) > len(common):
                offending = ev.loop_path[len(common)]
                return InsertionPoint(table.stmt_at[offending], "before")
            return InsertionPoint(ev.stmt, "before")
    return None


def _first_stmt(fn: FunctionDef) -> Stmt:
    if not fn.body.stmts:
        raise AnalysisError("function %r has an empty body" % fn.name)
    return fn.body.stmts[0]


def _wrapping_cpu_write(symbol: Symbol, kernel: str, table: ContextTable,
                        anchor: Optional[InsertionPoint]) -> bool:
    """True when a CPU write of the symbol sits inside a loop that encloses
    the callsite but not the load anchor, so residency dies every
    iteration."""
    call = table.kernel_of(kernel).callsite
    kpath = set(table.path(call))
    anchor_path = set(table.path(anchor.anchor)) if anchor is not None else set()
    for ev in table.of(symbol):
        if ev.host.kind != "CPU" or ev.kind not in ("write", "addr"):
            continue
        for loop in ev.loop_path:
            if loop in kpath and loop not in anchor_path:
                return True
    return False


def address_disabled(symbol: Symbol, table: ContextTable) -> bool:
    """Address taken on the CPU outside a callsite argument disables
    placement optimization for the symbol."""
    if not symbol.is_array:
        return False
    for ev in table.of(symbol):
        if ev.kind == "addr" and ev.host.kind == "CPU" \
                and not isinstance(ev.stmt, CallsiteStmt):
            return True
    return False


def load_point(symbol: Symbol, kernel: str,
               table: ContextTable) -> Optional[InsertionPoint]:
    """Early-load point for a kernel input, or None when an early load buys
    nothing (the data is invalidated on the CPU every iteration anyway,
    so the per-callsite transfer is already optimal)."""
    if address_disabled(symbol, table):
        return None
    anchor = last_cpu_write_site(symbol, kernel, table)
    kpath = table.path(table.kernel_of(kernel).callsite)
    apath = table.path(anchor.anchor)
    if len(kpath) > 0 and len(apath) >= len(kpath):
        return None
    if apath != kpath[:len(apath)]:
        return None
    if _wrapping_cpu_write(symbol, kernel, table, anchor):
        return None
    return anchor


# ---------------------------------------------------------------------------
# group formation (runs before outlining so names can carry the anchor)


@dataclass
class GroupAssignment:
    ordinal: int
    label: str
    anchor_line: int
    block_ids: list[int]


def form_groups(unit: SourceUnit, blocks: list[OmpBlock],
                flags_by_block: dict[int, FlagSet],
                res: Optional[Resolution] = None) -> dict[int, GroupAssignment]:
    """Connected components of group-flagged blocks that share an array with
    no intervening CPU write; singleton groups are allowed (a pinned block
    can keep its own state resident across a loop).  `res` resolves `unit`;
    it is computed here when omitted."""
    members = [b for b in blocks
               if flags_by_block.get(b.block_id) is not None
               and not flags_by_block[b.block_id].baseline
               and flags_by_block[b.block_id].group]
    if not members:
        return {}
    if res is None:
        res = resolve(unit)
    arrays: dict[int, set[Symbol]] = {}
    for b in members:
        arrays[b.block_id] = {a.symbol for a in subtree_accesses(b.stmt, res)
                              if a.symbol.is_array}

    order = {id(s): i for i, s in enumerate(walk_stmts(members[0].fn.body))}

    def between_writes(b1: OmpBlock, b2: OmpBlock, sym: Symbol) -> bool:
        lo, hi = sorted((order[id(b1.stmt)], order[id(b2.stmt)]))
        inside = set()
        for b in (b1, b2):
            inside |= set(map(id, walk_stmts(b.stmt)))
        for stmt in walk_stmts(b1.fn.body):
            pos = order[id(stmt)]
            if not (lo < pos < hi) or id(stmt) in inside:
                continue
            for a in stmt_accesses(stmt, res):
                if a.symbol is sym and a.kind in ("write", "addr"):
                    return True
        return False

    parent = {b.block_id: b.block_id for b in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, b1 in enumerate(members):
        for b2 in members[i + 1:]:
            if b1.fn is not b2.fn:
                continue
            shared = arrays[b1.block_id] & arrays[b2.block_id]
            if any(not between_writes(b1, b2, s) for s in shared):
                parent[find(b1.block_id)] = find(b2.block_id)

    comps: dict[int, list[OmpBlock]] = {}
    for b in members:
        comps.setdefault(find(b.block_id), []).append(b)
    out: dict[int, GroupAssignment] = {}
    ordinal = 0
    for comp in sorted(comps.values(), key=lambda bs: min(x.line for x in bs)):
        comp.sort(key=lambda x: x.line)
        anchor = comp[0].line
        ga = GroupAssignment(ordinal, "group%d_%d" % (ordinal, anchor), anchor,
                             [b.block_id for b in comp])
        for b in comp:
            out[b.block_id] = ga
        ordinal += 1
    return out


# ---------------------------------------------------------------------------
# transfer planning


@dataclass
class GroupPlan:
    label: str
    kernels: list[str]
    mapbyname: list[Symbol] = field(default_factory=list)


@dataclass
class LoadPlan:
    symbol: Symbol
    point: InsertionPoint
    label: str
    group: Optional[str]


@dataclass
class StorePlan:
    symbol: Symbol  # the caller's variable whose bytes move
    param: Param  # the codelet parameter it comes back through
    point: InsertionPoint
    label: str
    group: Optional[str]

    @property
    def addr(self) -> str:
        """Address expression for args[..].addr="..." (`&s` for a
        reduction variable)."""
        return ("&" if self.param.reduced else "") + self.symbol.name


@dataclass
class SyncPlan:
    label: str
    group: Optional[str]
    point: InsertionPoint


@dataclass
class ReleasePlan:
    name: str  # group label or codelet label
    grouped: bool
    point: InsertionPoint


@dataclass
class TransferPlan:
    groups: list[GroupPlan] = field(default_factory=list)
    loads: list[LoadPlan] = field(default_factory=list)
    stores: list[StorePlan] = field(default_factory=list)
    noupdate: dict[str, list[Symbol]] = field(default_factory=dict)
    asyncs: list[SyncPlan] = field(default_factory=list)
    releases: list[ReleasePlan] = field(default_factory=list)
    io_override: dict[tuple[str, Symbol], str] = field(default_factory=dict)
    group_of: dict[str, str] = field(default_factory=dict)  # kernel -> group
    mapped: dict[str, list[Symbol]] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    # slot -> the loads, synchronizes, stores and releases printed there
    schedule: dict[Slot, list] = field(default_factory=dict)

    def is_mapped(self, kernel: str, symbol: Symbol) -> bool:
        g = self.group_of.get(kernel)
        return g is not None and symbol in self.mapped.get(g, ())

    def has_noupdate(self, kernel: str, symbol: Symbol) -> bool:
        return symbol in self.noupdate.get(kernel, ())


def build_transfer_plan(unit: SourceUnit, table: ContextTable,
                        groups: dict[int, GroupAssignment]) -> TransferPlan:
    """Derives directive placements for the outlined unit.

    Flags select placement, never soundness: without `advancedload` or
    `delegatedstore` the transfers stay at the callsite; the flags move
    them to the last-CPU-write / first-CPU-read points, `noupdate`
    suppresses redundant per-call copies of resident data, `group`
    shares residency between kernels, and `asynchronous` defers
    completion to an explicit synchronize.  `schedule` holds every
    transfer in the slot where it is printed, in the printed order.
    """
    plan = TransferPlan()
    kernels = table.kernels
    for k in kernels:
        k.flags.validate()
        if k.flags.noupdate and not k.flags.advancedload:
            raise PlanError("noupdate requested without any load for %s"
                            % k.label)

    # groups: members in program order, shared symbols mapped by name
    by_ga: dict[int, list[Kernel]] = {}
    for k in kernels:
        ga = groups.get(k.block_id)
        if ga is not None and k.flags.group:
            by_ga.setdefault(ga.ordinal, []).append(k)
            plan.group_of[k.label] = ga.label
    for ordinal in sorted(by_ga):
        ks = sorted(by_ga[ordinal], key=lambda k: table.site(k.callsite))
        label = groups[ks[0].block_id].label
        gp = GroupPlan(label, [k.label for k in ks])
        plan.groups.append(gp)

    # per-group mapped (resident) symbols, in first kernel-use order; a
    # symbol maps only when every member can rely on the early load and no
    # other symbol in the function has its name: mapbyname stands at the
    # top of the function and matches by name, so it would alias the two
    names = table.name_counts()
    for gp in plan.groups:
        users: dict[Symbol, list[Kernel]] = {}
        for k in map(table.kernel_of, gp.kernels):
            for p in k.array_params:
                users.setdefault(table.caller(k, p), []).append(k)
        gp.mapbyname = [sym for sym, ks in users.items()
                        if names[sym.name] == 1
                        and all(load_point(sym, m.label, table) is not None
                                for m in ks)]
        plan.mapped[gp.label] = gp.mapbyname
        for k_label in gp.kernels:
            for sym in gp.mapbyname:
                plan.io_override[(k_label, sym)] = "in"

    _plan_loads(plan, table)
    _plan_stores(plan, table)
    _plan_async(plan, table)
    _plan_releases(plan, table)
    # the order of the transfers in one slot, each kind in plan order; the
    # printer puts group declarations before them and a callsite after
    for transfers in (plan.loads, plan.asyncs, plan.stores, plan.releases):
        for t in transfers:
            plan.schedule.setdefault(table.slot(t.point), []).append(t)
    return plan


def _kernel_outputs(k: Kernel, table: ContextTable) -> list[Symbol]:
    out = [p for p in k.array_params if p.io in ("out", "inout")]
    out.extend(p for p in k.codelet.params if p.reduced)
    return [table.caller(k, p) for p in out]


def _plan_loads(plan: TransferPlan, table: ContextTable):
    loaded: dict[tuple[str, Symbol], InsertionPoint] = {}  # (scope, sym)
    for k in table.kernels:
        group = plan.group_of.get(k.label)
        scope = group or k.label
        if not k.flags.advancedload:
            continue
        for p in k.array_params:
            sym = table.caller(k, p)
            if address_disabled(sym, table):
                plan.diagnostics.append(
                    "address of %r is taken; falling back to per-callsite "
                    "transfers" % sym.name)
                continue
            mapped = plan.is_mapped(k.label, sym)
            group_read = group is not None and mapped and _group_reads(
                plan, table, group, sym)
            if p.io not in ("in", "inout") and not group_read:
                continue
            if (scope, sym) in loaded:
                continue
            point = load_point(sym, k.label, table)
            if point is None:
                continue  # per-callsite transfer is already optimal
            loaded[(scope, sym)] = point
            plan.loads.append(LoadPlan(sym, point, k.label, group))
        # noupdate marks arguments whose device copy stays valid: ones
        # loaded early, plus group-mapped ones (resident by construction)
        if k.flags.noupdate:
            marks = []
            for p in k.array_params:
                sym = table.caller(k, p)
                if (scope, sym) in loaded or plan.is_mapped(k.label, sym):
                    marks.append(sym)
            if marks:
                plan.noupdate[k.label] = marks


def _group_reads(plan: TransferPlan, table: ContextTable, group: str,
                 sym: Symbol) -> bool:
    """True when any member of the group reads the symbol, making it a
    group-level input worth one shared upload."""
    labels = [l for gp in plan.groups if gp.label == group for l in gp.kernels]
    for label in labels:
        for ev in table.of(sym):
            if ev.host.kernel == label and ev.kind in ("read", "addr"):
                return True
    return False


def _plan_stores(plan: TransferPlan, table: ContextTable):
    stored: set[tuple[str, Symbol]] = set()
    for k in table.kernels:
        group = plan.group_of.get(k.label)
        scope = group or k.label
        for p in k.codelet.params:
            if not (p.is_array or p.reduced):
                continue
            sym = table.caller(k, p)
            is_output = (p.reduced or p.io in ("out", "inout"))
            if not is_output:
                continue
            read = first_cpu_read_site(sym, k.label, table)
            if read is None:
                continue  # dead output, no download
            mapped = plan.is_mapped(k.label, sym)
            noup = plan.has_noupdate(k.label, sym)
            suppressed = mapped or noup
            if p.reduced:
                # auto per-call transfer handles the scalar except under
                # asynchronous execution, where completion is explicit
                if not k.flags.asynchronous:
                    continue
                point = (read if k.flags.delegatedstore
                         else InsertionPoint(k.callsite, "after"))
                plan.stores.append(StorePlan(sym, p, point, k.label, group))
                continue
            if not suppressed and not k.flags.delegatedstore:
                continue  # auto download at the callsite
            writer = _last_writer(plan, table, k, sym)
            if (scope, sym) in stored:
                continue
            stored.add((scope, sym))
            point = (read if k.flags.delegatedstore
                     else InsertionPoint(writer.callsite, "after"))
            plan.stores.append(StorePlan(sym, p, point, writer.label, group))


def _last_writer(plan: TransferPlan, table: ContextTable, k: Kernel,
                 sym: Symbol) -> Kernel:
    group = plan.group_of.get(k.label)
    if group is None:
        return k
    members = [m for m in table.kernels
               if plan.group_of.get(m.label) == group]
    writers = [m for m in members
               if any(ev.host.kernel == m.label and ev.kind == "write"
                      for ev in table.of(sym))]
    if not writers:
        return k
    return max(writers, key=lambda m: table.site(m.callsite))


def _plan_async(plan: TransferPlan, table: ContextTable):
    for k in table.kernels:
        if not k.flags.asynchronous:
            continue
        best: Optional[InsertionPoint] = None
        best_site = None
        for sym in _kernel_outputs(k, table):
            point = first_cpu_read_site(sym, k.label, table)
            if point is None:
                continue
            site = table.site(point.anchor)
            if best_site is None or site < best_site:
                best, best_site = point, site
        if best is None:
            best = InsertionPoint(k.callsite, "after")
        plan.asyncs.append(SyncPlan(k.label, plan.group_of.get(k.label), best))


def _plan_releases(plan: TransferPlan, table: ContextTable):
    def last_anchor(labels: list[str]) -> InsertionPoint:
        latest: Optional[Stmt] = None
        latest_site = -1
        for k in table.kernels:
            if k.label not in labels:
                continue
            for cand in [k.callsite] + \
                    [s.point.anchor for s in plan.stores if s.label == k.label] + \
                    [l.point.anchor for l in plan.loads if l.label == k.label] + \
                    [a.point.anchor for a in plan.asyncs if a.label == k.label]:
                site = table.site(cand)
                if site > latest_site:
                    latest, latest_site = cand, site
        return InsertionPoint(latest, "after")

    for gp in plan.groups:
        if any(table.kernel_of(lbl).flags.release for lbl in gp.kernels):
            plan.releases.append(ReleasePlan(gp.label, True,
                                             last_anchor(gp.kernels)))
    for k in table.kernels:
        if k.flags.release and k.label not in plan.group_of:
            plan.releases.append(ReleasePlan(k.label, False,
                                             last_anchor([k.label])))


# ---------------------------------------------------------------------------
# debug dumps (line oriented, for golden tests)


def _display_names(table: ContextTable) -> dict[Symbol, str]:
    """Each symbol's name, as `name@<declaration line>` when another
    symbol in the table carries the same name."""
    count = table.name_counts()
    names = {}
    for sym in table.events:
        names[sym] = sym.name
        if count[sym.name] > 1:
            # a parameter is declared on its function's line
            names[sym] += "@%d" % (sym.decl.line if isinstance(
                sym.decl, DeclStmt) else table.fn.line)
    return names


def dump_context(table: ContextTable) -> str:
    names = _display_names(table)
    lines = []
    for sym in sorted(table.events, key=lambda sym: sym.name):
        for ev in table.of(sym):
            lines.append("event %s %s %s site=%d loops=%s"
                         % (names[sym], ev.kind, ev.host.render(), ev.site,
                            list(ev.loop_path)))
    return "\n".join(lines) + "\n"


def dump_plan(plan: TransferPlan, table: ContextTable) -> str:
    names = _display_names(table)

    def listed(syms: list[Symbol]) -> str:
        return ", ".join(names[sym] for sym in syms)

    lines = []
    for gp in plan.groups:
        lines.append("group %s kernels=[%s] mapbyname=[%s]"
                     % (gp.label, ", ".join(gp.kernels), listed(gp.mapbyname)))
    for l in plan.loads:
        lines.append("advancedload %s %s site=%d label=%s"
                     % (names[l.symbol], l.point.position,
                        table.site(l.point.anchor), l.label))
    for s in plan.stores:
        lines.append("delegatedstore %s addr=%s%s %s site=%d label=%s"
                     % (s.param.name, "&" if s.param.reduced else "",
                        names[s.symbol], s.point.position,
                        table.site(s.point.anchor), s.label))
    for label in sorted(plan.noupdate):
        lines.append("noupdate %s [%s]" % (label,
                                           listed(plan.noupdate[label])))
    for a in plan.asyncs:
        lines.append("asynchronous %s synchronize %s site=%d"
                     % (a.label, a.point.position, table.site(a.point.anchor)))
    for r in plan.releases:
        lines.append("release %s" % r.name)
    return "\n".join(lines) + "\n"
