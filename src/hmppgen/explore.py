"""The sweep: enumerating the plan space, executing variants and
aggregating median time and energy.

Two executor modes: `shell` builds and runs each variant through user
command templates, sampling a cumulative watt-hour counter around the
run; `simulated` replays the variant's transfer plan and statement
structure through a deterministic closed-form cost model.  The replay
runs the plan's schedule, the transfers in the slots and order in which
the variant prints them, and the CPU accesses the context table lists
for each statement.

The simulator counts *logical* whole-object transfers: an upload is
charged only when the host copy changed since the last upload of that
symbol, a download only when an accelerator kernel wrote the symbol
since the last download.  Redundant per-callsite copies of unchanged
data are therefore free, which is exactly the waste the directives
remove, and grouped/noupdate plans come out ahead by construction.
"""

from __future__ import annotations

import statistics
import subprocess
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .context import (
    LoadPlan, Slot, StorePlan, SyncPlan, TransferPlan, const_env, fold_expr,
    form_groups,
)
from .errors import AnalysisError, ExploreError, PlanError, TransformError
from .nodes import (
    Assign, BinOp, Block, Call, CallsiteStmt, DeclStmt, Expr, ExprStmt, For,
    If, Name, Num, Paren, Return, SourceUnit, Stmt, Str, Symbol, While,
    walk_exprs, walk_stmts,
)
from .emit import RenderedVariant, build_variant, write_manifest, write_variant
from .parser import Resolution, read_text
from .transform import find_omp_blocks
from .variants import (
    BASELINE, DEFAULT_VARIANT_CAP, FlagSet, VariantPlan, enumerate_variants,
    plans_for_unit,
)

ELEM_BYTES = {"int": 4, "float": 4, "double": 8}


def median(samples) -> float:
    """Middle element for odd counts, mean of the two middle ones for even."""
    data = list(samples)
    if not data:
        raise ExploreError("median of an empty sample list")
    return float(statistics.median(data))


def wh_to_joules(wh: float) -> float:
    """Exact conversion, 1 Wh = 3600 J."""
    if wh < 0:
        raise ExploreError("negative watt-hours: %r" % wh)
    return wh * 3600.0


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class CostModelParams:
    """Calibration constants for the simulator.

    The defaults are arbitrary desk-scale values chosen to give the
    accelerator a clear advantage on large parallel loops; they are not
    measurements of any real machine.
    """

    h2d_bandwidth: float = 8e9  # bytes/s
    d2h_bandwidth: float = 8e9  # bytes/s
    kernel_launch_overhead: float = 30e-6  # s
    gpu_throughput: float = 4e11  # ops/s
    cpu_throughput: float = 4e9  # ops/s
    power_cpu_active: float = 95.0  # W
    power_cpu_idle: float = 45.0  # W
    power_gpu_active: float = 180.0  # W
    power_memory: float = 30.0  # W

    def validate(self):
        for name, v in self.__dict__.items():
            if not v > 0:
                raise ExploreError("cost model parameter %s must be positive"
                                   % name)


@dataclass
class SimResult:
    time_s: float
    energy_J: float
    h2d_count: int
    d2h_count: int
    h2d_bytes: int
    d2h_bytes: int
    h2d_array_count: int
    d2h_array_count: int
    launches: int
    gpu_ops: float
    cpu_ops: float

    def breakdown(self) -> str:
        return ("time_s=%.9f energy_J=%.9f h2d=%d d2h=%d h2d_bytes=%d "
                "d2h_bytes=%d h2d_arrays=%d d2h_arrays=%d launches=%d "
                "gpu_ops=%d cpu_ops=%d"
                % (self.time_s, self.energy_J, self.h2d_count, self.d2h_count,
                   self.h2d_bytes, self.d2h_bytes, self.h2d_array_count,
                   self.d2h_array_count, self.launches,
                   int(self.gpu_ops), int(self.cpu_ops)))


# -- static expression folding ------------------------------------------------


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


# -- the replay ---------------------------------------------------------------


class _Residency:
    """Whole-object transfer state per symbol: logical uploads move changed
    host data, logical downloads move accelerator-written data back.
    Sizes fold each symbol's declared dimensions in `env`."""

    def __init__(self, env: dict[Symbol, float], resolution: Resolution,
                 params: CostModelParams):
        self.env = env
        self.resolution = resolution
        self.params = params
        self.host_version: dict[Symbol, int] = {}
        self.uploaded_version: dict[Symbol, int] = {}
        self.device_has: dict[tuple[str, Symbol], bool] = {}
        self.gpu_dirty: dict[Symbol, bool] = {}
        self.cpu_fresh: dict[Symbol, bool] = {}
        self.h2d_count = 0
        self.d2h_count = 0
        self.h2d_array_count = 0
        self.d2h_array_count = 0
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.t_h2d = 0.0
        self.t_d2h = 0.0

    def _size(self, sym: Symbol) -> int:
        n = 1.0
        for d in sym.dims:
            v = fold_expr(d, self.env, self.resolution)
            n *= v if v is not None else 1.0
        return int(n) * ELEM_BYTES.get(sym.elem_type, 8)

    def cpu_write(self, sym: Symbol):
        self.host_version[sym] = self.host_version.get(sym, 0) + 1
        self.cpu_fresh[sym] = True
        for key in list(self.device_has):
            if key[1] == sym:
                self.device_has[key] = False

    def cpu_read(self, sym: Symbol):
        if self.gpu_dirty.get(sym) and not self.cpu_fresh.get(sym, True):
            raise ExploreError(
                "unsound plan: CPU reads %r before the accelerator value "
                "was stored back" % sym.name)

    def upload(self, scope: str, sym: Symbol):
        hv = self.host_version.get(sym, 0)
        if self.uploaded_version.get(sym) != hv:
            self.uploaded_version[sym] = hv
            size = self._size(sym)
            self.h2d_count += 1
            if sym.is_array:
                self.h2d_array_count += 1
            self.h2d_bytes += size
            self.t_h2d += size / self.params.h2d_bandwidth
        self.device_has[(scope, sym)] = True

    def gpu_read(self, scope: str, sym: Symbol):
        if not self.device_has.get((scope, sym)):
            raise ExploreError(
                "unsound plan: accelerator reads %r with no prior load or "
                "in-group producer" % sym.name)

    def gpu_write(self, scope: str, sym: Symbol):
        self.gpu_dirty[sym] = True
        self.cpu_fresh[sym] = False
        self.device_has[(scope, sym)] = True

    def download(self, sym: Symbol):
        if self.gpu_dirty.get(sym):
            self.gpu_dirty[sym] = False
            size = self._size(sym)
            self.d2h_count += 1
            if sym.is_array:
                self.d2h_array_count += 1
            self.d2h_bytes += size
            self.t_d2h += size / self.params.d2h_bandwidth
            # the freshly downloaded host version has not been uploaded
            # anywhere, so the next upload of this symbol must be paid
            self.host_version[sym] = self.host_version.get(sym, 0) + 1
            self.uploaded_version.pop(sym, None)
        self.cpu_fresh[sym] = True


_RESIDENCY_COUNTERS = ("h2d_count", "d2h_count", "h2d_bytes", "d2h_bytes",
                       "t_h2d", "t_d2h", "h2d_array_count", "d2h_array_count")
_REPLAY_COUNTERS = ("t_cpu", "t_gpu", "launches", "gpu_ops", "cpu_ops",
                    "overlap_saved")


class _Replay:
    def __init__(self, rv: RenderedVariant, params: CostModelParams):
        self.rv = rv
        self.params = params
        self.table = rv.table
        self.plan: TransferPlan = rv.plan
        self.resolution = rv.resolution
        self.env = self.table.consts
        self.res = _Residency(self.env, rv.resolution, params)
        self.t_cpu = 0.0
        self.t_gpu = 0.0
        self.launches = 0
        self.gpu_ops = 0.0
        self.cpu_ops = 0.0
        self.overlap_saved = 0.0
        self.pending_async: dict[str, dict] = {}  # kernel -> span/cpu info
        self.kernel_by_callsite = {id(k.callsite): k for k in rv.kernels}
        self.kernel_op_cache: dict[str, float] = {}
        self.fn_ops_cache: dict[str, float] = {}

    # -- static facts

    def _kernel_ops(self, k) -> float:
        if k.label not in self.kernel_op_cache:
            res = self.resolution
            kenv = {}
            for p, arg in zip(k.codelet.params, k.callsite.args):
                v = fold_expr(arg, self.env, res)
                if v is not None:
                    kenv[res.symbol_of_decl(p)] = v
            self.kernel_op_cache[k.label] = static_ops(k.codelet.body, kenv,
                                                       res)
        return self.kernel_op_cache[k.label]

    def _function_ops(self, name: str) -> float:
        if name not in self.fn_ops_cache:
            ops = 0.0
            for f in self.rv.unit.functions:
                if f.name == name:
                    ops = static_ops(f.body, const_env(f, self.resolution),
                                     self.resolution)
            self.fn_ops_cache[name] = ops
        return self.fn_ops_cache[name]

    # -- replay

    def run(self) -> SimResult:
        self._run_stmt(self.table.fn.body)
        # asynchronous kernels missing a synchronize finish at program end
        for label in list(self.pending_async):
            self._finish_async(label)
        p = self.params
        total = (self.res.t_h2d + self.res.t_d2h + self.t_gpu
                 + self.launches * p.kernel_launch_overhead + self.t_cpu
                 - self.overlap_saved)
        t_gpu_active = (self.res.t_h2d + self.res.t_d2h + self.t_gpu
                        + self.launches * p.kernel_launch_overhead)
        energy = (p.power_cpu_active * self.t_cpu
                  + p.power_cpu_idle * max(total - self.t_cpu, 0.0)
                  + p.power_gpu_active * t_gpu_active
                  + p.power_memory * total)
        return SimResult(total, energy, self.res.h2d_count, self.res.d2h_count,
                         self.res.h2d_bytes, self.res.d2h_bytes,
                         self.res.h2d_array_count, self.res.d2h_array_count,
                         self.launches, self.gpu_ops, self.cpu_ops)

    def _run_slot(self, slot: Slot):
        """The slot's transfers, in their printed order."""
        for t in self.plan.schedule.get(slot, ()):
            if isinstance(t, LoadPlan):
                self.res.upload(t.group or t.label, t.symbol)
            elif isinstance(t, StorePlan):
                self.res.download(t.symbol)
            elif isinstance(t, SyncPlan):
                self._finish_async(t.label)

    def _cpu_time(self, ops: float):
        self.cpu_ops += ops
        dt = ops / self.params.cpu_throughput
        self.t_cpu += dt
        for info in self.pending_async.values():
            info["cpu_since"] += dt

    def _finish_async(self, label: str):
        info = self.pending_async.pop(label, None)
        if info is None:
            return
        self.overlap_saved += min(info["span"], info["cpu_since"])
        for sym in info["downloads"]:
            self.res.download(sym)

    def _run_stmt(self, stmt: Stmt):
        self._run_slot(("before", id(stmt)))
        k = self.kernel_by_callsite.get(id(stmt))
        if k is not None:
            self._run_callsite(k)
        else:
            for sym, kind in self.table.cpu_events.get(id(stmt), ()):
                if kind == "read":
                    self.res.cpu_read(sym)
                elif kind in ("write", "addr"):
                    self.res.cpu_write(sym)
            if not isinstance(stmt, (For, While)):
                self._cpu_time(float(stmt_own_ops(stmt)))
            if isinstance(stmt, ExprStmt):
                for node in walk_exprs(stmt.expr):
                    if isinstance(node, Call):
                        self._cpu_time(self._function_ops(node.func))
            if isinstance(stmt, Block):
                for c in stmt.stmts:
                    self._run_stmt(c)
                self._run_slot(("end", id(stmt)))
            elif isinstance(stmt, (For, While)):
                self._run_loop(stmt)
            elif isinstance(stmt, If):
                self._run_stmt(stmt.then)
                if stmt.orelse is not None:
                    self._run_stmt(stmt.orelse)

    def _run_loop(self, stmt):
        trips = loop_trips(stmt, self.env, self.resolution)
        if isinstance(stmt, For):
            header = expr_ops(stmt.cond) + expr_ops(stmt.update)
            if isinstance(stmt.init, Expr):
                self._cpu_time(float(expr_ops(stmt.init)))
            elif isinstance(stmt.init, DeclStmt):
                self._run_stmt(stmt.init)
        else:
            header = expr_ops(stmt.cond)
        if trips <= 0:
            return
        # first iteration warms residency; the rest repeat its steady state
        snapshot = self._counters()
        self._cpu_time(float(header))
        self._run_stmt(stmt.body)
        if trips > 1:
            snapshot2 = self._counters()
            self._cpu_time(float(header))
            self._run_stmt(stmt.body)
            self._scale_delta(snapshot2, trips - 2.0)

    def _counters(self) -> list:
        return [getattr(owner, name) for owner, name in self._counter_slots()]

    def _counter_slots(self):
        for name in _RESIDENCY_COUNTERS:
            yield self.res, name
        for name in _REPLAY_COUNTERS:
            yield self, name

    def _scale_delta(self, snapshot, extra: float):
        """Adds `extra` more repetitions of the change since `snapshot`;
        integer counters stay integers."""
        if extra <= 0:
            return
        for (owner, name), before in zip(self._counter_slots(), snapshot):
            now = getattr(owner, name)
            more = (now - before) * extra
            setattr(owner, name, now + (int(more) if isinstance(before, int)
                                        else more))

    def _run_callsite(self, k):
        plan = self.plan
        scope = plan.group_of.get(k.label) or k.label
        planned_stores = {(s.label, s.symbol) for s in plan.stores}
        # by-value argument evaluation happens on the CPU
        self._cpu_time(float(sum(expr_ops(a) for a in k.callsite.args)))
        for p in k.codelet.params:
            if p.io == "by-value-scalar":
                continue
            sym = self.table.caller(k, p)
            mapped = plan.is_mapped(k.label, sym)
            noup = plan.has_noupdate(k.label, sym)
            reads = p.reduced or p.io in ("in", "inout")
            if not noup and (reads or mapped):
                self.res.upload(scope, sym)
            if reads:
                self.res.gpu_read(scope, sym)
        ops = self._kernel_ops(k)
        self.gpu_ops += ops
        self.launches += 1
        span = ops / self.params.gpu_throughput
        self.t_gpu += span
        downloads = []
        for p in k.codelet.params:
            if p.io == "by-value-scalar":
                continue
            sym = self.table.caller(k, p)
            if not (p.reduced or p.io in ("out", "inout")):
                continue
            self.res.gpu_write(scope, sym)
            if plan.is_mapped(k.label, sym) or plan.has_noupdate(k.label, sym):
                continue  # an explicit store moves it when needed
            if not p.reduced and k.flags.delegatedstore \
                    and (k.label, sym) in planned_stores:
                continue  # far store planned instead of the auto copy
            downloads.append(sym)
        if k.flags.asynchronous:
            self.pending_async[k.label] = {
                "span": span, "cpu_since": 0.0, "downloads": downloads}
        else:
            for sym in downloads:
                self.res.download(sym)


def simulate_variant(rv: RenderedVariant,
                     params: CostModelParams = CostModelParams()) -> SimResult:
    """Deterministic closed-form cost of one rendered variant."""
    params.validate()
    if rv.table is None:
        # untransformed baseline: everything runs on the CPU
        unit, res = rv.unit, rv.resolution
        main = unit.function("main") if any(
            f.name == "main" for f in unit.functions) else unit.functions[-1]
        ops = static_ops(main.body, const_env(main, res), res)
        for stmt in walk_stmts(main.body):
            if isinstance(stmt, ExprStmt):
                for node in walk_exprs(stmt.expr):
                    if isinstance(node, Call):
                        for f in unit.functions:
                            if f.name == node.func:
                                ops += static_ops(f.body, const_env(f, res),
                                                  res)
        t = ops / params.cpu_throughput
        energy = (params.power_cpu_active + params.power_memory) * t
        return SimResult(t, energy, 0, 0, 0, 0, 0, 0, 0, 0.0, ops)
    return _Replay(rv, params).run()


# ---------------------------------------------------------------------------
# executors and the sweep


@dataclass
class ExecutorSpec:
    mode: str = "simulated"  # simulated | shell
    build: str = ""  # must contain {file}; {exe} is provided
    run: str = "{exe}"
    timeout: float = 60.0
    energy_cmd: str = ""  # prints cumulative watt-hours
    params: CostModelParams = field(default_factory=CostModelParams)

    def validate(self):
        if self.mode not in ("simulated", "shell"):
            raise ExploreError("executor mode must be simulated or shell")
        if self.mode == "shell":
            if "{file}" not in self.build:
                raise ExploreError(
                    "shell executor build template must contain {file}")
            if not self.energy_cmd:
                raise ExploreError(
                    "shell executor needs an energy_cmd printing cumulative "
                    "watt-hours")
            if not self.timeout > 0:
                raise ExploreError("timeout must be positive")
        self.params.validate()


def parse_executor_config(path) -> ExecutorSpec:
    """Line-oriented `key = value` executor configuration."""
    spec = ExecutorSpec()
    numbers = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ExploreError("malformed executor config line: %r" % raw)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in ("mode", "build", "run", "energy_cmd"):
            setattr(spec, key, value)
            continue
        if key != "timeout" and key not in CostModelParams().__dict__:
            raise ExploreError("unknown executor config key %r" % key)
        try:
            numbers[key] = float(value)
        except ValueError:
            raise ExploreError("%s:%d: %s takes a number, got %r"
                               % (path, lineno, key, value))
    spec.timeout = numbers.pop("timeout", spec.timeout)
    if numbers:
        spec.params = replace(spec.params, **numbers)
    spec.validate()
    return spec


@dataclass
class Measurement:
    name: str
    signature_text: str
    time_ms: Optional[float]
    energy_J: Optional[float]
    samples: list[tuple[float, float]] = field(default_factory=list)
    failed: bool = False
    reason: str = ""

    @classmethod
    def from_samples(cls, name, signature_text, samples) -> "Measurement":
        return cls(name, signature_text,
                   median(t for t, _ in samples),
                   median(e for _, e in samples), list(samples))

    @classmethod
    def failure(cls, name, signature_text, reason) -> "Measurement":
        return cls(name, signature_text, None, None, [], True, reason)


ENERGY_TIMEOUT_S = 30


def _read_energy_wh(cmd: str) -> float:
    try:
        proc = subprocess.run(cmd, shell=True, capture_output=True,
                              text=True, timeout=ENERGY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ExploreError("energy source timed out after %ds"
                           % ENERGY_TIMEOUT_S)
    if proc.returncode != 0:
        raise ExploreError("energy source unavailable: %s"
                           % (proc.stderr.strip() or "nonzero exit"))
    try:
        return float(proc.stdout.strip().split()[-1])
    except (ValueError, IndexError):
        raise ExploreError("energy source printed no number: %r" % proc.stdout)


def _run_shell_variant(rv: RenderedVariant, spec: ExecutorSpec, reps: int,
                       work_dir: Path, log) -> Measurement:
    src = work_dir / ("%s.c" % rv.filename_sig)
    exe = work_dir / ("%s.bin" % rv.filename_sig)
    src.write_text(rv.source, encoding="utf-8")
    build_cmd = spec.build.format(file=str(src), exe=str(exe))
    log("build: %s" % build_cmd)
    try:
        proc = subprocess.run(build_cmd, shell=True, capture_output=True,
                              text=True, timeout=spec.timeout)
    except subprocess.TimeoutExpired:
        log("build timeout")
        return Measurement.failure(rv.name, rv.signature_text,
                                   "build timeout after %gs" % spec.timeout)
    if proc.returncode != 0:
        log("build failed: %s" % proc.stderr.strip())
        return Measurement.failure(rv.name, rv.signature_text,
                                   "build failure: %s" % proc.stderr.strip())
    run_cmd = spec.run.format(file=str(src), exe=str(exe))
    samples = []
    for i in range(reps):
        try:
            wh_before = _read_energy_wh(spec.energy_cmd)
            t0 = _time.perf_counter()
            run = subprocess.run(run_cmd, shell=True, capture_output=True,
                                 text=True, timeout=spec.timeout)
            elapsed = _time.perf_counter() - t0
            wh_after = _read_energy_wh(spec.energy_cmd)
        except subprocess.TimeoutExpired:
            log("rep %d: timeout" % i)
            return Measurement.failure(rv.name, rv.signature_text,
                                       "run timeout after %gs" % spec.timeout)
        except ExploreError as e:
            log("rep %d: %s" % (i, e))
            return Measurement.failure(rv.name, rv.signature_text, str(e))
        if run.returncode != 0:
            log("rep %d: nonzero exit %d" % (i, run.returncode))
            return Measurement.failure(rv.name, rv.signature_text,
                                       "run failed with exit %d"
                                       % run.returncode)
        samples.append((elapsed * 1000.0,
                        wh_to_joules(max(wh_after - wh_before, 0.0))))
        log("rep %d: %.3f ms, %.3f J" % (i, samples[-1][0], samples[-1][1]))
    return Measurement.from_samples(rv.name, rv.signature_text, samples)


def run_exploration(variants: list[RenderedVariant], executor: ExecutorSpec,
                    repetitions: int = 5,
                    log_dir=None) -> list[Measurement]:
    """One Measurement per variant, medians over `repetitions` samples; a
    failure fails only its row.  Logs open with the build diagnostics."""
    if repetitions < 1:
        raise ExploreError("repetitions must be >= 1")
    executor.validate()
    logs = Path(log_dir) if log_dir is not None else None
    if logs is not None:
        logs.mkdir(parents=True, exist_ok=True)
    out: list[Measurement] = []
    for rv in variants:
        log_lines = ["diagnostic: %s" % d for d in rv.diagnostics]
        log = log_lines.append
        if executor.mode == "simulated":
            try:
                sim = simulate_variant(rv, executor.params)
                log("simulated: " + sim.breakdown())
                sample = (sim.time_s * 1000.0, sim.energy_J)
                m = Measurement.from_samples(rv.name, rv.signature_text,
                                             [sample] * repetitions)
            except ExploreError as e:
                log("simulation failed: %s" % e)
                m = Measurement.failure(rv.name, rv.signature_text, str(e))
        else:
            work = logs if logs is not None else Path(".")
            m = _run_shell_variant(rv, executor, repetitions, work, log)
        out.append(m)
        if logs is not None:
            _write_log(logs, rv.filename_sig, log_lines)
    return out


def _write_log(logs: Path, filename_sig: str, lines: list[str]):
    (logs / ("%s.log" % filename_sig)).write_text(
        "\n".join(lines) + "\n", encoding="utf-8")


def block_plans(unit: SourceUnit,
                lines: Optional[set[int]] = None) -> list[list[VariantPlan]]:
    """Per-block plan lists in block order: `fixed` pins one plan, `check`
    enumerates, anything else (or a block whose pragma line is not in
    `lines`) stays baseline.  A block may enumerate group variants only
    when the group probe puts it with at least one other kernel that could
    share accelerator state."""
    blocks = find_omp_blocks(unit)
    probe = form_groups(unit, blocks, {
        b.block_id: FlagSet(advancedload=True, group=True)
        for b in blocks if b.annotated})
    out = []
    for b in blocks:
        if lines is not None and b.line not in lines:
            out.append([VariantPlan.of(b.block_id, BASELINE)])
            continue
        group = probe.get(b.block_id)
        eligible = group is not None and len(group.block_ids) >= 2
        out.append(enumerate_variants(b.block_id, b.pragma, eligible))
    return out


def explore(unit: SourceUnit, out_dir,
            executor: Optional[ExecutorSpec] = None, repetitions: int = 5,
            cap: int = DEFAULT_VARIANT_CAP,
            lines: Optional[set[int]] = None) -> list[Measurement]:
    """The whole sweep, one variant at a time: build it, write it into
    `out_dir/variants` (`manifest.txt` comes last), execute it with a log in
    `out_dir/logs`, and drop it.  The analysis of each program shape is
    kept for the whole sweep and shared by its variants.  A variant that
    fails to build is a failed Measurement logging the diagnostic, with no
    file or manifest line."""
    executor = executor or ExecutorSpec()
    variants, logs = Path(out_dir) / "variants", Path(out_dir) / "logs"
    unit_variants = plans_for_unit(block_plans(unit, lines), cap=cap)
    # validates the executor and makes the log directory before any output
    measurements = run_exploration([], executor, repetitions, logs)
    variants.mkdir(parents=True, exist_ok=True)
    manifest = []
    shapes = {}  # at most 3 per check block: baseline, outlined, grouped
    for uv in unit_variants:
        try:
            rv = build_variant(unit, uv, shapes=shapes)
        except (TransformError, AnalysisError, PlanError) as e:
            _write_log(logs, uv.filename_sig, ["not built: %s" % e])
            measurements.append(
                Measurement.failure(uv.name, uv.signature_text, str(e)))
            continue
        manifest.append(write_variant(rv, Path(unit.filename).stem, variants))
        measurements += run_exploration([rv], executor, repetitions, logs)
    write_manifest(manifest, variants)
    return measurements
