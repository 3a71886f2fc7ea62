"""The sweep: enumerating the plan space and executing each variant into
a `report.Measurement`.

Two executor modes: `shell` builds and runs each variant through user
command templates, sampling a cumulative watt-hour counter around the
run; `simulated` replays the variant's transfer plan and statement
structure through a deterministic closed-form cost model.  The replay
runs the cost program its shape compiled once (`cost.CostProgram`: each
statement's CPU accesses and op charges, folded loop trips and kernel op
counts) against the variant's schedule, the transfers in the slots and
order in which the variant prints them, and its flags.  The
all-baseline variant replays the same way, over the function that holds
the check/fixed blocks, with no callsite and an empty schedule, so every
variant is costed by one model.  Being deterministic, a simulated
variant records one sample.

The simulator counts *logical* whole-object transfers: an upload is
charged only when the host copy changed since the last upload of that
symbol, a download only when an accelerator kernel wrote the symbol
since the last download.  Redundant per-callsite copies of unchanged
data are therefore free, which is exactly the waste the directives
remove, and grouped/noupdate plans come out ahead by construction.

The variants of a sweep are independent, so a large simulated sweep is
split across forked workers, one per CPU (`explore`); its outputs are
unchanged.  A shell sweep stays on one worker, because the runs it
times must not overlap.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import threading
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .context import LoadPlan, StorePlan, SyncPlan, TransferPlan, form_groups
from .cost import CallStep, CostProgram, LoopStep, Step
from .emit import (
    RenderedVariant, build_variant, shape_of, write_manifest, write_variant,
)
from .errors import (
    AnalysisError, ExploreError, PlanError, TransformError, read_text,
)
from .nodes import SourceUnit, Symbol
from .report import Measurement, median  # noqa: F401  (median re-exported)
from .transform import find_omp_blocks
from .variants import (
    BASELINE, DEFAULT_VARIANT_CAP, FlagSet, VariantPlan, enumerate_variants,
    plans_for_unit,
)


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


# -- the replay ---------------------------------------------------------------


class _Residency:
    """Whole-object transfer state per symbol: logical uploads move changed
    host data, logical downloads move accelerator-written data back.
    `sizes` holds each symbol's folded byte size."""

    def __init__(self, sizes: dict[Symbol, int], params: CostModelParams):
        self.sizes = sizes
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
            size = self.sizes[sym]
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
            size = self.sizes[sym]
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
    """Runs the shape's cost program with one variant's schedule and
    flags (`rv.flags`, by block id)."""

    def __init__(self, rv: RenderedVariant, params: CostModelParams):
        program: CostProgram = rv.program
        plan: TransferPlan = rv.plan
        self.body = program.body
        self.params = params
        self.res = _Residency(program.sizes, params)
        self.t_cpu = 0.0
        self.t_gpu = 0.0
        self.launches = 0
        self.gpu_ops = 0.0
        self.cpu_ops = 0.0
        self.overlap_saved = 0.0
        self.pending_async: dict[str, dict] = {}  # kernel -> span/cpu info
        # slot id -> the loads, synchronizes and stores printed there
        self.transfers = {program.slots[slot]: transfers
                          for slot, transfers in plan.schedule.items()}
        planned_stores = {(s.label, s.symbol) for s in plan.stores}
        # per kernel: its scope, (symbol, upload, read) of each parameter,
        # the symbols it writes and those its callsite downloads
        self.flags = rv.flags
        self.calls = []
        for k, cost in zip(rv.kernels, program.kernels):
            label = k.label
            inputs, writes, downloads = [], [], []
            for sym, reduced, reads, written in cost.params:
                mapped = plan.is_mapped(label, sym)
                noup = plan.has_noupdate(label, sym)
                inputs.append((sym, not noup and (reads or mapped), reads))
                if not written:
                    continue
                writes.append(sym)
                if mapped or noup:
                    continue  # an explicit store moves it when needed
                if not reduced and self.flags[k.block_id].delegatedstore \
                        and (label, sym) in planned_stores:
                    continue  # far store planned instead of the auto copy
                downloads.append(sym)
            self.calls.append((k, cost, plan.group_of.get(label) or label,
                               inputs, writes, downloads))

    def run(self) -> SimResult:
        self._run(self.body)
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

    def _run_slot(self, slot: int):
        """The slot's transfers, in their printed order."""
        for t in self.transfers[slot]:
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

    def _run(self, step: Step):
        if step.slot in self.transfers:
            self._run_slot(step.slot)
        if type(step) is CallStep:
            self._run_callsite(step.kernel)
            return
        for sym, write in step.events:
            if write:
                self.res.cpu_write(sym)
            else:
                self.res.cpu_read(sym)
        for ops in step.charges:
            self._cpu_time(ops)
        if type(step) is LoopStep:
            self._run_loop(step)
            return
        for s in step.stmts:
            self._run(s)
        if step.end in self.transfers:
            self._run_slot(step.end)

    def _run_loop(self, step: LoopStep):
        if step.init is not None:
            self._run(step.init)
        if step.trips <= 0:
            return
        # first iteration warms residency; the rest repeat its steady state
        self._cpu_time(step.header)
        self._run(step.body)
        if step.trips > 1:
            snapshot = self._counters()
            self._cpu_time(step.header)
            self._run(step.body)
            self._scale_delta(snapshot, step.trips - 2.0)

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

    def _run_callsite(self, index: int):
        k, cost, scope, inputs, writes, downloads = self.calls[index]
        # by-value argument evaluation happens on the CPU
        self._cpu_time(cost.arg_ops)
        for sym, upload, read in inputs:
            if upload:
                self.res.upload(scope, sym)
            if read:
                self.res.gpu_read(scope, sym)
        self.gpu_ops += cost.ops
        self.launches += 1
        span = cost.ops / self.params.gpu_throughput
        self.t_gpu += span
        for sym in writes:
            self.res.gpu_write(scope, sym)
        if self.flags[k.block_id].asynchronous:
            self.pending_async[k.label] = {
                "span": span, "cpu_since": 0.0, "downloads": downloads}
        else:
            for sym in downloads:
                self.res.download(sym)


def simulate_variant(rv: RenderedVariant,
                     params: CostModelParams = CostModelParams()) -> SimResult:
    """Deterministic closed-form cost of one rendered variant; the
    all-baseline variant replays its host function with no callsite."""
    params.validate()
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


def _check_run(executor: ExecutorSpec, repetitions: int,
               logs: Optional[Path]):
    """Validates a run's settings and makes its log directory."""
    executor.validate()
    if repetitions < 1:
        raise ExploreError("repetitions must be >= 1")
    if logs is not None:
        logs.mkdir(parents=True, exist_ok=True)


def _measure(rv: RenderedVariant, executor: ExecutorSpec, repetitions: int,
             logs: Optional[Path]) -> Measurement:
    """Executes one variant of a checked run and writes its log, which
    opens with the build diagnostics; a failure fails only its row."""
    log_lines = ["diagnostic: %s" % d for d in rv.diagnostics]
    log = log_lines.append
    if executor.mode == "simulated":
        try:
            sim = simulate_variant(rv, executor.params)
            log("simulated: " + sim.breakdown())
            m = Measurement.from_samples(rv.name, rv.signature_text,
                                         [(sim.time_s * 1000.0, sim.energy_J)])
        except ExploreError as e:
            log("simulation failed: %s" % e)
            m = Measurement.failure(rv.name, rv.signature_text, str(e))
    else:
        work = logs if logs is not None else Path(".")
        m = _run_shell_variant(rv, executor, repetitions, work, log)
    if logs is not None:
        _write_log(logs, rv.filename_sig, log_lines)
    return m


def run_exploration(variants: list[RenderedVariant], executor: ExecutorSpec,
                    repetitions: int = 5,
                    log_dir=None) -> list[Measurement]:
    """One Measurement per variant: the median of `repetitions` shell runs,
    or the one deterministic simulated sample; a failure fails only its
    row.  Logs open with the build diagnostics."""
    logs = Path(log_dir) if log_dir is not None else None
    _check_run(executor, repetitions, logs)
    return [_measure(rv, executor, repetitions, logs) for rv in variants]


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


# A sweep gets one worker per MIN_PER_WORKER variants, up to one per CPU.
# On a shared 2-vCPU x86 VM (Python 3.11), the first N variants of
# `table5.c` took, as medians of 12 alternating runs on one worker and on
# two pinned workers: N = 25, 23 -> 29 ms; N = 100,
# 50 -> 48 ms (two won 5 of 12); N = 150, 69 -> 62 ms (9 of 12); N = 200,
# 82 -> 69 ms (12 of 12).  The crossover is 100-150 variants, so two
# workers start at 200.
MIN_PER_WORKER = 100


def _cpus() -> int:
    """The CPUs this process may run on; 1 on a platform that cannot say,
    and so cannot pin a worker to a CPU either."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _worker_count(executor: ExecutorSpec, n_variants: int) -> int:
    """One worker per CPU for a large simulated sweep, else 1: shell runs
    are timed and must not overlap, and forking a process that runs other
    threads is unsafe."""
    if executor.mode != "simulated" or threading.active_count() > 1:
        return 1
    return max(1, min(_cpus(), n_variants // MIN_PER_WORKER))


def _in_workers(n: int, work) -> list:
    """`[work(0), ..., work(n - 1)]`: `work(0)` runs in this process and
    every other `work(k)` in a forked child, which pickles its result (or
    its exception) back through a pipe.  Every child is reaped before this
    returns or raises; a child's exception is raised here, and a child
    that ends without a result is an ExploreError.

    While the workers run, worker `k` is pinned to the `k`-th allowed CPU:
    unpinned, the scheduler was seen to keep a forked child on its
    parent's CPU for the whole of a sub-second sweep."""
    if n == 1:
        return [work(0)]
    allowed = sorted(os.sched_getaffinity(0))
    pids, pipes, payloads = [], [], None
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                os.sched_setaffinity(0, {allowed[k % len(allowed)]})
                _child(work, k, w)
            os.close(w)
            pids.append(pid)
            pipes.append(os.fdopen(r, "rb"))
        os.sched_setaffinity(0, {allowed[0]})
        results = [work(0)]
        payloads = [f.read() for f in pipes]
    finally:
        os.sched_setaffinity(0, allowed)
        for f in pipes:
            f.close()
        if payloads is None:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k, (data, status) in enumerate(zip(payloads, statuses), 1):
        if status != 0 or not data:
            raise ExploreError("sweep worker %d ended with exit status %d "
                               "and no result"
                               % (k, os.waitstatus_to_exitcode(status)))
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(work, k: int, w: int):
    """The body of forked worker `k`: writes its pickled outcome to the
    pipe `w` and exits without returning to the caller's frames."""
    status = 1
    try:
        try:
            outcome = True, work(k)
        except Exception as e:
            outcome = False, e
        with os.fdopen(w, "wb") as f:
            pickle.dump(outcome, f, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def explore(unit: SourceUnit, out_dir,
            executor: Optional[ExecutorSpec] = None, repetitions: int = 5,
            cap: int = DEFAULT_VARIANT_CAP,
            lines: Optional[set[int]] = None) -> list[Measurement]:
    """The whole sweep, one variant at a time: build it, write it into
    `out_dir/variants` (`manifest.txt` comes last), execute it with a log in
    `out_dir/logs`, and drop it.  Every program shape is analysed first and
    shared by its variants.  A variant that fails to build is a failed
    Measurement logging the diagnostic, with no file or manifest line.

    A large simulated sweep is split across one worker per CPU, worker `k`
    taking the variants whose index is `k` modulo the worker count; the
    outputs and the returned list are those of one worker."""
    executor = executor or ExecutorSpec()
    variants, logs = Path(out_dir) / "variants", Path(out_dir) / "logs"
    unit_variants = plans_for_unit(block_plans(unit, lines), cap=cap)
    _check_run(executor, repetitions, logs)
    variants.mkdir(parents=True, exist_ok=True)
    stem = Path(unit.filename).stem
    shapes = {}  # at most 3 per check block: baseline, outlined, grouped
    for uv in unit_variants:
        shape_of(unit, uv, shapes=shapes)
    n = _worker_count(executor, len(unit_variants))

    def sweep(k: int) -> list[tuple[int, Measurement, Optional[str]]]:
        rows = []
        for i in range(k, len(unit_variants), n):
            uv = unit_variants[i]
            try:
                rv = build_variant(unit, uv, shapes=shapes)
            except (TransformError, AnalysisError, PlanError) as e:
                _write_log(logs, uv.filename_sig, ["not built: %s" % e])
                rows.append((i, Measurement.failure(
                    uv.name, uv.signature_text, str(e)), None))
                continue
            line = write_variant(rv, stem, variants)
            rows.append((i, _measure(rv, executor, repetitions, logs), line))
        return rows

    rows = sorted((row for rows in _in_workers(n, sweep) for row in rows),
                  key=lambda row: row[0])
    write_manifest([line for _, _, line in rows if line is not None],
                   variants)
    return [m for _, m, _ in rows]
