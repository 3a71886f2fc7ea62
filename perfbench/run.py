"""hmppgen benchmark: end-to-end sweep metrics, or a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload wide2 --seed 1 --seconds 50 --trace 0

Every hmppgen command is its own child process (`python3 -m hmppgen.cli`
with `PYTHONPATH=src`), started only after the previous one has exited: a
closed loop with a single client.  One iteration is the workload's whole
command list; iterations repeat until `--seconds` have passed.  Set-up,
the correctness checks and the traced iterations are all outside the
timed region of the untraced iterations.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` untraced and traced iterations
alternate (the traced child is `perfbench/tracer.py`) and the JSON object
holds the per-layer metrics.  Every metric is also printed by name and
unit on the lines before it.  Work files go to `.perfbench/` under the
current directory.  See NOTES.md for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
DATA = Path("tests") / "data"
SETUP_FIRST = 4  # set-up samples before the first iteration
SETUP_EVERY_S = 3.0  # then one per this many seconds of iterations
GCC_SAMPLE = 3  # variants compiled per explored input and run
CORPUS = ["table1", "table3", "gemm64", "jacobi128", "jacobi_t6"]
# table1 reads uninitialised locals and table3 needs 400 MB of arrays, so
# only these corpus programs have an output worth comparing under gcc
CORPUS_GCC = ["gemm64", "jacobi128", "jacobi_t6"]
OPS = "2.7e9"
WIDE2_CAP = 2000
DEFAULT_CAP = 512  # hmppgen's own default --cap


@dataclass
class Command:
    kind: str  # explore | report | transform
    argv: list[str]
    input: str = ""
    out: Path | None = None  # explore's output directory


@dataclass
class Workload:
    name: str
    explore_inputs: dict[str, int]  # input -> cap
    parse_inputs: list[str]  # inputs parsed, not enumerated, in set-up
    gcc_inputs: list[str]
    commands: Callable[[Path], list[Command]]  # iteration dir -> commands


def _explore(src: str, out: Path, cap: int, *extra: str) -> Command:
    argv = ["explore", src, "--out", str(out)]
    if cap != DEFAULT_CAP:
        argv += ["--cap", str(cap)]
    return Command("explore", argv + list(extra), src, out)


def make_workload(name: str, seed: int, inputs: Path) -> Workload:
    if name in ("wide2", "large-unit"):
        src = inputs / (name + ".c")
        src.write_text(gen.GENERATORS[name](seed), encoding="utf-8")
        cap = WIDE2_CAP if name == "wide2" else DEFAULT_CAP
        return Workload(name, {str(src): cap}, [], [str(src)],
                        lambda d: [_explore(str(src), d / name, cap)])

    def session(d: Path) -> list[Command]:
        cmds = []
        for stem in CORPUS:
            src = str(DATA / (stem + ".c"))
            cmds.append(_explore(src, d / stem, DEFAULT_CAP, "--ops", OPS))
            cmds.append(Command("report", [
                "report", str(d / stem / "report.csv"),
                "--out", str(d / stem / "replay"), "--ops", OPS], src))
        cmds.append(Command("transform", [
            "transform", str(DATA / "inline_run.c"), "--out",
            str(d / "inline_run"), "--inline", "all"]))
        cmds.append(Command("transform", [
            "transform", str(DATA / "table5.c"), "--out", str(d / "table5"),
            "--dump-analysis", str(d / "table5" / "analysis.txt")]))
        return cmds

    return Workload(
        name, {str(DATA / (s + ".c")): DEFAULT_CAP for s in CORPUS},
        [str(DATA / "inline_run.c"), str(DATA / "table5.c")],
        [str(DATA / (s + ".c")) for s in CORPUS_GCC], session)


WORKLOADS = ["wide2", "large-unit", "corpus-session"]

# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], stdout: Path, stderr: Path, env: dict):
    """Runs one child to completion; returns (exit code, wall s, peak RSS MB)
    with the peak taken from the child's own rusage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class CmdResult:
    cmd: Command
    code: int
    wall: float
    rss_mb: float
    stdout: Path
    spans: Path | None


@dataclass
class Iteration:
    directory: Path
    traced: bool
    wall: float = 0.0
    results: list[CmdResult] = field(default_factory=list)


def run_iteration(wl: Workload, directory: Path, traced: bool,
                  env: dict) -> Iteration:
    io_dir = directory / "_io"
    io_dir.mkdir(parents=True)
    cmds = wl.commands(directory)
    it = Iteration(directory, traced)
    started = time.perf_counter()
    for k, cmd in enumerate(cmds):
        spans = io_dir / ("%d.spans.json" % k) if traced else None
        head = [sys.executable, str(HERE / "tracer.py"), str(spans)] \
            if traced else [sys.executable, "-m", "hmppgen.cli"]
        code, wall, rss = run_child(head + cmd.argv, io_dir / ("%d.out" % k),
                                    io_dir / ("%d.err" % k), env)
        it.results.append(CmdResult(cmd, code, wall, rss,
                                    io_dir / ("%d.out" % k), spans))
    it.wall = time.perf_counter() - started
    return it


class SetupProbe:
    """Times fresh `probe.py` processes.  Samples are taken before the
    first iteration and then after every iteration, in proportion to its
    length, so they spread over the run like the iterations do."""

    def __init__(self, wl: Workload, env: dict, io_dir: Path):
        spec = json.dumps({"enumerate": wl.explore_inputs,
                           "parse": wl.parse_inputs})
        self.argv = [sys.executable, str(HERE / "probe.py"), spec]
        self.out, self.err = io_dir / "probe.out", io_dir / "probe.err"
        self.env = env
        self.samples: list[float] = []
        _, self.counts = self._run()  # untimed: fills the bytecode cache

    def _run(self) -> tuple[float, dict]:
        code, wall, _ = run_child(self.argv, self.out, self.err, self.env)
        if code != 0:
            raise RuntimeError("set-up probe failed:\n"
                               + self.err.read_text(encoding="utf-8"))
        return wall, json.loads(self.out.read_text(encoding="utf-8"))

    def sample(self, times: int = 1):
        for _ in range(times):
            self.samples.append(self._run()[0])

# ---------------------------------------------------------------------------
# outputs and correctness checks


def csv_rows(path: Path) -> tuple[int, int]:
    """(rows, rows with a measured time) of a report.csv; (0, 0) if absent."""
    if not path.is_file():
        return 0, 0
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in list(csv.reader(f))[1:] if r]
    return len(rows), sum(1 for r in rows if len(r) > 2 and r[2] != "")


def digest(directory: Path) -> str:
    """Digest of every report.csv, manifest, variant and analysis file."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.suffix in (".csv", ".txt", ".c") and path.is_file() \
                and "_io" not in path.parts:
            h.update(str(path.relative_to(directory)).encode())
            h.update(b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def pareto(stdout: Path) -> list[str]:
    """Frontier members (variant and signature) a command printed; the
    numbers are left out because the CSV rounds them."""
    return [line.split(" time_ms=")[0]
            for line in stdout.read_text(encoding="utf-8").splitlines()
            if line.startswith("pareto ")]


class Checks:
    def __init__(self):
        self.made = 0
        self.failed: list[str] = []
        self.known: list[str] = []  # frontier replay, see NOTES.md

    def record(self, ok: bool, what: str, known_defect: bool = False):
        self.made += 1
        if not ok:
            (self.known if known_defect else self.failed).append(what)


def check_iterations(its: list[Iteration], counts: dict, checks: Checks):
    first = digest(its[0].directory)
    for it in its[1:]:
        checks.record(digest(it.directory) == first,
                      "digest of %s differs from %s"
                      % (it.directory.name, its[0].directory.name))
    for it in its:
        explored = {}
        for r in it.results:
            if r.cmd.kind == "explore":
                rows, _ = csv_rows(r.cmd.out / "report.csv")
                checks.record(rows == counts[r.cmd.input],
                              "%s: %d CSV rows for %d variants"
                              % (r.cmd.input, rows, counts[r.cmd.input]))
                explored[r.cmd.input] = pareto(r.stdout)
            elif r.cmd.kind == "report":
                checks.record(pareto(r.stdout) == explored[r.cmd.input],
                              "%s: report frontier differs from explore's"
                              % r.cmd.input, known_defect=True)


def gcc_run(src: Path, exe: Path) -> str | None:
    """Standard output of the compiled program, or None if it does not
    compile or run."""
    try:
        build = subprocess.run(["gcc", "-O1", "-w", str(src), "-o", str(exe),
                                "-lm"], capture_output=True)
        if build.returncode != 0:
            return None
        run = subprocess.run([str(exe)], capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return run.stdout.decode() if run.returncode == 0 else None


def check_variants(wl: Workload, it: Iteration, seed: int, checks: Checks,
                   work_dir: Path):
    """Compiles a seeded sample of emitted variants as they are (gcc ignores
    `#pragma hmpp`) and compares their output with the original's."""
    rng = random.Random("%s:%d:gcc" % (wl.name, seed))
    work_dir.mkdir(parents=True, exist_ok=True)
    for r in it.results:
        if r.cmd.kind != "explore" or r.cmd.input not in wl.gcc_inputs:
            continue
        ref = gcc_run(Path(r.cmd.input), work_dir / "ref.bin")
        checks.record(ref is not None, "%s: original does not compile or run"
                      % r.cmd.input)
        variants = sorted((r.cmd.out / "variants").glob("*.c"))
        for src in rng.sample(variants, min(GCC_SAMPLE, len(variants))):
            out = gcc_run(src, work_dir / "variant.bin")
            checks.record(ref is not None and out == ref,
                          "%s: output differs from the original" % src.name)

# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(its: list[Iteration], counts: dict) -> dict:
    per_it = []
    for it in its:
        measured = enumerated = 0
        explore_wall = 0.0
        for r in it.results:
            if r.cmd.kind == "explore":
                measured += csv_rows(r.cmd.out / "report.csv")[1]
                enumerated += counts[r.cmd.input]
                explore_wall += r.wall
        per_it.append({
            "wall": it.wall,
            "vps": measured / explore_wall if explore_wall else 0.0,
            "rss": max(r.rss_mb for r in it.results),
            "cmds": len(it.results),
            "cmd_fail": sum(1 for r in it.results if r.code != 0),
            "enumerated": enumerated, "measured": measured})
    attempted = sum(p["enumerated"] for p in per_it)
    failed = sum(p["enumerated"] - p["measured"] for p in per_it)
    return {
        "wall_s": statistics.median(p["wall"] for p in per_it),
        "variants_per_s": statistics.median(p["vps"] for p in per_it),
        "peak_rss_mb": statistics.median(p["rss"] for p in per_it),
        "cmd_fail_ratio": sum(p["cmd_fail"] for p in per_it)
        / sum(p["cmds"] for p in per_it),
        "variant_fail_ratio": failed / attempted if attempted else 0.0,
        "attempted": attempted,
        "failed": failed,
    }


def layer_metrics(it: Iteration) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced iteration, from its spans."""
    absent: set[str] = set()
    names, durs, parents, attrs = [], [], [], []
    roots = 0.0
    for r in it.results:
        data = json.loads(r.spans.read_text(encoding="utf-8"))
        absent.update(data["absent"])
        base = len(names)
        for name, start, end, parent, attr in data["spans"]:
            names.append(name)
            durs.append((end - start) / 1e6)
            parents.append(parent + base if parent >= 0 else -1)
            attrs.append(attr or {})
            if parent < 0:
                roots += durs[-1]
    in_build = []
    child_ms = [0.0] * len(names)
    for i, p in enumerate(parents):
        in_build.append(p >= 0 and (names[p] == "emit.build" or in_build[p]))
        if p >= 0:
            child_ms[p] += durs[i]

    def spans(name, per_variant=False):
        return [i for i, n in enumerate(names)
                if n == name and (in_build[i] or not per_variant)]

    builds = spans("emit.build")
    nv = max(1, len(builds))

    def ms(name, per_variant=False):
        total = sum(durs[i] for i in spans(name, per_variant))
        return total / nv if per_variant else total

    def calls(name):
        return len(spans(name, True)) / nv

    def pct(name, q):
        d = [durs[i] for i in spans(name)]
        return percentile(d, q) if d else 0.0

    parse_s = ms("cfront.parse") / 1e3
    tokens = sum(attrs[i].get("n", 0) for i in spans("cfront.tokenize")
                 if parents[i] >= 0 and names[parents[i]] == "cfront.parse")
    enum = [attrs[i] for i in spans("variants.enumerate")]
    enumerated = sum(a.get("n", 0) for a in enum)
    shapes = sum(a.get("shapes", 0) for a in enum)
    sims = [attrs[i].get("result") for i in spans("explore.simulate")]
    sims = [tuple(s) for s in sims if s]
    report_spans = [i for i, n in enumerate(names) if n.startswith("report.")]
    m = {
        "cfront.parse_ms": (ms("cfront.parse"), "ms"),
        "cfront.tokens_per_s": (tokens / parse_s if parse_s else 0.0, "1/s"),
        "cfront.resolve_calls_per_variant": (calls("cfront.resolve"),
                                             "count"),
        "cfront.resolve_ms_per_variant": (ms("cfront.resolve", True), "ms"),
        "cfront.print_ms_per_variant": (ms("cfront.print", True), "ms"),
        "variants.enumerated": (enumerated, "count"),
        "variants.shape_reuse_ratio": (enumerated / shapes if shapes else 0.0,
                                       "ratio"),
        "emit.build_ms.p50": (pct("emit.build", 0.5), "ms"),
        "emit.build_ms.p99": (pct("emit.build", 0.99), "ms"),
        "emit.build_self_ms_per_variant": (
            sum(durs[i] - child_ms[i] for i in builds) / nv, "ms"),
        "emit.unit_copy_ms_per_variant": (ms("emit.unit_copy", True), "ms"),
        "emit.attach_ms_per_variant": (ms("emit.attach", True), "ms"),
        "emit.write_ms": (ms("emit.write"), "ms"),
        "transform.find_blocks_ms_per_variant": (
            ms("transform.find_blocks", True), "ms"),
        "transform.outline_calls_per_variant": (calls("transform.outline"),
                                                "count"),
        "transform.outline_ms_per_variant": (ms("transform.outline", True),
                                             "ms"),
        "transform.inline_ms_per_variant": (ms("transform.inline", True),
                                            "ms"),
        "context.form_groups_ms_per_variant": (
            ms("context.form_groups", True), "ms"),
        "context.table_ms_per_variant": (ms("context.table", True), "ms"),
        "context.plan_ms_per_variant": (ms("context.plan", True), "ms"),
        "explore.simulate_ms.p50": (pct("explore.simulate", 0.5), "ms"),
        "explore.simulate_ms.p99": (pct("explore.simulate", 0.99), "ms"),
        "explore.distinct_result_ratio": (
            len(set(sims)) / len(sims) if sims else 0.0, "ratio"),
        "explore.variant_failures": (
            sum(attrs[i].get("failed", 0) for i in spans("explore.run")),
            "count"),
        "report.write_csv_ms": (ms("report.write_csv"), "ms"),
        "report.parse_csv_ms": (ms("report.parse_csv"), "ms"),
        "report.plot_ms": (ms("report.plot"), "ms"),
        "report.failures": (
            sum(1 for i in report_spans if "error" in attrs[i]), "count"),
        "cli.command_ms": (roots, "ms"),
    }
    return m, sorted(absent)

# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path("src") / "hmppgen" / "cli.py").is_file() \
            or not DATA.is_dir():
        print("error: run from the hmppgen repository root (src/hmppgen and "
              "tests/data are missing here)", file=sys.stderr)
        return 2

    root = WORK / args.workload
    shutil.rmtree(root, ignore_errors=True)
    (root / "inputs").mkdir(parents=True)
    env = child_env()
    wl = make_workload(args.workload, args.seed, root / "inputs")
    probe = SetupProbe(wl, env, root / "inputs")
    probe.sample(SETUP_FIRST)
    counts = probe.counts

    # Whole iterations (with --trace 1, untraced/traced pairs) until
    # --seconds have passed.
    its: list[Iteration] = []
    started = time.perf_counter()
    while not its or time.perf_counter() - started < args.seconds:
        step_started = time.perf_counter()
        for traced in (False, True)[:1 + args.trace]:
            its.append(run_iteration(wl, root / ("iter%d" % len(its)),
                                     traced, env))
        probe.sample(max(1, round((time.perf_counter() - step_started)
                                  / SETUP_EVERY_S)))

    checks = Checks()
    check_iterations(its, counts, checks)
    check_variants(wl, its[0], args.seed, checks, root / "gcc")
    plain = [it for it in its if not it.traced]
    e2e = end_to_end(plain, counts)
    ratios = {
        "cmd_fail_ratio": (e2e["cmd_fail_ratio"], "ratio"),
        "variant_fail_ratio": (e2e["variant_fail_ratio"], "ratio"),
        "check_fail_ratio": ((len(checks.failed) + len(checks.known))
                             / checks.made, "ratio"),
    }
    if args.trace == 0:
        metrics = {
            "wall_s": (e2e["wall_s"], "s"),
            "variants_per_s": (e2e["variants_per_s"], "1/s"),
            "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(probe.samples), "s"),
        }
        shown = dict(metrics, **ratios)
    else:
        traced = [it for it in its if it.traced]
        per_it = [layer_metrics(it) for it in traced]
        metrics = {name: (statistics.median(m[name][0] for m, _ in per_it),
                          unit) for name, (_, unit) in per_it[0][0].items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(it.wall for it in traced) / e2e["wall_s"],
            "ratio")
        metrics.update(ratios)
        shown = metrics
        for name in per_it[0][1]:
            print("absent: %s (renamed or removed; its metrics read 0)"
                  % name)

    print("workload %s seed %d: %d iterations (%d traced), %d commands each"
          % (args.workload, args.seed, len(its),
             sum(it.traced for it in its), len(its[0].results)))
    for name, (value, unit) in shown.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("checks: %d made, %d failed, %d known-defect failures"
          % (checks.made, len(checks.failed), len(checks.known)))
    for label, found in (("FAILED", checks.failed),
                         ("known defect", checks.known)):
        for what, times in Counter(found).items():
            print("%s (x%d): %s" % (label, times, what))
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": max(1, e2e["attempted"]),
        "failed": e2e["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
