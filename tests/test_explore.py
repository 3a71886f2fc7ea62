import errno
import gc
import importlib
import math
import os
import pkgutil
import random
import re
import subprocess
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from hmppgen.context import LoadPlan
from hmppgen.emit import build_variant
from hmppgen.errors import ExploreError
import hmppgen
import hmppgen.emit
import hmppgen.explore
import hmppgen.printer
from hmppgen.explore import (
    CostModelParams, ExecutorSpec, block_plans, explore, median,
    parse_executor_config, run_exploration, simulate_variant, wh_to_joules,
)
from hmppgen.parser import parse_translation_unit
from hmppgen.transform import find_omp_blocks
from hmppgen.variants import (
    Signature, UnitVariant, VariantPlan, decode_signature, plans_for_unit,
)

from conftest import DATA, load, parse_fixture


def make_variant(name, sig_by_block):
    unit = parse_fixture(name)
    blocks = find_omp_blocks(unit)
    plans = tuple(VariantPlan.of(
        b.block_id,
        decode_signature(Signature(sig_by_block.get(b.block_id, (0, 0, 0)))))
        for b in blocks)
    uv = UnitVariant(str(sig_by_block), plans, tuple(range(len(plans))))
    return build_variant(unit, uv)


def drop_loads(rv):
    """Sabotage: no early load runs, so noupdate reads unloaded data."""
    for transfers in rv.plan.schedule.values():
        transfers[:] = [t for t in transfers if not isinstance(t, LoadPlan)]


# -- median ----------------------------------------------------------------------


def test_median_odd():
    assert median([3, 1, 2]) == 2


def test_median_even_is_mean_of_middle_two():
    # oracle: sort and average the two central elements
    data = [1, 2, 3, 4]
    mid = sorted(data)
    assert median(data) == (mid[1] + mid[2]) / 2 == 2.5


def test_median_singleton():
    assert median([7]) == 7


def test_median_empty_is_an_error():
    with pytest.raises(ExploreError):
        median([])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=32), min_size=1, max_size=50))
def test_median_permutation_invariant_and_bounded(data):
    m = median(data)
    assert min(data) <= m <= max(data)
    shuffled = list(data)
    random.Random(7).shuffle(shuffled)
    assert median(shuffled) == m


# -- unit conversion ----------------------------------------------------------------


def test_wh_to_joules_exact():
    assert wh_to_joules(1) == 3600
    assert wh_to_joules(0) == 0


def test_wh_to_joules_matches_reported_energy():
    # the 17428 J baseline corresponds to 4.841 Wh within rounding
    assert abs(wh_to_joules(4.841) - 17428) < 1
    assert abs(17428 / 3600 - 4.841) < 0.001


def test_wh_to_joules_rejects_negative():
    with pytest.raises(ExploreError):
        wh_to_joules(-0.1)


# -- cost model -----------------------------------------------------------------------


def test_params_must_be_positive():
    with pytest.raises(ExploreError):
        CostModelParams(h2d_bandwidth=0).validate()
    with pytest.raises(ExploreError):
        CostModelParams(power_memory=-1).validate()


def test_degenerate_workload_costs_one_launch():
    src = """int main() {
    #pragma omp parallel for check
    for (int q = 0; q < 0; q++) {
        int t = q;
        t = t + 1;
    }
    return 0;
}
"""
    unit = parse_translation_unit(src)
    blocks = find_omp_blocks(unit)
    uv = UnitVariant("v", (VariantPlan.of(1, decode_signature(Signature((0, 0, 1)))),), (0,))
    rv = build_variant(unit, uv)
    params = CostModelParams()
    sim = simulate_variant(rv, params)
    assert sim.h2d_bytes == 0 and sim.d2h_bytes == 0
    assert sim.launches == 1
    assert math.isclose(sim.time_s, params.kernel_launch_overhead)
    expected_energy = (params.power_cpu_idle + params.power_gpu_active
                       + params.power_memory) * params.kernel_launch_overhead
    assert math.isclose(sim.energy_J, expected_energy)


def table5_sims(params=None):
    grouped = make_variant("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)})
    naive = make_variant("table5.c", {1: (0, 0, 1), 2: (0, 0, 1)})
    p = params or CostModelParams()
    return simulate_variant(grouped, p), simulate_variant(naive, p)


def test_grouped_vs_naive_transfer_counts():
    sg, sn = table5_sims()
    assert sg.h2d_array_count == 2
    assert sg.d2h_array_count == 1
    assert sn.h2d_array_count + sn.d2h_array_count == 396
    assert sg.time_s < sn.time_s
    assert sg.energy_J < sn.energy_J


def test_doubling_h2d_bandwidth_halves_the_load_component():
    base = CostModelParams()
    fast = CostModelParams(h2d_bandwidth=base.h2d_bandwidth * 2)
    rv = make_variant("table5.c", {1: (0, 0, 1), 2: (0, 0, 1)})
    s1 = simulate_variant(rv, base)
    s2 = simulate_variant(rv, fast)
    load_component = s1.h2d_bytes / base.h2d_bandwidth
    assert math.isclose(s1.time_s - s2.time_s, load_component / 2,
                        rel_tol=1e-9)


def test_monotonicity_group_noupdate_never_hurts():
    plain = simulate_variant(make_variant("table5.c",
                                          {1: (0, 0, 1), 2: (0, 0, 1)}))
    better = simulate_variant(make_variant("table5.c",
                                           {1: (9, 3, 0), 2: (9, 3, 0)}))
    assert better.time_s < plain.time_s
    assert better.energy_J < plain.energy_J
    adv_only = simulate_variant(make_variant("table5.c",
                                             {1: (8, 1, 0), 2: (8, 1, 0)}))
    assert better.time_s <= adv_only.time_s
    assert better.energy_J <= adv_only.energy_J


def test_async_overlap_never_slows_down():
    sync = simulate_variant(make_variant("jacobi_t6.c", {2: (9, 1, 0)}))
    asy = simulate_variant(make_variant("jacobi_t6.c", {2: (13, 1, 0)}))
    assert asy.time_s <= sync.time_s


def test_unsound_plan_aborts():
    rv = make_variant("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)})
    drop_loads(rv)
    with pytest.raises(ExploreError) as exc:
        simulate_variant(rv)
    assert "unsound" in str(exc.value)


def test_simulation_is_deterministic():
    a = simulate_variant(make_variant("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)}))
    b = simulate_variant(make_variant("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)}))
    assert a == b


def printed_transfers(source):
    """("sync", label) and ("store", variable) in the order `source` prints
    its synchronize and delegatedstore directives."""
    out = []
    text = source.replace(" &\n#pragma hmpp & ", " ")
    for line in text.splitlines():
        words = line.split()
        if words[:2] != ["#pragma", "hmpp"]:
            continue
        if "synchronize" in words:
            out.append(("sync", words[words.index("synchronize") - 1]))
        elif "delegatedstore," in words:
            out += [("store", addr.lstrip("&"))
                    for addr in re.findall(r'\.addr="([^"]+)"', line)]
    return out


def test_replay_runs_transfers_in_printed_order(monkeypatch):
    # the replay stores and synchronizes exactly as the variant prints:
    # downloads inside a callsite or a synchronize are not directives
    replay, residency = hmppgen.explore._Replay, hmppgen.explore._Residency
    inside, order = [], []

    def nested(method, record=None):
        def wrapped(self, arg):
            if record is not None:
                order.append((record, arg))
            inside.append(arg)
            try:
                return method(self, arg)
            finally:
                inside.pop()
        return wrapped

    def download(self, sym, real=residency.download):
        if not inside:
            order.append(("store", sym.name))
        return real(self, sym)

    monkeypatch.setattr(residency, "download", download)
    monkeypatch.setattr(replay, "_finish_async",
                        nested(replay._finish_async, "sync"))
    monkeypatch.setattr(replay, "_run_callsite", nested(replay._run_callsite))
    unit = parse_fixture("async_order.c")
    shapes, checked = {}, 0
    for uv in plans_for_unit(block_plans(unit)):
        rv = build_variant(unit, uv, shapes=shapes)
        if rv.table is None:
            continue
        order.clear()
        simulate_variant(rv)
        assert order == printed_transfers(rv.source), uv.signature_text
        checked += any(kind == "sync" for kind, _ in order) \
            and any(kind == "store" for kind, _ in order)
        if uv.filename_sig == "13_0_0":
            label = rv.kernels[0].label
            assert order == [("sync", label), ("store", "A")]
    assert checked >= 4


# -- run_exploration ---------------------------------------------------------------


def variants_for_sweep():
    return [make_variant("table5.c", {1: s, 2: s})
            for s in ((0, 0, 0), (0, 0, 1), (9, 1, 0), (11, 3, 0))]


def test_simulated_sweep_records_one_sample():
    # the simulator is deterministic, so repeating it adds no information:
    # whatever the repetitions, a row holds the one (time, energy) sample
    ms = run_exploration(variants_for_sweep(), ExecutorSpec(), repetitions=5)
    assert len(ms) == 4
    for m in ms:
        assert m.samples == [(m.time_ms, m.energy_J)]


def test_single_repetition_median_is_the_sample():
    ms = run_exploration(variants_for_sweep()[:1], ExecutorSpec(),
                         repetitions=1)
    assert ms[0].samples[0] == (ms[0].time_ms, ms[0].energy_J)


def test_sweep_is_restartable():
    vs = variants_for_sweep()
    a = run_exploration(vs, ExecutorSpec(), repetitions=3)
    b = run_exploration(vs, ExecutorSpec(), repetitions=3)
    assert a == b


def test_failures_do_not_abort_the_sweep():
    vs = variants_for_sweep()
    drop_loads(vs[3])  # unsound: fails in the simulator
    ms = run_exploration(vs, ExecutorSpec(), repetitions=2)
    assert len(ms) == 4
    assert not ms[0].failed and ms[3].failed
    assert "unsound" in ms[3].reason


def test_repetitions_must_be_positive(tmp_path):
    # checked before the sweep writes anything
    with pytest.raises(ExploreError):
        explore(parse_fixture("gemm64.c"), tmp_path / "out", repetitions=0)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ExploreError):
        run_exploration([], ExecutorSpec(), repetitions=0)


# -- explore -----------------------------------------------------------------------


def test_explore_keeps_one_variant_in_flight(tmp_path, monkeypatch):
    build = hmppgen.explore.build_variant
    built = []

    def tracked(unit, uv, *args, **kwargs):
        gc.collect()
        assert sum(ref() is not None for ref in built) <= 1
        rv = build(unit, uv, *args, **kwargs)
        built.append(weakref.ref(rv))
        return rv

    monkeypatch.setattr(hmppgen.explore, "build_variant", tracked)
    ms = explore(parse_fixture("gemm64.c"), tmp_path, repetitions=1)
    assert len(built) == len(ms) > 2
    assert not any(m.failed for m in ms)


def test_explore_analyses_each_shape_once(tmp_path, monkeypatch):
    # pinned_pair.c: 43 variants in 3 shapes of 0+1, 1+1 and 2 groupable
    # kernels plus the pinned one, so 1 + 2 + 2 outlinings in all
    outline = hmppgen.emit.outline_block
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].block_id)
        return outline(*args, **kwargs)

    monkeypatch.setattr(hmppgen.emit, "outline_block", counted)
    ms = explore(parse_fixture("pinned_pair.c"), tmp_path, repetitions=1)
    assert len(ms) == 43 and not any(m.failed for m in ms)
    assert len(calls) == 5


def test_a_shape_is_walked_once_for_all_its_variants(monkeypatch):
    # once each table5.c shape is analysed, rendering and simulating the
    # rest of its variants walks no statement tree and makes no placement
    # query: no statement printing, no op counting, no trip or size
    # folding, no search of the table's events for a transfer point
    walkers = ("stmt_own_ops", "expr_ops", "loop_trips", "fold_expr",
               "walk_exprs", "load_point", "first_cpu_read_site",
               "last_cpu_write_site", "address_disabled")
    modules = [importlib.import_module("hmppgen." + m.name)
               for m in pkgutil.iter_modules(hmppgen.__path__)]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    unit = parse_fixture("table5.c")
    uvs = plans_for_unit(block_plans(unit), cap=2000)
    shapes, first = {}, {}
    for uv in uvs:
        first.setdefault(tuple((p.block_id, not p.flags.baseline,
                                p.flags.group and not p.flags.baseline)
                               for p in uv.plans), uv)
    for uv in first.values():
        simulate_variant(build_variant(unit, uv, shapes=shapes))
    assert len(uvs) == 1849 and len(first) == len(shapes) == 9

    originals = {id(getattr(m, n)): (n, getattr(m, n))
                 for m in modules for n in walkers if hasattr(m, n)}
    for m in modules:
        for key, value in list(vars(m).items()):
            if id(value) in originals:
                monkeypatch.setattr(m, key, counted(*originals[id(value)]))
    printer = hmppgen.printer._Printer
    monkeypatch.setattr(printer, "stmt",
                        counted("_Printer.stmt", printer.stmt))
    assert {name for name, _ in originals.values()} == set(walkers)

    warmed = {id(uv) for uv in first.values()}
    rest = [uv for uv in uvs if id(uv) not in warmed]
    for uv in rest:
        simulate_variant(build_variant(unit, uv, shapes=shapes))
    assert len(rest) == 1840
    assert calls == Counter()


def test_explore_logs_build_diagnostics(tmp_path):
    # every outlined variant inlines `scaled`, which reads the global `scale`
    ms = explore(parse_fixture("global_helper.c"), tmp_path, repetitions=1)
    assert len(ms) == 22 and not any(m.failed for m in ms)
    logs = sorted((tmp_path / "logs").glob("*.log"))
    assert len(logs) == 22
    first_lines = [p.read_text().splitlines()[0] for p in logs]
    assert first_lines.count(
        "diagnostic: %s:6: codelet _instr_for_ol_15_main: identifier 'scale' "
        "does not resolve to a parameter or local"
        % (DATA / "global_helper.c")) == 21
    assert (tmp_path / "logs" / "0_0_0.log").read_text().startswith(
        "simulated: ")


def test_explore_checks_its_settings_once(tmp_path, monkeypatch):
    check = hmppgen.explore._check_run
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(hmppgen.explore, "_check_run", counted)
    ms = explore(parse_fixture("gemm64.c"), tmp_path, repetitions=1)
    assert len(ms) > 2 and len(calls) == 1


# -- sweep workers ------------------------------------------------------------------


def force_workers(monkeypatch, n):
    """Splits every simulated sweep of at least `n` variants across `n`
    workers, whatever the host's CPU count."""
    monkeypatch.setattr(hmppgen.explore, "_cpus", lambda: n)
    monkeypatch.setattr(hmppgen.explore, "MIN_PER_WORKER", 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count(monkeypatch):
    monkeypatch.setattr(hmppgen.explore, "_cpus", lambda: 2)
    count = hmppgen.explore._worker_count
    least = 2 * hmppgen.explore.MIN_PER_WORKER
    assert count(ExecutorSpec(), least) == 2
    assert count(ExecutorSpec(), 100 * least) == 2
    assert count(ExecutorSpec(), least - 1) == 1
    shell = ExecutorSpec(mode="shell", build="cc {file} -o {exe}",
                         energy_cmd="echo 0")
    assert count(shell, 100 * least) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert count(ExecutorSpec(), least) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_worker_exception_is_raised_by_explore(tmp_path, monkeypatch):
    force_workers(monkeypatch, 2)
    write, parent = hmppgen.explore.write_variant, os.getpid()

    def full_disk_in_workers(rv, stem, out):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, "No space left on device",
                          rv.filename_sig)
        return write(rv, stem, out)

    monkeypatch.setattr(hmppgen.explore, "write_variant", full_disk_in_workers)
    with pytest.raises(OSError) as info:
        explore(parse_fixture("gemm64.c"), tmp_path, repetitions=1)
    assert info.value.errno == errno.ENOSPC
    assert_no_child_left()


def test_a_worker_that_dies_is_an_explore_error(tmp_path, monkeypatch):
    force_workers(monkeypatch, 2)
    write, parent = hmppgen.explore.write_variant, os.getpid()

    def exit_in_workers(rv, stem, out):
        if os.getpid() != parent:
            os._exit(3)
        return write(rv, stem, out)

    monkeypatch.setattr(hmppgen.explore, "write_variant", exit_in_workers)
    with pytest.raises(ExploreError, match="worker 1 ended with exit status 3"):
        explore(parse_fixture("gemm64.c"), tmp_path, repetitions=1)
    assert_no_child_left()


def test_an_interrupted_sweep_reaps_its_workers(tmp_path, monkeypatch):
    force_workers(monkeypatch, 2)
    write, parent = hmppgen.explore.write_variant, os.getpid()

    def interrupt_here(rv, stem, out):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return write(rv, stem, out)

    monkeypatch.setattr(hmppgen.explore, "write_variant", interrupt_here)
    allowed = os.sched_getaffinity(0)
    with pytest.raises(KeyboardInterrupt):
        explore(parse_fixture("gemm64.c"), tmp_path, repetitions=1)
    assert_no_child_left()
    assert os.sched_getaffinity(0) == allowed


# -- one name, two declarations -------------------------------------------------


def test_shadowed_array_is_charged_its_own_bytes():
    # the kernel reads `double A[64]`; the later block's `float A[4]` is
    # another array, with its own events
    rv = make_variant("shadow_array.c", {1: (0, 0, 1)})
    assert "h2d_bytes=512 " in simulate_variant(rv).breakdown()
    [k] = rv.kernels
    [p] = [p for p in k.array_params if p.name == "A"]
    outer = rv.table.caller(k, p)
    [inner] = [s for s in rv.table.events if s.name == "A" and s is not outer]
    assert (outer.elem_type, inner.elem_type) == ("double", "float")
    assert [(e.kind, e.host.kind) for e in rv.table.of(outer)] \
        == [("write", "CPU"), ("read", "GPU")]


def test_one_name_for_two_arrays_is_never_mapped_by_name(tmp_path):
    # the second block reads an inner `A` that shadows the first block's;
    # a mapbyname listing A would alias the two arrays
    ms = explore(parse_fixture("shadow_pair.c"), tmp_path, repetitions=1,
                 cap=2000)
    assert len(ms) == 1849
    assert [m.reason for m in ms if m.failed] == []
    mapped = {line for p in (tmp_path / "variants").glob("*.c")
              for line in p.read_text().splitlines() if "mapbyname" in line}
    assert mapped == {"#pragma hmpp <group0_11> mapbyname, B",
                      "#pragma hmpp <group0_20> mapbyname, B"}


SHADOWED_BOUND = """int printf(const char *, ...);
int main() {
    int i;
    double A[64];
    double C[64];
    for (i = 0; i < 64; i++) {
        A[i] = i;
    }
    {
        int n = 4;
        printf("%d\\n", n);
    }
    {
        int n = 64;
        #pragma omp parallel for check
        for (i = 0; i < n; i++) {
            C[i] = A[i] * 2.0;
        }
    }
    printf("%g\\n", C[5]);
    return 0;
}
"""


def test_shadowed_loop_bound_folds_to_its_own_constant():
    # the kernel loop runs to the `n = 64` it sees, not to the earlier
    # block's `n = 4`: the same count as with that one renamed, here
    # init 1 + 64 trips of (cond 1 + update 1 + body 4) = 385
    renamed = SHADOWED_BOUND.replace("int n = 4;", "int m = 4;") \
        .replace('", n);', '", m);')
    uv = UnitVariant("v", (VariantPlan.of(
        1, decode_signature(Signature((0, 0, 1)))),), (0,))
    ops = [simulate_variant(build_variant(parse_translation_unit(src),
                                          uv)).gpu_ops
           for src in (SHADOWED_BOUND, renamed)]
    assert ops == [385.0, 385.0]


# -- one cost model for the baseline and the variants ---------------------------

NESTED_FOR = """int main() {
    double A[4][8];
    int i, j;
    #pragma omp parallel for check
    for (i = 0; i < 4; i++) {
        for (j = 0; j < 8; j++) {
            A[i][j] = 0.0;
        }
    }
    return 0;
}
"""

ASSIGNED_WHILE = """int main() {
    double A[16];
    int a;
    int i;
    a = 0;
    while (a < 10) {
        a = a + 1;
    }
    #pragma omp parallel for check
    for (i = 0; i < 16; i++) {
        A[i] = i;
    }
    return 0;
}
"""

HELPER_IN_LOOP = """double twice(double x) {
    return x * 2.0;
}
int main() {
    double A[8];
    double s;
    int i, t;
    s = 1.0;
    for (t = 0; t < 5; t++) {
        s = twice(s);
    }
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        A[i] = s;
    }
    return 0;
}
"""

HELPER_IN_DECL = """double twice(double x) {
    return x * 2.0;
}
int main() {
    double A[8];
    double s;
    int i, t;
    s = 0.0;
    for (t = 0; t < 5; t++) {
        double y = twice(1.0);
        if (twice(y) > 1.0) {
            s = s + y;
        }
    }
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        A[i] = s;
    }
    return 0;
}
"""

RESIZED_ARRAY = """int main() {
    int n = 64;
    double A[n];
    int i;
    n = 4;
    #pragma omp parallel for check
    for (i = 0; i < 4; i++) {
        A[i] = A[i] + 1.0;
    }
    return 0;
}
"""


# the check block sits in `compute`, and main runs 1,000 trips before it
BLOCK_IN_HELPER = """int printf(const char *, ...);
void compute(double A[64]) {
    int i;
    #pragma omp parallel for check
    for (i = 0; i < 64; i++) {
        A[i] = A[i] * 2.0 + 1.0;
    }
}
int main() {
    double A[64];
    int t;
    double s = 0;
    for (t = 0; t < 1000; t++) {
        s = s + 1;
    }
    compute(A);
    printf("%g %g\\n", s, A[3]);
    return 0;
}
"""


@pytest.mark.parametrize("src, sig, cpu_ops, gpu_ops, d2h_bytes", [
    # a loop's init is charged once per entry: the inner `j = 0` 4 times,
    # 1 + 4 * (cond 1 + update 1 + (1 + 8 * (1 + 1 + `A[i][j] = 0.0` 3)))
    (NESTED_FOR, (0, 0, 0), 173, 0, 0),
    (NESTED_FOR, (0, 0, 1), 0, 173, 4 * 8 * 8),
    # `a = 0` folds, so the while runs 10 trips in both: `a = 0` 1 +
    # 10 * (cond 1 + `a = a + 1` 2), and the kernel loop
    # 1 + 16 * (1 + 1 + `A[i] = i` 2) = 65 on either side
    (ASSIGNED_WHILE, (0, 0, 0), 31 + 65, 0, 0),
    (ASSIGNED_WHILE, (0, 0, 1), 31, 65, 16 * 8),
    # the helper's 1 op is charged on each of the 5 trips: `s = 1.0` 1 +
    # 1 + 5 * (1 + 1 + `s = twice(s)` 2 + `x * 2.0` 1), and the kernel
    # loop 1 + 8 * (1 + 1 + `A[i] = s` 2) = 33
    (HELPER_IN_LOOP, (0, 0, 0), 27 + 33, 0, 0),
    (HELPER_IN_LOOP, (0, 0, 1), 27, 33, 8 * 8),
    # a helper called in a declaration or an `if` condition is charged
    # too: `s = 0.0` 1 + 1 + 5 * (1 + 1 + `y = twice(1.0)` (1 + 1) +
    # `twice(y) > 1.0` (2 + 1) + `s = s + y` 2), and the kernel loop 33
    (HELPER_IN_DECL, (0, 0, 0), 47 + 33, 0, 0),
    (HELPER_IN_DECL, (0, 0, 1), 47, 33, 8 * 8),
    # A holds the 64 elements it was declared with, although `n = 4`
    # later: `n = 4` 1 on the host, 1 + 4 * (1 + 1 + `A[i] = A[i] + 1.0` 4)
    # in the kernel
    (RESIZED_ARRAY, (0, 0, 0), 1 + 25, 0, 0),
    (RESIZED_ARRAY, (0, 0, 1), 1, 25, 64 * 8),
    # the baseline is costed over `compute`, as its variants are, not over
    # main's loop: 1 + 64 * (1 + 1 + `A[i] = A[i] * 2.0 + 1.0` 5)
    (BLOCK_IN_HELPER, (0, 0, 0), 449, 0, 0),
    (BLOCK_IN_HELPER, (0, 0, 1), 0, 449, 64 * 8),
], ids=["nested-for-baseline", "nested-for-kernel", "assigned-while-baseline",
        "assigned-while-kernel", "helper-in-loop-baseline",
        "helper-in-loop-kernel", "helper-in-decl-baseline",
        "helper-in-decl-kernel", "resized-array-baseline",
        "resized-array-kernel", "block-in-helper-baseline",
        "block-in-helper-kernel"])
def test_ops_match_hand_counts(src, sig, cpu_ops, gpu_ops, d2h_bytes):
    uv = UnitVariant("v", (VariantPlan.of(
        1, decode_signature(Signature(sig))),), (0,))
    sim = simulate_variant(build_variant(parse_translation_unit(src), uv))
    assert (sim.cpu_ops, sim.gpu_ops, sim.d2h_bytes) \
        == (cpu_ops, gpu_ops, d2h_bytes)


# -- executor config -----------------------------------------------------------------


def test_parse_simulated_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# comment\nmode = simulated\ngpu_throughput = 1e12\n")
    spec = parse_executor_config(cfg)
    assert spec.mode == "simulated"
    assert spec.params.gpu_throughput == 1e12


def test_shell_config_requires_file_placeholder(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = shell\nbuild = gcc -o prog\nenergy_cmd = cat e\n")
    with pytest.raises(ExploreError) as exc:
        parse_executor_config(cfg)
    assert "{file}" in str(exc.value)


def test_shell_config_requires_energy_source(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = shell\nbuild = gcc {file} -o {exe}\n")
    with pytest.raises(ExploreError) as exc:
        parse_executor_config(cfg)
    assert "energy" in str(exc.value)


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = simulated\nwarp_drive = 9\n")
    with pytest.raises(ExploreError):
        parse_executor_config(cfg)


# -- shell executor -------------------------------------------------------------------


ENERGY_METER = """#!/bin/sh
f="{state}"
v=$(cat "$f" 2>/dev/null || echo 0)
v=$((v + 5))
echo $v > "$f"
echo "0.00$v"
"""


def _meter(tmp_path):
    meter = tmp_path / "meter.sh"
    meter.write_text(ENERGY_METER.format(state=tmp_path / "wh.state"))
    meter.chmod(0o755)
    return meter


def test_shell_executor_runs_and_measures(tmp_path):
    rv = make_variant("gemm64.c", {1: (0, 0, 0)})
    meter = _meter(tmp_path)
    spec = ExecutorSpec(mode="shell",
                        build="gcc -O1 -w {file} -o {exe} -lm",
                        run="{exe}", timeout=60,
                        energy_cmd="sh %s" % meter)
    ms = run_exploration([rv], spec, repetitions=2, log_dir=tmp_path / "logs")
    assert len(ms) == 1 and not ms[0].failed
    assert ms[0].time_ms > 0
    assert ms[0].energy_J > 0  # cumulative counter advanced between samples
    log = (tmp_path / "logs" / ("%s.log" % rv.filename_sig)).read_text()
    assert "build:" in log and "rep 0:" in log


def test_shell_executor_records_build_fail48ure(tmp_path):
    rv = make_variant("gemm64.c", {1: (0, 0, 0)})
    meter = _meter(tmp_path)
    spec = ExecutorSpec(mode="shell", build="false {file} {exe}",
                        run="{exe}", timeout=30,
                        energy_cmd="sh %s" % meter)
    ms = run_exploration([rv], spec, repetitions=1, log_dir=tmp_path / "logs")
    assert ms[0].failed and "build" in ms[0].reason


def test_shell_build_timeout_fails_only_its_row(tmp_path):
    rv = make_variant("gemm64.c", {1: (0, 0, 0)})
    meter = _meter(tmp_path)
    spec = ExecutorSpec(mode="shell",
                        build="sleep 2; gcc -O1 -w {file} -o {exe} -lm",
                        run="{exe}", timeout=0.3,
                        energy_cmd="sh %s" % meter)
    ms = run_exploration([rv], spec, repetitions=1, log_dir=tmp_path / "logs")
    assert len(ms) == 1
    assert ms[0].failed and ms[0].reason == "build timeout after 0.3s"
    log = (tmp_path / "logs" / ("%s.log" % rv.filename_sig)).read_text()
    assert "build timeout" in log


def test_hung_energy_source_fails_only_its_row(tmp_path, monkeypatch):
    # the energy command hangs only around the second variant's run
    rvs = [make_variant("gemm64.c", {1: sig})
           for sig in ((0, 0, 0), (0, 0, 1), (8, 0, 0))]
    energy = "sh %s" % _meter(tmp_path)
    hung = "%s.c" % rvs[1].filename_sig
    real_run = subprocess.run
    builds = []

    def run(cmd, *args, **kwargs):
        if cmd.startswith("true "):
            builds.append(cmd)
        elif cmd == energy and hung in builds[-1]:
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(hmppgen.explore.subprocess, "run", run)
    spec = ExecutorSpec(mode="shell", build="true {file} {exe}", run="true",
                        timeout=5, energy_cmd=energy)
    ms = run_exploration(rvs, spec, repetitions=1, log_dir=tmp_path / "logs")
    assert [m.failed for m in ms] == [False, True, False]
    assert ms[1].reason == "energy source timed out after 30s"
    log = (tmp_path / "logs" / ("%s.log" % rvs[1].filename_sig)).read_text()
    assert "rep 0: energy source timed out after 30s" in log
