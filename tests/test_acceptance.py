"""Acceptance suite: one test per criterion, one PASS/FAIL line each."""

import itertools
import random
import time
from pathlib import Path

from hmppgen.cli import main as cli_main
from hmppgen.emit import build_variant
from hmppgen.explore import (
    block_plans, median, simulate_variant, wh_to_joules,
)
from hmppgen.parser import parse_file, parse_translation_unit, strip_pragmas
from hmppgen.printer import print_unit
from hmppgen.report import (
    TradeoffPoint, find_baseline, gops_per_watt, pareto_frontier, parse_csv,
    speedup, write_csv,
)
from hmppgen.transform import find_omp_blocks, inline_calls_in_place
from hmppgen.variants import (
    BASELINE, FlagSet, Signature, UnitVariant, VariantPlan, decode_signature,
    encode_signature, enumerate_variants, feasible_flag_sets,
)

from conftest import DATA, cc_run, load, structurally_equal

_VERDICTS = []


def verdict(num, title):
    def deco(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %d (%s): FAIL" % (num, title))
                raise
            print("ACCEPTANCE %d (%s): PASS" % (num, title))
        return wrapper
    return deco


def build(name, sig_by_block):
    unit = parse_file(DATA / name)
    blocks = find_omp_blocks(unit)
    plans = tuple(VariantPlan.of(
        b.block_id,
        decode_signature(Signature(sig_by_block.get(b.block_id, (0, 0, 0)))))
        for b in blocks)
    return build_variant(unit, UnitVariant("v", plans,
                                           tuple(range(len(plans)))))


@verdict(1, "golden transformations")
def test_criterion_1_golden_transformations():
    started = time.perf_counter()
    assert structurally_equal(build("table1.c", {1: (0, 0, 1)}).source,
                              load("table1.golden.c"))
    assert structurally_equal(build("table3.c", {1: (0, 0, 1)}).source,
                              load("table3.golden.c"))
    table5 = build("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)}).source
    assert structurally_equal(table5, load("table5.golden.c"))
    inlined = parse_file(DATA / "table9.c")
    inline_calls_in_place(inlined, "all")
    assert structurally_equal(print_unit(inlined), load("table9.golden.c"))

    lines = table5.splitlines()
    loads = [i for i, l in enumerate(lines) if "advancedload" in l]
    assert len(loads) == 1, "a single advancedload"
    loop_at = next(i for i, l in enumerate(lines) if "for (index = 0;" in l)
    assert loads[0] < loop_at, "advancedload before the loop"
    assert sum("noupdate=true" in l for l in lines) == 2, \
        "noupdate on both callsites"
    store_at = [i for i, l in enumerate(lines) if "delegatedstore" in l]
    release_at = [i for i, l in enumerate(lines) if l.endswith("release")]
    assert len(store_at) == 1 and len(release_at) == 1
    assert loop_at < store_at[0] < release_at[0], \
        "final delegatedstore then release"
    assert time.perf_counter() - started < 1.0, "runtime under one second"


def _erasure_check(tmp_path, prog):
    unit = parse_file(DATA / prog)
    lists = block_plans(unit)
    ref = cc_run(load(prog), tmp_path, "ref_" + Path(prog).stem)
    # many variants erase to the same text, which runs the same way
    outputs = {}
    count = 0
    for i, combo in enumerate(itertools.product(*lists)):
        uv = UnitVariant("v%d" % i, combo, tuple(range(len(combo))))
        rv = build_variant(unit, uv)
        stripped = print_unit(strip_pragmas(
            parse_translation_unit(rv.source, "variant.c")))
        if stripped not in outputs:
            outputs[stripped] = cc_run(stripped, tmp_path, "v%d_%s"
                                       % (i, Path(prog).stem))
        assert outputs[stripped] == ref, (prog, uv.signature_text)
        count += 1
    return count


@verdict(2, "directive-erasure equivalence")
def test_criterion_2_directive_erasure(tmp_path):
    started = time.perf_counter()
    n_gemm = _erasure_check(tmp_path, "gemm64.c")
    assert n_gemm == 22
    n_jacobi = _erasure_check(tmp_path, "jacobi128.c")
    assert n_jacobi == 43
    # the inline program: C++-flavoured original (reference parameter)
    # against the pure-C inlined output
    cpp_src = load("inline_run.c").replace(
        "int printf(", 'extern "C" int printf(')
    ref = cc_run(cpp_src, tmp_path, "inline_ref", compiler="g++")
    inlined = parse_file(DATA / "inline_run.c")
    inline_calls_in_place(inlined, "all")
    out = cc_run(print_unit(strip_pragmas(inlined)), tmp_path, "inline_var")
    assert out == ref
    assert time.perf_counter() - started < 30.0, "runtime under 30 seconds"


@verdict(3, "enumeration and codec")
def test_criterion_3_enumeration_and_codec():
    from hmppgen.pragmas import OmpPragma
    plans = enumerate_variants(1, OmpPragma(kind="parallel_for", check=True),
                               group_eligible=False)
    assert len(plans) == 22
    assert sum(1 for p in plans if not p.flags.baseline) == 21
    assert len({p.signature.words for p in plans}) == 22

    for eligible in (False, True):
        for f in [BASELINE] + feasible_flag_sets(eligible):
            assert decode_signature(encode_signature(f)) == f

    assert decode_signature(Signature((9, 1, 0))) == FlagSet(
        advancedload=True, noupdate=True, delegatedstore=True)
    assert decode_signature(Signature((10, 1, 0))) == FlagSet(
        advancedload=True, release=True, delegatedstore=True)
    assert decode_signature(Signature((11, 3, 0))) == FlagSet(
        advancedload=True, release=True, noupdate=True, delegatedstore=True,
        group=True)
    assert decode_signature(Signature((0, 0, 0))) == BASELINE


@verdict(4, "transfer minimality")
def test_criterion_4_transfer_minimality():
    grouped = simulate_variant(build("table5.c",
                                     {1: (11, 3, 0), 2: (11, 3, 0)}))
    naive = simulate_variant(build("table5.c", {1: (0, 0, 1), 2: (0, 0, 1)}))
    assert grouped.h2d_array_count == 2, "exactly 2 host-to-device"
    assert 1 <= grouped.d2h_array_count <= 2, "1-2 device-to-host"
    per_iteration = (naive.h2d_array_count + naive.d2h_array_count) / 99
    assert per_iteration >= 2, "naive pays at least 2 per iteration"
    assert naive.h2d_array_count + naive.d2h_array_count >= 198
    assert grouped.time_s < naive.time_s, "strictly lower modeled time"
    assert grouped.energy_J < naive.energy_J, "strictly lower modeled energy"


@verdict(5, "report fidelity")
def test_criterion_5_report_fidelity():
    measurements = parse_csv(load("table8.csv"))
    text = write_csv(measurements)
    assert text.splitlines()[0] == \
        "Version/Measure,Signature,Time Expended(ms.),Energy Consumption(J.)"
    points = [TradeoffPoint(m.name, m.time_ms, m.energy_J)
              for m in measurements]
    frontier = pareto_frontier(points)
    assert [(p.time_ms, p.energy_J) for p in frontier] == [(9611.0, 3401.55)]
    base = find_baseline(measurements)
    best = next(m for m in measurements if m.signature_text == "9, 1, 0")
    assert abs(speedup(base, best) - 6.19) <= 0.01
    ratio = gops_per_watt(1e9, best) / gops_per_watt(1e9, base)
    assert abs(ratio - 5.12) <= 0.01
    assert abs(ratio - 17428 / 3401.55) < 1e-9


@verdict(6, "unit exactness")
def test_criterion_6_unit_exactness():
    assert wh_to_joules(1) == 3600
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randint(1, 40)
        data = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        m = median(data)
        assert min(data) <= m <= max(data)
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert median(shuffled) == m


@verdict(7, "pareto oracle equivalence")
def test_criterion_7_pareto_oracle():
    rng = random.Random(31337)
    for trial in range(100):
        n = rng.randint(0, 200)
        pts = [TradeoffPoint(str(i), rng.randint(0, 40) * 1.0,
                             rng.randint(0, 40) * 1.0) for i in range(n)]
        oracle = set()
        for p in pts:
            dominated = any(
                q.time_ms <= p.time_ms and q.energy_J <= p.energy_J and
                (q.time_ms < p.time_ms or q.energy_J < p.energy_J)
                for q in pts)
            if not dominated:
                oracle.add(p.variant)
        got = {p.variant for p in pareto_frontier(pts)}
        assert got == oracle, "trial %d (n=%d)" % (trial, n)


@verdict(8, "end-to-end determinism")
def test_criterion_8_determinism(tmp_path, capsys):
    trees = []
    for sub in ("first", "second"):
        out_dir = tmp_path / sub
        code = cli_main(["explore", str(DATA / "jacobi_t6.c"),
                         "--out", str(out_dir), "--reps", "2"])
        assert code == 0
        tree = {}
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(out_dir))] = p.read_bytes()
        trees.append(tree)
    capsys.readouterr()
    assert trees[0].keys() == trees[1].keys()
    for rel in trees[0]:
        assert trees[0][rel] == trees[1][rel], rel
