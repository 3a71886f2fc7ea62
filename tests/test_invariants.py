"""Cross-module properties checked over every generated variant."""

import itertools

import pytest

from hmppgen.emit import build_variant
from hmppgen.errors import PlanError
from hmppgen.explore import block_plans, simulate_variant
from hmppgen.parser import parse_file
from hmppgen.transform import find_omp_blocks
from hmppgen.variants import FlagSet, UnitVariant

from conftest import DATA


def all_variants(name, eligible):
    """Every variant of the sweep's own plan space; files with several check
    blocks use the diagonal (same flags on every block) to keep the space
    reviewable.  `eligible` is the expected outcome of the group probe."""
    unit = parse_file(DATA / name)
    lists = block_plans(unit)
    assert any(p.flags.group for l in lists for p in l) == eligible
    check_lists = [l for l in lists if len(l) > 1]
    if len(check_lists) > 1:
        combos = []
        for i in range(len(check_lists[0])):
            combos.append(tuple(l[i] if len(l) > 1 else l[0] for l in lists))
    else:
        combos = list(itertools.product(*lists))
    for i, combo in enumerate(combos):
        yield build_variant(unit, UnitVariant("v%d" % i, combo,
                                              tuple(range(len(combo)))))


CORPUS = [("gemm64.c", False), ("jacobi128.c", True), ("jacobi_t6.c", False),
          ("table5.c", True)]


@pytest.mark.parametrize("name,eligible", CORPUS)
def test_every_variant_is_scope_clean(name, eligible):
    # outlining is free-variable complete on the whole corpus
    for rv in all_variants(name, eligible):
        assert rv.diagnostics == [], (rv.name, rv.diagnostics)


@pytest.mark.parametrize("name,eligible", CORPUS)
def test_every_variant_simulates_soundly(name, eligible):
    # every accelerator read sees loaded data, every CPU read stored data
    for rv in all_variants(name, eligible):
        simulate_variant(rv)  # raises on residency violations


@pytest.mark.parametrize("name,eligible", CORPUS)
def test_placement_dominance(name, eligible):
    # the fully optimized placement never moves more bytes than the naive
    # per-callsite policy (individual exploration points may well be worse;
    # surfacing that waste is the point of the sweep)
    unit = parse_file(DATA / name)
    blocks = find_omp_blocks(unit)
    from hmppgen.variants import Signature, VariantPlan, decode_signature
    best_sig = (11, 3, 0) if eligible else (9, 1, 0)

    def build_all(sig):
        plans = tuple(
            VariantPlan.of(b.block_id, decode_signature(Signature(sig)))
            for b in blocks)
        return build_variant(unit, UnitVariant("x", plans,
                                               tuple(range(len(plans)))))

    optimized = simulate_variant(build_all(best_sig))
    naive = simulate_variant(build_all((0, 0, 1)))
    assert optimized.h2d_bytes + optimized.d2h_bytes <= \
        naive.h2d_bytes + naive.d2h_bytes


def test_conflicting_flags_rejected_by_planner():
    from hmppgen.context import build_context_table, build_transfer_plan, \
        place
    from hmppgen.parser import resolve
    from hmppgen.transform import insert_codelets, outline_block
    import copy
    unit = parse_file(DATA / "gemm64.c")
    work = copy.deepcopy(unit)
    block = find_omp_blocks(work)[0]
    bad = FlagSet(noupdate=True)  # noupdate without any load
    kernel = outline_block(work, block, "", resolve(work))
    insert_codelets(work, [kernel])
    table = build_context_table(work, [kernel], resolve(work))
    with pytest.raises(PlanError):
        build_transfer_plan(table, place(table, {}), {block.block_id: bad})
