import copy

from hmppgen.context import (
    dump_context, dump_plan, first_cpu_read_site, form_groups,
    last_cpu_write_site, load_point,
)
from hmppgen.emit import build_variant
from hmppgen.nodes import DeclStmt, ExprStmt, For
from hmppgen.parser import parse_translation_unit
from hmppgen.transform import find_omp_blocks
from hmppgen.variants import (
    BASELINE, FlagSet, Signature, UnitVariant, VariantPlan, decode_signature,
)

from conftest import parse_fixture


def pipeline(src_or_unit, flags_by_block):
    """Builds the variant giving each block its flags (baseline when absent)
    and returns its unit, kernels, context table and transfer plan."""
    unit = (parse_translation_unit(src_or_unit)
            if isinstance(src_or_unit, str) else src_or_unit)
    plans = tuple(VariantPlan.of(b.block_id,
                                 flags_by_block.get(b.block_id, BASELINE))
                  for b in find_omp_blocks(unit))
    rv = build_variant(unit, UnitVariant("test", plans,
                                         tuple(range(len(plans)))))
    return rv.unit, rv.kernels, rv.table, rv.plan


def symbol(table, name):
    """The one symbol in the table that carries `name`."""
    [sym] = {sym for sym in table.events if sym.name == name}
    return sym


def names(symbols):
    return [sym.name for sym in symbols]


FIG56_SRC = """int main() {
    int i;
    double A[64];
    double C[64];
    A[0] = 1;
    A[1] = 2;
    #pragma omp parallel for check
    for (i = 0; i < 64; i++) {
        C[i] = A[i] * 2;
    }
    printf("%g\\n", C[5]);
    return 0;
}
"""


def test_fig5_event_classification():
    unit, kernels, table, _ = pipeline(FIG56_SRC, {1: FlagSet()})
    label = kernels[0].label
    a_kinds = [(e.kind, e.host.render()) for e in table.of(symbol(table, "A"))]
    assert ("write", "CPU") in a_kinds
    assert ("read", "GPU(%s)" % label) in a_kinds
    assert ("write", "GPU(%s)" % label) not in a_kinds
    c_kinds = [(e.kind, e.host.render()) for e in table.of(symbol(table, "C"))]
    assert ("write", "GPU(%s)" % label) in c_kinds
    assert ("read", "CPU") in c_kinds


def io_of(kernel):
    """The transfer direction outlining gave each codelet parameter."""
    return {p.name: p.io for p in kernel.codelet.params}


def test_fig5_io_directions():
    unit, kernels, table, _ = pipeline(FIG56_SRC, {1: FlagSet()})
    io = io_of(kernels[0])
    assert io["A"] == "in"
    assert io["C"] == "out"


def test_compound_assignment_reads_then_writes():
    unit, kernels, table, _ = pipeline(
        copy.deepcopy(parse_fixture("table1.c")), {1: FlagSet()})
    label = kernels[0].label
    kinds = {e.kind for e in table.of(symbol(table, "result"))
             if e.host.kernel == label}
    assert kinds == {"read", "write"}
    assert io_of(kernels[0])["result"] == "inout"


def test_last_cpu_write_site_straight_line():
    unit, kernels, table, _ = pipeline(FIG56_SRC, {1: FlagSet()})
    point = last_cpu_write_site(symbol(table, "A"), kernels[0].label, table)
    assert point.position == "after"
    assert isinstance(point.anchor, ExprStmt)
    # the anchor is the final A write, `A[1] = 2;`
    from hmppgen.printer import print_expr
    assert print_expr(point.anchor.expr) == "A[1] = 2"


def test_last_cpu_write_site_without_prior_write():
    src = FIG56_SRC.replace("    A[0] = 1;\n    A[1] = 2;\n", "")
    unit, kernels, table, _ = pipeline(src, {1: FlagSet()})
    point = last_cpu_write_site(symbol(table, "A"), kernels[0].label, table)
    assert point.position == "after"
    assert isinstance(point.anchor, DeclStmt)
    assert point.anchor.decls[0].name == "A"


FIG7_SRC = """int main() {
    int i, k;
    double A[64];
    double C[64];
    for (k = 0; k < 64; k++) {
        A[k] = k;
    }
    C[0] = 0;
    #pragma omp parallel for check
    for (i = 0; i < 64; i++) {
        C[i] = A[i] + 1;
    }
    printf("%g\\n", C[5]);
    return 0;
}
"""


def test_fig7_backtracks_out_of_the_writer_loop():
    unit, kernels, table, _ = pipeline(FIG7_SRC, {1: FlagSet()})
    point = last_cpu_write_site(symbol(table, "A"), kernels[0].label, table)
    assert point.position == "after"
    assert isinstance(point.anchor, For)
    # the anchor is the k loop, not the kernel loop
    from hmppgen.nodes import Assign
    assert isinstance(point.anchor.init, Assign)
    assert point.anchor.init.target.ident == "k"


def test_fig8_store_before_first_reader():
    unit, kernels, table, _ = pipeline(FIG56_SRC, {1: FlagSet()})
    point = first_cpu_read_site(symbol(table, "C"), kernels[0].label, table)
    assert point.position == "before"
    from hmppgen.printer import print_expr
    assert "printf" in print_expr(point.anchor.expr)


def test_dead_output_has_no_store_site():
    src = FIG56_SRC.replace('    printf("%g\\n", C[5]);\n', "")
    unit, kernels, table, _ = pipeline(src, {1: FlagSet()})
    assert first_cpu_read_site(symbol(table, "C"), kernels[0].label,
                               table) is None


FIG9_SRC = """int main() {
    int i, r, c2;
    double A[16];
    double C[16];
    A[0] = 3;
    #pragma omp parallel for check
    for (i = 0; i < 16; i++) {
        C[i] = A[0] + i;
    }
    for (r = 0; r < 4; r++) {
        for (c2 = 0; c2 < 4; c2++) {
            printf("%g\\n", C[r * 4 + c2]);
        }
    }
    return 0;
}
"""


def test_fig9_store_hoists_above_the_consumer_nest():
    unit, kernels, table, _ = pipeline(FIG9_SRC, {1: FlagSet()})
    point = first_cpu_read_site(symbol(table, "C"), kernels[0].label, table)
    assert point.position == "before"
    assert isinstance(point.anchor, For)
    assert point.anchor.init.target.ident == "r"  # outermost non-shared loop


def test_definition_before_use_in_placements():
    # load anchors precede the callsite; store anchors follow it
    full = FlagSet(advancedload=True, noupdate=True, delegatedstore=True,
                   release=True)
    unit, kernels, table, plan = pipeline(FIG7_SRC, {1: full})
    ks = table.site(kernels[0].callsite)
    for l in plan.loads:
        assert table.site(l.point.anchor) < ks
    for s in plan.stores:
        assert table.site(s.point.anchor) > ks


# -- Table 5 plan ---------------------------------------------------------------


def table5_plan(flags=None):
    flags = flags or decode_signature(Signature((11, 3, 0)))
    return pipeline(copy.deepcopy(parse_fixture("table5.c")),
                    {1: flags, 2: flags})


def test_table5_group_and_mapbyname():
    unit, kernels, table, plan = table5_plan()
    assert len(plan.groups) == 1
    gp = plan.groups[0]
    assert gp.label == "group0_12"
    assert gp.kernels == ["_instr_for12_ol_12_main", "_instr_for12_ol_17_main"]
    assert names(gp.mapbyname) == ["myTable", "myTableOut"]


def test_table5_single_load_before_the_loop():
    unit, kernels, table, plan = table5_plan()
    assert len(plan.loads) == 2  # one coalesced directive, two symbols
    assert {l.symbol.name for l in plan.loads} == {"myTable", "myTableOut"}
    for l in plan.loads:
        assert l.label == "_instr_for12_ol_12_main"
        assert l.point.position == "after"
        assert table.path(l.point.anchor) == ()  # outside the index loop
    # both share the same anchor statement (the init call)
    anchors = {id(l.point.anchor) for l in plan.loads}
    assert len(anchors) == 1


def test_table5_noupdate_on_both_callsites():
    unit, kernels, table, plan = table5_plan()
    assert names(plan.noupdate["_instr_for12_ol_12_main"]) \
        == ["myTable", "myTableOut"]
    assert names(plan.noupdate["_instr_for12_ol_17_main"]) \
        == ["myTableOut", "myTable"]


def test_table5_single_store_of_mytable_after_the_loop():
    unit, kernels, table, plan = table5_plan()
    stores = [s for s in plan.stores if s.symbol.name == "myTable"]
    assert len(stores) == 1
    s = stores[0]
    assert s.label == "_instr_for12_ol_17_main"  # last accelerator writer
    assert s.point.position == "before"
    assert table.path(s.point.anchor) == ()
    assert not any(st.symbol.name == "myTableOut" for st in plan.stores)


def test_table5_release_after_final_use():
    unit, kernels, table, plan = table5_plan()
    assert len(plan.releases) == 1
    r = plan.releases[0]
    assert r.name == "group0_12" and r.grouped
    assert r.point.position == "after"


def test_table5_mapped_io_override():
    # the first codelet writes myTableOut, but grouped both arrays are
    # mapped, so resident: each codelet directive prints them as io=in
    def codelet_lines(flags):
        rv = build_variant(parse_fixture("table5.c"), UnitVariant("test", (
            VariantPlan.of(1, flags), VariantPlan.of(2, flags)), (0, 1)))
        return [line for line in rv.source.splitlines()
                if " codelet, " in line]

    first, second = codelet_lines(decode_signature(Signature((11, 3, 0))))
    assert first.endswith("_ol_12_main codelet, "
                          "args[myTable, myTableOut].io=in")
    assert "_ol_17_main codelet, args[myTableOut, myTable].io=in" in second
    first, _ = codelet_lines(FlagSet())
    assert "_ol_12_main codelet, target=CUDA, args[myTableOut].io=out" \
        in first


def test_minimality_one_load_one_store_per_grouped_symbol():
    unit, kernels, table, plan = table5_plan()
    assert sorted(l.symbol.name for l in plan.loads) \
        == ["myTable", "myTableOut"]
    assert [s.symbol.name for s in plan.stores] == ["myTable"]


# -- Table 6 plan ----------------------------------------------------------------


def table6_plan():
    flags = decode_signature(Signature((13, 3, 0)))  # adv+async+noup+store+grp
    return pipeline(copy.deepcopy(parse_fixture("jacobi_t6.c")),
                    {1: FlagSet(baseline=True), 2: flags})


def test_table6_maps_only_the_resident_matrix():
    unit, kernels, table, plan = table6_plan()
    assert len(plan.groups) == 1
    assert names(plan.groups[0].mapbyname) == ["myTable"]


def test_table6_async_synchronize_before_first_dependent_read():
    unit, kernels, table, plan = table6_plan()
    assert len(plan.asyncs) == 1
    sp = plan.asyncs[0]
    # the wrap-around consumer pins the wait right after the callsite, which
    # still precedes the first dependent read (`theDiffNorm = diffsum;`)
    assert sp.point.position == "after"
    assert sp.point.anchor is kernels[0].callsite
    reads = [e for e in table.of(symbol(table, "diffsum"))
             if e.host.kind == "CPU" and e.kind == "read"
             and e.site > table.site(kernels[0].callsite)]
    assert reads and table.site(sp.point.anchor) < reads[0].site


def test_table6_per_iteration_store_of_the_reduction_result():
    unit, kernels, table, plan = table6_plan()
    red = [s for s in plan.stores if s.param.name == "diffsum_reduced"]
    assert len(red) == 1
    assert red[0].addr == "&diffsum"
    assert len(table.path(red[0].point.anchor)) == 1  # inside the index loop


def test_table6_stores_mytable_per_iteration():
    # the CPU stencil consumes myTable in the next iteration (a wrap-around
    # read), so the download stays inside the loop, right after the callsite
    unit, kernels, table, plan = table6_plan()
    stores = [s for s in plan.stores if s.symbol.name == "myTable"]
    assert len(stores) == 1
    assert stores[0].point.position == "after"
    assert stores[0].point.anchor is kernels[0].callsite
    assert len(table.path(stores[0].point.anchor)) == 1


def test_table6_noupdate_only_on_the_resident_matrix():
    unit, kernels, table, plan = table6_plan()
    label = plan.groups[0].kernels[0]
    assert names(plan.noupdate[label]) == ["myTable"]


def test_table6_no_load_for_the_cpu_written_matrix():
    unit, kernels, table, plan = table6_plan()
    assert names(l.symbol for l in plan.loads) == ["myTable"]
    assert load_point(symbol(table, "myTableOut"), plan.groups[0].kernels[0],
                      table) is None


# -- grouping and fallbacks --------------------------------------------------------


def test_intervening_cpu_write_blocks_grouping():
    src = """int main() {
    int i;
    double A[32];
    double B[32];
    A[0] = 1;
    #pragma omp parallel for check
    for (i = 0; i < 32; i++) {
        B[i] = A[0] + i;
    }
    A[1] = 2;
    #pragma omp parallel for check
    for (i = 0; i < 32; i++) {
        B[i] = B[i] + A[1];
    }
    printf("%g\\n", B[3]);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    blocks = find_omp_blocks(unit)
    flags = decode_signature(Signature((11, 3, 0)))
    ga = form_groups(unit, blocks, {1: flags, 2: flags})
    # A is written between the kernels, but B still ties them together
    assert ga and ga[1] is ga[2]
    # with B also written on the CPU in between, no group forms
    src2 = src.replace("    A[1] = 2;\n", "    A[1] = 2;\n    B[0] = 7;\n")
    unit2 = parse_translation_unit(src2)
    blocks2 = find_omp_blocks(unit2)
    ga2 = form_groups(unit2, blocks2, {1: flags, 2: flags})
    assert not ga2 or ga2.get(1) is not ga2.get(2)


def test_address_taken_disables_optimization():
    src = """int main() {
    int i;
    double A[32];
    double *p;
    A[0] = 1;
    p = &A[3];
    #pragma omp parallel for check
    for (i = 0; i < 32; i++) {
        A[i] = A[i] + 1;
    }
    printf("%g\\n", A[5]);
    return 0;
}
"""
    flags = FlagSet(advancedload=True, noupdate=True, delegatedstore=True)
    unit, kernels, table, plan = pipeline(src, {1: flags})
    assert plan.loads == []
    assert plan.noupdate == {}
    assert any("address" in d for d in plan.diagnostics)


def test_dumps_are_line_oriented():
    unit, kernels, table, plan = table5_plan()
    ctx = dump_context(table)
    pl = dump_plan(plan, table)
    assert all(l.startswith("event ") for l in ctx.strip().splitlines())
    assert any(l.startswith("group group0_12") for l in pl.splitlines())
    assert any(l.startswith("advancedload myTable") for l in pl.splitlines())


def test_dumps_tell_same_name_symbols_apart():
    # shadow_array.c declares `double A[64]` on line 5 and `float A[4]` on
    # line 15; names with one symbol print bare
    unit, kernels, table, plan = pipeline(parse_fixture("shadow_array.c"),
                                          {1: FlagSet(advancedload=True)})
    ctx = [l.split()[1] for l in dump_context(table).splitlines()]
    assert [name for name in ctx if name.startswith("A")] \
        == ["A@5", "A@5", "A@15", "A@15"]
    assert "C" in ctx and "i" in ctx
    assert "advancedload A@5 " in dump_plan(plan, table)
