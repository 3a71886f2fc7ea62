import re

import pytest

from hmppgen.emit import build_variant, write_variants
from hmppgen.errors import PlanError
from hmppgen.explore import block_plans
from hmppgen.lexer import token_stream
from hmppgen.parser import parse_translation_unit
from hmppgen.pragmas import HmppArg, HmppDirective
from hmppgen.printer import pragma_text, print_unit, unit_template
from hmppgen.transform import find_omp_blocks
from hmppgen.variants import (
    Signature, UnitVariant, VariantPlan, decode_signature, enumerate_variants,
    plans_for_unit,
)

from conftest import load, parse_fixture, structurally_equal


def make_uv(unit, sig_by_block):
    blocks = find_omp_blocks(unit)
    plans = tuple(VariantPlan.of(
        b.block_id,
        decode_signature(Signature(sig_by_block.get(b.block_id, (0, 0, 0)))))
        for b in blocks)
    return UnitVariant("test", plans, tuple(range(len(plans))))


def build(name, sig_by_block):
    unit = parse_fixture(name)
    return build_variant(unit, make_uv(unit, sig_by_block))


# -- golden transformations ------------------------------------------------------


def test_table1_golden():
    rv = build("table1.c", {1: (0, 0, 1)})
    assert rv.source == load("table1.golden.c")
    assert structurally_equal(rv.source, load("table1.golden.c"))


def test_table3_golden():
    rv = build("table3.c", {1: (0, 0, 1)})
    assert rv.source == load("table3.golden.c")


def test_table5_golden():
    rv = build("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)})
    assert rv.source == load("table5.golden.c")
    assert structurally_equal(rv.source, load("table5.golden.c"))


def test_outlined_region_block_dissolves_its_region():
    # region.c: the region pragma at line 8 holds a check block (line 10)
    # and a plain omp-for loop that survives the outlining
    rv = build("region.c", {1: (0, 0, 1)})
    assert "void _instr_for8_ol_10_main(" in rv.source
    assert "#pragma hmpp _instr_for8_ol_10_main callsite" in rv.source
    assert "#pragma omp parallel shared" not in rv.source
    assert "#pragma omp for" not in rv.source
    assert "#pragma omp parallel for shared(A, B) private(i)\n" \
        "        for (i = 0; i < n; i++) {\n" \
        "            A[i] = B[i] + 1.0;" in rv.source
    # the all-baseline variant keeps the region as written
    base = build("region.c", {}).source
    assert "#pragma omp parallel shared(A, B) private(i)\n    {" in base
    assert "#pragma omp for\n" in base


def test_build_variant_resolves_twice(monkeypatch):
    # once before outlining (group probe and every outlining) and once
    # after inlining (context table and scope check), whatever the kernels
    import hmppgen.context
    import hmppgen.emit
    calls = []
    for module in (hmppgen.context, hmppgen.emit):
        def counted(unit, _resolve=module.resolve):
            calls.append(unit)
            return _resolve(unit)
        monkeypatch.setattr(module, "resolve", counted)
    for name, sigs, kernels in (
            ("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)}, 2),
            ("gemm64.c", {1: (0, 0, 1)}, 1)):
        calls.clear()
        rv = build(name, sigs)
        assert len(rv.kernels) == kernels
        assert len(calls) == 2, name


def test_table5_key_structure():
    text = build("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)}).source
    lines = text.splitlines()
    loads = [i for i, l in enumerate(lines) if "advancedload" in l
             and l.startswith("#pragma")]
    assert len(loads) == 1  # a single coalesced upload
    loop = next(i for i, l in enumerate(lines)
                if "for (index = 0;" in l)
    assert loads[0] < loop  # placed before the index loop
    assert lines[loads[0]].count("args[myTable, myTableOut]") == 1
    noupdates = [l for l in lines if "noupdate=true" in l]
    assert len(noupdates) == 2  # both callsites
    stores = [i for i, l in enumerate(lines) if "delegatedstore" in l]
    assert len(stores) == 1
    display = next(i for i, l in enumerate(lines) if "displayRegion" in l)
    assert stores[0] < display
    release = next(i for i, l in enumerate(lines) if l.endswith("release"))
    assert release > display


# -- rendering -------------------------------------------------------------------


def test_render_grouped_advancedload_directive():
    d = HmppDirective(kind="advancedload", group="group0_12",
                      label="_instr_for12_ol_12_main",
                      args=[HmppArg("myTable", addr="myTable")])
    # 107 columns, so the canonical form wraps at the 100-column limit;
    # the merged text is the spec form
    from hmppgen.lexer import tokenize
    merged = [t for t in tokenize(d.render() + "\n") if t.kind == "PRAGMA"][0]
    assert merged.value == (
        "#pragma hmpp <group0_12> _instr_for12_ol_12_main advancedload, "
        'args[myTable], args[myTable].addr="myTable"')


def test_render_group_release():
    d = HmppDirective(kind="release", group="group1")
    assert d.render() == "#pragma hmpp <group1> release"


def test_render_standalone_synchronize():
    d = HmppDirective(kind="synchronize", label="_instr_for_ol_3_main")
    assert d.render() == "#pragma hmpp _instr_for_ol_3_main synchronize"


def test_directive_order_at_a_callsite():
    # async variant of the Table 6 shape: callsite, synchronize, stores
    unit = parse_fixture("jacobi_t6.c")
    rv = build_variant(unit, make_uv(unit, {2: (13, 1, 0)}))
    lines = rv.source.splitlines()
    call = next(i for i, l in enumerate(lines) if "callsite" in l)
    assert "asynchronous" in lines[call]
    sync = next(i for i, l in enumerate(lines) if l.endswith("synchronize"))
    store = next(i for i, l in enumerate(lines)
                 if "delegatedstore" in l and "diffsum_reduced" in l)
    assert call < sync < store


def test_baseline_variant_keeps_original_text():
    unit = parse_fixture("table5.c")
    rv = build_variant(unit, make_uv(unit, {}))
    assert token_stream(rv.source) == token_stream(load("table5.c"))
    assert rv.kernels == [] and rv.plan.schedule == {}


# -- invariants --------------------------------------------------------------------


def jacobi_unit_variants():
    unit = parse_fixture("gemm64.c")
    blocks = find_omp_blocks(unit)
    plans = enumerate_variants(blocks[0].block_id, blocks[0].pragma, False)
    return unit, [UnitVariant("v", (p,), (0,)) for p in plans]


def test_reparse_closure_over_all_variants():
    unit, uvs = jacobi_unit_variants()
    for uv in uvs:
        rv = build_variant(unit, uv)
        reparsed = parse_translation_unit(rv.source, "variant.c")
        assert reparsed.functions  # parsed through the front end


def test_emit_is_deterministic():
    unit, uvs = jacobi_unit_variants()
    uv = uvs[13]
    a = build_variant(unit, uv).source
    b = build_variant(unit, uv).source
    assert a == b


def test_plan_referencing_unknown_symbol_is_impossible_via_api():
    # directives always name symbols present in the unit
    rv = build("table5.c", {1: (11, 3, 0), 2: (11, 3, 0)})
    names = set(re.findall(r"args\[([^\]*]+)\]", rv.source))
    flat = {n.strip() for group in names for n in group.split(",")}
    declared = set(re.findall(r"\b(?:int|double|float)\b[^;(]*?(\w+)\s*[\[;,=]",
                              rv.source)) | {"diffsum_reduced"}
    assert flat <= declared | {"myTable", "myTableOut"}


def test_write_variants_and_manifest(tmp_path):
    unit, uvs = jacobi_unit_variants()
    rendered = [build_variant(unit, uv) for uv in uvs[:3]]
    index = write_variants(rendered, "gemm64", tmp_path)
    files = sorted(p.name for p in tmp_path.glob("*.c"))
    assert "gemm64__0_0_0.c" in files
    assert "gemm64__0_0_1.c" in files
    lines = index.read_text().strip().splitlines()
    assert len(lines) == 3
    name, sig, path = lines[0].split("\t")
    assert sig == "0, 0, 0" and path == "gemm64__0_0_0.c"


def test_shared_shapes_render_like_fresh_builds_in_any_order():
    # 43 variants in 3 interleaved shapes; a directive left on a shared
    # tree by one variant would show in a later variant of its shape
    unit = parse_fixture("pinned_pair.c")
    original = print_unit(unit)
    uvs = plans_for_unit(block_plans(unit))
    fresh = [build_variant(unit, uv).source for uv in uvs]
    assert len(uvs) == 43
    shapes = {}
    for uv, source in zip(uvs, fresh):
        assert build_variant(unit, uv, shapes=shapes).source == source
    assert len(shapes) == 3
    bare = {key: print_unit(shape.unit) for key, shape in shapes.items()}
    assert not any("#pragma hmpp" in text.replace("hmppcg", "")
                   for text in bare.values())
    for uv, source in reversed(list(zip(uvs, fresh))):
        assert build_variant(unit, uv, shapes=shapes).source == source
    assert {key: print_unit(shape.unit)
            for key, shape in shapes.items()} == bare
    assert print_unit(unit) == original


def test_template_holes_keep_the_printed_layout():
    # a loop body block opens on the loop's line, so no directive can
    # stand before it; every other statement takes directives before its
    # own pragmas, and a codelet directive replaces a function's pragmas
    unit = parse_translation_unit("""int main() {
    int i;
    for (i = 0; i < 4; i++) {
        i = i;
    }
    return 0;
}
""")
    [fn] = unit.functions
    loop = fn.body.stmts[1]
    template = unit_template(unit)
    sync = pragma_text([HmppDirective(kind="synchronize", label="k")])
    assert template.fill() == print_unit(unit)
    text = template.fill({("before", id(loop)): sync,
                          ("end", id(loop.body)): sync,
                          ("codelet", id(fn)): sync})
    assert text.splitlines()[:4] == [
        "#pragma hmpp k synchronize", "int main() {", "    int i;",
        "#pragma hmpp k synchronize"]
    assert text.splitlines()[5:7] == ["        i = i;",
                                      "#pragma hmpp k synchronize"]
    with pytest.raises(PlanError):
        template.fill({("before", id(loop.body)): sync})
