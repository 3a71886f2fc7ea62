import copy
import re

import pytest

from hmppgen.errors import TransformError
from hmppgen.lexer import token_stream
from hmppgen.parser import parse_translation_unit, resolve
from hmppgen.printer import print_expr
from hmppgen.transform import (
    check_global_scope, find_omp_blocks, gridify_spec, insert_codelets,
    outline_block,
)

from conftest import DATA, load, parse_fixture


def outlined(name, tag=""):
    unit = copy.deepcopy(parse_fixture(name))
    block = find_omp_blocks(unit)[0]
    kernel = outline_block(unit, block, tag, resolve(unit))
    return unit, kernel


# -- find_omp_blocks ----------------------------------------------------------


def test_single_block_found():
    unit = parse_fixture("table1.c")
    blocks = find_omp_blocks(unit)
    assert len(blocks) == 1
    assert blocks[0].pragma.kind == "parallel_for"
    assert blocks[0].pragma.check
    assert blocks[0].line == 3


def test_pragma_free_unit_has_no_blocks():
    unit = parse_translation_unit("int main() { return 0; }")
    assert find_omp_blocks(unit) == []


REGION_SRC = """double myTable[64][64], myTableOut[64][64];
int main() {
    int index = 0, iterations = 9, i, j;
    double diffsum = 0;
    #pragma omp parallel shared(myTableOut, myTable) check
    for (; (index < iterations); index++) {
        #pragma omp for
        for (i = 1; i < 63; i++) {
            for (j = 1; j < 63; j++) {
                myTableOut[i][j] = myTable[i][j] * 0.5;
            }
        }
        #pragma omp for reduction(+:diffsum)
        for (i = 1; i < 63; i++) {
            for (j = 1; j < 63; j++) {
                diffsum += myTableOut[i][j];
            }
        }
    }
    #pragma omp parallel for fixed(10, 1, 0)
    for (i = 1; i < 63; i++) {
        for (j = 1; j < 63; j++) {
            myTable[i][j] = myTableOut[i][j];
        }
    }
    printf("%g\\n", diffsum);
    return 0;
}
"""


def test_region_with_sub_blocks():
    unit = parse_translation_unit(REGION_SRC)
    blocks = find_omp_blocks(unit)
    assert len(blocks) == 3
    in_region = [b for b in blocks if b.region is not None]
    standalone = [b for b in blocks if b.region is None]
    assert len(in_region) == 2
    assert {b.pragma.kind for b in in_region} == {"for"}
    assert len(standalone) == 1
    assert standalone[0].pragma.fixed == (10, 1, 0)
    assert in_region[0].region is in_region[1].region
    assert len(in_region[0].region.blocks) == 2


# -- outline / parameter inference ---------------------------------------------


def test_table1_codelet_label_and_params():
    unit, k = outlined("table1.c")
    assert k.label == "_instr_for_ol_3_main"
    names = [p.name for p in k.codelet.params]
    assert names == ["i", "row", "j", "result", "array", "mat1", "k", "a",
                     "mat2"]
    by_name = {p.name: p for p in k.codelet.params}
    assert by_name["result"].io == "inout"
    assert by_name["array"].io == "inout"
    assert by_name["array"].pointer
    assert print_expr(by_name["array"].size_expr).replace(" ", "") == "(row*col)"
    assert by_name["mat1"].io == "in"
    assert by_name["mat2"].io == "in"
    assert all(by_name[s].io == "by-value-scalar" for s in "i j k a row".split())


def test_table1_callsite_matches_params():
    unit, k = outlined("table1.c")
    assert len(k.callsite.args) == len(k.codelet.params)
    assert print_expr(k.callsite.args[0]) == "i"
    rendered = "%s(%s)" % (k.callsite.label,
                           ", ".join(print_expr(a) for a in k.callsite.args))
    assert rendered == ("_instr_for_ol_3_main(i, row, j, result, array, "
                        "mat1, k, a, mat2)")


def test_outline_moves_the_loop():
    unit = copy.deepcopy(parse_fixture("table1.c"))
    block = find_omp_blocks(unit)[0]
    k = outline_block(unit, block, "", resolve(unit))
    assert k.codelet.body.stmts[0] is block.stmt
    # the codelet is the function the unit holds once it is inserted
    insert_codelets(unit, [k])
    assert unit.function(k.label) is k.codelet
    assert unit.items.index(k.codelet) + 1 == unit.items.index(block.fn)


def test_body_moved_verbatim():
    # re-substituting the codelet loop at the callsite reproduces the block
    original = parse_fixture("table1.c")
    block_stmt = find_omp_blocks(original)[0].stmt
    unit, k = outlined("table1.c")
    from hmppgen.printer import _Printer
    pr_orig, pr_out = _Printer(), _Printer()
    pr_orig.stmt(copy.deepcopy(block_stmt), 0)
    moved = copy.deepcopy(k.codelet.body.stmts[0])
    moved.pragmas = []
    pr_out.stmt(moved, 0)
    orig_lines = pr_orig.template().fill()
    out_lines = pr_out.template().fill()
    orig_no_pragma = "\n".join(l for l in orig_lines.splitlines()
                               if not l.startswith("#pragma"))
    assert token_stream(out_lines) == token_stream(orig_no_pragma)


def test_minimal_free_variable_set():
    src = """int main() {
    int x = 4;
    int y[8];
    #pragma omp parallel for check
    for (int q = 0; q < 8; q++) {
        y[q] = x;
    }
    printf("%d\\n", y[0]);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    k = outline_block(unit, find_omp_blocks(unit)[0], "", resolve(unit))
    assert [p.name for p in k.codelet.params] == ["y", "x"]
    assert {p.io for p in k.codelet.params} == {"out", "by-value-scalar"}


def test_block_with_no_free_variables():
    src = """int main() {
    #pragma omp parallel for check
    for (int q = 0; q < 4; q++) {
        int t = q * 2;
        t = t + 1;
    }
    return 0;
}
"""
    unit = parse_translation_unit(src)
    k = outline_block(unit, find_omp_blocks(unit)[0], "", resolve(unit))
    assert k.codelet.params == []
    assert k.callsite.args == []


def test_io_out_against_scan_oracle():
    # written in the kernel, never read there, read later on the CPU
    src = """int main() {
    int i;
    int out[16];
    #pragma omp parallel for check
    for (i = 0; i < 16; i++) {
        out[i] = i * 2;
    }
    printf("%d\\n", out[3]);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    block = find_omp_blocks(unit)[0]
    # independent oracle: token-level scan classifying lvalue/rvalue uses
    body_text = load_block_text(src)
    writes = len(re.findall(r"\bout\s*\[[^]]*\]\s*=[^=]", body_text))
    reads = len(re.findall(r"[^[\w]out\s*\[[^]]*\](?!\s*=[^=])", body_text))
    assert writes > 0 and reads == 0
    k = outline_block(unit, block, "", resolve(unit))
    assert {p.name: p.io for p in k.codelet.params}["out"] == "out"


def load_block_text(src):
    lines = src.splitlines()
    start = next(i for i, l in enumerate(lines) if "#pragma omp" in l)
    return "\n".join(lines[start + 1:start + 4])


def test_unknown_dims_is_an_error():
    src = """int main() {
    int i;
    int *p;
    #pragma omp parallel for check
    for (i = 0; i < 4; i++) {
        p[i] = i;
    }
    return 0;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        outline_block(unit, find_omp_blocks(unit)[0], "", resolve(unit))
    assert "unknown dimensions" in str(exc.value)


def test_scalar_written_in_kernel_and_read_after_is_rejected():
    src = """int main() {
    int i, s = 0;
    int v[8];
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        s = v[i];
    }
    printf("%d\\n", s);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        outline_block(unit, find_omp_blocks(unit)[0], "", resolve(unit))
    assert "reduction" in str(exc.value)


# -- gridify -------------------------------------------------------------------


def test_gridify_two_deep_nest():
    unit = parse_fixture("table5.c")
    blocks = find_omp_blocks(unit)
    assert gridify_spec(blocks[0].stmt) == ["i", "j"]


def test_gridify_single_loop():
    src = """int main() {
    int k;
    int v[8];
    #pragma omp parallel for check
    for (k = 0; k < 8; k++) {
        v[k] = k;
    }
    printf("%d\\n", v[0]);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    assert gridify_spec(find_omp_blocks(unit)[0].stmt) == ["k"]


def test_gridify_reduction_collapses_outer():
    unit = parse_fixture("table3.c")
    block = find_omp_blocks(unit)[0]
    assert gridify_spec(block.stmt, block.pragma.reduction) == ["1", "j"]


# -- reduction lowering ---------------------------------------------------------


def test_table3_reduction_lowering():
    unit, k = outlined("table3.c")
    names = [p.name for p in k.codelet.params]
    assert names == ["i", "j", "myTableOut", "myTable", "diffsum_reduced"]
    red = k.codelet.params[-1]
    assert red.pointer and red.reduced
    assert print_expr(red.size_expr) == "1"
    body = k.codelet.body.stmts
    from hmppgen.printer import _Printer
    pr = _Printer()
    pr.stmt(body[0], 0)
    assert pr.template().fill().splitlines() == [
        "double diffsum = *diffsum_reduced;"]
    pr2 = _Printer()
    pr2.stmt(body[-1], 0)
    assert pr2.template().fill().splitlines() == [
        "*diffsum_reduced = diffsum;"]
    grid = body[1].pragmas[0]
    assert grid.kind == "gridify"
    assert grid.gridify_dims == ["1", "j"]
    assert grid.reduce == ("+", "diffsum")
    assert print_expr(k.callsite.args[-1]) == "&diffsum"


def test_reduction_of_array_is_rejected():
    src = """int main() {
    int i;
    double acc[4];
    #pragma omp parallel for reduction(+:acc) check
    for (i = 0; i < 4; i++) {
        acc[0] += i;
    }
    return 0;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        outline_block(unit, find_omp_blocks(unit)[0], "", resolve(unit))
    assert "scalar" in str(exc.value)


def test_reduction_variable_must_be_declared_before_the_block():
    src = """int printf(const char *, ...);
int main() {
    int i;
    #pragma omp parallel for reduction(+:acc) check
    for (i = 0; i < 4; i++) {
        printf("%d\\n", i);
    }
    double acc = 0;
    printf("%g\\n", acc);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        outline_block(unit, find_omp_blocks(unit)[0], "", resolve(unit))
    assert "unknown symbol 'acc'" in str(exc.value)


# -- scope checking --------------------------------------------------------------


def scoped(name, tag=""):
    """The outlined unit with its codelet inserted, as the scope check
    sees it."""
    unit, k = outlined(name, tag)
    insert_codelets(unit, [k])
    return unit, k


def test_check_global_scope_clean_codelet():
    unit, k = scoped("table5.c", tag="12")
    assert check_global_scope(k.codelet, resolve(unit), unit.filename) == []


def test_check_global_scope_reports_unresolved(tmp_path, capsys):
    # the inlined helper reads the global `scale` inside the codelet
    from hmppgen.cli import main
    code = main(["transform", str(DATA / "global_helper.c"),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0
    # the helper's `return v * scale;` is on line 6
    assert err.splitlines() == [
        "%s:6: codelet _instr_for_ol_15_main: identifier 'scale' does not "
        "resolve to a parameter or local" % (DATA / "global_helper.c")]


def test_check_global_scope_flags_opaque_calls():
    unit, k = scoped("table1.c")
    import hmppgen.nodes as N
    k.codelet.body.stmts.append(N.ExprStmt(
        N.Call("displayRegion", [N.Name("result")])))
    diags = check_global_scope(k.codelet, resolve(unit), unit.filename)
    assert any("displayRegion" in d and "un-inlinable" in d for d in diags)


def test_math_builtins_allowed_in_codelets():
    unit, k = scoped("table5.c", tag="12")
    assert "cos(" in load("table5.c")
    assert check_global_scope(k.codelet, resolve(unit), unit.filename) == []
