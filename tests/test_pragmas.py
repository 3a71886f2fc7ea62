import pytest
from hypothesis import given, strategies as st

from hmppgen.errors import PragmaError
from hmppgen.pragmas import (
    HmppDirective, parse_hmpp_pragma, parse_omp_pragma, parse_pragma,
)


def test_reduction_shared_check():
    p = parse_omp_pragma(
        "#pragma omp parallel for reduction(+:diffsum) shared(myTable) check")
    assert p.kind == "parallel_for"
    assert p.reduction == ("+", "diffsum")
    assert p.shared == ["myTable"]
    assert p.check and p.fixed is None


def test_fixed_triple():
    p = parse_omp_pragma("#pragma omp parallel for fixed(10,1,0)")
    assert p.kind == "parallel_for"
    assert p.fixed == (10, 1, 0)
    assert not p.check


def test_check_and_fixed_conflict():
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for check fixed(1,0,0)")
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for fixed(1,0,0) check")


def test_fixed_arity():
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for fixed(1,0)")
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for fixed(1,0,0,0)")


def test_unknown_clause_rejected():
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for collapse(2)")


def test_malformed_clause():
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for shared(")


def test_reduction_ops():
    for op in ("+", "*", "-", "min", "max"):
        p = parse_omp_pragma("#pragma omp parallel for reduction(%s:x)" % op)
        assert p.reduction == (op, "x")
    with pytest.raises(PragmaError):
        parse_omp_pragma("#pragma omp parallel for reduction(&&:x)")


_CLAUSES = ["shared(a, b)", "private(c)", "reduction(+:s)", "check"]


@given(st.permutations(_CLAUSES))
def test_clause_order_is_irrelevant(order):
    p = parse_omp_pragma("#pragma omp parallel for " + " ".join(order))
    assert p.shared == ["a", "b"]
    assert p.private == ["c"]
    assert p.reduction == ("+", "s")
    assert p.check
    p.validate()


# -- HMPP ---------------------------------------------------------------------


def test_parse_grouped_advancedload():
    line = ('#pragma hmpp <group0_12> _instr_for12_ol_12_main advancedload, '
            'args[myTable, myTableOut], args[myTable].addr="myTable", '
            'args[myTableOut].addr="myTableOut"')
    d = parse_hmpp_pragma(line)
    assert d.kind == "advancedload"
    assert d.group == "group0_12"
    assert d.label == "_instr_for12_ol_12_main"
    assert [a.name for a in d.args] == ["myTable", "myTableOut"]
    assert d.args[0].addr == "myTable"


def test_spelling_drift_is_canonicalized():
    d = parse_hmpp_pragma('#pragma hmpc <g> k delegatstore, args[x], '
                          'args[x].addr="&x"')
    assert d.kind == "delegatedstore"
    assert d.args[0].addr == "&x"
    grid = parse_hmpp_pragma("#pragma hmpcpg gridify(1, j), reduce(+:diffsum)")
    assert grid.kind == "gridify"
    assert grid.gridify_dims == ["1", "j"]
    assert grid.reduce == ("+", "diffsum")


def test_parse_callsite_properties():
    d = parse_hmpp_pragma('#pragma hmpp <g> k callsite, '
                          'args[a, b].noupdate=true, asynchronous')
    assert d.kind == "callsite"
    assert all(a.noupdate for a in d.args)
    assert d.asynchronous


def test_parse_codelet_with_star_transfer():
    d = parse_hmpp_pragma('#pragma hmpp k codelet, target=CUDA, '
                          'args[r, a].io=inout, args[a].size=(row*col), '
                          'args[*].transfer=auto')
    assert d.target == "CUDA"
    assert d.star_transfer
    assert d.args[0].io == "inout"
    assert d.args[1].size == "(row*col)"


def test_parse_per_argument_transfer_registers_the_argument():
    d = parse_hmpp_pragma('#pragma hmpp k codelet, target=CUDA, '
                          'args[a].transfer=manual')
    assert [a.name for a in d.args] == ["a"]
    assert not d.star_transfer
    assert d.render() == ('#pragma hmpp k codelet, target=CUDA, '
                          'args[a].transfer=manual')


def test_mapbyname_requires_group():
    with pytest.raises(PragmaError):
        parse_hmpp_pragma("#pragma hmpp mapbyname, a, b")


def test_noupdate_only_on_callsites():
    with pytest.raises(PragmaError):
        parse_hmpp_pragma("#pragma hmpp <g> k advancedload, "
                          "args[a].noupdate=true")


def test_target_must_be_cuda():
    with pytest.raises(PragmaError):
        parse_hmpp_pragma("#pragma hmpp <g> group, target=OPENCL")


def test_render_round_trip():
    lines = [
        '#pragma hmpp <group0_12> _instr_for12_ol_12_main advancedload, '
        'args[myTable, myTableOut], args[myTable].addr="myTable", '
        'args[myTableOut].addr="myTableOut"',
        "#pragma hmpp <group1> release",
        "#pragma hmpp <group0_46> _instr_for46_ol_17_main synchronize",
        "#pragma hmppcg gridify(1, j), reduce(+:diffsum)",
    ]
    for line in lines:
        d = parse_hmpp_pragma(line)
        d.raw = ""
        again = parse_hmpp_pragma(d.render().replace("\n", " ").replace(
            "#pragma hmpp & ", "").replace(", &", ","))
        assert again.kind == d.kind
        assert again.group == d.group
        assert [a.name for a in again.args] == [a.name for a in d.args]


def test_long_directive_wraps_with_continuation():
    from hmppgen.pragmas import HmppArg
    args = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    d = HmppDirective(kind="advancedload", label="kernel_label",
                      args=[HmppArg(a, addr=a) for a in args])
    text = d.render()
    lines = text.splitlines()
    assert len(lines) > 1
    assert lines[0].endswith("&")
    assert all(l.startswith("#pragma hmpp & ") for l in lines[1:])
    assert all(len(l) <= 100 for l in lines)
    # the lexer merges the continuation back into one directive
    from hmppgen.lexer import tokenize
    merged = [t for t in tokenize(text + "\n") if t.kind == "PRAGMA"][0]
    d2 = parse_hmpp_pragma(merged.value)
    assert [a.name for a in d2.args] == args


def test_unknown_vocabulary():
    with pytest.raises(PragmaError):
        parse_pragma("#pragma acc kernels")
