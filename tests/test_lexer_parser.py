import pytest

from hmppgen.errors import CParseError, UnsupportedConstructError
from hmppgen.lexer import token_stream, tokenize
from hmppgen.parser import parse_translation_unit, strip_pragmas
from hmppgen.printer import print_unit

from conftest import load, parse_fixture

CORPUS = ["table1.c", "table3.c", "table5.c", "table9.c", "gemm64.c",
          "jacobi128.c", "inline_run.c"]


@pytest.mark.parametrize("name", CORPUS)
def test_round_trip_is_token_equivalent(name):
    text = load(name)
    unit = parse_translation_unit(text, name)
    assert token_stream(print_unit(unit)) == token_stream(text)


def test_minimal_program():
    unit = parse_translation_unit("int main() { return 0; }")
    assert [f.name for f in unit.functions] == ["main"]
    assert "#pragma" not in print_unit(unit)


def test_table1_shape():
    unit = parse_fixture("table1.c")
    assert len(unit.functions) == 1
    assert unit.functions[0].name == "main"
    pragmas = [p for f in unit.functions
               for s in _all_stmts(f) for p in s.pragmas]
    assert len(pragmas) == 1
    assert pragmas[0].kind == "parallel_for" and pragmas[0].check


def _all_stmts(fn):
    from hmppgen.nodes import walk_stmts
    return list(walk_stmts(fn.body))


def test_goto_is_unsupported():
    with pytest.raises(UnsupportedConstructError) as exc:
        parse_translation_unit("int main() { goto l; return 0; }")
    assert "goto" in str(exc.value)


@pytest.mark.parametrize("kw", ["switch", "do", "struct", "sizeof"])
def test_other_unsupported_keywords(kw):
    with pytest.raises(UnsupportedConstructError) as exc:
        parse_translation_unit("int main() { %s x; return 0; }" % kw)
    assert kw in str(exc.value)


def test_dangling_pragma_is_an_error():
    src = "int main() {\n    int i = 0;\n    #pragma omp parallel for\n}\n"
    with pytest.raises(CParseError) as exc:
        parse_translation_unit(src)
    assert "dangling" in str(exc.value)


def test_preprocessor_line_rejected():
    with pytest.raises(CParseError) as exc:
        parse_translation_unit("#include <stdio.h>\nint main() { return 0; }")
    assert "preprocessor" in str(exc.value)


def test_undeclared_identifier_reports_position():
    with pytest.raises(CParseError) as exc:
        parse_translation_unit("int main() {\n    x = 1;\n    return 0;\n}",
                               "f.c")
    assert exc.value.format().startswith("f.c:2")
    assert "x" in str(exc.value)


def test_duplicate_declaration_rejected():
    with pytest.raises(CParseError) as exc:
        parse_translation_unit("int main() { int a; int a; return 0; }")
    assert "duplicate" in str(exc.value)


def test_block_scoped_redeclaration_is_fine():
    src = """int main() {
    { int r = 1; r = r + 1; }
    { int r = 2; r = r + 1; }
    return 0;
}
"""
    unit = parse_translation_unit(src)
    assert token_stream(print_unit(unit)) == token_stream(src)


def test_syntax_error_has_line_and_column():
    with pytest.raises(CParseError) as exc:
        parse_translation_unit("int main() {\n    int a = ;\n}")
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_unterminated_string():
    with pytest.raises(CParseError):
        tokenize('int main() { printf("oops); }')


def test_numeric_suffix_rejected():
    with pytest.raises(CParseError):
        tokenize("int main() { int x = 1u; }")


@pytest.mark.parametrize("name", CORPUS)
def test_strip_pragmas_removes_everything(name):
    unit = parse_fixture(name)
    stripped = strip_pragmas(unit)
    assert "#pragma" not in print_unit(stripped)


def test_strip_pragmas_is_idempotent():
    unit = parse_fixture("table5.c")
    once = strip_pragmas(unit)
    twice = strip_pragmas(once)
    assert print_unit(once) == print_unit(twice)


def test_strip_pragmas_preserves_code():
    unit = parse_fixture("table5.c")
    stripped = strip_pragmas(unit)
    kept = [t for t in token_stream(load("table5.c")) if t[0] != "PRAGMA"]
    assert token_stream(print_unit(stripped)) == kept


def test_pragma_continuation_lines_merge():
    src = ('#pragma hmpp lbl codelet, target=CUDA, &\n'
           '#pragma hmpp & args[*].transfer=auto\n'
           'void lbl(int a) { a = a + 1; }\n'
           'int main() { return 0; }\n')
    unit = parse_translation_unit(src)
    d = unit.functions[0].pragmas[0]
    assert d.kind == "codelet" and d.star_transfer


def test_c99_for_init_declaration():
    src = "int main() { for (int l = 0; l < 20; l++) { } return 0; }"
    unit = parse_translation_unit(src)
    assert token_stream(print_unit(unit)) == token_stream(src)
