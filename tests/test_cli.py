import os
import re
import subprocess
import sys

import pytest

from hmppgen.cli import main
from hmppgen.emit import build_variant
from hmppgen.parser import (
    MAX_NESTING, parse_file, parse_translation_unit, stmt_nesting,
)
from hmppgen.report import parse_csv
from hmppgen.variants import UnitVariant

from conftest import DATA, cc_run, load


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


# -- transform -------------------------------------------------------------------


TABLE2_LIKE = """double myTable[64][64], myTableOut[64][64];
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
    }
    #pragma omp parallel for fixed(10, 1, 0)
    for (i = 1; i < 63; i++) {
        for (j = 1; j < 63; j++) {
            myTable[i][j] = myTableOut[i][j];
        }
    }
    printf("%g\\n", myTable[1][1]);
    return 0;
}
"""


def test_transform_fixed_block_and_untouched_region(tmp_path, capsys):
    src = tmp_path / "t2.c"
    src.write_text(TABLE2_LIKE)
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o"],
                             capsys)
    assert code == 0
    produced = (tmp_path / "o" / "t2__10_1_0.c").read_text()
    # the fixed block became a callsite; the region stayed OpenMP verbatim
    assert "callsite" in produced
    assert "advancedload" in produced and "delegatedstore" in produced
    assert "#pragma omp parallel shared(myTableOut, myTable) check" in produced
    assert "#pragma omp for" in produced
    assert err.count("warning: check/fixed on the parallel region") == 1
    assert "t2.c:5: warning: check/fixed on the parallel region" in err
    assert "wrote" in out


def test_explore_region_warning_printed_once(tmp_path, capsys):
    src = tmp_path / "t2.c"
    src.write_text(TABLE2_LIKE.replace("fixed(10, 1, 0)", "check"))
    code, out, err = run_cli(["explore", src, "--out", tmp_path / "o",
                              "--reps", "1"], capsys)
    assert code == 0, err
    assert err.count("warning: check/fixed on the parallel region") == 1
    assert "t2.c:5: warning: check/fixed on the parallel region" in err


def test_transform_pragma_free_copies_unchanged(tmp_path, capsys):
    src = tmp_path / "plain.c"
    src.write_text("int main() { return 0; }\n")
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o"],
                             capsys)
    assert code == 0
    assert (tmp_path / "o" / "plain.c").read_text() == src.read_text()
    assert "copied unchanged" in err


def test_transform_recursive_kernel_path_fails(tmp_path, capsys):
    src = tmp_path / "rec.c"
    src.write_text("""int fact(int n) {
    return n * fact(n - 1);
}
int main() {
    int i;
    int v[8];
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        v[i] = fact(i);
    }
    printf("%d\\n", v[3]);
    return 0;
}
""")
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o"],
                             capsys)
    assert code == 1
    assert "recursive" in err


def test_transform_mutual_recursion_names_one_function(tmp_path):
    # the cycle check visits functions in unit order, so whatever the
    # hash seed it reaches `a` first and reports it
    src = tmp_path / "mutual.c"
    src.write_text("""int printf(const char *, ...);
int b(int n);
int a(int n) {
    int r = b(n - 1) + 1;
    return r;
}
int b(int n) {
    int r = a(n - 1) + 1;
    return r;
}
int main() {
    int x = a(3);
    printf("%d\\n", x);
    return 0;
}
""")
    errors = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=str(DATA.parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hmppgen.cli", "transform", str(src),
             "--out", str(tmp_path / "o"), "--inline", "all"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        errors.add(proc.stderr)
    assert len(errors) == 1
    # at the call in `b` that closes the cycle
    assert "mutual.c:8: recursive function 'a' cannot be inlined" \
        in errors.pop()


INLINE_ERRORS = {
    "arity": ("""int f(int a, int b) {
    return a + b;
}
int main() {
    int x = f(1);
    return x;
}
""", ["--inline", "all"], "arity.c:5: call to 'f' passes 1 arguments, "
        "expected 2"),
    "shadow": ("""int f(int a) {
    int r = 0;
    for (int a = 0; a < 3; a++) {
        r = r + a;
    }
    return r;
}
int main() {
    int x = f(1);
    return x;
}
""", ["--inline", "all"], "shadow.c:3: local 'a' in 'f' shadows a "
        "parameter; cannot inline"),
    "undeclared": ("""int main() {
    int i;
    double A[8];
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        A[i] = helper(i);
    }
    return 0;
}
""", [], "undeclared.c:6: codelet _instr_for_ol_4_main calls undeclared "
        "function 'helper'"),
    "header": ("""int f(int a) {
    return a + 1;
}
int main() {
    int i, s = 0;
    for (i = 0; i < f(3); i++) {
        s = s + i;
    }
    return s;
}
""", ["--inline", "all"], "header.c:6: call to inlined function in an "
        "unsupported position"),
    # the declaration in a for header is a child statement of the loop
    "header_decl": ("""int f(int a) {
    return a + 1;
}
int main() {
    int s = 0;
    for (int i = f(0); i < 4; i++) {
        s = s + i;
    }
    return s;
}
""", ["--inline", "all"], "header_decl.c:6: call to inlined function in an "
        "unsupported position"),
    # inlining would move the kernel's callsite out of its host function
    "hosted": ("""double A[64];
void compute() {
    int i;
    #pragma omp parallel for check
    for (i = 0; i < 64; i++) {
        A[i] = A[i] * 2.0;
    }
}
int main() {
    compute();
    return 0;
}
""", ["--inline", "all"], "hosted.c:2: function 'compute' holds an "
        "outlined block and cannot be inlined"),
    "undefined": ("int main() { return 0; }\n", ["--inline", "nope"],
                  "undefined.c: cannot inline undefined function(s): nope"),
    # hoisting `g(1)` above its statement would run it although `z` is 0
    "short_circuit": ("""int printf(const char *, ...);
int n;
int g(int x) {
    n = n + 1;
    return x;
}
int main() {
    int z = 0;
    int r = z && g(1);
    int s = z || g(2);
    printf("%d %d %d\\n", r, s, n);
    return 0;
}
""", ["--inline", "all"], "short_circuit.c:9: call to inlined function in "
        "an unsupported position (right operand of &&)"),
}


@pytest.mark.parametrize("name", sorted(INLINE_ERRORS))
def test_transform_inline_errors_name_file_and_line(tmp_path, capsys, name):
    text, options, expected = INLINE_ERRORS[name]
    src = tmp_path / (name + ".c")
    src.write_text(text)
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o",
                              *options], capsys)
    assert code == 1
    assert err.startswith(str(tmp_path / expected)), err


def test_transform_nested_check_blocks_fail_with_a_diagnostic(tmp_path,
                                                               capsys):
    # outlining the outer block would move the inner one into its codelet
    src = tmp_path / "nested.c"
    src.write_text("""int main() {
    int i, j, s;
    double A[8][8];
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        #pragma omp parallel for check
        for (j = 0; j < 8; j++) {
            s = j;
            A[i][j] = s;
        }
    }
    s = 0;
    printf("%f %d\\n", A[3][3], s);
    return 0;
}
""")
    for command in ("transform", "explore"):
        code, out, err = run_cli([command, src, "--out", tmp_path / command],
                                 capsys)
        assert code == 1
        assert err.splitlines() == [
            "%s:6: check/fixed block nested inside the check/fixed block at "
            "line 4 is not supported; annotate one of them" % src]
        assert not (tmp_path / command).exists()


def test_transform_inline_all_table9(tmp_path, capsys):
    code, out, err = run_cli(["transform", DATA / "table9.c",
                              "--out", tmp_path / "o", "--inline", "all"],
                             capsys)
    assert code == 0
    produced = (tmp_path / "o" / "table9__0_0_0.c").read_text()
    assert "deletedFunctionBodyNamed_g" in produced
    assert "_p_0_g_2" in produced


def test_transform_dump_analysis(tmp_path, capsys):
    dump = tmp_path / "analysis.txt"
    code, out, err = run_cli(["transform", DATA / "gemm64.c",
                              "--out", tmp_path / "o",
                              "--dump-analysis", dump], capsys)
    assert code == 0
    text = dump.read_text()
    assert any(l.startswith("event result write GPU(")
               for l in text.splitlines())



def test_transform_dump_analysis_without_kernels(tmp_path, capsys):
    # with no check block the dump holds the host function's context, all
    # on the CPU, followed by the empty plan's blank line
    dump = tmp_path / "analysis.txt"
    code, out, err = run_cli(["transform", DATA / "inline_run.c",
                              "--out", tmp_path / "o", "--inline", "all",
                              "--dump-analysis", dump], capsys)
    assert code == 0
    *events, plan = dump.read_text().split("\n")[:-1]
    assert plan == "" and len(events) == 43
    assert all(re.fullmatch(r"event \S+ (read|write|addr) CPU site=\d+ "
                            r"loops=\[\]", line) for line in events)
    assert "event l write CPU site=27 loops=[]" in events


def test_transform_dump_analysis_names_each_symbol_once(tmp_path, capsys):
    # both inlined copies of g declare `r` on line 4 (and `c`, `ret` on
    # lines 5 and 7), yet no two of the table's symbols share a name
    dump = tmp_path / "analysis.txt"
    code, out, err = run_cli(["transform", DATA / "inline_run.c",
                              "--out", tmp_path / "o", "--inline", "all",
                              "--dump-analysis", dump], capsys)
    assert code == 0
    names = {line.split()[1] for line in dump.read_text().splitlines()
             if line.startswith("event ")}
    rv = build_variant(parse_file(DATA / "inline_run.c"),
                       UnitVariant("transformed", (), ()), extra_inline="all")
    assert len(names) == len(rv.table.events) == 22
    assert {"r@4#1", "r@4#2", "c@5#1", "c@5#2"} <= names


def test_transform_inlines_a_unit_without_functions(tmp_path, capsys):
    src = tmp_path / "globals.c"
    src.write_text("int x = 3;\n")
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o",
                              "--inline", "all"], capsys)
    assert (code, err) == (0, "")
    assert (tmp_path / "o" / "globals__0_0_0.c").read_text() == "int x = 3;\n"

REDUCTION_NOT_NAMED = """int printf(const char *, ...);

float g() {
    float s = 1.0;
    return s;
}

int main() {
    int i;
    double s = 0.0;
    double A[8];
    #pragma omp parallel for reduction(+:s) check
    for (i = 0; i < 8; i++) {
        A[i] = i;
    }
    printf("%f %f\\n", A[3], s);
    return 0;
}
"""


def test_transform_reduction_type_from_the_blocks_function(tmp_path, capsys):
    # the loop never names `s`; its type is main's `double s`, not g's float
    src = tmp_path / "red.c"
    src.write_text(REDUCTION_NOT_NAMED)
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o"],
                             capsys)
    assert code == 0
    produced = (tmp_path / "o" / "red__0_0_1.c").read_text()
    assert "double *s_reduced" in produced
    assert "float *s_reduced" not in produced


def test_transform_parse_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.c"
    src.write_text("int main() { int a = ; }\n")
    code, out, err = run_cli(["transform", src, "--out", tmp_path / "o"],
                             capsys)
    assert code == 1
    assert "bad.c:1" in err
    assert out == ""  # diagnostics never go to stdout


# -- explore ----------------------------------------------------------------------


def test_explore_jacobi_t6_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out, err = run_cli(["explore", DATA / "jacobi_t6.c",
                              "--out", out_dir, "--reps", "3"], capsys)
    assert code == 0
    variants = sorted((out_dir / "variants").glob("*.c"))
    assert len(variants) == 22
    csv_lines = (out_dir / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 23  # header + 22 rows
    assert csv_lines[0].startswith("Version/Measure")
    assert "pareto" in out
    logs = sorted((out_dir / "logs").glob("*.log"))
    assert len(logs) == 22
    assert (out_dir / "variants" / "manifest.txt").exists()
    for f in ("speedup.dat", "tradeoff.dat"):
        assert (out_dir / f).exists()


def test_explore_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run_cli(["explore", DATA / "jacobi_t6.c",
                              "--out", out_dir, "--reps", "2"], capsys)
        assert code == 0
    left = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    right = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert left == right
    for rel in left:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_explore_requires_annotated_blocks(tmp_path, capsys):
    src = tmp_path / "plain.c"
    src.write_text("int main() { return 0; }\n")
    code, out, err = run_cli(["explore", src, "--out", tmp_path / "o"],
                             capsys)
    assert code == 2
    assert "check or fixed" in err


def test_explore_replay_mode(tmp_path, capsys):
    out_dir = tmp_path / "replayed"
    code, out, err = run_cli(["explore", DATA / "jacobi_t6.c",
                              "--out", out_dir,
                              "--replay", DATA / "table8.csv"], capsys)
    assert code == 0
    assert "pareto" in out and "9, 1, 0" in out
    csv_lines = (out_dir / "report.csv").read_text().splitlines()
    assert csv_lines[1] == 'Original(OpenMP),"0, 0, 0",59500,17428'


def test_explore_replay_does_not_parse_the_input(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {\n")
    code, out, err = run_cli(["explore", bad, "--out", tmp_path / "o",
                              "--replay", DATA / "table8.csv"], capsys)
    assert code == 0, err
    assert "pareto" in out
    assert (tmp_path / "o" / "report.csv").is_file()


TWO_CHECKS = """int main() {
    int i;
    double A[16];
    double B[16];
    #pragma omp parallel for check
    for (i = 0; i < 16; i++) {
        A[i] = i * 2.0;
    }
    #pragma omp parallel for check
    for (i = 0; i < 16; i++) {
        B[i] = i + 1.0;
    }
    printf("%g %g\\n", A[3], B[3]);
    return 0;
}
"""


def test_explore_two_check_blocks_composite_baseline(tmp_path, capsys):
    # disjoint arrays, so no group variants: 22 x 22 plans
    src = tmp_path / "two.c"
    src.write_text(TWO_CHECKS)
    out_dir = tmp_path / "o"
    code, out, err = run_cli(["explore", src, "--out", out_dir,
                              "--reps", "1"], capsys)
    assert code == 0, err
    rows = (out_dir / "report.csv").read_text().splitlines()
    assert len(rows) == 1 + 22 * 22
    assert rows[1].startswith('Original(OpenMP),"0, 0, 0 | 0, 0, 0",')
    for f in ("speedup.dat", "tradeoff.dat"):
        assert (out_dir / f).exists()
    assert "speedup Original(OpenMP) (0, 0, 0 | 0, 0, 0) 1" in out.splitlines()


def test_explore_fixed_only_has_baseline_row(tmp_path, capsys):
    src = tmp_path / "pinned.c"
    src.write_text(load("table1.c").replace("check", "fixed(9, 1, 0)"))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(["explore", src, "--out", out_dir,
                              "--reps", "1"], capsys)
    assert code == 0, err
    rows = (out_dir / "report.csv").read_text().splitlines()[1:]
    assert [r.split('"')[:2] for r in rows] == [
        ["Original(OpenMP),", "0, 0, 0"],
        ["Adv_loaddelStoreNoUpdate__9_1_0,", "9, 1, 0"]]
    assert (out_dir / "speedup.dat").exists()


SHADOW = """int printf(const char *, ...);

int main() {
    int i;
    double A[8];
    double t = 3.0;
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        A[i] = t;
        {
            double t = 1.0;
            A[i] = A[i] + t;
        }
    }
    printf("%f\\n", A[3]);
    return 0;
}
"""


def test_explore_block_local_shadows_outer_variable(tmp_path, capsys):
    # the outer `t` is a parameter although the block declares its own `t`
    src = tmp_path / "shadow.c"
    src.write_text(SHADOW)
    code, out, err = run_cli(["explore", src, "--out", tmp_path / "o",
                              "--reps", "1"], capsys)
    assert code == 0, err
    variant = (tmp_path / "o" / "variants" / "shadow__0_0_1.c").read_text()
    assert re.search(r"void _instr_for_ol_\d+_main\([^)]*double t\b",
                     variant)
    expected = cc_run(SHADOW, tmp_path, "original")
    assert expected == "4.000000\n"
    assert cc_run(variant, tmp_path, "variant") == expected


def test_explore_reduction_variable_is_the_one_declared_at_the_block(
        tmp_path, capsys):
    # an `int s` declared after the block does not change the `double s`
    # the block sums
    code, out, err = run_cli(["explore", DATA / "shadow_reduction.c",
                              "--out", tmp_path / "o", "--reps", "1"], capsys)
    assert code == 0, err
    variant = (tmp_path / "o" / "variants"
               / "shadow_reduction__0_0_1.c").read_text()
    assert "double s = *s_reduced;" in variant
    expected = cc_run(load("shadow_reduction.c"), tmp_path, "original")
    assert expected == "2048\n2\n"
    assert cc_run(variant, tmp_path, "variant") == expected


def test_explore_cap_exceeded(tmp_path, capsys):
    # two group-eligible check blocks blow the default cap
    src = tmp_path / "two.c"
    src.write_text(load("table5.c"))
    code, out, err = run_cli(["explore", src, "--out", tmp_path / "o",
                              "--cap", "100"], capsys)
    assert code == 1
    assert "fixed(" in err


# -- report -----------------------------------------------------------------------


def test_report_table8(tmp_path, capsys):
    code, out, err = run_cli(["report", DATA / "table8.csv",
                              "--out", tmp_path / "r", "--ops", "1e9"],
                             capsys)
    assert code == 0
    lines = out.splitlines()
    pareto = [l for l in lines if l.startswith("pareto")]
    assert len(pareto) == 1
    assert "9, 1, 0" in pareto[0]
    speed = next(l for l in lines if "9, 1, 0" in l and l.startswith("speedup"))
    value = float(speed.rsplit(" ", 1)[1])
    assert abs(value - 6.19) < 0.01
    assert (tmp_path / "r" / "gops.dat").exists()


def test_report_ops_skips_rows_without_energy(tmp_path, capsys):
    csv = tmp_path / "zero.csv"
    csv.write_text("Version/Measure,Signature,Time Expended(ms.),"
                   "Energy Consumption(J.)\n"
                   'Original(OpenMP),"0, 0, 0",0.5,0\n'
                   'Codelet__0_0_1,"0, 0, 1",0.25,0.01\n')
    code, out, err = run_cli(["report", csv, "--out", tmp_path / "r",
                              "--ops", "2.7e9"], capsys)
    assert code == 0, err
    assert err == ("warning: Original(OpenMP) has no positive energy; "
                   "left out of gops.dat\n")
    assert (tmp_path / "r" / "gops.dat").read_text().splitlines() == [
        "# variant gops_per_watt", "Codelet__0_0_1 270"]
    assert (tmp_path / "r" / "speedup.dat").exists()


def test_report_baseline_only_csv(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("Version/Measure,Signature,Time Expended(ms.),"
                   "Energy Consumption(J.)\n"
                   'Original(OpenMP),"0, 0, 0",100,50\n')
    code, out, err = run_cli(["report", csv, "--out", tmp_path / "r"], capsys)
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("speedup")] == \
        ["speedup Original(OpenMP) (0, 0, 0) 1"]


def test_report_composite_baseline_option(tmp_path, capsys):
    csv = tmp_path / "two.csv"
    csv.write_text("Version/Measure,Signature,Time Expended(ms.),"
                   "Energy Consumption(J.)\n"
                   'Codelet_Codelet__0_0_1__0_0_1,"0, 0, 1 | 0, 0, 1",50,40\n'
                   'Original(OpenMP),"0, 0, 0 | 0, 0, 0",100,50\n')

    def speedups(argv):
        code, out, err = run_cli(["report", csv, "--out", tmp_path / "r"]
                                 + argv, capsys)
        assert code == 0, err
        return [l.rsplit(" ", 1)[1] for l in out.splitlines()
                if l.startswith("speedup")]

    assert speedups([]) == ["2", "1"]
    assert speedups(["--baseline", "0,0,0|0,0,0"]) == ["2", "1"]
    assert speedups(["--baseline", "0,0,1|0,0,1"]) == ["1", "0.5"]
    code, _, err = run_cli(["report", csv, "--out", tmp_path / "r",
                            "--baseline", "0,0,0|0,0"], capsys)
    assert code == 1 and "malformed signature" in err


def test_report_missing_header_fails(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("nope\n1,2,3\n")
    code, out, err = run_cli(["report", csv, "--out", tmp_path / "r"], capsys)
    assert code == 1
    assert "header" in err


def test_report_rejects_non_finite_measurements(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("Version/Measure,Signature,Time Expended(ms.),"
                   "Energy Consumption(J.)\n"
                   'Original(OpenMP),"0, 0, 0",1,1\n'
                   'Codelet__0_0_1,"0, 0, 1",nan,-5\n')
    code, out, err = run_cli(["report", csv, "--out", tmp_path / "r"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Codelet__0_0_1" in err


@pytest.mark.parametrize("key, value", [("timeout", "abc"),
                                        ("h2d_bandwidth", "fast")])
def test_executor_config_values_must_be_numbers(tmp_path, capsys, key, value):
    cfg = tmp_path / "exec.cfg"
    cfg.write_text("mode = simulated\n%s = %s\n" % (key, value))
    code, out, err = run_cli(["explore", DATA / "table1.c", "--out",
                              tmp_path / "o", "--executor", cfg], capsys)
    assert code == 1 and out == ""
    assert err == "error: %s:2: %s takes a number, got %r\n" % (cfg, key,
                                                                 value)


# -- input that is not UTF-8 -------------------------------------------------------


def test_non_utf8_source_is_one_diagnostic(tmp_path, capsys):
    src = tmp_path / "bad.c"
    src.write_bytes(load("table1.c").encode().replace(b"return 0;",
                                                      b"return 0; /* \xff */"))
    line = load("table1.c").splitlines().index("    return 0;") + 1
    for command in ("explore", "transform"):
        code, out, err = run_cli([command, src, "--out", tmp_path / command],
                                 capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert "%s:%d:" % (src, line) in err and "UTF-8" in err


def test_non_utf8_executor_config_is_one_diagnostic(tmp_path, capsys):
    cfg = tmp_path / "exec.cfg"
    cfg.write_bytes(b"mode = simulated\n# \xff\n")
    code, out, err = run_cli(["explore", DATA / "table1.c", "--out",
                              tmp_path / "o", "--executor", cfg], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: %s:2:" % cfg) and err.count("\n") == 1


def test_non_utf8_csv_is_one_diagnostic(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_bytes(load("table8.csv").encode() + b"\xff\n")
    for argv in (["report", csv], ["explore", DATA / "table1.c", "--replay",
                                   csv]):
        code, out, err = run_cli(argv + ["--out", tmp_path / "r"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: %s:" % csv) and err.count("\n") == 1
        assert "UTF-8" in err


def test_cli_entry_point_runs():
    # the child finds the package whether or not PYTHONPATH names it
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "hmppgen.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "transform" in proc.stdout


LOADED = """import sys
from hmppgen.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.startswith("hmppgen")))
sys.exit(code)
"""


def modules_loaded(argv) -> set[str]:
    """The hmppgen modules a fresh interpreter holds after one command."""
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", LOADED]
                          + [str(a) for a in argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("hmppgen.")
            for m in proc.stdout.splitlines()[-1].split()}


def test_each_command_loads_only_its_layers(tmp_path):
    assert modules_loaded(["report", DATA / "table8.csv",
                           "--out", tmp_path / "r"]) == {
        "hmppgen", "cli", "errors", "report", "variants"}
    loaded = modules_loaded(["transform", DATA / "gemm64.c",
                             "--out", tmp_path / "t", "--inline", "all"])
    assert {"parser", "emit", "context"} <= loaded
    assert not loaded & {"explore", "report"}
    loaded = modules_loaded(["explore", DATA / "jacobi_t6.c", "--out",
                             tmp_path / "x", "--replay", DATA / "table8.csv"])
    assert "report" in loaded
    assert not loaded & {"parser", "explore", "emit", "context", "cost"}


# -- nesting limit ----------------------------------------------------------------


DEEP = """int main() {
    int i, x;
    double A[8];
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        %s
        A[i] = x;
    }
    printf("%%g\\n", A[1]);
    return 0;
}
"""

# Nesting levels count from main's body (0): the loop is level 1, its body 2
# and `x = ...` 3; the assignment puts its value at 4 and the value's first
# operand at 5, so each body below reaches level 5 + n.
NESTED = {
    "statements": lambda n: "{ " * n + "x = 1;" + " }" * n,
    "parentheses": lambda n: "x = " + "(" * n + "1" + ")" * n + ";",
    "chain": lambda n: "x = 1" + " + 1" * n + ";",
}


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_nesting_limit(tmp_path, capsys, kind):
    at_limit = tmp_path / "ok.c"
    at_limit.write_text(DEEP % NESTED[kind](MAX_NESTING - 5))
    code, _, err = run_cli(["explore", at_limit, "--out", tmp_path / "o",
                            "--reps", "1"], capsys)
    assert code == 0, err

    too_deep = tmp_path / "deep.c"
    too_deep.write_text(DEEP % NESTED[kind](MAX_NESTING - 4))
    code, out, err = run_cli(["explore", too_deep, "--out", tmp_path / "d"],
                             capsys)
    assert code == 1
    assert re.fullmatch(r"\S*deep\.c:6:\d+: nesting deeper than %d levels "
                        r"is not supported\n" % MAX_NESTING, err), err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("kind", sorted(NESTED))
def test_stmt_nesting_counts_like_the_parser(kind):
    # the deepest input the parser accepts reaches exactly MAX_NESTING
    unit = parse_translation_unit(DEEP % NESTED[kind](MAX_NESTING - 5))
    assert max(stmt_nesting(s, 1)
               for s in unit.function("main").body.stmts) == MAX_NESTING


INLINED = """int helper(int v) {
    %s
    return v;
}
int main() {
    int i;
    int A[8];
    #pragma omp parallel for check
    for (i = 0; i < 8; i++) {
        A[i] = helper(i);
    }
    printf("%%d\\n", A[1]);
    return 0;
}
"""


def test_inlining_nesting_limit(tmp_path, capsys):
    # In the codelet the call statement is at level 3, so the inlined body's
    # statements start at 4, and `v = v + 1;` inside n blocks reaches
    # 4 + n + 3 (the value's right operand is the chain's second level).
    def blocks(n):
        return "{ " * n + "v = v + 1;" + " }" * n

    at_limit = tmp_path / "ok.c"
    at_limit.write_text(INLINED % blocks(MAX_NESTING - 7))
    code, _, err = run_cli(["explore", at_limit, "--out", tmp_path / "o",
                            "--reps", "1"], capsys)
    assert code == 0, err

    # only the outlined variants inline `helper`: each is a failed row, and
    # the baseline is still measured
    too_deep = tmp_path / "deep.c"
    too_deep.write_text(INLINED % blocks(MAX_NESTING - 6))
    out_dir = tmp_path / "d"
    code, out, err = run_cli(["explore", too_deep, "--out", out_dir], capsys)
    assert code == 0, err
    reason = ("%s:10: inlining 'helper' here nests deeper than %d levels, "
              "which is not supported" % (too_deep, MAX_NESTING))
    rows = parse_csv((out_dir / "report.csv").read_text())
    assert not rows[0].failed and rows[0].signature_text == "0, 0, 0"
    assert len(rows) > 1
    assert all(m.failed and m.reason == reason for m in rows[1:])
    assert err.splitlines() == ["variant %s failed: %s" % (m.name, reason)
                                for m in rows[1:]]
    manifest = (out_dir / "variants" / "manifest.txt").read_text()
    assert manifest.splitlines() == ["%s\t0, 0, 0\tdeep__0_0_0.c"
                                     % rows[0].name]
    assert [p.name for p in (out_dir / "variants").glob("*.c")] \
        == ["deep__0_0_0.c"]
    assert (out_dir / "logs" / "0_0_1.log").read_text() \
        == "not built: %s\n" % reason
    assert len(list((out_dir / "logs").glob("*.log"))) == len(rows)
    assert (out_dir / "speedup.dat").exists()
    assert (out_dir / "tradeoff.dat").exists()


def test_failed_shape_is_analysed_once(tmp_path, capsys, monkeypatch):
    # the outlined variants of the too-deep input share one shape; its
    # failed analysis is kept and raised again for each of them
    import hmppgen.emit
    calls = []
    outline = hmppgen.emit.outline_block

    def counted(*args):
        calls.append(args)
        return outline(*args)

    monkeypatch.setattr(hmppgen.emit, "outline_block", counted)
    too_deep = tmp_path / "deep.c"
    n = MAX_NESTING - 6  # one level past the limit, as above
    too_deep.write_text(INLINED % ("{ " * n + "v = v + 1;" + " }" * n))
    code, _, err = run_cli(["explore", too_deep, "--out", tmp_path / "d"],
                           capsys)
    assert code == 0, err
    assert len(err.splitlines()) == 21
    assert len(calls) == 1
