"""Pins the bytes of representative sweep and transform outputs, stderr
included (as `stderr.txt`, with the data directory shown as `tests/data`).
A run named in AGGREGATED is pinned by one digest over every file it
writes (each file's relative path and bytes, in path order), so a sweep of
thousands of files stays one line.

A refactoring that must not change outputs keeps these digests.  After a
deliberate output change, regenerate them with

    PYTHONPATH=src python tests/test_sweep_digests.py > tests/data/sweeps.sha256

and say in the change which outputs moved.
"""

import hashlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path


DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "sweeps.sha256"

# (output directory name, CLI arguments after the input and --out)
RUNS = [
    ("gemm64", "gemm64.c", ["explore", "--reps", "1"]),
    ("jacobi128", "jacobi128.c", ["explore", "--reps", "1"]),
    ("jacobi_t6", "jacobi_t6.c", ["explore", "--reps", "1"]),
    ("table1", "table1.c", ["explore", "--reps", "1"]),
    ("table3", "table3.c", ["explore", "--reps", "1"]),
    ("pinned_pair", "pinned_pair.c", ["explore", "--reps", "1"]),
    ("table5_analysis", "table5.c", ["transform", "--dump-analysis", None]),
    ("inline_run", "inline_run.c", ["transform", "--inline", "all"]),
    ("nested_calls", "nested_calls.c", ["transform", "--inline", "all"]),
    ("global_helper", "global_helper.c", ["transform"]),
    ("table9_analysis", "table9.c",
     ["transform", "--inline", "all", "--dump-analysis", None]),
    # a check block and a plain loop in one parallel region, which the
    # outlined variants dissolve
    ("region", "region.c", ["explore", "--reps", "1"]),
    # 1,849 variants over 9 shapes: groups, asynchronous and release
    ("table5", "table5.c", ["explore", "--reps", "1", "--cap", "2000"]),
]
AGGREGATED = {"table5"}

DIGESTED = ("report.csv", "manifest.txt", "variants/manifest.txt",
            "variants/*.c", "logs/*.log", "*.c", "analysis.txt", "stderr.txt")


def sweep_digests(root: Path, runs=RUNS) -> list[str]:
    """Runs every entry of `runs` under `root`; returns `<sha256>  <path>`
    lines."""
    from hmppgen.cli import main

    lines = []
    for name, source, args in runs:
        out = root / name
        command, *rest = args
        rest = [str(out / "analysis.txt") if a is None else a for a in rest]
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main([command, str(DATA / source), "--out", str(out), *rest])
        assert code == 0, "%s exited %d" % (name, code)
        (out / "stderr.txt").write_text(
            err.getvalue().replace(str(DATA), "tests/data"), encoding="utf-8")
        if name in AGGREGATED:
            total = hashlib.sha256()
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                rel = path.relative_to(root).as_posix().encode("utf-8")
                total.update(b"%d:%s" % (len(rel), rel))
                data = path.read_bytes()
                total.update(b"%d:%s" % (len(data), data))
            lines.append("%s  %s/**" % (total.hexdigest(), name))
            continue
        files = sorted({p for pattern in DIGESTED for p in out.glob(pattern)})
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append("%s  %s" % (digest, path.relative_to(root).as_posix()))
    return lines


def test_sweep_outputs_match_digests(tmp_path):
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    assert sweep_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("".join(line + "\n" for line in sweep_digests(Path(tmp))))
