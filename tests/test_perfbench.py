"""The benchmark harness drives hmppgen through names and commands of its
own; these runs catch a refactor that silently breaks them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / script)]
                          + [str(a) for a in args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_setup_probe_counts_the_table5_space():
    spec = {"enumerate": {"tests/data/table5.c": 2000}}
    out = run("probe.py", json.dumps(spec))
    assert json.loads(out) == {"tests/data/table5.c": 1849}


def test_tracer_finds_every_target(tmp_path):
    spans = tmp_path / "spans.json"
    run("tracer.py", spans, "transform", "tests/data/gemm64.c",
        "--out", tmp_path / "o")
    assert json.loads(spans.read_text())["absent"] == []
