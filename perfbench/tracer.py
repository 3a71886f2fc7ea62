"""Traced run of one hmppgen command, from outside the program.

Wraps public functions of hmppgen's modules, then calls
`hmppgen.cli.main(argv)` in this process.  Each wrapped call becomes a span
(name, start, end, parent, attributes) kept in memory and written as JSON
when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py spans.json explore a.c --out o

Because the modules import each other's functions by name, a wrapper is
installed on every `hmppgen.*` module attribute bound to the original
function, not only on the defining module.  A target that no longer exists
is listed under "absent" instead of failing the run.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import pkgutil
import sys
import time


def _len(result):
    return {"n": len(result)}


def _shapes(result):
    """A shape is which blocks are outlined plus their group bits."""
    shapes = {tuple((p.block_id, not p.flags.baseline, p.flags.group)
                    for p in uv.plans) for uv in result}
    return {"n": len(result), "shapes": len(shapes)}


def _sim(result):
    return {"result": [result.time_s, result.energy_J]}


def _run(result):
    return {"n": len(result), "failed": sum(1 for m in result if m.failed)}


# (module, function, span name, attributes taken from the result)
TARGETS = [
    ("hmppgen.parser", "parse_file", "cfront.parse", None),
    ("hmppgen.lexer", "tokenize", "cfront.tokenize", _len),
    ("hmppgen.parser", "resolve", "cfront.resolve", None),
    ("hmppgen.printer", "print_unit", "cfront.print", None),
    ("hmppgen.variants", "plans_for_unit", "variants.enumerate", _shapes),
    ("hmppgen.emit", "build_variant", "emit.build", None),
    ("hmppgen.emit", "attach_directives", "emit.attach", None),
    ("hmppgen.emit", "write_variants", "emit.write", None),
    ("hmppgen.transform", "find_omp_blocks", "transform.find_blocks", None),
    ("hmppgen.transform", "outline_block", "transform.outline", None),
    ("hmppgen.transform", "inline_calls_in_place", "transform.inline", None),
    ("hmppgen.context", "form_groups", "context.form_groups", None),
    ("hmppgen.context", "build_context_table", "context.table", None),
    ("hmppgen.context", "build_transfer_plan", "context.plan", None),
    ("hmppgen.explore", "simulate_variant", "explore.simulate", _sim),
    ("hmppgen.explore", "run_exploration", "explore.run", _run),
    ("hmppgen.report", "write_csv", "report.write_csv", None),
    ("hmppgen.report", "parse_csv", "report.parse_csv", None),
    ("hmppgen.report", "emit_plot_data", "report.plot", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self.stack: list[int] = []
        self.absent: list[str] = []

    def call(self, name, fn, args, kwargs, attrs_of=None):
        index = len(self.spans)
        span = [name, time.perf_counter_ns(), 0,
                self.stack[-1] if self.stack else -1, None]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span[4] = {"error": type(e).__name__}
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()
        if attrs_of is not None:
            try:
                span[4] = attrs_of(result)
            except (AttributeError, TypeError):
                span[4] = {"unreadable": True}
        return result

    def wrap(self, name, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)
        return traced

    def install(self):
        import hmppgen
        modules = [importlib.import_module("hmppgen." + m.name)
                   for m in pkgutil.iter_modules(hmppgen.__path__)]
        modules.append(hmppgen)
        for mod_name, attr, span, attrs_of in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(original):
                self.absent.append("%s.%s" % (mod_name, attr))
                continue
            traced = self.wrap(span, original, attrs_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        emit = sys.modules.get("hmppgen.emit")
        if getattr(emit, "copy", None) is copy:
            # only the top-level unit copy made in emit; the recursive
            # deepcopy calls inside the copy module are not counted again
            emit.copy = _CopyProxy(self)
        else:
            self.absent.append("hmppgen.emit.copy")


class _CopyProxy:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def deepcopy(self, *args, **kwargs):
        return self._tracer.call("emit.unit_copy", copy.deepcopy, args, kwargs)

    def __getattr__(self, name):
        return getattr(copy, name)


def main(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import hmppgen.cli
    try:
        return tracer.call("cli.command", hmppgen.cli.main, (argv,), {})
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
