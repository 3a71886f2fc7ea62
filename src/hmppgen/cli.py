"""Command-line driver: transform one configuration, explore a variant
space end to end, or post-process a measurement CSV.  Each command
imports only the layers it runs, so `report` loads no compiler."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    AnalysisError, CParseError, ExploreError, PlanError, ReportError,
    SourceError, TransformError, read_text,
)
from .variants import (
    BASELINE, DEFAULT_VARIANT_CAP, FlagSet, Signature, UnitVariant,
    VariantPlan, decode_signature,
)


def _err(msg: str):
    print(msg, file=sys.stderr)


def _parse_blocks_filter(text: str | None) -> set[int] | None:
    if not text:
        return None
    try:
        return {int(p) for p in text.split(",") if p.strip()}
    except ValueError:
        raise ReportError("--blocks takes a comma-separated list of line "
                          "numbers, got %r" % text)


def _parse_unit(path: str):
    """Parses the input and prints its region warnings once."""
    from .parser import parse_file
    from .transform import find_omp_blocks, region_warnings
    unit = parse_file(path)
    blocks = find_omp_blocks(unit)
    for w in region_warnings(blocks, unit.filename):
        _err(w)
    return unit, blocks


def cmd_transform(args) -> int:
    from .context import dump_context, dump_plan
    from .emit import build_variant, write_variants
    unit, blocks = _parse_unit(args.input)
    selected = _parse_blocks_filter(args.blocks)
    out_dir = Path(args.out)
    stem = Path(args.input).stem
    annotated = {b.block_id for b in blocks
                 if b.annotated and (selected is None or b.line in selected)}
    if args.inline == "all":
        inline = "all"
    elif args.inline:
        inline = tuple(n.strip() for n in args.inline.split(",") if n.strip())
    else:
        inline = ()

    if not annotated and not inline:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / Path(args.input).name).write_text(
            Path(args.input).read_text(encoding="utf-8"), encoding="utf-8")
        _err("warning: no check/fixed block found; file copied unchanged")
        return 0

    plans = []
    for b in blocks:
        if b.block_id in annotated and b.pragma.fixed is not None:
            plans.append(VariantPlan.of(
                b.block_id, decode_signature(Signature(b.pragma.fixed))))
        elif b.block_id in annotated:
            plans.append(VariantPlan.of(b.block_id, FlagSet()))  # plain codelet
        else:
            plans.append(VariantPlan.of(b.block_id, BASELINE))
    varying = tuple(i for i, b in enumerate(blocks) if b.block_id in annotated)
    uv = UnitVariant(name="transformed", plans=tuple(plans), varying=varying)
    rv = build_variant(unit, uv, extra_inline=inline)
    for d in rv.diagnostics:
        _err(d)
    write_variants([rv], stem, out_dir)
    if args.dump_analysis:
        Path(args.dump_analysis).write_text(
            dump_context(rv.table) + dump_plan(rv.plan, rv.table),
            encoding="utf-8")
    print("wrote %s__%s.c" % (stem, rv.filename_sig))
    return 0


def cmd_explore(args) -> int:
    from .report import parse_csv, write_csv
    unit, blocks = _parse_unit(args.input)
    out_dir = Path(args.out)
    if args.replay:
        measurements = parse_csv(read_text(args.replay))
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        if not any(b.annotated for b in blocks):
            _err("error: explore needs at least one check or fixed block")
            return 2
        from .explore import ExecutorSpec, explore, parse_executor_config
        executor = (parse_executor_config(args.executor) if args.executor
                    else ExecutorSpec())
        measurements = explore(unit, out_dir, executor, repetitions=args.reps,
                               cap=args.cap,
                               lines=_parse_blocks_filter(args.blocks))
    csv_text = write_csv(measurements)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    _summarize(measurements, out_dir, args.ops, args.baseline)
    failures = [m for m in measurements if m.failed]
    for m in failures:
        _err("variant %s failed: %s" % (m.name, m.reason))
    return 0


def cmd_report(args) -> int:
    from .report import parse_csv
    measurements = parse_csv(read_text(args.input))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _summarize(measurements, out_dir, args.ops, args.baseline)
    return 0


def _summarize(measurements, out_dir, ops, baseline_sig):
    from .report import BASELINE_SIGNATURE_TEXT, emit_plot_data, speedup
    # a composite signature names one plan per check block: a,b,c|d,e,f
    baseline_text = " | ".join(
        Signature.parse(part).render() for part in baseline_sig.split("|")) \
        if baseline_sig else BASELINE_SIGNATURE_TEXT
    result = emit_plot_data(measurements, out_dir, op_count=ops,
                            baseline_signature=baseline_text)
    for w in result["warnings"]:
        _err(w)
    base = result["baseline"]
    for p in result["frontier"]:
        sig = next((m.signature_text for m in measurements
                    if m.name == p.variant), "?")
        print("pareto %s (%s) time_ms=%.6g energy_J=%.6g"
              % (p.variant, sig, p.time_ms, p.energy_J))
    for m in measurements:
        if m.failed:
            continue
        print("speedup %s (%s) %.6g" % (m.name, m.signature_text,
                                        speedup(base, m)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hmppgen",
        description="Rewrite OpenMP-annotated C into HMPP directive variants "
                    "and rank them by time and energy.  Inputs must be "
                    "preprocessed (run `cpp` first); only #pragma lines may "
                    "remain.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="render the pinned/default plans")
    t.add_argument("input")
    t.add_argument("--out", required=True)
    t.add_argument("--blocks", help="comma-separated pragma line numbers")
    t.add_argument("--inline", help="comma-separated functions to inline, "
                                    "or 'all'")
    t.add_argument("--dump-analysis", help="write the context/plan dump here")
    t.set_defaults(fn=cmd_transform)

    e = sub.add_parser("explore", help="enumerate, execute and rank variants")
    e.add_argument("input")
    e.add_argument("--out", required=True)
    e.add_argument("--executor", help="executor config file (key = value)")
    e.add_argument("--reps", type=int, default=5)
    e.add_argument("--cap", type=int, default=DEFAULT_VARIANT_CAP)
    e.add_argument("--ops", type=float, help="operation count for GOPS/W")
    e.add_argument("--baseline", help="baseline signature, e.g. '0,0,0', "
                                      "or '0,0,0|0,0,0' for two check blocks")
    e.add_argument("--replay", help="reuse a recorded CSV instead of running")
    e.add_argument("--blocks", help="comma-separated pragma line numbers")
    e.set_defaults(fn=cmd_explore)

    r = sub.add_parser("report", help="post-process a measurement CSV")
    r.add_argument("input")
    r.add_argument("--out", required=True)
    r.add_argument("--ops", type=float)
    r.add_argument("--baseline")
    r.set_defaults(fn=cmd_report)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (CParseError, TransformError, AnalysisError) as e:
        _err(e.format())
        return 1
    except (PlanError, ExploreError, ReportError, SourceError, OSError) as e:
        _err("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
