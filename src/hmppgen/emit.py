"""Rendering transformed units into compilable C with canonical directives.

`build_variant` is the single entry point the driver and the exploration
harness use.  It works in two steps.  The analysis of a program *shape*
(which blocks are outlined, and which of those are group-flagged) copies
the unit, outlines, inlines, resolves, builds the context table and
finds every transfer point (`context.place`); no other flag reaches it,
so every variant of one shape can share it.  The analysis then compiles
the host function into a cost program for the simulator and prints the
tree once into a template.  A shape with no kernel, the all-baseline
variant's, is analysed the same way: its table and cost program are
those of the function that holds the check/fixed blocks, and its
transfer plan is empty.  The render of one variant applies its flags to
the shape's transfer points (`build_transfer_plan`) and fills the
template's holes with the variant's HMPP directives
(`attach_directives` returns an `Overlay`; the tree itself is never
changed after its analysis).  The flags stay with the variant
(`RenderedVariant.flags`); nothing the shape holds carries them.  Where
each transfer prints, and in which order, is the plan's schedule, which
`context` decides; this module only renders it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .context import (
    ContextTable, LoadPlan, Placement, ReleasePlan, SyncPlan,
    TransferPlan, build_context_table, build_transfer_plan, form_groups, place,
)
from .cost import CostProgram, compile_costs
from .errors import SourceError
from .nodes import SourceUnit
from .parser import resolve
from .pragmas import HmppArg, HmppDirective, OmpPragma
from .printer import (
    Overlay, Template, pragma_text, print_expr, unit_template,
)
from .transform import (
    Kernel, OmpBlock, check_global_scope, find_omp_blocks,
    inline_calls_in_place, insert_codelets, kernel_path_targets, outline_block,
)
from .variants import BASELINE, FlagSet, UnitVariant


@dataclass
class RenderedVariant:
    """One variant: `source` is its C text with every HMPP directive, and
    `flags` its flags by block id.  `unit`, `kernels`, `table` and
    `program` are its shape's, shared with the shape's other variants:
    they carry none of the variant's flags or directives and must not be
    changed."""

    name: str
    signature_text: str
    filename_sig: str
    source: str
    flags: dict[int, FlagSet]
    unit: SourceUnit
    kernels: list[Kernel]
    plan: TransferPlan
    table: ContextTable
    program: CostProgram
    diagnostics: list[str] = field(default_factory=list)


def _compact(expr) -> str:
    return print_expr(expr).replace(" ", "")


def _codelet_directive(k: Kernel, flags: FlagSet, plan: TransferPlan,
                       table: ContextTable) -> HmppDirective:
    group = plan.group_of.get(k.label)
    args = []
    for p in k.codelet.params:
        if p.io == "by-value-scalar":
            continue
        a = HmppArg(p.name)
        if p.reduced:
            a.size = "1"
        else:
            # a mapped symbol is resident, so the codelet only reads it
            if plan.is_mapped(k.label, table.caller(k, p)):
                a.io = "in"
            elif p.io != "in":
                a.io = p.io
            if p.size_expr is not None:
                a.size = _compact(p.size_expr)
        if a.io or a.size:
            args.append(a)
    star = not (flags.advancedload or flags.delegatedstore or flags.group)
    return HmppDirective(kind="codelet", group=group, label=k.label,
                         target=None if group else "CUDA", args=args,
                         star_transfer=star)


def _callsite_directive(k: Kernel, flags: FlagSet,
                        plan: TransferPlan) -> HmppDirective:
    group = plan.group_of.get(k.label)
    args = [HmppArg(s.name, noupdate=True)
            for s in plan.noupdate.get(k.label, [])]
    return HmppDirective(kind="callsite", group=group, label=k.label,
                         args=args, asynchronous=flags.asynchronous)


def attach_directives(flags: dict[int, FlagSet], plan: TransferPlan,
                      table: ContextTable) -> Overlay:
    """Prints the plan's schedule and the codelet and callsite directives
    of the table's kernels under their `flags` (by block id) as an
    overlay for the template of the table's unit; the tree itself is left
    unchanged.

    A slot holds the schedule's transfers in its order.  The group
    declarations and mapbyname lead the function's first slot, and a
    callsite directive follows the rest of its slot.
    """
    holes = {slot: _grouped_transfers(transfers)
             for slot, transfers in plan.schedule.items()}
    if plan.groups:
        head = [HmppDirective(kind="group", group=gp.label, target="CUDA")
                for gp in plan.groups]
        head += [HmppDirective(kind="mapbyname", group=gp.label,
                               symbols=[s.name for s in gp.mapbyname])
                 for gp in plan.groups if gp.mapbyname]
        first = "before", id(table.fn.body.stmts[0])
        holes[first] = head + holes.get(first, [])
    for k in table.kernels:
        f = flags[k.block_id]
        holes["codelet", id(k.codelet)] = [
            _codelet_directive(k, f, plan, table)]
        holes.setdefault(("before", id(k.callsite)), []).append(
            _callsite_directive(k, f, plan))
    return {hole: pragma_text(directives)
            for hole, directives in holes.items()}


def _grouped_transfers(transfers: list) -> list[HmppDirective]:
    """One slot's directives, in the schedule's order; the loads (or the
    stores) that share group, label and insertion point coalesce into one
    directive."""
    out = []
    merged: dict[tuple, HmppDirective] = {}
    for t in transfers:
        if isinstance(t, SyncPlan):
            out.append(HmppDirective(kind="synchronize", group=t.group,
                                     label=t.label))
        elif isinstance(t, ReleasePlan):
            out.append(HmppDirective(
                kind="release", group=t.name if t.grouped else None,
                label=None if t.grouped else t.name))
        else:
            load = isinstance(t, LoadPlan)
            key = (load, t.group, t.label, id(t.point.anchor),
                   t.point.position)
            if key not in merged:
                merged[key] = HmppDirective(
                    kind="advancedload" if load else "delegatedstore",
                    group=t.group, label=t.label)
                out.append(merged[key])
            merged[key].args.append(
                HmppArg(t.symbol.name, addr=t.symbol.name) if load
                else HmppArg(t.param.name, addr=t.addr))
    return out


def _dissolve_regions(blocks: list[OmpBlock],
                      flags_by_block: dict[int, FlagSet]):
    """When any sub-block of a parallel region is outlined, the region pragma
    dissolves and surviving sub-blocks become `parallel for` with the
    region's shared/private clauses carried over verbatim."""
    regions = {}
    for b in blocks:
        if b.region is not None:
            regions.setdefault(id(b.region), b.region)
    for region in regions.values():
        transformed = {id(b) for b in region.blocks
                       if not flags_by_block.get(b.block_id, BASELINE).baseline}
        if not transformed:
            continue
        region.stmt.pragmas = [p for p in region.stmt.pragmas
                               if p is not region.pragma]
        for b in region.blocks:
            if id(b) in transformed:
                continue
            merged = OmpPragma(
                kind="parallel_for",
                shared=b.pragma.shared + [s for s in region.pragma.shared
                                          if s not in b.pragma.shared],
                private=b.pragma.private + [s for s in region.pragma.private
                                            if s not in b.pragma.private],
                reduction=b.pragma.reduction, line=b.pragma.line)
            b.stmt.pragmas = [merged if p is b.pragma else p
                              for p in b.stmt.pragmas]


@dataclass
class Shape:
    """The analysis every variant of one program shape shares: the
    outlined, inlined tree, its kernels, the context table, the transfer
    points and the scope diagnostics, and what the tree compiles to: the
    host function's cost program and the printed text's template.  No
    flag of a variant is kept here."""

    unit: SourceUnit
    kernels: list[Kernel]
    table: ContextTable
    placement: Placement
    diagnostics: list[str]
    program: CostProgram
    template: Template


def _shape_key(uv: UnitVariant, extra_inline: "tuple[str, ...] | str"):
    """The outlined blocks, the group-flagged ones among them and the extra
    inlining: all that the analysis before transfer planning reads."""
    outlined = sorted(p.block_id for p in uv.plans if not p.flags.baseline)
    grouped = sorted(p.block_id for p in uv.plans
                     if not p.flags.baseline and p.flags.group)
    inline = extra_inline if isinstance(extra_inline, str) \
        else tuple(extra_inline)
    return tuple(outlined), tuple(grouped), inline


def _analyse_shape(unit: SourceUnit, flags_by_block: dict[int, FlagSet],
                   extra_inline: "tuple[str, ...] | str") -> Shape:
    """Outlines the non-baseline blocks of a copy of `unit`, inlines,
    builds the context table, places the transfers and compiles the cost
    program; with no kernels the table and the program are the host
    function's.

    The copy is resolved twice: before outlining (shared by the group
    probe and every block's outlining) and after the codelets are in
    place and inlined (shared by the context table, the scope check and
    the simulator).
    """
    work = copy.deepcopy(unit)
    blocks = find_omp_blocks(work)
    diagnostics = []
    res = resolve(work)
    groups = form_groups(work, blocks, flags_by_block, res)
    kernels: list[Kernel] = []
    for b in blocks:
        if flags_by_block.get(b.block_id, BASELINE).baseline:
            continue
        if b.region is not None:
            tag = str(b.region.line)
        elif b.block_id in groups:
            tag = str(groups[b.block_id].anchor_line)
        else:
            tag = ""
        kernels.append(outline_block(work, b, tag, res))
    _dissolve_regions(blocks, flags_by_block)

    insert_codelets(work, kernels)
    if extra_inline == "all":
        inline_calls_in_place(work, "all")
    else:
        targets = kernel_path_targets(work, kernels) | set(extra_inline)
        if targets:
            inline_calls_in_place(work, targets)
    res = resolve(work)
    table = build_context_table(work, kernels, res, blocks)
    for k in kernels:
        diagnostics.extend(check_global_scope(k.codelet, res, work.filename))
    return Shape(work, kernels, table, place(table, groups), diagnostics,
                 compile_costs(work, table, res), unit_template(work))


def shape_of(unit: SourceUnit, uv: UnitVariant,
             extra_inline: "tuple[str, ...] | str" = (),
             shapes: Optional[dict] = None) -> "Shape | SourceError":
    """The analysis of `uv`'s shape, or the diagnostic that failed it.

    `shapes` caches it by `_shape_key` across calls on the same unit;
    without it every call analyses afresh.  `unit` is never changed.
    """
    shapes = {} if shapes is None else shapes
    key = _shape_key(uv, extra_inline)
    if key not in shapes:
        try:
            shapes[key] = _analyse_shape(
                unit, {p.block_id: p.flags for p in uv.plans}, extra_inline)
        except SourceError as e:
            shapes[key] = e
    return shapes[key]


def build_variant(unit: SourceUnit, uv: UnitVariant,
                  extra_inline: "tuple[str, ...] | str" = (),
                  shapes: Optional[dict] = None) -> RenderedVariant:
    """Applies one UnitVariant to a parsed unit and renders the result.

    `shapes` is `shape_of`'s cache: a failed analysis is kept as its
    diagnostic, which every later variant of the shape raises again.
    `unit` is never changed.
    """
    flags_by_block = {p.block_id: p.flags for p in uv.plans}
    shape = shape_of(unit, uv, extra_inline, shapes)
    if isinstance(shape, SourceError):
        raise shape.with_traceback(None)
    plan = build_transfer_plan(shape.table, shape.placement, flags_by_block)
    overlay = attach_directives(flags_by_block, plan, shape.table)
    return RenderedVariant(
        name=uv.name, signature_text=uv.signature_text,
        filename_sig=uv.filename_sig, source=shape.template.fill(overlay),
        flags=flags_by_block, unit=shape.unit, kernels=shape.kernels,
        plan=plan, table=shape.table, program=shape.program,
        diagnostics=shape.diagnostics + plan.diagnostics)


def write_variant(rv: RenderedVariant, stem: str, out_dir) -> str:
    """Writes `<stem>__<a>_<b>_<c>.c` into an existing directory and returns
    the variant's manifest line: name, signature and file name."""
    path = Path(out_dir) / ("%s__%s.c" % (stem, rv.filename_sig))
    path.write_text(rv.source, encoding="utf-8")
    return "%s\t%s\t%s" % (rv.name, rv.signature_text, path.name)


def write_manifest(lines: list[str], out_dir) -> Path:
    """Writes the line-oriented index of the variants in `out_dir`."""
    index = Path(out_dir) / "manifest.txt"
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return index


def write_variants(rendered: list[RenderedVariant], stem: str,
                   out_dir) -> Path:
    """Writes `<stem>__<a>_<b>_<c>.c` files plus a line-oriented manifest
    index mapping variant name -> signature -> file path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return write_manifest([write_variant(rv, stem, out) for rv in rendered],
                          out)
