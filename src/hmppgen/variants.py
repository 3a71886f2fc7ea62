"""Directive flag sets, their three-integer signatures, and the variant space.

Bit layout: wordA holds noupdate(1) / release(2) / asynchronous(4) /
advancedload(8); wordB holds delegatedstore(1) / group(2); wordC is 1
only for the plain codelet variant (no optional directives).  (0, 0, 0)
is reserved for the untransformed OpenMP baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import PlanError

WORD_A_LIMIT = 16
WORD_B_LIMIT = 4
WORD_C_LIMIT = 2

DEFAULT_VARIANT_CAP = 512


@dataclass(frozen=True)
class FlagSet:
    baseline: bool = False
    advancedload: bool = False
    release: bool = False
    asynchronous: bool = False
    noupdate: bool = False
    delegatedstore: bool = False
    group: bool = False

    def validate(self):
        if self.baseline:
            if any((self.advancedload, self.release, self.asynchronous,
                    self.noupdate, self.delegatedstore, self.group)):
                raise PlanError("baseline excludes every other flag")
            return
        if self.noupdate and not self.advancedload:
            raise PlanError("noupdate requires advancedload")
        if self.asynchronous and not (self.advancedload or self.delegatedstore):
            raise PlanError(
                "asynchronous requires advancedload or delegatedstore")
        if self.release and not (self.advancedload or self.delegatedstore):
            raise PlanError("release requires advancedload or delegatedstore")

    @property
    def plain(self) -> bool:
        """True for the codelet/callsite form with no optional directives."""
        return not self.baseline and not any(
            (self.advancedload, self.release, self.asynchronous,
             self.noupdate, self.delegatedstore, self.group))

    def name(self) -> str:
        if self.baseline:
            return "Original(OpenMP)"
        if self.plain:
            return "Codelet"
        parts = []
        if self.advancedload:
            parts.append("Adv_load")
        if self.release:
            parts.append("Rel")
        if self.asynchronous:
            parts.append("Async")
        if self.delegatedstore:
            parts.append("delStore")
        if self.noupdate:
            parts.append("NoUpdate")
        if self.group:
            parts.append("Group")
        return "".join(parts)


@dataclass(frozen=True)
class Signature:
    words: tuple[int, int, int]

    def __post_init__(self):
        a, b, c = self.words
        if not (0 <= a < WORD_A_LIMIT and 0 <= b < WORD_B_LIMIT
                and 0 <= c < WORD_C_LIMIT):
            raise PlanError("signature %r out of field bounds" % (self.words,))

    def render(self) -> str:
        return "%d, %d, %d" % self.words

    def filename_part(self) -> str:
        return "%d_%d_%d" % self.words

    @classmethod
    def parse(cls, text: str) -> "Signature":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3 or not all(p.isdigit() for p in parts):
            raise PlanError("malformed signature %r" % text)
        return cls(tuple(int(p) for p in parts))


BASELINE = FlagSet(baseline=True)
BASELINE_SIGNATURE = Signature((0, 0, 0))


def encode_signature(flags: FlagSet) -> Signature:
    flags.validate()
    if flags.baseline:
        return BASELINE_SIGNATURE
    a = (flags.noupdate * 1 + flags.release * 2 + flags.asynchronous * 4
         + flags.advancedload * 8)
    b = flags.delegatedstore * 1 + flags.group * 2
    c = 1 if a == 0 and b == 0 else 0
    return Signature((a, b, c))


def decode_signature(sig: Signature) -> FlagSet:
    a, b, c = sig.words
    if (a, b, c) == (0, 0, 0):
        return BASELINE
    if c == 1:
        if a or b:
            raise PlanError(
                "wordC=1 names the plain codelet and excludes other flags")
        return FlagSet()
    if a == 0 and b == 0:
        raise PlanError("(0, 0, 0) with wordC=0 would collide with the "
                        "baseline; plain codelet is (0, 0, 1)")
    flags = FlagSet(
        noupdate=bool(a & 1), release=bool(a & 2), asynchronous=bool(a & 4),
        advancedload=bool(a & 8), delegatedstore=bool(b & 1),
        group=bool(b & 2))
    try:
        flags.validate()
    except PlanError as e:
        raise PlanError("infeasible signature %s: %s" % (sig.render(), e))
    return flags


def feasible_flag_sets(group_eligible: bool) -> list[FlagSet]:
    """All valid non-baseline FlagSets, ascending by signature."""
    out = []
    bools = (False, True)
    group_choices = bools if group_eligible else (False,)
    for adv, rel, asy, noup, dstore, grp in itertools.product(
            bools, bools, bools, bools, bools, group_choices):
        f = FlagSet(advancedload=adv, release=rel, asynchronous=asy,
                    noupdate=noup, delegatedstore=dstore, group=grp)
        try:
            f.validate()
        except PlanError:
            continue
        out.append(f)
    out.sort(key=lambda f: encode_signature(f).words)
    return out


@dataclass(frozen=True)
class VariantPlan:
    block_id: int
    flags: FlagSet
    signature: Signature

    @classmethod
    def of(cls, block_id: int, flags: FlagSet) -> "VariantPlan":
        return cls(block_id, flags, encode_signature(flags))


def enumerate_variants(block_id: int, pragma, group_eligible: bool) -> list[VariantPlan]:
    """Plans for one annotated block: one pinned plan for `fixed`, the full
    feasible space (baseline first) for `check`."""
    if pragma.fixed is not None:
        flags = decode_signature(Signature(pragma.fixed))
        return [VariantPlan.of(block_id, flags)]
    if not pragma.check:
        return [VariantPlan.of(block_id, BASELINE)]
    plans = [VariantPlan.of(block_id, BASELINE)]
    plans.extend(VariantPlan.of(block_id, f)
                 for f in feasible_flag_sets(group_eligible))
    return plans


@dataclass(frozen=True)
class UnitVariant:
    """One whole-program configuration: a plan for every annotated block."""

    name: str
    plans: tuple[VariantPlan, ...]  # block order
    varying: tuple[int, ...]  # indices into plans of the enumerated blocks

    def _named_plans(self) -> list[VariantPlan]:
        return [self.plans[i] for i in self.varying] or list(self.plans)

    @property
    def signature_text(self) -> str:
        named = self._named_plans()
        if not named:
            return BASELINE_SIGNATURE.render()
        return " | ".join(p.signature.render() for p in named)

    @property
    def filename_sig(self) -> str:
        named = self._named_plans()
        if not named:
            return BASELINE_SIGNATURE.filename_part()
        return "__".join(p.signature.filename_part() for p in named)


def plans_for_unit(block_plans: list[list[VariantPlan]],
                   cap: int = DEFAULT_VARIANT_CAP) -> list[UnitVariant]:
    """Cartesian product over per-block plan lists, deterministic order.

    Only blocks with more than one plan (check blocks) contribute to the
    variant name; pinned blocks are constant across the sweep.  When no
    block varies and some block is pinned off the baseline, the
    all-baseline variant comes first, so the sweep has a baseline to
    compare against.
    """
    varying = tuple(i for i, plans in enumerate(block_plans) if len(plans) > 1)
    combos = itertools.product(*block_plans)
    total = 1
    for plans in block_plans:
        total *= max(len(plans), 1)
    pinned = [] if varying else [plans[0] for plans in block_plans]
    if any(not p.flags.baseline for p in pinned):
        baseline = tuple(VariantPlan.of(p.block_id, BASELINE) for p in pinned)
        combos = itertools.chain([baseline], combos)
        total += 1
    if total > cap:
        raise PlanError(
            "variant space has %d members, above the cap of %d; pin blocks "
            "with fixed(a, b, c) to shrink the exploration" % (total, cap))
    out = []
    for combo in combos:
        named = [combo[i] for i in varying] or list(combo)
        if all(p.flags.baseline for p in named):
            name = "Original(OpenMP)"
        else:
            name = "%s__%s" % (
                "_".join(p.flags.name() for p in named),
                "__".join(p.signature.filename_part() for p in named))
        out.append(UnitVariant(name=name, plans=combo, varying=varying))
    return out
