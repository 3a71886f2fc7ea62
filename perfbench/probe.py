"""Set-up probe: everything a sweep does before its first `build_variant`.

Imports `hmppgen.cli`, then parses each input, finds its OpenMP blocks and
enumerates its variant plans (the group-eligibility probe plus the
cartesian product), and prints one JSON object mapping each enumerated
input to its variant count.  `run.py` times this whole process, from
interpreter start to exit, as `setup_s`.

    PYTHONPATH=src python3 perfbench/probe.py '{"enumerate": {"a.c": 2000}, "parse": ["b.c"]}'
"""

from __future__ import annotations

import json
import sys

import hmppgen.cli  # noqa: F401  (the import is part of what is timed)
from hmppgen.context import form_groups
from hmppgen.parser import parse_file
from hmppgen.transform import find_omp_blocks
from hmppgen.variants import FlagSet, enumerate_variants, plans_for_unit


def count_variants(path: str, cap: int) -> int:
    """Same plan space as `hmppgen explore`: a block may enumerate group
    variants only when the probe puts it in a group of two or more."""
    unit = parse_file(path)
    blocks = find_omp_blocks(unit)
    probe = form_groups(unit, blocks, {
        b.block_id: FlagSet(advancedload=True, group=True)
        for b in blocks if b.annotated})
    plans = [enumerate_variants(
        b.block_id, b.pragma,
        b.block_id in probe and len(probe[b.block_id].block_ids) >= 2)
        for b in blocks]
    return len(plans_for_unit(plans, cap=cap))


def main(spec: dict) -> dict:
    for path in spec.get("parse", []):
        find_omp_blocks(parse_file(path))
    return {path: count_variants(path, cap)
            for path, cap in spec.get("enumerate", {}).items()}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
