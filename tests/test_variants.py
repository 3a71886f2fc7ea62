import itertools

import pytest

from hmppgen.errors import PlanError
from hmppgen.pragmas import OmpPragma
from hmppgen.variants import (
    BASELINE, FlagSet, Signature, decode_signature, encode_signature,
    enumerate_variants, feasible_flag_sets, plans_for_unit,
)


def test_encode_examples():
    assert encode_signature(FlagSet(advancedload=True, noupdate=True,
                                    delegatedstore=True)).words == (9, 1, 0)
    assert encode_signature(BASELINE).words == (0, 0, 0)
    assert encode_signature(FlagSet(advancedload=True, release=True,
                                    noupdate=True, delegatedstore=True,
                                    group=True)).words == (11, 3, 0)
    assert encode_signature(FlagSet()).words == (0, 0, 1)


def test_decode_examples():
    f = decode_signature(Signature((10, 1, 0)))
    assert f == FlagSet(advancedload=True, release=True, delegatedstore=True)
    assert decode_signature(Signature((0, 0, 0))) == BASELINE
    assert decode_signature(Signature((0, 0, 1))) == FlagSet()


def test_decode_infeasible_names_the_rule():
    with pytest.raises(PlanError) as exc:
        decode_signature(Signature((1, 0, 0)))
    assert "noupdate" in str(exc.value) and "advancedload" in str(exc.value)
    with pytest.raises(PlanError) as exc:
        decode_signature(Signature((4, 0, 0)))
    assert "asynchronous" in str(exc.value)
    with pytest.raises(PlanError) as exc:
        decode_signature(Signature((2, 0, 0)))
    assert "release" in str(exc.value)


def test_signature_bounds():
    with pytest.raises(PlanError):
        Signature((16, 0, 0))
    with pytest.raises(PlanError):
        Signature((0, 4, 0))
    with pytest.raises(PlanError):
        Signature((0, 0, 2))


def test_wordc_one_excludes_other_flags():
    with pytest.raises(PlanError):
        decode_signature(Signature((9, 1, 1)))


def test_roundtrip_is_exhaustive():
    for group_eligible in (False, True):
        for f in [BASELINE] + feasible_flag_sets(group_eligible):
            assert decode_signature(encode_signature(f)) == f


def test_encode_is_injective_and_baseline_unique():
    sigs = {}
    for f in [BASELINE] + feasible_flag_sets(True):
        s = encode_signature(f).words
        assert s not in sigs, "collision at %r" % (s,)
        sigs[s] = f
    assert sigs[(0, 0, 0)] == BASELINE


def test_feasible_count_matches_brute_force():
    # oracle: count boolean tuples satisfying the three implications
    count = 0
    for a, d, s, n, r in itertools.product((0, 1), repeat=5):
        if n <= a and s <= (a or d) and r <= (a or d):
            count += 1
    assert count == 21
    assert len(feasible_flag_sets(False)) == 21
    assert len(feasible_flag_sets(True)) == 42


def _check_pragma():
    return OmpPragma(kind="parallel_for", check=True)


def test_enumerate_single_kernel_check_block():
    plans = enumerate_variants(1, _check_pragma(), group_eligible=False)
    assert len(plans) == 22
    assert plans[0].flags.baseline
    assert sum(1 for p in plans if not p.flags.baseline) == 21
    sigs = [p.signature.words for p in plans]
    assert len(set(sigs)) == 22
    assert sigs == sorted(sigs)
    for p in plans:
        assert decode_signature(p.signature) == p.flags


def test_enumerate_is_deterministic():
    a = enumerate_variants(1, _check_pragma(), True)
    b = enumerate_variants(1, _check_pragma(), True)
    assert a == b


def test_fixed_pins_exactly_one_plan():
    pragma = OmpPragma(kind="parallel_for", fixed=(9, 1, 0))
    plans = enumerate_variants(1, pragma, group_eligible=True)
    assert len(plans) == 1
    assert plans[0].signature.words == (9, 1, 0)


def test_unannotated_block_is_baseline():
    plans = enumerate_variants(1, OmpPragma(kind="parallel_for"), False)
    assert len(plans) == 1 and plans[0].flags.baseline


def test_plans_for_unit_single_check():
    lists = [enumerate_variants(1, _check_pragma(), False)]
    out = plans_for_unit(lists)
    assert len(out) == 22
    assert out[0].name == "Original(OpenMP)"
    assert any(uv.name.startswith("Adv_loaddelStoreNoUpdate__9_1_0")
               for uv in out)


def test_plans_for_unit_two_group_eligible_checks_exceed_cap():
    lists = [enumerate_variants(1, _check_pragma(), True),
             enumerate_variants(2, _check_pragma(), True)]
    with pytest.raises(PlanError) as exc:
        plans_for_unit(lists)
    assert "fixed" in str(exc.value)  # the error points at the escape hatch


def test_plans_for_unit_product_counts():
    lists = [enumerate_variants(1, _check_pragma(), False),
             enumerate_variants(2, _check_pragma(), False)]
    out = plans_for_unit(lists, cap=512)
    assert len(out) == 484


def test_plans_for_unit_all_fixed():
    pragma = OmpPragma(kind="parallel_for", fixed=(9, 1, 0))
    lists = [enumerate_variants(1, pragma, True),
             enumerate_variants(2, pragma, True)]
    out = plans_for_unit(lists)
    assert [uv.signature_text for uv in out] == ["0, 0, 0 | 0, 0, 0",
                                                 "9, 1, 0 | 9, 1, 0"]
    assert out[0].name == "Original(OpenMP)"


def test_variant_names_embed_signatures():
    plans = enumerate_variants(1, _check_pragma(), False)
    out = plans_for_unit([plans])
    for uv in out:
        if uv.name != "Original(OpenMP)":
            assert uv.filename_sig in uv.name.replace("__", "__")
            a, b, c = uv.plans[0].signature.words
            assert uv.name.endswith("__%d_%d_%d" % (a, b, c))


def test_flag_name_matches_reported_style():
    f = decode_signature(Signature((9, 1, 0)))
    assert f.name() == "Adv_loaddelStoreNoUpdate"
    f = decode_signature(Signature((11, 3, 0)))
    assert f.name() == "Adv_loadReldelStoreNoUpdateGroup"
    assert BASELINE.name() == "Original(OpenMP)"


def test_baseline_excludes_other_flags():
    with pytest.raises(PlanError):
        FlagSet(baseline=True, advancedload=True).validate()
