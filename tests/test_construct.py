import pytest

from eczcs import (
    Family,
    check_eczcs,
    check_kind,
    check_mocs,
    check_zccs,
    format_family_text,
    family_from_lists,
    golay_pair,
    is_optimal,
    measure_zcz_width,
    theorem2_construct,
)
from eczcs.construct import SeedVerificationError, catalog_entry, seed_catalog


def test_doubling_reproduces_length24_table(table3, table4):
    built = theorem2_construct(table3, 10)
    assert format_family_text(built) == format_family_text(table4)
    assert (built.num_sets, built.set_size, built.length) == (2, 2, 24)


def test_complete_code_seed_gives_optimal_output():
    entry = catalog_entry("ccc-2-4")
    fam = theorem2_construct(entry.family, entry.params[3])
    assert (fam.length, fam.set_size) == (8, 2)
    assert check_eczcs(fam, 4).passed
    assert is_optimal(fam, 4)
    assert check_mocs(fam).passed  # zone >= half length


def test_degenerate_smallest_seed():
    seed = family_from_lists(2, [[[0], [0]]])
    assert check_zccs(seed, 1).passed
    fam = theorem2_construct(seed, 1)
    assert fam.length == 2
    assert fam.sets[0].members[0].phases == (0, 0)
    assert fam.sets[0].members[1].phases == (0, 1)


def test_odd_member_count_rejected():
    seed = family_from_lists(2, [[[0, 1], [0, 0], [1, 1]]])
    with pytest.raises(ValueError):
        theorem2_construct(seed, 1, force=True)


def test_unverified_seed_refused_unless_forced():
    bad = family_from_lists(2, [[[0, 0, 0, 0], [0, 0, 0, 0]]])
    with pytest.raises(SeedVerificationError) as err:
        theorem2_construct(bad, 4)
    assert not err.value.verdict.passed
    forced = theorem2_construct(bad, 4, force=True)
    assert forced.length == 8


def test_declared_width_outside_seed_length_rejected(table3):
    """force skips the seed verification, not the range check: 0, -3 and L + 1 are refused."""
    for width in (0, -3, table3.length + 1):
        for force in (False, True):
            with pytest.raises(ValueError, match=f"declared seed width {width} outside 1..12") as err:
                theorem2_construct(table3, width, force=force)
            assert not isinstance(err.value, SeedVerificationError)
    assert theorem2_construct(table3, table3.length, force=True).length == 24  # L is in range


def test_zone_shrinks_by_one(table3):
    fam = theorem2_construct(table3, 10)
    assert measure_zcz_width(fam) == 9


def test_golay_pair_builder():
    pair = golay_pair(8)
    assert pair.size == 2 and pair.length == 8
    assert check_mocs(Family((pair,))).passed
    with pytest.raises(ValueError):
        golay_pair(6)


def test_catalog_contents_and_verification():
    catalog = seed_catalog()
    ids = {e.id for e in catalog}
    assert "zccs-2-2-12-10" in ids
    assert any(e.kind == "ccc" and e.params[:3] == (2, 2, 4) for e in catalog)
    for entry in catalog:
        assert check_kind(entry.kind, entry.family, entry.params[3]).passed
    assert catalog_entry("gcp-8").family.length == 8
    with pytest.raises(KeyError):
        catalog_entry("no-such-seed")


def test_every_catalog_seed_doubles_into_enhanced_family():
    for entry in seed_catalog():
        fam = theorem2_construct(entry.family, entry.params[3])
        m, n, length, width = entry.params
        assert fam.length == 2 * length and fam.set_size == n
        assert check_eczcs(fam, width - 1).passed
        if entry.kind in ("mocs", "ccc"):
            assert check_eczcs(fam, length).passed
            if entry.family.q == 2 and m == n:
                assert is_optimal(fam, length)


def test_nonc2_fixture_is_zccs_but_not_enhanced(nonc2_zccs):
    assert check_zccs(nonc2_zccs, 10).passed
    verdict = check_eczcs(nonc2_zccs, 9)
    assert not verdict.passed
    assert all(v.check == "cross-channel" for v in verdict.violations)
