import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eczcs import (
    Family,
    PhaseSequence,
    SequenceSet,
    family_from_json,
    family_from_lists,
    family_to_json,
    format_sequence,
    load_fixture_family,
    parse_family_text,
    parse_sequence,
)
from eczcs.sequences import FIXTURE_ENV, format_family_text, is_json

from reference import concat, is_json_by_element, modulate, negate


def seq_strategy(q=2, max_len=16):
    return st.lists(st.integers(0, q - 1), min_size=1, max_size=max_len).map(
        lambda p: PhaseSequence(q, tuple(p))
    )


def test_modulate_binary():
    assert np.array_equal(modulate(PhaseSequence(2, (0, 1, 0))), [1, -1, 1])


def test_modulate_quaternary_values():
    s = PhaseSequence(4, (0, 0, 2, 3) * 4)
    expected = np.array([1, 1, -1, -1j] * 4)
    assert np.array_equal(modulate(s), expected)


def test_modulate_identity_case():
    assert np.array_equal(modulate(PhaseSequence(4, (0, 0, 0, 0))), np.ones(4))


@given(st.integers(1, 5).flatmap(lambda k: seq_strategy(q=2 * k)))
def test_modulate_unimodular(s):
    assert np.all(np.abs(np.abs(modulate(s)) - 1.0) < 1e-12)


def test_negate_examples():
    assert negate(PhaseSequence(2, (0, 1, 1))).phases == (1, 0, 0)
    assert negate(PhaseSequence(4, (0, 1, 2, 3))).phases == (2, 3, 0, 1)
    s = PhaseSequence(4, (0, 3))
    assert negate(negate(s)) == s


@given(st.integers(1, 4).flatmap(lambda k: seq_strategy(q=2 * k)))
def test_negate_negates_modulation(s):
    assert np.allclose(modulate(negate(s)), -modulate(s), atol=1e-12)


def test_concat():
    out = concat(PhaseSequence(2, (0, 1)), PhaseSequence(2, (1, 0)))
    assert out.phases == (0, 1, 1, 0)


def test_concat_alphabet_mismatch():
    with pytest.raises(ValueError):
        concat(PhaseSequence(2, (0,)), PhaseSequence(4, (0,)))


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        PhaseSequence(2, ())


def test_concat_matches_table_fixture(table3, table4):
    joined = concat(table3.sets[0].members[0], table3.sets[0].members[1])
    assert joined == table4.sets[0].members[0]


@given(seq_strategy(q=2), seq_strategy(q=2))
def test_modulate_distributes_over_concat(a, b):
    assert np.array_equal(modulate(concat(a, b)), np.concatenate([modulate(a), modulate(b)]))


def test_parse_binary():
    assert parse_sequence("++-+").phases == (0, 0, 1, 0)
    # the typographic minus parses too
    assert parse_sequence("+−").phases == (0, 1)


def test_parse_integers():
    assert parse_sequence("0,3,2", q=4).phases == (0, 3, 2)


def test_parse_table_row():
    assert parse_sequence("++++--+-+-++").length == 12


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_sequence("+*+", q=2)
    with pytest.raises(ValueError):
        parse_sequence("0,9,2", q=4)


@given(st.sampled_from([2, 4, 6]).flatmap(lambda q: seq_strategy(q=q)))
def test_parse_format_round_trip(s):
    text = format_sequence(s)
    assert parse_sequence(text, s.q) == s
    assert format_sequence(parse_sequence(text, s.q)) == text


def test_odd_alphabet_rejected():
    with pytest.raises(ValueError):
        PhaseSequence(3, (0, 1))


def test_phase_out_of_range_rejected():
    with pytest.raises(ValueError):
        PhaseSequence(2, (0, 2))


def test_set_and_family_shape_validation():
    a = PhaseSequence(2, (0, 1))
    with pytest.raises(ValueError):
        SequenceSet((a, PhaseSequence(2, (0, 1, 1))))
    with pytest.raises(ValueError):
        SequenceSet((a, PhaseSequence(4, (0, 1))))
    with pytest.raises(ValueError):
        Family((SequenceSet((a,)), SequenceSet((a, a))))


def test_family_json_round_trip(table4):
    obj = family_to_json(table4)
    assert (obj["q"], obj["M"], obj["N"], obj["L"]) == (2, 2, 2, 24)
    again = family_from_json(json.loads(json.dumps(obj)))
    assert again == table4


def test_family_json_declared_shape_mismatch(table4):
    obj = family_to_json(table4)
    obj["L"] = 99
    with pytest.raises(ValueError):
        family_from_json(obj)


def test_family_text_round_trip(table5):
    assert parse_family_text(format_family_text(table5)) == table5


def test_fixture_dir_override(tmp_path, monkeypatch, table3):
    target = tmp_path / "zccs_2x2x12.txt"
    target.write_text(format_family_text(table3))
    monkeypatch.setenv(FIXTURE_ENV, str(tmp_path))
    assert load_fixture_family("zccs_2x2x12") == table3


def test_family_from_lists():
    fam = family_from_lists(2, [[[0, 1], [1, 0]], [[0, 0], [1, 1]]])
    assert (fam.num_sets, fam.set_size, fam.length, fam.q) == (2, 2, 2, 2)
    assert {key: family_to_json(fam)[key] for key in "MNL"} == {"M": 2, "N": 2, "L": 2}


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


@given(st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12))
def test_is_json_level_by_level_matches_element_by_element(value):
    """Every kind, depth and nesting, ragged and mixed lists, bools among integers and empty
    lists included: the level-by-level check accepts exactly what the recursive one does."""
    for kinds in (int, (int, float), str, dict, list, object):
        for depth in range(4):
            assert is_json(value, kinds, depth) == is_json_by_element(value, kinds, depth), (kinds, depth)
