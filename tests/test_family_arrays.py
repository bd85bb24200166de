"""The array-backed family against the member-by-member list path.

A family holds one read-only (M, N, L) phase array; its sets, their members
and the members' phase tuples are views built on first access.  Every
family of the corpus is made again from nested lists, and both must agree
in everything a user sees.
"""

import json

import numpy as np
import pytest

from eczcs import (
    Family,
    PhaseSequence,
    SequenceSet,
    family_from_json,
    family_from_lists,
    family_to_json,
    format_family_text,
    lemma2_ccc,
    load_fixture_family,
    seed_catalog,
    theorem2_construct,
    theorem3_construct,
    verify,
)
from eczcs.correlation import set_sum_tally
from eczcs.gbf import PartitionSpec, optimal_theorem3_params, theorem3_zcz_width

from reference import concat, negate

FIXTURES = ("zccs_2x2x12", "zccs_2x2x24_nonc2", "eczcs_2x2x24", "eczcs_4x2x32")


def corpus():
    fams = [(name, load_fixture_family(name)) for name in FIXTURES]
    fams += [(entry.id, entry.family) for entry in seed_catalog()]
    for q in (2, 4, 6, 8):
        eta = tuple((3 * i + 1) % q for i in range(5))
        for k, v in ((2, 1), (3, 2)):
            fam = theorem3_construct(optimal_theorem3_params(4, k, v), v, q, eta)
            fams.append((f"theorem3-{k}-{v}-q{q}", fam))
        fams.append((f"lemma2-q{q}", lemma2_ccc(PartitionSpec(3, ((1, 2), (3,))), q, eta[:4])))
    rng = np.random.default_rng(20)
    for q, shape in ((2, (1, 1, 1)), (4, (3, 2, 5)), (6, (2, 3, 7)), (10, (4, 1, 3))):
        fams.append((f"random-q{q}", Family.from_array(q, rng.integers(0, q, shape))))
    return fams


@pytest.mark.parametrize("name, fam", corpus(), ids=[name for name, _ in corpus()])
def test_array_and_list_paths_agree(name, fam):
    lists = fam.array().tolist()
    by_array = Family.from_array(fam.q, np.array(lists))
    by_lists = family_from_lists(fam.q, lists)
    for other in (by_array, by_lists):
        assert fam == other and other == fam and hash(fam) == hash(other)
        assert json.dumps(family_to_json(other)) == json.dumps(family_to_json(fam))
        assert format_family_text(other) == format_family_text(fam)
        assert [[list(s.phases) for s in st.members] for st in other.sets] == lists
        assert [list(st.members) for st in other.sets] == [list(st.members) for st in fam.sets]
        assert np.array_equal(set_sum_tally(other), set_sum_tally(fam))
    assert hash(fam.sets[0]) == hash(by_lists.sets[0])
    assert hash(fam.sets[0].members[0]) == hash(PhaseSequence(fam.q, tuple(lists[0][0])))
    assert fam != Family.from_array(fam.q + 2, fam.array())
    changed = fam.array().copy()
    changed[-1, -1, -1] = (changed[-1, -1, -1] + 1) % fam.q
    assert fam != Family.from_array(fam.q, changed)


def test_theorem2_array_doubling_matches_concat_reference():
    for entry in seed_catalog():
        half = entry.family.set_size // 2
        want = Family(tuple(
            SequenceSet(tuple(
                [concat(st.members[2 * n], st.members[2 * n + 1]) for n in range(half)]
                + [concat(st.members[2 * n], negate(st.members[2 * n + 1])) for n in range(half)]
            ))
            for st in entry.family.sets
        ))
        assert theorem2_construct(entry.family, entry.params[3]) == want, entry.id


def message(build, *args) -> str:
    with pytest.raises(ValueError) as info:
        build(*args)
    return str(info.value)


def test_malformed_input_gives_the_list_path_messages():
    for q, lists in (
        (4, [[[0, 4]]]),
        (4, [[[0, 1], [-1, 0]]]),
        (2, [[[0, 0.5]]]),
        (6, [[[1, 2]], [[2.5, 1]]]),
        (3, [[[0, 1]]]),
    ):
        want = message(family_from_lists, q, lists)
        assert message(Family.from_array, q, np.array(lists)) == want
    assert message(family_from_lists, 4, [[[0, 4]]]) == "phase 4 lies outside Z_4"
    assert message(family_from_lists, 2, [[[0, 0.5]]]) == "phase 0.5 is not an integer"
    for shape in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        empty = np.zeros(shape, dtype=int)
        assert message(Family.from_array, 2, empty) == message(family_from_lists, 2, empty.tolist())
    assert message(family_from_lists, 2, [[[0, 1]], [[0, 1, 1]]]) == "family sets must share (N, L, q)"
    assert message(family_from_lists, 2, [[[0, 1], [0]]]) == "set members must share alphabet size and length"
    assert message(Family.from_array, 2, np.zeros((2, 2))) == "need a 3-axis phase array, got shape (2, 2)"


def test_phase_arrays_are_read_only():
    source = np.array([[[0, 1, 2], [3, 0, 1]]])
    fam = Family.from_array(4, source)
    source[0, 0, 0] = 3
    assert fam.array()[0, 0, 0] == 0  # the family holds its own copy
    for arr in (fam.array(), fam.sets[0].array(), fam.sets[0].members[1].array()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    for obj, name in ((fam, "sets"), (fam.sets[0], "members"), (fam.sets[0].members[0], "phases")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())


def test_views_are_built_once_and_share_the_array():
    fam = Family.from_array(2, np.arange(24).reshape(2, 3, 4) % 2)
    assert fam.sets is fam.sets
    assert fam.sets[1].members is fam.sets[1].members
    assert fam.sets[1].members[2].phases is fam.sets[1].members[2].phases
    assert all(np.shares_memory(st.array(), fam.array()) for st in fam.sets)
    listed = family_from_lists(2, fam.array().tolist())
    rebuilt = Family(listed.sets)
    assert all(a is b for a, b in zip(rebuilt.sets, listed.sets))


def test_warm_theorem_sweep_builds_no_phase_sequence(monkeypatch):
    made = []
    original = PhaseSequence._of.__func__
    monkeypatch.setattr(PhaseSequence, "_of", classmethod(lambda cls, *a: made.append(a) or original(cls, *a)))

    def sweep():
        """The work of a theorem-sweep item: both constructions through every classifier."""
        families, passed = [], []
        for m, k, v in ((3, 1, 1), (4, 2, 1), (4, 3, 2), (5, 3, 3)):
            for q in (2, 4):
                spec = optimal_theorem3_params(m, k, v)
                fam, width = theorem3_construct(spec, v, q), theorem3_zcz_width(spec)
                code = lemma2_ccc(spec, q)
                verify.check_szccs(fam, width)
                verify.check_zccs(fam, min(width + 1, fam.length))
                verify.check_mocs(fam)
                passed.append(verify.check_eczcs(fam, width).passed)
                passed.append(verify.check_zcz_set(verify.flatten_to_zcz(fam), width).passed)
                passed.append(verify.check_ccc(code).passed)
                families.append(fam)
        assert all(passed)
        return families

    sweep()  # warm: caches and lazy set-up
    made.clear()
    families = sweep()
    assert made == []
    families[-1].sets[0].members  # the hook does see views once they are asked for
    assert len(made) == families[-1].set_size


def test_family_document_reads_as_one_array_with_the_list_path_messages(monkeypatch):
    """A rectangular document builds no PhaseSequence; every malformed one, ragged or not,
    fails with the member-by-member message."""
    made = []
    original = PhaseSequence._of.__func__
    monkeypatch.setattr(PhaseSequence, "_of", classmethod(lambda cls, *a: made.append(a) or original(cls, *a)))
    fam = load_fixture_family("eczcs_4x2x32")
    made.clear()
    assert family_from_json(json.loads(json.dumps(family_to_json(fam)))) == fam and made == []
    for q, lists in ((4, [[[0, 4]]]), (4, [[[0, 1], [-1, 0]]]), (3, [[[0, 1]]]), (2, []), (2, [[]]), (2, [[[]]]),
                     (2, [[[0, 1]], [[0, 1, 1]]]), (2, [[[0, 1], [0]]]), (2, [[[0], [0]], []]), (4, [[[0, 2**70]]]),
                     (4, [[[-1, 2**63]]])):
        assert message(family_from_json, {"q": q, "sets": lists}) == message(family_from_lists, q, lists), lists
