import csv
import io
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eczcs import (
    CorrelationProfile,
    Family,
    PartitionSpec,
    PhaseSequence,
    SequenceSet,
    accf,
    cross_channel_table,
    family_from_lists,
    flatten_to_zcz,
    lemma2_ccc,
    parse_sequence,
    pccf,
    profile_accf,
    profile_cross_channel,
    profile_pccf,
    profile_set_corr,
    set_corr_table,
    theorem2_construct,
)
from eczcs import correlation
from eczcs.cyclotomic import CycloInt, cyclotomic_poly, magnitudes, reduce_tally
from eczcs.gbf import optimal_theorem3_params, theorem3_construct

from conftest import RHO_T4_00, RHOHAT_T4_01, RHO_T5_02, RHOHAT_T5_LIST, float_accf, float_pccf
from reference import (
    add, conjugate, cyclo_sum, integer, mag_sq, pccf_via_accf, profile_csv_per_row, root, set_rows,
    set_sums_by_member,
)


def rand_seq(rng, q, length):
    return PhaseSequence(q, tuple(rng.randint(0, q - 1) for _ in range(length)))


def pair_strategy(qs=(2, 4, 6)):
    def build(args):
        q, phases0, phases1 = args
        return (PhaseSequence(q, tuple(phases0)), PhaseSequence(q, tuple(phases1)))

    return (
        st.tuples(st.sampled_from(qs), st.integers(1, 12))
        .flatmap(
            lambda ql: st.tuples(
                st.just(ql[0]),
                st.lists(st.integers(0, ql[0] - 1), min_size=ql[1], max_size=ql[1]),
                st.lists(st.integers(0, ql[0] - 1), min_size=ql[1], max_size=ql[1]),
            )
        )
        .map(build)
    )


def test_zero_shift_autocorrelation_peak():
    rng = random.Random(1)
    for q in (2, 4, 6):
        s = rand_seq(rng, q, 9)
        assert accf(s, s, 0) == integer(q, 9)


def test_boundary_shift_single_term():
    rng = random.Random(2)
    a, b = rand_seq(rng, 4, 7), rand_seq(rng, 4, 7)
    val = accf(a, b, 6)
    expected = root(4, (a.phases[6] - b.phases[0]) % 4)
    assert val == expected


def test_golay_pair_complementarity():
    a = parse_sequence("+++-")
    b = parse_sequence("++-+")
    for u in (1, 2, 3):
        total = add(accf(a, a, u), accf(b, b, u))
        oracle = float_accf(a, a, u) + float_accf(b, b, u)
        assert total.is_zero()
        assert abs(oracle) < 1e-12


@given(pair_strategy())
def test_accf_matches_direct_summation(pair):
    s0, s1 = pair
    for u in range(-(s0.length - 1), s0.length):
        assert abs(accf(s0, s1, u).to_complex() - float_accf(s0, s1, u)) < 1e-9


@given(pair_strategy())
def test_conjugate_symmetry(pair):
    s0, s1 = pair
    for u in range(-(s0.length - 1), s0.length):
        assert accf(s0, s1, u) == conjugate(accf(s1, s0, -u))


def test_aacf_symmetry_and_table_edge(table4):
    rng = random.Random(3)
    s = rand_seq(rng, 4, 8)
    for u in range(8):
        assert accf(s, s, -u) == conjugate(accf(s, s, u))
    edge = accf(table4.sets[0].members[0], table4.sets[0].members[0], 23)
    assert mag_sq(edge) == 1  # single +-1 product survives at the last shift


def test_pccf_peak_and_direct_sum():
    s = parse_sequence("++-")
    t = parse_sequence("+-+")
    assert pccf(s, s, 0) == integer(2, 3)
    assert abs(pccf(s, t, 1).to_complex() - float_pccf(s, t, 1)) < 1e-12


def test_pacf_conjugate_symmetry():
    rng = random.Random(4)
    s = rand_seq(rng, 4, 10)
    for u in range(1, 10):
        assert pccf(s, s, u) == conjugate(pccf(s, s, 10 - u))


@given(pair_strategy())
@settings(max_examples=60)
def test_pccf_via_accf_identity(pair):
    s0, s1 = pair
    for u in range(-(s0.length - 1), s0.length):
        assert pccf_via_accf(s0, s1, u) == pccf(s0, s1, u)


def test_pccf_via_accf_degenerate_cases():
    a, b = PhaseSequence(4, (1,)), PhaseSequence(4, (3,))
    assert pccf_via_accf(a, b, 0) == accf(a, b, 0) == root(4, 2)
    rng = random.Random(5)
    s0, s1 = rand_seq(rng, 2, 6), rand_seq(rng, 2, 6)
    assert pccf_via_accf(s0, s1, 0) == accf(s0, s1, 0)


def test_shift_and_shape_errors():
    a, b = PhaseSequence(2, (0, 1)), PhaseSequence(2, (0, 1, 1))
    with pytest.raises(ValueError):
        accf(a, b, 0)
    with pytest.raises(ValueError):
        accf(a, a, 2)
    with pytest.raises(ValueError):
        pccf(a, a, -2)
    with pytest.raises(ValueError):
        accf(a, PhaseSequence(4, (0, 1)), 0)


def test_single_value_functions_reject_non_integral_shifts():
    """accf and pccf name a non-integral shift; numpy ints, True and integral floats pass."""
    s = PhaseSequence(4, (0, 1, 3, 2))
    for fn in (accf, pccf):
        for u in (2.5, -1.5, 0.5):
            with pytest.raises(ValueError, match=rf"^shift {re.escape(str(u))} is not an integer$"):
                fn(s, s, u)
        assert fn(s, s, np.int64(1)) == fn(s, s, True) == fn(s, s, 1.0) == fn(s, s, 1)
        assert fn(s, s, np.int64(-3)) == fn(s, s, -3.0) == fn(s, s, -3)


def test_pccf_via_accf_matches_pccf_on_every_fixture_pair(table3, table4, table5, nonc2_zccs):
    """The reference periodic value from two aperiodic halves, on every ordered member pair
    of every shipped fixture family, at every shift."""
    for fam in (table3, table4, table5, nonc2_zccs):
        members = [s for st in fam.sets for s in st.members]
        shifts = range(1 - fam.length, fam.length)
        for a in members:
            for b in members:
                assert [pccf_via_accf(a, b, u) for u in shifts] == [pccf(a, b, u) for u in shifts]


def test_set_corr_sum_reference_lists(table4, table5):
    got = magnitude_ints(2, set_corr_table(table4, 0, 0)[23:])
    assert got == RHO_T4_00
    got5 = magnitude_ints(2, set_corr_table(table5, 0, 2)[31:])
    assert got5 == RHO_T5_02


def test_set_corr_sum_single_member_reduces_to_accf():
    rng = random.Random(6)
    a, b = rand_seq(rng, 2, 8), rand_seq(rng, 2, 8)
    table = set_corr_table(Family((SequenceSet((a,)), SequenceSet((b,)))), 0, 1)
    for u in range(-7, 8):
        assert table[u + 7].tolist() == list(accf(a, b, u).counts)


def test_cross_channel_sum_reference_lists(table4, table5):
    got = magnitude_ints(2, cross_channel_table(table4, 0, 1)[23:])
    assert got == RHOHAT_T4_01
    assert got[15:] == (0,) * 9
    # the frozen rotated-sum list for the length-32 fixture pairs set 0 with set 3
    got5 = magnitude_ints(2, cross_channel_table(table5, 0, 3)[31:])
    assert got5 == RHOHAT_T5_LIST
    assert got5[15] == 20
    # the (0, 2) pairing also carries the tail-end zone
    tail = magnitude_ints(2, cross_channel_table(table5, 0, 2)[31 + 24:])
    assert tail == (0,) * 8


def test_cross_channel_single_member_is_autocorrelation():
    rng = random.Random(7)
    a = rand_seq(rng, 2, 9)
    single = Family((SequenceSet((a,)),))
    table = cross_channel_table(single, 0, 0)
    for u in range(-8, 9):
        assert table[u + 8].tolist() == list(accf(a, a, u).counts)


def test_tables_match_pointwise_sums(table5):
    g0, g3 = table5.sets[0], table5.sets[3]
    table = set_corr_table(table5, 0, 3)
    rot = cross_channel_table(table5, 0, 3)
    length = table5.length
    plain = list(zip(g0.members, g3.members))
    rotated = list(zip(g0.members, g3.members[1:] + g3.members[:1]))
    for u in range(-(length - 1), length):
        assert table[u + length - 1].tolist() == list(sum_accf(plain, u, 2).counts)
        assert rot[u + length - 1].tolist() == list(sum_accf(rotated, u, 2).counts)


def test_set_shape_mismatch_rejected(table3, table4):
    with pytest.raises(ValueError):
        Family((table3.sets[0], table4.sets[0]))
    with pytest.raises(ValueError):
        profile_accf(table3.sets[0].members[0], table4.sets[0].members[0])


def test_profiles_regenerate_reference_lists(table4, table5):
    prof = profile_set_corr(table4, 0, 0)
    by_shift = dict(zip(prof.shifts, magnitude_ints(2, prof.counts)))
    assert tuple(by_shift[u] for u in range(24)) == RHO_T4_00
    prof_hat = profile_cross_channel(table5, 0, 3)
    by_shift = dict(zip(prof_hat.shifts, magnitude_ints(2, prof_hat.counts)))
    assert tuple(by_shift[u] for u in range(32)) == RHOHAT_T5_LIST


def test_profile_rejects_empty_range():
    with pytest.raises(ValueError, match="empty shift range"):
        CorrelationProfile(2, 0, ())


def test_profile_rejects_counts_not_rows_of_q():
    for q, counts in ((2, [1, 0]), (2, 5), (2, [[1, 0, 0]]), (8, [[1, 0, 0, 0]]), (4, np.zeros((2, 2, 4), int))):
        with pytest.raises(ValueError, match="are not rows of q = "):
            CorrelationProfile(q, 0, counts)


def test_profile_rejects_non_integral_counts():
    """Counts are not truncated: 0.5 used to write the row 0,0,1.  Integral floats stay accepted."""
    for counts, bad in (([[0.5, 0], [1.7, 0]], "0.5"), ([[1, 0], [np.nan, 0]], "nan"), ([[np.inf, 0]], "inf")):
        with pytest.raises(ValueError, match=f"count {bad} is not an integer"):
            CorrelationProfile(2, 0, counts)
    assert CorrelationProfile(2, 0, [[3.0, 0.0]]).counts.tolist() == [[3, 0]]


def test_profile_rejects_non_canonical_counts():
    """Rows with a nonzero entry past phi(q): 1 + zeta_2 and 1 + zeta_8^4 are zero, yet wrote nonzero."""
    for q, row in ((2, [1, 1]), (8, [1, 0, 0, 0, 1, 0, 0, 0]), (3, [0, 0, 1]), (9, [0] * 8 + [2])):
        with pytest.raises(ValueError, match="not canonical"):
            CorrelationProfile(q, 0, [[0] * q, row])
    assert CorrelationProfile(9, 0, [[1, 2, 3, 4, 5, 6, 0, 0, 0]]).counts.shape == (1, 9)


def test_profile_csv_matches_per_row_format_writer():
    """to_csv writes the bytes of one str.format call per row on hand-built canonical profiles:
    exponent-form magnitudes, counts past the int64-square range, q in {3, 5, 9, 16}, one row,
    first > 0, all-zero profiles and profiles with no zero row."""
    rng = random.Random(34)
    big = [[10**12, 0], [-(10**13) - 7, 0], [999_999_999_999, 0], [2**31, 0], [-(2**63), 0], [0, 0]]
    profiles = [
        CorrelationProfile(2, -3, big),
        CorrelationProfile(4, 7, [[10**12, 3 * 10**12, 0, 0], [2**31 + 1, -(2**40), 0, 0], [2**62, 2**62, 0, 0]]),
        CorrelationProfile(8, 0, [[10**12, 10**12, 0, -(10**12), 0, 0, 0, 0], [2**40, 1, 2, 3, 0, 0, 0, 0]]),
        CorrelationProfile(4, 0, [[2**31 - 1, -(2**31 - 1), 0, 0]]),
        CorrelationProfile(2, 1000, [[0, 0]] * 5),
        CorrelationProfile(4, 5, [[1, 0, 0, 0], [0, -1, 0, 0], [3, 4, 0, 0]]),
    ]
    for q in (3, 5, 9, 16):
        phi = len(cyclotomic_poly(q)) - 1
        for first, n in ((-9, 19), (0, 1), (12, 4)):
            rows = [[rng.randrange(-40, 41) for _ in range(phi)] + [0] * (q - phi) for _ in range(n)]
            rows[rng.randrange(n)] = [0] * q
            profiles += [CorrelationProfile(q, first, rows), CorrelationProfile(q, first, [[0] * q] * n)]
            nonzero = [[rng.randrange(1, 41)] + [0] * (q - 1) for _ in range(n)]
            profiles.append(CorrelationProfile(q, first, nonzero))
    assert any("e+" in p.to_csv() for p in profiles)
    for profile in profiles:
        assert profile.to_csv() == profile_csv_per_row(profile), (profile.q, profile.first, profile.counts)


def test_profile_csv_shape(table4):
    text = profile_set_corr(table4, 0, 1).to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "u,magnitude,is_zero"
    assert len(lines) == 1 + 47


def reference_csv(shifts, values) -> str:
    """The per-value profile writer: one CycloInt per value, read back by magnitude() and is_zero()."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["u", "magnitude", "is_zero"])
    for u, v in zip(shifts, values):
        writer.writerow([u, f"{v.magnitude():.12g}", int(v.is_zero())])
    return out.getvalue()


def test_profile_csv_matches_per_value_cyclo_int_writer():
    """Every profile form writes the bytes of one CycloInt per value, q = 10, 12 and 16 included
    (past the golden corpus) and L = 1 included."""
    rng = random.Random(59)
    for q in (2, 4, 6, 8, 10, 12, 16):
        for length in (1, 2, 5, 9):
            lists = [[[rng.randrange(q) for _ in range(length)] for _ in range(3)] for _ in range(2)]
            fam = family_from_lists(q, lists)
            aperiodic = range(1 - length, length)
            for m1, m2 in ((0, 0), (0, 1), (1, 0)):
                g0, g1 = fam.sets[m1].members, fam.sets[m2].members
                plain, rotated = list(zip(g0, g1)), list(zip(g0, g1[1:] + g1[:1]))
                want = reference_csv(aperiodic, [sum_accf(plain, u, q) for u in aperiodic])
                assert profile_set_corr(fam, m1, m2).to_csv() == want, (q, length, m1, m2)
                want = reference_csv(aperiodic, [sum_accf(rotated, u, q) for u in aperiodic])
                assert profile_cross_channel(fam, m1, m2).to_csv() == want, (q, length, m1, m2)
            a, b = rand_seq(rng, q, length), rand_seq(rng, q, length)
            for s0, s1 in ((a, b), (a, a)):
                assert profile_accf(s0, s1).to_csv() == reference_csv(
                    aperiodic, [accf(s0, s1, u) for u in aperiodic]
                ), (q, length)
                assert profile_pccf(s0, s1).to_csv() == reference_csv(
                    range(length), [pccf(s0, s1, u) for u in range(length)]
                ), (q, length)


def test_periodic_energy_invariant_under_cyclic_shift():
    # sum_u |pccf(s,s;u)|^2 does not change when s is cyclically rotated
    rng = random.Random(8)
    for q in (2, 4):
        s = rand_seq(rng, q, 12)
        energy = sum(mag_sq(pccf(s, s, u)) for u in range(12))
        for rot in (1, 5):
            rolled = PhaseSequence(q, s.phases[rot:] + s.phases[:rot])
            assert sum(mag_sq(pccf(rolled, rolled, u)) for u in range(12)) == energy


def test_general_alphabet_tables_match_accf():
    """Tables of every alphabet agree with accf shift by shift, L = 1 and N up to 4 included."""
    rng = random.Random(23)
    for q in (2, 4, 6, 8, 10, 12, 16, 64):
        for n, length in ((1, 1), (2, 2), (3, 5), (4, 9), (4, 1)):
            a, b = rand_seq(rng, q, length), rand_seq(rng, q, length)
            shifts = range(-(length - 1), length)
            assert profile_accf(a, b).counts.tolist() == [list(accf(a, b, u).counts) for u in shifts]
            for u in shifts:
                assert pccf(a, b, u) == pccf_via_accf(a, b, u)
            fam = Family(SequenceSet(tuple(rand_seq(rng, q, length) for _ in range(n))) for _ in range(2))
            g0, g1 = fam.sets
            table, rot = set_corr_table(fam, 0, 1), cross_channel_table(fam, 0, 1)
            plain = list(zip(g0.members, g1.members))
            rotated = list(zip(g0.members, g1.members[1:] + g1.members[:1]))
            for u in shifts:
                assert table[u + length - 1].tolist() == list(sum_accf(plain, u, q).counts)
                assert rot[u + length - 1].tolist() == list(sum_accf(rotated, u, q).counts)


@pytest.mark.parametrize("block", [1, 7, 20, 200, 1 << 16])
def test_tally_blocks_agree_with_accf(monkeypatch, block):
    """Any block size, including ones that split the shifts unevenly, gives the same counts."""
    monkeypatch.setattr(correlation, "_TALLY_BLOCK", block)
    rng = random.Random(31)
    for q, length in ((6, 9), (8, 1), (12, 5)):
        a, b = rand_seq(rng, q, length), rand_seq(rng, q, length)
        shifts = range(-(length - 1), length)
        assert profile_accf(a, b).counts.tolist() == [list(accf(a, b, u).counts) for u in shifts]
        assert tuple(pccf(a, b, u) for u in range(length)) == tuple(
            pccf_via_accf(a, b, u) for u in range(length)
        )
        am = np.array([rng.random() < 0.6 for _ in range(length)])
        bm = np.array([rng.random() < 0.6 for _ in range(length)])
        got = correlation.cyclic_tally((a.array(), b.array()), (am, bm), q, shifts)[0, 1]
        for row, u in zip(got, shifts):
            want = [0] * q
            for k in range(length):
                if am[(k + u) % length] and bm[k]:
                    want[(a.phases[(k + u) % length] - b.phases[k]) % q] += 1
            assert list(row) == want


def test_unit_value_tally_matches_masked_count():
    """The q in {2, 4} tally equals an explicit masked count at any shifts, one alone included."""
    rng = random.Random(37)
    for q in (2, 4):
        for length in (1, 2, 7, 12):
            a, b = rand_seq(rng, q, length), rand_seq(rng, q, length)
            am = np.array([rng.random() < 0.7 for _ in range(length)])
            bm = np.array([rng.random() < 0.7 for _ in range(length)])
            many = [rng.randint(-3 * length, 3 * length) for _ in range(6)]
            for shifts in (many, [-length - 1], [length + 2], [0]):
                got = correlation.cyclic_tally((a.array(), b.array()), (am, bm), q, shifts)[0, 1]
                for row, u in zip(got, shifts):
                    want = [0] * q
                    for k in range(length):
                        if am[(k + u) % length] and bm[k]:
                            want[(a.phases[(k + u) % length] - b.phases[k]) % q] += 1
                    assert CycloInt(q, row) == CycloInt(q, want), (q, length, u)


def masked_count(a, b, a_mask, b_mask, q, u):
    """Explicit histogram of (a[(k+u) mod W] - b[k]) mod q over the live positions."""
    width, want = len(a), [0] * q
    for k in range(width):
        if a_mask[(k + u) % width] and b_mask[k]:
            want[(a[(k + u) % width] - b[k]) % q] += 1
    return want


def masked_counts(a, b, a_mask, b_mask, q, shifts):
    """masked_count of every a-row against every b-row at each shift, shape (Ra, Rb, shifts, q)."""
    a_mask, b_mask = np.broadcast_to(a_mask, np.shape(a)), np.broadcast_to(b_mask, np.shape(b))
    out = []
    for u in shifts:
        live = np.roll(a_mask, -u, -1)[:, None] & b_mask[None]
        diff = np.where(live, (np.roll(a, -u, -1)[:, None] - b[None]) % q, q)  # q: not counted
        out.append(np.stack([(diff == p).sum(-1) for p in range(q)], -1))
    return np.stack(out, 2)


@pytest.mark.parametrize("forced_fallback", [False, True])
@pytest.mark.parametrize("rows", [1, 2, 16])
def test_batched_unit_value_tally_matches_references(monkeypatch, rows, forced_fallback):
    """Every pair of an R-row batch against explicit masked counts, accf and pccf_via_accf.

    q in {2, 4}, L = 1 included, random masks, shifts negative and beyond L; with 16 rows also
    long batches: the 16 x 256 rows of a Theorem 3 family's flatten_to_zcz at shifts 0..15, and
    masked (4, 8192) rows at q in {2, 4}, which the spectral path splits into blocks of a-rows.
    A zero margin rejects every rounding, so the exact count runs instead:
    it must give the explicit histograms themselves, the FFT path equal values.
    """
    if forced_fallback:
        monkeypatch.setattr(correlation, "_MARGIN", 0.0)
    rng = random.Random(41 + rows)
    for q in (2, 4):
        for length in (1, 2, 7):
            seqs = [rand_seq(rng, q, length) for _ in range(rows)]
            values = np.array([s.array() for s in seqs])
            masks = np.array([[rng.random() < 0.7 for _ in range(length)] for _ in range(rows)])
            many = [rng.randint(-3 * length, 3 * length) for _ in range(4)]
            shifts = [-length - 1, length] + many
            got = correlation.cyclic_tally(values, masks, q, shifts)
            assert got.shape == (rows, rows, len(shifts), q)
            periodic = correlation.cyclic_tally(values, None, q, range(length))
            one_member_sets = set_rows(Family(SequenceSet((s,)) for s in seqs))
            aperiodic = correlation.cyclic_tally(*one_member_sets, q, range(1 - length, length))
            for i in range(rows):
                for j in range(rows):
                    for row, u in zip(got[i, j], shifts):
                        want = masked_count(values[i], values[j], masks[i], masks[j], q, u)
                        if forced_fallback:
                            assert list(row) == want, (q, length, u)
                        assert CycloInt(q, row) == CycloInt(q, want), (q, length, u)
                    for u in range(length):
                        want = pccf_via_accf(seqs[i], seqs[j], u)
                        assert CycloInt(q, periodic[i, j, u]) == want
                    for r, u in enumerate(range(1 - length, length)):
                        assert CycloInt(q, aperiodic[i, j, r]) == accf(seqs[i], seqs[j], u)
    if rows == 16:
        flat = flatten_to_zcz(theorem3_construct(optimal_theorem3_params(4, 4, 4), 4, 2, (1, 0, 1, 1, 0)))
        gen = np.random.default_rng(43)
        batches = [(2, flat.array(), None, range(16))] + [
            (q, gen.integers(0, q, (4, 8192)), gen.random((4, 8192)) < 0.7, (0, 1, 15, 4096, -8191)) for q in (2, 4)
        ]
        for q, values, masks, shifts in batches:
            got = correlation.cyclic_tally(values, masks, q, shifts)
            live = np.ones(values.shape, bool) if masks is None else masks
            want = masked_counts(values, values, live, live, q, shifts)
            if forced_fallback:
                assert np.array_equal(got, want), (q, values.shape)
            assert np.array_equal(reduce_tally(q, got), reduce_tally(q, want)), (q, values.shape)


@pytest.mark.parametrize("forced_exact", [False, True])
def test_set_sums_match_member_by_member_counts(monkeypatch, forced_exact):
    """The member-axis tally of zero-padded members at lags 0 and 1 against rho and rho-hat
    counted member by member: q in {2, 3, 4, 6, 8}, M <= 3, N in 1..4 (with N = 1 rho-hat
    rotates a member onto itself), L in {1, 2, 7, 16}.  Every even-q family reads the same
    values from set_sum_tally, and so do a (16, 16, 16) binary Theorem 3 family and a
    (2, 2, 128) quaternary doubled code.  A zero margin sends q in {2, 4}
    through the exact count, which must give the direct counts themselves; the spectral path
    gives value-equal vectors."""
    if forced_exact:
        monkeypatch.setattr(correlation, "_MARGIN", 0.0)
    rng = np.random.default_rng(32)
    for q in (2, 3, 4, 6, 8):
        for length in (1, 2, 7, 16):
            for _ in range(3):
                phases = rng.integers(0, q, (rng.integers(1, 4), rng.integers(1, 5), length))
                want = set_sums_by_member(q, phases)
                padded = np.pad(phases, ((0, 0), (0, 0), (0, length)))
                shifts = (range(length), range(1 - length, length))
                got = correlation.cyclic_tally(padded, np.arange(2 * length) < length, q, shifts)
                if forced_exact or q not in (2, 4):
                    assert np.array_equal(got, want), (q, phases.shape)
                assert np.array_equal(reduce_tally(q, got), reduce_tally(q, want)), (q, phases.shape)
                if q % 2 == 0:
                    tally = correlation.set_sum_tally(Family.from_array(q, phases))
                    assert np.array_equal(tally, reduce_tally(q, want)), (q, phases.shape)
    code = lemma2_ccc(PartitionSpec(6, ((1, 2, 3, 4, 5, 6),)), 4, (1, 2, 3, 0, 1, 2, 3))
    theorem3 = theorem3_construct(optimal_theorem3_params(4, 4, 4), 4, 2, (1, 0, 1, 1, 0))
    for fam in (theorem3, theorem2_construct(code, code.length)):
        want = set_sums_by_member(fam.q, fam.array())
        assert np.array_equal(correlation.set_sum_tally(fam), reduce_tally(fam.q, want)), fam.array().shape


def test_long_theorem3_set_sums_spectral_equal_exact(monkeypatch):
    """A (2, 2, 4096) quaternary Theorem 3 family: the spectral set-sum tally equals the exact
    count's, and its temporaries stay a few MB (the tally itself is 1.5 MB)."""
    fam = theorem3_construct(optimal_theorem3_params(12, 1, 1), 1, 4, tuple(range(13)))
    tracemalloc.start()
    try:
        spectral = correlation.set_sum_tally(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    monkeypatch.setattr(correlation, "_MARGIN", 0.0)
    exact = correlation.set_sum_tally(Family.from_array(fam.q, fam.array()))
    assert spectral.any() and np.array_equal(spectral, exact)


def test_wide_rows_tally_memory_stays_bounded():
    """One periodic tally of (8, 32768) quaternary rows at shifts 0..15, traced peak under 24 MiB:
    a block bounded by its product and its inverse transform reads 16.9 MB, the block that counted
    the product only read 21.1 MB, and the whole batch in one block 75.7 MB."""
    values = np.random.default_rng(9).integers(0, 4, (8, 32768))
    tracemalloc.start()
    try:
        got = correlation.cyclic_tally(values, None, 4, range(16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert (got[range(8), range(8), 0] == [32768, 0, 0, 0]).all()  # every row against itself at u = 0


def test_long_aperiodic_table_memory_stays_bounded():
    """All 4095 shifts of a q=8, L=2048 pair; one dense gather would peak near 200 MB."""
    rng = np.random.default_rng(5)
    a, b = (PhaseSequence(8, tuple(int(x) for x in rng.integers(0, 8, 2048))) for _ in range(2))
    tracemalloc.start()
    try:
        counts = profile_accf(a, b).counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    for u in (-2047, -1000, 0, 1, 2047):
        assert counts[u + 2047].tolist() == list(accf(a, b, u).counts)


def magnitude_ints(q, rows):
    return tuple(int(m) for m in magnitudes(q, rows).tolist())


def sum_accf(pairs, u, q):
    return cyclo_sum(q, (accf(a, b, u) for a, b in pairs))
