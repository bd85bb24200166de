import dataclasses
import math
import random
import re
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eczcs import (
    GSMConfig,
    PhaseSequence,
    SimConfig,
    TrainingMatrix,
    accf,
    activation_table,
    baseline_random_binary,
    baseline_zadoff_chu,
    build_ls_model_matrix,
    build_training_matrix,
    check_design_criterion,
    check_eczcs,
    design_width,
    family_from_lists,
    lemma2_ccc,
    load_fixture_family,
    map_bits_to_gsm_block,
    measure_zcz_width,
    monte_carlo_mse,
    theorem2_construct,
    theorem3_construct,
    training,
    training_matrix_meta,
    training_matrix_to_csv,
    training_pccf,
)
from eczcs.cyclotomic import CycloInt
from eczcs.gbf import PartitionSpec, theorem3_zcz_width
from eczcs import verify
from eczcs.verify import Violation

from reference import add, criterion_per_spread, cyclo_sum, integer, zero


def test_config_validation():
    with pytest.raises(ValueError):
        GSMConfig(2, 3)
    with pytest.raises(ValueError):
        GSMConfig(4, 0)
    assert GSMConfig(4, 2).group_count == 2
    assert GSMConfig(8, 3).group_count == 3
    assert GSMConfig(1, 1).group_count == 1


def test_config_rejects_non_integral_antenna_counts(table4):
    """A non-integral count is named with its field; integral floats and numpy ints read as ints."""
    for args, named in (((4.5, 2), "transmit_antennas 4.5"), ((4, 1.5), "active_antennas 1.5")):
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
            GSMConfig(*args)
    cfg = GSMConfig(4.0, np.int64(2))
    assert (cfg.transmit_antennas, cfg.active_antennas) == (4, 2)
    assert all(type(n) is int for n in (cfg.transmit_antennas, cfg.active_antennas))
    tm, want = build_training_matrix(table4, cfg), build_training_matrix(table4, GSMConfig(4, 2))
    assert np.array_equal(tm.values, want.values) and np.array_equal(tm.mask, want.mask)


def test_four_antenna_layout(table4):
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    assert (tm.num_rows, tm.width) == (4, 96)
    g = table4.sets
    zeros = (None,) * 24
    assert tm.rows[0] == g[0].members[0].phases + zeros + g[0].members[1].phases + zeros
    assert tm.rows[1] == g[1].members[0].phases + zeros + g[1].members[1].phases + zeros
    assert tm.rows[2] == zeros + g[0].members[0].phases + zeros + g[0].members[1].phases
    assert tm.rows[3] == zeros + g[1].members[0].phases + zeros + g[1].members[1].phases


def test_eight_antenna_layout(table5):
    tm = build_training_matrix(table5, GSMConfig(8, 3))
    assert (tm.num_rows, tm.width) == (8, 192)  # first 8 rows of the 9-row stack
    g = table5.sets
    zeros = (None,) * 32
    # block-row 1 holds sets 0..2 at offset 0; the last (short) group holds sets 0..1
    assert tm.rows[0] == g[0].members[0].phases + zeros * 2 + g[0].members[1].phases + zeros * 2
    assert tm.rows[2] == g[2].members[0].phases + zeros * 2 + g[2].members[1].phases + zeros * 2
    assert tm.rows[6] == zeros * 2 + g[0].members[0].phases + zeros * 2 + g[0].members[1].phases
    assert tm.rows[7] == zeros * 2 + g[1].members[0].phases + zeros * 2 + g[1].members[1].phases


def test_single_antenna_degenerate():
    fam = family_from_lists(2, [[[0, 1, 0, 0]]])
    tm = build_training_matrix(fam, GSMConfig(1, 1))
    assert tm.rows == ((0, 1, 0, 0),)


def test_too_few_sets_rejected(table4):
    with pytest.raises(ValueError):
        build_training_matrix(table4, GSMConfig(8, 3))


def test_sparsity_and_energy(table4, table5):
    for fam, cfg in ((table4, GSMConfig(4, 2)), (table5, GSMConfig(8, 3))):
        tm = build_training_matrix(fam, cfg)
        assert set(tm.mask.sum(axis=1).tolist()) == {fam.set_size * fam.length}
        col_counts = tm.mask.sum(axis=0)
        assert col_counts.max() == cfg.active_antennas
        full_groups = cfg.transmit_antennas // cfg.active_antennas
        if full_groups == cfg.group_count:
            assert np.all(col_counts == cfg.active_antennas)


def test_layout_and_slot_activity_over_many_shapes():
    """Member n of set k mod Na sits at n*V*L + (k div Na)*L of row k, silence elsewhere;
    silencing one live entry in group g is one sparsity fault of magnitude min(Na, Nt - g*Na) - 1."""
    rng = random.Random(16)
    for nt, na in ((1, 1), (3, 1), (3, 2), (5, 2), (7, 3), (8, 3), (9, 4)):
        v_count = -(-nt // na)
        for n_count in (1, 2, 3):
            for length in (1, 2, 5):
                q = rng.choice((2, 4))
                fam = family_from_lists(q, [
                    [[rng.randrange(q) for _ in range(length)] for _ in range(n_count)]
                    for _ in range(na)
                ])
                tm = build_training_matrix(fam, GSMConfig(nt, na))
                for k in range(nt):
                    expect = [None] * (n_count * v_count * length)
                    for n, member in enumerate(fam.sets[k % na].members):
                        for t, phase in enumerate(member.phases):
                            expect[n * v_count * length + (k // na) * length + t] = phase
                    assert tm.rows[k] == tuple(expect), (nt, na, n_count, length, k)
                k = rng.randrange(nt)
                group = k // na
                col = rng.randrange(n_count) * v_count * length + group * length + rng.randrange(length)
                mask = tm.mask.copy()
                mask[k, col] = False
                verdict = check_design_criterion(dataclasses.replace(tm, mask=mask), 0)
                assert [v for v in verdict.violations if v.check == "sparsity"] == [
                    Violation("sparsity", (col,), 0, float(min(na, nt - group * na) - 1))
                ]
                assert [v for v in verdict.violations if v.check == "row-energy"] == [
                    Violation("row-energy", (k,), 0, float(tm.energy - 1))
                ]


def test_design_criterion_pass_and_fail(table4):
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    assert check_design_criterion(tm, 9).passed
    verdict = check_design_criterion(tm, 10)
    assert not verdict.passed
    assert any(
        v.check == "isi" and v.shift == 10 and v.magnitude == 8.0 for v in verdict.violations
    )


def test_design_criterion_flags_zero_column(table4):
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    mask = tm.mask.copy()
    mask[:, 0] = False
    broken = dataclasses.replace(tm, mask=mask)
    verdict = check_design_criterion(broken, 0)
    assert any(v.check == "sparsity" and v.indices == (0,) for v in verdict.violations)
    assert any(v.check == "row-energy" for v in verdict.violations)


def test_training_pccf_peak(table4):
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    assert training_pccf(tm, 0, 0, 0) == integer(2, 48)
    assert training_pccf(tm, 0, 2, 0).is_zero()  # disjoint supports


def test_training_pccf_rejects_rows_outside_the_matrix(table4):
    """Row indices lie in 0..Nt-1; the shift is cyclic."""
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    for i, j in ((-1, 0), (4, 0), (0, -1), (0, 4)):
        with pytest.raises(ValueError, match=r"row indices .* must lie in 0\.\.3"):
            training_pccf(tm, i, j, 0)
    assert training_pccf(tm, 0, 1, -1) == training_pccf(tm, 0, 1, tm.width - 1)
    assert training_pccf(tm, 3, 3, tm.width) == integer(2, 48)


def test_training_pccf_rejects_non_integral_rows_and_shifts(table4):
    """One ValueError names the value; numpy ints, True and integral floats pass."""
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    for args, named in (
        ((0, 0, 1.5), "shift 1.5"), ((1.5, 0, 0), "row index 1.5"), ((0, 2.5, 0), "row index 2.5"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
            training_pccf(tm, *args)
    want = training_pccf(tm, 1, 0, 1)
    assert training_pccf(tm, np.int64(1), 0.0, True) == training_pccf(tm, 1.0, 0, np.int64(1)) == want


def test_arrays_are_the_one_representation(table4):
    """The readers use the arrays and never build the None rows; the matrix owns read-only copies."""
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    check_design_criterion(tm, 9)
    build_ls_model_matrix(tm, 9)
    training_matrix_to_csv(tm)
    monte_carlo_mse(tm, SimConfig(ebn0_db=(10.0,), delay_spreads=(9,), trials=4, seed=1))
    assert "rows" not in vars(tm)
    assert tm.values.dtype == np.int64 and tm.mask.dtype == bool
    assert not tm.values.flags.writeable and not tm.mask.flags.writeable
    values, mask = tm.values.copy(), tm.mask.copy()
    own = TrainingMatrix(tm.q, values, mask, tm.active_antennas, tm.block_length)
    assert values.flags.writeable and mask.flags.writeable
    values[:] = 1
    mask[:] = False
    assert np.array_equal(own.values, tm.values) and np.array_equal(own.mask, tm.mask)
    assert own.rows == tm.rows and "rows" in vars(tm)


def test_ls_model_matrix_structure(table4):
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    rows = tm.complex_rows()
    X = build_ls_model_matrix(tm, 0)
    assert X.shape == (96, 4)
    assert np.array_equal(X[:, 0], rows[0])
    X2 = build_ls_model_matrix(tm, 2)
    # delayed column wraps: entry (0, 1) is the last sample of the row
    assert X2[0, 1] == rows[0][-1]
    assert X2[0, 2] == rows[0][-2]
    with pytest.raises(ValueError):
        build_ls_model_matrix(tm, 96)


def test_normal_matrix_identity_iff_criterion(table4, table5):
    cases = [(table4, GSMConfig(4, 2), 9, 10), (table5, GSMConfig(8, 3), 8, 9)]
    for fam, cfg, good, bad in cases:
        tm = build_training_matrix(fam, cfg)
        energy = tm.energy
        X = build_ls_model_matrix(tm, good)
        eye = energy * np.eye(X.shape[1], dtype=complex)
        assert np.array_equal(X.conj().T @ X, eye)
        Xb = build_ls_model_matrix(tm, bad)
        eye_b = energy * np.eye(Xb.shape[1], dtype=complex)
        assert not np.array_equal(Xb.conj().T @ Xb, eye_b)


@pytest.mark.parametrize("nt,na", [(4, 2), (6, 2), (8, 3)])
def test_zone_guarantee_for_training(nt, na, table4, table5):
    families = [(table4, 9), (table5, 8)]
    spec = PartitionSpec(5, ((4, 1, 2), (5, 3)))
    constructed = theorem3_construct(spec, v=1, q=2)
    families.append((constructed, theorem3_zcz_width(spec)))
    for fam, width in families:
        if fam.num_sets < na:
            continue
        assert check_eczcs(fam, width).passed
        tm = build_training_matrix(fam, GSMConfig(nt, na))
        for spread in {0, 1, width // 2, width}:
            assert check_design_criterion(tm, spread).passed, (nt, na, spread)
        assert not check_design_criterion(tm, width + 1).passed


@st.composite
def theorem3_trainings(draw):
    """A Theorem 3 family (q in {2, 4, 6, 8}, m <= 4), its zone, a shape Na <= M,
    Na <= Nt <= 2 Na and a delay spread up to the zone."""
    m = draw(st.integers(1, 4))
    order = draw(st.permutations(range(1, m + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1)))) if m > 1 else []
    bounds = [0, *cuts, m]
    spec = PartitionSpec(m, tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])))
    v = draw(st.integers(1, spec.k))
    q = draw(st.sampled_from((2, 4, 6, 8)))
    eta = draw(st.lists(st.integers(0, q - 1), min_size=m + 1, max_size=m + 1))
    try:
        fam = theorem3_construct(spec, v, q, eta)
    except ValueError:  # the chain heads of parts v+1..k are fixed
        assume(False)
    zone = theorem3_zcz_width(spec)
    na = draw(st.integers(1, fam.num_sets))
    nt = draw(st.integers(na, 2 * na))
    return fam, zone, GSMConfig(nt, na), draw(st.integers(0, zone))


@given(theorem3_trainings())
@settings(max_examples=200, deadline=None)
def test_theorem3_family_meets_design_criterion_up_to_its_zone(case):
    """An E-CZCS at zone Z gives a training matrix optimal at every delay spread up to Z."""
    fam, zone, cfg, spread = case
    assert check_eczcs(fam, zone).passed
    assert check_design_criterion(build_training_matrix(fam, cfg), spread).passed


@given(theorem3_trainings())
@settings(max_examples=100, deadline=None)
def test_eczcs_verdict_implies_design_criterion_up_to_its_width(case):
    """check_eczcs(fam, Z) passing means the training matrix meets the criterion at every lambda <= Z.

    Windows nest, so every passing Z is at most the measured width, and
    checking every lambda up to that width covers them all.
    """
    fam, _, cfg, _ = case
    width = measure_zcz_width(fam)
    assert check_eczcs(fam, width).passed
    tm = build_training_matrix(fam, cfg)
    for spread in range(width + 1):
        assert check_design_criterion(tm, spread).passed, (cfg, spread)


def test_silenced_symbol_is_one_row_energy_fault(table4):
    """The zero-shift autocorrelation of a row is its energy: one fault, reported once."""
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    mask = tm.mask.copy()
    mask[2, 30] = False
    faulty = dataclasses.replace(tm, mask=mask)
    for spread in (0, 5, 9):
        verdict = check_design_criterion(faulty, spread)
        energy = [v for v in verdict.violations if v.check == "row-energy"]
        assert energy == [Violation("row-energy", (2,), 0, float(tm.energy - 1))]
        assert not any(v.check == "peak" for v in verdict.violations)


def test_training_width_must_be_a_multiple_of_group_span():
    """V = ceil(Nt / Na) groups of L slots each divide the width; N is derived from it."""
    row, live = [0, 1, 0, 0], [True, True, False, False]
    tm = TrainingMatrix(2, [row, row[2:] + row[:2], row], [live, live[2:] + live[:2], live], 2, 2)
    assert (tm.group_count, tm.blocks_per_row, tm.energy) == (2, 1, 2)
    for values, mask, na, length in (
        ([row] * 3, [live] * 3, 2, 3),
        ([[0, 1, 1]] * 3, np.ones((3, 3), bool), 2, 1),
        ([row], [live], 1, 0),
    ):
        with pytest.raises(ValueError, match=r"V\*L = \d+ dividing the width"):
            TrainingMatrix(2, values, mask, na, length)
    for na in (0, 2):  # Na outside 1..Nt
        with pytest.raises(ValueError, match="active antennas"):
            TrainingMatrix(2, [row], [live], na, 2)


def test_training_matrix_validation():
    """Arrays are rejected when the mask is no boolean 2-axis array, when empty, of two shapes,
    not numbers, outside Z_q on a live entry or non-integral; integral values read as ints."""
    full = [[True, True]]
    for values, mask, message in (
        ([[0, 1]], [[1, 1]], r"boolean 2-axis array, got int64 \(1, 2\)"),
        ([0, 1], [True, True], r"boolean 2-axis array, got bool \(2,\)"),
        (np.zeros((0, 2)), np.zeros((0, 2), bool), "at least one row"),
        ([[0, 1], [1, 0]], full, r"values of shape \(2, 2\) do not match the mask's \(1, 2\)"),
        ([[0, 9, 1, 0], [9, 3, 7, 0]], [[True, False, True, True], [False, True, True, True]],
         "entry 7 outside Z_4"),  # 7 is the first live offender
        ([[0, 1], [-1, 9]], full * 2, "entry -1 outside Z_4"),
        ([[0, 1.5]], full, r"entry 1\.5 is not an integer"),
        ([["0", "1"]], full, "training values must be numbers, got dtype <U1"),
        ([[0, 1j]], full, r"entry 1j is not an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            TrainingMatrix(4, values, mask, 1, 2)
    live = [[True, False, True, True]]
    tm = TrainingMatrix(4, [[np.int64(3), 9.5, 1.0, True]], live, 1, 2)  # a silent entry is never read
    assert tm.values.tolist() == [[3, 0, 1, 1]] and tm.mask.tolist() == live
    assert not tm.values.flags.writeable and not tm.mask.flags.writeable
    assert training_matrix_to_csv(tm) == training_matrix_to_csv(TrainingMatrix(4, [[3, 0, 1, 1]], live, 1, 2))
    with pytest.raises(ValueError, match=r"phase 2\.9 is not an integer"):
        PhaseSequence(4, (0, 2.9))
    assert PhaseSequence(4, (np.int64(3), 1.0, True)).phases == (3, 1, 1)


def test_training_alphabet_is_an_integer_of_at_least_two():
    """q is read as an int like every other integer argument: 2.0 and numpy ints build and
    check as 2, odd q stays allowed, and True (1), 0, negative or fractional q are rejected
    with a message naming the alphabet."""
    row, live = [[0, 1, 1, 0]], [[True] * 4]
    for q in (2.0, np.int64(2)):
        tm = TrainingMatrix(q, row, live, 1, 4)
        assert type(tm.q) is int and tm.q == 2
        assert check_design_criterion(tm, 1) == check_design_criterion(TrainingMatrix(2, row, live, 1, 4), 1)
    odd = TrainingMatrix(3, [[0, 1, 2, 2]], live, 1, 4)
    assert check_design_criterion(odd, 3) == criterion_per_spread(odd, 3)
    for q, message in ((True, "alphabet size must be an integer >= 2, got 1"),
                       (0, "alphabet size must be an integer >= 2, got 0"),
                       (-4, "alphabet size must be an integer >= 2, got -4"),
                       (2.5, r"alphabet size 2\.5 is not an integer")):
        with pytest.raises(ValueError, match=message):
            TrainingMatrix(q, row, live, 1, 4)


def test_pair_labels_are_one_table_per_shape():
    """Every (Nt, Na) with Nt <= 6 labels the criterion's hits as the per-spread reference does,
    from one read-only table per shape shared by all its matrices."""
    for nt in range(1, 7):
        for na in range(1, nt + 1):
            cross = {(i, j) for i in range(nt) for j in range(nt) if i != j}
            for seed in range(2):
                tm = baseline_random_binary(GSMConfig(nt, na), 2, 6, np.random.default_rng((nt, na, seed)))
                verdict = check_design_criterion(tm, tm.width - 1)
                assert verdict == criterion_per_spread(tm, tm.width - 1), (nt, na)
                assert {v.indices for v in verdict.violations} >= cross, (nt, na)  # every pair is labelled
            table = training._pair_labels(nt, na)
            assert table is training._pair_labels(nt, na) and not table.flags.writeable
            assert table.shape == (nt, nt) and table.dtype == object


def _reference_activation_patterns(nt, na):
    """The pinned (4, 2) table, else the first 2^floor(log2 C(Nt, Na)) Na-subsets as 0/1 rows."""
    if (nt, na) == (4, 2):
        return [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)]
    subsets = list(combinations(range(nt), na))
    keep = 1
    while 2 * keep <= len(subsets):
        keep *= 2
    return [tuple(1 if a in subset else 0 for a in range(nt)) for subset in subsets[:keep]]


@pytest.mark.parametrize("nt,na", [(2, 1), (3, 3), (4, 2), (5, 2), (6, 3), (8, 3)])
def test_bit_mapping_matches_per_symbol_reference(nt, na):
    """Each symbol reads its index bits MSB first, picks that pattern, and sends one BPSK bit
    per active antenna in ascending order; Na = Nt has one pattern and no index bits."""
    cfg = GSMConfig(nt, na)
    patterns = _reference_activation_patterns(nt, na)
    assert activation_table(cfg).patterns == tuple(patterns)
    index_bits = len(patterns).bit_length() - 1
    per_symbol = index_bits + na
    rng = random.Random(17 * nt + na)
    for n_symbols in (0, 1, 7, 40):
        bits = "".join(rng.choice("01") for _ in range(n_symbols * per_symbol))
        expected = np.zeros((nt, n_symbols), dtype=np.int8)
        for t in range(n_symbols):
            chunk = bits[t * per_symbol:(t + 1) * per_symbol]
            pattern = patterns[int(chunk[:index_bits] or "0", 2)]
            active = [a for a in range(nt) if pattern[a]]
            for antenna, bit in zip(active, chunk[index_bits:]):
                expected[antenna, t] = 1 if bit == "0" else -1
        block = map_bits_to_gsm_block(bits, cfg)
        assert block.dtype == np.int8 and np.array_equal(block, expected), (nt, na, n_symbols)
        assert np.array_equal(map_bits_to_gsm_block([int(b) for b in bits], cfg), expected)


def test_activation_tables():
    table = activation_table(GSMConfig(4, 2))
    assert table.patterns == ((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1))
    assert table.index_bits == 2
    assert len(table.patterns) == 4  # although C(4,2) = 6
    small = activation_table(GSMConfig(2, 1))
    assert small.patterns == ((1, 0), (0, 1))
    wide = activation_table(GSMConfig(5, 2))
    assert len(wide.patterns) == 8 and all(sum(p) == 2 for p in wide.patterns)


def test_bit_mapping_single_symbol():
    block = map_bits_to_gsm_block("0101", GSMConfig(4, 2))
    assert block[:, 0].tolist() == [0, 1, -1, 0]


def test_bit_mapping_worked_block():
    block = map_bits_to_gsm_block("0101001110101111", GSMConfig(4, 2))
    expected = np.array(
        [
            [0, -1, -1, 0],
            [1, -1, 0, 0],
            [-1, 0, 0, -1],
            [0, 0, 1, -1],
        ],
        dtype=np.int8,
    )
    assert np.array_equal(block, expected)


def test_bit_mapping_edge_cases():
    assert map_bits_to_gsm_block("", GSMConfig(4, 2)).shape == (4, 0)
    with pytest.raises(ValueError):
        map_bits_to_gsm_block("010", GSMConfig(4, 2))
    # int() would truncate 0.7 and 1.9 into bits, and read '1' as one
    for bits in ([0.7, 1, 0, 1.9], [0, 1, 0, 2], [0, 1, 0, "1"], [0, None, 0, 1], "0102", "01a1", "01 01"):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            map_bits_to_gsm_block(bits, GSMConfig(4, 2))
    want = map_bits_to_gsm_block("0101", GSMConfig(4, 2))
    for bits in ([0, 1, 0, 1], [0, 1.0, 0, True], np.array([0, 1, 0, 1]), " 0101\n"):
        assert np.array_equal(map_bits_to_gsm_block(bits, GSMConfig(4, 2)), want)


def test_csv_and_meta_exports(table4):
    tm = build_training_matrix(table4, GSMConfig(4, 2), source="length24")
    lines = training_matrix_to_csv(tm).strip().splitlines()
    assert len(lines) == 4
    first = lines[0].split(",")
    assert len(first) == 96 and set(first) <= {"0", "1", "-1"}
    meta = training_matrix_meta(tm)
    assert meta == {"source": "length24", "Nt": 4, "Na": 2, "V": 2, "N": 2, "L": 24, "E": 48}


def _reference_matrices(table4, table5):
    """Training matrices for both antenna shapes, with their zone widths."""
    rng = np.random.default_rng(31)
    out = []
    for cfg in (GSMConfig(2, 2), GSMConfig(4, 2), GSMConfig(8, 3)):
        if cfg.active_antennas == 2:
            out.append((build_training_matrix(table4, cfg), 9))
        out.append((build_training_matrix(table5, cfg), 8))
        out.append((baseline_zadoff_chu(cfg, 2, 32), 8))  # q = 64
        out.append((baseline_random_binary(cfg, 2, 16, rng), 8))
    return out


def test_training_pccf_matches_float_cyclic_sum(table4, table5):
    for tm, _ in _reference_matrices(table4, table5):
        rows = tm.complex_rows()
        shifted = np.array([np.roll(rows, -u, axis=1) for u in range(tm.width)])
        for i in range(tm.num_rows):
            for j in range(tm.num_rows):
                ref = shifted[:, i, :] @ np.conj(rows[j])
                got = [training_pccf(tm, i, j, u).to_complex() for u in range(tm.width)]
                assert np.max(np.abs(np.array(got) - ref)) < 1e-9, (tm.source, i, j)


def test_training_pccf_is_the_training_theorem_at_every_shift(table3, table4, nonc2_zccs):
    """Row i carries set m_i = i mod Na in group g_i = i div Na.  With V = ceil(Nt/Na)
    and W = NVL, its periodic correlation with row j at any u is the sum over d of
    rho_d(m_i, m_j, tau) = sum_n accf(m_i[(n+d) % N], m_j[n], tau), taken over
    |tau| < L with tau = u - dVL - (g_i - g_j)L (mod W)."""
    rng = random.Random(15)
    families = [table3, table4, nonc2_zccs]
    for _ in range(8):
        q, n, length = rng.choice((2, 4, 6)), rng.randint(1, 3), rng.randint(1, 5)
        sets = [[[rng.randrange(q) for _ in range(length)] for _ in range(n)] for _ in range(2)]
        families.append(family_from_lists(q, sets))
    for fam in families:
        n, length = fam.set_size, fam.length

        @cache
        def rho(a, b, d, tau):
            members_a, members_b = fam.sets[a].members, fam.sets[b].members
            terms = (accf(members_a[(k + d) % n], members_b[k], tau) for k in range(n))
            return cyclo_sum(fam.q, terms)

        for nt, na in ((4, 2), (3, 2), (3, 1), (1, 1)):
            v = GSMConfig(nt, na).group_count
            tm, width = build_training_matrix(fam, GSMConfig(nt, na)), n * v * length
            assert tm.width == width
            for i in range(nt):
                for j in range(nt):
                    for u in range(width):
                        expected = zero(fam.q)
                        for d in range(n):
                            tau = (u - d * v * length - (i // na - j // na) * length) % width
                            for t in (tau, tau - width):  # width >= L: no other lies in (-L, L)
                                if -length < t < length:
                                    expected = add(expected, rho(i % na, j % na, d, t))
                        assert training_pccf(tm, i, j, u) == expected, (fam.length, nt, na, i, j, u)


def reference_label(tm, i, j):
    """Which interference mechanism a violating row pair belongs to, rule by rule."""
    if i == j:
        return "isi"
    gi, gj = i // tm.active_antennas, j // tm.active_antennas
    v_count = tm.group_count
    if gi == gj:
        return "iai-same-group"
    if (gi, gj) == (0, v_count - 1) and v_count >= 2:
        return "iai-wrap"
    if gi == gj + 1:
        return "iai-adjacent-group"
    return "iai-separated"


def test_design_criterion_matches_per_shift_reference(table4, table5):
    """Correlation violations equal an explicit per-shift loop, in report order."""
    for tm, zone in _reference_matrices(table4, table5):
        vals, mask = tm.values.tolist(), tm.mask.tolist()
        width, q = tm.width, tm.q
        value = {}
        for i in range(tm.num_rows):
            for j in range(tm.num_rows):
                for u in range(zone + 2):
                    counts = [0] * q
                    for k in range(width):
                        if mask[i][(k + u) % width] and mask[j][k]:
                            counts[(vals[i][(k + u) % width] - vals[j][k]) % q] += 1
                    value[i, j, u] = CycloInt(q, tuple(counts))
        for spread in range(zone + 2):
            expected = []
            for i in range(tm.num_rows):
                for j in range(tm.num_rows):
                    for u in range(1 if i == j else 0, spread + 1):
                        if not value[i, j, u].is_zero():
                            label = reference_label(tm, i, j)
                            expected.append((label, (i, j), u, value[i, j, u].magnitude()))
            got = [
                (v.check, v.indices, v.shift, v.magnitude)
                for v in check_design_criterion(tm, spread).violations
                if v.check not in ("sparsity", "row-energy")
            ]
            assert got == expected, (tm.source, spread)


def _faulty(tm: TrainingMatrix, seed: int) -> TrainingMatrix:
    """A copy with one live entry silenced and one silent entry made live (phase 0)."""
    rng = np.random.default_rng(seed)
    mask = tm.mask.copy()
    for live in (True, False):
        rows, cols = np.nonzero(tm.mask == live)
        k = rng.integers(len(rows))
        mask[rows[k], cols[k]] = not live
    return dataclasses.replace(tm, mask=mask)


def _cached_matrices():
    """Makers of fresh matrices over q in {2, 4, 6, 64}, sound and with mask edits."""
    table4 = load_fixture_family("eczcs_2x2x24")
    spec = PartitionSpec(4, ((3, 1, 2), (4,)))  # zone 4, (M, N, L) = (4, 2, 16)
    makers = {
        "table4": lambda: build_training_matrix(table4, GSMConfig(4, 2)),
        "theorem3-q4": lambda: build_training_matrix(theorem3_construct(spec, 1, 4), GSMConfig(4, 2)),
        "theorem3-q6": lambda: build_training_matrix(theorem3_construct(spec, 1, 6), GSMConfig(3, 2)),
        "zadoff-chu": lambda: baseline_zadoff_chu(GSMConfig(4, 2), 1, 32),  # q = 64
        "random-binary": lambda: baseline_random_binary(GSMConfig(4, 2), 2, 16, np.random.default_rng(5)),
    }
    for name in ("table4", "theorem3-q6", "zadoff-chu"):
        makers[name + "-faulty"] = lambda make=makers[name]: _faulty(make(), 2)
    return makers


def test_cached_criterion_matches_the_per_spread_reference():
    """Every delay spread 0..W-1, asked in ascending, descending and shuffled order of a fresh
    matrix each, gives the JSON of the criterion tallied afresh at that spread."""
    rng = random.Random(27)
    for name, make in _cached_matrices().items():
        tm = make()
        want = [criterion_per_spread(tm, lam).to_json() for lam in range(tm.width)]
        shuffled = rng.sample(range(tm.width), tm.width)
        for order in (range(tm.width), range(tm.width - 1, -1, -1), shuffled):
            fresh = make()
            for lam in order:
                assert check_design_criterion(fresh, lam).to_json() == want[lam], (name, lam)


def test_replaced_matrix_gets_its_own_criterion():
    """dataclasses.replace makes a matrix without the original's cached tally."""
    for name, make in _cached_matrices().items():
        tm = make()
        spreads = (0, 3, tm.width // 2, tm.width - 1)
        before = [check_design_criterion(tm, lam) for lam in spreads]
        edited = _faulty(tm, 3)
        for lam in spreads:
            assert check_design_criterion(edited, lam) == criterion_per_spread(edited, lam), (name, lam)
        assert [check_design_criterion(tm, lam) for lam in spreads] == before, name


def test_criterion_tallies_in_growing_blocks(monkeypatch):
    """Delay spreads 0..Z+1 of a fresh matrix run at most ceil(log2(Z+2)) + 1 tallies, not Z+2;
    the design width reuses them."""
    calls = []

    def counted(*args):
        calls.append(len(args[-1]))
        return cyclic_tally(*args)

    cyclic_tally = verify.cyclic_tally
    monkeypatch.setattr(verify, "cyclic_tally", counted)
    for fam, zone, cfg in ((load_fixture_family("eczcs_2x2x24"), 9, GSMConfig(4, 2)),
                           (load_fixture_family("eczcs_4x2x32"), 8, GSMConfig(8, 3))):
        calls.clear()
        tm = build_training_matrix(fam, cfg)
        for lam in range(zone + 2):
            check_design_criterion(tm, lam)
        assert design_width(tm) == zone
        assert 1 <= len(calls) <= math.ceil(math.log2(zone + 2)) + 1, calls
        assert sum(calls) < tm.width  # blocks, never every shift up front
        check_design_criterion(tm, tm.width - 1)
        assert sum(calls) == tm.width and len(calls) <= math.ceil(math.log2(tm.width)) + 1, calls


def _width_matrices():
    """The structured designs (with their families) and two baselines, fresh on each call."""
    table4, table5 = load_fixture_family("eczcs_2x2x24"), load_fixture_family("eczcs_4x2x32")
    code = lemma2_ccc(PartitionSpec(3, ((2,), (3, 1))), 2)
    doubled = theorem2_construct(code, code.length)
    chained = theorem3_construct(PartitionSpec(5, ((4, 1, 2), (5, 3))), 1, 2)
    rng = np.random.default_rng(8)
    for cfg in (GSMConfig(4, 2), GSMConfig(8, 3)):
        for fam in (table4, table5, doubled, chained):
            if fam.num_sets >= cfg.active_antennas:
                yield (lambda f=fam, c=cfg: build_training_matrix(f, c)), fam
        yield (lambda c=cfg: baseline_random_binary(c, 2, 32, rng)), None
        yield (lambda c=cfg: baseline_zadoff_chu(c, 2, 32)), None


def test_design_width_is_the_last_passing_delay_spread():
    """The criterion passes exactly at the delay spreads up to the design width, each matrix
    fresh; a structured design's width is at least its family's measured zone width."""
    for make, fam in _width_matrices():
        tm, width = make(), design_width(make())
        assert -1 <= width < tm.width
        passed = [check_design_criterion(tm, lam).passed for lam in range(tm.width)]
        assert passed == [lam <= width for lam in range(tm.width)], (tm.source, width)
        if fam is not None:
            assert width >= measure_zcz_width(fam), tm.source


def test_design_width_of_the_fixtures_and_faults(table4, table5):
    """Zone 9 for Table 4 and 8 for Table 5; -1 with a layout fault or an in-phase cross hit;
    W - 1 for one perfect sequence, whose autocorrelation vanishes at every nonzero shift: the
    binary (+, +, +, -) and the Frank sequence of length 64, read through three blocks."""
    assert design_width(build_training_matrix(table4, GSMConfig(4, 2))) == 9
    for cfg in (GSMConfig(4, 2), GSMConfig(8, 3)):
        assert design_width(build_training_matrix(table5, cfg)) == 8
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    assert design_width(_faulty(tm, 1)) == -1
    twins = dataclasses.replace(tm, values=tm.values[[0, 0, 2, 3]])  # rows 0 and 1 equal
    assert design_width(twins) == -1 and not check_design_criterion(twins, 0).passed
    short = TrainingMatrix(2, [[0, 0, 0, 0], [0, 0, 0, 1]],  # row 0 silent in slot 1; hits from shift 1
                           [[True, False, False, False], [False, False, True, True]], 1, 2)
    assert [v.check for v in check_design_criterion(short, 0).violations] == ["sparsity", "row-energy"]
    assert design_width(short) == -1
    frank = np.outer(np.arange(8), np.arange(8)).reshape(1, 64) % 8
    for perfect in (TrainingMatrix(2, [[0, 0, 0, 1]], [[True] * 4], 1, 4),
                    TrainingMatrix(8, frank, np.ones((1, 64), bool), 1, 64)):
        assert design_width(perfect) == perfect.width - 1
        assert check_design_criterion(perfect, perfect.width - 1).passed


@given(theorem3_trainings())
@settings(max_examples=60, deadline=None)
def test_design_width_covers_the_measured_zone(case):
    """A Theorem 3 design's width is at least its family's, and the criterion turns there."""
    fam, _, cfg, _ = case
    width = design_width(build_training_matrix(fam, cfg))
    assert width >= measure_zcz_width(fam)
    tm = build_training_matrix(fam, cfg)
    assert check_design_criterion(tm, width).passed
    assert width == tm.width - 1 or not check_design_criterion(tm, width + 1).passed


def test_criterion_builds_each_asked_record_once(monkeypatch):
    """Delay spreads 0..Z+1 build the records of hits at shifts up to Z+1 only, each once,
    though the first tally block holds 16 shifts; a repeat of the sweep builds none."""
    built, real = [], verify.Violation
    monkeypatch.setattr(verify, "Violation", lambda *args: built.append(args[1:3]) or real(*args))
    for fam, zone, cfg in ((load_fixture_family("eczcs_2x2x24"), 9, GSMConfig(4, 2)),
                           (None, 3, GSMConfig(4, 2))):
        tm = build_training_matrix(fam, cfg) if fam else baseline_random_binary(cfg, 2, 32, np.random.default_rng(4))
        want = [criterion_per_spread(tm, lam).to_json() for lam in range(zone + 2)]
        built.clear()
        assert [check_design_criterion(tm, lam).to_json() for lam in range(zone + 2)] == want
        assert built and max(shift for _, shift in built) <= zone + 1
        assert len(set(built)) == len(built)
        count = len(built)
        for lam in range(zone + 2):
            check_design_criterion(tm, lam)
        assert len(built) == count
        assert tm.__dict__["_zone"][0].shape[2] >= 16  # the tally held shifts nobody asked for
