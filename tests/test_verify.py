import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from eczcs import (
    CycloInt,
    Family,
    PhaseSequence,
    SequenceSet,
    Verdict,
    accf,
    check_ccc,
    check_eczcs,
    check_kind,
    check_mocs,
    check_szccs,
    check_zccs,
    check_design_criterion,
    check_zcz_set,
    eczcs_bound,
    family_from_lists,
    flatten_to_zcz,
    golay_pair,
    is_optimal,
    lemma2_ccc,
    load_fixture_family,
    measure_zcz_width,
    optimal_theorem3_params,
    theorem2_construct,
    theorem3_construct,
)
from eczcs import correlation, verify
from eczcs.correlation import (
    cross_channel_table, cyclic_tally, profile_accf, profile_cross_channel, profile_pccf,
    profile_set_corr, set_corr_table, set_sum_tally,
)
from eczcs.cyclotomic import cyclotomic_poly, reduction_matrix
from eczcs.construct import seed_catalog
from eczcs.gbf import PartitionSpec, theorem3_zcz_width
from eczcs.simulate import baseline_zadoff_chu
from eczcs.training import GSMConfig, TrainingMatrix, build_ls_model_matrix, build_training_matrix

from reference import (
    cyclo_sum, integer, pccf_via_accf, read_windows, set_rows, set_sum_check_per_call, zone_violations,
)

from conftest import float_pccf


def test_zcz_empty_window_always_passes():
    st = SequenceSet((PhaseSequence(2, (0, 1, 1)),))
    assert check_zcz_set(st, 0).passed


def test_flattened_family_is_zcz_set(table4):
    flat = flatten_to_zcz(table4)
    assert flat.size == 2 and flat.length == 48
    verdict = check_zcz_set(flat, 9)
    assert verdict.passed
    # independent periodic oracle over the whole claimed zone
    for i, si in enumerate(flat.members):
        for j, sj in enumerate(flat.members):
            for u in range(0 if i != j else 1, 10):
                assert abs(float_pccf(si, sj, u)) < 1e-9
    assert not check_zcz_set(flat, 10).passed


def test_identical_members_fail_cross_condition():
    s = PhaseSequence(2, (0, 1, 0, 0))
    verdict = check_zcz_set(SequenceSet((s, s)), 1)
    assert not verdict.passed
    assert any(v.check == "zcz-cross" and v.shift == 0 for v in verdict.violations)


def test_zcz_width_bound_values():
    # N = 1: the Tang-Fan-Matsufuji bound of an (M, L, Z) sequence set
    assert eczcs_bound(2, 1, 48, 2) == 12
    assert eczcs_bound(2, 1, 48, 4) == 23
    assert eczcs_bound(1, 1, 10, 2) == 5


def test_zccs_classification(table3):
    assert check_zccs(table3, 10).passed
    assert not check_zccs(table3, 12).passed
    tiny = family_from_lists(2, [[[0]]])
    assert check_zccs(tiny, 1).passed


def test_zccs_width_larger_than_length_rejected(table3):
    checks = (check_zccs, check_szccs, check_eczcs, lambda fam, w: check_zcz_set(fam.sets[0], w))
    for check in checks:
        for width in (-1, 13):
            with pytest.raises(ValueError):
                check(table3, width)


def _integer_argument_calls():
    """A call of one integer argument, an integral value and the noun its rejection names."""
    fam, table3 = load_fixture_family("eczcs_2x2x24"), load_fixture_family("zccs_2x2x12")
    tm = build_training_matrix(fam, GSMConfig(4, 2))
    calls = {
        "check_eczcs": (lambda w: check_eczcs(fam, w).to_json(), 9, "zone width"),
        "check_szccs": (lambda w: check_szccs(fam, w).to_json(), 9, "zone width"),
        "check_zccs": (lambda w: check_zccs(fam, w).to_json(), 9, "zone width"),
        "check_zcz_set": (lambda w: check_zcz_set(flatten_to_zcz(fam), w).to_json(), 9, "zone width"),
        "check_kind": (lambda w: check_kind("eczcs", fam, w).to_json(), 10, "zone width"),
        "theorem2_construct": (lambda w: theorem2_construct(table3, w), 10, "declared seed width"),
        "eczcs_bound": (lambda m: eczcs_bound(m, 2, 24, 2), 2, "M, N or L"),
        "check_design_criterion": (lambda d: check_design_criterion(tm, d).to_json(), 9, "delay spread"),
        "build_ls_model_matrix": (lambda d: build_ls_model_matrix(tm, d).tolist(), 9, "delay spread"),
    }
    return [pytest.param(*args, id=name) for name, args in calls.items()]


@pytest.mark.parametrize("call, value, noun", _integer_argument_calls())
def test_integral_float_arguments_read_as_ints(call, value, noun):
    """An integral float gives the result of its int; a fractional one raises ValueError naming it."""
    got, want = call(float(value)), call(value)
    assert got == want and type(got) is type(want)
    with pytest.raises(ValueError, match=rf"^{noun} {value}\.5 is not an integer$"):
        call(value + 0.5)


def test_mocs_and_ccc():
    ccc = lemma2_ccc(PartitionSpec(2, ((1, 2),)), q=2)
    assert check_ccc(ccc).passed
    single_gcs = Family((golay_pair(8),))
    assert check_mocs(single_gcs).passed
    assert not check_ccc(single_gcs).passed  # M=1 != N=2


def test_table3_is_not_mocs(table3):
    assert not check_mocs(table3).passed


def test_szccs_hierarchy_and_zero_width(table4):
    assert check_szccs(table4, 9).passed
    anything = family_from_lists(2, [[[0, 0]], [[0, 1]]])
    assert check_szccs(anything, 0).passed  # only u=0 cross-orthogonality remains
    dependent = family_from_lists(2, [[[0, 0]], [[0, 0]]])
    assert not check_szccs(dependent, 0).passed


def test_random_binary_family_fails_szccs():
    rng = random.Random(123)
    sets = [[[rng.randint(0, 1) for _ in range(24)] for _ in range(2)] for _ in range(2)]
    fam = family_from_lists(2, sets)
    assert not check_szccs(fam, 9).passed


def test_eczcs_classification(table4, table5):
    assert check_eczcs(table4, 9).passed
    verdict = check_eczcs(table4, 10)
    assert not verdict.passed
    assert any(
        v.check == "same-set" and v.indices == (0, 0) and v.shift == 10 and v.magnitude == 8.0
        for v in verdict.violations
    )
    assert check_eczcs(table5, 8).passed


def test_measured_widths(table4, table5):
    assert measure_zcz_width(table4) == 9
    assert measure_zcz_width(table5) == 8
    lone = Family((SequenceSet((golay_pair(4).members[0],)),))
    # a single unimodular sequence cannot carry a tail-end zone
    assert measure_zcz_width(lone) == 0


def test_eczcs_bound_values():
    assert eczcs_bound(2, 2, 24, 2) == 12
    assert eczcs_bound(4, 2, 32, 2) == 8
    assert eczcs_bound(2, 2, 24, 4) == 23
    assert eczcs_bound(3, 2, 10, 4) == 5  # floor of 20/3 - 1
    for params in ((0, 2, 24), (-1, 2, 24), (2, 0, 24), (2, 2, 0)):
        for q in (2, 4):
            with pytest.raises(ValueError, match="M, N, L >= 1"):
                eczcs_bound(*params, q)


def test_optimality(table3, table4, table5):
    assert is_optimal(table5, 8)
    assert not is_optimal(table4, 9)
    ccc = lemma2_ccc(PartitionSpec(2, ((1, 2),)), q=2)
    doubled = theorem2_construct(ccc, ccc.length)
    assert is_optimal(doubled, ccc.length)


def test_flatten_degenerate_single_sequence():
    fam = family_from_lists(2, [[[0, 1, 1]]])
    flat = flatten_to_zcz(fam)
    assert flat.members[0].phases == (0, 1, 1)


def test_hierarchy_from_eczcs(table4, table5):
    # an enhanced family is symmetrical and, one width up, a plain code set
    for fam, width in ((table4, 9), (table5, 8)):
        assert check_eczcs(fam, width).passed
        assert check_szccs(fam, width).passed
        assert check_zccs(fam, min(width + 1, fam.length)).passed


def test_wide_zone_implies_mutual_orthogonality():
    ccc = lemma2_ccc(PartitionSpec(3, ((1, 2, 3),)), q=2)
    fam = theorem2_construct(ccc, ccc.length)
    width = measure_zcz_width(fam)
    assert width >= fam.length // 2
    assert check_mocs(fam).passed


def test_verdict_reports_every_violation(table4):
    verdict = check_eczcs(table4, 12)
    shifts = {(v.check, v.shift) for v in verdict.violations}
    assert ("same-set", 10) in shifts
    assert len(verdict.violations) >= 2  # both sets violate at u=10
    assert verdict.to_json()["passed"] is False


def test_verdict_has_no_truth_value(table4):
    """A verdict is read through .passed; `assert check_eczcs(...)` must not pass silently."""
    for verdict in (check_eczcs(table4, 9), check_eczcs(table4, 12)):
        with pytest.raises(TypeError, match="passed"):
            bool(verdict)


def test_zone_scans_build_no_cyclo_int(monkeypatch):
    """Failing scans report the same verdicts, and profiles write the same CSV text, with
    CycloInt construction disabled."""
    table4 = load_fixture_family("eczcs_2x2x24")
    lifted = family_from_lists(
        4, [[[2 * p for p in s.phases] for s in st.members] for st in table4.sets]
    )
    scans = [lambda w=w: check_eczcs(lifted, w) for w in (10, 17, 24)]
    for q in (4, 8):
        fam = theorem3_construct(optimal_theorem3_params(4, 2, 1), 1, q, (1, 2, 3, 0, 1))
        scans += [lambda w=w, f=fam: check_eczcs(f, w) for w in (fam.length // 2, fam.length)]
    zc = baseline_zadoff_chu(GSMConfig(4, 2), 1, 32)
    live = np.array([[1, 1, 0, 1, 1, 0], [0, 1, 1, 1, 0, 1]], dtype=bool)
    silent = TrainingMatrix(4, [[0, 1, 0, 3, 2, 0], [0, 2, 3, 1, 0, 0]], live, 1, 3)
    scans += [lambda: check_design_criterion(zc, 5), lambda: check_design_criterion(silent, 2)]
    want = [scan().to_json() for scan in scans]
    a, b = lifted.sets[0].members[0], lifted.sets[1].members[1]
    profiles = [lambda: profile_set_corr(lifted, 0, 1), lambda: profile_cross_channel(lifted, 0, 1),
                lambda: profile_accf(a, b), lambda: profile_pccf(a, b)]
    texts = [profile().to_csv() for profile in profiles]
    assert lifted.q == 4 and all(text.count("\n") > 12 for text in texts)
    assert zc.q == 64
    assert not any(v["passed"] for v in want)
    assert any(x["check"] == "row-energy" for x in want[-1]["violations"])

    def refuse(self):
        raise AssertionError("CycloInt built in a zone scan")

    monkeypatch.setattr(CycloInt, "__post_init__", refuse)
    assert [scan().to_json() for scan in scans] == want
    assert [profile().to_csv() for profile in profiles] == texts


def _in_scan_order(violations) -> bool:
    """Whether every zone-scan block (a run of one check family) lists (row, pair, shift) ascending."""
    blocks = {"same-set": 0, "cross-set": 0, "cross-channel": 1, "zcz-auto": 2, "zcz-cross": 2}
    keys = [(blocks.get(v.check, 3), v.indices, v.shift) for v in violations]
    return keys == sorted(keys)


def test_every_classifier_reports_in_row_pair_shift_order(table4):
    """Each zone scan lists its violations by row, then pair, then ascending shift."""
    rng = random.Random(77)
    families = [table4]
    for q in (2, 4, 6):
        sets = [[[rng.randrange(q) for _ in range(9)] for _ in range(2)] for _ in range(3)]
        families.append(family_from_lists(q, sets))
    for fam in families:
        verdicts = [check(fam, w) for w in range(fam.length + 1)
                    for check in (check_zccs, check_szccs, check_eczcs)]
        verdicts += [check_mocs(fam), check_ccc(fam)]
        verdicts += [check_zcz_set(flatten_to_zcz(fam), w) for w in (1, 5, fam.length)]
        tm = build_training_matrix(fam, GSMConfig(3, 2))
        criteria = [check_design_criterion(tm, spread) for spread in (4, fam.length)]
        tail = [v for v in check_eczcs(fam, fam.length).violations if v.check == "cross-channel"]
        assert len({v.shift for v in tail}) > 2, fam.q
        for verdict in verdicts:
            assert _in_scan_order(verdict.violations), fam.q
        for verdict in criteria:
            scanned = [v for v in verdict.violations if v.check.startswith(("isi", "iai"))]
            assert [(v.indices, v.shift) for v in scanned] == sorted(
                (v.indices, v.shift) for v in scanned
            )
        assert scanned, fam.q


def test_zone_windows_are_shift_sets():
    """Shuffled, repeated or overlapping windows give the sorted windows' report,
    whichever shift the reduced tally starts at."""
    rng = random.Random(5)
    for q in (2, 4, 6):
        sets = [[[rng.randrange(q) for _ in range(7)] for _ in range(2)] for _ in range(3)]
        rows, live = set_rows(family_from_lists(q, sets))
        labels = np.full((len(rows), len(rows)), "v")
        same, cross = range(-6, 4), range(-2, 7)
        reduced, reports = cyclic_tally(rows, live, q, np.arange(-13, 7)) @ reduction_matrix(q), []
        for first in (-6, -13):
            tally = reduced[:, :, first + 13 :]  # column c holds shift c + first
            want = read_windows(tally, q, same, cross, labels, first)
            assert want
            for _ in range(5):
                shuffled = [list(same), list(cross)]
                for w in shuffled:
                    w += rng.sample(w, 3)  # repeats
                    rng.shuffle(w)
                overlapping = [[*range(-6, 0), *range(-3, 4)], {*range(-2, 3), *range(2, 7)}]
                for windows in (shuffled, overlapping):
                    got = read_windows(tally, q, *windows, labels, first)
                    assert got == want, (q, first)
            reports.append(want)
        assert reports[0] == reports[1], q


def test_zcz_set_hit_list_matches_the_fresh_tally(monkeypatch):
    """check_zcz_set at every width 0..L, asked in ascending, descending and shuffled order of
    a fresh sequence set each, equals the zone tallied afresh at that width; a repeated sweep
    of the same set builds no record."""
    built, real = [], verify.Violation
    monkeypatch.setattr(verify, "Violation", lambda *args: built.append(args) or real(*args))
    rng = random.Random(29)
    cases = [(2, flatten_to_zcz(load_fixture_family(name)).array()) for name in ("eczcs_2x2x24", "eczcs_4x2x32")]
    cases += [(q, np.array([[rng.randrange(q) for _ in range(length)] for _ in range(size)]))
              for q in (2, 4, 6) for size, length in ((1, 7), (2, 12), (3, 20), (4, 33))]
    for q, rows in cases:
        size, length = rows.shape
        labels = np.where(np.eye(size, dtype=bool), "zcz-auto", "zcz-cross")
        want = [Verdict(tuple(zone_violations(rows, None, q, min(w, length - 1), labels))).to_json()
                for w in range(length + 1)]
        for order in (range(length + 1), range(length, -1, -1), rng.sample(range(length + 1), length + 1)):
            sset = SequenceSet.from_array(q, rows)
            for width in order:
                assert check_zcz_set(sset, width).to_json() == want[width], (q, length, width)
            built.clear()
            for width in order:
                check_zcz_set(sset, width)
            assert not built, (q, length)


def test_zone_scan_never_holds_every_pair_product():
    """One scan over 16 set rows of width 2032 stays below one (R, R, W) complex product."""
    fam = lemma2_ccc(PartitionSpec(6, ((1, 2), (3, 4), (5,), (6,))), q=4)
    rows, width = fam.num_sets, fam.set_size * (2 * fam.length - 1)
    assert (rows, width) == (16, 2032)
    tracemalloc.start()
    try:
        verdict = check_mocs(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert peak < rows * rows * width * 16, peak


def test_zcz_violations_match_per_shift_reference(table4, table5):
    """check_zcz_set lists exactly the nonzero pccf_via_accf values, in (i, j, u) order."""
    rng = random.Random(41)
    cases = [(flatten_to_zcz(table4), 9), (flatten_to_zcz(table5), 8)]
    for q in (4, 6):
        members = tuple(
            PhaseSequence(q, tuple(rng.randrange(q) for _ in range(10))) for _ in range(3)
        )
        cases.append((SequenceSet(members), 4))
    for sset, zone in cases:
        members = sset.members
        for width in range(zone + 2):
            expected = []
            for i, si in enumerate(members):
                for j, sj in enumerate(members):
                    for u in range(1 if i == j else 0, width + 1):
                        val = pccf_via_accf(si, sj, u)
                        if not val.is_zero():
                            kind = "zcz-auto" if i == j else "zcz-cross"
                            expected.append((kind, (i, j), u, val.magnitude()))
            got = [
                (v.check, v.indices, v.shift, v.magnitude)
                for v in check_zcz_set(sset, width).violations
            ]
            assert got == expected, (zone, width)


def _reference_aperiodic_violations(fam):
    """check_zccs/szccs/eczcs violation lists per width from explicit accf sums."""
    length, size, q = fam.length, fam.set_size, fam.q
    pairs = [(m1, m2) for m1 in range(fam.num_sets) for m2 in range(fam.num_sets)]
    value = {}
    for m1, m2 in pairs:
        for rotation in (0, 1):
            for u in range(-(length - 1), length):
                a, b = fam.sets[m1].members, fam.sets[m2].members
                terms = (accf(a[n], b[(n + rotation) % size], u) for n in range(size))
                value[m1, m2, rotation, u] = cyclo_sum(q, terms)

    def scan(label, rotation, same, cross, peak=None):
        out = []
        for m1 in range(fam.num_sets):
            if peak is not None and value[m1, m1, 0, 0] != peak:
                out.append(("peak", (m1, m1), 0, value[m1, m1, 0, 0].magnitude()))
            for m2 in range(fam.num_sets):
                for u in same if m1 == m2 else cross:
                    val = value[m1, m2, rotation, u]
                    if not val.is_zero():
                        out.append((label(m1, m2), (m1, m2), u, val.magnitude()))
        return out

    def plain(m1, m2):
        return "same-set" if m1 == m2 else "cross-set"

    expected = {}
    peak = integer(q, size * length)
    for width in range(length + 1):
        zccs = scan(plain, 0, range(1, width), range(width), peak)
        window = set(range(1, width + 1)) | set(range(length - width, length))
        same = sorted(u for u in window if 1 <= u < length)
        cross = sorted(u for u in window | {0} if 0 <= u < length)
        szccs = scan(plain, 0, same, cross)
        # both signs of each tail shift, ascending
        tail = sorted(u for u_abs in range(length - width, length) for u in {u_abs, -u_abs})
        eczcs = szccs + scan(lambda m1, m2: "cross-channel", 1, tail, tail)
        expected[width] = {"zccs": zccs, "szccs": szccs, "eczcs": eczcs}
    return expected


def test_aperiodic_violations_match_per_shift_reference(table3, table4, table5, nonc2_zccs):
    """Classifier violations and the measured width equal explicit accf loops, in order."""
    rng = random.Random(606)
    families = [table3, table4, table5, nonc2_zccs]
    for q in (2, 4, 6, 8, 12):
        for length in (1, 2, 5, 9):
            for _ in range(2):
                m, n = rng.randint(1, 3), rng.randint(1, 3)
                sets = [[[rng.randrange(q) for _ in range(length)] for _ in range(n)] for _ in range(m)]
                families.append(family_from_lists(q, sets))
    checks = {"zccs": check_zccs, "szccs": check_szccs, "eczcs": check_eczcs}
    for n, fam in enumerate(families):
        fam = Family(fam.sets)  # a new object, so its first read of the set sums happens here
        expected = _reference_aperiodic_violations(fam)
        # every width ascending and descending on the same object, starting either way
        widths = list(expected)
        for width in [*widths, *widths[::-1]] if n % 2 else [*widths[::-1], *widths]:
            for kind, check in checks.items():
                got = [(v.check, v.indices, v.shift, v.magnitude) for v in check(fam, width).violations]
                assert got == expected[width][kind], (fam.q, fam.length, width, kind)
        passing = [w for w, lists in expected.items() if not lists["eczcs"]]
        assert measure_zcz_width(fam) == max(passing, default=-1)


def test_one_set_sum_tally_per_family(monkeypatch):
    """Every set-sum check, the width scan, is_optimal, both tables and all four rho/rho-hat
    profiles read one cached tally per family object.  The kernel is watched at both entry
    points, so a per-pair tally through cross_tally would be counted too."""
    calls = []
    for name in ("cyclic_tally", "cross_tally"):
        kernel = getattr(correlation, name)
        monkeypatch.setattr(correlation, name, lambda *args, f=kernel, n=name: calls.append(n) or f(*args))
    checks = {"zccs": check_zccs, "szccs": check_szccs, "eczcs": check_eczcs}
    builders = (
        lambda: load_fixture_family("eczcs_2x2x24"),
        lambda: theorem3_construct(optimal_theorem3_params(4, 2, 1), 1, 8, (1, 2, 3, 0, 1)),
    )
    rng = random.Random(18)
    for build in builders:
        runs = []
        for fam in (build(), build()):  # the second is freshly built and equal to the first
            widths = list(range(fam.length + 1))
            rng.shuffle(widths)
            calls.clear()
            verdicts = {(kind, w): check(fam, w).to_json() for w in widths for kind, check in checks.items()}
            width = measure_zcz_width(fam)
            runs.append((verdicts, check_mocs(fam).to_json(), width, is_optimal(fam, width)))
            assert calls == ["cyclic_tally", "cross_tally"], fam.q
            pairs = [(m1, m2) for m1 in range(fam.num_sets) for m2 in range(fam.num_sets)]
            for reader in (set_corr_table, cross_channel_table, profile_set_corr, profile_cross_channel):
                for m1, m2 in pairs:
                    reader(fam, m1, m2)
            assert calls == ["cyclic_tally", "cross_tally"], fam.q
            cached = set_sum_tally(fam)
            phi = len(cyclotomic_poly(fam.q)) - 1
            assert cached.shape == (fam.num_sets, fam.num_sets, 3 * fam.length - 1, phi)
            assert cached is set_sum_tally(fam) and not cached.flags.writeable
            assert len(calls) == 2
        assert runs[0] == runs[1]
        assert runs[0][2] >= 1 and not all(v["passed"] for v in runs[0][0].values())
    first, second = load_fixture_family("eczcs_2x2x24"), load_fixture_family("eczcs_2x2x24")
    assert first == second and hash(first) == hash(second)
    assert set_sum_tally(first) is not set_sum_tally(second)


SET_SUM_KINDS = ("zccs", "szccs", "eczcs", "mocs", "ccc")


def _memo_families(table3, table4, table5, nonc2_zccs):
    """Random families at q in {2, 4, 6, 8, 12, 16} with M, N, L <= 4, the fixtures, and
    Theorem 2, Theorem 3 and Lemma 2 families."""
    rng = random.Random(2808)
    families = [table3, table4, table5, nonc2_zccs]
    for q in (2, 4, 6, 8, 12, 16):
        for _ in range(6):
            m, n, length = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            families.append(family_from_lists(q, [[[rng.randrange(q) for _ in range(length)]
                                                   for _ in range(n)] for _ in range(m)]))
    families += [entry.family for entry in seed_catalog()[:2]]
    families += [theorem2_construct(entry.family, entry.params[3]) for entry in seed_catalog()[:2]]
    families.append(theorem3_construct(PartitionSpec(5, ((4, 1, 2), (5, 3))), 1, 2))
    families.append(theorem3_construct(optimal_theorem3_params(4, 2, 1), 1, 8, (1, 2, 3, 0, 1)))
    families.append(lemma2_ccc(PartitionSpec(3, ((2,), (3, 1))), 4))
    return families


def test_memoised_set_sum_checks_match_the_per_call_reference(table3, table4, table5, nonc2_zccs):
    """Every set-sum check equals the per-call window read at every width, asked in
    ascending, descending and shuffled order, each order on a fresh family object."""
    rng = random.Random(28)
    for fam in _memo_families(table3, table4, table5, nonc2_zccs):
        widths = list(range(fam.length + 1))
        want = {(kind, w): set_sum_check_per_call(kind, fam, w).to_json()
                for w in widths for kind in SET_SUM_KINDS}
        for order in (widths, widths[::-1], rng.sample(widths, len(widths))):
            fresh = Family.from_array(fam.q, fam.array())
            for w in order:
                for kind in SET_SUM_KINDS:
                    assert check_kind(kind, fresh, w).to_json() == want[kind, w], (fam.q, fam.length, kind, w)


def _is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(item in rest for item in short)


def test_violations_nest_in_the_width(table4, table5):
    """The violations of each zone check at width w are a subsequence of those at w + 1, and
    check_eczcs passes exactly up to the measured width."""
    rng = random.Random(11)
    families = [table4, table5]
    for q in (2, 4, 6, 8):
        for _ in range(8):
            m, n, length = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 6)
            families.append(family_from_lists(q, [[[rng.randrange(q) for _ in range(length)]
                                                   for _ in range(n)] for _ in range(m)]))
    code = lemma2_ccc(PartitionSpec(3, ((2,), (3, 1))), 2)
    families += [theorem2_construct(code, code.length), theorem2_construct(load_fixture_family("zccs_2x2x12"), 10)]
    for q in (2, 4):
        families.append(theorem3_construct(PartitionSpec(5, ((4, 1, 2), (5, 3))), 1, q))
        families.append(theorem3_construct(optimal_theorem3_params(4, 2, 1), 1, q, (1, 2, 3, 0, 1)))
    for fam in families:
        width = measure_zcz_width(fam)
        for check in (check_zccs, check_szccs, check_eczcs):
            verdicts = [check(fam, w).violations for w in range(fam.length + 1)]
            assert all(_is_subsequence(a, b) for a, b in zip(verdicts, verdicts[1:])), (fam.q, check)
        assert [check_eczcs(fam, w).passed for w in range(fam.length + 1)] == [
            w <= width for w in range(fam.length + 1)], (fam.q, fam.length, width)
    assert any(measure_zcz_width(fam) >= fam.length // 2 for fam in families)


def _counted_violations(monkeypatch) -> Counter:
    built, real = Counter(), verify.Violation
    monkeypatch.setattr(verify, "Violation", lambda *args: built.update([args[:3]]) or real(*args))
    return built


def test_width_scan_builds_each_record_once(monkeypatch):
    """A full width scan and optimality test build each record once, and only those in the
    widest window asked (width L): later checks at any width read them back."""
    fam = load_fixture_family("eczcs_2x2x24")
    want = check_eczcs(Family.from_array(fam.q, fam.array()), fam.length).violations
    built = _counted_violations(monkeypatch)
    width, bound = measure_zcz_width(fam), eczcs_bound(2, 2, 24, 2)
    assert (width, bound) == (9, 12)
    assert not is_optimal(fam, width) and not is_optimal(fam, bound)  # the bound's check fails
    assert max(built.values()) == 1
    assert set(built) == {v[:3] for v in want} and len(built) == len(want) > 0
    before = sum(built.values())
    for w in range(fam.length + 1):
        check_eczcs(fam, w)
    assert sum(built.values()) == before


def test_theorem3_width_check_builds_no_rotated_record(monkeypatch):
    """At the guaranteed width of a Theorem 3 family check_eczcs builds no rho-hat record."""
    spec = PartitionSpec(5, ((4, 1, 2), (5, 3)))
    fam = theorem3_construct(spec, 1, 2)
    width = theorem3_zcz_width(spec)
    built = _counted_violations(monkeypatch)
    assert check_szccs(fam, fam.length).violations  # the rho hits are there to build
    built.clear()
    assert check_eczcs(fam, width).passed
    assert not any(check == "cross-channel" for check, _, _ in built)
    assert not check_eczcs(fam, fam.length).passed
    assert any(check == "cross-channel" for check, _, _ in built)


def test_is_optimal_is_false_outside_the_length():
    """A bound above L (8 for an all-zero (1, 4, 4) binary family) or a negative width is
    never optimal: no zone is wider than L."""
    fam = Family.from_array(2, np.zeros((1, 4, 4), dtype=np.int64))
    assert eczcs_bound(1, 4, 4, 2) == 8
    assert [is_optimal(fam, w) for w in (8, 9, -1)] == [False, False, False]
