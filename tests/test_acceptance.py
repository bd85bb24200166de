"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; budgets are asserted against wall-clock time.
"""

import random
import time
from itertools import permutations

import numpy as np

from eczcs import (
    GSMConfig,
    PartitionSpec,
    PhaseSequence,
    SimConfig,
    baseline_random_binary,
    build_ls_model_matrix,
    build_training_matrix,
    check_ccc,
    check_design_criterion,
    check_eczcs,
    check_mocs,
    check_szccs,
    check_zccs,
    check_zcz_set,
    eczcs_bound,
    flatten_to_zcz,
    format_family_text,
    is_optimal,
    lemma2_ccc,
    monte_carlo_mse,
    pccf,
    theorem2_construct,
    theorem3_construct,
    theorem3_zcz_width,
)
from eczcs.construct import catalog_entry
from eczcs.cyclotomic import CycloInt

from conftest import RHO_T4_00, RHOHAT_T4_01, RHO_T5_02, RHOHAT_T5_LIST
from reference import pccf_via_accf


def _report(cid: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_1_exact_table_reproduction(table4, table5):
    start = time.perf_counter()
    seed = catalog_entry("zccs-2-2-12-10")
    doubled = theorem2_construct(seed.family, seed.params[3])
    ok_24 = format_family_text(doubled) == format_family_text(table4)

    spec = PartitionSpec(5, ((4, 1, 2), (5, 3)))
    direct = theorem3_construct(spec, v=1, q=2, eta=(0, 0, 1, 0, 0, 1))
    ok_32 = format_family_text(direct) == format_family_text(table5)
    elapsed = time.perf_counter() - start
    _report(
        "1 (table reproduction)",
        ok_24 and ok_32 and elapsed < 1.0,
        f"byte-identical={ok_24 and ok_32}, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_correlation_list_reproduction(table4, table5):
    from eczcs import cross_channel_table, set_corr_table
    from eczcs.cyclotomic import magnitudes as row_magnitudes

    def magnitudes(table, length):  # shifts 0..L-1 of a binary table over -(L-1)..(L-1)
        return tuple(int(m) for m in row_magnitudes(2, table[length - 1:]).tolist())

    start = time.perf_counter()
    rho4 = magnitudes(set_corr_table(table4, 0, 0), 24)
    hat4 = magnitudes(cross_channel_table(table4, 0, 1), 24)
    rho5 = magnitudes(set_corr_table(table5, 0, 2), 32)
    hat5 = magnitudes(cross_channel_table(table5, 0, 3), 32)
    checks = {
        "rho4": rho4 == RHO_T4_00 and rho4[0] == 48 and rho4[10] == 8,
        "hat4": hat4 == RHOHAT_T4_01,
        "rho5": rho5 == RHO_T5_02 and rho5[16] == 32,
        "hat5": hat5 == RHOHAT_T5_LIST and hat5[15] == 20,
    }
    elapsed = time.perf_counter() - start
    _report(
        "2 (correlation lists)",
        all(checks.values()) and elapsed < 1.0,
        f"{checks}, {elapsed:.2f}s < 1s",
    )


def test_criterion_3_classifier_correctness(table3, table4, table5):
    ok = (
        check_eczcs(table4, 9).passed
        and not check_eczcs(table4, 10).passed
        and check_eczcs(table5, 8).passed
        and is_optimal(table5, 8)
        and eczcs_bound(4, 2, 32, 2) == 8
        and check_zccs(table3, 10).passed
    )
    _report("3 (classifiers)", ok)


def _exhaustive_specs(m):
    """Every ordered partition of 1..m with internal orders, with each
    admissible member count 2^v attached."""
    for perm in permutations(range(1, m + 1)):
        for cut_bits in range(1 << (m - 1)):
            cuts = [i + 1 for i in range(m - 1) if (cut_bits >> i) & 1]
            bounds = [0, *cuts, m]
            parts = tuple(tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:]))
            k = len(parts)
            for v in range(1, k + 1):
                if all(parts[v + g - 1][0] == m - g + 1 for g in range(1, k - v + 1)):
                    yield PartitionSpec(m, parts), v


def _sampled_spec(rng, m):
    k = rng.randint(1, 3)
    v = rng.randint(1, k)
    heads = [m - g + 1 for g in range(1, k - v + 1)]  # pinned heads of parts v+1..k
    rest = [x for x in range(1, m + 1) if x not in heads]
    rng.shuffle(rest)
    parts = [[rest.pop()] for _ in range(v)]
    parts += [[head] for head in heads]
    while rest:
        parts[rng.randrange(k)].append(rest.pop())
    return PartitionSpec(m, tuple(tuple(p) for p in parts)), v


def test_criterion_4_executable_theorems(table4, table5):
    start = time.perf_counter()
    verified: list[tuple] = []  # (family, zone width)

    # 4a: the direct construction, exhaustively for m <= 4 and sampled above
    count_a = 0
    ok_a = True
    for m in (1, 2, 3, 4):
        for spec, v in _exhaustive_specs(m):
            width = theorem3_zcz_width(spec)
            for q in (2, 4):
                fam = theorem3_construct(spec, v, q)
                good = check_eczcs(fam, width).passed
                ok_a = ok_a and good
                count_a += 1
                verified.append((fam, width))
    rng = random.Random(2024)
    for _ in range(100):
        m = rng.choice([5, 6])
        spec, v = _sampled_spec(rng, m)
        q = rng.choice([2, 4])
        eta = tuple(rng.randrange(q) for _ in range(m + 1))
        fam = theorem3_construct(spec, v, q, eta)
        width = theorem3_zcz_width(spec)
        ok_a = ok_a and check_eczcs(fam, width).passed
        count_a += 1
        verified.append((fam, width))

    # 4b: complete codes from chained functions, m <= 4, k <= 2
    ok_b = True
    count_b = 0
    for m in (1, 2, 3, 4):
        for perm in permutations(range(1, m + 1)):
            for k in (1, 2):
                if k > m:
                    continue
                for cut in range(1, m) if k == 2 else (m,):
                    parts = (tuple(perm[:cut]), tuple(perm[cut:])) if k == 2 else (tuple(perm),)
                    for q in (2, 4):
                        fam = lemma2_ccc(PartitionSpec(m, parts), q)
                        ok_b = ok_b and check_ccc(fam).passed
                        count_b += 1

    # fixtures join the verified pool
    verified.append((table4, 9))
    verified.append((table5, 8))

    # 4c: flattening gives a periodic zero-zone set, and the width bound holds
    ok_c = True
    for fam, width in verified:
        ok_c = ok_c and check_zcz_set(flatten_to_zcz(fam), width).passed
        ok_c = ok_c and width <= eczcs_bound(fam.num_sets, fam.set_size, fam.length, fam.q)

    # 4d: hierarchy and the wide-zone consequence
    ok_d = True
    for fam, width in verified:
        ok_d = ok_d and check_szccs(fam, width).passed
        ok_d = ok_d and check_zccs(fam, min(width + 1, fam.length)).passed
        if 2 * width >= fam.length:
            ok_d = ok_d and check_mocs(fam).passed

    elapsed = time.perf_counter() - start
    _report(
        "4 (executable theorems)",
        ok_a and ok_b and ok_c and ok_d and elapsed < 120.0,
        f"direct={ok_a}({count_a} specs) complete={ok_b}({count_b}) "
        f"flatten/bound={ok_c} hierarchy={ok_d}, {elapsed:.1f}s < 120s",
    )


def test_criterion_5_training_framework(table4, table5):
    start = time.perf_counter()
    ok_layout = True
    ok_sweep = True
    ok_normal = True
    cases = [(table4, GSMConfig(4, 2), 9), (table5, GSMConfig(4, 2), 8), (table5, GSMConfig(8, 3), 8)]
    for fam, cfg, width in cases:
        tm = build_training_matrix(fam, cfg)
        # layout: row k carries set (k mod Na) offset by (k div Na)*L in each sub-block
        length, v_count = fam.length, cfg.group_count
        for k in range(cfg.transmit_antennas):
            group, set_index = divmod(k, cfg.active_antennas)
            expected: list = []
            for n in range(fam.set_size):
                block: list = [None] * (v_count * length)
                block[group * length : (group + 1) * length] = fam.sets[set_index].members[n].phases
                expected.extend(block)
            ok_layout = ok_layout and tm.rows[k] == tuple(expected)
        for spread in range(width + 1):
            ok_sweep = ok_sweep and check_design_criterion(tm, spread).passed
        bad = check_design_criterion(tm, width + 1)
        ok_sweep = ok_sweep and not bad.passed
        if fam is table4:
            ok_sweep = ok_sweep and any(
                v.check == "isi" and v.shift == 10 and v.magnitude == 8.0 for v in bad.violations
            )
        X = build_ls_model_matrix(tm, width)
        eye = tm.energy * np.eye(X.shape[1], dtype=complex)
        ok_normal = ok_normal and np.array_equal(X.conj().T @ X, eye)
    elapsed = time.perf_counter() - start
    _report(
        "5 (training framework)",
        ok_layout and ok_sweep and ok_normal and elapsed < 10.0,
        f"layout={ok_layout} sweep={ok_sweep} normal={ok_normal}, {elapsed:.1f}s < 10s",
    )


EBN0_GRID = (4.0, 8.0, 12.0, 16.0)
TRIALS = 10_000


def test_criterion_6i_empirical_matches_analytic(table4):
    start = time.perf_counter()
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    cfg = SimConfig(ebn0_db=EBN0_GRID, delay_spreads=(9,), trials=TRIALS, seed=616, matrix_id="enhanced")
    report = monte_carlo_mse(tm, cfg)
    worst = max(
        abs(p.empirical_mse - p.floor) / p.floor for p in report.points
    )
    elapsed = time.perf_counter() - start
    _report(
        "6i (empirical vs floor)",
        worst < 0.03 and elapsed < 100.0,
        f"worst relative deviation {worst:.4f} < 0.03, {elapsed:.1f}s",
    )


def test_criterion_6ii_delay_sweep(table4):
    start = time.perf_counter()
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    cfg = SimConfig(
        ebn0_db=(16.0,), delay_spreads=tuple(range(1, 13)), trials=TRIALS, seed=626, matrix_id="enhanced"
    )
    report = monte_carlo_mse(tm, cfg)
    ratios = {p.delay_spread: p.empirical_mse / p.floor for p in report.points}
    flat = all(abs(ratios[lam] - 1.0) <= 0.05 for lam in range(1, 10))
    # stated target for the out-of-zone point; the measured excess is ~1%
    # because the only out-of-zone correlation magnitude is 8 against a row
    # energy of 48 (see the repository notes for the full analysis)
    exceeds = ratios[11] >= 1.25
    elapsed = time.perf_counter() - start
    _report(
        "6ii (delay sweep)",
        flat and exceeds and elapsed < 100.0,
        f"flat(1..9)={flat}, ratio@11={ratios[11]:.4f} (needs >= 1.25), {elapsed:.1f}s",
    )


def test_criterion_6iii_baseline_ordering(table4, nonc2_zccs):
    start = time.perf_counter()
    cfg42 = GSMConfig(4, 2)
    enhanced = build_training_matrix(table4, cfg42)
    plain = build_training_matrix(nonc2_zccs, cfg42, source="nonc2-zccs")
    rng = np.random.default_rng(63)
    rnd = baseline_random_binary(cfg42, 2, 24, rng)
    sim = SimConfig(ebn0_db=EBN0_GRID, delay_spreads=(9,), trials=TRIALS, seed=636)
    curves = {
        name: [p.empirical_mse for p in monte_carlo_mse(tm, sim).points]
        for name, tm in (("enhanced", enhanced), ("zccs", plain), ("random", rnd))
    }
    ok = all(
        curves["enhanced"][i] < curves["zccs"][i] and curves["enhanced"][i] < curves["random"][i]
        for i in range(len(EBN0_GRID))
    )
    elapsed = time.perf_counter() - start
    _report(
        "6iii (baseline ordering)",
        ok and elapsed < 100.0,
        f"enhanced below both baselines at every grid point={ok}, {elapsed:.1f}s",
    )


def test_criterion_7_exactness_cross_checks():
    start = time.perf_counter()
    rng = random.Random(77)
    ok_zero = True
    for _ in range(100_000):
        q = rng.choice([2, 4, 6, 8, 10, 12])
        counts = tuple(rng.randint(-100, 100) for _ in range(q))
        value = CycloInt(q, counts)
        if value.is_zero() != (abs(value.to_complex()) < 1e-9):
            ok_zero = False
            break
    ok_pccf = True
    for _ in range(1000):
        q = rng.choice([2, 4, 6])
        length = rng.randint(1, 16)
        s0 = PhaseSequence(q, tuple(rng.randrange(q) for _ in range(length)))
        s1 = PhaseSequence(q, tuple(rng.randrange(q) for _ in range(length)))
        u = rng.randint(-(length - 1), length - 1)
        if pccf_via_accf(s0, s1, u) != pccf(s0, s1, u):
            ok_pccf = False
            break
    elapsed = time.perf_counter() - start
    _report(
        "7 (exactness cross-checks)",
        ok_zero and ok_pccf and elapsed < 30.0,
        f"zero-test={ok_zero} periodic-identity={ok_pccf}, {elapsed:.1f}s < 30s",
    )
