import itertools
import random

import pytest

from eczcs import (
    GBF,
    PartitionSpec,
    build_theorem3_f,
    check_ccc,
    check_eczcs,
    check_mocs,
    format_family_text,
    is_optimal,
    lemma2_ccc,
    optimal_theorem3_params,
    theorem3_construct,
    theorem3_zcz_width,
)

from reference import gbf_evaluate


def test_quadratic_quaternary_sequence():
    f = GBF(4, 4, (((2,), 2), ((1, 2), 1)))  # 2*x2 + x1*x2
    values = tuple(gbf_evaluate(f, i) for i in range(16))
    assert values == (0, 0, 2, 3) * 4
    assert f.sequence().phases == values


def test_constant_function():
    f = GBF(3, 2, (((), 1),))
    assert f.sequence().phases == (1,) * 8


def test_lsb_ordering():
    f = GBF(2, 2, (((1,), 1),))  # x1
    assert f.sequence().phases == (0, 1, 0, 1)


def test_bit_order_regression_period_two():
    # the x1 sequence must alternate with period 2 for any m
    for m in (3, 4, 5):
        seq = GBF(m, 2, (((1,), 1),)).sequence().phases
        assert seq == (0, 1) * (2 ** (m - 1))


def test_gbf_canonicalization_and_validation():
    f = GBF(2, 4, (((1, 2), 3), ((2, 1), 1), ((), 0)))
    assert f.terms == (((1, 2), 0),) or f.terms == ()  # 3 + 1 = 0 mod 4
    with pytest.raises(ValueError):
        GBF(2, 4, (((1, 1), 1),))
    with pytest.raises(ValueError):
        GBF(2, 4, (((3,), 1),))
    with pytest.raises(ValueError):
        gbf_evaluate(GBF(2, 2, ()), 4)


def test_sequence_matches_pointwise_evaluation():
    rng = random.Random(11)
    for _ in range(200):
        m, q = rng.randint(1, 8), rng.choice((2, 4, 6, 8, 6 * 10**18, 2**64 + 2))
        terms = tuple(
            (tuple(rng.sample(range(1, m + 1), rng.randint(0, min(3, m)))), rng.randrange(q))
            for _ in range(rng.randint(0, 6))
        )
        f = GBF(m, q, terms)
        assert f.sequence().phases == tuple(gbf_evaluate(f, i) for i in range(2**m))


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionSpec(3, ((1, 2),))  # misses 3
    with pytest.raises(ValueError):
        PartitionSpec(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        PartitionSpec(3, ((1, 2, 3), ()))  # empty part


def test_chain_function_for_example_partition():
    spec = PartitionSpec(5, ((4, 1, 2), (5, 3)))
    f = build_theorem3_f(spec, q=2)
    assert set(f.terms) == {((1, 4), 1), ((1, 2), 1), ((3, 5), 1)}


def test_chain_function_degenerate_partitions():
    all_singletons = PartitionSpec(3, ((1,), (2,), (3,)))
    f = build_theorem3_f(all_singletons, q=2)
    assert f.terms == ()  # no quadratic part at all
    pair = PartitionSpec(2, ((1, 2),))
    g = build_theorem3_f(pair, q=4, eta=(1, 0, 3))
    assert set(g.terms) == {((1, 2), 2), ((2,), 3), ((), 1)}


def test_eta_length_checked():
    with pytest.raises(ValueError):
        build_theorem3_f(PartitionSpec(2, ((1, 2),)), q=2, eta=(0, 0))


def test_construction_reproduces_length32_table(table5):
    spec = PartitionSpec(5, ((4, 1, 2), (5, 3)))
    fam = theorem3_construct(spec, v=1, q=2, eta=(0, 0, 1, 0, 0, 1))
    assert format_family_text(fam) == format_family_text(table5)
    assert theorem3_zcz_width(spec) == 8


def test_construction_zone_holds_for_any_eta():
    spec = PartitionSpec(5, ((4, 1, 2), (5, 3)))
    rng = random.Random(9)
    for _ in range(3):
        eta = tuple(rng.randint(0, 1) for _ in range(6))
        fam = theorem3_construct(spec, v=1, q=2, eta=eta)
        assert check_eczcs(fam, 8).passed


def test_v_equals_k_yields_mutual_orthogonality():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    fam = theorem3_construct(spec, v=2, q=2)
    assert check_mocs(fam).passed


def test_small_direct_construction():
    spec = PartitionSpec(3, ((1, 2, 3),))
    fam = theorem3_construct(spec, v=1, q=2)
    assert (fam.num_sets, fam.set_size, fam.length) == (2, 2, 8)
    assert check_eczcs(fam, theorem3_zcz_width(spec)).passed
    assert theorem3_zcz_width(spec) == 1


def test_single_member_sets_rejected():
    spec = PartitionSpec(3, ((3, 1, 2),))
    with pytest.raises(ValueError):
        theorem3_construct(spec, v=0, q=2)


def test_chain_head_constraint_enforced():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))  # part 2 must start at x4 when v=1
    with pytest.raises(ValueError):
        theorem3_construct(spec, v=1, q=2)
    ok = PartitionSpec(4, ((1, 2, 3), (4,)))
    fam = theorem3_construct(ok, v=1, q=2)
    assert check_eczcs(fam, theorem3_zcz_width(ok)).passed


def test_complete_code_constructions():
    small = lemma2_ccc(PartitionSpec(2, ((1, 2),)), q=2)
    assert (small.num_sets, small.set_size, small.length) == (2, 2, 4)
    assert check_ccc(small).passed
    rng = random.Random(10)
    perm = list(range(1, 5))
    rng.shuffle(perm)
    two_chain = lemma2_ccc(PartitionSpec(4, (tuple(perm[:2]), tuple(perm[2:]))), q=2)
    assert (two_chain.num_sets, two_chain.length) == (4, 16)
    assert check_ccc(two_chain).passed


def test_constant_offset_leaves_complete_code_verdict():
    spec = PartitionSpec(3, ((2, 1, 3),))
    plain = lemma2_ccc(spec, q=4)
    shifted = lemma2_ccc(spec, q=4, eta=(3, 0, 0, 0))
    assert check_ccc(plain).passed == check_ccc(shifted).passed is True


def test_optimal_parameter_helper():
    spec = optimal_theorem3_params(5, 2, 1)
    assert spec.parts[0][0] == 4
    fam = theorem3_construct(spec, v=1, q=2)
    assert is_optimal(fam, theorem3_zcz_width(spec))

    spec41 = optimal_theorem3_params(4, 1, 1)
    assert spec41.parts[0][0] == 4
    assert theorem3_zcz_width(spec41) == 8  # meets N*L/(2M) = 2*16/4

    with pytest.raises(ValueError):
        optimal_theorem3_params(2, 3, 1)


def test_quaternary_construction_verifies():
    spec = PartitionSpec(4, ((3, 1, 2), (4,)))
    fam = theorem3_construct(spec, v=1, q=4, eta=(1, 2, 0, 3, 1))
    assert fam.q == 4
    assert check_eczcs(fam, theorem3_zcz_width(spec)).passed


def _ordered_partitions(m):
    """Every ordered partition of 1..m with an ordering inside each part."""
    for perm in itertools.permutations(range(1, m + 1)):
        for cuts in itertools.product((False, True), repeat=m - 1):
            parts, start = [], 0
            for i, cut in enumerate(cuts, start=1):
                if cut:
                    parts.append(perm[start:i])
                    start = i
            parts.append(perm[start:])
            yield PartitionSpec(m, tuple(parts))


def _reference_sequence(f, heads, tails):
    half = f.q // 2
    extra = tuple(((x,), half) for x in heads + tails)
    return GBF(f.m, f.q, f.terms + extra).sequence()


def _bits(n, count):
    return [(n >> j) & 1 for j in range(count)]


def test_constructions_match_per_member_reference():
    rng = random.Random(12)
    for m in range(1, 5):
        for spec in _ordered_partitions(m):
            k = spec.k
            heads = [part[0] for part in spec.parts]
            tails = [part[-1] for part in spec.parts]
            for q in (2, 4, 8, 2**64 + 2):
                eta = tuple(rng.randrange(q) for _ in range(m + 1))
                f = build_theorem3_f(spec, q, eta)
                for v in range(1, k + 1):
                    if v < k and [p[0] for p in spec.parts[v:]] != list(range(m, m - k + v, -1)):
                        with pytest.raises(ValueError):
                            theorem3_construct(spec, v, q, eta)
                        continue
                    expect = [
                        [
                            # member n adds head alpha when bit n_{v-alpha+1} is set
                            _reference_sequence(
                                f,
                                tuple(heads[a - 1] for a in range(1, v + 1) if (n >> (v - a)) & 1),
                                tuple(t for t, b in zip(tails, _bits(p, k)) if b),
                            )
                            for n in range(2**v)
                        ]
                        for p in range(2**k)
                    ]
                    fam = theorem3_construct(spec, v, q, eta)
                    assert [list(st.members) for st in fam.sets] == expect
                expect = [
                    [
                        _reference_sequence(
                            f,
                            tuple(h for h, b in zip(heads, _bits(kappa, k)) if b),
                            tuple(t for t, b in zip(tails, _bits(nu, k)) if b),
                        )
                        for kappa in range(2**k)
                    ]
                    for nu in range(2**k)
                ]
                fam = lemma2_ccc(spec, q, eta)
                assert [list(st.members) for st in fam.sets] == expect
