import math
import random
import re

import pytest

import numpy as np

from eczcs import correlation
from eczcs.correlation import cyclic_tally
from eczcs.cyclotomic import CycloInt, cyclotomic_poly, magnitudes, reduce_tally, reduction_matrix, root_table
from eczcs.simulate import SimConfig
from eczcs.training import GSMConfig

from reference import add, conjugate, integer, mag_sq, magnitude, neg, root, sub


def test_known_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    def totient(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 30):
        assert len(cyclotomic_poly(n)) - 1 == totient(n)


def test_reduction_matrix_rows_are_powers_mod_cyclotomic():
    """Row k is x^k mod Phi_q: degree below phi(q), and the same value xi^k."""
    for q in (2, 3, 4, 5, 6, 8, 12):
        matrix, deg = reduction_matrix(q), len(cyclotomic_poly(q)) - 1
        assert matrix.shape == (q, q) and not matrix[:, deg:].any()
        for k, row in enumerate(matrix.tolist()):
            value = sum(c * root_table(q)[j] for j, c in enumerate(row))
            assert abs(value - root_table(q)[k]) < 1e-12, (q, k)


def test_sum_of_all_roots_is_zero():
    for q in (2, 4, 6, 8, 10, 12):
        assert CycloInt(q, (1,) * q).is_zero()


def test_sixth_root_relation():
    # xi_6^2 = xi_6 - 1
    assert root(6, 2) == sub(root(6, 1), integer(6, 1))


def test_single_root_never_zero():
    for q in (2, 4, 6, 8):
        for j in range(q):
            assert not root(q, j).is_zero()


def test_arithmetic_matches_complex():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.choice([2, 4, 6, 8, 10])
        a = CycloInt(q, tuple(rng.randint(-5, 5) for _ in range(q)))
        b = CycloInt(q, tuple(rng.randint(-5, 5) for _ in range(q)))
        assert abs(add(a, b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
        assert abs(sub(a, b).to_complex() - (a.to_complex() - b.to_complex())) < 1e-9
        assert abs(conjugate(a).to_complex() - a.to_complex().conjugate()) < 1e-9
        assert abs(neg(a).to_complex() + a.to_complex()) < 1e-9


def test_zero_test_agrees_with_float_oracle():
    rng = random.Random(7)
    for _ in range(2000):
        q = rng.choice([2, 4, 6, 8, 10, 12])
        counts = tuple(rng.randint(-100, 100) for _ in range(q))
        value = CycloInt(q, counts)
        assert value.is_zero() == (abs(value.to_complex()) < 1e-9)


def test_mag_sq_exact_small_alphabets():
    assert mag_sq(CycloInt(2, (3, 5))) == 4  # 3 - 5 = -2
    assert mag_sq(CycloInt(4, (2, 1, 5, 4))) == (2 - 5) ** 2 + (1 - 4) ** 2
    assert isinstance(mag_sq(CycloInt(4, (1, 2, 3, 4))), int)
    assert integer(2, -7).magnitude() == 7.0
    # the canonical forms are xi_2 = -1 and xi_4^2 = -1, for count vectors of any length
    rng = random.Random(3)
    for _ in range(200):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(0, 13))]
        assert CycloInt(2, c).counts == (sum(c[0::2]) - sum(c[1::2]), 0)
        re, im = sum(c[0::4]) - sum(c[2::4]), sum(c[1::4]) - sum(c[3::4])
        assert CycloInt(4, c).counts == (re, im, 0, 0)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        add(integer(2, 1), integer(4, 1))


def test_non_integral_order_and_counts_rejected():
    """The root order, the cyclotomic index and every count must be integers, each named;
    integral floats, numpy ints and True read as ints."""
    for build, named in (
        (lambda: CycloInt(2, (1.5, 0)), "count 1.5"),
        (lambda: CycloInt(4, np.array([0.0, 2.5, 0.0, 0.0])), "count 2.5"),
        (lambda: CycloInt(2.5, (1, 0)), "root order 2.5"),
        (lambda: cyclotomic_poly(2.5), "cyclotomic index 2.5"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an integer$"):
            build()
    value = CycloInt(2.0, (np.int64(1), True, 0.0))
    assert value == CycloInt(2, (1, 1, 0)) and type(value.q) is int
    assert all(type(c) is int for c in value.counts)
    assert cyclotomic_poly(6.0) == cyclotomic_poly(np.int64(6)) == (1, -1, 1)



@pytest.mark.parametrize("value, shown", [("a", "'a'"), (None, "None"), ([3], "[3]"),
                                          (math.inf, "inf"), (math.nan, "nan")],
                         ids=("str", "None", "list", "inf", "nan"))
@pytest.mark.parametrize("build, noun", [
    (lambda value: SimConfig(ebn0_db=(1.0,), delay_spreads=(1,), trials=value, seed=1), "trial count"),
    (lambda value: SimConfig(ebn0_db=(1.0,), delay_spreads=(1,), trials=1, seed=value), "seed"),
    (lambda value: GSMConfig(value, 2), "transmit_antennas"),
], ids=("SimConfig.trials", "SimConfig.seed", "GSMConfig"))
def test_values_without_an_int_are_named(build, noun, value, shown):
    """A string, None, a list or a non-finite float is a ValueError naming the argument."""
    with pytest.raises(ValueError, match=rf"^{re.escape(noun)} {re.escape(shown)} is not an integer$"):
        build(value)


def test_root_table_axis_points_exact():
    for q in (2, 4, 8, 12):
        table = root_table(q)
        assert table[0] == 1 + 0j
        assert table[q // 2] == -1 + 0j
        if q % 4 == 0:
            assert table[q // 4] == 1j


def test_magnitudes_match_cyclo_int_bit_for_bit():
    """The vectorised magnitudes equal CycloInt.magnitude and the scalar reference magnitude
    exactly, for negative, zero and large counts."""
    rng = random.Random(41)
    for q in (*range(1, 13), 16, 64):
        vectors = [(0,) * q]
        for _ in range(300):
            scale = rng.choice((1, 3, 50, 10**6))
            raw = [rng.randint(-scale, scale) if rng.random() < 0.7 else 0 for _ in range(q)]
            vectors.append(CycloInt(q, tuple(raw)).counts)
        got = magnitudes(q, np.array(vectors)).tolist()
        assert got == [CycloInt(q, v).magnitude() for v in vectors]
        assert got == [magnitude(CycloInt(q, v)) for v in vectors], q


def test_magnitudes_of_counts_beyond_int64_squares():
    """Counts of 2^31 and more, -2^63 too, square exactly, not by wrapping int64 arithmetic."""
    assert CycloInt(2, (4_000_000_000, 0)).magnitude() == 4e9
    big = CycloInt(4, (3_100_000_000, 3_100_000_000, 0, 0))
    assert big.magnitude() == math.sqrt(2 * 3_100_000_000**2) == magnitude(big)
    assert math.isclose(big.magnitude(), 4384062043.356596, rel_tol=1e-15)
    # one large row sends the whole array down the exact path, the small rows unchanged
    rows = [(3, -4), (2**31, 0), (-(2**31), 2**31 - 1), (-(2**63), 0), (2**31 - 1, -(2**31 - 1)), (0, 0)]
    for q in (2, 4):
        vectors = [CycloInt(q, r + (0,) * (q - 2)).counts for r in rows]
        got = magnitudes(q, np.array(vectors)).tolist()
        assert got == [magnitude(CycloInt(q, v)) for v in vectors], q
        assert magnitudes(q, np.array(vectors[4:])).tolist() == got[4:]
        assert magnitudes(q, np.array(vectors[3:4])).tolist() == got[3:4]  # alone, still exact


@pytest.mark.parametrize("q", [2, 4, 6, 8, 12, 64])
def test_reduce_tally_folds_powers_of_two_exactly(q, monkeypatch):
    """reduce_tally equals the product with the reduction matrix's phi(q) columns on exact-path
    tallies, whose counts fill every column; for q = 2^k that is the fold of the upper half."""
    monkeypatch.setattr(correlation, "_MARGIN", 0.0)  # q in {2, 4} take the exact count too
    rng = np.random.default_rng(q)
    rows = rng.integers(0, q, (3, 40))
    counts = cyclic_tally(rows, rng.random((3, 40)) < 0.9, q, range(40))
    assert counts.any(axis=(0, 1, 2)).all()  # a count in every column
    phi = len(cyclotomic_poly(q)) - 1
    reduced = reduce_tally(q, counts)
    assert reduced.dtype == np.int64 and np.array_equal(reduced, counts @ reduction_matrix(q)[:, :phi])
    if q & (q - 1) == 0:
        assert np.array_equal(reduced, counts[..., : q // 2] - counts[..., q // 2 :])


def test_quaternary_fold_subtracts_the_upper_columns():
    """1 + j - 1 - j: columns 2 and 3 (-1 and -j) cancel columns 0 and 1, they are not dropped."""
    assert reduce_tally(4, np.array([1, 1, 1, 1])).tolist() == [0, 0]
    assert reduce_tally(4, np.array([[0, 0, 2, 1], [3, 0, 0, 5]])).tolist() == [[-2, -1], [3, -5]]
    assert reduce_tally(2, np.array([4, 7])).tolist() == [-3]
