import math
import random

import pytest

import numpy as np

from eczcs.cyclotomic import CycloInt, cyclotomic_poly, magnitudes, reduction_matrix, root_table


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
    assert CycloInt.root(6, 2) == CycloInt.root(6, 1) - CycloInt.integer(6, 1)


def test_single_root_never_zero():
    for q in (2, 4, 6, 8):
        for j in range(q):
            assert not CycloInt.root(q, j).is_zero()


def test_arithmetic_matches_complex():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.choice([2, 4, 6, 8, 10])
        a = CycloInt(q, tuple(rng.randint(-5, 5) for _ in range(q)))
        b = CycloInt(q, tuple(rng.randint(-5, 5) for _ in range(q)))
        assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
        assert abs((a - b).to_complex() - (a.to_complex() - b.to_complex())) < 1e-9
        assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9
        assert abs((-a).to_complex() + a.to_complex()) < 1e-9


def test_zero_test_agrees_with_float_oracle():
    rng = random.Random(7)
    for _ in range(2000):
        q = rng.choice([2, 4, 6, 8, 10, 12])
        counts = tuple(rng.randint(-100, 100) for _ in range(q))
        value = CycloInt(q, counts)
        assert value.is_zero() == (abs(value.to_complex()) < 1e-9)


def test_mag_sq_exact_small_alphabets():
    assert CycloInt(2, (3, 5)).mag_sq() == 4  # 3 - 5 = -2
    assert CycloInt(4, (2, 1, 5, 4)).mag_sq() == (2 - 5) ** 2 + (1 - 4) ** 2
    assert isinstance(CycloInt(4, (1, 2, 3, 4)).mag_sq(), int)
    assert CycloInt.integer(2, -7).magnitude() == 7.0
    # the canonical forms are xi_2 = -1 and xi_4^2 = -1, for count vectors of any length
    rng = random.Random(3)
    for _ in range(200):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(0, 13))]
        assert CycloInt(2, c).counts == (sum(c[0::2]) - sum(c[1::2]), 0)
        re, im = sum(c[0::4]) - sum(c[2::4]), sum(c[1::4]) - sum(c[3::4])
        assert CycloInt(4, c).counts == (re, im, 0, 0)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycloInt.integer(2, 1) + CycloInt.integer(4, 1)


def test_root_table_axis_points_exact():
    for q in (2, 4, 8, 12):
        table = root_table(q)
        assert table[0] == 1 + 0j
        assert table[q // 2] == -1 + 0j
        if q % 4 == 0:
            assert table[q // 4] == 1j


def test_magnitudes_match_cyclo_int_bit_for_bit():
    """The vectorised magnitudes equal CycloInt.magnitude exactly, for negative, zero and large counts."""
    rng = random.Random(41)
    for q in (1, 2, 3, 4, 5, 6, 8, 12, 64):
        vectors = [(0,) * q]
        for _ in range(300):
            scale = rng.choice((1, 3, 50, 10**6))
            raw = [rng.randint(-scale, scale) if rng.random() < 0.7 else 0 for _ in range(q)]
            vectors.append(CycloInt(q, tuple(raw)).counts)
        got = magnitudes(q, np.array(vectors)).tolist()
        assert got == [CycloInt(q, v).magnitude() for v in vectors]
