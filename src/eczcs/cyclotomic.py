"""Exact arithmetic with integer combinations of roots of unity.

A correlation value over a q-ary phase alphabet is a sum of q-th roots of
unity with integer multiplicities.  Such a sum is zero exactly when the
polynomial holding the multiplicities is divisible by the q-th cyclotomic
polynomial, so dividing out that polynomial once gives a canonical form in
which equality and the zero test are plain integer comparisons.  No float
tolerance is involved anywhere in this module except the optional complex
evaluation used for reporting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _is_int(x) -> bool:
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def as_ints(values, noun: str) -> tuple[int, ...]:
    """values as Python ints, naming the first x without int(x) == x (numpy ints and True pass)."""
    given = tuple(values)
    try:
        ints = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != given:
        bad = next(g for g in given if not _is_int(g))
        raise ValueError(f"{noun} {bad if isinstance(bad, (float, np.number)) else repr(bad)} is not an integer")
    return ints


def _poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (coefficients low to high), den monic."""
    rem = list(num)
    dn = len(den) - 1
    quot = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                rem[i - dn + j] -= c * den[j]
    return quot, rem[:dn]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all
    proper divisors of n; every divisor is monic, so the division is exact
    over the integers.
    """
    (n,) = as_ints((n,), "cyclotomic index")
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(d))
            if any(rem):
                raise ArithmeticError("polynomial division is not exact")
    return tuple(poly)


def _reduce_counts(q: int, counts) -> tuple[int, ...]:
    """Canonical form: remainder modulo cyclotomic_poly(q), padded to length q."""
    rem = _poly_divmod(counts, cyclotomic_poly(q))[1]
    return tuple(rem) + (0,) * (q - len(rem))


@lru_cache(maxsize=None)
def reduction_matrix(q: int):
    """Integer R with counts @ R the canonical form: row k is x^k mod cyclotomic_poly(q).

    Reduction is linear, so stacked count vectors are reduced in one multiply.
    """
    matrix = np.array([_reduce_counts(q, e) for e in np.eye(q, dtype=int).tolist()], dtype=np.int64)
    matrix.setflags(write=False)
    return matrix


def reduce_tally(q: int, counts) -> np.ndarray:
    """Stacked count vectors (last axis q) in canonical form, cut to the phi(q) columns one can
    fill: ``counts @ reduction_matrix(q)[:, :phi]``.  For q = 2^k >= 2, Phi_q = x^(q/2) + 1, so
    x^(q/2 + j) = -x^j and the product is the exact fold of the upper half onto the lower."""
    if q & (q - 1) == 0:
        return counts[..., : q // 2] - counts[..., q // 2 :]
    return counts @ reduction_matrix(q)[:, : len(cyclotomic_poly(q)) - 1]


@lru_cache(maxsize=None)
def root_table(q: int):
    """The q roots of unity as exact-as-possible complex values.

    Entries lying on the real or imaginary axis are snapped to exact
    +-1 / +-1j, which keeps binary and quaternary correlation arithmetic
    integral in floating point.
    """
    table = np.empty(q, dtype=np.complex128)
    axis = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)
    for k in range(q):
        if (4 * k) % q == 0:
            table[k] = axis[(4 * k // q) % 4]
        else:
            table[k] = cmath.exp(2j * cmath.pi * k / q)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class CycloInt:
    """An exact integer combination of q-th roots of unity.

    ``counts[j]`` is the signed multiplicity of the j-th root; the vector
    is stored in canonical reduced form, so structural equality is value
    equality and ``is_zero`` never consults a tolerance.
    """

    q: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        (q,) = as_ints((self.q,), "root order")
        if q < 1:
            raise ValueError("root order must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "counts", _reduce_counts(q, as_ints(self.counts, "count")))

    def is_zero(self) -> bool:
        return not any(self.counts)

    def to_complex(self) -> complex:
        table = root_table(self.q)
        return complex(sum(c * table[j] for j, c in enumerate(self.counts) if c))

    def magnitude(self) -> float:
        return float(magnitudes(self.q, self.counts))


def magnitudes(q: int, reduced):
    """|value| of every canonical count vector along the last axis, which may stop after the
    phi(q) entries a canonical form can fill: the one magnitude path of the package.

    For q in {2, 4} the square root of the exact integer re^2 + im^2,
    squared in int64 while every |count| < 2^31 (the sum then stays below
    2^63) and in Python ints otherwise; for other q the complex value
    summed over ascending roots as in ``CycloInt.to_complex``, then
    sqrt(hypot(re, im) ** 2) in Python floats (numpy's complex ``abs`` and
    ``power`` may round differently).  The tests pin it bit for bit against
    a scalar reference.
    """
    reduced = np.asarray(reduced, dtype=np.int64)
    if q in (2, 4):
        parts = reduced[..., :2]
        if np.abs(parts).view(np.uint64).max(initial=0) >= 2**31:  # abs(-2^63) wraps to 2^63
            exact = [math.sqrt(re * re + im * im) for re, im in parts.reshape(-1, 2).tolist()]
            return np.array(exact).reshape(parts.shape[:-1])
        return np.sqrt((parts**2).sum(axis=-1))
    table = root_table(q)[: reduced.shape[-1]]  # add.accumulate sums in order, unlike np.sum
    re = np.add.accumulate(reduced * table.real, axis=-1)[..., -1]
    im = np.add.accumulate(reduced * table.imag, axis=-1)[..., -1]
    hyp = np.hypot(re, im)
    return np.array([math.sqrt(h**2) for h in hyp.ravel().tolist()]).reshape(hyp.shape)
