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
        if self.q < 1:
            raise ValueError("root order must be positive")
        reduced = _reduce_counts(self.q, tuple(int(c) for c in self.counts))
        object.__setattr__(self, "counts", reduced)

    @staticmethod
    def zero(q: int) -> "CycloInt":
        return CycloInt(q, (0,) * q)

    @staticmethod
    def integer(q: int, value: int) -> "CycloInt":
        return CycloInt(q, (int(value),) + (0,) * (q - 1))

    @staticmethod
    def root(q: int, power: int = 1) -> "CycloInt":
        counts = [0] * q
        counts[power % q] = 1
        return CycloInt(q, tuple(counts))

    def is_zero(self) -> bool:
        return not any(self.counts)

    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.q, tuple(a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.q, tuple(a - b for a, b in zip(self.counts, other.counts)))

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.q, tuple(-a for a in self.counts))

    def conjugate(self) -> "CycloInt":
        flipped = [0] * self.q
        for j, c in enumerate(self.counts):
            flipped[(-j) % self.q] += c
        return CycloInt(self.q, tuple(flipped))

    def to_complex(self) -> complex:
        table = root_table(self.q)
        return complex(sum(c * table[j] for j, c in enumerate(self.counts) if c))

    def mag_sq(self):
        """Squared magnitude: an exact integer for q in {2, 4}, float otherwise."""
        if self.q in (2, 4):  # a canonical q = 2 vector is (c0, 0)
            return self.counts[0] ** 2 + self.counts[1] ** 2
        return abs(self.to_complex()) ** 2

    def magnitude(self) -> float:
        m = self.mag_sq()
        if isinstance(m, int):
            r = math.isqrt(m)
            if r * r == m:
                return float(r)
        return math.sqrt(m)

    def _check(self, other: "CycloInt") -> None:
        if self.q != other.q:
            raise ValueError(f"mixed root orders {self.q} and {other.q}")


def magnitudes(q: int, reduced):
    """CycloInt(q, v).magnitude() of every canonical count vector v along the last axis,
    which may stop after the phi(q) entries a canonical form can fill.

    Equal bit for bit, with the arithmetic of ``mag_sq`` and
    ``magnitude``: for q in {2, 4} the square root of the exact integer
    re^2 + im^2; otherwise the complex value summed over ascending roots
    as in ``to_complex``, then sqrt(hypot(re, im) ** 2) in Python floats
    (numpy's complex ``abs`` and ``power`` may round differently).
    """
    reduced = np.asarray(reduced, dtype=np.int64)
    if q in (2, 4):
        return np.sqrt((reduced[..., :2] ** 2).sum(axis=-1))
    table = root_table(q)
    re, im = np.zeros(reduced.shape[:-1]), np.zeros(reduced.shape[:-1])
    for j in range(reduced.shape[-1]):
        re += reduced[..., j] * table[j].real
        im += reduced[..., j] * table[j].imag
    hyp = np.hypot(re, im)
    return np.array([math.sqrt(h**2) for h in hyp.ravel().tolist()]).reshape(hyp.shape)
