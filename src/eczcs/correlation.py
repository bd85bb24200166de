"""Exact aperiodic and periodic correlation functions and set-level sums.

Every function returns a :class:`~eczcs.cyclotomic.CycloInt`, so zero tests
are exact.  All of them read one kernel, the cyclic tally
:func:`cyclic_tally`: binary and quaternary values come from one
``numpy.correlate`` of exact unit values (sums of Gaussian integers stay
integral in double precision), other alphabets from an integer
phase-difference count.  The aperiodic set sums rho and rho-hat come as
tables over every shift, cyclic tallies of :func:`set_rows`, where every
member is followed by silent entries.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycloInt, root_table
from .sequences import Family, PhaseSequence, SequenceSet


def _check_pair(s0: PhaseSequence, s1: PhaseSequence) -> None:
    if s0.q != s1.q:
        raise ValueError(f"mixed alphabets Z_{s0.q} and Z_{s1.q}")
    if s0.length != s1.length:
        raise ValueError(f"mixed lengths {s0.length} and {s1.length}")


def _check_shift(length: int, u: int) -> None:
    if not -length < u < length:
        raise ValueError(f"shift {u} outside [-{length - 1}, {length - 1}]")


def accf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Aperiodic cross-correlation sum_k s0[k+u] * conj(s1[k]), exact."""
    _check_pair(s0, s1)
    _check_shift(s0.length, u)
    q, length = s0.q, s0.length
    a, b = s0.array(), s1.array()
    if u >= 0:
        diff = (a[u:length] - b[: length - u]) % q
    else:
        diff = (a[: length + u] - b[-u:length]) % q
    counts = np.bincount(diff, minlength=q)
    return CycloInt(q, tuple(int(c) for c in counts))


_TALLY_BLOCK = 1 << 16


def cyclic_tally(a, b, q: int, shifts, a_mask=None, b_mask=None) -> np.ndarray:
    """Exact tallies of the cyclic correlation sum_k a[k+u] * conj(b[k]).

    Row r counts how often each phase difference (a[(k+u) mod L] - b[k])
    mod q occurs at shift u = shifts[r], shape (len(shifts), q).  Where a
    mask is given, positions it marks False are silent and not counted.
    For q in {2, 4} the rows are value-equal instead: one numpy.correlate
    of the masked unit values over the hull of the shifts gives the real
    part in column 0, the imaginary part in column 1 and zeros elsewhere.
    Other alphabets take the shifts in blocks of about _TALLY_BLOCK
    gathered entries, so the temporaries stay bounded however many shifts
    are asked for.
    """
    length, shifts = len(a), np.asarray(shifts, dtype=np.int64)
    if q in (2, 4):
        units = root_table(q).real if q == 2 else root_table(q)
        x = units[a] if a_mask is None else units[a] * a_mask
        y = units[b] if b_mask is None else units[b] * b_mask
        lo = shifts.min()
        hull = np.take(x, np.arange(lo, length + shifts.max()), mode="wrap")
        z = np.correlate(hull, y, "valid")[shifts - lo]
        out = np.zeros((len(shifts), q), dtype=np.int64)
        out[:, 0] = np.rint(z.real)
        if q == 4:
            out[:, 1] = np.rint(z.imag)
        return out
    shifts = shifts % length
    if a_mask is not None:
        a = np.where(a_mask, a, 2 * q - 1)
    a2 = np.concatenate((a, a))  # a2[s + k] = a[(s + k) mod L] for s, k < L
    pos = np.arange(len(b)) if b_mask is None else np.flatnonzero(b_mask)
    # key a + q - b lies in 1..2q-1 (difference mod q, folded below) for a
    # live a and in 2q..3q-1 (dropped) for a silent one; rows are 3q apart
    step = max(1, min(len(shifts), _TALLY_BLOCK // max(1, len(pos))))
    base = (q - b[pos]) + 3 * q * np.arange(step)[:, None]
    out = np.empty((len(shifts), q), dtype=np.int64)
    for start in range(0, len(shifts), step):
        block = shifts[start : start + step]
        key = a2[block[:, None] + pos]
        key += base[: len(block)]
        counts = np.bincount(key.ravel(), minlength=3 * q * len(block)).reshape(-1, 3 * q)
        out[start : start + step] = counts[:, :q] + counts[:, q : 2 * q]
    return out


def pccf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Periodic cross-correlation with cyclic indexing, exact."""
    _check_pair(s0, s1)
    _check_shift(s0.length, u)
    return CycloInt(s0.q, cyclic_tally(s0.array(), s1.array(), s0.q, (u,))[0])


def pccf_via_accf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Periodic correlation assembled from the two aperiodic halves.

    Evaluates the identity relating periodic and aperiodic correlation:
    the plain aperiodic value at u=0, and the aperiodic value plus the
    conjugated swapped value at the complementary shift otherwise.
    """
    _check_pair(s0, s1)
    _check_shift(s0.length, u)
    length = s0.length
    if u == 0:
        return accf(s0, s1, 0)
    if u > 0:
        return accf(s0, s1, u) + accf(s1, s0, length - u).conjugate()
    return accf(s1, s0, -u).conjugate() + accf(s0, s1, length + u)


def set_rows(sets) -> tuple[np.ndarray, np.ndarray]:
    """One row per set, its N members each followed by L-1 silent entries, and the shared mask.

    Member pairs n <-> n + d then meet only within L of shift d(2L-1), so
    for |u| < L the cyclic tally of two rows is the set sum rho at u and
    the rotated sum rho-hat at u - (2L-1).
    """
    length, width = sets[0].length, 2 * sets[0].length - 1
    rows = np.zeros((len(sets), sets[0].size, width), dtype=np.int64)
    rows[:, :, :length] = [[s.array() for s in st.members] for st in sets]
    return rows.reshape(len(sets), -1), np.arange(sets[0].size * width) % width < length


def set_pair_counts(s0: SequenceSet, s1: SequenceSet, rotation: int = 0) -> np.ndarray:
    """Count vectors of the set sum over member pairs n <-> (n + rotation) mod N.

    Shape (2L-1, q), row i holding shift u = i - (L-1); rotation 0 gives
    the set sum rho and rotation 1 the rotated cross-channel sum rho-hat.
    """
    if (s0.q, s0.length, s0.size) != (s1.q, s1.length, s1.size):
        raise ValueError("sequence sets must share (N, L, q)")
    (a, b), live = set_rows((s0, s1))
    shifts = np.arange(1 - s0.length, s0.length) - rotation * (2 * s0.length - 1)
    return cyclic_tally(a, b, s0.q, shifts, live, live)


def _values(q: int, counts: np.ndarray) -> list[CycloInt]:
    return [CycloInt(q, row) for row in counts]


def set_corr_table(s0: SequenceSet, s1: SequenceSet) -> list[CycloInt]:
    """Set sum rho at every shift -(L-1)..(L-1), shift u at index u + L - 1."""
    return _values(s0.q, set_pair_counts(s0, s1))


def cross_channel_table(g0: SequenceSet, g1: SequenceSet) -> list[CycloInt]:
    """Rotated sum rho-hat (member n against n+1 mod N), indexed as set_corr_table.

    Unlike rho this sum is not symmetric under swapping its arguments, and
    negating the shift is not equivalent to swapping either, so callers
    must evaluate both signs explicitly.
    """
    return _values(g0.q, set_pair_counts(g0, g1, rotation=1))


@dataclass(frozen=True)
class CorrelationProfile:
    """Correlation values tabulated over a contiguous shift range."""

    label: str
    shifts: tuple[int, ...]
    values: tuple[CycloInt, ...]

    def __post_init__(self) -> None:
        if len(self.shifts) != len(self.values):
            raise ValueError("shift range and value list differ in length")
        if not self.shifts:
            raise ValueError("empty shift range")

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["u", "magnitude", "is_zero"])
        for u, v in zip(self.shifts, self.values):
            writer.writerow([u, f"{v.magnitude():.12g}", int(v.is_zero())])
        return out.getvalue()


def _aperiodic_shifts(length: int) -> tuple[int, ...]:
    return tuple(range(-(length - 1), length))


def profile_accf(s0: PhaseSequence, s1: PhaseSequence, label: str = "accf") -> CorrelationProfile:
    _check_pair(s0, s1)
    table = _values(s0.q, set_pair_counts(SequenceSet((s0,)), SequenceSet((s1,))))
    return CorrelationProfile(label, _aperiodic_shifts(s0.length), tuple(table))


def profile_pccf(s0: PhaseSequence, s1: PhaseSequence, label: str = "pccf") -> CorrelationProfile:
    _check_pair(s0, s1)
    shifts = tuple(range(s0.length))
    table = _values(s0.q, cyclic_tally(s0.array(), s1.array(), s0.q, shifts))
    return CorrelationProfile(label, shifts, tuple(table))


def profile_set_corr(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    table = set_corr_table(fam.sets[m1], fam.sets[m2])
    return CorrelationProfile(f"rho:{m1},{m2}", _aperiodic_shifts(fam.length), tuple(table))


def profile_cross_channel(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    table = cross_channel_table(fam.sets[m1], fam.sets[m2])
    return CorrelationProfile(f"rhohat:{m1},{m2}", _aperiodic_shifts(fam.length), tuple(table))
