"""Exact aperiodic and periodic correlation functions and set-level sums.

Every function returns a :class:`~eczcs.cyclotomic.CycloInt`, so zero tests
are exact.  All of them read one kernel, :func:`cross_tally` of every
a-row against every b-row (:func:`cyclic_tally` for every row pair of
one batch, a pair function for its one pair only): binary and quaternary
values come from per-row FFTs of unit values, rounded to integers inside
a checked margin, other alphabets (and any call outside the margin) from
an integer phase-difference count.  The aperiodic set sums rho and
rho-hat come as tables over every shift, cyclic tallies of
:func:`set_rows`, where every member is followed by silent entries.
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
_MARGIN = 0.25


def cyclic_tally(values, masks, q: int, shifts) -> np.ndarray:
    """Exact tallies of every row pair of one batch: :func:`cross_tally` of the batch against itself."""
    return cross_tally(values, masks, values, masks, q, shifts)


def cross_tally(a, a_masks, b, b_masks, q: int, shifts) -> np.ndarray:
    """Exact tallies of the cyclic correlations sum_k x[k+u] * conj(y[k]), x an a-row, y a b-row.

    ``a`` and ``b`` hold rows of one width W, live where their masks
    (broadcast against them; None: everywhere) are True.  Entry [i, j, r]
    counts each phase difference (x[(k+u) mod W] - y[k]) mod q over live
    positions of x = a[i], y = b[j] at u = shifts[r].  For q in {2, 4} the
    counts are value-equal instead (real part, imaginary part): one FFT per
    row (taken once when b and its masks are a and its masks), then per
    a-row one inverse FFT of its spectrum times all conjugate b-spectra
    (never the (Ra, Rb, W) product), rounded and trusted only if every
    residual is below _MARGIN.  Otherwise, and for other alphabets, each
    pair is counted exactly.
    """
    same = b is a and b_masks is a_masks
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    width, shifts = a.shape[1], np.asarray(shifts, dtype=np.int64) % a.shape[1]
    a_live = np.broadcast_to(True if a_masks is None else a_masks, a.shape)
    b_live = np.broadcast_to(True if b_masks is None else b_masks, b.shape)
    out = np.zeros((len(a), len(b), len(shifts), q), dtype=np.int64)
    if q in (2, 4):
        units = root_table(q).real if q == 2 else root_table(q)
        fft, ifft = (np.fft.rfft, np.fft.irfft) if q == 2 else (np.fft.fft, np.fft.ifft)
        spectra = fft(units[a] * a_live)
        conj = (spectra if same else fft(units[b] * b_live)).conj()
        for i, spectrum in enumerate(spectra):
            z = ifft(spectrum * conj, width)[:, shifts]
            near = np.rint(z)
            if np.abs(z - near).max(initial=0) >= _MARGIN:
                break
            out[i, :, :, 0] = near.real
            out[i, :, :, 1] = near.imag
        else:
            return out
    # exact count: key x + q - y is 1..2q-1 (difference mod q, folded below) for a live
    # x, 2q..3q-1 (dropped) for a silent one; all a-rows against one b-row per shift
    # block, each (a-row, shift) 3q keys apart, about _TALLY_BLOCK keys and counts each
    a2 = np.tile(np.where(a_live, a, 2 * q - 1), 2)  # a2[i, s + k] = a_i[(s + k) mod W]
    for j, y in enumerate(b):
        pos = np.flatnonzero(b_live[j])
        step = max(1, min(len(shifts), _TALLY_BLOCK // max(1, len(a) * max(len(pos), 3 * q))))
        for start in range(0, len(shifts), step):
            block = shifts[start : start + step]
            spans = 3 * q * np.arange(len(a) * len(block)).reshape(len(a), len(block), 1)
            key = a2[:, block[:, None] + pos] + (q - y[pos]) + spans
            counts = np.bincount(key.ravel(), minlength=3 * q * spans.size)
            counts = counts.reshape(len(a), len(block), 3 * q)
            out[:, j, start : start + step] = counts[..., :q] + counts[..., q : 2 * q]
    return out


def pccf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Periodic cross-correlation with cyclic indexing, exact."""
    _check_pair(s0, s1)
    _check_shift(s0.length, u)
    return CycloInt(s0.q, cross_tally(s0.array(), None, s1.array(), None, s0.q, (u,))[0, 0, 0])


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
    """One row per set of a family (or a sequence of sets), its N members each followed by L-1
    silent entries, and the shared mask: a pad and a reshape of the (M, N, L) phase array.

    Member pairs n <-> n + d then meet only within L of shift d(2L-1), so
    for |u| < L the cyclic tally of two rows is the set sum rho at u and
    the rotated sum rho-hat at u - (2L-1).
    """
    phases = sets.array() if isinstance(sets, Family) else np.stack([st.array() for st in sets])
    m, n, length = phases.shape
    rows = np.zeros((m, n, 2 * length - 1), dtype=phases.dtype)
    rows[..., :length] = phases
    return rows.reshape(m, -1), np.arange(n * (2 * length - 1)) % (2 * length - 1) < length


def set_pair_counts(s0: SequenceSet, s1: SequenceSet, rotation: int = 0) -> np.ndarray:
    """Count vectors of the set sum over member pairs n <-> (n + rotation) mod N.

    Shape (2L-1, q), row i holding shift u = i - (L-1); rotation 0 gives
    the set sum rho and rotation 1 the rotated cross-channel sum rho-hat.
    """
    if (s0.q, s0.length, s0.size) != (s1.q, s1.length, s1.size):
        raise ValueError("sequence sets must share (N, L, q)")
    rows, live = set_rows((s0, s1))
    shifts = np.arange(1 - s0.length, s0.length) - rotation * (2 * s0.length - 1)
    return cross_tally(rows[:1], live, rows[1:], live, s0.q, shifts)[0, 0]


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


def profile_accf(s0: PhaseSequence, s1: PhaseSequence) -> CorrelationProfile:
    _check_pair(s0, s1)
    table = _values(s0.q, set_pair_counts(SequenceSet((s0,)), SequenceSet((s1,))))
    return CorrelationProfile(_aperiodic_shifts(s0.length), tuple(table))


def profile_pccf(s0: PhaseSequence, s1: PhaseSequence) -> CorrelationProfile:
    _check_pair(s0, s1)
    shifts = tuple(range(s0.length))
    table = _values(s0.q, cross_tally(s0.array(), None, s1.array(), None, s0.q, shifts)[0, 0])
    return CorrelationProfile(shifts, tuple(table))


def profile_set_corr(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    table = set_corr_table(fam.sets[m1], fam.sets[m2])
    return CorrelationProfile(_aperiodic_shifts(fam.length), tuple(table))


def profile_cross_channel(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    table = cross_channel_table(fam.sets[m1], fam.sets[m2])
    return CorrelationProfile(_aperiodic_shifts(fam.length), tuple(table))
