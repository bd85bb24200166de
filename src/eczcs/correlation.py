"""Exact aperiodic and periodic correlation functions and set-level sums.

The single-value functions :func:`accf` and :func:`pccf` take an integer
shift and return a :class:`~eczcs.cyclotomic.CycloInt`; tables and
profiles are canonical count arrays, one row per shift equal to its
``CycloInt.counts``, so zero tests are exact.  All of them read one
kernel, :func:`cross_tally` of every a-row against every b-row
(:func:`cyclic_tally` for every row pair of one batch, a pair function for
its one pair only): binary and quaternary values come from per-row FFTs of
unit values, rounded to integers inside a checked margin, other alphabets
(and any call outside the margin) from an integer phase-difference count.
The tables of the aperiodic set sums rho and rho-hat are slices of one
cached tally per family, :func:`set_sum_tally` of :func:`set_rows`, where
every member is followed by silent entries.  :func:`accf` keeps its own
direct count of one shift, the reference the kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycloInt, as_ints, cyclotomic_poly, magnitudes, reduction_matrix, root_table
from .sequences import Family, PhaseSequence


def _check_pair(s0: PhaseSequence, s1: PhaseSequence) -> None:
    if s0.q != s1.q:
        raise ValueError(f"mixed alphabets Z_{s0.q} and Z_{s1.q}")
    if s0.length != s1.length:
        raise ValueError(f"mixed lengths {s0.length} and {s1.length}")


def _check_shift(length: int, u: int) -> int:
    (u,) = as_ints((u,), "shift")
    if not -length < u < length:
        raise ValueError(f"shift {u} outside [-{length - 1}, {length - 1}]")
    return u


def accf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Aperiodic cross-correlation sum_k s0[k+u] * conj(s1[k]), exact."""
    _check_pair(s0, s1)
    u = _check_shift(s0.length, u)
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
    u = _check_shift(s0.length, u)
    return CycloInt(s0.q, cross_tally(s0.array(), None, s1.array(), None, s0.q, (u,))[0, 0, 0])


def set_rows(fam: Family) -> tuple[np.ndarray, np.ndarray]:
    """One row per set of a family, its N members each followed by L-1 silent entries, and the
    shared mask: a pad and a reshape of the (M, N, L) phase array.

    Member pairs n <-> n + d then meet only within L of shift d(2L-1), so
    for |u| < L the cyclic tally of two rows is the set sum rho at u and
    the rotated sum rho-hat at u - (2L-1).
    """
    m, n, length = fam.array().shape
    rows = np.zeros((m, n, 2 * length - 1), dtype=fam.array().dtype)
    rows[..., :length] = fam.array()
    return rows.reshape(m, -1), np.arange(n * (2 * length - 1)) % (2 * length - 1) < length


def set_sum_tally(fam: Family) -> np.ndarray:
    """The family's set sums for |u| < L, cached read-only on first use: rho at shift u >= 0
    in column u, rho-hat at u in column u + 2L-1.  One cyclic tally of the set rows, reduced
    to the phi(q) = deg(Phi_q) columns a canonical vector fills: shape (M, M, 3L-1, phi(q)).
    """
    tally = fam.__dict__.get("_set_sums")
    if tally is None:
        length, phi = fam.length, len(cyclotomic_poly(fam.q)) - 1
        shifts = np.r_[0:length, 2 - 3 * length : 1 - length]
        tally = cyclic_tally(*set_rows(fam), fam.q, shifts) @ reduction_matrix(fam.q)[:, :phi]
        tally.setflags(write=False)
        object.__setattr__(fam, "_set_sums", tally)
    return tally


def set_corr_table(fam: Family, m1: int, m2: int) -> np.ndarray:
    """Set sum rho of sets m1 and m2 at every shift -(L-1)..(L-1), a slice of :func:`set_sum_tally`:
    shape (2L-1, q), row u + L - 1 the canonical count vector of rho(u), equal to its
    ``CycloInt.counts``.  Shifts u < 0 by conjugate symmetry, rho_12(-u) = conj rho_21(u)."""
    tally, length, reduce = set_sum_tally(fam), fam.length, reduction_matrix(fam.q)
    phi = tally.shape[-1]  # row j of reduce[-j % q] is the canonical form of x^(-j)
    negative = tally[m2, m1, length - 1 : 0 : -1] @ reduce[-np.arange(phi) % fam.q]
    return np.concatenate((negative, tally[m1, m2, :length] @ reduce[:phi]))


def cross_channel_table(fam: Family, m1: int, m2: int) -> np.ndarray:
    """Rotated sum rho-hat (member n of set m1 against n+1 mod N of set m2), laid out as
    set_corr_table: a slice of :func:`set_sum_tally`.  Unlike rho it has no swap-and-conjugate
    symmetry, so callers evaluate both shift signs explicitly."""
    tally = set_sum_tally(fam)
    return tally[m1, m2, fam.length :] @ reduction_matrix(fam.q)[: tally.shape[-1]]


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """Correlation values over the shifts first, first + 1, ...: a read-only int64 copy of their
    canonical count vectors, row i at shift first + i."""

    q: int
    first: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if not len(counts):
            raise ValueError("empty shift range")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def shifts(self) -> range:
        return range(self.first, self.first + len(self.counts))

    def to_csv(self) -> str:
        """Rows (u, magnitude, is_zero) in ``csv``'s default dialect; no field needs quoting."""
        mags, zeros = magnitudes(self.q, self.counts).tolist(), (~self.counts.any(axis=1)).astype(int).tolist()
        return "u,magnitude,is_zero\r\n" + "".join(map("{},{:.12g},{}\r\n".format, self.shifts, mags, zeros))


def profile_accf(s0: PhaseSequence, s1: PhaseSequence) -> CorrelationProfile:
    _check_pair(s0, s1)  # the set rows of ((s0,), (s1,)): cyclic tallies at |u| < L are aperiodic
    rows, live = set_rows(Family.from_array(s0.q, np.stack((s0.array(), s1.array()))[:, None]))
    counts = cross_tally(rows[:1], live, rows[1:], live, s0.q, range(1 - s0.length, s0.length))[0, 0]
    return CorrelationProfile(s0.q, 1 - s0.length, counts @ reduction_matrix(s0.q))


def profile_pccf(s0: PhaseSequence, s1: PhaseSequence) -> CorrelationProfile:
    _check_pair(s0, s1)
    counts = cross_tally(s0.array(), None, s1.array(), None, s0.q, range(s0.length))[0, 0]
    return CorrelationProfile(s0.q, 0, counts @ reduction_matrix(s0.q))


def profile_set_corr(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    return CorrelationProfile(fam.q, 1 - fam.length, set_corr_table(fam, m1, m2))


def profile_cross_channel(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    return CorrelationProfile(fam.q, 1 - fam.length, cross_channel_table(fam, m1, m2))
