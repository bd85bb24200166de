"""Exact aperiodic and periodic correlation functions and set-level sums.

The single-value functions :func:`accf` and :func:`pccf` take an integer shift and return a
:class:`~eczcs.cyclotomic.CycloInt`; tables and profiles are canonical count arrays, one row
per shift equal to its ``CycloInt.counts``, so zero tests are exact.  All of them but
:func:`accf`, the direct count the kernel is tested against, read one kernel,
:func:`cross_tally` of rows of K members at member lags 0, 1, ... (spectral for q in {2, 4}
summed over members by one einsum per block of a-rows, rounded within a checked margin, else a
phase-difference count); the set sums rho and rho-hat are one cached tally per family,
:func:`set_sum_tally` of zero-padded members at lags 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import CycloInt, as_ints, cyclotomic_poly, magnitudes, reduce_tally, reduction_matrix, root_table
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
_SPECTRAL_BLOCK = 1 << 17
_MARGIN = 0.25
_ZERO_FIELDS = np.array(["0\r\n", "1\r\n"], dtype=object)  # is_zero, line end


def cyclic_tally(values, masks, q: int, shifts) -> np.ndarray:
    """Exact tallies of every row pair of one batch: :func:`cross_tally` of the batch against itself."""
    return cross_tally(values, masks, values, masks, q, shifts)


def cross_tally(a, a_masks, b, b_masks, q: int, shifts) -> np.ndarray:
    """Exact tallies of the cyclic correlations sum_k x[k+u] * conj(y[k]), x an a-row, y a b-row.

    Rows are (R, W), or (R, K, W) with one shift list per member lag d = 0, 1, ... (plain
    rows: K = 1, ``shifts`` at lag 0); masks broadcast against them (None: all live).  Entry
    [i, j, r] counts each phase difference (x[(k+u) mod W] - y[k]) mod q over live positions,
    summed over members n of x = a[i] against (n + d) mod K of y = b[j], at the r-th (d, u).
    For q in {2, 4} the counts are value-equal (real part, imaginary part): per block of a-rows, one
    einsum sums per frequency the (Ra, K) member spectra times the (K, Rb * lags) conjugate ones
    rolled by each lag, then one inverse FFT.  Per a-row the product has F * Rb * lags entries (F
    frequencies) and the transform Rb * lags * W; a block fits both in _SPECTRAL_BLOCK (or is one
    a-row).  Rounded, trusted if every residual is below _MARGIN, else (and for other q) counted.
    """
    same = b is a and b_masks is a_masks
    a_live, b_live = (True if m is None else m for m in (a_masks, b_masks))
    if np.ndim(a) < 3:  # plain rows: one member each, shifts at lag 0
        shifts, plain = (shifts,), (-1, 1, np.shape(a)[-1])
        a, b, a_live, b_live = (np.reshape(x, plain) if np.ndim(x) else x for x in (a, b, a_live, b_live))
    width, size, lag_count = a.shape[2], a.shape[1], len(shifts)
    lags = np.repeat(np.arange(lag_count), [len(s) for s in shifts])
    cols = np.concatenate([np.asarray(s, dtype=np.int64).reshape(-1) for s in shifts]) % width
    out = np.zeros((len(a), len(b), len(cols), q), dtype=np.int64)
    if q in (2, 4):
        units = root_table(q).real if q == 2 else root_table(q)
        fft, ifft = (np.fft.rfft, np.fft.irfft) if q == 2 else (np.fft.fft, np.fft.ifft)
        spectra = fft(units[a] * a_live).transpose(2, 0, 1)  # [f, i, n]
        b_spectra = spectra if same else fft(units[b] * b_live).transpose(2, 0, 1)
        turn = (np.arange(size)[:, None, None] + np.arange(lag_count)) % size  # [n, 1, d]: member n + d
        rolled = b_spectra[:, np.arange(len(b))[:, None], turn]  # [f, n, j, d]
        rolled = np.conjugate(rolled, out=rolled).reshape(len(rolled), size, -1)
        step = max(1, _SPECTRAL_BLOCK // (rolled.shape[2] * (len(rolled) + width)))  # a-rows per block
        for start in range(0, len(a), step):
            product = np.einsum("fin,fnj->fij", spectra[:, start : start + step], rolled)  # [f, i, (j, d)]
            z = ifft(product.transpose(1, 2, 0), width).reshape(product.shape[1], len(b), -1)
            z = z.take(lags * width + cols, axis=-1)  # (rows, Rb, shifts)
            near = np.rint(z)
            z -= near
            if np.abs(z, out=z).max(initial=0) >= _MARGIN:
                break
            out[start : start + step, ..., 0], out[start : start + step, ..., 1] = near.real, near.imag
        else:
            return out
    # exact count: key x + q - y is 1..2q-1 (difference mod q, folded below) for a live x, 2q..3q-1
    # (dropped) for a silent one; all a-rows against one b-row per block of about _TALLY_BLOCK keys.
    # Slot s (width 2W) of a2 holds member (s + 1 - lags) mod K twice: lag d reads slot n + lags - 1 - d.
    a2 = np.where(a_live, a, 2 * q - 1)[:, np.arange(1 - lag_count, size) % size]
    a2 = np.concatenate((a2, a2), axis=-1).reshape(len(a), -1)
    cols, b_live = (lag_count - 1 - lags) * 2 * width + cols, np.broadcast_to(b_live, b.shape)
    for j, y in enumerate(b):
        n, k = np.nonzero(b_live[j])
        step = max(1, min(len(cols), _TALLY_BLOCK // max(1, len(a) * max(len(k), 3 * q))))
        for start in range(0, len(cols), step):
            block = cols[start : start + step]
            spans = 3 * q * np.arange(len(a) * len(block)).reshape(len(a), -1, 1)
            key = a2[:, block[:, None] + (n * 2 * width + k)] + (q - y[n, k]) + spans
            counts = np.bincount(key.ravel(), minlength=3 * q * spans.size).reshape(len(a), -1, 3 * q)
            out[:, j, start : start + step] = counts[..., :q] + counts[..., q : 2 * q]
    return out


def pccf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Periodic cross-correlation with cyclic indexing, exact."""
    _check_pair(s0, s1)
    u = _check_shift(s0.length, u)
    return CycloInt(s0.q, cross_tally(s0.array(), None, s1.array(), None, s0.q, (u,))[0, 0, 0])


def _padded(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of L phases, then L silent entries, and their mask: cyclic tallies at |u| < L are aperiodic."""
    length = phases.shape[-1]
    return np.concatenate((phases, np.zeros_like(phases)), axis=-1), np.arange(2 * length) < length


def set_sum_tally(fam: Family) -> np.ndarray:
    """The family's set sums for |u| < L, cached read-only on first use: rho at shift u >= 0 in
    column u, rho-hat at u in column u + 2L-1.  One cyclic tally of the sets' zero-padded members
    at member lags 0 (rho) and 1 (rho-hat), reduced to the phi(q) = deg(Phi_q) columns a
    canonical vector fills: shape (M, M, 3L-1, phi(q))."""
    tally = fam.__dict__.get("_set_sums")
    if tally is None:
        shifts = (np.arange(fam.length), np.arange(1 - fam.length, fam.length))
        tally = reduce_tally(fam.q, cyclic_tally(*_padded(fam.array()), fam.q, shifts))
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


@lru_cache(maxsize=256)
def _shift_fields(first: int, n: int) -> tuple[str, ...]:
    """The CSV fields "u," of the shifts first .. first + n - 1, cached per profile shape."""
    return tuple(f"{u}," for u in range(first, first + n))


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """Correlation values over the shifts first, first + 1, ...: a read-only int64 copy of their
    canonical count vectors, row i at shift first + i (entries past phi(q) zero)."""

    q: int
    first: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim and not len(counts):
            raise ValueError("empty shift range")
        if counts.ndim != 2 or counts.shape[1] != self.q:
            raise ValueError(f"counts of shape {counts.shape} are not rows of q = {self.q} entries")
        if counts.dtype.kind not in "biu":
            counts = np.reshape(as_ints(counts.ravel().tolist(), "count"), counts.shape)
        counts = np.array(counts, dtype=np.int64)
        if counts[:, len(cyclotomic_poly(self.q)) - 1 :].any():
            raise ValueError("counts are not canonical: a row has a nonzero entry past phi(q)")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def shifts(self) -> range:
        return range(self.first, self.first + len(self.counts))

    def to_csv(self) -> str:
        """Rows (u, magnitude, is_zero) in ``csv``'s default dialect, one ``%`` over an (n, 3) object array."""
        n, zero = len(self.counts), (~self.counts.any(axis=1)).view(np.uint8)
        rows = np.array((_shift_fields(self.first, n), magnitudes(self.q, self.counts), _ZERO_FIELDS[zero]), dtype=object)
        return "u,magnitude,is_zero\r\n" + ("%s%.12g,%s" * n) % tuple(rows.T.ravel().tolist())


def profile_accf(s0: PhaseSequence, s1: PhaseSequence) -> CorrelationProfile:
    _check_pair(s0, s1)
    rows, live = _padded(np.stack((s0.array(), s1.array())))
    counts = cross_tally(rows[:1], live, rows[1:], live, s0.q, np.arange(1 - s0.length, s0.length))[0, 0]
    return CorrelationProfile(s0.q, 1 - s0.length, counts @ reduction_matrix(s0.q))


def profile_pccf(s0: PhaseSequence, s1: PhaseSequence) -> CorrelationProfile:
    _check_pair(s0, s1)
    counts = cross_tally(s0.array(), None, s1.array(), None, s0.q, np.arange(s0.length))[0, 0]
    return CorrelationProfile(s0.q, 0, counts @ reduction_matrix(s0.q))


def profile_set_corr(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    return CorrelationProfile(fam.q, 1 - fam.length, set_corr_table(fam, m1, m2))


def profile_cross_channel(fam: Family, m1: int, m2: int) -> CorrelationProfile:
    return CorrelationProfile(fam.q, 1 - fam.length, cross_channel_table(fam, m1, m2))
