"""Sparse training matrices for generalized spatial modulation.

The Nt antennas form V = ceil(Nt/Na) groups of Na; group g owns the L time
slots at offset g*L of every width-VL sub-block.  Row k transmits the
members of set (k mod Na), concatenated in order, on the live slots of
its group k div Na and stays silent elsewhere; one mask, ``_live``, holds
this layout, and the design criterion's expected per-slot activity is
its column sums.  A matrix is that layout as two read-only arrays: the
int64 phases (0 where silent) and the live mask, so silence is never
phase 0.  Every reader (criterion, LS model, CSV) uses those arrays.
The design criterion and ``design_width`` read one reduced periodic tally
per matrix, cached on it and grown in blocks of shifts as delay spreads
ask, so a sweep over delay spreads tallies each row pair a few times, not
once per spread.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from .correlation import cross_tally
from .cyclotomic import CycloInt, as_ints, cyclotomic_poly, reduction_matrix, root_table
from .sequences import Family
from .verify import Verdict, Violation, hit_keys, memo_violations


@dataclass(frozen=True)
class GSMConfig:
    """Antenna configuration: how many antennas exist and how many drive RF chains (BPSK payload)."""

    transmit_antennas: int
    active_antennas: int

    def __post_init__(self) -> None:
        for name in ("transmit_antennas", "active_antennas"):
            object.__setattr__(self, name, as_ints((getattr(self, name),), name)[0])
        if not 1 <= self.active_antennas <= self.transmit_antennas:
            raise ValueError("need 1 <= active antennas <= transmit antennas")

    @property
    def group_count(self) -> int:
        """Number of antenna groups V = ceil(Nt / Na)."""
        return -(-self.transmit_antennas // self.active_antennas)


@dataclass(frozen=True, eq=False)
class TrainingMatrix:
    """Nt rows of length N*V*L as read-only copies of int64 phases in Z_q (0 where silent) and
    the live mask, checked once; V and N are derived."""

    q: int
    values: np.ndarray
    mask: np.ndarray
    active_antennas: int
    block_length: int
    source: str = ""

    def __post_init__(self) -> None:
        mask, raw = np.array(self.mask), np.asarray(self.values)
        if mask.dtype != bool or mask.ndim != 2:
            raise ValueError(f"the training mask must be a boolean 2-axis array, got {mask.dtype} {mask.shape}")
        if not mask.size:
            raise ValueError("a training matrix needs at least one row and one slot")
        if raw.shape != mask.shape:
            raise ValueError(f"values of shape {raw.shape} do not match the mask's {mask.shape}")
        if raw.dtype.kind not in "biufc":
            raise ValueError(f"training values must be numbers, got dtype {raw.dtype}")
        live = raw[mask]
        inside = (live >= 0) & (live < self.q)
        if not inside.all():
            raise ValueError(f"entry {live[np.argmin(inside)]} outside Z_{self.q}")
        vals = np.where(mask, raw.real, 0).astype(np.int64)
        truncated = vals[mask] != live  # a fraction, or an imaginary part
        if truncated.any():
            raise ValueError(f"entry {live[np.argmax(truncated)]} is not an integer")
        for name, array in (("values", vals), ("mask", mask)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        period = self.group_count * self.block_length  # group_count rejects Na outside 1..Nt
        if self.block_length < 1 or self.width % period:
            raise ValueError(f"need L >= 1 and V*L = {period} dividing the width {self.width}")

    @cached_property
    def rows(self) -> tuple[tuple[int | None, ...], ...]:
        """The rows as phase tuples with None where silent, built on first read."""
        return tuple(map(tuple, np.where(self.mask, self.values, None).tolist()))

    @property
    def num_rows(self) -> int:
        return self.mask.shape[0]

    @property
    def width(self) -> int:
        return self.mask.shape[1]

    @cached_property
    def group_count(self) -> int:
        return GSMConfig(self.num_rows, self.active_antennas).group_count

    @property
    def blocks_per_row(self) -> int:
        return self.width // (self.group_count * self.block_length)

    @property
    def energy(self) -> int:
        """Designed per-row energy N*L (actual rows are checked against it)."""
        return self.blocks_per_row * self.block_length

    def complex_rows(self) -> np.ndarray:
        return root_table(self.q)[self.values] * self.mask


def _live(nt: int, na: int, blocks: int, length: int) -> np.ndarray:
    """Layout mask, (Nt, N*V*L): row k transmits in slot c iff (c mod V*L) div L = k div Na."""
    period = GSMConfig(nt, na).group_count * length
    return np.arange(blocks * period) % period // length == np.arange(nt)[:, None] // na


def build_training_matrix(fam: Family, cfg: GSMConfig, source: str = "") -> TrainingMatrix:
    """Lay a family out as the sparse training matrix for cfg.

    Row k carries the members of set (k mod Na), concatenated in order, on
    the live slots of ``_live``: the L slots at offset (k div Na)*L inside
    each width-VL sub-block.  When Nt < V*Na the last group is short.
    """
    na = cfg.active_antennas
    if fam.num_sets < na:
        raise ValueError(f"family has {fam.num_sets} sets but {na} active antennas need one each")
    live = _live(cfg.transmit_antennas, na, fam.set_size, fam.length)
    values = np.zeros(live.shape, dtype=np.int64)
    values[live] = fam.array()[np.arange(cfg.transmit_antennas) % na].ravel()
    return TrainingMatrix(fam.q, values, live, na, fam.length, source)


def training_pccf(tm: TrainingMatrix, i: int, j: int, u: int) -> CycloInt:
    """Periodic cross-correlation of rows i and j (each in 0..Nt-1) at integer cyclic shift u."""
    (i, j), (u,) = as_ints((i, j), "row index"), as_ints((u,), "shift")
    if not (0 <= i < tm.num_rows and 0 <= j < tm.num_rows):
        raise ValueError(f"row indices ({i}, {j}) must lie in 0..{tm.num_rows - 1}")
    tally = cross_tally(tm.values[i], tm.mask[i], tm.values[j], tm.mask[j], tm.q, (u,))
    return CycloInt(tm.q, tally[0, 0, 0])


def _pair_labels(tm: TrainingMatrix) -> np.ndarray:
    """The interference mechanism of every row pair (i, j), an (Nt, Nt) object table of names.

    The first matching rule wins.  A wrap pair (group 0 against the last) is the tail of
    the cycle, cancelled by the rotated sums; with V = 1 it is a same-group pair.
    """
    group = np.arange(tm.num_rows) // tm.active_antennas
    gi, gj, last = group[:, None], group, tm.group_count - 1
    rules = [np.eye(tm.num_rows, dtype=bool), gi == gj, (gi == 0) & (gj == last), gi == gj + 1]
    names = ["isi", "iai-same-group", "iai-wrap", "iai-adjacent-group"]
    return np.select(rules, names, "iai-separated").astype(object)


def _layout_violations(tm: TrainingMatrix) -> list[Violation]:
    """The sparsity and row-energy faults: slots whose activity differs from the layout's
    column sums, then rows whose live count differs from the designed energy."""
    col_counts, energies = tm.mask.sum(axis=0), tm.mask.sum(axis=1)
    expected = _live(tm.num_rows, tm.active_antennas, tm.blocks_per_row, tm.block_length).sum(axis=0)
    violations = [Violation("sparsity", (int(c),), 0, float(col_counts[c]))
                  for c in np.nonzero(col_counts != expected)[0]]
    return violations + [Violation("row-energy", (int(i),), 0, float(energies[i]))
                         for i in np.nonzero(energies != tm.energy)[0]]


_FIRST_BLOCK = 16  # shifts in the first block of a matrix's zone tally; later blocks double it


def _zone(tm: TrainingMatrix, top: int) -> tuple:
    """The criterion state of a matrix, cached on it and grown to shifts 0..top at least:
    (tally, hit keys, layout faults, pair labels, memo).

    The tally is the reduced periodic tally of every row pair, [row, row, shift, phi(q)
    canonical columns], read-only.  It grows in blocks, _FIRST_BLOCK shifts first and then
    at least doubling, up to the width, so it never holds all W shifts unless a delay spread
    asks for them.  The hit keys are the :func:`~eczcs.verify.hit_keys` of its windowed
    nonzero entries (shift >= 1 for a row against itself, >= 0 for distinct rows), whose
    records :func:`~eczcs.verify.memo_violations` builds into the memo as delay spreads ask.
    The layout faults depend on no shift.
    """
    state = tm.__dict__.get("_zone")
    if state is None:
        phi = len(cyclotomic_poly(tm.q)) - 1
        state = (np.zeros((tm.num_rows, tm.num_rows, 0, phi), dtype=np.int64), None,
                 _layout_violations(tm), _pair_labels(tm), {})
    tally, _, *rest = state
    have = tally.shape[2]
    if have <= top:
        shifts = np.arange(have, min(tm.width, max(top + 1, 2 * have, _FIRST_BLOCK)))
        block = cross_tally(tm.values, tm.mask, tm.values, tm.mask, tm.q, shifts)
        tally = np.concatenate((tally, block @ reduction_matrix(tm.q)[:, : tally.shape[3]]), axis=2)
        tally.setflags(write=False)
        hit, rows = tally.any(axis=-1), range(tm.num_rows)
        hit[rows, rows, 0] = False
        state = (tally, np.array(hit_keys(hit), dtype=np.int64), *rest)
        object.__setattr__(tm, "_zone", state)
    return state


def _check_delay_spread(tm: TrainingMatrix, delay_spread: int) -> int:
    (delay_spread,) = as_ints((delay_spread,), "delay spread")
    if not 0 <= delay_spread < tm.width:
        raise ValueError("delay spread must lie in [0, matrix width)")
    return delay_spread


def check_design_criterion(tm: TrainingMatrix, delay_spread: int) -> Verdict:
    """Exact check of the optimal-estimation conditions at one delay spread.

    Requires every time slot to carry exactly one symbol per antenna of
    the group serving it (Na for full groups), every row to carry the
    designed energy, and the periodic correlations to vanish for shifts
    1..delay_spread (same row) and 0..delay_spread (distinct rows).  The
    row-energy check is the zero-shift autocorrelation condition: a row's
    in-phase autocorrelation counts its live entries, so each such fault
    is reported once, as row-energy.  Every delay spread reads the state
    cached on the matrix (``_zone``): its sparsity and row-energy faults,
    then its hits at shifts 0..delay_spread in (row, pair, shift) order.
    """
    delay_spread = _check_delay_spread(tm, delay_spread)
    tally, keys, layout, labels, memo = _zone(tm, delay_spread)
    keys = keys[keys < (delay_spread + 1) * tm.num_rows**2].tolist()  # shift-major: shifts <= spread
    return Verdict(tuple(layout + memo_violations(memo, tally, tm.q, keys, labels)))


def design_width(tm: TrainingMatrix) -> int:
    """The largest delay spread at which :func:`check_design_criterion` passes; -1 if none.

    That is -1 when the sparsity or row-energy check fails, and otherwise the least shift
    of a correlation hit minus one, or W - 1 when no shift has one.  The cached tally grows
    only until it holds a hit.
    """
    tally, keys, layout, *_ = _zone(tm, 0)
    if layout:
        return -1
    while not len(keys) and tally.shape[2] < tm.width:
        tally, keys, *_ = _zone(tm, tally.shape[2])
    return int(keys.min()) // tm.num_rows**2 - 1 if len(keys) else tm.width - 1


def build_ls_model_matrix(tm: TrainingMatrix, delay_spread: int) -> np.ndarray:
    """Stacked circulant blocks [X_1 ... X_Nt] for least-squares estimation.

    Column c of block p is the p-th row delayed cyclically by c, so entry
    (t, c) is x_p[(t - c) mod width]; the block has delay_spread + 1
    columns.
    """
    delay_spread = _check_delay_spread(tm, delay_spread)
    rows = tm.complex_rows()
    delays = (np.arange(tm.width) - np.arange(delay_spread + 1)[:, None]) % tm.width
    # transposed from C-ordered (P*(d+1), W), the layout whose BLAS sums the outputs pin
    return np.take(rows, delays, axis=1).reshape(-1, tm.width).T


@dataclass(frozen=True)
class ActivationTable:
    """The antenna patterns addressable by the index bits of one symbol."""

    patterns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("activation patterns must be distinct")

    @property
    def index_bits(self) -> int:
        return len(self.patterns).bit_length() - 1


def activation_table(cfg: GSMConfig) -> ActivationTable:
    """2^floor(log2 C(Nt, Na)) activation patterns with their bit indexing.

    The (4, 2) table is pinned to the conventional four-pattern choice;
    other shapes take the lexicographically first patterns, which is a
    free choice as far as the training design is concerned.
    """
    nt, na = cfg.transmit_antennas, cfg.active_antennas
    if (nt, na) == (4, 2):
        return ActivationTable(((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)))
    keep = 1 << (math.comb(nt, na).bit_length() - 1)
    positions = list(islice(combinations(range(nt), na), keep))
    rows = np.eye(nt, dtype=int)[positions].sum(axis=1)
    return ActivationTable(tuple(map(tuple, rows.tolist())))


def map_bits_to_gsm_block(bits, cfg: GSMConfig) -> np.ndarray:
    """Map a bit string to an Nt x T block of BPSK symbols (0 = silent).

    Each symbol consumes the index bits of ``activation_table(cfg)`` to
    pick an activation pattern, then one bit per active antenna ('0' sends +1, '1' sends -1),
    assigned to the active antennas in ascending order.  BPSK is the only constellation.
    """
    raw = np.frombuffer(bits.strip().encode(), np.uint8) - ord("0") if isinstance(bits, str) else np.asarray(bits)
    if raw.ndim != 1 or ((raw != 0) & (raw != 1)).any():  # int() would truncate 0.7 and reject 'a' itself
        raise ValueError("bits must be 0 or 1")
    table = activation_table(cfg)
    index_bits = table.index_bits
    per_symbol = index_bits + cfg.active_antennas
    if raw.size % per_symbol:
        raise ValueError(f"bit count must be a multiple of {per_symbol}")
    symbols = raw.astype(np.int64).reshape(-1, per_symbol)
    index = symbols[:, :index_bits] @ (1 << np.arange(index_bits - 1, -1, -1))  # MSB first
    patterns = np.array(table.patterns, dtype=bool)
    block = np.zeros((cfg.transmit_antennas, len(symbols)), dtype=np.int8)
    block.T[patterns[index]] = 1 - 2 * symbols[:, index_bits:].ravel()  # antennas ascending
    return block


def training_matrix_to_csv(tm: TrainingMatrix) -> str:
    """Rows as CSV: +1/-1/0 entries for binary alphabets, complex otherwise."""
    out = io.StringIO()
    writer = csv.writer(out)
    if tm.q == 2:
        writer.writerows(np.where(tm.mask, 1 - 2 * tm.values, 0).tolist())
    else:
        roots = np.array([f"{z.real:.12g}{z.imag:+.12g}j" for z in root_table(tm.q)])
        writer.writerows(np.where(tm.mask, roots[tm.values], "0").tolist())
    return out.getvalue()


def training_matrix_meta(tm: TrainingMatrix) -> dict:
    return {
        "source": tm.source,
        "Nt": tm.num_rows,
        "Na": tm.active_antennas,
        "V": tm.group_count,
        "N": tm.blocks_per_row,
        "L": tm.block_length,
        "E": tm.energy,
    }
