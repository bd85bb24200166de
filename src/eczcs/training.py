"""Sparse training matrices for generalized spatial modulation.

A training matrix stacks V block-rows of Na antennas each; antenna k in
block v transmits the members of one constituent set in time slots offset
by (v-1)L inside every width-VL sub-block, and stays silent elsewhere.
Zero entries are a distinct marker, never phase 0, so energy accounting
and the correlation checks treat silence correctly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .correlation import cross_tally
from .cyclotomic import CycloInt, root_table
from .sequences import Family
from .verify import Verdict, Violation, zone_violations


@dataclass(frozen=True)
class GSMConfig:
    """Antenna configuration: how many antennas exist and how many drive RF chains (BPSK payload)."""

    transmit_antennas: int
    active_antennas: int

    def __post_init__(self) -> None:
        if not 1 <= self.active_antennas <= self.transmit_antennas:
            raise ValueError("need 1 <= active antennas <= transmit antennas")

    @property
    def group_count(self) -> int:
        """Number of antenna groups V = ceil(Nt / Na)."""
        return -(-self.transmit_antennas // self.active_antennas)


@dataclass(frozen=True)
class TrainingMatrix:
    """Nt rows of length N*V*L over Z_q plus a zero marker (None); V and N are derived."""

    q: int
    rows: tuple[tuple[int | None, ...], ...]
    active_antennas: int
    block_length: int
    source: str = ""

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        if not rows:
            raise ValueError("a training matrix needs at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged training matrix")
            for entry in row:
                if entry is not None and not 0 <= entry < self.q:
                    raise ValueError(f"entry {entry} outside Z_{self.q}")
        object.__setattr__(self, "rows", rows)
        period = self.group_count * self.block_length  # group_count rejects Na outside 1..Nt
        if self.block_length < 1 or width % period:
            raise ValueError(f"need L >= 1 and V*L = {period} dividing the width {width}")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0])

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

    def row_energies(self) -> tuple[int, ...]:
        return tuple(self.values_and_mask()[1].sum(axis=1).tolist())

    def values_and_mask(self) -> tuple[np.ndarray, np.ndarray]:
        """Integer phases (0 where silent) and the non-silent mask, cached."""
        cached = self.__dict__.get("_vm")
        if cached is None:
            vals = np.array(
                [[0 if e is None else e for e in row] for row in self.rows], dtype=np.int64
            )
            mask = np.array([[e is not None for e in row] for row in self.rows])
            vals.setflags(write=False)
            mask.setflags(write=False)
            cached = (vals, mask)
            object.__setattr__(self, "_vm", cached)
        return cached

    def complex_rows(self) -> np.ndarray:
        vals, mask = self.values_and_mask()
        return root_table(self.q)[vals] * mask


def build_training_matrix(fam: Family, cfg: GSMConfig, source: str = "") -> TrainingMatrix:
    """Lay a family out as the sparse training matrix for cfg.

    Row k uses constituent set (k mod Na); its n-th block of L symbols
    sits at offset (k div Na)*L inside the n-th width-VL sub-block.  When
    Nt < V*Na only the first Nt rows of the full stack are kept.
    """
    na = cfg.active_antennas
    if fam.num_sets < na:
        raise ValueError(
            f"family has {fam.num_sets} sets but {na} active antennas need one each"
        )
    v_count = cfg.group_count
    length = fam.length
    width = fam.set_size * v_count * length
    rows = []
    for k in range(cfg.transmit_antennas):
        group, set_index = divmod(k, na)
        offset = group * length
        row: list[int | None] = [None] * width
        for n, member in enumerate(fam.sets[set_index].members):
            start = n * v_count * length + offset
            row[start : start + length] = member.phases
        rows.append(tuple(row))
    return TrainingMatrix(
        q=fam.q,
        rows=tuple(rows),
        active_antennas=na,
        block_length=length,
        source=source,
    )


def training_pccf(tm: TrainingMatrix, i: int, j: int, u: int) -> CycloInt:
    """Periodic cross-correlation of two rows over the zero-extended alphabet."""
    vals, mask = tm.values_and_mask()
    return CycloInt(tm.q, cross_tally(vals[i], mask[i], vals[j], mask[j], tm.q, (u,))[0, 0, 0])


def _pair_label(tm: TrainingMatrix, i: int, j: int) -> str:
    """Which interference mechanism a violating row pair belongs to."""
    if i == j:
        return "isi"
    gi, gj = i // tm.active_antennas, j // tm.active_antennas
    v_count = tm.group_count
    if gi == gj:
        return "iai-same-group"
    if (gi, gj) == (0, v_count - 1) and v_count >= 2:
        return "iai-wrap"  # tail of the cycle; cancelled by the rotated sums
    if gi == gj + 1:
        return "iai-adjacent-group"
    return "iai-separated"


def _column_activity(tm: TrainingMatrix) -> np.ndarray:
    """How many antennas transmit in each time slot.

    Na for every slot of a full antenna group; the final group is smaller
    when the row count is not a multiple of Na (rows beyond it were
    dropped), and then all of its antennas are active in its slots.
    """
    sizes = [
        min(tm.active_antennas, tm.num_rows - v * tm.active_antennas)
        for v in range(tm.group_count)
    ]
    per_block = np.repeat(sizes, tm.block_length)
    return np.tile(per_block, tm.blocks_per_row)


def check_design_criterion(tm: TrainingMatrix, delay_spread: int) -> Verdict:
    """Exact check of the optimal-estimation conditions at one delay spread.

    Requires every time slot to carry exactly one symbol per antenna of
    the group serving it (Na for full groups), every row to carry the
    designed energy, and the periodic correlations to vanish for shifts
    1..delay_spread (same row) and 0..delay_spread (distinct rows).  The
    row-energy check is the zero-shift autocorrelation condition: a row's
    in-phase autocorrelation counts its live entries, so each such fault
    is reported once, as row-energy.
    """
    if not 0 <= delay_spread < tm.width:
        raise ValueError("delay spread must lie in [0, matrix width)")
    violations: list[Violation] = []
    vals, mask = tm.values_and_mask()
    col_counts = mask.sum(axis=0)
    expected = _column_activity(tm)
    for col in np.nonzero(col_counts != expected)[0]:
        violations.append(Violation("sparsity", (int(col),), 0, float(col_counts[col])))
    for i, row_energy in enumerate(tm.row_energies()):
        if row_energy != tm.energy:
            violations.append(Violation("row-energy", (i,), 0, float(row_energy)))
    zone, label = range(delay_spread + 1), lambda i, j: _pair_label(tm, i, j)
    violations += zone_violations(vals, mask, tm.q, zone[1:], zone, label)
    return Verdict(tuple(violations))


def build_ls_model_matrix(tm: TrainingMatrix, delay_spread: int) -> np.ndarray:
    """Stacked circulant blocks [X_1 ... X_Nt] for least-squares estimation.

    Column c of block p is the p-th row delayed cyclically by c, so entry
    (t, c) is x_p[(t - c) mod width]; the block has delay_spread + 1
    columns.
    """
    if not 0 <= delay_spread < tm.width:
        raise ValueError("delay spread must lie in [0, matrix width)")
    rows = tm.complex_rows()
    delays = (np.arange(tm.width) - np.arange(delay_spread + 1)[:, None]) % tm.width
    # transposed from C-ordered (P*(d+1), W), the layout whose BLAS sums the outputs pin
    return np.take(rows, delays, axis=1).reshape(-1, tm.width).T


_PATTERN_TABLE_4_2 = ((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1))


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
        return ActivationTable(_PATTERN_TABLE_4_2)
    total = math.comb(nt, na)
    keep = 1 << (total.bit_length() - 1)
    patterns = []
    for positions in combinations(range(nt), na):
        row = [0] * nt
        for p in positions:
            row[p] = 1
        patterns.append(tuple(row))
        if len(patterns) == keep:
            break
    return ActivationTable(tuple(patterns))


def map_bits_to_gsm_block(bits, cfg: GSMConfig) -> np.ndarray:
    """Map a bit string to an Nt x T block of BPSK symbols (0 = silent).

    Each symbol consumes the index bits of ``activation_table(cfg)`` to
    pick an activation pattern, then one bit per active antenna ('0' sends +1, '1' sends -1),
    assigned to the active antennas in ascending order.  BPSK is the only constellation.
    """
    if isinstance(bits, str):
        bit_list = [int(c) for c in bits.strip()]
    else:
        bit_list = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bit_list):
        raise ValueError("bits must be 0 or 1")
    table = activation_table(cfg)
    per_symbol = table.index_bits + cfg.active_antennas
    if len(bit_list) % per_symbol:
        raise ValueError(f"bit count must be a multiple of {per_symbol}")
    n_symbols = len(bit_list) // per_symbol
    block = np.zeros((cfg.transmit_antennas, n_symbols), dtype=np.int8)
    for t in range(n_symbols):
        chunk = bit_list[t * per_symbol : (t + 1) * per_symbol]
        index = 0
        for b in chunk[: table.index_bits]:
            index = (index << 1) | b
        pattern = table.patterns[index]
        payload = iter(chunk[table.index_bits :])
        for antenna, active in enumerate(pattern):
            if active:
                block[antenna, t] = 1 if next(payload) == 0 else -1
    return block


def training_matrix_to_csv(tm: TrainingMatrix) -> str:
    """Rows as CSV: +1/-1/0 entries for binary alphabets, complex otherwise."""
    out = io.StringIO()
    writer = csv.writer(out)
    if tm.q == 2:
        for row in tm.rows:
            writer.writerow([0 if e is None else (1 if e == 0 else -1) for e in row])
    else:
        table = root_table(tm.q)
        for row in tm.rows:
            writer.writerow(
                ["0" if e is None else f"{table[e].real:.12g}{table[e].imag:+.12g}j" for e in row]
            )
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
