"""Classifiers for complementary sequence-set families and their bounds.

Checks are exact: a verdict lists every violating (pairing, shift) rather
than stopping at the first failure, which makes construction debugging
practical.  Shift windows follow the written set definitions, with one
corner handled explicitly: when the declared zone width equals the
sequence length, the same-set window is intersected with {1..L-1} so the
unavoidable in-phase peak is not reported as a violation.

Every check is one filter of a cached :class:`HitList`, the nonzero
entries of a reduced tally in (row, pair, shift) order:
:func:`read_hits` keeps the hits whose threshold, the least zone width
whose window holds them, is at most the width, and returns their records,
labelled from a table of check names per row pair, each built once with
its magnitude from the reduced counts: no CycloInt is built in a check.
The set-sum checks read two hit lists per family, rho and rho-hat of
:func:`~eczcs.correlation.set_sum_tally`, with thresholds from the shift
u: u + 1 (zccs), min(u, L - u) (szccs) and L - |u| (rho-hat).  The
periodic check of a sequence set and the GSM design criterion read one
:func:`periodic_hits` per sequence set or training matrix, whose threshold
is the shift itself; the Monte-Carlo MSE reads the same tally as X^H X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .correlation import cyclic_tally, set_sum_tally
from .cyclotomic import as_ints, magnitudes, reduce_tally
from .sequences import Family, SequenceSet


class Violation(NamedTuple):
    check: str
    indices: tuple[int, ...]
    shift: int
    magnitude: float


@dataclass(frozen=True)
class Verdict:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        raise TypeError("a Verdict has no truth value; read its .passed")

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [{**v._asdict(), "indices": list(v.indices)} for v in self.violations],
        }


def _check_width(width: int, length: int) -> int:
    (width,) = as_ints((width,), "zone width")
    if not 0 <= width <= length:
        raise ValueError(f"zone width {width} outside 0..{length} (the sequence length)")
    return width


class HitList(NamedTuple):
    """The nonzero entries of a reduced tally [row, row, shift - first, vector] that a check
    may read, in (row, pair, shift) order: each one's shift-major key (shift column * rows +
    row) * rows + pair, which stays the same when the tally grows along its shifts, and its
    shift, both in the smallest integer dtype that holds them (the shifts' dtype also holds
    every threshold); ``memo`` keeps every record built, by key."""

    tally: np.ndarray
    keys: np.ndarray
    shifts: np.ndarray
    memo: dict


def _hit_list(tally, first: int, energy: bool, memo: dict) -> HitList:
    """The hit list of a reduced tally whose column c holds shift c + first, less each row's
    in-phase energy at shift 0 (never checked) if ``energy``."""
    hit = tally.any(axis=-1)
    rows, columns = len(hit), hit.shape[2]
    if energy:
        hit[range(rows), range(rows), -first] = False
    pairs, column = np.divmod(np.flatnonzero(hit), columns)  # pairs: row * rows + pair
    keys = (column * rows**2 + pairs).astype(np.min_scalar_type(hit.size))
    reach = max(-first, first + columns)  # |shift| and every threshold <= reach < -(-reach - 1)
    return HitList(tally, keys, (column + first).astype(np.min_scalar_type(-reach - 1)), memo)


def read_hits(hits: HitList, q: int, select, labels) -> list[Violation]:
    """The violations of the hits a boolean ``select`` picks, in hit-list order.  Each is
    built on first ask, its check name ``labels[i, j]`` read from an (R, R) object table and
    its magnitude from the reduced counts, and kept in the memo."""
    keys, memo = hits.keys[select].tolist(), hits.memo
    try:
        return list(map(memo.__getitem__, keys))
    except KeyError:
        new = np.flatnonzero(select)[[key not in memo for key in keys]]
        k, i, j = np.unravel_index(hits.keys[new], (hits.tally.shape[2], *hits.tally.shape[:2]))
        memo.update(zip(hits.keys[new].tolist(), map(
            Violation, labels[i, j].tolist(), zip(i.tolist(), j.tolist()), hits.shifts[new].tolist(),
            magnitudes(q, hits.tally[i, j, k]).tolist())))
    return list(map(memo.__getitem__, keys))


_FIRST_BLOCK = 16  # shifts in the first block of a periodic tally; later blocks double it


def periodic_hits(owner, values, mask, q: int, top: int) -> HitList:
    """The hit list of the periodic tally of every row pair of ``values`` (silent where
    ``mask``, broadcast against them, is False; None: all live), cached on ``owner`` as
    ``_zone`` and grown to hold shifts 0..top at least, top below the row width W.

    The tally, reduced to the phi(q) canonical columns and read-only, grows in blocks:
    _FIRST_BLOCK shifts first and then at least doubling, up to W, so it never holds all
    W shifts unless a caller asks for them.  A hit's shift is the least zone width whose
    window (shifts 1..width for a row against itself, 0..width for distinct rows) holds it.
    """
    hits = vars(owner).get("_zone")
    have = 0 if hits is None else hits.tally.shape[2]
    if have <= top:
        shifts = np.arange(have, min(values.shape[-1], max(top + 1, 2 * have, _FIRST_BLOCK)))
        block = reduce_tally(q, cyclic_tally(values, mask, q, shifts))
        tally = block if hits is None else np.concatenate((hits.tally, block), axis=2)
        tally.setflags(write=False)
        hits = _hit_list(tally, 0, True, {} if hits is None else hits.memo)
        vars(owner)["_zone"] = hits
    return hits


@lru_cache(maxsize=None)
def _pair_table(rows: int, same: str, cross: str) -> np.ndarray:
    """The (rows, rows) check names, same on the diagonal and cross off it, built once."""
    table = np.where(np.eye(rows, dtype=bool), same, cross).astype(object)
    table.setflags(write=False)
    return table


def check_zcz_set(sset: SequenceSet, width: int) -> Verdict:
    """Periodic zero-correlation-zone test for a single sequence set.

    Autocorrelations must vanish for 1 <= |u| <= width and cross
    correlations for |u| <= width.  Negative shifts follow from conjugate
    symmetry because every ordered pair is checked.
    """
    top = min(_check_width(width, sset.length), sset.length - 1)
    hits, labels = periodic_hits(sset, sset.array(), None, sset.q, top), _pair_table(sset.size, "zcz-auto", "zcz-cross")
    return Verdict(tuple(read_hits(hits, sset.q, hits.shifts <= top, labels)))


def _set_sum_hits(fam: Family, width: int, window: int) -> list[Violation]:
    """The set-sum violations at the width in a window, 0: rho under zccs, 1: rho under
    szccs, 2: rho-hat.  Cached on the family, each rotation built on first use: the hit list
    of rho (shifts 0..L-1, less a same-set rho(0), which is N*L) or of rho-hat (shifts
    -(L-1)..L-1) and its windows' thresholds, the least width whose window holds a hit:
    u + 1 under zccs, min(u, L - u) under szccs (0 for a cross-set rho(0)), L - |u| for
    rho-hat."""
    state, rotation, length = vars(fam).setdefault("_set_sum_hits", {}), window // 2, fam.length
    if rotation not in state:
        part = set_sum_tally(fam)[:, :, length:] if rotation else set_sum_tally(fam)[:, :, :length]
        hits = _hit_list(part, rotation * (1 - length), not rotation, {})
        u = hits.shifts
        state[rotation] = ((hits, length - abs(u)),) if rotation else ((hits, u + 1), (hits, np.minimum(u, length - u)))
    hits, threshold = state[rotation][window % 2]
    labels = _pair_table(fam.num_sets, *[("same-set", "cross-set"), ("cross-channel",) * 2][rotation])
    return read_hits(hits, fam.q, threshold <= width, labels)


def check_zccs(fam: Family, width: int) -> Verdict:
    """Z-complementary code set test at the given zone width.

    Same-set sums must vanish for 0 < |u| < width and cross-set sums for
    |u| < width.  A same-set sum at u=0 is N*L for every unimodular
    family, so it is not checked.
    """
    width = _check_width(width, fam.length)
    return Verdict(tuple(_set_sum_hits(fam, width, 0)))


def check_mocs(fam: Family) -> Verdict:
    """Mutually orthogonal complementary set: zone covers every shift."""
    return check_zccs(fam, fam.length)


def check_ccc(fam: Family) -> Verdict:
    """Complete complementary code: a mutually orthogonal set with M = N."""
    verdict, m, n = check_mocs(fam), fam.num_sets, fam.set_size
    if m != n:
        return Verdict(verdict.violations + (Violation("ccc-shape", (m, n), 0, float(abs(m - n))),))
    return verdict


def check_szccs(fam: Family, width: int) -> Verdict:
    """Symmetrical Z-complementary code set: both zone ends, no rotation."""
    width = _check_width(width, fam.length)
    return Verdict(tuple(_set_sum_hits(fam, width, 1)))


def check_eczcs(fam: Family, width: int) -> Verdict:
    """Enhanced cross Z-complementary set test.

    On top of the symmetrical zone condition, the rotated cross-channel
    sums of every ordered set pair (both orders, and each set against
    itself) must vanish on the tail window.  The rotated sum has no
    swap-and-conjugate symmetry, so both shift signs are evaluated.
    """
    width = _check_width(width, fam.length)
    return Verdict(tuple(_set_sum_hits(fam, width, 1) + _set_sum_hits(fam, width, 2)))


def check_kind(kind: str, fam: Family, width: int) -> Verdict:
    """The check a class name means: zcz (of an M=1 family), zccs, szccs
    or eczcs at the zone width, mocs or ccc at every shift.
    """
    if kind == "zcz":
        if fam.num_sets != 1:
            raise ValueError("the zcz check applies to a single sequence set (M=1 family)")
        return check_zcz_set(fam.sets[0], width)
    checks = {"zccs": check_zccs, "szccs": check_szccs, "eczcs": check_eczcs,
              "mocs": lambda f, _: check_mocs(f), "ccc": lambda f, _: check_ccc(f)}
    if kind not in checks:
        raise ValueError(f"unknown class {kind!r}")
    return checks[kind](fam, width)


def measure_zcz_width(fam: Family) -> int:
    """Largest width at which check_eczcs passes; -1 if none does.

    Window nesting makes the pass predicate monotone (tested): the first
    passing width of a descending scan, one hit-list filter per width
    (the benchmark counts them; ROADMAP item 2), is the maximum.
    """
    for width in range(fam.length, -1, -1):
        if check_eczcs(fam, width).passed:
            return width
    return -1


def eczcs_bound(num_sets: int, set_size: int, length: int, q: int) -> int:
    """Zone-width upper bound N*L/M - 1, or N*L/(2M) for binary families.

    Floor of the exact ratio when the parameters do not divide evenly.
    With N = 1 it is the Tang-Fan-Matsufuji bound of an (M, L, Z)
    zero-correlation-zone sequence set.  The binary value is conjectured,
    so callers report it but never hard-fail a family exceeding it.
    """
    num_sets, set_size, length = as_ints((num_sets, set_size, length), "M, N or L")
    if min(num_sets, set_size, length) < 1:
        raise ValueError(f"need M, N, L >= 1, got ({num_sets}, {set_size}, {length})")
    total = set_size * length
    if q == 2:
        return total // (2 * num_sets)
    return total // num_sets - 1


def is_optimal(fam: Family, width: int) -> bool:
    """Whether the family meets the width bound with exact equality.

    Equality is exact (no floor): a family whose parameters do not divide
    evenly is never optimal, and neither is a width outside 0..L, which
    no zone can have.
    """
    m, n, length = fam.num_sets, fam.set_size, fam.length
    divides = n * length % (2 * m if fam.q == 2 else m) == 0
    meets = divides and width == eczcs_bound(m, n, length, fam.q) and 0 <= width <= length
    return meets and check_eczcs(fam, width).passed


def flatten_to_zcz(fam: Family) -> SequenceSet:
    """Concatenate each set's members into one sequence of length N*L.

    A family passing check_eczcs at width Z flattens to an (M, N*L, Z)
    zero-correlation-zone sequence set under the periodic test.
    """
    return SequenceSet.from_array(fam.q, fam.array().reshape(fam.num_sets, -1))
