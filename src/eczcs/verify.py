"""Classifiers for complementary sequence-set families and their bounds.

Checks are exact: a verdict lists every violating (pairing, shift) rather
than stopping at the first failure, which makes construction debugging
practical.  Shift windows follow the written set definitions, with one
corner handled explicitly: when the declared zone width equals the
sequence length, the same-set window is intersected with {1..L-1} so the
unavoidable in-phase peak is not reported as a violation.

Every check reports the nonzero entries of a reduced tally inside its
windows in (row, pair, shift) order, ascending in each, labelled from a
table of check names per row pair, with magnitudes from one vectorised
step over the reduced counts: no CycloInt is built anywhere in a check.
:func:`memo_violations` builds those records.  The periodic check of a
sequence set tallies shifts 0..width (:func:`zone_violations`); the GSM
design criterion reads one tally per training matrix, cached on it.  The
set-sum checks filter :func:`~eczcs.correlation.set_sum_tally`, rho at
shifts 0..L-1 and rho-hat at every shift of every set pair, cached on the
family with its records, each built once: an entry is in a window from a
threshold width up, and the thresholds depend on L only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .correlation import cyclic_tally, set_sum_tally
from .cyclotomic import as_ints, magnitudes, reduction_matrix
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


def zone_violations(values, masks, q: int, width: int, labels) -> list[Violation]:
    """Nonzero cyclic correlations of every ordered row pair in the periodic zone.

    Rows are silent where their masks (broadcast against the rows; None: all live) are
    False.  Pair (i, j) must vanish at shifts 1..width if i == j, 0..width otherwise, its
    hits labelled ``labels[i, j]``: one batched :func:`~eczcs.correlation.cyclic_tally` of
    shifts 0..width, reduced in one multiply and read by :func:`read_windows`.
    """
    reduced = cyclic_tally(values, masks, q, np.arange(width + 1)) @ reduction_matrix(q)
    return read_windows(reduced, q, range(1, width + 1), range(width + 1), labels)


def read_windows(reduced, q: int, same, cross, labels, first: int = 0) -> list[Violation]:
    """The violations of a reduced tally [row, row, shift - first, vector]: pair (i, j) must
    vanish on the shift set ``same`` if i == j, on ``cross`` otherwise."""
    in_window = np.zeros((2, reduced.shape[2]), dtype=bool)
    for side, w in zip(in_window, (same, cross)):
        side[np.fromiter(w, dtype=np.int64) - first] = True
    window = np.where(np.eye(len(reduced), dtype=bool)[:, :, None], *in_window)
    return memo_violations({}, reduced, q, hit_keys(reduced.any(axis=-1) & window), labels, first)


def hit_keys(hit) -> list[int]:
    """The True entries of a boolean [row, row, shift] mask in (row, pair, shift) order, as
    shift-major positions (shift * rows + row) * rows + pair: keys that stay the same when a
    tally grows along its shifts."""
    i, j, k = np.nonzero(hit)
    return np.ravel_multi_index((k, i, j), (hit.shape[2], *hit.shape[:2])).tolist()


def memo_violations(memo: dict, reduced, q: int, keys, labels, first: int = 0) -> list[Violation]:
    """The violations of a reduced tally [row, row, shift - first, vector] at the positions
    ``keys`` of :func:`hit_keys`, in their order.  Each is built on first ask, its check name
    ``labels[i, j]`` gathered as an object, and kept in ``memo``."""
    try:
        return list(map(memo.__getitem__, keys))
    except KeyError:
        new = np.fromiter(set(keys).difference(memo), dtype=np.int64)
        k, i, j = np.unravel_index(new, (reduced.shape[2], len(reduced), len(reduced)))
        memo.update(zip(new.tolist(), map(
            Violation, np.asarray(labels, dtype=object)[i, j].tolist(), zip(i.tolist(), j.tolist()),
            (k + first).tolist(), magnitudes(q, reduced[i, j, k]).tolist())))
    return list(map(memo.__getitem__, keys))


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
    width = _check_width(width, sset.length)
    labels = _pair_table(sset.size, "zcz-auto", "zcz-cross")
    return Verdict(tuple(zone_violations(sset.array(), None, sset.q, min(width, sset.length - 1), labels)))


@lru_cache(maxsize=None)
def _thresholds(length: int) -> tuple[np.ndarray, ...]:
    """The least zone width whose window holds each shift of a rho or rho-hat table: rho under
    zccs (u + 1) and szccs (min(u, L - u), 0 for a cross-set rho(0)), then rho-hat (L - |u|).
    A same-set rho(0) is N*L and never checked: :func:`_set_sum_hits` masks it out."""
    u = np.arange(length)
    return u + 1, np.minimum(u, length - u), length - abs(np.arange(1 - length, length))


def _set_sum_hits(fam: Family, width: int, window: int) -> list[Violation]:
    """The set-sum violations at the width in a window, 0: rho under zccs, 1: rho under szccs,
    2: rho-hat.  Cached on the family per rotation (rho, rho-hat): its tally columns, their
    nonzero mask and the :func:`memo_violations` memo."""
    state = fam.__dict__.get("_set_sum_hits")
    if state is None:
        tally, length, sets = set_sum_tally(fam), fam.length, range(fam.num_sets)
        live = tally.any(axis=-1)
        live[sets, sets, 0] = False
        state = tuple((tally[:, :, part], live[:, :, part], {}) for part in (np.s_[:length], np.s_[length:]))
        object.__setattr__(fam, "_set_sum_hits", state)
    rotation = window // 2
    reduced, live, memo = state[rotation]
    keys = hit_keys(live & (_thresholds(fam.length)[window] <= width))
    labels = _pair_table(fam.num_sets, *[("same-set", "cross-set"), ("cross-channel",) * 2][rotation])
    return memo_violations(memo, reduced, fam.q, keys, labels, rotation * (1 - fam.length))


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
    passing width of a descending scan, one memo-filtering check per width
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
