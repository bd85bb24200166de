"""Classifiers for complementary sequence-set families and their bounds.

Checks are exact: a verdict lists every violating (pairing, shift) rather
than stopping at the first failure, which makes construction debugging
practical.  Shift windows follow the written set definitions, with one
corner handled explicitly: when the declared zone width equals the
sequence length, the same-set window is intersected with {1..L-1} so the
unavoidable in-phase peak is not reported as a violation.

Every check reads its windows from one reduced tally, :func:`read_windows`.
The periodic check of a sequence set tallies shifts 0..width in
:func:`zone_violations`; the GSM design criterion reads the same windows
from one tally per training matrix, cached on it.  The set-sum checks read
:func:`~eczcs.correlation.set_sum_tally`, rho at shifts 0..L-1 and rho-hat
at every shift of every set pair, cached on the family: one tally however
many checks, widths and profiles read it.  Windows are shift sets, one for a row
against itself and one for distinct rows; hits come in (row, pair, shift)
order, ascending in each, labelled from a table of check names per row
pair, with magnitudes from one vectorised step over the reduced counts: no
CycloInt is built anywhere in a check.
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
    vanish on the shift set ``same`` if i == j, on ``cross`` otherwise.  One mask, one
    ``np.nonzero``, then (when anything is hit) one gather of check names ``labels[i, j]``
    (as objects: hits share the table's strings) and one
    :func:`~eczcs.cyclotomic.magnitudes` call give them in (row, pair, shift) order."""
    in_window = np.zeros((2, reduced.shape[2]), dtype=bool)
    for side, w in zip(in_window, (same, cross)):
        side[np.fromiter(w, dtype=np.int64) - first] = True
    window = np.where(np.eye(len(reduced), dtype=bool)[:, :, None], *in_window)
    i, j, k = np.nonzero(reduced.any(axis=-1) & window)
    if not len(i):
        return []
    return list(map(Violation, np.asarray(labels, dtype=object)[i, j].tolist(),
                    zip(i.tolist(), j.tolist()), (k + first).tolist(),
                    magnitudes(q, reduced[i, j, k]).tolist()))


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


def _set_sum_violations(fam: Family, rotation: int, same, cross, kinds) -> list[Violation]:
    """Window violations of the set sums at a rotation (0: rho, 1: rho-hat) of every set pair."""
    first = -rotation * (2 * fam.length - 1)
    return read_windows(set_sum_tally(fam), fam.q, same, cross, _pair_table(fam.num_sets, *kinds), first)


def check_zccs(fam: Family, width: int) -> Verdict:
    """Z-complementary code set test at the given zone width.

    Same-set sums must vanish for 0 < |u| < width and cross-set sums for
    |u| < width.  A same-set sum at u=0 is N*L for every unimodular
    family, so it is not checked.
    """
    width = _check_width(width, fam.length)
    violations = _set_sum_violations(fam, 0, range(1, width), range(width), ("same-set", "cross-set"))
    return Verdict(tuple(violations))


def check_mocs(fam: Family) -> Verdict:
    """Mutually orthogonal complementary set: zone covers every shift."""
    return check_zccs(fam, fam.length)


def check_ccc(fam: Family) -> Verdict:
    """Complete complementary code: a mutually orthogonal set with M = N."""
    verdict, m, n = check_mocs(fam), fam.num_sets, fam.set_size
    if m != n:
        return Verdict(verdict.violations + (Violation("ccc-shape", (m, n), 0, float(abs(m - n))),))
    return verdict


def _symmetric_zone_violations(fam: Family, width: int) -> list[Violation]:
    """Front- and tail-window zeroness of the plain set correlation sums."""
    length = fam.length
    same = [*range(1, min(width, length - 1) + 1), *range(max(1, length - width), length)]
    return _set_sum_violations(fam, 0, same, [0, *same], ("same-set", "cross-set"))


def check_szccs(fam: Family, width: int) -> Verdict:
    """Symmetrical Z-complementary code set: both zone ends, no rotation."""
    width = _check_width(width, fam.length)
    return Verdict(tuple(_symmetric_zone_violations(fam, width)))


def check_eczcs(fam: Family, width: int) -> Verdict:
    """Enhanced cross Z-complementary set test.

    On top of the symmetrical zone condition, the rotated cross-channel
    sums of every ordered set pair (both orders, and each set against
    itself) must vanish on the tail window.  The rotated sum has no
    swap-and-conjugate symmetry, so both shift signs are evaluated.
    """
    length = fam.length
    width = _check_width(width, length)
    violations = _symmetric_zone_violations(fam, width)
    tail = [*range(1 - length, width - length + 1), *range(length - width, length)]
    violations += _set_sum_violations(fam, 1, tail, tail, ("cross-channel",) * 2)
    return Verdict(tuple(violations))


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

    Window nesting makes the pass predicate monotone in the width, so the
    first passing value of a descending sweep is the maximum.
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
    evenly is never optimal.
    """
    m, n, length = fam.num_sets, fam.set_size, fam.length
    divides = n * length % (2 * m if fam.q == 2 else m) == 0
    meets = divides and width == eczcs_bound(m, n, length, fam.q)
    return meets and check_eczcs(fam, width).passed


def flatten_to_zcz(fam: Family) -> SequenceSet:
    """Concatenate each set's members into one sequence of length N*L.

    A family passing check_eczcs at width Z flattens to an (M, N*L, Z)
    zero-correlation-zone sequence set under the periodic test.
    """
    return SequenceSet.from_array(fam.q, fam.array().reshape(fam.num_sets, -1))
