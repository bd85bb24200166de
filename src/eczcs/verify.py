"""Classifiers for complementary sequence-set families and their bounds.

Checks are exact: a verdict lists every violating (pairing, shift) rather
than stopping at the first failure, which makes construction debugging
practical.  Shift windows follow the written set definitions, with one
corner handled explicitly: when the declared zone width equals the
sequence length, the same-set window is intersected with {1..L-1} so the
unavoidable in-phase peak is not reported as a violation.

Every check is one zone scan, :func:`zone_violations`, over rows: the
sequences or training rows for the periodic checks, the silent-gapped
set rows of :func:`~eczcs.correlation.set_rows` (where rho and rho-hat
are cyclic tallies) for the set sums.  A scan takes its windows as shift
sets, one for a row against itself and one for distinct rows, and
reports in (row, pair, shift) order, ascending in each.  All row pairs
come from one batched tally, zeros from one multiply by the reduction
matrix, and the reported magnitudes from one vectorised step over the
reduced counts: no CycloInt is built anywhere in a scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import cyclic_tally, set_rows
from .cyclotomic import magnitudes, reduction_matrix
from .sequences import Family, PhaseSequence, SequenceSet


@dataclass(frozen=True)
class Violation:
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
            "violations": [
                {
                    "check": v.check,
                    "indices": list(v.indices),
                    "shift": v.shift,
                    "magnitude": v.magnitude,
                }
                for v in self.violations
            ],
        }


def _check_width(width: int, length: int) -> None:
    if not 0 <= width <= length:
        raise ValueError(f"zone width {width} outside 0..{length} (the sequence length)")


def zone_violations(values, masks, q: int, same, cross, label, offset: int = 0) -> list[Violation]:
    """Nonzero cyclic correlations of every ordered row pair on its window.

    Rows are silent where their masks (broadcast against the rows; None:
    all live) are False.  The windows are shift sets (overlaps and repeats
    are harmless): pair (i, j) must vanish at every u in ``same`` if
    i == j, in ``cross`` otherwise, u being tallied at u + offset.  One
    batched :func:`~eczcs.correlation.cyclic_tally` call covers the
    windows' hull, one multiply with the reduction matrix decides the
    zeros, and one ``np.nonzero`` under the window mask gives the hits in
    (row, pair, shift) order, labelled label(i, j), with their magnitudes
    from one :func:`~eczcs.cyclotomic.magnitudes` call for the whole scan.
    """
    same, cross = (np.fromiter(w, dtype=np.int64) for w in (same, cross))
    both = np.concatenate((same, cross))
    if not len(both):
        return []
    lo = both.min()
    in_window = np.zeros((2, both.max() - lo + 1), dtype=bool)  # same, cross over the hull
    in_window[0, same - lo] = in_window[1, cross - lo] = True
    shifts = lo + offset + np.arange(in_window.shape[1])
    reduced = cyclic_tally(values, masks, q, shifts) @ reduction_matrix(q)
    window = np.where(np.eye(len(reduced), dtype=bool)[:, :, None], *in_window)
    i, j, k = np.nonzero(reduced.any(axis=-1) & window)
    hits = zip(i.tolist(), j.tolist(), (k + lo).tolist())
    return [
        Violation(label(a, b), (a, b), u, m)
        for (a, b, u), m in zip(hits, magnitudes(q, reduced[i, j, k]).tolist())
    ]


def check_zcz_set(sset: SequenceSet, width: int) -> Verdict:
    """Periodic zero-correlation-zone test for a single sequence set.

    Autocorrelations must vanish for 1 <= |u| <= width and cross
    correlations for |u| <= width.  Negative shifts follow from conjugate
    symmetry because every ordered pair is checked.
    """
    _check_width(width, sset.length)
    top = min(width, sset.length - 1)
    rows, kinds = [s.array() for s in sset.members], ("zcz-auto", "zcz-cross")
    violations = zone_violations(rows, None, sset.q, range(1, top + 1), range(top + 1),
                                 lambda i, j: kinds[i != j])
    return Verdict(tuple(violations))


def _set_sum_violations(fam: Family, rotation: int, same, cross, kinds) -> list[Violation]:
    """Window violations of the set sums at a rotation (0: rho, 1: rho-hat) of every set pair.

    Both are cyclic tallies of the set rows, for |u| < L: rho at u,
    rho-hat at u - (2L-1).
    """
    rows, live = set_rows(fam.sets)
    offset = -rotation * (2 * fam.length - 1)
    return zone_violations(rows, live, fam.q, same, cross, lambda i, j: kinds[i != j], offset)


def check_zccs(fam: Family, width: int) -> Verdict:
    """Z-complementary code set test at the given zone width.

    Same-set sums must vanish for 0 < |u| < width and cross-set sums for
    |u| < width.  A same-set sum at u=0 is N*L for every unimodular
    family, so it is not checked.
    """
    _check_width(width, fam.length)
    violations = _set_sum_violations(fam, 0, range(1, width), range(width), ("same-set", "cross-set"))
    return Verdict(tuple(violations))


def check_mocs(fam: Family) -> Verdict:
    """Mutually orthogonal complementary set: zone covers every shift."""
    return check_zccs(fam, fam.length)


def check_ccc(fam: Family) -> Verdict:
    """Complete complementary code: a mutually orthogonal set with M = N."""
    verdict = check_mocs(fam)
    if fam.num_sets != fam.set_size:
        extra = Violation(
            "ccc-shape", (fam.num_sets, fam.set_size), 0, float(abs(fam.num_sets - fam.set_size))
        )
        return Verdict(verdict.violations + (extra,))
    return verdict


def _symmetric_zone_violations(fam: Family, width: int) -> list[Violation]:
    """Front- and tail-window zeroness of the plain set correlation sums."""
    length = fam.length
    same = [*range(1, min(width, length - 1) + 1), *range(max(1, length - width), length)]
    return _set_sum_violations(fam, 0, same, [0, *same], ("same-set", "cross-set"))


def check_szccs(fam: Family, width: int) -> Verdict:
    """Symmetrical Z-complementary code set: both zone ends, no rotation."""
    _check_width(width, fam.length)
    return Verdict(tuple(_symmetric_zone_violations(fam, width)))


def check_eczcs(fam: Family, width: int) -> Verdict:
    """Enhanced cross Z-complementary set test.

    On top of the symmetrical zone condition, the rotated cross-channel
    sums of every ordered set pair (both orders, and each set against
    itself) must vanish on the tail window.  The rotated sum has no
    swap-and-conjugate symmetry, so both shift signs are evaluated.
    """
    length = fam.length
    _check_width(width, length)
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
    flat = (tuple(p for s in st.members for p in s.phases) for st in fam.sets)
    return SequenceSet(tuple(PhaseSequence(fam.q, phases) for phases in flat))
