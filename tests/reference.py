"""Explicit references that the tests pin the package against.

No library path needs these, so they live beside the tests.  Each one
restates a value one term at a time: sums, negation and conjugation of
exact values; the scalar magnitude that ``cyclotomic.magnitudes`` must
equal bit for bit; the periodic correlation assembled from two aperiodic
halves; the complex image, negation and concatenation of sequences; the
Monte-Carlo LS error drawn one noise vector per trial; a reader of
shift-set windows over a reduced tally and the periodic zone tallied
afresh through it, which the periodic check of a sequence set must
equal; the design criterion tallied afresh at each delay spread; the
set-sum checks reading their windows afresh at each call; a
generalized Boolean function evaluated at one point, term by term; the
set rows that laid each set out as one row for the kernel before it had
a member axis; the set sums rho and rho-hat counted member by member;
the profile CSV written one ``str.format`` call per row; and the JSON
type check of an input document made one element at a time.
None of these reads the hit lists of ``eczcs.verify``.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from eczcs import PhaseSequence, Verdict, Violation, accf
from eczcs.correlation import cyclic_tally, set_sum_tally
from eczcs.cyclotomic import CycloInt, magnitudes, reduction_matrix, root_table
from eczcs.training import _live


def zero(q: int) -> CycloInt:
    return CycloInt(q, (0,) * q)


def integer(q: int, value: int) -> CycloInt:
    return CycloInt(q, (value,) + (0,) * (q - 1))


def root(q: int, power: int = 1) -> CycloInt:
    counts = [0] * q
    counts[power % q] = 1
    return CycloInt(q, counts)


def add(a: CycloInt, b: CycloInt) -> CycloInt:
    if a.q != b.q:
        raise ValueError(f"mixed root orders {a.q} and {b.q}")
    return CycloInt(a.q, tuple(x + y for x, y in zip(a.counts, b.counts)))


def neg(a: CycloInt) -> CycloInt:
    return CycloInt(a.q, tuple(-c for c in a.counts))


def sub(a: CycloInt, b: CycloInt) -> CycloInt:
    return add(a, neg(b))


def cyclo_sum(q: int, values) -> CycloInt:
    """The exact sum of CycloInt values of root order q (zero when there are none)."""
    return reduce(add, values, zero(q))


def conjugate(a: CycloInt) -> CycloInt:
    flipped = [0] * a.q
    for j, c in enumerate(a.counts):
        flipped[(-j) % a.q] += c
    return CycloInt(a.q, flipped)


def mag_sq(a: CycloInt):
    """Squared magnitude: an exact integer for q in {2, 4}, float otherwise."""
    if a.q in (2, 4):  # a canonical q = 2 vector is (c0, 0)
        return a.counts[0] ** 2 + a.counts[1] ** 2
    return abs(a.to_complex()) ** 2


def magnitude(a: CycloInt) -> float:
    """|a| from the scalar arithmetic: an exact integer square root when there is one."""
    m = mag_sq(a)
    if isinstance(m, int):
        r = math.isqrt(m)
        if r * r == m:
            return float(r)
    return math.sqrt(m)


def pccf_via_accf(s0: PhaseSequence, s1: PhaseSequence, u: int) -> CycloInt:
    """Periodic correlation assembled from the two aperiodic halves.

    The plain aperiodic value at u = 0; otherwise the aperiodic value plus
    the conjugated swapped value at the complementary shift.  ``accf``
    rejects mixed pairs and shifts outside (-L, L).
    """
    length = s0.length
    if u == 0:
        return accf(s0, s1, 0)
    if u > 0:
        return add(accf(s0, s1, u), conjugate(accf(s1, s0, length - u)))
    return add(conjugate(accf(s1, s0, -u)), accf(s0, s1, length + u))


def gbf_evaluate(func, index: int) -> int:
    """The value of a :class:`~eczcs.GBF` at the point whose bits are the binary digits of index."""
    if not 0 <= index < (1 << func.m):
        raise ValueError(f"index {index} outside 0..{(1 << func.m) - 1}")
    total = 0
    for variables, coeff in func.terms:
        if all((index >> (v - 1)) & 1 for v in variables):
            total += coeff
    return total % func.q


def set_rows(fam) -> tuple[np.ndarray, np.ndarray]:
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


def set_sums_by_member(q: int, phases) -> np.ndarray:
    """The raw counts behind ``set_sum_tally`` of an (M, N, L) phase array in Z_q, laid out as it
    is, shape (M, M, 3L-1, q): column u
    (0 <= u < L) counts rho(u), the sum over n of member n of set m1 against member n of m2;
    column u + 2L-1 (|u| < L) counts rho-hat(u), member n of m1 against (n + 1) mod N of m2.
    Each aperiodic correlation is one direct count of (a[k+u] - b[k]) mod q over the overlap."""
    m, n, length = np.shape(phases)
    phases = np.asarray(phases).tolist()
    out = np.zeros((m, m, 3 * length - 1, q), dtype=np.int64)
    for column, (lag, u) in enumerate([(0, u) for u in range(length)] + [(1, u) for u in range(1 - length, length)]):
        for m1 in range(m):
            for m2 in range(m):
                for k in range(n):
                    a, b = phases[m1][k], phases[m2][(k + lag) % n]
                    for t in range(max(0, -u), min(length, length - u)):
                        out[m1, m2, column, (a[t + u] - b[t]) % q] += 1
    return out


def profile_csv_per_row(profile) -> str:
    """The CSV of a :class:`~eczcs.CorrelationProfile` one ``str.format`` call per row, the
    bytes ``CorrelationProfile.to_csv`` must equal: rows (u, magnitude, is_zero), CRLF ends."""
    mags = magnitudes(profile.q, profile.counts).tolist()
    zeros = (~profile.counts.any(axis=1)).astype(int).tolist()
    return "u,magnitude,is_zero\r\n" + "".join(map("{},{:.12g},{}\r\n".format, profile.shifts, mags, zeros))


def is_json_by_element(x, kinds, depth: int = 0) -> bool:
    """The type check of ``sequences.is_json`` one element at a time, recursing per list entry."""
    if depth:
        return isinstance(x, list) and all(is_json_by_element(y, kinds, depth - 1) for y in x)
    return isinstance(x, kinds) and not isinstance(x, bool)


def modulate(seq):
    """Complex image of a sequence (or set, or family): entry t equals exp(2*pi*1j*p_t/q)."""
    return root_table(seq.q)[seq.array()]


def negate(seq: PhaseSequence) -> PhaseSequence:
    """The sequence whose modulation is the elementwise negation (add q/2)."""
    half = seq.q // 2
    return PhaseSequence(seq.q, tuple((p + half) % seq.q for p in seq.phases))


def concat(a: PhaseSequence, b: PhaseSequence) -> PhaseSequence:
    if a.q != b.q:
        raise ValueError(f"cannot concatenate alphabets Z_{a.q} and Z_{b.q}")
    return PhaseSequence(a.q, a.phases + b.phases)


def noise_stream_mse(X, sigma2: float, trials: int, seed: int, index: int) -> float:
    """Normalized MSE of grid point ``index`` from per-trial noise, the stream of 0.7.0 and 0.8.0.

    The LS error of a trial is S n with S = (X^H X)^-1 X^H.  Trials run in
    blocks of 32, the last one partial; block b draws
    ``default_rng((seed, index, b)).standard_normal((count, width, 2))``, read
    as count unit-variance complex vectors z with real and imaginary parts
    interleaved, and n = sqrt(sigma2 / 2) z.
    """
    solver = np.linalg.inv(X.conj().T @ X) @ X.conj().T
    dim, width = solver.shape
    total = 0.0
    for block, start in enumerate(range(0, trials, 32)):
        count = min(32, trials - start)
        parts = np.random.default_rng((seed, index, block)).standard_normal((count, width, 2))
        error = (parts[..., 0] + 1j * parts[..., 1]) @ solver.T
        total += float(np.vdot(error, error).real)
    return sigma2 / 2.0 * total / (trials * dim)


def read_windows(reduced, q: int, same, cross, labels, first: int = 0) -> list[Violation]:
    """The violations of a reduced tally [row, row, shift - first, vector]: pair (i, j) must
    vanish on the shift set ``same`` if i == j, on ``cross`` otherwise.  Every nonzero entry
    inside its pair's window is a record, in (row, pair, shift) order, labelled ``labels[i, j]``."""
    in_window = np.zeros((2, reduced.shape[2]), dtype=bool)
    for side, window in zip(in_window, (same, cross)):
        side[np.fromiter(window, dtype=np.int64) - first] = True
    window = np.where(np.eye(len(reduced), dtype=bool)[:, :, None], *in_window)
    i, j, k = np.nonzero(reduced.any(axis=-1) & window)
    return list(map(Violation, np.asarray(labels, dtype=object)[i, j].tolist(), zip(i.tolist(), j.tolist()),
                    (k + first).tolist(), magnitudes(q, reduced[i, j, k]).tolist()))


def zone_violations(values, masks, q: int, width: int, labels) -> list[Violation]:
    """The periodic zone of every ordered row pair tallied afresh at shifts 0..width: shifts
    1..width of a row against itself, 0..width of distinct rows."""
    reduced = cyclic_tally(values, masks, q, np.arange(width + 1)) @ reduction_matrix(q)
    return read_windows(reduced, q, range(1, width + 1), range(width + 1), labels)


def criterion_per_spread(tm, delay_spread: int) -> Verdict:
    """The design criterion of 0.9.0, which tallied every row pair at shifts 0..delay_spread
    again at each delay spread: sparsity faults, row-energy faults, then the zone hits of
    :func:`zone_violations` labelled by interference mechanism."""
    col_counts, energies = tm.mask.sum(axis=0), tm.mask.sum(axis=1)
    expected = _live(tm.num_rows, tm.active_antennas, tm.blocks_per_row, tm.block_length).sum(axis=0)
    violations = [Violation("sparsity", (int(c),), 0, float(col_counts[c]))
                  for c in np.nonzero(col_counts != expected)[0]]
    violations += [Violation("row-energy", (int(i),), 0, float(energies[i]))
                   for i in np.nonzero(energies != tm.energy)[0]]
    group = np.arange(tm.num_rows) // tm.active_antennas
    gi, gj, last = group[:, None], group, tm.group_count - 1
    rules = [np.eye(tm.num_rows, dtype=bool), gi == gj, (gi == 0) & (gj == last), gi == gj + 1]
    names = ["isi", "iai-same-group", "iai-wrap", "iai-adjacent-group"]
    labels = np.select(rules, names, "iai-separated")
    violations += zone_violations(tm.values, tm.mask, tm.q, delay_spread, labels)
    return Verdict(tuple(violations))


def _set_sum_read(fam, rotation: int, same, cross, kinds) -> list:
    """One window read of the set sums at a rotation (0: rho, 1: rho-hat) of every set pair."""
    labels = np.where(np.eye(fam.num_sets, dtype=bool), *kinds).astype(object)
    first = -rotation * (2 * fam.length - 1)
    return read_windows(set_sum_tally(fam), fam.q, same, cross, labels, first)


def set_sum_check_per_call(kind: str, fam, width: int) -> Verdict:
    """The zccs, szccs, eczcs, mocs and ccc checks of 0.9.0 (mocs and ccc at every shift, so
    ignoring the width), which built every window as a shift list and read it from the
    family's set-sum tally again at each call."""
    length, sets = fam.length, ("same-set", "cross-set")
    if kind in ("zccs", "mocs", "ccc"):
        width = width if kind == "zccs" else length
        violations = _set_sum_read(fam, 0, range(1, width), range(width), sets)
        m, n = fam.num_sets, fam.set_size
        if kind == "ccc" and m != n:
            violations.append(Violation("ccc-shape", (m, n), 0, float(abs(m - n))))
        return Verdict(tuple(violations))
    same = [*range(1, min(width, length - 1) + 1), *range(max(1, length - width), length)]
    violations = _set_sum_read(fam, 0, same, [0, *same], sets)
    if kind == "eczcs":
        tail = [*range(1 - length, width - length + 1), *range(length - width, length)]
        violations += _set_sum_read(fam, 1, tail, tail, ("cross-channel",) * 2)
    return Verdict(tuple(violations))
