"""Explicit references that the tests pin the package against.

No library path needs these, so they live beside the tests.  Each one
restates a value one term at a time: sums, negation and conjugation of
exact values; the scalar magnitude that ``cyclotomic.magnitudes`` must
equal bit for bit; the periodic correlation assembled from two aperiodic
halves; the complex image, negation and concatenation of sequences; the
Monte-Carlo LS error drawn one noise vector per trial; the design
criterion tallied afresh at each delay spread; and the set-sum checks
reading their windows afresh at each call.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from eczcs import PhaseSequence, Verdict, Violation, accf
from eczcs.cyclotomic import CycloInt, root_table
from eczcs.training import _live
from eczcs.correlation import set_sum_tally
from eczcs.verify import read_windows, zone_violations


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


def criterion_per_spread(tm, delay_spread: int) -> Verdict:
    """The design criterion of 0.9.0, which tallied every row pair at shifts 0..delay_spread
    again at each delay spread: sparsity faults, row-energy faults, then the zone hits of
    ``zone_violations`` labelled by interference mechanism."""
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
