"""Length-doubling construction from verified seeds, plus the seed library.

The builder takes an (M, N, L, Z+1) Z-complementary code set and emits an
(M, N, 2L, Z) enhanced cross Z-complementary set: member pairs are
concatenated plainly for the first half of the output set and with the
second half negated for the rest.  Seeds are re-verified before use; a
``force`` escape hatch exists for experiments with unverified input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import as_ints
from .gbf import PartitionSpec, lemma2_ccc
from .sequences import Family, SequenceSet, load_fixture_family
from .verify import Verdict, check_kind, check_zccs


class SeedVerificationError(ValueError):
    """A seed family failed the complementarity check it was declared with."""

    def __init__(self, message: str, verdict: Verdict):
        super().__init__(message)
        self.verdict = verdict


def theorem2_construct(seed: Family, declared_width: int, *, force: bool = False) -> Family:
    """Double a Z-complementary code set into an enhanced cross family.

    Parameters
    ----------
    seed : Family
        An (M, N, L, declared_width) Z-complementary code set with even N.
    declared_width : int
        The seed's zone width; the output family has a zone one narrower.
    force : bool
        Skip the seed re-verification (for experimentation only); the
        declared width must still lie in 1..L.

    If the seed is mutually orthogonal (zone equal to L), the output zone
    reaches L, half the doubled length, which is optimal for binary seeds
    with M = N.
    """
    if seed.set_size % 2:
        raise ValueError("the seed sets must contain an even number of sequences")
    (declared_width,) = as_ints((declared_width,), "declared seed width")
    if not 1 <= declared_width <= seed.length:
        raise ValueError(f"declared seed width {declared_width} outside 1..{seed.length}")
    if not force:
        verdict = check_zccs(seed, declared_width)
        if not verdict.passed:
            raise SeedVerificationError(
                f"seed fails the zone-width-{declared_width} check "
                f"({len(verdict.violations)} violations); pass force=True to override",
                verdict,
            )
    even, odd = seed.array()[:, 0::2], seed.array()[:, 1::2]
    # member n joins members 2n and 2n+1; member n + N/2 joins 2n and the negated 2n+1
    return Family.from_array(seed.q, np.block([[even, odd], [even, (odd + seed.q // 2) % seed.q]]))


def golay_pair(length: int) -> SequenceSet:
    """A binary complementary pair of the given power-of-two length."""
    if length < 1 or length & (length - 1):
        raise ValueError(f"pair length must be a power of two, got {length}")
    a = b = np.zeros(1, dtype=np.int64)
    while len(a) < length:
        a, b = np.r_[a, b], np.r_[a, 1 - b]
    return SequenceSet.from_array(2, np.stack((a, b)))


@dataclass(frozen=True)
class SeedLibraryEntry:
    """A named, re-verified seed family for the doubling construction."""

    id: str
    kind: str  # "zccs" | "mocs" | "ccc"
    family: Family
    params: tuple[int, int, int, int]  # (M, N, L, Z)
    note: str


def _entry(id: str, kind: str, family: Family, width: int, note: str) -> SeedLibraryEntry:
    verdict = check_kind(kind, family, width)
    if not verdict.passed:
        raise SeedVerificationError(f"catalog entry {id!r} fails its declared check", verdict)
    return SeedLibraryEntry(
        id, kind, family, (family.num_sets, family.set_size, family.length, width), note
    )


@lru_cache(maxsize=1)
def seed_catalog() -> tuple[SeedLibraryEntry, ...]:
    """Built-in seeds, each re-verified against its declared class on load."""
    return tuple(_entry(*row) for row in (
        ("zccs-2-2-12-10", "zccs", load_fixture_family("zccs_2x2x12"), 10,
         "reference binary (2,2,12,10) seed; doubling it gives the (2,2,24,9) enhanced family"),
        ("zccs-2-2-24-10-nonc2", "zccs", load_fixture_family("zccs_2x2x24_nonc2"), 10,
         "width-10 code set whose rotated cross-channel sums are nonzero in the tail zone; "
         "simulation baseline only"),
        ("ccc-2-4", "ccc", lemma2_ccc(PartitionSpec(2, ((1, 2),)), q=2), 4,
         "smallest chained-function complete code (2 sets of 2, length 4)"),
        ("ccc-2-8", "ccc", lemma2_ccc(PartitionSpec(3, ((1, 2, 3),)), q=2), 8,
         "chained-function complete code, length 8"),
        ("ccc-4-16", "ccc", lemma2_ccc(PartitionSpec(4, ((1, 2), (3, 4))), q=2), 16,
         "two-chain complete code with 4 sets of 4, length 16"),
        ("gcp-4", "mocs", Family((golay_pair(4),)), 4, "single binary complementary pair, length 4"),
        ("gcp-8", "mocs", Family((golay_pair(8),)), 8, "single binary complementary pair, length 8"),
    ))


def catalog_entry(entry_id: str) -> SeedLibraryEntry:
    for entry in seed_catalog():
        if entry.id == entry_id:
            return entry
    known = ", ".join(e.id for e in seed_catalog())
    raise KeyError(f"no catalog seed {entry_id!r} (known: {known})")
