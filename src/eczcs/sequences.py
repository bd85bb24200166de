"""Integer-phase sequences, sequence sets, and families of sets.

Sequence data lives in Z_q for an even alphabet size q; the complex
unit-circle image appears only at the simulation boundary through
:func:`modulate`.  Binary sequences print in the '+'/'-' convention used
by the shipped fixtures.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cyclotomic import root_table

FIXTURE_ENV = "ECZCS_FIXTURES"
_MINUS_GLYPHS = {"-", "−"}
# Largest alphabet an input document may declare: zero tests build a q x q
# reduction matrix.  verify of a 2-set, length-4 family took 0.64 s and
# 57 MB peak RSS at q = 1024, 20 s and 417 MB at 4096, 90 s and 1.5 GB at 8192.
MAX_ALPHABET = 1024
# (low, high, wording) bounds on an integer document value
NON_NEGATIVE = (0, math.inf, "non-negative")
ALPHABET = (-math.inf, MAX_ALPHABET, f"at most {MAX_ALPHABET}")


@dataclass(frozen=True)
class PhaseSequence:
    """A unimodular sequence stored as exponents of the q-th root of unity."""

    q: int
    phases: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 2 or self.q % 2:
            raise ValueError(f"alphabet size must be an even integer >= 2, got {self.q}")
        given = tuple(self.phases)
        phases = tuple(map(int, given))
        if phases != given:
            bad = next(g for g, p in zip(given, phases) if g != p)
            raise ValueError(f"phase {bad} is not an integer")
        if not phases:
            raise ValueError("a sequence must have length >= 1")
        if min(phases) < 0 or max(phases) >= self.q:
            bad = next(p for p in phases if not 0 <= p < self.q)
            raise ValueError(f"phase {bad} lies outside Z_{self.q}")
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def length(self) -> int:
        return len(self.phases)

    def array(self) -> np.ndarray:
        """Phases as a read-only integer vector (cached on first use)."""
        arr = self.__dict__.get("_arr")
        if arr is None:
            arr = np.array(self.phases, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, "_arr", arr)
        return arr


@dataclass(frozen=True)
class SequenceSet:
    """N sequences sharing one length and one alphabet."""

    members: tuple[PhaseSequence, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("a sequence set must have at least one member")
        q, length = members[0].q, members[0].length
        for s in members:
            if s.q != q or s.length != length:
                raise ValueError("set members must share alphabet size and length")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def length(self) -> int:
        return self.members[0].length

    @property
    def q(self) -> int:
        return self.members[0].q


@dataclass(frozen=True)
class Family:
    """M sequence sets sharing one (N, L, q) shape."""

    sets: tuple[SequenceSet, ...]

    def __post_init__(self) -> None:
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("a family must contain at least one set")
        shape = (sets[0].size, sets[0].length, sets[0].q)
        for st in sets:
            if (st.size, st.length, st.q) != shape:
                raise ValueError("family sets must share (N, L, q)")
        object.__setattr__(self, "sets", sets)

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def set_size(self) -> int:
        return self.sets[0].size

    @property
    def length(self) -> int:
        return self.sets[0].length

    @property
    def q(self) -> int:
        return self.sets[0].q


def modulate(seq: PhaseSequence) -> np.ndarray:
    """Complex image of a sequence: entry t equals exp(2*pi*1j*p_t/q)."""
    return root_table(seq.q)[seq.array()]


def negate(seq: PhaseSequence) -> PhaseSequence:
    """The sequence whose modulation is the elementwise negation (add q/2)."""
    half = seq.q // 2
    return PhaseSequence(seq.q, tuple((p + half) % seq.q for p in seq.phases))


def concat(a: PhaseSequence, b: PhaseSequence) -> PhaseSequence:
    if a.q != b.q:
        raise ValueError(f"cannot concatenate alphabets Z_{a.q} and Z_{b.q}")
    return PhaseSequence(a.q, a.phases + b.phases)


def parse_sequence(text: str, q: int = 2) -> PhaseSequence:
    """Parse '+'/'-' strings (q=2) or comma-separated integers (q>2)."""
    text = text.strip()
    if q == 2:
        phases = []
        for ch in text:
            if ch == "+":
                phases.append(0)
            elif ch in _MINUS_GLYPHS:
                phases.append(1)
            elif ch.isspace():
                continue
            else:
                raise ValueError(f"illegal glyph {ch!r} in a binary sequence")
        return PhaseSequence(2, tuple(phases))
    toks = [t for t in text.replace(",", " ").split() if t]
    try:
        phases = tuple(int(t) for t in toks)
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc
    return PhaseSequence(q, phases)


def format_sequence(seq: PhaseSequence) -> str:
    if seq.q == 2:
        return "".join("+" if p == 0 else "-" for p in seq.phases)
    return ",".join(str(p) for p in seq.phases)


def family_from_lists(q: int, sets) -> Family:
    return Family(
        tuple(
            SequenceSet(tuple(PhaseSequence(q, tuple(seq)) for seq in members))
            for members in sets
        )
    )


def family_to_json(fam: Family) -> dict:
    return {
        "q": fam.q,
        "M": fam.num_sets,
        "N": fam.set_size,
        "L": fam.length,
        "sets": [[list(s.phases) for s in st.members] for st in fam.sets],
    }


def is_json(x, kinds, depth: int = 0) -> bool:
    """Whether x is a JSON value of the given kinds (a bool is no number), inside depth lists."""
    if depth:
        return isinstance(x, list) and all(is_json(y, kinds, depth - 1) for y in x)
    return isinstance(x, kinds) and not isinstance(x, bool)


def check_document(table: dict, rows, where: str) -> None:
    """Name the first present key not of its row's (keys, kinds, depth, noun) JSON type,
    or outside the row's optional (low, high, wording) bound."""
    for keys, kinds, depth, noun, *bound in rows:
        for key in (k for k in keys if k in table):
            value = table[key]
            if not is_json(value, kinds, depth):
                raise ValueError(f"{where} {key!r} must be {noun}")
            for low, high, wording in bound:
                if not low <= value <= high:
                    raise ValueError(f"{where} {key!r} must be {wording}, got {value}")


def family_from_json(obj: dict) -> Family:
    """Read a family document, naming the first key of the wrong JSON type or alphabet size."""
    if not isinstance(obj, dict):
        raise ValueError("a family document must be a JSON object")
    check_document(obj, (
        (("q",), int, 0, "an integer", ALPHABET),
        (("M", "N", "L"), int, 0, "an integer"),
        (("sets",), int, 3, "a list of sets of integer lists"),
    ), "family key")
    fam = family_from_lists(obj["q"], obj["sets"])
    for key, got in (("M", fam.num_sets), ("N", fam.set_size), ("L", fam.length)):
        if key in obj and obj[key] != got:
            raise ValueError(f"declared {key}={obj[key]} but sequences give {got}")
    return fam


def load_family(path) -> Family:
    return family_from_json(json.loads(Path(path).read_text()))


def parse_family_text(text: str, q: int = 2) -> Family:
    """Parse a fixture file: one sequence per line, blank line between sets."""
    sets: list[list[PhaseSequence]] = [[]]
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if sets[-1]:
                sets.append([])
            continue
        sets[-1].append(parse_sequence(line, q))
    if not sets[-1]:
        sets.pop()
    if not sets:
        raise ValueError("fixture text contains no sequences")
    return Family(tuple(SequenceSet(tuple(members)) for members in sets))


def format_family_text(fam: Family) -> str:
    blocks = ["\n".join(format_sequence(s) for s in st.members) for st in fam.sets]
    return "\n\n".join(blocks) + "\n"


def fixture_dir() -> Path:
    """Directory holding the shipped text fixtures; ECZCS_FIXTURES overrides."""
    override = os.environ.get(FIXTURE_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def load_fixture_family(name: str) -> Family:
    """A shipped fixture family; every shipped fixture is binary."""
    return parse_family_text((fixture_dir() / f"{name}.txt").read_text())
