"""Integer-phase sequences, sequence sets, and families of sets.

Sequence data lives in Z_q for an even alphabet size q, and nothing here
is complex: the correlation engines count phase differences, and the
unit-circle image first appears when a training matrix becomes the LS
model (``TrainingMatrix.complex_rows``).  Binary sequences print in the
'+'/'-' convention used by the shipped fixtures.
"""

from __future__ import annotations

import json
import math
import os
import re
from functools import cached_property
from pathlib import Path

import numpy as np

from .cyclotomic import as_ints

FIXTURE_ENV = "ECZCS_FIXTURES"
_MINUS_GLYPHS = {"-", "−"}
# Largest alphabet an input document may declare: zero tests build a q x q
# reduction matrix.  verify of a 2-set, length-4 family took 0.64 s and
# 57 MB peak RSS at q = 1024, 20 s and 417 MB at 4096, 90 s and 1.5 GB at 8192.
MAX_ALPHABET = 1024
# (low, high, wording) bounds on an integer document value
NON_NEGATIVE = (0, math.inf, "non-negative")
ALPHABET = (-math.inf, MAX_ALPHABET, f"at most {MAX_ALPHABET}")


_EMPTY = ("a family must contain at least one set",
          "a sequence set must have at least one member",
          "a sequence must have length >= 1")


def _checked(q, phases, rank: int) -> np.ndarray:
    """A read-only copy of an array-like of phases of the given rank, checked once: even
    q >= 2, no empty axis and every entry an integer of Z_q (a flat sequence of Python
    numbers by :func:`as_ints`).  It holds int64 whenever Z_q fits, Python ints otherwise."""
    if q < 2 or q % 2:
        raise ValueError(f"alphabet size must be an even integer >= 2, got {q}")
    flat = rank == 1 and not isinstance(phases, np.ndarray)
    arr = np.asarray(as_ints(phases, "phase") if flat else phases)
    if arr.ndim != rank:
        raise ValueError(f"need a {rank}-axis phase array, got shape {arr.shape}")
    for size, message in zip(arr.shape, _EMPTY[-rank:]):
        if not size:
            raise ValueError(message)
    outside = ~((arr >= 0) & (arr < q))
    if outside.any():
        raise ValueError(f"phase {arr[outside][0]} lies outside Z_{q}")
    stored = arr.astype(np.int64 if q <= 1 << 63 else object)
    wrong = stored != arr
    if wrong.any():
        raise ValueError(f"phase {arr[wrong][0]} is not an integer")
    stored.setflags(write=False)
    return stored


class _PhaseArray:
    """An alphabet size q and one read-only phase array, its last axis along a sequence.

    A sequence is rank 1, a set (N, L) and a family (M, N, L).  The rows of a set or a
    family are objects of the level below that view the array, and a sequence's phases
    are its entries as Python ints; both are built on first access and cached.  A set or
    family made from its rows stacks them once.  Objects of one class are equal when q and
    the arrays are, and immutable; every instance is made by :meth:`_of`.
    """

    _RANK, _ROW, _MIXED = 0, None, ""

    def __new__(cls, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError(_EMPTY[-cls._RANK])
        if not all(isinstance(r, cls._ROW) for r in rows):
            raise TypeError(f"the rows of a {cls.__name__} must be {cls._ROW.__name__} objects")
        if any((r.q, r._a.shape) != (rows[0].q, rows[0]._a.shape) for r in rows):
            raise ValueError(cls._MIXED)
        stacked = np.stack([r._a for r in rows])
        stacked.setflags(write=False)
        return cls._of(rows[0].q, stacked, rows)

    @classmethod
    def _of(cls, q, phases: np.ndarray, rows: tuple | None = None):
        """An instance over an already checked read-only array, with its rows if known."""
        obj = object.__new__(cls)
        vars(obj).update(q=q, _a=phases)
        if rows is not None:
            vars(obj)["_rows"] = rows
        return obj

    @classmethod
    def from_array(cls, q, phases):
        """The object holding a phase array of this level's rank, checked once with numpy."""
        return cls._of(q, _checked(q, phases, cls._RANK))

    @cached_property
    def _rows(self) -> tuple:
        if self._ROW is None:
            return tuple(self._a.tolist())
        return tuple(self._ROW._of(self.q, row) for row in self._a)

    def array(self) -> np.ndarray:
        """The read-only phase array."""
        return self._a

    @property
    def length(self) -> int:
        return self._a.shape[-1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.q == other.q and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        return hash((self.q, self._a.shape, tuple(self._a.ravel().tolist())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_array({self.q!r}, {self._a.tolist()!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self).from_array, (self.q, self._a)


class PhaseSequence(_PhaseArray):
    """A unimodular sequence stored as exponents of the q-th root of unity."""

    _RANK = 1
    phases = property(lambda self: self._rows)

    def __new__(cls, q, phases):
        return cls.from_array(q, phases)

    def __len__(self) -> int:
        return self.length


class SequenceSet(_PhaseArray):
    """N sequences sharing one length and one alphabet."""

    _RANK, _ROW, _MIXED = 2, PhaseSequence, "set members must share alphabet size and length"
    members = property(lambda self: self._rows)
    size = property(lambda self: len(self._a))


class Family(_PhaseArray):
    """M sequence sets sharing one (N, L, q) shape."""

    _RANK, _ROW, _MIXED = 3, SequenceSet, "family sets must share (N, L, q)"
    sets = property(lambda self: self._rows)
    num_sets = property(lambda self: len(self._a))
    set_size = property(lambda self: self._a.shape[1])


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
    return Family(SequenceSet(PhaseSequence(q, seq) for seq in members) for members in sets)


def family_to_json(fam: Family) -> dict:
    return {
        "q": fam.q,
        "M": fam.num_sets,
        "N": fam.set_size,
        "L": fam.length,
        "sets": fam.array().tolist(),
    }


def is_json(x, kinds, depth: int = 0) -> bool:
    """Whether x is a JSON value of the given kinds (a bool is no number), inside depth lists."""
    level = [x]
    for _ in range(depth):  # one nesting level at a time, each distinct type once
        if not all(issubclass(t, list) for t in set(map(type, level))):
            return False
        level = [y for ys in level for y in ys]
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, level)))


def check_document(table, rows, doc: str, needs=(), where: str = "") -> None:
    """Name the first fault of the JSON object doc: a key no (keys, kinds, depth, noun) row
    names, one off its row's type or optional (low, high, wording) bound, or one of needs absent."""
    if not isinstance(table, dict):
        raise ValueError(f"{doc} must be a JSON object")
    where, known = where or f"{doc} key", {key for keys, *_ in rows for key in keys}
    for key in table:
        if key not in known:
            raise ValueError(f"{doc} has no key {key!r}")
    for keys, kinds, depth, noun, *bound in rows:
        for key in (k for k in keys if k in table):
            value = table[key]
            if not is_json(value, kinds, depth):
                raise ValueError(f"{where} {key!r} must be {noun}")
            for low, high, wording in bound:
                if not low <= value <= high:
                    raise ValueError(f"{where} {key!r} must be {wording}, got {value}")
    for key in needs:
        if key not in table:
            raise ValueError(f"{doc} needs key {key!r}")


def family_from_json(obj: dict) -> Family:
    """Read a family document, naming the first key missing, unread, mistyped or out of bounds."""
    check_document(obj, (
        (("q",), int, 0, "an integer", ALPHABET),
        (("M", "N", "L"), int, 0, "an integer"),
        (("sets",), int, 3, "a list of sets of integer lists"),
    ), "family document", needs=("q", "sets"), where="family key")
    try:  # rectangular int64 phases are checked as one array, with the member-by-member messages
        phases = np.array(obj["sets"], dtype=np.int64)
    except (ValueError, OverflowError):  # ragged, or a phase beyond int64
        phases = np.empty(0)
    fam = Family.from_array(obj["q"], phases) if phases.ndim == 3 else family_from_lists(obj["q"], obj["sets"])
    for key, got in (("M", fam.num_sets), ("N", fam.set_size), ("L", fam.length)):
        if key in obj and obj[key] != got:
            raise ValueError(f"declared {key}={obj[key]} but sequences give {got}")
    return fam


def load_family(path) -> Family:
    return family_from_json(json.loads(Path(path).read_text()))


def parse_family_text(text: str, q: int = 2) -> Family:
    """Parse a fixture file: one sequence per line, blank line between sets."""
    lines = "\n".join(raw.split("#", 1)[0].strip() for raw in text.splitlines())  # comments blank
    sets = [[parse_sequence(line, q) for line in block.split("\n")]
            for block in re.split(r"\n\n+", lines.strip("\n")) if block]
    if not sets:
        raise ValueError("fixture text contains no sequences")
    return Family(map(SequenceSet, sets))


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
