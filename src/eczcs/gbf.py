"""Generalized Boolean functions over Z_q and the direct constructions.

A function of m binary variables with Z_q coefficients is held as an
explicit term list; its length-2^m sequence reads the variables off the
integer index least-significant-bit first.  The two builders here produce
enhanced cross Z-complementary families (quadratic chains along an
ordered partition) and complete complementary codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import Family, PhaseSequence

MAX_VARIABLES = 20  # 2^20 sequence entries; anything larger is a config error


@dataclass(frozen=True)
class GBF:
    """A Z_q-valued function of m binary variables, as a sum of monomials.

    ``terms`` maps each sorted variable tuple (1-based indices; the empty
    tuple is the constant term) to a coefficient reduced mod q.
    """

    m: int
    q: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_VARIABLES:
            raise ValueError(f"variable count must lie in 1..{MAX_VARIABLES}")
        if self.q < 2 or self.q % 2:
            raise ValueError("alphabet size must be an even integer >= 2")
        merged: dict[tuple[int, ...], int] = {}
        for variables, coeff in self.terms:
            key = tuple(sorted(int(v) for v in variables))
            if len(set(key)) != len(key):
                raise ValueError(f"repeated variable in monomial {variables}")
            for v in key:
                if not 1 <= v <= self.m:
                    raise ValueError(f"variable x_{v} outside 1..{self.m}")
            merged[key] = (merged.get(key, 0) + int(coeff)) % self.q
        canonical = tuple(sorted((k, c) for k, c in merged.items() if c))
        object.__setattr__(self, "terms", canonical)

    def sequence(self) -> PhaseSequence:
        return PhaseSequence.from_array(self.q, _phase_vector(self))


def _index_vector(m: int, q: int) -> np.ndarray:
    """0..2^m-1, held as Python ints when a sum of 2^m values below q could overflow int64."""
    return np.arange(1 << m, dtype=np.int64 if q << m < 1 << 63 else object)


def _phase_vector(func: GBF) -> np.ndarray:
    """All 2^m values of func, one monomial at a time over the index vector."""
    index = _index_vector(func.m, func.q)
    total = np.zeros_like(index)
    for variables, coeff in func.terms:
        bits = sum(1 << (v - 1) for v in variables)
        total += coeff * ((index & bits) == bits).astype(index.dtype)
    return total % func.q


@dataclass(frozen=True)
class PartitionSpec:
    """An ordered partition of {1..m} with an ordering inside each part.

    ``parts[a]`` lists the images of 1..m_a under the a-th bijection, so
    ``parts[a][0]`` is the head of the a-th chain and ``parts[a][-1]`` its
    last element.
    """

    m: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        parts = tuple(tuple(int(v) for v in p) for p in self.parts)
        if not parts or any(not p for p in parts):
            raise ValueError("every part must be nonempty")
        seen = [v for p in parts for v in p]
        if sorted(seen) != list(range(1, self.m + 1)):
            raise ValueError(f"parts must partition 1..{self.m} exactly")
        object.__setattr__(self, "parts", parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def require_chain_heads(self, v: int) -> None:
        """The heads of parts v+1..k must be m, m-1, ... in that order."""
        for gamma in range(1, self.k - v + 1):
            want = self.m - gamma + 1
            got = self.parts[v + gamma - 1][0]
            if got != want:
                raise ValueError(
                    f"part {v + gamma} must start at x_{want}, found x_{got}"
                )


def build_theorem3_f(spec: PartitionSpec, q: int, eta=None) -> GBF:
    """Quadratic chains along each part plus an affine tail.

    ``eta`` holds (eta_0, eta_1, ..., eta_m): the constant term first,
    then one linear coefficient per variable.  Defaults to all zeros.
    """
    if eta is None:
        eta = (0,) * (spec.m + 1)
    eta = tuple(int(e) for e in eta)
    if len(eta) != spec.m + 1:
        raise ValueError(f"eta must have length m+1 = {spec.m + 1}")
    half = q // 2
    terms: list[tuple[tuple[int, ...], int]] = []
    for part in spec.parts:
        for b in range(len(part) - 1):
            terms.append(((part[b], part[b + 1]), half))
    for i in range(1, spec.m + 1):
        terms.append(((i,), eta[i]))
    terms.append(((), eta[0]))
    return GBF(spec.m, q, tuple(terms))


def theorem3_zcz_width(spec: PartitionSpec) -> int:
    """Zone width 2^(h-1) guaranteed by the construction, h = first chain head."""
    return 1 << (spec.parts[0][0] - 1)


def _selections(index: np.ndarray, variables: tuple[int, ...], half: int) -> list[np.ndarray]:
    """Entry s is half times the sum of the x_variables[j] for the set bits j of s."""
    out = [np.zeros_like(index)]
    for v in variables:
        bit = half * ((index >> (v - 1)) & 1)
        out += [o + bit for o in out]
    return out


def _chained_family(spec: PartitionSpec, q: int, eta, heads: tuple[int, ...]) -> Family:
    """The 2^k sets from f, the chained function of spec and eta, mod q.

    Member n of set p is f + q/2 (the heads[j] for the set bits j of n +
    the last element of chain alpha for each set bit p_alpha).
    """
    base = _phase_vector(build_theorem3_f(spec, q, eta))
    index = _index_vector(spec.m, q)
    head_selections = np.array(_selections(index, heads, q // 2))
    tail_selections = np.array(_selections(index, tuple(part[-1] for part in spec.parts), q // 2))
    return Family.from_array(q, (base + tail_selections[:, None] + head_selections) % q)


def theorem3_construct(spec: PartitionSpec, v: int, q: int = 2, eta=None) -> Family:
    """Enhanced cross Z-complementary family from a chained Boolean function.

    Produces 2^k sets of 2^v sequences of length 2^m with a zone width of
    2^(h-1), where h is the head of the first chain.  Set p adds q/2 times
    the last element of each chain selected by the bits of p; member n adds
    q/2 times the head of chain alpha selected by bit n_{v-alpha+1}.

    v = 0 is rejected: a single unimodular sequence has a nonzero
    aperiodic autocorrelation at the last shift, so no single-member set
    can carry a tail-end zone.
    """
    k = spec.k
    if not 1 <= v <= k:
        raise ValueError(f"need 1 <= v <= k = {k}, got v = {v}")
    if v < k:
        spec.require_chain_heads(v)
    heads = tuple(spec.parts[alpha - 1][0] for alpha in range(v, 0, -1))  # bit j = n_{j+1}
    return _chained_family(spec, q, eta, heads)


def lemma2_ccc(spec: PartitionSpec, q: int = 2, eta=None) -> Family:
    """Complete complementary code from the same chained function.

    Set nu holds the 2^k sequences indexed by kappa, obtained by adding
    q/2 times the chain heads selected by kappa's bits and q/2 times the
    chain tails selected by nu's bits: a (2^k, 2^m) code with M = N.
    """
    heads = tuple(part[0] for part in spec.parts)
    return _chained_family(spec, q, eta, heads)


def optimal_theorem3_params(m: int, k: int, v: int) -> PartitionSpec:
    """Canonical partition whose first chain head is m-k+v.

    That head value makes the constructed binary family meet the zone
    bound with equality.  Parts v+1..k are the singletons m, m-1, ...
    (satisfying the head constraint), the first part leads with m-k+v,
    and the remaining elements fill the first v parts.
    """
    if not 1 <= v <= k <= m:
        raise ValueError(f"need 1 <= v <= k <= m, got ({m}, {k}, {v})")
    head = m - k + v
    if head < 1:
        raise ValueError(f"first chain head m-k+v = {head} must be positive")
    trailing = k - v
    parts: list[tuple[int, ...]] = []
    # singleton parts 2..v take the largest remaining elements
    single = [(head - i,) for i in range(1, v)]
    rest = tuple(x for x in range(1, head) if (x,) not in single)
    parts.append((head,) + rest)
    parts.extend(single)
    parts.extend((m - gamma + 1,) for gamma in range(1, trailing + 1))
    return PartitionSpec(m, tuple(parts))
