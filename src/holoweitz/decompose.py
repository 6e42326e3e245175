"""Tensor products, exterior powers and character decomposition.

All three run on integer Dynkin labels (see :mod:`roots`).  Tensor
products use Klimyk's reflection rule over the Weyl orbits of the
smaller factor's dominant weights.  Exterior powers enumerate p-element
subset sums of the weight multiset directly; this is exact and fast at
the scale of the supported holonomy representations (n <= 8) but grows
as C(n, p), so it is not intended for n much beyond 14.  Characters are
split by greedy highest-weight extraction.  Only the input of
:func:`decompose_character` is in ambient coordinates.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from dataclasses import dataclass
from itertools import combinations

from . import roots
from .errors import (
    DegreeOutOfRange,
    InternalNegativeMultiplicity,
    MixedRootSystems,
    NotACharacter,
)
from .irreps import Irrep, dimension, dominant_multiplicities, weight_labels
from .roots import Labels, RootSystem, Weight


@dataclass(frozen=True)
class Decomposition:
    """Multiset of irreducible summands with multiplicities.

    Entries are sorted by (dimension ascending, highest weight
    lexicographic in ambient coordinates); no irrep repeats.
    """

    entries: tuple[tuple[Irrep, int], ...]

    def total_dimension(self) -> int:
        return sum(m * dimension(irr) for irr, m in self.entries)

    def multiplicity_of(self, irrep: Irrep) -> int:
        for irr, m in self.entries:
            if irr == irrep:
                return m
        return 0

    def as_multiset(self) -> frozenset[tuple[tuple[int, ...], int]]:
        return frozenset((irr.highest_weight, m) for irr, m in self.entries)

    def irreps(self) -> tuple[Irrep, ...]:
        return tuple(irr for irr, _ in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def sort_key(irrep: Irrep):
    """Canonical summand order: dimension, then highest weight lex."""
    return (dimension(irrep), irrep.hw_orthogonal)


def _make_decomposition(rs: RootSystem, acc: dict[tuple[int, ...], int]) -> Decomposition:
    entries = [(Irrep(rs, hw), m) for hw, m in acc.items() if m != 0]
    entries.sort(key=lambda em: sort_key(em[0]))
    return Decomposition(tuple(entries))


def _klimyk_expand(anchor: Irrep, expanded: Irrep) -> dict[Labels, int]:
    """Klimyk accumulation: anchor highest weight + weights of ``expanded``.

    For each weight nu of ``expanded``, reflect lambda + nu + rho into the
    dominant chamber, drop singular points and accumulate the reflection
    parity, times the multiplicity of nu, on the irrep at (dominant - rho).
    """
    rs = anchor.root_system
    lam_rho = tuple(c + 1 for c in anchor.highest_weight)
    acc: Counter[Labels] = Counter()
    for mu, m in dominant_multiplicities(expanded).items():
        for nu in roots.orbit(rs, mu):
            dom, word = roots.dominant(rs, [a + b for a, b in zip(lam_rho, nu)])
            if 0 not in dom:
                acc[tuple(c - 1 for c in dom)] += -m if len(word) % 2 else m
    for hw, m in acc.items():
        if m < 0:
            raise InternalNegativeMultiplicity(
                f"Klimyk produced multiplicity {m} at {hw} in {anchor} x {expanded}"
            )
    return {hw: m for hw, m in acc.items() if m != 0}


@lru_cache(maxsize=None)
def tensor(a: Irrep, b: Irrep) -> Decomposition:
    """Decomposition of the tensor product of two irreps.

    Iterates over the weight system of the smaller-dimensional factor,
    so products against a small fixed factor stay cheap regardless of
    the size of the other one.
    """
    if a.root_system != b.root_system:
        raise MixedRootSystems(f"{a} and {b} live on different root systems")
    anchor, expanded = sorted((a, b), key=sort_key, reverse=True)
    return _make_decomposition(a.root_system, _klimyk_expand(anchor, expanded))


def decompose_character(rs: RootSystem, char: dict[Weight, int]) -> Decomposition:
    """Decompose a character given by its dominant weight multiplicities.

    The weights are ambient vectors; see :func:`_extract`.
    """
    labels: Counter[Labels] = Counter()
    for w, m in char.items():
        fund = roots.to_fundamental(rs, w)
        if any(c.denominator != 1 for c in fund):
            raise NotACharacter(f"{w} is not an integral weight")
        labels[tuple(map(int, fund))] += m
    return _extract(rs, labels)


def _extract(rs: RootSystem, char: dict[Labels, int]) -> Decomposition:
    """Greedy highest-weight extraction on dominant weights in Dynkin labels.

    Repeatedly take a remaining weight of largest (mu, rho), which is
    maximal, and subtract that irrep's dominant multiplicities scaled by
    the current multiplicity.
    """
    rho = (1,) * rs.rank
    remaining = {w: m for w, m in char.items() if m != 0}
    acc: dict[Labels, int] = {}
    while remaining:
        top = max(remaining, key=lambda w: roots.dot(rs, w, rho))
        m = remaining[top]
        if m < 0:
            raise NotACharacter(f"negative multiplicity {m} at {top}")
        for w, mw in dominant_multiplicities(Irrep(rs, top)).items():
            left = remaining.get(w, 0) - m * mw
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
        acc[top] = m
    return _make_decomposition(rs, acc)


@lru_cache(maxsize=None)
def exterior_power(t: Irrep, p: int) -> Decomposition:
    """Decomposition of the p-th exterior power of an irrep.

    Forms all p-element subset sums of the weight multiset, keeps the
    dominant ones as a character and extracts irreps greedily.
    """
    n = dimension(t)
    if not 0 <= p <= n:
        raise DegreeOutOfRange(f"degree {p} outside [0, {n}]")
    rs = t.root_system
    zero = (0,) * rs.rank
    char: Counter[Labels] = Counter()
    for subset in combinations(weight_labels(t), p):
        s = tuple(map(sum, zip(zero, *subset)))
        if min(s) >= 0:
            char[s] += 1
    return _extract(rs, char)
