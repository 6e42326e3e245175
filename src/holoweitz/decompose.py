"""Tensor products, exterior powers and character decomposition.

All three run on integer Dynkin labels (see :mod:`roots`) and go through
one straightening kernel, Klimyk's reflection rule: V(lam) (x) char is
read off by reflecting lam + nu + rho, for every weight nu of char, into
the dominant chamber.  Tensor products straighten the highest weight of
the larger factor against the weights of the smaller one.  Exterior
powers and characters straighten with lam = 0 (the Brauer/Racah-Speiser
rule); there is no greedy extraction.  Exterior powers enumerate
p-element subset sums of the weight multiset directly; this is exact and
fast at the scale of the supported holonomy representations (n <= 8) but
grows as C(n, p), so it is not intended for n much beyond 14.  Only the
input of :func:`decompose_character` is in ambient coordinates.

The summand order (see :class:`Decomposition`) is decided here alone; it
numbers the twistor operators T_i downstream.
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

    Invariant, set only by :func:`_straighten`: entries are sorted
    by dimension, then highest weight lexicographic in ambient coordinates;
    no irrep repeats.
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


def _straighten(rs: RootSystem, lam: Labels, char: dict[Labels, int]) -> Decomposition:
    """Brauer-Klimyk straightening of V(lam) (x) char into irreps.

    ``char`` maps dominant weights in Dynkin labels to multiplicities.
    For each weight nu in their Weyl orbits, reflect lam + nu + rho into
    the dominant chamber, drop singular points and accumulate the
    reflection parity, times the multiplicity of nu, on the irrep at
    (dominant - rho) (Klimyk 1968).  With lam = 0 this decomposes
    ``char`` itself.  A negative result raises
    :class:`InternalNegativeMultiplicity`.
    """
    lam_rho = tuple(c + 1 for c in lam)
    acc: Counter[Labels] = Counter()
    for mu, m in char.items():
        for nu in roots.orbit(rs, mu):
            dom, word = roots.dominant(rs, [a + b for a, b in zip(lam_rho, nu)])
            if 0 not in dom:
                acc[tuple(c - 1 for c in dom)] += -m if len(word) % 2 else m
    entries = [(Irrep(rs, hw), m) for hw, m in acc.items() if m != 0]
    for irr, m in entries:
        if m < 0:
            raise InternalNegativeMultiplicity(f"negative multiplicity {m} at {irr}")
    entries.sort(key=lambda em: (dimension(em[0]), em[0].hw_orthogonal))
    return Decomposition(tuple(entries))


@lru_cache(maxsize=None)
def tensor(a: Irrep, b: Irrep) -> Decomposition:
    """Decomposition of the tensor product of two irreps.

    Iterates over the weight system of the smaller-dimensional factor,
    so products against a small fixed factor stay cheap regardless of
    the size of the other one.
    """
    if a.root_system != b.root_system:
        raise MixedRootSystems(f"{a} and {b} live on different root systems")
    if dimension(a) < dimension(b):
        a, b = b, a
    return _straighten(a.root_system, a.highest_weight, dominant_multiplicities(b))


def decompose_character(rs: RootSystem, char: dict[Weight, int]) -> Decomposition:
    """Decompose a character given by its dominant weight multiplicities.

    The weights are ambient vectors.  A non-integral weight or a negative
    multiplicity in the result raises :class:`NotACharacter`; a weight
    that is not dominant raises ``ValueError``.
    """
    labels: Counter[Labels] = Counter()
    for w, m in char.items():
        fund = roots.to_fundamental(rs, w)
        if any(c.denominator != 1 for c in fund):
            raise NotACharacter(f"{w} is not an integral weight")
        labels[tuple(map(int, fund))] += m
    for mu, m in labels.items():
        if m and min(mu) < 0:
            raise ValueError(f"weight {mu} of the character is not dominant")
    try:
        return _straighten(rs, (0,) * rs.rank, labels)
    except InternalNegativeMultiplicity as exc:
        raise NotACharacter(str(exc)) from exc


@lru_cache(maxsize=None)
def exterior_power(t: Irrep, p: int) -> Decomposition:
    """Decomposition of the p-th exterior power of an irrep.

    Forms all p-element subset sums of the weight multiset and
    straightens the dominant ones as a character.
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
    return _straighten(rs, zero, char)
