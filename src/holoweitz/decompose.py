"""Tensor products and exterior powers.

Both run on integer Dynkin labels (see :mod:`roots`) and go through one
straightening kernel, Klimyk's reflection rule: V(lam) (x) char is read
off by reflecting lam + nu + rho, for every weight nu of char, into the
dominant chamber; with lam = 0 it decomposes char (Brauer/Racah-Speiser).
Tensor products straighten the larger factor's highest weight against
the smaller one's weights.  Exterior powers follow Newton's identity in
the representation ring (Fulton-Harris; LiE's ``alt_tensor``),
q Lambda^q(T) = sum_{k=1..q} (-1)^(k-1) psi^k(T) Lambda^(q-k)(T), where
the Adams operation psi^k(T) is T's weight multiset scaled by k; degrees
above n/2 are duals of degrees below.

Merge, then straighten: each decomposition first adds every point
lam + rho + nu with its signed coefficient to one counter (in Newton's
identity, over every k and every summand of the lower degree), then
straightens each distinct point with a nonzero coefficient once and
shifts each dominant result by -rho once.  What a point contributes
depends on the point alone, so its coefficients can be summed first.

The summand order (see :class:`Decomposition`) is decided here alone; it
numbers the twistor operators T_i downstream.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add, mul

from . import roots
from .errors import DegreeOutOfRange, InternalNegativeMultiplicity, MixedRootSystems
from .irreps import Irrep, dimension, dominant_multiplicities
from .roots import Labels, RootSystem


class Decomposition(tuple):
    """Multiset of irreducible summands with multiplicities: a tuple of
    (irrep, multiplicity) entries.

    Invariant, set only by :func:`_decomposition`: entries are sorted
    by dimension, then highest weight lexicographic in ambient coordinates;
    no irrep repeats.
    """

    __slots__ = ()

    def total_dimension(self) -> int:
        return sum(m * dimension(irr) for irr, m in self)

    def multiplicity_of(self, irrep: Irrep) -> int:
        for irr, m in self:
            if irr == irrep:
                return m
        return 0

    def irreps(self) -> tuple[Irrep, ...]:
        return tuple(irr for irr, _ in self)

    def __repr__(self) -> str:
        return f"Decomposition(entries={tuple(self)!r})"


def _add_points(points: Counter, lam: Labels, weights, m: int = 1) -> None:
    """Add m V(lam) (x) weights to ``points`` as the points lam + rho + nu.

    ``weights`` lists (nu, multiplicity) over a Weyl-invariant multiset;
    each point gains m times the multiplicity of its nu.
    """
    lam_rho = tuple(c + 1 for c in lam)
    for nu, k in weights:
        point = tuple(map(add, lam_rho, nu))
        points[point] = points.get(point, 0) + m * k  # not +=: a new key would call __missing__


def _straighten_points(rs: RootSystem, points: Counter) -> dict[Labels, int]:
    """The kernel (Klimyk 1968): the signed sum of irreps that ``points`` stands for.

    Each point with a nonzero coefficient is straightened once: the irrep
    at dominant(point) - rho gains the reflection parity times the
    coefficient, and singular points drop out.
    """
    acc: Counter[Labels] = Counter()
    for point, c in points.items():
        if c:
            dom, sign = roots.dominant(rs, point)
            if 0 not in dom:
                acc[dom] += sign * c
    return {tuple(x - 1 for x in dom): m for dom, m in acc.items()}


def _decomposition(rs: RootSystem, acc: dict[Labels, int], q: int = 1) -> Decomposition:
    """The checked step: ``acc / q`` as a sorted :class:`Decomposition`, or
    :class:`InternalNegativeMultiplicity` on a negative or indivisible entry."""
    entries = []
    for hw, m in acc.items():
        if m:
            value, rest = divmod(m, q)
            if rest or value < 0:
                why = "negative" if m < 0 else f"not divisible by {q}"
                raise InternalNegativeMultiplicity(f"multiplicity {m} at {Irrep(rs, hw)}: {why}")
            entries.append((Irrep(rs, hw), value))
    columns = rs.fundamental_columns  # den * ambient: den > 0 keeps the order
    entries.sort(key=lambda em: (
        dimension(em[0]), [sum(map(mul, em[0].highest_weight, col)) for col in columns]))
    return Decomposition(entries)


def _weights(rs: RootSystem, char: dict[Labels, int]) -> list[tuple[Labels, int]]:
    """Every weight of ``char``, given on dominant labels, with its multiplicity."""
    return [(nu, m) for mu, m in char.items() for nu in roots.orbit(rs, mu)]


def _straighten(rs: RootSystem, lam: Labels, char: dict[Labels, int]) -> Decomposition:
    """V(lam) (x) char, for ``char`` given on dominant labels; lam = 0 decomposes char."""
    points: Counter[Labels] = Counter()
    _add_points(points, lam, _weights(rs, char))
    return _decomposition(rs, _straighten_points(rs, points))


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


@lru_cache(maxsize=None)
def exterior_power(t: Irrep, p: int) -> Decomposition:
    """Decomposition of the p-th exterior power of an irrep of dimension n.

    For 2p <= n, Newton's identity: the points of each summand V(lam) of
    Lambda^(p-k) against psi^k(T), with sign (-1)^(k-1), go into one
    counter over all k; its distinct points are straightened once and the
    signed sum is divided by p.  The lower degrees come from this
    function's cache, filled in increasing degree so the recursion stays
    shallow.  For 2p > n, Lambda^p is the dual of Lambda^(n-p): V(lam)
    becomes V(-w0 lam), the dominant representative of -lam.
    """
    n = dimension(t)
    if not 0 <= p <= n:
        raise DegreeOutOfRange(f"degree {p} outside [0, {n}]")
    rs = t.root_system
    if 2 * p > n:
        dual = {roots.dominant(rs, [-c for c in v.highest_weight])[0]: m
                for v, m in exterior_power(t, n - p)}
        return _decomposition(rs, dual)
    if p == 0:
        return _decomposition(rs, {(0,) * rs.rank: 1})
    lower = [exterior_power(t, q) for q in range(p)]
    weights = _weights(rs, dominant_multiplicities(t))
    points: Counter[Labels] = Counter()
    for k in range(1, p + 1):
        psi = [(tuple(k * c for c in nu), mult) for nu, mult in weights]
        for irr, m in lower[p - k]:
            _add_points(points, irr.highest_weight, psi, m if k % 2 else -m)
    return _decomposition(rs, _straighten_points(rs, points), p)
