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
above n/2 are duals of degrees below, V(lam) -> V(-w0 lam) by
:func:`roots.dual_weight`.

One stream of (point, coefficient) pairs feeds the kernel, and each
point in it is distinct.  A point travels as one integer key, sized for
the labels of all its Weyl images by the rule at :func:`roots.key_codec`
from the highest weight H of a module whose weights the points are, so
no weight is read to size a key.  A tensor product's points
lam + rho + nu are weights of V(lam + rho) (x) V(lam_b), so
H = lam + rho + lam_b; Newton's identity names H = p lam_T + rho
(:func:`exterior_power`).  The weights nu come as keys too: each kernel
walks the Weyl orbits of a factor's dominant weights, read from the
cache of :func:`irreps.dominant_multiplicities`, in its own codec
(:func:`roots.orbit_keys`), and builds no label tuple of them
(:func:`_orbit_points`).  A tensor product's points are distinct as
they stand: the orbits of distinct dominant weights are disjoint.
Newton's identity meets the same point from many k and many lower
summands; what a point contributes depends on the point alone, so its
signed coefficients are merged first, on its key.  The kernel reflects
each key with a negative label once, by :func:`roots.dominant_key`, adds
the coefficients up on the dominant keys and decodes each distinct
result once, less rho.

Every tensor product, straightened character and exterior power leaves
through one checked exit, :func:`_decomposition`, which decides the
summand order (see :class:`Decomposition`); the order numbers the twistor
operators T_i downstream, and ambient coordinates break only the ties of
dimension.  Sorting by dimension computes every summand's Weyl
dimension, so each answer is also checked to conserve dimension:
dim V(lam) times the sum of char's multiplicities for a straightening
(dim a * dim b for a tensor product), C(n, p) for Lambda^p.  A negative
or indivisible multiplicity, a dimension that does not add up, or
orbits walked whose multiplicities miss the dimension of the factor
raises :class:`InternalError`.  Summand irreps are built from the kernel's
labels without the checks of ``Irrep(...)``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from numbers import Real
from operator import lshift, mul
from typing import Iterable, Iterator, Mapping

from . import roots
from .errors import DegreeOutOfRange, InternalError, MixedRootSystems
from .irreps import Irrep, _unchecked_irrep, dimension, dominant_multiplicities
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

    def irreps(self) -> tuple[Irrep, ...]:
        return tuple(irr for irr, _ in self)

    def __repr__(self) -> str:
        return f"Decomposition(entries={tuple(self)!r})"


def _straighten_points(codec: tuple, points: Iterable[tuple[int, int]]) -> dict[Labels, int]:
    """The kernel (Klimyk 1968): the irreps that ``points``, the keys of distinct
    points with coefficients, stand for.  A point adds its reflection parity times
    its coefficient at the point's dominant Weyl image less rho; singular points drop out."""
    bits, shifts, high, rho, _, _ = codec
    acc: dict[int, int] = {}
    get = acc.get
    for key, c in points:
        if c:
            if high & ~key:
                key, sign = roots.dominant_key(key, codec)
                c *= sign
            if not (key - rho) & high:
                acc[key] = get(key, 0) + c
    mask = (1 << bits) - 1  # a regular dominant key minus key(rho) has digits x_i - 1 >= 0
    return {tuple([(key - rho) >> s & mask for s in shifts]): m for key, m in acc.items() if m}


def _decomposition(rs: RootSystem, acc: dict[Labels, int], total: int,
                   q: int = 1) -> Decomposition:
    """The checked exit of every decomposition: ``acc / q`` as a sorted
    :class:`Decomposition`.  :class:`InternalError` on a negative or
    indivisible entry, or unless the summands' dimensions, which the sort
    computes anyway, add up to ``total``.  An ambient key is computed only
    for a summand whose dimension another summand shares."""
    entries, tied = [], {}  # tied[d]: two or more summands have dimension d
    for hw, m in acc.items():
        if m:
            value, rest = divmod(m, q)
            irr = _unchecked_irrep(rs, hw)
            if rest or value < 0:
                why = "negative" if m < 0 else f"not divisible by {q}"
                raise InternalError(f"multiplicity {m} at {irr}: {why}")
            d = dimension(irr)
            tied[d] = d in tied
            entries.append((d, irr, value))
    columns = rs.fundamental_columns  # den * ambient: den > 0 keeps the order

    def order(entry):  # distinct highest weights have distinct ambient keys
        d, irr, _ = entry
        return d, [sum(map(mul, irr.highest_weight, col)) for col in columns] if tied[d] else ()

    entries.sort(key=order)
    if (found := sum(d * m for d, _, m in entries)) != total:
        raise InternalError(f"summands add up to dimension {found}, expected {total}")
    return Decomposition([(irr, m) for _, irr, m in entries])


def _orbit_points(dominant: Mapping[Labels, int], codec: tuple, shift: int,
                  size: int) -> Iterator[tuple[int, int]]:
    """(key(nu) + shift, m) for every weight nu, with its multiplicity m, of the
    Weyl-invariant character with dominant multiplicities ``dominant``: each dominant
    weight's orbit walked on keys of ``codec`` (:func:`roots.orbit_keys`), in
    :func:`irreps.weights`' order, and never decoded.  Checked once the walk ends:
    the multiplicities add up to ``size``, or :class:`InternalError`."""
    _, shifts, high, _, _, _ = codec
    found = 0
    for mu, m in dominant.items():
        keys = roots.orbit_keys(sum(map(lshift, mu, shifts)) + high, codec)
        found += m * len(keys)
        for key in keys:
            yield key + shift, m
    if found != size:
        raise InternalError(f"the weights walked add up to dimension {found}, expected {size}")


def _straighten(rs: RootSystem, lam: Labels, dominant: Mapping[Labels, int], top: int,
                size: int) -> Decomposition:
    """V(lam) (x) char for the Weyl-invariant char of dimension ``size`` given by its
    dominant multiplicities, with ``top`` at least the largest label of its weights, which
    is <lam_b, theta^v> for the weights of V(lam_b); lam = 0 decomposes char.  The keys
    follow :func:`roots.key_codec`'s rule for H = lam + rho + lam_b, and char's orbits are
    walked in them (:func:`_orbit_points`), shifted by key(lam + rho) - key(0).  The
    summands must add up to dim V(lam) times ``size``."""
    bound = sum(map(mul, [c + 1 for c in lam], rs.highest_coroot)) + top  # <H, theta^v>
    _, shifts, high, rho, _, _ = codec = roots.key_codec(rs, bound)
    shift = sum(map(lshift, lam, shifts)) + rho - high  # key(lam + rho) - key(0)
    acc = _straighten_points(codec, _orbit_points(dominant, codec, shift, size))
    return _decomposition(rs, acc, dimension(_unchecked_irrep(rs, lam)) * size)


@lru_cache(maxsize=None)
def tensor(a: Irrep, b: Irrep) -> Decomposition:
    """Decomposition of the tensor product of two irreps.

    Walks the Weyl orbits of the smaller-dimensional factor's dominant
    weights, so products against a small fixed factor stay cheap
    regardless of the size of the other one.  The keys are sized from that
    factor's highest weight alone (:func:`_straighten`), not from its
    weights, and its weights are never decoded to labels.
    """
    if a.root_system != b.root_system:
        raise MixedRootSystems(f"{a} and {b} live on different root systems")
    if dimension(a) < dimension(b):
        a, b = b, a
    rs = a.root_system
    top = sum(map(mul, b.highest_weight, rs.highest_coroot))
    return _straighten(rs, a.highest_weight, dominant_multiplicities(b), top, dimension(b))


def _degree(p) -> int:
    """``p`` as an int if it equals one (2.0, Fraction(2), True), else DegreeOutOfRange."""
    if type(p) is int or isinstance(p, Real) and p % 1 == 0:  # inf % 1, nan % 1 are nan
        return int(p)
    raise DegreeOutOfRange(f"degree {p!r} is not an integer")


@lru_cache(maxsize=None)
def exterior_power(t: Irrep, p: int) -> Decomposition:
    """Decomposition of the p-th exterior power of an irrep of dimension n.

    For 2p <= n, Newton's identity: the points lam + rho + k nu of each
    summand V(lam) of Lambda^(p-k) against psi^k(T), with sign (-1)^(k-1),
    are merged over all k; the distinct points are straightened once and
    the signed sum is divided by p.  The lower degrees come from this
    function's cache, filled in increasing degree so the recursion stays
    shallow.  For 2p > n, Lambda^p is the dual of Lambda^(n-p): V(lam)
    becomes V(-w0 lam) (:func:`roots.dual_weight`).  Every degree is
    checked to add up to C(n, p).

    Points merge on their keys (:mod:`roots`), key(lam + rho + k nu) =
    key(lam + rho) + k sum_i nu_i S^i: one addition and one dict update
    each.  T's weights nu are walked as keys once per degree, in that
    degree's codec (:func:`_orbit_points`), as sum_i nu_i S^i = key(nu) - key(0).  The highest weight lam of a summand of Lambda^(p-k) is a weight
    of T^(x)(p-k), and k nu one of T^(x)k, so lam + rho + k nu is a weight
    of V(rho) (x) T^(x)p: the keys follow :func:`roots.key_codec`'s rule
    for H = p lam_T + rho, lam_T the highest weight of T.
    """
    n, p = dimension(t), _degree(p)
    if not 0 <= p <= n:
        raise DegreeOutOfRange(f"degree {p} outside [0, {n}]")
    rs = t.root_system
    if 2 * p > n:
        dual = {roots.dual_weight(rs, v.highest_weight): m for v, m in exterior_power(t, n - p)}
        return _decomposition(rs, dual, comb(n, p))
    if p == 0:
        return _decomposition(rs, {(0,) * rs.rank: 1}, 1)
    lower = [exterior_power(t, q) for q in range(p)]
    bound = sum(map(mul, [p * c + 1 for c in t.highest_weight], rs.highest_coroot))  # <H, theta^v>
    _, shifts, high, rho, _, _ = codec = roots.key_codec(rs, bound)
    keys = list(_orbit_points(dominant_multiplicities(t), codec, -high, n))  # key(nu) - key(0)
    points: dict[int, int] = {}
    get = points.get
    for k in range(1, p + 1):
        psi = [(k * x, m if k % 2 else -m) for x, m in keys]  # psi^k(T), signed
        for irr, m in lower[p - k]:
            base = sum(map(lshift, irr.highest_weight, shifts)) + rho  # key(lam + rho)
            for x, w in psi:
                x += base
                points[x] = get(x, 0) + m * w
    return _decomposition(rs, _straighten_points(codec, points.items()), comb(n, p), p)
