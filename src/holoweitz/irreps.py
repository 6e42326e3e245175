"""Irreducible highest-weight representations.

Highest weights and every weight computed from them are tuples of
integer Dynkin labels (see :mod:`roots`).  Dimensions come from the Weyl
dimension formula, weight multiplicities from the Freudenthal recursion
over the dominant closure of the highest weight, Casimir eigenvalues
from the highest weight.  The closure and the Freudenthal strings run on
integer keys (:func:`roots.key_codec`), and each dominant weight is
decoded to labels once.  The dominant multiplicities are the one cached
unit of an irrep's weights: :func:`weights` decodes the Weyl orbits
walked on keys (:func:`roots.orbit`) and is not cached, and the kernels
of :mod:`decompose` walk the orbits in their own codecs.  Ambient
coordinates appear only at the API edge: the keys of
:func:`weight_system` and the entries of :func:`full_weights`, which
maps :func:`weights` to ambient coordinates.

The sign convention is Cas = sum X_i^2, so Casimir eigenvalues are
negative (zero only on the trivial representation).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import prod
from operator import add, itemgetter, lshift, mul, not_, sub
from types import MappingProxyType
from typing import Mapping

from . import roots
from .errors import InternalError, MixedRootSystems, TrivialHolonomyRep
from .roots import Labels, RootSystem, Weight, dot

WeightSystem = Mapping[Weight, int]


class Irrep(namedtuple("Irrep", ("root_system", "highest_weight"))):
    """A dominant integral highest weight bound to its root system.

    The highest weight is stored in fundamental coordinates as
    non-negative integers; two irreps are equal iff they share the root
    system and the highest weight.  An immutable pair: equality and hash
    are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, root_system: RootSystem, highest_weight) -> Irrep:
        hw = highest_weight  # converted unless a tuple of plain ints (a bool's type is not int)
        if type(hw) is not tuple or {*map(type, hw)} != {int}:
            try:
                given = tuple(highest_weight)
                hw = tuple(map(int, given))
            except (TypeError, ValueError, OverflowError):  # e.g. 5, None, "a" or inf
                given = hw = ()
            if hw != given or bool in map(type, given):  # == keeps 2.0 and Fraction(2), not 1.5
                hw = ()
        if len(hw) != root_system.rank or min(hw) < 0:
            raise ValueError(f"highest weight {highest_weight} invalid for {root_system}")
        return tuple.__new__(cls, (root_system, hw))

    @classmethod
    def _make(cls, iterable) -> Irrep:  # so that _replace validates as well
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"Irrep({self.root_system.family}{self.root_system.rank}, {self.highest_weight})"


def _unchecked_irrep(rs: RootSystem, hw: Labels) -> Irrep:
    """``Irrep(rs, hw)`` without its checks, for a highest weight that the
    decomposition kernel computed: a tuple of ``rs.rank`` non-negative ints."""
    return tuple.__new__(Irrep, (rs, hw))


def adjoint_irrep(rs: RootSystem) -> Irrep:
    """Irrep with the highest root as highest weight."""
    return Irrep(rs, rs.positive_labels[-1])


@lru_cache(maxsize=None)
def dimension(irrep: Irrep) -> int:
    """Weyl dimension formula: prod over positive roots of (l+rho,a)/(rho,a).

    The numerator's pairings are summed along the root poset
    (:func:`roots.poset_pairings`), one addition per positive root that
    is not simple; the denominator is the root system's ``weyl_denominator``.
    No root system built can fail the integrality check: the quotient is
    dim V(lam) (Weyl; Humphreys, GTM 9, 24.3)."""
    rs = irrep.root_system
    num = prod(roots.poset_pairings(rs.root_poset, [c + 1 for c in irrep.highest_weight]))
    value, rest = divmod(num, den := rs.weyl_denominator)
    if rest:
        raise InternalError(f"Weyl dimension of {irrep} is not an integer: {num}/{den}")
    return value


def _dominant_closure(rs: RootSystem, lam: Labels, codec: tuple) -> list[tuple[int, int]]:
    """Dominant weights of the irrep with highest weight ``lam`` as (key, (mu, rho))
    pairs, highest first, in the keys of ``codec``.

    The closure of lam under mu -> mu - a (a > 0), kept dominant, is every
    dominant mu <= lam, since dominant weights below one another are joined
    by positive roots (Stembridge, Adv. Math. 136, 1998).  It runs on keys
    (:func:`roots.key_codec`): key(mu - a) = key(mu) - sum_i a_i S^i, and mu - a
    is dominant iff ``high & ~key(mu - a)`` is zero.  The points met, mu - a,
    are weights of V(lam) (x) V(theta), theta the highest root, and the codec
    must hold them: :func:`roots.key_codec`'s rule for H = lam + theta.
    (mu - a, rho) = (mu, rho) - (a, rho) is a running integer in gram units;
    it is never negative on a dominant weight, so a key reached with
    (mu, rho) < 0 was coded too narrow, and ``InternalError`` ends the walk.
    The order is by decreasing (mu, rho), so every weight comes after all
    weights above it; weights of equal (mu, rho) keep breadth-first order.
    """
    _, shifts, high, _, _, _ = codec
    steps = [(sum(map(lshift, a, shifts)), sum(wa))  # (key step, (a, rho))
             for a, wa in zip(rs.positive_labels, rs.root_pairings)]
    key = sum(map(lshift, lam, shifts)) + high
    height = {key: sum(map(mul, lam, map(sum, rs.gram)))}  # key -> (mu, rho)
    queue = [key]
    for key in queue:  # breadth first; the loop also visits what it appends
        if (h := height[key]) < 0:  # no dominant weight has (mu, rho) < 0
            raise InternalError(f"a closure key of {lam} has (mu, rho) < 0: "
                                "its digits overflow")
        for step, r in steps:
            if not high & ~(nu := key - step) and nu not in height:
                height[nu] = h - r
                queue.append(nu)
    return sorted(height.items(), key=itemgetter(1), reverse=True)  # stable on ties


def _root_classes(rs: RootSystem, zeros: tuple[int, ...]) -> dict[int, int]:
    """Classes of positive roots under W_mu up to sign, W_mu generated by the s_i
    with i in ``zeros``: each class's one root with no negative label in ``zeros``,
    reached by raising reflections, as its index in ``rs.positive_labels``,
    mapped to the class size.

    Highest root first: s_i a for a[i] < 0 is a higher positive root, so its
    representative is known and a takes at most one reflection."""
    top: dict[Labels, int] = {}
    classes: Counter[int] = Counter()  # not Counter(iterable): its Mapping check is slow cold
    for k in reversed(range(len(rs.positive_labels))):
        a = rs.positive_labels[k]
        for i in zeros:
            if a[i] < 0:  # s_i a = a - a_i * (row i of the Cartan matrix)
                top[a] = top[tuple(map(sub, a, [a[i] * c for c in rs.cartan_matrix[i]]))]
                break
        else:
            top[a] = k
        classes[top[a]] += 1
    return classes


def _walk(key: int, codec: tuple, known: dict[int, int]) -> int:
    """The entry of ``known`` first met on the way of :func:`roots.dominant_key`
    from the string point at ``key`` (not in ``known``, with a negative label)
    into the dominant chamber, or 0 if the walk reaches the chamber without one.
    ``InternalError`` past the codec's cap on reflections, as in ``dominant_key``."""
    bits, _, high, _, simple_keys, cap = codec
    mask, half = (1 << bits) - 1, 1 << bits - 1
    for _ in range(cap + 1):
        if not (neg := high & ~key):
            return 0
        i = neg.bit_length() // bits - 1
        key -= ((key >> bits * i & mask) - half) * simple_keys[i]
        if (m := known.get(key)) is not None:
            return m
    raise InternalError(f"a string walk needs more than |Phi+| = {cap} reflections: "
                        "its key digits overflow")


@lru_cache(maxsize=None)
def dominant_multiplicities(irrep: Irrep) -> Mapping[Labels, int]:
    """Multiplicities of the dominant weights, by the Freudenthal recursion, as a
    read-only view of the cached dict: the one cached unit of an irrep's weights.

    m(mu) * (lam - mu, lam + mu + 2 rho)        [= ||lam+rho||^2 - ||mu+rho||^2]
        = 2 * sum_{a>0} sum_{k>=1} m(mu + k a) * (mu + k a, a)

    evaluated over the dominant closure, highest first (:func:`_dominant_closure`,
    which also hands over (mu, rho)); (mu + k a, a) is a running sum with
    step (a, a), and its first term (mu, a) comes, for every root class at
    once, from one pass along the root poset (:func:`roots.poset_pairings`).
    Each string stops at the first point that is not a weight, and at the
    latest once its norm passes lam's:
    every weight mu' of V(lam) has (mu', mu') <= (lam, lam), since the
    dominant representative of mu' is below lam and (lam, lam) - (mu', mu')
    = (lam - mu', lam + mu') >= 0.  The norm is a running integer too,
    N(nu + a) = N(nu) + 2 (nu + a, a) - (a, a).

    A string walks on one integer key per point (:func:`roots.key_codec`:
    digit i holds nu_i + S/2), so a step adds sum_i a_i S^i and probes one
    dict.  A string point is a weight of V(lam), or where the string ends a
    weight plus a positive root; either way a weight of V(lam) (x) V(theta),
    like the closure's points, so the keys follow :func:`roots.key_codec`'s
    rule for H = lam + theta, theta the highest root: the digits never carry
    and distinct points have distinct keys.  The keys never leave the call.

    The dict ``known`` maps keys to multiplicities, 0 off the weights; m(mu)
    is entered at key(mu) once it is set for a dominant mu, lam included.
    A string point whose key is not known and has a negative label is
    reflected, as a key alone, towards the dominant chamber by
    :func:`_walk`, and takes the first known entry met on the way.  The keys
    walked are Weyl images of the point, inside the codec's rule as well.
    If the walk reaches the chamber without one, the point is not a
    weight: the dominant form of mu + k a (k >= 1) lies above mu, so it
    comes before mu in the closure's order and is known if it is a
    weight.  The point's own key then holds the answer.

    The right side is summed by classes (Moody-Patera, Bull. AMS 7, 1982):
    the stabiliser W_mu of mu, generated by the s_i with mu_i = 0, keeps
    the string sum over k of a, and so does a -> -a for a orthogonal to
    mu.  So each class of positive roots under W_mu up to sign adds its
    size times the string sum of one root; a W_mu-orbit of roots
    orthogonal to mu counts half its size.  The class tables are built
    per zero pattern of mu, inside the call.
    """
    rs, lam = irrep.root_system, irrep.highest_weight
    top = dot(rs, lam, lam)
    top_rho = top + 2 * sum(map(mul, lam, map(sum, rs.gram)))  # (lam, lam + 2 rho)
    poset, labels, pairings_of = rs.root_poset, rs.positive_labels, rs.root_pairings
    bound = sum(map(mul, map(add, lam, labels[-1]), rs.highest_coroot))  # <lam + theta, theta^v>
    bits, shifts, high, _, _, _ = codec = roots.key_codec(rs, bound)
    mask, half = (1 << bits) - 1, 1 << bits - 1
    tables: dict[tuple[bool, ...], list[tuple[int, int, int, int]]] = {}
    closure = _dominant_closure(rs, lam, codec)
    mult = {lam: 1}
    known = {closure[0][0]: 1}  # key -> multiplicity, 0 off the weights
    for key_mu, mu_rho in closure[1:]:
        mu = tuple([(key_mu >> s & mask) - half for s in shifts])
        pattern = tuple(map(bool, mu))
        if (table := tables.get(pattern)) is None:  # (root's index, key step, (a, a), size)
            zeros = tuple(compress(range(rs.rank), map(not_, pattern)))
            table = tables[pattern] = [
                (k, sum(map(lshift, labels[k], shifts)), sum(map(mul, labels[k], pairings_of[k])),
                 size) for k, size in _root_classes(rs, zeros).items()]
        pairings = roots.poset_pairings(poset, mu)  # (mu, a) for every positive root a
        norm_mu = dot(rs, mu, mu)
        total = 0
        for k, step_key, step, size in table:
            pairing, string = pairings[k] + step, 0
            norm, key = norm_mu + 2 * pairing - step, key_mu
            while norm <= top:
                key += step_key
                if (m := known.get(key)) is None:
                    m = known[key] = _walk(key, codec, known) if high & ~key else 0
                if not m:
                    break
                string += m * pairing
                pairing += step
                norm += 2 * pairing - step
            total += size * string
        gap = top_rho - norm_mu - 2 * mu_rho
        value, rest = divmod(2 * total, gap)
        if rest or value <= 0:
            raise InternalError(f"Freudenthal failed at {mu} for {irrep}: {2 * total}/{gap}")
        mult[mu] = known[key_mu] = value
    return MappingProxyType(mult)


@lru_cache(maxsize=None)
def weight_system(irrep: Irrep) -> WeightSystem:
    """Dominant weight multiplicities keyed by ambient coordinates.

    Multiplicities at arbitrary points follow by Weyl invariance.  The
    answer is a read-only view of the cached dict, so no caller can
    change what later calls return.
    """
    rs = irrep.root_system
    mult = dominant_multiplicities(irrep)
    scaled = [[sum(map(mul, mu, col)) for col in rs.fundamental_columns] for mu in mult]
    frac = {x: Fraction(x, rs.den) for x in set().union(*scaled)}  # one per distinct coordinate
    return MappingProxyType(
        {tuple(map(frac.get, coords)): m for coords, m in zip(scaled, mult.values())})


def weights(irrep: Irrep) -> tuple[tuple[Labels, int], ...]:
    """Every distinct weight in Dynkin labels with its multiplicity, one walk: the
    dominant weights in :func:`dominant_multiplicities` order (decreasing (mu, rho),
    breadth first among equals), each followed by its Weyl orbit in
    :func:`roots.orbit`'s breadth-first order, the key walk decoded.  Not cached:
    its readers cache what they build from it, and the kernels of :mod:`decompose`
    walk the orbits on keys themselves.  Checked: the multiplicities add up to
    ``dimension(irrep)``, or :class:`InternalError`."""
    out = tuple((nu, m) for mu, m in dominant_multiplicities(irrep).items()
                for nu in roots.orbit(irrep.root_system, mu))
    if (found := sum(m for _, m in out)) != (n := dimension(irrep)):
        raise InternalError(f"weights of {irrep} add up to dimension {found}, expected {n}")
    return out


@lru_cache(maxsize=None)
def full_weights(irrep: Irrep) -> tuple[Weight, ...]:
    """The complete weight multiset in ambient coordinates, of length dimension(irrep):
    :func:`weights` in its order, each weight repeated by its multiplicity."""
    rs = irrep.root_system
    return tuple(w for nu, m in weights(irrep) for w in [roots.to_orthogonal(rs, nu)] * m)


def _casimir_number(rs: RootSystem, lam: Labels) -> int:
    """(lam, lam + 2 rho) in gram units, an integer."""
    return dot(rs, lam, tuple(c + 2 for c in lam))


def _holonomy_casimir_number(t: Irrep) -> int:
    """C_T = (T, T + 2 rho) of a holonomy representation T, in gram units."""
    c_t = _casimir_number(t.root_system, t.highest_weight)
    if c_t == 0:
        raise TrivialHolonomyRep("holonomy representation has zero Casimir")
    return c_t


def casimir_lambda2(ctx, irrep: Irrep) -> Fraction:
    """Lambda2(T)-normalized Casimir eigenvalue in a holonomy context.

    c_lam = -2 dim(g) (lam, lam + 2 rho) / (n (T, T + 2 rho)), since c_T =
    -2 dim(g)/n in this normalization; the scale of the invariant form cancels.
    """
    rs = ctx.root_system
    if irrep.root_system != rs:
        raise MixedRootSystems(f"{irrep} does not live on {rs}")
    c_t = _holonomy_casimir_number(ctx.holonomy_rep)
    return Fraction(-2 * ctx.dim_g * _casimir_number(rs, irrep.highest_weight), ctx.n * c_t)
