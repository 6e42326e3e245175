"""Irreducible highest-weight representations.

Highest weights and every weight computed from them are tuples of
integer Dynkin labels (see :mod:`roots`).  Dimensions come from the Weyl
dimension formula, weight multiplicities from the Freudenthal recursion
over the dominant closure of the highest weight, Casimir eigenvalues
from the highest weight.  Ambient coordinates appear only at the API
edge: the keys of :func:`weight_system` and the entries of
:func:`full_weights`, the one walk of the complete weight multiset
(every Weyl orbit of a dominant weight, repeated by its multiplicity).

The sign convention is Cas = sum X_i^2, so Casimir eigenvalues are
negative (zero only on the trivial representation).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from operator import mul, sub
from types import MappingProxyType
from typing import Mapping

from . import roots
from .errors import MixedRootSystems, TrivialHolonomyRep
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


def trivial_irrep(rs: RootSystem) -> Irrep:
    return Irrep(rs, (0,) * rs.rank)


def adjoint_irrep(rs: RootSystem) -> Irrep:
    """Irrep with the highest root as highest weight."""
    return Irrep(rs, rs.positive_labels[-1])


@lru_cache(maxsize=None)
def dimension(irrep: Irrep) -> int:
    """Weyl dimension formula: prod over positive roots of (l+rho,a)/(rho,a).

    The denominator is the root system's ``weyl_denominator``."""
    rs = irrep.root_system
    lam_rho = [c + 1 for c in irrep.highest_weight]
    num, den = prod([sum(map(mul, lam_rho, wa)) for wa in rs.root_pairings]), rs.weyl_denominator
    value, rest = divmod(num, den)
    if rest:
        raise RuntimeError(f"Weyl dimension of {irrep} is not an integer: {num}/{den}")
    return value


def _dominant_closure(rs: RootSystem, lam: Labels) -> list[Labels]:
    """Dominant weights of the irrep with highest weight ``lam``, highest first.

    The closure of lam under mu -> mu - a (a > 0), kept dominant, is every
    dominant mu <= lam, since dominant weights below one another are joined
    by positive roots (Stembridge, Adv. Math. 136, 1998).  The order is by
    decreasing (mu, rho), so every weight comes after all weights above it.
    (mu, rho) is one pairing with the row sums of ``gram``.
    """
    # mu - a is dominant iff mu_i >= a_i wherever a_i > 0: test those labels first
    lowered = [(a, [(i, x) for i, x in enumerate(a) if x > 0]) for a in rs.positive_labels]
    seen, queue = {lam}, [lam]
    for mu in queue:  # breadth first; the loop also visits what it appends
        for a, low in lowered:
            for i, x in low:
                if mu[i] < x:
                    break
            else:
                if (nu := tuple(map(sub, mu, a))) not in seen:
                    seen.add(nu)
                    queue.append(nu)
    rho = [sum(row) for row in rs.gram]
    return sorted(seen, key=lambda mu: -sum(map(mul, mu, rho)))


def _root_classes(rs: RootSystem, zeros: tuple[int, ...]) -> dict[Labels, int]:
    """Classes of positive roots under W_mu up to sign, W_mu generated by the s_i
    with i in ``zeros``: each class's one root with no negative label in ``zeros``,
    reached by raising reflections, mapped to the class size.

    Highest root first: s_i a for a[i] < 0 is a higher positive root, so its
    representative is known and a takes at most one reflection."""
    top: dict[Labels, Labels] = {}
    classes: Counter[Labels] = Counter()  # not Counter(iterable): its Mapping check is slow cold
    for a in reversed(rs.positive_labels):
        i = next((i for i in zeros if a[i] < 0), None)
        top[a] = a if i is None else top[tuple(x - a[i] * c for x, c in zip(a, rs.cartan_matrix[i]))]
        classes[top[a]] += 1
    return classes


@lru_cache(maxsize=None)
def dominant_multiplicities(irrep: Irrep) -> Mapping[Labels, int]:
    """Multiplicities of the dominant weights, by the Freudenthal recursion.

    m(mu) * (lam - mu, lam + mu + 2 rho)        [= ||lam+rho||^2 - ||mu+rho||^2]
        = 2 * sum_{a>0} sum_{k>=1} m(mu + k a) * (mu + k a, a)

    evaluated over the dominant closure, highest first; (mu + k a, a) is a
    running sum with step (a, a).  Each string stops at the first point
    that is not a weight, and at the latest once its norm passes lam's:
    every weight mu' of V(lam) has (mu', mu') <= (lam, lam), since the
    dominant representative of mu' is below lam and (lam, lam) - (mu', mu')
    = (lam - mu', lam + mu') >= 0.  The norm is a running integer too,
    N(nu + a) = N(nu) + 2 (nu + a, a) - (a, a).

    A string walks on one integer key per point, key(nu) = sum_i nu_i S^i,
    so a step adds key(a) and probes one dict.  The norm bound gives
    |nu_i| = 2 |(nu, a_i)| / (a_i, a_i) <= 2 sqrt((lam, lam) / (a_i, a_i)) <= B,
    B taken at a short simple root, on every point walked; S is a power of
    two above 2 B, so the digits never carry and distinct points have
    distinct keys.  The dict holds m at the key of every dominant weight
    found so far and of every string point already resolved.  On a miss
    the point's labels are built: a dominant point not yet found is not a
    weight, and a non-dominant one is straightened, once per call, and
    read at its dominant representative.  The keys never leave the call.

    The right side is summed by classes (Moody-Patera, Bull. AMS 7, 1982):
    the stabiliser W_mu of mu, generated by the s_i with mu_i = 0, keeps
    the string sum over k of a, and so does a -> -a for a orthogonal to
    mu.  So each class of positive roots under W_mu up to sign adds its
    size times the string sum of one root; a W_mu-orbit of roots
    orthogonal to mu counts half its size.  The class tables are built
    per zero pattern of mu, inside the call.  The answer is a read-only
    view of the cached dict, as in :func:`weight_system`.
    """
    rs, lam = irrep.root_system, irrep.highest_weight
    rho = [sum(row) for row in rs.gram]  # (w_i, rho)
    top = dot(rs, lam, lam)
    top_rho = top + 2 * sum(map(mul, lam, rho))  # (lam, lam + 2 rho)
    # (rho, a) = sum(gram . a) is least, (a_i, a_i) / 2, at a short simple root
    bits = (2 * isqrt(2 * top // min(map(sum, rs.root_pairings)))).bit_length()  # S = 2^bits > 2 B
    powers = [1 << bits * i for i in range(rs.rank)]
    pairings = dict(zip(rs.positive_labels, rs.root_pairings))
    tables: dict[tuple[int, ...], list[tuple[Labels, int, Labels, int, int]]] = {}
    mult = {lam: 1}
    known = {sum(map(mul, lam, powers)): 1}  # key -> multiplicity, 0 off the weights
    for mu in _dominant_closure(rs, lam)[1:]:
        zeros = tuple(i for i, c in enumerate(mu) if not c)
        if zeros not in tables:  # (root, its key, its pairings, (a, a), class size) per class
            tables[zeros] = [(a, sum(map(mul, a, powers)), wa := pairings[a],
                              sum(map(mul, a, wa)), size)
                             for a, size in _root_classes(rs, zeros).items()]
        norm_mu = dot(rs, mu, mu)
        key_mu = sum(map(mul, mu, powers))
        total = 0
        for a, step_key, wa, step, size in tables[zeros]:
            pairing, string = sum(map(mul, mu, wa)) + step, 0
            norm, key, k = norm_mu + 2 * pairing - step, key_mu, 0
            while norm <= top:
                key += step_key
                k += 1
                if (m := known.get(key)) is None:
                    nu = tuple(x + k * y for x, y in zip(mu, a))
                    m = known[key] = 0 if min(nu) >= 0 else known.get(
                        sum(map(mul, roots.dominant(rs, nu)[0], powers)), 0)
                if not m:
                    break
                string += m * pairing
                pairing += step
                norm += 2 * pairing - step
            total += size * string
        gap = top_rho - norm_mu - 2 * sum(map(mul, mu, rho))
        value, rest = divmod(2 * total, gap)
        if rest or value <= 0:
            raise RuntimeError(f"Freudenthal failed at {mu} for {irrep}: {2 * total}/{gap}")
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


@lru_cache(maxsize=None)
def full_weights(irrep: Irrep) -> tuple[Weight, ...]:
    """The complete weight multiset in ambient coordinates; length dimension(irrep).

    Deterministic order: dominant weights highest first (by (mu, rho)),
    each Weyl orbit sorted by Dynkin labels, repeated by multiplicity.
    """
    rs = irrep.root_system
    out = tuple(
        w
        for mu, m in dominant_multiplicities(irrep).items()
        for w in [roots.to_orthogonal(rs, nu) for nu in sorted(roots.orbit(rs, mu))]
        for _ in range(m)
    )
    if len(out) != dimension(irrep):
        raise RuntimeError(
            f"weight multiset of {irrep} has {len(out)} entries, "
            f"expected {dimension(irrep)}"
        )
    return out


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
