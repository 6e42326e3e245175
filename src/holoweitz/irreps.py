"""Irreducible highest-weight representations.

Highest weights and every weight computed from them are tuples of
integer Dynkin labels (see :mod:`roots`).  Dimensions come from the Weyl
dimension formula, weight multiplicities from the Freudenthal recursion
over the dominant closure of the highest weight, Casimir eigenvalues
from the highest weight.  Ambient coordinates appear only at the API
edge: ``Irrep.hw_orthogonal``, the keys of :func:`weight_system` and
:func:`full_weights`.

The sign convention is Cas = sum X_i^2, so Casimir eigenvalues are
negative (zero only on the trivial representation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import roots
from .errors import MixedRootSystems, TrivialHolonomyRep
from .roots import Labels, RootSystem, Weight, dot

WeightSystem = dict[Weight, int]


@dataclass(frozen=True)
class Irrep:
    """A dominant integral highest weight bound to its root system.

    The highest weight is stored in fundamental coordinates as
    non-negative integers; two irreps are equal iff they share the root
    system and the highest weight.
    """

    root_system: RootSystem
    highest_weight: tuple[int, ...]

    def __post_init__(self):
        try:
            hw = given = tuple(self.highest_weight)
        except TypeError:  # not a sequence, e.g. 5 or None
            hw = given = ()
        if set(map(type, given)) != {int}:
            try:  # == keeps 2.0 and Fraction(2) but not the truncated 1.5 or "1"
                hw = tuple(map(int, given))
            except (TypeError, ValueError, OverflowError):
                hw = ()
        rank = self.root_system.rank
        if hw != given or bool in map(type, given) or len(hw) != rank or min(hw) < 0:
            raise ValueError(
                f"highest weight {self.highest_weight} invalid for {self.root_system}"
            )
        object.__setattr__(self, "highest_weight", hw)

    @property
    def hw_orthogonal(self) -> Weight:
        return roots.to_orthogonal(self.root_system, self.highest_weight)

    def __repr__(self) -> str:
        return f"Irrep({self.root_system.family}{self.root_system.rank}, {self.highest_weight})"


def trivial_irrep(rs: RootSystem) -> Irrep:
    return Irrep(rs, (0,) * rs.rank)


def adjoint_irrep(rs: RootSystem) -> Irrep:
    """Irrep with the highest root as highest weight."""
    return Irrep(rs, rs.positive_labels[-1])


@lru_cache(maxsize=None)
def dimension(irrep: Irrep) -> int:
    """Weyl dimension formula: prod over positive roots of (l+rho,a)/(rho,a)."""
    rs = irrep.root_system
    lam_rho = tuple(c + 1 for c in irrep.highest_weight)
    num = den = 1
    for a in rs.positive_labels:
        wa = [sum(map(mul, row, a)) for row in rs.gram]  # (w_i, a) in gram units
        num *= sum(map(mul, lam_rho, wa))
        den *= sum(wa)
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
    """
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a in rs.positive_labels:
                nu = tuple(m - x for m, x in zip(mu, a))
                if min(nu) >= 0 and nu not in seen:
                    seen.add(nu)
                    nxt.append(nu)
        frontier = nxt
    rho = (1,) * rs.rank
    return sorted(seen, key=lambda mu: -dot(rs, mu, rho))


@lru_cache(maxsize=None)
def dominant_multiplicities(irrep: Irrep) -> dict[Labels, int]:
    """Multiplicities of the dominant weights, by the Freudenthal recursion.

    m(mu) * (||lam+rho||^2 - ||mu+rho||^2)
        = 2 * sum_{a>0} sum_{k>=1} m(mu + k a) * (mu + k a, a)

    evaluated over the dominant closure, highest first; m(mu + k a) is
    read at the dominant representative of mu + k a.
    """
    rs = irrep.root_system
    lam = irrep.highest_weight

    def norm(mu: Labels) -> int:
        mu_rho = tuple(c + 1 for c in mu)
        return dot(rs, mu_rho, mu_rho)

    top = norm(lam)
    mult = {lam: 1}
    for mu in _dominant_closure(rs, lam)[1:]:
        total = 0
        for a in rs.positive_labels:
            nu = tuple(m + x for m, x in zip(mu, a))
            while m := mult.get(roots.dominant(rs, nu)[0], 0):
                total += m * dot(rs, nu, a)
                nu = tuple(n + x for n, x in zip(nu, a))
        value, rest = divmod(2 * total, top - norm(mu))
        if rest or value <= 0:
            raise RuntimeError(
                f"Freudenthal failed at {mu} for {irrep}: {2 * total}/{top - norm(mu)}"
            )
        mult[mu] = value
    return mult


@lru_cache(maxsize=None)
def weight_system(irrep: Irrep) -> WeightSystem:
    """Dominant weight multiplicities keyed by ambient coordinates.

    Multiplicities at arbitrary points follow by Weyl invariance.
    """
    rs = irrep.root_system
    return {roots.to_orthogonal(rs, mu): m for mu, m in dominant_multiplicities(irrep).items()}


def weight_labels(irrep: Irrep) -> list[Labels]:
    """The complete weight multiset in Dynkin labels.

    Deterministic order: dominant weights highest first (by (mu, rho)),
    each Weyl orbit sorted, repeated by multiplicity.
    """
    rs = irrep.root_system
    return [
        nu
        for mu, m in dominant_multiplicities(irrep).items()
        for nu in sorted(roots.orbit(rs, mu))
        for _ in range(m)
    ]


@lru_cache(maxsize=None)
def full_weights(irrep: Irrep) -> tuple[Weight, ...]:
    """:func:`weight_labels` in ambient coordinates; length dimension(irrep)."""
    rs = irrep.root_system
    labels = weight_labels(irrep)
    ambient = {nu: roots.to_orthogonal(rs, nu) for nu in set(labels)}
    out = tuple(ambient[nu] for nu in labels)
    if len(out) != dimension(irrep):
        raise RuntimeError(
            f"weight multiset of {irrep} has {len(out)} entries, "
            f"expected {dimension(irrep)}"
        )
    return out


def _casimir_number(rs: RootSystem, lam: Labels) -> int:
    """(lam, lam + 2 rho) in gram units, an integer."""
    return dot(rs, lam, tuple(c + 2 for c in lam))


def casimir_base(irrep: Irrep) -> Fraction:
    """Casimir eigenvalue -(lam, lam + 2 rho) under the root system's base form."""
    rs = irrep.root_system
    return -rs.form_scale * _casimir_number(rs, irrep.highest_weight)


def casimir_lambda2(ctx, irrep: Irrep) -> Fraction:
    """Lambda2(T)-normalized Casimir eigenvalue in a holonomy context.

    c_lam = -2 dim(g) (lam, lam + 2 rho) / (n (T, T + 2 rho)), since c_T =
    -2 dim(g)/n in this normalization; the scale of the invariant form cancels.
    """
    rs = ctx.root_system
    if irrep.root_system != rs:
        raise MixedRootSystems(f"{irrep} does not live on {rs}")
    c_t = _casimir_number(rs, ctx.holonomy_rep.highest_weight)
    if c_t == 0:
        raise TrivialHolonomyRep("holonomy representation has zero Casimir")
    return Fraction(-2 * ctx.dim_g * _casimir_number(rs, irrep.highest_weight), ctx.n * c_t)
