"""Holonomy contexts: the group, its holonomy representation, and the
registry of bundles on which the curvature endomorphism q(R) vanishes.

The catalogue is one table, ``_CONTEXTS``; adding a context is adding
a row, which :func:`make_context` checks against the Weyl dimensions.
The registry is a read-only map from highest weight to citation: the
trivial bundle, then T on a Ricci-flat row (q(R) acts on T as Ricci
curvature, so that entry follows from the row's Ricci-flat column),
then the bundles the row cites.  The build certifies every entry after
the trivial bundle by Schur's lemma.  On a Ricci-flat holonomy algebra
g the curvature tensors form one irrep, K(g) = V(2 theta) with theta
the highest root (Alekseevsky, Funct. Anal. Appl. 2, 1968): dim 77 for
G2, 168 for Spin7.  R -> q(R) is an equivariant map K(g) -> End(E)
(Semmelmann-Weingart, "The Weitzenboeck machine", Compositio Math. 146,
2010), and End(E) = E (x) E because every irrep of G2 and B3 is
self-dual; so q(R) = 0 on E when V(2 theta) does not occur in E (x) E.
A cited bundle that fails this criterion, or sits on a row that is not
Ricci-flat, is a broken row: InternalError.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from . import citations
from .decompose import Decomposition, exterior_power, tensor
from .errors import InternalError, UnsupportedContext
from .irreps import Irrep, adjoint_irrep, dimension
from .roots import RootSystem, build_root_system

# id: family, rank, holonomy weight, the pins dim T and dim g, Ricci-flatness, and the
# bundles the q(R) registry cites after the trivial bundle and, on a Ricci-flat row, T,
# as (weight, citation key) pairs
_CONTEXTS = {
    "g2": ("G", 2, (1, 0), 7, 14, True, ()),
    "spin7": ("B", 3, (0, 0, 1), 8, 21, True, (((1, 0, 0), "qr-spinor-bundle"),)),
    "so5": ("B", 2, (1, 0), 5, 10, False, ()),
    "so6": ("D", 3, (1, 0, 0), 6, 15, False, ()),
    "so7": ("B", 3, (1, 0, 0), 7, 21, False, ()),
    "so8": ("D", 4, (1, 0, 0, 0), 8, 28, False, ()),
    "so9": ("B", 4, (1, 0, 0, 0), 9, 36, False, ()),
    "so10": ("D", 5, (1, 0, 0, 0, 0), 10, 45, False, ()),
}
CONTEXT_IDS = tuple(_CONTEXTS)

# id -> the q(R) registry certified when that row's context was built
_REGISTRIES: dict[str, MappingProxyType[tuple[int, ...], str]] = {}


class HolonomyContext(NamedTuple):
    """A holonomy group with its holonomy representation and q(R) registry.

    Compares and hashes by identity, like a ``RootSystem``: ``make_context``
    caches what it builds, so a cache keyed on a context hashes no fields,
    and a ``_replace`` copy is a distinct context.  ``qr_registry`` is read from
    the catalogue row ``id``, not carried, so no copy holds an uncertified one;
    a copy whose ``id`` names no row, or whose holonomy representation is not
    its row's, has no registry and raises :class:`UnsupportedContext`.
    """

    id: str
    root_system: RootSystem
    holonomy_rep: Irrep
    n: int
    dim_g: int
    ricci_flat: bool

    @property
    def qr_registry(self) -> MappingProxyType[tuple[int, ...], str]:
        """Highest weight -> citation, certified when the row's context is built."""
        if self.id not in _CONTEXTS:
            raise UnsupportedContext(f"context {self.id!r} names no catalogue row, so it has "
                                     f"no q(R) registry; rows: {', '.join(CONTEXT_IDS)}")
        row = _make_context_cached(self.id)  # builds and certifies the row if nothing has yet
        if self.holonomy_rep != row.holonomy_rep:  # equal Irreps share their root system
            raise UnsupportedContext(f"a copy of context {self.id!r} with holonomy "
                                     f"{self.holonomy_rep!r} has no q(R) registry: the row's "
                                     f"is certified for {row.holonomy_rep!r}")
        return _REGISTRIES[self.id]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"HolonomyContext({self.id})"


def normalize_context_id(raw: str) -> str:
    if not isinstance(raw, str):
        raise UnsupportedContext(f"holonomy context {raw!r} is not a string")
    s = raw.strip().lower().replace("(", "").replace(")", "").replace("_", "")
    if s in CONTEXT_IDS:
        return s
    raise UnsupportedContext(f"unknown holonomy context {raw!r}; supported: {', '.join(CONTEXT_IDS)}")


@lru_cache(maxsize=None)
def _make_context_cached(ctx_id: str) -> HolonomyContext:
    family, rank, hol_weight, expect_n, expect_dim_g, ricci_flat, base = _CONTEXTS[ctx_id]
    rs = build_root_system(family, rank)
    hol = Irrep(rs, hol_weight)
    n = dimension(hol)
    adjoint = adjoint_irrep(rs)
    dim_g = dimension(adjoint)
    if (n, dim_g) != (expect_n, expect_dim_g):
        # the G2 pin: a flipped Cartan convention would put the adjoint at w1
        raise InternalError(
            f"context {ctx_id}: holonomy representation has dim {n} and "
            f"dim(g) = {dim_g}, expected {expect_n}/{expect_dim_g}; "
            "root system conventions are broken"
        )

    registry = {(0,) * rank: citations.CITATIONS["qr-trivial-bundle"]}
    cited = (((hol_weight, "qr-ricci-flat"),) if ricci_flat else ()) + base
    curvature = Irrep(rs, tuple(2 * c for c in adjoint.highest_weight))  # K(g), when g is Ricci-flat
    for w, key in cited:
        if not ricci_flat or curvature in tensor(Irrep(rs, w), Irrep(rs, w)).irreps():
            raise InternalError(
                f"context {ctx_id}: Schur's lemma does not certify q(R) = 0 on the cited "
                f"bundle {w}: the curvature space {curvature.highest_weight} must be one "
                "irrep (Ricci-flat) that does not occur in E (x) E"
            )
        registry.setdefault(w, citations.CITATIONS[key])
    _REGISTRIES[ctx_id] = MappingProxyType(registry)
    return HolonomyContext(
        id=ctx_id,
        root_system=rs,
        holonomy_rep=hol,
        n=n,
        dim_g=dim_g,
        ricci_flat=ricci_flat,
    )


def make_context(ctx_id: str) -> HolonomyContext:
    """Build a holonomy context (cached per id)."""
    return _make_context_cached(normalize_context_id(ctx_id))


@lru_cache(maxsize=None)
def form_space(ctx: HolonomyContext, p: int) -> Decomposition:
    """Decomposition of the p-forms on the holonomy representation (cached)."""
    return exterior_power(ctx.holonomy_rep, p)

