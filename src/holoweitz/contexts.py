"""Holonomy contexts: the group, its holonomy representation T, and the
registry of bundles on which the curvature endomorphism q(R) vanishes.

:class:`HolonomyContext` is the one constructor, for any root system and
any T.  Its registry is a read-only map from highest weight to citation:
the trivial bundle, then T on a Ricci-flat context (q(R) acts on T as
Ricci curvature), then the bundles its catalogue row cites; a context
built outside the catalogue cites none.  Every entry after the trivial
bundle must also pass Schur's lemma.  On the Ricci-flat holonomy algebras
of Berger's list the curvature tensors form one irrep, K(g) = V(2 theta)
with theta the highest root (Alekseevsky, Funct. Anal. Appl. 2, 1968):
dim 77 for G2, 168 for Spin7.  R -> q(R) is an equivariant map
K(g) -> End(E) (Semmelmann-Weingart, "The Weitzenboeck machine",
Compositio Math. 146, 2010), and End(E) = E (x) E because every irrep of
G2 and B3, the only groups whose rows cite bundles, is self-dual; so
q(R) = 0 on E when V(2 theta) does not occur in E (x) E.
The catalogue is one table, ``_CONTEXTS``; adding a context is adding a
row, which :func:`make_context` builds and checks against the Weyl
dimensions.  A row the constructor rejects is broken: InternalError.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from . import citations
from .decompose import Decomposition, exterior_power, tensor
from .errors import InternalError, UnsupportedContext
from .irreps import Irrep, adjoint_irrep, dimension
from .roots import build_root_system

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


class HolonomyContext:
    """A holonomy group with its holonomy representation T and certified q(R) registry.

    ``HolonomyContext(id, holonomy_rep, ricci_flat)`` derives ``root_system``,
    ``n`` = dim T and ``dim_g`` from T, and certifies ``qr_registry``.  Only a
    catalogue row cites bundles; a catalogue id with anything but its row's T
    and Ricci-flat column is ``UnsupportedContext``, since claim sets and
    printed formulas are looked up by id.  Fields cannot be assigned or
    deleted, and a context compares and hashes by identity, like a
    ``RootSystem``, so a cache keyed on a context hashes no fields.
    """

    __slots__ = ("id", "root_system", "holonomy_rep", "n", "dim_g", "ricci_flat", "qr_registry")

    def __init__(self, id: str, holonomy_rep: Irrep, ricci_flat: bool):
        if not isinstance(id, str):
            raise UnsupportedContext(f"holonomy context id {id!r} is not a string")
        rs = holonomy_rep.root_system
        cited = ()
        if id in _CONTEXTS:
            family, rank, weight, _, _, row_ricci_flat, cited = _CONTEXTS[id]
            if (holonomy_rep, ricci_flat) != (Irrep(build_root_system(family, rank), weight),
                                              row_ricci_flat):
                raise UnsupportedContext(f"context id {id!r} names a catalogue row: only that "
                                         "row's T and Ricci-flat column take it")
        adjoint = adjoint_irrep(rs)
        registry = {(0,) * rs.rank: citations.CITATIONS["qr-trivial-bundle"]}
        curvature = Irrep(rs, tuple(2 * c for c in adjoint.highest_weight))  # K(g), when Ricci-flat
        t_entry = ((holonomy_rep.highest_weight, "qr-ricci-flat"),) if ricci_flat else ()
        for w, key in t_entry + cited:
            if not ricci_flat or curvature in tensor(Irrep(rs, w), Irrep(rs, w)).irreps():
                raise UnsupportedContext(
                    f"context {id}: Schur's lemma does not certify q(R) = 0 on the cited "
                    f"bundle {w}: the curvature space {curvature.highest_weight} must be one "
                    "irrep (Ricci-flat) that does not occur in E (x) E"
                )
            registry.setdefault(w, citations.CITATIONS[key])
        values = (id, rs, holonomy_rep, dimension(holonomy_rep), dimension(adjoint), ricci_flat,
                  MappingProxyType(registry))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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
    family, rank, weight, expect_n, expect_dim_g, ricci_flat, _ = _CONTEXTS[ctx_id]
    t = Irrep(build_root_system(family, rank), weight)
    try:
        ctx = HolonomyContext(ctx_id, t, ricci_flat)
    except UnsupportedContext as exc:  # a built-in row is certified by construction
        raise InternalError(str(exc)) from exc
    if (ctx.n, ctx.dim_g) != (expect_n, expect_dim_g):
        # the G2 pin: a flipped Cartan convention would put the adjoint at w1
        raise InternalError(
            f"context {ctx_id}: holonomy representation has dim {ctx.n} and "
            f"dim(g) = {ctx.dim_g}, expected {expect_n}/{expect_dim_g}; "
            "root system conventions are broken"
        )
    return ctx


def make_context(ctx_id: str) -> HolonomyContext:
    """Build a holonomy context from its catalogue row (cached per id)."""
    return _make_context_cached(normalize_context_id(ctx_id))


@lru_cache(maxsize=None)
def form_space(ctx: HolonomyContext, p: int) -> Decomposition:
    """Decomposition of the p-forms on the holonomy representation (cached)."""
    return exterior_power(ctx.holonomy_rep, p)
