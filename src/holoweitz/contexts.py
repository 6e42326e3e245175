"""Holonomy contexts: the group, its holonomy representation, and the
registry of bundles on which the curvature endomorphism q(R) vanishes.

The catalogue is one table, ``_CONTEXTS``; adding a context is adding
a row, which :func:`make_context` checks against the Weyl dimensions.
Registry entries are context data with citations, not computations: the
facts behind them (Ricci-flatness, the spinor-bundle argument for the
7-dimensional Spin7 bundle) are analytic inputs.  Extra entries can be
loaded from a JSON file, see :func:`load_registry`.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from . import citations
from .decompose import Decomposition, exterior_power
from .errors import InternalError, UnsupportedContext
from .irreps import Irrep, adjoint_irrep, dimension
from .roots import RootSystem, build_root_system

# id: family, rank, holonomy weight, the pins dim T and dim g, Ricci-flatness, and the
# q(R) registry after the trivial bundle as (weight, citation key) pairs
_CONTEXTS = {
    "g2": ("G", 2, (1, 0), 7, 14, True, (((1, 0), "qr-ricci-flat"),)),
    "spin7": ("B", 3, (0, 0, 1), 8, 21, True, (((0, 0, 1), "qr-ricci-flat"), ((1, 0, 0), "qr-spinor-bundle"))),
    "so5": ("B", 2, (1, 0), 5, 10, False, ()),
    "so6": ("D", 3, (1, 0, 0), 6, 15, False, ()),
    "so7": ("B", 3, (1, 0, 0), 7, 21, False, ()),
    "so8": ("D", 4, (1, 0, 0, 0), 8, 28, False, ()),
    "so9": ("B", 4, (1, 0, 0, 0), 9, 36, False, ()),
    "so10": ("D", 5, (1, 0, 0, 0, 0), 10, 45, False, ()),
}
CONTEXT_IDS = tuple(_CONTEXTS)


class RegistryEntry(NamedTuple):
    """A bundle q(R) is known to annihilate, with the citation saying why."""

    highest_weight: tuple[int, ...]
    citation: str


def _checked(entry: RegistryEntry) -> RegistryEntry:
    """``entry``, if it is a RegistryEntry with a tuple of non-negative ints (a bool
    is not a label) and a non-empty string citation; else UnsupportedContext."""
    if type(entry) is not RegistryEntry:
        raise UnsupportedContext(f"registry entry {entry!r} is not a RegistryEntry")
    hw, citation = entry
    if type(hw) is not tuple or any(type(c) is not int or c < 0 for c in hw):
        raise UnsupportedContext(f"registry entry {entry} must carry a tuple of non-negative ints")
    if type(citation) is not str or not citation:
        raise UnsupportedContext(f"registry entry {entry} must carry a non-empty string citation")
    return entry


class HolonomyContext(NamedTuple):
    """A holonomy group with its holonomy representation and q(R) registry.

    Compares and hashes by identity, like a ``RootSystem``: ``make_context``
    caches what it builds, so a cache keyed on a context hashes no fields,
    and a ``_replace`` copy is a distinct context.
    """

    id: str
    root_system: RootSystem
    holonomy_rep: Irrep
    n: int
    dim_g: int
    ricci_flat: bool
    qr_registry: tuple[RegistryEntry, ...]

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
def _make_context_cached(ctx_id: str, extra: tuple[RegistryEntry, ...]) -> HolonomyContext:
    family, rank, hol_weight, expect_n, expect_dim_g, ricci_flat, base = _CONTEXTS[ctx_id]
    rs = build_root_system(family, rank)
    hol = Irrep(rs, hol_weight)
    n = dimension(hol)
    dim_g = dimension(adjoint_irrep(rs))
    if (n, dim_g) != (expect_n, expect_dim_g):
        # the G2 pin: a flipped Cartan convention would put the adjoint at w1
        raise InternalError(
            f"context {ctx_id}: holonomy representation has dim {n} and "
            f"dim(g) = {dim_g}, expected {expect_n}/{expect_dim_g}; "
            "root system conventions are broken"
        )

    registry = [RegistryEntry((0,) * rank, citations.CITATIONS["qr-trivial-bundle"])]
    registry += (RegistryEntry(w, citations.CITATIONS[key]) for w, key in base)
    for entry in extra:
        if len(entry.highest_weight) != rs.rank:
            raise UnsupportedContext(
                f"registry weight {entry.highest_weight} has wrong arity for {ctx_id}"
            )
        if entry.highest_weight == hol.highest_weight and not ricci_flat:
            raise UnsupportedContext(
                f"registry weight {entry.highest_weight} is the holonomy "
                f"representation of {ctx_id}, which is not Ricci-flat"
            )
        if entry.highest_weight not in {e.highest_weight for e in registry}:
            registry.append(entry)

    ctx = HolonomyContext(
        id=ctx_id,
        root_system=rs,
        holonomy_rep=hol,
        n=n,
        dim_g=dim_g,
        ricci_flat=ricci_flat,
        qr_registry=tuple(registry),
    )
    if (qr_entry(ctx, hol) is not None) != ricci_flat:
        raise InternalError(
            f"context {ctx_id}: holonomy representation registry membership "
            "must match Ricci-flatness"
        )
    return ctx


def make_context(ctx_id: str, extra_registry: tuple[RegistryEntry, ...] = ()) -> HolonomyContext:
    """Build a holonomy context, optionally extending the q(R) registry."""
    extra = tuple(map(_checked, extra_registry))
    return _make_context_cached(normalize_context_id(ctx_id), extra)


@lru_cache(maxsize=None)
def form_space(ctx: HolonomyContext, p: int) -> Decomposition:
    """Decomposition of the p-forms on the holonomy representation (cached)."""
    return exterior_power(ctx.holonomy_rep, p)


def qr_entry(ctx: HolonomyContext, e: Irrep) -> RegistryEntry | None:
    """The registry entry for ``e``'s highest weight, or None: one scan of the registry."""
    hw = e.highest_weight
    for entry in ctx.qr_registry:
        if entry.highest_weight == hw:
            return entry
    return None


def load_registry(path: str | Path) -> dict[str, tuple[RegistryEntry, ...]]:
    """Load registry extensions from a JSON file.

    Schema: {"entries": [{"context": "<id>", "highest_weight": [ints],
    "citation": "<string>"}, ...]}; an absent citation reads "user
    registry entry".  Returns entries grouped by normalized context id.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise UnsupportedContext(f"cannot read registry file {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise UnsupportedContext(f"registry file {path} must contain an 'entries' list")
    grouped: dict[str, list[RegistryEntry]] = {}
    for rec in data["entries"]:
        if not isinstance(rec, dict) or not {"context", "highest_weight"} <= rec.keys():
            raise UnsupportedContext(
                f"registry entry {rec} must have 'context' and 'highest_weight'"
            )
        ctx_id = normalize_context_id(str(rec["context"]))
        hw, citation = rec["highest_weight"], rec.get("citation", "user registry entry")
        entry = _checked(RegistryEntry(tuple(hw) if type(hw) is list else hw, citation))
        grouped.setdefault(ctx_id, []).append(entry)
    return {k: tuple(v) for k, v in grouped.items()}
