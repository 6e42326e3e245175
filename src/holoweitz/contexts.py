"""Holonomy contexts: the group, its holonomy representation, and the
registry of bundles on which the curvature endomorphism q(R) vanishes.

Registry entries are context data with citations, not computations: the
facts behind them (Ricci-flatness, the spinor-bundle argument for the
7-dimensional Spin7 bundle) are analytic inputs.  Extra entries can be
loaded from a JSON file, see :func:`load_registry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import citations
from .decompose import Decomposition, exterior_power
from .errors import MixedRootSystems, UnsupportedContext
from .irreps import Irrep, adjoint_irrep, dimension
from .roots import RootSystem, build_root_system

CONTEXT_IDS = ("g2", "spin7", "so5", "so6", "so7", "so8", "so9", "so10")


@dataclass(frozen=True)
class RegistryEntry:
    """A bundle q(R) is known to annihilate, with the citation saying why."""

    highest_weight: tuple[int, ...]
    citation: str


@dataclass(frozen=True)
class HolonomyContext:
    id: str
    root_system: RootSystem
    holonomy_rep: Irrep
    n: int
    dim_g: int
    ricci_flat: bool
    qr_registry: tuple[RegistryEntry, ...]

    def qr_trivial_weights(self) -> frozenset[tuple[int, ...]]:
        return frozenset(entry.highest_weight for entry in self.qr_registry)

    def __repr__(self) -> str:
        return f"HolonomyContext({self.id})"


def normalize_context_id(raw: str) -> str:
    s = raw.strip().lower().replace("(", "").replace(")", "").replace("_", "")
    if s in CONTEXT_IDS:
        return s
    raise UnsupportedContext(f"unknown holonomy context {raw!r}; supported: {', '.join(CONTEXT_IDS)}")


def _base_registry(ctx_id: str, rs: RootSystem) -> tuple[RegistryEntry, ...]:
    trivial = RegistryEntry((0,) * rs.rank, citations.CITATIONS["qr-trivial-bundle"])
    if ctx_id == "g2":
        return (
            trivial,
            RegistryEntry((1, 0), citations.CITATIONS["qr-ricci-flat"]),
        )
    if ctx_id == "spin7":
        return (
            trivial,
            RegistryEntry((0, 0, 1), citations.CITATIONS["qr-ricci-flat"]),
            RegistryEntry((1, 0, 0), citations.CITATIONS["qr-spinor-bundle"]),
        )
    return (trivial,)


@lru_cache(maxsize=None)
def _make_context_cached(ctx_id: str, extra: tuple[RegistryEntry, ...]) -> HolonomyContext:
    if ctx_id == "g2":
        rs = build_root_system("G", 2)
        hol = Irrep(rs, (1, 0))
        ricci_flat = True
        expect_n, expect_dim_g = 7, 14
    elif ctx_id == "spin7":
        rs = build_root_system("B", 3)
        hol = Irrep(rs, (0, 0, 1))
        ricci_flat = True
        expect_n, expect_dim_g = 8, 21
    else:
        n = int(ctx_id[2:])
        if n % 2:
            rs = build_root_system("B", (n - 1) // 2)
        else:
            rs = build_root_system("D", n // 2)
        hol = Irrep(rs, (1,) + (0,) * (rs.rank - 1))
        ricci_flat = False
        expect_n, expect_dim_g = n, n * (n - 1) // 2

    n = dimension(hol)
    dim_g = dimension(adjoint_irrep(rs))
    if (n, dim_g) != (expect_n, expect_dim_g):
        # the G2 pin: a flipped Cartan convention would put the adjoint at w1
        raise RuntimeError(
            f"context {ctx_id}: holonomy representation has dim {n} and "
            f"dim(g) = {dim_g}, expected {expect_n}/{expect_dim_g}; "
            "root system conventions are broken"
        )

    registry = list(_base_registry(ctx_id, rs))
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
    weights = ctx.qr_trivial_weights()
    if ((0,) * rs.rank) not in weights:
        raise RuntimeError("registry must contain the trivial representation")
    if (hol.highest_weight in weights) != ricci_flat:
        raise RuntimeError(
            f"context {ctx_id}: holonomy representation registry membership "
            "must match Ricci-flatness"
        )
    return ctx


def make_context(ctx_id: str, extra_registry: tuple[RegistryEntry, ...] = ()) -> HolonomyContext:
    """Build a holonomy context, optionally extending the q(R) registry."""
    return _make_context_cached(normalize_context_id(ctx_id), tuple(extra_registry))


@lru_cache(maxsize=None)
def form_space(ctx: HolonomyContext, p: int) -> Decomposition:
    """Decomposition of the p-forms on the holonomy representation (cached)."""
    return exterior_power(ctx.holonomy_rep, p)


def qr_trivial(ctx: HolonomyContext, e: Irrep) -> bool:
    """Whether q(R) vanishes on bundles modeled on ``e`` in this context."""
    if e.root_system != ctx.root_system:
        raise MixedRootSystems(f"{e} does not live on the {ctx.id} root system")
    return e.highest_weight in ctx.qr_trivial_weights()


def qr_citation(ctx: HolonomyContext, e: Irrep) -> str:
    for entry in ctx.qr_registry:
        if entry.highest_weight == e.highest_weight:
            return entry.citation
    raise KeyError(f"{e} is not in the registry of {ctx.id}")


def load_registry(path: str | Path) -> dict[str, tuple[RegistryEntry, ...]]:
    """Load registry extensions from a JSON file.

    Schema: {"entries": [{"context": "<id>", "highest_weight": [ints],
    "citation": "<string>"}, ...]}.  Returns entries grouped by
    normalized context id.
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
        hw = rec["highest_weight"]
        if not isinstance(hw, list) or any(type(c) is not int or c < 0 for c in hw):
            raise UnsupportedContext(
                f"registry entry {rec} must carry non-negative integer weights"
            )
        citation = str(rec.get("citation", "user registry entry"))
        grouped.setdefault(ctx_id, []).append(RegistryEntry(tuple(hw), citation))
    return {k: tuple(v) for k, v in grouped.items()}
