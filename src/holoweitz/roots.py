"""Exact root-system geometry for the simple types A, B, C, D and G2.

Internally a weight is a tuple of integer Dynkin labels, its coordinates
with respect to the fundamental weights.  The simple reflection s_i is
``mu - mu[i] * cartan_matrix[i]``, a weight is dominant when
``min(mu) >= 0`` and rho is the all-ones tuple.  Inner products use
``gram``, the Gram matrix of the fundamental weights scaled to integers;
the invariant form itself is ``form_scale * gram``.

Ambient coordinates, tuples of ``fractions.Fraction``, appear only at the
API edge: standard e-coordinates for A/B/C/D and simple-root coordinates
for G2, with the form carried as an explicit Gram matrix (``base_form``),
so the G2 model can realize the normalization (w1, w1) = 1,
(w1, w2) = 3/2, (w2, w2) = 3 with purely rational data.  The ambient
functions (``inner``, ``reflect``, ``to_dominant_chamber``,
``weyl_orbit``) work through the labels and carry any component of the
input orthogonal to the root span through unchanged.

All values are immutable after construction and every function is pure.
A ``RootSystem`` compares and hashes by identity: ``build_root_system``
is its only constructor and caches its result, so there is one instance
per type and rank, and an ``Irrep``-keyed cache lookup hashes no roots.
A copy made with ``dataclasses.replace`` is a different root system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotDominant, UnsupportedType

Weight = tuple[Fraction, ...]
Labels = tuple[int, ...]

_SUPPORTED = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}


def vector(coords: Iterable) -> Weight:
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """One simple type: roots, invariant form and derived data.

    ``cartan_matrix[i][j] = 2(a_i, a_j)/(a_j, a_j)``, so row i holds the
    Dynkin labels of the simple root a_i.  ``rho`` is the half-sum of the
    positive roots (equivalently the sum of the fundamental weights;
    construction checks both agree).
    """

    family: str
    rank: int
    simple_roots: tuple[Weight, ...]
    fundamental_weights: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    cartan_matrix: tuple[Labels, ...]
    base_form: tuple[tuple[Fraction, ...], ...]
    rho: Weight
    # the positive roots in Dynkin labels, in the order of positive_roots
    positive_labels: tuple[Labels, ...]
    # (w_i, w_j) = form_scale * gram[i][j] for the fundamental weights
    gram: tuple[Labels, ...]
    form_scale: Fraction

    @property
    def dim(self) -> int:
        """Coordinate dimension of the ambient space."""
        return len(self.simple_roots[0])

    def __repr__(self) -> str:  # keep reprs short; the full tuple dump is noise
        return f"RootSystem({self.family}{self.rank})"


def dot(rs: RootSystem, u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product of two weights in Dynkin labels, divided by form_scale."""
    return sum(a * sum(g * b for g, b in zip(row, v)) for a, row in zip(u, rs.gram))


def dominant(rs: RootSystem, mu: Sequence) -> tuple[tuple, tuple[int, ...]]:
    """Dominant Weyl-orbit representative of a weight in Dynkin labels.

    Returns ``(dominant, word)``: the word lists the simple reflections
    applied to ``mu`` in order, so its length gives the parity.
    """
    mu = tuple(mu)
    word: list[int] = []
    while True:
        for i, c in enumerate(mu):
            if c < 0:
                mu = tuple(m - c * a for m, a in zip(mu, rs.cartan_matrix[i]))
                word.append(i)
                break
        else:
            return mu, tuple(word)


def orbit(rs: RootSystem, mu: tuple) -> set[tuple]:
    """Weyl orbit of a dominant weight in Dynkin labels.

    Every orbit point is reached from the dominant one by reflections
    s_i applied where the i-th label is positive.
    """
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for v in frontier:
            for i, c in enumerate(v):
                if c > 0:
                    r = tuple(m - c * a for m, a in zip(v, rs.cartan_matrix[i]))
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return seen


# --- ambient coordinates, at the API edge -----------------------------------


def inner(rs: RootSystem, u: Weight, v: Weight) -> Fraction:
    """Invariant bilinear form of ``rs`` evaluated on two ambient vectors."""
    if len(u) != rs.dim or len(v) != rs.dim:
        raise DimensionMismatch(
            f"expected coordinate length {rs.dim}, got {len(u)} and {len(v)}"
        )
    return sum(x * g * y for x, row in zip(u, rs.base_form) if x for g, y in zip(row, v) if g)


def to_fundamental(rs: RootSystem, w: Weight) -> tuple[Fraction, ...]:
    """Dynkin labels <w, coroot(a_i)> = 2(w, a_i)/(a_i, a_i) of ``w``."""
    return tuple(2 * inner(rs, w, a) / inner(rs, a, a) for a in rs.simple_roots)


def to_orthogonal(rs: RootSystem, fund: Sequence) -> Weight:
    """Ambient coordinates of a weight given in Dynkin labels."""
    return tuple(
        sum((c * omega[k] for c, omega in zip(fund, rs.fundamental_weights)), Fraction(0))
        for k in range(rs.dim)
    )


def _split(rs: RootSystem, w: Weight) -> tuple[tuple[Fraction, ...], Weight]:
    """Dynkin labels of ``w`` and its component orthogonal to the root span."""
    labels = to_fundamental(rs, w)
    return labels, tuple(x - y for x, y in zip(w, to_orthogonal(rs, labels)))


def _join(rs: RootSystem, labels: Sequence, off: Weight) -> Weight:
    return tuple(x + y for x, y in zip(to_orthogonal(rs, labels), off))


def reflect(rs: RootSystem, w: Weight, i: int) -> Weight:
    """Reflection of ``w`` in the wall orthogonal to the i-th simple root."""
    a = rs.simple_roots[i]
    c = 2 * inner(rs, w, a) / inner(rs, a, a)
    return tuple(x - c * y for x, y in zip(w, a))


def is_dominant(rs: RootSystem, w: Weight) -> bool:
    return min(to_fundamental(rs, w)) >= 0


def to_dominant_chamber(rs: RootSystem, w: Weight) -> tuple[Weight, int, bool]:
    """Dominant Weyl-orbit representative of ``w``.

    Returns ``(dominant, parity, singular)`` where parity is the
    determinant of the reflecting Weyl element.  Points on a chamber
    wall report ``singular=True`` with parity +1; callers performing
    signed accumulation must discard them.
    """
    dom, parity, _word = _to_dominant_with_word(rs, w)
    singular = 0 in to_fundamental(rs, dom)
    return dom, (1 if singular else parity), singular


def _to_dominant_with_word(rs: RootSystem, w: Weight) -> tuple[Weight, int, tuple[int, ...]]:
    """to_dominant_chamber of an ambient vector, keeping the reflection word.

    The word lists simple reflections applied to ``w`` in order; applying
    them to the dominant output in reverse order reconstructs ``w``.
    """
    labels, off = _split(rs, w)
    dom, word = dominant(rs, labels)
    return _join(rs, dom, off), (-1) ** len(word), word


def weyl_orbit(rs: RootSystem, w: Weight) -> frozenset[Weight]:
    """Full Weyl orbit of a dominant ambient vector."""
    labels, off = _split(rs, w)
    if min(labels) < 0:
        raise NotDominant(f"weight {w} is not dominant")
    return frozenset(_join(rs, v, off) for v in orbit(rs, labels))


# --- construction -------------------------------------------------------------


def _invert(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan inverse of a small rational matrix."""
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _simple_root_data(
    family: str, rank: int
) -> tuple[list[Weight], tuple[tuple[Fraction, ...], ...]]:
    """Simple roots in ambient coordinates plus the Gram matrix of the space."""
    if family == "G":  # simple-root coordinates, Gram pinned by (w1, w1) = 1
        gram = (
            (Fraction(1), Fraction(-3, 2)),
            (Fraction(-3, 2), Fraction(3)),
        )
        return [vector((1, 0)), vector((0, 1))], gram

    dim = rank + 1 if family == "A" else rank

    def e(*coords: tuple[int, int]) -> Weight:
        return vector(dict(coords).get(j, 0) for j in range(dim))

    roots = [e((i, 1), (i + 1, -1)) for i in range(dim - 1)]
    if family == "B":
        roots.append(e((rank - 1, 1)))
    elif family == "C":
        roots.append(e((rank - 1, 2)))
    elif family == "D":
        roots.append(e((rank - 2, 1), (rank - 1, 1)))
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
    return roots, identity


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of type ``family``/``rank``.

    The positive roots are the closure of the simple roots under the
    simple reflections, each of which permutes the positive roots other
    than its own; they are ordered by (height, lexicographic).
    Construction verifies that the positive roots sum to 2 rho.
    """
    if family not in _SUPPORTED or rank < _SUPPORTED[family] or (family == "G" and rank != 2):
        raise UnsupportedType(f"unsupported root system {family}{rank}")

    simple, base_form = _simple_root_data(family, rank)
    dim = len(simple[0])

    def form(u: Weight, v: Weight) -> Fraction:
        return sum(u[i] * base_form[i][j] * v[j] for i in range(dim) for j in range(dim))

    cartan = tuple(
        tuple(int(2 * form(a, b) / form(b, b)) for b in simple) for a in simple
    )

    # positive roots as Dynkin labels -> simple-root coefficients
    found = {cartan[i]: tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(found)
    while frontier:
        nxt = []
        for labels in frontier:
            for i, c in enumerate(labels):
                if c == 0 or labels == cartan[i]:
                    continue
                r = tuple(m - c * a for m, a in zip(labels, cartan[i]))
                if r not in found:
                    found[r] = tuple(k - c * (j == i) for j, k in enumerate(found[labels]))
                    nxt.append(r)
        frontier = nxt

    def ambient(coeffs: Sequence) -> Weight:
        return tuple(
            sum((k * a[d] for k, a in zip(coeffs, simple)), Fraction(0)) for d in range(dim)
        )

    positive = sorted(found, key=lambda r: (sum(found[r]), ambient(found[r])))
    if any(sum(col) != 2 for col in zip(*positive)):
        raise RuntimeError(
            f"{family}{rank}: half-sum of positive roots disagrees with the sum "
            "of fundamental weights; root conventions are broken"
        )

    # w_i = sum_j (C^-1)_ij a_j, so (w_i, w_j) = (C^-1)_ij (a_j, a_j) / 2
    cartan_inv = _invert(cartan)
    fundamental = [ambient(row) for row in cartan_inv]
    gram = [[x * form(a, a) / 2 for x, a in zip(row, simple)] for row in cartan_inv]
    scale = lcm(*(x.denominator for row in gram for x in row))

    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(simple),
        fundamental_weights=tuple(fundamental),
        positive_roots=tuple(ambient(found[r]) for r in positive),
        cartan_matrix=cartan,
        base_form=base_form,
        rho=tuple(map(sum, zip(*fundamental))),
        positive_labels=tuple(positive),
        gram=tuple(tuple(int(x * scale) for x in row) for row in gram),
        form_scale=Fraction(1, scale),
    )
