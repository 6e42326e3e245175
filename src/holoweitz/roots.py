"""Exact root-system geometry for the simple types A, B, C, D and G2.

Internally a weight is a tuple of integer Dynkin labels, its coordinates
with respect to the fundamental weights.  The simple reflection s_i is
``mu - mu[i] * cartan_matrix[i]``, a weight is dominant when
``min(mu) >= 0`` and rho is the all-ones tuple.  Inner products use
``gram``, the Gram matrix of the fundamental weights scaled to integers;
the invariant form itself is ``form_scale * gram``.

``dominant`` keeps a worklist of the negative labels: after s_i only the
Dynkin neighbours of i can turn negative, and only those are pushed.  Each
step lowers by one the number of positive roots that pair negatively with
the weight, so the sign does not depend on the order of the steps.  The
neighbours, the pairings ``gram . a`` of each positive root a and the
integer fundamental weights ``den * w_i`` are fields derived in
``__post_init__``: a ``dataclasses.replace`` copy derives them afresh.

Ambient coordinates, tuples of ``fractions.Fraction``, appear only at the
API edge: standard e-coordinates for A/B/C/D and simple-root coordinates
for G2, with the form carried as an explicit Gram matrix (``base_form``),
so the G2 model can realize the normalization (w1, w1) = 1,
(w1, w2) = 3/2, (w2, w2) = 3 with purely rational data.  The ambient
functions (``inner``, ``to_dominant_chamber``, ``weyl_orbit``) work
through the labels and carry any component of the input orthogonal to
the root span through unchanged.  One sparse form evaluator, ``_form``,
serves ``inner`` and construction, which starts from the simple roots'
Gram matrix; one linear-combination routine, ``_combine``, forms every
ambient vector (``to_orthogonal``, fundamental weights, positive roots).

All values are immutable after construction and every function is pure.
A ``RootSystem`` compares and hashes by identity: ``build_root_system``
is its only constructor and caches its result, so there is one instance
per type and rank, and an ``Irrep``-keyed cache lookup hashes no roots.
A copy made with ``dataclasses.replace`` is a different root system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotDominant, UnsupportedType

Weight = tuple[Fraction, ...]
Labels = tuple[int, ...]

_SUPPORTED = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}
MAX_RANK = 40


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
    # derived in __post_init__: neighbours[i] lists (j, cartan_matrix[i][j]) for the
    # Dynkin neighbours j of i; root_pairings[k][i] = (w_i, positive_labels[k]) in
    # gram units; scaled_fundamentals[i] = den * w_i, den > 0 clearing all denominators
    neighbours: tuple[tuple[tuple[int, int], ...], ...] = field(init=False)
    root_pairings: tuple[Labels, ...] = field(init=False)
    scaled_fundamentals: tuple[Labels, ...] = field(init=False)

    def __post_init__(self):
        den = lcm(*(x.denominator for w in self.fundamental_weights for x in w))
        sparse = [[(k, x) for k, x in enumerate(a) if x] for a in self.positive_labels]
        for name, value in {
            "neighbours": tuple(tuple((j, a) for j, a in enumerate(row) if a and j != i)
                                for i, row in enumerate(self.cartan_matrix)),
            "root_pairings": tuple(tuple(sum(row[k] * x for k, x in nz) for row in self.gram)
                                   for nz in sparse),
            "scaled_fundamentals": tuple(tuple(int(x * den) for x in w)
                                         for w in self.fundamental_weights),
        }.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        """Coordinate dimension of the ambient space."""
        return len(self.simple_roots[0])

    def __repr__(self) -> str:  # keep reprs short; the full tuple dump is noise
        return f"RootSystem({self.family}{self.rank})"


def dot(rs: RootSystem, u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product of two weights in Dynkin labels, divided by form_scale."""
    return sum(a * sum(g * b for g, b in zip(row, v)) for a, row in zip(u, rs.gram))


def dominant(rs: RootSystem, mu: Sequence) -> tuple[tuple, int]:
    """Dominant Weyl-orbit representative of a weight in Dynkin labels.

    Returns ``(dominant, sign)``: the sign is (-1)^length of the simple
    reflections applied to ``mu``, the determinant of the Weyl element
    that carries ``mu`` into the dominant chamber.
    """
    mu = tuple(mu)
    if min(mu) >= 0:
        return mu, 1
    mu, sign = list(mu), 1
    stack = [i for i, c in enumerate(mu) if c < 0]
    while stack:
        i = stack.pop()
        c, mu[i], sign = mu[i], -mu[i], -sign
        for j, a in rs.neighbours[i]:
            was, mu[j] = mu[j], mu[j] - c * a
            if was >= 0 > mu[j]:
                stack.append(j)
    return tuple(mu), sign


def orbit(rs: RootSystem, mu: tuple) -> set[tuple]:
    """Weyl orbit of a dominant weight in Dynkin labels.

    Every orbit point is reached from the dominant one by reflections
    s_i applied where the i-th label is positive, breadth first.
    """
    seen, queue = {mu}, [mu]
    for v in queue:  # the loop also visits what it appends
        for i, c in enumerate(v):
            if c > 0 and (r := tuple(m - c * a for m, a in zip(v, rs.cartan_matrix[i]))) not in seen:
                seen.add(r)
                queue.append(r)
    return seen


# --- ambient coordinates, at the API edge -----------------------------------


def _form(base_form: Sequence[Sequence], u: Sequence, v: Sequence) -> Fraction:
    """The form evaluator: u^T base_form v, skipping zero entries of u and the form."""
    return sum(x * g * y for x, row in zip(u, base_form) if x for g, y in zip(row, v) if g)


def _combine(coeffs: Sequence, vectors: Sequence[Weight]) -> Weight:
    """The combination routine: sum_i coeffs[i] vectors[i], skipping zero terms."""
    out = [Fraction(0)] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return tuple(out)


def inner(rs: RootSystem, u: Weight, v: Weight) -> Fraction:
    """Invariant bilinear form of ``rs`` evaluated on two ambient vectors."""
    if len(u) != rs.dim or len(v) != rs.dim:
        raise DimensionMismatch(f"expected coordinate length {rs.dim}, got {len(u)} and {len(v)}")
    return _form(rs.base_form, u, v)


def to_fundamental(rs: RootSystem, w: Weight) -> tuple[Fraction, ...]:
    """Dynkin labels <w, coroot(a_i)> = 2(w, a_i)/(a_i, a_i) of ``w``."""
    return tuple(2 * inner(rs, w, a) / inner(rs, a, a) for a in rs.simple_roots)


def to_orthogonal(rs: RootSystem, fund: Sequence) -> Weight:
    """Ambient coordinates of a weight given in Dynkin labels."""
    return _combine(fund, rs.fundamental_weights)


def _split(rs: RootSystem, w: Weight) -> tuple[tuple[Fraction, ...], Weight]:
    """Dynkin labels of ``w`` and its component orthogonal to the root span."""
    labels = to_fundamental(rs, w)
    return labels, tuple(x - y for x, y in zip(w, to_orthogonal(rs, labels)))


def _join(rs: RootSystem, labels: Sequence, off: Weight) -> Weight:
    return tuple(x + y for x, y in zip(to_orthogonal(rs, labels), off))


def to_dominant_chamber(rs: RootSystem, w: Weight) -> tuple[Weight, int, bool]:
    """Dominant Weyl-orbit representative of ``w``.

    Returns ``(dominant, parity, singular)`` where parity is the
    determinant of the reflecting Weyl element.  Points on a chamber
    wall report ``singular=True`` with parity +1; callers performing
    signed accumulation must discard them.
    """
    labels, off = _split(rs, w)
    dom, sign = dominant(rs, labels)
    singular = 0 in dom
    return _join(rs, dom, off), (1 if singular else sign), singular


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
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    aug = [[Fraction(x) for x in row] + e for row, e in zip(matrix, eye)]
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


def _simple_root_data(family: str, rank: int) -> tuple[list[Weight], tuple[Weight, ...]]:
    """Simple roots in ambient coordinates plus the Gram matrix of the space."""
    if family == "G":  # simple-root coordinates, Gram pinned by (w1, w1) = 1
        gram = (vector((1, Fraction(-3, 2))), vector((Fraction(-3, 2), 3)))
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


@lru_cache(maxsize=None, typed=True)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of type ``family``/``rank`` (an ``int`` up to MAX_RANK).

    The form is evaluated once, on the simple roots: their Gram matrix
    b = ((a_i, a_j)) gives the Cartan matrix 2 b_ij / b_jj and the root
    lengths in ``gram = C^-1 D / 2``.  The positive roots are the closure
    of the simple roots under the simple reflections, each of which
    permutes the positive roots other than its own; they are ordered by
    (height, ambient lexicographic), each ambient vector formed once by
    ``_combine``.  Construction verifies that the positive roots sum to
    2 rho.
    """
    if family not in _SUPPORTED or type(rank) is not int:
        raise UnsupportedType(f"unsupported root system {family}{rank}")
    top = 2 if family == "G" else MAX_RANK
    if not _SUPPORTED[family] <= rank <= top:
        need = "rank = 2" if family == "G" else f"{_SUPPORTED[family]} <= rank <= MAX_RANK = {top}"
        raise UnsupportedType(f"unsupported root system {family}{rank}: type {family} needs {need}")

    simple, base_form = _simple_root_data(family, rank)
    b = [[_form(base_form, u, v) for v in simple] for u in simple]
    cartan = tuple(tuple(int(2 * x / b[j][j]) for j, x in enumerate(row)) for row in b)

    # positive roots as Dynkin labels -> simple-root coefficients
    found = {cartan[i]: tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    queue = list(found)
    for labels in queue:  # breadth first; the loop also visits what it appends
        for i, c in enumerate(labels):
            if c and labels != cartan[i]:
                r = tuple(m - c * a for m, a in zip(labels, cartan[i]))
                if r not in found:
                    found[r] = tuple(k - c * (j == i) for j, k in enumerate(found[labels]))
                    queue.append(r)

    ambient = {r: _combine(coeffs, simple) for r, coeffs in found.items()}
    positive = sorted(found, key=lambda r: (sum(found[r]), ambient[r]))
    if any(sum(col) != 2 for col in zip(*positive)):
        raise RuntimeError(f"{family}{rank}: half-sum of positive roots disagrees with the "
                           "sum of fundamental weights; root conventions are broken")

    # w_i = sum_j (C^-1)_ij a_j, so (w_i, w_j) = (C^-1)_ij b_jj / 2
    cartan_inv = _invert(cartan)
    fundamental = [_combine(row, simple) for row in cartan_inv]
    gram = [[x * b[j][j] / 2 for j, x in enumerate(row)] for row in cartan_inv]
    scale = lcm(*(x.denominator for row in gram for x in row))

    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(simple),
        fundamental_weights=tuple(fundamental),
        positive_roots=tuple(ambient[r] for r in positive),
        cartan_matrix=cartan,
        base_form=base_form,
        rho=tuple(map(sum, zip(*fundamental))),
        positive_labels=tuple(positive),
        gram=tuple(tuple(int(x * scale) for x in row) for row in gram),
        form_scale=Fraction(1, scale),
    )
