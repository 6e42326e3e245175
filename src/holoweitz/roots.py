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
the weight, so the sign does not depend on the order of the steps.

A point x also travels as one integer key (broadword arithmetic, Knuth,
TAOCP 4A, 7.1.3; :func:`key_codec`): in base S = 2^bits, digit i holds
x_i + S/2, exact while every label is in [-S/2, S/2).  ``high & ~key``
marks the negative labels, s_i subtracts x_i sum_j C_ij S^j, and a
dominant key has a zero label iff ``(key - key(rho)) & high`` is nonzero
(the lowest zero label borrows).  No Weyl image of x has a label above
max|x_i| (h - 1), h = 2|Phi+| / rank the Coxeter number: (wx)_i = (x,
w^-1 a_i^v), and a coroot's coefficients on the simple coroots sum to <= h - 1.

The root poset links each positive root a that is not simple to a lower
one, a - a_j, so a pairing (x, a) costs one addition on top of
(x, a - a_j) (:func:`poset_pairings`).  The neighbours, the root poset,
the pairings (w_i, a) of each positive root a, the Weyl denominator (the
product of the (rho, a)), the common denominator ``den`` of the
fundamental weights and the columns of the integer fundamental weights
``den * w_i`` are fields derived by the constructor, the pairings and
the denominator along the poset: a ``RootSystem._replace`` copy derives
them afresh.

Ambient coordinates, tuples of ``fractions.Fraction``, appear only at the
API edge: standard e-coordinates for A/B/C/D and simple-root coordinates
for G2, with the form carried as an explicit Gram matrix (``base_form``),
so the G2 model can realize the normalization (w1, w1) = 1,
(w1, w2) = 3/2, (w2, w2) = 3 with purely rational data.  The edge is
``to_orthogonal`` (labels to ambient, one ``Fraction`` per coordinate from
an integer sum over ``fundamental_columns``) and ``to_fundamental``
(ambient to labels).

Construction runs in integers.  The simple roots are integer ambient
vectors, the positive roots and det C times the fundamental weights are
integer combinations of them, and one fraction-free (Bareiss) elimination
of the integer Cartan matrix C gives det C and the adjugate.  ``Fraction``
enters only through the form's values on the simple roots (rational for
G2) and through the ``Fraction``-typed field values.

All values are immutable after construction and every function is pure.
A ``RootSystem`` compares and hashes by identity: ``build_root_system``
is its only constructor and caches its result, so there is one instance
per type and rank, and an ``Irrep``-keyed cache lookup hashes no roots.
A copy made with ``_replace`` is a different root system.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import lshift, mul, sub
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InternalError, UnsupportedType

Weight = tuple[Fraction, ...]
Labels = tuple[int, ...]

_SUPPORTED = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}
MAX_RANK = 40


def vector(coords: Iterable) -> Weight:
    return tuple(Fraction(c) for c in coords)


# the constructor's fields, in order; six more are derived from them
_GIVEN = ("family", "rank", "simple_roots", "fundamental_weights", "positive_roots",
          "cartan_matrix", "base_form", "rho", "positive_labels", "gram", "form_scale")


class RootSystem:
    """One simple type: roots, invariant form and derived data.

    ``cartan_matrix[i][j] = 2(a_i, a_j)/(a_j, a_j)``, so row i holds the
    Dynkin labels of the simple root a_i.  ``rho`` is the half-sum of the
    positive roots (equivalently the sum of the fundamental weights;
    construction checks both agree).  ``positive_labels`` are the positive
    roots in Dynkin labels, in the order of ``positive_roots``; the
    fundamental weights have (w_i, w_j) = form_scale * gram[i][j].

    Derived by the constructor: ``neighbours[i]`` lists (j, cartan_matrix[i][j])
    for the Dynkin neighbours j of i.  ``root_poset`` is ``(simple,
    edges)``: the first ``rank`` positive roots are the simple ones, and
    ``simple[k]`` = (j, (a_j, a_j)/2 in gram units) when positive_labels[k]
    is a_j; ``edges[k - rank]`` = (parent, s) for each later root a =
    positive_labels[k], where positive_labels[s] is the a_j of a's first
    positive label j and positive_labels[parent] = a - a_j, both before k.
    ``root_pairings[k][i]`` = (w_i, positive_labels[k]) in gram units, the
    parent's row plus (a_j, a_j)/2 at j; ``weyl_denominator`` is the
    product of (rho, a) over the positive roots a, in gram units, summed
    along the poset.  ``den`` > 0 is the least common denominator of the
    fundamental weights and ``fundamental_columns[k][i]`` = den * (w_i)_k,
    the k-th ambient coordinate of den * w_i.  Fields cannot be assigned,
    and ``_replace`` takes only the constructor's fields.
    """

    __slots__ = _GIVEN + ("neighbours", "root_poset", "root_pairings", "weyl_denominator",
                          "den", "fundamental_columns")

    def __init__(
        self,
        family: str,
        rank: int,
        simple_roots: tuple[Weight, ...],
        fundamental_weights: tuple[Weight, ...],
        positive_roots: tuple[Weight, ...],
        cartan_matrix: tuple[Labels, ...],
        base_form: tuple[tuple[Fraction, ...], ...],
        rho: Weight,
        positive_labels: tuple[Labels, ...],
        gram: tuple[Labels, ...],
        form_scale: Fraction,
    ):
        den = lcm(*(x.denominator for w in fundamental_weights for x in w))
        poset = _root_poset(cartan_matrix, positive_labels, gram)
        units = [[int(i == j) for j in range(rank)] for i in range(rank)]  # w_i in labels
        values = (
            family, rank, simple_roots, fundamental_weights, positive_roots, cartan_matrix,
            base_form, rho, positive_labels, gram, form_scale,
            tuple(tuple((j, a) for j, a in enumerate(row) if a and j != i)
                  for i, row in enumerate(cartan_matrix)),
            poset,
            tuple(zip(*[poset_pairings(poset, w) for w in units])),
            prod(poset_pairings(poset, (1,) * rank)),
            den,
            tuple(zip(*(tuple(int(x * den) for x in w) for w in fundamental_weights))),
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes) -> RootSystem:
        """A new root system with ``changes`` applied; the derived fields are derived afresh."""
        return RootSystem(**{**{name: getattr(self, name) for name in _GIVEN}, **changes})

    @property
    def dim(self) -> int:
        """Coordinate dimension of the ambient space."""
        return len(self.simple_roots[0])

    def __repr__(self) -> str:  # keep reprs short; the full tuple dump is noise
        return f"RootSystem({self.family}{self.rank})"


def _root_poset(cartan: Sequence[Labels], labels: Sequence[Labels],
                gram: Sequence[Labels]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``(simple, edges)`` of the positive roots ``labels``, simple roots first
    and every root after the roots below it: see :class:`RootSystem`.

    A positive root a that is not simple has a label j with a_j > 0, and
    a - a_j is then a positive root (Humphreys, GTM 9, 10.2); j is the first
    such label.  (a_j, a_j) / 2 = (w_j, a_j) is row j of ``gram`` against
    row j of the Cartan matrix."""
    rank = len(cartan)
    simple = tuple((j, sum(map(mul, cartan[j], gram[j])))
                   for j in map(cartan.index, labels[:rank]))
    position = {a: k for k, a in enumerate(labels)}
    at = {j: k for k, (j, _) in enumerate(simple)}
    edges = []
    for a in labels[rank:]:
        j = next(i for i, c in enumerate(a) if c > 0)
        edges.append((position[tuple(map(sub, a, cartan[j]))], at[j]))
    return simple, tuple(edges)


def poset_pairings(poset: tuple, x: Sequence[int]) -> list[int]:
    """(x, a) in gram units for the weight x (Dynkin labels) and every positive
    root a, in order: (x, a_j) = x_j (a_j, a_j) / 2 at a simple root, then one
    addition per root, (x, a) = (x, a - a_j) + (x, a_j)."""
    simple, edges = poset
    pairs = [x[j] * d for j, d in simple]
    for parent, s in edges:
        pairs.append(pairs[parent] + pairs[s])
    return pairs


def dot(rs: RootSystem, u: Sequence[int], v: Sequence[int]) -> int:
    """Inner product of two weights in Dynkin labels, divided by form_scale."""
    return sum(map(mul, u, [sum(map(mul, row, v)) for row in rs.gram]))


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


def key_codec(rs: RootSystem, bound: int) -> tuple[int, range, int, int, list[int]]:
    """``(bits, shifts, high, key(rho), [sum_j C_ij S^j])`` for labels at most ``bound``
    in absolute value, S/2 > bound; key(x) = sum(map(lshift, x, shifts)) + high."""
    bits = bound.bit_length() + 1
    shifts = range(0, bits * rs.rank, bits)
    high = ((1 << bits * rs.rank) - 1) // ((1 << bits) - 1) << bits - 1
    simple = [sum(map(lshift, a, shifts)) for a in rs.cartan_matrix]
    return bits, shifts, high, high + (high >> bits - 1), simple


def dominant_key(key: int, codec: tuple) -> tuple[int, int]:
    """:func:`dominant` on a key: the dominant key and the sign, last negative label first."""
    bits, _, high, _, simple_keys = codec
    mask, half, sign = (1 << bits) - 1, 1 << bits - 1, 1
    while neg := high & ~key:
        i = neg.bit_length() // bits - 1
        key -= ((key >> bits * i & mask) - half) * simple_keys[i]
        sign = -sign
    return key, sign


def orbit(rs: RootSystem, mu: tuple) -> list[tuple]:
    """Weyl orbit of a dominant weight in Dynkin labels, as a breadth-first list.

    Every orbit point is reached from the dominant one, listed first, by
    reflections s_i applied where the i-th label is positive.  Like
    :func:`dominant`, s_i flips label i and moves only its Dynkin neighbours.
    """
    seen, queue = {mu}, [mu]
    for v in queue:  # the loop also visits what it appends
        for i, c in enumerate(v):
            if c > 0:
                r = list(v)
                r[i] = -c
                for j, a in rs.neighbours[i]:
                    r[j] -= c * a
                if (r := tuple(r)) not in seen:
                    seen.add(r)
                    queue.append(r)
    return queue


# --- ambient coordinates, at the API edge -----------------------------------


def to_fundamental(rs: RootSystem, w: Weight) -> tuple[Fraction, ...]:
    """Dynkin labels <w, coroot(a_i)> = 2(w, a_i)/(a_i, a_i) of an ambient vector ``w``."""
    if len(w) != rs.dim:
        raise DimensionMismatch(f"expected coordinate length {rs.dim}, got {len(w)}")

    def form(u, v):  # u^T base_form v, skipping zero entries of u and of the form
        return sum(x * g * y for x, row in zip(u, rs.base_form) if x for g, y in zip(row, v) if g)

    return tuple(2 * form(w, a) / form(a, a) for a in rs.simple_roots)


def to_orthogonal(rs: RootSystem, fund: Sequence) -> Weight:
    """Ambient coordinates of a weight given in Dynkin labels."""
    den = rs.den
    return tuple(Fraction(sum(map(mul, fund, col)), den) for col in rs.fundamental_columns)


# --- construction -------------------------------------------------------------


def _simple_root_data(family: str, rank: int) -> tuple[list[Labels], tuple[Weight, ...]]:
    """Simple roots as integer ambient vectors plus the Gram matrix of the space."""
    if family == "G":  # simple-root coordinates, Gram pinned by (w1, w1) = 1
        return [(1, 0), (0, 1)], (vector((1, Fraction(-3, 2))), vector((Fraction(-3, 2), 3)))
    dim = rank + 1 if family == "A" else rank
    roots = [tuple(int(j == i) - int(j == i + 1) for j in range(dim)) for i in range(dim - 1)]
    if family != "A":  # e_n, 2 e_n or e_(n-1) + e_n
        roots.append((0,) * (rank - 2) + {"B": (0, 1), "C": (0, 2), "D": (1, 1)}[family])
    return roots, tuple(vector(int(i == j) for j in range(dim)) for i in range(dim))


@lru_cache(maxsize=None, typed=True)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of type ``family``/``rank`` (an ``int`` up to MAX_RANK).

    Construction runs in integers.  The form is evaluated once, on the
    integer simple roots: their Gram matrix b = ((a_i, a_j)) gives the
    Cartan matrix 2 b_ij / b_jj.  One fraction-free Gauss-Jordan pass
    (Bareiss) turns C into det C and the adjugate det C . C^-1, from
    which the fundamental weights and ``gram`` = C^-1 D / 2 are read off
    with a single division by det C.  The positive roots are the closure
    of the simple roots under the simple reflections, each of which
    permutes the positive roots other than its own; they are ordered by
    (height, ambient lexicographic).  Every ambient vector is an integer
    combination over the one or two nonzero entries of each simple root.
    Construction verifies that the positive roots sum to 2 rho.
    """
    if family not in _SUPPORTED or type(rank) is not int:
        raise UnsupportedType(f"unsupported root system {family}{rank}")
    top = 2 if family == "G" else MAX_RANK
    if not _SUPPORTED[family] <= rank <= top:
        need = "rank = 2" if family == "G" else f"{_SUPPORTED[family]} <= rank <= MAX_RANK = {top}"
        raise UnsupportedType(f"unsupported root system {family}{rank}: type {family} needs {need}")

    simple, base_form = _simple_root_data(family, rank)
    support = [[(k, x) for k, x in enumerate(a) if x] for a in simple]
    b = [[sum(x * g * y for k, x in su for m, y in sv if (g := base_form[k][m])) for sv in support]
         for su in support]
    cartan = tuple(tuple(int(2 * x / b[j][j]) for j, x in enumerate(row)) for row in b)

    def combine(coeffs: Sequence[int]) -> list[int]:
        out = [0] * len(simple[0])
        for c, nz in zip(coeffs, support):
            if c:
                for k, x in nz:
                    out[k] += c * x
        return out

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

    ambient = {r: tuple(combine(coeffs)) for r, coeffs in found.items()}
    positive = sorted(found, key=lambda r: (sum(found[r]), ambient[r]))
    if any(sum(col) != 2 for col in zip(*positive)):
        raise InternalError(f"{family}{rank}: half-sum of positive roots disagrees with the "
                            "sum of fundamental weights; root conventions are broken")

    # fraction-free Gauss-Jordan (Bareiss) on [C | I]: by Sylvester's identity each division by
    # the previous pivot is exact, and the pass ends at [det I | adj C].  No pivot search: the
    # pivots are the leading principal minors of a finite-type Cartan matrix, all positive.
    aug = [list(row) + [int(i == j) for j in range(rank)] for i, row in enumerate(cartan)]
    det = 1
    for k in range(rank):
        pivot_row = aug[k]
        pivot = pivot_row[k]
        aug = [row if i == k else [(pivot * x - row[k] * y) // det for x, y in zip(row, pivot_row)]
               for i, row in enumerate(aug)]
        det = pivot
    adj = [row[rank:] for row in aug]

    # w_i = sum_j (C^-1)_ij a_j, so (w_i, w_j) = (C^-1)_ij b_jj / 2
    fundamental = [combine(row) for row in adj]
    gram = [[x * b[j][j] / (2 * det) for j, x in enumerate(row)] for row in adj]
    scale = lcm(*(x.denominator for row in gram for x in row))
    frac = {x: Fraction(x) for x in set().union(*ambient.values())}  # one per distinct coordinate

    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(map(vector, simple)),
        fundamental_weights=tuple(tuple(Fraction(x, det) for x in w) for w in fundamental),
        positive_roots=tuple(tuple(map(frac.get, ambient[r])) for r in positive),
        cartan_matrix=cartan,
        base_form=base_form,
        rho=tuple(Fraction(sum(col), det) for col in zip(*fundamental)),
        positive_labels=tuple(positive),
        gram=tuple(tuple(int(x * scale) for x in row) for row in gram),
        form_scale=Fraction(1, scale),
    )
