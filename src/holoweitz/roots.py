"""Exact root-system geometry for the simple types A, B, C, D and G2.

Internally a weight is a tuple of integer Dynkin labels, its coordinates
with respect to the fundamental weights.  The simple reflection s_i is
``mu - mu[i] * cartan_matrix[i]``, a weight is dominant when
``min(mu) >= 0`` and rho is the all-ones tuple.  Inner products use
``gram``, the Gram matrix of the fundamental weights in coprime integers:
the form up to a positive factor, which every value computed from it cancels.

:func:`dominant_key` is the one Weyl straightening, and it runs on keys:
a point x travels as one integer (broadword arithmetic, Knuth,
TAOCP 4A, 7.1.3): in base S = 2^bits, digit i holds x_i + S/2, exact
while every label is in [-S/2, S/2), and one rule, stated at
:func:`key_codec`, sizes S for a point and all its Weyl images.
``high & ~key`` marks the negative labels, s_i subtracts
x_i sum_j C_ij S^j, and a dominant key has a zero label iff
``(key - key(rho)) & high`` is nonzero (the lowest zero label borrows).
Each reflection at a negative label makes one more positive root pair
positively with x, so the sign (-1)^steps does not depend on the order
of the steps, and a straightening takes at most |Phi+| reflections, the
length of w0; a key that needs more was coded too narrow for its labels,
and :func:`dominant_key` raises ``InternalError``.  :func:`orbit_keys` is
the one walk of a Weyl orbit, on keys with the same step; :func:`orbit`
decodes it.

The dual of V(lam) is V(-w0 lam), and -w0 permutes the simple roots by a
symmetry of the Dynkin diagram (Bourbaki, Groupes et algèbres de Lie,
ch. VI, planches I-IV and IX): :func:`dual_weight` reverses the labels on
A_r, swaps the last two on D_r of odd rank, and fixes them on B_r, C_r,
D_r of even rank and G2, where w0 = -1.

The root poset links each positive root a that is not simple to a lower
one, a - a_j, so a pairing (x, a) costs one addition on top of
(x, a - a_j) (:func:`poset_pairings`).  The root poset, the pairings
(w_i, a) of each positive root a, the Weyl denominator (the product of
the (rho, a)) and the highest coroot are fields derived by the
constructor, the pairings and the denominator along the poset.

Ambient coordinates appear only at the API edge, and the root system
keeps only integers for them: standard e-coordinates for A/B/C/D and
simple-root coordinates for G2.  ``to_orthogonal`` maps labels to a tuple
of ``Fraction``, one integer sum over ``fundamental_columns`` (the
integer vectors ``den * w_i``) per coordinate, over ``den``;
``to_fundamental`` maps an ambient vector to labels, one dot product
with the integer covector of each simple coroot per label.

Construction runs in integers (:class:`RootSystem`).  All values are
immutable after construction and every function is pure.  A
``RootSystem`` compares and hashes by identity: ``RootSystem(family,
rank)`` builds a fresh instance and ``build_root_system`` is the cached
constructor, so there is one cached instance per type and rank, and an
``Irrep``-keyed cache lookup hashes no roots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import lshift, mul, sub
from typing import Sequence

from .errors import DimensionMismatch, InternalError, UnsupportedType

Weight = tuple[Fraction, ...]
Labels = tuple[int, ...]

_SUPPORTED = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}
MAX_RANK = 40


class RootSystem:
    """The root system of one simple type: ``RootSystem(family, rank)``.

    ``family`` is A, B, C, D or G and ``rank`` an ``int`` up to MAX_RANK (2 for
    G); any other pair is ``UnsupportedType``.  Each call builds a fresh
    instance, and :func:`build_root_system` is the cached constructor.
    Fields cannot be assigned or deleted.

    ``cartan_matrix[i][j] = 2(a_i, a_j)/(a_j, a_j)``, so row i holds the
    Dynkin labels of the simple root a_i.  ``positive_labels`` are the
    positive roots in Dynkin labels, in (height, ambient lexicographic)
    order; (w_i, w_j) is proportional to gram[i][j], coprime integers.
    At the ambient edge, ``den`` > 0 is the least common denominator of
    the fundamental weights, ``fundamental_columns[k][i]`` = den * (w_i)_k
    is the k-th ambient coordinate of den * w_i, and ``simple_coroots[i]``
    is the integer covector 2 (a_i, .)/(a_i, a_i) of the i-th simple coroot.
    ``root_poset`` is ``(simple, edges)``: the first ``rank`` positive
    roots are the simple ones, and ``simple[k]`` = (j, (a_j, a_j)/2 in gram
    units) when positive_labels[k] is a_j; ``edges[k - rank]`` = (parent,
    s) for each later root a = positive_labels[k], where positive_labels[s]
    is the a_j of a's first positive label j and positive_labels[parent] =
    a - a_j, both before k.  ``root_pairings[k][i]`` = (w_i,
    positive_labels[k]) in gram units, the parent's row plus (a_j, a_j)/2
    at j; ``weyl_denominator`` is the product of (rho, a) over the positive
    roots a, in gram units, summed along the poset.  ``highest_coroot[i]``
    is the coefficient of a_i^v in the highest coroot, the largest
    coefficient 2 (w_i, a) / (a, a) of a_i^v in any positive coroot a^v; so
    sum_i lam_i highest_coroot[i] is the largest <lam, a^v> over the
    positive roots a for a dominant lam.

    Construction runs in integers.  The simple roots are integer ambient
    vectors and the ambient form is an integer matrix, fixed up to a
    positive factor; both stay local to the constructor.  Applied to each
    simple root a_i, over the root's one or two nonzero entries, the form
    gives the covector (a_i, .); its pairings with the simple roots give
    b = ((a_i, a_j)), the Cartan matrix 2 b_ij / b_jj and the coroot
    covector 2 (a_i, .) / b_ii.  The positive roots are the closure of the
    simple roots under the simple reflections taken upwards, s_i at a
    negative label: a positive root a that is not simple has a label
    c = <a, a_i^v> > 0, s_i a = a - c a_i is a lower positive root, and a
    is one upward reflection above it (Humphreys, GTM 9, 10.2).  The
    constructor verifies that the positive roots sum to 2 rho, which no
    input can fail while the closure loop is right: for a Cartan matrix of
    finite type the closure is Phi+, whose Dynkin labels sum to 2 in each
    coordinate (10.2: s_i permutes Phi+ minus a_i, so s_i(2 rho) = 2 rho -
    2 a_i); for one not of finite type the closure never ends.  The check
    guards the loop.  One fraction-free Gauss-Jordan pass (Bareiss) turns C
    into det C and the adjugate det C . C^-1.  The vectors det C . w_i are
    integer combinations of the simple roots; ``den`` and
    ``fundamental_columns`` are det C and them over their common divisor,
    and ``gram`` is adj C . D, D the diagonal of b, over the gcd of its
    entries.  The last four fields are derived from these along the root
    poset.
    """

    __slots__ = ("family", "rank", "cartan_matrix", "positive_labels", "gram", "den",
                 "fundamental_columns", "simple_coroots",
                 "root_poset", "root_pairings", "weyl_denominator", "highest_coroot")

    def __init__(self, family: str, rank: int):
        if family not in _SUPPORTED or type(rank) is not int:
            raise UnsupportedType(f"unsupported root system {family}{rank}")
        top = 2 if family == "G" else MAX_RANK
        if not _SUPPORTED[family] <= rank <= top:
            need = ("rank = 2" if family == "G"
                    else f"{_SUPPORTED[family]} <= rank <= MAX_RANK = {top}")
            raise UnsupportedType(
                f"unsupported root system {family}{rank}: type {family} needs {need}")

        simple, base = _simple_root_data(family, rank)
        support = [[(k, x) for k, x in enumerate(a) if x] for a in simple]

        def combine(coeffs: Sequence[int], vectors: Sequence[Sequence[int]]) -> list[int]:
            out = [0] * len(simple[0])
            for c, v in zip(coeffs, vectors):
                if c:
                    for k, x in v:
                        out[k] += c * x
            return out

        rows = [[(m, g) for m, g in enumerate(row) if g] for row in base]
        covectors = [combine(a, rows) for a in simple]  # (a_i, .), the form being symmetric
        b = [[sum(x * cov[k] for k, x in sv) for sv in support] for cov in covectors]
        cartan = tuple(tuple(2 * x // b[j][j] for j, x in enumerate(row)) for row in b)
        coroots = tuple(tuple(2 * y // b[i][i] for y in cov) for i, cov in enumerate(covectors))

        # positive roots as Dynkin labels -> simple-root coefficients
        found = {cartan[i]: tuple(int(i == j) for j in range(rank)) for i in range(rank)}
        queue = list(found)
        for labels in queue:  # breadth first; the loop also visits what it appends
            for i, c in enumerate(labels):
                if c < 0:
                    r = tuple(m - c * a for m, a in zip(labels, cartan[i]))
                    if r not in found:
                        found[r] = tuple(k - c * (j == i) for j, k in enumerate(found[labels]))
                        queue.append(r)

        ambient = {r: tuple(combine(coeffs, support)) for r, coeffs in found.items()}
        positive = tuple(sorted(found, key=lambda r: (sum(found[r]), ambient[r])))
        if any(sum(col) != 2 for col in zip(*positive)):
            raise InternalError(f"{family}{rank}: half-sum of positive roots disagrees with the "
                                "sum of fundamental weights; root conventions are broken")

        # fraction-free Gauss-Jordan (Bareiss) on [C | I]: by Sylvester's identity each division
        # by the previous pivot is exact, and the pass ends at [det I | adj C].  No pivot search:
        # the pivots are the leading principal minors of a finite-type Cartan matrix, all positive.
        aug = [list(row) + [int(i == j) for j in range(rank)] for i, row in enumerate(cartan)]
        det = 1
        for k in range(rank):
            pivot_row = aug[k]
            pivot = pivot_row[k]
            aug = [row if i == k else [(pivot * x - row[k] * y) // det
                                       for x, y in zip(row, pivot_row)]
                   for i, row in enumerate(aug)]
            det = pivot
        adj = [row[rank:] for row in aug]

        # w_i = sum_j (C^-1)_ij a_j: det w_i = sum_j adj_ij a_j and
        # (w_i, w_j) = adj_ij b_jj / (2 det)
        fundamental = [combine(row, support) for row in adj]
        cut = gcd(det, *(x for w in fundamental for x in w))
        gram = [[x * b[j][j] for j, x in enumerate(row)] for row in adj]
        common = gcd(*(x for row in gram for x in row))
        gram = tuple(tuple(x // common for x in row) for row in gram)

        poset = _root_poset(cartan, positive, gram)
        units = [[int(i == j) for j in range(rank)] for i in range(rank)]  # w_i in labels
        pairings = tuple(zip(*[poset_pairings(poset, w) for w in units]))
        values = (
            family, rank, cartan, positive, gram, det // cut,
            tuple(zip(*([x // cut for x in w] for w in fundamental))), coroots,
            poset,
            pairings,
            prod(poset_pairings(poset, (1,) * rank)),
            _highest_coroot(positive, pairings),
        )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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


def _highest_coroot(labels: Sequence[Labels], pairings: Sequence[Labels]) -> Labels:
    """The coefficients 2 (w_i, a) / (a, a) of the highest coroot on the simple
    coroots, for the positive roots ``labels`` in height order and their rows
    (w_i, a) in ``pairings``.  The highest coroot is the coroot of the highest
    short root (every root is short on a simply-laced type): the short roots
    form one Weyl orbit, whose dominant member lies above all the others, so
    it is the last root of least (a, a) = sum_i a_i (w_i, a)."""
    norms = [sum(map(mul, a, wa)) for a, wa in zip(labels, pairings)]
    short = min(norms)
    top = pairings[len(norms) - 1 - norms[::-1].index(short)]
    return tuple(2 * x // short for x in top)


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
    """Inner product of two weights in Dynkin labels, in gram units."""
    return sum(map(mul, u, [sum(map(mul, row, v)) for row in rs.gram]))


def key_codec(rs: RootSystem, bound: int) -> tuple[int, range, int, int, list[int], int]:
    """``(bits, shifts, high, key(rho), [sum_j C_ij S^j], |Phi+|)`` for labels at most ``bound``
    in absolute value, S/2 > bound; key(x) = sum(map(lshift, x, shifts)) + high.  The last
    entry caps the reflections of one straightening.

    One rule sizes every codec: ``bound`` = <H, theta^v>, theta^v the highest coroot and H the
    highest weight of a module whose weights the points are.  The weights of V(H) are the
    mu = H mod the root lattice with dominant image <= H (Humphreys, GTM 9, 21.3): a Weyl
    image of one is one, and so is a weight of V(H1) (x) V(H2) for H = H1 + H2.  A label
    <mu, a_i^v> is linear in mu, so on their convex hull it peaks in absolute value at some
    <w H, a_i^v> = <H, b^v>, b^v a positive coroot; H is dominant and theta^v - b^v a sum of
    simple coroots (10.4), so no label leaves [-bound, bound].  <rho, theta^v> = h - 1.
    """
    bits = bound.bit_length() + 1
    shifts = range(0, bits * rs.rank, bits)
    high = ((1 << bits * rs.rank) - 1) // ((1 << bits) - 1) << bits - 1
    simple = [sum(map(lshift, a, shifts)) for a in rs.cartan_matrix]
    return bits, shifts, high, high + (high >> bits - 1), simple, len(rs.positive_labels)


def dominant_key(key: int, codec: tuple) -> tuple[int, int]:
    """The dominant Weyl image of a key and the sign (-1)^steps, last negative label first.
    ``InternalError`` if the walk needs more reflections than the codec's cap."""
    bits, _, high, _, simple_keys, cap = codec
    mask, half, sign = (1 << bits) - 1, 1 << bits - 1, 1
    for _ in range(cap + 1):
        if not (neg := high & ~key):
            return key, sign
        i = neg.bit_length() // bits - 1
        key -= ((key >> bits * i & mask) - half) * simple_keys[i]
        sign = -sign
    raise InternalError(f"a key straightening needs more than |Phi+| = {cap} reflections: "
                        "its digits overflow")


def dual_weight(rs: RootSystem, hw: Labels) -> Labels:
    """-w0 hw, the highest weight of V(hw)*, for a weight ``hw`` in Dynkin labels."""
    if rs.family == "A":
        return hw[::-1]
    if rs.family == "D" and rs.rank % 2:
        return hw[:-2] + (hw[-1], hw[-2])
    return hw


def orbit_keys(key: int, codec: tuple) -> list[int]:
    """The Weyl orbit of the dominant point at ``key`` as keys of ``codec``, breadth first.

    Every orbit point is reached from the dominant one, listed first, by
    reflections s_i applied where the i-th label is positive, i ascending:
    key -= (digit_i - S/2) sum_j C_ij S^j, the step of :func:`dominant_key`.
    The codec must hold the orbit: :func:`key_codec`'s rule for H the dominant
    point, or the highest weight of a module it is a weight of.  Digit i of
    key - sum_j S^j is x_i + S/2 - 1, never negative, so its top bit marks x_i > 0.
    """
    bits, _, high, rho, simple_keys, _ = codec
    mask, half, ones = (1 << bits) - 1, 1 << bits - 1, rho - high
    seen, queue = {key}, [key]
    for v in queue:  # the loop also visits what it appends
        positive = v - ones & high
        while positive:
            low = positive & -positive
            positive ^= low
            i = low.bit_length() // bits - 1
            if (r := v - ((v >> bits * i & mask) - half) * simple_keys[i]) not in seen:
                seen.add(r)
                queue.append(r)
    return queue


def orbit(rs: RootSystem, mu: Labels) -> list[Labels]:
    """Weyl orbit of a dominant weight in Dynkin labels, in :func:`orbit_keys`'s order:
    the key walk in the codec for H = mu, decoded."""
    bits, shifts, high, _, _, _ = codec = key_codec(rs, sum(map(mul, mu, rs.highest_coroot)))
    mask, half = (1 << bits) - 1, 1 << bits - 1
    return [tuple([(key >> s & mask) - half for s in shifts])
            for key in orbit_keys(sum(map(lshift, mu, shifts)) + high, codec)]


# --- ambient coordinates, at the API edge -----------------------------------


def to_fundamental(rs: RootSystem, w: Weight) -> tuple[Fraction, ...]:
    """Dynkin labels <w, coroot(a_i)> = 2(w, a_i)/(a_i, a_i) of an ambient vector ``w``."""
    if len(w) != len(rs.fundamental_columns):
        raise DimensionMismatch(
            f"expected coordinate length {len(rs.fundamental_columns)}, got {len(w)}")
    return tuple(Fraction(sum(map(mul, w, c))) for c in rs.simple_coroots)


def to_orthogonal(rs: RootSystem, fund: Sequence) -> Weight:
    """Ambient coordinates of a weight given in Dynkin labels."""
    den = rs.den
    return tuple(Fraction(sum(map(mul, fund, col)), den) for col in rs.fundamental_columns)


# --- construction -------------------------------------------------------------


def _simple_root_data(family: str, rank: int) -> tuple[list[Labels], list[Labels]]:
    """Simple roots as integer ambient vectors, and the form of the space, up to
    a positive factor, as an integer matrix."""
    if family == "G":  # simple-root coordinates, a1 short: (a1, a2) = -3/2 (a1, a1)
        return [(1, 0), (0, 1)], [(2, -3), (-3, 6)]
    dim = rank + 1 if family == "A" else rank
    roots = [tuple(int(j == i) - int(j == i + 1) for j in range(dim)) for i in range(dim - 1)]
    if family != "A":  # e_n, 2 e_n or e_(n-1) + e_n
        roots.append((0,) * (rank - 2) + {"B": (0, 1), "C": (0, 2), "D": (1, 1)}[family])
    return roots, [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


@lru_cache(maxsize=None, typed=True)
def build_root_system(family: str, rank: int) -> RootSystem:
    """The cached constructor: one ``RootSystem(family, rank)`` per type and rank."""
    return RootSystem(family, rank)
