"""Independent oracles used by the test suite.

Everything here reimplements the math from scratch on top of plain
matrix/vector arithmetic: Weyl groups as explicit matrices, Kostant's
partition-function multiplicity formula, brute-force orbits, exact
nullspaces and inverses.  It imports only the standard library, nothing
from the package under test.  The oracles run on their own ambient model
of each root system (:func:`ambient`), built from Bourbaki, *Groupes et
algebres de Lie*, ch. IV-VI, planches I-IV for A-D and, for G2, in
simple-root coordinates with the form normalized by (w1, w1) = 1,
(w1, w2) = 3/2, (w2, w2) = 3 (planche IX, a1 short).  The model derives
its own Cartan matrix, positive roots, fundamental weights and rho.  No
oracle takes a package root system: the tests pass its ``family`` and
``rank`` to :func:`ambient`.  The oracles never call the package's form,
coordinate, chamber, orbit or weight machinery, so agreement is a genuine
two-route check.

Work is done in integers wherever the values are integral.  The simple
reflections of every supported type are integer matrices in ambient
coordinates; this is the precondition of every integer routine below,
and ``reflection_matrix`` raises ``ValueError`` where it fails.  A
rational vector v is carried as the pair (d, d * v), d the lcm of its
denominators (``scaled``), so Weyl group elements, orbits and Kostant's
alternating sum run on integers and return to ``Fraction`` only at the
end.  ``row_reduce`` is the one rational Gauss-Jordan elimination;
simple-root coordinates, fundamental weights, nullspaces and inverses
are all read off it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add


def scaled(v):
    """(d, d * v) for the least positive integer d that makes d * v integral."""
    d = lcm(*(x.denominator for x in v))
    return d, tuple(int(x * d) for x in v)


def mat_vec(m, v):
    # skipping zero products keeps Kostant's alternating sum over sparse Weyl matrices cheap
    return tuple(sum(x * y for x, y in zip(row, v) if x and y) for row in m)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col) if x and y) for col in cols)
                 for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def combine(coeffs, matrices):
    """The linear combination sum_k coeffs[k] * matrices[k], skipping zero terms."""
    terms = [(c, m) for c, m in zip(coeffs, matrices) if c]
    rows, cols = len(matrices[0]), len(matrices[0][0])
    return [[sum(c * m[i][j] for c, m in terms) for j in range(cols)] for i in range(rows)]


def reflection_matrix(form, alpha):
    """Integer matrix of the reflection in the hyperplane orthogonal to alpha."""
    form_alpha = [sum(g * x for g, x in zip(row, alpha)) for row in form]
    c = Fraction(2) / sum(x * y for x, y in zip(alpha, form_alpha))
    m = [[int(k == j) - c * a * fa for j, fa in enumerate(form_alpha)] for k, a in enumerate(alpha)]
    if any(x.denominator != 1 for row in m for x in row):
        raise ValueError(f"the reflection in {alpha} is not an integer matrix")
    return tuple(tuple(int(x) for x in row) for row in m)


# --- the ambient model ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ambient:
    """A root system in ambient coordinates.  ``simple_roots`` and
    ``positive_roots`` are integer vectors, the positive roots in (height,
    lexicographic) order; ``base_form`` is the Gram matrix of the ambient
    space, rational for G2; ``fundamental_weights`` and ``rho`` are
    ``Fraction`` vectors.  Models compare and hash by identity, so the caches below key
    on them cheaply.  A ``dataclasses.replace`` copy with a rescaled
    ``base_form`` keeps the other fields, none of which depends on the
    scale of the form."""

    family: str
    rank: int
    simple_roots: tuple
    base_form: tuple
    positive_roots: tuple
    cartan_matrix: tuple
    fundamental_weights: tuple
    rho: tuple

    @property
    def dim(self):
        return len(self.base_form)


def _planche(family, rank):
    """Simple roots, positive roots and the form, Bourbaki's planches I-IV and IX."""
    if family == "G":  # simple-root coordinates; (a1, a1) = 1, (a1, a2) = -3/2, (a2, a2) = 3
        form = ((Fraction(1), Fraction(-3, 2)), (Fraction(-3, 2), Fraction(3)))
        return [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)], form
    n = rank + 1 if family == "A" else rank
    e = identity(n)

    def plus(i, j, sign):  # e_i + sign e_j
        return tuple(x + sign * y for x, y in zip(e[i], e[j]))

    pairs = list(combinations(range(n), 2))
    simple = [plus(i, i + 1, -1) for i in range(n - 1)]
    positive = [plus(i, j, -1) for i, j in pairs]
    if family != "A":  # e_i + e_j, and e_i (B) or 2 e_i (C)
        positive += [plus(i, j, 1) for i, j in pairs]
        positive += {"B": list(e), "C": [plus(i, i, 1) for i in range(n)], "D": []}[family]
        last = {"B": e[n - 1], "C": plus(n - 1, n - 1, 1), "D": plus(n - 2, n - 1, 1)}
        simple.append(last[family])
    return simple, positive, e


@lru_cache(maxsize=None)
def ambient(family, rank):
    """The ambient model of the root system of type ``family`` and ``rank``.

    The Cartan matrix is 2 (a_i, a_j) / (a_j, a_j) under the form, the
    fundamental weights are w_i = sum_j (C^-1)_ij a_j by a rational
    inverse, rho is the half-sum of the positive roots, and the height of
    a root is its form with the sum of the fundamental coweights
    2 w_i / (a_i, a_i)."""
    simple, positive, base = _planche(family, rank)
    images = [mat_vec(base, a) for a in simple]  # base_form a_j
    b = [[sum(x * y for x, y in zip(a, image) if x) for image in images] for a in simple]
    cartan = [[Fraction(2 * x) / b[j][j] for j, x in enumerate(row)] for row in b]
    if any(x.denominator != 1 for row in cartan for x in row):
        raise ValueError(f"{family}{rank}: the Cartan matrix is not integral")
    weights = mat_mul(invert(cartan), simple)
    coweights = [sum(Fraction(2 * w[k]) / b[i][i] for i, w in enumerate(weights))
                 for k in range(len(base))]
    height = mat_vec(base, coweights)
    positive.sort(key=lambda a: (sum(x * height[k] for k, x in enumerate(a) if x), a))
    return Ambient(
        family=family,
        rank=rank,
        simple_roots=tuple(simple),
        base_form=base,
        positive_roots=tuple(positive),
        cartan_matrix=tuple(tuple(int(x) for x in row) for row in cartan),
        fundamental_weights=weights,
        rho=tuple(Fraction(sum(col), 2) for col in zip(*positive)),
    )


@lru_cache(maxsize=None)
def coroots(amb):
    """The covectors 2 (a_i, .) / (a_i, a_i) of the simple coroots."""
    covectors = []
    for a in amb.simple_roots:
        image = mat_vec(amb.base_form, a)
        length = sum(x * y for x, y in zip(a, image))
        covectors.append(tuple(Fraction(2 * y) / length for y in image))
    return tuple(covectors)


def labels(amb, v):
    """Dynkin labels 2 (v, a_i) / (a_i, a_i) of an ambient vector v, skipping zero products."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    return tuple(sum(x * c[k] for k, x in nonzero if c[k]) for c in coroots(amb))


@lru_cache(maxsize=None)
def simple_reflections(amb):
    return tuple(reflection_matrix(amb.base_form, a) for a in amb.simple_roots)


def _closure(start, gens, act):
    """Breadth-first closure of start under x -> act(g, x), each element mapped
    to (-1)^(length of the shortest word in gens that reaches it)."""
    seen = {start: 1}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    seen[y] = -seen[x]
                    nxt.append(y)
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def weyl_group(amb):
    """All Weyl group elements as (integer matrix, determinant) pairs."""
    return tuple(_closure(identity(amb.dim), simple_reflections(amb), mat_mul).items())


def _reflect(moved, v):
    """Apply a reflection, given as its sparse non-unit rows, to v."""
    u = list(v)
    for i, row in moved:
        u[i] = sum(x * v[j] for j, x in row)
    return tuple(u)


def brute_orbit(amb, w):
    """Weyl orbit of w by direct closure under the simple reflection matrices."""
    unit = identity(amb.dim)
    # a reflection moves few coordinates: keep only its rows that are not unit rows, sparse
    moves = [
        [(i, [(j, x) for j, x in enumerate(row) if x]) for i, row in enumerate(g) if row != unit[i]]
        for g in simple_reflections(amb)
    ]
    d, start = scaled(w)
    seen = _closure(start, moves, _reflect)
    if d == 1:  # integer tuples hash and compare equal to their Fraction values
        return set(seen)
    return {tuple(Fraction(x, d) for x in v) for v in seen}


def parabolic_order(amb, indices):
    """Order of the subgroup generated by the simple reflections s_i, i in indices:
    the size of its orbit of the regular weight rho, on which it acts freely."""
    gens = [simple_reflections(amb)[i] for i in indices]
    return len(_closure(scaled(amb.rho)[1], gens, mat_vec))


def restart_dominant(amb, mu):
    """(dominant, (-1)^steps) for labels mu by the restart scan: reflect at the
    first negative label, s_i mu = mu - mu_i * (row i of the Cartan matrix),
    and scan again from label 0."""
    mu, sign = tuple(mu), 1
    while True:
        i = next((i for i, c in enumerate(mu) if c < 0), None)
        if i is None:
            return mu, sign
        mu, sign = tuple(m - mu[i] * a for m, a in zip(mu, amb.cartan_matrix[i])), -sign


def dominant_closure(amb, lam):
    """The dominant weights below the dominant weight lam, in Dynkin labels: lam
    closed under mu -> mu - a over the positive roots a in the model's order,
    breadth first, keeping the results with no negative label; then sorted by
    decreasing (mu, rho) under base_form, stably, so equals stay breadth first."""
    steps = [tuple(int(x) for x in labels(amb, a)) for a in amb.positive_roots]
    seen, queue = {tuple(lam)}, [tuple(lam)]
    for mu in queue:
        for a in steps:
            nu = tuple(x - y for x, y in zip(mu, a))
            if min(nu) >= 0 and nu not in seen:
                seen.add(nu)
                queue.append(nu)

    def height(mu):
        vector = [sum(c * w[k] for c, w in zip(mu, amb.fundamental_weights)) for k in range(amb.dim)]
        return form(amb, vector, amb.rho)

    return sorted(queue, key=height, reverse=True)


# --- the one exact row reduction --------------------------------------------


def row_reduce(rows):
    """Reduced row echelon form of a rational matrix and its pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][c]
        a[r] = [x / scale if x else x for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def nullspace(rows):
    """Integer basis of the nullspace of a rational matrix."""
    if not rows:
        return []
    a, pivots = row_reduce(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        vec = [Fraction(int(c == fc)) for c in range(len(rows[0]))]
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(list(scaled(vec)[1]))
    return basis


def invert(m):
    """Inverse of a square rational matrix."""
    n = len(m)
    a, pivots = row_reduce([list(row) + list(e) for row, e in zip(m, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in a]


@lru_cache(maxsize=None)
def _root_coordinate_map(amb):
    """(L, E): integer E with E v = L * (simple-root coordinates of v, then zeros)
    for v in the root span, and a nonzero tail for every v outside it."""
    # row reduce [A | I], A with the simple roots as columns: the right block becomes E / L
    a, _ = row_reduce([row + unit for row, unit in zip(zip(*amb.simple_roots), identity(amb.dim))])
    big = lcm(*(x.denominator for row in a for x in row[amb.rank:]))
    return big, tuple(tuple(int(x * big) for x in row[amb.rank:]) for row in a)


def root_basis_coords(amb, v):
    """Coefficients of v in the simple-root basis (None if not in the span)."""
    big, e = _root_coordinate_map(amb)
    d, v = scaled(v)
    c = mat_vec(e, v)
    if any(c[amb.rank:]):
        return None
    return tuple(Fraction(x, big * d) for x in c[:amb.rank])


# --- Kostant's multiplicity formula -----------------------------------------


@lru_cache(maxsize=None)
def kostant_partition(amb):
    """Kostant partition function over the positive roots of a model.

    Returns a callable P(v, d) counting the ways to write the ambient
    vector v / d (v integral) as a non-negative integer combination of
    positive roots.
    """
    big, e = _root_coordinate_map(amb)
    pos = [tuple(int(c) for c in root_basis_coords(amb, a)) for a in amb.positive_roots]

    @lru_cache(maxsize=None)
    def count(coords, idx):
        if not any(coords):
            return 1
        if idx == len(pos):
            return 0
        root = pos[idx]
        total = 0
        step = coords
        while min(step) >= 0:
            total += count(step, idx + 1)
            step = tuple(c - r for c, r in zip(step, root))
        return total

    def p(v, d):
        c = mat_vec(e, v)
        head, q = c[:amb.rank], big * d
        if any(c[amb.rank:]) or any(x < 0 or x % q for x in head):
            return 0
        return count(tuple(x // q for x in head), 0)

    return p


def kostant_multiplicity(amb, lam, mu):
    """Weight multiplicity via Kostant's formula (alternating Weyl sum)."""
    p = kostant_partition(amb)
    n = amb.dim
    d, both = scaled([a + b for a, b in zip(lam, amb.rho)] + [a + b for a, b in zip(mu, amb.rho)])
    lam_rho, mu_rho = both[:n], both[n:]
    return sum(
        det * p(tuple(a - b for a, b in zip(mat_vec(w, lam_rho), mu_rho)), d)
        for w, det in weyl_group(amb)
    )


# --- the invariant form and Casimir numbers ---------------------------------


def form(amb, u, v):
    """The invariant form of a model on two ambient vectors: u . (base_form v)."""
    return sum(x * y for x, y in zip(u, mat_vec(amb.base_form, v)))


def form_table(amb, us, vs):
    """[[form(amb, u, v) for v in vs] for u in us], with base_form v computed once per v."""
    images = [[(k, y) for k, y in enumerate(mat_vec(amb.base_form, v)) if y] for v in vs]
    return [[sum(u[k] * y for k, y in image) for image in images] for u in us]


def ambient_casimir(amb, hw):
    """(lam + rho, lam + rho) - (rho, rho) under base_form, lam = sum_i hw_i w_i taken
    in ambient coordinates: the Casimir number of hw up to the scale of the form."""
    lam = [sum(c * w[k] for c, w in zip(hw, amb.fundamental_weights)) for k in range(amb.dim)]
    shifted = [x + r for x, r in zip(lam, amb.rho)]
    return form(amb, shifted, shifted) - form(amb, amb.rho, amb.rho)


# --- characters --------------------------------------------------------------


def character_product(weights_a, weights_b):
    """Weight multiset of a tensor product: all pairwise sums."""
    return Counter(tuple(map(add, u, v)) for u in weights_a for v in weights_b)


def subset_sums(weights, p):
    """Weight multiset of an exterior power: p-element subset sums."""
    zero = (0,) * len(weights[0])  # keeps the empty subset's sum at the weights' length
    return Counter(tuple(map(sum, zip(zero, *subset))) for subset in combinations(weights, p))


def kron(a, b):
    """Kronecker product of two matrices."""
    return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]
