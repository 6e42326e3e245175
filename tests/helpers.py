"""Independent oracles used by the test suite.

Everything here reimplements the math from scratch on top of plain
matrix/vector arithmetic: Weyl groups as explicit matrices, Kostant's
partition-function multiplicity formula, brute-force orbits, exact
nullspaces and inverses.  It imports only the standard library, nothing
from the package under test, and of a root system it reads only the data
fields ``simple_roots``, ``positive_roots``, ``fundamental_weights``,
``base_form``, ``rho``, ``cartan_matrix`` and ``rank`` (and ``dim``, the
length of a simple root), never ``gram``, and it never calls the
package's form, coordinate, chamber, orbit or weight machinery, so
agreement is a genuine two-route check.

Work is done in integers wherever the values are integral.  The simple
reflections of every supported type are integer matrices in ambient
coordinates; this is the precondition of every integer routine below,
and ``reflection_matrix`` raises ``ValueError`` where it fails.  A
rational vector v is carried as the pair (d, d * v), d the lcm of its
denominators (``scaled``), so Weyl group elements, orbits and Kostant's
alternating sum run on integers and return to ``Fraction`` only at the
end.  ``row_reduce`` is the one rational Gauss-Jordan elimination;
simple-root coordinates, nullspaces and inverses are all read off it.
"""

from __future__ import annotations

from collections import Counter
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
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


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


@lru_cache(maxsize=None)
def simple_reflections(rs):
    return tuple(reflection_matrix(rs.base_form, a) for a in rs.simple_roots)


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
def weyl_group(rs):
    """All Weyl group elements as (integer matrix, determinant) pairs."""
    return tuple(_closure(identity(rs.dim), simple_reflections(rs), mat_mul).items())


def _reflect(moved, v):
    """Apply a reflection, given as its sparse non-unit rows, to v."""
    u = list(v)
    for i, row in moved:
        u[i] = sum(x * v[j] for j, x in row)
    return tuple(u)


def brute_orbit(rs, w):
    """Weyl orbit of w by direct closure under the simple reflection matrices."""
    unit = identity(rs.dim)
    # a reflection moves few coordinates: keep only its rows that are not unit rows, sparse
    moves = [
        [(i, [(j, x) for j, x in enumerate(row) if x]) for i, row in enumerate(g) if row != unit[i]]
        for g in simple_reflections(rs)
    ]
    d, start = scaled(w)
    seen = _closure(start, moves, _reflect)
    if d == 1:  # integer tuples hash and compare equal to their Fraction values
        return set(seen)
    return {tuple(Fraction(x, d) for x in v) for v in seen}


def parabolic_order(rs, indices):
    """Order of the subgroup generated by the simple reflections s_i, i in indices:
    the size of its orbit of the regular weight rho, on which it acts freely."""
    gens = [simple_reflections(rs)[i] for i in indices]
    return len(_closure(scaled(rs.rho)[1], gens, mat_vec))


def restart_dominant(rs, mu):
    """(dominant, (-1)^steps) for labels mu by the restart scan: reflect at the
    first negative label, s_i mu = mu - mu_i * (row i of the Cartan matrix),
    and scan again from label 0."""
    mu, sign = tuple(mu), 1
    while True:
        i = next((i for i, c in enumerate(mu) if c < 0), None)
        if i is None:
            return mu, sign
        mu, sign = tuple(m - mu[i] * a for m, a in zip(mu, rs.cartan_matrix[i])), -sign


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
        a[r] = [x / scale for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
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
def _root_coordinate_map(rs):
    """(L, E): integer E with E v = L * (simple-root coordinates of v, then zeros)
    for v in the root span, and a nonzero tail for every v outside it."""
    # row reduce [A | I], A with the simple roots as columns: the right block becomes E / L
    a, _ = row_reduce([row + unit for row, unit in zip(zip(*rs.simple_roots), identity(rs.dim))])
    big = lcm(*(x.denominator for row in a for x in row[rs.rank:]))
    return big, tuple(tuple(int(x * big) for x in row[rs.rank:]) for row in a)


def root_basis_coords(rs, v):
    """Coefficients of v in the simple-root basis (None if not in the span)."""
    big, e = _root_coordinate_map(rs)
    d, v = scaled(v)
    c = mat_vec(e, v)
    if any(c[rs.rank:]):
        return None
    return tuple(Fraction(x, big * d) for x in c[:rs.rank])


# --- Kostant's multiplicity formula -----------------------------------------


@lru_cache(maxsize=None)
def kostant_partition(rs):
    """Kostant partition function over the positive roots of rs.

    Returns a callable P(v, d) counting the ways to write the ambient
    vector v / d (v integral) as a non-negative integer combination of
    positive roots.
    """
    big, e = _root_coordinate_map(rs)
    pos = [tuple(int(c) for c in root_basis_coords(rs, a)) for a in rs.positive_roots]

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
        head, q = c[:rs.rank], big * d
        if any(c[rs.rank:]) or any(x < 0 or x % q for x in head):
            return 0
        return count(tuple(x // q for x in head), 0)

    return p


def kostant_multiplicity(rs, lam, mu):
    """Weight multiplicity via Kostant's formula (alternating Weyl sum)."""
    p = kostant_partition(rs)
    n = rs.dim
    d, both = scaled([a + b for a, b in zip(lam, rs.rho)] + [a + b for a, b in zip(mu, rs.rho)])
    lam_rho, mu_rho = both[:n], both[n:]
    return sum(
        det * p(tuple(a - b for a, b in zip(mat_vec(w, lam_rho), mu_rho)), d)
        for w, det in weyl_group(rs)
    )


# --- the invariant form and Casimir numbers ---------------------------------


def form(rs, u, v):
    """The invariant form of rs on two ambient vectors: u . (base_form v)."""
    return sum(x * y for x, y in zip(u, mat_vec(rs.base_form, v)))


def form_table(rs, us, vs):
    """[[form(rs, u, v) for v in vs] for u in us], with base_form v computed once per v."""
    images = [[(k, y) for k, y in enumerate(mat_vec(rs.base_form, v)) if y] for v in vs]
    return [[sum(u[k] * y for k, y in image) for image in images] for u in us]


def ambient_casimir(rs, hw):
    """(lam + rho, lam + rho) - (rho, rho) under base_form, lam = sum_i hw_i w_i taken
    in ambient coordinates: the Casimir number of hw up to the scale of the form."""
    lam = [sum(c * w[k] for c, w in zip(hw, rs.fundamental_weights)) for k in range(rs.dim)]
    shifted = [x + r for x, r in zip(lam, rs.rho)]
    return form(rs, shifted, shifted) - form(rs, rs.rho, rs.rho)


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
