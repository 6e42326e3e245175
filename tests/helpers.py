"""Independent oracles used by the test suite.

Everything here reimplements the math from scratch on top of plain
matrix/vector arithmetic: Weyl groups as explicit matrices, Kostant's
partition-function multiplicity formula, brute-force orbits, exact
nullspaces.  None of it calls the package's own chamber/orbit/weight
machinery, so agreement is a genuine two-route check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def mat_vec(m, v):
    # skipping zero products keeps brute-force orbits of rank-5 types affordable
    return tuple(sum(x * y for x, y in zip(row, v) if x and y) for row in m)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def gram_inner(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def reflection_matrix(gram, alpha):
    """Matrix of the reflection in the hyperplane orthogonal to alpha."""
    n = len(alpha)
    c = Fraction(2) / gram_inner(gram, alpha, alpha)
    g_alpha = [sum(gram[j][l] * alpha[l] for l in range(n)) for j in range(n)]
    return tuple(
        tuple(Fraction(int(k == j)) - c * alpha[k] * g_alpha[j] for j in range(n))
        for k in range(n)
    )


def weyl_group(rs):
    """All Weyl group elements as (matrix, determinant) pairs."""
    gens = [reflection_matrix(rs.base_form, a) for a in rs.simple_roots]
    n = rs.dim
    seen = {identity(n): 1}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            det = seen[w]
            for g in gens:
                wg = mat_mul(g, w)
                if wg not in seen:
                    seen[wg] = -det
                    nxt.append(wg)
        frontier = nxt
    return list(seen.items())


def brute_orbit(rs, w):
    """Weyl orbit by direct closure with reflection matrices."""
    gens = [reflection_matrix(rs.base_form, a) for a in rs.simple_roots]
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                u = mat_vec(g, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def root_basis_coords(rs, v):
    """Coefficients of v in the simple-root basis (None if not in the span)."""
    n = rs.dim
    cols = list(rs.simple_roots)
    # solve sum c_i alpha_i = v by Gaussian elimination on [alpha | v]
    rows = [[cols[j][i] for j in range(len(cols))] + [v[i]] for i in range(n)]
    rank = len(cols)
    pivot_row = 0
    pivots = []
    for col in range(rank):
        piv = next((r for r in range(pivot_row, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        scale = rows[pivot_row][col]
        rows[pivot_row] = [x / scale for x in rows[pivot_row]]
        for r in range(n):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    coeffs = [Fraction(0)] * rank
    for i, col in enumerate(pivots):
        coeffs[col] = rows[i][rank]
    for r in range(pivot_row, n):
        if rows[r][rank] != 0:
            return None
    return tuple(coeffs)


def kostant_partition(rs):
    """Kostant partition function over the positive roots of rs.

    Returns a callable P(v) counting the ways to write the ambient
    vector v as a non-negative integer combination of positive roots.
    """
    pos = [root_basis_coords(rs, a) for a in rs.positive_roots]

    @lru_cache(maxsize=None)
    def count(coords, idx):
        if all(c == 0 for c in coords):
            return 1
        if idx == len(pos):
            return 0
        root = pos[idx]
        total = 0
        step = coords
        while all(c >= 0 for c in step):
            total += count(step, idx + 1)
            step = tuple(c - r for c, r in zip(step, root))
        return total

    def p(v):
        coords = root_basis_coords(rs, v)
        if coords is None or any(c < 0 or c.denominator != 1 for c in coords):
            return 0
        return count(coords, 0)

    return p


def kostant_multiplicity(rs, lam, mu):
    """Weight multiplicity via Kostant's formula (alternating Weyl sum)."""
    p = kostant_partition(rs)
    rho = rs.rho
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    mu_rho = tuple(a + b for a, b in zip(mu, rho))
    total = 0
    for w, det in weyl_group(rs):
        arg = tuple(a - b for a, b in zip(mat_vec(w, lam_rho), mu_rho))
        total += det * p(arg)
    return total


def character_product(weights_a, weights_b):
    """Weight multiset of a tensor product: all pairwise sums."""
    out = {}
    for u in weights_a:
        for v in weights_b:
            s = tuple(a + b for a, b in zip(u, v))
            out[s] = out.get(s, 0) + 1
    return out


def subset_sums(weights, p):
    """Weight multiset of an exterior power: p-element subset sums."""
    out = {}
    for subset in combinations(weights, p):
        s = tuple(sum(col) for col in zip(*subset)) if p else (Fraction(0),) * len(weights[0])
        out[s] = out.get(s, 0) + 1
    return out


# --- exact linear algebra for the structure-constant checks -----------------


def nullspace(rows):
    """Basis of the nullspace of a rational matrix, denominators cleared."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [list(map(Fraction, row)) for row in rows]
    pivots = {}
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][c]
        a[r] = [x / scale for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
        if r == m:
            break
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -a[pr][fc]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // _gcd(lcm, x.denominator)
        basis.append([x * lcm for x in vec])
    return basis


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def kron(a, b):
    """Kronecker product of two square matrices."""
    na, nb = len(a), len(b)
    out = [[None] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out
