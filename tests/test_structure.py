"""Brute-force check of the conformal weight machinery on explicit g2 matrices.

Builds the 14-dimensional stabilizer of the associative 3-form inside
so(7) by exact linear algebra, then realizes the conformal weight
operator as B = -sum_ab (G^-1)_ab Y_a (x) Y_b on T (x) T for the Gram
matrix G_ab = -tr(Y_a Y_b)/2 of the induced scalar product.  This
validates, straight from structure constants: the Casimir normalization
(Cas acts as -4 on T), the conformal weights on every summand of
T (x) T, their multiplicities, and the trace identity sum dim_i b_i = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from holoweitz.contexts import make_context
from holoweitz.irreps import dimension
from holoweitz.weitzenboeck import conformal_weights

from helpers import combine, identity, invert, kron, mat_mul, nullspace, trace

# the associative 3-form on R^7 (1-indexed triples)
PHI = {
    (1, 2, 3): 1,
    (1, 4, 5): 1,
    (1, 6, 7): 1,
    (2, 4, 6): 1,
    (2, 5, 7): -1,
    (3, 4, 7): -1,
    (3, 5, 6): -1,
}

TRIPLES = list(combinations(range(1, 8), 3))


def phi_coeff(i, j, k):
    """Coefficient of phi on e_i ^ e_j ^ e_k for arbitrary index order."""
    # p has the sign of the permutation that sorts (i, j, k), and is 0 on a repeated index
    p = (j - i) * (k - i) * (k - j)
    return ((p > 0) - (p < 0)) * PHI.get(tuple(sorted((i, j, k))), 0)


def so7_basis():
    """E_ij - E_ji for i < j, as 7x7 integer matrices."""
    return [
        [[int((r, c) == (i, j)) - int((r, c) == (j, i)) for c in range(7)] for r in range(7)]
        for i, j in combinations(range(7), 2)
    ]


def action_on_phi(a):
    """Coefficients of the derivation action of a on phi, per sorted triple."""
    coeffs = []
    for (i, j, k) in TRIPLES:
        total = 0
        for m in range(1, 8):
            # A e_i = sum_m A[m][i] e_m, acting in each slot
            total += a[m - 1][i - 1] * phi_coeff(m, j, k)
            total += a[m - 1][j - 1] * phi_coeff(i, m, k)
            total += a[m - 1][k - 1] * phi_coeff(i, j, m)
        coeffs.append(total)
    return coeffs


def g2_matrices():
    """Integer basis of the stabilizer algebra of phi inside so(7)."""
    basis = so7_basis()
    rows = list(zip(*(action_on_phi(a) for a in basis)))
    return [combine(vec, basis) for vec in nullspace(rows)]


def test_conformal_weight_operator_from_structure_constants():
    mats = g2_matrices()
    assert len(mats) == 14  # the stabilizer of phi is 14-dimensional

    # Gram matrix G_ab = -tr(Y_a Y_b)/2 of the scalar product induced from
    # Lambda^2(T); scale * G^-1 is an integer matrix, and so is everything below
    gram_inv = invert([[Fraction(-trace(mat_mul(a, b)), 2) for b in mats] for a in mats])
    scale = lcm(*(x.denominator for row in gram_inv for x in row))
    # z[a] = scale * sum_b (G^-1)_ab Y_b
    z = [combine([int(c * scale) for c in row], mats) for row in gram_inv]

    # Casimir on T: sum (G^-1)_ab Y_a Y_b must act as -4 = -2 dim(g)/dim(T)
    cas = combine([1] * 14, [mat_mul(y, za) for y, za in zip(mats, z)])
    assert cas == combine([-4 * scale], [identity(7)])

    # m = scale * B for B = -sum (G^-1)_ab Y_a (x) Y_b on T (x) T, one 49x49 matrix
    m = combine([-1] * 14, [kron(y, za) for y, za in zip(mats, z)])
    assert trace(m) == 0

    # expected spectrum: conformal weights of T (x) T with the summand dims
    ctx = make_context("g2")
    formula = conformal_weights(ctx, ctx.holonomy_rep)
    expected = {s.b: dimension(s.irrep) for s in formula.summands}
    assert expected == {
        Fraction(-4): 1,
        Fraction(-2): 7,
        Fraction(0): 14,
        Fraction(2, 3): 27,
    }
    assert sum(b * d for b, d in expected.items()) == 0
    eigen = {}
    for b, d in expected.items():
        lam = b * scale
        assert lam.denominator == 1
        eigen[int(lam)] = d

    def shifted(lam):  # m - lam * I
        return combine([1, -lam], [m, identity(49)])

    # annihilating polynomial: prod (M - lam I) = 0
    prod = identity(49)
    for lam in eigen:
        prod = mat_mul(prod, shifted(lam))
    assert not any(any(row) for row in prod)

    # multiplicities: tr prod_{mu != lam} (M - mu I) = dim * prod (lam - mu)
    for lam, dim in eigen.items():
        partial = identity(49)
        factor = 1
        for mu in eigen:
            if mu != lam:
                partial = mat_mul(partial, shifted(mu))
                factor *= lam - mu
        assert trace(partial) == dim * factor
