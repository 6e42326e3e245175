"""Acceptance criteria, one test per criterion, all values exact.

Every expected number below is frozen from an independent derivation:
the closed-form Casimir polynomials, hand-evaluated trace identities and
the published coefficient tables.  Tolerance everywhere is exact
rational equality; the whole module is budgeted to run in seconds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from holoweitz.contexts import form_space, make_context
from holoweitz.decompose import _straighten, tensor
from holoweitz.irreps import (
    Irrep,
    casimir_lambda2,
    dimension,
    dominant_multiplicities,
    weights,
)
from holoweitz.prover import (
    EXPECTED_PARALLEL,
    INCONCLUSIVE,
    PARALLEL,
    FormClass,
    prove_component,
    prove_theorems,
)
from holoweitz.roots import build_root_system, orbit, to_fundamental, to_orthogonal
from holoweitz.weitzenboeck import conformal_weights, trace_residual

G2 = make_context("g2")
S7 = make_context("spin7")

G2_CASIMIR_TABLE = {
    (2, 0): Fraction(-28, 3),
    (0, 1): Fraction(-8),
    (1, 0): Fraction(-4),
    (1, 1): Fraction(-14),
    (3, 0): Fraction(-16),
}
SPIN7_CASIMIR_TABLE = {
    (0, 1, 0): Fraction(-10),
    (0, 0, 1): Fraction(-21, 4),
    (2, 0, 0): Fraction(-14),
    (0, 0, 2): Fraction(-12),
    (1, 0, 1): Fraction(-49, 4),
    (0, 1, 1): Fraction(-69, 4),
    (1, 1, 0): Fraction(-18),
    (1, 0, 2): Fraction(-20),
    (2, 0, 1): Fraction(-85, 4),
    (0, 0, 3): Fraction(-81, 4),
}


def test_c1_casimir_tables_exact():
    for hw, want in G2_CASIMIR_TABLE.items():
        assert casimir_lambda2(G2, Irrep(G2.root_system, hw)) == want
    for hw, want in SPIN7_CASIMIR_TABLE.items():
        assert casimir_lambda2(S7, Irrep(S7.root_system, hw)) == want


def test_c2_g2_casimir_closed_form_on_the_grid():
    for a in range(5):
        for b in range(5):
            want = Fraction(-2, 3) * (a * a + 3 * b * b + 3 * a * b + 5 * a + 9 * b)
            assert casimir_lambda2(G2, Irrep(G2.root_system, (a, b))) == want


def test_c3_dimension_tables_exact():
    g2_dims = {(1, 0): 7, (0, 1): 14, (2, 0): 27, (1, 1): 64, (3, 0): 77}
    spin7_dims = {
        (1, 0, 0): 7,
        (0, 0, 1): 8,
        (0, 1, 0): 21,
        (2, 0, 0): 27,
        (0, 0, 2): 35,
        (1, 0, 1): 48,
        (1, 1, 0): 105,
        (0, 1, 1): 112,
        (0, 0, 3): 112,
        (2, 0, 1): 168,
        (1, 0, 2): 189,
    }
    for hw, want in g2_dims.items():
        assert dimension(Irrep(G2.root_system, hw)) == want
    for hw, want in spin7_dims.items():
        assert dimension(Irrep(S7.root_system, hw)) == want


def test_c4_decompositions_and_binomial_conservation():
    def multiset(deco):
        return {(irr.highest_weight, m) for irr, m in deco}

    # form spaces
    assert multiset(form_space(G2, 2)) == {((1, 0), 1), ((0, 1), 1)}
    assert multiset(form_space(G2, 3)) == {((0, 0), 1), ((1, 0), 1), ((2, 0), 1)}
    assert multiset(form_space(G2, 4)) == multiset(form_space(G2, 3))
    assert multiset(form_space(G2, 5)) == multiset(form_space(G2, 2))
    assert multiset(form_space(S7, 2)) == {((1, 0, 0), 1), ((0, 1, 0), 1)}
    assert multiset(form_space(S7, 3)) == {((0, 0, 1), 1), ((1, 0, 1), 1)}
    assert multiset(form_space(S7, 4)) == {
        ((0, 0, 0), 1),
        ((1, 0, 0), 1),
        ((2, 0, 0), 1),
        ((0, 0, 2), 1),
    }

    # tensor products behind the formulas
    T2, S3 = G2.root_system, S7.root_system
    assert multiset(tensor(G2.holonomy_rep, Irrep(T2, (0, 1)))) == {
        ((1, 0), 1), ((2, 0), 1), ((1, 1), 1),
    }
    assert multiset(tensor(G2.holonomy_rep, Irrep(T2, (2, 0)))) == {
        ((1, 0), 1), ((0, 1), 1), ((2, 0), 1), ((1, 1), 1), ((3, 0), 1),
    }
    assert multiset(tensor(S7.holonomy_rep, Irrep(S3, (0, 1, 0)))) == {
        ((0, 0, 1), 1), ((1, 0, 1), 1), ((0, 1, 1), 1),
    }
    assert multiset(tensor(S7.holonomy_rep, Irrep(S3, (2, 0, 0)))) == {
        ((1, 0, 1), 1), ((2, 0, 1), 1),
    }
    assert multiset(tensor(S7.holonomy_rep, Irrep(S3, (1, 0, 1)))) == {
        ((0, 0, 2), 1), ((0, 1, 0), 1), ((1, 0, 0), 1),
        ((2, 0, 0), 1), ((1, 1, 0), 1), ((1, 0, 2), 1),
    }
    assert multiset(tensor(S7.holonomy_rep, Irrep(S3, (0, 0, 2)))) == {
        ((0, 0, 1), 1), ((1, 0, 1), 1), ((0, 1, 1), 1), ((0, 0, 3), 1),
    }

    # binomial dimension conservation in every degree
    for ctx in (G2, S7):
        for p in range(ctx.n + 1):
            assert sum(m * dimension(s) for s, m in form_space(ctx, p)) == comb(ctx.n, p)


def test_c5_proposition_g2_coefficients():
    f = conformal_weights(G2, Irrep(G2.root_system, (0, 1)))
    assert [s.coeff for s in f.summands] == [4, Fraction(4, 3), -1]
    f = conformal_weights(G2, Irrep(G2.root_system, (2, 0)))
    assert [s.coeff for s in f.summands] == [
        Fraction(14, 3), 2, Fraction(8, 3), Fraction(-1, 3), Fraction(-4, 3),
    ]


def test_c6_proposition_spin7_coefficients_and_discrepancies():
    rs = S7.root_system

    f48 = conformal_weights(S7, Irrep(rs, (1, 0, 1)))
    assert [s.coeff for s in f48.summands] == [
        Fraction(11, 4), Fraction(15, 4), Fraction(23, 4),
        Fraction(7, 4), Fraction(-1, 4), Fraction(-5, 4),
    ]
    assert f48.discrepancies == ()

    f35 = conformal_weights(S7, Irrep(rs, (0, 0, 2)))
    assert [s.coeff for s in f35.summands] == [6, Fraction(5, 2), 0, Fraction(-3, 2)]
    assert f35.discrepancies == ()

    f21 = conformal_weights(S7, Irrep(rs, (0, 1, 0)))
    assert [s.coeff for s in f21.summands] == [5, Fraction(3, 2), -1]
    assert {(d.computed, d.printed) for d in f21.discrepancies} == {
        (Fraction(5), Fraction(10)),
        (Fraction(3, 2), Fraction(3)),
    }

    f27 = conformal_weights(S7, Irrep(rs, (2, 0, 0)))
    assert [s.coeff for s in f27.summands] == [Fraction(7, 2), -1]
    assert {(d.computed, d.printed) for d in f27.discrepancies} == {
        (Fraction(-1), Fraction(-2)),
    }

    # decisive arbitration: the trace identity holds for all four bundles
    for f in (f48, f35, f21, f27):
        assert trace_residual(f) == 0


def test_c7_so_n_conformal_weight_cross_check():
    for n in range(5, 10):
        ctx = make_context(f"so{n}")
        rs = ctx.root_system
        r = rs.rank
        for p in range(1, n // 2):
            lam_orth = tuple([1] * p + [0] * (r - p))
            lam = Irrep(rs, tuple(int(c) for c in to_fundamental(rs, lam_orth)))
            f = conformal_weights(ctx, lam)
            by_b: dict = {}
            for s in f.summands:
                by_b.setdefault(s.b, set()).add(to_orthogonal(rs, s.irrep.highest_weight))
            assert by_b[Fraction(-(n - p))] == {tuple([1] * (p - 1) + [0] * (r - p + 1))}
            assert by_b[Fraction(1)] == {tuple([2] + [1] * (p - 1) + [0] * (r - p))}
            plus = tuple([1] * (p + 1) + [0] * (r - p - 1))
            if rs.family == "D" and p + 1 == r:
                plus_split = tuple([1] * (r - 1) + [-1])
                assert by_b[Fraction(-p)] == {plus, plus_split}
            else:
                assert by_b[Fraction(-p)] == {plus}
            assert set(by_b) == {Fraction(-(n - p)), Fraction(-p), Fraction(1)}


def test_c8_theorem_reproduction():
    for ctx in (G2, S7):
        report = prove_theorems(ctx)
        parallel = tuple(sorted((c, p) for c, p, v in report.claims if v == PARALLEL))
        assert parallel == EXPECTED_PARALLEL[ctx.id]
        assert report.matches_expected

    case = prove_component(S7, Irrep(S7.root_system, (0, 0, 2)), 4, FormClass.TWISTOR)
    assert case.verdict == INCONCLUSIVE
    assert [(s.summand.highest_weight, s.residual) for s in case.survivors] == [
        ((0, 0, 1), Fraction(-2)),
        ((1, 0, 1), Fraction(3, 2)),
    ]


def test_c9_property_suites():
    rng = random.Random(20240809)

    # trace identity on 30 random bundles per context
    for ctx in (G2, S7):
        for _ in range(30):
            hw = tuple(rng.randint(0, 3) for _ in range(ctx.root_system.rank))
            assert trace_residual(conformal_weights(ctx, Irrep(ctx.root_system, hw))) == 0

    # tensor dimension conservation and commutativity, 50 pairs per type
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(fam, rank)
        for i in range(50):
            def small():
                while True:
                    hw = tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(rank))
                    irr = Irrep(rs, hw)
                    if dimension(irr) <= 120:
                        return irr

            a, b = small(), small()
            deco = tensor(a, b)
            assert sum(m * dimension(s) for s, m in deco) == dimension(a) * dimension(b)
            if i < 10:  # both straightening orders agree, keys sized from the weights read
                top_a, top_b = (max(map(max, dict(weights(x)))) for x in (a, b))
                a_b = _straighten(rs, a.highest_weight, dominant_multiplicities(b), top_b,
                                  dimension(b))
                assert a_b == _straighten(rs, b.highest_weight, dominant_multiplicities(a), top_a,
                                          dimension(a))

    # Freudenthal totals against the Weyl dimension
    paper_irreps = [Irrep(G2.root_system, hw) for hw in G2_CASIMIR_TABLE] + [
        Irrep(S7.root_system, hw) for hw in SPIN7_CASIMIR_TABLE
    ]
    for _ in range(20):
        rs = rng.choice([G2.root_system, S7.root_system])
        paper_irreps.append(Irrep(rs, tuple(rng.randint(0, 2) for _ in range(rs.rank))))
    for irr in paper_irreps:
        rs = irr.root_system
        total = sum(m * len(orbit(rs, mu)) for mu, m in dominant_multiplicities(irr).items())
        assert total == dimension(irr)
