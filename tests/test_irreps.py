"""Dimensions, weight multiplicities and Casimir eigenvalues."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from holoweitz import irreps
from holoweitz.contexts import HolonomyContext, make_context
from holoweitz.decompose import tensor
from holoweitz.errors import InternalError, MixedRootSystems, TrivialHolonomyRep
from holoweitz.irreps import (
    Irrep,
    _root_classes,
    casimir_lambda2,
    dimension,
    dominant_multiplicities,
    full_weights,
    weight_system,
    weights,
)
from holoweitz.roots import RootSystem, build_root_system, key_codec, orbit, to_orthogonal

from helpers import (
    ambient,
    ambient_casimir,
    dominant_closure,
    form,
    kostant_multiplicity,
    mat_vec,
    parabolic_order,
    restart_dominant,
    simple_reflections,
)

G2 = build_root_system("G", 2)
B3 = build_root_system("B", 3)
A3 = build_root_system("A", 3)
C3 = build_root_system("C", 3)
D4 = build_root_system("D", 4)

# the bundles of the paper's tables (their dimensions and Casimirs are pinned in test_acceptance)
G2_TABLE = [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]
SPIN7_TABLE = [
    (1, 0, 0), (0, 0, 1), (0, 1, 0), (2, 0, 0), (0, 0, 2), (1, 0, 1),
    (1, 1, 0), (0, 1, 1), (0, 0, 3), (2, 0, 1), (1, 0, 2),
]


def test_trivial_dimension_is_one():
    for rs in (G2, B3, build_root_system("A", 3), build_root_system("D", 4)):
        assert dimension(Irrep(rs, (0,) * rs.rank)) == 1


def test_highest_weight_multiplicity_is_one():
    for rs, hw in [(G2, (2, 1)), (B3, (1, 0, 1))]:
        irr = Irrep(rs, hw)
        assert weight_system(irr)[to_orthogonal(rs, hw)] == 1


def test_g2_adjoint_zero_weight_multiplicity():
    ws = weight_system(Irrep(G2, (0, 1)))
    zero = (Fraction(0), Fraction(0))
    assert ws[zero] == 2


def test_weight_system_answers_cannot_be_changed_by_a_caller():
    irr = Irrep(G2, (1, 0))
    # weight_system and dominant_multiplicities answer read-only views of their cached
    # dicts: an edit to one answer never reaches the next
    for answer in (weight_system, dominant_multiplicities):
        before = dict(answer(irr))
        for mutate in (
            lambda ws: ws.clear(),
            lambda ws: ws.pop(next(iter(before))),
            lambda ws: ws.update({(Fraction(9), Fraction(9)): 1}),
            lambda ws: ws.__setitem__(next(iter(before)), 5),
            lambda ws: ws.__delitem__(next(iter(before))),
        ):
            try:
                mutate(answer(irr))
            except (TypeError, AttributeError):  # a read-only view has no mutators
                pass
            assert answer(irr) == before
        assert dict(answer(irr).items()) == before and len(answer(irr)) == 2
    # tensor walks the orbits of its right factor's dominant multiplicities, cleared
    tensor.cache_clear()
    dominant_multiplicities.cache_clear()
    assert sum(m * dimension(s) for s, m in tensor(Irrep(G2, (2, 0)), irr)) == 189


def test_b3_spin_rep_weight_system():
    ws = weight_system(Irrep(B3, (0, 0, 1)))
    half = Fraction(1, 2)
    assert ws == {(half, half, half): 1}
    assert len(orbit(B3, (0, 0, 1))) == 8


@pytest.mark.parametrize(
    "rs,hw",
    [
        (G2, (0, 1)),
        (G2, (2, 0)),
        (G2, (1, 1)),
        (B3, (0, 0, 1)),
        (B3, (1, 0, 1)),
        (B3, (0, 1, 0)),
        (A3, (1, 0, 1)),
        (C3, (0, 1, 0)),
        (D4, (0, 1, 0, 0)),
        # three zero labels: the classes of positive roots under a large stabiliser
        (build_root_system("B", 4), (0, 0, 2, 0)),
    ],
)
def test_freudenthal_against_kostant_formula(rs, hw):
    irr = Irrep(rs, hw)
    lam = to_orthogonal(rs, hw)
    for mu, mult in weight_system(irr).items():
        assert kostant_multiplicity(ambient(rs.family, rs.rank), lam, mu) == mult, (hw, mu)


def test_freudenthal_totals_match_weyl_dimension():
    cases = [Irrep(G2, hw) for hw in G2_TABLE] + [Irrep(B3, hw) for hw in SPIN7_TABLE]
    cases += [Irrep(A3, (1, 1, 0)), Irrep(C3, (1, 0, 1)), Irrep(D4, (1, 0, 1, 1))]
    # the ladder inputs of the benchmark
    cases += [
        Irrep(B3, (3, 3, 3)),
        Irrep(D4, (2, 1, 1, 1)),
        Irrep(build_root_system("D", 5), (0, 1, 0, 0, 0)),
    ]
    rng = random.Random(99)
    for _ in range(20):
        rs = rng.choice([G2, B3])
        hw = tuple(rng.randint(0, 2) for _ in range(rs.rank))
        cases.append(Irrep(rs, hw))
    for irr in cases:
        rs = irr.root_system
        total = sum(m * len(orbit(rs, mu)) for mu, m in dominant_multiplicities(irr).items())
        assert total == dimension(irr), irr
        assert len(full_weights(irr)) == dimension(irr)


@pytest.mark.parametrize("rs,hw", [
    (build_root_system("A", 1), (200,)),
    (build_root_system("A", 2), (30, 0)),
    (G2, (0, 12)),
])
def test_large_labels_keep_their_string_keys_apart(rs, hw):
    # labels far above any small fixed key base: colliding keys would merge points
    irr = Irrep(rs, hw)
    mult = dominant_multiplicities(irr)
    assert sum(m * len(orbit(rs, mu)) for mu, m in mult.items()) == dimension(irr)
    lam, amb = to_orthogonal(rs, hw), ambient(rs.family, rs.rank)
    for mu, m in list(mult.items())[:: max(1, len(mult) // 12)]:
        assert kostant_multiplicity(amb, lam, to_orthogonal(rs, mu)) == m, mu


CLASS_ALGEBRAS = [("A", r) for r in range(1, 6)] + [("B", r) for r in range(2, 7)] + [
    ("C", r) for r in range(3, 6)] + [("D", r) for r in range(4, 7)] + [("G", 2)]


def oracle_root_classes(amb, zeros):
    """Classes of positive roots under W_zeros up to sign, by closing each root under the
    simple reflection matrices s_i, i in zeros: each class as a set of integer ambient roots."""
    positive = set(amb.positive_roots)
    reflections = [simple_reflections(amb)[i] for i in zeros]
    classes, placed = [], set()
    for a in sorted(positive):
        if a in placed:
            continue
        members, queue = {a}, [a]
        for v in queue:
            for s in reflections:
                w = mat_vec(s, v)
                w = w if w in positive else tuple(-x for x in w)
                if w not in members:
                    members.add(w)
                    queue.append(w)
        placed |= members
        classes.append(members)
    return classes


@pytest.mark.parametrize("family,rank", CLASS_ALGEBRAS, ids=lambda x: str(x))
def test_root_classes_match_the_reflection_closure_on_every_zero_pattern(family, rank):
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    # Dynkin labels 2 (v, a_i) / (a_i, a_i) through the form alone
    labels = {v: tuple(int(2 * form(amb, v, a) / form(amb, a, a)) for a in amb.simple_roots)
              for v in amb.positive_roots}
    for size in range(rank + 1):
        for zeros in combinations(range(rank), size):
            expected = {}
            for members in oracle_root_classes(amb, zeros):
                tops = [labels[v] for v in members if all(labels[v][i] >= 0 for i in zeros)]
                assert len(tops) == 1, (zeros, members)
                expected[tops[0]] = len(members)
            classes = {rs.positive_labels[k]: n for k, n in _root_classes(rs, zeros).items()}
            assert classes == expected, zeros
            assert all(a[i] >= 0 for a in classes for i in zeros)
            assert sum(classes.values()) == len(rs.positive_labels)


CLOSURE_ALGEBRAS = [("A", r) for r in range(1, 5)] + [("B", r) for r in range(2, 5)] + [
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2)]


def small_weights(rank, most=3):
    """Every highest weight of the given rank with coordinate sum at most ``most``."""
    return [hw for hw in product(range(most + 1), repeat=rank) if sum(hw) <= most]


@pytest.mark.parametrize("family,rank", CLOSURE_ALGEBRAS,
                         ids=[f"{f}{r}" for f, r in CLOSURE_ALGEBRAS])
def test_the_key_closure_is_the_label_closure_in_rho_then_breadth_first_order(family, rank):
    # dominant_multiplicities lists the closure in its order: by decreasing (mu, rho), and
    # breadth first among equals (the oracle's label closure, sorted stably).  The closure
    # runs on keys sized by key_codec's rule for H = lam + theta.  The trivial weight's H
    # is theta, so <theta, theta^v>, the largest |label| of a root (3 on G2), alone sizes
    # its digits: without it, mu - a borrows across digits on A1 and B2 and the closure
    # of (0,) or (0, 0) ends in InternalError
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    for hw in small_weights(rank):
        assert list(dominant_multiplicities(Irrep(rs, hw))) == dominant_closure(amb, hw), hw


def test_a_closure_codec_without_the_root_label_headroom_ends_in_internal_error():
    # the trivial weight of A1 has <lam, theta^v> = 0, and the rule adds <theta, theta^v>
    # = 2 (the codec for bound 2): digits for labels in [-1, 1) hold 0 - a_1
    # = (-2) only by borrowing from the digit above, so a key passes for dominant, and the
    # walk ends where (mu, rho) < 0, which no dominant weight has, instead of running on
    rs = build_root_system("A", 1)
    assert irreps._dominant_closure(rs, (0,), key_codec(rs, 2))[0][1] == 0
    with pytest.raises(InternalError, match=r"closure key of \(0,\) has \(mu, rho\) < 0"):
        irreps._dominant_closure(rs, (0,), key_codec(rs, 0))


FUNDAMENTAL_ALGEBRAS = [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("G", 2)]


@pytest.mark.parametrize("family,rank", FUNDAMENTAL_ALGEBRAS,
                         ids=[f"{f}{r}" for f, r in FUNDAMENTAL_ALGEBRAS])
def test_every_fundamental_weight_closes_in_the_narrowest_codec(family, rank):
    # past the trivial weight, a fundamental weight has the least <lam, theta^v>, so
    # <theta, theta^v>, the largest |label| of a root, is the largest share of its key
    # digits; a simple root attains it, so it is the largest |Cartan entry|
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    assert max(abs(x) for a in rs.positive_labels for x in a) == max(
        abs(x) for row in rs.cartan_matrix for x in row)
    for i in range(rank):
        hw = tuple(int(j == i) for j in range(rank))
        mult = dominant_multiplicities(Irrep(rs, hw))
        assert list(mult) == dominant_closure(amb, hw), hw
        assert sum(m * len(orbit(rs, mu)) for mu, m in mult.items()) == dimension(Irrep(rs, hw))


@pytest.mark.parametrize("rs,hw", [(B3, (3, 3, 3)), (D4, (2, 1, 1, 1)), (G2, (2, 3))])
def test_weight_system_keys_are_the_ambient_coordinates_in_order(rs, hw):
    ws = weight_system(Irrep(rs, hw))
    expected = [to_orthogonal(rs, mu) for mu in dominant_multiplicities(Irrep(rs, hw))]
    assert list(ws) == expected
    assert [[type(x) for x in key] for key in ws] == [[type(x) for x in key] for key in expected]


def test_b5_orbit_sizes_times_multiplicities_give_the_weyl_dimension():
    # |W| / |W_mu| points per dominant weight, the stabiliser W_mu generated by the
    # s_i with mu_i = 0; the group orders come from helpers' reflection matrices
    rs = build_root_system("B", 5)
    irr = Irrep(rs, (2, 2, 1, 1, 2))
    amb = ambient(rs.family, rs.rank)
    order = parabolic_order(amb, range(rs.rank))
    assert order == 2**5 * 120
    stabilisers: dict[tuple[int, ...], int] = {}
    total = 0
    for mu, m in dominant_multiplicities(irr).items():
        zeros = tuple(i for i, c in enumerate(mu) if not c)
        if zeros not in stabilisers:
            stabilisers[zeros] = parabolic_order(amb, zeros)
            assert len(orbit(rs, mu)) == order // stabilisers[zeros], mu
        total += m * order // stabilisers[zeros]
    assert total == dimension(irr)
    assert len(stabilisers) > 16


SWEEP = [("A", r) for r in range(1, 5)] + [(f, r) for f in "BC" for r in (2, 3, 4)]
SWEEP += [("D", 3), ("D", 4), ("D", 5), ("G", 2)]


@pytest.mark.parametrize("family,rank", SWEEP, ids=[f"{f}{r}" for f, r in SWEEP])
def test_weyl_dimension_is_the_orbit_sum_of_the_multiplicities(family, rank):
    # dim V(lam) = sum over dominant mu of m(mu) |W| / |W_mu|, the group orders from
    # helpers' reflection matrices; every label up to 2 at rank 2 or less, up to 1 above
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    order = lru_cache(maxsize=None)(lambda zeros: parabolic_order(amb, zeros))
    for hw in product(range(3 if rank <= 2 else 2), repeat=rank):
        irr = Irrep(rs, hw)
        total = sum(m * order(tuple(range(rank))) // order(tuple(i for i, c in enumerate(mu) if not c))
                    for mu, m in dominant_multiplicities(irr).items())
        assert dimension(irr) == total, hw


@pytest.mark.parametrize("rs,hw", [(G2, (1, 1)), (B3, (1, 0, 1)), (A3, (2, 0, 1)), (C3, (0, 1, 1)),
                                   (D4, (1, 0, 1, 1)), (build_root_system("D", 5), (0, 1, 0, 0, 0))])
def test_weights_walk_each_orbit_once_from_its_dominant_weight(rs, hw):
    irr = Irrep(rs, hw)
    walk = weights(irr)
    assert type(walk) is tuple and len({nu for nu, _ in walk}) == len(walk)
    # a dominant weight opens each group, in dominant_multiplicities order, and every
    # point of the group straightens to it and carries its multiplicity
    mult, amb = dominant_multiplicities(irr), ambient(rs.family, rs.rank)
    groups = [i for i, (nu, _) in enumerate(walk) if min(nu) >= 0]
    assert [walk[i] for i in groups] == list(mult.items())
    for start, end in zip(groups, groups[1:] + [len(walk)]):
        mu, m = walk[start]
        assert {restart_dominant(amb, nu)[0] for nu, _ in walk[start:end]} == {mu}
        assert {k for _, k in walk[start:end]} == {m}
    assert sum(m for _, m in walk) == dimension(irr)
    # full_weights maps the walk to ambient coordinates, in its order
    assert full_weights(irr) == tuple(to_orthogonal(rs, nu) for nu, m in walk for _ in range(m))


BFS_ALGEBRAS = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4),
                ("G", 2)]


@pytest.mark.parametrize("family,rank", BFS_ALGEBRAS, ids=[f"{f}{r}" for f, r in BFS_ALGEBRAS])
def test_weights_are_the_label_breadth_first_walk_in_its_order(family, rank):
    # the key walk, decoded, against a breadth-first walk on label tuples: from each
    # dominant weight, s_i mu = mu - mu_i (row i of the Cartan matrix) wherever mu_i > 0,
    # i ascending, each new point appended once
    rs = build_root_system(family, rank)

    def label_orbit(mu):
        seen, queue = {mu}, [mu]
        for v in queue:
            for i, c in enumerate(v):
                if c > 0:
                    r = tuple(x - c * a for x, a in zip(v, rs.cartan_matrix[i]))
                    if r not in seen:
                        seen.add(r)
                        queue.append(r)
        return queue

    for hw in product(range(3), repeat=rank):
        if sum(hw) <= (4 if rank == 2 else 2):
            irr = Irrep(rs, hw)
            brute = [(nu, m) for mu, m in dominant_multiplicities(irr).items()
                     for nu in label_orbit(mu)]
            assert list(weights(irr)) == brute, hw


def test_weights_whose_multiplicities_miss_the_weyl_dimension_raise(monkeypatch):
    # the mutant gives every dominant weight of the B3 adjoint multiplicity 1, the zero
    # weight included: its orbits then hold 12 + 6 + 1 weights, not 21
    real = irreps.dominant_multiplicities
    monkeypatch.setattr(irreps, "dominant_multiplicities", lambda irr: dict.fromkeys(real(irr), 1))
    rs = RootSystem("B", 3)  # a fresh root system: no cached answer is read
    with pytest.raises(InternalError, match="add up to dimension 19, expected 21"):
        weights(Irrep(rs, (0, 1, 0)))
    with pytest.raises(InternalError, match="expected 21"):
        full_weights(Irrep(rs, (0, 1, 0)))


def test_a_weyl_dimension_that_is_not_an_integer_raises():
    # no built root system fails the check; a mutant with twice the Weyl denominator does:
    # the numerator of V(1,0,0) is 7 times the true denominator, 7/2 times the mutant's
    rs = RootSystem("B", 3)
    object.__setattr__(rs, "weyl_denominator", 2 * B3.weyl_denominator)
    with pytest.raises(InternalError, match=r"is not an integer: 165150720/47185920$"):
        dimension(Irrep(rs, (1, 0, 0)))


def test_casimir_lambda2_of_holonomy_rep_closed_form():
    # c_T = -2 dim(g) / dim(T)
    g2 = make_context("g2")
    assert casimir_lambda2(g2, g2.holonomy_rep) == Fraction(-2 * 14, 7)
    s7 = make_context("spin7")
    assert casimir_lambda2(s7, s7.holonomy_rep) == Fraction(-2 * 21, 8)


@pytest.mark.parametrize("ctx_id", ["spin7", "so5", "so6", "so7", "so8", "so9", "so10"])
def test_spin7_lambda2_equals_base_casimir(ctx_id):
    # on the vector representation of so(n) (and the spin rep of spin7)
    # the Lambda2 normalization is the base form itself: c = -(lam, lam + 2 rho)
    ctx = make_context(ctx_id)
    rs = ctx.root_system
    amb = ambient(rs.family, rs.rank)
    rng = random.Random(4)
    for _ in range(20):
        irr = Irrep(rs, tuple(rng.randint(0, 3) for _ in range(rs.rank)))
        assert casimir_lambda2(ctx, irr) == -ambient_casimir(amb, irr.highest_weight)


def test_casimir_lambda2_invariant_under_form_scaling(form_scaled):
    # scale the form by c: gram in the package, base_form in the oracle, where
    # c_lam = c_T C(lam) / C(T); the value must not move
    g2, amb = make_context("g2"), ambient("G", 2)
    for c in (2, 3, 5):
        scaled = replace(amb, base_form=tuple(tuple(c * x for x in row) for row in amb.base_form))
        c_t = casimir_lambda2(g2, g2.holonomy_rep) / ambient_casimir(scaled, (1, 0))
        rs = form_scaled("G", 2, c)
        ctx = HolonomyContext(f"g2-gram-{c}", Irrep(rs, (1, 0)), ricci_flat=False)
        for hw in G2_TABLE + [(3, 2)]:
            want = casimir_lambda2(g2, Irrep(G2, hw))
            assert casimir_lambda2(ctx, Irrep(rs, hw)) == want == c_t * ambient_casimir(scaled, hw)
            irr, mutant = Irrep(G2, hw), Irrep(rs, hw)  # nor do multiplicities and dimensions
            assert dominant_multiplicities(mutant) == dominant_multiplicities(irr)
            assert dimension(mutant) == dimension(irr)


def test_casimir_lambda2_rejects_an_irrep_of_another_root_system():
    # an irrep of B3 asked for in the G2 context
    with pytest.raises(MixedRootSystems):
        casimir_lambda2(make_context("g2"), Irrep(build_root_system("B", 3), (1, 0, 0)))


def test_trivial_holonomy_rep_rejected():
    ctx = HolonomyContext("g2-trivial", Irrep(G2, (0, 0)), ricci_flat=False)
    with pytest.raises(TrivialHolonomyRep):
        casimir_lambda2(ctx, Irrep(G2, (1, 0)))


@pytest.mark.parametrize(
    "labels",
    [(1.5, 0), (Fraction(3, 2), 0), ("1", 0), (True, False), (1, True), (None, 0),
     5, None],
    ids=["float", "fraction", "str", "bool", "int-and-bool", "none",
         "int-weight", "none-weight"],
)
def test_irrep_rejects_labels_that_are_not_integers(labels):
    with pytest.raises(ValueError):
        Irrep(G2, labels)


def test_irrep_accepts_integral_labels_of_any_numeric_type():
    for labels in ((2.0, 0), (Fraction(2), 1), [1, 0]):
        irr = Irrep(G2, labels)
        assert irr.highest_weight == tuple(int(x) for x in labels)
        assert all(type(x) is int for x in irr.highest_weight)
