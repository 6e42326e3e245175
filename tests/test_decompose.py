"""Tensor products, exterior powers, character decomposition."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb
from operator import add, lshift, mul

import pytest

from holoweitz import decompose, irreps, roots, weitzenboeck
from holoweitz.contexts import CONTEXT_IDS, form_space, make_context
from holoweitz.decompose import (
    Decomposition,
    _decomposition,
    _straighten,
    exterior_power,
    tensor,
)
from holoweitz.errors import (
    DegreeOutOfRange,
    InternalError,
    MixedRootSystems,
)
from holoweitz.irreps import (
    Irrep,
    _casimir_number,
    dimension,
    dominant_multiplicities,
    full_weights,
    weight_system,
    weights,
)
from holoweitz.prover import prove_theorems
from holoweitz.roots import build_root_system, to_fundamental, to_orthogonal
from holoweitz.weitzenboeck import conformal_weights

from helpers import ambient, character_product, restart_dominant, subset_sums

G2 = build_root_system("G", 2)
B3 = build_root_system("B", 3)
D4 = build_root_system("D", 4)
B4 = build_root_system("B", 4)


def weight_labels(irrep):
    """The complete weight multiset in Dynkin labels: every orbit, by multiplicity."""
    rs = irrep.root_system
    return [
        nu
        for mu, m in dominant_multiplicities(irrep).items()
        for nu in roots.orbit(rs, mu)
        for _ in range(m)
    ]


def straighten(rs, lam, char):
    """``_straighten`` on the dominant part of a Weyl-invariant character given by all its
    (weight, multiplicity) pairs, with the label bound and the dimension read off them."""
    char = list(char)
    dominant = {nu: m for nu, m in char if min(nu) >= 0}
    return _straighten(rs, lam, dominant, max(max(nu) for nu, _ in char), sum(m for _, m in char))


def entries(deco: Decomposition):
    return [(irr.highest_weight, m) for irr, m in deco]


def test_g2_tensor_products_of_the_proposition_bundles():
    assert entries(tensor(Irrep(G2, (1, 0)), Irrep(G2, (0, 1)))) == [
        ((1, 0), 1),
        ((2, 0), 1),
        ((1, 1), 1),
    ]
    assert entries(tensor(Irrep(G2, (1, 0)), Irrep(G2, (2, 0)))) == [
        ((1, 0), 1),
        ((0, 1), 1),
        ((2, 0), 1),
        ((1, 1), 1),
        ((3, 0), 1),
    ]


def test_spin7_tensor_products_of_the_proposition_bundles():
    T = Irrep(B3, (0, 0, 1))
    assert entries(tensor(T, Irrep(B3, (0, 1, 0)))) == [
        ((0, 0, 1), 1),
        ((1, 0, 1), 1),
        ((0, 1, 1), 1),
    ]
    assert entries(tensor(T, Irrep(B3, (2, 0, 0)))) == [
        ((1, 0, 1), 1),
        ((2, 0, 1), 1),
    ]
    assert entries(tensor(T, Irrep(B3, (1, 0, 1)))) == [
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((2, 0, 0), 1),
        ((0, 0, 2), 1),
        ((1, 1, 0), 1),
        ((1, 0, 2), 1),
    ]
    assert entries(tensor(T, Irrep(B3, (0, 0, 2)))) == [
        ((0, 0, 1), 1),
        ((1, 0, 1), 1),
        ((0, 1, 1), 1),
        ((0, 0, 3), 1),
    ]


def test_tensor_with_trivial_is_identity():
    for rs, hw in [(G2, (2, 0)), (B3, (1, 0, 1)), (build_root_system("C", 3), (1, 1, 0))]:
        v = Irrep(rs, hw)
        assert entries(tensor(v, Irrep(rs, (0,) * rs.rank))) == [(hw, 1)]


def test_tensor_rejects_mixed_root_systems():
    with pytest.raises(MixedRootSystems):
        tensor(Irrep(G2, (1, 0)), Irrep(B3, (0, 0, 1)))


TYPES = [("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def _random_small_irrep(rng, rs, max_dim):
    while True:
        hw = tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(rs.rank))
        irr = Irrep(rs, hw)
        if dimension(irr) <= max_dim:
            return irr


def test_tensor_dimension_conservation_on_random_pairs():
    rng = random.Random(13)
    for fam, rank in TYPES:
        rs = build_root_system(fam, rank)
        for _ in range(50):
            a = _random_small_irrep(rng, rs, 150)
            b = _random_small_irrep(rng, rs, 150)
            deco = tensor(a, b)
            assert deco.total_dimension() == dimension(a) * dimension(b), (a, b)


def test_klimyk_is_symmetric_in_both_iteration_orders():
    rng = random.Random(31)
    for fam, rank in TYPES:
        rs = build_root_system(fam, rank)
        for _ in range(8):
            a = _random_small_irrep(rng, rs, 80)
            b = _random_small_irrep(rng, rs, 80)
            a_b = straighten(rs, a.highest_weight, weights(b))
            b_a = straighten(rs, b.highest_weight, weights(a))
            assert a_b == b_a, (a, b)


def test_tensor_against_brute_force_character_product():
    # multiset of weight sums must match the union of the summand weights
    cases = [
        (Irrep(G2, (1, 0)), Irrep(G2, (0, 1))),
        (Irrep(B3, (0, 0, 1)), Irrep(B3, (1, 0, 0))),
        # equal dimensions (8 and 8): either factor may be the expanded one
        (Irrep(D4, (1, 0, 0, 0)), Irrep(D4, (0, 0, 1, 0))),
        (Irrep(D4, (0, 0, 1, 0)), Irrep(D4, (1, 0, 0, 0))),
    ]
    for a, b in cases:
        product = character_product(full_weights(a), full_weights(b))
        combined: dict = {}
        for irr, m in tensor(a, b):
            for w in full_weights(irr):
                combined[w] = combined.get(w, 0) + m
        assert combined == product


TOP_LABEL_ALGEBRAS = [("A", r) for r in range(1, 5)] + [("B", r) for r in range(2, 5)] + [
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G", 2)]


@pytest.mark.parametrize("family,rank", TOP_LABEL_ALGEBRAS,
                         ids=[f"{f}{r}" for f, r in TOP_LABEL_ALGEBRAS])
def test_the_highest_coroot_pairing_is_the_largest_label_of_any_weight(family, rank):
    # tensor and exterior_power size their keys from the highest weight alone
    rs = build_root_system(family, rank)
    for hw in product(range(4), repeat=rank):
        if sum(hw) <= 3:
            top = sum(map(mul, hw, rs.highest_coroot))
            assert top == max(max(nu) for nu, _ in weights(Irrep(rs, hw))), hw


def test_summands_of_equal_dimension_keep_the_ambient_order():
    # _decomposition sorts by dimension, then by ambient coordinates: 19 of the 145
    # summands of B3 (2,2,2) x (2,1,2) share a dimension, and D4's three 8-dimensional
    # irreps all do
    def order(deco):
        return sorted(deco, key=lambda e: (dimension(e[0]), to_orthogonal(e[0].root_system,
                                                                         e[0].highest_weight)))

    deco = tensor(Irrep(B3, (2, 2, 2)), Irrep(B3, (2, 1, 2)))
    dims = Counter(dimension(irr) for irr, _ in deco)
    assert (len(deco), sum(n for n in dims.values() if n > 1)) == (145, 19)
    assert list(deco) == order(deco)
    eights = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)]
    char = Counter()
    for hw in eights:
        char.update(dict(weights(Irrep(D4, hw))))
    deco = straighten(D4, (0, 0, 0, 0), char.items())
    assert entries(deco) == [((0, 0, 0, 0), 1), ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1),
                             ((1, 0, 0, 0), 1)]
    assert list(deco) == order(deco)


def test_g2_form_space_decompositions():
    T = Irrep(G2, (1, 0))
    assert entries(exterior_power(T, 2)) == [((1, 0), 1), ((0, 1), 1)]
    assert entries(exterior_power(T, 3)) == [((0, 0), 1), ((1, 0), 1), ((2, 0), 1)]


def test_spin7_form_space_decompositions():
    T = Irrep(B3, (0, 0, 1))
    assert entries(exterior_power(T, 2)) == [((1, 0, 0), 1), ((0, 1, 0), 1)]
    assert entries(exterior_power(T, 3)) == [((0, 0, 1), 1), ((1, 0, 1), 1)]
    assert entries(exterior_power(T, 4)) == [
        ((0, 0, 0), 1),
        ((1, 0, 0), 1),
        ((2, 0, 0), 1),
        ((0, 0, 2), 1),
    ]


def test_exterior_power_degree_zero_and_range():
    T = Irrep(G2, (1, 0))
    assert entries(exterior_power(T, 0)) == [((0, 0), 1)]
    with pytest.raises(DegreeOutOfRange):
        exterior_power(T, 8)
    with pytest.raises(DegreeOutOfRange):
        exterior_power(T, -1)


def test_exterior_power_hodge_symmetry():
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        T = ctx.holonomy_rep
        for p in range(ctx.n + 1):
            assert exterior_power(T, p) == exterior_power(T, ctx.n - p)


def test_exterior_power_binomial_dimensions():
    from math import comb

    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        for p in range(ctx.n + 1):
            assert exterior_power(ctx.holonomy_rep, p).total_dimension() == comb(ctx.n, p)


def test_exterior_power_against_subset_sum_character():
    # the dominant part of the subset-sum multiset must equal the union of
    # the summands' dominant weight systems
    cases = [(Irrep(B3, (0, 0, 1)), p) for p in (2, 3, 4)]
    cases += [(Irrep(G2, (1, 0)), p) for p in range(8)]
    cases.append((Irrep(build_root_system("B", 4), (0, 0, 0, 1)), 3))
    for T, p in cases:
        rs = T.root_system
        char = {
            w: m
            for w, m in subset_sums(full_weights(T), p).items()
            if min(to_fundamental(rs, w)) >= 0
        }
        combined: dict = {}
        for irr, m in exterior_power(T, p):
            for w, mw in weight_system(irr).items():
                combined[w] = combined.get(w, 0) + m * mw
        assert combined == char, (T, p)


# every context's holonomy rep, the exterior-power reps of perfbench's ladder
# plus the G2 (1,1) cliff, and reps that are not self-dual (-w0 != 1)
ORACLE_REPS = [make_context(ctx_id).holonomy_rep for ctx_id in CONTEXT_IDS] + [
    Irrep(build_root_system(*where), hw)
    for where, hw in [
        (("B", 4), (1, 0, 0, 0)),
        (("B", 4), (0, 0, 0, 1)),
        (("G", 2), (2, 0)),
        (("G", 2), (1, 1)),
        (("A", 3), (1, 0, 0)),
        (("A", 4), (0, 1, 0, 0)),
        (("D", 5), (0, 0, 0, 0, 1)),
    ]
]


@pytest.mark.parametrize("t", ORACLE_REPS, ids=repr)
def test_exterior_power_matches_the_subset_route_exactly(t):
    # the subset-sum character straightened on its own is the oracle for the
    # Newton recursion and the duality; entries must agree in order too
    rs, n = t.root_system, dimension(t)
    for p in range(n + 1):
        if comb(n, p) > 10**5:
            continue
        char = subset_sums(weight_labels(t), p).items()
        assert exterior_power(t, p) == straighten(rs, (0,) * rs.rank, char), p


def minus_dominant(rs, hw):
    """-w0 hw as the dominant image of -hw, by the oracle's restart scan."""
    return restart_dominant(ambient(rs.family, rs.rank), tuple(-c for c in hw))[0]


@pytest.mark.parametrize("t", ORACLE_REPS, ids=repr)
def test_exterior_powers_of_complementary_degree_are_dual(t):
    rs, n = t.root_system, dimension(t)
    for p in range(n + 1):
        if comb(n, p) > 10**8:  # keeps the 64-dimensional G2 (1,1) below Lambda^7
            continue
        lower = exterior_power(t, n - p)
        dual = {minus_dominant(rs, irr.highest_weight): m for irr, m in lower}
        assert dict(entries(exterior_power(t, p))) == dual, p


# Newton's keys on labels far above those of the cases above: A2 (30,0) has n = 496
# and labels up to 30, G2 (0,12) has n = 67158; a key width that did not follow the
# degree and T's largest label would let digits carry into their neighbours
LARGE_LABELS = [(("A", 2), (30, 0), 5), (("G", 2), (0, 12), 3)]


@pytest.mark.parametrize("where, hw, p", LARGE_LABELS, ids=["A2_30_0_L5", "G2_0_12_L3"])
def test_newton_keys_stay_apart_on_large_labels(where, hw, p):
    rs = build_root_system(*where)
    t, n = Irrep(rs, hw), dimension(Irrep(rs, hw))
    deco = exterior_power(t, p)
    assert deco.total_dimension() == comb(n, p)
    # Hodge duality, and Lambda^p(T*) = Lambda^p(T)* from a Newton run of its own
    dual = {minus_dominant(rs, irr.highest_weight): m for irr, m in deco}
    assert dict(entries(exterior_power(t, n - p))) == dual
    t_star = Irrep(rs, minus_dominant(rs, hw))
    assert dict(entries(exterior_power(t_star, p))) == dual
    # the Casimir's trace on Lambda^p(T) is C(n-2, p-1) times its trace on T:
    # tr(X^2) over p-subsets of eigenvalues summing to 0
    traced = sum(m * dimension(irr) * _casimir_number(rs, irr.highest_weight) for irr, m in deco)
    assert traced == comb(n - 2, p - 1) * n * _casimir_number(rs, hw)


def straighten_tuples(rs, points):
    """{highest weight: multiplicity} of a Counter of points lam + rho + nu, each
    straightened on its label tuple by the oracle's restart scan."""
    acc, amb = Counter(), ambient(rs.family, rs.rank)
    for x, c in points.items():
        dom, sign = restart_dominant(amb, x)
        if c and 0 not in dom:
            acc[tuple(d - 1 for d in dom)] += sign * c
    return {hw: c for hw, c in acc.items() if c}


def test_large_labels_straighten_as_on_label_tuples():
    # the keys' digits must hold every label that a straightening meets: the points of
    # A2 (30,0) Lambda^5 have labels up to 151 and those of G2 (6,3) x (3,6) up to 31; the
    # oracle never leaves label tuples
    a, b = Irrep(G2, (6, 3)), Irrep(G2, (3, 6))
    points = Counter({tuple(x + 1 + y for x, y in zip(a.highest_weight, nu)): m
                      for nu, m in weights(b)})
    assert dict(entries(tensor(a, b))) == straighten_tuples(G2, points)
    # Newton's identity, q Lambda^q = sum_k (-1)^(k-1) psi^k Lambda^(q-k), on label tuples
    rs = build_root_system("A", 2)
    t = Irrep(rs, (30, 0))
    lower = [{(0, 0): 1}]
    for q in range(1, 6):
        points = Counter()
        for k in range(1, q + 1):
            psi = [(tuple(k * x for x in nu), m if k % 2 else -m) for nu, m in weights(t)]
            for lam, m in lower[q - k].items():
                lam_rho = [c + 1 for c in lam]
                for nu, c in psi:
                    points[tuple(map(add, lam_rho, nu))] += m * c
        acc = straighten_tuples(rs, points)
        assert all(c % q == 0 for c in acc.values())
        lower.append({hw: c // q for hw, c in acc.items()})
        assert dict(entries(exterior_power(t, q))) == lower[q], q


@pytest.mark.parametrize("where", [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)],
                         ids=["A2", "B3", "C3", "D4", "G2"])
@pytest.mark.parametrize("k", [2, 3])
def test_the_codec_holds_the_weyl_images_of_its_points(where, k):
    # -k rho is a weight of V(k rho), so the rule sizes its key for <k rho, theta^v> =
    # k (h - 1), though its own labels are within k: its walk to w0(-k rho) = k rho meets
    # labels up to k (h - 1), and a codec without that headroom carries between digits.
    # The point straightens to V((k - 1) rho) with the parity of w0, (-1)^|Phi+|
    rs = build_root_system(*where)
    bound = sum(map(mul, (k,) * rs.rank, rs.highest_coroot))
    assert bound == k * (2 * len(rs.positive_labels) // rs.rank - 1)
    _, shifts, high, _, _, _ = codec = roots.key_codec(rs, bound)
    key = sum(map(lshift, (-k,) * rs.rank, shifts)) + high
    want = {(k - 1,) * rs.rank: (-1) ** len(rs.positive_labels)}
    assert decompose._straighten_points(codec, [(key, 1)]) == want


# cold roots.dominant_key calls and Freudenthal key walks (irreps._walk) per computation.
# Freudenthal reads each string point at its key: a dominant weight's multiplicity is
# entered at its own key, and a point with a negative label that is not yet known walks,
# at most once per call; a point with no negative label neither walks nor is
# straightened.  Tensor products and exterior powers straighten keys with
# roots.dominant_key.
STRAIGHTENINGS = {
    "weight system B3 (3,3,3)": (lambda: weight_system(Irrep(B3, (3, 3, 3))), 0, 317),
    "tensor B3 (2,2,2) x (2,1,2)": (lambda: tensor(Irrep(B3, (2, 2, 2)), Irrep(B3, (2, 1, 2))),
                                    223, 30),
    "G2 (2,0) Lambda^4": (lambda: exterior_power(Irrep(G2, (2, 0)), 4), 121, 1),
    "G2 (1,1) Lambda^12": (lambda: exterior_power(Irrep(G2, (1, 1)), 12), 7286, 3),
    "B4 (1,0,0,0) Lambda^4": (lambda: exterior_power(Irrep(B4, (1, 0, 0, 0)), 4), 40, 0),
    "B4 (0,0,0,1) Lambda^3": (lambda: exterior_power(Irrep(B4, (0, 0, 0, 1)), 3), 41, 0),
}


@pytest.mark.parametrize("case", STRAIGHTENINGS)
def test_each_weight_is_straightened_at_most_once_per_call(monkeypatch, case):
    run, straightenings, walks = STRAIGHTENINGS[case]
    counts = {"dominant_key": 0, "_walk": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(roots, "dominant_key")
    counting(irreps, "_walk")
    for cached in (dominant_multiplicities, weight_system, tensor, exterior_power):
        cached.cache_clear()
    run()
    assert counts == {"dominant_key": straightenings, "_walk": walks}


RULE_ALGEBRAS = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
                 ("C", 4), ("D", 4), ("D", 5), ("G", 2)]
# the benchmark's seven ladder cases, on the kernels they run: Freudenthal, a tensor
# product (so10's Weitzenboeck formula is T (x) E) or an exterior power
RULE_LADDER = [("B", 3, (3, 3, 3), None), ("D", 4, (2, 1, 1, 1), None),
               ("B", 3, (2, 2, 2), (2, 1, 2)), ("D", 5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0)),
               ("B", 4, (1, 0, 0, 0), 4), ("B", 4, (0, 0, 0, 1), 3), ("G", 2, (2, 0), 4)]


def test_every_key_the_kernels_visit_lies_within_its_codecs_bound(monkeypatch):
    # roots.key_codec's rule: a codec asks for B = <H, theta^v>, H = lam + theta for
    # Freudenthal, mu for the decoded orbit of a dominant mu, lam + rho + lam_b for a
    # tensor product and p lam_T + rho for Lambda^p.  Each call's bound is recorded and
    # checked against its kernel's H, and the codec handed back is four times wider, so a
    # label past B decodes as itself instead of wrapping.  Every key that dominant_key,
    # _walk, the closure and the orbit walk visit, and every point fed to the
    # straightening kernel, must decode to labels within B
    bounds, asked, seen = {}, [], Counter()
    real_codec, real_key, real_orbit = roots.key_codec, roots.dominant_key, roots.orbit_keys
    real_walk, real_closure = irreps._walk, irreps._dominant_closure
    real_points = decompose._straighten_points

    def within(key, codec, kind):
        bits, shifts = codec[:2]
        labels = [(key >> s & (1 << bits) - 1) - (1 << bits - 1) for s in shifts]
        assert max(map(abs, labels)) <= bounds[id(codec)][1], (kind, labels)
        seen[kind] += 1

    def walked(key, codec, kind):
        bits, _, high, _, simple, cap = codec
        within(key, codec, kind)
        for _ in range(cap):
            if not (neg := high & ~key):
                return
            i = neg.bit_length() // bits - 1
            key -= ((key >> bits * i & (1 << bits) - 1) - (1 << bits - 1)) * simple[i]
            within(key, codec, kind)
        assert not high & ~key, kind

    def key_codec(rs, bound):
        codec = real_codec(rs, 4 * bound)
        bounds[id(codec)] = codec, bound  # the codec is kept alive, so its id stays its own
        asked.append(bound)
        return codec

    def dominant_key(key, codec):
        walked(key, codec, "dominant_key")
        return real_key(key, codec)

    def orbit_keys(key, codec):
        out = real_orbit(key, codec)
        for x in out:
            within(x, codec, "orbit")
        return out

    def walk(key, codec, known):
        walked(key, codec, "_walk")  # _walk stops on the way, at the first known key
        return real_walk(key, codec, known)

    def closure(rs, lam, codec):
        out = real_closure(rs, lam, codec)
        shifts = codec[1]
        steps = [sum(map(lshift, a, shifts)) for a in rs.positive_labels]
        for key, _ in out:
            within(key, codec, "closure")
            for step in steps:
                within(key - step, codec, "closure")
        return out

    def points(codec, pairs):
        pairs = list(pairs)
        for key, _ in pairs:
            within(key, codec, "points")
        return real_points(codec, pairs)

    monkeypatch.setattr(roots, "key_codec", key_codec)
    monkeypatch.setattr(roots, "dominant_key", dominant_key)
    monkeypatch.setattr(roots, "orbit_keys", orbit_keys)
    monkeypatch.setattr(irreps, "_walk", walk)
    monkeypatch.setattr(irreps, "_dominant_closure", closure)
    monkeypatch.setattr(decompose, "_straighten_points", points)

    def pairing(rs, hw):
        return sum(map(mul, hw, rs.highest_coroot))

    def freudenthal(irr):
        asked.clear()
        weights(irr)  # cold: Freudenthal's codec, then one codec per decoded orbit
        rs = irr.root_system
        assert asked == [pairing(rs, irr.highest_weight) + pairing(rs, rs.positive_labels[-1])] + [
            pairing(rs, mu) for mu in dominant_multiplicities(irr)]

    def check_tensor(a, b):
        for irr in (a, b):
            dominant_multiplicities(irr)
        if dimension(a) < dimension(b):
            a, b = b, a
        tensor.cache_clear()  # (b, a) may have been asked before
        asked.clear()
        tensor(a, b)
        rs = a.root_system
        h = sum(rs.highest_coroot)
        assert asked == [pairing(rs, a.highest_weight) + h + pairing(rs, b.highest_weight)]

    def check_exterior(t, p):
        dominant_multiplicities(t)
        asked.clear()
        exterior_power(t, p)
        rs, top = t.root_system, pairing(t.root_system, t.highest_weight)
        assert asked == [q * top + sum(rs.highest_coroot) for q in range(1, p + 1)]

    for family, rank in RULE_ALGEBRAS:
        rs = build_root_system(family, rank)._replace()  # fresh: no cached answer is read
        irrs = [Irrep(rs, hw) for hw in product(range(4), repeat=rank) if sum(hw) <= 3]
        for irr in irrs:
            freudenthal(irr)
        for a in irrs:
            for i in range(rank):  # against each fundamental weight
                check_tensor(a, Irrep(rs, tuple(int(j == i) for j in range(rank))))
        for t in irrs:
            if dimension(t) <= 40:
                check_exterior(t, min(4, dimension(t) // 2))
    for family, rank, hw, other in RULE_LADDER:
        rs = build_root_system(family, rank)._replace()
        if other is None:
            freudenthal(Irrep(rs, hw))
        elif isinstance(other, int):
            check_exterior(Irrep(rs, hw), other)
        else:
            check_tensor(Irrep(rs, hw), Irrep(rs, other))
    assert min(seen[kind] for kind in ("dominant_key", "_walk", "closure", "orbit", "points")) > 1000


# cold key walks (roots.orbit_keys) per computation: each kernel call walks each orbit it
# reads once, in its own codec, and irreps.weights walks them for the caches built on it
ORBIT_WALKS = {
    # so10's T, the vector, is one orbit: weitzenboeck._weight_table's weights(T), T (x) E
    "so10 Weitzenboeck on (0,1,0,0,0)": (lambda: conformal_weights(
        make_context("so10"), Irrep(build_root_system("D", 5), (0, 1, 0, 0, 0))), 2),
    # B4's vector is two orbits, walked by each degree 1..4 in that degree's codec
    "B4 (1,0,0,0) Lambda^4": (lambda: exterior_power(Irrep(B4, (1, 0, 0, 0)), 4), 8),
    # spin7's T, the spinor, is one orbit: the form spaces of degrees 1..4, T (x) E for
    # the four bundles whose formulas the prover reads, and _weight_table's weights(T)
    "spin7 theorems": (lambda: prove_theorems(make_context("spin7")), 9),
}


@pytest.mark.parametrize("case", ORBIT_WALKS)
def test_each_orbit_is_walked_once_per_cold_run(monkeypatch, case):
    run, walks = ORBIT_WALKS[case]
    real, calls = roots.orbit_keys, []

    def counted(key, codec):
        calls.append(key)
        return real(key, codec)

    for ctx_id in CONTEXT_IDS:  # a context's build certifies its registry by tensor products
        make_context(ctx_id)
    monkeypatch.setattr(roots, "orbit_keys", counted)
    for cached in (dominant_multiplicities, full_weights, tensor, exterior_power, form_space,
                   weitzenboeck._weight_table):
        cached.cache_clear()
    run()
    assert len(calls) == walks


def test_cold_kernels_never_read_label_weights(monkeypatch):
    # tensor and exterior_power walk their orbits on keys in their own codecs: with the
    # label-tuple walks made to raise, cold answers on a fresh root system are unchanged
    def cases(rs):
        return [tensor(Irrep(rs, (2, 2, 2)), Irrep(rs, (2, 1, 2))),
                exterior_power(Irrep(rs, (1, 0, 0)), 3), exterior_power(Irrep(rs, (0, 0, 1)), 4)]

    want = cases(B3)

    def refused(*args):
        raise AssertionError("a cold kernel read weights as label tuples")

    monkeypatch.setattr(irreps, "weights", refused)
    monkeypatch.setattr(roots, "orbit", refused)
    rs = B3._replace()  # fresh: no cached answer or weight is read
    got = cases(rs)
    assert [[(irr.highest_weight, m) for irr, m in deco] for deco in got] == [
        [(irr.highest_weight, m) for irr, m in deco] for deco in want]


def test_a_weight_walk_that_misses_the_dimension_raises(monkeypatch):
    # the mutant gives every dominant weight of the B3 adjoint multiplicity 1: its orbits
    # then hold 12 + 6 + 1 weights, not 21, which tensor and exterior_power both check
    real = decompose.dominant_multiplicities
    monkeypatch.setattr(decompose, "dominant_multiplicities",
                        lambda irr: dict.fromkeys(real(irr), 1))
    rs = B3._replace()  # a fresh root system: no cached answer is read
    adjoint = Irrep(rs, (0, 1, 0))
    with pytest.raises(InternalError, match="walked add up to dimension 19, expected 21"):
        tensor(Irrep(rs, (1, 1, 1)), adjoint)
    with pytest.raises(InternalError, match="walked add up to dimension 19, expected 21"):
        exterior_power(adjoint, 2)


@pytest.mark.parametrize("degree", [2.0, Fraction(2), True], ids=repr)
def test_a_degree_equal_to_an_int_reads_as_that_int_warm_and_cold(degree):
    T = Irrep(G2, (1, 0))
    exterior_power.cache_clear()
    cold = exterior_power(T, degree)
    assert cold == exterior_power(T, int(degree))  # warm: the int's cache entry
    exterior_power.cache_clear()
    assert exterior_power(T, int(degree)) == cold == exterior_power(T, degree)


@pytest.mark.parametrize("degree", [2.5, Fraction(5, 2), "2", None, float("inf"), float("nan")],
                         ids=repr)
def test_a_degree_that_is_not_an_integer_is_out_of_range_warm_and_cold(degree):
    T = Irrep(G2, (1, 0))
    exterior_power.cache_clear()
    for _ in range(2):  # cold, then with Lambda^2 cached
        with pytest.raises(DegreeOutOfRange):
            exterior_power(T, degree)
        exterior_power(T, 2)


def test_a_wrong_lower_degree_raises_instead_of_answering(monkeypatch):
    # Lambda^3(T) of G2 read from a Lambda^2 without V(1,0): 3 Lambda^3 then
    # misses T (x) V(1,0), which leaves a negative entry and a remainder mod 3;
    # Lambda^5, the dual of that Lambda^2, sums to 14 and fails the dimension check
    T = Irrep(G2, (1, 0))
    exterior_power.cache_clear()
    try:
        true_two = exterior_power(T, 2)
        poisoned = Decomposition(tuple((irr, m) for irr, m in true_two if irr != T))

        def lower(t, p):
            return poisoned if (t, p) == (T, 2) else exterior_power(t, p)

        monkeypatch.setattr(decompose, "exterior_power", lower)
        with pytest.raises(InternalError, match="multiplicity"):
            exterior_power(T, 3)
        with pytest.raises(InternalError, match="add up to dimension 14, expected 21"):
            exterior_power(T, 5)
    finally:
        exterior_power.cache_clear()


def test_a_straightening_without_its_sign_fails_the_dimension_check(monkeypatch):
    # the mutant keeps the dominant point and drops the reflection parity: the summands of a
    # tensor product, of V(lam) straightened against a character given without a total, or
    # of an exterior power then add up to more than dim a * dim b or C(n, p)
    real = roots.dominant_key
    monkeypatch.setattr(roots, "dominant_key", lambda key, codec: (real(key, codec)[0], 1))
    rs = B3._replace()  # a fresh root system: no cached answer is read
    with pytest.raises(InternalError, match="add up to dimension 189, expected 147"):
        tensor(Irrep(rs, (1, 0, 0)), Irrep(rs, (0, 1, 0)))
    with pytest.raises(InternalError, match="add up to dimension 273, expected 147"):
        straighten(rs, (1, 0, 0), weights(Irrep(rs, (0, 1, 0))))
    with pytest.raises(InternalError, match="expected 7"):
        exterior_power(Irrep(rs, (1, 0, 0)), 2)


def test_the_checked_step_rejects_negative_and_indivisible_multiplicities():
    assert entries(_decomposition(G2, {(1, 0): 6, (0, 0): 3}, 15, 3)) == [((0, 0), 1), ((1, 0), 2)]
    with pytest.raises(InternalError, match="multiplicity 4 .*: not divisible by 3"):
        _decomposition(G2, {(1, 0): 4}, 7, 3)
    with pytest.raises(InternalError, match="multiplicity -3 .*: negative"):
        _decomposition(G2, {(1, 0): -3}, 7, 3)


def test_multiplicity_freeness_of_holonomy_tensor_products():
    for ctx_id in ("g2", "spin7"):
        ctx = make_context(ctx_id)
        seen = set()
        for p in range(ctx.n + 1):
            for irr, _ in exterior_power(ctx.holonomy_rep, p):
                if irr in seen:
                    continue
                seen.add(irr)
                for _, m in tensor(ctx.holonomy_rep, irr):
                    assert m == 1, (ctx_id, irr)


def test_character_straightening_single_and_sum():
    # straightening against the trivial weight decomposes a character given by all its weights
    a = weights(Irrep(G2, (2, 0)))
    assert entries(straighten(G2, (0, 0), a)) == [((2, 0), 1)]

    both = Counter(dict(a)) + Counter(dict(weights(Irrep(G2, (0, 1)))))
    assert entries(straighten(G2, (0, 0), both.items())) == [((0, 1), 1), ((2, 0), 1)]


def test_character_straightening_matches_tensor_on_t_squared():
    T = Irrep(G2, (1, 0))
    product = character_product(weight_labels(T), weight_labels(T))
    deco = straighten(G2, (0, 0), product.items())
    assert deco == tensor(T, T)
    assert entries(deco) == [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((2, 0), 1)]
    assert deco.total_dimension() == 49


def test_character_straightening_recovers_random_sums_of_irreps():
    rng = random.Random(61)
    for fam, rank in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(fam, rank)
        for _ in range(10):
            summands: Counter = Counter()
            for _ in range(rng.randint(1, 3)):
                summands[_random_small_irrep(rng, rs, 150).highest_weight] += 1
            char: Counter = Counter()
            for hw, k in summands.items():
                for nu, m in weights(Irrep(rs, hw)):
                    char[nu] += k * m
            deco = straighten(rs, (0,) * rank, char.items())
            assert dict(entries(deco)) == summands, summands
