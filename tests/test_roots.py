"""Root system geometry: construction, the invariant form, chamber reflection, orbits."""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from dataclasses import replace
from math import gcd, lcm, prod
from operator import mul

import pytest

from holoweitz import decompose, irreps, roots
from holoweitz.errors import DimensionMismatch, InternalError, UnsupportedType
from holoweitz.irreps import Irrep, adjoint_irrep, dimension
from holoweitz.roots import (
    MAX_RANK,
    RootSystem,
    build_root_system,
    dominant_key,
    dot,
    dual_weight,
    key_codec,
    orbit,
    to_fundamental,
    to_orthogonal,
)

from helpers import (
    ambient,
    brute_orbit,
    coroots,
    form,
    form_table,
    identity,
    labels,
    mat_vec,
    restart_dominant,
    root_basis_coords,
    weyl_group,
)

MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4), ("D", 5),
    ("G", 2),
]
# every type the root poset is checked on: A1-A8, B2-B8, C2-C8, D3-D8, G2 and each family at rank 40
POSET_TYPES = [(family, rank) for family in "ABCD" for rank in range(MIN_RANK[family], 9)]
POSET_TYPES += [("G", 2)] + [(family, 40) for family in "ABCD"]


def form_factor(rs, amb):
    """(w_1, w_1) under the oracle's form over gram[0][0]: the one positive factor by
    which gram may differ from the ambient form.  Callers check every entry against it."""
    w1 = amb.fundamental_weights[0]
    factor = form(amb, w1, w1) / rs.gram[0][0]
    assert factor > 0, (rs, factor)
    return factor


def test_g2_cartan_matrix_and_positive_roots():
    g2 = build_root_system("G", 2)
    assert g2.cartan_matrix == ((2, -1), (-3, 2))
    assert len(g2.positive_labels) == 6


def test_b3_positive_roots_are_the_standard_nine():
    b3 = build_root_system("B", 3)
    expected = set()
    for i in range(3):
        expected.add(tuple(1 if k == i else 0 for k in range(3)))
        for j in range(i + 1, 3):
            for sign in (1, -1):
                expected.add(tuple(1 if k == i else (sign if k == j else 0) for k in range(3)))
    assert {to_orthogonal(b3, a) for a in b3.positive_labels} == expected
    assert len(b3.positive_labels) == 9


def test_a1_single_positive_root():
    a1 = build_root_system("A", 1)
    assert len(a1.positive_labels) == 1


def test_root_systems_compare_by_identity():
    b3 = build_root_system("B", 3)
    assert build_root_system("B", 3) is b3
    # a fresh instance is another root system, so irreps on it are other irreps
    assert Irrep(RootSystem("B", 3), (1, 0, 0)) != Irrep(b3, (1, 0, 0))


@pytest.mark.parametrize("family,rank", POSET_TYPES, ids=[f"{f}{r}" for f, r in POSET_TYPES])
def test_the_constructor_builds_what_the_cache_holds(family, rank):
    fresh, cached = RootSystem(family, rank), build_root_system(family, rank)
    assert fresh is not cached
    for name in RootSystem.__slots__:
        assert getattr(fresh, name) == getattr(cached, name), name


def test_unsupported_types_rejected():
    bad = [("F", 4), ("E", 6), ("E", 7), ("E", 8), ("B", 1), ("D", 2), ("G", 3), ("X", 2)]
    # a bool or float rank must not reach (or poison) the cache; ranks are capped
    bad += [("A", True), ("A", 2.0), ("A", MAX_RANK + 1)]
    for fam, rank in bad:
        with pytest.raises(UnsupportedType):
            build_root_system(fam, rank)
    for fam, rank in [("B", True), ("E", 6), ("G", 3), ("A", MAX_RANK + 1)]:
        with pytest.raises(UnsupportedType):
            RootSystem(fam, rank)
    assert type(build_root_system("A", 1).rank) is int
    # a rank out of range names the family's range, cap included, not just the type
    limits = [
        (("A", MAX_RANK + 1), f"type A needs 1 <= rank <= MAX_RANK = {MAX_RANK}"),
        (("A", 200), f"type A needs 1 <= rank <= MAX_RANK = {MAX_RANK}"),
        (("B", 1), f"type B needs 2 <= rank <= MAX_RANK = {MAX_RANK}"),
        (("D", 2), f"type D needs 3 <= rank <= MAX_RANK = {MAX_RANK}"),
        (("G", 3), "type G needs rank = 2"),
    ]
    for (fam, rank), text in limits:
        with pytest.raises(UnsupportedType, match=re.escape(text)):
            build_root_system(fam, rank)
    with pytest.raises(UnsupportedType) as exc:
        build_root_system("F", 4)
    assert str(exc.value) == "unsupported root system F4"


def test_rank_12_cartan_matrices_have_the_closed_form():
    # Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IV; row i
    # holds the Dynkin labels of the simple root a_i
    r = 12
    start = time.perf_counter()
    systems = {fam: build_root_system(fam, r) for fam in "ABCD"}
    assert time.perf_counter() - start < 0.5
    for fam, rs in systems.items():
        expected = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(r)] for i in range(r)]
        if fam == "B":
            expected[r - 2][r - 1] = -2
        elif fam == "C":
            expected[r - 1][r - 2] = -2
        elif fam == "D":
            expected[r - 2][r - 1] = expected[r - 1][r - 2] = 0
            expected[r - 3][r - 1] = expected[r - 1][r - 3] = -1
        assert rs.cartan_matrix == tuple(map(tuple, expected)), fam
        count = {"A": r * (r + 1) // 2, "B": r * r, "C": r * r, "D": r * (r - 1)}[fam]
        assert len(rs.positive_labels) == count, fam


def test_positive_roots_are_in_height_then_ambient_order():
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}
    cases = [("G", 2)] + [(f, r) for f in "ABCD" for r in range(minimum[f], 7)]
    for fam, rank in cases:
        rs, amb = build_root_system(fam, rank), ambient(fam, rank)
        positive = [to_orthogonal(rs, a) for a in rs.positive_labels]
        keys = [(sum(root_basis_coords(amb, a)), a) for a in positive]
        assert keys == sorted(keys), (fam, rank)
        assert positive == list(amb.positive_roots), (fam, rank)
        for i, w in enumerate(amb.fundamental_weights):
            assert to_fundamental(rs, w) == tuple(int(i == j) for j in range(rank))


def test_g2_gram_matches_the_normalization():
    g2, amb = build_root_system("G", 2), ambient("G", 2)
    w1, w2 = amb.fundamental_weights
    assert (to_orthogonal(g2, (1, 0)), to_orthogonal(g2, (0, 1))) == (w1, w2)
    assert form(amb, w1, w1) == 1
    assert form(amb, w1, w2) == Fraction(3, 2)
    assert form(amb, w2, w2) == 3


def test_gram_and_fundamental_weights_against_a_rational_inverse():
    # gram comes from an integer adjugate; the oracle's w_i = sum_j (C^-1)_ij a_j
    # uses a rational inverse, and every product is evaluated on its base_form
    types = [("G", 2)] + [("A", r) for r in range(1, 13)] + [("D", r) for r in range(3, 13)]
    types += [(family, r) for family in "BC" for r in range(2, 13)]
    for family, rank in types:
        rs, amb = build_root_system(family, rank), ambient(family, rank)
        w, factor = amb.fundamental_weights, form_factor(rs, amb)
        assert tuple(to_orthogonal(rs, unit) for unit in identity(rank)) == w, (family, rank)
        # base_form is symmetric, so row j of ((w_i, w_j)) is w . (base_form w_j)
        assert tuple(mat_vec(w, mat_vec(amb.base_form, v)) for v in w) == tuple(
            tuple(factor * g for g in row) for row in rs.gram
        ), (family, rank)
        for j, a in enumerate(amb.simple_roots):
            form_a = mat_vec(amb.base_form, a)
            length = sum(x * y for x, y in zip(a, form_a))
            pairings = [2 * x / length for x in mat_vec(w, form_a)]
            assert pairings == [int(i == j) for i in range(rank)], (family, rank, j)


@pytest.mark.parametrize("family,rank", POSET_TYPES, ids=[f"{f}{r}" for f, r in POSET_TYPES])
def test_root_system_matches_the_ambient_model(family, rank):
    # every field of the ambient edge and of the form, against the oracle's own model
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    assert rs.cartan_matrix == amb.cartan_matrix
    assert rs.positive_labels == tuple(labels(amb, a) for a in amb.positive_roots)
    den = lcm(*(x.denominator for w in amb.fundamental_weights for x in w))
    columns = tuple(zip(*([int(den * x) for x in w] for w in amb.fundamental_weights)))
    assert (rs.den, rs.fundamental_columns) == (den, columns)
    assert rs.simple_coroots == coroots(amb)
    # gram is ((w_i, w_j)) up to one positive factor, in coprime integers, on the vectors den * w_i
    scaled_weights, factor = list(zip(*columns)), form_factor(rs, amb)
    assert form_table(amb, scaled_weights, scaled_weights) == [
        [den * den * factor * g for g in row] for row in rs.gram]
    assert gcd(*(g for row in rs.gram for g in row)) == 1


def test_no_field_holds_a_fraction():
    def fractions(value):
        if isinstance(value, (tuple, list)):
            return sum(map(fractions, value))
        return isinstance(value, Fraction)

    for family, rank in POSET_TYPES:
        rs = build_root_system(family, rank)
        held = {name: fractions(getattr(rs, name)) for name in rs.__slots__}
        assert not any(held.values()), (family, rank, held)


def test_dot_is_the_ambient_form_up_to_one_factor(form_scaled):
    # dot runs on labels and the integer gram; the ambient route evaluates the oracle's base_form
    systems = [build_root_system(f, r) for f in "ABCD" for r in range(1, 9) if r >= MIN_RANK[f]]
    systems.append(build_root_system("G", 2))
    pairs = [(rs, ambient(rs.family, rs.rank)) for rs in systems]
    amb = ambient("B", 3)
    tripled = replace(amb, base_form=tuple(tuple(3 * x for x in row) for row in amb.base_form))
    pairs.append((form_scaled("B", 3, 3), tripled))
    rng = random.Random(1515)
    for rs, amb in pairs:
        factor = form_factor(rs, amb)
        for _ in range(25):
            u, v = (tuple(rng.randint(-4, 4) for _ in range(rs.rank)) for _ in range(2))
            want = form(amb, to_orthogonal(rs, u), to_orthogonal(rs, v)) / factor
            assert dot(rs, u, v) == want, (rs, u, v)


def test_b3_rho_and_its_norm():
    b3, amb = build_root_system("B", 3), ambient("B", 3)
    assert amb.rho == (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))
    assert to_orthogonal(b3, (1, 1, 1)) == amb.rho
    assert form(amb, amb.rho, amb.rho) == Fraction(35, 4)


def test_dot_bilinearity_zero():
    for fam, rank in ALL_TYPES:
        rs = build_root_system(fam, rank)
        zero, rho = (0,) * rank, (1,) * rank
        assert dot(rs, zero, rho) == dot(rs, rho, zero) == 0


def test_to_fundamental_dimension_mismatch():
    b3 = build_root_system("B", 3)
    for w in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionMismatch):
            to_fundamental(b3, w)


def test_positive_root_count_matches_adjoint_dimension():
    # |pos roots| = (dim g - rank)/2 with dim g from the Weyl formula
    for fam, rank in ALL_TYPES:
        rs = build_root_system(fam, rank)
        dim_g = dimension(adjoint_irrep(rs))
        assert len(rs.positive_labels) == (dim_g - rank) // 2, (fam, rank)


def test_rho_pairs_positively_with_every_positive_root():
    for fam, rank in ALL_TYPES:
        rs, amb = build_root_system(fam, rank), ambient(fam, rank)
        for a in rs.positive_labels:
            assert form(amb, amb.rho, to_orthogonal(rs, a)) > 0


# the Coxeter number h = 2 |Phi+| / rank of each family, from the classification
COXETER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
           "D": lambda n: 2 * n - 2, "G": lambda n: 6}


def encode(x, codec):
    return sum(c << s for c, s in zip(x, codec[1])) + codec[2]


def decode(key, codec):
    bits, shifts = codec[:2]
    return tuple((key >> s & (1 << bits) - 1) - (1 << bits - 1) for s in shifts)


def straighten(rs, x):
    """(dominant labels, sign) of the labels x by dominant_key, on keys sized for the
    labels of every Weyl image of x, max |x_i| (h - 1)."""
    codec = key_codec(rs, max(map(abs, x)) * (COXETER[rs.family](rs.rank) - 1))
    key, sign = dominant_key(encode(x, codec), codec)
    return decode(key, codec), sign


def test_dominant_input_is_a_fixed_point():
    b3 = build_root_system("B", 3)
    assert straighten(b3, (1, 1, 1)) == ((1, 1, 1), 1)
    # a zero label puts the weight on a chamber wall
    assert straighten(b3, (1, 0, 1)) == ((1, 0, 1), 1)


def test_a1_negative_weight_reflects_with_parity():
    a1 = build_root_system("A", 1)
    dom, sign = straighten(a1, (-2,))  # -2 w1
    assert dom == (2,) and sign == -1


def test_singular_weight_detected_against_brute_force():
    b3, amb = build_root_system("B", 3), ambient("B", 3)
    w = (1, 1, 0)  # orthogonal to e1 - e2
    fund = tuple(int(c) for c in to_fundamental(b3, w))
    dom, sign = straighten(b3, fund)
    assert 0 in dom and (dom, sign) == (fund, 1)
    group = weyl_group(amb)
    assert len(group) == 48
    points = brute_orbit(amb, w)
    # stabilizer nontrivial exactly when the orbit is smaller than the group
    assert len(points) < len(group)
    dominant_images = {v for v in points if min(to_fundamental(b3, v)) >= 0}
    assert dominant_images == {to_orthogonal(b3, dom)}


def test_to_dominant_is_idempotent_in_the_orbit_with_the_inversion_parity():
    rng = random.Random(7)
    regular = 0
    for fam, rank in ALL_TYPES:
        rs, amb = build_root_system(fam, rank), ambient(fam, rank)
        for _ in range(20):
            fund = [rng.randint(-4, 4) for _ in range(rank)]
            w = to_orthogonal(rs, fund)
            dom, sign = straighten(rs, fund)
            assert straighten(rs, dom) == (dom, 1)
            assert to_orthogonal(rs, dom) in brute_orbit(amb, w)
            if 0 not in dom:
                # the Weyl element taking a regular w to the dominant chamber
                # has length #{positive a : (w, a) < 0}; its determinant is the sign
                inversions = sum(form(amb, w, a) < 0 for a in amb.positive_roots)
                assert sign == (-1) ** inversions
                regular += 1
    assert regular > 50


def test_dominant_key_decodes_to_dominant_within_the_coxeter_bound():
    # labels in [-L, L], many at the edge +-L, on keys sized for the bound L (h - 1): the
    # straightened key decodes to the restart scan's point and sign, whose reflections come
    # in another order, and the zero-label mask marks exactly the singular points
    rng = random.Random(27)
    checked = singular = 0
    for family, rank in POSET_TYPES:
        rs, amb = build_root_system(family, rank), ambient(family, rank)
        h = COXETER[family](rank)
        assert 2 * len(rs.positive_labels) == h * rank
        for bound in (1, 4, 25):
            _, _, high, rho, _, cap = codec = key_codec(rs, bound * (h - 1))
            assert cap == len(rs.positive_labels)
            for _ in range(70 if rank < 40 else 15):
                x = [rng.choice((-bound, bound, rng.randint(-bound, bound))) for _ in range(rank)]
                key, sign = dominant_key(encode(x, codec), codec)
                dom, dom_sign = restart_dominant(amb, x)
                assert (decode(key, codec), sign) == (dom, dom_sign), (family, rank, x)
                assert bool((key - rho) & high) == (0 in dom), (family, rank, x)
                checked += 1
                singular += 0 in dom
    assert checked == 29 * 210 + 4 * 45 and singular > 1000


@pytest.mark.parametrize("family,rank", POSET_TYPES, ids=[f"{f}{r}" for f, r in POSET_TYPES])
def test_dual_weight_is_the_dominant_image_of_minus_lambda(family, rank):
    # V(lam)* = V(-w0 lam), and -w0 lam is the dominant Weyl image of -lam
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    rng = random.Random(rank)
    for _ in range(30 if rank < 40 else 3):
        hw = tuple(rng.randint(0, 4) for _ in range(rank))
        assert dual_weight(rs, hw) == restart_dominant(amb, tuple(-c for c in hw))[0], hw


def test_a_codec_too_narrow_for_its_labels_ends_in_internal_error(monkeypatch):
    # key_codec(A2, 3) codes labels in [-4, 4), but the orbit of (-1, -3) holds (4, -1): the
    # digits wrap, no walk reaches the chamber, and the cap of |Phi+| = 3 reflections ends it
    start = time.perf_counter()
    rs = build_root_system("A", 2)
    codec = key_codec(rs, 3)
    key = encode((-1, -3), codec)
    with pytest.raises(InternalError, match=r"more than \|Phi\+\| = 3 reflections"):
        dominant_key(key, codec)
    with pytest.raises(InternalError, match=r"more than \|Phi\+\| = 3 reflections"):
        irreps._walk(key, codec, {})
    # a kernel codec half as wide as it must be: A1 (3) x (2) wraps its keys as well.  The
    # weights of (2) are read first, so only the tensor product's codec is narrowed
    a1 = RootSystem("A", 1)  # a fresh root system: no cached answer is read
    irreps.weights(Irrep(a1, (2,)))
    real = key_codec
    monkeypatch.setattr(roots, "key_codec", lambda rs, bound: real(rs, bound // 2))
    with pytest.raises(InternalError, match=r"more than \|Phi\+\| = 1 reflections"):
        decompose.tensor(Irrep(a1, (3,)), Irrep(a1, (2,)))
    assert time.perf_counter() - start < 1


def test_fundamental_orthogonal_round_trip_on_random_weights():
    rng = random.Random(20240809)
    for _ in range(1000):
        fam, rank = rng.choice(ALL_TYPES)
        rs = build_root_system(fam, rank)
        fund = tuple(Fraction(rng.randint(-9, 9)) for _ in range(rank))
        w = to_orthogonal(rs, fund)
        assert to_fundamental(rs, w) == fund


def test_orbit_of_zero_is_zero():
    for fam, rank in [("G", 2), ("B", 3), ("A", 2)]:
        rs = build_root_system(fam, rank)
        zero = (0,) * rank
        assert orbit(rs, zero) == [zero]


def test_orbit_sizes_and_brute_force_agreement():
    g2 = build_root_system("G", 2)
    points = {to_orthogonal(g2, v) for v in orbit(g2, (1, 0))}
    assert len(points) == 6
    assert points == brute_orbit(ambient("G", 2), ambient("G", 2).fundamental_weights[0])

    b3 = build_root_system("B", 3)
    points = {to_orthogonal(b3, v) for v in orbit(b3, (0, 0, 1))}
    assert len(points) == 8
    half = Fraction(1, 2)
    assert points == {(a * half, b * half, c * half) for a in (1, -1) for b in (1, -1) for c in (1, -1)}
    assert points == brute_orbit(ambient("B", 3), ambient("B", 3).fundamental_weights[2])


@pytest.mark.parametrize("family,rank", POSET_TYPES, ids=[f"{f}{r}" for f, r in POSET_TYPES])
def test_root_poset_steps_down_by_the_simple_root_of_the_first_positive_label(family, rank):
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    simple, edges = rs.root_poset
    positive, cartan, factor = rs.positive_labels, rs.cartan_matrix, form_factor(rs, amb)
    assert sorted(j for j, _ in simple) == list(range(rank)) and len(edges) == len(positive) - rank
    for (j, d), a in zip(simple, positive):
        assert a == cartan[j]
        alpha = amb.simple_roots[j]
        assert d * factor == form(amb, alpha, alpha) / 2  # (a_j, a_j) / 2 in gram units
    for k, (parent, s) in enumerate(edges, rank):
        a = positive[k]
        j = next(i for i, c in enumerate(a) if c > 0)
        assert s < rank and simple[s][0] == j and parent < k
        assert positive[parent] == tuple(x - y for x, y in zip(a, cartan[j]))


@pytest.mark.parametrize("family,rank", ALL_TYPES, ids=[f"{f}{r}" for f, r in ALL_TYPES])
def test_highest_coroot_dominates_every_positive_coroot(family, rank):
    # a^v = 2 a / (a, a) has coefficient c_i (a_i, a_i) / (a, a) on a_i^v, c the root's
    # coefficients on the simple roots; the highest coroot is one of them and dominates all
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    simple = [form(amb, a, a) for a in amb.simple_roots]
    table = [tuple(c * n / form(amb, a, a) for c, n in zip(root_basis_coords(amb, a), simple))
             for a in amb.positive_roots]
    assert rs.highest_coroot in table
    assert all(c <= h for row in table for c, h in zip(row, rs.highest_coroot))


def test_the_codec_rule_pairs_rho_and_theta_with_the_highest_coroot():
    # key_codec's rule on the two weights every kernel adds to its H: <rho, theta^v> is
    # the height h - 1 of the highest coroot, and <theta, theta^v> is the largest |label|
    # of a root, the largest |Cartan entry| (3 on G2), on every type up to rank 8
    for family, rank in [t for t in POSET_TYPES if t[1] <= 8]:
        rs = build_root_system(family, rank)
        assert sum(rs.highest_coroot) == COXETER[family](rank) - 1, (family, rank)
        theta = sum(map(mul, rs.positive_labels[-1], rs.highest_coroot))
        assert theta == max(abs(x) for row in rs.cartan_matrix for x in row), (family, rank)
        assert theta == max(abs(x) for a in rs.positive_labels for x in a), (family, rank)


@pytest.mark.parametrize("family,rank", POSET_TYPES, ids=[f"{f}{r}" for f, r in POSET_TYPES])
def test_root_pairings_are_the_ambient_form(family, rank):
    # (w_i, a) = sum_k a_k (w_i, e_k) by bilinearity, the form on the ambient unit vectors
    # e_k; the table of (w_i, e_k) in gram units is scaled to integers by m
    rs, amb = build_root_system(family, rank), ambient(family, rank)
    factor = form_factor(rs, amb)
    table = [[x / factor for x in row]
             for row in form_table(amb, amb.fundamental_weights, identity(amb.dim))]
    m = lcm(*(x.denominator for row in table for x in row))
    table = [[int(m * x) for x in row] for row in table]
    for a, row in zip(amb.positive_roots, rs.root_pairings):
        nonzero = [(k, int(x)) for k, x in enumerate(a) if x]  # roots are integer vectors
        assert [m * x for x in row] == [sum(t[k] * x for k, x in nonzero) for t in table], a
    assert rs.weyl_denominator == prod(map(sum, rs.root_pairings))  # (rho, a) = sum_i (w_i, a)
