"""Independent correctness checks for the benchmark's answers.

Every check takes plain data (tuples, ints, Fractions, parsed CLI output)
and returns ``None`` when the answer is right or a one-line message when
it is wrong.  The algebra here is a separate implementation from the
package's: root systems are built from integer Cartan data in simple-root
coordinates, with no ambient model, so a bug in the package's roots or
weights cannot make a wrong answer pass.

Labelling follows Bourbaki, as the package does: B_n and C_n have the
odd root last, D_n forks at the last two nodes, and G2 has the short
simple root first.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb

# algebra and holonomy representation of each holonomy context
CONTEXTS = {
    "g2": (("G", 2), (1, 0)),
    "spin7": (("B", 3), (0, 0, 1)),
    "so5": (("B", 2), (1, 0)),
    "so6": (("D", 3), (1, 0, 0)),
    "so7": (("B", 3), (1, 0, 0)),
    "so8": (("D", 4), (1, 0, 0, 0)),
    "so9": (("B", 4), (1, 0, 0, 0)),
    "so10": (("D", 5), (1, 0, 0, 0, 0)),
}

SELFTEST_GROUPS = (
    "casimir_tables",
    "dimensions",
    "form_spaces",
    "tensor_products",
    "theorems",
    "weitzenboeck",
)


@lru_cache(maxsize=None)
def gram(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix (alpha_i, alpha_j) of the simple roots, integer scaled."""
    b = [[0] * rank for _ in range(rank)]
    if family == "G":
        return ((2, -3), (-3, 6))
    for i in range(rank):
        b[i][i] = 2
    for i in range(rank - 1):
        b[i][i + 1] = b[i + 1][i] = -1
    if family == "B":
        b[-1][-1] = 1
    elif family == "C":
        b[-1][-1] = 4
        b[-2][-1] = b[-1][-2] = -2
    elif family == "D":
        b[-2][-1] = b[-1][-2] = 0
        b[-3][-1] = b[-1][-3] = -1
    return tuple(tuple(row) for row in b)


def _coroot_pairing(b, k: tuple[int, ...], j: int) -> Fraction:
    """<beta, alpha_j^vee> for beta = sum k_i alpha_i."""
    return Fraction(2 * sum(k[i] * b[i][j] for i in range(len(k))), b[j][j])


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots in simple-root coordinates, by the root-string rule."""
    b = gram(family, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = set(simple)
    layer = simple
    while layer:
        nxt = []
        for beta in layer:
            for j in range(rank):
                p = 0
                while True:
                    down = tuple(c - (p + 1) * (i == j) for i, c in enumerate(beta))
                    if down not in found:
                        break
                    p += 1
                if p - _coroot_pairing(b, beta, j) > 0:
                    up = tuple(c + (i == j) for i, c in enumerate(beta))
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        layer = nxt
    return tuple(sorted(found))


def weyl_dim(family: str, rank: int, hw: tuple[int, ...]) -> int:
    """Weyl dimension formula over the Cartan-data positive roots."""
    b = gram(family, rank)
    num = den = 1
    for k in positive_roots(family, rank):
        num *= sum(k[j] * (hw[j] + 1) * b[j][j] for j in range(rank))
        den *= sum(k[j] * b[j][j] for j in range(rank))
    value = Fraction(num, den)
    if value.denominator != 1:
        raise ValueError(f"non-integral Weyl dimension for {family}{rank} {hw}")
    return int(value)


def orbit_size(family: str, rank: int, mu: tuple[int, ...]) -> int:
    """Size of the Weyl orbit of ``mu`` (fundamental coordinates)."""
    b = gram(family, rank)
    cartan = [[_coroot_pairing(b, tuple(int(i == r) for i in range(rank)), j)
               for j in range(rank)] for r in range(rank)]
    seen = {tuple(mu)}
    frontier = [tuple(mu)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rank):
                if v[i] == 0:
                    continue
                w = tuple(int(v[j] - v[i] * cartan[i][j]) for j in range(rank))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def _invert(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _fundamental_gram(family: str, rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """(omega_i, omega_j) = (|a_i|^2/2) (B^-1)_ij (|a_j|^2/2)."""
    b = gram(family, rank)
    inv = _invert([[Fraction(x) for x in row] for row in b])
    return tuple(
        tuple(Fraction(b[i][i], 2) * inv[i][j] * Fraction(b[j][j], 2) for j in range(rank))
        for i in range(rank)
    )


def _casimir_form(family: str, rank: int, hw: tuple[int, ...]) -> Fraction:
    """(lambda, lambda + 2 rho) under the Cartan-data form."""
    g = _fundamental_gram(family, rank)
    return sum(
        (hw[i] * (hw[j] + 2) * g[i][j] for i in range(rank) for j in range(rank)),
        Fraction(0),
    )


def casimir_lambda2(ctx_id: str, hw: tuple[int, ...]) -> Fraction:
    """Casimir eigenvalue normalised by c_T = -2 dim(g) / dim(T)."""
    (family, rank), t = CONTEXTS[ctx_id]
    dim_g = 2 * len(positive_roots(family, rank)) + rank
    c_t = Fraction(-2 * dim_g, weyl_dim(family, rank, t))
    return c_t * _casimir_form(family, rank, hw) / _casimir_form(family, rank, t)


# --- checks on answers -------------------------------------------------------


def check_dimension(algebra, hw, got: int):
    want = weyl_dim(*algebra, hw)
    if got != want:
        return f"dim {algebra} {hw}: got {got}, Cartan-data Weyl formula gives {want}"
    return None


def check_casimir(ctx_id: str, hw, got: Fraction):
    want = casimir_lambda2(ctx_id, hw)
    if got != want:
        return f"casimir {ctx_id} {hw}: got {got}, independent form gives {want}"
    return None


def check_tensor(algebra, a, b, summands):
    """Total dimension of a (x) b equals dim a * dim b."""
    total = sum(m * weyl_dim(*algebra, hw) for hw, m in summands)
    want = weyl_dim(*algebra, a) * weyl_dim(*algebra, b)
    if total != want:
        return f"tensor {algebra} {a}x{b}: total dimension {total}, expected {want}"
    return None


def check_exterior(algebra, t, p: int, summands):
    """Total dimension of Lambda^p equals C(n, p)."""
    total = sum(m * weyl_dim(*algebra, hw) for hw, m in summands)
    want = comb(weyl_dim(*algebra, t), p)
    if total != want:
        return f"exterior {algebra} {t} p={p}: total dimension {total}, expected C(n,p)={want}"
    return None


def check_weight_system(algebra, hw, dominant):
    """Dominant multiplicities times Weyl-orbit sizes sum to the Weyl dimension."""
    total = sum(m * orbit_size(*algebra, mu) for mu, m in dominant)
    want = weyl_dim(*algebra, hw)
    if total != want:
        return f"weight system {algebra} {hw}: multiplicities cover {total}, expected {want}"
    return None


def check_weitzenboeck(ctx_id: str, bundle, summands):
    """T (x) E is multiplicity free with sum dim(E_i) b_i = 0.

    ``summands`` holds (highest weight, b) pairs, one per summand.
    """
    algebra, t = CONTEXTS[ctx_id]
    dims = [weyl_dim(*algebra, hw) for hw, _ in summands]
    want = weyl_dim(*algebra, t) * weyl_dim(*algebra, bundle)
    if sum(dims) != want:
        return f"weitzenboeck {ctx_id} {bundle}: summands cover {sum(dims)}, expected {want}"
    residual = sum((d * b for d, (_, b) in zip(dims, summands)), Fraction(0))
    if residual != 0:
        return f"weitzenboeck {ctx_id} {bundle}: trace residual {residual}, expected 0"
    return None


def check_verdict(expected_parallel, form_class: str, p: int, verdict: str):
    want = "Parallel" if (form_class, p) in expected_parallel else "Inconclusive"
    if verdict != want:
        return f"prove {form_class} p={p}: verdict {verdict}, theorem says {want}"
    return None


def check_selftest(returncode: int, stdout: str):
    lines = stdout.split()
    ok = {g for tag, g in zip(lines[::2], lines[1::2]) if tag == "ok"}
    if returncode != 0 or ok != set(SELFTEST_GROUPS) or len(lines) != 2 * len(SELFTEST_GROUPS):
        return f"selftest exit {returncode}, groups ok: {sorted(ok)}"
    return None


def check_theorem(returncode: int, stdout: str, ctx_id: str):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"theorem {ctx_id}: output is not JSON ({exc})"
    if returncode != 0 or report.get("context") != ctx_id or report.get("matches_expected") is not True:
        return f"theorem {ctx_id}: exit {returncode}, matches_expected {report.get('matches_expected')}"
    return None
