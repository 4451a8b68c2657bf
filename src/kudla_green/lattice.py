"""Lattice-side machinery: index sets, enumeration, and the Green function.

Normalization (the one place it is fixed).  Index sets are realized as

    L(gamma, m) = { u in Z^5 : qhat(u) = u3^2 - 4 u2 u4 - 4 u1 u5 = 4m },

with 4m in Z; qhat(u) = 0 or 1 mod 4 forces u3 even exactly when gamma = 0
and odd exactly when gamma = 1, so the coset component is determined by the
discriminant.  The geometric vector attached to u is

    x(u) = (u1, u2, u3/2, u4, u5),      q(x(u)) = qhat(u)/4 = m,

and all majorant values R are computed on x(u), from geometry's single psi:
R(x(u), z) = |sum c_i(z) x_i(u)|^2 / (2 eta2).  With this scaling the
stabilizer reduction gives R = 2m sinh^2 t on the positive-index orbit, the
per-orbit integrals collapse onto J_plus(3/2, a)/J_minus(3/2, |a|) with
a = 4 pi m v, and no factors of 2 float around: the Green function is

    Xi(gamma, m, v, z) = sum_{u in L(gamma, m)} beta_1(2 pi v R(x(u), z)).

A lattice vector u is a plain tuple of five ints.  qhat is not restated:
x(u) = D u with D = diag(1, 1, 1/2, 1, 1), so its matrix is 2 D GRAM_Q D.

Enumeration under a majorant bound runs LLL basis reduction followed by one
Fincke-Pohst search for the u inside the ellipsoid with u^T Q u = target,
which solves that integer quadratic for the innermost reduced coordinate
instead of scanning it.  The Green function takes Q = qhat and target 4m, so
only shell points leave the enumeration; `enumerate_bounded` takes the zero
form and target 0, for which every coordinate in range is a root: the plain
ellipsoid.  Both forms are even, so the search walks the half tree and
yields one u of each pair +-u.  Each caller decides a pair by one test,
once: `enumerate_bounded` by `majorant_value <= bound`, the Green function
by R(x(u), z) <= radius, which alone keeps a term and pays its one E1
value.  Negation is exact, so -u passes, fails and evaluates as u does, bit
for bit; `enumerate_bounded` then adds -u and sorts by u, and the Green
function sums its terms in that same order of u, so every sum keeps its
order and its bits, and a brute-force box scan applying the same test (and,
for the Green function, qhat = 4m) reproduces the output exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CaseIndex, divisors, split_discriminant
from .geometry import (GRAM_Q, SiegelPoint, _majorant_R_at, _psi_coeffs,
                       majorant_gram)
from .specfun import exp_e1

__all__ = [
    "GreenEvaluation",
    "SingularPointError",
    "EnumerationCapError",
    "SINGULAR_R_THRESHOLD",
    "orbit_representative",
    "majorant_value",
    "enumerate_bounded",
    "green_function",
    "primitive_decomposition",
]

SINGULAR_R_THRESHOLD = 1e-14
_LLL_DELTA = 0.75  # Lovasz constant of the basis reduction
# most lattice points one enumeration may find, both members of each pair +-u
_POINT_CAP = 2_000_000
# most half-tree nodes one Fincke-Pohst search may visit: 21 s on a 2 vCPU
# host, above the 12.2M that m = 1000 visits at radius 12
_NODE_CAP = 20_000_000


def _x_of(u) -> tuple:
    """The geometric vector x(u) = (u1, u2, u3/2, u4, u5) behind u."""
    u1, u2, u3, u4, u5 = u
    return (u1, u2, 0.5 * u3, u4, u5)


# x(u) = D u with D = diag(x(1, 1, 1, 1, 1)), so the majorant of x(u) is
# (1/2) u^T (D P_z D) u
_HALF_U3 = np.diag(_x_of((1.0,) * 5))

# qhat(u) = u^T _QHAT u = 4 q(x(u)); 2 D GRAM_Q D has integer entries
_QHAT = (2 * _HALF_U3 @ GRAM_Q @ _HALF_U3).astype(np.int64)
_ZERO_FORM = np.zeros((5, 5), dtype=np.int64)
_ORIGIN = (0,) * 5


class SingularPointError(ValueError):
    """The evaluation point lies on (or numerically on) a Heegner divisor."""


class EnumerationCapError(RuntimeError):
    """Enumeration aborted: more lattice points than the point cap, or more
    search-tree nodes than the node cap."""


@dataclass(frozen=True)
class GreenEvaluation:
    """One truncated Green-function value and what it cost.

    nodes_visited counts the nodes of the half tree that Fincke-Pohst
    walks (one member of each pair +-u; the full tree has 2 nodes_visited - 5,
    the all-zero prefix being shared by both halves); min_R is the
    smallest R(x(u), z) among the summed terms, which is the smallest R on
    the whole shell qhat = 4m whenever that is <= radius (inf: no term).
    tail_bound is an estimate of the truncation error, not a bound:
    terms_used * e^{-t}/t (radius^{3/2} e^{-t}/t when no term survives) at
    t = 2 pi v radius, with e^{-t}/t taken as 0 once t >= 700.
    """

    value: float
    terms_used: int
    tail_bound: float
    radius: float
    nodes_visited: int = 0
    min_R: float = math.inf

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")


def orbit_representative(c: CaseIndex) -> tuple[int, ...]:
    """Standard representative of the primitive orbit for (gamma, m).

    gamma = 0:  (1, 0, 0, 0, -m);  gamma = 1 with m = M + 1/4:
    (0, 1, 1, -M, 0).  Both have qhat = 4m and are primitive.
    """
    if c.gamma == 0:
        rep = (1, 0, 0, 0, -int(c.m))
    else:
        M = int(c.m - Fraction(1, 4))
        rep = (0, 1, 1, -M, 0)
    u = np.array(rep, dtype=object)  # exact Python-int products
    assert u @ _QHAT.astype(object) @ u == 4 * c.m and math.gcd(*rep) == 1
    return rep


# ---------------------------------------------------------------------------
# Enumeration: LLL reduction + Fincke-Pohst coordinate bounding
# ---------------------------------------------------------------------------

def majorant_value(P: np.ndarray, u) -> float:
    """Canonical evaluation of (1/2) u^T P u (the accept/reject arbiter)."""
    v = np.asarray(u, dtype=np.float64)
    return 0.5 * float(v @ P @ v)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A; ValueError if A is not positive definite.

    A point far out can pass `majorant_gram`'s check and still lose
    positive definiteness to rounding once the basis is reduced.
    """
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("majorant Gram matrix not positive definite") from None


def _lll_transform(P: np.ndarray) -> np.ndarray:
    """Unimodular T with T^T P T LLL-reduced (P symmetric positive definite).

    The Gram-Schmidt data of the basis T come from the Cholesky factor L of
    T^T P T: mu_ij = L_ij / L_jj and |b*_i|^2 = L_ii^2.  They are recomputed
    after a swap only: a size reduction b_k -= q b_j (j < k) keeps every
    b*_i, so it changes row k of mu alone, by mu_k. -= q mu_j., in place.
    """
    n = P.shape[0]
    T = np.eye(n, dtype=np.int64)

    def gso():
        L = _cholesky(T.T @ P @ T)
        d = np.diag(L)
        return L / d, d * d

    mu, norms = gso()
    k = 1
    for _ in range(2000):
        if k >= n:
            break
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                T[:, k] -= q * T[:, j]
                mu[k, :j + 1] -= q * mu[j, :j + 1]
        if norms[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            T[:, [k - 1, k]] = T[:, [k, k - 1]]
            mu, norms = gso()
            k = max(k - 1, 1)
    return T


def _shell_roots(a: int, b: int, c: int, lo: int, hi: int):
    """The integers w in [lo, hi] with a w^2 + b w + c = 0, ascending.

    Exact integer arithmetic: math.isqrt of the discriminant and a
    divisibility test.  a = 0 is the linear case; a = b = c = 0 makes every
    w in [lo, hi] a root.
    """
    if a == 0:
        if b == 0:
            return range(lo, hi + 1) if c == 0 else ()
        w, r = divmod(-c, b)
        return (w,) if r == 0 and lo <= w <= hi else ()
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return ()
    roots = set()
    for num in (-b - s, -b + s):
        w, r = divmod(num, 2 * a)
        if r == 0 and lo <= w <= hi:
            roots.add(w)
    return sorted(roots)


def _fincke_pohst(P: np.ndarray, limit: float, form: list[list[int]],
                  target: int) -> tuple[list[tuple[int, ...]], int]:
    """One w of each pair +-w of nonzero integer 5-vectors with
    w^T P w <= limit (P positive definite) and w^T Q w = target for the
    integer symmetric `form` Q (nested lists), and the number of search-tree
    nodes visited.

    Recursive coordinate bounding on the Cholesky factor, with a small
    relative slack so boundary points are never pruned by roundoff;
    callers apply their own decisive test.  A node is one prefix
    (w_{i+1}, ..., w_{n-1}) whose range for w_i is computed.  At each node
    w^T Q w = Q_ii w_i^2 + b w_i + qtail over w_i, ..., w_{n-1}, with
    b = 2 sum_{j>i} Q_ij w_j, so the innermost w_0 is not scanned over its
    range but solved for exactly (`_shell_roots`); each root passes the
    same range and slack tests as a scanned w_0.  The zero form with
    target 0 makes every w_0 in range a root: the whole ellipsoid.
    Levels 4 to 1 recurse; each level-0 node is solved inline in the loop
    of its level-1 parent, with the level-0 row unrolled, in the same
    order, with the same sums and the same tests as at any other level
    (`span` counts every node and computes every range).

    The search walks the half tree: while w_{i+1}, ..., w_{n-1} are all
    zero, w_i is restricted to w_i >= 0 (w_0 >= 1), so the yielded w is the
    member of its pair whose last nonzero coordinate is positive.  Under
    w -> -w every quantity these tests read is negated or kept exactly in
    IEEE arithmetic (t, the range ends, b and the roots are negated; s * s,
    rem and qtail are kept), so the full tree is this one and its mirror
    image, and the node count is that of the half tree.  _POINT_CAP bounds
    the points of the full tree, both members of each pair counted, and
    _NODE_CAP the nodes of the half tree.
    """
    n = P.shape[0]
    R = _cholesky(P).T.tolist()
    cap, node_cap = _POINT_CAP, _NODE_CAP
    slack = limit * 1e-9 + 1e-9
    budget = limit + slack
    out: list[tuple[int, ...]] = []
    w = [0] * n
    nodes = 0
    (r00, r01, r02, r03, r04), (q00, q01, q02, q03, q04) = R[0], form[0]

    def span(i: int, t: float, remaining: float,
             zero_above: bool) -> tuple[int, int]:
        # count the node at level i; the range of w_i about the centre -t
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise EnumerationCapError(
                f"more than {node_cap} search-tree nodes in the enumeration")
        rad = math.sqrt(remaining) if remaining > 0.0 else 0.0
        rii = R[i][i]
        lo = math.ceil((-rad - t) / rii - 1e-12)
        hi = math.floor((rad - t) / rii + 1e-12)
        if zero_above:
            lo = max(lo, 1 if i == 0 else 0)
        return lo, hi

    def descend(i: int, remaining: float, qtail: int,
                zero_above: bool) -> None:
        # a node at level i >= 1; qtail = w^T Q w restricted to
        # w_{i+1}, ..., w_{n-1}; zero_above: those w_j are all 0
        t = 0.0
        for j in range(i + 1, n):
            t += R[i][j] * w[j]
        lo, hi = span(i, t, remaining, zero_above)
        rii, row = R[i][i], form[i]
        b = 0
        for j in range(i + 1, n):
            b += row[j] * w[j]
        b *= 2
        _, _, w2, w3, w4 = w  # fixed below a level-1 node (i = 1)
        b0_tail = q02 * w2 + q03 * w3 + q04 * w4
        for wi in range(lo, hi + 1):
            s = rii * wi + t
            rem = remaining - s * s
            if rem < -slack:
                continue
            w[i] = wi
            qnext = qtail + wi * (row[i] * wi + b)
            if i > 1:
                descend(i - 1, rem, qnext, zero_above and wi == 0)
                continue
            # the level-0 node below w_1 = wi, solved in this frame; t0 is
            # the generic sum less its leading 0.0 +, which can flip only the
            # sign of a zero t0, and so moves no range end and no s0 * s0
            t0 = r01 * wi + r02 * w2 + r03 * w3 + r04 * w4
            lo0, hi0 = span(0, t0, rem, zero_above and wi == 0)
            b0 = 2 * (q01 * wi + b0_tail)
            for w0 in _shell_roots(q00, b0, qnext - target, lo0, hi0):
                s0 = r00 * w0 + t0
                if rem - s0 * s0 < -slack:
                    continue
                out.append((w0, wi, w2, w3, w4))
                if 2 * len(out) > cap:
                    raise EnumerationCapError(
                        f"more than {cap} lattice points below the bound")
        w[i] = 0

    descend(n - 1, budget, 0, True)
    return out, nodes


def _enumerate_core(P: np.ndarray, bound: float,
                    form: np.ndarray = _ZERO_FORM,
                    target: int = 0) -> tuple[list[tuple[int, ...]], int]:
    """One u = T w of each pair +-u of nonzero integer vectors that the
    search finds under majorant_value(P, u) <= bound with u^T Q u = target
    for the integer `form` Q (in u coordinates; the default zero form keeps
    the whole ellipsoid), and the Fincke-Pohst node count.  The search keeps
    a roundoff slack, so callers apply their own test to each u.
    """
    T = _lll_transform(P)
    P_red = T.T @ P @ T
    P_red = 0.5 * (P_red + P_red.T)
    T_obj = T.astype(object)  # exact Python-int products
    form_red = (T_obj.T @ form.astype(object) @ T_obj).tolist()
    points, nodes = _fincke_pohst(P_red, 2.0 * bound, form_red, target)
    U = np.array(points, dtype=np.int64).reshape(-1, len(T)) @ T.T  # exact
    return [tuple(u) for u in U.tolist()], nodes


def _neg(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-x for x in u])


def enumerate_bounded(z: SiegelPoint, bound: float) -> list[tuple[int, ...]]:
    """Nonzero integer vectors u with (1/2) u^T P_z u <= bound.

    P_z is the majorant Gram matrix at z, so the quantity bounded is
    q(u) + R(u, z).  Output is sorted lexicographically and deterministic;
    the boundary test is `majorant_value(P_z, u) <= bound` exactly as a
    brute-force scan would apply it.  bound <= 0 gives []; NaN or inf
    raises ValueError.
    """
    if bound <= 0:
        return []
    if not math.isfinite(bound):
        raise ValueError("bound must be finite")
    P = majorant_gram(z)
    pairs, _ = _enumerate_core(P, bound)
    found = [w for u in pairs if majorant_value(P, u) <= bound
             for w in (u, _neg(u))]
    return sorted(found)


# ---------------------------------------------------------------------------
# The Green function
# ---------------------------------------------------------------------------

def green_function(c: CaseIndex, v: float, z: SiegelPoint,
                   radius: float) -> GreenEvaluation:
    """Truncated Green function  sum_u beta_1(2 pi v R(x(u), z))  at z.

    The sum runs over u with qhat(u) = 4m and R(x(u), z) <= radius.  The
    enumeration walks the majorant ellipsoid q(x(u)) + R = m + R <= m + radius
    and solves qhat(u) = 4m for the innermost reduced coordinate, so it
    yields the shell points only, one u of each pair +-u; _POINT_CAP bounds
    their number, both members counted, and _NODE_CAP the search-tree
    nodes (EnumerationCapError beyond either).
    Each pair pays one R at x(u): R <= radius alone keeps it, with one E1
    value for u and -u.  Terms are added in lexicographic order of u
    (deterministic); nodes_visited counts the half tree.  A shell point
    with R below SINGULAR_R_THRESHOLD means z lies on the divisor Z(u):
    SingularPointError, naming the lexicographically first such u.
    tail_bound is an estimate of the truncation error, not a bound:
    terms_used * e^{-t}/t (radius^{3/2} e^{-t}/t when no term survives) at
    t = 2 pi v radius, with e^{-t}/t taken as 0 once t >= 700; it is
    reported, never added, and overflows to inf for tiny t and many terms.
    v and radius must be positive and finite, and v and t at least the
    smallest normal float, so that 2 pi v R stays positive for R >= 1e-14
    and e^{-t}/t finite (ValueError).
    """
    if not (v > 0 and math.isfinite(v)):
        raise ValueError("v must be positive and finite")
    if v < sys.float_info.min:
        raise ValueError(f"v must be at least {sys.float_info.min!r}, "
                         "the smallest normal float")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    t_cut = 2.0 * math.pi * v * radius
    if t_cut < sys.float_info.min:
        raise ValueError("2 pi v radius must be at least "
                         f"{sys.float_info.min!r}, the smallest normal float")
    fourm = int(4 * c.m)
    P = majorant_gram(z)
    psi_c, two_eta2 = _psi_coeffs(z), 2.0 * z.eta2
    P_half = _HALF_U3 @ P @ _HALF_U3
    P_half = 0.5 * (P_half + P_half.T)
    bound = float(c.m) + radius
    beta1_cut = math.exp(-t_cut) / t_cut if t_cut < 700 else 0.0
    if bound <= 0:
        return GreenEvaluation(value=0.0, terms_used=0,
                               tail_bound=radius ** 1.5 * beta1_cut,
                               radius=radius)
    pairs, nodes = _enumerate_core(P_half, bound, _QHAT, fourm)
    kept, singular = [], []
    for u in pairs:  # one u of each pair +-u: R(-u) is R(u) bit for bit
        assert u[2] % 2 == c.gamma
        r_val = _majorant_R_at(psi_c, two_eta2, _x_of(u))
        if r_val < SINGULAR_R_THRESHOLD:
            singular.append((min(u, _neg(u)), r_val))
        elif r_val <= radius:
            kept.append((u if u > _ORIGIN else _neg(u), r_val))
    if singular:
        u, r_val = min(singular)
        raise SingularPointError(
            f"z lies on the divisor of u = {u} (R = {r_val:.3e})")
    # every lexicographically negative u precedes every positive one, so in
    # lexicographic order of u the terms run over -u for the positive u
    # descending, then over the positive u ascending
    kept.sort()
    e1s = [exp_e1(2.0 * math.pi * v * r_val) for _, r_val in kept]
    value = 0.0
    for e1 in reversed(e1s):
        value += e1
    for e1 in e1s:
        value += e1
    n_terms = 2 * len(kept)
    density = n_terms / radius ** 1.5 if n_terms else 1.0
    tail_bound = density * radius ** 1.5 * beta1_cut
    return GreenEvaluation(value=value, terms_used=n_terms,
                           tail_bound=tail_bound, radius=radius,
                           nodes_visited=nodes,
                           min_R=min((r for _, r in kept), default=math.inf))


def primitive_decomposition(c: CaseIndex) -> list[tuple[int, CaseIndex]]:
    """Split L(gamma, m) into rescaled primitive layers n * L*(m / n^2).

    A vector with content n exists exactly when n divides f (then
    4m / n^2 = D0 (f/n)^2 is again a discriminant); the coset component of
    the layer follows the parity of that discriminant, so even n flips a
    gamma = 0 index into the gamma = 1 class.  n = 1 is always present.
    """
    out = []
    for n in divisors(c.f):
        disc = c.discriminant // (n * n)
        gamma_n = 0 if disc % 4 == 0 else 1
        out.append((n, split_discriminant(gamma_n, Fraction(disc, 4))))
    return out
