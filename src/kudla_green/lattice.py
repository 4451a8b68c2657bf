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

Enumeration under a majorant bound runs LLL basis reduction followed by one
Fincke-Pohst search for the u inside the ellipsoid with u^T Q u = target,
which solves that integer quadratic for the innermost reduced coordinate
instead of scanning it.  The Green function takes Q = qhat and target 4m, so
only shell points leave the enumeration; `enumerate_bounded` takes the zero
form and target 0, for which every coordinate in range is a root: the plain
ellipsoid.  Every point the enumeration yields is accepted or rejected by
re-evaluating the canonical quadratic form `majorant_value`, so a
brute-force box scan using the same function (and, for the Green function,
the same qhat = 4m test) reproduces the output exactly.

Both forms are even, so u and -u are found, filtered and (in the Green
function) evaluated alike, and the pair is paid for once: the search walks
the half tree, each accepted u brings -u along, and the sorted list is the
full one, so every sum keeps its order and its bits.  The Green function
takes one E1 value per distinct R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CaseIndex, divisors, split_discriminant
from .geometry import SiegelPoint, _majorant_R_at, _psi_coeffs, majorant_gram
from .specfun import exp_e1

__all__ = [
    "LatticeVector",
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


def _x_of(u) -> tuple:
    """The geometric vector x(u) = (u1, u2, u3/2, u4, u5) behind u."""
    u1, u2, u3, u4, u5 = u
    return (u1, u2, 0.5 * u3, u4, u5)


# x(u) = D u with D = diag(x(1, 1, 1, 1, 1)), so the majorant of x(u) is
# (1/2) u^T (D P_z D) u
_HALF_U3 = np.diag(_x_of((1.0,) * 5))

# qhat(u) = u^T _QHAT u = u3^2 - 4 u2 u4 - 4 u1 u5
_QHAT = np.array([[0, 0, 0, 0, -2],
                  [0, 0, 0, -2, 0],
                  [0, 0, 1, 0, 0],
                  [0, -2, 0, 0, 0],
                  [-2, 0, 0, 0, 0]])
_ZERO_FORM = np.zeros((5, 5), dtype=np.int64)


class SingularPointError(ValueError):
    """The evaluation point lies on (or numerically on) a Heegner divisor."""


class EnumerationCapError(RuntimeError):
    """Enumeration aborted: point count exceeded the configured cap."""


@dataclass(frozen=True)
class LatticeVector:
    """Integer 5-vector u; qhat and primitivity are derived, never stored."""

    u1: int
    u2: int
    u3: int
    u4: int
    u5: int

    @property
    def coords(self) -> tuple[int, int, int, int, int]:
        return (self.u1, self.u2, self.u3, self.u4, self.u5)

    @property
    def qhat(self) -> int:
        return self.u3 * self.u3 - 4 * self.u2 * self.u4 - 4 * self.u1 * self.u5

    @property
    def primitive(self) -> bool:
        return math.gcd(*self.coords) == 1

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.u1, -self.u2, -self.u3, -self.u4, -self.u5)


@dataclass(frozen=True)
class GreenEvaluation:
    """One truncated Green-function value and what it cost.

    nodes_visited counts the nodes of the half tree that Fincke-Pohst
    walks (one member of each pair +-u; the full tree has 2 nodes_visited - 5,
    the all-zero prefix being shared by both halves); min_R is the
    smallest R(x(u), z) among the summed terms, which is the smallest R on
    the whole shell qhat = 4m whenever that is <= radius (inf: no term).
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


def orbit_representative(c: CaseIndex) -> LatticeVector:
    """Standard representative of the primitive orbit for (gamma, m).

    gamma = 0:  (1, 0, 0, 0, -m);  gamma = 1 with m = M + 1/4:
    (0, 1, 1, -M, 0).  Both have qhat = 4m and are primitive.
    """
    if c.gamma == 0:
        rep = LatticeVector(1, 0, 0, 0, -int(c.m))
    else:
        M = int(c.m - Fraction(1, 4))
        rep = LatticeVector(0, 1, 1, -M, 0)
    assert rep.qhat == 4 * c.m and rep.primitive
    return rep


# ---------------------------------------------------------------------------
# Enumeration: LLL reduction + Fincke-Pohst coordinate bounding
# ---------------------------------------------------------------------------

def majorant_value(P: np.ndarray, u) -> float:
    """Canonical evaluation of (1/2) u^T P u (the accept/reject arbiter)."""
    v = np.asarray(u, dtype=np.float64)
    return 0.5 * float(v @ P @ v)


def _lll_transform(P: np.ndarray) -> np.ndarray:
    """Unimodular T with T^T P T LLL-reduced (P symmetric positive definite).

    The Gram-Schmidt data of the basis T come from the Cholesky factor L of
    T^T P T: mu_ij = L_ij / L_jj and |b*_i|^2 = L_ii^2.
    """
    n = P.shape[0]
    T = np.eye(n, dtype=np.int64)

    def gso():
        L = np.linalg.cholesky(T.T @ P @ T)
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
                mu, norms = gso()
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


def _fincke_pohst(P: np.ndarray, limit: float, cap: int,
                  form: list[list[int]],
                  target: int) -> tuple[list[tuple[int, ...]], int]:
    """One w of each pair +-w of nonzero integer vectors with
    w^T P w <= limit (P positive definite) and w^T Q w = target for the
    integer symmetric `form` Q (nested lists), and the number of search-tree
    nodes visited.

    Recursive coordinate bounding on the Cholesky factor, with a small
    relative slack so boundary points are never pruned by roundoff;
    callers re-filter with the canonical form.  A node is one prefix
    (w_{i+1}, ..., w_{n-1}) whose range for w_i is computed.  At each node
    w^T Q w = Q_ii w_i^2 + b w_i + qtail over w_i, ..., w_{n-1}, with
    b = 2 sum_{j>i} Q_ij w_j, so the innermost w_0 is not scanned over its
    range but solved for exactly (`_shell_roots`); each root passes the
    same range and slack tests as a scanned w_0.  The zero form with
    target 0 makes every w_0 in range a root: the whole ellipsoid.

    The search walks the half tree: while w_{i+1}, ..., w_{n-1} are all
    zero, w_i is restricted to w_i >= 0 (w_0 >= 1), so the yielded w is the
    member of its pair whose last nonzero coordinate is positive.  Under
    w -> -w every quantity these tests read is negated or kept exactly in
    IEEE arithmetic (t, the range ends, b and the roots are negated; s * s,
    rem and qtail are kept), so the full tree is this one and its mirror
    image, and the node count is that of the half tree.  `cap` bounds the
    points of the full tree, both members of each pair counted.
    """
    n = P.shape[0]
    R = np.linalg.cholesky(P).T.tolist()
    slack = limit * 1e-9 + 1e-9
    budget = limit + slack
    out: list[tuple[int, ...]] = []
    w = [0] * n
    nodes = 0

    def descend(i: int, remaining: float, qtail: int,
                zero_above: bool) -> None:
        # qtail = w^T Q w restricted to w_{i+1}, ..., w_{n-1};
        # zero_above: those w_j are all 0
        nonlocal nodes
        nodes += 1
        t = 0.0
        for j in range(i + 1, n):
            t += R[i][j] * w[j]
        rad = math.sqrt(max(remaining, 0.0))
        rii = R[i][i]
        lo = math.ceil((-rad - t) / rii - 1e-12)
        hi = math.floor((rad - t) / rii + 1e-12)
        if zero_above:
            lo = max(lo, 1 if i == 0 else 0)
        row = form[i]
        b = 0
        for j in range(i + 1, n):
            b += row[j] * w[j]
        b *= 2
        wis = (_shell_roots(row[0], b, qtail - target, lo, hi) if i == 0
               else range(lo, hi + 1))
        for wi in wis:
            s = rii * wi + t
            rem = remaining - s * s
            if rem < -slack:
                continue
            w[i] = wi
            if i > 0:
                descend(i - 1, rem, qtail + wi * (row[i] * wi + b),
                        zero_above and wi == 0)
            else:
                out.append(tuple(w))
                if 2 * len(out) > cap:
                    raise EnumerationCapError(
                        f"more than {cap} lattice points below the bound")
        w[i] = 0

    descend(n - 1, budget, 0, True)
    return out, nodes


def _enumerate_core(P: np.ndarray, bound: float, slack: float, cap: int,
                    form: np.ndarray = _ZERO_FORM,
                    target: int = 0) -> tuple[list[tuple[int, ...]], int]:
    """Nonzero u with majorant_value(P, u) <= bound and u^T Q u = target
    for the integer `form` Q (in u coordinates), sorted lexicographically,
    and the Fincke-Pohst node count.

    The enumeration runs on the reduced form T^T Q T and solves for its
    innermost coordinate; the default zero form keeps the whole ellipsoid.
    It yields one member w of each pair +-w, and u = T w passes or fails
    the canonical test together with -u: negation is exact, so
    majorant_value(P, -u) is majorant_value(P, u) bit for bit.  Both are
    kept, then sorted.
    """
    T = _lll_transform(P)
    P_red = T.T @ P @ T
    P_red = 0.5 * (P_red + P_red.T)
    T_obj = T.astype(object)  # exact Python-int products
    form_red = (T_obj.T @ form.astype(object) @ T_obj).tolist()
    points, nodes = _fincke_pohst(P_red, 2.0 * bound, cap, form_red, target)
    found = []
    if points:
        U = np.array(points, dtype=np.int64) @ T.T  # row k is T w_k, exact
        for u, coords in zip(U, U.tolist()):
            if majorant_value(P, u) <= bound + slack:
                found.append(tuple(coords))
                found.append(tuple([-x for x in coords]))
    found.sort()
    return found, nodes


def enumerate_bounded(z: SiegelPoint, bound: float,
                      cap: int = 2_000_000) -> list[LatticeVector]:
    """Nonzero integer vectors u with (1/2) u^T P_z u <= bound.

    P_z is the majorant Gram matrix at z, so the quantity bounded is
    q(u) + R(u, z).  Output is sorted lexicographically and deterministic;
    the boundary test is `majorant_value(P_z, u) <= bound` exactly as a
    brute-force scan would apply it.
    """
    if bound <= 0:
        return []
    P = majorant_gram(z)
    points, _ = _enumerate_core(P, bound, 0.0, cap)
    return [LatticeVector(*u) for u in points]


# ---------------------------------------------------------------------------
# The Green function
# ---------------------------------------------------------------------------

def green_function(c: CaseIndex, v: float, z: SiegelPoint, radius: float,
                   cap: int = 2_000_000) -> GreenEvaluation:
    """Truncated Green function  sum_u beta_1(2 pi v R(x(u), z))  at z.

    The sum runs over u with qhat(u) = 4m and R(x(u), z) <= radius.  The
    enumeration walks the majorant ellipsoid q(x(u)) + R = m + R <= m + radius
    and solves qhat(u) = 4m for the innermost reduced coordinate, so it
    yields the shell points only; `cap` bounds their number
    (EnumerationCapError beyond it).  Each shell point then passes the
    canonical majorant_value test with a fixed roundoff slack of 1e-10,
    and R is taken at x(u); R <= radius alone decides each term.  Terms are
    added in lexicographic order of u (deterministic); u and -u have the same R
    bit for bit, so E1 is evaluated once per distinct R.  nodes_visited
    counts the half tree (one member of each pair +-u).  A term with R below
    SINGULAR_R_THRESHOLD means z lies on the divisor Z(u):
    SingularPointError.  tail_bound reports the crude shell estimate
    c(z) * radius^{3/2} * e^{-t}/t at t = 2 pi v radius, with c(z)
    calibrated from the enumerated count; it is reported, never added.
    v and radius must be positive and finite (ValueError).
    """
    if not (v > 0 and math.isfinite(v)):
        raise ValueError("v must be positive and finite")
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError("radius must be positive and finite")
    fourm = int(4 * c.m)
    P = majorant_gram(z)
    psi_c, two_eta2 = _psi_coeffs(z), 2.0 * z.eta2
    P_half = _HALF_U3 @ P @ _HALF_U3
    P_half = 0.5 * (P_half + P_half.T)
    bound = float(c.m) + radius
    t_cut = 2.0 * math.pi * v * radius
    beta1_cut = math.exp(-t_cut) / t_cut if t_cut < 700 else 0.0
    if bound <= 0:
        return GreenEvaluation(value=0.0, terms_used=0,
                               tail_bound=radius ** 1.5 * beta1_cut,
                               radius=radius)
    shell, nodes = _enumerate_core(P_half, bound, 1e-10, cap,
                                   _QHAT, fourm)
    r_terms = []
    for u in shell:  # sorted by u
        assert u[2] % 2 == c.gamma
        r_val = _majorant_R_at(psi_c, two_eta2, _x_of(u))
        if r_val < SINGULAR_R_THRESHOLD:
            raise SingularPointError(
                f"z lies on the divisor of u = {u} (R = {r_val:.3e})")
        if r_val <= radius:
            r_terms.append(r_val)
    value = 0.0
    e1_at = {}  # u and -u share R bit for bit: one exp_e1 per distinct R
    for r_val in r_terms:
        e1 = e1_at.get(r_val)
        if e1 is None:
            e1 = e1_at[r_val] = exp_e1(2.0 * math.pi * v * r_val)
        value += e1
    density = len(r_terms) / radius ** 1.5 if r_terms else 1.0
    tail_bound = density * radius ** 1.5 * beta1_cut
    return GreenEvaluation(value=value, terms_used=len(r_terms),
                           tail_bound=tail_bound, radius=radius,
                           nodes_visited=nodes,
                           min_R=min(r_terms, default=math.inf))


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
