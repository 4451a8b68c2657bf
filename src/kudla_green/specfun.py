"""Certified special-function evaluation.

The integrals handled here, J_pm at the order 3/2 of Theorem 2, are

    J_plus(a)   = int_0^oo  e^{-a w} ((w+1)^{3/2} - 1) dw / w
    J_minus(a)  = int_0^oo  e^{-a w} w^{3/2} dw / (w+1)
    I3_plus(a)  = int_0^oo int_1^oo e^{-a sinh^2(t) r} sinh t cosh^2 t dr/r dt
    I3_minus(a) = int_0^oo int_1^oo e^{-a cosh^2(t) r} sinh^2 t cosh t dr/r dt

all evaluated by a deterministic adaptive Gauss-Kronrod scheme on a finite
window plus an analytic bound for the exponential tail.  The tail bound is
added to the reported error estimate, so `QuadratureResult.err_estimate`
dominates both discretization and truncation error.

The double integrals are reduced to single integrals through the closed
form int_1^oo e^{-c r} dr / r = E1(c) = beta_1(c); the inner E1 values use
the fast series / continued-fraction evaluator `exp_e1`, which is itself
cross-checked against the quadrature route to beta_1 and the classical
power series, both kept in the tests.

The truncation policy has one home, `_truncated`.  Each integral gives it a
start window T0 at c = _START_EFOLDS (46) e-folding lengths of its decay
(c/a for J_pm, asinh(sqrt(c/a)) for I3_pm), a growth factor (x2, or x1.5
for I3_pm) and its analytic tail bound; the window grows until that bound
is at most half the tolerance, so the constant only sets where the search
starts.

Every integral here runs under one numerical contract: the absolute
tolerance ABS_TOL = 1e-10 on the returned value (tail bound included) and a
budget of 4,000 panel splits per integral; past the budget
`adaptive_quadrature` raises ToleranceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ABS_TOL",
    "QuadratureResult",
    "ToleranceError",
    "EULER_GAMMA",
    "adaptive_quadrature",
    "exp_e1",
    "J_plus",
    "J_minus",
    "I3_plus",
    "I3_minus",
]

EULER_GAMMA = 0.57721566490153286061

FOUR_PI = 4.0 * math.pi

# absolute tolerance on every returned integral, tail bound included
ABS_TOL = 1e-10
# panel-split budget of one `adaptive_quadrature` call
_MAX_SUBDIVISIONS = 4000

# start window edge of `_truncated`, in e-folding lengths of the decay
_START_EFOLDS = 46.0
# term cap of the E1 power series; below x = 1.5 the loop stops by k = 22
_E1_SERIES_TERMS = 120


class ToleranceError(RuntimeError):
    """Requested tolerance not reached within the subdivision budget."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int

    def __post_init__(self):
        if not self.err_estimate >= 0:
            raise ValueError("err_estimate must be nonnegative")


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule (QUADPACK abscissas)
# ---------------------------------------------------------------------------

_GK_NODES = (
    0.0,
    0.2077849550078984676007, -0.2077849550078984676007,
    0.4058451513773971669066, -0.4058451513773971669066,
    0.5860872354676911302941, -0.5860872354676911302941,
    0.7415311855993944398639, -0.7415311855993944398639,
    0.8648644233597690727897, -0.8648644233597690727897,
    0.9491079123427585245262, -0.9491079123427585245262,
    0.9914553711208126392069, -0.9914553711208126392069,
)

_GK_WEIGHTS_K = (
    0.2094821410847278280130,
    0.2044329400752988924142, 0.2044329400752988924142,
    0.1903505780647854099133, 0.1903505780647854099133,
    0.1690047266392679028266, 0.1690047266392679028266,
    0.1406532597155259187452, 0.1406532597155259187452,
    0.1047900103222501838399, 0.1047900103222501838399,
    0.0630920926299785532907, 0.0630920926299785532907,
    0.0229353220105292249637, 0.0229353220105292249637,
)

_GK_WEIGHTS_G = (
    0.4179591836734693877551,
    0.0, 0.0,
    0.3818300505051189449504, 0.3818300505051189449504,
    0.0, 0.0,
    0.2797053914892766679015, 0.2797053914892766679015,
    0.0, 0.0,
    0.1294849661688696932706, 0.1294849661688696932706,
    0.0, 0.0,
)


def _panel(f, a: float, b: float) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 estimate of int_a^b f, with |K15-G7| as error."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc_k = 0.0
    acc_g = 0.0
    for x, wk, wg in zip(_GK_NODES, _GK_WEIGHTS_K, _GK_WEIGHTS_G):
        fx = f(mid + half * x)
        acc_k += wk * fx
        acc_g += wg * fx
    return half * acc_k, abs(half * (acc_k - acc_g))


def adaptive_quadrature(f, a: float, b: float, tail_bound: float = 0.0,
                        seeds: list[float] | None = None) -> QuadratureResult:
    """Deterministic adaptive Gauss-Kronrod integration of f on [a, b].

    The panel with the largest error estimate is bisected (ties broken by
    the smaller left endpoint) until the total estimate plus `tail_bound`
    is at or below ABS_TOL, or the subdivision budget runs out.
    The final value is accumulated in left-to-right panel order, so a
    given (f, a, b, tail_bound, seeds) always reproduces bit-identical output.
    """
    if not b > a:
        raise ValueError("need b > a")
    cuts = [a, b] if not seeds else sorted({a, b, *(s for s in seeds if a < s < b)})
    panels = []
    evals = 0
    for lo, hi in zip(cuts, cuts[1:]):
        val, err = _panel(f, lo, hi)
        panels.append((lo, hi, val, err))
        evals += 15
    splits = 0
    total_err = sum(p[3] for p in panels)
    while total_err + tail_bound > ABS_TOL:
        if splits >= _MAX_SUBDIVISIONS:
            raise ToleranceError(
                f"tolerance {ABS_TOL} not reached: error estimate "
                f"{total_err + tail_bound:.3e} after {splits} subdivisions")
        worst = max(range(len(panels)),
                    key=lambda i: (panels[i][3], -panels[i][0]))
        lo, hi, _, old_err = panels[worst]
        mid = 0.5 * (lo + hi)
        left = (lo, mid, *_panel(f, lo, mid))
        right = (mid, hi, *_panel(f, mid, hi))
        panels[worst] = left
        panels.append(right)
        total_err += left[3] + right[3] - old_err
        evals += 30
        splits += 1
        if splits % 64 == 0:
            total_err = sum(p[3] for p in panels)  # shed accumulated roundoff
    panels.sort(key=lambda p: p[0])
    value = 0.0
    err = tail_bound
    for p in panels:
        value += p[2]
        err += p[3]
    return QuadratureResult(value=value, err_estimate=err, evaluations=evals)


# ---------------------------------------------------------------------------
# Fast exponential integral E1 (series + continued fraction)
# ---------------------------------------------------------------------------

def _e1_power_series(x: float) -> float:
    """E1(x) = -gamma - ln x + sum (-1)^{k+1} x^k / (k k!), unchecked;
    `exp_e1`'s branch below x = 1.5 (cancellation: ~9e-12 off at x = 16)."""
    total = 0.0
    term = 1.0
    for k in range(1, _E1_SERIES_TERMS + 1):
        term *= -x / k
        delta = -term / k
        total += delta
        # |delta| < 1e-18 max(1, |total|), without the abs/max calls
        if total > 1.0:
            lim = 1e-18 * total
        elif total < -1.0:
            lim = -1e-18 * total
        else:
            lim = 1e-18
        if -lim < delta < lim:
            break
    return -EULER_GAMMA - math.log(x) + total


# a_k = -k^2 of the E1 continued fraction, k = 1..299
_CF_AN = tuple(-float(k) * float(k) for k in range(1, 300))
# Lentz's C_0 = 1 / tiny
_CF_C0 = 1.0 / 1e-300


def _e1_cf(x: float) -> float:
    """E1(x) by a continued fraction (modified Lentz); best for x >= ~1.5.

    E1(x) = e^{-x} / (b_0 + a_1 / (b_1 + a_2 / (b_2 + ...))) with
    b_k = x + 2k + 1 and a_k = -k^2.  Lentz's tiny-denominator guards are
    not needed for x > 0.  By induction on k: 1/D_0 = b_0 = x + 1 and
    C_0 = 1e300 are at least x + 1; if 1/D_{k-1} and C_{k-1} are at least
    x + k, then 1/D_k = b_k + a_k D_{k-1} and C_k = b_k + a_k / C_{k-1} are
    at least x + 2k + 1 - k^2 / (x + k) = x + k + 1 + k x / (x + k), so no
    denominator comes near zero.  The margin k x / (x + k) is at least 0.6
    for x >= 1.5, far above roundoff.
    """
    b = x + 1.0
    c = _CF_C0
    d = 1.0 / b
    h = d
    for an in _CF_AN:
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if -1e-16 < delta - 1.0 < 1e-16:
            return h * math.exp(-x)
    raise ToleranceError(f"E1 continued fraction did not converge at x={x}")


def exp_e1(x: float) -> float:
    """Fast E1(x) = beta_1(x), series below x = 1.5 and continued fraction
    above; within 128 ulp below x = 4, 32 on [4, 16) and 16 on [16, 60] of
    a 100-digit reference (measured: 80 ulp near x = 1.5, 24 and 11)."""
    if not x > 0:
        raise ValueError("x must be positive")
    if x < 1.5:
        return _e1_power_series(x)
    if x > 700.0:
        return 0.0  # below double underflow of e^{-x}
    return _e1_cf(x)


# ---------------------------------------------------------------------------
# The four integrals (I3_pm: inner r-integral in closed form, beta_1)
# ---------------------------------------------------------------------------

def _truncated(f, lo: float, T: float, grow: float, tail_at,
               first) -> QuadratureResult:
    """int_lo^oo f as a quadrature on [lo, T] plus an analytic tail bound.

    T grows by the factor `grow` until tail_at(T) <= ABS_TOL / 2; cut points
    lo + first(T) 2^k (at most 200) split the window, and the tail is added
    to the error estimate.
    """
    tail = tail_at(T)
    while tail > 0.5 * ABS_TOL:
        T *= grow
        tail = tail_at(T)
    seeds, step = [], first(T)
    while lo + step < T and len(seeds) < 200:
        seeds.append(lo + step)
        step *= 2.0
    return adaptive_quadrature(f, lo, T, tail_bound=tail, seeds=seeds)


def J_plus(a: float) -> QuadratureResult:
    """J_plus(a) = int_0^oo e^{-a w} ((w+1)^{3/2} - 1) dw / w.

    The w -> 0 limit of the integrand is 3/2 (removable singularity),
    evaluated stably through expm1(1.5 log1p(w))/w.  Tail: the factor
    ((w+1)^{3/2} - 1)/w is at most (3/2)(w+1), so
        int_T^oo <= (3/2) e^{-aT} ((T+1)/a + 1/a^2).
    """
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")

    def integrand(w: float) -> float:
        if w == 0.0:
            return 1.5
        return math.exp(-a * w) * math.expm1(1.5 * math.log1p(w)) / w

    return _truncated(
        integrand, 0.0, _START_EFOLDS / a, 2.0,
        lambda T: 1.5 * math.exp(-a * T) * ((T + 1.0) / a + 1.0 / (a * a)),
        lambda T: min(0.5, 0.5 / a))


def J_minus(a: float) -> QuadratureResult:
    """J_minus(a) = int_0^oo e^{-a w} w^{3/2} dw / (w+1).

    0 < J_minus(a) < Gamma(5/2)/a^{5/2}.  Tail: for T >= 1, w^{3/2}/(w+1)
    <= w, so int_T^oo <= e^{-aT} (T/a + 1/a^2).
    """
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")

    def integrand(w: float) -> float:
        return math.exp(-a * w) * w ** 1.5 / (w + 1.0)

    return _truncated(integrand, 0.0, max(1.0, _START_EFOLDS / a), 2.0,
                      lambda T: math.exp(-a * T) * (T / a + 1.0 / (a * a)),
                      lambda T: min(0.5, 0.5 / a))


def I3_plus(a: float) -> QuadratureResult:
    """Positive-index orbit integral at a = 4 pi m v (m > 0).

    With the inner integral int_1^oo e^{-cr} dr/r = beta_1(c) this is
        int_0^oo beta_1(a sinh^2 t) sinh t cosh^2 t dt,
    and must reproduce (1/3) J_plus(a).  Tail for t >= T >= 1:
    beta_1(y) <= e^{-y}/y gives int_T^oo <= e^{-a sinh^2 T}/(a^2 sinh T)
    (using cosh^2 = 1 + sinh^2 <= 2 sinh^2 there).
    """
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")

    def tail_at(t: float) -> float:
        sh = math.sinh(t)
        return math.exp(-a * sh * sh) / (a * a * sh)

    def integrand(t: float) -> float:
        if t == 0.0:
            return 0.0
        sh = math.sinh(t)
        ch = math.cosh(t)
        return exp_e1(a * sh * sh) * sh * ch * ch

    T0 = max(1.0, math.asinh(math.sqrt(_START_EFOLDS / a)))
    return _truncated(integrand, 0.0, T0, 1.5, tail_at,
                      lambda T: T / 256.0)


def I3_minus(a: float) -> QuadratureResult:
    """Negative-index orbit integral at a = 4 pi |m| v (m < 0).

        int_0^oo beta_1(a cosh^2 t) sinh^2 t cosh t dt.

    This quadrature is the arbiter for the e^{-|a|} prefactor of the
    reduction to J_minus, which `checks.orbit_minus` compares.  Tail for
    t >= T >= 1: int_T^oo <= e^{-a} e^{-a sinh^2 T} / (2 a^2 sinh T).
    """
    if not 0 < a < math.inf:
        raise ValueError("a must be positive and finite")

    def tail_at(t: float) -> float:
        sh = math.sinh(t)
        return math.exp(-a) * math.exp(-a * sh * sh) / (2.0 * a * a * sh)

    def integrand(t: float) -> float:
        sh = math.sinh(t)
        ch = math.cosh(t)
        return exp_e1(a * ch * ch) * sh * sh * ch

    T0 = max(1.0, math.asinh(math.sqrt(_START_EFOLDS / a)))
    return _truncated(integrand, 0.0, T0, 1.5, tail_at,
                      lambda T: T / 64.0)
