"""Seeded operation streams for the four benchmark workloads.

Each workload is an endless stream of blocks; a block is a list of
operations, each a plain JSON-ready dict that the child process turns into
one call of the program.  A run always ends on a block boundary.

The parameters that set an operation's cost are fixed per block or
stratified within it (one draw per stratum, then shuffled), and index sets
are dealt from shuffled decks, so the seed changes the inputs but hardly the
work of a run.  That keeps runs with different seeds comparable.  The one
stream whose cost per operation grows along it, coeff-table, is run for a
fixed number of blocks instead of a fixed time, so its metrics describe the
same rows on every commit.

Nothing here imports kudla_green: the program only sees generated inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

VERIFY_CHECKS = (
    "divisor-sum-exact",
    "cohen-dual-route",
    "degree-dual-route",
    "orbit-integral-reduction",
    "orbit-integral-negative-convention",
    "green-integral-identity",
    "majorant-siegel-condition",
    "volume-spot-values",
    "zeta-functional-equation",
)

# green-scan: v in [1/2, 2] and radius = 5 / v, so the truncation error
# e^{-2 pi v radius} / (2 pi v radius) = e^{-10 pi} / (10 pi) is the same at
# every point while radius^{5/2} spans ~30x and the enumerated volume
# (~ (m + radius)^{5/2}) ~12x.
GREEN_V_RANGE = (0.5, 2.0)
GREEN_V_RADIUS = 5.0
# (gamma, m) of the fifteen v bins, ascending v; each index three times.  The
# pairing sorts the bins' m + radius into a run of three within 1.2% at the
# median (40-60%) and one of three within 2.5% around p75 (67-87%), each
# 11% or more from its neighbours, so op_s.p50 and op_s.tail each rest on a
# fifth of the operations instead of on a cost gap between two bins.
GREEN_BINS = ((1, "9/4"), (0, "3"), (1, "5/4"), (0, "2"), (0, "1"),
              (0, "3"), (1, "5/4"), (0, "1"), (1, "9/4"), (0, "1"),
              (0, "3"), (0, "2"), (1, "5/4"), (1, "9/4"), (0, "2"))

# identity-grid: |4m| <= ~240 through k = 0..59 in each index family, and
# a = 4 pi |m| v log-uniform in [0.25, 8]
IDENTITY_K = 60
IDENTITY_A_RANGE = (0.25, 8.0)

# coeff-table: a window of COEFF_WINDOW consecutive m from a start at
# 300 + (0..31), dealt in a seeded order, then the next window.  A run of
# --seconds holds 31 blocks per second, about --seconds of rows at this
# program's speed, so the default 20 s is exactly one window (m up to ~950).
# Below m ~ 300 the rows' costs (~ |D0|) are spread so thinly that the
# median latency would sit on a gap between them; from there on they are
# dense around it.  The seeded order spreads the costliest rows, the last m
# of the window, over the whole run instead of its last seconds.
COEFF_START = 300
COEFF_BLOCKS_PER_S = 31.0
COEFF_WINDOW = 620

Block = list[dict]


def _log_point(lo: float, hi: float, u: float) -> float:
    """The point a fraction u of the way from lo to hi on a log scale."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class _Deck:
    """Deals 0..size-1 in a shuffled order, reshuffling when exhausted."""

    def __init__(self, rng: random.Random, size: int):
        self._rng = rng
        self._size = size
        self._cards: list[int] = []

    def draw(self) -> int:
        if not self._cards:
            self._cards = list(range(self._size))
            self._rng.shuffle(self._cards)
        return self._cards.pop()


def coeff_table_blocks(rng: random.Random) -> Iterator[Block]:
    """Windows of consecutive m from a seeded start, each in a seeded order;
    per m the gamma=0 row and the matching gamma=1 row with 4m' = 4m - 3
    (so 4m' = 1 mod 4)."""
    start = COEFF_START + rng.randrange(32)
    while True:
        window = list(range(start, start + COEFF_WINDOW))
        rng.shuffle(window)
        for m in window:
            yield [{"gamma": 0, "m_from": m, "m_to": m},
                   {"gamma": 1, "m_from": 4 * m - 3, "m_to": 4 * m - 3}]
        start += COEFF_WINDOW


def green_scan_blocks(rng: random.Random) -> Iterator[Block]:
    """Fifteen base points per block, v at the midpoints of fifteen equal
    log-bins.  The enumerated volume depends on m + radius alone, so every
    block does the same lattice work; the seed moves the base points and
    their order."""
    while True:
        block = []
        for i, (gamma, m) in enumerate(GREEN_BINS):
            v = _log_point(*GREEN_V_RANGE, (i + 0.5) / len(GREEN_BINS))
            y1 = _log_point(0.5, 2.0, rng.random())
            y3 = _log_point(0.5, 2.0, rng.random())
            y2 = rng.uniform(-0.9, 0.9) * math.sqrt(y1 * y3)
            x1, x2, x3 = (rng.uniform(-0.5, 0.5) + rng.randint(-2, 2)
                          for _ in range(3))
            block.append({"gamma": gamma, "m": m, "v": v,
                          "radius": GREEN_V_RADIUS / v,
                          "z": [[x1, y1], [x2, y2], [x3, y3]]})
        rng.shuffle(block)
        yield block


def _identity_index(gamma: int, sign: int, k: int) -> Fraction:
    if gamma == 0:
        return Fraction(sign * (k + 1))
    # gamma = 1 needs 4m = 1 mod 4: 1, 5, 9, ... and -3, -7, -11, ...
    return Fraction(4 * k + 1, 4) if sign > 0 else Fraction(-(4 * k + 3), 4)


def identity_grid_blocks(rng: random.Random) -> Iterator[Block]:
    """Ten theorem2_check cases per block: six with m > 0, four with m < 0,
    half of each in gamma = 1; a stratified over ten log-bins."""
    decks = {(g, s): _Deck(rng, IDENTITY_K) for g in (0, 1) for s in (1, -1)}
    slots = [(g, 1) for g in (0, 1, 0, 1, 0, 1)] + [(g, -1) for g in (0, 1, 0, 1)]
    while True:
        strata = list(range(10))
        rng.shuffle(strata)
        block = []
        for (gamma, sign), stratum in zip(slots, strata):
            m = _identity_index(gamma, sign, decks[gamma, sign].draw())
            a = _log_point(*IDENTITY_A_RANGE, (stratum + rng.random()) / 10)
            block.append({"gamma": gamma, "m": str(m), "a": a,
                          "v": a / (4.0 * math.pi * abs(float(m)))})
        rng.shuffle(block)
        yield block


def verify_battery_blocks(rng: random.Random) -> Iterator[Block]:
    """The nine verify checks once per block, in a seeded order."""
    while True:
        names = list(VERIFY_CHECKS)
        rng.shuffle(names)
        yield [{"check": name} for name in names]


@dataclass(frozen=True)
class Workload:
    """blocks         -- the seeded block stream
    tail_percentile   -- the percentile reported as op_s.tail
    trace_blocks_per_s -- blocks of a traced run per second of --seconds
    blocks_per_s      -- blocks of an end-to-end run per second of --seconds,
                         or None for a run that measures for --seconds
    collect_each_op   -- collect garbage before every operation rather than
                         before every block (outside the timed region)
    """

    blocks: Callable[[random.Random], Iterator[Block]]
    tail_percentile: int
    trace_blocks_per_s: float
    blocks_per_s: float | None = None
    collect_each_op: bool = False

    @property
    def min_ops(self) -> int:
        """Fewest operations that leave ten beyond the tail percentile."""
        return -(-1000 // (100 - self.tail_percentile))


WORKLOADS = {
    "coeff-table": Workload(coeff_table_blocks, 99, 10.0,
                            blocks_per_s=COEFF_BLOCKS_PER_S),
    "green-scan": Workload(green_scan_blocks, 75, 0.25, collect_each_op=True),
    "identity-grid": Workload(identity_grid_blocks, 99, 4.0),
    "verify-battery": Workload(verify_battery_blocks, 75, 0.1,
                               collect_each_op=True),
}


def block_stream(workload: str, seed: int) -> Iterator[Block]:
    """The block stream of `workload` for `seed`; equal seeds, equal streams."""
    return WORKLOADS[workload].blocks(random.Random(f"{workload}:{seed}"))


def trace_blocks(workload: str, seconds: float) -> int:
    """Fixed block count of a traced run, so its counts repeat exactly."""
    return max(1, round(seconds * WORKLOADS[workload].trace_blocks_per_s))


def run_blocks(workload: str, seconds: float) -> int:
    """Fixed block count of an end-to-end run, or 0 for a timed run.  A
    fixed run still has at least min_ops operations."""
    spec = WORKLOADS[workload]
    if spec.blocks_per_s is None:
        return 0
    per_block = len(next(block_stream(workload, 0)))
    return max(round(seconds * spec.blocks_per_s),
               -(-spec.min_ops // per_block))
