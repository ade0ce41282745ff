"""Exact counts of decomposable integer polynomials of fixed degree and height.

Two independent routes produce every count:

* count_bruteforce decides every polynomial of the whole coefficient box,
  one block at a time.  For a split (m, n) a block fixes the lead c and the
  n-1 coefficients below it; they fix the one candidate inner K of the
  monic conjugate, so one candidate solve rejects the whole block or leaves
  (m, n)-decomposability as (m-1)(n-1) integer-linear equations in the
  remaining coefficients (the non-constant parts of F's K-adic digits
  0..m-2, proved sufficient in the decompose module docstring), evaluated
  over the block with numpy.  No equation reads the constant term, so a
  total ORs the split masks into one bool per polynomial modulo f_0, and
  each hit counts 2H+1 polynomials.  numpy is imported by the oracle's
  functions, when they first run, so the forward route and the command
  line never load it.
* count_forward generates the polynomials constructively, enumerating
  normalized inner polynomials h (h(0) = 0, positive leading coefficient,
  monic in the monic regime) inside a provably sufficient height box, then
  backtracking over the outer coefficients a_m..a_3 with exact
  final-coefficient pruning.  Each prefix leaves a lattice polygon of
  (a_2, a_1), which _walk_outer builds and yields when it holds a point,
  and whose points lattice.polygon_count counts in closed form.
  The inners are cut by the top coefficients of f; every cut is a proved
  necessary condition.  The walk builds h^2 as it goes, one O(n) update per
  coefficient.  A split (2, n) walks its inners only to the prefix
  b_(n-1)..b_2 and counts each prefix as one region of columns
  (b_1, a_2), in the order (prefix, a_2, b_1, a_1) (_columns): the rows
  x^3..x^(n+1) of f are linear in (b_1, a_1), the rows above read neither,
  and the rows x^1 and x^2 finish each column of the short range
  |b_1| <= B, whose a_1 interval is a few floor divisions.  The b_1 window
  of a_2 = 1 holds that of every a_2, so a prefix whose window is empty is
  never handed on.  The inner x^n
  of a split (m, n), m >= 3, whose polynomials g(x^n) have the coefficients
  of g, is counted in closed form wherever count_forward knows its
  exclusion (it proves the counts and hands each split the rule).
  The walk takes one pair of each orbit of the sign symmetries
  sigma: f -> e f(-x) and, for non-monic f, tau: f -> -f: the sigma-canonical
  inners only, and the positive outer leads only when f is not monic.  Each
  polygon or column counts its pairs times the orbit size (count_forward
  proves it).

The constant term never interacts with decomposability (it is the free
constant term of the outer polynomial), so the enumeration fixes it at 0 and
every count carries an exact factor 2H+1.  Within one split the normalized
witness is unique per polynomial, which every enumeration re-verifies
without storing a key per pair: the packed coefficient vectors strictly
increase within a block (one inner h with one outer lead), one comparison
per polygon, and distinct blocks have distinct top coefficients.  A split
runs in the calling process until it has walked _POOL_AFTER non-empty
polygons (or (2, n) columns); the whole inners (or prefixes) it leaves go in
batches to a pool that the query starts once, when a split first needs it.
Each variant sums the pairs of a plan of splits, less those whose polynomial
also decomposes with one of the split's excluded inner degrees (_plan lists
the plans, and count_forward proves them).  By Engstrom's theorem most of
that is decided by the inner alone: the chunk that counts the inners
drops every h with a right component of an excluded degree dividing n, all
of whose pairs are excluded (at most one b_1 per prefix and degree,
_cut_columns), and the other inners need the exclusion test only for the
excluded degrees k with gcd(k, n) not such a degree; the inner walk reads
the height box alone.  For a total
those are the k with gcd(k, n) = 1, and by Ritt's second theorem an inner
decides them once, from its shape alone (_coprime_rule): most inners exclude
nothing, and for k = 2 the excluded pairs of a polygon are one line, counted
in closed form (in a (2, n) split one point per column).  Only the inners
with a shape of some k >= 3, and the split of indecomp_pair, run the kernel
decompose.decomposable_on_span once per polygon.  lattice.union_count
counts what a line or the kernel excludes.  No variant stores a key.
The budget bounds the witness pairs that a split walks and, up front
(check_budget), the inner candidates that it tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, gcd, isqrt
from operator import mul as times
from typing import Iterator, List, Optional, Sequence, Tuple

from . import poly_core
from .asymptotics import spf
from .decompose import (
    _adic_digits,
    _candidate,
    _inner_degrees,
    _integer_candidate,
    _monic_conjugate,
    decomposable_on_span,
    decompose_split,
    is_decomposable,
)
from .lattice import (
    polygon,
    polygon_count,
    polygon_rows,
    union_count,
    window_interval,
)
from .poly_core import Poly, height, lead, mul

# The forward walk no longer raises to powers; perfbench/tracer.py still wraps
# census.poly_pow, so the binding stays until the benchmark drops it.
poly_pow = poly_core.poly_pow

DEFAULT_SET_BUDGET = 200_000_000   # witness pairs per split
# Brute-force box size.  The block walk decides a box of this size at about
# 2*10^8 (monic d=8, H=2) to 5*10^9 (monic d=4, H=20) polynomials/s for a
# total, and 4*10^8 for indecomp_pair at monic d=8, H=3 (2 cores, Python
# 3.11.7, numpy loaded), so the default keeps an oracle query to milliseconds.
DEFAULT_ORACLE_BUDGET = 3_000_000
_INT64_LIMIT = 1 << 62  # oracle rows bounded below this evaluate in int64
# Non-empty polygons the calling process walks in a split before it hands the
# split's other inners to the query's pool; in a split (2, n) each non-empty
# column counts as one, and the items handed on are prefixes.  Starting a pool of two forked
# workers, running one task on each and shutting it down took 12-16 ms on
# 2 cores (Python 3.11.7), about 10^3 polygons at the walk's ~10^5 polygons/s,
# so a split below this never forks, and one above it has already done about
# as much work as the pool costs.
_POOL_AFTER = 1000
_BATCHES_PER_WORKER = 8  # batches the pool hands out as its workers free up

VARIANTS = ("total", "split", "indecomp_pair")


class BudgetError(ValueError):
    """A query was refused because it exceeds a configured budget."""


def _int_root(x: int, k: int) -> int:
    """Largest t >= 0 with t**k <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    if k == 2:
        return isqrt(x)
    # Integer Newton from the power of two above the root: the iterates
    # decrease strictly until they reach the floor of the root.
    t = 1 << -(-x.bit_length() // k)
    while True:
        u = ((k - 1) * t + x // t ** (k - 1)) // k
        if u >= t:
            return t
        t = u


def explicit_constants_sq(m: int, n: int) -> Tuple[int, int]:
    """The exact squares (K1^2, K2^2) of the inner/outer height-bound constants.

    For every f = g(h(x)) with h(0) = 0, deg g = m, deg h = n, d = m*n:
        |lead(g)| * H(h)**m <= K1 * H(f),      K1^2 = 4**d * (n+1)**m
        H(g) <= K2 * H(f),                     K2^2 = 4**m * (n+1)**m * (d+1)
    Obtained by running the composition height argument with the two-sided
    height-measure sandwich in place of the implicit product constant.  Both
    sides of each bound are nonnegative, so comparing squares decides it
    exactly in integers.
    """
    if m < 2 or n < 2:
        raise ValueError("split parts must both be >= 2")
    d = m * n
    return 4**d * (n + 1) ** m, 4**m * (n + 1) ** m * (d + 1)


def height_lemma(g: Poly, h: Poly, hf: int) -> Tuple[bool, bool]:
    """The verdicts of both bounds of explicit_constants_sq on f = g(h), whose
    height is hf: (|lead(g)| H(h)^m <= K1 H(f), H(g) <= K2 H(f)), decided on
    the squares."""
    k1_sq, k2_sq = explicit_constants_sq(len(g) - 1, len(h) - 1)
    lhs1 = lead(g) * height(h) ** (len(g) - 1)
    return lhs1 * lhs1 <= k1_sq * hf * hf, height(g) ** 2 <= k2_sq * hf * hf


def _inner_height_bound(m: int, n: int, H: int) -> int:
    """Provably sufficient inner height b_max for one split at one height.

    Every normalized decomposition of every degree-d polynomial of height
    at most H has inner height at most b_max, by the height lemma
    |lead(g)| H(h)^m <= K1 H(f) and |lead(g)| >= 1; K1 bounds nothing else.
    The outer polynomial needs no such bound: _walk_outer clips each of its
    coefficients, the lead included, exactly to the coefficients of f it
    reaches.
    """
    return _int_root(explicit_constants_sq(m, n)[0] * H * H, 2 * m)


@dataclass(frozen=True)
class CountQuery:
    d: int
    H: int
    monic: bool
    variant: str
    split: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.d < 2 or self.H < 2:
            raise ValueError("degree and height must both be >= 2")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "split":
            if self.split is None:
                raise ValueError("split variant needs (m, n)")
            m, n = self.split
            if m < 2 or n < 2 or m * n != self.d:
                raise ValueError(f"invalid split ({m},{n}) for degree {self.d}")
        elif self.split is not None:
            raise ValueError("split only applies to the split variant")


@dataclass(frozen=True)
class CountResult:
    count: int
    query: CountQuery
    method: str
    elapsed_seconds: float
    workers: int


def ordered_splits(d: int) -> List[Tuple[int, int]]:
    """All ordered pairs (m, n) with m, n >= 2 and m*n = d."""
    return [(m, d // m) for m in range(2, d // 2 + 1) if d % m == 0]


# ---------------------------------------------------------------------------
# forward enumeration
# ---------------------------------------------------------------------------


def _h_candidates(m: int, n: int, H: int, monic: bool) -> list:
    """The normalized inner candidates h in lexicographic order: (h, h^2) for
    m >= 3, and for m = 2 one item (h0, h0^2, lo, hi) per prefix with a b_1
    window, the columns of which _columns walks.

    Walks the inner coefficients b_(n-1)..b_1 of h = b_1 x + ... + b_n x^n,
    b_n = L >= 1, as one odometer without recursion: one level per
    coefficient, down to b_1 for m >= 3, whose every value is a leaf, one
    candidate, and down to b_2 for m = 2.  A non-monic lead L is at
    most H^(1/m), since lead(g) L^m is the top of f; K1 >= 1 makes b_max
    (_inner_height_bound) at least that.  Each level is restricted by
    |b| <= b_max and by the final top coefficients of f:
    with b_j..b_1 still 0, the coefficient of x^((m-1)n+j) of f = g(h) is
    a_m [h^m]_((m-1)n+j) (h^(m-1) has degree (m-1)n), which depends on b_j
    linearly with slope m*L^(m-1) and must not exceed H in absolute value
    for any feasible outer polynomial (|a_m| >= 1).  For m > 2 that
    coefficient is [r^m]_(n-j) of the reversed top r = b_n + b_(n-1) y + ..
    + b_1 y^(n-1), which reads only b_n..b_(j+1): _power_step finds it once
    per level from the coefficients of the levels above, and setting b_j
    moves it by slope*b_j.  The walk keeps the square of the partial
    h: setting b_j from u to t, with b_(j-1)..b_1 still 0, adds
    2(t-u) x^j (b_(j+1) x^(j+1) + .. + b_n x^n) + (t^2-u^2) x^(2j), one O(n)
    update.  For m = 2 the coefficient is that square's x^(n+j) entry.
    Non-monic candidates of m >= 3 are additionally primitive (content 1);
    imprimitive inners never generate new polynomials.

    For m = 2 the walk stops at the prefix b_(n-1)..b_2 (for n = 2 the
    prefix is the lead alone) and hands one on as (h0, h0^2, lo, hi), h0
    the prefix with b_1 = 0 and [lo, hi] the window of b_1 at the outer
    lead a_2 = 1 (_b1_window), only when that window is not empty: it holds
    the window of every a_2 >= 1 (_columns), so a prefix with an empty one
    has no pair.  _columns counts the b_1, with their outer polynomials, in
    one region per prefix.  The level b_2 (n >= 4) looks
    ahead to b_1: with b_1 = 0 the square's x^(n+1) entry is sq[n+1] +
    2 b_(n-1) b_2, and the b_1 window, which keeps it plus slope*b_1 within
    H, must meet [-B, B] (_columns), so it is at most H + slope*B in
    absolute value; B grows with |b_2|, so the B of the largest |b_2| of
    the level serves all of them.

    Only sigma-canonical inners are walked: those whose first non-zero b_j
    with n - j odd, from b_(n-1) down, is positive, or which have none (sigma
    fixes them).  A level b_j with n - j odd starts at 0 while every higher
    level of that parity is 0 (_columns does the same for b_1); that only
    removes values, so the walk yields exactly the canonical inners of the
    full walk.  Every window here tests |coefficients| of f, which sigma
    keeps, so the full walk is closed under sigma, and its other inners,
    (-1)^n h(-x) of a walked h, count as images (count_forward).

    The walk reads the height box alone: the inners that a split's
    exclusion makes count nothing (the Engstrom cut, count_forward) are
    walked like any other and dropped by the chunk (_run_chunk, _columns),
    so an item carries nothing computed above it.
    """
    out: list = []
    b_max = _inner_height_bound(m, n, H)
    leads = [1] if monic else range(1, _int_root(H, m) + 1)
    leaf = 2 if m == 2 else 1  # the last level walked

    for L in leads:
        slope = m * L ** (m - 1)
        bs = [0] * (n + 1)
        bs[n] = L
        sq = [0] * (2 * n + 1)  # the square of the partial h
        sq[2 * n] = L * L
        if n <= leaf:  # (2, 2): the prefix is the lead alone, and b_1 = 0 is in its window
            out.append((tuple(bs), tuple(sq)) + _b1_window(bs, sq, H))
            continue
        rev = bs[::-1]  # the reversed top r: rev[i] = b_(n-i)
        hm = [L**m] + [0] * (n - 1)  # hm[i] = [r^m]_i = [h^m]_(mn-i), kept for m > 2
        values: list = [None] * n  # values[j]: the b_j still to visit

        def level(j: int):
            # the b_j that keep [h^m]_((m-1)n+j) in the window, b_j..b_1 being 0
            if m == 2:
                s = sq[n + j]
            else:
                s = hm[n - j] = _power_step(rev, hm, m, n - j)
            lo, hi = window_interval((s,), (slope,), 0, 0, H, -b_max, b_max)
            if m == 2 and j == 2 and n > 3 and lo <= hi:
                # the b_1 window of each b_2 must meet [-B, B]: |sq[n+1] + 2 b_(n-1) b_2|
                # <= H + slope*B, B for the largest |b_2| (B grows with |b_2|)
                B = _low_square_bound(H, max(-lo, hi))
                lo, hi = window_interval(
                    (sq[n + 1],), (2 * bs[n - 1],), 0, 0, H + slope * B, lo, hi
                )
            if (n - j) % 2 and not any(bs[j + 2 :: 2]):
                lo = max(lo, 0)  # sigma-canonical: the first non-zero b_j, n - j odd, is > 0
            return iter(range(lo, hi + 1))

        def put(j: int, t: int) -> None:
            # b_j = t, and the square and [h^m]_((m-1)n+j) with it
            u = t - bs[j]
            if u:
                for i in range(j + 1, n + 1):
                    sq[i + j] += 2 * u * bs[i]
                sq[2 * j] += u * (t + bs[j])
                bs[j] = t
                if m > 2:
                    rev[n - j] = t
                    hm[n - j] += slope * u

        j = n - 1
        values[j] = level(j)
        while j < n:
            t = next(values[j], None)
            put(j, 0 if t is None else t)
            if t is None:
                j += 1
                continue
            if j > leaf:
                j -= 1
                values[j] = level(j)
            elif m == 2:
                lo, hi = _b1_window(bs, sq, H)
                if lo <= hi:
                    out.append((tuple(bs), tuple(sq), lo, hi))
            elif monic or gcd(*bs) == 1:
                out.append((tuple(bs), tuple(sq)))
    return out


def _cut_columns(h0: Sequence[int], degrees: Sequence[int], candidates: dict) -> tuple:
    """The b_1 for which h0 + b_1 x is u(w) with deg w = e in degrees, each
    e dividing n = deg h0 with 2 <= e < n, and h0 = (0, 0, b_2, .., b_n): at
    most one per degree.

    Let F be the monic conjugate of h0 (decompose._monic_conjugate), whose
    candidate inner K of degree e reads only b_(n-1)..b_(n-e+1), so it
    serves every b_1.  h = u(w) exactly when the non-constant parts of the
    K-adic digits 0..n/e-2 of h's monic conjugate vanish (the decompose
    module docstring); that conjugate is F + L^(n-2) b_1 x, L = lead(h0),
    and the digits are linear, with x its own digit 0 as e >= 2.  So b_1
    moves only the x^1 coefficient of digit 0: the other parts decide the
    prefix, and that one fixes its b_1.  candidates memoizes the solves.
    Only the chunk runs it, once per prefix b_(n-1)..b_2: at the prefix's
    first inner for m >= 3 (_run_chunk), and at its first column with a
    point for m = 2 (_columns), so a (2, n) prefix without one never pays.
    """
    n = len(h0) - 1
    F = _monic_conjugate(tuple(h0))
    step = h0[n] ** (n - 2)  # F_1 moves by step * b_1
    drop = []
    for e in degrees:
        K = _candidate(F, n // e, e, candidates)
        if K is None:
            continue
        r = list(_adic_digits(F, K, n // e - 1))
        if not any(r[0][2:]) and not any(c for digit in r[1:] for c in digit[1:]):
            b1, rem = divmod(-r[0][1], step)
            if not rem:
                drop.append(b1)
    return tuple(drop)


def _power_step(r: Sequence[int], p: Sequence[int], m: int, k: int) -> int:
    """[r^m]_k of a power series r with r_0 != 0, from r_1..r_k and the
    p_i = [r^m]_i, i < k.

    J. C. P. Miller's recurrence: r p' = m r' p for p = r^m gives
    k r_0 p_k = sum_(i=1..k) ((m+1) i - k) r_i p_(k-i), and the division is
    exact since p_k is an integer.  O(k), where a power costs O(m k^2).
    """
    return sum(((m + 1) * i - k) * r[i] * p[k - i] for i in range(1, k + 1)) // (k * r[0])


@lru_cache(maxsize=1 << 12)  # one entry per (H, |b_2|), read once per (2, n) prefix
def _low_square_bound(H: int, c: int) -> int:
    """Largest t >= 1 with t*t <= H + (H // t) * c (c >= 0).

    The left side increases and H // t does not as t grows, so the t that
    pass are exactly 1..result; t = 1 always passes, and H // t <= H caps the
    result at isqrt(H + H*c).
    """
    lo, hi = 1, isqrt(H + H * c)
    while lo < hi:
        t = (lo + hi + 1) // 2
        if t * t <= H + (H // t) * c:
            lo = t
        else:
            hi = t - 1
    return lo


def _b1_window(h0: Sequence[int], sq0: Sequence[int], H: int) -> Tuple[int, int]:
    """The window [lo, hi] of b_1 of the (2, n) prefix h0 = (0, 0, b_2, ..,
    b_n), sq0 = h0^2, at the outer lead a_2 = 1 (_columns); lo > hi when it
    is empty.  It starts at [-B, B], or [0, B] where sigma fixes the prefix
    and n is even, with B from _low_square_bound, and _clip_b1 clips it."""
    n = len(h0) - 1
    B = _low_square_bound(H, abs(h0[2]))
    return _clip_b1(h0, sq0, 1, H, 0 if n % 2 == 0 and not any(h0[3::2]) else -B, B)


def _clip_b1(h0: Sequence[int], sq0: Sequence[int], a2: int, H: int, lo: int, hi: int):
    """Clip [lo, hi] to the b_1 that pass each row x^2..x^(n+1) of f = a_2 h^2
    + a_1 h, h = h0 + b_1 x, a_2 >= 1, taken alone with some |a_1| <= H:
    |a_2 (C_k + 2 b_(k-1) b_1)| <= H + |b_k| H for k = 3..n+1, C_k =
    [h0^2]_k and b_(n+1) = 0, and a_2 b_1^2 <= H when b_2 = 0 (_columns).
    Each row only tightens as a_2 grows, so the window of a_2 holds that of
    every larger a_2.  Rows x^(n+1) down, each a pair of floor divisions;
    an empty window comes back as soon as one is seen, with lo > hi.
    """
    n = len(h0) - 1
    for k in range(n + 1, 2, -1):
        X = H + abs(h0[k]) * H if k < n + 1 else H
        p, t = a2 * sq0[k], 2 * a2 * h0[k - 1]
        if t < 0:
            p, t = -p, -t
        if t:
            v = -((X + p) // t)
            if v > lo:
                lo = v
            v = (X - p) // t
            if v < hi:
                hi = v
        elif p > X or p < -X:
            return 1, 0
        if lo > hi:
            return lo, hi
    if not h0[2]:  # [f]_2 = a_2 b_1^2
        r = isqrt(H // a2)
        lo, hi = max(lo, -r), min(hi, r)
    return lo, hi


def _columns(
    item, H: int, monic: bool, cut: Sequence[int], candidates: dict
) -> Iterator[tuple]:
    """Yield (a_2, b_1, lo_1, hi_1) for every column of a (2, n) prefix item
    of _h_candidates that holds a point and whose inner the cut keeps, a_2
    rising, then b_1: its pairs are the inner h = h0 + b_1 x with the outer
    a_2 y^2 + a_1 y, lo_1 <= a_1 <= hi_1.

    item is (h0, sq0, lo, hi): h0 = (0, 0, b_2, .., b_n), sq0 = h0^2, and
    the b_1 window [lo, hi] at a_2 = 1 (_b1_window).  f = a_2 h^2 + a_1 h has the
    coefficients
      * [f]_1 = a_1 b_1;
      * [f]_2 = a_2 b_1^2 + a_1 b_2 (b_2 = L = lead(h) when n = 2);
      * [f]_k = a_2 (C_k + 2 b_(k-1) b_1) + a_1 b_k for k = 3..n+1, with
        C_k = [h0^2]_k and b_(n+1) = 0: linear in (b_1, a_1);
      * [f]_k = a_2 C_k for k >= n+2, which reads neither b_1 nor a_1.
    So per prefix the rows k >= n+2 give the window of the outer lead a_2,
    the positive half only when f is not monic (tau, as in _walk_outer),
    and a_2 = 1 when it is.  Per a_2 the linear rows clip the window of
    b_1 (_clip_b1): exactly where b_k = 0 (row n+1 among them, and [f]_2 =
    a_2 b_1^2 when b_2 = 0), and elsewhere by |a_2 (C_k + 2 b_(k-1) b_1)|
    <= H + |b_k| H, as |a_1| <= H (below).  These only tighten as a_2
    grows, so the item's window at a_2 = 1 is clipped for each a_2 >= 2,
    and the first a_2 with an empty window ends the prefix.  Each b_1 of
    the window is one column, whose a_1 interval the rows k = 1..n with
    b_k != 0 finish: a few floor divisions.  Every column with a point is
    yielded, so the pairs are exactly those of every inner of the prefix.

    The b_1 run over the window clipped to |b_1| <= B, B from
    _low_square_bound: with a_2 != 0 and every |[f]_j| <= H, b_1 != 0 gives
    |a_1| <= A := floor(H/|b_1|) from [f]_1, and then, as |a_2| >= 1,
    b_1^2 <= |a_2| b_1^2 <= H + A |b_2| from [f]_2.  Its left side
    increases and A does not as |b_1| grows, so it holds exactly when
    |b_1| <= B.  b_1 = 0 needs no clip, and |a_1| <= H holds at every b_1:
    at the lowest k with b_k != 0, [h^2]_k = 0 and [f]_k = a_1 b_k.

    Like every other level of the inner walk (_h_candidates), b_1 starts at
    0 when n - 1 is odd and every b_j, n - j odd, of the prefix is 0
    (sigma-canonical).  The b_1 whose inner is u(w) with deg w in cut are
    skipped (count_forward excludes all of their pairs): _cut_columns finds
    them, with the memo candidates, at the first column with a point.  When
    f is not monic so is every b_1 with gcd(b_1, content of h0) > 1: the
    inner must be primitive.
    """
    h0, sq0, lo_w, hi_w = item
    n = len(h0) - 1
    content = gcd(*h0)  # 1 when monic
    drop = None if cut else ()  # the b_1 that the cut drops, found at the first point
    # the rows x^3..x^n with b_k != 0 as (C_k, 2 b_(k-1), b_k), times sign(b_k)
    lin = [
        (sq0[k], 2 * h0[k - 1], h0[k]) if h0[k] > 0 else (-sq0[k], -2 * h0[k - 1], -h0[k])
        for k in range(3, n + 1)
        if h0[k]
    ]
    g2 = abs(h0[2])
    s2 = -1 if h0[2] < 0 else 1
    leads = (1,) if monic else range(1, H // max(map(abs, sq0[n + 2 :])) + 1)
    for a2 in leads:
        lo, hi = (lo_w, hi_w) if a2 == 1 else _clip_b1(h0, sq0, a2, H, lo_w, hi_w)
        if lo > hi:
            return
        rows = [(a2 * p, a2 * t, g) for p, t, g in lin]  # |p + t b_1 + g a_1| <= H, g > 0
        q2 = s2 * a2
        for b1 in range(lo, hi + 1):
            if content > 1 and gcd(content, b1) > 1:
                continue
            # lattice.row_window's loop, inline: a call per column cost a
            # quarter of a perfbench total job
            hi1 = H // abs(b1) if b1 else H
            lo1 = -hi1
            if g2:
                q = q2 * b1 * b1
                v = -((H + q) // g2)
                if v > lo1:
                    lo1 = v
                v = (H - q) // g2
                if v < hi1:
                    hi1 = v
            for p, t, g in rows:
                q = p + t * b1
                v = -((H + q) // g)
                if v > lo1:
                    lo1 = v
                v = (H - q) // g
                if v < hi1:
                    hi1 = v
            if lo1 <= hi1:
                if drop is None:
                    drop = _cut_columns(h0, cut, candidates)
                if b1 not in drop:
                    yield a2, b1, lo1, hi1


def _uniqueness_error(m: int, n: int, H: int, detail: str) -> RuntimeError:
    return RuntimeError(
        f"normalized witness uniqueness violated in split ({m},{n}), H={H}: {detail}"
    )


def _pairs_budget_error(budget: int, m: int, n: int, H: int) -> BudgetError:
    return BudgetError(
        f"enumeration exceeded budget of {budget} witness pairs "
        f"(split ({m},{n}), H={H}); raise --budget"
    )


def _walk_outer(
    h: Poly, sq: Poly, m: int, H: int, monic: bool
) -> Iterator[tuple]:
    """Yield (P, prefix, rows, first, last) for every polygon of one inner h
    of a split (m, n), m >= 3, that holds a point, built, in order (the
    split (2, n) is counted by _columns).

    sq is h^2, and the walk multiplies out h^3..h^m, which only it reads.
    One odometer runs a_m..a_3 in lexicographic order.  Every window comes
    from the coefficients of f alone, in exact integers: window_interval,
    from an unbounded start, clips the outer lead a_m (1 if monic) to
    x^((m-1)n+1)..x^d and each a_(k-1) to x^((k-2)n+1)..x^((k-1)n), the
    coefficients it is the last to reach.  A non-monic lead runs over the
    positive half of its window, which is symmetric: tau, g -> -g, maps the
    polygons of a_m to those of -a_m, and _run_chunk counts both.
    Each range reaches x^(kn) of h^k, whose coefficient is L^k != 0
    (L = lead(h)), so every window is a finite integer interval.  A
    polygon fixes prefix = [a_m, .., a_3], and P[j] is the x^j coefficient
    of (a_3 x^3 + .. + a_m x^m)(h).  lattice.polygon builds it over the a_2
    window clipped by x^(n+1)..x^(2n), the last coefficients a_2 reaches,
    as (rows, first, last), and its polynomials are P + a_2 h^2 + a_1 h for
    its points (a_2, a_1).  P and prefix are the walk's own lists: they hold until the
    next polygon is drawn, and the caller must not modify them.
    """
    n = len(h) - 1
    d = m * n
    hp = [None, h, sq]  # hp[k] = h^k
    for _ in range(3, m + 1):
        hp.append(mul(hp[-1], h))
    P = [0] * (d + 1)
    prefix = [0] * (m - 2)  # prefix[m - k] = a_k
    if monic:
        leads = [1]
    else:
        lo_a, hi_a = window_interval(P, hp[m], (m - 1) * n + 1, d, H)
        leads = range(max(lo_a, 1), hi_a + 1)  # tau: the leads -a are counted, not walked
    values: list = [None] * (m + 1)  # values[k]: the a_k still to visit
    k = m
    values[k] = iter(leads)
    while k <= m:
        t = next(values[k], None)
        u = (0 if t is None else t) - prefix[m - k]
        if u:
            prefix[m - k] += u
            hk = hp[k]
            for j in range(1, k * n + 1):
                P[j] += u * hk[j]
        if t is None:
            k += 1
            continue
        # the window of a_(k-1), the last to reach x^(top-n+1)..x^top
        top = (k - 1) * n
        lo, hi = window_interval(P, hp[k - 1], top - n + 1, top, H)
        if k > 3:
            k -= 1
            values[k] = iter(range(lo, hi + 1))
        elif lo <= hi:
            rows, first, last = polygon(P, h, sq, lo, hi, H)
            if first is not None:
                yield P, prefix, rows, first, last


def _coprime_rule(h: Poly, m: int, degrees: Sequence[int]):
    """How the inner h excludes pairs with the inner degrees in degrees, each
    k | mn with gcd(k, n) = 1, by Ritt's second theorem (count_forward
    proves it): None when the kernel must decide (h has a shape of some
    k >= 3), () when h excludes nothing, else the k = 2 closed form
    (odd, tail, w_2, w_1, g) that _line_away reads.

    With L = lead(h) and D = nL, c = D^n h((y - b_(n-1))/D) is an integer
    polynomial: sum_j b_j D^(n-j) z^j, Taylor shifted to y = z + b_(n-1).
    n = 2 always has the power shape, as c_(n-1) = 0.  The shifted inner
    h~(x) = h(x + s) - h(s), s = -b_(n-1)/D, has [x^j] h~ = c_j D^(j-n) for
    j >= 1, so it has the exponents of c, and gamma = h(s) = c_0/D^n = p/q
    in lowest terms, q > 0.  For k = 2 a pair is excluded exactly when h~ is
    odd and g(y + gamma) = sum_j y^j sum_i a_i C(i, j) gamma^(i-j) is even.
    Times q^(m-j), its y^j coefficient for odd j >= 3 is the row odd[] of
    a_m..a_3 (prefix order), and that of y^1 is the line
    w_2 a_2 + w_1 a_1 = -tail.prefix, w_1 = q^(m-1), w_2 = 2 p q^(m-2), of
    content |g| = gcd(w_2, w_1); w_2 and w_1 come divided by g, whose sign
    makes the first non-zero one positive.
    """
    n = len(h) - 1
    c, e = _centred(h)
    rule = ()
    for k in degrees:
        shaped = not any(c[j] for j in range(1, n) if (n - j) % k)
        if k > 2 and (shaped or _chebyshev_shape(c)):
            return None
        if k == 2 and shaped:
            t = gcd(c[0], e)
            p, q = c[0] // t, e // t
            w2, w1 = 2 * p * q ** (m - 2), q ** (m - 1)
            g = -gcd(w2, w1) if w2 < 0 else gcd(w2, w1)  # w_2 > 0 as in union_count
            odd = tail = ()
            if m > 2:
                odd = [
                    [comb(i, j) * p ** (i - j) * q ** (m - i) if i >= j else 0
                     for i in range(m, 2, -1)]
                    for j in range(m - 1, 2, -2)
                ]
                tail = [i * p ** (i - 1) * q ** (m - i) for i in range(m, 2, -1)]
            rule = (odd, tail, w2 // g, w1 // g, g)
    return rule


def _centred(h: Sequence[int]) -> Tuple[List[int], int]:
    """(c, D^n) for the integer polynomial c(y) = D^n h((y - b_(n-1))/D),
    D = n lead(h), whose coefficients are those of the centred inner
    h(x + s), s = -b_(n-1)/D, times D^(n-j) at x^j (_coprime_rule)."""
    n = len(h) - 1
    D = n * h[n]
    b = h[n - 1]
    c = list(h)  # b_j D^(n-j), the coefficients in y - b_(n-1), then in y
    e = 1
    for j in range(n - 1, -1, -1):
        e *= D
        c[j] *= e
    if b:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] -= b * c[j + 1]
    return c, e


def _chebyshev_shape(c: Sequence[int]) -> bool:
    """Whether c_1 y + .. + c_n y^n (n >= 3) is lam (T_n(alpha y) - T_n(0))
    for some complex lam and alpha != 0, T_n the Chebyshev polynomial.

    The x^(n-2i) coefficient t_(n-2i) of T_n, for 2i < n, has
    t_(n-2i-2)/t_(n-2i) = -(n-2i)(n-2i-1)/(4(i+1)(n-i-1)), and the other
    coefficients are 0.  So c has the shape exactly when c_(n-1-2i) = 0
    above y^0, c_(n-2) != 0, which fixes alpha^2 = -n c_n/(4 c_(n-2)), and
        n (i+1)(n-i-1) c_n c_(n-2i-2) = (n-2i)(n-2i-1) c_(n-2) c_(n-2i)
    for every i >= 1 with n - 2i - 2 >= 1; lam follows from c_n.
    """
    n = len(c) - 1
    if not c[n - 2] or any(c[j] for j in range(n - 1, 0, -2)):
        return False
    return all(
        n * (i + 1) * (n - i - 1) * c[n] * c[n - 2 * i - 2]
        == (n - 2 * i) * (n - 2 * i - 1) * c[n - 2] * c[n - 2 * i]
        for i in range(1, (n - 1) // 2)
    )


def _line_away(rule, prefix, rows, first, final, H: int) -> int:
    """The points of a polygon with outer prefix a_m..a_3 that the k = 2
    closed form rule of _coprime_rule excludes."""
    odd, tail, w2, w1, g = rule
    c = 0
    if prefix:  # m >= 3
        if any(sum(map(times, r, prefix)) for r in odd):
            return 0
        c = -sum(map(times, tail, prefix))
        if c % g:
            return 0
        c //= g
    if first[0] == final[0]:  # one row: the line's one point in it
        a1, r = divmod(c - w2 * first[0], w1)
        return int(not r and first[1] <= a1 <= final[1])
    return union_count(rows, first, final, H, (), ((w2, w1, c),))


def _batches(rest: list, count: int) -> list:
    """Cut the inners of rest, in order, into at most count runs of about
    equal numbers of inners; no inner is cut."""
    size = -(-len(rest) // count)
    return [rest[i : i + size] for i in range(0, len(rest), size)]


def _start_pool(k: int):
    """A pool of k worker processes.

    concurrent.futures, and multiprocessing with it, is imported here, when
    the first pool starts, so a query that never forks never loads it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=k)


def _run_chunk(args, limit=None):
    """Enumerate outer polynomials for one chunk of inners, in one loop over
    the built, non-empty polygons that _walk_outer yields, or for m = 2 over
    the columns of each prefix (_region).

    args is (d, H, monic, (m, n), items, excluded, budget); for m >= 3 each
    item (h, sq) is an inner candidate h with sq = h^2, walked whole, and
    for m = 2 each item is a prefix of _h_candidates, counted whole.  The
    chunk consumes what it walks: it deletes from the list items those that
    it walked, all of them without limit.  With limit, it stops before the
    first item that it reaches after it has walked limit polygons or
    columns (each with a point), so the items it leaves are those still to
    walk.

    excluded holds the split's excluded inner degrees, and the chunk parts
    them as count_forward proves: the cut, every e in excluded with e | n
    and e < n, drops each inner h = u(w) with deg w in the cut, all of
    whose pairs are excluded, and the kernel, every k in excluded with
    gcd(k, n) not in the cut, is all that the other inners are tested for.
    For m >= 3 _cut_columns runs once per prefix b_(n-1)..b_2, at the
    prefix's first inner, and the inners whose b_1 it drops are skipped;
    for m = 2 _columns skips their columns.  A drop reads its prefix alone
    and is found anew whenever the prefix changes, so it does not depend on
    the order of the items or on how they are cut into chunks.

    Returns (pairs, 0, None, away, tops):
      pairs    -- witness pairs completed over the inners the cut keeps
                  (equals distinct polynomials)
      away     -- pairs whose polynomial also decomposes with an inner degree
                  in the kernel
      tops     -- the top-n coefficient vector of every non-empty block, in
                  walk order
    The 0 and None slots keep the 5-tuple that perfbench/tracer.py unpacks.

    The unit of work is a polygon, and polygon_count counts its pairs
    in closed form.  Each polygon stands for its orbit under the sign
    symmetries (count_forward), so its pairs and away count w times: w = 2
    when h has a non-zero b_j with n - j odd (sigma(h) != h), times 2 when
    f is not monic (tau).  pairs and the budget are in true pairs.  When
    the kernel is not empty, each inner's exclusion is decided once, at its
    first polygon.  If every kernel degree k divides d and has
    gcd(k, n) = 1, as in every kernel of a total, _coprime_rule decides
    it by Ritt's second theorem (count_forward proves it): nothing, or the
    k = 2 line that _line_away counts per polygon in closed form, or the
    kernel.  The kernel, and every other kernel set, takes one
    decomposable_on_span call per polygon, which decides the exclusion for
    all of its points, and union_count counts the excluded ones.  The
    polygon is the plane P + a_2 h^2 + a_1 h, and h^2 and h stay below the
    coefficients x^(d-n'+1)..x^(d-1) that fix the candidate inner of every
    excluded n': a total excludes n' < n, so d - n' > (m-1)n >= 2n, and an
    indecomp_pair excludes only when m >= 4 (l < n' <= d/2 with l | n' needs
    d/l >= 4), and then d - n' >= d/2 >= 2n.  The candidate inners, of the
    kernel and of the cut, are memoized per chunk.  For m = 2 the only
    kernel degree is k = 2 with n odd: in a total's (2, n) split the kernel
    degrees k divide 2n, are below n and are coprime to n, and an
    indecomp_pair with m = 2 excludes nothing.  _region applies
    _coprime_rule's k = 2 closed form to it.

    Uniqueness re-check, with no key stored.  A block is one inner h with one
    outer lead a_m, and a chunk walks whole inners, so whole blocks.  The
    packed key of f has the digits f_j + H, x^d most significant, and every
    digit of a counted f lies in [0, 2H], so keys compare as the coefficient
    vectors do from x^d down.  Inside a block a_(m-1)..a_1 run in
    lexicographic order; raising a_k leaves x^(kn+1)..x^d unchanged and
    raises x^(kn) by L^k > 0, L = lead(h) (a_(k-1)..a_1 only reach lower
    powers), so the keys strictly increase.  Within a polygon this reads:
    one a_2 step raises the x^(2n) digit by L^2 > 0 and leaves the digits
    above it unchanged, and one a_1 step raises x^n by L and never reaches
    x^(n+1) or above.  So a polygon's keys lie between those of its first
    and last points, and one comparison per polygon completes the check
    inside a block: its first key must exceed the block's previous key, its
    last key becomes the new one, and a polygon of more than one point needs
    L > 0.  Every f of a block shares the block's top n coefficients, so
    the tops are all that _check_pieces needs.  At m = 2 a block is one
    column, and _region checks its region of columns in the same way.
    """
    (d, H, monic, (m, n), items, excluded, budget) = args
    cut = tuple(e for e in excluded if n % e == 0 and e < n)
    kernel = tuple(k for k in excluded if gcd(k, n) not in cut)
    if m == 2 and any(k != 2 or n % 2 == 0 for k in kernel):
        raise ValueError(f"split (2,{n}) tests only the inner degree 2, for n odd")

    base = 2 * H + 1
    bp = [0] + [base**e for e in range(d)]  # bp[j]: the weight of x^j in a key
    key_h = H * sum(bp)  # the key of the zero polynomial
    candidates: dict = {}
    tops: list = []
    pairs = away = polygons = walked = 0
    # _coprime_rule decides per inner when every kernel degree is coprime to n
    coprime = bool(kernel) and all(gcd(k, n) == 1 and d % k == 0 for k in kernel)
    upper = drop = None  # the last inner's b_2..b_n, and the b_1 that the cut drops under it

    for item in items:
        if limit is not None and polygons >= limit:
            break
        walked += 1
        if m == 2:
            columns, count, gone = _region(item, H, monic, cut, kernel, tops, candidates)
            polygons += columns
            pairs += count
            away += gone
            if pairs > budget:
                raise _pairs_budget_error(budget, m, n, H)
            continue
        h, sq = item
        if cut:
            if h[2:] != upper:
                upper = h[2:]
                drop = _cut_columns((0, 0) + upper, cut, candidates)
            if h[1] in drop:
                continue
        # the orbit of each pair under sigma (h not sigma-fixed) and tau (not monic)
        w = (2 if any(h[n - 1 :: -2]) else 1) * (1 if monic else 2)
        s = sq + (0,) * (d - 2 * n)
        hkf = sum(map(times, h, bp))
        skf = sum(map(times, s, bp))
        rule = False  # the inner's exclusion rule, decided at its first polygon
        block = None  # the outer lead of the current block
        last = -1  # the largest key emitted so far in the current block
        for P, prefix, rows, first, final in _walk_outer(h, sq, m, H, monic):
            polygons += 1
            count = polygon_count(rows, first, final, H)
            key0 = key_h + sum(map(times, P, bp))
            key = key0 + first[0] * skf + first[1] * hkf
            if prefix[0] != block:
                # first polygon of a new block
                block, last = prefix[0], -1
                tops.append(tuple(p + first[0] * t for p, t in zip(P[d - n + 1 :], s[d - n + 1 :])))
            if key <= last or (count > 1 and h[n] <= 0):
                raise _uniqueness_error(m, n, H, "keys not increasing within a block")
            last = key0 + final[0] * skf + final[1] * hkf
            if kernel and rule is False:
                # the kernel decides per polygon (None), or nothing is excluded
                # (()), or the k = 2 closed form of _coprime_rule
                rule = _coprime_rule(h, m, kernel) if coprime else None
            if rule:
                away += w * _line_away(rule, prefix, rows, first, final, H)
            elif rule is None:
                got = decomposable_on_span(P, (sq, h), kernel, candidates)
                away += w * (count if got is None else union_count(rows, first, final, H, *got))
            pairs += w * count
            if pairs > budget:
                raise _pairs_budget_error(budget, m, n, H)
    del items[:walked]
    return pairs, 0, None, away, tops


def _region(
    item, H: int, monic: bool, cut: Sequence[int], kernel: Sequence[int],
    tops: list, candidates: dict,
) -> Tuple[int, ...]:
    """(columns, pairs, away) of one (2, n) prefix item of _h_candidates,
    over the non-empty columns that _columns yields under the cut (memoized
    in candidates), with the top of each column appended to tops; pairs and
    away count the orbit weights of _run_chunk.

    Weights.  sigma fixes h = h0 + b_1 x exactly when every b_j with n - j
    odd is 0: those of the prefix, and b_1 too when n is even.  tau doubles
    every column when f is not monic.

    Exclusion.  kernel is () or (2,) with n odd, and then _coprime_rule's
    k = 2 closed form applies per column.  The centred h~ of h is odd
    exactly when _centred's c_j vanish for the even j = 2..n-1, which b_1
    does not reach (it moves only c_1 and c_0), so the prefix decides it.
    Then gamma = c_0/D^n, D = nL, is linear in b_1: with c = _centred(h0),
    the c_0 of h is c[0] - b_(n-1) D^(n-1) b_1.  The one line of m = 2
    leaves each column the one point a_1 = -2 a_2 gamma, if it is an
    integer in [lo_1, hi_1].

    Uniqueness re-check.  A column is one inner with one outer lead, a
    block of _run_chunk, whose top is (a_2 [h^2]_(n+1), .., a_2 [h^2]_2n)
    and whose a_1 steps raise x^n by L > 0.  Within one a_2, the columns
    come b_1 rising, and only [f]_(n+1) = a_2 (C_(n+1) + 2 L b_1) moves
    among the tops: it must strictly increase.
    """
    h0, sq0 = item[:2]
    n = len(h0) - 1
    L = h0[n]
    tau = 1 if monic else 2
    moved = any(h0[n - 1 :: -2])  # sigma moves the prefix
    even = n % 2 == 0
    line = None
    if kernel:
        c, e = _centred(h0)
        if not any(c[2:n:2]):
            line = (c[0], h0[n - 1] * (e // (n * L)), e)
    columns = pairs = away = 0
    lead = None  # the a_2 of the current run of columns
    for a2, b1, lo1, hi1 in _columns(item, H, monic, cut, candidates):
        count = hi1 - lo1 + 1
        f1 = a2 * (sq0[n + 1] + 2 * L * b1)
        if a2 != lead:
            lead, last, upper = a2, None, tuple(a2 * s for s in sq0[n + 2 :])
        if last is not None and f1 <= last or count > 1 and L <= 0:
            raise _uniqueness_error(2, n, H, "keys not increasing within a block")
        last = f1
        tops.append((f1,) + upper)
        w = tau * (2 if moved or even and b1 else 1)
        if line:
            a1, r = divmod(-2 * a2 * (line[0] - line[1] * b1), line[2])
            if not r and lo1 <= a1 <= hi1:
                away += w
        columns += 1
        pairs += w * count
    return columns, pairs, away


def _check_pieces(m: int, n: int, H: int, chunks) -> None:
    """The cross-chunk uniqueness re-check of a split over the tops of its
    chunks; RuntimeError when it fails.

    Each chunk walks whole inners, so every block lies in one chunk, and
    the blocks must have distinct tops, which makes them disjoint.  With
    _run_chunk's check inside each block, passing proves that the pairs
    give pairwise distinct polynomials.
    """
    tops = [t for chunk in chunks for t in chunk]
    distinct = len(set(tops))
    if distinct != len(tops):
        raise _uniqueness_error(
            m, n, H, f"{len(tops)} non-empty blocks but {distinct} distinct top coefficients"
        )


def _run_split(d, H, monic, split, workers, excluded, budget, *, pool, power_away):
    """Enumerate one split, in process and, past _POOL_AFTER non-empty
    polygons, on the query's pool; merge the chunk results.

    power_away is the plan's rule for the inner x^n (count_forward decides
    it): None walks x^n with the other inners, and an int counts it in
    closed form with that many pairs excluded: x^n is one item of
    _h_candidates, since L x^n with L >= 2 is imprimitive.  The x^n of
    m = 2, the column b_1 = 0 of the zero prefix, is walked: it costs no
    more than any other column.  Each chunk refuses once its own pairs
    exceed the budget, and the merged pairs, x^n's included, are checked
    against it once more, so a split is refused exactly when its true total
    exceeds the budget.  check_budget has
    already refused x^n's pairs alone past the budget: every split that
    counts x^n in closed form has the query's largest outer degree.

    The calling process walks the inners in order with one _run_chunk call,
    which consumes them: all of them when k = min(workers, os.cpu_count())
    is below 2, and otherwise those up to the first inner boundary past
    _POOL_AFTER non-empty polygons.  The inners it leaves are cut into at
    most k * _BATCHES_PER_WORKER runs (_batches) for the query's pool, whose
    k processes take them as they free up.  pool is the query's list that
    holds that pool once the first split that needs it has started it
    (_start_pool).  Every count is a sum over the inners, so where they run
    never changes it.

    Returns (pairs, 0, None, away), summed over x^n and the chunks;
    pairs - away counts the pairs whose polynomial does not also decompose
    with an inner degree in excluded.  Each chunk gets the whole excluded
    and drops the inners that decompose with a degree e | n, e < n, of it
    (_run_chunk), so neither pairs nor the budget count theirs.  The 0 and
    None slots keep the 4-tuple that perfbench/tracer.py unpacks.

    Completes the uniqueness re-check of _run_chunk for every split, variant
    and worker count: _check_pieces runs over the tops of x^n and of every
    chunk.
    """
    m, n = split
    items = _h_candidates(m, n, H, monic)
    pairs = away = 0
    tops: list = []
    power = ((0,) * n + (1,), (0,) * (2 * n) + (1,))  # (x^n, x^2n)
    if power_away is not None and m > 2 and power in items:
        items.remove(power)  # x^n's one item, counted in closed form
        leads = [1] if monic else [a for a in range(-H, H + 1) if a]
        pairs, away = _box_size(m - 1, H, monic), power_away
        tops = [(0,) * (n - 1) + (a,) for a in leads]
    k = min(workers, os.cpu_count() or 1)
    limit = _POOL_AFTER if k > 1 else None
    results = [_run_chunk((d, H, monic, split, items, excluded, budget), limit=limit)]
    if items:  # the inners the calling process left
        if not pool:
            pool.append(_start_pool(k))
        batches = _batches(items, k * _BATCHES_PER_WORKER)
        results += pool[0].map(_run_chunk, [(d, H, monic, split, b, excluded, budget) for b in batches])

    pairs += sum(r[0] for r in results)
    away += sum(r[3] for r in results)
    if pairs > budget:
        raise _pairs_budget_error(budget, m, n, H)
    _check_pieces(m, n, H, [tops] + [r[4] for r in results])
    return pairs, 0, None, away


def _plan(q: CountQuery) -> List[Tuple[Tuple[int, int], Tuple[int, ...]]]:
    """The (split, excluded inner degrees) of a composite-degree forward
    query, in walk order; count_forward proves what each variant excludes."""
    d = q.d
    if q.variant == "split":
        return [(q.split, ())]
    degrees = _inner_degrees(d)
    if q.variant == "indecomp_pair":
        ell = spf(d)
        return [((d // ell, ell), tuple(k for k in degrees if k % ell == 0 and k > ell))]
    return [(s, tuple(k for k in degrees if k < s[1])) for s in ordered_splits(d)]


def check_budget(q: CountQuery, method: str, budget: Optional[int] = None) -> None:
    """Raise BudgetError if q is refused up front by method, forward or oracle.

    Both count functions call it first, and a caller can run it over a whole
    grid of queries before it writes any output.  Neither test builds a
    power whose exponent grows with d before a bit-length test passes, and
    neither lists a divisor of d: count_forward lists the plan (_plan) only
    after the query passes.
    """
    if method == "oracle":
        if budget is None:
            budget = DEFAULT_ORACLE_BUDGET
        # The box has at least (2H+1)^d > 2^d polynomials, so a degree above
        # budget.bit_length() is refused without building the power.
        if q.d > budget.bit_length() or _box_size(q.d, q.H, q.monic) > budget:
            raise BudgetError(
                f"brute-force box of degree {q.d} at H={q.H} has more polynomials than "
                f"the budget of {budget}; raise --budget to force"
            )
        return
    if budget is None:
        budget = DEFAULT_SET_BUDGET
    d, H = q.d, q.H
    ell = spf(d)
    if ell == d:
        return  # prime degree: the count is 0 with no enumeration
    # The outer polynomials g of height <= H over h = x^n alone give every
    # split (m, n) this many witness pairs, so a query whose largest outer
    # degree exceeds the budget here would be refused later in any case.
    # As 2H+1 > 2, m_max > budget.bit_length() refuses without the power.
    m_max = q.split[0] if q.variant == "split" else d // ell
    if m_max > budget.bit_length() or _box_size(m_max - 1, H, q.monic) > budget:
        raise BudgetError(
            f"split ({m_max},{d // m_max}) at H={H} has more witness pairs than the "
            f"budget of {budget}; raise --budget"
        )
    # _h_candidates gives each inner coefficient b_(n-1)..b_1 of a lead L at
    # most w = 2H//m + 1 values: the top coefficient of f that b_j fixes is
    # c + m L^(m-1) b_j in [-H, H], a window of at most 2H//(m L^(m-1)) + 1
    # integers, as floor(x) + floor(y) <= floor(x + y).  So it tests at most
    # leads * w^(n-1) tuples (b_(n-1), .., b_1), leads <= floor(H^(1/m)), and
    # w^(n-1) >= 2^(n-1) refuses a long inner without the power.  Only a
    # split query can fail this: every split (m, n) that a total or an
    # indecomp_pair plans has n <= m_max, w <= 2H+1 and leads <= 2H, so the
    # refusal above implies the bound.
    if q.variant == "split":
        m, n = q.split
        w = 2 * H // m + 1
        leads = 1 if q.monic else _int_root(H, m)
        if (w > 1 and n > budget.bit_length()) or leads * w ** (n - 1) > budget:
            raise BudgetError(
                f"inner search of split ({m},{n}) at H={H} tests more candidates than the "
                f"budget of {budget}; raise --budget"
            )


def count_forward(q: CountQuery, workers: int = 1, budget: Optional[int] = None) -> CountResult:
    """Constructive count: enumerate witness pairs, scale by 2H+1.

    The count is exact and independent of the worker count.  With
    min(workers, os.cpu_count()) = k >= 2, the query has at most one pool of
    k processes, started by the first split that walks more than
    _POOL_AFTER non-empty polygons (_run_split); it is shut down, its
    pending batches cancelled, before count_forward returns or raises.  Prime degrees
    return 0 immediately, and check_budget runs before the splits are
    listed.  Each variant is a plan (_plan) of (split, excluded inner
    degrees n' | d) and counts 2H+1 times the pairs of its splits whose
    polynomial does not also decompose with an excluded degree.  split
    excludes nothing.  total runs every (d/n, n) and excludes n' < n, so f
    counts once, at its smallest inner degree.  indecomp_pair runs the
    dominant split (d/l, l), l = spf(d), and excludes the n' > l with
    l | n', which leaves exactly the pairs with g indecomposable: if
    g = g1(g2), then f = g1(g2(h)) has an inner of degree l*deg g2;
    conversely, if f = G(K) with deg K = n', then Engstrom's theorem
    ("Polynomial substitutions", 1941) gives h and K, in characteristic 0, a
    common right component of degree gcd(l, n') = l: h up to a linear map.
    So K = u(h), and cancelling h gives g = G(u) with deg G, deg u >= 2; the
    kernel's verdict is conclusive over the complex numbers.  Without l | n'
    this fails: x^6 = x^3(x^2) = x^2(x^3), and x^3 is indecomposable.

    The same theorem makes most of a split's exclusion a property of the
    inner alone.  Let the split (m, n) exclude E and let cut = {e in E :
    e | n, e < n}.  If h = u(w) with deg w = e in cut, every f = g(h) =
    (g(u))(w) decomposes with an inner of degree e, so every pair of h is
    excluded: the chunk drops h (_run_chunk, and _columns at m = 2), and
    neither its pairs nor its exclusions are counted.  If h has no such
    right component and f = G(K) with deg K = k in E, Engstrom gives h and K
    a common right component of degree gcd(k, n), so gcd(k, n) is not in
    cut; the kernel runs only for those k.  A total's cut is every divisor e
    of n with 1 < e < n (each is below n and divides d), so its splits
    (2, 4) and (2, 6) need no kernel; indecomp_pair has n = l prime and an
    empty cut, and split an empty E.

    Ritt's second theorem decides the rest of a total's exclusion per inner
    (_coprime_rule).  Its kernel degrees k have gcd(k, n) = 1, so k | m.
    Let L = lead(h), s = -b_(n-1)/(nL), gamma = h(s), h~(x) = h(x+s) - gamma
    and g_gamma(y) = g(y + gamma), so that f(x + s) = g_gamma(h~(x)).
      * k = 2, n odd.  f = G(K) with deg K = 2 exactly when f is symmetric
        about some t, f(t + x) = f(t - x), and then t is the mean of the
        roots of f, -[f]_(d-1)/(d lead f) = -m a_m L^(m-1) b_(n-1)/(d a_m L^m)
        = s.  So the pair is excluded iff F(x) = g_gamma(h~(x)) is even.  If
        h~ is odd and g_gamma even, F is even.  Conversely, if F is even,
        g_gamma(h~(x)) and g_gamma(h~(-x)) are two decompositions of F with
        inner degree n, whose normalized inner is unique (the decompose
        module docstring), so h~(-x) = (-1)^n h~(x) = -h~(x); then
        g_gamma(-y) = g_gamma(y) at the infinitely many values y of h~, and
        g_gamma is even.  So an inner whose h~ is not odd excludes nothing,
        and for the others a pair is excluded iff the odd coefficients of
        g_gamma vanish: those of y^3, y^5, .. read only a_m..a_3, so they
        decide a polygon whole, and that of y^1 leaves the line
        a_1 + 2 gamma a_2 + sum_(i>=3) i gamma^(i-1) a_i = 0.
      * k >= 3.  By Engstrom, f = F(M) with M = a(h) = c(K), deg M = kn,
        deg a = deg K = k and deg c = deg h = n.  As gcd(k, n) = 1, Ritt's
        second theorem (J. F. Ritt, "Prime and composite polynomials", 1922;
        Zieve and Mueller, "On Ritt's polynomial decomposition theorems",
        2008) makes h, up to linear maps on both sides, a v that is
        x^r P(x^k), x^n among them, or the Chebyshev polynomial T_n.  No
        such v has an x^(n-1) term (k >= 2, and T_n has the parity of n),
        so h = lam v(alpha x + beta) + mu has
        b_(n-1)/(nL) = beta/alpha, that is s = -beta/alpha, and
        h~ = lam (v(alpha x) - v(0)): all its exponents are n (mod k), or it
        is a scaled T_n less its constant (_chebyshev_shape).  An inner of
        neither shape excludes nothing with degree k; one of either shape
        keeps the kernel, for all of the split's degrees.
    So per inner the union over the degrees is nothing, the k = 2 line, or
    the kernel's verdict per polygon.

    The inner x^n is counted in closed form (_run_split) under the rule
    that count_forward hands each split as power_away.  f = g(x^n) has
    [f]_(kn) = a_k and every other coefficient 0, so f is in the height box
    exactly when g is, and the pairs of x^n are every outer g with g(0) = 0
    and height <= H: (2H+1)^(m-1) of them when monic, 2H (2H+1)^(m-1)
    otherwise (L x^n with L >= 2 is imprimitive, never an inner).  Its
    blocks, one per outer lead a, have the tops (0, .., 0, a); every other
    inner has some b_j != 0, j < n, and for the largest such j
    [f]_((m-1)n+j) = a_m m L^(m-1) b_j != 0, so the tops stay distinct.
    What it excludes, the rule:
      * 0 when the split excludes nothing: every split variant, and the
        dominant split (d/l, l) of a total (no inner degree is below l);
      * for indecomp_pair, whose kernel is {l j : j | m, 1 < j < m}: by the
        argument above, exactly the pairs with g decomposable.
        Decomposability ignores the constant term, so these are the total
        count at degree m, the same H and regime, divided by 2H+1; it is 0
        at once when m is prime.  That count runs at one worker, so the
        query keeps one pool.
      * None, walk x^n, in a total's other splits (d/p, p): x^p, p prime,
        p > l, keeps its kernel, and for p composite the cut drops x^p.

    Sign symmetries.  sigma maps a normalized pair (g, h) to (g', h') with
    h'_j = (-1)^(n-j) h_j and g'_k = e (-1)^(nk) g_k, e = (-1)^d if monic
    else 1; then g'(h') = e f(-x).  It keeps h(0) = 0, lead(h), content and
    heights, and lead(g) = 1 in the monic regime, so it is an involution,
    hence a bijection, on the normalized pairs of the height box.  tau maps
    (g, h) to (-g, h) for non-monic f and fixes no pair.  f = G(K) gives
    f(-x) = G(K(-x)) and -f = (-G)(K), so both keep decomposability with
    every inner degree, the right components of h (so the cut) and the
    exclusion of every split.  sigma(g, h) has the inner h' != h unless h is
    sigma-fixed, so the pairs of the non-fixed inners come in pairs {h, h'},
    one sigma-canonical, and tau pairs the leads a_m and -a_m.  So the walk
    takes the canonical inners and, when f is not monic, the positive leads,
    and counts each polygon's pairs and exclusions times its orbit size.
    This stays exact even where a cut drops one side of an orbit only: a
    cut drops inners that count nothing (no pair, or every pair excluded),
    and by the bijection the image of such an inner counts nothing either.
    The uniqueness re-check covers the walked blocks, whose images are the
    rest.
    """
    t0 = time.perf_counter()
    if budget is None:
        budget = DEFAULT_SET_BUDGET
    check_budget(q, "forward", budget)
    d, H, monic = q.d, q.H, q.monic
    if spf(d) == d:
        return CountResult(0, q, "forward", time.perf_counter() - t0, workers)
    count = 0
    pool: list = []  # the query's one pool, started by the first split that needs it
    try:
        for split, excluded in _plan(q):
            if q.variant == "indecomp_pair":
                total = count_forward(CountQuery(split[0], H, monic, "total"), budget=budget)
                power_away = total.count // (2 * H + 1)
            else:
                power_away = None if excluded else 0
            pairs, _, _, away = _run_split(
                d, H, monic, split, workers, excluded, budget, pool=pool, power_away=power_away
            )
            count += pairs - away
    finally:
        for p in pool:
            p.shutdown(cancel_futures=True)
    return CountResult(count * (2 * H + 1), q, "forward", time.perf_counter() - t0, workers)


def iter_decompositions(
    d: int, H: int, monic: bool, split: Tuple[int, int]
) -> Iterator[Tuple[Poly, Poly]]:
    """Yield every enumerated witness pair (g, h) for one split.

    The pairs come polygon by polygon as _walk_outer builds them, each
    polygon row by row (a_2 rising, then a_1 rising); a polygon is built
    only when the pairs before it have been drawn.  For m = 2 they come
    prefix by prefix of _h_candidates, in the order (prefix, a_2, b_1, a_1)
    of _columns, one column at a time.  Each walked pair is
    followed by the pairs that count_forward counts with it (_orbit), so
    every pair of the split comes exactly once.  The outer polynomial
    is produced with constant term 0; the full family per pair ranges over
    all constants in [-H, H].  Intended for inequality sweeps and tests,
    not for counting.
    """
    m, n = split
    items = _h_candidates(m, n, H, monic)
    if m == 2:
        for item in items:
            for a2, b1, lo1, hi1 in _columns(item, H, monic, (), {}):
                h = (0, b1) + item[0][2:]
                for a in range(lo1, hi1 + 1):
                    yield from _orbit((0, a, a2), h, monic)
        return
    for h, sq in items:
        for P, prefix, rows, first, last in _walk_outer(h, sq, m, H, monic):
            tail = tuple(reversed(prefix))
            for a2, lo1, hi1 in polygon_rows(rows, first, last, H):
                for a in range(lo1, hi1 + 1):
                    yield from _orbit((0, a, a2) + tail, h, monic)


def _orbit(g: Poly, h: Poly, monic: bool) -> List[Tuple[Poly, Poly]]:
    """The walked pair (g, h) and the pairs count_forward counts with it:
    sigma(g, h) unless h is sigma-fixed, then the tau image of each unless
    monic (count_forward has the maps)."""
    m, n = len(g) - 1, len(h) - 1
    out = [(g, h)]
    if any(h[n - 1 :: -2]):
        e = (-1) ** (m * n) if monic else 1
        out.append((
            tuple(e * (-1) ** (n * k) * c for k, c in enumerate(g)),
            tuple((-1) ** (n - j) * c for j, c in enumerate(h)),
        ))
    if not monic:
        out += [(tuple(-c for c in g2), h2) for g2, h2 in out]
    return out


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _box_size(d: int, H: int, monic: bool) -> int:
    """The polynomials of degree d and height at most H (monic or not)."""
    side = 2 * H + 1
    return side**d if monic else 2 * H * side**d


def _block_masks(ranges: Sequence[range], c: int, n: int) -> Iterator[tuple]:
    """Yield (top, mask) for every block of the box that holds a split hit.

    The box is lead c times ranges[d-1] x .. x ranges[0], ranges[i] the
    values of f_i.  A block fixes top = (f_(d-1), .., f_(d-n+1)); mask is a
    bool array over its axes f_(d-n), .., f_1, True exactly where f is
    (d/n, n)-decomposable, whatever f_0: f - f_0 = (g - g_0)(h), so no row
    reads f_0.  Blocks without a hit are not yielded.

    Why the mask is decompose_split(f, m, n) is not None, m = d/n: f
    decomposes exactly when its monic conjugate F, F_i = f_i c^(d-1-i),
    does, and F does iff the solve of _integer_candidate on F's top
    coefficients (shared by the whole block) gives an integral K and the
    non-constant parts of F's K-adic digits 0..m-2 vanish; the decompose
    module docstring holds the proof.  Those parts are (m-1)(n-1)
    integer-linear equations A_K (f_1..f_(d-n)) + b_K = 0, where column j
    of A_K holds those parts of c^(d-1-j) x^j and b_K those of F's fixed
    top x^d + sum_(i>d-n) F_i x^i.

    One row at a time is evaluated by broadcasting over the block's axes
    f_(d-n)..f_1 and ANDed into the mask; an emptied mask ends the block.
    The exact bound max_k (sum_j |A_kj| max|f_j| + |b_k|) on every partial
    sum decides the dtype: int64 below _INT64_LIMIT, where nothing can wrap,
    and Python ints (dtype=object) otherwise, through the same expression.
    """
    import numpy as np

    d = len(ranges)
    m, low = d // n, d - n + 1  # f_1..f_(d-n) vary inside a block
    conj = [c ** (d - 1 - i) for i in range(d)]
    shape = tuple(len(ranges[i]) for i in range(low - 1, 0, -1))
    reach = [max(abs(r[0]), abs(r[-1])) for r in ranges]
    for top in product(*(ranges[i] for i in range(d - 1, low - 1, -1))):
        F = [0] * low + [conj[i] * t for i, t in zip(range(low, d), reversed(top))] + [1]
        K = _integer_candidate(tuple(F), m, n)
        if K is None:
            continue
        b = [v for r in _adic_digits(tuple(F), K, m - 1) for v in r[1:]]
        cols = [
            [conj[j] * v for r in _adic_digits((0,) * j + (1,), K, m - 1) for v in r[1:]]
            for j in range(1, low)
        ]
        bound = max(
            abs(bk) + sum(abs(col[k]) * reach[j] for j, col in enumerate(cols, 1))
            for k, bk in enumerate(b)
        )
        dtype = np.int64 if bound < _INT64_LIMIT else object
        mask = None
        for k, bk in enumerate(b):
            # row k over the block; the pivot x^(kn+t) makes it non-empty
            v = None
            for j, col in enumerate(cols, 1):
                a, r = col[k], ranges[j]
                if a:
                    # a*f_j on axis -j (f_1 last), b_k folded into the first term
                    off = bk if v is None else 0
                    t = np.array(range(a * r[0] + off, a * (r[-1] + 1) + off, a), dtype=dtype)
                    t = t.reshape((-1,) + (1,) * (j - 1))
                    v = t if v is None else v + t
            if mask is None:
                mask = np.zeros(shape, dtype=bool)
                mask |= v == 0
            else:
                mask &= v == 0
            if not np.count_nonzero(mask):
                break
        else:
            yield top, mask


def _oracle_count(
    ranges: Sequence[range], leads: Sequence[int], variant: str,
    split: Optional[Tuple[int, int]] = None,
) -> int:
    """Decomposable polynomials in the box leads x ranges[d-1] x .. x ranges[0].

    Per lead, the masks of the variant's inner degrees (n of split (m, n),
    every n of _inner_degrees(d) for total, l = spf(d) for indecomp_pair) are
    ORed into one bool per polynomial modulo f_0, which no mask reads, so each
    hit stands for len(ranges[0]) polynomials.  indecomp_pair keeps only the
    hits whose outer part, of the split (d/l, l), is indecomposable, decided
    on the one f of the hit with f_0 = ranges[0][0].
    """
    import numpy as np

    d = len(ranges)
    if not _inner_degrees(d):
        return 0
    if variant == "split":
        degrees = [split[1]]
    elif variant == "total":
        degrees = _inner_degrees(d)
    else:
        degrees = [spf(d)]
    shape = tuple(len(r) for r in reversed(ranges[1:]))  # axes f_(d-1)..f_1
    hits = 0
    for c in leads:
        hit = np.zeros(shape, dtype=bool)
        for n in degrees:
            for top, mask in _block_masks(ranges, c, n):
                at = tuple(t - ranges[i][0] for i, t in zip(range(d - 1, 0, -1), top))
                hit[at] |= mask
        if variant != "indecomp_pair":
            hits += int(np.count_nonzero(hit))
            continue
        for idx in zip(*np.nonzero(hit)):
            f = (ranges[0][0],) + tuple(r[i] for r, i in zip(ranges[1:], reversed(idx))) + (c,)
            w = decompose_split(f, d // degrees[0], degrees[0])
            if w is None:
                raise RuntimeError(f"block test and decompose_split disagree on f={f}")
            hits += not is_decomposable(w.g)
    return len(ranges[0]) * hits


def count_bruteforce(q: CountQuery, budget: Optional[int] = None) -> CountResult:
    """Oracle count: decide every polynomial of the height box, block by block.

    No forward-enumeration bound or witness is used: every f of the box gets
    its own mask entry from the exact block test of _block_masks, which is
    equivalent to decompose_split(f, m, n) is not None.
    """
    t0 = time.perf_counter()
    check_budget(q, "oracle", budget)
    H = q.H
    leads = [1] if q.monic else [a for a in range(-H, H + 1) if a]
    count = _oracle_count([range(-H, H + 1)] * q.d, leads, q.variant, q.split)
    return CountResult(count, q, "oracle", time.perf_counter() - t0, 1)
