"""Decide and construct functional decompositions f = g(h(x)) over the integers.

Every split (m, n) = (deg g, deg h) of every f goes through one integer
kernel.  With c = lead(f) and d = m*n, the monic conjugate

    F(x) = c**(d-1) * f(x/c),   F_i = f_i * c**(d-1-i),

has integer coefficients and decomposes exactly when f does, as x -> c*x
carries decompositions of f to those of F and back (F = f when c = 1).  On
F the test runs in two exact stages:

1. Solve for the unique monic candidate inner K with K(0) = 0 whose top
   coefficients match F (a triangular solve).  The candidate of a
   decomposable monic polynomial is integral, so a division remainder
   rejects the split.
2. Expand F in powers of K by synthetic division; F = G(K) exactly when
   every expansion coefficient is a constant, and the first non-constant
   one ends the test.

Why K and the digits 0..m-2 decide (m, n)-decomposability.  Every
decomposition of F can be normalized to F = G(K) with K monic, K(0) = 0
(an affine change of the inner), and then K is unique: F and K^m agree on
x^(d-1)..x^(d-n+1), which fixes K's coefficients one by one, the triangular
solve of _integer_candidate.  For a decomposable F that K is integral (its
factors K - beta over the roots beta of G have algebraic-integer
coefficients), so a None from the solve rejects every F that shares those
top coefficients.  Otherwise expand F in the unique K-adic form
F = sum_k r_k K^k with deg r_k < n; the r_k are integral as K is monic,
and F = G(K) for some G iff every digit r_k is a constant.  Three facts
leave digits 0..m-2:
  * F is monic of degree mn = deg K^m, so its digit m is 1 and it has no
    digit above m;
  * F - K^m has degree at most (m-1)n, as K is built from F's top
    coefficients, so F's digit m-1, which is that of F - K^m, has degree
    at most 0: a constant;
  * the digits are linear in F, and F_0 (x^0 = 1) reaches only the
    constant of digit 0.
So F decomposes iff the non-constant parts of its digits 0..m-2 vanish:
(m-1)(n-1) equations, linear in the coefficients F_1..F_(d-n) that K does
not read.  decomposable_on_span solves them over a whole polygon of the
forward count, the points f0 + a_2*v_2 + a_1*v_1 (the candidate does not
depend on a, and the digits are linear in a), and census._block_masks
evaluates them over a block of the oracle's box.

A decomposition over the complex numbers forces the candidate, and an
integer witness exists whenever a complex one does, so a failed test is
conclusive.  Witnesses are mapped back to a canonical gauge: h(0) = 0,
h is the minimal positive integer multiple of the monic rational candidate
K(c*x)/c**n of f (so lead(h) > 0, and monic f gets monic g and h), and
every returned witness is recomposed and checked against f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import mul as times
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .asymptotics import spf
from .lattice import crossing
from .poly_core import (
    Poly,
    compose,
    degree,
    lead,
    poly_pow,
)


class DecompositionError(RuntimeError):
    """A witness was found but integer normalization failed.

    This signals a bug or a violated uniqueness assumption, never an
    indecomposable input.
    """


@dataclass(frozen=True)
class Decomposition:
    """A normalized witness pair: f = g(h(x)) with split (deg g, deg h)."""

    g: Poly
    h: Poly
    split: Tuple[int, int]

    def __post_init__(self):
        m, n = self.split
        if degree(self.g) != m or degree(self.h) != n:
            raise ValueError("witness degrees do not match the split")
        if m < 2 or n < 2:
            raise ValueError("split parts must both be >= 2")
        if self.h[0] != 0:
            raise ValueError("inner witness must vanish at 0")
        if lead(self.h) <= 0:
            raise ValueError("inner witness must have positive leading coefficient")


def _adic_digits(p: Poly, K: Poly, k: int) -> Iterator[Poly]:
    """The K-adic digits 0..k-1 of p (K monic), each padded to deg K entries."""
    n = len(K) - 1
    p = list(p)
    for _ in range(k):
        # synthetic division in place: p[n:] becomes the quotient, p[:n] the
        # remainder, as each p[i] is final when the loop reaches it
        for i in range(len(p) - 1, n - 1, -1):
            c = p[i]
            if c:
                for j in range(n):
                    p[i - n + j] -= c * K[j]
        yield tuple(p[:n]) + (0,) * (n - len(p))
        p = p[n:]


def _check_split(f, m, n):
    if m < 2 or n < 2:
        raise ValueError("split parts must both be >= 2")
    if degree(f) != m * n:
        raise ValueError(f"degree {degree(f)} does not match split ({m},{n})")


def _monic_conjugate(f: Poly) -> Poly:
    """c**(d-1) * f(x/c) for c = lead(f), d = deg f: monic and integral."""
    c = f[-1]
    if c == 1:
        return tuple(f)
    d = degree(f)
    return tuple(f[i] * c ** (d - 1 - i) for i in range(d)) + (1,)


def _integer_candidate(F: Poly, m: int, n: int) -> Optional[Poly]:
    """The candidate inner K of a monic F for the split (m, n), or None.

    K is monic with K(0) = 0, and F and K**m agree on x**(d-1)..x**(d-n+1).
    The candidate of a decomposable monic F is integral (see the module
    docstring), so any division remainder in the solve rejects the split.
    """
    d = m * n
    bs = [0] * (n + 1)
    bs[n] = 1
    for k in range(1, n):
        hm = poly_pow(tuple(bs), m)
        b, r = divmod(F[d - k] - hm[d - k], m)
        if r:
            return None
        bs[n - k] = b
    return tuple(bs)


def _candidate(F: Poly, m: int, n: int, candidates: dict) -> Optional[Poly]:
    """_integer_candidate(F, m, n), memoized in candidates by the coefficients
    x**(d-n+1)..x**(d-1) of F that it reads."""
    d = m * n
    key = (m, n, F[d - n + 1 : d])
    if key not in candidates:
        candidates[key] = _integer_candidate(F, m, n)
    return candidates[key]


def _unconjugate(G: Poly, K: Poly, c: int, m: int, n: int) -> Tuple[Poly, Poly]:
    """Map a witness F = G(K) of the monic conjugate back to f's canonical gauge.

    The monic rational candidate of f is K(c*x)/c**n, with coefficients
    K_j / c**(n-j); h is its multiple by L, the lcm of their reduced
    denominators, and then f = g(h) forces g_i = G_i * c**(n*i) /
    (c**(d-1) * L**i), integral whenever f is decomposable.
    """
    d = m * n
    L = 1
    for j in range(1, n):
        q = c ** (n - j)
        L = lcm(L, abs(q) // gcd(K[j], q))
    h = tuple(L * K[j] // c ** (n - j) for j in range(n)) + (L,)
    g = []
    for i, Gi in enumerate(G):
        v, r = divmod(Gi * c ** (n * i), c ** (d - 1) * L**i)
        if r:
            raise DecompositionError(
                f"integer normalization of the outer witness failed for split ({m},{n})"
            )
        g.append(v)
    return tuple(g), h


def decompose_split(f: Poly, m: int, n: int) -> Optional[Decomposition]:
    """Witness f = g(h(x)) with deg g = m, deg h = n, or None.

    The returned witness is canonical: h(0) = 0, lead(h) > 0, and h is the
    minimal positive integer multiple of the monic rational candidate (monic
    f therefore gets monic g and h).  None means no such decomposition
    exists over the complex numbers, hence none over the integers.
    """
    _check_split(f, m, n)
    F = _monic_conjugate(f)
    K = _integer_candidate(F, m, n)
    if K is None:
        return None
    G = []
    for r in _adic_digits(F, K, m + 1):
        if any(r[1:]):
            return None
        G.append(r[0])
    g, h = _unconjugate(tuple(G), K, f[-1], m, n)
    if compose(g, h) != f:
        raise DecompositionError(
            f"witness recomposition mismatch for f={f}, split=({m},{n})"
        )
    return Decomposition(g, h, (m, n))


@lru_cache(maxsize=None)
def _inner_degrees(d: int) -> Tuple[int, ...]:
    """Candidate inner degrees for d, primes first, each ascending."""
    divs = [n for n in range(2, d // 2 + 1) if d % n == 0]
    return tuple(sorted(divs, key=lambda n: (spf(n) != n, n)))


def is_decomposable(f: Poly) -> bool:
    """True iff f = g(h(x)) for some g, h of degree >= 2.

    Every ordered split is tried until one yields a witness; a prime
    degree has none.
    """
    d = degree(f)
    if d < 2:
        raise ValueError("decomposability needs degree >= 2")
    return any(decompose_split(f, d // n, n) is not None for n in _inner_degrees(d))


def _solve(eqs):
    """The integer solutions a in Z^k (k = len(w) = 1 or 2) of the equations
    b + w.a = 0 for (b, w) in eqs: None for all of Z^k, else a set of at most
    one point, or for k = 2 the line (w_2, w_1, c), w_2 a_2 + w_1 a_1 = c.

    Each equation is made primitive (gcd(w) = 1, first non-zero w positive),
    so equal lines are equal triples and distinct ones are parallel (no
    common point) or cross in one rational point.
    """
    got = None
    for b, w in eqs:
        g = gcd(*w)
        if not g:
            if b:
                return set()
            continue
        if b % g:
            return set()
        if w[0] < 0 or not w[0] and w[-1] < 0:
            g = -g
        w, c = tuple(x // g for x in w), -b // g
        if got is None:
            got = {(c,)} if len(w) == 1 else w + (c,)
        elif isinstance(got, set):
            if any(c != sum(map(times, w, a)) for a in got):
                return set()
        elif got[:2] == w:
            if got[2] != c:
                return set()
        else:
            a = crossing(got, w + (c,))
            if a is None:
                return set()
            got = {a}
    return got


def decomposable_on_span(
    f0: Poly, directions: Sequence[Poly], inner_degrees: Sequence[int],
    candidates: Optional[dict] = None,
) -> Optional[Tuple[Set[tuple], Set[Tuple[int, int, int]]]]:
    """The integer a for which f0 + sum_i a_i directions[i] decomposes with an
    inner of one of inner_degrees, over zero, one or two directions.

    Returns None when every a does, else (points, lines): the a are the
    points and, for two directions (v_2, v_1) and a = (a_2, a_1), the lines
    (w_2, w_1, c) of the a with w_2 a_2 + w_1 a_1 = c, primitive as in
    _solve, so that distinct lines are distinct triples.  With no direction
    it decides f0 alone: None when f0 decomposes with one of inner_degrees,
    else (set(), set()).

    f0 has degree d, and no direction reaches x**(d-n+1) for a listed n.
    Then with c = lead(f0) the monic conjugate of f0 + sum_i a_i v_i is
    F + sum_i a_i V_i, F that of f0 and V_i the v_i times c**(d-1-j) at x**j:
    linear in a.  The candidate inner of the split (d/n, n) reads only
    x**(d-n+1)..x**(d-1), so one candidate solve per n decides every a: none
    when the candidate is not integral, else the a at which the non-constant
    parts of the K-adic digits 0..m-2 vanish (the module docstring holds the
    proof).  Those parts are linear in a, so each digit coefficient t >= 1
    is one equation b + w.a = 0, and the solutions of one n are nothing, a
    point, a line or everything.  candidates memoizes the solves across
    calls, keyed by the coefficients they read; pass one dict to calls that
    share them.
    """
    d = degree(f0)
    if inner_degrees and max(map(degree, directions), default=0) > d - max(inner_degrees):
        raise ValueError("a direction reaches the coefficients that fix the candidate inner")
    c = f0[-1]
    F = _monic_conjugate(f0)
    Vs = directions if c == 1 else [
        tuple(v[i] * c ** (d - 1 - i) for i in range(len(v))) for v in directions
    ]
    if candidates is None:
        candidates = {}
    points: Set[tuple] = set()
    lines: Set[Tuple[int, int, int]] = set()
    for n in inner_degrees:
        m = d // n
        K = _candidate(F, m, n, candidates)
        if K is None:
            continue
        digits = zip(*(_adic_digits(p, K, m - 1) for p in (F, *Vs)))
        got = _solve((b, w) for ds in digits for b, *w in zip(*(r[1:] for r in ds)))
        if got is None:
            return None
        if isinstance(got, set):
            points |= got
        else:
            lines.add(got)
    return points, lines


def full_decomposition(f: Poly) -> List[Poly]:
    """Indecomposable factors f1, .., fk with f = f1 o f2 o .. o fk.

    Greedy and deterministic: the innermost factor is extracted with the
    smallest prime inner degree first (composite inner degrees are only
    reachable when no prime one works, and then recursion cleans up).
    """
    d = degree(f)
    if d < 2:
        raise ValueError("decomposition needs degree >= 2")
    for n in _inner_degrees(d):
        w = decompose_split(f, d // n, n)
        if w is not None:
            return full_decomposition(w.g) + full_decomposition(w.h)
    return [f]
