"""Decide and construct functional decompositions f = g(h(x)) over the integers.

Every split (m, n) = (deg g, deg h) of every f goes through one integer
kernel.  With c = lead(f) and d = m*n, the monic conjugate

    F(x) = c**(d-1) * f(x/c),   F_i = f_i * c**(d-1-i),

has integer coefficients and decomposes exactly when f does (skipped when
|c| = 1, which the kernel handles directly).  On F the test runs in two
exact stages:

1. Solve for the unique monic candidate inner K with K(0) = 0 whose top
   coefficients match F (a triangular solve).  The candidate of a
   decomposable unit-lead polynomial is integral, so a division remainder
   rejects the split.
2. Expand F in powers of K by synthetic division; F = G(K) exactly when
   every expansion coefficient is a constant, and the first non-constant
   one ends the test.

decomposable_on_line runs both stages on a whole line f0 + a*v at once:
the candidate does not depend on a, and the expansion is linear in a.

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
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .asymptotics import spf
from .poly_core import (
    Poly,
    compose,
    degree,
    lead,
    normalize,
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


def _integer_candidate(f: Poly, m: int, n: int) -> Optional[Poly]:
    """The candidate inner of a unit-lead f for the split (m, n), or None.

    The candidate of a decomposable unit-lead f is necessarily integral
    (its factors h - beta over the roots beta of g have algebraic-integer
    coefficients), so any division remainder in the solve rejects the split.
    """
    d = m * n
    a = f[-1]
    bs = [0] * (n + 1)
    bs[n] = 1
    for k in range(1, n):
        hm = poly_pow(tuple(bs), m)
        delta = f[d - k] - a * hm[d - k]
        b, r = divmod(delta, a * m)
        if r:
            return None
        bs[n - k] = b
    return tuple(bs)


def _split_unit_lead(f: Poly, m: int, n: int) -> Optional[Tuple[Poly, Poly]]:
    """(g, h) with f = g(h), h the monic candidate, for |lead(f)| = 1; or None.

    Exits at the first non-constant h-adic expansion coefficient.
    """
    h = _integer_candidate(f, m, n)
    if h is None:
        return None
    gs = []
    for r in _adic_digits(f, h, m + 1):
        if any(r[1:]):
            return None
        gs.append(r[0])
    g = normalize(gs)
    if degree(g) != m:
        return None
    return g, h


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
    c = f[-1]
    unit = abs(c) == 1
    got = _split_unit_lead(f if unit else _monic_conjugate(f), m, n)
    if got is None:
        return None
    g, h = got if unit else _unconjugate(*got, c, m, n)
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
    for n in _inner_degrees(d):
        if decompose_split(f, d // n, n) is not None:
            return True
    return False


def _line_points(F: Poly, V: Poly, K: Poly, m: int) -> Optional[Set[int]]:
    """The a with F + a*V = G(K) for some G: a set of at most one a, or None
    for every a.  Needs F monic of degree m*deg K and K F's candidate inner.

    F + a*V = G(K) iff the non-constant parts of its K-adic digits 0..m-2
    vanish (census._block_masks holds the proof).  The digits are linear in
    a, so each coefficient t >= 1 of digit k is one equation b + a*w = 0,
    b and w the same coefficient of F's and of V's digit k.
    """
    a = None  # the one a the equations so far allow; None while every a passes
    for r, s in zip(_adic_digits(F, K, m - 1), _adic_digits(V, K, m - 1)):
        for b, w in zip(r[1:], s[1:]):
            if w:
                q, rem = divmod(-b, w)
                if rem or a not in (None, q):
                    return set()
                a = q
            elif b:
                return set()
    return None if a is None else {a}


def decomposable_on_line(
    f0: Poly, v: Poly, inner_degrees: Sequence[int], candidates: Optional[dict] = None
) -> Optional[Set[int]]:
    """The integers a for which f0 + a*v decomposes with an inner of one of
    inner_degrees; None when every integer a does.

    f0 has degree d, and v has degree at most d - n for every listed n.
    Then with c = lead(f0) the monic conjugate of f0 + a*v is F + a*V,
    F that of f0 and V_i = v_i * c**(d-1-i): linear in a.  The candidate
    inner of the split (d/n, n) reads only x**(d-n+1)..x**(d-1), which v
    does not reach, so one candidate solve per n decides the whole line:
    no a when the candidate is not integral, else the a of _line_points.
    candidates memoizes the solves across calls, keyed by the coefficients
    they read; pass one dict to calls that share them.
    """
    d = degree(f0)
    if inner_degrees and degree(v) > d - max(inner_degrees):
        raise ValueError("the direction reaches the coefficients that fix the candidate inner")
    c = f0[-1]
    F = _monic_conjugate(f0)
    V = tuple(v[i] * c ** (d - 1 - i) for i in range(len(v)))
    if candidates is None:
        candidates = {}
    out: Set[int] = set()
    for n in inner_degrees:
        m = d // n
        key = (m, n, F[d - n + 1 : d])
        if key not in candidates:
            candidates[key] = _integer_candidate(F, m, n)
        K = candidates[key]
        if K is None:
            continue
        got = _line_points(F, V, K, m)
        if got is None:
            return None
        out |= got
    return out


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
