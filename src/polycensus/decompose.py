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
from typing import List, Optional, Set, Tuple

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


def _divmod_monic(f, h):
    """Exact (quotient, remainder) for division by a monic polynomial.

    Synthetic division: needs no coefficient inversions, so it stays in the
    coefficient ring (works for int and Fraction alike).
    """
    n = degree(h)
    if degree(f) < n:
        return (), tuple(f)
    rem = list(f)
    qlen = len(f) - n
    quo = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + n]
        quo[i] = c
        if c:
            for j in range(n + 1):
                rem[i + j] -= c * h[j]
    return normalize(quo), normalize(rem[:n])


def _check_split(f, m, n):
    if m < 2 or n < 2:
        raise ValueError("split parts must both be >= 2")
    if degree(f) != m * n:
        raise ValueError(f"degree {degree(f)} does not match split ({m},{n})")


def _monic_conjugate(f: Poly) -> Poly:
    """c**(d-1) * f(x/c) for c = lead(f), d = deg f: monic and integral."""
    d = degree(f)
    c = f[-1]
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
    cur: Poly = f
    gs = []
    while degree(cur) >= n:
        cur, rem = _divmod_monic(cur, h)
        if degree(rem) > 0:
            return None
        gs.append(rem[0] if rem else 0)
    if degree(cur) > 0:
        return None
    gs.append(cur[0] if cur else 0)
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


def decomposable_linear_terms(g0: Poly) -> Set[int]:
    """Every integer a for which g0 + a*x is decomposable (g0 has no x term).

    One integer candidate solve per inner degree n decides the whole line.
    The monic conjugate c**(m-1) * g(x/c), c = lead(g0), m = deg g0, has
    integer coefficients and decomposes exactly when g does; its x term is
    a*c**(m-2).  The candidate inner reads only the coefficients of
    x**(m-1) .. x**(m-n+1), none of which is x**1, and a*x lands wholly in
    the h-adic coefficient c_0, so each n admits at most one a: the one
    that cancels the linear part of c_0.
    """
    m = degree(g0)
    if m < 2 or g0[1]:
        raise ValueError("need degree >= 2 and a zero linear coefficient")
    monic = _monic_conjugate(g0)
    scale = g0[-1] ** (m - 2)
    out: Set[int] = set()
    for n in _inner_degrees(m):
        h = _integer_candidate(monic, m // n, n)
        if h is None:
            continue
        cur, c0 = _divmod_monic(monic, h)
        if degree(c0) > 1:
            continue
        a, r = divmod(-c0[1] if degree(c0) == 1 else 0, scale)
        if r:
            continue
        while degree(cur) >= n:
            cur, rem = _divmod_monic(cur, h)
            if degree(rem) > 0:
                break
        else:
            out.add(a)
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
