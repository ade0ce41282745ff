"""Exact univariate polynomial arithmetic on dense coefficient vectors.

A polynomial is a tuple of integer coefficients in ascending degree order:
index i holds the coefficient of x**i.  The zero polynomial is the empty
tuple; for every nonzero polynomial the last entry is nonzero.  Coefficients
are Python ints (arbitrary precision, so intermediate results can never
wrap); the arithmetic only adds and multiplies them.
"""

from __future__ import annotations

from typing import Sequence, Tuple

Coeff = int
Poly = Tuple[Coeff, ...]

ZERO: Poly = ()


def normalize(coeffs: Sequence[Coeff]) -> Poly:
    """Strip high-degree zero coefficients, returning a canonical tuple."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def degree(f: Poly) -> int:
    """Degree of f, with -1 as the zero-polynomial sentinel."""
    return len(f) - 1


def lead(f: Poly) -> Coeff:
    if not f:
        raise ValueError("zero polynomial has no leading coefficient")
    return f[-1]


def add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return normalize(out)


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def poly_pow(f: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power")
    out: Poly = (1,)
    base = f
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def compose(g: Poly, h: Poly) -> Poly:
    """Return g(h(x)), exactly.

    For nonzero g, h with degrees >= 1 the result has degree
    deg(g) * deg(h) and leading coefficient lead(g) * lead(h)**deg(g).
    """
    if not g or not h:
        raise ValueError("compose requires nonzero polynomials")
    out: Poly = (g[-1],)
    for c in reversed(g[:-1]):
        out = add(mul(out, h), (c,) if c else ZERO)
    return out


def height(f: Poly) -> int:
    """Max absolute value of the coefficients; undefined for the zero poly."""
    if not f:
        raise ValueError("height of the zero polynomial is undefined")
    return max(abs(c) for c in f)


def parse_poly(text: str) -> Poly:
    """Parse the ascending comma-separated integer form, e.g. "5,2,3,2,1"."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError(f"malformed polynomial text: {text!r}")
    try:
        coeffs = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"malformed polynomial text: {text!r}") from None
    poly = normalize(coeffs)
    if not poly:
        raise ValueError("zero polynomial is not accepted here")
    return poly


def format_poly(f: Poly) -> str:
    """Inverse of parse_poly: ascending comma-separated coefficients."""
    if not f:
        return "0"
    return ",".join(str(c) for c in f)
