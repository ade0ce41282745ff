"""Complex roots, Mahler measure, and height-measure inequality checks.

The measure of f = a_d x^d + .. + a_0 with roots r_1..r_d is
|a_d| * prod max(1, |r_i|).  Roots come from an Aberth-Ehrlich iteration
in plain Python complex scalars (no numpy), with Bini's Newton-polygon
starting points and Gauss-Seidel sweeps: each root's correction uses the
roots already moved in the same sweep.  A root whose residual is down to
the rounding error of its Horner evaluation takes one free Newton step and
is frozen; the sweeps go on over the others.  Zero roots are stripped exactly
beforehand, and a multiple root is found exactly: when the roots' inclusion
disks overlap, gcd(f, f') over Q splits f into factors with simple roots.
Everything downstream compares the floating measure against exact integer
heights, so the checks carry relative tolerances.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import exp, log, pi, sqrt
from typing import List, Optional, Sequence, Tuple

from .poly_core import Poly, compose, degree, height, lead, mul

MAX_ITERATIONS = 200
DEFAULT_TOL = 1e-12
ROUNDING = 2.0**-53       # unit roundoff of a double

EQ2_REL_TOL = 1e-9        # height-measure sandwich slack
PRODUCT_REL_TOL = 1e-8    # M(gh) versus M(g)M(h)


class RootConvergenceError(RuntimeError):
    """Iteration cap hit before the residual contract was met."""

    def __init__(self, message, best_roots, residuals):
        super().__init__(message)
        self.best_roots = best_roots
        self.residuals = residuals


@dataclass(frozen=True)
class MahlerResult:
    roots: Tuple[complex, ...]
    measure: float
    residual_bound: float
    residuals: Tuple[float, ...] = field(default=())


def _start_points(coeffs: Sequence[float]) -> List[complex]:
    """Bini's Newton-polygon starting points for a nonzero constant term.

    Each edge k1 -> k2 of the upper convex hull of (k, log|c_k|) over the
    nonzero coefficients puts k2 - k1 points on the circle of radius
    (|c_k1|/|c_k2|)^(1/(k2-k1)); together they are exactly n points.  The
    angular offset 2*pi*k1/n + 0.7 keeps the set from being symmetric
    under conjugation, which would stall the iteration on real polynomials.
    """
    n = len(coeffs) - 1
    hull: List[Tuple[int, float]] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        y = log(abs(c))
        while len(hull) >= 2:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            if (k1 - k0) * (y - y0) - (y1 - y0) * (k - k0) < 0:
                break
            hull.pop()
        hull.append((k, y))
    z: List[complex] = []
    for (k1, y1), (k2, y2) in zip(hull, hull[1:]):
        m = k2 - k1
        point = cmath.rect(exp((y1 - y2) / m), 2.0 * pi * k1 / n + 0.7)
        step = cmath.rect(1.0, 2.0 * pi / m)
        for _ in range(m):
            z.append(point)
            point *= step
    return z


def _aberth(coeffs: Sequence[float]) -> List[complex]:
    """Roots of a polynomial with nonzero constant term, ascending coeffs.

    Gauss-Seidel Aberth-Ehrlich sweeps from the Newton-polygon start over
    the roots still active: root i's correction uses every other root as it
    stands, moved in this sweep or frozen.  The contract is
    |p(z)| <= DEFAULT_TOL*scale*max(1,|z|)^n.  That bound grows like |z|^n,
    so far from the unit circle it accepts roots still off in their fifth
    digit; a root is therefore frozen only once its |p(z)| is also down to
    the rounding error of its Horner evaluation, max(8, 2n)*ROUNDING*
    sum |a_k||z|^k (that error is below gamma_2n times the sum, so the
    floor grows with n), and it takes one Newton step z - p/p' from the
    values in hand as it freezes.  Returns when no root is active; after
    MAX_ITERATIONS sweeps, the last roots that all met the contract.
    RootConvergenceError if none did.
    """
    top, *tail = desc = [float(a) for a in reversed(coeffs)]
    n = len(tail)
    bound = DEFAULT_TOL * max(map(abs, desc))
    noise = [max(8, 2 * n) * ROUNDING * abs(a) for a in desc]
    z = _start_points(coeffs)
    residuals = [0.0] * n
    active = range(n)
    met = None
    for _ in range(MAX_ITERATIONS):
        entry, still, contract = z[:], [], True
        for i in active:
            zi = z[i]
            p, dp = top, 0.0
            for a in tail:
                dp = dp * zi + p
                p = p * zi + a
            residuals[i] = res = abs(p)
            if res <= bound * max(1.0, abs(zi)) ** n:
                if res <= _horner_abs(noise, abs(zi)):
                    if dp:
                        z[i] = zi - p / dp
                    continue
            else:
                contract = False
            still.append(i)
            try:
                w = p / dp
                s = 0.0
                for zj in z[:i]:
                    s += 1.0 / (zi - zj)
                for zj in z[i + 1:]:
                    s += 1.0 / (zi - zj)
                z[i] = zi - w / (1.0 - w * s)
            except ZeroDivisionError:  # dp == 0, a coincident root or a zero denominator
                z[i] = zi * (1.0 + 1e-9) + 1e-12
        if not still:
            return z
        if contract:
            met = entry
        active = still
    if met is not None:
        return met
    raise RootConvergenceError(
        f"root finding did not converge within {MAX_ITERATIONS} iterations",
        tuple(entry),
        tuple(residuals),
    )


def _horner_abs(desc: Sequence[float], x: float) -> float:
    """sum a_k x^k for real descending coefficients a and real x."""
    acc = 0.0
    for a in desc:
        acc = acc * x + a
    return acc


def _isolated(coeffs: Sequence[float], z: Sequence[complex]) -> bool:
    """Whether the disks |x - z_i| <= 2n|W_i| are pairwise disjoint.

    W_i = p(z_i) / (c_n prod_{j != i} (z_i - z_j)) is the Weierstrass
    correction.  The disks of radius n|W_i| hold every root (Braess and
    Hadeler), and a connected group of m of them holds exactly m roots
    (Carstensen), so disjoint disks mean n simple roots.  The two copies of a double root give disks
    that just touch; the factor 2 makes them overlap despite rounding.
    """
    n = len(coeffs) - 1
    top, *tail = reversed(coeffs)
    radii = []
    for i, zi in enumerate(z):
        p = q = top
        for a in tail:
            p = p * zi + a
        for zj in z[:i]:
            q *= zi - zj
        for zj in z[i + 1:]:
            q *= zi - zj
        if q == 0:
            return False
        radii.append(2 * n * abs(p / q))
    for i, (zi, ri) in enumerate(zip(z, radii)):
        for j in range(i + 1, n):
            if abs(zi - z[j]) <= ri + radii[j]:
                return False
    return True


def _poly_divmod(a: List[Fraction], b: List[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    """Quotient and remainder of a by b over Q, ascending coefficients."""
    a = a[:]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = len(a) - len(b)
        t = q[k] = a[-1] / b[-1]
        for i, c in enumerate(b, k):
            a[i] -= t * c
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _solve(c: Sequence) -> List[complex]:
    """Roots with multiplicity of c (exact ascending coefficients, c_0 != 0).

    A k-fold root leaves k float copies that no sweep separates, and their
    inclusion disks overlap.  Only then is gcd(c, c') computed over Q; if it
    is not constant, c/gcd(c, c') (every root once) and gcd(c, c') (the
    multiple roots, one copy fewer) are solved apart, so every float solve
    sees simple roots only.
    """
    floats = [float(x) for x in c]
    z = _aberth(floats)
    if _isolated(floats, z):
        return z
    exact = [Fraction(x) for x in c]
    a, b = exact, [k * x for k, x in enumerate(exact)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if len(a) == 1:
        return z
    return _solve(_poly_divmod(exact, a)[0]) + _solve(a)


def roots(f: Poly) -> MahlerResult:
    """All deg(f) complex roots (with multiplicity) plus the measure.

    Each returned root r satisfies
    |f(r)| <= DEFAULT_TOL * H(f) * max(1, |r|)**deg f; failure to reach
    that raises RootConvergenceError with the best iterate.
    A coefficient or root beyond the float range raises ValueError.
    """
    d = degree(f)
    if d < 1:
        raise ValueError("root finding needs degree >= 1")
    nzero = 0
    while f[nzero] == 0:
        nzero += 1
    found: List[complex] = [0.0 + 0.0j] * nzero
    try:
        coeffs = [float(c) for c in f]
        if d > nzero:
            found.extend(_solve(f[nzero:]))
        residuals = []
        for r in found:
            acc = 0.0 + 0.0j
            for a in reversed(coeffs):
                acc = acc * r + a
            residuals.append(abs(acc))
        hf = float(height(f))
        bound = max(DEFAULT_TOL * hf * max(1.0, abs(r)) ** d for r in found)
    except OverflowError:
        raise ValueError("f is beyond the float range of the root finder") from None
    bad = [i for i, res in enumerate(residuals) if res > bound]
    if bad:
        raise RootConvergenceError(
            "residual contract violated after convergence",
            tuple(found),
            tuple(residuals),
        )
    measure = abs(float(lead(f)))
    for r in found:
        measure *= max(1.0, abs(r))
    return MahlerResult(tuple(found), measure, bound, tuple(residuals))


def mahler_measure(f: Poly) -> float:
    """|lead(f)| times the product of max(1, |root|) over all roots."""
    if degree(f) < 1:
        raise ValueError("measure needs degree >= 1")
    return roots(f).measure


def sandwich_bounds(f: Poly) -> Tuple[float, float]:
    """The two-sided height bound on the measure: (H*2^-d, H*sqrt(d+1))."""
    d = degree(f)
    hf = float(height(f))
    return hf * 2.0 ** (-d), hf * sqrt(d + 1)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class InequalityReport:
    checks: Tuple[InequalityCheck, ...]
    product_checked: bool
    composition_checked: bool

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_inequalities(
    f: Poly, g: Poly, h: Poly, split: Optional[Tuple[int, int]] = None
) -> InequalityReport:
    """Measured slack for the height-measure relations on (f, g, h).

    Requires f = g*h exactly (product route: multiplicativity of the
    measure) or f = g(h(x)) with h(0) = 0 (composition route: the explicit
    inner/outer height bounds, decided exactly on integers by
    census.height_lemma; lhs and rhs are floats for display).  Both routes
    also run the two-sided height-measure sandwich on f.
    """
    from .census import explicit_constants_sq, height_lemma

    if degree(f) < 1 or degree(g) < 1 or degree(h) < 1:
        raise ValueError("inequality checks need degrees >= 1")
    is_product = mul(g, h) == f
    is_composition = (
        degree(g) >= 2 and degree(h) >= 2 and h[0] == 0 and compose(g, h) == f
    )
    if not is_product and not is_composition:
        raise ValueError("f is neither the exact product nor the exact composition of (g, h)")

    mf = mahler_measure(f)
    lo, hi = sandwich_bounds(f)
    checks = [
        InequalityCheck("f: H*2^-d <= M", lo, mf, mf - lo >= -EQ2_REL_TOL * mf),
        InequalityCheck("f: M <= H*sqrt(d+1)", mf, hi, hi - mf >= -EQ2_REL_TOL * mf),
    ]

    if is_product:
        mg, mh = mahler_measure(g), mahler_measure(h)
        err = abs(mf - mg * mh)
        checks.append(
            InequalityCheck(
                "product: |M(f)-M(g)M(h)|/M(f) <= tol",
                err / mf,
                PRODUCT_REL_TOL,
                err <= PRODUCT_REL_TOL * mf,
            )
        )

    if is_composition:
        m, n = degree(g), degree(h)
        if split is not None and tuple(split) != (m, n):
            raise ValueError(f"split {split} does not match degrees ({m},{n})")
        k1_sq, k2_sq = explicit_constants_sq(m, n)
        hf = height(f)
        ok1, ok2 = height_lemma(g, h, hf)
        lhs1 = abs(lead(g)) * height(h) ** m
        checks.append(
            InequalityCheck("lemma: |a|*H(h)^m <= K1*H(f)", float(lhs1), sqrt(k1_sq) * hf, ok1)
        )
        checks.append(
            InequalityCheck("lemma: H(g) <= K2*H(f)", float(height(g)), sqrt(k2_sq) * hf, ok2)
        )

    return InequalityReport(tuple(checks), is_product, is_composition)
