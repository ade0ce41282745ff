"""Complex roots, Mahler measure, and height-measure inequality checks.

The measure of f = a_d x^d + .. + a_0 with roots r_1..r_d is
|a_d| * prod max(1, |r_i|).  Roots come from an Aberth-Ehrlich iteration
in plain Python complex scalars, started from the eigenvalues of the
companion matrix (numpy's LAPACK, imported on the first solve of degree
3 or more), with Gauss-Seidel sweeps: each root's correction uses the
roots already moved in the same sweep.  A root whose residual is down to
the rounding error of its Horner evaluation takes one free Newton step and
is frozen; the sweeps go on over the others.  Degrees 1 and 2 take a closed
form instead (the stable quadratic formula).  Zero roots are stripped exactly
beforehand, and a multiple root is found exactly.

Every solve returns each root with the radius of a Newton inclusion disk:
for any z, some root of p lies within n|p(z)/p'(z)| of z.  Aberth takes the
radius from the p and p' it already holds when it freezes a root, widened
by the Horner rounding bound and by the Newton step itself; a closed form
evaluates p and p' once per root.  Pairwise-disjoint disks hold one root
each, so they certify n simple roots.  Overlapping disks send the solve to
gcd(f, f') over Q, which splits f into factors with simple roots.

A caller that holds a checked decomposition f = g(h) passes it to roots as
a chain.  Then f = lead(g) prod (h - beta) over the roots beta of g, so
M(f) = |lead g| prod M(h - beta): one solve of degree deg g and one of
degree deg h per beta, down a longer chain level by level, and the
clusters that composition puts in the roots of f are never solved whole.
When some h - beta has roots the float solve cannot isolate, a solve
raises, or the roots miss f's residual contract, f is solved directly.
Everything downstream compares the floating measure against exact integer
heights, so the checks carry relative tolerances.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt
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
    residuals: Tuple[float, ...]


def _aberth(coeffs: Sequence[complex]) -> Tuple[List[complex], List[float]]:
    """Roots of a polynomial with nonzero constant term, ascending float or
    complex coeffs, and the radius of an inclusion disk around each.

    The start is the eigenvalues of the companion matrix (LAPACK, through
    numpy imported on the first call): backward-stable roots, most of which
    pass the freeze test below on the first sweep.  A LAPACK failure raises
    RootConvergenceError with no roots.  Gauss-Seidel Aberth-Ehrlich sweeps
    then run over the roots still active: root i's correction uses every
    other root as it stands, moved in this sweep or frozen.  The contract is
    |p(z)| <= DEFAULT_TOL*scale*max(1,|z|)^n.  That bound grows like |z|^n,
    so far from the unit circle it accepts roots still off in their fifth
    digit; a root is therefore frozen only once its |p(z)| is also down to
    the rounding error of its Horner evaluation, floor = max(8, 2n)*ROUNDING*
    sum |a_k||z|^k (that error is below gamma_2n times the sum, so the
    floor grows with n), and it takes one Newton step w = p/p' from the
    values in hand as it freezes.  A root of p lies within n(|p| + floor)/|p'|
    of z, so within that plus |w| of the stepped root: that is its radius,
    infinite when p' is zero.  Returns when no root is active; after
    MAX_ITERATIONS sweeps, the last roots that all met the contract, with
    _radii.  RootConvergenceError if none did.
    """
    import numpy

    top, *tail = desc = coeffs[::-1]
    n = len(tail)
    bound = DEFAULT_TOL * max(map(abs, desc))
    scale = max(8, 2 * n) * ROUNDING
    noise = [scale * abs(a) for a in desc]
    row = numpy.array([-a / top for a in tail])  # complex for h - beta
    companion = numpy.eye(n, k=-1, dtype=row.dtype)
    companion[0] = row
    try:
        # all-real eigenvalues come back as floats, which never leave the axis
        z = list(map(complex, numpy.linalg.eigvals(companion).tolist()))
    except numpy.linalg.LinAlgError as err:
        raise RootConvergenceError(f"no companion eigenvalues: {err}", (), ()) from None
    radii = [inf] * n
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
            r = abs(zi)
            if res <= (bound if r <= 1.0 else bound * r**n):
                floor = 0.0
                for a in noise:
                    floor = floor * r + a
                if res <= floor:
                    if dp:
                        w = p / dp
                        z[i] = zi - w
                        radii[i] = n * (res + floor) / abs(dp) + abs(w)
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
            return z, radii
        if contract:
            met = entry
        active = still
    if met is not None:
        return met, _radii(coeffs, met)
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


def _radii(coeffs: Sequence, z: Sequence[complex]) -> List[float]:
    """n(|p(z_i)| + floor)/|p'(z_i)| for each z_i, from one Horner pass each.

    Some root of p lies within n|p/p'| of any point, and floor, _aberth's
    bound on the rounding error of |p|, keeps that true of the computed p.
    A zero p' gives an infinite radius.
    """
    top, *tail = desc = coeffs[::-1]
    n = len(tail)
    scale = max(8, 2 * n) * ROUNDING
    noise = [scale * abs(a) for a in desc]
    radii = []
    for zi in z:
        p, dp = top, 0.0
        for a in tail:
            dp = dp * zi + p
            p = p * zi + a
        radii.append(n * (abs(p) + _horner_abs(noise, abs(zi))) / abs(dp) if dp else inf)
    return radii


def _disjoint(z: Sequence[complex], radii: Sequence[float]) -> bool:
    """Whether the disks |x - z_i| <= radii[i] are pairwise disjoint.

    Each disk holds a root, so n disjoint disks hold the n roots one each:
    the roots are simple.  An infinite or NaN radius overlaps every other
    disk.
    """
    return all(
        abs(z[i] - z[j]) > radii[i] + radii[j]
        for i in range(len(z))
        for j in range(i + 1, len(z))
    )


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


def _closed_form(c: Sequence) -> Tuple[List[complex], List[float]]:
    """Roots of c_0 + c_1 x or c_0 + c_1 x + c_2 x^2 (c_0 != 0), in closed
    form, with their _radii.

    The quadratic takes the stable formula: s = sqrt(c_1^2 - 4 c_2 c_0) with
    the sign that makes |c_1 + s| the larger, q = -(c_1 + s)/2, and the
    roots q/c_2 and c_0/q, so neither root comes from a cancellation.  Exact
    coefficients (int, Fraction) give an exact discriminant, and a double
    root two equal floats, whose p' is zero.
    """
    if len(c) == 2:
        z = [complex(-c[0] / c[1])]
    else:
        c0, c1, c2 = c
        s = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
        b = complex(c1)
        if (b.conjugate() * s).real < 0:
            s = -s
        q = -(b + s) / 2
        z = [q / c2, c0 / q]
    return z, _radii(c, z)


def _solve(c: Sequence) -> List[complex]:
    """Roots with multiplicity of c (exact ascending coefficients, c_0 != 0).

    _closed_form (degree <= 2) or _aberth gives each root an inclusion disk.
    A k-fold root leaves k float copies that no sweep separates, and each of
    their disks holds the root, so they overlap.  Only when some disks
    overlap is gcd(c, c') computed over Q; if it is not constant,
    c/gcd(c, c') (every root once) and gcd(c, c') (the multiple roots, one
    copy fewer) are solved apart, so every float solve sees simple roots
    only.
    """
    floats = [float(x) for x in c]
    z, radii = _closed_form(c) if len(c) <= 3 else _aberth(floats)
    if _disjoint(z, radii):
        return z
    exact = [Fraction(x) for x in c]
    a, b = exact, [k * x for k, x in enumerate(exact)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if len(a) == 1:
        return z
    return _solve(_poly_divmod(exact, a)[0]) + _solve(a)


def _exact_roots(p: Sequence[int]) -> List[complex]:
    """Roots with multiplicity of an integer polynomial p of degree >= 0.

    Zero roots are stripped exactly; the rest go to _solve.
    """
    nzero = 0
    while p[nzero] == 0:
        nzero += 1
    found = [0j] * nzero
    if len(p) - nzero > 1:
        found += _solve(p[nzero:])
    return found


def _shifted_roots(h: Poly, beta: complex) -> Optional[List[complex]]:
    """Roots of h - beta for an integer h, None when they are not isolated.

    A beta that is exactly an integer (an exact zero root among them) leaves
    h - beta integral, and it goes through _exact_roots; any other h - beta
    has complex coefficients, and the disks of its float solve must be
    disjoint.
    """
    if beta.imag == 0 and beta.real.is_integer():
        return _exact_roots((h[0] - int(beta.real), *h[1:]))
    c = [h[0] - beta, *h[1:]]
    z, radii = _closed_form(c) if len(c) <= 3 else _aberth(c)
    return z if _disjoint(z, radii) else None


def _chain_roots(chain: Sequence[Poly]) -> Optional[List[complex]]:
    """Roots of f = chain[0] o chain[1] o .. o chain[-1], solved down the chain.

    With g = chain[0] = a prod (y - beta) and h = chain[1] o .., f equals
    a prod (h - beta), so the roots of f are those of every h - beta, one
    solve of degree deg chain[1] per beta (_shifted_roots), and so on down
    the chain.  The integer g goes through _solve.  None when some h - beta
    has disks that overlap (beta is, or is near, a critical value of h) or a
    solve raises.
    """
    try:
        level = _exact_roots(chain[0])
        for h in chain[1:]:
            parts = [_shifted_roots(h, b) for b in level]
            if None in parts:
                return None
            level = [r for part in parts for r in part]
    except (RootConvergenceError, ArithmeticError):
        return None
    return level


def _residuals(coeffs: Sequence[float], hf: float, found: Sequence[complex]):
    """|f(r)| at each root r, and the contract's bound on them.

    An f with a zero coefficient takes Horner over its nonzero terms only,
    acc * r**gap + a, so 3x^400 + 1 costs a power per term at each root,
    not 400 steps.
    """
    d = len(coeffs) - 1
    terms = None if all(coeffs) else [(k, a) for k, a in enumerate(coeffs) if a][::-1]
    residuals = []
    for r in found:
        acc = 0.0 + 0.0j
        if terms is None:
            for a in reversed(coeffs):
                acc = acc * r + a
        else:
            last = d
            for k, a in terms:
                acc = acc * r ** (last - k) + a
                last = k
            if last:
                acc *= r**last
        residuals.append(abs(acc))
    return residuals, DEFAULT_TOL * hf * max(1.0, *map(abs, found)) ** d


def roots(f: Poly, chain: Optional[Sequence[Poly]] = None) -> MahlerResult:
    """All deg(f) complex roots (with multiplicity) plus the measure.

    Each returned root r satisfies
    |f(r)| <= DEFAULT_TOL * H(f) * max(1, |r|)**deg f; failure to reach
    that raises RootConvergenceError with the best iterate.
    A coefficient or root beyond the float range raises ValueError.
    Each float solve gives its roots Newton inclusion disks; disjoint disks
    certify simple roots, and overlapping ones send f through the exact gcd
    split (_solve).

    chain is a decomposition f = chain[0] o chain[1] o .. that the caller
    holds and has checked exactly (full_decomposition(f), or (g, h) with
    compose(g, h) == f).  The roots are then solved down it
    (_chain_roots), one solve of h - beta per root beta of g, and
    M(g o h) = |lead g| prod M(h - beta).  When that route gives up
    (overlapping disks in some h - beta), or its roots miss the contract
    above, f is solved directly, as without a chain.
    """
    d = degree(f)
    if d < 1:
        raise ValueError("root finding needs degree >= 1")
    try:
        coeffs = [float(c) for c in f]
        hf = max(map(abs, coeffs))
        found = _chain_roots(chain) if chain is not None and len(chain) > 1 else None
        if found is not None:
            residuals, bound = _residuals(coeffs, hf, found)
        if found is None or max(residuals) > bound:
            found = _exact_roots(f)
            residuals, bound = _residuals(coeffs, hf, found)
    except OverflowError:
        raise ValueError("f is beyond the float range of the root finder") from None
    if max(residuals) > bound:
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
    is_product = degree(f) == degree(g) + degree(h) and mul(g, h) == f
    is_composition = (
        degree(g) >= 2 and degree(h) >= 2 and h[0] == 0 and compose(g, h) == f
    )
    if not is_product and not is_composition:
        raise ValueError("f is neither the exact product nor the exact composition of (g, h)")

    # the product route measures f on its own, or M(gh) = M(g)M(h) would
    # compare M(f) with itself
    mf = roots(f, (g, h) if is_composition and not is_product else None).measure
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
