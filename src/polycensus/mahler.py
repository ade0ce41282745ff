"""Complex roots, Mahler measure, and height-measure inequality checks.

The measure of f = a_d x^d + .. + a_0 with roots r_1..r_d is
|a_d| * prod max(1, |r_i|).  Roots come from a simultaneous Aberth-Ehrlich
iteration started on a circle of radius 1 + H(f)/|a_d|; zero roots are
stripped exactly beforehand.  Everything downstream compares the floating
measure against exact integer heights, so the checks carry relative
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import List, Optional, Tuple

import numpy as np

from .poly_core import Poly, compose, degree, height, lead, mul

MAX_ITERATIONS = 200
DEFAULT_TOL = 1e-12

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


def _aberth(coeffs: List[float], tol_abs: float) -> np.ndarray:
    """Roots of a polynomial with nonzero constant term, ascending coeffs."""
    n = len(coeffs) - 1
    c = np.array(coeffs, dtype=np.float64)
    dc = c[1:] * np.arange(1, n + 1)
    radius = 1.0 + np.max(np.abs(c)) / abs(c[-1])
    # Offset angles break conjugate symmetry, which otherwise stalls the
    # iteration on real polynomials.
    angles = 2.0 * np.pi * np.arange(n) / n + np.pi / (2.0 * n)
    z = radius * np.exp(1j * angles)

    def horner(poly, x):
        acc = np.zeros_like(x)
        for a in poly[::-1]:
            acc = acc * x + a
        return acc

    scale = np.max(np.abs(c))
    for _ in range(MAX_ITERATIONS):
        p = horner(c, z)
        bound = tol_abs * scale * np.maximum(1.0, np.abs(z)) ** n
        if np.all(np.abs(p) <= bound):
            return z
        dp = horner(dc, z)
        dead = dp == 0
        if np.any(dead):
            z = np.where(dead, z * (1.0 + 1e-9) + 1e-12, z)
            continue
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        recip = 1.0 / diff
        np.fill_diagonal(recip, 0.0)
        s = recip.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-30, denom)
        z = z - w / denom
    p = horner(c, z)
    raise RootConvergenceError(
        f"root finding did not converge within {MAX_ITERATIONS} iterations",
        tuple(z.tolist()),
        tuple(np.abs(p).tolist()),
    )


def roots(f: Poly, tol: float = DEFAULT_TOL) -> MahlerResult:
    """All deg(f) complex roots (with multiplicity) plus the measure.

    Each returned root r satisfies |f(r)| <= tol * H(f) * max(1, |r|)**deg f;
    failure to reach that raises RootConvergenceError with the best iterate.
    """
    d = degree(f)
    if d < 1:
        raise ValueError("root finding needs degree >= 1")
    nzero = 0
    while f[nzero] == 0:
        nzero += 1
    reduced = f[nzero:]
    found: List[complex] = [0.0 + 0.0j] * nzero
    if degree(reduced) >= 1:
        z = _aberth([float(c) for c in reduced], tol)
        found.extend(complex(v) for v in z.tolist())

    hf = float(height(f))
    coeffs = [float(c) for c in f]
    residuals = []
    for r in found:
        acc = 0.0 + 0.0j
        for a in reversed(coeffs):
            acc = acc * r + a
        residuals.append(abs(acc))
    bound = max(tol * hf * max(1.0, abs(r)) ** d for r in found)
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


def mahler_measure(f: Poly, tol: float = DEFAULT_TOL) -> float:
    """|lead(f)| times the product of max(1, |root|) over all roots."""
    if degree(f) < 1:
        raise ValueError("measure needs degree >= 1")
    return roots(f, tol).measure


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

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class InequalityReport:
    checks: Tuple[InequalityCheck, ...]
    product_checked: bool
    composition_checked: bool

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _eq2_checks(label, f, mf):
    lo, hi = sandwich_bounds(f)
    return [
        InequalityCheck(f"{label}: H*2^-d <= M", lo, mf, mf - lo >= -EQ2_REL_TOL * mf),
        InequalityCheck(f"{label}: M <= H*sqrt(d+1)", mf, hi, hi - mf >= -EQ2_REL_TOL * mf),
    ]


def check_inequalities(
    f: Poly, g: Poly, h: Poly, split: Optional[Tuple[int, int]] = None
) -> InequalityReport:
    """Measured slack for the height-measure relations on (f, g, h).

    Requires f = g*h exactly (product route: multiplicativity of the
    measure) or f = g(h(x)) with h(0) = 0 (composition route: the explicit
    inner/outer height bounds, decided exactly on integers with the squared
    constants from census.explicit_constants_sq; lhs and rhs are floats for
    display).  Both routes also run the two-sided height-measure sandwich
    on f.
    """
    from .census import explicit_constants_sq

    if degree(f) < 1 or degree(g) < 1 or degree(h) < 1:
        raise ValueError("inequality checks need degrees >= 1")
    is_product = mul(g, h) == f
    is_composition = (
        degree(g) >= 2 and degree(h) >= 2 and h[0] == 0 and compose(g, h) == f
    )
    if not is_product and not is_composition:
        raise ValueError("f is neither the exact product nor the exact composition of (g, h)")

    mf = mahler_measure(f)
    checks = _eq2_checks("f", f, mf)

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
        hf, hg = height(f), height(g)
        lhs1 = abs(lead(g)) * height(h) ** m
        checks.append(
            InequalityCheck(
                "lemma: |a|*H(h)^m <= K1*H(f)", float(lhs1), sqrt(k1_sq) * hf,
                lhs1 * lhs1 <= k1_sq * hf * hf,
            )
        )
        checks.append(
            InequalityCheck(
                "lemma: H(g) <= K2*H(f)", float(hg), sqrt(k2_sq) * hf, hg * hg <= k2_sq * hf * hf
            )
        )

    return InequalityReport(tuple(checks), is_product, is_composition)
