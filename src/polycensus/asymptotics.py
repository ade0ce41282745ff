"""Predicted growth rates of the census counts and fits against data.

The predictions encode the growth theorems: per-split two-sided rates where
the outer degree dominates, upper-only rates (sometimes with a log factor)
otherwise, and the headline total rates H^2 log H (monic degree 4),
H^(d/l) (monic), H^(d/l + 1) (non-monic), where l is the smallest prime
factor of d.  Fits regress log count on log height with an optional unit
log log H offset and report which model wins on RMS residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

MIN_COUNT_FOR_FIT = 50  # small counts are noise, not asymptotics

TWO_SIDED = "two_sided"
UPPER_ONLY = "upper_only"


def spf(d: int) -> int:
    """Smallest prime factor of d >= 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    if d % 2 == 0:
        return 2
    p = 3
    while p * p <= d:
        if d % p == 0:
            return p
        p += 2
    return d


@dataclass(frozen=True)
class Prediction:
    exponent: Fraction
    log_factor: bool
    kind: str

    def describe(self) -> str:
        side = "~" if self.kind == TWO_SIDED else "<="
        log = " * log H" if self.log_factor else ""
        return f"{side} H^{self.exponent}{log}"


def predicted_growth(
    d: int, monic: bool, variant: str = "total", split: Optional[Tuple[int, int]] = None
) -> Prediction:
    """Theorem-level prediction for one census quantity.

    variant is "total" or "split" (with split=(m, n)).  Prime degrees get
    the zero-exponent convention since the counts vanish identically.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    ell = spf(d)
    if ell == d:  # prime degree, counts are identically zero
        return Prediction(Fraction(0), False, TWO_SIDED)

    if variant == "total":
        if monic:
            if d == 4:
                return Prediction(Fraction(2), True, TWO_SIDED)
            return Prediction(Fraction(d, ell), False, TWO_SIDED)
        return Prediction(Fraction(d, ell) + 1, False, TWO_SIDED)

    if variant != "split":
        raise ValueError(f"no growth prediction for variant {variant!r}")
    if split is None:
        raise ValueError("split variant needs (m, n)")
    m, n = split
    if m < 2 or n < 2 or m * n != d:
        raise ValueError(f"invalid split ({m},{n}) for degree {d}")

    # m(m-1) and m(m+1) are even, so each regime's three cases are exhaustive:
    # the last return is m(m-1) <= 2(n-2) monic and m(m+1) <= 2(n-1) otherwise
    if monic:
        if m == 2 and n == 2:
            return Prediction(Fraction(2), True, TWO_SIDED)
        if m * (m - 1) >= 2 * n:
            return Prediction(Fraction(m), False, TWO_SIDED)
        if m * (m - 1) == 2 * (n - 1):
            return Prediction(Fraction(m), True, UPPER_ONLY)
        return Prediction(Fraction(m + 1, 2) + Fraction(n - 1, m), False, UPPER_ONLY)

    if m * (m + 1) >= 2 * (n + 1):
        return Prediction(Fraction(m + 1), False, TWO_SIDED)
    if m * (m + 1) == 2 * n:
        return Prediction(Fraction(m + 1), True, UPPER_ONLY)
    return Prediction(Fraction(m + 1, 2) + Fraction(n, m), False, UPPER_ONLY)


@dataclass(frozen=True)
class GrowthFit:
    exponent: float
    log_model_preferred: bool
    constant: float
    rms_residual: float
    points_used: int
    power_exponent: float
    log_exponent: float
    log_detection_inconclusive: bool = False


def _least_squares(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all heights equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    rss = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, math.sqrt(rss / n)


def fit_growth(points: Iterable[Tuple[int, int]]) -> GrowthFit:
    """Fit count ~ C * H^a and count ~ C * H^a * log H to (H, count) data.

    Points with count below MIN_COUNT_FOR_FIT are dropped.  Model selection
    needs at least 4 surviving points; with exactly 3 the power model is
    reported and log detection is marked inconclusive.
    """
    pts = [(h, c) for h, c in points if c >= MIN_COUNT_FOR_FIT]
    if len(pts) < 3:
        raise ValueError("need at least 3 points with usable counts")
    if any(h2 <= h1 for (h1, _), (h2, _) in zip(pts, pts[1:])):
        raise ValueError("heights must be strictly ascending")
    if any(c <= 0 for _, c in pts):
        raise ValueError("counts must be positive")

    xs = [math.log(h) for h, _ in pts]
    ys = [math.log(c) for _, c in pts]
    p_slope, p_inter, p_rms = _least_squares(xs, ys)
    ys_log = [y - math.log(math.log(h)) for (h, _), y in zip(pts, ys)]
    l_slope, l_inter, l_rms = _least_squares(xs, ys_log)

    inconclusive = len(pts) == 3
    prefer_log = (not inconclusive) and l_rms < p_rms
    if prefer_log:
        exponent, constant, rms = l_slope, math.exp(l_inter), l_rms
    else:
        exponent, constant, rms = p_slope, math.exp(p_inter), p_rms
    return GrowthFit(
        exponent=exponent,
        log_model_preferred=prefer_log,
        constant=constant,
        rms_residual=rms,
        points_used=len(pts),
        power_exponent=p_slope,
        log_exponent=l_slope,
        log_detection_inconclusive=inconclusive,
    )


@dataclass(frozen=True)
class RemainderReport:
    """Total versus indecomposable-pair counts along a height grid.

    rows hold (H, D, I, D - I, (D - I)/D); the fit compares the remainder
    against its predicted exponent when enough nonzero remainders exist.
    """

    d: int
    monic: bool
    rows: Tuple[Tuple[int, int, int, int, float], ...]
    predicted_exponent: Fraction
    fit: Optional[GrowthFit]


def remainder_report(d: int, monic: bool, H_grid: Sequence[int]) -> RemainderReport:
    """Measure D - I on a grid and fit its growth.

    For d equal to the square of its smallest prime factor the remainder is
    identically zero and no fit is attempted.
    """
    from .census import CountQuery, count_forward

    ell = spf(d)
    if ell == d:
        raise ValueError("remainder report needs composite d")
    rows: List[Tuple[int, int, int, int, float]] = []
    for H in H_grid:
        total = count_forward(CountQuery(d, H, monic, "total")).count
        ipair = count_forward(CountQuery(d, H, monic, "indecomp_pair")).count
        diff = total - ipair
        rows.append((H, total, ipair, diff, diff / total if total else 0.0))

    if monic:
        pred_exp = Fraction(5, 2) if d == 6 else Fraction(d, ell) - 1
    else:
        pred_exp = Fraction(3) if d == 6 else Fraction(d, ell)

    fit = None
    try:
        fit = fit_growth([(h, diff) for h, _, _, diff, _ in rows])
    except ValueError:
        pass
    return RemainderReport(d, monic, tuple(rows), pred_exp, fit)
