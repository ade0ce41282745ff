import math
import random
from fractions import Fraction

import pytest

from polycensus.asymptotics import (
    TWO_SIDED,
    UPPER_ONLY,
    Prediction,
    fit_growth,
    predicted_growth,
    remainder_report,
    spf,
)


def test_spf_examples():
    assert spf(4) == 2
    assert spf(9) == 3
    assert spf(15) == 3
    assert spf(49) == 7
    assert spf(2) == 2
    assert spf(97) == 97


def test_spf_divides_and_is_prime():
    for d in range(2, 200):
        p = spf(d)
        assert d % p == 0
        assert all(p % q for q in range(2, p))


def test_predicted_growth_totals():
    p = predicted_growth(4, True, "total")
    assert p == Prediction(Fraction(2), True, TWO_SIDED)
    p = predicted_growth(9, True, "total")
    assert p == Prediction(Fraction(3), False, TWO_SIDED)
    p = predicted_growth(6, False, "total")
    assert p == Prediction(Fraction(4), False, TWO_SIDED)
    p = predicted_growth(8, True, "total")
    assert p == Prediction(Fraction(4), False, TWO_SIDED)
    # prime degree: zero-count convention
    assert predicted_growth(5, True, "total").exponent == 0


def test_predicted_growth_monic_splits():
    assert predicted_growth(4, True, "split", (2, 2)) == Prediction(Fraction(2), True, TWO_SIDED)
    assert predicted_growth(6, True, "split", (3, 2)) == Prediction(Fraction(3), False, TWO_SIDED)
    # m(m-1) = 2(n-1): (3,4) gives an upper-only log bound
    assert predicted_growth(12, True, "split", (3, 4)) == Prediction(Fraction(3), True, UPPER_ONLY)
    # m(m-1) <= 2(n-2): (2,3) gives H^(3/2 + 2/2)
    assert predicted_growth(6, True, "split", (2, 3)) == Prediction(
        Fraction(5, 2), False, UPPER_ONLY
    )
    assert predicted_growth(8, True, "split", (2, 4)) == Prediction(Fraction(3), False, UPPER_ONLY)


def test_predicted_growth_non_monic_splits():
    assert predicted_growth(4, False, "split", (2, 2)) == Prediction(Fraction(3), False, TWO_SIDED)
    assert predicted_growth(6, False, "split", (2, 3)) == Prediction(Fraction(3), True, UPPER_ONLY)
    assert predicted_growth(8, False, "split", (2, 4)) == Prediction(
        Fraction(7, 2), False, UPPER_ONLY
    )
    assert predicted_growth(6, False, "split", (3, 2)) == Prediction(Fraction(4), False, TWO_SIDED)


def _split_rule(m, n, monic):
    """The split rates, each case stated by its own inequality."""
    if monic:
        if m == n == 2:
            return [Prediction(Fraction(2), True, TWO_SIDED)]
        k = m * (m - 1)
        cases = [
            (k >= 2 * n, Prediction(Fraction(m), False, TWO_SIDED)),
            (k == 2 * (n - 1), Prediction(Fraction(m), True, UPPER_ONLY)),
            (
                k <= 2 * (n - 2),
                Prediction(Fraction(m + 1, 2) + Fraction(n - 1, m), False, UPPER_ONLY),
            ),
        ]
    else:
        k = m * (m + 1)
        cases = [
            (k >= 2 * (n + 1), Prediction(Fraction(m + 1), False, TWO_SIDED)),
            (k == 2 * n, Prediction(Fraction(m + 1), True, UPPER_ONLY)),
            (k <= 2 * (n - 1), Prediction(Fraction(m + 1, 2) + Fraction(n, m), False, UPPER_ONLY)),
        ]
    return [p for holds, p in cases if holds]


@pytest.mark.parametrize("monic", [True, False])
def test_predicted_growth_cases_are_exhaustive(monic):
    # m(m-1) and m(m+1) are even: exactly one case holds for every split
    for m in range(2, 41):
        for n in range(2, 41):
            (expected,) = _split_rule(m, n, monic)
            assert predicted_growth(m * n, monic, "split", (m, n)) == expected, (m, n)


def test_predicted_growth_validation():
    with pytest.raises(ValueError):
        predicted_growth(6, True, "split", (2, 2))
    with pytest.raises(ValueError):
        predicted_growth(6, True, "split")
    with pytest.raises(ValueError):
        predicted_growth(6, True, "indecomp_pair")


def test_total_matches_best_two_sided_split():
    from polycensus.census import ordered_splits

    for d in (6, 8, 9, 10, 12):
        total = predicted_growth(d, True, "total")
        best = None
        for s in ordered_splits(d):
            p = predicted_growth(d, True, "split", s)
            if p.kind == TWO_SIDED and (best is None or p.exponent > best.exponent):
                best = p
        ell = spf(d)
        dom = predicted_growth(d, True, "split", (d // ell, ell))
        assert best == dom
        assert total.exponent == best.exponent and total.log_factor == best.log_factor


def test_fit_growth_pure_power():
    pts = [(H, 7 * H**3) for H in (10, 20, 40, 80, 160)]
    fit = fit_growth(pts)
    assert abs(fit.exponent - 3) < 1e-6
    assert not fit.log_model_preferred
    assert abs(fit.constant - 7) < 1e-4
    assert fit.points_used == 5


def test_fit_growth_log_model():
    pts = [(H, round(5 * H * H * math.log(H))) for H in (50, 100, 200, 400, 800)]
    fit = fit_growth(pts)
    assert fit.log_model_preferred
    assert abs(fit.exponent - 2) < 1e-3
    assert abs(fit.constant - 5) < 0.05


def test_fit_growth_three_points_inconclusive():
    pts = [(H, 7 * H**3) for H in (10, 20, 40)]
    fit = fit_growth(pts)
    assert fit.log_detection_inconclusive
    assert not fit.log_model_preferred
    assert abs(fit.exponent - 3) < 1e-6


def test_fit_growth_errors():
    with pytest.raises(ValueError):
        fit_growth([(10, 100), (20, 800)])
    with pytest.raises(ValueError):
        fit_growth([(10, 100), (10, 100), (10, 100)])
    with pytest.raises(ValueError):
        fit_growth([(10, 1), (20, 2), (40, 3)])  # all below the count floor


def test_fit_growth_drops_small_counts():
    pts = [(2, 10), (10, 1000), (20, 8000), (40, 64000), (80, 512000)]
    fit = fit_growth(pts)
    assert fit.points_used == 4
    assert abs(fit.exponent - 3) < 1e-6


def test_remainder_report_square_degree_rejected_for_prime():
    with pytest.raises(ValueError):
        remainder_report(5, True, (10, 20, 40))


def test_remainder_report_d4_identically_zero():
    rep = remainder_report(4, True, (5, 10, 20))
    assert all(row[3] == 0 for row in rep.rows)
    assert rep.fit is None
    assert rep.predicted_exponent == Fraction(1)


def test_remainder_report_d6():
    rep = remainder_report(6, True, (4, 8, 16))
    assert rep.predicted_exponent == Fraction(5, 2)
    for H, total, ipair, diff, ratio in rep.rows:
        assert diff >= 0
        assert total >= ipair
        assert 0 <= ratio <= 1
