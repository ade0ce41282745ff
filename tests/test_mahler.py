import math
import random

import pytest

from polycensus.mahler import (
    InequalityReport,
    RootConvergenceError,
    check_inequalities,
    mahler_measure,
    roots,
    sandwich_bounds,
)
from polycensus.poly_core import compose, height, mul


def test_roots_simple():
    r = roots((-4, 0, 1))
    got = sorted(v.real for v in r.roots)
    assert abs(got[0] + 2) < 1e-9 and abs(got[1] - 2) < 1e-9
    r = roots((1, 0, 1))
    assert sorted(round(v.imag, 9) for v in r.roots) == [-1.0, 1.0]
    assert all(abs(v.real) < 1e-9 for v in r.roots)


def test_roots_residual_contract_random():
    rng = random.Random(21)
    for _ in range(300):
        d = rng.randint(1, 6)
        f = tuple(rng.randint(-50, 50) for _ in range(d)) + (rng.randint(1, 50),)
        res = roots(f)
        assert len(res.roots) == d
        assert all(x <= res.residual_bound for x in res.residuals)


def test_roots_with_zero_roots_and_multiplicity():
    res = roots((0, 0, 0, 1))  # x^3
    assert len(res.roots) == 3 and all(abs(z) < 1e-4 for z in res.roots)
    res = roots((1, 2, 1))  # (x+1)^2
    assert all(abs(z + 1) < 1e-4 for z in res.roots)


def test_roots_rejects_constants():
    with pytest.raises(ValueError):
        roots((7,))


def test_measure_examples():
    assert abs(mahler_measure((-4, 0, 1)) - 4) < 1e-9
    assert abs(mahler_measure((-6, 3)) - 6) < 1e-9
    assert abs(mahler_measure((1, 1, 1)) - 1) < 1e-9


def test_measure_known_rational_roots():
    # 6(x-2)(x+1/2)(x-1/3) has measure 6 * 2 * 1 * 1
    f = mul(mul((-2, 1), (1, 2)), (-1, 3))
    assert abs(mahler_measure(f) - 12.0) < 1e-8


def test_measure_symmetries():
    rng = random.Random(22)
    for _ in range(150):
        d = rng.randint(1, 7)
        f = tuple(rng.randint(-30, 30) for _ in range(d)) + (rng.randint(1, 30),)
        m = mahler_measure(f)
        flipped = tuple(c if i % 2 == 0 else -c for i, c in enumerate(f))
        assert abs(mahler_measure(flipped) - m) <= 1e-8 * m
        c = rng.choice((-5, -1, 2, 9))
        assert abs(mahler_measure(tuple(c * a for a in f)) - abs(c) * m) <= 1e-8 * abs(c) * m


def test_sandwich_holds_random():
    rng = random.Random(23)
    for _ in range(400):
        d = rng.randint(1, 8)
        f = tuple(rng.randint(-200, 200) for _ in range(d)) + (rng.randint(1, 200),)
        m = mahler_measure(f)
        lo, hi = sandwich_bounds(f)
        assert m >= lo * (1 - 1e-9)
        assert m <= hi * (1 + 1e-9)


def test_measure_at_least_lead():
    rng = random.Random(24)
    for _ in range(100):
        d = rng.randint(1, 6)
        f = tuple(rng.randint(-9, 9) for _ in range(d)) + (rng.randint(1, 9),)
        assert mahler_measure(f) >= abs(f[-1]) * (1 - 1e-12)


def test_check_inequalities_product():
    rep = check_inequalities((-4, 0, 1), (-2, 1), (2, 1))
    assert isinstance(rep, InequalityReport)
    assert rep.product_checked and not rep.composition_checked
    assert rep.all_ok


def test_check_inequalities_composition():
    rep = check_inequalities((5, 2, 3, 2, 1), (5, 2, 1), (0, 1, 1), (2, 2))
    assert rep.composition_checked
    assert rep.all_ok
    names = [c.name for c in rep.checks]
    assert any("K1" in s for s in names) and any("K2" in s for s in names)


def test_check_inequalities_rejects_unrelated():
    with pytest.raises(ValueError):
        check_inequalities((1, 0, 1), (1, 1), (2, 1))
    with pytest.raises(ValueError):
        check_inequalities((5, 2, 3, 2, 1), (5, 2, 1), (0, 1, 1), (3, 2))


def test_lemma_bounds_random_compositions():
    rng = random.Random(25)
    for _ in range(500):
        m, n = rng.choice(((2, 2), (2, 3), (3, 2)))
        g = tuple(rng.randint(-9, 9) for _ in range(m)) + (rng.randint(1, 9),)
        h = (0,) + tuple(rng.randint(-9, 9) for _ in range(n - 1)) + (rng.randint(1, 9),)
        rep = check_inequalities(compose(g, h), g, h, (m, n))
        assert rep.all_ok, (g, h, [c for c in rep.checks if not c.ok])
