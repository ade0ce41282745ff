import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polycensus import mahler
from polycensus.mahler import (
    InequalityReport,
    RootConvergenceError,
    _start_points,
    check_inequalities,
    mahler_measure,
    roots,
    sandwich_bounds,
)
from polycensus.poly_core import compose, height, mul, poly_pow


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
    # multiple roots are split off exactly, so their copies do not scatter
    for base, k, measure in (
        ((-1, 1), 16, 1), ((1, 1), 3, 1), ((-3, 1), 8, 3**8), ((1, 2, 2), 8, 2**8)
    ):
        res = roots(poly_pow(base, k))
        assert len(res.roots) == k * (len(base) - 1)
        assert abs(res.measure - measure) <= 1e-12 * measure


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


def _divmod_q(a, b):
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


def _distinct_root_pieces(f):
    """f / gcd(f, f') (every root once), then the same for the gcd, and so on."""
    a = [Fraction(c) for c in f]
    g, b = a, [i * c for i, c in enumerate(a)][1:]
    while b:
        g, b = b, _divmod_q(g, b)[1]
    if len(g) == 1:
        return [a]
    return [_divmod_q(a, g)[0]] + _distinct_root_pieces(g)


def _numpy_reference(f):
    """numpy's measure of f and the condition number of its roots.

    numpy.roots keeps only a third of the digits of a triple root, so every
    distinct-root piece is handed to it on its own; the pieces multiply to f
    up to a constant.  The condition number is the largest
    sum |a_k||r|^k / (|r| |p'(r)|) over the roots r of the pieces: a root
    finder working to the rounding unit u determines r to about this times u.
    f has a nonzero constant term.
    """
    measure, worst = abs(float(f[-1])), 0.0
    for piece in _distinct_root_pieces(f):
        p = np.array([float(c) for c in piece[::-1]])
        for r in np.roots(p):
            measure *= max(1.0, abs(r))
            dp = abs(np.polyval(np.polyder(p), r))
            size = np.polyval(np.abs(p), abs(r))
            worst = max(worst, size / (abs(r) * dp) if dp else math.inf)
    return measure, worst


SIGNED_LEAD = st.integers(1, 1000).flatmap(lambda a: st.sampled_from((a, -a)))
COEFF = st.integers(-1000, 1000)
SMALL = st.integers(-9, 9)
SMALL_LEAD = st.integers(1, 9).flatmap(lambda a: st.sampled_from((a, -a)))


@st.composite
def measure_inputs(draw):
    """Degree 1..16: dense, sparse (interior zeros), g(h), or g^2 * h."""
    kind = draw(st.sampled_from(("dense", "sparse", "composed", "repeated")))
    if kind in ("dense", "sparse"):
        d = draw(st.integers(1, 16))
        body = COEFF if kind == "dense" else st.one_of(st.just(0), st.just(0), COEFF)
        return tuple(draw(st.lists(body, min_size=d, max_size=d))) + (draw(SIGNED_LEAD),)
    if kind == "composed":
        m = draw(st.integers(2, 4))
        n = draw(st.integers(2, 16 // m))
        g = tuple(draw(st.lists(SMALL, min_size=m, max_size=m))) + (draw(SMALL_LEAD),)
        h = tuple(draw(st.lists(SMALL, min_size=n, max_size=n))) + (draw(SMALL_LEAD),)
        return compose(g, h)
    dg = draw(st.integers(1, 3))
    g = tuple(draw(st.lists(st.integers(-20, 20), min_size=dg, max_size=dg)))
    g += (draw(st.integers(1, 20)),)
    dh = draw(st.integers(0, 16 - 2 * dg))
    h = tuple(draw(st.lists(COEFF, min_size=dh, max_size=dh))) + (draw(SIGNED_LEAD),)
    return mul(poly_pow(g, 2), h)


@settings(max_examples=400, deadline=None)
@given(measure_inputs())
@example((1,) + (0,) * 11 + (1,))  # x^12 + 1
@example((1, 0, -3, 0, 0, 0, 0, 1))  # x^7 - 3x^2 + 1
@example(mul(poly_pow((-3, 1), 2), (1, 0, 0, 5)))  # (x - 3)^2 (5x^3 + 1)
def test_roots_match_numpy(f):
    d = len(f) - 1
    nzero = next(i for i, c in enumerate(f) if c)
    assert len(_start_points([float(c) for c in f[nzero:]])) == d - nzero
    res = roots(f)
    assert len(res.roots) == len(res.residuals) == d
    assert all(x <= res.residual_bound for x in res.residuals)
    lo, hi = sandwich_bounds(f)
    assert lo * (1 - 1e-9) <= res.measure <= hi * (1 + 1e-9)
    assert mahler_measure(f) == res.measure
    # Double precision determines a root to its condition number times the
    # rounding unit, for numpy as for Aberth: compare where that is below 1e-9.
    # A cluster of nearby roots far from the unit circle (composed draws make
    # them) can exceed it.
    ref, condition = _numpy_reference(f[nzero:])
    if condition <= 1e7:
        assert abs(res.measure - ref) <= 1e-6 * ref


def test_convergence_failure_carries_best_roots(monkeypatch):
    monkeypatch.setattr(mahler, "MAX_ITERATIONS", 1)
    f = (3, -1, 4, 1, -5, 9, 2, -6, 5)
    with pytest.raises(RootConvergenceError) as info:
        roots(f)
    assert len(info.value.best_roots) == 8
    assert len(info.value.residuals) == 8
    assert all(math.isfinite(r) for r in info.value.residuals)
