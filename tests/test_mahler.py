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
    _aberth,
    _horner_abs,
    check_inequalities,
    mahler_measure,
    roots,
    sandwich_bounds,
)
from polycensus.decompose import full_decomposition
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
    starts = []
    eigvals = np.linalg.eigvals
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", lambda a: starts.append(eigvals(a)) or starts[-1])
        res = roots(f)
    # the first solve is f without its zero roots, started from one
    # companion eigenvalue per root; degrees 1 and 2 take no start
    assert len(starts[0]) == d - nzero if d - nzero >= 3 else not starts
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


@pytest.mark.parametrize("f, planted, solves", [
    (mul(poly_pow((-3, 1), 2), (1, 0, 0, 5)), {3: 2}, [5, 4, 1]),  # (x - 3)^2 (5x^3 + 1)
    # (x + 1)^2 (x - 2)^3 (x^2 + 1)
    (mul(mul(poly_pow((1, 1), 2), poly_pow((-2, 1), 3)), (1, 0, 1)), {-1: 2, 2: 3, 1j: 1, -1j: 1},
     [7, 4, 3, 2, 1]),
])
def test_planted_multiple_roots_take_the_gcd_split(monkeypatch, f, planted, solves):
    """The disks of a multiple root's copies overlap, so f goes through the
    exact gcd split, and each copy comes back from a solve of its own."""
    seen = []
    solve = mahler._solve
    monkeypatch.setattr(mahler, "_solve", lambda c: seen.append(len(c) - 1) or solve(c))
    res = roots(f)
    assert seen == solves
    assert len(res.roots) == len(f) - 1
    for root, k in planted.items():
        assert sum(abs(r - root) <= 1e-12 for r in res.roots) == k
        assert not any(1e-12 < abs(r - root) <= 1e-3 for r in res.roots)


def _matched(disks, points):
    """Whether every disk (z, radius) holds its own point, no point twice
    (Kuhn's augmenting paths)."""
    owner = {}

    def place(i, seen):
        z, radius = disks[i]
        for j, x in enumerate(points):
            if j not in seen and abs(x - z) <= radius:
                seen.add(j)
                if j not in owner or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(disks)))


@settings(max_examples=300, deadline=None)
@given(measure_inputs())
@example((1,) + (0,) * 11 + (1,))  # x^12 + 1
@example(mul(poly_pow((-3, 1), 2), (1, 0, 0, 5)))  # (x - 3)^2 (5x^3 + 1)
@example((-8, -24, -44, -60, -2, 304, 264, -336, -350, 132, 102, 18, 1))  # condition 2.4e6
@example((-1, 30, 0, 0, 1))  # a numpy root 1.1 radii off
def test_every_disk_holds_its_own_numpy_root(f):
    """Each root of a float solve lies within its radius of a numpy.roots
    root, a distinct one per root, on every distinct-root piece of f whose
    roots have condition number at most 1e7.

    numpy.roots is backward stable only normwise, so a root can sit further
    off than the componentwise rounding floor the radius carries (x^4 + 30x^3
    - 1 puts one 1.1 radii away); one Newton step in doubles from each
    brings it down to that floor.
    """
    nzero = next(i for i, c in enumerate(f) if c)
    if _numpy_reference(f[nzero:])[1] > 1e7:
        return
    for piece in _distinct_root_pieces(f[nzero:]) if len(f) - nzero > 1 else ():
        floats = [float(c) for c in piece]
        z, radii = mahler._closed_form(piece) if len(piece) <= 3 else _aberth(floats)
        assert len(z) == len(radii) == len(piece) - 1
        p = np.array(floats[::-1])
        ref = [x - np.polyval(p, x) / np.polyval(np.polyder(p), x) for x in np.roots(p)]
        assert _matched(list(zip(z, radii)), ref)


def test_convergence_failure_carries_best_roots(monkeypatch):
    # the companion eigenvalues meet the contract in one sweep, so the start
    # is a far circle instead
    monkeypatch.setattr(mahler, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(
        np.linalg, "eigvals", lambda a: 100 * np.exp(2j * np.pi * (np.arange(len(a)) + 0.3) / len(a))
    )
    f = (3, -1, 4, 1, -5, 9, 2, -6, 5)
    with pytest.raises(RootConvergenceError) as info:
        roots(f)
    assert len(info.value.best_roots) == 8
    assert len(info.value.residuals) == 8
    assert all(math.isfinite(r) for r in info.value.residuals)


def test_real_eigenvalues_start_complex_iterates():
    # (x - 1)(x - 2)(x - 3): every companion eigenvalue is real, and eigvals
    # hands back floats, which the sweeps could never move off the axis
    z, radii = _aberth([-6.0, 11.0, -6.0, 1.0])
    assert all(type(r) is complex for r in z)
    assert mahler._disjoint(z, radii)
    assert sorted(r.real for r in z) == pytest.approx([1, 2, 3], abs=1e-12)


def test_complex_coefficients_are_certified(monkeypatch):
    # h - beta for h = x^3 + x^2 and beta = 2i, as the chain route solves it;
    # the eigenvalues of its complex companion matrix meet the contract in
    # one sweep
    monkeypatch.setattr(mahler, "MAX_ITERATIONS", 1)
    c = [0 - 2j, 0, 1, 1]
    z, radii = _aberth(c)
    assert all(type(r) is complex for r in z)
    assert mahler._disjoint(z, radii)
    p = np.array(c[::-1], dtype=complex)
    ref = [x - np.polyval(p, x) / np.polyval(np.polyder(p), x) for x in np.roots(p)]
    assert _matched(list(zip(z, radii)), ref)
    assert mahler._shifted_roots((0, 0, 1, 1), 2j) == z


def test_lapack_failure_raises_convergence_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("patched")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(RootConvergenceError):
        roots((3, -1, 4, 1, -5, 9, 2, -6, 5))
    # on the chain route the failure gives up the chain, not the solve
    assert mahler._chain_roots(((5, 2, 1), (0, 1, 3, 1))) is None
    assert len(roots((5, 2, 1)).roots) == 2  # closed forms take no start


@pytest.mark.parametrize("d", [400, 399])
def test_sparse_residuals_stay_far_below_the_bound(d):
    """3x^d + 1 down its chain: the residual pass runs over two terms, and
    r**d still leaves every residual at a tenth of the bound or less."""
    f = (1,) + (0,) * (d - 1) + (3,)
    res = roots(f, full_decomposition(f))
    assert len(res.roots) == d
    assert max(res.residuals) <= res.residual_bound / 10


def test_sparse_high_degree_exits_through_noise_rule(monkeypatch):
    # Horner's rounding error grows with the degree, so the noise floor must
    # too: with a fixed floor these run every sweep and return a fallback
    # iterate that depends on the cap.
    for f, measure in (((1,) * 200, 1.0), ((1,) + (0,) * 400 + (3,), 3.0)):
        coeffs = [float(c) for c in f]
        found = []
        for cap in (40, 200):
            monkeypatch.setattr(mahler, "MAX_ITERATIONS", cap)
            found.append(_aberth(coeffs))
        assert found[0] == found[1]
        assert abs(roots(f).measure - measure) <= 1e-12 * measure


def _all_roots_aberth(coeffs):
    """The all-roots iteration: every root moves in every sweep until all n
    residuals are at 8u times their Horner scale in the same sweep, from
    _aberth's start (numpy.roots takes the same companion eigenvalues).  The
    roots come with mahler._radii, as _aberth's fallback iterate does."""
    desc = [float(a) for a in reversed(coeffs)]
    top, *tail = desc
    n = len(tail)
    bound = mahler.DEFAULT_TOL * max(map(abs, desc))
    noise = [8 * 2.0**-53 * abs(a) for a in desc]
    z = [complex(x) for x in np.roots(desc)]
    met = None
    for _ in range(200):
        moved, residuals = [], []
        for i, zi in enumerate(z):
            p, dp = top, 0.0
            for a in tail:
                dp = dp * zi + p
                p = p * zi + a
            residuals.append(abs(p))
            try:
                w = p / dp
                s = sum(1.0 / (zi - zj) for zj in moved + z[i + 1:])
                moved.append(zi - w / (1.0 - w * s))
            except ZeroDivisionError:
                moved.append(zi * (1.0 + 1e-9) + 1e-12)
        if all(r <= bound * max(1.0, abs(zi)) ** n for zi, r in zip(z, residuals)):
            met = z
            if all(r <= _horner_abs(noise, abs(zi)) for zi, r in zip(z, residuals)):
                return z, mahler._radii(coeffs, z)
        z = moved
    assert met is not None
    return met, mahler._radii(coeffs, met)


@settings(max_examples=300, deadline=None)
@given(measure_inputs())
@example((1,) + (0,) * 11 + (1,))  # x^12 + 1
@example(mul(poly_pow((-3, 1), 2), (1, 0, 0, 5)))  # (x - 3)^2 (5x^3 + 1)
@example((-8, -24, -44, -60, -2, 304, 264, -336, -350, 132, 102, 18, 1))  # condition 2.4e6
def test_frozen_roots_match_all_roots_iteration(f):
    """Freezing converged roots leaves every well-conditioned measure where
    moving all of them to the end puts it.

    Either iteration determines a root only to its condition number times
    the rounding unit, so d such roots can move the measure by d times
    that on either side; below 1e-9 the two must agree to 1e-9.
    """
    nzero = next(i for i, c in enumerate(f) if c)
    condition = _numpy_reference(f[nzero:])[1]
    if condition > 1e7:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mahler, "_aberth", _all_roots_aberth)
        ref = roots(f).measure
    got = roots(f).measure
    d = len(f) - 1
    assert abs(got - ref) <= max(1e-9, 2 * d * condition * 2.0**-53) * ref


@st.composite
def chains(draw):
    """A chain of two or three integer parts of degree >= 2, deg f <= 16."""
    degrees = draw(st.sampled_from(
        ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (2, 6), (6, 2),
         (3, 4), (4, 3), (2, 7), (8, 2), (4, 4), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2),
         (2, 2, 4), (2, 4, 2), (4, 2, 2))
    ))
    return tuple(
        tuple(draw(st.lists(SMALL, min_size=k, max_size=k))) + (draw(SMALL_LEAD),)
        for k in degrees
    )


@settings(max_examples=300, deadline=None)
@given(chains(), st.booleans())
@example(((-1, 0, 1), (0, 0, 1), (0, 0, 0, 8, 1)), False)  # x^12 (x+8)^4 - 1
@example(((-32, 0, 1), (0, -6, 0, 1)), False)  # 4 sqrt 2 is a critical value of h
@example(((-3, -2, 1), (0, 2, 1)), False)  # (x+1)^2 (x+3)(x-1)
@example(((-1, 0, 1), (0, 0, 0, 0, 2), (2, 8, 2)), True)  # 4(2x^2+8x+2)^8 - 1
def test_chain_route_matches_direct_route(parts, found):
    """The measure down a chain agrees with the direct solve of f.

    The chain is the drawn one or, with found, full_decomposition(f).  Either
    route determines each root to its condition number times the rounding
    unit, so where that is below 1e-9 the two agree to max(1e-9, 2 d
    condition u).  Past a condition of 1e7 the direct route can miss that
    bound by far on the clusters of a composition
    (test_chain_route_on_clusters), so there only the chain's own contract
    is checked.
    """
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = compose(p, f)
    via = roots(f, full_decomposition(f) if found else parts)
    d = len(f) - 1
    assert len(via.roots) == d and all(x <= via.residual_bound for x in via.residuals)
    lo, hi = sandwich_bounds(f)
    assert lo * (1 - 1e-9) <= via.measure <= hi * (1 + 1e-9)
    nzero = next(i for i, c in enumerate(f) if c)
    condition = _numpy_reference(f[nzero:])[1]
    if condition > 1e7:
        return
    direct = roots(f).measure
    assert abs(via.measure - direct) <= max(1e-9, 2 * d * condition * 2.0**-53) * direct


@pytest.mark.parametrize("parts, measure", [
    # 60-digit mpmath references (scripts/aberth_accuracy.py reference())
    (((-1, 0, 1), (0, 0, 1), (0, 0, 0, 8, 1)), 4095.99999999337887857),  # direct: 4096.016
    (((-1, 0, 1), (0, 0, 0, 0, 1), (3, 9, 2)), 21984128.6462538648118),  # direct: 21984723.0
    (((-1, 0, 1), (0, 0, 0, 0, 2), (2, 8, 2)), 38537215.4779825765800),  # direct: 38530705.7
])
def test_chain_route_on_clusters(parts, measure):
    """Composed f whose roots come in clusters of 4 or 8 that the direct
    solve cannot resolve in doubles: down the chain each measure is good to
    a few units of rounding."""
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = compose(p, f)
    assert abs(roots(f, parts).measure - measure) <= 1e-14 * measure


@pytest.mark.parametrize("g, h, measure", [
    ((-3, -2, 1), (0, 2, 1), 3),  # (y+1)(y-3) o (x^2+2x): beta = -1 is a critical value
    ((4, -4, 1), (0, 1, 1), 4),   # (y-2)^2 o (x^2+x): g has a double root
])
def test_chain_route_multiple_roots(g, h, measure):
    f = compose(g, h)
    res = roots(f, (g, h))
    assert len(res.roots) == len(f) - 1
    assert abs(res.measure - measure) <= 1e-12 * measure


@pytest.mark.parametrize("parts, solves", [
    (((-2, 0, 0, 1), (0, 1, 3, 1)), 3),  # y^3 - 2: one real root and one pair
    (((1, 0, 0, 0, 1), (0, 2, 1)), 4),  # y^4 + 1: two pairs
    (((-3, -3, -2, 1, 1), (0, 1, 1, 1)), 4),  # (y^2 + y + 1)(y^2 - 3)
    (((5, 0, 1), (0, 3, 1), (0, 2, 0, 1)), 2 + 4),  # y^2 + 5, then (x^2 + 3x)^2 + 5
    (((-5, 0, 1), (0, 3, 1), (0, 1, 1)), 2 + 4),  # y^2 - 5, then (x^2 + 3x)^2 - 5: all real
])
def test_chain_solves_h_minus_beta_once_per_root(monkeypatch, parts, solves):
    """Each level solves h - beta once for every root beta of the level
    above, conjugate or real, and the roots pass f's contract and the
    chain-versus-direct bound of test_chain_route_matches_direct_route."""
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = compose(p, f)
    betas = []
    shifted = mahler._shifted_roots
    monkeypatch.setattr(mahler, "_shifted_roots", lambda h, beta: betas.append(beta) or shifted(h, beta))
    found = mahler._chain_roots(parts)
    assert len(betas) == solves and found is not None
    via = roots(f, parts)
    assert via.roots == tuple(found)
    d = len(f) - 1
    condition = _numpy_reference(f)[1]
    direct = roots(f).measure
    assert abs(via.measure - direct) <= max(1e-9, 2 * d * condition * 2.0**-53) * direct


@pytest.mark.parametrize("z, radii, disjoint", [
    ([1j], [math.inf], True),  # one disk overlaps nothing, whatever its radius
    ([0j, 5 + 0j], [math.inf, 0.1], False),
    ([0j, 5 + 0j], [0.1, math.nan], False),
    ([0j, 3 + 4j], [2.0, 3.0], False),  # tangent: |z_0 - z_1| = 5 = 2 + 3
    ([0j, 3 + 4j, -4 + 0j], [2.0, 2.5, 0.5], True),
])
def test_disjoint(z, radii, disjoint):
    assert mahler._disjoint(z, radii) is disjoint


def test_measure_needs_degree_one():
    with pytest.raises(ValueError):
        mahler_measure((7,))


def test_uncomposed_double_root_stays_on_direct_route(monkeypatch):
    f = mul((355,), poly_pow((5, 1), 2))  # 355 (x+5)^2
    chain = full_decomposition(f)
    assert chain == [f]
    monkeypatch.setattr(mahler, "_chain_roots", lambda c: pytest.fail("took the chain"))
    res = roots(f, chain)
    assert len(res.roots) == 2
    assert abs(res.measure - 8875) <= 1e-12 * 8875


def _complex_input(c):
    return any(isinstance(x, complex) for x in c)


def _shift_first_root(solve):
    def bad(c):
        z, radii = solve(c)
        if _complex_input(c):
            z[0] += 1e-3
            radii = mahler._radii(c, z)
        return z, radii
    return bad


def _raise_on_complex(solve):
    def bad(c):
        if _complex_input(c):
            raise RootConvergenceError("patched", (), ())
        return solve(c)
    return bad


@pytest.mark.parametrize("name, patch, g, h", [
    ("_closed_form", _shift_first_root, (5, 2, 1), (0, 1, 1)),
    ("_aberth", _shift_first_root, (5, 2, 1), (0, 1, 3, 1)),
    ("_aberth", _raise_on_complex, (5, 2, 1), (0, 1, 3, 1)),
])
def test_failed_sub_solve_falls_back_to_direct_route(monkeypatch, name, patch, g, h):
    f = compose(g, h)
    direct = roots(f)
    monkeypatch.setattr(mahler, name, patch(getattr(mahler, name)))
    via = roots(f, (g, h))
    assert via.roots == direct.roots and via.measure == direct.measure


def test_only_the_composition_route_takes_the_chain(monkeypatch):
    seen = []
    solve = mahler.roots
    monkeypatch.setattr(mahler, "roots", lambda f, chain=None: seen.append(chain) or solve(f, chain))
    assert check_inequalities((-4, 0, 1), (-2, 1), (2, 1)).product_checked
    # 3x^4 is both 3y^2 o x^2 and 3x^2 * x^2: the product route runs
    rep = check_inequalities((0, 0, 0, 0, 3), (0, 0, 3), (0, 0, 1), (2, 2))
    assert rep.product_checked and rep.composition_checked and rep.all_ok
    assert seen and all(chain is None for chain in seen)
    seen.clear()
    rep = check_inequalities((5, 2, 3, 2, 1), (5, 2, 1), (0, 1, 1), (2, 2))
    assert rep.composition_checked and not rep.product_checked
    assert seen == [((5, 2, 1), (0, 1, 1))]


def _graeffe(f, k):
    """G_k f by k root-squaring steps G(f)(x^2) = +-f(x) f(-x), in integers:
    the roots of G_k f are those of f to the power 2^k."""
    for _ in range(k):
        f = mul(f, tuple(-c if i % 2 else c for i, c in enumerate(f)))[::2]
    return f


def _assert_in_graeffe_interval(f, measure, k=6):
    """(max_i |[G_k f]_i| / C(d, i))^(1/2^k) <= M(f) <= ||G_k f||_2^(1/2^k)
    to 1e-12 relative, decided in exact rationals.

    M(G_k f) = M(f)^(2^k); Landau's inequality M(g) <= ||g||_2 gives the
    upper end, and |g_i| <= C(d, i) M(g) the lower one.
    """
    g = _graeffe(f, k)
    d = len(f) - 1
    m, tol = Fraction(measure), Fraction(1, 10**12)
    lower = max(Fraction(abs(c), math.comb(d, i)) for i, c in enumerate(g))
    assert lower <= (m * (1 + tol)) ** 2**k
    assert (m / (1 + tol)) ** 2 ** (k + 1) <= sum(c * c for c in g)


def test_graeffe_step_squares_the_roots():
    # (x - 2)(x + 3)(x^2 + 1) -> (y - 4)(y - 9)(y + 1)^2
    f = mul(mul((-2, 1), (3, 1)), (1, 0, 1))
    assert _graeffe(f, 1) == mul(mul((-4, 1), (-9, 1)), poly_pow((1, 1), 2))


@settings(max_examples=200, deadline=None)
@given(measure_inputs())
@example((1,) + (0,) * 11 + (1,))  # x^12 + 1: the lower end is tight
@example(mul(poly_pow((-3, 1), 2), (1, 0, 0, 5)))  # (x - 3)^2 (5x^3 + 1)
def test_measure_lies_in_graeffe_interval(f):
    chain = full_decomposition(f) if len(f) > 2 else None
    _assert_in_graeffe_interval(f, roots(f, chain).measure)


@settings(max_examples=200, deadline=None)
@given(chains())
@example(((-1, 0, 1), (0, 0, 0, 0, 1), (3, 9, 2)))  # (2x^2+9x+3)^8 - 1
@example(((-1, 0, 1), (0, 0, 0, 0, 2), (2, 8, 2)))  # 4(2x^2+8x+2)^8 - 1
def test_chain_measure_lies_in_graeffe_interval(parts):
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = compose(p, f)
    _assert_in_graeffe_interval(f, roots(f, parts).measure)
