import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polycensus.asymptotics import spf
from polycensus.census import _inner_height_bound, explicit_constants_sq
from polycensus.decompose import (
    _inner_degrees,
    decomposable_on_span,
    decompose_split,
    full_decomposition,
    is_decomposable,
)
from polycensus.poly_core import compose, degree, height, lead, normalize, poly_pow


# Rational reference for the integer kernel: the Kozen-Landau candidate and
# h-adic expansion carried out over the rationals, with no conjugation, then
# rescaled to the minimal integer multiple of the monic candidate.


def candidate_h(f, m, n):
    """The monic rational h, h(0) = 0, with lead(f)*h**m matching f below x**d."""
    d = m * n
    a = Fraction(f[-1])
    bs = [Fraction(0)] * n + [Fraction(1)]
    for k in range(1, n):
        hm = poly_pow(tuple(bs), m)
        bs[n - k] = (f[d - k] - a * hm[d - k]) / (a * m)
    return tuple(bs)


def divmod_monic(f, h):
    """Exact (quotient, remainder) for division by a monic h: synthetic
    division, which needs no coefficient inversion."""
    n = degree(h)
    if degree(f) < n:
        return (), tuple(f)
    rem = list(f)
    quo = [0] * (len(f) - n)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + n]
        for j in range(n + 1):
            rem[i + j] -= c * h[j]
    return normalize(quo), normalize(rem[:n])


def hadic_coefficients(f, h):
    """The c_i with f = sum c_i * h**i and deg c_i < deg h, for a monic h."""
    cur = tuple(Fraction(c) for c in f)
    out = []
    while degree(cur) >= degree(h):
        cur, r = divmod_monic(cur, h)
        out.append(r)
    out.append(cur)
    return out


def rational_split(f, m, n):
    """(g, h) in the canonical gauge of decompose_split, or None."""
    hq = candidate_h(f, m, n)
    cs = hadic_coefficients(f, hq)
    if any(degree(c) > 0 for c in cs):
        return None
    gq = normalize(tuple(c[0] if c else Fraction(0) for c in cs))
    if degree(gq) != m:
        return None
    L = lcm(*(c.denominator for c in hq))
    h = tuple(c * L for c in hq)
    g = tuple(c / Fraction(L) ** i for i, c in enumerate(gq))
    assert all(c.denominator == 1 for c in g + h)
    return tuple(map(int, g)), tuple(map(int, h))


def rand_pair(rng, m, n, monic, bound=6):
    g = [rng.randint(-bound, bound) for _ in range(m)]
    h = [0] + [rng.randint(-bound, bound) for _ in range(n - 1)]
    if monic:
        g.append(1)
        h.append(1)
    else:
        a = 0
        while a == 0:
            a = rng.randint(-bound, bound)
        g.append(a)
        h.append(rng.randint(1, bound))
    return tuple(g), tuple(h)


def test_candidate_h_quartic():
    c = candidate_h((5, 2, 3, 2, 1), 2, 2)
    assert c == (0, 1, 1)
    c = candidate_h((0, 1, 0, 0, 1), 2, 2)
    assert c == (0, 0, 1)


def test_candidate_h_sextic():
    f = compose((0, 1, 1), (0, 1, 0, 1))  # (x^2+x) o (x^3+x)
    assert f == (0, 1, 1, 1, 2, 0, 1)
    c = candidate_h(f, 2, 3)
    assert c == (0, 1, 0, 1)


def test_candidate_h_is_rational_for_non_monic():
    # (x^2) o (2x^2+x) = 4x^4+4x^3+x^2; the monic candidate picks up a half
    f = compose((0, 0, 1), (0, 1, 2))
    c = candidate_h(f, 2, 2)
    assert c == (0, Fraction(1, 2), 1)


def test_hadic_examples():
    cs = hadic_coefficients((5, 2, 3, 2, 1), (0, 1, 1))
    assert cs == [(5,), (2,), (1,)]
    cs = hadic_coefficients((0, 1, 0, 0, 1), (0, 0, 1))
    assert cs == [(0, 1), (), (1,)]
    cs = hadic_coefficients((0, 1, 1), (0, 1, 1))
    assert cs == [(), (1,)]


def test_hadic_reconstructs():
    rng = random.Random(11)
    for _ in range(200):
        f = tuple(rng.randint(-9, 9) for _ in range(rng.randint(3, 9))) + (rng.randint(1, 9),)
        n = rng.randint(1, 3)
        h = tuple(rng.randint(-4, 4) for _ in range(n)) + (1,)
        cs = hadic_coefficients(f, h)
        acc = ()
        power = (1,)
        from polycensus.poly_core import add, mul

        for c in cs:
            acc = add(acc, mul(tuple(Fraction(x) for x in power), c))
            power = mul(power, h)
        assert acc == tuple(Fraction(c) for c in f)
        assert all(degree(c) < degree(h) for c in cs)


def test_decompose_split_examples():
    w = decompose_split((5, 2, 3, 2, 1), 2, 2)
    assert w.g == (5, 2, 1) and w.h == (0, 1, 1)
    assert decompose_split((0, 1, 0, 0, 1), 2, 2) is None
    w = decompose_split((1, 0, 4, 0, 4), 2, 2)
    assert w.g == (1, 4, 4) and w.h == (0, 0, 1)


def test_decompose_split_non_monic_rescale():
    # 4x^4+4x^3+x^2 = (2x^2+x)^2 decomposes with the primitive inner 2x^2+x
    f = compose((0, 0, 1), (0, 1, 2))
    w = decompose_split(f, 2, 2)
    assert w.h == (0, 1, 2) and w.g == (0, 0, 1)
    assert compose(w.g, w.h) == f


def test_unit_lead_negative():
    f = compose((0, 2, -1), (0, 3, 1))
    w = decompose_split(f, 2, 2)
    assert w is not None and compose(w.g, w.h) == f
    assert lead(f) == -1


def test_is_decomposable_basics():
    assert is_decomposable((0, 0, 0, 0, 1))
    assert not is_decomposable((0, 1, 0, 0, 1))
    assert not is_decomposable(tuple([3, 1, 4, 1, 5]) + (1,))  # degree 5 is prime
    with pytest.raises(ValueError):
        is_decomposable((1, 1))


def test_round_trip_random_pairs():
    rng = random.Random(12)
    for _ in range(800):
        m, n = rng.choice(((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)))
        monic = rng.random() < 0.5
        g, h = rand_pair(rng, m, n, monic)
        f = compose(g, h)
        w = decompose_split(f, m, n)
        assert w is not None
        assert compose(w.g, w.h) == f
        assert w.h[0] == 0 and lead(w.h) > 0
        if lead(f) == 1:
            assert lead(w.g) == 1 and lead(w.h) == 1


def test_witness_determinism():
    rng = random.Random(13)
    for _ in range(100):
        g, h = rand_pair(rng, 2, 2, False)
        f = compose(g, h)
        w1 = decompose_split(f, 2, 2)
        w2 = decompose_split(f, 2, 2)
        assert (w1.g, w1.h) == (w2.g, w2.h)


def test_full_decomposition_examples():
    assert full_decomposition((0,) * 8 + (1,)) == [(0, 0, 1)] * 3
    assert full_decomposition((5, 2, 3, 2, 1)) == [(5, 2, 1), (0, 1, 1)]
    f = (1, 1, 0, 0, 1)  # indecomposable quartic
    assert full_decomposition(f) == [f]


def test_full_decomposition_composes_back():
    rng = random.Random(14)
    for _ in range(300):
        parts = rng.choice(((2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 2, 3)))
        f = None
        for deg_part in parts:
            p, _ = rand_pair(rng, deg_part, 2, rng.random() < 0.5, bound=3)
            f = p if f is None else compose(f, p)
        factors = full_decomposition(f)
        acc = factors[0]
        for p in factors[1:]:
            acc = compose(acc, p)
        assert acc == f
        assert all(not is_decomposable(p) for p in factors)
        assert all(degree(p) >= 2 for p in factors)


def test_conclusiveness_against_direct_search():
    """is_decomposable agrees with a raw search over witness pairs.

    Search box per the explicit height-bound constants: inner height up to
    (K1*H)^(1/2) and outer coefficients up to K2*H.  The outer range is
    further clipped by |a1| <= H + b1^2, forced by the x^2 coefficient of
    any composition of height at most H, which keeps the search finite
    without excluding a single witness.
    """
    H = 6
    b_max = _inner_height_bound(2, 2, H)
    gbound = isqrt(explicit_constants_sq(2, 2)[1] * H * H)
    composable = set()
    for b1 in range(-b_max, b_max + 1):
        h = (0, b1, 1)
        a1_cap = min(gbound, H + b1 * b1)
        for a1 in range(-a1_cap, a1_cap + 1):
            for a0 in range(-H, H + 1):
                f = compose((a0, a1, 1), h)
                if height(f) <= H:
                    composable.add(f)
    import itertools

    for low in itertools.product(*([range(-H, H + 1)] * 4)):
        f = low + (1,)
        assert is_decomposable(f) == (f in composable), f


LEADS = (1, -1, 2, 3, -4, 5)
SMALL = st.integers(-5, 5)
SPLITS = (
    (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (2, 6), (6, 2), (3, 4), (4, 3)
)
SPLIT_LEADS = (1, -1, 2, -2, 3, -3, 5, -7, 12)


@st.composite
def split_inputs(draw):
    """(f, m, n, composed): random f, or g(h) with arbitrary h(0), d <= 12."""
    m, n = draw(st.sampled_from(SPLITS))
    if draw(st.booleans()):
        g = tuple(draw(SMALL) for _ in range(m)) + (draw(st.sampled_from(SPLIT_LEADS)),)
        h = tuple(draw(SMALL) for _ in range(n)) + (draw(st.sampled_from((1, -1, 2, -3))),)
        return compose(g, h), m, n, True
    low = tuple(draw(st.integers(-20, 20)) for _ in range(m * n))
    return low + (draw(st.sampled_from(SPLIT_LEADS)),), m, n, False


def pinned_leads(test):
    """Run leads -1 and 1 at splits (2,3), (3,2), (2,4), composed and
    random, on every run, whatever else hypothesis draws."""
    for m, n in ((2, 3), (3, 2), (2, 4)):
        for c in (-1, 1):
            g, h = (-2, 4, -1)[:m] + (c,), (1, -3, 2, 5)[:n] + (1,)
            low = tuple((5 * i + 2) % 41 - 20 for i in range(m * n))
            test = example((compose(g, h), m, n, True))(test)
            test = example((low + (c,), m, n, False))(test)
    return test


@pinned_leads
@settings(max_examples=400, deadline=None)
@given(split_inputs())
def test_every_lead_matches_rational_path(case):
    # every lead runs the one integer path through the monic conjugate; it
    # must agree with the rational reference witness for witness
    f, m, n, composed = case
    w = decompose_split(f, m, n)
    ref = rational_split(f, m, n)
    assert (w is None) == (ref is None)
    if composed:
        assert w is not None
    if w is not None:
        assert (w.g, w.h) == ref


def small_inner(draw, n):
    return (0,) + tuple(draw(SMALL) for _ in range(n - 1)) + (draw(st.sampled_from((1, -1, 2))),)


# (d, n, degrees): the polygons the forward count asks about, split (d/n, n)
# with the excluded inner degrees; m = d/n >= 3 moves along (h^2, h), and
# m = 2 along h alone
SPAN_PLANS = (
    (8, 2, (4,)),  # indecomp_pair, d = 8
    (12, 2, (4, 6)),  # indecomp_pair, d = 12
    (12, 4, (2, 3)),  # the (3, 4) split of a total
    (12, 6, (2, 3, 4)),  # the (2, 6) split of a total
    (16, 8, (2, 4)),  # the (2, 8) split of a total
)


@st.composite
def spans(draw):
    """(f0, directions, degrees, hit): the span f0 + a.directions of a
    polygon, the inner degrees to test, and the centre of the window.

    kind random: any f0.  kind hit: a composition g(h1), deg h1 in degrees,
    moved by -hit.directions.  kind every: h = k(h1) and f0 = g(h1), so every
    point of the span is a composition with h1 (plans with deg h1 | n).  kind
    outer: f0 = g(h) with g_2 = g_1 = 0, as in a polygon of the forward
    count, whose points (g + a_2 x^2 + a_1 x)(h) often decompose along a line.
    """
    d, n, degrees = draw(st.sampled_from(SPAN_PLANS), label="plan")
    c = draw(st.sampled_from(LEADS), label="lead")
    kind = draw(st.sampled_from(("random", "hit", "every", "outer")), label="kind")
    every = [k for k in degrees if n % k == 0]
    if kind == "every" and every:
        h1 = small_inner(draw, draw(st.sampled_from(every)))
        h = compose(small_inner(draw, n // degree(h1)), h1)
    else:
        h = small_inner(draw, n)
    directions = (h,) if 2 * n == d else (poly_pow(h, 2), h)
    hit = tuple(draw(SMALL) for _ in directions)
    if kind == "every" and every:
        f0 = compose(tuple(draw(SMALL) for _ in range(d // degree(h1))) + (c,), h1)
    elif kind == "outer":
        m = d // n
        f0 = compose((0,) * min(3, m) + tuple(draw(SMALL) for _ in range(m - 3)) + (c,), h)
    elif kind == "hit":
        h1 = small_inner(draw, draw(st.sampled_from(degrees)))
        f0 = compose(tuple(draw(SMALL) for _ in range(d // degree(h1))) + (c,), h1)
        for a, v in zip(hit, directions):
            f0 = on_line(f0, v, -a)
    else:
        f0 = tuple(draw(SMALL) for _ in range(d)) + (c,)
    return f0, directions, degrees, hit


def on_line(f0, v, a):
    return tuple(c + a * (v[i] if i < len(v) else 0) for i, c in enumerate(f0))


def in_span_result(got, a):
    if got is None:
        return True
    points, lines = got
    return a in points or any(w2 * a[0] + w1 * a[1] == c for w2, w1, c in lines)


def assert_span_matches_splits(f0, directions, degrees, got, centre):
    # every a of a window around centre against decompose_split, split by split
    d = degree(f0)
    for a in itertools.product(*(range(x - 2, x + 3) for x in centre)):
        f = f0
        for x, v in zip(a, directions):
            f = on_line(f, v, x)
        slow = any(decompose_split(f, d // n, n) is not None for n in degrees)
        assert slow == in_span_result(got, a), a


@settings(max_examples=200, deadline=None)
@given(spans())
def test_decomposable_on_span_matches_decompose_split(case):
    f0, directions, degrees, hit = case
    candidates = {}
    got = decomposable_on_span(f0, directions, degrees, candidates)
    assert decomposable_on_span(f0, directions, degrees, candidates) == got  # memoized solves
    if got is not None:
        points, lines = got
        assert len(points) + len(lines) <= len(degrees)  # one affine set per inner degree
        assert all(len(a) == len(directions) for a in points)
        assert not lines or len(directions) == 2
        assert all(gcd(w2, w1) == 1 for w2, w1, _ in lines)
    assert_span_matches_splits(f0, directions, degrees, got, hit)


X8 = (0,) * 8 + (1,)
H2 = (0, 1, 1)  # x^2 + x, with square x^4 + 2x^3 + x^2


@pytest.mark.parametrize(
    "f0,directions,degrees,expected",
    [
        # none: the degree-4 candidate of x^8 + x^7 is not integral
        ((0,) * 7 + (1, 1), (poly_pow(H2, 2), H2), (4,), (set(), set())),
        # one point: x^8 + a_2 (x^4 + 2x^3 + x^2) + a_1 (x^2 + x) - 2x^3 - 3x^2 - 2x
        # is a polynomial in K = x^4 iff a_1 = 2, a_2 + a_1 = 3 and 2 a_2 = 2
        ((0, -2, -3, -2) + X8[4:], (poly_pow(H2, 2), H2), (4,), ({(1, 2)}, set())),
        # one line: x^8 + a_2 x^4 + a_1 x^2 is a polynomial in x^4 iff a_1 = 0
        (X8, ((0,) * 4 + (1,), (0, 0, 1)), (4,), (set(), {(0, 1, 0)})),
        # every point: x^12 + a_2 x^8 + a_1 x^4 is a polynomial in x^2
        ((0,) * 12 + (1,), ((0,) * 8 + (1,), (0,) * 4 + (1,)), (2, 3), None),
    ],
    ids=["none", "point", "line", "plane"],
)
def test_decomposable_on_span_outcomes(f0, directions, degrees, expected):
    got = decomposable_on_span(f0, directions, degrees)
    assert got == expected
    assert_span_matches_splits(f0, directions, degrees, got, (1, 2))


@st.composite
def dominant_pairs(draw):
    """(g, h) with deg h = l, the smallest prime factor of d = deg g * l;
    when deg g is composite, g = g1(g2) in half the draws."""
    d = draw(st.sampled_from((6, 8, 10, 12, 16, 18)))
    ell = spf(d)
    m = d // ell
    c = draw(st.sampled_from((1, -1, 2, -3)))
    if _inner_degrees(m) and draw(st.booleans()):
        k = draw(st.sampled_from(_inner_degrees(m)))
        g = compose(tuple(draw(SMALL) for _ in range(m // k)) + (c,), small_inner(draw, k))
    else:
        g = tuple(draw(SMALL) for _ in range(m)) + (c,)
    return g, small_inner(draw, ell)


@settings(max_examples=200, deadline=None)
@given(dominant_pairs())
@example(((0, 0, 0, 1), (0, 0, 1)))  # x^6 = x^3(x^2) = x^2(x^3)
@example(((0, 0, 0, 0, 0, 1), (0, 0, 1)))  # x^10 = x^5(x^2) = x^2(x^5)
def test_outer_part_decomposable_iff_excluded_inner(pair):
    # Engstrom: with deg h = l, g is decomposable iff g(h) has an inner of a
    # degree n' with l | n' and l < n' < deg g(h), the indecomp_pair plan
    g, h = pair
    f = compose(g, h)
    d, ell = degree(f), degree(h)
    excluded = [k for k in _inner_degrees(d) if k % ell == 0 and k > ell]
    assert is_decomposable(g) == any(decompose_split(f, d // k, k) is not None for k in excluded)


def test_decomposable_on_span_rejects_high_direction():
    # x^3 reaches the x^3 coefficient that fixes the degree-2 candidate of a quartic
    with pytest.raises(ValueError):
        decomposable_on_span((0, 1, 0, 0, 1), ((0, 0, 0, 1),), (2,))
    with pytest.raises(ValueError):
        decomposable_on_span((0, 1, 0, 0, 1), ((0, 0, 1), (0, 0, 0, 1)), (2,))


# (n, e): inner degree n and a degree e | n, 1 < e < n, of its right component
RIGHT_COMPONENTS = ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3))


def lead_of(draw, monic):
    return 1 if monic else draw(st.sampled_from(LEADS))


def inner(draw, n, monic):
    """h with h(0) = 0 and degree n, monic or with a lead of LEADS."""
    return (0,) + tuple(draw(SMALL) for _ in range(n - 1)) + (lead_of(draw, monic),)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3)), st.sampled_from(RIGHT_COMPONENTS), st.booleans(), st.data())
def test_inner_with_a_right_component_excludes_its_polygons(m, ne, monic, data):
    # h = u(w), deg w = e: every point of the span that a polygon of g(h)
    # moves along, (h^2, h) for m = 3 and h alone for m = 2, is a polynomial
    # in w, so the forward walk may drop h when e is an excluded degree
    n, e = ne
    u, w = inner(data.draw, n // e, monic), inner(data.draw, e, monic)
    h = compose(u, w)
    g = tuple(data.draw(SMALL) for _ in range(m)) + (lead_of(data.draw, monic),)
    f = compose(g, h)
    directions = (h,) if m == 2 else (poly_pow(h, 2), h)
    assert decomposable_on_span(f, directions, (e,)) is None
    for a in itertools.product((-1, 2), repeat=len(directions)):
        fa = f
        for x, v in zip(a, directions):
            fa = on_line(fa, v, x)
        assert decompose_split(fa, m * n // e, e) is not None


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(((2, 4), (2, 6), (2, 8), (2, 9), (3, 4), (3, 6))), st.booleans(), st.data()
)
def test_indecomposable_inner_shares_no_component(split, monic, data):
    # Engstrom: f = g(h) = G(K) gives h and K a common right component of
    # degree gcd(deg h, deg K), so an indecomposable h of degree n admits no
    # inner degree k with 1 < gcd(k, n) < n, whatever the outer g
    m, n = split
    d = m * n
    h = inner(data.draw, n, monic)
    assume(not is_decomposable(h))
    k = data.draw(st.sampled_from([k for k in _inner_degrees(d) if 1 < gcd(k, n) < n]))
    g = tuple(data.draw(SMALL) for _ in range(m)) + (lead_of(data.draw, monic),)
    # the window: g_1 over 5 values, and for m = 3 g_2 over 3
    for a1, a2 in itertools.product(range(-2, 3), range(-1, 2) if m == 3 else (0,)):
        ga = (g[0], g[1] + a1) + ((g[2] + a2,) if m == 3 else ()) + g[m:]
        assert decompose_split(compose(ga, h), d // k, k) is None
