from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from polycensus.lattice import (
    envelope_floor_sum,
    floor_sum,
    polygon,
    polygon_count,
    polygon_rows,
    union_count,
    window_interval,
)
from polycensus.poly_core import mul


@given(st.integers(0, 40), st.integers(1, 30), st.integers(-60, 60), st.integers(-60, 60))
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-9, 9), st.integers(1, 6)), min_size=1,
             max_size=5),
    st.integers(-20, 20),
    st.integers(0, 25),
)
def test_envelope_floor_sum_matches_direct_sum(lines, lo, width):
    hi = lo + width
    direct = sum(min((c + e * a) // g for c, e, g in lines) for a in range(lo, hi + 1))
    assert envelope_floor_sum(lines, lo, hi) == direct


@st.composite
def polygon_inputs(draw):
    """(P, h, s, lo, hi, H) for lattice.polygon: n = 2 or 3, any inner lead
    L != 0 (L > 1 and L < 0 included), zero inner coefficients, and a_2
    windows that are empty, single rows or cross 0."""
    n = draw(st.sampled_from([2, 3]), label="n")
    L = draw(st.integers(-4, 4).filter(bool), label="L")
    h = (0,) + tuple(draw(st.sampled_from([0, 0, 1, -1, 2, -3])) for _ in range(n - 1)) + (L,)
    H = draw(st.integers(1, 12), label="H")
    P = (0,) + tuple(draw(st.integers(-3 * H, 3 * H)) for _ in range(n))
    lo = draw(st.integers(-12, 12), label="lo")
    hi = lo + draw(st.integers(-2, 24), label="width")
    return P, h, mul(h, h), lo, hi, H


def leaf_rows(P, h, s, lo, hi, H):
    """The non-empty rows one a_2 leaf at a time, each a_1 window clipped by
    window_interval against every coefficient x^1..x^n: the walk's old leaves."""
    n = len(h) - 1
    rows = []
    for a2 in range(lo, hi + 1):
        Q = [p + a2 * t for p, t in zip(P, s)]
        lo1, hi1 = window_interval(Q, h, 1, n, H)
        if lo1 <= hi1:
            rows.append((a2, lo1, hi1))
    return rows


@settings(max_examples=600, deadline=None)
@given(polygon_inputs())
# h = x^2 + 2x with the a_2 window crossing 0; a zero middle coefficient and L = 3
@example(((0, 0, 0), (0, 2, 1), (0, 0, 4, 4, 1), -5, 5, 4))
@example(((0, 1, -2, 3), (0, 0, 0, 3), (0, 0, 0, 0, 0, 0, 9), -3, 6, 5))
# an empty window, and rows whose real a_1 interval holds no integer
@example(((0, 0, 0), (0, 1, 1), (0, 0, 1, 2, 1), 2, 1, 3))
@example(((0, 0, 0), (0, 1, 4), (0, 0, 1, 8, 16), -6, 6, 1))
def test_polygon_count_matches_rows_and_leaves(args):
    P, h, s, lo, hi, H = args
    rows, first, last = polygon(P, h, s, lo, hi, H)
    iterated = list(polygon_rows(rows, first, last, H))
    leaves = leaf_rows(P, h, s, lo, hi, H)
    assert iterated == leaves
    count = sum(hi1 - lo1 + 1 for _, lo1, hi1 in leaves)
    assert polygon_count(rows, first, last, H) == count
    if count:
        assert first == leaves[0][:2] and last == (leaves[-1][0], leaves[-1][2])
    else:
        assert first is None and last is None


def brute_union(args, points, lines):
    """The polygon's points on a point or a line, one point at a time."""
    P, h, s, lo, hi, H = args
    rows, first, last = polygon(P, h, s, lo, hi, H)
    return sum(
        (a2, a1) in points or any(w2 * a2 + w1 * a1 == c for w2, w1, c in lines)
        for a2, lo1, hi1 in polygon_rows(rows, first, last, H)
        for a1 in range(lo1, hi1 + 1)
    )


def primitive_line(w2, w1, anchor):
    """The line (w_2, w_1, c) through anchor, made primitive with its first
    non-zero w positive, as decompose.decomposable_on_span returns lines."""
    g = gcd(w2, w1)
    if w2 < 0 or not w2 and w1 < 0:
        g = -g
    w2, w1 = w2 // g, w1 // g
    return w2, w1, w2 * anchor[0] + w1 * anchor[1]


@st.composite
def unions(draw):
    """A polygon with a few points and distinct primitive lines around it."""
    args = draw(polygon_inputs())
    P, h, s, lo, hi, H = args
    anchors = st.tuples(st.integers(lo - 2, max(lo, hi) + 2), st.integers(-2 * H, 2 * H))
    points = set(draw(st.lists(anchors, max_size=3), label="points"))
    normals = st.tuples(st.integers(-7, 7), st.integers(-7, 7)).filter(any)
    lines = {
        primitive_line(*w, a) for w, a in draw(st.lists(st.tuples(normals, anchors), max_size=4))
    }
    return args, points, lines


@settings(max_examples=300, deadline=None)
@given(unions())
def test_union_count_matches_brute_force(case):
    args, points, lines = case
    P, h, s, lo, hi, H = args
    assert union_count(*polygon(P, h, s, lo, hi, H), H, points, lines) == brute_union(*case)


# x^2 + x over the a_2 window [-5, 5] at H = 4: the hexagon |a_1| <= 4, |a_2 + a_1| <= 4
HEXAGON = ((0, 0, 0), (0, 1, 1), (0, 0, 1, 2, 1), -5, 5, 4)


@pytest.mark.parametrize(
    "args,points,lines,count",
    [
        (HEXAGON, set(), {(0, 1, 2)}, 8),  # slope 0: a_1 = 2, a_2 in [-5, 2]
        (HEXAGON, set(), {(1, 0, 3)}, 6),  # the whole row a_2 = 3 (w_1 = 0)
        (HEXAGON, set(), {(1, 3, 1)}, 4),  # a_2 + 3 a_1 = 1: a_2 = 1 (mod 3)
        (HEXAGON, set(), {(2, -3, 1)}, 2),  # 2 a_2 - 3 a_1 = 1, a negative w_1
        (HEXAGON, set(), {(2, 7, 3)}, 2),  # a_2 = 3/2 = 5 (mod 7): (-2, 1) and (5, -1)
        (HEXAGON, set(), {(0, 1, 2), (1, 0, -1)}, 8 + 8 - 1),  # crossing at (-1, 2)
        (HEXAGON, set(), {(1, 1, 0), (1, -1, 0)}, 9 + 5 - 1),  # crossing at (0, 0)
        (HEXAGON, {(3, 0), (5, 4)}, {(1, 0, 3)}, 6),  # a point on the line, one outside
        (HEXAGON, {(0, 0)}, set(), 1),  # one point alone
        (HEXAGON, set(), {(0, 1, 9)}, 0),  # a line that misses the polygon
        (((0, 0, 0), (0, 1, 1), (0, 0, 1, 2, 1), 2, 1, 4), {(2, 0)}, {(0, 1, 0)}, 0),  # empty
    ],
)
def test_union_count_cases(args, points, lines, count):
    P, h, s, lo, hi, H = args
    assert union_count(*polygon(P, h, s, lo, hi, H), H, points, lines) == count
    assert brute_union(args, points, lines) == count
