from hypothesis import example, given, settings, strategies as st

from polycensus.lattice import (
    envelope_floor_sum,
    floor_sum,
    polygon,
    polygon_count,
    polygon_rows,
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
        lo1, hi1 = window_interval(Q, h, 1, n, H, -(1 << 62), 1 << 62)
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
