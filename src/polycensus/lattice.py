"""Lattice points of the intervals and polygons that bound outer coefficients.

The forward walk fixes the outer coefficients a_m..a_3 of f = g(h) and is
left with a polygon: the (a_2, a_1) with
    |P_j + a_2 s_j + a_1 h_j| <= H,  j = 1..n,  s = h^2,
and a_2 in a window clipped by the coefficients above x^n.  polygon puts it
in the form that polygon_count sums in closed form and polygon_rows walks
row by row, and union_count counts its points on given points and lines.
Everything here is exact integer arithmetic.
"""

from __future__ import annotations

from typing import Iterator, Tuple

_INF = float("inf")  # compares exactly with every int


def window_interval(P, hk, j_lo, j_hi, H, lo=-_INF, hi=_INF):
    """Clip [lo, hi] so |P[j] + a*hk[j]| <= H for all j in [j_lo, j_hi].

    An empty window comes back as lo > hi.  A row with hk[j] = 0 (or past
    the end of hk) only tests |P[j]| <= H; every other row clips both ends
    to integers, so an unbounded start gives an integer window as soon as
    one such row is in range.
    """
    for j in range(j_lo, j_hi + 1):
        c = hk[j] if j < len(hk) else 0
        p = P[j]
        if c < 0:
            c, p = -c, -p  # the same constraint
        if c:
            v = -((H + p) // c)
            if v > lo:
                lo = v
            v = (H - p) // c
            if v < hi:
                hi = v
        elif p > H or p < -H:
            return 1, 0
        if lo > hi:
            return 1, 0
    return lo, hi


def polygon(P, h, s, lo: int, hi: int, H: int):
    """The polygon of (P, h, s = h^2) over the a_2 window [lo, hi], as
    (rows, first, last).

    A constraint j with h_j = 0 bounds a_2 alone and clips the window.  Every
    other one becomes a row (p, t, g), the constraint times sign(h_j), so
    g = |h_j| > 0 and
        -((H + p + t a_2) // g)  <=  a_1  <=  (H - p - t a_2) // g.
    The a_2 whose real a_1 interval is not empty, each upper bound at least
    each lower bound, form an interval, as the upper bounds are concave in
    a_2 and the lower ones convex.  A window of more than one a_2 is clipped
    to it, one linear inequality per ordered pair of rows (a row with itself
    always holds), so that the scan for the first and last rows that hold
    an integer a_1 is short.

    first = (a_2, lo_1) and last = (a_2, hi_1) are the first and last points
    in lexicographic order, or None when the polygon has no point.
    """
    rows = []
    for j in range(1, len(h)):
        p, t, g = P[j], s[j], h[j]
        if g > 0:
            rows.append((p, t, g))
        elif g < 0:
            rows.append((-p, -t, -g))
        else:
            lo, hi = window_interval((p,), (t,), 0, 0, H, lo, hi)
    if lo < hi:
        for pi, ti, gi in rows:
            for pk, tk, gk in rows:
                # (H - pi - ti a)/gi >= -(H + pk + tk a)/gk  <=>  a*D >= R
                D = tk * gi - ti * gk
                R = (pi - H) * gk - (H + pk) * gi
                if D > 0:
                    lo = max(lo, -(-R // D))
                elif D < 0:
                    hi = min(hi, R // D)
                elif R > 0:
                    return rows, None, None
    while lo <= hi:
        lo1, hi1 = row_window(rows, lo, H)
        if lo1 <= hi1:
            break
        lo += 1
    else:
        return rows, None, None
    last = (lo, hi1)
    for a2 in range(hi, lo, -1):
        a1_lo, a1_hi = row_window(rows, a2, H)
        if a1_lo <= a1_hi:
            last = (a2, a1_hi)
            break
    return rows, (lo, lo1), last


def row_window(rows, a2: int, H: int) -> Tuple[int, int]:
    """The a_1 interval of row a_2 of a polygon; lo > hi when it is empty."""
    lo, hi = -_INF, _INF  # every polygon has a row: h_n = lead(h) != 0
    for p, t, g in rows:
        q = p + t * a2
        v = -((H + q) // g)
        if v > lo:
            lo = v
        v = (H - q) // g
        if v < hi:
            hi = v
    return lo, hi


def polygon_rows(rows, first, last, H: int) -> Iterator[Tuple[int, int, int]]:
    """Yield (a_2, lo_1, hi_1) for every non-empty row of a polygon, a_2 rising.

    A polygon of one row is read from first and last alone, as in
    polygon_count, so its rows may be None.
    """
    if first is None:
        return
    if first[0] == last[0]:
        yield first[0], first[1], last[1]
        return
    for a2 in range(first[0], last[0] + 1):
        lo1, hi1 = row_window(rows, a2, H)
        if lo1 <= hi1:
            yield a2, lo1, hi1


def polygon_count(rows, first, last, H: int) -> int:
    """The number of lattice points of a polygon, in closed form.

    The real a_1 intervals of the rows of first and last are not empty, so
    neither are those of the rows between them (polygon), and every row
    from first to last holds hi_1 - lo_1 + 1 >= 0 points.  The sum splits into
        sum_a min_j floor((H - p_j - t_j a)/g_j)
      + sum_a min_j floor((H + p_j + t_j a)/g_j)  +  (number of rows),
    -lo_1 being the second minimum: two envelope_floor_sums.
    """
    if first is None:
        return 0
    lo, hi = first[0], last[0]
    if lo == hi:
        return last[1] - first[1] + 1
    return (
        envelope_floor_sum([(H - p, -t, g) for p, t, g in rows], lo, hi)
        + envelope_floor_sum([(H + p, t, g) for p, t, g in rows], lo, hi)
        + hi - lo + 1
    )


def union_count(rows, first, last, H: int, points, lines) -> int:
    """The number of lattice points of a polygon on a point or a line of a
    decompose.decomposable_on_span result, or on the one line by which
    census._coprime_rule excludes a polygon's pairs in closed form.

    points are (a_2, a_1), and a line (w_2, w_1, c), gcd(w_2, w_1) = 1, holds
    the (a_2, a_1) with w_2 a_2 + w_1 a_1 = c; distinct lines are distinct
    triples (the first non-zero w positive), so two of them are parallel and
    disjoint or cross in one rational point.  The lines are counted one by
    one in closed form (line_count); then every point of the polygon that
    is given or where two lines cross is counted once, less the number of
    lines that hold it.
    """
    if first is None:
        return 0
    lines = list(lines)
    total = sum(line_count(rows, first, last, H, *line) for line in lines)
    meets = set(points)
    for i, u in enumerate(lines):
        for w in lines[i + 1 :]:
            meets.add(crossing(u, w))
    meets.discard(None)
    for a2, a1 in meets:
        if first[0] <= a2 <= last[0]:
            lo1, hi1 = row_window(rows, a2, H)
            if lo1 <= a1 <= hi1:
                total += 1 - sum(w2 * a2 + w1 * a1 == c for w2, w1, c in lines)
    return total


def crossing(u, w):
    """The integral point where the lines u and w, triples (w_2, w_1, c) as in
    union_count, cross, or None: parallel, or crossing off the lattice
    (Cramer's rule)."""
    D = u[0] * w[1] - u[1] * w[0]
    if not D:
        return None
    a2, r2 = divmod(u[2] * w[1] - u[1] * w[2], D)
    a1, r1 = divmod(u[0] * w[2] - w[0] * u[2], D)
    return None if r2 or r1 else (a2, a1)


def line_count(rows, first, last, H: int, w2: int, w1: int, c: int) -> int:
    """The number of lattice points of a polygon on w_2 a_2 + w_1 a_1 = c,
    gcd(w_2, w_1) = 1.

    With w_1 = 0 the line is the row a_2 = c w_2.  Otherwise its point at
    a_2 is integral exactly when w_2 a_2 = c (mod |w_1|), one residue class
    of a_2 as w_2 is invertible mod |w_1|, and there a_1 = (c - w_2 a_2)/w_1
    holds |p + t a_2 + g a_1| <= H for every row (p, t, g) iff, times w_1,
        |(w_1 p + g c) + (w_1 t - g w_2) a_2| <= H |w_1|:
    an interval of a_2, clipped to the polygon's a_2 range.
    """
    lo, hi = first[0], last[0]
    if not w1:
        a2 = c * w2
        if not lo <= a2 <= hi:
            return 0
        lo1, hi1 = row_window(rows, a2, H)
        return max(0, hi1 - lo1 + 1)
    k = abs(w1)
    lo, hi = window_interval(
        [w1 * p + g * c for p, t, g in rows], [w1 * t - g * w2 for p, t, g in rows],
        0, len(rows) - 1, H * k, lo, hi,
    )
    if lo > hi:
        return 0
    r = c * pow(w2, -1, k) % k
    return (hi - r) // k - (lo - 1 - r) // k


def envelope_floor_sum(lines, lo: int, hi: int) -> int:
    """sum_(a=lo..hi) min_i floor((c_i + e_i a)/g_i) over lines (c, e, g), g > 0.

    On integers min_i floor(x_i) = floor(min_i x_i), so the sum follows the
    real lower envelope of the lines.  From a, a lowest line at a binds
    until a line of smaller slope passes strictly below it.  Each piece is
    one floor_sum, and the envelope is concave, so it has at most one piece
    per line.
    """
    total = 0
    a = lo
    while True:
        c, e, g = lines[0]
        for c2, e2, g2 in lines:
            if (c2 + e2 * a) * g < (c + e * a) * g2:
                c, e, g = c2, e2, g2
        end = hi
        for c2, e2, g2 in lines:
            D = e * g2 - e2 * g
            if D > 0:
                # line 2 is not below at a, and below exactly from x > (c2 g - c g2)/D
                x = (c2 * g - c * g2) // D
                if x < end:
                    end = x
        total += floor_sum(end - a + 1, g, e, c + e * a)
        if end == hi:
            return total
        a = end + 1


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_(i=0..n-1) floor((a*i + b)/m) for n >= 0, m >= 1, in O(log m) steps.

    The classical Euclid-like reduction (the AtCoder Library's floor_sum):
    take the integer parts of a/m and b/m out of the sum, then count the
    lattice points under the line by columns instead of rows.
    """
    s = 0
    while True:
        if a >= m or a < 0:
            q, a = divmod(a, m)
            s += q * (n * (n - 1) // 2)
        if b >= m or b < 0:
            q, b = divmod(b, m)
            s += q * n
        y = a * n + b
        if y < m:
            return s
        n, b, m, a = y // m, y % m, a, m
