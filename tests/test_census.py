import functools
import inspect
import itertools
import multiprocessing
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd, prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polycensus import census, cli, decompose
from polycensus.census import (
    BudgetError,
    CountQuery,
    count_bruteforce,
    count_forward,
    explicit_constants_sq,
    iter_decompositions,
    ordered_splits,
    _h_candidates,
    _inner_height_bound,
    _int_root,
    _oracle_count,
    _run_chunk,
)
from polycensus.asymptotics import spf
from polycensus.decompose import (
    _inner_degrees,
    decomposable_on_span,
    decompose_split,
    is_decomposable,
)
from polycensus.lattice import (
    polygon, polygon_count, polygon_rows, row_window, union_count, window_interval,
)
from polycensus.poly_core import add, compose, height, mul, poly_pow


def pack_truncated(f, d, H):
    """Pack the coefficients of x^1..x^d of f into one integer: digits c + H
    in base 2H+1, x^d most significant, the constant term dropped."""
    if len(f) != d + 1:
        raise ValueError("polynomial length does not match degree")
    key = 0
    for c in reversed(f[1:]):
        if c > H or c < -H:
            raise ValueError("coefficient outside the height box")
        key = key * (2 * H + 1) + (c + H)
    return key


def forward_key_set(d, H, monic, split):
    """The packed polynomials of one split's enumerated witness pairs, the
    reference that the forward counts are checked against."""
    keys, pairs, runs = set(), 0, {}
    for g, h in iter_decompositions(d, H, monic, split):
        # the pairs come in interleaved runs, one per orbit image, that differ
        # only in g's x term: one compose per run, then g(h) = (g - g_1 x)(h) + g_1 h
        f0 = runs.get((g[2:], h))
        if f0 is None:
            f0 = runs[g[2:], h] = compose((0, 0) + g[2:], h)
        keys.add(pack_truncated(add(f0, tuple(g[1] * c for c in h)), d, H))
        pairs += 1
    assert len(keys) == pairs, "two witness pairs give one polynomial"
    return keys


@functools.lru_cache(maxsize=None)
def union_key_set(d, H, monic):
    """The union of every split's forward_key_set, shared by repeated draws."""
    return frozenset().union(*(forward_key_set(d, H, monic, s) for s in ordered_splits(d)))


def columns_of(items, H, monic, cut=()):
    """(h, a_2, lo_1, hi_1) for every column of the (2, n) prefix items of
    _h_candidates that the cut keeps, in walk order, h = h0 + b_1 x: the
    expanded column stream."""
    return [
        ((0, b1) + item[0][2:], a2, lo1, hi1)
        for item in items
        for a2, b1, lo1, hi1 in census._columns(item, H, monic, cut, {})
    ]


def column_inners(items, H, monic, cut=()):
    """The inners of columns_of, each once: the prefixes in walk order, and
    the b_1 of each rising, so in lexicographic order, as at m >= 3."""
    return [
        (0, b1) + item[0][2:]
        for item in items
        for b1 in sorted({c[1] for c in census._columns(item, H, monic, cut, {})})
    ]


def cut_inners(items, cut):
    """The (h, h^2) items of _h_candidates(m, n, ..), m >= 3, that the chunk
    walks under the cut: those whose b_1 _cut_columns does not drop under
    their prefix b_(n-1)..b_2."""
    return [
        (h, sq) for h, sq in items
        if not cut or h[1] not in census._cut_columns((0, 0) + h[2:], cut, {})
    ]


def inner_items(items, m, H, monic, keep):
    """The items of _h_candidates(m, n, ..) cut to the inners h with keep(h):
    the (h, h^2) items at m >= 3, and at m = 2 one item per inner with a
    point (one_column)."""
    if m > 2:
        return [(h, sq) for h, sq in items if keep(h)]
    return [
        one_column(item, b1, H)
        for item in items
        for b1 in sorted({c[1] for c in census._columns(item, H, monic, (), {})})
        if keep((0, b1) + item[0][2:])
    ]


def one_column(item, b1, H):
    """A (2, n) prefix item cut to its one column b_1: its b_1 window, which
    must hold b_1, becomes b_1 alone."""
    h0, sq0, lo, hi = item
    assert lo <= b1 <= hi
    return h0, sq0, b1, b1


def walk_polygons(items, m, H, monic):
    """(h, sq, P, prefix, rows, first, last) for every non-empty polygon of
    the items of _h_candidates(m, n, ..), in walk order: those of _walk_outer,
    and at m = 2 the one row of each column, with P = 0, no prefix and rows
    None."""
    if m > 2:
        for h, sq in items:
            for P, prefix, rows, first, last in census._walk_outer(h, sq, m, H, monic):
                yield h, sq, P, prefix, rows, first, last
        return
    for h, a2, lo1, hi1 in columns_of(items, H, monic):
        yield h, mul(h, h), (0,) * (2 * len(h) - 1), [], None, (a2, lo1), (a2, hi1)


# exhaustively derived once with count_bruteforce over all 625 monic
# quartics of height <= 2 and pinned before the forward enumerator existed
D4_H2_MONIC = 65


def test_explicit_constants_examples():
    # K1 = 2^d (n+1)^(m/2): K1(2,2) = 48 and K1(3,2) = 2^6 * 3^1.5
    assert explicit_constants_sq(2, 2) == (2304, 720)
    assert explicit_constants_sq(3, 2)[0] == 110592
    for m, n in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 6)):
        k1_sq, k2_sq = explicit_constants_sq(m, n)
        assert k1_sq >= 1 and k2_sq >= 1
    with pytest.raises(ValueError):
        explicit_constants_sq(1, 4)


def test_k1_bound_exhaustive_small_box():
    # no decomposition of any monic quartic with H(f) <= 10 violates
    # |a| * H(h)^2 <= K1 * H(f), decided on the squares
    k1_sq, _ = explicit_constants_sq(2, 2)
    for g, h in iter_decompositions(4, 10, True, (2, 2)):
        f = compose(g, h)
        assert (g[-1] * height(h) ** 2) ** 2 <= k1_sq * height(f) ** 2


def test_enum_box():
    assert _inner_height_bound(2, 2, 10) == 21  # floor(sqrt(480))
    # non-monic inner leads run to floor(10^(1/2)) = 3: 9x^4 + 6x^3 + x^2 = (3x^2 + x)^2
    assert max(item[0][-1] for item in _h_candidates(2, 2, 10, False)) == 3


def test_outer_windows_are_exact_at_any_height():
    # monic (3, 2) over h = x^2 at H = 2^63: a_3 = 1 and f = x^6 + a_2 x^4 + a_1 x^2,
    # so the a_2 window is [-H, H] and the polygon holds (2H+1)^2 points
    H = 2**63
    h = (0, 0, 1)
    sq = mul(h, h)
    polygons = [
        (prefix[:], first[0], last[0], polygon_count(rows, first, last, H))
        for P, prefix, rows, first, last in census._walk_outer(h, sq, 3, H, True)
    ]
    assert polygons == [([1], -H, H, (2 * H + 1) ** 2)]


def test_int_root_exact_for_huge_radicands():
    rng = random.Random(21)
    for _ in range(400):
        x = rng.randrange(10 ** rng.randint(1, 300))
        k = rng.randint(2, 40)
        t = _int_root(x, k)
        assert t**k <= x < (t + 1) ** k


def test_enum_box_high_degree():
    # (K1*H)^2 = 2^1200 * 3^300 * 4 is far beyond float range
    assert _inner_height_bound(300, 2, 2) == 6
    # at d = 1024 even 2^d alone is past the largest float
    x = 2**2048 * 3**512 * 4
    assert 6**1024 <= x < 7**1024
    assert _inner_height_bound(512, 2, 2) == 6


def test_count_query_validation():
    with pytest.raises(ValueError):
        CountQuery(1, 5, True, "total")
    with pytest.raises(ValueError):
        CountQuery(4, 1, True, "total")
    with pytest.raises(ValueError):
        CountQuery(4, 5, True, "split")
    with pytest.raises(ValueError):
        CountQuery(4, 5, True, "split", (2, 3))
    with pytest.raises(ValueError):
        CountQuery(4, 5, True, "bogus")
    with pytest.raises(ValueError):
        CountQuery(4, 5, True, "total", (2, 2))


def test_pinned_regression_monic_quartics():
    q = CountQuery(4, 2, True, "total")
    assert count_bruteforce(q).count == D4_H2_MONIC
    assert count_forward(q).count == D4_H2_MONIC
    # the only split of 4 carries the whole count
    qs = CountQuery(4, 2, True, "split", (2, 2))
    assert count_forward(qs).count == D4_H2_MONIC


@pytest.mark.parametrize(
    "d,H,monic,variant,count",
    [
        (12, 6, True, "indecomp_pair", 4_820_556),  # excluded {4, 6}
        (16, 3, True, "indecomp_pair", 5_761_658),  # excluded {4, 8}
        (12, 3, False, "indecomp_pair", 702_464),
        (8, 80, True, "indecomp_pair", 866_085_654),  # excluded {4}
        (12, 6, True, "total", 4_966_871),  # (3, 4) excludes {2, 3}, (2, 6) {2, 3, 4}
        # totals whose time is spent in the splits (2, n): the inner cut {2, 3}
        # of (2, 6), {2, 4} of (2, 8), {3} of (2, 9) and {2} of (2, 4)
        (12, 8, True, "total", 24_562_059),
        (12, 3, False, "total", 729_414),
        (16, 3, True, "total", 5_783_953),
        (18, 2, True, "total", 1_976_725),
        (8, 15, False, "total", 29_596_878),
    ],
)
def test_pinned_regression_excluded_degrees(d, H, monic, variant, count):
    # counts where the exclusion of each polygon solves one or two excluded
    # degrees, or the chunk cuts the inners that decompose, at heights
    # beyond the per-pair reference
    assert count_forward(CountQuery(d, H, monic, variant)).count == count


@pytest.mark.parametrize(
    "d,H,monic,variant,count",
    [
        (24, 2, True, "total", 244_574_795),
        (24, 2, True, "split:12,2", 244_140_625),
        (12, 40, True, "split:6,2", 283_873_789_647),
        # computed once by walking x^2, before its block had a closed form
        (24, 2, True, "indecomp_pair", 244_123_190),
        (24, 2, False, "indecomp_pair", 976_495_180),
        (24, 2, False, "total", 978_210_840),
    ],
)
def test_pinned_regression_closed_form_power(d, H, monic, variant, count):
    # queries whose count is mostly the block of x^n, now counted in closed
    # form; the budget lets through the (6, 2) split's 81^5 pairs
    split = tuple(map(int, variant[6:].split(","))) if variant.startswith("split:") else None
    q = CountQuery(d, H, monic, "split" if split else variant, split)
    assert count_forward(q, budget=10**12).count == count


@pytest.mark.parametrize("d", [4, 6, 8, 9, 12, 16])
@pytest.mark.parametrize("monic", [True, False], ids=["monic", "non-monic"])
def test_closed_form_power_matches_its_walk(monkeypatch, d, monic):
    # for every split of every variant's plan, x^n alone through _run_split
    # under the plan's x^n rule (the closed form where it is an int) against
    # _run_chunk walking [x^n] under the split's exclusion: the same pairs, away
    # and block tops; a non-monic closed form has the walk's tops and their
    # tau images -top, as the walk takes the leads a_m > 0 only.  At m = 2,
    # x^n is the column b_1 = 0 of the zero prefix, which _run_split walks
    # like any other column: its pairs and away are those of the closed form
    H = 3 if d <= 8 else 2
    real_split, real_chunk, real_h = census._run_split, census._run_chunk, census._h_candidates
    plans = set()

    def planned(*a, **kw):
        # indecomp_pair's rule runs a total at degree m < d through this
        # stand-in: that one runs, and only the outer query's splits are kept
        if a[0] != d:
            return real_split(*a, **kw)
        plans.add((a[3], a[5], kw["power_away"]))
        return 0, 0, None, 0

    monkeypatch.setattr(census, "_run_split", planned)
    for q in [CountQuery(d, H, monic, v) for v in ("total", "indecomp_pair")] + [
        CountQuery(d, H, monic, "split", s) for s in ordered_splits(d)
    ]:
        count_forward(q)
    monkeypatch.setattr(census, "_run_split", real_split)
    closed, recursive = 0, []
    for split, excluded, rule in sorted(plans, key=lambda p: p[:2]):
        m, n = split
        power = ((0,) * n + (1,), (0,) * (2 * n) + (1,))
        chunks, tops = [], []

        def only_power(m_, n_, H_, *rest):
            hs = real_h(m_, n_, H_, *rest)
            if (m_, n_) != split:
                return hs
            if m_ == 2:  # the zero prefix of lead 1, cut to its column b_1 = 0
                return [one_column(c, 0, H_) for c in hs if c[:2] == power]
            return [c for c in hs if c == power]

        def recording(args, **kw):
            chunks.append((args, list(args[4])))  # the chunk consumes its items
            return real_chunk(args, **kw)

        monkeypatch.setattr(census, "_h_candidates", only_power)
        monkeypatch.setattr(census, "_run_chunk", recording)
        monkeypatch.setattr(census, "_check_pieces", lambda m_, n_, H_, c: tops.append(c))
        pairs, _, _, away = census._run_split(
            d, H, monic, split, 1, excluded, 10**12, pool=[], power_away=rule
        )
        (args, items), = chunks  # the split's one chunk
        assert args[3] == split
        inners = only_power(m, n, H, monic)
        walk = real_chunk((d, H, monic, split, list(inners), args[5], 10**12))
        assert (pairs, away) == (walk[0], walk[3])
        if m == 2:
            assert items == inners  # walked, never in closed form
            if rule is not None:
                assert (pairs, away) == (census._box_size(1, H, monic), rule)
        else:
            assert (rule is not None) == bool(inners and not items)
        if rule is not None and m > 2:
            closed += 1
            if args[5]:  # indecomp_pair's kernel: away from a total at degree m
                recursive.append(away)
        walked_tops = walk[4] + [
            tuple(-c for c in t) for t in walk[4] if rule is not None and not monic and m > 2
        ]
        assert sorted(t for c in tops[-1] for t in c) == sorted(walked_tops)
    # x^n in closed form at m >= 3 wherever nothing is excluded and in the
    # dominant split (d/l, l) of indecomp_pair; walked in the other splits of
    # a total.  d = 4 has the split (2, 2) alone
    top = d // spf(d)
    assert closed == sum(s[0] > 2 and (not e or s == (top, spf(d))) for s, e, _ in plans)
    assert (closed > 0) == (d > 4)
    assert len(recursive) == (spf(top) != top) and all(recursive)  # m composite


def test_run_split_applies_the_power_rule_it_is_given(monkeypatch):
    # the dominant split of monic d = 8 indecomp_pair, m = 4 composite, with
    # the rule count_forward computes; _run_split itself counts nothing
    q = CountQuery(8, 4, True, "indecomp_pair")
    ((split, excluded),) = census._plan(q)
    rule = count_forward(CountQuery(4, 4, True, "total")).count // 9
    assert excluded and rule

    def refuse(*args, **kwargs):
        raise AssertionError("_run_split called count_forward")

    monkeypatch.setattr(census, "count_forward", refuse)
    pairs, _, _, away = census._run_split(
        8, 4, True, split, 1, excluded, 10**12, pool=[], power_away=rule
    )
    monkeypatch.undo()
    assert (pairs - away) * 9 == count_forward(q).count


def test_prime_degree_zero():
    assert count_forward(CountQuery(5, 10, True, "total")).count == 0
    assert count_forward(CountQuery(7, 10, False, "total")).count == 0
    assert count_bruteforce(CountQuery(5, 2, True, "total")).count == 0


def test_oracle_equivalence_monic_d4():
    for H in (2, 3, 4, 5):
        q = CountQuery(4, H, True, "total")
        assert count_forward(q).count == count_bruteforce(q).count


def test_oracle_equivalence_monic_d6_splits():
    for H in (2, 3):
        for variant, split in (("split", (2, 3)), ("split", (3, 2)), ("total", None), ("indecomp_pair", None)):
            q = CountQuery(6, H, True, variant, split)
            assert count_forward(q).count == count_bruteforce(q).count, (H, variant, split)


def test_oracle_equivalence_non_monic_d4():
    for H in (2, 3):
        q = CountQuery(4, H, False, "total")
        assert count_forward(q).count == count_bruteforce(q).count


def test_oracle_equivalence_d8_total_and_ipair():
    for variant in ("total", "indecomp_pair"):
        q = CountQuery(8, 2, True, variant)
        assert count_forward(q).count == count_bruteforce(q, budget=10**6).count


@pytest.mark.parametrize(
    "d,H,monic,variant",
    [(6, 6, True, "total"), (8, 3, True, "total"), (8, 3, True, "indecomp_pair"),
     (6, 4, False, "total"), (6, 12, True, "total"), (12, 2, True, "total"),
     (12, 2, True, "indecomp_pair"), (6, 8, False, "total")],
)
def test_oracle_equivalence_beyond_the_default_budget(d, H, monic, variant):
    # boxes of 4.3M-390M polynomials, out of reach of the per-polynomial oracle
    q = CountQuery(d, H, monic, variant)
    assert count_forward(q).count == count_bruteforce(q, budget=10**9).count


def scalar_oracle(ranges, leads, variant, split=None):
    """The oracle before the block walk: one decomposition test per polynomial
    of the box leads x ranges[d-1] x .. x ranges[0], kept as its reference."""
    d = len(ranges)
    ell = spf(d)
    count = 0
    for low in itertools.product(*ranges):
        for c in leads:
            f = low + (c,)
            if variant == "split":
                count += decompose_split(f, *split) is not None
            elif variant == "indecomp_pair":
                if ordered_splits(d):
                    w = decompose_split(f, d // ell, ell)
                    count += w is not None and not is_decomposable(w.g)
            else:
                count += is_decomposable(f)
    return count


def box_leads(H, monic):
    return [1] if monic else [a for a in range(-H, H + 1) if a]


# full height boxes of at most 20k polynomials; sub_boxes reaches d = 8, 9
FULL_BOXES = [(4, 2, True), (4, 3, True), (4, 2, False), (5, 2, True), (5, 2, False), (6, 2, True)]


@pytest.mark.parametrize("d,H,monic", FULL_BOXES)
def test_block_oracle_matches_scalar_on_full_boxes(d, H, monic):
    ranges, leads = [range(-H, H + 1)] * d, box_leads(H, monic)
    variants = [("total", None), ("indecomp_pair", None)]
    variants += [("split", s) for s in ordered_splits(d)]
    for variant, split in variants:
        q = CountQuery(d, H, monic, variant, split)
        assert count_bruteforce(q).count == scalar_oracle(ranges, leads, variant, split), q


@st.composite
def sub_boxes(draw, cap=20_000):
    """A box of at most cap polynomials around a composed polynomial, so
    that the multi-split degrees 8 and 9 fit as well as 4, 5 and 6."""
    d = draw(st.sampled_from([4, 5, 6, 8, 9]), label="d")
    monic = draw(st.booleans(), label="monic")
    splits = ordered_splits(d)
    variants = ["total", "indecomp_pair"] + (["split"] if splits else [])
    variant = draw(st.sampled_from(variants), label="variant")
    split = draw(st.sampled_from(splits), label="split") if variant == "split" else None
    small = st.integers(-2, 2)
    if splits:
        m, n = split or draw(st.sampled_from(splits))
        g = draw(st.lists(small, min_size=m, max_size=m))
        g.append(1 if monic else draw(st.sampled_from([-2, -1, 1, 2])))
        h = [0] + draw(st.lists(small, min_size=n - 1, max_size=n - 1))
        h.append(1 if monic else draw(st.integers(1, 2)))
        centre = compose(tuple(g), tuple(h))
    else:
        centre = tuple(draw(st.lists(small, min_size=d, max_size=d))) + (1,)
    if monic:
        leads = [1]
    else:
        c, w = centre[-1], draw(st.integers(1, 3))
        leads = [a for a in range(c - draw(st.integers(0, w - 1)), c + w) if a][:w] or [c]
    widths = [draw(st.integers(1, 4)) for _ in range(d)]
    while len(leads) * prod(widths) > cap:
        widths[widths.index(max(widths))] -= 1
    ranges = []
    for i, w in enumerate(widths):
        lo = centre[i] - draw(st.integers(0, w - 1))
        ranges.append(range(lo, lo + w))
    return ranges, leads, variant, split


@settings(max_examples=60, deadline=None)
@given(sub_boxes(), st.booleans())
def test_block_oracle_matches_scalar_on_sub_boxes(box, object_path):
    # object_path: every row bound fails the int64 test, so every block
    # evaluates in Python ints
    ranges, leads, variant, split = box
    limit = 0 if object_path else census._INT64_LIMIT
    with mock.patch.object(census, "_INT64_LIMIT", limit):
        got = _oracle_count(ranges, leads, variant, split)
    assert got == scalar_oracle(ranges, leads, variant, split)


def test_block_oracle_object_path_on_full_boxes(monkeypatch):
    monkeypatch.setattr(census, "_INT64_LIMIT", 0)
    for q in (
        CountQuery(6, 2, True, "total"),
        CountQuery(6, 2, True, "indecomp_pair"),
        CountQuery(4, 3, False, "total"),
    ):
        ranges, leads = [range(-q.H, q.H + 1)] * q.d, box_leads(q.H, q.monic)
        assert count_bruteforce(q).count == scalar_oracle(ranges, leads, q.variant), q


@pytest.mark.parametrize(
    "d,H,monic",
    [
        (8, 6, True),
        (8, 3, False),
        (12, 3, True),
        (16, 2, True),
        (12, 2, False),
        (6, 6, True),
        (10, 3, True),
    ],
)
def test_indecomp_pair_matches_per_pair_reference(d, H, monic):
    # one is_decomposable call per enumerated pair of the dominant split
    ell = spf(d)
    pairs = iter_decompositions(d, H, monic, (d // ell, ell))
    slow = (2 * H + 1) * sum(not is_decomposable(g) for g, _ in pairs)
    assert count_forward(CountQuery(d, H, monic, "indecomp_pair")).count == slow


def test_count_nondecreasing_in_height():
    prev = -1
    for H in range(2, 30, 3):
        c = count_forward(CountQuery(4, H, True, "total")).count
        assert c >= prev
        prev = c


def test_monic_at_most_non_monic():
    for H in (2, 3, 4):
        cm = count_forward(CountQuery(4, H, True, "total")).count
        cn = count_forward(CountQuery(4, H, False, "total")).count
        assert cm <= cn


def test_eq1_split_sum_bounds_total():
    for d, H in ((6, 5), (8, 4), (12, 2)):
        total = count_forward(CountQuery(d, H, True, "total")).count
        split_counts = [
            count_forward(CountQuery(d, H, True, "split", s)).count for s in ordered_splits(d)
        ]
        assert total <= sum(split_counts)
        assert all(sc <= total for sc in split_counts)


def test_indecomp_at_most_dominant_split():
    for d, H in ((6, 4), (8, 4), (12, 2)):
        i = count_forward(CountQuery(d, H, True, "indecomp_pair")).count
        dom = count_forward(CountQuery(d, H, True, "split", (d // 2, 2))).count
        assert i <= dom


def test_square_degree_identity():
    # d = l^2 forces I_d(H) = D_d(l,l;H) = D_d(H)
    for d, H in ((4, 20), (9, 6)):
        ell = 2 if d == 4 else 3
        total = count_forward(CountQuery(d, H, True, "total")).count
        split = count_forward(CountQuery(d, H, True, "split", (ell, ell))).count
        ipair = count_forward(CountQuery(d, H, True, "indecomp_pair")).count
        assert total == split == ipair


def test_lower_bound_power_inner_family():
    # (x^m + .. + a_0) o x^n alone contributes (2H+1)^m distinct polynomials
    for (m, n), H in (((2, 2), 12), ((2, 3), 6), ((3, 2), 6)):
        c = count_forward(CountQuery(m * n, H, True, "split", (m, n))).count
        assert c >= (2 * H + 1) ** m


def test_forward_key_set_and_packing():
    keys = forward_key_set(4, 6, True, (2, 2))
    f = compose((3, -2, 1), (0, 2, 1))
    if height(f) <= 6:
        assert pack_truncated(f, 4, 6) in keys
    # truncation: constant term never matters
    g = compose((5, -2, 1), (0, 2, 1))
    if height(g) <= 6:
        assert pack_truncated(g, 4, 6) == pack_truncated((5,) + f[1:], 4, 6)


def test_pack_truncated_rejects_out_of_box():
    with pytest.raises(ValueError):
        pack_truncated((0, 9, 0, 0, 1), 4, 5)


def test_worker_independence(monkeypatch, pool_sizes):
    # with the threshold at 0 every split with inners besides x^n (counted in
    # closed form) runs them in batches on a stand-in pool of up to four
    # workers; the batches merge to the one-worker count of every variant
    # and split
    monkeypatch.setattr(census, "_POOL_AFTER", 0)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    real, cuts = census._batches, []
    real_chunk, walked = census._run_chunk, []

    def recording(rest, *args):
        batches = real(rest, *args)
        cuts.append([list(b) for b in batches])  # the chunks consume the batches
        return batches

    def counting(args, **kw):
        out = real_chunk(args, **kw)
        walked.append(out[0])
        return out

    monkeypatch.setattr(census, "_batches", recording)
    monkeypatch.setattr(census, "_run_chunk", counting)

    def check(q, workers):
        one = count_forward(q).count
        pools, start = len(pool_sizes), len(walked)
        assert count_forward(q, workers=workers).count == one
        # one pool, whose batches walked pairs
        assert pool_sizes[pools:] == [min(workers, 4)] and sum(walked[start:]) > 0
        return one

    for workers in (2, 5):
        check(CountQuery(4, 30, True, "total"), workers)
    q = CountQuery(6, 3, True, "total")
    assert check(q, 3) == count_bruteforce(q).count
    for d, H, monic in ((8, 4, True), (6, 3, False)):
        queries = [CountQuery(d, H, monic, v) for v in ("total", "indecomp_pair")]
        queries += [CountQuery(d, H, monic, "split", s) for s in ordered_splits(d)]
        for q in queries:
            check(q, 4)
    assert max(pool_sizes) == 4
    # the batches cut whole inners (prefixes at m = 2): none is in two batches of a split
    assert any(len(batches) > 1 for batches in cuts)
    for batches in cuts:
        hs = [item[0] for batch in batches for item in batch]
        assert len(hs) == len(set(hs))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run the batches in-process through a stand-in pool; yield the sizes of
    the pools started, one entry per pool."""
    sizes = []

    class FakePool:
        def __init__(self, k):
            sizes.append(k)

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(census, "_start_pool", FakePool)
    return sizes


def test_pool_size_capped_at_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.setattr(census, "_POOL_AFTER", 0)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    q = CountQuery(6, 3, True, "total")
    r = count_forward(q, workers=1000)
    # both splits of the total run on one pool of cpu_count processes
    assert pool_sizes == [3]
    assert r.workers == 1000
    assert r.count == count_forward(q, workers=1).count
    assert pool_sizes == [3]  # and one worker starts none


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "variant,split", [("split", (3, 2)), ("indecomp_pair", None), ("total", None)]
)
def test_uniqueness_recheck_catches_repeated_candidate(
    monkeypatch, pool_sizes, variant, split, workers
):
    # the last inner candidate of (3, 2), the dominant split of d = 6, comes
    # twice; (3, 2) has two sigma-canonical inners, x^2 and x^2 + x (x^2 - x
    # is counted as the sigma image of x^2 + x), and x^2 is counted in closed
    # form, so the walk holds x^2 + x and the copy.  Every inner holds a
    # polygon, so with the threshold at one polygon the calling process
    # walks the original and the pool the copy
    real, real_chunk = census._h_candidates, census._run_chunk
    chunks = []

    def repeated(m, n, *rest):
        hs = real(m, n, *rest)
        if (m, n) != (3, 2):
            return hs
        assert [h for h, _ in hs] == [(0, 0, 1), (0, 1, 1)]
        return hs + hs[1:]

    def recording(args, **kw):
        out = real_chunk(args, **kw)
        if args[3] == (3, 2):
            chunks.append(out[4])  # the tops of the blocks it walked
        return out

    monkeypatch.setattr(census, "_POOL_AFTER", 1)
    monkeypatch.setattr(census, "_h_candidates", repeated)
    monkeypatch.setattr(census, "_run_chunk", recording)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="uniqueness"):
        count_forward(CountQuery(6, 3, True, variant, split), workers=workers)
    if workers == 1:
        # one chunk over the two walked inners, the first block's top twice
        assert pool_sizes == [] and len(chunks) == 1
        assert chunks[0].count(chunks[0][0]) == 2
    else:
        # the original in the calling process's chunk, the copy in a pool
        # batch, so only the merged tops can see it
        assert pool_sizes == [2] and len(chunks[0]) == 1
        assert sum(c.count(chunks[0][0]) for c in chunks[1:]) == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "q",
    [
        CountQuery(6, 3, True, "split", (3, 2)),
        CountQuery(6, 3, True, "total"),
        CountQuery(8, 4, True, "indecomp_pair"),  # the closed form's away by recursion
    ],
    ids=["split", "total", "indecomp_pair"],
)
def test_uniqueness_recheck_catches_a_repeated_power(monkeypatch, pool_sizes, q, workers):
    # x^n comes twice in the dominant split: the closed form takes out one
    # copy, and the other is walked, in the calling process at one worker and
    # on the pool at two; its block tops repeat those of the closed form
    real, real_chunk = census._h_candidates, census._run_chunk
    split = (q.d // 2, 2)
    power = ((0, 0, 1), (0, 0, 0, 0, 1))
    walked = []

    def repeated(m, n, *rest):
        hs = real(m, n, *rest)
        return hs + [power] if (m, n) == split else hs

    def recording(args, limit=None):
        items = list(args[4])
        out = real_chunk(args, limit=limit)
        if args[3] == split:  # the inners it walked; with limit, it left the others
            walked.extend(items[: len(items) - len(args[4])] if limit is not None else items)
        return out

    monkeypatch.setattr(census, "_POOL_AFTER", 0)
    monkeypatch.setattr(census, "_h_candidates", repeated)
    monkeypatch.setattr(census, "_run_chunk", recording)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="distinct top"):
        count_forward(q, workers=workers)
    assert walked.count(power) == 1
    assert pool_sizes == ([] if workers == 1 else [2])


@pytest.mark.parametrize(
    "m,n,H,monic", [(6, 2, 12, True), (4, 2, 8, False), (3, 2, 6, False), (2, 4, 4, True)]
)
def test_pieces_cut_the_walk_exactly(m, n, H, monic):
    # the calling process stops at an inner boundary (a prefix at m = 2) and
    # _batches cuts the inners it leaves: together they walk the whole split
    # once, in order
    d = m * n
    inners = _h_candidates(m, n, H, monic)

    def walked(items):
        return [
            (h, tuple(P), tuple(prefix), first, last)
            for h, sq, P, prefix, rows, first, last in walk_polygons(items, m, H, monic)
        ]

    whole = walked(inners)
    full = _run_chunk((d, H, monic, (m, n), list(inners), (), 10**12))
    assert len(inners) > 2 and len(whole) > 2
    for limit in (0, 1, len(whole) // 2, 10**9):
        items = list(inners)
        head = _run_chunk((d, H, monic, (m, n), items, (), 10**12), limit=limit)
        # what the calling process leaves: the inners after the last it walked
        assert items == inners[len(inners) - len(items) :]
        assert (limit == 0) == (items == inners)
        assert not items or len(whole) - len(walked(items)) >= limit
        for count in (1, 3, 7):
            batches = census._batches(items, count) if items else []
            assert len(batches) <= count and all(batches)
            assert [c for b in batches for c in b] == items
            rest = [_run_chunk((d, H, monic, (m, n), b, (), 10**12)) for b in batches]
            assert head[0] + sum(r[0] for r in rest) == full[0]
            assert head[4] + [t for r in rest for t in r[4]] == full[4]
            census._check_pieces(m, n, H, [head[4]] + [r[4] for r in rest])


def test_check_pieces_cases():
    # chunks as _run_chunk reports them: the tops of their blocks, in walk
    # order; every block lies in one chunk, and no two may share a top
    census._check_pieces(2, 2, 3, [[(0, 1)], [], [(1, 1), (2, 1)]])
    census._check_pieces(2, 2, 3, [])
    for chunks in [
        [[(0, 1)], [(0, 1)]],  # one top in two chunks
        [[(0, 1), (1, 1), (0, 1)]],  # one top twice in a chunk
        [[(1, 1)], [], [(2, 1), (1, 1)]],
    ]:
        with pytest.raises(RuntimeError, match="distinct top"):
            census._check_pieces(2, 2, 3, chunks)


@pytest.fixture
def real_pools(monkeypatch):
    """Start real pools, of two processes at most cpu_count; yield their sizes."""
    sizes, real = [], census._start_pool

    def recording(k):
        sizes.append(k)
        return real(k)

    monkeypatch.setattr(census, "_start_pool", recording)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    yield sizes
    assert multiprocessing.active_children() == []


def test_real_pool_matches_one_worker(real_pools):
    # the (2, 6) split of monic d = 12 at H = 8 walks more polygons than
    # the default threshold, so two workers start the query's one pool; its
    # (6, 2) split walks none, x^2 being its one inner with a polygon
    q = CountQuery(12, 8, True, "total")
    t0 = time.perf_counter()
    two = count_forward(q, workers=2).count
    assert time.perf_counter() - t0 < 2
    assert real_pools == [2]
    assert two == count_forward(q, workers=1).count == 24562059


@pytest.mark.parametrize("error", [BudgetError, RuntimeError], ids=["budget", "uniqueness"])
def test_errors_in_a_started_pool_propagate(monkeypatch, real_pools, error):
    monkeypatch.setattr(census, "_POOL_AFTER", 0)
    if error is BudgetError:
        # every batch of (2, 4) at H = 4 holds more than 10 pairs; the
        # up-front check, which would refuse the query first, is skipped
        monkeypatch.setattr(census, "check_budget", lambda *args: None)
        q, budget = CountQuery(8, 4, True, "split", (2, 4)), 10
    else:
        # negated inners (lead -1) make the keys fall inside a block, which
        # the chunk that walks it sees; with the threshold at 0 that is a
        # pool batch
        real = census._h_candidates
        monkeypatch.setattr(
            census, "_h_candidates", lambda *a: [(tuple(-c for c in h), sq) for h, sq in real(*a)]
        )
        q, budget = CountQuery(8, 3, True, "split", (4, 2)), None
    with pytest.raises(error, match="budget" if error is BudgetError else "uniqueness") as info:
        count_forward(q, workers=2, budget=budget)
    # raised in a worker: the pool attaches the worker's traceback as the cause
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
    assert real_pools == [2]


def test_one_worker_walks_a_split_in_one_chunk(monkeypatch, pool_sizes):
    # at one worker the calling process walks the whole split, however far
    # past _POOL_AFTER, in one _run_chunk call, and starts no pool; at two
    # the same split goes on a pool, to the same result
    monkeypatch.setattr(census, "_POOL_AFTER", 0)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    real, limits = census._run_chunk, []

    def recording(args, limit=None):
        limits.append(limit)
        return real(args, limit=limit)

    monkeypatch.setattr(census, "_run_chunk", recording)
    excluded = dict(census._plan(CountQuery(12, 6, True, "total")))[(2, 6)]
    one = census._run_split(12, 6, True, (2, 6), 1, excluded, 10**12, pool=[], power_away=None)
    assert limits == [None] and pool_sizes == []
    two = census._run_split(12, 6, True, (2, 6), 2, excluded, 10**12, pool=[], power_away=None)
    assert two == one and pool_sizes == [2] and limits[1] == 0 and len(limits) > 2


def test_cli_and_forward_counts_load_no_numpy():
    # numpy is the oracle's alone: a fresh interpreter that imports the
    # command line and runs a forward count never loads it
    code = (
        "import sys, polycensus.cli; from polycensus.census import CountQuery, count_forward; "
        "loaded = 'numpy' in sys.modules; "
        "count_forward(CountQuery(8, 4, True, 'indecomp_pair'), workers=2); "
        "print(loaded, 'numpy' in sys.modules)"
    )
    src = str(Path(census.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0 and out.stdout.strip() == "False False"


def test_small_split_starts_no_pool(real_pools):
    # the (4, 2) split of monic d = 8 at H = 18 walks 61 polygons
    q = CountQuery(8, 18, True, "indecomp_pair")
    assert count_forward(q, workers=2).count == count_forward(q, workers=1).count
    assert real_pools == []
    # and a process that never starts a pool never imports one
    code = (
        "import sys; from polycensus.census import CountQuery, count_forward; "
        "count_forward(CountQuery(8, 18, True, 'indecomp_pair'), workers=2); "
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    src = str(Path(census.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0 and out.stdout.strip() == "[]"


def test_uniqueness_recheck_catches_keys_out_of_order(monkeypatch):
    # negated inners (lead -1) make the keys fall inside a block; the blocks
    # still have distinct tops, so only the per-leaf comparison sees it
    real = census._h_candidates
    monkeypatch.setattr(
        census, "_h_candidates", lambda *a: [(tuple(-c for c in h), sq) for h, sq in real(*a)]
    )
    with pytest.raises(RuntimeError, match="not increasing"):
        count_forward(CountQuery(6, 3, True, "split", (3, 2)))


@pytest.mark.parametrize("split,last_row", [((3, 2), False), ((2, 3), False), ((3, 2), True)])
def test_uniqueness_recheck_catches_a_repeated_polygon(monkeypatch, split, last_row):
    # every polygon (every column at m = 2) is yielded again right after
    # itself, whole or (last_row, polygons of several a_2 only) just its last
    # row, so the copy lies in the same block, or at m = 2 the same run of
    # columns of one a_2, with the same top coefficients; only the
    # per-polygon key comparison sees it (at m = 2 the per-column comparison
    # of [f]_(n+1)).  A last row starts above the polygon's first key, so the
    # comparison must be with the last key.
    real, real_columns = census._walk_outer, census._columns

    def again(h, sq, m, H, monic):
        for P, prefix, rows, first, last in real(h, sq, m, H, monic):
            yield P, prefix, rows, first, last
            if not last_row:
                yield P, prefix, rows, first, last
            elif first[0] < last[0]:
                yield P, prefix, rows, (last[0], row_window(rows, last[0], H)[0]), last

    def columns_again(*args):
        for column in real_columns(*args):
            yield column
            yield column

    monkeypatch.setattr(census, "_walk_outer", again)
    monkeypatch.setattr(census, "_columns", columns_again)
    with pytest.raises(RuntimeError, match="not increasing"):
        count_forward(CountQuery(6, 3, True, "split", split))


# largest H drawn per (d, monic); each count takes well under a second, and
# union_key_set builds each reference once (about 3 s for non-monic d = 16)
TOTAL_HEIGHTS = {
    (4, True): 12, (4, False): 8, (6, True): 8, (6, False): 6, (8, True): 6,
    (8, False): 4, (9, True): 6, (9, False): 4, (10, True): 3, (10, False): 3,
    (12, True): 3, (12, False): 2, (16, True): 2, (16, False): 2,
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(TOTAL_HEIGHTS)), st.sampled_from([1, 2]), st.data())
def test_total_matches_union_of_split_key_sets(dm, workers, data):
    # the total's attribution to the smallest inner degree against the plain
    # union of every split's key set, and against the oracle where it fits
    d, monic = dm
    H = data.draw(st.integers(2, TOTAL_HEIGHTS[dm]), label="H")
    q = CountQuery(d, H, monic, "total")
    count = count_forward(q, workers=workers).count
    assert count == (2 * H + 1) * len(union_key_set(d, H, monic))
    if census._box_size(d, H, monic) <= 20_000:
        assert count == count_bruteforce(q).count


def test_two_inner_degrees_counted_once():
    # f = (x^2+x)^4 + c is g(h) in the splits (4,2) and (2,4); the total counts
    # it in (4,2), and its (2,4) row, f = h^2 + a*h, is attributed away whole
    d, H = 8, 6
    h = (0, 0, 1, 2, 1)  # (x^2+x)^2
    f = compose((0, 0, 1), h)
    assert height(f) == H
    key = pack_truncated(f, d, H)
    assert key in forward_key_set(d, H, True, (4, 2))
    assert key in forward_key_set(d, H, True, (2, 4))
    # h has b_1 = 0, so it is its own prefix, and its column is b_1 = 0
    [item] = [c for c in _h_candidates(2, 4, H, True) if c[0] == h]
    item = one_column(item, 0, H)
    polygons = list(walk_polygons([item], 2, H, True))
    # m = 2: the monic lead a_2 = 1 is the only column, a single row over P = 0
    [(h1, sq, P, prefix, rows, first, last)] = polygons
    assert h1 == h and sq == mul(h, h)
    assert prefix == [] and first[0] == last[0] == 1 and not any(P) and rows is None
    assert (first, last) == polygon(P, h, mul(h, h), 1, 1, H)[1:]
    [(a2, lo, hi)] = polygon_rows(rows, first, last, H)
    assert a2 == 1 and lo <= 0 <= hi and mul(h, h) == f
    assert decomposable_on_span(f, (h,), (2,)) is None
    pairs, _, _, away, _ = _run_chunk((d, H, True, (2, 4), [item], (), 10**9))
    # a_2 = 1 is the only row of this h, counted with that of sigma(h) = (x^2-x)^2
    assert pairs == 2 * (hi - lo + 1) and away == 0
    # the total's (2, 4) split excludes the degree 2, whose cut drops h's
    # column in the chunk, so all of its pairs are attributed away
    items = _h_candidates(2, 4, H, True)
    assert h in column_inners(items, H, True)
    assert h not in column_inners(items, H, True, (2,))
    assert _run_chunk((d, H, True, (2, 4), [item], (2,), 10**9))[:4] == (0, 0, None, 0)
    count = count_forward(CountQuery(d, H, True, "total")).count
    assert count == (2 * H + 1) * len(union_key_set(d, H, True))


def test_composite_smaller_inner_degree_attributes_away(monkeypatch):
    # f = (x^4+x)^4 + a(x^4+x)^2 lies in the splits (4,4) and (2,8) but not
    # in (8,2), as x^4+x is indecomposable; only the composite inner degree
    # 4 attributes its (2,8) pairs away: the (2,8) inner (x^4+x)^2 decomposes
    # with it, so the chunk of (2,8), cut {2, 4}, drops it.  The inners are
    # cut to this family, and the chunks cut them as in every split
    # (test_inner_cut_drops_exactly_the_decomposable_inners).
    d, H = 16, 6
    h4 = (0, 1, 0, 0, 1)
    h8 = compose((0, 0, 1), h4)
    assert decomposable_on_span(h4, (), (2,)) is not None
    assert decomposable_on_span(h8, (), (2,)) is not None
    assert decomposable_on_span(h8, (), (4,)) is None
    only = {(4, 4): [h4], (2, 8): [h8]}
    # h8 has b_1 = 0: at m = 2 it is its own prefix, cut to its one column
    # (its window at a_2 = 1 holds b_1 = 0: test_prefix_windows_nest)
    monkeypatch.setattr(
        census, "_h_candidates",
        lambda m, n, H, monic: [
            (h, mul(h, h)) if m > 2 else (h, mul(h, h), 0, 0) for h in only.get((m, n), [])
        ],
    )
    dropped = census._h_candidates(2, 8, H, True)
    assert _run_chunk((d, H, True, (2, 8), dropped, (2, 4), 10**9))[0] == 0
    keys4 = forward_key_set(d, H, True, (4, 4))
    assert forward_key_set(d, H, True, (2, 8)) <= keys4
    assert count_forward(CountQuery(d, H, True, "total")).count == (2 * H + 1) * len(keys4)


# (m, n, H, monic): splits whose total kernel is coprime to n, k = 2 for
# (2,3), (2,5) and (4,3), k = 3 for (3,4) and (3,5)
COPRIME_SWEEP = [
    (2, 3, 120, True), (2, 3, 40, False), (2, 5, 25, True), (2, 5, 10, False),
    (4, 3, 16, True), (4, 3, 8, False), (3, 4, 40, True), (3, 4, 16, False),
    (3, 5, 10, True), (3, 5, 5, False),
]


@pytest.mark.parametrize("m,n,H,monic", COPRIME_SWEEP)
def test_coprime_rule_matches_the_kernel_per_polygon(monkeypatch, m, n, H, monic):
    # the total's plan for the split: the cut drops the inners with a right
    # component of a proper divisor of n, and the kernel degrees left are
    # the k < n with gcd(k, n) = 1 (no sweep case has a cut at m = 2)
    d = m * n
    degrees = tuple(k for k in _inner_degrees(d) if k < n and gcd(k, n) == 1)
    cut = tuple(e for e in _inner_degrees(d) if e < n and n % e == 0)
    assert m > 2 or not cut
    inners = _h_candidates(m, n, H, monic)
    items = cut_inners(inners, cut) if m > 2 else inners
    seen = {"line": 0, "nothing": 0, "kernel": 0}
    candidates = {}
    rules = {}  # per inner, decided at its first polygon (at m = 2 a column)
    away = 0  # the kernel's exclusions, with the orbit weights of _run_chunk
    for h, sq, P, prefix, rows, first, final in walk_polygons(items, m, H, monic):
        if h not in rules:
            rules[h] = census._coprime_rule(h, m, degrees)
            seen["kernel" if rules[h] is None else "line" if rules[h] else "nothing"] += 1
        rule = rules[h]
        s = sq + (0,) * (d - 2 * n)
        w = (2 if any(h[n - 1 :: -2]) else 1) * (1 if monic else 2)
        if m == 2:  # one row, whose lead a_2 reaches the candidates
            got = decomposable_on_span([first[0] * t for t in s], (h,), degrees, candidates)
            kernel = final[1] - first[1] + 1 if got is None else sum(
                first[1] <= a <= final[1] for a, in got[0]
            )
        else:
            got = decomposable_on_span(P, (sq, h), degrees, candidates)
            kernel = (
                polygon_count(rows, first, final, H)
                if got is None else union_count(rows, first, final, H, *got)
            )
        if rule == ():  # no shape of Ritt's theorem: the kernel excludes nothing
            assert kernel == 0, (h, prefix, first, final)
        elif rule is not None:
            assert census._line_away(rule, prefix, rows, first, final, H) == kernel
        away += w * kernel
    if 2 in degrees:  # every cubic h~ is odd
        assert seen["line"] and (n > 3 or not seen["nothing"])
    else:
        assert seen["nothing"] and seen["kernel"] and not seen["line"]
    # whole chunks over the uncut walk, the split's whole exclusion: the
    # chunk's cut and per-inner rules against the kernel on every inner
    args = (d, H, monic, (m, n), inners, cut + degrees, 10**12)
    got = _run_chunk(args[:4] + (list(inners),) + args[5:])
    assert got[3] == away
    if m > 2:  # _run_chunk's own kernel route, which m = 2 never takes
        monkeypatch.setattr(census, "_coprime_rule", lambda h, m, degrees: None)
        assert got == _run_chunk(args[:4] + (list(inners),) + args[5:])


def gamma_of(h):
    """gamma = h(s), s = -b_(n-1)/(n L): the centre value of the k = 2 closed form."""
    n = len(h) - 1
    s = Fraction(-h[n - 1], n * h[n])
    return sum(b * s**j for j, b in enumerate(h))


def closed_form_excludes(h, g):
    """Whether the k = 2 closed form excludes the one pair (g, h): the polygon
    of the single point (a_2, a_1), one row, under the prefix a_m..a_3."""
    m = len(g) - 1
    rule = census._coprime_rule(h, m, (2,))
    point = (g[2], g[1])
    return bool(rule) and census._line_away(rule, list(g[:2:-1]), None, point, point, None) == 1


@st.composite
def odd_degree_inners(draw):
    """h(0) = 0 of odd degree 3..9 and lead 1..4: random coefficients
    |b| <= 20, or o(x - t) - o(-t) for an odd o, whose h~ is odd."""
    n = draw(st.sampled_from([3, 5, 7, 9]), label="n")
    L = draw(st.integers(1, 4), label="L")
    if draw(st.booleans()):
        return (0,) + tuple(draw(st.lists(st.integers(-20, 20), min_size=n - 1, max_size=n - 1))) + (L,)
    o = [0] * n + [L]
    for j in range(1, n, 2):
        o[j] = draw(st.integers(-3, 3))
    t = draw(st.integers(-2, 2), label="t")
    return (0,) + compose(tuple(o), (-t, 1))[1:]


@settings(max_examples=150, deadline=None)
@given(odd_degree_inners(), st.integers(-30, 30).filter(bool), st.integers(-100, 100), st.booleans())
@example((0, 0, 3, 1), 5, -20, False)  # h~ = x^3 - 3x, gamma = 2: a_1 = -4 a_2
@example((0, 0, 1, 2), 27, -1, False)  # gamma = 1/54
def test_closed_form_for_inner_degree_2_matches_decompose_split(h, a2, a1, aim):
    # aim: a_2 a multiple of the denominator of 2 gamma, and a_1 next to the
    # one a_1 = -2 gamma a_2 of its row
    n = len(h) - 1
    if aim:
        a2 *= (2 * gamma_of(h)).denominator
        a1 = int(-2 * gamma_of(h) * a2) + a1 % 3 - 1
    f = compose((0, a1, a2), h)
    assert closed_form_excludes(h, (0, a1, a2)) == (decompose_split(f, n, 2) is not None)


@settings(max_examples=60, deadline=None)
@given(
    odd_degree_inners(), st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.integers(0, 3), st.integers(-1, 1), st.booleans(),
)
def test_closed_form_at_outer_degree_4_matches_decompose_split(h, a, at, step, aim):
    # aim: g = q^4 E(y - gamma) for an even E = e_4 z^4 + e_2 z^2, gamma = p/q, so
    # that g(h) decomposes with an inner of degree 2; then one coefficient
    # of g steps by -1, 0 or 1.  Otherwise g = a_4 y^4 + .. + a_1 y at random.
    n = len(h) - 1
    if aim:
        gamma = gamma_of(h)
        p, q = gamma.numerator, gamma.denominator
        e4, e2 = a[0] or 1, a[1]
        z = (-p, q)  # q y - p
        g = add(tuple(e4 * c for c in poly_pow(z, 4)), tuple(e2 * q * q * c for c in poly_pow(z, 2)))
        g = list(g)
    else:
        g = [0] + a
        g[4] = g[4] or 1
    g[1 + at] += step
    assume(g[4])
    g = (0,) + tuple(g[1:])
    f = compose(g, h)
    assert closed_form_excludes(h, g) == (decompose_split(f, 2 * n, 2) is not None)


def chebyshev(n):
    t0, t1 = (1,), (0, 1)
    for _ in range(n - 1):
        t0, t1 = t1, add(mul((0, 2), t1), tuple(-c for c in t0))
    return t1


def test_coprime_rule_examples():
    def excluded(g, h, k):  # g(h) decomposes with an inner of degree k
        return decompose_split(compose(g, h), (len(g) - 1) * (len(h) - 1) // k, k) is not None

    # h = x^3 + 3x^2: h~ = x^3 - 3x and gamma = 2, so a row a_2 excludes a_1 = -4 a_2
    h = (0, 0, 3, 1)
    for a2 in range(-6, 7):
        for a1 in range(-30, 31):
            if a2:
                assert excluded((0, a1, a2), h, 2) == (a1 == -4 * a2) == closed_form_excludes(h, (0, a1, a2))
    # h = 2x^3 + x^2: gamma = 1/54, so only the rows 27 | a_2 exclude a point
    h = (0, 0, 1, 2)
    assert gamma_of(h) == Fraction(1, 54)
    hits = {(a2, a1) for a2 in range(1, 61) for a1 in range(-5, 6) if excluded((0, a1, a2), h, 2)}
    assert hits == {(27, -1), (54, -2)}
    assert all(closed_form_excludes(h, (0, a1, a2)) == ((a2, a1) in hits)
               for a2 in range(1, 61) for a1 in range(-5, 6))
    # h = x^5 + x^2: h~ is not odd, and h excludes nothing
    h = (0, 0, 1, 0, 0, 1)
    assert census._coprime_rule(h, 2, (2,)) == ()
    assert not any(excluded((0, a1, a2), h, 2) for a2 in range(-5, 6) if a2 for a1 in range(-9, 10))
    # h = x^4 + x in (3,4): the power shape of k = 3 (exponents 4 and 1), so
    # the kernel decides; at a_3 = 1 it excludes g = y^3 alone, (x^4 + x)^3 = x^3 (x^3 + 1)^3
    h = (0, 1, 0, 0, 1)
    assert census._coprime_rule(h, 3, (3,)) is None
    assert {(a2, a1) for a2 in range(-6, 7) for a1 in range(-6, 7)
            if excluded((0, a1, a2, 1), h, 3)} == {(0, 0)}
    # h = 8x^4 - 8x^2 = T_4 - 1 and g = 4y^3 + 12y^2 + 9y + 1 = T_3(y + 1): f = T_12 =
    # T_4(T_3), so the kernel must decide, by the Chebyshev shape alone
    h, g = (0, 0, -8, 0, 8), (1, 9, 12, 4)
    assert compose(g, h) == chebyshev(12)
    assert h[2] and census._chebyshev_shape(list(h))  # x^2 breaks the power shape, 4 - 2 = 2 (mod 3)
    assert census._coprime_rule(h, 3, (3,)) is None
    assert excluded(g, h, 3)


def test_budget_refusals():
    with pytest.raises(BudgetError):
        count_bruteforce(CountQuery(4, 50, True, "total"))
    with pytest.raises(BudgetError):
        count_forward(CountQuery(4, 100, True, "total"), budget=10)


def test_prime_degree_and_refusal_skip_ordered_splits(monkeypatch):
    # ordered_splits and _inner_degrees loop over d/2 values, so a prime
    # degree and a query the budget pre-check refuses must both be decided
    # without them
    calls = {"ordered_splits": [], "_inner_degrees": []}

    def recording(fn, seen):
        def wrapped(d):
            seen.append(d)
            return fn(d)

        return wrapped

    for name, seen in calls.items():
        monkeypatch.setattr(census, name, recording(getattr(census, name), seen))
    none = {"ordered_splits": [], "_inner_degrees": []}
    for variant in ("total", "indecomp_pair"):
        assert count_forward(CountQuery(20000003, 2, True, variant)).count == 0
    with pytest.raises(BudgetError):
        count_forward(CountQuery(20000001, 2, True, "total"))
    assert calls == none
    code = cli.run(["count", "--degree", "20000001", "--height-max", "2"])
    assert code == 2 and calls == none
    q = CountQuery(6, 3, True, "total")
    assert count_forward(q).count == count_bruteforce(q).count == 945
    # count_forward lists the splits once, to walk them; check_budget bounds
    # the inner search of split queries alone, which need no listing
    assert calls["ordered_splits"] == [6]


def inner_search_refused_before(q, budget):
    """check_budget's forward verdict as it was when the inner-search bound
    ran over every planned split of every variant, kept as its reference:
    None, "pairs" (the largest outer degree) or "inner" (an inner search)."""
    d, H = q.d, q.H
    ell = spf(d)
    if ell == d:
        return None
    m_max = q.split[0] if q.variant == "split" else d // ell
    if (
        m_max > budget.bit_length()
        or (2 * H + 1) ** (m_max - 1) * (1 if q.monic else 2 * H) > budget
    ):
        return "pairs"
    for (m, n), _ in census._plan(q):
        w = 2 * H // m + 1
        leads = 1 if q.monic else _int_root(H, m)
        if (w > 1 and n > budget.bit_length()) or leads * w ** (n - 1) > budget:
            return "inner"
    return None


def test_inner_search_bound_refuses_as_over_every_plan():
    # for totals and indecomp_pair the largest outer degree's refusal implies
    # the inner-search bound, so testing it for split queries alone refuses
    # exactly the same queries, for the same reason
    seen = set()
    for d in range(4, 37):
        for H in (2, 3, 5, 10, 40, 1000):
            for monic in (True, False):
                qs = [CountQuery(d, H, monic, v) for v in ("total", "indecomp_pair")]
                qs += [CountQuery(d, H, monic, "split", s) for s in ordered_splits(d)]
                for q in qs:
                    for budget in (10, 10**3, 10**5, 10**8, 10**12):
                        want = inner_search_refused_before(q, budget)
                        try:
                            census.check_budget(q, "forward", budget)
                            got = None
                        except BudgetError as e:
                            got = "inner" if "inner search" in str(e) else "pairs"
                        assert got == want, (q, budget)
                        seen.add((q.variant, got))
    assert ("split", "inner") in seen and ("total", "pairs") in seen


@pytest.mark.parametrize(
    "m,n,H,monic,cut",
    [
        (2, 4, 12, True, (2,)),
        (2, 4, 8, False, (2,)),
        (2, 6, 6, True, (2, 3)),
        (2, 6, 3, False, (2, 3)),
        (3, 4, 4, True, (2,)),
        (2, 8, 3, True, (2, 4)),
        (2, 9, 2, True, (3,)),
    ],
)
def test_inner_cut_drops_exactly_the_decomposable_inners(m, n, H, monic, cut):
    # the chunk solves each degree-e candidate once per prefix and checks the
    # digits only below an integral one; what it keeps must be the walk's
    # candidates less those that decompose with a degree of cut, in order.
    # At m = 2 the columns of the prefixes are compared, each with its inner
    d = m * n
    items = _h_candidates(m, n, H, monic)
    # the squares built along the walk
    assert all(item[1] == mul(item[0], item[0]) for item in items)
    if m == 2:
        full, kept = columns_of(items, H, monic), columns_of(items, H, monic, cut)
    else:
        full, kept = items, cut_inners(items, cut)
    assert kept == [c for c in full if decomposable_on_span(c[0], (), cut) is not None]
    assert len(kept) < len(full)
    # the chunk under the cut counts the pairs of exactly those inners
    got = _run_chunk((d, H, monic, (m, n), list(items), cut, 10**12))
    ref = inner_items(items, m, H, monic, lambda h: decomposable_on_span(h, (), cut) is not None)
    want = _run_chunk((d, H, monic, (m, n), ref, (), 10**12))
    assert got[:4] == want[:4] and sorted(got[4]) == sorted(want[4])


def test_inner_walk_is_iterative():
    # the split (5, 120) walks 119 inner coefficients; at H = 2 only x^120
    # is left, under 5^4 outer polynomials.  The walk takes no stack frame
    # per coefficient, so a few dozen frames above the caller's suffice.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        count = count_forward(CountQuery(600, 2, True, "split", (5, 120))).count
    finally:
        sys.setrecursionlimit(limit)
    assert count == 3125


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-60, 60), min_size=2, max_size=14).filter(lambda r: r[0] != 0),
    st.integers(2, 9),
)
def test_power_step_matches_poly_pow(r, m):
    # the truncated power of a reversed top, one coefficient at a time
    p = [r[0] ** m]
    for k in range(1, len(r)):
        p.append(census._power_step(r, p, m, k))
    assert p == list(poly_pow(tuple(r), m)[: len(r)])


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(2, 5), st.integers(2, 6), st.booleans())
def test_inner_walk_powers_match_poly_pow(m, n, H, monic):
    # for m >= 3 only the top-coefficient windows and sigma cut the inners,
    # and the reference reads each window's coefficient off poly_pow(h, m)
    assert [h for h, _ in _h_candidates(m, n, H, monic)] == [
        h for h in unpruned_h_candidates(m, n, H, monic) if sigma_canonical(h)
    ]


def test_h_candidates_normalized_and_ordered():
    # the inners of the (2, 2) columns
    hs = column_inners(_h_candidates(2, 2, 8, True), 8, True)
    assert all(h[0] == 0 and h[-1] == 1 for h in hs)
    assert hs == sorted(hs, key=lambda h: h[1:])
    hs = column_inners(_h_candidates(2, 2, 4, False), 4, False)
    assert all(h[0] == 0 and h[-1] >= 1 for h in hs)
    assert all(gcd(*h) == 1 for h in hs)


def unpruned_h_candidates(m, n, H, monic):
    """The inner candidates cut by the top coefficients of f alone: the
    generator before the m = 2 low-coefficient cut, kept as its reference."""
    out = []
    b_max = _inner_height_bound(m, n, H)
    leads = [1] if monic else list(range(1, _int_root(H, m) + 1))
    for L in leads:
        slope = m * L ** (m - 1)
        bs = [0] * (n + 1)
        bs[n] = L

        def rec(j):
            s = poly_pow(tuple(bs), m)[(m - 1) * n + j]
            lo = max(-b_max, -((H + s) // slope))
            hi = min(b_max, (H - s) // slope)
            for t in range(lo, hi + 1):
                bs[j] = t
                if j > 1:
                    rec(j - 1)
                elif monic or gcd(*bs) == 1:
                    out.append(tuple(bs))
            bs[j] = 0

        rec(n - 1)
    return out


def sigma_canonical(h):
    """True when the first non-zero b_j of h with n - j odd, from b_(n-1)
    down, is positive, or there is none (sigma fixes h)."""
    odd = [c for c in h[len(h) - 2 :: -2] if c]
    return not odd or odd[0] > 0


def sigma_inner(h):
    """(-1)^n h(-x): b_j -> (-1)^(n-j) b_j."""
    n = len(h) - 1
    return tuple((-1) ** (n - j) * c for j, c in enumerate(h))


def unsymmetrized_split_pairs(m, n, H, monic):
    """The witness pairs of the split (m, n), summed over every inner of
    unpruned_h_candidates and every outer polynomial, every lead included,
    with polygon_count, by a plain recursion over the outer windows: the
    reference for the orbit weights of count_forward."""
    d = m * n
    pairs = 0
    for h in unpruned_h_candidates(m, n, H, monic):
        hp = [None] + [poly_pow(h, k) for k in range(1, m + 1)]

        def rec(k, P):
            # a_k, the last outer coefficient to reach x^((k-1)n+1)..x^(kn)
            nonlocal pairs
            lo, hi = window_interval(P, hp[k], (k - 1) * n + 1, d, H)
            if k == 2:
                pairs += polygon_count(*polygon(P, h, hp[2], lo, hi, H), H)
                return
            for a in range(lo, hi + 1):
                if k < m or a == 1 or (a and not monic):
                    Q = list(P)
                    for j, c in enumerate(hp[k]):
                        Q[j] += a * c
                    rec(k - 1, Q)

        if m == 2:
            lo, hi = window_interval([0] * (d + 1), hp[2], n + 1, d, H)
            for a in [1] if monic else [a for a in range(lo, hi + 1) if a]:
                pairs += polygon_count(*polygon([0] * (d + 1), h, hp[2], a, a, H), H)
        else:
            rec(m, [0] * (d + 1))
    return pairs


@pytest.mark.parametrize("d", [4, 6, 8, 9, 12])
@pytest.mark.parametrize("monic", [True, False], ids=["monic", "non-monic"])
def test_split_counts_match_the_unsymmetrized_walk(d, monic):
    # every inner and every outer lead walked, no orbit counted twice, against
    # the walk of the sigma-canonical inners and the positive leads, weighted
    for H in (2, 3) if d <= 8 else (2,):
        for split in ordered_splits(d):
            q = CountQuery(d, H, monic, "split", split)
            want = (2 * H + 1) * unsymmetrized_split_pairs(*split, H, monic)
            assert count_forward(q).count == want, q


@pytest.mark.parametrize(
    "m,n,H,monic,cut",
    [
        (2, 2, 10, False, ()),
        (2, 3, 8, True, ()),
        (2, 4, 8, True, ()),
        (2, 5, 4, False, ()),
        (3, 2, 6, False, ()),
        (3, 3, 4, True, ()),
        (4, 3, 6, False, ()),
        (2, 4, 12, True, (2,)),
        (2, 6, 6, True, (2, 3)),
        (2, 6, 3, False, (2, 3)),
        (3, 4, 4, True, (2,)),
        (2, 8, 3, True, (2, 4)),
        (2, 9, 2, True, (3,)),
    ],
)
def test_inner_walk_is_the_sigma_canonical_half(m, n, H, monic, cut):
    # every inner walked is sigma-canonical, and with their sigma images they
    # are the inners of the unsymmetrized walk under the same cuts: the top
    # coefficients, at m = 2 the columns with a point, and the chunk's cut
    items = _h_candidates(m, n, H, monic)
    hs = column_inners(items, H, monic, cut) if m == 2 else [h for h, _ in cut_inners(items, cut)]
    assert all(sigma_canonical(h) for h in hs)
    assert len(set(hs)) == len(hs)
    ref = {
        h
        for h in unpruned_h_candidates(m, n, H, monic)
        if (m > 2 or has_pair(h, H, monic))
        and decomposable_on_span(h, (), cut) is not None
    }
    assert set(hs) | {sigma_inner(h) for h in hs} == ref
    assert len(hs) < len(ref)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sign_symmetries_map_normalized_pairs(data):
    # the images census._orbit lists for a composed pair: sigma(g, h), whose
    # f is e f(-x), e = (-1)^d if monic else 1, unless h is sigma-fixed, and
    # then the tau image (-g, h) of each, whose f is -f, unless monic.  Each is
    # normalized, keeps the height and is the witness of its own f
    d = data.draw(st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16]), label="d")
    m, n = data.draw(st.sampled_from(ordered_splits(d)), label="split")
    monic = data.draw(st.booleans(), label="monic")
    small = st.integers(-3, 3)
    g = tuple(data.draw(st.lists(small, min_size=m, max_size=m), label="g"))
    g += (1 if monic else data.draw(st.sampled_from([1, -1, 2, -3]), label="lead"),)
    h = (0,) + tuple(data.draw(st.lists(small, min_size=n - 1, max_size=n - 1), label="h"))
    h += (1 if monic else data.draw(st.sampled_from([1, 2]), label="L"),)
    if gcd(*h) != 1:
        h = h[:1] + (1,) + h[2:]  # primitive, as every normalized inner is
    f = compose(g, h)
    e = (-1) ** d if monic else 1
    images = [f]
    if not all(c == 0 for c in h[n - 1 :: -2]):
        images.append(tuple(e * (-1) ** i * c for i, c in enumerate(f)))
    if not monic:
        images += [tuple(-c for c in F) for F in images]
    orbit = census._orbit(g, h, monic)
    assert orbit[0] == (g, h) and len(orbit) == len(images) == len(set(images))
    for (g2, h2), F in zip(orbit, images):
        assert compose(g2, h2) == F and height(F) == height(f)
        assert h2[0] == 0 and h2[-1] == h[-1] and gcd(*h2) == 1
        assert not monic or g2[-1] == 1
        w = decompose_split(F, m, n)
        assert (w.g, w.h) == (g2, h2)


def passes_low_tests(h, H):
    """The three low-coefficient inequalities of an m = 2 inner, one by one."""
    n, b1, L = len(h) - 1, h[1], h[-1]
    sq = poly_pow(h, 2)
    if b1:
        A = H // abs(b1)
        if b1 * b1 > H + A * abs(h[2]) or abs(sq[n]) > H + L * A:
            return False
    return True


def row_grid(h, H, monic):
    """(a2s, a1s, ok) for an m = 2 inner h: ok[i, j] when f = a_2 h^2 + a_1 h,
    a_2 = a2s[i] and a_1 = a1s[j], is in the height box.  Every pair is tried:
    a_2 = 1 if monic, else every a_2 != 0, and |a_1| <= H (at the lowest k
    with h_k != 0, [h^2]_k = 0 and [f]_k = a_1 h_k)."""
    n = len(h) - 1
    sq = mul(h, h)
    a2s = np.array([1] if monic else [a for a in range(-H, H + 1) if a], dtype=np.int64)
    a1s = np.arange(-H, H + 1, dtype=np.int64)
    ok = np.ones((len(a2s), len(a1s)), dtype=bool)
    for k in range(1, 2 * n + 1):
        g = h[k] if k <= n else 0
        ok &= np.abs(a2s[:, None] * sq[k] + a1s[None, :] * g) <= H
    return a2s, a1s, ok


def has_pair(h, H, monic):
    """Whether the m = 2 inner h has a pair in the height box (row_grid)."""
    return bool(row_grid(h, H, monic)[2].any())


# largest H drawn per (n, monic) for the split (2, n); from H = 4 on, the
# non-monic inners have leads up to 2
LOW_CUT_HEIGHTS = {
    (2, True): 30, (2, False): 30, (3, True): 12, (3, False): 31, (4, True): 8,
    (4, False): 12, (6, True): 4, (6, False): 4, (8, True): 3, (8, False): 3,
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(LOW_CUT_HEIGHTS)).flatmap(
        lambda nm: st.tuples(st.just(nm), st.integers(2, LOW_CUT_HEIGHTS[nm]))
    )
)
@example(((4, False), 24))  # the L factors of the cut decide this box
def test_low_coefficient_cut_drops_only_dead_inners(case):
    # the inners of the column stream are the sigma-canonical unpruned
    # inners with a pair, and the low-coefficient cuts never drop one
    (n, monic), H = case
    d = 2 * n
    full = unpruned_h_candidates(2, n, H, monic)
    points = {h: int(row_grid(h, H, monic)[2].sum()) for h in full}
    items = _h_candidates(2, n, H, monic)
    cut = column_inners(items, H, monic)
    # the reference filtered one candidate at a time: an in-order subsequence
    live = [h for h in full if points[h]]
    assert all(passes_low_tests(h, H) for h in live)
    assert cut == [h for h in live if sigma_canonical(h)]
    dropped = [h for h in full if sigma_canonical(h) and h not in cut]
    assert not any(points[h] for h in dropped)
    # every pair of the unpruned inners, every outer lead included, is one of
    # the cut enumeration's polynomials; the unpruned inners are closed under
    # sigma, so their canonical half, weighted by _run_chunk, counts them all
    assert {sigma_inner(h) for h in full} == set(full)
    pairs = _run_chunk((d, H, monic, (2, n), list(items), (), 10**9))[0]
    assert pairs == sum(points.values())
    assert len(forward_key_set(d, H, monic, (2, n))) == pairs


def centred_odd(h):
    """Whether h~(x) = h(x + s) - h(s), s = -b_(n-1)/(n L), is odd."""
    n = len(h) - 1
    s = Fraction(-h[n - 1], n * h[n])
    return not any(
        sum(h[i] * comb(i, j) * s ** (i - j) for i in range(j, n + 1)) for j in range(2, n + 1, 2)
    )


def brute_force_columns(n, H, monic, cut, excluded):
    """(walked, pairs, away) of the split (2, n) from every (a_2, a_1) of the
    height box over every inner of unpruned_h_candidates (row_grid).

    The inners that decompose with a degree of cut are left out.  pairs and
    away count every pair, both signs of a_2 and every inner, with no sign
    symmetry; a pair is away when excluded = (2,) and f decomposes with an
    inner of degree 2: h~ odd and a_1 = -2 a_2 gamma (count_forward proves
    it; test_closed_form_for_inner_degree_2_matches_decompose_split checks
    it).  walked lists the (h, a_2, a_1) of the sigma-canonical inners with
    a_2 > 0: the pairs the column stream must walk, each once.
    """
    walked, pairs, away = [], 0, 0
    for h in unpruned_h_candidates(2, n, H, monic):
        if cut and decomposable_on_span(h, (), cut) is None:
            continue
        a2s, a1s, ok = row_grid(h, H, monic)
        gamma = gamma_of(h) if excluded and centred_odd(h) else None
        for i, j in zip(*np.nonzero(ok)):
            a2, a1 = int(a2s[i]), int(a1s[j])
            pairs += 1
            away += gamma is not None and a1 == -2 * a2 * gamma
            if sigma_canonical(h) and a2 > 0:
                walked.append((h, a2, a1))
    return walked, pairs, away


# largest H drawn per n for the split (2, n): the brute force tries at most
# about 2,700 inners
COLUMN_HEIGHTS = {2: 40, 3: 30, 4: 12, 5: 6, 6: 4}


@st.composite
def column_cases(draw):
    """(n, H, monic, cut, excluded): any cut of the proper divisors of n, and
    the k = 2 exclusion of a total for odd n, or none."""
    n = draw(st.sampled_from(sorted(COLUMN_HEIGHTS)), label="n")
    H = draw(st.integers(2, COLUMN_HEIGHTS[n]), label="H")
    monic = draw(st.booleans(), label="monic")
    cut = tuple(e for e in range(2, n) if n % e == 0 and draw(st.booleans(), label=f"cut {e}"))
    excluded = (2,) if n % 2 and draw(st.booleans(), label="exclude 2") else ()
    return n, H, monic, cut, excluded


@settings(max_examples=40, deadline=None)
@given(column_cases())
@example((2, 40, False, (), ()))
@example((3, 30, True, (), (2,)))
@example((4, 12, True, (2,), ()))
@example((5, 6, False, (), (2,)))
@example((6, 4, False, (2, 3), ()))
def test_column_stream_matches_brute_force(case):
    # the expanded column stream walks each pair of the canonical half once,
    # and _run_chunk's orbit weights and k = 2 exclusion count every pair
    n, H, monic, cut, excluded = case
    items = _h_candidates(2, n, H, monic)
    stream = [
        (h, a2, a1)
        for h, a2, lo1, hi1 in columns_of(items, H, monic, cut)
        for a1 in range(lo1, hi1 + 1)
    ]
    walked, pairs, away = brute_force_columns(n, H, monic, cut, excluded)
    assert sorted(stream) == sorted(walked)
    # the chunk gets the split's whole exclusion and parts it into cut and kernel
    got = _run_chunk((2 * n, H, monic, (2, n), list(items), cut + excluded, 10**12))
    assert (got[0], got[3]) == (pairs, away)
    census._check_pieces(2, n, H, [got[4]])


def prefix_has_pair(h0, H, monic):
    """Whether some inner h0 + b_1 x, |b_1| <= b_max (_inner_height_bound), of
    the split (2, n) has a pair in the height box: every (b_1, a_2, a_1) at
    once, a_2 and a_1 as in row_grid, with h^2 = h0^2 + 2 b_1 x h0 + b_1^2 x^2."""
    n = len(h0) - 1
    b_max = _inner_height_bound(2, n, H)
    sq0 = mul(h0, h0)
    b1 = np.arange(-b_max, b_max + 1, dtype=np.int64)[:, None, None]
    a2 = np.array([1] if monic else [a for a in range(-H, H + 1) if a], dtype=np.int64)
    a2 = a2[None, :, None]
    a1 = np.arange(-H, H + 1, dtype=np.int64)[None, None, :]
    ok = np.ones((b1.shape[0], a2.shape[1], a1.shape[2]), dtype=bool)
    b = tuple(h0) + (0,) * n  # b_k = 0 for k > n
    for k in range(1, 2 * n + 1):
        hk = b1 if k == 1 else b[k]
        sk = sq0[k] + (2 * b1 * b[k - 1] if k >= 2 else 0) + (b1 * b1 if k == 2 else 0)
        ok &= np.abs(a2 * sk + a1 * hk) <= H
    return bool(ok.any())


def reference_window(h0, sq0, lo, hi, H):
    """The b_1 of [lo, hi] that pass each row x^2..x^(n+1) of f = h^2 + a_1 h
    taken alone with some |a_1| <= H, one b_1 at a time: |C_k + 2 b_(k-1) b_1|
    <= H + |b_k| H, b_(n+1) = 0, and b_1^2 <= H when b_2 = 0 (the docstring
    of _columns)."""
    n = len(h0) - 1
    b = tuple(h0) + (0,)
    return [
        t for t in range(lo, hi + 1)
        if all(abs(sq0[k] + 2 * b[k - 1] * t) <= H + abs(b[k]) * H for k in range(3, n + 2))
        and (b[2] or t * t <= H)
    ]


@settings(max_examples=40, deadline=None)
@given(column_cases())
@example((2, 40, False, (), ()))
@example((4, 12, True, (2,), ()))
@example((5, 6, False, (), (2,)))
@example((6, 4, False, (2, 3), ()))
def test_prefix_windows_nest(case):
    # the walk hands on a (2, n) prefix only when its b_1 window at a_2 = 1
    # is not empty; that window holds the window of every a_2, so a prefix
    # whose window is empty holds no pair, at any b_1 of the inner box
    n, H, monic, _, _ = case
    kept = _h_candidates(2, n, H, monic)
    with pytest.MonkeyPatch.context() as patch:  # the unfiltered walk: no row clips the start
        patch.setattr(census, "_clip_b1", lambda h0, sq0, a2, H, lo, hi: (lo, hi))
        unfiltered = _h_candidates(2, n, H, monic)
    want = []
    for h0, sq0, lo, hi in unfiltered:
        window = reference_window(h0, sq0, lo, hi, H)
        if window:
            want.append((h0, sq0, window[0], window[-1]))
        else:
            assert not prefix_has_pair(h0, H, monic), h0
    assert kept == want


@st.composite
def even_degree_inners(draw):
    """h(0) = 0 of even degree 2..12, monic or not: random coefficients, a
    composition u(l x^2 + k x) with u(0) = 0 (so h = u(w), deg w = 2, whose
    centre -k/(2l) need not be an integer), or such a composition with one
    coefficient below the lead moved by 1 or 2."""
    n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]), label="n")
    monic = draw(st.booleans(), label="monic")
    kind = draw(st.sampled_from(["random", "composed", "near-miss"]), label="kind")
    if kind == "random":
        L = 1 if monic else draw(st.integers(1, 4))
        return (0,) + tuple(draw(st.lists(st.integers(-20, 20), min_size=n - 1, max_size=n - 1))) + (L,)
    ell = 1 if monic else draw(st.integers(1, 3))
    k = draw(st.integers(-6, 6))
    u = draw(st.lists(st.integers(-5, 5), min_size=n // 2 - 1, max_size=n // 2 - 1))
    h = compose((0, *u, 1 if monic else draw(st.integers(1, 3))), (0, k, ell))
    if kind == "near-miss":
        j = draw(st.integers(1, n - 1))
        h = h[:j] + (h[j] + draw(st.sampled_from([-2, -1, 1, 2])),) + h[j + 1 :]
    return h


@settings(max_examples=400, deadline=None)
@given(even_degree_inners())
@example((0, 0, 1, 2, 1))  # (x^2 + x)^2
@example((0, 0, 1, 4, 4))  # (2x^2 + x)^2, centre -1/4
@example((0, 1, 1, 4, 4))  # one coefficient off it
@example((0, 3, 2))  # n = 2: every quadratic is u(w) with deg w = 2
def test_even_shape_matches_the_kernel(h):
    # the inner walk's e = 2 cut, the one b_1 that _cut_columns drops under
    # the prefix of h, against decompose's kernel on h alone; at n = 2 the
    # degree 2 is no cut, and h is its own right component
    kernel = decomposable_on_span(h, (), (2,)) is None
    if len(h) == 3:
        assert kernel
    else:
        assert (h[1] in census._cut_columns((0, 0) + h[2:], (2,), {})) == kernel


@pytest.mark.parametrize(
    "n,heights", [(4, (2, 9, 35)), (5, (2, 5, 9)), (6, (2, 4, 6)), (8, (2, 3))]
)
def test_monic_row_at_level_b1_matches_polygon(n, heights):
    # the row a_2 = 1, a column of the stream: of the sigma-canonical inners
    # of the unpruned walk that pass the low-coefficient tests, the columns
    # hold exactly those on whose row lattice.polygon finds a point
    zero = (0,) * (n + 1)
    for H in heights:
        kept = set(column_inners(_h_candidates(2, n, H, True), H, True))
        seen = set()
        for h in unpruned_h_candidates(2, n, H, True):
            if sigma_canonical(h) and passes_low_tests(h, H):
                row = polygon(zero, h, mul(h, h), 1, 1, H)[1] is not None
                assert (h in kept) == row, (h, H)
                seen.add(row)
        assert seen == {True, False}


@pytest.mark.parametrize(
    "n,H,monic",
    [(2, 20, True), (2, 20, False), (3, 12, True), (3, 12, False), (4, 8, True),
     (4, 8, False), (5, 4, True), (6, 3, False)],
)
def test_one_row_matches_polygon(n, H, monic):
    # each column of the stream against lattice.polygon on its row, at every
    # walked lead; every other lead of the stream's range (a_2 = 1, or
    # a_2 >= 1 when not monic) holds no point, off the a_2 window of the
    # rows x^(n+1)..x^2n too
    zero = (0,) * (2 * n + 1)
    walked = columns_of(_h_candidates(2, n, H, monic), H, monic)
    columns = {(h, a2): (lo1, hi1) for h, a2, lo1, hi1 in walked}
    assert len(columns) == len(walked)
    seen = set()
    for h in {h for h, _ in columns}:
        sq = mul(h, h)
        lo2, hi2 = window_interval(zero, sq, n + 1, 2 * n, H)
        for a2 in range(-H - 1, H + 2):
            got = polygon(zero, h, sq, a2, a2, H)[1:] if lo2 <= a2 <= hi2 else (None, None)
            if a2 == 1 or a2 > 0 and not monic:
                lo1, hi1 = columns.get((h, a2), (None, None))
                assert got == ((None, None) if lo1 is None else ((a2, lo1), (a2, hi1))), (h, a2)
            seen.add(got[0] is None)
    assert seen == {True, False}


def windows_then_polygons(h, sq, m, H, monic):
    """The non-empty polygons of one inner as the outer walk once gave them:
    a plain recursion yields (P, prefix, lo, hi) per a_2 window, one row per
    lead at m = 2, and each is then built by lattice.polygon."""
    n = len(h) - 1
    d = m * n
    hp = [None, h, sq] + [poly_pow(h, k) for k in range(3, m + 1)]
    zero = [0] * (d + 1)
    if monic:
        leads = [1]
    else:
        lo, hi = window_interval(zero, hp[m], (m - 1) * n + 1, d, H)
        leads = range(max(lo, 1), hi + 1)

    def windows(k, P, prefix):
        # a_m..a_k are in P; a_(k-1) is the last to reach x^(top-n+1)..x^top
        top = (k - 1) * n
        lo, hi = window_interval(P, hp[k - 1], top - n + 1, top, H)
        if k == 3:
            if lo <= hi:
                yield P, prefix, lo, hi
            return
        for t in range(lo, hi + 1):
            Q = [p + t * c for p, c in zip(P, hp[k - 1] + (0,) * d)]
            yield from windows(k - 1, Q, prefix + [t])

    if m == 2:
        walk = ((zero, [], a, a) for a in leads)
    else:
        walk = (w for a in leads for w in windows(m, [a * c for c in hp[m]], [a]))
    for P, prefix, lo, hi in walk:
        rows, first, last = polygon(P, h, sq, lo, hi, H)
        if first is not None:
            yield tuple(P), tuple(prefix), rows, first, last


# largest H drawn per (m, n): the inners of each box take milliseconds
STREAM_HEIGHTS = {
    (2, 2): 40, (2, 3): 20, (2, 4): 8, (3, 2): 40, (3, 3): 12, (3, 4): 4, (4, 2): 16,
}


@functools.lru_cache(maxsize=None)
def inners_of(m, n, H, monic):
    items = _h_candidates(m, n, H, monic)
    if m == 2:
        return [(h, mul(h, h)) for h in column_inners(items, H, monic)]
    return items


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(STREAM_HEIGHTS)), st.booleans(), st.data(),
)
def test_walk_outer_streams_the_built_polygons(mn, monic, data):
    # the stream against the window walk followed by the polygon build: the
    # same non-empty polygons, in the same order, none twice.  At m = 2 the
    # stream is that of the columns of h, one row each, read from its
    # first and last points (rows None)
    m, n = mn
    H = data.draw(st.integers(1, STREAM_HEIGHTS[mn]), label="H")
    inners = inners_of(m, n, H, monic)
    assume(inners)
    h, sq = data.draw(st.sampled_from(inners), label="h")
    want = list(windows_then_polygons(h, sq, m, H, monic))
    if m == 2:
        got = [
            (tuple(P), tuple(prefix), first, last)
            for h2, _, P, prefix, rows, first, last in walk_polygons(
                _h_candidates(m, n, H, monic), m, H, monic
            )
            if h2 == h
        ]
        want = [(P, prefix, first, last) for P, prefix, rows, first, last in want]
    else:
        got = [
            (tuple(P), tuple(prefix), rows, first, last)
            for P, prefix, rows, first, last in census._walk_outer(h, sq, m, H, monic)
        ]
    assert got == want


@pytest.mark.parametrize("n,H,cut", [(4, 35, (2,)), (6, 6, (2, 3)), (8, 3, (2, 4))])
def test_monic_leaves_build_no_polygon_and_no_degree_2_kernel(monkeypatch, n, H, cut):
    # the row a_2 = 1 is a column, decided by a few floor divisions, and the
    # cut reads the K-adic digits of each prefix (_cut_columns): no
    # lattice.polygon call, and no kernel call, for the degree 2 or any other
    real = census.decomposable_on_span
    degrees = []

    def kernel(f0, directions, inner_degrees, candidates=None):
        degrees.append(tuple(inner_degrees))
        return real(f0, directions, inner_degrees, candidates)

    monkeypatch.setattr(census, "polygon", lambda *args: pytest.fail("polygon at a leaf"))
    monkeypatch.setattr(census, "decomposable_on_span", kernel)
    items = _h_candidates(2, n, H, True)
    columns = columns_of(items, H, True, cut)
    monkeypatch.undo()
    assert items == _h_candidates(2, n, H, True) and columns
    assert all(2 not in d for d in degrees) and degrees == []


@pytest.mark.parametrize(
    "n,H,monic,cut", [(4, 12, True, (2,)), (6, 4, False, (2, 3)), (8, 3, True, (2, 4))]
)
def test_the_cut_runs_once_per_prefix_with_a_point(monkeypatch, n, H, monic, cut):
    # the (2, n) inner walk reads no digits; the chunk runs _cut_columns once
    # for each prefix with a column that holds a point before the cut, at
    # that column, and for no other prefix
    real = census._cut_columns
    calls = []

    def recording(h0, degrees, candidates):
        calls.append(tuple(h0))
        return real(h0, degrees, candidates)

    monkeypatch.setattr(census, "_cut_columns", recording)
    items = _h_candidates(2, n, H, monic)
    assert calls == []
    _run_chunk((2 * n, H, monic, (2, n), list(items), cut, 10**12))
    want = [item[0] for item in items if next(census._columns(item, H, monic, (), {}), None)]
    assert calls == want and 0 < len(want) < len(items)


@pytest.mark.parametrize(
    "m,n,H,monic,cut",
    [(3, 4, 6, True, (2,)), (3, 4, 3, False, (2,)), (4, 4, 12, True, (2,)), (3, 6, 4, True, (2, 3))],
)
def test_the_cut_runs_once_per_prefix_at_m_ge_3(monkeypatch, m, n, H, monic, cut):
    # at m >= 3 the chunk runs _cut_columns once per prefix b_(n-1)..b_2, at
    # the prefix's first inner, with b_1 = 0, in walk order
    real = census._cut_columns
    calls = []

    def recording(h0, degrees, candidates):
        calls.append(tuple(h0))
        return real(h0, degrees, candidates)

    monkeypatch.setattr(census, "_cut_columns", recording)
    items = _h_candidates(m, n, H, monic)
    _run_chunk((m * n, H, monic, (m, n), list(items), cut, 10**12))
    prefixes = list(dict.fromkeys((0, 0) + h[2:] for h, _ in items))
    assert calls == prefixes and len(prefixes) < len(items)


@pytest.mark.parametrize("m,n,H", [(3, 4, 6), (2, 6, 6), (3, 4, 3), (4, 4, 6)])
@pytest.mark.parametrize("monic", [True, False], ids=["monic", "non-monic"])
def test_inner_walk_reads_no_decomposition(monkeypatch, m, n, H, monic):
    # the walk reads the height box alone: no call into decompose and none
    # to _cut_columns, in a split whose total excludes a cut degree
    def refuse(*args, **kwargs):
        pytest.fail("the inner walk decided a decomposition")

    for name, fn in vars(decompose).items():
        if inspect.isfunction(fn) and fn.__module__ == decompose.__name__:
            monkeypatch.setattr(decompose, name, refuse)
            if getattr(census, name, None) is fn:
                monkeypatch.setattr(census, name, refuse)
    monkeypatch.setattr(census, "_cut_columns", refuse)
    assert _h_candidates(m, n, H, monic)


@pytest.mark.parametrize("split", [(3, 4), (2, 6)])
@pytest.mark.parametrize("monic", [True, False], ids=["monic", "non-monic"])
def test_the_chunk_cut_does_not_depend_on_item_order(split, monic):
    # a total's (3, 4) split cuts the degree 2 per prefix b_3..b_2, and its
    # (2, 6) split the degrees 2 and 3 per (2, n) prefix: reversed, the
    # inners of a prefix arrive the other way round, and shuffled, apart;
    # each drop reads its own prefix, so the counts are the same
    m, n = split
    d, H = m * n, 6 if monic else 3
    [excluded] = [e for s, e in census._plan(CountQuery(d, H, monic, "total")) if s == split]
    items = _h_candidates(m, n, H, monic)
    shuffled = list(items)
    random.Random(0).shuffle(shuffled)
    fwd = _run_chunk((d, H, monic, split, list(items), excluded, 10**12))
    for order in (items[::-1], shuffled):
        got = _run_chunk((d, H, monic, split, order, excluded, 10**12))
        assert got[:4] == fwd[:4] and sorted(got[4]) == sorted(fwd[4])
    # the cut drops pairs here
    assert fwd[0] < _run_chunk((d, H, monic, split, list(items), (), 10**12))[0]


def test_iter_decompositions_matches_counts():
    pairs = list(iter_decompositions(4, 5, True, (2, 2)))
    fs = {compose(g, h) for g, h in pairs}
    assert len(fs) == len(pairs)
    assert len(fs) * 11 == count_forward(CountQuery(4, 5, True, "split", (2, 2))).count
    for g, h in pairs:
        assert h[0] == 0 and h[-1] == 1 and g[-1] == 1
        assert height(compose(g, h)) <= 5


def test_iter_decompositions_streams_its_pairs(monkeypatch):
    # the first pair is drawn after the first polygon of the first inner is
    # built, not after every polygon of that inner (7 at d=8, H=3, split (4,2))
    built = []
    real = census.polygon

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(census, "polygon", counted)
    pairs = iter_decompositions(8, 3, True, (4, 2))
    next(pairs)
    assert len(built) == 1


@pytest.mark.parametrize("monic", [True, False])
@pytest.mark.parametrize("split", [(3, 2), (4, 2), (2, 3), (3, 3)])
def test_iter_decompositions_outer_order_at_m_ge_3(split, monic):
    # at m >= 3 the outer tail a_2..a_m has several entries, so a reversed or
    # shifted tail gives polynomials off the oracle's set of the split
    m, n = split
    d, H = m * n, 2
    pairs = list(iter_decompositions(d, H, monic, split))
    assert forward_key_set(d, H, monic, split) == oracle_key_set(d, H, monic, split)
    assert all(len(g) == m + 1 and g[0] == 0 and len(h) == n + 1 for g, h in pairs)


def oracle_key_set(d, H, monic, split):
    """The packed polynomials of the height box that the block oracle finds
    (d/n, n)-decomposable, n = split[1]."""
    n = split[1]
    ranges = [range(-H, H + 1)] * d
    keys = set()
    for c in box_leads(H, monic):
        for top, mask in census._block_masks(ranges, c, n):
            for idx in zip(*np.nonzero(mask)):
                f = (ranges[0][0],) + tuple(ranges[i][idx[-i]] for i in range(1, d - n + 1))
                keys.add(pack_truncated(f + tuple(reversed(top)) + (c,), d, H))
    return keys


def test_witness_uniqueness_non_monic_box():
    # with primitive normalized inners, pairs biject with polynomials even
    # in the non-monic regime; a violation here must fail the build
    pairs = list(iter_decompositions(4, 4, False, (2, 2)))
    fs = {compose(g, h) for g, h in pairs}
    assert len(fs) == len(pairs)
    assert len(fs) * 9 == count_forward(CountQuery(4, 4, False, "total")).count


def test_family_members_present_at_h4():
    # the H=4 slice of the quartic family: b1 in 1..2, a0 in 1..4,
    # -4/b1 <= a1 <= -1 all appear in the forward enumeration
    H = 4
    keys = forward_key_set(4, H, True, (2, 2))
    for b1 in (1, 2):
        for a0 in range(1, H + 1):
            for a1 in range(-(H // b1), 0):
                f = compose((a0, a1, 1), (0, b1, 1))
                assert height(f) <= H
                assert pack_truncated(f, 4, H) in keys, f


def test_forward_matches_decompose_flags_on_box():
    # every truncated key class: polynomial is decomposable iff key present
    H = 4
    keys = forward_key_set(4, H, True, (2, 2))
    import itertools

    for low in itertools.product(*([range(-H, H + 1)] * 3)):
        f = (0,) + low + (1,)
        if max(abs(c) for c in f) > H:
            continue
        assert (pack_truncated(f, 4, H) in keys) == is_decomposable(f), f
