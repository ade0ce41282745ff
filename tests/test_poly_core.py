import random

import pytest

from polycensus.poly_core import (
    compose,
    degree,
    format_poly,
    height,
    lead,
    mul,
    normalize,
    parse_poly,
    poly_pow,
)


def rand_poly(rng, deg, bound=9, monic=False):
    c = [rng.randint(-bound, bound) for _ in range(deg)]
    if monic:
        c.append(1)
    else:
        a = 0
        while a == 0:
            a = rng.randint(-bound, bound)
        c.append(a)
    return tuple(c)


def test_normalize_strips_high_zeros():
    assert normalize([1, 2, 0, 0]) == (1, 2)
    assert normalize([0, 0, 0]) == ()
    assert degree(()) == -1


def test_compose_monomials():
    assert compose((0, 0, 1), (0, 0, 1)) == (0, 0, 0, 0, 1)


def test_compose_quartic_family_instance():
    # (x^2 + 2x + 5) o (x^2 + x) with b1=1, a1=2, a0=5
    assert compose((5, 2, 1), (0, 1, 1)) == (5, 2, 3, 2, 1)


def test_compose_cubic_with_power_inner():
    g = (7, 5, 3, 1)
    for n in (2, 3, 4):
        h = (0,) * n + (1,)
        f = compose(g, h)
        expected = [0] * (3 * n + 1)
        for i, a in enumerate(g):
            expected[i * n] = a
        assert f == tuple(expected)


def test_compose_degree_and_lead_law():
    rng = random.Random(1)
    for _ in range(300):
        g = rand_poly(rng, rng.randint(1, 5))
        h = rand_poly(rng, rng.randint(1, 4))
        f = compose(g, h)
        assert degree(f) == degree(g) * degree(h)
        assert lead(f) == lead(g) * lead(h) ** degree(g)


def test_compose_rejects_zero():
    with pytest.raises(ValueError):
        compose((), (0, 1))


def test_height_examples():
    assert height((5, 2, 3, 2, 1)) == 5
    assert height((3, 0, -7)) == 7
    assert height((0, 0, 0, 0, 1)) == 1
    with pytest.raises(ValueError):
        height(())


def test_height_scaling():
    rng = random.Random(2)
    for _ in range(200):
        f = rand_poly(rng, rng.randint(0, 6))
        c = rng.choice([-7, -2, -1, 1, 3, 11])
        assert height(tuple(c * a for a in f)) == abs(c) * height(f)


def horner(f, t):
    acc = 0
    for c in reversed(f):
        acc = acc * t + c
    return acc


def test_evaluate_compose_consistency():
    # compose against pointwise evaluation g(h(t)) at integer points
    rng = random.Random(3)
    for _ in range(200):
        g = rand_poly(rng, rng.randint(1, 4))
        h = rand_poly(rng, rng.randint(1, 4))
        t = rng.randint(-9, 9)
        assert horner(compose(g, h), t) == horner(g, horner(h, t))


def test_poly_pow_matches_mul():
    rng = random.Random(6)
    for _ in range(50):
        f = rand_poly(rng, rng.randint(1, 3))
        acc = (1,)
        for k in range(5):
            assert poly_pow(f, k) == acc
            acc = mul(acc, f)


def test_parse_format_round_trip():
    assert parse_poly("5,2,3,2,1") == (5, 2, 3, 2, 1)
    assert parse_poly("-7, 0, 3") == (-7, 0, 3)
    assert format_poly((5, 2, 3, 2, 1)) == "5,2,3,2,1"
    for bad in ("", "1,,2", "x^2", "1 2"):
        with pytest.raises(ValueError):
            parse_poly(bad)
    with pytest.raises(ValueError):
        parse_poly("0,0")

