"""Canned acceptance suites: one callable per criterion, shared by CLI and tests.

Every criterion returns (passed, detail) and prints nothing; run_criteria
wraps them with one PASS/FAIL line each.  The fit tolerances are pinned
here; the measure tolerances are mahler's (EQ2_REL_TOL, PRODUCT_REL_TOL).
"""

from __future__ import annotations

import io
import math
import random
import time
from contextlib import redirect_stdout
from typing import Callable, List, Optional, Set, Tuple

from .asymptotics import fit_growth, remainder_report
from .census import (
    CountQuery,
    count_bruteforce,
    count_forward,
    height_lemma,
    iter_decompositions,
)
from .decompose import decompose_split, full_decomposition, is_decomposable
from .mahler import EQ2_REL_TOL, check_inequalities, mahler_measure, sandwich_bounds
from .poly_core import Poly, compose, height, mul

ROUND_TRIP_SPLITS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))


def _random_inner(rng, n, monic, bound):
    h = [0] + [rng.randint(-bound, bound) for _ in range(n - 1)]
    h.append(1 if monic else rng.randint(1, bound))
    return tuple(h)


def _random_outer(rng, m, monic, bound):
    g = [rng.randint(-bound, bound) for _ in range(m)]
    if monic:
        g.append(1)
    else:
        a = 0
        while a == 0:
            a = rng.randint(-bound, bound)
        g.append(a)
    return tuple(g)


def _totals(d, monic, heights):
    """(H, forward total count) at each height."""
    return [(H, count_forward(CountQuery(d, H, monic, "total")).count) for H in heights]


def _forward_matches_oracle(label, d, monic, heights, queries, shown=None):
    """At each height, count_forward against count_bruteforce for every
    (variant, split) of queries; the detail reads label(H) = the first
    query's count, over the last shown heights (all of them by default)."""
    parts: List[str] = []
    for H in heights:
        counts = []
        for variant, split in queries:
            q = CountQuery(d, H, monic, variant, split)
            fwd = count_forward(q).count
            orc = count_bruteforce(q).count
            if fwd != orc:
                return False, f"H={H} {variant}{split or ''}: forward={fwd} oracle={orc}"
            counts.append(fwd)
        parts.append(f"{label}({H})={counts[0]}")
    return True, " ".join(parts[-shown:] if shown else parts)


def criterion_1() -> Tuple[bool, str]:
    """Oracle equivalence, monic d=4, H in 2..12: total and split (2,2),
    each against the oracle."""
    queries = (("total", None), ("split", (2, 2)))
    return _forward_matches_oracle("D_4", 4, True, range(2, 13), queries, shown=3)


def criterion_2() -> Tuple[bool, str]:
    """Oracle equivalence, monic d=6: total and splits (2,3), (3,2), H in 2..4."""
    queries = (("total", None), ("split", (2, 3)), ("split", (3, 2)))
    return _forward_matches_oracle("D_6", 6, True, (2, 3, 4), queries)


def criterion_3() -> Tuple[bool, str]:
    """Oracle equivalence, non-monic d=4, H in 2..5, total."""
    return _forward_matches_oracle("D*_4", 4, False, (2, 3, 4, 5), (("total", None),))


def criterion_4() -> Tuple[bool, str]:
    """Prime-degree vanishing: D_5(100) = 0, D*_7(20) = 0, random samples."""
    d5 = count_forward(CountQuery(5, 100, True, "total")).count
    d7 = count_forward(CountQuery(7, 20, False, "total")).count
    if d5 or d7:
        return False, f"D_5(100)={d5} D*_7(20)={d7}"
    rng = random.Random(54)
    for _ in range(5000):
        f = tuple(rng.randint(-100, 100) for _ in range(5)) + (1,)
        if is_decomposable(f):
            return False, f"degree-5 polynomial flagged decomposable: {f}"
    for _ in range(5000):
        a = 0
        while a == 0:
            a = rng.randint(-20, 20)
        f = tuple(rng.randint(-20, 20) for _ in range(7)) + (a,)
        if is_decomposable(f):
            return False, f"degree-7 polynomial flagged decomposable: {f}"
    return True, "D_5(100)=0 D*_7(20)=0, 10^4 random samples indecomposable"


def criterion_5() -> Tuple[bool, str]:
    """Monic d=4 log regime: exponent in [2.00, 2.35], log model preferred,
    count/(H^2 ln H) stable within 25% on the top three grid points."""
    pts = _totals(4, True, (125, 250, 500, 1000, 2000))
    fit = fit_growth(pts)
    ratios = [c / (H * H * math.log(H)) for H, c in pts[-3:]]
    spread = max(ratios) / min(ratios) - 1.0
    ok = 2.00 <= fit.power_exponent <= 2.35 and fit.log_model_preferred and spread < 0.25
    return ok, (
        f"power exponent={fit.power_exponent:.3f}, log preferred={fit.log_model_preferred}, "
        f"top-3 ratio spread={spread * 100:.1f}%"
    )


def _power_fit(d: int, monic: bool, target: int, tol: float) -> Tuple[bool, str]:
    """Total counts at H = 25, 50, 100, 200: pure-power exponent within tol
    of target."""
    fit = fit_growth(_totals(d, monic, (25, 50, 100, 200)))
    ok = abs(fit.power_exponent - target) <= tol
    return ok, f"power exponent={fit.power_exponent:.3f} (target {target} +- {tol:.2f})"


def criterion_6() -> Tuple[bool, str]:
    """Monic d=9: pure-power exponent within 0.15 of 3."""
    return _power_fit(9, True, 3, 0.15)


def criterion_7() -> Tuple[bool, str]:
    """Non-monic d=4: pure-power exponent within 0.20 of 3."""
    return _power_fit(4, False, 3, 0.20)


def criterion_8() -> Tuple[bool, str]:
    """d=8 remainder: D-I >= 0, (D-I)/D nonincreasing, remainder exponent
    <= 3.3; D = I identically for d = 4 and d = 9."""
    rep = remainder_report(8, True, (10, 20, 40, 80))
    diffs = [row[3] for row in rep.rows]
    ratios = [row[4] for row in rep.rows]
    if any(x < 0 for x in diffs):
        return False, f"negative remainder: {diffs}"
    if any(b > a for a, b in zip(ratios, ratios[1:])):
        return False, f"remainder ratio not nonincreasing: {ratios}"
    if rep.fit is None:
        return False, "no remainder fit possible"
    bound = rep.predicted_exponent + 0.3
    if rep.fit.power_exponent > bound:
        return False, f"remainder exponent {rep.fit.power_exponent:.3f} > {bound:.1f}"
    for d in (4, 9):
        for H, dd, ii, _, _ in remainder_report(d, True, (10, 20, 40, 80)).rows:
            if dd != ii:
                return False, f"d={d} H={H}: D={dd} != I={ii}"
    return True, (
        f"d=8 ratios={['%.4f' % r for r in ratios]}, remainder exponent="
        f"{rep.fit.power_exponent:.3f}; D=I for d=4,9"
    )


def _lemma_ok(g: Poly, h: Poly) -> bool:
    return all(height_lemma(g, h, height(compose(g, h))))


def criterion_9() -> Tuple[bool, str]:
    """Explicit inner/outer height bounds: zero violations over every
    decomposition produced in the oracle-equivalence boxes plus 10^4 random
    composed pairs."""
    checked = 0
    sweeps = [
        (4, 12, True, (2, 2)),
        (6, 4, True, (2, 3)),
        (6, 4, True, (3, 2)),
        (4, 5, False, (2, 2)),
    ]
    for d, H, monic, split in sweeps:
        for g, h in iter_decompositions(d, H, monic, split):
            if not _lemma_ok(g, h):
                return False, f"violation in box d={d} H={H}: g={g} h={h}"
            checked += 1
    rng = random.Random(99)
    for i in range(10_000):
        m, n = ROUND_TRIP_SPLITS[i % len(ROUND_TRIP_SPLITS)]
        monic = i % 2 == 0
        g = _random_outer(rng, m, monic, 9)
        h = _random_inner(rng, n, monic, 9)
        if not _lemma_ok(g, h):
            return False, f"violation on random pair g={g} h={h}"
        checked += 1
    return True, f"{checked} decompositions checked, zero violations"


def criterion_10() -> Tuple[bool, str]:
    """Measure suite: two-sided height sandwich and multiplicativity, at
    mahler's tolerances; the product half reads check_inequalities' product
    check."""
    rng = random.Random(2718)
    worst_slack = math.inf
    for _ in range(10_000):
        d = rng.randint(1, 10)
        f = [rng.randint(-1000, 1000) for _ in range(d)]
        a = 0
        while a == 0:
            a = rng.randint(-1000, 1000)
        f = tuple(f) + (a,)
        m = mahler_measure(f)
        lo, hi = sandwich_bounds(f)
        worst_slack = min(worst_slack, (m - lo) / m, (hi - m) / m)
        if (m - lo) / m < -EQ2_REL_TOL or (hi - m) / m < -EQ2_REL_TOL:
            return False, f"sandwich violated for {f}: M={m}, bounds=({lo},{hi})"
    worst_err = 0.0
    for _ in range(10_000):
        dg, dh = rng.randint(1, 5), rng.randint(1, 5)
        g = tuple(rng.randint(-1000, 1000) for _ in range(dg)) + (rng.randint(1, 1000),)
        h = tuple(rng.randint(-1000, 1000) for _ in range(dh)) + (rng.randint(1, 1000),)
        report = check_inequalities(mul(g, h), g, h)
        product = next(c for c in report.checks if c.name.startswith("product:"))
        worst_err = max(worst_err, product.lhs)
        if not product.ok:
            return False, f"multiplicativity off by {product.lhs:.2e} for g={g} h={h}"
    return True, f"worst sandwich slack {worst_slack:.2e}, worst product error {worst_err:.2e}"


def criterion_11() -> Tuple[bool, str]:
    """Round trip: witnesses recompose exactly; full chains factor back."""
    rng = random.Random(424242)
    trips = 0
    for i in range(10_000):
        m, n = ROUND_TRIP_SPLITS[i % len(ROUND_TRIP_SPLITS)]
        monic = i % 2 == 0
        g = _random_outer(rng, m, monic, 6)
        h = _random_inner(rng, n, monic, 6)
        f = compose(g, h)
        w = decompose_split(f, m, n)
        if w is None:
            return False, f"no witness for composed f={f} split=({m},{n})"
        if compose(w.g, w.h) != f:
            return False, f"witness does not recompose: f={f} w=({w.g},{w.h})"
        trips += 1
    chains = 0
    for i in range(2000):
        parts = rng.choice(((2, 2, 2), (2, 3), (3, 2), (2, 2), (4, 2)))
        f = None
        for deg in parts:
            p = _random_outer(rng, deg, i % 2 == 0, 3)
            f = p if f is None else compose(f, p)
        factors = full_decomposition(f)
        back = factors[0]
        for p in factors[1:]:
            back = compose(back, p)
        if back != f:
            return False, f"chain does not recompose for f={f}"
        if any(is_decomposable(p) for p in factors):
            return False, f"reducible factor in chain for f={f}"
        chains += 1
    return True, f"{trips} split round trips, {chains} full chains"


def criterion_12() -> Tuple[bool, str]:
    """Determinism: same counts for 1, 4, 8 workers; byte-identical CSV."""
    q = CountQuery(4, 100, True, "total")
    counts = [count_forward(q, workers=w).count for w in (1, 4, 8)]
    if len(set(counts)) != 1:
        return False, f"worker counts disagree: {counts}"
    from .cli import run as cli_run

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_run(argv)
        return code, buf.getvalue()

    bodies = []
    for _ in range(2):
        code, body = capture(
            ["count", "--degree", "4", "--monic", "--grid", "10,20,40,100", "--jobs", "2"]
        )
        if code != 0:
            return False, f"cli exited with {code}"
        bodies.append(body)
    if bodies[0] != bodies[1]:
        return False, "CSV bodies differ between runs"
    code, body = capture(["count", "--degree", "4", "--monic", "--height-max", "4", "--method", "both"])
    rows = body.strip().splitlines()[1:]
    if code != 0 or len(rows) != 2:
        return False, f"--method both emitted {len(rows)} rows (exit {code})"
    if rows[0].split(",")[6] != rows[1].split(",")[6]:
        return False, f"--method both rows disagree: {rows}"
    return True, f"count={counts[0]} for workers 1/4/8; CSV bodies identical; both-method rows equal"


def criterion_13() -> Tuple[bool, str]:
    """Quartic lower-bound family is exactly present in the enumeration."""
    H = 16
    # the enumerated polynomials with their constant term dropped
    enumerated = {compose(g, h)[1:] for g, h in iter_decompositions(4, H, True, (2, 2))}
    family: Set[Poly] = set()
    for b1 in range(1, math.isqrt(H) + 1):
        for a0 in range(1, H + 1):
            for a1 in range(-(H // b1), 0):
                f = compose((a0, a1, 1), (0, b1, 1))
                if height(f) > H:
                    return False, f"family member exceeds height {H}: {f}"
                family.add(f)
                if f[1:] not in enumerated:
                    return False, f"family member missing from enumeration: {f}"
    expected = sum(H * (H // b1) for b1 in range(1, math.isqrt(H) + 1))
    if len(family) != expected:
        return False, f"family not distinct: {len(family)} != {expected}"
    split_count = count_forward(CountQuery(4, H, True, "split", (2, 2))).count
    if split_count < len(family):
        return False, f"count {split_count} below family size {len(family)}"
    return True, f"{len(family)} family members all present; D_4(2,2;{H})={split_count}"


CRITERIA: List[Tuple[int, str, Callable[[], Tuple[bool, str]]]] = [
    (1, "oracle equivalence, monic d=4, H=2..12", criterion_1),
    (2, "oracle equivalence, monic d=6, both splits, H=2..4", criterion_2),
    (3, "oracle equivalence, non-monic d=4, H=2..5", criterion_3),
    (4, "prime-degree vanishing", criterion_4),
    (5, "monic d=4 log regime (H^2 log H)", criterion_5),
    (6, "monic d=9 exponent 3", criterion_6),
    (7, "non-monic d=4 exponent 3", criterion_7),
    (8, "d=8 remainder D-I; D=I for square degrees", criterion_8),
    (9, "explicit height-bound inequalities", criterion_9),
    (10, "measure sandwich and multiplicativity", criterion_10),
    (11, "decomposition round trips", criterion_11),
    (12, "worker and byte determinism", criterion_12),
    (13, "quartic lower-bound family membership", criterion_13),
]


def run_criteria(wanted: Optional[Set[int]] = None) -> bool:
    """Print one PASS/FAIL line per wanted criterion; whether all passed."""
    all_passed = True
    for number, name, fn in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - t0
        all_passed = all_passed and passed
        status = "PASS" if passed else "FAIL"
        print(f"{status}  c{number:02d}  {name}: {detail} [{elapsed:.1f}s]", flush=True)
    return all_passed
