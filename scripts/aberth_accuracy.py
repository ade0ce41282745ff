"""Accuracy of mahler_measure on the perfbench `measure` inputs, two source trees.

    python3 scripts/aberth_accuracy.py OTHER_SRC [--seeds 1-5] [--json OUT]

Runs `mahler.mahler_measure` from this repository's `src/` and from
OTHER_SRC (say, a clean copy of an earlier commit) on the same inputs: the
dense degree 1-12 polynomials of the two MahlerJobs and the composed
f = g(h(x)) of the InequalityJob, for each seed.  A composed f is measured
down its chain (g, h), as check_inequalities measures it, on a side whose
`mahler.roots` takes a `chain`; a side without it measures f whole.  Each
measure is compared with a 60-digit mpmath reference, taken over the
distinct-root pieces f/gcd(f, f'), gcd/gcd(gcd, gcd'), ... so that
multiple roots converge.
Prints, per side and per kind, the median, p90 and maximum relative error
and the count above 1e-8, once over all measures and once over those where
the two sides differ.

mpmath is not a dependency of polycensus, so this script is not part of
the test suite.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polycensus.mahler import _poly_divmod  # noqa: E402

# Run inside a child interpreter whose sys.path starts with one side's src.
_CHILD = """
import inspect, json, random, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from polycensus import mahler
from perfbench.workloads import InequalityJob, MahlerJob, WORKLOADS
chained = "chain" in inspect.signature(mahler.roots).parameters
out = []
for seed in json.loads(sys.argv[3]):
    for spec in WORKLOADS["measure"].specs:
        inputs = random.Random(f"{seed}/{spec.key}")
        if spec.kind == "mahler":
            polys = [("dense", f, None) for f in MahlerJob(spec, inputs).polys]
        elif spec.kind == "inequalities":
            polys = [("composed", f, (g, h)) for f, g, h, _ in InequalityJob(spec, inputs).cases]
        else:
            continue
        for kind, f, chain in polys:
            m = mahler.roots(f, chain).measure if chain and chained else mahler.mahler_measure(f)
            out.append([seed, kind, list(f), m])
print(json.dumps(out))
"""


def measures(src: Path, seeds) -> list:
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(ROOT), json.dumps(seeds)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(run.stdout)


def _pieces(a):
    """f/gcd(f, f'), then the same for the gcd, and so on: each has simple roots."""
    g, b = a, [i * c for i, c in enumerate(a)][1:]
    while b:
        g, b = b, _poly_divmod(g, b)[1]
    if len(g) == 1:
        return [a]
    return [_poly_divmod(a, g)[0]] + _pieces(g)


def reference(f) -> mpmath.mpf:
    """|lead f| * prod max(1, |r|) over the roots of f, to 60 digits."""
    nzero = next(i for i, c in enumerate(f) if c)
    m = mpmath.mpf(abs(f[-1]))
    for piece in _pieces([Fraction(c) for c in f[nzero:]]):
        if len(piece) < 2:
            continue
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(piece)]
        for r in mpmath.polyroots(coeffs, maxsteps=500, extraprec=400):
            m *= max(mpmath.mpf(1), abs(r))
    return m


def _summary(errors) -> dict:
    if not errors:
        return {"n": 0}
    e = sorted(errors)
    pick = lambda q: e[min(len(e) - 1, int(q * (len(e) - 1) + 0.5))]
    return {"n": len(e), "median": pick(0.5), "p90": pick(0.9), "max": e[-1],
            "above_1e-8": sum(x > 1e-8 for x in e)}


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other_src", type=Path)
    ap.add_argument("--seeds", default="1-5", help="a seed or an inclusive range, e.g. 1-5")
    ap.add_argument("--json", type=Path, help="also write the table here")
    args = ap.parse_args(argv)
    mpmath.mp.dps = 60
    seeds = _seeds(args.seeds)
    this, other = measures(ROOT / "src", seeds), measures(args.other_src, seeds)
    rows = {"this": {}, "other": {}}
    for (seed, kind, f, m_this), (_, _, g, m_other) in zip(this, other):
        if f != g:
            raise SystemExit("the two source trees generated different inputs")
        ref = reference(f)
        for side, m in (("this", m_this), ("other", m_other)):
            err = float(abs(mpmath.mpf(m) - ref) / ref)
            for subset in ("all", "differ") if m_this != m_other else ("all",):
                rows[side].setdefault(f"{kind}/{subset}", []).append(err)
    table = {side: {key: _summary(errs) for key, errs in sorted(groups.items())}
             for side, groups in rows.items()}
    table["seeds"] = seeds
    text = json.dumps(table, indent=1)
    print(text)
    if args.json:
        args.json.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
