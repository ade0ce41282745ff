"""Regenerate perfbench/references.json, the pinned exact answers.

For every (job, H) a seed can pick, the reference holds the exact count from
census.count_forward and the CSV body `polycensus count` writes for each
--jobs value the benchmark uses.  Each count is cross-checked against
census.count_bruteforce wherever the box fits the default oracle budget.
The count series feeding the fit job are pinned here too.

Run from the repository root:  python3 perfbench/make_references.py
Only regenerate when a count is meant to change, which the ROADMAP rules out.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polycensus import cli  # noqa: E402
from polycensus.census import (  # noqa: E402
    DEFAULT_ORACLE_BUDGET,
    CountQuery,
    _box_size,
    count_bruteforce,
    count_forward,
)

import workloads  # noqa: E402

# name -> (degree, monic, variant, heights); every count must reach the
# fit's 50-count floor so no point is dropped.
SERIES = {
    "d4-monic-total": (4, True, "total", (100, 141, 200, 283, 400, 566, 800, 1131)),
    "d4-nonmonic-total": (4, False, "total", (10, 14, 20, 28, 40, 57, 80, 113)),
    "d6-monic-total": (6, True, "total", (4, 6, 8, 11, 16, 23, 32)),
    "d8-monic-ipair": (8, True, "indecomp_pair", (4, 6, 8, 11, 16, 23)),
}


def query(spec: workloads.CountSpec, H: int) -> CountQuery:
    variant, split = cli._parse_variant(spec.variant)
    return CountQuery(spec.degree, H, spec.monic, variant, split)


def main() -> int:
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for w in workloads.WORKLOADS.values():
            for spec in w.specs:
                if not isinstance(spec, workloads.CountSpec):
                    continue
                for H in spec.heights:
                    q = query(spec, H)
                    count = count_forward(q).count
                    checked = _box_size(q.d, q.H, q.monic) <= DEFAULT_ORACLE_BUDGET
                    if checked and count_bruteforce(q).count != count:
                        raise SystemExit(f"forward and oracle disagree on {q}")
                    bodies = {}
                    for jobs in sorted({1, w.workers}):
                        job = workloads.CountJob(spec, H)
                        out = Path(tmp) / "body.csv"
                        if cli.run(job.argv(jobs, out)) != 0:
                            raise SystemExit(f"polycensus count failed on {job.label}")
                        body = out.read_text()
                        if body.splitlines()[-1].split(",")[6] != str(count):
                            raise SystemExit(f"CSV count differs from count_forward on {q}")
                        bodies[str(jobs)] = body
                    label = workloads.ref_key(spec.key, H)
                    counts[label] = {"count": str(count), "oracle_checked": checked,
                                     "csv": bodies}
                    print(f"{label}: {count} (oracle {'agrees' if checked else 'out of budget'})",
                          flush=True)
    series = {}
    for name, (d, monic, variant, heights) in SERIES.items():
        points = [[H, count_forward(CountQuery(d, H, monic, variant)).count] for H in heights]
        if min(c for _, c in points) < 50:
            raise SystemExit(f"series {name} has a count under the fit floor")
        series[name] = points
    with open(workloads.REFERENCES, "w") as fh:
        json.dump({"counts": counts, "series": series}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
