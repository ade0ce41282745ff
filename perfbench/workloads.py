"""The four workloads: fixed job lists, seeded inputs, and a check on every output.

A workload is a list of job specs.  The seed picks each count job's height H
from a small pinned window, generates the measure workload's polynomials,
and shuffles the job order.  Every count job goes through `polycensus count`
(cli.run) and its CSV body must equal the pinned reference byte for byte;
measure jobs are checked against independent numpy routes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from polycensus import asymptotics, cli, mahler
from polycensus.poly_core import compose

REFERENCES = Path(__file__).with_name("references.json")

# Composed pairs for check_inequalities: every split with m*n <= 12.
INEQUALITY_SPLITS = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2),
                     (2, 6), (6, 2), (3, 4), (4, 3))
MEASURE_REL_TOL = 1e-6   # Aberth measure against numpy's companion-matrix roots
FIT_REL_TOL = 1e-9       # fit exponents against numpy.polyfit


@dataclass(frozen=True)
class CountSpec:
    """One `polycensus count` query; the seed picks H from `heights`."""

    key: str
    degree: int
    monic: bool
    variant: str          # CLI spelling: total | indecomp-pair | split:m,n
    method: str           # forward | oracle
    heights: Tuple[int, ...]


@dataclass(frozen=True)
class MeasureSpec:
    """A batch of measure-side calls; the seed generates its inputs."""

    key: str
    kind: str             # mahler | inequalities | fit
    size: int


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int          # --jobs of the timed run
    specs: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("total", 1, (
            CountSpec("total/d8-monic", 8, True, "total", "forward", (34, 35, 36)),
            CountSpec("total/d12-monic", 12, True, "total", "forward", (6,)),
            CountSpec("total/d6-nonmonic", 6, False, "total", "forward", (34, 35, 36)),
            CountSpec("total/d8-nonmonic", 8, False, "total", "forward", (10,)),
        )),
        Workload("ipair", 2, (
            CountSpec("ipair/d8-monic", 8, True, "indecomp-pair", "forward", (18,)),
            CountSpec("ipair/d8-nonmonic", 8, False, "indecomp-pair", "forward", (4,)),
        )),
        Workload("oracle", 1, (
            CountSpec("oracle/d6-monic", 6, True, "total", "oracle", (2,)),
            CountSpec("oracle/d4-monic", 4, True, "total", "oracle", (6,)),
            CountSpec("oracle/d4-nonmonic", 4, False, "total", "oracle", (2,)),
            CountSpec("oracle/d6-monic-split32", 6, True, "split:3,2", "oracle", (2,)),
        )),
        Workload("measure", 1, (
            MeasureSpec("measure/mahler-a", "mahler", 350),
            MeasureSpec("measure/mahler-b", "mahler", 350),
            MeasureSpec("measure/inequalities", "inequalities", 150),
            MeasureSpec("measure/fit", "fit", 0),
        )),
    )
}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def ref_key(key: str, H: int) -> str:
    return f"{key}@H={H}"


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


class CountJob:
    def __init__(self, spec: CountSpec, H: int):
        self.spec, self.H = spec, H
        self.label = ref_key(spec.key, H)

    def describe(self) -> dict:
        s = self.spec
        return {"job": s.key, "H": self.H, "degree": s.degree, "monic": s.monic,
                "variant": s.variant, "method": s.method}

    def argv(self, workers: int, output: Path) -> List[str]:
        s = self.spec
        return ["count", "--degree", str(s.degree), "--monic" if s.monic else "--non-monic",
                "--height-max", str(self.H), "--variant", s.variant, "--method", s.method,
                "--jobs", str(workers), "--output", str(output)]

    def call(self, workers: int, work_dir: Path):
        output = work_dir / (self.spec.key.replace("/", "-") + ".csv")
        output.unlink(missing_ok=True)
        try:
            rc = cli.run(self.argv(workers, output))
        except Exception as exc:  # any crash is a failed operation, not a dead benchmark
            rc = f"{type(exc).__name__}: {exc}"
        return rc, output

    def check(self, out, workers: int, refs: dict) -> Tuple[int, List[str]]:
        rc, output = out
        if rc != 0 or not output.is_file():
            return 1, [f"{self.label}: exit {rc}"]
        body = output.read_text()
        expected = refs["counts"][self.label]["csv"][str(workers)]
        if body != expected:
            return 1, [f"{self.label}: body {body!r} != reference {expected!r}"]
        return 1, []


def _measure_reference(f) -> float:
    r = np.roots(np.array(f[::-1], dtype=np.float64))
    return abs(float(f[-1])) * float(np.prod(np.maximum(1.0, np.abs(r))))


class MahlerJob:
    """mahler_measure on seeded integer polynomials of degree 1..12 (c10's coefficients)."""

    def __init__(self, spec: MeasureSpec, rng: random.Random):
        self.spec, self.label = spec, spec.key
        self.polys = []
        for _ in range(spec.size):
            d = rng.randint(1, 12)
            lead = 0
            while lead == 0:
                lead = rng.randint(-1000, 1000)
            self.polys.append(tuple(rng.randint(-1000, 1000) for _ in range(d)) + (lead,))

    def describe(self) -> dict:
        return {"job": self.label, "polynomials": len(self.polys)}

    def call(self, workers: int, work_dir: Path) -> list:
        out = []
        for f in self.polys:
            try:
                out.append(mahler.mahler_measure(f))
            except Exception as exc:  # RootConvergenceError or any crash counts as failed
                out.append(exc)
        return out

    def check(self, out, workers: int, refs: dict) -> Tuple[int, List[str]]:
        details = []
        for f, m in zip(self.polys, out):
            if isinstance(m, Exception):
                details.append(f"{f}: {type(m).__name__}: {m}")
                continue
            hf, d = max(abs(c) for c in f), len(f) - 1
            ref = _measure_reference(f)
            in_sandwich = hf * 2.0 ** -d * (1 - 1e-9) <= m <= hf * math.sqrt(d + 1) * (1 + 1e-9)
            if not in_sandwich or abs(m - ref) > MEASURE_REL_TOL * ref:
                details.append(f"{f}: measure {m!r}, numpy reference {ref!r}")
        return len(self.polys), details


class InequalityJob:
    """check_inequalities on seeded composed pairs f = g(h(x)), deg f <= 12."""

    def __init__(self, spec: MeasureSpec, rng: random.Random):
        self.spec, self.label = spec, spec.key
        self.cases = []
        for _ in range(spec.size):
            m, n = rng.choice(INEQUALITY_SPLITS)
            monic = rng.random() < 0.5
            g = [rng.randint(-9, 9) for _ in range(m)]
            lead = 1 if monic else 0
            while lead == 0:
                lead = rng.randint(-9, 9)
            h = [0] + [rng.randint(-9, 9) for _ in range(n - 1)]
            h.append(1 if monic else rng.randint(1, 9))
            g, h = tuple(g) + (lead,), tuple(h)
            self.cases.append((compose(g, h), g, h, (m, n)))

    def describe(self) -> dict:
        return {"job": self.label, "pairs": len(self.cases)}

    def call(self, workers: int, work_dir: Path) -> list:
        out = []
        for f, g, h, split in self.cases:
            try:
                out.append(mahler.check_inequalities(f, g, h, split))
            except Exception as exc:  # RootConvergenceError or any crash counts as failed
                out.append(exc)
        return out

    def check(self, out, workers: int, refs: dict) -> Tuple[int, List[str]]:
        details = []
        for (f, g, h, split), rep in zip(self.cases, out):
            if isinstance(rep, Exception):
                details.append(f"g={g} h={h}: {type(rep).__name__}: {rep}")
            elif not (rep.all_ok and rep.composition_checked):
                details.append(f"g={g} h={h}: report {rep}")
        return len(self.cases), details


class FitJob:
    """fit_growth over a seeded window (4+ points) of every pinned count series."""

    def __init__(self, spec: MeasureSpec, rng: random.Random, refs: dict):
        self.spec, self.label = spec, spec.key
        self.windows = []
        for name, series in sorted(refs["series"].items()):
            length = rng.randint(4, len(series))
            first = rng.randint(0, len(series) - length)
            self.windows.append((name, [tuple(p) for p in series[first:first + length]]))

    def describe(self) -> dict:
        return {"job": self.label, "series": {n: [p[0] for p in w] for n, w in self.windows}}

    def call(self, workers: int, work_dir: Path) -> list:
        out = []
        for _, points in self.windows:
            try:
                out.append(asymptotics.fit_growth(points))
            except Exception as exc:  # any crash counts as failed
                out.append(exc)
        return out

    def check(self, out, workers: int, refs: dict) -> Tuple[int, List[str]]:
        details = []
        for (name, points), fit in zip(self.windows, out):
            if isinstance(fit, Exception):
                details.append(f"{name}: {type(fit).__name__}: {fit}")
                continue
            xs = np.log([h for h, _ in points])
            ys = np.log([float(c) for _, c in points])
            power = np.polyfit(xs, ys, 1)[0]
            log = np.polyfit(xs, ys - np.log(xs), 1)[0]
            chosen = fit.log_exponent if fit.log_model_preferred else fit.power_exponent
            if (abs(fit.power_exponent - power) > FIT_REL_TOL * abs(power)
                    or abs(fit.log_exponent - log) > FIT_REL_TOL * abs(log)
                    or fit.exponent != chosen):
                details.append(f"{name}: fit {fit} against polyfit ({power}, {log})")
        return len(self.windows), details


def plan(workload: Workload, seed: int, refs: dict) -> list:
    """The seeded job list of one workload, in run order."""
    rng = random.Random(seed)
    jobs = []
    for spec in workload.specs:
        if isinstance(spec, CountSpec):
            jobs.append(CountJob(spec, rng.choice(spec.heights)))
            continue
        inputs = random.Random(f"{seed}/{spec.key}")
        if spec.kind == "mahler":
            jobs.append(MahlerJob(spec, inputs))
        elif spec.kind == "inequalities":
            jobs.append(InequalityJob(spec, inputs))
        else:
            jobs.append(FitJob(spec, inputs, refs))
    rng.shuffle(jobs)
    return jobs
