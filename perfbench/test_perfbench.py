"""Self-test of the benchmark, on job lists small enough to run in seconds.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from polycensus import census  # noqa: E402
from workloads import CountSpec, MeasureSpec, Workload  # noqa: E402

SMALL = (
    Workload("total", 1, (
        CountSpec("t/d8-monic", 8, True, "total", "forward", (6,)),
        CountSpec("t/d6-nonmonic", 6, False, "total", "forward", (5,)),
        CountSpec("t/d12-monic", 12, True, "total", "forward", (2,)),
    )),
    Workload("ipair", 2, (
        CountSpec("t/ipair-monic", 8, True, "indecomp-pair", "forward", (5,)),
        CountSpec("t/ipair-nonmonic", 8, False, "indecomp-pair", "forward", (2,)),
    )),
    Workload("oracle", 1, (
        CountSpec("t/oracle-monic", 4, True, "total", "oracle", (3,)),
        CountSpec("t/oracle-nonmonic", 4, False, "total", "oracle", (2,)),
        CountSpec("t/oracle-split", 6, True, "split:3,2", "oracle", (2,)),
    )),
    Workload("measure", 1, (
        MeasureSpec("t/mahler", "mahler", 60),
        MeasureSpec("t/inequalities", "inequalities", 30),
        MeasureSpec("t/fit", "fit", 0),
    )),
)
EXACT_UNITS = ("count",)


def untraced_refs(workload, jobs, tmp_path):
    """References made from an untraced pass: each count job's CSV body."""
    refs = workloads.load_references()
    refs = {"series": refs["series"], "counts": {}}
    for job in jobs:
        if isinstance(job, workloads.CountJob):
            bodies = {}
            for w in sorted({1, workload.workers}):
                rc, out = job.call(w, tmp_path)
                assert rc == 0
                bodies[str(w)] = out.read_text()
            refs["counts"][job.label] = {"csv": bodies}
    return refs


def traced_metrics(jobs, refs, tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        records = run.run_pass(jobs, 1, refs, tmp_path, tr)
    finally:
        tr.uninstall()
    return records, tracer.per_layer_metrics(tracer.SpanFrame(tr), records, 1, 0.0)


def exact(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit in EXACT_UNITS}


def test_every_wrapped_target_resolves():
    tr = tracer.Tracer()
    assert len(tr.resolve()) == len(tracer.TARGETS)
    assert tr.missing == []


def test_per_layer_names_match_benchmark_json():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _, metrics = traced_metrics([], {"counts": {}, "series": {}}, HERE)
    assert declared == {k: unit for k, (_, unit) in metrics.items()}


def test_references_cover_every_pick():
    refs = workloads.load_references()
    for w in workloads.WORKLOADS.values():
        for spec in w.specs:
            if isinstance(spec, CountSpec):
                for H in spec.heights:
                    entry = refs["counts"][workloads.ref_key(spec.key, H)]
                    assert set(entry["csv"]) == {str(j) for j in {1, w.workers}}


def test_same_seed_same_job_list():
    refs = workloads.load_references()
    for w in workloads.WORKLOADS.values():
        a, b = workloads.plan(w, 17, refs), workloads.plan(w, 17, refs)
        assert [j.describe() for j in a] == [j.describe() for j in b]
        assert [vars(j) for j in a] == [vars(j) for j in b]


@pytest.mark.parametrize("workload", SMALL, ids=[w.name for w in SMALL])
def test_traced_run_matches_untraced_and_counters_repeat(workload, tmp_path):
    jobs = workloads.plan(workload, 3, {"series": workloads.load_references()["series"]})
    refs = untraced_refs(workload, jobs, tmp_path)
    first, metrics = traced_metrics(jobs, refs, tmp_path)
    assert all(r["failed"] == 0 for r in first), first
    again = workloads.plan(workload, 3, refs)
    _, metrics_again = traced_metrics(again, refs, tmp_path)
    assert exact(metrics) == exact(metrics_again)
    if workload.name != "measure":
        # every height window here holds one value, so another seed only reorders
        other = workloads.plan(workload, 4, refs)
        _, metrics_other = traced_metrics(other, refs, tmp_path)
        assert exact(metrics) == exact(metrics_other)
        assert metrics["poly_core.mul.calls"][0] > 0


def test_missing_binding_reports_unavailable(monkeypatch, tmp_path):
    monkeypatch.delattr(census, "_run_chunk")
    _, metrics = traced_metrics([], {"counts": {}, "series": {}}, tmp_path)
    assert metrics["census.pairs"][0] is None
    assert metrics["census.run_chunk.self_s"][0] is None
    assert metrics["census.inner_candidates"][0] == 0
