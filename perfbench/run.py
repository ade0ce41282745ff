"""Run one workload of the polycensus benchmark and print its metrics.

    python3 perfbench/run.py --workload total --seed 7 --seconds 20 --trace 0

One client runs the workload's job list in a closed loop: each job starts
when the previous one ends, and the list repeats until --seconds is used up.
Every output is checked against perfbench/references.json (counts) or an
independent numpy route (measures, fits).

--trace 0  prints the end-to-end metrics: wall_s (the job list's wall time,
           each job at its fastest over the run's passes), setup_s (median of
           many fresh interpreters importing polycensus.cli), peak_rss_mb
           (largest peak RSS of a job: each job runs in a forked child,
           counted with its pool workers).  Both timings are rescaled to the
           reference host speed, measured by a fixed pure-Python gauge run
           before every job (see README.md for why); the times as measured
           on this host are printed and kept in the record.
           fail_frac is printed on its own line; the last line carries the
           same numbers as `attempted` and `failed`.
--trace 1  runs the job list in-process: once untraced at the workload's
           --jobs (pool metrics), once untraced at --jobs 1 if that differs,
           and once traced at --jobs 1, then prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A full record (provenance, per-job and per-split breakdowns, the
coarse spans) goes to perfbench/results/.  The exit code is 0 when every
output was correct, 1 when one was not, and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("total", "ipair", "oracle", "measure")  # workloads.WORKLOADS, before src/ is importable
SETUP_PROBES = 15    # at least this many set-up probes per timed run
PROBES_PER_PASS = 2
# host_gauge()'s fastest time on the reference host (2 vCPUs, Python 3.11.7);
# timings are reported as if the host ran at that speed.
REFERENCE_GAUGE_S = 0.035
MAX_DETAILS = 5     # failure messages kept per job
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import polycensus.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, jobs, workers) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "jobs": [j.describe() for j in jobs],
    }


def measure_setup(n: int) -> list:
    """Seconds from spawning an interpreter until polycensus.cli is imported, n times."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE) as probe:
            line = probe.stdout.readline()
            times.append(perf_counter() - t0)
            probe.stdout.read()
        if probe.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe failed with exit {probe.returncode}")
    return times


def cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_job(job, workers, refs, work_dir) -> dict:
    """Run one job and check it; wall and CPU time cover the program calls only."""
    self0 = cpu_seconds(resource.RUSAGE_SELF)
    kids0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    out = job.call(workers, work_dir)
    wall = perf_counter() - t0
    cpu_self = cpu_seconds(resource.RUSAGE_SELF) - self0
    cpu_kids = cpu_seconds(resource.RUSAGE_CHILDREN) - kids0
    attempted, failures = job.check(out, workers, refs)
    return {
        "job": job.label,
        "wall_s": wall,
        "cpu_self_s": cpu_self,
        "cpu_children_s": cpu_kids,
        "attempted": attempted,
        "failed": len(failures),
        "details": failures[:MAX_DETAILS],
    }


def forked(fn):
    """fn() in a forked child; its JSON-ready result, or None if the child failed."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with os.fdopen(wfd, "w") as fh:
                json.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(data) if status == 0 and data else None


def run_job_forked(job, workers, refs, work_dir) -> dict:
    """run_job in a forked child, adding the child's peak RSS plus its pool workers'.

    Each job starts from the same heap, so neither its time nor its peak
    memory depends on which jobs ran before it in the shuffled order.  A fork
    rather than a fresh interpreter keeps the imported program and the
    seeded inputs, as the program's own process pool does.
    """
    def job_with_rss():
        record = run_job(job, workers, refs, work_dir)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        record["peak_rss_mb"] = (own + kids) / 1024.0
        return record

    record = forked(job_with_rss)
    if record is None:
        return {"job": job.label, "wall_s": 0.0, "cpu_self_s": 0.0, "cpu_children_s": 0.0,
                "attempted": 1, "failed": 1, "peak_rss_mb": 0.0,
                "details": [f"{job.label}: job process failed"]}
    return record


def run_pass(jobs, workers, refs, work_dir, tr=None) -> list:
    """Run the job list once in this process, one job after another; one record per job."""
    records = []
    for i, job in enumerate(jobs):
        span = tr.begin_job(i) if tr is not None else None
        try:
            records.append(run_job(job, workers, refs, work_dir))
        finally:
            if tr is not None:
                tr.end_job(span)
    return records


def pass_wall(records) -> float:
    return sum(r["wall_s"] for r in records)


def host_gauge() -> float:
    """Seconds for a fixed pure-Python task: how fast the host runs right now.

    It hashes, stores and sorts small int tuples, as the enumerator does, and
    calls no program code, so only the host moves it.  It runs in a forked
    child, so its memory does not raise the peak RSS later jobs inherit, and
    with the collector off, so the size of the heap it inherits does not
    change its time.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        seen, x = set(), 12345
        for i in range(40000):
            x = (x * 1103515245 + 12345) % 2147483648
            seen.add((x % 1000, (x >> 10) % 1000, i % 97))
        sorted(a * b - c for a, b, c in seen)
        return perf_counter() - t0
    finally:
        gc.enable()


def timed_run(seconds, jobs, workers, refs, work_dir):
    """Repeat the job list until --seconds is used up.

    The host gauge runs before every job and the set-up probes between
    passes, so both sample the host across the whole run.
    """
    passes, probes, gauges = [], [], []
    t0 = perf_counter()
    while True:
        records = []
        for job in jobs:
            gauge = forked(host_gauge)
            if gauge is None:
                raise RuntimeError("host gauge process failed")
            gauges.append(gauge)
            records.append(run_job_forked(job, workers, refs, work_dir))
        passes.append(records)
        probes += measure_setup(PROBES_PER_PASS)
        walls = [pass_wall(p) for p in passes]
        if perf_counter() - t0 + statistics.median(walls) > seconds:
            break
    probes += measure_setup(max(0, SETUP_PROBES - len(probes)))
    fastest = {}
    for p in passes:
        for r in p:
            fastest[r["job"]] = min(fastest.get(r["job"], r["wall_s"]), r["wall_s"])
    speed = REFERENCE_GAUGE_S / min(gauges)
    metrics = {
        "wall_s": (sum(fastest.values()) * speed, "s"),
        "setup_s": (statistics.median(probes) * speed, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for p in passes for r in p), "MB"),
    }
    extra = {"host_speed": speed, "host_gauges_s": gauges,
             "wall_s_on_this_host": sum(fastest.values()),
             "setup_s_on_this_host": statistics.median(probes),
             "pass_walls_s": walls, "pass_wall_median_s": statistics.median(walls),
             "fastest_job_s": fastest, "setup_probes_s": probes}
    return passes, metrics, extra


def traced_run(jobs, workers, refs, work_dir, tracer_mod):
    timed = run_pass(jobs, workers, refs, work_dir)
    baseline = timed if workers == 1 else run_pass(jobs, 1, refs, work_dir)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        traced = run_pass(jobs, 1, refs, work_dir, tr)
    finally:
        tr.uninstall()
    frame = tracer_mod.SpanFrame(tr)
    overhead = pass_wall(traced) - pass_wall(baseline)
    metrics = tracer_mod.per_layer_metrics(frame, timed, workers, overhead)
    labels = {i: j.label for i, j in enumerate(jobs)}
    extra = {
        "unavailable": sorted(tr.missing),
        "unparsed": sorted(tr.unparsed),
        "spans_recorded": len(frame.dur),
        "layers": frame.by_name(),
        "per_job": {labels[j]: v for j, v in frame.per_job().items()},
        "per_split": frame.per_split(),
        "coarse_spans": frame.spans(tracer_mod.COARSE),
        "untraced_wall_s": pass_wall(baseline),
        "traced_wall_s": pass_wall(traced),
    }
    passes = [timed] if baseline is timed else [timed, baseline]
    return passes + [traced], metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polycensus" / "cli.py").is_file():
        print(f"error: polycensus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    refs = workloads.load_references()
    workload = workloads.WORKLOADS[args.workload]
    workers = workload.workers
    jobs = workloads.plan(workload, args.seed, refs)
    work_dir = RESULTS / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        passes, metrics, extra = traced_run(jobs, workers, refs, work_dir, tracer)
    else:
        passes, metrics, extra = timed_run(args.seconds, jobs, workers, refs, work_dir)
    attempted = sum(r["attempted"] for p in passes for r in p)
    failed = sum(r["failed"] for p in passes for r in p)
    fail_frac = failed / attempted

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": provenance(args, jobs, workers), **result, "fail_frac": fail_frac,
              "passes": passes, **extra}
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for p in passes:
        for r in p:
            for line in r["details"]:
                print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "unavailable" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit}")
    if "host_speed" in extra:
        print(f"on this host, at {extra['host_speed']:.4g} x the reference speed: "
              f"wall_s = {extra['wall_s_on_this_host']:.6g} s, "
              f"setup_s = {extra['setup_s_on_this_host']:.6g} s, "
              f"median pass = {extra['pass_wall_median_s']:.6g} s "
              f"over {len(extra['pass_walls_s'])} passes")
    print(f"fail_frac = {fail_frac:.6g} ratio ({failed} of {attempted} operations)")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
