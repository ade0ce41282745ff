"""Outside-in tracer: wraps program functions at the module bindings they are
called through, records one span per call, and derives per-layer metrics.

Nothing in the program is edited.  `Tracer.install()` replaces each binding
listed in TARGETS with a wrapper and `Tracer.uninstall()` puts the original
back.  A span is (name, start, end, parent, job, tag) and lives in flat
arrays until the run ends; self time is a span's duration minus the time its
child spans cover.  Wrapper bookkeeping between a child's end and the
parent's end is charged to the parent, which is why the traced pass is
slower than the untraced one (reported as trace.overhead_s).
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

from polycensus import census

# (module, attribute the program calls through, span name).  A function
# imported into several modules is wrapped at each binding under one name.
TARGETS = (
    ("poly_core", "mul", "poly_core.mul"),
    ("census", "mul", "poly_core.mul"),
    ("mahler", "mul", "poly_core.mul"),
    ("census", "poly_pow", "poly_core.poly_pow"),
    ("decompose", "poly_pow", "poly_core.poly_pow"),
    ("decompose", "compose", "poly_core.compose"),
    ("mahler", "compose", "poly_core.compose"),
    ("census", "decompose_split", "decompose.decompose_split"),
    ("decompose", "decompose_split", "decompose.decompose_split"),
    ("census", "is_decomposable", "decompose.is_decomposable"),
    ("census", "_h_candidates", "census.h_candidates"),
    ("census", "_run_chunk", "census.run_chunk"),
    ("census", "_run_split", "census.run_split"),
    ("cli", "count_forward", "census.count_forward"),
    ("cli", "count_bruteforce", "census.bruteforce"),
    ("mahler", "_aberth", "mahler.aberth"),
    ("mahler", "roots", "mahler.roots"),
    ("mahler", "check_inequalities", "mahler.check_inequalities"),
    ("asymptotics", "fit_growth", "asymptotics.fit_growth"),
    ("cli", "run", "cli.run"),
)

JOB = "bench.job"
# Spans kept one by one in the trace file; the rest are aggregated.
COARSE = {
    JOB,
    "cli.run",
    "census.count_forward",
    "census.bruteforce",
    "census.run_split",
    "census.h_candidates",
    "census.run_chunk",
}
EXCEPTION_TAG = -1


# Observers read a call's arguments and result.  A tag is one small int per
# span; attrs is a dict kept only for the few coarse spans that need one.
def _tag_split(args, out):
    unit = 2 if abs(args[0][-1]) == 1 else 0
    return unit | (out is not None)


def _tag_truth(args, out):
    return 1 if out else 0


def _tag_degree(args, out):
    return len(args[0]) - 1


def _tag_len(args, out):
    return len(out)


def _attrs_chunk(args, out):
    pairs, flagged, keys, hits, recheck_set = out
    return {"pairs": pairs, "flagged": flagged, "recheck_set": recheck_set is not None}


def _attrs_split(args, out):
    d, H, monic, split, workers, collect, member = args[:7]
    pairs, flagged, keys, hits = out
    return {
        "d": d,
        "H": H,
        "monic": monic,
        "split": list(split),
        "workers": workers,
        "collect": bool(collect),
        "member": member is not None,
        "pairs": pairs,
        "flagged": flagged,
        "keys": len(keys) if keys is not None else 0,
        "hits": hits,
    }


def _attrs_query(args, out):
    q = args[0]
    return {
        "d": q.d,
        "H": q.H,
        "monic": q.monic,
        "variant": q.variant,
        "split": list(q.split) if q.split else None,
        "count": out.count,
    }


TAGGERS = {
    "decompose.decompose_split": _tag_split,
    "decompose.is_decomposable": _tag_truth,
    "mahler.aberth": _tag_degree,
    "census.h_candidates": _tag_len,
}
ATTRS = {
    "census.run_chunk": _attrs_chunk,
    "census.run_split": _attrs_split,
    "census.count_forward": _attrs_query,
    "census.bruteforce": _attrs_query,
}
OBSERVER_ERRORS = (TypeError, ValueError, IndexError, AttributeError, KeyError)


class Tracer:
    def __init__(self):
        self.names = [JOB] + sorted({name for _, _, name in TARGETS})
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("h")
        self.job = array("h")
        self.tag = array("q")
        self.attrs = {}
        self.stack = [-1]
        self.current_job = -1
        self.resolved = set()      # span names with at least one live binding
        self.missing = []          # "module.attribute" bindings that do not exist
        self.unparsed = set()      # span names whose observer no longer fits
        self._installed = []

    # -- wrapping ----------------------------------------------------------

    def resolve(self):
        """(module object, attribute, span name) for every live binding."""
        live = []
        for mod_name, attr, span in TARGETS:
            try:
                mod = importlib.import_module(f"polycensus.{mod_name}")
            except ImportError:
                mod = None
            if mod is None or not callable(getattr(mod, attr, None)):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            live.append((mod, attr, span))
        return live

    def install(self):
        for mod, attr, span in self.resolve():
            original = getattr(mod, attr)
            setattr(mod, attr, self._wrap(original, span))
            self.resolved.add(span)
            self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, fn, span):
        nid = self.name_id[span]
        tagger = TAGGERS.get(span)
        attrs_of = ATTRS.get(span)
        start, end, tag, stack = self.start, self.end, self.tag, self.stack
        start_add, end_add, tag_add = start.append, end.append, tag.append
        parent_add, name_add, job_add = self.parent.append, self.name.append, self.job.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start_add(0.0)
            end_add(0.0)
            parent_add(stack[-1])
            name_add(nid)
            job_add(self.current_job)
            tag_add(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
                tag[idx] = EXCEPTION_TAG
                raise
            end[idx] = perf_counter()
            start[idx] = t0
            stack.pop()
            try:
                if tagger is not None:
                    tag[idx] = tagger(args, out)
                if attrs_of is not None:
                    self.attrs[idx] = attrs_of(args, out)
            except OBSERVER_ERRORS:
                self.unparsed.add(span)
            return out

        return wrapper

    # -- job spans ---------------------------------------------------------

    def begin_job(self, job_id: int) -> int:
        self.current_job = job_id
        idx = len(self.start)
        for arr, value in ((self.start, perf_counter()), (self.end, 0.0), (self.parent, -1),
                           (self.name, 0), (self.job, job_id), (self.tag, 0)):
            arr.append(value)
        self.stack.append(idx)
        return idx

    def end_job(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.current_job = -1


class SpanFrame:
    """The finished spans as numpy arrays, with self time derived."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.names = tr.names
        self.start = np.frombuffer(tr.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tr.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int64).copy()
        self.name = np.frombuffer(tr.name, dtype=np.int16).astype(np.int64)
        self.job = np.frombuffer(tr.job, dtype=np.int16).astype(np.int64)
        self.tag = np.frombuffer(tr.tag, dtype=np.int64).copy()
        self.dur = self.end - self.start
        n = len(self.dur)
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - covered

    def available(self, span: str, parsed: bool = False) -> bool:
        ok = span in self.tr.resolved
        return ok and not (parsed and span in self.tr.unparsed)

    def mask(self, span: str) -> np.ndarray:
        return self.name == self.tr.name_id[span]

    def indices(self, span: str):
        return np.flatnonzero(self.mask(span)).tolist()

    def spans(self, names) -> list:
        """Every span whose name is in `names`, as JSON-ready records."""
        ids = [self.tr.name_id[n] for n in names]
        out = []
        for i in np.flatnonzero(np.isin(self.name, ids)).tolist():
            out.append({
                "id": i,
                "name": self.names[self.name[i]],
                "parent": int(self.parent[i]),
                "job": int(self.job[i]),
                "start": float(self.start[i]),
                "end": float(self.end[i]),
                "self_s": float(self.self_time[i]),
                "attrs": self.tr.attrs.get(i),
            })
        return out

    def by_name(self, sel=None) -> dict:
        """{span name: {"calls", "self_s", "total_s"}} over the selected spans."""
        sel = np.ones(len(self.dur), dtype=bool) if sel is None else sel
        k = len(self.names)
        calls = np.bincount(self.name[sel], minlength=k)
        self_s = np.bincount(self.name[sel], weights=self.self_time[sel], minlength=k)
        total = np.bincount(self.name[sel], weights=self.dur[sel], minlength=k)
        return {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                            "total_s": float(total[i])}
            for i in range(k) if calls[i]
        }

    def per_job(self) -> dict:
        return {int(j): self.by_name(self.job == j) for j in np.unique(self.job).tolist()}

    def per_split(self) -> list:
        """Each census.run_split span with the self time of everything under it."""
        out = []
        for i in self.indices("census.run_split"):
            inside = ((self.job == self.job[i]) & (self.start >= self.start[i])
                      & (self.end <= self.end[i]))
            out.append({"span": i, "job": int(self.job[i]), "attrs": self.tr.attrs.get(i),
                        "wall_s": float(self.dur[i]), "layers": self.by_name(inside)})
        return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

ABERTH_BUCKETS = (("deg1_4", 1, 4), ("deg5_8", 5, 8), ("deg9_12", 9, 12))


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _frac(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer_metrics(fr: SpanFrame, timed: list, workers: int, overhead_s: float) -> dict:
    """{metric: (value, unit)}; value is None when a wrapped name no longer exists.

    Counts and ratios are 0 when the layer saw no calls.  Latency
    percentiles are inclusive span durations, so they carry the tracing
    cost of their child spans.
    """
    m = {}

    def put(name, unit, spans, value_fn, parsed=False):
        ok = all(fr.available(s, parsed) for s in spans)
        m[name] = (value_fn() if ok else None, unit)

    def calls(span):
        return int(fr.mask(span).sum())

    def self_s(span):
        return float(fr.self_time[fr.mask(span)].sum())

    def attrs(span):
        return [fr.tr.attrs.get(i) or {} for i in fr.indices(span)]

    # poly_core
    for fn in ("mul", "poly_pow", "compose"):
        span = f"poly_core.{fn}"
        put(f"{span}.calls", "count", [span], lambda s=span: calls(s))
        put(f"{span}.self_s", "s", [span], lambda s=span: self_s(s))

    # decompose: the unit-lead and Fraction paths are told apart by the input's lead
    ds = "decompose.decompose_split"
    ok_calls = fr.mask(ds) & (fr.tag >= 0)
    for label, bit in (("split_unit", 2), ("split_nonunit", 0)):
        sel = ok_calls & ((fr.tag & 2) == bit)
        us = fr.dur[sel] * 1e6
        name = f"decompose.{label}"
        put(f"{name}.calls", "count", [ds], lambda s=sel: int(s.sum()), True)
        put(f"{name}.self_s", "s", [ds], lambda s=sel: float(fr.self_time[s].sum()), True)
        put(f"{name}.hit_frac", "ratio", [ds],
            lambda s=sel: _frac((fr.tag[s] & 1).sum(), s.sum()), True)
        put(f"{name}.us_p50", "us", [ds], lambda u=us: _pct(u, 50), True)
        put(f"{name}.us_p99", "us", [ds], lambda u=us: _pct(u, 99), True)
    isd = "decompose.is_decomposable"
    put(f"{isd}.calls", "count", [isd], lambda: calls(isd))
    put(f"{isd}.self_s", "s", [isd], lambda: self_s(isd))
    put(f"{isd}.true_frac", "ratio", [isd],
        lambda: _frac((fr.tag[fr.mask(isd)] == 1).sum(), calls(isd)), True)

    # census: enumeration
    hc, rc, rs, cf, bf = ("census.h_candidates", "census.run_chunk", "census.run_split",
                          "census.count_forward", "census.bruteforce")
    candidates = lambda: int(fr.tag[fr.mask(hc) & (fr.tag >= 0)].sum())  # noqa: E731
    pairs = lambda: sum(a.get("pairs", 0) for a in attrs(rc))  # noqa: E731
    put("census.h_candidates.self_s", "s", [hc], lambda: self_s(hc))
    put("census.inner_candidates", "count", [hc], candidates, True)
    put("census.pairs", "count", [rc], pairs, True)
    put("census.pairs_per_candidate", "ratio", [hc, rc],
        lambda: _frac(pairs(), candidates()), True)
    put("census.run_chunk.self_s", "s", [rc], lambda: self_s(rc))
    put("census.count_forward.self_s", "s", [cf], lambda: self_s(cf))
    put("census.union_keys", "count", [cf, rs], lambda: _union_keys(fr), True)
    put("census.member_hits", "count", [rs], lambda: sum(a.get("hits", 0) for a in attrs(rs)),
        True)
    put("census.max_split_keys", "count", [rs],
        lambda: max([a.get("keys", 0) for a in attrs(rs)], default=0), True)
    put("census.flagged", "count", [rc], lambda: sum(a.get("flagged", 0) for a in attrs(rc)),
        True)

    # census: pool and re-check (pool numbers come from the untraced timed pass)
    put("census.run_split.self_s", "s", [rs], lambda: self_s(rs))
    put("census.recheck_frac", "ratio", [rs, rc], lambda: _recheck_frac(fr), True)
    wall = sum(r["wall_s"] for r in timed)
    kids = sum(r["cpu_children_s"] for r in timed)
    own = sum(r["cpu_self_s"] for r in timed)
    m["census.pool.children_cpu_s"] = (kids, "s")
    m["census.pool.cpu_util"] = (_frac(own + kids, wall * workers), "ratio")

    # census: oracle
    put("census.bruteforce.self_s", "s", [bf], lambda: self_s(bf))
    box_size = getattr(census, "_box_size", None)
    put("census.box_polys", "count", [bf],
        lambda: sum(box_size(a["d"], a["H"], a["monic"]) for a in attrs(bf) if a), True)
    if box_size is None:
        m["census.box_polys"] = (None, "count")

    # mahler
    ab, ro, ci = "mahler.aberth", "mahler.roots", "mahler.check_inequalities"
    ab_ok = fr.mask(ab) & (fr.tag >= 0)
    put(f"{ab}.self_s", "s", [ab], lambda: self_s(ab))
    for label, lo, hi in ABERTH_BUCKETS:
        sel = ab_ok & (fr.tag >= lo) & (fr.tag <= hi)
        put(f"{ab}.us_p50.{label}", "us", [ab], lambda s=sel: _pct(fr.dur[s] * 1e6, 50), True)
    put(f"{ab}.us_p99", "us", [ab], lambda: _pct(fr.dur[ab_ok] * 1e6, 99), True)
    put(f"{ro}.calls", "count", [ro], lambda: calls(ro))
    put(f"{ro}.self_s", "s", [ro], lambda: self_s(ro))
    put(f"{ci}.calls", "count", [ci], lambda: calls(ci))
    put(f"{ci}.self_s", "s", [ci], lambda: self_s(ci))
    put("mahler.convergence_failures", "count", [ro],
        lambda: int((fr.tag[fr.mask(ro)] == EXCEPTION_TAG).sum()))

    # asymptotics and cli
    fg = "asymptotics.fit_growth"
    put(f"{fg}.calls", "count", [fg], lambda: calls(fg))
    put(f"{fg}.self_s", "s", [fg], lambda: self_s(fg))
    put("cli.run.self_s", "s", ["cli.run"], lambda: self_s("cli.run"))
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _children(fr: SpanFrame, idx: int, span: str) -> list:
    sel = fr.mask(span) & (fr.parent == idx)
    return np.flatnonzero(sel).tolist()


def _union_keys(fr: SpanFrame) -> int:
    """Size of the cross-split union, recovered from the total count.

    count_forward returns (pairs + |union| - hits) * (2H+1), where pairs and
    hits belong to the dominant split, the one run against the union.
    """
    total = 0
    for i in fr.indices("census.count_forward"):
        q = fr.tr.attrs.get(i)
        if not q or q["variant"] != "total":
            continue
        for c in _children(fr, i, "census.run_split"):
            a = fr.tr.attrs.get(c)
            if a and a["member"]:
                total += q["count"] // (2 * q["H"] + 1) - a["pairs"] + a["hits"]
    return total


def _recheck_frac(fr: SpanFrame) -> float:
    """Share of splits where the witness-uniqueness re-check ran.

    A collecting split always compares its key set with its pair count; a
    streaming split does so only when it ran as one chunk and that chunk's
    capped key set did not overflow.
    """
    splits = fr.indices("census.run_split")
    ran = 0
    for i in splits:
        a = fr.tr.attrs.get(i) or {}
        chunks = [fr.tr.attrs.get(c) or {} for c in _children(fr, i, "census.run_chunk")]
        if a.get("collect"):
            ran += bool(chunks)
        else:
            ran += len(chunks) == 1 and chunks[0].get("recheck_set", False)
    return _frac(ran, len(splits))
