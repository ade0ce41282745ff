"""Command-line surface: counting sweeps, decompositions, measure checks, fits.

Polynomials are written as ascending comma-separated integers, so
"5,2,3,2,1" is x^4 + 2x^3 + 3x^2 + 2x + 5.  Count output is CSV (default)
or JSON lines with the schema
    d,monic,variant,m,n,H,count,method,workers,elapsed_seconds
where m,n are empty for the total variant and counts are exact integers.
Identical invocations produce byte-identical bodies; wall-clock timings stay
out of the body unless --timings is passed (the run manifest carries them,
one per body row).

Exit codes: 0 success, 2 malformed input or refused budget, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from contextlib import contextmanager, nullcontext, suppress
from datetime import datetime, timezone
from functools import lru_cache
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .asymptotics import fit_growth, predicted_growth, spf
from .census import (
    VARIANTS,
    BudgetError,
    CountQuery,
    CountResult,
    check_budget,
    count_bruteforce,
    count_forward,
)
from .decompose import DecompositionError, decompose_split, full_decomposition
from .mahler import RootConvergenceError, roots, sandwich_bounds
from .poly_core import degree, format_poly, height, parse_poly

CSV_HEADER = "d,monic,variant,m,n,H,count,method,workers,elapsed_seconds"
FIT_COLUMNS = ("d", "monic", "variant", "m", "n", "H", "count")


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _split_fields(q: CountQuery) -> Tuple[str, str]:
    if q.variant == "split":
        return str(q.split[0]), str(q.split[1])
    if q.variant == "indecomp_pair":
        ell = spf(q.d)
        if ell < q.d:  # a prime degree has no split (d/l, l)
            return str(q.d // ell), str(ell)
    return "", ""


def _result_row(r: CountResult, timings: bool) -> dict:
    m, n = _split_fields(r.query)
    return {
        "d": r.query.d,
        "monic": "true" if r.query.monic else "false",
        "variant": r.query.variant,
        "m": m,
        "n": n,
        "H": r.query.H,
        "count": str(r.count),
        "method": r.method,
        "workers": r.workers,
        "elapsed_seconds": f"{r.elapsed_seconds:.3f}" if timings else "",
    }


def _emit(row: dict, fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(str(row[k]) for k in CSV_HEADER.split(",")) + "\n")
    else:
        out.write(json.dumps(row) + "\n")


def _parse_split(text: str, prefix: str) -> Tuple[int, int]:
    """(m, n) from text = prefix + "m,n"."""
    try:
        m, n = map(int, text[len(prefix) :].split(","))
    except ValueError:
        raise ValueError(f"malformed split {text!r}; expected {prefix}m,n") from None
    return m, n


def _parse_variant(text: str) -> Tuple[str, Optional[Tuple[int, int]]]:
    if text == "total":
        return "total", None
    if text == "indecomp-pair":
        return "indecomp_pair", None
    if text.startswith("split:"):
        return "split", _parse_split(text, "split:")
    raise ValueError(f"unknown variant {text!r}")


def _parse_grid(args) -> List[int]:
    if args.grid is None:
        if args.height_max is None:
            raise ValueError("need --height-max or --grid")
        return [args.height_max]
    if args.grid.startswith("geometric:"):
        if args.height_max is None:
            raise ValueError("--grid geometric:k needs --height-max")
        try:
            k = int(args.grid.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"malformed grid {args.grid!r}") from None
        if k < 1:
            raise ValueError("geometric grid needs at least one point")
        H = args.height_max
        if H < 2:
            raise ValueError("degree and height must both be >= 2")
        # every point past i = H.bit_length() is 2, which that i already gives;
        # H/2^i rounds half to even in exact arithmetic, as a float would below 2^53
        return sorted(
            {max(2, round(Fraction(H, 2**i))) for i in range(min(k, H.bit_length() + 1))}
        )
    try:
        pts = [int(p) for p in args.grid.split(",")]
    except ValueError:
        raise ValueError(f"malformed grid {args.grid!r}") from None
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("grid must be strictly ascending")
    return pts


def _check_writable(path: str) -> None:
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")


@contextmanager
def _staged(path: str):
    """Open path for writing.  A regular file is written as a temporary sibling
    that replaces it only once the block completes, so a refused or failed run
    leaves an earlier file whole; a device or a pipe is written directly."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
        return
    # through a symlink, replace the file it names and keep the link
    real = os.path.realpath(path) if os.path.islink(path) else path
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, real)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _cmd_count(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.budget is not None and args.budget < 1:
        raise ValueError("--budget must be at least 1")
    started = _utcnow()
    variant, split = _parse_variant(args.variant)
    grid = _parse_grid(args)
    manifest_path = args.manifest or (args.output + ".manifest.json" if args.output else None)
    for path in (args.output, manifest_path):
        if path:
            _check_writable(path)
    if args.output and args.manifest:  # the default manifest path is never the output
        if os.path.realpath(args.output) == os.path.realpath(args.manifest):
            raise ValueError(f"--output and --manifest both name {args.output}")
    queries = [CountQuery(args.degree, H, args.monic, variant, split) for H in grid]
    methods = ("forward", "oracle") if args.method == "both" else (args.method,)
    for q in queries:  # refuse before the first byte of output
        for method in methods:
            check_budget(q, method, args.budget)
    elapsed = []
    with _staged(args.output) if args.output else nullcontext(sys.stdout) as out:
        for q in queries:
            results = [
                count_forward(q, workers=args.jobs, budget=args.budget)
                if method == "forward"
                else count_bruteforce(q, budget=args.budget)
                for method in methods
            ]
            if len(results) == 2 and results[0].count != results[1].count:
                raise RuntimeError(
                    f"method disagreement at d={q.d}, H={q.H}: "
                    f"forward={results[0].count} oracle={results[1].count}"
                )
            if args.out == "csv" and not elapsed:  # a walk refused before it leaves no header
                out.write(CSV_HEADER + "\n")
            for r in results:
                _emit(_result_row(r, args.timings), args.out, out)
                elapsed.append(r.elapsed_seconds)
            out.flush()
    if manifest_path:
        manifest = {
            "command": args.raw_argv,
            "started_utc": started,
            "finished_utc": _utcnow(),
            "workers": args.jobs,
            "budget": args.budget,
            "configuration": {
                "degree": args.degree,
                "monic": args.monic,
                "variant": args.variant,
                "grid": grid,
                "method": args.method,
                "format": args.out,
                "timings": args.timings,
            },
            "elapsed_seconds": elapsed,  # one per body row, in body order
            "versions": {"polycensus": __version__, "python": platform.python_version()},
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_decompose(args) -> int:
    f = parse_poly(args.poly)
    if degree(f) < 2:
        raise ValueError("decomposition needs degree >= 2")
    if args.split:
        w = decompose_split(f, *_parse_split(args.split, ""))
        if w is None:
            print("indecomposable")
        else:
            print(f"g = {format_poly(w.g)} ; h = {format_poly(w.h)}")
        return 0
    chain = full_decomposition(f)
    if len(chain) == 1:
        print("indecomposable")
    elif len(chain) == 2:
        print(f"g = {format_poly(chain[0])} ; h = {format_poly(chain[1])}")
    else:
        print(" ; ".join(f"f{i + 1} = {format_poly(p)}" for i, p in enumerate(chain)))
    return 0


def _cmd_mahler(args) -> int:
    f = parse_poly(args.poly)
    if degree(f) < 1:
        raise ValueError("measure needs degree >= 1")
    res = roots(f, full_decomposition(f) if degree(f) >= 2 else None)
    for r in sorted(res.roots, key=lambda z: (z.real, z.imag)):
        print(f"root: {r.real:+.15e} {r.imag:+.15e}j")
    lo, hi = sandwich_bounds(f)
    print(f"H(f) = {height(f)}")
    print(f"M(f) = {res.measure:.15e}")
    print(f"residual_bound = {res.residual_bound:.3e}")
    print(f"slack lower (M - H*2^-d)      = {res.measure - lo:+.6e}")
    print(f"slack upper (H*sqrt(d+1) - M) = {hi - res.measure:+.6e}")
    return 0


def _cmd_fit(args) -> int:
    import csv as csvmod

    try:
        fh = sys.stdin if args.csv == "-" else open(args.csv)
    except OSError as exc:
        raise ValueError(f"cannot read {args.csv}: {exc.strerror}") from None
    try:
        reader = csvmod.DictReader(fh)
        missing = [c for c in FIT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"CSV input lacks the column(s) {','.join(missing)}")
        groups: dict = {}
        for row in reader:
            try:
                variant, m, n = row["variant"], row["m"], row["n"]
                if variant not in VARIANTS:
                    raise ValueError(variant)
                split = (int(m), int(n)) if variant == "split" else None
                key = (int(row["d"]), row["monic"] == "true", variant, m, n, split)
                groups.setdefault(key, []).append((int(row["H"]), int(row["count"])))
            except (TypeError, ValueError):
                raise ValueError(f"malformed CSV row on line {reader.line_num}") from None
    finally:
        if args.csv != "-":
            fh.close()
    if not groups:
        raise ValueError("no data rows in CSV input")
    for (d, monic, variant, m, n, split), pts in sorted(groups.items()):
        pts.sort()
        label = f"d={d} {'monic' if monic else 'non-monic'} {variant}" + (
            f" ({m},{n})" if m else ""
        )
        # indecomp_pair rows I get the total's prediction, two-sided for them
        # too: I <= D, and the block of g(x^l), l = spf(d), m = d/l, alone
        # gives I at least (2H+1)^(m-1) - D_m(H)/(2H+1) pairs per outer lead,
        # where D_m(H) = o(H^m) as almost all polynomials are indecomposable.
        # So I and D share their main term.  (Monic d = 4, whose D has a
        # log H, has I = D: m = 2 excludes nothing.)
        pvariant = "total" if variant != "split" else "split"
        pred = predicted_growth(d, monic, pvariant, split)
        try:
            fit = fit_growth(pts)
        except ValueError as exc:
            print(f"{label}: no fit ({exc}); predicted {pred.describe()}")
            continue
        model = "H^a*logH" if fit.log_model_preferred else "H^a"
        print(
            f"{label}: fitted a={fit.exponent:.4f} ({model}, const={fit.constant:.4g}, "
            f"rms={fit.rms_residual:.4f}, points={fit.points_used}) ; "
            f"predicted {pred.describe()}"
        )
    return 0


def _cmd_verify(args) -> int:
    from .verify import CRITERIA, run_criteria

    wanted = None
    if args.criteria:
        try:
            wanted = {int(c) for c in args.criteria.split(",")}
        except ValueError:
            raise ValueError(f"malformed criteria {args.criteria!r}; expected 1,4,13") from None
        unknown = wanted - {number for number, _, _ in CRITERIA}
        if unknown:
            raise ValueError(
                f"unknown criterion number(s) {','.join(map(str, sorted(unknown)))}; "
                f"known: 1..{len(CRITERIA)}"
            )
    return 0 if run_criteria(wanted) else 1


def _count_arguments(c: argparse.ArgumentParser) -> None:
    c.add_argument("--degree", type=int, required=True)
    mg = c.add_mutually_exclusive_group()
    mg.add_argument("--monic", dest="monic", action="store_true", default=True)
    mg.add_argument("--non-monic", dest="monic", action="store_false")
    c.add_argument("--height-max", type=int, default=None)
    c.add_argument("--grid", type=str, default=None, help="explicit list 'a,b,c' or geometric:k")
    c.add_argument(
        "--variant", type=str, default="total", help="total | split:m,n | indecomp-pair"
    )
    c.add_argument("--method", choices=("forward", "oracle", "both"), default="forward")
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("--out", choices=("csv", "json"), default="csv")
    c.add_argument("--output", type=str, default=None, help="write body to this file")
    c.add_argument("--manifest", type=str, default=None, help="write the run manifest here")
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--timings", action="store_true", help="fill elapsed_seconds in the body")


def _decompose_arguments(d: argparse.ArgumentParser) -> None:
    d.add_argument("poly")
    d.add_argument("--split", type=str, default=None, help="m,n")


def _mahler_arguments(m: argparse.ArgumentParser) -> None:
    m.add_argument("poly")


def _fit_arguments(f: argparse.ArgumentParser) -> None:
    f.add_argument("csv", help="CSV path or - for stdin")


def _verify_arguments(v: argparse.ArgumentParser) -> None:
    v.add_argument("--criteria", type=str, default=None, help="comma list, e.g. 1,4,13")


# command -> (its help line, the builder of its arguments, its handler)
COMMANDS = {
    "count": ("count decomposable polynomials", _count_arguments, _cmd_count),
    "decompose": ("decompose one polynomial", _decompose_arguments, _cmd_decompose),
    "mahler": ("roots, measure, inequality slacks", _mahler_arguments, _cmd_mahler),
    "fit": ("fit growth exponents from a count CSV", _fit_arguments, _cmd_fit),
    "verify": ("run the canned acceptance suites", _verify_arguments, _cmd_verify),
}


@lru_cache(maxsize=None)
def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line's parser, built once per process: the full tree, or
    with command the parser of that command alone, which is the full tree's
    subparser for it (prog "polycensus <command>") and so prints and returns
    what it does.  parse_args leaves a parser unchanged."""
    if command is not None:
        _, add_arguments, handler = COMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"polycensus {command}")
        parser.set_defaults(run=handler)
        add_arguments(parser)
        return parser
    ap = argparse.ArgumentParser(
        prog="polycensus",
        description="Exact census of decomposable integer polynomials.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, handler) in COMMANDS.items():
        parser = sub.add_parser(name, help=help_line)
        parser.set_defaults(run=handler)
        add_arguments(parser)
    return ap


def _parse_argv(argv: List[str]) -> argparse.Namespace:
    """The arguments of argv, parsed by its command's parser alone when argv
    starts with a known command and that parser leaves nothing over;
    anything else goes to the full tree, which prints its own usage when it
    refuses."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args, rest = build_parser(command).parse_known_args(argv[1:] if command else argv)
    if rest:
        args = build_parser().parse_args(argv)
    return args


def run(argv: Sequence[str]) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    import re

    argv = list(argv)
    # Let a polynomial that starts with a minus sign pass as the positional:
    # it moves behind a trailing "--", so every option still parses as one.
    if argv and argv[0] in ("decompose", "mahler") and "--" not in argv:
        for i, a in enumerate(argv[1:], 1):
            if a.startswith("-") and re.fullmatch(r"-?\d+(,-?\d+)*", a):
                argv = argv[:i] + argv[i + 1 :] + ["--", a]
                break
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.raw_argv = list(argv)
    try:
        return args.run(args)
    except (BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DecompositionError, RootConvergenceError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
