import io
import json
import os
from contextlib import redirect_stdout, redirect_stderr

import pytest

from polycensus import cli
from polycensus.cli import CSV_HEADER, run


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_decompose_family_example():
    code, out, _ = capture(["decompose", "5,2,3,2,1"])
    assert code == 0
    assert out == "g = 5,2,1 ; h = 0,1,1\n"


def test_decompose_indecomposable():
    code, out, _ = capture(["decompose", "1,1,0,0,1"])
    assert code == 0 and out == "indecomposable\n"


def test_decompose_chain():
    code, out, _ = capture(["decompose", "0,0,0,0,0,0,0,0,1"])
    assert code == 0
    assert out == "f1 = 0,0,1 ; f2 = 0,0,1 ; f3 = 0,0,1\n"


def test_decompose_with_split():
    code, out, _ = capture(["decompose", "5,2,3,2,1", "--split", "2,2"])
    assert code == 0 and out.startswith("g = 5,2,1")
    code, out, _ = capture(["decompose", "0,1,0,0,1", "--split", "2,2"])
    assert code == 0 and out == "indecomposable\n"


def test_decompose_negative_lead_coefficient():
    code, out, _ = capture(["decompose", "-1,0,2,0,-1"])
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "-1,0,2,0,1", "--split", "2,2"],
        ["decompose", "--split", "2,2", "-1,0,2,0,1"],
        ["decompose", "-1,0,2,0,1", "--split=2,2"],
    ],
    ids=repr,
)
def test_an_option_may_follow_a_negative_polynomial(argv):
    # the polynomial goes behind a trailing "--", after every option
    assert capture(argv) == (0, "g = -1,2,1 ; h = 0,0,1\n", "")


def test_an_unknown_option_after_a_negative_polynomial_prints_the_usage():
    code, out, err = capture(["decompose", "-1,0,2", "--zzz"])
    assert code == 2 and out == "" and err.startswith("usage: polycensus [-h] {count,")


def test_count_prime_degree_row():
    code, out, _ = capture(
        ["count", "--degree", "5", "--monic", "--height-max", "100", "--variant", "total"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "5,true,total,,,100,0,forward,1,"
    # a prime degree has no split (d/l, l) to name, so m and n stay empty as for total
    argv = ["count", "--degree", "5", "--height-max", "3", "--variant", "indecomp-pair"]
    code, out, _ = capture(argv)
    assert code == 0
    assert out.strip().splitlines()[1] == "5,true,indecomp_pair,,,3,0,forward,1,"


def test_count_both_methods_agree():
    code, out, _ = capture(
        ["count", "--degree", "4", "--monic", "--height-max", "2", "--method", "both"]
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].split(",")[6] == rows[1].split(",")[6] == "65"
    assert {r.split(",")[7] for r in rows} == {"forward", "oracle"}


def test_count_split_and_ipair_columns():
    code, out, _ = capture(
        ["count", "--degree", "6", "--monic", "--height-max", "3", "--variant", "split:3,2"]
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert (row[3], row[4]) == ("3", "2")
    code, out, _ = capture(
        ["count", "--degree", "6", "--monic", "--height-max", "3", "--variant", "indecomp-pair"]
    )
    row = out.strip().splitlines()[1].split(",")
    assert (row[2], row[3], row[4]) == ("indecomp_pair", "3", "2")


def test_count_json_rows():
    code, out, _ = capture(
        ["count", "--degree", "4", "--monic", "--grid", "2,3", "--out", "json"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["count"] == "65"
    assert rows[0]["elapsed_seconds"] == ""
    assert [r["H"] for r in rows] == [2, 3]


def test_count_geometric_grid():
    code, out, _ = capture(
        ["count", "--degree", "4", "--monic", "--height-max", "16", "--grid", "geometric:3"]
    )
    assert code == 0
    hs = [int(line.split(",")[5]) for line in out.strip().splitlines()[1:]]
    assert hs == [4, 8, 16]


def test_geometric_grid_stops_at_two():
    # every point past i = (16).bit_length() is 2, so a huge k adds no row
    argv = ["count", "--degree", "4", "--monic", "--height-max", "16", "--grid"]
    assert capture(argv + ["geometric:1000000000"]) == capture(argv + ["geometric:5"])


def test_geometric_grid_rounds_exactly():
    # past 2^53 a float quotient loses the low bits; the grid halves H exactly,
    # ties to even (2^52 + 1/2 rounds down); d = 5 is prime, so every count is 0
    H = 2**53 + 1
    argv = ["count", "--degree", "5", "--height-max", str(H), "--grid"]
    for k, hs in (("1", [H]), ("2", [2**52, H])):
        code, out, _ = capture(argv + ["geometric:" + k])
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert code == 0 and [int(r[5]) for r in rows] == hs
        assert {r[6] for r in rows} == {"0"}


def test_count_byte_identical_bodies():
    argv = ["count", "--degree", "4", "--monic", "--grid", "5,25,50"]
    _, body1, _ = capture(argv)
    _, body2, _ = capture(argv)
    assert body1 == body2


def test_count_timings_flag():
    code, out, _ = capture(
        ["count", "--degree", "4", "--monic", "--height-max", "2", "--timings"]
    )
    field = out.strip().splitlines()[1].split(",")[9]
    assert field != "" and float(field) >= 0


def test_count_output_file_and_manifest(tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = capture(
        ["count", "--degree", "4", "--monic", "--height-max", "3", "--output", str(target),
         "--method", "both"]
    )
    assert code == 0 and out == ""
    body = target.read_text().strip().splitlines()
    assert body[0] == CSV_HEADER and body[1].split(",")[6] == "133"
    manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
    # the body's elapsed_seconds stay empty without --timings; the manifest has one per row
    times = manifest["elapsed_seconds"]
    assert len(times) == 2 and all(isinstance(t, float) and t >= 0 for t in times)
    assert manifest["workers"] == 1
    assert set(manifest) == {
        "command", "started_utc", "finished_utc", "workers", "budget",
        "configuration", "elapsed_seconds", "versions",
    }
    assert set(manifest["configuration"]) == {
        "degree", "monic", "variant", "grid", "method", "format", "timings",
    }
    assert manifest["configuration"]["degree"] == 4
    assert "polycensus" in manifest["versions"]


def test_exit_codes(tmp_path):
    code, _, err = capture(["decompose", "not-a-poly"])
    assert code == 2 and "malformed" in err
    code, _, err = capture(["count", "--degree", "4", "--height-max", "50", "--method", "oracle"])
    assert code == 2 and "budget" in err
    code, _, err = capture(["count", "--degree", "4", "--variant", "split:2,3", "--height-max", "5"])
    assert code == 2
    code, _, err = capture(["count", "--degree", "4", "--variant", "bogus", "--height-max", "5"])
    assert code == 2
    code, _, _ = capture(["count", "--degree", "4"])
    assert code == 2  # no height/grid
    code, _, err = capture(["count", "--degree", "600", "--height-max", "2"])
    assert code == 2 and err.startswith("error:") and "budget" in err
    # refused from the degree alone, before the box size or the outer power is built
    for argv in (
        ["count", "--degree", "6200", "--height-max", "2", "--method", "oracle"],
        ["count", "--degree", "20000000", "--height-max", "2", "--method", "oracle"],
        ["count", "--degree", "4000002", "--height-max", "2"],
        ["count", "--degree", "20000001", "--height-max", "2"],
        ["count", "--degree", "4", "--grid", "2,50", "--method", "both"],
        # few outer polynomials, but an inner search of 3^1999, 3^199 or 3^19
        # candidates; the last is decided on the power, not the bit length
        ["count", "--degree", "4000", "--height-max", "2", "--variant", "split:2,2000"],
        ["count", "--degree", "400", "--height-max", "2", "--variant", "split:2,200"],
        ["count", "--degree", "40", "--height-max", "2", "--variant", "split:2,20"],
    ):
        code, out, err = capture(argv)
        assert code == 2 and err.startswith("error:") and "budget" in err
        assert out == ""  # no CSV header before the refusal
        assert len(err.strip().splitlines()) == 1
    code, out, err = capture(["verify", "--criteria", "99"])
    assert code == 2 and out == "" and err.startswith("error:") and "unknown criterion" in err
    assert len(err.strip().splitlines()) == 1
    # a coefficient beyond float range cannot enter the root finder
    code, out, err = capture(["mahler", "1" + "0" * 320 + ",1"])
    assert code == 2 and out == "" and err.startswith("error:") and "float" in err
    assert len(err.strip().splitlines()) == 1
    code, _, err = capture(["count", "--degree", "4", "--grid", "4,2"])
    assert code == 2 and err.startswith("error:") and "ascending" in err
    for height_max in ("1", "-5"):  # a geometric grid must not raise these to H = 2
        code, out, err = capture(
            ["count", "--degree", "4", "--height-max", height_max, "--grid", "geometric:3"]
        )
        assert code == 2 and out == "" and err.startswith("error:") and "height" in err
        assert len(err.strip().splitlines()) == 1
    for jobs in ("0", "-3"):
        code, _, err = capture(["count", "--degree", "4", "--height-max", "2", "--jobs", jobs])
        assert code == 2 and err.startswith("error:") and "--jobs" in err
        assert len(err.strip().splitlines()) == 1
    for argv, why in (
        (["decompose", "5,2,3,2,1", "--split", "a,b"], "malformed split"),
        (["decompose", "5,2,3,2,1", "--split", "2,2,2"], "malformed split"),
        (["count", "--degree", "4", "--height-max", "5", "--variant", "split:a,b"],
         "malformed split"),
        (["count", "--degree", "4", "--height-max", "5", "--grid", "geometric:x"],
         "malformed grid"),
        (["count", "--degree", "4", "--height-max", "5", "--budget", "-5"], "--budget"),
        (["count", "--degree", "4", "--height-max", "5", "--budget", "0"], "--budget"),
        (["verify", "--criteria", "a"], "malformed criteria"),
        (["verify", "--criteria", "1,,2"], "malformed criteria"),
    ):
        code, out, err = capture(argv)
        assert code == 2 and out == "" and err.startswith("error:") and why in err
        assert "invalid literal" not in err and "raise --budget" not in err
        assert len(err.strip().splitlines()) == 1
    for flag in ("--output", "--manifest"):
        target = tmp_path / "missing_dir" / "x.csv"
        code, out, err = capture(["count", "--degree", "4", "--height-max", "2", flag, str(target)])
        assert code == 2 and out == "" and err.startswith("error:") and "no directory" in err
        assert len(err.strip().splitlines()) == 1
    no_columns = tmp_path / "no_columns.csv"
    no_columns.write_text("d,monic,H\n4,true,5\n")
    short_row = tmp_path / "short_row.csv"
    short_row.write_text(CSV_HEADER + "\n4,true\n")
    for path, why in (
        (tmp_path / "missing.csv", "No such file"),
        (tmp_path, "Is a directory"),
        (no_columns, "variant,m,n,count"),
        (short_row, "line 2"),
    ):
        code, _, err = capture(["fit", str(path)])
        assert code == 2 and err.startswith("error:") and why in err
        assert len(err.strip().splitlines()) == 1


def test_mahler_command():
    code, out, _ = capture(["mahler", "-4,0,1"])
    assert code == 0
    assert "M(f) = 4.0" in out
    assert "root: -2.0" in out and "root: +2.0" in out
    assert "slack lower" in out and "slack upper" in out


def test_mahler_command_solves_down_the_decomposition():
    # x^12 (x+8)^4 - 1 = (y^2 - 1) o y^2 o (x^4 + 8x^3); solved whole, the
    # cluster of four roots near -8 reads 4096.282
    code, out, _ = capture(["mahler", "-1," + "0," * 11 + "4096,2048,384,32,1"])
    assert code == 0
    line = next(s for s in out.splitlines() if s.startswith("M(f) = "))
    assert abs(float(line[len("M(f) = "):]) - 4096) <= 1e-9 * 4096
    assert sum(s.startswith("root: ") for s in out.splitlines()) == 16


def test_fit_command(tmp_path):
    csv_path = tmp_path / "counts.csv"
    _, body, _ = capture(["count", "--degree", "4", "--monic", "--grid", "125,250,500,1000"])
    csv_path.write_text(body)
    code, out, _ = capture(["fit", str(csv_path)])
    assert code == 0
    assert "predicted ~ H^2 * log H" in out
    assert "fitted a=" in out


def test_fit_command_on_indecomp_pair_rows(tmp_path):
    # indecomp-pair rows get the total's two-sided prediction; at d = 8 the
    # outer degree m = 4 is composite, so some pairs are excluded
    csv_path = tmp_path / "ipair.csv"
    grid = ["count", "--degree", "8", "--monic", "--grid", "3,6,12,24"]
    _, body, _ = capture(grid + ["--variant", "indecomp-pair"])
    csv_path.write_text(body)
    code, out, _ = capture(["fit", str(csv_path)])
    assert code == 0
    label, rest = out.strip().split(": fitted a=")
    assert label == "d=8 monic indecomp_pair (4,2)"
    assert rest.endswith("; predicted ~ H^4")
    assert 3.8 < float(rest.split()[0]) < 4.1
    _, total, _ = capture(grid)
    (tmp_path / "total.csv").write_text(total)
    assert capture(["fit", str(tmp_path / "total.csv")])[1].endswith("; predicted ~ H^4\n")


@pytest.mark.parametrize(
    "bad",
    [
        "8,true,bogus,4,2,3,10,forward,1,",  # no such variant
        "8,true,split,x,2,3,10,forward,1,",  # m is no integer
        "8,true,split,4,,3,10,forward,1,",  # n is empty
    ],
)
def test_fit_refuses_a_malformed_variant_row(tmp_path, bad):
    # a good row on line 2, the bad one on line 3
    path = tmp_path / "rows.csv"
    path.write_text(f"{CSV_HEADER}\n8,true,split,4,2,2,5,forward,1,\n{bad}\n")
    assert capture(["fit", str(path)]) == (2, "", "error: malformed CSV row on line 3\n")


def test_verify_subset():
    code, out, _ = capture(["verify", "--criteria", "4"])
    assert code == 0
    assert out.startswith("PASS  c04")


def test_verify_has_no_jobs_option():
    # the criteria run in-process; c12 picks its own worker counts
    code, out, err = capture(["verify", "--criteria", "4", "--jobs", "2"])
    assert code == 2 and out == "" and "--jobs" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_walk_refusal_names_the_budget_given(jobs):
    # passes the up-front checks; the (4,2) walk exceeds the budget
    argv = ["count", "--degree", "8", "--height-max", "40", "--budget", "600000", "--jobs", jobs]
    code, out, err = capture(argv)
    assert code == 2 and err.startswith("error:") and out == ""
    assert "budget of 600000 witness pairs" in err


def test_walk_refusal_keeps_the_rows_already_finished():
    # H=2 is counted and written; the walk at H=40 is refused
    argv = ["count", "--degree", "8", "--grid", "2,40", "--budget", "600000"]
    code, out, err = capture(argv)
    assert code == 2 and "budget of 600000 witness pairs" in err
    assert out.splitlines() == [CSV_HEADER, "8,true,total,,,2,895,forward,1,"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_walk_refusal_keeps_an_earlier_output_file(tmp_path, jobs):
    target = tmp_path / "r.csv"
    target.write_bytes(b"rows of an earlier run\n")
    argv = ["count", "--degree", "8", "--height-max", "40", "--budget", "600000",
            "--jobs", jobs, "--output", str(target)]
    code, out, err = capture(argv)
    assert code == 2 and out == "" and "budget of 600000 witness pairs" in err
    assert target.read_bytes() == b"rows of an earlier run\n"
    assert os.listdir(tmp_path) == ["r.csv"]  # no temporary file, no manifest


def test_output_and_manifest_must_differ(tmp_path):
    target = tmp_path / "r.csv"
    argv = ["count", "--degree", "4", "--height-max", "3", "--output", str(target),
            "--manifest", os.path.join(str(tmp_path), ".", "r.csv")]
    code, out, err = capture(argv)
    assert code == 2 and out == "" and err.startswith("error:") and "--manifest" in err
    assert len(err.strip().splitlines()) == 1
    assert os.listdir(tmp_path) == []


def test_verify_failing_criterion_exits_1(monkeypatch):
    from polycensus import verify

    def crash():
        raise RuntimeError("boom")

    criteria = list(verify.CRITERIA)
    criteria[3] = (4, "always fails", lambda: (False, "x"))
    criteria[12] = (13, "always raises", crash)
    monkeypatch.setattr(verify, "CRITERIA", criteria)
    code, out, _ = capture(["verify", "--criteria", "4"])
    assert code == 1 and out.startswith("FAIL  c04  always fails: x [")
    code, out, _ = capture(["verify", "--criteria", "13"])
    assert code == 1
    assert out.startswith("FAIL  c13  always raises: exception: RuntimeError('boom') [")


def test_repeated_runs_share_one_parser():
    # run builds its parser once per process, and every later call must
    # print and return what a call with a freshly built parser does
    argvs = [
        ["count", "--degree", "4", "--height-max", "3"],
        ["decompose", "5,2,3,2,1"],
        ["count", "--degree", "4", "--height-max"],  # a flag without its value
        ["--help"],
    ]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(capture(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert fresh[0][1].startswith(CSV_HEADER) and "usage: polycensus" in fresh[3][1]
    parser = cli.build_parser()
    for _ in range(2):
        for argv, want in zip(argvs, fresh):
            assert capture(argv) == want
    assert cli.build_parser() is parser


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["bogus"],
        *([command, "-h"] for command in cli.COMMANDS),
        ["count", "--height-max", "3"],
        ["count", "--degree", "x", "--height-max", "3"],
        ["count", "--degree", "4", "--height-max", "3", "--monic", "--non-monic"],
        ["count", "--degree", "4", "--height-max", "3", "--zzz"],
        ["count", "--deg", "4", "--height-max", "3"],
        ["mahler", "-4,0,1"],
        ["decompose", "-1,0,2,0,-1"],
    ],
    ids=repr,
)
def test_command_parser_matches_the_full_tree(monkeypatch, argv):
    # run parses a known command with that command's parser alone; stdout,
    # stderr and the exit code must be those of the full tree
    got = capture(argv)
    monkeypatch.setattr(cli, "_parse_argv", lambda argv: cli.build_parser().parse_args(argv))
    assert got == capture(argv)


def test_a_command_builds_only_its_parser():
    cli.build_parser.cache_clear()
    assert capture(["decompose", "5,2,3,2,1"])[0] == 0
    assert cli.build_parser.cache_info().currsize == 1
    # arguments left over go to the full tree, which prints its own usage
    code, out, err = capture(["decompose", "5,2,3,2,1", "--zzz"])
    assert code == 2 and out == "" and err.startswith("usage: polycensus [-h] {count,")
    assert cli.build_parser.cache_info().currsize == 2
