"""Command line interface: formats, outputs, budgets, errors, and the oracle gate."""

import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sturmlab.cli
from sturmlab import permtool, sturmian

SNAPSHOTS = Path(__file__).with_name("snapshots")
PACKAGE = Path(sturmlab.cli.__file__).parent
SNAPSHOT_SLOPES = {"phi": "phi", "e": "e", "lq": "cf:[0;2,32003,...]"}


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_word_text_output(run_cli):
    rc, out, err = run_cli(["word", "--alpha", "1/e", "--n", "21"])
    assert rc == 0
    assert out.strip() == "010010010100100100101"


def test_word_json_output(run_cli):
    rc, out, err = run_cli(["word", "--alpha", "1/e", "--n", "8", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["alpha"] == "1/e"
    assert doc["n"] == 8
    assert doc["word"] == "01001001"
    assert "budget" in doc["meta"]


def test_factors_csv(run_cli):
    rc, out, err = run_cli(["factors", "--alpha", "1/e", "--n", "6"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["index", "factor"]
    assert [r[1] for r in rows] == [
        "101001",
        "100101",
        "100100",
        "010100",
        "010010",
        "001010",
        "001001",
    ]


def test_matrix_csv(run_cli):
    rc, out, err = run_cli(["matrix", "--alpha", "1/e", "--n", "6"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == [f"c{j}" for j in range(1, 7)]
    assert rows[0] == ["1", "1", "1", "0", "0", "0"]
    assert rows[2] == ["0", "-1", "-1", "-1", "-1", "0"]


def test_perm_csv_and_json(run_cli):
    rc, out, err = run_cli(["perm", "--alpha", "phi", "--n", "5"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["n", "perm", "cycles", "sign", "order"]
    assert rows == [["5", "5 2 4 1 3", "(1 5 3 4)(2)", "-1", "4"]]

    rc, out, err = run_cli(["perm", "--alpha", "phi", "--n", "5", "--format", "json"])
    doc = json.loads(out)
    assert doc["perm"] == [5, 2, 4, 1, 3]
    assert doc["cycles"] == [[1, 5, 3, 4], [2]]
    assert doc["sign"] == -1
    assert doc["order"] == "4"


def test_table_csv_spot_rows(run_cli):
    rc, out, err = run_cli(["table", "--alpha", "e", "--from", "70", "--to", "72"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["n", "sign", "order"]
    assert rows == [["70", "-1", "14"], ["71", "-1", "14"], ["72", "1", "6840"]]


def test_table_accepts_cf_expression_for_same_value(run_cli):
    rc, out_cf, err = run_cli(["table", "--alpha", "cf:[0;1,1,...]", "--from", "5", "--to", "5"])
    assert rc == 0
    rc, out_phi, err = run_cli(["table", "--alpha", "phi", "--from", "5", "--to", "5"])
    assert rc == 0
    assert out_cf == out_phi
    rc, out, err = run_cli(["table", "--alpha", "phi", "--from", "1", "--to", "1"])
    assert list(csv.reader(io.StringIO(out)))[1] == ["1", "1", "1"]


def test_volume_csv(run_cli):
    rc, out, err = run_cli(["volume", "--alpha", "e", "--n", "6"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert rows == [["6", "1/720"]]


def test_integral_csv_and_tsv_plot_data(run_cli):
    rc, out, err = run_cli(["integral", "--to", "4"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["n", "integral", "decimal", "cells", "coverage_ok"]
    assert [r[1] for r in rows] == ["1", "3/2", "11/6", "31/12"]
    assert all(r[4] == "1" for r in rows)

    rc, out, err = run_cli(["integral", "--to", "4", "--format", "tsv"])
    assert rc == 0
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert [int(a) for a, _ in lines] == [1, 2, 3, 4]
    assert abs(float(lines[2][1]) - 11 / 6) < 1e-12


def test_signsum_csv(run_cli):
    rc, out, err = run_cli(["signsum", "--alpha", "e", "--N", "10"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["N", "sum", "max_abs"]
    assert rows == [["10", "-4", "5"]]


def test_brange_found_and_missing(run_cli):
    rc, out, err = run_cli(["brange", "--alpha", "1/e", "--target", "2", "--kmax", "100"])
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["target", "kmax", "k"]
    assert rows[0][0] == "2" and rows[0][2] != "none"

    rc, out, err = run_cli(
        ["brange", "--alpha", "phi", "--target", "999999", "--kmax", "50", "--format", "json"]
    )
    assert rc == 0
    assert json.loads(out)["k"] is None


@pytest.mark.parametrize(
    "target, kmax, k, floors", [("0", "5", 1, 1), ("7", "1", None, 0)], ids=["found", "missing"]
)
def test_brange_stopping_at_k_1_reads_one_floor(run_cli, target, kmax, k, floors):
    # B(1) = 0 needs floor(alpha) alone, so a search that stops at k = 1 has
    # read exactly one floor; B(k) <= k - 1 < kmax decides the miss with none
    rc, out, err = run_cli(
        ["brange", "--alpha", "phi", "--target", target, "--kmax", kmax, "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert (doc["k"], doc["meta"]["floors"]) == (k, floors)


@pytest.mark.parametrize(
    "alpha, target", [("e", -1), ("phi", 10**12)], ids=["below_0", "at_kmax"]
)
def test_brange_answers_targets_outside_0_to_kmax_at_once(run_cli, alpha, target):
    # B(1) = 0 and 0 <= B(k) <= k - 1, so no k <= kmax has B(k) < 0 or
    # B(k) >= kmax; a search that read floors would raise under budget 10
    rc, out, err = run_cli(
        ["brange", "--alpha", alpha, "--target", str(target), "--kmax", str(10**12),
         "--budget", "10", "--format", "json"]
    )
    assert rc == 0, err
    doc = json.loads(out)
    assert (doc["k"], doc["meta"]["floors"]) == (None, 0)


def test_brange_to_10_30_walks_blocks(run_cli):
    # B(k) = 23 first at k = 508 423 122 (checked once along the full stream);
    # the blocks reach it without streaming past k = 16*24
    rc, out, err = run_cli(
        ["brange", "--alpha", "1/e", "--target", "23", "--kmax", str(10**30), "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["k"] == 508_423_122
    assert doc["meta"]["floors"] < 1000


@pytest.mark.parametrize("target, k", [(10**12 + 1, 2 * 10**12 + 2), (10**12 + 7, None)])
def test_brange_to_3e12_reads_two_floors(run_cli, target, k):
    # cf:[0;2,q,...] with q = 10^12: the floor line to kmax has q_m = 2q + 1
    # and q_{m-1} = 2; at q = 1000 the stream gives k = 2002 and no hit
    rc, out, err = run_cli(
        ["brange", "--alpha", "cf:[0;2,1000000000000,...]", "--target", str(target),
         "--kmax", str(3 * 10**12), "--format", "json"]
    )
    assert rc == 0, err
    doc = json.loads(out)
    assert (doc["k"], doc["meta"]["floors"]) == (k, 2)


def streamed_brange_output(alpha, target, k_max):
    """What brange printed when it streamed every k: its CSV row or its error line."""
    try:
        for k, b in sturmlab.b_stream(alpha):
            if b == target or k >= k_max:
                break
    except sturmlab.RefinementBudgetExceeded as exc:
        return "", f"error[RefinementBudgetExceeded]: {exc}\n"
    return f"target,kmax,k\n{target},{k_max},{k if b == target else 'none'}\n", ""


@pytest.mark.parametrize(
    "target", ["15", "25", "23"], ids=["walked_block", "raising_block", "past_the_horizon"]
)
def test_brange_under_a_budget_answers_as_the_stream(run_cli, target):
    # with budget 10 the floors of 1/e end at k = 23224, below kmax: B(k) = 15
    # first at k = 1930, in a walked block; B(k) = 25 at k = 22154, in a block
    # whose floor line raises; B(k) = 23 not before the horizon
    rc, out, err = run_cli(
        ["brange", "--alpha", "1/e", "--target", target, "--kmax", "1000000", "--budget", "10"]
    )
    want = streamed_brange_output(sturmlab.EulerEInv(budget=10), int(target), 1000000)
    assert (out, err) == want
    assert rc == (1 if err else 0)


def test_congruence_csv(run_cli):
    rc, out, err = run_cli(
        ["congruence", "--a", "phi", "--b", "(3-1*sqrt(5))/2", "--n", "9"]
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["n", "congruent", "factors_equal", "factors_complement"]
    assert rows == [["9", "1", "0", "1"]]


def test_json_writer_matches_json_dump_across_batches():
    obj = {"perm": tuple(range(3000)), "cycles": [(1, 2), (3,)], "meta": {"budget": 7}}
    out = io.StringIO()
    sturmlab.cli._write_json(obj, out)
    assert out.getvalue() == json.dumps(obj, indent=2) + "\n"


def test_json_writer_writes_bounded_pieces():
    batch = sturmlab.cli._JSON_BATCH
    n = 20 * batch
    obj = {"perm": tuple(range(n)), "cycles": [(k,) for k in range(n)], "flags": [True] * n}
    writes = []
    out = io.StringIO()
    out.write = writes.append
    sturmlab.cli._write_json(obj, out)
    assert "".join(writes) == json.dumps(obj, indent=2) + "\n"
    assert max(w.count("\n") for w in writes) <= 2 * batch


@pytest.mark.parametrize(
    "obj", [{1: "x"}, {"k": {(1, 2): 3}}, [Fraction(1, 2)], {"s": {1, 2}}, [b"bytes"]]
)
def test_json_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        sturmlab.cli._write_json(obj, io.StringIO())


def test_readme_example_json_is_real_output(run_cli, monkeypatch):
    monkeypatch.delenv("SturmLAB_BUDGET", raising=False)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example JSON:\n\n```sh\n$ sturmlab ", 1)[1].split("```", 1)[0]
    command, shown = block.split("\n", 1)
    rc, out, err = run_cli(command.split())
    assert rc == 0
    assert out == shown


@pytest.mark.parametrize(
    "a, b", [("phi", "(3-1*sqrt(5))/2"), ("e", "phi")], ids=["complement", "unrelated"]
)
def test_congruence_builds_no_factor_set(run_cli, monkeypatch, a, b):
    # congruence reads only the two orderings: no factor set, no word letter
    calls = []
    for name in ("factor_set", "word_letter"):
        real = getattr(sturmian, name)
        monkeypatch.setattr(
            sturmian, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    rc, out, err = run_cli(["congruence", "--a", a, "--b", b, "--n", "9"])
    assert rc == 0, err
    assert calls == []


@pytest.mark.parametrize(
    "a, b, n, row",
    [
        ("cf:[0;2,5000,...]", "cf:[1;2,5000,...]", "3", "3,1,1,0"),
        ("cf:[0;3000,1,...]", "cf:[1;3000,1,...]", "5", "5,1,1,0"),
        ("cf:[0;2,5000,...]", "cf:[0;3000,1,...]", "40", "40,0,0,0"),
    ],
    ids=["near_half", "near_zero", "unrelated"],
)
def test_congruence_on_large_quotient_slopes(run_cli, a, b, n, row):
    # the window scan stopped at its cap on these slopes before finding every
    # factor; the orderings need no scan
    rc, out, err = run_cli(["congruence", "--a", a, "--b", b, "--n", n])
    assert rc == 0, err
    assert out == f"n,congruent,factors_equal,factors_complement\n{row}\n"


@pytest.mark.parametrize("slope", sorted(SNAPSHOT_SLOPES))
@pytest.mark.parametrize(
    "argv, snapshot",
    [
        (["perm", "--n", "200"], "perm_{}_200.csv"),
        (["perm", "--n", "200", "--format", "json"], "perm_{}_200.json"),
        (["table", "--from", "2", "--to", "60"], "table_{}_2_60.csv"),
        (["signsum", "--N", "5000"], "signsum_{}_5000.csv"),
        (["signsum", "--N", "5000", "--format", "json"], "signsum_{}_5000.json"),
        (["brange", "--target", "2500", "--kmax", "5000"], "brange_{}_5000.csv"),
        (["brange", "--target", "2500", "--kmax", "5000", "--format", "json"], "brange_{}_5000.json"),
        (["word", "--n", "500"], "word_{}_500.txt"),
        (["volume", "--n", "200"], "volume_{}_200.csv"),
        (["volume", "--n", "200", "--format", "json"], "volume_{}_200.json"),
        (["matrix", "--n", "60"], "matrix_{}_60.csv"),
        (["table", "--from", "2", "--to", "60", "--format", "json"], "table_{}_2_60.json"),
        (["matrix", "--n", "60", "--format", "json"], "matrix_{}_60.json"),
        (["word", "--n", "500", "--format", "json"], "word_{}_500.json"),
        (["perm", "--n", "200", "--format", "tsv"], "perm_{}_200.tsv"),
        (["table", "--from", "2", "--to", "60", "--format", "tsv"], "table_{}_2_60.tsv"),
        (["matrix", "--n", "60", "--format", "tsv"], "matrix_{}_60.tsv"),
        (["volume", "--n", "200", "--format", "tsv"], "volume_{}_200.tsv"),
        (["signsum", "--N", "5000", "--format", "tsv"], "signsum_{}_5000.tsv"),
        (["brange", "--target", "2500", "--kmax", "5000", "--format", "tsv"], "brange_{}_5000.tsv"),
    ],
)
def test_output_matches_snapshot(run_cli, slope, argv, snapshot):
    # each snapshot was written by the route its command used before a faster
    # one replaced it: perm and table by the comparison sort, signsum, brange
    # and word by per-index floor_multiple calls (so meta.floors counts the
    # same floors), volume by unpivoted Bareiss elimination and matrix by
    # per-route row assembly; the table, matrix and word JSON and every TSV
    # snapshot pin each command's own rendering; every byte must stay the same
    rc, out, err = run_cli(argv[:1] + ["--alpha", SNAPSHOT_SLOPES[slope]] + argv[1:])
    assert rc == 0, err
    assert out.encode() == (SNAPSHOTS / snapshot.format(slope)).read_bytes()


@pytest.mark.parametrize("slope", sorted(SNAPSHOT_SLOPES))
@pytest.mark.parametrize(
    "argv, snapshot",
    [
        (["factors", "--n", "40"], "factors_{}_40.csv"),
        (["factors", "--n", "40", "--format", "json"], "factors_{}_40.json"),
        (["congruence", "--n", "40"], "congruence_{}_40.csv"),
        (["congruence", "--n", "40", "--format", "json"], "congruence_{}_40.json"),
        (["factors", "--n", "40", "--format", "tsv"], "factors_{}_40.tsv"),
        (["congruence", "--n", "40", "--format", "tsv"], "congruence_{}_40.tsv"),
    ],
)
def test_factor_set_commands_match_snapshot(run_cli, slope, argv, snapshot):
    # written by the window scan of the characteristic word, before any
    # other factor-set route existed; the congruence partner is 1 - phi
    x = SNAPSHOT_SLOPES[slope]
    given = ["--alpha", x] if argv[0] == "factors" else ["--a", x, "--b", "(3-1*sqrt(5))/2"]
    rc, out, err = run_cli(argv[:1] + given + argv[1:])
    assert rc == 0, err
    assert out.encode() == (SNAPSHOTS / snapshot.format(slope)).read_bytes()


def test_volume_past_the_int_string_limit(run_cli):
    # 2000! has 5736 digits, more than the default sys.int_max_str_digits
    rc, csv_out, err = run_cli(["volume", "--alpha", "phi", "--n", "2000"])
    assert rc == 0, err
    rc, json_out, err = run_cli(["volume", "--alpha", "phi", "--n", "2000", "--format", "json"])
    assert rc == 0, err
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"1/{math.factorial(2000)}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert csv_out == f"n,volume\n2000,{want}\n"
    assert json.loads(json_out)["volume"] == want


@pytest.mark.parametrize("command", [["table", "--alpha", "e"], ["integral"]])
@pytest.mark.parametrize("start, end", [("0", "3"), ("5", "4")])
def test_bad_range_is_an_invalid_argument(run_cli, command, start, end):
    rc, out, err = run_cli([*command, "--from", start, "--to", end])
    assert (rc, out) == (1, "")
    assert err == f"error[InvalidArgument]: bad range {start}..{end}\n"


# a valid argv of every data command; --n, --N and --kmax are its sizes
DATA_ARGV = {
    "word": ["--alpha", "phi", "--n", "5"],
    "factors": ["--alpha", "phi", "--n", "5"],
    "matrix": ["--alpha", "phi", "--n", "5"],
    "perm": ["--alpha", "phi", "--n", "5"],
    "table": ["--alpha", "e", "--from", "2", "--to", "5"],
    "volume": ["--alpha", "phi", "--n", "5"],
    "integral": ["--to", "3"],
    "signsum": ["--alpha", "phi", "--N", "5"],
    "brange": ["--alpha", "phi", "--target", "0", "--kmax", "5"],
    "congruence": ["--a", "phi", "--b", "e", "--n", "5"],
}


def below_one_cases():
    for command, argv in DATA_ARGV.items():
        for option in [o for o in ("--n", "--N", "--kmax") if o in argv]:
            for value in ("0", "-1"):
                yield pytest.param(command, option, value, f"{option[2:]} must be >= 1",
                                   id=f"{command} {option} {value}")
        for option in ("--budget", "SturmLAB_BUDGET"):
            yield pytest.param(command, option, "0", "refinement budget must be >= 1",
                               id=f"{command} {option} 0")


@pytest.mark.parametrize("command, option, value, message", list(below_one_cases()))
def test_data_commands_reject_sizes_and_budgets_below_one(
    run_cli, monkeypatch, tmp_path, command, option, value, message
):
    # one check in the CLI, before the command runs: integral, which builds
    # no slope, rejects a budget too, and --out leaves no file behind
    argv = [command, *DATA_ARGV[command]]
    if option in argv:
        argv[argv.index(option) + 1] = value
    elif option.startswith("--"):
        argv += [option, value]
    else:
        monkeypatch.setenv(option, value)
    want = f"error[InvalidArgument]: {message}\n"
    assert run_cli(argv) == (1, "", want)
    assert run_cli([*argv, "--out", str(tmp_path / "out.txt")]) == (1, "", want)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "fmt, to",
    [
        pytest.param("csv", 30, id="csv"),
        pytest.param("json", 30, id="json"),
        pytest.param("csv", 60, id="csv-60"),
        pytest.param("json", 60, id="json-60"),
        pytest.param("tsv", 30, id="tsv"),  # two columns: n and the decimal
    ],
)
def test_integral_matches_snapshot(run_cli, fmt, to):
    # integral_1_30 was written by the per-cell Fraction sum that the
    # denominator buckets replaced, integral_1_60 by the per-cell sort at each
    # cell's mediant that the Sos kernel over denominator pairs replaced
    rc, out, err = run_cli(["integral", "--to", str(to), "--format", fmt])
    assert rc == 0, err
    assert out.encode() == (SNAPSHOTS / f"integral_1_{to}.{fmt}").read_bytes()


def test_out_writes_file(run_cli, tmp_path):
    target = tmp_path / "perm.csv"
    rc, out, err = run_cli(["perm", "--alpha", "phi", "--n", "5", "--out", str(target)])
    assert rc == 0
    assert out == ""
    assert "5 2 4 1 3" in target.read_text()


def test_out_into_missing_directory_reports_error(run_cli, tmp_path):
    target = tmp_path / "missing" / "perm.csv"
    rc, out, err = run_cli(["perm", "--alpha", "phi", "--n", "5", "--out", str(target)])
    assert rc == 1
    assert err.startswith("error[FileNotFoundError]")
    assert len(err.strip().splitlines()) == 1
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["integral", "--from", "45", "--to", "50"], ""),
        (["integral", "--from", "45", "--to", "50"], "1"),
        (["perm", "--alpha", "e", "--n", "20000"], ""),
    ],
    ids=["at_flush", "unbuffered", "while_writing"],
)
def test_closed_stdout_ends_the_run_quietly(argv, unbuffered):
    # a reader that stops early, as in `| head -2`: a buffered short output
    # fails only when stdout is flushed, an unbuffered or long one while the
    # rows are written
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sturmlab.cli", *argv],
            cwd=PACKAGE.parent, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_failing_out_write_reports_error(run_cli):
    rc, out, err = run_cli(["perm", "--alpha", "e", "--n", "2000", "--out", "/dev/full"])
    assert rc == 1
    assert err.startswith("error[OSError]")
    assert len(err.strip().splitlines()) == 1


def test_failed_command_leaves_no_out_file(run_cli, tmp_path):
    target = tmp_path / "table.csv"
    argv = ["table", "--alpha", "e", "--from", "130", "--to", "136", "--budget", "2"]
    rc, out, err = run_cli([*argv, "--out", str(target)])
    assert rc == 1
    assert err.startswith("error[RefinementBudgetExceeded]")
    assert list(tmp_path.iterdir()) == []

    # a failure also keeps an earlier good output intact
    target.write_text("kept\n")
    rc, out, err = run_cli([*argv, "--out", str(target)])
    assert rc == 1
    assert target.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [target]


def test_bad_slope_reports_error(run_cli):
    rc, out, err = run_cli(["perm", "--alpha", "2/3", "--n", "5"])
    assert rc == 1
    assert err.startswith("error[SlopeSyntaxError]")
    assert "2/3" in err


def test_budget_flag_and_env(run_cli, monkeypatch):
    rc, out, err = run_cli(["table", "--alpha", "e", "--from", "130", "--to", "136", "--budget", "2"])
    assert rc == 1
    assert err.startswith("error[RefinementBudgetExceeded]")

    monkeypatch.setenv("SturmLAB_BUDGET", "2")
    rc, out, err = run_cli(["table", "--alpha", "e", "--from", "130", "--to", "136"])
    assert rc == 1
    assert err.startswith("error[RefinementBudgetExceeded]")

    # explicit flag wins over the environment
    rc, out, err = run_cli(
        ["table", "--alpha", "e", "--from", "130", "--to", "136", "--budget", "10000"]
    )
    assert rc == 0


@pytest.mark.parametrize("budget", ["0", "-2"])
def test_budget_below_one_is_an_invalid_argument(run_cli, monkeypatch, budget):
    # a budget is not a slope, so it is no InvalidSlope, from the flag or the env
    want = (1, "", "error[InvalidArgument]: refinement budget must be >= 1\n")
    argv = ["perm", "--alpha", "phi", "--n", "5"]
    assert run_cli([*argv, "--budget", budget]) == want
    monkeypatch.setenv("SturmLAB_BUDGET", budget)
    assert run_cli(argv) == want
    assert run_cli(["word", "--alpha", "e", "--n", "5"]) == want


def test_budget_env_that_is_not_an_integer(run_cli, monkeypatch):
    monkeypatch.setenv("SturmLAB_BUDGET", "x")
    rc, out, err = run_cli(["table", "--alpha", "e", "--from", "2", "--to", "5"])
    assert (rc, out) == (1, "")
    assert err == "error[SturmlabError]: SturmLAB_BUDGET='x' is not an integer\n"


def test_bad_format_rejected(run_cli):
    with pytest.raises(SystemExit):
        sturmlab.cli.main(["perm", "--alpha", "phi", "--n", "5", "--format", "xml"])


OUTPUT = ["--format", "tsv", "--out", "o.tsv", "--budget", "50"]
OUTPUT_ARGS = {"format": "tsv", "out": "o.tsv", "budget": 50}
SIZED = ["--alpha", "phi", "--n", "5"]


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["word", *SIZED, *OUTPUT], OUTPUT_ARGS),
        (["factors", *SIZED, *OUTPUT], OUTPUT_ARGS),
        (["matrix", *SIZED, *OUTPUT], OUTPUT_ARGS),
        (["perm", *SIZED, *OUTPUT], OUTPUT_ARGS),
        (["table", "--alpha", "e", "--from", "2", "--to", "9", *OUTPUT], OUTPUT_ARGS),
        (["volume", *SIZED, *OUTPUT], OUTPUT_ARGS),
        (["integral", "--to", "3", *OUTPUT], {**OUTPUT_ARGS, "start": 1, "end": 3}),
        (["signsum", "--alpha", "e", "--N", "9", *OUTPUT], OUTPUT_ARGS),
        (["brange", "--alpha", "e", "--target", "2", "--kmax", "9", *OUTPUT], OUTPUT_ARGS),
        (["congruence", "--a", "phi", "--b", "e", "--n", "5", *OUTPUT], OUTPUT_ARGS),
        (["selftest", "--seed", "4", "--out", "o.txt"], {"seed": 4, "out": "o.txt"}),
        (["selftest"], {"seed": 0, "out": None}),
        (["perm", *SIZED, "--seed", "1"], None),
        (["selftest", "--format", "json"], None),
        (["selftest", "--budget", "3"], None),
        (["table", "--alpha", "e", "--to", "9"], None),
    ],
)
def test_option_table(capsys, argv, parsed):
    # parsed None: argparse rejects argv and exits with code 2 before any command runs
    if parsed is None:
        with pytest.raises(SystemExit) as exc:
            sturmlab.cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    else:
        args = vars(sturmlab.cli.build_parser().parse_args(argv))
        assert {key: args[key] for key in parsed} == parsed



# help and usage-error text of the parser that built every subcommand on each
# call, captured at 80 columns under the Python version it names
USAGE_GOLDEN = json.loads(Path(__file__).with_name("cli_usage_golden.json").read_text())


def exit_code_and_output(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != USAGE_GOLDEN["python"],
    reason="argparse words its help and errors differently in other Python versions",
)
@pytest.mark.parametrize("case", USAGE_GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "[]")
def test_help_and_usage_errors_match_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    got = exit_code_and_output(capsys, lambda: sturmlab.cli.main(list(case["argv"])))
    assert got == (case["code"], case["out"], case["err"])


@pytest.mark.parametrize("case", USAGE_GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "[]")
def test_help_and_usage_errors_match_the_whole_tree(capsys, monkeypatch, case):
    # the same check under any Python version: main, which may build one
    # subparser, prints what the parser of every command prints
    monkeypatch.setenv("COLUMNS", "80")
    argv = list(case["argv"])
    whole = exit_code_and_output(capsys, lambda: sturmlab.cli.build_parser().parse_args(argv))
    assert exit_code_and_output(capsys, lambda: sturmlab.cli.main(argv)) == whole


@pytest.mark.parametrize(
    "argv, built",
    [
        (["perm", "--alpha", "phi", "--n", "5"], []),
        (["perm", "--alpha", "phi"], []),
        (["nope"], list(sturmlab.cli.COMMANDS)),
        ([], list(sturmlab.cli.COMMANDS)),
        (["-h"], list(sturmlab.cli.COMMANDS)),
        (["perm", "-h"], []),
        (["integral", "--to", "3", "--from=2"], []),
        (["perm", "--alpha", "phi", "--n", "5", "--seed", "1"], list(sturmlab.cli.COMMANDS)),
        (["perm", "--alpha", "phi", "--n", "5", "extra"], list(sturmlab.cli.COMMANDS)),
    ],
)
def test_a_known_command_builds_only_its_subparser(capsys, monkeypatch, argv, built):
    # a known command is parsed by its own parser, which adds no subparser;
    # help, an unknown name and leftover arguments build the whole tree
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    monkeypatch.setattr(sturmlab.cli, "_run", lambda args, out: 0)
    exit_code_and_output(capsys, lambda: sturmlab.cli.main(argv))
    assert names == built


def test_main_runs_the_cmd_function_bound_when_it_runs(run_cli, monkeypatch):
    def cmd_perm(args):
        return ["n"], [[args.n]], {"n": args.n}

    monkeypatch.setattr(sturmlab.cli, "cmd_perm", cmd_perm)
    assert run_cli(["perm", "--alpha", "phi", "--n", "7"]) == (0, "n\n7\n", "")

def test_perm_json_builds_no_row_strings(run_cli, monkeypatch):
    def refuse(self):
        raise AssertionError("perm --format json built the CSV cycle string")

    monkeypatch.setattr(permtool.FracPermutation, "cycle_string", refuse)
    rc, out, err = run_cli(["perm", "--alpha", "phi", "--n", "5", "--format", "json"])
    assert rc == 0, err
    assert json.loads(out)["cycles"] == [[1, 5, 3, 4], [2]]


def test_selftest_passes(run_cli):
    rc, out, err = run_cli(["selftest", "--seed", "1"])
    assert rc == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_selftest_counts_every_check(run_cli):
    rc, out, err = run_cli(["selftest"])
    lines = out.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    assert lines[-1] == f"OK: {passed}/{passed} checks passed"


SELFTEST_CHECKS = [
    "word-prefix-1/e", "factors-1/e-6", "matrix-1/e-6", "matrix-1/e-6-geometric",
    "descent-52314", "descent-135426", "aux-52314", "matrix-52314",
    "adjacent-transposition-matrix", "perm-phi-5", "perm-phi-5-order", "perm-phi-5-sign",
    "perm-phi-5-direct-sort", "matrix-phi-5", "worked-product", "table-e-spots",
    "signsum-e-10", "signsum-reduction-vs-stream", "bstream-1/e-200", "brange-walk-vs-stream",
    "brange-progressions-vs-stream", "integral-1", "integral-2", "integral-cells-6",
    "integral-sweep-1..8", "volume-1/e-6", "volume-runs", "det-sign-1/e-120",
    "reconstruct-roundtrip", "conjugation-s4",
]


def test_selftest_runs_every_check_in_order(run_cli):
    rc, out, err = run_cli(["selftest", "--seed", "1"])
    assert out.splitlines() == [f"PASS {name}" for name in SELFTEST_CHECKS] + ["OK: 30/30 checks passed"]


@pytest.mark.parametrize(
    "reference, value, line",
    [
        pytest.param(
            "WORD_PREFIX_INV_E", [0] * 21,
            "FAIL word-prefix-1/e (got [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1], "
            "want [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])",
            id="word-prefix-1/e",
        ),
        # a case loop stops at its first mismatch and names it
        pytest.param(
            "TABLE_E_SPOTS", {8: (1, 7), 37: (1, 36), 70: (1, 14)},
            "FAIL table-e-spots (n=37: got (1, 37), want (1, 36))",
            id="table-e-spots",
        ),
    ],
)
def test_selftest_reports_a_failed_check(run_cli, monkeypatch, reference, value, line):
    from sturmlab import selftest

    monkeypatch.setattr(selftest, reference, value)
    rc, out, err = run_cli(["selftest", "--seed", "1"])
    lines = out.splitlines()
    assert rc == 1
    assert [x for x in lines if not x.startswith("PASS ")] == [line, "FAILED: 29/30 checks passed"]
    assert len(lines) == 31


def imports_oracles(path):
    """Whether an import anywhere in the module at path names an oracles module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""  # None for "from . import x"
            names += [module] + [f"{module}.{a.name}" for a in node.names]
    return any("oracles" in name.split(".") for name in names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_selftest_imports_the_oracles(path):
    # the CLI imports the selftest only to run that command
    assert imports_oracles(path) == (path.name == "selftest.py")


def private(name):
    return name.startswith("_") and not name.endswith("__")


def private_crossings(path):
    """module.name of each underscore name the module at path takes from
    another sturmlab module: imported by name, or read off an imported module."""
    tree = ast.parse(path.read_text())
    modules, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import x
                modules.update(a.asname or a.name for a in node.names)
            else:
                out.update(f"{node.module}.{a.name}" for a in node.names if private(a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules and private(node.attr):
            out.add(f"{node.value.id}.{node.attr}")
    return out


# the private names that still cross a module boundary; entries only go
PRIVATE_CROSSINGS = {
    "farey.py": {"permtool._deletion_sweep", "permtool._sos_line", "permtool._sign_run"},
    "selftest.py": {"permtool._sign_order", "permtool._sos_line", "matrep._runs"},
}


def slope_private_names():
    """The underscore attributes (self._x) and methods of the slope classes."""
    names = set()
    for cls in ast.walk(ast.parse((PACKAGE / "irrational.py").read_text())):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
                    names.add(node.attr)
    return set(filter(private, names))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_private_names_stay_in_their_module(path):
    # no module reads a slope's internals but irrational, and the only
    # private names taken across modules are those listed
    slope_private = slope_private_names()
    assert {"_m", "_convs", "_quotient_iter"} <= slope_private
    assert private_crossings(path) == PRIVATE_CROSSINGS.get(path.name, set())
    if path.name != "irrational.py":
        read = {node.attr for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
        assert read.isdisjoint(slope_private)


def test_importing_the_cli_loads_no_oracle():
    # nor dataclasses, counted only when the bare interpreter has not loaded it
    code = (
        "import sys; bare = set(sys.modules); import sturmlab.cli; "
        "sys.exit(' '.join(sorted(({'sturmlab.oracles', 'dataclasses'} - bare) & sys.modules.keys())) or None)"
    )
    run = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True, text=True)
    assert run.returncode == 0, f"importing the CLI loaded {run.stderr}"


def test_sturmlab_exports_no_oracle():
    # the oracles are the tests' reference routes, not library API
    from sturmlab import oracles
    own = {name for name, obj in vars(oracles).items() if getattr(obj, "__module__", None) == oracles.__name__}
    assert {"pi_direct", "mechanical_factors"} <= own
    assert sorted(own & vars(sturmlab).keys()) == []
