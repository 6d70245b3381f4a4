"""Property tests: production routes against their oracles on random slopes,
through the library and through the CLI's JSON, the matrix representation's
laws on random permutations, and the CLI's JSON writer against json.dumps and
its CSV rows against csv.writer on random payloads.  The public result records are checked as immutable values, and
each public argument check raises its documented error.  Random argv is
parsed by main as by the whole parser tree, and invalid argv ends in one
usage or error report."""

import argparse
import copy
import csv
import io
import json
import math
import pickle
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import islice, permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sturmlab as sl
import sturmlab.cli
from sturmlab.cli import _JSON_BATCH, COMMANDS, _emit_rows, _write_json, build_parser, main
from sturmlab.matrep import mat_mul
from sturmlab.oracles import (
    b_alpha, det_exact, farey_cells, first_hits, floor_affine_cf, pi_direct, streamed_sign_sum
)
from conftest import walked_cycles


@settings(max_examples=100, deadline=None, database=None)
@given(
    a0=st.integers(-3, 3),
    block=st.lists(st.integers(1, 10**5), min_size=1, max_size=4),
    n=st.integers(1, 2000),
)
def test_pi_sos_equals_pi_direct_on_periodic_cfs(a0, block, n):
    alpha = sl.ExplicitCF([a0, *block], repeat=block)
    assert sl.pi_sos(alpha, n).one_line == pi_direct(alpha, n).one_line


@settings(max_examples=100, deadline=None, database=None)
@given(
    a0=st.integers(-3, 3),
    head=st.lists(st.integers(1, 10**5), max_size=3),
    block=st.lists(st.integers(1, 10**5), min_size=1, max_size=4),
    start=st.integers(1, 10**6),
    step=st.integers(1, 5),
)
def test_floor_stream_equals_kernel_on_periodic_cfs(a0, head, block, start, step):
    stream, kernel = (sl.ExplicitCF([a0, *head, *block], repeat=block) for _ in range(2))
    got = list(islice(stream.floors(start, step), 300))
    assert got == [kernel.floor_multiple(start + i * step) for i in range(300)]


def periodic_cfs(block_max=10**5):
    """Periodic CFs with a pre-period, partial quotients up to 10^5 (block_max in the block)."""
    return st.builds(
        lambda a0, head, block: sl.ExplicitCF([a0, *head, *block], repeat=block),
        st.integers(-3, 3),
        st.lists(st.integers(1, 10**5), max_size=3),
        st.lists(st.integers(1, block_max), min_size=1, max_size=4),
    )


def surds(d=None, build=sl.QuadraticSurd):
    """build(a, b, d, c) for (a + b*sqrt(d))/c; by default d = m^2 + r gives
    partial quotients near 2m <= 10^5."""
    if d is None:
        d = st.one_of(
            st.integers(2, 10**9),
            st.builds(
                lambda m, r: m * m + r, st.integers(2, 5 * 10**4), st.sampled_from((-1, 1, 2))
            ),
        )
    nonzero = st.integers(-50, 50).filter(bool)
    d = d.filter(lambda d: math.isqrt(d) ** 2 != d)
    return st.builds(build, st.integers(-50, 50), nonzero, d, nonzero)


slopes = st.one_of(periodic_cfs(), surds())


@settings(max_examples=40, deadline=None, database=None)
@given(alpha=slopes)
def test_b_stream_equals_direct_count_and_floor_identity(alpha):
    got = [b for _, b in islice(sl.b_stream(alpha), 5000)]
    assert got[:300] == [b_alpha(alpha, k) for k in range(1, 301)]
    # B(k) = 2*sum_{j<k} floor(j*alpha) + (k-1)*(1 - floor(k*alpha)), from
    # {j*alpha} + {(k-j)*alpha} = {k*alpha} + [{j*alpha} > {k*alpha}]
    floor_sum = 0
    for k in range(1, 5001):
        fk = alpha.floor_multiple(k)
        assert got[k - 1] == 2 * floor_sum + (k - 1) * (1 - fk)
        floor_sum += fk


@settings(max_examples=30, deadline=None, database=None)
@given(alpha=slopes, picks=st.lists(st.integers(1, 2 * 10**4), min_size=1, max_size=5))
def test_b_stream_equals_position_of_k_in_pi_sos(alpha, picks):
    # B(k) counts the points below {k*alpha} among the first k, so it is the
    # 0-based position of k in the ordering of size k; no floor sum involved
    ks, m = set(picks), 0
    while (q := alpha.convergent(m).q) <= 2 * 10**4:
        ks.update(k for k in (q - 1, q, q + 1) if k >= 1)
        m += 1
    want = {k: sl.pi_sos(alpha, k).one_line.index(k) for k in ks}
    got = {k: b for k, b in islice(sl.b_stream(alpha), max(ks)) if k in ks}
    assert got == want


# small quotients in the periodic block and surds of small d, where the walk
# stays short (a pre-period may still hold a quotient up to 10^5), and large
# quotients, where the target is hit early or the walk gives up
walk_slopes = st.one_of(
    periodic_cfs(block_max=6),
    surds(st.integers(2, 1000)),
    st.sampled_from(("e", "1/e", "cf:[0;2,5000,...]", "cf:[0;3000,1,...]", "cf:[0;1,100000,...]"))
    .map(sl.parse_slope),
)


@settings(max_examples=150, deadline=None, database=None)
@given(
    alpha=walk_slopes,
    target=st.integers(0, 400),
    k_max=st.one_of(st.integers(1, 20_000), st.integers(10_000, 20_000)),
    late=st.booleans(),
)
def test_b_range_search_equals_the_streamed_first_hit(alpha, target, k_max, late):
    first = first_hits(copy.deepcopy(alpha), k_max)
    if late:  # most targets are hit below 16*(T + 1); pick one the blocks decide
        targets = [t for t in range(401) if first.get(t, k_max + 1) >= 16 * (t + 1)]
        target = targets[target % len(targets)] if targets else target
    k = sl.b_range_search(copy.deepcopy(alpha), target, k_max)
    assert k == first.get(target)
    if k is not None and k >= 16 * (target + 1):  # a hit of the walk
        assert b_alpha(alpha, k) == target


# one large quotient near the start, where a large target leaves the whole
# range to the floor-line progressions, and periodic CFs with a0 < 0 or a
# pre-period, where it mostly leaves it to the stream
large_target_slopes = st.one_of(
    periodic_cfs(),
    st.integers(1, 10**4).flatmap(
        lambda q: st.sampled_from((f"cf:[0;2,{q},...]", f"cf:[0;{q},1,...]"))
    ).map(sl.parse_slope),
    st.just("cf:[0;1,100000,...]").map(sl.parse_slope),
)


@settings(max_examples=150, deadline=None, database=None)
@given(
    alpha=large_target_slopes,
    k_max=st.integers(1, 20_000),
    pick=st.integers(0, 10**6),
    taken=st.booleans(),
)
def test_large_target_b_range_search_equals_the_streamed_first_hit(alpha, k_max, pick, taken):
    first = first_hits(copy.deepcopy(alpha), k_max)
    targets = sorted(t for t in first if 16 * t >= k_max) if taken else []
    target = targets[pick % len(targets)] if targets else k_max // 16 + pick % k_max
    assert sl.b_range_search(copy.deepcopy(alpha), target, k_max) == first.get(target)


@settings(max_examples=60, deadline=None, database=None)
@given(alpha=slopes, m=st.integers(1, 300))
def test_sign_formula_equals_sign_of_sorted_order(alpha, m):
    assert sl.sign_formula(alpha, m) == sl.sign_direct(pi_direct(alpha, m))


def denominators(alpha, limit=2 * 10**5):
    """The convergent denominators 2 <= q_m <= limit; never empty for a_m <= 10^5."""
    out, m = [], 1
    while (q := alpha.convergent(m).q) <= limit:
        if q >= 2:
            out.append(q)
        m += 1
    return out


@settings(max_examples=40, deadline=None, database=None)
@given(alpha=slopes, pick=st.integers(0, 20))
def test_sign_sum_and_sign_equal_the_streamed_ones(alpha, pick):
    # unused copies, so that stats compare from zero; each copy then keeps
    # its kernel from one size to the next
    reduced, streamed, signs, streamed_signs, probe = (copy.deepcopy(alpha) for _ in range(5))
    dens = denominators(probe)
    q = dens[pick % len(dens)]
    for upto in (1, 2, 3, q - 1, q, q + 1):
        assert sl.sign_sum(reduced, upto) == streamed_sign_sum(streamed, upto)[1:], upto
        assert reduced.stats == streamed.stats, upto
        assert sl.sign_formula(signs, upto) == streamed_sign_sum(streamed_signs, upto)[0], upto
        assert signs.stats["refine_steps"] == streamed_signs.stats["refine_steps"], upto


# slope expressions of every CLI family: e, 1/e, phi, sqrt(D); surds with a
# negative B or C, and so some negative values, with partial quotients up to
# about 10^5; periodic CFs with a0 of either sign, so slopes above 1, and
# quotients up to 10^5
cli_slopes = st.one_of(
    st.sampled_from(("e", "1/e", "phi", "sqrt(2)", "sqrt(1000001)")),
    surds(build=lambda a, b, d, c: f"({a}{b:+d}*sqrt({d}))/{c}"),
    st.builds(
        lambda a0, block: f"cf:[{a0};{','.join(map(str, block))},...]",
        st.integers(-3, 3),
        st.lists(st.integers(1, 10**5), min_size=1, max_size=4),
    ),
)


# the values of each data command's rows, from its JSON, in the order of
# its CSV columns
JSON_ROWS = {
    "word": lambda d: [[d["word"]]],
    "perm": lambda d: [[
        d["n"], " ".join(map(str, d["perm"])),
        "".join("(" + " ".join(map(str, c)) + ")" for c in d["cycles"]), d["sign"], d["order"],
    ]],
    "table": lambda d: [[r["n"], r["sign"], r["order"]] for r in d["rows"]],
    "signsum": lambda d: [[d["N"], d["sum"], d["max_abs"]]],
    "brange": lambda d: [[d["target"], d["kmax"], "none" if d["k"] is None else d["k"]]],
    "matrix": lambda d: d["rows"],
    "volume": lambda d: [[d["n"], d["volume"]]],
    "integral": lambda d: [
        [r["n"], r["integral"], repr(r["decimal"]), r["cells"], int(r["coverage_ok"])] for r in d["rows"]
    ],
    "congruence": lambda d: [
        [d["n"], int(d["congruent"]), int(d["factors_equal"]), int(d["factors_complement"])]
    ],
}


def _cli_json(argv):
    """argv's JSON document through cli.main, once its CSV and TSV rows are
    checked to carry the same values."""
    outputs = {}
    for fmt in ("json", "csv", "tsv"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([*argv, "--format", fmt])
        assert (rc, err.getvalue()) == (0, ""), (argv, fmt)
        outputs[fmt] = out.getvalue()
    doc = json.loads(outputs["json"])
    rows = [[str(x) for x in row] for row in JSON_ROWS[argv[0]](doc)]
    header = argv[0] != "word"  # a word is one field with no header
    assert list(csv.reader(io.StringIO(outputs["csv"])))[header:] == rows, argv
    if argv[0] == "integral":  # TSV is two-column plot data
        rows = [[n, decimal] for n, _, decimal, *_ in rows]
    assert [line.split("\t") for line in outputs["tsv"].splitlines()] == rows, argv
    return doc


def _sign_and_order(line):
    cycles = walked_cycles(line)
    return (-1) ** (len(line) - len(cycles)), math.lcm(*map(len, cycles)), cycles


def _congruent(fa, fb):
    """Whether some bijection of the factors keeps every squared distance."""

    def dist(x, y):
        return sum((u - v) ** 2 for u, v in zip(x, y))

    return any(
        all(dist(fa[i], fa[j]) == dist(image[i], image[j]) for i in range(len(fa)) for j in range(i))
        for image in permutations(fb)
    )


@settings(max_examples=150, deadline=None, database=None)
@given(
    text=cli_slopes,
    other=cli_slopes,
    n=st.integers(1, 300),
    small=st.integers(1, 40),
    start=st.integers(1, 40),
    width=st.integers(0, 8),
    upto=st.integers(1, 20_000),
    target=st.integers(0, 80),
    k_max=st.integers(1, 5000),
)
def test_cli_json_equals_the_oracle_routes(text, other, n, small, start, width, upto, target, k_max):
    # every data command but factors through cli.main, each against an oracle
    # route on its own copy of the slope, with its CSV and TSV rows checked
    # against its JSON; factors waits for the factor-set route that does not
    # scan windows
    doc = _cli_json(["word", "--alpha", text, "--n", str(n)])
    oracle = sl.parse_slope(text)
    floors = [floor_affine_cf(oracle, k, 0, 1) for k in range(1, n + 2)]
    letters = [b - a - floors[0] for a, b in zip(floors, floors[1:])]
    assert doc["word"] == "".join(map(str, letters))

    doc = _cli_json(["perm", "--alpha", text, "--n", str(n)])
    line = pi_direct(sl.parse_slope(text), n).one_line
    sign, order, cycles = _sign_and_order(line)
    assert doc["perm"] == list(line)
    assert doc["cycles"] == [list(c) for c in cycles]
    assert (doc["sign"], doc["order"]) == (sign, str(order))

    end = start + width
    doc = _cli_json(["table", "--alpha", text, "--from", str(start), "--to", str(end)])
    oracle = sl.parse_slope(text)
    want = []
    for size in range(start, end + 1):
        sign, order, _ = _sign_and_order(pi_direct(oracle, size).one_line)
        want.append({"n": size, "sign": sign, "order": str(order)})
    assert doc["rows"] == want

    doc = _cli_json(["signsum", "--alpha", text, "--N", str(upto)])
    assert [doc["sum"], doc["max_abs"]] == list(streamed_sign_sum(sl.parse_slope(text), upto)[1:])

    argv = ["brange", "--alpha", text, "--target", str(target), "--kmax", str(k_max)]
    assert _cli_json(argv)["k"] == first_hits(sl.parse_slope(text), k_max).get(target)

    matrix = sl.factor_matrix(pi_direct(sl.parse_slope(text), small))
    assert _cli_json(["matrix", "--alpha", text, "--n", str(small)])["rows"] == matrix.rows()
    volume = Fraction(abs(det_exact(matrix)), math.factorial(small))
    assert Fraction(_cli_json(["volume", "--alpha", text, "--n", str(small)])["volume"]) == volume

    low = start % 12 + 1
    high = min(12, low + width)
    doc = _cli_json(["integral", "--from", str(low), "--to", str(high)])
    want = []
    for size in range(low, high + 1):
        cells = farey_cells(size)
        value = sum((c.right - c.left) * sl.order(sl.perm_on_cell(c, size)) for c in cells)
        row = {"n": size, "integral": str(value), "decimal": float(value), "cells": len(cells)}
        want.append({**row, "coverage_ok": True})
    assert doc["rows"] == want

    size = small % 5 + 1
    doc = _cli_json(["congruence", "--a", text, "--b", other, "--n", str(size)])
    fa, fb = (sl.factor_set_from_perm(pi_direct(sl.parse_slope(x), size)).factors for x in (text, other))
    assert doc["factors_equal"] == (set(fa) == set(fb))
    assert doc["factors_complement"] == ({tuple(1 - x for x in f) for f in fa} == set(fb))
    assert doc["congruent"] == _congruent(fa, fb)


def _option_values(kwargs):
    """Values of one option, well-formed or not: argparse rejects a bad
    choice or int, and the command rejects a bad slope or size."""
    if "choices" in kwargs:
        return st.sampled_from((*kwargs["choices"], "xml"))
    if kwargs.get("type") is int:
        bad = st.sampled_from(("x", "1.5", ""))
        return st.tuples(st.integers(0, 4), st.integers(-3, 40), bad).map(
            lambda t: str(t[1]) if t[0] < 4 else t[2]
        )
    return st.sampled_from(("phi", "e", "-1", "o.txt", "cf:[0;1,2,...]", "", "-x"))


@st.composite
def argv_forms(draw):
    """A command's options in random order, some left out and some repeated,
    each as --opt value, --opt=value or a prefix of --opt; sometimes with
    --, -h, an unknown option or a stray positional."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[command][1]
    names = [name for name in options if draw(st.integers(0, 9)) < 9]
    names = draw(st.permutations(names + draw(st.lists(st.sampled_from(list(options)), max_size=2))))
    argv = [command]
    for name in names:
        flag = "--" + name[: draw(st.integers(1, len(name)))]
        value = draw(_option_values(options[name]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    for extra in draw(st.lists(st.sampled_from(("--", "-h", "--nope", "extra")), max_size=1)):
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


def _parsed(call):
    """(exit code, stdout, stderr, parsed arguments) of call(record), where
    record takes the parsed arguments."""
    seen = []
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(lambda args: seen.append(vars(args)) or 0)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), seen


@settings(max_examples=400, deadline=None, database=None)
@given(argv=argv_forms())
def test_main_parses_argv_as_the_whole_tree(argv):
    # main parses a known command with its own parser; the commands only
    # record what they were given
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")

        def run(record):
            mp.setattr(sturmlab.cli, "_run", lambda args, out: record(args))
            mp.setattr(sturmlab.cli, "_run_to_file", record)
            return main(list(argv))

        got = _parsed(run)
        want = _parsed(lambda record: record(build_parser().parse_args(list(argv))))
    assert got == want


# invalid values of each kind of option: slopes that do not parse or are
# rational, ints that are not ints, and sizes below 1
BAD_SLOPES = ("", "3/4", "sqrt(4)", "phi+1", "(1+sqrt(5))/2", "cf:[1;2,3]",
              "cf:[0;1 2,...]", "sqrt(1 3)", "cf:[0;1,,2,...]", "cf:[0;,1,...]")
NOT_INTS = ("x", "1.5", "", "1e3", "0x10")
SIZES = ("n", "N", "kmax", "from", "to")  # each must be at least 1
VALID_ARGV = {
    "word": {"alpha": "phi", "n": "9"},
    "factors": {"alpha": "e", "n": "5"},
    "matrix": {"alpha": "1/e", "n": "6"},
    "perm": {"alpha": "sqrt(2)", "n": "60"},
    "table": {"alpha": "e", "from": "2", "to": "20"},
    "volume": {"alpha": "phi", "n": "8"},
    "integral": {"from": "2", "to": "6"},
    "signsum": {"alpha": "cf:[0;2,5,...]", "N": "60"},
    "brange": {"alpha": "1/e", "target": "3", "kmax": "60"},
    "congruence": {"a": "phi", "b": "e", "n": "4"},
    "selftest": {"seed": "3"},
}


@st.composite
def invalid_argv(draw):
    """A valid argv with one option broken: a bad slope, a non-integer, a
    size below 1, a budget of 0, an unknown option or a required option
    left out."""
    command = draw(st.sampled_from(list(VALID_ARGV)))
    values = dict(VALID_ARGV[command])
    options = COMMANDS[command][1]
    breaks = ["unknown"]
    if any(options[name].get("required") for name in values):
        breaks.append("missing")
    if "budget" in options:
        breaks.append("budget")
    for name in values:
        if "type" not in options[name]:
            breaks.append(("slope", name))
        else:
            breaks += [("int", name), ("size", name)] if name in SIZES else [("int", name)]
    how = draw(st.sampled_from(breaks))
    extra = []
    if how == "unknown":
        foreign = ["--format", "json"] if command == "selftest" else ["--seed", "1"]
        extra = draw(st.sampled_from((["--nope"], foreign, ["stray"])))
    elif how == "missing":
        del values[draw(st.sampled_from([k for k in values if options[k].get("required")]))]
    elif how == "budget":
        values["budget"] = draw(st.sampled_from(("0", "-2")))
    else:
        kind, name = how
        pool = {"slope": BAD_SLOPES, "int": NOT_INTS, "size": ("0", "-1", "-60")}[kind]
        values[name] = draw(st.sampled_from(pool))
    return [command, *(f"--{name}={value}" for name, value in values.items()), *extra]


@settings(
    max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=invalid_argv(), to_file=st.booleans())
def test_invalid_argv_ends_in_one_usage_or_error_report(tmp_path, argv, to_file):
    # only SystemExit may escape main: exit 2 is argparse's usage error and
    # exit 1 the command's one error line; a failed --out leaves no file
    if to_file:
        argv = [*argv, "--out", str(tmp_path / "o.txt")]
    code, out, err, _ = _parsed(lambda record: main(argv))
    assert out == "", argv
    if code == 2:
        assert err.startswith("usage: sturmlab"), argv
    else:
        assert code == 1, argv
        assert re.fullmatch(r"error\[\w+\]: [^\n]+\n", err), (argv, err)
    assert list(tmp_path.iterdir()) == [], argv


def json_payloads():
    """Nested dicts, lists and tuples of the scalars the CLI writes."""
    long_ints = st.builds(
        lambda start, length, step: tuple(range(start, start + length * step, step)),
        st.integers(-(10**30), 10**30),
        st.integers(_JSON_BATCH - 2, 3 * _JSON_BATCH + 2),
        st.sampled_from((1, -7, 10**20)),
    )
    scalars = st.one_of(
        st.text(),
        st.text(st.characters(max_codepoint=0x7F)),
        st.integers(),
        st.integers(-(2**200), 2**200),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    int_tuples = st.lists(st.integers(-(2**70), 2**70), max_size=6).map(tuple)
    int_lists = st.one_of(
        long_ints,
        long_ints.map(list),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=8),
        st.lists(st.integers(-(2**70), 2**70), max_size=8).map(tuple),
        # lists of int tuples, such as cycles: short and long, empty tuples,
        # and more tuples than one write holds
        st.lists(int_tuples, max_size=8),
        st.lists(st.one_of(int_tuples, long_ints), max_size=3),
        st.integers(0, 3 * _JSON_BATCH).map(lambda k: [tuple(range(i % 3 + 1)) for i in range(k)]),
    )
    return st.recursive(
        st.one_of(scalars, int_lists),
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(st.text(), inner, max_size=5),
        ),
        max_leaves=12,
    )


@settings(max_examples=100, deadline=None, database=None)
@given(obj=json_payloads())
def test_json_writer_equals_json_dumps_indent_2(obj):
    out = io.StringIO()
    _write_json(obj, out)
    # compared as lines: pytest explains a failed list comparison by its
    # first differing item, while a string diff of thousands of lines, made
    # for every failing example hypothesis tries, took minutes
    want = json.dumps(obj, indent=2) + "\n"
    assert out.getvalue().splitlines(True) == want.splitlines(True)


def random_perms(max_n, count):
    """count random permutations of one size n <= max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.permutations(range(1, n + 1)), min_size=count, max_size=count)
    )


@settings(max_examples=100, deadline=None, database=None)
@given(lines=random_perms(30, 2))
def test_matrix_law_on_random_sn(lines):
    tau, sigma = (sl.FracPermutation(len(line), tuple(line)) for line in lines)
    prod = mat_mul(sl.factor_matrix(tau).rows(), sl.factor_matrix(sigma).rows())
    assert prod == sl.factor_matrix(tau.compose(sigma)).rows()


@settings(max_examples=100, deadline=None, database=None)
@given(lines=random_perms(150, 1))
def test_reconstruct_roundtrip_on_random_sn(lines):
    sigma = sl.FracPermutation(len(lines[0]), tuple(lines[0]))
    assert sl.reconstruct_sigma(sl.factor_matrix(sigma)).one_line == sigma.one_line


@settings(max_examples=100, deadline=None, database=None)
@given(
    alpha=st.one_of(
        periodic_cfs(block_max=10),
        periodic_cfs(),
        surds(),
        st.sampled_from(
            ["e", "cf:[0;2,5000,...]", "cf:[0;3000,1,...]", "cf:[0;33023,1,...]", "cf:[0;2,30011,...]"]
        ).map(sl.parse_slope),
    ),
    ends=st.one_of(
        st.lists(st.integers(1, 200), min_size=2, max_size=2).map(sorted),
        st.integers(1, 200).map(lambda n: [n, n]),
        st.lists(st.integers(1, 600), min_size=2, max_size=2).map(sorted),
    ),
)
def test_swept_table_equals_pi_sos_at_every_size(alpha, ends):
    # table's one line at --to, losing an index per size, against pi_sos per
    # size; the large quotients make every size extremal, near 0 with last = n
    # and near 1/2 with first = n or first + last = n + 1, so that each closed
    # form of the order stands in for the walk
    start, end = ends
    want = []
    for n in range(start, end + 1):
        pi = sl.pi_sos(alpha, n)
        want.append((n, sl.sign_direct(pi), sl.order(pi)))
    assert sl.permtool.range_sign_orders(alpha, start, end) == want


def negative_surds():
    """-(a + b*sqrt(d))/c with a >= 0 and b, c >= 1: below zero."""
    d = st.integers(2, 10**9).filter(lambda d: math.isqrt(d) ** 2 != d)
    return st.builds(
        lambda a, b, d, c: sl.QuadraticSurd(-a, -b, d, c),
        st.integers(0, 50), st.integers(1, 50), d, st.integers(1, 50),
    )


@settings(max_examples=60, deadline=None, database=None)
@given(
    alpha=st.one_of(
        periodic_cfs(),
        negative_surds(),
        st.just("cf:[0;2,5000,...]").map(sl.parse_slope),
    ),
    n=st.integers(2, 300),
)
def test_deleting_n_from_the_ordering_gives_the_ordering_of_n_minus_one(alpha, n):
    # the invariant range_sign_orders sweeps with: one line, losing an index per size
    line = list(sl.pi_sos(alpha, n).one_line)
    line.remove(n)
    assert tuple(line) == sl.pi_sos(alpha, n - 1).one_line


def csv_fields():
    """Fields as csv.writer sees them: ints, None, and strs that need quoting or not."""
    return st.one_of(
        st.integers(-(10**20), 10**20),
        st.none(),
        st.just(""),
        st.text(st.sampled_from('ab1 ,"\r\n'), max_size=6),
        st.text(max_size=4),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(header=st.lists(csv_fields(), max_size=4), rows=st.lists(st.lists(csv_fields(), max_size=5), max_size=6))
def test_csv_rows_equal_csv_writer(header, rows):
    got = io.StringIO()
    _emit_rows(argparse.Namespace(format="csv"), got, header, rows, None)
    want = io.StringIO()
    w = csv.writer(want, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=100, deadline=None, database=None)
@given(lines=random_perms(300, 1))
def test_cycles_equal_a_reference_walk(lines):
    line = tuple(lines[0])
    assert sl.FracPermutation(len(line), line).cycles() == walked_cycles(line)


PHI = sl.phi()
RECORDS = [
    (sl.FareyCell, dict(left=Fraction(1, 3), right=Fraction(1, 2), witness=Fraction(2, 5))),
    (sl.IntegralResult, dict(n=2, value=Fraction(3, 2), cells=2, coverage=Fraction(1))),
    (sl.Convergent, dict(index=2, p=2, q=3)),
    (sl.AuxMatrix, dict(n=1, columns=((1,), (0,)))),
    (sl.FactorMatrix, dict(n=2, entries=((1, 0), (-1, 1)))),
    (sl.IntertwinerQ, dict(n=2, a=Fraction(1), b=Fraction(2))),
    (sl.OrderPrediction, dict(case="min", order_prev=2, order_n=4, g=2)),
    (sl.Gap, dict(coeff=2, offset=-1)),
    (sl.FactorSet, dict(n=1, factors=((1,), (0,)))),
    (sl.FracPermutation, dict(n=3, one_line=(2, 3, 1))),
    (sl.WordSpec, dict(slope=PHI, intercept=Fraction(1, 2), ceiling=True)),
]


@pytest.mark.parametrize(
    "cls, fields", [pytest.param(cls, fields, id=cls.__name__) for cls, fields in RECORDS]
)
def test_records_are_immutable_values(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert record == twin and hash(record) == hash(twin)
    assert copy.copy(record) == record
    if cls is not sl.WordSpec:  # a slope compares by identity, so only its copy is equal
        assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_word_spec_intercept_is_a_fraction():
    spec = sl.WordSpec(PHI, intercept=1)
    assert spec.intercept == Fraction(1) and type(spec.intercept) is Fraction
    assert spec == sl.WordSpec(PHI, Fraction(1)) and hash(spec) == hash(sl.WordSpec(PHI, Fraction(1)))


E = sl.parse_slope("e")
SPEC = sl.WordSpec(E)
BAD_ARGUMENTS = [
    ("sign_sum", lambda: sl.sign_sum(E, 0), ValueError, "upto must be >= 1"),
    ("b_range_search", lambda: sl.b_range_search(E, 5, 0), ValueError, "k_max must be >= 1"),
    ("sign_formula", lambda: sl.sign_formula(E, 0), ValueError, "m must be >= 1"),
    ("multiplicative_order", lambda: sl.permtool.multiplicative_order(3, 0), ValueError,
     "modulus must be >= 1"),
    ("order_prediction", lambda: sl.order_prediction(E, 1), ValueError, "n must be >= 2"),
    ("word_letter", lambda: sl.word_letter(SPEC, -1), ValueError, "letter index must be >= 0"),
    ("word_factor_set", lambda: sl.word_factor_set(SPEC, 0), ValueError, "n must be >= 1"),
    ("partial_quotient", lambda: E.partial_quotient(-1), ValueError, "index must be >= 0"),
    ("convergent", lambda: E.convergent(-1), ValueError, "index must be >= 0"),
    ("floor_multiple", lambda: E.floor_multiple(0), ValueError, "k must be >= 1"),
    ("compare_multiple", lambda: E.compare_multiple(0, 1), ValueError, "k must be nonzero"),
    ("frac_compare", lambda: E.frac_compare(0, 1), ValueError, "indices must be >= 1"),
    ("cf_empty_initial", lambda: sl.ExplicitCF([], repeat=[1]), sl.InvalidSlope,
     "leading partial quotient"),
    ("cf_repeat_and_tail", lambda: sl.ExplicitCF([0], repeat=[1], tail=lambda k: 1),
     sl.InvalidSlope, "not both"),
    ("cf_empty_repeat", lambda: sl.ExplicitCF([0], repeat=[]), sl.InvalidSlope, "non-empty"),
    ("cf_repeat_below_one", lambda: sl.ExplicitCF([0], repeat=[1, 0]), sl.InvalidSlope,
     "quotients must be >= 1"),
    ("cf_malformed", lambda: sl.parse_slope("cf:[0;1"), sl.SlopeSyntaxError, "malformed"),
    ("cf_bad_token", lambda: sl.parse_slope("cf:[0;1,x,...]"), sl.SlopeSyntaxError, "'x'"),
    ("cf_no_quotients", lambda: sl.parse_slope("cf:[0;...]"), sl.SlopeSyntaxError,
     "needs quotients"),
    ("reconstruct_not_square", lambda: sl.reconstruct_sigma([[1, 0], [0, 1], [1, 1]]),
     sl.NotInImage, "not square"),
    # built directly, so no det check ran before inverse
    ("intertwiner_singular", lambda: sl.IntertwinerQ(2, 0, 0).inverse(), sl.SingularParameters,
     "singular"),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*case[1:], id=case[0]) for case in BAD_ARGUMENTS]
)
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_degenerate_arguments_give_empty_answers():
    assert sl.characteristic_prefix(E, 0) == []
    # an empty run (l > r) is a zero row
    assert sl.det_runs(2, [(1, 2, 1), (2, 1, 3)]) == 0
