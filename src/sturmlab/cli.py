"""Command-line interface.

Subcommands: word, factors, matrix, perm, table, volume, integral, signsum,
brange, congruence, selftest.  Slopes are given with --alpha (or --a/--b) in
the expression language of :mod:`sturmlab.irrational`.  Output is exact text;
permutation orders are emitted as decimal strings, never floats.

COMMANDS is the one table of commands and their options.  main parses a
known command with its own parser, build_parser(name); help, an empty argv,
an unknown name and leftover arguments get the whole tree, build_parser().
The function that runs is the cmd_<name> global at that time.  Each data
command computes its answer and returns (header, rows, doc); _run adds the
budget to the doc's meta and _emit_rows renders the result as CSV, TSV or
JSON.  selftest writes its own PASS/FAIL report.

The refinement budget (the cap on the convergent index a floor may use)
comes from --budget, else the SturmLAB_BUDGET environment variable, else the
library default; only the CLI reads that variable, and _run checks it once.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import Decimal
from json.encoder import encode_basestring_ascii

from . import farey, matrep, permtool, sturmian
from .errors import SturmlabError
from .irrational import DEFAULT_BUDGET, parse_slope


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("SturmLAB_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SturmlabError(f"SturmLAB_BUDGET={env!r} is not an integer") from None
    return DEFAULT_BUDGET


def _slope(args, attr="alpha"):
    return parse_slope(getattr(args, attr), budget=args.budget)


# numbers per slice of an all-int list, and parts per write: one write holds
# a bounded amount of text whatever n is
_JSON_BATCH = 1024


def _write_json(obj, out):
    """Write obj as json.dump(obj, out, indent=2) does, then a newline.

    json's own encoder runs in pure Python whenever indent is set, so this
    writer builds the same text directly.  Keys and strs go through
    json.encoder.encode_basestring_ascii and other scalars through
    json.dumps, so escaping and float repr are json's own.  A list or tuple
    whose items are all exactly int (bools excluded) is joined at C speed in
    slices of _JSON_BATCH numbers, each written out at once; everything else
    is appended part by part and written every _JSON_BATCH parts.  Only
    dicts with str keys, lists, tuples and JSON scalars are accepted: any
    other type, or a non-str key, raises TypeError.
    """
    parts = []
    _put_json(obj, "", parts, out)
    parts.append("\n")
    out.write("".join(parts))


def _put_json(obj, pad, parts, out):
    """Append the JSON text of obj, whose first line is indented by pad."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        lead = "[\n" + inner
        if set(map(type, obj)) == {int}:
            for i in range(0, len(obj), _JSON_BATCH):
                parts.append(lead + sep.join(map(int.__repr__, obj[i : i + _JSON_BATCH])))
                out.write("".join(parts))
                parts.clear()
                lead = sep
        else:
            for item in obj:
                parts.append(lead)
                _put_json(item, inner, parts, out)
                lead = sep
                if len(parts) >= _JSON_BATCH:
                    out.write("".join(parts))
                    parts.clear()
        parts.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            parts.append(lead + encode_basestring_ascii(key) + ": ")
            _put_json(value, inner, parts, out)
            lead = ",\n" + inner
        parts.append("\n" + pad + "}")
    else:
        parts.append(json.dumps(obj))  # raises TypeError for a non-JSON type


def _emit_rows(args, out, header, rows, json_obj):
    """Write rows in the requested format; json gets the prepared object.

    A header of None means the rows have no header row.
    """
    if args.format == "json":
        _write_json(json_obj, out)
    elif args.format == "tsv":
        for row in rows:
            out.write("\t".join(str(x) for x in row) + "\n")
    else:
        w = csv.writer(out, lineterminator="\n")
        for row in rows if header is None else (header, *rows):
            # joined in C unless a field is None, has a comma, quote or line
            # end, or is the row's only field and empty: csv.writer quotes those
            text = None if None in row else ",".join(map(str, row))
            if text and text.count(",") + 1 == len(row) and not (
                '"' in text or "\r" in text or "\n" in text
            ):
                out.write(text + "\n")
            else:
                w.writerow(row)


def _run(args, out) -> int:
    """Run the parsed command into out and return its exit code.  A data
    command runs once its sizes and its budget, resolved into args.budget,
    are at least 1; its meta starts with the budget, then any counters it
    reported.  A rebound cmd_<name> global is the one that runs."""
    fn = globals()["cmd_" + args.command]
    if args.command == "selftest":
        return fn(args, out)
    for name in "n", "N", "kmax":
        if getattr(args, name, 1) < 1:
            raise ValueError(f"{name} must be >= 1")
    args.budget = _budget(args)
    if args.budget < 1:
        raise ValueError("refinement budget must be >= 1")
    header, rows, doc = fn(args)
    doc["meta"] = {"budget": args.budget, **doc.get("meta", {})}
    _emit_rows(args, out, header, rows, doc)
    return 0


def _run_to_file(args) -> int:
    """Run the command into a temporary file beside --out, then rename it over
    --out, so that a failed command leaves no truncated output behind."""
    path = os.path.abspath(args.out)
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or pipe such as /dev/stdout is written in place, never replaced
        with open(path, "w", encoding="utf-8") as out:
            return _run(args, out)
    folder, name = os.path.split(path)
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--out directory {folder} does not exist")
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            rc = _run(args, out)
        os.replace(tmp, path)
        return rc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_word(args):
    word = "".join(map(str, sturmian.characteristic_prefix(_slope(args), args.n)))
    return None, [[word]], {"alpha": args.alpha, "n": args.n, "word": word}


def cmd_factors(args):
    fs = sturmian.factor_set(_slope(args), args.n)
    strings = ["".join(map(str, f)) for f in fs.factors]
    doc = {"alpha": args.alpha, "n": args.n, "factors": strings}
    return ["index", "factor"], list(enumerate(strings, start=1)), doc


def cmd_matrix(args):
    rows = matrep.m_from_alpha(_slope(args), args.n).entries
    header = [f"c{j}" for j in range(1, args.n + 1)]
    return header, rows, {"alpha": args.alpha, "n": args.n, "rows": rows}


def cmd_perm(args):
    pi = permtool.pi_sos(_slope(args), args.n)
    sign, order = permtool.sign_direct(pi), str(permtool.order(pi))
    rows = []
    if args.format != "json":  # json output would throw the row's strings away
        line = str(pi.one_line)[1:-1].replace(",", "")  # as in cycle_string
        rows.append([pi.n, line, pi.cycle_string(), sign, order])
    # tuples serialize as JSON arrays, so no list copies are needed
    doc = {
        "alpha": args.alpha,
        "n": pi.n,
        "perm": pi.one_line,
        "cycles": pi.cycles(),
        "sign": sign,
        "order": order,
    }
    return ["n", "perm", "cycles", "sign", "order"], rows, doc


def cmd_table(args):
    rows = [
        [n, sign, str(order)]
        for n, sign, order in permtool.range_sign_orders(_slope(args), args.start, args.end)
    ]
    header = ["n", "sign", "order"]
    return header, rows, {"alpha": args.alpha, "rows": [dict(zip(header, r)) for r in rows]}


def cmd_volume(args):
    v = matrep.simplex_volume(_slope(args), args.n)
    # unlike str(int), str(Decimal) has no sys.int_max_str_digits cap (n! passes it at n ~ 1550)
    text = str(Decimal(v.numerator))
    if v.denominator > 1:
        text += "/" + str(Decimal(v.denominator))
    return ["n", "volume"], [[args.n, text]], {"alpha": args.alpha, "n": args.n, "volume": text}


def cmd_integral(args):
    header = ["n", "integral", "decimal", "cells", "coverage_ok"]
    rows = []
    jrows = []
    for res in farey.exact_integral(args.start, args.end):
        n, dec = res.n, float(res.value)
        ok = res.coverage == 1
        if args.format == "tsv":
            rows.append([n, repr(dec)])  # two-column plot data
        else:
            rows.append([n, str(res.value), repr(dec), res.cells, int(ok)])
        jrows.append(dict(zip(header, (n, str(res.value), dec, res.cells, ok))))
    return header, rows, {"rows": jrows}


def cmd_signsum(args):
    alpha = _slope(args)
    total, peak = farey.sign_sum(alpha, args.N)
    doc = {
        "alpha": args.alpha,
        "N": args.N,
        "sum": total,
        "max_abs": peak,
        "meta": {"floors": alpha.stats["floors"]},
    }
    return ["N", "sum", "max_abs"], [[args.N, total, peak]], doc


def cmd_brange(args):
    alpha = _slope(args)
    k = farey.b_range_search(alpha, args.target, args.kmax)
    doc = {
        "alpha": args.alpha,
        "target": args.target,
        "kmax": args.kmax,
        "k": k,
        "meta": {"floors": alpha.stats["floors"]},
    }
    return ["target", "kmax", "k"], [[args.target, args.kmax, "none" if k is None else k]], doc


def cmd_congruence(args):
    a, b = _slope(args, "a"), _slope(args, "b")
    equal, complement = farey.factor_relation(a, b, args.n)
    congruent = farey.congruence_test(a, b, args.n)
    doc = {
        "a": args.a,
        "b": args.b,
        "n": args.n,
        "congruent": congruent,
        "factors_equal": equal,
        "factors_complement": complement,
        "meta": {"floors": a.stats["floors"] + b.stats["floors"]},
    }
    header = ["n", "congruent", "factors_equal", "factors_complement"]
    return header, [[args.n, int(congruent), int(equal), int(complement)]], doc


def cmd_selftest(args, out):
    from . import selftest  # only this command needs the fixtures

    return selftest.run(seed=args.seed, report=lambda s: out.write(s + "\n"))


_OUT = dict(help="write output to this file instead of stdout")
_DATA = {  # the options of every data command
    "format": dict(choices=["csv", "json", "tsv"], default="csv"),
    "out": _OUT,
    "budget": dict(type=int, help="caps the convergent index of floors at budget + 1"),
}
_TEXT = dict(required=True)
_WHOLE = dict(type=int, required=True)
_SIZED = {**_DATA, "alpha": _TEXT, "n": _WHOLE}
_TO = dict(dest="end", type=int, required=True)

# name: (help, {option: add_argument keywords}); main runs cmd_<name>
COMMANDS = {
    "word": ("prefix of the characteristic word", _SIZED),
    "factors": ("length-n factors in anti-lexicographic order", _SIZED),
    "matrix": ("matrix of the ordering permutation", _SIZED),
    "perm": ("ordering permutation with cycles, sign and order", _SIZED),
    "table": (
        "sign and order for a range of sizes",
        {**_DATA, "alpha": _TEXT, "from": dict(dest="start", type=int, required=True), "to": _TO},
    ),
    "volume": ("exact volume of the factor simplex", _SIZED),
    "integral": (
        "exact integral of the permutation order",
        {**_DATA, "from": dict(dest="start", type=int, default=1), "to": _TO},
    ),
    "signsum": ("running sum of permutation signs", {**_DATA, "alpha": _TEXT, "N": _WHOLE}),
    "brange": (
        "least k with B(k) equal to a target",
        {**_DATA, "alpha": _TEXT, "target": _WHOLE, "kmax": _WHOLE},
    ),
    "congruence": (
        "congruence of two factor simplices",
        {**_DATA, "a": _TEXT, "b": _TEXT, "n": _WHOLE},
    ),
    "selftest": (
        "run embedded reference checks",
        {"out": _OUT, "seed": dict(type=int, default=0, help="seed for randomized checks")},
    ),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    # command's own parser, else the whole tree: each command's parser as a subparser
    if command is None:
        p = argparse.ArgumentParser(
            prog="sturmlab",
            description="Exact experiments with fractional-part orderings of irrational multiples",
        )
        sub = p.add_subparsers(dest="command", required=True)
        parsers = [(sub.add_parser(name, help=h), opts) for name, (h, opts) in COMMANDS.items()]
    else:
        p = argparse.ArgumentParser(prog=f"sturmlab {command}")
        parsers = [(p, COMMANDS[command][1])]
    for sp, options in parsers:
        for option, kwargs in options.items():
            sp.add_argument(f"--{option}", **kwargs)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command is parsed by its own parser; help, an empty argv, an unknown
    # name and leftover arguments get the whole tree, which lists every command
    args, rest = None, argv
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        args.command = argv[0]
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        if args.out:
            return _run_to_file(args)
        try:
            rc = _run(args, sys.stdout)
            sys.stdout.flush()  # so that a closed pipe fails here, not at exit
            return rc
        except BrokenPipeError:
            # the reader closed stdout: stop quietly, and point stdout at
            # devnull so that the flush at interpreter exit cannot fail too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    except (SturmlabError, OSError) as exc:
        code = type(exc).__name__
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[InvalidArgument]: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
