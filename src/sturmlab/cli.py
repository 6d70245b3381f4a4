"""Command-line interface.

Subcommands: word, factors, matrix, perm, table, volume, integral, signsum,
brange, congruence, selftest.  Slopes are given with --alpha (or --a/--b) in
the expression language of :mod:`sturmlab.irrational`.  Output is exact text;
permutation orders are emitted as decimal strings, never floats.

The refinement budget (the cap on the convergent index a floor may use)
comes from --budget, else the SturmLAB_BUDGET environment variable, else the
library default.  Only the CLI reads that variable.
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
    return parse_slope(getattr(args, attr), budget=_budget(args))


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
    """Write rows in the requested format; json gets the prepared object."""
    if args.format == "json":
        _write_json(json_obj, out)
    elif args.format == "tsv":
        for row in rows:
            out.write("\t".join(str(x) for x in row) + "\n")
    else:
        w = csv.writer(out, lineterminator="\n")
        for row in (header, *rows):
            # joined in C unless a field is None, has a comma, quote or line
            # end, or is the row's only field and empty: csv.writer quotes those
            text = None if None in row else ",".join(map(str, row))
            if text and text.count(",") + 1 == len(row) and not (
                '"' in text or "\r" in text or "\n" in text
            ):
                out.write(text + "\n")
            else:
                w.writerow(row)


def _run_to_file(args) -> int:
    """Run the command into a temporary file beside --out, then rename it over
    --out, so that a failed command leaves no truncated output behind."""
    path = os.path.abspath(args.out)
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or pipe such as /dev/stdout is written in place, never replaced
        with open(path, "w", encoding="utf-8") as out:
            return args.fn(args, out) or 0
    folder, name = os.path.split(path)
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--out directory {folder} does not exist")
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            rc = args.fn(args, out) or 0
        os.replace(tmp, path)
        return rc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _meta(args):
    return {"budget": _budget(args)}


def cmd_word(args, out):
    if args.n < 1:
        raise ValueError("n must be >= 1")
    alpha = _slope(args)
    bits = sturmian.characteristic_prefix(alpha, args.n)
    word = "".join(map(str, bits))
    if args.format == "json":
        _write_json({"alpha": args.alpha, "n": args.n, "word": word, "meta": _meta(args)}, out)
    else:
        out.write(word + "\n")


def cmd_factors(args, out):
    alpha = _slope(args)
    fs = sturmian.factor_set(alpha, args.n)
    strings = ["".join(map(str, f)) for f in fs.factors]
    _emit_rows(
        args,
        out,
        ["index", "factor"],
        list(enumerate(strings, start=1)),
        {"alpha": args.alpha, "n": args.n, "factors": strings, "meta": _meta(args)},
    )


def cmd_matrix(args, out):
    alpha = _slope(args)
    m = matrep.m_from_alpha(alpha, args.n)
    rows = [list(r) for r in m.entries]
    _emit_rows(
        args,
        out,
        [f"c{j}" for j in range(1, args.n + 1)],
        rows,
        {"alpha": args.alpha, "n": args.n, "rows": rows, "meta": _meta(args)},
    )


def _perm_payload(alpha_text, pi):
    # tuples serialize as JSON arrays, so no list copies are needed
    return {
        "alpha": alpha_text,
        "n": pi.n,
        "perm": pi.one_line,
        "cycles": pi.cycles(),
        "sign": permtool.sign_direct(pi),
        "order": str(permtool.order(pi)),
    }


def cmd_perm(args, out):
    alpha = _slope(args)
    pi = permtool.pi_sos(alpha, args.n)
    payload = _perm_payload(args.alpha, pi)
    payload["meta"] = _meta(args)
    rows = []
    if args.format != "json":  # json output would throw the row's strings away
        rows.append(
            [
                pi.n,
                str(pi.one_line)[1:-1].replace(",", ""),  # as in cycle_string
                pi.cycle_string(),
                payload["sign"],
                payload["order"],
            ]
        )
    _emit_rows(args, out, ["n", "perm", "cycles", "sign", "order"], rows, payload)


def cmd_table(args, out):
    alpha = _slope(args)
    if not 1 <= args.start <= args.end:
        raise SturmlabError(f"bad range {args.start}..{args.end}")
    rows = []
    for n, first, last in permtool.range_extremes(alpha, args.start, args.end):
        sign, order = permtool.sos_sign_order(n, first, last)
        rows.append([n, sign, str(order)])
    _emit_rows(
        args,
        out,
        ["n", "sign", "order"],
        rows,
        {
            "alpha": args.alpha,
            "rows": [{"n": r[0], "sign": r[1], "order": r[2]} for r in rows],
            "meta": _meta(args),
        },
    )


def cmd_volume(args, out):
    alpha = _slope(args)
    v = matrep.simplex_volume(alpha, args.n)
    # unlike str(int), str(Decimal) has no sys.int_max_str_digits cap (n! passes it at n ~ 1550)
    text = str(Decimal(v.numerator))
    if v.denominator > 1:
        text += "/" + str(Decimal(v.denominator))
    _emit_rows(
        args,
        out,
        ["n", "volume"],
        [[args.n, text]],
        {"alpha": args.alpha, "n": args.n, "volume": text, "meta": _meta(args)},
    )


def cmd_integral(args, out):
    if not 1 <= args.start <= args.end:
        raise SturmlabError(f"bad range {args.start}..{args.end}")
    rows = []
    jrows = []
    for n in range(args.start, args.end + 1):
        res = farey.exact_integral(n)
        dec = float(res.value)
        ok = 1 if res.coverage == 1 else 0
        if args.format == "tsv":
            rows.append([n, repr(dec)])  # two-column plot data
        else:
            rows.append([n, str(res.value), repr(dec), res.cells, ok])
        jrows.append(
            {
                "n": n,
                "integral": str(res.value),
                "decimal": dec,
                "cells": res.cells,
                "coverage_ok": bool(ok),
            }
        )
    _emit_rows(
        args,
        out,
        ["n", "integral", "decimal", "cells", "coverage_ok"],
        rows,
        {"rows": jrows, "meta": _meta(args)},
    )


def cmd_signsum(args, out):
    alpha = _slope(args)
    total, peak = farey.sign_sum(alpha, args.N)
    _emit_rows(
        args,
        out,
        ["N", "sum", "max_abs"],
        [[args.N, total, peak]],
        {
            "alpha": args.alpha,
            "N": args.N,
            "sum": total,
            "max_abs": peak,
            "meta": {**_meta(args), "floors": alpha.stats["floors"]},
        },
    )


def cmd_brange(args, out):
    alpha = _slope(args)
    k = farey.b_range_search(alpha, args.target, args.kmax)
    _emit_rows(
        args,
        out,
        ["target", "kmax", "k"],
        [[args.target, args.kmax, "none" if k is None else k]],
        {
            "alpha": args.alpha,
            "target": args.target,
            "kmax": args.kmax,
            "k": k,
            "meta": {**_meta(args), "floors": alpha.stats["floors"]},
        },
    )


def cmd_congruence(args, out):
    a = _slope(args, "a")
    b = _slope(args, "b")
    fa = sturmian.factor_set(a, args.n).factors
    fb = sturmian.factor_set(b, args.n).factors
    congruent = farey.factors_congruent(fa, fb)
    equal = fa == fb
    complement = fa == farey.complement_factors(fb)
    _emit_rows(
        args,
        out,
        ["n", "congruent", "factors_equal", "factors_complement"],
        [[args.n, int(congruent), int(equal), int(complement)]],
        {
            "a": args.a,
            "b": args.b,
            "n": args.n,
            "congruent": congruent,
            "factors_equal": equal,
            "factors_complement": complement,
            "meta": {**_meta(args), "floors": a.stats["floors"] + b.stats["floors"]},
        },
    )


def cmd_selftest(args, out):
    from . import selftest  # only this command needs the fixtures

    return selftest.run(seed=args.seed or 0, report=lambda s: out.write(s + "\n"))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json", "tsv"], default="csv")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--budget", type=int, help="caps the convergent index of floors at budget + 1")
    common.add_argument("--seed", type=int, help="seed for randomized checks")

    p = argparse.ArgumentParser(
        prog="sturmlab",
        description="Exact experiments with fractional-part orderings of irrational multiples",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, **params):
        sp = sub.add_parser(name, parents=[common], help=helptext)
        for pname, kwargs in params.items():
            sp.add_argument(f"--{pname.rstrip('_')}", **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    add(
        "word",
        cmd_word,
        "prefix of the characteristic word",
        alpha=dict(required=True),
        n=dict(type=int, required=True),
    )
    add(
        "factors",
        cmd_factors,
        "length-n factors in anti-lexicographic order",
        alpha=dict(required=True),
        n=dict(type=int, required=True),
    )
    add(
        "matrix",
        cmd_matrix,
        "matrix of the ordering permutation",
        alpha=dict(required=True),
        n=dict(type=int, required=True),
    )
    add(
        "perm",
        cmd_perm,
        "ordering permutation with cycles, sign and order",
        alpha=dict(required=True),
        n=dict(type=int, required=True),
    )
    tb = add(
        "table",
        cmd_table,
        "sign and order for a range of sizes",
        alpha=dict(required=True),
    )
    tb.add_argument("--from", dest="start", type=int, required=True)
    tb.add_argument("--to", dest="end", type=int, required=True)
    add(
        "volume",
        cmd_volume,
        "exact volume of the factor simplex",
        alpha=dict(required=True),
        n=dict(type=int, required=True),
    )
    ig = add("integral", cmd_integral, "exact integral of the permutation order")
    ig.add_argument("--from", dest="start", type=int, default=1)
    ig.add_argument("--to", dest="end", type=int, required=True)
    add(
        "signsum",
        cmd_signsum,
        "running sum of permutation signs",
        alpha=dict(required=True),
        N=dict(type=int, required=True),
    )
    add(
        "brange",
        cmd_brange,
        "least k with B(k) equal to a target",
        alpha=dict(required=True),
        target=dict(type=int, required=True),
        kmax=dict(type=int, required=True),
    )
    add(
        "congruence",
        cmd_congruence,
        "congruence of two factor simplices",
        a=dict(required=True),
        b=dict(required=True),
        n=dict(type=int, required=True),
    )
    add("selftest", cmd_selftest, "run embedded reference checks")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            return _run_to_file(args)
        return args.fn(args, sys.stdout) or 0
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
