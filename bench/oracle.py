"""Independent checks of sturmlab CLI outputs.

Nothing here calls sturmlab.  Slopes are evaluated from their closed forms:
quadratic surds and periodic continued fractions (solved as quadratics) with
integer square roots, e and 1/e with mpmath.  Every answer is recomputed from
the scaled integer approximation A = floor(alpha * 10**DIGITS):

* floor(k*alpha) is k*A // 10**DIGITS whenever k*A mod 10**DIGITS is not
  within k of the next multiple;
* the fractional parts {k*alpha} are ordered by k*A mod 10**DIGITS whenever
  neighbouring residues are more than kmax apart.

Both conditions are verified on every use, so an answer is never given from
an approximation that is too coarse: OracleError is raised instead.

``expected(job)`` gives the normalized answer of a job and ``observed(job,
stdout)`` parses the CLI output into the same form; a job is correct when
the two are equal.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache

DIGITS = 60
SCALE = 10**DIGITS


class OracleError(Exception):
    """The oracle cannot decide a job (approximation too coarse, unknown form)."""


# -- slope values ---------------------------------------------------------------

_SURD = re.compile(r"^\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(-?\d+)$")
_CF = re.compile(r"^cf:\[(-?\d+);([\d,]+),\.\.\.\]$")


def _isqrt_scaled(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d))/c * SCALE) for c > 0, d not a square."""
    s = math.isqrt(b * b * d * SCALE * SCALE)  # floor(|b|*sqrt(d)*SCALE)
    num = a * SCALE + s if b > 0 else a * SCALE - s - 1
    return num // c


def _periodic_cf_scaled(a0: int, block: list[int]) -> int:
    """floor(alpha * SCALE) for alpha = [a0; block, block, ...].

    x = [b1; b2, ..., bm, x] solves x = (P x + P') / (Q x + Q') with P/Q and
    P'/Q' the last two convergents of the block, i.e. the quadratic
    Q x^2 + (Q' - P) x - P' = 0; its positive root is x.
    """
    p_prev, p = 1, block[0]
    q_prev, q = 0, 1
    for b in block[1:]:
        p, p_prev = b * p + p_prev, p
        q, q_prev = b * q + q_prev, q
    # x = ((P - Q') + sqrt((Q' - P)^2 + 4 Q P')) / (2 Q); alpha = a0 + 1/x
    disc = (q_prev - p) ** 2 + 4 * q * p_prev
    # 1/x = 2Q / ((P - Q') + sqrt(disc)) = ((Q' - P) + sqrt(disc)) / (2 P')
    return a0 * SCALE + _isqrt_scaled(q_prev - p, 1, disc, 2 * p_prev)


def _e_scaled(reciprocal: bool) -> int:
    from mpmath import mp

    with mp.workdps(DIGITS + 20):
        value = 1 / mp.e if reciprocal else mp.e
        return int(mp.floor(value * SCALE))


@lru_cache(maxsize=None)
def scaled(expr: str) -> int:
    """floor(alpha * 10**DIGITS) for a slope expression, computed independently."""
    if expr == "e":
        return _e_scaled(False)
    if expr == "1/e":
        return _e_scaled(True)
    m = _SURD.match(expr)
    if m:
        a, b, d, c = (int(g) for g in m.groups())
        if c < 0:
            a, b, c = -a, -b, -c
        return _isqrt_scaled(a, b, d, c)
    m = _CF.match(expr)
    if m:
        return _periodic_cf_scaled(int(m.group(1)), [int(t) for t in m.group(2).split(",")])
    raise OracleError(f"no independent value for slope {expr!r}")


# -- exact floors and orderings from the scaled value ----------------------------


def floors(expr: str, upto: int) -> list[int]:
    """[floor(k*alpha) for k = 0..upto], each certified."""
    a = scaled(expr)
    out = []
    for k in range(upto + 1):
        q, r = divmod(k * a, SCALE)
        if r > SCALE - k - 1:
            raise OracleError(f"floor({k}*{expr}) too close to an integer for {DIGITS} digits")
        out.append(q)
    return out


def residues(expr: str, upto: int) -> list[int]:
    """[k*A mod SCALE for k = 0..upto]: the fractional parts, scaled.

    Certified to order {k*alpha} correctly: the true scaled fractional part
    lies in [r_k, r_k + k), so residues more than upto apart keep their order.
    """
    a = scaled(expr)
    res = [k * a % SCALE for k in range(upto + 1)]
    ordered = sorted(res[1:])
    gaps = [y - x for x, y in zip(ordered, ordered[1:])]
    if (gaps and min(gaps) <= upto) or ordered[-1] >= SCALE - upto:
        raise OracleError(f"fractional parts of {expr} not separated at {DIGITS} digits")
    return res


def ordering(expr: str, n: int) -> list[int]:
    """1..n sorted by fractional part of k*alpha."""
    res = residues(expr, n)
    return sorted(range(1, n + 1), key=res.__getitem__)


def cycles(line: list[int]) -> list[list[int]]:
    seen = [False] * (len(line) + 1)
    out = []
    for start in range(1, len(line) + 1):
        if not seen[start]:
            cyc, j = [], start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = line[j - 1]
            out.append(cyc)
    return out


def sign_order(line: list[int]) -> tuple[int, int]:
    cyc = cycles(line)
    return (-1 if (len(line) - len(cyc)) % 2 else 1), math.lcm(*(len(c) for c in cyc))


def better_counts(expr: str, kmax: int) -> list[int]:
    """[B(k) for k = 1..kmax]: earlier multiples with smaller fractional part.

    Ranks the residues once, then counts with a Fenwick tree in index order.
    """
    res = residues(expr, kmax)
    rank = [0] * (kmax + 1)
    for r, k in enumerate(sorted(range(1, kmax + 1), key=res.__getitem__), start=1):
        rank[k] = r
    tree = [0] * (kmax + 1)
    out = []
    for k in range(1, kmax + 1):
        i, c = rank[k], 0
        while i > 0:
            c += tree[i]
            i &= i - 1
        out.append(c)
        i = rank[k]
        while i <= kmax:
            tree[i] += 1
            i += i & -i
    return out


def factor_set(expr: str, n: int) -> list[tuple[int, ...]]:
    """The n+1 length-n factors of a Sturmian word of slope alpha, anti-lex.

    Letter i of the mechanical word with intercept x is
    floor((i+1)*alpha + x) - floor(i*alpha + x); the word only changes when
    x crosses one of {-i*alpha}, i = 0..n, so one intercept inside each of the
    n+1 arcs between those points gives every factor exactly once.
    """
    a = scaled(expr) % SCALE  # letters depend on the fractional part only
    points = sorted({(-i * a) % SCALE for i in range(n + 1)})
    bounds = points + [SCALE]
    if len(points) != n + 1 or min(y - x for x, y in zip(bounds, bounds[1:])) <= 4 * (n + 2):
        raise OracleError(f"factor arcs of {expr} at n={n} too narrow for {DIGITS} digits")
    words = []
    for lo, hi in zip(bounds, bounds[1:]):
        x = (lo + hi) // 2
        fl = [(i * a + x) // SCALE for i in range(n + 1)]
        words.append(tuple(fl[i + 1] - fl[i] for i in range(n)))
    return sorted(words, reverse=True)


def _profile(points) -> list[tuple[int, ...]]:
    return sorted(
        tuple(sorted(sum(x != y for x, y in zip(p, q)) for q in points)) for p in points
    )


@lru_cache(maxsize=None)
def order_integral(n: int) -> tuple[Fraction, int]:
    """Exact integral over (0, 1) of the order of the size-n ordering permutation.

    Cells come from sorting every reduced fraction with denominator <= n; on a
    cell the permutation is read off at the mediant p/q by sorting k*p mod q.
    """
    fracs = sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})
    total = Fraction(0)
    for left, right in zip(fracs, fracs[1:]):
        p = left.numerator + right.numerator
        q = left.denominator + right.denominator
        line = sorted(range(1, n + 1), key=lambda k: k * p % q)
        total += (right - left) * sign_order(line)[1]
    return total, len(fracs) - 1


# -- job answers ------------------------------------------------------------------


def _opt(job, flag: str) -> str:
    return job.argv[job.argv.index(flag) + 1]


def _rows(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))[1:]


def expected(job):
    """The answer a job must produce, from the independent routes above."""
    cmd = job.argv[0]
    if cmd == "brange":
        alpha, target, kmax = _opt(job, "--alpha"), int(_opt(job, "--target")), int(_opt(job, "--kmax"))
        counts = better_counts(alpha, kmax)
        hit = next((k for k, b in enumerate(counts, start=1) if b == target), None)
        return target, kmax, hit
    if cmd == "signsum":
        alpha, upto = _opt(job, "--alpha"), int(_opt(job, "--N"))
        fl = floors(alpha, upto)
        # the sign flips at each even size m with floor(m*alpha) odd
        cur, total, peak = 1, 0, 0
        for m in range(1, upto + 1):
            if m % 2 == 0 and fl[m] % 2:
                cur = -cur
            total += cur
            peak = max(peak, abs(total))
        return upto, total, peak
    if cmd == "perm":
        line = ordering(_opt(job, "--alpha"), int(_opt(job, "--n")))
        sign, order = sign_order(line)
        return line, cycles(line), sign, order
    if cmd == "table":
        alpha, lo, hi = _opt(job, "--alpha"), int(_opt(job, "--from")), int(_opt(job, "--to"))
        res = residues(alpha, hi)
        return [
            (n, *sign_order(sorted(range(1, n + 1), key=res.__getitem__)))
            for n in range(lo, hi + 1)
        ]
    if cmd == "volume":
        n = int(_opt(job, "--n"))
        # the factor simplex is unimodular: volume 1/n!
        return n, Fraction(1, math.factorial(n))
    if cmd == "matrix":
        n = int(_opt(job, "--n"))
        cols = factor_set(_opt(job, "--alpha"), n)
        return [[cols[j][i] - cols[-1][i] for j in range(n)] for i in range(n)]
    if cmd == "factors":
        return factor_set(_opt(job, "--alpha"), int(_opt(job, "--n")))
    if cmd == "congruence":
        n = int(_opt(job, "--n"))
        fa, fb = factor_set(_opt(job, "--a"), n), factor_set(_opt(job, "--b"), n)
        equal = fa == fb
        complement = fa == sorted((tuple(1 - x for x in f) for f in fb), reverse=True)
        if equal or complement:
            congruent = True
        elif _profile(fa) != _profile(fb):
            congruent = False  # no isometry preserves the distance profiles
        else:
            raise OracleError(f"cannot decide congruence of {job.argv}")
        return n, congruent, equal, complement
    if cmd == "integral":
        return [(n, *order_integral(n)) for n in range(1, int(_opt(job, "--to")) + 1)]
    raise OracleError(f"no oracle for command {cmd!r}")


def observed(job, stdout: str):
    """The answer printed by a job, in the form ``expected`` returns."""
    cmd = job.argv[0]
    if cmd == "brange":
        (t, kmax, k), = _rows(stdout)
        return int(t), int(kmax), None if k == "none" else int(k)
    if cmd == "signsum":
        (upto, total, peak), = _rows(stdout)
        return int(upto), int(total), int(peak)
    if cmd == "perm":
        if _opt(job, "--format") == "json":
            doc = json.loads(stdout)
            return doc["perm"], doc["cycles"], doc["sign"], int(doc["order"])
        (_, line, cyc, sign, order), = _rows(stdout)
        cycle_lists = [[int(x) for x in c.split()] for c in cyc[1:-1].split(")(")]
        return [int(x) for x in line.split()], cycle_lists, int(sign), int(order)
    if cmd == "table":
        return [(int(n), int(s), int(o)) for n, s, o in _rows(stdout)]
    if cmd == "volume":
        (n, v), = _rows(stdout)
        return int(n), Fraction(v)
    if cmd == "matrix":
        return [[int(x) for x in row] for row in _rows(stdout)]
    if cmd == "factors":
        return [tuple(int(c) for c in f) for _, f in _rows(stdout)]
    if cmd == "congruence":
        (n, c, e, m), = _rows(stdout)
        return int(n), c == "1", e == "1", m == "1"
    if cmd == "integral":
        out = []
        for n, value, dec, cells, ok in _rows(stdout):
            v = Fraction(value)
            if float(dec) != float(v) or ok != "1":
                return ("inconsistent row", n, value, dec, ok)
            out.append((int(n), v, int(cells)))
        return out
    raise OracleError(f"no parser for command {cmd!r}")
