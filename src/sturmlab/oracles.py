"""Independent routes that the tests and ``sturmlab selftest`` check production against.

No production module imports this one, so no command runs them.
"""
from __future__ import annotations

import math
from contextlib import closing
from fractions import Fraction
from functools import cmp_to_key
from itertools import islice
from typing import Iterator, Sequence

from .errors import RefinementBudgetExceeded
from .farey import FareyCell
from .irrational import IrrationalSlope
from .matrep import FactorMatrix
from .permtool import FracPermutation, b_stream
from .sturmian import FactorSet


def pi_direct(alpha: IrrationalSlope, n: int) -> FracPermutation:
    """Sort 1..n by fractional part of k*alpha, exactly.

    An O(n log n)-comparison sort, independent of the recurrence: the tests'
    reference for ``permtool.pi_sos``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    line = sorted(range(1, n + 1), key=cmp_to_key(alpha.frac_compare))
    return FracPermutation(n, tuple(line))


def b_alpha(alpha: IrrationalSlope, k: int) -> int:
    """Number of q in 1..k-1 with {q*alpha} < {k*alpha} (direct count)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1 for q in range(1, k) if alpha.frac_compare(q, k) < 0)


def first_hits(alpha: IrrationalSlope, k_max: int, k_lo: int = 1) -> dict[int, int]:
    """{T: the least k in k_lo..k_max with B(k) == T}, along b_stream."""
    first: dict[int, int] = {}
    for k, b in islice(b_stream(alpha), k_max):
        if k >= k_lo:
            first.setdefault(b, k)
    return first


def farey_cells(n: int) -> list[FareyCell]:
    """All cells of the order-n Farey dissection of (0, 1), left to right.

    Each right end c/d follows from the cell a/b < c/d before it by the
    next-term recurrence of Farey neighbours, independent of the
    Stern-Brocot descent that ``farey.exact_integral`` takes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = []
    a, b, c, d = 0, 1, 1, n
    while True:
        assert b * c - a * d == 1, "not adjacent Farey fractions"
        cells.append(FareyCell(Fraction(a, b), Fraction(c, d), Fraction(a + c, b + d)))
        if d == 1:
            return cells
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def compare_frac_to_rational(alpha: IrrationalSlope, r: Fraction) -> int:
    """Sign of {alpha} - r for rational r in [0, 1]; never zero."""
    r = Fraction(r)
    # q*{a} < p  iff  q*a < p + q*floor(a)
    return alpha.compare_multiple(
        r.denominator, r.numerator + r.denominator * alpha.floor_multiple(1)
    )


def cell_containing(alpha: IrrationalSlope, n: int) -> FareyCell:
    """The order-n cell holding {alpha}, located by exact binary search."""
    cells = farey_cells(n)
    lo, hi = 0, len(cells) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if compare_frac_to_rational(alpha, cells[mid].right) > 0:
            lo = mid + 1
        else:
            hi = mid
    return cells[lo]


def complement_factors(factors: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Bitwise complement of each factor, re-sorted anti-lexicographically.

    Complementing all letters realises the slope reflection alpha -> 1-alpha,
    and geometrically is the point reflection through (1/2, ..., 1/2).
    """
    return tuple(sorted((tuple(1 - x for x in f) for f in factors), reverse=True))


def det_exact(m: FactorMatrix | Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination.

    Step k pivots on the row r >= k whose column-k entry has the least nonzero
    magnitude, negated when negative (each swap and each negation flips the
    sign of the result), and then replaces every later row's tail by
    (x*akk - aik*y) // prev, an exact division by the previous pivot.  A row
    whose column-k entry is 0 is left untouched when akk == prev, since the
    update is then x*akk // prev == x.  On factor matrices every pivot is 1 and
    the rows stay in {-1, 0, 1}, so most rows are skipped at every step.
    """
    rows = m.entries if isinstance(m, FactorMatrix) else m
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = min(
            (r for r in range(k, n) if a[r][k]), key=lambda r: abs(a[r][k]), default=None
        )
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        akk = ak[k]
        if akk < 0:
            ak = a[k] = [-x for x in ak]
            akk = -akk
            sign = -sign
        tail = ak[k + 1:]
        rest = range(k + 1, n) if akk != prev else [i for i in range(k + 1, n) if a[i][k]]
        for i in rest:
            ai = a[i]
            aik = ai[k]
            ai[k + 1:] = [(x * akk - aik * y) // prev for x, y in zip(ai[k + 1:], tail)]
        prev = akk
    return sign * a[n - 1][n - 1] if n else 1


def bracket(alpha: IrrationalSlope, level: int) -> tuple[Fraction, Fraction]:
    """The convergents of index level and level + 1, the lesser first."""
    a = alpha.convergent(level).value
    b = alpha.convergent(level + 1).value
    return (a, b) if a < b else (b, a)


def floor_affine_cf(alpha: IrrationalSlope, u: int, v: int, w: int) -> int:
    """Exact floor of (u*alpha + v)/w by interval refinement: the floor at
    both ends of each :func:`bracket` in turn, until they agree."""
    if w == 0:
        raise ZeroDivisionError("w must be nonzero")
    if w < 0:
        u, v, w = -u, -v, -w
    if u == 0:
        return v // w
    for level in range(2, alpha.budget + 2):
        lo, hi = bracket(alpha, level)
        f1 = math.floor((u * lo + v) / w)
        if f1 == math.floor((u * hi + v) / w):
            return f1
    raise RefinementBudgetExceeded(
        f"floor of ({u}*alpha + {v})/{w} unresolved after {alpha.budget} refinements"
    )


def mechanical_letters(
    alpha: IrrationalSlope, intercept: Fraction, count: int, ceiling: bool = False
) -> list[int]:
    """First count letters of the word of slope {alpha} and a rational intercept:
    letter i is r((i+1)*{alpha} + intercept) - r(i*{alpha} + intercept), with r the
    floor, or the ceiling if ceiling is set, each term by :func:`floor_affine_cf`."""
    p, q = Fraction(intercept).as_integer_ratio()
    s = -1 if ceiling else 1  # ceil(x) = -floor(-x)
    f1 = floor_affine_cf(alpha, 1, 0, 1)
    # k*{a} + p/q = (k*q*a + p - k*q*floor(a))/q
    terms = [
        s * floor_affine_cf(alpha, s * k * q, s * (p - k * q * f1), q) for k in range(count + 1)
    ]
    return [b - a for a, b in zip(terms, terms[1:])]


def mechanical_factors(
    alpha: IrrationalSlope, intercept: Fraction, n: int, length: int, ceiling: bool = False
) -> FactorSet:
    """The distinct length-n windows of a length-letter prefix, anti-lexicographic; no cap."""
    word = mechanical_letters(alpha, intercept, length, ceiling)
    windows = {tuple(word[i:i + n]) for i in range(length - n + 1)}
    return FactorSet(n, tuple(sorted(windows, reverse=True)))


def streamed_signs(alpha: IrrationalSlope) -> Iterator[tuple[int, int, int]]:
    """(sign, sum, max |partial sum|) of the ordering signs at sizes N = 1, 2, ...: the
    sign at size N is the product of (-1)^floor(2*l*alpha) over l <= N // 2, read
    along floors(2, 2), which has read N // 2 floors when size N is yielded."""
    sign = total = peak = 1  # size 1
    yield sign, total, peak
    with closing(alpha.floors(2, 2)) as floors:
        for f in floors:
            if f & 1:
                sign = -sign
            for _ in range(2):  # sizes 2l and 2l + 1
                total += sign
                peak = max(peak, abs(total))
                yield sign, total, peak


def streamed_sign_sum(alpha: IrrationalSlope, upto: int) -> tuple[int, int, int]:
    """The item of :func:`streamed_signs` at size upto, with its stream closed."""
    with closing(streamed_signs(alpha)) as signs:
        return next(islice(signs, upto - 1, None))
