"""Sturmian words and their length-n factor sets.

Letters are first differences of floors (or ceilings) of i*alpha + beta; the
slope enters only through its fractional part, so slopes outside (0, 1) are
reduced mod 1.  A word of irrational slope has exactly n+1 distinct length-n
factors, listed here in anti-lexicographic order: descending as 0/1 tuples,
first letter most significant.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .errors import SafetyCapExceeded
from .irrational import IrrationalSlope
from .matrep import aux_matrix
from .permtool import FracPermutation

# window scans stop after this many times n^2 positions
SCAN_CAP_FACTOR = 50

Factor = tuple[int, ...]


class _WordFields(NamedTuple):
    slope: IrrationalSlope
    intercept: Fraction | None
    ceiling: bool


class WordSpec(_WordFields):
    """Word description: slope, rational intercept and rounding choice.

    intercept None means "use the slope itself", giving the characteristic
    word of the slope; any other intercept is stored as a Fraction.
    """

    __slots__ = ()

    def __new__(
        cls, slope: IrrationalSlope, intercept: Fraction | None = None, ceiling: bool = False
    ):
        if intercept is not None:
            intercept = Fraction(intercept)
        return super().__new__(cls, slope, intercept, ceiling)


def _term(spec: WordSpec, k: int) -> int:
    """floor(k*{slope} + intercept), or its ceiling for spec.ceiling, exactly.

    ceil(x) = -floor(-x).  With no intercept the term is floor((k+1)*{slope})
    for both roundings: the ceiling of an irrational is its floor plus one,
    which no letter sees.
    """
    alpha = spec.slope
    if spec.intercept is None:
        return alpha.floor_reduced(k + 1)
    p, q = spec.intercept.numerator, spec.intercept.denominator
    s = -1 if spec.ceiling else 1
    # s*(k*{a} + p/q) = (u*a + v)/q with u = s*k*q and v = s*p - u*floor(a); its
    # floor is (floor(u*a) + v) // q, and floor(u*a) = -floor(-u*a) - 1 for u < 0
    u = s * k * q
    fu = alpha.floor_multiple(u) if u > 0 else -alpha.floor_multiple(-u) - 1 if u else 0
    return s * ((fu + s * p - u * alpha.floor_multiple(1)) // q)


def word_letter(spec: WordSpec, i: int) -> int:
    """Letter i (i >= 0) of the word; always 0 or 1."""
    if i < 0:
        raise ValueError("letter index must be >= 0")
    return _term(spec, i + 1) - _term(spec, i)


def characteristic_prefix(alpha: IrrationalSlope, length: int) -> list[int]:
    """First letters of the characteristic word of the slope.

    Letter i is floor((i+2)*alpha) - floor((i+1)*alpha) - floor(alpha): the
    difference of consecutive floors of the slope's floor stream.
    """
    if length < 1:
        return []
    floors = alpha.floors()
    prev = f1 = next(floors)
    letters = []
    for f in islice(floors, length):
        letters.append(f - prev - f1)
        prev = f
    return letters


class FactorSet(NamedTuple):
    """The n+1 length-n factors of a word, in anti-lexicographic order."""

    n: int
    factors: tuple[Factor, ...]


def word_factor_set(spec: WordSpec, n: int) -> FactorSet:
    """Distinct length-n factors of a word, by sliding-window collection.

    The scan raises SafetyCapExceeded after SCAN_CAP_FACTOR*n^2 positions
    without all n+1 factors.  A large partial quotient spaces the rare
    factors further apart than that: cf:[0;2,5000,...] reaches the cap at
    n = 3 and cf:[0;3000,1,...] at n = 5, although both slopes are valid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = SCAN_CAP_FACTOR * n * n
    seen: set[Factor] = set()
    window: list[int] = []
    for i in range(cap):
        window.append(word_letter(spec, i))
        if len(window) > n:
            window.pop(0)
        if len(window) == n:
            seen.add(tuple(window))
            if len(seen) == n + 1:
                return FactorSet(n, tuple(sorted(seen, reverse=True)))
    raise SafetyCapExceeded(
        f"found only {len(seen)} of {n + 1} factors within {cap} positions"
    )


def factor_set(alpha: IrrationalSlope, n: int) -> FactorSet:
    """Distinct length-n factors of the characteristic word of alpha."""
    return word_factor_set(WordSpec(alpha), n)


def factor_set_from_perm(pi: FracPermutation) -> FactorSet:
    """Factor set rebuilt from the ordering permutation's matrix columns.

    The auxiliary-matrix columns are the factors, already produced in
    anti-lexicographic order.
    """
    return FactorSet(pi.n, aux_matrix(pi).columns)
