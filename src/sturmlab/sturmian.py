"""Sturmian words and their length-n factor sets.

Letter i of the characteristic word of alpha is floor((i+2)*alpha) -
floor((i+1)*alpha) - floor(alpha), so slopes outside (0, 1) act through their
fractional part.  A word of irrational slope has exactly n+1 distinct length-n
factors, the same for every intercept (``oracles.mechanical_factors`` reads the
other intercepts for the tests), listed here in anti-lexicographic order:
descending as 0/1 tuples, first letter most significant.
"""
from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .errors import SafetyCapExceeded
from .irrational import IrrationalSlope
from .matrep import aux_matrix
from .permtool import FracPermutation

# window scans stop after this many times n^2 positions
SCAN_CAP_FACTOR = 50

Factor = tuple[int, ...]


def word_letter(alpha: IrrationalSlope, i: int) -> int:
    """Letter i (i >= 0) of the characteristic word of alpha; always 0 or 1."""
    if i < 0:
        raise ValueError("letter index must be >= 0")
    return alpha.floor_reduced(i + 2) - alpha.floor_reduced(i + 1)


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


def factor_set(alpha: IrrationalSlope, n: int) -> FactorSet:
    """Distinct length-n factors of the characteristic word of alpha, by
    sliding-window collection.

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
        window.append(word_letter(alpha, i))
        if len(window) > n:
            window.pop(0)
        if len(window) == n:
            seen.add(tuple(window))
            if len(seen) == n + 1:
                return FactorSet(n, tuple(sorted(seen, reverse=True)))
    raise SafetyCapExceeded(
        f"found only {len(seen)} of {n + 1} factors within {cap} positions"
    )


def factor_set_from_perm(pi: FracPermutation) -> FactorSet:
    """Factor set rebuilt from the ordering permutation's matrix columns.

    The auxiliary-matrix columns are the factors, already produced in
    anti-lexicographic order.
    """
    return FactorSet(pi.n, aux_matrix(pi).columns)
