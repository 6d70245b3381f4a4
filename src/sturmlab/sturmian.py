"""Sturmian words and their length-n factor sets.

Letters are first differences of floors (or ceilings) of i*alpha + beta; the
slope enters only through its fractional part, so slopes outside (0, 1) are
reduced mod 1.  A word of irrational slope has exactly n+1 distinct length-n
factors, listed here in anti-lexicographic order: descending as 0/1 tuples,
first letter most significant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import SafetyCapExceeded
from .irrational import IrrationalSlope
from .matrep import aux_matrix
from .permtool import FracPermutation

# window scans stop after this many times n^2 positions
SCAN_CAP_FACTOR = 50

Factor = tuple[int, ...]


@dataclass(frozen=True)
class WordSpec:
    """Word description: slope, rational intercept and rounding choice.

    intercept None means "use the slope itself", giving the characteristic
    word of the slope.
    """

    slope: IrrationalSlope
    intercept: Fraction | None = None
    ceiling: bool = False

    def __post_init__(self):
        if self.intercept is not None:
            object.__setattr__(self, "intercept", Fraction(self.intercept))


def _term_floor(spec: WordSpec, k: int) -> int:
    """floor(k*{slope} + intercept), exactly; k = 0 terms are rational."""
    alpha = spec.slope
    if spec.intercept is None:
        # beta = slope: k*a + a = (k+1)*a
        return alpha.floor_reduced(k + 1)
    p, q = spec.intercept.numerator, spec.intercept.denominator
    if k == 0:
        return p // q
    # (k*{a} + p/q) = ((k*q)*a + p - k*q*floor(a)) / q
    u = k * q
    return alpha._floor_affine(u, p - u * alpha.floor_multiple(1), q)


def _term_ceil(spec: WordSpec, k: int) -> int:
    alpha = spec.slope
    if spec.intercept is None:
        return alpha.floor_reduced(k + 1) + 1  # irrational, so ceil = floor + 1
    p, q = spec.intercept.numerator, spec.intercept.denominator
    if k == 0:
        return -((-p) // q)
    u = k * q
    return -alpha._floor_affine(-u, -(p - u * alpha.floor_multiple(1)), q)


def word_letter(spec: WordSpec, i: int) -> int:
    """Letter i (i >= 0) of the word; always 0 or 1."""
    if i < 0:
        raise ValueError("letter index must be >= 0")
    term = _term_ceil if spec.ceiling else _term_floor
    return term(spec, i + 1) - term(spec, i)


def word_prefix(spec: WordSpec, length: int) -> list[int]:
    return [word_letter(spec, i) for i in range(length)]


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


@dataclass(frozen=True)
class FactorSet:
    """The n+1 length-n factors of a word, in anti-lexicographic order."""

    n: int
    factors: tuple[Factor, ...]


def _collect_factors(letters, n: int, cap: int) -> set[Factor]:
    seen: set[Factor] = set()
    window: list[int] = []
    for i in range(cap):
        window.append(letters(i))
        if len(window) > n:
            window.pop(0)
        if len(window) == n:
            seen.add(tuple(window))
            if len(seen) == n + 1:
                return seen
    raise SafetyCapExceeded(
        f"found only {len(seen)} of {n + 1} factors within {cap} positions"
    )


def word_factor_set(spec: WordSpec, n: int, scan_cap: int | None = None) -> FactorSet:
    """Distinct length-n factors of a word, by sliding-window collection.

    The scan aborts loudly after scan_cap (default 50*n^2) positions, which
    no irrational slope can reach before producing all n+1 factors.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = SCAN_CAP_FACTOR * n * n if scan_cap is None else scan_cap
    seen = _collect_factors(lambda i: word_letter(spec, i), n, max(cap, n))
    return FactorSet(n, tuple(sorted(seen, reverse=True)))


def factor_set(
    alpha: IrrationalSlope, n: int, scan_cap: int | None = None
) -> FactorSet:
    """Distinct length-n factors of the characteristic word of alpha."""
    return word_factor_set(WordSpec(alpha), n, scan_cap)


def factor_set_from_perm(pi: FracPermutation) -> FactorSet:
    """Factor set rebuilt from the ordering permutation's matrix columns.

    The auxiliary-matrix columns are the factors, already produced in
    anti-lexicographic order.
    """
    return FactorSet(pi.n, aux_matrix(pi).columns)
