"""Exact irrational slopes.

Every slope is an irrational number presented by its stream of
continued-fraction partial quotients (for quadratic surds the stream is
computed with ``math.isqrt``).  Floors and comparisons reduce to integer
arithmetic on its convergents p_m/q_m; no floating point is used anywhere.

The floor kernel rests on the best-approximation bound
|value - p_m/q_m| < 1/(q_m q_{m+1}).  For 1 <= k < q_{m+1} it puts k*value
within 1/q_m of k*p_m/q_m, on the side where the value lies (above p_m/q_m
for even m, below for odd m), so

    floor(k*value) = (k*p_m + r) // q_m    with r = -(m mod 2).

:meth:`IrrationalSlope.floor_line` gives this line (p_m, r, q_m) and is the
only code that reads it off the convergents; the index m only moves forward,
when k reaches q_{m+1}.  Affine floors need no rule of their own: for
integers v and w >= 1, floor((x + v)/w) = (floor(x) + v) // w, and
floor(-x) = -floor(x) - 1 for irrational x.  The tests check the rule
against interval refinement, ``oracles.floor_affine_cf``.

Scans over k = start, start + step, ... use :meth:`IrrationalSlope.floors`,
a stream of floor(k*value) that divides once per line and then carries
quotient and remainder forward by one addition per index.  Random access
goes through :meth:`IrrationalSlope.floor_multiple`, which caches small
indices.  A sum over a whole block of floors takes the block's line and
:func:`floor_sum`.

Slope expressions accepted by :func:`parse_slope`:

    phi                     (-1+sqrt(5))/2
    e                       Euler's number
    1/e                     its reciprocal
    sqrt(D)                 D a non-square integer >= 2
    (A+B*sqrt(D))/C         integer literals, B may be negative
    cf:[a0;a1,a2,...]       explicit continued fraction; the trailing ``...``
                            repeats the listed quotients after a0 forever

A finite continued fraction denotes a rational and is rejected.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    CoefficientsExhausted,
    InvalidSlope,
    RefinementBudgetExceeded,
    SlopeSyntaxError,
)

DEFAULT_BUDGET = 10_000

# floor_multiple caches the floors of indices up to this, for the random
# access of comparisons and orderings; scans read the uncached floors stream
_FLOOR_CACHE_LIMIT = 100_000


class Convergent(NamedTuple):
    """Continued-fraction convergent p/q in lowest terms."""

    index: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _floor_surd(p: int, q: int, d: int, r: int) -> int:
    """Exact floor of (p + q*sqrt(d)) / r for integers with r != 0.

    Uses isqrt brackets: sqrt(q^2 d) lies strictly between s and s+1 when
    q != 0 and d is not a perfect square, which pins the floor.
    """
    if r < 0:
        p, q, r = -p, -q, -r
    s = math.isqrt(q * q * d)
    num = p + s if q >= 0 else p - s - 1
    return num // r


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} (a*i + b) // m for n >= 0 and m >= 1, in O(log m) steps.

    With a and b reduced mod m, the sum counts lattice points under a line;
    read along the other axis it is the same sum with a and m swapped.
    """
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        y = a * n + b
        if y < m:
            return total
        n, b, m, a = y // m, y % m, a, m


# Quotient streams are module-level generators over plain values, so that a
# slope's pending stream holds no reference back to the slope.


def _surd_quotients(p: int, q: int, d: int, r: int) -> Iterator[int]:
    """Partial quotients of (p + q*sqrt(d)) / r for r > 0, gcd-reduced."""
    while True:
        a = _floor_surd(p, q, d, r)
        yield a
        p -= a * r
        # 1/x = r*(p - q*sqrt(d)) / (p^2 - q^2 d)
        denom = p * p - q * q * d
        p, q, r = r * p, -r * q, denom
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        p, q, r = p // g, q // g, r // g


def _e_quotients() -> Iterator[int]:
    """Partial quotients of e: [2; 1,2,1, 1,4,1, 1,6,1, ...]."""
    yield 2
    m = 2
    while True:
        yield 1
        yield m
        yield 1
        m += 2


def _cf_quotients(
    initial: Sequence[int],
    repeat: Sequence[int] | None,
    tail: Callable[[int], int | None] | None,
) -> Iterator[int]:
    """The initial quotients, then the repeat block forever or the tail rule."""
    yield from initial
    if repeat is not None:
        while True:
            yield from repeat
    k = len(initial)
    while True:
        yield tail(k)
        k += 1


def _quotient(a: object, idx: int) -> int:
    """Partial quotient a_idx as an int, if it passes operator.index and, after a0, is >= 1."""
    try:
        a = operator.index(a)
    except TypeError:
        raise InvalidSlope(f"partial quotient a{idx} = {a!r} is not an integer") from None
    if idx > 0 and a < 1:
        raise InvalidSlope(f"partial quotients must be >= 1 after a0: a{idx} = {a}")
    return a


class IrrationalSlope:
    """Base class: exact floors and comparisons."""

    def __init__(self, budget: int | None = None):
        self.budget = DEFAULT_BUDGET if budget is None else int(budget)
        if self.budget < 1:
            raise ValueError("refinement budget must be >= 1")
        self._quots: list[int] = []
        self._qiter: Iterator[int] | None = None
        self._convs: list[tuple[int, int]] = []
        self._floors: dict[int, int] = {}
        # floor kernel state at convergent index m: p_m, q_m, q_{m+1}; q_{m+1} = 0
        # until the first floor, which then loads the convergents
        self._m = 0
        self._pm = self._qm = self._qn = 0
        # "refine_steps" counts advances of the kernel's convergent index
        self.stats = {"floors": 0, "refine_steps": 0}

    # -- partial quotient / convergent machinery ------------------------------

    def _quotient_iter(self) -> Iterator[int]:
        raise NotImplementedError

    def partial_quotient(self, k: int) -> int:
        if k < 0:
            raise ValueError("partial quotient index must be >= 0")
        if self._qiter is None:
            self._qiter = self._quotient_iter()
        for idx in range(len(self._quots), k + 1):
            a = next(self._qiter, None)
            if a is None:
                raise CoefficientsExhausted(
                    f"partial-quotient source ended before index {k}"
                )
            self._quots.append(_quotient(a, idx))
        return self._quots[k]

    def convergent(self, k: int) -> Convergent:
        """k-th convergent; consecutive convergents bracket the value."""
        if k < 0:
            raise ValueError("convergent index must be >= 0")
        convs = self._convs
        while len(convs) <= k:
            a = self.partial_quotient(len(convs))
            # the seeds p_{-2}/q_{-2} = 0/1 and p_{-1}/q_{-1} = 1/0 start the recurrence
            (p0, q0), (p1, q1) = ([(0, 1), (1, 0)] + convs[-2:])[-2:]
            convs.append((a * p1 + p0, a * q1 + q0))
        p, q = convs[k]
        return Convergent(k, p, q)

    # -- exact floors ----------------------------------------------------------

    def floor_line(self, n: int) -> tuple[int, int, int]:
        """(p, r, q) with floor(k*value) == (k*p + r) // q for 1 <= k <= n.

        The one floor rule of the kernel.  It moves to the least convergent
        index m >= its current one with q_{m+1} > n and reads p = p_m,
        q = q_m and r = -(m % 2).  An m past budget + 1 raises
        RefinementBudgetExceeded and leaves the kernel where it was.  No
        floor is counted.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n >= self._qn:
            m = self._m
            while self.convergent(m + 1).q <= n:
                m += 1
                if m > self.budget + 1:
                    raise RefinementBudgetExceeded(
                        f"a floor of {n}*alpha needs a convergent index above "
                        f"budget + 1 = {self.budget + 1}"
                    )
            self.stats["refine_steps"] += m - self._m
            self._m = m
            self._pm, self._qm = self._convs[m]
            self._qn = self._convs[m + 1][1]
        return self._pm, -(self._m % 2), self._qm

    def floor_multiple(self, k: int) -> int:
        """Exact floor(k * value) for k >= 1."""
        if k < 1:
            raise ValueError("k must be >= 1")
        f = self._floors.get(k)
        if f is None:
            p, r, q = self.floor_line(k)
            f = (k * p + r) // q
            self.stats["floors"] += 1
            if k <= _FLOOR_CACHE_LIMIT:
                self._floors[k] = f
        return f

    def floors(self, start: int = 1, step: int = 1) -> Iterator[int]:
        """Yield floor(k * value) exactly for k = start, start + step, ....

        One divmod by the :meth:`floor_line` of k opens each run of indices
        below q_{m+1}, and each later term carries quotient and remainder
        forward by one addition.  At k = q_{m+1} the next line opens, under
        the budget.  The floors bypass the cache; stats["floors"] grows by
        one per yielded floor, counted at the end of each run and, for a
        stream closed mid-run, when it is closed.
        """
        if start < 1 or step < 1:
            raise ValueError("start and step must be >= 1")
        stats = self.stats
        k = start
        i = -1  # the current run has yielded i + 1 floors not yet counted
        try:
            while True:
                p, r, qm = self.floor_line(k)
                f, r = divmod(k * p + r, qm)
                df, dr = divmod(step * p, qm)
                df1, lim = df + 1, qm - dr  # r + dr >= q_m iff r >= lim
                n = (self._qn - k + step - 1) // step
                for i in range(n):
                    yield f
                    if r >= lim:
                        r -= lim
                        f += df1
                    else:
                        r += dr
                        f += df
                stats["floors"] += n
                i = -1
                k += n * step
        finally:
            stats["floors"] += i + 1

    def floor_reduced(self, k: int) -> int:
        """floor(k * {value}) where {x} is the fractional part."""
        return self.floor_multiple(k) - k * self.floor_multiple(1)

    # -- exact comparisons -----------------------------------------------------

    def compare_multiple(self, k: int, t: int) -> int:
        """Sign of k*value - t for integer t and k != 0; never zero."""
        if k == 0:
            raise ValueError("k must be nonzero")
        if k > 0:
            return -1 if self.floor_multiple(k) < t else 1
        return -1 if self.floor_multiple(-k) >= -t else 1

    def frac_compare(self, i: int, j: int) -> int:
        """Compare {i*value} with {j*value}: -1, 0 or +1.

        {i a} < {j a} iff (i-j)a < floor(i a) - floor(j a), an integer, so one
        extra floor settles the comparison exactly.
        """
        if i < 1 or j < 1:
            raise ValueError("indices must be >= 1")
        if i == j:
            return 0
        return self.compare_multiple(i - j, self.floor_multiple(i) - self.floor_multiple(j))

    def expression(self) -> str:
        """Slope expression; it parses back to an equal slope, except for an
        ExplicitCF with a pre-periodic block or a tail rule (informational)."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.expression()}>"


class QuadraticSurd(IrrationalSlope):
    """(a + b*sqrt(d)) / c with integer parameters, b != 0, d not a square.

    The partial quotients come from isqrt floors of the surd's complete
    quotients; floors of multiples use the shared convergent kernel.
    """

    def __init__(self, a: int, b: int, d: int, c: int, budget: int | None = None):
        super().__init__(budget)
        if c == 0:
            raise InvalidSlope("denominator c must be nonzero")
        if b == 0:
            raise InvalidSlope("b = 0 makes the value rational")
        if d < 2:
            raise InvalidSlope(f"d = {d} must be >= 2")
        if math.isqrt(d) ** 2 == d:
            raise InvalidSlope(f"d = {d} is a perfect square, value is rational")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        self.a, self.b, self.d, self.c = a // g, b // g, d, c // g

    def _quotient_iter(self) -> Iterator[int]:
        return _surd_quotients(self.a, self.b, self.d, self.c)

    def expression(self) -> str:
        if (self.a, self.b, self.d, self.c) == (-1, 1, 5, 2):
            return "phi"
        if self.a == 0 and self.b == 1 and self.c == 1:
            return f"sqrt({self.d})"
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"


class EulerE(IrrationalSlope):
    """Euler's number via its partial-quotient pattern [2; 1,2,1, 1,4,1, ...]."""

    def _quotient_iter(self) -> Iterator[int]:
        return _e_quotients()

    def expression(self) -> str:
        return "e"


class EulerEInv(IrrationalSlope):
    """1/e: the reciprocal prepends a zero quotient to e's expansion."""

    def _quotient_iter(self) -> Iterator[int]:
        return itertools.chain((0,), _e_quotients())

    def expression(self) -> str:
        return "1/e"


class ExplicitCF(IrrationalSlope):
    """Slope given by explicit partial quotients plus an infinite tail rule.

    ``repeat`` cycles the given block forever; ``tail`` is a callable giving
    a_k for k >= len(initial) and may return None to signal exhaustion.
    Omitting both would denote a rational, which is rejected.
    """

    def __init__(
        self,
        initial: Sequence[int],
        repeat: Sequence[int] | None = None,
        tail: Callable[[int], int | None] | None = None,
        budget: int | None = None,
    ):
        super().__init__(budget)
        initial = tuple(_quotient(a, i) for i, a in enumerate(initial))
        if not initial:
            raise InvalidSlope("need at least the leading partial quotient")
        if repeat is not None and tail is not None:
            raise InvalidSlope("give either a repeat block or a tail rule, not both")
        if repeat is not None:
            repeat = tuple(_quotient(a, len(initial) + i) for i, a in enumerate(repeat))
            if not repeat:
                raise InvalidSlope("repeat block must be non-empty")
        elif tail is None:
            raise InvalidSlope(
                "finite continued fraction denotes a rational; "
                "give a repeat block or a tail rule"
            )
        self.initial = initial
        self.repeat = repeat
        self.tail = tail

    def _quotient_iter(self) -> Iterator[int]:
        return _cf_quotients(self.initial, self.repeat, self.tail)

    def expression(self) -> str:
        if self.repeat is not None and self.initial[1:] == self.repeat:
            block = ",".join(str(a) for a in self.repeat)
            return f"cf:[{self.initial[0]};{block},...]"
        # pre-periodic blocks and tail rules have no grammar form; informational only
        parts = [str(a) for a in self.initial[1:]]
        if self.repeat is None:
            parts.append("<tail rule>")
        else:
            parts.append("({})*".format(",".join(str(a) for a in self.repeat)))
        return f"cf:[{self.initial[0]};{','.join(parts)}]"


# -- slope expressions -----------------------------------------------------------

_SQRT_RE = re.compile(r"^sqrt\((\d+)\)$")
_SURD_RE = re.compile(r"^\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(-?\d+)$")
_CF_RE = re.compile(r"^cf:\[(-?\d+);(.*)\]$")


def phi(budget: int | None = None) -> QuadraticSurd:
    return QuadraticSurd(-1, 1, 5, 2, budget=budget)


def parse_slope(text: str, budget: int | None = None) -> IrrationalSlope:
    """Parse a slope expression; raises SlopeSyntaxError naming the bad token.
    Whitespace may separate tokens but not the letters or digits of one."""
    split = re.search(r"\w+\s+\w+", text)
    if split:
        raise SlopeSyntaxError(f"whitespace inside the token {split.group()!r} in slope expression")
    expr = "".join(text.split())
    if not expr:
        raise SlopeSyntaxError("empty slope expression")
    if expr == "phi":
        return phi(budget)
    if expr == "e":
        return EulerE(budget)
    if expr == "1/e":
        return EulerEInv(budget)
    m = _SQRT_RE.match(expr)
    if m:
        return QuadraticSurd(0, 1, int(m.group(1)), 1, budget=budget)
    m = _SURD_RE.match(expr)
    if m:
        a, b, d, c = (int(m.group(i)) for i in range(1, 5))
        return QuadraticSurd(a, b, d, c, budget=budget)
    m = _CF_RE.match(expr)
    if m:
        return _parse_cf(m.group(1), m.group(2), budget)
    if expr.startswith("cf:"):
        raise SlopeSyntaxError(
            f"malformed continued fraction {text.strip()!r}: "
            "expected cf:[a0;a1,a2,...]"
        )
    if expr.startswith("sqrt") or expr.startswith("("):
        raise SlopeSyntaxError(
            f"malformed surd expression {text.strip()!r}: "
            "expected sqrt(D) or (A+B*sqrt(D))/C with integer literals"
        )
    raise SlopeSyntaxError(f"unrecognized token {text.strip()!r} in slope expression")


def _parse_cf(head: str, body: str, budget: int | None) -> ExplicitCF:
    repeat = False
    if body.endswith("..."):
        repeat = True
        body = body[:-3].removesuffix(",")
    quots = []
    for tok in body.split(",") if body else ():
        if not re.fullmatch(r"-?\d+", tok):
            raise SlopeSyntaxError(f"invalid partial quotient token {tok!r}")
        quots.append(int(tok))
    if repeat:
        if not quots:
            raise SlopeSyntaxError("repeating continued fraction needs quotients before '...'")
        return ExplicitCF([int(head)] + quots, repeat=quots, budget=budget)
    return ExplicitCF([int(head)] + quots, budget=budget)
