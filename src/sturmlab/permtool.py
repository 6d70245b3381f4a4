"""Permutations induced by ordering fractional parts {alpha}, ..., {n*alpha}.

pi(k) is the index whose fractional part is k-th smallest.  Composition is
(sigma*tau)(i) = sigma(tau(i)), i.e. the right factor acts first.

The ordering is built by :func:`pi_sos`, the three-distance (Sos) recurrence:
once the indices of the least and the greatest fractional part are known,
each next index follows from the previous one by one integer step.  Both
extremes lie among the semiconvergent denominators <= n of the slope
(:func:`extreme_positions`), so an ordering costs O(log n) exact comparisons
and O(n) integer steps.  The table and the Farey integral sweep a range of
sizes down one line in one loop (:func:`_deletion_sweep`): the ordering of
1..n-1 is that of 1..n with index n deleted.  The sweep reads sign and order
off a cycle walk (:func:`_sign_order`) only at the top size and at the sizes
that are not extremal.  Size n is extremal when {n*alpha} is the least or
the greatest point, or when {(n+1)*alpha} would be (n + 1 = first + last);
there the order is a multiplicative order
(:func:`_extremal_order`), from the factorization of its modulus.  Deleting
n at rank r flips the sign by (-1)^(n-r), so the sign needs no walk, and a
walked size cross-checks it.  The tests check the ordering against a
comparison sort, ``oracles.pi_direct``.  The sign alone needs no ordering:
at one size and summed over sizes it is one walk along the floor line
(:func:`_sign_run`), folded in O(log n) products (:func:`_euclid_product`).

B(k), the number of q < k with {q*alpha} < {k*alpha}, is a floor sum:
{j*alpha} + {(k-j)*alpha} = {k*alpha} + [{j*alpha} > {k*alpha}] summed over
j < k gives B(k) = 2*sum_{j<k} floor(j*alpha) + (k-1)*(1 - floor(k*alpha)).
:func:`b_stream` runs its first-difference recurrence along the floor stream;
a direct count, ``oracles.b_alpha``, is the tests' oracle.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .errors import RecurrenceMismatch
from .irrational import IrrationalSlope


class FracPermutation:
    """Permutation of {1..n} in one-line notation; immutable once built."""

    __slots__ = ("n", "one_line", "_cycles")

    def __init__(self, n: int, one_line: tuple[int, ...]):
        # One cycle walk proves the bijection and finds the cycles that sign,
        # order and the CLI read: with every entry exactly an int in 1..n, a
        # walk back at its start before any seen index closes a new cycle.
        line = one_line
        if len(line) == n and (
            not n or set(map(type, line)) == {int} and min(line) >= 1 and max(line) <= n
        ):
            line = (0, *line)  # line[i] is the image of i
            seen, cycles = bytearray(n + 1), []
            start = seen.find(0, 1)
            while start > 0:
                seen[start] = 1
                cyc, j = [start], line[start]
                while not seen[j]:
                    seen[j] = 1
                    cyc.append(j)
                    j = line[j]
                if j != start:
                    break
                cycles.append(tuple(cyc))
                start = seen.find(0, start)
            else:
                # a list or other sequence is stored as a tuple, so equal
                # permutations compare and hash alike whatever they were built from
                one_line = tuple(one_line)
                for name, value in ("n", n), ("one_line", one_line), ("_cycles", tuple(cycles)):
                    object.__setattr__(self, name, value)
                return
        raise ValueError(f"not a permutation of 1..{n}: {one_line}")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        # equal one-line tuples have equal lengths, hence equal n
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.one_line == other.one_line

    def __hash__(self):
        return hash((self.n, self.one_line))

    def __repr__(self):
        return f"FracPermutation(n={self.n!r}, one_line={self.one_line!r})"

    def __reduce__(self):  # copies and pickles are rebuilt by the constructor
        return FracPermutation, (self.n, self.one_line)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.one_line[i - 1]

    @classmethod
    def identity(cls, n: int) -> "FracPermutation":
        return cls(n, tuple(range(1, n + 1)))

    def inverse(self) -> "FracPermutation":
        inv = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            inv[v - 1] = i
        return FracPermutation(self.n, tuple(inv))

    def compose(self, other: "FracPermutation") -> "FracPermutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if other.n != self.n:
            raise ValueError("sizes differ")
        return FracPermutation(
            self.n, tuple(self.one_line[v - 1] for v in other.one_line)
        )

    __mul__ = compose

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least element, sorted by it."""
        return list(self._cycles)

    def fixed_points(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self(i) == i]

    def cycle_string(self) -> str:
        # a tuple's repr without its commas; unlike joining str() of every
        # entry, this makes no string object per entry
        return "".join(str(c).replace(",", "") for c in self._cycles)


def extreme_positions(alpha: IrrationalSlope, n: int) -> tuple[int, int]:
    """(first, last): the k in 1..n with the least and the greatest {k*alpha}.

    The least {k*alpha} over k <= n is the best approximation from one side,
    and the greatest the best from the other; both are attained at
    semiconvergent denominators q_{j-1} + t*q_j <= n with 1 <= t <= a_{j+1}
    (q_{-1} = 0, so j = 0 gives 1..a_1).  Within one j a larger t comes
    closer, so only the largest t allowed by n is a candidate, and together
    with the convergent denominators q_j <= n that leaves O(log n) candidates,
    compared exactly.  The denominators do not depend on a_0, so slopes above
    1 and negative slopes need nothing extra.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    candidates = [1]  # q_0
    q_prev, q = 0, 1  # q_{j-1}, q_j for j = 0
    j = 0
    while q_prev + q <= n:
        a = alpha.partial_quotient(j + 1)
        candidates.append(q_prev + min(a, (n - q_prev) // q) * q)
        q_prev, q = q, q_prev + a * q
        j += 1
    first = last = 1
    for k in candidates:
        if alpha.frac_compare(k, first) < 0:
            first = k
        elif alpha.frac_compare(k, last) > 0:
            last = k
    return first, last


def _sos_line(n: int, first: int, last: int, length: int | None = None) -> list[int]:
    """The three-distance (Sos) recurrence from first, as a one-line list.

    With first and last the indices of the least and the greatest {k*alpha},
    the index after k is k + first when k + first <= n, else k - last when
    k > last, else k + first - last.  Every 1 <= first, last <= n keeps each
    index in 1..n; other pairs may repeat an index or not end at last.
    A length, if given, stops the list after its first length ranks.
    """
    line = [first]
    add = line.append
    k = first
    low, up, step = n - first, min(n - first, last), first - last
    for _ in range((n if length is None else length) - 1):
        if k <= up:
            k += first
        elif k <= last:
            k += step
        elif k > low:
            k -= last  # else k > last with k + first <= n: a stall
        add(k)
    return line


def _sign_order(line: list[int], first: int, last: int) -> tuple[int, int]:
    """(sign, order) of the ordering whose rank-i index is line[i], line[0] == 0.

    One cycle walk over a copy of the line, each visited entry set to 0, with
    no permutation object.  The entries must lie in 0..n, n = len(line) - 1:
    those of :func:`_sos_line` with extremes in 1..n do, and so do those of a
    bijection with its greatest index deleted.  RecurrenceMismatch unless
    line[1] == first, line[-1] == last and every walk meets no visited index
    before its start: that proves a bijection without a sort.  The walk stops
    once its closed cycles hold all n ranks, since such a cover is a bijection.
    """
    n = len(line) - 1
    if n < 1 or line[1] != first or line[-1] != last:
        raise RecurrenceMismatch(f"recurrence for n={n} does not run from {first} to {last}")
    p = line.copy()
    lengths, placed = [], 0
    for start in range(1, n + 1):
        if j := p[start]:
            p[start] = 0
            length = 1
            while k := p[j]:
                p[j] = 0
                j = k
                length += 1
            if j != start:
                raise RecurrenceMismatch(f"recurrence produced a non-bijection for n={n}")
            lengths.append(length)
            placed += length
            if placed == n:
                break
    return -1 if (n - len(lengths)) % 2 else 1, math.lcm(*lengths)


def _deletion_sweep(line: list[int], first: int, last: int, bottom: int) -> Iterator[tuple[int, int, int]]:
    """Yield (n, sign, order) for n = len(line) - 1 down to bottom.

    line is [0, *Sos line] at the top size, from the extremes (first, last),
    and holds the ordering at n while n is yielded.  The top line is walked
    (:func:`_sign_order`): it must run from first to last, and the walk
    proves it a bijection.  Each smaller size deletes its n at rank r, a
    cycle of length n - r + 1 to the end, so the sign flips by (-1)^(n-r);
    an extremal size takes its order from :func:`_extremal_order`, and every
    other size is walked, its sign checked against the deletion.
    """
    n = len(line) - 1
    sign, order = _sign_order(line, first, last)
    yield n, sign, order
    while n > bottom:
        r = n if line[-1] == n else line.index(n)
        del line[r]
        if (n - r) % 2:
            sign = -sign
        n -= 1
        first, last = line[1], line[-1]
        # integer tests first: most sizes are not extremal
        if first + last == n + 1 or last == n or first == n:
            order = _extremal_order(n, first, last)
        else:
            walked, order = _sign_order(line, first, last)
            if walked != sign:
                raise RecurrenceMismatch(f"walked sign {walked} at n={n}, deletion sign {sign}")
        yield n, sign, order


def range_sign_orders(alpha: IrrationalSlope, start: int, end: int) -> list[tuple[int, int, int]]:
    """(n, sign, order) of the ordering permutation for n = start..end, off
    one Sos line built at end and swept down to start (:func:`_deletion_sweep`)."""
    if not 1 <= start <= end:
        raise ValueError(f"bad range {start}..{end}")
    first, last = extreme_positions(alpha, end)
    return list(_deletion_sweep([0, *_sos_line(end, first, last)], first, last, start))[::-1]


def pi_sos(alpha: IrrationalSlope, n: int) -> FracPermutation:
    """Build the ordering permutation from its three-term recurrence.

    This is the production route.  :func:`extreme_positions` finds the
    indices of the least and the greatest fractional part among the
    semiconvergent denominators <= n with O(log n) exact comparisons; by the
    three distance theorem :func:`_sos_line` then needs no further comparison.
    A result that is not a permutation of 1..n raises RecurrenceMismatch.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        return FracPermutation(n, tuple(_sos_line(n, *extreme_positions(alpha, n))))
    except ValueError:
        raise RecurrenceMismatch(f"recurrence produced a non-bijection for n={n}") from None


def b_stream(alpha: IrrationalSlope) -> Iterator[tuple[int, int]]:
    """Yield (k, B(k)) for k = 1, 2, ... in O(1) state per step.

    From B(k) = 2*sum_{j<k} floor(j*alpha) + (k-1)*(1 - floor(k*alpha)),
    B(k) - B(k-1) = 1 + floor((k-1)*alpha) - (k-1)*(floor(k*alpha) -
    floor((k-1)*alpha)), starting at B(0) = -1; an integer added to alpha
    cancels, so it holds for every slope.  One floor of the slope's stream
    (:meth:`IrrationalSlope.floors`) is read per step, so exactly k floors
    have been read when k is yielded.
    """
    b, prev, k = -1, 0, 0  # B(k) and floor(k*alpha) at k = 0
    for f in alpha.floors():
        b += 1 + prev - k * (f - prev)  # B(k+1), with f = floor((k+1)*alpha)
        k += 1
        yield k, b
        prev = f


def sign_direct(pi: FracPermutation) -> int:
    """Signature via cycle decomposition."""
    return -1 if (pi.n - len(pi._cycles)) % 2 else 1


def _euclid_product(p: int, q: int, r: int, n: int, up, right, mul, one):
    """The word prod_{l=1..n} up^(f(l) - f(l-1)) * right, f(l) = (p*l + r) // q.

    Needs p >= 0 and 0 <= r < q; mul(x, y) is x then y in an associative
    product with identity one.  The universal Euclidean algorithm: p >= q
    folds up^(p // q) into each right, and p < q reads the same word with
    the roles of up and right swapped, along the line of slope q/p.  So the
    pairs (p, q) run as in gcd(p, q), and the word takes O(log(p + q + n))
    products.  The levels are unrolled into a loop: each wraps the word of
    the next between a head and a tail.
    """

    def power(x, k):
        out = None  # one, before any factor
        while k:
            if k & 1:
                out = x if out is None else mul(out, x)
            k >>= 1
            if k:
                x = mul(x, x)
        return one if out is None else out

    heads, tails = [], []
    while True:
        m = (p * n + r) // q  # the ups in the word
        if m == 0:
            word = power(right, n)
            break
        if p >= q:
            right = mul(power(up, p // q), right)
            p %= q
            continue
        # the k-th up follows (q*k - r - 1) // p rights
        heads.append(mul(power(right, (q - r - 1) // p), up))
        tails.append(power(right, n - (q * m - r - 1) // p))
        p, q, r, n, up, right = q, p, (q - r - 1) % p, m - 1, right, up
    while heads:
        word = mul(mul(heads.pop(), word), tails.pop())
    return word


# The sign walk, as a monoid of ints for :func:`_euclid_product`.  The walk
# reads floors f(l) = floor(2*l*alpha) for l = 1, 2, ...: U raises the current
# floor by one and R steps to the next l.  An element maps the parity of the
# current floor on entry to (flip, total, hi, lo): whether the sign flips, the
# change of the running total entered with sign +1, and its largest and least
# value after each R (None before the first R).  A sign of -1 on entry negates
# the total and swaps hi and lo.  An element is (U count mod 2, branch for
# parity 0, branch for parity 1).
_NO_STEP = (0, 0, None, None)
_WALK_ONE = (0, _NO_STEP, _NO_STEP)
_WALK_U = (1, _NO_STEP, _NO_STEP)
# R flips the sign when the floor is odd, then adds 2*sign: sizes 2l and 2l+1
_WALK_R = (0, (0, 2, 2, 2), (1, -2, -2, -2))


def _walk_then(a: tuple, b: tuple) -> tuple:
    """Branch a, then branch b entered with the sign a leaves."""
    if a[2] is None:
        return b
    if b[2] is None:
        return a
    f, t, hi, lo = a
    g, s, bhi, blo = b
    if f:
        s, bhi, blo = -s, -blo, -bhi
    bhi += t
    blo += t
    # conditionals, not max() and min(): this is the walk's inner step
    return f ^ g, t + s, hi if hi > bhi else bhi, lo if lo < blo else blo


def _walk_mul(x: tuple, y: tuple) -> tuple:
    """x, then y: y is entered at the parity x leaves."""
    u = x[0]
    return u ^ y[0], _walk_then(x[1], y[1 + u]), _walk_then(x[2], y[2 - u])


def _sign_walk(line: tuple[int, int, int], pairs: int) -> tuple[int, int, int | None, int | None]:
    """(sign, total, hi, lo) of the sign walk over l = 1..pairs, from sign +1.

    line = (p, r, q) gives floor(k*alpha) = (k*p + r) // q for k <= 2*pairs
    (:meth:`IrrationalSlope.floor_line`), so f(l) = (2*p*l + r) // q.  U
    flips only a parity, so U^2 is the identity and 2*p may be taken mod 2*q;
    r is taken mod q, and the floor (r // q) it drops sets the parity at l = 0.
    """
    p, r, q = line
    word = _euclid_product(2 * p % (2 * q), q, r % q, pairs, _WALK_U, _WALK_R, _walk_mul, _WALK_ONE)
    flip, total, hi, lo = word[1 + (r // q & 1)]
    return -1 if flip else 1, total, hi, lo


def _sign_run(alpha: IrrationalSlope, n: int) -> tuple[int, int, int]:
    """(sign, total, peak): the sign at size n >= 1, and the sum and max
    |partial sum| of the signs at sizes 1..n.  The sign changes only at even
    sizes m, by the parity of floor(m*alpha), and holds at m + 1, so within a
    pair (m, m + 1) the sum moves twice by one sign, its largest |sum| at an
    end.  The pairs are one :func:`_sign_walk`, O(log n) exact steps; a last
    even size with no partner reads its floor off the line.  Counts n // 2
    floors in stats["floors"]."""
    if n == 1:
        return 1, 1, 1
    line = alpha.floor_line(n - n % 2)
    alpha.stats["floors"] += n // 2
    sign, total, hi, lo = _sign_walk(line, (n - 1) // 2)
    total += 1  # size 1
    peak = 1 if hi is None else max(1, 1 + hi, -1 - lo)
    if n % 2 == 0:  # the last even size has no partner
        p, r, q = line
        if (n * p + r) // q & 1:
            sign = -sign
        total += sign
        peak = max(peak, abs(total))
    return sign, total, peak


def sign_formula(alpha: IrrationalSlope, m: int) -> int:
    """Signature of the ordering permutation: the product of
    (-1)^floor(2*l*alpha) over l <= m//2, off :func:`_sign_run`.  An integer
    added to alpha changes each floor by an even amount, so it is immaterial."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _sign_run(alpha, m)[0]


def order(pi: FracPermutation) -> int:
    return math.lcm(*map(len, pi._cycles))


def _factorize(m: int) -> dict[int, int]:
    """{p: e} with m = prod p**e for m >= 1, by trial division up to the
    square root of what is left."""
    out = {}
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
        p += 1 + (p > 2)
    if m > 1:  # a prime above every p tried
        out[m] = 1
    return out


def multiplicative_order(x: int, m: int) -> int:
    """The least t >= 1 with x**t = 1 mod m, for x prime to m >= 1.

    t divides phi(m) = prod p**(e-1) * (p-1) over m = prod p**e, so t is
    phi(m) with each prime q of phi(m) divided out while x**(t/q) = 1 mod m:
    trial division of m and of each p - 1, and O(log m) pows, where stepping
    through the powers of x takes t products.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    x %= m
    if math.gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    if x == 1:  # no factoring for the identity ordering (first = 1)
        return 1
    t, primes = 1, set()
    for p, e in _factorize(m).items():
        t *= p ** (e - 1) * (p - 1)
        primes.update(_factorize(p - 1))
        if e > 1:
            primes.add(p)
    for q in primes:
        while t % q == 0 and pow(x, t // q, m) == 1:
            t //= q
    return t


def _min_modulus(n: int, last: int) -> int:
    """The least divisor g of last + 1 with (last + 1) / g prime to n.

    Peeling gcd(m, n) off m = last + 1 until none is left leaves the largest
    divisor of last + 1 prime to n, with no factoring.
    """
    m = last + 1
    while (d := math.gcd(m, n)) > 1:
        m //= d
    return (last + 1) // m


def _extremal_order(n: int, first: int, last: int) -> int | None:
    """Order of the ordering at size n with extremes (first, last), from
    residue arithmetic when n is extremal, else None.

    With M = first + last the Sos recurrence is the first return of
    x -> x + first on Z/M to 1..n.  When n = M - 1 it skips nothing, so the
    ordering is multiplication by first mod M; when last = n it is
    multiplication by first mod n.  When first = n the order is that of
    -last mod g*n, g from :func:`_min_modulus`; the tests check it against
    the cycle walk.
    """
    if first + last == n + 1:
        return multiplicative_order(first, n + 1)
    if last == n:
        return multiplicative_order(first, n)
    if first == n:
        g = _min_modulus(n, last)
        return multiplicative_order(-last, g * n)
    return None


class OrderPrediction(NamedTuple):
    """Predicted orders at sizes n-1 and n, from residue arithmetic alone.

    case is "max" when {n*alpha} is the largest fractional part, "min" when
    it is the smallest; g is the auxiliary modulus factor used in the "min"
    case.
    """

    case: str
    order_prev: int
    order_n: int
    g: int | None = None


def order_prediction(alpha: IrrationalSlope, n: int) -> OrderPrediction | None:
    """Order prediction when the newest point is extremal, else None.

    Deleting an extremal n leaves extremes that sum to n, so size n - 1 is
    extremal too; both orders come from :func:`_extremal_order`.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    first, last = extreme_positions(alpha, n)
    if last == n:
        case, prev, g = "max", (first, n - first), None
    elif first == n:
        case, prev, g = "min", (n - last, last), _min_modulus(n, last)
    else:
        return None
    return OrderPrediction(case, _extremal_order(n - 1, *prev), _extremal_order(n, first, last), g)


class Gap(NamedTuple):
    """Symbolic gap c*{alpha} + t between consecutive circle points.

    Irrationality makes (c, t) a faithful key: two gaps are equal iff their
    descriptors are.
    """

    coeff: int
    offset: int

    def __str__(self):
        if self.offset == 0:
            return f"{self.coeff}*frac"
        return f"{self.coeff}*frac{self.offset:+d}"


def three_distance_gaps(alpha: IrrationalSlope, n: int) -> tuple[Gap, ...]:
    """The n+1 gaps cut from [0, 1] by {alpha}, ..., {n*alpha}, in circle order."""
    fred = alpha.floor_reduced
    seq = [0, *pi_sos(alpha, n).one_line]
    gaps = []
    for u, v in zip(seq, seq[1:]):
        fu = fred(u) if u else 0
        gaps.append(Gap(v - u, fu - fred(v)))
    last = seq[-1]
    gaps.append(Gap(-last, fred(last) + 1))
    return tuple(gaps)
