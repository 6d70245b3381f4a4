"""Order-n Farey cells and the experiments built on them.

The ordering permutation of size n is constant on each open interval between
adjacent order-n Farey fractions a/b < c/d.  There the least {k x} is at
k = b and the greatest at k = d, so integrating its order over (0, 1) is an
exact sum of Sos orders over the coprime pairs b, d <= n < b + d.  A pair
is a cell at every size from max(b, d) to b + d - 1, and the ordering at
size n - 1 is that at size n with index n deleted, so :func:`exact_integral`
sweeps one Sos line per pair in the table's loop, ``permtool._deletion_sweep``.
The sort at a cell's mediant (:func:`perm_on_cell`) checks one cell per size;
the cells as objects are ``oracles.farey_cells`` and ``oracles.cell_containing``.

The scans over sizes need no cell.  :func:`sign_sum` reads the sign walk of
:mod:`permtool` along the floor line.  :func:`b_range_search` finds the
least k with B(k) = T by walking the size-n ordering from its least point,
one doubling block of k at a time: B(i) is the number of j < i met before i,
and a walk can stop once more than T indices below the block have been met.
A range the walk leaves, for a large T or a large partial quotient, is
searched along the floor line instead: B moves by a fixed step along each
residue class mod q_m, and likewise mod q_{m-1} below q_m, so one division
decides each progression (:func:`_progression_hit`).
"""
from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import NamedTuple

from .errors import (
    CoefficientsExhausted, RecurrenceMismatch, RefinementBudgetExceeded, WitnessCollision
)
from .irrational import IrrationalSlope, floor_sum
from .permtool import (
    FracPermutation, _deletion_sweep, _sign_run, _sos_line, b_stream, extreme_positions, pi_sos
)


class FareyCell(NamedTuple):
    """Open interval between adjacent order-n Farey fractions.

    The witness is the mediant: the unique fraction of least denominator
    inside the cell, and that denominator exceeds n.
    """

    left: Fraction
    right: Fraction
    witness: Fraction


def perm_on_cell(cell: FareyCell, n: int) -> FracPermutation:
    """Ordering permutation of 1..n on a cell, read off at its witness."""
    p, q = cell.witness.numerator, cell.witness.denominator
    keys = [(i * p) % q for i in range(1, n + 1)]
    if len(set(keys)) != n or 0 in keys:
        raise WitnessCollision(
            f"witness {cell.witness} collides on multiples up to {n}"
        )
    line = sorted(range(1, n + 1), key=lambda i: keys[i - 1])
    return FracPermutation(n, tuple(line))


class IntegralResult(NamedTuple):
    """Exact integral of the permutation order over (0, 1) at size n."""

    n: int
    value: Fraction
    cells: int
    coverage: Fraction  # total cell length; must be exactly 1


def exact_integral(start: int, end: int) -> list[IntegralResult]:
    """The exact integral of the order over (0, 1) at each size n = start..end.

    The cell between adjacent a/b < c/d is one at every size
    max(b, d) <= n < b + d, with the least {k x} at k = b and the greatest
    at k = d, and the ordering of 1..n - 1 on it is that of 1..n with index
    n deleted; so its Sos line is built once, at min(b + d - 1, end), and
    swept down to max(b, d, start) by :func:`permtool._deletion_sweep`, which
    walks it at the top and at each size that is not extremal.  The cells
    are those of the Stern-Brocot descent from 0/1 < 1/1, with the children
    a/b < (a+c)/(b+d) < c/d of each pair while b + d <= end; a pair with
    b + d <= start is a cell at no size of the range, so only its children
    are visited.  The cell right of 1/2, the middle one at each size (the
    only one at n = 1), is also sorted at its mediant (:func:`perm_on_cell`),
    an independent check that the extremes lie at the cell's denominators.

    A cell has length 1/(b*d), since bc - ad = 1; so at each size the orders
    and the lengths are added as integers over the common denominator of
    its cells, one Fraction each for the value and the coverage.
    """
    if not 1 <= start <= end:
        raise ValueError(f"bad range {start}..{end}")
    dens: list[list[int]] = [[] for _ in range(start, end + 1)]  # b*d of each cell, per size
    orders: list[list[int]] = [[] for _ in range(start, end + 1)]
    stack = [(0, 1, 1, 1)]
    while stack:
        a, b, c, d = stack.pop()
        if b + d <= end:
            stack += (a, b, a + c, b + d), (a + c, b + d, c, d)
        if b + d <= start:
            continue
        middle = None  # the cell right of 1/2 is sorted at its mediant
        if 2 * a == b or b + d == 2:
            middle = FareyCell(Fraction(a, b), Fraction(c, d), Fraction(a + c, b + d))
        line = [0, *_sos_line(min(b + d - 1, end), b, d)]  # line[i] is the index of rank i
        for n, _, order in _deletion_sweep(line, b, d, max(b, d, start)):
            if middle and perm_on_cell(middle, n).one_line != tuple(line[1:]):
                raise RecurrenceMismatch(f"Sos line differs from the sort at {middle.witness}")
            dens[n - start].append(b * d)
            orders[n - start].append(order)
    results = []
    for n, ds, os in zip(range(start, end + 1), dens, orders):
        common = math.lcm(*set(ds))
        weights = list(map(common.__floordiv__, ds))
        total = Fraction(sum(map(mul, os, weights)), common)
        results.append(IntegralResult(n, total, len(ds), Fraction(sum(weights), common)))
    return results


def sign_sum(alpha: IrrationalSlope, upto: int) -> tuple[int, int]:
    """(final sum, max |partial sum|) of ordering-permutation signs, off the
    walk along the floor line that also gives the sign
    (:func:`permtool._sign_run`), O(log upto) exact steps."""
    if upto < 1:
        raise ValueError("upto must be >= 1")
    return _sign_run(alpha, upto)[1:]


def _block_hits(alpha: IrrationalSlope, target: int, k0: int, n: int) -> list[int] | None:
    """The k in k0..n with B(k) == target, or None when the walk gives up.

    The walk reads the size-n ordering from rank 1.  Every j < i <= n is in
    it, so B(i) is the number of j < i visited before i: below, the visited
    indices under k0, plus those in k0..i-1.  Once below > target every index
    not yet visited has B > target.  None when that takes over 8*(target + 1)
    ranks.
    """
    below, seen, hits = 0, [], []
    for i in _sos_line(n, *extreme_positions(alpha, n), 8 * (target + 1)):
        if i < k0:
            below += 1
            if below > target:
                return hits
        else:
            at = bisect_left(seen, i)
            if below + at == target:
                hits.append(i)
            seen.insert(at, i)
    return None


def _convergent_below(alpha: IrrationalSlope, p: int, q: int) -> tuple[int, int]:
    """(p, q) of the convergent one index below the convergent p/q; 1/0 at index 0.
    No two convergents are equal, so p/q's index is found by reading them up
    from index 0: for the p/q of a floor line, no quotient past those it read."""
    m = 0
    while alpha.convergent(m)[1:] != (p, q):
        m += 1
    return alpha.convergent(m - 1)[1:] if m else (1, 0)


def _least_root(c: int, g: int, lo: int, hi: int, target: int) -> int | None:
    """Least u in lo..hi with c + g*u == target, or None."""
    if g:
        u, rem = divmod(target - c, g)
        return u if not rem and lo <= u <= hi else None
    return lo if c == target and lo <= hi else None


def _progression_hit(alpha: IrrationalSlope, target: int, k_lo: int, k_max: int) -> int | None:
    """Least k in k_lo..k_max with B(k) == target, or None, off two floor lines.

    On the line (p, r, q) of index m to k_max, B(x + q) = B(x) + D(x) with
    D(x) = (x*p + r) % q + r + 1, and likewise B(x + q') = B(x) + D'(x) for
    x + q' < q on the line of the convergent p'/q' below.  So k = s + u*q' +
    t*q, with s <= q' and s + u*q' < q, has B(k) = B(s) + u*D'(s) +
    t*D(s + u*q').  As q'*p = e (mod q) with e = -1 - 2r = +-1, the residue
    in D moves by e per u, and it never wraps: the residues of x = 1..q-1
    miss only r % q.  So for each s and t, B is affine in u, and one division
    solves it.  The multiples j*q have B(j*q) = B(q) + (j - 1)*D(q).  Streams
    the floors of the B(s), s <= min(q', q - 1): none when q = 1.
    """
    p, r, q = alpha.floor_line(k_max)
    p1, q1 = _convergent_below(alpha, p, q)
    e, r1 = -1 - 2 * r, -1 - r
    b = 2 * floor_sum(q - 1, q, p, p + r) + (q - 1) * (1 - (q * p + r) // q)
    u = _least_root(b, r % q + r + 1, -(-k_lo // q) - 1, k_max // q - 1, target)
    best = k_max + 1 if u is None else (u + 1) * q
    for s, bs in islice(b_stream(alpha), min(q1, q - 1)):
        d1, rho = (s * p1 + r1) % q1 + r1 + 1, (s * p + r) % q
        for t in range(max(0, (k_lo - 1) // q), k_max // q + 1):
            base = s + t * q
            if base > best:
                break
            lo = max(0, -((base - k_lo) // q1))
            hi = (min((t + 1) * q - 1, k_max) - base) // q1
            u = _least_root(bs + t * (rho + r + 1), d1 + e * t, lo, hi, target)
            if u is not None:
                best = min(best, base + u * q1)
    return best if best <= k_max else None


def b_range_search(alpha: IrrationalSlope, target: int, k_max: int) -> int | None:
    """Least k <= k_max with B(k) == target, or None.

    B(1) = 0 and 0 <= B(k) <= k - 1, so a target below 0 or at least k_max
    is None at once, with no floor read.  Else the k below 16*(target + 1)
    come from :func:`b_stream`; then each block k0..min(2*k0 - 1, k_max) is
    searched by :func:`_block_hits`, about 2*(target + 1) ranks for a slope
    of bounded partial quotients, so a search takes O(target * log k_max)
    steps.  A k_max no larger than 16*(target + 1), or a block the walk
    gives up on, leaves the rest of the range, k0..k_max, to
    :func:`_progression_hit` when its loops take at most k_max/8 steps;
    else, or when the floor line to k_max raises, the stream reads on from
    where it stopped, so the answer and the k that raises are the stream's.
    stats["floors"] counts the streamed floors and those that
    :func:`extreme_positions` reads.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not 0 <= target < k_max:
        return None
    stream = b_stream(alpha)
    k0 = 16 * (target + 1)
    if k0 >= k_max:
        k0 = 1
    else:
        for k, b in islice(stream, k0 - 1):
            if b == target:
                return k
        while k0 <= k_max:
            n = min(2 * k0 - 1, k_max)
            try:
                alpha.floor_line(n)
            except (RefinementBudgetExceeded, CoefficientsExhausted):
                break
            hits = _block_hits(alpha, target, k0, n)
            if hits is None:
                break
            if hits:
                return min(hits)
            k0 = n + 1
        else:
            return None
    try:
        p, _, q = alpha.floor_line(k_max)
    except (RefinementBudgetExceeded, CoefficientsExhausted):
        q = 0
    if q and 8 * min(_convergent_below(alpha, p, q)[1], q - 1) * (k_max // q + 1) <= k_max:
        return _progression_hit(alpha, target, k0, k_max)
    for k, b in stream:
        if b == target:
            return k
        if k >= k_max:
            return None


def _factor_distances(line: tuple[int, ...]) -> list[list[int]]:
    """Squared distances between the factors, the 0/1 columns of L, from pi.

    Columns j < j' of L differ at row m exactly when one of m - 1, m lies in
    pi({j+1..j'}), so adding x = pi(j'+1) moves rows x and x + 1 (if x < n) by +-1.
    """
    n = len(line)
    dist = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(n):
        inside, d, row = bytearray(n + 2), 0, dist[j]
        for t, x in enumerate(line[j:], j + 1):
            inside[x] = 1
            d += 2 - 2 * (inside[x - 1] + inside[x + 1]) - (x == n)
            row[t] = dist[t][j] = d
    return dist


def _isometry_exists(da: list[list[int]], db: list[list[int]]) -> bool:
    m = len(da)
    prof_a = [tuple(sorted(row)) for row in da]
    prof_b = [tuple(sorted(row)) for row in db]
    if sorted(prof_a) != sorted(prof_b):
        return False
    cand = [[j for j in range(m) if prof_b[j] == prof_a[i]] for i in range(m)]
    assign = [-1] * m
    used = [False] * m

    def backtrack(i: int) -> bool:
        if i == m:
            return True
        for j in cand[i]:
            if used[j]:
                continue
            if all(da[i][t] == db[j][assign[t]] for t in range(i)):
                assign[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
        return False

    return backtrack(0)


def factor_relation(alpha: IrrationalSlope, beta: IrrationalSlope, n: int) -> tuple[bool, bool]:
    """(equal, complementary): how the length-n factor sets of the slopes relate.

    The sets are the columns of L, built by the Sos recurrence from the extremes
    (first, last) alone; 1 - alpha has the complements and swapped extremes.
    """
    ea, eb = extreme_positions(alpha, n), extreme_positions(beta, n)
    return ea == eb, ea == eb[::-1]


def congruence_test(alpha: IrrationalSlope, beta: IrrationalSlope, n: int) -> bool:
    """Whether the two factor simplices at size n are congruent.

    Equal or complementary factor sets (:func:`factor_relation`) are; else a
    vertex bijection keeping the squared distances (:func:`_factor_distances`)
    is sought by backtracking with per-vertex distance-profile pruning.
    """
    return any(factor_relation(alpha, beta, n)) or _isometry_exists(
        *(_factor_distances(pi_sos(x, n).one_line) for x in (alpha, beta))
    )

