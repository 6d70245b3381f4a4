"""Integer matrix representation of permutations, one run per row.

A permutation sigma in S_n yields column vectors w_1, ..., w_{n+1} in {0,1}^n:
w_1 has ones exactly on the descent set of sigma^{-1} (always including row 1)
and w_{j+1} = w_j + delta_{sigma(j)} where delta_i = e_{i+1} - e_i with
e_{n+1} = 0.  Stacking the columns gives the n x (n+1) auxiliary matrix L;
subtracting the last column from the first n gives the n x n matrix M with
entries in {-1, 0, 1}.  The map sigma -> M is an isomorphism onto its image:
M_tau @ M_sigma = M_{tau*sigma} with (tau*sigma)(i) = tau(sigma(i)).

Row i of L moves only at steps sigma^{-1}(i) and sigma^{-1}(i-1), so each row
of M is one run, v in {-1, 1} on columns l..r (:func:`_runs`).  Both matrices
are built from the runs, and the simplex volume takes :func:`det_runs`, an
O(n) spanning-tree determinant; ``oracles.det_exact`` (Bareiss) is its oracle.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import NotInImage, SingularParameters
from .irrational import IrrationalSlope
from .permtool import FracPermutation, pi_sos, sign_direct

Matrix = list[list[int]]


def descent_set(sigma: FracPermutation) -> frozenset[int]:
    """{1} together with every k whose predecessor k-1 appears later in sigma."""
    inv = sigma.inverse().one_line
    return frozenset([1]) | {k for k, b, a in zip(range(2, sigma.n + 1), inv, inv[1:]) if b > a}


def _runs(sigma: FracPermutation) -> list[tuple[int, int, int]]:
    """(l, r, v) per row of M_sigma: v on columns l..r and 0 elsewhere.

    Row 1 is (1, sigma^{-1}(1), 1); row i >= 2, with a = sigma^{-1}(i) and
    b = sigma^{-1}(i-1), is (a+1, b, -1) if b > a else (b+1, a, 1).  Row i
    of L starts at 1 exactly when i is in :func:`descent_set`, and then steps
    down first, so L stays in {0,1}.
    """
    inv = sigma.inverse().one_line
    return [
        (1, a, 1) if i == 1 else (a + 1, b, -1) if b > a else (b + 1, a, 1)
        for i, b, a in zip(range(1, sigma.n + 1), (0,) + inv, inv)
    ]


def _run_rows(sigma: FracPermutation, width: int) -> tuple[tuple[int, ...], ...]:
    """Rows of M_sigma (width n) or of L_sigma (width n + 1: add w_{n+1}, 1 where v = -1)."""
    rows = []
    for l, r, v in _runs(sigma):
        c = int(v < 0 and width > sigma.n)
        rows.append((c,) * (l - 1) + (c + v,) * (r - l + 1) + (c,) * (width - r))
    return tuple(rows)


class AuxMatrix(NamedTuple):
    """n x (n+1) matrix of 0/1 columns w_1 ... w_{n+1}."""

    n: int
    columns: tuple[tuple[int, ...], ...]

    def rows(self) -> Matrix:
        return [[self.columns[j][i] for j in range(self.n + 1)] for i in range(self.n)]

    def trace(self) -> int:
        return sum(self.columns[i][i] for i in range(self.n))


class FactorMatrix(NamedTuple):
    """n x n matrix with entries in {-1, 0, 1}, columns w_j - w_{n+1}."""

    n: int
    entries: tuple[tuple[int, ...], ...]  # row-major

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def rows(self) -> Matrix:
        return [list(r) for r in self.entries]


def aux_matrix(sigma: FracPermutation) -> AuxMatrix:
    return AuxMatrix(sigma.n, tuple(zip(*_run_rows(sigma, sigma.n + 1))))


def factor_matrix(sigma: FracPermutation) -> FactorMatrix:
    return FactorMatrix(sigma.n, _run_rows(sigma, sigma.n))


def m_from_alpha(alpha: IrrationalSlope, n: int) -> FactorMatrix:
    """Matrix of the fractional-part ordering permutation at size n, built
    by the recurrence :func:`~sturmlab.permtool.pi_sos`."""
    return factor_matrix(pi_sos(alpha, n))


def reconstruct_sigma(m: FactorMatrix | Sequence[Sequence[int]]) -> FracPermutation:
    """Invert the representation; NotInImage when no permutation maps to m."""
    rows = m.entries if isinstance(m, FactorMatrix) else tuple(tuple(r) for r in m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotInImage("matrix is not square")
    inv = []  # the ends of row i's run give sigma^{-1}(i), as in _runs
    for i, row in enumerate(rows, 1):
        cols = [j for j, x in enumerate(row, 1) if x]
        if not cols:
            raise NotInImage(f"row {i} is zero")
        inv.append(cols[0] - 1 if row[cols[0] - 1] < 0 else cols[-1])
    try:
        sigma = FracPermutation(n, tuple(inv)).inverse()
    except ValueError as exc:
        raise NotInImage(str(exc)) from None
    if factor_matrix(sigma).entries != tuple(rows):
        raise NotInImage("matrix differs from the one its permutation generates")
    return sigma


def perm_matrix(sigma: FracPermutation) -> tuple[tuple[int, ...], ...]:
    """Permutation matrix with e_{sigma(j)} in column j.

    This orientation makes sigma -> P a homomorphism for the same composition
    convention as factor_matrix (checked exhaustively in tests); the transpose
    would reverse products.
    """
    n = sigma.n
    return tuple(
        tuple(1 if sigma(j + 1) == i + 1 else 0 for j in range(n)) for i in range(n)
    )


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(r) == k for r in a), "shape mismatch"
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


class IntertwinerQ(NamedTuple):
    """Conjugator between factor matrices and permutation matrices.

    Q has a+b in the corner, a across the first row, b on the diagonal and -b
    on the subdiagonal; det Q = (n*a + b) * b^(n-1).  For every sigma,
    Q^-1 @ M_sigma @ Q is the permutation matrix of sigma.
    """

    n: int
    a: Fraction
    b: Fraction

    def matrix(self) -> list[list[Fraction]]:
        n, a, b = self.n, self.a, self.b
        q = [[Fraction(0)] * n for _ in range(n)]
        q[0][0] = a + b
        for k in range(1, n):
            q[0][k] = a
            q[k][k] = b
            q[k][k - 1] = -b
        return q

    def det(self) -> Fraction:
        return (self.n * self.a + self.b) * self.b ** (self.n - 1)

    def inverse(self) -> list[list[Fraction]]:
        """Q = b*(I - S) + a*e_1*(1,...,1), S the shift down, and (I - S)^-1
        is lower triangular of ones; Sherman-Morrison gives the rest."""
        n, a, b = self.n, self.a, self.b
        if self.det() == 0:
            raise SingularParameters("matrix is singular")
        c = [a * (n - j) / (b * (b + n * a)) for j in range(n)]
        return [[(1 / b if i >= j else 0) - c[j] for j in range(n)] for i in range(n)]


def intertwiner(n: int, a, b) -> IntertwinerQ:
    q = IntertwinerQ(n, Fraction(a), Fraction(b))
    if q.det() == 0:
        raise SingularParameters(f"(a, b) = ({a}, {b}) gives det 0 at n = {n}")
    return q


def char_trace(sigma: FracPermutation) -> tuple[int, int]:
    """(trace of M_sigma, trace of L_sigma), summed from the built matrices."""
    return factor_matrix(sigma).trace(), aux_matrix(sigma).trace()


def det_runs(n: int, runs: Sequence[tuple[int, int, int]]) -> int:
    """Determinant of the n x n matrix whose row i is v on columns l..r and 0
    elsewhere, for runs[i] = (l, r, v), in O(n) steps.  Every run needs
    1 <= l and r <= n; one with l > r is a zero row.

    Column j minus column j - 1, for every j > 1, turns row i into
    v*(e_l - e_{r+1}) with e_{n+1} = 0: the incidence matrix of the edges
    (l, r+1) on nodes 1..n+1 with node n+1 grounded, singular unless they form
    a spanning tree.  Walked from the ground, each tree edge has a child node;
    in the order of row -> child the matrix is triangular, so the determinant
    is the sign of that map times each row's entry at its child.
    """
    if len(runs) != n:
        raise ValueError(f"need {n} runs, got {len(runs)}")
    for l, r, v in runs:
        if l < 1 or r > n:
            raise ValueError(f"run {(l, r, v)} leaves columns 1..{n}")
    edges = [[] for _ in range(n + 2)]
    for i, (l, r, v) in enumerate(runs):
        if l > r:
            return 0  # an empty run is a zero row
        edges[l].append(i)
        edges[r + 1].append(i)
    child, det, walk = [0] * n, 1, [n + 1]
    for u in walk:  # grows as nodes are reached
        for i in edges[u]:
            if not child[i]:  # not the edge u was reached by
                l, r, v = runs[i]
                child[i] = w = l + r + 1 - u
                det *= v if w == l else -v
                walk.append(w)
    try:  # an edge never reached, or a node reached twice, breaks the bijection
        tree = FracPermutation(n, tuple(child))
    except ValueError:
        return 0
    return det * sign_direct(tree)


def simplex_volume(alpha: IrrationalSlope, n: int) -> Fraction:
    """Volume of the factor simplex at size n: |det M| / n!, from M's runs."""
    return Fraction(abs(det_runs(n, _runs(pi_sos(alpha, n)))), math.factorial(n))
