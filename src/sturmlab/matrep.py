"""Integer matrix representation of permutations via descent-set columns.

A permutation sigma in S_n yields column vectors w_1, ..., w_{n+1} in {0,1}^n:
w_1 has ones exactly on the descent set of sigma^{-1} (always including row 1)
and w_{j+1} = w_j + delta_{sigma(j)} where delta_i = e_{i+1} - e_i with
e_{n+1} = 0.  Stacking the columns gives the n x (n+1) auxiliary matrix L;
subtracting the last column from the first n gives the n x n matrix M with
entries in {-1, 0, 1}.  The map sigma -> M is an isomorphism onto its image:
M_tau @ M_sigma = M_{tau*sigma} with (tau*sigma)(i) = tau(sigma(i)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InternalInvariantViolation, NotInImage, SingularParameters
from .irrational import IrrationalSlope
from .permtool import FracPermutation, pi_sos

Matrix = list[list[int]]


def descent_set(sigma: FracPermutation) -> frozenset[int]:
    """{1} together with every k whose predecessor k-1 appears later in sigma."""
    inv = sigma.inverse()
    return frozenset([1]) | {
        k for k in range(2, sigma.n + 1) if inv(k - 1) > inv(k)
    }


def _w_columns(sigma: FracPermutation) -> list[tuple[int, ...]]:
    n = sigma.n
    col = [0] * n
    for k in descent_set(sigma):
        col[k - 1] = 1
    cols = [tuple(col)]
    for j in range(1, n + 1):
        s = sigma(j)
        col[s - 1] -= 1
        if s < n:
            col[s] += 1
        cols.append(tuple(col))
    for c in cols:
        if any(x not in (0, 1) for x in c):
            raise InternalInvariantViolation(
                f"auxiliary column {c} left {{0,1}} for sigma={sigma.one_line}"
            )
    return cols


@dataclass(frozen=True)
class AuxMatrix:
    """n x (n+1) matrix of 0/1 columns w_1 ... w_{n+1}."""

    n: int
    columns: tuple[tuple[int, ...], ...]

    def rows(self) -> Matrix:
        return [[self.columns[j][i] for j in range(self.n + 1)] for i in range(self.n)]

    def trace(self) -> int:
        return sum(self.columns[i][i] for i in range(self.n))


@dataclass(frozen=True)
class FactorMatrix:
    """n x n matrix with entries in {-1, 0, 1}, columns w_j - w_{n+1}."""

    n: int
    entries: tuple[tuple[int, ...], ...]  # row-major

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j - 1] for i in range(self.n))

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def rows(self) -> Matrix:
        return [list(r) for r in self.entries]


def aux_matrix(sigma: FracPermutation) -> AuxMatrix:
    return AuxMatrix(sigma.n, tuple(_w_columns(sigma)))


def _minus_last(cols: Sequence[Sequence[int]]) -> FactorMatrix:
    """The n x n matrix with columns cols[j] - cols[n], from n + 1 columns."""
    *head, last = cols
    return FactorMatrix(
        len(last), tuple(tuple(c[i] - x for c in head) for i, x in enumerate(last))
    )


def factor_matrix(sigma: FracPermutation) -> FactorMatrix:
    return _minus_last(_w_columns(sigma))


def m_from_alpha(alpha: IrrationalSlope, n: int, via: str = "perm") -> FactorMatrix:
    """Matrix of the fractional-part ordering permutation at size n.

    via="perm" goes through the permutation (built by the recurrence
    :func:`~sturmlab.permtool.pi_sos`); via="factors" assembles the same
    matrix from the geometric factor columns.  The two must agree.
    """
    if via == "perm":
        return factor_matrix(pi_sos(alpha, n))
    if via == "factors":
        from .sturmian import factor_set  # local import keeps modules acyclic

        return _minus_last(factor_set(alpha, n).factors)
    raise ValueError(f"via must be 'perm' or 'factors', got {via!r}")


def reconstruct_sigma(m: FactorMatrix | Sequence[Sequence[int]]) -> FracPermutation:
    """Invert the representation; NotInImage when no permutation maps to m."""
    rows = m.entries if isinstance(m, FactorMatrix) else tuple(tuple(r) for r in m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotInImage("matrix is not square")
    last = tuple(1 if any(x == -1 for x in row) else 0 for row in rows)
    cols = [tuple(rows[i][j] + last[i] for i in range(n)) for j in range(n)]
    cols.append(last)
    for c in cols:
        if any(x not in (0, 1) for x in c):
            raise NotInImage(f"reassembled column {c} is not a 0/1 vector")
    line = []
    for j in range(n):
        diff = [cols[j + 1][i] - cols[j][i] for i in range(n)]
        minus = [i for i, x in enumerate(diff) if x == -1]
        plus = [i for i, x in enumerate(diff) if x == 1]
        if len(minus) == 1 and len(plus) == 1 and plus[0] == minus[0] + 1:
            line.append(minus[0] + 1)
        elif len(minus) == 1 and not plus and minus[0] == n - 1:
            line.append(n)
        else:
            raise NotInImage(f"column step {j + 1} is not a unit difference")
    try:
        sigma = FracPermutation(n, tuple(line))
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


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class IntertwinerQ:
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
        return _invert(self.matrix())


def intertwiner(n: int, a, b) -> IntertwinerQ:
    q = IntertwinerQ(n, Fraction(a), Fraction(b))
    if q.det() == 0:
        raise SingularParameters(f"(a, b) = ({a}, {b}) gives det 0 at n = {n}")
    return q


def _invert(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SingularParameters("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def char_trace(sigma: FracPermutation) -> tuple[int, int]:
    """(trace of M_sigma, trace of L_sigma), summed from the built matrices."""
    return factor_matrix(sigma).trace(), aux_matrix(sigma).trace()


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


def simplex_volume(alpha: IrrationalSlope, n: int) -> Fraction:
    """Volume of the factor simplex at size n: |det M| / n!."""
    return Fraction(abs(det_exact(m_from_alpha(alpha, n))), math.factorial(n))
