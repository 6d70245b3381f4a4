"""Matrix representation: construction fixtures, homomorphism, intertwiner."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturmlab as sl
from sturmlab.matrep import _runs, det_runs, mat_mul
from sturmlab.oracles import det_exact, pi_direct
from sturmlab.selftest import (
    ADJ_43_S5,
    AUX_52314,
    MATRIX_52314,
    MATRIX_INV_E_6,
    MATRIX_PHI_5,
)
from conftest import all_perms, make_slope, random_perm

SIGMA_52314 = sl.FracPermutation(5, (5, 2, 3, 1, 4))

# a size-10 permutation whose column matrix shows three "snakes"; its
# diagonal sum is (first-column weight) - 1 + (number of fixed points)
SNAKE_SIGMA = sl.FracPermutation(10, (1, 4, 5, 8, 2, 3, 9, 6, 10, 7))

SNAKE_L = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0],
    [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
]


def det_fraction_gauss(rows):
    """Independent determinant oracle: plain Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return det.numerator


def column_walk(sigma):
    """Columns w_1 .. w_{n+1} of L_sigma by the defining walk: w_1 is the
    indicator of the descent set, w_{j+1} = w_j + e_{sigma(j)+1} - e_{sigma(j)}
    with e_{n+1} = 0."""
    n = sigma.n
    col = [1 if i + 1 in sl.descent_set(sigma) else 0 for i in range(n)]
    cols = [tuple(col)]
    for j in range(1, n + 1):
        s = sigma(j)
        col[s - 1] -= 1
        if s < n:
            col[s] += 1
        cols.append(tuple(col))
    return cols


def test_descent_sets():
    assert sl.descent_set(SIGMA_52314) == frozenset({1, 2, 5})
    assert sl.descent_set(sl.FracPermutation(6, (1, 3, 5, 4, 2, 6))) == frozenset({1, 3, 5})
    assert sl.descent_set(sl.FracPermutation.identity(4)) == frozenset({1})


def test_aux_matrix_fixture():
    aux = sl.aux_matrix(SIGMA_52314)
    assert aux.rows() == [list(r) for r in AUX_52314]
    # first-column weight 3, minus 1, plus the 2 fixed points of [5,2,3,1,4]
    assert aux.trace() == 4


def test_factor_matrix_fixture():
    assert sl.factor_matrix(SIGMA_52314).entries == MATRIX_52314


def geometric_matrix(alpha, n):
    """The matrix assembled from the factor-set columns, c[i] - last[i]: an
    oracle that never builds the ordering permutation."""
    *head, last = sl.factor_set(alpha, n).factors
    return tuple(tuple(c[i] - x for c in head) for i, x in enumerate(last))


def test_matrix_inv_e_6_both_routes():
    inv_e = sl.EulerEInv()
    assert sl.m_from_alpha(inv_e, 6).entries == MATRIX_INV_E_6
    assert geometric_matrix(inv_e, 6) == MATRIX_INV_E_6


def test_m_from_alpha_routes_agree(named_slope):
    name, alpha = named_slope
    for n in (1, 2, 3, 7, 12):
        assert sl.m_from_alpha(alpha, n).entries == geometric_matrix(alpha, n)


def test_adjacent_transposition_is_identity_plus_v():
    adj = sl.FracPermutation(5, (1, 2, 4, 3, 5))
    assert sl.factor_matrix(adj).entries == ADJ_43_S5


def test_matrix_phi_5_fixture():
    assert sl.factor_matrix(pi_direct(sl.phi(), 5)).entries == MATRIX_PHI_5


def test_worked_product():
    adj = sl.FracPermutation(5, (1, 2, 4, 3, 5))
    pi5 = pi_direct(sl.phi(), 5)
    composed = adj.compose(pi5)
    assert composed.one_line == (5, 2, 3, 1, 4)
    prod = mat_mul(ADJ_43_S5, MATRIX_PHI_5)
    assert prod == sl.factor_matrix(composed).rows()


def test_homomorphism_s3_exhaustive():
    for tau in all_perms(3):
        for sigma in all_perms(3):
            prod = mat_mul(sl.factor_matrix(tau).rows(), sl.factor_matrix(sigma).rows())
            assert prod == sl.factor_matrix(tau.compose(sigma)).rows()


def test_perm_matrix_same_composition_direction():
    rng = random.Random(417)
    for _ in range(50):
        tau, sigma = random_perm(rng, 6), random_perm(rng, 6)
        prod = mat_mul(sl.perm_matrix(tau), sl.perm_matrix(sigma))
        assert prod == [list(r) for r in sl.perm_matrix(tau.compose(sigma))]


def test_perm_matrix_columns_are_images():
    sigma = sl.FracPermutation(4, (3, 1, 4, 2))
    p = sl.perm_matrix(sigma)
    for j in range(4):
        col = [p[i][j] for i in range(4)]
        assert col.index(1) + 1 == sigma(j + 1)
        assert sum(col) == 1


def test_trace_counts_fixed_points_s4():
    for sigma in all_perms(4):
        m_tr, _ = sl.char_trace(sigma)
        assert m_tr == len(sigma.fixed_points())


def test_snake_example_matrices_and_traces():
    aux = sl.aux_matrix(SNAKE_SIGMA)
    assert aux.rows() == SNAKE_L
    first_col_weight = sum(row[0] for row in SNAKE_L)
    m_tr, l_tr = sl.char_trace(SNAKE_SIGMA)
    assert l_tr == 3
    assert l_tr == first_col_weight - 1 + len(SNAKE_SIGMA.fixed_points())
    assert m_tr == len(SNAKE_SIGMA.fixed_points()) == 1


def test_det_is_sign_s4():
    for sigma in all_perms(4):
        assert det_exact(sl.factor_matrix(sigma)) == sl.sign_direct(sigma)


def test_det_exact_against_gaussian_oracle():
    rng = random.Random(90125)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == det_fraction_gauss(rows)


def test_det_exact_of_empty_matrix_is_one():
    # the empty product: the determinant of the 0 x 0 matrix
    assert det_exact([]) == 1


def test_det_exact_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])


@st.composite
def det_cases(draw):
    """A random n x n integer matrix, n <= 7, entries in -50..50, of one kind.

    "sparse" is half zeros, so rows with a zero pivot-column entry are common;
    "even" has no unit pivot anywhere, so the first pivot differs from the
    previous one (1) and zero rows must still be scaled; "repeated_row" and
    "zero_column" are singular; "negative_pivot" puts -1 in column 1, the
    least magnitude there, so the pivot row is negated.
    """
    n = draw(st.integers(1, 7))
    kind = draw(
        st.sampled_from(["dense", "sparse", "even", "repeated_row", "zero_column", "negative_pivot"])
    )
    if kind == "sparse":
        entries = st.one_of(st.just(0), st.integers(-50, 50))
    elif kind == "even":
        entries = st.one_of(st.just(0), st.integers(-25, 25)).map(lambda x: 2 * x)
    else:
        entries = st.integers(-50, 50)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if kind == "repeated_row" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
    elif kind == "zero_column":
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = 0
    elif kind == "negative_pivot":
        rows[draw(st.integers(0, n - 1))][0] = -1
    return rows


@settings(max_examples=400, deadline=None, database=None)
@given(rows=det_cases())
def test_det_exact_equals_fraction_gauss(rows):
    assert det_exact(rows) == det_fraction_gauss(rows)


@settings(max_examples=100, deadline=None, database=None)
@given(line=st.integers(1, 150).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_det_of_factor_matrix_is_sign(line):
    sigma = sl.FracPermutation(len(line), tuple(line))
    assert det_exact(sl.factor_matrix(sigma)) == sl.sign_direct(sigma)


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("slope", ["phi", "1/e", "cf:[0;1,2,3,...]", "cf:[0;2,32003,...]"])
def test_det_of_m_from_alpha_is_sign_of_ordering(slope, n):
    alpha = sl.parse_slope(slope)
    det = det_exact(sl.m_from_alpha(alpha, n))
    assert det == sl.sign_direct(sl.pi_sos(alpha, n))


def test_reconstruct_roundtrip():
    rng = random.Random(2045)
    for _ in range(100):
        sigma = random_perm(rng, rng.randint(1, 10))
        back = sl.reconstruct_sigma(sl.factor_matrix(sigma))
        assert back.one_line == sigma.one_line


def test_reconstruct_rejects_tampered_matrix():
    sigma = sl.FracPermutation(5, (5, 2, 4, 1, 3))
    rows = [list(r) for r in sl.factor_matrix(sigma).entries]
    rows[0][0] += 1
    with pytest.raises(sl.NotInImage):
        sl.reconstruct_sigma(rows)
    with pytest.raises(sl.NotInImage):
        sl.reconstruct_sigma([[0] * 5 for _ in range(5)])


def test_reconstruct_accepts_exactly_the_factor_matrices_of_s3():
    images = {sl.factor_matrix(sigma).entries: sigma.one_line for sigma in all_perms(3)}
    accepted = {}
    for flat in itertools.product((-1, 0, 1), repeat=9):
        rows = (flat[0:3], flat[3:6], flat[6:9])
        try:
            accepted[rows] = sl.reconstruct_sigma(rows).one_line
        except sl.NotInImage:
            pass
    assert accepted == images


def test_intertwiner_conjugates_to_permutation_matrices():
    for a, b in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1))):
        q = sl.intertwiner(4, a, b)
        qm, qi = q.matrix(), q.inverse()
        for sigma in all_perms(4):
            conj = mat_mul(mat_mul(qi, sl.factor_matrix(sigma).rows()), qm)
            want = [[Fraction(x) for x in row] for row in sl.perm_matrix(sigma)]
            assert conj == want


def test_intertwiner_det_formula():
    for n in range(1, 11):
        for a, b in ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(2)), (Fraction(-1), Fraction(5))):
            q = sl.IntertwinerQ(n, a, b)
            assert q.det() == (n * a + b) * b ** (n - 1)
            assert det_fraction_gauss(q.matrix()) == q.det()


def test_intertwiner_inverse_is_inverse():
    q = sl.intertwiner(5, Fraction(1), Fraction(2))
    prod = mat_mul(q.matrix(), q.inverse())
    assert prod == [[int(i == j) for j in range(5)] for i in range(5)]


@pytest.mark.parametrize(
    "n, a, b", [(1, 3, 1), (6, Fraction(-1, 7), Fraction(5, 3)), (4, 0, -1), (7, 2, -5)]
)
def test_intertwiner_inverse_on_both_sides(n, a, b):
    q = sl.intertwiner(n, a, b)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert mat_mul(q.matrix(), q.inverse()) == identity
    assert mat_mul(q.inverse(), q.matrix()) == identity


def test_intertwiner_rejects_singular_parameters():
    with pytest.raises(sl.SingularParameters):
        sl.intertwiner(3, Fraction(1), Fraction(0))
    with pytest.raises(sl.SingularParameters):
        sl.intertwiner(3, Fraction(-1, 3), Fraction(1))


def test_simplex_volume_small():
    alpha = make_slope("phi")
    for n in range(1, 7):
        assert sl.simplex_volume(alpha, n) == Fraction(1, math.factorial(n))


def test_factor_matrix_entries_bounded():
    rng = random.Random(7)
    for _ in range(30):
        sigma = random_perm(rng, 8)
        assert all(x in (-1, 0, 1) for row in sl.factor_matrix(sigma).entries for x in row)
        assert all(x in (0, 1) for row in sl.aux_matrix(sigma).columns for x in row)


@settings(max_examples=100, deadline=None, database=None)
@given(line=st.integers(1, 150).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_run_matrices_equal_the_column_walk(line):
    sigma = sl.FracPermutation(len(line), tuple(line))
    cols = column_walk(sigma)
    assert sl.aux_matrix(sigma).columns == tuple(cols)
    last = cols[-1]
    want = tuple(tuple(c[i] - x for c in cols[:-1]) for i, x in enumerate(last))
    assert sl.factor_matrix(sigma).entries == want


@st.composite
def run_matrices(draw):
    """(n, runs) for n <= 8: each row is v on columns l..r, v in -3..3.

    About half of them are singular: repeated or zero rows, and edge sets
    (l, r + 1) that close a cycle and leave a node unreached.
    """
    n = draw(st.integers(1, 8))
    runs = []
    for _ in range(n):
        l = draw(st.integers(1, n))
        runs.append((l, draw(st.integers(l, n)), draw(st.integers(-3, 3))))
    return n, runs


@settings(max_examples=500, deadline=None, database=None)
@given(case=run_matrices())
def test_det_runs_equals_det_exact(case):
    n, runs = case
    rows = [[v if l <= j <= r else 0 for j in range(1, n + 1)] for l, r, v in runs]
    assert det_runs(n, runs) == det_exact(rows)


def test_det_runs_on_every_unit_run_matrix_of_size_3():
    # all 6^3 matrices of runs with v = 1, singular ones included
    spans = [(l, r, 1) for l in range(1, 4) for r in range(l, 4)]
    dets = []
    for runs in itertools.product(spans, repeat=3):
        rows = [[1 if l <= j <= r else 0 for j in range(1, 4)] for l, r, _ in runs]
        dets.append(det_runs(3, runs))
        assert dets[-1] == det_exact(rows)
    assert set(dets) == {-1, 0, 1}


@pytest.mark.parametrize(
    "runs",
    # a wrong row count, then runs outside columns 1..3, each after a zero row
    # (2, 1) that must not hide it
    [[(1, 1, 1)]] + [[(2, 1, 1), bad, (1, 3, 1)] for bad in [(0, 2, 1), (-1, 2, 1), (2, 4, 1), (0, -1, 1)]],
    ids=["count", "l=0", "l=-1", "r>n", "empty l=0"],
)
def test_det_runs_rejects_bad_runs(runs):
    with pytest.raises(ValueError):
        det_runs(3, runs)


@settings(max_examples=100, deadline=None, database=None)
@given(line=st.integers(1, 300).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_det_runs_of_factor_matrix_is_sign(line):
    sigma = sl.FracPermutation(len(line), tuple(line))
    assert det_runs(sigma.n, _runs(sigma)) == sl.sign_direct(sigma)


@settings(max_examples=100, deadline=None, database=None)
@given(line=st.integers(1, 150).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_runs_start_at_one_exactly_on_descents(line):
    sigma = sl.FracPermutation(len(line), tuple(line))
    runs = _runs(sigma)
    assert all(1 <= l <= r <= sigma.n and v in (-1, 1) for l, r, v in runs)
    # row i of L starts at 1 iff it is row 1 or steps down first (v = -1)
    assert {i for i, (_, _, v) in enumerate(runs, 1) if i == 1 or v < 0} == sl.descent_set(sigma)
