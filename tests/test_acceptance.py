"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each check pins exact expected values (no tolerances anywhere:
all arithmetic is integer or rational) and asserts its runtime budget.
Set STURMLAB_FULL_SCALE=1 to extend the slow scan in c10 from 10^6 to 10^7.
"""

import csv
import io
import itertools
import math
import os
import random
import time
from fractions import Fraction

import pytest

import sturmlab as sl
from sturmlab.matrep import mat_mul
from sturmlab.oracles import complement_factors, det_exact, pi_direct
from sturmlab.selftest import (
    AUX_52314,
    FACTORS_INV_E_6,
    MATRIX_52314,
    MATRIX_INV_E_6,
    WORD_PREFIX_INV_E,
)
from conftest import SWEEP_N, all_perms, insert_by_frac, make_slope, random_perm
from table_e_golden import TABLE_E

FULL_SCALE = os.environ.get("STURMLAB_FULL_SCALE") == "1"


def test_c01_golden_sign_order_table_slope_e(run_cli):
    started = time.monotonic()
    rc, out, err = run_cli(["table", "--alpha", "e", "--from", "2", "--to", "136"])
    assert rc == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 135
    got = {int(n): (int(s), int(o)) for n, s, o in rows}
    assert got == TABLE_E
    assert got[70] == (-1, 14) and got[71] == (-1, 14)
    assert got[123] == (1, 22383900)
    assert time.monotonic() - started < 10


def test_c02_unimodular_det_and_simplex_volume():
    started = time.monotonic()
    for name in ("phi", "1/e", "sqrt2-1", "e"):
        alpha = make_slope(name)
        for n in range(1, 65):
            det = det_exact(sl.m_from_alpha(alpha, n))
            assert abs(det) == 1, f"{name}, n={n}"
            assert sl.simplex_volume(alpha, n) == Fraction(1, math.factorial(n))
    assert time.monotonic() - started < 30


def test_c03_matrix_representation_is_homomorphism():
    started = time.monotonic()
    for tau in all_perms(4):
        for sigma in all_perms(4):
            prod = mat_mul(sl.factor_matrix(tau).rows(), sl.factor_matrix(sigma).rows())
            assert prod == sl.factor_matrix(tau.compose(sigma)).rows()
    rng = random.Random(8345)
    for _ in range(1000):
        tau, sigma = random_perm(rng, 8), random_perm(rng, 8)
        prod = mat_mul(sl.factor_matrix(tau).rows(), sl.factor_matrix(sigma).rows())
        assert prod == sl.factor_matrix(tau.compose(sigma)).rows()
    # worked product: adjacent swap of 3 and 4 composed with the size-5
    # golden ratio permutation
    adj = sl.FracPermutation(5, (1, 2, 4, 3, 5))
    pi5 = pi_direct(sl.phi(), 5)
    prod = mat_mul(sl.factor_matrix(adj).rows(), sl.factor_matrix(pi5).rows())
    composed = adj.compose(pi5)
    assert composed.one_line == (5, 2, 3, 1, 4)
    assert prod == sl.factor_matrix(composed).rows()
    assert time.monotonic() - started < 10


def test_c04_trace_counts_fixed_points():
    for sigma in all_perms(5):
        m_trace, _ = sl.char_trace(sigma)
        assert m_trace == len(sigma.fixed_points())
    snake = sl.FracPermutation(10, (1, 4, 5, 8, 2, 3, 9, 6, 10, 7))
    m_trace, l_trace = sl.char_trace(snake)
    first_col = sum(row[0] for row in sl.aux_matrix(snake).rows())
    assert l_trace == 3 == first_col - 1 + len(snake.fixed_points())
    assert m_trace == len(snake.fixed_points()) == 1


def test_c05_intertwiner_conjugation_and_determinant():
    pairs = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(-1)))
    for a, b in pairs:
        q = sl.intertwiner(4, a, b)
        qm, qi = q.matrix(), q.inverse()
        for sigma in all_perms(4):
            conj = mat_mul(mat_mul(qi, sl.factor_matrix(sigma).rows()), qm)
            want = [[Fraction(x) for x in row] for row in sl.perm_matrix(sigma)]
            assert conj == want, f"(a,b)=({a},{b}), sigma={sigma.one_line}"
    for n in range(1, 11):
        for a, b in pairs:
            assert sl.IntertwinerQ(n, a, b).det() == (n * a + b) * b ** (n - 1)


def test_c06_sign_formula_matches_direct_sign(pi_sweeps):
    started = time.monotonic()
    for name, (alpha, perms) in pi_sweeps.items():
        signs = [sl.sign_direct(pi) for pi in perms]
        for n in range(1, SWEEP_N + 1):
            assert sl.sign_formula(alpha, n) == signs[n - 1], f"{name}, n={n}"
        for n in range(1, SWEEP_N // 2):
            assert signs[2 * n - 1] == signs[2 * n], f"{name}, pair at {2 * n}"
    assert time.monotonic() - started < 60


def test_c07_order_predictions_and_fibonacci_orders(pi_sweeps):
    for name, (alpha, perms) in pi_sweeps.items():
        applicable = 0
        for n in range(2, 301):
            pred = sl.order_prediction(alpha, n)
            if pred is None:
                continue
            applicable += 1
            assert pred.order_prev == sl.order(perms[n - 2]), f"{name}, n={n}"
            assert pred.order_n == sl.order(perms[n - 1]), f"{name}, n={n}"
        assert applicable > 0, name

    phi = make_slope("phi")
    fib = {1: 1, 2: 1}
    for k in range(3, 21):
        fib[k] = fib[k - 1] + fib[k - 2]
    assert fib[20] == 6765
    for idx in range(4, 21):
        want = 2 if idx % 2 == 0 else 4
        for n in (fib[idx] - 1, fib[idx]):
            assert sl.order(pi_direct(phi, n)) == want, f"f_{idx}, n={n}"


def test_c08_recurrence_permutation_equals_direct_sort(pi_sweeps):
    for name, (alpha, perms) in pi_sweeps.items():
        for n in range(1, SWEEP_N + 1):
            assert sl.pi_sos(alpha, n).one_line == perms[n - 1].one_line, f"{name}, n={n}"
    assert pi_direct(sl.phi(), 5).one_line == (5, 2, 4, 1, 3)


def test_c09_at_most_three_distinct_gaps():
    for name in ("phi", "1/e", "sqrt2-1"):
        alpha = make_slope(name)
        for n in range(1, 1001):
            gaps = sl.three_distance_gaps(alpha, n)
            assert len(set(gaps)) <= 3, f"{name}, n={n}"
            assert sum(g.coeff for g in gaps) == 0
            assert sum(g.offset for g in gaps) == 1


def test_c10_better_approximation_count_suite():
    started = time.monotonic()
    k_top = 10**4

    for name in ("phi", "1/e", "sqrt2-1"):
        alpha = make_slope(name)
        # parity: odd k gives even B; even k gives B with the parity
        # opposite to floor(k * alpha)
        for k, bk in itertools.islice(sl.b_stream(alpha), k_top):
            if k % 2:
                assert bk % 2 == 0, f"{name}, k={k}"
            else:
                assert bk % 2 == (alpha.floor_multiple(k) + 1) % 2, f"{name}, k={k}"

    # reflection: B at slope alpha and at 1 - alpha sum to k - 1
    reflected_pairs = [
        (make_slope("phi"), sl.QuadraticSurd(3, -1, 5, 2)),
        (make_slope("sqrt2-1"), sl.QuadraticSurd(2, -1, 2, 1)),
    ]
    for alpha, mirror in reflected_pairs:
        for (k, ba), (_, bm) in itertools.islice(
            zip(sl.b_stream(alpha), sl.b_stream(mirror)), 2, k_top
        ):
            assert ba == k - 1 - bm, f"k={k}"

    # incremental recurrence versus an independent rank computation
    for name in ("phi", "1/e"):
        alpha = make_slope(name)
        ordering = []
        for k, bk in itertools.islice(sl.b_stream(alpha), k_top):
            assert bk == insert_by_frac(alpha, ordering, k), f"{name}, k={k}"

    assert sl.b_range_search(make_slope("1/e"), 25, 30000) == 22154
    scan_top = 10**7 if FULL_SCALE else 10**6
    assert sl.b_range_search(make_slope("1/e"), 23, scan_top) is None
    if not FULL_SCALE:
        assert time.monotonic() - started < 120


def test_c11_golden_ratio_sign_sum_stays_below_ten():
    started = time.monotonic()
    total, peak = sl.sign_sum(make_slope("phi"), 442412)
    assert peak < 10
    assert abs(total) <= peak
    assert time.monotonic() - started < 60


def test_c12_exact_integral_values_and_sweep(run_cli):
    started = time.monotonic()
    assert sl.exact_integral(1, 1)[0].value == 1
    assert sl.exact_integral(2, 2)[0].value == Fraction(3, 2)
    i35, i36, i37 = (r.value for r in sl.exact_integral(35, 37))
    assert i35 > i36 > i37

    rc, out, err = run_cli(["integral", "--to", "60", "--format", "tsv"])
    assert rc == 0, err
    lines = [line.split("\t") for line in out.strip().splitlines()]
    assert [int(n) for n, _ in lines] == list(range(1, 61))
    decimals = [float(v) for _, v in lines]
    assert decimals[0] == 1.0 and decimals[1] == 1.5
    assert time.monotonic() - started < 300


def test_c13_reference_fixtures_byte_exact():
    inv_e = sl.EulerEInv()
    assert sl.characteristic_prefix(inv_e, 21) == WORD_PREFIX_INV_E
    assert sl.factor_set(inv_e, 6).factors == FACTORS_INV_E_6
    assert sl.m_from_alpha(inv_e, 6).entries == MATRIX_INV_E_6

    sigma = sl.FracPermutation(5, (5, 2, 3, 1, 4))
    assert sl.descent_set(sigma) == frozenset({1, 2, 5})
    assert sl.descent_set(sl.FracPermutation(6, (1, 3, 5, 4, 2, 6))) == frozenset({1, 3, 5})
    assert sl.aux_matrix(sigma).rows() == [list(r) for r in AUX_52314]
    assert sl.factor_matrix(sigma).entries == MATRIX_52314

    # the adjacent swap of 3 and 4 in S_5 is the identity plus one
    # delta column at position 4
    adj = sl.FracPermutation(5, (1, 2, 4, 3, 5))
    v4 = [[0] * 5 for _ in range(5)]
    v4[2][3], v4[3][3], v4[4][3] = 1, -2, 1
    want = [[int(i == j) + v4[i][j] for j in range(5)] for i in range(5)]
    assert [list(r) for r in sl.factor_matrix(adj).entries] == want


def test_c14_congruence_matches_factor_set_relation():
    started = time.monotonic()
    pool = [
        make_slope("phi"),
        make_slope("1/e"),
        make_slope("sqrt2-1"),
        make_slope("e"),
        sl.QuadraticSurd(3, -1, 5, 2),  # 1 - {phi}
        sl.QuadraticSurd(2, -1, 2, 1),  # 2 - sqrt(2)
        sl.QuadraticSurd(1, 1, 7, 3),
        sl.QuadraticSurd(-2, 1, 13, 4),
        sl.ExplicitCF([0, 3], repeat=[1, 2]),
        sl.ExplicitCF([0, 1], repeat=[3, 2, 1]),
    ]
    rng = random.Random(20260825)
    pairs = [(rng.randrange(len(pool)), rng.randrange(len(pool))) for _ in range(20)]
    for i, j in pairs:
        alpha, beta = pool[i], pool[j]
        for n in (4, 8, 12):
            fa = sl.factor_set(alpha, n).factors
            fb = sl.factor_set(beta, n).factors
            related = fa == fb or fa == complement_factors(fb)
            congruent = sl.congruence_test(alpha, beta, n)
            if congruent and not related:
                pytest.fail(
                    "counterexample to the congruence conjecture (only-if "
                    f"direction): slopes #{i}={alpha.expression()} and "
                    f"#{j}={beta.expression()} are congruent at n={n} yet the "
                    "factor sets are neither equal nor complementary"
                )
            if related and not congruent:
                pytest.fail(
                    f"missed isometry: factor sets at n={n} are "
                    f"equal/complementary for #{i} and #{j} but the "
                    "congruence test returned False"
                )
    assert time.monotonic() - started < 300
