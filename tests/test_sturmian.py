"""Sturmian words, factor sets, and the factor/permutation correspondence."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

import sturmlab as sl
from sturmlab import sturmian
from sturmlab.oracles import floor_affine_cf, mechanical_factors, mechanical_letters, pi_direct
from sturmlab.selftest import FACTORS_INV_E_6, WORD_PREFIX_INV_E
from conftest import KERNEL_SLOPES, MP_VALUES, make_slope, mp_floor


def test_characteristic_prefix_inv_e():
    assert sl.characteristic_prefix(sl.EulerEInv(), 21) == WORD_PREFIX_INV_E


def test_factor_set_inv_e_6():
    assert sl.factor_set(sl.EulerEInv(), 6).factors == FACTORS_INV_E_6


def test_characteristic_letters_match_numeric_floors(named_slope):
    name, alpha = named_slope
    x = mp.frac(MP_VALUES[name])
    word = sl.characteristic_prefix(alpha, 200)
    for i, letter in enumerate(word):
        assert letter == mp_floor((i + 2) * x) - mp_floor((i + 1) * x)


def test_rational_intercept_letters_match_numeric_floors():
    x = MP_VALUES["1/e"]
    word = mechanical_letters(make_slope("1/e"), Fraction(1, 3), 150)
    b = mp.mpf(1) / 3
    for i, letter in enumerate(word):
        assert letter == mp_floor((i + 1) * x + b) - mp_floor(i * x + b)


def test_ceiling_word_letters_match_numeric_ceils():
    x = MP_VALUES["phi"]
    word = mechanical_letters(make_slope("phi"), Fraction(2, 7), 150, ceiling=True)
    b = mp.mpf(2) / 7
    for i, letter in enumerate(word):
        want = -mp_floor(-((i + 1) * x + b)) - (-mp_floor(-(i * x + b)))
        assert letter == want


def test_integer_intercept_sets_the_first_ceiling_letter():
    # floor and ceiling words differ only where a term is an integer: with an
    # integer intercept that is the term at i = 0, so only letter 0 differs
    alpha = make_slope("phi")
    for beta in (0, -3):
        floor_word = mechanical_letters(alpha, beta, 50)
        ceil_word = mechanical_letters(alpha, beta, 50, ceiling=True)
        assert (floor_word[0], ceil_word[0]) == (0, 1)
        assert floor_word[1:] == ceil_word[1:]


def test_factor_count_is_n_plus_one(named_slope):
    name, alpha = named_slope
    for n in (1, 2, 3, 5, 8, 13, 21):
        assert len(sl.factor_set(alpha, n).factors) == n + 1


def test_factors_sorted_anti_lexicographically(named_slope):
    name, alpha = named_slope
    factors = sl.factor_set(alpha, 10).factors
    assert list(factors) == sorted(factors, reverse=True)
    assert len(set(factors)) == len(factors)


INTERCEPTS = (Fraction(0), Fraction(1, 3), Fraction(5, 7), Fraction(1, 4))


def test_factor_set_independent_of_intercept():
    for name, n in (("phi", 8), ("1/e", 7)):
        alpha = make_slope(name)
        for beta in INTERCEPTS:
            assert sl.factor_set(alpha, n) == mechanical_factors(alpha, beta, n, 300), (name, beta)


def test_ceiling_variant_same_factor_set():
    for name, n in (("phi", 8), ("1/e", 7)):
        alpha = make_slope(name)
        for beta in INTERCEPTS:
            want = mechanical_factors(alpha, beta, n, 300, ceiling=True)
            assert sl.factor_set(alpha, n) == want, (name, beta)


def test_factor_set_from_perm_agrees_with_word_route(named_slope):
    name, alpha = named_slope
    for n in (1, 2, 3, 6, 11, 17):
        via_word = sl.factor_set(alpha, n)
        via_perm = sl.factor_set_from_perm(pi_direct(alpha, n))
        assert via_word.factors == via_perm.factors


def test_scan_cap_raises_when_too_small(monkeypatch):
    monkeypatch.setattr(sturmian, "SCAN_CAP_FACTOR", 0)
    with pytest.raises(sl.SafetyCapExceeded):
        sl.factor_set(make_slope("phi"), 12)


def test_word_letter_single_positions():
    # random access at small and large indices, against interval refinement:
    # letter i is floor((i+2)*a) - floor((i+1)*a) - floor(a)
    rng = random.Random(31337)
    for name in sorted(KERNEL_SLOPES):
        alpha, oracle = KERNEL_SLOPES[name](), KERNEL_SLOPES[name]()
        f1 = floor_affine_cf(oracle, 1, 0, 1)
        assert [sl.word_letter(alpha, i) for i in range(40)] == sl.characteristic_prefix(alpha, 40)
        for i in [*range(40), *(rng.randint(1, 10**9) for _ in range(40))]:
            want = floor_affine_cf(oracle, i + 2, 0, 1) - floor_affine_cf(oracle, i + 1, 0, 1) - f1
            assert sl.word_letter(alpha, i) == want, (name, i)
