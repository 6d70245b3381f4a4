"""Sturmian words, factor sets, and the factor/permutation correspondence."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

import sturmlab as sl
from sturmlab import sturmian
from sturmlab.oracles import floor_affine_cf, pi_direct
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
    alpha = make_slope("1/e")
    x = MP_VALUES["1/e"]
    beta = Fraction(1, 3)
    spec = sl.WordSpec(alpha, intercept=beta)
    word = [sl.word_letter(spec, i) for i in range(150)]
    b = mp.mpf(1) / 3
    for i, letter in enumerate(word):
        assert letter == mp_floor((i + 1) * x + b) - mp_floor(i * x + b)
    # every kernel slope, both roundings, against interval refinement:
    # k*{a} + p/q = (k*q*a + p - k*q*floor(a))/q
    rng = random.Random(31337)
    for name in sorted(KERNEL_SLOPES):
        alpha, oracle = KERNEL_SLOPES[name](), KERNEL_SLOPES[name]()
        f1 = floor_affine_cf(oracle, 1, 0, 1)
        for ceiling in (False, True):
            beta = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            spec = sl.WordSpec(alpha, intercept=beta, ceiling=ceiling)
            p, q = beta.numerator, beta.denominator
            s = -1 if ceiling else 1

            def term(k):
                return s * floor_affine_cf(oracle, s * k * q, s * (p - k * q * f1), q)

            ks = [*range(40), *(rng.randint(1, 10**9) for _ in range(40))]
            for i in ks:
                assert sl.word_letter(spec, i) == term(i + 1) - term(i), (name, beta, i)


def test_ceiling_word_letters_match_numeric_ceils():
    alpha = make_slope("phi")
    x = MP_VALUES["phi"]
    spec = sl.WordSpec(alpha, intercept=Fraction(2, 7), ceiling=True)
    word = [sl.word_letter(spec, i) for i in range(150)]
    b = mp.mpf(2) / 7
    for i, letter in enumerate(word):
        want = -mp_floor(-((i + 1) * x + b)) - (-mp_floor(-(i * x + b)))
        assert letter == want


def test_integer_intercept_sets_the_first_ceiling_letter():
    # floor and ceiling words differ only where a term is an integer: with an
    # integer intercept that is the term at i = 0, so only letter 0 differs
    alpha = make_slope("phi")
    for beta in (0, -3):
        floor_spec = sl.WordSpec(alpha, intercept=beta)
        ceil_spec = sl.WordSpec(alpha, intercept=beta, ceiling=True)
        floor_word = [sl.word_letter(floor_spec, i) for i in range(50)]
        ceil_word = [sl.word_letter(ceil_spec, i) for i in range(50)]
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


def test_factor_set_independent_of_intercept():
    alpha = make_slope("phi")
    base = sl.factor_set(alpha, 8).factors
    for beta in (Fraction(0), Fraction(1, 3), Fraction(5, 7)):
        spec = sl.WordSpec(alpha, intercept=beta)
        assert sl.word_factor_set(spec, 8).factors == base


def test_ceiling_variant_same_factor_set():
    alpha = make_slope("1/e")
    base = sl.factor_set(alpha, 7).factors
    spec = sl.WordSpec(alpha, intercept=Fraction(1, 4), ceiling=True)
    assert sl.word_factor_set(spec, 7).factors == base


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
    alpha = make_slope("1/e")
    spec = sl.WordSpec(alpha)
    prefix = sl.characteristic_prefix(alpha, 40)
    for i in (0, 7, 39):
        assert sl.word_letter(spec, i) == prefix[i]
