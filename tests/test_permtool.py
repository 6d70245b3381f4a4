"""Ordering permutations: construction, recurrence, signs, orders, gaps."""

import math
import random

import pytest
from mpmath import mp

import sturmlab as sl
from sturmlab.oracles import b_alpha, farey_cells, pi_direct
from conftest import MP_VALUES, insert_by_frac, make_slope, mp_frac, random_perm


def test_one_line_validation():
    bad = [
        (3, (1, 1, 2)),  # a duplicate
        (3, (2, 3, 2)),  # a duplicate closing no cycle at its start
        (3, (1, 2)),  # too short
        (2, (1, 2, 3)),  # too long
        (3, (0, 1, 2)),
        (3, (1, 2, 4)),  # n + 1
        (3, (-2, 1, 2)),
        (2, (1.0, 2)),
        (2, (2, 1.0)),
        (2, (True, 2)),
        (2, (2, True)),
        (1, ("1",)),
    ]
    for n, line in bad:
        with pytest.raises(ValueError):
            sl.FracPermutation(n, line)
    assert sl.FracPermutation(0, ()).cycles() == []



def test_a_list_builds_the_same_permutation_as_a_tuple():
    from_list, from_tuple = sl.FracPermutation(2, [2, 1]), sl.FracPermutation(2, (2, 1))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert from_list.one_line == (2, 1)

def test_identity_and_call():
    e = sl.FracPermutation.identity(4)
    assert e.one_line == (1, 2, 3, 4)
    assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        e(0)
    with pytest.raises(ValueError):
        e(5)


def test_cycles_and_cycle_string():
    pi = sl.FracPermutation(5, (5, 2, 4, 1, 3))
    assert pi.cycle_string() == "(1 5 3 4)(2)"
    assert pi.cycles() == [(1, 5, 3, 4), (2,)]
    assert pi.fixed_points() == [2]


def test_inverse_and_compose_convention():
    sigma = sl.FracPermutation(3, (2, 3, 1))
    tau = sl.FracPermutation(3, (2, 1, 3))
    # compose(other) applies other first: (sigma * tau)(i) = sigma(tau(i))
    st = sigma.compose(tau)
    assert [st(i) for i in (1, 2, 3)] == [sigma(tau(i)) for i in (1, 2, 3)]
    assert sigma.compose(sigma.inverse()).one_line == (1, 2, 3)
    assert (sigma * tau).one_line == st.one_line


def test_compose_requires_same_degree():
    with pytest.raises(ValueError):
        sl.FracPermutation.identity(3).compose(sl.FracPermutation.identity(4))


def test_pi_phi_5_fixture():
    assert pi_direct(sl.phi(), 5).one_line == (5, 2, 4, 1, 3)


def test_pi_direct_matches_numeric_sort(named_slope):
    name, alpha = named_slope
    for n in (1, 2, 5, 17, 60):
        want = tuple(sorted(range(1, n + 1), key=lambda k: mp_frac(name, k)))
        assert pi_direct(alpha, n).one_line == want


def test_pi_sos_equals_pi_direct_small(named_slope):
    name, alpha = named_slope
    for n in range(1, 121):
        assert sl.pi_sos(alpha, n).one_line == pi_direct(alpha, n).one_line


# Slopes for the recurrence oracle: huge partial quotients, a pre-periodic
# expansion, a negative surd and slopes above 1 or below -1.
ORACLE_SLOPES = {
    "cf:[0;2,32003,...]": lambda: sl.parse_slope("cf:[0;2,32003,...]"),
    "cf:[0;33023,1,...]": lambda: sl.parse_slope("cf:[0;33023,1,...]"),
    "cf:[0;1,100000,...]": lambda: sl.parse_slope("cf:[0;1,100000,...]"),
    "pre-periodic": lambda: sl.ExplicitCF([1, 4, 2, 9, 1], repeat=[3, 250, 1]),
    "(5-3*sqrt(7))/2": lambda: sl.parse_slope("(5-3*sqrt(7))/2"),
    "cf:[3;1,1,1,50,...]": lambda: sl.parse_slope("cf:[3;1,1,1,50,...]"),
    "cf:[-2;7,1,...]": lambda: sl.parse_slope("cf:[-2;7,1,...]"),
}
ORACLE_N = 1200
# sizes around convergent denominators up to here are checked too
ORACLE_Q_MAX = 110_000


def _is_increasing_ordering(alpha, line):
    """Whether line lists 1..len(line) by strictly increasing fractional part."""
    return sorted(line) == list(range(1, len(line) + 1)) and all(
        alpha.frac_compare(a, b) < 0 for a, b in zip(line, line[1:])
    )


@pytest.mark.parametrize("name", sorted(ORACLE_SLOPES))
def test_pi_sos_equals_direct_sort(name):
    alpha = ORACLE_SLOPES[name]()
    # the comparison sort, grown one index at a time by binary insertion
    ordering = []
    for n in range(1, ORACLE_N + 1):
        insert_by_frac(alpha, ordering, n)
        assert sl.pi_sos(alpha, n).one_line == tuple(ordering), f"n={n}"
    assert pi_direct(alpha, ORACLE_N).one_line == tuple(ordering)
    j = 0
    while alpha.convergent(j).q < ORACLE_Q_MAX:
        q = alpha.convergent(j).q
        for n in (q - 1, q, q + 1):
            if n > ORACLE_N:
                assert _is_increasing_ordering(alpha, sl.pi_sos(alpha, n).one_line), f"n={n}"
            elif n >= 1:
                assert sl.pi_sos(alpha, n).one_line == pi_direct(alpha, n).one_line
        j += 1


def _brute_extremes(alpha, n_max):
    """(n, least index, greatest index) of {k*alpha} over k <= n, n = 1..n_max."""
    first = last = 1
    for n in range(1, n_max + 1):
        if alpha.frac_compare(n, first) < 0:
            first = n
        if alpha.frac_compare(n, last) > 0:
            last = n
        yield n, first, last


@pytest.mark.parametrize("name", sorted(ORACLE_SLOPES))
def test_extreme_positions_match_brute_force(name):
    alpha = ORACLE_SLOPES[name]()
    for n, first, last in _brute_extremes(alpha, ORACLE_N):
        assert sl.permtool.extreme_positions(alpha, n) == (first, last), f"n={n}"


def test_extreme_positions_on_random_pre_periodic_slopes():
    rng = random.Random(4127)
    for _ in range(60):
        head = [rng.randint(-4, 4)] + [rng.randint(1, 40) for _ in range(rng.randint(0, 3))]
        block = [rng.choice((1, 2, 3, rng.randint(1, 5000))) for _ in range(rng.randint(1, 3))]
        alpha = sl.ExplicitCF(head, repeat=block)
        for n, first, last in _brute_extremes(alpha, 300):
            assert sl.permtool.extreme_positions(alpha, n) == (first, last), (head, block, n)


def test_pi_sos_reports_a_broken_recurrence(monkeypatch):
    # with wrong extremes the recurrence stalls and repeats an index
    monkeypatch.setattr(sl.permtool, "extreme_positions", lambda alpha, n: (1, 1))
    with pytest.raises(sl.RecurrenceMismatch):
        sl.pi_sos(sl.phi(), 5)


def test_sos_kernel_rejects_pairs_that_are_not_extremes():
    # the extremes of some slope at size n are exactly the Farey denominator
    # pairs: coprime b, d <= n < b + d; every other pair repeats an index or
    # ends elsewhere than at last, and the walk must say so, not loop or
    # index out of range; a line that does not run from first to last fails too
    for n in range(1, 31):
        cells = {(c.left.denominator, c.right.denominator) for c in farey_cells(n)}
        for first in range(1, n + 1):
            for last in range(1, n + 1):
                line = sl.permtool._sos_line(n, first, last)
                assert len(line) == n and min(line) >= 1 and max(line) <= n
                line.insert(0, 0)
                if (first, last) in cells:
                    sign, order = sl.permtool._sign_order(line, first, last)
                    assert sign in (-1, 1) and order >= 1
                    for wrong in (-1, 0, first - 1, first + 1, last - 1, last + 1, n + 1):
                        if wrong != first:
                            with pytest.raises(sl.RecurrenceMismatch):
                                sl.permtool._sign_order(line, wrong, last)
                        if wrong != last:
                            with pytest.raises(sl.RecurrenceMismatch):
                                sl.permtool._sign_order(line, first, wrong)
                else:
                    with pytest.raises(sl.RecurrenceMismatch):
                        sl.permtool._sign_order(line, first, last)


@pytest.mark.parametrize("shift", [1, -1])
def test_range_sign_orders_reject_a_top_line_from_wrong_extremes(monkeypatch, shift):
    # the one Sos line, built at the top size from these extremes, is checked
    # there: for phi at n = 30, (13 +- 1, 21) gives a line that is no
    # bijection or does not end at 21
    right = sl.permtool.extreme_positions

    def wrong(alpha, n):
        first, last = right(alpha, n)
        return first + shift, last

    monkeypatch.setattr(sl.permtool, "extreme_positions", wrong)
    with pytest.raises(sl.RecurrenceMismatch):
        sl.permtool.range_sign_orders(sl.phi(), 2, 30)


@pytest.mark.parametrize(
    "sweep",
    [lambda: sl.permtool.range_sign_orders(sl.phi(), 2, 30), lambda: sl.exact_integral(1, 30)],
    ids=["table", "integral"],
)
def test_range_sign_orders_reject_a_walked_sign_off_the_deletion_recurrence(monkeypatch, sweep):
    # below the top size the sign comes from the deletion ranks; a walked
    # size whose sign differs from it is a broken line, not a choice of route.
    # Both commands share the sweep: a line swept from 30 raises at its first
    # walk below the top, and one swept from below 30 is flipped throughout
    walk = sl.permtool._sign_order
    walked = []

    def flipped_below_30(line, first, last):
        sign, order = walk(line, first, last)
        walked.append(len(line) - 1)
        return (-sign if len(line) - 1 < 30 else sign), order

    monkeypatch.setattr(sl.permtool, "_sign_order", flipped_below_30)
    with pytest.raises(sl.RecurrenceMismatch, match="walked sign"):
        sweep()
    assert walked[-2] == 30 > walked[-1]


def test_pi_rejects_bad_n():
    with pytest.raises(ValueError):
        pi_direct(sl.phi(), 0)
    with pytest.raises(ValueError):
        sl.pi_sos(sl.phi(), 0)
    with pytest.raises(ValueError):
        sl.permtool.extreme_positions(sl.phi(), 0)


def test_b_alpha_matches_numeric_count(named_slope):
    name, alpha = named_slope
    for k in range(1, 200):
        fk = mp_frac(name, k)
        want = sum(1 for q in range(1, k) if mp_frac(name, q) < fk)
        assert b_alpha(alpha, k) == want


def test_b_stream_matches_direct(named_slope):
    name, alpha = named_slope
    stream = sl.b_stream(alpha)
    for k, bk in ((k, b) for k, b in zip(range(1, 401), (v for _, v in stream))):
        assert bk == b_alpha(alpha, k), f"k={k}"


def test_b_stream_yields_indexed_pairs():
    # {phi} > {2 phi} > ... so B(2) = 0 while both earlier points lie
    # below {3 phi}
    stream = sl.b_stream(sl.phi())
    assert [next(stream) for _ in range(3)] == [(1, 0), (2, 0), (3, 2)]


def test_sign_direct_known_cases():
    assert sl.sign_direct(sl.FracPermutation.identity(6)) == 1
    assert sl.sign_direct(sl.FracPermutation(4, (2, 1, 3, 4))) == -1  # (1 2)
    assert sl.sign_direct(sl.FracPermutation(4, (2, 3, 1, 4))) == 1  # (1 2 3)


def test_sign_formula_matches_direct_small(named_slope):
    name, alpha = named_slope
    for n in range(1, 61):
        assert sl.sign_formula(alpha, n) == sl.sign_direct(pi_direct(alpha, n))


def test_sign_constant_on_even_odd_pairs(named_slope):
    name, alpha = named_slope
    for n in range(1, 40):
        assert sl.sign_formula(alpha, 2 * n) == sl.sign_formula(alpha, 2 * n + 1)


def test_euclid_product_equals_the_word_written_out():
    rng = random.Random(7)
    for _ in range(2000):
        p, q, n = rng.randint(0, 40), rng.randint(1, 40), rng.randint(0, 60)
        r = rng.randint(0, q - 1)
        f = [(p * l + r) // q for l in range(n + 1)]
        word = "".join("U" * (f[l] - f[l - 1]) + "R" for l in range(1, n + 1))
        got = sl.permtool._euclid_product(p, q, r, n, "U", "R", str.__add__, "")
        assert got == word, (p, q, r, n)


def test_order_is_cycle_lcm():
    pi = sl.FracPermutation(9, (2, 3, 1, 5, 4, 7, 8, 9, 6))  # (1 2 3)(4 5)(6 7 8 9)
    assert sl.order(pi) == math.lcm(3, 2, 4)
    assert sl.order(sl.FracPermutation.identity(3)) == 1


def test_multiplicative_order():
    assert sl.permtool.multiplicative_order(2, 7) == 3
    assert sl.permtool.multiplicative_order(3, 10) == 4
    assert sl.permtool.multiplicative_order(1, 1) == 1
    with pytest.raises(ValueError):
        sl.permtool.multiplicative_order(2, 8)


def test_multiplicative_order_equals_the_powers_walked():
    def walked(x, m):  # the least t with x**t = 1 mod m, one power at a time
        t, power = 1, x % m
        while power != 1 % m:
            power = power * x % m
            t += 1
        return t

    for m in range(1, 501):
        for x in range(m):
            if math.gcd(x, m) == 1:
                assert sl.permtool.multiplicative_order(x, m) == walked(x, m), (x, m)
    # a large prime factor, squared primes, and a prime whose p - 1 is a power of 2
    for m in (65537, 2 * 99991, 3 * 7**2 * 30011, 999983):
        for x in (2, 3, -1, 12345):
            if math.gcd(x, m) == 1:
                assert sl.permtool.multiplicative_order(x, m) == walked(x, m), (x, m)


def test_order_prediction_matches_direct(named_slope):
    name, alpha = named_slope
    applicable = 0
    for n in range(2, 80):
        pi = pi_direct(alpha, n)
        pred = sl.order_prediction(alpha, n)
        if pred is None:
            assert pi(n) != n and pi(1) != n
            continue
        applicable += 1
        assert pred.case in ("max", "min")
        assert pred.order_prev == sl.order(pi_direct(alpha, n - 1))
        assert pred.order_n == sl.order(pi)
    assert applicable > 0


def scanned_min_modulus(n, last):
    """The "min" case's g by scanning every candidate: the peel's oracle."""
    return next(
        g for g in range(1, last + 2) if (last + 1) % g == 0 and math.gcd(n, (last + 1) // g) == 1
    )


def test_min_modulus_equals_scan():
    for n in range(2, 400):
        for last in range(1, n + 1):
            assert sl.permtool._min_modulus(n, last) == scanned_min_modulus(n, last), (n, last)
    rng = random.Random(8191)
    for _ in range(20000):
        n = rng.randrange(2, 10**6)
        last = rng.randint(1, n)
        assert sl.permtool._min_modulus(n, last) == scanned_min_modulus(n, last), (n, last)


def test_order_prediction_spot_values():
    e = sl.EulerE()
    pred = sl.order_prediction(e, 71)
    assert pred is not None and (pred.order_prev, pred.order_n) == (14, 14)
    phi = sl.phi()
    pred8 = sl.order_prediction(phi, 8)
    assert pred8 is not None and pred8.order_n == 2
    pred13 = sl.order_prediction(phi, 13)
    assert pred13 is not None and pred13.order_n == 4


def test_three_distance_gap_count_and_sum(named_slope):
    name, alpha = named_slope
    for n in (1, 2, 3, 7, 20, 101):
        gaps = sl.three_distance_gaps(alpha, n)
        assert len(gaps) == n + 1
        assert len(set(gaps)) <= 3
        assert sum(g.coeff for g in gaps) == 0
        assert sum(g.offset for g in gaps) == 1


def test_three_distance_gaps_match_numeric_widths(named_slope):
    name, alpha = named_slope
    frac_a = mp.frac(MP_VALUES[name])
    for n in (4, 9, 33):
        ordering = sorted(range(1, n + 1), key=lambda k: mp_frac(name, k))
        fracs = [mp.mpf(0)] + [mp_frac(name, k) for k in ordering] + [mp.mpf(1)]
        widths = [fracs[i + 1] - fracs[i] for i in range(n + 1)]
        gaps = sl.three_distance_gaps(alpha, n)
        for gap, width in zip(gaps, widths):
            assert abs(gap.coeff * frac_a + gap.offset - width) < mp.mpf(10) ** -60


def test_gap_str_forms():
    assert str(sl.Gap(1, 0)) == "1*frac"
    assert str(sl.Gap(-2, 1)) == "-2*frac+1"
    assert str(sl.Gap(3, -1)) == "3*frac-1"


def test_random_composition_order_sign_consistency():
    rng = random.Random(5077)
    for _ in range(100):
        n = rng.randint(2, 10)
        pi = random_perm(rng, n)
        assert sl.sign_direct(pi) * sl.sign_direct(pi.inverse()) == 1
        assert sl.order(pi) == sl.order(pi.inverse())
        power = sl.FracPermutation.identity(n)
        for _ in range(sl.order(pi)):
            power = power.compose(pi)
        assert power.one_line == tuple(range(1, n + 1))
