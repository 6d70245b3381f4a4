"""Exact slope kernel: convergents, floors, comparisons, parsing, budgets."""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from mpmath import mp

import sturmlab as sl
from sturmlab.oracles import bracket, floor_affine_cf
from conftest import KERNEL_SLOPES, MP_VALUES, make_slope, mp_floor

E_CONVERGENTS = [
    Fraction(2),
    Fraction(3),
    Fraction(8, 3),
    Fraction(11, 4),
    Fraction(19, 7),
    Fraction(87, 32),
    Fraction(106, 39),
    Fraction(193, 71),
]


def test_e_convergents_first_eight():
    e = sl.EulerE()
    got = [e.convergent(k).value for k in range(8)]
    assert got == E_CONVERGENTS


def test_convergents_alternate_and_squeeze(named_slope):
    name, alpha = named_slope
    x = MP_VALUES[name]
    prev_err = None
    for k in range(12):
        c = alpha.convergent(k)
        err = mp.mpf(c.p) / c.q - x
        # even-index convergents lie below, odd above
        assert (err < 0) == (k % 2 == 0)
        assert abs(err) < mp.mpf(1) / (c.q * c.q)
        if prev_err is not None:
            assert abs(err) < abs(prev_err)
        prev_err = err


def test_floor_multiple_matches_numeric_oracle(named_slope):
    name, alpha = named_slope
    x = MP_VALUES[name]
    for k in range(1, 2001):
        assert alpha.floor_multiple(k) == mp_floor(k * x), f"k={k}"


def test_floor_reduced_matches_fractional_slope(named_slope):
    name, alpha = named_slope
    frac_x = mp.frac(MP_VALUES[name])
    for k in range(1, 500):
        assert alpha.floor_reduced(k) == mp_floor(k * frac_x)


def test_frac_compare_matches_numeric_oracle(named_slope):
    name, alpha = named_slope
    x = MP_VALUES[name]
    rng = random.Random(94121)
    for _ in range(400):
        i, j = rng.randint(1, 3000), rng.randint(1, 3000)
        want = 0 if i == j else (-1 if mp.frac(i * x) < mp.frac(j * x) else 1)
        assert alpha.frac_compare(i, j) == want
    assert alpha.frac_compare(17, 17) == 0


def test_compare_multiple_brackets_integer_thresholds(named_slope):
    name, alpha = named_slope
    x = MP_VALUES[name]
    for k in (1, 2, 7, 40):
        t = mp_floor(k * x)
        assert alpha.compare_multiple(k, t) == 1  # k*x > floor
        assert alpha.compare_multiple(k, t + 1) == -1  # k*x < floor + 1


def test_refinement_stream_shrinks_and_nests(named_slope):
    name, alpha = named_slope
    x = MP_VALUES[name]
    prev = None
    for level in range(2, 12):
        box = bracket(alpha, level)
        lo = mp.mpf(box[0].numerator) / box[0].denominator
        hi = mp.mpf(box[1].numerator) / box[1].denominator
        assert lo < x < hi
        if prev is not None:
            assert prev[0] <= box[0] and box[1] <= prev[1]
            assert box[1] - box[0] < prev[1] - prev[0]
        prev = box


def _affine_floor(alpha, u, v, w):
    """floor((u*alpha + v)/w) from floor_multiple alone:
    floor((x + v)/w) = (floor(x) + v) // w for integers v and w >= 1, and
    floor(u*alpha) = -floor(-u*alpha) - 1 for u < 0."""
    if w < 0:
        u, v, w = -u, -v, -w
    if u > 0:
        fu = alpha.floor_multiple(u)
    else:
        fu = -alpha.floor_multiple(-u) - 1 if u else 0
    return (fu + v) // w


def test_surd_floor_paths_agree():
    # the floor line, the refinement floor and the closed-form isqrt floor
    # must agree, at k and at -k
    alpha = sl.QuadraticSurd(-1, 1, 5, 2)
    for k in range(1, 300):
        want = sl.irrational._floor_surd(k * alpha.a, k * alpha.b, alpha.d, alpha.c)
        p, r, q = alpha.floor_line(k)
        assert alpha.floor_multiple(k) == (k * p + r) // q == want
        assert floor_affine_cf(alpha, k, 0, 1) == want
        neg = sl.irrational._floor_surd(-k * alpha.a, -k * alpha.b, alpha.d, alpha.c)
        assert _affine_floor(alpha, -k, 0, 1) == floor_affine_cf(alpha, -k, 0, 1) == neg


def _oracles(alpha, u, v, w):
    yield floor_affine_cf(alpha, u, v, w)
    if isinstance(alpha, sl.QuadraticSurd):
        yield sl.irrational._floor_surd(
            u * alpha.a + v * alpha.c, u * alpha.b, alpha.d, alpha.c * w
        )


def _kernel_cases(oracle, rng):
    """(u, v, w) triples: exact multiples j*q_m of every early convergent
    denominator below q_{m+1} in ascending order, so the kernel meets them at
    index m, where j*q_m*p_m divides by q_m, then random ones in random order."""
    cases = []
    for m in range(8):
        q, q_next = oracle.convergent(m).q, oracle.convergent(m + 1).q
        for j in (1, 2, (q_next - 1) // q):
            if 0 < j * q < q_next:
                for sign in (1, -1):
                    cases.append((sign * j * q, 0, 1))
                    cases.append((sign * j * q, rng.randint(-50, 50), 1))
    cases.sort(key=lambda c: abs(c[0]))
    for _ in range(150):
        u = rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(1, 12))
        v = rng.choice([0, rng.randint(-(10**6), 10**6)])
        cases.append((u, v, rng.choice([-5, 1, 3, 1000])))
    return cases


@pytest.mark.parametrize("name", sorted(KERNEL_SLOPES))
def test_floor_kernel_matches_independent_oracles(name):
    # u > 0 through floor_multiple and its floor line; every signed (u, v, w)
    # through the affine identity on floor_multiple
    make = KERNEL_SLOPES[name]
    kernel, oracle = make(), make()
    rng = random.Random(20021)
    exact = 0
    for u, v, w in _kernel_cases(oracle, rng):
        if u > 0:
            got = kernel.floor_multiple(u)
            for want in _oracles(oracle, u, 0, 1):
                assert got == want, u
            p, r, q = kernel.floor_line(u)
            assert (u * p + r) // q == got, u
            # an exact division by q_m, which r = -(m % 2) settles
            exact += q > 1 and u % q == 0
        got = _affine_floor(kernel, u, v, w)
        for want in _oracles(oracle, u, v, w):
            assert got == want, (u, v, w)
    assert exact > 0  # the exact-division case ran
    # scans after random access reuse the deeper convergent
    for k in range(1, 400):
        assert kernel.floor_multiple(k) == floor_affine_cf(oracle, k, 0, 1)


STREAM_LIMIT = 250_000


@pytest.mark.parametrize("name", sorted(KERNEL_SLOPES))
@pytest.mark.parametrize("start,step", [(1, 1), (2, 2), (7, 3)])
def test_floor_stream_matches_kernel_and_oracle(name, start, step):
    make = KERNEL_SLOPES[name]
    stream, kernel, oracle = make(), make(), make()
    edges = set()
    for j in range(40):
        q = oracle.convergent(j).q
        if q > STREAM_LIMIT:
            break
        edges.update((q - 1, q, q + 1))
    ks = range(start, STREAM_LIMIT, step)
    exact = 0
    for k, f in zip(ks, stream.floors(start, step)):
        if k <= 2000:
            assert f == kernel.floor_multiple(k), k
        # the stream's block index is the kernel's m; a multiple of q_m at an
        # odd m is the exact-division case (every k when q_m = 1)
        odd_exact = stream._m % 2 == 1 and k % stream._qm == 0
        exact += odd_exact
        if k in edges or (odd_exact and (k <= 2000 or stream._qm > 1)):
            assert f == kernel.floor_multiple(k) == floor_affine_cf(oracle, k, 0, 1), k
    if step == 1:
        assert exact > 0  # k = q_m at an odd m divides exactly
    assert stream.stats["floors"] == len(ks)


def test_floor_stream_budget_raises_at_the_same_index():
    kernel = sl.EulerE(budget=1)
    k_fail = 1
    with pytest.raises(sl.RefinementBudgetExceeded):
        while True:
            kernel.floor_multiple(k_fail)
            k_fail += 1
    alpha = sl.EulerE(budget=1)
    got = []
    with pytest.raises(sl.RefinementBudgetExceeded):
        for f in alpha.floors():
            got.append(f)
    assert len(got) == k_fail - 1
    assert got == [kernel.floor_multiple(k) for k in range(1, k_fail)]
    assert alpha.stats == kernel.stats


@pytest.mark.parametrize("taken", [0, 1, 1499, 1500, 2000])
def test_floor_stream_counts_what_it_yielded(taken):
    # q_1 = 3000 ends the first block, k = 3, 5, ..., 2999: 1499 floors
    alpha = sl.parse_slope("cf:[0;3000,1,...]")
    stream = alpha.floors(3, 2)
    for _ in range(taken):
        next(stream)
    stream.close()
    assert alpha.stats["floors"] == taken
    assert not alpha._floors  # the stream bypasses the floor cache


def test_floor_stream_rejects_bad_indices():
    for start, step in ((0, 1), (1, 0), (-2, 2)):
        with pytest.raises(ValueError):
            next(sl.phi().floors(start, step))


@pytest.mark.parametrize("name", sorted(KERNEL_SLOPES))
def test_slope_freed_without_cycle_collector(name):
    alpha = KERNEL_SLOPES[name]()
    gc.disable()
    try:
        for k in range(1, 300):
            alpha.floor_multiple(k)
        alpha.frac_compare(5, 8)
        ref = weakref.ref(alpha)
        del alpha
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("m", [1, 2, 7, 30])
def test_floor_sum_equals_the_direct_sum(m):
    # numerators a*i + b of either sign, and a and b past multiples of m
    for n in range(0, 12):
        for a in range(-2 * m - 3, 2 * m + 4):
            for b in range(-2 * m - 3, 2 * m + 4, 2):
                assert sl.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_of_a_floor_line():
    # sum_{k<=n} floor(k*e) from the line of e to n, against floor_multiple
    alpha = sl.EulerE()
    n = 10**6
    p, r, q = alpha.floor_line(n)
    want = sum(alpha.floor_multiple(k) for k in range(n - 999, n + 1))
    assert sl.floor_sum(n, q, p, p + r) - sl.floor_sum(n - 1000, q, p, p + r) == want


def test_surd_normalization_invariance():
    base = sl.QuadraticSurd(-1, 1, 2, 1)  # sqrt(2) - 1
    same = sl.QuadraticSurd(2, -2, 2, -2)  # (2 - 2 sqrt 2)/(-2)
    scaled = sl.QuadraticSurd(-3, 3, 2, 3)
    for k in range(1, 100):
        want = base.floor_multiple(k)
        assert same.floor_multiple(k) == want
        assert scaled.floor_multiple(k) == want


@pytest.mark.parametrize(
    "args",
    [(1, 1, 4, 2), (1, 1, 1, 2), (1, 0, 5, 2), (1, 1, 5, 0)],
)
def test_surd_rejects_rational_or_degenerate(args):
    with pytest.raises(sl.InvalidSlope):
        sl.QuadraticSurd(*args)


@pytest.mark.parametrize(
    "text,value_key",
    [
        ("phi", "phi"),
        ("e", "e"),
        ("1/e", "1/e"),
    ],
)
def test_parse_named_slopes(text, value_key):
    alpha = sl.parse_slope(text)
    x = MP_VALUES[value_key]
    for k in (1, 9, 50):
        assert alpha.floor_multiple(k) == mp_floor(k * x)


def test_parse_sqrt_and_surd_forms():
    root2 = sl.parse_slope("sqrt(2)")
    golden = sl.parse_slope("(1+1*sqrt(5))/2")
    reduced = sl.parse_slope("(-1+1*sqrt(5))/2")
    for k in (1, 7, 100):
        assert root2.floor_multiple(k) == mp_floor(k * mp.sqrt(2))
        assert golden.floor_multiple(k) == mp_floor(k * (1 + mp.sqrt(5)) / 2)
        assert reduced.floor_multiple(k) == mp_floor(k * MP_VALUES["phi"])


def test_parse_spaced_forms():
    # whitespace may separate tokens
    assert sl.parse_slope("( 1 + 1 * sqrt ( 5 ) ) / 2").expression() == "(1+1*sqrt(5))/2"
    assert sl.parse_slope(" cf:[ 0 ; 1 , 2 , ... ] ").expression() == "cf:[0;1,2,...]"


def test_parse_periodic_cf():
    alpha = sl.parse_slope("cf:[2;1,2,...]")  # 1 + sqrt(3)
    x = 1 + mp.sqrt(3)
    for k in (1, 10, 64):
        assert alpha.floor_multiple(k) == mp_floor(k * x)


@pytest.mark.parametrize(
    "bad",
    [
        "", "3/4", "sqrt(4)", "sqrt(-2)", "cf:[1;2,3]", "cf:[1;0,2,...]", "phi+1", "(1+sqrt(5))/2",
        "cf:[0;1 2,...]", "sqrt(1 3)", "cf:[0;1,,2,...]", "cf:[0;,1,...]",
    ],
)
def test_parse_rejects_bad_slopes(bad):
    with pytest.raises(sl.InvalidSlope):
        sl.parse_slope(bad)


@pytest.mark.parametrize(
    "bad, token",
    [("cf:[0;1 2,...]", "'1 2'"), ("sqrt(1 3)", "'1 3'"), ("cf:[0;1,,2,...]", "''"),
     ("cf:[0;,1,...]", "''")],
)
def test_parse_names_a_split_number_or_an_empty_quotient(bad, token):
    # whitespace may not join the digits of one number, and no quotient is empty
    with pytest.raises(sl.SlopeSyntaxError, match=f"token {token}"):
        sl.parse_slope(bad)


def test_parse_error_names_offending_token():
    with pytest.raises(sl.SlopeSyntaxError, match="3/4"):
        sl.parse_slope("3/4")


def test_expression_round_trips():
    texts = [
        "phi", "e", "1/e", "sqrt(2)", "(1+1*sqrt(5))/2", "cf:[2;1,2,...]",
        "(3-1*sqrt(5))/2", "(1+1*sqrt(7))/-3", "(-2-3*sqrt(13))/4",
    ]
    for text in texts:
        alpha = sl.parse_slope(text)
        again = sl.parse_slope(alpha.expression())
        assert again.expression() == alpha.expression(), text
        for k in range(1, 13):
            assert alpha.floor_multiple(k) == again.floor_multiple(k), text


def test_explicit_cf_repr_of_forms_with_no_grammar():
    def tail(k):
        return 1

    assert repr(sl.ExplicitCF([0, 3], repeat=[1, 2])) == "<ExplicitCF cf:[0;3,(1,2)*]>"
    assert repr(sl.ExplicitCF([0], repeat=[1, 2])) == "<ExplicitCF cf:[0;(1,2)*]>"
    assert repr(sl.ExplicitCF([2, 5], tail=tail)) == "<ExplicitCF cf:[2;5,<tail rule>]>"
    assert repr(sl.ExplicitCF([2], tail=tail)) == "<ExplicitCF cf:[2;<tail rule>]>"


def test_explicit_cf_matches_surd_value():
    # [1; 1, 1, ...] is the full golden ratio
    alpha = sl.ExplicitCF([1], repeat=[1])
    x = (1 + mp.sqrt(5)) / 2
    for k in range(1, 200):
        assert alpha.floor_multiple(k) == mp_floor(k * x)


def test_explicit_cf_tail_rule():
    # e via a tail rule instead of the built-in stream
    def tail(k):
        return 2 * ((k + 1) // 3) if k % 3 == 2 else 1

    alpha = sl.ExplicitCF([2], tail=tail)
    e = sl.EulerE()
    for k in range(1, 100):
        assert alpha.floor_multiple(k) == e.floor_multiple(k)


def test_explicit_cf_exhausted_tail():
    alpha = sl.ExplicitCF([0, 2], tail=lambda k: 1 if k < 6 else None)
    with pytest.raises(sl.CoefficientsExhausted):
        alpha.partial_quotient(7)


def test_explicit_cf_requires_infinite_description():
    with pytest.raises(sl.InvalidSlope):
        sl.ExplicitCF([1, 2, 3])


def test_refinement_budget_exhaustion():
    alpha = sl.EulerE(budget=1)
    with pytest.raises(sl.RefinementBudgetExceeded):
        alpha.floor_multiple(4)


def test_budget_validation():
    # a budget is not a slope: a bad one is a plain argument error
    for budget in (0, -3):
        with pytest.raises(ValueError) as info:
            sl.EulerE(budget=budget)
        assert not isinstance(info.value, sl.SturmlabError)
        assert str(info.value) == "refinement budget must be >= 1"


def test_floor_cache_bounded():
    alpha = sl.phi()
    big = 10 * sl.irrational._FLOOR_CACHE_LIMIT
    alpha.floor_multiple(big)
    assert big not in alpha._floors
    alpha.floor_multiple(5)
    assert 5 in alpha._floors


def test_stats_track_work():
    alpha = sl.EulerE()
    before = alpha.stats["floors"]
    alpha.floor_multiple(123)
    assert alpha.stats["floors"] > before


@pytest.mark.parametrize("expr", ["e", "phi", "cf:[-2;3000,1,...]", "(5-3*sqrt(13))/-4"])
def test_floor_line_is_the_kernel_up_to_n(expr):
    alpha, kernel = sl.parse_slope(expr), sl.parse_slope(expr)
    for n in (1, 2, 7, 3001, 40000):
        p, r, q = alpha.floor_line(n)
        ks = sorted({*range(1, min(n, 200) + 1), *range(max(1, n - 200), n + 1)})
        assert [(k * p + r) // q for k in ks] == [kernel.floor_multiple(k) for k in ks]
    assert alpha.stats["floors"] == 0
    with pytest.raises(ValueError):
        alpha.floor_line(0)
