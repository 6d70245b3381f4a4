"""Farey cells, the exact order integral, experiments, and congruence."""

import math
import random
from itertools import islice
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import sturmlab as sl
from sturmlab import farey
from sturmlab.oracles import (
    b_alpha,
    cell_containing,
    complement_factors,
    farey_cells,
    first_hits,
    pi_direct,
)
from conftest import MP_VALUES, make_slope, walked_cycles


def totient_sum(n):
    total = 0
    for k in range(1, n + 1):
        total += sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
    return total


def brute_integral(n):
    """Order integral via a from-scratch cell walk over sorted fractions."""
    fracs = sorted({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})
    total = Fraction(0)
    for lo, hi in zip(fracs, fracs[1:]):
        w = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        line = tuple(sorted(range(1, n + 1), key=lambda k: (k * w) % 1))
        total += (hi - lo) * math.lcm(*map(len, walked_cycles(line)))
    return total


def cell_sum_integral(n):
    """(order integral, cell count) as a sum over the cells of farey_cells:
    each cell's length times the order of the permutation sorted at its
    mediant."""
    cells = farey_cells(n)
    total = sum((c.right - c.left) * sl.order(sl.perm_on_cell(c, n)) for c in cells)
    return total, len(cells)


def test_farey_cells_structure():
    for n in range(1, 12):
        cells = farey_cells(n)
        assert len(cells) == totient_sum(n)
        assert cells[0].left == 0 and cells[-1].right == 1
        for prev, cur in zip(cells, cells[1:]):
            assert prev.right == cur.left
        for cell in cells:
            a, b = cell.left.numerator, cell.left.denominator
            c, d = cell.right.numerator, cell.right.denominator
            assert b * c - a * d == 1
            assert cell.witness == Fraction(a + c, b + d)
            assert n < cell.witness.denominator <= 2 * n


def test_farey_cells_rejects_bad_n():
    with pytest.raises(ValueError):
        farey_cells(0)


def test_perm_on_cell_matches_fraction_sort():
    for n in (1, 2, 3, 5, 8):
        for cell in farey_cells(n):
            w = cell.witness
            want = tuple(sorted(range(1, n + 1), key=lambda k: (k * w) % 1))
            assert sl.perm_on_cell(cell, n).one_line == want


def test_perm_on_cell_matches_slope_inside_cell(named_slope):
    name, alpha = named_slope
    for n in (2, 5, 9, 14):
        cell = cell_containing(alpha, n)
        assert sl.perm_on_cell(cell, n).one_line == pi_direct(alpha, n).one_line


def test_cell_containing_brackets_fractional_part(named_slope):
    name, alpha = named_slope
    frac_x = mp.frac(MP_VALUES[name])
    for n in (1, 4, 10, 25):
        cell = cell_containing(alpha, n)
        lo = mp.mpf(cell.left.numerator) / cell.left.denominator
        hi = mp.mpf(cell.right.numerator) / cell.right.denominator
        assert lo < frac_x < hi


def test_perm_on_cell_guards_against_bad_witness():
    bad = sl.FareyCell(Fraction(0), Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(sl.WitnessCollision):
        sl.perm_on_cell(bad, 6)


def test_integral_known_small_values():
    assert sl.exact_integral(1, 1)[0].value == 1
    assert sl.exact_integral(2, 2)[0].value == Fraction(3, 2)
    assert sl.exact_integral(3, 3)[0].value == Fraction(11, 6)


def test_integral_against_brute_oracle():
    for n in range(1, 9):
        [result] = sl.exact_integral(n, n)
        assert result.value == brute_integral(n)
        assert result.coverage == 1
        assert result.cells == totient_sum(n)
        assert result.n == n


def test_sos_kernel_matches_perm_on_cell():
    # on the cell between adjacent a/b < c/d the least {k x} is at k = b and
    # the greatest at k = d, so the cell's permutation is the Sos line of (n, b, d)
    for n in range(1, 41):
        for cell in farey_cells(n):
            b, d = cell.left.denominator, cell.right.denominator
            pc = sl.perm_on_cell(cell, n)
            line = sl.permtool._sos_line(n, b, d)
            assert tuple(line) == pc.one_line, (n, b, d)
            walk = sl.permtool._sign_order([0, *line], b, d)
            assert walk == (sl.sign_direct(pc), sl.order(pc))


def test_integral_equals_cell_sum():
    for n in range(1, 61):
        [result] = sl.exact_integral(n, n)
        assert (result.value, result.cells) == cell_sum_integral(n), n
        assert result.coverage == 1


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 150))
def test_denominator_pairs_cover_the_unit_interval(n):
    # the pairs are the coprime b, d <= n < b + d, one per cell, and the cell
    # lengths 1/(b*d) add up to exactly 1
    pairs = [(c.left.denominator, c.right.denominator) for c in farey_cells(n)]
    coprime = {
        (b, d)
        for b in range(1, n + 1)
        for d in range(n + 1 - b, n + 1)
        if math.gcd(b, d) == 1
    }
    assert len(pairs) == len(set(pairs)) == totient_sum(n)
    assert set(pairs) == coprime
    assert sum(Fraction(1, b * d) for b, d in pairs) == 1


def test_integral_checks_the_middle_cell_against_the_sort(monkeypatch):
    # ranks 2 and 3 swapped: still a bijection from b to d, so the top walk
    # passes it, and only the sort at the middle cell's mediant can tell
    def swapped(n, b, d):
        line = sos(n, b, d)
        line[1], line[2] = line[2], line[1]
        return line

    sos = sl.permtool._sos_line
    monkeypatch.setattr(sl.farey, "_sos_line", swapped)
    with pytest.raises(sl.RecurrenceMismatch, match="differs from the sort"):
        sl.exact_integral(5, 5)


def test_integral_fails_when_the_middle_cell_sorts_otherwise(monkeypatch):
    # a sort that disagrees with the swept line at the middle cell must stop
    # the sweep, at every size of a range
    sort = sl.perm_on_cell
    reversed_sort = lambda cell, n: sl.FracPermutation(n, sort(cell, n).one_line[::-1])
    monkeypatch.setattr(sl.farey, "perm_on_cell", reversed_sort)
    for start, end in ((2, 2), (3, 9), (12, 12)):
        with pytest.raises(sl.RecurrenceMismatch):
            sl.exact_integral(start, end)


def test_integral_sorts_the_middle_cell_once_per_size(monkeypatch):
    checked = []

    def recording_sort(cell, n):
        checked.append((n, cell))
        return sort(cell, n)

    sort = sl.perm_on_cell
    monkeypatch.setattr(sl.farey, "perm_on_cell", recording_sort)
    sl.exact_integral(1, 40)
    cells = [farey_cells(n) for n in range(1, 41)]
    assert sorted(checked) == [(n, cs[len(cs) // 2]) for n, cs in enumerate(cells, 1)]


def test_integral_rejects_bad_n():
    for start, end in ((0, 0), (0, 3), (3, 2), (-1, 5)):
        with pytest.raises(ValueError, match=f"bad range {start}..{end}"):
            sl.exact_integral(start, end)


@pytest.mark.parametrize("start, end", [(1, 20), (1, 1), (7, 12), (12, 12), (45, 50)])
def test_swept_integral_equals_the_cell_sums(start, end):
    # one Sos line per Farey pair, losing an index per size, against each
    # size's cells sorted at their mediants; from start > 1 the descent
    # passes over the pairs that are cells only below start
    results = sl.exact_integral(start, end)
    assert [r.n for r in results] == list(range(start, end + 1))
    for r in results:
        assert (r.value, r.cells) == cell_sum_integral(r.n), r.n
        assert r.coverage == 1


def test_swept_orders_match_the_closed_forms(monkeypatch):
    # on the cell with extremes (b, d) the ordering is multiplication by b
    # modulo b + d with the residues above n skipped: none when b + d = n + 1,
    # so the order is ord_{n+1}(b); and when d = n it is ord_n(b).  Every
    # swept line is walked, and the sweep's sign and order must match the walk
    swept = []

    def walked_sweep(line, first, last, bottom):
        for n, sign, order in sweep(line, first, last, bottom):
            walked = sl.permtool._sign_order(line, first, last)
            assert (sign, order) == walked, (n, first, last)
            swept.append((n, first, last, walked[1]))
            yield n, sign, order

    sweep = sl.permtool._deletion_sweep
    monkeypatch.setattr(sl.farey, "_deletion_sweep", walked_sweep)
    results = sl.exact_integral(1, 59)
    assert len(swept) == sum(r.cells for r in results)
    full = last_is_n = 0
    for n, b, d, order in swept:
        if b + d == n + 1:
            full += 1
            assert order == sl.permtool.multiplicative_order(b, n + 1), (n, b, d)
        if d == n:
            last_is_n += 1
            assert order == sl.permtool.multiplicative_order(b, n), (n, b, d)
    assert full > 1000 and last_is_n > 1000


def test_sign_sum_matches_direct_partial_sums():
    phi = make_slope("phi")
    running, peak, direct_total = 0, 0, 0
    for n in range(1, 201):
        running += sl.sign_direct(pi_direct(phi, n))
        peak = max(peak, abs(running))
    total, max_abs = sl.sign_sum(make_slope("phi"), 200)
    assert (total, max_abs) == (running, peak)


def test_sign_sum_e_10():
    assert sl.sign_sum(sl.EulerE(), 10) == (-4, 5)


def test_scans_bypass_the_floor_cache():
    alpha = make_slope("1/e")
    sl.sign_sum(alpha, 3000)
    for _ in islice(sl.b_stream(alpha), 3000):
        pass
    assert alpha.stats["floors"] == 1500 + 3000
    assert not alpha._floors


def test_b_range_search_finds_least_k():
    inv_e = make_slope("1/e")
    for target in (0, 1, 2, 5, 9):
        want = next(
            (k for k, b in ((k, b_alpha(inv_e, k)) for k in range(1, 2001)) if b == target),
            None,
        )
        assert sl.b_range_search(make_slope("1/e"), target, 2000) == want


def test_b_range_search_returns_none_when_absent():
    assert sl.b_range_search(make_slope("phi"), 10**9, 500) is None


@pytest.mark.parametrize("target", [15, 23, 25])
def test_b_range_search_on_an_exhausted_tail_answers_as_the_stream(target):
    # 1/e's quotients to a_12 and no more: the floors end below k = 23225, in
    # the block of B(k) = 25's first hit at k = 22154; B(k) = 23 comes later
    def outcome(search):
        alpha = sl.ExplicitCF([0, 2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8], tail=lambda k: None)
        try:
            return search(alpha)
        except sl.CoefficientsExhausted as exc:
            return str(exc)

    def streamed(alpha):
        for k, b in sl.b_stream(alpha):
            if b == target or k >= 10**6:
                return k if b == target else None

    assert outcome(lambda alpha: sl.b_range_search(alpha, target, 10**6)) == outcome(streamed)


@pytest.mark.parametrize(
    "expr, k_max",
    [
        ("cf:[-3;2,700,...]", 2000),  # p_m < 0
        ("cf:[0;3000,1,...]", 2000),  # m = 0, where B(k) = k - 1
        ("cf:[0;1,100000,...]", 2000),  # q_m = 1 at m = 1, where B(k) = 0
        ("cf:[0;7,571,...]", 300),  # odd m = 1, where B(q_m) = q_m - 1
        ("cf:[0;2,50,...]", 120),  # progressions of slope 0 in u under k_lo
        ("phi", 120),  # q_{m-1} = 34 columns s, whose hits in one block compete
    ],
    ids=["negative_p", "index_0", "q_m_1", "odd_index", "flat", "many_columns"],
)
def test_progression_hit_equals_the_streamed_first_hit(expr, k_max):
    for k_lo in (1, 2, 4, 5, k_max // 3, k_max - 1, k_max):
        first = first_hits(sl.parse_slope(expr), k_max, k_lo)
        for target in [-1, max(first) + 1, *first]:
            got = farey._progression_hit(sl.parse_slope(expr), target, k_lo, k_max)
            assert got == first.get(target), (k_lo, target)


@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 10**9])
def test_convergent_below_reads_no_quotient_past_the_line(offset, n):
    # a tail that records each quotient it gives; offset 2 makes a_1 = 1, so
    # q_0 = q_1 = 1 and only p tells the two convergents apart
    asked = []
    alpha = sl.ExplicitCF([0], tail=lambda k: asked.append(k) or 1 + (k + offset) % 3)
    p, _, q = alpha.floor_line(n)
    read = len(asked)
    below = farey._convergent_below(alpha, p, q)
    assert len(asked) == read
    m = alpha._m  # the kernel's own index of the line
    assert below == (alpha.convergent(m - 1)[1:] if m else (1, 0))


def test_progression_hit_solves_flat_progressions_from_k_lo():
    # B(k) = 0 at every odd k < 101: from k_lo = 4 the least hit is 5, not 1
    alpha = sl.parse_slope("cf:[0;2,50,...]")
    assert farey._progression_hit(alpha, 0, 4, 120) == 5


@pytest.mark.parametrize(
    "expr, target, k_max, k, floors",
    [
        ("cf:[-3;2,700,...]", 701, 2000, 1402, 2),
        ("cf:[-3;2,700,...]", 1402, 2000, 1403, 2),
        ("cf:[0;3000,1,...]", 1000, 2000, 1001, 0),
        ("cf:[0;2,1000,...]", 1001, 3000, 2002, 2),
        ("cf:[0;2,1000,...]", 1007, 3000, None, 2),
        ("cf:[0;1,100000,...]", 5000, 50000, None, 0),  # q_m = q_{m-1} = 1: no B(s) to stream
    ],
)
def test_large_targets_read_only_the_floors_below_q_m_minus_1(expr, target, k_max, k, floors):
    # 16*(target + 1) >= k_max leaves the whole range to the progressions,
    # which stream B(s) for s <= q_{m-1} alone
    alpha = sl.parse_slope(expr)
    assert sl.b_range_search(alpha, target, k_max) == k
    assert alpha.stats["floors"] == floors
    assert first_hits(sl.parse_slope(expr), k_max).get(target) == k


def test_congruence_reflexive_and_symmetric():
    phi_a, phi_b = make_slope("phi"), make_slope("phi")
    for n in (3, 6, 10):
        assert sl.congruence_test(phi_a, phi_b, n)
    a, b = make_slope("phi"), make_slope("1/e")
    for n in (5, 8):
        assert sl.congruence_test(a, b, n) == sl.congruence_test(b, a, n)


def test_congruence_of_reflected_slope():
    phi = make_slope("phi")
    reflected = sl.QuadraticSurd(3, -1, 5, 2)  # 1 - {phi}
    for n in (4, 9, 12):
        assert sl.congruence_test(phi, reflected, n)
        assert sl.factor_set(phi, n).factors == complement_factors(
            sl.factor_set(reflected, n).factors
        )


def test_congruence_splits_when_farey_cell_splits():
    # no fraction with denominator <= 7 separates {phi} from 1 - 1/e, so the
    # factor sets are complements up to n = 7; the order-8 fraction 5/8 then
    # splits the pair
    phi, inv_e = make_slope("phi"), make_slope("1/e")
    for n in (6, 7):
        assert sl.congruence_test(phi, inv_e, n)
    for n in (8, 9, 12):
        assert not sl.congruence_test(phi, inv_e, n)


def test_congruence_same_value_different_construction():
    phi = make_slope("phi")
    via_cf = sl.ExplicitCF([0, 1], repeat=[1])
    for n in (5, 11):
        assert sl.factor_set(phi, n).factors == sl.factor_set(via_cf, n).factors
        assert sl.congruence_test(phi, via_cf, n)


def test_complement_factors_involution(named_slope):
    name, alpha = named_slope
    factors = sl.factor_set(alpha, 9).factors
    assert complement_factors(complement_factors(factors)) == factors



@pytest.mark.parametrize("upto", [2, 3, 4, 5, 6, 10, 30, 31, 64, 65])
def test_sign_sum_budget_fails_where_the_stream_fails(upto):
    # e's denominators are 1, 1, 3, 4, 7, 32, 39, 71: a small budget stops
    # the stream of floor(2*l*e) at some l <= upto // 2 or lets it through
    for budget in (1, 2, 3, 4, 5):
        reduced, streamed = sl.EulerE(budget), sl.EulerE(budget)
        try:
            list(islice(streamed.floors(2, 2), upto // 2))
        except sl.RefinementBudgetExceeded:
            with pytest.raises(sl.RefinementBudgetExceeded):
                sl.sign_sum(reduced, upto)
        else:
            sl.sign_sum(reduced, upto)
            assert reduced.stats == streamed.stats


def test_factor_distances_are_the_hamming_distances_of_the_factors():
    for n in range(1, 25):
        for cell in farey_cells(n):
            pi = sl.perm_on_cell(cell, n)
            fs = sl.factor_set_from_perm(pi).factors
            hamming = [[sum(map(int.__ne__, u, v)) for v in fs] for u in fs]
            assert farey._factor_distances(pi.one_line) == hamming, (n, cell)


def test_factor_relation_matches_the_window_scan():
    pool = [
        make_slope("phi"),
        make_slope("1/e"),
        make_slope("e"),
        make_slope("sqrt2-1"),
        sl.QuadraticSurd(3, -1, 5, 2),  # 1 - {phi}
        sl.QuadraticSurd(-1, -1, 5, 2),  # -(1 + sqrt(5))/2, the same fractional part
        sl.QuadraticSurd(0, -1, 2, 1),  # -sqrt(2): 1 - {sqrt(2)}
        sl.QuadraticSurd(-2, 1, 13, 4),
        sl.ExplicitCF([0, 1], repeat=[1]),  # phi
        sl.ExplicitCF([1, 1], repeat=[1]),  # 1 + phi
        sl.ExplicitCF([0, 3], repeat=[1, 2]),
        sl.ExplicitCF([1, 2], repeat=[3, 1]),
        sl.ExplicitCF([0], repeat=[2, 1]),
    ]
    seen = set()
    for n in (1, 2, 3, 5, 8, 13, 20):
        scans = [sl.factor_set(x, n).factors for x in pool]
        for i, alpha in enumerate(pool):
            for j, beta in enumerate(pool):
                want = scans[i] == scans[j], scans[i] == complement_factors(scans[j])
                assert farey.factor_relation(alpha, beta, n) == want, (n, i, j)
                if n > 1 and i != j:
                    seen.add(want)
    assert seen == {(True, False), (False, True), (False, False)}


def test_only_equal_or_complementary_factor_sets_are_congruent():
    # the congruence conjecture of c14 on every pair of order-n cells: equal
    # factor sets have equal orderings, complementary ones reversed orderings
    for n in range(1, 21):
        lines = [sl.perm_on_cell(cell, n).one_line for cell in farey_cells(n)]
        dists = [farey._factor_distances(line) for line in lines]
        for la, da in zip(lines, dists):
            for lb, db in zip(lines, dists):
                assert farey._isometry_exists(da, db) == (lb in (la, la[::-1])), (n, la, lb)


def half_distances(edges, m=6):
    """1 between the ends of an edge, 2 between other distinct vertices."""
    d = [[0 if i == j else 2 for j in range(m)] for i in range(m)]
    for i, j in edges:
        d[i][j] = d[j][i] = 1
    return d


def test_isometry_search_backtracks_past_equal_distance_profiles():
    # every row of both is (0, 1, 1, 2, 2, 2), so only the search can tell
    # a hexagon from two triangles
    hexagon = half_distances([(i, (i + 1) % 6) for i in range(6)])
    triangles = half_distances([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    relabelled = half_distances([(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
    assert not farey._isometry_exists(hexagon, triangles)
    assert not farey._isometry_exists(triangles, hexagon)
    assert farey._isometry_exists(hexagon, relabelled)


def test_congruence_on_a_sample_of_larger_cells():
    # the same conjecture past n = 20 on a seeded sample: per size, random
    # pairs of cells, each cell with itself and each with its mirror image
    # (cell i of m mirrors cell m - 1 - i, and has the reversed ordering)
    rng = random.Random(2417)
    for n in range(21, 25):
        cells = farey_cells(n)
        m = len(cells)
        lines = [sl.perm_on_cell(cell, n).one_line for cell in cells]
        picks = [(rng.randrange(m), rng.randrange(m)) for _ in range(200)]
        picks += [(i, i) for i in rng.sample(range(m), 10)]
        picks += [(i, m - 1 - i) for i in rng.sample(range(m), 10)]
        for i, j in picks:
            la, lb = lines[i], lines[j]
            assert (lb == la[::-1]) == (i + j == m - 1) or la == lb, (n, i, j)
            da, db = farey._factor_distances(la), farey._factor_distances(lb)
            assert farey._isometry_exists(da, db) == (lb in (la, la[::-1])), (n, i, j)
