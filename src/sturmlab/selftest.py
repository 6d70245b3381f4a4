"""Built-in quick checks against embedded reference values.

Run via ``sturmlab selftest``.  Each check compares got with want over its
cases and prints one PASS line, or one FAIL line that names the first
mismatch; the suite exits nonzero on any failure.  These are smoke checks;
the full test suite lives outside the package.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import farey, matrep, oracles, permtool, sturmian
from .irrational import EulerE, EulerEInv, parse_slope, phi
from .permtool import FracPermutation

# 21-letter prefix of the characteristic word of slope 1/e
WORD_PREFIX_INV_E = [0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1]

# the 7 length-6 factors of slope 1/e, in anti-lexicographic order
FACTORS_INV_E_6 = (
    (1, 0, 1, 0, 0, 1),
    (1, 0, 0, 1, 0, 1),
    (1, 0, 0, 1, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 1, 0),
    (0, 0, 1, 0, 0, 1),
)

MATRIX_INV_E_6 = (
    (1, 1, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (0, -1, -1, -1, -1, 0),
    (0, 1, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (0, 0, -1, -1, -1, -1),
)

AUX_52314 = (
    (1, 1, 1, 1, 0, 0),
    (1, 1, 0, 0, 1, 1),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 0),
    (1, 0, 0, 0, 0, 1),
)

MATRIX_52314 = (
    (1, 1, 1, 1, 0),
    (0, 0, -1, -1, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 1),
    (0, -1, -1, -1, -1),
)

ADJ_43_S5 = (
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 1, 0),
    (0, 0, 0, -1, 0),
    (0, 0, 0, 1, 1),
)

MATRIX_PHI_5 = (
    (1, 1, 1, 1, 0),
    (0, 0, -1, -1, 0),
    (0, 0, 1, 1, 1),
    (0, 0, 0, -1, -1),
    (0, -1, -1, 0, 0),
)

TABLE_E_SPOTS = {8: (1, 7), 37: (1, 37), 70: (-1, 14), 71: (-1, 14)}


def run(seed: int = 0, report=print) -> int:
    failures = 0
    total = 0

    def check_cases(name: str, cases):
        """One PASS or FAIL line for name, FAIL at the first of the lazy
        (label, got, want) cases with got != want."""
        nonlocal failures, total
        total += 1
        for label, got, want in cases:
            if got != want:
                failures += 1
                report(f"FAIL {name} ({label + ': ' if label else ''}got {got}, want {want})")
                return
        report(f"PASS {name}")

    def check(name: str, got, want):
        check_cases(name, [("", got, want)])

    def sign_order(pi: FracPermutation) -> tuple[int, int]:
        return permtool.sign_direct(pi), permtool.order(pi)

    def brange_cases(exprs, targets):
        # b_range_search to 20000 against the first hits along the stream, at
        # the targets that targets(first hits) picks
        for expr in exprs:
            first = oracles.first_hits(parse_slope(expr), 20000)
            for t in targets(first):
                yield f"{expr}, T={t}", farey.b_range_search(parse_slope(expr), t, 20000), first.get(t)

    inv_e = EulerEInv()
    check("word-prefix-1/e", sturmian.characteristic_prefix(inv_e, 21), WORD_PREFIX_INV_E)
    fs = sturmian.factor_set(inv_e, 6)
    check("factors-1/e-6", fs.factors, FACTORS_INV_E_6)
    m6 = matrep.m_from_alpha(inv_e, 6)
    check("matrix-1/e-6", m6.entries, MATRIX_INV_E_6)
    # the same matrix from the factor columns, c[i] - last[i], without the permutation
    *head, last = fs.factors
    geometric = tuple(tuple(c[i] - x for c in head) for i, x in enumerate(last))
    check("matrix-1/e-6-geometric", geometric, m6.entries)

    sig = FracPermutation(5, (5, 2, 3, 1, 4))
    check("descent-52314", matrep.descent_set(sig), {1, 2, 5})
    check("descent-135426", matrep.descent_set(FracPermutation(6, (1, 3, 5, 4, 2, 6))), {1, 3, 5})
    check("aux-52314", matrep.aux_matrix(sig).rows(), [list(r) for r in AUX_52314])
    check("matrix-52314", matrep.factor_matrix(sig).entries, MATRIX_52314)
    adj = FracPermutation(5, (1, 2, 4, 3, 5))
    check("adjacent-transposition-matrix", matrep.factor_matrix(adj).entries, ADJ_43_S5)

    ph = phi()
    pi5 = permtool.pi_sos(ph, 5)
    check("perm-phi-5", pi5.one_line, (5, 2, 4, 1, 3))
    check("perm-phi-5-order", permtool.order(pi5), 4)
    check("perm-phi-5-sign", permtool.sign_direct(pi5), -1)
    check("perm-phi-5-direct-sort", oracles.pi_direct(ph, 5).one_line, pi5.one_line)
    check("matrix-phi-5", matrep.factor_matrix(pi5).entries, MATRIX_PHI_5)
    composed = adj.compose(pi5)
    check(
        "worked-product",
        (matrep.mat_mul(ADJ_43_S5, MATRIX_PHI_5), composed.one_line),
        (matrep.factor_matrix(composed).rows(), (5, 2, 3, 1, 4)),
    )

    e = EulerE()
    check_cases(
        "table-e-spots",
        ((f"n={n}", sign_order(permtool.pi_sos(e, n)), want) for n, want in TABLE_E_SPOTS.items()),
    )
    check("signsum-e-10", farey.sign_sum(e, 10), (-4, 5))
    # the reduction against the running sum along the floors stream, size by size
    check_cases("signsum-reduction-vs-stream", (
        (f"{expr}, N={n}", farey.sign_sum(alpha, n), tuple(want))
        for expr in ("e", "phi", "cf:[0;2,5000,...]")
        for alpha in [parse_slope(expr)]
        for n, (_, *want) in enumerate(itertools.islice(oracles.streamed_signs(parse_slope(expr)), 3000), 1)
    ))
    check_cases("bstream-1/e-200", (
        (f"k={k}", bk, oracles.b_alpha(inv_e, k))
        for k, bk in itertools.islice(permtool.b_stream(inv_e), 200)
    ))
    # the block walk at targets the stream prefix misses; the large quotient
    # makes the walk give up
    check_cases("brange-walk-vs-stream", brange_cases(
        ("e", "1/e", "cf:[0;1,100000,...]"),
        lambda first: [t for t in range(400) if first.get(t, 20001) >= 16 * (t + 1)][:10],
    ))

    # targets above kmax/16, which the walk leaves: the near-half slope takes
    # the floor-line progressions, the near-zero one the stream; the last
    # target of each is never hit
    def large_targets(first):
        large = [t for t in sorted(first) if t >= 1250]
        return large[:: max(1, len(large) // 8)] + [max(first) + 1]

    check_cases(
        "brange-progressions-vs-stream",
        brange_cases(("cf:[0;2,5000,...]", "cf:[0;3000,1,...]"), large_targets),
    )

    check("integral-1", farey.exact_integral(1, 1)[0].value, 1)
    check("integral-2", farey.exact_integral(2, 2)[0].value, Fraction(3, 2))
    check_cases("integral-cells-6", (
        (f"cell {c.left}..{c.right}", permtool._sign_order([0, *permtool._sos_line(6, b, d)], b, d),
         sign_order(farey.perm_on_cell(c, 6)))
        for c in oracles.farey_cells(6)
        for b, d in [(c.left.denominator, c.right.denominator)]
    ))
    # the sweep over sizes 1..8 against each size's cells sorted at their mediants
    check("integral-sweep-1..8", [r.value for r in farey.exact_integral(1, 8)], [
        sum((c.right - c.left) * permtool.order(farey.perm_on_cell(c, n)) for c in oracles.farey_cells(n))
        for n in range(1, 9)
    ])
    check("volume-1/e-6", matrep.simplex_volume(inv_e, 6), Fraction(1, 720))
    slopes = [parse_slope(x) for x in ("1/e", "phi", "e", "cf:[0;2,32003,...]")]
    sos = [permtool.pi_sos(x, n) for x in slopes for n in range(1, 41)]
    dets = [matrep.det_runs(s.n, matrep._runs(s)) for s in sos]
    check("volume-runs", dets, [oracles.det_exact(matrep.factor_matrix(s)) for s in sos])
    check(
        "det-sign-1/e-120",
        oracles.det_exact(matrep.m_from_alpha(inv_e, 120)),
        permtool.sign_direct(permtool.pi_sos(inv_e, 120)),
    )

    rng = random.Random(seed)
    lines = [list(range(1, 9)) for _ in range(50)]
    for line in lines:
        rng.shuffle(line)
    check_cases("reconstruct-roundtrip", (
        (f"sigma {s.one_line}", matrep.reconstruct_sigma(matrep.factor_matrix(s)).one_line, s.one_line)
        for s in (FracPermutation(8, tuple(line)) for line in lines)
    ))

    q = matrep.intertwiner(4, 0, 1)
    qm, qi = q.matrix(), q.inverse()

    def conjugated(s):
        left = matrep.mat_mul(matrep.mat_mul(qi, matrep.factor_matrix(s).rows()), qm)
        return [[int(x) for x in row] for row in left]

    check_cases("conjugation-s4", (
        (f"sigma {s.one_line}", conjugated(s), [list(r) for r in matrep.perm_matrix(s)])
        for s in (FracPermutation(4, line) for line in itertools.permutations(range(1, 5)))
    ))

    report(f"{'OK' if failures == 0 else 'FAILED'}: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1
