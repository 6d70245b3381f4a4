"""Built-in quick checks against embedded reference values.

Run via ``sturmlab selftest``.  Each check prints one PASS/FAIL line; the
suite exits nonzero on any failure.  These are smoke checks; the full test
suite lives outside the package.
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

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures, total
        total += 1
        if ok:
            report(f"PASS {name}")
        else:
            failures += 1
            report(f"FAIL {name}" + (f" ({detail})" if detail else ""))

    inv_e = EulerEInv()
    gold = sturmian.characteristic_prefix(inv_e, 21)
    check("word-prefix-1/e", gold == WORD_PREFIX_INV_E, f"got {gold}")

    fs = sturmian.factor_set(inv_e, 6)
    check("factors-1/e-6", fs.factors == FACTORS_INV_E_6, f"got {fs.factors}")

    m6 = matrep.m_from_alpha(inv_e, 6)
    check("matrix-1/e-6", m6.entries == MATRIX_INV_E_6)
    # the same matrix from the factor columns, c[i] - last[i], without the permutation
    *head, last = fs.factors
    geometric = tuple(tuple(c[i] - x for c in head) for i, x in enumerate(last))
    check("matrix-1/e-6-geometric", geometric == m6.entries)

    sig = FracPermutation(5, (5, 2, 3, 1, 4))
    check("descent-52314", matrep.descent_set(sig) == frozenset({1, 2, 5}))
    check(
        "descent-135426",
        matrep.descent_set(FracPermutation(6, (1, 3, 5, 4, 2, 6)))
        == frozenset({1, 3, 5}),
    )
    check("aux-52314", matrep.aux_matrix(sig).rows() == [list(r) for r in AUX_52314])
    check("matrix-52314", matrep.factor_matrix(sig).entries == MATRIX_52314)

    adj = FracPermutation(5, (1, 2, 4, 3, 5))
    check("adjacent-transposition-matrix", matrep.factor_matrix(adj).entries == ADJ_43_S5)

    ph = phi()
    pi5 = permtool.pi_sos(ph, 5)
    check("perm-phi-5", pi5.one_line == (5, 2, 4, 1, 3))
    check("perm-phi-5-order", permtool.order(pi5) == 4)
    check("perm-phi-5-sign", permtool.sign_direct(pi5) == -1)
    check("perm-phi-5-direct-sort", oracles.pi_direct(ph, 5).one_line == pi5.one_line)
    check("matrix-phi-5", matrep.factor_matrix(pi5).entries == MATRIX_PHI_5)

    prod = matrep.mat_mul(ADJ_43_S5, MATRIX_PHI_5)
    composed = adj.compose(pi5)
    check(
        "worked-product",
        prod == matrep.factor_matrix(composed).rows()
        and composed.one_line == (5, 2, 3, 1, 4),
    )

    e = EulerE()
    ok = True
    detail = ""
    for n, (sgn, orde) in TABLE_E_SPOTS.items():
        pin = permtool.pi_sos(e, n)
        got = (permtool.sign_direct(pin), permtool.order(pin))
        if got != (sgn, orde):
            ok, detail = False, f"n={n}: got {got}, want {(sgn, orde)}"
            break
    check("table-e-spots", ok, detail)

    got = farey.sign_sum(e, 10)
    check("signsum-e-10", got == (-4, 5), f"got {got}")
    # the reduction against the running sum along the floors stream, size by size
    ok, detail = True, ""
    for expr in ("e", "phi", "cf:[0;2,5000,...]"):
        alpha, signs = parse_slope(expr), oracles.streamed_signs(parse_slope(expr))
        for n, (_, *want) in enumerate(itertools.islice(signs, 3000), 1):
            got = farey.sign_sum(alpha, n)
            if got != tuple(want):
                ok, detail = False, f"{expr}, N={n}: got {got}, want {tuple(want)}"
                break
        if not ok:
            break
    check("signsum-reduction-vs-stream", ok, detail)
    ok, detail = True, ""
    for k, bk in itertools.islice(permtool.b_stream(inv_e), 200):
        want = oracles.b_alpha(inv_e, k)
        if bk != want:
            ok, detail = False, f"k={k}: got {bk}, want {want}"
            break
    check("bstream-1/e-200", ok, detail)
    # the block walk against the first hits along the stream, at targets the
    # stream prefix misses; the large quotient makes the walk give up
    ok, detail = True, ""
    for expr in ("e", "1/e", "cf:[0;1,100000,...]"):
        first = oracles.first_hits(parse_slope(expr), 20000)
        late = [t for t in range(400) if first.get(t, 20001) >= 16 * (t + 1)]
        for target in late[:10]:
            got = farey.b_range_search(parse_slope(expr), target, 20000)
            if got != first.get(target):
                ok, detail = False, f"{expr}, T={target}: got {got}, want {first.get(target)}"
                break
        if not ok:
            break
    check("brange-walk-vs-stream", ok, detail)
    # targets above kmax/16, which the walk leaves: the near-half slope takes
    # the floor-line progressions, the near-zero one the stream; the last
    # target of each is never hit
    ok, detail = True, ""
    for expr in ("cf:[0;2,5000,...]", "cf:[0;3000,1,...]"):
        first = oracles.first_hits(parse_slope(expr), 20000)
        large = [t for t in sorted(first) if t >= 1250]
        for target in large[:: max(1, len(large) // 8)] + [max(first) + 1]:
            got = farey.b_range_search(parse_slope(expr), target, 20000)
            if got != first.get(target):
                ok, detail = False, f"{expr}, T={target}: got {got}, want {first.get(target)}"
                break
        if not ok:
            break
    check("brange-progressions-vs-stream", ok, detail)

    check("integral-1", farey.exact_integral(1, 1)[0].value == 1)
    check("integral-2", farey.exact_integral(2, 2)[0].value == Fraction(3, 2))
    ok, detail = True, ""
    for cell in oracles.farey_cells(6):
        pc = farey.perm_on_cell(cell, 6)
        b, d = cell.left.denominator, cell.right.denominator
        got = permtool._sign_order([0, *permtool._sos_line(6, b, d)], b, d)
        if got != (permtool.sign_direct(pc), permtool.order(pc)):
            ok, detail = False, f"cell {cell.left}..{cell.right}: got {got}"
            break
    check("integral-cells-6", ok, detail)
    # the sweep over sizes 1..8 against each size's cells sorted at their mediants
    got = [r.value for r in farey.exact_integral(1, 8)]
    want = [
        sum((c.right - c.left) * permtool.order(farey.perm_on_cell(c, n)) for c in oracles.farey_cells(n))
        for n in range(1, 9)
    ]
    check("integral-sweep-1..8", got == want, f"got {got}, want {want}")
    check("volume-1/e-6", matrep.simplex_volume(inv_e, 6) == Fraction(1, 720))
    slopes = [parse_slope(x) for x in ("1/e", "phi", "e", "cf:[0;2,32003,...]")]
    sos = [permtool.pi_sos(x, n) for x in slopes for n in range(1, 41)]
    dets = [matrep.det_runs(s.n, matrep._runs(s)) for s in sos]
    check("volume-runs", dets == [oracles.det_exact(matrep.factor_matrix(s)) for s in sos])
    got = oracles.det_exact(matrep.m_from_alpha(inv_e, 120))
    want = permtool.sign_direct(permtool.pi_sos(inv_e, 120))
    check("det-sign-1/e-120", got == want, f"got {got}, want {want}")

    rng = random.Random(seed)
    ok = True
    for _ in range(50):
        line = list(range(1, 9))
        rng.shuffle(line)
        s = FracPermutation(8, tuple(line))
        if matrep.reconstruct_sigma(matrep.factor_matrix(s)).one_line != s.one_line:
            ok = False
            break
    check("reconstruct-roundtrip", ok)

    q = matrep.intertwiner(4, 0, 1)
    qm, qi = q.matrix(), q.inverse()
    ok = True
    for line in itertools.permutations(range(1, 5)):
        s = FracPermutation(4, line)
        left = matrep.mat_mul(matrep.mat_mul(qi, matrep.factor_matrix(s).rows()), qm)
        if [[int(x) for x in row] for row in left] != [
            list(r) for r in matrep.perm_matrix(s)
        ]:
            ok = False
            break
    check("conjugation-s4", ok)

    report(f"{'OK' if failures == 0 else 'FAILED'}: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1
