"""Shared fixtures: named slopes, a high-precision numeric oracle, and the
permutation sweeps and helpers reused by several test files."""

import bisect
import functools
import itertools

import pytest
from mpmath import mp

import sturmlab as sl
import sturmlab.cli
from sturmlab.oracles import pi_direct

mp.dps = 80

# Numeric values of the named test slopes, good to roughly 80 digits.  These
# back the oracle-side of the exact/numeric dual checks in the unit tests.
MP_VALUES = {
    "phi": (mp.sqrt(5) - 1) / 2,
    "1/e": 1 / mp.e,
    "sqrt2-1": mp.sqrt(2) - 1,
    "e": mp.e,
}

# adversarial slopes: huge partial quotients, a pre-periodic CF, a negative
# surd, slopes above 1, plus the named ones
KERNEL_SLOPES = {
    "phi": sl.phi,
    "e": sl.EulerE,
    "1/e": sl.EulerEInv,
    "cf:[0;2,5000,...]": lambda: sl.parse_slope("cf:[0;2,5000,...]"),
    "cf:[0;1,100000,...]": lambda: sl.parse_slope("cf:[0;1,100000,...]"),
    "cf:[0;3000,1,...]": lambda: sl.parse_slope("cf:[0;3000,1,...]"),
    "pre-periodic": lambda: sl.ExplicitCF([3, 1, 4], repeat=[2, 7]),
    "(1-1*sqrt(3))/1": lambda: sl.parse_slope("(1-1*sqrt(3))/1"),
    "(-2+1*sqrt(13))/4": lambda: sl.parse_slope("(-2+1*sqrt(13))/4"),
    "(7+3*sqrt(2))/2": lambda: sl.parse_slope("(7+3*sqrt(2))/2"),
    "cf:[2;1,2,...]": lambda: sl.parse_slope("cf:[2;1,2,...]"),
}

SWEEP_SLOPES = ("phi", "1/e", "sqrt2-1")
SWEEP_N = 500


def make_slope(name, budget=None):
    if name == "phi":
        return sl.phi(budget)
    if name == "1/e":
        return sl.EulerEInv(budget)
    if name == "sqrt2-1":
        return sl.QuadraticSurd(-1, 1, 2, 1, budget)
    if name == "e":
        return sl.EulerE(budget)
    raise KeyError(name)


def mp_floor(x):
    """Floor of a high-precision value, refusing to answer near a tie."""
    f = mp.floor(x)
    assert min(x - f, f + 1 - x) > mp.mpf(10) ** -60, "numeric oracle too close to an integer"
    return int(f)


def mp_frac(name, k):
    return mp.frac(k * MP_VALUES[name])


@pytest.fixture(params=["phi", "1/e", "sqrt2-1", "e"])
def named_slope(request):
    return request.param, make_slope(request.param)


@pytest.fixture(scope="session")
def pi_sweeps():
    """(slope, [pi_direct(alpha, n) for n = 1..500]) per sub-unit test slope.

    Built once; the sign, order-prediction and recurrence checks all compare
    their own construction against this directly-sorted baseline.
    """
    out = {}
    for name in SWEEP_SLOPES:
        alpha = make_slope(name)
        out[name] = (alpha, [pi_direct(alpha, n) for n in range(1, SWEEP_N + 1)])
    return out


def all_perms(n):
    return [sl.FracPermutation(n, line) for line in itertools.permutations(range(1, n + 1))]


def random_perm(rng, n):
    line = list(range(1, n + 1))
    rng.shuffle(line)
    return sl.FracPermutation(n, tuple(line))


def insert_by_frac(alpha, ordering, k):
    """Insert k into ordering, kept by increasing {j*alpha}; return its 0-based position."""
    key = functools.cmp_to_key(alpha.frac_compare)
    at = bisect.bisect_left(ordering, key(k), key=key)
    ordering.insert(at, k)
    return at


def walked_cycles(line):
    """Cycles of a one-line permutation, walked from each least unseen index."""
    seen, out = set(), []
    for start in range(1, len(line) + 1):
        if start not in seen:
            cyc, j = [start], line[start - 1]
            while j != start:
                cyc.append(j)
                j = line[j - 1]
            seen.update(cyc)
            out.append(tuple(cyc))
    return out


@pytest.fixture
def run_cli(capsys):
    """Invoke the command line main() and capture (rc, stdout, stderr)."""

    def run(argv):
        rc = sturmlab.cli.main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return run
