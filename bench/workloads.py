"""Seeded job lists for the scan, perm and geometry workloads.

Every workload runs all three job groups, so every layer and every slope
family is exercised in each; the workload's own group runs at HEAVY sizes and
the other two at LIGHT sizes.  The seed picks slope members from the family
pools and B(k) targets, never sizes.  Pool members within a family cost about
the same, and every brange target is one that B(k) does not take for
k <= REFERENCE_KMAX (see targets.json), so each brange job scans its full range
whatever the seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

WORKLOADS = ("scan", "perm", "geometry")
FAMILIES = ("surd", "pattern_cf", "periodic_cf", "large_quotient", "slope_free")

HEAVY = dict(k=120_000, perm_n=20_000, table_to=300, integral_to=50,
             volume_n=200, matrix_n=80, factors_n=40, congruence_n=16)
LIGHT = dict(k=4_000, perm_n=2_000, table_to=60, integral_to=30,
             volume_n=40, matrix_n=20, factors_n=12, congruence_n=8)
SMOKE = dict(k=600, perm_n=200, table_to=20, integral_to=8,
             volume_n=10, matrix_n=6, factors_n=5, congruence_n=4)

REFERENCE_KMAX = HEAVY["k"]
TARGETS_FILE = Path(__file__).with_name("targets.json")


def _surd(a: int, b: int, d: int, c: int) -> str:
    return f"({a}{b:+d}*sqrt({d}))/{c}"


def _cf(a0: int, block) -> str:
    return f"cf:[{a0};{','.join(map(str, block))},...]"


# isqrt surds (a, b, d, c) meaning (a + b*sqrt(d))/c
SURDS = ((-1, 1, 5, 2), (0, 1, 2, 1), (0, 1, 3, 1), (0, 1, 7, 1),
         (1, 1, 7, 3), (0, 1, 11, 1), (0, 1, 13, 1), (-2, 1, 13, 4))
# every arrangement of the block (1, 2, 3) has the same convergent growth
PERIODIC = tuple((a0, block) for a0 in (0, 1) for block in permutations((1, 2, 3)))
# One quotient >= 1000 in a period of two.  Both shapes keep their order
# structure up to n = 20000 whatever the seed: {k*alpha} for alpha near 1/2
# (first pool) forms two interleaved runs, for alpha near 1/q (second) one.
LARGE_QUOTIENTS = (30011, 31013, 32003, 33023, 34019, 35023, 36011, 37013)
LARGE_NEAR_HALF = tuple((0, (2, q)) for q in LARGE_QUOTIENTS)
LARGE_NEAR_ZERO = tuple((0, (q, 1)) for q in LARGE_QUOTIENTS)

# The window-scan factor route raises SafetyCapExceeded on these valid slopes
# (a known defect); the jobs stay in the geometry workload and count as failed.
KNOWN_DEFECTS = (("cf:[0;2,5000,...]", "cf:[1;2,5000,...]", 3),
                 ("cf:[0;3000,1,...]", "cf:[1;3000,1,...]", 5))


def brange_slopes() -> list[str]:
    """Every slope a brange job may use; targets.json covers exactly these."""
    return ([_surd(*s) for s in SURDS] + ["1/e"]
            + [_cf(*p) for p in PERIODIC] + [_cf(*q) for q in LARGE_NEAR_HALF])


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    family: str
    size: int
    known_defect: bool = False

    def describe(self) -> dict:
        return {"command": self.argv[0], "family": self.family, "size": self.size,
                "argv": " ".join(self.argv)}


def _job(cmd, family, size, known_defect=False, **opts) -> Job:
    argv = [cmd]
    for flag, value in opts.items():
        argv += [f"--{flag.rstrip('_')}", str(value)]
    return Job(tuple(argv), family, size, known_defect)


def _members(rng: random.Random) -> dict[str, tuple[str, str, str | None]]:
    """Two members of each slope family, and a congruence partner.

    The partner's factor sets are known to be complementary (1 - alpha for a
    surd), equal (alpha + 1 for a periodic CF) or unrelated (e against 1/e).
    """
    (a, b, d, c), s2 = rng.sample(SURDS, 2)
    (a0, block), p2 = rng.sample(PERIODIC, 2)
    l1, l2 = rng.choice(LARGE_NEAR_HALF), rng.choice(LARGE_NEAR_ZERO)
    return {
        "surd": (_surd(a, b, d, c), _surd(*s2), _surd(c - a, -b, d, c)),
        "pattern_cf": ("1/e", "e", "e"),
        "periodic_cf": (_cf(a0, block), _cf(*p2), _cf(a0 + 1, block)),
        "large_quotient": (_cf(*l1), _cf(*l2), None),
    }


def _scan_group(size, members, target):
    jobs = []
    for family, (x, y, _) in members.items():
        jobs.append(_job("brange", family, size["k"], alpha=x, target=target(x), kmax=size["k"]))
        jobs.append(_job("signsum", family, size["k"], alpha=y, N=size["k"]))
    return jobs


def _perm_group(size, members, target):
    jobs = []
    for i, (family, (x, y, _)) in enumerate(members.items()):
        fmt = "json" if i % 2 else "csv"
        jobs.append(_job("perm", family, size["perm_n"], alpha=x, n=size["perm_n"], format=fmt))
        jobs.append(_job("table", family, size["table_to"], alpha=y,
                         from_=2, to=size["table_to"]))
    return jobs


def _geometry_group(size, members, target):
    jobs = [_job("integral", "slope_free", size["integral_to"], to=size["integral_to"])]
    for family, (x, _, partner) in members.items():
        jobs.append(_job("volume", family, size["volume_n"], alpha=x, n=size["volume_n"]))
        jobs.append(_job("matrix", family, size["matrix_n"], alpha=x, n=size["matrix_n"]))
        if partner is not None:  # large quotients: the window scan fails, see KNOWN_DEFECTS
            jobs.append(_job("factors", family, size["factors_n"], alpha=x, n=size["factors_n"]))
            jobs.append(_job("congruence", family, size["congruence_n"], a=x, b=partner,
                             n=size["congruence_n"]))
    return jobs


GROUPS = {"scan": _scan_group, "perm": _perm_group, "geometry": _geometry_group}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The job list of one pass: same workload and seed, same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    targets = json.loads(TARGETS_FILE.read_text(encoding="utf-8"))
    jobs = []
    for name, group in GROUPS.items():
        size = SMOKE if smoke else HEAVY if name == workload else LIGHT
        jobs += group(size, _members(rng), lambda x: rng.choice(targets[x]))
    if workload == "geometry":
        for slope, shifted, n in KNOWN_DEFECTS:
            jobs.append(_job("factors", "large_quotient", n, True, alpha=slope, n=n))
            jobs.append(_job("congruence", "large_quotient", n, True, a=slope, b=shifted, n=n))
    return jobs
