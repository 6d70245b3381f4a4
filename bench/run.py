"""End-to-end benchmark of the sturmlab command line.

Run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

A run imports sturmlab from ./src, builds the workload's job list from the
seed (workloads.py) and runs it pass after pass, one job at a time through
``sturmlab.cli.main(argv)`` in this process, for at most --seconds.
Every output is then checked against an independent route (oracle.py).

With --trace 0 it reports the end-to-end metrics: the time of one pass and
of each slope family's jobs, the set-up time, and peak memory.  Every time
is the median over the run of a measured time scaled to a reference machine
speed (see calibrate), because this runs on shared cores.  With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (tracer.py),
writing the spans to .bench_out/.  --smoke runs every workload at tiny sizes
with tracing off and on.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when every output was correct.
"""
from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s", "wall_s": "s",
    **{f"{family}_s": "s" for family in workloads.FAMILIES},
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {"_s": "s", "us_per_floor": "us", "_ratio": "ratio", "compares_per_entry":
                   "compares/entry", "factor_yield": "factors/position", "bytes_out": "bytes"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- set-up ------------------------------------------------------------------------


class SetupError(Exception):
    """The program under test cannot be loaded; no result is printed."""


def set_up(workload: str, seed: int, smoke: bool) -> tuple[float, list]:
    """Import sturmlab afresh and build the job list: (seconds taken, jobs)."""
    for name in [m for m in sys.modules if m == "sturmlab" or m.startswith("sturmlab.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    try:
        importlib.import_module("sturmlab.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import sturmlab from {SRC}: {exc}") from None
    jobs = workloads.make_jobs(workload, seed, smoke)
    return time.perf_counter() - t0, jobs


# -- machine speed ---------------------------------------------------------------

# About the best time of calibrate() seen on the host the bounds were set on
# (2 vCPUs, Python 3.11.7).  Scaled times are in seconds at that speed.
REFERENCE_CALIBRATION_S = 0.004


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (integers, a list, a dict).

    On a shared machine the CPU runs at up to half speed for minutes at a
    time.  Timing the same loop next to every job measures that speed, so a
    job's time can be stated at the reference speed.
    """
    t0 = time.perf_counter()
    x, seen, acc = 12345, {}, []
    for i in range(10_000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        seen[i & 255] = x >> 7
        acc.append(x % 1000)
    return time.perf_counter() - t0


def calibrated(set_up_once) -> tuple[float, float, list]:
    """(seconds, calibration around it, jobs) of one set-up."""
    before = calibrate()
    seconds, jobs = set_up_once()
    return seconds, (before + calibrate()) / 2, jobs


def at_reference_speed(times, calibrations) -> float:
    """Median over samples of each time scaled by its calibration."""
    return REFERENCE_CALIBRATION_S * statistics.median(
        t / c for t, c in zip(times, calibrations))


# -- running -----------------------------------------------------------------------


def run_job(cli, job, tracer=None):
    """(exit code, stdout, stderr, seconds) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(job.argv))
            else:
                with tracer.job(job.argv[0]):
                    rc = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this job; the run goes on
            rc = "crash"
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_pass(cli, jobs, first=None, tracer=None) -> dict:
    """Run every job once, with a calibration before and after each.

    Outputs are kept for the first pass only; a later pass records, per job,
    whether it reproduced the first pass exactly.
    """
    t0 = time.perf_counter()
    results, speed = [], [calibrate()]
    for job in jobs:
        results.append(run_job(cli, job, tracer))
        speed.append(calibrate())
    p = {"wall": time.perf_counter() - t0, "times": [r[3] for r in results],
         "calibration": [(a + b) / 2 for a, b in zip(speed, speed[1:])]}
    if first is None:
        p["outcomes"] = [r[:3] for r in results]
    else:
        p["same"] = [r[:3] == o for r, o in zip(results, first["outcomes"])]
    return p


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, then run passes for at most `seconds` (at least one pass).

    Set-up is repeated SETUP_REPS times first and once more after every
    pass, so its samples spread over the run like the job timings do.  The
    passes keep using the modules of the first import.  With trace, untraced
    and traced passes alternate.
    """
    setup_times = []
    for _ in range(SETUP_REPS):
        setup_times.append(calibrated(lambda: set_up(workload, seed, smoke)))
    jobs = setup_times[-1][2]
    package, cli = sys.modules["sturmlab"], sys.modules["sturmlab.cli"]
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"sturmlab was imported from {package.__file__}, not from {SRC}")
    tr = None
    if trace:
        tr = tracing.Tracer(package, {name: sys.modules[f"sturmlab.{name}"]
                                      for name in tracing.LAYERS})
    plain, traced, spans = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(cli, jobs, plain[0] if plain else None))
        if tr is not None:
            tr.reset()
            tr.install()
            try:
                p = run_pass(cli, jobs, plain[0], tr)
            finally:
                tr.uninstall()
            p["layers"] = tr.layer_metrics()
            p["accounting_error"] = tr.accounting_error()
            spans += tr.span_records(offset=len(spans))
            traced.append(p)
        setup_times.append(calibrated(lambda: set_up(workload, seed, smoke)))
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds:  # another round would overrun
            return {"jobs": jobs, "setup_times": setup_times, "plain": plain,
                    "traced": traced, "spans": spans}


# -- checking ----------------------------------------------------------------------


def verdict(job, rc, out, err) -> tuple[bool, str | None]:
    """(failed, problem) for one outcome; a problem makes the run incorrect."""
    if rc != 0:
        if job.known_defect and err.startswith("error[SafetyCapExceeded]"):
            return True, None  # the named defect: counted as failed, expected
        return True, f"exit {rc}: {err.strip()[-300:]}"
    try:
        want = oracle.expected(job)
    except oracle.OracleError as exc:
        return True, f"oracle: {exc}"
    try:
        got = oracle.observed(job, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return True, f"unparsable output ({exc!r}): {out[:200]!r}"
    if got != want:
        return True, f"wrong output: {str(got)[:200]} != expected {str(want)[:200]}"
    return False, None


def check(jobs, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every pass.

    The first pass's outcome of each job is checked by the oracle; every
    other pass must have reproduced it exactly.
    """
    attempted = failed = 0
    problems = []
    for i, job in enumerate(jobs):
        first_failed, problem = verdict(job, *passes[0]["outcomes"][i])
        if problem:
            problems.append(f"{' '.join(job.argv)}: {problem}")
        for p in passes:
            attempted += 1
            if "same" in p and not p["same"][i]:
                failed += 1
                problems.append(f"{' '.join(job.argv)}: output differs between passes")
            elif first_failed:
                failed += 1
    return attempted, failed, problems


# -- reporting ---------------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median_of(passes, key) -> float:
    return statistics.median(key(p) for p in passes)


def job_times(jobs, passes) -> list[float]:
    """Each job's time at the reference speed, over the passes."""
    return [at_reference_speed([p["times"][i] for p in passes],
                               [p["calibration"][i] for p in passes])
            for i in range(len(jobs))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    m = measure(workload, seed, seconds, trace, smoke)
    jobs, plain, traced = m["jobs"], m["plain"], m["traced"]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = check(jobs, plain + traced)
    per_job = job_times(jobs, plain)
    setup = m["setup_times"]
    end_to_end = {
        "setup_s": at_reference_speed([s[0] for s in setup], [s[1] for s in setup]),
        "wall_s": sum(per_job),
        **{f"{f}_s": sum(t for job, t in zip(jobs, per_job) if job.family == f)
           for f in workloads.FAMILIES},
        "peak_rss_mib": peak_rss_mib,
    }
    metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end.items()}
    if trace:
        layers = {name: median_of(traced, lambda p: p["layers"][name]) for name in traced[0]["layers"]}
        layers["cli.bytes_out"] = sum(len(o[1].encode()) for o in plain[0]["outcomes"])
        layers["trace.overhead_ratio"] = (median_of(traced, lambda p: p["wall"])
                                          / median_of(plain, lambda p: p["wall"]))
        metrics = {name: (value, per_layer_unit(name)) for name, value in layers.items()}
        error = max(p["accounting_error"] for p in traced)
        if error > 1e-6:
            problems.append(f"span accounting off by {error:.3g} s")
        OUT_DIR.mkdir(exist_ok=True)
        suffix = "-smoke" if smoke else ""
        (OUT_DIR / f"spans-{workload}-seed{seed}{suffix}.json").write_text(json.dumps(m["spans"]))
    return {
        "stamp": {
            "workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "passes": len(plain), "traced_passes": len(traced),
            "fail_ratio": failed / attempted,
            "raw_pass_s": median_of(plain, lambda p: p["wall"]),
            "calibration_s": statistics.median(c for p in plain for c in p["calibration"]),
            "jobs": [job.describe() for job in jobs],
        },
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
    }


def print_report(run: dict, prefix: str = "") -> None:
    stamp = run["stamp"]
    print("stamp " + json.dumps(stamp))
    for problem in run["problems"]:
        print(f"PROBLEM {prefix}{problem}")
    print(f"{prefix}fail_ratio {stamp['fail_ratio']:.6g} failed/attempted"
          f" ({run['failed']}/{run['attempted']})")
    for name, (value, unit) in run["metrics"].items():
        print(f"{prefix}{name} {value:.6g} {unit}")


def result_line(runs: dict) -> str:
    return json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {
            (f"{label}/{name}" if len(runs) > 1 else name): {"value": value, "unit": unit}
            for label, r in runs.items() for name, (value, unit) in r["metrics"].items()
        },
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny sizes, one pass, tracing off and on")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    sys.path.insert(0, str(SRC))
    try:
        if args.smoke:
            runs = {f"{w}/trace{t}": run_workload(w, args.seed, 0, bool(t), True)
                    for w in workloads.WORKLOADS for t in (0, 1)}
        else:
            runs = {args.workload: run_workload(args.workload, args.seed, args.seconds,
                                                bool(args.trace), False)}
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    for label, run in runs.items():
        print_report(run, f"{label}/" if len(runs) > 1 else "")
    print(result_line(runs))
    return 0 if all(r["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
