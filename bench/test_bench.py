"""Tests of the benchmark itself: metric coverage, repeatable counters, span
accounting, output checking and refusal to run without the program.

Run from the repository root:  python -m pytest bench
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# counters a later change may cite as exact counts
COUNTERS = (
    "irrational.floors",
    "irrational.floor_calls",
    "irrational.frac_compare_calls",
    "sturmian.positions_scanned",
    "permtool.b_stream_steps",
    "farey.perm_on_cell_calls",
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def stamps_of(proc) -> list[dict]:
    return [json.loads(line[6:]) for line in proc.stdout.splitlines() if line.startswith("stamp ")]


@pytest.fixture(scope="module")
def smoke_runs():
    return [run_bench("--smoke", "--seed", "7") for _ in range(2)]


def test_smoke_reports_every_metric_with_its_unit(smoke_runs):
    proc = smoke_runs[0]
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = result_of(proc)
    assert result["correct"] and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            prefix = f"{workload}/trace{trace}/"
            got = {k[len(prefix):]: v["unit"] for k, v in result["metrics"].items() if k.startswith(prefix)}
            assert got == {m["name"]: m["unit"] for m in spec[group]}
            for name, unit in got.items():
                assert f"\n{prefix}{name} " in proc.stdout


def test_only_the_named_defects_fail(smoke_runs):
    stamps = stamps_of(smoke_runs[0])
    assert result_of(smoke_runs[0])["correct"]
    by_workload = {(s["workload"], s["trace"]): s for s in stamps}
    assert by_workload[("geometry", 0)]["fail_ratio"] > 0
    assert by_workload[("scan", 0)]["fail_ratio"] == by_workload[("perm", 0)]["fail_ratio"] == 0
    defects = [j for j in workloads.make_jobs("geometry", 7, smoke=True) if j.known_defect]
    assert len(defects) == 2 * len(workloads.KNOWN_DEFECTS)


def test_counters_repeat_exactly_for_a_seed(smoke_runs):
    first, second = (result_of(p)["metrics"] for p in smoke_runs)
    for workload in workloads.WORKLOADS:
        for counter in COUNTERS:
            key = f"{workload}/trace1/{counter}"
            assert first[key]["value"] == second[key]["value"] > 0, key


def test_stamp_names_seed_and_jobs(smoke_runs):
    for stamp in stamps_of(smoke_runs[0]):
        assert stamp["seed"] == 7 and stamp["nproc"] >= 1 and stamp["python"] and stamp["git_sha"]
        jobs = workloads.make_jobs(stamp["workload"], 7, smoke=True)
        assert stamp["jobs"] == [j.describe() for j in jobs]


def test_corrupted_expected_value_fails_the_run():
    code = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import oracle, run
expected = oracle.expected
def corrupted(job):
    want = expected(job)
    if job.argv[0] == "signsum":
        upto, total, peak = want
        return upto, total + 1, peak
    return want
oracle.expected = corrupted
sys.exit(run.main(["--smoke"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 1
    assert result_of(proc)["correct"] is False
    assert "PROBLEM" in proc.stdout and "signsum" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _module(name: str, source: str) -> types.ModuleType:
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    return mod


def test_span_accounting_adds_up():
    irrational = _module("fake_irrational", """
class IrrationalSlope:
    def floor_multiple(self, k):
        return sum(range(k)) // (k + 1)
    def frac_compare(self, i, j):
        return (self.floor_multiple(i) > self.floor_multiple(j)) - (i < j)
""")
    farey = _module("fake_farey", """
def sign_sum(alpha, n):
    return sum(alpha.frac_compare(k, k + 1) for k in range(1, n)) + helper(n)
def helper(n):
    return sum(i * i for i in range(n))
""")
    cli = _module("fake_cli", """
def main(alpha, n):
    return [farey.sign_sum(alpha, n) for _ in range(3)]
""")
    cli.farey = farey
    modules = {"irrational": irrational, "farey": farey, "cli": cli}
    original_main = cli.main
    tr = tracing.Tracer(types.ModuleType("fake"), modules)
    tr.install()
    try:
        with tr.job("job") as job:
            cli.main(irrational.IrrationalSlope(), 300)
    finally:
        tr.uninstall()
    assert cli.main is original_main
    assert tr.accounting_error() < 1e-9
    assert tr.counts[tracing.COMPARE] == 3 * 299
    assert tr.counts[tracing.FLOOR] == 2 * 3 * 299
    assert sorted(sp.name for sp in tr.spans) == sorted(
        ["job", "cli.main"] + ["farey.sign_sum", "farey.helper"] * 3)
    metrics = tr.layer_metrics()
    layers = metrics["irrational.self_s"] + metrics["farey.self_s"] + metrics["cli.self_s"]
    remainder = job.duration - job.covered
    assert layers > 0 and remainder >= 0
    assert abs(layers + remainder - job.duration) < 1e-9
