"""Fast self-test of the benchmark; takes under a minute.

Usage: python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that
each end-to-end and per-layer metric is printed; checks that a corrupted
best fitness counts as a failed operation; and checks that a directory
holding only the benchmark, without the cvoa sources, exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402


def run_benchmark(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_benchmark() -> None:
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} <= set(bench.workloads())


def test_every_metric_is_printed() -> None:
    for name in bench.workloads(toy=True):
        for trace, expected in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
            proc = run_benchmark(bench.BENCH_DIR / "run.py", "--workload", name, "--toy", "--trace", str(trace))
            assert proc.returncode == 0, f"{name} trace={trace}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            for line in expected:
                assert f" {line} " in proc.stdout, f"{name}: {line} not printed"


def test_corrupted_best_fitness_is_a_failed_operation() -> None:
    sys.path.insert(0, str(bench.SRC))
    workload = bench.workloads(toy=True)["nn-surrogate"]
    run_dir = bench.WORK / "selftest-corrupt"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    unit, out = bench.Bench(workload, 1, 1.0, run_dir).launch_unit(0, "run")
    bench.check_unit(workload, unit, out, unit.document["returncode"])
    assert unit.failed == 0, unit.problems

    summary = out / "summary.json"
    document = json.loads(summary.read_text(encoding="utf-8"))
    document["runs"][0]["best_fitness"] += 1
    summary.write_text(json.dumps(document), encoding="utf-8")
    corrupted = bench.Unit(index=unit.index, seed=unit.seed, pandemics=unit.pandemics)
    bench.check_unit(workload, corrupted, out, unit.document["returncode"])
    assert corrupted.failed == 1, corrupted.problems
    shutil.rmtree(run_dir)


def test_bare_directory_exits_non_zero() -> None:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_benchmark(bare / bench.BENCH_DIR.name / "run.py", "--workload", "binary-sweep")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    shutil.rmtree(bare)


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
