"""End-to-end and per-layer benchmark for cvoa.

Usage:
  python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; cvoa is imported from ./src, so
nothing needs installing. Each workload unit is one cvoa command, entered
through cvoa.cli.main(argv) in a fresh child process; this process is a
single-threaded parent that starts the children one at a time, checks
every output they leave, and prints one metric per line followed by a
final JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced replay of the same units. The exit status is
0 when every output check passed, 1 when any failed, 2 for usage errors
or a checkout without the cvoa sources. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
EVALUATOR = BENCH_DIR / "evaluator.py"
CHILD = BENCH_DIR / "child.py"

SETUP_PROBES = 5
RUN_LIMIT_S = 165.0
CSV_HEADER = ["Iteration", "Deaths", "Recovered", "Infected", "Fitness"]
SWEEP_HEADER = ["Length", "MeanIterationsToOptimum", "MeanEvaluatedFraction"]

# name -> unit; the final JSON line carries exactly these. Latency figures
# (wall_s, pandemic_s.*) are printed too, but their work per run depends on
# the seed, so they are not steady enough to gate on.
END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{
        f"engine.{span}.{stat}": "count" if stat == "calls" else "s"
        for span in ("evaluate", "new_infection", "infect", "die", "run_strain")
        for stat in ("calls", "busy_s", "wait_s")
    },
    "engine.sorted.calls": "count",
    "engine.sorted.items": "count",
    "engine.sorted.busy_s": "s",
    "engine.disposition.added": "count",
    "engine.disposition.isolated": "count",
    "engine.disposition.reinfected": "count",
    "engine.disposition.ignored": "count",
    "engine.admit_ratio": "ratio",
    "engine.memo_hit_ratio": "ratio",
    "engine.infected.peak": "count",
    "codec.replicate.calls": "count",
    "codec.replicate.traveler_calls": "count",
    "codec.replicate.busy_s": "s",
    "codec.fitness.calls": "count",
    "codec.fitness.busy_s": "s",
    "codec.fitness.wait_s": "s",
    "codec.validate.calls": "count",
    "codec.validate.busy_s": "s",
    "nn.evaluator.round_trips": "count",
    "nn.evaluator.memo_hits": "count",
    "multistrain.seed_patient_zeros.calls": "count",
    "multistrain.seed_patient_zeros.busy_s": "s",
    "multistrain._merge_histories.busy_s": "s",
    "multistrain.straggler_s": "s",
    "cli.main.busy_s": "s",
    "cli.write_iterations_csv.calls": "count",
    "cli.bytes_written": "bytes",
}

MODULE_DETAIL = ("binary.", "nn.", "cli.write_iterations_csv", "multistrain.run_pandemic")


def parameters(**overrides) -> dict:
    """Every EpidemicParameters field, set explicitly: the README and the
    dataclass disagree on the defaults of `strains` (5 vs 1) and `seed`
    (1 vs 0), so no workload leans on either."""
    values = {
        "p_die": 0.05,
        "p_superspreader": 0.1,
        "ordinary_spread_range": [0, 5],
        "superspreader_spread_range": [6, 15],
        "p_reinfection": 0.14,
        "p_isolation": 0.5,
        "p_travel": 0.1,
        "pandemic_duration": 30,
        "strains": 5,
        "traveler_rate": 3,
        "objective": "minimize",
        "seed": 1,
    }
    values.update(overrides)
    return values


@dataclass(frozen=True)
class Workload:
    """One cvoa config; unit i runs it with seed base + i * repeat."""

    name: str
    codec: dict
    parameters: dict
    pz_strategy: str
    repeat: int
    lengths: tuple[int, ...] = ()  # non-empty: `cvoa sweep`, else `cvoa run`
    min_units: int = 1

    @property
    def pandemics_per_unit(self) -> int:
        return self.repeat * max(1, len(self.lengths))

    def config(self) -> dict:
        return {
            "codec": self.codec,
            "parameters": self.parameters,
            "pz_strategy": self.pz_strategy,
            "repeat": self.repeat,
            "out": "out",
        }

    def argv(self, config_path: Path, seed: int, out: Path) -> list[str]:
        common = ["--config", str(config_path), "--seed", str(seed), "--out", str(out)]
        if self.lengths:
            return ["sweep", "--lengths", ",".join(map(str, self.lengths)), *common]
        return ["run", *common]


def workloads(toy: bool = False) -> dict[str, Workload]:
    evaluator = [sys.executable, "-I", "-S", str(EVALUATOR)]
    chosen = [
        # the acceptance length-sweep campaign, ten seeds per unit
        Workload(
            "binary-sweep",
            {"kind": "binary", "bits": 10, "target": 15},
            parameters(),
            "max_hamming_spread",
            repeat=10,
            lengths=(10, 20, 30, 40, 50),
        ),
        # the acceptance surrogate study; one hidden target per seed
        Workload(
            "nn-surrogate",
            {"kind": "nn", "surrogate_target": "random"},
            parameters(),
            "random",
            repeat=1,
            min_units=10,
        ),
        # one evaluator process per distinct genotype; one ExternalEvaluator
        # serves a unit's ten repeats. Two iterations keep about 80 pandemics
        # in a 30 s run, enough to even out runs where one strain dies early
        # and only one evaluator process runs at a time.
        Workload(
            "nn-external",
            {"kind": "nn", "evaluator": evaluator},
            parameters(strains=2, pandemic_duration=2),
            "max_hamming_spread",
            repeat=10,
        ),
    ]
    if toy:
        chosen = [
            replace(chosen[0], repeat=2, lengths=(10, 12)),
            replace(chosen[1], parameters=parameters(pandemic_duration=5), min_units=2),
            replace(chosen[2], repeat=2),
        ]
    return {w.name: w for w in chosen}


@dataclass
class Unit:
    """What one child left behind, and how many of its pandemics failed a check."""

    index: int
    seed: int
    setup_s: float | None = None
    wall_s: float | None = None
    pandemics: list[dict] = field(default_factory=list)
    max_rss_kb: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    document: dict = field(default_factory=dict)


def run_child(spec: dict, log: Path, timeout: float) -> tuple[float, dict | None, str]:
    """Start child.py on spec; return (start time, result document, error)."""
    spec_path = Path(spec["result"]).with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with log.open("w", encoding="utf-8") as out:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return started, None, f"child killed after {timeout:.0f} s"
    result = Path(spec["result"])
    if code != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
        return started, None, f"child exited {code}: {tail}"
    return started, json.loads(result.read_text(encoding="utf-8")), ""


# ---------------------------------------------------------------- checks


def reached_optimum(record: dict) -> int | None:
    """Iteration at which the pandemic met its codec's optimum (minimize)."""
    optimum = record["optimum"]
    if optimum is None:
        return None
    if record["initial_best"] is not None and record["initial_best"] <= optimum:
        return 0
    for iteration, fitness in enumerate(record["fitness_trace"], start=1):
        if fitness <= optimum:
            return iteration
    return None


def never_worsens(values: list[float]) -> bool:
    return all(later <= earlier for earlier, later in zip(values, values[1:]))


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=1e-12)


def aggregate_problems(document: dict) -> list[str]:
    """summary.json aggregates recomputed independently from its runs."""
    runs = document["runs"]
    reached = [r["iterations_to_optimum"] for r in runs if r["iterations_to_optimum"] is not None]
    space = document["search_space_size"]
    expected = {
        "mean_iterations_to_optimum": statistics.fmean(reached) if reached else None,
        "median_iterations_to_optimum": statistics.median(reached) if reached else None,
        "success_rate": len(reached) / len(runs),
        "mean_evaluated_fraction": statistics.fmean(r["evaluations_total"] / space for r in runs),
    }
    return [
        f"summary {key} {document['aggregates'].get(key)!r} != {value!r}"
        for key, value in expected.items()
        if not close(document["aggregates"].get(key), value)
    ]


def check_run_pandemic(run_dir: Path, run: dict, record: dict, codec) -> list[str]:
    """Checks of one `cvoa run` pandemic against its files and a fresh codec."""
    from cvoa.binary import BinaryCodec, BitGenotype
    from cvoa.nn import parse_net_text

    parse = BitGenotype.from_string if isinstance(codec, BinaryCodec) else parse_net_text
    problems = []
    with (run_dir / "iterations.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        problems.append(f"{run_dir.name}: iterations.csv header {rows[:1]}")
    elif not never_worsens([float(row[4]) for row in rows[1:]]):
        problems.append(f"{run_dir.name}: Fitness column gets worse")
    best_text = (run_dir / "best.txt").read_text(encoding="utf-8").strip()
    rescored = codec.fitness(parse(best_text))
    if rescored != run["best_fitness"]:
        problems.append(f"{run_dir.name}: best.txt re-scores to {rescored!r}, summary says {run['best_fitness']!r}")
    if best_text != record["best"] or not close(run["best_fitness"], record["best_fitness"]):
        problems.append(f"{run_dir.name}: summary best differs from the pandemic result")
    if run["evaluations_total"] != record["evaluations"]:
        problems.append(f"{run_dir.name}: evaluations_total differs from the pandemic result")
    if run["iterations_to_optimum"] != reached_optimum(record):
        problems.append(f"{run_dir.name}: iterations_to_optimum differs from the fitness trace")
    return problems


def check_run_unit(workload: Workload, unit: Unit, out: Path) -> None:
    """Output checks of a `cvoa run` unit; each failing pandemic counts once."""
    from cvoa.cli import build_codec

    document = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    runs = document["runs"]
    if [r["seed"] for r in runs] != [unit.seed + r for r in range(workload.repeat)]:
        raise ValueError(f"summary seeds {[r['seed'] for r in runs]}")
    if len(unit.pandemics) != len(runs):
        raise ValueError(f"{len(unit.pandemics)} pandemics ran, summary lists {len(runs)}")
    problems = aggregate_problems(document)
    if problems:
        raise ValueError("; ".join(problems))
    codec = build_codec(workload.codec, unit.seed)
    for run, record in zip(runs, unit.pandemics):
        try:
            problems = check_run_pandemic(out / f"run_{run['seed']}", run, record, codec)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems = [f"run_{run['seed']}: {exc!r}"]
        if problems:
            unit.failed += 1
            unit.problems.extend(problems)


def check_sweep_unit(workload: Workload, unit: Unit, out: Path) -> None:
    """Output checks of a `cvoa sweep` unit against the pandemics it ran."""
    from cvoa.binary import BinaryCodec, BitGenotype

    target = workload.codec["target"]
    by_length: dict[int, list[dict]] = {}
    for record in unit.pandemics:
        problems = []
        try:
            genotype = BitGenotype.from_string(record["best"])
            if genotype.length != record["bits"]:
                problems.append(f"best {record['best']} is not {record['bits']} bits")
            rescored = BinaryCodec(bits=record["bits"], target=target).fitness(genotype)
            if rescored != record["best_fitness"]:
                problems.append(f"best re-scores to {rescored}, reported {record['best_fitness']}")
        except (TypeError, ValueError) as exc:
            problems.append(repr(exc))
        if not never_worsens(record["fitness_trace"]):
            problems.append("fitness trace gets worse")
        if problems:
            unit.failed += 1
            unit.problems.extend(f"{record['bits']} bits seed {record['seed']}: {p}" for p in problems)
        by_length.setdefault(record["bits"], []).append(record)
    with (out / "sweep.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValueError(f"sweep.csv header {rows[:1]}")
    if [int(row[0]) for row in rows[1:]] != list(workload.lengths):
        raise ValueError(f"sweep.csv lengths {[row[0] for row in rows[1:]]}")
    for row in rows[1:]:
        records = by_length[int(row[0])]
        if len(records) != workload.repeat:
            raise ValueError(f"{len(records)} pandemics at {row[0]} bits")
        reached = [r for r in map(reached_optimum, records) if r is not None]
        mean_ito = statistics.fmean(reached) if reached else None
        fraction = statistics.fmean(r["evaluations"] / r["space"] for r in records)
        if not close(float(row[1]) if row[1] else None, mean_ito) or not close(float(row[2]), fraction):
            raise ValueError(f"sweep.csv row {row} disagrees with ({mean_ito}, {fraction})")


def check_unit(workload: Workload, unit: Unit, out: Path, returncode) -> None:
    """Run every output check; a unit-level failure fails all its pandemics."""
    try:
        if returncode != 0:
            raise ValueError(f"cvoa main returned {returncode}")
        if workload.lengths:
            check_sweep_unit(workload, unit, out)
        else:
            check_run_unit(workload, unit, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        unit.failed = workload.pandemics_per_unit
        unit.problems.append(f"unit {unit.index}: {exc}")


# ---------------------------------------------------------------- running


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, run_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.started = time.monotonic()
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(workload.config(), indent=2), encoding="utf-8")
        self.cvoa_version = None

    def unit_seed(self, index: int) -> int:
        return self.seed + index * self.workload.repeat

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def run_unit(self, index: int, mode: str) -> Unit:
        unit, out = self.launch_unit(index, mode)
        if unit.document and mode != "probe":
            check_unit(self.workload, unit, out, unit.document["returncode"])
        shutil.rmtree(out, ignore_errors=True)
        return unit

    def launch_unit(self, index: int, mode: str) -> tuple[Unit, Path]:
        """Run one child; return its unit, unchecked, and its cvoa output directory."""
        unit = Unit(index=index, seed=self.unit_seed(index))
        base = self.run_dir / f"{mode}-{index}"
        out = base.with_suffix(".out")
        spec = {
            "src": str(SRC),
            "mode": mode,
            "argv": self.workload.argv(self.config_path, unit.seed, out),
            "result": str(base.with_suffix(".json")),
            "out": str(out),
        }
        started, document, error = run_child(spec, base.with_suffix(".log"), self.remaining())
        if document is None:
            unit.failed = self.workload.pandemics_per_unit
            unit.problems.append(f"unit {index}: {error}")
            return unit, out
        self.cvoa_version = document["cvoa_version"]
        unit.document = document
        unit.pandemics = document["pandemics"]
        unit.max_rss_kb = document["max_rss_kb"]
        if document["first_pandemic"] is not None:
            unit.setup_s = document["first_pandemic"] - started
            unit.wall_s = document["ended"] - document["first_pandemic"]
        return unit, out

    def probe_setup(self) -> list[float]:
        samples = []
        for i in range(SETUP_PROBES):
            unit = self.run_unit(i, "probe")
            if unit.setup_s is None:
                raise RuntimeError("; ".join(unit.problems) or "probe never reached run_pandemic")
            samples.append(unit.setup_s)
        return samples

    def run_units(self, mode: str, budget: float, count: int | None = None) -> list[Unit]:
        """Units 0, 1, ... until `count` ran, or else until `budget` seconds passed
        and at least min_units ran; never past the run's time limit."""
        units: list[Unit] = []
        started = time.monotonic()
        while self.remaining() > 1.0:
            if count is not None and len(units) >= count:
                break
            if count is None and len(units) >= self.workload.min_units and time.monotonic() - started >= budget:
                break
            units.append(self.run_unit(len(units), mode))
        return units


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(units: list[Unit], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the extra figures printed beside them."""
    pandemics = [p for u in units for p in u.pandemics]
    seconds = [p["seconds"] for p in pandemics]
    walls = [u.wall_s for u in units if u.wall_s is not None]
    rss = [u.max_rss_kb / 1024 for u in units if u.max_rss_kb]
    metrics = {
        "setup_s": statistics.median(setup),
        "evals_per_s": sum(p["evaluations"] for p in pandemics) / sum(seconds),
        "peak_rss_mb": statistics.median(rss),
    }
    known = [p for p in pandemics if p["optimum"] is not None]
    extras = {
        "samples.setup": len(setup),
        "samples.units": len(walls),
        "samples.pandemics": len(seconds),
        "wall_s": statistics.median(walls),
        "pandemic_s.p50": statistics.median(seconds),
        "peak_rss_mb.max": max(rss),
        "evaluations": sum(p["evaluations"] for p in pandemics),
    }
    if len(seconds) >= 100:
        extras["pandemic_s.p90"] = quantile(seconds, 0.9)
    if known:
        extras["optimum_rate"] = sum(reached_optimum(p) is not None for p in known) / len(known)
    return metrics, extras


def per_layer(units: list[Unit]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced units, and the module-level detail."""
    traces = [u.document.get("trace", {}) for u in units]
    pandemics = [p for u in units for p in u.pandemics]
    # name -> [calls, self wall, self busy, items], summed over threads and pandemics
    totals: dict[str, list] = {}
    for trace in traces:
        for name, _pandemic, _thread, *values in trace.get("rows", []):
            sums = totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(values):
                sums[i] += value

    def total(name: str, column: str) -> float:
        return totals.get(name, [0, 0.0, 0.0, 0])[("calls", "wall_s", "busy_s", "items").index(column)]

    metrics: dict[str, float] = {}

    def span(prefix: str, names: tuple[str, ...], stats=("calls", "busy_s", "wait_s")) -> None:
        busy = sum(total(n, "busy_s") for n in names)
        values = {
            "calls": sum(total(n, "calls") for n in names),
            "busy_s": busy,
            "wait_s": sum(total(n, "wall_s") for n in names) - busy,
        }
        for stat in stats:
            metrics[f"{prefix}.{stat}"] = values[stat]

    for name in ("evaluate", "new_infection", "infect", "die", "run_strain"):
        span(f"engine.{name}", (f"engine.{name}",))
    span("engine.sorted", ("engine.sorted",), ("calls", "busy_s"))
    metrics["engine.sorted.items"] = total("engine.sorted", "items")
    dispositions = {
        "added": "added_to_new_infected",
        "isolated": "isolated",
        "reinfected": "reinfected",
        "ignored": "ignored",
    }
    for short, full in dispositions.items():
        metrics[f"engine.disposition.{short}"] = total(f"engine.disposition.{full}", "items")
    candidates = sum(metrics[f"engine.disposition.{d}"] for d in dispositions)
    admitted = metrics["engine.disposition.added"] + metrics["engine.disposition.reinfected"]
    metrics["engine.admit_ratio"] = admitted / candidates if candidates else 0.0
    evaluations = sum(p["evaluations"] for p in pandemics)
    calls = metrics["engine.evaluate.calls"]
    metrics["engine.memo_hit_ratio"] = 1 - evaluations / calls if calls else 0.0
    metrics["engine.infected.peak"] = max((p["infected_peak"] for p in pandemics), default=0)

    span("codec.replicate", ("binary.replicate", "nn.replicate"), ("calls", "busy_s"))
    metrics["codec.replicate.traveler_calls"] = sum(
        total(f"{module}.replicate.traveler", "items") for module in ("binary", "nn")
    )
    span("codec.fitness", ("binary.fitness", "nn.fitness"))
    span("codec.validate", ("binary.BitGenotype.validate", "nn.NetGenotype.validate"), ("calls", "busy_s"))

    round_trips = sum(evaluator_invocations(u) for u in units)
    metrics["nn.evaluator.round_trips"] = round_trips
    metrics["nn.evaluator.memo_hits"] = total("nn.evaluator.fitness", "items") - round_trips

    span("multistrain.seed_patient_zeros", ("multistrain.seed_patient_zeros",), ("calls", "busy_s"))
    span("multistrain._merge_histories", ("multistrain._merge_histories",), ("busy_s",))
    metrics["multistrain.straggler_s"] = statistics.median(stragglers(units)) if pandemics else 0.0
    span("cli.main", ("cli.main",), ("busy_s",))
    metrics["cli.write_iterations_csv.calls"] = total("cli.write_iterations_csv", "calls")
    metrics["cli.bytes_written"] = sum(u.document.get("bytes_written", 0) for u in units)

    # module-level rows the metrics above sum up or leave out
    detail: dict[str, float] = {}
    for name in sorted(n for n in totals if n.startswith(MODULE_DETAIL)):
        if total(name, "calls"):
            detail[f"{name}.calls"] = total(name, "calls")
            detail[f"{name}.busy_s"] = total(name, "busy_s")
            detail[f"{name}.wait_s"] = total(name, "wall_s") - total(name, "busy_s")
        if total(name, "items"):
            detail[f"{name}.items"] = total(name, "items")
    round_trip_s = [s for trace in traces for s in trace.get("round_trip_s", [])]
    if round_trip_s:
        detail["nn.evaluator.round_trip_s.p50"] = statistics.median(round_trip_s)
        detail["nn.evaluator.round_trip_s.p90"] = quantile(round_trip_s, 0.9)
    detail["trace.busy_sum_s"] = sum(t[2] for t in totals.values())
    detail["trace.process_cpu_s"] = sum(u.document.get("process_cpu_s", 0.0) for u in units)
    detail["trace.kept_spans"] = sum(len(trace.get("spans", [])) for trace in traces)
    return metrics, detail


def evaluator_invocations(unit: Unit) -> int:
    """Round trips of the unit's evaluators, from their public invocations counters."""
    latest: dict[int, int] = {}
    for p in unit.pandemics:
        if p["evaluator_id"] is not None:
            latest[p["evaluator_id"]] = max(latest.get(p["evaluator_id"], 0), p["evaluator_invocations"])
    return sum(latest.values())


def stragglers(units: list[Unit]) -> list[float]:
    """Per pandemic: last strain end minus first strain end."""
    values = []
    for unit in units:
        ends: dict[int, list[float]] = {}
        for span in unit.document.get("trace", {}).get("spans", []):
            if span[1] == "engine.run_strain":
                ends.setdefault(span[6], []).append(span[3])
        values.extend(max(e) - min(e) for e in ends.values())
    return values or [0.0]


# ---------------------------------------------------------------- report


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def unit_of(name: str) -> str:
    if name in END_TO_END or name in PER_LAYER:
        return {**END_TO_END, **PER_LAYER}[name]
    if name.endswith(("_s", "_s.p50", "_s.p90")):
        return "s"
    if name.endswith(("share", "rate")):
        return "share"
    return "MB" if "_mb" in name else "count"


def print_metrics(workload: str, metrics: dict) -> None:
    for name, value in metrics.items():
        print(f"{workload:<13} {name:<40} {value!r} {unit_of(name)}")


def measure(bench: Bench, trace: int) -> tuple[list[Unit], dict, dict, list[str]]:
    """Run the units; return them with the metrics, the extra figures and
    any run-level problems. Raises RuntimeError when nothing was measured."""
    problems = []
    if not trace:
        setup = bench.probe_setup()
        units = bench.run_units("run", bench.seconds)
        if not any(u.pandemics for u in units):
            raise RuntimeError("no pandemic completed: " + "; ".join(p for u in units for p in u.problems))
        metrics, detail = end_to_end(units, setup + [u.setup_s for u in units if u.setup_s is not None])
        return units, metrics, detail, problems
    plain = bench.run_units("run", bench.seconds / 2)
    traced = bench.run_units("trace", 0.0, count=len(plain))
    if not any(u.pandemics for u in traced):
        raise RuntimeError("no traced pandemic completed: " + "; ".join(p for u in traced for p in u.problems))
    metrics, detail = per_layer(traced)
    walls = [u.wall_s for u in plain if u.wall_s is not None]
    traced_walls = [u.wall_s for u in traced if u.wall_s is not None]
    if walls and traced_walls:
        detail["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        detail["trace.overhead_share"] = detail["trace.overhead_s"] / statistics.median(walls)
    if detail["trace.busy_sum_s"] > detail["trace.process_cpu_s"]:
        problems.append("per-layer busy_s self times exceed the children's process CPU time")
    trace_file = [{"unit": u.index, "seed": u.seed, **u.document.get("trace", {})} for u in traced]
    (bench.run_dir / "trace.json").write_text(json.dumps(trace_file), encoding="utf-8")
    return plain + traced, metrics, detail, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads(), "all"])
    parser.add_argument("--seed", type=int, default=1, help="base seed; 1 reproduces the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--toy", action="store_true", help="toy-size units (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cvoa" / "__init__.py").is_file():
        print(f"error: no cvoa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    chosen = workloads(args.toy)
    names = list(chosen) if args.workload == "all" else [args.workload]
    return max(run_workload(chosen[name], args) for name in names)


def run_workload(workload: Workload, args: argparse.Namespace) -> int:
    """Measure one workload, print its report and JSON line; return the exit status."""
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": workload.name,
        "base_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_before": os.getloadavg(),
    }
    bench = Bench(workload, args.seed, args.seconds, run_dir)
    try:
        units, metrics, detail, problems = measure(bench, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = PER_LAYER if args.trace else END_TO_END
    record["loadavg_after"] = os.getloadavg()
    record["cvoa_version"] = bench.cvoa_version

    attempted = workload.pandemics_per_unit * len(units)
    failed = sum(min(u.failed, workload.pandemics_per_unit) for u in units)
    detail["ops_failed_share"] = failed / attempted
    problems = [p for u in units for p in u.problems] + problems
    correct = not problems and failed == 0
    (run_dir / "record.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "detail": detail, "problems": problems}, indent=2),
        encoding="utf-8",
    )
    print("record " + json.dumps(record))
    print_metrics(workload.name, detail)
    print_metrics(workload.name, metrics)
    for problem in problems:
        print(f"FAILED {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
