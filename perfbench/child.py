"""One benchmark unit: a single cvoa command run in-process in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC.json holds the source tree to import cvoa from, the cvoa argv, the
mode and the path of the result file. Modes:

  probe  stop at the first run_pandemic call; measures set-up only
  run    run the command and time every pandemic
  trace  as run, with timing wrappers at every layer boundary

Wrappers replace module and class attributes of cvoa from outside; no cvoa
source is changed. The result file is written whatever cvoa returns; the
parent process judges the outcome.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import threading
import time
from itertools import count
from pathlib import Path


class SetupDone(Exception):
    """Raised by the probe wrapper to stop a unit at its first pandemic."""


class ThreadTable:
    """Per-thread span stack and aggregate rows, so no row is shared between threads."""

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.stack: list[list] = []
        # (name, pandemic) -> [calls, self wall, self busy, items]
        self.rows: dict[tuple[str, int], list] = {}

    def add(self, name: str, pandemic: int, items: int = 1) -> None:
        row = self.rows.get((name, pandemic))
        if row is None:
            row = self.rows[(name, pandemic)] = [0, 0.0, 0.0, 0]
        row[3] += items


class Tracer:
    """Spans at layer boundaries, kept in memory and written out at the end.

    Coarse spans (pandemic, strain, command, seeding, merging, CSV writing)
    are kept one record each: name, start, end, thread, parent span and
    pandemic id. Per-candidate spans run millions of times, so they are
    aggregated per thread, name and pandemic into call counts and self
    times: busy is thread CPU time, wait is span wall time minus busy,
    both net of child spans.
    """

    def __init__(self) -> None:
        self.local = threading.local()
        self.tables: list[ThreadTable] = []
        self.spans: list[tuple] = []
        self.span_ids = count(1)
        self.pandemic = 0
        self.pandemic_span = 0
        self.round_trips: list[float] = []

    def table(self) -> ThreadTable:
        try:
            return self.local.table
        except AttributeError:
            table = self.local.table = ThreadTable()
            self.tables.append(table)
            return table

    def wrap(self, name, fn, *, keep=False, tally=None, opens_pandemic=False):
        """Time fn as span `name`; keep=True records the span itself, not just
        its aggregate; opens_pandemic=True starts a new pandemic id."""
        tracer = self
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            table = tracer.table()
            stack = table.stack
            span_id = 0
            if keep:
                span_id = next(tracer.span_ids)
                parent = next((f[2] for f in reversed(stack) if f[2]), tracer.pandemic_span)
            if opens_pandemic:
                tracer.pandemic += 1
                tracer.pandemic_span = span_id
            pandemic = tracer.pandemic
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            w0 = perf_counter()
            b0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                b1 = thread_time()
                w1 = perf_counter()
                stack.pop()
                wall = w1 - w0
                busy = b1 - b0
                row = table.rows.get((name, pandemic))
                if row is None:
                    row = table.rows[(name, pandemic)] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += wall - frame[0]
                row[2] += busy - frame[1]
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += busy
                if keep:
                    tracer.spans.append((span_id, name, w0, w1, table.thread, parent, pandemic))
            if tally is not None:
                tally(table, pandemic, args, result)
            return result

        return traced

    def dump(self) -> dict:
        rows = [
            [name, pandemic, table.thread, *row]
            for table in self.tables
            for (name, pandemic), row in table.rows.items()
        ]
        return {
            "span_fields": ["id", "name", "start", "end", "thread", "parent", "pandemic"],
            "spans": self.spans,
            "row_fields": ["name", "pandemic", "thread", "calls", "wall_s", "busy_s", "items"],
            "rows": rows,
            "round_trip_s": self.round_trips,
        }


class TimedSubprocess:
    """Stands in for the subprocess module inside cvoa.nn to time evaluator round trips."""

    TimeoutExpired = subprocess.TimeoutExpired

    def __init__(self, samples: list[float]) -> None:
        self.samples = samples

    def run(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return subprocess.run(*args, **kwargs)
        finally:
            self.samples.append(time.perf_counter() - started)


def pandemic_record(config, codec, result, seconds: float) -> dict:
    best = result.best
    evaluator = getattr(codec, "evaluator", None)
    return {
        "seed": config.parameters[0].seed,
        "bits": getattr(codec, "bits", None),
        "seconds": seconds,
        "evaluations": result.evaluations_total,
        "space": codec.search_space_size(),
        "optimum": getattr(codec, "optimum_fitness", lambda: None)(),
        "best": codec.text(best.genotype) if best is not None else None,
        "best_fitness": best.fitness if best is not None else None,
        "initial_best": result.initial_best,
        "fitness_trace": [row.best_fitness for row in result.history],
        "infected_peak": max((row.infected_count for row in result.history), default=0),
        "evaluator_id": id(evaluator) if evaluator is not None else None,
        "evaluator_invocations": evaluator.invocations if evaluator is not None else None,
    }


def install_tracing(tracer: Tracer, cvoa) -> None:
    engine, multistrain, binary, nn, cli = cvoa.engine, cvoa.multistrain, cvoa.binary, cvoa.nn, cvoa.cli
    wrap = tracer.wrap

    def tally_disposition(table, pandemic, args, result):
        table.add("engine.disposition." + result.name.lower(), pandemic)

    def tally_sorted(table, pandemic, args, result):
        table.add("engine.sorted", pandemic, len(result))

    def tally_travel(name):
        def tally(table, pandemic, args, result):
            if args[2] is cvoa.DistanceMode.TRAVELER:
                table.add(name + ".traveler", pandemic)
        return tally

    engine.SharedLedger.evaluate = wrap("engine.evaluate", engine.SharedLedger.evaluate)
    engine.new_infection = wrap("engine.new_infection", engine.new_infection, tally=tally_disposition)
    engine.infect = wrap("engine.infect", engine.infect)
    engine.die = wrap("engine.die", engine.die)
    # a module global shadows the builtin for every sorted() call inside cvoa.engine
    engine.sorted = wrap("engine.sorted", sorted, tally=tally_sorted)
    multistrain.run_strain = wrap("engine.run_strain", multistrain.run_strain, keep=True)
    multistrain.seed_patient_zeros = wrap(
        "multistrain.seed_patient_zeros", multistrain.seed_patient_zeros, keep=True
    )
    multistrain._merge_histories = wrap(
        "multistrain._merge_histories", multistrain._merge_histories, keep=True
    )
    binary.BinaryCodec.replicate = wrap(
        "binary.replicate", binary.BinaryCodec.replicate, tally=tally_travel("binary.replicate")
    )
    binary.BinaryCodec.fitness = wrap("binary.fitness", binary.BinaryCodec.fitness)
    binary.BitGenotype.__post_init__ = wrap("binary.BitGenotype.validate", binary.BitGenotype.__post_init__)
    nn.NetCodec.replicate = wrap(
        "nn.replicate", nn.NetCodec.replicate, tally=tally_travel("nn.replicate")
    )
    nn.NetCodec.fitness = wrap("nn.fitness", nn.NetCodec.fitness)
    nn.NetGenotype.__post_init__ = wrap("nn.NetGenotype.validate", nn.NetGenotype.__post_init__)
    original_evaluator_fitness = nn.ExternalEvaluator.fitness

    def counted_evaluator_fitness(self, genotype):
        tracer.table().add("nn.evaluator.fitness", tracer.pandemic)
        return original_evaluator_fitness(self, genotype)

    nn.ExternalEvaluator.fitness = counted_evaluator_fitness
    nn.subprocess = TimedSubprocess(tracer.round_trips)
    cli.write_iterations_csv = wrap("cli.write_iterations_csv", cli.write_iterations_csv, keep=True)


def run(spec: dict) -> dict:
    mode = spec["mode"]
    sys.path.insert(0, spec["src"])
    import cvoa
    import cvoa.cli

    pandemics: list[dict] = []
    first_pandemic: list[float] = []
    tracer = Tracer() if mode == "trace" else None
    real_run_pandemic = cvoa.cli.run_pandemic
    main = cvoa.cli.main
    if tracer is not None:
        install_tracing(tracer, cvoa)
        real_run_pandemic = tracer.wrap(
            "multistrain.run_pandemic", real_run_pandemic, keep=True, opens_pandemic=True
        )
        main = tracer.wrap("cli.main", main, keep=True)

    def timed_run_pandemic(config, codec, **kwargs):
        if not first_pandemic:
            first_pandemic.append(time.monotonic())
        if mode == "probe":
            raise SetupDone()
        started = time.perf_counter()
        result = real_run_pandemic(config, codec, **kwargs)
        pandemics.append(pandemic_record(config, codec, result, time.perf_counter() - started))
        return result

    cvoa.cli.run_pandemic = timed_run_pandemic
    returncode = None
    try:
        returncode = main(spec["argv"])
    except SetupDone:
        pass
    ended = time.monotonic()
    document = {
        "returncode": returncode,
        "cvoa_version": cvoa.__version__,
        "first_pandemic": first_pandemic[0] if first_pandemic else None,
        "ended": ended,
        "pandemics": pandemics,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "process_cpu_s": time.process_time(),
        "bytes_written": sum(f.stat().st_size for f in Path(spec["out"]).rglob("*") if f.is_file()),
    }
    if tracer is not None:
        document["trace"] = tracer.dump()
    return document


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    document = run(spec)
    Path(spec["result"]).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
