"""Command-line front end: configured runs and length sweeps.

`run` executes one or more seeded pandemics from a JSON config and writes
per-run iteration traces (CSV), the best genotype found, and a summary with
per-run records and aggregate statistics. `sweep` repeats the benchmark
across several bit lengths and tabulates mean iterations-to-optimum and
the evaluated fraction of each search space.

Exit status: 0 on success, 1 when a fitness evaluation fails (the partial
iteration trace is still flushed), 2 for config or usage errors, all found
before the first run. After the config and its codec are read, both
commands make the same checks in one order: every strain's seed over the
repeats, room for each strain's patient zero in each codec (a sweep names
the length), the output directory, `run`'s run directories, and no
directory where an output file goes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain
from pathlib import Path
from random import Random
from typing import Any, Iterable, NamedTuple

from .binary import BinaryCodec
from .codec import Codec, EvaluationError
from .multistrain import MultiStrainConfig, PandemicResult, PzStrategy, run_pandemic
from .params import EpidemicParameters, Objective, ParameterError, is_integer

CSV_HEADER = ("Iteration", "Deaths", "Recovered", "Infected", "Fitness")

# hidden-target derivation for "random" surrogate targets (Knuth multiplier)
_TARGET_SEED_MIX = 2654435761


class ConfigError(ValueError):
    """The run configuration is unreadable or violates its contract."""


class RunConfig(NamedTuple):
    codec_spec: Any  # the config's codec section as given; build_codec checks it
    parameters: EpidemicParameters
    pz_strategy: PzStrategy
    repeat: int
    out: Path


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _parse_parameters(raw: dict) -> EpidemicParameters:
    """Converts JSON to the record's types (a list to a tuple, a name to an
    Objective); EpidemicParameters checks the fields."""
    _require(isinstance(raw, dict), "parameters must be an object")
    unknown = sorted(set(raw) - set(EpidemicParameters._fields))
    _require(not unknown, f"unknown parameter field(s): {', '.join(unknown)}")
    values = {name: tuple(value) if isinstance(value, list) else value for name, value in raw.items()}
    if "objective" in values:
        try:
            values["objective"] = Objective(values["objective"])
        except ValueError:
            raise ConfigError(f"objective must be minimize or maximize, got {raw['objective']!r}")
    return EpidemicParameters(**values)


def load_config(path: Path) -> RunConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    _require(isinstance(raw, dict), "top-level config must be an object")
    allowed = {"codec", "parameters", "pz_strategy", "repeat", "out"}
    unknown = sorted(set(raw) - allowed)
    _require(not unknown, f"unknown config field(s): {', '.join(unknown)}")
    _require("codec" in raw, "config needs a codec section")
    parameters = _parse_parameters(raw.get("parameters", {}))
    strategy_name = raw.get("pz_strategy", MultiStrainConfig._field_defaults["pz_strategy"].value)
    try:
        pz_strategy = PzStrategy(strategy_name)
    except ValueError:
        raise ConfigError(f"pz_strategy must be random or max_hamming_spread, got {strategy_name!r}")
    repeat = raw.get("repeat", 1)
    _require(is_integer(repeat) and repeat >= 1, f"repeat must be an integer >= 1, got {repeat!r}")
    out = raw.get("out", "out")
    _require(isinstance(out, str), f"out must be a path string, got {out!r}")
    return RunConfig(
        codec_spec=raw["codec"],
        parameters=parameters,
        pz_strategy=pz_strategy,
        repeat=repeat,
        out=Path(out),
    )


def build_codec(spec: Any, seed: int) -> Codec:
    """Check the config's codec section and instantiate its codec; `seed`
    pins a "random" surrogate target. The one reader of the section: a
    malformed one, from a config or passed here directly, is a ConfigError.
    """
    _require(isinstance(spec, dict), "codec must be an object")
    kind = spec.get("kind")
    _require(kind in ("binary", "nn"), f"codec.kind must be binary or nn, got {kind!r}")
    fields = {name: value for name, value in spec.items() if name != "kind"}
    allowed = BinaryCodec._fields if kind == "binary" else ("surrogate_target", "evaluator")
    unknown = sorted(str(name) for name in fields if name not in allowed)
    _require(not unknown, f"unknown codec field(s) for kind {kind}: {', '.join(unknown)}")
    if kind == "binary":
        try:
            return BinaryCodec(**fields)
        except ValueError as exc:
            raise ConfigError(str(exc))
    _require(len(fields) == 1, "nn codec needs exactly one of surrogate_target / evaluator")
    # loaded here, not at import, so a binary run never loads the nn codec
    from .nn import ExternalEvaluator, ExternalNetCodec, NetCodec, parse_net_text

    if "evaluator" in fields:
        try:
            evaluator = ExternalEvaluator(fields["evaluator"])
        except ValueError as exc:
            raise ConfigError(f"codec.evaluator: {exc}")
        return ExternalNetCodec(evaluator)
    target_text = fields["surrogate_target"]
    _require(
        isinstance(target_text, str),
        f"codec.surrogate_target must be a string, got {target_text!r}",
    )
    if target_text == "random":
        target = NetCodec.generate_patient_zero(Random((seed * _TARGET_SEED_MIX) % 2**64))
    else:
        try:
            target = parse_net_text(target_text)
        except ValueError as exc:
            raise ConfigError(f"codec.surrogate_target: {exc}")
    return NetCodec(target=target)


def _write_csv(path: Path, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_iterations_csv(path: Path, result: PandemicResult) -> None:
    _write_csv(
        path,
        CSV_HEADER,
        (
            (r.iteration, r.deaths_total, r.recovered_total, r.infected_count, r.best_fitness)
            for r in result.history
        ),
    )


def iterations_to_optimum(result: PandemicResult, codec: Codec, objective: Objective) -> int | None:
    """Merged-trace iteration at which the codec's known optimum was reached.

    0 when a patient zero was already optimal; None when the optimum is
    unknown or was never reached. A codec's known optimum is its minimum,
    so a maximize run (like an external evaluator) has none.
    """
    optimum = codec.optimum_fitness()
    if optimum is None or objective is not Objective.MINIMIZE:
        return None
    if result.initial_best <= optimum:
        return 0
    for record in result.history:
        if record.best_fitness <= optimum:
            return record.iteration
    return None


def run_summary(
    seed: int, result: PandemicResult, codec: Codec, objective: Objective
) -> dict:
    return {
        "seed": seed,
        "iterations_to_optimum": iterations_to_optimum(result, codec, objective),
        "best_fitness": result.best.fitness,
        "evaluations_total": result.evaluations_total,
        "termination": result.termination.value,
    }


def aggregate_summaries(runs: list[dict], space_size: int) -> dict:
    # loaded here, not at import: nothing before the last run needs it
    import statistics

    reached = [r["iterations_to_optimum"] for r in runs if r["iterations_to_optimum"] is not None]
    fractions = [r["evaluations_total"] / space_size for r in runs]
    return {
        # always floats: mean and median return an int when exact
        "mean_iterations_to_optimum": float(statistics.mean(reached)) if reached else None,
        "median_iterations_to_optimum": float(statistics.median(reached)) if reached else None,
        "success_rate": len(reached) / len(runs),
        "mean_evaluated_fraction": statistics.mean(fractions),
    }


def _checked_plan(config: RunConfig, codec: Codec, lengths: list[int] | None = None) -> list[Codec]:
    """Every check that `run` (no `lengths`) and `sweep` make before their
    first run, in one order: each strain's seed over the repeats; room for a
    patient zero per strain in each codec, the configured one or one per
    length (`length N: ` before the message); the output directory; for
    `run`, each run directory; each output file. Returns the codecs to run;
    each run builds its own pandemic config when it starts."""
    params = config.parameters
    seeds = range(params.seed, params.seed + config.repeat)
    try:
        # seeds grow with the repeat and the strain, so these two bound every seed
        for seed in (seeds[0], seeds[-1]):
            MultiStrainConfig.uniform(params.with_seed(seed), config.pz_strategy)
    except ParameterError as exc:
        raise ConfigError(
            f"seed {params.seed} with repeat={config.repeat} and strains={params.strains}: {exc}"
        )
    codecs: list[Codec] = []
    for length in lengths or [None]:
        label = "" if length is None else f"length {length}: "
        try:
            sized = codec if length is None else codec._replace(bits=length)
            size = sized.search_space_size()  # each strain starts from its own patient zero
            _require(
                params.strains <= size, f"strains={params.strains} exceed the codec's {size} genotypes"
            )
        except ValueError as exc:
            raise ConfigError(f"{label}{exc}")
        codecs.append(sized)
    try:
        config.out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot create output directory {config.out}: {exc}")
    if lengths is None:
        for seed in seeds:
            run_dir = config.out / f"run_{seed}"
            _require(
                run_dir.is_dir() or not os.path.lexists(run_dir),
                f"cannot create run directory {run_dir}: a file is in its place",
            )
        names = ("iterations.csv", "best.txt")
        files = chain(
            (config.out / f"run_{seed}" / name for seed in seeds for name in names),
            [config.out / "summary.json"],
        )
    else:
        files = [config.out / "sweep.csv"]
    for path in files:
        _require(not path.is_dir(), f"cannot write {path}: a directory is in its place")
    return codecs


def cmd_run(config: RunConfig) -> int:
    """Run every repeat; the first failed evaluation ends the campaign
    with status 1, after the summary of the runs that finished."""
    params = config.parameters
    codec = build_codec(config.codec_spec, params.seed)
    _checked_plan(config, codec)
    runs: list[dict] = []
    status = 0
    for seed in range(params.seed, params.seed + config.repeat):
        pandemic = MultiStrainConfig.uniform(params.with_seed(seed), config.pz_strategy)
        run_dir = config.out / f"run_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = run_pandemic(pandemic, codec)
        except EvaluationError as exc:
            write_iterations_csv(run_dir / "iterations.csv", exc.partial)
            print(f"error: evaluation failed in run seed={seed}: {exc}", file=sys.stderr)
            status = 1
            break
        write_iterations_csv(run_dir / "iterations.csv", result)
        (run_dir / "best.txt").write_text(codec.text(result.best.genotype) + "\n", encoding="utf-8")
        summary = run_summary(seed, result, codec, params.objective)
        runs.append(summary)
        print(
            f"run seed={seed}: best_fitness={summary['best_fitness']} "
            f"iterations_to_optimum={summary['iterations_to_optimum']} "
            f"termination={summary['termination']}"
        )
    if not runs:
        return status
    document = {
        "codec": config.codec_spec["kind"],
        "search_space_size": codec.search_space_size(),
        "runs": runs,
        "aggregates": aggregate_summaries(runs, codec.search_space_size()),
    }
    summary_path = config.out / "summary.json"
    summary_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {summary_path}")
    return status


def cmd_sweep(config: RunConfig, lengths: list[int]) -> int:
    params = config.parameters
    configured = build_codec(config.codec_spec, params.seed)
    _require(isinstance(configured, BinaryCodec), "sweep requires a binary codec config")
    _require(
        params.objective is Objective.MINIMIZE,
        "sweep requires objective minimize: it stops each run at the codec's minimum",
    )
    codecs = _checked_plan(config, configured, lengths)
    rows: list[tuple[int, float | None, float]] = []
    for length, codec in zip(lengths, codecs):
        optimum = codec.optimum_fitness()
        runs: list[dict] = []
        for seed in range(params.seed, params.seed + config.repeat):
            pandemic = MultiStrainConfig.uniform(params.with_seed(seed), config.pz_strategy)
            result = run_pandemic(pandemic, codec, stop_fitness=optimum)
            runs.append(run_summary(seed, result, codec, params.objective))
        aggregates = aggregate_summaries(runs, codec.search_space_size())
        rows.append(
            (length, aggregates["mean_iterations_to_optimum"], aggregates["mean_evaluated_fraction"])
        )
        print(
            f"length {length}: mean_iterations_to_optimum={rows[-1][1]} "
            f"mean_evaluated_fraction={rows[-1][2]}"
        )
    sweep_path = config.out / "sweep.csv"
    _write_csv(sweep_path, ("Length", "MeanIterationsToOptimum", "MeanEvaluatedFraction"), rows)
    print(f"wrote {sweep_path}")
    return 0


def _parse_lengths(text: str) -> list[int]:
    try:
        lengths = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"lengths must be comma-separated integers, got {text!r}")
    _require(bool(lengths), "lengths list is empty")
    return lengths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvoa", description="Epidemic-propagation optimizer runner"
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, type=Path, help="JSON run configuration")
    shared.add_argument("--seed", type=int, default=None, help="override the base seed")
    shared.add_argument("--out", type=Path, default=None, help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[shared], help="execute seeded pandemics from a config")
    sweep = sub.add_parser("sweep", parents=[shared], help="benchmark several bit lengths")
    sweep.add_argument("--lengths", required=True, help="comma-separated bit lengths")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config._replace(parameters=config.parameters.with_seed(args.seed))
        if args.out is not None:
            config = config._replace(out=args.out)
        if args.command == "run":
            return cmd_run(config)
        lengths = _parse_lengths(args.lengths)
        return cmd_sweep(config, lengths)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
