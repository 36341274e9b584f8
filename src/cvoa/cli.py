"""Command-line front end: configured runs and length sweeps.

`run` executes one or more seeded pandemics from a JSON config and writes
per-run iteration traces (CSV), the best genotype found, and a summary with
per-run records and aggregate statistics. `sweep` repeats the benchmark
across several bit lengths and tabulates mean iterations-to-optimum and
the evaluated fraction of each search space.

Exit status: 0 on success, 1 when a fitness evaluation fails (the partial
iteration trace is still flushed), 2 for config or usage errors (an
unusable output directory among them), all found before the first run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from random import Random
from typing import NamedTuple

from .binary import BinaryCodec
from .codec import Codec, EvaluationError
from .multistrain import MultiStrainConfig, PandemicResult, PzStrategy, run_pandemic
from .params import EpidemicParameters, Objective, ParameterError, validate_parameters

CSV_HEADER = ("Iteration", "Deaths", "Recovered", "Infected", "Fitness")

# hidden-target derivation for "random" surrogate targets (Knuth multiplier)
_TARGET_SEED_MIX = 2654435761


class ConfigError(ValueError):
    """The run configuration is unreadable or violates its contract."""


class RunConfig(NamedTuple):
    codec_spec: dict
    parameters: EpidemicParameters
    pz_strategy: PzStrategy
    repeat: int
    out: Path


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_parameters(raw: dict) -> EpidemicParameters:
    """Each field must have the type of its default; a bool is no number."""
    _require(isinstance(raw, dict), "parameters must be an object")
    unknown = sorted(set(raw) - set(EpidemicParameters._fields))
    _require(not unknown, f"unknown parameter field(s): {', '.join(unknown)}")
    defaults = EpidemicParameters()
    values = dict(raw)
    for name, value in raw.items():
        default = getattr(defaults, name)
        if isinstance(default, Objective):
            try:
                values[name] = Objective(value)
            except ValueError:
                raise ConfigError(f"objective must be minimize or maximize, got {value!r}")
        elif isinstance(default, tuple):
            _require(
                isinstance(value, list) and len(value) == 2 and all(map(_is_int, value)),
                f"{name} must be a [low, high] pair of integers, got {value!r}",
            )
            values[name] = tuple(value)
        elif isinstance(default, float):
            _require(
                _is_int(value) or isinstance(value, float),
                f"{name} must be a number, got {value!r}",
            )
        else:
            _require(_is_int(value), f"{name} must be an integer, got {value!r}")
    params = defaults._replace(**values)
    try:
        validate_parameters(params)
    except ParameterError as exc:
        raise ConfigError(str(exc))
    return params


def _parse_codec_spec(raw: dict) -> dict:
    _require(isinstance(raw, dict), "codec must be an object")
    kind = raw.get("kind")
    _require(kind in ("binary", "nn"), f"codec.kind must be binary or nn, got {kind!r}")
    if kind == "binary":
        allowed = {"kind", "bits", "target"}
        for name in ("bits", "target"):
            if name in raw:
                _require(_is_int(raw[name]), f"codec.{name} must be an integer, got {raw[name]!r}")
    else:
        allowed = {"kind", "surrogate_target", "evaluator"}
        has_target = "surrogate_target" in raw
        has_evaluator = "evaluator" in raw
        _require(
            has_target != has_evaluator,
            "nn codec needs exactly one of surrogate_target / evaluator",
        )
        # build_codec checks an evaluator command, by ExternalEvaluator's rule
        if has_target:
            target = raw["surrogate_target"]
            _require(
                isinstance(target, str),
                f"codec.surrogate_target must be a string, got {target!r}",
            )
    unknown = sorted(set(raw) - allowed)
    _require(not unknown, f"unknown codec field(s) for kind {kind}: {', '.join(unknown)}")
    return dict(raw)


def load_config(path: Path) -> RunConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    _require(isinstance(raw, dict), "top-level config must be an object")
    allowed = {"codec", "parameters", "pz_strategy", "repeat", "out"}
    unknown = sorted(set(raw) - allowed)
    _require(not unknown, f"unknown config field(s): {', '.join(unknown)}")
    _require("codec" in raw, "config needs a codec section")
    codec_spec = _parse_codec_spec(raw["codec"])
    parameters = _parse_parameters(raw.get("parameters", {}))
    strategy_name = raw.get("pz_strategy", PzStrategy.MAX_HAMMING_SPREAD.value)
    try:
        pz_strategy = PzStrategy(strategy_name)
    except ValueError:
        raise ConfigError(f"pz_strategy must be random or max_hamming_spread, got {strategy_name!r}")
    repeat = raw.get("repeat", 1)
    _require(_is_int(repeat) and repeat >= 1, f"repeat must be an integer >= 1, got {repeat!r}")
    out = raw.get("out", "out")
    _require(isinstance(out, str), f"out must be a path string, got {out!r}")
    return RunConfig(
        codec_spec=codec_spec,
        parameters=parameters,
        pz_strategy=pz_strategy,
        repeat=repeat,
        out=Path(out),
    )


def build_codec(spec: dict, seed: int) -> Codec:
    """Instantiate the configured codec; `seed` pins a "random" surrogate target."""
    if spec["kind"] == "binary":
        try:
            return BinaryCodec(**{name: value for name, value in spec.items() if name != "kind"})
        except ValueError as exc:
            raise ConfigError(str(exc))
    # loaded here, not at import, so a binary run never loads the nn codec
    from .nn import ExternalEvaluator, NetCodec, generate_net_patient_zero, parse_net_text

    if "evaluator" in spec:
        try:
            evaluator = ExternalEvaluator(spec["evaluator"])
        except ValueError as exc:
            raise ConfigError(f"codec.evaluator: {exc}")
        return NetCodec(evaluator=evaluator)
    target_text = spec["surrogate_target"]
    if target_text == "random":
        target = generate_net_patient_zero(Random((seed * _TARGET_SEED_MIX) % 2**64))
    else:
        try:
            target = parse_net_text(target_text)
        except ValueError as exc:
            raise ConfigError(str(exc))
    return NetCodec(target=target)


def _require_room(codec: Codec, strains: int) -> None:
    # each strain starts from its own patient zero
    size = codec.search_space_size()
    _require(strains <= size, f"strains={strains} exceed the codec's {size} genotypes")


def write_iterations_csv(path: Path, result: PandemicResult) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for record in result.history:
            writer.writerow(
                (
                    record.iteration,
                    record.deaths_total,
                    record.recovered_total,
                    record.infected_count,
                    record.best_fitness,
                )
            )


def iterations_to_optimum(result: PandemicResult, codec: Codec, objective: Objective) -> int | None:
    """Merged-trace iteration at which the codec's known optimum was reached.

    0 when a patient zero was already optimal; None when the optimum is
    unknown or was never reached. A codec's known optimum is its minimum,
    so a maximize run (like an external evaluator) has none.
    """
    optimum = getattr(codec, "optimum_fitness", lambda: None)()
    if optimum is None or objective is not Objective.MINIMIZE:
        return None
    if result.initial_best is not None and result.initial_best <= optimum:
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
        "best_fitness": result.best.fitness if result.best is not None else None,
        "evaluations_total": result.evaluations_total,
        "termination": result.termination.value if result.termination is not None else None,
    }


def aggregate_summaries(runs: list[dict], space_size: int) -> dict:
    # loaded here, not at import: nothing before the last run needs it
    import statistics

    reached = [r["iterations_to_optimum"] for r in runs if r["iterations_to_optimum"] is not None]
    fractions = [r["evaluations_total"] / space_size for r in runs]
    return {
        "mean_iterations_to_optimum": statistics.mean(reached) if reached else None,
        "median_iterations_to_optimum": statistics.median(reached) if reached else None,
        "success_rate": len(reached) / len(runs) if runs else 0.0,
        "mean_evaluated_fraction": statistics.mean(fractions) if fractions else None,
    }


def _repeat_configs(config: RunConfig) -> list[MultiStrainConfig]:
    """One pandemic config per repeat (seeds seed, seed + 1, ...), built
    before the first run, so that any strain's seed outside [0, 2**64)
    is a ConfigError before any output."""
    params = config.parameters
    try:
        return [
            MultiStrainConfig.uniform(params.with_seed(params.seed + r), config.pz_strategy)
            for r in range(config.repeat)
        ]
    except ParameterError as exc:
        raise ConfigError(
            f"seed {params.seed} with repeat={config.repeat} and strains={params.strains}: {exc}"
        )


def _make_out_dir(out: Path) -> None:
    """Called after the config checks, before the first run."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")


def cmd_run(config: RunConfig) -> int:
    """Run every repeat; the first failed evaluation ends the campaign
    with status 1, after the summary of the runs that finished."""
    params = config.parameters
    codec = build_codec(config.codec_spec, params.seed)
    _require_room(codec, params.strains)
    pandemics = _repeat_configs(config)
    run_dirs = [config.out / f"run_{pandemic.parameters[0].seed}" for pandemic in pandemics]
    _make_out_dir(config.out)
    for run_dir in run_dirs:
        _require(
            run_dir.is_dir() or not os.path.lexists(run_dir),
            f"cannot create run directory {run_dir}: a file is in its place",
        )
    runs: list[dict] = []
    status = 0
    for pandemic, run_dir in zip(pandemics, run_dirs):
        seed = pandemic.parameters[0].seed
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = run_pandemic(pandemic, codec)
        except EvaluationError as exc:
            if isinstance(exc.partial, PandemicResult):
                write_iterations_csv(run_dir / "iterations.csv", exc.partial)
            print(f"error: evaluation failed in run seed={seed}: {exc}", file=sys.stderr)
            status = 1
            break
        write_iterations_csv(run_dir / "iterations.csv", result)
        if result.best is not None:
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
    _require(config.codec_spec["kind"] == "binary", "sweep requires a binary codec config")
    params = config.parameters
    _require(
        params.objective is Objective.MINIMIZE,
        "sweep requires objective minimize: it stops each run at the codec's minimum",
    )
    pandemics = _repeat_configs(config)
    # every length is checked before the first run, so a bad one writes nothing
    codecs: list[BinaryCodec] = []
    for length in lengths:
        try:
            codec = build_codec({**config.codec_spec, "bits": length}, params.seed)
            _require_room(codec, params.strains)
        except ConfigError as exc:
            raise ConfigError(f"length {length}: {exc}")
        codecs.append(codec)
    _make_out_dir(config.out)
    rows: list[tuple[int, float | None, float]] = []
    for length, codec in zip(lengths, codecs):
        optimum = codec.optimum_fitness()
        runs: list[dict] = []
        for pandemic in pandemics:
            result = run_pandemic(pandemic, codec, stop_fitness=optimum)
            runs.append(run_summary(pandemic.parameters[0].seed, result, codec, params.objective))
        aggregates = aggregate_summaries(runs, codec.search_space_size())
        rows.append(
            (length, aggregates["mean_iterations_to_optimum"], aggregates["mean_evaluated_fraction"])
        )
        print(
            f"length {length}: mean_iterations_to_optimum={rows[-1][1]} "
            f"mean_evaluated_fraction={rows[-1][2]}"
        )
    sweep_path = config.out / "sweep.csv"
    with sweep_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("Length", "MeanIterationsToOptimum", "MeanEvaluatedFraction"))
        writer.writerows(rows)
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
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute seeded pandemics from a config")
    run.add_argument("--config", required=True, type=Path, help="JSON run configuration")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--out", type=Path, default=None, help="override the output directory")

    sweep = sub.add_parser("sweep", help="benchmark several bit lengths")
    sweep.add_argument("--config", required=True, type=Path, help="JSON run configuration")
    sweep.add_argument("--lengths", required=True, help="comma-separated bit lengths")
    sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    sweep.add_argument("--out", type=Path, default=None, help="override the output directory")

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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
