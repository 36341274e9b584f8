"""Command-line behavior: artifacts, determinism, exit codes."""

import hashlib
import json
import re
import shlex
import statistics
import sys
from pathlib import Path

import pytest

import cvoa.cli
from cvoa import (
    BinaryCodec,
    EpidemicParameters,
    EvaluationError,
    ExternalEvaluator,
    MultiStrainConfig,
    NetGenotype,
    Objective,
    PandemicResult,
    PzStrategy,
    Termination,
)
from cvoa.cli import iterations_to_optimum, load_config, main
from conftest import FAILING_REPLIES, evaluator_script, python, run_nn

BINARY_CONFIG = {
    "codec": {"kind": "binary", "bits": 10, "target": 15},
    "parameters": {"seed": 1, "strains": 5},
}


def write_config(tmp_path, overrides=None, **top_level):
    config = json.loads(json.dumps(BINARY_CONFIG))
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, dict):
                config.setdefault(key, {}).update(value)
            else:
                config[key] = value
    config.update(top_level)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def usage_error(capsys, argv):
    """The one stderr line of a command that exits 2 with nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return line


def assert_config_error(capsys, path, argv, text):
    """The CLI's contract for a config error: status 2, nothing on stdout,
    one stderr line that starts `error: ` and contains `text`, and no
    output directory (`out` beside the config file)."""
    out = path.parent / "out"
    line = usage_error(capsys, [*argv, "--config", str(path), "--out", str(out)])
    assert line.startswith("error: ") and text in line, line
    assert not out.exists()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "name, content",
        [("nope.json", None), ("latin-1.json", b'{"out": "caf\xe9"}'), ("a\0b.json", None)],
        ids=["missing", "not-utf-8", "nul-in-path"],
    )
    def test_missing_file(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert_config_error(capsys, path, ["run"], "cannot read config")

    @pytest.mark.parametrize("text", ["{not json", "[" * 200_000], ids=["not-json", "deep-nesting"])
    def test_invalid_json(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        assert_config_error(capsys, path, ["run"], "not valid JSON")

    def test_unknown_top_level_key(self, tmp_path, capsys):
        assert_config_error(capsys, write_config(tmp_path, {"bogus": 1}), ["run"], "bogus")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"parameters": {"p_travel": 1.5}}, "p_travel out of [0,1]"),
            ({"parameters": {"p_die": "x"}}, "p_die"),
            ({"parameters": {"p_die": True}}, "p_die"),
            ({"parameters": {"ordinary_spread_range": ["a", 2]}}, "ordinary_spread_range"),
            ({"parameters": {"strains": 2.5}}, "strains"),
            ({"parameters": {"pandemic_duration": 2.5}}, "pandemic_duration"),
            ({"codec": {"bits": "ten"}}, "bits"),
            ({"codec": {"bits": 10.5}}, "bits must be an integer, got 10.5"),
            ({"codec": {"target": 15.5}}, "target"),
            ({"codec": {"bogus": 1}}, "unknown codec field(s) for kind binary: bogus"),
            ({"repeat": True}, "repeat"),
            ({"out": 5}, "out"),
            ({"parameters": {"objective": "sideways"}}, "objective must be minimize or maximize"),
            ({"pz_strategy": "spread"}, "pz_strategy must be random or max_hamming_spread"),
        ],
        ids=[
            "p_travel",
            "p_die-string",
            "p_die-bool",
            "spread-range-string",
            "strains-float",
            "duration-float",
            "bits-string",
            "bits-float",
            "target-float",
            "codec-unknown-field",
            "repeat-bool",
            "out-number",
            "objective-unknown",
            "pz-strategy-unknown",
        ],
    )
    def test_bad_parameter_value(self, tmp_path, capsys, overrides, message):
        assert_config_error(capsys, write_config(tmp_path, overrides), ["run"], message)

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (["run", "--seed", "-1"], {}),
            (["sweep", "--lengths", "10", "--seed", str(2**64)], {}),
            (["run"], {"parameters": {"seed": 2**64 - 1, "strains": 2}}),
            (["run"], {"parameters": {"seed": 2**64 - 2, "strains": 1}, "repeat": 3}),
        ],
        ids=["negative", "sweep-too-large", "strain-fan-out", "repeat"],
    )
    def test_out_of_range_seed_rejected_before_any_run(self, tmp_path, capsys, argv, overrides):
        assert_config_error(capsys, write_config(tmp_path, overrides), argv, "seed")

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--lengths", "8"], ["sweep", "--lengths", "10,8"]],
        ids=["run", "sweep", "sweep-second-length"],
    )
    def test_more_strains_than_genotypes_rejected_before_any_output(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, {"codec": {"bits": 8}, "parameters": {"strains": 300}})
        assert_config_error(capsys, path, argv, "strains=300 exceed the codec's 256 genotypes")

    def test_run_and_sweep_check_in_one_order(self, tmp_path, capsys):
        # a seed fan-out past 2**64 and more strains than genotypes: the seed comes first
        path = write_config(
            tmp_path,
            codec={"kind": "binary", "bits": 8},
            parameters={"seed": 2**64 - 2, "strains": 300},
            repeat=3,
        )
        message = (
            "error: seed 18446744073709551614 with repeat=3 and strains=300: "
            "seed must be a 64-bit unsigned integer, got 18446744073710551617"
        )
        for argv in (["run"], ["sweep", "--lengths", "8"]):
            assert_config_error(capsys, path, argv, message)

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--lengths", "10,12"]], ids=["run", "sweep"])
    @pytest.mark.parametrize(
        "where, by_flag",
        [("file", True), ("file/x", True), ("o\0x", True), ("o\0x", False)],
        ids=["at-a-file", "under-a-file", "nul-in-out", "nul-in-config-out"],
    )
    def test_unusable_out_dir_rejected_before_any_run(self, tmp_path, capsys, argv, where, by_flag):
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / where
        if by_flag:
            path, argv = write_config(tmp_path), [*argv, "--out", str(out)]
        else:
            path = write_config(tmp_path, out=str(out))
        line = usage_error(capsys, [*argv, "--config", str(path)])
        assert line.startswith(f"error: cannot create output directory {out}: ")

    def test_run_directory_blocked_by_a_file_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_2").write_text("", encoding="utf-8")
        path = write_config(tmp_path, {"out": str(out), "repeat": 2})
        line = usage_error(capsys, ["run", "--config", str(path)])
        assert line.startswith(f"error: cannot create run directory {out / 'run_2'}: ")
        assert sorted(p.name for p in out.iterdir()) == ["run_2"]

    def test_middle_run_directory_blocked_by_a_file_rejected_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("run_pandemic called before every run directory was checked")

        monkeypatch.setattr(cvoa.cli, "run_pandemic", no_run)
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_2").write_text("", encoding="utf-8")
        path = write_config(tmp_path, {"out": str(out), "repeat": 3})
        line = usage_error(capsys, ["run", "--config", str(path)])
        assert line.startswith(f"error: cannot create run directory {out / 'run_2'}: ")

    @pytest.mark.parametrize(
        "blocked", ["summary.json", "run_2/iterations.csv", "run_2/best.txt", "sweep.csv"]
    )
    def test_output_file_blocked_by_a_directory_rejected_before_any_run(
        self, tmp_path, capsys, monkeypatch, blocked
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("run_pandemic called before the output paths were checked")

        monkeypatch.setattr(cvoa.cli, "run_pandemic", no_run)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        path = write_config(tmp_path, {"out": str(out), "repeat": 2})
        argv = ["sweep", "--lengths", "10,12"] if blocked == "sweep.csv" else ["run"]
        line = usage_error(capsys, [*argv, "--config", str(path)])
        assert line == f"error: cannot write {out / blocked}: a directory is in its place"

    def test_unknown_parameter_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"parameters": {"p_zombie": 0.1}})
        assert_config_error(capsys, path, ["run"], "p_zombie")

    def test_unknown_codec_kind(self, tmp_path, capsys):
        path = write_config(tmp_path, {"codec": {"kind": "gray"}})
        assert_config_error(capsys, path, ["run"], "gray")

    def test_nn_codec_needs_one_scoring_source(self, tmp_path, capsys):
        path = write_config(tmp_path, codec={"kind": "nn"})
        assert_config_error(capsys, path, ["run"], "exactly one")

    def test_nn_codec_with_both_scoring_sources_rejected(self, tmp_path, capsys):
        # the CLI is the one place that checks this: no nn codec can hold both
        codec = {"kind": "nn", "surrogate_target": "random", "evaluator": "python3"}
        assert_config_error(capsys, write_config(tmp_path, codec=codec), ["run"], "exactly one")

    @pytest.mark.parametrize(
        "spec, name",
        [
            ({"kind": "nn", "surrogate_target": "random"}, "NetCodec"),
            ({"kind": "nn", "evaluator": ["python3"]}, "ExternalNetCodec"),
        ],
        ids=["surrogate", "evaluator"],
    )
    def test_nn_codec_class_follows_the_scoring_source(self, spec, name):
        import cvoa.nn

        assert type(cvoa.cli.build_codec(spec, seed=1)) is getattr(cvoa.nn, name)

    @pytest.mark.parametrize(
        "spec, message",
        [
            (["binary"], "codec must be an object"),
            ({"kind": "gray"}, "codec.kind must be binary or nn, got 'gray'"),
            ({"kind": "binary", "bits": 10, "bogus": 1}, "unknown codec field(s) for kind binary: bogus"),
            ({"kind": "nn"}, "exactly one"),
            ({"kind": "nn", "surrogate_target": "random", "evaluator": "python3"}, "exactly one"),
            ({"kind": "nn", "surrogate_target": 5}, "codec.surrogate_target must be a string, got 5"),
        ],
        ids=["not-an-object", "kind-gray", "binary-unknown-field", "nn-neither", "nn-both", "target-number"],
    )
    def test_build_codec_checks_a_spec_passed_directly(self, spec, message):
        # the one reader of the codec section: no config load runs before it
        with pytest.raises(cvoa.cli.ConfigError) as info:
            cvoa.cli.build_codec(spec, seed=1)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "codec, message",
        [
            ({"kind": "nn", "surrogate_target": 5}, "codec.surrogate_target"),
            ({"kind": "nn", "surrogate_target": None}, "codec.surrogate_target"),
            (
                {"kind": "nn", "surrogate_target": "{6,0,2}{0,0}"},
                "codec.surrogate_target: lr_code 6 out of [0,5]",
            ),
            ({"kind": "nn", "surrogate_target": "{1,2}"}, "codec.surrogate_target: malformed genotype text"),
            ({"kind": "nn", "evaluator": ["python3", 5]}, "codec.evaluator"),
            ({"kind": "nn", "evaluator": []}, "codec.evaluator"),
            ({"kind": "nn", "evaluator": "   "}, "codec.evaluator"),
            ({"kind": "nn", "evaluator": "python3 'unclosed"}, "codec.evaluator"),
            ({"kind": "nn", "evaluator": {"cmd": "python3"}}, "codec.evaluator"),
            ({"kind": "nn", "evaluator": ["python3\0"]}, "codec.evaluator: command words must not contain a NUL"),
        ],
        ids=[
            "target-number",
            "target-null",
            "target-lr-code-out-of-range",
            "target-malformed",
            "evaluator-list-with-number",
            "evaluator-empty-list",
            "evaluator-blank-string",
            "evaluator-unbalanced-quote",
            "evaluator-object",
            "evaluator-nul",
        ],
    )
    def test_nn_codec_field_of_wrong_type(self, tmp_path, capsys, codec, message):
        assert_config_error(capsys, write_config(tmp_path, codec=codec), ["run"], message)

    def test_bad_repeat(self, tmp_path, capsys):
        assert_config_error(capsys, write_config(tmp_path, {"repeat": 0}), ["run"], "repeat")


class TestRunArtifacts:
    def test_artifacts_and_exact_csv_header(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)})
        assert main(["run", "--config", str(path)]) == 0
        csv_path = out / "run_1" / "iterations.csv"
        assert csv_path.exists()
        assert csv_path.read_text().splitlines()[0] == "Iteration,Deaths,Recovered,Infected,Fitness"
        assert (out / "run_1" / "best.txt").exists()
        assert (out / "summary.json").exists()

    def test_best_text_is_genotype_string(self, tmp_path):
        # a config without bits or target gets BinaryCodec's defaults, 10 and 15
        texts = []
        for name, codec in (("set", BINARY_CONFIG["codec"]), ("unset", {"kind": "binary"})):
            out = tmp_path / name
            path = write_config(tmp_path, {"out": str(out)}, codec=codec)
            main(["run", "--config", str(path)])
            text = (out / "run_1" / "best.txt").read_text().strip()
            assert set(text) <= {"0", "1"}
            assert len(text) == 10
            [run] = json.loads((out / "summary.json").read_text())["runs"]
            assert BinaryCodec().fitness(int(text, 2)) == run["best_fitness"]
            texts.append(text)
        assert texts[0] == texts[1]

    def test_repeat_fans_out_run_directories(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out), "repeat": 3})
        assert main(["run", "--config", str(path)]) == 0
        assert sorted(p.name for p in out.glob("run_*")) == ["run_1", "run_2", "run_3"]

    def test_csv_rows_monotone(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)})
        main(["run", "--config", str(path)])
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()[1:]
        deaths = [int(r.split(",")[1]) for r in rows]
        recovered = [int(r.split(",")[2]) for r in rows]
        fitness = [float(r.split(",")[4]) for r in rows]
        assert deaths == sorted(deaths)
        assert recovered == sorted(recovered)
        assert fitness == sorted(fitness, reverse=True)


class TestSummaryDocument:
    def read_summary(self, tmp_path, **extra):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)}, **extra)
        assert main(["run", "--config", str(path)]) == 0
        return json.loads(
            (out / "summary.json").read_text(encoding="utf-8"),
            object_pairs_hook=lambda pairs: {"__order__": [k for k, _ in pairs], **dict(pairs)},
        )

    def test_stable_key_order(self, tmp_path):
        doc = self.read_summary(tmp_path)
        assert doc["__order__"] == ["codec", "search_space_size", "runs", "aggregates"]
        assert doc["runs"][0]["__order__"] == [
            "seed",
            "iterations_to_optimum",
            "best_fitness",
            "evaluations_total",
            "termination",
        ]
        assert doc["aggregates"]["__order__"] == [
            "mean_iterations_to_optimum",
            "median_iterations_to_optimum",
            "success_rate",
            "mean_evaluated_fraction",
        ]

    def test_success_rate_matches_run_records(self, tmp_path):
        doc = self.read_summary(tmp_path, repeat=5)
        runs = doc["runs"]
        reached = sum(r["iterations_to_optimum"] is not None for r in runs)
        assert doc["aggregates"]["success_rate"] == reached / len(runs)

    def test_aggregates_recompute_from_run_records(self, tmp_path):
        # two iterations leave most runs short of the optimum; seed 10 starts on it
        parameters = {"seed": 1, "strains": 5, "pandemic_duration": 2}
        doc = self.read_summary(tmp_path, repeat=10, parameters=parameters)
        runs = doc["runs"]
        reached = [r["iterations_to_optimum"] for r in runs if r["iterations_to_optimum"] is not None]
        assert 0 in reached and 0 < len(reached) < len(runs), reached
        fractions = [r["evaluations_total"] / doc["search_space_size"] for r in runs]
        aggregates = doc["aggregates"]
        assert aggregates["mean_iterations_to_optimum"] == statistics.mean(reached)
        assert aggregates["median_iterations_to_optimum"] == statistics.median(reached)
        assert aggregates["success_rate"] == len(reached) / len(runs)
        assert aggregates["mean_evaluated_fraction"] == statistics.mean(fractions)
        # floats even where exact, here and in sweep.csv, so a strict schema sees one type
        assert type(aggregates["mean_iterations_to_optimum"]) is float
        assert type(aggregates["median_iterations_to_optimum"]) is float
        assert main(["sweep", "--config", str(tmp_path / "config.json"), "--lengths", "10"]) == 0
        [_, row] = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert row.split(",")[1] == repr(aggregates["mean_iterations_to_optimum"])

    def test_evaluated_fraction_in_unit_interval(self, tmp_path):
        doc = self.read_summary(tmp_path, repeat=3)
        for run in doc["runs"]:
            fraction = run["evaluations_total"] / doc["search_space_size"]
            assert 0.0 <= fraction <= 1.0
        assert 0.0 <= doc["aggregates"]["mean_evaluated_fraction"] <= 1.0


FIVE_STRAINS = {"codec": {"kind": "binary", "bits": 10}, "parameters": {"seed": 1, "strains": 5}}
ONE_STRAIN = {"codec": {"kind": "binary", "bits": 20}, "parameters": {"seed": 7, "strains": 1}}
NN_SURROGATE = {
    "codec": {"kind": "nn", "surrogate_target": "random"},
    "parameters": {"seed": 1, "strains": 2, "pandemic_duration": 3},
}
EVALUATOR = [
    sys.executable,
    "-I",
    "-S",
    "-c",
    "import json, sys; r = json.loads(sys.stdin.readline()); "
    'print(json.dumps({"fitness": sum(r["units"]) / 100 + r["dropout"]}))',
]


def nn_external(evaluator):
    return {
        "codec": {"kind": "nn", "evaluator": evaluator},
        "parameters": {"seed": 1, "strains": 2, "pandemic_duration": 2},
    }


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv, first, second",
        [
            pytest.param(["run"], FIVE_STRAINS, FIVE_STRAINS, id="five-strains"),
            pytest.param(
                ["run"],
                FIVE_STRAINS,
                {**FIVE_STRAINS, "pz_strategy": "max_hamming_spread"},
                id="spread-spelled-out",
            ),
            pytest.param(["sweep", "--lengths", "10,12"], FIVE_STRAINS, FIVE_STRAINS, id="sweep"),
            pytest.param(["run"], NN_SURROGATE, NN_SURROGATE, id="nn-surrogate"),
            pytest.param(["run"], nn_external(EVALUATOR), nn_external(EVALUATOR), id="nn-external"),
            pytest.param(
                ["run"],
                nn_external(EVALUATOR),
                nn_external(shlex.join(EVALUATOR)),
                id="evaluator-string",
            ),
            pytest.param(["run"], ONE_STRAIN, ONE_STRAIN, id="single-strain"),
        ],
    )
    def test_rerun_is_byte_identical(self, tmp_path, argv, first, second):
        # each side runs in a fresh interpreter under its own hash seed
        trees = []
        for hash_seed, config in enumerate((first, second)):
            side = tmp_path / str(hash_seed)
            side.mkdir()
            path = side / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            out = side / "out"
            proc = python(
                "-m", "cvoa.cli", *argv, "--config", str(path), "--out", str(out),
                hash_seed=hash_seed, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(
                {str(f.relative_to(out)): f.is_file() and f.read_bytes() for f in out.rglob("*")}
            )
        assert trees[0].keys() & {"summary.json", "sweep.csv"}
        assert trees[0] == trees[1]


def tree_digest(out):
    """sha256 over each file under `out`, in sorted POSIX relative-path
    order, of `path NUL bytes NUL`, cut to 16 hex digits."""
    digest = hashlib.sha256()
    files = sorted((f.relative_to(out).as_posix(), f) for f in out.rglob("*") if f.is_file())
    for name, f in files:
        digest.update(name.encode() + b"\0" + f.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class TestOutputBytes:
    """Every byte the CLI writes for the CI smoke configs, line endings
    (`\r\n` in the CSVs) included."""

    @pytest.mark.parametrize(
        "argv, config, expected",
        [
            pytest.param(["run"], FIVE_STRAINS, "9b3431538615d3f6", id="binary-run"),
            pytest.param(
                ["sweep", "--lengths", "10,12"], FIVE_STRAINS, "cbb6c5a07e2c6896", id="binary-sweep"
            ),
            pytest.param(["run"], NN_SURROGATE, "5be81ddcbb9be62a", id="nn-run"),
            pytest.param(["run"], nn_external(EVALUATOR), "3761c631022e51eb", id="nn-evaluator-run"),
        ],
    )
    def test_output_tree_digest(self, tmp_path, argv, config, expected):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 0
        assert tree_digest(out) == expected


class TestFlagOverrides:
    def test_seed_override_renames_run_and_changes_outcome(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)})
        assert main(["run", "--config", str(path), "--seed", "42"]) == 0
        assert (out / "run_42").exists()
        assert not (out / "run_1").exists()

    def test_out_override_redirects_artifacts(self, tmp_path):
        path = write_config(tmp_path, {"out": str(tmp_path / "ignored")})
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", "--config", str(path), "--out", str(elsewhere)]) == 0
        assert (elsewhere / "summary.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestArgumentParser:
    """argparse reads the flags: both subcommands take --config, --seed and
    --out, and sweep also takes --lengths."""

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--config", "CONFIG"], ["run", "--config", "CONFIG", "--seed", "x"]],
        ids=["run-without-config", "sweep-without-lengths", "run-seed-not-an-integer"],
    )
    def test_usage_error_exits_2_after_the_usage_lines(self, tmp_path, capsys, argv):
        path = str(write_config(tmp_path))
        argv = [path if word == "CONFIG" else word for word in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        *usage, error = captured.err.splitlines()
        assert usage[0].startswith(f"usage: cvoa {argv[0]} ")
        assert error.startswith(f"cvoa {argv[0]}: error: ")

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("run", ["--config", "--seed", "--out"]),
            ("sweep", ["--config", "--seed", "--out", "--lengths"]),
        ],
    )
    def test_help_lists_the_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.MULTILINE) == flags


class TestSweep:
    def test_two_lengths_two_rows(self, tmp_path, monkeypatch):
        # a config without a target sweeps toward BinaryCodec's default, 15
        checked = []
        summarize = cvoa.cli.run_summary

        def checked_summary(seed, result, codec, objective):
            # each run's best re-scores, as text, to the fitness it reports
            summary = summarize(seed, result, codec, objective)
            text = codec.text(result.best.genotype)
            assert len(text) == codec.bits and set(text) <= {"0", "1"}, text
            assert codec.fitness(int(text, 2)) == summary["best_fitness"], (text, summary)
            checked.append(codec.bits)
            return summary

        monkeypatch.setattr(cvoa.cli, "run_summary", checked_summary)
        tables = []
        for name, codec in (("set", BINARY_CONFIG["codec"]), ("unset", {"kind": "binary"})):
            out = tmp_path / name
            path = write_config(tmp_path, {"out": str(out), "repeat": 5}, codec=codec)
            assert main(["sweep", "--config", str(path), "--lengths", "10,20"]) == 0
            lines = (out / "sweep.csv").read_text().splitlines()
            assert lines[0] == "Length,MeanIterationsToOptimum,MeanEvaluatedFraction"
            assert len(lines) == 3
            assert lines[1].startswith("10,") and lines[2].startswith("20,")
            tables.append(lines)
        assert tables[0] == tables[1]
        assert checked == ([10] * 5 + [20] * 5) * 2

    def test_repeated_length_gives_a_row_each(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)})
        assert main(["sweep", "--config", str(path), "--lengths", "10,10"]) == 0
        [_, first, second] = (out / "sweep.csv").read_text().splitlines()
        assert first.startswith("10,") and first == second

    def test_sweep_rejects_nn_config(self, tmp_path, capsys):
        path = write_config(tmp_path, codec={"kind": "nn", "surrogate_target": "random"})
        assert_config_error(capsys, path, ["sweep", "--lengths", "10"], "requires a binary codec")

    def test_sweep_rejects_maximize_before_any_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"parameters": {"objective": "maximize"}})
        assert_config_error(capsys, path, ["sweep", "--lengths", "10"], "objective minimize")

    def test_every_length_checked_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_pandemic called before every length was checked")

        monkeypatch.setattr(cvoa.cli, "run_pandemic", no_run)
        # a length below the minimum, and one that the configured target does not fit
        cases = [
            ("too-short", BINARY_CONFIG["codec"], "10,5", "length 5"),
            ("target-does-not-fit", {"kind": "binary", "bits": 12, "target": 300}, "12,8", "length 8"),
        ]
        for name, codec, lengths, bad in cases:
            (tmp_path / name).mkdir()
            path = write_config(tmp_path / name, codec=codec)
            assert_config_error(capsys, path, ["sweep", "--lengths", lengths], bad)

    def test_seeds_checked_from_two_configs_before_the_first_run(self, tmp_path, monkeypatch):
        # seeds grow with the repeat and the strain: the first and last
        # repeats' configs bound them all, so the checks build only those
        built = []
        uniform = MultiStrainConfig.uniform

        def counted(params, *args, **kwargs):
            built.append(params.seed)
            return uniform(params, *args, **kwargs)

        class FirstRun(Exception):
            pass

        def first_run(*args, **kwargs):
            raise FirstRun

        monkeypatch.setattr(MultiStrainConfig, "uniform", staticmethod(counted))
        monkeypatch.setattr(cvoa.cli, "run_pandemic", first_run)
        path = write_config(tmp_path, repeat=10_000)
        with pytest.raises(FirstRun):
            main(["sweep", "--config", str(path), "--lengths", "10", "--out", str(tmp_path / "out")])
        # the checks' two configs, then the first run's own
        assert built == [1, 10_000, 1]

    def test_malformed_lengths_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert_config_error(capsys, path, ["sweep", "--lengths", "ten"], "lengths")


def run_counting_evaluator(tmp_path, *, limit, repeat=1, pandemic_duration):
    """`run_nn` of 2 strains under an evaluator that counts its requests
    (in a file beside it, under a lock) and fails (exit 3) from the
    `limit`-th on."""
    command = evaluator_script(
        tmp_path,
        "import fcntl, json, sys\n"
        "line = sys.stdin.readline()\n"
        "with open(__file__ + '.count', 'a+') as fh:\n"
        "    fcntl.flock(fh, fcntl.LOCK_EX)\n"
        "    fh.seek(0)\n"
        "    n = len(fh.read()) + 1\n"
        "    fh.write('x')\n"
        f"if n >= {limit}:\n"
        "    sys.exit(3)\n"
        "req = json.loads(line)\n"
        "print(json.dumps({'fitness': sum(req['units']) / 100 + req['dropout']}))\n",
    )
    return run_nn(tmp_path, command, repeat, strains=2, pandemic_duration=pandemic_duration)


class TestEvaluationFailure:
    @pytest.mark.parametrize("body, message", FAILING_REPLIES)
    def test_failing_reply_exits_one_with_no_rows(self, tmp_path, capsys, body, message):
        # every request fails, so the patient zeros' batch does and no row is written
        status, out = run_nn(tmp_path, evaluator_script(tmp_path, body), strains=2)
        assert status == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: evaluation failed in run seed=1: ") and message in line
        assert len(line) < 1000  # a reply or stderr is quoted to 500 characters
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()
        assert rows == ["Iteration,Deaths,Recovered,Infected,Fitness"]

    def test_evaluator_that_cannot_start_exits_one_with_no_rows(self, tmp_path, capsys):
        command = [str(tmp_path / "missing-evaluator")]
        evaluator = ExternalEvaluator(command)
        g = NetGenotype(0, 0, (0, 0))
        for score in (evaluator.fitness, lambda g: list(evaluator.fitness_all([g]))):
            with pytest.raises(EvaluationError, match="^evaluator failed to run: "):
                score(g)
        status, out = run_nn(tmp_path, command, strains=2)
        assert status == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "error: evaluation failed in run seed=1: evaluator failed to run: [Errno 2] "
        )
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()
        assert rows == ["Iteration,Deaths,Recovered,Infected,Fitness"]

    def test_failure_after_the_patient_zeros_flushes_the_completed_rows(self, tmp_path, capsys):
        # a run that fails on its last evaluation keeps every row before that step
        status, out = run_counting_evaluator(tmp_path, limit=10**9, pandemic_duration=3)
        assert status == 0
        [record] = json.loads((out / "summary.json").read_text())["runs"]
        whole = (out / "run_1" / "iterations.csv").read_text().splitlines()
        capsys.readouterr()
        status, out = run_counting_evaluator(
            tmp_path, limit=record["evaluations_total"], pandemic_duration=3
        )
        assert status == 1
        assert "evaluation failed" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()
        assert len(rows) >= 2
        assert rows[:-1] == whole[: len(rows) - 1]
        assert rows[-1].split(",")[0] == str(len(rows) - 1)

    def test_failure_in_a_later_run_keeps_the_finished_runs_summary(self, tmp_path, capsys):
        status, out = run_counting_evaluator(tmp_path, limit=10**9, repeat=3, pandemic_duration=2)
        assert status == 0
        whole = json.loads((out / "summary.json").read_text())
        first = whole["runs"][0]
        capsys.readouterr()
        # run 1 takes first["evaluations_total"] requests; run 2 fails after its patient zeros
        status, out = run_counting_evaluator(
            tmp_path, limit=first["evaluations_total"] + 3, repeat=3, pandemic_duration=2
        )
        assert status == 1
        assert "evaluation failed in run seed=2" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == [first]
        assert summary["aggregates"]["mean_evaluated_fraction"] == (
            first["evaluations_total"] / whole["search_space_size"]
        )
        assert (out / "run_2" / "iterations.csv").exists()
        assert not (out / "run_3").exists()

    @staticmethod
    def rerun(tmp_path, evaluator, **top_level):
        """`cvoa run` of `nn_external(evaluator)` over 2 repeats into `tmp_path/out`."""
        config = {**nn_external(evaluator), "repeat": 2, "out": str(tmp_path / "out"), **top_level}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return main(["run", "--config", str(path)]), tmp_path / "out"

    @staticmethod
    def tree(out):
        return {str(f.relative_to(out)): f.is_file() and f.read_bytes() for f in out.rglob("*")}

    def test_failed_rerun_leaves_none_of_the_earlier_runs_outputs(self, tmp_path, capsys):
        status, out = self.rerun(tmp_path, EVALUATOR)
        assert status == 0
        assert (out / "run_2" / "best.txt").exists()
        status, out = self.rerun(tmp_path, evaluator_script(tmp_path, "import sys; sys.exit(3)"))
        assert status == 1
        assert "evaluation failed in run seed=1" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not (out / "run_1" / "best.txt").exists()
        assert [f for f in (out / "run_2").rglob("*") if f.is_file()] == []
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()
        assert rows == ["Iteration,Deaths,Recovered,Infected,Fitness"]

    @pytest.mark.parametrize(
        "rejected, top_level, message",
        [
            ("repeat-0", {"repeat": 0}, "repeat must be"),
            (
                "last-output-file-blocked",
                {"repeat": 3},
                "cannot write {out}/run_3/iterations.csv: a directory is in its place",
            ),
            (
                "file-cannot-be-removed",
                {},
                "cannot remove {out}/run_1/iterations.csv: [Errno 13] Permission denied",
            ),
        ],
        ids=["repeat-0", "last-output-file-blocked", "file-cannot-be-removed"],
    )
    def test_rejected_rerun_leaves_the_earlier_tree_unchanged(
        self, tmp_path, capsys, monkeypatch, rejected, top_level, message
    ):
        status, out = self.rerun(tmp_path, EVALUATOR)
        assert status == 0
        if rejected == "last-output-file-blocked":
            # the output-file check is the last one before the earlier files go
            (out / "run_3" / "iterations.csv").mkdir(parents=True)
        before = self.tree(out)
        capsys.readouterr()
        if rejected == "file-cannot-be-removed":

            def unlink(path, missing_ok=False):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(Path, "unlink", unlink)
        status, out = self.rerun(tmp_path, EVALUATOR, **top_level)
        assert status == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message.format(out=out) in line, line
        assert self.tree(out) == before

    def test_interrupted_sweep_leaves_no_earlier_table(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)})
        argv = ["sweep", "--config", str(path), "--lengths", "10"]
        assert main(argv) == 0
        assert (out / "sweep.csv").exists()

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cvoa.cli, "run_pandemic", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert not (out / "sweep.csv").exists()


class TestExternalEvaluatorRun:
    def test_one_evaluator_process_per_ledger_evaluation(self, tmp_path, monkeypatch):
        # the ledger is the only fitness memo: each pandemic starts the
        # evaluator once per distinct genotype, and repeats share no memo
        import cvoa.nn

        evaluators = []

        class RecordedEvaluator(cvoa.nn.ExternalEvaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                evaluators.append(self)

        monkeypatch.setattr(cvoa.nn, "ExternalEvaluator", RecordedEvaluator)
        log = tmp_path / "requests.log"
        command = evaluator_script(
            tmp_path,
            "import json, sys\n"
            "line = sys.stdin.readline()\n"
            f"open({str(log)!r}, 'a').write(line)\n"
            "req = json.loads(line)\n"
            "print(json.dumps({'fitness': sum(req['units']) / 100 + req['dropout']}))\n",
        )
        status, out = run_nn(tmp_path, command, repeat=3, strains=2, pandemic_duration=2)
        assert status == 0
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert len(runs) == 3
        assert all(r["evaluations_total"] > 0 and r["best_fitness"] is not None for r in runs)
        evaluations = sum(r["evaluations_total"] for r in runs)
        [evaluator] = evaluators
        assert evaluator.invocations == evaluations
        assert len(log.read_text().splitlines()) == evaluations


class TestIterationsToOptimum:
    @staticmethod
    def unstepped(initial_best):
        """The result of a pandemic that ended at its scored patient zeros."""
        return PandemicResult(
            best=None,
            strains=[],
            history=[],
            initial_best=initial_best,
            evaluations_total=1,
            dead_total=0,
            recovered_total=0,
            termination=None,
        )

    def test_optimal_patient_zero_counts_as_zero(self):
        assert iterations_to_optimum(self.unstepped(0), BinaryCodec(), Objective.MINIMIZE) == 0

    def test_unknown_optimum_yields_none(self):
        class NoOptimum(BinaryCodec):
            def optimum_fitness(self):
                return None

        assert iterations_to_optimum(self.unstepped(5), NoOptimum(), Objective.MINIMIZE) is None


    def test_maximize_run_has_no_known_optimum(self):
        assert iterations_to_optimum(self.unstepped(0), BinaryCodec(), Objective.MAXIMIZE) is None

    def test_maximize_runs_never_claim_the_optimum(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "codec": {"bits": 20},
                "parameters": {"objective": "maximize", "pandemic_duration": 5},
                "repeat": 3,
                "out": str(out),
            },
        )
        assert main(["run", "--config", str(path)]) == 0
        document = json.loads((out / "summary.json").read_text())
        assert [r["iterations_to_optimum"] for r in document["runs"]] == [None] * 3
        assert document["aggregates"]["success_rate"] == 0.0


class TestPzStrategyDefault:
    def test_config_without_pz_strategy_gets_the_records_default(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.pz_strategy is MultiStrainConfig._field_defaults["pz_strategy"]
        assert config.pz_strategy is PzStrategy.MAX_HAMMING_SPREAD


class TestReadmeConfigExample:
    def test_example_carries_defaults_except_strains_and_seed(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"### Config file.*?```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(example, encoding="utf-8")
        config = load_config(path)
        assert config.parameters == EpidemicParameters()._replace(strains=5, seed=1)


class TestReadmeLibraryExample:
    def test_example_runs_and_prints_fitness_and_termination(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = re.search(r"## Library.*?```python\n(.*?)```", readme, re.S).group(1)
        proc = python("-c", example)
        assert proc.returncode == 0, proc.stderr
        fitness, termination = proc.stdout.split()
        assert float(fitness) >= 0
        assert termination in {str(t) for t in Termination}

    def test_every_later_library_block_runs(self):
        # each block states the current API, so a renamed name fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = re.search(r"\n## Library\n(.*?)\n## ", readme, re.S).group(1)
        blocks = re.findall(r"```python\n(.*?)```", section, re.S)
        assert len(blocks) >= 3
        for block in blocks[1:]:
            exec(compile(block, "README.md", "exec"), {})
