"""Command-line behavior: artifacts, determinism, exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cvoa.cli
from cvoa import BinaryCodec, EpidemicParameters, Objective, PandemicResult, Termination
from cvoa.cli import iterations_to_optimum, load_config, main

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


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"bogus": 1})
        assert main(["run", "--config", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

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
            ({"codec": {"target": 15.5}}, "target"),
            ({"repeat": True}, "repeat"),
            ({"out": 5}, "out"),
        ],
        ids=[
            "p_travel",
            "p_die-string",
            "p_die-bool",
            "spread-range-string",
            "strains-float",
            "duration-float",
            "bits-string",
            "target-float",
            "repeat-bool",
            "out-number",
        ],
    )
    def test_bad_parameter_value(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, overrides)
        assert main(["run", "--config", str(path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and message in line for line in err_lines)

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
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out), **overrides})
        assert main([*argv, "--config", str(path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and "seed" in line for line in err_lines)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--lengths", "8"], ["sweep", "--lengths", "10,8"]],
        ids=["run", "sweep", "sweep-second-length"],
    )
    def test_more_strains_than_genotypes_rejected_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {"codec": {"bits": 8}, "parameters": {"strains": 300}, "out": str(out)},
        )
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(
            line.startswith("error:") and "strains=300" in line and "256" in line
            for line in captured.err.splitlines()
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--lengths", "10,12"]], ids=["run", "sweep"])
    @pytest.mark.parametrize("under", [False, True], ids=["at-a-file", "under-a-file"])
    def test_unusable_out_dir_rejected_before_any_run(self, tmp_path, capsys, argv, under):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "x" if under else blocker
        path = write_config(tmp_path)
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot create output directory {out}: ")

    def test_run_directory_blocked_by_a_file_rejected_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "run_2").write_text("", encoding="utf-8")
        path = write_config(tmp_path, {"out": str(out), "repeat": 2})
        assert main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot create run directory {out / 'run_2'}: ")
        assert sorted(p.name for p in out.iterdir()) == ["run_2"]

    def test_unknown_parameter_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"parameters": {"p_zombie": 0.1}})
        assert main(["run", "--config", str(path)]) == 2
        assert "p_zombie" in capsys.readouterr().err

    def test_unknown_codec_kind(self, tmp_path, capsys):
        path = write_config(tmp_path, {"codec": {"kind": "gray"}})
        assert main(["run", "--config", str(path)]) == 2
        assert "gray" in capsys.readouterr().err

    def test_nn_codec_needs_one_scoring_source(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"codec": {"kind": "nn"}}), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "codec, field",
        [
            ({"kind": "nn", "surrogate_target": 5}, "surrogate_target"),
            ({"kind": "nn", "surrogate_target": None}, "surrogate_target"),
            ({"kind": "nn", "evaluator": ["python3", 5]}, "evaluator"),
            ({"kind": "nn", "evaluator": []}, "evaluator"),
            ({"kind": "nn", "evaluator": "   "}, "evaluator"),
            ({"kind": "nn", "evaluator": "python3 'unclosed"}, "evaluator"),
            ({"kind": "nn", "evaluator": {"cmd": "python3"}}, "evaluator"),
        ],
        ids=[
            "target-number",
            "target-null",
            "evaluator-list-with-number",
            "evaluator-empty-list",
            "evaluator-blank-string",
            "evaluator-unbalanced-quote",
            "evaluator-object",
        ],
    )
    def test_nn_codec_field_of_wrong_type(self, tmp_path, capsys, codec, field):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"codec": codec, "out": str(out)}), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error:") and f"codec.{field}" in line for line in err_lines)
        assert not out.exists()

    def test_bad_repeat(self, tmp_path, capsys):
        path = write_config(tmp_path, {"repeat": 0})
        assert main(["run", "--config", str(path)]) == 2
        assert "repeat" in capsys.readouterr().err


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

    def test_evaluated_fraction_in_unit_interval(self, tmp_path):
        doc = self.read_summary(tmp_path, repeat=3)
        for run in doc["runs"]:
            fraction = run["evaluations_total"] / doc["search_space_size"]
            assert 0.0 <= fraction <= 1.0
        assert 0.0 <= doc["aggregates"]["mean_evaluated_fraction"] <= 1.0


class TestDeterminism:
    def test_single_strain_rerun_is_byte_identical(self, tmp_path):
        config = {
            "codec": {"kind": "binary", "bits": 20, "target": 15},
            "parameters": {"seed": 7, "strains": 1},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "run_7" / "iterations.csv").read_bytes()
        second = (tmp_path / "b" / "run_7" / "iterations.csv").read_bytes()
        assert first == second


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


class TestSweep:
    def test_two_lengths_two_rows(self, tmp_path):
        # a config without a target sweeps toward BinaryCodec's default, 15
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

    def test_sweep_rejects_nn_config(self, tmp_path, capsys):
        config = {"codec": {"kind": "nn", "surrogate_target": "random"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--lengths", "10"]) == 2
        assert "binary" in capsys.readouterr().err

    def test_sweep_rejects_maximize_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, {"parameters": {"objective": "maximize"}, "out": str(out)})
        assert main(["sweep", "--config", str(path), "--lengths", "10"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_every_length_checked_before_the_first_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run_pandemic called before every length was checked")

        monkeypatch.setattr(cvoa.cli, "run_pandemic", no_run)
        out = tmp_path / "out"
        path = write_config(tmp_path, {"out": str(out)})
        assert main(["sweep", "--config", str(path), "--lengths", "10,5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(
            line.startswith("error:") and "length 5" in line for line in captured.err.splitlines()
        )
        assert not out.exists()

    def test_malformed_lengths_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["sweep", "--config", str(path), "--lengths", "ten"]) == 2
        assert "lengths" in capsys.readouterr().err


def run_counting_evaluator(tmp_path, name, *, limit, repeat=1, pandemic_duration):
    """`cvoa run` of a 2-strain nn config whose evaluator counts its
    requests under a file lock and fails (exit 3) from the `limit`-th on.
    Returns the exit status and the output directory."""
    counter = tmp_path / f"{name}.count"
    script = tmp_path / f"{name}.py"
    script.write_text(
        "import fcntl, json, sys\n"
        "line = sys.stdin.readline()\n"
        f"with open({str(counter)!r}, 'a+') as fh:\n"
        "    fcntl.flock(fh, fcntl.LOCK_EX)\n"
        "    fh.seek(0)\n"
        "    n = len(fh.read()) + 1\n"
        "    fh.write('x')\n"
        f"if n >= {limit}:\n"
        "    sys.exit(3)\n"
        "req = json.loads(line)\n"
        "print(json.dumps({'fitness': sum(req['units']) / 100 + req['dropout']}))\n",
        encoding="utf-8",
    )
    out = tmp_path / name
    config = {
        "codec": {"kind": "nn", "evaluator": [sys.executable, "-I", "-S", str(script)]},
        "parameters": {"seed": 1, "strains": 2, "pandemic_duration": pandemic_duration},
        "repeat": repeat,
        "out": str(out),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return main(["run", "--config", str(path)]), out


class TestEvaluationFailure:
    def test_failing_evaluator_exits_one_with_partial_csv(self, tmp_path, capsys):
        script = tmp_path / "boom.py"
        script.write_text("import sys; sys.exit(3)", encoding="utf-8")
        out = tmp_path / "out"
        config = {
            "codec": {"kind": "nn", "evaluator": f"{sys.executable} {script}"},
            "parameters": {"seed": 1, "strains": 1},
            "out": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert "evaluation failed" in capsys.readouterr().err
        csv_path = out / "run_1" / "iterations.csv"
        assert csv_path.exists()
        assert csv_path.read_text().splitlines()[0] == "Iteration,Deaths,Recovered,Infected,Fitness"

    def test_fitness_past_float_range_exits_one_with_partial_csv(self, tmp_path, capsys):
        script = tmp_path / "huge.py"
        script.write_text(
            "import sys; sys.stdin.readline(); print('{\"fitness\": ' + '9' * 401 + '}')",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        config = {
            "codec": {"kind": "nn", "evaluator": [sys.executable, str(script)]},
            "parameters": {"seed": 1, "strains": 2},
            "out": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1
        assert "malformed evaluator reply" in capsys.readouterr().err
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()
        assert rows == ["Iteration,Deaths,Recovered,Infected,Fitness"]

    def test_failure_after_the_patient_zeros_flushes_the_completed_rows(self, tmp_path, capsys):
        # a run that fails on its last evaluation keeps every row before that step
        status, out = run_counting_evaluator(tmp_path, "whole", limit=10**9, pandemic_duration=3)
        assert status == 0
        [record] = json.loads((out / "summary.json").read_text())["runs"]
        whole = (out / "run_1" / "iterations.csv").read_text().splitlines()
        capsys.readouterr()
        status, out = run_counting_evaluator(
            tmp_path, "failing", limit=record["evaluations_total"], pandemic_duration=3
        )
        assert status == 1
        assert "evaluation failed" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        rows = (out / "run_1" / "iterations.csv").read_text().splitlines()
        assert len(rows) >= 2
        assert rows[:-1] == whole[: len(rows) - 1]
        assert rows[-1].split(",")[0] == str(len(rows) - 1)

    def test_failure_in_a_later_run_keeps_the_finished_runs_summary(self, tmp_path, capsys):
        status, out = run_counting_evaluator(
            tmp_path, "whole", limit=10**9, repeat=3, pandemic_duration=2
        )
        assert status == 0
        whole = json.loads((out / "summary.json").read_text())
        first = whole["runs"][0]
        capsys.readouterr()
        # run 1 takes first["evaluations_total"] requests; run 2 fails after its patient zeros
        status, out = run_counting_evaluator(
            tmp_path,
            "failing",
            limit=first["evaluations_total"] + 3,
            repeat=3,
            pandemic_duration=2,
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
        script = tmp_path / "evaluator.py"
        script.write_text(
            "import json, sys\n"
            "line = sys.stdin.readline()\n"
            f"open({str(log)!r}, 'a').write(line)\n"
            "req = json.loads(line)\n"
            "print(json.dumps({'fitness': sum(req['units']) / 100 + req['dropout']}))\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        config = {
            "codec": {"kind": "nn", "evaluator": [sys.executable, "-I", "-S", str(script)]},
            "parameters": {"seed": 1, "strains": 2, "pandemic_duration": 2},
            "repeat": 3,
            "out": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert len(runs) == 3
        evaluations = sum(r["evaluations_total"] for r in runs)
        [evaluator] = evaluators
        assert evaluator.invocations == evaluations
        assert len(log.read_text().splitlines()) == evaluations


class TestIterationsToOptimum:
    def test_optimal_patient_zero_counts_as_zero(self):
        result = PandemicResult(
            best=None,
            strains=[],
            history=[],
            initial_best=0,
            evaluations_total=1,
            dead_total=0,
            recovered_total=0,
            termination=None,
        )
        assert iterations_to_optimum(result, BinaryCodec(), Objective.MINIMIZE) == 0

    def test_unknown_optimum_yields_none(self):
        class NoOptimum(BinaryCodec):
            def optimum_fitness(self):
                return None

        result = PandemicResult(
            best=None,
            strains=[],
            history=[],
            initial_best=5,
            evaluations_total=1,
            dead_total=0,
            recovered_total=0,
            termination=None,
        )
        assert iterations_to_optimum(result, NoOptimum(), Objective.MINIMIZE) is None


    def test_maximize_run_has_no_known_optimum(self):
        result = PandemicResult(
            best=None,
            strains=[],
            history=[],
            initial_best=0,
            evaluations_total=1,
            dead_total=0,
            recovered_total=0,
            termination=None,
        )
        assert iterations_to_optimum(result, BinaryCodec(), Objective.MAXIMIZE) is None

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
        src = str(Path(cvoa.cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{example}"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        fitness, termination = proc.stdout.split()
        assert float(fitness) >= 0
        assert termination in {str(t) for t in Termination}
