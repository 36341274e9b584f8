"""Start-up cost: a binary run loads neither the nn codec nor its thread pool,
and importing cvoa loads no dataclasses. Every fresh interpreter a test
starts comes from `conftest.python` and runs this checkout."""

import ast
import json
from functools import cache

import cvoa
from conftest import SRC, TESTS, python

# loaded only by the nn codec (the evaluator's thread pool) or after the last run
DEFERRED = ("cvoa.nn", "concurrent.futures", "statistics")


@cache
def modules_after(code: str) -> frozenset[str]:
    """Modules in sys.modules after `code` runs in a fresh interpreter."""
    proc = python("-c", f"{code}\nimport json, sys; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout.splitlines()[-1]))


def modules_loaded_by(code: str) -> frozenset[str]:
    """Modules in sys.modules after `code`, less those a bare interpreter loads."""
    return modules_after(code) - modules_after("pass")


def test_import_loads_no_deferred_module():
    loaded = modules_loaded_by("import cvoa, cvoa.cli")
    assert "cvoa.cli" in loaded
    assert not loaded & set(DEFERRED)


def test_import_loads_no_dataclasses():
    # the records are named tuples; dataclasses would pull in inspect, ast, dis and tokenize
    loaded = modules_loaded_by("import cvoa, cvoa.cli")
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_binary_run_loads_no_nn_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"codec": {"kind": "binary", "bits": 10}, "parameters": {"seed": 1, "strains": 5}}),
        encoding="utf-8",
    )
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = modules_loaded_by(
        f"import cvoa.cli\nassert cvoa.cli.main({argv!r}) == 0"
    )
    assert (tmp_path / "out" / "summary.json").is_file()
    assert "cvoa.nn" not in loaded
    assert "concurrent.futures" not in loaded


def test_binary_sweep_loads_no_nn_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"codec": {"kind": "binary", "bits": 10}, "parameters": {"seed": 1, "strains": 5}}),
        encoding="utf-8",
    )
    argv = ["sweep", "--lengths", "10,12", "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = modules_loaded_by(f"import cvoa.cli\nassert cvoa.cli.main({argv!r}) == 0")
    assert (tmp_path / "out" / "sweep.csv").is_file()
    assert "cvoa.nn" not in loaded
    assert "concurrent.futures" not in loaded


def test_nn_run_loads_the_nn_codec(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "codec": {"kind": "nn", "surrogate_target": "random"},
                "parameters": {"seed": 1, "strains": 2, "pandemic_duration": 3},
            }
        ),
        encoding="utf-8",
    )
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = modules_loaded_by(f"import cvoa.cli\nassert cvoa.cli.main({argv!r}) == 0")
    assert "cvoa.nn" in loaded
    assert "concurrent.futures" not in loaded


def test_nn_names_resolve_to_the_nn_module():
    assert cvoa.NetCodec is cvoa.nn.NetCodec
    assert cvoa.ExternalNetCodec is cvoa.nn.ExternalNetCodec
    from cvoa import ExternalEvaluator
    from cvoa.nn import ExternalEvaluator as direct

    assert ExternalEvaluator is direct


def test_unknown_attribute_is_missing():
    assert not hasattr(cvoa, "no_such_name")


def test_the_launcher_runs_this_checkout():
    proc = python(
        "-c",
        "import os, cvoa, reference\n"
        "print(cvoa.__file__, reference.__file__, os.environ['PYTHONHASHSEED'], sep='\\n')",
        hash_seed=1,
    )
    assert proc.returncode == 0, proc.stderr
    cvoa_file, reference_file, hash_seed = proc.stdout.splitlines()
    assert cvoa_file == str(SRC / "cvoa" / "__init__.py")
    assert reference_file == str(TESTS / "reference.py")
    assert hash_seed == "1"


def test_only_conftest_starts_a_fresh_interpreter():
    # a child script is a string, so a path edit in it shows only in the text;
    # each name is split so that this file does not match itself
    path_edits = ("sys" + ".path", "PYTHON" + "PATH")
    found = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "conftest.py":
            continue
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.partition(".")[0] == "subprocess" for module in modules):
                found.append(f"{path.name}:{node.lineno} imports subprocess")
        found += [f"{path.name} names {edit}" for edit in path_edits if edit in text]
    assert not found, "start a fresh interpreter through conftest.python:\n" + "\n".join(found)
