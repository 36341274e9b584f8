"""Start-up cost: a binary run loads neither the nn codec nor its thread pool,
and importing cvoa loads no dataclasses."""

import json
import subprocess
import sys
from pathlib import Path

import cvoa

SRC = str(Path(cvoa.__file__).resolve().parent.parent)

# loaded only by the nn codec (the evaluator's thread pool) or after the last run
DEFERRED = ("cvoa.nn", "concurrent.futures", "statistics")


def modules_loaded_by(code: str) -> set[str]:
    """Modules in sys.modules after `code`, less those a bare interpreter loads."""
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"

    def loaded(prelude: str) -> set[str]:
        out = subprocess.run(
            [sys.executable, "-c", f"{prelude}\n{report}"],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        return set(json.loads(out.splitlines()[-1]))

    bare = loaded("pass")
    return loaded(f"import sys; sys.path.insert(0, {SRC!r})\n{code}") - bare


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
    from cvoa import ExternalEvaluator
    from cvoa.nn import ExternalEvaluator as direct

    assert ExternalEvaluator is direct


def test_unknown_attribute_is_missing():
    assert not hasattr(cvoa, "no_such_name")
