"""tools/ab_pandemics.py: the in-process A/B script agrees a tree with
itself and refuses two trees whose results differ."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import cvoa

SRC = Path(cvoa.__file__).resolve().parent.parent
SCRIPT = SRC.parent / "tools" / "ab_pandemics.py"
TOY = ["--rounds", "1", "--bits", "10", "--seeds", "1-2"]


def ab(parent, change, *flags):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), *TOY, *flags],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_a_tree_against_itself_agrees():
    proc = ab(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"round 1: parent \S+ s, change \S+ s, ratio \S+", lines[0])
    assert re.fullmatch(r"median ratio \S+; change faster in [01] of 1", lines[1])
    assert re.fullmatch(r"parent: history hash \w{16}, \d+ evaluations per round", lines[2])
    assert lines[3] == lines[2].replace("parent", "change")


def test_bytecode_count_is_the_same_for_the_same_tree_and_on_every_run():
    counts = []
    for _ in range(2):
        proc = ab(SRC, SRC, "--count")
        assert proc.returncode == 0, proc.stderr
        parent, change = proc.stdout.splitlines()[4:]
        match = re.fullmatch(r"parent: (\S+ bytecodes per evaluation \(\d+ over \d+\))", parent)
        assert match, parent
        assert change == "change: " + match[1]
        counts.append(match[1])
    assert counts[0] == counts[1]


def test_trees_whose_results_differ_exit_1(tmp_path):
    shutil.copytree(SRC / "cvoa", tmp_path / "cvoa", ignore=shutil.ignore_patterns("__pycache__"))
    binary = tmp_path / "cvoa" / "binary.py"
    source = binary.read_text(encoding="utf-8")
    # the optimum moves from target 15 to 16
    moved = source.replace("d = genotype - self.target\n", "d = genotype - self.target - 1\n")
    assert moved != source
    binary.write_text(moved, encoding="utf-8")
    proc = ab(SRC, tmp_path)
    assert proc.returncode == 1
    assert "the trees' results differ" in proc.stderr


def test_trees_whose_strain_terminations_differ_exit_1(tmp_path):
    shutil.copytree(SRC / "cvoa", tmp_path / "cvoa", ignore=shutil.ignore_patterns("__pycache__"))
    multistrain = tmp_path / "cvoa" / "multistrain.py"
    source = multistrain.read_text(encoding="utf-8")
    # every strain reports no termination; the merged history is unchanged
    moved = source.replace("s.history, s.termination)", "s.history, None)")
    assert moved != source
    multistrain.write_text(moved, encoding="utf-8")
    proc = ab(SRC, tmp_path)
    assert proc.returncode == 1
    assert "the trees' results differ" in proc.stderr
