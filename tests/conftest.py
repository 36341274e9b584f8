"""Shared doubles: the check of a run against the reference model
(`reference.py`) after every strain step, the tests' one watch on the
ledger rules; the scoring double, which counts scores and can fail a
score or stop at a deadline; scripted external evaluators, the reply table
that states their contract, and the `cvoa run` of an nn config they score."""

import json
import sys
import time
from itertools import count
from unittest.mock import patch

import pytest

import cvoa.engine
import reference
from cvoa import (
    BinaryCodec,
    EpidemicParameters,
    EvaluationError,
    MultiStrainConfig,
    PzStrategy,
    parse_net_text,
    run_pandemic,
    run_strain,
)
from cvoa.cli import main


def uniform(strains=1, pz_strategy=PzStrategy.MAX_HAMMING_SPREAD, **fields):
    """A config of `strains` strains that share every parameter but the seed."""
    return MultiStrainConfig.uniform(EpidemicParameters(strains=strains, **fields), pz_strategy)


class BudgetSpent(Exception):
    """A score asked for past a deadline. Not an EvaluationError, so
    run_pandemic lets it through."""


class Scored:
    """`codec`, a 20-bit BinaryCodec by default, scored only through
    `fitness`, which counts its calls in `scores`: the `fail_at`-th score
    raises EvaluationError, and one past `deadline`, a `time.monotonic()`
    reading, raises BudgetSpent. A run that scored no genotype twice made
    `evaluations_total` scores; counting them costs no memory per genotype."""

    def __init__(self, codec=None, *, fail_at=None, deadline=None):
        self.codec = BinaryCodec(bits=20) if codec is None else codec
        if hasattr(self.codec, "fitness_all"):
            raise TypeError(f"{self.codec!r}: a fitness_all hook would bypass the double")
        self.fail_at, self.deadline, self.scores = fail_at, deadline, 0

    def __getattr__(self, name):
        return getattr(self.codec, name)

    def fitness(self, genotype):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetSpent
        self.scores += 1
        if self.scores == self.fail_at:
            raise EvaluationError(f"synthetic failure at evaluation {self.fail_at}")
        return self.codec.fitness(genotype)


def same_as_reference(codec, config, stop=None):
    """Check the pandemic of `config`, scored by `codec` and stopped at
    `stop`, against the reference model, and return its PandemicResult.
    Checked: each genotype scored once; after every strain step, dead and
    recovered disjoint, and the same infected in order, dead, recovered,
    scored genotypes in order, best, history row, termination and stream
    state; the same PandemicResult; for one strain without a goal, the
    same result from `run_strain`."""
    steps = []
    step = cvoa.engine.Strain.step

    def recording(strain):
        step(strain)
        shared = strain.shared
        steps.append(
            (strain.params.seed, list(strain.infected), set(shared.dead), set(shared.recovered),
             list(shared.fitness_cache), strain.best, strain.history[-1],
             strain.termination, strain.rng.getstate())
        )

    scored = Scored(codec)
    with patch.object(cvoa.engine.Strain, "step", recording):
        result = run_pandemic(config, scored, stop_fitness=stop)
    assert scored.scores == result.evaluations_total, "a genotype was scored twice"
    expected_steps, expected = reference.run(config.parameters, config.pz_strategy, codec, stop)
    for i, (engine, model) in enumerate(zip(steps, expected_steps)):
        _, _, dead, recovered, *_ = engine
        assert dead.isdisjoint(recovered), f"strain step {i + 1}: dead and recovered overlap"
        assert engine == model, f"strain step {i + 1}"
    assert len(steps) == len(expected_steps)
    assert result == expected
    if len(config.parameters) == 1 and stop is None:
        assert run_strain(config.parameters[0], codec) == expected[1][0]
    return result


def stepped_with_deaths(*results) -> bool:
    """Whether a strain of one of `results` stepped with the dead in its
    ledger: a history row before the last counts a death."""
    return any(row.deaths_total for result in results for row in result.history[:-1])


def _fresh(directory, stem: str, suffix: str = ""):
    """The first path directory/<stem><n><suffix>, n = 1, 2, ..., that does not exist."""
    paths = (directory / f"{stem}{n}{suffix}" for n in count(1))
    return next(path for path in paths if not path.exists())


def evaluator_script(tmp_path, body: str) -> list[str]:
    """The command that runs `body` as a stdlib evaluator script."""
    path = _fresh(tmp_path, "evaluator", ".py")
    path.write_text(body, encoding="utf-8")
    return [sys.executable, "-I", "-S", str(path)]


def replying(line):
    """The body of an evaluator that reads its request and prints `line`."""
    return f"import sys; sys.stdin.readline(); print({line!r})"


# the one genotype each reply answers: units [100, 25], lr 0.1, dropout 0.15
REQUEST = parse_net_text("{1,2,2}{3,0}")

MALFORMED = "malformed evaluator reply"

# the evaluator contract: an evaluator body, and the score it gives or the
# message of the EvaluationError it raises
REPLIES = [
    pytest.param(replying('{"fitness": 1.22}'), 1.22, id="fixed"),
    pytest.param(
        "import json, sys\n"
        "req = json.loads(sys.stdin.readline())\n"
        "print(json.dumps({'fitness': req['units'][0] + req['learning_rate'] + req['dropout']}))\n",
        100 + 0.1 + 0.15,  # summed in the evaluator's order
        id="request-is-decoded-architecture",
    ),
    pytest.param(
        replying('{"fitness": 1.0}') + "; sys.stderr.buffer.write(b'\\xff')",
        1.0,
        id="undecodable-stderr",
    ),
    pytest.param(
        replying("epoch 1/1 loss 0.3") + "; print('{\"fitness\": 2.5}'); print()",
        2.5,
        id="progress-line-before-reply",
    ),
    pytest.param(replying('{"fitness": NaN}'), "non-finite", id="nan"),
    pytest.param("import sys; sys.exit(3)", "exited 3", id="nonzero-exit"),
    pytest.param(
        "import sys; sys.stdin.readline(); sys.stderr.write('x' * 5000); sys.exit(3)",
        "exited 3: x",
        id="long-stderr",
    ),
    pytest.param(replying("not json"), MALFORMED, id="not-json"),
    pytest.param(replying('{"fitness": "3.5"}'), MALFORMED, id="string"),
    pytest.param(replying('{"fitness": true}'), MALFORMED, id="bool"),
    pytest.param(replying('{"fitness": ' + "1" * 401 + "}"), MALFORMED, id="past-float-range"),
    pytest.param(replying('{"score": 1.0}'), MALFORMED, id="no-fitness-key"),
    pytest.param("import sys; sys.stdin.readline()", MALFORMED, id="no-reply"),
    pytest.param(
        "import sys; sys.stdin.readline(); sys.stdout.buffer.write(b'{\"fitness\": 1.0}\\xff\\n')",
        MALFORMED,
        id="undecodable-reply",
    ),
    pytest.param(
        "import sys; sys.stdin.readline(); print('[' * 200_000)", MALFORMED, id="deep-nesting"
    ),
]
FAILING_REPLIES = [row for row in REPLIES if isinstance(row.values[1], str)]


def run_nn(tmp_path, command, repeat=1, **parameters):
    """`cvoa run` of an nn config scored by `command`, with seed 1 and
    `parameters`: the exit status and the output directory."""
    run = _fresh(tmp_path, "run")
    run.mkdir()
    config = {
        "codec": {"kind": "nn", "evaluator": command},
        "parameters": {"seed": 1, **parameters},
        "repeat": repeat,
        "out": str(run / "out"),
    }
    path = run / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return main(["run", "--config", str(path)]), run / "out"

