"""Shared doubles: the engine probe, which states the ledger rules once and
checks them on every brood; the check of a run against `reference.py`;
scripted external evaluators, the reply table that states their contract,
and the `cvoa run` of an nn config they score; and a codec that fails on
its k-th evaluation."""

import json
import sys
from itertools import count, islice
from typing import Any, NamedTuple
from unittest.mock import patch

import pytest

import cvoa.engine
import cvoa.multistrain
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


class Brood(NamedTuple):
    strain: Any
    spreader: Any
    wide: bool
    fitness: Any  # the spreader's cached fitness, None if never scored
    infected: list  # the step's infected, in the step's order
    admitted: list  # the brood's additions to new_infected, in order
    deaths: int  # the ledger's dead when the brood bred


def _added(population: dict, before: int) -> list:
    """The keys added to an insertion-ordered dict since it held `before`."""
    return list(islice(reversed(population), len(population) - before))[::-1]


class EngineProbe:
    """Every SharedLedger and brood of a test's runs, and each breach of the
    ledger rules: a dead spreader or infected genotype (the infected checked
    once per step); a dead genotype that a brood admits or isolates, the one
    way into new_infected or isolated_now, since no brood buries and no
    strain steps inside another's step; and dead and recovered overlapping
    (the whole ledger checked once per step and when `violations` is read,
    a brood's isolates, all that it adds to recovered, after the brood)."""

    def __init__(self, infect) -> None:
        self._infect = infect
        self.ledgers: list = []
        self.broods: list[Brood] = []
        self._violations: list[tuple] = []
        self._steps: dict = {}  # strain -> (its step's new_infected, its step's infected)

    def ledger(self) -> cvoa.engine.SharedLedger:
        """Stands in for SharedLedger() in cvoa.multistrain."""
        self.ledgers.append(cvoa.engine.SharedLedger())
        return self.ledgers[-1]

    @property
    def violations(self) -> list[tuple]:
        ledgers = [s for s in self.ledgers if not s.dead.isdisjoint(s.recovered)]
        return self._violations + [("dead and recovered overlap", s) for s in ledgers]

    def infect(self, strain, spreader, wide: bool) -> None:
        shared, dead, breach = strain.shared, strain.shared.dead, self._violations.append
        step = self._steps.get(strain)
        if step is None or step[0] is not strain.new_infected:  # the step's first brood
            step = self._steps[strain] = (strain.new_infected, list(strain.infected))
            if not dead.isdisjoint(step[1]):
                breach(("infected genotype is dead", strain))
            if not dead.isdisjoint(shared.recovered):
                breach(("dead and recovered overlap", strain))
        if spreader in dead:
            breach(("spreader is dead", spreader))
        admitted, isolated = len(strain.new_infected), len(strain.isolated_now)
        self._infect(strain, spreader, wide)
        admissions = _added(strain.new_infected, admitted)
        if not dead.isdisjoint(admissions + _added(strain.isolated_now, isolated)):
            breach(("brood admitted or isolated a dead genotype", spreader))
        fitness = shared.fitness_cache.get(spreader)
        self.broods.append(Brood(strain, spreader, wide, fitness, step[1], admissions, len(dead)))


@pytest.fixture
def engine_probe(monkeypatch) -> EngineProbe:
    """The tests' one patch of cvoa.engine.infect and cvoa.multistrain.SharedLedger."""
    probe = EngineProbe(cvoa.engine.infect)
    monkeypatch.setattr(cvoa.engine, "infect", probe.infect)
    monkeypatch.setattr(cvoa.multistrain, "SharedLedger", probe.ledger)
    return probe


def uniform(strains=1, pz_strategy=PzStrategy.MAX_HAMMING_SPREAD, **fields):
    """A config of `strains` strains that share every parameter but the seed."""
    return MultiStrainConfig.uniform(EpidemicParameters(strains=strains, **fields), pz_strategy)


class ScoredOnce:
    """`codec`, failing when a genotype is scored a second time."""

    def __init__(self, codec):
        self.codec, self.scored = codec, set()

    def __getattr__(self, name):
        return getattr(self.codec, name)

    def fitness(self, genotype):
        assert genotype not in self.scored, f"{genotype!r} scored twice"
        self.scored.add(genotype)
        return self.codec.fitness(genotype)


def same_as_reference(codec, config, stop=None):
    """Check the pandemic of `config`, scored by `codec` and stopped at
    `stop`, against the reference model: each genotype scored once, after
    every strain step the same infected in order, dead, recovered, scored
    genotypes in order, best, history row, termination and stream state,
    and the same PandemicResult; for one strain without a goal, the same
    result from `run_strain`."""
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

    with patch.object(cvoa.engine.Strain, "step", recording):
        result = run_pandemic(config, ScoredOnce(codec), stop_fitness=stop)
    expected_steps, expected = reference.run(config.parameters, config.pz_strategy, codec, stop)
    for i, (engine, model) in enumerate(zip(steps, expected_steps)):
        assert engine == model, f"strain step {i + 1}"
    assert len(steps) == len(expected_steps)
    assert result == expected
    if len(config.parameters) == 1 and stop is None:
        assert run_strain(config.parameters[0], codec) == expected[1][0]


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
    pytest.param(replying('{"fitness": NaN}'), "non-finite", id="nan"),
    pytest.param("import sys; sys.exit(3)", "exited 3", id="nonzero-exit"),
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


class FailOnKth:
    """A 20-bit BinaryCodec whose k-th fitness evaluation raises."""

    def __init__(self, k):
        self.inner = BinaryCodec(bits=20)
        self.k = k
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def fitness(self, genotype):
        self.calls += 1
        if self.calls == self.k:
            raise EvaluationError(f"synthetic failure at evaluation {self.k}")
        return self.inner.fitness(genotype)
