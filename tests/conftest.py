"""The engine probe: the ledger rules, stated once and checked on every brood."""

from itertools import islice
from typing import Any, NamedTuple

import pytest

import cvoa.engine
import cvoa.multistrain


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
