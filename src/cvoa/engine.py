"""One strain's epidemic iteration.

A Strain holds one strain's populations between iterations. Its driver,
multistrain.run_pandemic (the only one), scores the patient zero, builds
the Strain and steps it. Each step: infected that another strain has
buried since are dropped, the dying are removed from the infected set and
buried, every surviving spreader produces candidate infections through the
codec's replicate operator (the fittest share of spreaders with the
super-spreader range), candidates are routed through isolation /
reinfection bookkeeping, the newly evaluated individuals update the
best-so-far, isolates either die or recover, the spreaders recover, and
the new infections become the next generation. The strain ends when the
infected set empties (extinction) or the configured duration elapses.

Every population a loop draws random numbers over is kept in discovery
order: an insertion-ordered dict admits each genotype in the order the
strain first met it, so a fixed seed reproduces a run exactly, whatever
the genotypes' hashes. The one other order is the spreaders' fitness
rank, a stable sort of discovery order, and every fitness tie (among the
spreaders, in best_of and in select_best) goes to the first in list
order. Genotypes are never compared by anything but equality. Strain.step
is the one place that sets these orders; die and resolve_isolates draw
in the order they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Any, Iterable

from .codec import Codec, EvaluatedIndividual, EvaluationError
from .params import DistanceMode, EpidemicParameters, Objective, randbelow


class Disposition(Enum):
    ADDED_TO_NEW_INFECTED = "added_to_new_infected"
    ISOLATED = "isolated"
    REINFECTED = "reinfected"
    IGNORED = "ignored"


class Termination(Enum):
    EXTINCTION = "extinction"
    DURATION_REACHED = "duration_reached"
    # run_pandemic(stop_fitness=...) stopped the run at its goal
    GOAL_REACHED = "goal_reached"


class SharedLedger:
    """Recovered/dead membership plus the fitness memo, shared by strains.

    One thread only: the strains that share a ledger take turns on the
    caller's thread, and each compound transition (a burial, the
    remove-then-add step of reinfection) runs whole before another strain
    looks, so dead and recovered stay disjoint. A codec's fitness_all
    hook may score a batch on worker threads, but those never touch the
    ledger: the ledger stores the scores the batch returns.
    `recoveries` counts every move into the recovered population, so it
    never falls when a recovered individual is reinfected or dies.
    """

    def __init__(self) -> None:
        self.recovered: set = set()
        self.dead: set = set()
        self.recoveries = 0
        self.fitness_cache: dict[Any, float] = {}

    def bury(self, genotype: Any) -> None:
        self.dead.add(genotype)
        self.recovered.discard(genotype)

    def recover_all(self, genotypes: Iterable[Any]) -> None:
        """Move each genotype not dead into the recovered population, and
        count each such move."""
        alive = set(genotypes) - self.dead
        self.recovered |= alive
        self.recoveries += len(alive)

    def counts(self) -> tuple[int, int]:
        """(deaths so far, recoveries so far); both are cumulative."""
        return len(self.dead), self.recoveries

    def evaluations_total(self) -> int:
        return len(self.fitness_cache)

    def evaluate(self, codec: Codec, genotype: Any) -> float:
        """Memoized fitness; a non-finite result is an error, never cached."""
        if genotype in self.fitness_cache:
            return self.fitness_cache[genotype]
        value = codec.fitness(genotype)
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite fitness {value!r} for {genotype!r}")
        self.fitness_cache[genotype] = value
        return value

    def evaluate_all(self, codec: Codec, genotypes: list) -> list[float]:
        """Memoized fitness of each genotype, evaluated in list order.

        A codec with a `fitness_all` hook scores every uncached genotype
        in one call, each once and in list order; the scores before the
        first failure are cached, and that failure is raised. A hook that
        returns more or fewer scores than it was given genotypes fails
        too, once the scores that pair up are cached.
        """
        fitness_all = getattr(codec, "fitness_all", None)
        if fitness_all is not None:
            uncached = list(dict.fromkeys(g for g in genotypes if g not in self.fitness_cache))
            if uncached:
                cached = len(self.fitness_cache)
                scores = iter(fitness_all(uncached))
                # zip reads uncached first, so a surplus score stays in `scores`
                for genotype, value in zip(uncached, scores):
                    if not math.isfinite(value):
                        raise EvaluationError(f"non-finite fitness {value!r} for {genotype!r}")
                    self.fitness_cache[genotype] = value
                # each paired score cached one new genotype
                returned = len(self.fitness_cache) - cached + sum(1 for _ in scores)
                if returned != len(uncached):
                    raise EvaluationError(
                        f"fitness_all returned {returned} scores for {len(uncached)} genotypes"
                    )
        return [self.evaluate(codec, g) for g in genotypes]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    deaths_total: int
    recovered_total: int
    infected_count: int
    best_fitness: float
    evaluations_total: int


@dataclass
class StrainResult:
    best: EvaluatedIndividual
    history: list[IterationRecord]
    # None: an evaluation failed while the strain was still active
    termination: Termination | None


def die(infected: Iterable[Any], params: EpidemicParameters, rng: Random) -> set:
    """Select each infected individual for death independently with p_die,
    drawing in the order given (Strain.step passes discovery order)."""
    return {g for g in infected if rng.random() < params.p_die}


def new_infection(strain: Strain, candidate: Any) -> Disposition:
    """Route one candidate: ignore the dead and this iteration's repeats,
    isolate or admit the fresh, and give recovered candidates their
    reinfection chance. An isolate enters the recovered population at once
    and takes its death draw at the end of the iteration (resolve_isolates)."""
    shared = strain.shared
    if candidate in shared.dead or candidate in strain.new_infected:
        return Disposition.IGNORED
    if candidate not in shared.recovered:
        if strain.rng.random() > strain.params.p_isolation:
            strain.new_infected[candidate] = None
            return Disposition.ADDED_TO_NEW_INFECTED
        shared.recovered.add(candidate)
        strain.isolated_now[candidate] = None
        return Disposition.ISOLATED
    if strain.rng.random() < strain.params.p_reinfection:
        shared.recovered.remove(candidate)
        strain.new_infected[candidate] = None
        return Disposition.REINFECTED
    return Disposition.IGNORED


def infect(strain: Strain, individual: Any, wide: bool) -> None:
    """Spread from one individual: one travel draw decides the move
    distance for the whole brood, then one draw its candidate count, from
    the super-spreader range if `wide`, else the ordinary range; each
    candidate is routed through new_infection."""
    params, rng = strain.params, strain.rng
    traveling = rng.random() < params.p_travel
    lo, hi = params.superspreader_spread_range if wide else params.ordinary_spread_range
    count = lo + randbelow(rng, hi - lo + 1)  # rng.randint(lo, hi), draw for draw
    mode = DistanceMode.TRAVELER if traveling else DistanceMode.ORDINARY
    replicate = strain.codec.replicate
    traveler_rate = params.traveler_rate
    for _ in range(count):
        candidate = replicate(individual, mode, traveler_rate, rng)
        # a module-global lookup on every candidate, so a wrapper of it sees each one
        new_infection(strain, candidate)


def resolve_isolates(strain: Strain, isolates: Iterable[Any]) -> set:
    """End-of-iteration fate of this iteration's isolates: each one not
    itself a spreader (spreaders took their draw already) dies with p_die
    or recovers. Returns the buried ones.

    `isolates` is this iteration's isolates not reinfected meanwhile, in
    the order Strain.step sets (discovery order); die() draws in it."""
    shared = strain.shared
    isolates = [g for g in isolates if g not in strain.infected]
    dying = die(isolates, strain.params, strain.rng)
    for genotype in dying:
        shared.bury(genotype)
    shared.recover_all(isolates)
    return dying


def superspreader_count(p_superspreader: float, spreaders: int) -> int:
    """ceil(p_superspreader * spreaders), with float noise rounded away
    first so that 10% of 30 spreaders is 3, not 4."""
    return math.ceil(round(p_superspreader * spreaders, 9))


def best_of(genotypes: list, values: list[float], objective: Objective) -> tuple[Any, float]:
    """The (genotype, fitness) pair optimal under the objective, from
    parallel non-empty lists; ties go to the first in list order."""
    pick = min if objective is Objective.MINIMIZE else max
    index = pick(range(len(values)), key=values.__getitem__)
    return genotypes[index], values[index]


def select_best(
    population: Iterable[EvaluatedIndividual], objective: Objective
) -> EvaluatedIndividual:
    """Optimal individual under the objective, by best_of's rule."""
    population = list(population)
    genotype, fitness = best_of(
        [e.genotype for e in population], [e.fitness for e in population], objective
    )
    return EvaluatedIndividual(genotype, fitness)


class Strain:
    """One strain's state between iterations; step() runs one iteration.

    The strain starts from a patient zero that its driver has already
    scored. Its populations are dicts used as insertion-ordered sets (keys
    only); recovered and dead live in the shared ledger. A step that
    raises leaves the strain active.
    """

    def __init__(
        self,
        params: EpidemicParameters,
        codec: Codec,
        rng: Random,
        shared: SharedLedger,
        patient_zero: EvaluatedIndividual,
    ) -> None:
        self.params = params
        self.codec = codec
        self.rng = rng
        self.shared = shared
        self.infected: dict = {patient_zero.genotype: None}
        self.new_infected: dict = {}
        self.isolated_now: dict = {}
        self.history: list[IterationRecord] = []
        self.iteration = 0
        self.best = patient_zero

    @property
    def active(self) -> bool:
        return self.iteration < self.params.pandemic_duration and bool(self.infected)

    def result(self) -> StrainResult:
        if self.active:
            termination = None
        elif not self.infected:
            termination = Termination.EXTINCTION
        else:
            termination = Termination.DURATION_REACHED
        return StrainResult(best=self.best, history=self.history, termination=termination)

    def step(self) -> None:
        params, shared = self.params, self.shared

        # another strain may have buried some of this strain's infected
        alive = [g for g in self.infected if g not in shared.dead]
        dying = die(alive, params, self.rng)
        for genotype in dying:
            shared.bury(genotype)
        self.infected = dict.fromkeys(g for g in alive if g not in dying)

        self.new_infected = {}
        self.isolated_now = {}
        superspreaders = superspreader_count(params.p_superspreader, len(self.infected))
        # fittest first: a stable sort of discovery order, which reverse=True
        # keeps too, so ties stay in discovery order under either objective
        spreaders = sorted(
            self.infected,
            key=shared.fitness_cache.__getitem__,
            reverse=params.objective is Objective.MAXIMIZE,
        )
        for rank, spreader in enumerate(spreaders):
            infect(self, spreader, rank < superspreaders)

        isolates = [g for g in self.isolated_now if g not in self.new_infected]
        fresh = [*self.new_infected, *isolates]
        if fresh:
            values = shared.evaluate_all(self.codec, fresh)
            genotype, value = best_of(fresh, values, params.objective)
            if params.objective.better(value, self.best.fitness):
                # only the winner is wrapped: evaluate() rejected non-finite values
                self.best = EvaluatedIndividual(genotype, value)

        resolve_isolates(self, isolates)
        shared.recover_all(self.infected)
        self.infected = self.new_infected
        self.new_infected = {}
        self.iteration += 1

        deaths_total, recovered_total = shared.counts()
        self.history.append(
            IterationRecord(
                iteration=self.iteration,
                deaths_total=deaths_total,
                recovered_total=recovered_total,
                infected_count=len(self.infected),
                best_fitness=self.best.fitness,
                evaluations_total=shared.evaluations_total(),
            )
        )

