"""One strain's epidemic iteration.

A Strain holds one strain's populations between iterations. Its driver,
multistrain.run_pandemic (the only one), scores the patient zero, builds
the Strain and steps it. Each step: infected that another strain has
buried since are dropped, the dying are removed from the infected set and
buried, every surviving spreader breeds a brood of candidate infections
in one call of the codec's replicate operator (the fittest share of
spreaders with the super-spreader range), each candidate is routed
through isolation / reinfection bookkeeping as the brood yields it (by
_route, the one statement of the rule; new_infection routes one
candidate through it), the newly evaluated individuals update the
best-so-far, isolates either die or recover, the spreaders recover, and
the new infections become the next generation. The step that empties the
infected set (extinction) or completes the configured duration ends the
strain and records why in `termination`; the driver records a goal.

Every population a loop draws random numbers over is kept in discovery
order: an insertion-ordered dict admits each genotype in the order the
strain first met it, so a fixed seed reproduces a run exactly, whatever
the genotypes' hashes. The one other order is the spreaders' fitness
rank, a stable sort of discovery order, and every fitness tie (among the
spreaders, and in Objective.best, which picks every best) goes to the
first in list order. Genotypes are never compared by anything but
equality. Strain.step is the one place that sets these orders; die and
resolve_isolates draw in the order they are given.
"""

from __future__ import annotations

import math
from enum import Enum
from random import Random
from typing import Any, Iterable, NamedTuple

from .codec import Codec, EvaluatedIndividual, EvaluationError
from .params import DistanceMode, EpidemicParameters, Objective, randbelow

_ORDINARY = DistanceMode.ORDINARY
_TRAVELER = DistanceMode.TRAVELER


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
        """Memoized fitness of one genotype, by evaluate_all."""
        return self.evaluate_all(codec, [genotype])[0]

    def evaluate_all(self, codec: Codec, genotypes: list) -> list[float]:
        """Memoized fitness of each genotype; the one place a score enters.

        The uncached genotypes are scored once each, in list order, by one
        call of the codec's `fitness_all` hook, or else by `fitness` one at
        a time. Each score is checked and cached as it pairs with its
        genotype; a failure, a non-finite score or a batch of the wrong
        size is raised once the scores before it are cached.
        """
        cache = self.fitness_cache
        uncached = [g for g in dict.fromkeys(genotypes) if g not in cache]
        if uncached:
            fitness_all = getattr(codec, "fitness_all", None)
            scores = iter(fitness_all(uncached) if fitness_all else map(codec.fitness, uncached))
            cached = len(cache)
            # zip reads uncached first, so a surplus score stays in `scores`
            for genotype, value in zip(uncached, scores):
                if not (isinstance(value, int) or math.isfinite(value)):
                    raise EvaluationError(f"non-finite fitness {value!r} for {genotype!r}")
                cache[genotype] = value
            # each paired score cached one new genotype
            returned = len(cache) - cached + sum(1 for _ in scores)
            if returned != len(uncached):
                raise EvaluationError(
                    f"fitness_all returned {returned} scores for {len(uncached)} genotypes"
                )
        return [cache[g] for g in genotypes]


class IterationRecord(NamedTuple):
    iteration: int
    deaths_total: int
    recovered_total: int
    infected_count: int
    best_fitness: float
    evaluations_total: int


class StrainResult(NamedTuple):
    best: EvaluatedIndividual
    history: list[IterationRecord]
    # None: an evaluation failed while the strain was still active
    termination: Termination | None


def die(infected: Iterable[Any], params: EpidemicParameters, rng: Random) -> set:
    """Select each infected individual for death independently with p_die,
    drawing in the order given (Strain.step passes discovery order)."""
    return {g for g in infected if rng.random() < params.p_die}


def _route(strain: Strain, candidates: Iterable[Any]) -> None:
    """Route each candidate as `candidates` yields it: ignore the dead and
    this iteration's repeats, isolate or admit the fresh (one draw against
    p_isolation), and give recovered candidates their reinfection chance
    (one draw against p_reinfection). An isolate enters the recovered
    population at once and takes its death draw at the end of the
    iteration (resolve_isolates)."""
    params, shared = strain.params, strain.shared
    dead, recovered = shared.dead, shared.recovered
    new_infected, isolated_now = strain.new_infected, strain.isolated_now
    p_isolation, p_reinfection = params.p_isolation, params.p_reinfection
    random = strain.rng.random
    for candidate in candidates:
        if candidate in dead or candidate in new_infected:
            continue
        if candidate not in recovered:
            if random() > p_isolation:
                new_infected[candidate] = None
            else:
                recovered.add(candidate)
                isolated_now[candidate] = None
        elif random() < p_reinfection:
            recovered.remove(candidate)
            new_infected[candidate] = None


def new_infection(strain: Strain, candidate: Any) -> Disposition:
    """Route one candidate, and say which way it went."""
    was_recovered = candidate in strain.shared.recovered
    admitted, isolated = len(strain.new_infected), len(strain.isolated_now)
    _route(strain, (candidate,))
    if len(strain.isolated_now) > isolated:
        return Disposition.ISOLATED
    if len(strain.new_infected) > admitted:
        return Disposition.REINFECTED if was_recovered else Disposition.ADDED_TO_NEW_INFECTED
    return Disposition.IGNORED


def infect(strain: Strain, individual: Any, wide: bool) -> None:
    """Spread from one individual: one travel draw decides the move
    distance for the whole brood, then one draw its candidate count, from
    the super-spreader range if `wide`, else the ordinary range. The codec
    breeds the brood lazily, and each candidate is routed before the next
    is drawn."""
    params, rng = strain.params, strain.rng
    traveling = rng.random() < params.p_travel
    lo, hi = params.superspreader_spread_range if wide else params.ordinary_spread_range
    count = lo + randbelow(rng, hi - lo + 1)  # rng.randint(lo, hi), draw for draw
    mode = _TRAVELER if traveling else _ORDINARY
    _route(strain, strain.codec.replicate(individual, mode, count, params.traveler_rate, rng))


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


class Strain:
    """One strain's state between iterations; step() runs one iteration.

    The strain starts from a patient zero that its driver has already
    scored. Its populations are dicts used as insertion-ordered sets (keys
    only); recovered and dead live in the shared ledger. `termination` is
    None while the strain is live; a step that raises leaves it None.
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
        self.best = patient_zero
        self.termination: Termination | None = None

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
            index = params.objective.best(range(len(values)), key=values.__getitem__)
            if params.objective.better(values[index], self.best.fitness):
                self.best = EvaluatedIndividual(fresh[index], values[index])

        resolve_isolates(self, isolates)
        shared.recover_all(self.infected)
        self.infected = self.new_infected
        self.new_infected = {}

        deaths_total, recovered_total = shared.counts()
        self.history.append(
            IterationRecord(
                iteration=len(self.history) + 1,
                deaths_total=deaths_total,
                recovered_total=recovered_total,
                infected_count=len(self.infected),
                best_fitness=self.best.fitness,
                evaluations_total=shared.evaluations_total(),
            )
        )
        if not self.infected:
            self.termination = Termination.EXTINCTION
        elif len(self.history) == params.pandemic_duration:
            self.termination = Termination.DURATION_REACHED

