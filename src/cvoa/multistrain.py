"""Pandemics of one or more strains over a shared recovered/dead ledger.

run_pandemic is the only driver; run_strain is its one-strain case. Each
strain has its own random stream and patient zero; all strains share one
SharedLedger so a genotype killed or recovered by any strain throttles
every other strain too. The strains advance in lockstep on one thread:
one iteration of each strain in strain order, then the next round, so a
fixed seed reproduces the whole pandemic. Patient zeros are drawn at
random, a repeat redrawn, or spread apart by a greedy farthest-point pass
so the strains start in distant regions of the search space.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import zip_longest
from operator import attrgetter
from random import Random
from typing import NamedTuple

from .codec import Codec, EvaluatedIndividual, EvaluationError
from .engine import (
    IterationRecord,
    Objective,
    SharedLedger,
    Strain,
    StrainResult,
    Termination,
)
from .params import EpidemicParameters, Validated

STRAIN_SEED_STRIDE = 1_000_003


class PzStrategy(Enum):
    RANDOM = "random"
    MAX_HAMMING_SPREAD = "max_hamming_spread"


class _MultiStrainConfigFields(NamedTuple):
    parameters: tuple[EpidemicParameters, ...]
    pz_strategy: PzStrategy = PzStrategy.MAX_HAMMING_SPREAD


class MultiStrainConfig(Validated, _MultiStrainConfigFields):
    __slots__ = ()

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ValueError("at least one strain required")
        for params in self.parameters:
            # an EpidemicParameters checked its own fields when it was built
            if not isinstance(params, EpidemicParameters):
                raise ValueError(f"each strain needs EpidemicParameters, got {params!r}")
        seeds = [p.seed for p in self.parameters]
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"strain seeds must be pairwise distinct, got {seeds}")
        objectives = [p.objective.value for p in self.parameters]
        if len(set(objectives)) != 1:
            # one pandemic picks one best, so its strains must rank alike
            raise ValueError(f"strains must share one objective, got {objectives}")
        if not isinstance(self.pz_strategy, PzStrategy):
            raise ValueError(f"pz_strategy must be a PzStrategy, got {self.pz_strategy!r}")

    @classmethod
    def uniform(
        cls,
        params: EpidemicParameters,
        pz_strategy: PzStrategy = _MultiStrainConfigFields._field_defaults["pz_strategy"],
    ) -> "MultiStrainConfig":
        """Same parameters for every strain, seeds fanned out from params.seed;
        a ParameterError names any strain's seed outside [0, 2**64)."""
        per_strain = tuple(
            params.with_seed(params.seed + j * STRAIN_SEED_STRIDE) for j in range(params.strains)
        )
        return cls(parameters=per_strain, pz_strategy=pz_strategy)


class PandemicResult(NamedTuple):
    best: EvaluatedIndividual | None
    strains: list[StrainResult]
    history: list[IterationRecord]
    initial_best: float | None
    evaluations_total: int
    dead_total: int
    recovered_total: int
    termination: Termination | None


def seed_patient_zeros(n: int, codec: Codec, strategy: PzStrategy, rng: Random) -> list:
    """n distinct starting genotypes, found among the first 50*n draws, or a
    ValueError. RANDOM keeps each draw not drawn before until it has n.
    MAX_HAMMING_SPREAD draws all 50*n and greedily maximizes the minimum
    pairwise codec distance: each pick is the first pool member farthest
    from all earlier picks, never one already picked."""
    if n < 1:
        raise ValueError(f"need at least one patient zero, got {n}")
    draws = 50 * n
    if strategy is PzStrategy.RANDOM or n == 1:
        drawn: dict = {}
        for _ in range(draws):
            drawn[codec.generate_patient_zero(rng)] = None
            if len(drawn) == n:
                return list(drawn)
        distinct = len(drawn)
    else:
        pool = [codec.generate_patient_zero(rng) for _ in range(draws)]
        distinct = len(set(pool))
    if distinct < n:
        raise ValueError(
            f"{n} patient zeros need {n} distinct genotypes, "
            f"but the first {draws} draws gave {distinct}"
        )
    chosen = [pool[rng.randrange(len(pool))]]
    # each pool member's distance to its nearest pick so far; a pick's
    # copies rank below every other member
    nearest = [float("inf")] * len(pool)
    while len(chosen) < n:
        last = chosen[-1]
        nearest = [
            -1 if c == last else min(d, codec.distance(c, last)) for d, c in zip(nearest, pool)
        ]
        # max() keeps the first of equal distances: the earliest in the pool
        chosen.append(pool[max(range(len(pool)), key=nearest.__getitem__)])
    return chosen


def _merge_histories(
    per_strain: list[list[IterationRecord]], objective: Objective
) -> list[IterationRecord]:
    """Pandemic-level trace: row i is lockstep round i's last strain step,
    which holds the latest ledger counters, with the infected counts of the
    strains that stepped summed and the best fitness carried monotonically."""
    merged: list[IterationRecord] = []
    best: float | None = None
    for round_ in zip_longest(*per_strain):
        rows = [r for r in round_ if r is not None]
        for r in rows:
            if best is None or objective.better(r.best_fitness, best):
                best = r.best_fitness
        infected = sum(r.infected_count for r in rows)
        merged.append(rows[-1]._replace(infected_count=infected, best_fitness=best))
    return merged


def run_pandemic(
    config: MultiStrainConfig,
    codec: Codec,
    *,
    stop_fitness: float | None = None,
) -> PandemicResult:
    """Run all strains in lockstep against one shared ledger.

    Each round advances every live strain by one iteration, in strain
    order. The pandemic stops when no strain is live, or as soon as a
    strain's best is at least as good as `stop_fitness`; it then reports
    GOAL_REACHED, as do the strain that reached the goal and every strain
    still live (a patient zero at the goal stops it before any step). A
    NaN `stop_fitness` is rejected before any draw. The first strain
    continues the stream that drew the patient zeros. The patient zeros
    are scored as one batch.

    An evaluation error stops the pandemic. The raised error carries a
    PandemicResult with the histories so far, in which every strain still
    active reports termination None; when the patient-zero batch failed,
    it holds no strains and initial_best is None.
    """
    if stop_fitness is not None and math.isnan(stop_fitness):
        raise ValueError("stop_fitness must not be NaN")
    base = config.parameters[0]
    objective = base.objective
    shared = SharedLedger()
    pandemic_rng = Random(base.seed)
    pzs = seed_patient_zeros(len(config.parameters), codec, config.pz_strategy, pandemic_rng)
    rngs = [pandemic_rng] + [Random(p.seed) for p in config.parameters[1:]]

    def reached_goal(fitness: float) -> bool:
        return stop_fitness is not None and not objective.better(stop_fitness, fitness)

    by_fitness = attrgetter("fitness")
    cohort: list[Strain] = []
    initial_best: float | None = None
    error: EvaluationError | None = None
    goal = False
    try:
        fitnesses = shared.evaluate_all(codec, pzs)
        cohort = [
            Strain(params, codec, rng, shared, EvaluatedIndividual(pz, fitness))
            for params, rng, pz, fitness in zip(config.parameters, rngs, pzs, fitnesses)
        ]
        initial_best = objective.best([s.best for s in cohort], key=by_fitness).fitness
        goal = reached_goal(initial_best)
        while not goal and any(s.termination is None for s in cohort):
            for strain in cohort:
                if strain.termination is None:
                    strain.step()
                    goal = reached_goal(strain.best.fitness)
                    if goal:
                        # the goal outranks the extinction or duration that ended this step
                        strain.termination = Termination.GOAL_REACHED
                        break
        if goal:
            for strain in cohort:
                if strain.termination is None:
                    strain.termination = Termination.GOAL_REACHED
    except EvaluationError as exc:
        error = exc

    results = [StrainResult(s.best, s.history, s.termination) for s in cohort]
    dead_total, recovered_total = shared.counts()
    if error is not None:
        termination: Termination | None = None
    elif goal:
        termination = Termination.GOAL_REACHED
    elif all(r.termination is Termination.EXTINCTION for r in results):
        termination = Termination.EXTINCTION
    else:
        termination = Termination.DURATION_REACHED

    result = PandemicResult(
        # the first of tied strains wins; no strain was built if the patient zeros failed
        best=objective.best([r.best for r in results], key=by_fitness) if results else None,
        strains=results,
        history=_merge_histories([r.history for r in results], objective),
        initial_best=initial_best,
        evaluations_total=shared.evaluations_total(),
        dead_total=dead_total,
        recovered_total=recovered_total,
        termination=termination,
    )
    if error is not None:
        error.partial = result
        raise error
    return result


def run_strain(params: EpidemicParameters, codec: Codec) -> StrainResult:
    """One strain run as a one-strain pandemic, seeded by params.seed.

    A failed evaluation raises with run_pandemic's PandemicResult partial.
    """
    return run_pandemic(MultiStrainConfig((params,)), codec).strains[0]
