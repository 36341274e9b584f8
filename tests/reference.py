"""A plain model of one pandemic, to check the engine against: the
iteration that README.md states and the lockstep driver of `run_pandemic`,
with lists and sets and nothing cached or bound for speed. The codec's
`replicate` and `fitness` and `seed_patient_zeros` are black boxes; every
other rule is stated here. Its records are plain tuples and lists that
equal the engine's field for field."""

import math
from random import Random
from types import SimpleNamespace

from cvoa import DistanceMode, Objective, Termination
from cvoa.multistrain import seed_patient_zeros


class Pandemic:
    """The ledger that every strain shares, and the strains' steps."""

    def __init__(self, codec, objective):
        self.codec = codec
        self.sign = 1 if objective is Objective.MINIMIZE else -1
        self.dead, self.recovered = set(), set()
        self.recoveries = 0  # every move into recovered, so it never falls
        self.fitness = {}  # in the order each genotype was first scored
        self.steps = []  # the state after each strain step

    def better(self, a, b):
        return self.sign * a < self.sign * b

    def score(self, genotypes):  # each genotype not scored yet, in order
        self.fitness.update({g: self.codec.fitness(g) for g in genotypes if g not in self.fitness})

    def survivors(self, genotypes, p_die, rng):
        """Each genotype dies with p_die, drawn in the order given; the dead are buried."""
        alive = []
        for genotype in genotypes:
            if rng.random() < p_die:
                self.dead.add(genotype)
                self.recovered.discard(genotype)
            else:
                alive.append(genotype)
        return alive

    def step(self, strain):
        p, rng = strain.params, strain.rng
        # an infected that another strain buried since takes no part; each
        # other one takes its death draw, in discovery order, before anyone spreads
        spreaders = self.survivors([g for g in strain.infected if g not in self.dead], p.p_die, rng)
        # fittest first, a stable sort keeping ties in discovery order; the
        # first ceil(share) spread wide, float noise rounded away first
        ranked = sorted(spreaders, key=lambda g: self.sign * self.fitness[g])
        wide = math.ceil(round(p.p_superspreader * len(spreaders), 9))
        new_infected, isolated = [], []
        for rank, spreader in enumerate(ranked):
            traveling = rng.random() < p.p_travel
            lo, hi = p.superspreader_spread_range if rank < wide else p.ordinary_spread_range
            count = rng.randint(lo, hi)
            mode = DistanceMode.TRAVELER if traveling else DistanceMode.ORDINARY
            # each child is routed before the next is drawn
            for child in self.codec.replicate(spreader, mode, count, p.traveler_rate, rng):
                if child in self.dead or child in new_infected:
                    continue
                if child not in self.recovered:
                    if rng.random() > p.p_isolation:
                        new_infected.append(child)
                    else:
                        self.recovered.add(child)
                        isolated.append(child)
                elif rng.random() < p.p_reinfection:
                    self.recovered.remove(child)
                    new_infected.append(child)
        # an isolate infected again, or spreading this step, takes no death draw
        isolates = [g for g in isolated if g not in new_infected and g not in spreaders]
        self.score(new_infected + isolates)
        for genotype in new_infected + isolates:
            if self.better(self.fitness[genotype], strain.best[1]):
                strain.best = (genotype, self.fitness[genotype])
        recovering = set(self.survivors(isolates, p.p_die, rng) + spreaders)
        self.recovered |= recovering
        self.recoveries += len(recovering)
        strain.infected = new_infected
        n = len(strain.history) + 1
        strain.history.append((n, len(self.dead), self.recoveries, len(new_infected),
                               strain.best[1], len(self.fitness)))
        if not new_infected:
            strain.termination = Termination.EXTINCTION
        elif n == p.pandemic_duration:
            strain.termination = Termination.DURATION_REACHED
        self.steps.append((p.seed, list(new_infected), set(self.dead), set(self.recovered),
                           list(self.fitness), strain.best, strain.history[-1],
                           strain.termination, rng.getstate()))


def run(parameters, pz_strategy, codec, stop_fitness=None):
    """(the state after each strain step, the PandemicResult) of a pandemic."""
    pandemic = Pandemic(codec, parameters[0].objective)
    rng = Random(parameters[0].seed)
    zeros = seed_patient_zeros(len(parameters), codec, pz_strategy, rng)
    pandemic.score(zeros)
    rngs = [rng] + [Random(p.seed) for p in parameters[1:]]
    strains = [SimpleNamespace(params=p, rng=r, infected=[g], best=(g, pandemic.fitness[g]),
                               history=[], termination=None)
               for p, r, g in zip(parameters, rngs, zeros)]

    def best_of(individuals):  # the first of the tied
        best = individuals[0]
        for individual in individuals:
            if pandemic.better(individual[1], best[1]):
                best = individual
        return best

    def at_goal(fitness):
        return stop_fitness is not None and pandemic.sign * fitness <= pandemic.sign * stop_fitness

    initial_best = best_of([s.best for s in strains])[1]
    goal = at_goal(initial_best)
    # rounds: each live strain steps in strain order, until the goal or no strain is live
    while not goal and any(s.termination is None for s in strains):
        for strain in strains:
            if strain.termination is None:
                pandemic.step(strain)
                if at_goal(strain.best[1]):
                    goal = True
                    # the goal outranks the end of the reaching strain's own step
                    strain.termination = Termination.GOAL_REACHED
                    break
    for strain in strains:
        if goal and strain.termination is None:
            strain.termination = Termination.GOAL_REACHED

    # row i of the merged history: the counters of the latest rows, the
    # infected summed, the best carried over every row so far
    merged, carried = [], None
    for i in range(max(len(s.history) for s in strains)):
        rows = [s.history[i] for s in strains if len(s.history) > i]
        for row in rows:
            if carried is None or pandemic.better(row[4], carried):
                carried = row[4]
        _, deaths, recovered, infected, _, scored = zip(*rows)
        merged.append((i + 1, max(deaths), max(recovered), sum(infected), carried, max(scored)))
    extinct = all(s.termination is Termination.EXTINCTION for s in strains)
    termination = (Termination.GOAL_REACHED if goal else Termination.EXTINCTION if extinct
                   else Termination.DURATION_REACHED)
    return pandemic.steps, (
        best_of([s.best for s in strains]), [(s.best, s.history, s.termination) for s in strains],
        merged, initial_best, len(pandemic.fitness), len(pandemic.dead), pandemic.recoveries,
        termination,
    )
