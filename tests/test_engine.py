"""Single-strain loop: phases, dispositions, bookkeeping, determinism."""

import math
from operator import attrgetter
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvoa import (
    BinaryCodec,
    Disposition,
    EpidemicParameters,
    EvaluatedIndividual,
    EvaluationError,
    NetCodec,
    Objective,
    PandemicResult,
    ParameterError,
    SharedLedger,
    Termination,
    die,
    infect,
    new_infection,
    run_pandemic,
    run_strain,
)
from cvoa.engine import Strain, superspreader_count
from conftest import Scored, same_as_reference, stepped_with_deaths, uniform

FITNESS = attrgetter("fitness")
B10, B20 = BinaryCodec(bits=10), BinaryCodec(bits=20)


class RecordingCodec:
    """BinaryCodec wrapper that records each child."""

    def __init__(self, bits=10, target=15):
        self.inner = BinaryCodec(bits=bits, target=target)
        self.children = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def replicate(self, parent, mode, count, traveler_rate, rng):
        # one entry per child, recorded as the child is drawn
        for child in self.inner.replicate(parent, mode, count, traveler_rate, rng):
            self.children.append(child)
            yield child


class BatchingCodec(RecordingCodec):
    """RecordingCodec with a fitness_all hook that scores a whole batch
    first, then yields the scores in order and raises at a failing one.
    A score through `fitness`, one by one, fails the test."""

    def __init__(self, failing=(), scores=None):
        super().__init__()
        self.batches = []
        self.failing = set(failing)
        self.scores = scores or {}

    def fitness_all(self, genotypes):
        self.batches.append(list(genotypes))
        outcomes = [
            EvaluationError(f"synthetic failure of {g!r}")
            if g in self.failing
            else self.scores.get(g, self.inner.fitness(g))
            for g in genotypes
        ]
        for outcome in outcomes:
            if isinstance(outcome, EvaluationError):
                raise outcome
            yield outcome

    def fitness(self, genotype):
        raise AssertionError(f"{genotype!r} scored one by one, past the batch hook")


def routing_strain(params=EpidemicParameters(), codec=None, rng=None):
    """A Strain on a fresh SharedLedger with nobody infected, for calling
    the routing helpers directly."""
    strain = Strain(params, codec, rng or Random(0), SharedLedger(), EvaluatedIndividual(0, 0.0))
    strain.infected = {}
    return strain


class TestDie:
    def test_nobody_dies_at_zero(self):
        assert die({1, 2, 3}, EpidemicParameters(p_die=0.0), Random(0)) == set()

    def test_everyone_dies_at_one(self):
        assert die({1, 2, 3}, EpidemicParameters(p_die=1.0), Random(0)) == {1, 2, 3}

    def test_returns_subset(self):
        population = set(range(100))
        dying = die(population, EpidemicParameters(p_die=0.3), Random(1))
        assert dying <= population

    def test_binomial_concentration(self):
        population = set(range(100_000))
        dying = die(population, EpidemicParameters(p_die=0.05), Random(2))
        sigma = math.sqrt(100_000 * 0.05 * 0.95)
        assert abs(len(dying) - 5000) <= 3 * sigma

    def test_draws_in_the_order_given(self):
        # die() owns no order: Strain.step sets it, so a reversed list draws reversed
        population = list(range(50))[::-1]
        rng = Random(3)
        clone = Random()
        clone.setstate(rng.getstate())
        expected = {g for g in population if clone.random() < 0.3}
        assert die(population, EpidemicParameters(p_die=0.3), rng) == expected


# the population moves each disposition makes, as
# (joins new_infected, joins recovered and isolated_now, leaves recovered)
MOVES = {
    Disposition.ADDED_TO_NEW_INFECTED: (True, False, False),
    Disposition.ISOLATED: (False, True, False),
    Disposition.REINFECTED: (True, False, True),
    Disposition.IGNORED: (False, False, False),
}


def check_routing(dead=(), recovered=(), candidates=(7,), p_isolation=0.0,
                  p_reinfection=0.0, seed=0):
    """Route each candidate in turn; check its disposition, its draws (by
    stream state) and the population moves its state says."""
    dead, recovered = set(dead), set(recovered)
    params = EpidemicParameters(p_isolation=p_isolation, p_reinfection=p_reinfection)
    strain = routing_strain(params, rng=Random(seed))
    strain.shared.dead |= dead
    strain.shared.recovered |= recovered - dead  # the ledger keeps them disjoint
    clone = Random(seed)
    for candidate in candidates:
        new_infected = list(strain.new_infected)
        isolated_now = list(strain.isolated_now)
        recovered_now = set(strain.shared.recovered)
        if candidate in dead or candidate in new_infected:
            expected = Disposition.IGNORED  # and no draw
        elif candidate in recovered_now:
            reinfected = clone.random() < p_reinfection
            expected = Disposition.REINFECTED if reinfected else Disposition.IGNORED
        else:
            admitted = clone.random() > p_isolation
            expected = Disposition.ADDED_TO_NEW_INFECTED if admitted else Disposition.ISOLATED

        assert new_infection(strain, candidate) is expected
        assert strain.rng.getstate() == clone.getstate()
        joins_infected, isolated, leaves_recovered = MOVES[expected]
        if joins_infected:
            new_infected.append(candidate)
        if isolated:
            recovered_now.add(candidate)
            isolated_now.append(candidate)
        if leaves_recovered:
            recovered_now.remove(candidate)
        assert list(strain.new_infected) == new_infected
        assert list(strain.isolated_now) == isolated_now
        assert strain.shared.recovered == recovered_now
        assert strain.shared.dead == dead
    return strain


class TestNewInfection:
    """Each disposition, on one candidate, through the routing rule's check."""

    def test_dead_candidate_ignored(self):
        assert 7 not in check_routing(dead={7}, p_reinfection=1.0).new_infected

    def test_fresh_candidate_admitted_without_isolation(self):
        assert list(check_routing().new_infected) == [7]

    def test_fresh_candidate_always_isolated_at_one(self):
        assert list(check_routing(p_isolation=1.0).isolated_now) == [7]

    def test_recovered_candidate_reinfected_at_one(self):
        assert list(check_routing(recovered={7}, p_reinfection=1.0).new_infected) == [7]

    def test_duplicate_candidate_gets_no_second_isolation_draw(self):
        # a second draw would move the stream past the clone's one draw
        assert list(check_routing(candidates=[7, 7]).new_infected) == [7]

    def test_recovered_candidate_ignored_without_reinfection(self):
        assert check_routing(recovered={7}).shared.recovered == {7}


class TestRoutingRule:
    """The routing rule stated here, apart from the engine's one loop."""

    @given(
        dead=st.sets(st.integers(0, 7)),
        recovered=st.sets(st.integers(0, 7)),
        candidates=st.lists(st.integers(0, 7), max_size=16),
        p_isolation=st.floats(0.0, 1.0),
        p_reinfection=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_candidate_takes_the_draws_and_moves_its_state_says(
        self, dead, recovered, candidates, p_isolation, p_reinfection, seed
    ):
        check_routing(dead, recovered, candidates, p_isolation, p_reinfection, seed)


class TestInfect:
    """Runs that reach each breeding rule, checked against the reference model."""

    def test_superspreader_uses_wide_range(self):
        same_as_reference(B20, uniform(p_isolation=0.0, pandemic_duration=1))

    def test_zero_width_ordinary_range_spreads_nothing(self):
        same_as_reference(B10, uniform(ordinary_spread_range=(0, 0), p_superspreader=0.0, seed=3))

    def test_forced_travel_uses_traveler_mode_for_whole_brood(self):
        same_as_reference(B20, uniform(p_travel=1.0, pandemic_duration=2))

    def test_no_travel_stays_ordinary(self):
        same_as_reference(B20, uniform(p_travel=0.0, pandemic_duration=2))

    def test_added_genotypes_land_in_new_infected(self):
        strain = routing_strain(EpidemicParameters(p_isolation=0.0), RecordingCodec(), Random(1))
        infect(strain, 5, True)
        # p_isolation 0 on an empty ledger: every new child is admitted, once, as bred
        admitted = list(dict.fromkeys(strain.codec.children))
        assert admitted and list(strain.new_infected) == admitted

    @pytest.mark.parametrize("wide", [True, False])
    def test_draws_travel_then_count_then_each_candidate(self, wide):
        config = uniform(p_travel=0.5, p_superspreader=float(wide), pandemic_duration=3)
        same_as_reference(B20, config)  # every spreader wide, or none


class TestSuperspreaders:
    def test_count_is_ceiling_of_share(self):
        assert superspreader_count(0.1, 0) == 0
        assert superspreader_count(0.1, 1) == 1
        assert superspreader_count(0.1, 10) == 1
        assert superspreader_count(0.1, 11) == 2
        assert superspreader_count(0.1, 30) == 3
        assert superspreader_count(0.0, 50) == 0
        assert superspreader_count(1.0, 7) == 7

    def test_lone_patient_zero_is_the_fittest_and_spreads_wide(self):
        same_as_reference(B20, uniform(p_die=0.0, pandemic_duration=1))

    def test_fittest_spreaders_take_the_wide_range(self):
        for objective in Objective:
            config = uniform(p_die=0.0, p_isolation=0.0, pandemic_duration=2, seed=1,
                             objective=objective)
            same_as_reference(B20, config)


class TestStepFates:
    """The end of Strain.step: which isolates take a death draw, and who
    recovers, in runs checked against the reference model."""

    def test_every_isolate_dies_at_total_mortality(self):
        # p_die 0.9 leaves spreaders alive to breed isolates
        same_as_reference(B10, uniform(p_isolation=1.0, p_die=0.9, seed=7))

    def test_surviving_isolates_count_as_recovered(self):
        same_as_reference(B10, uniform(p_isolation=1.0, p_die=0.0, pandemic_duration=1))

    def test_reinfected_isolate_is_not_buried_and_spreads_next_iteration(self):
        config = uniform(p_isolation=1.0, p_reinfection=1.0, p_die=0.5, seed=1)
        same_as_reference(BinaryCodec(bits=8), config)

    def test_spreader_isolated_by_its_own_strain_takes_no_second_death_draw(self):
        # a traveler at traveler_rate 0 is its parent: a self-hit, routed as fresh
        config = uniform(p_travel=1.0, traveler_rate=0, p_isolation=1.0, p_reinfection=0.0,
                         p_die=0.0, pandemic_duration=1)
        same_as_reference(NetCodec(NetCodec.generate_patient_zero(Random(0))), config)


class TestSelectBest:
    """Objective.best, which picks every best in the engine."""

    def test_minimize_picks_lowest(self):
        population = [
            EvaluatedIndividual(1, 4.0),
            EvaluatedIndividual(2, 1.0),
            EvaluatedIndividual(3, 0.0),
        ]
        assert Objective.MINIMIZE.best(population, key=FITNESS).fitness == 0.0

    def test_maximize_picks_highest(self):
        population = [
            EvaluatedIndividual(1, 4.0),
            EvaluatedIndividual(2, 9.0),
        ]
        assert Objective.MAXIMIZE.best(population, key=FITNESS).fitness == 9.0

    def test_singleton(self):
        only = EvaluatedIndividual(1, 4.0)
        assert Objective.MINIMIZE.best([only], key=FITNESS) == only

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            Objective.MINIMIZE.best([], key=FITNESS)

    def test_ties_break_deterministically(self):
        # the first in list order wins a tie, under either objective
        a = EvaluatedIndividual(100, 5.0)
        b = EvaluatedIndividual(7, 5.0)
        for objective in Objective:
            assert objective.best([a, b], key=FITNESS).genotype == 100
            assert objective.best([b, a], key=FITNESS).genotype == 7


class TieCodec:
    """Integer genotypes: the patient zero 10 spreads the two children in
    `brood`, in that order, and those two tie for the best fitness."""

    def __init__(self, brood, objective):
        self.brood = list(brood)
        self.sign = 1 if objective is Objective.MINIMIZE else -1

    def generate_patient_zero(self, rng):
        return 10

    def replicate(self, parent, mode, count, traveler_rate, rng):
        return iter(self.brood[:count])

    def fitness(self, genotype):
        return 0.0 if genotype in self.brood else self.sign * 1.0


class TestIterationBest:
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("brood", [(7, 3), (3, 7)])
    def test_fitness_tie_goes_to_the_first_discovered(self, objective, brood):
        ranges = dict(ordinary_spread_range=(2, 2), superspreader_spread_range=(2, 2))
        config = uniform(p_die=0.0, p_isolation=0.0, p_travel=0.0, pandemic_duration=1,
                         objective=objective, **ranges)
        same_as_reference(TieCodec(brood, objective), config)


class TestRunStrain:
    def test_total_mortality_ends_after_one_iteration(self):
        same_as_reference(B10, uniform(p_die=1.0))

    def test_total_mortality_buries_patient_zero(self):
        same_as_reference(B20, uniform(p_die=1.0, seed=1))

    @pytest.mark.parametrize(
        "invalid",
        [{"ordinary_spread_range": (5, 2)}, {"p_die": 2.0}, {"pandemic_duration": -1}],
    )
    def test_invalid_parameters_rejected_before_any_evaluation(self, invalid):
        codec = Scored()
        with pytest.raises(ParameterError):
            run_strain(EpidemicParameters(**invalid), codec)
        assert not codec.scores

    def test_universal_isolation_goes_extinct_immediately(self):
        same_as_reference(B10, uniform(p_isolation=1.0, p_reinfection=0.0, p_die=0.0))

    def test_fixed_seed_reproduces_everything(self):
        same_as_reference(B20, uniform(seed=6))

    def test_history_counters_monotone(self):
        same_as_reference(B20, uniform(seed=3))

    def test_recovered_total_never_falls_on_reinfection(self):
        same_as_reference(B20, uniform(seed=40))

    def test_best_matches_minimum_of_trace(self):
        same_as_reference(B20, uniform(seed=2))

    def test_extinction_iff_no_infected_remain(self):
        same_as_reference(B20, uniform(seed=5))

    def test_each_genotype_evaluated_at_most_once(self):
        same_as_reference(B20, uniform(seed=4))

    def test_dead_and_recovered_never_overlap(self):
        assert same_as_reference(B20, uniform(seed=6)).dead_total

    def test_dead_members_never_reenter_circulation(self):
        runs = (same_as_reference(B20, uniform(seed=seed)) for seed in range(5))
        assert stepped_with_deaths(*runs)

    def test_stop_fitness_halts_at_goal(self):
        same_as_reference(B10, uniform(seed=0), stop=0)

    def test_evaluation_error_carries_partial_history(self):
        params = EpidemicParameters(p_isolation=0.0, p_die=0.0, seed=9)
        with pytest.raises(EvaluationError) as err:
            run_strain(params, Scored(fail_at=11))
        partial = err.value.partial
        assert partial.termination is None
        assert partial.best is not None
        assert isinstance(partial.history, list)

    def test_patient_zero_failure_carries_an_empty_partial(self):
        with pytest.raises(EvaluationError) as err:
            run_strain(EpidemicParameters(seed=9), Scored(fail_at=1))
        partial = err.value.partial
        assert isinstance(partial, PandemicResult)
        assert (partial.best, partial.strains, partial.history) == (None, [], [])

    def test_duration_bounds_iteration_count(self):
        same_as_reference(B20, uniform(pandemic_duration=7, p_isolation=0.0, seed=0))


class TestSharedLedger:
    def test_bury_overrides_recovered(self):
        shared = SharedLedger()
        shared.recover_all({5})
        shared.bury(5)
        assert 5 in shared.dead
        assert 5 not in shared.recovered

    def test_recover_never_resurrects(self):
        shared = SharedLedger()
        shared.bury(5)
        shared.recover_all({5, 6})
        assert 5 in shared.dead
        assert shared.recovered == {6}

    def test_evaluate_memoizes(self):
        shared = SharedLedger()
        codec = Scored()
        g = 3
        assert shared.evaluate(codec, g) == shared.evaluate(codec, g)
        assert codec.scores == 1
        assert shared.evaluations_total() == 1

    def test_recoveries_are_counted_not_membership(self):
        shared = SharedLedger()
        shared.recover_all({5})
        shared.recovered.remove(5)  # reinfection
        shared.recover_all({5})
        shared.bury(6)
        shared.recover_all({6})
        assert shared.counts() == (1, 2)

    def test_evaluate_all_batches_uncached_once_in_order(self):
        shared = SharedLedger()
        codec = BatchingCodec()
        a, b, c = 1, 2, 3
        # a direct evaluate miss is a batch of one through the hook
        shared.evaluate(codec, b)
        values = shared.evaluate_all(codec, [c, b, a, c])
        assert values == [codec.inner.fitness(g) for g in (c, b, a, c)]
        assert codec.batches == [[b], [c, a]]
        assert shared.evaluate_all(codec, [a, c]) == [values[2], values[0]]
        assert codec.batches == [[b], [c, a]]

    def test_evaluate_all_caches_the_scores_before_a_failure(self):
        a, b, c, d = 1, 2, 3, 4
        shared = SharedLedger()
        codec = BatchingCodec(failing={b, c})
        with pytest.raises(EvaluationError) as err:
            shared.evaluate_all(codec, [a, b, c, d])
        assert str(err.value) == f"synthetic failure of {b!r}"
        assert codec.batches == [[a, b, c, d]]
        assert shared.fitness_cache == {a: codec.inner.fitness(a)}
        assert shared.evaluations_total() == 1

    def test_evaluate_all_rejects_a_non_finite_batch_score(self):
        a, b = 1, 2
        shared = SharedLedger()
        codec = BatchingCodec(scores={b: float("nan")})
        with pytest.raises(EvaluationError, match="non-finite"):
            shared.evaluate_all(codec, [a, b])
        assert b not in shared.fitness_cache
        assert shared.evaluations_total() == 1

    @pytest.mark.parametrize("returned", [1, 3], ids=["too-few", "too-many"])
    def test_evaluate_all_rejects_a_batch_of_the_wrong_size(self, returned):
        class MiscountingCodec(BatchingCodec):
            def fitness_all(self, genotypes):
                scores = list(super().fitness_all(genotypes))
                return (scores * 2)[:returned]

        a, b = 1, 2
        shared = SharedLedger()
        codec = MiscountingCodec()
        with pytest.raises(EvaluationError, match=f"returned {returned} scores for 2 genotypes"):
            shared.evaluate_all(codec, [a, b])
        paired = [a, b][:returned]
        assert shared.fitness_cache == {g: codec.inner.fitness(g) for g in paired}

    def test_non_finite_fitness_raises_and_is_not_cached(self):
        class BadCodec(RecordingCodec):
            def fitness(self, genotype):
                return float("inf")

        shared = SharedLedger()
        with pytest.raises(EvaluationError):
            shared.evaluate(BadCodec(), 3)
        assert shared.evaluations_total() == 0

    def test_an_int_score_past_the_float_range_is_finite(self):
        # math.isfinite(10**400) raises OverflowError; an int is finite at any size
        class HugeCodec(BinaryCodec):
            def fitness(self, genotype):
                return 10**400 + genotype

        result = run_pandemic(uniform(2, seed=1, pandemic_duration=5), HugeCodec(bits=10))
        assert len(result.history) == 5
        assert result.termination is Termination.DURATION_REACHED
        assert result.best.fitness == 10**400 + result.best.genotype
        assert type(result.best.fitness) is int
