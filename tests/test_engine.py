"""Single-strain loop: phases, dispositions, bookkeeping, determinism."""

import math
from collections import Counter
from operator import attrgetter
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cvoa.engine
import cvoa.multistrain
from cvoa import (
    BinaryCodec,
    Disposition,
    DistanceMode,
    EpidemicParameters,
    EvaluatedIndividual,
    EvaluationError,
    MultiStrainConfig,
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
from cvoa.engine import Strain, resolve_isolates, superspreader_count

FITNESS = attrgetter("fitness")


class RecordingCodec:
    """BinaryCodec wrapper that counts fitness calls and records each
    child's replicate mode and the child itself."""

    def __init__(self, bits=10, target=15, fail_after=None):
        self.inner = BinaryCodec(bits=bits, target=target)
        self.fitness_calls = Counter()
        self.replicate_modes = []
        self.children = []
        self.fail_after = fail_after

    def generate_patient_zero(self, rng):
        return self.inner.generate_patient_zero(rng)

    def replicate(self, parent, mode, count, traveler_rate, rng):
        # one entry per child, recorded as the child is drawn
        for child in self.inner.replicate(parent, mode, count, traveler_rate, rng):
            self.replicate_modes.append(mode)
            self.children.append(child)
            yield child

    def fitness(self, genotype):
        self.fitness_calls[genotype] += 1
        if self.fail_after is not None and sum(self.fitness_calls.values()) > self.fail_after:
            raise EvaluationError("synthetic failure")
        return self.inner.fitness(genotype)

    def distance(self, a, b):
        return self.inner.distance(a, b)

    def search_space_size(self):
        return self.inner.search_space_size()

    def text(self, genotype):
        return self.inner.text(genotype)


class BatchingCodec(RecordingCodec):
    """RecordingCodec with a fitness_all hook that scores a whole batch
    first, then yields the scores in order and raises at a failing one."""

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


@pytest.fixture
def ledgers(monkeypatch):
    """Every SharedLedger that the runs in a test build, in order."""
    built = []

    class RecordedLedger(cvoa.multistrain.SharedLedger):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(cvoa.multistrain, "SharedLedger", RecordedLedger)
    return built


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


class TestNewInfection:
    def test_dead_candidate_ignored(self):
        strain = routing_strain(EpidemicParameters(p_isolation=0.0, p_reinfection=1.0))
        strain.shared.dead.add(7)
        assert new_infection(strain, 7) is Disposition.IGNORED
        assert 7 not in strain.new_infected

    def test_fresh_candidate_admitted_without_isolation(self):
        strain = routing_strain(EpidemicParameters(p_isolation=0.0))
        assert new_infection(strain, 7) is Disposition.ADDED_TO_NEW_INFECTED
        assert 7 in strain.new_infected

    def test_fresh_candidate_always_isolated_at_one(self):
        strain = routing_strain(EpidemicParameters(p_isolation=1.0))
        assert new_infection(strain, 7) is Disposition.ISOLATED
        assert 7 in strain.shared.recovered
        assert 7 in strain.isolated_now
        assert 7 not in strain.new_infected

    def test_recovered_candidate_reinfected_at_one(self):
        strain = routing_strain(EpidemicParameters(p_reinfection=1.0))
        strain.shared.recovered.add(7)
        assert new_infection(strain, 7) is Disposition.REINFECTED
        assert 7 not in strain.shared.recovered
        assert 7 in strain.new_infected

    def test_duplicate_candidate_gets_no_second_isolation_draw(self):
        strain = routing_strain(EpidemicParameters(p_isolation=0.0))
        assert new_infection(strain, 7) is Disposition.ADDED_TO_NEW_INFECTED
        strain.params = EpidemicParameters(p_isolation=1.0)
        assert new_infection(strain, 7) is Disposition.IGNORED
        assert 7 in strain.new_infected
        assert 7 not in strain.shared.recovered
        assert 7 not in strain.isolated_now

    def test_recovered_candidate_ignored_without_reinfection(self):
        strain = routing_strain(EpidemicParameters(p_reinfection=0.0))
        strain.shared.recovered.add(7)
        assert new_infection(strain, 7) is Disposition.IGNORED
        assert 7 in strain.shared.recovered


# the population moves each disposition makes, as
# (joins new_infected, joins recovered and isolated_now, leaves recovered)
MOVES = {
    Disposition.ADDED_TO_NEW_INFECTED: (True, False, False),
    Disposition.ISOLATED: (False, True, False),
    Disposition.REINFECTED: (True, False, True),
    Disposition.IGNORED: (False, False, False),
}


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


class TestInfect:
    def test_superspreader_uses_wide_range(self):
        codec = RecordingCodec(bits=20)
        params = EpidemicParameters(p_isolation=0.0)
        for seed in range(20):
            codec.replicate_modes.clear()
            infect(routing_strain(params, codec, Random(seed)), 5, True)
            assert 6 <= len(codec.replicate_modes) <= 15

    def test_zero_width_ordinary_range_spreads_nothing(self):
        codec = RecordingCodec()
        strain = routing_strain(EpidemicParameters(ordinary_spread_range=(0, 0)), codec)
        infect(strain, 5, False)
        assert strain.new_infected.keys() == set()
        assert codec.replicate_modes == []

    def test_forced_travel_uses_traveler_mode_for_whole_brood(self):
        codec = RecordingCodec(bits=20)
        infect(routing_strain(EpidemicParameters(p_travel=1.0), codec), 5, True)
        assert codec.replicate_modes
        assert all(mode is DistanceMode.TRAVELER for mode in codec.replicate_modes)

    def test_no_travel_stays_ordinary(self):
        codec = RecordingCodec(bits=20)
        infect(routing_strain(EpidemicParameters(p_travel=0.0), codec), 5, True)
        assert all(mode is DistanceMode.ORDINARY for mode in codec.replicate_modes)

    def test_added_genotypes_land_in_new_infected(self, monkeypatch):
        broods = []
        original = cvoa.engine.infect

        def checked(strain, individual, wide):
            before = list(strain.new_infected)
            bred = len(strain.codec.children)
            original(strain, individual, wide)
            brood = strain.codec.children[bred:]
            # p_isolation 0 on an empty ledger: every new child is admitted, once, as bred
            assert list(strain.new_infected) == list(dict.fromkeys([*before, *brood]))
            broods.append(brood)

        monkeypatch.setattr(cvoa.engine, "infect", checked)
        strain = routing_strain(EpidemicParameters(p_isolation=0.0), RecordingCodec(), Random(1))
        cvoa.engine.infect(strain, 5, True)
        assert len(broods) == 1 and broods[0]  # the hook ran, over a brood
        assert strain.new_infected

    @pytest.mark.parametrize("wide", [True, False])
    def test_draws_travel_then_count_then_each_candidate(self, wide):
        # replayed on a clone of the stream: a draw added, dropped or
        # reordered leaves the two streams, or the broods, apart
        codec = BinaryCodec(bits=20)
        params = EpidemicParameters(p_travel=0.5)
        for seed in range(20):
            rng = Random(seed)
            clone = Random()
            clone.setstate(rng.getstate())
            strain = routing_strain(params, codec, rng)
            infect(strain, 5, wide)

            traveling = clone.random() < params.p_travel
            lo, hi = params.superspreader_spread_range if wide else params.ordinary_spread_range
            count = clone.randint(lo, hi)
            mode = DistanceMode.TRAVELER if traveling else DistanceMode.ORDINARY
            replay = routing_strain(params, codec, clone)
            for _ in range(count):
                # one child at a time, each routed before the next is drawn
                [candidate] = codec.replicate(5, mode, 1, params.traveler_rate, clone)
                new_infection(replay, candidate)
            assert rng.getstate() == clone.getstate()
            assert list(strain.new_infected) == list(replay.new_infected)
            assert list(strain.isolated_now) == list(replay.isolated_now)


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
        codec = RecordingCodec(bits=20)
        params = EpidemicParameters(p_die=0.0, pandemic_duration=1)
        for seed in range(20):
            codec.replicate_modes.clear()
            run_strain(params.with_seed(seed), codec)
            assert 6 <= len(codec.replicate_modes) <= 15

    def test_fittest_spreaders_take_the_wide_range(self, monkeypatch):
        seen = []
        original = cvoa.engine.infect

        discovered = []

        def recording(strain, individual, wide):
            seen.append((strain.shared.fitness_cache[individual], individual, wide))
            discovered.append(list(strain.infected))
            return original(strain, individual, wide)

        monkeypatch.setattr(cvoa.engine, "infect", recording)
        for objective, sign in ((Objective.MINIMIZE, 1), (Objective.MAXIMIZE, -1)):
            seen.clear()
            discovered.clear()
            params = EpidemicParameters(
                p_die=0.0, p_isolation=0.0, pandemic_duration=2, objective=objective, seed=1
            )
            run_strain(params, BinaryCodec(bits=20))
            second = seen[1:]  # the spreaders of iteration 2, in the order they spread
            wide = [sign * f for f, _, w in second if w]
            narrow = [sign * f for f, _, w in second if not w]
            assert len(wide) == superspreader_count(0.1, len(second))
            # fittest first, ties in discovery order: the infected's own order
            fitness = {g: sign * f for f, g, _ in second}
            spreaders = [g for _, g, _ in second]
            assert spreaders == sorted(discovered[1], key=fitness.__getitem__)
            assert max(wide) <= min(narrow)


class TestResolveIsolates:
    def test_every_isolate_dies_at_total_mortality(self):
        strain = routing_strain(EpidemicParameters(p_isolation=1.0, p_die=1.0))
        for candidate in range(5):
            assert new_infection(strain, candidate) is Disposition.ISOLATED
        isolates = sorted(strain.isolated_now.keys() - strain.new_infected.keys())
        assert resolve_isolates(strain, isolates) == set(range(5))
        assert strain.shared.dead == set(range(5))
        assert strain.shared.recovered == set()
        assert strain.shared.recoveries == 0

    def test_surviving_isolates_count_as_recovered(self):
        strain = routing_strain(EpidemicParameters(p_isolation=1.0, p_die=0.0))
        for candidate in range(5):
            new_infection(strain, candidate)
        isolates = sorted(strain.isolated_now.keys() - strain.new_infected.keys())
        assert resolve_isolates(strain, isolates) == set()
        assert strain.shared.recovered == set(range(5))
        assert strain.shared.counts() == (0, 5)

    def test_reinfected_isolate_is_not_buried(self):
        isolate = EpidemicParameters(p_isolation=1.0, p_die=1.0)
        strain = routing_strain(isolate)
        new_infection(strain, 7)
        strain.params = EpidemicParameters(p_reinfection=1.0, p_die=1.0)
        assert new_infection(strain, 7) is Disposition.REINFECTED
        isolates = sorted(strain.isolated_now.keys() - strain.new_infected.keys())
        strain.params = isolate
        assert resolve_isolates(strain, isolates) == set()
        assert 7 not in strain.shared.dead
        assert 7 in strain.new_infected

    def test_spreader_isolated_by_its_own_strain_takes_no_second_death_draw(self):
        # a self-hit: a candidate equal to one of the strain's own spreaders
        # is routed as fresh, so it may be isolated; it took its death draw
        # as a spreader, so resolve_isolates neither draws for it nor buries it
        strain = routing_strain(EpidemicParameters(p_isolation=1.0, p_die=1.0))
        strain.infected = {7: None}
        assert new_infection(strain, 7) is Disposition.ISOLATED
        state = strain.rng.getstate()
        assert resolve_isolates(strain, [7]) == set()
        assert strain.rng.getstate() == state
        assert 7 not in strain.shared.dead
        assert 7 in strain.shared.recovered
        assert strain.shared.counts() == (0, 0)


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
        self.spread = 0

    def generate_patient_zero(self, rng):
        return 10

    def replicate(self, parent, mode, count, traveler_rate, rng):
        for _ in range(count):
            child = self.brood[self.spread % len(self.brood)]
            self.spread += 1
            yield child

    def fitness(self, genotype):
        return self.sign * (0.0 if genotype in self.brood else 1.0)

    def search_space_size(self):
        return 1 + len(self.brood)


class TestIterationBest:
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("brood", [(7, 3), (3, 7)])
    def test_fitness_tie_goes_to_the_first_discovered(self, objective, brood):
        params = EpidemicParameters(
            p_die=0.0,
            p_isolation=0.0,
            p_travel=0.0,
            ordinary_spread_range=(2, 2),
            superspreader_spread_range=(2, 2),
            pandemic_duration=1,
            objective=objective,
        )
        codec = TieCodec(brood, objective)
        result = run_strain(params, codec)
        assert codec.spread == 2
        first = brood[0]
        assert result.best == EvaluatedIndividual(first, codec.fitness(first))


class TestRunStrain:
    def test_total_mortality_ends_after_one_iteration(self):
        codec = BinaryCodec()
        result = run_strain(EpidemicParameters(p_die=1.0), codec)
        assert result.termination is Termination.EXTINCTION
        assert len(result.history) == 1
        assert result.history[0].deaths_total == 1
        assert result.history[0].infected_count == 0

    def test_total_mortality_buries_patient_zero(self, ledgers):
        result = run_strain(EpidemicParameters(p_die=1.0), BinaryCodec())
        [shared] = ledgers
        assert shared.dead == {result.best.genotype}

    @pytest.mark.parametrize(
        "invalid",
        [{"ordinary_spread_range": (5, 2)}, {"p_die": 2.0}, {"pandemic_duration": -1}],
    )
    def test_invalid_parameters_rejected_before_any_evaluation(self, invalid):
        codec = RecordingCodec()
        with pytest.raises(ParameterError):
            run_strain(EpidemicParameters(**invalid), codec)
        assert not codec.fitness_calls

    def test_universal_isolation_goes_extinct_immediately(self):
        codec = BinaryCodec()
        params = EpidemicParameters(p_isolation=1.0, p_reinfection=0.0, p_die=0.0)
        for seed in range(10):
            result = run_strain(params.with_seed(seed), codec)
            assert result.termination is Termination.EXTINCTION
            assert len(result.history) <= 2

    def test_fixed_seed_reproduces_everything(self):
        params = EpidemicParameters(seed=5)
        codec = BinaryCodec(bits=20)
        assert run_strain(params, codec) == run_strain(params, codec)

    def test_history_counters_monotone(self):
        result = run_strain(EpidemicParameters(seed=3), BinaryCodec(bits=20))
        for earlier, later in zip(result.history, result.history[1:]):
            assert later.deaths_total >= earlier.deaths_total
            assert later.recovered_total >= earlier.recovered_total
            assert later.best_fitness <= earlier.best_fitness
            assert later.evaluations_total >= earlier.evaluations_total

    def test_recovered_total_never_falls_on_reinfection(self):
        for seed in (0, 7, 40):
            result = run_strain(EpidemicParameters(seed=seed), BinaryCodec(bits=20))
            recovered = [row.recovered_total for row in result.history]
            assert recovered == sorted(recovered), f"seed {seed}: {recovered}"

    def test_best_matches_minimum_of_trace(self):
        result = run_strain(EpidemicParameters(seed=3), BinaryCodec(bits=20))
        assert result.best.fitness == result.history[-1].best_fitness

    def test_extinction_iff_no_infected_remain(self):
        for seed in range(8):
            result = run_strain(EpidemicParameters(seed=seed), BinaryCodec(bits=20))
            if result.termination is Termination.EXTINCTION:
                assert result.history[-1].infected_count == 0
            else:
                assert len(result.history) == 30

    def test_each_genotype_evaluated_at_most_once(self):
        codec = RecordingCodec(bits=20)
        run_strain(EpidemicParameters(seed=4), codec)
        assert codec.fitness_calls
        assert max(codec.fitness_calls.values()) == 1

    def test_dead_and_recovered_never_overlap(self, ledgers):
        run_strain(EpidemicParameters(seed=6), BinaryCodec(bits=20))
        [shared] = ledgers
        assert not (shared.dead & shared.recovered)

    def test_dead_members_never_reenter_circulation(self, monkeypatch, ledgers):
        original = cvoa.engine.infect
        checked_with_dead = []

        def checked(strain, individual, wide):
            original(strain, individual, wide)
            # no brood buries, so a dead member admitted or isolated is still dead here
            dead = strain.shared.dead
            assert not strain.new_infected.keys() & dead
            assert not strain.isolated_now.keys() & dead
            assert not strain.shared.recovered & dead
            checked_with_dead.append(bool(dead))

        monkeypatch.setattr(cvoa.engine, "infect", checked)
        for seed in range(5):
            run_strain(EpidemicParameters(seed=seed), BinaryCodec(bits=20))
        assert any(shared.dead for shared in ledgers)
        assert any(checked_with_dead)  # the hook ran after broods with deaths in the ledger

    def test_stop_fitness_halts_at_goal(self):
        result = run_pandemic(
            MultiStrainConfig.uniform(EpidemicParameters(seed=0, strains=1)),
            BinaryCodec(bits=10),
            stop_fitness=0,
        )
        assert result.best.fitness == 0
        assert result.history[-1].best_fitness == 0

    def test_evaluation_error_carries_partial_history(self):
        codec = RecordingCodec(bits=20, fail_after=10)
        params = EpidemicParameters(p_isolation=0.0, p_die=0.0, seed=9)
        with pytest.raises(EvaluationError) as err:
            run_strain(params, codec)
        partial = err.value.partial
        assert partial.termination is None
        assert partial.best is not None
        assert isinstance(partial.history, list)

    def test_patient_zero_failure_carries_an_empty_partial(self):
        with pytest.raises(EvaluationError) as err:
            run_strain(EpidemicParameters(seed=9), RecordingCodec(fail_after=0))
        partial = err.value.partial
        assert isinstance(partial, PandemicResult)
        assert (partial.best, partial.strains, partial.history) == (None, [], [])

    def test_duration_bounds_iteration_count(self):
        result = run_strain(
            EpidemicParameters(pandemic_duration=7, p_isolation=0.0, seed=10),
            BinaryCodec(bits=20),
        )
        assert len(result.history) <= 7


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
        codec = RecordingCodec()
        g = 3
        assert shared.evaluate(codec, g) == shared.evaluate(codec, g)
        assert codec.fitness_calls[g] == 1
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
        shared.evaluate(codec, b)
        values = shared.evaluate_all(codec, [c, b, a, c])
        assert values == [codec.inner.fitness(g) for g in (c, b, a, c)]
        assert codec.batches == [[b], [c, a]]
        assert shared.evaluate_all(codec, [a, c]) == [values[2], values[0]]
        assert codec.batches == [[b], [c, a]]
        # a direct evaluate miss is a batch of one through the hook
        assert codec.fitness_calls == Counter()

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
        # no genotype the batch missed is scored one by one instead
        assert codec.fitness_calls == Counter()

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

        config = MultiStrainConfig.uniform(EpidemicParameters(seed=1, strains=2, pandemic_duration=5))
        result = run_pandemic(config, HugeCodec(bits=10))
        assert len(result.history) == 5
        assert result.termination is Termination.DURATION_REACHED
        assert result.best.fitness == 10**400 + result.best.genotype
        assert type(result.best.fitness) is int
