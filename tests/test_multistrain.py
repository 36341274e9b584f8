"""Shared-ledger pandemics: PZ spreading, concurrency, aggregation."""

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvoa.engine
import cvoa.multistrain
from cvoa import (
    BinaryCodec,
    EpidemicParameters,
    EvaluationError,
    MultiStrainConfig,
    NetCodec,
    Objective,
    PandemicResult,
    PzStrategy,
    Termination,
    run_pandemic,
    seed_patient_zeros,
)
from cvoa.cli import build_codec
from conftest import Scored, same_as_reference, stepped_with_deaths, uniform

B20 = BinaryCodec(bits=20)
SRC = str(Path(cvoa.engine.__file__).resolve().parent.parent)


def reference_seed_patient_zeros(n, codec, strategy, rng):
    """seed_patient_zeros as first written: every round recomputes each pool
    member's distance to every pick. The incremental version must agree.
    Both strategies need n distinct genotypes among the first 50 * n draws,
    and raise a ValueError without them. RANDOM keeps each draw not already
    picked, until it has n; the spread never picks a genotype twice."""
    if strategy is PzStrategy.RANDOM or n == 1:
        chosen = []
        for _ in range(50 * n):
            candidate = codec.generate_patient_zero(rng)
            if candidate not in chosen:
                chosen.append(candidate)
            if len(chosen) == n:
                return chosen
        raise ValueError(f"the first {50 * n} draws gave {len(chosen)}")
    pool = [codec.generate_patient_zero(rng) for _ in range(50 * n)]
    if len(set(pool)) < n:
        raise ValueError(f"the first {50 * n} draws gave {len(set(pool))}")
    chosen = [pool[rng.randrange(len(pool))]]
    while len(chosen) < n:
        best_candidate = None
        best_distance = -1
        for candidate in pool:
            if candidate in chosen:
                continue
            d = min(codec.distance(candidate, picked) for picked in chosen)
            if d > best_distance:
                best_candidate = candidate
                best_distance = d
        chosen.append(best_candidate)
    return chosen


class MostlyZero(BinaryCodec):
    """A binary codec whose patient-zero draw is 0 ninety-nine times in a hundred."""

    __slots__ = ()

    def generate_patient_zero(self, rng):
        return 0 if rng.random() < 0.99 else super().generate_patient_zero(rng)


class FlatDistance(BinaryCodec):
    """A binary codec whose distance tells no two genotypes apart."""

    __slots__ = ()

    def distance(self, a, b):
        return 0


# seed_patient_zeros of 3 under the strategy named in argv[1], from a codec
# that draws only the genotypes 0 and 1
TWO_GENOTYPE_DRAWS = f"""
import sys
sys.path.insert(0, {SRC!r})
from random import Random
from cvoa import BinaryCodec, PzStrategy, seed_patient_zeros

class TwoGenotypes(BinaryCodec):
    __slots__ = ()

    def generate_patient_zero(self, rng):
        return rng.getrandbits(1)

try:
    print(seed_patient_zeros(3, TwoGenotypes(bits=10), PzStrategy(sys.argv[1]), Random(0)))
except ValueError as exc:
    print(f"ValueError: {{exc}}")
"""


class TestSeedPatientZeros:
    @given(
        st.one_of(
            st.integers(min_value=8, max_value=24).map(lambda bits: BinaryCodec(bits=bits)),
            st.just(NetCodec(target=NetCodec.generate_patient_zero(Random(0)))),
            # every pool member ties, copies of a pick too
            st.just(FlatDistance(bits=10)),
        ),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(PzStrategy),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_quadratic_reference(self, codec, n, strategy, seed):
        expected_rng, rng = Random(seed), Random(seed)
        expected = reference_seed_patient_zeros(n, codec, strategy, expected_rng)
        assert seed_patient_zeros(n, codec, strategy, rng) == expected
        assert rng.getstate() == expected_rng.getstate()

    def test_single_pz_matches_plain_draw(self):
        codec = BinaryCodec(bits=10)
        for strategy in PzStrategy:
            assert seed_patient_zeros(1, codec, strategy, Random(5)) == [
                codec.generate_patient_zero(Random(5))
            ]

    def test_spread_pairs_are_far_apart(self):
        codec = BinaryCodec(bits=10)
        far = 0
        trials = 200
        for seed in range(trials):
            a, b = seed_patient_zeros(2, codec, PzStrategy.MAX_HAMMING_SPREAD, Random(seed))
            far += codec.distance(a, b) >= 5
        assert far / trials >= 0.95

    def test_spreading_beats_random_on_average(self):
        codec = BinaryCodec(bits=20)

        def min_pairwise(pzs):
            return min(
                codec.distance(a, b)
                for i, a in enumerate(pzs)
                for b in pzs[i + 1 :]
            )

        spread_total = random_total = 0
        for seed in range(100):
            spread_total += min_pairwise(
                seed_patient_zeros(5, codec, PzStrategy.MAX_HAMMING_SPREAD, Random(seed))
            )
            random_total += min_pairwise(
                seed_patient_zeros(5, codec, PzStrategy.RANDOM, Random(seed))
            )
        assert spread_total >= random_total

    def test_random_strains_start_from_distinct_patient_zeros(self):
        # 8 bits, 5 strains: 7 of seeds 1-200 draw a repeat, which is redrawn
        codec = BinaryCodec(bits=8)
        for seed in range(1, 201):
            draws = Random(seed)
            stream = [codec.generate_patient_zero(draws) for _ in range(30)]
            expected = list(dict.fromkeys(stream))[:5]
            assert seed_patient_zeros(5, codec, PzStrategy.RANDOM, Random(seed)) == expected

    @pytest.mark.parametrize("strategy", PzStrategy)
    def test_patient_zeros_are_distinct_or_refused(self, strategy):
        # 116 of these seeds draw fewer than 3 distinct genotypes in their first 150 draws
        codec = MostlyZero(bits=10)
        refused = 0
        for seed in range(200):
            draws = Random(seed)
            distinct = len({codec.generate_patient_zero(draws) for _ in range(150)})
            if distinct < 3:
                refused += 1
                with pytest.raises(ValueError, match=f"the first 150 draws gave {distinct}$"):
                    seed_patient_zeros(3, codec, strategy, Random(seed))
            else:
                assert len(set(seed_patient_zeros(3, codec, strategy, Random(seed)))) == 3
        assert 0 < refused < 200

    @pytest.mark.parametrize("strategy", PzStrategy)
    def test_too_few_drawable_genotypes_refused(self, strategy):
        # in a subprocess, so that a draw loop that never ends fails on the timeout
        proc = subprocess.run(
            [sys.executable, "-c", TWO_GENOTYPE_DRAWS, strategy.value],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert proc.stdout == (
            "ValueError: 3 patient zeros need 3 distinct genotypes, "
            "but the first 150 draws gave 2\n"
        )

    def test_more_zeros_than_genotypes_rejected(self):
        # the draw rule alone refuses them: no draw finds a 257th of 256 genotypes
        codec = BinaryCodec(bits=8)
        message = "^257 patient zeros need 257 distinct genotypes, but the first 12850 draws gave 256$"
        for strategy in PzStrategy:
            with pytest.raises(ValueError, match=message):
                seed_patient_zeros(257, codec, strategy, Random(0))

    @pytest.mark.parametrize("strategy", PzStrategy)
    def test_no_patient_zeros_rejected(self, strategy):
        with pytest.raises(ValueError, match="^need at least one patient zero, got 0$"):
            seed_patient_zeros(0, BinaryCodec(bits=8), strategy, Random(0))

    def test_count_and_validity(self):
        codec = BinaryCodec(bits=10)
        pzs = seed_patient_zeros(5, codec, PzStrategy.MAX_HAMMING_SPREAD, Random(1))
        assert len(pzs) == 5
        assert all(type(g) is int and 0 <= g < 2**10 for g in pzs)


class TestMultiStrainConfig:
    def test_uniform_fans_out_distinct_seeds(self):
        config = MultiStrainConfig.uniform(EpidemicParameters(seed=3, strains=5))
        seeds = [p.seed for p in config.parameters]
        assert len(config.parameters) == 5
        assert len(set(seeds)) == 5
        assert seeds[0] == 3

    def test_hand_built_and_uniform_configs_share_the_default_strategy(self):
        # the hand-built default was once RANDOM while uniform spread them apart
        by_hand = MultiStrainConfig(parameters=tuple(EpidemicParameters(seed=s) for s in range(5)))
        uniform = MultiStrainConfig.uniform(EpidemicParameters(seed=1, strains=5))
        assert by_hand.pz_strategy is uniform.pz_strategy is PzStrategy.MAX_HAMMING_SPREAD

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            MultiStrainConfig(parameters=(EpidemicParameters(seed=1), EpidemicParameters(seed=1)))

    def test_mixed_objectives_rejected(self):
        # the pandemic's best is picked under one objective and each strain
        # ranks its spreaders under its own, so a mix has no single answer
        strains = (
            EpidemicParameters(seed=1),
            EpidemicParameters(seed=2, objective=Objective.MAXIMIZE),
        )
        with pytest.raises(ValueError, match="objective"):
            MultiStrainConfig(parameters=strains)

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            MultiStrainConfig(parameters=())

    def test_uniform_validates_parameters(self):
        from cvoa import ParameterError

        with pytest.raises(ParameterError):
            MultiStrainConfig.uniform(EpidemicParameters(p_die=2.0, strains=2))

    def test_each_strain_validated_at_construction(self):
        from cvoa import ParameterError

        with pytest.raises(ParameterError, match="p_die"):
            MultiStrainConfig(parameters=(EpidemicParameters(seed=1, p_die=2.0),))

    def test_uniform_validates_each_fanned_out_seed(self):
        from cvoa import ParameterError

        with pytest.raises(ParameterError, match="seed"):
            MultiStrainConfig.uniform(EpidemicParameters(seed=2**64 - 1, strains=2))


class TestRunPandemic:
    """Pandemics that reach each rule of the lockstep driver, checked
    against the reference model."""

    def test_single_strain_path_equals_run_strain(self):
        same_as_reference(B20, uniform(seed=1))

    def test_single_strain_trace_equals_run_strain_where_recovered_used_to_fall(self):
        same_as_reference(B20, uniform(seed=7))

    def test_five_strain_binary_run_is_reproducible(self):
        same_as_reference(B20, uniform(5, seed=1))

    def test_binary_genotypes_are_plain_ints(self):
        # the codec owns the length: every genotype the engine scores is an int
        class IntsOnly(BinaryCodec):
            def fitness(self, genotype):
                assert type(genotype) is int and 0 <= genotype < 2**self.bits, genotype
                return super().fitness(genotype)

        assert same_as_reference(IntsOnly(bits=20), uniform(5, seed=1)).evaluations_total > 5

    def test_five_strain_surrogate_run_is_reproducible(self):
        codec = build_codec({"kind": "nn", "surrogate_target": "random"}, 6)
        same_as_reference(codec, uniform(5, PzStrategy.RANDOM, seed=6, pandemic_duration=8))

    def test_single_strain_path_is_deterministic(self):
        same_as_reference(B20, uniform(seed=11))

    def test_distinct_per_strain_parameters_complete(self):
        p_dies = (0.01, 0.03, 0.05, 0.07, 0.09)
        strains = tuple(EpidemicParameters(p_die=p, seed=seed) for seed, p in enumerate(p_dies))
        same_as_reference(B20, MultiStrainConfig(strains))

    def test_merged_history_sums_infected_counts(self):
        same_as_reference(B20, uniform(5, seed=2))

    def test_merged_history_counters_monotone(self):
        same_as_reference(B20, uniform(5, seed=4))

    def test_initial_best_no_better_than_final(self):
        same_as_reference(B20, uniform(5, seed=12))

    def test_totals_come_from_the_shared_ledger(self):
        same_as_reference(B20, uniform(5, seed=8))

    def test_termination_aggregation(self):
        # a short pandemic cannot go extinct everywhere; one that isolates everyone does
        same_as_reference(B20, uniform(5, seed=1, pandemic_duration=2, p_die=0.0, p_isolation=0.0))
        same_as_reference(B20, uniform(5, seed=1, p_isolation=1.0, p_reinfection=0.0))

    def test_stop_fitness_halts_every_strain_in_the_goal_round(self):
        # 20 bits, seed 1: strain 2 reaches 0 in iteration 7 of 30
        same_as_reference(B20, uniform(5, seed=1), stop=0)

    def test_goal_stop_reports_goal_reached(self):
        same_as_reference(B20, uniform(5, seed=3), stop=0)

    def test_strain_extinct_before_the_goal_keeps_extinction(self):
        # 20 bits, seed 8: strain 4 dies out in iteration 1, the goal comes in 6
        same_as_reference(B20, uniform(5, seed=8), stop=0)

    def test_goal_in_the_last_iteration_outranks_the_duration(self):
        # 20 bits, seed 1: strains 0 and 1 end by duration in round 7 before
        # strain 2 reaches 0 in its own seventh and last step
        same_as_reference(B20, uniform(5, seed=1, pandemic_duration=7), stop=0)

    def test_patient_zero_at_the_goal_reports_goal_reached(self):
        # every 10-bit genotype scores below 2**20, so each patient zero is at the goal
        same_as_reference(BinaryCodec(bits=10), uniform(3, seed=1), stop=2**20)

    def test_nan_stop_fitness_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("patient zeros drawn")

        monkeypatch.setattr(cvoa.multistrain, "seed_patient_zeros", no_draw)
        with pytest.raises(ValueError, match="NaN"):
            run_pandemic(uniform(3, seed=1), BinaryCodec(bits=20), stop_fitness=float("nan"))

    def test_infinite_stop_fitness_keeps_its_meaning(self):
        # every fitness is at least as good as +inf under minimize, none as -inf
        for stop in (float("inf"), float("-inf")):
            same_as_reference(B20, uniform(3, seed=1), stop=stop)

    def test_goal_never_reached_keeps_the_old_terminations(self):
        same_as_reference(B20, uniform(5, seed=1, pandemic_duration=2), stop=0)

    def test_dead_genotypes_stay_out_of_circulation_under_contention(self):
        # tiny space + many strains forces heavy ledger contention
        codec = BinaryCodec(bits=8, target=15)
        runs = (same_as_reference(codec, uniform(8, seed=seed, p_die=0.2)) for seed in range(3))
        assert stepped_with_deaths(*runs)

    def test_no_strain_spreads_a_genotype_another_strain_buried(self):
        codec = BinaryCodec(bits=10)
        runs = (same_as_reference(codec, uniform(5, seed=seed)) for seed in range(1, 11))
        assert stepped_with_deaths(*runs)

    def test_net_codec_runs_uphold_the_ledger_rules(self):
        # hidden targets derived from the seed, as the acceptance surrogate study derives them
        results = []
        for seed in range(1, 4):
            codec = build_codec({"kind": "nn", "surrogate_target": "random"}, seed)
            results.append(same_as_reference(codec, uniform(5, seed=seed), stop=0))
        assert stepped_with_deaths(*results)

    def test_evaluation_error_cancels_and_reports_partials(self):
        # 20 bits, seed 1: the 600th of the pandemic's 1,258 evaluations fails
        partial = failed_pandemic(uniform(5, seed=1), 600)
        assert isinstance(partial, PandemicResult)
        assert partial.termination is None
        assert len(partial.strains) <= 5
        assert partial.evaluations_total == 599


@dataclass(frozen=True)
class UnorderedBits:
    """A bit genotype that hashes and compares equal but has no order."""

    value: int


class ViewCodec:
    """A 20-bit BinaryCodec whose genotypes are another type: `to_view`
    maps an int genotype to it and `from_view` maps it back. Its draws
    and scores are the int codec's."""

    def __init__(self, to_view, from_view):
        self.inner = BinaryCodec(bits=20)
        self.to_view = to_view
        self.from_view = from_view

    def generate_patient_zero(self, rng):
        return self.to_view(self.inner.generate_patient_zero(rng))

    def replicate(self, parent, mode, count, traveler_rate, rng):
        brood = self.inner.replicate(self.from_view(parent), mode, count, traveler_rate, rng)
        return map(self.to_view, brood)

    def fitness(self, genotype):
        return self.inner.fitness(self.from_view(genotype))

    def distance(self, a, b):
        return self.inner.distance(self.from_view(a), self.from_view(b))

    def text(self, genotype):
        return self.inner.text(self.from_view(genotype))


# a 3-strain run over bit-string genotypes, whose set order follows PYTHONHASHSEED
STR_GENOTYPE_RUN = f"""
import sys
sys.path[:0] = [{SRC!r}, {str(Path(__file__).resolve().parent)!r}]
from functools import partial
from cvoa import run_pandemic
from conftest import uniform
from test_multistrain import ViewCodec
codec = ViewCodec("{{:020b}}".format, partial(int, base=2))
result = run_pandemic(uniform(3, seed=1), codec)
print(repr(result))
"""


class TestGenotypeContract:
    """The engine asks of a genotype only that it hash and compare equal."""

    def test_unorderable_genotypes_run_and_reproduce(self):
        with pytest.raises(TypeError):
            UnorderedBits(1) < UnorderedBits(2)
        codec = ViewCodec(UnorderedBits, attrgetter("value"))
        config = uniform(2, seed=1)
        first = run_pandemic(config, codec)
        assert first.evaluations_total > 2
        assert run_pandemic(config, codec) == first
        # the engine never looks inside a genotype: the int codec makes the same run
        plain = run_pandemic(config, BinaryCodec(bits=20))
        assert first.history == plain.history
        assert [s.history for s in first.strains] == [s.history for s in plain.strains]
        assert first.best.genotype == UnorderedBits(plain.best.genotype)

    def test_str_genotypes_give_the_same_run_under_any_hash_seed(self):
        outputs = [
            subprocess.run(
                [sys.executable, "-c", STR_GENOTYPE_RUN],
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert "PandemicResult(" in outputs[0]
        assert outputs[0] == outputs[1]


def failed_pandemic(config, k):
    with pytest.raises(EvaluationError) as err:
        run_pandemic(config, Scored(fail_at=k))
    return err.value.partial


class TestPartialResults:
    """What EvaluationError.partial holds when an evaluation fails."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_patient_zero_failure_reports_no_strains(self, k):
        partial = failed_pandemic(uniform(3, seed=7), k)
        assert partial.strains == []
        assert partial.history == []
        assert partial.best is None
        assert partial.termination is None
        assert partial.evaluations_total == k - 1

    def test_patient_zero_failure_reports_no_initial_best(self):
        # the patient zeros are scored as one batch, so none of them counts
        partial = failed_pandemic(uniform(3, seed=7), 2)
        assert partial.initial_best is None

    def test_failure_in_a_middle_round(self):
        # 20 bits, seed 8: strain 4 dies out in iteration 1; the failure
        # comes in strain 2's step of round 3
        config = uniform(5, seed=8)
        full = run_pandemic(config, BinaryCodec(bits=20))
        before = full.strains[1].history[2].evaluations_total
        assert full.strains[2].history[2].evaluations_total > before
        partial = failed_pandemic(config, before + 1)
        assert partial.termination is None
        assert [len(s.history) for s in partial.strains] == [3, 3, 2, 2, 1]
        assert [s.termination for s in partial.strains] == [None] * 4 + [Termination.EXTINCTION]
        for strain, reference in zip(partial.strains, full.strains):
            assert strain.history == reference.history[: len(strain.history)]
        assert [row.iteration for row in partial.history] == [1, 2, 3]
        assert partial.history[:2] == full.history[:2]
        assert partial.history[-1].evaluations_total == before

    def test_failure_in_the_last_iteration_leaves_the_strain_unfinished(self):
        config = uniform(2, seed=1, pandemic_duration=1)
        full = run_pandemic(config, BinaryCodec(bits=20))
        before = full.strains[0].history[0].evaluations_total
        assert full.strains[1].history[0].evaluations_total > before
        partial = failed_pandemic(config, before + 1)
        assert [s.termination for s in partial.strains] == [Termination.DURATION_REACHED, None]
        assert partial.strains[1].history == []
        assert partial.history == full.strains[0].history
        alone = failed_pandemic(uniform(seed=1, pandemic_duration=1), 2)
        assert [s.termination for s in alone.strains] == [None]


def trajectory(codec, config, stop=None):
    """A fixed-seed pandemic's fingerprint: (evaluations_total, best text,
    iterations, last history row, sha256 prefix of repr() of the (deaths,
    recovered, infected, best) rows)."""
    result = run_pandemic(config, codec, stop_fitness=stop)
    rows = [
        (r.deaths_total, r.recovered_total, r.infected_count, r.best_fitness)
        for r in result.history
    ]
    return (
        result.evaluations_total,
        codec.text(result.best.genotype),
        len(rows),
        rows[-1],
        hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
    )


# (bits, seed) -> the trajectory() of a 1-strain run
SINGLE_STRAIN_PINS = {
    (10, 1): (6, "0000001101", 3, (3, 3, 0, 4), "10f27422fb6dee1d"),
    (10, 2): (59, "0000001111", 12, (9, 53, 0, 0), "741ba8a9c52b7986"),
    (10, 3): (10, "0001110011", 2, (1, 9, 0, 10000), "3e078f2c30a173fe"),
    (20, 1): (54, "00000000000000001111", 10, (3, 56, 0, 0), "8103939c73ab4c34"),
    (20, 2): (1078, "00000000000000001111", 27, (73, 1058, 0, 0), "5eb0bf5bb8a634bf"),
    (20, 3): (291, "00000000000000001111", 17, (17, 293, 0, 0), "99e422c36e55c8bb"),
    (50, 1): (18356, "0" * 46 + "1111", 30, (928, 17651, 346, 0), "acf36c30bc3a4b5e"),
    (50, 2): (50020, "0" * 46 + "1111", 30, (2502, 47856, 1193, 0), "32d2301134b5d9df"),
    (50, 3): (55655, "0" * 46 + "1111", 30, (2819, 52863, 1663, 0), "0a783e594cd97e6c"),
}


@pytest.mark.parametrize("bits,seed", sorted(SINGLE_STRAIN_PINS))
def test_single_strain_trajectory_is_pinned(bits, seed):
    """A change meant to keep the search as it is must keep these runs
    exactly. A deliberate change to the search (such as removing the
    target-aware mutation) re-pins them and says so in CHANGES.md."""
    observed = trajectory(BinaryCodec(bits=bits), uniform(seed=seed))
    assert observed == SINGLE_STRAIN_PINS[(bits, seed)], (
        f"the fixed-seed single-strain run at {bits} bits, seed {seed} changed; "
        "if the search was changed on purpose, re-pin and declare it in CHANGES.md"
    )


# (bits, seed, objective) -> the trajectory() of a 5-strain run: minimize
# stops at the optimum, maximize runs 12 iterations
MULTI_STRAIN_PINS = {
    (10, 1, "minimize"): (74, "0000001111", 3, (1, 57, 8, 0), "28d61fb315adf386"),
    (10, 2, "minimize"): (13, "0000001111", 1, (0, 4, 6, 0), "42ed9709d7c197b8"),
    (10, 3, "minimize"): (118, "0000001111", 4, (0, 91, 4, 0), "46fea2120d52705b"),
    (20, 1, "minimize"): (721, "00000000000000001111", 7, (35, 614, 34, 0), "1a6e01dc26f01e2e"),
    (20, 2, "minimize"): (736, "00000000000000001111", 7, (35, 586, 1, 0), "f8fea1d6d5a7947f"),
    (20, 3, "minimize"): (552, "00000000000000001111", 5, (26, 422, 112, 0), "9af1373d97a91e8e"),
    (50, 1, "minimize"): (1829, "0" * 46 + "1111", 7, (67, 1421, 284, 0), "f193b408be515446"),
    (50, 2, "minimize"): (2695, "0" * 46 + "1111", 8, (127, 2122, 376, 0), "528311a78f8c14d5"),
    (50, 3, "minimize"): (3688, "0" * 46 + "1111", 9, (182, 2985, 467, 0), "3c3d19aec2b1ee3d"),
    (20, 1, "maximize"): (
        5753,
        "11111111101011111111",
        12,
        (238, 4885, 716, 1096795398400),
        "3268f923d7e73cd3",
    ),
    (20, 2, "maximize"): (
        3251,
        "11111111110101000011",
        12,
        (157, 2812, 347, 1098010579600),
        "eeea49954c3aeea6",
    ),
}


@pytest.mark.parametrize("bits,seed,objective", sorted(MULTI_STRAIN_PINS))
def test_multi_strain_trajectory_is_pinned(bits, seed, objective):
    """The 5-strain counterpart of the single-strain pins, under both
    objectives, so that a drift in the lockstep or maximize paths shows."""
    codec = BinaryCodec(bits=bits)
    if objective == "minimize":
        observed = trajectory(codec, uniform(5, seed=seed), stop=0)
    else:
        config = uniform(5, seed=seed, objective=Objective(objective), pandemic_duration=12)
        observed = trajectory(codec, config)
    assert observed == MULTI_STRAIN_PINS[(bits, seed, objective)], (
        f"the fixed-seed 5-strain run at {bits} bits, seed {seed}, {objective} changed; "
        "if the search was changed on purpose, re-pin and declare it in CHANGES.md"
    )


def test_outcome_grid_is_pinned():
    """80 whole pandemics, hashed: a change meant to keep every fixed-seed
    result must keep this grid byte-identical. Binary 10/20/30 bits under
    minimize (stop at 0) and maximize, 5 strains, 12 iterations; nn
    surrogate under both patient-zero strategies, 3 strains, 10 iterations;
    seeds 1-10 each. The sha256 runs over repr() of each PandemicResult."""
    digest = hashlib.sha256()
    for bits in (10, 20, 30):
        codec = BinaryCodec(bits=bits)
        for objective, stop in ((Objective.MINIMIZE, 0), (Objective.MAXIMIZE, None)):
            for seed in range(1, 11):
                config = uniform(5, seed=seed, pandemic_duration=12, objective=objective)
                result = run_pandemic(config, codec, stop_fitness=stop)
                digest.update(repr(result).encode())
    for seed in range(1, 11):
        codec = build_codec({"kind": "nn", "surrogate_target": "random"}, seed)
        for pz_strategy in PzStrategy:
            result = run_pandemic(uniform(3, pz_strategy, seed=seed, pandemic_duration=10), codec)
            digest.update(repr(result).encode())
    assert digest.hexdigest()[:16] == "eab0ea3b78ead130", (
        "a fixed-seed pandemic in the grid changed; if the search was changed "
        "on purpose, re-pin and declare it in CHANGES.md"
    )
