"""Acceptance gate: one test per shipped claim, tolerances pinned.

Seeds are fixed in advance (1..50 for the binary studies, 1..20 for the
paired and surrogate studies, seed 1 for the demo run) and are never tuned
to the outcome. Each test prints one pass/fail line under pytest -v.
"""

import gc
import time
import weakref
from pathlib import Path
from random import Random

import pytest

from cvoa import (
    BinaryCodec,
    EpidemicParameters,
    Objective,
    PzStrategy,
    Termination,
    run_pandemic,
    run_strain,
)
from cvoa.cli import aggregate_summaries, build_codec, main, run_summary
from cvoa.nn import NetCodec, NetGenotype, decode, parse_net_text, resize_layers
from conftest import BudgetSpent, Scored, same_as_reference, stepped_with_deaths, uniform

SEEDS_50 = range(1, 51)
SEEDS_20 = range(1, 21)
LENGTHS = (10, 20, 30, 40, 50)
TARGET = 15
DURATION = 30


def campaign(configs, codec_for, stop=None, deadline=None) -> dict:
    """One pandemic per config, scored by `codec_for(seed)` and stopped at
    fitness `stop`, if given: the aggregates that `cvoa run` writes to
    summary.json. A `deadline`, a `time.monotonic()` reading, is checked at
    every score and after every pandemic: a spent budget fails the test, and
    so does a MemoryError."""
    runs = []
    try:
        for config in configs:
            seed = config.parameters[0].seed
            codec = codec_for(seed)
            result = run_pandemic(config, Scored(codec, deadline=deadline), stop_fitness=stop)
            runs.append(run_summary(seed, result, codec, Objective.MINIMIZE))
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetSpent
        return aggregate_summaries(runs, codec.search_space_size())
    except BudgetSpent:
        failure = "runtime budget exceeded"
    except MemoryError:
        failure = "out of memory"
    # failed outside the handler: a failure that held the error would keep
    # the stopped pandemic's frames, and all its memory, alive into the next test
    pytest.fail(f"{failure}: campaign unfinished after {len(runs)} pandemics")


def test_spent_budget_fails_inside_the_pandemic():
    """A campaign past its deadline fails at its first score, the patient-zero batch."""
    codec = BinaryCodec(bits=40, target=TARGET)
    with pytest.raises(pytest.fail.Exception, match="unfinished after 0 pandemics"):
        campaign([uniform(5, seed=1)], lambda _: codec, deadline=time.monotonic())


class Starving:
    """A 20-bit BinaryCodec whose `k`-th score raises MemoryError, and a
    weakref to the stream of each brood it breeds."""

    def __init__(self, k):
        self.codec, self.k, self.scores, self.streams = BinaryCodec(bits=20), k, 0, []

    def __getattr__(self, name):
        return getattr(self.codec, name)

    def replicate(self, parent, mode, count, traveler_rate, rng):
        self.streams.append(weakref.ref(rng))
        return self.codec.replicate(parent, mode, count, traveler_rate, rng)

    def fitness(self, genotype):
        self.scores += 1
        if self.scores == self.k:
            raise MemoryError
        return self.codec.fitness(genotype)


def test_memory_error_fails_the_campaign_and_frees_its_pandemic():
    """A campaign out of memory fails with its own message, and the failure,
    which pytest keeps past the test, holds nothing of the stopped pandemic:
    its strains are freed at once, without the cycle collector."""
    codec = Starving(600)  # 20 bits, seed 1: the 600th of 1,258 scores
    message = "out of memory: campaign unfinished after 0 pandemics"
    gc.disable()
    try:
        # `failure` stays bound through the check, as pytest keeps a failed test's error
        with pytest.raises(pytest.fail.Exception, match=message) as failure:
            campaign([uniform(5, seed=1)], lambda _: codec)
        alive = [ref for ref in codec.streams if ref() is not None]
    finally:
        gc.enable()
    assert codec.streams and not alive, f"{len(alive)} of {len(codec.streams)} streams alive"


@pytest.fixture(scope="module")
def length_sweep():
    """One 50-seed campaign per bit length, shared by the two trend
    criteria, within one 10 min budget; a spent budget fails both."""
    deadline = time.monotonic() + 600.0
    stats = {}
    for bits in LENGTHS:
        codec = BinaryCodec(bits=bits, target=TARGET)
        configs = (uniform(5, seed=seed) for seed in SEEDS_50)
        stats[bits] = campaign(configs, lambda _: codec, stop=0, deadline=deadline)
    return stats


def test_ten_bit_defaults_reach_optimum_reliably():
    """>= 95% of 50 seeded runs hit fitness 0 within 30 iterations, median <= 15, < 10 s."""
    codec = BinaryCodec(bits=10, target=TARGET)
    deadline = time.monotonic() + 10.0
    configs = (uniform(5, seed=seed) for seed in SEEDS_50)
    stats = campaign(configs, lambda seed: codec, deadline=deadline)
    success_rate = stats["success_rate"]
    assert stats["median_iterations_to_optimum"] <= 15
    assert success_rate >= 0.95, (
        f"optimum reached in {success_rate * 50:.0f}/50 runs ({success_rate:.0%})"
    )


def test_mean_iterations_to_optimum_grows_weakly_with_length(length_sweep):
    """Mean iterations-to-optimum weakly increases over {10..50} bits; one
    inversion of at most 1 iteration tolerated; whole campaign < 10 min."""
    means = [length_sweep[bits]["mean_iterations_to_optimum"] for bits in LENGTHS]
    assert all(m is not None for m in means), f"some length never reached the optimum: {means}"
    inversions = [
        (bits, earlier - later)
        for bits, earlier, later in zip(LENGTHS[1:], means, means[1:])
        if later < earlier
    ]
    assert len(inversions) <= 1, f"means not weakly increasing: {means} ({inversions})"
    assert all(gap <= 1.0 + 1e-9 for _, gap in inversions), f"inversion too deep: {inversions}"


def test_evaluated_fraction_shrinks_strictly_with_length(length_sweep):
    """Evaluated share of the space strictly decreases with length; < 2% at 20 bits."""
    fractions = [length_sweep[bits]["mean_evaluated_fraction"] for bits in LENGTHS]
    assert all(
        earlier > later for earlier, later in zip(fractions, fractions[1:])
    ), f"fractions not strictly decreasing: {fractions}"
    assert fractions[LENGTHS.index(20)] < 0.02


def test_twenty_bit_outbreak_shape_and_mortality_band():
    """Seed-1 default 20-bit run: infected counts rise then decay to 0 before
    iteration 30; terminal dead/(dead+recovered) within [0.03, 0.08]."""
    result = run_pandemic(uniform(5, seed=1), BinaryCodec(bits=20, target=TARGET))
    counts = [row.infected_count for row in result.history]
    peak = max(counts)
    peak_at = counts.index(peak)
    assert len(counts) <= DURATION
    assert counts[-1] == 0, f"infection still circulating after {len(counts)} iterations"
    assert peak > counts[0], f"no outbreak growth: {counts}"
    assert 0 < peak_at < len(counts) - 1
    dead_fraction = result.dead_total / (result.dead_total + result.recovered_total)
    assert 0.03 <= dead_fraction <= 0.08, f"dead fraction {dead_fraction:.4f} out of band"


def test_fixed_seed_single_strain_csv_is_byte_identical(tmp_path):
    """Two executions of the same single-strain config produce identical CSV bytes."""
    config = tmp_path / "config.json"
    config.write_text(
        '{"codec": {"kind": "binary", "bits": 20, "target": 15},'
        ' "parameters": {"seed": 7, "strains": 1}}',
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "run_7" / "iterations.csv").read_bytes()
    second = (tmp_path / "b" / "run_7" / "iterations.csv").read_bytes()
    assert first == second


def test_instrumented_run_upholds_ledger_invariants():
    """A whole run, 29 iterations to extinction, with a monotone best and
    every strain step checked against the reference model's ledger rules."""
    result = same_as_reference(BinaryCodec(bits=30, target=TARGET), uniform(seed=0))
    # a fixed-seed trajectory fact, like the pins in test_multistrain.py: a
    # deliberate change to the search re-pins it, never the seed or parameters
    assert (len(result.history), result.termination) == (29, Termination.EXTINCTION), (
        "the instrumented run changed length"
    )
    best_trace = [row.best_fitness for row in result.history]
    assert best_trace == sorted(best_trace, reverse=True), "best fitness not monotone"
    assert stepped_with_deaths(result), "no strain stepped with the dead in its ledger"


def test_resize_and_decode_match_worked_examples():
    """Layer-count shrink and architecture decoding reproduce the worked results exactly."""
    shrunk = resize_layers(parse_net_text("{2,0,4}{3,2,1,6}"), 2, Random(0))
    assert shrunk == parse_net_text("{2,0,2}{3,2}")

    spec = decode(parse_net_text("{4,0,8}{9,7,2,7,2,7,10,7}"))
    assert spec.learning_rate == 1e-4
    assert spec.dropout == 0
    assert spec.units_per_layer == (250, 200, 75, 200, 75, 200, 275, 200)


def test_surrogate_search_finds_hidden_targets_and_oracle_confirms_unique_zero():
    """>= 80% of 20 seeded searches reach surrogate fitness 0 within 30 iterations;
    exhaustive two-layer subspace (7776 genotypes) has exactly one zero."""
    # stopped at the goal: strains run in lockstep, so each run is the same up to it
    stats = campaign(
        (uniform(5, PzStrategy.RANDOM, seed=seed) for seed in SEEDS_20),
        lambda seed: build_codec({"kind": "nn", "surrogate_target": "random"}, seed),
        stop=0,
    )
    wins = stats["success_rate"] * 20
    assert stats["success_rate"] >= 0.80, f"hidden target found in only {wins:.0f}/20 runs"

    target = parse_net_text("{3,5,2}{7,2}")
    oracle = NetCodec(target)
    zeros = []
    cases = 0
    for lr in range(6):
        for drop in range(9):
            for c1 in range(12):
                for c2 in range(12):
                    g = NetGenotype(lr, drop, (c1, c2))
                    cases += 1
                    value = oracle.fitness(g)
                    assert value >= 0
                    if value == 0:
                        zeros.append(g)
    assert cases == 7776
    assert zeros == [target], f"surrogate zero is not unique: {zeros}"


def test_multi_strain_degenerate_equality_and_median_speedup():
    """strains=1 through the pandemic path reproduces the single-strain result;
    five strains reach the optimum no later (median over 20 paired seeds, 30-bit)."""
    codec = BinaryCodec(bits=30, target=TARGET)
    for seed in (1, 2, 3):
        pandemic = run_pandemic(uniform(seed=seed), codec)
        standalone = run_strain(EpidemicParameters(seed=seed), codec)
        assert pandemic.best == standalone.best
        assert pandemic.history == standalone.history

    def paired(strains: int) -> dict:
        configs = (uniform(strains, seed=seed) for seed in SEEDS_20)
        return campaign(configs, lambda seed: codec, stop=0)

    five, one = paired(5), paired(1)
    # medians are over reached runs only; with every 5-strain run reaching,
    # a 1-strain miss (later than any reach) can only raise its own median
    assert five["success_rate"] == 1.0, f"some 5-strain runs miss the optimum: {five}"
    five, one = five["median_iterations_to_optimum"], one["median_iterations_to_optimum"]
    assert five <= one, f"5-strain median {five} worse than single-strain {one}"


def test_large_scale_forecasting_study_declared_out_of_scope():
    """The published sub-1% MAPE forecasting results are documented as not
    reproducible at desk scale and substituted by the exactness and surrogate
    checks above."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert readme.exists(), "README.md missing"
    text = " ".join(readme.read_text(encoding="utf-8").lower().split())
    assert "not reproducible at desk scale" in text
    assert "mape" in text
