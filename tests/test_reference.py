"""The engine against `reference.py`, a plain model of the iteration and
of the lockstep driver: the same state after every strain step and the
same PandemicResult, over the whole validated parameter range. The
hand-picked cases of each rule run the same check under their own names
in test_engine.py and test_multistrain.py."""

from math import inf
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from cvoa import BinaryCodec, EpidemicParameters, MultiStrainConfig, NetCodec, Objective, PzStrategy
from conftest import same_as_reference


@st.composite
def codecs(draw):
    if draw(st.booleans()):
        return NetCodec(NetCodec.generate_patient_zero(Random(draw(st.integers(0, 2**32)))))
    bits = draw(st.integers(8, 12))
    return BinaryCodec(bits, draw(st.integers(0, 2**bits - 1)))


@st.composite
def strain_parameters(draw, objective, seed):
    # the whole range, with 0, 1 and the small rates of a long outbreak drawn often
    probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.0, 0.2))
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo, 4))
    wide_lo = draw(st.integers(hi, 6))
    return EpidemicParameters(
        p_die=draw(probability),
        p_superspreader=draw(probability),
        ordinary_spread_range=(lo, hi),
        superspreader_spread_range=(wide_lo, draw(st.integers(wide_lo, 8))),
        p_reinfection=draw(probability),
        p_isolation=draw(probability),
        p_travel=draw(probability),
        pandemic_duration=draw(st.integers(1, 4)),  # broods of 8 at most: 8**4 in a step
        traveler_rate=draw(st.integers(-1, 4)),
        objective=objective,
        seed=seed,
    )


@st.composite
def configs(draw):
    """1-4 strains, each with its own parameters, all under one objective."""
    objective = draw(st.sampled_from(Objective))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True))
    parameters = tuple(draw(strain_parameters(objective, seed)) for seed in seeds)
    return MultiStrainConfig(parameters, draw(st.sampled_from(PzStrategy)))


@settings(max_examples=300, deadline=None)
# the goal: none (most often), the codec's optimum, one every genotype meets, or an infinity
@given(codecs(), configs(), st.sampled_from([None, None, "optimum", "everyone", inf, -inf]))
def test_engine_steps_as_the_reference_does(codec, config, stop):
    if stop == "optimum":
        stop = codec.optimum_fitness()
    elif stop == "everyone":  # every score of both codecs is an int in [0, 2**64)
        stop = 2**64 if config.parameters[0].objective is Objective.MINIMIZE else 0
    same_as_reference(codec, config, stop)
