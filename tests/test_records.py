"""Records are named tuples, and the ones that check their fields do so on
every way in: the constructor, `_replace`, `_make` and unpickling."""

import pickle
from pathlib import Path

import pytest

from cvoa import (
    BinaryCodec,
    EpidemicParameters,
    EvaluatedIndividual,
    IterationRecord,
    MultiStrainConfig,
    Objective,
    PandemicResult,
    PzStrategy,
    StrainResult,
)
from cvoa.cli import RunConfig
from cvoa.nn import ArchitectureSpec, ExternalEvaluator, ExternalNetCodec, NetCodec, NetGenotype
from cvoa.params import Validated

TARGET = NetGenotype(1, 2, (3, 4))
EVALUATOR = ExternalEvaluator(["true"])
# the valid instances the rows below start from
PARAMS = EpidemicParameters()
TOP_SEED = EpidemicParameters(seed=2**64 - 1)
ONE_STRAIN = MultiStrainConfig((EpidemicParameters(seed=1),))
BITS = BinaryCodec()
NET = NetCodec(target=TARGET)
EXTERNAL = ExternalNetCodec(EVALUATOR)
MAXIMIZE = EpidemicParameters(seed=2, objective=Objective.MAXIMIZE)

# name -> (a valid instance, field values that make it invalid, the error it
# raises): the one place where the tests state a rule of a checked record
CASES = {
    "strain p_die 2.0": (PARAMS, {"p_die": 2.0}, "p_die out of [0,1]: 2.0"),
    "negative p_die": (PARAMS, {"p_die": -0.01}, "p_die out of [0,1]: -0.01"),
    **{
        f"{name} 1.5": (PARAMS, {name: 1.5}, f"{name} out of [0,1]: 1.5")
        for name in ("p_superspreader", "p_reinfection", "p_isolation", "p_travel")
    },
    "p_die in text form": (PARAMS, {"p_die": "0.05"}, "p_die must be a number, got '0.05'"),
    "ordinary range in a list": (
        PARAMS,
        {"ordinary_spread_range": [0, 5]},
        "ordinary_spread_range must be a (low, high) pair of integers, got [0, 5]",
    ),
    "ordinary range below 0": (
        PARAMS,
        {"ordinary_spread_range": (-1, 5)},
        "ordinary_spread_range.low must be >= 0, got -1",
    ),
    "ordinary range reversed": (
        PARAMS,
        {"ordinary_spread_range": (5, 2)},
        "ordinary_spread_range malformed: [5,2]",
    ),
    "superspreader range reversed": (
        PARAMS,
        {"superspreader_spread_range": (15, 6)},
        "superspreader_spread_range malformed: [15,6]",
    ),
    # a "super" spreader may not produce fewer candidates than an ordinary one
    "superspreader range undercuts ordinary": (
        PARAMS,
        {"superspreader_spread_range": (3, 15)},
        "superspreader_spread_range.low must be >= ordinary_spread_range.high: 3 < 5",
    ),
    "fractional duration": (
        PARAMS,
        {"pandemic_duration": 2.5},
        "pandemic_duration must be an integer, got 2.5",
    ),
    "zero duration": (PARAMS, {"pandemic_duration": 0}, "pandemic_duration must be >= 1, got 0"),
    "fractional strains": (PARAMS, {"strains": 2.5}, "strains must be an integer, got 2.5"),
    "zero strains": (PARAMS, {"strains": 0}, "strains must be >= 1, got 0"),
    "bool traveler_rate": (
        PARAMS,
        {"traveler_rate": True},
        "traveler_rate must be an integer, got True",
    ),
    "objective by name": (
        PARAMS,
        {"objective": "minimize"},
        "objective must be an Objective, got 'minimize'",
    ),
    "fractional seed": (PARAMS, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    "negative seed": (PARAMS, {"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
    "seed 2**64": (
        TOP_SEED,
        {"seed": 2**64},
        f"seed must be a 64-bit unsigned integer, got {2**64}",
    ),
    "no strains": (ONE_STRAIN, {"parameters": ()}, "at least one strain"),
    # a plain tuple of the same fields never passed the record's check
    "strain as a plain tuple": (
        ONE_STRAIN,
        {"parameters": (tuple(EpidemicParameters(seed=1)),)},
        "each strain needs EpidemicParameters, got (",
    ),
    "duplicate seeds": (
        ONE_STRAIN,
        {"parameters": (EpidemicParameters(seed=1), EpidemicParameters(seed=1))},
        "pairwise distinct",
    ),
    "mixed objectives": (
        ONE_STRAIN,
        {"parameters": (EpidemicParameters(seed=1), MAXIMIZE)},
        "one objective",
    ),
    # a name was once taken, and spread the patient zeros apart
    "strategy by name": (
        ONE_STRAIN,
        {"pz_strategy": "random"},
        "pz_strategy must be a PzStrategy, got 'random'",
    ),
    "bits too few": (BITS, {"bits": 5}, "unsupported bit length 5"),
    "target does not fit": (BITS, {"target": 1 << 10}, "does not fit"),
    "fractional bits": (BITS, {"bits": 10.0}, "bits must be an integer, got 10.0"),
    "bool bits": (BITS, {"bits": True}, "bits must be an integer, got True"),
    # a float target once made every fitness a float
    "fractional target": (BITS, {"target": 15.0}, "target must be an integer, got 15.0"),
    "target out of range": (NET, {"target": NetGenotype(6, 0, (0, 0))}, "lr_code 6"),
    "target drop_code 9": (NET, {"target": NetGenotype(0, 9, (0, 0))}, "drop_code 9 out of [0,8]"),
    "target layer code 12": (
        NET,
        {"target": NetGenotype(0, 0, (12, 0))},
        "layer code 12 out of [0,11]",
    ),
    "target of one layer": (
        NET,
        {"target": NetGenotype(0, 0, (1,))},
        "layer count 1 out of (1,11]",
    ),
    "target of twelve layers": (
        NET,
        {"target": NetGenotype(0, 0, (0,) * 12)},
        "layer count 12 out of (1,11]",
    ),
    # each of these once built a codec, or raised TypeError instead
    "target lr_code in text form": (
        NET,
        {"target": NetGenotype("1", 2, (3, 4))},
        "lr_code must be an integer, got '1'",
    ),
    "target layer codes in a list": (
        NET,
        {"target": NetGenotype(1, 2, [3, 4])},
        "layer_codes must be a tuple, got [3, 4]",
    ),
    "target layer code in text form": (
        NET,
        {"target": NetGenotype(1, 2, (3, "4"))},
        "layer code must be an integer, got '4'",
    ),
    "fractional target lr_code": (
        NET,
        {"target": NetGenotype(1.0, 2, (3, 4))},
        "lr_code must be an integer, got 1.0",
    ),
    "bool target lr_code": (
        NET,
        {"target": NetGenotype(True, 2, (3, 4))},
        "lr_code must be an integer, got True",
    ),
    "target not a genotype": (NET, {"target": None}, "target must be a NetGenotype, got None"),
    "target in text form": (
        NET,
        {"target": "{1,2,2}{3,4}"},
        "target must be a NetGenotype, got '{1,2,2}{3,4}'",
    ),
    "evaluator not an evaluator": (
        EXTERNAL,
        {"evaluator": None},
        "evaluator must be an ExternalEvaluator, got None",
    ),
}

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def unchecked(good, changes):
    """good with `changes` applied, built as a bare tuple of its type, so no check runs."""
    values = tuple(changes.get(name, value) for name, value in zip(good._fields, good))
    return tuple.__new__(type(good), values)


def error_of(build) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", CASES)
def test_every_way_in_raises_the_constructors_error(case):
    good, changes, message = CASES[case]
    cls = type(good)
    bad = unchecked(good, changes)
    expected = error_of(lambda: cls(**bad._asdict()))
    assert message in expected[1]
    assert error_of(lambda: cls(*bad)) == expected
    assert error_of(lambda: good._replace(**changes)) == expected
    assert error_of(lambda: cls._make(bad)) == expected
    for protocol in PROTOCOLS:
        data = pickle.dumps(bad, protocol)
        assert error_of(lambda: pickle.loads(data)) == expected, protocol


def test_every_field_of_every_checked_record_has_a_row():
    # cvoa.nn is imported above, so its codecs are among the subclasses
    fields = {(cls, name) for cls in Validated.__subclasses__() for name in cls._fields}
    stated = {(type(good), name) for good, changes, _ in CASES.values() for name in changes}
    assert sorted((cls.__name__, name) for cls, name in fields - stated) == []


@pytest.mark.parametrize("case", CASES)
def test_every_way_in_keeps_a_valid_value(case):
    good, _, _ = CASES[case]
    cls = type(good)
    copies = [cls(**good._asdict()), cls(*good), good._replace(), cls._make(good)]
    copies += [pickle.loads(pickle.dumps(good, protocol)) for protocol in PROTOCOLS]
    for copy in copies:
        assert type(copy) is cls
        if isinstance(good, ExternalNetCodec):
            # an evaluator has no value equality: an unpickled copy holds its own
            assert type(copy.evaluator) is ExternalEvaluator
            assert vars(copy.evaluator) == vars(good.evaluator)
        else:
            assert copy == good


BEST = EvaluatedIndividual(15, 0)
ROW = IterationRecord(1, 0, 3, 2, 0, 4)
RECORDS = [
    PARAMS,
    BEST,
    ROW,
    StrainResult(BEST, [ROW], None),
    PandemicResult(BEST, [StrainResult(BEST, [ROW], None)], [ROW], 9, 4, 0, 3, None),
    ArchitectureSpec(0.1, 0.2, (25, 50)),
    RunConfig({"kind": "binary"}, EpidemicParameters(), PzStrategy.RANDOM, 1, Path("out")),
    BITS,
    ONE_STRAIN,
    NET,
    EXTERNAL,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_named_tuples(record):
    assert record == tuple(record)
    assert record._asdict() == dict(zip(record._fields, record))
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize(
    "record", [r for r in RECORDS if not isinstance(r, (StrainResult, PandemicResult, RunConfig))],
    ids=lambda r: type(r).__name__,
)
def test_frozen_records_hash_as_their_field_tuple(record):
    # the frozen dataclasses these replace hashed the same tuple
    assert hash(record) == hash(tuple(record))
