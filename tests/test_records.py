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

TARGET = NetGenotype(1, 2, (3, 4))
EVALUATOR = ExternalEvaluator(["true"])
ONE_STRAIN = MultiStrainConfig((EpidemicParameters(seed=1),))
MAXIMIZE = EpidemicParameters(seed=2, objective=Objective.MAXIMIZE)

# name -> (a valid instance, field values that make it invalid, the error it raises)
CASES = {
    "bits too few": (BinaryCodec(bits=10), {"bits": 5}, "unsupported bit length 5"),
    "target does not fit": (BinaryCodec(bits=10), {"target": 1 << 10}, "does not fit"),
    "no strains": (
        MultiStrainConfig.uniform(EpidemicParameters(strains=2)),
        {"parameters": ()},
        "at least one strain",
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
    "strain p_die 2.0": (EpidemicParameters(), {"p_die": 2.0}, "p_die out of [0,1]: 2.0"),
    "fractional duration": (
        EpidemicParameters(),
        {"pandemic_duration": 2.5},
        "pandemic_duration must be an integer, got 2.5",
    ),
    "fractional bits": (BinaryCodec(), {"bits": 10.0}, "bits must be an integer, got 10.0"),
    "bool bits": (BinaryCodec(), {"bits": True}, "bits must be an integer, got True"),
    # a float target once made every fitness a float
    "fractional target": (BinaryCodec(), {"target": 15.0}, "target must be an integer, got 15.0"),
    "target out of range": (
        NetCodec(target=TARGET),
        {"target": NetGenotype(6, 0, (0, 0))},
        "lr_code 6",
    ),
    # each of these once built a codec, or raised TypeError instead
    "target lr_code in text form": (
        NetCodec(target=TARGET),
        {"target": NetGenotype("1", 2, (3, 4))},
        "lr_code must be an integer, got '1'",
    ),
    "target layer codes in a list": (
        NetCodec(target=TARGET),
        {"target": NetGenotype(1, 2, [3, 4])},
        "layer_codes must be a tuple, got [3, 4]",
    ),
    "fractional target lr_code": (
        NetCodec(target=TARGET),
        {"target": NetGenotype(1.0, 2, (3, 4))},
        "lr_code must be an integer, got 1.0",
    ),
    "bool target lr_code": (
        NetCodec(target=TARGET),
        {"target": NetGenotype(True, 2, (3, 4))},
        "lr_code must be an integer, got True",
    ),
    "target not a genotype": (
        NetCodec(target=TARGET),
        {"target": None},
        "target must be a NetGenotype, got None",
    ),
    "target in text form": (
        NetCodec(target=TARGET),
        {"target": "{1,2,2}{3,4}"},
        "target must be a NetGenotype, got '{1,2,2}{3,4}'",
    ),
    "evaluator not an evaluator": (
        ExternalNetCodec(EVALUATOR),
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
    EpidemicParameters(),
    BEST,
    ROW,
    StrainResult(BEST, [ROW], None),
    PandemicResult(BEST, [StrainResult(BEST, [ROW], None)], [ROW], 9, 4, 0, 3, None),
    ArchitectureSpec(0.1, 0.2, (25, 50)),
    RunConfig({"kind": "binary"}, EpidemicParameters(), PzStrategy.RANDOM, 1, Path("out")),
    BinaryCodec(),
    ONE_STRAIN,
    NetCodec(target=TARGET),
    ExternalNetCodec(EVALUATOR),
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
