"""Parameter defaults, objectives and randbelow. `test_records.CASES` checks
each field rule on every way in; this file checks that every violation is
reported together and that a bad field stops a pandemic before any draw."""

import ast
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cvoa
from cvoa import BinaryCodec, EpidemicParameters, Objective, ParameterError, run_pandemic
from cvoa.params import randbelow
from conftest import uniform


def test_disease_statistics_defaults():
    p = EpidemicParameters()
    assert p.p_die == 0.05
    assert p.p_superspreader == 0.1
    assert p.ordinary_spread_range == (0, 5)
    assert p.superspreader_spread_range == (6, 15)
    assert p.p_reinfection == 0.14
    assert p.p_isolation == 0.5
    assert p.p_travel == 0.1
    assert p.pandemic_duration == 30
    assert p.objective is Objective.MINIMIZE


def test_defaults_validate():
    # construction runs the check, and the defaults pass it
    EpidemicParameters()


def test_all_violations_reported_together():
    with pytest.raises(ParameterError) as err:
        EpidemicParameters(p_die=2.0, p_isolation=-1.0, pandemic_duration=0)
    message = str(err.value)
    assert "p_die" in message and "p_isolation" in message and "pandemic_duration" in message


@pytest.mark.parametrize(
    "field, value",
    [
        ("pandemic_duration", 2.5),
        ("strains", 2.5),
        ("seed", 1.5),
        ("traveler_rate", True),
        ("objective", "minimize"),
        ("p_die", "0.05"),
        ("ordinary_spread_range", [0, 5]),
    ],
)
def test_field_of_wrong_type_rejected_before_any_draw(field, value):
    # pandemic_duration=2.5 once ran this 16-bit maximize pandemic for 106
    # iterations: no history length equals 2.5, so only extinction ended it
    fields = {"seed": 1, "strains": 5, "objective": Objective.MAXIMIZE, field: value}
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        run_pandemic(uniform(**fields), BinaryCodec(bits=16))


def test_with_seed_replaces_only_seed():
    p = EpidemicParameters(p_die=0.2)._replace(seed=99)
    assert p.seed == 99
    assert p.p_die == 0.2
    with pytest.raises(ParameterError, match="^seed must be"):
        p._replace(seed=-1)


def test_parameters_frozen():
    with pytest.raises(AttributeError):
        EpidemicParameters().p_die = 0.5


def test_objective_direction():
    assert Objective.MINIMIZE.better(1.0, 2.0)
    assert not Objective.MINIMIZE.better(2.0, 1.0)
    assert not Objective.MINIMIZE.better(1.0, 1.0)
    assert Objective.MAXIMIZE.better(2.0, 1.0)
    assert not Objective.MAXIMIZE.better(1.0, 2.0)


class TestRandbelow:
    """The engine relies on randbelow drawing exactly as Random does, so a
    fixed seed gives the same run on every supported interpreter."""

    @given(st.integers(0, 2**64 - 1), st.integers(1, 2**70 - 1))
    def test_matches_randrange_draw_for_draw(self, seed, n):
        ours, theirs = Random(seed), Random(seed)
        for _ in range(3):
            assert randbelow(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    @given(st.integers(0, 2**64 - 1), st.integers(-(2**40), 2**40), st.integers(0, 2**70))
    def test_offset_matches_randint(self, seed, lo, width):
        ours, theirs = Random(seed), Random(seed)
        hi = lo + width
        for _ in range(3):
            assert lo + randbelow(ours, hi - lo + 1) == theirs.randint(lo, hi)
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", [0, -1, -(2**65)])
    def test_empty_range_rejected(self, n):
        with pytest.raises(ValueError):
            randbelow(Random(0), n)

    def test_src_draws_integers_only_through_randbelow(self):
        # a Random subclass that overrides random() alone sends these calls
        # down another path than randbelow's, so one seed could give two runs
        stdlib_draws = {"randint", "randrange", "choice", "choices", "sample", "shuffle"}
        found = [
            f"{path.name}:{node.lineno} .{node.func.attr}"
            for path in sorted(Path(cvoa.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in stdlib_draws
        ]
        assert found == []
