"""Epidemic model parameters and their validation.

All probabilities and spread ranges carry the suggested disease-statistics
defaults, so a default-constructed parameter set is immediately runnable.
The module also holds `randbelow`, the integer draw that the engine and the
bit codec share, and `Validated`, the base of the named tuples that check
their fields.
"""

from __future__ import annotations

from enum import Enum
from random import Random
from typing import Any, Callable, Iterable, NamedTuple


def randbelow(rng: Random, n: int) -> int:
    """Uniform integer in [0, n), drawn exactly as rng.randrange(n) draws it.

    For a `Random` (not a subclass that overrides `random()` alone) this
    makes the same getrandbits calls as CPython's `randrange(n)` and
    `randint(lo, lo + n - 1) - lo`: k = n.bit_length() bits, redrawn until
    the value is below n. It skips randrange's argument handling, which
    costs more than the draw on the engine's per-candidate path.
    """
    if n <= 0:
        raise ValueError(f"empty range for randbelow: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class Objective(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True when fitness a is strictly better than b."""
        if self is Objective.MINIMIZE:
            return a < b
        return a > b

    def best(self, items: Iterable[Any], key: Callable[[Any], float]) -> Any:
        """The item whose key is optimal; ties go to the first. Empty
        `items` raise ValueError."""
        return (min if self is Objective.MINIMIZE else max)(items, key=key)


class DistanceMode(Enum):
    """Mutation distance class: local move or long-range traveler move."""

    ORDINARY = "ordinary"
    TRAVELER = "traveler"


class ParameterError(ValueError):
    """Raised when a parameter set violates its invariants."""


class Validated:
    """Base of a named tuple that checks its fields in __post_init__.

    List it before the named-tuple base. The constructor, `_make` (and so
    `_replace`), copying and unpickling at every protocol all build through
    __new__, which runs the check.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        return type(self), tuple(self)


class EpidemicParameters(NamedTuple):
    p_die: float = 0.05
    p_superspreader: float = 0.1
    ordinary_spread_range: tuple[int, int] = (0, 5)
    superspreader_spread_range: tuple[int, int] = (6, 15)
    p_reinfection: float = 0.14
    p_isolation: float = 0.5
    p_travel: float = 0.1
    pandemic_duration: int = 30
    strains: int = 1
    traveler_rate: int = 3
    objective: Objective = Objective.MINIMIZE
    seed: int = 0

    def with_seed(self, seed: int) -> "EpidemicParameters":
        return self._replace(seed=seed)


_PROBABILITY_FIELDS = (
    "p_die",
    "p_superspreader",
    "p_reinfection",
    "p_isolation",
    "p_travel",
)


def validate_parameters(params: EpidemicParameters) -> EpidemicParameters:
    """Return params unchanged when valid, else raise with every violation."""
    violations: list[str] = []
    for name in _PROBABILITY_FIELDS:
        value = getattr(params, name)
        if not 0.0 <= value <= 1.0:
            violations.append(f"{name} out of [0,1]: {value}")
    lo, hi = params.ordinary_spread_range
    slo, shi = params.superspreader_spread_range
    if lo < 0:
        violations.append(f"ordinary_spread_range.low must be >= 0, got {lo}")
    if hi < lo:
        violations.append(f"ordinary_spread_range malformed: [{lo},{hi}]")
    if shi < slo:
        violations.append(f"superspreader_spread_range malformed: [{slo},{shi}]")
    if slo < hi:
        violations.append(
            "superspreader_spread_range.low must be >= ordinary_spread_range.high"
            f": {slo} < {hi}"
        )
    if params.pandemic_duration < 1:
        violations.append(f"pandemic_duration must be >= 1, got {params.pandemic_duration}")
    if params.strains < 1:
        violations.append(f"strains must be >= 1, got {params.strains}")
    if not 0 <= params.seed < 2**64:
        violations.append(f"seed must be a 64-bit unsigned integer, got {params.seed}")
    if violations:
        raise ParameterError("; ".join(violations))
    return params
