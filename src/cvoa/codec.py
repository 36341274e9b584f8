"""Codec contract shared by all solution codifications.

A codec owns the genotype representation: how patient zeros are drawn, how
an infected individual replicates into mutated children, and how fitness
is computed. Genotypes must be immutable, hashable and equality-comparable;
they need no order, because the engine keeps its populations in the order
it discovers them, and a fixed seed reproduces that order. The engine
hashes and compares every candidate several times per iteration (ledger
lookups), so genotypes should do both cheaply. Both codecs' genotypes
are builtin-backed and do both in C: the binary codec's are plain `int`s,
their length kept by the codec, and the nn codec's are named tuples.

`replicate(parent, mode, count, traveler_rate, rng)` breeds one
spreader's whole brood: it returns an iterator over `count` children, all
of the same distance `mode`, and must draw each child from `rng` only
when the caller asks for it. The engine routes each child, which draws
from the same `rng`, before it asks for the next, so a brood drawn eagerly
would reorder the stream. A brood must make the same draws and yield the
same children as `count` one-child calls in a row; a count of 0 draws
nothing. A codec written against the earlier one-child method ports as a
generator: `for _ in range(count): yield old_replicate(parent, mode,
traveler_rate, rng)`.

Every score enters the engine through SharedLedger.evaluate_all: first a
pandemic's patient zeros, in strain order, then once per iteration of a
strain the genotypes not scored yet, each once and in discovery order. A
codec's batch hook `fitness_all(genotypes)`, if it has one, scores each
such batch in one call (concurrently, say) and returns an iterable of one
score per genotype, in order, that raises at the first failure after the
scores before it; without the hook, `fitness` scores one at a time. Of the
shipped codecs only the nn evaluator codec, `ExternalNetCodec`, has the
hook. Each score must be a finite real number (an `int` always is); a
failure, any other score or a miscounted batch is an EvaluationError,
raised once the scores before it are cached.
"""

from __future__ import annotations

from random import Random
from typing import Any, Iterator, NamedTuple, Protocol

from .params import DistanceMode


class EvaluationError(RuntimeError):
    """A fitness evaluation failed (crash, malformed reply, non-finite value).

    run_pandemic sets `partial` to its PandemicResult so far.
    """

    partial: Any = None


class EvaluatedIndividual(NamedTuple):
    """A genotype paired with its fitness, finite as the ledger checked it."""

    genotype: Any
    fitness: float


class Codec(Protocol):
    def generate_patient_zero(self, rng: Random) -> Any:
        ...

    def replicate(
        self, parent: Any, mode: DistanceMode, count: int, traveler_rate: int, rng: Random
    ) -> Iterator[Any]:
        """An iterator over the `count` mutated children of parent, each
        drawn from rng only when asked for."""
        ...

    def fitness(self, genotype: Any) -> float:
        ...

    def distance(self, a: Any, b: Any) -> int:
        """Hamming-style distance used to spread patient zeros apart."""
        ...

    def search_space_size(self) -> int:
        """Cardinality of the genotype space. run_pandemic never calls it;
        the CLI reads it for its room check and evaluated-fraction stats."""
        ...

    def text(self, genotype: Any) -> str:
        """Human-readable genotype form used in logs and result files."""
        ...

    def optimum_fitness(self) -> float | None:
        """The least fitness any genotype scores, or None when it is unknown."""
        ...
